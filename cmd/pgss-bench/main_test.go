package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestEndToEnd runs every technique of the table through the campaign
// mode at a small size, without an artifact store; any failed run exits
// the test binary non-zero. The command registers its flags on the
// global flag set, so main runs once per test binary.
func TestEndToEnd(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "c.jsonl")
	os.Args = []string{"pgss-bench", "-campaign", "all", "-seeds", "1", "-ops", "2000000",
		"-artifacts", "", "-journal", journal, "-q"}
	main()
}
