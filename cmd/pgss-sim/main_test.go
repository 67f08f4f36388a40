package main

import (
	"os"
	"testing"
)

// TestEndToEnd runs the command at a small size; any failure exits the
// test binary non-zero.
func TestEndToEnd(t *testing.T) {
	os.Args = []string{"pgss-sim", "-ops", "2000000", "-technique", "pgss", "-diag", "-trace", "3"}
	main()
}
