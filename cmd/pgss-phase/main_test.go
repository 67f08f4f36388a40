package main

import (
	"os"
	"testing"
)

// TestEndToEnd runs the threshold sweep at a small size; any failure
// exits the test binary non-zero. The command registers its flags on the
// global flag set, so main runs once per test binary.
func TestEndToEnd(t *testing.T) {
	os.Args = []string{"pgss-phase", "-bench", "300.twolf", "-ops", "2000000", "-sweep"}
	main()
}
