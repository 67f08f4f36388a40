package main

import (
	"os"
	"testing"
)

// TestEndToEnd runs the command at a small size; any failure exits the
// test binary non-zero.
func TestEndToEnd(t *testing.T) {
	os.Args = []string{"pgss-trace", "-ops", "2000000"}
	main()
}
