package main

import (
	"os"
	"testing"
)

// TestEndToEnd runs the example at a small size; any failure exits the
// test binary non-zero.
func TestEndToEnd(t *testing.T) {
	os.Args = []string{"livepoints", "-ops", "2000000", "-stride", "250000", "-n", "8"}
	main()
}
