package main

import (
	"os"
	"testing"
)

// TestEndToEnd runs the example at a small size; any failure exits the
// test binary non-zero.
func TestEndToEnd(t *testing.T) {
	os.Args = []string{"customworkload", "-ops", "3000000"}
	main()
}
