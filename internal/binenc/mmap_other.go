//go:build !unix

package binenc

import "os"

// MapFile reads path into memory. Non-unix platforms have no mmap fast
// path; the semantics (a private buffer the caller may mutate) match the
// unix implementation, and release does nothing.
func MapFile(path string) (data []byte, release func() error, err error) {
	data, err = os.ReadFile(path)
	return data, noRelease, err
}
