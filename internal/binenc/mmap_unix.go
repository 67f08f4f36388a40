//go:build unix

package binenc

import (
	"os"
	"syscall"
)

// MapFile maps path into memory and returns its bytes. The mapping is
// private (copy-on-write), so callers may treat the result exactly like an
// os.ReadFile buffer — mutating it never touches the file. The mapping is
// intentionally never munmapped: profile and checkpoint libraries live for
// the whole process, and the zero-copy numeric views returned by Words
// alias the mapping, so unmapping would invalidate live data.
//
// Empty files map to an empty (non-mmapped) slice, since mmap of length 0
// is an error on most unixes.
func MapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return []byte{}, nil
	}
	if int64(int(size)) != size {
		return os.ReadFile(path)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
	if err != nil {
		// Filesystems without mmap support (some network mounts) fall back
		// to a plain read.
		return os.ReadFile(path)
	}
	return data, nil
}
