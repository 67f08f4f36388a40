//go:build unix

package binenc

import (
	"os"
	"syscall"

	"pgss/internal/pgsserrors"
)

// MapFile maps path into memory and returns its bytes. The mapping is
// private (copy-on-write), so callers may treat the result exactly like an
// os.ReadFile buffer — mutating it never touches the file. The zero-copy
// numeric views returned by Words alias the mapping, so it lives until
// release (see ReadFile); a failed unmap is ErrIO.
//
// Empty files map to an empty (non-mmapped) slice, since mmap of length 0
// is an error on most unixes; its release, like that of the read fallback,
// does nothing.
func MapFile(path string) (data []byte, release func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if size == 0 {
		return []byte{}, noRelease, nil
	}
	if int64(int(size)) == size {
		data, err = syscall.Mmap(int(f.Fd()), 0, int(size),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE)
		if err == nil {
			return data, func() error {
				if err := syscall.Munmap(data); err != nil {
					return pgsserrors.IOf("binenc: unmap %s: %v", path, err)
				}
				return nil
			}, nil
		}
		// Filesystems without mmap support (some network mounts) fall
		// back to a plain read.
	}
	data, err = os.ReadFile(path)
	return data, noRelease, err
}
