package binenc

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"pgss/internal/pgsserrors"
)

// FuzzFrameDecoder drives the reader over arbitrary bytes: it must never
// panic, and every failure must classify as cache corruption so loaders
// self-heal instead of crashing.
func FuzzFrameDecoder(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMagic, 1)
	if err != nil {
		f.Fatal(err)
	}
	w.Frame(1, []byte("seed payload"))
	w.Frame(2, WordBytes([]uint32{1, 2, 3}))
	w.Frame(3, WordBytes([]float64{1.5, -2.5}))
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte(testMagic))
	f.Add([]byte{})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-6] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		r, _, err := NewReader(data, testMagic)
		if err != nil {
			if !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
				t.Fatalf("NewReader err = %v, want ErrCacheCorrupt", err)
			}
			return
		}
		for i := 0; i < 1<<10; i++ {
			_, payload, err := r.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				if !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
					t.Fatalf("Next err = %v, want ErrCacheCorrupt", err)
				}
				return
			}
			// Numeric views must tolerate any payload length.
			if len(payload)%4 == 0 {
				if _, err := Words[uint32](payload); err != nil {
					t.Fatalf("Words[uint32] on aligned payload: %v", err)
				}
			}
			if len(payload)%8 == 0 {
				if _, err := Words[float64](payload); err != nil {
					t.Fatalf("Words[float64] on aligned payload: %v", err)
				}
			}
		}
		t.Fatal("reader did not terminate within frame budget")
	})
}
