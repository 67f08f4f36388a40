// Package binenc implements the compact binary container used by the
// profile and checkpoint persistence layers: a fixed header (magic +
// version) followed by CRC-framed, 8-byte-aligned sections.
//
// The format is designed for mmap loading: every frame payload starts on
// an 8-byte boundary relative to the file start, so numeric sections
// ([]uint32, []float64, little-endian) can be reinterpreted in place with
// zero copies on little-endian hosts. On big-endian or misaligned inputs
// the decoders transparently fall back to copying, so the format is
// portable even though the fast path is not.
//
// Layout (all integers little-endian):
//
//	header:  magic [8]byte | version uint32 | reserved uint32
//	frame:   tag uint32 | reserved uint32 | payloadLen uint64 |
//	         payload [payloadLen]byte | pad to 8 |
//	         crc32c(payload) uint32 | reserved uint32
//
// Frames repeat until end of file. Every decode failure is classified as
// pgsserrors.ErrCacheCorrupt, so loaders can delete the artifact and
// rebuild it (the profile cache's self-healing path).
package binenc

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"unsafe"

	"pgss/internal/pgsserrors"
)

// MagicLen is the fixed magic length; Writer and Reader reject other sizes.
const MagicLen = 8

const (
	headerSize       = 16
	frameHeaderSize  = 16
	frameTrailerSize = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLE reports whether the host is little-endian — the precondition for
// reinterpreting payload bytes as numeric slices in place.
var hostLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

var zeroPad [8]byte

// Writer emits a container to an io.Writer (typically inside
// faultinject.WriteAtomic, which supplies crash consistency).
type Writer struct {
	w   io.Writer
	err error
	hdr [frameHeaderSize]byte
}

// NewWriter writes the container header and returns the frame writer.
// magic must be exactly MagicLen bytes.
func NewWriter(w io.Writer, magic string, version uint32) (*Writer, error) {
	if len(magic) != MagicLen {
		return nil, pgsserrors.Invalidf("binenc: magic %q is %d bytes, want %d", magic, len(magic), MagicLen)
	}
	var hdr [headerSize]byte
	copy(hdr[:MagicLen], magic)
	binary.LittleEndian.PutUint32(hdr[8:], version)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: w}, nil
}

// Err returns the first write error, if any; once set, further frames are
// dropped.
func (w *Writer) Err() error { return w.err }

// Frame appends one framed section.
func (w *Writer) Frame(tag uint32, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	binary.LittleEndian.PutUint32(w.hdr[0:], tag)
	binary.LittleEndian.PutUint32(w.hdr[4:], 0)
	binary.LittleEndian.PutUint64(w.hdr[8:], uint64(len(payload)))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		w.err = err
		return err
	}
	if len(payload) > 0 {
		if _, err := w.w.Write(payload); err != nil {
			w.err = err
			return err
		}
	}
	if pad := (8 - len(payload)%8) % 8; pad > 0 {
		if _, err := w.w.Write(zeroPad[:pad]); err != nil {
			w.err = err
			return err
		}
	}
	var trailer [frameTrailerSize]byte
	binary.LittleEndian.PutUint32(trailer[0:], crc32.Checksum(payload, castagnoli))
	if _, err := w.w.Write(trailer[:]); err != nil {
		w.err = err
		return err
	}
	return nil
}

// FrameU32s appends a []uint32 section (little-endian, zero-copy on
// little-endian hosts).
func (w *Writer) FrameU32s(tag uint32, src []uint32) error {
	return w.Frame(tag, U32sAsBytes(src))
}

// FrameF64s appends a []float64 section (little-endian, zero-copy on
// little-endian hosts).
func (w *Writer) FrameF64s(tag uint32, src []float64) error {
	return w.Frame(tag, F64sAsBytes(src))
}

// Reader iterates the frames of a container held in memory (read or
// mmapped). Payload slices alias data; treat them as immutable if data is.
type Reader struct {
	data []byte
	off  int
}

// HasMagic reports whether data begins with the given container magic.
func HasMagic(data []byte, magic string) bool {
	return len(magic) == MagicLen && len(data) >= MagicLen && string(data[:MagicLen]) == magic
}

// Magic returns the 8-byte container magic of data, when data is long
// enough to carry one. Stores holding containers of several kinds (the
// artifact store keeps profiles next to checkpoint libraries) sniff it to
// dispatch to the right decoder.
func Magic(data []byte) (string, bool) {
	if len(data) < MagicLen {
		return "", false
	}
	return string(data[:MagicLen]), true
}

// ScanFrames walks every frame of a container, verifying the header and
// each frame's CRC without decoding any payload, and returns the frame
// count. It is the cheap structural-integrity check (the artifact store's
// verify pass) for containers whose payload semantics live elsewhere; any
// violation comes back as ErrCacheCorrupt-classified.
func ScanFrames(data []byte, magic string) (frames int, err error) {
	r, _, err := NewReader(data, magic)
	if err != nil {
		return 0, err
	}
	for {
		if _, _, err := r.Next(); err != nil {
			if err == io.EOF {
				return frames, nil
			}
			return frames, err
		}
		frames++
	}
}

// NewReader validates the header and returns a frame iterator plus the
// container version. The caller decides which versions it understands;
// unknown versions should be treated like corruption (delete and rebuild)
// by cache-style consumers.
func NewReader(data []byte, magic string) (*Reader, uint32, error) {
	if len(magic) != MagicLen {
		return nil, 0, pgsserrors.Invalidf("binenc: magic %q is %d bytes, want %d", magic, len(magic), MagicLen)
	}
	if len(data) < headerSize {
		return nil, 0, pgsserrors.Corruptf("binenc: %d-byte input shorter than header", len(data))
	}
	if !HasMagic(data, magic) {
		return nil, 0, pgsserrors.Corruptf("binenc: bad magic %q, want %q", data[:MagicLen], magic)
	}
	version := binary.LittleEndian.Uint32(data[8:])
	return &Reader{data: data, off: headerSize}, version, nil
}

// Next returns the next frame's tag and payload, verifying its CRC. It
// returns io.EOF after the last frame. The payload aliases the reader's
// backing data.
func (r *Reader) Next() (tag uint32, payload []byte, err error) {
	if r.off == len(r.data) {
		return 0, nil, io.EOF
	}
	if len(r.data)-r.off < frameHeaderSize {
		return 0, nil, pgsserrors.Corruptf("binenc: truncated frame header at offset %d", r.off)
	}
	hdr := r.data[r.off:]
	tag = binary.LittleEndian.Uint32(hdr[0:])
	size := binary.LittleEndian.Uint64(hdr[8:])
	body := r.off + frameHeaderSize
	rest := uint64(len(r.data) - body)
	if size > rest {
		return 0, nil, pgsserrors.Corruptf("binenc: frame at offset %d declares %d payload bytes, %d remain", r.off, size, rest)
	}
	padded := size + (8-size%8)%8
	if padded+frameTrailerSize > rest {
		return 0, nil, pgsserrors.Corruptf("binenc: truncated frame trailer at offset %d", r.off)
	}
	payload = r.data[body : body+int(size)]
	want := binary.LittleEndian.Uint32(r.data[body+int(padded):])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return 0, nil, pgsserrors.Corruptf("binenc: frame at offset %d: crc %08x, want %08x", r.off, got, want)
	}
	r.off = body + int(padded) + frameTrailerSize
	return tag, payload, nil
}

// U32sAsBytes views src as its little-endian byte encoding. Zero-copy on
// little-endian hosts; an encoded copy otherwise.
func U32sAsBytes(src []uint32) []byte {
	if len(src) == 0 {
		return nil
	}
	if hostLE {
		return unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), len(src)*4)
	}
	out := make([]byte, len(src)*4)
	for i, v := range src {
		binary.LittleEndian.PutUint32(out[i*4:], v)
	}
	return out
}

// F64sAsBytes views src as its little-endian byte encoding. Zero-copy on
// little-endian hosts; an encoded copy otherwise.
func F64sAsBytes(src []float64) []byte {
	if len(src) == 0 {
		return nil
	}
	if hostLE {
		return unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), len(src)*8)
	}
	out := make([]byte, len(src)*8)
	for i, v := range src {
		binary.LittleEndian.PutUint64(out[i*8:], *(*uint64)(unsafe.Pointer(&v)))
	}
	return out
}

// U32s decodes a little-endian []uint32 payload. On little-endian hosts
// with 4-byte-aligned payloads (guaranteed for frames of an aligned
// container) the result aliases payload with zero copies.
func U32s(payload []byte) ([]uint32, error) {
	if len(payload)%4 != 0 {
		return nil, pgsserrors.Corruptf("binenc: %d-byte payload not a []uint32", len(payload))
	}
	if len(payload) == 0 {
		return nil, nil
	}
	if hostLE && uintptr(unsafe.Pointer(&payload[0]))%unsafe.Alignof(uint32(0)) == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&payload[0])), len(payload)/4), nil
	}
	out := make([]uint32, len(payload)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(payload[i*4:])
	}
	return out, nil
}

// F64s decodes a little-endian []float64 payload, zero-copy when aligned
// on little-endian hosts (see U32s).
func F64s(payload []byte) ([]float64, error) {
	if len(payload)%8 != 0 {
		return nil, pgsserrors.Corruptf("binenc: %d-byte payload not a []float64", len(payload))
	}
	if len(payload) == 0 {
		return nil, nil
	}
	if hostLE && uintptr(unsafe.Pointer(&payload[0]))%unsafe.Alignof(float64(0)) == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&payload[0])), len(payload)/8), nil
	}
	out := make([]float64, len(payload)/8)
	for i := range out {
		bits := binary.LittleEndian.Uint64(payload[i*8:])
		out[i] = *(*float64)(unsafe.Pointer(&bits))
	}
	return out, nil
}
