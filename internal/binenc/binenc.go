// Package binenc implements the compact binary container used by the
// profile and checkpoint persistence layers: a fixed header (magic +
// version) followed by CRC-framed, 8-byte-aligned sections.
//
// The format is designed for mmap loading: every frame payload starts on
// an 8-byte boundary relative to the file start, so numeric sections
// (slices of a Word type such as []uint32 or []int64, little-endian) can be
// reinterpreted in place with zero copies on little-endian hosts. On big-endian or misaligned inputs
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
// Frames repeat until end of file. Writers put zeros in every reserved
// word and pad byte, and readers require them, so no byte of a container
// can change without failing its decode. Every decode failure is classified
// as pgsserrors.ErrCacheCorrupt, so loaders can delete the artifact and
// rebuild it (the profile cache's self-healing path).
package binenc

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"unsafe"

	"pgss/internal/faultinject"
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
	if reserved := binary.LittleEndian.Uint32(data[12:]); reserved != 0 {
		return nil, 0, pgsserrors.Corruptf("binenc: reserved header word is %#x, want 0", reserved)
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
	trailer := r.data[body+int(padded):]
	// A frame the Writer wrote has zeros in both reserved words and in
	// every pad byte.
	stray := binary.LittleEndian.Uint32(hdr[4:]) | binary.LittleEndian.Uint32(trailer[4:])
	for _, b := range r.data[body+int(size) : body+int(padded)] {
		stray |= uint32(b)
	}
	if stray != 0 {
		return 0, nil, pgsserrors.Corruptf("binenc: frame at offset %d: non-zero reserved or pad bytes", r.off)
	}
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return 0, nil, pgsserrors.Corruptf("binenc: frame at offset %d: crc %08x, want %08x", r.off, got, want)
	}
	r.off = body + int(padded) + frameTrailerSize
	return tag, payload, nil
}

// Word is the element type of a numeric section: a fixed-size integer or
// float stored as its little-endian bytes.
type Word interface {
	~uint32 | ~int32 | ~float32 | ~uint64 | ~int64 | ~float64
}

// WordBytes views src as its little-endian byte encoding, the payload of a
// numeric section (w.Frame(tag, WordBytes(src))). Zero-copy on
// little-endian hosts; an encoded copy otherwise.
func WordBytes[T Word](src []T) []byte {
	if len(src) == 0 {
		return nil
	}
	size := int(unsafe.Sizeof(src[0]))
	if hostLE {
		return unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), len(src)*size)
	}
	out := make([]byte, len(src)*size)
	for i := range src {
		if size == 4 {
			binary.LittleEndian.PutUint32(out[i*4:], *(*uint32)(unsafe.Pointer(&src[i])))
		} else {
			binary.LittleEndian.PutUint64(out[i*8:], *(*uint64)(unsafe.Pointer(&src[i])))
		}
	}
	return out
}

// Words decodes a little-endian []T payload. On little-endian hosts with
// a payload aligned for T (guaranteed for frames of an aligned container)
// the result aliases payload with zero copies, so it is exactly as mutable
// as payload is.
func Words[T Word](payload []byte) ([]T, error) {
	var zero T
	size := int(unsafe.Sizeof(zero))
	if len(payload)%size != 0 {
		return nil, pgsserrors.Corruptf("binenc: %d-byte payload not a []%T", len(payload), zero)
	}
	if len(payload) == 0 {
		return nil, nil
	}
	if hostLE && uintptr(unsafe.Pointer(&payload[0]))%unsafe.Alignof(zero) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&payload[0])), len(payload)/size), nil
	}
	out := make([]T, len(payload)/size)
	for i := range out {
		if size == 4 {
			*(*uint32)(unsafe.Pointer(&out[i])) = binary.LittleEndian.Uint32(payload[i*4:])
		} else {
			*(*uint64)(unsafe.Pointer(&out[i])) = binary.LittleEndian.Uint64(payload[i*8:])
		}
	}
	return out, nil
}

// Bools views a byte payload as []bool, one byte (0 or 1) an element, with
// zero copies; any other byte is ErrCacheCorrupt, since no bool holds it.
// An empty payload gives nil.
func Bools(payload []byte) ([]bool, error) {
	i := 0
	for ; i+8 <= len(payload); i += 8 { // eight bytes a step while all are 0 or 1
		if binary.LittleEndian.Uint64(payload[i:])&0xfefefefefefefefe != 0 {
			break
		}
	}
	for ; i < len(payload); i++ {
		if payload[i] > 1 {
			return nil, pgsserrors.Corruptf("binenc: byte %d of a []bool payload is %d", i, payload[i])
		}
	}
	if len(payload) == 0 {
		return nil, nil
	}
	return unsafe.Slice((*bool)(unsafe.Pointer(&payload[0])), len(payload)), nil
}

// BoolBytes views src as its payload bytes, one byte (0 or 1) an element,
// with zero copies: the inverse of Bools.
func BoolBytes(src []bool) []byte {
	if len(src) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&src[0])), len(src))
}

// ReadFile loads an artifact file. On the real filesystem the file is
// mmapped (see MapFile: O(1) start-up for large arenas); injected
// filesystems read through the FS seam, so fault schedules observe every
// read and stay deterministic. release unmaps a mapped file and does
// nothing for one read into memory. Call it when decoding data fails, or
// once nothing decoded from data is kept; nothing may alias data after it.
func ReadFile(fsys faultinject.FS, path string) (data []byte, release func() error, err error) {
	if faultinject.IsOS(fsys) {
		return MapFile(path)
	}
	f, err := faultinject.Open(fsys, path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	data, err = io.ReadAll(f)
	return data, noRelease, err
}

// noRelease is the release function of bytes that are not a mapping.
func noRelease() error { return nil }
