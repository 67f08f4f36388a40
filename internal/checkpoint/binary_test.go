package checkpoint

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pgss/internal/binenc"
	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
	"pgss/internal/workload"
)

// TestBinaryLibraryFormat verifies the saved file is the framed binary
// container, loads via the real-filesystem mmap path, and round-trips the
// checkpoints exactly.
func TestBinaryLibraryFormat(t *testing.T) {
	c, _ := newCore(t, "177.mesa", 150_000)
	lib, err := Record(c, 50_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lib.ckpt")
	if err := lib.Save(nil, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !binenc.HasMagic(data, libraryMagic) {
		t.Fatalf("saved library does not start with %q", libraryMagic)
	}
	got, err := Load(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.strideOps != lib.strideOps || !reflect.DeepEqual(got.checkpoints, lib.checkpoints) {
		t.Fatal("binary round-trip changed the library")
	}
}

// TestLoadLegacyGobLibrary: a library in the pre-binary whole-file gob
// form is no longer a supported input and loads as corruption, so the
// store re-records it.
func TestLoadLegacyGobLibrary(t *testing.T) {
	c, _ := newCore(t, "197.parser", 150_000)
	lib, err := Record(c, 50_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	mem := faultinject.NewMemFS()
	img := struct {
		StrideOps   uint64
		Checkpoints []*Checkpoint
	}{lib.strideOps, lib.checkpoints}
	err = faultinject.WriteAtomic(mem, "legacy.ckpt", 0o644, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(img)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(mem, "legacy.ckpt"); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("legacy gob library: err = %v, want ErrCacheCorrupt", err)
	}
}

// TestLoadLibraryVersionSkew verifies an unsupported container version is
// classified as corruption (delete + re-record), not silently misdecoded.
func TestLoadLibraryVersionSkew(t *testing.T) {
	c, _ := newCore(t, "177.mesa", 150_000)
	lib, err := Record(c, 50_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	mem := faultinject.NewMemFS()
	if err := lib.Save(mem, "lib.ckpt"); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("lib.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	data[8]++ // container version lives at byte 8
	writeRaw(t, mem, "future.ckpt", data)
	if _, err := Load(mem, "future.ckpt"); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("future version: err = %v, want ErrCacheCorrupt", err)
	}
}

// TestLoadLibraryMissingFrame verifies the meta count catches a dropped
// checkpoint frame even when every surviving frame has a valid CRC.
func TestLoadLibraryMissingFrame(t *testing.T) {
	c, _ := newCore(t, "177.mesa", 150_000)
	lib, err := Record(c, 50_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	mem := faultinject.NewMemFS()
	if err := lib.Save(mem, "lib.ckpt"); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("lib.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	// Re-frame the container without the last checkpoint frame, keeping the
	// original meta (which still declares the full count).
	frames := libraryFrames(t, data)
	writeRaw(t, mem, "short.ckpt", reframe(t, frames[:len(frames)-1]))
	if _, err := Load(mem, "short.ckpt"); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("dropped frame: err = %v, want ErrCacheCorrupt", err)
	}
}

// TestLoadMalformedCheckpointFrames edits the frames of a saved library's
// first checkpoint, keeping every CRC valid; each edited container must
// load as ErrCacheCorrupt.
func TestLoadMalformedCheckpointFrames(t *testing.T) {
	c, _ := newCore(t, "177.mesa", 150_000)
	lib, err := Record(c, 50_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	mem := faultinject.NewMemFS()
	if err := lib.Save(mem, "lib.ckpt"); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("lib.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	saved := libraryFrames(t, data)
	// The first checkpoint's index frame; its word frames follow it, then
	// its byte frames (L1I's dirty flags first) and its state frame.
	idx := slices.IndexFunc(saved, func(f frame) bool { return f.tag == tagLibraryIndex })
	words, dirty, state := idx+1, idx+1+wordFrames, idx+1+wordFrames+byteFrames
	if saved[words].tag != tagLibraryWords || saved[dirty].tag != tagLibraryBytes || saved[state].tag != tagLibraryState {
		t.Fatal("saved checkpoint frames are not in index, word, byte, state order")
	}
	for _, tc := range []struct {
		name string
		edit func([]frame) []frame
	}{
		{"unedited", func(f []frame) []frame { return f }},
		{"dirty byte of 2", func(f []frame) []frame {
			f[dirty].payload = slices.Clone(f[dirty].payload)
			f[dirty].payload[0] = 2
			return f
		}},
		{"state frame one word short", func(f []frame) []frame {
			f[state].payload = f[state].payload[:len(f[state].payload)-8]
			return f
		}},
		{"byte frame before the ninth word frame", func(f []frame) []frame {
			f[dirty-1], f[dirty] = f[dirty], f[dirty-1]
			return f
		}},
		{"tenth word frame", func(f []frame) []frame {
			return slices.Insert(f, dirty, f[dirty-1])
		}},
	} {
		writeRaw(t, mem, "edited.ckpt", reframe(t, tc.edit(slices.Clone(saved))))
		_, err := Load(mem, "edited.ckpt")
		if tc.name == "unedited" {
			if err != nil {
				t.Fatalf("unedited frames: %v", err)
			}
		} else if !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
			t.Errorf("%s: err = %v, want ErrCacheCorrupt", tc.name, err)
		}
	}
}

// frame is one frame of a library container.
type frame struct {
	tag     uint32
	payload []byte
}

// libraryFrames splits a saved library into its frames.
func libraryFrames(t *testing.T, data []byte) []frame {
	t.Helper()
	r, _, err := binenc.NewReader(data, libraryMagic)
	if err != nil {
		t.Fatal(err)
	}
	var frames []frame
	for {
		tag, payload, err := r.Next()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame{tag, payload})
	}
}

// reframe writes frames as a library container with valid CRCs.
func reframe(t *testing.T, frames []frame) []byte {
	t.Helper()
	var buf memBuffer
	w, err := binenc.NewWriter(&buf, libraryMagic, libraryVersion)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := w.Frame(f.tag, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	return buf.data
}

// TestReservedAndPadBytesCorrupt: flipping any reserved word or pad byte
// of a small saved library, which the frame CRCs do not cover, still makes
// it fail to decode as ErrCacheCorrupt.
func TestReservedAndPadBytesCorrupt(t *testing.T) {
	data, _ := smallLibrary(t)
	offsets := []int{12, 13, 14, 15} // the header's reserved word
	for off := 16; off < len(data); {
		size := int(binary.LittleEndian.Uint64(data[off+8:]))
		body, trailer := off+16, off+16+(size+7)&^7
		for i := range 4 { // each reserved word
			offsets = append(offsets, off+4+i, trailer+4+i)
		}
		for i := body + size; i < trailer; i++ { // the pad bytes
			offsets = append(offsets, i)
		}
		off = trailer + 8
	}
	for _, i := range offsets {
		flipped := slices.Clone(data)
		flipped[i] ^= 0xff
		if _, err := decodeBinaryLibrary(flipped); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
			t.Errorf("byte %d of %d flipped: err = %v, want ErrCacheCorrupt", i, len(data), err)
		}
	}
}

// TestDecodeAllocs pins the zero-copy decode: pages, arrays, counters and
// dirty flags alias the container's bytes and the scalars go straight into
// the checkpoint, so a decode allocates a few objects per checkpoint, not
// one per array or field.
func TestDecodeAllocs(t *testing.T) {
	data := alignedLibrary(t)
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		_, err = decodeBinaryLibrary(data)
	})
	if err != nil {
		t.Fatal(err)
	}
	if per := allocs / 21; per > 4 {
		t.Errorf("decode made %.1f allocations per checkpoint, want at most 4", per)
	}
}

type memBuffer struct{ data []byte }

func (b *memBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

// alignedLibrary records a 2M-op 177.mesa library every 100,000 ops (21
// checkpoints), saves it and returns the file's bytes in an 8-byte-aligned
// buffer, as a mapped file holds them, so a decode of it takes the
// zero-copy path.
func alignedLibrary(tb testing.TB) []byte {
	tb.Helper()
	spec, err := workload.Get("177.mesa")
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := spec.Build(2_000_000)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		tb.Fatal(err)
	}
	lib, err := Record(c, 100_000, 2_000_000)
	if err != nil {
		tb.Fatal(err)
	}
	if lib.Len() != 21 {
		tb.Fatalf("library holds %d checkpoints, want 21", lib.Len())
	}
	mem := faultinject.NewMemFS()
	if err := lib.Save(mem, "lib.ckpt"); err != nil {
		tb.Fatal(err)
	}
	saved, err := mem.ReadFile("lib.ckpt")
	if err != nil {
		tb.Fatal(err)
	}
	data := binenc.WordBytes(make([]uint64, (len(saved)+7)/8))[:len(saved)]
	copy(data, saved)
	return data
}

// BenchmarkLibraryLoad decodes and checks a saved library from memory, the
// part of Load that follows the file mapping. Decoding an in-memory copy
// keeps the iterations from leaving mappings behind.
func BenchmarkLibraryLoad(b *testing.B) {
	data := alignedLibrary(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lib, err := decodeBinaryLibrary(data)
		if err != nil {
			b.Fatal(err)
		}
		if err := lib.checkIntegrity(); err != nil {
			b.Fatal(err)
		}
	}
}
