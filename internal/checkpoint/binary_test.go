package checkpoint

import (
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pgss/internal/binenc"
	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
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
	r, version, err := binenc.NewReader(data, libraryMagic)
	if err != nil {
		t.Fatal(err)
	}
	var frames []struct {
		tag     uint32
		payload []byte
	}
	for {
		tag, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, struct {
			tag     uint32
			payload []byte
		}{tag, payload})
	}
	var rebuilt memBuffer
	w, err := binenc.NewWriter(&rebuilt, libraryMagic, version)
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range frames[:len(frames)-1] {
		if err := w.Frame(fr.tag, fr.payload); err != nil {
			t.Fatal(err)
		}
	}
	writeRaw(t, mem, "short.ckpt", rebuilt.data)
	if _, err := Load(mem, "short.ckpt"); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("dropped frame: err = %v, want ErrCacheCorrupt", err)
	}
}

type memBuffer struct{ data []byte }

func (b *memBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}
