package profile

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/binenc"
	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
)

// stripPrefix clears the lazily built prefix-sum cache so DeepEqual
// compares only the persisted fields.
func stripPrefix(p *Profile) *Profile {
	return &Profile{
		Benchmark:   p.Benchmark,
		HashBits:    p.HashBits,
		FineOps:     p.FineOps,
		BBVOps:      p.BBVOps,
		TotalOps:    p.TotalOps,
		TotalCycles: p.TotalCycles,
		Cycles:      p.Cycles,
		TailOps:     p.TailOps,
		RawBBVs:     p.RawBBVs,
	}
}

func TestBinaryFileFormat(t *testing.T) {
	prog := computeProgram(t, 3000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})
	path := filepath.Join(t.TempDir(), "p.bin")
	if err := p.SaveFS(nil, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !binenc.HasMagic(data, profileMagic) {
		t.Fatalf("saved profile does not start with %q", profileMagic)
	}
	got, err := LoadFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripPrefix(got), stripPrefix(p)) {
		t.Fatal("binary round-trip changed the profile")
	}
}

// TestLoadLegacyGob: a whole-file gob of the Profile — the on-disk form
// before the binary container — is no longer a supported input and loads
// as corruption, so the store re-records it.
func TestLoadLegacyGob(t *testing.T) {
	prog := computeProgram(t, 3000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})
	path := filepath.Join(t.TempDir(), "legacy.gob")
	err := faultinject.WriteAtomic(nil, path, 0o644, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFS(nil, path); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("legacy gob profile: err = %v, want ErrCacheCorrupt", err)
	}
}

func TestLoadVersionSkew(t *testing.T) {
	prog := computeProgram(t, 3000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})
	var buf bytes.Buffer
	if err := p.encodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Bump the container version in place; the CRCs cover frame payloads,
	// not the header, so only the version check can catch this.
	data[8]++
	path := filepath.Join(t.TempDir(), "future.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFS(nil, path); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("future version: err = %v, want ErrCacheCorrupt", err)
	}
}

func TestLoadCorruptArena(t *testing.T) {
	prog := computeProgram(t, 3000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})
	path := filepath.Join(t.TempDir(), "p.bin")
	if err := p.SaveFS(nil, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the BBV arena (the tail of the file, before the final
	// CRC trailer): the frame CRC must catch it.
	data[len(data)-20] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFS(nil, path); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("corrupt arena: err = %v, want ErrCacheCorrupt", err)
	}
}

func TestLoadThroughInjectedFS(t *testing.T) {
	// An injected filesystem must not take the mmap shortcut; the load goes
	// through the FS seam and still round-trips.
	prog := computeProgram(t, 3000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})
	fsys := faultinject.NewMemFS()
	if err := p.SaveFS(fsys, "dir/p.bin"); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFS(fsys, "dir/p.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripPrefix(got), stripPrefix(p)) {
		t.Fatal("MemFS round-trip changed the profile")
	}
}

// stripPrefixMAV is stripPrefix plus the version-2 MAV channel fields.
func stripPrefixMAV(p *Profile) *Profile {
	s := stripPrefix(p)
	s.MAVBits = p.MAVBits
	s.RawMAVs = p.RawMAVs
	return s
}

// TestBinaryRoundTripMAV: a two-channel profile survives the version-2
// container bit-exactly, MAV arena included, and still passes integrity.
func TestBinaryRoundTripMAV(t *testing.T) {
	prog := computeProgram(t, 3000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000, MAVBits: bbv.DefaultMAVBits, MAVSeed: DefaultMAVSeed})
	if !p.HasMAV() {
		t.Fatal("recorded profile has no MAV channel")
	}
	path := filepath.Join(t.TempDir(), "p.bin")
	if err := p.SaveFS(nil, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stripPrefixMAV(got), stripPrefixMAV(p)) {
		t.Fatal("binary round-trip changed the two-channel profile")
	}
	if err := got.CheckIntegrity(); err != nil {
		t.Fatalf("loaded two-channel profile fails integrity: %v", err)
	}
}

// TestLoadVersion1Compat: a container relabelled version 1 — the layout
// version-1 writers produced — is no longer a supported input and loads as
// corruption.
func TestLoadVersion1Compat(t *testing.T) {
	prog := computeProgram(t, 3000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})
	var buf bytes.Buffer
	if err := p.encodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[8] = 1 // header version byte; frame CRCs don't cover it
	path := filepath.Join(t.TempDir(), "v1.bin")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFS(nil, path); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("version-1 profile: err = %v, want ErrCacheCorrupt", err)
	}
}
