package profile

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
		MAVBits:     p.MAVBits,
		bbvRows:     p.bbvRows,
		mavRows:     p.mavRows,
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

// TestBinaryRoundTripMAV: a two-channel profile survives the container
// bit-exactly, MAV running sums included, and still passes integrity.
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
	if !reflect.DeepEqual(stripPrefix(got), stripPrefix(p)) {
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

// loadBytes loads a profile container from memory through LoadFS.
func loadBytes(tb testing.TB, data []byte) (*Profile, error) {
	tb.Helper()
	fsys := faultinject.NewMemFS()
	err := faultinject.WriteAtomic(fsys, "p.bin", 0o644, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return LoadFS(fsys, "p.bin")
}

// container writes a profile container of the given version from its
// parts, the way encodeBinary lays them out.
func container(tb testing.TB, version uint32, meta profileMeta, cycles []uint32, bbvs, mavs []float64) []byte {
	tb.Helper()
	js, err := json.Marshal(meta)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := binenc.NewWriter(&buf, profileMagic, version)
	if err != nil {
		tb.Fatal(err)
	}
	w.Frame(tagProfileMeta, js)
	w.Frame(tagProfileCycles, binenc.WordBytes(cycles))
	w.Frame(tagProfileBBVs, binenc.WordBytes(bbvs))
	if mavs != nil {
		w.Frame(tagProfileMAVs, binenc.WordBytes(mavs))
	}
	if err := w.Err(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// rawIntervals turns running sums back into per-interval raw vectors laid
// end to end: the arenas of profile container version 2.
func rawIntervals(rows []float64, width int) []float64 {
	raw := make([]float64, len(rows)-width)
	for i := range raw {
		raw[i] = rows[i+width] - rows[i]
	}
	return raw
}

// TestDecodeRejects: each malformed container loads as ErrCacheCorrupt,
// without a panic, while the unmodified parts load.
func TestDecodeRejects(t *testing.T) {
	prog := memProgram(t, 3000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000, MAVBits: bbv.DefaultMAVBits, MAVSeed: DefaultMAVSeed})
	meta := profileMeta{
		Benchmark: p.Benchmark, HashBits: p.HashBits, FineOps: p.FineOps, BBVOps: p.BBVOps,
		TotalOps: p.TotalOps, TotalCycles: p.TotalCycles, TailOps: p.TailOps,
		BBVWidth: 1 << p.HashBits, MAVBits: p.MAVBits, MAVWidth: 1 << p.MAVBits,
	}
	bw, mw := meta.BBVWidth, meta.MAVWidth
	withMeta := func(edit func(m *profileMeta)) []byte {
		m := meta
		edit(&m)
		return container(t, profileVersion, m, p.Cycles, p.bbvRows, p.mavRows)
	}
	nonZeroFirst := func(rows []float64) []float64 {
		rows = slices.Clone(rows)
		rows[3]++
		return rows
	}
	if _, err := loadBytes(t, container(t, profileVersion, meta, p.Cycles, p.bbvRows, p.mavRows)); err != nil {
		t.Fatalf("unmodified container: %v", err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"non-zero first BBV row", container(t, profileVersion, meta, p.Cycles, nonZeroFirst(p.bbvRows), p.mavRows)},
		{"non-zero first MAV row", container(t, profileVersion, meta, p.Cycles, p.bbvRows, nonZeroFirst(p.mavRows))},
		{"BBV row short", container(t, profileVersion, meta, p.Cycles, p.bbvRows[:len(p.bbvRows)-bw], p.mavRows)},
		{"MAV row short", container(t, profileVersion, meta, p.Cycles, p.bbvRows, p.mavRows[:len(p.mavRows)-mw])},
		{"BBV arena not whole rows", container(t, profileVersion, meta, p.Cycles, p.bbvRows[:len(p.bbvRows)-1], p.mavRows)},
		{"BBV width not 1<<HashBits", withMeta(func(m *profileMeta) { m.BBVWidth /= 2 })},
		{"MAV width not 1<<MAVBits", withMeta(func(m *profileMeta) { m.MAVWidth *= 2 })},
		{"HashBits 0", withMeta(func(m *profileMeta) { m.HashBits = 0 })},
		{"HashBits -1", withMeta(func(m *profileMeta) { m.HashBits = -1 })},
		{"HashBits 17", withMeta(func(m *profileMeta) { m.HashBits = 17 })},
		{"MAVBits 13", withMeta(func(m *profileMeta) { m.MAVBits = 13 })},
		{"MAVBits -1", withMeta(func(m *profileMeta) { m.MAVBits = -1 })},
		{"MAV frame without MAVBits", withMeta(func(m *profileMeta) { m.MAVBits, m.MAVWidth = 0, 0 })},
		{"MAVBits without MAV frame", container(t, profileVersion, meta, p.Cycles, p.bbvRows, nil)},
		{"version 2 file", container(t, 2, meta, p.Cycles, rawIntervals(p.bbvRows, bw), rawIntervals(p.mavRows, mw))},
	} {
		if _, err := loadBytes(t, tc.data); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
			t.Errorf("%s: err = %v, want ErrCacheCorrupt", tc.name, err)
		}
	}
}
