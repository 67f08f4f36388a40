package artifact

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pgss/internal/bbv"
	"pgss/internal/binenc"
	"pgss/internal/checkpoint"
	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
	"pgss/internal/workload"
)

// testProfile builds a small, internally consistent synthetic profile:
// 4 fine intervals of 100 ops, 2 BBV intervals of 200 ops, 8-wide vectors.
func testProfile(bench string, salt float64) *profile.Profile {
	mkvec := func(base float64) bbv.Vector {
		v := make(bbv.Vector, 8)
		for i := range v {
			v[i] = base + float64(i) + salt
		}
		return v
	}
	p := &profile.Profile{
		Benchmark: bench, HashBits: 3, FineOps: 100, BBVOps: 200,
		TotalOps: 400, TotalCycles: 900,
		Cycles: []uint32{200, 250, 200, 250},
	}
	p.AppendBBV(mkvec(1))
	p.AppendBBV(mkvec(100))
	return p
}

func profileKey(bench string) Key {
	return Key{
		Kind: KindProfile, Benchmark: bench, Ops: 400,
		HashBits: 3, FineOps: 100, BBVOps: 200, Schema: 1,
	}
}

// testLibrary records a genuinely restorable checkpoint library (synthetic
// checkpoints cannot exist: their cores must be replayable).
func testLibrary(t *testing.T) *checkpoint.Library {
	t.Helper()
	spec, err := workload.Get("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(100_000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := checkpoint.Record(c, 50_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func libraryKey() Key {
	return Key{
		Kind: KindCheckpoints, Benchmark: "197.parser", Ops: 100_000,
		StrideOps: 50_000, CoreConfig: ConfigLabel(cpu.DefaultCoreConfig()), Schema: 1,
	}
}

func openMem(t *testing.T, mem *faultinject.MemFS) *Store {
	t.Helper()
	s, err := Open("store", Options{FS: mem, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writeRaw clobbers path with raw bytes (corruption injection).
func writeRaw(t *testing.T, mem *faultinject.MemFS, path string, data []byte) {
	t.Helper()
	f, err := mem.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestKeyHashAndValidate(t *testing.T) {
	base := profileKey("197.parser")
	if base.Hash() != base.Hash() {
		t.Fatal("hash not stable")
	}
	if len(base.Hash()) != 64 {
		t.Fatalf("hash length %d, want 64", len(base.Hash()))
	}
	seen := map[string]Key{base.Hash(): base}
	for _, k := range []Key{
		func() Key { k := base; k.Benchmark = "177.mesa"; return k }(),
		func() Key { k := base; k.Ops = 800; return k }(),
		func() Key { k := base; k.HashBits = 5; return k }(),
		func() Key { k := base; k.MAVBits = 6; return k }(),
		func() Key { k := base; k.Schema = 2; return k }(),
		func() Key { k := base; k.CoreConfig = "other"; return k }(),
		libraryKey(),
	} {
		h := k.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %+v and %+v", prev, k)
		}
		seen[h] = k
	}

	for _, bad := range []Key{
		{},
		{Kind: "weird", Benchmark: "b", Ops: 1},
		{Kind: KindProfile, Ops: 1},
		{Kind: KindProfile, Benchmark: "b"},
		{Kind: KindCheckpoints, Benchmark: "b", Ops: 1}, // no stride
	} {
		if err := bad.Validate(); !errors.Is(err, pgsserrors.ErrInvalidConfig) {
			t.Errorf("Validate(%+v) = %v, want ErrInvalidConfig", bad, err)
		}
	}
}

// TestRoundTrip publishes both artifact kinds and verifies warm loads — in
// the same store and from a second store over the same filesystem (another
// process) — return equal content without re-recording.
func TestRoundTrip(t *testing.T) {
	mem := faultinject.NewMemFS()
	s := openMem(t, mem)

	var recs atomic.Int32
	want := testProfile("197.parser", 0)
	record := func() (*profile.Profile, error) { recs.Add(1); return want, nil }

	got, err := s.Profile(profileKey("197.parser"), record)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("first resolve did not return the recorded profile")
	}
	warm, err := s.Profile(profileKey("197.parser"), record)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, want) {
		t.Fatal("warm load differs from recorded profile")
	}

	// "Another process": a second store over the same filesystem.
	s2 := openMem(t, mem)
	cross, err := s2.Profile(profileKey("197.parser"),
		func() (*profile.Profile, error) { t.Fatal("cross-process load re-recorded"); return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cross, want) {
		t.Fatal("cross-process load differs from recorded profile")
	}
	if n := recs.Load(); n != 1 {
		t.Fatalf("record ran %d times, want 1", n)
	}

	lib := testLibrary(t)
	var librecs atomic.Int32
	gotLib, err := s.Library(libraryKey(), func() (*checkpoint.Library, error) { librecs.Add(1); return lib, nil })
	if err != nil {
		t.Fatal(err)
	}
	if gotLib.Len() != lib.Len() || gotLib.StrideOps() != lib.StrideOps() {
		t.Fatalf("library resolve: %d ckpts stride %d, want %d/%d",
			gotLib.Len(), gotLib.StrideOps(), lib.Len(), lib.StrideOps())
	}
	warmLib, err := s2.Library(libraryKey(),
		func() (*checkpoint.Library, error) { t.Fatal("warm library re-recorded"); return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if warmLib.Len() != lib.Len() {
		t.Fatalf("warm library has %d checkpoints, want %d", warmLib.Len(), lib.Len())
	}
	if librecs.Load() != 1 {
		t.Fatalf("library record ran %d times, want 1", librecs.Load())
	}

	// Kind mismatches are rejected before touching disk.
	if _, err := s.Profile(libraryKey(), record); !errors.Is(err, pgsserrors.ErrInvalidConfig) {
		t.Errorf("Profile with checkpoint key: %v, want ErrInvalidConfig", err)
	}
	if _, err := s.Library(profileKey("x"), nil); !errors.Is(err, pgsserrors.ErrInvalidConfig) {
		t.Errorf("Library with profile key: %v, want ErrInvalidConfig", err)
	}
}

// TestInProcessSingleflight hammers one cold key from many goroutines; the
// recording must run exactly once and everyone gets its result.
func TestInProcessSingleflight(t *testing.T) {
	s := openMem(t, faultinject.NewMemFS())
	want := testProfile("197.parser", 0)

	var recs atomic.Int32
	gate := make(chan struct{})
	record := func() (*profile.Profile, error) {
		recs.Add(1)
		<-gate // hold the recording open until every caller has piled up
		return want, nil
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	started := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			p, err := s.Profile(profileKey("197.parser"), record)
			if err == nil && !reflect.DeepEqual(p, want) {
				err = errors.New("wrong profile")
			}
			errs[i] = err
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	close(gate)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
	if got := recs.Load(); got != 1 {
		t.Fatalf("record ran %d times, want 1", got)
	}
}

// TestCrossProcessLock runs two stores over one filesystem: while the first
// holds the recorder lock, the second must wait and then adopt the
// published object instead of recording its own.
func TestCrossProcessLock(t *testing.T) {
	mem := faultinject.NewMemFS()
	a := openMem(t, mem)
	b, err := Open("store", Options{FS: mem, Logf: t.Logf, LockPoll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	want := testProfile("197.parser", 0)
	recording := make(chan struct{})
	finish := make(chan struct{})
	var aDone, bDone sync.WaitGroup

	aDone.Add(1)
	go func() {
		defer aDone.Done()
		_, err := a.Profile(profileKey("197.parser"), func() (*profile.Profile, error) {
			close(recording)
			<-finish
			return want, nil
		})
		if err != nil {
			t.Errorf("store A: %v", err)
		}
	}()

	<-recording // A holds the lock and is mid-record
	var bGot *profile.Profile
	bDone.Add(1)
	go func() {
		defer bDone.Done()
		p, err := b.Profile(profileKey("197.parser"),
			func() (*profile.Profile, error) { t.Error("waiter re-recorded"); return nil, nil })
		if err != nil {
			t.Errorf("store B: %v", err)
		}
		bGot = p
	}()

	time.Sleep(5 * time.Millisecond) // let B reach the polling loop
	close(finish)
	aDone.Wait()
	bDone.Wait()
	if bGot == nil || !reflect.DeepEqual(bGot, want) {
		t.Fatal("waiter did not adopt the published profile")
	}
	// The winner's lock must be released.
	if _, err := mem.Stat(a.lockPath(profileKey("197.parser").Hash())); !os.IsNotExist(err) {
		t.Fatalf("lock not released: %v", err)
	}
}

// TestStaleLockBreak abandons a lock file (crashed recorder) and verifies a
// waiter on a deterministic clock breaks it after LockStale and records.
func TestStaleLockBreak(t *testing.T) {
	mem := faultinject.NewMemFS()
	clock := faultinject.NewManualClock(time.Unix(0, 0))
	s, err := Open("store", Options{
		FS: mem, Clock: clock, Logf: t.Logf,
		LockPoll: 5 * time.Millisecond, LockStale: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	k := profileKey("197.parser")
	lock := s.lockPath(k.Hash())
	lf, err := mem.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	lf.Close()

	want := testProfile("197.parser", 0)
	var recs atomic.Int32
	done := make(chan error, 1)
	go func() {
		_, err := s.Profile(k, func() (*profile.Profile, error) { recs.Add(1); return want, nil })
		done <- err
	}()

	// Drive the manual clock until the waiter breaks through.
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if recs.Load() != 1 {
				t.Fatalf("record ran %d times, want 1", recs.Load())
			}
			return
		default:
			clock.Advance(5 * time.Millisecond)
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// TestCorruptObjectSelfHeals flips bytes in a published object, or replaces
// it with a whole-file gob profile; the next resolve must delete it and
// re-record.
func TestCorruptObjectSelfHeals(t *testing.T) {
	want := testProfile("197.parser", 0)
	var legacy bytes.Buffer
	if err := gob.NewEncoder(&legacy).Encode(want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"bit flip", func(data []byte) []byte { data[len(data)/2] ^= 0xff; return data }},
		// The pre-binary on-disk form is no longer decodable.
		{"whole-file gob", func([]byte) []byte { return legacy.Bytes() }},
	} {
		mem := faultinject.NewMemFS()
		s := openMem(t, mem)
		k := profileKey("197.parser")
		if _, err := s.Profile(k, func() (*profile.Profile, error) { return want, nil }); err != nil {
			t.Fatal(err)
		}
		path := s.ObjectPath(k)
		data, err := mem.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		writeRaw(t, mem, path, tc.corrupt(data))

		var recs atomic.Int32
		got, err := s.Profile(k, func() (*profile.Profile, error) { recs.Add(1); return want, nil })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if recs.Load() != 1 {
			t.Fatalf("%s: corrupt object did not trigger re-record (ran %d)", tc.name, recs.Load())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: re-recorded profile differs", tc.name)
		}
	}
}

// TestEveryFlippedProfileByteIsCorrupt: flipping any one byte of the small
// saved profile, reserved words and pad bytes included, makes it fail to
// load as ErrCacheCorrupt, so the store re-records it.
func TestEveryFlippedProfileByteIsCorrupt(t *testing.T) {
	mem := faultinject.NewMemFS()
	if err := testProfile("197.parser", 0).SaveFS(mem, "p.art"); err != nil {
		t.Fatal(err)
	}
	data, err := mem.ReadFile("p.art")
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		flipped := slices.Clone(data)
		flipped[i] ^= 0xff
		writeRaw(t, mem, "p.art", flipped)
		if _, err := profile.LoadFS(mem, "p.art"); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
			t.Errorf("byte %d of %d flipped: err = %v, want ErrCacheCorrupt", i, len(data), err)
		}
	}
}

// TestVersion2ProfileReRecorded: a profile object in container version 2,
// which stored each BBV interval's raw vector instead of running sums,
// loads as corrupt, so the store deletes it and records the profile again.
func TestVersion2ProfileReRecorded(t *testing.T) {
	want := testProfile("197.parser", 0)
	var v2 bytes.Buffer
	w, err := binenc.NewWriter(&v2, profile.BinaryMagic, 2)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := json.Marshal(map[string]any{
		"Benchmark": want.Benchmark, "HashBits": want.HashBits, "FineOps": want.FineOps,
		"BBVOps": want.BBVOps, "TotalOps": want.TotalOps, "TotalCycles": want.TotalCycles,
		"TailOps": want.TailOps, "BBVWidth": 1 << want.HashBits,
	})
	if err != nil {
		t.Fatal(err)
	}
	var raw []float64
	v := make(bbv.Vector, 1<<want.HashBits)
	for start := uint64(0); start < want.TotalOps; start += want.BBVOps {
		if _, err := want.BBVWindowInto(v, start, want.BBVOps); err != nil {
			t.Fatal(err)
		}
		raw = append(raw, v...)
	}
	w.Frame(1, meta)
	w.Frame(2, binenc.WordBytes(want.Cycles))
	w.Frame(3, binenc.WordBytes(raw))
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}

	mem := faultinject.NewMemFS()
	s := openMem(t, mem)
	k := profileKey("197.parser")
	if _, err := s.Profile(k, func() (*profile.Profile, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	path := s.ObjectPath(k)
	writeRaw(t, mem, path, v2.Bytes())
	var recs atomic.Int32
	got, err := s.Profile(k, func() (*profile.Profile, error) { recs.Add(1); return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	if recs.Load() != 1 {
		t.Fatalf("version-2 object did not trigger a re-record (ran %d)", recs.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("re-recorded profile differs")
	}
	if _, err := profile.LoadFS(mem, path); err != nil {
		t.Fatalf("re-published object: %v", err)
	}
}

// TestIndexCorruptionRecovery garbles index.json and verifies loadIndex
// classifies it as ErrCacheCorrupt while Open rebuilds from the objects.
func TestIndexCorruptionRecovery(t *testing.T) {
	mem := faultinject.NewMemFS()
	s := openMem(t, mem)
	for _, bench := range []string{"197.parser", "177.mesa"} {
		p := testProfile(bench, 0)
		if _, err := s.Profile(profileKey(bench), func() (*profile.Profile, error) { return p, nil }); err != nil {
			t.Fatal(err)
		}
	}

	writeRaw(t, mem, s.indexPath(), []byte("{not json"))
	if _, err := loadIndex(mem, s.indexPath()); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("loadIndex on garbage = %v, want ErrCacheCorrupt", err)
	}

	reopened := openMem(t, mem)
	entries := reopened.List()
	if len(entries) != 2 {
		t.Fatalf("rebuilt index has %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		if !e.Recovered {
			t.Errorf("rebuilt entry %s not marked recovered", e.Hash[:12])
		}
		if e.Key.Kind != KindProfile {
			t.Errorf("rebuilt entry %s kind %q, want profile", e.Hash[:12], e.Key.Kind)
		}
	}
	// Artifacts stay resolvable without re-recording.
	if _, err := reopened.Profile(profileKey("197.parser"),
		func() (*profile.Profile, error) { t.Fatal("re-recorded after rebuild"); return nil, nil }); err != nil {
		t.Fatal(err)
	}

	// Wrong schema is corruption too, not silent acceptance.
	writeRaw(t, mem, s.indexPath(), []byte(`{"schema": 99, "entries": {}}`))
	if _, err := loadIndex(mem, s.indexPath()); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("loadIndex on wrong schema = %v, want ErrCacheCorrupt", err)
	}
}

// TestGC publishes three artifacts, pins one and touches another, then
// shrinks the store and checks LRU order and pin protection.
func TestGC(t *testing.T) {
	mem := faultinject.NewMemFS()
	s := openMem(t, mem)
	benches := []string{"a", "b", "c"}
	for _, bench := range benches {
		p := testProfile(bench, 0)
		if _, err := s.Profile(profileKey(bench), func() (*profile.Profile, error) { return p, nil }); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" becomes the LRU; pin "c" so it cannot go at all.
	if _, err := s.Profile(profileKey("a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(profileKey("c").Hash()); err != nil {
		t.Fatal(err)
	}

	one := s.List()[0].Size // all three are the same shape, ergo same size
	stats, err := s.GC(2 * one)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evicted != 1 || stats.BytesFreed != one || stats.Pinned != 1 {
		t.Fatalf("GC stats %+v, want 1 evicted (%d bytes) and 1 pinned", stats, one)
	}
	left := map[string]bool{}
	for _, e := range s.List() {
		left[e.Key.Benchmark] = true
	}
	if !left["a"] || !left["c"] || left["b"] {
		t.Fatalf("GC survivors %v, want a and c (b is LRU)", left)
	}
	if _, err := mem.Stat(s.ObjectPath(profileKey("b"))); !os.IsNotExist(err) {
		t.Fatalf("evicted object still on disk: %v", err)
	}

	// Unpin, then shrink to nothing: everything must go.
	if err := s.Unpin(profileKey("c").Hash()); err != nil {
		t.Fatal(err)
	}
	if err := s.Unpin(profileKey("c").Hash()); err != nil { // floors at 0, no error
		t.Fatal(err)
	}
	stats, err = s.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evicted != 2 || len(s.List()) != 0 || s.TotalBytes() != 0 {
		t.Fatalf("full GC left %d entries (stats %+v)", len(s.List()), stats)
	}
	if err := s.Pin("no-such-hash"); !errors.Is(err, pgsserrors.ErrInvalidConfig) {
		t.Errorf("Pin of unknown hash: %v, want ErrInvalidConfig", err)
	}
}

// TestVerify exercises every repair class in one store: healthy objects,
// a corrupted one, a dangling index entry, an orphaned object and a
// leftover .tmp from an interrupted publish.
func TestVerify(t *testing.T) {
	mem := faultinject.NewMemFS()
	s := openMem(t, mem)
	for _, bench := range []string{"a", "b", "c"} {
		p := testProfile(bench, 0)
		if _, err := s.Profile(profileKey(bench), func() (*profile.Profile, error) { return p, nil }); err != nil {
			t.Fatal(err)
		}
	}
	lib := testLibrary(t)
	if _, err := s.Library(libraryKey(), func() (*checkpoint.Library, error) { return lib, nil }); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 4 || rep.Healthy != 4 || len(rep.Corrupt)+len(rep.Missing)+len(rep.Adopted) != 0 {
		t.Fatalf("clean store verify = %s", rep)
	}

	// Corrupt "a" in place.
	corruptPath := s.ObjectPath(profileKey("a"))
	writeRaw(t, mem, corruptPath, []byte("PGSSPROFgarbage"))
	// Delete "b"'s object behind the index's back.
	if err := mem.Remove(s.ObjectPath(profileKey("b"))); err != nil {
		t.Fatal(err)
	}
	// Orphan: a valid object published under a hash the index never saw.
	orphanHash := strings.Repeat("ab", 32)
	orphanPath := s.objectPathOf(orphanHash)
	if err := testProfile("orphan", 0).SaveFS(mem, orphanPath); err != nil {
		t.Fatal(err)
	}
	// Interrupted publish leftover.
	tmpPath := s.ObjectPath(profileKey("c")) + ".tmp"
	writeRaw(t, mem, tmpPath, []byte("partial"))

	rep, err = s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || len(rep.Missing) != 1 || len(rep.Adopted) != 1 || rep.TmpSwept != 1 {
		t.Fatalf("verify after damage = %s", rep)
	}
	if _, err := mem.Stat(corruptPath); !os.IsNotExist(err) {
		t.Fatalf("corrupt object not deleted: %v", err)
	}
	if _, err := mem.Stat(tmpPath); !os.IsNotExist(err) {
		t.Fatalf("tmp not swept: %v", err)
	}
	left := map[string]bool{}
	for _, e := range s.List() {
		left[e.Hash] = true
	}
	if !left[orphanHash] {
		t.Error("orphan object not adopted into the index")
	}
	if left[profileKey("a").Hash()] || left[profileKey("b").Hash()] {
		t.Error("corrupt or missing entries survived verify")
	}

	// A second pass over the repaired store is clean.
	rep, err = s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt)+len(rep.Missing)+len(rep.Adopted) != 0 || rep.TmpSwept != 0 {
		t.Fatalf("verify not idempotent: %s", rep)
	}
}

// TestUnkeptObjectsUnmapped: Verify only checks the objects it loads, and
// a library that fails to decode is deleted and re-recorded, so neither may
// leave its file mapped.
func TestUnkeptObjectsUnmapped(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps to count mappings in")
	}
	dir, err := filepath.EvalSymlinks(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	lib := testLibrary(t)
	if _, err := s.Library(libraryKey(), func() (*checkpoint.Library, error) { return lib, nil }); err != nil {
		t.Fatal(err)
	}
	path := s.ObjectPath(libraryKey())
	for i := 0; i < 3; i++ {
		if rep, err := s.Verify(); err != nil || rep.Healthy != 1 {
			t.Fatalf("verify = %s, %v", rep, err)
		}
	}
	if n := mappings(t, path); n != 0 {
		t.Errorf("%d mappings of the library remain after three Verify calls", n)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-8] ^= 0xff // the last frame's CRC
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.Load(nil, bad); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Fatalf("bad CRC: err = %v, want ErrCacheCorrupt", err)
	}
	if n := mappings(t, bad); n != 0 {
		t.Errorf("%d mappings of a library that failed to load remain", n)
	}
}

// mappings counts the mappings of path in /proc/self/maps.
func mappings(t *testing.T, path string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.HasSuffix(line, " "+path) {
			n++
		}
	}
	return n
}

// TestRerecordIdenticalHash is the determinism anchor of the whole design:
// recording the same key twice publishes byte-identical objects, so a
// post-crash re-record converges on the same content address.
func TestRerecordIdenticalHash(t *testing.T) {
	mem := faultinject.NewMemFS()
	s := openMem(t, mem)
	k := profileKey("197.parser")
	record := func() (*profile.Profile, error) { return testProfile("197.parser", 0), nil }

	if _, err := s.Profile(k, record); err != nil {
		t.Fatal(err)
	}
	sha1, _, err := s.contentSHA(s.ObjectPath(k))
	if err != nil {
		t.Fatal(err)
	}

	// Lose the object (the crash), keep the store, record again.
	if err := mem.Remove(s.ObjectPath(k)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Profile(k, record); err != nil {
		t.Fatal(err)
	}
	sha2, _, err := s.contentSHA(s.ObjectPath(k))
	if err != nil {
		t.Fatal(err)
	}
	if sha1 != sha2 {
		t.Fatalf("re-record produced different bytes: %s vs %s", sha1[:12], sha2[:12])
	}
}

// TestRecordErrorPropagates keeps failed recordings out of the store and
// releases the lock for the next attempt.
func TestRecordErrorPropagates(t *testing.T) {
	s := openMem(t, faultinject.NewMemFS())
	k := profileKey("197.parser")
	boom := fmt.Errorf("recorder exploded")
	if _, err := s.Profile(k, func() (*profile.Profile, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("record error = %v, want %v", err, boom)
	}
	// The failure must not wedge the key: a working recorder succeeds next.
	want := testProfile("197.parser", 0)
	got, err := s.Profile(k, func() (*profile.Profile, error) { return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("retry after failed record returned wrong profile")
	}
}

// TestDefaultRoot: the default store lives under the user cache directory,
// and a platform without one gets no store rather than a relative path.
func TestDefaultRoot(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("cache-directory environment is platform specific")
	}
	cache := t.TempDir()
	t.Setenv("XDG_CACHE_HOME", cache)
	if got, want := DefaultRoot(), filepath.Join(cache, "pgss-artifacts"); got != want {
		t.Fatalf("DefaultRoot() = %q, want %q", got, want)
	}
	t.Setenv("XDG_CACHE_HOME", "")
	t.Setenv("HOME", "")
	if got := DefaultRoot(); got != "" {
		t.Fatalf("DefaultRoot() without a cache dir = %q, want \"\"", got)
	}
}
