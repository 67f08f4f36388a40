package checkpoint

import (
	"errors"
	"os"
	"testing"

	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
)

// TestPersistRoundTrip records a library, saves it through the in-memory
// crash-consistent filesystem, loads it back, and verifies a restored core
// continues bit-identically to one restored from the original library.
func TestPersistRoundTrip(t *testing.T) {
	c, _ := newCore(t, "197.parser", 300_000)
	lib, err := Record(c, 50_000, 300_000)
	if err != nil {
		t.Fatal(err)
	}

	mem := faultinject.NewMemFS()
	if err := lib.Save(mem, "cache/lib.ckpt"); err != nil {
		t.Fatal(err)
	}
	got, err := Load(mem, "cache/lib.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != lib.Len() || got.StrideOps() != lib.StrideOps() {
		t.Fatalf("loaded %d ckpts stride %d, want %d stride %d",
			got.Len(), got.StrideOps(), lib.Len(), lib.StrideOps())
	}

	// The loaded checkpoints must drive a core exactly like the originals.
	pos := got.StrideOps() * 3
	w1, _ := newCore(t, "197.parser", 300_000)
	if _, err := lib.Seek(w1, pos); err != nil {
		t.Fatal(err)
	}
	w2, _ := newCore(t, "197.parser", 300_000)
	if _, err := got.Seek(w2, pos); err != nil {
		t.Fatal(err)
	}
	step := func(c *cpu.Core) uint64 {
		var r cpu.Retired
		for i := 0; i < 20_000; i++ {
			if !c.StepDetailed(&r) {
				break
			}
		}
		return c.T.Cycle()
	}
	if cyc1, cyc2 := step(w1), step(w2); cyc1 != cyc2 {
		t.Errorf("loaded library diverged: cycles %d, want %d", cyc2, cyc1)
	}
}

// TestPersistMissingAndCorrupt verifies the two load-failure classes keep
// their contracts: a missing file satisfies os.IsNotExist (cold cache), and
// a truncated or garbage file classifies as ErrCacheCorrupt (self-heal by
// delete + re-record).
func TestPersistMissingAndCorrupt(t *testing.T) {
	mem := faultinject.NewMemFS()
	if _, err := Load(mem, "absent.ckpt"); !os.IsNotExist(err) {
		t.Fatalf("missing file: got %v, want not-exist", err)
	}

	c, _ := newCore(t, "177.mesa", 150_000)
	lib, err := Record(c, 50_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := lib.Save(mem, "lib.ckpt"); err != nil {
		t.Fatal(err)
	}
	whole, err := mem.ReadFile("lib.ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("not a gob stream")},
		{"truncated", whole[:len(whole)/2]},
	} {
		writeRaw(t, mem, "bad.ckpt", tc.data)
		if _, err := Load(mem, "bad.ckpt"); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
			t.Errorf("%s: got %v, want ErrCacheCorrupt", tc.name, err)
		}
	}
}

// TestPersistCrashMidSaveKeepsOld is the crash-consistency guarantee: a
// fault during Save (torn temp write, failed rename, dropped fsync followed
// by a crash) must leave the previously saved library readable.
func TestPersistCrashMidSaveKeepsOld(t *testing.T) {
	c, _ := newCore(t, "197.parser", 150_000)
	lib, err := Record(c, 50_000, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []faultinject.Rule{
		{Op: faultinject.OpWrite, Fault: faultinject.FaultTorn},
		{Op: faultinject.OpRename, Fault: faultinject.FaultENOSPC},
		{Op: faultinject.OpSync, Fault: faultinject.FaultErr},
	} {
		mem := faultinject.NewMemFS()
		if err := lib.Save(mem, "lib.ckpt"); err != nil {
			t.Fatal(err)
		}
		inj := faultinject.NewInjector(mem, rule)
		if err := lib.Save(inj, "lib.ckpt"); err == nil {
			t.Fatalf("%v: save succeeded despite fault", rule.Fault)
		}
		mem.Crash()
		got, err := Load(mem, "lib.ckpt")
		if err != nil {
			t.Fatalf("%v: old library unreadable after crashed save: %v", rule.Fault, err)
		}
		if got.Len() != lib.Len() {
			t.Errorf("%v: old library has %d ckpts, want %d", rule.Fault, got.Len(), lib.Len())
		}
	}
}

// writeRaw drops bytes at path on fsys directly (bypassing WriteAtomic on
// purpose: the test wants a corrupt durable file).
func writeRaw(t *testing.T, fsys faultinject.FS, path string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSeekStrideBoundaries: seeking to an exactly-checkpointed position
// must restore that checkpoint and warm zero ops — the no-overhead case
// the store-backed sampling path depends on when sample positions align
// with the recording stride.
func TestSeekStrideBoundaries(t *testing.T) {
	c, _ := newCore(t, "197.parser", 400_000)
	const stride = 100_000
	lib, err := Record(c, stride, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < uint64(lib.Len()); k++ {
		pos := k * stride
		fresh, _ := newCore(t, "197.parser", 400_000)
		warmOps, err := lib.Seek(fresh, pos)
		if err != nil {
			t.Fatalf("seek to boundary %d: %v", pos, err)
		}
		if warmOps != 0 {
			t.Errorf("seek to boundary %d warmed %d ops, want 0", pos, warmOps)
		}
		if fresh.M.Retired() != pos {
			t.Errorf("seek to boundary %d landed at %d", pos, fresh.M.Retired())
		}
	}
}
