package checkpoint

import (
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
	"pgss/internal/program"
	"pgss/internal/workload"
)

func newCore(t *testing.T, name string, ops uint64) (*cpu.Core, *program.Program) {
	t.Helper()
	spec, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(ops)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c, prog
}

// TestRestoreBitIdentical is the core guarantee: capture at P, continue to
// Q recording cycles, restore to P, continue again — the second run must
// retire the same ops and charge the same cycles.
func TestRestoreBitIdentical(t *testing.T) {
	c, _ := newCore(t, "197.parser", 400_000)
	var r cpu.Retired
	for i := 0; i < 100_000; i++ {
		if !c.StepDetailed(&r) {
			t.Fatal("program too short")
		}
	}
	ck := Capture(c)

	run := func() (ops, cycles uint64, reg int64) {
		for i := 0; i < 50_000; i++ {
			if !c.StepDetailed(&r) {
				break
			}
		}
		return c.M.Retired(), c.T.Cycle(), c.M.Reg(20)
	}
	ops1, cyc1, reg1 := run()
	if err := ck.Restore(c); err != nil {
		t.Fatal(err)
	}
	if c.M.Retired() != ck.Ops {
		t.Fatalf("restore position %d, want %d", c.M.Retired(), ck.Ops)
	}
	ops2, cyc2, reg2 := run()
	if ops1 != ops2 || cyc1 != cyc2 || reg1 != reg2 {
		t.Errorf("restored continuation diverged: ops %d/%d cycles %d/%d reg %d/%d",
			ops1, ops2, cyc1, cyc2, reg1, reg2)
	}
}

func TestRestoreGeometryMismatch(t *testing.T) {
	c1, _ := newCore(t, "197.parser", 200_000)
	ck := Capture(c1)
	// A core for a different program has a different data segment size.
	c2, _ := newCore(t, "177.mesa", 200_000)
	if err := ck.Restore(c2); !errors.Is(err, pgsserrors.ErrInvalidConfig) {
		t.Errorf("cross-program restore: got %v, want ErrInvalidConfig", err)
	}
}

// TestRestoreConfigMismatch: restoring into a core built for the same
// program but a different microarchitectural configuration, or from a
// checkpoint whose data image or arrays have the wrong shape (as a library
// decoded from disk may hold), must fail with an invalid-config error, not
// silently corrupt the simulation.
func TestRestoreConfigMismatch(t *testing.T) {
	c1, prog := newCore(t, "197.parser", 200_000)
	var r cpu.Retired
	for i := 0; i < 10_000; i++ {
		if !c1.StepDetailed(&r) {
			t.Fatal("program too short")
		}
	}
	ck := Capture(c1)

	smallL1D := cpu.DefaultCoreConfig()
	smallL1D.Hierarchy.L1D.SizeBytes /= 2 // different L1D geometry
	pages := ck.Machine.Pages
	cases := []struct {
		name string
		cfg  cpu.CoreConfig
		edit func(ck *Checkpoint)
	}{
		{"mismatched cache configuration", smallL1D, func(*Checkpoint) {}},
		{"wrong page count", cpu.DefaultCoreConfig(), func(ck *Checkpoint) {
			ck.Machine.Pages = pages[:len(pages)-1]
		}},
		{"short page", cpu.DefaultCoreConfig(), func(ck *Checkpoint) {
			ck.Machine.Pages = slices.Clone(pages)
			ck.Machine.Pages[0] = pages[0][:len(pages[0])-1]
		}},
		{"short LRU", cpu.DefaultCoreConfig(), func(ck *Checkpoint) {
			ck.L1D.LRU = ck.L1D.LRU[:len(ck.L1D.LRU)-1]
		}},
		{"short BTBTargets", cpu.DefaultCoreConfig(), func(ck *Checkpoint) {
			ck.Branch.BTBTargets = ck.Branch.BTBTargets[:len(ck.Branch.BTBTargets)-1]
		}},
	}
	for _, tc := range cases {
		c2, err := cpu.NewCore(cpu.MustNewMachine(prog), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		bad := *ck
		tc.edit(&bad)
		if err := bad.Restore(c2); !errors.Is(err, pgsserrors.ErrInvalidConfig) {
			t.Errorf("restore with %s: got %v, want ErrInvalidConfig", tc.name, err)
		}
	}
}

func TestLibraryRecordAndNearest(t *testing.T) {
	c, _ := newCore(t, "197.parser", 500_000)
	lib, err := Record(c, 100_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Len() < 5 {
		t.Fatalf("only %d checkpoints", lib.Len())
	}
	if lib.Nearest(0).Ops != 0 {
		t.Error("missing op-0 checkpoint")
	}
	ck := lib.Nearest(250_000)
	if ck.Ops > 250_000 || 250_000-ck.Ops >= 2*lib.StrideOps() {
		t.Errorf("nearest(250k) = %d", ck.Ops)
	}
	cz, _ := newCore(t, "197.parser", 100_000)
	if _, err := Record(cz, 0, 0); err == nil {
		t.Error("zero stride accepted")
	}
}

// TestSeekExactPosition: a seek in either mode lands exactly on its
// position after stepping less than one stride, and fast-forward and
// warming seeks reach identical architectural state. A fast-forward seek
// restores only the machine: it leaves the caches and predictor as the
// core held them.
func TestSeekExactPosition(t *testing.T) {
	const pos = 333_333
	c, _ := newCore(t, "197.parser", 500_000)
	lib, err := Record(c, 100_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	arch := map[cpu.Mode]cpu.MachineState{}
	for name, mode := range map[string]cpu.Mode{"warm": cpu.FunctionalWarming, "ff": cpu.FastForward} {
		fresh, _ := newCore(t, "197.parser", 500_000)
		held := func() []any {
			return []any{fresh.Hier.L1I.Snapshot(), fresh.Hier.L1D.Snapshot(), fresh.Hier.L2.Snapshot(), fresh.BP.Snapshot()}
		}
		var before []any
		if mode == cpu.FastForward {
			// Warm the core's caches and predictor first, so a seek that
			// restored them would show.
			fresh.Run(50_000, cpu.FunctionalWarming, nil, nil)
			before = held()
		}
		seekOps, err := lib.Seek(fresh, pos, mode)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.M.Retired() != pos {
			t.Errorf("%s: seek landed at %d", name, fresh.M.Retired())
		}
		if seekOps >= lib.StrideOps() {
			t.Errorf("%s: seek stepped %d ops, more than one stride", name, seekOps)
		}
		arch[mode] = fresh.M.Snapshot()
		if mode == cpu.FastForward && !reflect.DeepEqual(held(), before) {
			t.Errorf("%s: seek changed the core's caches or predictor", name)
		}
		// Seeking beyond the program fails cleanly.
		if _, err := lib.Seek(fresh, 1<<40, mode); err == nil {
			t.Errorf("%s: seek beyond program accepted", name)
		}
	}
	if !reflect.DeepEqual(arch[cpu.FastForward], arch[cpu.FunctionalWarming]) {
		t.Error("fast-forward and warming seeks reached different architectural state")
	}
}

// TestRandomOrderSamplesMatchProfile: live random-order samples through
// checkpoints must match the recorded profile's per-position IPC closely —
// the live-point property the paper wants for accelerating PGSS.
func TestRandomOrderSamplesMatchProfile(t *testing.T) {
	const ops = 1_000_000
	// Ground truth profile.
	cRec, _ := newCore(t, "197.parser", ops)
	prof, err := profile.RecordContext(context.Background(), cRec, bbv.MustNewHash(5, 42), profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Checkpoint library over a fresh run.
	cLib, _ := newCore(t, "197.parser", ops)
	lib, err := Record(cLib, 100_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	worker, _ := newCore(t, "197.parser", ops)
	positions := []uint64{150_000, 450_000, 750_000, 300_000, 50_000} // out of order
	var maxRel float64
	for _, pos := range positions {
		ipc, _, err := lib.SampleAt(worker, pos, 3000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := prof.IPCWindow(pos+3000, 1000)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(ipc-ref) / ref
		if rel > maxRel {
			maxRel = rel
		}
		if rel > 0.10 {
			t.Errorf("sample at %d: live %.4f vs profile %.4f (%.1f%%)", pos, ipc, ref, rel*100)
		}
	}
	t.Logf("max live-vs-profile sample divergence: %.2f%%", maxRel*100)
}
