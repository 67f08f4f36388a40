package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/isa"
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

// TestSeekTail: seeks past the last checkpoint of a library recorded to a
// third of its program land, from two goroutines at once, exactly where
// the same seeks through a library recorded to the end land. The warm
// seeks leave a checkpoint at every stride multiple they pass, each equal
// to the full recording's, so repeating a warm seek steps less than a
// stride; and the library's length and saved bytes stay as recorded. The
// second program halts on a stride multiple, where the full recording
// ends with a checkpoint, and the tail must too.
func TestSeekTail(t *testing.T) {
	_, parser := newCore(t, "197.parser", 300_000)
	for _, tc := range []struct {
		name   string
		prog   *program.Program
		stride uint64
	}{
		{"197.parser", parser, 10_000},
		{"halt-on-stride", haltOnStride(t, 1_000), 1_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newCore := func() *cpu.Core {
				c, err := cpu.NewCore(cpu.MustNewMachine(tc.prog), cpu.DefaultCoreConfig())
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			rec := newCore()
			full, err := Record(rec, tc.stride, 0)
			if err != nil {
				t.Fatal(err)
			}
			end := rec.M.Retired()
			short, err := Record(newCore(), tc.stride, end/3)
			if err != nil {
				t.Fatal(err)
			}
			saved := func() []byte {
				mem := faultinject.NewMemFS()
				if err := short.Save(mem, "lib.ckpt"); err != nil {
					t.Fatal(err)
				}
				b, err := mem.ReadFile("lib.ckpt")
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			n, before := short.Len(), saved()
			last := short.last().Ops

			// Shuffled positions past the short library's last checkpoint,
			// every fourth on a stride multiple and the program's end
			// among them, alternately warm and fast-forward.
			type seek struct {
				pos  uint64
				mode cpu.Mode
			}
			rng := rand.New(rand.NewSource(1))
			seeks := []seek{{end, cpu.FunctionalWarming}}
			for i := 1; i < 24; i++ {
				pos := last + 1 + uint64(rng.Int63n(int64(end-last)))
				if i%4 == 0 {
					pos -= pos % tc.stride
				}
				seeks = append(seeks, seek{pos, []cpu.Mode{cpu.FunctionalWarming, cpu.FastForward}[i%2]})
			}
			rng.Shuffle(len(seeks), func(i, j int) { seeks[i], seeks[j] = seeks[j], seeks[i] })

			// Each goroutine seeks its core through the short library and
			// a reference core through the full one, in the same order, so
			// the two hold the same caches and predictor before every
			// fast-forward seek too.
			var wg sync.WaitGroup
			for g := range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c, ref := newCore(), newCore()
					for i := g; i < len(seeks); i += 2 {
						sk := seeks[i]
						if _, err := short.Seek(c, sk.pos, sk.mode); err != nil {
							t.Errorf("short library seek to %d: %v", sk.pos, err)
							return
						}
						if _, err := full.Seek(ref, sk.pos, sk.mode); err != nil {
							t.Errorf("full library seek to %d: %v", sk.pos, err)
							return
						}
						if !reflect.DeepEqual(Capture(c), Capture(ref)) {
							t.Errorf("mode %v seek to %d: state differs from the full library's seek", sk.mode, sk.pos)
						}
					}
				}()
			}
			wg.Wait()

			c := newCore()
			for _, sk := range seeks {
				if sk.mode != cpu.FunctionalWarming {
					continue
				}
				for k := last/tc.stride + 1; k*tc.stride <= sk.pos; k++ {
					pos := k * tc.stride
					ck := short.Nearest(pos)
					if ck.Ops != pos {
						t.Fatalf("no checkpoint at %d below the warm seek to %d (nearest %d)", pos, sk.pos, ck.Ops)
					}
					if !reflect.DeepEqual(ck, full.Nearest(pos)) {
						t.Errorf("tail checkpoint at %d differs from the full recording's", pos)
					}
				}
				steps, err := short.Seek(c, sk.pos, cpu.FunctionalWarming)
				if err != nil {
					t.Fatal(err)
				}
				if steps >= tc.stride {
					t.Errorf("repeated warm seek to %d stepped %d ops, a stride or more", sk.pos, steps)
				}
			}
			if end%tc.stride == 0 && !short.Nearest(end).Machine.Halted {
				t.Errorf("the tail holds no halted checkpoint at the program's end, %d", end)
			}
			if short.Len() != n || !bytes.Equal(saved(), before) {
				t.Errorf("seeks changed the library: %d checkpoints (was %d), saved bytes equal: %v",
					short.Len(), n, bytes.Equal(saved(), before))
			}
		})
	}
}

// haltOnStride builds a program that stores to its data image in a loop
// and halts after a multiple of stride ops.
func haltOnStride(t *testing.T, stride uint64) *program.Program {
	t.Helper()
	build := func(pad uint64) *program.Program {
		b := program.NewBuilder("halt-on-stride")
		b.AllocData(4096)
		b.LoadImm(isa.T1, 0)
		b.LoadImm(isa.T2, 4096*8)
		b.LoadImm(isa.T3, 10_000)
		b.Label("loop")
		b.Op(isa.ADD, isa.T4, isa.GP, isa.T1)
		b.Load(isa.T5, isa.T4, 0)
		b.OpI(isa.ADDI, isa.T5, isa.T5, 1)
		b.Store(isa.T5, isa.T4, 0)
		b.OpI(isa.ADDI, isa.T1, isa.T1, 17*8)
		b.Branch(isa.BLT, isa.T1, isa.T2, "next")
		b.Op(isa.SUB, isa.T1, isa.T1, isa.T2)
		b.Label("next")
		b.OpI(isa.ADDI, isa.T3, isa.T3, -1)
		b.Branch(isa.BNE, isa.T3, isa.Zero, "loop")
		for range pad {
			b.Emit(isa.Inst{Op: isa.NOP})
		}
		b.Halt()
		prog, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	run := func(prog *program.Program) (uint64, error) {
		c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c.Run(1<<30, cpu.FastForward, nil, nil), c.M.Err()
	}
	ops, _ := run(build(0))
	prog := build((stride - ops%stride) % stride)
	if ops, err := run(prog); ops%stride != 0 || err != nil {
		t.Fatalf("program halts after %d ops (%v), not cleanly on a multiple of %d", ops, err, stride)
	}
	return prog
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
