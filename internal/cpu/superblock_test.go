package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"pgss/internal/isa"
	"pgss/internal/program"
	"pgss/internal/workload"
)

// diffPrograms builds the program set the differential tests run over: the
// hand-written control-flow shapes plus real generated workloads, covering
// every opcode class, taken/not-taken branches, call/return, wild data
// accesses, HALT, wild jumps and an unknown opcode.
func diffPrograms(t *testing.T) map[string]*program.Program {
	t.Helper()
	progs := map[string]*program.Program{
		"alu-chain": build(t, func(b *program.Builder) {
			b.OpI(isa.ADDI, isa.T0, isa.Zero, 7)
			b.OpI(isa.ADDI, isa.T1, isa.Zero, 3)
			b.Op(isa.ADD, isa.T2, isa.T0, isa.T1)
			b.Op(isa.SUB, isa.T3, isa.T0, isa.T1)
			b.Op(isa.MUL, isa.T4, isa.T0, isa.T1)
			b.Op(isa.DIV, isa.T5, isa.T0, isa.Zero) // div by zero
			b.Op(isa.FADD, isa.S0, isa.T0, isa.T1)
			b.Op(isa.FMUL, isa.S1, isa.T0, isa.T1)
			b.Op(isa.FDIV, isa.S2, isa.T0, isa.T1)
			b.Op(isa.SLL, isa.S3, isa.T1, isa.T0)
			b.Op(isa.SRL, isa.S4, isa.T0, isa.T1)
			b.OpI(isa.LUI, isa.S6, isa.Zero, 2)
			b.OpI(isa.ADDI, isa.Zero, isa.T0, 1) // write to r0 discarded
			b.Halt()
		}),
		"loop-branches": build(t, func(b *program.Builder) {
			b.OpI(isa.ADDI, isa.T0, isa.Zero, 500)
			b.Label("loop")
			b.Op(isa.ADD, isa.T1, isa.T1, isa.T0)
			b.OpI(isa.ADDI, isa.T0, isa.T0, -1)
			b.Branch(isa.BGE, isa.T0, isa.Zero, "loop")
			b.Halt()
		}),
		"call-return": build(t, func(b *program.Builder) {
			b.SetEntry("main")
			b.Label("fn")
			b.OpI(isa.ADDI, isa.T0, isa.T0, 10)
			b.Ret()
			b.Label("main")
			b.OpI(isa.ADDI, isa.T2, isa.Zero, 40)
			b.Label("again")
			b.Call("fn")
			b.OpI(isa.ADDI, isa.T2, isa.T2, -1)
			b.Branch(isa.BNE, isa.T2, isa.Zero, "again")
			b.Halt()
		}),
		"wild-data": build(t, func(b *program.Builder) {
			b.AllocData(2)
			b.LoadImm(isa.T0, int64(program.DataAddr(77)))
			b.Load(isa.T1, isa.T0, 0)
			b.Load(isa.Zero, isa.T0, 8) // load to r0 still counts the access
			b.Store(isa.T1, isa.T0, -8)
			b.Halt()
		}),
		"wild-jump": build(t, func(b *program.Builder) {
			b.OpI(isa.ADDI, isa.T0, isa.Zero, 500)
			b.Emit(isa.Inst{Op: isa.JR, Src1: isa.T0})
			b.Halt()
		}),
		"jump-backward-wild": build(t, func(b *program.Builder) {
			b.OpI(isa.ADDI, isa.T0, isa.Zero, -3)
			b.Emit(isa.Inst{Op: isa.JR, Src1: isa.T0})
			b.Halt()
		}),
	}
	for _, name := range []string{"164.gzip", "181.mcf", "179.art"} {
		spec, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := spec.Build(120_000)
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = p
	}
	return progs
}

// diffOne steps m1 per-op and m2 in blocks of varying sizes, comparing the
// retirement streams record by record and the final states field by field.
func diffOne(t *testing.T, p *program.Program, bufSize func(i int) int) {
	t.Helper()
	m1 := MustNewMachine(p)
	m2 := MustNewMachine(p)
	buf := make([]Retired, 1024)
	var ref Retired
	const maxOps = 2_000_000
	ops, round := 0, 0
	for ops < maxOps {
		size := bufSize(round)
		round++
		if size < 1 {
			size = 1
		}
		if size > len(buf) {
			size = len(buf)
		}
		n := m2.StepBlock(buf[:size])
		for i := 0; i < n; i++ {
			// StepBlock records are canonical (don't-care fields zeroed);
			// zero the reference before each Step so stale fields from the
			// reused record don't leak into the comparison.
			ref = Retired{}
			if !m1.Step(&ref) {
				t.Fatalf("op %d: Step halted but StepBlock produced a record %+v", ops+i, buf[i])
			}
			if ref != buf[i] {
				t.Fatalf("op %d: record mismatch\n step: %+v\nblock: %+v", ops+i, ref, buf[i])
			}
		}
		ops += n
		if n < size {
			break // m2 halted mid-block
		}
	}
	if m1.Step(&ref) != (m2.StepBlock(buf[:1]) == 1) {
		t.Fatal("halt state diverged at stream end")
	}
	if m1.Halted() != m2.Halted() {
		t.Fatalf("halted: step=%v block=%v", m1.Halted(), m2.Halted())
	}
	if (m1.Err() == nil) != (m2.Err() == nil) {
		t.Fatalf("err: step=%v block=%v", m1.Err(), m2.Err())
	}
	if m1.Err() != nil && m1.Err().Error() != m2.Err().Error() {
		t.Fatalf("err text: step=%q block=%q", m1.Err(), m2.Err())
	}
	if m1.Retired() != m2.Retired() {
		t.Fatalf("retired: step=%d block=%d", m1.Retired(), m2.Retired())
	}
	if m1.PC() != m2.PC() {
		t.Fatalf("pc: step=%d block=%d", m1.PC(), m2.PC())
	}
	if m1.WildAccesses != m2.WildAccesses {
		t.Fatalf("wild accesses: step=%d block=%d", m1.WildAccesses, m2.WildAccesses)
	}
	if !reflect.DeepEqual(m1.Snapshot(), m2.Snapshot()) {
		t.Fatal("architectural snapshots differ")
	}
}

// TestStepBlockDifferential is the bit-identity contract of the superblock
// interpreter: for every program and every batching, StepBlock produces the
// retirement stream, architectural state and halt/error behaviour of
// per-op Step.
func TestStepBlockDifferential(t *testing.T) {
	progs := diffPrograms(t)
	shapes := map[string]func(i int) int{
		"one":    func(int) int { return 1 },
		"tiny":   func(int) int { return 3 },
		"block":  func(int) int { return BlockOps },
		"full":   func(int) int { return 1024 },
		"ramp":   func(i int) int { return i%17 + 1 },
		"random": nil, // filled per-run with a seeded source below
	}
	for pname, p := range progs {
		for sname, shape := range shapes {
			t.Run(pname+"/"+sname, func(t *testing.T) {
				if shape == nil {
					rng := rand.New(rand.NewSource(42))
					shape = func(int) int { return rng.Intn(600) + 1 }
				}
				diffOne(t, p, shape)
			})
		}
	}
}

// TestStepBlockUnknownOpcode checks the invalid-opcode halt path: no record
// for the bad instruction, identical error, even when the bad opcode is in
// the middle of what would otherwise be a straight-line run.
func TestStepBlockUnknownOpcode(t *testing.T) {
	p := build(t, func(b *program.Builder) {
		b.OpI(isa.ADDI, isa.T0, isa.Zero, 1)
		b.OpI(isa.ADDI, isa.T1, isa.Zero, 2)
		b.Halt()
	})
	// Corrupt a copy of the code image after validation, as a decoder bug
	// would. Rebuild the program by hand so the original stays untouched.
	bad := *p
	bad.Code = append([]isa.Inst(nil), p.Code...)
	bad.Code[1].Op = isa.Opcode(200)

	m1 := &Machine{prog: &bad}
	m1.Reset()
	m2 := &Machine{prog: &bad}
	m2.Reset()

	var ref Retired
	buf := make([]Retired, 16)
	n := m2.StepBlock(buf)
	steps := 0
	for ref = (Retired{}); m1.Step(&ref); ref = (Retired{}) {
		if ref != buf[steps] {
			t.Fatalf("record %d mismatch", steps)
		}
		steps++
	}
	if n != steps {
		t.Fatalf("block retired %d, step retired %d", n, steps)
	}
	if m2.Err() == nil || m1.Err().Error() != m2.Err().Error() {
		t.Fatalf("err: step=%v block=%v", m1.Err(), m2.Err())
	}
}

// TestStepBlockResume checks that block stepping composes with snapshot and
// restore: a machine restored mid-stream continues bit-identically.
func TestStepBlockResume(t *testing.T) {
	spec, err := workload.Get("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build(60_000)
	if err != nil {
		t.Fatal(err)
	}
	m := MustNewMachine(p)
	buf := make([]Retired, 100)
	for i := 0; i < 50; i++ {
		m.StepBlock(buf)
	}
	snap := m.Snapshot()

	cont := make([]Retired, 500)
	n1 := m.StepBlock(cont)

	m2 := MustNewMachine(p)
	if err := m2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	resumed := make([]Retired, 500)
	n2 := m2.StepBlock(resumed)
	if n1 != n2 || !reflect.DeepEqual(cont[:n1], resumed[:n2]) {
		t.Fatal("restored machine diverged from continuous run")
	}
}

// TestCoreStepBlockModes spot-checks the two Core batch modes against
// their per-op counterparts: identical retire streams, cycle counts and
// microarchitectural snapshots.
func TestCoreStepBlockModes(t *testing.T) {
	spec, err := workload.Get("256.bzip2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build(80_000)
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]struct {
		step  func(c *Core, r *Retired) bool
		block func(c *Core, buf []Retired) int
	}{
		"detailed": {(*Core).StepDetailed, (*Core).StepDetailedBlock},
		"warm":     {(*Core).StepWarm, (*Core).StepWarmBlock},
	}
	for name, mode := range modes {
		t.Run(name, func(t *testing.T) {
			c1, err := NewCore(MustNewMachine(p), DefaultCoreConfig())
			if err != nil {
				t.Fatal(err)
			}
			c2, err := NewCore(MustNewMachine(p), DefaultCoreConfig())
			if err != nil {
				t.Fatal(err)
			}
			var r Retired
			buf := c2.BlockBuf()
			for {
				n := mode.block(c2, buf)
				for i := 0; i < n; i++ {
					r = Retired{}
					if !mode.step(c1, &r) {
						t.Fatal("per-op halted early")
					}
					if r != buf[i] {
						t.Fatalf("record mismatch: %+v vs %+v", r, buf[i])
					}
				}
				if n < len(buf) {
					break
				}
			}
			if mode.step(c1, &r) {
				t.Fatal("per-op did not halt with block")
			}
			if c1.T.Cycle() != c2.T.Cycle() {
				t.Fatalf("cycles: step=%d block=%d", c1.T.Cycle(), c2.T.Cycle())
			}
			if !reflect.DeepEqual(c1.T.Snapshot(), c2.T.Snapshot()) {
				t.Fatal("pipeline state diverged")
			}
			if !reflect.DeepEqual(c1.Hier.L1D.Snapshot(), c2.Hier.L1D.Snapshot()) ||
				!reflect.DeepEqual(c1.Hier.L1I.Snapshot(), c2.Hier.L1I.Snapshot()) ||
				!reflect.DeepEqual(c1.Hier.L2.Snapshot(), c2.Hier.L2.Snapshot()) {
				t.Fatal("cache state diverged")
			}
			if !reflect.DeepEqual(c1.BP.Snapshot(), c2.BP.Snapshot()) {
				t.Fatal("branch state diverged")
			}
		})
	}
}
