package checkpoint

import (
	"testing"

	"pgss/internal/cpu"
	"pgss/internal/isa"
	"pgss/internal/workload"
)

// FuzzCheckpointResume fuzzes the random-access position of Seek and checks
// the live-point guarantee: restoring the nearest checkpoint and warming
// forward to a position is indistinguishable from having simulated to that
// position continuously. Both cores then run a short detailed sample and
// must retire the identical instruction stream with identical timing.
func FuzzCheckpointResume(f *testing.F) {
	const (
		totalOps = 60_000
		stride   = 10_000
		sample   = 1_500
	)
	spec, err := workload.Get("197.parser")
	if err != nil {
		f.Fatal(err)
	}
	prog, err := spec.Build(totalOps)
	if err != nil {
		f.Fatal(err)
	}
	newCore := func(t *testing.T) *cpu.Core {
		t.Helper()
		c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rec, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		f.Fatal(err)
	}
	lib, err := Record(rec, stride, 0)
	if err != nil {
		f.Fatal(err)
	}
	end := rec.M.Retired()

	f.Add(uint32(0))
	f.Add(uint32(1))
	f.Add(uint32(stride - 1))
	f.Add(uint32(stride + 1))
	f.Add(uint32(3*stride + 777))
	f.Add(uint32(end - sample - 1))

	f.Fuzz(func(t *testing.T, posRaw uint32) {
		// Leave room for the detailed sample after the seek position.
		pos := uint64(posRaw) % (end - sample)

		seeked := newCore(t)
		warmOps, err := lib.Seek(seeked, pos, cpu.FunctionalWarming)
		if err != nil {
			t.Fatalf("Seek(%d): %v", pos, err)
		}
		if got := seeked.M.Retired(); got != pos {
			t.Fatalf("Seek(%d) landed at %d", pos, got)
		}
		if warmOps >= stride+lib.StrideOps() {
			t.Fatalf("Seek(%d) warmed %d ops, more than a full stride past a checkpoint", pos, warmOps)
		}

		cont := newCore(t)
		var r cpu.Retired
		for cont.M.Retired() < pos {
			if !cont.StepWarm(&r) {
				t.Fatalf("program ended at %d before position %d", cont.M.Retired(), pos)
			}
		}

		// Both cores now claim to be "the simulator at op pos". Run the same
		// detailed sample on each; the retire streams and timing must match
		// bit for bit.
		runSample(t, seeked, cont, sample)
	})
}

// runSample steps both cores through n detailed ops and fails on the first
// divergence in the retire stream, the cycle count, or architectural state.
func runSample(t *testing.T, a, b *cpu.Core, n int) {
	t.Helper()
	aStart, bStart := a.T.Cycle(), b.T.Cycle()
	var ra, rb cpu.Retired
	for i := 0; i < n; i++ {
		oka, okb := a.StepDetailed(&ra), b.StepDetailed(&rb)
		if oka != okb {
			t.Fatalf("op %d: one core halted (seeked=%v continuous=%v)", i, oka, okb)
		}
		if !oka {
			break
		}
		if ra != rb {
			t.Fatalf("op %d: retire streams diverged: seeked %+v, continuous %+v", i, ra, rb)
		}
	}
	if ac, bc := a.T.Cycle()-aStart, b.T.Cycle()-bStart; ac != bc {
		t.Fatalf("sample cycles diverged: seeked %d, continuous %d", ac, bc)
	}
	if a.M.Retired() != b.M.Retired() {
		t.Fatalf("retired counts diverged: %d vs %d", a.M.Retired(), b.M.Retired())
	}
	for _, reg := range []isa.Reg{1, 5, 20, 31} {
		if av, bv := a.M.Reg(reg), b.M.Reg(reg); av != bv {
			t.Fatalf("register r%d diverged: %d vs %d", reg, av, bv)
		}
	}
}
