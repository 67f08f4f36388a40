package trace

import (
	"bytes"
	"math"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/cpu"
	"pgss/internal/program"
	"pgss/internal/workload"
)

func buildProg(t *testing.T, name string, ops uint64) *program.Program {
	t.Helper()
	spec, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build(ops)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newCore(t *testing.T, prog *program.Program) *cpu.Core {
	t.Helper()
	c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoundTripRecords(t *testing.T) {
	prog := buildProg(t, "197.parser", 200_000)
	// Capture a short segment while remembering the original records.
	c := newCore(t, prog)
	var want []cpu.Retired
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var r cpu.Retired
	for i := 0; i < 50_000 && c.StepDetailed(&r); i++ {
		want = append(want, r)
		if err := tw.Write(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}

	tr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got cpu.Retired
	for i := range want {
		if err := tr.Read(&got); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		w := want[i]
		if got.Op != w.Op || got.Addr != w.Addr || got.Dst != w.Dst ||
			got.Src1 != w.Src1 || got.Src2 != w.Src2 || got.Taken != w.Taken ||
			got.IsCall != w.IsCall || got.IsReturn != w.IsReturn {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got, w)
		}
		if w.Op.IsMem() && got.MemAddr != w.MemAddr {
			t.Fatalf("record %d mem addr %#x, want %#x", i, got.MemAddr, w.MemAddr)
		}
		if w.Taken && got.TargetAddr != w.TargetAddr {
			t.Fatalf("record %d target %#x, want %#x", i, got.TargetAddr, w.TargetAddr)
		}
		if w.IsCall && got.ReturnAddr != w.ReturnAddr {
			t.Fatalf("record %d return addr %#x, want %#x", i, got.ReturnAddr, w.ReturnAddr)
		}
	}
	if err := tr.Read(&got); err == nil {
		t.Error("trace longer than written")
	}
}

func TestBadHeaderRejected(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

// The core guarantee of trace-driven simulation: replaying a trace through
// a fresh pipeline reproduces execution-driven cycles exactly.
func TestReplayMatchesExecutionExactly(t *testing.T) {
	prog := buildProg(t, "197.parser", 300_000)
	exec := newCore(t, prog)
	var buf bytes.Buffer
	ops, err := Capture(exec, &buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	execCycles := exec.T.Cycle()

	rops, rcycles, err := Replay(bytes.NewReader(buf.Bytes()), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rops != ops {
		t.Errorf("replayed %d ops, captured %d", rops, ops)
	}
	if rcycles != execCycles {
		t.Errorf("trace-driven %d cycles vs execution-driven %d", rcycles, execCycles)
	}
}

func TestTraceCompactness(t *testing.T) {
	prog := buildProg(t, "177.mesa", 200_000)
	var buf bytes.Buffer
	ops, err := Capture(newCore(t, prog), &buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	perOp := float64(buf.Len()) / float64(ops)
	// 5 fixed bytes + a 1-byte address delta for straight-line code; memory
	// and control records cost a few more.
	if perOp > 10 {
		t.Errorf("trace costs %.1f bytes/op — encoding regressed", perOp)
	}
}

func TestPhaseTracesEstimateIPC(t *testing.T) {
	const ops = 4_000_000
	prog := buildProg(t, "188.ammp", ops)
	hash := bbv.MustNewHash(5, 42)
	traces, err := PhaseTraces(prog, cpu.DefaultCoreConfig(), hash, 100_000, 0.05*math.Pi, RepMedian)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) < 2 {
		t.Fatalf("only %d phase traces", len(traces))
	}
	var weight float64
	for _, pt := range traces {
		weight += pt.Weight
		if pt.Ops == 0 || len(pt.Data) == 0 {
			t.Fatalf("empty trace for phase %d", pt.PhaseID)
		}
	}
	if math.Abs(weight-1) > 1e-9 {
		t.Errorf("phase weights sum to %g", weight)
	}

	est, err := EstimateIPC(traces, cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth.
	truth := newCore(t, buildProg(t, "188.ammp", ops))
	var r cpu.Retired
	var n uint64
	for truth.StepDetailed(&r) {
		n++
	}
	trueIPC := float64(n) / float64(truth.T.Cycle())
	rel := math.Abs(est-trueIPC) / trueIPC
	if rel > 0.15 {
		t.Errorf("trace-bundle estimate %.4f vs truth %.4f (%.1f%%)", est, trueIPC, rel*100)
	}
	t.Logf("trace bundle: %d phases, estimate %.4f vs truth %.4f (%.2f%% off)",
		len(traces), est, trueIPC, rel*100)
}

// TestFirstOccurrenceBias reproduces the paper's criticism of Pereira's
// first-occurrence representatives (§3): on a benchmark whose dominant
// phase has a long warm-up transient, RepFirst is far less accurate than
// RepMedian.
func TestFirstOccurrenceBias(t *testing.T) {
	const ops = 4_000_000
	hash := bbv.MustNewHash(5, 42)
	mk := func(policy RepPolicy) float64 {
		prog := buildProg(t, "188.ammp", ops)
		traces, err := PhaseTraces(prog, cpu.DefaultCoreConfig(), hash, 100_000, 0.05*math.Pi, policy)
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateIPC(traces, cpu.DefaultCoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		return est
	}
	truth := newCore(t, buildProg(t, "188.ammp", ops))
	var r cpu.Retired
	var n uint64
	for truth.StepDetailed(&r) {
		n++
	}
	trueIPC := float64(n) / float64(truth.T.Cycle())
	errOf := func(est float64) float64 { return math.Abs(est-trueIPC) / trueIPC }
	first := errOf(mk(RepFirst))
	median := errOf(mk(RepMedian))
	t.Logf("first-occurrence error %.1f%%, median-occurrence error %.1f%%", first*100, median*100)
	if median >= first {
		t.Errorf("median occurrence did not improve on first: %.1f%% vs %.1f%%", median*100, first*100)
	}
}

func TestPhaseTracesValidation(t *testing.T) {
	prog := buildProg(t, "177.mesa", 100_000)
	hash := bbv.MustNewHash(5, 42)
	if _, err := PhaseTraces(prog, cpu.DefaultCoreConfig(), hash, 0, 0.1, RepFirst); err == nil {
		t.Error("zero interval accepted")
	}
	// Interval longer than the program: no phases.
	if _, err := PhaseTraces(prog, cpu.DefaultCoreConfig(), hash, 1<<40, 0.1, RepFirst); err == nil {
		t.Error("oversized interval accepted")
	}
}
