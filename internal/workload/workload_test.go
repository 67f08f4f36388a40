package workload

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pgss/internal/bbv"
	"pgss/internal/cpu"
	"pgss/internal/isa"
	"pgss/internal/profile"
	"pgss/internal/program"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 11 {
		t.Errorf("registry has %d benchmarks, want 11: %v", len(names), names)
	}
	for _, n := range names {
		s, err := Get(n)
		if err != nil || s.Name != n {
			t.Errorf("Get(%q): %v", n, err)
		}
	}
	if _, err := Get("999.nothing"); err == nil {
		t.Error("unknown benchmark accepted")
	}
	ten := PaperTen()
	if len(ten) != 10 || ten[0].Name != "164.gzip" || ten[9].Name != "300.twolf" {
		t.Errorf("PaperTen order wrong: %v", ten)
	}
}

func TestBuildValidatesAndRuns(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		prog, err := spec.Build(300_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := cpu.MustNewMachine(prog)
		var r cpu.Retired
		for m.Step(&r) {
		}
		if err := m.Err(); err != nil {
			t.Fatalf("%s halted abnormally: %v", name, err)
		}
		if m.WildAccesses != 0 {
			t.Errorf("%s: %d wild accesses", name, m.WildAccesses)
		}
		// Overshoot is bounded by one pattern cycle; just sanity-check the
		// program ran a plausible amount.
		if m.Retired() < 300_000 {
			t.Errorf("%s retired only %d ops", name, m.Retired())
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	spec, _ := Get("164.gzip")
	p1, err := spec.Build(200_000)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := spec.Build(200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Code) != len(p2.Code) || len(p1.Data) != len(p2.Data) {
		t.Fatal("builds differ structurally")
	}
	for i := range p1.Code {
		if p1.Code[i] != p2.Code[i] {
			t.Fatalf("code differs at %d", i)
		}
	}
}

// TestKernelCalibration verifies the declared opsPerIter of every kernel of
// every benchmark against actual execution: two calibration runs with
// different iteration counts must differ by exactly (i2-i1)·opsPerIter.
func TestKernelCalibration(t *testing.T) {
	for _, name := range Names() {
		spec, _ := Get(name)
		for k := range spec.Kernels {
			p1, bk := calibrationProgram(t, spec, k, 10)
			p2, _ := calibrationProgram(t, spec, k, 110)
			m1 := cpu.MustNewMachine(p1)
			var r cpu.Retired
			for m1.Step(&r) {
			}
			m2 := cpu.MustNewMachine(p2)
			for m2.Step(&r) {
			}
			delta := m2.Retired() - m1.Retired()
			if delta != 100*bk.opsPerIter {
				t.Errorf("%s kernel %s: 100 iterations retired %d ops, want %d (opsPerIter=%d)",
					name, bk.spec.Name, delta, 100*bk.opsPerIter, bk.opsPerIter)
			}
		}
	}
}

// calibrationProgram builds a minimal program that calls kernel k of the
// spec iters times, with every kernel emitted so that addresses and data
// layout match the real build, and returns it with the kernel's declared
// constants.
func calibrationProgram(t *testing.T, s *Spec, k int, iters uint64) (*program.Program, built) {
	t.Helper()
	rng := rand.New(rand.NewSource(s.Seed))
	b := program.NewBuilder(s.Name + "_cal")
	b.SetEntry("main")
	b.Jump("main")
	pages := pagePlan(rng, len(s.Kernels)+1) // +1 matches Build's init page
	var bk built
	for i, ks := range s.Kernels {
		b.PadToSlot(pages[i] * slotsPerPage)
		one, err := ks.emit(b, rng)
		if err != nil {
			t.Fatal(err)
		}
		if i == k {
			bk = one
		}
	}
	b.Label("main")
	b.LoadImm(isa.S0, int64(iters))
	b.Call(bk.label)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, bk
}

func TestScheduleAccuracy(t *testing.T) {
	// The built program's retired ops should be close to the planned total
	// (within one pattern cycle of overshoot plus per-call overheads).
	spec, _ := Get("177.mesa")
	prog, err := spec.Build(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	m := cpu.MustNewMachine(prog)
	var r cpu.Retired
	for m.Step(&r) {
	}
	got := float64(m.Retired())
	if got < 2_000_000*0.95 || got > 2_000_000*1.2+11_000_000 {
		t.Errorf("retired %d ops for a 2M plan", m.Retired())
	}
}

func TestBenchmarkIPCCharacters(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-benchmark simulation")
	}
	// The suite must preserve the paper-relevant IPC relationships:
	// mcf/art lowest, mesa high, wupwise bimodal.
	ipc := map[string]float64{}
	for _, name := range []string{"181.mcf", "179.art", "177.mesa", "300.twolf"} {
		spec, _ := Get(name)
		prog, err := spec.Build(3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		core, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		p, err := profile.RecordContext(context.Background(), core, bbv.MustNewHash(5, 42), profile.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		ipc[name] = p.TrueIPC()
	}
	if !(ipc["181.mcf"] < ipc["300.twolf"] && ipc["179.art"] < ipc["300.twolf"]) {
		t.Errorf("mcf/art not low-IPC: %v", ipc)
	}
	if ipc["177.mesa"] < 1.0 {
		t.Errorf("mesa IPC %g too low", ipc["177.mesa"])
	}
}

func TestMicroPhasePattern(t *testing.T) {
	// art's schedule must alternate kernels at 4–6k granularity.
	spec, _ := Get("179.art")
	rngSegs := spec.Pattern(newTestRand(), 0)
	if len(rngSegs) != 200 {
		t.Fatalf("art pattern has %d segments", len(rngSegs))
	}
	for i, seg := range rngSegs {
		if seg.Ops < 4000 || seg.Ops > 6000 {
			t.Errorf("segment %d ops = %d outside [4000,6000]", i, seg.Ops)
		}
		if seg.Kernel != i%2 {
			t.Errorf("segment %d kernel = %d, want alternation", i, seg.Kernel)
		}
	}
}

func TestKernelSpecValidation(t *testing.T) {
	spec := &Spec{
		Name:       "bad",
		Kernels:    []KernelSpec{{Name: "x", Kind: Stream, WSWords: 1000}}, // not pow2
		Pattern:    fixed(0, Segment{0, 1000}),
		DefaultOps: 1000,
	}
	if _, err := spec.Build(0); err == nil {
		t.Error("non-pow2 working set accepted")
	}
	empty := &Spec{Name: "e", Pattern: fixed(0, Segment{0, 1})}
	if _, err := empty.Build(100); err == nil {
		t.Error("kernel-less spec accepted")
	}
	wild := &Spec{
		Name:       "w",
		Kernels:    []KernelSpec{{Name: "x", Kind: Compute}},
		Pattern:    fixed(0, Segment{5, 1000}), // kernel index out of range
		DefaultOps: 1000,
	}
	if _, err := wild.Build(0); err == nil {
		t.Error("out-of-range segment kernel accepted")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestPagePlanSpreadsKernels(t *testing.T) {
	rng := newTestRand()
	pages := pagePlan(rng, 7)
	seen := map[int]bool{}
	prev := -1
	for _, p := range pages {
		if p <= prev {
			t.Fatalf("pages not strictly ascending: %v", pages)
		}
		if seen[p] {
			t.Fatalf("duplicate page: %v", pages)
		}
		seen[p] = true
		prev = p
	}
	// The spread must exercise high address bits (≥ bit 14 ⇒ page ≥ 4).
	if pages[len(pages)-1] < 4 {
		t.Errorf("pages too dense: %v", pages)
	}
}

func TestJitterBounds(t *testing.T) {
	rng := newTestRand()
	for i := 0; i < 1000; i++ {
		v := jitter(rng, 1000, 0.2)
		if v < 800 || v > 1200 {
			t.Fatalf("jitter out of bounds: %d", v)
		}
	}
	if jitter(rng, 0, 0.5) == 0 {
		t.Error("jitter returned 0")
	}
}

// newTestRand returns a deterministic rng for pattern tests.
func newTestRand() *rand.Rand { return rand.New(rand.NewSource(12345)) }

// TestPropertyRandomSpecsRun generates random (but valid) kernel specs and
// schedules, and verifies every generated program validates, halts
// normally, stays inside its data segment, and retires a plausible op
// count — the generator must be robust across its whole parameter space.
func TestPropertyRandomSpecsRun(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nk := 1 + rng.Intn(4)
		kernels := make([]KernelSpec, nk)
		for i := range kernels {
			kind := KernelKind(rng.Intn(4))
			ks := KernelSpec{
				Name: fmt.Sprintf("k%d", i),
				Kind: kind,
			}
			switch kind {
			case Compute:
				ks.Chains = 1 + rng.Intn(6)
				ks.FP = rng.Intn(2) == 0
			case Branchy:
				ks.WSWords = 1 << (8 + rng.Intn(5))
				ks.TakenMask = int64(1 + rng.Intn(7))
			default:
				ks.WSWords = 1 << (8 + rng.Intn(8))
				ks.StrideWords = int64(1 + rng.Intn(8))
				ks.ComputePerMem = rng.Intn(4)
				ks.FP = rng.Intn(2) == 0
			}
			kernels[i] = ks
		}
		spec := &Spec{
			Name:    fmt.Sprintf("rand%d", seed),
			Kernels: kernels,
			Pattern: func(r *rand.Rand, rep int) []Segment {
				n := 1 + r.Intn(5)
				segs := make([]Segment, n)
				for i := range segs {
					segs[i] = Segment{Kernel: r.Intn(nk), Ops: 5_000 + uint64(r.Int63n(50_000))}
				}
				return segs
			},
			DefaultOps: 150_000,
			Seed:       seed,
		}
		prog, err := spec.Build(0)
		if err != nil {
			t.Logf("seed %d: build: %v", seed, err)
			return false
		}
		if err := prog.Validate(); err != nil {
			t.Logf("seed %d: validate: %v", seed, err)
			return false
		}
		m := cpu.MustNewMachine(prog)
		var r cpu.Retired
		for m.Step(&r) {
		}
		if m.Err() != nil || m.WildAccesses != 0 {
			t.Logf("seed %d: err=%v wild=%d", seed, m.Err(), m.WildAccesses)
			return false
		}
		return m.Retired() >= 150_000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
