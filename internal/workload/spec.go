package workload

import (
	"fmt"
	"math/rand"

	"pgss/internal/isa"
	"pgss/internal/pgsserrors"
	"pgss/internal/program"
)

// slotsPerPage is the number of instruction slots in a 4 KB code page.
const slotsPerPage = 1024

// nextPow2 returns the smallest power of two ≥ n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// pagePlan scatters the kernels across distinct 4 KB code pages with
// random gaps, spreading branch addresses over address bits 12–17 the way
// the functions of a real program spread across its text segment. Without
// this, every kernel's branches would share the high address bits and the
// 5-bit BBV hash could not tell kernels apart.
func pagePlan(rng *rand.Rand, n int) []int {
	pages := make([]int, n)
	p := 0
	for i := range pages {
		p += 1 + rng.Intn(7)
		pages[i] = p
		p++ // the kernel occupies this page (and may spill into the gap)
	}
	return pages
}

// Segment is one stretch of the phase schedule: run kernel index Kernel
// for approximately Ops operations.
type Segment struct {
	Kernel int
	Ops    uint64
}

// Spec describes a synthetic benchmark.
type Spec struct {
	// Name is the benchmark's name (we reuse the SPEC2000 names the paper
	// evaluates, prefixed with their numbers).
	Name string
	// Kernels are the behaviours the benchmark is composed of.
	Kernels []KernelSpec
	// Pattern produces repetition rep of the schedule cycle; the builder
	// repeats the pattern (re-invoking it with increasing rep) until the
	// requested op count is reached. The rng is deterministic per build,
	// letting patterns jitter segment lengths so micro-phases do not
	// phase-lock with BBV sampling windows (§5 on 179.art/181.mcf).
	Pattern func(rng *rand.Rand, rep int) []Segment
	// DefaultOps is the benchmark's nominal length at the default scale.
	DefaultOps uint64
	// Seed fixes the build's randomness.
	Seed int64
}

// Build compiles the benchmark into a program of approximately totalOps
// operations (0 = DefaultOps).
func (s *Spec) Build(totalOps uint64) (*program.Program, error) {
	if totalOps == 0 {
		totalOps = s.DefaultOps
	}
	if len(s.Kernels) == 0 {
		return nil, pgsserrors.Invalidf("workload %s: no kernels", s.Name)
	}
	rng := rand.New(rand.NewSource(s.Seed))
	b := program.NewBuilder(s.Name)
	b.SetEntry("main")

	// Jump slot 0 → main (main is emitted after the kernels).
	b.Jump("main")

	pages := pagePlan(rng, len(s.Kernels)+1)
	builtKernels := make([]built, len(s.Kernels))
	for i, ks := range s.Kernels {
		b.PadToSlot(pages[i] * slotsPerPage)
		bk, err := ks.emit(b, rng)
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", s.Name, err)
		}
		builtKernels[i] = bk
	}

	// The startup initialisation kernel: one load-only sweep of the data
	// segment, like the input-reading phase of a real program.
	initSpec := KernelSpec{Name: "init", Kind: initSweep, WSWords: nextPow2(b.DataWords())}
	b.PadToSlot(pages[len(s.Kernels)] * slotsPerPage)
	initBk, err := initSpec.emit(b, rng)
	if err != nil {
		return nil, fmt.Errorf("workload %s: init: %w", s.Name, err)
	}
	initIdx := len(s.Kernels)
	builtKernels = append(builtKernels, initBk)

	// Materialise the schedule, starting with the initialisation sweep
	// (stride 8 words per block × unroll blocks per iteration).
	sweepIters := uint64(initSpec.WSWords) / 64
	if sweepIters == 0 {
		sweepIters = 1
	}
	segs := []Segment{{Kernel: initIdx, Ops: sweepIters * initBk.opsPerIter}}
	planned := segs[0].Ops
	for rep := 0; planned < totalOps; rep++ {
		cycle := s.Pattern(rng, rep)
		if len(cycle) == 0 {
			return nil, pgsserrors.Invalidf("workload %s: empty pattern at rep %d", s.Name, rep)
		}
		for _, seg := range cycle {
			if seg.Kernel < 0 || seg.Kernel >= initIdx {
				return nil, pgsserrors.Invalidf("workload %s: segment kernel %d out of range", s.Name, seg.Kernel)
			}
			segs = append(segs, seg)
			planned += seg.Ops
			if planned >= totalOps {
				break
			}
		}
	}

	// Schedule table: two words per segment (kernel id, iterations).
	table := b.AllocData(2 * len(segs))
	for i, seg := range segs {
		bk := &builtKernels[seg.Kernel]
		iters := (seg.Ops + bk.opsPerIter/2) / bk.opsPerIter
		if iters == 0 {
			iters = 1
		}
		b.InitData(table+2*i, int64(seg.Kernel))
		b.InitData(table+2*i+1, int64(iters))
	}

	// Driver. SP = schedule byte base, T6 = segment count, T7 = index.
	b.Label("main")
	b.LoadImm(isa.SP, int64(program.DataAddr(table)))
	b.LoadImm(isa.T6, int64(len(segs)))
	b.OpI(isa.ADDI, isa.T7, isa.Zero, 0)
	b.Label("segloop")
	b.Branch(isa.BGE, isa.T7, isa.T6, "done")
	b.OpI(isa.SLLI, isa.T0, isa.T7, 4) // ×16 bytes per entry
	b.Op(isa.ADD, isa.T0, isa.SP, isa.T0)
	b.Load(isa.T1, isa.T0, 0) // kernel id
	b.Load(isa.S0, isa.T0, 8) // iterations
	for i := range builtKernels {
		b.OpI(isa.ADDI, isa.T2, isa.Zero, int64(i))
		b.Branch(isa.BEQ, isa.T1, isa.T2, fmt.Sprintf("disp_%d", i))
	}
	b.Jump("next") // unknown id: skip
	for i, bk := range builtKernels {
		b.Label(fmt.Sprintf("disp_%d", i))
		b.Call(bk.label)
		b.Jump("next")
	}
	b.Label("next")
	b.OpI(isa.ADDI, isa.T7, isa.T7, 1)
	b.Jump("segloop")
	b.Label("done")
	b.Halt()

	return b.Build()
}
