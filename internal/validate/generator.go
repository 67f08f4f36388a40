// Package validate is the differential-testing and fuzzing backstop of the
// PGSS engines. It machine-generates randomized-but-reproducible workload
// programs and PGSS configurations from a single seed, runs every case
// through a full detailed oracle pass and through all PGSS execution
// engines (serial, checkpoint-sharded parallel under several shard
// layouts, live-source), and checks two classes of invariants:
//
//   - Hard invariants, which must hold exactly: the parallel engine's
//     Result and Stats are reflect.DeepEqual to the serial controller's for
//     every shard layout; live runs are invariant to the shard layout, and
//     their estimate lies within 1% of replay; runs are deterministic under
//     their seed; every simulated op is accounted in exactly one cost
//     bucket; detailed costs tie out against the sample count; the spread
//     rule and per-phase ledgers are self-consistent.
//
//   - Statistical invariants, which must hold on aggregate: the PGSS IPC
//     estimate tracks the oracle's whole-program IPC within the configured
//     error bound in the mean across cases, and no case diverges wildly.
//
// Every violation is reported with the minimal failing seed, so
// `pgss-validate -replay <seed>` reproduces exactly one case.
package validate

import (
	"fmt"
	"math/rand"

	"pgss/internal/bbv"
	"pgss/internal/core"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

// Case is one generated validation case: a synthetic workload and the
// technique configuration to validate on it. Cases are pure functions of
// their seed.
type Case struct {
	// Seed reproduces the case (workload layout, schedule and config).
	Seed int64
	// Spec is the generated benchmark.
	Spec *workload.Spec
	// TotalOps is the build length.
	TotalOps uint64
	// Technique selects which estimator the case validates: "PGSS" (the
	// full differential battery across engines), "2PSS" or "RSS" (the
	// replay-estimator invariants).
	Technique string
	// Channel is the signature channel the case runs on.
	Channel bbv.Channel
	// Config is the generated PGSS configuration, used when Technique is
	// "PGSS". Trace is always on so invariant checks can inspect the
	// sample stream.
	Config core.Config
	// TwoPhase is the generated 2PSS configuration, used when Technique is
	// "2PSS".
	TwoPhase sampling.TwoPhaseConfig
	// RankedSet is the generated RSS configuration, used when Technique is
	// "RSS".
	RankedSet sampling.RankedSetConfig
}

// Recording granularities the generator must respect: profiles are
// recorded at the library defaults (1k-op fine, 10k-op BBV intervals), so
// FF periods must be multiples of bbvGran and detailed warm-up/sample
// sizes multiples of fineGran.
const (
	fineGran = 1000
	bbvGran  = 10000
)

// kindPool is the set of kernel behaviours cases draw from.
var kindPool = []workload.KernelKind{
	workload.Stream, workload.Pointer, workload.Compute, workload.Branchy,
}

// genKernel draws one random kernel spec. Working sets stay small (≤ 16k
// words = 128 KB) so data initialisation does not dominate the case and the
// suite spans L1-resident through L2-pressured behaviour.
func genKernel(rng *rand.Rand, i int) workload.KernelSpec {
	ks := workload.KernelSpec{
		Name: fmt.Sprintf("k%d", i),
		Kind: kindPool[rng.Intn(len(kindPool))],
	}
	switch ks.Kind {
	case workload.Compute:
		ks.Chains = 1 + rng.Intn(6)
		ks.FP = rng.Intn(2) == 0
	case workload.Branchy:
		ks.WSWords = 1 << (8 + rng.Intn(5)) // 256..4096 words
		ks.TakenMask = []int64{1, 1, 3, 7}[rng.Intn(4)]
	case workload.Pointer:
		ks.WSWords = 1 << (9 + rng.Intn(5)) // 512..8192 words
		ks.ComputePerMem = rng.Intn(3)
	default: // Stream
		ks.WSWords = 1 << (9 + rng.Intn(6)) // 512..16384 words
		ks.StrideWords = []int64{1, 1, 2, 8}[rng.Intn(4)]
		ks.ComputePerMem = rng.Intn(4)
		ks.FP = rng.Intn(2) == 0
	}
	return ks
}

// genPattern builds a random schedule generator over nk kernels: either a
// jittered fixed cycle of coarse segments or a micro-phase mix of short
// unsynchronised segments (the 179.art/181.mcf shape that stresses the
// classifier hardest).
func genPattern(rng *rand.Rand, nk int) func(*rand.Rand, int) []Segment {
	if rng.Intn(4) == 0 {
		// Micro-phase mix: many short segments.
		count := 20 + rng.Intn(30)
		lo := uint64(3000 + rng.Intn(4000))
		hi := lo + uint64(2000+rng.Intn(5000))
		return func(r *rand.Rand, rep int) []Segment {
			out := make([]Segment, count)
			for i := range out {
				out[i] = Segment{
					Kernel: i % nk,
					Ops:    lo + uint64(r.Int63n(int64(hi-lo+1))),
				}
			}
			return out
		}
	}
	// Coarse cycle: 2–6 segments of 30k–150k ops with jitter.
	n := 2 + rng.Intn(5)
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = Segment{
			Kernel: rng.Intn(nk),
			Ops:    uint64(30_000 + rng.Intn(120_001)),
		}
	}
	jitter := 0.05 + 0.2*rng.Float64()
	return func(r *rand.Rand, rep int) []Segment {
		out := make([]Segment, n)
		for i, s := range segs {
			f := 1 - jitter + 2*jitter*r.Float64()
			ops := uint64(float64(s.Ops) * f)
			if ops == 0 {
				ops = 1
			}
			out[i] = Segment{Kernel: s.Kernel, Ops: ops}
		}
		return out
	}
}

// Segment aliases workload.Segment for brevity inside the generator.
type Segment = workload.Segment

// genConfig draws a valid PGSS configuration aligned to the recording
// granularities. Trace is always enabled: the harness's sample-stream
// invariants read Stats.SampleTrace.
func genConfig(rng *rand.Rand) core.Config {
	ff := uint64(1+rng.Intn(3)) * bbvGran // 10k..30k: 20–90 windows per case
	cfg := core.Config{
		FFOps:       ff,
		WarmOps:     uint64(rng.Intn(4)) * fineGran, // 0..3k
		SampleOps:   uint64(1+rng.Intn(2)) * fineGran,
		ThresholdPi: 0.02 + 0.28*rng.Float64(),
		SpreadOps:   uint64(1+rng.Intn(6)) * bbvGran,
		Eps:         0.03,
		Confidence:  []float64{0.95, 0.99, 0.997}[rng.Intn(3)],
		MinSamples:  uint64(3 + rng.Intn(5)),
		Trace:       true,
	}
	// Occasional ablation variants keep the decision chain's branches
	// covered differentially, not just the default path.
	switch rng.Intn(8) {
	case 0:
		cfg.DisableSpread = true
	case 1:
		cfg.GuardTransitions = true
	case 2:
		cfg.NoCurrentFirst = true
	case 3:
		cfg.DisableConfidence = true
	}
	return cfg
}

// genIntervalOps draws a stratification granularity that leaves at least
// 12 full intervals in the program: tiny interval populations make either
// estimator variance-dominated (a 6-interval program sampled 3 times can
// legitimately miss half its strata), which trips the wild-divergence bound
// without indicating a bug.
func genIntervalOps(rng *rand.Rand, total uint64) uint64 {
	maxMult := int(total / (12 * bbvGran))
	if maxMult > 6 {
		maxMult = 6
	}
	mult := 2
	if maxMult > 2 {
		mult = 2 + rng.Intn(maxMult-1)
	}
	return uint64(mult) * bbvGran
}

// genTwoPhase draws a valid 2PSS configuration aligned to the recording
// granularities. Budgets stay generous relative to the 300k–800k-op cases
// so the aggregate error bound is meaningful, not variance-dominated.
func genTwoPhase(rng *rand.Rand, ch bbv.Channel, total uint64) sampling.TwoPhaseConfig {
	return sampling.TwoPhaseConfig{
		IntervalOps: genIntervalOps(rng, total),
		ThresholdPi: 0.02 + 0.28*rng.Float64(),
		Channel:     ch,
		Phase1Frac:  0.4 + 0.6*rng.Float64(),
		Samples:     12 + rng.Intn(25),
		WarmOps:     uint64(rng.Intn(4)) * fineGran, // 0..3k
		SampleOps:   uint64(1+rng.Intn(2)) * fineGran,
		Seed:        rng.Int63(),
	}
}

// genRankedSet draws a valid RSS configuration aligned to the recording
// granularities.
func genRankedSet(rng *rand.Rand, ch bbv.Channel, total uint64) sampling.RankedSetConfig {
	return sampling.RankedSetConfig{
		IntervalOps: genIntervalOps(rng, total),
		SetSize:     2 + rng.Intn(3), // 2..4
		Cycles:      8 + rng.Intn(9), // 8..16
		Channel:     ch,
		WarmOps:     uint64(rng.Intn(4)) * fineGran,
		SampleOps:   uint64(1+rng.Intn(2)) * fineGran,
		Seed:        rng.Int63(),
	}
}

// GenCase deterministically generates the validation case for a seed. Half
// the cases run the full PGSS differential battery, a quarter each the
// 2PSS and RSS estimator invariants; the signature channel is drawn
// uniformly over {BBV, MAV, concatenated} independent of the technique.
func GenCase(seed int64) *Case {
	rng := rand.New(rand.NewSource(seed))
	nk := 2 + rng.Intn(3)
	kernels := make([]workload.KernelSpec, nk)
	for i := range kernels {
		kernels[i] = genKernel(rng, i)
	}
	spec := &workload.Spec{
		Name:       fmt.Sprintf("gen-%d", seed),
		Kernels:    kernels,
		Pattern:    genPattern(rng, nk),
		DefaultOps: 0, // the case carries its own length
		Seed:       rng.Int63(),
	}
	total := uint64(300_000 + rng.Intn(500_001)) // 300k..800k ops
	cs := &Case{
		Seed:     seed,
		Spec:     spec,
		TotalOps: total,
		Config:   genConfig(rng),
	}
	cs.Channel = bbv.Channel(rng.Intn(3))
	switch rng.Intn(4) {
	case 0, 1:
		cs.Technique = "PGSS"
		cs.Config.Channel = cs.Channel
	case 2:
		cs.Technique = "2PSS"
		cs.TwoPhase = genTwoPhase(rng, cs.Channel, total)
	default:
		cs.Technique = "RSS"
		cs.RankedSet = genRankedSet(rng, cs.Channel, total)
	}
	return cs
}
