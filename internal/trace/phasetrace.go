package trace

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"pgss/internal/bbv"
	"pgss/internal/branch"
	"pgss/internal/cache"
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
	"pgss/internal/phase"
	"pgss/internal/program"
)

// PhaseTrace is one phase's representative trace segment with the weight
// needed to extrapolate whole-program behaviour — the artefact Pereira et
// al. generate ("only one, large sample is taken for each phase").
type PhaseTrace struct {
	PhaseID int
	// Weight is the phase's share of program ops.
	Weight float64
	// StartOp is the representative interval's position.
	StartOp uint64
	// Ops is the captured length, including WarmupOps.
	Ops uint64
	// WarmupOps is the captured prefix that replay uses only to warm the
	// pipeline; its cycles are excluded from the estimate.
	WarmupOps uint64
	// Micro carries the cache and branch-predictor state at the capture
	// point. This is what makes the traces cycle-close: a representative
	// whose working set exceeds the warm-up prefix would otherwise replay
	// against cold caches (the dominant error in naive trace replay).
	Micro MicroState
	// Data is the encoded trace (see Writer).
	Data []byte
}

// MicroState is the captured microarchitectural warm state shipped with a
// phase trace.
type MicroState struct {
	L1I, L1D, L2 cache.State
	BP           branch.State
}

// RepPolicy selects each phase's representative interval.
type RepPolicy int

const (
	// RepFirst uses the phase's first occurrence, as Pereira et al. do.
	// The reproduced paper criticises exactly this: "it is very possible
	// that the first occurrence of a phase is subject to warming effects
	// and therefore not be highly representative of the phase" (§3) — and
	// the tests confirm a large bias on phases with long warm-up
	// transients.
	RepFirst RepPolicy = iota
	// RepMedian uses the phase's median occurrence, avoiding the
	// first-occurrence warming bias at the cost of a longer capture pass.
	RepMedian
)

// PhaseTraces analyses prog online (one fast-forward pass with BBV
// tracking, the PGSS phase table at the given threshold), picks one
// representative interval per phase according to the policy, and captures
// a detailed trace of each representative (with one interval of warm-up
// prefix) in a second pass, which warms the caches and predictor on its
// way there. The returned bundle replays through EstimateIPC to estimate
// whole-program IPC from traces alone.
func PhaseTraces(prog *program.Program, cc cpu.CoreConfig, hash *bbv.Hash,
	intervalOps uint64, thresholdRad float64, policy RepPolicy) ([]PhaseTrace, error) {
	if intervalOps == 0 {
		return nil, pgsserrors.Invalidf("trace: zero interval")
	}

	// Pass 1: online phase analysis. BBVs need only the retire stream and
	// this core is discarded, so it fast-forwards without warming.
	core, err := cpu.NewProgramCore(prog, cc)
	if err != nil {
		return nil, err
	}
	tracker := bbv.NewTracker(hash)
	table, err := phase.NewTable(thresholdRad)
	if err != nil {
		return nil, err
	}
	members := map[int][]int{} // phase ID → interval indices
	for idx := 0; core.Run(intervalOps, cpu.FastForward, tracker, nil) == intervalOps; idx++ {
		p, _, _ := table.Classify(tracker.TakeVector(), intervalOps, idx)
		members[p.ID] = append(members[p.ID], idx)
	}
	if err := core.M.Err(); err != nil {
		return nil, fmt.Errorf("trace: analysis pass: %w", err)
	}
	table.FinishRun()
	if table.NumPhases() == 0 {
		return nil, pgsserrors.Invalidf("trace: program too short for interval %d", intervalOps)
	}

	// Representative interval per phase, in program order.
	var total uint64
	for _, p := range table.Phases() {
		total += p.Ops
	}
	type rep struct {
		phase    *phase.Phase
		interval int
	}
	var reps []rep
	for _, p := range table.Phases() {
		occ := members[p.ID]
		iv := p.FirstIntervalIndex
		if policy == RepMedian && len(occ) > 0 {
			iv = occ[len(occ)/2]
		}
		reps = append(reps, rep{phase: p, interval: iv})
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i].interval < reps[j].interval })

	// Pass 2: sequential capture. Fast-forward with warming between
	// representative intervals, detailed capture within them.
	core2, err := cpu.NewProgramCore(prog, cc)
	if err != nil {
		return nil, err
	}
	var out []PhaseTrace
	var pos uint64
	for _, rp := range reps {
		p := rp.phase
		start := uint64(rp.interval) * intervalOps
		// Capture one interval of warm-up prefix where the program allows.
		warm := intervalOps
		if start < pos+warm {
			warm = start - pos
		}
		captureFrom := start - warm
		if n := core2.Run(captureFrom-pos, cpu.FunctionalWarming, nil, nil); pos+n < captureFrom {
			return nil, pgsserrors.Invalidf("trace: program ended at %d before representative %d", pos+n, start)
		}
		pos = captureFrom
		micro := MicroState{
			L1I: core2.Hier.L1I.Snapshot(),
			L1D: core2.Hier.L1D.Snapshot(),
			L2:  core2.Hier.L2.Snapshot(),
			BP:  core2.BP.Snapshot(),
		}
		var buf bytes.Buffer
		captured, err := Capture(core2, &buf, warm+intervalOps)
		if err != nil {
			return nil, err
		}
		pos += captured
		out = append(out, PhaseTrace{
			PhaseID:   p.ID,
			Weight:    float64(p.Ops) / float64(total),
			StartOp:   start,
			Ops:       captured,
			WarmupOps: warm,
			Micro:     micro,
			Data:      buf.Bytes(),
		})
	}
	return out, nil
}

// EstimateIPC replays every phase trace through a fresh pipeline of the
// given configuration and combines the per-phase CPIs by weight.
func EstimateIPC(traces []PhaseTrace, cc cpu.CoreConfig) (float64, error) {
	var weightedCPI, totalW float64
	for _, pt := range traces {
		ops, cycles, err := ReplayCycleClose(bytes.NewReader(pt.Data), cc, pt.WarmupOps, &pt.Micro)
		if err != nil {
			return 0, fmt.Errorf("trace: phase %d: %w", pt.PhaseID, err)
		}
		if ops == 0 || cycles == 0 {
			continue
		}
		weightedCPI += pt.Weight * float64(cycles) / float64(ops)
		totalW += pt.Weight
	}
	if totalW == 0 || weightedCPI == 0 || math.IsNaN(weightedCPI) {
		return 0, pgsserrors.Invalidf("trace: no usable phase traces")
	}
	return totalW / weightedCPI, nil
}
