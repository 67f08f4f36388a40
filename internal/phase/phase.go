// Package phase implements the online phase table at the heart of PGSS-Sim
// and of the online-SimPoint baseline: BBVs arriving from the fast-forward
// stream are classified against known phases by the angle between vectors,
// with the current phase checked first "since it is most likely that no
// phase change occurred" (paper §3).
package phase

import (
	"math"

	"pgss/internal/bbv"
	"pgss/internal/pgsserrors"
	"pgss/internal/stats"
)

// Phase is one detected execution phase.
type Phase struct {
	ID int

	// sum is the running (unnormalised) sum of member BBVs; Centroid is
	// its normalisation, maintained incrementally.
	sum      bbv.Vector
	Centroid bbv.Vector

	// Intervals counts member BBV windows; Ops counts their operations.
	Intervals uint64
	Ops       uint64

	// CPI accumulates the detailed samples taken in this phase, in cycles
	// per instruction (the SMARTS estimator space: op-uniform sampling
	// makes mean CPI unbiased, unlike mean IPC).
	CPI stats.Running

	// LastSampleOp is the op position of the most recent detailed sample
	// attributed to this phase; HasSample reports whether any was taken.
	LastSampleOp uint64
	HasSample    bool

	// FirstIntervalIndex is the window index of the phase's first
	// occurrence (used by the online-SimPoint baseline, which details the
	// first occurrence only).
	FirstIntervalIndex int
}

// absorb adds a member BBV into the phase signature. Centroid is a
// persistent buffer refreshed in place (copy + normalise computes exactly
// the same floats as cloning), so the classification hot loop allocates
// nothing after a phase's first window.
func (p *Phase) absorb(v bbv.Vector, ops uint64) {
	if p.sum == nil {
		p.sum = v.Clone()
		p.Centroid = make(bbv.Vector, len(v))
	} else {
		p.sum.Add(v)
	}
	copy(p.Centroid, p.sum)
	p.Centroid.Normalize()
	p.Intervals++
	p.Ops += ops
}

// Table is the online phase table.
type Table struct {
	threshold float64 // radians
	phases    []*Phase
	current   *Phase

	// Transitions counts phase changes (including entry into new phases).
	Transitions uint64
	// Comparisons counts BBV angle computations (the classification-order
	// ablation reads this).
	Comparisons uint64
	// CheckCurrentFirst enables the paper's optimisation of testing the
	// current phase before searching the table.
	CheckCurrentFirst bool

	// runLengths records the length (in windows) of each completed stay in
	// a phase, for the Fig 10 interval-length statistic.
	runLengths []uint64
	currentRun uint64

	// Manhattan switches the distance test to SimPoint's L1 metric with an
	// equivalently scaled threshold (distance ≤ 2·sin(θ/2)·√2 heuristic is
	// NOT used; the raw threshold value is interpreted directly). Used only
	// by the distance-metric ablation.
	Manhattan bool
}

// NewTable builds a phase table with the given angle threshold in radians.
// Values a hair above π/2 (floating-point accumulation in threshold
// sweeps) are clamped.
func NewTable(thresholdRad float64) (*Table, error) {
	if thresholdRad > math.Pi/2 && thresholdRad < math.Pi/2+1e-6 {
		thresholdRad = math.Pi / 2
	}
	if thresholdRad < 0 || thresholdRad > math.Pi/2 {
		return nil, pgsserrors.Invalidf("phase: threshold %g outside [0, π/2]", thresholdRad)
	}
	return &Table{threshold: thresholdRad, CheckCurrentFirst: true}, nil
}

// MustNewTable is NewTable that panics on error.
func MustNewTable(thresholdRad float64) *Table {
	t, err := NewTable(thresholdRad)
	if err != nil {
		panic(err)
	}
	return t
}

// Threshold returns the configured threshold in radians.
func (t *Table) Threshold() float64 { return t.threshold }

// SetThreshold adjusts the threshold mid-stream; the adaptive PGSS
// controller uses this when it detects performance-neutral phase changes.
// Existing phases stay valid — a looser threshold only merges future
// windows.
func (t *Table) SetThreshold(rad float64) {
	if rad < 0 {
		rad = 0
	}
	if rad > math.Pi/2 {
		rad = math.Pi / 2
	}
	t.threshold = rad
}

// Phases returns the phases detected so far (live slice; do not mutate).
func (t *Table) Phases() []*Phase { return t.phases }

// NumPhases returns the phase count.
func (t *Table) NumPhases() int { return len(t.phases) }

// Current returns the phase of the most recent window (nil before the
// first classification).
func (t *Table) Current() *Phase { return t.current }

func (t *Table) distance(a, b bbv.Vector) float64 {
	t.Comparisons++
	if t.Manhattan {
		return a.ManhattanDistance(b)
	}
	return a.Angle(b)
}

// Classify assigns the normalised BBV v of a window covering `ops`
// operations (window index `windowIdx`) to a phase, creating one if no
// known phase is within the threshold. It returns the phase and whether
// this window started a new phase or changed the current phase.
func (t *Table) Classify(v bbv.Vector, ops uint64, windowIdx int) (p *Phase, isNew, changed bool) {
	// 1. Current phase first (cheap common case).
	if t.CheckCurrentFirst && t.current != nil {
		if t.distance(v, t.current.Centroid) <= t.threshold {
			t.current.absorb(v, ops)
			t.currentRun++
			return t.current, false, false
		}
	}
	// 2. Best match across all phases.
	var best *Phase
	bestD := math.Inf(1)
	for _, ph := range t.phases {
		if !t.CheckCurrentFirst || ph != t.current {
			d := t.distance(v, ph.Centroid)
			if d < bestD {
				bestD = d
				best = ph
			}
		}
	}
	if best != nil && bestD <= t.threshold {
		changed = best != t.current
		t.switchTo(best)
		best.absorb(v, ops)
		t.currentRun++
		return best, false, changed
	}
	// 3. New phase.
	np := &Phase{ID: len(t.phases), FirstIntervalIndex: windowIdx}
	np.absorb(v, ops)
	t.phases = append(t.phases, np)
	t.switchTo(np)
	t.currentRun++
	return np, true, true
}

func (t *Table) switchTo(p *Phase) {
	if t.current == p {
		return
	}
	if t.current != nil {
		t.Transitions++
		t.runLengths = append(t.runLengths, t.currentRun)
	}
	t.current = p
	t.currentRun = 0
}

// FinishRun closes the trailing phase run so MeanRunLength covers the whole
// stream; call once after the last Classify.
func (t *Table) FinishRun() {
	if t.current != nil && t.currentRun > 0 {
		t.runLengths = append(t.runLengths, t.currentRun)
		t.currentRun = 0
	}
}

// MeanRunLength returns the average stay length, in windows, across
// completed runs (Fig 10's "average interval length" divided by window
// size).
func (t *Table) MeanRunLength() float64 {
	if len(t.runLengths) == 0 {
		return 0
	}
	var s uint64
	for _, r := range t.runLengths {
		s += r
	}
	return float64(s) / float64(len(t.runLengths))
}

// Summary aggregates table-level statistics for reporting.
type Summary struct {
	Phases         int
	Transitions    uint64
	MeanRunWindows float64
	// WeightedCPIStdDev is the ops-weighted mean of within-phase standard
	// deviation of the *sampled* CPIs; callers normalise by benchmark σ.
	WeightedCPIStdDev float64
}

// Summarize computes a Summary.
func (t *Table) Summarize() Summary {
	s := Summary{
		Phases:         len(t.phases),
		Transitions:    t.Transitions,
		MeanRunWindows: t.MeanRunLength(),
	}
	var ops uint64
	var acc float64
	for _, p := range t.phases {
		if p.CPI.N() >= 2 {
			acc += float64(p.Ops) * p.CPI.StdDev()
			ops += p.Ops
		}
	}
	if ops > 0 {
		s.WeightedCPIStdDev = acc / float64(ops)
	}
	return s
}

// WithinPhaseSigma returns the within-phase standard deviation of xs, one
// value per window classified as ids by ClassifySeries, averaged over
// phases weighted by their windows and expressed in units of sigma: Fig
// 10's within-phase IPC variation. Phases of fewer than two windows are
// left out; with none left, or sigma not positive, it returns 0.
func (t *Table) WithinPhaseSigma(ids []int, xs []float64, sigma float64) float64 {
	acc := make([]stats.Running, t.NumPhases())
	for i, id := range ids {
		acc[id].Add(xs[i])
	}
	var weighted float64
	var windows uint64
	for id := range acc {
		if acc[id].N() >= 2 {
			weighted += float64(acc[id].N()) * acc[id].StdDev()
			windows += acc[id].N()
		}
	}
	if windows == 0 || sigma <= 0 {
		return 0
	}
	return weighted / float64(windows) / sigma
}

// ClassifySeries drives a whole normalised-BBV series (each window covering
// `windowOps` ops) through a fresh classification pass and returns the
// phase ID of every window. It is the offline analysis path used by the
// online-SimPoint baseline and by the threshold studies.
func (t *Table) ClassifySeries(series []bbv.Vector, windowOps uint64) []int {
	ids := make([]int, len(series))
	for i, v := range series {
		p, _, _ := t.Classify(v, windowOps, i)
		ids[i] = p.ID
	}
	t.FinishRun()
	return ids
}
