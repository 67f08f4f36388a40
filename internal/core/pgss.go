// Package core implements Phase-Guided Small-Sample Simulation (PGSS-Sim),
// the contribution of the reproduced paper.
//
// PGSS-Sim interleaves short functional fast-forwarding periods — during
// which a hardware-style BBV tracker (package bbv) estimates basic-block
// frequencies — with SMARTS-style detailed samples (3k-op warm-up + 1k-op
// measurement). After every fast-forward period the period's BBV is
// classified against the online phase table (package phase): the current
// phase is checked first, then all known phases; an unmatched BBV opens a
// new phase. A detailed sample is scheduled only when the current phase's
// IPC estimate is not yet within confidence bounds and no sample has been
// taken in this phase within the spread window (1M ops in the paper),
// which distributes samples across a phase's occurrences to capture
// temporal variation (paper Fig 5).
//
// Whole-program CPI is estimated as the ops-weighted mean of the per-phase
// sample-mean CPIs (IPC is its reciprocal; op-uniform sampling is unbiased
// in CPI space). Phases therefore automatically receive samples in
// proportion to their instability and recurrence: stable phases stop
// sampling as soon as their confidence bound closes, rare phases receive
// only their minimum, and high-variance phases keep sampling (§3).
package core

import (
	"context"
	"fmt"

	"pgss/internal/bbv"
	"pgss/internal/pgsserrors"
	"pgss/internal/phase"
	"pgss/internal/sampling"
)

// Config parameterises PGSS-Sim. The paper's defaults (at scale 1) are
// FFOps=100k, WarmOps=3k, SampleOps=1k, ThresholdPi=0.05, SpreadOps=1M,
// Eps=3%, Confidence=99.7%.
type Config struct {
	// FFOps is the fast-forward/BBV sampling period.
	FFOps uint64
	// WarmOps and SampleOps form the detailed sample (SMARTS structure).
	WarmOps   uint64
	SampleOps uint64
	// ThresholdPi is the BBV angle threshold as a fraction of π.
	ThresholdPi float64
	// SpreadOps is the minimum distance between two samples of the same
	// phase.
	SpreadOps uint64
	// Eps and Confidence define the per-phase stopping bound.
	Eps        float64
	Confidence float64
	// MinSamples is the per-phase sample floor before the bound may close.
	MinSamples uint64
	// Channel selects the phase-classification signature stream: the
	// paper's BBVs (the zero value), memory-access vectors, or their
	// renormalised concatenation. Non-BBV channels require a target that
	// delivers MAV windows.
	Channel bbv.Channel

	// DisableSpread turns the spread rule off (ablation).
	DisableSpread bool
	// DisableConfidence replaces the confidence bound with a fixed
	// MinSamples-per-phase budget (ablation).
	DisableConfidence bool
	// NoCurrentFirst disables the classify-current-phase-first
	// optimisation (ablation).
	NoCurrentFirst bool
	// Manhattan switches the phase distance metric to SimPoint's L1
	// distance (ablation); ThresholdPi is then interpreted directly as an
	// L1 distance instead of an angle fraction.
	Manhattan bool
	// Trace records every sample into Stats.SampleTrace (diagnostics).
	Trace bool
	// GuardTransitions implements the paper's future-work refinement of
	// tracking phase transition points (§7, citing Lau et al. CGO'06):
	// a sample physically sits at the start of the window *after* the one
	// whose classification scheduled it; if that following window turns
	// out to belong to a different phase, the sample straddled a
	// transition and is discarded rather than poisoning the scheduled
	// phase's CPI statistics.
	GuardTransitions bool
}

// DefaultConfig returns the paper's best overall configuration (1M-op BBV
// period, .05π threshold) at the given scale: window parameters divide by
// scale, sample sizes stay absolute.
func DefaultConfig(scale uint64) Config {
	if scale == 0 {
		scale = 1
	}
	return Config{
		FFOps:       1_000_000 / scale,
		WarmOps:     3000,
		SampleOps:   1000,
		ThresholdPi: 0.05,
		SpreadOps:   1_000_000 / scale,
		Eps:         0.03,
		Confidence:  0.997,
		MinSamples:  8,
	}
}

func (c Config) String() string {
	s := fmt.Sprintf("ff=%d/.%02dπ", c.FFOps, int(c.ThresholdPi*100+0.5))
	if c.Channel != bbv.ChannelBBV {
		s += "/" + c.Channel.String()
	}
	return s
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FFOps == 0 || c.SampleOps == 0 {
		return pgsserrors.Invalidf("pgss: zero FF period or sample size in %+v", c)
	}
	if c.WarmOps+c.SampleOps > c.FFOps {
		return pgsserrors.Invalidf("pgss: warm+sample %d exceeds FF period %d", c.WarmOps+c.SampleOps, c.FFOps)
	}
	if c.ThresholdPi < 0 || c.ThresholdPi > 0.5 {
		return pgsserrors.Invalidf("pgss: threshold %gπ outside [0, 0.5π]", c.ThresholdPi)
	}
	if c.Eps <= 0 && !c.DisableConfidence {
		return pgsserrors.Invalidf("pgss: nonpositive eps %g", c.Eps)
	}
	if c.MinSamples == 0 {
		return pgsserrors.Invalidf("pgss: zero MinSamples")
	}
	if err := c.Channel.Validate(); err != nil {
		return err
	}
	return nil
}

// Stats captures PGSS-specific diagnostics of one run.
type Stats struct {
	Phases          int
	Transitions     uint64
	SamplesTaken    uint64
	SamplesSkipped  uint64 // windows where bounds were already met
	SpreadDeferrals uint64 // windows deferred by the spread rule
	UnsampledOps    uint64 // ops in phases that ended with no sample
	Comparisons     uint64 // BBV distance computations
	GuardedSamples  uint64 // samples discarded by the transition guard
	// PerPhaseSamples[i] is the sample count of phase i.
	PerPhaseSamples []uint64
	// PhaseDiags carries a per-phase ledger for diagnostics and ablation
	// reporting.
	PhaseDiags []PhaseDiag
	// SampleTrace records every sample when Config.Trace is set.
	SampleTrace []SampleEvent
}

// SampleEvent records one detailed sample for diagnostics.
type SampleEvent struct {
	Pos     uint64 // op position after the sample's window
	PhaseID int
	CPI     float64
}

// PhaseDiag summarises one phase of a PGSS run.
type PhaseDiag struct {
	ID        int
	Intervals uint64
	Ops       uint64
	Samples   uint64
	MeanCPI   float64
	CVCPI     float64
}

// recordSample attributes one measured CPI to a phase and updates the run
// ledgers.
func recordSample(p *phase.Phase, cpi float64, pos uint64, cfg Config, res *sampling.Result, st *Stats) {
	p.CPI.Add(cpi)
	p.LastSampleOp = pos
	p.HasSample = true
	res.Samples++
	st.SamplesTaken++
	if cfg.Trace {
		st.SampleTrace = append(st.SampleTrace, SampleEvent{Pos: pos, PhaseID: p.ID, CPI: cpi})
	}
}

// RunContext executes PGSS-Sim over the target with cooperative
// cancellation: the context is polled once per fast-forward window, and a
// cancelled or expired context aborts the run with an
// ErrBudgetExceeded-classed error carrying the partial cost ledger.
//
// The decision logic lives in Controller, shared with the parallel engine
// (package parallel); here every SampleRequest is resolved synchronously
// from the window the target just delivered.
func RunContext(ctx context.Context, t sampling.Target, cfg Config) (sampling.Result, Stats, error) {
	ctl, err := NewController(cfg, t.Benchmark(), t.TrueIPC())
	if err != nil {
		return sampling.Result{}, Stats{}, err
	}
	// req is the sample request scheduled by the previous window; it
	// executes at the start of the window requested next.
	var req *SampleRequest
	for {
		if err := ctx.Err(); err != nil {
			res, st := ctl.Partial()
			return res, st, fmt.Errorf("pgss: %s cancelled after %d windows: %w (%w)",
				res.Benchmark, ctl.Windows(), pgsserrors.ErrBudgetExceeded, err)
		}
		var warm, sample uint64
		if req != nil {
			warm, sample = req.Warm, req.Sample
		}
		w, ok := t.NextWindow(cfg.FFOps, warm, sample)
		if !ok {
			break
		}
		if req != nil {
			req.Resolve(w.SampleIPC, w.WarmOps, w.SampleOps)
		}
		req, err = ctl.Advance(w.BBV, w.MAV, w.Ops, t.Pos())
		if err != nil {
			res, st := ctl.Partial()
			return res, st, err
		}
	}
	if err := t.Err(); err != nil {
		res, st := ctl.Partial()
		return res, st, err
	}
	return ctl.Finish()
}

// Sweep runs PGSS over every (FF period, threshold) combination of the
// paper's Fig 11: periods {100k, 1M, 10M}/scale × thresholds
// {.05,.10,.15,.20,.25}π.
func Sweep(scale uint64) []Config {
	if scale == 0 {
		scale = 1
	}
	periods := []uint64{100_000 / scale, 1_000_000 / scale, 10_000_000 / scale}
	thresholds := []float64{0.05, 0.10, 0.15, 0.20, 0.25}
	var out []Config
	for _, p := range periods {
		for _, th := range thresholds {
			cfg := DefaultConfig(scale)
			cfg.FFOps = p
			cfg.SpreadOps = 1_000_000 / scale
			cfg.ThresholdPi = th
			out = append(out, cfg)
		}
	}
	return out
}
