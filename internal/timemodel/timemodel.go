// Package timemodel converts per-mode operation counts into wall-clock
// simulation time, reproducing the paper's Fig 13 accounting. The paper
// measured its simulator's throughput per execution mode (§6) and reported
// total simulation times as op counts divided by those rates, explicitly
// ignoring checkpointing ("it is assumed that no previous analysis of the
// benchmark has taken place").
package timemodel

import (
	"pgss/internal/pgsserrors"
	"pgss/internal/sampling"
)

// Rates holds simulator throughput in ops/second per execution mode.
type Rates struct {
	// PlainFFBBV is SimPoint-style fast-forwarding with BBV tracking
	// (no cache/predictor warming).
	PlainFFBBV float64
	// FunctionalWarm is functional fast-forwarding with warming, with or
	// without BBV tracking (the paper measured no difference).
	FunctionalWarm float64
	// DetailedWarm is detailed warm-up simulation (with BBV).
	DetailedWarm float64
	// Detailed is measured detailed simulation (with BBV).
	Detailed float64
}

// PaperRates are the throughputs reported in Fig 13 for the authors'
// IMPACT-based simulator.
func PaperRates() Rates {
	return Rates{
		PlainFFBBV:     680_000,
		FunctionalWarm: 535_000,
		DetailedWarm:   162_000,
		Detailed:       160_000,
	}
}

// Validate rejects nonpositive rates.
func (r Rates) Validate() error {
	if r.PlainFFBBV <= 0 || r.FunctionalWarm <= 0 || r.DetailedWarm <= 0 || r.Detailed <= 0 {
		return pgsserrors.Invalidf("timemodel: nonpositive rate in %+v", r)
	}
	return nil
}

// Breakdown is the per-mode time split of one technique run.
type Breakdown struct {
	PlainFFSec      float64
	FunctionalSec   float64
	DetailedWarmSec float64
	DetailedSec     float64
}

// Total returns the summed seconds.
func (b Breakdown) Total() float64 {
	return b.PlainFFSec + b.FunctionalSec + b.DetailedWarmSec + b.DetailedSec
}

// DetailedTotal returns detailed warm-up plus detailed simulation seconds —
// the "284 s + 96 s" style numbers the paper quotes for PGSS.
func (b Breakdown) DetailedTotal() float64 { return b.DetailedWarmSec + b.DetailedSec }

// Apply prices a cost ledger.
func (r Rates) Apply(c sampling.Costs) Breakdown {
	return Breakdown{
		PlainFFSec:      float64(c.PlainFF) / r.PlainFFBBV,
		FunctionalSec:   float64(c.FunctionalWarm) / r.FunctionalWarm,
		DetailedWarmSec: float64(c.DetailedWarm) / r.DetailedWarm,
		DetailedSec:     float64(c.Detailed) / r.Detailed,
	}
}

// ApplyAll prices the summed costs of several runs (e.g. the ten
// benchmarks of Fig 13).
func (r Rates) ApplyAll(costs []sampling.Costs) Breakdown {
	var total sampling.Costs
	for _, c := range costs {
		total.Add(c)
	}
	return r.Apply(total)
}
