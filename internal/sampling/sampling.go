// Package sampling contains the sampled-simulation machinery shared by all
// techniques — execution-mode cost accounting, result types, and the
// Target abstraction a sequential controller drives — plus the baseline
// techniques the paper compares PGSS-Sim against: full detailed
// simulation, SMARTS, TurboSMARTS, offline SimPoint and online SimPoint.
//
// A sequential controller (SMARTS, PGSS) sees execution as a series of
// windows: each window optionally starts with a detailed warm-up and a
// detailed measured sample (the SMARTS 3k+1k structure), and the remainder
// runs in functional-warming fast-forward while the BBV tracker
// accumulates. Targets replay a recorded profile (ProfileTarget): a
// window's BBV sums the recorded intervals, whose tracker carried pending
// (post-last-branch) ops across every boundary, and a sample's IPC is that
// of a perfectly warmed sample. Live simulation runs on the sharded engine
// instead (parallel.LiveSource), whose windows drop pending ops at each
// boundary.
package sampling

import (
	"errors"
	"fmt"
	"math"

	"pgss/internal/bbv"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
)

// Costs tallies operations by execution mode. The paper's accounting (§5)
// counts detailed warming plus detailed simulation as "detailed"; Fig 13's
// time model prices each mode separately.
type Costs struct {
	Detailed       uint64 // measured detailed simulation
	DetailedWarm   uint64 // detailed warm-up before each sample
	FunctionalWarm uint64 // functional fast-forward with cache/predictor warming
	PlainFF        uint64 // plain (SimPoint-style) fast-forward
}

// DetailedTotal returns detailed simulation + detailed warming, the
// quantity plotted in Fig 12's lower panel.
func (c Costs) DetailedTotal() uint64 { return c.Detailed + c.DetailedWarm }

// Total returns all simulated ops across modes.
func (c Costs) Total() uint64 {
	return c.Detailed + c.DetailedWarm + c.FunctionalWarm + c.PlainFF
}

// Add accumulates o into c.
func (c *Costs) Add(o Costs) {
	c.Detailed += o.Detailed
	c.DetailedWarm += o.DetailedWarm
	c.FunctionalWarm += o.FunctionalWarm
	c.PlainFF += o.PlainFF
}

// Result is the outcome of one estimation run.
type Result struct {
	Technique string
	Config    string
	Benchmark string

	EstimatedIPC float64
	TrueIPC      float64

	Costs   Costs
	Samples uint64 // detailed samples (or detailed intervals) taken
	Phases  int    // phases/clusters used, when applicable
}

// ErrorPct returns |est−true|/true in percent.
func (r Result) ErrorPct() float64 {
	if r.TrueIPC == 0 {
		return math.Inf(1)
	}
	return math.Abs(r.EstimatedIPC-r.TrueIPC) / r.TrueIPC * 100
}

func (r Result) String() string {
	return fmt.Sprintf("%s[%s] %s: est=%.4f true=%.4f err=%.3f%% detailed=%d samples=%d",
		r.Technique, r.Config, r.Benchmark, r.EstimatedIPC, r.TrueIPC,
		r.ErrorPct(), r.Costs.DetailedTotal(), r.Samples)
}

// BestOf runs every configuration of a sweep and returns the lowest-error
// result: the "best per benchmark" rows of Fig 12. A configuration that
// fails (say, an interval longer than the program) is skipped, but an
// ErrBudgetExceeded-classed error stops the sweep.
func BestOf[C any](sweep []C, run func(C) (Result, error)) (Result, error) {
	var best Result
	found := false
	for _, cfg := range sweep {
		r, err := run(cfg)
		if errors.Is(err, pgsserrors.ErrBudgetExceeded) {
			return best, err
		}
		if err != nil {
			continue
		}
		if !found || r.ErrorPct() < best.ErrorPct() {
			best, found = r, true
		}
	}
	if !found {
		return best, pgsserrors.Infeasiblef("sampling: every configuration of the sweep failed")
	}
	return best, nil
}

// Window is what a sequential controller receives for each stretch of
// execution it requested.
type Window struct {
	// Ops actually covered (the final window may be short).
	Ops uint64
	// BBV is the normalised basic-block vector over the whole window.
	BBV bbv.Vector
	// MAV is the normalised memory-access vector over the whole window;
	// nil when the target has no MAV channel. Controllers configured for a
	// BBV-only channel ignore it.
	MAV bbv.Vector
	// SampleIPC is the IPC measured over the detailed sample at the start
	// of the window; NaN when no sample was requested or it did not fit.
	SampleIPC float64
	// SampleOps/WarmOps are the detailed ops actually spent.
	SampleOps uint64
	WarmOps   uint64
}

// Target is a benchmark execution a sequential controller can drive.
type Target interface {
	// Benchmark returns the workload name.
	Benchmark() string
	// TrueIPC returns the whole-program IPC for error reporting.
	TrueIPC() float64
	// Pos returns ops completed so far.
	Pos() uint64
	// NextWindow advances by up to `ops` operations. If warm+sample > 0,
	// the window begins with `warm` detailed warm-up ops followed by
	// `sample` measured detailed ops; the remainder runs in
	// functional-warming mode. It returns false at end of program — or on
	// error, in which case Err reports it.
	NextWindow(ops, warm, sample uint64) (Window, bool)
	// Err returns the error that terminated window delivery, if any.
	// Controllers must check it after their NextWindow loop ends: a false
	// return from NextWindow means either normal exhaustion (Err() == nil)
	// or a failure such as a misaligned window request.
	Err() error
}

// ProfileTarget replays a recorded profile as a Target. Window sizes must
// be multiples of the profile's BBV granularity, and warm-up/sample sizes
// multiples of its fine granularity; a misaligned request ends the window
// stream and surfaces through Err.
//
// The returned Window's BBV and MAV are scratch buffers owned by the
// target, valid only until the next NextWindow call.
type ProfileTarget struct {
	p   *profile.Profile
	pos uint64
	err error
	// scratch/mavScratch back the returned Window's BBV/MAV, reused across
	// windows.
	scratch    bbv.Vector
	mavScratch bbv.Vector
}

// NewProfileTarget wraps p.
func NewProfileTarget(p *profile.Profile) *ProfileTarget {
	return &ProfileTarget{p: p}
}

// Benchmark implements Target.
func (t *ProfileTarget) Benchmark() string { return t.p.Benchmark }

// TotalOps returns the profile's run length.
func (t *ProfileTarget) TotalOps() uint64 { return t.p.TotalOps }

// TrueIPC implements Target.
func (t *ProfileTarget) TrueIPC() float64 { return t.p.TrueIPC() }

// Pos implements Target.
func (t *ProfileTarget) Pos() uint64 { return t.pos }

// Reset rewinds to the start of the program and clears any sticky error.
func (t *ProfileTarget) Reset() { t.pos, t.err = 0, nil }

// Err implements Target.
func (t *ProfileTarget) Err() error { return t.err }

// fail records err and ends the window stream.
func (t *ProfileTarget) fail(err error) (Window, bool) {
	t.err = err
	return Window{}, false
}

// NextWindow implements Target.
func (t *ProfileTarget) NextWindow(ops, warm, sample uint64) (Window, bool) {
	if t.pos >= t.p.TotalOps || t.err != nil {
		return Window{}, false
	}
	if ops == 0 || ops%t.p.BBVOps != 0 {
		return t.fail(pgsserrors.Misalignedf(
			"sampling: window %d not a multiple of BBV granularity %d", ops, t.p.BBVOps))
	}
	if warm%t.p.FineOps != 0 || sample%t.p.FineOps != 0 {
		return t.fail(pgsserrors.Misalignedf(
			"sampling: warm %d / sample %d not multiples of fine granularity %d",
			warm, sample, t.p.FineOps))
	}
	w := Window{SampleIPC: math.NaN()}
	if t.scratch == nil {
		t.scratch = make(bbv.Vector, 1<<t.p.HashBits)
	}
	ok, err := t.p.BBVWindowInto(t.scratch, t.pos, ops)
	if err != nil {
		return t.fail(err)
	}
	if !ok {
		t.pos = t.p.TotalOps
		return Window{}, false
	}
	w.BBV = t.scratch.Normalize()
	if t.p.HasMAV() {
		if t.mavScratch == nil {
			t.mavScratch = make(bbv.Vector, 1<<t.p.MAVBits)
		}
		if ok, err := t.p.MAVWindowInto(t.mavScratch, t.pos, ops); err != nil {
			return t.fail(err)
		} else if ok {
			w.MAV = t.mavScratch.Normalize()
		}
	}
	remaining := t.p.TotalOps - t.pos
	w.Ops = ops
	if remaining < ops {
		w.Ops = remaining
	}
	if sample > 0 && warm+sample <= w.Ops {
		ipc, err := t.p.IPCWindow(t.pos+warm, sample)
		if err != nil {
			return t.fail(err)
		}
		if ipc > 0 {
			w.SampleIPC = ipc
			w.SampleOps = sample
			w.WarmOps = warm
		}
	}
	t.pos += w.Ops
	return w, true
}
