package core

import (
	"math"
	"sort"
	"sync"

	"pgss/internal/bbv"
	"pgss/internal/phase"
	"pgss/internal/sampling"
	"pgss/internal/stats"
)

// Controller is the per-window PGSS decision machine, factored out of the
// serial run loop so the serial driver (RunContext) and the parallel
// engine (package parallel) share one implementation and therefore one
// behaviour.
//
// The controller consumes fast-forward windows in program order via
// Advance and hands back SampleRequests for the detailed samples it
// schedules. A request's result may be delivered asynchronously: the
// controller defers attributing a sample's CPI to its phase until the
// first decision that actually depends on it (the next confidence-bound
// evaluation of that phase, or Finish). Because PGSS's scheduling
// decisions for a window depend only on that window's BBV, on op
// positions, and on the sampled CPIs of the window's own phase, this lazy
// settlement produces results identical to immediate settlement — which is
// what makes a sharded, worker-pool execution bit-identical to the serial
// one.
type Controller struct {
	cfg Config
	res sampling.Result
	st  Stats

	table *phase.Table
	z     float64
	// retired holds the phase tables Restart replaced, in order; Finish
	// estimates over them and the final table together.
	retired []*phase.Table

	windowIdx int

	// sigScratch backs concatenated-channel signatures, reused across
	// windows (Classify clones what it keeps).
	sigScratch bbv.Vector

	// inflight is the sample scheduled by the most recent Advance; it
	// physically sits at the start of the next window and is adopted (or
	// dropped, at end of program) by the next Advance/Finish.
	inflight *pendingSample
	// pending queues unsettled samples per phase ID, in execution order.
	pending map[int][]*pendingSample
	// order records every adopted sample in execution order for the final
	// drain.
	order []*pendingSample

	// mu/cond synchronise sample delivery: Resolve/Fail (possibly on
	// worker goroutines) flip done under mu and broadcast; drain/Finish
	// wait on cond. One controller-level pair replaces a per-sample
	// channel — samples are settled in queue order anyway, so a shared
	// broadcast costs no extra wake-ups in the serial case and few in the
	// parallel one.
	mu   sync.Mutex
	cond sync.Cond

	// psArena and reqArena slab-allocate samples and requests in chunks:
	// a run at fine granularity schedules tens of thousands of samples,
	// and one bump-pointer chunk amortises those allocations 64×.
	psArena  []pendingSample
	reqArena []SampleRequest
}

// arenaChunk is the slab size for pendingSample/SampleRequest arenas.
const arenaChunk = 64

// pendingSample is one scheduled detailed sample whose measurement may
// arrive after later windows have been processed.
type pendingSample struct {
	c       *Controller  // owner; carries the delivery mutex/cond
	phase   *phase.Phase // phase the sample is attributed to
	guarded bool         // discard under GuardTransitions (phase changed under the sample)
	recPos  uint64       // op position after the window the sample sat in

	// Written by Resolve/Fail under c.mu (done last), read after wait
	// observes done.
	done               bool
	ipc                float64
	warmOps, sampleOps uint64 // detailed ops actually executed
	err                error

	settled bool
}

// newPending bump-allocates a zeroed pendingSample from the arena.
func (c *Controller) newPending() *pendingSample {
	if len(c.psArena) == 0 {
		c.psArena = make([]pendingSample, arenaChunk)
	}
	ps := &c.psArena[0]
	c.psArena = c.psArena[1:]
	ps.c = c
	return ps
}

// newRequest bump-allocates a SampleRequest from the arena.
func (c *Controller) newRequest() *SampleRequest {
	if len(c.reqArena) == 0 {
		c.reqArena = make([]SampleRequest, arenaChunk)
	}
	r := &c.reqArena[0]
	c.reqArena = c.reqArena[1:]
	return r
}

// deliver publishes a sample measurement and wakes every waiter.
func (c *Controller) deliver(ps *pendingSample, set func()) {
	c.mu.Lock()
	set()
	ps.done = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

// wait blocks until ps is delivered and returns its error.
func (c *Controller) wait(ps *pendingSample) error {
	c.mu.Lock()
	for !ps.done {
		c.cond.Wait()
	}
	c.mu.Unlock()
	return ps.err
}

// SampleRequest asks the driver to execute one detailed sample: Warm
// warm-up ops followed by Sample measured ops starting at op position Pos
// (the start of the window following the one that scheduled it). The
// driver must call exactly one of Resolve or Fail — unless the program
// ends before the sample's window begins, in which case the request may be
// dropped (the serial semantics: a sample scheduled at the last window is
// never executed).
type SampleRequest struct {
	Pos    uint64
	Warm   uint64
	Sample uint64

	ps *pendingSample
}

// Resolve delivers the sample measurement: its IPC and the detailed ops
// actually spent. A non-positive or NaN IPC, or zero sampleOps, marks the
// sample invalid — the ops are still charged, nothing is recorded.
func (r *SampleRequest) Resolve(ipc float64, warmOps, sampleOps uint64) {
	ps := r.ps
	ps.c.deliver(ps, func() {
		ps.ipc = ipc
		ps.warmOps = warmOps
		ps.sampleOps = sampleOps
	})
}

// Fail aborts the sample; the error surfaces from the Advance or Finish
// call that settles it.
func (r *SampleRequest) Fail(err error) {
	ps := r.ps
	ps.c.deliver(ps, func() { ps.err = err })
}

// NewController validates cfg and prepares a controller for one run.
func NewController(cfg Config, benchmark string, trueIPC float64) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{
		res: sampling.Result{
			Technique: "PGSS",
			Config:    cfg.String(),
			Benchmark: benchmark,
			TrueIPC:   trueIPC,
		},
		pending: map[int][]*pendingSample{},
	}
	c.cond.L = &c.mu
	c.configure(cfg)
	return c, nil
}

// configure installs cfg and starts a fresh phase table under it.
func (c *Controller) configure(cfg Config) {
	c.cfg = cfg
	c.z = stats.ConfidenceZ(cfg.Confidence)
	c.table = phase.MustNewTable(cfg.ThresholdPi * math.Pi)
	c.table.CheckCurrentFirst = !cfg.NoCurrentFirst
	c.table.Manhattan = cfg.Manhattan
}

// Restart settles every outstanding sample, retires the phase table into
// the final estimate and ledgers, drops the in-flight sample (the driver
// must not execute the request the last Advance returned) and continues
// under cfg with an empty table. The adaptive variant restarts whenever it
// changes the FF period: signatures at different granularities are not
// comparable, but the retired table's phases still weigh in the estimate
// for the span they observed.
func (c *Controller) Restart(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := c.SettleAll(); err != nil {
		return err
	}
	c.inflight = nil
	c.retired = append(c.retired, c.table)
	c.configure(cfg)
	return nil
}

// Windows returns the number of windows consumed so far.
func (c *Controller) Windows() int { return c.windowIdx }

// Partial returns the result and statistics accumulated so far; used on
// error and cancellation paths. Unsettled samples are not included.
func (c *Controller) Partial() (sampling.Result, Stats) { return c.res, c.st }

func (c *Controller) needsSample(p *phase.Phase) bool {
	if c.cfg.DisableConfidence {
		return p.CPI.N() < c.cfg.MinSamples
	}
	return !p.CPI.WithinBound(c.cfg.Eps, c.z, c.cfg.MinSamples)
}

// settle charges a delivered sample's detailed costs and attributes its
// CPI to its phase (or discards it under the transition guard).
func (c *Controller) settle(ps *pendingSample) {
	ps.settled = true
	// The detailed ops were spent inside a window already charged as
	// functional warming; reclassify them.
	c.res.Costs.FunctionalWarm -= ps.warmOps + ps.sampleOps
	c.res.Costs.DetailedWarm += ps.warmOps
	c.res.Costs.Detailed += ps.sampleOps
	if ps.sampleOps == 0 || math.IsNaN(ps.ipc) || ps.ipc <= 0 {
		return
	}
	if ps.guarded {
		// The sample straddled a phase transition: discard it. The
		// detailed ops were still spent (charged above).
		c.st.GuardedSamples++
		return
	}
	recordSample(ps.phase, 1/ps.ipc, ps.recPos, c.cfg, &c.res, &c.st)
}

// drain settles every pending sample of phase p, waiting for outstanding
// measurements; it must run before any decision that reads p's sample
// statistics.
func (c *Controller) drain(p *phase.Phase) error {
	q := c.pending[p.ID]
	if len(q) == 0 {
		return nil
	}
	for _, ps := range q {
		if err := c.wait(ps); err != nil {
			return err
		}
		c.settle(ps)
	}
	delete(c.pending, p.ID)
	return nil
}

// Advance consumes the next fast-forward window: its normalised BBV v and
// (when the configured channel needs one) normalised MAV mav, its op
// count, and the op position at the window's end. The classification
// signature is built here from the configured channel, so the serial
// driver and the parallel engine share one signature path — and are
// therefore bit-identical by construction on every channel. It returns a
// SampleRequest when a detailed sample must execute at the start of the
// next window, or an error if a previously requested sample failed.
func (c *Controller) Advance(v, mav bbv.Vector, ops, posAfter uint64) (*SampleRequest, error) {
	// Adopt the sample scheduled by the previous window: it sat at the
	// start of this one.
	adopted := c.inflight
	c.inflight = nil

	// The whole window is charged as functional warming; settle reassigns
	// the detailed portion when the sample's measurement arrives.
	c.res.Costs.FunctionalWarm += ops

	sig, scratch, err := bbv.Signature(c.cfg.Channel, v, mav, c.sigScratch)
	c.sigScratch = scratch
	if err != nil {
		return nil, err
	}
	p, _, _ := c.table.Classify(sig, ops, c.windowIdx)
	c.windowIdx++

	if adopted != nil {
		adopted.recPos = posAfter
		adopted.guarded = c.cfg.GuardTransitions && p != adopted.phase
		c.pending[adopted.phase.ID] = append(c.pending[adopted.phase.ID], adopted)
		c.order = append(c.order, adopted)
	}

	// Sample statistics of p are read next; settle its pending samples
	// first so the decision sees exactly what the serial run would.
	if err := c.drain(p); err != nil {
		return nil, err
	}

	// Fig 5 decision chain: within confidence bounds → skip; else the
	// spread rule must allow another sample of this phase.
	var req *SampleRequest
	if c.needsSample(p) {
		if c.cfg.DisableSpread || !p.HasSample || posAfter-p.LastSampleOp >= c.cfg.SpreadOps {
			ps := c.newPending()
			ps.phase = p
			c.inflight = ps
			req = c.newRequest()
			*req = SampleRequest{Pos: posAfter, Warm: c.cfg.WarmOps, Sample: c.cfg.SampleOps, ps: ps}
		} else {
			c.st.SpreadDeferrals++
		}
	} else {
		c.st.SamplesSkipped++
	}
	return req, nil
}

// SettleAll waits for and settles every adopted sample, so every phase's
// sample statistics are current. A driver that reads the phase table
// between windows (the adaptive variant) calls it after each Advance; the
// in-flight sample of the last Advance is not adopted yet and stays out.
func (c *Controller) SettleAll() error {
	for _, ps := range c.order {
		if ps.settled {
			continue
		}
		if err := c.wait(ps); err != nil {
			return err
		}
		c.settle(ps)
	}
	c.order = c.order[:0]
	clear(c.pending)
	return nil
}

// Finish settles all outstanding samples, drops the never-executed
// trailing request (the program ended first), and computes the estimate:
// whole-program CPI is the ops-weighted mean of per-phase sample-mean
// CPIs over every table the run used (retired ones first, in order); IPC
// is its reciprocal. Phases that ended without any sample contribute no
// estimate; their weight is excluded and reported.
func (c *Controller) Finish() (sampling.Result, Stats, error) {
	c.inflight = nil
	if err := c.SettleAll(); err != nil {
		return c.res, c.st, err
	}
	c.table.FinishRun()

	var weightedCPI, totalW float64
	for _, t := range append(c.retired, c.table) {
		for _, p := range t.Phases() {
			c.st.PerPhaseSamples = append(c.st.PerPhaseSamples, p.CPI.N())
			c.st.PhaseDiags = append(c.st.PhaseDiags, PhaseDiag{
				ID: p.ID, Intervals: p.Intervals, Ops: p.Ops,
				Samples: p.CPI.N(), MeanCPI: p.CPI.Mean(), CVCPI: p.CPI.CV(),
			})
			if p.CPI.N() == 0 {
				c.st.UnsampledOps += p.Ops
				continue
			}
			weightedCPI += float64(p.Ops) * p.CPI.Mean()
			totalW += float64(p.Ops)
		}
		c.st.Phases += t.NumPhases()
		c.st.Transitions += t.Transitions
		c.st.Comparisons += t.Comparisons
	}
	if totalW > 0 && weightedCPI > 0 {
		c.res.EstimatedIPC = totalW / weightedCPI
	}
	c.res.Phases = c.st.Phases

	// Samples settle in drain order, which may differ from execution
	// order; positions are unique and strictly increasing in the serial
	// run, so sorting restores the serial trace exactly.
	sort.Slice(c.st.SampleTrace, func(i, j int) bool {
		return c.st.SampleTrace[i].Pos < c.st.SampleTrace[j].Pos
	})
	return c.res, c.st, nil
}
