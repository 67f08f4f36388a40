package cpu

import (
	"pgss/internal/bbv"
	"pgss/internal/isa"
)

// BlockOps is the batch size in which Core.Run steps detailed simulation.
// Large enough to amortise dispatch into the superblock interpreter, small
// enough that a batch of Retired records (512 × 64 B = 32 KiB) stays
// cache-resident.
const BlockOps = 512

// BlockBuf returns the core's reusable retirement batch buffer, allocating
// it on first use. The buffer is owned by whoever is driving the core: a
// Core is single-goroutine at a time (the parallel engine gives every shard
// and sample worker its own Core), so one scratch buffer per core is safe
// and keeps the hot loops allocation-free. Fast-forward and functional
// warming write no records, so a core that never runs detailed never
// allocates it.
func (c *Core) BlockBuf() []Retired {
	if c.block == nil {
		c.block = make([]Retired, BlockOps)
	}
	return c.block
}

// Mode is how Core.Run steps the simulator: the three execution modes of
// sampled simulation.
//
//pgss:enum
type Mode uint8

const (
	// FastForward retires ops architecturally only, through the
	// interpreter's record-free loop: caches, predictors and the pipeline
	// are left exactly as they were. It is for callers that need only the
	// BBV and MAV of the retire stream and discard the core's
	// microarchitectural state afterwards.
	FastForward Mode = iota
	// FunctionalWarming also warms the caches and branch predictors as
	// per-op StepWarm does, charging no cycles, through a second
	// record-free loop that fetches each I-cache line once per run of ops
	// in it: the fast-forward of SMARTS and PGSS, which take samples in
	// place, and of checkpoint recording and seeks.
	FunctionalWarming
	// Detailed runs the full timing model (StepDetailedBlock).
	Detailed
)

// Run is the stepping kernel every engine loop drives: it retires up to n
// ops in the given mode, feeding the retire stream to the BBV tracker t and
// the MAV tracker mav (nil turns either off), and returns the ops retired.
// Fewer than n means the machine halted; M.Err tells a HALT from a fault.
// The retire stream, and so what the trackers see, is the same in every
// mode.
//
// At every taken branch Run charges t the ops since the previous one, the
// branch included, which accumulates exactly like per-op RetireOps(1)
// calls (integer op counts are exact in float64). Ops retired since the
// last taken branch stay pending in t for the caller's next period.
// FastForward and FunctionalWarming each run all n ops in one call to
// their own record-free loop, which charges the trackers itself. Detailed
// steps in BlockOps superblock batches whose records feed the timing model
// and then the trackers.
func (c *Core) Run(n uint64, mode Mode, t *bbv.Tracker, mav *bbv.MAVTracker) uint64 {
	switch mode {
	case FastForward:
		return c.M.runFF(n, t, mav)
	case FunctionalWarming:
		return c.runWarm(n, t, mav)
	case Detailed:
	}
	buf := c.BlockBuf()
	var done, run uint64
	for done < n {
		chunk := min(n-done, uint64(len(buf)))
		k := c.StepDetailedBlock(buf[:chunk])
		if t != nil || mav != nil {
			for i := range buf[:k] {
				r := &buf[i]
				run++
				if r.Taken && t != nil {
					t.RetireOps(run)
					t.TakenBranch(r.Addr)
					run = 0
				}
				if mav != nil && r.Op.IsMem() {
					mav.Access(r.MemAddr)
				}
			}
		}
		done += uint64(k)
		if uint64(k) < chunk {
			break
		}
	}
	if t != nil {
		t.RetireOps(run)
	}
	return done
}

// StepWarmBlock executes up to len(buf) instructions in functional-warming
// mode. The machine runs a superblock batch first, then the cache and
// branch state are warmed from the recorded retire stream; warming never
// feeds back into architectural execution, so the interleaving change is
// unobservable and the final state matches per-op StepWarm exactly. It is
// the block-level reference for warming; Core.Run warms through its own
// record-free loop instead.
func (c *Core) StepWarmBlock(buf []Retired) int {
	n := c.M.StepBlock(buf)
	for i := range buf[:n] {
		r := &buf[i]
		c.Hier.Warm(r.Addr, false, true)
		if r.Op.IsMem() {
			c.Hier.Warm(r.MemAddr, r.Op == isa.ST, false)
		}
		if r.Op.IsControl() {
			c.T.WarmControl(r)
		}
	}
	return n
}

// StepDetailedBlock executes up to len(buf) instructions under the full
// timing model. As with warming, the timing model consumes the retire
// stream and never influences architectural execution, so batch-then-retire
// produces cycle counts identical to per-op StepDetailed.
func (c *Core) StepDetailedBlock(buf []Retired) int {
	n := c.M.StepBlock(buf)
	for i := range buf[:n] {
		c.T.Retire(&buf[i])
	}
	return n
}
