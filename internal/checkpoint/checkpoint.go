// Package checkpoint implements live-point-style checkpointing of the
// simulator — the acceleration the paper names first among its future work
// ("The livepoints used in [15] could easily be used to accelerate PGSS",
// §7, citing TurboSMARTS' simulation sampling with live-points).
//
// A Checkpoint captures the complete simulator state at an op position:
// architectural state (registers, memory, PC), cache contents, branch
// predictor state and the pipeline scoreboard. Restoring it and resuming
// detailed simulation is bit-identical to having simulated continuously,
// which the tests verify. A Library records checkpoints at fixed op strides
// during one warming pass. Consecutive checkpoints share every data page
// that did not change between them (cpu.MachineState), in memory and in the
// library file, so a checkpoint costs about what changed since the previous
// one and a stride of one sampling window stays affordable. Seek then
// provides random access to any position by restoring the nearest checkpoint
// at or below it and stepping forward (warming, when a sample follows),
// turning the sequential simulator into the random-access sample source that
// TurboSMARTS-style random-order sampling — and live-point-accelerated PGSS
// — needs.
//
// A library recorded with a maxOps short of its program's end keeps, in
// memory, the checkpoints that warm seeks capture at the stride multiples
// past its last recorded one (its tail), so each op past the end is warmed
// once per library rather than once per seek. Restore is bit-identical to
// continuous simulation, so every tail checkpoint equals the one a longer
// recording holds. The tail is never saved.
package checkpoint

import (
	"fmt"
	"sort"
	"sync"

	"pgss/internal/branch"
	"pgss/internal/cache"
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
)

// Checkpoint is one captured simulator state.
type Checkpoint struct {
	// Ops is the retired-op position the state corresponds to.
	Ops uint64

	Machine cpu.MachineState
	Timing  cpu.TimingState
	L1I     cache.State
	L1D     cache.State
	L2      cache.State
	Branch  branch.State
	// MemAccesses is the hierarchy's memory-access counter.
	MemAccesses uint64
}

// Capture snapshots a core.
func Capture(c *cpu.Core) *Checkpoint {
	return &Checkpoint{
		Ops:         c.M.Retired(),
		Machine:     c.M.Snapshot(),
		Timing:      c.T.Snapshot(),
		L1I:         c.Hier.L1I.Snapshot(),
		L1D:         c.Hier.L1D.Snapshot(),
		L2:          c.Hier.L2.Snapshot(),
		Branch:      c.BP.Snapshot(),
		MemAccesses: c.Hier.MemAccesses,
	}
}

// Restore reinstates the checkpoint into a core built for the same program
// and configuration.
func (ck *Checkpoint) Restore(c *cpu.Core) error {
	if err := c.M.Restore(ck.Machine); err != nil {
		return err
	}
	c.T.Restore(ck.Timing)
	if err := c.Hier.L1I.Restore(ck.L1I); err != nil {
		return err
	}
	if err := c.Hier.L1D.Restore(ck.L1D); err != nil {
		return err
	}
	if err := c.Hier.L2.Restore(ck.L2); err != nil {
		return err
	}
	if err := c.BP.Restore(ck.Branch); err != nil {
		return err
	}
	c.Hier.MemAccesses = ck.MemAccesses
	return nil
}

// Library holds checkpoints of one program run, ordered by op position.
type Library struct {
	checkpoints []*Checkpoint
	strideOps   uint64

	// mu guards tail: the checkpoints warm seeks captured at the stride
	// multiples past the last recorded checkpoint, sorted and gap-free. A
	// run's shards and sample workers, and a campaign's jobs, seek one
	// library concurrently.
	mu   sync.Mutex
	tail []*Checkpoint
}

// Record runs the core in functional-warming mode to completion (or
// maxOps), capturing a checkpoint every strideOps retired ops (plus one at
// op 0). Warming mode keeps caches and predictors live, so every
// checkpoint is a warm starting point — the live-point property.
func Record(c *cpu.Core, strideOps, maxOps uint64) (*Library, error) {
	if strideOps == 0 {
		return nil, pgsserrors.Invalidf("checkpoint: zero stride")
	}
	lib := &Library{strideOps: strideOps}
	lib.checkpoints = append(lib.checkpoints, Capture(c))
	next := strideOps
	// Warm up to the next capture (or maxOps) boundary at a time, so every
	// checkpoint lands exactly on its stride position.
	for !c.M.Halted() {
		chunk := next - c.M.Retired()
		if maxOps > 0 {
			chunk = min(chunk, maxOps-c.M.Retired())
		}
		n := c.Run(chunk, cpu.FunctionalWarming, nil, nil)
		if c.M.Retired() >= next {
			lib.checkpoints = append(lib.checkpoints, Capture(c))
			next += strideOps
		}
		if maxOps > 0 && c.M.Retired() >= maxOps {
			break
		}
		if n < chunk {
			break // halted mid-chunk; the error check below classifies it
		}
	}
	if err := c.M.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: recording halted abnormally: %w", err)
	}
	return lib, nil
}

// Len returns the number of recorded checkpoints, which Save writes; the
// tail's are not counted.
func (l *Library) Len() int { return len(l.checkpoints) }

// StrideOps returns the recording stride.
func (l *Library) StrideOps() uint64 { return l.strideOps }

// Nearest returns the recorded or tail checkpoint with the greatest op
// position ≤ pos.
func (l *Library) Nearest(pos uint64) *Checkpoint {
	cks := l.checkpoints
	if pos > l.last().Ops {
		l.mu.Lock()
		if len(l.tail) > 0 && l.tail[0].Ops <= pos {
			cks = l.tail
		}
		l.mu.Unlock()
	}
	i := sort.Search(len(cks), func(i int) bool {
		return cks[i].Ops > pos
	})
	if i == 0 {
		return cks[0]
	}
	return cks[i-1]
}

// last returns the last recorded checkpoint.
func (l *Library) last() *Checkpoint { return l.checkpoints[len(l.checkpoints)-1] }

// keep appends ck to the tail when it lies past the tail's end. A racing
// seek may have appended the same position first; its checkpoint is
// identical, so ck is dropped.
func (l *Library) keep(ck *Checkpoint) {
	l.mu.Lock()
	defer l.mu.Unlock()
	end := l.last()
	if n := len(l.tail); n > 0 {
		end = l.tail[n-1]
	}
	if ck.Ops > end.Ops {
		l.tail = append(l.tail, ck)
	}
}

// Seek restores the nearest checkpoint at or below pos into the core and
// steps forward to exactly pos in the given mode, returning the number of
// ops stepped (the random-access overhead the paper's §6 calls "the
// overhead of loading checkpoints"). Every mode reaches the same
// architectural state. cpu.FunctionalWarming restores the whole checkpoint
// and keeps the caches and predictors warm, as a detailed sample at pos
// needs; cpu.FastForward restores only the machine and leaves the caches,
// predictor and timing model as the core held them, for callers that use
// only the retire stream from pos on.
//
// From the last recorded checkpoint or a tail one, a warm seek steps one
// stride at a time and keeps a checkpoint in the tail at every stride it
// completes, as Record would have captured with no maxOps; later seeks of
// either mode start from it. A fast-forward seek holds no warm state and
// adds nothing.
func (l *Library) Seek(c *cpu.Core, pos uint64, mode cpu.Mode) (seekOps uint64, err error) {
	ck := l.Nearest(pos)
	if mode == cpu.FastForward {
		err = c.M.Restore(ck.Machine)
	} else {
		err = ck.Restore(c)
	}
	if err != nil {
		return 0, err
	}
	grow := mode == cpu.FunctionalWarming && ck.Ops >= l.last().Ops
	for at := c.M.Retired(); at < pos; at = c.M.Retired() {
		step := pos - at
		if grow {
			step = min(step, l.strideOps)
		}
		n := c.Run(step, mode, nil, nil)
		seekOps += n
		if n < step {
			return seekOps, pgsserrors.Invalidf("checkpoint: program ended at %d before position %d",
				c.M.Retired(), pos)
		}
		if grow && step == l.strideOps {
			l.keep(Capture(c))
		}
	}
	return seekOps, nil
}

// SampleAt seeks to pos with functional warming, runs warmup detailed ops
// unmeasured and sample detailed ops measured, returning the sample IPC
// and the cost split — one random-order live sample, as TurboSMARTS takes
// them. Past the last recorded checkpoint its seek warms from the tail
// and extends it (Seek).
func (l *Library) SampleAt(c *cpu.Core, pos, warmup, sample uint64) (ipc float64, seekOps uint64, err error) {
	seekOps, err = l.Seek(c, pos, cpu.FunctionalWarming)
	if err != nil {
		return 0, seekOps, err
	}
	if c.Run(warmup, cpu.Detailed, nil, nil) < warmup {
		return 0, seekOps, pgsserrors.Invalidf("checkpoint: program ended during warm-up")
	}
	startCycles := c.T.Cycle()
	done := c.Run(sample, cpu.Detailed, nil, nil)
	cycles := c.T.Cycle() - startCycles
	if cycles == 0 || done == 0 {
		return 0, seekOps, pgsserrors.Invalidf("checkpoint: empty sample at %d", pos)
	}
	return float64(done) / float64(cycles), seekOps, nil
}
