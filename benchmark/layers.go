package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"time"

	"pgss/internal/bbv"
	"pgss/internal/checkpoint"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/parallel"
	"pgss/internal/pgsserrors"
	"pgss/internal/phase"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

// buildCore builds a detailed core over spec's program the way the suite
// does for recording and live sampling, timed as the workload layer.
func buildCore(parent *span, spec *workload.Spec, ops uint64) (*cpu.Core, error) {
	s := parent.child("workload.build")
	defer s.end()
	prog, err := spec.Build(ops)
	if err != nil {
		return nil, err
	}
	m, err := cpu.NewMachine(prog)
	if err != nil {
		return nil, err
	}
	return cpu.NewCore(m, cpu.DefaultCoreConfig())
}

// window is one decision window as the controller consumed it, plus the
// detailed sample measured at its start (the one the previous window
// requested): enough to replay the run's decisions without a simulator.
type window struct {
	BBV, MAV   bbv.Vector
	Ops, After uint64
	IPC        float64
	Warm, Samp uint64
}

// timedTarget is sampling.ProfileTarget with each NextWindow call charged
// to the profile layer. When capture is set it also keeps the windows.
type timedTarget struct {
	*sampling.ProfileTarget
	sp      *span
	capture bool
	wins    []window
}

func (t *timedTarget) NextWindow(ops, warm, sample uint64) (sampling.Window, bool) {
	t0 := t.sp.tr.now()
	w, ok := t.ProfileTarget.NextWindow(ops, warm, sample)
	t.sp.leaf("profile.window", t.sp.tr.now()-t0)
	if ok {
		t.sp.count("profile.windows", 1)
		if t.capture {
			t.wins = append(t.wins, window{
				BBV: w.BBV.Clone(), MAV: w.MAV.Clone(), Ops: w.Ops, After: t.Pos(),
				IPC: w.SampleIPC, Warm: w.WarmOps, Samp: w.SampleOps,
			})
		}
	}
	return w, ok
}

// liveSource is a parallel.Source built from the same public calls as
// parallel.LiveSource (checkpoint restore, functional warming, BBV
// tracking, detailed sampling), with each call timed. Results must equal
// LiveSource's exactly; the traced round checks that they do.
type liveSource struct {
	run     *span // parallel.run span of this run
	lib     *checkpoint.Library
	hash    *bbv.Hash
	spec    *workload.Spec
	ops     uint64 // program length the library was recorded at
	name    string
	total   uint64
	trueIPC float64

	mu      sync.Mutex
	shards  [][]parallel.Window // the windows each shard filled, kept for replay
	firsts  []int
	samples map[uint64]float64 // sample IPC by op position
}

func (s *liveSource) Benchmark() string { return s.name }
func (s *liveSource) TotalOps() uint64  { return s.total }
func (s *liveSource) TrueIPC() float64  { return s.trueIPC }

// seek mirrors checkpoint.Library.Seek: restore the nearest checkpoint,
// then warm forward to pos.
func (s *liveSource) seek(sp *span, c *cpu.Core, pos uint64) error {
	rs := sp.child("checkpoint.restore")
	err := s.lib.Nearest(pos).Restore(c)
	rs.end()
	if err != nil {
		return err
	}
	tr := sp.tr
	buf := c.BlockBuf()
	var warm int64
	for c.M.Retired() < pos {
		chunk := pos - c.M.Retired()
		if chunk > uint64(len(buf)) {
			chunk = uint64(len(buf))
		}
		t0 := tr.now()
		n := c.StepWarmBlock(buf[:chunk])
		sp.leaf("cpu.warm", tr.now()-t0)
		warm += int64(n)
		if uint64(n) < chunk {
			return pgsserrors.Invalidf("checkpoint: program ended at %d before position %d",
				c.M.Retired(), pos)
		}
	}
	sp.count("cpu.warm_ops", warm)
	sp.count("checkpoint.seeks", 1)
	sp.count("checkpoint.seek_warm_ops", warm)
	return nil
}

// Windows mirrors parallel.LiveSource.Windows.
func (s *liveSource) Windows(ctx context.Context, ffOps uint64, first int, out []parallel.Window) error {
	sp := s.run.child("bench.shard")
	defer sp.end()
	c, err := buildCore(sp, s.spec, s.ops)
	if err != nil {
		return fmt.Errorf("parallel: core factory: %w", err)
	}
	start := uint64(first) * ffOps
	if err := s.seek(sp, c, start); err != nil {
		return fmt.Errorf("parallel: shard at window %d: %w", first, err)
	}
	tr := sp.tr
	tracker := bbv.NewTracker(s.hash)
	buf := c.BlockBuf()
	pos := start
	var warmNs, bbvNs, ops int64
	for i := range out {
		if err := ctx.Err(); err != nil {
			return err
		}
		want := ffOps
		if remaining := s.total - pos; remaining < want {
			want = remaining
		}
		var done, run uint64
		for done < want && !c.M.Halted() {
			chunk := want - done
			if chunk > uint64(len(buf)) {
				chunk = uint64(len(buf))
			}
			t0 := tr.now()
			n := c.StepWarmBlock(buf[:chunk])
			t1 := tr.now()
			for j := range buf[:n] {
				run++
				if buf[j].Taken {
					tracker.RetireOps(run)
					tracker.TakenBranch(buf[j].Addr)
					run = 0
				}
			}
			t2 := tr.now()
			warmNs += t1 - t0
			bbvNs += t2 - t1
			done += uint64(n)
			if uint64(n) < chunk {
				break
			}
		}
		t0 := tr.now()
		tracker.RetireOps(run)
		if err := c.M.Err(); err != nil {
			return fmt.Errorf("parallel: %s halted abnormally in window %d: %w", s.name, first+i, err)
		}
		if done < want {
			return pgsserrors.Invalidf(
				"parallel: %s ended at %d ops inside window %d, library declares %d",
				s.name, pos+done, first+i, s.total)
		}
		out[i].Ops = done
		out[i].BBV = tracker.TakeVector()
		tracker.DropPending()
		bbvNs += tr.now() - t0
		ops += int64(done)
		pos += done
	}
	sp.leaf("cpu.warm", warmNs)
	sp.leaf("bbv.track", bbvNs)
	sp.count("cpu.warm_ops", ops)
	sp.count("bbv.ops", ops)
	s.mu.Lock()
	s.shards = append(s.shards, out)
	s.firsts = append(s.firsts, first)
	s.mu.Unlock()
	return nil
}

// NewSampler mirrors parallel.LiveSource.NewSampler.
func (s *liveSource) NewSampler() (parallel.Sampler, error) {
	c, err := buildCore(s.run, s.spec, s.ops)
	if err != nil {
		return nil, fmt.Errorf("parallel: core factory: %w", err)
	}
	return &liveSampler{src: s, core: c}, nil
}

type liveSampler struct {
	src  *liveSource
	core *cpu.Core
}

// Sample mirrors checkpoint.Library.SampleAt.
func (ls *liveSampler) Sample(pos, warmup, sample uint64) (float64, error) {
	s, c := ls.src, ls.core
	sp := s.run.child("bench.sample")
	defer sp.end()
	if err := s.seek(sp, c, pos); err != nil {
		return 0, err
	}
	tr := sp.tr
	t0 := tr.now()
	buf := c.BlockBuf()
	var got uint64
	for got < warmup {
		chunk := warmup - got
		if chunk > uint64(len(buf)) {
			chunk = uint64(len(buf))
		}
		n := c.StepDetailedBlock(buf[:chunk])
		got += uint64(n)
		if uint64(n) < chunk {
			sp.leaf("cpu.detailed", tr.now()-t0)
			return 0, pgsserrors.Invalidf("checkpoint: program ended during warm-up")
		}
	}
	startCycles := c.T.Cycle()
	var done uint64
	for done < sample {
		chunk := sample - done
		if chunk > uint64(len(buf)) {
			chunk = uint64(len(buf))
		}
		n := c.StepDetailedBlock(buf[:chunk])
		done += uint64(n)
		if uint64(n) < chunk {
			break
		}
	}
	cycles := c.T.Cycle() - startCycles
	sp.leaf("cpu.detailed", tr.now()-t0)
	sp.count("cpu.detailed_ops", int64(got+done))
	if cycles == 0 || done == 0 {
		return 0, pgsserrors.Invalidf("checkpoint: empty sample at %d", pos)
	}
	ipc := float64(done) / float64(cycles)
	s.mu.Lock()
	s.samples[pos] = ipc
	s.mu.Unlock()
	return ipc, nil
}

// windows returns the run's windows in program order with the sample
// measured at each window's start, resolved as parallel.Run resolves it: a
// sample that did not fit or was never executed reads NaN with no ops.
func (s *liveSource) windows(cfg core.Config) []window {
	ffOps := cfg.FFOps
	idx := make([]int, len(s.firsts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.firsts[idx[a]] < s.firsts[idx[b]] })
	var out []window
	for _, i := range idx {
		for j, w := range s.shards[i] {
			after := min(uint64(s.firsts[i]+j+1)*ffOps, s.total)
			out = append(out, window{BBV: w.BBV, MAV: w.MAV, Ops: w.Ops, After: after, IPC: math.NaN()})
		}
	}
	for i := 1; i < len(out); i++ {
		if ipc, ok := s.samples[out[i-1].After]; ok {
			out[i].IPC, out[i].Warm, out[i].Samp = ipc, cfg.WarmOps, cfg.SampleOps
		}
	}
	return out
}

// decisions is what replaying one run's windows through the controller and
// the phase table measured.
type decisions struct {
	res        sampling.Result
	windows    int
	advanceNs  float64 // controller Advance/Resolve/Finish over the run, median of reps
	classifyNs float64 // phase.Table.Classify over the same windows, median of reps
}

// replayReps repeats each replay pass so the per-window controller and
// classification times are medians, not single sub-millisecond readings.
const replayReps = 15

// replayDecisions drives a fresh controller over wins exactly as
// core.RunContext does (each request resolves with the sample measured at
// the start of the next window), and separately times phase classification
// of the same signatures. A correct replay reproduces the run's result.
func replayDecisions(cfg core.Config, bench string, trueIPC float64, wins []window) (decisions, error) {
	d := decisions{windows: len(wins)}
	adv := make([]float64, 0, replayReps)
	cls := make([]float64, 0, replayReps)
	for rep := 0; rep < replayReps; rep++ {
		t0 := time.Now()
		ctl, err := core.NewController(cfg, bench, trueIPC)
		if err != nil {
			return d, err
		}
		var req *core.SampleRequest
		for _, w := range wins {
			if req != nil {
				req.Resolve(w.IPC, w.Warm, w.Samp)
			}
			if req, err = ctl.Advance(w.BBV, w.MAV, w.Ops, w.After); err != nil {
				return d, err
			}
		}
		res, _, err := ctl.Finish()
		if err != nil {
			return d, err
		}
		adv = append(adv, float64(time.Since(t0).Nanoseconds()))
		d.res = res

		t0 = time.Now()
		table, err := phase.NewTable(cfg.ThresholdPi * math.Pi)
		if err != nil {
			return d, err
		}
		table.CheckCurrentFirst = !cfg.NoCurrentFirst
		table.Manhattan = cfg.Manhattan
		var scratch bbv.Vector
		for i, w := range wins {
			var sig bbv.Vector
			if sig, scratch, err = bbv.Signature(cfg.Channel, w.BBV, w.MAV, scratch); err != nil {
				return d, err
			}
			table.Classify(sig, w.Ops, i)
		}
		cls = append(cls, float64(time.Since(t0).Nanoseconds()))
	}
	d.advanceNs = summarize(adv).Median
	d.classifyNs = summarize(cls).Median
	return d, nil
}

// checkReplay reports a replay whose result differs from the run's.
func checkReplay(d decisions, run sampling.Result) error {
	if !reflect.DeepEqual(d.res, run) {
		return fmt.Errorf("controller replay of %s gives %+v, the run gave %+v", run.Benchmark, d.res, run)
	}
	return nil
}
