package parallel

import (
	"context"
	"fmt"
	"sync"

	"pgss/internal/bbv"
	"pgss/internal/checkpoint"
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
	"pgss/internal/program"
)

// Window is one fast-forward window's signature, as a shard computed it.
type Window struct {
	// Ops covered by the window (the final window may be short).
	Ops uint64
	// BBV is the normalised basic-block vector of the window.
	BBV bbv.Vector
	// MAV is the normalised memory-access vector of the window; nil when
	// the source has no MAV channel.
	MAV bbv.Vector
}

// Source is a benchmark execution the parallel engine can shard: window
// BBVs must be computable for any contiguous range independently, and
// detailed samples must be executable at any op position.
type Source interface {
	// Benchmark returns the workload name.
	Benchmark() string
	// TotalOps returns the full run length.
	TotalOps() uint64
	// TrueIPC returns the whole-program IPC for error reporting.
	TrueIPC() float64
	// Windows computes the windows with indices [first, first+len(out)) at
	// fast-forward granularity ffOps, filling out. The engine calls it once
	// per chunk of a few windows, concurrently over disjoint ranges, and
	// never reuses out.
	Windows(ctx context.Context, ffOps uint64, first int, out []Window) error
	// NewSampler returns a detailed-sample executor owned by a single
	// worker goroutine.
	NewSampler() (Sampler, error)
}

// Sampler executes one detailed sample: warm unmeasured detailed ops
// followed by sample measured ops starting at op position pos, returning
// the measured IPC. An IPC ≤ 0 marks the sample unmeasurable (nothing is
// recorded); an error aborts the run.
type Sampler interface {
	Sample(pos, warm, sample uint64) (float64, error)
}

// ProfileSource replays a recorded profile. Replayed parallel runs are
// bit-identical to serial core.RunContext over sampling.NewProfileTarget of
// the same profile: windows sum the same recorded raw BBVs and samples read
// the same recorded cycle counts.
type ProfileSource struct {
	p *profile.Profile
}

// NewProfileSource wraps p.
func NewProfileSource(p *profile.Profile) *ProfileSource { return &ProfileSource{p: p} }

// Benchmark implements Source.
func (s *ProfileSource) Benchmark() string { return s.p.Benchmark }

// TotalOps implements Source.
func (s *ProfileSource) TotalOps() uint64 { return s.p.TotalOps }

// TrueIPC implements Source.
func (s *ProfileSource) TrueIPC() float64 { return s.p.TrueIPC() }

// Windows implements Source.
func (s *ProfileSource) Windows(ctx context.Context, ffOps uint64, first int, out []Window) error {
	pos := uint64(first) * ffOps
	for i := range out {
		if err := ctx.Err(); err != nil {
			return err
		}
		raw, err := s.p.BBVWindow(pos, ffOps)
		if err != nil {
			return err
		}
		if raw == nil {
			return pgsserrors.Invalidf(
				"parallel: %s: window %d starts at %d, past the %d-op profile",
				s.p.Benchmark, first+i, pos, s.p.TotalOps)
		}
		out[i].BBV = raw.Normalize()
		if s.p.HasMAV() {
			rawMAV, err := s.p.MAVWindow(pos, ffOps)
			if err != nil {
				return err
			}
			out[i].MAV = rawMAV.Normalize()
		}
		out[i].Ops = ffOps
		if remaining := s.p.TotalOps - pos; remaining < ffOps {
			out[i].Ops = remaining
		}
		pos += ffOps
	}
	return nil
}

// NewSampler implements Source. The profile's cycle prefix sums are built
// once under a sync.Once, so concurrent samplers share the profile safely.
func (s *ProfileSource) NewSampler() (Sampler, error) {
	return profileSampler{p: s.p}, nil
}

type profileSampler struct {
	p *profile.Profile
}

func (s profileSampler) Sample(pos, warm, sample uint64) (float64, error) {
	return s.p.IPCWindow(pos+warm, sample)
}

// LiveSource drives cycle-level simulators through a checkpoint library:
// every shard chunk and every detailed sample restores a core of the
// source's program (a copy of its data image and its own caches and
// predictors) from the nearest checkpoint. Each sample worker owns a core,
// and shard cores wait on an idle list between chunks. Shards only need
// the retire stream, so they seek and step architecture-only
// (cpu.FastForward): the seek restores only the checkpoint's machine, and
// the shard core's caches and predictors stay as they were, unread; every
// detailed sample instead restores a whole warmed checkpoint and
// warm-forwards to its position, which takes no steps when the library's
// stride divides the FF period (the suite's libraries checkpoint every
// period) and the position is at or below its last checkpoint.
// Restoring is bit-identical to continuous simulation, and window BBVs
// drop the tracker's pending ops at every boundary, so the windows — and
// therefore the whole run — are invariant to the shard layout: the engine
// returns identical results for any Shards/SampleWorkers setting.
//
// The engine with Shards=1 is the reference for the engine with Shards=N.
// Replay of the program's profile carries pending ops across windows and
// reads perfectly warmed samples, yet PGSS over both is DeepEqual on every
// suite program at 2M ops (TestLiveMatchesReplay), and on 153 of the 198
// PGSS cases pgss-validate generates from seeds 1–400. In the others the
// estimates were at most 0.30% apart, and the samples made the gap.
type LiveSource struct {
	lib     *checkpoint.Library
	hash    *bbv.Hash
	mavHash *bbv.Hash // nil = MAV channel off
	prog    *program.Program
	cc      cpu.CoreConfig
	total   uint64
	trueIPC float64

	mu    sync.Mutex
	cores []*cpu.Core // idle shard cores
}

// NewLiveSource builds a live source over a checkpoint library recorded
// from prog on the processor cc; every shard and sample worker runs its own
// core of that program and configuration. hash selects the BBV buckets;
// mavHash (from bbv.NewMAVHash) turns on the memory-access-vector channel,
// so Windows fills Window.MAV, and nil leaves it off. MAV accumulation has
// no pending state, so those vectors are shard-layout-invariant by
// construction. totalOps is the recorded program length and trueIPC the
// reference IPC (0 when unknown). A malformed program is rejected here,
// before any shard starts.
func NewLiveSource(lib *checkpoint.Library, hash, mavHash *bbv.Hash, prog *program.Program, cc cpu.CoreConfig, totalOps uint64, trueIPC float64) (*LiveSource, error) {
	if lib == nil || lib.Len() == 0 {
		return nil, pgsserrors.Invalidf("parallel: empty checkpoint library")
	}
	if totalOps == 0 {
		return nil, pgsserrors.Invalidf("parallel: zero totalOps for live source")
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("parallel: live source: %w", err)
	}
	return &LiveSource{
		lib:     lib,
		hash:    hash,
		mavHash: mavHash,
		prog:    prog,
		cc:      cc,
		total:   totalOps,
		trueIPC: trueIPC,
	}, nil
}

// newCore builds a fresh core running the source's program.
func (s *LiveSource) newCore() (*cpu.Core, error) {
	m, err := cpu.NewMachine(s.prog)
	if err != nil {
		return nil, err
	}
	return cpu.NewCore(m, s.cc)
}

// Benchmark implements Source.
func (s *LiveSource) Benchmark() string { return s.prog.Name }

// TotalOps implements Source.
func (s *LiveSource) TotalOps() uint64 { return s.total }

// TrueIPC implements Source.
func (s *LiveSource) TrueIPC() float64 { return s.trueIPC }

// Windows implements Source for one chunk. An idle shard core (or a new
// one) seeks to the chunk's start — a restore of the checkpoint's machine,
// which replaces the core's architectural state, then fast-forward — and
// fast-forwards through the chunk's windows with the BBV and MAV trackers
// attached. Both vectors depend only on the architectural retire stream,
// so no cache or predictor is restored or warmed, and the core steps
// through the interpreter's record-free loop. The core goes back on the
// idle list when the chunk is done; a call that fails or panics drops it.
func (s *LiveSource) Windows(ctx context.Context, ffOps uint64, first int, out []Window) error {
	c, err := s.shardCore()
	if err != nil {
		return fmt.Errorf("parallel: shard core: %w", err)
	}
	start := uint64(first) * ffOps
	if _, err := s.lib.Seek(c, start, cpu.FastForward); err != nil {
		return fmt.Errorf("parallel: shard at window %d: %w", first, err)
	}
	tracker := bbv.NewTracker(s.hash)
	var mavt *bbv.MAVTracker
	if s.mavHash != nil {
		mavt = bbv.NewMAVTracker(s.mavHash)
	}
	pos := start
	for i := range out {
		if err := ctx.Err(); err != nil {
			return err
		}
		want := min(ffOps, s.total-pos)
		done := c.Run(want, cpu.FastForward, tracker, mavt)
		if err := c.M.Err(); err != nil {
			return fmt.Errorf("parallel: %s halted abnormally in window %d: %w", s.prog.Name, first+i, err)
		}
		if done < want {
			return pgsserrors.Invalidf(
				"parallel: %s ended at %d ops inside window %d, library declares %d",
				s.prog.Name, pos+done, first+i, s.total)
		}
		out[i].Ops = done
		out[i].BBV = tracker.TakeVector()
		if mavt != nil {
			out[i].MAV = mavt.TakeVector()
		}
		// Self-contained windows: ops retired since the last taken branch
		// do not leak into the next window, whichever shard computes it.
		tracker.DropPending()
		pos += done
	}
	s.mu.Lock()
	s.cores = append(s.cores, c)
	s.mu.Unlock()
	return nil
}

// shardCore takes an idle shard core, or builds one when none is idle.
func (s *LiveSource) shardCore() (*cpu.Core, error) {
	s.mu.Lock()
	k := len(s.cores)
	if k == 0 {
		s.mu.Unlock()
		return s.newCore()
	}
	c := s.cores[k-1]
	s.cores = s.cores[:k-1]
	s.mu.Unlock()
	return c, nil
}

// NewSampler implements Source: each worker owns a core it repeatedly
// restores from the library (TurboSMARTS-style random-access live samples).
func (s *LiveSource) NewSampler() (Sampler, error) {
	c, err := s.newCore()
	if err != nil {
		return nil, fmt.Errorf("parallel: sampler core: %w", err)
	}
	return &liveSampler{lib: s.lib, core: c}, nil
}

type liveSampler struct {
	lib  *checkpoint.Library
	core *cpu.Core
}

func (s *liveSampler) Sample(pos, warm, sample uint64) (float64, error) {
	ipc, _, err := s.lib.SampleAt(s.core, pos, warm, sample)
	return ipc, err
}
