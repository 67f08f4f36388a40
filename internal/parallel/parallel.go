// Package parallel executes one PGSS-Sim run with shard-parallel
// fast-forwarding and a worker pool for detailed samples, producing results
// bit-identical to the serial controller.
//
// The engine splits the run into two stages:
//
//  1. Window precomputation. The instruction stream is cut into
//     checkpoint-anchored shards of consecutive fast-forward windows; each
//     shard computes its windows' BBVs concurrently. For a recorded profile
//     this sums the stored raw vectors; for a live simulator it restores the
//     nearest checkpoint and fast-forwards architecture-only, warming no
//     cache or predictor, since BBVs need only the retire stream and the
//     shard's core is discarded (bit-identical restore makes the per-window
//     retire streams — and hence the BBVs — independent of the shard
//     layout).
//
//  2. Decision walk. A single goroutine drives the shared core.Controller
//     over the windows in program order; this is what makes the result
//     deterministic. Detailed samples the controller schedules are dispatched
//     to a pool of sample workers and settle lazily: the controller waits for
//     a sample's measurement only at the first decision that depends on it,
//     so sample execution overlaps the decision walk and other samples. A
//     live sample restores a warmed checkpoint and warm-forwards to its
//     position, so it runs against warm caches and predictors.
//
// Because the controller is the same object the serial loop drives, and
// because it settles pending samples in execution order before every
// decision that reads them, a parallel run returns exactly the
// sampling.Result and core.Stats of core.RunContext on the same source —
// verified by tests, not just asserted.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pgss/internal/core"
	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
	"pgss/internal/sampling"
)

// Options sets the engine's concurrency. Both count fields default to
// GOMAXPROCS when zero or negative; Shards=1 with SampleWorkers=1
// reproduces the serial schedule on a single extra goroutine.
type Options struct {
	// Shards is the number of concurrent fast-forward shards computing
	// window BBVs.
	Shards int
	// SampleWorkers is the number of concurrent detailed-sample executors.
	SampleWorkers int

	// Hooks, when non-nil, fires injected failures at the parallel.shard
	// and parallel.sample points (chaos testing). Neither hooks nor the
	// watchdog can change the result of a run that completes: they act only
	// on error paths, preserving the bit-identical-to-serial guarantee.
	Hooks *faultinject.Hooks
	// StallTimeout arms a watchdog that cancels the run with a retryable
	// ErrWorkerStalled when no shard, sample worker or decision-walk step
	// reports progress for this long (0 = no watchdog). Requires Clock.
	StallTimeout time.Duration
	// Clock drives the watchdog (nil disables it; campaign.WallClock() for
	// production, faultinject.NewManualClock for deterministic tests).
	Clock faultinject.Clock
}

func (o Options) normalized() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.SampleWorkers <= 0 {
		o.SampleWorkers = runtime.GOMAXPROCS(0)
	}
	return o
}

// numWindows returns how many fast-forward windows cover total ops.
func numWindows(total, ffOps uint64) int {
	return int((total + ffOps - 1) / ffOps)
}

// Run executes one PGSS run over src with the given configuration and
// concurrency. Cancellation, partial results and error classes match
// core.RunContext.
func Run(ctx context.Context, src Source, cfg core.Config, opts Options) (sampling.Result, core.Stats, error) {
	opts = opts.normalized()
	ctl, err := core.NewController(cfg, src.Benchmark(), src.TrueIPC())
	if err != nil {
		return sampling.Result{}, core.Stats{}, err
	}
	total := src.TotalOps()
	n := numWindows(total, cfg.FFOps)
	if n == 0 {
		return ctl.Finish()
	}

	// The watchdog (inactive unless StallTimeout and Clock are set) watches
	// all three progress sources: shard completions, sample completions and
	// decision-walk steps.
	ctx, pulse, stopWatchdog := watchdog(ctx, opts.StallTimeout, opts.Clock)
	defer stopWatchdog()

	// Stage 1: shard-parallel window precomputation.
	wins := make([]Window, n)
	if err := precompute(ctx, src, cfg.FFOps, wins, opts, pulse); err != nil {
		res, st := ctl.Partial()
		if stalled := stallCause(ctx); stalled != nil {
			return res, st, fmt.Errorf("pgss: %s after %d windows: %w", res.Benchmark, ctl.Windows(), stalled)
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return res, st, cancelErr(res.Benchmark, ctl.Windows(), ctxErr)
		}
		return res, st, err
	}

	// Stage 2: serial decision walk with asynchronous sample execution.
	pool, err := newSamplePool(ctx, src, opts, pulse)
	if err != nil {
		res, st := ctl.Partial()
		return res, st, err
	}
	// The pool drains (and harmlessly resolves) any queued requests on
	// every exit path, so no goroutine is left blocked.
	defer pool.close()

	for i := 0; i < n; i++ {
		pulse()
		if err := ctx.Err(); err != nil {
			res, st := ctl.Partial()
			if stalled := stallCause(ctx); stalled != nil {
				return res, st, fmt.Errorf("pgss: %s after %d windows: %w", res.Benchmark, ctl.Windows(), stalled)
			}
			return res, st, cancelErr(res.Benchmark, ctl.Windows(), err)
		}
		posAfter := uint64(i+1) * cfg.FFOps
		if posAfter > total {
			posAfter = total
		}
		req, err := ctl.Advance(wins[i].BBV, wins[i].MAV, wins[i].Ops, posAfter)
		if err != nil {
			res, st := ctl.Partial()
			if stalled := stallCause(ctx); stalled != nil {
				// A stalled sample worker surfaces here as a failed sample;
				// report the watchdog's classified cause so the campaign
				// layer retries.
				return res, st, fmt.Errorf("pgss: %s after %d windows: %w (%v)",
					res.Benchmark, ctl.Windows(), stalled, err)
			}
			return res, st, err
		}
		if req == nil {
			continue
		}
		switch {
		case i+1 >= n:
			// The program ends before the sample's window begins; the
			// serial loop never executes this trailing request either
			// (Finish drops it unadopted).
		case req.Warm+req.Sample > wins[i+1].Ops:
			// The sample does not fit in the (short, final) next window:
			// nothing is measured, the ops stay functional — serial
			// semantics for an unexecutable sample.
			req.Resolve(math.NaN(), 0, 0)
		default:
			pool.submit(req)
		}
	}
	return ctl.Finish()
}

func cancelErr(benchmark string, windows int, err error) error {
	return fmt.Errorf("pgss: %s cancelled after %d windows: %w (%w)",
		benchmark, windows, pgsserrors.ErrBudgetExceeded, err)
}

// precompute fills wins with the run's windows, splitting the work into up
// to opts.Shards contiguous ranges computed concurrently. A panic inside a
// shard is recovered into that shard's error slot, so one poisoned shard
// fails the run instead of the process.
func precompute(ctx context.Context, src Source, ffOps uint64, wins []Window, opts Options, pulse func()) error {
	n := len(wins)
	shards := opts.Shards
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		if err := opts.Hooks.Fire(ctx, faultinject.PointParallelShard); err != nil {
			return err
		}
		return src.Windows(ctx, ffOps, 0, wins)
	}
	per := (n + shards - 1) / shards
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo := s * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[s] = fmt.Errorf("%w: shard %d: %v\n%s",
						pgsserrors.ErrRunPanicked, s, r, debug.Stack())
				}
			}()
			if err := opts.Hooks.Fire(ctx, faultinject.PointParallelShard); err != nil {
				errs[s] = err
				return
			}
			errs[s] = src.Windows(ctx, ffOps, lo, wins[lo:hi])
			pulse()
		}(s, lo, hi)
	}
	wg.Wait()
	// Prefer the most informative error: a stall or panic explains why the
	// sibling shards saw their context die.
	var first error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if errors.Is(e, pgsserrors.ErrWorkerStalled) || errors.Is(e, pgsserrors.ErrRunPanicked) {
			return e
		}
		if first == nil {
			first = e
		}
	}
	return first
}

// samplePool executes detailed samples on a fixed set of workers, each
// owning one Sampler (and therefore, for live sources, one simulator core).
type samplePool struct {
	jobs chan *core.SampleRequest
	wg   sync.WaitGroup
}

func newSamplePool(ctx context.Context, src Source, opts Options, pulse func()) (*samplePool, error) {
	workers := opts.SampleWorkers
	if workers < 1 {
		workers = 1
	}
	p := &samplePool{jobs: make(chan *core.SampleRequest, workers)}
	for w := 0; w < workers; w++ {
		s, err := src.NewSampler()
		if err != nil {
			p.close()
			return nil, err
		}
		p.wg.Add(1)
		go func(s Sampler) {
			defer p.wg.Done()
			for req := range p.jobs {
				runSample(ctx, s, req, opts.Hooks)
				pulse()
			}
		}(s)
	}
	return p, nil
}

// runSample executes one detailed sample with panic recovery: a panicking
// sampler fails its request (so the decision walk unblocks with a
// classified error) and the worker survives to drain the queue.
func runSample(ctx context.Context, s Sampler, req *core.SampleRequest, hooks *faultinject.Hooks) {
	defer func() {
		if r := recover(); r != nil {
			req.Fail(fmt.Errorf("%w: sample at op %d: %v\n%s",
				pgsserrors.ErrRunPanicked, req.Pos, r, debug.Stack()))
		}
	}()
	if err := hooks.Fire(ctx, faultinject.PointParallelSample); err != nil {
		req.Fail(err)
		return
	}
	ipc, err := s.Sample(req.Pos, req.Warm, req.Sample)
	switch {
	case err != nil:
		req.Fail(err)
	case ipc > 0:
		req.Resolve(ipc, req.Warm, req.Sample)
	default:
		// Unmeasurable window (zero recorded cycles): charge nothing,
		// record nothing — serial semantics.
		req.Resolve(math.NaN(), 0, 0)
	}
}

func (p *samplePool) submit(req *core.SampleRequest) { p.jobs <- req }

// close stops accepting work, lets the workers drain the queue (resolving
// every queued request) and waits for them to exit.
func (p *samplePool) close() {
	close(p.jobs)
	p.wg.Wait()
}
