// Package parallel executes one PGSS-Sim run with shard-parallel
// fast-forwarding and a worker pool for detailed samples, producing results
// bit-identical to the serial controller.
//
// The engine runs two kinds of work at once:
//
//  1. Shards. The instruction stream is cut into chunks of a few
//     consecutive fast-forward windows, which shard workers compute
//     concurrently, each claiming the next chunk in program order. For a
//     recorded profile this sums the stored raw vectors; for a live
//     simulator it fast-forwards architecture-only, from where the shard's
//     core stands or from the nearest checkpoint, warming no cache or
//     predictor, since BBVs need only the retire stream (bit-identical
//     restore makes the per-window retire streams — and hence the BBVs —
//     independent of the chunks).
//
//  2. Decision walk. A single goroutine drives the shared core.Controller
//     over the windows in program order, starting on each chunk as soon as
//     it is done; this is what makes the result deterministic. Detailed
//     samples the controller schedules are dispatched to a pool of sample
//     workers and settle lazily: the controller waits for a sample's
//     measurement only at the first decision that depends on it, so sample
//     execution overlaps the fast-forward, the decision walk and other
//     samples. A live sample restores a warmed checkpoint and warm-forwards
//     to its position, so it runs against warm caches and predictors.
//
// Because the controller is the same object the serial loop drives, and
// because it settles pending samples in execution order before every
// decision that reads them, a parallel run returns exactly the
// sampling.Result and core.Stats of core.RunContext on the same source —
// verified by tests, not just asserted.
package parallel

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
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
	// window BBVs, one chunk of windows at a time.
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

// chunkWindows is the most windows one Source.Windows call computes. The
// decision walk starts on a chunk as soon as it is done, so a chunk bounds
// how far the walk trails the fast-forward; each chunk pays one seek.
const chunkWindows = 8

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
	// all three progress sources: shard chunks, sample completions and
	// decision-walk steps.
	ctx, pulse, stopWatchdog := watchdog(ctx, opts.StallTimeout, opts.Clock)
	defer stopWatchdog()
	abort := func(err error) (sampling.Result, core.Stats, error) {
		res, st := ctl.Partial()
		if stalled := stallCause(ctx); stalled != nil {
			return res, st, fmt.Errorf("pgss: %s after %d windows: %w", res.Benchmark, ctl.Windows(), stalled)
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return res, st, cancelErr(res.Benchmark, ctl.Windows(), ctxErr)
		}
		return res, st, err
	}

	// Start the shards first, so building the samplers (a core each, for a
	// live source) overlaps the fast-forward.
	wins := make([]Window, n)
	shards := startShards(ctx, src, cfg.FFOps, wins, opts, pulse)
	defer shards.stop()
	pool, err := newSamplePool(ctx, src, opts, pulse)
	if err != nil {
		return abort(err)
	}
	// The pool drains (and harmlessly resolves) any queued requests on
	// every exit path, so no goroutine is left blocked.
	defer pool.close()

	for i := 0; i < n; i++ {
		pulse()
		if err := shards.await(ctx, i); err != nil || ctx.Err() != nil {
			return abort(err)
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
		if i+1 >= n {
			// The program ends before the sample's window begins; the
			// serial loop never executes this trailing request either
			// (Finish drops it unadopted).
			continue
		}
		if err := shards.await(ctx, i+1); err != nil {
			return abort(err)
		}
		if req.Warm+req.Sample > wins[i+1].Ops {
			// The sample does not fit in the (short, final) next window:
			// nothing is measured, the ops stay functional — serial
			// semantics for an unexecutable sample.
			req.Resolve(math.NaN(), 0, 0)
			continue
		}
		pool.submit(req)
	}
	return ctl.Finish()
}

func cancelErr(benchmark string, windows int, err error) error {
	return fmt.Errorf("pgss: %s cancelled after %d windows: %w (%w)",
		benchmark, windows, pgsserrors.ErrBudgetExceeded, err)
}

// shardStream computes a run's windows as an in-order stream of chunks of
// per consecutive windows. Shard worker w computes chunk w and then claims
// the lowest chunk nobody has claimed, so the chunks finish close to
// program order and the decision walk follows right behind them.
type shardStream struct {
	wins   []Window
	per    int
	done   []chan struct{} // done[c] closes once chunk c and errs[c] are written
	errs   []error
	next   atomic.Int64 // the lowest unclaimed chunk
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startShards starts min(opts.Shards, chunks) shard workers over wins. A
// chunk holds at most chunkWindows windows, and fewer on a short run, so
// that the run still spreads over every shard.
func startShards(ctx context.Context, src Source, ffOps uint64, wins []Window, opts Options, pulse func()) *shardStream {
	n := len(wins)
	per := min(chunkWindows, (n+opts.Shards-1)/opts.Shards)
	chunks := (n + per - 1) / per
	s := &shardStream{wins: wins, per: per, done: make([]chan struct{}, chunks), errs: make([]error, chunks)}
	for c := range s.done {
		s.done[c] = make(chan struct{})
	}
	workers := min(opts.Shards, chunks)
	s.next.Store(int64(workers))
	ctx, s.cancel = context.WithCancel(ctx)
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer s.wg.Done()
			for c := w; c < chunks; c = int(s.next.Add(1) - 1) {
				s.errs[c] = s.compute(ctx, src, ffOps, w, c, opts.Hooks)
				close(s.done[c])
				pulse()
				if s.errs[c] != nil {
					return
				}
			}
		}()
	}
	return s
}

// compute fills chunk c on shard worker w. The worker's first chunk, c ==
// w, fires the shard hook first, so the hook fires once per worker. A
// panic is recovered into the chunk's error, so one poisoned shard fails
// the run instead of the process.
func (s *shardStream) compute(ctx context.Context, src Source, ffOps uint64, w, c int, hooks *faultinject.Hooks) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: shard %d: %v\n%s", pgsserrors.ErrRunPanicked, w, r, debug.Stack())
		}
	}()
	if c == w {
		if err := hooks.Fire(ctx, faultinject.PointParallelShard); err != nil {
			return err
		}
	}
	lo := c * s.per
	hi := min(lo+s.per, len(s.wins))
	return src.Windows(ctx, ffOps, lo, s.wins[lo:hi])
}

// await returns once window i is computed, with the error of the chunk
// holding it, or with ctx's error when the run dies first.
func (s *shardStream) await(ctx context.Context, i int) error {
	select {
	case <-s.done[i/s.per]:
		return s.errs[i/s.per]
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stop cancels the chunks still running and waits for every worker, so no
// shard outlives the run.
func (s *shardStream) stop() {
	s.cancel()
	s.wg.Wait()
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
