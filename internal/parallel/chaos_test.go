package parallel

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
)

// TestShardPanicRecovered: a panic inside one shard goroutine must become a
// classified ErrRunPanicked on the run, not a process crash.
func TestShardPanicRecovered(t *testing.T) {
	p := suiteProfile(t, "197.parser", 400_000)
	hooks := faultinject.NewHooks(faultinject.HookRule{
		Point: faultinject.PointParallelShard, Action: faultinject.HookPanic, Nth: 2,
	})
	_, _, err := Run(context.Background(), NewProfileSource(p), testConfig(),
		Options{Shards: 4, SampleWorkers: 2, Hooks: hooks})
	if !errors.Is(err, pgsserrors.ErrRunPanicked) {
		t.Fatalf("got %v, want ErrRunPanicked", err)
	}
	if hooks.Fired() != 1 {
		t.Fatalf("hook fired %d times, want 1", hooks.Fired())
	}
}

// TestShardHookFiresOncePerWorker: the shard hook fires once per shard
// worker, before its first chunk, however many chunks each worker then
// computes and whether or not another worker has failed. The chaos
// harness's hook schedules count on exactly Shards crossings per run.
func TestShardHookFiresOncePerWorker(t *testing.T) {
	p := suiteProfile(t, "164.gzip", 5_000_000)
	cfg := testConfig()
	cfg.FFOps = 10_000 // 500 windows: 63 chunks over 4 workers
	cfg.SpreadOps = 10_000
	for _, c := range []struct {
		name  string
		nth   []int
		fired int
	}{
		{"4th", []int{4}, 1},
		{"5th", []int{5}, 0},
		{"1st and 4th", []int{1, 4}, 2},
	} {
		var rules []faultinject.HookRule
		for _, nth := range c.nth {
			rules = append(rules, faultinject.HookRule{
				Point: faultinject.PointParallelShard, Action: faultinject.HookError, Nth: nth,
			})
		}
		hooks := faultinject.NewHooks(rules...)
		_, _, err := Run(context.Background(), NewProfileSource(p), cfg,
			Options{Shards: 4, SampleWorkers: 2, Hooks: hooks})
		if got := hooks.Fired(); got != c.fired {
			t.Errorf("%s: hooks fired %d times, want %d", c.name, got, c.fired)
		}
		if (err != nil) != (c.fired > 0) {
			t.Errorf("%s: run error %v with %d hooks fired", c.name, err, c.fired)
		}
	}
}

// TestSamplePanicRecovered: a panicking sample worker fails its request so
// the decision walk unblocks with ErrRunPanicked, and the pool survives to
// drain remaining requests.
func TestSamplePanicRecovered(t *testing.T) {
	p := suiteProfile(t, "197.parser", 400_000)
	hooks := faultinject.NewHooks(faultinject.HookRule{
		Point: faultinject.PointParallelSample, Action: faultinject.HookPanic, Nth: 1,
	})
	_, _, err := Run(context.Background(), NewProfileSource(p), testConfig(),
		Options{Shards: 2, SampleWorkers: 2, Hooks: hooks})
	if !errors.Is(err, pgsserrors.ErrRunPanicked) {
		t.Fatalf("got %v, want ErrRunPanicked", err)
	}
}

// TestStallWatchdogCancelsStalledShard: an injected shard stall makes no
// progress; the watchdog (on a manual clock) must cancel the run with a
// retryable ErrWorkerStalled instead of hanging.
func TestStallWatchdogCancelsStalledShard(t *testing.T) {
	p := suiteProfile(t, "197.parser", 400_000)
	hooks := faultinject.NewHooks(faultinject.HookRule{
		Point: faultinject.PointParallelShard, Action: faultinject.HookStall, Nth: 1,
	})
	clock := faultinject.NewManualClock(time.Unix(0, 0))
	errc := make(chan error, 1)
	go func() {
		_, _, err := Run(context.Background(), NewProfileSource(p), testConfig(), Options{
			Shards: 4, SampleWorkers: 2,
			Hooks: hooks, StallTimeout: time.Second, Clock: clock,
		})
		errc <- err
	}()

	// Let the healthy shards finish, then expire the stall window. Healthy
	// shard completions pulse the watchdog, so advance repeatedly until the
	// stalled shard is the only thing left and the deadline lapses.
	deadline := time.After(10 * time.Second)
	for {
		clock.Advance(time.Second)
		select {
		case err := <-errc:
			if !errors.Is(err, pgsserrors.ErrWorkerStalled) {
				t.Fatalf("got %v, want ErrWorkerStalled", err)
			}
			if !pgsserrors.Retryable(err) {
				t.Fatal("stall error must be retryable")
			}
			return
		case <-deadline:
			t.Fatal("watchdog never fired")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestHookErrorDoesNotChangeCompletedResult: a transient injected shard
// error fails that run, but a clean rerun with spent hooks returns exactly
// the un-faulted result — hooks touch error paths only.
func TestHookErrorDoesNotChangeCompletedResult(t *testing.T) {
	p := suiteProfile(t, "197.parser", 400_000)
	src := NewProfileSource(p)
	cfg := testConfig()
	opts := Options{Shards: 4, SampleWorkers: 2}

	want, wantSt, err := Run(context.Background(), src, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	hooks := faultinject.NewHooks(faultinject.HookRule{
		Point: faultinject.PointParallelShard, Action: faultinject.HookError, Nth: 1,
	})
	opts.Hooks = hooks
	if _, _, err := Run(context.Background(), src, cfg, opts); err == nil {
		t.Fatal("injected shard error did not fail the run")
	} else if !pgsserrors.Retryable(err) {
		t.Fatalf("injected error not retryable: %v", err)
	}

	got, gotSt, err := Run(context.Background(), src, cfg, opts) // hooks spent
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatal("retry after injected fault diverged from clean run")
	}
}
