// Package chaos is the fault-injection harness for the campaign and
// parallel layers: it runs small but real PGSS campaigns under seeded
// fault schedules (torn journal writes, dropped fsyncs, ENOSPC, worker
// panics, stalls, cancellation, power loss) and asserts the two robustness
// guarantees the engines advertise:
//
//  1. Graceful degradation — no injected fault crashes the process or
//     wedges the campaign; every failure surfaces as a classified outcome.
//  2. Crash-consistent resume — however many times a campaign is killed
//     and restarted (including with simulated power loss between lives),
//     the final per-spec Results are bit-identical to an uninterrupted
//     run.
//
// Determinism: fault schedules are derived from a scenario seed via
// seeded PRNGs only, and every fault rule is one-shot, so a scenario
// converges — the attempt and life budgets below are sized so the spent
// schedule can no longer block completion. Goroutine scheduling still
// varies *which* operation a count-based rule lands on across runs, so a
// scenario asserts invariants (completion, equality) rather than exact
// fault placement.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"pgss/internal/bbv"
	"pgss/internal/campaign"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/parallel"
	"pgss/internal/profile"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

// Scenario is one seeded chaos experiment.
type Scenario struct {
	Name string
	Seed int64
	// FSFaults and HookFaults are how many filesystem and hook rules the
	// schedule draws.
	FSFaults   int
	HookFaults int
	// PowerLoss drops unsynced data (MemFS.Crash) between campaign lives.
	PowerLoss bool
	// FSRules and HookRules, when set, replace the seed-drawn schedules
	// (and the corresponding counts) with explicit ones — used by soak
	// tests that target specific fault shapes like worker kills and stalls.
	FSRules   []faultinject.Rule
	HookRules []faultinject.HookRule
}

// fsRules returns the scenario's effective filesystem schedule.
func (sc Scenario) fsRules() []faultinject.Rule {
	if sc.FSRules != nil {
		return sc.FSRules
	}
	return faultinject.RandomSchedule(sc.Seed, sc.FSFaults, "")
}

// hookRules returns the scenario's effective hook schedule.
func (sc Scenario) hookRules() []faultinject.HookRule {
	if sc.HookRules != nil {
		return sc.HookRules
	}
	return faultinject.RandomHookSchedule(sc.Seed+1, sc.HookFaults)
}

// GenScenario derives a scenario deterministically from seed.
func GenScenario(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	return Scenario{
		Name:       fmt.Sprintf("seeded-%d", seed),
		Seed:       seed,
		FSFaults:   1 + rng.Intn(4),
		HookFaults: 1 + rng.Intn(4),
		PowerLoss:  rng.Intn(2) == 0,
	}
}

// Outcome reports what a scenario did.
type Outcome struct {
	Scenario    Scenario
	Lives       int // campaign executions until completion
	FaultsFired int // FS + hook rules that actually fired
	Degraded    bool
	FaultLog    []string
}

func (o Outcome) String() string {
	return fmt.Sprintf("%s: %d lives, %d faults fired, degraded=%v",
		o.Scenario.Name, o.Lives, o.FaultsFired, o.Degraded)
}

// Harness owns the workload fixtures a scenario runs against: recorded
// profiles for a pair of benchmarks, executed by the parallel engine with
// a serial fallback behind a circuit breaker.
type Harness struct {
	profiles map[string]*profile.Profile
	specs    []campaign.Spec
	cfg      core.Config
	logf     func(format string, args ...any)
}

const journalPath = "chaos/campaign.jsonl"

var (
	fixtureOnce sync.Once
	fixtures    map[string]*profile.Profile
	fixtureErr  error
)

// fixtureOps is the fixture benchmark length shared by the campaign and
// store scenarios.
const fixtureOps = 400_000

// fixtureCore builds a fresh detailed core over a fixture benchmark.
func fixtureCore(name string) (*cpu.Core, error) {
	spec, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	prog, err := spec.Build(fixtureOps)
	if err != nil {
		return nil, err
	}
	return cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
}

// fixtureProfiles records the benchmark profiles once per process (they
// are immutable and every scenario shares them).
func fixtureProfiles() (map[string]*profile.Profile, error) {
	fixtureOnce.Do(func() {
		fixtures = map[string]*profile.Profile{}
		for _, name := range []string{"197.parser", "177.mesa"} {
			c, err := fixtureCore(name)
			if err != nil {
				fixtureErr = err
				return
			}
			p, err := profile.RecordContext(context.Background(), c, bbv.MustNewHash(5, 42), profile.DefaultConfig())
			if err != nil {
				fixtureErr = err
				return
			}
			fixtures[name] = p
		}
	})
	return fixtures, fixtureErr
}

// NewHarness records the benchmark profiles (cached across harnesses —
// they are immutable) and fixes the campaign grid. logf may be nil.
func NewHarness(logf func(format string, args ...any)) (*Harness, error) {
	profiles, err := fixtureProfiles()
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(10)
	cfg.FFOps = 50_000
	cfg.SpreadOps = 50_000
	return &Harness{
		profiles: profiles,
		specs: campaign.Grid(
			[]string{"197.parser", "177.mesa"}, []string{"pgss-parallel"}, []int64{1, 2}),
		cfg:  cfg,
		logf: logf,
	}, nil
}

// runFunc builds the campaign RunFunc for one scenario life: the parallel
// engine (wired to the scenario's hooks and a stall watchdog) behind a
// circuit breaker that degrades to the serial controller, which produces
// bit-identical results.
func (h *Harness) runFunc(hooks *faultinject.Hooks, breaker *campaign.Breaker) campaign.RunFunc {
	parallelFn := func(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
		p, ok := h.profiles[sp.Benchmark]
		if !ok {
			return sampling.Result{}, fmt.Errorf("chaos: unknown benchmark %q", sp.Benchmark)
		}
		res, _, err := parallel.Run(ctx, parallel.NewProfileSource(p), h.cfg, parallel.Options{
			Shards:        4,
			SampleWorkers: 4,
			Hooks:         hooks,
			StallTimeout:  50 * time.Millisecond,
			Clock:         campaign.WallClock(),
		})
		return res, err
	}
	serialFn := func(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
		p, ok := h.profiles[sp.Benchmark]
		if !ok {
			return sampling.Result{}, fmt.Errorf("chaos: unknown benchmark %q", sp.Benchmark)
		}
		res, _, err := core.RunContext(ctx, sampling.NewProfileTarget(p), h.cfg)
		return res, err
	}
	return breaker.Degrade(parallelFn, serialFn, h.logf)
}

// Baseline runs the campaign with no faults and returns its per-key
// Results — the reference every chaotic run must reproduce exactly.
func (h *Harness) Baseline() (map[string]sampling.Result, error) {
	rep, err := campaign.Run(context.Background(), h.specs,
		h.runFunc(nil, &campaign.Breaker{}), campaign.Options{
			Jobs:        2,
			JournalPath: journalPath,
			FS:          faultinject.NewMemFS(),
			Logf:        h.logf,
		})
	if err != nil {
		return nil, err
	}
	if err := rep.FirstError(); err != nil {
		return nil, fmt.Errorf("chaos: baseline failed: %w", err)
	}
	out := map[string]sampling.Result{}
	for _, o := range rep.Outcomes {
		out[o.Spec.Key()] = o.Result
	}
	return out, nil
}

// Run executes one scenario: a campaign is started, killed by faults,
// power-cycled (when the scenario says so) and resumed until it completes,
// then the final Results are compared bit-for-bit against baseline. The
// returned error is the assertion failure, nil on success.
func (h *Harness) Run(sc Scenario, baseline map[string]sampling.Result) (Outcome, error) {
	out := Outcome{Scenario: sc}

	mem := faultinject.NewMemFS()
	// The injector and hooks persist across lives: the "disk" keeps its
	// state through a process death, and one-shot rules stay spent.
	fsRules, hookRules := sc.fsRules(), sc.hookRules()
	inj := faultinject.NewInjector(mem, fsRules...)
	hooks := faultinject.NewHooks(hookRules...)
	breaker := &campaign.Breaker{}
	fn := h.runFunc(hooks, breaker)

	// Budgets sized so a fully spent schedule cannot block completion:
	// every rule fires at most once, so after totalFaults retries/lives
	// plus slack the campaign must converge.
	totalFaults := len(fsRules) + len(hookRules)
	maxLives := totalFaults + 2
	opts := campaign.Options{
		Jobs:        2,
		Timeout:     2 * time.Second, // releases injected campaign-level stalls
		MaxAttempts: totalFaults + 2,
		Backoff:     time.Millisecond,
		JournalPath: journalPath,
		Resume:      true,
		FS:          inj,
		Hooks:       hooks,
		Logf:        h.logf,
	}

	var final *campaign.Report
	for life := 0; life < maxLives; life++ {
		out.Lives++
		ctx, cancel := context.WithCancel(context.Background())
		hooks.SetCancel(cancel)
		rep, err := campaign.Run(ctx, h.specs, fn, opts)
		cancel()
		if err != nil {
			// Campaign-level failure (e.g. injected fault on the journal
			// open): the process would die here; power-cycle and restart.
			h.log("chaos: %s life %d died: %v\n", sc.Name, life, err)
			if sc.PowerLoss {
				mem.Crash()
			}
			continue
		}
		if rep.Completed == len(h.specs) {
			final = rep
			break
		}
		h.log("chaos: %s life %d incomplete: %s\n", sc.Name, life, rep.Summary())
		if sc.PowerLoss {
			mem.Crash()
		}
	}
	out.FaultsFired = inj.Fired() + hooks.Fired()
	out.FaultLog = append(inj.Log(), hooks.Log()...)
	out.Degraded = breaker.Open()
	if final == nil {
		return out, fmt.Errorf("chaos: %s did not complete within %d lives (faults: %v)",
			sc.Name, maxLives, out.FaultLog)
	}

	// The crash-consistency assertion: every final Result — whether
	// computed this life or replayed from the journal of an earlier one —
	// must equal the uninterrupted run's bit for bit.
	for _, o := range final.Outcomes {
		want, ok := baseline[o.Spec.Key()]
		if !ok {
			return out, fmt.Errorf("chaos: %s: no baseline for %s", sc.Name, o.Spec)
		}
		if !reflect.DeepEqual(o.Result, want) {
			return out, fmt.Errorf("chaos: %s: %s diverged after faults %v:\n got %+v\nwant %+v",
				sc.Name, o.Spec, out.FaultLog, o.Result, want)
		}
	}
	return out, nil
}

func (h *Harness) log(format string, args ...any) {
	if h.logf != nil {
		h.logf(format, args...)
	}
}
