package parallel

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/cache"
	"pgss/internal/checkpoint"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
	"pgss/internal/program"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

var profileCache = map[string]*profile.Profile{}

func suiteProfile(t *testing.T, name string, ops uint64) *profile.Profile {
	t.Helper()
	key := fmt.Sprintf("%s/%d", name, ops)
	if p, ok := profileCache[key]; ok {
		return p
	}
	spec, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(ops)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.RecordContext(context.Background(), c, bbv.MustNewHash(5, 42), profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	profileCache[key] = p
	return p
}

func testConfig() core.Config {
	cfg := core.DefaultConfig(10)
	cfg.FFOps = 50_000
	cfg.SpreadOps = 50_000
	return cfg
}

// TestProfileParallelMatchesSerial is the tentpole guarantee: the parallel
// engine over a profile returns exactly the Result and Stats of the serial
// controller, including the sample trace, for every concurrency setting
// and for ablation variants that change the decision chain.
func TestProfileParallelMatchesSerial(t *testing.T) {
	p := suiteProfile(t, "188.ammp", 10_000_000)

	configs := map[string]core.Config{
		"default": testConfig(),
		"guarded": func() core.Config {
			c := testConfig()
			c.GuardTransitions = true
			return c
		}(),
		"traced": func() core.Config {
			c := testConfig()
			c.Trace = true
			return c
		}(),
		"nospread": func() core.Config {
			c := testConfig()
			c.DisableSpread = true
			return c
		}(),
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			wantRes, wantSt, err := core.RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, opts := range []Options{
				{Shards: 1, SampleWorkers: 1},
				{Shards: 4, SampleWorkers: 4},
				{Shards: 7, SampleWorkers: 3},
			} {
				res, st, err := Run(context.Background(), NewProfileSource(p), cfg, opts)
				if err != nil {
					t.Fatalf("%+v: %v", opts, err)
				}
				if !reflect.DeepEqual(res, wantRes) {
					t.Errorf("%+v: Result diverged from serial:\n got %+v\nwant %+v", opts, res, wantRes)
				}
				if !reflect.DeepEqual(st, wantSt) {
					t.Errorf("%+v: Stats diverged from serial:\n got %+v\nwant %+v", opts, st, wantSt)
				}
			}
		})
	}
}

// TestParallelDeterministicAcrossRuns: repeated parallel runs are
// bit-identical to each other (no scheduling-dependent drift).
func TestParallelDeterministicAcrossRuns(t *testing.T) {
	p := suiteProfile(t, "164.gzip", 5_000_000)
	cfg := testConfig()
	cfg.Trace = true
	opts := Options{Shards: 4, SampleWorkers: 4}
	res1, st1, err := Run(context.Background(), NewProfileSource(p), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res2, st2, err := Run(context.Background(), NewProfileSource(p), cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res1, res2) || !reflect.DeepEqual(st1, st2) {
			t.Fatalf("run %d diverged: %+v vs %+v", i, res2, res1)
		}
	}
}

// liveSource records a library at the given stride over the named program
// and builds a live source over it; mavHash nil leaves the MAV channel off.
func liveSource(t testing.TB, name string, ops, stride uint64, mavHash *bbv.Hash) *LiveSource {
	t.Helper()
	spec, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(ops)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := checkpoint.Record(rec, stride, 0)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewLiveSource(lib, bbv.MustNewHash(5, 42), mavHash, prog, cpu.DefaultCoreConfig(), rec.M.Retired(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestNewLiveSourceRejects: every malformed input is an invalid-config
// error at construction, before any shard starts.
func TestNewLiveSourceRejects(t *testing.T) {
	src := liveSource(t, "197.parser", 100_000, 50_000, nil)
	cases := []struct {
		name     string
		lib      *checkpoint.Library
		prog     *program.Program
		totalOps uint64
	}{
		{"nil library", nil, src.prog, src.total},
		{"empty library", &checkpoint.Library{}, src.prog, src.total},
		{"zero totalOps", src.lib, src.prog, 0},
		{"invalid program", src.lib, &program.Program{Name: "empty"}, src.total},
	}
	for _, c := range cases {
		_, err := NewLiveSource(c.lib, src.hash, nil, c.prog, src.cc, c.totalOps, 0)
		if !errors.Is(err, pgsserrors.ErrInvalidConfig) {
			t.Errorf("%s: got %v, want ErrInvalidConfig", c.name, err)
		}
	}
}

// liveFFOps are the window sizes the live layout tests run over the
// 600k-op live source: 30 windows (at most one chunk per shard), 120
// windows (3 or more chunks per shard) and 86 windows, which the chunk
// size does not divide and whose last window is short.
var liveFFOps = []uint64{20_000, 5_000, 7_000}

// TestLiveShardLayoutInvariant: a live (checkpoint-driven) run returns the
// same result whatever the shard count and worker count — the engine-level
// determinism guarantee for live sources.
func TestLiveShardLayoutInvariant(t *testing.T) {
	src := liveSource(t, "197.parser", 600_000, 50_000, nil)
	for _, ff := range liveFFOps {
		cfg := testConfig()
		cfg.FFOps = ff
		cfg.SpreadOps = ff
		cfg.Trace = true
		checkLiveLayouts(t, src, cfg, []Options{
			{Shards: 4, SampleWorkers: 4},
			{Shards: 3, SampleWorkers: 2},
		})
	}
}

// checkLiveLayouts runs cfg over src with one shard and one sample worker
// and then with each of layouts, which must all return the same result.
func checkLiveLayouts(t *testing.T, src *LiveSource, cfg core.Config, layouts []Options) {
	t.Helper()
	ref, refSt, err := Run(context.Background(), src, cfg, Options{Shards: 1, SampleWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Samples == 0 {
		t.Fatalf("FFOps %d: live run took no samples — the invariance test would be vacuous", cfg.FFOps)
	}
	for _, opts := range layouts {
		res, st, err := Run(context.Background(), src, cfg, opts)
		if err != nil {
			t.Fatalf("FFOps %d, %+v: %v", cfg.FFOps, opts, err)
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("FFOps %d, %+v: live Result diverged:\n got %+v\nwant %+v", cfg.FFOps, opts, res, ref)
		}
		if !reflect.DeepEqual(st, refSt) {
			t.Errorf("FFOps %d, %+v: live Stats diverged:\n got %+v\nwant %+v", cfg.FFOps, opts, st, refSt)
		}
	}
}

// TestLiveLibraryShorterThanProgram: a library recorded to a third of its
// program, as the suite's libraries stop at the build target while their
// programs run on, must give the run of a library that covers the program.
// Past its last checkpoint every shard fast-forwards from that checkpoint
// and every sample warms forward from it.
func TestLiveLibraryShorterThanProgram(t *testing.T) {
	const stride = 20_000
	full := liveSource(t, "197.parser", 600_000, stride, nil)
	rec, err := cpu.NewCore(cpu.MustNewMachine(full.prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	lib, err := checkpoint.Record(rec, stride, full.total/3)
	if err != nil {
		t.Fatal(err)
	}
	short, err := NewLiveSource(lib, full.hash, nil, full.prog, full.cc, full.total, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := lib.Nearest(full.total).Ops
	if last > full.total/3 {
		t.Fatalf("short library's last checkpoint at %d, past a third of %d ops", last, full.total)
	}
	for _, ff := range liveFFOps {
		cfg := testConfig()
		cfg.FFOps = ff
		cfg.SpreadOps = ff
		cfg.Trace = true
		for _, opts := range []Options{
			{Shards: 1, SampleWorkers: 1},
			{Shards: 2, SampleWorkers: 2},
			{Shards: 3, SampleWorkers: 2},
		} {
			want, wantSt, err := Run(context.Background(), full, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.ContainsFunc(wantSt.SampleTrace, func(e core.SampleEvent) bool { return e.Pos > last+ff }) {
				t.Fatalf("FFOps %d: no sample past the short library's last checkpoint — the test would be vacuous", ff)
			}
			got, gotSt, err := Run(context.Background(), short, cfg, opts)
			if err != nil {
				t.Fatalf("FFOps %d, %+v, short library: %v", ff, opts, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("FFOps %d, %+v: Result diverged:\n got %+v\nwant %+v", ff, opts, got, want)
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Errorf("FFOps %d, %+v: Stats diverged:\n got %+v\nwant %+v", ff, opts, gotSt, wantSt)
			}
		}
	}
}

// TestLiveRunLeavesLibraryUnchanged: a loaded library's pages, cache
// arrays and predictor arrays alias the file's bytes, and every shard and
// sample worker restores from them. A live run must leave all of them
// exactly as loaded.
func TestLiveRunLeavesLibraryUnchanged(t *testing.T) {
	src := liveSource(t, "197.parser", 600_000, 20_000, nil)
	path := filepath.Join(t.TempDir(), "lib.ckpt")
	if err := src.lib.Save(nil, path); err != nil {
		t.Fatal(err)
	}
	lib, err := checkpoint.Load(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	src.lib = lib
	contents := func() []any {
		var out []any
		for k := 0; k < lib.Len(); k++ {
			ck := lib.Nearest(uint64(k) * lib.StrideOps())
			for _, page := range ck.Machine.Pages {
				out = append(out, slices.Clone(page))
			}
			for _, cs := range []cache.State{ck.L1I, ck.L1D, ck.L2} {
				out = append(out, slices.Clone(cs.Tags), slices.Clone(cs.LRU), slices.Clone(cs.Dirty))
			}
			b := ck.Branch
			out = append(out, slices.Clone(b.BTBTags), slices.Clone(b.BTBTargets),
				slices.Clone(b.RASStack), slices.Clone(b.DirCounters))
		}
		return out
	}
	before := contents()
	// At 5,000 ops a window, 2 shards share 15 chunks, so each shard core
	// restores into several chunks and the idle list ends with at most 2.
	for _, c := range []struct {
		ffOps  uint64
		shards int
	}{{20_000, 3}, {5_000, 2}} {
		cfg := testConfig()
		cfg.FFOps = c.ffOps
		cfg.SpreadOps = c.ffOps
		src.cores = nil
		res, _, err := Run(context.Background(), src, cfg, Options{Shards: c.shards, SampleWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Samples == 0 {
			t.Fatal("live run took no samples — the test would be vacuous")
		}
		if idle := len(src.cores); idle < 1 || idle > c.shards {
			t.Errorf("FFOps %d: %d idle shard cores after %d shards", c.ffOps, idle, c.shards)
		}
		if !reflect.DeepEqual(contents(), before) {
			t.Errorf("FFOps %d: a live run changed the loaded library's pages or arrays", c.ffOps)
		}
	}
}

// TestWorkerPoolRace floods a wide worker pool from a wide shard fan-out;
// run under -race this exercises the pending-sample settlement protocol.
func TestWorkerPoolRace(t *testing.T) {
	p := suiteProfile(t, "164.gzip", 5_000_000)
	cfg := testConfig()
	cfg.FFOps = 10_000
	cfg.SpreadOps = 10_000
	res, _, err := Run(context.Background(), NewProfileSource(p), cfg, Options{Shards: 8, SampleWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Samples == 0 {
		t.Error("no samples taken")
	}
}

// TestCancellation: a cancelled context aborts with the serial error shape
// (ErrBudgetExceeded class, partial ledger) and leaks no goroutines
// blocked on unresolved samples.
func TestCancellation(t *testing.T) {
	p := suiteProfile(t, "164.gzip", 5_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Run(ctx, NewProfileSource(p), testConfig(), Options{Shards: 4, SampleWorkers: 4})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, pgsserrors.ErrBudgetExceeded) {
		t.Errorf("cancellation error %v not classed ErrBudgetExceeded", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancellation error %v does not wrap context.Canceled", err)
	}
}

// failingSource injects a sampler failure to verify the error surfaces
// from the decision walk instead of hanging the pool.
type failingSource struct {
	*ProfileSource
	after int
}

type failingSampler struct {
	inner Sampler
	n     *int
	after int
}

func (s *failingSource) NewSampler() (Sampler, error) {
	inner, err := s.ProfileSource.NewSampler()
	if err != nil {
		return nil, err
	}
	n := 0
	return &failingSampler{inner: inner, n: &n, after: s.after}, nil
}

func (s *failingSampler) Sample(pos, warm, sample uint64) (float64, error) {
	*s.n++
	if *s.n > s.after {
		return 0, errors.New("injected sampler failure")
	}
	return s.inner.Sample(pos, warm, sample)
}

func TestSamplerErrorPropagates(t *testing.T) {
	p := suiteProfile(t, "164.gzip", 5_000_000)
	src := &failingSource{ProfileSource: NewProfileSource(p), after: 2}
	_, _, err := Run(context.Background(), src, testConfig(), Options{Shards: 2, SampleWorkers: 1})
	if err == nil || err.Error() != "injected sampler failure" {
		t.Fatalf("injected failure did not surface: %v", err)
	}
}

// TestMisalignedConfigSurfaces: a window size that is not a multiple of
// the profile granularity must fail with the serial error class.
func TestMisalignedConfigSurfaces(t *testing.T) {
	p := suiteProfile(t, "164.gzip", 5_000_000)
	cfg := testConfig()
	cfg.FFOps = 12_345
	_, _, err := Run(context.Background(), NewProfileSource(p), cfg, Options{Shards: 2, SampleWorkers: 2})
	if !errors.Is(err, pgsserrors.ErrMisalignedWindow) {
		t.Fatalf("misaligned window error class: %v", err)
	}
}

// TestChannelParallelMatchesSerial extends the serial/parallel bit-identity
// guarantee to the MAV and concatenated signature channels: with the
// profile recorded on both channels, the parallel engine must reproduce the
// serial controller exactly under every shard layout, for every Channel.
func TestChannelParallelMatchesSerial(t *testing.T) {
	p := suiteProfile(t, "181.mcf", 10_000_000)
	if !p.HasMAV() {
		t.Fatal("suite profile recorded without a MAV channel")
	}
	for _, ch := range []bbv.Channel{bbv.ChannelMAV, bbv.ChannelBoth} {
		t.Run(ch.String(), func(t *testing.T) {
			// 200 windows give every layout 3 or more chunks per shard; 334
			// windows leave a short last chunk and a short last window.
			for _, ff := range []uint64{50_000, 30_000} {
				cfg := testConfig()
				cfg.FFOps = ff
				cfg.SpreadOps = ff
				cfg.Channel = ch
				cfg.Trace = true
				wantRes, wantSt, err := core.RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if wantRes.Samples == 0 {
					t.Fatalf("FFOps %d: serial run took no samples — the identity test would be vacuous", ff)
				}
				for _, opts := range []Options{
					{Shards: 1, SampleWorkers: 1},
					{Shards: 4, SampleWorkers: 4},
					{Shards: 3, SampleWorkers: 2},
					{Shards: 7, SampleWorkers: 3},
				} {
					res, st, err := Run(context.Background(), NewProfileSource(p), cfg, opts)
					if err != nil {
						t.Fatalf("FFOps %d, %+v: %v", ff, opts, err)
					}
					if !reflect.DeepEqual(res, wantRes) {
						t.Errorf("FFOps %d, %+v: Result diverged from serial:\n got %+v\nwant %+v", ff, opts, res, wantRes)
					}
					if !reflect.DeepEqual(st, wantSt) {
						t.Errorf("FFOps %d, %+v: Stats diverged from serial:\n got %+v\nwant %+v", ff, opts, st, wantSt)
					}
				}
			}
		})
	}
}

// TestLiveChannelShardInvariant: a live run on the concatenated channel —
// MAV tracker fed from the retire stream inside each shard — returns the
// same result whatever the shard layout. MAV accumulation has no pending
// state, so the windows are layout-invariant by construction; this pins the
// wiring.
func TestLiveChannelShardInvariant(t *testing.T) {
	src := liveSource(t, "197.parser", 600_000, 50_000, bbv.MustNewMAVHash(bbv.DefaultMAVBits, 42))
	for _, ff := range liveFFOps {
		cfg := testConfig()
		cfg.FFOps = ff
		cfg.SpreadOps = ff
		cfg.Trace = true
		cfg.Channel = bbv.ChannelBoth
		checkLiveLayouts(t, src, cfg, []Options{
			{Shards: 4, SampleWorkers: 4},
			{Shards: 3, SampleWorkers: 2},
			{Shards: 7, SampleWorkers: 3},
		})
	}
}

// TestLiveMatchesReplay pins the live engine to replay: on every suite
// program, PGSS over a LiveSource returns exactly the Result and Stats,
// sample trace included, of the serial controller over the program's
// recorded profile, on every signature channel. The library's stride is two
// FF periods, so the samples of odd windows warm forward from the
// checkpoint below them.
func TestLiveMatchesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("records a profile and a checkpoint library of every suite program")
	}
	const ops = 2_000_000
	base := core.DefaultConfig(10)
	base.Trace = true
	for _, name := range workload.Names() {
		t.Run(name, func(t *testing.T) {
			p := suiteProfile(t, name, ops)
			spec, err := workload.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := spec.Build(ops)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
			if err != nil {
				t.Fatal(err)
			}
			lib, err := checkpoint.Record(rec, 2*base.FFOps, 0)
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewLiveSource(lib, bbv.MustNewHash(bbv.DefaultHashBits, 42),
				bbv.MustNewMAVHash(bbv.DefaultMAVBits, profile.DefaultMAVSeed),
				prog, cpu.DefaultCoreConfig(), p.TotalOps, p.TrueIPC())
			if err != nil {
				t.Fatal(err)
			}
			for _, ch := range []bbv.Channel{bbv.ChannelBBV, bbv.ChannelMAV, bbv.ChannelBoth} {
				cfg := base
				cfg.Channel = ch
				want, wantSt, err := core.RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want.Samples == 0 {
					t.Fatalf("%v: replay took no samples — the test would be vacuous", ch)
				}
				got, gotSt, err := Run(context.Background(), src, cfg, Options{Shards: 2, SampleWorkers: 2})
				if err != nil {
					t.Fatalf("%v: %v", ch, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v: live Result diverged from replay:\n got %+v\nwant %+v", ch, got, want)
				}
				if !reflect.DeepEqual(gotSt, wantSt) {
					t.Errorf("%v: live Stats diverged from replay:\n got %+v\nwant %+v", ch, gotSt, wantSt)
				}
			}
		})
	}
}
