package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pgss/internal/artifact"
	"pgss/internal/bbv"
	"pgss/internal/campaign"
	"pgss/internal/checkpoint"
	"pgss/internal/core"
	"pgss/internal/experiments"
	"pgss/internal/parallel"
	"pgss/internal/profile"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

// Fixed inputs of every workload.
const (
	scale    = 10 // the paper's configuration ÷10, as in EXPERIMENTS.md
	hashSeed = 42
	workers  = 2 // worker threads per child: campaign jobs, shards, sample workers
)

// replayTechniques are the replay workload's techniques, in report order.
var replayTechniques = []string{
	"PGSS", "PGSS-Adaptive", "SMARTS", "TurboSMARTS", "SimPoint",
	"OnlineSimPoint", "Stratified", "2PSS", "RSS",
}

// roundReport is what one child round sends back to the parent, as one
// JSON line on standard output.
type roundReport struct {
	SetupS    float64 `json:"setup_s"`    // child start → every needed artifact resolved
	ResolveMS float64 `json:"resolve_ms"` // Suite.Profile + Suite.CheckpointLibrary calls
	WallS     float64 `json:"wall_s"`     // the measured work after set-up
	SimOps    uint64  `json:"sim_ops"`    // program ops covered by completed runs
	Runs      int     `json:"runs"`
	Failed    int     `json:"failed"`

	ErrMeanPct  float64 `json:"err_mean_pct"`
	ErrP99Pct   float64 `json:"err_p99_pct"`
	DetailedPct float64 `json:"detailed_pct"`

	PoolUtilPct float64            `json:"pool_util_pct"`
	OverheadUS  float64            `json:"overhead_us_per_run"`
	TechniqueUS map[string]float64 `json:"technique_us"` // median Outcome.Elapsed by technique

	Artifacts map[string]string  `json:"artifacts,omitempty"` // "kind/benchmark" → content SHA
	Digest    string             `json:"digest"`
	Problems  []string           `json:"problems,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"` // traced round only

	campBusy, campCap time.Duration
	campRuns          int
	elapsed           map[string][]float64
	cpuS, rssMB       float64 // the child's CPU time and peak RSS, read by the parent
	host              float64 // the host's slowdown around the round (hostKernel)
}

// round is one child's assignment.
type round struct {
	workload string
	benches  []string
	ops      uint64
	seeds    []int64 // campaign seeds
	prep     string  // the store prepared by the parent
	out      string  // record: the empty store to record into
	start    time.Time
	tr       *tracer // nil = untraced
}

func (r *round) live() bool { return strings.HasPrefix(r.workload, "live-") }

// childMain runs one round in this process and prints its report.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	var (
		r       round
		benches = fs.String("benchmarks", "", "comma-separated benchmarks, in run order")
		seed    = fs.Int64("seed", 1, "first campaign seed")
		nseeds  = fs.Int("seeds", 1, "campaign seeds per run")
		start   = fs.Int64("start", 0, "parent's clock when it started this child (Unix ns)")
		spans   = fs.String("spans", "", "trace the round and write its spans here")
	)
	fs.StringVar(&r.workload, "workload", "", "workload")
	fs.Uint64Var(&r.ops, "ops", 0, "program ops per benchmark")
	fs.StringVar(&r.prep, "prep", "", "prepared artifact store")
	fs.StringVar(&r.out, "out", "", "store to record into (record)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	r.benches = strings.Split(*benches, ",")
	for i := 0; i < *nseeds; i++ {
		r.seeds = append(r.seeds, *seed+int64(i))
	}
	r.start = time.Unix(0, *start)
	if *spans != "" {
		r.tr = newTracer()
	}
	rep, err := runRound(context.Background(), &r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgss-benchmark: %s round: %v\n", r.workload, err)
		return 1
	}
	if r.tr != nil {
		if err := r.tr.writeSpans(*spans); err != nil {
			fmt.Fprintf(os.Stderr, "pgss-benchmark: write spans: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

func runRound(ctx context.Context, r *round) (*roundReport, error) {
	switch {
	case r.workload == "record" && r.tr == nil:
		return recordRound(ctx, r)
	case r.workload == "record":
		return tracedRecordRound(ctx, r)
	case r.tr == nil:
		return campaignRound(ctx, r)
	default:
		return tracedCampaignRound(ctx, r)
	}
}

// suiteOptions configures a suite over store dir. Live rounds shard PGSS
// runs; the others run them serially, as users replay profiles.
func suiteOptions(dir string, ops uint64, live bool) experiments.Options {
	o := experiments.Options{
		Scale: scale, TotalOps: ops, HashSeed: hashSeed,
		ArtifactDir: dir, Quiet: true, Jobs: workers,
	}
	if live {
		o.Shards, o.SampleWorkers = workers, workers
	}
	return o
}

// recordSpecs lists one profile and one checkpoint-library recording per
// benchmark (libraries only when withLibraries).
func recordSpecs(benches []string, withLibraries bool) []campaign.Spec {
	var specs []campaign.Spec
	for _, b := range benches {
		specs = append(specs, campaign.Spec{Benchmark: b, Technique: "profile"})
		if withLibraries {
			specs = append(specs, campaign.Spec{Benchmark: b, Technique: "library"})
		}
	}
	return specs
}

// recordFunc resolves one recordSpecs spec through the suite: a store miss
// records the artifact and publishes it. The result carries the recorded
// ops as its cost.
func recordFunc(s *experiments.Suite, ops uint64) campaign.RunFunc {
	return func(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
		res := sampling.Result{Technique: sp.Technique, Benchmark: sp.Benchmark}
		if sp.Technique == "library" {
			_, err := s.CheckpointLibrary(sp.Benchmark)
			res.Costs.FunctionalWarm = ops
			return res, err
		}
		p, err := s.Profile(sp.Benchmark)
		if err != nil {
			return res, err
		}
		res.Costs.Detailed = p.TotalOps
		return res, nil
	}
}

// runCampaign runs specs on jobs workers and folds the pool's accounting
// into rep.
func (rep *roundReport) runCampaign(ctx context.Context, specs []campaign.Spec, fn campaign.RunFunc, jobs int) (*campaign.Report, time.Duration, error) {
	t0 := time.Now()
	cr, err := campaign.Run(ctx, specs, fn, campaign.Options{Jobs: jobs})
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, err
	}
	if rep.elapsed == nil {
		rep.elapsed = map[string][]float64{}
	}
	for _, o := range cr.Outcomes {
		rep.campBusy += o.Elapsed
		rep.elapsed[o.Spec.Technique] = append(rep.elapsed[o.Spec.Technique], float64(o.Elapsed.Microseconds()))
		if o.Failed() {
			rep.Failed++
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: %v", o.Spec, o.Err))
		}
	}
	rep.Runs += len(specs)
	rep.campRuns += len(specs)
	rep.campCap += time.Duration(jobs) * wall
	return cr, wall, nil
}

// finish derives the report's summary fields from its campaigns and the
// estimation results, and digests the outputs: extra lines first, then
// every result in spec order.
func (rep *roundReport) finish(results []sampling.Result, extra []string) {
	if rep.campCap > 0 {
		rep.PoolUtilPct = 100 * float64(rep.campBusy) / float64(rep.campCap)
		rep.OverheadUS = float64((rep.campCap - rep.campBusy).Microseconds()) / float64(rep.campRuns)
	}
	rep.TechniqueUS = map[string]float64{}
	for t, xs := range rep.elapsed {
		rep.TechniqueUS[t] = summarize(xs).Median
	}
	var errs []float64
	var errSum float64
	var detailed, total uint64
	for _, res := range results {
		e := res.ErrorPct()
		errs = append(errs, e)
		errSum += e
		detailed += res.Costs.DetailedTotal()
		total += res.Costs.Total()
	}
	if len(results) > 0 {
		rep.ErrMeanPct = errSum / float64(len(results))
	}
	// Not the maximum: replay's worst run is one seed's outlier that comes
	// and goes with the seed range, while its 99th percentile does not.
	rep.ErrP99Pct = percentile(errs, 99)
	if total > 0 {
		rep.DetailedPct = 100 * float64(detailed) / float64(total)
	}
	rep.Digest = digest(results, extra)
}

// digest is SHA-256 over extra's lines, then every result in order. %#v
// prints every field, floats at full precision; %v and %+v would print
// Result.String, a rounded summary.
func digest(results []sampling.Result, extra []string) string {
	h := sha256.New()
	for _, l := range extra {
		fmt.Fprintln(h, l)
	}
	for _, res := range results {
		fmt.Fprintf(h, "%#v\n", res)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// results returns the successful outcomes' results in spec order.
func results(cr *campaign.Report) []sampling.Result {
	var out []sampling.Result
	for _, o := range cr.Outcomes {
		if !o.Failed() {
			out = append(out, o.Result)
		}
	}
	return out
}

func simOps(cr *campaign.Report) uint64 {
	var n uint64
	for _, res := range results(cr) {
		n += res.Costs.Total()
	}
	return n
}

// checkStore verifies the recorded store and returns its artifacts'
// content SHAs, keyed "kind/benchmark", plus the matching digest lines.
func checkStore(rep *roundReport, st *artifact.Store) []string {
	vr, err := st.Verify()
	if err != nil || len(vr.Corrupt)+len(vr.Missing)+len(vr.Adopted) > 0 {
		rep.Failed++
		rep.Problems = append(rep.Problems, fmt.Sprintf("store verify: %v %v", vr, err))
	}
	rep.Artifacts = map[string]string{}
	for _, e := range st.List() {
		rep.Artifacts[string(e.Key.Kind)+"/"+e.Key.Benchmark] = e.ContentSHA
	}
	keys := make([]string, 0, len(rep.Artifacts))
	for k := range rep.Artifacts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = k + " " + rep.Artifacts[k]
	}
	return keys
}

// pgssSpecs is one PGSS estimate per benchmark.
func pgssSpecs(benches []string) []campaign.Spec {
	return campaign.Grid(benches, []string{"PGSS"}, nil)
}

// recordRound records the benchmarks' profiles and checkpoint libraries
// into an empty store, then takes the PGSS estimate a user's next campaign
// would get from them.
func recordRound(ctx context.Context, r *round) (*roundReport, error) {
	rep := &roundReport{}
	s, err := experiments.NewSuite(suiteOptions(r.out, r.ops, false))
	if err != nil {
		return nil, err
	}
	rep.SetupS = time.Since(r.start).Seconds()
	rec, recWall, err := rep.runCampaign(ctx, recordSpecs(r.benches, true), recordFunc(s, r.ops), workers)
	if err != nil {
		return nil, err
	}
	rep.ResolveMS = float64(recWall.Microseconds()) / 1e3
	est, estWall, err := rep.runCampaign(ctx, pgssSpecs(r.benches), s.CampaignRun, workers)
	if err != nil {
		return nil, err
	}
	rep.WallS = (recWall + estWall).Seconds()
	rep.SimOps = simOps(rec)
	rep.finish(results(est), checkStore(rep, s.Artifacts()))
	return rep, nil
}

// campaignSpecs lists a replay or live round's runs.
func campaignSpecs(r *round) ([]campaign.Spec, int) {
	if r.live() {
		return campaign.Grid(r.benches, []string{"PGSS-Live"}, nil), 1
	}
	return campaign.Grid(r.benches, replayTechniques, r.seeds), workers
}

// resolve loads every artifact the round needs from the prepared store.
func resolve(r *round, s *experiments.Suite) error {
	for _, b := range r.benches {
		if _, err := s.Profile(b); err != nil {
			return err
		}
		if r.live() {
			if _, err := s.CheckpointLibrary(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// campaignRound opens a fresh suite over the prepared store (a new
// campaign process), resolves the artifacts and runs the campaign.
func campaignRound(ctx context.Context, r *round) (*roundReport, error) {
	rep := &roundReport{}
	t0 := time.Now()
	s, err := experiments.NewSuite(suiteOptions(r.prep, r.ops, r.live()))
	if err != nil {
		return nil, err
	}
	if err := resolve(r, s); err != nil {
		return nil, err
	}
	rep.ResolveMS = float64(time.Since(t0).Microseconds()) / 1e3
	rep.SetupS = time.Since(r.start).Seconds()
	specs, jobs := campaignSpecs(r)
	cr, wall, err := rep.runCampaign(ctx, specs, s.CampaignRun, jobs)
	if err != nil {
		return nil, err
	}
	rep.WallS = wall.Seconds()
	rep.SimOps = simOps(cr)
	rep.finish(results(cr), nil)
	return rep, nil
}

// captured is one run kept for the decision replay.
type captured struct {
	wins []window
	res  sampling.Result
}

// captures collects at most one run per benchmark from concurrent runs.
type captures struct {
	mu   sync.Mutex
	runs map[string]*captured
}

func (c *captures) want(b string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runs == nil {
		c.runs = map[string]*captured{}
	}
	if _, ok := c.runs[b]; ok {
		return false
	}
	c.runs[b] = nil
	return true
}

func (c *captures) put(b string, wins []window, res sampling.Result) {
	c.mu.Lock()
	c.runs[b] = &captured{wins: wins, res: res}
	c.mu.Unlock()
}

// replayAll replays every captured run's decisions, checking each replay
// reproduces its run.
func (c *captures) replayAll(rep *roundReport, cfg core.Config) []decisions {
	names := make([]string, 0, len(c.runs))
	for b, run := range c.runs {
		if run != nil {
			names = append(names, b)
		}
	}
	sort.Strings(names)
	var out []decisions
	for _, b := range names {
		run := c.runs[b]
		d, err := replayDecisions(cfg, run.res.Benchmark, run.res.TrueIPC, run.wins)
		if err == nil {
			err = checkReplay(d, run.res)
		}
		if err != nil {
			rep.Failed++
			rep.Problems = append(rep.Problems, err.Error())
			continue
		}
		out = append(out, d)
	}
	return out
}

// tracedPGSS is one PGSS run through core.RunContext over a timed profile
// target, exactly as Suite.CampaignRun runs it serially.
func tracedPGSS(ctx context.Context, run *span, p *profile.Profile, caps *captures) (sampling.Result, error) {
	cs := run.child("core.run")
	tgt := &timedTarget{ProfileTarget: sampling.NewProfileTarget(p), sp: cs, capture: caps.want(p.Benchmark)}
	res, _, err := core.RunContext(ctx, tgt, core.DefaultConfig(scale))
	cs.end()
	if tgt.capture && err == nil {
		caps.put(p.Benchmark, tgt.wins, res)
	}
	return res, err
}

// tracedSetup loads the round's artifacts straight from the store (timing
// artifact hits), then resolves them through a fresh suite.
func tracedSetup(r *round) (*experiments.Suite, error) {
	setup := r.tr.begin(nil, -1, "bench.setup")
	defer setup.end()
	open := setup.child("artifact.open")
	st, err := artifact.Open(r.prep, artifact.Options{})
	open.end()
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, b := range r.benches {
		want[b] = true
	}
	for _, e := range st.List() {
		if !want[e.Key.Benchmark] || (e.Key.Kind == artifact.KindCheckpoints && !r.live()) {
			continue
		}
		ls := setup.child("artifact.load")
		err := loadArtifact(st, e.Key)
		ls.end()
		if err != nil {
			return nil, err
		}
		ls.count("artifact.load_bytes", e.Size)
	}
	rs := setup.child("experiments.resolve")
	defer rs.end()
	s, err := experiments.NewSuite(suiteOptions(r.prep, r.ops, r.live()))
	if err != nil {
		return nil, err
	}
	return s, resolve(r, s)
}

var errMiss = errors.New("artifact missing from the store")

// loadArtifact resolves k from st, failing instead of recording on a miss.
func loadArtifact(st *artifact.Store, k artifact.Key) error {
	if k.Kind == artifact.KindCheckpoints {
		_, err := st.Library(k, func() (*checkpoint.Library, error) { return nil, errMiss })
		return err
	}
	_, err := st.Profile(k, func() (*profile.Profile, error) { return nil, errMiss })
	return err
}

// liveRun is one traced PGSS-Live run kept for analysis.
type liveRun struct {
	src *liveSource
	res sampling.Result
}

// tracedCampaignRound is campaignRound with every layer call timed.
func tracedCampaignRound(ctx context.Context, r *round) (*roundReport, error) {
	rep := &roundReport{}
	t0 := time.Now()
	s, err := tracedSetup(r)
	if err != nil {
		return nil, err
	}
	rep.ResolveMS = float64(time.Since(t0).Microseconds()) / 1e3
	rep.SetupS = time.Since(r.start).Seconds()

	cfg := core.DefaultConfig(scale)
	var (
		caps   captures
		nextID atomic.Int64
		mu     sync.Mutex
		lives  []liveRun
	)
	fn := func(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
		run := r.tr.begin(nil, int(nextID.Add(1)-1), "bench.run")
		defer run.end()
		p, err := s.Profile(sp.Benchmark)
		if err != nil {
			return sampling.Result{}, err
		}
		switch sp.Technique {
		case "PGSS":
			return tracedPGSS(ctx, run, p, &caps)
		case "PGSS-Live":
			src, res, err := tracedLive(ctx, run, s, r.ops, p, cfg)
			if err == nil {
				mu.Lock()
				lives = append(lives, liveRun{src: src, res: res})
				mu.Unlock()
			}
			return res, err
		default:
			ss := run.child("sampling.run")
			defer ss.end()
			return s.CampaignRun(ctx, sp)
		}
	}
	specs, jobs := campaignSpecs(r)
	cr, wall, err := rep.runCampaign(ctx, specs, fn, jobs)
	if err != nil {
		return nil, err
	}
	rep.WallS = wall.Seconds()
	rep.SimOps = simOps(cr)
	rep.finish(results(cr), nil)

	ds := caps.replayAll(rep, cfg)
	var par parallelStats
	for _, lr := range lives {
		d, err := replayDecisions(cfg, lr.res.Benchmark, lr.res.TrueIPC, lr.src.windows(cfg))
		if err == nil {
			err = checkReplay(d, lr.res)
		}
		if err != nil {
			rep.Failed++
			rep.Problems = append(rep.Problems, err.Error())
			continue
		}
		ds = append(ds, d)
		par.add(r.tr, lr.src.run)
	}
	rep.Layers = layerMetrics(r.tr, ds, par)
	return rep, nil
}

// tracedLive is one PGSS-Live run through parallel.Run over the benchmark's
// own timed source, built as Suite.CampaignRun builds parallel.LiveSource.
func tracedLive(ctx context.Context, run *span, s *experiments.Suite, ops uint64, p *profile.Profile, cfg core.Config) (*liveSource, sampling.Result, error) {
	lib, err := s.CheckpointLibrary(p.Benchmark)
	if err != nil {
		return nil, sampling.Result{}, err
	}
	spec, err := workload.Get(p.Benchmark)
	if err != nil {
		return nil, sampling.Result{}, err
	}
	probe, err := buildCore(run, spec, ops)
	if err != nil {
		return nil, sampling.Result{}, err
	}
	src := &liveSource{
		lib: lib, hash: s.Hash(), spec: spec, ops: ops,
		name: probe.M.Program().Name, total: p.TotalOps, trueIPC: p.TrueIPC(),
		samples: map[uint64]float64{},
	}
	src.run = run.child("parallel.run")
	res, _, err := parallel.Run(ctx, src, cfg, parallel.Options{Shards: workers, SampleWorkers: workers})
	src.run.end()
	return src, res, err
}

// tracedRecordRound is recordRound with the recording, publishing and
// reloading done by direct calls into profile, checkpoint and artifact, so
// each is timed. It publishes under the keys the suite used in the
// prepared store, so the two stores must come out byte-identical.
func tracedRecordRound(ctx context.Context, r *round) (*roundReport, error) {
	rep := &roundReport{}
	tr := r.tr
	prep, err := artifact.Open(r.prep, artifact.Options{})
	if err != nil {
		return nil, err
	}
	keys := map[string]artifact.Key{}
	for _, e := range prep.List() {
		keys[string(e.Key.Kind)+"/"+e.Key.Benchmark] = e.Key
	}
	setup := tr.begin(nil, -1, "bench.setup")
	open := setup.child("artifact.open")
	st, err := artifact.Open(r.out, artifact.Options{})
	open.end()
	setup.end()
	if err != nil {
		return nil, err
	}
	rep.SetupS = time.Since(r.start).Seconds()

	var nextID atomic.Int64
	record := func(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
		run := tr.begin(nil, int(nextID.Add(1)-1), "bench.run")
		defer run.end()
		res := sampling.Result{Technique: sp.Technique, Benchmark: sp.Benchmark}
		kind := artifact.KindProfile
		if sp.Technique == "library" {
			kind = artifact.KindCheckpoints
		}
		key, ok := keys[string(kind)+"/"+sp.Benchmark]
		if !ok {
			return res, fmt.Errorf("no %s of %s in the prepared store", kind, sp.Benchmark)
		}
		spec, err := workload.Get(sp.Benchmark)
		if err != nil {
			return res, err
		}
		c, err := buildCore(run, spec, key.Ops)
		if err != nil {
			return res, err
		}
		var pub func() error
		if kind == artifact.KindCheckpoints {
			cs := run.child("checkpoint.record")
			lib, err := checkpoint.Record(c, key.StrideOps, key.Ops)
			cs.end()
			if err != nil {
				return res, err
			}
			cs.count("checkpoint.record_ops", int64(key.Ops))
			res.Costs.FunctionalWarm = key.Ops
			pub = func() error {
				_, err := st.Library(key, func() (*checkpoint.Library, error) { return lib, nil })
				return err
			}
		} else {
			hash, err := bbv.NewHash(key.HashBits, key.HashSeed)
			if err != nil {
				return res, err
			}
			ps := run.child("profile.record")
			p, err := profile.RecordContext(ctx, c, hash, profile.DefaultConfig())
			ps.end()
			if err != nil {
				return res, err
			}
			ps.count("profile.record_ops", int64(p.TotalOps))
			res.Costs.Detailed = p.TotalOps
			pub = func() error {
				_, err := st.Profile(key, func() (*profile.Profile, error) { return p, nil })
				return err
			}
		}
		ps := run.child("artifact.publish")
		err = pub()
		ps.end()
		if err != nil {
			return res, err
		}
		if fi, err := os.Stat(st.ObjectPath(key)); err == nil {
			ps.count("artifact.publish_bytes", fi.Size())
		}
		return res, nil
	}
	rec, recWall, err := rep.runCampaign(ctx, recordSpecs(r.benches, true), record, workers)
	if err != nil {
		return nil, err
	}
	rep.ResolveMS = float64(recWall.Microseconds()) / 1e3

	// A fresh process would reopen the store and load what it needs.
	reload := tr.begin(nil, -1, "bench.reload")
	open = reload.child("artifact.open")
	st, err = artifact.Open(r.out, artifact.Options{})
	open.end()
	if err != nil {
		return nil, err
	}
	profiles := map[string]*profile.Profile{}
	for _, e := range st.List() {
		ls := reload.child("artifact.load")
		var err error
		if e.Key.Kind == artifact.KindProfile {
			profiles[e.Key.Benchmark], err = st.Profile(e.Key, func() (*profile.Profile, error) { return nil, errMiss })
		} else {
			err = loadArtifact(st, e.Key)
		}
		ls.end()
		if err != nil {
			return nil, err
		}
		ls.count("artifact.load_bytes", e.Size)
	}
	reload.end()

	var caps captures
	estimate := func(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
		run := tr.begin(nil, int(nextID.Add(1)-1), "bench.run")
		defer run.end()
		p, ok := profiles[sp.Benchmark]
		if !ok {
			return sampling.Result{}, fmt.Errorf("no profile of %s after reload", sp.Benchmark)
		}
		return tracedPGSS(ctx, run, p, &caps)
	}
	est, estWall, err := rep.runCampaign(ctx, pgssSpecs(r.benches), estimate, workers)
	if err != nil {
		return nil, err
	}
	rep.WallS = (recWall + estWall).Seconds()
	rep.SimOps = simOps(rec)
	rep.finish(results(est), checkStore(rep, st))
	rep.Layers = layerMetrics(tr, caps.replayAll(rep, core.DefaultConfig(scale)), parallelStats{})
	return rep, nil
}
