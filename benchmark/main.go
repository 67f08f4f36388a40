// Command pgss-benchmark is the repository's end-to-end benchmark. One
// invocation measures one workload:
//
//	go run . --workload replay --seed 1 --seconds 10 --trace 0
//
// (run from this directory; run.sh builds it from a checkout's root). It
// records a fresh artifact store for the workload (untimed prep), then runs
// measured rounds, each in a fresh child process, until --seconds have
// passed, and prints every end-to-end metric as a median over the rounds.
// Timings are scaled by a fixed kernel timed between rounds (host.go), to
// take out the host's drift. With --trace 1 it adds one traced round and prints per-layer metrics
// instead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pgss/internal/campaign"
	"pgss/internal/experiments"
)

// buildDir holds everything the benchmark writes, relative to the
// directory it runs in.
const buildDir = ".bench_build"

// config sets the size of every workload. Tests shrink it; the command
// always runs defaultConfig.
type config struct {
	ops         uint64              // program ops per benchmark
	benchmarks  map[string][]string // by workload
	replaySeeds int                 // campaign seeds per replay run
	minRounds   int                 // measured rounds even when --seconds has passed
	hostSteps   int                 // host kernel steps per timing
}

func defaultConfig() config {
	return config{
		// 20M ops gives 200 windows per run at scale 10: enough for phases
		// and confidence bounds to form.
		ops: 20_000_000,
		benchmarks: map[string][]string{
			// The only write path: detailed recording, checkpoint capture,
			// encoding and fsync'd publishing. Longest first, so the two
			// jobs finish together.
			"record": {"181.mcf", "179.art", "164.gzip", "177.mesa"},
			// No CPU simulation: window sums, classification, the
			// controller, the estimators and the campaign pool.
			"replay": experiments.PaperTenNames(),
			// Well-phased programs: few samples, fast-forward dominates.
			"live-phased": {"164.gzip", "177.mesa", "183.equake", "188.ammp", "256.bzip2", "300.twolf"},
			// Micro-phase programs: a sample every other window, each a
			// checkpoint restore and a warm-forward.
			"live-churn": {"179.art", "181.mcf", "197.parser", "253.perlbmk"},
		},
		replaySeeds: 300,
		minRounds:   3,
		// About 0.25 s per timing, against rounds of 2–4 s.
		hostSteps: 2_000_000,
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, defaultConfig()))
}

// outcome is the result line.
type outcome struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func benchMain(args []string, stdout io.Writer, cfg config) int {
	fs := flag.NewFlagSet("pgss-benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "record, replay, live-phased or live-churn")
	seed := fs.Int64("seed", 1, "input seed: replay's first campaign seed (record and live-* have no random inputs)")
	seconds := fs.Float64("seconds", 10, "keep starting measured rounds until this many seconds have passed")
	trace := fs.Int("trace", 0, "1 adds a traced round and reports per-layer metrics instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := cfg.benchmarks[*workload]; !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "pgss-benchmark: need --workload record|replay|live-phased|live-churn, --seconds > 0, --trace 0|1\n")
		return 2
	}
	// Child rounds run this same binary.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgss-benchmark: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := run(ctx, cfg, exe, *workload, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgss-benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pgss-benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

func run(ctx context.Context, cfg config, exe, w string, seed int64, seconds float64, traced bool, stdout io.Writer) (*outcome, error) {
	tmp := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmp, w+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Prep, untimed: a fresh store every invocation, so a change that
	// breaks recording bit-identity cannot hide behind old artifacts.
	benches := cfg.benchmarks[w]
	prep := filepath.Join(dir, "prep")
	t0 := time.Now()
	ref, err := prepare(ctx, prep, cfg.ops, benches, w != "replay")
	if err != nil {
		return nil, fmt.Errorf("prep: %w", err)
	}
	fmt.Fprintf(stdout, "workload %s seed %d: prep_s %.3f (untimed, %d artifacts)\n", w, seed, time.Since(t0).Seconds(), len(ref))

	nseeds := 1
	if w == "replay" {
		nseeds = cfg.replaySeeds
	}
	args := func(i int, spans string) (out string, a []string) {
		a = []string{"-workload", w, "-benchmarks", strings.Join(benches, ","),
			"-ops", strconv.FormatUint(cfg.ops, 10), "-seed", strconv.FormatInt(seed, 10),
			"-seeds", strconv.Itoa(nseeds), "-prep", prep}
		if w == "record" {
			out = filepath.Join(dir, fmt.Sprintf("round%d", i))
			a = append(a, "-out", out)
		}
		if spans != "" {
			a = append(a, "-spans", spans)
		}
		return out, a
	}

	// Each round's host factor is the mean of the kernel timings just
	// before and just after it.
	host := newHostKernel(cfg.hostSteps)
	before := host.factor()
	var reps []*roundReport
	start := time.Now()
	for i := 0; i < cfg.minRounds || time.Since(start).Seconds() < seconds; i++ {
		out, a := args(i, "")
		rep, err := runChild(ctx, exe, a)
		if out != "" {
			os.RemoveAll(out)
		}
		if err != nil {
			return nil, err
		}
		after := host.factor()
		rep.host, before = (before+after)/2, after
		fmt.Fprintf(stdout, "round %d: wall_s %.3f setup_s %.4f wall_mops_per_s %.2f host %.3f peak_rss_mb %.1f cpu_s %.3f runs %d\n",
			i, rep.WallS, rep.SetupS, float64(rep.SimOps)/rep.WallS/1e6, rep.host, rep.rssMB, rep.cpuS, rep.Runs)
		reps = append(reps, rep)
	}
	var tracedRep *roundReport
	if traced {
		spans := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.json", w, seed))
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return nil, err
		}
		out, a := args(len(reps), spans)
		tracedRep, err = runChild(ctx, exe, a)
		if out != "" {
			os.RemoveAll(out)
		}
		if err != nil {
			return nil, fmt.Errorf("traced round: %w", err)
		}
		fmt.Fprintf(stdout, "traced round: wall_s %.3f, spans in %s\n", tracedRep.WallS, spans)
	}

	o := &outcome{Metrics: map[string]value{}}
	var problems []string
	all := reps
	if tracedRep != nil {
		all = append(all[:len(all):len(all)], tracedRep)
	}
	for i, rep := range all {
		name := fmt.Sprintf("round %d", i)
		if rep == tracedRep {
			name = "the traced round"
		}
		o.Attempted += rep.Runs
		o.Failed += rep.Failed
		problems = append(problems, rep.Problems...)
		if rep.Digest != reps[0].Digest {
			o.Failed++
			problems = append(problems, fmt.Sprintf("%s: output digest %s differs from round 0's", name, rep.Digest))
		}
		if w == "record" && !maps.Equal(rep.Artifacts, ref) {
			o.Failed++
			problems = append(problems, fmt.Sprintf("%s: recorded artifacts differ from the prepared store's", name))
		}
	}

	e2e := map[string][]float64{}
	var walls []float64
	for _, rep := range reps {
		walls = append(walls, rep.WallS)
		// Timings are in reference-host seconds: scaled by the host factor.
		e2e["sim_mops_per_s"] = append(e2e["sim_mops_per_s"], float64(rep.SimOps)/rep.WallS/1e6*rep.host)
		e2e["setup_s"] = append(e2e["setup_s"], rep.SetupS/rep.host)
		e2e["peak_rss_mb"] = append(e2e["peak_rss_mb"], rep.rssMB)
		e2e["ipc_err_mean_pct"] = append(e2e["ipc_err_mean_pct"], rep.ErrMeanPct)
		e2e["ipc_err_p99_pct"] = append(e2e["ipc_err_p99_pct"], rep.ErrP99Pct)
		e2e["detailed_ops_pct"] = append(e2e["detailed_ops_pct"], rep.DetailedPct)
	}
	fmt.Fprintf(stdout, "%-30s %-8s %14s %12s %3s\n", "metric", "unit", "median", "iqr", "n")
	for _, m := range endToEnd {
		s := summarize(e2e[m.name])
		fmt.Fprintf(stdout, "%-30s %-8s %14.6g %12.4g %3d\n", m.name, m.unit, s.Median, s.IQR(), s.N)
		if !traced {
			o.Metrics[m.name] = value{s.Median, m.unit}
		}
	}
	fmt.Fprintf(stdout, "digest %s %s\n", w, reps[0].Digest)

	if traced {
		layers := untracedLayers(reps)
		maps.Copy(layers, tracedRep.Layers)
		layers["trace.overhead_pct"] = 100 * (tracedRep.WallS/summarize(walls).Median - 1)
		if strings.HasPrefix(w, "live-") && layers["trace.attributed_pct"] < 90 {
			o.Failed++
			problems = append(problems, fmt.Sprintf("traced round attributes %.1f%% of its time to layers, below 90%%",
				layers["trace.attributed_pct"]))
		}
		for _, m := range perLayer() {
			v := layers[m.name]
			fmt.Fprintf(stdout, "%-30s %-8s %14.6g\n", m.name, m.unit, v)
			o.Metrics[m.name] = value{v, m.unit}
		}
	}
	for name, v := range o.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "pgss-benchmark: check failed: %s\n", p)
	}
	o.Correct = o.Failed == 0
	return o, nil
}

// untracedLayers are the per-layer metrics read from the untraced rounds'
// reports: medians over rounds.
func untracedLayers(reps []*roundReport) map[string]float64 {
	med := func(f func(*roundReport) float64) float64 {
		var xs []float64
		for _, r := range reps {
			xs = append(xs, f(r))
		}
		return summarize(xs).Median
	}
	m := map[string]float64{
		"experiments.resolve_ms":       med(func(r *roundReport) float64 { return r.ResolveMS }),
		"campaign.pool_util_pct":       med(func(r *roundReport) float64 { return r.PoolUtilPct }),
		"campaign.overhead_us_per_run": med(func(r *roundReport) float64 { return r.OverheadUS }),
	}
	for _, t := range replayTechniques {
		us := med(func(r *roundReport) float64 { return r.TechniqueUS[t] })
		m["sampling.runs_per_s."+t] = 1e6 * ratio(1, us)
	}
	return m
}

// prepare records the benchmarks' profiles (and checkpoint libraries, when
// withLibraries) into a new store at dir and returns each artifact's
// content SHA, keyed "kind/benchmark".
func prepare(ctx context.Context, dir string, ops uint64, benches []string, withLibraries bool) (map[string]string, error) {
	s, err := experiments.NewSuite(suiteOptions(dir, ops, false))
	if err != nil {
		return nil, err
	}
	cr, err := campaign.Run(ctx, recordSpecs(benches, withLibraries), recordFunc(s, ops), campaign.Options{Jobs: workers})
	if err != nil {
		return nil, err
	}
	if err := cr.FirstError(); err != nil {
		return nil, err
	}
	ref := map[string]string{}
	for _, e := range s.Artifacts().List() {
		ref[string(e.Key.Kind)+"/"+e.Key.Benchmark] = e.ContentSHA
	}
	// The suite's in-memory copies are dead now; hand the memory back
	// before the children start.
	s = nil
	debug.FreeOSMemory()
	return ref, nil
}

// runChild runs one round in a fresh process and returns its report, with
// the child's peak resident memory and CPU time filled in.
func runChild(ctx context.Context, exe string, args []string) (*roundReport, error) {
	start := time.Now()
	cmd := exec.CommandContext(ctx, exe,
		append([]string{"child", "-start", strconv.FormatInt(start.UnixNano(), 10)}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child round: %w", err)
	}
	var rep roundReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("child round report: %w", err)
	}
	rep.cpuS = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	}
	return &rep, nil
}
