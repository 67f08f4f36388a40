// Command pgss-bench regenerates the paper's evaluation figures and runs
// large fault-tolerant campaigns of benchmark × technique × seed runs.
//
// Usage:
//
//	pgss-bench -fig all                    # every figure, default size
//	pgss-bench -fig 12 -size 1.0           # Fig 12 at full benchmark size
//	pgss-bench -fig 2,3 -artifacts DIR     # store artifacts under DIR
//	pgss-bench -fig 2,3 -artifacts ''      # no store: record every run
//
//	pgss-bench -campaign all -seeds 3 -jobs 8      # full campaign grid
//	pgss-bench -campaign PGSS,SMARTS -timeout 10m  # per-run time budget
//	pgss-bench -campaign all -resume               # continue a killed run
//
// Figure IDs follow the paper: 2, 3, 7, 8, 9, 10, 11, 12, 13; the named
// experiments ablation, coverage and extensions go beyond it.
//
// Recorded profiles and checkpoint libraries live in the artifact store,
// by default the per-user one that pgss-artifacts manages.
//
// A campaign journals every finished run to a JSONL file (-journal, by
// default campaign.jsonl under the store root), so a killed or
// interrupted campaign re-invoked with -resume skips completed runs.
// SIGINT drains in-flight runs, journals them and exits with the partial
// results and an error summary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pgss/internal/artifact"
	"pgss/internal/campaign"
	"pgss/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "comma-separated figure numbers (e.g. 2,12), named experiments (ablation, coverage, extensions), or 'all'")
	size := flag.Float64("size", 1.0, "benchmark length factor relative to defaults")
	ops := flag.Uint64("ops", 0, "override per-benchmark op count (0 = defaults × size)")
	scale := flag.Uint64("scale", 10, "parameter scale divisor vs the paper's SPEC-scale values")
	artifacts := flag.String("artifacts", artifact.DefaultRoot(), "content-addressed artifact store root shared across runs and processes ('' disables)")
	quiet := flag.Bool("q", false, "suppress progress output")
	csvDir := flag.String("csv", "", "also write every table as CSV into this directory")
	camp := flag.String("campaign", "", "run a campaign of the given techniques ('all' or comma-separated) instead of figures")
	seeds := flag.Int("seeds", 1, "campaign: seeds per benchmark × technique pair")
	jobs := flag.Int("jobs", 0, "parallel workers for recording and campaigns (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "PGSS-Live runs: concurrent fast-forward shards per run (0 = GOMAXPROCS)")
	sampleWorkers := flag.Int("sample-workers", 0, "PGSS-Live runs: concurrent detailed-sample workers per run (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "campaign: per-run time budget (0 = unbounded)")
	retries := flag.Int("retries", 2, "campaign: max attempts per run for retryable failures")
	journal := flag.String("journal", "", "campaign: journal path (default campaign.jsonl under the store root)")
	resume := flag.Bool("resume", false, "campaign: skip runs already journaled as done")
	flag.Parse()

	// SIGINT/SIGTERM cancel the context; figure generation stops between
	// windows and no further figure starts, campaigns drain in-flight runs
	// and journal them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := experiments.DefaultOptions()
	opts.Scale = *scale
	opts.SizeFactor = *size
	opts.TotalOps = *ops
	opts.ArtifactDir = *artifacts
	opts.Quiet = *quiet
	opts.Jobs = *jobs
	opts.Shards = *shards
	opts.SampleWorkers = *sampleWorkers
	opts.Context = ctx
	suite, err := experiments.NewSuite(opts)
	if err != nil {
		fatal(err)
	}

	if *camp != "" {
		inner := *shards
		if *sampleWorkers > inner {
			inner = *sampleWorkers
		}
		runCampaign(ctx, suite, campaignConfig{
			techniques:  strings.Split(*camp, ","),
			seeds:       *seeds,
			jobs:        *jobs,
			innerShards: inner,
			timeout:     *timeout,
			retries:     *retries,
			journal:     *journal,
			storeRoot:   *artifacts,
			resume:      *resume,
			quiet:       *quiet,
		})
		return
	}

	var ids []string
	if *fig == "all" {
		ids = experiments.FigureIDs()
	} else {
		for _, f := range strings.Split(*fig, ",") {
			f = strings.TrimSpace(f)
			// Bare figure numbers get the "fig" prefix; named experiments
			// (ablation, extensions) pass through.
			if _, err := strconv.Atoi(f); err == nil {
				f = "fig" + f
			}
			ids = append(ids, f)
		}
	}

	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "pgss-bench: interrupted before %s: %v\n", id, err)
			os.Exit(130)
		}
		start := time.Now()
		rep, err := experiments.Run(suite, id)
		if err != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "pgss-bench: %s interrupted: %v\n", id, err)
				os.Exit(130)
			}
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		rep.Fprint(os.Stdout)
		if *csvDir != "" {
			if err := rep.WriteCSV(*csvDir); err != nil {
				fatal(fmt.Errorf("%s: csv: %w", id, err))
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "%s regenerated in %v\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
}

type campaignConfig struct {
	techniques  []string
	seeds       int
	jobs        int
	innerShards int
	timeout     time.Duration
	retries     int
	journal     string
	storeRoot   string
	resume      bool
	quiet       bool
}

func runCampaign(ctx context.Context, suite *experiments.Suite, cfg campaignConfig) {
	techniques, err := experiments.ResolveTechniques(trimAll(cfg.techniques))
	if err != nil {
		fatal(err)
	}
	journal := cfg.journal
	if journal == "" {
		if cfg.storeRoot != "" {
			journal = filepath.Join(cfg.storeRoot, "campaign.jsonl")
		} else {
			journal = "campaign.jsonl"
		}
	}
	specs := experiments.CampaignSpecs(experiments.PaperTenNames(), techniques, cfg.seeds)
	logf := func(format string, args ...any) {
		if !cfg.quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	logf("campaign: %d runs (%d benchmarks × %d techniques × %d seeds), journal %s\n",
		len(specs), len(experiments.PaperTenNames()), len(techniques), cfg.seeds, journal)

	rep, err := campaign.Run(ctx, specs, suite.CampaignRun, campaign.Options{
		Jobs:        cfg.jobs,
		InnerShards: cfg.innerShards,
		Timeout:     cfg.timeout,
		MaxAttempts: cfg.retries,
		JournalPath: journal,
		Resume:      cfg.resume,
		Logf:        logf,
	})
	if err != nil {
		fatal(err)
	}
	printCampaign(rep)
	switch {
	case rep.Interrupted > 0:
		fmt.Fprintf(os.Stderr, "pgss-bench: interrupted; re-run with -resume to continue\n")
		os.Exit(130)
	case rep.Failed > 0:
		os.Exit(1)
	}
}

func printCampaign(rep *campaign.Report) {
	fmt.Printf("%-14s %-14s %5s %9s %9s %8s %9s  %s\n",
		"benchmark", "technique", "seed", "est_ipc", "err%", "attempts", "elapsed", "status")
	for _, o := range rep.Outcomes {
		status := "ok"
		switch {
		case o.Resumed:
			status = "resumed"
		case errors.Is(o.Err, context.Canceled), o.ErrKind == "interrupted":
			status = "interrupted"
		case o.Err != nil:
			status = o.ErrKind
		}
		est, errPct := "-", "-"
		if o.Err == nil {
			est = fmt.Sprintf("%.4f", o.Result.EstimatedIPC)
			errPct = fmt.Sprintf("%.2f", o.Result.ErrorPct())
		}
		fmt.Printf("%-14s %-14s %5d %9s %9s %8d %9s  %s\n",
			o.Spec.Benchmark, o.Spec.Technique, o.Spec.Seed, est, errPct,
			o.Attempts, o.Elapsed.Round(time.Millisecond), status)
	}
	fmt.Println()
	fmt.Println(rep.Summary())
	// Error detail, one line per failed run.
	for _, o := range rep.Outcomes {
		if o.Err != nil && o.ErrKind != "interrupted" {
			line := o.Err.Error()
			if i := strings.IndexByte(line, '\n'); i >= 0 {
				line = line[:i] // stack traces stay out of the summary
			}
			fmt.Printf("  %s: %s\n", o.Spec, line)
		}
	}
}

func trimAll(in []string) []string {
	out := in[:0]
	for _, s := range in {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pgss-bench:", err)
	os.Exit(1)
}
