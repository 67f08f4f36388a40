// Command pgss-sim runs one sampling technique on one benchmark and
// reports the estimate, error and cost ledger.
//
// Usage:
//
//	pgss-sim -bench 164.gzip -technique pgss [-ops N] [-threshold 0.05] [-period 100000] [-diag]
//	pgss-sim -bench 181.mcf -technique smarts
//	pgss-sim -bench 179.art -technique 2pss -channel mav
//
// Techniques: full, smarts, turbosmarts, simpoint, onlinesimpoint,
// stratified, pgss, adaptive, 2pss, rss. The -channel flag selects the
// signature channel (bbv, mav, both) for pgss, 2pss and rss.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"pgss"
)

func main() {
	bench := flag.String("bench", "164.gzip", "benchmark name")
	ops := flag.Uint64("ops", 0, "program length in ops (0 = benchmark default)")
	technique := flag.String("technique", "pgss", "full|smarts|turbosmarts|simpoint|onlinesimpoint|stratified|pgss|adaptive|2pss|rss")
	channel := flag.String("channel", "bbv", "signature channel: bbv|mav|both (pgss, 2pss, rss)")
	scale := flag.Uint64("scale", 10, "parameter scale divisor")
	threshold := flag.Float64("threshold", 0.05, "BBV threshold (fraction of π; pgss/onlinesimpoint)")
	period := flag.Uint64("period", 0, "PGSS FF period in ops (0 = 1M/scale)")
	interval := flag.Uint64("interval", 0, "SimPoint interval in ops (0 = 10M/scale)")
	k := flag.Int("k", 10, "SimPoint cluster count")
	diag := flag.Bool("diag", false, "print per-phase diagnostics (pgss)")
	guard := flag.Bool("guard", false, "enable the transition guard (pgss)")
	trace := flag.Int("trace", 0, "print first N sample events (pgss)")
	flag.Parse()

	ch, err := pgss.ParseChannel(*channel)
	check(err)

	spec, err := pgss.Benchmark(*bench)
	check(err)
	ctx := context.Background()
	prof, err := pgss.Record(ctx, spec, *ops, pgss.DefaultCoreConfig())
	check(err)
	fmt.Printf("%s: %d ops, true IPC %.4f\n", prof.Benchmark, prof.TotalOps, prof.TrueIPC())

	switch *technique {
	case "full":
		res, err := pgss.RunFull(prof)
		check(err)
		show(res)
	case "smarts":
		res, err := pgss.RunSMARTS(prof, pgss.DefaultSMARTSConfig(*scale))
		check(err)
		show(res)
	case "turbosmarts":
		res, err := pgss.RunTurboSMARTS(prof, pgss.DefaultTurboSMARTSConfig(*scale))
		check(err)
		show(res)
	case "simpoint":
		cfg := pgss.SimPointConfig{IntervalOps: *interval, K: *k, Seed: 1}
		if cfg.IntervalOps == 0 {
			cfg.IntervalOps = 10_000_000 / *scale
		}
		res, err := pgss.RunSimPoint(prof, cfg)
		check(err)
		show(res)
	case "onlinesimpoint":
		cfg := pgss.OnlineSimPointConfig{IntervalOps: *interval, ThresholdPi: *threshold}
		if cfg.IntervalOps == 0 {
			cfg.IntervalOps = 10_000_000 / *scale
		}
		res, err := pgss.RunOnlineSimPoint(prof, cfg)
		check(err)
		show(res)
	case "pgss":
		cfg := pgss.DefaultPGSSConfig(*scale)
		cfg.Channel = ch
		cfg.ThresholdPi = *threshold
		if *period != 0 {
			cfg.FFOps = *period
		}
		cfg.Trace = *trace > 0
		cfg.GuardTransitions = *guard
		res, st, err := pgss.RunPGSS(ctx, pgss.NewSource(prof), cfg, pgss.ParallelOptions{})
		check(err)
		show(res)
		fmt.Printf("phases=%d transitions=%d taken=%d skipped=%d deferred=%d unsampled_ops=%d\n",
			st.Phases, st.Transitions, st.SamplesTaken, st.SamplesSkipped,
			st.SpreadDeferrals, st.UnsampledOps)
		if *diag {
			diagnose(st)
		}
		for i, ev := range st.SampleTrace {
			if i >= *trace {
				break
			}
			fmt.Printf("sample %4d: pos=%-12d phase=%-3d cpi=%.3f\n", i, ev.Pos, ev.PhaseID, ev.CPI)
		}
	case "stratified":
		cfg := pgss.DefaultStratifiedConfig(*scale)
		if *interval != 0 {
			cfg.IntervalOps = *interval
		}
		cfg.ThresholdPi = *threshold
		res, err := pgss.RunStratified(prof, cfg)
		check(err)
		show(res)
	case "2pss":
		cfg := pgss.DefaultTwoPhaseConfig(*scale)
		cfg.Channel = ch
		cfg.ThresholdPi = *threshold
		if *interval != 0 {
			cfg.IntervalOps = *interval
		}
		res, err := pgss.RunTwoPhase(prof, cfg)
		check(err)
		show(res)
	case "rss":
		cfg := pgss.DefaultRankedSetConfig(*scale)
		cfg.Channel = ch
		if *interval != 0 {
			cfg.IntervalOps = *interval
		}
		res, err := pgss.RunRankedSet(prof, cfg)
		check(err)
		show(res)
	case "adaptive":
		cfg := pgss.DefaultAdaptiveConfig(*scale)
		res, ast, err := pgss.RunAdaptivePGSS(ctx, prof, cfg)
		check(err)
		show(res)
		fmt.Printf("final parameters: FF=%d ops, threshold .%03dπ (%d restarts)\n",
			ast.FinalFFOps, int(ast.FinalThresholdPi*1000+0.5), ast.Restarts)
		for _, a := range ast.Adjustments {
			fmt.Println("  " + a)
		}
	default:
		check(fmt.Errorf("unknown technique %q", *technique))
	}
}

func show(res pgss.Result) {
	fmt.Printf("%s[%s]: est=%.4f err=%.3f%% samples=%d\n",
		res.Technique, res.Config, res.EstimatedIPC, res.ErrorPct(), res.Samples)
	fmt.Printf("costs: detailed=%d warm=%d functional=%d plainFF=%d (detailed total %.3f%% of program)\n",
		res.Costs.Detailed, res.Costs.DetailedWarm, res.Costs.FunctionalWarm, res.Costs.PlainFF,
		float64(res.Costs.DetailedTotal())/float64(res.Costs.Total()+1)*100)
}

// diagnose prints the per-phase ledger of a PGSS run.
func diagnose(st pgss.PGSSStats) {
	fmt.Println("\nper-phase diagnostics:")
	fmt.Printf("%6s %10s %8s %10s %10s %8s\n", "phase", "windows", "samples", "meanCPI", "cvCPI", "ops%")
	phases := st.PhaseDiags
	sort.Slice(phases, func(i, j int) bool { return phases[i].Ops > phases[j].Ops })
	var total uint64
	for _, p := range phases {
		total += p.Ops
	}
	for i, p := range phases {
		if i >= 20 {
			fmt.Printf("   ... %d more phases\n", len(phases)-i)
			break
		}
		fmt.Printf("%6d %10d %8d %10.3f %10.3f %7.2f%%\n",
			p.ID, p.Intervals, p.Samples, p.MeanCPI, p.CVCPI,
			float64(p.Ops)/float64(total)*100)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgss-sim:", err)
		os.Exit(1)
	}
}
