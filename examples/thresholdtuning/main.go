// Thresholdtuning: explore how the BBV angle threshold drives the
// phase-count / accuracy / detail trade-off of PGSS-Sim on one benchmark —
// the per-benchmark tuning question the paper's §4 and Fig 10/11 study.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"pgss"
)

func main() {
	bench := flag.String("bench", "300.twolf", "benchmark name")
	ops := flag.Uint64("ops", 30_000_000, "program length in ops")
	flag.Parse()

	spec, err := pgss.Benchmark(*bench)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	prof, err := pgss.Record(ctx, spec, *ops, pgss.DefaultCoreConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d ops, true IPC %.4f\n\n", prof.Benchmark, prof.TotalOps, prof.TrueIPC())
	fmt.Printf("%-10s %8s %12s %9s %8s %14s\n",
		"threshold", "phases", "transitions", "samples", "error", "detailed(ops)")

	base := pgss.DefaultPGSSConfig(pgss.DefaultScale)
	bestErr, bestTh := -1.0, 0.0
	for _, th := range []float64{0.025, 0.05, 0.10, 0.15, 0.20, 0.25, 0.35, 0.50} {
		cfg := base
		cfg.ThresholdPi = th
		res, st, err := pgss.RunPGSS(ctx, pgss.NewTarget(prof), cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf(".%03dπ %11d %12d %9d %7.2f%% %14d\n",
			int(th*1000+0.5), st.Phases, st.Transitions, st.SamplesTaken,
			res.ErrorPct(), res.Costs.DetailedTotal())
		if bestErr < 0 || res.ErrorPct() < bestErr {
			bestErr, bestTh = res.ErrorPct(), th
		}
	}
	fmt.Printf("\nbest threshold for %s: .%03dπ (%.2f%% error)\n", prof.Benchmark, int(bestTh*1000+0.5), bestErr)
	fmt.Println("low thresholds split real phases (more samples); high thresholds merge distinct behaviours (more error).")
}
