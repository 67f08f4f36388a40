// Compare: run every sampling technique of the paper on one benchmark and
// print the accuracy / detailed-simulation trade-off (a one-benchmark
// slice of the paper's Fig 12).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"pgss"
)

func main() {
	bench := flag.String("bench", "256.bzip2", "benchmark name")
	ops := flag.Uint64("ops", 50_000_000, "program length in ops")
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
	fmt.Printf("%-22s %10s %10s %14s %9s\n", "technique", "estimate", "error", "detailed(ops)", "samples")

	show := func(res pgss.Result, err error) {
		if err != nil {
			log.Fatalf("%s: %v", res.Technique, err)
		}
		fmt.Printf("%-22s %10.4f %9.2f%% %14d %9d\n",
			res.Technique+"("+res.Config+")", res.EstimatedIPC, res.ErrorPct(),
			res.Costs.DetailedTotal(), res.Samples)
	}

	const scale = pgss.DefaultScale
	show(pgss.RunSMARTS(prof, pgss.DefaultSMARTSConfig(scale)))
	show(pgss.RunTurboSMARTS(prof, pgss.DefaultTurboSMARTSConfig(scale)))
	show(pgss.RunSimPoint(prof, pgss.SimPointConfig{IntervalOps: 1_000_000, K: 10, Seed: 1}))
	show(pgss.RunOnlineSimPoint(prof, pgss.OnlineSimPointConfig{IntervalOps: 1_000_000, ThresholdPi: 0.10}))
	res, st, err := pgss.RunPGSS(ctx, pgss.NewSource(prof), pgss.DefaultPGSSConfig(scale), pgss.ParallelOptions{})
	show(res, err)
	fmt.Printf("\nPGSS detail: %d phases, %d spread-rule deferrals, %d windows already in bounds\n",
		st.Phases, st.SpreadDeferrals, st.SamplesSkipped)
}
