// Designspace: the workload the paper's introduction motivates — design
// space exploration. We sweep the L2 cache size, estimating each design's
// IPC with PGSS-Sim *live* (driving the simulator, no prerecorded profile)
// on the sharded engine over a checkpoint every FF period, and validating
// against full detailed simulation. The point: PGSS ranks the designs
// identically while simulating only a fraction of the ops in detail.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"pgss"
)

func main() {
	ops := flag.Uint64("ops", 20_000_000, "program length in ops per design")
	flag.Parse()

	spec, err := pgss.Benchmark("183.equake")
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	cfg := pgss.DefaultPGSSConfig(pgss.DefaultScale)

	l2Sizes := []int{256 << 10, 512 << 10, 1 << 20, 2 << 20}
	fmt.Printf("L2 design sweep on %s (%d ops per design)\n\n", spec.Name, *ops)
	fmt.Printf("%-8s %10s %10s %8s %16s %12s %12s\n",
		"L2", "true_IPC", "PGSS_IPC", "err", "detailed(ops)", "full_time", "pgss_time")

	type design struct {
		name    string
		trueIPC float64
		pgssIPC float64
	}
	var designs []design
	for _, size := range l2Sizes {
		cc := pgss.DefaultCoreConfig()
		cc.Hierarchy.L2.SizeBytes = size

		// Ground truth: full detailed simulation of this design.
		t0 := time.Now()
		prof, err := pgss.Record(ctx, spec, *ops, cc)
		if err != nil {
			log.Fatal(err)
		}
		fullTime := time.Since(t0)

		// PGSS live: one checkpoint pass, then fresh simulations from those
		// checkpoints, detailed only where phases demand it. The truth run
		// above supplies only the program length and the reference IPC.
		prog, err := spec.Build(*ops)
		if err != nil {
			log.Fatal(err)
		}
		t0 = time.Now()
		lib, err := pgss.RecordCheckpoints(prog, cc, cfg.FFOps)
		if err != nil {
			log.Fatal(err)
		}
		src, err := pgss.NewLiveSource(lib, prog, cc, prof.TotalOps, prof.TrueIPC())
		if err != nil {
			log.Fatal(err)
		}
		res, _, err := pgss.RunPGSS(ctx, src, cfg, pgss.ParallelOptions{})
		if err != nil {
			log.Fatal(err)
		}
		pgssTime := time.Since(t0)

		fmt.Printf("%-8s %10.4f %10.4f %7.2f%% %16d %12v %12v\n",
			fmt.Sprintf("%dKB", size>>10), prof.TrueIPC(), res.EstimatedIPC,
			res.ErrorPct(), res.Costs.DetailedTotal(),
			fullTime.Round(time.Millisecond), pgssTime.Round(time.Millisecond))
		designs = append(designs, design{fmt.Sprintf("%dKB", size>>10), prof.TrueIPC(), res.EstimatedIPC})
	}

	// Verify the ranking agrees.
	agree := true
	for i := 1; i < len(designs); i++ {
		if (designs[i].trueIPC > designs[i-1].trueIPC) != (designs[i].pgssIPC > designs[i-1].pgssIPC) {
			agree = false
		}
	}
	if agree {
		fmt.Println("\nPGSS ranks all designs identically to full simulation.")
	} else {
		fmt.Println("\nWARNING: PGSS design ranking diverged from full simulation.")
	}
}
