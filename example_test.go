package pgss_test

import (
	"context"
	"fmt"
	"reflect"

	"pgss"
)

// ExampleRunPGSS is the documented quick-start flow: record one detailed
// pass of a built-in benchmark as the ground truth, then estimate its IPC
// with PGSS-Sim and check the estimate lands within the paper's regime.
func ExampleRunPGSS() {
	ctx := context.Background()
	spec, err := pgss.Benchmark("164.gzip")
	if err != nil {
		fmt.Println(err)
		return
	}
	prof, err := pgss.Record(ctx, spec, 2_000_000, pgss.DefaultCoreConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	res, st, err := pgss.RunPGSS(ctx, pgss.NewTarget(prof), pgss.DefaultPGSSConfig(pgss.DefaultScale))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("estimated within 10% of truth:", res.ErrorPct() < 10)
	fmt.Println("found phases:", st.Phases > 0)
	fmt.Println("sampled a fraction of the run:", res.Costs.DetailedTotal() < prof.TotalOps/10)
	// Output:
	// estimated within 10% of truth: true
	// found phases: true
	// sampled a fraction of the run: true
}

// ExampleRunPGSSParallel shows the checkpoint-sharded parallel engine and
// its core guarantee: for any shard/worker layout the Result is
// bit-identical to the serial engine's.
func ExampleRunPGSSParallel() {
	ctx := context.Background()
	spec, err := pgss.Benchmark("164.gzip")
	if err != nil {
		fmt.Println(err)
		return
	}
	prof, err := pgss.Record(ctx, spec, 2_000_000, pgss.DefaultCoreConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	cfg := pgss.DefaultPGSSConfig(pgss.DefaultScale)
	serial, serialStats, err := pgss.RunPGSS(ctx, pgss.NewTarget(prof), cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	par, parStats, err := pgss.RunPGSSParallel(ctx, pgss.NewSource(prof), cfg, pgss.ParallelOptions{Shards: 4, SampleWorkers: 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("parallel result identical to serial:", reflect.DeepEqual(par, serial))
	fmt.Println("parallel stats identical to serial:", reflect.DeepEqual(parStats, serialStats))
	// Output:
	// parallel result identical to serial: true
	// parallel stats identical to serial: true
}
