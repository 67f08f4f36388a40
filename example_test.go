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
	res, st, err := pgss.RunPGSS(ctx, pgss.NewSource(prof),
		pgss.DefaultPGSSConfig(pgss.DefaultScale), pgss.ParallelOptions{})
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

// ExampleRunPGSS_layouts shows the checkpoint-sharded engine's core
// guarantee: the Result and statistics are bit-identical for every
// shard/worker layout.
func ExampleRunPGSS_layouts() {
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
	src := pgss.NewSource(prof)
	one, oneStats, err := pgss.RunPGSS(ctx, src, cfg, pgss.ParallelOptions{Shards: 1, SampleWorkers: 1})
	if err != nil {
		fmt.Println(err)
		return
	}
	four, fourStats, err := pgss.RunPGSS(ctx, src, cfg, pgss.ParallelOptions{Shards: 4, SampleWorkers: 4})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("4x4 result identical to 1x1:", reflect.DeepEqual(four, one))
	fmt.Println("4x4 stats identical to 1x1:", reflect.DeepEqual(fourStats, oneStats))
	// Output:
	// 4x4 result identical to 1x1: true
	// 4x4 stats identical to 1x1: true
}
