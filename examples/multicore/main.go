// Multicore: the paper's §7 extension — sampled simulation of a chip
// multiprocessor. Two benchmarks co-run on a two-core CMP sharing the L2;
// one interleaved detailed pass records per-core profiles with the cache
// interference baked in, and PGSS then estimates each core's IPC from a
// small detailed fraction.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"pgss"
	"pgss/internal/bbv"
	"pgss/internal/cmp"
	"pgss/internal/program"
)

func main() {
	benchA := flag.String("a", "183.equake", "benchmark on core 0")
	benchB := flag.String("b", "181.mcf", "benchmark on core 1")
	ops := flag.Uint64("ops", 10_000_000, "ops per core")
	flag.Parse()

	build := func(name string) *program.Program {
		spec, err := pgss.Benchmark(name)
		if err != nil {
			log.Fatal(err)
		}
		prog, err := spec.Build(*ops)
		if err != nil {
			log.Fatal(err)
		}
		return prog
	}

	// Solo baselines: each benchmark alone on the machine.
	ctx := context.Background()
	solo := map[string]float64{}
	for _, name := range []string{*benchA, *benchB} {
		spec, _ := pgss.Benchmark(name)
		prof, err := pgss.Record(ctx, spec, *ops, pgss.DefaultCoreConfig())
		if err != nil {
			log.Fatal(err)
		}
		solo[name] = prof.TrueIPC()
	}

	// Co-run on the CMP.
	hash := bbv.MustNewHash(bbv.DefaultHashBits, 42)
	machine, err := cmp.New([]*program.Program{build(*benchA), build(*benchB)}, hash, cmp.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	profs, err := machine.Record()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("two-core CMP, shared 1 MB L2 (%d ops per core)\n\n", *ops)
	fmt.Printf("%-6s %-14s %10s %10s %10s %12s %8s %14s\n",
		"core", "benchmark", "solo_IPC", "corun_IPC", "slowdown", "PGSS_IPC", "err", "detailed(ops)")
	cfg := pgss.DefaultPGSSConfig(pgss.DefaultScale)
	for i, prof := range profs {
		res, _, err := pgss.RunPGSS(ctx, pgss.NewSource(prof), cfg, pgss.ParallelOptions{})
		if err != nil {
			log.Fatal(err)
		}
		s := solo[prof.Benchmark]
		fmt.Printf("%-6d %-14s %10.4f %10.4f %9.1f%% %12.4f %7.2f%% %14d\n",
			i, prof.Benchmark, s, prof.TrueIPC(), (1-prof.TrueIPC()/s)*100,
			res.EstimatedIPC, res.ErrorPct(), res.Costs.DetailedTotal())
	}
	fmt.Printf("\nshared L2: %.2f%% miss rate under contention\n",
		machine.SharedL2().Stats().MissRate()*100)
	fmt.Println("PGSS estimates each core's interference-inclusive IPC from a sub-1% detailed fraction.")
}
