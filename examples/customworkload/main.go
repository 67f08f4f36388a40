// Customworkload: define your own benchmark through the public API — the
// path a downstream user takes to study their own phase structure. The
// workload DSL compiles kernels (working set, memory pattern, ILP, branch
// entropy) and a phase schedule into real code for the simulated machine;
// PGSS then estimates its IPC from a recorded profile.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"pgss"
)

func main() {
	ops := flag.Uint64("ops", 0, "program length in ops (0 = the spec's 25M default)")
	flag.Parse()

	// A made-up "database" workload: scans, probes, and planning bursts.
	spec := &pgss.WorkloadSpec{
		Name: "900.mydb",
		Kernels: []pgss.KernelSpec{
			// Sequential table scan over 2 MB: streams through the L2.
			{Name: "scan", Kind: pgss.KernelStream, WSWords: 256 << 10, ComputePerMem: 1},
			// Hash-join probe: pointer chasing in a 256 KB index.
			{Name: "probe", Kind: pgss.KernelPointer, WSWords: 32 << 10, ComputePerMem: 2},
			// Query planning: unpredictable branching over a small heap.
			{Name: "plan", Kind: pgss.KernelBranchy, WSWords: 4 << 10, TakenMask: 1},
		},
		Pattern: func(rng *rand.Rand, rep int) []pgss.Segment {
			return []pgss.Segment{
				{Kernel: 0, Ops: 2_000_000 + uint64(rng.Int63n(400_000))},
				{Kernel: 1, Ops: 1_200_000},
				{Kernel: 2, Ops: 600_000},
				{Kernel: 1, Ops: 800_000},
			}
		},
		DefaultOps: 25_000_000,
		Seed:       900,
	}

	ctx := context.Background()
	prof, err := pgss.Record(ctx, spec, *ops, pgss.DefaultCoreConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d ops, true IPC %.4f\n", prof.Benchmark, prof.TotalOps, prof.TrueIPC())

	res, st, err := pgss.RunPGSS(ctx, pgss.NewSource(prof), pgss.DefaultPGSSConfig(pgss.DefaultScale), pgss.ParallelOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PGSS: est %.4f (%.2f%% error), %d phases, %d detailed ops (%.2f%% of run)\n",
		res.EstimatedIPC, res.ErrorPct(), st.Phases, res.Costs.DetailedTotal(),
		float64(res.Costs.DetailedTotal())/float64(prof.TotalOps)*100)

	// How do the three behaviours differ? Ask the phase table.
	fmt.Println("\nper-phase sample allocation (unstable phases get more):")
	for i, n := range st.PerPhaseSamples {
		fmt.Printf("  phase %2d: %d samples\n", i, n)
	}
}
