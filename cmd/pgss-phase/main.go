// Command pgss-phase inspects a synthetic benchmark and analyses its phase
// structure: it builds the benchmark, records its detailed profile, prints
// the build, recording, cache/branch and interval-IPC statistics, then
// classifies the BBV stream at a chosen granularity and threshold and
// prints the phase table, transition statistics and the threshold-sweep
// characteristics of Fig 10.
//
// Usage:
//
//	pgss-phase -list
//	pgss-phase -bench 300.twolf [-ops N] [-gran 10000] [-threshold 0.05] [-series]
//	pgss-phase -bench 300.twolf -sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"pgss/internal/bbv"
	"pgss/internal/cpu"
	"pgss/internal/phase"
	"pgss/internal/profile"
	"pgss/internal/stats"
	"pgss/internal/workload"
)

func main() {
	list := flag.Bool("list", false, "list available benchmarks")
	bench := flag.String("bench", "300.twolf", "benchmark name")
	ops := flag.Uint64("ops", 0, "program length in ops (0 = benchmark default)")
	gran := flag.Uint64("gran", 10_000, "BBV window granularity in ops")
	threshold := flag.Float64("threshold", 0.05, "BBV angle threshold (fraction of π)")
	sweep := flag.Bool("sweep", false, "sweep thresholds 0..0.5π (Fig 10 style)")
	series := flag.Bool("series", false, "print the full interval-IPC series")
	flag.Parse()

	if *list {
		fmt.Println("available benchmarks:")
		for _, n := range workload.Names() {
			s, _ := workload.Get(n)
			fmt.Printf("  %-14s %d kernels, default %d ops\n", n, len(s.Kernels), s.DefaultOps)
		}
		return
	}

	prof := record(*bench, *ops)
	sigma, err := prof.IntervalStdDev(*gran)
	check(err)
	ipcs, err := prof.IPCSeries(*gran)
	check(err)
	fmt.Printf("interval IPC @%d ops: n=%d mean=%.4f σ=%.4f min=%.4f p50=%.4f max=%.4f\n",
		*gran, len(ipcs), stats.Mean(ipcs), stats.StdDev(ipcs),
		stats.Percentile(ipcs, 0), stats.Percentile(ipcs, 50), stats.Percentile(ipcs, 100))
	if *series {
		for i, x := range ipcs {
			fmt.Printf("%12d %.4f\n", uint64(i)**gran, x)
		}
	}
	fmt.Printf("%s: %d ops, true IPC %.4f, interval σ@%d = %.4f\n\n",
		prof.Benchmark, prof.TotalOps, prof.TrueIPC(), *gran, sigma)

	fullIPCs, bbvs, err := prof.FullWindowSeries(*gran)
	check(err)

	analyse := func(th float64) (*phase.Table, []int) {
		table := phase.MustNewTable(th * math.Pi)
		ids := table.ClassifySeries(bbvs, *gran)
		return table, ids
	}

	if *sweep {
		fmt.Printf("%-12s %8s %12s %18s %12s\n",
			"threshold", "phases", "transitions", "avg_interval(ops)", "ipc_var(σ)")
		for th := 0.0; th <= 0.50001; th += 0.025 {
			table, ids := analyse(th)
			fmt.Printf(".%03dπ %11d %12d %18.0f %12.3f\n",
				int(th*1000+0.5), table.NumPhases(), table.Transitions,
				table.MeanRunLength()*float64(*gran), table.WithinPhaseSigma(ids, fullIPCs, sigma))
		}
		return
	}

	table, ids := analyse(*threshold)
	fmt.Printf("threshold .%03dπ: %d phases, %d transitions, mean run %.0f ops\n\n",
		int(*threshold*1000+0.5), table.NumPhases(), table.Transitions,
		table.MeanRunLength()*float64(*gran))
	fmt.Printf("%6s %10s %8s %10s %10s\n", "phase", "windows", "ops%", "mean_ipc", "ipc_σ")
	var total uint64
	for _, p := range table.Phases() {
		total += p.Ops
	}
	acc := make([]stats.Running, table.NumPhases())
	for i, id := range ids {
		acc[id].Add(fullIPCs[i])
	}
	for _, p := range table.Phases() {
		fmt.Printf("%6d %10d %7.2f%% %10.4f %10.4f\n",
			p.ID, p.Intervals, float64(p.Ops)/float64(total)*100,
			acc[p.ID].Mean(), acc[p.ID].StdDev())
	}
	printMAVDiagnostics(prof, table, ids, *gran)
}

// printMAVDiagnostics prints the per-phase memory-access-vector table:
// access density (the MAV counts loads and stores combined) and how
// concentrated each phase's accesses are on its hottest hashed lines.
func printMAVDiagnostics(prof *profile.Profile, table *phase.Table, ids []int, gran uint64) {
	if !prof.HasMAV() {
		fmt.Printf("\n(no MAV channel: profile recorded with MAVBits=0)\n")
		return
	}
	if gran%prof.BBVOps != 0 {
		fmt.Printf("\n(MAV diagnostics skipped: granularity %d not a multiple of MAV granularity %d)\n",
			gran, prof.BBVOps)
		return
	}
	width := 1 << prof.MAVBits
	sums := make([]bbv.Vector, table.NumPhases())
	win := make(bbv.Vector, width)
	for i, id := range ids {
		ok, err := prof.MAVWindowInto(win, uint64(i)*gran, gran)
		check(err)
		if !ok {
			break
		}
		if sums[id] == nil {
			sums[id] = make(bbv.Vector, width)
		}
		sums[id].Add(win)
	}

	fmt.Printf("\nMAV channel (%d hashed lines; density counts loads+stores per op):\n", width)
	fmt.Printf("%6s %12s %12s %10s %10s\n",
		"phase", "accesses", "density", "top_line%", "top8_line%")
	for _, p := range table.Phases() {
		v := sums[p.ID]
		if v == nil || p.Ops == 0 {
			continue
		}
		var total float64
		top := make([]float64, 0, len(v))
		for _, c := range v {
			total += c
			top = append(top, c)
		}
		if total == 0 {
			continue
		}
		sort.Sort(sort.Reverse(sort.Float64Slice(top)))
		top8 := 0.0
		for i := 0; i < 8 && i < len(top); i++ {
			top8 += top[i]
		}
		fmt.Printf("%6d %12.0f %12.4f %9.2f%% %9.2f%%\n",
			p.ID, total, total/float64(p.Ops), top[0]/total*100, top8/total*100)
	}
}

// record builds the benchmark, records its detailed profile on the default
// core and prints the build, recording, cache and branch statistics.
func record(name string, ops uint64) *profile.Profile {
	spec, err := workload.Get(name)
	check(err)
	start := time.Now()
	prog, err := spec.Build(ops)
	check(err)
	fmt.Printf("built %s: %d instructions, %d data words (%.1f MB) in %v\n",
		prog.Name, len(prog.Code), len(prog.Data), float64(len(prog.Data))*8/1e6,
		time.Since(start).Round(time.Millisecond))

	m, err := cpu.NewMachine(prog)
	check(err)
	core, err := cpu.NewCore(m, cpu.DefaultCoreConfig())
	check(err)
	hash, err := bbv.NewHash(bbv.DefaultHashBits, 42) // the suite-wide BBV hash seed
	check(err)
	start = time.Now()
	p, err := profile.RecordContext(context.Background(), core, hash, profile.DefaultConfig())
	check(err)
	dur := time.Since(start)
	fmt.Printf("recorded: %d ops, %d cycles, IPC=%.4f (%.1f Mops/s detailed)\n",
		p.TotalOps, p.TotalCycles, p.TrueIPC(), float64(p.TotalOps)/dur.Seconds()/1e6)
	fmt.Printf("caches: L1I %.2f%% L1D %.2f%% L2 %.2f%% miss; branches %.2f%% mispredicted; wild=%d\n",
		core.Hier.L1I.Stats().MissRate()*100, core.Hier.L1D.Stats().MissRate()*100,
		core.Hier.L2.Stats().MissRate()*100, core.BP.Stats().MispredictRate()*100,
		m.WildAccesses)
	return p
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgss-phase:", err)
		os.Exit(1)
	}
}
