// Command pgss-trace generates and replays cycle-close phase traces —
// trace-driven simulation in the style of Pereira et al. (the paper's
// closest related work).
//
// Usage:
//
//	pgss-trace -bench 188.ammp -ops 20000000             # capture + replay
//	pgss-trace -bench 188.ammp -policy first              # Pereira-faithful
//
// The tool captures one representative trace per detected phase (with its
// cache/predictor state), replays the bundle through a fresh pipeline, and
// compares the trace-driven IPC estimate against full-simulation truth.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"pgss"
	"pgss/internal/trace"
)

func main() {
	bench := flag.String("bench", "188.ammp", "benchmark name")
	ops := flag.Uint64("ops", 20_000_000, "program length in ops")
	interval := flag.Uint64("interval", 100_000, "phase interval in ops")
	threshold := flag.Float64("threshold", 0.05, "BBV angle threshold (fraction of π)")
	policy := flag.String("policy", "median", "representative policy: first|median")
	flag.Parse()

	spec, err := pgss.Benchmark(*bench)
	check(err)
	prog, err := spec.Build(*ops)
	check(err)

	var pol trace.RepPolicy
	switch *policy {
	case "first":
		pol = pgss.RepFirst
	case "median":
		pol = pgss.RepMedian
	default:
		check(fmt.Errorf("unknown policy %q", *policy))
	}

	cc := pgss.DefaultCoreConfig()
	t0 := time.Now()
	traces, err := pgss.CapturePhaseTraces(prog, cc, *interval, *threshold, pol)
	check(err)
	var bytesTotal int
	for _, pt := range traces {
		bytesTotal += len(pt.Data)
	}
	fmt.Printf("%s: captured %d phase traces (%.1f MB, %s policy) in %v\n",
		prog.Name, len(traces), float64(bytesTotal)/1e6, *policy,
		time.Since(t0).Round(time.Millisecond))
	fmt.Printf("%6s %10s %12s %12s\n", "phase", "weight", "start_op", "trace_ops")
	for _, pt := range traces {
		fmt.Printf("%6d %9.2f%% %12d %12d\n", pt.PhaseID, pt.Weight*100, pt.StartOp, pt.Ops)
	}

	t0 = time.Now()
	est, err := pgss.EstimateIPCFromTraces(traces, cc)
	check(err)
	replayDur := time.Since(t0)

	truth, err := pgss.Record(context.Background(), spec, *ops, cc)
	check(err)
	errPct := abs(est-truth.TrueIPC()) / truth.TrueIPC() * 100
	fmt.Printf("\ntrace-driven estimate: %.4f in %v\n", est, replayDur.Round(time.Millisecond))
	fmt.Printf("full-simulation truth: %.4f\n", truth.TrueIPC())
	fmt.Printf("error: %.2f%%\n", errPct)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgss-trace:", err)
		os.Exit(1)
	}
}
