// Livepoints: the paper's first future-work item — accelerate sampling
// with TurboSMARTS-style live-points (§7). One functional-warming pass
// records full simulator checkpoints; afterwards any position in the run
// can be sampled in any order by restoring the nearest checkpoint and
// warming a short distance, instead of fast-forwarding from the start.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"pgss"
	"pgss/internal/stats"
)

func main() {
	bench := flag.String("bench", "197.parser", "benchmark name")
	ops := flag.Uint64("ops", 5_000_000, "program length in ops")
	stride := flag.Uint64("stride", 500_000, "checkpoint stride in ops")
	samples := flag.Int("n", 24, "random-order samples to take")
	flag.Parse()

	spec, err := pgss.Benchmark(*bench)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := spec.Build(*ops)
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth for comparison.
	truth, err := pgss.Record(context.Background(), spec, *ops, pgss.DefaultCoreConfig())
	if err != nil {
		log.Fatal(err)
	}

	// One warming pass records the checkpoint library.
	t0 := time.Now()
	lib, err := pgss.RecordCheckpoints(prog, pgss.DefaultCoreConfig(), *stride)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: recorded %d live-points (stride %d ops) in %v\n",
		prog.Name, lib.Len(), lib.StrideOps(), time.Since(t0).Round(time.Millisecond))

	// Random-order sampling: the access pattern TurboSMARTS uses and the
	// paper wants for PGSS.
	worker, err := pgss.NewCheckpointWorker(prog, pgss.DefaultCoreConfig())
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var cpis []float64
	var seekTotal uint64
	t0 = time.Now()
	for i := 0; i < *samples; i++ {
		pos := uint64(rng.Int63n(int64(truth.TotalOps - 10_000)))
		pos -= pos % 1000
		ipc, seekOps, err := lib.SampleAt(worker, pos, 3000, 1000)
		if err != nil {
			log.Fatal(err)
		}
		seekTotal += seekOps
		cpis = append(cpis, 1/ipc)
	}
	dur := time.Since(t0)

	est := 1 / stats.Mean(cpis)
	fmt.Printf("%d random-order samples in %v (mean seek %d warm ops per sample)\n",
		*samples, dur.Round(time.Millisecond), seekTotal/uint64(*samples))
	fmt.Printf("estimate %.4f vs true %.4f (%.2f%% error from %d ops of detailed simulation)\n",
		est, truth.TrueIPC(),
		abs(est-truth.TrueIPC())/truth.TrueIPC()*100, *samples*4000)
	fmt.Println("without live-points, each out-of-order sample would re-simulate from the program start.")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
