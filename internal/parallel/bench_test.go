package parallel

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/profile"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

var (
	benchOnce    sync.Once
	benchProfile *profile.Profile
	benchErr     error
)

func benchRecord() (*profile.Profile, error) {
	benchOnce.Do(func() {
		spec, err := workload.Get("188.ammp")
		if err != nil {
			benchErr = err
			return
		}
		prog, err := spec.Build(10_000_000)
		if err != nil {
			benchErr = err
			return
		}
		c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
		if err != nil {
			benchErr = err
			return
		}
		benchProfile, benchErr = profile.RecordContext(context.Background(), c, bbv.MustNewHash(5, 42), profile.DefaultConfig())
	})
	return benchProfile, benchErr
}

// BenchmarkRunSerial is the serial baseline the shard sweep is compared
// against.
func BenchmarkRunSerial(b *testing.B) {
	p, err := benchRecord()
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(10)
	cfg.FFOps = 50_000
	cfg.SpreadOps = 50_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.RunContext(context.Background(), sampling.NewProfileTarget(p), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunParallel sweeps the engine's concurrency on profile replay.
// Speedup over BenchmarkRunSerial scales with available CPUs; on a 1-CPU
// host the sweep documents the engine's overhead instead.
func BenchmarkRunParallel(b *testing.B) {
	p, err := benchRecord()
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(10)
	cfg.FFOps = 50_000
	cfg.SpreadOps = 50_000
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", w), func(b *testing.B) {
			opts := Options{Shards: w, SampleWorkers: w}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := Run(context.Background(), NewProfileSource(p), cfg, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLiveSourceWindows times one PGSS-Live shard over a recorded
// checkpoint library at the scale-10 window (100k ops) and a stride of four
// windows (the suite checkpoints every window; the wider stride keeps a
// fast-forward seek in the measurement): the seek from the nearest
// checkpoint to the shard's start, then the fast-forward through its
// windows with BBV tracking. Mops/s counts every op the shard's core steps.
func BenchmarkLiveSourceWindows(b *testing.B) {
	const (
		ffOps = 100_000
		first = 3 // between checkpoints, so the shard seeks 3 windows
	)
	src := liveSource(b, "188.ammp", 2_000_000, 4*ffOps, nil)
	out := make([]Window, 15)
	stepped := (first+uint64(len(out)))*ffOps - src.lib.Nearest(first*ffOps).Ops
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Windows(context.Background(), ffOps, first, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stepped)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}
