// Benchmark harness: one testing.B benchmark per paper figure, each
// regenerating that figure's rows/series and reporting its headline metric
// via b.ReportMetric, plus the design-choice ablations from DESIGN.md and
// microbenchmarks of the simulator substrate.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The figure benches run at a reduced benchmark size so the full suite
// regenerates in minutes; `cmd/pgss-bench` regenerates the figures at full
// size with on-disk profile caching.
package pgss_test

import (
	"context"
	"sync"
	"testing"

	"pgss"
	"pgss/internal/bbv"
	"pgss/internal/cluster"
	"pgss/internal/cpu"
	"pgss/internal/experiments"
	"pgss/internal/faultinject"
	"pgss/internal/workload"
)

// benchSuite is shared across figure benchmarks so profiles record once.
var (
	benchSuiteOnce sync.Once
	benchSuiteVal  *experiments.Suite
)

func benchSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchSuiteOnce.Do(func() {
		benchSuiteVal = experiments.MustNewSuite(experiments.Options{
			Scale:    10,
			TotalOps: 30_000_000,
			HashSeed: 42,
			Quiet:    true,
		})
	})
	return benchSuiteVal
}

// figBench regenerates one figure per iteration and reports the chosen
// metrics.
func figBench(b *testing.B, id string, metrics ...string) {
	s := benchSuite(b)
	// Warm the profile cache outside the timed region.
	if _, err := experiments.Run(s, id); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rep interface{ Metric(string) float64 }
	_ = rep
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(s, id)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, m := range metrics {
				if v, ok := r.Metrics[m]; ok {
					b.ReportMetric(v, m)
				}
			}
		}
	}
}

// BenchmarkFig02 regenerates Figure 2 (gzip IPC vs ops at four sampling
// periods) and reports how much fine-grained variation coarse sampling
// hides.
func BenchmarkFig02(b *testing.B) {
	figBench(b, "fig2", "sigma_finest_over_coarsest")
}

// BenchmarkFig03 regenerates Figure 3 (wupwise IPC over time and its
// polymodal distribution).
func BenchmarkFig03(b *testing.B) {
	figBench(b, "fig3", "distribution_modes")
}

// BenchmarkFig07 regenerates Figure 7 (2-D IPC-change vs BBV-change
// distribution over the ten benchmarks).
func BenchmarkFig07(b *testing.B) {
	figBench(b, "fig7", "large_ipc_changes_above_.05pi_pct")
}

// BenchmarkFig08 regenerates Figure 8 (% of IPC changes caught vs
// threshold).
func BenchmarkFig08(b *testing.B) {
	figBench(b, "fig8", "catch_.05pi_.3sigma_pct")
}

// BenchmarkFig09 regenerates Figure 9 (false-positive rate vs threshold).
func BenchmarkFig09(b *testing.B) {
	figBench(b, "fig9", "falsepos_.05pi_.3sigma_pct")
}

// BenchmarkFig10 regenerates Figure 10 (threshold effects on 300.twolf
// phase characteristics).
func BenchmarkFig10(b *testing.B) {
	figBench(b, "fig10", "phases_.05pi", "ipcvar_.05pi_sigma")
}

// BenchmarkFig11 regenerates Figure 11 (PGSS error across BBV periods and
// thresholds with A/G-means).
func BenchmarkFig11(b *testing.B) {
	figBench(b, "fig11", "best_amean_pct")
}

// BenchmarkFig12 regenerates Figure 12 (error and detailed-simulation
// volume for all techniques) and reports the paper's headline ratios.
func BenchmarkFig12(b *testing.B) {
	figBench(b, "fig12",
		"detail_ratio_smarts_over_pgss",
		"detail_ratio_simpoint_over_pgss",
		"detail_ratio_turbo_over_pgss",
		"err_amean_PGSS(best)")
}

// BenchmarkFig13 regenerates Figure 13 (total simulation time per
// technique under the paper's per-mode rates).
func BenchmarkFig13(b *testing.B) {
	figBench(b, "fig13", "detailed_sec_PGSS-Sim", "total_sec_PGSS-Sim")
}

// Ablation benchmarks (DESIGN.md): each runs the corresponding slice of
// the ablation report.

// BenchmarkAblationDistance compares the angle metric with SimPoint's
// Manhattan distance for online phase detection.
func BenchmarkAblationDistance(b *testing.B) {
	figBench(b, "ablation", "angle_err", "manhattan_best_err")
}

// BenchmarkAblationSpread measures the sample spread rule's effect.
func BenchmarkAblationSpread(b *testing.B) {
	figBench(b, "ablation", "spread_on_err", "spread_off_err")
}

// BenchmarkAblationClassify measures the current-phase-first comparison
// savings.
func BenchmarkAblationClassify(b *testing.B) {
	figBench(b, "ablation", "comparisons_saved_pct")
}

// BenchmarkAblationConfidence compares confidence-bound stopping with
// fixed per-phase budgets.
func BenchmarkAblationConfidence(b *testing.B) {
	figBench(b, "ablation", "confidence_err", "fixed8_err", "fixed32_err")
}

// BenchmarkAblationHashBits sweeps the BBV hash width.
func BenchmarkAblationHashBits(b *testing.B) {
	figBench(b, "ablation", "hash3_err", "hash5_err", "hash8_err")
}

// Substrate microbenchmarks.

func buildBenchProgram(b *testing.B) *pgss.Program {
	b.Helper()
	spec, err := workload.Get("164.gzip")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := spec.Build(2_000_000)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkSimulatorDetailed measures cycle-accurate simulation speed.
func BenchmarkSimulatorDetailed(b *testing.B) {
	prog := buildBenchProgram(b)
	core, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		b.Fatal(err)
	}
	var r cpu.Retired
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.StepDetailed(&r) {
			b.StopTimer()
			core.M.Reset()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkSimulatorWarm measures functional-warming speed (the SMARTS and
// PGSS fast-forward mode).
func BenchmarkSimulatorWarm(b *testing.B) {
	prog := buildBenchProgram(b)
	core, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		b.Fatal(err)
	}
	var r cpu.Retired
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.StepWarm(&r) {
			b.StopTimer()
			core.M.Reset()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkSimulatorFF measures plain fast-forward speed (SimPoint's
// profiling mode).
func BenchmarkSimulatorFF(b *testing.B) {
	prog := buildBenchProgram(b)
	core, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		b.Fatal(err)
	}
	var r cpu.Retired
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.StepFF(&r) {
			b.StopTimer()
			core.M.Reset()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
}

// BenchmarkBBVTracker measures the per-branch BBV tracking overhead.
func BenchmarkBBVTracker(b *testing.B) {
	tr := bbv.NewTracker(bbv.MustNewHash(5, 42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RetireOps(7)
		tr.TakenBranch(uint64(i) * 4)
	}
}

// BenchmarkKMeans measures SimPoint clustering of a realistic BBV set.
func BenchmarkKMeans(b *testing.B) {
	s := benchSuite(b)
	p, err := s.Profile("164.gzip")
	if err != nil {
		b.Fatal(err)
	}
	points, err := p.BBVSeries(100_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.KMeans(points, cluster.Config{K: 10, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPGSSReplay measures a full PGSS pass over a recorded profile.
func BenchmarkPGSSReplay(b *testing.B) {
	s := benchSuite(b)
	p, err := s.Profile("164.gzip")
	if err != nil {
		b.Fatal(err)
	}
	cfg := pgss.DefaultPGSSConfig(pgss.DefaultScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pgss.RunPGSS(context.Background(), pgss.NewTarget(p), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// campaignMacro resolves every artifact a campaign needs through the
// suite's store — the profile and the checkpoint library of each benchmark
// (cold: recorded by detailed simulation; warm: loaded from the store) —
// then runs a multi-seed replay campaign over them. Checkpoint-accelerated
// live sampling is timed separately (its per-run simulation cost is the
// same cold and warm and would mask the dedup ratio this benchmark
// measures).
func campaignMacro(b *testing.B, s *experiments.Suite) {
	b.Helper()
	for _, name := range []string{"197.parser", "177.mesa"} {
		if _, err := s.CheckpointLibrary(name); err != nil {
			b.Fatal(err)
		}
	}
	specs := experiments.CampaignSpecs(
		[]string{"197.parser", "177.mesa"}, []string{"PGSS", "2PSS", "RSS"}, 3)
	for _, sp := range specs {
		if _, err := s.CampaignRun(context.Background(), sp); err != nil {
			b.Fatalf("%v: %v", sp, err)
		}
	}
}

// BenchmarkCampaignMacro measures the artifact store's reason to exist:
// the same campaign cold (every profile and checkpoint library recorded
// into an empty store) versus warm (a fresh suite — a new process — over
// an already-populated store). The cold/warm ns/op ratio is the
// cross-campaign dedup speedup.
func BenchmarkCampaignMacro(b *testing.B) {
	opts := experiments.Options{
		Scale: 10, TotalOps: 400_000, HashSeed: 42, Quiet: true,
		ArtifactDir: "store",
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := opts
			o.FS = faultinject.NewMemFS()
			campaignMacro(b, experiments.MustNewSuite(o))
		}
	})
	b.Run("warm", func(b *testing.B) {
		o := opts
		o.FS = faultinject.NewMemFS()
		// Populate the store outside the timed region; each iteration then
		// opens a fresh suite over it, as a new campaign process would.
		campaignMacro(b, experiments.MustNewSuite(o))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			campaignMacro(b, experiments.MustNewSuite(o))
		}
	})
}

// BenchmarkLivePhased runs PGSS-Live with 2 shards and 2 sample workers
// over the six well-phased programs at scale 10 and 20M ops, as the
// benchmark module's live-phased workload does, and reports simulated
// Mops/s. The profiles and checkpoint libraries are recorded before the
// timer starts; `make profile PROFILE_BENCH=BenchmarkLivePhased` profiles
// it, and pprof's -focus 'CampaignRun|internal/parallel\.' keeps only the
// runs' samples.
func BenchmarkLivePhased(b *testing.B) {
	benchLive(b, "164.gzip", "177.mesa", "183.equake", "188.ammp", "256.bzip2", "300.twolf")
}

// BenchmarkLiveChurn is BenchmarkLivePhased over the four micro-phase
// programs of the benchmark module's live-churn workload, which take a
// sample about every other window, so checkpoint restores dominate.
func BenchmarkLiveChurn(b *testing.B) {
	benchLive(b, "179.art", "181.mcf", "197.parser", "253.perlbmk")
}

func benchLive(b *testing.B, names ...string) {
	s := experiments.MustNewSuite(experiments.Options{
		Scale: 10, TotalOps: 20_000_000, HashSeed: 42, Quiet: true,
		Shards: 2, SampleWorkers: 2,
	})
	specs := experiments.CampaignSpecs(names, []string{"PGSS-Live"}, 1)
	for _, sp := range specs {
		if _, err := s.Profile(sp.Benchmark); err != nil {
			b.Fatal(err)
		}
		if _, err := s.CheckpointLibrary(sp.Benchmark); err != nil {
			b.Fatal(err)
		}
	}
	var ops uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, sp := range specs {
			res, err := s.CampaignRun(context.Background(), sp)
			if err != nil {
				b.Fatalf("%v: %v", sp, err)
			}
			ops += res.Costs.Total()
		}
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds()/1e6, "Mops/s")
}
