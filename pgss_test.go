package pgss_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"pgss"
	"pgss/internal/isa"
)

func record(t testing.TB, name string, ops uint64) *pgss.Profile {
	t.Helper()
	spec, err := pgss.Benchmark(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pgss.Record(context.Background(), spec, ops, pgss.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBenchmarksListed(t *testing.T) {
	names := pgss.Benchmarks()
	if len(names) != 11 {
		t.Errorf("benchmarks: %v", names)
	}
	if _, err := pgss.Benchmark("164.gzip"); err != nil {
		t.Fatal(err)
	}
	if _, err := pgss.Benchmark("nothing"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	p := record(t, "164.gzip", 10_000_000)
	if p.TrueIPC() <= 0 {
		t.Fatal("no IPC recorded")
	}
	res, st, err := pgss.RunPGSS(context.Background(), pgss.NewTarget(p), pgss.DefaultPGSSConfig(pgss.DefaultScale))
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPct() > 10 {
		t.Errorf("quickstart error %.2f%%", res.ErrorPct())
	}
	if st.Phases == 0 || res.Costs.DetailedTotal() == 0 {
		t.Error("degenerate run")
	}
	if res.Costs.DetailedTotal() >= p.TotalOps/5 {
		t.Error("no detail reduction")
	}
}

func TestAllTechniquesThroughFacade(t *testing.T) {
	p := record(t, "256.bzip2", 10_000_000)
	const scale = pgss.DefaultScale

	if res, err := pgss.RunFull(p); err != nil || math.Abs(res.EstimatedIPC-p.TrueIPC())/p.TrueIPC() > 1e-3 {
		t.Errorf("full: %v %v", res, err)
	}
	if res, err := pgss.RunSMARTS(pgss.NewTarget(p), pgss.DefaultSMARTSConfig(scale)); err != nil || res.ErrorPct() > 10 {
		t.Errorf("smarts: %v %v", res, err)
	}
	if res, err := pgss.RunTurboSMARTS(p, pgss.DefaultTurboSMARTSConfig(scale)); err != nil || res.Samples == 0 {
		t.Errorf("turbosmarts: %v %v", res, err)
	}
	if res, err := pgss.RunSimPoint(p, pgss.SimPointConfig{IntervalOps: 1_000_000, K: 5, Seed: 1}); err != nil || res.Samples == 0 {
		t.Errorf("simpoint: %v %v", res, err)
	}
	if res, err := pgss.RunOnlineSimPoint(p, pgss.OnlineSimPointConfig{IntervalOps: 1_000_000, ThresholdPi: 0.1}); err != nil || res.Phases == 0 {
		t.Errorf("onlinesimpoint: %v %v", res, err)
	}
	sweep := pgss.SimPointSweep(scale)
	if len(sweep) != 11 {
		t.Errorf("simpoint sweep: %d", len(sweep))
	}
	if len(pgss.PGSSSweep(scale)) != 15 {
		t.Error("pgss sweep size")
	}
}

func TestLiveParallelThroughFacade(t *testing.T) {
	spec, err := pgss.Benchmark("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cc := pgss.DefaultCoreConfig()
	truth := record(t, "197.parser", 2_000_000)
	lib, err := pgss.RecordCheckpoints(prog, cc, 250_000)
	if err != nil {
		t.Fatal(err)
	}
	src, err := pgss.NewLiveSource(lib, prog, cc, truth.TotalOps, truth.TrueIPC())
	if err != nil {
		t.Fatal(err)
	}
	cfg := pgss.DefaultPGSSConfig(pgss.DefaultScale)
	cfg.Channel = pgss.ChannelBoth
	ctx := context.Background()
	one, oneSt, err := pgss.RunPGSSParallel(ctx, src, cfg, pgss.ParallelOptions{Shards: 1, SampleWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, fourSt, err := pgss.RunPGSSParallel(ctx, src, cfg, pgss.ParallelOptions{Shards: 4, SampleWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, four) || !reflect.DeepEqual(oneSt, fourSt) {
		t.Errorf("shard layout changed the live result:\n 1: %v %+v\n 4: %v %+v", one, oneSt, four, fourSt)
	}
	if one.Samples == 0 || one.ErrorPct() > 10 {
		t.Errorf("live parallel PGSS: %v", one)
	}
}

func TestDesignSpaceRankingPreserved(t *testing.T) {
	// The designspace example's claim as a test: PGSS ranks two L2 sizes
	// the same way full simulation does.
	spec, err := pgss.Benchmark("183.equake")
	if err != nil {
		t.Fatal(err)
	}
	const ops = 8_000_000
	type design struct{ trueIPC, estIPC float64 }
	var results []design
	for _, size := range []int{128 << 10, 1 << 20} {
		cc := pgss.DefaultCoreConfig()
		cc.Hierarchy.L2.SizeBytes = size
		prof, err := pgss.Record(context.Background(), spec, ops, cc)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := pgss.RunPGSS(context.Background(), pgss.NewTarget(prof), pgss.DefaultPGSSConfig(pgss.DefaultScale))
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, design{prof.TrueIPC(), res.EstimatedIPC})
	}
	if (results[0].trueIPC < results[1].trueIPC) != (results[0].estIPC < results[1].estIPC) {
		t.Errorf("design ranking diverged: %+v", results)
	}
}

func TestRecordWithCoreRespectsConfig(t *testing.T) {
	spec, err := pgss.Benchmark("181.mcf")
	if err != nil {
		t.Fatal(err)
	}
	small := pgss.DefaultCoreConfig()
	small.Hierarchy.L2.SizeBytes = 128 << 10
	pSmall, err := pgss.Record(context.Background(), spec, 3_000_000, small)
	if err != nil {
		t.Fatal(err)
	}
	pBig, err := pgss.Record(context.Background(), spec, 3_000_000, pgss.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	// mcf is L2-sensitive: a bigger L2 must not be slower.
	if pBig.TrueIPC() < pSmall.TrueIPC()*0.98 {
		t.Errorf("bigger L2 slower: %.4f vs %.4f", pBig.TrueIPC(), pSmall.TrueIPC())
	}
}

func TestPhaseTracesThroughFacade(t *testing.T) {
	spec, err := pgss.Benchmark("188.ammp")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	traces, err := pgss.CapturePhaseTraces(prog, pgss.DefaultCoreConfig(), 100_000, 0.05, pgss.RepMedian)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) == 0 {
		t.Fatal("no phase traces")
	}
	est, err := pgss.EstimateIPCFromTraces(traces, pgss.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	truth := record(t, "188.ammp", 3_000_000)
	rel := math.Abs(est-truth.TrueIPC()) / truth.TrueIPC()
	if rel > 0.10 {
		t.Errorf("trace estimate %.4f vs truth %.4f (%.1f%%)", est, truth.TrueIPC(), rel*100)
	}
}

func TestAdaptiveThroughFacade(t *testing.T) {
	p := record(t, "164.gzip", 15_000_000)
	res, ast, err := pgss.RunAdaptivePGSS(context.Background(), pgss.NewTarget(p), pgss.DefaultAdaptiveConfig(pgss.DefaultScale))
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPct() > 10 {
		t.Errorf("adaptive error %.2f%%", res.ErrorPct())
	}
	if ast.FinalFFOps == 0 {
		t.Error("missing final parameters")
	}
}

func TestStratifiedThroughFacade(t *testing.T) {
	p := record(t, "256.bzip2", 15_000_000)
	res, err := pgss.RunStratified(p, pgss.DefaultStratifiedConfig(pgss.DefaultScale))
	if err != nil {
		t.Fatal(err)
	}
	if res.ErrorPct() > 5 {
		t.Errorf("stratified error %.2f%%", res.ErrorPct())
	}
}

func TestCMPThroughFacade(t *testing.T) {
	build := func(name string) *pgss.Program {
		spec, err := pgss.Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := spec.Build(1_500_000)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	profs, err := pgss.RecordCMP([]*pgss.Program{build("177.mesa"), build("181.mcf")}, pgss.DefaultCMPConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(profs) != 2 || profs[0].TrueIPC() <= 0 || profs[1].TrueIPC() <= 0 {
		t.Errorf("CMP profiles wrong: %v", profs)
	}
}

func TestCheckpointsThroughFacade(t *testing.T) {
	spec, err := pgss.Benchmark("197.parser")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(600_000)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := pgss.RecordCheckpoints(prog, pgss.DefaultCoreConfig(), 200_000)
	if err != nil {
		t.Fatal(err)
	}
	worker, err := pgss.NewCheckpointWorker(prog, pgss.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	ipc, _, err := lib.SampleAt(worker, 300_000, 3000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if ipc <= 0 {
		t.Error("no sample IPC")
	}
}

// TestMalformedProgramsClassified: a malformed input is an invalid-config
// error at every facade entry that takes it: a hand-built program that
// fails validation or jumps out of its code at run time, a zero core
// configuration, no CMP programs, a zero trace interval, no phase traces,
// and a live source whose branch unit is smaller than the one its library
// was recorded on.
func TestMalformedProgramsClassified(t *testing.T) {
	ctx := context.Background()
	cc := pgss.DefaultCoreConfig()
	empty := &pgss.Program{Name: "empty"}
	wild := &pgss.Program{Name: "wild", Code: []isa.Inst{{Op: isa.JMP, Imm: 99}}}
	// Valid code whose computed jump leaves the code image at run time.
	wildJR := &pgss.Program{Name: "wild-jr", Code: []isa.Inst{
		{Op: isa.ADDI, Dst: 1, Imm: 99}, {Op: isa.JR, Src1: 1}, {Op: isa.HALT},
	}}
	spec, err := pgss.Benchmark("164.gzip")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(200_000)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := pgss.RecordCheckpoints(prog, cc, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	smallBTB := cc
	smallBTB.Branch.BTBEntries /= 2
	cases := []struct {
		name string
		call func() error
	}{
		{"RecordProgram(empty)", func() error { _, err := pgss.RecordProgram(ctx, empty, cc); return err }},
		{"RecordProgram(wild)", func() error { _, err := pgss.RecordProgram(ctx, wild, cc); return err }},
		{"RecordProgram(wild JR)", func() error { _, err := pgss.RecordProgram(ctx, wildJR, cc); return err }},
		{"NewLiveSource(empty)", func() error { _, err := pgss.NewLiveSource(lib, empty, cc, 200_000, 0); return err }},
		{"Record(zero CoreConfig)", func() error { _, err := pgss.Record(ctx, spec, 100_000, pgss.CoreConfig{}); return err }},
		{"RecordCMP(no programs)", func() error { _, err := pgss.RecordCMP(nil, pgss.DefaultCMPConfig()); return err }},
		{"CapturePhaseTraces(zero interval)", func() error {
			_, err := pgss.CapturePhaseTraces(prog, cc, 0, 0.05, pgss.RepFirst)
			return err
		}},
		{"EstimateIPCFromTraces(none)", func() error { _, err := pgss.EstimateIPCFromTraces(nil, cc); return err }},
		{"RunPGSSParallel(smaller BTB than the library's)", func() error {
			src, err := pgss.NewLiveSource(lib, prog, smallBTB, 200_000, 0)
			if err != nil {
				return err
			}
			_, _, err = pgss.RunPGSSParallel(ctx, src, pgss.DefaultPGSSConfig(10), pgss.ParallelOptions{Shards: 1, SampleWorkers: 1})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, pgss.ErrInvalidConfig) {
			t.Errorf("%s: got %v (%s), want ErrInvalidConfig", tc.name, err, pgss.ErrorKind(err))
		}
	}
}
