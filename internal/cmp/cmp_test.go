package cmp

import (
	"context"
	"reflect"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/profile"
	"pgss/internal/program"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

func buildProg(t *testing.T, name string, ops uint64) *program.Program {
	t.Helper()
	spec, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := spec.Build(ops)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func soloProfile(t *testing.T, name string, ops uint64) *profile.Profile {
	t.Helper()
	prog := buildProg(t, name, ops)
	c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := profile.RecordContext(context.Background(), c, bbv.MustNewHash(5, 42), profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValidation(t *testing.T) {
	hash := bbv.MustNewHash(5, 42)
	if _, err := New(nil, hash, DefaultConfig()); err == nil {
		t.Error("empty CMP accepted")
	}
	bad := DefaultConfig()
	bad.Profile.FineOps = 0
	if _, err := New([]*program.Program{buildProg(t, "177.mesa", 100_000)}, hash, bad); err == nil {
		t.Error("bad profile config accepted")
	}
}

func TestSingleCoreMatchesUniprocessor(t *testing.T) {
	// A one-core CMP is exactly the uniprocessor simulator, and records
	// exactly its profile: cycles, BBVs and MAVs.
	const ops = 2_000_000
	solo := soloProfile(t, "177.mesa", ops)

	hash := bbv.MustNewHash(5, 42)
	c, err := New([]*program.Program{buildProg(t, "177.mesa", ops)}, hash, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	profs, err := c.Record()
	if err != nil {
		t.Fatal(err)
	}
	if profs[0].TotalOps != solo.TotalOps || profs[0].TotalCycles != solo.TotalCycles {
		t.Errorf("one-core CMP diverged: %d/%d ops, %d/%d cycles",
			profs[0].TotalOps, solo.TotalOps, profs[0].TotalCycles, solo.TotalCycles)
	}
	if !profs[0].HasMAV() || !reflect.DeepEqual(profs[0], solo) {
		t.Error("one-core CMP profile differs from the uniprocessor's")
	}
}

func TestSharedL2Interference(t *testing.T) {
	// Co-running a cache-hungry benchmark must slow an L2-resident one
	// relative to its solo run.
	const ops = 2_000_000
	solo := soloProfile(t, "183.equake", ops)

	hash := bbv.MustNewHash(5, 42)
	c, err := New([]*program.Program{
		buildProg(t, "183.equake", ops),
		buildProg(t, "181.mcf", ops), // permutation chase over 4 MB
	}, hash, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	profs, err := c.Record()
	if err != nil {
		t.Fatal(err)
	}
	coIPC := profs[0].TrueIPC()
	soloIPC := solo.TrueIPC()
	if coIPC >= soloIPC {
		t.Errorf("no L2 interference: solo %.4f vs co-run %.4f", soloIPC, coIPC)
	}
	t.Logf("equake solo %.4f, with mcf %.4f (%.1f%% slowdown)",
		soloIPC, coIPC, (1-coIPC/soloIPC)*100)
}

func TestClocksStayInterleaved(t *testing.T) {
	const ops = 500_000
	hash := bbv.MustNewHash(5, 42)
	c, err := New([]*program.Program{
		buildProg(t, "177.mesa", ops),
		buildProg(t, "256.bzip2", ops),
	}, hash, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Record(); err != nil {
		t.Fatal(err)
	}
	// Both cores ran to completion.
	for i, cs := range c.cores {
		if !cs.Done() || cs.Ops() < ops {
			t.Errorf("core %d: done=%v ops=%d", i, cs.Done(), cs.Ops())
		}
	}
	if c.SharedL2().Stats().Accesses == 0 {
		t.Error("shared L2 untouched")
	}
}

// The headline CMP result: PGSS per core over co-run profiles estimates
// each core's (interference-inclusive) IPC accurately with a small
// detailed fraction.
func TestPGSSPerCore(t *testing.T) {
	const ops = 4_000_000
	hash := bbv.MustNewHash(5, 42)
	c, err := New([]*program.Program{
		buildProg(t, "177.mesa", ops),
		buildProg(t, "256.bzip2", ops),
	}, hash, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	profs, err := c.Record()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(10)
	cfg.FFOps = 50_000
	cfg.SpreadOps = 50_000
	for i, p := range profs {
		res, _, err := core.RunContext(context.Background(), sampling.NewProfileTarget(p), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.ErrorPct() > 8 {
			t.Errorf("core %d (%s): PGSS error %.2f%%", i, p.Benchmark, res.ErrorPct())
		}
		if res.Costs.DetailedTotal() > p.TotalOps/10 {
			t.Errorf("core %d: no detail reduction", i)
		}
	}
}

func TestPerCoreProfileConservation(t *testing.T) {
	const ops = 1_000_000
	hash := bbv.MustNewHash(5, 42)
	c, err := New([]*program.Program{
		buildProg(t, "177.mesa", ops),
		buildProg(t, "197.parser", ops),
	}, hash, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	profs, err := c.Record()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range profs {
		var cycles uint64
		for _, cyc := range p.Cycles {
			cycles += uint64(cyc)
		}
		if cycles != p.TotalCycles {
			t.Errorf("core %d: cycle conservation %d vs %d", i, cycles, p.TotalCycles)
		}
		if p.TrueIPC() <= 0 {
			t.Errorf("core %d: IPC %g", i, p.TrueIPC())
		}
	}
}
