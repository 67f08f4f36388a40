package cpu_test

import (
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/cpu"
	"pgss/internal/program"
	"pgss/internal/workload"
)

// benchProgram builds one 20M-op benchmark program, shared across
// benchmarks (programs are immutable; every core gets its own machine).
func benchProgram(b *testing.B, name string) *program.Program {
	b.Helper()
	spec, err := workload.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := spec.Build(20_000_000)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func benchCore(b *testing.B, cfg cpu.CoreConfig) *cpu.Core {
	b.Helper()
	c, err := cpu.NewCore(cpu.MustNewMachine(benchProgram(b, "188.ammp")), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// stepLoop drives one step function b.N times, rebuilding the core when
// the program runs out (rare: the program is 20M ops long).
func stepLoop(b *testing.B, cfg cpu.CoreConfig, step func(c *cpu.Core, r *cpu.Retired) bool) {
	c := benchCore(b, cfg)
	var r cpu.Retired
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !step(c, &r) {
			b.StopTimer()
			c = benchCore(b, cfg)
			b.StartTimer()
		}
	}
}

// BenchmarkCoreStepDetailed measures the detailed (cycle-accurate in-order
// scoreboard) retire loop — the cost unit of every sample op.
func BenchmarkCoreStepDetailed(b *testing.B) {
	stepLoop(b, cpu.DefaultCoreConfig(), (*cpu.Core).StepDetailed)
}

// BenchmarkCoreStepWarm measures per-op functional warming, the reference
// the warming loop is tested against. Checkpoint recording and sample
// seeks warm through Core.Run instead (BenchmarkCoreRunWarm).
func BenchmarkCoreStepWarm(b *testing.B) {
	stepLoop(b, cpu.DefaultCoreConfig(), (*cpu.Core).StepWarm)
}

// BenchmarkCoreStepFF measures the plain fast-forward loop (SimPoint-style
// no-warming skip).
func BenchmarkCoreStepFF(b *testing.B) {
	stepLoop(b, cpu.DefaultCoreConfig(), (*cpu.Core).StepFF)
}

// blockLoop drives one batch step function for b.N retired ops, rebuilding
// the core when the program halts. ns/op is per retired instruction, so the
// numbers compare directly with the per-op StepX benchmarks above.
func blockLoop(b *testing.B, block func(c *cpu.Core, buf []cpu.Retired) int) {
	c := benchCore(b, cpu.DefaultCoreConfig())
	buf := c.BlockBuf()
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := block(c, buf)
		if n < len(buf) {
			b.StopTimer()
			c = benchCore(b, cpu.DefaultCoreConfig())
			buf = c.BlockBuf()
			b.StartTimer()
		}
		done += n
	}
}

// BenchmarkCoreStepDetailedBlock measures the batched detailed loop (the
// superblock interpreter feeding the scoreboard).
func BenchmarkCoreStepDetailedBlock(b *testing.B) {
	blockLoop(b, (*cpu.Core).StepDetailedBlock)
}

// BenchmarkCoreStepWarmBlock measures the batched functional-warming loop.
func BenchmarkCoreStepWarmBlock(b *testing.B) {
	blockLoop(b, (*cpu.Core).StepWarmBlock)
}

// BenchmarkCoreRunFF measures plain fast-forward as a PGSS-Live shard
// drives it: Core.Run in FastForward over 100k-op windows (the FF period
// at scale 10) with a BBV tracker attached, reading the window's vector
// into a reused buffer. ns/op is per retired instruction. 177.mesa and
// 188.ammp are two of the live-phased programs.
func BenchmarkCoreRunFF(b *testing.B) {
	const windowOps = 100_000
	hash := bbv.MustNewHash(bbv.DefaultHashBits, 42)
	for _, name := range []string{"177.mesa", "188.ammp"} {
		prog := benchProgram(b, name)
		b.Run(name, func(b *testing.B) {
			c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
			if err != nil {
				b.Fatal(err)
			}
			tracker := bbv.NewTracker(hash)
			vec := make(bbv.Vector, hash.Buckets())
			b.ReportAllocs()
			b.ResetTimer()
			for done := uint64(0); done < uint64(b.N); {
				want := min(uint64(b.N)-done, windowOps)
				n := c.Run(want, cpu.FastForward, tracker, nil)
				tracker.TakeVectorInto(vec)
				tracker.DropPending()
				if n < want {
					b.StopTimer()
					c.M.Reset()
					b.StartTimer()
				}
				done += n
			}
		})
	}
}

// BenchmarkCoreRunWarm measures functional warming as checkpoint recording
// and a live sample's seek drive it: Core.Run in FunctionalWarming over
// 100k-op cuts with no tracker attached. ns/op is per retired instruction,
// so it compares directly with BenchmarkCoreStepWarmBlock. 181.mcf has the
// most data-cache misses of the three programs.
func BenchmarkCoreRunWarm(b *testing.B) {
	const cutOps = 100_000
	for _, name := range []string{"177.mesa", "188.ammp", "181.mcf"} {
		prog := benchProgram(b, name)
		b.Run(name, func(b *testing.B) {
			c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := uint64(0); done < uint64(b.N); {
				want := min(uint64(b.N)-done, cutOps)
				n := c.Run(want, cpu.FunctionalWarming, nil, nil)
				if n < want {
					b.StopTimer()
					c.M.Reset()
					b.StartTimer()
				}
				done += n
			}
		})
	}
}

var coreSink *cpu.Core

// BenchmarkNewCore measures building a core over a built 20M-op program:
// the machine's initial state plus the caches, predictor and timing model.
// 181.mcf initialises most of its data segment and 168.wupwise leaves most
// of its segment zero; every live shard and sample worker pays this once.
func BenchmarkNewCore(b *testing.B) {
	for _, name := range []string{"181.mcf", "168.wupwise"} {
		prog := benchProgram(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := cpu.NewMachine(prog)
				if err != nil {
					b.Fatal(err)
				}
				c, err := cpu.NewCore(m, cpu.DefaultCoreConfig())
				if err != nil {
					b.Fatal(err)
				}
				coreSink = c
			}
		})
	}
}
