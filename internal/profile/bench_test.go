package profile

import (
	"testing"

	"pgss/internal/bbv"
)

// syntheticProfile builds a structurally valid profile directly (no
// simulation), big enough that window reads exercise realistic spans.
func syntheticProfile(totalOps uint64) *Profile {
	p := &Profile{
		Benchmark: "synthetic",
		HashBits:  5,
		FineOps:   1000,
		BBVOps:    10_000,
		TotalOps:  totalOps,
	}
	nFine := int(totalOps / p.FineOps)
	p.Cycles = make([]uint32, nFine)
	for i := range p.Cycles {
		p.Cycles[i] = uint32(1200 + (i%7)*100)
		p.TotalCycles += uint64(p.Cycles[i])
	}
	for j := range int(totalOps / p.BBVOps) {
		v := make(bbv.Vector, 1<<p.HashBits)
		for k := range v {
			v[k] = float64((j+k)%11) * 100
		}
		p.AppendBBV(v)
	}
	return p
}

// BenchmarkBBVWindow measures a window read into a fresh vector, as the
// sharded engine's replay source reads each window it keeps.
func BenchmarkBBVWindow(b *testing.B) {
	p := syntheticProfile(10_000_000)
	const ffOps = 100_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := uint64(i) % (p.TotalOps / ffOps) * ffOps
		if _, err := p.BBVWindowInto(make(bbv.Vector, 1<<p.HashBits), start, ffOps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBBVWindowInto measures the allocation-free window read on the
// replay hot path.
func BenchmarkBBVWindowInto(b *testing.B) {
	p := syntheticProfile(10_000_000)
	const ffOps = 100_000
	dst := make(bbv.Vector, 1<<p.HashBits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := uint64(i) % (p.TotalOps / ffOps) * ffOps
		if _, err := p.BBVWindowInto(dst, start, ffOps); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBBVSeries measures a whole normalised BBV series at the default
// PGSS fast-forward period, as SimPoint, online SimPoint and Stratified
// read it: one allocation for the windows and one for the slice.
func BenchmarkBBVSeries(b *testing.B) {
	p := syntheticProfile(10_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.BBVSeries(100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIPCWindow measures the recorded-sample read (prefix-sum
// difference) that backs every replayed detailed sample.
func BenchmarkIPCWindow(b *testing.B) {
	p := syntheticProfile(10_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := uint64(i) % (p.TotalOps / 1000) * 1000
		if _, err := p.IPCWindow(start, 1000); err != nil {
			b.Fatal(err)
		}
	}
}
