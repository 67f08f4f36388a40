package sampling

import (
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/profile"
)

// benchProfile builds a structurally valid synthetic profile for replay
// benchmarks (no simulation).
func benchProfile(totalOps uint64) *profile.Profile {
	p := &profile.Profile{
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

// BenchmarkProfileTargetNextWindow measures the replay window loop with a
// detailed sample every window — the per-window cost every controller
// pays.
func BenchmarkProfileTargetNextWindow(b *testing.B) {
	p := benchProfile(10_000_000)
	t := NewProfileTarget(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := t.NextWindow(100_000, 3000, 1000); !ok {
			if t.Err() != nil {
				b.Fatal(t.Err())
			}
			t.Reset()
		}
	}
}

// BenchmarkIntervalTechniques measures one replay run of each technique at
// its scale-10 default (SimPoint at 100k-op intervals with k=5, online
// SimPoint at 100k-op intervals and .10π), seed 1, on the BBV channel.
func BenchmarkIntervalTechniques(b *testing.B) {
	p := benchProfile(10_000_000)
	runs := []struct {
		name string
		run  func() (Result, error)
	}{
		{"SMARTS", func() (Result, error) { return SMARTS(NewProfileTarget(p), DefaultSMARTSConfig(10)) }},
		{"TurboSMARTS", func() (Result, error) { return TurboSMARTS(p, DefaultTurboSMARTSConfig(10)) }},
		{"Stratified", func() (Result, error) { return Stratified(p, DefaultStratifiedConfig(10)) }},
		{"2PSS", func() (Result, error) { return TwoPhase(p, DefaultTwoPhaseConfig(10)) }},
		{"RSS", func() (Result, error) { return RankedSet(p, DefaultRankedSetConfig(10)) }},
		{"SimPoint", func() (Result, error) { return SimPoint(p, SimPointSweep(10)[0]) }},
		{"OnlineSimPoint", func() (Result, error) {
			return OnlineSimPoint(p, OnlineSimPointConfig{IntervalOps: 100_000, ThresholdPi: 0.10})
		}},
	}
	for _, r := range runs {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
