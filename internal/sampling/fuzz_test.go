package sampling

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/profile"
)

// fuzzProfile builds a small structurally valid synthetic profile with both
// signature channels for technique fuzzing: 40k ops, 1k-op BBV/MAV windows,
// phase-shaped BBVs and access-density-varying MAVs.
func fuzzProfile() *profile.Profile {
	p := &profile.Profile{
		Benchmark: "fuzz-synth",
		HashBits:  5,
		MAVBits:   bbv.DefaultMAVBits,
		FineOps:   100,
		BBVOps:    1000,
		TotalOps:  40_000,
	}
	nFine := int(p.TotalOps / p.FineOps)
	p.Cycles = make([]uint32, nFine)
	for i := range p.Cycles {
		p.Cycles[i] = uint32(120 + (i%7)*30)
		p.TotalCycles += uint64(p.Cycles[i])
	}
	for j := range int(p.TotalOps / p.BBVOps) {
		v := make(bbv.Vector, 1<<p.HashBits)
		m := make(bbv.Vector, 1<<p.MAVBits)
		for k := range v {
			v[k] = float64((j/8+k)%5) * 50
			m[k] = float64((j/4+2*k)%3) * 20
		}
		p.AppendBBV(v)
		p.AppendMAV(m)
	}
	return p
}

// FuzzTwoPhaseConfig decodes an arbitrary JSON TwoPhaseConfig, validates
// it, and — when Validate accepts — runs TwoPhase twice over a synthetic
// two-channel profile, checking that a validated config never panics, that
// the run is deterministic, and that the cost ledger keeps the invariants
// cmd/pgss-validate enforces (every detailed sample charged exactly
// WarmOps+SampleOps, classification charged in whole intervals).
func FuzzTwoPhaseConfig(f *testing.F) {
	add := func(cfg TwoPhaseConfig) {
		b, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	add(TwoPhaseConfig{IntervalOps: 2000, ThresholdPi: 0.05, Phase1Frac: 0.5,
		Samples: 8, WarmOps: 300, SampleOps: 100, Seed: 1})
	add(TwoPhaseConfig{IntervalOps: 4000, ThresholdPi: 0.1, Channel: bbv.ChannelMAV,
		Phase1Frac: 1, Samples: 6, WarmOps: 0, SampleOps: 200, Seed: 7})
	add(TwoPhaseConfig{IntervalOps: 1000, ThresholdPi: 0.5, Channel: bbv.ChannelBoth,
		Phase1Frac: 0.25, Samples: 40, WarmOps: 100, SampleOps: 100, Seed: -3})
	f.Add([]byte(`{"IntervalOps":3000,"ThresholdPi":-0.2,"Phase1Frac":2,"Samples":0}`))
	f.Add([]byte(`{"IntervalOps":1e30,"Channel":9,"SampleOps":1}`))

	p := fuzzProfile()
	f.Fuzz(func(t *testing.T, raw []byte) {
		var cfg TwoPhaseConfig
		if err := json.Unmarshal(raw, &cfg); err != nil {
			t.Skip()
		}
		validateErr := cfg.Validate()
		_ = cfg.String() // must not panic either way
		if validateErr != nil {
			return
		}
		run := func() (Result, error) { return TwoPhase(p, cfg) }
		res, err := run()
		if err != nil {
			// A validated config may still be incompatible with this profile
			// (misaligned interval, interval past the end) — that must be a
			// clean error, and a repeated run must fail identically.
			_, err2 := run()
			if err2 == nil || err.Error() != err2.Error() {
				t.Fatalf("nondeterministic failure: %v vs %v", err, err2)
			}
			return
		}
		res2, err2 := run()
		if err2 != nil {
			t.Fatalf("second run failed after clean first: %v", err2)
		}
		if !reflect.DeepEqual(res, res2) {
			t.Fatalf("nondeterministic result:\n%+v\nvs\n%+v", res, res2)
		}
		if res.Costs.Detailed != res.Samples*cfg.SampleOps {
			t.Fatalf("ledger: Detailed %d != Samples %d × SampleOps %d",
				res.Costs.Detailed, res.Samples, cfg.SampleOps)
		}
		if res.Costs.DetailedWarm != res.Samples*cfg.WarmOps {
			t.Fatalf("ledger: DetailedWarm %d != Samples %d × WarmOps %d",
				res.Costs.DetailedWarm, res.Samples, cfg.WarmOps)
		}
		if res.Costs.PlainFF%cfg.IntervalOps != 0 {
			t.Fatalf("ledger: PlainFF %d not whole intervals of %d", res.Costs.PlainFF, cfg.IntervalOps)
		}
		if res.Costs.PlainFF > p.TotalOps {
			t.Fatalf("ledger: phase-1 pass %d exceeds program length %d (not a partial pass)",
				res.Costs.PlainFF, p.TotalOps)
		}
		if math.IsNaN(res.EstimatedIPC) || math.IsInf(res.EstimatedIPC, 0) || res.EstimatedIPC < 0 {
			t.Fatalf("estimate %g not finite and nonnegative", res.EstimatedIPC)
		}
	})
}
