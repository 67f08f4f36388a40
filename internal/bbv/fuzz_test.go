package bbv

import (
	"testing"
)

// FuzzTrackerStream drives a hardware BBV tracker with an arbitrary retire
// stream and checks the properties profile aggregation and the parallel
// engine rely on:
//
//   - raw vectors are additive: cutting the stream at any point and summing
//     the two periods' raw vectors equals the single uncut vector
//     (pending ops carry across the cut, exactly as across FF windows);
//   - the hash always indexes within the register file;
//   - TakeVector is the raw vector normalised to unit length (or all-zero).
//
// The stream encoding is two bytes per event: ops-to-retire, then a branch
// byte (0 = no branch this event, otherwise a taken branch at that
// address). Op counts are small integers, so the float64 register sums are
// exact and the additivity check can demand bitwise equality.
func FuzzTrackerStream(f *testing.F) {
	f.Add(int64(42), []byte{}, uint16(0))
	f.Add(int64(42), []byte{5, 8, 3, 8, 7, 16, 2, 0, 9, 24}, uint16(2))
	f.Add(int64(1), []byte{255, 1, 255, 1, 255, 255, 0, 3}, uint16(1))
	f.Add(int64(-7), []byte{1, 0, 1, 0, 1, 9}, uint16(3))

	f.Fuzz(func(t *testing.T, seed int64, stream []byte, cut uint16) {
		h, err := NewHash(DefaultHashBits, seed)
		if err != nil {
			t.Fatalf("NewHash(%d, %d): %v", DefaultHashBits, seed, err)
		}
		whole := NewTracker(h)
		split := NewTracker(h)

		events := len(stream) / 2
		cutAt := 0
		if events > 0 {
			cutAt = int(cut) % (events + 1)
		}
		var partial Vector
		for i := 0; i < events; i++ {
			if i == cutAt {
				partial = Vector(split.AppendRaw(nil))
			}
			ops, branch := uint64(stream[2*i]), stream[2*i+1]
			whole.RetireOps(ops)
			split.RetireOps(ops)
			if branch != 0 {
				addr := uint64(branch) << 2
				if idx := h.Index(addr); idx < 0 || idx >= h.Buckets() {
					t.Fatalf("hash index %d outside [0, %d)", idx, h.Buckets())
				}
				whole.TakenBranch(addr)
				split.TakenBranch(addr)
			}
		}
		if partial == nil {
			partial = Vector(split.AppendRaw(nil)) // cut at the very end
		}
		rest := Vector(split.AppendRaw(nil))
		want := Vector(whole.AppendRaw(nil))
		if len(partial) != len(want) || len(rest) != len(want) {
			t.Fatalf("vector lengths diverged: %d + %d vs %d", len(partial), len(rest), len(want))
		}
		for i := range want {
			if got := partial[i] + rest[i]; got != want[i] {
				t.Fatalf("raw vectors not additive at register %d: %g + %g != %g (cut at event %d/%d)",
					i, partial[i], rest[i], want[i], cutAt, events)
			}
		}

		// TakeVector on a replayed stream must be the normalised raw vector.
		replay := NewTracker(h)
		for i := 0; i < events; i++ {
			replay.RetireOps(uint64(stream[2*i]))
			if b := stream[2*i+1]; b != 0 {
				replay.TakenBranch(uint64(b) << 2)
			}
		}
		norm := replay.TakeVector()
		wantNorm := want.Clone().Normalize()
		for i := range wantNorm {
			if norm[i] != wantNorm[i] {
				t.Fatalf("TakeVector[%d] = %g, want normalised raw %g", i, norm[i], wantNorm[i])
			}
		}
		if n := norm.Norm(); !norm.isZero() && (n < 1-1e-9 || n > 1+1e-9) {
			t.Fatalf("normalised vector has norm %g", n)
		}
	})
}
