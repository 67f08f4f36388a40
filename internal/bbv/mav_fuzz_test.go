package bbv

import (
	"testing"
)

// FuzzMAVAdditivity drives a MAV tracker with an arbitrary data-address
// stream and checks the property the profile recorder, sampling targets and
// parallel engine all rely on: raw MAVs are additive across any cut of the
// access stream. The MAV tracker has no pending state (each access is
// charged immediately), so — unlike the BBV tracker's pending-carry rule —
// the two periods' raw vectors must sum bitwise to the uncut vector at
// *every* possible cut, which is why the parallel engine needs no
// DropPending discipline for the MAV channel.
//
// The stream encoding is two bytes per access, forming a 16-bit word index:
// addr = (hi<<8 | lo) << 3. The shift spreads the stream across the hashed
// bit range [6, 18) while keeping counts small integers, so float64 sums
// are exact and the additivity check can demand bitwise equality.
func FuzzMAVAdditivity(f *testing.F) {
	f.Add(int64(42), []byte{}, uint16(0))
	f.Add(int64(42), []byte{0, 8, 0, 8, 1, 16, 2, 0, 9, 24}, uint16(2))
	f.Add(int64(1), []byte{255, 255, 255, 255, 0, 0, 128, 64}, uint16(1))
	f.Add(int64(-7), []byte{1, 0, 1, 0, 1, 9}, uint16(3))

	f.Fuzz(func(t *testing.T, seed int64, stream []byte, cut uint16) {
		h, err := NewMAVHash(DefaultMAVBits, seed)
		if err != nil {
			t.Fatalf("NewMAVHash(%d, %d): %v", DefaultMAVBits, seed, err)
		}
		whole := NewMAVTracker(h)
		split := NewMAVTracker(h)

		accesses := len(stream) / 2
		cutAt := 0
		if accesses > 0 {
			cutAt = int(cut) % (accesses + 1)
		}
		var partial Vector
		for i := 0; i < accesses; i++ {
			if i == cutAt {
				partial = Vector(split.AppendRaw(nil))
			}
			addr := (uint64(stream[2*i])<<8 | uint64(stream[2*i+1])) << 3
			if idx := h.Index(addr); idx < 0 || idx >= h.Buckets() {
				t.Fatalf("hash index %d outside [0, %d)", idx, h.Buckets())
			}
			whole.Access(addr)
			split.Access(addr)
		}
		if partial == nil {
			partial = Vector(split.AppendRaw(nil)) // cut at the very end
		}
		rest := Vector(split.AppendRaw(nil))
		want := Vector(whole.AppendRaw(nil))
		if len(partial) != len(want) || len(rest) != len(want) {
			t.Fatalf("vector lengths diverged: %d + %d vs %d", len(partial), len(rest), len(want))
		}
		var total float64
		for i := range want {
			if got := partial[i] + rest[i]; got != want[i] {
				t.Fatalf("raw MAVs not additive at bucket %d: %g + %g != %g (cut at access %d/%d)",
					i, partial[i], rest[i], want[i], cutAt, accesses)
			}
			total += want[i]
		}
		// Conservation: every access lands in exactly one bucket.
		if total != float64(accesses) {
			t.Fatalf("buckets sum to %g, want %d accesses", total, accesses)
		}

		// TakeVector on a replayed stream must be the normalised raw vector.
		replay := NewMAVTracker(h)
		for i := 0; i < accesses; i++ {
			replay.Access((uint64(stream[2*i])<<8 | uint64(stream[2*i+1])) << 3)
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
