package bbv

import (
	"math"
	"testing"
)

func TestNewMAVHashBitRange(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		h, err := NewMAVHash(DefaultMAVBits, seed)
		if err != nil {
			t.Fatalf("NewMAVHash(seed %d): %v", seed, err)
		}
		seen := map[uint]bool{}
		for _, b := range h.Bits() {
			if b < mavLoBit || b >= mavHiBit {
				t.Errorf("seed %d: bit %d outside [%d, %d)", seed, b, mavLoBit, mavHiBit)
			}
			if seen[b] {
				t.Errorf("seed %d: duplicate bit %d", seed, b)
			}
			seen[b] = true
		}
	}
	if _, err := NewMAVHash(0, 1); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := NewMAVHash(mavHiBit-mavLoBit+1, 1); err == nil {
		t.Error("width beyond candidate range accepted")
	}
}

// TestMAVHashLineInvariant: accesses within one 64-byte line always index
// the same bucket — the point of drawing bits above the line offset.
func TestMAVHashLineInvariant(t *testing.T) {
	h := MustNewMAVHash(DefaultMAVBits, 42)
	for _, base := range []uint64{0, 0x1000_0000, 0x1234_5680 &^ 63} {
		want := h.Index(base)
		for off := uint64(1); off < 64; off++ {
			if got := h.Index(base + off); got != want {
				t.Fatalf("addr %#x+%d indexes %d, line base indexes %d", base, off, got, want)
			}
		}
	}
}

func TestMAVTrackerCountsAndReset(t *testing.T) {
	h := MustNewMAVHash(DefaultMAVBits, 42)
	tr := NewMAVTracker(h)
	addrs := []uint64{0x40, 0x40, 0x80, 0x1_0000, 0x40}
	want := make(Vector, h.Buckets())
	for _, a := range addrs {
		tr.Access(a)
		want[h.Index(a)]++
	}
	raw := Vector(tr.AppendRaw(nil))
	var total float64
	for i, x := range raw {
		total += x
		if x != want[i] {
			t.Fatalf("bucket %d holds %g, want %g", i, x, want[i])
		}
	}
	if total != float64(len(addrs)) {
		t.Fatalf("raw counts sum to %g, want %d", total, len(addrs))
	}
	// AppendRaw cleared the counters.
	for i, x := range tr.AppendRaw(nil) {
		if x != 0 {
			t.Fatalf("bucket %d not cleared: %g", i, x)
		}
	}
}

func TestMAVTrackerTakeVectorNormalised(t *testing.T) {
	h := MustNewMAVHash(DefaultMAVBits, 42)
	tr := NewMAVTracker(h)
	for i := 0; i < 100; i++ {
		tr.Access(uint64(i) * 64)
	}
	v := tr.TakeVector()
	if n := v.Norm(); math.Abs(n-1) > 1e-9 {
		t.Fatalf("TakeVector norm %g", n)
	}
	// Empty period: zero vector stays zero.
	z := tr.TakeVector()
	if !z.isZero() {
		t.Fatalf("empty period produced nonzero vector %v", z)
	}
}

func TestChannelParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Channel
	}{
		{"", ChannelBBV}, {"bbv", ChannelBBV},
		{"mav", ChannelMAV},
		{"both", ChannelBoth}, {"bbv+mav", ChannelBoth}, {"concat", ChannelBoth},
	}
	for _, tc := range cases {
		got, err := ParseChannel(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseChannel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseChannel("bogus"); err == nil {
		t.Error("ParseChannel accepted bogus")
	}
	if Channel(9).Validate() == nil {
		t.Error("Channel(9) validated")
	}
	for _, ch := range []Channel{ChannelBBV, ChannelMAV, ChannelBoth} {
		if ch.Validate() != nil {
			t.Errorf("%v failed Validate", ch)
		}
		if back, err := ParseChannel(ch.String()); err != nil || back != ch {
			t.Errorf("round-trip %v → %q → %v, %v", ch, ch.String(), back, err)
		}
	}
}

func TestSignatureChannels(t *testing.T) {
	b := Vector{1, 0, 0, 0}.Normalize()
	m := Vector{0, 1}.Normalize()

	sig, _, err := Signature(ChannelBBV, b, nil, nil)
	if err != nil || &sig[0] != &b[0] {
		t.Fatalf("BBV channel should pass the BBV through: %v", err)
	}
	sig, _, err = Signature(ChannelMAV, b, m, nil)
	if err != nil || &sig[0] != &m[0] {
		t.Fatalf("MAV channel should pass the MAV through: %v", err)
	}
	if _, _, err := Signature(ChannelMAV, b, nil, nil); err == nil {
		t.Fatal("MAV channel accepted a nil MAV")
	}
	if _, _, err := Signature(ChannelBoth, b, nil, nil); err == nil {
		t.Fatal("Both channel accepted a nil MAV")
	}

	sig, scratch, err := Signature(ChannelBoth, b, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sig) != len(b)+len(m) {
		t.Fatalf("concat length %d, want %d", len(sig), len(b)+len(m))
	}
	if n := sig.Norm(); math.Abs(n-1) > 1e-9 {
		t.Fatalf("concat norm %g, want 1", n)
	}
	// Equal channel weighting: both unit inputs ⇒ each half carries 1/2
	// the squared mass.
	var bbvMass float64
	for _, x := range sig[:len(b)] {
		bbvMass += x * x
	}
	if math.Abs(bbvMass-0.5) > 1e-9 {
		t.Fatalf("BBV half carries squared mass %g, want 0.5", bbvMass)
	}

	// A zero MAV window degrades to the BBV alone (renormalised), instead
	// of zeroing the signature.
	zeroMAV := Vector{0, 0}
	sig, _, err = Signature(ChannelBoth, b, zeroMAV, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if n := sig.Norm(); math.Abs(n-1) > 1e-9 {
		t.Fatalf("zero-MAV concat norm %g, want 1", n)
	}
	if sig[0] != 1 {
		t.Fatalf("zero-MAV concat should equal the BBV half: %v", sig)
	}

	if _, _, err := Signature(Channel(9), b, m, nil); err == nil {
		t.Fatal("invalid channel accepted")
	}
}
