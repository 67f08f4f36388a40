package bbv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	v := Vector{3, 4}
	v.Normalize()
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("norm after normalize = %g", v.Norm())
	}
	if math.Abs(v[0]-0.6) > 1e-12 || math.Abs(v[1]-0.8) > 1e-12 {
		t.Errorf("normalized = %v", v)
	}
	zero := Vector{0, 0}
	zero.Normalize()
	if zero[0] != 0 || zero[1] != 0 {
		t.Error("zero vector changed by Normalize")
	}
}

func TestAngleBasics(t *testing.T) {
	a := Vector{1, 0}.Normalize()
	b := Vector{0, 1}.Normalize()
	if got := a.Angle(b); math.Abs(got-math.Pi/2) > 1e-9 {
		t.Errorf("orthogonal angle = %g", got)
	}
	if got := a.Angle(a); got > 1e-6 {
		t.Errorf("self angle = %g", got)
	}
	// Zero vectors are maximally distant.
	z := Vector{0, 0}
	if got := a.Angle(z); got != math.Pi/2 {
		t.Errorf("zero-vector angle = %g", got)
	}
}

func TestAngleMatchesDotProduct(t *testing.T) {
	a := Vector{1, 1}.Normalize()
	b := Vector{1, 0}.Normalize()
	if got := a.Angle(b); math.Abs(got-math.Pi/4) > 1e-9 {
		t.Errorf("45° angle = %g", got)
	}
}

func TestDistances(t *testing.T) {
	a := Vector{1, 2, 3}
	b := Vector{4, 6, 3}
	if got := a.ManhattanDistance(b); got != 7 {
		t.Errorf("manhattan = %g", got)
	}
	if got := a.EuclideanDistance(b); got != 5 {
		t.Errorf("euclidean = %g", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	a.Dot(Vector{1})
}

func TestAddScaleClone(t *testing.T) {
	a := Vector{1, 2}
	c := a.Clone()
	c.Add(Vector{10, 20})
	c.Scale(0.5)
	if a[0] != 1 || a[1] != 2 {
		t.Error("clone aliased the original")
	}
	if c[0] != 5.5 || c[1] != 11 {
		t.Errorf("add/scale = %v", c)
	}
}

// Properties of the angle metric on non-negative vectors.
func TestPropertyAngleRange(t *testing.T) {
	gen := func(seed int64) (Vector, Vector) {
		rng := rand.New(rand.NewSource(seed))
		a := make(Vector, 32)
		b := make(Vector, 32)
		for i := range a {
			a[i] = rng.Float64() * 1000
			b[i] = rng.Float64() * 1000
		}
		return a.Normalize(), b.Normalize()
	}
	f := func(seed int64) bool {
		a, b := gen(seed)
		ang := a.Angle(b)
		// Range, symmetry, identity.
		return ang >= 0 && ang <= math.Pi/2+1e-9 &&
			math.Abs(ang-b.Angle(a)) < 1e-12 &&
			a.Angle(a) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyNormalizeIdempotent(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make(Vector, len(raw))
		for i, x := range raw {
			v[i] = math.Abs(x)
			if math.IsInf(v[i], 0) || math.IsNaN(v[i]) {
				v[i] = 1
			}
		}
		v.Normalize()
		w := v.Clone().Normalize()
		for i := range v {
			if math.Abs(v[i]-w[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHashValidation(t *testing.T) {
	if _, err := NewHash(0, 1); err == nil {
		t.Error("zero-width hash accepted")
	}
	if _, err := NewHash(100, 1); err == nil {
		t.Error("oversized hash accepted")
	}
	h := MustNewHash(5, 42)
	if h.Width() != 5 || h.Buckets() != 32 {
		t.Errorf("width/buckets: %d %d", h.Width(), h.Buckets())
	}
}

func TestHashDeterministicAndDistinct(t *testing.T) {
	h1 := MustNewHash(5, 42)
	h2 := MustNewHash(5, 42)
	h3 := MustNewHash(5, 43)
	for i := 0; i < 5; i++ {
		if h1.Bits()[i] != h2.Bits()[i] {
			t.Error("same seed produced different hashes")
		}
	}
	same := true
	for i := 0; i < 5; i++ {
		if h1.Bits()[i] != h3.Bits()[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical hashes")
	}
	// Bits are distinct and in range.
	seen := map[uint]bool{}
	for _, b := range h1.Bits() {
		if b < 2 || b >= 18 || seen[b] {
			t.Errorf("bad bit selection %v", h1.Bits())
		}
		seen[b] = true
	}
}

func TestHashIndexRange(t *testing.T) {
	h := MustNewHash(5, 1)
	f := func(addr uint64) bool {
		i := h.Index(addr)
		return i >= 0 && i < 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHashIndexMatchesBits: Index returns the selected address bits in
// index order, for every address of the candidate window (with the bits
// below it varying too) and for random addresses with higher bits set.
func TestHashIndexMatchesBits(t *testing.T) {
	ranges := []struct {
		name   string
		build  func(int, int64) (*Hash, error)
		lo, hi int
	}{
		{"bbv", NewHash, 2, 18},
		{"mav", NewMAVHash, mavLoBit, mavHiBit},
	}
	rng := rand.New(rand.NewSource(1))
	for _, r := range ranges {
		for width := 1; width <= r.hi-r.lo; width++ {
			for _, seed := range []int64{1, 5, 42} {
				h, err := r.build(width, seed)
				if err != nil {
					t.Fatal(err)
				}
				bits := h.Bits()
				check := func(addr uint64) {
					want := 0
					for i, b := range bits {
						want |= int(addr>>b&1) << i
					}
					if got := h.Index(addr); got != want {
						t.Fatalf("%s width %d seed %d: Index(%#x) = %d, bits %v give %d",
							r.name, width, seed, addr, got, bits, want)
					}
				}
				for a := uint64(0); a < 1<<(r.hi-r.lo); a++ {
					check(a<<r.lo | a&(1<<r.lo-1))
				}
				for k := 0; k < 1000; k++ {
					check(rng.Uint64() | 1<<(r.hi+rng.Intn(64-r.hi)))
				}
			}
		}
	}
}

func TestTrackerChargesOpsToTakenBranch(t *testing.T) {
	h := MustNewHash(5, 42)
	tr := NewTracker(h)
	tr.RetireOps(10)
	tr.TakenBranch(0x4000)
	tr.RetireOps(5)
	tr.TakenBranch(0x8000)
	raw := Vector(tr.AppendRaw(nil))
	var total float64
	for _, x := range raw {
		total += x
	}
	if total != 15 {
		t.Errorf("total charged ops = %g, want 15", total)
	}
	if raw[h.Index(0x4000)] < 10 && h.Index(0x4000) != h.Index(0x8000) {
		t.Error("ops charged to wrong register")
	}
}

func TestTrackerPendingCarriesAcrossPeriods(t *testing.T) {
	h := MustNewHash(5, 42)
	tr := NewTracker(h)
	tr.RetireOps(7) // no taken branch yet
	raw1 := Vector(tr.AppendRaw(nil))
	for _, x := range raw1 {
		if x != 0 {
			t.Error("pending ops leaked into the vector")
		}
	}
	tr.TakenBranch(0x4000)
	raw2 := Vector(tr.AppendRaw(nil))
	if raw2[h.Index(0x4000)] != 7 {
		t.Error("pending ops lost across periods")
	}
}

// Additivity: raw vectors of consecutive periods sum to the raw vector of
// the combined period (what profile aggregation relies on).
func TestPropertyRawAdditivity(t *testing.T) {
	h := MustNewHash(5, 42)
	f := func(events []uint16, split uint8) bool {
		tr1 := NewTracker(h) // takes two vectors
		tr2 := NewTracker(h) // takes one combined vector
		cut := int(split) % (len(events) + 1)
		var first Vector
		for i, e := range events {
			if i == cut {
				first = Vector(tr1.AppendRaw(nil))
			}
			addr := uint64(e) * 4
			ops := uint64(e%7) + 1
			tr1.RetireOps(ops)
			tr2.RetireOps(ops)
			if e%3 == 0 {
				tr1.TakenBranch(addr)
				tr2.TakenBranch(addr)
			}
		}
		if first == nil {
			first = Vector(tr1.AppendRaw(nil))
		}
		second := Vector(tr1.AppendRaw(nil))
		combined := Vector(tr2.AppendRaw(nil))
		first.Add(second)
		for i := range first {
			if math.Abs(first[i]-combined[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTakeVectorNormalized(t *testing.T) {
	h := MustNewHash(5, 42)
	tr := NewTracker(h)
	tr.RetireOps(10)
	tr.TakenBranch(0x4000)
	v := tr.TakeVector()
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("TakeVector norm = %g", v.Norm())
	}
}
