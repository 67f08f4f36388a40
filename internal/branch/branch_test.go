package branch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Errorf("counter underflowed to %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter did not saturate: %d", c)
	}
	if !c.taken() || counter(1).taken() {
		t.Error("taken threshold wrong")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b, err := NewBimodal(256)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x4000)
	// Train taken.
	for i := 0; i < 4; i++ {
		b.Update(addr, true)
	}
	if !b.Predict(addr) {
		t.Error("bimodal did not learn taken bias")
	}
	// A loop branch pattern TTTN repeating mispredicts only the N.
	mis := 0
	for i := 0; i < 400; i++ {
		taken := i%4 != 3
		if b.Predict(addr) != taken {
			mis++
		}
		b.Update(addr, taken)
	}
	if mis > 110 {
		t.Errorf("bimodal mispredicted %d/400 on TTTN", mis)
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	g, err := NewGshare(4096, 12)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(0x4000)
	// A periodic pattern is perfectly predictable with history: T N T N...
	mis := 0
	for i := 0; i < 2000; i++ {
		taken := i%2 == 0
		if i > 200 && g.Predict(addr) != taken {
			mis++
		}
		g.Update(addr, taken)
	}
	if mis > 20 {
		t.Errorf("gshare mispredicted %d/1800 on alternating pattern", mis)
	}
}

func TestGshareRandomIsHard(t *testing.T) {
	g, _ := NewGshare(4096, 12)
	rng := rand.New(rand.NewSource(7))
	addr := uint64(0x4000)
	mis := 0
	const n = 4000
	for i := 0; i < n; i++ {
		taken := rng.Intn(2) == 0
		if g.Predict(addr) != taken {
			mis++
		}
		g.Update(addr, taken)
	}
	if float64(mis)/n < 0.35 {
		t.Errorf("gshare predicted random branches too well: %d/%d", mis, n)
	}
}

func TestPredictorEntryValidation(t *testing.T) {
	if _, err := NewBimodal(100); err == nil {
		t.Error("non-pow2 bimodal accepted")
	}
	if _, err := NewGshare(0, 4); err == nil {
		t.Error("zero gshare accepted")
	}
	// Oversized history is clamped, not an error.
	g, err := NewGshare(16, 40)
	if err != nil || g == nil {
		t.Fatalf("gshare clamp failed: %v", err)
	}
}

func TestBTB(t *testing.T) {
	btb, err := NewBTB(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := btb.Lookup(0x4000); hit {
		t.Error("cold BTB hit")
	}
	btb.Update(0x4000, 0x5000)
	if tgt, hit := btb.Lookup(0x4000); !hit || tgt != 0x5000 {
		t.Errorf("BTB lookup: %x %v", tgt, hit)
	}
	// Aliasing entry (same index, different tag) must miss.
	alias := uint64(0x4000 + 64*4)
	if _, hit := btb.Lookup(alias); hit {
		t.Error("aliased BTB entry hit")
	}
	btb.Update(alias, 0x9000)
	if _, hit := btb.Lookup(0x4000); hit {
		t.Error("evicted BTB entry still hits")
	}
}

func TestRASMatchedCallsReturns(t *testing.T) {
	r := NewRAS(4)
	r.Push(100)
	r.Push(200)
	if a, ok := r.Pop(); !ok || a != 200 {
		t.Errorf("pop = %d %v", a, ok)
	}
	if a, ok := r.Pop(); !ok || a != 100 {
		t.Errorf("pop = %d %v", a, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS popped")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if a, _ := r.Pop(); a != 3 {
		t.Errorf("pop = %d, want 3", a)
	}
	if a, _ := r.Pop(); a != 2 {
		t.Errorf("pop = %d, want 2", a)
	}
	if _, ok := r.Pop(); ok {
		t.Error("RAS depth exceeded capacity")
	}
}

// Property: RAS behaves as a stack for any push/pop sequence within depth.
func TestPropertyRASStack(t *testing.T) {
	f := func(ops []uint8) bool {
		r := NewRAS(64)
		var ref []uint64
		for i, op := range ops {
			if op%2 == 0 || len(ref) == 0 {
				v := uint64(i + 1)
				r.Push(v)
				if len(ref) < 64 {
					ref = append(ref, v)
				} else {
					ref = append(ref[1:], v)
				}
			} else {
				got, ok := r.Pop()
				want := ref[len(ref)-1]
				ref = ref[:len(ref)-1]
				if !ok || got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// newUnit builds a prediction unit of the default configuration.
func newUnit(t *testing.T) *Unit {
	t.Helper()
	u, err := NewUnit(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUnitBranchAccounting(t *testing.T) {
	u := newUnit(t)
	// First taken branch: direction predictors start weakly not-taken →
	// mispredict.
	if !u.Branch(0x4000, true, 0x5000) {
		t.Error("cold taken branch predicted correctly?")
	}
	// Train it. Gshare's global history shifts on every update, so the
	// indexed entry changes until the history register saturates with
	// taken bits (12 history bits → ~12 updates), after which prediction
	// is stable.
	for i := 0; i < 16; i++ {
		u.Branch(0x4000, true, 0x5000)
	}
	if u.Branch(0x4000, true, 0x5000) {
		t.Error("trained branch mispredicted")
	}
	st := u.Stats()
	if st.Branches != 18 || st.Mispredicts == 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestUnitTargetMiss(t *testing.T) {
	u := newUnit(t)
	// Train direction taken with target A.
	for i := 0; i < 5; i++ {
		u.Branch(0x4000, true, 0xA000)
	}
	// Same direction, new target: must be a target miss.
	if !u.Branch(0x4000, true, 0xB000) {
		t.Error("target change not detected")
	}
}

func TestUnitCallReturn(t *testing.T) {
	u := newUnit(t)
	u.Call(0x4000, 0x8000, 0x4004)
	if mis := u.Return(0x8010, 0x4004); mis {
		t.Error("matched return mispredicted")
	}
	// Unmatched return target.
	u.Call(0x4000, 0x8000, 0x4004)
	if mis := u.Return(0x8010, 0x9999); !mis {
		t.Error("wrong return target predicted correctly")
	}
}

func TestUnitJumpColdThenWarm(t *testing.T) {
	u := newUnit(t)
	if !u.Jump(0x4000, 0x7000) {
		t.Error("cold jump hit BTB")
	}
	if u.Jump(0x4000, 0x7000) {
		t.Error("warm jump missed BTB")
	}
}

func TestUnitConfigValidation(t *testing.T) {
	if _, err := NewUnit(Config{Predictor: "nonsense"}); err == nil {
		t.Error("unknown predictor accepted")
	}
	if _, err := NewUnit(Config{Predictor: "bimodal", Entries: 100}); err == nil {
		t.Error("non-pow2 entries accepted")
	}
	u, err := NewUnit(Config{})
	if err != nil || u == nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestMispredictRate(t *testing.T) {
	var s Stats
	if s.MispredictRate() != 0 {
		t.Error("idle rate nonzero")
	}
	s = Stats{Branches: 10, Mispredicts: 3}
	if s.MispredictRate() != 0.3 {
		t.Errorf("rate = %g", s.MispredictRate())
	}
}
