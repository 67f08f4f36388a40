package phase

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pgss/internal/bbv"
)

// oneHot returns a normalised vector with all weight at index i.
func oneHot(i int) bbv.Vector {
	v := make(bbv.Vector, 32)
	v[i] = 1
	return v
}

// mix returns a normalised blend of two one-hot directions.
func mix(i, j int, wi, wj float64) bbv.Vector {
	v := make(bbv.Vector, 32)
	v[i] = wi
	v[j] = wj
	return v.Normalize()
}

func TestThresholdValidation(t *testing.T) {
	if _, err := NewTable(-0.1); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := NewTable(2.0); err == nil {
		t.Error("threshold > π/2 accepted")
	}
	tab, err := NewTable(0.1)
	if err != nil || tab.Threshold() != 0.1 {
		t.Fatalf("valid threshold rejected: %v", err)
	}
}

func TestClassifyCreatesAndMatchesPhases(t *testing.T) {
	tab := MustNewTable(0.05 * math.Pi)
	a, b := oneHot(3), oneHot(17)

	p1, isNew, changed := tab.Classify(a, 100, 0)
	if !isNew || !changed || p1.ID != 0 {
		t.Fatalf("first window: %+v %v %v", p1, isNew, changed)
	}
	p2, isNew, changed := tab.Classify(a, 100, 1)
	if isNew || changed || p2 != p1 {
		t.Fatal("identical BBV did not match the current phase")
	}
	p3, isNew, _ := tab.Classify(b, 100, 2)
	if !isNew || p3 == p1 {
		t.Fatal("orthogonal BBV did not open a new phase")
	}
	// Returning to the first phase matches it, not a new one.
	p4, isNew, changed := tab.Classify(a, 100, 3)
	if isNew || p4 != p1 || !changed {
		t.Fatal("revisit did not match the original phase")
	}
	if tab.NumPhases() != 2 {
		t.Errorf("phases = %d", tab.NumPhases())
	}
	if tab.Transitions != 2 {
		t.Errorf("transitions = %d", tab.Transitions)
	}
}

func TestPhaseAccounting(t *testing.T) {
	tab := MustNewTable(0.05 * math.Pi)
	a := oneHot(3)
	tab.Classify(a, 100, 0)
	tab.Classify(a, 250, 1)
	p := tab.Current()
	if p.Intervals != 2 || p.Ops != 350 {
		t.Errorf("accounting: %d intervals, %d ops", p.Intervals, p.Ops)
	}
	if p.FirstIntervalIndex != 0 {
		t.Errorf("first interval = %d", p.FirstIntervalIndex)
	}
}

func TestThresholdBoundary(t *testing.T) {
	// Vectors exactly at the threshold angle must match (≤, not <).
	th := 0.25 * math.Pi
	tab := MustNewTable(th)
	a := oneHot(0)
	// b at angle th from a.
	b := make(bbv.Vector, 32)
	b[0] = math.Cos(th)
	b[1] = math.Sin(th)
	tab.Classify(a, 1, 0)
	_, isNew, _ := tab.Classify(b, 1, 1)
	if isNew {
		t.Error("vector at exactly the threshold opened a new phase")
	}
	// Slightly beyond must not match.
	c := make(bbv.Vector, 32)
	c[0] = math.Cos(th + 0.02)
	c[1] = math.Sin(th + 0.02)
	tab2 := MustNewTable(th)
	tab2.Classify(a, 1, 0)
	if _, isNew, _ := tab2.Classify(c, 1, 1); !isNew {
		t.Error("vector beyond the threshold matched")
	}
}

func TestCentroidDrift(t *testing.T) {
	// The centroid is the normalised mean of member BBVs, so absorbing a
	// slightly different member moves it.
	tab := MustNewTable(0.2 * math.Pi)
	tab.Classify(mix(0, 1, 1, 0), 1, 0)
	tab.Classify(mix(0, 1, 0.8, 0.2), 1, 1)
	c := tab.Current().Centroid
	if c[1] <= 0 {
		t.Error("centroid did not absorb the new member")
	}
	if math.Abs(c.Norm()-1) > 1e-9 {
		t.Errorf("centroid norm = %g", c.Norm())
	}
}

func TestCurrentFirstReducesComparisons(t *testing.T) {
	run := func(currentFirst bool) uint64 {
		tab := MustNewTable(0.05 * math.Pi)
		tab.CheckCurrentFirst = currentFirst
		// 8 phases, then a long stay in the last one.
		for i := 0; i < 8; i++ {
			tab.Classify(oneHot(i), 1, i)
		}
		for i := 0; i < 100; i++ {
			tab.Classify(oneHot(7), 1, 8+i)
		}
		return tab.Comparisons
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("current-first made more comparisons: %d vs %d", with, without)
	}
}

func TestRunLengths(t *testing.T) {
	tab := MustNewTable(0.05 * math.Pi)
	a, b := oneHot(0), oneHot(9)
	seq := []bbv.Vector{a, a, a, b, b, a} // runs: 3,2,1
	for i, v := range seq {
		tab.Classify(v, 1, i)
	}
	tab.FinishRun()
	if got := tab.MeanRunLength(); got != 2 {
		t.Errorf("mean run = %g, want 2", got)
	}
	if tab.Transitions != 2 {
		t.Errorf("transitions = %d", tab.Transitions)
	}
}

func TestClassifySeries(t *testing.T) {
	tab := MustNewTable(0.05 * math.Pi)
	series := []bbv.Vector{oneHot(0), oneHot(0), oneHot(5), oneHot(0)}
	ids := tab.ClassifySeries(series, 100)
	want := []int{0, 0, 1, 0}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("ids = %v, want %v", ids, want)
			break
		}
	}
}

// TestWithinPhaseSigma: phases weigh in by their windows, a one-window
// phase is left out, and the result is in units of sigma.
func TestWithinPhaseSigma(t *testing.T) {
	tab := MustNewTable(0.05 * math.Pi)
	ids := tab.ClassifySeries([]bbv.Vector{
		oneHot(0), oneHot(0), oneHot(0), oneHot(5), oneHot(5), oneHot(9),
	}, 100)
	xs := []float64{1, 2, 3, 10, 14, 100} // σ 1 over 3 windows, √8 over 2, one alone
	want := (3*1 + 2*math.Sqrt(8)) / 5 / 2
	if got := tab.WithinPhaseSigma(ids, xs, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("WithinPhaseSigma = %g, want %g", got, want)
	}
	if got := tab.WithinPhaseSigma(ids, xs, 0); got != 0 {
		t.Errorf("zero sigma: got %g, want 0", got)
	}
	if got := tab.WithinPhaseSigma(ids[3:], xs[3:], 2); got == 0 {
		t.Error("a two-window phase must count")
	}
	if got := tab.WithinPhaseSigma(ids[2:4], xs[2:4], 2); got != 0 {
		t.Errorf("one-window phases only: got %g, want 0", got)
	}
}

// Property: with threshold 0 every distinct direction gets its own phase;
// with threshold π/2 everything lands in one phase.
func TestPropertyThresholdExtremes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var series []bbv.Vector
		dirs := rng.Perm(32)[:4]
		for i := 0; i < 20; i++ {
			series = append(series, oneHot(dirs[rng.Intn(4)]))
		}
		loose := MustNewTable(math.Pi / 2)
		loose.ClassifySeries(series, 1)
		if loose.NumPhases() != 1 {
			return false
		}
		tight := MustNewTable(0)
		tight.ClassifySeries(series, 1)
		distinct := map[int]bool{}
		for _, s := range series {
			for i, x := range s {
				if x > 0 {
					distinct[i] = true
				}
			}
		}
		return tight.NumPhases() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: every classified window is within the threshold of its phase's
// (post-absorption) centroid or opened a new phase; phase ops always sum
// to the total.
func TestPropertyOpsConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := MustNewTable(0.1 * math.Pi)
		var total, n uint64
		for i := 0; i < 50; i++ {
			v := mix(rng.Intn(8), 8+rng.Intn(8), rng.Float64()+0.1, rng.Float64())
			ops := uint64(rng.Intn(1000) + 1)
			tab.Classify(v, ops, int(n))
			total += ops
			n++
		}
		var sum uint64
		for _, p := range tab.Phases() {
			sum += p.Ops
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestManhattanMetric(t *testing.T) {
	tab := MustNewTable(0.3) // interpreted as an L1 distance here
	tab.Manhattan = true
	a := oneHot(0)
	tab.Classify(a, 1, 0)
	// L1 distance between identical vectors is 0 → match.
	if _, isNew, _ := tab.Classify(oneHot(0), 1, 1); isNew {
		t.Error("identical vector did not match under Manhattan")
	}
	// Orthogonal one-hots have L1 distance 2 → new phase.
	if _, isNew, _ := tab.Classify(oneHot(5), 1, 2); !isNew {
		t.Error("distant vector matched under Manhattan")
	}
}
