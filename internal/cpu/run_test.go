package cpu

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/branch"
	"pgss/internal/cache"
)

// microState is everything a core holds besides architectural state.
type microState struct {
	L1I, L1D, L2 cache.State
	MemAccesses  uint64
	BP           branch.State
	Timing       TimingState
}

func snapshotMicro(c *Core) microState {
	return microState{
		L1I:         c.Hier.L1I.Snapshot(),
		L1D:         c.Hier.L1D.Snapshot(),
		L2:          c.Hier.L2.Snapshot(),
		MemAccesses: c.Hier.MemAccesses,
		BP:          c.BP.Snapshot(),
		Timing:      c.T.Snapshot(),
	}
}

// microDiff names the first part of a core's microarchitectural state in
// which got differs from want. It is "" when they agree.
func microDiff(want, got microState) string {
	switch {
	case !cacheEqual(want.L1I, got.L1I):
		return "L1I state"
	case !cacheEqual(want.L1D, got.L1D):
		return "L1D state"
	case !cacheEqual(want.L2, got.L2):
		return "L2 state"
	case want.MemAccesses != got.MemAccesses:
		return "memory-access count"
	case !reflect.DeepEqual(want.BP, got.BP):
		return "branch unit state"
	case want.Timing != got.Timing:
		return "timing state"
	}
	return ""
}

// cacheEqual is reflect.DeepEqual for cache states, without reflecting
// over every slot of an L2.
func cacheEqual(a, b cache.State) bool {
	return a.Clock == b.Clock && a.Stats == b.Stats && slices.Equal(a.Tags, b.Tags) &&
		slices.Equal(a.LRU, b.LRU) && slices.Equal(a.Dirty, b.Dirty)
}

// archDiff describes the first difference between two machines'
// architectural state other than the data image: registers, pc, retired
// ops, halt and error, wild accesses and every page's dirty flag (which
// Machine.Restore relies on to skip clean pages). It is "" when they agree.
func archDiff(m1, m2 *Machine) string {
	switch {
	case m1.regs != m2.regs:
		return fmt.Sprintf("registers %v / %v", m1.regs, m2.regs)
	case m1.pc != m2.pc:
		return fmt.Sprintf("pc %d / %d", m1.pc, m2.pc)
	case m1.retired != m2.retired:
		return fmt.Sprintf("retired %d / %d", m1.retired, m2.retired)
	case m1.halted != m2.halted:
		return fmt.Sprintf("halted %v / %v", m1.halted, m2.halted)
	case fmt.Sprint(m1.err) != fmt.Sprint(m2.err):
		return fmt.Sprintf("err %v / %v", m1.err, m2.err)
	case m1.WildAccesses != m2.WildAccesses:
		return fmt.Sprintf("wild accesses %d / %d", m1.WildAccesses, m2.WildAccesses)
	case !slices.Equal(m1.dirty, m2.dirty):
		return fmt.Sprintf("page dirty flags %v / %v", m1.dirty, m2.dirty)
	}
	return ""
}

// perOpRun is the reference for Core.Run: up to n single steps, each
// charged to the trackers on its own, as the retire stream reads.
func perOpRun(c *Core, n uint64, step func(*Core, *Retired) bool, t *bbv.Tracker, mav *bbv.MAVTracker) uint64 {
	var done uint64
	var r Retired
	for done < n && step(c, &r) {
		done++
		t.RetireOps(1)
		if r.Taken {
			t.TakenBranch(r.Addr)
		}
		if r.Op.IsMem() {
			mav.Access(r.MemAddr)
		}
	}
	return done
}

// periodDiff takes the period's raw BBV (pending ops flushed into a
// register, so they are compared too) and MAV from both tracker pairs and
// describes the first bucket that differs. It is "" when they agree.
func periodDiff(t1, t2 *bbv.Tracker, mav1, mav2 *bbv.MAVTracker) string {
	t1.TakenBranch(0)
	t2.TakenBranch(0)
	for _, v := range []struct {
		name   string
		v1, v2 bbv.Vector
	}{
		{"BBV", bbv.Vector(t1.AppendRaw(nil)), bbv.Vector(t2.AppendRaw(nil))},
		{"MAV", bbv.Vector(mav1.AppendRaw(nil)), bbv.Vector(mav2.AppendRaw(nil))},
	} {
		for b := range v.v1 {
			if v.v1[b] != v.v2[b] {
				return fmt.Sprintf("%s bucket %d %g / %g", v.name, b, v.v1[b], v.v2[b])
			}
		}
	}
	return ""
}

// TestRunDifferential checks the stepping kernel against per-op stepping
// with per-op tracker updates: at every cut of the retire stream the two
// must agree on ops retired, the architectural state (archDiff), the
// microarchitectural state (microDiff: every cache's State, LRU stamps
// included, the memory-access count, the branch unit and the pipeline)
// and the raw BBV (pending ops included) and MAV of the period, and at the
// end on the data image. A fast-forward run must leave the
// microarchitectural state exactly as it was.
func TestRunDifferential(t *testing.T) {
	hash := bbv.MustNewHash(bbv.DefaultHashBits, 42)
	mavHash := bbv.MustNewMAVHash(bbv.DefaultMAVBits, 42)
	// Cut lengths deliberately straddle BlockOps and include zero.
	cuts := []uint64{1, 0, 700, BlockOps, 3, 2*BlockOps + 5, 97}
	modes := []struct {
		name string
		mode Mode
		step func(*Core, *Retired) bool
	}{
		{"ff", FastForward, (*Core).StepFF},
		{"warm", FunctionalWarming, (*Core).StepWarm},
		{"detailed", Detailed, (*Core).StepDetailed},
	}
	for pname, p := range diffPrograms(t) {
		for _, md := range modes {
			t.Run(pname+"/"+md.name, func(t *testing.T) {
				c1, err := NewCore(MustNewMachine(p), DefaultCoreConfig())
				if err != nil {
					t.Fatal(err)
				}
				c2, err := NewCore(MustNewMachine(p), DefaultCoreConfig())
				if err != nil {
					t.Fatal(err)
				}
				if md.mode == FastForward {
					// Warm a prefix first, so the fast-forward cuts run
					// over populated caches and predictor tables.
					var r Retired
					for i := uint64(0); i < 3*BlockOps+11 && c1.StepWarm(&r); i++ {
					}
					c2.Run(3*BlockOps+11, FunctionalWarming, nil, nil)
				}
				micro := snapshotMicro(c2)
				tr1, tr2 := bbv.NewTracker(hash), bbv.NewTracker(hash)
				mav1, mav2 := bbv.NewMAVTracker(mavHash), bbv.NewMAVTracker(mavHash)
				for i := 0; !c2.M.Halted(); i++ {
					n := cuts[i%len(cuts)]
					want := perOpRun(c1, n, md.step, tr1, mav1)
					if got := c2.Run(n, md.mode, tr2, mav2); got != want {
						t.Fatalf("cut %d: Run retired %d of %d, per-op %d", i, got, n, want)
					}
					if d := archDiff(c1.M, c2.M); d != "" {
						t.Fatalf("cut %d: per-op / Run %s", i, d)
					}
					ref := micro
					if md.mode != FastForward {
						ref = snapshotMicro(c1)
					}
					if d := microDiff(ref, snapshotMicro(c2)); d != "" {
						t.Fatalf("cut %d: Run's %s differs from per-op stepping's", i, d)
					}
					if d := periodDiff(tr1, tr2, mav1, mav2); d != "" {
						t.Fatalf("cut %d: per-op / Run %s", i, d)
					}
				}
				if !slices.Equal(c1.M.data, c2.M.data) {
					t.Fatal("end: per-op and Run data images differ")
				}
			})
		}
	}
}
