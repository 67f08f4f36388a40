package cpu

import (
	"fmt"
	"reflect"
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

// TestRunDifferential checks the stepping kernel against per-op stepping
// with per-op tracker updates: at every cut of the retire stream the two
// must agree on ops retired, cycles, and the raw BBV (pending ops
// included) and MAV of the period. A fast-forward run must also leave the
// caches, their statistics, the memory-access count, the branch predictor
// and the pipeline exactly as they were.
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
					var want uint64
					var r Retired
					for want < n && md.step(c1, &r) {
						want++
						tr1.RetireOps(1)
						if r.Taken {
							tr1.TakenBranch(r.Addr)
						}
						if r.Op.IsMem() {
							mav1.Access(r.MemAddr)
						}
					}
					if got := c2.Run(n, md.mode, tr2, mav2); got != want {
						t.Fatalf("cut %d: Run retired %d of %d, per-op %d", i, got, n, want)
					}
					if c1.T.Cycle() != c2.T.Cycle() {
						t.Fatalf("cut %d: cycles per-op %d, Run %d", i, c1.T.Cycle(), c2.T.Cycle())
					}
					if md.mode == FastForward && !reflect.DeepEqual(snapshotMicro(c2), micro) {
						t.Fatalf("cut %d: fast-forward changed the microarchitectural state", i)
					}
					// Flush pending ops into a register so they are compared too.
					tr1.TakenBranch(0)
					tr2.TakenBranch(0)
					for name, v := range map[string][2]bbv.Vector{
						"BBV": {tr1.TakeRaw(), tr2.TakeRaw()},
						"MAV": {mav1.TakeRaw(), mav2.TakeRaw()},
					} {
						for b := range v[0] {
							if v[0][b] != v[1][b] {
								t.Fatalf("cut %d: %s bucket %d per-op %g, Run %g", i, name, b, v[0][b], v[1][b])
							}
						}
					}
				}
				if c1.M.Retired() != c2.M.Retired() || fmt.Sprint(c1.M.Err()) != fmt.Sprint(c2.M.Err()) {
					t.Fatalf("end: retired %d/%d, err %v/%v", c1.M.Retired(), c2.M.Retired(), c1.M.Err(), c2.M.Err())
				}
				if !reflect.DeepEqual(snapshotMicro(c1), snapshotMicro(c2)) {
					t.Fatal("end: per-op and Run cores differ in microarchitectural state")
				}
			})
		}
	}
}
