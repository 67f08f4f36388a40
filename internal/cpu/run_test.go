package cpu

import (
	"fmt"
	"testing"

	"pgss/internal/bbv"
)

// TestRunDifferential checks the stepping kernel against per-op stepping
// with per-op tracker updates: at every cut of the retire stream the two
// must agree on ops retired, cycles, and the raw BBV (pending ops
// included) and MAV of the period.
func TestRunDifferential(t *testing.T) {
	hash := bbv.MustNewHash(bbv.DefaultHashBits, 42)
	mavHash := bbv.MustNewMAVHash(bbv.DefaultMAVBits, 42)
	// Cut lengths deliberately straddle BlockOps and include zero.
	cuts := []uint64{1, 0, 700, BlockOps, 3, 2*BlockOps + 5, 97}
	for pname, p := range diffPrograms(t) {
		for mode, detailed := range map[string]bool{"warm": false, "detailed": true} {
			t.Run(pname+"/"+mode, func(t *testing.T) {
				c1, err := NewCore(MustNewMachine(p), DefaultCoreConfig())
				if err != nil {
					t.Fatal(err)
				}
				c2, err := NewCore(MustNewMachine(p), DefaultCoreConfig())
				if err != nil {
					t.Fatal(err)
				}
				step := c1.StepWarm
				if detailed {
					step = c1.StepDetailed
				}
				tr1, tr2 := bbv.NewTracker(hash), bbv.NewTracker(hash)
				mav1, mav2 := bbv.NewMAVTracker(mavHash), bbv.NewMAVTracker(mavHash)
				for i := 0; !c2.M.Halted(); i++ {
					n := cuts[i%len(cuts)]
					var want uint64
					var r Retired
					for want < n && step(&r) {
						want++
						tr1.RetireOps(1)
						if r.Taken {
							tr1.TakenBranch(r.Addr)
						}
						if r.Op.IsMem() {
							mav1.Access(r.MemAddr)
						}
					}
					if got := c2.Run(n, detailed, tr2, mav2); got != want {
						t.Fatalf("cut %d: Run retired %d of %d, per-op %d", i, got, n, want)
					}
					if c1.T.Cycle() != c2.T.Cycle() {
						t.Fatalf("cut %d: cycles per-op %d, Run %d", i, c1.T.Cycle(), c2.T.Cycle())
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
			})
		}
	}
}
