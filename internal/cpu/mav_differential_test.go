package cpu

import (
	"testing"

	"pgss/internal/bbv"
)

// TestMAVStepBlockDifferential is the MAV analogue of
// TestStepBlockDifferential: feeding a MAV tracker from the batched
// retirement stream (StepWarmBlock's records, or fast-forward's
// record-free loop with no BBV tracker attached) must produce bitwise the
// same raw memory-access vectors as feeding it from per-op stepping,
// including at arbitrary mid-stream cuts, since MAV accumulation has no
// pending state.
func TestMAVStepBlockDifferential(t *testing.T) {
	progs := diffPrograms(t)
	h := bbv.MustNewMAVHash(bbv.DefaultMAVBits, 42)
	modes := map[string]struct {
		step func(c *Core, r *Retired) bool
		// run retires up to len(buf) ops, feeding their accesses to mav.
		run func(c *Core, buf []Retired, mav *bbv.MAVTracker) int
	}{
		"ff": {
			step: (*Core).StepFF,
			run: func(c *Core, buf []Retired, mav *bbv.MAVTracker) int {
				return int(c.Run(uint64(len(buf)), FastForward, nil, mav))
			},
		},
		"warm": {
			step: (*Core).StepWarm,
			run: func(c *Core, buf []Retired, mav *bbv.MAVTracker) int {
				n := c.StepWarmBlock(buf)
				for i := range buf[:n] {
					if buf[i].Op.IsMem() {
						mav.Access(buf[i].MemAddr)
					}
				}
				return n
			},
		},
	}
	for pname, p := range progs {
		for mname, mode := range modes {
			t.Run(pname+"/"+mname, func(t *testing.T) {
				c1, err := NewCore(MustNewMachine(p), DefaultCoreConfig())
				if err != nil {
					t.Fatal(err)
				}
				c2, err := NewCore(MustNewMachine(p), DefaultCoreConfig())
				if err != nil {
					t.Fatal(err)
				}
				tr1 := bbv.NewMAVTracker(h)
				tr2 := bbv.NewMAVTracker(h)
				buf := make([]Retired, 513) // deliberately not a block multiple
				var r Retired
				const maxOps = 2_000_000
				ops := 0
				for ops < maxOps {
					n := mode.run(c2, buf, tr2)
					for i := 0; i < n; i++ {
						r = Retired{}
						if !mode.step(c1, &r) {
							t.Fatalf("op %d: per-op halted but block retired it", ops+i)
						}
						if r.Op.IsMem() {
							tr1.Access(r.MemAddr)
						}
					}
					ops += n
					// Cut at every block boundary: with no pending state the
					// periods must match bitwise, not just their totals.
					v1, v2 := tr1.TakeRaw(), tr2.TakeRaw()
					for i := range v1 {
						if v1[i] != v2[i] {
							t.Fatalf("op %d: raw MAV bucket %d diverged: per-op %g, block %g",
								ops, i, v1[i], v2[i])
						}
					}
					if n < len(buf) {
						break
					}
				}
				if c1.M.Retired() != c2.M.Retired() {
					t.Fatalf("retired: per-op %d, block %d", c1.M.Retired(), c2.M.Retired())
				}
			})
		}
	}
}
