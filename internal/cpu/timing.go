package cpu

import (
	"pgss/internal/branch"
	"pgss/internal/cache"
	"pgss/internal/isa"
)

// Latency table for the execution classes (issue-to-result cycles). Load
// latency comes from the cache hierarchy instead.
var classLatency = [...]uint64{
	isa.ClassNop:    1,
	isa.ClassALU:    1,
	isa.ClassMul:    4,
	isa.ClassDiv:    20,
	isa.ClassFPAdd:  3,
	isa.ClassFPMul:  4,
	isa.ClassFPDiv:  16,
	isa.ClassStore:  1,
	isa.ClassBranch: 1,
	isa.ClassJump:   1,
	isa.ClassHalt:   1,
}

// TimingConfig parameterises the pipeline model.
type TimingConfig struct {
	Width             int    // issue width (default 4)
	MispredictPenalty uint64 // cycles of front-end flush (default 6)
}

// DefaultTimingConfig matches the paper's 4-wide in-order core.
func DefaultTimingConfig() TimingConfig {
	return TimingConfig{Width: 4, MispredictPenalty: 6}
}

// Timing is the cycle-accurate scoreboard model of the in-order core. It
// tracks, per architectural register, the cycle at which its value becomes
// available, and issues instructions in order, at most Width per cycle,
// stalling on RAW hazards, I-cache misses, D-cache misses (loads) and
// branch mispredictions.
type Timing struct {
	cfg  TimingConfig
	hier *cache.Hierarchy
	bp   *branch.Unit

	readyAt   [isa.NumRegs]uint64
	lastIssue uint64 // cycle of the most recent issue
	slots     int    // instructions already issued in lastIssue's cycle
	feReady   uint64 // earliest cycle the front end can deliver
	lastLine  uint64 // current I-fetch line address (+1; 0 = none)
	lineMask  uint64
}

// NewTiming builds the timing model over a hierarchy and predictor.
func NewTiming(cfg TimingConfig, hier *cache.Hierarchy, bp *branch.Unit) *Timing {
	if cfg.Width <= 0 {
		cfg.Width = 4
	}
	if cfg.MispredictPenalty == 0 {
		cfg.MispredictPenalty = 6
	}
	return &Timing{
		cfg:      cfg,
		hier:     hier,
		bp:       bp,
		lineMask: ^uint64(hier.L1I.LineBytes() - 1),
	}
}

// Cycle returns the current cycle count (cycle of the last issued
// instruction).
func (t *Timing) Cycle() uint64 { return t.lastIssue }

// TimingState is a serialisable snapshot of the pipeline model.
type TimingState struct {
	ReadyAt   [isa.NumRegs]uint64
	LastIssue uint64
	Slots     int
	FEReady   uint64
	LastLine  uint64
}

// Snapshot captures the scoreboard state (cache and predictor state are
// snapshotted separately through their own packages).
func (t *Timing) Snapshot() TimingState {
	return TimingState{
		ReadyAt:   t.readyAt,
		LastIssue: t.lastIssue,
		Slots:     t.slots,
		FEReady:   t.feReady,
		LastLine:  t.lastLine,
	}
}

// Restore reinstates a scoreboard snapshot.
func (t *Timing) Restore(s TimingState) {
	t.readyAt = s.ReadyAt
	t.lastIssue = s.LastIssue
	t.slots = s.Slots
	t.feReady = s.FEReady
	t.lastLine = s.LastLine
}

// Retire advances the model by one retired instruction.
func (t *Timing) Retire(r *Retired) {
	// Front end: fetching a new I-cache line may stall delivery.
	line := (r.Addr & t.lineMask) + 1
	if line != t.lastLine {
		lat := t.hier.Fetch(r.Addr)
		if lat > t.hier.Lat.L1 {
			stall := t.lastIssue + (lat - t.hier.Lat.L1)
			if stall > t.feReady {
				t.feReady = stall
			}
		}
		t.lastLine = line
	}

	// Issue cycle: in order, after operands and front end are ready.
	issue := t.lastIssue
	if t.feReady > issue {
		issue = t.feReady
	}
	if r.Op.ReadsSrc1() && t.readyAt[r.Src1] > issue {
		issue = t.readyAt[r.Src1]
	}
	if r.Op.ReadsSrc2() && t.readyAt[r.Src2] > issue {
		issue = t.readyAt[r.Src2]
	}
	if issue == t.lastIssue {
		if t.slots >= t.cfg.Width {
			issue++
			t.slots = 0
		}
	} else {
		t.slots = 0
	}
	t.slots++
	t.lastIssue = issue

	// Execute: result latency.
	var lat uint64
	switch r.Op.Class() {
	case isa.ClassLoad:
		lat = t.hier.Load(r.MemAddr)
	case isa.ClassStore:
		// Stores drain through a store buffer; the cache is updated for
		// contents/miss accounting but retirement is not delayed.
		t.hier.Store(r.MemAddr)
		lat = classLatency[isa.ClassStore]
	default:
		lat = classLatency[r.Op.Class()]
	}
	if r.Op.WritesDst() && r.Dst != isa.Zero {
		t.readyAt[r.Dst] = issue + lat
	}

	// Control flow: resolve against the prediction unit.
	if r.Op.IsControl() {
		mis := t.resolveControl(r)
		if mis {
			redirect := issue + lat + t.cfg.MispredictPenalty
			if redirect > t.feReady {
				t.feReady = redirect
			}
			t.lastLine = 0 // refetch target line
		}
	}
}

func (t *Timing) resolveControl(r *Retired) bool {
	switch {
	case r.Op.IsBranch():
		return t.bp.Branch(r.Addr, r.Taken, r.TargetAddr)
	case r.Op == isa.JAL:
		return t.bp.Call(r.Addr, r.TargetAddr, r.ReturnAddr)
	case r.Op == isa.JR && r.IsReturn:
		return t.bp.Return(r.Addr, r.TargetAddr)
	case r.Op == isa.JR:
		return t.bp.Indirect(r.Addr, r.TargetAddr)
	default: // JMP
		return t.bp.Jump(r.Addr, r.TargetAddr)
	}
}

// WarmControl trains the branch unit with a resolved control instruction
// without charging any timing; used in functional-warming mode.
func (t *Timing) WarmControl(r *Retired) { t.resolveControl(r) }

// Core bundles the interpreter with its microarchitecture and exposes the
// three execution modes of sampled simulation.
type Core struct {
	M    *Machine
	Hier *cache.Hierarchy
	BP   *branch.Unit
	T    *Timing

	block []Retired // reusable batch buffer, see BlockBuf
}

// CoreConfig sizes a Core.
type CoreConfig struct {
	Hierarchy cache.HierarchyConfig
	Branch    branch.Config
	Timing    TimingConfig
}

// DefaultCoreConfig is the paper's evaluation machine.
func DefaultCoreConfig() CoreConfig {
	return CoreConfig{
		Hierarchy: cache.DefaultHierarchyConfig(),
		Branch:    branch.DefaultConfig(),
		Timing:    DefaultTimingConfig(),
	}
}

// NewPipelineParts builds just the microarchitectural side of a core — a
// timing model over fresh caches and predictors, with no interpreter — and
// exposes the hierarchy and branch unit. Trace replay uses it: the retire
// stream comes from a recorded trace instead of execution, and captured
// cache and predictor state can be restored before driving the pipeline.
func NewPipelineParts(cfg CoreConfig) (*Timing, *cache.Hierarchy, *branch.Unit, error) {
	hier, err := cache.NewHierarchy(cfg.Hierarchy)
	if err != nil {
		return nil, nil, nil, err
	}
	bp, err := branch.NewUnit(cfg.Branch)
	if err != nil {
		return nil, nil, nil, err
	}
	return NewTiming(cfg.Timing, hier, bp), hier, bp, nil
}

// NewCore builds a Core around an existing Machine with the given
// configuration.
func NewCore(m *Machine, cfg CoreConfig) (*Core, error) {
	hier, err := cache.NewHierarchy(cfg.Hierarchy)
	if err != nil {
		return nil, err
	}
	return NewCoreWithHierarchy(m, cfg, hier)
}

// NewCoreWithHierarchy builds a Core over an externally constructed cache
// hierarchy; the CMP simulator uses this to give every core private L1s
// over one shared L2.
func NewCoreWithHierarchy(m *Machine, cfg CoreConfig, hier *cache.Hierarchy) (*Core, error) {
	bp, err := branch.NewUnit(cfg.Branch)
	if err != nil {
		return nil, err
	}
	return &Core{
		M:    m,
		Hier: hier,
		BP:   bp,
		T:    NewTiming(cfg.Timing, hier, bp),
	}, nil
}

// StepDetailed retires one instruction under the full timing model.
// It returns false when the machine has halted.
func (c *Core) StepDetailed(r *Retired) bool {
	if !c.M.Step(r) {
		return false
	}
	c.T.Retire(r)
	return true
}

// StepWarm retires one instruction in functional-warming mode: caches and
// branch predictors are updated, no cycles are charged. This is the
// fast-forward mode of SMARTS and PGSS.
func (c *Core) StepWarm(r *Retired) bool {
	if !c.M.Step(r) {
		return false
	}
	c.Hier.Warm(r.Addr, false, true)
	if r.Op.IsMem() {
		c.Hier.Warm(r.MemAddr, r.Op == isa.ST, false)
	}
	if r.Op.IsControl() {
		c.T.WarmControl(r)
	}
	return true
}

// StepFF retires one instruction architecturally only (plain fast-forward,
// SimPoint-style: no warming).
func (c *Core) StepFF(r *Retired) bool {
	return c.M.Step(r)
}
