// Package branch implements the branch prediction hardware of the simulated
// core: two-bit bimodal and gshare direction predictors, a branch target
// buffer, and a return-address stack, composed into the Unit used by both
// the detailed timing model and functional warming.
package branch

import (
	"math/bits"

	"pgss/internal/pgsserrors"
)

// counter is a saturating 2-bit counter. Values 0..1 predict not-taken,
// 2..3 predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// DirectionPredictor predicts conditional branch directions.
type DirectionPredictor interface {
	// Predict returns the predicted direction for a branch at addr.
	Predict(addr uint64) bool
	// Update trains the predictor with the resolved direction.
	Update(addr uint64, taken bool)
	// Name identifies the predictor in stats output.
	Name() string
}

// Bimodal is a classic per-address 2-bit counter table.
type Bimodal struct {
	table []counter
	mask  uint64
}

// NewBimodal builds a bimodal predictor with the given power-of-two entry
// count. Counters start weakly not-taken.
func NewBimodal(entries int) (*Bimodal, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, pgsserrors.Invalidf("branch: bimodal entries %d not a power of two", entries)
	}
	b := &Bimodal{table: make([]counter, entries), mask: uint64(entries - 1)}
	for i := range b.table {
		b.table[i] = 1
	}
	return b, nil
}

func (b *Bimodal) index(addr uint64) uint64 { return (addr >> 2) & b.mask }

// Predict implements DirectionPredictor.
func (b *Bimodal) Predict(addr uint64) bool { return b.table[b.index(addr)].taken() }

// Update implements DirectionPredictor.
func (b *Bimodal) Update(addr uint64, taken bool) {
	i := b.index(addr)
	b.table[i] = b.table[i].update(taken)
}

// Name implements DirectionPredictor.
func (b *Bimodal) Name() string { return "bimodal" }

// Gshare XORs a global history register with the branch address to index a
// table of 2-bit counters.
type Gshare struct {
	table    []counter
	mask     uint64
	history  uint64
	histBits uint
}

// NewGshare builds a gshare predictor with the given power-of-two entry
// count and history length in bits (history is truncated to the index
// width).
func NewGshare(entries int, historyBits uint) (*Gshare, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, pgsserrors.Invalidf("branch: gshare entries %d not a power of two", entries)
	}
	idxBits := uint(bits.TrailingZeros(uint(entries)))
	if historyBits > idxBits {
		historyBits = idxBits
	}
	g := &Gshare{table: make([]counter, entries), mask: uint64(entries - 1), histBits: historyBits}
	for i := range g.table {
		g.table[i] = 1
	}
	return g, nil
}

func (g *Gshare) index(addr uint64) uint64 {
	return ((addr >> 2) ^ g.history) & g.mask
}

// Predict implements DirectionPredictor.
func (g *Gshare) Predict(addr uint64) bool { return g.table[g.index(addr)].taken() }

// Update implements DirectionPredictor. It also shifts the resolved
// direction into the global history.
func (g *Gshare) Update(addr uint64, taken bool) {
	i := g.index(addr)
	g.table[i] = g.table[i].update(taken)
	g.history <<= 1
	if taken {
		g.history |= 1
	}
	g.history &= (1 << g.histBits) - 1
}

// Name implements DirectionPredictor.
func (g *Gshare) Name() string { return "gshare" }

// BTB is a direct-mapped branch target buffer.
type BTB struct {
	tags    []uint64
	targets []uint64
	mask    uint64
}

// NewBTB builds a BTB with a power-of-two entry count.
func NewBTB(entries int) (*BTB, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, pgsserrors.Invalidf("branch: BTB entries %d not a power of two", entries)
	}
	return &BTB{
		tags:    make([]uint64, entries),
		targets: make([]uint64, entries),
		mask:    uint64(entries - 1),
	}, nil
}

func (t *BTB) index(addr uint64) uint64 { return (addr >> 2) & t.mask }

// Lookup returns the predicted target for addr and whether the entry hit.
func (t *BTB) Lookup(addr uint64) (target uint64, hit bool) {
	i := t.index(addr)
	if t.tags[i] == addr+1 {
		return t.targets[i], true
	}
	return 0, false
}

// Update installs the resolved target for addr.
func (t *BTB) Update(addr, target uint64) {
	i := t.index(addr)
	t.tags[i] = addr + 1
	t.targets[i] = target
}

// RAS is a fixed-depth return-address stack with wrap-around overwrite, as
// in real hardware.
type RAS struct {
	stack []uint64
	top   int
	depth int
}

// NewRAS builds a return-address stack of the given depth.
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		depth = 1
	}
	return &RAS{stack: make([]uint64, depth)}
}

// Push records a return address (on calls).
func (r *RAS) Push(addr uint64) {
	r.stack[r.top] = addr
	r.top = (r.top + 1) % len(r.stack)
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts a return target. ok is false when the stack is empty.
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return r.stack[r.top], true
}

// Stats counts prediction outcomes.
type Stats struct {
	Branches      uint64 // conditional branches seen
	Mispredicts   uint64 // direction mispredictions
	TargetMisses  uint64 // taken control flow with wrong/unknown target
	IndirectJumps uint64 // JR-class instructions seen
}

// MispredictRate returns direction mispredictions per conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Unit composes a direction predictor, BTB and RAS; this is the structure
// the core talks to.
type Unit struct {
	dir   DirectionPredictor
	btb   *BTB
	ras   *RAS
	stats Stats
}

// Config sizes the Unit.
type Config struct {
	// Predictor selects "gshare" (default) or "bimodal".
	Predictor   string
	Entries     int // direction table entries (default 4096)
	HistoryBits uint
	BTBEntries  int // default 1024
	RASDepth    int // default 16
}

// DefaultConfig matches the evaluation setup: 4k-entry gshare with 12 bits
// of history, 1k-entry BTB, 16-deep RAS.
func DefaultConfig() Config {
	return Config{Predictor: "gshare", Entries: 4096, HistoryBits: 12, BTBEntries: 1024, RASDepth: 16}
}

// NewUnit builds a prediction unit.
func NewUnit(cfg Config) (*Unit, error) {
	if cfg.Entries == 0 {
		cfg.Entries = 4096
	}
	if cfg.BTBEntries == 0 {
		cfg.BTBEntries = 1024
	}
	if cfg.RASDepth == 0 {
		cfg.RASDepth = 16
	}
	var dir DirectionPredictor
	var err error
	switch cfg.Predictor {
	case "", "gshare":
		if cfg.HistoryBits == 0 {
			cfg.HistoryBits = 12
		}
		dir, err = NewGshare(cfg.Entries, cfg.HistoryBits)
	case "bimodal":
		dir, err = NewBimodal(cfg.Entries)
	default:
		return nil, pgsserrors.Invalidf("branch: unknown predictor %q", cfg.Predictor)
	}
	if err != nil {
		return nil, err
	}
	btb, err := NewBTB(cfg.BTBEntries)
	if err != nil {
		return nil, err
	}
	return &Unit{dir: dir, btb: btb, ras: NewRAS(cfg.RASDepth)}, nil
}

// MustNewUnit is NewUnit that panics on error.
func MustNewUnit(cfg Config) *Unit {
	u, err := NewUnit(cfg)
	if err != nil {
		panic(err)
	}
	return u
}

// Stats returns a copy of the outcome counters.
func (u *Unit) Stats() Stats { return u.stats }

// ResetStats zeroes the counters without touching predictor state.
func (u *Unit) ResetStats() { u.stats = Stats{} }

// State is a serialisable snapshot of a prediction unit (see the
// checkpoint package).
type State struct {
	DirCounters []uint8
	DirHistory  uint64
	BTBTags     []uint64
	BTBTargets  []uint64
	RASStack    []uint64
	RASTop      int
	RASDepth    int
	Stats       Stats
}

// Snapshot captures all predictor state.
func (u *Unit) Snapshot() State {
	s := State{
		BTBTags:    append([]uint64(nil), u.btb.tags...),
		BTBTargets: append([]uint64(nil), u.btb.targets...),
		RASStack:   append([]uint64(nil), u.ras.stack...),
		RASTop:     u.ras.top,
		RASDepth:   u.ras.depth,
		Stats:      u.stats,
	}
	switch d := u.dir.(type) {
	case *Gshare:
		s.DirCounters = make([]uint8, len(d.table))
		for i, c := range d.table {
			s.DirCounters[i] = uint8(c)
		}
		s.DirHistory = d.history
	case *Bimodal:
		s.DirCounters = make([]uint8, len(d.table))
		for i, c := range d.table {
			s.DirCounters[i] = uint8(c)
		}
	}
	return s
}

// Restore reinstates a snapshot taken from a unit of identical geometry.
func (u *Unit) Restore(s State) error {
	if len(s.BTBTags) != len(u.btb.tags) || len(s.BTBTargets) != len(u.btb.targets) ||
		len(s.RASStack) != len(u.ras.stack) {
		return pgsserrors.Invalidf("branch: snapshot geometry mismatch")
	}
	if s.RASTop < 0 || s.RASTop >= len(u.ras.stack) || s.RASDepth < 0 || s.RASDepth > len(u.ras.stack) {
		return pgsserrors.Invalidf("branch: snapshot RAS top %d depth %d outside a %d-entry stack",
			s.RASTop, s.RASDepth, len(u.ras.stack))
	}
	copy(u.btb.tags, s.BTBTags)
	copy(u.btb.targets, s.BTBTargets)
	copy(u.ras.stack, s.RASStack)
	u.ras.top = s.RASTop
	u.ras.depth = s.RASDepth
	u.stats = s.Stats
	switch d := u.dir.(type) {
	case *Gshare:
		if len(s.DirCounters) != len(d.table) {
			return pgsserrors.Invalidf("branch: direction table size mismatch")
		}
		for i, c := range s.DirCounters {
			d.table[i] = counter(c)
		}
		d.history = s.DirHistory
	case *Bimodal:
		if len(s.DirCounters) != len(d.table) {
			return pgsserrors.Invalidf("branch: direction table size mismatch")
		}
		for i, c := range s.DirCounters {
			d.table[i] = counter(c)
		}
	}
	return nil
}

// Branch resolves a conditional branch at addr with the given outcome and
// reports whether the front end would have mispredicted it (direction or,
// for taken branches, target).
func (u *Unit) Branch(addr uint64, taken bool, target uint64) (mispredict bool) {
	u.stats.Branches++
	predTaken := u.dir.Predict(addr)
	predTarget, btbHit := u.btb.Lookup(addr)
	u.dir.Update(addr, taken)
	if taken {
		u.btb.Update(addr, target)
	}
	if predTaken != taken {
		u.stats.Mispredicts++
		return true
	}
	if taken && (!btbHit || predTarget != target) {
		u.stats.TargetMisses++
		return true
	}
	return false
}

// Jump resolves an unconditional direct jump; direct jumps only miss on a
// cold BTB.
func (u *Unit) Jump(addr, target uint64) (mispredict bool) {
	predTarget, hit := u.btb.Lookup(addr)
	u.btb.Update(addr, target)
	if !hit || predTarget != target {
		u.stats.TargetMisses++
		return true
	}
	return false
}

// Call resolves a JAL: target predicted like a jump, return address pushed.
func (u *Unit) Call(addr, target, returnAddr uint64) (mispredict bool) {
	u.ras.Push(returnAddr)
	return u.Jump(addr, target)
}

// Return resolves a JR used as a return, predicted through the RAS.
func (u *Unit) Return(addr, target uint64) (mispredict bool) {
	u.stats.IndirectJumps++
	pred, ok := u.ras.Pop()
	if !ok || pred != target {
		u.stats.TargetMisses++
		return true
	}
	return false
}

// Indirect resolves a JR used as a computed jump, predicted via the BTB.
func (u *Unit) Indirect(addr, target uint64) (mispredict bool) {
	u.stats.IndirectJumps++
	return u.Jump(addr, target)
}
