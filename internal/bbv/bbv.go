// Package bbv implements the basic-block-vector tracking hardware of the
// paper (Fig 4): every taken branch hashes five fixed, randomly chosen bits
// of its address into an index for a small register file, and the indexed
// register accumulates the number of operations retired since the previous
// taken branch. At the end of each sampling period the registers are read
// out as a vector, L2-normalised, and compared to other vectors by the
// angle between them (computed from the dot product), avoiding the
// Manhattan-distance normalisation issues of SimPoint (§3).
package bbv

import (
	"fmt"
	"math"
	"math/rand"

	"pgss/internal/pgsserrors"
)

// DefaultHashBits is the paper's hash width: 5 bits → 32 registers.
const DefaultHashBits = 5

// Vector is a normalised (or raw) BBV. Its length is 1<<hashBits.
type Vector []float64

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Norm returns the L2 norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Normalize scales v in place to unit L2 norm and returns it. The zero
// vector is returned unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	for i := range v {
		v[i] /= n
	}
	return v
}

// Dot returns the dot product of v and w. Panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("bbv: dot of mismatched vectors %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Angle returns the angle in radians between v and w, both assumed
// normalised (non-negative components ⇒ the angle lies in [0, π/2]).
// Two zero vectors are identical signatures (angle 0): windows with no
// signal — no taken branch, or no memory access on the MAV channel — must
// group into one quiet phase rather than each opening a fresh one. Exactly
// one vector being zero yields π/2 (maximally different), so an empty
// sampling window never silently matches a real phase.
func (v Vector) Angle(w Vector) float64 {
	if v.isZero() || w.isZero() {
		if v.isZero() && w.isZero() {
			return 0
		}
		return math.Pi / 2
	}
	d := v.Dot(w)
	// Guard FP drift outside [ -1, 1 ].
	if d > 1 {
		d = 1
	} else if d < 0 {
		// Components are non-negative, so a negative dot product is FP
		// noise around zero.
		d = 0
	}
	return math.Acos(d)
}

// ManhattanDistance returns the L1 distance between v and w (SimPoint's
// metric); used by the distance-metric ablation.
func (v Vector) ManhattanDistance(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("bbv: manhattan of mismatched vectors %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += math.Abs(x - w[i])
	}
	return s
}

// EuclideanDistance returns the L2 distance between v and w (the k-means
// metric).
func (v Vector) EuclideanDistance(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("bbv: euclidean of mismatched vectors %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		d := x - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Add accumulates w into v in place.
func (v Vector) Add(w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("bbv: add of mismatched vectors %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += w[i]
	}
}

// Scale multiplies v by s in place.
func (v Vector) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

func (v Vector) isZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// Hash selects a fixed set of address bits and concatenates them into a
// register-file index, as in the paper's hardware sketch: "five bits from
// the address ... chosen at random, but remain constant throughout the
// simulation".
type Hash struct {
	bits []uint // bit positions, low to high significance of the index
	lo   uint   // lowest candidate bit position
	// tab holds the index bits contributed by the two address bytes at
	// lo and lo+8, which cover every candidate range (at most 16 bits).
	tab [2][256]uint16
}

// NewHash picks `width` distinct bit positions with the given seed. The
// positions are drawn from bits 2..17 of the branch address: bits 0–1
// never vary (4-byte instruction slots) and higher bits exceed the code
// footprints of the workloads (256 KB code regions).
func NewHash(width int, seed int64) (*Hash, error) {
	const lo = 2 // candidate range [lo, lo+MaxHashBits)
	return newHashRange(width, seed, lo, lo+MaxHashBits)
}

// MaxHashBits and MaxMAVBits are the widest BBV and MAV hashes: one index
// bit per candidate address bit.
const MaxHashBits, MaxMAVBits = 16, mavHiBit - mavLoBit

// newHashRange picks `width` distinct bit positions from [lo, hi) with the
// given seed; shared by the branch-address (BBV) and data-address (MAV)
// hash constructors, which differ only in their candidate ranges.
func newHashRange(width int, seed int64, lo, hi int) (*Hash, error) {
	if width <= 0 || width > hi-lo {
		return nil, pgsserrors.Invalidf("bbv: hash width %d outside [1,%d]", width, hi-lo)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(hi - lo)
	h := &Hash{bits: make([]uint, width), lo: uint(lo)}
	for i, off := range perm[:width] {
		h.bits[i] = uint(lo + off)
		// Index bit i is bit off%8 of the address byte off/8 above lo.
		for v := range h.tab[off/8] {
			h.tab[off/8][v] |= uint16(v>>(off%8)&1) << i
		}
	}
	return h, nil
}

// MustNewHash is NewHash that panics on error.
func MustNewHash(width int, seed int64) *Hash {
	h, err := NewHash(width, seed)
	if err != nil {
		panic(err)
	}
	return h
}

// Width returns the number of index bits.
func (h *Hash) Width() int { return len(h.bits) }

// Bits returns the selected address bit positions (low to high index
// significance); exposed for diagnostics and tests.
func (h *Hash) Bits() []uint { return append([]uint(nil), h.bits...) }

// Buckets returns the register-file size, 1<<Width.
func (h *Hash) Buckets() int { return 1 << len(h.bits) }

// Index hashes a branch address into a register index: the selected
// address bits, gathered through one table lookup per address byte.
func (h *Hash) Index(addr uint64) int {
	a := addr >> h.lo
	return int(h.tab[0][uint8(a)] | h.tab[1][uint8(a>>8)])
}

// counters is the register file both signature trackers accumulate into:
// one counter per hash bucket, read out and cleared once per sampling
// period.
type counters struct {
	hash *Hash
	regs []float64
}

func newCounters(h *Hash) counters {
	return counters{hash: h, regs: make([]float64, h.Buckets())}
}

// TakeRaw compiles the registers into an unnormalised Vector (component i
// holds the count charged to register i this period) and clears them for
// the next sampling period. Raw vectors are additive: the sum of the raw
// vectors of consecutive periods equals the raw vector of the combined
// period, which is what profile aggregation relies on.
func (c *counters) TakeRaw() Vector {
	v := make(Vector, len(c.regs))
	copy(v, c.regs)
	clear(c.regs)
	return v
}

// AppendRaw is TakeRaw appending into a caller-owned arena: the registers
// are appended to dst and cleared, and the grown slice is returned. The
// recording path in package profile appends every period's raw vector to
// one contiguous array of running sums and folds it onto the row before it
// (no allocation per period, and the layout the binary profile codec writes
// out directly).
func (c *counters) AppendRaw(dst []float64) []float64 {
	dst = append(dst, c.regs...)
	clear(c.regs)
	return dst
}

// TakeVector compiles the registers into a normalised Vector and clears
// them for the next sampling period.
func (c *counters) TakeVector() Vector {
	return c.TakeVectorInto(make(Vector, len(c.regs)))
}

// TakeVectorInto is TakeVector into a caller-owned buffer of length
// Buckets, avoiding the per-period allocation on hot replay and
// fast-forward loops. It returns dst normalised.
func (c *counters) TakeVectorInto(dst Vector) Vector {
	copy(dst, c.regs)
	clear(c.regs)
	return dst.Normalize()
}

// Tracker is the accumulating register file. It is driven from the retire
// stream: call RetireOps for every retired instruction batch and
// TakenBranch at every taken branch. Reading the registers out leaves the
// pending ops alone: they belong to the basic block that will complete
// (with its taken branch) in the next period.
type Tracker struct {
	counters
	pending float64 // ops retired since the last taken branch
}

// NewTracker builds a tracker over the given hash.
func NewTracker(h *Hash) *Tracker { return &Tracker{counters: newCounters(h)} }

// RetireOps notes n retired operations since the last event.
func (t *Tracker) RetireOps(n uint64) { t.pending += float64(n) }

// TakenBranch notes a taken branch at addr: the pending op count is charged
// to the register selected by the hash.
func (t *Tracker) TakenBranch(addr uint64) {
	t.regs[t.hash.Index(addr)] += t.pending
	t.pending = 0
}

// DropPending discards the ops retired since the last taken branch. The
// parallel engine calls it at every window boundary so a window's vector
// depends only on the window's own retire stream — making the vectors
// invariant to how the stream is split into shards.
func (t *Tracker) DropPending() { t.pending = 0 }

// Reset clears all accumulated state.
func (t *Tracker) Reset() {
	clear(t.regs)
	t.pending = 0
}
