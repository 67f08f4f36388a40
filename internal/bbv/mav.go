// Memory-access-vector (MAV) signature channel, after Ampere's Memory
// Access Vectors: instead of (or in addition to) hashing taken-branch
// addresses, the tracker hashes the *data* addresses of retired loads and
// stores. Workloads whose phase structure lives in their memory reference
// stream rather than their control flow (pointer chasing, blocked array
// sweeps) separate in MAV space even when their BBVs barely move, which is
// why the memory-bound profiles are where the MAV channel earns its keep.
//
// MAV raw vectors count accesses per hashed line group. Unlike the BBV
// tracker there is no pending state — each access is charged to its bucket
// immediately — so raw MAVs are additive across any cut of the retire
// stream by construction, and the parallel engine needs no DropPending
// discipline for them.
package bbv

// DefaultMAVBits is the MAV hash width: 5 bits → 32 counters, matching the
// BBV register file so concatenated signatures weight the channels evenly.
const DefaultMAVBits = 5

// MAV hash bits are drawn from 6..17 of the data address: bits 0–5 are the
// 64-byte cache-line offset (accesses within a line should land in one
// bucket), and higher bits exceed the workloads' data footprints.
const mavLoBit, mavHiBit = 6, 18

// NewMAVHash picks `width` distinct data-address bit positions with the
// given seed, above the cache-line offset (see mavLoBit).
func NewMAVHash(width int, seed int64) (*Hash, error) {
	return newHashRange(width, seed, mavLoBit, mavHiBit)
}

// MustNewMAVHash is NewMAVHash that panics on error.
func MustNewMAVHash(width int, seed int64) *Hash {
	h, err := NewMAVHash(width, seed)
	if err != nil {
		panic(err)
	}
	return h
}

// MAVTracker is the access-counting counter file. It is driven from the
// retire stream: call Access with the data address of every retired load
// and store. With no pending state, raw MAVs of consecutive periods always
// sum to the raw MAV of the combined period.
type MAVTracker struct {
	counters
}

// NewMAVTracker builds a tracker over the given hash (normally from
// NewMAVHash, so the index ignores intra-line offset bits).
func NewMAVTracker(h *Hash) *MAVTracker { return &MAVTracker{newCounters(h)} }

// Access charges one memory access at the given data address.
func (t *MAVTracker) Access(addr uint64) { t.regs[t.hash.Index(addr)]++ }

// Reset clears all accumulated counts.
func (t *MAVTracker) Reset() { clear(t.regs) }
