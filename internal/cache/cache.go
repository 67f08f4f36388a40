// Package cache implements set-associative caches and the two-level
// hierarchy used by the simulated processor: split 4-way 64 KB L1
// instruction and data caches over a unified 1 MB L2, matching the
// configuration in the paper's evaluation (§5).
//
// The model is a timing/contents model: it tracks which lines are resident
// (for hit/miss decisions and warming) and returns access latencies, but it
// does not store data — the functional simulator owns program data.
package cache

import (
	"math/bits"

	"pgss/internal/pgsserrors"
)

// Stats counts accesses for one cache.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// MissRate returns misses/accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one level of set-associative cache with true-LRU replacement and
// a write-back, write-allocate policy.
type Cache struct {
	name     string
	ways     int
	sets     int
	lineBits uint
	setMask  uint64

	// tags[set*ways+way]; valid bit folded in (0 = invalid).
	tags []uint64
	// lru[set*ways+way] holds a per-set stamp; larger = more recent.
	lru   []uint64
	dirty []bool
	clock uint64

	stats Stats
}

// Config describes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Ways      int
	LineBytes int
}

// New builds a cache. Size, ways and line size must be powers of two with
// SizeBytes = sets*ways*LineBytes for some power-of-two set count.
func New(cfg Config) (*Cache, error) {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.LineBytes <= 0 {
		return nil, pgsserrors.Invalidf("cache %s: nonpositive geometry %+v", cfg.Name, cfg)
	}
	if cfg.SizeBytes%(cfg.Ways*cfg.LineBytes) != 0 {
		return nil, pgsserrors.Invalidf("cache %s: size %d not divisible by ways*line %d",
			cfg.Name, cfg.SizeBytes, cfg.Ways*cfg.LineBytes)
	}
	sets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	if sets&(sets-1) != 0 {
		return nil, pgsserrors.Invalidf("cache %s: set count %d not a power of two", cfg.Name, sets)
	}
	if cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, pgsserrors.Invalidf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes)
	}
	c := &Cache{
		name:     cfg.Name,
		ways:     cfg.Ways,
		sets:     sets,
		lineBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*cfg.Ways),
		lru:      make([]uint64, sets*cfg.Ways),
		dirty:    make([]bool, sets*cfg.Ways),
	}
	return c, nil
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.name }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineBits }

// Stats returns a copy of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// lineTag returns the tag (line address) for addr; tags store the full line
// address + 1 so that 0 can mean "invalid".
func (c *Cache) lineTag(addr uint64) uint64 { return (addr >> c.lineBits) + 1 }

func (c *Cache) set(addr uint64) int {
	return int((addr >> c.lineBits) & c.setMask)
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit bool
	// WritebackAddr is the line address (byte address of line start) of a
	// dirty line evicted by this access; Writeback reports whether one
	// occurred.
	Writeback     bool
	WritebackAddr uint64
}

// Access looks up addr, allocating the line on miss (write-allocate). write
// marks the line dirty. The returned result reports hit/miss and any dirty
// eviction.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	c.stats.Accesses++
	c.clock++
	tag := c.lineTag(addr)
	base := c.set(addr) * c.ways
	victim := base
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag {
			c.lru[i] = c.clock
			if write {
				c.dirty[i] = true
			}
			return AccessResult{Hit: true}
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	// Miss: fill over the LRU way.
	c.stats.Misses++
	res := AccessResult{}
	if c.tags[victim] != 0 {
		c.stats.Evictions++
		if c.dirty[victim] {
			c.stats.Writebacks++
			res.Writeback = true
			res.WritebackAddr = (c.tags[victim] - 1) << c.lineBits
		}
	}
	c.tags[victim] = tag
	c.lru[victim] = c.clock
	c.dirty[victim] = write
	return res
}

// Hits charges n read hits on the line holding addr, exactly as n more
// Access(addr, false) calls would once an access has made it resident:
// the clock and the access count advance by n, and the line's LRU stamp
// takes the new clock. A caller that fetches a run of consecutive
// instructions from one line accesses it once and charges the rest here.
// It charges nothing if n is 0 or the line is not resident.
func (c *Cache) Hits(addr, n uint64) {
	if n == 0 {
		return
	}
	i := c.slot(addr)
	if i < 0 {
		return
	}
	c.stats.Accesses += n
	c.clock += n
	c.lru[i] = c.clock
}

// Contains reports whether the line holding addr is resident, without
// disturbing LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool { return c.slot(addr) >= 0 }

// slot returns the index of the slot holding addr's line, or -1 when it is
// not resident.
func (c *Cache) slot(addr uint64) int {
	tag := c.lineTag(addr)
	base := c.set(addr) * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag {
			return i
		}
	}
	return -1
}

// State is a serialisable snapshot of a cache's contents (see the
// checkpoint package).
type State struct {
	Tags  []uint64
	LRU   []uint64
	Dirty []bool
	Clock uint64
	Stats Stats
}

// Snapshot captures the cache's contents and statistics.
func (c *Cache) Snapshot() State {
	return State{
		Tags:  append([]uint64(nil), c.tags...),
		LRU:   append([]uint64(nil), c.lru...),
		Dirty: append([]bool(nil), c.dirty...),
		Clock: c.clock,
		Stats: c.stats,
	}
}

// Restore reinstates a snapshot taken from a cache of identical geometry.
func (c *Cache) Restore(s State) error {
	if len(s.Tags) != len(c.tags) || len(s.LRU) != len(c.lru) || len(s.Dirty) != len(c.dirty) {
		return pgsserrors.Invalidf("cache %s: snapshot geometry %d/%d/%d tags/LRU/dirty lines, cache has %d",
			c.name, len(s.Tags), len(s.LRU), len(s.Dirty), len(c.tags))
	}
	copy(c.tags, s.Tags)
	copy(c.lru, s.LRU)
	copy(c.dirty, s.Dirty)
	c.clock = s.Clock
	c.stats = s.Stats
	return nil
}

// Flush invalidates all lines and clears dirty bits (stats are kept).
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
		c.lru[i] = 0
		c.dirty[i] = false
	}
	c.clock = 0
}

// Latencies gives the load-to-use latency (in cycles) of each hierarchy
// level. These are the values used by the detailed timing model.
type Latencies struct {
	L1  uint64
	L2  uint64
	Mem uint64
}

// DefaultLatencies mirrors a modest early-2000s memory hierarchy.
var DefaultLatencies = Latencies{L1: 2, L2: 12, Mem: 150}

// Hierarchy is the processor's two-level cache system: split L1 I/D over a
// unified L2.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	Lat Latencies

	// MemAccesses counts L2 misses (trips to memory).
	MemAccesses uint64
}

// HierarchyConfig sizes the three caches.
type HierarchyConfig struct {
	L1I, L1D, L2 Config
	Lat          Latencies
}

// DefaultHierarchyConfig is the paper's configuration: split 4-way 64 KB L1
// caches and a unified 1 MB L2 (8-way here), 64-byte lines.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I: Config{Name: "L1I", SizeBytes: 64 << 10, Ways: 4, LineBytes: 64},
		L1D: Config{Name: "L1D", SizeBytes: 64 << 10, Ways: 4, LineBytes: 64},
		L2:  Config{Name: "L2", SizeBytes: 1 << 20, Ways: 8, LineBytes: 64},
		Lat: DefaultLatencies,
	}
}

// NewHierarchy builds the hierarchy.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	l2, err := New(cfg.L2)
	if err != nil {
		return nil, err
	}
	return NewSharedHierarchy(cfg, l2)
}

// NewSharedHierarchy builds a hierarchy whose L2 is the given (possibly
// shared) cache — the chip-multiprocessor configuration, where each core
// owns private L1s over one shared L2. The caller simulates cores
// interleaved on one goroutine; the caches are not safe for concurrent
// use.
func NewSharedHierarchy(cfg HierarchyConfig, l2 *Cache) (*Hierarchy, error) {
	if l2 == nil {
		return nil, pgsserrors.Invalidf("cache: nil shared L2")
	}
	l1i, err := New(cfg.L1I)
	if err != nil {
		return nil, err
	}
	l1d, err := New(cfg.L1D)
	if err != nil {
		return nil, err
	}
	lat := cfg.Lat
	if lat == (Latencies{}) {
		lat = DefaultLatencies
	}
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, Lat: lat}, nil
}

// access runs one L1 access backed by L2 and returns the latency.
func (h *Hierarchy) access(l1 *Cache, addr uint64, write bool) uint64 {
	r1 := l1.Access(addr, write)
	if r1.Hit {
		return h.Lat.L1
	}
	if r1.Writeback {
		// Dirty L1 victim written back into L2 (allocate there).
		h.L2.Access(r1.WritebackAddr, true)
	}
	r2 := h.L2.Access(addr, false)
	if r2.Hit {
		return h.Lat.L2
	}
	h.MemAccesses++
	return h.Lat.Mem
}

// Fetch models an instruction fetch of addr and returns its latency.
func (h *Hierarchy) Fetch(addr uint64) uint64 { return h.access(h.L1I, addr, false) }

// Load models a data load and returns its latency.
func (h *Hierarchy) Load(addr uint64) uint64 { return h.access(h.L1D, addr, false) }

// Store models a data store and returns its latency.
func (h *Hierarchy) Store(addr uint64) uint64 { return h.access(h.L1D, addr, true) }

// Warm touches the hierarchy exactly as Fetch/Load/Store do but is named
// separately for call sites in functional-warming mode, where latencies are
// discarded. write marks data stores; instr selects the I-side.
func (h *Hierarchy) Warm(addr uint64, write, instr bool) {
	if instr {
		h.access(h.L1I, addr, false)
		return
	}
	h.access(h.L1D, addr, write)
}

// Flush invalidates all levels.
func (h *Hierarchy) Flush() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
	h.MemAccesses = 0
}
