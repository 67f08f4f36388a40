package cache

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func smallCache(t *testing.T) *Cache {
	t.Helper()
	// 4 sets × 2 ways × 64 B lines = 512 B.
	c, err := New(Config{Name: "t", SizeBytes: 512, Ways: 2, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// defaultHierarchy builds the paper-configured hierarchy.
func defaultHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	h, err := NewHierarchy(DefaultHierarchyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestGeometryValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 1, LineBytes: 64},
		{SizeBytes: 100, Ways: 1, LineBytes: 64},    // not divisible
		{SizeBytes: 3 * 64, Ways: 1, LineBytes: 64}, // sets not pow2
		{SizeBytes: 512, Ways: 2, LineBytes: 48},    // line not pow2
		{SizeBytes: -1, Ways: 2, LineBytes: 64},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("accepted bad geometry %+v", cfg)
		}
	}
	c := smallCache(t)
	if c.sets != 4 || c.Ways() != 2 || c.LineBytes() != 64 {
		t.Errorf("geometry: sets=%d ways=%d line=%d", c.sets, c.Ways(), c.LineBytes())
	}
}

func TestMissThenHit(t *testing.T) {
	c := smallCache(t)
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("cold access hit")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("second access missed")
	}
	// Same line, different offset.
	if r := c.Access(0x103f, false); !r.Hit {
		t.Error("same-line access missed")
	}
	// Next line.
	if r := c.Access(0x1040, false); r.Hit {
		t.Error("next-line access hit")
	}
	st := c.Stats()
	if st.Accesses != 4 || st.Misses != 2 {
		t.Errorf("stats: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(t)
	// Three lines in the same set (set = bits above line offset, 4 sets).
	a, b1, b2 := uint64(0x0000), uint64(0x0100), uint64(0x0200) // all set 0
	c.Access(a, false)
	c.Access(b1, false)
	c.Access(a, false) // a now MRU
	r := c.Access(b2, false)
	if r.Hit {
		t.Error("b2 should miss")
	}
	// b1 (LRU) must have been evicted, a retained.
	if !c.Contains(a) {
		t.Error("MRU line evicted")
	}
	if c.Contains(b1) {
		t.Error("LRU line retained")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := smallCache(t)
	c.Access(0x0000, true) // dirty
	c.Access(0x0100, false)
	r := c.Access(0x0200, false) // evicts 0x0000
	if !r.Writeback || r.WritebackAddr != 0x0000 {
		t.Errorf("expected writeback of 0x0000, got %+v", r)
	}
	st := c.Stats()
	if st.Writebacks != 1 || st.Evictions != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := smallCache(t)
	c.Access(0x0000, false)
	c.Access(0x0100, false)
	if r := c.Access(0x0200, false); r.Writeback {
		t.Error("clean eviction produced writeback")
	}
}

func TestFlush(t *testing.T) {
	c := smallCache(t)
	c.Access(0x0000, true)
	c.Flush()
	if c.Contains(0x0000) {
		t.Error("flush left line resident")
	}
	if r := c.Access(0x0000, false); r.Hit || r.Writeback {
		t.Errorf("post-flush access: %+v", r)
	}
}

// TestHitsMatchesAccesses checks Hits against repeated read accesses: on
// a resident line, whether or not the last access touched it, Hits(addr, n)
// must leave the State that n more Access(addr, false) calls leave, and on
// a line that is not resident it must charge nothing.
func TestHitsMatchesAccesses(t *testing.T) {
	hits, accesses := smallCache(t), smallCache(t)
	for _, c := range []*Cache{hits, accesses} {
		c.Access(0x0000, true)
		c.Access(0x0100, false) // same set as 0x0000
		c.Access(0x0040, false)
	}
	for _, step := range []struct {
		addr, n uint64
	}{
		{0x0048, 3}, // the line accessed last
		{0x0010, 2}, // an older line in another set
		{0x0104, 1},
		{0x0000, 0},
	} {
		hits.Hits(step.addr, step.n)
		for range step.n {
			accesses.Access(step.addr, false)
		}
		if !reflect.DeepEqual(hits.Snapshot(), accesses.Snapshot()) {
			t.Fatalf("Hits(%#x, %d): state %+v, %d accesses give %+v",
				step.addr, step.n, hits.Snapshot(), step.n, accesses.Snapshot())
		}
	}
	before := hits.Snapshot()
	hits.Hits(0x0200, 5) // not resident
	if !reflect.DeepEqual(hits.Snapshot(), before) {
		t.Errorf("Hits on a line that is not resident changed the state")
	}
}

func TestContainsDoesNotDisturb(t *testing.T) {
	c := smallCache(t)
	c.Access(0x0000, false)
	c.Access(0x0100, false)
	before := c.Stats()
	for i := 0; i < 10; i++ {
		c.Contains(0x0000)
	}
	if c.Stats() != before {
		t.Error("Contains changed stats")
	}
	// LRU undisturbed: 0x0000 is still LRU and must be evicted next.
	c.Access(0x0200, false)
	if c.Contains(0x0000) {
		t.Error("Contains refreshed LRU state")
	}
}

// Property: a cache with S sets and W ways retains the last W distinct
// lines mapped to one set, and any access within them hits.
func TestPropertyWorkingSetRetention(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{Name: "p", SizeBytes: 2048, Ways: 4, LineBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		// 8 sets; pick one set and W distinct lines in it.
		set := uint64(rng.Intn(8))
		lines := make([]uint64, 4)
		for i := range lines {
			lines[i] = (uint64(i*8)+set)*64 + uint64(rng.Intn(64)) // distinct tags, same set
		}
		for _, a := range lines {
			c.Access(a, false)
		}
		for _, a := range lines {
			if !c.Contains(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: miss count never exceeds access count, and after any access
// the line is resident.
func TestPropertyAccessInvariants(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c := smallCache(&testing.T{})
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			c.Access(uint64(a), w)
			if !c.Contains(uint64(a)) {
				return false
			}
		}
		st := c.Stats()
		return st.Misses <= st.Accesses && st.Writebacks <= st.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := defaultHierarchy(t)
	// Cold load: memory latency.
	if lat := h.Load(0x5000); lat != h.Lat.Mem {
		t.Errorf("cold load latency %d, want %d", lat, h.Lat.Mem)
	}
	// Now resident in both L1 and L2: L1 hit.
	if lat := h.Load(0x5000); lat != h.Lat.L1 {
		t.Errorf("warm load latency %d, want %d", lat, h.Lat.L1)
	}
	if h.MemAccesses != 1 {
		t.Errorf("mem accesses = %d", h.MemAccesses)
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := defaultHierarchy(t)
	h.Load(0x5000)
	// Evict from L1 by filling its set (L1D: 64KB/4way/64B = 256 sets →
	// same set every 16 KB).
	for i := 1; i <= 4; i++ {
		h.Load(0x5000 + uint64(i)*16*1024)
	}
	if h.L1D.Contains(0x5000) {
		t.Skip("L1 set not exhausted; geometry changed")
	}
	if lat := h.Load(0x5000); lat != h.Lat.L2 {
		t.Errorf("L2 hit latency %d, want %d", lat, h.Lat.L2)
	}
}

func TestHierarchySplitIAndD(t *testing.T) {
	h := defaultHierarchy(t)
	h.Fetch(0x9000)
	if h.L1D.Contains(0x9000) {
		t.Error("instruction fetch landed in L1D")
	}
	if !h.L1I.Contains(0x9000) {
		t.Error("instruction fetch missing from L1I")
	}
	h.Warm(0x9000, false, false)
	if !h.L1D.Contains(0x9000) {
		t.Error("warm data access missing from L1D")
	}
}

func TestHierarchyDirtyL1VictimGoesToL2(t *testing.T) {
	h := defaultHierarchy(t)
	h.Store(0x5000)
	for i := 1; i <= 4; i++ {
		h.Load(0x5000 + uint64(i)*16*1024)
	}
	// The dirty victim must be in L2 now.
	if !h.L2.Contains(0x5000) {
		t.Error("dirty L1 victim not written back into L2")
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := defaultHierarchy(t)
	h.Load(0x5000)
	h.Flush()
	if h.L1D.Contains(0x5000) || h.L2.Contains(0x5000) || h.MemAccesses != 0 {
		t.Error("flush incomplete")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("idle miss rate nonzero")
	}
	s = Stats{Accesses: 4, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("miss rate = %g", s.MissRate())
	}
}
