package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls. The layer is the name's prefix
// up to the first dot; "bench" spans are the harness's own glue.
//
// Hot calls (one superblock batch of a few hundred ops) are too frequent to
// record one span each. Their durations and op counts accumulate in the
// enclosing span's Leaf and Count tables instead, keyed like span names.
type span struct {
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // -1 for a root
	Run    int              `json:"run"`    // the campaign run the span belongs to, -1 for setup
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Leaf   map[string]int64 `json:"leaf_ns,omitempty"`
	Count  map[string]int64 `json:"count,omitempty"`

	tr *tracer
}

// tracer keeps every span of one traced round in memory. begin may be
// called from any goroutine; a span's tables belong to the goroutine that
// began it until end.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now returns monotonic nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin starts a span under parent (nil for a root).
func (t *tracer) begin(parent *span, run int, name string) *span {
	s := &span{Parent: -1, Run: run, Name: name, tr: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.Start = t.now()
	return s
}

// child begins a span under s in the same run.
func (s *span) child(name string) *span { return s.tr.begin(s, s.Run, name) }

func (s *span) end() { s.End = s.tr.now() }

// leaf charges d nanoseconds of a hot call to key.
func (s *span) leaf(key string, d int64) {
	if s.Leaf == nil {
		s.Leaf = map[string]int64{}
	}
	s.Leaf[key] += d
}

// count adds n to the counter key.
func (s *span) count(key string, n int64) {
	if s.Count == nil {
		s.Count = map[string]int64{}
	}
	s.Count[key] += n
}

// layerOf maps a span or leaf name to its layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that child spans cover (children on other goroutines may
// overlap, so the union counts, not the sum) minus its leaf calls.
func selfTimes(spans []*span) []int64 {
	kids := make([][]*span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(s, kids[i])
		for _, d := range s.Leaf {
			self[i] -= d
		}
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent *span, kids []*span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// accounting is a traced round reduced to time per layer and per name.
type accounting struct {
	layer  map[string]int64 // self time by layer, including leaf calls
	byName map[string]int64 // self time by span name and by leaf key
	count  map[string]int64 // summed counters
	total  int64            // all self time: the thread time the round's spans account for
}

func account(spans []*span) accounting {
	a := accounting{layer: map[string]int64{}, byName: map[string]int64{}, count: map[string]int64{}}
	for i, d := range selfTimes(spans) {
		s := spans[i]
		a.layer[layerOf(s.Name)] += d
		a.byName[s.Name] += d
		a.total += d
		for k, v := range s.Leaf {
			a.layer[layerOf(k)] += v
			a.byName[k] += v
			a.total += v
		}
		for k, v := range s.Count {
			a.count[k] += v
		}
	}
	return a
}

// attributedPct is the share of the round's thread time that landed in a
// named layer rather than in the harness's glue.
func (a accounting) attributedPct() float64 {
	if a.total <= 0 {
		return 0
	}
	return 100 * float64(a.total-a.layer["bench"]) / float64(a.total)
}

// pct returns the self time of a span or leaf name as a share of the total.
func (a accounting) pct(name string) float64 {
	if a.total <= 0 {
		return 0
	}
	return 100 * float64(a.byName[name]) / float64(a.total)
}

// writeSpans writes the spans as JSON.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
