package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"pgss/internal/sampling"
)

// TestMain lets the test binary serve as its own child rounds.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// tinyConfig is every workload at smoke-test size.
func tinyConfig() config {
	return config{
		ops: 2_000_000,
		benchmarks: map[string][]string{
			"record":      {"164.gzip", "181.mcf"},
			"replay":      {"177.mesa", "300.twolf"},
			"live-phased": {"164.gzip", "188.ammp"},
			"live-churn":  {"179.art", "197.parser"},
		},
		replaySeeds: 2,
		minRounds:   1,
		hostSteps:   10_000,
	}
}

// TestSmoke runs every workload untraced and traced at tiny size, through
// the same child processes as the command, and checks the result line.
func TestSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	cfg := tinyConfig()
	for _, w := range sortedWorkloads(cfg) {
		for _, trace := range []string{"0", "1"} {
			var stdout bytes.Buffer
			code := benchMain([]string{"--workload", w, "--seed", "3", "--seconds", "0.001", "--trace", trace}, &stdout, cfg)
			out := stdout.String()
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s", w, trace, code, out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var o outcome
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
				t.Fatalf("%s trace %s: last line is not the result: %v\n%s", w, trace, err, out)
			}
			if !o.Correct || o.Failed != 0 || o.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v failed=%d attempted=%d", w, trace, o.Correct, o.Failed, o.Attempted)
			}
			want := endToEnd
			if trace == "1" {
				want = perLayer()
			}
			if len(o.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, trace, len(o.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := o.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w, trace, m.name, v, m.unit)
				}
			}
			for _, m := range endToEnd {
				if !strings.Contains(out, m.name) {
					t.Errorf("%s trace %s: the table does not print %s", w, trace, m.name)
				}
			}
			if trace == "0" && !(o.Metrics["sim_mops_per_s"].Value > 0 && o.Metrics["setup_s"].Value > 0) {
				t.Errorf("%s: non-positive throughput or set-up time: %+v", w, o.Metrics)
			}
		}
	}
}

func sortedWorkloads(cfg config) []string {
	var ws []string
	for w := range cfg.benchmarks {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	return ws
}

// TestSummarize pins the quartiles to Python's
// statistics.quantiles(xs, n=4), the method the spreads are judged by.
func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		q1, median, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
	} {
		s := summarize(tc.xs)
		if s.Q1 != tc.q1 || s.Median != tc.median || s.Q3 != tc.q3 || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", tc.xs, s, tc.q1, tc.median, tc.q3)
		}
		if s.IQR() != tc.q3-tc.q1 {
			t.Errorf("IQR(%v) = %g", tc.xs, s.IQR())
		}
	}
}

// TestPercentile checks the interpolated percentile at the ends and
// between ranks.
func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 99, 0},
		{[]float64{7}, 99, 7},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 100, 4},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 75, 4},
		{[]float64{0, 100}, 99, 99},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.xs, tc.p, got, tc.want)
		}
	}
}

// TestSelfTimes checks self time with nested, overlapping and leaf-charged
// spans.
func TestSelfTimes(t *testing.T) {
	sp := func(id, parent int, name string, start, end int64, leaf map[string]int64) *span {
		return &span{ID: id, Parent: parent, Name: name, Start: start, End: end, Leaf: leaf}
	}
	for _, tc := range []struct {
		name       string
		spans      []*span
		self       []int64
		attributed float64
	}{
		{"lone root", []*span{sp(0, -1, "bench.run", 0, 100, nil)}, []int64{100}, 0},
		{"overlapping children count once", []*span{
			sp(0, -1, "bench.run", 0, 100, nil),
			sp(1, 0, "cpu.a", 10, 40, nil),
			sp(2, 0, "cpu.b", 30, 60, nil),
		}, []int64{50, 30, 30}, 100 * 60.0 / 110},
		{"grandchild and leaf calls", []*span{
			sp(0, -1, "bench.run", 0, 100, nil),
			sp(1, 0, "parallel.run", 10, 50, map[string]int64{"cpu.warm": 15}),
			sp(2, 1, "checkpoint.restore", 20, 30, nil),
		}, []int64{60, 15, 10}, 40},
		{"child outliving its parent is clipped", []*span{
			sp(0, -1, "bench.run", 0, 50, nil),
			sp(1, 0, "bench.sample", 40, 80, nil),
		}, []int64{40, 40}, 0},
	} {
		got := selfTimes(tc.spans)
		for i := range tc.self {
			if got[i] != tc.self[i] {
				t.Errorf("%s: self times %v, want %v", tc.name, got, tc.self)
				break
			}
		}
		if a := account(tc.spans).attributedPct(); math.Abs(a-tc.attributed) > 1e-9 {
			t.Errorf("%s: attributed %g%%, want %g%%", tc.name, a, tc.attributed)
		}
	}
}

// TestDigestCoversEveryField checks that results differing in any one
// field, however slightly, digest differently.
func TestDigestCoversEveryField(t *testing.T) {
	base := sampling.Result{
		Technique: "PGSS", Config: "c", Benchmark: "181.mcf",
		EstimatedIPC: 0.5, TrueIPC: 0.6,
		Costs:   sampling.Costs{Detailed: 1, DetailedWarm: 2, FunctionalWarm: 3, PlainFF: 4},
		Samples: 5, Phases: 6,
	}
	want := digest([]sampling.Result{base}, nil)
	for _, tc := range []struct {
		name   string
		change func(*sampling.Result)
	}{
		{"Config", func(r *sampling.Result) { r.Config = "d" }},
		{"EstimatedIPC below 1e-4", func(r *sampling.Result) { r.EstimatedIPC += 1e-12 }},
		{"TrueIPC below 1e-4", func(r *sampling.Result) { r.TrueIPC += 1e-12 }},
		{"Costs.FunctionalWarm", func(r *sampling.Result) { r.Costs.FunctionalWarm++ }},
		{"Costs.PlainFF", func(r *sampling.Result) { r.Costs.PlainFF++ }},
		{"Costs.Detailed for DetailedWarm", func(r *sampling.Result) { r.Costs.Detailed++; r.Costs.DetailedWarm-- }},
		{"Samples", func(r *sampling.Result) { r.Samples++ }},
		{"Phases", func(r *sampling.Result) { r.Phases++ }},
	} {
		r := base
		tc.change(&r)
		if got := digest([]sampling.Result{r}, nil); got == want {
			t.Errorf("%s: changing it leaves the digest unchanged", tc.name)
		}
	}
	if digest([]sampling.Result{base}, nil) != want {
		t.Error("the digest of the same result differs between calls")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what the command
// prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the command prints %d", what, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]",
					what, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	sort.Strings(ws)
	if got, want := strings.Join(ws, ","), strings.Join(sortedWorkloads(defaultConfig()), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, the command has %s", got, want)
	}
}
