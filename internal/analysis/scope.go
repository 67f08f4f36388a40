package analysis

import (
	"sort"
	"strings"
)

// enginePaths is the deterministic core of the system: the packages whose
// behaviour must be a pure function of (workload, config, seed). Serial,
// parallel and live runs are bit-identical only while nothing in this set
// consults a wall clock, an environment variable, process-global
// randomness, or Go's randomized map iteration order on an output path.
// The set holds the engines and every simulator package under them (the
// ISA, programs, caches, branch unit, CMP, clustering, statistics, the time
// model, traces and the binary codec), so every error they return is
// classified.
//
// Deliberately absent: campaign and experiments (wall-clock timing,
// jittered retry backoff and progress logging are their job), validate
// (drives wall-clock campaign machinery), artifact (the cross-process
// store paces lock-file waits with a wall clock by default; its contents
// are produced by engine packages and stay deterministic — tests that
// need determinism inject a ManualClock), the cmd/ mains and examples.
// faultinject is IN the set: fault schedules must replay from a seed, so
// the package is deterministic by construction (its Clock interface is
// implemented with a wall clock only outside the engine, in campaign).
var enginePaths = map[string]bool{
	"pgss/internal/core":        true,
	"pgss/internal/parallel":    true,
	"pgss/internal/sampling":    true,
	"pgss/internal/phase":       true,
	"pgss/internal/bbv":         true,
	"pgss/internal/checkpoint":  true,
	"pgss/internal/profile":     true,
	"pgss/internal/cpu":         true,
	"pgss/internal/faultinject": true,
	"pgss/internal/workload":    true,
	"pgss/internal/cache":       true,
	"pgss/internal/branch":      true,
	"pgss/internal/cluster":     true,
	"pgss/internal/cmp":         true,
	"pgss/internal/trace":       true,
	"pgss/internal/isa":         true,
	"pgss/internal/program":     true,
	"pgss/internal/stats":       true,
	"pgss/internal/timemodel":   true,
	"pgss/internal/binenc":      true,
}

// IsEngine reports whether path is one of the deterministic engine
// packages bound by the nodeterminism, errwrap and ctxflow invariants.
func IsEngine(path string) bool { return enginePaths[path] }

// EnginePaths returns the deterministic package set, sorted, for docs and
// driver output.
func EnginePaths() []string {
	out := make([]string, 0, len(enginePaths))
	for p := range enginePaths {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// flowExtraPaths widens the flow-sensitive tier (lockorder, leaktrack)
// beyond the deterministic engine set: the artifact store's two-level
// singleflight (in-process flight map + on-disk lock files) and the chaos
// harness's goroutine orchestration are exactly the concurrency surfaces
// those analyzers exist to guard, even though wall clocks are legitimate
// there.
var flowExtraPaths = map[string]bool{
	"pgss/internal/artifact": true,
	"pgss/internal/chaos":    true,
}

// IsFlowScope reports whether path is bound by the flow-sensitive
// invariants (lock ordering, resource release on error paths): every
// engine package, the artifact store, the chaos harness, and all cmd/
// mains.
func IsFlowScope(path string) bool {
	return IsEngine(path) || flowExtraPaths[path] || strings.HasPrefix(path, "pgss/cmd/")
}

// FlowPaths returns the flow-scope package set (excluding the open-ended
// cmd/ prefix), sorted, for docs and driver output.
func FlowPaths() []string {
	out := make([]string, 0, len(enginePaths)+len(flowExtraPaths))
	for p := range enginePaths {
		out = append(out, p)
	}
	for p := range flowExtraPaths {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
