// Testdata for the exhaustive analyzer. Coverage is opt-in, so scope
// does not matter; what matters is the directives.
package src

// A registered local enum: every switch over it must name all three
// members.
//
//pgss:enum
type mode uint8

const (
	modeA mode = iota
	modeB
	modeC
)

// Full coverage: clean.
func full(m mode) int {
	switch m {
	case modeA:
		return 1
	case modeB:
		return 2
	case modeC:
		return 3
	}
	return 0
}

// Grouped cases cover too.
func grouped(m mode) bool {
	switch m {
	case modeA, modeB:
		return true
	case modeC:
		return false
	}
	return false
}

// Missing members are reported even with a default clause.
func missingTyped(m mode) int {
	switch m { // want "switch over mode does not cover modeB, modeC"
	case modeA:
		return 1
	default:
		return 0
	}
}

// An unregistered type is never checked.
type loose uint8

const (
	looseA loose = iota
	looseB
)

func unregistered(l loose) int {
	switch l {
	case looseA:
		return 1
	}
	return 0
}

// A directive ties a string switch to the error-kind registry.
func missingKind(kind string) bool {
	//pgss:enum errorkind
	switch kind { // want "switch over errorkind registry does not cover \"worker-stalled\""
	case "invalid-config", "misaligned-window", "budget-exceeded", "cache-corrupt",
		"run-panicked", "interrupted", "infeasible", "io", "other":
		return true
	default:
		return false
	}
}

// Covering every kind is clean.
func fullKind(kind string) bool {
	//pgss:enum errorkind
	switch kind {
	case "invalid-config", "misaligned-window", "budget-exceeded", "cache-corrupt",
		"run-panicked", "interrupted", "infeasible", "io", "worker-stalled", "other":
		return true
	default:
		return false
	}
}

// Grouped clauses cover together, and missing members are listed in
// registry order.
func kindClass(kind string) int {
	//pgss:enum errorkind
	switch kind { // want "switch over errorkind registry does not cover \"interrupted\", \"infeasible\", \"io\", \"worker-stalled\", \"other\""
	case "invalid-config", "misaligned-window", "budget-exceeded":
		return 1
	case "cache-corrupt", "run-panicked":
		return 2
	}
	return 0
}

// A typo in the registry name is itself a finding.
func typoRegistry(name string) bool {
	//pgss:enum errrorkind
	switch name { // want "unknown enum registry \"errrorkind\""
	case "io":
		return true
	}
	return false
}

// Undirected string switches are never checked.
func undirected(name string) bool {
	switch name {
	case "io":
		return true
	}
	return false
}

// Suppression: the escape hatch still works for reviewed cases.
func suppressed(m mode) int {
	switch m { //pgss:allow exhaustive legacy shim, reviewed
	case modeA:
		return 1
	}
	return 0
}
