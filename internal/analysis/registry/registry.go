// Package registry enumerates the pgss-lint analyzer suite. It lives
// outside package analysis so the framework does not import its own
// clients.
package registry

import (
	"pgss/internal/analysis"
	"pgss/internal/analysis/ctxflow"
	"pgss/internal/analysis/errwrap"
	"pgss/internal/analysis/exhaustive"
	"pgss/internal/analysis/fpdeterminism"
	"pgss/internal/analysis/goroutines"
	"pgss/internal/analysis/ioatomic"
	"pgss/internal/analysis/leaktrack"
	"pgss/internal/analysis/lockorder"
	"pgss/internal/analysis/maporder"
	"pgss/internal/analysis/nodeterminism"
)

// All returns every analyzer in the suite, in the order pgss-lint runs
// them: the six syntax-level analyzers, then the four CFG-based dataflow
// analyzers. By-value lock copies are left to go vet's copylocks check.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		nodeterminism.Analyzer,
		maporder.Analyzer,
		errwrap.Analyzer,
		ctxflow.Analyzer,
		goroutines.Analyzer,
		ioatomic.Analyzer,
		lockorder.Analyzer,
		leaktrack.Analyzer,
		fpdeterminism.Analyzer,
		exhaustive.Analyzer,
	}
}

// ByName returns the named analyzer, nil when unknown.
func ByName(name string) *analysis.Analyzer {
	for _, an := range All() {
		if an.Name == name {
			return an
		}
	}
	return nil
}
