// Package engine is errwrap testdata type-checked under an engine import
// path.
package engine

import (
	"errors"
	"fmt"

	"pgss/internal/pgsserrors"
)

// ErrSentinel is a bare package-level sentinel: its errors stay
// unclassified however they are wrapped.
var ErrSentinel = errors.New("engine sentinel") // want "bare errors.New in engine package"

// ErrFormatted is a package-level fmt.Errorf without %w.
var ErrFormatted = fmt.Errorf("engine sentinel %d", 2) // want "fmt.Errorf without %w in engine package"

// ErrClassified is a sentinel built with a taxonomy helper: allowed.
var ErrClassified = pgsserrors.Invalidf("jump target outside code image")

// ErrBlessed hands the bare sentinel straight to the taxonomy: allowed.
var ErrBlessed = pgsserrors.Transient(errors.New("injected fault"))

func bareNew() error {
	return errors.New("boom") // want "bare errors.New in engine package"
}

func bareErrorf(n int) error {
	return fmt.Errorf("bad window count %d", n) // want "fmt.Errorf without %w in engine package"
}

// wrapped propagates a classified cause: allowed.
func wrapped(err error) error {
	return fmt.Errorf("while seeking: %w", err)
}

// wrappedSentinel attaches a taxonomy class: allowed.
func wrappedSentinel(n int) error {
	return fmt.Errorf("%w: window count %d", pgsserrors.ErrInvalidConfig, n)
}

// helper uses a taxonomy constructor: allowed.
func helper(n int) error {
	return pgsserrors.Invalidf("window count %d", n)
}

// blessedArg hands the bare error straight to the taxonomy: allowed.
func blessedArg() error {
	return pgsserrors.Transient(errors.New("injected fault"))
}

// concatWrap builds the format by concatenation, %w still present: allowed.
func concatWrap(err error, detail string) error {
	return fmt.Errorf("%w: "+detail, err)
}

func suppressed() error {
	return errors.New("prototype-only path") //pgss:allow errwrap exercised by the suite
}
