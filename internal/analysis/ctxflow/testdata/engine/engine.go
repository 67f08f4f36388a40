// Package engine is ctxflow testdata type-checked under an engine import
// path.
package engine

import "context"

// Run is a context-free twin of RunContext: engine packages have none, so
// its Background is a finding like any other.
func Run() error {
	return RunContext(context.Background()) // want "context.Background below the facade"
}

func RunContext(ctx context.Context) error {
	return ctx.Err()
}

// helper has no Context sibling: a fresh Background detaches it.
func helper() error {
	ctx := context.Background() // want "context.Background below the facade"
	return RunContext(ctx)
}

// drop holds a ctx but calls the context-free variant of seek.
func drop(ctx context.Context) (uint64, error) {
	return seek(40) // want "call to seek drops the caller's ctx"
}

// thread passes the ctx on: allowed.
func thread(ctx context.Context) (uint64, error) {
	return seekContext(ctx, 40)
}

func seek(pos uint64) (uint64, error) {
	return pos, nil
}

func seekContext(ctx context.Context, pos uint64) (uint64, error) {
	return pos, ctx.Err()
}

// Engine exercises the method-sibling lookup.
type Engine struct{ steps int }

func (e *Engine) Step() { e.steps++ }

func (e *Engine) StepContext(ctx context.Context) { e.steps++ }

func methodDrop(ctx context.Context, e *Engine) {
	e.Step() // want "call to Step drops the caller's ctx"
	e.StepContext(ctx)
}

func suppressed(ctx context.Context) (uint64, error) {
	return seek(8) //pgss:allow ctxflow deterministic micro-walk, never cancelled
}
