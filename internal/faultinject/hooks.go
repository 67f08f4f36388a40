package faultinject

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"pgss/internal/pgsserrors"
)

// Hook points the engines fire. A point names one concurrency boundary;
// the Nth crossing of it can be made to panic, stall, error or cancel.
const (
	// PointCampaignRun fires inside a campaign worker at the start of every
	// run attempt (inside panic recovery, under the per-attempt context).
	PointCampaignRun = "campaign.run"
	// PointParallelShard fires once per fast-forward shard worker of the
	// parallel engine, before its first chunk of windows, so a run crosses
	// it once per shard however many chunks each shard computes.
	PointParallelShard = "parallel.shard"
	// PointParallelSample fires before every detailed sample a parallel
	// sample worker executes.
	PointParallelSample = "parallel.sample"
)

// HookAction is what an armed hook does when it fires.
type HookAction uint8

const (
	// HookError makes the crossing fail with a retryable injected error.
	HookError HookAction = iota + 1
	// HookPanic panics at the crossing — the worker-crash fault. Campaign
	// workers and parallel shard/sample workers recover it into
	// ErrRunPanicked.
	HookPanic
	// HookStall blocks the crossing until its context is cancelled — the
	// hung-worker fault. It surfaces as a retryable ErrWorkerStalled once a
	// watchdog or deadline releases it.
	HookStall
	// HookCancel invokes the registered cancel function — the simulated
	// process crash (SIGKILL/power loss) that chaos scenarios interrupt
	// campaigns with.
	HookCancel
)

func (a HookAction) String() string {
	switch a {
	case HookError:
		return "error"
	case HookPanic:
		return "panic"
	case HookStall:
		return "stall"
	case HookCancel:
		return "cancel"
	default:
		return "action?"
	}
}

// HookRule arms one action: the Nth crossing of Point fires Action, once.
type HookRule struct {
	Point  string
	Action HookAction
	Nth    int // 1-based; 0 means 1
}

// Hooks is a deterministic registry of armed execution points. A nil
// *Hooks is the production configuration: Fire returns nil immediately.
type Hooks struct {
	mu     sync.Mutex
	rules  []*armedHook
	fired  int
	log    []string
	cancel context.CancelFunc
}

type armedHook struct {
	HookRule
	seen  int
	spent bool
}

// NewHooks arms rules.
func NewHooks(rules ...HookRule) *Hooks {
	h := &Hooks{}
	for _, r := range rules {
		if r.Nth <= 0 {
			r.Nth = 1
		}
		h.rules = append(h.rules, &armedHook{HookRule: r})
	}
	return h
}

// RandomHookSchedule derives n hook rules from seed across the named
// points. HookCancel is drawn only for the campaign point: cancelling from
// inside an engine worker models the same crash with worse attribution.
func RandomHookSchedule(seed int64, n int) []HookRule {
	rng := rand.New(rand.NewSource(seed))
	points := []string{PointCampaignRun, PointParallelShard, PointParallelSample}
	out := make([]HookRule, n)
	for i := range out {
		p := points[rng.Intn(len(points))]
		actions := []HookAction{HookError, HookPanic, HookStall}
		if p == PointCampaignRun {
			actions = append(actions, HookCancel)
		}
		out[i] = HookRule{
			Point:  p,
			Action: actions[rng.Intn(len(actions))],
			Nth:    1 + rng.Intn(12),
		}
	}
	return out
}

// SetCancel registers the campaign-level cancel function HookCancel
// invokes. Chaos harnesses point it at the context of the current
// "process lifetime".
func (h *Hooks) SetCancel(cancel context.CancelFunc) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.cancel = cancel
}

// Fired returns how many hooks have fired.
func (h *Hooks) Fired() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fired
}

// Log returns one line per fired hook, in firing order.
func (h *Hooks) Log() []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.log...)
}

// Fire crosses point. On a nil registry it is a no-op. An armed crossing
// panics, stalls until ctx is done (returning a retryable
// ErrWorkerStalled), returns a retryable injected error, or cancels the
// registered campaign context.
func (h *Hooks) Fire(ctx context.Context, point string) error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	var fire *armedHook
	for _, r := range h.rules {
		if r.Point != point {
			continue
		}
		r.seen++
		if !r.spent && r.seen == r.Nth && fire == nil {
			fire = r
		}
	}
	if fire == nil {
		h.mu.Unlock()
		return nil
	}
	fire.spent = true
	h.fired++
	h.log = append(h.log, fire.Action.String()+" at "+point)
	cancel := h.cancel
	h.mu.Unlock()

	switch fire.Action {
	case HookPanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", point))
	case HookStall:
		<-ctx.Done()
		return pgsserrors.Stalledf("injected stall at %s released by %v", point, context.Cause(ctx))
	case HookCancel:
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		return pgsserrors.Transient(pgsserrors.IOf("injected failure at %s", point))
	}
}
