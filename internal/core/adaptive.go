package core

import (
	"context"
	"fmt"
	"math"

	"pgss/internal/pgsserrors"
	"pgss/internal/phase"
	"pgss/internal/sampling"
)

// AdaptiveConfig parameterises the runtime-adaptive PGSS variant the paper
// proposes as future work (§7): "the optimal parameters for PGSS-Sim vary
// between benchmarks, these parameters must be automatically adjusted to
// each benchmark ... ideally, the algorithm would adapt at runtime to
// program characteristics."
//
// The controller starts from the paper's overall configuration and
// periodically re-evaluates two signals over an adaptation epoch:
//
//   - phase churn: the fraction of windows that changed phase. High churn
//     means the threshold is splitting noise (or the FF period is shorter
//     than the program's micro-phase mixing scale), so the threshold is
//     raised and, if churn persists, the BBV period is doubled — the same
//     remedy the paper applies manually to 179.art/181.mcf (§5).
//   - false-phase rate: the fraction of phase *changes* whose sampled CPI
//     ended up within Eps of an existing phase's mean. A high rate means
//     the threshold detects code changes that do not change performance
//     (Fig 6's Region 4), so the threshold is raised; a very low rate with
//     few phases allows lowering it again.
type AdaptiveConfig struct {
	Base Config
	// EpochWindows is the adaptation period in FF windows (default 64).
	EpochWindows int
	// ChurnHigh is the phase-transition fraction above which the
	// controller coarsens (default 0.4).
	ChurnHigh float64
	// ThresholdStep multiplies the threshold on each adjustment
	// (default 1.5); ThresholdMax/Min bound it (defaults .25π and .025π).
	ThresholdStep float64
	ThresholdMax  float64
	ThresholdMin  float64
	// MaxFFOps bounds BBV-period doubling (default 16× the base period).
	MaxFFOps uint64
}

// DefaultAdaptiveConfig returns the adaptive controller over the paper's
// overall configuration at the given scale.
func DefaultAdaptiveConfig(scale uint64) AdaptiveConfig {
	base := DefaultConfig(scale)
	base.FFOps = 100_000 / scale * 10 // start from the Fig 11 mid period
	if base.FFOps < base.WarmOps+base.SampleOps {
		base.FFOps = 10_000
	}
	return AdaptiveConfig{
		Base:          base,
		EpochWindows:  64,
		ChurnHigh:     0.4,
		ThresholdStep: 1.5,
		ThresholdMax:  0.25,
		ThresholdMin:  0.025,
		MaxFFOps:      base.FFOps * 16,
	}
}

// Validate checks the configuration.
func (c AdaptiveConfig) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return err
	}
	if c.EpochWindows <= 0 {
		return pgsserrors.Invalidf("pgss: adaptive epoch %d", c.EpochWindows)
	}
	if c.ThresholdStep <= 1 {
		return pgsserrors.Invalidf("pgss: adaptive threshold step %g must exceed 1", c.ThresholdStep)
	}
	if c.ThresholdMin <= 0 || c.ThresholdMax > 0.5 || c.ThresholdMin > c.ThresholdMax {
		return pgsserrors.Invalidf("pgss: adaptive threshold bounds [%g, %g]", c.ThresholdMin, c.ThresholdMax)
	}
	return nil
}

// AdaptiveStats extends Stats with the controller's adjustment history.
type AdaptiveStats struct {
	Stats
	// Adjustments records every parameter change as a human-readable
	// entry.
	Adjustments []string
	// FinalThresholdPi and FinalFFOps are the parameters in force at the
	// end of the run.
	FinalThresholdPi float64
	FinalFFOps       uint64
	// Restarts counts phase-table rebuilds (each FF-period change).
	Restarts int
}

// RunAdaptive executes the adaptive PGSS variant over the target. The
// context is polled once per window; a cancelled or expired context aborts
// the run with an ErrBudgetExceeded-classed error and the partial result,
// as RunContext does.
//
// The per-window decisions, the sample ledger and the estimate are the
// shared Controller's; this driver settles every sample right after each
// Advance so its epoch signals read up-to-date phase statistics. When the
// FF period changes, the controller restarts its phase table: BBVs at the
// old granularity are not comparable to those at the new one. The retired
// tables keep their phase weights and samples, so the final estimate still
// covers the whole run.
//
// The variant stays on the serial driver: it changes the FF period
// mid-run, and the sharded engine computes a fixed window grid up front.
func RunAdaptive(ctx context.Context, t sampling.Target, cfg AdaptiveConfig) (sampling.Result, AdaptiveStats, error) {
	if err := cfg.Validate(); err != nil {
		return sampling.Result{}, AdaptiveStats{}, err
	}
	cur := cfg.Base
	ctl, err := NewController(cur, t.Benchmark(), t.TrueIPC())
	if err != nil {
		return sampling.Result{}, AdaptiveStats{}, err
	}
	var ast AdaptiveStats
	finish := func(res sampling.Result, st Stats, err error) (sampling.Result, AdaptiveStats, error) {
		res.Technique = "PGSS-Adaptive"
		res.Config = fmt.Sprintf("adaptive→%s", cur.String())
		ast.Stats = st
		ast.FinalThresholdPi = cur.ThresholdPi
		ast.FinalFFOps = cur.FFOps
		return res, ast, err
	}
	fail := func(err error) (sampling.Result, AdaptiveStats, error) {
		res, st := ctl.Partial()
		return finish(res, st, err)
	}

	// Epoch signals.
	epochWindows, epochTransitions, epochFalse, epochChanges := 0, 0, 0, 0

	// stubborn reports whether some phase has taken many samples and still
	// fails its confidence bound — the signature of sub-window phase
	// mixing (179.art/181.mcf, §5): every sample lands in a different
	// blend of micro-behaviours, so the variance never closes and only a
	// coarser BBV period helps.
	stubbornN := 4 * cur.MinSamples
	stubborn := func() bool {
		for _, p := range ctl.table.Phases() {
			if p.CPI.N() >= stubbornN && ctl.needsSample(p) {
				return true
			}
		}
		return false
	}

	// req is the sample the previous window scheduled; it executes at the
	// start of the next window.
	var req *SampleRequest
	adjust := func() error {
		churn := float64(epochTransitions) / float64(epochWindows)
		falseRate := 0.0
		if epochChanges > 0 {
			falseRate = float64(epochFalse) / float64(epochChanges)
		}
		epochWindows, epochTransitions, epochFalse, epochChanges = 0, 0, 0, 0
		switch {
		case (churn > cfg.ChurnHigh || stubborn()) && cur.FFOps*2 <= cfg.MaxFFOps:
			// Micro-phase mixing: coarsen the BBV period (restart table).
			cur.FFOps *= 2
			if cur.SpreadOps < cur.FFOps {
				cur.SpreadOps = cur.FFOps
			}
			ast.Adjustments = append(ast.Adjustments,
				fmt.Sprintf("window %d: churn %.2f → FF period ×2 = %d", ctl.Windows(), churn, cur.FFOps))
			ast.Restarts++
			req = nil
			return ctl.Restart(cur)
		case falseRate > 0.5 && cur.ThresholdPi*cfg.ThresholdStep <= cfg.ThresholdMax:
			// Too many performance-neutral phase changes: raise the
			// threshold. The existing table remains valid — a looser
			// threshold only merges future windows.
			cur.ThresholdPi *= cfg.ThresholdStep
			ctl.table.SetThreshold(cur.ThresholdPi * math.Pi)
			ast.Adjustments = append(ast.Adjustments,
				fmt.Sprintf("window %d: false-phase rate %.2f → threshold %.3fπ", ctl.Windows(), falseRate, cur.ThresholdPi))
		}
		return nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return fail(fmt.Errorf("pgss: %s cancelled after %d windows: %w (%w)",
				t.Benchmark(), ctl.Windows(), pgsserrors.ErrBudgetExceeded, err))
		}
		var warm, sample uint64
		var sampled *phase.Phase // phase the executing sample is attributed to
		if req != nil {
			warm, sample, sampled = req.Warm, req.Sample, req.ps.phase
		}
		w, ok := t.NextWindow(cur.FFOps, warm, sample)
		if !ok {
			break
		}
		if req != nil {
			req.Resolve(w.SampleIPC, w.WarmOps, w.SampleOps)
		}
		firstSample := sampled != nil && sampled.CPI.N() == 0
		prev, known := ctl.table.Current(), ctl.table.NumPhases()
		if req, err = ctl.Advance(w.BBV, w.MAV, w.Ops, t.Pos()); err == nil {
			err = ctl.SettleAll()
		}
		if err != nil {
			return fail(err)
		}

		// False-phase signal: a *new* phase whose first sample sits within
		// Eps of another phase's converged mean.
		if firstSample && sampled.CPI.N() == 1 {
			cpi := 1 / w.SampleIPC
			for _, p := range ctl.table.Phases() {
				if p != sampled && p.CPI.N() >= cur.MinSamples &&
					math.Abs(p.CPI.Mean()-cpi) <= cur.Eps*p.CPI.Mean() {
					epochFalse++
					break
				}
			}
		}
		epochWindows++
		if ctl.table.Current() != prev {
			epochTransitions++
			if ctl.table.NumPhases() > known {
				epochChanges++
			}
		}
		if epochWindows >= cfg.EpochWindows {
			if err := adjust(); err != nil {
				return fail(err)
			}
		}
	}
	if err := t.Err(); err != nil {
		return fail(err)
	}
	return finish(ctl.Finish())
}
