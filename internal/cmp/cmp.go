// Package cmp extends the simulator to chip multiprocessors — the
// configuration the paper's evaluation machine stands in for ("this is
// meant to be roughly representative of a single core on a modern chip
// multiprocessor system", §5) and the extension the paper names as ongoing
// work ("Work is ongoing to extend PGSS to multithreaded and multicore
// processors", §7).
//
// A CMP runs one independent program per core (a multiprogrammed workload,
// the standard setup of CMP sampling studies). Each core has private L1
// instruction/data caches, a private branch unit and its own in-order
// pipeline; all cores share one L2, so co-runners contend for capacity and
// their IPC degrades realistically. Simulation is cycle-interleaved: at
// every step the core with the smallest local cycle count retires its next
// instruction, keeping the cores' clocks within one instruction's latency
// of each other without any parallel-execution machinery.
//
// Record produces one interval profile per core with the interference
// baked in; PGSS (or any other technique) then runs per core on those
// profiles, which is how per-core sampled simulation of a CMP composes
// from the uniprocessor machinery.
package cmp

import (
	"fmt"

	"pgss/internal/bbv"
	"pgss/internal/cache"
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
	"pgss/internal/program"
)

// Config sizes a CMP.
type Config struct {
	// Core is the per-core configuration; its L2 section sizes the shared
	// L2.
	Core cpu.CoreConfig
	// Profile sets the per-core recording granularities.
	Profile profile.Config
}

// DefaultConfig is the paper's core replicated around a shared 1 MB L2.
func DefaultConfig() Config {
	return Config{
		Core:    cpu.DefaultCoreConfig(),
		Profile: profile.DefaultConfig(),
	}
}

// CoreState bundles one core of the CMP.
type CoreState struct {
	Core *cpu.Core

	rec  *profile.Recorder
	prof *profile.Profile // the finished profile; nil while the core runs
}

// Done reports whether the core has halted.
func (c *CoreState) Done() bool { return c.prof != nil }

// Ops returns the core's retired op count.
func (c *CoreState) Ops() uint64 { return c.Core.M.Retired() }

// CMP is a multicore simulator instance.
type CMP struct {
	l2    *cache.Cache
	cores []*CoreState
}

// New builds a CMP running one program per core.
func New(progs []*program.Program, hash *bbv.Hash, cfg Config) (*CMP, error) {
	if len(progs) == 0 {
		return nil, pgsserrors.Invalidf("cmp: no programs")
	}
	l2, err := cache.New(cfg.Core.Hierarchy.L2)
	if err != nil {
		return nil, err
	}
	c := &CMP{l2: l2}
	for i, prog := range progs {
		m, err := cpu.NewMachine(prog)
		if err != nil {
			return nil, fmt.Errorf("cmp: core %d: %w", i, err)
		}
		hier, err := cache.NewSharedHierarchy(cfg.Core.Hierarchy, l2)
		if err != nil {
			return nil, err
		}
		core, err := cpu.NewCoreWithHierarchy(m, cfg.Core, hier)
		if err != nil {
			return nil, err
		}
		rec, err := profile.NewRecorder(prog.Name, hash, cfg.Profile, core.T.Cycle())
		if err != nil {
			return nil, err
		}
		c.cores = append(c.cores, &CoreState{Core: core, rec: rec})
	}
	return c, nil
}

// SharedL2 returns the shared cache (for stats inspection).
func (c *CMP) SharedL2() *cache.Cache { return c.l2 }

// Record runs the whole CMP in detailed mode, cycle-interleaved, and
// returns one profile per core. Cores that halt drop out; the rest
// continue — contention therefore decays as co-runners finish, exactly as
// on real hardware.
func (c *CMP) Record() ([]*profile.Profile, error) {
	var r cpu.Retired
	for {
		// Pick the live core with the smallest local clock.
		var next *CoreState
		for _, cs := range c.cores {
			if cs.Done() {
				continue
			}
			if next == nil || cs.Core.T.Cycle() < next.Core.T.Cycle() {
				next = cs
			}
		}
		if next == nil {
			break
		}
		if !next.Core.StepDetailed(&r) {
			if err := next.Core.M.Err(); err != nil {
				return nil, fmt.Errorf("cmp: %s: %w", next.Core.M.Program().Name, err)
			}
			next.prof = next.rec.Finish(next.Core.T.Cycle())
			continue
		}
		next.retire(&r)
	}
	out := make([]*profile.Profile, len(c.cores))
	for i, cs := range c.cores {
		out[i] = cs.prof
	}
	return out, nil
}

// retire charges one retired op to the core's profile: its taken branch
// and memory address to the signature trackers, then its cycles.
func (cs *CoreState) retire(r *cpu.Retired) {
	cs.rec.BBV.RetireOps(1)
	if r.Taken {
		cs.rec.BBV.TakenBranch(r.Addr)
	}
	if cs.rec.MAV != nil && r.Op.IsMem() {
		cs.rec.MAV.Access(r.MemAddr)
	}
	cs.rec.Retired(1, cs.Core.T.Cycle())
}
