// Package profile records and replays interval profiles of detailed
// simulation runs.
//
// A Profile is produced by one full detailed pass over a benchmark and
// holds, at fine granularity, the cycle cost of every interval and, at a
// coarser granularity, the raw basic-block vector of every interval. All
// sampled-simulation techniques in this repository can then be *replayed*
// against the profile: a replayed detailed sample reads the recorded cycles
// of its window, which is equivalent to simulating the sample from a
// perfectly warmed checkpoint (the live-points of TurboSMARTS). The paper
// itself evaluates SimPoint "by performing an off-line clustering of the
// reduced BBV data from PGSS simulation" — the same mechanism.
package profile

import (
	"context"
	"fmt"
	"io"
	"math"
	"sync"

	"pgss/internal/bbv"
	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
)

// Config fixes the recording granularities.
type Config struct {
	// FineOps is the cycle-recording interval in ops (sample IPCs are read
	// at this resolution). Must divide BBVOps.
	FineOps uint64
	// BBVOps is the BBV-recording interval in ops.
	BBVOps uint64
	// MaxOps optionally truncates recording (0 = run to completion).
	MaxOps uint64
	// MAVBits enables the memory-access-vector channel: when > 0, a MAV of
	// width 1<<MAVBits is recorded per BBV interval from the data addresses
	// of retired loads and stores (0 = channel off).
	MAVBits int
	// MAVSeed fixes the MAV hash bit selection.
	MAVSeed int64
}

// DefaultConfig matches the scaled evaluation setup: 1k-op cycle
// resolution (the SMARTS sample unit), 10k-op BBV resolution (the finest
// PGSS fast-forward period), and the MAV channel on at the default width.
func DefaultConfig() Config {
	return Config{FineOps: 1000, BBVOps: 10000, MAVBits: bbv.DefaultMAVBits, MAVSeed: DefaultMAVSeed}
}

// DefaultMAVSeed is the suite-wide MAV hash seed, fixed like the BBV hash
// seed so every recorded profile and live tracker agree on bucket indices.
const DefaultMAVSeed = 42

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.FineOps == 0 || c.BBVOps == 0 {
		return pgsserrors.Invalidf("profile: zero granularity %+v", c)
	}
	if c.BBVOps%c.FineOps != 0 {
		return pgsserrors.Invalidf("profile: BBVOps %d not a multiple of FineOps %d", c.BBVOps, c.FineOps)
	}
	if c.MAVBits < 0 {
		return pgsserrors.Invalidf("profile: negative MAVBits %d", c.MAVBits)
	}
	return nil
}

// Profile is a recorded run. Treat loaded profiles as immutable.
type Profile struct {
	Benchmark string
	HashBits  int
	FineOps   uint64
	BBVOps    uint64

	TotalOps    uint64
	TotalCycles uint64

	// Cycles[i] is the cycle count of fine interval i. The last interval
	// may cover fewer than FineOps ops (TailOps).
	Cycles  []uint32
	TailOps uint64

	// RawBBVs[j] is the unnormalised BBV of BBV interval j.
	RawBBVs []bbv.Vector

	// MAVBits and RawMAVs carry the optional memory-access-vector channel:
	// RawMAVs[j] counts the memory accesses of BBV interval j per hashed
	// line group (empty when the profile was recorded without the channel).
	MAVBits int
	RawMAVs []bbv.Vector

	// prefix[i] = sum of Cycles[0:i]; built lazily, at most once
	// (prefixOnce makes concurrent window reads safe — the parallel
	// engine's sample workers share one profile).
	prefix     []uint64
	prefixOnce sync.Once
}

// ctxCheckOps is how often RecordContext polls the context, in retired
// ops. Coarse enough to stay off the hot path, fine enough that a
// cancelled recording stops within a fraction of a second.
const ctxCheckOps = 1 << 16

// RecordContext runs core in detailed mode to completion (or cfg.MaxOps)
// and returns the profile. The BBV hash must be the one all consumers use.
// The context is polled every ~ctxCheckOps retired ops; a cancelled or
// expired context aborts the recording with an ErrBudgetExceeded-classed
// error.
//
// The core's stepping kernel runs one fine interval at a time (BBVOps is a
// multiple of FineOps, so every recording boundary lands exactly on its
// op position). Raw BBVs are laid out in one flat arena and sliced into
// RawBBVs at the end.
func RecordContext(ctx context.Context, core *cpu.Core, hash *bbv.Hash, cfg Config) (*Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Profile{
		Benchmark: core.M.Program().Name,
		HashBits:  hash.Width(),
		FineOps:   cfg.FineOps,
		BBVOps:    cfg.BBVOps,
		MAVBits:   cfg.MAVBits,
	}
	width := hash.Buckets()
	var arena []float64
	if cfg.MaxOps > 0 {
		p.Cycles = make([]uint32, 0, cfg.MaxOps/cfg.FineOps+1)
		arena = make([]float64, 0, (cfg.MaxOps/cfg.BBVOps+1)*uint64(width))
	}
	tracker := bbv.NewTracker(hash)
	var (
		mavt     *bbv.MAVTracker
		mavArena []float64
	)
	if cfg.MAVBits > 0 {
		mavHash, err := bbv.NewMAVHash(cfg.MAVBits, cfg.MAVSeed)
		if err != nil {
			return nil, err
		}
		mavt = bbv.NewMAVTracker(mavHash)
		if cfg.MaxOps > 0 {
			mavArena = make([]float64, 0, (cfg.MaxOps/cfg.BBVOps+1)*uint64(mavHash.Buckets()))
		}
	}
	var ops uint64
	nextCtx := uint64(ctxCheckOps)
	lastCycles := core.T.Cycle()
	for !core.M.Halted() {
		chunk := cfg.FineOps - ops%cfg.FineOps
		if cfg.MaxOps > 0 {
			chunk = min(chunk, cfg.MaxOps-ops)
		}
		n := core.Run(chunk, cpu.Detailed, tracker, mavt)
		ops += n
		if ops%cfg.FineOps == 0 && n > 0 {
			now := core.T.Cycle()
			p.Cycles = append(p.Cycles, uint32(now-lastCycles))
			lastCycles = now
			if ops%cfg.BBVOps == 0 {
				arena = tracker.AppendRaw(arena)
				if mavt != nil {
					mavArena = mavt.AppendRaw(mavArena)
				}
			}
		}
		if cfg.MaxOps > 0 && ops >= cfg.MaxOps {
			break
		}
		if ops >= nextCtx {
			nextCtx += ctxCheckOps
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("profile: %s: recording cancelled after %d ops: %w (%w)",
					p.Benchmark, ops, pgsserrors.ErrBudgetExceeded, err)
			}
		}
	}
	if err := core.M.Err(); err != nil {
		return nil, fmt.Errorf("profile: %s halted abnormally after %d ops: %w", p.Benchmark, ops, err)
	}
	// Tail intervals.
	if tail := ops % cfg.FineOps; tail != 0 {
		now := core.T.Cycle()
		p.Cycles = append(p.Cycles, uint32(now-lastCycles))
		p.TailOps = tail
	}
	if ops%cfg.BBVOps != 0 {
		arena = tracker.AppendRaw(arena)
		if mavt != nil {
			mavArena = mavt.AppendRaw(mavArena)
		}
	}
	p.RawBBVs = make([]bbv.Vector, 0, len(arena)/width)
	for off := 0; off < len(arena); off += width {
		p.RawBBVs = append(p.RawBBVs, bbv.Vector(arena[off:off+width:off+width]))
	}
	if mavt != nil {
		mwidth := mavt.Hash().Buckets()
		p.RawMAVs = make([]bbv.Vector, 0, len(mavArena)/mwidth)
		for off := 0; off < len(mavArena); off += mwidth {
			p.RawMAVs = append(p.RawMAVs, bbv.Vector(mavArena[off:off+mwidth:off+mwidth]))
		}
	}
	p.TotalOps = ops
	p.TotalCycles = core.T.Cycle()
	return p, nil
}

// TrueIPC returns the whole-program IPC: the quantity every technique
// estimates.
func (p *Profile) TrueIPC() float64 {
	if p.TotalCycles == 0 {
		return 0
	}
	return float64(p.TotalOps) / float64(p.TotalCycles)
}

// fineOpsAt returns the op count of fine interval i.
func (p *Profile) fineOpsAt(i int) uint64 {
	if i == len(p.Cycles)-1 && p.TailOps != 0 {
		return p.TailOps
	}
	return p.FineOps
}

func (p *Profile) buildPrefix() {
	p.prefixOnce.Do(func() {
		p.prefix = make([]uint64, len(p.Cycles)+1)
		for i, c := range p.Cycles {
			p.prefix[i+1] = p.prefix[i] + uint64(c)
		}
	})
}

// CyclesWindow returns the cycle cost and op count of the window starting
// at op position start (a multiple of FineOps) spanning ops (a multiple of
// FineOps), clipped to the end of the program. Misaligned windows return
// an ErrMisalignedWindow-classed error.
func (p *Profile) CyclesWindow(start, ops uint64) (cycles, actualOps uint64, err error) {
	if start%p.FineOps != 0 || ops%p.FineOps != 0 {
		return 0, 0, pgsserrors.Misalignedf(
			"profile: window start=%d ops=%d not multiples of fine granularity %d", start, ops, p.FineOps)
	}
	p.buildPrefix()
	i0 := int(start / p.FineOps)
	n := int(ops / p.FineOps)
	if i0 >= len(p.Cycles) {
		return 0, 0, nil
	}
	i1 := i0 + n
	if i1 > len(p.Cycles) {
		i1 = len(p.Cycles)
	}
	cycles = p.prefix[i1] - p.prefix[i0]
	for i := i0; i < i1; i++ {
		actualOps += p.fineOpsAt(i)
	}
	return cycles, actualOps, nil
}

// IPCWindow returns the IPC of the given window (see CyclesWindow).
func (p *Profile) IPCWindow(start, ops uint64) (float64, error) {
	cycles, actual, err := p.CyclesWindow(start, ops)
	if err != nil {
		return 0, err
	}
	if cycles == 0 {
		return 0, nil
	}
	return float64(actual) / float64(cycles), nil
}

// IPCSeries returns the IPC of consecutive windows of the given op
// granularity (a multiple of FineOps) across the whole run. The final
// partial window is included when it covers at least one fine interval.
func (p *Profile) IPCSeries(gran uint64) ([]float64, error) {
	if gran == 0 || gran%p.FineOps != 0 {
		return nil, pgsserrors.Misalignedf(
			"profile: granularity %d not a multiple of fine granularity %d", gran, p.FineOps)
	}
	var out []float64
	for start := uint64(0); start < p.TotalOps; start += gran {
		ipc, err := p.IPCWindow(start, gran)
		if err != nil {
			return nil, err
		}
		out = append(out, ipc)
	}
	return out, nil
}

// BBVWindow returns the raw (unnormalised) BBV of the window starting at op
// position start (a multiple of BBVOps) spanning ops (a multiple of
// BBVOps), clipped at the end of the program. A window past the end of the
// program returns (nil, nil).
func (p *Profile) BBVWindow(start, ops uint64) (bbv.Vector, error) {
	return p.window(p.RawBBVs, "BBV", start, ops)
}

// BBVWindowInto is BBVWindow into a caller-owned buffer of length
// 1<<HashBits, avoiding the per-window allocation on hot replay loops. It
// reports ok=false for a window past the end of the program (dst is then
// unchanged). Safe for concurrent use with distinct buffers.
func (p *Profile) BBVWindowInto(dst bbv.Vector, start, ops uint64) (bool, error) {
	return p.windowInto(p.RawBBVs, "BBV", dst, start, ops)
}

// window is windowInto into a fresh vector; a window past the end of the
// program returns (nil, nil).
func (p *Profile) window(raw []bbv.Vector, channel string, start, ops uint64) (bbv.Vector, error) {
	var dst bbv.Vector
	if len(raw) > 0 {
		dst = make(bbv.Vector, len(raw[0]))
	}
	if ok, err := p.windowInto(raw, channel, dst, start, ops); !ok {
		return nil, err
	}
	return dst, nil
}

// windowInto sums one channel's raw per-BBVOps vectors over a window into
// dst (see BBVWindowInto).
func (p *Profile) windowInto(raw []bbv.Vector, channel string, dst bbv.Vector, start, ops uint64) (bool, error) {
	if start%p.BBVOps != 0 || ops%p.BBVOps != 0 {
		return false, pgsserrors.Misalignedf(
			"profile: %s window start=%d ops=%d not multiples of BBV granularity %d", channel, start, ops, p.BBVOps)
	}
	j0 := int(start / p.BBVOps)
	if j0 >= len(raw) {
		return false, nil
	}
	j1 := min(j0+int(ops/p.BBVOps), len(raw))
	copy(dst, raw[j0])
	for j := j0 + 1; j < j1; j++ {
		dst.Add(raw[j])
	}
	return true, nil
}

// BBVSeries returns normalised BBVs of consecutive windows at the given op
// granularity (a multiple of BBVOps).
func (p *Profile) BBVSeries(gran uint64) ([]bbv.Vector, error) {
	if gran == 0 || gran%p.BBVOps != 0 {
		return nil, pgsserrors.Misalignedf(
			"profile: granularity %d not a multiple of BBV granularity %d", gran, p.BBVOps)
	}
	var out []bbv.Vector
	for start := uint64(0); start < p.TotalOps; start += gran {
		v, err := p.BBVWindow(start, gran)
		if err != nil {
			return nil, err
		}
		if v == nil {
			break
		}
		out = append(out, v.Normalize())
	}
	return out, nil
}

// HasMAV reports whether the profile carries the memory-access-vector
// channel.
func (p *Profile) HasMAV() bool { return len(p.RawMAVs) > 0 }

// MAVWindowInto is BBVWindowInto for the memory-access-vector channel: the
// raw MAV of the window starting at op position start (a multiple of
// BBVOps) spanning ops (a multiple of BBVOps) is summed into dst, a buffer
// of length 1<<MAVBits. It reports ok=false past the end of the program.
// Profiles recorded without the channel return an ErrInvalidConfig-classed
// error.
func (p *Profile) MAVWindowInto(dst bbv.Vector, start, ops uint64) (bool, error) {
	if !p.HasMAV() {
		return false, p.errNoMAV()
	}
	return p.windowInto(p.RawMAVs, "MAV", dst, start, ops)
}

// MAVWindow is MAVWindowInto into a fresh vector; a window past the end of
// the program returns (nil, nil).
func (p *Profile) MAVWindow(start, ops uint64) (bbv.Vector, error) {
	if !p.HasMAV() {
		return nil, p.errNoMAV()
	}
	return p.window(p.RawMAVs, "MAV", start, ops)
}

// errNoMAV is the error of a MAV read on a profile recorded without the
// channel.
func (p *Profile) errNoMAV() error {
	return pgsserrors.Invalidf("profile %q: recorded without the MAV channel", p.Benchmark)
}

// SignatureWindow returns the normalised phase signature of the given
// window on the requested channel (freshly allocated; see bbv.Signature
// for the concatenation semantics). A window past the end of the program
// returns (nil, nil).
func (p *Profile) SignatureWindow(ch bbv.Channel, start, ops uint64) (bbv.Vector, error) {
	var bvec, mvec bbv.Vector
	if ch.NeedsBBV() {
		raw, err := p.BBVWindow(start, ops)
		if err != nil {
			return nil, err
		}
		if raw == nil {
			return nil, nil
		}
		bvec = raw.Normalize()
	}
	if ch.NeedsMAV() {
		raw, err := p.MAVWindow(start, ops)
		if err != nil {
			return nil, err
		}
		if raw == nil {
			return nil, nil
		}
		mvec = raw.Normalize()
	}
	sig, _, err := bbv.Signature(ch, bvec, mvec, nil)
	if err != nil {
		return nil, err
	}
	return sig, nil
}

// SignatureSeries returns normalised channel signatures of consecutive
// windows at the given op granularity (a multiple of BBVOps).
func (p *Profile) SignatureSeries(ch bbv.Channel, gran uint64) ([]bbv.Vector, error) {
	if gran == 0 || gran%p.BBVOps != 0 {
		return nil, pgsserrors.Misalignedf(
			"profile: granularity %d not a multiple of BBV granularity %d", gran, p.BBVOps)
	}
	var out []bbv.Vector
	for start := uint64(0); start < p.TotalOps; start += gran {
		v, err := p.SignatureWindow(ch, start, gran)
		if err != nil {
			return nil, err
		}
		if v == nil {
			break
		}
		out = append(out, v)
	}
	return out, nil
}

// NumFullWindows returns how many complete windows of the given
// granularity the run contains; the trailing partial window (if any) is
// excluded. Statistical analyses over equal-size intervals use this to
// avoid a tiny tail window skewing their moments.
func (p *Profile) NumFullWindows(gran uint64) int {
	return int(p.TotalOps / gran)
}

// FullWindowSeries returns the IPC and normalised BBV series at the given
// granularity (a multiple of BBVOps), cut to the run's full windows: the
// threshold analyses (Figs 7–10) compare equal-size intervals, so the
// trailing partial window is dropped.
func (p *Profile) FullWindowSeries(gran uint64) ([]float64, []bbv.Vector, error) {
	ipcs, err := p.IPCSeries(gran)
	if err != nil {
		return nil, nil, err
	}
	bbvs, err := p.BBVSeries(gran)
	if err != nil {
		return nil, nil, err
	}
	n := min(p.NumFullWindows(gran), len(ipcs), len(bbvs))
	return ipcs[:n], bbvs[:n], nil
}

// IntervalStdDev returns the standard deviation of interval IPCs at the
// given granularity — the σ that the paper's threshold analysis (Figs 7–10)
// normalises IPC changes by. The trailing partial interval is excluded.
func (p *Profile) IntervalStdDev(gran uint64) (float64, error) {
	series, err := p.IPCSeries(gran)
	if err != nil {
		return 0, err
	}
	if full := p.NumFullWindows(gran); full < len(series) {
		series = series[:full]
	}
	var mean, m2 float64
	for i, x := range series {
		d := x - mean
		mean += d / float64(i+1)
		m2 += d * (x - mean)
	}
	if len(series) < 2 {
		return 0, nil
	}
	return math.Sqrt(m2 / float64(len(series)-1)), nil
}

// CheckIntegrity verifies the structural invariants a healthy profile
// satisfies, returning an ErrCacheCorrupt-classed error otherwise. Load
// calls it, so a truncated, zero-filled or schema-drifted cache file is
// reported as corrupt rather than producing bogus replays.
func (p *Profile) CheckIntegrity() error {
	if p.TotalOps == 0 || p.TotalCycles == 0 {
		return pgsserrors.Corruptf("profile %q: empty run (%d ops, %d cycles)",
			p.Benchmark, p.TotalOps, p.TotalCycles)
	}
	if err := (Config{FineOps: p.FineOps, BBVOps: p.BBVOps}).Validate(); err != nil {
		return pgsserrors.Corruptf("profile %q: bad granularities: %v", p.Benchmark, err)
	}
	wantFine := (p.TotalOps + p.FineOps - 1) / p.FineOps
	if uint64(len(p.Cycles)) != wantFine {
		return pgsserrors.Corruptf("profile %q: %d fine intervals, want %d for %d ops",
			p.Benchmark, len(p.Cycles), wantFine, p.TotalOps)
	}
	wantBBV := (p.TotalOps + p.BBVOps - 1) / p.BBVOps
	if uint64(len(p.RawBBVs)) != wantBBV {
		return pgsserrors.Corruptf("profile %q: %d BBV intervals, want %d for %d ops",
			p.Benchmark, len(p.RawBBVs), wantBBV, p.TotalOps)
	}
	if p.MAVBits != 0 || len(p.RawMAVs) != 0 {
		if p.MAVBits <= 0 {
			return pgsserrors.Corruptf("profile %q: %d MAV intervals but MAVBits %d",
				p.Benchmark, len(p.RawMAVs), p.MAVBits)
		}
		if uint64(len(p.RawMAVs)) != wantBBV {
			return pgsserrors.Corruptf("profile %q: %d MAV intervals, want %d for %d ops",
				p.Benchmark, len(p.RawMAVs), wantBBV, p.TotalOps)
		}
		for _, v := range p.RawMAVs {
			if len(v) != 1<<p.MAVBits {
				return pgsserrors.Corruptf("profile %q: %d-wide MAV, want %d",
					p.Benchmark, len(v), 1<<p.MAVBits)
			}
		}
	}
	var cycles uint64
	for _, c := range p.Cycles {
		cycles += uint64(c)
	}
	if cycles != p.TotalCycles {
		return pgsserrors.Corruptf("profile %q: interval cycles sum to %d, header says %d",
			p.Benchmark, cycles, p.TotalCycles)
	}
	return nil
}

// SaveFS writes the profile to path on fsys (nil = the real filesystem)
// in the CRC-framed binary format (see binary.go), creating parent
// directories as needed. The write is crash-consistent: temp file, fsync,
// rename — a crash at any instant leaves either the old profile or the new
// one, never a torn file.
func (p *Profile) SaveFS(fsys faultinject.FS, path string) error {
	err := faultinject.WriteAtomic(fsys, path, 0o644, func(w io.Writer) error {
		return p.encodeBinary(w)
	})
	if err != nil {
		return fmt.Errorf("profile: save: %w", err)
	}
	return nil
}

// LoadFS reads a profile written by SaveFS from fsys (nil = the real
// filesystem). The binary container decodes with zero copies (mmapped on
// the real filesystem). Decode failures, version skew and integrity violations are reported as
// ErrCacheCorrupt so callers can delete the file and re-record; a missing
// file keeps its os error (check with os.IsNotExist).
func LoadFS(fsys faultinject.FS, path string) (*Profile, error) {
	data, err := readProfileBytes(fsys, path)
	if err != nil {
		return nil, err
	}
	p, err := decodeBinary(data)
	if err != nil {
		return nil, fmt.Errorf("profile: %s: %w", path, err)
	}
	if err := p.CheckIntegrity(); err != nil {
		return nil, fmt.Errorf("profile: %s: %w", path, err)
	}
	return p, nil
}
