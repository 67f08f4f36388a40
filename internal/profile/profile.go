// Package profile records and replays interval profiles of detailed
// simulation runs.
//
// A Profile is produced by one full detailed pass over a benchmark and
// holds, at fine granularity, the cycle cost of every interval and, at a
// coarser granularity, the running sums of the raw basic-block vectors of
// its intervals, so the raw BBV of any aligned window is one difference. All
// sampled-simulation techniques in this repository can then be *replayed*
// against the profile: a replayed detailed sample reads the recorded cycles
// of its window, which is equivalent to simulating the sample from a
// perfectly warmed checkpoint (the live-points of TurboSMARTS). The paper
// itself evaluates SimPoint "by performing an off-line clustering of the
// reduced BBV data from PGSS simulation" — the same mechanism.
package profile

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"pgss/internal/bbv"
	"pgss/internal/binenc"
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

	// MAVBits is the width of the optional memory-access-vector channel,
	// which counts each BBV interval's memory accesses per hashed line
	// group (0 when the profile was recorded without the channel).
	MAVBits int

	// bbvRows and mavRows hold each signature channel as running sums, one
	// row of 1<<HashBits (or 1<<MAVBits) floats per BBV interval boundary:
	// row j is the sum of the raw vectors of intervals 0…j−1, so row 0 is
	// zero and the raw vector of intervals j0…j1−1 is row j1 minus row j0.
	// Rows hold integer counts far below 2^53, so every difference equals
	// the sequential sum of the raw vectors bit for bit. mavRows is empty
	// without the MAV channel. Loaded profiles alias the file's bytes.
	bbvRows []float64
	mavRows []float64

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

// RecordContext runs core in detailed mode to completion and returns the
// profile. The BBV hash must be the one all consumers use.
// The context is polled every ~ctxCheckOps retired ops; a cancelled or
// expired context aborts the recording with an ErrBudgetExceeded-classed
// error.
//
// The core's stepping kernel runs one fine interval at a time (BBVOps is a
// multiple of FineOps, so every recording boundary lands exactly on its
// op position), feeding a Recorder's trackers.
func RecordContext(ctx context.Context, core *cpu.Core, hash *bbv.Hash, cfg Config) (*Profile, error) {
	rec, err := NewRecorder(core.M.Program().Name, hash, cfg, core.T.Cycle())
	if err != nil {
		return nil, err
	}
	nextCtx := uint64(ctxCheckOps)
	for !core.M.Halted() {
		n := core.Run(cfg.FineOps-rec.ops%cfg.FineOps, cpu.Detailed, rec.BBV, rec.MAV)
		rec.Retired(n, core.T.Cycle())
		if rec.ops >= nextCtx {
			nextCtx += ctxCheckOps
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("profile: %s: recording cancelled after %d ops: %w (%w)",
					rec.p.Benchmark, rec.ops, pgsserrors.ErrBudgetExceeded, err)
			}
		}
	}
	if err := core.M.Err(); err != nil {
		return nil, fmt.Errorf("profile: %s halted abnormally after %d ops: %w", rec.p.Benchmark, rec.ops, err)
	}
	return rec.Finish(core.T.Cycle()), nil
}

// Recorder builds a profile from a detailed run's retire stream: the
// cycle count of every fine interval and, per BBV interval, the raw vector
// of each signature channel. Its driver charges every retired op to the
// trackers BBV and MAV and then reports the ops with Retired.
type Recorder struct {
	// BBV accumulates the current BBV interval's basic-block vector; MAV
	// its memory-access vector, nil when the configuration has no MAV
	// channel.
	BBV *bbv.Tracker
	MAV *bbv.MAVTracker

	p           *Profile
	ops         uint64
	start, last uint64 // clock readings at the start and the last fine boundary
}

// NewRecorder starts the profile of the named program, with BBVs hashed
// by hash, on a core whose clock reads startCycle.
func NewRecorder(name string, hash *bbv.Hash, cfg Config, startCycle uint64) (*Recorder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Recorder{
		BBV: bbv.NewTracker(hash),
		p: &Profile{
			Benchmark: name,
			HashBits:  hash.Width(),
			FineOps:   cfg.FineOps,
			BBVOps:    cfg.BBVOps,
			MAVBits:   cfg.MAVBits,
			bbvRows:   make([]float64, hash.Buckets()),
		},
		start: startCycle,
		last:  startCycle,
	}
	if cfg.MAVBits > 0 {
		mavHash, err := bbv.NewMAVHash(cfg.MAVBits, cfg.MAVSeed)
		if err != nil {
			return nil, err
		}
		r.MAV = bbv.NewMAVTracker(mavHash)
		r.p.mavRows = make([]float64, mavHash.Buckets())
	}
	return r, nil
}

// Retired notes n more retired ops, after which the core's clock reads
// cycle. The ops must not cross a fine-interval boundary without ending on
// it: a recording boundary is closed only where a call ends.
func (r *Recorder) Retired(n, cycle uint64) {
	r.ops += n
	if n == 0 || r.ops%r.p.FineOps != 0 {
		return
	}
	r.p.Cycles = append(r.p.Cycles, uint32(cycle-r.last))
	r.last = cycle
	if r.ops%r.p.BBVOps == 0 {
		r.takeRows()
	}
}

// Finish closes the short final intervals, if any, at the given clock
// reading and returns the profile.
func (r *Recorder) Finish(cycle uint64) *Profile {
	p := r.p
	if tail := r.ops % p.FineOps; tail != 0 {
		p.Cycles = append(p.Cycles, uint32(cycle-r.last))
		p.TailOps = tail
	}
	if r.ops%p.BBVOps != 0 {
		r.takeRows()
	}
	p.TotalOps = r.ops
	p.TotalCycles = cycle - r.start
	return p
}

// takeRows appends each channel's raw vector of the BBV interval just
// closed to its running sums, folded onto the row before it in place.
func (r *Recorder) takeRows() {
	r.p.bbvRows = foldRow(r.BBV.AppendRaw(r.p.bbvRows), 1<<r.p.HashBits)
	if r.MAV != nil {
		r.p.mavRows = foldRow(r.MAV.AppendRaw(r.p.mavRows), 1<<r.p.MAVBits)
	}
}

// foldRow turns the raw vector last appended to rows, a channel's running
// sums of the given width, into the next running sum by adding the row
// before it.
func foldRow(rows []float64, width int) []float64 {
	n := len(rows)
	row, prev := rows[n-width:], rows[n-2*width:n-width]
	for i := range row {
		row[i] += prev[i]
	}
	return rows
}

// appendRow appends raw as the next interval of a channel's running sums,
// seeding the zero row first when rows is empty.
func appendRow(rows []float64, raw bbv.Vector) []float64 {
	if len(rows) == 0 {
		rows = make([]float64, len(raw), 2*len(raw))
	}
	return foldRow(append(rows, raw...), len(raw))
}

// AppendBBV appends the raw BBV (1<<HashBits wide) of the profile's next
// BBV interval, for writers that build a profile one interval at a time.
func (p *Profile) AppendBBV(raw bbv.Vector) { p.bbvRows = appendRow(p.bbvRows, raw) }

// AppendMAV is AppendBBV for the MAV channel (1<<MAVBits wide).
func (p *Profile) AppendMAV(raw bbv.Vector) { p.mavRows = appendRow(p.mavRows, raw) }

// TrueIPC returns the whole-program IPC: the quantity every technique
// estimates.
func (p *Profile) TrueIPC() float64 {
	if p.TotalCycles == 0 {
		return 0
	}
	return float64(p.TotalOps) / float64(p.TotalCycles)
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
	i1 := min(i0+n, len(p.Cycles))
	cycles = p.prefix[i1] - p.prefix[i0]
	actualOps = uint64(i1-i0) * p.FineOps
	if i1 == len(p.Cycles) && p.TailOps != 0 {
		actualOps -= p.FineOps - p.TailOps // the last interval is a short tail
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

// BBVWindowInto writes the raw (unnormalised) BBV of the window starting
// at op position start (a multiple of BBVOps) spanning ops (a multiple of
// BBVOps), clipped at the end of the program, into dst, a caller-owned
// buffer of length 1<<HashBits. It reports ok=false for a window past the
// end of the program (dst is then unchanged). Safe for concurrent use with
// distinct buffers.
func (p *Profile) BBVWindowInto(dst bbv.Vector, start, ops uint64) (bool, error) {
	return p.windowInto(p.bbvRows, p.HashBits, "BBV", dst, start, ops)
}

// windowInto writes the raw vector of a window on one channel, whose
// running sums rows are 1<<bits wide, into dst (see BBVWindowInto): the
// row at the window's end minus the row at its start.
func (p *Profile) windowInto(rows []float64, bits int, channel string, dst bbv.Vector, start, ops uint64) (bool, error) {
	if start%p.BBVOps != 0 || ops%p.BBVOps != 0 {
		return false, pgsserrors.Misalignedf(
			"profile: %s window start=%d ops=%d not multiples of BBV granularity %d", channel, start, ops, p.BBVOps)
	}
	n := intervals(rows, bits)
	j0 := start / p.BBVOps
	if j0 >= n {
		return false, nil
	}
	j1 := j0 + min(ops/p.BBVOps, n-j0)
	width := uint64(1) << bits
	lo, hi := rows[j0*width:][:width], rows[j1*width:][:width]
	dst = dst[:width]
	for i := range dst {
		dst[i] = hi[i] - lo[i]
	}
	return true, nil
}

// BBVSeries returns normalised BBVs of consecutive windows at the given op
// granularity (a multiple of BBVOps). The windows are cut from one
// allocation, each capped at its own length.
func (p *Profile) BBVSeries(gran uint64) ([]bbv.Vector, error) {
	if gran == 0 || gran%p.BBVOps != 0 {
		return nil, pgsserrors.Misalignedf(
			"profile: granularity %d not a multiple of BBV granularity %d", gran, p.BBVOps)
	}
	n := int(min(ceilDiv(p.TotalOps, gran), ceilDiv(intervals(p.bbvRows, p.HashBits), gran/p.BBVOps)))
	if n == 0 {
		return nil, nil
	}
	width := 1 << p.HashBits
	arena := make([]float64, n*width)
	out := make([]bbv.Vector, n)
	for k := range out {
		out[k] = arena[k*width : (k+1)*width : (k+1)*width]
		if _, err := p.windowInto(p.bbvRows, p.HashBits, "BBV", out[k], uint64(k)*gran, gran); err != nil {
			return nil, err
		}
		out[k].Normalize()
	}
	return out, nil
}

// intervals returns how many BBV intervals a channel's running sums, rows
// of 1<<bits floats, cover: one fewer than its rows.
func intervals(rows []float64, bits int) uint64 {
	return max(uint64(len(rows)>>bits), 1) - 1
}

// ceilDiv returns ⌈a/b⌉ without overflowing.
func ceilDiv(a, b uint64) uint64 { return a/b + min(a%b, 1) }

// HasMAV reports whether the profile carries the memory-access-vector
// channel.
func (p *Profile) HasMAV() bool { return len(p.mavRows) > 0 }

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
	return p.windowInto(p.mavRows, p.MAVBits, "MAV", dst, start, ops)
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
		bvec = make(bbv.Vector, 1<<p.HashBits)
		if ok, err := p.BBVWindowInto(bvec, start, ops); !ok {
			return nil, err
		}
		bvec.Normalize()
	}
	if ch.NeedsMAV() {
		mvec = make(bbv.Vector, 1<<p.MAVBits)
		if ok, err := p.MAVWindowInto(mvec, start, ops); !ok {
			return nil, err
		}
		mvec.Normalize()
	}
	sig, _, err := bbv.Signature(ch, bvec, mvec, nil)
	if err != nil {
		return nil, err
	}
	return sig, nil
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
	wantFine := ceilDiv(p.TotalOps, p.FineOps)
	if uint64(len(p.Cycles)) != wantFine {
		return pgsserrors.Corruptf("profile %q: %d fine intervals, want %d for %d ops",
			p.Benchmark, len(p.Cycles), wantFine, p.TotalOps)
	}
	if p.TailOps != p.TotalOps%p.FineOps {
		return pgsserrors.Corruptf("profile %q: %d-op tail, want %d for %d ops",
			p.Benchmark, p.TailOps, p.TotalOps%p.FineOps, p.TotalOps)
	}
	wantBBV := ceilDiv(p.TotalOps, p.BBVOps)
	if err := p.checkRows("BBV", p.bbvRows, p.HashBits, bbv.MaxHashBits, wantBBV); err != nil {
		return err
	}
	if p.MAVBits != 0 || len(p.mavRows) != 0 {
		if err := p.checkRows("MAV", p.mavRows, p.MAVBits, bbv.MaxMAVBits, wantBBV); err != nil {
			return err
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

// checkRows checks that a channel's running sums hold one row per
// interval boundary, intervals+1 rows of 1<<bits floats in all, and start
// at a zero row. It reads no other row: a loaded profile's frame CRCs
// already cover the bytes.
func (p *Profile) checkRows(channel string, rows []float64, bits, maxBits int, intervals uint64) error {
	width, err := rowWidth(channel, bits, maxBits)
	if err != nil {
		return fmt.Errorf("profile %q: %w", p.Benchmark, err)
	}
	if len(rows)%width != 0 || uint64(len(rows)/width) != intervals+1 {
		return pgsserrors.Corruptf("profile %q: %d %s floats, want %d rows of %d for %d ops",
			p.Benchmark, len(rows), channel, intervals+1, width, p.TotalOps)
	}
	for _, x := range rows[:width] {
		if x != 0 {
			return pgsserrors.Corruptf("profile %q: %s running sums start at a non-zero row", p.Benchmark, channel)
		}
	}
	return nil
}

// rowWidth returns 1<<bits, the row width of a channel hashed to bits
// bits, after checking that bits lies in [1, maxBits]: a shift by a
// negative count panics.
func rowWidth(channel string, bits, maxBits int) (int, error) {
	if bits < 1 || bits > maxBits {
		return 0, pgsserrors.Corruptf("%s hash width %d outside [1,%d]", channel, bits, maxBits)
	}
	return 1 << bits, nil
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
// file keeps its os error (check with os.IsNotExist). A file that fails to
// load is unmapped before LoadFS returns; a loaded profile keeps its
// mapping.
func LoadFS(fsys faultinject.FS, path string) (*Profile, error) {
	return loadFS(fsys, path, true)
}

// CheckFS loads and checks the profile at path like LoadFS, then unmaps
// the file: for callers that audit a profile without keeping it.
func CheckFS(fsys faultinject.FS, path string) error {
	_, err := loadFS(fsys, path, false)
	return err
}

func loadFS(fsys faultinject.FS, path string, keep bool) (*Profile, error) {
	data, release, err := binenc.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	p, err := decodeBinary(data)
	if err == nil {
		err = p.CheckIntegrity()
	}
	if err != nil {
		return nil, fmt.Errorf("profile: %s: %w", path, errors.Join(err, release()))
	}
	if !keep {
		return nil, release()
	}
	return p, nil
}
