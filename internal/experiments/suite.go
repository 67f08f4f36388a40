// Package experiments reproduces every figure of the paper's evaluation:
// each FigN function regenerates the rows/series of the corresponding
// figure from fresh (or cached) simulation, and the reports record the
// metrics the paper's claims rest on.
package experiments

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"

	"pgss/internal/artifact"
	"pgss/internal/bbv"
	"pgss/internal/campaign"
	"pgss/internal/checkpoint"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/profile"
	"pgss/internal/program"
	"pgss/internal/sampling"
	"pgss/internal/workload"
)

// schemaVersion invalidates cached profiles when the simulator or the
// workload generator change behaviourally. v8: profiles carry the
// memory-access-vector (MAV) channel.
const schemaVersion = 8

// Options configures a Suite.
type Options struct {
	// Scale divides the paper's window parameters (sampling periods,
	// interval sizes, spread rule); 10 is the default and corresponds to
	// benchmarks one tenth the paper's SPEC length.
	Scale uint64
	// TotalOps overrides every benchmark's default length (0 = defaults).
	TotalOps uint64
	// SizeFactor scales every benchmark's default length (1.0 = defaults);
	// ignored when TotalOps is set.
	SizeFactor float64
	// ArtifactDir roots a content-addressed artifact store (see
	// internal/artifact) that dedupes recorded profiles AND checkpoint
	// libraries across runs, processes and campaigns ("" = no store).
	// Concurrent campaign workers — including ones in other processes
	// sharing the same root — record each missing artifact exactly once
	// machine-wide.
	ArtifactDir string
	// HashSeed fixes the BBV hash bit selection.
	HashSeed int64
	// Quiet suppresses progress output to stderr.
	Quiet bool
	// Jobs bounds parallel profile recording (0 = GOMAXPROCS).
	Jobs int
	// Shards and SampleWorkers enable the checkpoint-sharded parallel
	// engine for PGSS campaign runs when either exceeds 1; results are
	// bit-identical to serial execution (see internal/parallel).
	Shards        int
	SampleWorkers int
	// Context, when set, cancels in-flight recording and simulation
	// cooperatively (SIGINT handling in the CLIs).
	Context context.Context
	// FS is the filesystem the artifact store lives on (nil = the real OS
	// filesystem). Chaos tests swap in a faultinject.MemFS or Injector.
	FS faultinject.FS
}

// DefaultOptions is the standard evaluation configuration.
func DefaultOptions() Options {
	return Options{Scale: 10, SizeFactor: 1.0, HashSeed: 42}
}

// Suite builds, caches and hands out benchmark profiles. All methods are
// safe for concurrent use: campaign workers may request profiles in
// parallel, and a profile missing from the cache records exactly once
// however many workers ask for it.
type Suite struct {
	opts  Options
	hash  *bbv.Hash
	store *artifact.Store // nil unless Options.ArtifactDir is set

	profiles  memo[profileKey, *profile.Profile]
	libraries memo[libraryKey, *checkpoint.Library]
}

// profileKey identifies one memoised recording: ablations that re-record
// at non-default lengths or hash widths (hash-width sweeps in particular)
// share the same singleflight cache as the default profiles, so each
// variant records exactly once per suite.
type profileKey struct {
	name string
	ops  uint64
	bits int
}

// libraryKey identifies one memoised checkpoint library.
type libraryKey struct {
	name   string
	ops    uint64
	stride uint64
}

// memo is a singleflight cache: the first get of a missing key runs fill,
// and concurrent gets of the same key wait for that run instead of
// repeating it. Only successes are kept, so a failed fill runs again on
// the next get. The zero value is ready to use.
type memo[K comparable, V any] struct {
	mu     sync.Mutex
	done   map[K]V
	flight map[K]*memoJob[V]
}

// memoJob is the in-flight marker of one fill.
type memoJob[V any] struct {
	done chan struct{}
	v    V
	err  error
}

func (m *memo[K, V]) get(k K, fill func() (V, error)) (V, error) {
	m.mu.Lock()
	if v, ok := m.done[k]; ok {
		m.mu.Unlock()
		return v, nil
	}
	if job, ok := m.flight[k]; ok {
		m.mu.Unlock()
		<-job.done
		return job.v, job.err
	}
	if m.flight == nil {
		m.done = map[K]V{}
		m.flight = map[K]*memoJob[V]{}
	}
	job := &memoJob[V]{done: make(chan struct{})}
	m.flight[k] = job
	m.mu.Unlock()

	job.v, job.err = fill()
	m.mu.Lock()
	if job.err == nil {
		m.done[k] = job.v
	}
	delete(m.flight, k)
	m.mu.Unlock()
	close(job.done)
	return job.v, job.err
}

// has reports whether k holds a finished value.
func (m *memo[K, V]) has(k K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.done[k]
	return ok
}

// NewSuite builds a Suite.
func NewSuite(opts Options) (*Suite, error) {
	if opts.Scale == 0 {
		opts.Scale = 10
	}
	if opts.SizeFactor == 0 {
		opts.SizeFactor = 1.0
	}
	hash, err := bbv.NewHash(bbv.DefaultHashBits, opts.HashSeed)
	if err != nil {
		return nil, err
	}
	s := &Suite{opts: opts, hash: hash}
	if opts.ArtifactDir != "" {
		s.store, err = artifact.Open(opts.ArtifactDir, artifact.Options{
			FS:   opts.FS,
			Logf: s.logf,
		})
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Artifacts returns the suite's artifact store (nil when ArtifactDir is
// unset).
func (s *Suite) Artifacts() *artifact.Store { return s.store }

// MustNewSuite is NewSuite that panics on error.
func MustNewSuite(opts Options) *Suite {
	s, err := NewSuite(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Options returns the suite's options.
func (s *Suite) Options() Options { return s.opts }

// Hash returns the suite-wide BBV hash.
func (s *Suite) Hash() *bbv.Hash { return s.hash }

// Scale returns the parameter scale divisor.
func (s *Suite) Scale() uint64 { return s.opts.Scale }

func (s *Suite) targetOps(spec *workload.Spec) uint64 {
	if s.opts.TotalOps > 0 {
		return s.opts.TotalOps
	}
	return uint64(float64(spec.DefaultOps) * s.opts.SizeFactor)
}

func (s *Suite) logf(format string, args ...any) {
	if !s.opts.Quiet {
		fmt.Fprintf(os.Stderr, format, args...)
	}
}

// ctx returns the suite's cancellation context.
func (s *Suite) ctx() context.Context {
	if s.opts.Context != nil {
		return s.opts.Context
	}
	return context.Background()
}

// Profile returns the detailed profile of the named benchmark at the
// suite's default length and hash width, recording it (one full detailed
// pass) on first use and caching in memory and, when configured, in the
// artifact store.
// Concurrent callers asking for the same missing benchmark share one
// recording.
func (s *Suite) Profile(name string) (*profile.Profile, error) {
	return s.ProfileWith(name, 0, 0)
}

// ProfileWith is Profile at an explicit recording length and BBV hash
// width (0 = the suite default for either). Every (name, ops, bits)
// variant is memoised independently, so ablation sweeps that re-record at
// non-default parameters pay for each recording once per suite.
func (s *Suite) ProfileWith(name string, ops uint64, bits int) (*profile.Profile, error) {
	spec, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	if ops == 0 {
		ops = s.targetOps(spec)
	}
	if bits == 0 {
		bits = s.hash.Width()
	}
	key := profileKey{name: name, ops: ops, bits: bits}
	return s.profiles.get(key, func() (*profile.Profile, error) { return s.recordOne(spec, key) })
}

// PaperTenNames returns the ten evaluation benchmark names in figure
// order.
func PaperTenNames() []string {
	specs := workload.PaperTen()
	names := make([]string, len(specs))
	for i, sp := range specs {
		names[i] = sp.Name
	}
	return names
}

// PaperTen returns profiles of the ten evaluation benchmarks, recording
// any missing ones in parallel (one independent simulator per benchmark).
func (s *Suite) PaperTen() ([]*profile.Profile, error) {
	names := PaperTenNames()
	var missing []string
	for _, n := range names {
		spec, err := workload.Get(n)
		if err != nil {
			return nil, err
		}
		if !s.profiles.has(profileKey{name: n, ops: s.targetOps(spec), bits: s.hash.Width()}) {
			missing = append(missing, n)
		}
	}
	if len(missing) > 1 {
		if err := s.recordParallel(missing); err != nil {
			return nil, err
		}
	}
	out := make([]*profile.Profile, len(names))
	for i, n := range names {
		p, err := s.Profile(n)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// recordParallel records several benchmarks through the campaign runner:
// worker-pool parallelism, panic recovery and cancellation for free. A
// recording campaign keeps no journal — the artifact store already makes
// finished recordings resumable.
func (s *Suite) recordParallel(names []string) error {
	specs := make([]campaign.Spec, len(names))
	for i, n := range names {
		specs[i] = campaign.Spec{Benchmark: n, Technique: "record"}
	}
	fn := func(ctx context.Context, sp campaign.Spec) (sampling.Result, error) {
		_, err := s.Profile(sp.Benchmark)
		return sampling.Result{Benchmark: sp.Benchmark}, err
	}
	rep, err := campaign.Run(s.ctx(), specs, fn, campaign.Options{
		Jobs: s.opts.Jobs,
		Logf: s.logf,
	})
	if err != nil {
		return err
	}
	return rep.FirstError()
}

// artifactKey maps a profile memo key to its content address in the
// artifact store: everything that determines the recorded bytes goes in,
// so equal keys across processes and campaigns dedupe to one recording.
func (s *Suite) artifactKey(key profileKey) artifact.Key {
	cfg := profile.DefaultConfig()
	return artifact.Key{
		Kind:       artifact.KindProfile,
		Benchmark:  key.name,
		Ops:        key.ops,
		HashBits:   key.bits,
		HashSeed:   s.opts.HashSeed,
		FineOps:    cfg.FineOps,
		BBVOps:     cfg.BBVOps,
		MAVBits:    cfg.MAVBits,
		MAVSeed:    cfg.MAVSeed,
		CoreConfig: artifact.ConfigLabel(cpu.DefaultCoreConfig()),
		Schema:     schemaVersion,
	}
}

// recordOne loads or records one profile variant without touching the
// shared profile map (parallel-safe): from the artifact store when one is
// configured (content-addressed, singleflight across processes, corrupt
// objects re-recorded), otherwise recorded fresh.
func (s *Suite) recordOne(spec *workload.Spec, key profileKey) (*profile.Profile, error) {
	if s.store == nil {
		return s.recordFresh(spec, key)
	}
	return s.store.Profile(s.artifactKey(key), func() (*profile.Profile, error) {
		return s.recordFresh(spec, key)
	})
}

// recordFresh runs the full detailed recording pass for one profile
// variant — the expensive part the store guards.
func (s *Suite) recordFresh(spec *workload.Spec, key profileKey) (*profile.Profile, error) {
	hash := s.hash
	if key.bits != s.hash.Width() {
		var err error
		if hash, err = bbv.NewHash(key.bits, s.opts.HashSeed); err != nil {
			return nil, err
		}
	}
	s.logf("recording %s (%d ops, %d-bit hash)...\n", key.name, key.ops, key.bits)
	c, err := s.newCore(spec, key.ops)
	if err != nil {
		return nil, err
	}
	return profile.RecordContext(s.ctx(), c, hash, profile.DefaultConfig())
}

// newCore builds a fresh detailed core over the benchmark program at the
// given length.
func (s *Suite) newCore(spec *workload.Spec, ops uint64) (*cpu.Core, error) {
	prog, err := spec.Build(ops)
	if err != nil {
		return nil, err
	}
	return coreOf(prog)
}

// coreOf builds a fresh detailed core over prog. Programs are immutable,
// so any number of cores may share one.
func coreOf(prog *program.Program) (*cpu.Core, error) {
	m, err := cpu.NewMachine(prog)
	if err != nil {
		return nil, err
	}
	return cpu.NewCore(m, cpu.DefaultCoreConfig())
}

// checkpointStride is the library stride for checkpoint-accelerated
// sampling at the suite's scale: one fast-forward period. Shards start and
// samples sit on window boundaries, so every seek below the library's last
// checkpoint is an exact restore with no warm-forward. Checkpoints share
// the data pages that did not change between them, so the library costs
// about what the program writes, not one data image per window.
func (s *Suite) checkpointStride() uint64 {
	return core.DefaultConfig(s.Scale()).FFOps
}

// libraryArtifactKey is the content address of a checkpoint library.
func (s *Suite) libraryArtifactKey(key libraryKey) artifact.Key {
	return artifact.Key{
		Kind:       artifact.KindCheckpoints,
		Benchmark:  key.name,
		Ops:        key.ops,
		StrideOps:  key.stride,
		CoreConfig: artifact.ConfigLabel(cpu.DefaultCoreConfig()),
		Schema:     schemaVersion,
	}
}

// CheckpointLibrary returns the checkpoint library of the named benchmark
// at the suite's default length and stride, recording it (one functional
// pass) on first use. Like Profile it is memoised, singleflighted within
// the process, and — when an artifact store is configured — deduped
// machine-wide and persisted across runs.
func (s *Suite) CheckpointLibrary(name string) (*checkpoint.Library, error) {
	spec, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	key := libraryKey{name: name, ops: s.targetOps(spec), stride: s.checkpointStride()}
	return s.libraries.get(key, func() (*checkpoint.Library, error) { return s.resolveLibrary(spec, key) })
}

// resolveLibrary records (or store-loads) one checkpoint library.
func (s *Suite) resolveLibrary(spec *workload.Spec, key libraryKey) (*checkpoint.Library, error) {
	record := func() (*checkpoint.Library, error) {
		s.logf("checkpointing %s (%d ops, stride %d)...\n", key.name, key.ops, key.stride)
		c, err := s.newCore(spec, key.ops)
		if err != nil {
			return nil, err
		}
		return checkpoint.Record(c, key.stride, key.ops)
	}
	if s.store != nil {
		return s.store.Library(s.libraryArtifactKey(key), record)
	}
	return record()
}

// shortName strips the SPEC number prefix for compact table headers.
func shortName(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[i+1:]
		}
	}
	return name
}

// sortedKeys returns map keys sorted (test/report determinism helper).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
