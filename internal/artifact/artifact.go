// Package artifact is the content-addressed, on-disk artifact store of the
// PGSS toolchain: recorded profiles and checkpoint libraries — the two
// expensive products of a recording pass — are published once under a key
// derived from everything that determines their content (workload program,
// recording configuration, signature granularities and channels, container
// schema) and shared across runs, processes and campaigns. A warm campaign
// start is then a handful of O(1) mmap loads instead of hours of
// re-recording, kubo-style: identical work is deduped machine-wide.
//
// Layout under a store root:
//
//	objects/<hh>/<hash>.art   the artifacts (binenc containers, hh = hash[:2])
//	locks/<hash>.lock         recorder locks (O_CREATE|O_EXCL lease files)
//	index.json                advisory metadata: keys, sizes, refs, LRU gens
//
// Every object and the index are written with faultinject.WriteAtomic
// (temp + fsync + rename), so a crash mid-publish never leaves a torn
// artifact — at worst an orphaned .tmp file that Verify sweeps. The index
// is advisory: the objects are the truth, and a corrupt or missing index
// is rebuilt by scanning them (entries recovered that way lose their full
// key but keep working for GC and verification).
//
// Concurrency is two-level singleflight. Within a process, concurrent
// requests for a missing artifact share one recording through an in-memory
// flight table. Across processes, a recorder takes the artifact's lock
// file (created O_CREATE|O_EXCL — acquisition is atomic on every FS the
// seam models); losers poll for the object to appear and adopt it the
// moment the winner publishes, so a campaign fleet records each missing
// artifact exactly once machine-wide. A lock abandoned by a crashed
// recorder is broken after LockStale of waiting — duplicated recording at
// worst, never corruption, because publishes are atomic and byte-identical.
package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pgss/internal/checkpoint"
	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
)

// Kind says what an artifact decodes as.
type Kind string

const (
	// KindProfile is a recorded profile (binenc PGSSPROF container).
	KindProfile Kind = "profile"
	// KindCheckpoints is a checkpoint library (binenc PGSSCKPT container).
	KindCheckpoints Kind = "checkpoints"
)

// Key identifies one artifact by everything that determines its content.
// Two recordings with equal keys produce byte-identical artifacts, so the
// key's hash is a content address computable before recording — which is
// what lets concurrent workers agree on who records what.
type Key struct {
	Kind      Kind   `json:"kind"`
	Benchmark string `json:"benchmark"`
	// Ops is the recorded program length.
	Ops uint64 `json:"ops"`
	// HashBits/HashSeed pin the BBV hash; FineOps/BBVOps the recording
	// granularities; MAVBits/MAVSeed the memory-access-vector channel
	// (profiles only — zero for checkpoint libraries).
	HashBits int    `json:"hash_bits,omitempty"`
	HashSeed int64  `json:"hash_seed,omitempty"`
	FineOps  uint64 `json:"fine_ops,omitempty"`
	BBVOps   uint64 `json:"bbv_ops,omitempty"`
	MAVBits  int    `json:"mav_bits,omitempty"`
	MAVSeed  int64  `json:"mav_seed,omitempty"`
	// StrideOps is the checkpoint stride (checkpoint libraries only).
	StrideOps uint64 `json:"stride_ops,omitempty"`
	// CoreConfig is a canonical rendering of the machine configuration the
	// recording ran under (see ConfigLabel).
	CoreConfig string `json:"core_config,omitempty"`
	// Schema versions the producing layer: bump it when the simulator, the
	// workload generator or the container format change behaviourally.
	Schema int `json:"schema"`
}

// ConfigLabel renders a configuration struct canonically for Key.CoreConfig.
// %+v over a plain struct is deterministic (field order is declaration
// order), and the Schema field guards against renderings drifting across
// releases.
func ConfigLabel(cfg any) string { return fmt.Sprintf("%+v", cfg) }

// Validate checks the key is complete enough to address an artifact.
func (k Key) Validate() error {
	switch k.Kind {
	case KindProfile, KindCheckpoints:
	default:
		return pgsserrors.Invalidf("artifact: unknown kind %q", k.Kind)
	}
	if k.Benchmark == "" {
		return pgsserrors.Invalidf("artifact: key has no benchmark")
	}
	if k.Ops == 0 {
		return pgsserrors.Invalidf("artifact: key has zero ops")
	}
	if k.Kind == KindCheckpoints && k.StrideOps == 0 {
		return pgsserrors.Invalidf("artifact: checkpoint key has zero stride")
	}
	return nil
}

// Hash returns the artifact's content address: SHA-256 over the canonical
// field encoding, hex-encoded.
func (k Key) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "kind=%s\nbenchmark=%s\nops=%d\nhashbits=%d\nhashseed=%d\n"+
		"fineops=%d\nbbvops=%d\nmavbits=%d\nmavseed=%d\nstrideops=%d\ncore=%s\nschema=%d\n",
		k.Kind, k.Benchmark, k.Ops, k.HashBits, k.HashSeed,
		k.FineOps, k.BBVOps, k.MAVBits, k.MAVSeed, k.StrideOps, k.CoreConfig, k.Schema)
	return hex.EncodeToString(h.Sum(nil))
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s@%dops(%s)", k.Kind, k.Benchmark, k.Ops, k.Hash()[:12])
}

// Options configures a Store.
type Options struct {
	// FS is the filesystem the store lives on (nil = the real OS). Chaos
	// tests swap in a faultinject.MemFS or Injector.
	FS faultinject.FS
	// Clock paces lock-wait polling (nil = the wall clock). Tests use a
	// faultinject.ManualClock.
	Clock faultinject.Clock
	// Logf receives store diagnostics (nil = silent).
	Logf func(format string, args ...any)
	// LockPoll is how often a waiter re-checks a held lock (default 5ms).
	LockPoll time.Duration
	// LockStale is how long a waiter tolerates a lock before breaking it as
	// abandoned (default 30s). Breaking a live recorder's lock duplicates
	// work but cannot corrupt: publishes are atomic and byte-identical.
	LockStale time.Duration
}

// wallClock is the default Clock. The store is deliberately outside the
// nodeterminism engine scope (like internal/campaign): lock waiting is a
// wall-time concern by nature, and every test that needs determinism
// injects a ManualClock.
type wallClock struct{}

func (wallClock) Now() time.Time                         { return time.Now() }
func (wallClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Store is a content-addressed artifact store rooted at one directory.
// All methods are safe for concurrent use by multiple goroutines, and the
// on-disk protocol is safe for concurrent use by multiple processes.
type Store struct {
	root      string
	fsys      faultinject.FS
	clock     faultinject.Clock
	logf      func(format string, args ...any)
	lockPoll  time.Duration
	lockStale time.Duration

	mu     sync.Mutex
	idx    indexImage
	flight map[string]*flight
}

// flight is one in-process singleflight recording.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Open opens (creating if necessary) the store rooted at root. A corrupt
// index is not fatal: it is logged, rebuilt by scanning the objects on
// disk, and rewritten.
func Open(root string, opts Options) (*Store, error) {
	if root == "" {
		return nil, pgsserrors.Invalidf("artifact: empty store root")
	}
	s := &Store{
		root:      root,
		fsys:      orOS(opts.FS),
		clock:     opts.Clock,
		logf:      opts.Logf,
		lockPoll:  opts.LockPoll,
		lockStale: opts.LockStale,
		flight:    map[string]*flight{},
	}
	if s.clock == nil {
		s.clock = wallClock{}
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if s.lockPoll <= 0 {
		s.lockPoll = 5 * time.Millisecond
	}
	if s.lockStale <= 0 {
		s.lockStale = 30 * time.Second
	}
	for _, dir := range []string{root, s.objectsDir(), s.locksDir()} {
		if err := s.fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("artifact: create %s: %w", dir, err)
		}
	}
	idx, err := loadIndex(s.fsys, s.indexPath())
	switch {
	case err == nil:
		s.idx = idx
	case os.IsNotExist(err):
		s.idx = newIndex()
	default:
		// Corrupt index (ErrCacheCorrupt-classified): the objects are the
		// truth — rebuild from them and carry on.
		s.logf("artifact: index %s unusable (%v), rebuilding from object scan\n", s.indexPath(), err)
		s.idx = s.rebuildIndex()
		s.persistIndexLocked()
	}
	return s, nil
}

// DefaultRoot is the per-user store root the CLIs share by default:
// pgss-artifacts under the user cache directory, or "" (no store) when the
// platform has none.
func DefaultRoot() string {
	dir, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(dir, "pgss-artifacts")
}

// orOS mirrors faultinject.orOS for the store's own file traffic.
func orOS(fsys faultinject.FS) faultinject.FS {
	if fsys == nil {
		return faultinject.OS()
	}
	return fsys
}

// Root returns the store root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) objectsDir() string { return filepath.Join(s.root, "objects") }
func (s *Store) locksDir() string   { return filepath.Join(s.root, "locks") }
func (s *Store) indexPath() string  { return filepath.Join(s.root, "index.json") }

// ObjectPath returns where the artifact addressed by k lives (whether or
// not it exists yet).
func (s *Store) ObjectPath(k Key) string { return s.objectPathOf(k.Hash()) }

func (s *Store) objectPathOf(hash string) string {
	return filepath.Join(s.objectsDir(), hash[:2], hash+".art")
}

func (s *Store) lockPath(hash string) string {
	return filepath.Join(s.locksDir(), hash+".lock")
}

// Profile resolves the profile addressed by k, calling record to produce it
// if no process has published it yet. Concurrent callers — in this process
// or any other sharing the store root — record at most once.
func (s *Store) Profile(k Key, record func() (*profile.Profile, error)) (*profile.Profile, error) {
	if k.Kind != KindProfile {
		return nil, pgsserrors.Invalidf("artifact: Profile called with kind %q", k.Kind)
	}
	v, err := s.resolve(k,
		func(path string) (any, error) { return profile.LoadFS(s.fsys, path) },
		func(path string, v any) error { return v.(*profile.Profile).SaveFS(s.fsys, path) },
		func() (any, error) { return record() },
	)
	if err != nil {
		return nil, err
	}
	return v.(*profile.Profile), nil
}

// Library resolves the checkpoint library addressed by k, recording via
// record on a machine-wide miss. Same singleflight semantics as Profile.
func (s *Store) Library(k Key, record func() (*checkpoint.Library, error)) (*checkpoint.Library, error) {
	if k.Kind != KindCheckpoints {
		return nil, pgsserrors.Invalidf("artifact: Library called with kind %q", k.Kind)
	}
	v, err := s.resolve(k,
		func(path string) (any, error) { return checkpoint.Load(s.fsys, path) },
		func(path string, v any) error { return v.(*checkpoint.Library).Save(s.fsys, path) },
		func() (any, error) { return record() },
	)
	if err != nil {
		return nil, err
	}
	return v.(*checkpoint.Library), nil
}

// resolve is the shared fast-path / singleflight / lock-protocol engine
// behind Profile and Library.
func (s *Store) resolve(k Key,
	load func(path string) (any, error),
	save func(path string, v any) error,
	record func() (any, error),
) (any, error) {
	if err := k.Validate(); err != nil {
		return nil, err
	}
	hash := k.Hash()
	path := s.objectPathOf(hash)

	// Fast path: published already. A corrupt object self-heals: log,
	// delete, re-record.
	if v, err := load(path); err == nil {
		s.touch(k, hash, path)
		return v, nil
	} else if !os.IsNotExist(err) {
		s.logf("artifact: %s unusable (%v), deleting and re-recording\n", path, err)
		if rmErr := s.fsys.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
			return nil, fmt.Errorf("artifact: cannot remove corrupt object %s: %w (%v)", path, rmErr, err)
		}
		s.dropEntry(hash)
	}

	// In-process singleflight.
	s.mu.Lock()
	if f, ok := s.flight[hash]; ok {
		s.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flight[hash] = f
	s.mu.Unlock()

	f.val, f.err = s.recordLocked(k, hash, path, load, save, record)
	s.mu.Lock()
	delete(s.flight, hash)
	s.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// recordLocked runs the machine-wide lock protocol: acquire the artifact's
// lock file, re-check, record, publish atomically, release. Waiters poll
// for the object and break abandoned locks after lockStale.
func (s *Store) recordLocked(k Key, hash, path string,
	load func(path string) (any, error),
	save func(path string, v any) error,
	record func() (any, error),
) (any, error) {
	lock := s.lockPath(hash)
	var waited time.Duration
	for {
		lf, err := s.fsys.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			lf.Close()
			defer func() {
				if rmErr := s.fsys.Remove(lock); rmErr != nil && !os.IsNotExist(rmErr) {
					s.logf("artifact: release lock %s: %v\n", lock, rmErr)
				}
			}()
			// Someone may have published while we were queueing for the lock.
			if v, loadErr := load(path); loadErr == nil {
				s.touch(k, hash, path)
				return v, nil
			}
			v, err := record()
			if err != nil {
				return nil, err
			}
			if err := save(path, v); err != nil {
				return nil, fmt.Errorf("artifact: publish %s: %w", k, err)
			}
			s.publish(k, hash, path)
			return v, nil
		}
		if !os.IsExist(err) {
			return nil, fmt.Errorf("artifact: lock %s: %w", lock, err)
		}
		// Another recorder holds the lease. Wait a poll tick, then adopt
		// the object if it appeared; break the lock once it looks abandoned.
		<-s.clock.After(s.lockPoll)
		waited += s.lockPoll
		if v, loadErr := load(path); loadErr == nil {
			s.touch(k, hash, path)
			return v, nil
		}
		if waited >= s.lockStale {
			s.logf("artifact: breaking lock %s after %v (abandoned recorder?)\n", lock, waited)
			if rmErr := s.fsys.Remove(lock); rmErr != nil && !os.IsNotExist(rmErr) {
				return nil, fmt.Errorf("artifact: break stale lock %s: %w", lock, rmErr)
			}
			waited = 0
		}
	}
}

// contentSHA hashes the published object's bytes (through the FS seam, so
// injected filesystems observe the read).
func (s *Store) contentSHA(path string) (string, int64, error) {
	f, err := faultinject.Open(s.fsys, path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// publish records a fresh artifact in the index. Index trouble is logged,
// never fatal: the object is already durable and self-describing.
func (s *Store) publish(k Key, hash, path string) {
	sha, size, err := s.contentSHA(path)
	if err != nil {
		s.logf("artifact: hash published %s: %v\n", path, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.Gen++
	s.idx.Entries[hash] = &Entry{
		Key: k, Size: size, ContentSHA: sha,
		CreatedGen: s.idx.Gen, LastUseGen: s.idx.Gen,
	}
	s.persistIndexLocked()
}

// touch bumps the LRU generation of a loaded artifact (creating a
// recovered-grade entry when the index lost it).
func (s *Store) touch(k Key, hash, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.Gen++
	e, ok := s.idx.Entries[hash]
	if !ok {
		// The index lost this artifact (rebuild, crash between object and
		// index writes): re-derive its entry from the object itself so
		// Verify's byte-level audit keeps covering it.
		sha, size, err := s.contentSHA(path)
		if err != nil {
			s.logf("artifact: hash recovered %s: %v\n", path, err)
		}
		e = &Entry{Key: k, Size: size, ContentSHA: sha, CreatedGen: s.idx.Gen}
		s.idx.Entries[hash] = e
	}
	e.LastUseGen = s.idx.Gen
	s.persistIndexLocked()
}

// dropEntry forgets hash from the index (its object is gone).
func (s *Store) dropEntry(hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.idx.Entries[hash]; ok {
		delete(s.idx.Entries, hash)
		s.persistIndexLocked()
	}
}
