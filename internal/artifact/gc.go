package artifact

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"pgss/internal/checkpoint"
	"pgss/internal/pgsserrors"
	"pgss/internal/profile"
)

// Container magics the store recognises, re-exported by the owning
// packages so the sniffer never hardcodes another layer's format.
const (
	profileMagicName = profile.BinaryMagic
	libraryMagicName = checkpoint.BinaryMagic
)

// ListEntry is one List row: an index entry plus its address.
type ListEntry struct {
	Hash string
	Entry
}

// List returns the indexed artifacts sorted by hash.
func (s *Store) List() []ListEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ListEntry, 0, len(s.idx.Entries))
	for hash, e := range s.idx.Entries {
		out = append(out, ListEntry{Hash: hash, Entry: *e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}

// TotalBytes returns the indexed object bytes.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, e := range s.idx.Entries {
		n += e.Size
	}
	return n
}

// Pin increments an artifact's ref count; GC never evicts while Refs > 0.
func (s *Store) Pin(hash string) error { return s.ref(hash, +1) }

// Unpin decrements an artifact's ref count (floored at zero).
func (s *Store) Unpin(hash string) error { return s.ref(hash, -1) }

func (s *Store) ref(hash string, d int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.idx.Entries[hash]
	if !ok {
		return pgsserrors.Invalidf("artifact: no artifact %s in index", hash)
	}
	e.Refs += d
	if e.Refs < 0 {
		e.Refs = 0
	}
	s.persistIndexLocked()
	return nil
}

// GCStats reports one garbage-collection pass.
type GCStats struct {
	Scanned    int
	Evicted    int
	Pinned     int
	BytesFreed int64
	BytesKept  int64
}

// GC evicts least-recently-used unpinned artifacts until the indexed bytes
// fit maxBytes (0 evicts everything unpinned; negative is a no-op).
// Eviction order is (LastUseGen, hash) — deterministic for equal-use ties.
func (s *Store) GC(maxBytes int64) (GCStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st GCStats
	if maxBytes < 0 {
		return st, nil
	}
	type cand struct {
		hash string
		e    *Entry
	}
	var total int64
	var cands []cand
	for hash, e := range s.idx.Entries {
		st.Scanned++
		total += e.Size
		if e.Refs > 0 {
			st.Pinned++
			continue
		}
		cands = append(cands, cand{hash, e})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].e.LastUseGen != cands[j].e.LastUseGen {
			return cands[i].e.LastUseGen < cands[j].e.LastUseGen
		}
		return cands[i].hash < cands[j].hash
	})
	for _, c := range cands {
		if total <= maxBytes {
			break
		}
		path := s.objectPathOf(c.hash)
		if err := s.fsys.Remove(path); err != nil && !os.IsNotExist(err) {
			return st, fmt.Errorf("artifact: gc: remove %s: %w", path, err)
		}
		delete(s.idx.Entries, c.hash)
		total -= c.e.Size
		st.Evicted++
		st.BytesFreed += c.e.Size
	}
	st.BytesKept = total
	s.persistIndexLocked()
	return st, nil
}

// VerifyReport is what a Verify pass found (and repaired).
type VerifyReport struct {
	Checked int
	Healthy int
	// Corrupt objects failed decode or SHA comparison; they were deleted
	// from disk and index so the next resolve re-records them.
	Corrupt []string
	// Missing index entries had no object on disk; they were dropped.
	Missing []string
	// Adopted objects were on disk but not indexed; recovered entries were
	// created for them.
	Adopted []string
	// TmpSwept counts orphaned .tmp files (publishes interrupted by a
	// crash) that were removed.
	TmpSwept int
}

func (r VerifyReport) String() string {
	return fmt.Sprintf("checked %d: %d healthy, %d corrupt, %d missing, %d adopted, %d tmp swept",
		r.Checked, r.Healthy, len(r.Corrupt), len(r.Missing), len(r.Adopted), r.TmpSwept)
}

// Verify audits the whole store and repairs what it can: every object must
// carry a decodable container whose bytes match the indexed SHA; orphaned
// .tmp files from interrupted publishes are swept; unindexed objects are
// adopted; entries without objects are dropped. After Verify the store is
// consistent and every surviving artifact is loadable.
func (s *Store) Verify() (VerifyReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep VerifyReport

	onDisk := map[string]string{} // hash -> path
	for _, path := range s.scanObjects() {
		base := path[strings.LastIndexByte(path, '/')+1:]
		if strings.HasSuffix(base, ".tmp") {
			if err := s.fsys.Remove(path); err != nil && !os.IsNotExist(err) {
				return rep, fmt.Errorf("artifact: verify: sweep %s: %w", path, err)
			}
			rep.TmpSwept++
			continue
		}
		hash := strings.TrimSuffix(base, ".art")
		if len(hash) != 64 {
			continue
		}
		onDisk[hash] = path
	}

	hashes := make([]string, 0, len(s.idx.Entries))
	for hash := range s.idx.Entries {
		hashes = append(hashes, hash)
	}
	sort.Strings(hashes)
	for _, hash := range hashes {
		e := s.idx.Entries[hash]
		path, ok := onDisk[hash]
		if !ok {
			delete(s.idx.Entries, hash)
			rep.Missing = append(rep.Missing, hash)
			continue
		}
		delete(onDisk, hash)
		rep.Checked++
		if err := s.checkObject(path, e.Key.Kind, e.ContentSHA); err != nil {
			s.logf("artifact: verify: %s corrupt (%v), deleting\n", path, err)
			if rmErr := s.fsys.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
				return rep, fmt.Errorf("artifact: verify: remove corrupt %s: %w", path, rmErr)
			}
			delete(s.idx.Entries, hash)
			rep.Corrupt = append(rep.Corrupt, hash)
			continue
		}
		if e.ContentSHA == "" {
			// Entry predates a SHA (lost index, recovered entry): the object
			// just decoded cleanly, so record its bytes for future audits.
			if sha, size, err := s.contentSHA(path); err == nil {
				e.ContentSHA, e.Size = sha, size
			}
		}
		rep.Healthy++
	}

	orphans := make([]string, 0, len(onDisk))
	for hash := range onDisk {
		orphans = append(orphans, hash)
	}
	sort.Strings(orphans)
	for _, hash := range orphans {
		path := onDisk[hash]
		rep.Checked++
		kind, sha, size, err := s.sniffObject(path)
		if err != nil || s.checkObject(path, kind, sha) != nil {
			s.logf("artifact: verify: unindexed %s unreadable, deleting\n", path)
			if rmErr := s.fsys.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
				return rep, fmt.Errorf("artifact: verify: remove corrupt %s: %w", path, rmErr)
			}
			rep.Corrupt = append(rep.Corrupt, hash)
			continue
		}
		s.idx.Entries[hash] = &Entry{
			Key: Key{Kind: kind}, Size: size, ContentSHA: sha, Recovered: true,
		}
		rep.Adopted = append(rep.Adopted, hash)
		rep.Healthy++
	}

	s.persistIndexLocked()
	return rep, nil
}

// checkObject deep-checks one object: bytes match wantSHA (when known) and
// the container decodes as its kind (magic-sniffed when the kind was lost).
// Nothing keeps the decoded object, so its file is unmapped again.
func (s *Store) checkObject(path string, kind Kind, wantSHA string) error {
	if wantSHA != "" {
		sha, _, err := s.contentSHA(path)
		if err != nil {
			return err
		}
		if sha != wantSHA {
			return pgsserrors.Corruptf("artifact: %s: content sha %s, index says %s",
				path, sha[:12], wantSHA[:12])
		}
	}
	if kind == "" {
		k, _, _, err := s.sniffObject(path)
		if err != nil {
			return err
		}
		kind = k
	}
	switch kind {
	case KindProfile:
		return profile.CheckFS(s.fsys, path)
	case KindCheckpoints:
		return checkpoint.Check(s.fsys, path)
	default:
		return pgsserrors.Corruptf("artifact: %s: unknown kind %q", path, kind)
	}
}

// Sweep removes orphaned .tmp files without the full Verify audit; Open
// does not call it (a live sibling process may be mid-publish) — the CLI
// and the chaos harness do, at points where the store is known quiescent.
func (s *Store) Sweep() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, path := range s.scanObjects() {
		if !strings.HasSuffix(path, ".tmp") {
			continue
		}
		if err := s.fsys.Remove(path); err != nil && !os.IsNotExist(err) {
			return n, fmt.Errorf("artifact: sweep %s: %w", path, err)
		}
		n++
	}
	return n, nil
}
