package checkpoint

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"

	"pgss/internal/binenc"
	"pgss/internal/cache"
	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
)

// On-disk binary library: a binenc container with the magic below. Frame 1
// is a JSON meta header. Each checkpoint then writes, in order:
//
//   - one raw page frame ([]int64) for every data page no earlier
//     checkpoint of the library shares, numbered from 0 in file order;
//   - an index frame ([]uint32): the page number of each of its pages;
//   - six raw array frames ([]uint64): the Tags and LRU arrays of L1I,
//     L1D and L2, in cacheArrays order;
//   - a gob frame with the rest of the checkpoint (those slices nil).
//
// Load aliases pages and arrays from the file's bytes, so checkpoints that
// share a page in memory share it on disk and after loading. Any change to
// this layout or to how the rest encodes needs a new libraryVersion.
// Per-frame CRCs catch a corrupt or truncated tail before gob ever sees
// it, and the meta count cross-checks that no checkpoint went missing.
const (
	libraryMagic   = "PGSSCKPT"
	libraryVersion = 2

	// BinaryMagic is the container magic, exported so multi-format stores
	// (the artifact store) can sniff library containers without decoding.
	BinaryMagic = libraryMagic

	tagLibraryMeta       = 1
	tagLibraryCheckpoint = 2
	tagLibraryPage       = 3
	tagLibraryIndex      = 4
	tagLibraryArray      = 5
)

// libraryMeta is the JSON meta frame of a binary library.
type libraryMeta struct {
	StrideOps uint64
	Count     int
}

// cacheArrayFrames is the number of cache arrays a library stores as raw
// frames per checkpoint.
const cacheArrayFrames = 6

// cacheArrays lists the cache arrays a library stores as raw frames, in
// frame order.
func (ck *Checkpoint) cacheArrays() [cacheArrayFrames]*[]uint64 {
	return [cacheArrayFrames]*[]uint64{&ck.L1I.Tags, &ck.L1I.LRU, &ck.L1D.Tags, &ck.L1D.LRU, &ck.L2.Tags, &ck.L2.LRU}
}

// Save writes the library to path on fsys (nil = the real filesystem) in
// the CRC-framed binary format. The write is crash-consistent (temp file +
// fsync + rename via faultinject.WriteAtomic): a crash leaves the previous
// library intact, never a torn one.
func (l *Library) Save(fsys faultinject.FS, path string) error {
	err := faultinject.WriteAtomic(fsys, path, 0o644, func(w io.Writer) error {
		bw, err := binenc.NewWriter(w, libraryMagic, libraryVersion)
		if err != nil {
			return err
		}
		meta, err := json.Marshal(libraryMeta{StrideOps: l.strideOps, Count: len(l.checkpoints)})
		if err != nil {
			return err
		}
		if err := bw.Frame(tagLibraryMeta, meta); err != nil {
			return err
		}
		ids := map[*int64]uint32{} // page number by first word's address
		var (
			index []uint32
			buf   bytes.Buffer
		)
		for _, ck := range l.checkpoints {
			index = index[:0]
			for _, page := range ck.Machine.Pages {
				id, ok := ids[&page[0]]
				if !ok {
					id = uint32(len(ids))
					ids[&page[0]] = id
					if err := bw.Frame(tagLibraryPage, binenc.WordBytes(page)); err != nil {
						return err
					}
				}
				index = append(index, id)
			}
			if err := bw.Frame(tagLibraryIndex, binenc.WordBytes(index)); err != nil {
				return err
			}
			for _, a := range ck.cacheArrays() {
				if err := bw.Frame(tagLibraryArray, binenc.WordBytes(*a)); err != nil {
					return err
				}
			}
			rest := *ck
			rest.Machine.Pages = nil
			for _, a := range rest.cacheArrays() {
				*a = nil
			}
			buf.Reset()
			if err := gob.NewEncoder(&buf).Encode(&rest); err != nil {
				return err
			}
			if err := bw.Frame(tagLibraryCheckpoint, buf.Bytes()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// Load reads a library written by Save from fsys (nil = the real
// filesystem). The file is mmapped on the real filesystem, and the loaded
// pages and cache arrays alias its bytes without a copy: nothing writes
// them, because Restore copies out of them. Decode failures, version skew
// and structural violations are reported as ErrCacheCorrupt so callers can
// delete the file and re-record; a missing file keeps its os error (check
// with os.IsNotExist).
func Load(fsys faultinject.FS, path string) (*Library, error) {
	data, err := binenc.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	lib, err := decodeBinaryLibrary(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	if err := lib.checkIntegrity(); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return lib, nil
}

func decodeBinaryLibrary(data []byte) (*Library, error) {
	r, version, err := binenc.NewReader(data, libraryMagic)
	if err != nil {
		return nil, err
	}
	if version != libraryVersion {
		return nil, pgsserrors.Corruptf("unsupported binary library version %d (want %d)", version, libraryVersion)
	}
	var (
		meta    libraryMeta
		gotMeta bool
		lib     Library
		pages   [][]int64
		// The checkpoint being assembled: its page table from the index
		// frame and the raw arrays that followed it.
		table  [][]int64
		arrays [][]uint64
	)
	for {
		tag, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		n := len(lib.checkpoints)
		switch tag {
		case tagLibraryMeta:
			if err := json.Unmarshal(payload, &meta); err != nil {
				return nil, pgsserrors.Corruptf("bad library meta frame: %v", err)
			}
			gotMeta = true
		case tagLibraryPage:
			page, err := binenc.Words[int64](payload)
			if err != nil {
				return nil, err
			}
			if len(page) == 0 || len(page) > cpu.PageWords {
				return nil, pgsserrors.Corruptf("page %d holds %d words", len(pages), len(page))
			}
			pages = append(pages, page)
		case tagLibraryIndex:
			if table != nil {
				return nil, pgsserrors.Corruptf("checkpoint %d: index frame before its state frame", n)
			}
			ids, err := binenc.Words[uint32](payload)
			if err != nil {
				return nil, err
			}
			table = make([][]int64, len(ids))
			for i, id := range ids {
				if int(id) >= len(pages) {
					return nil, pgsserrors.Corruptf("checkpoint %d: page id %d of %d", n, id, len(pages))
				}
				table[i] = pages[id]
				if i < len(ids)-1 && len(table[i]) != cpu.PageWords {
					return nil, pgsserrors.Corruptf("checkpoint %d: short page %d", n, i)
				}
			}
		case tagLibraryArray:
			if table == nil || len(arrays) == cacheArrayFrames {
				return nil, pgsserrors.Corruptf("checkpoint %d: unexpected array frame", n)
			}
			a, err := binenc.Words[uint64](payload)
			if err != nil {
				return nil, err
			}
			arrays = append(arrays, a)
		case tagLibraryCheckpoint:
			ck := new(Checkpoint)
			slots := ck.cacheArrays()
			if table == nil || len(arrays) != len(slots) {
				return nil, pgsserrors.Corruptf("checkpoint %d: state frame without its index and arrays", n)
			}
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(ck); err != nil {
				return nil, pgsserrors.Corruptf("checkpoint frame %d: %v", n, err)
			}
			ck.Machine.Pages = table
			for i, a := range slots {
				*a = arrays[i]
			}
			for _, cs := range []cache.State{ck.L1I, ck.L1D, ck.L2} {
				if len(cs.LRU) != len(cs.Tags) || len(cs.Dirty) != len(cs.Tags) {
					return nil, pgsserrors.Corruptf("checkpoint %d: cache arrays of %d/%d/%d lines",
						n, len(cs.Tags), len(cs.LRU), len(cs.Dirty))
				}
			}
			lib.checkpoints = append(lib.checkpoints, ck)
			table, arrays = nil, nil
		default:
			return nil, pgsserrors.Corruptf("unknown library frame tag %d", tag)
		}
	}
	if !gotMeta {
		return nil, pgsserrors.Corruptf("missing library meta frame")
	}
	if table != nil {
		return nil, pgsserrors.Corruptf("checkpoint %d has no state frame", len(lib.checkpoints))
	}
	if len(lib.checkpoints) != meta.Count {
		return nil, pgsserrors.Corruptf("library holds %d checkpoints, meta declares %d",
			len(lib.checkpoints), meta.Count)
	}
	lib.strideOps = meta.StrideOps
	return &lib, nil
}

// checkIntegrity verifies the structural invariants a healthy library
// satisfies: a positive stride, at least the op-0 checkpoint, and op
// positions strictly increasing from 0.
func (l *Library) checkIntegrity() error {
	if l.strideOps == 0 {
		return pgsserrors.Corruptf("library has zero stride")
	}
	if len(l.checkpoints) == 0 {
		return pgsserrors.Corruptf("library holds no checkpoints")
	}
	if l.checkpoints[0] == nil || l.checkpoints[0].Ops != 0 {
		return pgsserrors.Corruptf("library does not start at op 0")
	}
	for i := 1; i < len(l.checkpoints); i++ {
		if l.checkpoints[i] == nil {
			return pgsserrors.Corruptf("nil checkpoint at index %d", i)
		}
		if l.checkpoints[i].Ops <= l.checkpoints[i-1].Ops {
			return pgsserrors.Corruptf("checkpoint positions not increasing at index %d (%d after %d)",
				i, l.checkpoints[i].Ops, l.checkpoints[i-1].Ops)
		}
	}
	return nil
}
