package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"pgss/internal/binenc"
	"pgss/internal/cache"
	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/isa"
	"pgss/internal/pgsserrors"
)

// On-disk binary library: a binenc container with the magic below. Frame 1
// is a JSON meta header. Each checkpoint then writes, in order:
//
//   - one raw page frame ([]int64) for every data page no earlier
//     checkpoint of the library shares, numbered from 0 in file order;
//   - an index frame ([]uint32): the page number of each of its pages;
//   - nine word frames ([]uint64), in wordArrays order: the Tags and LRU
//     arrays of L1I, L1D and L2, then the branch unit's BTBTags,
//     BTBTargets and RASStack;
//   - four byte frames: the Dirty arrays of L1I, L1D and L2, one byte (0
//     or 1) a line, then the branch unit's DirCounters;
//   - a state frame ([]uint64) of stateWords words: every scalar of the
//     checkpoint, in the order scalars lists them.
//
// Load aliases pages, arrays and counters from the file's bytes, so
// checkpoints that share a page in memory share it on disk and after
// loading, and decoding allocates only the checkpoint and its page table.
// Any change to this layout needs a new libraryVersion. Per-frame CRCs
// catch a corrupt or truncated tail, the decoder checks the frame order
// within each checkpoint, and the meta count cross-checks that no
// checkpoint went missing.
const (
	libraryMagic   = "PGSSCKPT"
	libraryVersion = 3

	// BinaryMagic is the container magic, exported so multi-format stores
	// (the artifact store) can sniff library containers without decoding.
	BinaryMagic = libraryMagic

	tagLibraryMeta  = 1
	tagLibraryState = 2
	tagLibraryPage  = 3
	tagLibraryIndex = 4
	tagLibraryWords = 5
	tagLibraryBytes = 6
)

// libraryMeta is the JSON meta frame of a binary library.
type libraryMeta struct {
	StrideOps uint64
	Count     int
}

const (
	// wordFrames and byteFrames count a checkpoint's word and byte frames.
	wordFrames = 9
	byteFrames = 4
	// stateWords is the length of a state frame: Ops, the machine's
	// registers and 4 scalars, the timing model's ready times and 4
	// scalars, 5 words per cache, 7 for the branch unit and MemAccesses.
	stateWords = 1 + (isa.NumRegs + 4) + (isa.NumRegs + 4) + 3*5 + 7 + 1
)

// wordArrays lists the arrays a library stores as word frames, in frame
// order.
func (ck *Checkpoint) wordArrays() [wordFrames]*[]uint64 {
	return [wordFrames]*[]uint64{
		&ck.L1I.Tags, &ck.L1I.LRU, &ck.L1D.Tags, &ck.L1D.LRU, &ck.L2.Tags, &ck.L2.LRU,
		&ck.Branch.BTBTags, &ck.Branch.BTBTargets, &ck.Branch.RASStack,
	}
}

// caches lists the checkpoint's cache states; their Dirty arrays are the
// first byte frames, in this order.
func (ck *Checkpoint) caches() [3]*cache.State {
	return [3]*cache.State{&ck.L1I, &ck.L1D, &ck.L2}
}

// scalarCodec moves a checkpoint's scalars to or from a state frame: Save
// appends each to words, Load (load set) takes each from the front of
// words. Its methods are concrete so that the field pointers scalars
// passes them stay off the heap.
type scalarCodec struct {
	words []uint64
	load  bool
}

func (c *scalarCodec) u64(ps ...*uint64) {
	for _, p := range ps {
		if c.load {
			*p, c.words = c.words[0], c.words[1:]
		} else {
			c.words = append(c.words, *p)
		}
	}
}

func (c *scalarCodec) int(ps ...*int) {
	for _, p := range ps {
		w := uint64(*p)
		c.u64(&w)
		*p = int(w)
	}
}

func (c *scalarCodec) bool(p *bool) {
	var w uint64
	if *p {
		w = 1
	}
	c.u64(&w)
	*p = w != 0
}

// scalars moves every scalar of ck through c in state-frame order. Save
// and Load both call it, so the order is written once.
func (ck *Checkpoint) scalars(c *scalarCodec) {
	m, t, b := &ck.Machine, &ck.Timing, &ck.Branch
	c.u64(&ck.Ops)
	for i := range m.Regs {
		w := uint64(m.Regs[i])
		c.u64(&w)
		m.Regs[i] = int64(w)
	}
	c.int(&m.PC)
	c.u64(&m.Retired)
	c.bool(&m.Halted)
	c.u64(&m.WildAccesses)
	for i := range t.ReadyAt {
		c.u64(&t.ReadyAt[i])
	}
	c.u64(&t.LastIssue)
	c.int(&t.Slots)
	c.u64(&t.FEReady, &t.LastLine)
	for _, cs := range ck.caches() {
		c.u64(&cs.Clock, &cs.Stats.Accesses, &cs.Stats.Misses, &cs.Stats.Evictions, &cs.Stats.Writebacks)
	}
	c.u64(&b.DirHistory)
	c.int(&b.RASTop, &b.RASDepth)
	c.u64(&b.Stats.Branches, &b.Stats.Mispredicts, &b.Stats.TargetMisses, &b.Stats.IndirectJumps)
	c.u64(&ck.MemAccesses)
}

// Save writes the library to path on fsys (nil = the real filesystem) in
// the CRC-framed binary format. The write is crash-consistent (temp file +
// fsync + rename via faultinject.WriteAtomic): a crash leaves the previous
// library intact, never a torn one. It writes the recorded checkpoints
// only, never the tail that seeks added (Seek), so seeking a library
// leaves its bytes unchanged.
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
		// Frame errors are sticky: bw.Err reports the first one at the end.
		bw.Frame(tagLibraryMeta, meta)
		ids := map[*int64]uint32{} // page number by first word's address
		var (
			index []uint32
			state = scalarCodec{words: make([]uint64, 0, stateWords)}
		)
		for _, ck := range l.checkpoints {
			index = index[:0]
			for _, page := range ck.Machine.Pages {
				id, ok := ids[&page[0]]
				if !ok {
					id = uint32(len(ids))
					ids[&page[0]] = id
					bw.Frame(tagLibraryPage, binenc.WordBytes(page))
				}
				index = append(index, id)
			}
			bw.Frame(tagLibraryIndex, binenc.WordBytes(index))
			for _, a := range ck.wordArrays() {
				bw.Frame(tagLibraryWords, binenc.WordBytes(*a))
			}
			for _, cs := range ck.caches() {
				bw.Frame(tagLibraryBytes, binenc.BoolBytes(cs.Dirty))
			}
			bw.Frame(tagLibraryBytes, ck.Branch.DirCounters)
			state.words = state.words[:0]
			ck.scalars(&state)
			bw.Frame(tagLibraryState, binenc.WordBytes(state.words))
		}
		return bw.Err()
	})
	if err != nil {
		return fmt.Errorf("checkpoint: save: %w", err)
	}
	return nil
}

// Load reads a library written by Save from fsys (nil = the real
// filesystem). The file is mmapped on the real filesystem, and the loaded
// pages, arrays and counters alias its bytes without a copy: nothing
// writes them, because Restore copies out of them. A loaded library keeps
// the mapping for the rest of the process; a file that fails to load is
// unmapped before Load returns. Decode failures, version skew and
// structural violations are reported as ErrCacheCorrupt so callers can
// delete the file and re-record; a missing file keeps its os error (check
// with os.IsNotExist).
func Load(fsys faultinject.FS, path string) (*Library, error) {
	return load(fsys, path, true)
}

// Check loads and checks the library at path like Load, then unmaps the
// file: for callers that audit a library without keeping it.
func Check(fsys faultinject.FS, path string) error {
	_, err := load(fsys, path, false)
	return err
}

func load(fsys faultinject.FS, path string, keep bool) (*Library, error) {
	data, release, err := binenc.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	lib, err := decodeBinaryLibrary(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, errors.Join(err, release()))
	}
	if !keep {
		return nil, release()
	}
	return lib, nil
}

// decodeBinaryLibrary decodes and checks a library whose arrays alias data.
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
		// The checkpoint being assembled from its index frame on, and how
		// many of its word and byte frames have been read.
		ck             *Checkpoint
		nWords, nBytes int
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
			if ck != nil {
				return nil, pgsserrors.Corruptf("checkpoint %d: index frame before its state frame", n)
			}
			ids, err := binenc.Words[uint32](payload)
			if err != nil {
				return nil, err
			}
			ck = new(Checkpoint)
			table := make([][]int64, len(ids))
			for i, id := range ids {
				if int(id) >= len(pages) {
					return nil, pgsserrors.Corruptf("checkpoint %d: page id %d of %d", n, id, len(pages))
				}
				table[i] = pages[id]
				if i < len(ids)-1 && len(table[i]) != cpu.PageWords {
					return nil, pgsserrors.Corruptf("checkpoint %d: short page %d", n, i)
				}
			}
			ck.Machine.Pages = table
		case tagLibraryWords:
			if ck == nil || nWords == wordFrames {
				return nil, pgsserrors.Corruptf("checkpoint %d: unexpected word frame", n)
			}
			a, err := binenc.Words[uint64](payload)
			if err != nil {
				return nil, err
			}
			*ck.wordArrays()[nWords] = a
			nWords++
		case tagLibraryBytes:
			if ck == nil || nWords != wordFrames || nBytes == byteFrames {
				return nil, pgsserrors.Corruptf("checkpoint %d: unexpected byte frame", n)
			}
			if cs := ck.caches(); nBytes < len(cs) {
				if cs[nBytes].Dirty, err = binenc.Bools(payload); err != nil {
					return nil, fmt.Errorf("checkpoint %d: dirty flags: %w", n, err)
				}
			} else {
				ck.Branch.DirCounters = payload
			}
			nBytes++
		case tagLibraryState:
			if ck == nil || nBytes != byteFrames {
				return nil, pgsserrors.Corruptf("checkpoint %d: state frame without its index, word and byte frames", n)
			}
			words, err := binenc.Words[uint64](payload)
			if err != nil {
				return nil, err
			}
			if len(words) != stateWords {
				return nil, pgsserrors.Corruptf("checkpoint %d: state frame of %d words, want %d", n, len(words), stateWords)
			}
			ck.scalars(&scalarCodec{words: words, load: true})
			for _, cs := range ck.caches() {
				if len(cs.LRU) != len(cs.Tags) || len(cs.Dirty) != len(cs.Tags) {
					return nil, pgsserrors.Corruptf("checkpoint %d: cache arrays of %d/%d/%d lines",
						n, len(cs.Tags), len(cs.LRU), len(cs.Dirty))
				}
			}
			lib.checkpoints = append(lib.checkpoints, ck)
			ck, nWords, nBytes = nil, 0, 0
		default:
			return nil, pgsserrors.Corruptf("unknown library frame tag %d", tag)
		}
	}
	if !gotMeta {
		return nil, pgsserrors.Corruptf("missing library meta frame")
	}
	if ck != nil {
		return nil, pgsserrors.Corruptf("checkpoint %d has no state frame", len(lib.checkpoints))
	}
	if len(lib.checkpoints) != meta.Count {
		return nil, pgsserrors.Corruptf("library holds %d checkpoints, meta declares %d",
			len(lib.checkpoints), meta.Count)
	}
	lib.strideOps = meta.StrideOps
	return &lib, lib.checkIntegrity()
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
