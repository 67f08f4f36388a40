package checkpoint

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"

	"pgss/internal/binenc"
	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
)

// The opaque pipeline states ride inside Checkpoint.Timing (an interface
// field); gob needs their concrete types registered once.
func init() {
	gob.Register(cpu.TimingState{})
	gob.Register(cpu.OoOState{})
}

// On-disk binary library: a binenc container with the magic below. Frame 1
// is a JSON meta header; each following frame is one gob-encoded
// checkpoint. Checkpoints stay gob (their Timing field is an open interface
// union), but per-checkpoint framing means a corrupt or truncated tail is
// caught by CRC before gob ever sees it, and the meta count cross-checks
// that no frame went missing.
const (
	libraryMagic   = "PGSSCKPT"
	libraryVersion = 1

	// BinaryMagic is the container magic, exported so multi-format stores
	// (the artifact store) can sniff library containers without decoding.
	BinaryMagic = libraryMagic

	tagLibraryMeta       = 1
	tagLibraryCheckpoint = 2
)

// libraryMeta is the JSON meta frame of a binary library.
type libraryMeta struct {
	StrideOps uint64
	Count     int
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
		var buf bytes.Buffer
		for _, ck := range l.checkpoints {
			buf.Reset()
			if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
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
// filesystem). The file is mmapped on the real filesystem. Decode failures, version skew and
// structural violations are reported as ErrCacheCorrupt so callers can
// delete the file and re-record; a missing file keeps its os error (check
// with os.IsNotExist).
func Load(fsys faultinject.FS, path string) (*Library, error) {
	data, err := readLibraryBytes(fsys, path)
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

// readLibraryBytes loads the raw library file — mmapped on the real
// filesystem, through the FS seam otherwise (injected filesystems must
// observe every read for fault schedules to stay deterministic).
func readLibraryBytes(fsys faultinject.FS, path string) ([]byte, error) {
	if faultinject.IsOS(fsys) {
		return binenc.MapFile(path)
	}
	f, err := faultinject.Open(fsys, path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
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
	)
	for {
		tag, payload, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch tag {
		case tagLibraryMeta:
			if err := json.Unmarshal(payload, &meta); err != nil {
				return nil, pgsserrors.Corruptf("bad library meta frame: %v", err)
			}
			gotMeta = true
		case tagLibraryCheckpoint:
			var ck Checkpoint
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
				return nil, pgsserrors.Corruptf("checkpoint frame %d: %v", len(lib.checkpoints), err)
			}
			lib.checkpoints = append(lib.checkpoints, &ck)
		default:
			return nil, pgsserrors.Corruptf("unknown library frame tag %d", tag)
		}
	}
	if !gotMeta {
		return nil, pgsserrors.Corruptf("missing library meta frame")
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
