package profile

import (
	"encoding/json"
	"fmt"
	"io"

	"pgss/internal/bbv"
	"pgss/internal/binenc"
	"pgss/internal/pgsserrors"
)

// On-disk binary profile: a binenc container with the magic below. Frame 1
// carries the scalar header as JSON (small, and schema drift degrades to a
// readable corruption error instead of silent misdecoding); frame 2 the
// fine-interval cycle counts as little-endian []uint32; frame 3 the BBV
// running sums as one little-endian []float64 arena of n+1 rows of
// 1<<HashBits floats, where n = ⌈TotalOps/BBVOps⌉ and row 0 is zero (see
// Profile); frame 4, present only when the profile carries the channel, the
// MAV running sums laid out the same way with rows of 1<<MAVBits floats.
// On little-endian hosts a loaded profile's cycles and running sums alias
// the read (or mmapped) file bytes directly — the O(1) warm-start path
// campaigns use. Only the current version (3) decodes; anything else,
// including version 2's raw per-interval vectors, is reported as corruption
// and re-recorded.
const (
	profileMagic   = "PGSSPROF"
	profileVersion = 3

	// BinaryMagic is the container magic, exported so multi-format stores
	// (the artifact store) can sniff profile containers without decoding.
	BinaryMagic = profileMagic

	tagProfileMeta   = 1
	tagProfileCycles = 2
	tagProfileBBVs   = 3
	tagProfileMAVs   = 4
)

// profileMeta is the scalar part of a Profile, JSON-encoded in the meta
// frame. BBVWidth/MAVWidth are redundant with HashBits/MAVBits but let the
// decoder validate the arenas before touching them.
type profileMeta struct {
	Benchmark   string
	HashBits    int
	FineOps     uint64
	BBVOps      uint64
	TotalOps    uint64
	TotalCycles uint64
	TailOps     uint64
	BBVWidth    int
	MAVBits     int `json:",omitempty"`
	MAVWidth    int `json:",omitempty"`
}

// encodeBinary writes the binary form of p to w.
func (p *Profile) encodeBinary(w io.Writer) error {
	meta := profileMeta{
		Benchmark:   p.Benchmark,
		HashBits:    p.HashBits,
		FineOps:     p.FineOps,
		BBVOps:      p.BBVOps,
		TotalOps:    p.TotalOps,
		TotalCycles: p.TotalCycles,
		TailOps:     p.TailOps,
		BBVWidth:    1 << p.HashBits,
		MAVBits:     p.MAVBits,
	}
	if p.HasMAV() {
		meta.MAVWidth = 1 << p.MAVBits
	}
	js, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	bw, err := binenc.NewWriter(w, profileMagic, profileVersion)
	if err != nil {
		return err
	}
	// Frame errors are sticky: bw.Err reports the first one at the end.
	bw.Frame(tagProfileMeta, js)
	bw.Frame(tagProfileCycles, binenc.WordBytes(p.Cycles))
	bw.Frame(tagProfileBBVs, binenc.WordBytes(p.bbvRows))
	if p.HasMAV() {
		bw.Frame(tagProfileMAVs, binenc.WordBytes(p.mavRows))
	}
	return bw.Err()
}

// decodeBinary rebuilds a profile from container bytes. Cycles and the
// running sums alias data on little-endian hosts; treat all as immutable.
// It checks each declared row width against its hash width;
// CheckIntegrity checks the rows.
func decodeBinary(data []byte) (*Profile, error) {
	r, version, err := binenc.NewReader(data, profileMagic)
	if err != nil {
		return nil, err
	}
	if version != profileVersion {
		return nil, pgsserrors.Corruptf("profile: unsupported binary version %d (want %d)", version, profileVersion)
	}
	var (
		meta    profileMeta
		gotMeta bool
		p       Profile
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
		case tagProfileMeta:
			if err := json.Unmarshal(payload, &meta); err != nil {
				return nil, pgsserrors.Corruptf("profile: bad meta frame: %v", err)
			}
			gotMeta = true
		case tagProfileCycles:
			if p.Cycles, err = binenc.Words[uint32](payload); err != nil {
				return nil, err
			}
		case tagProfileBBVs:
			if p.bbvRows, err = binenc.Words[float64](payload); err != nil {
				return nil, err
			}
		case tagProfileMAVs:
			if p.mavRows, err = binenc.Words[float64](payload); err != nil {
				return nil, err
			}
		default:
			// Unknown frames from same-version writers are corruption, not
			// forward compatibility — the version field covers that.
			return nil, pgsserrors.Corruptf("profile: unknown frame tag %d", tag)
		}
	}
	if !gotMeta {
		return nil, pgsserrors.Corruptf("profile: missing meta frame")
	}
	p.Benchmark = meta.Benchmark
	p.HashBits = meta.HashBits
	p.FineOps = meta.FineOps
	p.BBVOps = meta.BBVOps
	p.TotalOps = meta.TotalOps
	p.TotalCycles = meta.TotalCycles
	p.TailOps = meta.TailOps
	p.MAVBits = meta.MAVBits
	if err := checkWidth("BBV", p.HashBits, bbv.MaxHashBits, meta.BBVWidth); err != nil {
		return nil, err
	}
	if meta.MAVBits != 0 || meta.MAVWidth != 0 {
		if err := checkWidth("MAV", p.MAVBits, bbv.MaxMAVBits, meta.MAVWidth); err != nil {
			return nil, err
		}
	}
	return &p, nil
}

// checkWidth checks a channel's declared row width against 1<<bits, once
// bits is known to lie in [1, maxBits].
func checkWidth(channel string, bits, maxBits, width int) error {
	want, err := rowWidth(channel, bits, maxBits)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	if width != want {
		return pgsserrors.Corruptf("profile: %s rows %d wide, want %d for %d bits", channel, width, want, bits)
	}
	return nil
}
