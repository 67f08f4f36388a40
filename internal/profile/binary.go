package profile

import (
	"encoding/json"
	"io"

	"pgss/internal/bbv"
	"pgss/internal/binenc"
	"pgss/internal/pgsserrors"
)

// On-disk binary profile: a binenc container with the magic below. Frame 1
// carries the scalar header as JSON (small, and schema drift degrades to a
// readable corruption error instead of silent misdecoding); frame 2 the
// fine-interval cycle counts as little-endian []uint32; frame 3 every raw
// BBV flattened into one little-endian []float64 arena; frame 4 (version 2,
// present only when the profile carries the channel) the raw MAV arena laid
// out the same way. On little-endian hosts a loaded profile's Cycles,
// RawBBVs and RawMAVs alias the read (or mmapped) file bytes directly — the
// O(1) warm-start path campaigns use. Only the current version decodes;
// anything else is reported as corruption and re-recorded.
const (
	profileMagic   = "PGSSPROF"
	profileVersion = 2

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
	width := 0
	if len(p.RawBBVs) > 0 {
		width = len(p.RawBBVs[0])
	}
	mavWidth := 0
	if len(p.RawMAVs) > 0 {
		mavWidth = len(p.RawMAVs[0])
	}
	meta, err := json.Marshal(profileMeta{
		Benchmark:   p.Benchmark,
		HashBits:    p.HashBits,
		FineOps:     p.FineOps,
		BBVOps:      p.BBVOps,
		TotalOps:    p.TotalOps,
		TotalCycles: p.TotalCycles,
		TailOps:     p.TailOps,
		BBVWidth:    width,
		MAVBits:     p.MAVBits,
		MAVWidth:    mavWidth,
	})
	if err != nil {
		return err
	}
	bw, err := binenc.NewWriter(w, profileMagic, profileVersion)
	if err != nil {
		return err
	}
	if err := bw.Frame(tagProfileMeta, meta); err != nil {
		return err
	}
	if err := bw.Frame(tagProfileCycles, binenc.WordBytes(p.Cycles)); err != nil {
		return err
	}
	// Flatten the BBVs into one arena. Freshly recorded profiles already
	// back them with a contiguous arena, but loaded or hand-built ones may
	// not; the copy runs once per save, off every hot path.
	arena := make([]float64, 0, len(p.RawBBVs)*width)
	for _, v := range p.RawBBVs {
		arena = append(arena, v...)
	}
	if err := bw.Frame(tagProfileBBVs, binenc.WordBytes(arena)); err != nil {
		return err
	}
	if mavWidth > 0 {
		mavArena := make([]float64, 0, len(p.RawMAVs)*mavWidth)
		for _, v := range p.RawMAVs {
			mavArena = append(mavArena, v...)
		}
		if err := bw.Frame(tagProfileMAVs, binenc.WordBytes(mavArena)); err != nil {
			return err
		}
	}
	return nil
}

// decodeBinary rebuilds a profile from container bytes. Cycles, RawBBVs and
// RawMAVs alias data on little-endian hosts; treat all as immutable.
func decodeBinary(data []byte) (*Profile, error) {
	r, version, err := binenc.NewReader(data, profileMagic)
	if err != nil {
		return nil, err
	}
	if version != profileVersion {
		return nil, pgsserrors.Corruptf("profile: unsupported binary version %d (want %d)", version, profileVersion)
	}
	var (
		meta     profileMeta
		gotMeta  bool
		p        Profile
		arena    []float64
		mavArena []float64
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
			if arena, err = binenc.Words[float64](payload); err != nil {
				return nil, err
			}
		case tagProfileMAVs:
			if mavArena, err = binenc.Words[float64](payload); err != nil {
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
	width := meta.BBVWidth
	if width <= 0 || len(arena)%width != 0 {
		return nil, pgsserrors.Corruptf("profile: %d-float BBV arena not divisible by width %d", len(arena), width)
	}
	p.RawBBVs = make([]bbv.Vector, 0, len(arena)/width)
	for off := 0; off < len(arena); off += width {
		p.RawBBVs = append(p.RawBBVs, bbv.Vector(arena[off:off+width:off+width]))
	}
	if len(mavArena) > 0 || meta.MAVWidth > 0 {
		mw := meta.MAVWidth
		if mw <= 0 || len(mavArena)%mw != 0 {
			return nil, pgsserrors.Corruptf("profile: %d-float MAV arena not divisible by width %d", len(mavArena), mw)
		}
		p.RawMAVs = make([]bbv.Vector, 0, len(mavArena)/mw)
		for off := 0; off < len(mavArena); off += mw {
			p.RawMAVs = append(p.RawMAVs, bbv.Vector(mavArena[off:off+mw:off+mw]))
		}
	}
	return &p, nil
}
