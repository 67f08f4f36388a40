package profile

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/binenc"
	"pgss/internal/cpu"
	"pgss/internal/pgsserrors"
)

// FuzzProfileDecode drives the profile decoder with fuzzed frame sequences.
// Each input is a list of (tag, payload) frames that the harness re-frames
// with valid CRCs, as FuzzLibraryDecode does, so inputs get past the
// container's checksums to the checks behind them: the meta frame, the
// hash widths, the arenas' shapes and the row counts. Every input must
// either fail to load with ErrCacheCorrupt or load a profile that serves
// BBVSeries and MAVWindow without a panic.
func FuzzProfileDecode(f *testing.F) {
	seed := fuzzSeedProfile(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		var buf bytes.Buffer
		w, err := binenc.NewWriter(&buf, profileMagic, profileVersion)
		if err != nil {
			t.Fatal(err)
		}
		for len(in) >= 3 {
			tag, n := uint32(in[0]), int(in[1])|int(in[2])<<8
			in = in[3:]
			n = min(n, len(in))
			w.Frame(tag, in[:n])
			in = in[n:]
		}
		p, err := loadBytes(t, buf.Bytes())
		if err != nil {
			if !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
				t.Fatalf("LoadFS err = %v, want ErrCacheCorrupt", err)
			}
			return
		}
		if _, err := p.BBVSeries(p.BBVOps); err != nil {
			t.Fatalf("BBVSeries of a loaded profile: %v", err)
		}
		if p.HasMAV() {
			last := (p.TotalOps - 1) / p.BBVOps * p.BBVOps
			for _, start := range []uint64{0, last} {
				if _, err := readWindow(p.MAVWindowInto, p.MAVBits, start, p.BBVOps); err != nil {
					t.Fatalf("MAVWindowInto(%d) of a loaded profile: %v", start, err)
				}
			}
		}
	})
}

// fuzzSeedProfile records a small two-channel profile and returns it in
// FuzzProfileDecode's input encoding: each frame as tag (1 byte), payload
// length (2 bytes LE) and payload. Three-bit hashes keep the seed near
// 1.5 KB.
func fuzzSeedProfile(tb testing.TB) []byte {
	core, err := cpu.NewCore(cpu.MustNewMachine(memProgram(tb, 1500)), cpu.DefaultCoreConfig())
	if err != nil {
		tb.Fatal(err)
	}
	p, err := RecordContext(context.Background(), core, bbv.MustNewHash(3, 42),
		Config{FineOps: 1000, BBVOps: 2000, MAVBits: 3, MAVSeed: DefaultMAVSeed})
	if err != nil {
		tb.Fatal(err)
	}
	var saved bytes.Buffer
	if err := p.encodeBinary(&saved); err != nil {
		tb.Fatal(err)
	}
	r, _, err := binenc.NewReader(saved.Bytes(), profileMagic)
	if err != nil {
		tb.Fatal(err)
	}
	var seed []byte
	for {
		tag, payload, err := r.Next()
		if err == io.EOF {
			return seed
		}
		if err != nil {
			tb.Fatal(err)
		}
		if tag > 0xff || len(payload) > 0xffff {
			tb.Fatalf("seed frame tag %d, %d bytes: too large for the fuzz encoding", tag, len(payload))
		}
		seed = append(seed, byte(tag), byte(len(payload)), byte(len(payload)>>8))
		seed = append(seed, payload...)
	}
}
