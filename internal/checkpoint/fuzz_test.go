package checkpoint

import (
	"errors"
	"io"
	"testing"

	"pgss/internal/binenc"
	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/isa"
	"pgss/internal/pgsserrors"
	"pgss/internal/program"
	"pgss/internal/workload"
)

// FuzzCheckpointResume fuzzes the random-access position of Seek and checks
// the live-point guarantee: restoring the nearest checkpoint and warming
// forward to a position is indistinguishable from having simulated to that
// position continuously. Both cores then run a short detailed sample and
// must retire the identical instruction stream with identical timing. A
// library recorded to a third of the run is sought too, first to a second
// position derived from the input and then to the fuzzed one, so its warm
// seeks past the last recorded checkpoint extend its tail and may start
// from it.
func FuzzCheckpointResume(f *testing.F) {
	const (
		totalOps = 60_000
		stride   = 10_000
		sample   = 1_500
	)
	spec, err := workload.Get("197.parser")
	if err != nil {
		f.Fatal(err)
	}
	prog, err := spec.Build(totalOps)
	if err != nil {
		f.Fatal(err)
	}
	newCore := func(t *testing.T) *cpu.Core {
		t.Helper()
		c, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	rec, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		f.Fatal(err)
	}
	lib, err := Record(rec, stride, 0)
	if err != nil {
		f.Fatal(err)
	}
	end := rec.M.Retired()

	f.Add(uint32(0))
	f.Add(uint32(1))
	f.Add(uint32(stride - 1))
	f.Add(uint32(stride + 1))
	f.Add(uint32(3*stride + 777))
	f.Add(uint32(end - sample - 1))

	f.Fuzz(func(t *testing.T, posRaw uint32) {
		// Leave room for the detailed sample after the seek position.
		pos := uint64(posRaw) % (end - sample)
		short, err := Record(newCore(t), stride, end/3)
		if err != nil {
			t.Fatal(err)
		}
		seeked := newCore(t)
		for _, s := range []struct {
			lib *Library
			pos uint64
		}{
			{lib, pos},
			{short, uint64(posRaw*0x9E3779B9) % (end - sample)},
			{short, pos},
		} {
			// A seek that starts from a checkpoint within a stride steps
			// less than two strides; one past the tail's end warms on to
			// its position.
			bounded := s.pos-s.lib.Nearest(s.pos).Ops < stride
			warmOps, err := s.lib.Seek(seeked, s.pos, cpu.FunctionalWarming)
			if err != nil {
				t.Fatalf("Seek(%d): %v", s.pos, err)
			}
			if got := seeked.M.Retired(); got != s.pos {
				t.Fatalf("Seek(%d) landed at %d", s.pos, got)
			}
			if bounded && warmOps >= stride+s.lib.StrideOps() {
				t.Fatalf("Seek(%d) warmed %d ops, more than a full stride past a checkpoint", s.pos, warmOps)
			}

			cont := newCore(t)
			var r cpu.Retired
			for cont.M.Retired() < s.pos {
				if !cont.StepWarm(&r) {
					t.Fatalf("program ended at %d before position %d", cont.M.Retired(), s.pos)
				}
			}

			// Both cores now claim to be "the simulator at op pos". Run the
			// same detailed sample on each; the retire streams and timing
			// must match bit for bit.
			runSample(t, seeked, cont, sample)
		}
	})
}

// runSample steps both cores through n detailed ops and fails on the first
// divergence in the retire stream, the cycle count, or architectural state.
func runSample(t *testing.T, a, b *cpu.Core, n int) {
	t.Helper()
	aStart, bStart := a.T.Cycle(), b.T.Cycle()
	var ra, rb cpu.Retired
	for i := 0; i < n; i++ {
		oka, okb := a.StepDetailed(&ra), b.StepDetailed(&rb)
		if oka != okb {
			t.Fatalf("op %d: one core halted (seeked=%v continuous=%v)", i, oka, okb)
		}
		if !oka {
			break
		}
		if ra != rb {
			t.Fatalf("op %d: retire streams diverged: seeked %+v, continuous %+v", i, ra, rb)
		}
	}
	if ac, bc := a.T.Cycle()-aStart, b.T.Cycle()-bStart; ac != bc {
		t.Fatalf("sample cycles diverged: seeked %d, continuous %d", ac, bc)
	}
	if a.M.Retired() != b.M.Retired() {
		t.Fatalf("retired counts diverged: %d vs %d", a.M.Retired(), b.M.Retired())
	}
	for _, reg := range []isa.Reg{1, 5, 20, 31} {
		if av, bv := a.M.Reg(reg), b.M.Reg(reg); av != bv {
			t.Fatalf("register r%d diverged: %d vs %d", reg, av, bv)
		}
	}
}

// FuzzLibraryDecode drives the library decoder with fuzzed frame sequences.
// Each input is a list of (tag, payload) frames that the harness re-frames
// with valid CRCs, so inputs get past the container's checksums to the
// checks behind them: frame order and count, page ids, page and array
// lengths, dirty bytes and the state frame's length. Every input must
// either fail to load with ErrCacheCorrupt or load a library whose
// checkpoints all restore into a core of the seed program without a panic;
// a restore may still refuse a checkpoint with an error.
func FuzzLibraryDecode(f *testing.F) {
	seed, newCore := fuzzSeedLibrary(f)
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		loadAndRestore(t, in, newCore)
	})
}

// fuzzSeedLibrary records a small library and returns it in
// FuzzLibraryDecode's input encoding: each frame as tag (1 byte), payload
// length (2 bytes LE) and payload. The fuzzer minimises every new input it
// finds, at a cost that grows with the input's size, so the seed is kept
// to about 3 KB: two checkpoints of a program with an 8-word data image,
// on a core with one-set caches and tiny predictor tables.
func fuzzSeedLibrary(tb testing.TB) ([]byte, func(testing.TB) *cpu.Core) {
	saved, newCore := smallLibrary(tb)
	r, _, err := binenc.NewReader(saved, libraryMagic)
	if err != nil {
		tb.Fatal(err)
	}
	var seed []byte
	for {
		tag, payload, err := r.Next()
		if err == io.EOF {
			return seed, newCore
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

// smallLibrary records the library behind fuzzSeedLibrary and returns its
// saved container with the constructor of the cores it restores into.
func smallLibrary(tb testing.TB) ([]byte, func(testing.TB) *cpu.Core) {
	b := program.NewBuilder("fuzz-seed")
	b.AllocData(8)
	b.LoadImm(isa.T1, 0)
	b.LoadImm(isa.T2, 8*8)
	b.Label("loop")
	b.Op(isa.ADD, isa.T4, isa.GP, isa.T1)
	b.Load(isa.T5, isa.T4, 0)
	b.OpI(isa.ADDI, isa.T5, isa.T5, 1)
	b.Store(isa.T5, isa.T4, 0)
	b.OpI(isa.ADDI, isa.T1, isa.T1, 3*8)
	b.Branch(isa.BLT, isa.T1, isa.T2, "loop")
	b.Op(isa.SUB, isa.T1, isa.T1, isa.T2)
	b.Jump("loop")
	prog, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	cfg := cpu.DefaultCoreConfig()
	cfg.Hierarchy.L1I.SizeBytes = 256
	cfg.Hierarchy.L1D.SizeBytes = 256
	cfg.Hierarchy.L2.SizeBytes = 512
	cfg.Branch.Entries, cfg.Branch.HistoryBits, cfg.Branch.BTBEntries, cfg.Branch.RASDepth = 64, 6, 16, 4
	newCore := func(tb testing.TB) *cpu.Core {
		c, err := cpu.NewCore(cpu.MustNewMachine(prog), cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return c
	}
	lib, err := Record(newCore(tb), 2_000, 2_000)
	if err != nil {
		tb.Fatal(err)
	}
	mem := faultinject.NewMemFS()
	if err := lib.Save(mem, "seed.ckpt"); err != nil {
		tb.Fatal(err)
	}
	saved, err := mem.ReadFile("seed.ckpt")
	if err != nil {
		tb.Fatal(err)
	}
	return saved, newCore
}

// loadAndRestore re-frames a FuzzLibraryDecode input into a library
// container with valid CRCs (a short last frame takes what is left),
// loads it, and restores every checkpoint it holds into one fresh core.
func loadAndRestore(t *testing.T, in []byte, newCore func(testing.TB) *cpu.Core) {
	var buf memBuffer
	w, err := binenc.NewWriter(&buf, libraryMagic, libraryVersion)
	if err != nil {
		t.Fatal(err)
	}
	for len(in) >= 3 {
		tag, n := uint32(in[0]), int(in[1])|int(in[2])<<8
		in = in[3:]
		n = min(n, len(in))
		if err := w.Frame(tag, in[:n]); err != nil {
			t.Fatal(err)
		}
		in = in[n:]
	}
	fsys := faultinject.NewMemFS()
	writeRaw(t, fsys, "fuzz.ckpt", buf.data)
	lib, err := Load(fsys, "fuzz.ckpt")
	if err != nil {
		if !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
			t.Fatalf("Load err = %v, want ErrCacheCorrupt", err)
		}
		return
	}
	c := newCore(t)
	for _, ck := range lib.checkpoints {
		_ = ck.Restore(c) // may refuse; must not panic
	}
}
