package cpu

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/branch"
	"pgss/internal/cache"
	"pgss/internal/isa"
	"pgss/internal/program"
)

// Shape of the programs FuzzRunFastForward decodes.
const (
	fuzzMaxInsts  = 64
	fuzzDataWords = 64
	fuzzInstBytes = 8 // opcode, three registers, 32-bit immediate
)

// fuzzProgram decodes data into a program of up to fuzzMaxInsts
// instructions followed by a HALT, fuzzInstBytes bytes an instruction.
// Every valid opcode but HALT can appear, with any registers. Static
// control targets wrap into the code; memory immediates wrap into
// ±2 data segments of byte offsets, so accesses off GP land in, below and
// above the fuzzDataWords-word segment (and wrap), and other base registers
// reach anywhere. Data word w starts as w, so loaded values make small
// jump targets and addresses.
func fuzzProgram(data []byte) *program.Program {
	n := min(len(data)/fuzzInstBytes, fuzzMaxInsts)
	code := make([]isa.Inst, n+1)
	for i := range n {
		b := data[i*fuzzInstBytes : (i+1)*fuzzInstBytes]
		in := isa.Inst{
			Op:   isa.Opcode(b[0] % uint8(isa.HALT)),
			Dst:  isa.Reg(b[1] % isa.NumRegs),
			Src1: isa.Reg(b[2] % isa.NumRegs),
			Src2: isa.Reg(b[3] % isa.NumRegs),
			Imm:  int64(int32(binary.LittleEndian.Uint32(b[4:]))),
		}
		switch {
		case in.Op.IsControl() && in.Op != isa.JR:
			in.Imm = int64(uint32(in.Imm) % uint32(len(code)))
		case in.Op.IsMem():
			in.Imm %= 2 * fuzzDataWords * 8
		}
		code[i] = in
	}
	code[n] = isa.Inst{Op: isa.HALT}
	words := make([]int64, fuzzDataWords)
	for w := range words {
		words[w] = int64(w)
	}
	return &program.Program{Name: "fuzz", Code: code, Data: words}
}

// fuzzEncode is fuzzProgram's inverse for in-range fields, to write seeds.
func fuzzEncode(insts ...isa.Inst) []byte {
	var out []byte
	for _, in := range insts {
		out = append(out, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2))
		out = binary.LittleEndian.AppendUint32(out, uint32(int32(in.Imm)))
	}
	return out
}

// fuzzCoreConfig gives the warming cores FuzzRunFastForward compares
// caches small enough that the fuzz programs evict lines from every level,
// with an L1I of one set of two lineBytes-byte ways: any program longer
// than two lines evicts from it. The predictor tables are small too, so
// branches alias and calls overflow the return stack.
func fuzzCoreConfig(lineBytes int) CoreConfig {
	cfg := DefaultCoreConfig()
	cfg.Hierarchy.L1I = cache.Config{Name: "L1I", SizeBytes: 2 * lineBytes, Ways: 2, LineBytes: lineBytes}
	cfg.Hierarchy.L1D = cache.Config{Name: "L1D", SizeBytes: 128, Ways: 2, LineBytes: 16}
	cfg.Hierarchy.L2 = cache.Config{Name: "L2", SizeBytes: 512, Ways: 2, LineBytes: 32}
	cfg.Branch = branch.Config{Predictor: "gshare", Entries: 64, HistoryBits: 6, BTBEntries: 16, RASDepth: 4}
	return cfg
}

// FuzzRunFastForward checks both fast-forward modes of Core.Run against
// per-op stepping on arbitrary programs: plain fast-forward against
// StepFF, and functional warming against StepWarm on small-cache cores
// (fuzzCoreConfig) with L1I lines of 16, 32, 64 and 128 bytes. It runs
// each decoded program in cuts of 0 to 1,000 ops, up to a few thousand ops
// (programs may loop forever), and after every cut compares the ops
// retired, the architectural state (archDiff) and the period's raw BBV and
// MAV under per-op tracker updates; for warming it also compares every
// cache's State (LRU stamps included), the memory-access count, the
// branch unit and the pipeline, which warming leaves untouched
// (microDiff). At the end it compares the data images.
func FuzzRunFastForward(f *testing.F) {
	const maxOps = 4_000
	cuts := []uint64{1, 0, 7, 64, 3, 200, 2, 33, 1000}
	hash := bbv.MustNewHash(bbv.DefaultHashBits, 42)
	mavHash := bbv.MustNewMAVHash(bbv.DefaultMAVBits, 42)

	f.Add([]byte{})
	// A counted loop that stores, reloads and shifts by 40 and 33.
	f.Add(fuzzEncode(
		isa.Inst{Op: isa.ADDI, Dst: isa.T0, Src1: isa.Zero, Imm: 50},
		isa.Inst{Op: isa.ADDI, Dst: isa.T2, Src1: isa.Zero, Imm: 40},
		isa.Inst{Op: isa.ST, Src1: isa.GP, Src2: isa.T0, Imm: 8},
		isa.Inst{Op: isa.LD, Dst: isa.T1, Src1: isa.GP, Imm: 8},
		isa.Inst{Op: isa.SLL, Dst: isa.T3, Src1: isa.T1, Src2: isa.T2},
		isa.Inst{Op: isa.SRLI, Dst: isa.T4, Src1: isa.T3, Imm: 33},
		isa.Inst{Op: isa.ADDI, Dst: isa.T0, Src1: isa.T0, Imm: -1},
		isa.Inst{Op: isa.BNE, Src1: isa.T0, Src2: isa.Zero, Imm: 2},
	))
	// A call and return, then a jump through a loaded word.
	f.Add(fuzzEncode(
		isa.Inst{Op: isa.JAL, Dst: isa.RA, Imm: 3},
		isa.Inst{Op: isa.LD, Dst: isa.T0, Src1: isa.GP, Imm: 5 * 8},
		isa.Inst{Op: isa.JR, Src1: isa.T0},
		isa.Inst{Op: isa.ADDI, Dst: isa.T1, Src1: isa.T1, Imm: 1},
		isa.Inst{Op: isa.JR, Src1: isa.RA},
		isa.Inst{Op: isa.BLT, Src1: isa.T1, Src2: isa.T0, Imm: 0},
	))
	// Wrapped accesses below and above the segment, one loading to r0.
	f.Add(fuzzEncode(
		isa.Inst{Op: isa.LD, Dst: isa.Zero, Src1: isa.GP, Imm: -1000},
		isa.Inst{Op: isa.ST, Src1: isa.GP, Src2: isa.GP, Imm: 1000},
		isa.Inst{Op: isa.DIV, Dst: isa.T0, Src1: isa.GP, Src2: isa.Zero},
		isa.Inst{Op: isa.JMP, Imm: 0},
	))

	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		if err := p.Validate(); err != nil {
			t.Fatalf("decoded program is invalid: %v", err)
		}
		type pair struct {
			name     string
			ref, got *Core
			mode     Mode
			step     func(*Core, *Retired) bool
		}
		// Plain fast-forward touches only the machine, so its cores carry
		// no caches, predictor or timing model: a Run that reached for
		// them would panic.
		pairs := []pair{{"ff", &Core{M: MustNewMachine(p)}, &Core{M: MustNewMachine(p)}, FastForward, (*Core).StepFF}}
		for _, line := range []int{16, 32, 64, 128} {
			var cores [2]*Core
			for k := range cores {
				c, err := NewCore(MustNewMachine(p), fuzzCoreConfig(line))
				if err != nil {
					t.Fatal(err)
				}
				cores[k] = c
			}
			pairs = append(pairs, pair{fmt.Sprintf("warm, %d-byte lines", line), cores[0], cores[1], FunctionalWarming, (*Core).StepWarm})
		}
		for _, pr := range pairs {
			ref, got := pr.ref, pr.got
			tr1, tr2 := bbv.NewTracker(hash), bbv.NewTracker(hash)
			mav1, mav2 := bbv.NewMAVTracker(mavHash), bbv.NewMAVTracker(mavHash)
			for i := 0; !got.M.Halted() && got.M.Retired() < maxOps; i++ {
				n := cuts[(i+len(data))%len(cuts)]
				want := perOpRun(ref, n, pr.step, tr1, mav1)
				if ops := got.Run(n, pr.mode, tr2, mav2); ops != want {
					t.Fatalf("%s, cut %d: Run retired %d of %d, per-op %d", pr.name, i, ops, n, want)
				}
				if d := archDiff(ref.M, got.M); d != "" {
					t.Fatalf("%s, cut %d: per-op / Run %s", pr.name, i, d)
				}
				if pr.mode == FunctionalWarming {
					if d := microDiff(snapshotMicro(ref), snapshotMicro(got)); d != "" {
						t.Fatalf("%s, cut %d: Run's %s differs from per-op stepping's", pr.name, i, d)
					}
				}
				if d := periodDiff(tr1, tr2, mav1, mav2); d != "" {
					t.Fatalf("%s, cut %d: per-op / Run %s", pr.name, i, d)
				}
			}
			if !slices.Equal(ref.M.data, got.M.data) {
				t.Fatalf("%s: data images per-op %v, Run %v", pr.name, ref.M.data, got.M.data)
			}
		}
	})
}
