package cpu

import (
	"fmt"
	"sync"

	"pgss/internal/isa"
	"pgss/internal/pgsserrors"
	"pgss/internal/program"
)

// This file implements the decode-once superblock interpreter: the batched
// fast path behind Machine.StepBlock. A program is pre-decoded once into a
// progImage whose instructions carry their architectural address and whose
// ctrlAt table marks, for every pc, the first control-flow point at or after
// it. StepBlock then retires whole straight-line runs in a tight loop that
// never re-decodes, never tests for redirects, and only falls back to the
// general single-step path at block terminators (branches, jumps, HALT).
//
// The retirement stream, architectural state and halt/error semantics are
// bit-identical to repeated Machine.Step calls; TestStepBlockDifferential
// enforces that record by record.

// decoded is one pre-decoded instruction: the isa.Inst fields plus the
// architectural address, so the hot loop never calls program.AddrOf.
type decoded struct {
	op   isa.Opcode
	dst  isa.Reg
	s1   isa.Reg
	s2   isa.Reg
	imm  int64
	addr uint64
}

// progImage is the dispatch-ready form of a program.
type progImage struct {
	insts []decoded
	// ctrlAt[pc] is the index of the first block terminator at or after pc:
	// a control instruction, HALT, or an invalid opcode (anything the
	// straight-line loop cannot retire). len(insts) when none remains, so
	// [pc, ctrlAt[pc]) is always a safe straight-line run.
	ctrlAt []int32
}

func buildImage(p *program.Program) *progImage {
	code := p.Code
	img := &progImage{
		insts:  make([]decoded, len(code)),
		ctrlAt: make([]int32, len(code)),
	}
	term := int32(len(code))
	for pc := len(code) - 1; pc >= 0; pc-- {
		in := &code[pc]
		img.insts[pc] = decoded{
			op:   in.Op,
			dst:  in.Dst,
			s1:   in.Src1,
			s2:   in.Src2,
			imm:  in.Imm,
			addr: program.AddrOf(pc),
		}
		if in.Op.IsControl() || in.Op == isa.HALT || !in.Op.Valid() {
			term = int32(pc)
		}
		img.ctrlAt[pc] = term
	}
	return img
}

// imageCacheCap bounds the per-program image cache. Campaigns and the
// validation harness build thousands of distinct programs over a process
// lifetime; a bounded FIFO keeps the cache from growing with them. Machines
// pin their own image, so eviction only ever costs a re-decode.
const imageCacheCap = 64

var (
	imageMu    sync.Mutex
	imageCache = map[*program.Program]*progImage{}
	imageFIFO  []*program.Program
)

// imageOf returns the decoded image for p, building and caching it on first
// use. Programs are immutable after construction, so identity caching by
// pointer is sound.
func imageOf(p *program.Program) *progImage {
	imageMu.Lock()
	defer imageMu.Unlock()
	if img, ok := imageCache[p]; ok {
		return img
	}
	img := buildImage(p)
	if len(imageFIFO) >= imageCacheCap {
		delete(imageCache, imageFIFO[0])
		imageFIFO = append(imageFIFO[:0], imageFIFO[1:]...)
	}
	imageCache[p] = img
	imageFIFO = append(imageFIFO, p)
	return img
}

// StepBlock executes up to len(out) instructions, filling out[:n] with their
// retire records, and returns n. It is exactly equivalent to calling Step
// len(out) times: same records, same architectural state, same halt and
// error behaviour (a HALT record is emitted; wild jumps and invalid opcodes
// halt without a record). n < len(out) only when the machine halted.
//
// Records are canonical: fields that do not apply to an instruction
// (MemAddr, TargetAddr, ReturnAddr) are zeroed, where Step leaves stale
// values in the caller's reused record. Consumers read those fields only
// behind their guard flag or opcode class, so the streams are
// semantically identical; the differential tests compare against a
// zero-initialised per-op reference.
func (m *Machine) StepBlock(out []Retired) int {
	if m.halted || len(out) == 0 {
		return 0
	}
	img := m.img
	if img == nil {
		img = imageOf(m.prog)
		m.img = img
	}
	insts := img.insts
	ctrlAt := img.ctrlAt
	pc := m.pc
	n := 0
	for n < len(out) {
		if pc < 0 || pc >= len(insts) {
			m.halted = true
			m.err = fmt.Errorf("cpu: pc %d: %w", pc, ErrWildJump)
			break
		}
		// Straight-line run: every instruction in [pc, stop) is a
		// non-control ALU/memory op, so the loop skips all redirect,
		// taken-branch and halt handling.
		stop := int(ctrlAt[pc])
		if lim := pc + (len(out) - n); lim < stop {
			stop = lim
		}
		for pc < stop {
			in := &insts[pc]
			r := &out[n]
			r.PC = pc
			r.Addr = in.addr
			r.Op = in.op
			r.Dst = in.dst
			r.Src1 = in.s1
			r.Src2 = in.s2
			r.MemAddr = 0
			r.Taken = false
			r.TargetAddr = 0
			r.ReturnAddr = 0
			r.IsCall = false
			r.IsReturn = false
			switch in.op {
			case isa.NOP:
			case isa.ADD:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] + m.regs[in.s2]
				}
			case isa.SUB:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] - m.regs[in.s2]
				}
			case isa.AND:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] & m.regs[in.s2]
				}
			case isa.OR:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] | m.regs[in.s2]
				}
			case isa.XOR:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] ^ m.regs[in.s2]
				}
			case isa.SLL:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] << (uint64(m.regs[in.s2]) & 63)
				}
			case isa.SRL:
				if in.dst != isa.Zero {
					m.regs[in.dst] = int64(uint64(m.regs[in.s1]) >> (uint64(m.regs[in.s2]) & 63))
				}
			case isa.SLT:
				if in.dst != isa.Zero {
					m.regs[in.dst] = boolToInt(m.regs[in.s1] < m.regs[in.s2])
				}
			case isa.ADDI:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] + in.imm
				}
			case isa.ANDI:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] & in.imm
				}
			case isa.ORI:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] | in.imm
				}
			case isa.XORI:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] ^ in.imm
				}
			case isa.SLLI:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] << (uint64(in.imm) & 63)
				}
			case isa.SRLI:
				if in.dst != isa.Zero {
					m.regs[in.dst] = int64(uint64(m.regs[in.s1]) >> (uint64(in.imm) & 63))
				}
			case isa.SLTI:
				if in.dst != isa.Zero {
					m.regs[in.dst] = boolToInt(m.regs[in.s1] < in.imm)
				}
			case isa.LUI:
				if in.dst != isa.Zero {
					m.regs[in.dst] = in.imm << 16
				}
			case isa.MUL:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] * m.regs[in.s2]
				}
			case isa.DIV, isa.FDIV:
				d := m.regs[in.s2]
				v := int64(-1)
				if d != 0 {
					v = m.regs[in.s1] / d
				}
				if in.dst != isa.Zero {
					m.regs[in.dst] = v
				}
			case isa.FADD:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] + m.regs[in.s2]
				}
			case isa.FMUL:
				if in.dst != isa.Zero {
					m.regs[in.dst] = m.regs[in.s1] * m.regs[in.s2]
				}
			case isa.LD:
				addr := uint64(m.regs[in.s1] + in.imm)
				r.MemAddr = addr
				// The load (and any wild-access accounting) happens even
				// when the destination is r0, matching Step.
				v := m.data[m.wordIndex(addr)]
				if in.dst != isa.Zero {
					m.regs[in.dst] = v
				}
			case isa.ST:
				addr := uint64(m.regs[in.s1] + in.imm)
				r.MemAddr = addr
				w := m.wordIndex(addr)
				m.data[w] = m.regs[in.s2]
				m.dirty[w/PageWords] = true
			}
			pc++
			n++
		}
		if n == len(out) {
			break
		}
		if pc >= len(insts) {
			continue // ran off the code image: the loop top raises ErrWildJump
		}
		// pc sits on the block terminator; resolve it on the general path.
		in := &insts[pc]
		r := &out[n]
		r.PC = pc
		r.Addr = in.addr
		r.Op = in.op
		r.Dst = in.dst
		r.Src1 = in.s1
		r.Src2 = in.s2
		r.MemAddr = 0
		r.Taken = false
		r.TargetAddr = 0
		r.ReturnAddr = 0
		r.IsCall = false
		r.IsReturn = false
		next := pc + 1
		switch in.op {
		case isa.BEQ:
			r.Taken = m.regs[in.s1] == m.regs[in.s2]
		case isa.BNE:
			r.Taken = m.regs[in.s1] != m.regs[in.s2]
		case isa.BLT:
			r.Taken = m.regs[in.s1] < m.regs[in.s2]
		case isa.BGE:
			r.Taken = m.regs[in.s1] >= m.regs[in.s2]
		case isa.JMP:
			r.Taken = true
			next = int(in.imm)
		case isa.JAL:
			r.Taken = true
			r.IsCall = true
			r.ReturnAddr = program.AddrOf(pc + 1)
			if in.dst != isa.Zero {
				m.regs[in.dst] = int64(pc + 1)
			}
			next = int(in.imm)
		case isa.JR:
			r.Taken = true
			r.IsReturn = in.s1 == isa.RA
			next = int(m.regs[in.s1])
		case isa.HALT:
			m.halted = true
			m.pc = pc
			m.retired += uint64(n + 1)
			return n + 1
		default:
			m.halted = true
			m.err = pgsserrors.Invalidf("cpu: pc %d: unknown opcode %v", pc, in.op)
			m.pc = pc
			m.retired += uint64(n)
			return n
		}
		if r.Taken && in.op.IsBranch() {
			next = int(in.imm)
		}
		if r.Taken {
			r.TargetAddr = program.AddrOf(next)
		}
		pc = next
		n++
	}
	m.pc = pc
	m.retired += uint64(n)
	return n
}
