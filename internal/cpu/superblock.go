package cpu

import (
	"fmt"

	"pgss/internal/bbv"
	"pgss/internal/cache"
	"pgss/internal/isa"
	"pgss/internal/pgsserrors"
	"pgss/internal/program"
)

// This file implements the superblock interpreter: the batched fast paths
// behind Machine.StepBlock, plain fast-forward (runFF) and functional
// warming (runWarm). Machine.Reset derives one table from the program's
// code: blockEnd marks, for every pc, the first control-flow point at or
// after it. All three loops retire whole straight-line runs in a tight
// loop that never tests for redirects, and resolve the block terminators
// (branches, jumps, HALT) on their own path.
//
// The retirement stream, architectural state and halt/error semantics are
// bit-identical to repeated Machine.Step calls; TestStepBlockDifferential
// enforces that record by record for StepBlock. TestRunDifferential and
// FuzzRunFastForward compare runFF's and runWarm's state and tracker
// charges with per-op stepping, and runWarm's cache and branch-unit state
// with per-op StepWarm.

// blockEnds returns, for every pc, the index of the first block terminator
// at or after it: a control instruction, HALT, or an invalid opcode
// (anything the straight-line loop cannot retire). It is len(code) when
// none remains, so [pc, blockEnd[pc]) is always a safe straight-line run.
func blockEnds(code []isa.Inst) []int32 {
	ends := make([]int32, len(code))
	end := int32(len(code))
	for pc := len(code) - 1; pc >= 0; pc-- {
		if op := code[pc].Op; op.IsControl() || op == isa.HALT || !op.Valid() {
			end = int32(pc)
		}
		ends[pc] = end
	}
	return ends
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
	code := m.code
	blockEnd := m.blockEnd
	pc := m.pc
	n := 0
	for n < len(out) {
		if pc < 0 || pc >= len(code) {
			m.halted = true
			m.err = fmt.Errorf("cpu: pc %d: %w", pc, ErrWildJump)
			break
		}
		// Straight-line run: every instruction in [pc, stop) is a
		// non-control ALU/memory op, so the loop skips all redirect,
		// taken-branch and halt handling.
		stop := int(blockEnd[pc])
		if lim := pc + (len(out) - n); lim < stop {
			stop = lim
		}
		for pc < stop {
			in := &code[pc]
			r := &out[n]
			r.PC = pc
			r.Addr = program.AddrOf(pc)
			r.Op = in.Op
			r.Dst = in.Dst
			r.Src1 = in.Src1
			r.Src2 = in.Src2
			r.MemAddr = 0
			r.Taken = false
			r.TargetAddr = 0
			r.ReturnAddr = 0
			r.IsCall = false
			r.IsReturn = false
			switch in.Op {
			case isa.NOP:
			case isa.ADD:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] + m.regs[in.Src2]
				}
			case isa.SUB:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] - m.regs[in.Src2]
				}
			case isa.AND:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] & m.regs[in.Src2]
				}
			case isa.OR:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] | m.regs[in.Src2]
				}
			case isa.XOR:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] ^ m.regs[in.Src2]
				}
			case isa.SLL:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] << (uint64(m.regs[in.Src2]) & 63)
				}
			case isa.SRL:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = int64(uint64(m.regs[in.Src1]) >> (uint64(m.regs[in.Src2]) & 63))
				}
			case isa.SLT:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = boolToInt(m.regs[in.Src1] < m.regs[in.Src2])
				}
			case isa.ADDI:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] + in.Imm
				}
			case isa.ANDI:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] & in.Imm
				}
			case isa.ORI:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] | in.Imm
				}
			case isa.XORI:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] ^ in.Imm
				}
			case isa.SLLI:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] << (uint64(in.Imm) & 63)
				}
			case isa.SRLI:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = int64(uint64(m.regs[in.Src1]) >> (uint64(in.Imm) & 63))
				}
			case isa.SLTI:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = boolToInt(m.regs[in.Src1] < in.Imm)
				}
			case isa.LUI:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = in.Imm << 16
				}
			case isa.MUL:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] * m.regs[in.Src2]
				}
			case isa.DIV, isa.FDIV:
				d := m.regs[in.Src2]
				v := int64(-1)
				if d != 0 {
					v = m.regs[in.Src1] / d
				}
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = v
				}
			case isa.FADD:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] + m.regs[in.Src2]
				}
			case isa.FMUL:
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = m.regs[in.Src1] * m.regs[in.Src2]
				}
			case isa.LD:
				addr := uint64(m.regs[in.Src1] + in.Imm)
				r.MemAddr = addr
				// The load (and any wild-access accounting) happens even
				// when the destination is r0, matching Step.
				v := m.data[m.wordIndex(addr)]
				if in.Dst != isa.Zero {
					m.regs[in.Dst] = v
				}
			case isa.ST:
				addr := uint64(m.regs[in.Src1] + in.Imm)
				r.MemAddr = addr
				w := m.wordIndex(addr)
				m.data[w] = m.regs[in.Src2]
				m.dirty[w/PageWords] = true
			}
			pc++
			n++
		}
		if n == len(out) {
			break
		}
		if pc >= len(code) {
			continue // ran off the code image: the loop top raises ErrWildJump
		}
		// pc sits on the block terminator; resolve it on the general path.
		in := &code[pc]
		r := &out[n]
		r.PC = pc
		r.Addr = program.AddrOf(pc)
		r.Op = in.Op
		r.Dst = in.Dst
		r.Src1 = in.Src1
		r.Src2 = in.Src2
		r.MemAddr = 0
		r.Taken = false
		r.TargetAddr = 0
		r.ReturnAddr = 0
		r.IsCall = false
		r.IsReturn = false
		next := pc + 1
		switch in.Op {
		case isa.BEQ:
			r.Taken = m.regs[in.Src1] == m.regs[in.Src2]
		case isa.BNE:
			r.Taken = m.regs[in.Src1] != m.regs[in.Src2]
		case isa.BLT:
			r.Taken = m.regs[in.Src1] < m.regs[in.Src2]
		case isa.BGE:
			r.Taken = m.regs[in.Src1] >= m.regs[in.Src2]
		case isa.JMP:
			r.Taken = true
			next = int(in.Imm)
		case isa.JAL:
			r.Taken = true
			r.IsCall = true
			r.ReturnAddr = program.AddrOf(pc + 1)
			if in.Dst != isa.Zero {
				m.regs[in.Dst] = int64(pc + 1)
			}
			next = int(in.Imm)
		case isa.JR:
			r.Taken = true
			r.IsReturn = in.Src1 == isa.RA
			next = int(m.regs[in.Src1])
		case isa.HALT:
			m.halted = true
			m.pc = pc
			m.retired += uint64(n + 1)
			return n + 1
		default:
			m.halted = true
			m.err = pgsserrors.Invalidf("cpu: pc %d: unknown opcode %v", pc, in.Op)
			m.pc = pc
			m.retired += uint64(n)
			return n
		}
		if r.Taken && in.Op.IsBranch() {
			next = int(in.Imm)
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

// runFF executes up to n instructions architecturally, exactly as n Step
// calls would, but writes no retire records: it is plain fast-forward's
// own loop, with StepBlock's straight-line/terminator structure. It feeds
// the trackers directly: at every taken branch it charges t the ops since
// the previous taken branch (the branch included) and then the branch's
// address, and it hands every LD and ST address to mav. Either tracker may
// be nil. The ops since the last taken branch are charged with RetireOps
// at return and stay pending in t. It returns the ops retired, fewer than
// n only when the machine halted.
//
// StepBlock keeps serving detailed simulation, which needs every record,
// and runWarm warms without records. The loops stay apart: a per-op "write
// records?" test in one shared loop slowed fast-forward, and filling the
// records in a second pass slowed the record modes. Step is the reference
// all three are tested against.
func (m *Machine) runFF(n uint64, t *bbv.Tracker, mav *bbv.MAVTracker) uint64 {
	if m.halted {
		return 0
	}
	code := m.code
	blockEnd := m.blockEnd
	regs := &m.regs
	pc := m.pc
	var done, charged uint64
loop:
	for done < n {
		if pc < 0 || pc >= len(code) {
			m.halted = true
			m.err = fmt.Errorf("cpu: pc %d: %w", pc, ErrWildJump)
			break
		}
		stop := int(blockEnd[pc])
		if left := n - done; uint64(stop-pc) > left {
			stop = pc + int(left)
		}
		done += uint64(stop - pc)
		for ; pc < stop; pc++ {
			in := &code[pc]
			switch in.Op {
			case isa.NOP:
			case isa.ADD:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] + regs[in.Src2]
				}
			case isa.SUB:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] - regs[in.Src2]
				}
			case isa.AND:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] & regs[in.Src2]
				}
			case isa.OR:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] | regs[in.Src2]
				}
			case isa.XOR:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] ^ regs[in.Src2]
				}
			case isa.SLL:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] << (uint64(regs[in.Src2]) & 63)
				}
			case isa.SRL:
				if in.Dst != isa.Zero {
					regs[in.Dst] = int64(uint64(regs[in.Src1]) >> (uint64(regs[in.Src2]) & 63))
				}
			case isa.SLT:
				if in.Dst != isa.Zero {
					regs[in.Dst] = boolToInt(regs[in.Src1] < regs[in.Src2])
				}
			case isa.ADDI:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] + in.Imm
				}
			case isa.ANDI:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] & in.Imm
				}
			case isa.ORI:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] | in.Imm
				}
			case isa.XORI:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] ^ in.Imm
				}
			case isa.SLLI:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] << (uint64(in.Imm) & 63)
				}
			case isa.SRLI:
				if in.Dst != isa.Zero {
					regs[in.Dst] = int64(uint64(regs[in.Src1]) >> (uint64(in.Imm) & 63))
				}
			case isa.SLTI:
				if in.Dst != isa.Zero {
					regs[in.Dst] = boolToInt(regs[in.Src1] < in.Imm)
				}
			case isa.LUI:
				if in.Dst != isa.Zero {
					regs[in.Dst] = in.Imm << 16
				}
			case isa.MUL:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] * regs[in.Src2]
				}
			case isa.DIV, isa.FDIV:
				d := regs[in.Src2]
				v := int64(-1)
				if d != 0 {
					v = regs[in.Src1] / d
				}
				if in.Dst != isa.Zero {
					regs[in.Dst] = v
				}
			case isa.FADD:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] + regs[in.Src2]
				}
			case isa.FMUL:
				if in.Dst != isa.Zero {
					regs[in.Dst] = regs[in.Src1] * regs[in.Src2]
				}
			case isa.LD:
				addr := uint64(regs[in.Src1] + in.Imm)
				if mav != nil {
					mav.Access(addr)
				}
				// The load (and any wild-access accounting) happens even
				// when the destination is r0, matching Step.
				v := m.data[m.wordIndex(addr)]
				if in.Dst != isa.Zero {
					regs[in.Dst] = v
				}
			case isa.ST:
				addr := uint64(regs[in.Src1] + in.Imm)
				if mav != nil {
					mav.Access(addr)
				}
				w := m.wordIndex(addr)
				m.data[w] = regs[in.Src2]
				m.dirty[w/PageWords] = true
			}
		}
		if done == n {
			break
		}
		if pc >= len(code) {
			continue // ran off the code image: the loop top raises ErrWildJump
		}
		// pc sits on the block terminator.
		in := &code[pc]
		next := pc + 1
		var taken bool
		switch in.Op {
		case isa.BEQ:
			taken = regs[in.Src1] == regs[in.Src2]
		case isa.BNE:
			taken = regs[in.Src1] != regs[in.Src2]
		case isa.BLT:
			taken = regs[in.Src1] < regs[in.Src2]
		case isa.BGE:
			taken = regs[in.Src1] >= regs[in.Src2]
		case isa.JMP:
			taken = true
		case isa.JAL:
			taken = true
			if in.Dst != isa.Zero {
				regs[in.Dst] = int64(pc + 1)
			}
		case isa.JR:
			taken = true
			next = int(regs[in.Src1])
		case isa.HALT:
			m.halted = true
			done++
			break loop
		default:
			m.halted = true
			m.err = pgsserrors.Invalidf("cpu: pc %d: unknown opcode %v", pc, in.Op)
			break loop
		}
		done++
		if taken {
			if in.Op != isa.JR {
				next = int(in.Imm)
			}
			if t != nil {
				t.RetireOps(done - charged)
				t.TakenBranch(program.AddrOf(pc))
			}
			charged = done
		}
		pc = next
	}
	m.pc = pc
	m.retired += done
	if t != nil {
		t.RetireOps(done - charged)
	}
	return done
}

// runWarm is functional warming's loop. It executes and charges the
// trackers exactly as runFF does, and warms the caches and the branch unit
// exactly as n StepWarm calls would, writing no retire records. Per op it
// fetches the instruction through the L1I, then accesses the L1D for an LD
// or ST (through L2 on a miss), then trains the branch unit on a branch or
// jump.
//
// It fetches through the L1I once per run of consecutive ops in one line,
// with the line size of the core's L1I: it splits straight-line runs into
// line segments, and a segment or terminator in the line fetched last is
// counted, not fetched. Those ops all hit: only the core's own fetches
// touch the L1I, so the line stays resident, and a hit never reaches L2.
// cache.Hits charges them when the run ends, which leaves every cache's
// State bit-identical to fetching op by op.
//
// Warming does not share runFF's loop: on a prototype with one loop and a
// mode test per line segment, memory op and terminator, fast-forward ran
// 2–16% slower. Nor does it warm from StepBlock's records: fetching once
// per line run there too, that path took 1.2–2.4× as long per op and did
// not reliably speed up live-phased runs (DESIGN.md).
func (c *Core) runWarm(n uint64, t *bbv.Tracker, mav *bbv.MAVTracker) uint64 {
	m := c.M
	if m.halted {
		return 0
	}
	hier, bp := c.Hier, c.BP
	lineMask := ^uint64(hier.L1I.LineBytes() - 1)
	code := m.code
	blockEnd := m.blockEnd
	regs := &m.regs
	pc := m.pc
	// line is the address of the line last fetched plus one (0 before the
	// first fetch); hits counts the later ops of its run, not yet charged.
	var line, hits uint64
	var done, charged uint64
loop:
	for done < n {
		if pc < 0 || pc >= len(code) {
			m.halted = true
			m.err = fmt.Errorf("cpu: pc %d: %w", pc, ErrWildJump)
			break
		}
		stop := int(blockEnd[pc])
		if left := n - done; uint64(stop-pc) > left {
			stop = pc + int(left)
		}
		done += uint64(stop - pc)
		for pc < stop {
			// A line segment: the ops of [pc, stop) that start in pc's line.
			iaddr := program.AddrOf(pc)
			left := (iaddr | ^lineMask) + 1 - iaddr // bytes to the line's end
			seg := min(stop, pc+int((left+isa.InstBytes-1)/isa.InstBytes))
			if iaddr&lineMask+1 != line {
				line = fetchLine(hier, iaddr, lineMask, line, hits)
				hits = uint64(seg - pc - 1)
			} else {
				hits += uint64(seg - pc)
			}
			for ; pc < seg; pc++ {
				in := &code[pc]
				switch in.Op {
				case isa.NOP:
				case isa.ADD:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] + regs[in.Src2]
					}
				case isa.SUB:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] - regs[in.Src2]
					}
				case isa.AND:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] & regs[in.Src2]
					}
				case isa.OR:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] | regs[in.Src2]
					}
				case isa.XOR:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] ^ regs[in.Src2]
					}
				case isa.SLL:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] << (uint64(regs[in.Src2]) & 63)
					}
				case isa.SRL:
					if in.Dst != isa.Zero {
						regs[in.Dst] = int64(uint64(regs[in.Src1]) >> (uint64(regs[in.Src2]) & 63))
					}
				case isa.SLT:
					if in.Dst != isa.Zero {
						regs[in.Dst] = boolToInt(regs[in.Src1] < regs[in.Src2])
					}
				case isa.ADDI:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] + in.Imm
					}
				case isa.ANDI:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] & in.Imm
					}
				case isa.ORI:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] | in.Imm
					}
				case isa.XORI:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] ^ in.Imm
					}
				case isa.SLLI:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] << (uint64(in.Imm) & 63)
					}
				case isa.SRLI:
					if in.Dst != isa.Zero {
						regs[in.Dst] = int64(uint64(regs[in.Src1]) >> (uint64(in.Imm) & 63))
					}
				case isa.SLTI:
					if in.Dst != isa.Zero {
						regs[in.Dst] = boolToInt(regs[in.Src1] < in.Imm)
					}
				case isa.LUI:
					if in.Dst != isa.Zero {
						regs[in.Dst] = in.Imm << 16
					}
				case isa.MUL:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] * regs[in.Src2]
					}
				case isa.DIV, isa.FDIV:
					d := regs[in.Src2]
					v := int64(-1)
					if d != 0 {
						v = regs[in.Src1] / d
					}
					if in.Dst != isa.Zero {
						regs[in.Dst] = v
					}
				case isa.FADD:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] + regs[in.Src2]
					}
				case isa.FMUL:
					if in.Dst != isa.Zero {
						regs[in.Dst] = regs[in.Src1] * regs[in.Src2]
					}
				case isa.LD:
					addr := uint64(regs[in.Src1] + in.Imm)
					if mav != nil {
						mav.Access(addr)
					}
					// The load (and any wild-access accounting) happens even
					// when the destination is r0, matching Step.
					v := m.data[m.wordIndex(addr)]
					if in.Dst != isa.Zero {
						regs[in.Dst] = v
					}
					hier.Load(addr)
				case isa.ST:
					addr := uint64(regs[in.Src1] + in.Imm)
					if mav != nil {
						mav.Access(addr)
					}
					w := m.wordIndex(addr)
					m.data[w] = regs[in.Src2]
					m.dirty[w/PageWords] = true
					hier.Store(addr)
				}
			}
		}
		if done == n {
			break
		}
		if pc >= len(code) {
			continue // ran off the code image: the loop top raises ErrWildJump
		}
		// pc sits on the block terminator.
		in := &code[pc]
		next := pc + 1
		var taken bool
		switch in.Op {
		case isa.BEQ:
			taken = regs[in.Src1] == regs[in.Src2]
		case isa.BNE:
			taken = regs[in.Src1] != regs[in.Src2]
		case isa.BLT:
			taken = regs[in.Src1] < regs[in.Src2]
		case isa.BGE:
			taken = regs[in.Src1] >= regs[in.Src2]
		case isa.JMP:
			taken = true
		case isa.JAL:
			taken = true
			if in.Dst != isa.Zero {
				regs[in.Dst] = int64(pc + 1)
			}
		case isa.JR:
			taken = true
			next = int(regs[in.Src1])
		case isa.HALT:
			m.halted = true
		default:
			m.halted = true
			m.err = pgsserrors.Invalidf("cpu: pc %d: unknown opcode %v", pc, in.Op)
			break loop
		}
		done++
		addr := program.AddrOf(pc)
		if addr&lineMask+1 != line {
			line = fetchLine(hier, addr, lineMask, line, hits)
			hits = 0
		} else {
			hits++
		}
		if m.halted {
			break // HALT retires and is fetched, like any op
		}
		if taken && in.Op != isa.JR {
			next = int(in.Imm)
		}
		// The branch unit reads the target only of a taken branch.
		target := program.AddrOf(next)
		switch {
		case in.Op == isa.JMP:
			bp.Jump(addr, target)
		case in.Op == isa.JAL:
			bp.Call(addr, target, program.AddrOf(pc+1))
		case in.Op == isa.JR && in.Src1 == isa.RA:
			bp.Return(addr, target)
		case in.Op == isa.JR:
			bp.Indirect(addr, target)
		default:
			bp.Branch(addr, taken, target)
		}
		if taken {
			if t != nil {
				t.RetireOps(done - charged)
				t.TakenBranch(addr)
			}
			charged = done
		}
		pc = next
	}
	hier.L1I.Hits(line-1, hits)
	m.pc = pc
	m.retired += done
	if t != nil {
		t.RetireOps(done - charged)
	}
	return done
}

// fetchLine charges the hits pending on the line last fetched (line is
// its address plus one), fetches addr through the L1I, and returns addr's
// line plus one.
func fetchLine(h *cache.Hierarchy, addr, lineMask, line, hits uint64) uint64 {
	h.L1I.Hits(line-1, hits)
	h.Fetch(addr)
	return addr&lineMask + 1
}
