// Package cpu implements the simulated processor: a functional interpreter
// of the ISA (package isa) and a cycle-accurate timing model of a 4-wide
// in-order superscalar core attached to the cache hierarchy (package cache)
// and branch prediction unit (package branch) — the configuration used by
// the paper's evaluation (§5).
//
// The interpreter (Machine) owns all architectural state. It steps over a
// flat data image, and snapshots hold that image as a table of immutable
// PageWords-word pages: a snapshot copies only the pages stored to and
// changed since the machine's previous snapshot or restore, and shares the
// rest with it; a restore copies only the pages that differ from what the
// machine holds. Machine.Step is the per-op reference. Three batched loops
// retire whole straight-line runs at a time (superblock.go): StepBlock
// writes a retire record per op for detailed simulation; plain
// fast-forward's loop and functional warming's loop write none and feed
// the BBV and MAV trackers directly, and the warming loop also warms the
// caches and branch unit as it goes. The timing model (Timing) consumes
// the retire stream and owns all microarchitectural state. Core
// combines them and exposes the three execution modes every
// sampled-simulation technique is built from: plain fast-forward,
// functional warming, and detailed simulation (the values of Mode, which
// the stepping kernel Core.Run takes).
package cpu

import (
	"fmt"
	"slices"

	"pgss/internal/isa"
	"pgss/internal/pgsserrors"
	"pgss/internal/program"
)

// Retired describes one retired instruction: everything the timing model,
// warming machinery and BBV tracker need to know about it.
type Retired struct {
	PC   int    // instruction index
	Addr uint64 // architectural instruction address

	Op   isa.Opcode
	Dst  isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg

	MemAddr uint64 // byte address, valid when Op.IsMem()

	// Control-flow resolution, valid when Op.IsControl().
	Taken      bool
	TargetAddr uint64
	ReturnAddr uint64 // for calls: the link address
	IsCall     bool
	IsReturn   bool
}

// ErrWildJump is wrapped by Machine errors for computed jumps that leave
// the code image. Like a static jump out of the code, which
// program.Validate rejects, it marks a malformed program.
var ErrWildJump = pgsserrors.Invalidf("jump target outside code image")

// Machine is the functional interpreter: registers, data memory and PC.
type Machine struct {
	prog *program.Program
	code []isa.Inst
	// blockEnd holds, per pc, the end of its straight-line run (see
	// blockEnds); Reset derives it from code.
	blockEnd []int32

	regs [isa.NumRegs]int64
	data []int64
	// pages is the page table of the last Snapshot or Restore (nil after
	// Reset). Every page whose dirty flag is clear holds the same words in
	// data, so Snapshot can share it and Restore can skip it.
	pages [][]int64
	dirty []bool // one flag per page, set by stores

	pc      int
	retired uint64
	halted  bool
	err     error

	// WildAccesses counts data accesses that fell outside the data segment
	// and were wrapped; nonzero values indicate a workload bug.
	WildAccesses uint64
}

// NewMachine builds the architectural state for prog and resets it.
func NewMachine(prog *program.Program) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{prog: prog}
	m.Reset()
	return m, nil
}

// MustNewMachine is NewMachine that panics on error.
func MustNewMachine(prog *program.Program) *Machine {
	m, err := NewMachine(prog)
	if err != nil {
		panic(err)
	}
	return m
}

// Reset restores initial architectural state.
func (m *Machine) Reset() {
	m.code = m.prog.Code
	m.blockEnd = blockEnds(m.code)
	m.regs = [isa.NumRegs]int64{}
	m.regs[isa.GP] = int64(program.DataBase)
	if len(m.data) != len(m.prog.Data) {
		m.data = make([]int64, len(m.prog.Data))
		m.dirty = make([]bool, (len(m.data)+PageWords-1)/PageWords)
	}
	copy(m.data, m.prog.Data)
	m.pages = nil
	m.pc = m.prog.Entry
	m.retired = 0
	m.halted = false
	m.err = nil
	m.WildAccesses = 0
}

// Program returns the program being executed.
func (m *Machine) Program() *program.Program { return m.prog }

// Halted reports whether the program has stopped (HALT or error).
func (m *Machine) Halted() bool { return m.halted }

// Err returns the error that halted the machine, if any.
func (m *Machine) Err() error { return m.err }

// Retired returns the number of retired instructions.
func (m *Machine) Retired() uint64 { return m.retired }

// PC returns the current instruction index.
func (m *Machine) PC() int { return m.pc }

// Reg returns the value of register r.
func (m *Machine) Reg(r isa.Reg) int64 { return m.regs[r] }

// DataWord returns data word w. Exposed for tests and examples.
func (m *Machine) DataWord(w int) int64 { return m.data[w] }

// wordIndex converts a byte address into a data-word index, wrapping
// out-of-segment accesses deterministically.
func (m *Machine) wordIndex(addr uint64) int {
	idx := int64(addr-program.DataBase) / 8
	if idx >= 0 && idx < int64(len(m.data)) {
		return int(idx)
	}
	m.WildAccesses++
	n := int64(len(m.data))
	idx %= n
	if idx < 0 {
		idx += n
	}
	return int(idx)
}

// PageWords is the size of a data-image page in words (4 KiB). Snapshots
// hold the data image as a table of pages and share every page that did
// not change since the machine's previous snapshot or restore.
const PageWords = 512

// MachineState is a serialisable snapshot of architectural state (see the
// checkpoint package).
type MachineState struct {
	Regs [isa.NumRegs]int64
	// Pages is the data image, PageWords words a page (the last page may
	// be shorter). Pages are immutable and shared between snapshots.
	Pages        [][]int64
	PC           int
	Retired      uint64
	Halted       bool
	WildAccesses uint64
}

// Snapshot captures the architectural state. A page the machine has not
// stored to since its last Snapshot or Restore, or whose words still equal
// that page, is shared with it; only the others are copied.
func (m *Machine) Snapshot() MachineState {
	pages := make([][]int64, len(m.dirty))
	for p := range pages {
		page := m.page(p)
		if m.pages != nil && (!m.dirty[p] || slices.Equal(page, m.pages[p])) {
			pages[p] = m.pages[p]
		} else {
			pages[p] = slices.Clone(page)
		}
		m.dirty[p] = false
	}
	m.pages = pages
	return MachineState{
		Regs:         m.regs,
		Pages:        pages,
		PC:           m.pc,
		Retired:      m.retired,
		Halted:       m.halted,
		WildAccesses: m.WildAccesses,
	}
}

// Restore reinstates a snapshot taken from a machine running the same
// program. It copies only the pages that differ from the machine's
// current page table or that the machine has stored to since.
func (m *Machine) Restore(s MachineState) error {
	if len(s.Pages) != len(m.dirty) {
		return pgsserrors.Invalidf("cpu: snapshot data %d pages, machine has %d", len(s.Pages), len(m.dirty))
	}
	for p, page := range s.Pages {
		if want := len(m.page(p)); len(page) != want {
			return pgsserrors.Invalidf("cpu: snapshot page %d has %d words, want %d", p, len(page), want)
		}
	}
	for p, page := range s.Pages {
		if m.dirty[p] || m.pages == nil || &page[0] != &m.pages[p][0] {
			copy(m.page(p), page)
		}
		m.dirty[p] = false
	}
	m.pages = s.Pages
	m.regs = s.Regs
	m.pc = s.PC
	m.retired = s.Retired
	m.halted = s.Halted
	m.err = nil
	m.WildAccesses = s.WildAccesses
	return nil
}

// page returns page p of the data image.
func (m *Machine) page(p int) []int64 {
	lo := p * PageWords
	return m.data[lo:min(lo+PageWords, len(m.data))]
}

// Step executes one instruction, filling *r with its retire record. It
// returns false when the machine is halted (r is left untouched).
func (m *Machine) Step(r *Retired) bool {
	if m.halted {
		return false
	}
	if m.pc < 0 || m.pc >= len(m.code) {
		m.halted = true
		m.err = fmt.Errorf("cpu: pc %d: %w", m.pc, ErrWildJump)
		return false
	}
	in := &m.code[m.pc]
	r.PC = m.pc
	r.Addr = program.AddrOf(m.pc)
	r.Op = in.Op
	r.Dst = in.Dst
	r.Src1 = in.Src1
	r.Src2 = in.Src2
	r.Taken = false
	r.IsCall = false
	r.IsReturn = false

	next := m.pc + 1
	switch in.Op {
	case isa.NOP:
	case isa.ADD:
		m.set(in.Dst, m.regs[in.Src1]+m.regs[in.Src2])
	case isa.SUB:
		m.set(in.Dst, m.regs[in.Src1]-m.regs[in.Src2])
	case isa.AND:
		m.set(in.Dst, m.regs[in.Src1]&m.regs[in.Src2])
	case isa.OR:
		m.set(in.Dst, m.regs[in.Src1]|m.regs[in.Src2])
	case isa.XOR:
		m.set(in.Dst, m.regs[in.Src1]^m.regs[in.Src2])
	case isa.SLL:
		m.set(in.Dst, m.regs[in.Src1]<<(uint64(m.regs[in.Src2])&63))
	case isa.SRL:
		m.set(in.Dst, int64(uint64(m.regs[in.Src1])>>(uint64(m.regs[in.Src2])&63)))
	case isa.SLT:
		m.set(in.Dst, boolToInt(m.regs[in.Src1] < m.regs[in.Src2]))
	case isa.ADDI:
		m.set(in.Dst, m.regs[in.Src1]+in.Imm)
	case isa.ANDI:
		m.set(in.Dst, m.regs[in.Src1]&in.Imm)
	case isa.ORI:
		m.set(in.Dst, m.regs[in.Src1]|in.Imm)
	case isa.XORI:
		m.set(in.Dst, m.regs[in.Src1]^in.Imm)
	case isa.SLLI:
		m.set(in.Dst, m.regs[in.Src1]<<(uint64(in.Imm)&63))
	case isa.SRLI:
		m.set(in.Dst, int64(uint64(m.regs[in.Src1])>>(uint64(in.Imm)&63)))
	case isa.SLTI:
		m.set(in.Dst, boolToInt(m.regs[in.Src1] < in.Imm))
	case isa.LUI:
		m.set(in.Dst, in.Imm<<16)
	case isa.MUL:
		m.set(in.Dst, m.regs[in.Src1]*m.regs[in.Src2])
	case isa.DIV:
		d := m.regs[in.Src2]
		if d == 0 {
			m.set(in.Dst, -1)
		} else {
			m.set(in.Dst, m.regs[in.Src1]/d)
		}
	case isa.FADD:
		// FP classes reuse integer arithmetic; only latency differs.
		m.set(in.Dst, m.regs[in.Src1]+m.regs[in.Src2])
	case isa.FMUL:
		m.set(in.Dst, m.regs[in.Src1]*m.regs[in.Src2])
	case isa.FDIV:
		d := m.regs[in.Src2]
		if d == 0 {
			m.set(in.Dst, -1)
		} else {
			m.set(in.Dst, m.regs[in.Src1]/d)
		}
	case isa.LD:
		addr := uint64(m.regs[in.Src1] + in.Imm)
		r.MemAddr = addr
		m.set(in.Dst, m.data[m.wordIndex(addr)])
	case isa.ST:
		addr := uint64(m.regs[in.Src1] + in.Imm)
		r.MemAddr = addr
		w := m.wordIndex(addr)
		m.data[w] = m.regs[in.Src2]
		m.dirty[w/PageWords] = true
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
		r.ReturnAddr = program.AddrOf(m.pc + 1)
		m.set(in.Dst, int64(m.pc+1))
		next = int(in.Imm)
	case isa.JR:
		r.Taken = true
		r.IsReturn = in.Src1 == isa.RA
		next = int(m.regs[in.Src1])
	case isa.HALT:
		m.halted = true
		m.retired++
		return true
	default:
		m.halted = true
		m.err = pgsserrors.Invalidf("cpu: pc %d: unknown opcode %v", m.pc, in.Op)
		return false
	}

	if r.Op.IsBranch() && r.Taken {
		next = int(in.Imm)
	}
	if r.Taken {
		r.TargetAddr = program.AddrOf(next)
	}
	m.pc = next
	m.retired++
	return true
}

func (m *Machine) set(r isa.Reg, v int64) {
	if r != isa.Zero {
		m.regs[r] = v
	}
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
