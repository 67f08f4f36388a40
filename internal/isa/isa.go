// Package isa defines the instruction set of the simulated RISC machine.
//
// The machine is a classic load/store RISC: 32 general-purpose 64-bit
// integer registers (r0 is hardwired to zero), a flat byte-addressed data
// memory, and fixed 4-byte instruction slots. Floating-point work is
// modelled with dedicated opcode classes (FADD, FMUL, FDIV) that operate on
// the integer register file but carry floating-point latencies; the
// microarchitectural simulator only needs latency classes, not IEEE
// semantics, and the workload generator only needs deterministic values.
package isa

import (
	"fmt"

	"pgss/internal/pgsserrors"
)

// Reg names one of the 32 general-purpose registers. R0 always reads zero;
// writes to it are discarded.
type Reg uint8

// NumRegs is the architectural register count.
const NumRegs = 32

// Zero is the hardwired zero register.
const Zero Reg = 0

// Conventional register roles used by the workload generator. They carry no
// architectural meaning.
const (
	RA Reg = 1 // return address (written by JAL)
	SP Reg = 2 // stack/scratch pointer
	GP Reg = 3 // global pointer (data base)
	T0 Reg = 8 // temporaries T0..T7
	T1 Reg = 9
	T2 Reg = 10
	T3 Reg = 11
	T4 Reg = 12
	T5 Reg = 13
	T6 Reg = 14
	T7 Reg = 15
	S0 Reg = 16 // saved S0..S7
	S1 Reg = 17
	S2 Reg = 18
	S3 Reg = 19
	S4 Reg = 20
	S5 Reg = 21
	S6 Reg = 22
	S7 Reg = 23
)

func (r Reg) String() string {
	if r == Zero {
		return "r0"
	}
	return fmt.Sprintf("r%d", uint8(r))
}

// Valid reports whether r names an architectural register.
func (r Reg) Valid() bool { return r < NumRegs }

// Opcode enumerates the operations of the ISA.
type Opcode uint8

// Opcodes. The groupings matter to the timing model: each opcode maps to a
// latency class via Class.
const (
	NOP Opcode = iota

	// Integer ALU, register-register.
	ADD
	SUB
	AND
	OR
	XOR
	SLL // shift left logical by Src2
	SRL // shift right logical by Src2
	SLT // set if less than (signed)

	// Integer ALU, register-immediate.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SLTI
	LUI // load upper immediate: Dst = Imm << 16

	// Long-latency integer.
	MUL
	DIV

	// Floating point (latency classes only; values are int64 bit patterns).
	FADD
	FMUL
	FDIV

	// Memory. Addresses are Src1 + Imm.
	LD // Dst = mem[Src1+Imm]
	ST // mem[Src1+Imm] = Src2

	// Control. Branch targets are absolute instruction indices in Imm.
	BEQ // taken if Src1 == Src2
	BNE // taken if Src1 != Src2
	BLT // taken if Src1 < Src2 (signed)
	BGE // taken if Src1 >= Src2 (signed)
	JMP // unconditional, target in Imm
	JAL // jump and link: Dst = return PC, target in Imm
	JR  // jump register: target is value of Src1

	HALT // stop the program

	numOpcodes
)

var opNames = [...]string{
	NOP: "nop", ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SLL: "sll", SRL: "srl", SLT: "slt",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori", SLLI: "slli",
	SRLI: "srli", SLTI: "slti", LUI: "lui",
	MUL: "mul", DIV: "div",
	FADD: "fadd", FMUL: "fmul", FDIV: "fdiv",
	LD: "ld", ST: "st",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	JMP: "jmp", JAL: "jal", JR: "jr",
	HALT: "halt",
}

func (op Opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op < numOpcodes }

// Class groups opcodes by their execution resource and latency behaviour.
type Class uint8

// Latency classes consumed by the timing model.
const (
	ClassNop Class = iota
	ClassALU
	ClassMul
	ClassDiv
	ClassFPAdd
	ClassFPMul
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch // conditional branches
	ClassJump   // unconditional control flow
	ClassHalt
)

var classNames = [...]string{
	ClassNop: "nop", ClassALU: "alu", ClassMul: "mul", ClassDiv: "div",
	ClassFPAdd: "fpadd", ClassFPMul: "fpmul", ClassFPDiv: "fpdiv",
	ClassLoad: "load", ClassStore: "store", ClassBranch: "branch",
	ClassJump: "jump", ClassHalt: "halt",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

var opClass = [numOpcodes]Class{
	NOP: ClassNop,
	ADD: ClassALU, SUB: ClassALU, AND: ClassALU, OR: ClassALU, XOR: ClassALU,
	SLL: ClassALU, SRL: ClassALU, SLT: ClassALU,
	ADDI: ClassALU, ANDI: ClassALU, ORI: ClassALU, XORI: ClassALU,
	SLLI: ClassALU, SRLI: ClassALU, SLTI: ClassALU, LUI: ClassALU,
	MUL: ClassMul, DIV: ClassDiv,
	FADD: ClassFPAdd, FMUL: ClassFPMul, FDIV: ClassFPDiv,
	LD: ClassLoad, ST: ClassStore,
	BEQ: ClassBranch, BNE: ClassBranch, BLT: ClassBranch, BGE: ClassBranch,
	JMP: ClassJump, JAL: ClassJump, JR: ClassJump,
	HALT: ClassHalt,
}

// Class returns the latency class of the opcode.
func (op Opcode) Class() Class {
	if !op.Valid() {
		return ClassNop
	}
	return opClass[op]
}

// IsBranch reports whether op is a conditional branch.
func (op Opcode) IsBranch() bool { return op.Class() == ClassBranch }

// IsControl reports whether op redirects the PC (branch or jump).
func (op Opcode) IsControl() bool {
	c := op.Class()
	return c == ClassBranch || c == ClassJump
}

// IsMem reports whether op accesses data memory.
func (op Opcode) IsMem() bool {
	c := op.Class()
	return c == ClassLoad || c == ClassStore
}

// WritesDst reports whether op writes its Dst register.
func (op Opcode) WritesDst() bool {
	switch op.Class() {
	case ClassALU, ClassMul, ClassDiv, ClassFPAdd, ClassFPMul, ClassFPDiv, ClassLoad:
		return true
	case ClassJump:
		return op == JAL
	}
	return false
}

// ReadsSrc1 reports whether op reads its Src1 register.
func (op Opcode) ReadsSrc1() bool {
	switch op {
	case NOP, JMP, JAL, LUI, HALT:
		return false
	}
	return true
}

// ReadsSrc2 reports whether op reads its Src2 register.
func (op Opcode) ReadsSrc2() bool {
	switch op {
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SLT, MUL, DIV,
		FADD, FMUL, FDIV, ST, BEQ, BNE, BLT, BGE:
		return true
	}
	return false
}

// Inst is a decoded instruction. Instructions are stored decoded; the
// simulator never round-trips through a binary encoding, which keeps the
// interpreter fast while preserving a realistic instruction stream (every
// instruction still has a unique address: see Program.AddrOf).
type Inst struct {
	Op   Opcode
	Dst  Reg
	Src1 Reg
	Src2 Reg
	Imm  int64
}

func (in Inst) String() string {
	switch {
	case in.Op == NOP || in.Op == HALT:
		return in.Op.String()
	case in.Op == JMP:
		return fmt.Sprintf("%s %d", in.Op, in.Imm)
	case in.Op == JAL:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Dst, in.Imm)
	case in.Op == JR:
		return fmt.Sprintf("%s %s", in.Op, in.Src1)
	case in.Op.IsBranch():
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Src1, in.Src2, in.Imm)
	case in.Op == LD:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Dst, in.Imm, in.Src1)
	case in.Op == ST:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Src2, in.Imm, in.Src1)
	case in.Op == LUI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Dst, in.Imm)
	case in.Op.ReadsSrc2():
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.Src1, in.Src2)
	default:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Dst, in.Src1, in.Imm)
	}
}

// InstBytes is the architectural size of one instruction; instruction
// addresses advance by this amount. It feeds the I-cache and the BBV hash.
const InstBytes = 4

// Validate reports a descriptive error if the instruction is malformed. The
// error wraps pgsserrors.ErrInvalidConfig.
func (in Inst) Validate() error {
	if !in.Op.Valid() {
		return pgsserrors.Invalidf("isa: invalid opcode %d", uint8(in.Op))
	}
	if !in.Dst.Valid() || !in.Src1.Valid() || !in.Src2.Valid() {
		return pgsserrors.Invalidf("isa: invalid register in %v", in)
	}
	if in.Op.IsControl() && in.Op != JR && in.Imm < 0 {
		return pgsserrors.Invalidf("isa: negative control target in %v", in)
	}
	return nil
}
