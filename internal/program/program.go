// Package program represents executable programs for the simulated machine:
// a code image (decoded instructions), a data image (64-bit words), and the
// bookkeeping needed to give every instruction a stable address.
//
// Programs are immutable once built. The workload generator (package
// workload) constructs them through Builder.
package program

import (
	"fmt"

	"pgss/internal/isa"
	"pgss/internal/pgsserrors"
)

// CodeBase is the address of instruction slot 0. A nonzero base keeps
// instruction and data addresses disjoint, which makes cache and BBV traces
// easier to read.
const CodeBase uint64 = 0x0040_0000

// DataBase is the address of data word 0.
const DataBase uint64 = 0x1000_0000

// Program is an immutable executable image.
type Program struct {
	Name string

	Code []isa.Inst
	// Data is the initial data segment, one 64-bit word per element. Every
	// machine running the program starts from a copy of it.
	Data []int64

	// Entry is the instruction index where execution starts.
	Entry int
}

// AddrOf returns the architectural address of instruction index pc.
func AddrOf(pc int) uint64 { return CodeBase + uint64(pc)*isa.InstBytes }

// DataAddr returns the architectural byte address of data word index w.
func DataAddr(w int) uint64 { return DataBase + uint64(w)*8 }

// Validate checks structural well-formedness: every instruction is valid
// and every control target is inside the code image. Errors wrap
// pgsserrors.ErrInvalidConfig.
func (p *Program) Validate() error {
	if len(p.Code) == 0 {
		return pgsserrors.Invalidf("program %q: empty code image", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Code) {
		return pgsserrors.Invalidf("program %q: entry %d outside code [0,%d)", p.Name, p.Entry, len(p.Code))
	}
	for pc, in := range p.Code {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("program %q: pc %d: %w", p.Name, pc, err)
		}
		if in.Op.IsControl() && in.Op != isa.JR {
			if in.Imm < 0 || in.Imm >= int64(len(p.Code)) {
				return pgsserrors.Invalidf("program %q: pc %d: control target %d outside code [0,%d)",
					p.Name, pc, in.Imm, len(p.Code))
			}
		}
	}
	return nil
}

// Builder assembles a Program. It supports labels with forward references
// so kernels can be emitted in natural order.
type Builder struct {
	name string
	code []isa.Inst
	data []int64

	labels map[string]int
	// fixups maps code indices whose Imm must be patched to the address of
	// a label once it is defined.
	fixups map[int]string
	entry  string
}

// NewBuilder returns a Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:   name,
		labels: make(map[string]int),
		fixups: make(map[int]string),
	}
}

// PC returns the index the next emitted instruction will occupy.
func (b *Builder) PC() int { return len(b.code) }

// Label defines name at the current PC. Defining the same label twice
// panics: labels identify unique code points.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic(fmt.Sprintf("program: duplicate label %q", name))
	}
	b.labels[name] = len(b.code)
}

// SetEntry sets the label execution starts from. Defaults to instruction 0.
func (b *Builder) SetEntry(label string) { b.entry = label }

// Emit appends one instruction and returns its index.
func (b *Builder) Emit(in isa.Inst) int {
	b.code = append(b.code, in)
	return len(b.code) - 1
}

// EmitTo appends a control instruction whose Imm will be resolved to the
// given label at Build time.
func (b *Builder) EmitTo(in isa.Inst, label string) int {
	idx := b.Emit(in)
	b.fixups[idx] = label
	return idx
}

// Pad emits NOPs until the next instruction lands at an index that is a
// multiple of align (in instruction slots). Workloads use this to place
// kernels at distinct address regions so BBV hash bits separate them.
func (b *Builder) Pad(align int) {
	if align <= 1 {
		return
	}
	for len(b.code)%align != 0 {
		b.Emit(isa.Inst{Op: isa.NOP})
	}
}

// PadToSlot emits NOPs until the next instruction lands at exactly the
// given slot index. It panics if that slot is already behind; callers plan
// their layout in ascending order.
func (b *Builder) PadToSlot(slot int) {
	if slot < len(b.code) {
		panic(fmt.Sprintf("program: PadToSlot(%d) behind PC %d", slot, len(b.code)))
	}
	for len(b.code) < slot {
		b.Emit(isa.Inst{Op: isa.NOP})
	}
}

// Convenience emitters.

// Op emits a three-register ALU-style instruction.
func (b *Builder) Op(op isa.Opcode, dst, s1, s2 isa.Reg) int {
	return b.Emit(isa.Inst{Op: op, Dst: dst, Src1: s1, Src2: s2})
}

// OpI emits a register-immediate instruction.
func (b *Builder) OpI(op isa.Opcode, dst, s1 isa.Reg, imm int64) int {
	return b.Emit(isa.Inst{Op: op, Dst: dst, Src1: s1, Imm: imm})
}

// LoadImm emits code that sets dst to the constant v (one or two
// instructions, depending on magnitude).
func (b *Builder) LoadImm(dst isa.Reg, v int64) {
	if v >= -(1<<15) && v < (1<<15) {
		b.OpI(isa.ADDI, dst, isa.Zero, v)
		return
	}
	// LUI + ORI path for 32-bit range; larger constants build via shifts.
	if v >= 0 && v < (1<<32) {
		b.OpI(isa.LUI, dst, isa.Zero, v>>16)
		b.OpI(isa.ORI, dst, dst, v&0xffff)
		return
	}
	b.OpI(isa.LUI, dst, isa.Zero, (v>>48)&0xffff)
	b.OpI(isa.SLLI, dst, dst, 16)
	b.OpI(isa.ORI, dst, dst, (v>>32)&0xffff)
	b.OpI(isa.SLLI, dst, dst, 16)
	b.OpI(isa.ORI, dst, dst, (v>>16)&0xffff)
	b.OpI(isa.SLLI, dst, dst, 16)
	b.OpI(isa.ORI, dst, dst, v&0xffff)
}

// Load emits dst = mem[base+off].
func (b *Builder) Load(dst, base isa.Reg, off int64) int {
	return b.Emit(isa.Inst{Op: isa.LD, Dst: dst, Src1: base, Imm: off})
}

// Store emits mem[base+off] = src.
func (b *Builder) Store(src, base isa.Reg, off int64) int {
	return b.Emit(isa.Inst{Op: isa.ST, Src1: base, Src2: src, Imm: off})
}

// Branch emits a conditional branch to label.
func (b *Builder) Branch(op isa.Opcode, s1, s2 isa.Reg, label string) int {
	return b.EmitTo(isa.Inst{Op: op, Src1: s1, Src2: s2}, label)
}

// Jump emits an unconditional jump to label.
func (b *Builder) Jump(label string) int {
	return b.EmitTo(isa.Inst{Op: isa.JMP}, label)
}

// Call emits a JAL to label, linking into isa.RA.
func (b *Builder) Call(label string) int {
	return b.EmitTo(isa.Inst{Op: isa.JAL, Dst: isa.RA}, label)
}

// Ret emits a JR through isa.RA.
func (b *Builder) Ret() int {
	return b.Emit(isa.Inst{Op: isa.JR, Src1: isa.RA})
}

// Halt emits a HALT.
func (b *Builder) Halt() int { return b.Emit(isa.Inst{Op: isa.HALT}) }

// DataWords returns the number of data words allocated so far.
func (b *Builder) DataWords() int { return len(b.data) }

// AllocData reserves n zero data words and returns the index of the first.
func (b *Builder) AllocData(n int) int {
	if n < 0 {
		panic("program: negative data allocation")
	}
	w := len(b.data)
	b.data = append(b.data, make([]int64, n)...)
	return w
}

// InitData sets the initial value of data word w; the last write wins.
func (b *Builder) InitData(w int, v int64) {
	if w < 0 || w >= len(b.data) {
		panic(fmt.Sprintf("program: init of unallocated word %d", w))
	}
	b.data[w] = v
}

// Build resolves labels and returns the validated Program.
func (b *Builder) Build() (*Program, error) {
	for idx, label := range b.fixups {
		target, ok := b.labels[label]
		if !ok {
			return nil, pgsserrors.Invalidf("program %q: undefined label %q", b.name, label)
		}
		b.code[idx].Imm = int64(target)
	}
	entry := 0
	if b.entry != "" {
		e, ok := b.labels[b.entry]
		if !ok {
			return nil, pgsserrors.Invalidf("program %q: undefined entry label %q", b.name, b.entry)
		}
		entry = e
	}
	p := &Program{
		Name:  b.name,
		Code:  b.code,
		Data:  b.data,
		Entry: entry,
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
