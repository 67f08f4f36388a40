package program

import (
	"slices"
	"strings"
	"testing"

	"pgss/internal/isa"
)

func TestBuilderLabelsAndFixups(t *testing.T) {
	b := NewBuilder("t")
	b.Jump("end") // forward reference
	b.Label("mid")
	b.OpI(isa.ADDI, isa.T0, isa.Zero, 1)
	b.Label("end")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Code[0].Imm != 2 {
		t.Errorf("forward jump resolved to %d, want 2", p.Code[0].Imm)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("t")
	b.Jump("nowhere")
	b.Halt()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Fatalf("expected undefined-label error, got %v", err)
	}
}

func TestBuilderDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate label did not panic")
		}
	}()
	b := NewBuilder("t")
	b.Label("x")
	b.Label("x")
}

func TestBuilderEntry(t *testing.T) {
	b := NewBuilder("t")
	b.Halt()
	b.Label("main")
	b.Halt()
	b.SetEntry("main")
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if p.Entry != 1 {
		t.Errorf("entry = %d, want 1", p.Entry)
	}
}

func TestBuilderEntryUndefined(t *testing.T) {
	b := NewBuilder("t")
	b.Halt()
	b.SetEntry("missing")
	if _, err := b.Build(); err == nil {
		t.Error("expected undefined-entry error")
	}
}

func TestPadAndPadToSlot(t *testing.T) {
	b := NewBuilder("t")
	b.Halt()
	b.Pad(8)
	if b.PC() != 8 {
		t.Errorf("Pad(8) left PC at %d", b.PC())
	}
	b.PadToSlot(20)
	if b.PC() != 20 {
		t.Errorf("PadToSlot(20) left PC at %d", b.PC())
	}
	defer func() {
		if recover() == nil {
			t.Error("PadToSlot backwards did not panic")
		}
	}()
	b.PadToSlot(3)
}

func TestLoadImmWidths(t *testing.T) {
	// LoadImm must produce code whose effect equals the constant; verified
	// indirectly by instruction-count expectations per range.
	cases := []struct {
		v       int64
		maxInst int
	}{
		{0, 1}, {100, 1}, {-5, 1}, {32767, 1},
		{70000, 2}, {1 << 31, 2},
		{1 << 40, 7}, {-1 << 40, 7},
	}
	for _, c := range cases {
		b := NewBuilder("t")
		b.LoadImm(isa.T0, c.v)
		if b.PC() > c.maxInst {
			t.Errorf("LoadImm(%d) used %d instructions, want ≤ %d", c.v, b.PC(), c.maxInst)
		}
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	// Empty code.
	if err := (&Program{Name: "e"}).Validate(); err == nil {
		t.Error("empty program accepted")
	}
	// Entry out of range.
	p := &Program{Name: "e", Code: []isa.Inst{{Op: isa.HALT}}, Entry: 5}
	if err := p.Validate(); err == nil {
		t.Error("bad entry accepted")
	}
	// Control target out of range.
	p = &Program{Name: "e", Code: []isa.Inst{{Op: isa.JMP, Imm: 99}}}
	if err := p.Validate(); err == nil {
		t.Error("wild jump target accepted")
	}
}

func TestDataAllocation(t *testing.T) {
	b := NewBuilder("t")
	w0 := b.AllocData(4)
	w1 := b.AllocData(2)
	if w0 != 0 || w1 != 4 {
		t.Errorf("alloc layout: %d %d", w0, w1)
	}
	b.InitData(5, 42)
	b.InitData(1, 7)
	b.InitData(1, 0) // the last write wins, zero included
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 0, 0, 0, 0, 42}; !slices.Equal(p.Data, want) {
		t.Errorf("data image %v, want %v", p.Data, want)
	}
}

func TestInitDataBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("InitData out of range did not panic")
		}
	}()
	b := NewBuilder("t")
	b.AllocData(1)
	b.InitData(1, 9)
}

func TestAddrOfDisjointFromData(t *testing.T) {
	// Instruction and data addresses must not overlap for any plausible
	// program size.
	if AddrOf(1<<20) >= DataBase {
		t.Error("code addresses reach into the data segment")
	}
	if DataAddr(0) <= AddrOf(0) {
		t.Error("data base below code base")
	}
}
