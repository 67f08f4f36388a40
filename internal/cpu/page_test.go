package cpu

import (
	"slices"
	"testing"

	"pgss/internal/isa"
	"pgss/internal/program"
)

// pageChurnProgram loops forever over six full data pages, adding one to
// every 37th word, so each pass changes a shifting subset of them. Every
// iteration also stores zero to the last word of a seventh, partial page
// that is otherwise never written: that page is dirty at every snapshot
// but never changes.
func pageChurnProgram(t *testing.T) *program.Program {
	const churnWords = 6 * PageWords
	return build(t, func(b *program.Builder) {
		b.AllocData(churnWords + 100)
		b.LoadImm(isa.T1, 0)            // byte offset into the churned pages
		b.LoadImm(isa.T2, churnWords*8) // end of the churned pages
		b.LoadImm(isa.T3, 37*8)         // step
		b.LoadImm(isa.T6, (churnWords+99)*8)
		b.Op(isa.ADD, isa.T6, isa.GP, isa.T6) // last word of the partial page
		b.Label("loop")
		b.Op(isa.ADD, isa.T4, isa.GP, isa.T1)
		b.Load(isa.T5, isa.T4, 0)
		b.OpI(isa.ADDI, isa.T5, isa.T5, 1)
		b.Store(isa.T5, isa.T4, 0)
		b.Store(isa.Zero, isa.T6, 0)
		b.Op(isa.ADD, isa.T1, isa.T1, isa.T3)
		b.Branch(isa.BLT, isa.T1, isa.T2, "loop")
		b.Op(isa.SUB, isa.T1, isa.T1, isa.T2) // wrap, shifted by the remainder
		b.Jump("loop")
	})
}

// words returns a copy of m's data image.
func words(m *Machine) []int64 {
	out := make([]int64, len(m.Program().Data))
	for w := range out {
		out[w] = m.DataWord(w)
	}
	return out
}

// TestSnapshotRestorePages checks the page-shared data image on data that
// changes between snapshots. Each snapshot's pages must hold the machine's
// words at capture and keep holding them however the machine moves on.
// One machine, reused and stepped between restores (through both store
// paths), is restored in an order with repeats; after every restore its
// data must equal a fresh machine restored from the same snapshot. A
// restore that skipped the pages stored to since the previous restore, or
// a snapshot that shared a changed page, fails here.
func TestSnapshotRestorePages(t *testing.T) {
	p := pageChurnProgram(t)
	step := func(m *Machine, n int, block bool) {
		t.Helper()
		buf := make([]Retired, n)
		if block {
			if m.StepBlock(buf) != n {
				t.Fatal("machine halted")
			}
			return
		}
		for i := range buf {
			if !m.Step(&buf[i]) {
				t.Fatal("machine halted")
			}
		}
	}

	m := MustNewMachine(p)
	var (
		snaps []MachineState
		want  [][]int64
	)
	for k := 0; k < 6; k++ {
		step(m, 2000+700*k, true)
		snaps = append(snaps, m.Snapshot())
		want = append(want, words(m))
	}
	if n := len(snaps[0].Pages); n != 7 {
		t.Fatalf("snapshot has %d pages, want 7", n)
	}
	for k, s := range snaps {
		if got := slices.Concat(s.Pages...); !slices.Equal(got, want[k]) {
			t.Errorf("snapshot %d pages differ from the machine's words at capture", k)
		}
		if k > 0 && &s.Pages[6][0] != &snaps[0].Pages[6][0] {
			t.Errorf("snapshot %d copied the unchanged partial page", k)
		}
		if k > 0 && slices.Equal(want[k][:6*PageWords], want[k-1][:6*PageWords]) {
			t.Fatalf("snapshots %d and %d hold the same churned words; the test would be vacuous", k-1, k)
		}
	}

	reused := MustNewMachine(p)
	for i, k := range []int{3, 3, 1, 5, 5, 0, 4, 2, 2} {
		if err := reused.Restore(snaps[k]); err != nil {
			t.Fatal(err)
		}
		fresh := MustNewMachine(p)
		if err := fresh.Restore(snaps[k]); err != nil {
			t.Fatal(err)
		}
		if got := words(reused); !slices.Equal(got, words(fresh)) || !slices.Equal(got, want[k]) {
			t.Fatalf("restore %d (snapshot %d): reused machine's data differs from a fresh restore", i, k)
		}
		step(reused, 1500+100*i, i%2 == 0)
		if i == 4 {
			// A snapshot after a restore shares with the restored table.
			s := reused.Snapshot()
			if !slices.Equal(slices.Concat(s.Pages...), words(reused)) {
				t.Fatalf("snapshot after restore %d differs from the machine's words", i)
			}
		}
	}
	for k, s := range snaps {
		if !slices.Equal(slices.Concat(s.Pages...), want[k]) {
			t.Errorf("snapshot %d changed after its capture", k)
		}
	}
}
