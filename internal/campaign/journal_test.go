package campaign

import (
	"context"
	"os"
	"strings"
	"testing"

	"pgss/internal/faultinject"
	"pgss/internal/sampling"
)

func journalOutcome(i int) Outcome {
	return Outcome{
		Spec:     Spec{Benchmark: "gcc", Technique: "simpoint", Seed: int64(i)},
		Result:   sampling.Result{EstimatedIPC: float64(i) + 0.5},
		Attempts: 1,
	}
}

func appendAll(t *testing.T, fsys faultinject.FS, path string, resume bool, outs ...Outcome) {
	t.Helper()
	var goodLen int64
	if resume {
		_, n, err := replayJournal(fsys, path, func(string, ...any) {})
		if err != nil {
			t.Fatal(err)
		}
		goodLen = n
	}
	w, err := openJournal(fsys, path, resume, goodLen)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, o := range outs {
		if err := w.append(newRecord(o)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalTornAppendResume is the satellite-1 regression: a crash tears
// the journal mid-append (injected torn write), and the next resume must
// detect the torn trailing record, truncate it away, and append cleanly
// after the last complete one — no decode error, no welded lines.
func TestJournalTornAppendResume(t *testing.T) {
	mem := faultinject.NewMemFS()
	const path = "campaign.jsonl"
	appendAll(t, mem, path, false, journalOutcome(0), journalOutcome(1))

	// The third append tears mid-buffer; the "process" then dies.
	inj := faultinject.NewInjector(mem, faultinject.Rule{
		Op: faultinject.OpWrite, Fault: faultinject.FaultTorn, PathSubstr: path,
	})
	w, err := openJournal(inj, path, true, durableSize(t, mem, path))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(newRecord(journalOutcome(2))); err == nil {
		t.Fatal("torn append reported success")
	}
	// The process dies here (no power loss: the half-written line stays in
	// the page cache and reaches the file, which is exactly what a resume
	// finds after a kill mid-append).
	w.Close()

	// Resume: replay must surface exactly the two complete records and a
	// goodLen that excises the torn half-line.
	recs, goodLen, err := replayJournal(mem, path, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	appendAll(t, mem, path, true, journalOutcome(3))

	// After truncation + append the journal is pristine: three records, all
	// frames verify.
	recs, goodLen2, err := replayJournal(mem, path, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("after resume append: %d records, want 3", len(recs))
	}
	if goodLen2 <= goodLen {
		t.Fatalf("journal did not grow: %d -> %d", goodLen, goodLen2)
	}
	if _, ok := recs[journalOutcome(3).Spec.Key()]; !ok {
		t.Fatal("resumed append missing")
	}
	if _, ok := recs[journalOutcome(2).Spec.Key()]; ok {
		t.Fatal("torn record resurrected")
	}
}

// TestJournalChecksumMismatchDropped: a newline-terminated line whose
// payload was bit-flipped in place still parses as JSON but fails its CRC,
// so replay must drop it (and everything after).
func TestJournalChecksumMismatchDropped(t *testing.T) {
	mem := faultinject.NewMemFS()
	const path = "campaign.jsonl"
	appendAll(t, mem, path, false, journalOutcome(0), journalOutcome(1))

	data, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one digit inside the second record's payload: JSON stays valid,
	// the frame does not.
	tail := strings.Index(string(data), `"seed":1`)
	if tail < 0 {
		t.Fatal("fixture: seed field not found")
	}
	data[tail+len(`"seed":`)] = '9'
	rewrite(t, mem, path, data)

	var warned bool
	recs, _, err := replayJournal(mem, path, func(string, ...any) { warned = true })
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1 (corrupt line dropped)", len(recs))
	}
	if !warned {
		t.Error("corruption was dropped silently")
	}
}

// TestJournalUnframedLineRejected: a plain JSON line (the format before
// CRC framing) is no longer accepted. Replay stops at it like at a torn
// tail, goodLen ends before it, and a resumed campaign re-runs its run.
func TestJournalUnframedLineRejected(t *testing.T) {
	mem := faultinject.NewMemFS()
	const path = "campaign.jsonl"
	specs := []Spec{journalOutcome(0).Spec, journalOutcome(1).Spec}
	appendAll(t, mem, path, false, journalOutcome(0))
	framed := durableSize(t, mem, path)
	data, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unframed := `{"key":"` + specs[1].Key() + `","spec":{"benchmark":"gcc","technique":"simpoint","seed":1},"status":"done","attempts":1,"elapsed_ms":10,"result":{}}` + "\n"
	rewrite(t, mem, path, append(data, unframed...))

	recs, goodLen, err := replayJournal(mem, path, func(string, ...any) {})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1 (unframed line rejected)", len(recs))
	}
	if goodLen != framed {
		t.Fatalf("goodLen %d, want %d (end of the framed prefix)", goodLen, framed)
	}

	var ran []string
	rep, err := Run(context.Background(), specs, func(ctx context.Context, sp Spec) (sampling.Result, error) {
		ran = append(ran, sp.Key())
		return sampling.Result{}, nil
	}, Options{Jobs: 1, JournalPath: path, Resume: true, FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != specs[1].Key() || rep.Resumed != 1 || rep.Completed != 2 {
		t.Fatalf("resume ran %v, report %+v; want only %s re-run", ran, rep, specs[1].Key())
	}
}

func durableSize(t *testing.T, mem *faultinject.MemFS, path string) int64 {
	t.Helper()
	data, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(data))
}

func rewrite(t *testing.T, fsys faultinject.FS, path string, data []byte) {
	t.Helper()
	f, err := fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
