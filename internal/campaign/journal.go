package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"pgss/internal/faultinject"
	"pgss/internal/pgsserrors"
	"pgss/internal/sampling"
)

const (
	statusDone   = "done"
	statusFailed = "failed"
)

// record is one journal line: the terminal state of a run.
type record struct {
	Key       string          `json:"key"`
	Spec      Spec            `json:"spec"`
	Status    string          `json:"status"` // "done" | "failed"
	Attempts  int             `json:"attempts"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Error     string          `json:"error,omitempty"`
	ErrKind   string          `json:"error_kind,omitempty"`
	Result    sampling.Result `json:"result,omitempty"`
}

func newRecord(o Outcome) record {
	rec := record{
		Key:       o.Spec.Key(),
		Spec:      o.Spec,
		Attempts:  o.Attempts,
		ElapsedMS: o.Elapsed.Milliseconds(),
	}
	if o.Err == nil {
		rec.Status = statusDone
		rec.Result = o.Result
	} else {
		rec.Status = statusFailed
		rec.Error = o.Err.Error()
		rec.ErrKind = o.ErrKind
	}
	return rec
}

// Journal framing. Each record is one line: an 8-hex-digit CRC32C
// (Castagnoli) of the JSON payload, one space, the payload, '\n'. The
// checksum catches torn and bit-rotted tails that still happen to parse as
// JSON (a torn `{"key":"a"` prefix of a longer record is itself valid for
// a shorter one). An unframed line is treated like a torn tail.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func frameRecord(payload []byte) []byte {
	framed := make([]byte, 0, len(payload)+10)
	framed = fmt.Appendf(framed, "%08x ", crc32.Checksum(payload, crcTable))
	framed = append(framed, payload...)
	return append(framed, '\n')
}

// parseLine validates one newline-stripped journal line and decodes it.
func parseLine(b []byte) (record, error) {
	var rec record
	if len(b) < 9 || b[8] != ' ' {
		return rec, pgsserrors.Corruptf("journal line missing checksum frame")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(b[:8]), "%08x", &want); err != nil {
		return rec, pgsserrors.Corruptf("journal checksum field: %v", err)
	}
	payload := b[9:]
	if got := crc32.Checksum(payload, crcTable); got != want {
		return rec, pgsserrors.Corruptf("journal checksum mismatch: %08x != %08x", got, want)
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, pgsserrors.Corruptf("journal payload: %v", err)
	}
	return rec, nil
}

// replayJournal reads an existing journal, tolerating a missing file and a
// torn tail (the crash that motivated the resume). It returns the last
// record per key — so a run that failed and later succeeded counts as done
// — plus goodLen, the byte length of the valid prefix: everything past it
// (a line with a bad checksum, unparsable JSON, or no trailing newline) is
// untrusted and must be truncated away before appending resumes.
func replayJournal(fsys faultinject.FS, path string, logf func(string, ...any)) (map[string]record, int64, error) {
	f, err := faultinject.Open(fsys, path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()

	out := map[string]record{}
	var goodLen int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			goodLen++ // a bare newline is harmless padding
			continue
		}
		rec, err := parseLine(b)
		if err != nil {
			// A torn or corrupt tail is expected after a crash; nothing
			// after it can be trusted either, so stop here and let those
			// runs re-execute.
			logf("campaign: journal %s: ignoring line %d and beyond: %v\n", path, line, err)
			return out, goodLen, nil
		}
		out[rec.Key] = rec
		goodLen += int64(len(b)) + 1
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("read %s: %w", path, err)
	}
	// A final line without a trailing newline is a torn append even when its
	// checksum happens to verify mid-flush; drop it too.
	if st, err := f.Stat(); err == nil && st.Size() > goodLen {
		logf("campaign: journal %s: dropping %d-byte torn tail\n", path, st.Size()-goodLen)
	}
	return out, goodLen, nil
}

// journalWriter appends whole framed lines under a mutex so records from
// concurrent workers never interleave.
type journalWriter struct {
	mu sync.Mutex
	f  faultinject.File
}

// openJournal opens (resume) or truncates (fresh) the journal at path on
// fsys. On resume it first cuts the file back to goodLen — the valid prefix
// replayJournal measured — so the next append never welds onto a torn tail.
func openJournal(fsys faultinject.FS, path string, resume bool, goodLen int64) (*journalWriter, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := fsys.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	flags := os.O_CREATE | os.O_WRONLY
	if resume {
		if err := truncateTo(fsys, path, goodLen); err != nil {
			return nil, err
		}
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := fsys.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	return &journalWriter{f: f}, nil
}

// truncateTo cuts the journal back to size bytes (no-op when the file is
// missing or already that short).
func truncateTo(fsys faultinject.FS, path string, size int64) error {
	f, err := fsys.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() <= size {
		return nil
	}
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

func (w *journalWriter) append(rec record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if bytes.ContainsRune(payload, '\n') {
		return pgsserrors.IOf("journal record contains newline")
	}
	framed := frameRecord(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(framed); err != nil {
		return pgsserrors.IOf("journal append: %v", err)
	}
	// Runs are minutes long; an fsync per record is cheap insurance that a
	// kill -9 loses at most the in-flight line.
	if err := w.f.Sync(); err != nil {
		return pgsserrors.IOf("journal sync: %v", err)
	}
	return nil
}

func (w *journalWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
