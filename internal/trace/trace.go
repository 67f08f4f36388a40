// Package trace implements compact instruction traces and trace-driven
// timing simulation — the use case of the paper's closest related work
// (Pereira et al., CODES+ISSS 2005: "Dynamic phase analysis for
// cycle-close trace generation", §3). A trace records exactly the retire
// stream the timing model consumes, so replaying a trace through a fresh
// pipeline/cache/predictor reproduces execution-driven cycles bit for bit,
// without the interpreter or the program.
//
// PhaseTraces composes this with the online phase table: it selects one
// representative interval per detected phase (as Pereira's system does)
// and captures its trace together with the phase's weight, yielding a
// cycle-close trace bundle that downstream consumers can replay instead of
// the whole program.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pgss/internal/cpu"
	"pgss/internal/isa"
	"pgss/internal/pgsserrors"
)

// magic identifies the trace format; version bumps on breaking changes.
const magic = "PGSSTRC1"

// Writer encodes retire records into a compact binary stream: one flag
// byte, the opcode and register bytes, then zig-zag varint deltas for the
// instruction address and (when present) memory and target addresses.
type Writer struct {
	w        *bufio.Writer
	lastAddr uint64
	lastMem  uint64
	count    uint64
	buf      [3 * binary.MaxVarintLen64]byte
}

// NewWriter starts a trace on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

const (
	flagTaken = 1 << iota
	flagCall
	flagReturn
	flagMem
)

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Write appends one retire record.
func (t *Writer) Write(r *cpu.Retired) error {
	var flags byte
	if r.Taken {
		flags |= flagTaken
	}
	if r.IsCall {
		flags |= flagCall
	}
	if r.IsReturn {
		flags |= flagReturn
	}
	if r.Op.IsMem() {
		flags |= flagMem
	}
	head := [5]byte{flags, byte(r.Op), byte(r.Dst), byte(r.Src1), byte(r.Src2)}
	if _, err := t.w.Write(head[:]); err != nil {
		return err
	}
	n := binary.PutUvarint(t.buf[:], zigzag(int64(r.Addr-t.lastAddr)))
	t.lastAddr = r.Addr
	if r.Op.IsMem() {
		n += binary.PutUvarint(t.buf[n:], zigzag(int64(r.MemAddr-t.lastMem)))
		t.lastMem = r.MemAddr
	}
	if r.Taken {
		n += binary.PutUvarint(t.buf[n:], zigzag(int64(r.TargetAddr-r.Addr)))
	}
	if _, err := t.w.Write(t.buf[:n]); err != nil {
		return err
	}
	t.count++
	return nil
}

// Count returns the records written so far.
func (t *Writer) Count() uint64 { return t.count }

// Flush drains the buffer; call once when done.
func (t *Writer) Flush() error { return t.w.Flush() }

// Reader decodes a trace stream.
type Reader struct {
	r        *bufio.Reader
	lastAddr uint64
	lastMem  uint64
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(head) != magic {
		return nil, pgsserrors.Corruptf("trace: bad magic %q", head)
	}
	return &Reader{r: br}, nil
}

// Read decodes the next record into *r; it returns io.EOF at end of trace.
func (t *Reader) Read(r *cpu.Retired) error {
	flags, err := t.r.ReadByte()
	if err != nil {
		return err // io.EOF at a record boundary is the normal end
	}
	var head [4]byte
	if _, err := io.ReadFull(t.r, head[:]); err != nil {
		return fmt.Errorf("trace: truncated record: %w", err)
	}
	r.Op = isa.Opcode(head[0])
	r.Dst = isa.Reg(head[1])
	r.Src1 = isa.Reg(head[2])
	r.Src2 = isa.Reg(head[3])
	r.Taken = flags&flagTaken != 0
	r.IsCall = flags&flagCall != 0
	r.IsReturn = flags&flagReturn != 0

	d, err := binary.ReadUvarint(t.r)
	if err != nil {
		return fmt.Errorf("trace: truncated address: %w", err)
	}
	r.Addr = uint64(int64(t.lastAddr) + unzigzag(d))
	t.lastAddr = r.Addr
	r.MemAddr = 0
	if flags&flagMem != 0 {
		d, err := binary.ReadUvarint(t.r)
		if err != nil {
			return fmt.Errorf("trace: truncated mem address: %w", err)
		}
		r.MemAddr = uint64(int64(t.lastMem) + unzigzag(d))
		t.lastMem = r.MemAddr
	}
	r.TargetAddr = 0
	if r.Taken {
		d, err := binary.ReadUvarint(t.r)
		if err != nil {
			return fmt.Errorf("trace: truncated target: %w", err)
		}
		r.TargetAddr = uint64(int64(r.Addr) + unzigzag(d))
	}
	if r.IsCall {
		r.ReturnAddr = r.Addr + isa.InstBytes
	} else {
		r.ReturnAddr = 0
	}
	return nil
}

// Capture runs the core in detailed mode for up to `ops` retired ops (0 =
// to completion), writing the retire stream to w. It returns the ops
// captured.
func Capture(c *cpu.Core, w io.Writer, ops uint64) (uint64, error) {
	tw, err := NewWriter(w)
	if err != nil {
		return 0, err
	}
	var r cpu.Retired
	var done uint64
	for (ops == 0 || done < ops) && c.StepDetailed(&r) {
		if err := tw.Write(&r); err != nil {
			return done, err
		}
		done++
	}
	if err := c.M.Err(); err != nil {
		return done, fmt.Errorf("trace: capture halted abnormally: %w", err)
	}
	return done, tw.Flush()
}

// Replay drives a fresh timing configuration from the trace and returns
// (ops, cycles). This is trace-driven simulation: no interpreter runs; the
// pipeline, caches and predictors see exactly the recorded stream.
func Replay(rd io.Reader, cfg cpu.CoreConfig) (ops, cycles uint64, err error) {
	return ReplayMeasured(rd, cfg, 0)
}

// ReplayMeasured is Replay with the first warmupOps records replayed only
// to warm microarchitectural state: the returned ops and cycles cover the
// remainder of the trace.
func ReplayMeasured(rd io.Reader, cfg cpu.CoreConfig, warmupOps uint64) (ops, cycles uint64, err error) {
	return ReplayCycleClose(rd, cfg, warmupOps, nil)
}

// ReplayCycleClose is ReplayMeasured that first restores captured cache
// and predictor state (when micro is non-nil), making the replayed cycles
// cycle-close to continuous execution even when the segment's working set
// far exceeds its warm-up prefix.
func ReplayCycleClose(rd io.Reader, cfg cpu.CoreConfig, warmupOps uint64, micro *MicroState) (ops, cycles uint64, err error) {
	tr, err := NewReader(rd)
	if err != nil {
		return 0, 0, err
	}
	pipe, hier, bp, err := cpu.NewPipelineParts(cfg)
	if err != nil {
		return 0, 0, err
	}
	if micro != nil {
		if err := hier.L1I.Restore(micro.L1I); err != nil {
			return 0, 0, err
		}
		if err := hier.L1D.Restore(micro.L1D); err != nil {
			return 0, 0, err
		}
		if err := hier.L2.Restore(micro.L2); err != nil {
			return 0, 0, err
		}
		if err := bp.Restore(micro.BP); err != nil {
			return 0, 0, err
		}
	}
	var r cpu.Retired
	var seen, baseCycles uint64
	for {
		if err := tr.Read(&r); err != nil {
			if err == io.EOF {
				return ops, pipe.Cycle() - baseCycles, nil
			}
			return ops, pipe.Cycle() - baseCycles, err
		}
		pipe.Retire(&r)
		seen++
		if seen <= warmupOps {
			baseCycles = pipe.Cycle()
			continue
		}
		ops++
	}
}
