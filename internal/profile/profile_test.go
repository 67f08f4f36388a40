package profile

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"pgss/internal/bbv"
	"pgss/internal/cpu"
	"pgss/internal/isa"
	"pgss/internal/pgsserrors"
	"pgss/internal/program"
)

// computeProgram builds a deterministic compute loop of ~12·iters ops.
func computeProgram(t *testing.T, iters int64) *program.Program {
	t.Helper()
	b := program.NewBuilder("prof_test")
	b.LoadImm(isa.S0, iters)
	b.Label("loop")
	for i := 0; i < 10; i++ {
		b.OpI(isa.ADDI, isa.Reg(8+i%4), isa.Zero, int64(i))
	}
	b.OpI(isa.ADDI, isa.S0, isa.S0, -1)
	b.Branch(isa.BNE, isa.S0, isa.Zero, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// memProgram is computeProgram with a load and a store in the loop body, so
// the MAV channel has accesses to count.
func memProgram(t testing.TB, iters int64) *program.Program {
	t.Helper()
	b := program.NewBuilder("prof_mem_test")
	b.AllocData(64)
	b.LoadImm(isa.S0, iters)
	b.LoadImm(isa.S1, int64(program.DataAddr(0)))
	b.Label("loop")
	for i := 0; i < 8; i++ {
		b.OpI(isa.ADDI, isa.Reg(8+i%4), isa.Zero, int64(i))
	}
	b.Load(isa.T0, isa.S1, 0)
	b.Store(isa.T0, isa.S1, 8)
	b.OpI(isa.ADDI, isa.S0, isa.S0, -1)
	b.Branch(isa.BNE, isa.S0, isa.Zero, "loop")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func record(t *testing.T, prog *program.Program, cfg Config) *Profile {
	t.Helper()
	core, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := RecordContext(context.Background(), core, bbv.MustNewHash(5, 42), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{FineOps: 0, BBVOps: 10},
		{FineOps: 10, BBVOps: 0},
		{FineOps: 300, BBVOps: 1000}, // not a multiple
	}
	for _, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("accepted bad config %+v", cfg)
		}
	}
	if DefaultConfig().Validate() != nil {
		t.Error("default config invalid")
	}
}

func TestRecordConservation(t *testing.T) {
	prog := computeProgram(t, 5000) // 12 ops/iter ≈ 60k ops
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})

	// Sum of fine-interval cycles equals total cycles.
	var cycles uint64
	for _, c := range p.Cycles {
		cycles += uint64(c)
	}
	if cycles != p.TotalCycles {
		t.Errorf("cycle conservation: %d vs %d", cycles, p.TotalCycles)
	}
	// Fine interval count covers all ops.
	wantIntervals := (p.TotalOps + 999) / 1000
	if uint64(len(p.Cycles)) != wantIntervals {
		t.Errorf("fine intervals: %d, want %d", len(p.Cycles), wantIntervals)
	}
	// Tail size consistent.
	if tail := p.TotalOps % 1000; tail != p.TailOps {
		t.Errorf("tail = %d, want %d", p.TailOps, tail)
	}
	// Raw BBV total weight is close to total ops (pending ops at the end
	// are the only loss).
	whole, err := readWindow(p.BBVWindowInto, p.HashBits, 0, (p.TotalOps/5000+1)*5000)
	if err != nil {
		t.Fatal(err)
	}
	var weight float64
	for _, x := range whole {
		weight += x
	}
	if weight < float64(p.TotalOps)*0.99 || weight > float64(p.TotalOps)+1 {
		t.Errorf("BBV weight = %g of %d ops", weight, p.TotalOps)
	}
}

func TestIPCWindowMatchesTrueIPC(t *testing.T) {
	prog := computeProgram(t, 5000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})
	whole, err := p.IPCWindow(0, (p.TotalOps/1000+1)*1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(whole-p.TrueIPC()) > 1e-9 {
		t.Errorf("whole-window IPC %g vs true %g", whole, p.TrueIPC())
	}
}

func TestWindowsPartitionCycles(t *testing.T) {
	prog := computeProgram(t, 8000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 4000})
	var cycles, ops uint64
	for start := uint64(0); start < p.TotalOps; start += 7000 {
		c, o, err := p.CyclesWindow(start, 7000)
		if err != nil {
			t.Fatal(err)
		}
		cycles += c
		ops += o
	}
	if cycles != p.TotalCycles || ops != p.TotalOps {
		t.Errorf("partition: %d/%d cycles, %d/%d ops", cycles, p.TotalCycles, ops, p.TotalOps)
	}
}

func TestUnalignedWindowErrors(t *testing.T) {
	prog := computeProgram(t, 2000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 2000})
	if _, err := p.IPCWindow(500, 1000); !errors.Is(err, pgsserrors.ErrMisalignedWindow) {
		t.Errorf("unaligned IPCWindow: got %v, want ErrMisalignedWindow", err)
	}
	if _, err := readWindow(p.BBVWindowInto, p.HashBits, 0, 3000); !errors.Is(err, pgsserrors.ErrMisalignedWindow) {
		t.Errorf("unaligned BBVWindowInto: got %v, want ErrMisalignedWindow", err)
	}
	if _, _, err := p.CyclesWindow(0, 500); !errors.Is(err, pgsserrors.ErrMisalignedWindow) {
		t.Errorf("unaligned CyclesWindow: got %v, want ErrMisalignedWindow", err)
	}
}

func TestBBVSeriesNormalized(t *testing.T) {
	prog := computeProgram(t, 20000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 2000})
	series, err := p.BBVSeries(4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("empty series")
	}
	// All full windows are unit vectors; the trailing partial window may
	// be zero if no taken branch retired in it.
	for i := 0; i < p.NumFullWindows(4000) && i < len(series); i++ {
		if math.Abs(series[i].Norm()-1) > 1e-9 {
			t.Errorf("series[%d] norm = %g", i, series[i].Norm())
		}
	}
	// A homogeneous loop: consecutive BBVs nearly identical.
	if ang := series[0].Angle(series[1]); ang > 0.01 {
		t.Errorf("homogeneous loop BBV angle = %g", ang)
	}
}

func TestBBVWindowAggregation(t *testing.T) {
	prog := computeProgram(t, 20000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 2000})
	// Aggregating two windows equals the sum of raws.
	w, err := readWindow(p.BBVWindowInto, p.HashBits, 0, 4000)
	if err != nil {
		t.Fatal(err)
	}
	manual, _ := readWindow(p.BBVWindowInto, p.HashBits, 0, 2000)
	second, _ := readWindow(p.BBVWindowInto, p.HashBits, 2000, 2000)
	manual.Add(second)
	if !reflect.DeepEqual(w, manual) {
		t.Fatalf("4000-op window %v != sum of its 2000-op windows %v", w, manual)
	}
}

func TestIPCSeriesLengths(t *testing.T) {
	prog := computeProgram(t, 20000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 2000})
	f := func(mult uint8) bool {
		g := (uint64(mult%10) + 1) * 1000
		series, err := p.IPCSeries(g)
		if err != nil {
			return false
		}
		want := (p.TotalOps + g - 1) / g
		return uint64(len(series)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestFullWindowSeries: both series stop at the last full window, and
// agree with the uncut series before it.
func TestFullWindowSeries(t *testing.T) {
	prog := computeProgram(t, 20000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 2000})
	const gran = 6000
	ipcs, bbvs, err := p.FullWindowSeries(gran)
	if err != nil {
		t.Fatal(err)
	}
	n := p.NumFullWindows(gran)
	if p.TotalOps%gran == 0 || len(ipcs) != n || len(bbvs) != n {
		t.Fatalf("%d ops at %d: %d IPCs, %d BBVs, want %d full windows",
			p.TotalOps, gran, len(ipcs), len(bbvs), n)
	}
	allIPCs, _ := p.IPCSeries(gran)
	allBBVs, _ := p.BBVSeries(gran)
	if !reflect.DeepEqual(ipcs, allIPCs[:n]) || !reflect.DeepEqual(bbvs, allBBVs[:n]) {
		t.Error("cut series differ from the uncut ones")
	}
	if _, _, err := p.FullWindowSeries(3000); !errors.Is(err, pgsserrors.ErrMisalignedWindow) {
		t.Errorf("granularity off the BBV grid: got %v, want ErrMisalignedWindow", err)
	}
}

func TestIntervalStdDevFlatLoop(t *testing.T) {
	prog := computeProgram(t, 50000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 2000})
	// A single homogeneous loop: tiny interval σ (warmup aside).
	sigma, err := p.IntervalStdDev(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if sigma > 0.2 {
		t.Errorf("flat loop σ = %g", sigma)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	prog := computeProgram(t, 5000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})
	path := filepath.Join(t.TempDir(), "sub", "p.profile")
	if err := p.SaveFS(nil, path); err != nil {
		t.Fatal(err)
	}
	q, err := LoadFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if q.TotalOps != p.TotalOps || q.TotalCycles != p.TotalCycles ||
		len(q.Cycles) != len(p.Cycles) || len(q.bbvRows) != len(p.bbvRows) ||
		q.Benchmark != p.Benchmark || q.TailOps != p.TailOps {
		t.Error("round trip lost data")
	}
	if q.TrueIPC() != p.TrueIPC() {
		t.Error("round trip changed IPC")
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := LoadFS(nil, filepath.Join(t.TempDir(), "absent"))
	if err == nil {
		t.Error("loading a missing file succeeded")
	}
	// Missing files keep their os error (so callers can distinguish a cold
	// cache from a corrupt one) and are NOT classified as corruption.
	if !os.IsNotExist(err) {
		t.Errorf("missing file error = %v, want os.IsNotExist", err)
	}
	if errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Error("missing file misclassified as cache corruption")
	}
}

func TestLoadTruncatedFileIsCorrupt(t *testing.T) {
	prog := computeProgram(t, 5000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})
	path := filepath.Join(t.TempDir(), "p.profile")
	if err := p.SaveFS(nil, path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFS(nil, path); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Errorf("truncated profile: got %v, want ErrCacheCorrupt", err)
	}
}

func TestLoadGarbageFileIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.profile")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFS(nil, path); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
		t.Errorf("garbage profile: got %v, want ErrCacheCorrupt", err)
	}
}

func TestCheckIntegrity(t *testing.T) {
	prog := computeProgram(t, 5000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})
	if err := p.CheckIntegrity(); err != nil {
		t.Fatalf("fresh profile fails integrity: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(q *Profile)
	}{
		{"truncated cycles", func(q *Profile) { q.Cycles = q.Cycles[:len(q.Cycles)-1] }},
		{"truncated bbvs", func(q *Profile) { q.bbvRows = q.bbvRows[:0] }},
		{"bbv row short", func(q *Profile) { q.bbvRows = q.bbvRows[:len(q.bbvRows)-1<<q.HashBits] }},
		{"bbv row long", func(q *Profile) { q.bbvRows = append(q.bbvRows, make([]float64, 1<<q.HashBits)...) }},
		{"hash width 0", func(q *Profile) { q.HashBits = 0 }},
		{"tail past fine interval", func(q *Profile) { q.TailOps += q.FineOps }},
		{"MAV rows without width", func(q *Profile) { q.mavRows = q.bbvRows }},
		{"cycle sum mismatch", func(q *Profile) { q.TotalCycles += 7 }},
		{"zero ops", func(q *Profile) { q.TotalOps = 0 }},
	}
	for _, m := range mutations {
		// Field-wise copy: Profile embeds a sync.Once and must not be
		// copied as a value.
		q := Profile{
			Benchmark: p.Benchmark, HashBits: p.HashBits,
			FineOps: p.FineOps, BBVOps: p.BBVOps,
			TotalOps: p.TotalOps, TotalCycles: p.TotalCycles, TailOps: p.TailOps,
			Cycles:  append([]uint32(nil), p.Cycles...),
			bbvRows: append([]float64(nil), p.bbvRows...),
		}
		m.mut(&q)
		if err := q.CheckIntegrity(); !errors.Is(err, pgsserrors.ErrCacheCorrupt) {
			t.Errorf("%s: got %v, want ErrCacheCorrupt", m.name, err)
		}
	}
}

func TestRecordContextCancelled(t *testing.T) {
	prog := computeProgram(t, 1_000_000)
	core, err := cpu.NewCore(cpu.MustNewMachine(prog), cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RecordContext(ctx, core, bbv.MustNewHash(5, 42), Config{FineOps: 1000, BBVOps: 5000})
	if !errors.Is(err, pgsserrors.ErrBudgetExceeded) {
		t.Errorf("cancelled recording: got %v, want ErrBudgetExceeded", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled recording does not wrap context.Canceled: %v", err)
	}
}

// readWindow reads one window through a channel's Into reader (hashed to
// bits bits) into a fresh vector; a window past the end of the program
// reads (nil, nil).
func readWindow(into func(bbv.Vector, uint64, uint64) (bool, error), bits int, start, ops uint64) (bbv.Vector, error) {
	dst := make(bbv.Vector, 1<<bits)
	if ok, err := into(dst, start, ops); !ok {
		return nil, err
	}
	return dst, nil
}

// TestMAVWindowAggregation: MAV windows are sums of the recorded per-period
// raw vectors (mirroring TestBBVWindowAggregation), misaligned requests
// fail, and requests past the end return nil.
func TestMAVWindowAggregation(t *testing.T) {
	prog := memProgram(t, 3000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000, MAVBits: bbv.DefaultMAVBits, MAVSeed: DefaultMAVSeed})
	if !p.HasMAV() {
		t.Fatal("no MAV channel recorded")
	}
	mav := func(start, ops uint64) (bbv.Vector, error) {
		return readWindow(p.MAVWindowInto, p.MAVBits, start, ops)
	}
	two, err := mav(0, 2*p.BBVOps)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := mav(0, p.BBVOps)
	second, _ := mav(p.BBVOps, p.BBVOps)
	want.Add(second)
	if !reflect.DeepEqual(two, want) {
		t.Fatalf("2-period MAV window %v != sum of raw %v", two, want)
	}
	if _, err := mav(1, p.BBVOps); err == nil {
		t.Error("misaligned MAV window accepted")
	}
	past, err := mav((p.TotalOps/p.BBVOps+10)*p.BBVOps, p.BBVOps)
	if err != nil || past != nil {
		t.Errorf("past-end MAV window: %v, %v; want nil, nil", past, err)
	}

	// A MAV-less profile must reject the channel outright.
	bare := record(t, prog, Config{FineOps: 1000, BBVOps: 5000})
	if _, err := readWindow(bare.MAVWindowInto, bare.MAVBits, 0, bare.BBVOps); err == nil {
		t.Error("MAV window on a MAV-less profile accepted")
	}
}

// TestSignatureWindowChannels: per-channel signatures are unit vectors of
// the right width, and the concatenated signature stacks BBV then MAV.
func TestSignatureWindowChannels(t *testing.T) {
	prog := memProgram(t, 3000)
	p := record(t, prog, Config{FineOps: 1000, BBVOps: 5000, MAVBits: bbv.DefaultMAVBits, MAVSeed: DefaultMAVSeed})
	widths := map[bbv.Channel]int{
		bbv.ChannelBBV:  1 << p.HashBits,
		bbv.ChannelMAV:  1 << p.MAVBits,
		bbv.ChannelBoth: 1<<p.HashBits + 1<<p.MAVBits,
	}
	for ch, width := range widths {
		sig, err := p.SignatureWindow(ch, 0, p.BBVOps)
		if err != nil {
			t.Fatalf("%v: %v", ch, err)
		}
		if len(sig) != width {
			t.Errorf("%v: signature width %d, want %d", ch, len(sig), width)
		}
		if n := sig.Norm(); math.Abs(n-1) > 1e-9 {
			t.Errorf("%v: signature norm %g", ch, n)
		}
	}
	if _, err := p.SignatureWindow(bbv.Channel(9), 0, p.BBVOps); err == nil {
		t.Error("invalid channel accepted")
	}
}

// TestWindowsAreSumsOfIntervals: on recorded two-channel profiles, each
// BBVOps window is the difference of its two stored rows, and every
// aligned window, short tail and past-the-end starts included, equals the
// sequential sum of its BBVOps windows bit for bit, on both channels.
func TestWindowsAreSumsOfIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sameBits := func(a, b bbv.Vector) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	for _, iters := range []int64{2999, 7001} {
		p := record(t, memProgram(t, iters), Config{FineOps: 1000, BBVOps: 3000, MAVBits: bbv.DefaultMAVBits, MAVSeed: DefaultMAVSeed})
		if p.TotalOps%p.BBVOps == 0 {
			t.Fatalf("%d ops: no short tail", p.TotalOps)
		}
		n := int(p.TotalOps/p.BBVOps) + 1 // the last interval is the tail
		for _, ch := range []struct {
			into func(bbv.Vector, uint64, uint64) (bool, error)
			bits int
			rows []float64
		}{{p.BBVWindowInto, p.HashBits, p.bbvRows}, {p.MAVWindowInto, p.MAVBits, p.mavRows}} {
			width := len(ch.rows) / (n + 1)
			raw := make([]bbv.Vector, n)
			for j := range raw {
				v, err := readWindow(ch.into, ch.bits, uint64(j)*p.BBVOps, p.BBVOps)
				if err != nil {
					t.Fatal(err)
				}
				want := make(bbv.Vector, width)
				for i := range want {
					want[i] = ch.rows[(j+1)*width+i] - ch.rows[j*width+i]
				}
				if !sameBits(v, want) {
					t.Fatalf("interval %d of %d: %v, want rows' difference %v", j, n, v, want)
				}
				raw[j] = v
			}
			for trial := 0; trial < 400; trial++ {
				j0, m := rng.Intn(n+3), 1+rng.Intn(n+2)
				got, err := readWindow(ch.into, ch.bits, uint64(j0)*p.BBVOps, uint64(m)*p.BBVOps)
				if err != nil {
					t.Fatal(err)
				}
				var want bbv.Vector
				if j0 < n {
					want = raw[j0].Clone()
					for _, v := range raw[j0+1 : min(j0+m, n)] {
						want.Add(v)
					}
				}
				if !sameBits(got, want) {
					t.Fatalf("window j0=%d m=%d of %d: %v, want %v", j0, m, n, got, want)
				}
			}
		}
	}
}
