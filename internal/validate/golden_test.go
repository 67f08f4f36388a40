package validate

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"testing"

	"pgss/internal/bbv"
	"pgss/internal/checkpoint"
	"pgss/internal/core"
	"pgss/internal/cpu"
	"pgss/internal/faultinject"
	"pgss/internal/isa"
	"pgss/internal/parallel"
	"pgss/internal/profile"
	"pgss/internal/program"
	"pgss/internal/sampling"
	"pgss/internal/trace"
	"pgss/internal/workload"
)

// goldenOps is the program length every golden path runs at: long enough
// for multi-phase runs, adaptive restarts and several checkpoints, short
// enough that the whole test takes a few seconds.
const goldenOps = 2_000_000

// goldenDigests pins, per benchmark, the SHA-256 of the %#v rendering (or
// the saved bytes) of every engine path's output. The values were taken
// from the engine before its stepping loops were folded into one kernel
// and the adaptive variant moved onto the shared controller; any drift in
// a result, a statistic, a recorded artifact or a trace bundle fails here.
// The "replay/" values were taken before the replay techniques shared one
// interval population and one SMARTS pass. "profile" and "checkpoints"
// hash file bytes, so they move with the profile and library container
// versions (their values are profile container v3's and library container
// v3's); "profile/windows" and "checkpoints/state" pin what those files
// yield and restore, which must not move.
var goldenDigests = map[string]map[string]string{
	"164.gzip": {
		"profile":               "22889cc8e43bf85d753fe740301fa3ea3578dea15d81083b378ce23352e7b4c4",
		"profile/windows":       "a3fce8129464074e310c49d16f22a62874aaf9b8d60f5f41eb444f607ace344c",
		"checkpoints":           "6e75c790a8f84bc69b9ad57def98683336097f19db9aa4bc68d5e35e061009f7",
		"checkpoints/state":     "b096311bded859a048f92352e335ec646275adc536b26ded802cfef230fe48c6",
		"run/default":           "dbdecc89e8f00d2a7178280f1634909f2f55a1d5b64ec66ae63966802b1d3fd2",
		"run/guard-trace":       "5924530cbd1b261ddd6e97ab873256e1f44c1459d33d9a97134c32383b0a1358",
		"adaptive/default":      "94ad212b644dd6b0f2c332c5c3839ac37a0156645c1b2803f9be1906cd798590",
		"adaptive/restart":      "41a63a48269ba7c9a50bf63d646e95e96db3c586fe76f02de80bbaf6c0153489",
		"parallel/live":         "156a7b3819772b8fd296b2a942326f9485d7297e26a8a343403b1a12735a22c3",
		"phasetraces":           "4e70d65a939d3f15d90c04449e15cb56d9e45eb3afa12fa8e34990155520326f",
		"replay/SMARTS":         "45e7ac59b6f1d836c62acc8d9f3959379eeea63c4f6d5f84ae1a8c85e861a82f",
		"replay/TurboSMARTS":    "f8d3219d1c27f2fa54c1143a0c90c7438acb3fb66c939bd118f3fc36d9140c2e",
		"replay/Stratified":     "0b4c731cbb2d2a5ff830fe412842f4b51bf38bc31d1a1a141757eb77e4c9632c",
		"replay/2PSS":           "6a9ecb2ae00eebd0d9e7f08c3470e3af00c907982b72dc643ea54f27ae31e736",
		"replay/2PSS/mav":       "e3c31cb7b8efc9b2dddb3f4449f766160c5cd67be9224d4b0cf7942fb70fd457",
		"replay/RSS":            "f8997ecf9341f4b513fb0921dd401978ab6d91b6116e16a335d5911106013983",
		"replay/RSS/mav":        "a1a410b3fd0443deed6b70e432eeca26398272e4b3414713173ffd0b7373377f",
		"replay/SimPoint":       "b73be757e9e13abb87da754d5b77c174d351eed30d6bcb0c5577eadb53195ab2",
		"replay/OnlineSimPoint": "3023aa4ca4b9b54f853faa590031a982a1a8e15c6431b10922fd9143ffa9a9ea",
	},
	"179.art": {
		"profile":               "870216351070657332d1d7a2e8c27c944be889a02996bebe4bdf98bba14dbe99",
		"profile/windows":       "a9b19d8d0346f07a8ea1af7052ea69fff2c2ff5c238fdf9a9087115e6eec7fe8",
		"checkpoints":           "0aa8a61aba0c521d16e1686eb7d6eed14d78b8441661e4355df0d68e65850de1",
		"checkpoints/state":     "d62b7f8acb32b7d5ada40507790a24c9b7c4140ab2bafc3c71bdbeb69c8f26bc",
		"run/default":           "bf69456b41785bac06d5fed0654b9635d862b373ab16d506425e43a49aa3146d",
		"run/guard-trace":       "4663a5b55fc82b7f136055f978dda2a9c9274d139010feeb66c8ee93d2669217",
		"adaptive/default":      "30a74e57023b8a6d03e740b060f7ccc80602cd38c2817d069a5186eed46284ff",
		"adaptive/restart":      "2f13e810a1776a3e08320491d4123b7ce24b5aab8d3edab4729103f06c7b15bb",
		"parallel/live":         "e469d4b3839050b43b4d6727e7250b20f13800599924040be3789aba0f28d9eb",
		"phasetraces":           "44fed2070332b78a5a355a1fe3eb64bf2a2d109ffee66a27fa45c48652b143b9",
		"replay/SMARTS":         "ca27ec4c36cd1d0963bd6515c5427dc78304b12e5197467eade4a5c2dbf77b2b",
		"replay/TurboSMARTS":    "35171b659f817314865a29d4092370a394e8cb128a6f28b8bcf4e19e67e5bd98",
		"replay/Stratified":     "838268d8a5ae011e2b4e3c10125bc93b42bdea4524ea309fd7a32db4e9b7c869",
		"replay/2PSS":           "fe4bdcad495ccf580065bcd42fb077a05f6d2eb3cce51db7a547bf792708f9a4",
		"replay/2PSS/mav":       "19720d583171d353b5d0f2a2b91a4416da10170b76d3b403847fe0f5dc331a01",
		"replay/RSS":            "8ddba0d79c1918993d1b7c0a5df792be71e31678f891f27ce32db6a51fc9f76d",
		"replay/RSS/mav":        "f073e00efb1678ac3ea3ff7bbebffa85ee550f3c5dbe15bd22600172b44afd77",
		"replay/SimPoint":       "3eb7e5ba1232f9a55b9e3cc4f2b8adfab866f09e977bd8b97d7959b3dbabaa0c",
		"replay/OnlineSimPoint": "26c80907efe346e898baff9911d1788552cd0c99a2c4b6ad1018a5e207831a70",
	},
	"181.mcf": {
		"profile":               "b6588d8732912686023e227e2e81b96647aeed64e4fa67fc90d8b4a9114531cc",
		"profile/windows":       "44224c2591793d40795059516645fb72e6e610148af47af5795c19e1003bc434",
		"checkpoints":           "46c2bdce85350592abc8bc98610b8241f0e4b105d47c4ea28bd2ba411e0b7029",
		"checkpoints/state":     "2f361b06c539ddf9dd268f6f327b2744caf19f5b6cce9fc9719a15f912254584",
		"run/default":           "f802eeca1532a8f4ca5dcf160b08ccadc4c1f631bb985fc0ad6ff7eb810f0c0e",
		"run/guard-trace":       "3bce383b9a43c90957f1a3c5ab562c8d4464b4db46a369cad567b205ba456e35",
		"adaptive/default":      "038090c3ae0f259f290162a234aa5a26a082faeca738d6709b43c5f01d329619",
		"adaptive/restart":      "a4c60989195a923e551ce966e28ce82d5c6006d21a196abaaf60e5edacf500ec",
		"parallel/live":         "89f8ca58dde3f619cf7676630cf6128d7096d629a250b7d414d0db897878c10b",
		"phasetraces":           "c88b22df44e3a5ee3eaf75f2473f16ef8ecddf1204a7f845e206004ff1c07f08",
		"replay/SMARTS":         "5c6c463c571665152e018375ee5feb64b4ccab4171fabc66ab41da87b242271e",
		"replay/TurboSMARTS":    "04a674884086d0ebfa9d58bd5a035fde6b60ab2d0bb8cd75b97a001d7b0edcf9",
		"replay/Stratified":     "e9ef8d9c509c1058035eeb3338d68855359b8218a7b074401af8378553bbd53b",
		"replay/2PSS":           "f2be9815a957703415cab311232ca617e1dcf9cf88a684bc0e0fad17ee5c2cc2",
		"replay/2PSS/mav":       "523a2d7c2bfcc9c934848a8ec94333b79664159018f374fc9dd9bf811a83bc8d",
		"replay/RSS":            "29b2d1851c98093101b0cc510e8222e1d0e04410be5fb00193f47dc679f094c2",
		"replay/RSS/mav":        "d97d98f730ae729699997fa9e5729197e0d38f3261ba9190266976350c071866",
		"replay/SimPoint":       "7f4110c54cd8590446a4f05a86eca023bf92ae22e0e278d6141c0dbcd6d3d198",
		"replay/OnlineSimPoint": "557af9d11d8a20e2c418df304691f35d0b7bf8152265eb2fbbf8693124c9e57a",
	},
}

func TestGoldenEngineDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("records and simulates three benchmarks")
	}
	for _, name := range []string{"164.gzip", "179.art", "181.mcf"} {
		t.Run(name, func(t *testing.T) {
			got := engineDigests(t, name)
			want := goldenDigests[name]
			for _, path := range goldenPaths {
				if got[path] != want[path] {
					t.Errorf("%s: digest %s, golden %s", path, got[path], want[path])
				}
			}
		})
	}
}

// goldenPaths lists the pinned engine paths in report order.
var goldenPaths = []string{
	"profile", "profile/windows", "checkpoints", "checkpoints/state",
	"run/default", "run/guard-trace",
	"adaptive/default", "adaptive/restart",
	"parallel/live", "phasetraces",
	"replay/SMARTS", "replay/TurboSMARTS", "replay/Stratified",
	"replay/2PSS", "replay/2PSS/mav", "replay/RSS", "replay/RSS/mav",
	"replay/SimPoint", "replay/OnlineSimPoint",
}

func digest(write func(w io.Writer) error) (string, error) {
	h := sha256.New()
	if err := write(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func digestOf(vs ...any) string {
	d, _ := digest(func(w io.Writer) error {
		for _, v := range vs {
			fmt.Fprintf(w, "%#v\n", v)
		}
		return nil
	})
	return d
}

// savedDigest hashes the bytes save writes to path on an in-memory
// filesystem.
func savedDigest(save func(fsys faultinject.FS, path string) error) (string, error) {
	fsys := faultinject.NewMemFS()
	if err := save(fsys, "artifact"); err != nil {
		return "", err
	}
	data, err := fsys.ReadFile("artifact")
	if err != nil {
		return "", err
	}
	return digest(func(w io.Writer) error { _, err := w.Write(data); return err })
}

// restoredStateDigest saves lib, loads it back, restores every checkpoint
// into a fresh core of prog and hashes the core's state through its public
// accessors. Unlike the "checkpoints" digest it does not depend on how the
// library container lays its bytes out, only on what it restores.
func restoredStateDigest(t *testing.T, lib *checkpoint.Library, prog *program.Program) (string, error) {
	fsys := faultinject.NewMemFS()
	if err := lib.Save(fsys, "artifact"); err != nil {
		return "", err
	}
	loaded, err := checkpoint.Load(fsys, "artifact")
	if err != nil {
		return "", err
	}
	return digest(func(w io.Writer) error {
		word := make([]byte, 8)
		put := func(v uint64) error {
			binary.LittleEndian.PutUint64(word, v)
			_, err := w.Write(word)
			return err
		}
		for k := 0; k < loaded.Len(); k++ {
			pos := uint64(k) * loaded.StrideOps()
			ck := loaded.Nearest(pos)
			if ck.Ops != pos {
				return fmt.Errorf("checkpoint %d at op %d, want %d", k, ck.Ops, pos)
			}
			c := newGoldenCore(t, prog)
			if err := ck.Restore(c); err != nil {
				return err
			}
			for r := 0; r < isa.NumRegs; r++ {
				if err := put(uint64(c.M.Reg(isa.Reg(r)))); err != nil {
					return err
				}
			}
			for i := range prog.Data {
				if err := put(uint64(c.M.DataWord(i))); err != nil {
					return err
				}
			}
			fmt.Fprintf(w, "%d %d %v %d\n", c.M.PC(), c.M.Retired(), c.M.Halted(), c.M.WildAccesses)
			fmt.Fprintf(w, "%#v\n%#v\n%#v\n", c.Hier.L1I.Snapshot(), c.Hier.L1D.Snapshot(), c.Hier.L2.Snapshot())
			fmt.Fprintf(w, "%#v\n%#v\n%d\n", c.BP.Snapshot(), c.T.Snapshot(), c.Hier.MemAccesses)
		}
		return nil
	})
}

// windowsDigest saves p, loads it back and hashes the bits of every BBV
// and MAV window of the loaded profile at BBVOps and at 100k ops, the short
// last window included. Unlike the "profile" digest it does not depend on
// how the profile container lays its bytes out, only on what it yields.
func windowsDigest(p *profile.Profile) (string, error) {
	fsys := faultinject.NewMemFS()
	if err := p.SaveFS(fsys, "artifact"); err != nil {
		return "", err
	}
	loaded, err := profile.LoadFS(fsys, "artifact")
	if err != nil {
		return "", err
	}
	return digest(func(w io.Writer) error {
		word := make([]byte, 8)
		for _, gran := range []uint64{loaded.BBVOps, 100_000} {
			for start := uint64(0); start < loaded.TotalOps; start += gran {
				b, err := loaded.BBVWindow(start, gran)
				if err != nil {
					return err
				}
				m, err := loaded.MAVWindow(start, gran)
				if err != nil {
					return err
				}
				for _, v := range []bbv.Vector{b, m} {
					for _, x := range v {
						binary.LittleEndian.PutUint64(word, math.Float64bits(x))
						if _, err := w.Write(word); err != nil {
							return err
						}
					}
				}
			}
		}
		return nil
	})
}

func newGoldenCore(t *testing.T, prog *program.Program) *cpu.Core {
	t.Helper()
	m, err := cpu.NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.NewCore(m, cpu.DefaultCoreConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// runAdaptive calls core.RunAdaptive under either of its signatures (with
// or without a leading context), so the pinned digests stay comparable
// across the change that made it context-aware.
func runAdaptive(t sampling.Target, cfg core.AdaptiveConfig) (sampling.Result, core.AdaptiveStats, error) {
	switch run := any(core.RunAdaptive).(type) {
	case func(sampling.Target, core.AdaptiveConfig) (sampling.Result, core.AdaptiveStats, error):
		return run(t, cfg)
	case func(context.Context, sampling.Target, core.AdaptiveConfig) (sampling.Result, core.AdaptiveStats, error):
		return run(context.Background(), t, cfg)
	}
	panic("validate: unexpected core.RunAdaptive signature")
}

func engineDigests(t *testing.T, name string) map[string]string {
	ctx := context.Background()
	spec, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spec.Build(goldenOps)
	if err != nil {
		t.Fatal(err)
	}
	hash := bbv.MustNewHash(bbv.DefaultHashBits, 42)
	mavHash := bbv.MustNewMAVHash(bbv.DefaultMAVBits, 42)
	out := map[string]string{}
	check := func(path string, d string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[path] = d
	}

	p, err := profile.RecordContext(ctx, newGoldenCore(t, prog), hash, profile.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := savedDigest(p.SaveFS)
	check("profile", d, err)
	d, err = windowsDigest(p)
	check("profile/windows", d, err)

	lib, err := checkpoint.Record(newGoldenCore(t, prog), 200_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err = savedDigest(lib.Save)
	check("checkpoints", d, err)
	d, err = restoredStateDigest(t, lib, prog)
	check("checkpoints/state", d, err)

	cfg := core.DefaultConfig(10)
	res, st, err := core.RunContext(ctx, sampling.NewProfileTarget(p), cfg)
	check("run/default", digestOf(res, st), err)

	guard := cfg
	guard.GuardTransitions, guard.Trace = true, true
	res, st, err = core.RunContext(ctx, sampling.NewProfileTarget(p), guard)
	check("run/guard-trace", digestOf(res, st), err)

	// The per-phase slices are left out: the adaptive variant did not
	// report them before it shared the controller's ledger.
	adaptive := func(acfg core.AdaptiveConfig) (string, error) {
		res, ast, err := runAdaptive(sampling.NewProfileTarget(p), acfg)
		ast.PerPhaseSamples, ast.PhaseDiags = nil, nil
		return digestOf(res, ast), err
	}
	acfg := core.DefaultAdaptiveConfig(10)
	d, err = adaptive(acfg)
	check("adaptive/default", d, err)
	acfg.Base.FFOps, acfg.Base.SpreadOps, acfg.MaxFFOps = 10_000, 10_000, 1_600_000
	d, err = adaptive(acfg)
	check("adaptive/restart", d, err)

	both := cfg
	both.Channel = bbv.ChannelBoth
	src, err := parallel.NewLiveSource(lib, hash, mavHash, prog, cpu.DefaultCoreConfig(), p.TotalOps, p.TrueIPC())
	if err != nil {
		t.Fatal(err)
	}
	res, st, err = parallel.Run(ctx, src, both, parallel.Options{Shards: 2, SampleWorkers: 2})
	check("parallel/live", digestOf(res, st), err)

	var bundles [2][]trace.PhaseTrace
	for i, policy := range []trace.RepPolicy{trace.RepFirst, trace.RepMedian} {
		bundles[i], err = trace.PhaseTraces(prog, cpu.DefaultCoreConfig(), hash, 100_000, 0.05*math.Pi, policy)
		if err != nil {
			t.Fatal(err)
		}
	}
	check("phasetraces", digestOf(bundles), nil)

	replayDigests(p, check)
	return out
}

// goldenSeeds are the seeds every seeded replay technique runs at.
var goldenSeeds = []int64{1, 2, 3, 4, 5}

// replayDigests pins the replay techniques on p: each at its scale-10
// default, 2PSS and RSS again on the MAV channel, SimPoint at its
// 100k-op/k=5 sweep entry and online SimPoint at 100k-op intervals. A
// seeded technique's digest covers its results at every goldenSeeds seed.
func replayDigests(p *profile.Profile, check func(path, d string, err error)) {
	seeded := func(path string, run func(seed int64) (sampling.Result, error)) {
		var rs []any
		for _, seed := range goldenSeeds {
			r, err := run(seed)
			if err != nil {
				check(path, "", err)
				return
			}
			rs = append(rs, r)
		}
		check(path, digestOf(rs...), nil)
	}
	res, err := sampling.SMARTS(sampling.NewProfileTarget(p), sampling.DefaultSMARTSConfig(10))
	check("replay/SMARTS", digestOf(res), err)
	seeded("replay/TurboSMARTS", func(seed int64) (sampling.Result, error) {
		cfg := sampling.DefaultTurboSMARTSConfig(10)
		cfg.Seed = seed
		return sampling.TurboSMARTS(p, cfg)
	})
	seeded("replay/Stratified", func(seed int64) (sampling.Result, error) {
		cfg := sampling.DefaultStratifiedConfig(10)
		cfg.Seed = seed
		return sampling.Stratified(p, cfg)
	})
	for _, ch := range []bbv.Channel{bbv.ChannelBBV, bbv.ChannelMAV} {
		suffix := ""
		if ch == bbv.ChannelMAV {
			suffix = "/mav"
		}
		seeded("replay/2PSS"+suffix, func(seed int64) (sampling.Result, error) {
			cfg := sampling.DefaultTwoPhaseConfig(10)
			cfg.Channel, cfg.Seed = ch, seed
			return sampling.TwoPhase(p, cfg)
		})
		seeded("replay/RSS"+suffix, func(seed int64) (sampling.Result, error) {
			cfg := sampling.DefaultRankedSetConfig(10)
			cfg.Channel, cfg.Seed = ch, seed
			return sampling.RankedSet(p, cfg)
		})
	}
	seeded("replay/SimPoint", func(seed int64) (sampling.Result, error) {
		cfg := sampling.SimPointSweep(10)[0]
		cfg.Seed = seed
		return sampling.SimPoint(p, cfg)
	})
	res, err = sampling.OnlineSimPoint(p, sampling.OnlineSimPointConfig{IntervalOps: 100_000, ThresholdPi: 0.10})
	check("replay/OnlineSimPoint", digestOf(res), err)
}
