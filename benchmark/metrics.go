package main

// metric is one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics a campaign user sees, measured untraced and
// reported as medians over a run's rounds.
var endToEnd = []metric{
	{"sim_mops_per_s", "Mops/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ipc_err_mean_pct", "%"},
	{"ipc_err_p99_pct", "%"},
	{"detailed_ops_pct", "%"},
}

// perLayer are the metrics of single layers. Most come from the traced
// round; experiments.*, campaign.* and sampling.* are medians over the
// untraced rounds. A layer a workload does not exercise reads 0 there.
func perLayer() []metric {
	ms := []metric{
		{"artifact.load_ms", "ms"},
		{"artifact.load_mb_per_s", "MB/s"},
		{"artifact.publish_mb", "MB"},
		{"artifact.publish_mb_per_s", "MB/s"},
		{"experiments.resolve_ms", "ms"},
		{"campaign.pool_util_pct", "%"},
		{"campaign.overhead_us_per_run", "us"},
	}
	for _, t := range replayTechniques {
		ms = append(ms, metric{"sampling.runs_per_s." + t, "1/s"})
	}
	return append(ms,
		metric{"profile.record_mops_per_s", "Mops/s"},
		metric{"profile.windows_per_ms", "1/ms"},
		metric{"checkpoint.record_mops_per_s", "Mops/s"},
		metric{"checkpoint.seeks", "count"},
		metric{"checkpoint.seek_warm_kops", "kops"},
		metric{"checkpoint.restore_self_pct", "%"},
		metric{"cpu.warm_mops_per_s", "Mops/s"},
		metric{"cpu.warm_self_pct", "%"},
		metric{"cpu.detailed_mops_per_s", "Mops/s"},
		metric{"cpu.detailed_self_pct", "%"},
		metric{"bbv.hash_mops_per_s", "Mops/s"},
		metric{"bbv.self_pct", "%"},
		metric{"phase.classify_ns_per_window", "ns"},
		metric{"phase.phases", "count"},
		metric{"core.advance_ns_per_window", "ns"},
		metric{"core.samples_per_window", "1/window"},
		metric{"parallel.stage1_pct", "%"},
		metric{"parallel.shard_busy_pct", "%"},
		metric{"parallel.sample_busy_pct", "%"},
		metric{"trace.attributed_pct", "%"},
		metric{"trace.overhead_pct", "%"},
	)
}

// parallelStats sums the two stages of traced parallel.Run calls: stage 1
// lasts from the call until the last shard's Windows returns, stage 2 from
// there until the call returns.
type parallelStats struct {
	span, stage1, shardBusy, sampleBusy int64
}

func (p *parallelStats) add(tr *tracer, run *span) {
	stage1End := run.Start
	for _, s := range tr.spans {
		if s.Parent != run.ID {
			continue
		}
		switch s.Name {
		case "bench.shard":
			stage1End = max(stage1End, s.End)
			p.shardBusy += s.End - s.Start
		case "bench.sample":
			p.sampleBusy += s.End - s.Start
		}
	}
	p.span += run.End - run.Start
	p.stage1 += stage1End - run.Start
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics reduces a traced round to its per-layer metrics.
func layerMetrics(tr *tracer, ds []decisions, par parallelStats) map[string]float64 {
	a := account(tr.spans)
	ns := func(name string) float64 { return float64(a.byName[name]) }
	n := func(key string) float64 { return float64(a.count[key]) }
	// Ops per nanosecond ×1000 is Mops/s; bytes per nanosecond ×1000 is MB/s.
	perNs := func(count, name string) float64 { return 1e3 * ratio(n(count), ns(name)) }
	m := map[string]float64{
		"artifact.load_ms":             ns("artifact.load") / 1e6,
		"artifact.load_mb_per_s":       perNs("artifact.load_bytes", "artifact.load"),
		"artifact.publish_mb":          n("artifact.publish_bytes") / 1e6,
		"artifact.publish_mb_per_s":    perNs("artifact.publish_bytes", "artifact.publish"),
		"profile.record_mops_per_s":    perNs("profile.record_ops", "profile.record"),
		"profile.windows_per_ms":       1e6 * ratio(n("profile.windows"), ns("profile.window")),
		"checkpoint.record_mops_per_s": perNs("checkpoint.record_ops", "checkpoint.record"),
		"checkpoint.seeks":             n("checkpoint.seeks"),
		"checkpoint.seek_warm_kops":    ratio(n("checkpoint.seek_warm_ops")/1e3, n("checkpoint.seeks")),
		"checkpoint.restore_self_pct":  a.pct("checkpoint.restore"),
		"cpu.warm_mops_per_s":          perNs("cpu.warm_ops", "cpu.warm"),
		"cpu.warm_self_pct":            a.pct("cpu.warm"),
		"cpu.detailed_mops_per_s":      perNs("cpu.detailed_ops", "cpu.detailed"),
		"cpu.detailed_self_pct":        a.pct("cpu.detailed"),
		"bbv.hash_mops_per_s":          perNs("bbv.ops", "bbv.track"),
		"bbv.self_pct":                 a.pct("bbv.track"),
		"trace.attributed_pct":         a.attributedPct(),
		"parallel.stage1_pct":          100 * ratio(float64(par.stage1), float64(par.span)),
		"parallel.shard_busy_pct":      100 * ratio(float64(par.shardBusy), float64(workers*par.stage1)),
		"parallel.sample_busy_pct":     100 * ratio(float64(par.sampleBusy), float64(workers*(par.span-par.stage1))),
	}
	var windows, samples, phases, adv, cls float64
	for _, d := range ds {
		windows += float64(d.windows)
		samples += float64(d.res.Samples)
		phases += float64(d.res.Phases)
		adv += d.advanceNs
		cls += d.classifyNs
	}
	m["phase.classify_ns_per_window"] = ratio(cls, windows)
	m["phase.phases"] = ratio(phases, float64(len(ds)))
	m["core.advance_ns_per_window"] = ratio(adv-cls, windows)
	m["core.samples_per_window"] = ratio(samples, windows)
	return m
}
