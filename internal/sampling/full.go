package sampling

import "pgss/internal/profile"

// Full runs the benchmark entirely in detailed mode — the ground-truth
// technique every sampled technique is measured against. It reads the
// profile's recorded cycles one BBV interval at a time; the short final
// interval, if any, is charged but not measured.
func Full(p *profile.Profile) (Result, error) {
	res := Result{
		Technique: "Full",
		Config:    "detailed",
		Benchmark: p.Benchmark,
		TrueIPC:   p.TrueIPC(),
	}
	var ops, cycleEquiv float64
	for pos := uint64(0); pos < p.TotalOps; pos += p.BBVOps {
		n := min(p.BBVOps, p.TotalOps-pos)
		res.Costs.Detailed += n
		if n < p.BBVOps {
			break
		}
		ipc, err := p.IPCWindow(pos, n)
		if err != nil {
			return res, err
		}
		if ipc > 0 {
			// Reconstruct cycles from the measured ratio so the combined
			// estimate is the true ops/cycles quotient.
			ops += float64(n)
			cycleEquiv += float64(n) / ipc
			res.Samples++
		}
	}
	if cycleEquiv > 0 {
		res.EstimatedIPC = ops / cycleEquiv
	}
	return res, nil
}
