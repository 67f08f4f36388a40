package main

import (
	"sync"
	"time"
)

// refStepNs is about the host kernel's fastest time per step on the 2-core
// development box (its factor there read 1.05–1.40), so a scaled timing is
// roughly what that box gives when nothing else loads it.
const refStepNs = 125

// hostKernel is a fixed load the parent times between rounds, to read how
// fast the host runs at that moment. It is no part of the program under
// test, so it costs the same at every commit.
//
// The host drifts: on the development box the CPU time of identical rounds
// rose by up to 40% for minutes at a time, with wall time tracking it, so
// run-to-run spreads of the raw timings reached 25%. The kernel slows down
// with the host, and scaling each round's timings by it cut the throughput
// spreads by a quarter to five sixths. The kernel mixes dependent random loads over 32 MB with ALU
// work, like the simulator's cache and predictor state.
type hostKernel struct {
	buf   []uint64
	steps int
	sink  uint64
}

func newHostKernel(steps int) *hostKernel {
	k := &hostKernel{buf: make([]uint64, 4<<20), steps: steps}
	x := uint64(88172645463325252)
	for i := range k.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.buf[i] = x
	}
	return k
}

// factor runs the kernel on every worker and returns its time over the
// reference time: above 1 when the host runs slower than the reference.
func (k *hostKernel) factor() float64 {
	sums := make([]uint64, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, mask := uint64(g+1), uint64(len(k.buf)-1)
			for i := 0; i < k.steps; i++ {
				x ^= k.buf[x&mask] // the next load's address depends on this one
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				x = x*0x9E3779B97F4A7C15 + uint64(i)
			}
			sums[g] = x
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, s := range sums {
		k.sink += s
	}
	return float64(elapsed) / float64(k.steps*refStepNs)
}
