package main

import (
	"sync/atomic"
	"time"
)

// The host's speed drifts: on a shared 2-vCPU VM the same deterministic
// loop ran 30% slower in one minute than in the next, and consecutive
// engine-cold runs read 11.1s to 15.7s. Every workload therefore samples a
// fixed reference kernel, independent of the repository's code and
// allocation free (so no GC setting moves it), while the process is
// otherwise idle: between engine cells, and between the phases of a fleet
// drive. Each time is brought to the run's median speed by the samples
// around it and reported scaled by calibRefMS over the run's median kernel
// time: the time the run would have taken at the speed where the kernel
// takes calibRefMS. The raw figures and the kernel's median are printed too.
//
// calibRefMS is the kernel's typical median on the host the benchmark was
// tuned on (2 vCPUs, x86-64 at 2.0 GHz), so scaled and raw times agree
// there.
const calibRefMS = 4.4

// calibRing is the kernel's working set: a random cyclic permutation of
// 1<<16 slots (256 KB), walked by index.
var calibRing = func() []uint32 {
	const n = 1 << 16
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	ring := make([]uint32, n)
	for i := 0; i < n; i++ {
		ring[perm[i]] = perm[(i+1)%n]
	}
	return ring
}()

// calibSink keeps the kernels' results live.
var calibSink atomic.Uint64

// calibrate runs the reference kernel once and returns its time in ms.
func calibrate() float64 {
	start := time.Now()
	at := uint32(0)
	h := uint64(1469598103934665603)
	for i := 0; i < 400_000; i++ {
		at = calibRing[at]
		h = (h ^ uint64(at)) * 1099511628211
		if h&7 == 0 {
			at = calibRing[(at+uint32(h>>40))&(1<<16-1)]
		}
	}
	calibSink.Store(h)
	return ms(time.Since(start))
}

// sampleSpeed records n kernel times and returns their median.
func (r *run) sampleSpeed(n int) float64 {
	for i := 0; i < n; i++ {
		r.calib = append(r.calib, calibrate())
	}
	return median(r.calib[len(r.calib)-n:])
}

// speedFactor is calibRefMS over the run's median kernel time, or 1 when the
// run took no samples. It also records that median, unscaled, as
// calib.kernel_ms.
func (r *run) speedFactor() float64 {
	if len(r.calib) == 0 {
		return 1
	}
	k := median(r.calib)
	r.set("calib.kernel_ms", k)
	return calibRefMS / k
}
