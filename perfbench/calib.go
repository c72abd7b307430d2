package main

import (
	"math/rand/v2"
	"runtime"
	"slices"
	"time"
)

// Host-speed calibration. The host the benchmark was tuned on shares its
// cores with other tenants; its speed drifts by ±25% over tens of seconds,
// in thread CPU time as much as in wall time, so a CPU-bound metric read
// on its own moves from run to run with the neighbours. CPU-bound metrics
// are therefore scaled by the speed of a fixed reference kernel, which
// uses no repository code, measured in the same run:
//
//   - steady, a single goroutine, runs one reference operation after every
//     slice and scales by the operations' speed taken with the same
//     estimator as the slices (the fast end of the distribution);
//   - churn and explore keep every CPU busy, so a tracker thread times one
//     reference operation in its own CPU time every few milliseconds while
//     each batch, exhaustion or set-up runs, and scales it by the mean.
//
// A tracker alone left steady's speeds 1.7 to 3.3 times as spread
// between runs as the in-loop operations do. Every raw value is printed
// too, on the "raw" line.
//
// The reference still shares the host's cores and caches with the program
// under test, so a change that loads them harder can slow it too and have
// part of its cost divided out; the raw line shows such a change in full.

// refSize is the number of integers one reference operation sorts.
const refSize = 2000

// refKernel is the reference workload: sort pseudo-random integers and
// fold them into a small map — comparisons, hashing and memory traffic,
// the same kinds of work the simulator does. It allocates nothing per
// operation (its buffer, map and generator are reused), so the garbage
// collector never charges the thread that runs it for assists, however
// much the program under test allocates.
type refKernel struct {
	buf  []int
	m    map[int]int
	src  *rand.PCG
	r    *rand.Rand
	sink int // keeps the kernel's result observable
}

func newRefKernel() *refKernel {
	src := rand.NewPCG(0, 0)
	return &refKernel{buf: make([]int, refSize), m: make(map[int]int, 1024), src: src, r: rand.New(src)}
}

// op is one reference operation.
func (k *refKernel) op(seed uint64) {
	k.src.Seed(seed, seed)
	for i := range k.buf {
		k.buf[i] = int(k.r.Int64())
	}
	slices.Sort(k.buf)
	clear(k.m)
	for i, v := range k.buf {
		k.m[v&1023] += i
	}
	k.sink += len(k.m)
}

// refNominal is the reference kernel's speed at the 90th percentile of its
// wall-time bursts, in operations per second, on the tuning host
// (2-vCPU Intel Xeon VM). Steady's scaled metrics read as if measured on a
// host where the reference runs at this speed.
const refNominal = 5850.0

// calibrator collects the steady part's reference bursts, run on the
// part's own goroutine between slices.
type calibrator struct {
	k     *refKernel
	rates []float64
	ops   uint64
}

func newCalibrator() *calibrator { return &calibrator{k: newRefKernel()} }

// sample runs one reference operation and keeps its speed.
func (c *calibrator) sample() {
	t0 := time.Now()
	c.k.op(c.ops)
	c.ops++
	c.rates = append(c.rates, 1/time.Since(t0).Seconds())
}

// host is the run's host speed relative to nominal (1 before any
// sample), taken with the same estimator as the slices it scales.
func (c *calibrator) host() float64 {
	if len(c.rates) == 0 {
		return 1
	}
	return speed(c.rates) / refNominal
}

// refNominalCPU is the reference kernel's mean speed in operations per
// CPU second on the tuning host (2-vCPU Intel Xeon VM); tracker samples
// are relative to it, so scaled metrics read as if measured on a host
// where the reference runs at this speed.
const refNominalCPU = 5200.0

// trackEvery is the tracker's sampling period.
const trackEvery = 5 * time.Millisecond

// tracker samples the host speed while an operation runs, on an OS thread
// of its own, timing each reference operation in that thread's CPU time
// so that waiting for a CPU does not count.
type tracker struct {
	stop, done chan struct{}
	speeds     []float64
}

func startTracker() *tracker {
	t := &tracker{stop: make(chan struct{}), done: make(chan struct{}), speeds: make([]float64, 0, 1024)}
	go func() {
		defer close(t.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newRefKernel()
		tick := time.NewTicker(trackEvery)
		defer tick.Stop()
		for i := uint64(0); ; i++ {
			select {
			case <-t.stop:
				return
			case <-tick.C:
			}
			c0 := threadCPU()
			k.op(i)
			if d := threadCPU() - c0; d > 0 {
				t.speeds = append(t.speeds, 1/d.Seconds())
			}
		}
	}()
	return t
}

// end stops the tracker and returns the mean host speed relative to
// nominal while it ran (1 without samples).
func (t *tracker) end() float64 {
	close(t.stop)
	<-t.done
	if len(t.speeds) == 0 {
		return 1
	}
	return mean(t.speeds) / refNominalCPU
}
