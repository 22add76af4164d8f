package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's own speed drifts: on the 2-CPU VM this benchmark was tuned
// on, the CPU time one request costs moved 1.7x within minutes, with no
// hypervisor steal, and every timing moved with it. speedProbe measures
// that drift with a fixed kernel that belongs to the benchmark, not to
// the system, so that a change to the system cannot move it: an integer
// hash loop, timed in thread CPU time, which leaves out steal and
// preemption. The host flips between two speeds within seconds (the
// kernel takes ~14 or ~27 ms of CPU), so the kernel runs in every idle
// gap of a run and the run's slowdown is the mean over all its runs.
// Scaling a single segment by the samples around it was tried and read
// noisier. The end-to-end metrics a workload marks as speed-bound are
// reported at the reference speed: a time is divided by the run's
// slowdown, a rate multiplied by it. The raw values and the slowdown go
// to standard error and to the saved result.
const (
	aluRefMS  = 20.0 // one aluKernel at the reference speed, thread CPU ms
	speedReps = 5    // kernel runs per sample between phases
	aluSteps  = 12_000_000
)

type speedProbe struct {
	alu  []float64 // thread CPU ms of every kernel run
	sink uint64
}

// sample times reps runs of the kernel on one locked OS thread. Call it
// while the system is idle.
func (p *speedProbe) sample(reps int) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < reps; i++ {
		p.alu = append(p.alu, threadMS(p.aluKernel))
	}
}

func (p *speedProbe) aluKernel() {
	x, acc := uint64(1), uint64(0)
	for i := 0; i < aluSteps; i++ {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		acc += z ^ (z >> 31)
	}
	p.sink += acc
}

// slowdown is how much slower than the reference speed this run's host
// was: the kernel's mean time over its reference time (2 means half
// speed).
func (p *speedProbe) slowdown() float64 {
	sum := 0.0
	for _, ms := range p.alu {
		sum += ms
	}
	return sum / float64(len(p.alu)) / aluRefMS
}

func threadMS(f func()) float64 {
	c0 := threadCPU()
	f()
	return float64(threadCPU()-c0) / float64(time.Millisecond)
}

// threadCPU is the calling thread's CPU time, CLOCK_THREAD_CPUTIME_ID:
// exact, where getrusage rounds to scheduler ticks.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// atReferenceSpeed rescales the metrics res marked as speed-bound by the
// run's slowdown.
func atReferenceSpeed(res *result, slow float64) {
	for name, dir := range res.speedBound {
		m := res.Metrics[name]
		scaled := m.Value / math.Pow(slow, float64(dir))
		logf("%s: %.6g %s measured, %.6g at reference speed", name, m.Value, m.Unit, scaled)
		m.Value = scaled
		res.Metrics[name] = m
	}
}
