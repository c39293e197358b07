package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/ormkit/incmap/internal/obsv"
)

// ms, us and secs convert durations to the reported units.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// samples is a latency sample.
type samples []time.Duration

func (s samples) sorted() samples {
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}

// rank is the 1-based nearest rank of the q-quantile among n samples,
// with a little slack so that q*n landing a rounding error above a whole
// number does not skip a rank.
func rank(q float64, n int) int {
	k := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(k, n))
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	return s.sorted()[rank(q, len(s))-1]
}

func (s samples) median() time.Duration { return s.quantile(0.5) }

func (s samples) sum() time.Duration {
	var t time.Duration
	for _, d := range s {
		t += d
	}
	return t
}

// tail returns the highest percentile of the sample that has at least ten
// samples beyond it, with its label ("p99", "p90", ...); a sample too
// small for p50 reports its maximum.
func (s samples) tail() (time.Duration, string) {
	for _, p := range []float64{99.9, 99, 98, 95, 90, 80, 75, 50} {
		if len(s)-rank(p/100, len(s)) >= 10 {
			return s.quantile(p / 100), fmt.Sprintf("p%g", p)
		}
	}
	if len(s) == 0 {
		return 0, "none"
	}
	return s.quantile(1), "max"
}

// geomean returns the geometric mean of positive durations.
func geomean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var logs float64
	for _, d := range ds {
		logs += math.Log(float64(max(d, 1)))
	}
	return time.Duration(math.Exp(logs / float64(len(ds))))
}

// medianF returns the median of float values.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// timeSetup runs a workload's set-up reps times, each from scratch, and
// returns the median CPU time and the median wall time of one set-up. The
// state the last repetition built is what the workload then measures.
func timeSetup(reps int, fn func() error) (cpu, wall float64, err error) {
	var cs, ws []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		c0, t0 := cpuTime(), time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		ws = append(ws, time.Since(t0).Seconds())
		cs = append(cs, (cpuTime() - c0).Seconds())
	}
	return medianF(cs), medianF(ws), nil
}

// setSetup reports a set-up's median CPU time as setup_s and its median
// wall time by name.
func (r *report) setSetup(cpu, wall float64) {
	r.set("setup_s", cpu)
	r.name("setup_wall_s", wall, "s")
}

// cpuTime is the CPU time the process has used so far, user and system,
// over all its threads. Unlike wall time it leaves out the time the
// hypervisor of a shared host runs other guests on this machine's vCPUs
// (steal time), which on a shared two-core machine moves wall times by
// tens of percent from one minute to the next.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// counters is a snapshot of obsv's registry; delta subtracts an earlier one.
type counters map[string]int64

func snap() counters { return obsv.Snapshot() }

func (c counters) delta(earlier counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - earlier[k]
	}
	return d
}

// add accumulates another delta.
func (c counters) add(d counters) {
	for k, v := range d {
		c[k] += v
	}
}

// memDelta is the allocation and GC work between two MemStats reads.
type memDelta struct {
	bytes uint64
	gcs   uint32
}

func readMem() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// readMemIf reads MemStats only when asked: the untraced run keeps the
// stop-the-world read off its timed loop.
func readMemIf(on bool) (m runtime.MemStats) {
	if on {
		m = readMem()
	}
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := readMem()
	return memDelta{
		bytes: after.TotalAlloc - before.TotalAlloc,
		gcs:   after.NumGC - before.NumGC,
	}
}

func (m *memDelta) add(d memDelta) {
	m.bytes += d.bytes
	m.gcs += d.gcs
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
