package main

import (
	"context"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// nSlices is how many equal parts a window is cut into. Every timed metric
// is the median of its per-slice values, so a slice disturbed by a
// neighbour on the machine does not move it.
const nSlices = 10

// window is what one closed-loop measured window observed, before it is
// turned into named metrics.
type window struct {
	sliceLen time.Duration
	ops      uint64
	perSlice [nSlices]uint64
	lat      [numKinds][]uint32         // per-op real-clock ns by kind, in arrival order
	cuts     [numKinds][nSlices]int     // len(lat[k]) when each slice closed
	cpuAt    [nSlices + 1]time.Duration // process user+sys CPU at each slice boundary

	mallocs, allocBytes uint64 // MemStats deltas, whole process
	gcCycles            uint32
	gcPause             time.Duration
	heapLive            uint64 // heap the last collection of the window left marked live
}

// runWindow drives the closed loop — one caller, next op only after the
// previous one returned — for d of real time.
func runWindow(c kv, g *generator, o *oracle, d time.Duration) *window {
	w := &window{sliceLen: d / nSlices}
	// The latency buffers are sized before the window opens, for far more
	// ops than a caller can issue, so that recording never allocates in it.
	const maxOpsPerSec = 400_000
	for k, pct := range g.sp.shares() {
		if pct > 0 {
			w.lat[k] = make([]uint32, 0, int(d.Seconds()*maxOpsPerSec)*pct/100+1024)
		}
	}
	ctx := context.Background()
	// closeSlices records where slices [from, to) ended.
	closeSlices := func(from, to int) {
		now := cpuTime()
		for i := from; i < to; i++ {
			w.cpuAt[i+1] = now
			for k := range w.lat {
				w.cuts[k][i] = len(w.lat[k])
			}
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w.cpuAt[0] = cpuTime()
	open := 0 // the slice being filled
	start := time.Now()
	for {
		p := g.next()
		lat := step(ctx, c, g, o, p)
		i := int(time.Since(start) / w.sliceLen)
		if i > open {
			closeSlices(open, min(i, nSlices))
			open = i
		}
		if i >= nSlices {
			break // an op that returns after the window closed is not part of it
		}
		if s := w.lat[p.kind]; len(s) < cap(s) {
			w.lat[p.kind] = append(s, uint32(min(lat, math.MaxUint32)))
		}
		w.perSlice[i]++
		w.ops++
	}
	runtime.ReadMemStats(&m1)
	w.mallocs = m1.Mallocs - m0.Mallocs
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	w.gcCycles = m1.NumGC - m0.NumGC
	w.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	if live[0].Value.Kind() == metrics.KindUint64 {
		w.heapLive = live[0].Value.Uint64()
	}
	return w
}

// sliceMedian is the median over the window's slices of f(slice).
func (w *window) sliceMedian(f func(i int) float64) float64 {
	v := make([]float64, nSlices)
	for i := range v {
		v[i] = f(i)
	}
	return median(v)
}

// opsPerSec is the median slice throughput.
func (w *window) opsPerSec() float64 {
	return w.sliceMedian(func(i int) float64 { return float64(w.perSlice[i]) / w.sliceLen.Seconds() })
}

// cpuUsPerOp is the median over slices of process CPU time per op: user
// and system, so it includes the collector and the server goroutines.
func (w *window) cpuUsPerOp() float64 {
	return w.sliceMedian(func(i int) float64 {
		return ratio(float64((w.cpuAt[i+1] - w.cpuAt[i]).Microseconds()), float64(w.perSlice[i]))
	})
}

// realClockMetrics fills m with the realClock metrics of the window.
func (w *window) realClockMetrics(m map[string]float64) {
	m["driver.ops_s"] = w.opsPerSec()
	m["driver.get_p50_us"] = w.percentileUs(50, opGet)
	m["driver.get_p99_us"] = w.percentileUs(99, opGet)
	m["driver.cpu_us_per_op"] = w.cpuUsPerOp()
}

// sliceCV is the coefficient of variation of the slice throughputs — the
// noise guard: above 0.10 a neighbour was probably using the machine.
func (w *window) sliceCV() float64 {
	var sum, sq float64
	for _, n := range w.perSlice {
		sum += float64(n)
	}
	mean := sum / nSlices
	if mean == 0 {
		return 0
	}
	for _, n := range w.perSlice {
		sq += (float64(n) - mean) * (float64(n) - mean)
	}
	return math.Sqrt(sq/nSlices) / mean
}

// samples returns the latencies of the given kinds recorded in slice i —
// or in the whole window for i < 0 — merged and sorted.
func (w *window) samples(i int, kinds ...opKind) []uint32 {
	var out []uint32
	for _, k := range kinds {
		lo, hi := 0, len(w.lat[k])
		if i >= 0 {
			hi = w.cuts[k][i]
			if i > 0 {
				lo = w.cuts[k][i-1]
			}
		}
		out = append(out, w.lat[k][lo:hi]...)
	}
	slices.Sort(out)
	return out
}

var mutationKinds = []opKind{opSet, opCas, opErase}

// percentileUs is the median over slices of the slice's p-th percentile
// latency for the given kinds, in µs.
func (w *window) percentileUs(p float64, kinds ...opKind) float64 {
	return w.sliceMedian(func(i int) float64 { return percentileUs(w.samples(i, kinds...), p) })
}

// percentileUs returns the p-th percentile (nearest rank) of the sorted
// sample s in µs, or 0 for an empty sample.
func percentileUs(s []uint32, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return float64(s[rank(len(s), p)]) / 1e3
}

// rank is the nearest-rank index of the p-th percentile among n samples.
func rank(n int, p float64) int {
	// The tolerance keeps p99.9 of 1000 samples at rank 999, not 1000:
	// 99.9/100*1000 is a hair above 999 in floating point.
	i := int(math.Ceil(p*float64(n)/100-1e-9)) - 1
	return max(0, min(n-1, i))
}

// tailPercentile returns the highest of p50, p90, p99, p99.9, … that still
// has at least ten samples beyond it — the deepest tail n samples support.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99, 99.999} {
		if n-1-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	return procStatusKB("VmHWM:") / 1024
}

// resetPeakRSS restarts the high-water mark from the current resident size
// (clear_refs(5), see proc(5)). Where the kernel refuses, the mark simply
// keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func procStatusKB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field) {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb
			}
		}
	}
	return 0
}

// clockOverheadNs is the cost of the time.Now/time.Since pair that brackets
// every op, so a reader can subtract it from the latencies.
func clockOverheadNs() float64 {
	const n = 200_000
	var sink time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		sink += time.Since(time.Now())
	}
	_ = sink
	return float64(time.Since(t0).Nanoseconds()) / n
}
