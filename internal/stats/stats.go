// Package stats provides the measurement machinery behind every figure in
// the evaluation: log-bucketed latency histograms with percentile
// extraction, monotonic counters and rates, and CPU-cost accounting (the
// paper reports CPU-µs/op and CPU-ns/op extensively).
package stats

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram is a concurrent log-linear histogram of non-negative values
// (typically nanoseconds). Each power-of-two range is split into 16 linear
// sub-buckets, giving ≤6.25% relative error on percentile reads — plenty
// for latency distributions spanning 1µs to 10s.
type Histogram struct {
	counts [64 * 16]atomic.Uint64
	total  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

func bucketOf(v uint64) int {
	if v < 16 {
		return int(v) // first 16 values are exact
	}
	exp := 63 - bits.LeadingZeros64(v)
	frac := (v >> (uint(exp) - 4)) & 0xf
	return exp*16 + int(frac)
}

func bucketLower(b int) uint64 {
	if b < 16 {
		return uint64(b)
	}
	exp := b / 16
	frac := uint64(b % 16)
	return (1 << uint(exp)) | (frac << (uint(exp) - 4))
}

// Record adds one observation.
func (h *Histogram) Record(v uint64) {
	h.counts[bucketOf(v)].Add(1)
	h.total.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Mean returns the mean observation, or 0 if empty.
func (h *Histogram) Mean() float64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest observation.
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Percentile returns the approximate p-th percentile (0 < p ≤ 100).
func (h *Histogram) Percentile(p float64) uint64 {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for b := range h.counts {
		cum += h.counts[b].Load()
		if cum >= rank {
			return bucketLower(b)
		}
	}
	return h.max.Load()
}

// Quantiles returns several percentiles at once.
func (h *Histogram) Quantiles(ps ...float64) []uint64 {
	out := make([]uint64, len(ps))
	for i, p := range ps {
		out[i] = h.Percentile(p)
	}
	return out
}

// Reset zeroes the histogram.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Snapshot returns a point-in-time copy for consistent multi-percentile
// reads.
func (h *Histogram) Snapshot() *Histogram {
	s := &Histogram{}
	var tot, sum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		s.counts[i].Store(c)
		tot += c
		sum += c * bucketLower(i)
	}
	s.total.Store(tot)
	s.sum.Store(h.sum.Load())
	s.max.Store(h.max.Load())
	return s
}

// NumBuckets is the bucket-array size of Histogram; wire consumers use it
// to bound decoded bucket indices.
const NumBuckets = 64 * 16

// HistBucket is one occupied bucket of a Histogram — the sparse form a
// histogram travels in on the wire, so remote aggregators can merge true
// distributions instead of averaging quantiles.
type HistBucket struct {
	Index uint32 `wire:"1"`
	Count uint64 `wire:"2"`
}

// Buckets returns the occupied buckets in index order. Latency
// distributions occupy a few dozen of the 1024 buckets, so the sparse
// form is what the wire wants.
func (h *Histogram) Buckets() []HistBucket {
	var out []HistBucket
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			out = append(out, HistBucket{Index: uint32(i), Count: c})
		}
	}
	return out
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// AddBuckets folds pre-bucketed counts into h — the receive side of the
// wire form. sum and max carry the exact aggregates alongside (bucket
// lower bounds alone would bias the mean down and lose the true max).
// Out-of-range indices are dropped.
func (h *Histogram) AddBuckets(bs []HistBucket, sum, max uint64) {
	var n uint64
	for _, b := range bs {
		if int(b.Index) >= len(h.counts) {
			continue
		}
		h.counts[b.Index].Add(b.Count)
		n += b.Count
	}
	h.total.Add(n)
	h.sum.Add(sum)
	for {
		m := h.max.Load()
		if max <= m || h.max.CompareAndSwap(m, max) {
			break
		}
	}
}

// Counter is a monotonic event counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CPUAccount accumulates simulated CPU time per named component, matching
// the paper's CPU-cost reporting (e.g. Figure 7's per-component CPU-ns/op
// and Figure 19's backend CPU*s/s). Charging is lock-free: every RPC
// handler bills CPU here, so a mutex would re-serialize the concurrent
// dispatch path.
type CPUAccount struct {
	accounts sync.Map // component name -> *cpuBucket
}

type cpuBucket struct {
	nanos atomic.Uint64
	ops   atomic.Uint64
}

// NewCPUAccount returns an empty account.
func NewCPUAccount() *CPUAccount {
	return &CPUAccount{}
}

func (a *CPUAccount) bucket(component string) *cpuBucket {
	if b, ok := a.accounts.Load(component); ok {
		return b.(*cpuBucket)
	}
	b, _ := a.accounts.LoadOrStore(component, &cpuBucket{})
	return b.(*cpuBucket)
}

// Charge bills ns nanoseconds of CPU to component for one op.
func (a *CPUAccount) Charge(component string, ns uint64) {
	b := a.bucket(component)
	b.nanos.Add(ns)
	b.ops.Add(1)
}

// ChargeOnly bills CPU without counting an op (for per-byte costs folded
// into an op already counted).
func (a *CPUAccount) ChargeOnly(component string, ns uint64) {
	a.bucket(component).nanos.Add(ns)
}

// Meter is a pre-resolved charging handle for one component. The RPC
// framework bills two components on every call; holding a Meter skips the
// per-call name lookup. The zero Meter discards charges, so callers with an
// optional account can charge unconditionally.
type Meter struct {
	b *cpuBucket
}

// Meter returns a charging handle for component.
func (a *CPUAccount) Meter(component string) Meter {
	return Meter{b: a.bucket(component)}
}

// Charge bills ns nanoseconds of CPU for one op.
func (m Meter) Charge(ns uint64) {
	if m.b != nil {
		m.b.nanos.Add(ns)
		m.b.ops.Add(1)
	}
}

// ChargeOnly bills CPU without counting an op.
func (m Meter) ChargeOnly(ns uint64) {
	if m.b != nil {
		m.b.nanos.Add(ns)
	}
}

// TotalNanos returns total CPU-ns billed to component.
func (a *CPUAccount) TotalNanos(component string) uint64 {
	if b, ok := a.accounts.Load(component); ok {
		return b.(*cpuBucket).nanos.Load()
	}
	return 0
}

// OpCount returns the ops billed to component via Charge.
func (a *CPUAccount) OpCount(component string) uint64 {
	if b, ok := a.accounts.Load(component); ok {
		return b.(*cpuBucket).ops.Load()
	}
	return 0
}

// PerOpNanos returns mean CPU-ns per op for component.
func (a *CPUAccount) PerOpNanos(component string) float64 {
	b, ok := a.accounts.Load(component)
	if !ok {
		return 0
	}
	cb := b.(*cpuBucket)
	ops := cb.ops.Load()
	if ops == 0 {
		return 0
	}
	return float64(cb.nanos.Load()) / float64(ops)
}

// CPURow is one component's account as it travels (MethodDebug's CPU).
type CPURow struct {
	Component string `wire:"1"`
	TotalNs   uint64 `wire:"2"`
	Ops       uint64 `wire:"3"`
}

// Rows snapshots every component's account, sorted by component.
func (a *CPUAccount) Rows() []CPURow {
	var out []CPURow
	for _, comp := range a.Components() {
		out = append(out, CPURow{Component: comp, TotalNs: a.TotalNanos(comp), Ops: a.OpCount(comp)})
	}
	return out
}

// Components lists billed components in sorted order.
func (a *CPUAccount) Components() []string {
	var out []string
	a.accounts.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// GrandTotalNanos sums CPU across all components.
func (a *CPUAccount) GrandTotalNanos() uint64 {
	var t uint64
	a.accounts.Range(func(_, v any) bool {
		t += v.(*cpuBucket).nanos.Load()
		return true
	})
	return t
}
