package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := uint64(0); v < 16; v++ {
		h.Record(v)
	}
	if h.Count() != 16 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Percentile(100); got != 15 {
		t.Errorf("p100 = %d, want 15", got)
	}
	if got := h.Percentile(1); got != 0 {
		t.Errorf("p1 = %d, want 0", got)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 100000)
	for i := range vals {
		v := uint64(rng.ExpFloat64() * 50000) // exponential latencies ~50µs
		vals[i] = v
		h.Record(v)
	}
	// Compare against exact percentiles.
	sorted := append([]uint64(nil), vals...)
	sortU64(sorted)
	for _, p := range []float64{50, 90, 99, 99.9} {
		idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
		exact := sorted[idx]
		got := h.Percentile(p)
		if exact == 0 {
			continue
		}
		rel := math.Abs(float64(got)-float64(exact)) / float64(exact)
		if rel > 0.10 {
			t.Errorf("p%g = %d, exact %d (rel err %.1f%%)", p, got, exact, rel*100)
		}
	}
}

func sortU64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		var h Histogram
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			h.Record(uint64(rng.Intn(1 << 20)))
		}
		prev := uint64(0)
		for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 100} {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const g, per = 8, 10000
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Record(uint64(i*per + j))
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != g*per {
		t.Errorf("count = %d, want %d", h.Count(), g*per)
	}
	if h.Max() != g*per-1 {
		t.Errorf("max = %d", h.Max())
	}
}

func TestHistogramMean(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{10, 20, 30} {
		h.Record(v)
	}
	if got := h.Mean(); got != 20 {
		t.Errorf("mean = %v", got)
	}
}

func TestHistogramResetAndSnapshot(t *testing.T) {
	var h Histogram
	h.Record(100)
	snap := h.Snapshot()
	h.Reset()
	if h.Count() != 0 {
		t.Error("reset did not clear")
	}
	if snap.Count() != 1 {
		t.Error("snapshot affected by reset")
	}
	if snap.Percentile(50) == 0 {
		t.Error("snapshot lost data")
	}
}

func TestHistogramEmptyPercentile(t *testing.T) {
	var h Histogram
	if h.Percentile(99) != 0 || h.Mean() != 0 {
		t.Error("empty histogram must read 0")
	}
}

func TestBucketBoundsProperty(t *testing.T) {
	f := func(v uint64) bool {
		b := bucketOf(v)
		lo := bucketLower(b)
		if v < 16 {
			return lo == v
		}
		// Bucket lower bound must not exceed v, and must be within 6.25%.
		return lo <= v && float64(v-lo)/float64(v) <= 0.0625+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	c.Add(5)
	if c.Value() != 4005 {
		t.Errorf("counter = %d", c.Value())
	}
}

func TestCPUAccount(t *testing.T) {
	a := NewCPUAccount()
	a.Charge("client", 1000)
	a.Charge("client", 3000)
	a.Charge("pony", 500)
	a.ChargeOnly("pony", 100)
	if got := a.PerOpNanos("client"); got != 2000 {
		t.Errorf("client per-op = %v", got)
	}
	if got := a.TotalNanos("pony"); got != 600 {
		t.Errorf("pony total = %v", got)
	}
	if got := a.PerOpNanos("pony"); got != 600 {
		t.Errorf("pony per-op = %v (ChargeOnly must not add an op)", got)
	}
	comps := a.Components()
	if len(comps) != 2 || comps[0] != "client" || comps[1] != "pony" {
		t.Errorf("components = %v", comps)
	}
	if a.GrandTotalNanos() != 4600 {
		t.Errorf("grand total = %d", a.GrandTotalNanos())
	}
	if a.PerOpNanos("absent") != 0 {
		t.Error("absent component should read 0")
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(12345)
		for pb.Next() {
			h.Record(v)
			v = v*1103515245 + 12345
		}
	})
}

// The histogram's contract: ≤6.25% relative error on percentile reads
// (16 linear sub-buckets per octave), over the full latency range the
// system produces — sub-µs RMA legs to multi-second stalls.
func TestHistogramPercentileErrorBoundOverLatencyRange(t *testing.T) {
	distributions := map[string]func(r *rand.Rand) uint64{
		"exp-10us":  func(r *rand.Rand) uint64 { return uint64(r.ExpFloat64() * 10_000) },
		"exp-100ms": func(r *rand.Rand) uint64 { return uint64(r.ExpFloat64() * 100_000_000) },
		"log-uniform-1us-10s": func(r *rand.Rand) uint64 {
			// 10^3 .. 10^10 ns, uniform in log space.
			return uint64(math.Pow(10, 3+7*r.Float64()))
		},
		"bimodal-1us-10s": func(r *rand.Rand) uint64 {
			if r.Intn(100) < 99 {
				return 1_000 + uint64(r.Intn(500))
			}
			return 10_000_000_000 + uint64(r.Intn(1_000_000))
		},
	}
	for name, gen := range distributions {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			rng := rand.New(rand.NewSource(42))
			vals := make([]uint64, 50_000)
			for i := range vals {
				vals[i] = gen(rng)
				h.Record(vals[i])
			}
			sorted := append([]uint64(nil), vals...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			for _, p := range []float64{10, 50, 90, 99, 99.9, 100} {
				idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
				exact := sorted[idx]
				got := h.Percentile(p)
				if exact == 0 {
					continue
				}
				if got > exact {
					t.Errorf("p%g = %d > exact %d: bucket lower bound must not exceed the value", p, got, exact)
				}
				rel := (float64(exact) - float64(got)) / float64(exact)
				if rel > 0.0625+1e-9 {
					t.Errorf("p%g = %d, exact %d: rel err %.2f%% > 6.25%%", p, got, exact, rel*100)
				}
			}
		})
	}
}

// Snapshot against a live, concurrently-written histogram must stay
// internally consistent: monotone non-decreasing counts, percentiles
// within observed bounds, and no torn totals.
func TestHistogramSnapshotUnderConcurrentRecord(t *testing.T) {
	var h Histogram
	const writers, per = 4, 50_000
	const maxVal = 1 << 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < per; j++ {
				h.Record(uint64(rng.Intn(maxVal)))
			}
		}(int64(i))
	}

	readerErrs := make(chan error, 1)
	go func() {
		defer close(readerErrs)
		var prevCount uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := h.Snapshot()
			// Snapshot totals are recomputed from bucket counts, so the
			// snapshot is self-consistent even while writers race.
			var sum uint64
			for b := range snap.counts {
				sum += snap.counts[b].Load()
			}
			if sum != snap.Count() {
				readerErrs <- fmt.Errorf("torn snapshot: bucket sum %d != count %d", sum, snap.Count())
				return
			}
			if snap.Count() < prevCount {
				readerErrs <- fmt.Errorf("count went backwards: %d -> %d", prevCount, snap.Count())
				return
			}
			prevCount = snap.Count()
			if p := snap.Percentile(99); p > maxVal {
				readerErrs <- fmt.Errorf("p99 %d beyond any recorded value", p)
				return
			}
		}
	}()

	wg.Wait()
	close(stop)
	if err := <-readerErrs; err != nil {
		t.Fatal(err)
	}
	if h.Count() != writers*per {
		t.Fatalf("final count = %d, want %d", h.Count(), writers*per)
	}
}
