package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestUniformKeysInRange(t *testing.T) {
	g := NewUniformKeys(1000, 1)
	for i := 0; i < 10000; i++ {
		if k := g.Next(); k >= 1000 {
			t.Fatalf("key %d out of range", k)
		}
	}
	if g.N() != 1000 {
		t.Errorf("N = %d", g.N())
	}
}

func TestUniformKeysCoverage(t *testing.T) {
	g := NewUniformKeys(10, 2)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[g.Next()] = true
	}
	if len(seen) != 10 {
		t.Errorf("covered %d/10 keys", len(seen))
	}
}

func TestZipfSkew(t *testing.T) {
	g := NewZipfKeys(100000, 1.2, 3)
	counts := map[uint64]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	// Zipf: key 0 must be far more popular than uniform share.
	if counts[0] < n/1000 {
		t.Errorf("hottest key hit %d times of %d; not skewed", counts[0], n)
	}
	if g.N() != 100000 {
		t.Errorf("N = %d", g.N())
	}
}

func TestZipfBadSkewClamped(t *testing.T) {
	// s <= 1 is invalid for rand.Zipf; constructor must clamp, not panic.
	g := NewZipfKeys(100, 0.5, 1)
	for i := 0; i < 100; i++ {
		if k := g.Next(); k >= 100 {
			t.Fatalf("key %d out of range", k)
		}
	}
}

func TestKeyFormatting(t *testing.T) {
	if Key(0) == Key(1) {
		t.Error("distinct indices produced identical keys")
	}
	if len(Key(42)) != len(Key(1<<40)) {
		t.Error("keys not fixed width")
	}
}

// TestKeyBytes pins Key to the bytes fmt.Sprintf("key-%016x", i) made
// before Key formatted by hand: every preloaded corpus, golden and seeded
// run names its keys this way.
func TestKeyBytes(t *testing.T) {
	for _, tc := range []struct {
		i    uint64
		want string
	}{
		{0, "key-0000000000000000"},
		{0xdeadbeef, "key-00000000deadbeef"},
		{math.MaxUint64, "key-ffffffffffffffff"},
	} {
		if got := Key(tc.i); got != tc.want {
			t.Errorf("Key(%#x) = %q, want %q", tc.i, got, tc.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 1000 {
		i := rng.Uint64() >> rng.Intn(64)
		if got, want := Key(i), fmt.Sprintf("key-%016x", i); got != want {
			t.Fatalf("Key(%#x) = %q, want %q", i, got, want)
		}
	}
}

func TestSizeDistBounds(t *testing.T) {
	d := NewSizeDist(1000, 2.0, 100, 5000, 1)
	for i := 0; i < 10000; i++ {
		v := d.Next()
		if v < 100 || v > 5000 {
			t.Fatalf("size %d out of [100,5000]", v)
		}
	}
}

// TestFig10Shapes checks the qualitative claims behind Figure 10: objects
// are typically at most a few KB, Geo skews smaller than Ads, and both
// have tails of larger objects.
func TestFig10Shapes(t *testing.T) {
	ads, geo := AdsSizes(1), GeoSizes(1)
	points := []int{1024, 4096, 1 << 20}
	adsCDF := ads.CDF(points, 20000)
	geoCDF := geo.CDF(points, 20000)

	if adsCDF[1] < 0.80 {
		t.Errorf("Ads P(size<=4KB) = %.2f; paper: typically at most a few KB", adsCDF[1])
	}
	if geoCDF[0] < 0.90 {
		t.Errorf("Geo P(size<=1KB) = %.2f; Geo stores compact records", geoCDF[0])
	}
	if geoCDF[0] <= adsCDF[0] {
		t.Errorf("Geo (%.2f) should skew smaller than Ads (%.2f) at 1KB", geoCDF[0], adsCDF[0])
	}
	if adsCDF[0] > 0.95 {
		t.Errorf("Ads P(size<=1KB)=%.2f leaves no tail", adsCDF[0])
	}
	for _, cdf := range [][]float64{adsCDF, geoCDF} {
		for j := 1; j < len(cdf); j++ {
			if cdf[j] < cdf[j-1] {
				t.Error("CDF not monotone")
			}
		}
	}
}

func TestBatchDistTail(t *testing.T) {
	b := AdsBatches(1)
	var over30 int
	const n = 100000
	maxSeen := 0
	for i := 0; i < n; i++ {
		v := b.Next()
		if v < 1 || v > 300 {
			t.Fatalf("batch %d out of range", v)
		}
		if v >= 30 {
			over30++
		}
		if v > maxSeen {
			maxSeen = v
		}
	}
	// §7.1: batch sizes reach 30–300 in the 99.9th percentile tail.
	frac := float64(over30) / n
	if frac < 0.0005 || frac > 0.35 {
		t.Errorf("P(batch>=30) = %.4f; tail mis-shaped", frac)
	}
	if maxSeen < 50 {
		t.Errorf("max batch %d; tail should reach deep", maxSeen)
	}
}

func TestDiurnalSwing(t *testing.T) {
	d := Diurnal{Base: 300, PeakRatio: 3, Day: 24 * time.Hour}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i <= 96; i++ {
		r := d.Rate(time.Duration(i) * 15 * time.Minute)
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	if hi/lo < 2.5 || hi/lo > 3.5 {
		t.Errorf("diurnal swing = %.2fx, want ~3x (Geo)", hi/lo)
	}
	if hi > 301 || lo < 99 {
		t.Errorf("range [%f,%f] outside expected", lo, hi)
	}
}

func TestDiurnalDegenerate(t *testing.T) {
	d := Diurnal{Base: 100}
	if d.Rate(time.Hour) != 100 {
		t.Error("zero-day diurnal must be flat")
	}
}

func TestWave(t *testing.T) {
	w := Wave{Base: 10, Burst: 90, Period: time.Hour, Duty: 0.25}
	if got := w.Rate(5 * time.Minute); got != 100 {
		t.Errorf("in-burst rate = %v", got)
	}
	if got := w.Rate(30 * time.Minute); got != 10 {
		t.Errorf("off-burst rate = %v", got)
	}
	flat := Wave{Base: 7}
	if flat.Rate(time.Minute) != 7 {
		t.Error("flat wave broken")
	}
}

func TestMixFraction(t *testing.T) {
	m := NewMix(0.95, 1)
	gets := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if m.NextIsGet() {
			gets++
		}
	}
	frac := float64(gets) / n
	if math.Abs(frac-0.95) > 0.01 {
		t.Errorf("GET fraction = %.3f, want 0.95", frac)
	}
}

func TestValueGenDeterministic(t *testing.T) {
	a := ValueGen(7, 128)
	b := ValueGen(7, 128)
	if string(a) != string(b) {
		t.Error("ValueGen not deterministic")
	}
	c := ValueGen(8, 128)
	if string(a) == string(c) {
		t.Error("different keys produced identical values")
	}
	if len(ValueGen(1, 0)) != 0 {
		t.Error("zero-size value")
	}
}

func BenchmarkZipfNext(b *testing.B) {
	g := NewZipfKeys(1<<20, 1.1, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkValueGen4KB(b *testing.B) {
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		ValueGen(uint64(i), 4096)
	}
}
