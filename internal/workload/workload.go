// Package workload generates the synthetic traffic used throughout the
// evaluation, substituting for the production Ads and Geo traces of §7.1.
//
// What the figures actually depend on is reproduced: the object-size CDFs
// of Figure 10 (lognormal bodies, most values at most a few KB, a tail of
// larger objects), Ads' heavy GET batching with a background backfill SET
// wave (Figure 8), Geo's strongly diurnal GET rate over a steady update
// stream (Figure 9), plus the generic knobs the controlled experiments
// sweep: key popularity (uniform/zipf), value size, GET/SET mix, and batch
// size.
package workload

import (
	"math"
	"math/rand"
	"time"
)

// KeyGen produces key indices in [0, N).
type KeyGen interface {
	Next() uint64
	N() uint64
}

// UniformKeys samples keys uniformly.
type UniformKeys struct {
	rng *rand.Rand
	n   uint64
}

// NewUniformKeys returns a uniform generator over n keys.
func NewUniformKeys(n uint64, seed int64) *UniformKeys {
	return &UniformKeys{rng: rand.New(rand.NewSource(seed)), n: n}
}

// Next implements KeyGen.
func (u *UniformKeys) Next() uint64 { return uint64(u.rng.Int63n(int64(u.n))) }

// N implements KeyGen.
func (u *UniformKeys) N() uint64 { return u.n }

// ZipfKeys samples keys with Zipfian popularity (s > 1).
type ZipfKeys struct {
	z *rand.Zipf
	n uint64
}

// NewZipfKeys returns a zipf generator over n keys with skew s (>1).
func NewZipfKeys(n uint64, s float64, seed int64) *ZipfKeys {
	if s <= 1 {
		s = 1.01
	}
	rng := rand.New(rand.NewSource(seed))
	return &ZipfKeys{z: rand.NewZipf(rng, s, 1, n-1), n: n}
}

// Next implements KeyGen.
func (z *ZipfKeys) Next() uint64 { return z.z.Uint64() }

// N implements KeyGen.
func (z *ZipfKeys) N() uint64 { return z.n }

// Key renders key index i as the canonical workload key string: "key-"
// and i in 16 zero-padded lowercase hex digits.
func Key(i uint64) string {
	const digits = "0123456789abcdef"
	b := [20]byte{'k', 'e', 'y', '-'}
	for j := len(b) - 1; j >= 4; j-- {
		b[j] = digits[i&15]
		i >>= 4
	}
	return string(b[:])
}

// SizeDist samples object sizes from a capped lognormal.
type SizeDist struct {
	rng   *rand.Rand
	mu    float64 // log-space mean
	sigma float64 // log-space stddev
	minSz int
	maxSz int
}

// NewSizeDist builds a lognormal size distribution with the given median
// and shape, clamped to [minSz, maxSz].
func NewSizeDist(median float64, sigma float64, minSz, maxSz int, seed int64) *SizeDist {
	return &SizeDist{
		rng: rand.New(rand.NewSource(seed)), mu: math.Log(median), sigma: sigma,
		minSz: minSz, maxSz: maxSz,
	}
}

// AdsSizes approximates the Ads curve of Figure 10: median ≈ 700B with a
// fat tail into the hundreds of KB.
func AdsSizes(seed int64) *SizeDist { return NewSizeDist(700, 1.5, 64, 512*1024, seed) }

// GeoSizes approximates the Geo curve of Figure 10: compact road-segment
// records, median ≈ 150B, rarely beyond a few KB.
func GeoSizes(seed int64) *SizeDist { return NewSizeDist(150, 0.9, 32, 64*1024, seed) }

// Next samples one object size in bytes.
func (s *SizeDist) Next() int {
	v := int(math.Exp(s.mu + s.sigma*s.rng.NormFloat64()))
	if v < s.minSz {
		v = s.minSz
	}
	if v > s.maxSz {
		v = s.maxSz
	}
	return v
}

// CDF evaluates the empirical CDF of the distribution by sampling — used
// to regenerate Figure 10.
func (s *SizeDist) CDF(points []int, samples int) []float64 {
	counts := make([]int, len(points))
	for i := 0; i < samples; i++ {
		v := s.Next()
		for j, p := range points {
			if v <= p {
				counts[j]++
			}
		}
	}
	out := make([]float64, len(points))
	for j := range points {
		out[j] = float64(counts[j]) / float64(samples)
	}
	return out
}

// BatchDist samples GET batch sizes: lognormal with the paper's Ads tail
// (99.9th percentile reaching 30–300 keys).
type BatchDist struct {
	rng   *rand.Rand
	mu    float64
	sigma float64
	maxB  int
}

// NewBatchDist builds a batch-size distribution with the given median.
func NewBatchDist(median float64, sigma float64, maxB int, seed int64) *BatchDist {
	return &BatchDist{rng: rand.New(rand.NewSource(seed)), mu: math.Log(median), sigma: sigma, maxB: maxB}
}

// AdsBatches matches §7.1: highly batched fetches, tens typical, 30–300 at
// the 99.9th percentile.
func AdsBatches(seed int64) *BatchDist { return NewBatchDist(12, 1.1, 300, seed) }

// GeoBatches matches §7.1: "usually consisting of tens of segments".
func GeoBatches(seed int64) *BatchDist { return NewBatchDist(20, 0.7, 150, seed) }

// Next samples one batch size (≥1).
func (b *BatchDist) Next() int {
	v := int(math.Exp(b.mu + b.sigma*b.rng.NormFloat64()))
	if v < 1 {
		v = 1
	}
	if v > b.maxB {
		v = b.maxB
	}
	return v
}

// Diurnal modulates a base rate over a synthetic day: rate(t) swings
// between base/peakRatio and base, sinusoidally. Geo's GET traffic shows a
// 3× swing (§7.1).
type Diurnal struct {
	Base      float64       // peak rate
	PeakRatio float64       // peak/trough ratio (3 for Geo)
	Day       time.Duration // length of one synthetic day
	Phase     float64       // fraction of a day to offset
}

// Rate returns the modulated rate at elapsed time t.
func (d Diurnal) Rate(t time.Duration) float64 {
	if d.Day <= 0 || d.PeakRatio <= 1 {
		return d.Base
	}
	// Sinusoid between trough and peak.
	trough := d.Base / d.PeakRatio
	mid := (d.Base + trough) / 2
	amp := (d.Base - trough) / 2
	x := 2 * math.Pi * (float64(t)/float64(d.Day) + d.Phase)
	return mid + amp*math.Sin(x)
}

// Wave models Ads' backfill SETs (Figure 8): a baseline write rate plus
// periodic bursts when the corpus is re-ingested.
type Wave struct {
	Base   float64       // steady rate
	Burst  float64       // additional rate during a burst
	Period time.Duration // burst cadence
	Duty   float64       // fraction of each period spent bursting
}

// Rate returns the wave's rate at elapsed time t.
func (w Wave) Rate(t time.Duration) float64 {
	if w.Period <= 0 || w.Duty <= 0 {
		return w.Base
	}
	frac := math.Mod(float64(t)/float64(w.Period), 1)
	if frac < w.Duty {
		return w.Base + w.Burst
	}
	return w.Base
}

// Mix draws op kinds with a fixed GET fraction.
type Mix struct {
	rng     *rand.Rand
	getFrac float64
}

// NewMix returns a mix with the given GET probability.
func NewMix(getFrac float64, seed int64) *Mix {
	return &Mix{rng: rand.New(rand.NewSource(seed)), getFrac: getFrac}
}

// NextIsGet reports whether the next op is a GET.
func (m *Mix) NextIsGet() bool { return m.rng.Float64() < m.getFrac }

// ValueGen deterministically materializes value bytes for a key index and
// size, so any replica can regenerate and verify payloads.
func ValueGen(keyIdx uint64, size int) []byte {
	out := make([]byte, size)
	x := keyIdx*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}
