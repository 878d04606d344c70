package hashring

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultHashDeterministic(t *testing.T) {
	a := DefaultHash([]byte("hello"))
	b := DefaultHash([]byte("hello"))
	if a != b {
		t.Error("hash not deterministic")
	}
}

func TestDefaultHashNeverZero(t *testing.T) {
	f := func(key []byte) bool { return !DefaultHash(key).Zero() }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	if DefaultHash(nil).Zero() || DefaultHash([]byte{}).Zero() {
		t.Error("empty key hashed to zero")
	}
}

func TestDefaultHashNoShortCollisions(t *testing.T) {
	seen := map[KeyHash]string{}
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("key-%d", i)
		h := DefaultHash([]byte(k))
		if prev, ok := seen[h]; ok {
			t.Fatalf("collision: %q and %q", prev, k)
		}
		seen[h] = k
	}
}

func TestPrimaryUniform(t *testing.T) {
	const n, keys = 50, 200000
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[DefaultHash([]byte(fmt.Sprintf("k%d", i))).Hi%n]++
	}
	want := float64(keys) / n
	for b, c := range counts {
		if dev := math.Abs(float64(c)-want) / want; dev > 0.10 {
			t.Errorf("backend %d load %d deviates %.1f%% from uniform", b, c, dev*100)
		}
	}
}

func TestBucketUniform(t *testing.T) {
	const buckets, keys = 128, 100000
	counts := make([]int, buckets)
	for i := 0; i < keys; i++ {
		counts[DefaultHash([]byte(fmt.Sprintf("k%d", i))).Lo%buckets]++
	}
	want := float64(keys) / buckets
	for b, c := range counts {
		if dev := math.Abs(float64(c)-want) / want; dev > 0.25 {
			t.Errorf("bucket %d load %d deviates %.1f%%", b, c, dev*100)
		}
	}
}

func BenchmarkDefaultHash(b *testing.B) {
	key := []byte("a-representative-cache-key-of-32b")
	b.SetBytes(int64(len(key)))
	for i := 0; i < b.N; i++ {
		DefaultHash(key)
	}
}
