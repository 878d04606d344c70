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
	r := New(n, nil)
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[r.Primary(r.Hash([]byte(fmt.Sprintf("k%d", i))))]++
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
	r := New(3, nil)
	counts := make([]int, buckets)
	for i := 0; i < keys; i++ {
		counts[r.Bucket(r.Hash([]byte(fmt.Sprintf("k%d", i))), buckets)]++
	}
	want := float64(keys) / buckets
	for b, c := range counts {
		if dev := math.Abs(float64(c)-want) / want; dev > 0.25 {
			t.Errorf("bucket %d load %d deviates %.1f%%", b, c, dev*100)
		}
	}
}

func TestCohortAdjacency(t *testing.T) {
	r := New(10, nil)
	h := r.Hash([]byte("some-key"))
	c := r.Cohort(h, 3)
	if len(c) != 3 {
		t.Fatalf("cohort size %d", len(c))
	}
	p := r.Primary(h)
	for i, b := range c {
		if want := (p + i) % 10; b != want {
			t.Errorf("cohort[%d] = %d, want %d", i, b, want)
		}
	}
}

func TestCohortWrapsModN(t *testing.T) {
	r := New(3, func(key []byte) KeyHash {
		return KeyHash{Hi: 2, Lo: 1} // primary = 2
	})
	c := r.Cohort(r.Hash([]byte("x")), 3)
	want := []int{2, 0, 1}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("cohort = %v, want %v", c, want)
		}
	}
}

func TestCohortClamped(t *testing.T) {
	r := New(2, nil)
	if got := len(r.Cohort(r.Hash([]byte("x")), 3)); got != 2 {
		t.Errorf("cohort of 3 replicas on 2 backends has size %d", got)
	}
	if got := len(r.Cohort(r.Hash([]byte("x")), 0)); got != 1 {
		t.Errorf("cohort of 0 replicas has size %d", got)
	}
}

func TestCohortDistinctMembers(t *testing.T) {
	f := func(raw uint64, nRaw uint8) bool {
		n := int(nRaw%20) + 3
		r := New(n, nil)
		h := KeyHash{Hi: raw, Lo: raw ^ 0xabcd}
		c := r.Cohort(h, 3)
		return c[0] != c[1] && c[1] != c[2] && c[0] != c[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCustomHashFunc(t *testing.T) {
	calls := 0
	r := New(4, func(key []byte) KeyHash {
		calls++
		return KeyHash{Hi: uint64(len(key)), Lo: 1}
	})
	r.Hash([]byte("abc"))
	if calls != 1 {
		t.Error("custom hash not invoked")
	}
	if r.Primary(KeyHash{Hi: 7, Lo: 1}) != 3 {
		t.Error("primary should be Hi mod N")
	}
}

func TestNewPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0, nil)
}

func BenchmarkDefaultHash(b *testing.B) {
	key := []byte("a-representative-cache-key-of-32b")
	b.SetBytes(int64(len(key)))
	for i := 0; i < b.N; i++ {
		DefaultHash(key)
	}
}
