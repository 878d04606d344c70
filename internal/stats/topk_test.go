package stats

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestTopKErrorBound drives adversarial (uniform, high-cardinality)
// streams through the sketch and checks the space-saving guarantees
// deterministically: every reported count over-estimates the true count
// by at most its Err field, and Err ≤ N/k.
func TestTopKErrorBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys int
		ops  int
		k    int
		s    float64 // zipf skew; 0 = uniform
	}{
		{"uniform-small", 64, 2_000, 8, 0},
		{"uniform-large", 4096, 50_000, 32, 0},
		{"zipf-1.2", 4096, 50_000, 16, 1.2},
		{"zipf-heavy", 1024, 30_000, 8, 2.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			var zipf *rand.Zipf
			if tc.s > 0 {
				zipf = rand.NewZipf(rng, tc.s, 1, uint64(tc.keys-1))
			}
			sk := NewTopK(tc.k)
			truth := make(map[string]uint64)
			for i := 0; i < tc.ops; i++ {
				var id uint64
				if zipf != nil {
					id = zipf.Uint64()
				} else {
					id = uint64(rng.Intn(tc.keys))
				}
				key := fmt.Sprintf("key-%016x", id)
				sk.TouchString(key)
				truth[key]++
			}
			if got, want := sk.Total(), uint64(tc.ops); got != want {
				t.Fatalf("Total = %d, want %d", got, want)
			}
			bound := uint64(tc.ops) / uint64(tc.k)
			for _, hk := range sk.TopN(0) {
				tr := truth[hk.Key]
				if hk.Count < tr {
					t.Errorf("key %s: count %d under-estimates true %d", hk.Key, hk.Count, tr)
				}
				if hk.Count-tr > hk.Err {
					t.Errorf("key %s: over-estimate %d exceeds Err %d", hk.Key, hk.Count-tr, hk.Err)
				}
				if hk.Err > bound {
					t.Errorf("key %s: Err %d exceeds N/k = %d", hk.Key, hk.Err, bound)
				}
			}
		})
	}
}

// TestTopKZipfRecall plants a Zipfian workload (s = 1.2, the acceptance
// skew) and asserts the true hottest keys are recalled by TopN.
func TestTopKZipfRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<20)
	sk := NewTopK(64)
	truth := make(map[string]uint64)
	const ops = 200_000
	for i := 0; i < ops; i++ {
		key := fmt.Sprintf("key-%016x", zipf.Uint64())
		sk.TouchString(key)
		truth[key]++
	}
	// The hottest true key must rank first, and the true top-5 must all be
	// tracked with counts within the error bound.
	var hottest string
	var hotN uint64
	for k, n := range truth {
		if n > hotN || (n == hotN && k < hottest) {
			hottest, hotN = k, n
		}
	}
	top := sk.TopN(10)
	if len(top) == 0 || top[0].Key != hottest {
		t.Fatalf("TopN[0] = %+v, want hottest true key %s (count %d)", top, hottest, hotN)
	}
	tracked := make(map[string]HotKey)
	for _, hk := range sk.TopN(0) {
		tracked[hk.Key] = hk
	}
	type kv struct {
		k string
		n uint64
	}
	var all []kv
	for k, n := range truth {
		all = append(all, kv{k, n})
	}
	// Partial selection of the true top 5.
	for i := 0; i < 5; i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].n > all[best].n {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
		hk, ok := tracked[all[i].k]
		if !ok {
			t.Fatalf("true top-%d key %s (count %d) not tracked", i+1, all[i].k, all[i].n)
		}
		if hk.Count < all[i].n {
			t.Errorf("key %s: tracked count %d < true %d", all[i].k, hk.Count, all[i].n)
		}
	}
}

// TestTopKConcurrent hammers the sketch from many goroutines under -race
// and checks the total and bound invariants still hold.
func TestTopKConcurrent(t *testing.T) {
	sk := NewTopK(32)
	const workers = 8
	const perWorker = 20_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			zipf := rand.NewZipf(rng, 1.3, 1, 4096)
			for i := 0; i < perWorker; i++ {
				sk.TouchString(fmt.Sprintf("key-%016x", zipf.Uint64()))
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if got, want := sk.Total(), uint64(workers*perWorker); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	bound := sk.Total() / uint64(sk.K())
	for _, hk := range sk.TopN(0) {
		if hk.Err > bound {
			t.Errorf("key %s: Err %d exceeds N/k = %d", hk.Key, hk.Err, bound)
		}
	}
	sk.Reset()
	if sk.Total() != 0 || sk.Tracked() != 0 {
		t.Fatalf("Reset left Total=%d Tracked=%d", sk.Total(), sk.Tracked())
	}
}

// topNFullSort is TopN as it was before the bounded selection: materialise
// every tracked key, sort, truncate. Kept as the reference the selection is
// held to.
func topNFullSort(t *TopK, n int) []HotKey {
	var out []HotKey
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		for j := range s.items {
			out = append(out, HotKey{Key: string(s.items[j].key), Count: s.counts[j], Err: s.items[j].err})
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// TestTopKSelectionMatchesFullSort holds TopN's bounded selection to the
// full sort over seeded random sketches — empty, part-filled and churning;
// few distinct counts, so ties abound and the key order decides; keys that
// are prefixes of one another — for every n that matters: all, one, the
// promotion evaluator's 16, and more than are tracked. AppendTop is handed
// the same scratch throughout, so a stale buffer surviving into a later
// selection would show.
func TestTopKSelectionMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var scratch []HotCand
	for round := 0; round < 200; round++ {
		sk := NewTopK(1 + rng.Intn(12))
		keys := 1 + rng.Intn(300)
		for ops := rng.Intn(2000); ops > 0; ops-- {
			id := rng.Intn(keys)
			sk.TouchString("k" + strings.Repeat("x", id%5) + fmt.Sprint(id/5))
		}
		for _, n := range []int{0, 1, 16, sk.Tracked() + 3} {
			want := topNFullSort(sk, n)
			if got := sk.TopN(n); !slices.Equal(got, want) {
				t.Fatalf("round %d: TopN(%d)\n got %v\nwant %v", round, n, got, want)
			}
			scratch = sk.AppendTop(scratch, n)
			if len(scratch) != len(want) {
				t.Fatalf("round %d: AppendTop(%d) selected %d keys, want %d", round, n, len(scratch), len(want))
			}
			for i, c := range scratch {
				if got := (HotKey{Key: string(c.Key), Count: c.Count, Err: c.Err}); got != want[i] {
					t.Fatalf("round %d: AppendTop(%d)[%d] = %v, want %v", round, n, i, got, want[i])
				}
			}
		}
	}
}

// TestTopKAppendTopReusesScratch: a selection into a warmed scratch
// allocates nothing — what lets the backend re-evaluate its promoted set
// on every touch window for free.
func TestTopKAppendTopReusesScratch(t *testing.T) {
	sk := NewTopK(0)
	for i := 0; i < 5000; i++ {
		sk.TouchString(fmt.Sprintf("key-%d", i%700))
	}
	scratch := sk.AppendTop(nil, 16)
	if got := testing.AllocsPerRun(100, func() { scratch = sk.AppendTop(scratch, 16) }); got != 0 {
		t.Errorf("%v allocations per selection into a warmed scratch, want 0", got)
	}
}

// TestTopKChurnAllocatesNothing: once every slot holds a key, each new key
// evicts a slot and re-indexes it without allocating, however long the
// churn runs: every eviction takes one hash out of the index and puts
// another in.
func TestTopKChurnAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	keys := make([][]byte, 100_000)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "churn-%06d", i)
	}
	fill := 4 * topkShardCount * NewTopK(0).K() // every slot has copied a key
	// The best of three fresh sketches: the runtime may allocate on its
	// own in any one window.
	best := uint64(math.MaxUint64)
	for range 3 {
		tk := NewTopK(0)
		touch := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				tk.Touch(keys[i], uint64(i+1)*0x9e3779b97f4a7c15)
			}
		}
		touch(0, fill)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		touch(fill, len(keys))
		runtime.ReadMemStats(&after)
		best = min(best, after.Mallocs-before.Mallocs)
	}
	if best != 0 {
		t.Errorf("%d allocations over %d touches of new keys into a full sketch, want 0", best, len(keys)-fill)
	}
}
