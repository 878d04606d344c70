package slab

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, pool, slabSize int, classes []int) *Allocator {
	t.Helper()
	a, err := New(pool, slabSize, classes)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAllocBasic(t *testing.T) {
	a := mustNew(t, 1<<20, 1<<16, nil)
	r, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size != 104 {
		t.Errorf("size class = %d, want 104", r.Size)
	}
	if r.Offset%(1<<16)%104 != 0 {
		t.Errorf("offset %d misaligned", r.Offset)
	}
	if err := a.Free(r, 100); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.AllocatedBytes != 0 || st.RequestedBytes != 0 {
		t.Errorf("stats after free: %+v", st)
	}
}

func TestAllocDistinctRefs(t *testing.T) {
	a := mustNew(t, 1<<20, 1<<16, nil)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		r, err := a.Alloc(64)
		if err != nil {
			t.Fatal(err)
		}
		if seen[r.Offset] {
			t.Fatalf("duplicate offset %d", r.Offset)
		}
		seen[r.Offset] = true
	}
}

func TestAllocExhaustion(t *testing.T) {
	// 2 slabs of 1KB, class 1KB → exactly 2 chunks.
	a := mustNew(t, 2048, 1024, []int{1024})
	r1, err := a.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1000); err != ErrNoCapacity {
		t.Fatalf("want ErrNoCapacity, got %v", err)
	}
	a.Free(r1, 1000)
	if _, err := a.Alloc(1000); err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
}

func TestSlabRepurposing(t *testing.T) {
	// One slab only. Fill with small chunks, free all, then allocate a
	// large chunk: the slab must be repurposed to the new class.
	a := mustNew(t, 1024, 1024, []int{64, 512})
	var refs []Ref
	for {
		r, err := a.Alloc(64)
		if err != nil {
			break
		}
		refs = append(refs, r)
	}
	if len(refs) != 16 {
		t.Fatalf("filled %d chunks, want 16", len(refs))
	}
	if _, err := a.Alloc(512); err != ErrNoCapacity {
		t.Fatalf("full slab should reject other class: %v", err)
	}
	for _, r := range refs {
		a.Free(r, 64)
	}
	if _, err := a.Alloc(512); err != nil {
		t.Fatalf("repurposing failed: %v", err)
	}
}

func TestSizeClassSelection(t *testing.T) {
	a := mustNew(t, 1<<22, 1<<18, nil)
	cases := map[int]int{
		1: 64, 64: 64, 65: 72, 72: 72, 73: 80, 100: 104, 128: 128, 129: 144,
		1084: 1152, 4096: 4096, 4097: 4608, 16444: 18432, 122880: 122880, 122881: 131072, 131072: 131072,
	}
	for req, want := range cases {
		r, err := a.Alloc(req)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", req, err)
		}
		if r.Size != want || ClassSize(req) != want {
			t.Errorf("Alloc(%d) class = %d, ClassSize = %d, want %d", req, r.Size, ClassSize(req), want)
		}
	}
	if _, err := a.Alloc(131073); err == nil || err == ErrNoCapacity {
		t.Errorf("oversize alloc: %v, want a size error", err)
	}
	// A slab smaller than the largest class keeps the classes that fit.
	small := mustNew(t, 1<<16, 1<<12, nil)
	if r, err := small.Alloc(4096); err != nil || r.Size != 4096 {
		t.Errorf("Alloc(4096) in 4 KiB slabs = %+v, %v", r, err)
	}
	if _, err := small.Alloc(4097); err == nil || err == ErrNoCapacity {
		t.Errorf("Alloc(4097) in 4 KiB slabs: %v, want a size error", err)
	}
}

// TestClassLookupMatchesTable holds the O(1) class arithmetic to a linear
// scan of the table it indexes, for every size the table serves.
func TestClassLookupMatchesTable(t *testing.T) {
	table := DefaultSizeClasses()
	if len(table) != 89 || table[0] != 64 || table[1] != 72 || table[8] != 128 || table[88] != 131072 {
		t.Fatalf("table = %v", table)
	}
	want := 0
	for size := 1; size <= 131072; size++ {
		if table[want] < size {
			want++
		}
		if got := classIndex(size); got != want {
			t.Fatalf("classIndex(%d) = %d, want %d (%d B)", size, got, want, table[want])
		}
	}
	if got := classIndex(131073); got != len(table) {
		t.Errorf("classIndex(131073) = %d, want %d (past the table)", got, len(table))
	}
}

// TestClassFillBound checks that every size the table serves past its
// smallest class fills more than 8/9 of the chunk it is given.
func TestClassFillBound(t *testing.T) {
	for size := 65; size <= 131072; size++ {
		c := ClassSize(size)
		if size > c || 9*size <= 8*c {
			t.Fatalf("ClassSize(%d) = %d: want size ≤ class < 9/8 size", size, c)
		}
	}
}

func TestAllocInvalidSize(t *testing.T) {
	a := mustNew(t, 1<<20, 1<<16, nil)
	if _, err := a.Alloc(0); err == nil {
		t.Error("Alloc(0) should fail")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Error("Alloc(-5) should fail")
	}
}

func TestFreeValidation(t *testing.T) {
	a := mustNew(t, 1<<20, 1<<16, nil)
	r, _ := a.Alloc(64)
	if err := a.Free(Ref{Offset: 1 << 21, Size: 64}, 64); err == nil {
		t.Error("out-of-pool free should fail")
	}
	if err := a.Free(Ref{Offset: r.Offset, Size: 4096}, 64); err == nil {
		t.Error("wrong-class free should fail")
	}
	if err := a.Free(Ref{Offset: r.Offset + 1, Size: 64}, 64); err == nil {
		t.Error("misaligned free should fail")
	}
	if err := a.Free(r, 64); err != nil {
		t.Error(err)
	}
}

func TestGrow(t *testing.T) {
	a := mustNew(t, 1024, 1024, []int{1024})
	if _, err := a.Alloc(1024); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1024); err != ErrNoCapacity {
		t.Fatal("expected exhaustion")
	}
	grew := a.Grow(2100)
	if grew != 2048 {
		t.Errorf("Grow(2100) = %d, want 2048 (whole slabs)", grew)
	}
	if a.PoolBytes() != 3072 {
		t.Errorf("pool = %d", a.PoolBytes())
	}
	if _, err := a.Alloc(1024); err != nil {
		t.Errorf("alloc after grow: %v", err)
	}
}

func TestStatsFragmentation(t *testing.T) {
	a := mustNew(t, 1<<20, 1<<16, []int{128})
	a.Alloc(64) // 50% internal fragmentation
	st := a.Stats()
	if st.AllocatedBytes != 128 || st.RequestedBytes != 64 {
		t.Fatalf("stats = %+v", st)
	}
	if st.InternalFrag != 0.5 {
		t.Errorf("frag = %v, want 0.5", st.InternalFrag)
	}
}

// TestStatsTailBytes: a slab whose size is not a multiple of its chunk
// strands the remainder, which InternalFrag (a per-chunk ratio) cannot see.
func TestStatsTailBytes(t *testing.T) {
	a := mustNew(t, 256<<10, 256<<10, nil)
	r, err := a.Alloc(96 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.TailBytes != 64<<10 || st.InternalFrag != 0 || st.FreeSlabs != 0 {
		t.Errorf("one 96 KiB chunk in a 256 KiB slab: %+v, want a 64 KiB tail, no internal frag, no free slab", st)
	}
	a.Free(r, 96<<10)
	if st := a.Stats(); st.FreeSlabs != 1 {
		t.Errorf("an emptied slab counts as free: %+v", st)
	}
	// Repurposing the slab to a class that nearly divides it drops the tail.
	if _, err := a.Alloc(100); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.TailBytes != (256<<10)%112 || st.FreeSlabs != 0 {
		t.Errorf("after repurposing: %+v, want a %d B tail", st, (256<<10)%112)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(100, 1024, nil); err == nil {
		t.Error("pool smaller than slab should fail")
	}
	if _, err := New(1<<20, 1024, []int{2048}); err == nil {
		t.Error("class larger than slab should fail")
	}
	if _, err := New(1<<20, 1024, []int{128, 128}); err == nil {
		t.Error("non-increasing classes should fail")
	}
	if _, err := New(1<<20, 0, nil); err == nil {
		t.Error("zero slab size should fail")
	}
}

// TestChurnProperty simulates value churn: random alloc/free sequences must
// preserve the no-overlap invariant and account bytes exactly.
func TestChurnProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, _ := New(1<<18, 1<<14, nil)
		type live struct {
			r   Ref
			req int
		}
		var alive []live
		occupied := map[int]int{} // offset -> size
		for step := 0; step < 2000; step++ {
			if len(alive) == 0 || rng.Intn(2) == 0 {
				req := 1 + rng.Intn(8192)
				r, err := a.Alloc(req)
				if err != nil {
					continue // exhaustion is fine
				}
				// Overlap check against all live chunks.
				for off, sz := range occupied {
					if r.Offset < off+sz && off < r.Offset+r.Size {
						return false
					}
				}
				occupied[r.Offset] = r.Size
				alive = append(alive, live{r, req})
			} else {
				i := rng.Intn(len(alive))
				l := alive[i]
				if err := a.Free(l.r, l.req); err != nil {
					return false
				}
				delete(occupied, l.r.Offset)
				alive[i] = alive[len(alive)-1]
				alive = alive[:len(alive)-1]
			}
		}
		// Accounting: allocated bytes == sum of live class sizes.
		var sum int
		for _, sz := range occupied {
			sum += sz
		}
		return a.Stats().AllocatedBytes == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a, _ := New(1<<24, 1<<18, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := a.Alloc(1024)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(r, 1024)
	}
}
