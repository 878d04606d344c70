package rmem

import (
	"bytes"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestReadWriteRoundTrip(t *testing.T) {
	r := NewRegion(1024, 4096)
	data := []byte("hello registered memory")
	if err := r.Write(100, data); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read(100, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("read back %q", got)
	}
}

func TestBoundsChecking(t *testing.T) {
	r := NewRegion(128, 256)
	if _, err := r.Read(100, 100); err != ErrOutOfBounds {
		t.Errorf("read past populated: %v", err)
	}
	if err := r.Write(120, make([]byte, 20)); err != ErrOutOfBounds {
		t.Errorf("write past populated: %v", err)
	}
	if _, err := r.Read(-1, 4); err != ErrOutOfBounds {
		t.Errorf("negative offset: %v", err)
	}
	if _, err := r.Read(0, -1); err != ErrOutOfBounds {
		t.Errorf("negative length: %v", err)
	}
	if err := r.WriteChunked(200, make([]byte, 100)); err != ErrOutOfBounds {
		t.Errorf("chunked write past populated: %v", err)
	}
}

// TestBoundsAreOverflowSafe: offsets and lengths can come from pointers
// read out of RMA-visible memory. No combination may wrap the bounds
// arithmetic into a pass, and Read must refuse before it allocates — a
// 1<<40 length is an error, not a terabyte make.
func TestBoundsAreOverflowSafe(t *testing.T) {
	r := NewRegion(128, 256)
	reg := NewRegistry()
	w := reg.Register(r, 1)
	for _, tc := range []struct{ off, n int }{
		{0, 1 << 40},
		{math.MaxInt64 - 8, 64},
		{math.MaxInt64 - 8, math.MaxInt64 - 8},
		{64, math.MaxInt64},
		{math.MaxInt64, 0},
		{129, 0},
		{-1, 0},
		{0, -1},
		{math.MinInt64, math.MinInt64},
	} {
		if r.InBounds(tc.off, tc.n) {
			t.Errorf("InBounds(%d, %d) = true", tc.off, tc.n)
		}
		if allocs := testing.AllocsPerRun(1, func() {
			if _, err := r.Read(tc.off, tc.n); err != ErrOutOfBounds {
				t.Errorf("Read(%d, %d): %v", tc.off, tc.n, err)
			}
		}); allocs != 0 {
			t.Errorf("Read(%d, %d) allocated before refusing", tc.off, tc.n)
		}
		if _, err := r.View(tc.off, tc.n); err != ErrOutOfBounds {
			t.Errorf("View(%d, %d): %v", tc.off, tc.n, err)
		}
		if _, err := reg.AppendRead(nil, w.ID, tc.off, tc.n); err != ErrOutOfBounds {
			t.Errorf("Registry.AppendRead(%d, %d): %v", tc.off, tc.n, err)
		}
		if tc.n >= 0 && tc.n <= 64 { // the slice-taking entry points, with a length one can hold
			buf := make([]byte, tc.n)
			if err := r.ReadInto(tc.off, buf); err != ErrOutOfBounds {
				t.Errorf("ReadInto(%d, %d bytes): %v", tc.off, tc.n, err)
			}
			if err := r.Write(tc.off, buf); err != ErrOutOfBounds {
				t.Errorf("Write(%d, %d bytes): %v", tc.off, tc.n, err)
			}
			if err := r.WriteChunked(tc.off, buf); err != ErrOutOfBounds {
				t.Errorf("WriteChunked(%d, %d bytes): %v", tc.off, tc.n, err)
			}
		}
	}
	// The edges that are in bounds stay so.
	for _, tc := range []struct{ off, n int }{{0, 128}, {128, 0}, {127, 1}, {0, 0}} {
		if !r.InBounds(tc.off, tc.n) {
			t.Errorf("[%d, %d+%d) must be in bounds", tc.off, tc.off, tc.n)
		}
	}
	buf := make([]byte, 4)
	r.Write(124, []byte{1, 2, 3, 4})
	if err := r.ReadInto(124, buf); err != nil || buf[3] != 4 {
		t.Errorf("ReadInto at the edge: %v %v", buf, err)
	}
}

func TestGrowPopulatesReservedRange(t *testing.T) {
	r := NewRegion(128, 1024)
	if err := r.Write(500, []byte{1}); err != ErrOutOfBounds {
		t.Fatal("write beyond populated should fail before grow")
	}
	if got := r.Grow(512); got != 640 {
		t.Errorf("Grow -> %d, want 640", got)
	}
	if err := r.Write(500, []byte{1}); err != nil {
		t.Errorf("write after grow: %v", err)
	}
	// Growth clamps at capacity.
	if got := r.Grow(1 << 20); got != 1024 {
		t.Errorf("over-grow -> %d, want 1024", got)
	}
	if len(r.buf) != 1024 {
		t.Errorf("capacity changed: %d", len(r.buf))
	}
}

// TestTornReadObservable proves the tearing model: a reader that races a
// chunked writer can observe a mix of old and new bytes. Tearing requires
// temporal overlap — the reader contends on the stripe locks in a tight
// loop, so on a single-CPU scheduler the mutex starvation-mode handoff
// interleaves it with the writer at chunk boundaries (the same mechanism
// a GET storm exercises against live SETs), while on multi-CPU the race
// is direct. The writer keeps alternating values until a tear is seen or
// a generous deadline proves the model broken.
func TestTornReadObservable(t *testing.T) {
	const size = 4 * WriteChunk
	r := NewRegion(size, size)
	old := bytes.Repeat([]byte{0xAA}, size)
	newv := bytes.Repeat([]byte{0xBB}, size)
	r.Write(0, old)

	var sawTorn atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, err := r.Read(0, size)
			if err != nil {
				t.Error(err)
				return
			}
			if bytes.Contains(got, []byte{0xAA}) && bytes.Contains(got, []byte{0xBB}) {
				sawTorn.Store(true)
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; !sawTorn.Load() && time.Now().Before(deadline); i++ {
		if i%2 == 0 {
			r.WriteChunked(0, newv)
		} else {
			r.WriteChunked(0, old)
		}
	}
	close(stop)
	wg.Wait()
	if !sawTorn.Load() {
		t.Error("chunked writes never produced an observable torn read; tearing model broken")
	}
}

// TestWriteChunkedNotStarvedByReaders pins the mutation-liveness fix: a
// closed-loop storm of readers over a hot entry's stripe must not starve
// a chunked writer. With the old per-chunk runtime.Gosched, the writer
// parked on the global run queue between every 256B chunk and a 24KB
// write took seconds on a single-CPU scheduler (SETs starved for as long
// as a GET storm lasted); with lock-handoff interleave it completes in
// milliseconds.
func TestWriteChunkedNotStarvedByReaders(t *testing.T) {
	r := NewRegion(1<<20, 1<<20)
	var stop atomic.Bool
	defer stop.Store(true)
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4096)
			for !stop.Load() {
				r.ReadInto(0, buf)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the storm establish
	data := make([]byte, 24<<10)
	start := time.Now()
	if err := r.WriteChunked(0, data); err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	stop.Store(true)
	wg.Wait()
	if el > 2*time.Second {
		t.Fatalf("24KB chunked write starved under reader storm: took %v", el)
	}
	t.Logf("24KB chunked write under 12-reader storm: %v", el)
}

func TestAtomicWriteNeverTears(t *testing.T) {
	const size = 64 // single chunk: must be atomic
	r := NewRegion(size, size)
	old := bytes.Repeat([]byte{0xAA}, size)
	newv := bytes.Repeat([]byte{0xBB}, size)
	r.Write(0, old)

	stop := make(chan struct{})
	var fail bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			got, _ := r.Read(0, size)
			if bytes.Contains(got, []byte{0xAA}) && bytes.Contains(got, []byte{0xBB}) {
				fail = true
				return
			}
			runtime.Gosched()
		}
	}()
	for i := 0; i < 5000; i++ {
		if i%2 == 0 {
			r.Write(0, newv)
		} else {
			r.Write(0, old)
		}
	}
	close(stop)
	wg.Wait()
	if fail {
		t.Error("single-chunk Write tore")
	}
}

func TestReadInto(t *testing.T) {
	r := NewRegion(128, 128)
	r.Write(10, []byte{1, 2, 3})
	buf := make([]byte, 3)
	if err := r.ReadInto(10, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Errorf("ReadInto = %v", buf)
	}
	if err := r.ReadInto(127, make([]byte, 2)); err != ErrOutOfBounds {
		t.Error("ReadInto past extent should fail")
	}
}

func TestRegistryLifecycle(t *testing.T) {
	g := NewRegistry()
	region := NewRegion(256, 256)
	region.Write(0, []byte("window data"))

	w := g.Register(region, 1)
	if w.ID == 0 {
		t.Fatal("window ID should be nonzero")
	}
	got, err := g.AppendRead(nil, w.ID, 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "window data" {
		t.Errorf("read %q", got)
	}

	g.Revoke(w.ID)
	if _, err := g.AppendRead(nil, w.ID, 0, 11); err == nil {
		t.Error("read after revoke should fail")
	}
	if _, err := g.Lookup(w.ID); err == nil {
		t.Error("lookup after revoke should fail")
	}
}

func TestRegistryIDsNeverReused(t *testing.T) {
	g := NewRegistry()
	region := NewRegion(16, 16)
	seen := map[WindowID]bool{}
	for i := 0; i < 100; i++ {
		w := g.Register(region, uint64(i))
		if seen[w.ID] {
			t.Fatalf("window ID %d reused", w.ID)
		}
		seen[w.ID] = true
		g.Revoke(w.ID)
	}
}

// TestOverlappingWindows models data-region growth (§4.1): a second,
// larger window over the same region serves reads the old window cannot,
// while the old window keeps working during the transition.
func TestOverlappingWindows(t *testing.T) {
	g := NewRegistry()
	region := NewRegion(128, 1024)
	oldW := g.Register(region, 1)
	region.Grow(512)
	newW := g.Register(region, 2)

	region.Write(300, []byte{42})
	if _, err := g.AppendRead(nil, oldW.ID, 300, 1); err != nil {
		t.Errorf("old window should still serve in-bounds reads: %v", err)
	}
	got, err := g.AppendRead(nil, newW.ID, 300, 1)
	if err != nil || got[0] != 42 {
		t.Errorf("new window read = %v, %v", got, err)
	}
	if newW.Epoch <= oldW.Epoch {
		t.Error("new window must carry a later epoch")
	}

	g.Revoke(oldW.ID)
	if _, err := g.AppendRead(nil, oldW.ID, 0, 1); err == nil {
		t.Error("old window must fail after revocation")
	}
	if _, err := g.AppendRead(nil, newW.ID, 0, 1); err != nil {
		t.Errorf("new window unaffected by old revocation: %v", err)
	}
}

func TestConcurrentRegistryAccess(t *testing.T) {
	g := NewRegistry()
	region := NewRegion(1024, 1024)
	w := g.Register(region, 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if _, err := g.AppendRead(nil, w.ID, 0, 64); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func BenchmarkRegionRead4KB(b *testing.B) {
	r := NewRegion(1<<20, 1<<20)
	b.SetBytes(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(0, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteChunked4KB(b *testing.B) {
	r := NewRegion(1<<20, 1<<20)
	data := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		r.WriteChunked(0, data)
	}
}
