package drive

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settled waits, briefly, for the goroutine count to fall back to base: a
// worker that has signalled its WaitGroup may still be on its way out.
func settled(base int) bool {
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// advancing reports whether n moves within 200 ms: a running worker moves
// it in microseconds.
func advancing(n *atomic.Int64) bool {
	from := n.Load()
	deadline := time.Now().Add(200 * time.Millisecond)
	for n.Load() == from {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// counting is a background group whose every op bumps n.
func counting(workers int, n *atomic.Int64) Group {
	return Group{Workers: workers, Worker: func(int) Op {
		return func(int) (uint64, error) { n.Add(1); return 0, nil }
	}}
}

// TestBackgroundOutlivesBoundedAndController: every bounded op and the
// controller's last act see the background group still issuing ops, and
// once Run returns it issues none.
func TestBackgroundOutlivesBoundedAndController(t *testing.T) {
	base := runtime.NumGoroutine()
	var bg atomic.Int64
	var stalled atomic.Int64
	check := func() {
		if !advancing(&bg) {
			stalled.Add(1)
		}
	}
	bounded := Group{Workers: 2, Ops: 20, Worker: func(int) Op {
		return func(i int) (uint64, error) { check(); return uint64(i + 1), nil }
	}}
	res := Run(context.Background(), check, bounded, counting(3, &bg))
	if n := stalled.Load(); n > 0 {
		t.Fatalf("the background group had stopped at %d of the 21 turns before Run returned", n)
	}
	if !settled(base) {
		t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
	}
	if advancing(&bg) {
		t.Fatal("the background group still issues ops after Run returned")
	}
	if res.Service.Count() != uint64(res.Ops) || res.Ops != 20+uint64(bg.Load()) || res.Errors != 0 {
		t.Fatalf("ops=%d recorded=%d errors=%d, want 20 bounded + %d background, all recorded", res.Ops, res.Service.Count(), res.Errors, bg.Load())
	}
}

// TestControllerGoexitStopsEveryWorker: a controller that leaves through
// runtime.Goexit, as t.Fatal does, still has every worker stopped and
// joined — the bounded group's remaining ops are cut short.
func TestControllerGoexitStopsEveryWorker(t *testing.T) {
	base := runtime.NumGoroutine()
	var bg, bounded atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(context.Background(), func() {
			if !advancing(&bg) || !advancing(&bounded) {
				t.Error("the workers never started")
			}
			runtime.Goexit()
		}, counting(2, &bg), Group{Workers: 2, Ops: 1 << 40, Worker: func(int) Op {
			return func(int) (uint64, error) { bounded.Add(1); return 0, nil }
		}})
		t.Error("Run returned past the controller's Goexit")
	}()
	<-done
	if !settled(base) {
		t.Fatalf("%d goroutines after the controller's Goexit, %d before", runtime.NumGoroutine(), base)
	}
	if advancing(&bg) || advancing(&bounded) {
		t.Fatal("workers still issue ops after the controller's Goexit")
	}
}

// TestErrStopEndsOneWorker: a worker whose op returns ErrStop issues no
// more ops, and the rest of its bounded group takes over its share.
func TestErrStopEndsOneWorker(t *testing.T) {
	var quitter atomic.Int64
	res := Run(context.Background(), nil, Group{Workers: 3, Ops: 300, Worker: func(w int) Op {
		return func(int) (uint64, error) {
			if w == 0 {
				quitter.Add(1)
				return 0, ErrStop
			}
			for quitter.Load() == 0 { // worker 0 gets an op
				runtime.Gosched()
			}
			return 1, nil
		}
	}})
	if quitter.Load() != 1 || res.Ops != 299 || res.Service.Count() != 299 {
		t.Fatalf("worker 0 ran %d ops; the run issued %d and recorded %d, want 1, 299, 299", quitter.Load(), res.Ops, res.Service.Count())
	}
}
