package rpc

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestAdmissionBoundsConcurrency: with limit N and 4N callers into a handler
// that blocks, exactly N handlers are inside at once, the other 3N are
// counted (and timed) as queued, and every call completes once released.
func TestAdmissionBoundsConcurrency(t *testing.T) {
	const limit, callers = 4, 16
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.SetWorkerLimit(limit)
	block := make(chan struct{})
	var inside, peak atomic.Int32
	s.Handle("Slow", func(_ context.Context, _ string, req []byte) ([]byte, error) {
		if now := inside.Add(1); now > peak.Load() {
			peak.Store(now) // racy max is fine: any reading over limit fails below
		}
		<-block
		inside.Add(-1)
		return req, nil
	})
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, _, err := n.Client(0, "p").Call(context.Background(), "b", "Slow", nil)
			errs <- err
		}()
	}
	waitFor(t, "the other callers to queue", func() bool {
		return s.Saturation().QueuedSubmits >= callers-limit
	})
	sat := s.Saturation()
	if got := inside.Load(); got != limit || sat.WorkersBusy != limit || sat.WorkerLimit != limit {
		t.Errorf("%d handlers inside, WorkersBusy %d of WorkerLimit %d; want %d", got, sat.WorkersBusy, sat.WorkerLimit, limit)
	}
	close(block)
	for i := 0; i < callers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := peak.Load(); got > limit {
		t.Errorf("%d handlers ran at once under a limit of %d", got, limit)
	}
	if sat := s.Saturation(); sat.SubmitWaitNs == 0 || sat.WorkersBusy != 0 {
		t.Errorf("after release: SubmitWaitNs %d (want > 0), WorkersBusy %d (want 0)", sat.SubmitWaitNs, sat.WorkersBusy)
	}
}

// TestAdmissionDeadlineWhileQueued: a caller whose context expires while it
// waits for a slot fails with ErrDeadlineExceeded and its handler never
// runs; the admitted handler is unaffected.
func TestAdmissionDeadlineWhileQueued(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.SetWorkerLimit(1)
	block := make(chan struct{})
	var ran atomic.Int32
	s.Handle("Slow", func(context.Context, string, []byte) ([]byte, error) {
		ran.Add(1)
		<-block
		return nil, nil
	})
	first := make(chan error, 1)
	go func() {
		_, _, err := n.Client(0, "p").Call(context.Background(), "b", "Slow", nil)
		first <- err
	}()
	waitFor(t, "the first call to be admitted", func() bool { return ran.Load() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := n.Client(0, "p").Call(ctx, "b", "Slow", nil); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("queued call whose context expired: %v", err)
	}
	close(block)
	if err := <-first; err != nil {
		t.Errorf("admitted call: %v", err)
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("handler ran %d times; the expired call must not run it", got)
	}
	if sat := s.Saturation(); sat.QueuedSubmits != 1 {
		t.Errorf("QueuedSubmits = %d, want 1", sat.QueuedSubmits)
	}
}

// TestAdmissionSetWorkerLimitUnderTraffic: changing the limit under live
// traffic loses no call, and Saturation's cumulative fields never go
// backwards across it.
func TestAdmissionSetWorkerLimitUnderTraffic(t *testing.T) {
	const callers = 8
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.SetWorkerLimit(1)
	s.Handle("Yield", func(_ context.Context, _ string, req []byte) ([]byte, error) {
		runtime.Gosched() // hold the slot across a reschedule so callers really queue
		return req, nil
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var calls atomic.Uint64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := n.Client(0, "p")
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := c.Call(context.Background(), "b", "Yield", nil); err != nil {
					t.Errorf("call lost across SetWorkerLimit: %v", err)
					return
				}
				calls.Add(1)
			}
		}()
	}
	waitFor(t, "queueing under limit 1", func() bool { return s.Saturation().QueuedSubmits > 0 })
	prev := s.Saturation()
	for i, limit := range []int{2, 1, 3, 64, 1, 2, 1, 4, 1, 2} {
		s.SetWorkerLimit(limit)
		target := calls.Load() + 50
		waitFor(t, "traffic under the new limit", func() bool { return calls.Load() >= target })
		sat := s.Saturation()
		if sat.WorkerLimit != uint64(limit) {
			t.Errorf("step %d: WorkerLimit = %d, want %d", i, sat.WorkerLimit, limit)
		}
		if sat.QueuedSubmits < prev.QueuedSubmits || sat.SubmitWaitNs < prev.SubmitWaitNs ||
			sat.Calls < prev.Calls || sat.QueuedCalls < prev.QueuedCalls || sat.QueueNs < prev.QueueNs {
			t.Errorf("step %d: cumulative saturation went backwards:\n before %+v\n after  %+v", i, prev, sat)
		}
		prev = sat
	}
	close(stop)
	wg.Wait()
	if got := s.Saturation().Calls; got != calls.Load() {
		t.Errorf("server counted %d calls, callers completed %d", got, calls.Load())
	}
}

// TestAdmissionLeavesNoGoroutines: calls run on their callers, so neither
// traffic nor a changed limit may leave a goroutine behind.
func TestAdmissionLeavesNoGoroutines(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("M", func(_ context.Context, _ string, req []byte) ([]byte, error) { return req, nil })
	c := n.Client(0, "p")
	call := func() {
		t.Helper()
		if _, _, err := c.Call(context.Background(), "b", "M", nil); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		call()
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("1000 sequential calls: %d goroutines, %d before", now, before)
	}
	for i := 0; i < 10; i++ {
		s.SetWorkerLimit(8 + i)
		call()
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("10 SetWorkerLimits: %d goroutines, %d before", now, before)
	}
}
