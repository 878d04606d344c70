package rpc

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"cliquemap/internal/fabric"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
)

func newNet(acct *stats.CPUAccount) *Network {
	return NewNetwork(fabric.New(4, fabric.Params{}), CostModel{}, acct)
}

func TestCallRoundTrip(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("backend-0", 1)
	s.Handle("Echo", func(_ context.Context, _ string, req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	c := n.Client(0, "tester")
	resp, tr, err := c.Call(context.Background(), "backend-0", "Echo", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hi" {
		t.Errorf("resp = %q", resp)
	}
	if tr.Ns == 0 || tr.Bytes == 0 {
		t.Error("trace empty")
	}
}

func TestNoSuchMethodAndAddr(t *testing.T) {
	n := newNet(nil)
	n.Serve("b", 1)
	c := n.Client(0, "p")
	if _, _, err := c.Call(context.Background(), "b", "Nope", nil); !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("missing method: %v", err)
	}
	if _, _, err := c.Call(context.Background(), "absent", "M", nil); !errors.Is(err, ErrUnavailable) {
		t.Errorf("missing addr: %v", err)
	}
}

func TestStopStart(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("M", func(context.Context, string, []byte) ([]byte, error) { return []byte("ok"), nil })
	c := n.Client(0, "p")

	s.Stop()
	if !s.Stopped() {
		t.Error("Stopped() false after Stop")
	}
	if _, _, err := c.Call(context.Background(), "b", "M", nil); !errors.Is(err, ErrUnavailable) {
		t.Errorf("stopped server: %v", err)
	}
	s.Start()
	if _, _, err := c.Call(context.Background(), "b", "M", nil); err != nil {
		t.Errorf("restarted server: %v", err)
	}
}

func TestReServeReplacesCrashedTask(t *testing.T) {
	n := newNet(nil)
	old := n.Serve("b", 1)
	old.Handle("M", func(context.Context, string, []byte) ([]byte, error) { return []byte("old"), nil })
	old.Stop()

	replacement := n.Serve("b", 2) // restarted on another host (§7.2.3)
	replacement.Handle("M", func(context.Context, string, []byte) ([]byte, error) { return []byte("new"), nil })

	c := n.Client(0, "p")
	resp, _, err := c.Call(context.Background(), "b", "M", nil)
	if err != nil || string(resp) != "new" {
		t.Errorf("resp=%q err=%v", resp, err)
	}
}

func TestAuthenticator(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("M", func(context.Context, string, []byte) ([]byte, error) { return nil, nil })
	s.SetAuthenticator(func(principal, method string) error {
		if principal != "alice" {
			return fmt.Errorf("denied %s", principal)
		}
		return nil
	})
	if _, _, err := n.Client(0, "mallory").Call(context.Background(), "b", "M", nil); !errors.Is(err, ErrUnauthenticated) {
		t.Errorf("mallory: %v", err)
	}
	if _, _, err := n.Client(0, "alice").Call(context.Background(), "b", "M", nil); err != nil {
		t.Errorf("alice: %v", err)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	sentinel := errors.New("handler boom")
	s.Handle("M", func(context.Context, string, []byte) ([]byte, error) { return nil, sentinel })
	if _, _, err := n.Client(0, "p").Call(context.Background(), "b", "M", nil); !errors.Is(err, sentinel) {
		t.Errorf("got %v", err)
	}
}

func TestDeadline(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("M", func(context.Context, string, []byte) ([]byte, error) { return nil, nil })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := n.Client(0, "p").Call(ctx, "b", "M", nil); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("cancelled ctx: %v", err)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Hour)
	defer cancel2()
	if _, _, err := n.Client(0, "p").Call(ctx2, "b", "M", nil); err != nil {
		t.Errorf("live ctx: %v", err)
	}
}

// TestEmptyRPCCostsOver50Micros verifies the §1/§2.1 claim driving the
// entire design: even an empty RPC costs >50 CPU-µs across client and
// server framework code.
func TestEmptyRPCCostsOver50Micros(t *testing.T) {
	acct := stats.NewCPUAccount()
	n := newNet(acct)
	s := n.Serve("b", 1)
	s.Handle("Empty", func(context.Context, string, []byte) ([]byte, error) { return nil, nil })
	c := n.Client(0, "p")
	const calls = 100
	for i := 0; i < calls; i++ {
		if _, _, err := c.Call(context.Background(), "b", "Empty", nil); err != nil {
			t.Fatal(err)
		}
	}
	perOp := (acct.TotalNanos("rpc-client") + acct.TotalNanos("rpc-server")) / calls
	if perOp <= 50000 {
		t.Errorf("empty RPC = %d CPU-ns/op, paper claims >50µs", perOp)
	}
}

func TestMethodCostBilled(t *testing.T) {
	acct := stats.NewCPUAccount()
	n := newNet(acct)
	s := n.Serve("b", 1)
	s.Handle("Heavy", func(context.Context, string, []byte) ([]byte, error) { return nil, nil })
	s.SetMethodCost("Heavy", 12345)
	n.Client(0, "p").Call(context.Background(), "b", "Heavy", nil)
	if acct.TotalNanos("handler") != 12345 {
		t.Errorf("handler CPU = %d", acct.TotalNanos("handler"))
	}
	// A handler's billed part adds to the method's cost, in CPU and in the
	// server's span of the call's modelled time.
	s.HandleBilled("Heavy", func(_ context.Context, _ string, req []byte) ([]byte, uint64, error) {
		return nil, 1000 * uint64(len(req)), nil
	})
	var oc trace.OpContext
	oc.Init(context.Background(), trace.SpanContext{OpID: 1})
	_, tr, err := n.Client(0, "p").Call(&oc, "b", "Heavy", []byte("abcde"))
	if err != nil {
		t.Fatal(err)
	}
	if got := acct.TotalNanos("handler"); got != 2*12345+5000 {
		t.Errorf("handler CPU = %d, want %d", got, 2*12345+5000)
	}
	var sum uint64
	for _, sp := range tr.Spans {
		sum += sp.Dur
	}
	want := DefaultCostModel().ServerCPUNs + DefaultCostModel().LatencyNs/2 + 12345 + 5000
	if i := slices.IndexFunc(tr.Spans, func(sp fabric.Span) bool { return sp.Code == trace.SpanRPCServer }); i < 0 || tr.Spans[i].Dur != want || tr.Spans[i].Arg != 12345+5000 {
		t.Errorf("spans %+v, want a server span of %d ns", tr.Spans, want)
	}
	if sum != tr.Ns {
		t.Errorf("spans sum to %d ns, the call took %d", sum, tr.Ns)
	}
}

func TestBytesAndCallsCounted(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("M", func(_ context.Context, _ string, req []byte) ([]byte, error) {
		return make([]byte, 1000), nil
	})
	c := n.Client(0, "p")
	before := n.BytesSent()
	c.Call(context.Background(), "b", "M", make([]byte, 500))
	delta := n.BytesSent() - before
	if delta < 1500 {
		t.Errorf("bytes delta = %d, want >= 1500", delta)
	}
	if n.Calls() != 1 {
		t.Errorf("calls = %d", n.Calls())
	}
}

func TestRPCLatencyFarAboveRMA(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("M", func(context.Context, string, []byte) ([]byte, error) { return nil, nil })
	_, tr, err := n.Client(0, "p").Call(context.Background(), "b", "M", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Framework latency ~70µs dwarfs the ~4µs fabric RTT.
	if tr.Ns < 50000 {
		t.Errorf("RPC latency %dns implausibly low", tr.Ns)
	}
}

func BenchmarkRPCCall(b *testing.B) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("M", func(_ context.Context, _ string, req []byte) ([]byte, error) { return req, nil })
	c := n.Client(0, "p")
	req := make([]byte, 256)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Call(ctx, "b", "M", req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConcurrentCalls hammers one server from many goroutines: the
// framework must stay consistent under contention (counters exact, no
// lost responses).
func TestConcurrentCalls(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("Echo", func(_ context.Context, _ string, req []byte) ([]byte, error) {
		return req, nil
	})
	const goroutines, per = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := n.Client(0, fmt.Sprintf("g%d", g))
			for i := 0; i < per; i++ {
				req := []byte(fmt.Sprintf("%d-%d", g, i))
				resp, _, err := c.Call(context.Background(), "b", "Echo", req)
				if err != nil {
					errs <- err
					return
				}
				if string(resp) != string(req) {
					errs <- fmt.Errorf("mismatched echo: %q vs %q", resp, req)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := n.Calls(); got != goroutines*per {
		t.Errorf("calls = %d, want %d", got, goroutines*per)
	}
}

// TestStopDuringTraffic: stopping a server mid-traffic yields clean
// ErrUnavailable failures, never hangs or panics.
func TestStopDuringTraffic(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("M", func(context.Context, string, []byte) ([]byte, error) { return nil, nil })
	c := n.Client(0, "p")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			_, _, err := c.Call(context.Background(), "b", "M", nil)
			if err != nil && !errors.Is(err, ErrUnavailable) {
				t.Errorf("unexpected error: %v", err)
				return
			}
		}
	}()
	s.Stop()
	<-done
}

func TestFailRateInjection(t *testing.T) {
	n := newNet(nil)
	s := n.Serve("b", 1)
	s.Handle("M", func(context.Context, string, []byte) ([]byte, error) { return nil, nil })
	s.SetFailRate(0.5, 7)
	c := n.Client(0, "p")
	failures := 0
	const calls = 400
	for i := 0; i < calls; i++ {
		if _, _, err := c.Call(context.Background(), "b", "M", nil); err != nil {
			if !errors.Is(err, ErrUnavailable) {
				t.Fatalf("wrong error class: %v", err)
			}
			failures++
		}
	}
	if failures < calls/4 || failures > 3*calls/4 {
		t.Errorf("50%% fail rate produced %d/%d failures", failures, calls)
	}
	s.SetFailRate(0, 0)
	if _, _, err := c.Call(context.Background(), "b", "M", nil); err != nil {
		t.Errorf("after clearing fail rate: %v", err)
	}
}
