package client

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/rpc"
)

// touchCounter is a client's RPC caller that counts its Touch calls.
type touchCounter struct {
	*rpc.Client
	touches atomic.Int64
}

func (c *touchCounter) Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	return c.AppendCall(ctx, nil, nil, addr, method, req)
}

func (c *touchCounter) AppendCall(ctx context.Context, dst []byte, spans []fabric.Span, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	if method == proto.MethodTouch {
		c.touches.Add(1)
	}
	return c.Client.AppendCall(ctx, dst, spans, addr, method, req)
}

// newCountingClient builds a client on r whose Touch calls are counted.
func (r *rig) newCountingClient(opt Options) (*Client, *touchCounter) {
	calls := &touchCounter{Client: r.net.Client(clientHost, "test")}
	return r.newClientVia(opt, r.f.NowNs, calls), calls
}

// backendTouches returns each of r's backends' access-record counters.
func (r *rig) backendTouches() []uint64 {
	var n []uint64
	for _, b := range r.backends {
		n = append(n, b.CountersSnapshot().Touches)
	}
	return n
}

// preload writes n keys, each of whose cohorts is all three backends.
func preload(t *testing.T, cl *Client, n int) [][]byte {
	t.Helper()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "touch-%03d", i)
		if err := cl.Set(context.Background(), keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func hit(t *testing.T, cl *Client, key []byte) {
	t.Helper()
	if _, found, err := cl.Get(context.Background(), key); err != nil || !found {
		t.Fatalf("get %s: found=%v err=%v", key, found, err)
	}
}

// TestMutationLegsCarryTouches: a mixing client's access records ride its
// mutation legs. Alternating GET hits and SETs on a TouchBatch-64 client
// never fills a queue, so it sends no Touch RPC, and every backend still
// receives one record per hit — none waits in a queue for a flush.
func TestMutationLegsCarryTouches(t *testing.T) {
	r := newRig(t)
	cl, calls := r.newCountingClient(Options{Strategy: Strategy2xR, TouchBatch: 64})
	keys := preload(t, cl, 8)
	const hits = 200 // past three flush periods
	for i := 0; i < hits; i++ {
		hit(t, cl, keys[i%len(keys)])
		if err := cl.Set(context.Background(), keys[(i+3)%len(keys)], []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.touches.Load(); n != 0 {
		t.Errorf("%d Touch calls, want 0: every record had a mutation leg to ride", n)
	}
	for i, n := range r.backendTouches() {
		if n != hits {
			t.Errorf("backend %d ingested %d access records, want one per hit, %d", i, n, hits)
		}
	}
}

// TestCarriedRecordsBilled: a leg that carries access records bills the
// Touch handler's cost on top of its own, so the saving is only the Touch
// calls' framework cost: a SET after a hit costs each of its three legs'
// handlers 300 ns more than a SET after none.
func TestCarriedRecordsBilled(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR, TouchBatch: 64})
	keys := preload(t, cl, 2)
	set := func() uint64 {
		before := r.acct.TotalNanos("handler")
		if err := cl.Set(context.Background(), keys[0], []byte("w")); err != nil {
			t.Fatal(err)
		}
		return r.acct.TotalNanos("handler") - before
	}
	plain := set()
	hit(t, cl, keys[1])
	if carrying := set(); carrying != plain+3*300 {
		t.Errorf("a SET carrying records billed its handlers %d ns, one carrying none %d: want 3 × 300 ns more", carrying, plain)
	}
}

// TestGetOnlyClientFlushesTouches: with no mutation to ride, a queue still
// flushes as a Touch RPC when it reaches TouchBatch: one per cohort member
// per 64 hits.
func TestGetOnlyClientFlushesTouches(t *testing.T) {
	r := newRig(t)
	writer := r.newClient(Options{Strategy: Strategy2xR})
	keys := preload(t, writer, 8)
	cl, calls := r.newCountingClient(Options{Strategy: Strategy2xR, TouchBatch: 64})
	const hits = 2*64 + 10
	for i := 0; i < hits; i++ {
		hit(t, cl, keys[i%len(keys)])
	}
	if n := calls.touches.Load(); n != 2*3 {
		t.Errorf("%d Touch calls over %d hits, want 2 flushes × 3 backends", n, hits)
	}
	for i, n := range r.backendTouches() {
		if n != 2*64 {
			t.Errorf("backend %d ingested %d access records, want the two flushed batches, %d", i, n, 2*64)
		}
	}
}

// TestTouchesNeitherLostNorDoubled: four goroutines on one client mix GET
// hits and SETs, so mutation legs and Touch flushes take the same queues at
// once. After a final FlushTouches each backend has ingested exactly one
// record per hit. CI runs it under -race, repeated.
func TestTouchesNeitherLostNorDoubled(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR, TouchBatch: 8})
	keys := preload(t, cl, 16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				key := keys[(g*37+i)%len(keys)]
				if i%3 == 2 {
					if err := cl.Set(context.Background(), key, []byte("w")); err != nil {
						t.Error(err)
					}
				} else if _, found, err := cl.Get(context.Background(), key); err != nil || !found {
					t.Errorf("get %s: found=%v err=%v", key, found, err)
				}
			}
		}()
	}
	wg.Wait()
	cl.FlushTouches(context.Background())
	hits := cl.M.Hits.Value()
	var sum uint64
	for _, n := range r.backendTouches() {
		sum += n
	}
	if sum != 3*hits {
		t.Errorf("backends ingested %d access records for %d hits on 3 replicas, want %d", sum, hits, 3*hits)
	}
}

// ackKeeper is a touchCounter that also keeps a copy of every SET ack.
type ackKeeper struct {
	touchCounter
	mu   sync.Mutex
	acks [][]byte
}

func (c *ackKeeper) Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	return c.AppendCall(ctx, nil, nil, addr, method, req)
}

func (c *ackKeeper) AppendCall(ctx context.Context, dst []byte, spans []fabric.Span, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	resp, tr, err := c.touchCounter.AppendCall(ctx, dst, spans, addr, method, req)
	if method == proto.MethodSet && err == nil {
		c.mu.Lock()
		c.acks = append(c.acks, bytes.Clone(resp[len(dst):]))
		c.mu.Unlock()
	}
	return resp, tr, err
}

// TestMutationAckCarriesPromotion: a mutation leg that carries a near-cache
// client's access records is acked with a plain MutateResp — nothing rides
// back on it — and the records reach every backend with no Touch RPC.
func TestMutationAckCarriesPromotion(t *testing.T) {
	r := newRig(t)
	hot := []byte("hot")
	if err := r.newClient(Options{Strategy: Strategy2xR}).Set(context.Background(), hot, []byte("v")); err != nil {
		t.Fatal(err)
	}
	calls := &ackKeeper{touchCounter: touchCounter{Client: r.net.Client(clientHost, "test")}}
	cl := r.newClientVia(Options{Strategy: Strategy2xR, TouchBatch: 64, NearCacheEntries: 16}, r.f.NowNs, calls)
	hit(t, cl, hot)
	before := r.backendTouches()
	if err := cl.Set(context.Background(), []byte("other"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i, n := range r.backendTouches() {
		if n != before[i]+1 {
			t.Errorf("backend %d ingested %d records from the SET's leg, want the hit's 1", i, n-before[i])
		}
	}
	if n := calls.touches.Load(); n != 0 {
		t.Errorf("%d Touch calls, want 0", n)
	}
	if len(calls.acks) != 3 {
		t.Fatalf("%d SET acks, want one per replica", len(calls.acks))
	}
	for _, ack := range calls.acks {
		mr, err := proto.UnmarshalMutateResp(ack)
		if err != nil || !bytes.Equal(mr.Marshal(), ack) {
			t.Errorf("ack %x (err %v) is not a plain MutateResp %x", ack, err, mr.Marshal())
		}
	}
}

// TestGetFlushHonoursCallerDeadline: a hit that fills a queue flushes it
// under the GET's own ctx. Over TCP, against a gateway whose Touch handler
// never answers, a GET with a 50 ms deadline returns its value at the
// deadline instead of waiting for the handler.
func TestGetFlushHonoursCallerDeadline(t *testing.T) {
	r := newRig(t)
	key := []byte("deadline")
	if err := r.newClient(Options{}).Set(context.Background(), key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	front := rpc.NewNetwork(r.f, rpc.CostModel{}, nil)
	for i, b := range r.backends {
		srv := front.Serve(b.Addr(), i)
		srv.Handle(proto.MethodGet, func(_ context.Context, principal string, req []byte) ([]byte, error) {
			resp, _, err := r.net.Client(clientHost, principal).Call(context.Background(), b.Addr(), proto.MethodGet, req)
			return resp, err
		})
		srv.Handle(proto.MethodTouch, func(context.Context, string, []byte) ([]byte, error) {
			<-release
			return nil, nil
		})
	}
	gw, err := rpc.ServeTCP(front, "127.0.0.1:0", clientHost)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	t.Cleanup(func() { close(release) })
	conn, err := rpc.DialTCP(gw.Addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	cl := New(Options{ID: 9, Strategy: StrategyRPC, TouchBatch: 1}, r.store, conn, r.clock, nil, nil, nil, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	type result struct {
		val   []byte
		found bool
		err   error
	}
	done := make(chan result, 1)
	start := time.Now()
	go func() {
		v, found, err := cl.Get(ctx, key)
		done <- result{v, found, err}
	}()
	select {
	case res := <-done:
		if res.err != nil || !res.found || !bytes.Equal(res.val, []byte("v")) {
			t.Errorf("get: %q found=%v err=%v", res.val, res.found, res.err)
		}
		t.Logf("returned after %v", time.Since(start))
	case <-time.After(2 * time.Second):
		t.Fatal("the GET outlived its 50 ms deadline by 2 s: its flush ignored the caller's ctx")
	}
}
