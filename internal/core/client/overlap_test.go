package client

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/rpc"
)

// legBarrier holds each leg of an op in its handler until all of the op's
// legs have arrived, so the op completes only if its client put every leg
// on the wire before it waited for the first. A barrier that times out
// stays broken: every later leg fails at once.
type legBarrier struct {
	mu      sync.Mutex
	want    int
	arrived int
	all     chan struct{}
	broken  bool
}

// expect arms the barrier for an op of n legs.
func (b *legBarrier) expect(n int) {
	b.mu.Lock()
	b.want, b.arrived, b.all = n, 0, make(chan struct{})
	b.mu.Unlock()
}

func (b *legBarrier) arrive() error {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return errors.New("barrier broken")
	}
	b.arrived++
	all := b.all
	if b.arrived == b.want {
		close(all)
	}
	b.mu.Unlock()
	select {
	case <-all:
		return nil
	case <-time.After(5 * time.Second):
		b.mu.Lock()
		b.broken = true
		b.mu.Unlock()
		return errors.New("barrier timed out: the op's legs ran one after another")
	}
}

func (b *legBarrier) timedOut() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.broken
}

// TestTCPLegsOverlap: a default StrategyRPC client over TCP has every leg
// of a fan-out in flight at once — the two of a GET's read quorum, the
// three of a SET, a CAS and an ERASE — and reads them in leg order. The
// gateway it dials fronts the rig's backends with handlers that wait at a
// barrier for all of the op's legs, so a client that waits for one leg
// before it sends the next never gets past the first. CI runs it under
// -race, repeated.
func TestTCPLegsOverlap(t *testing.T) {
	r := newRig(t)
	var bar legBarrier
	front := rpc.NewNetwork(r.f, rpc.CostModel{}, nil)
	for i, b := range r.backends {
		srv := front.Serve(b.Addr(), i)
		for _, m := range []string{proto.MethodGet, proto.MethodSet, proto.MethodCas, proto.MethodErase} {
			srv.Handle(m, func(ctx context.Context, principal string, req []byte) ([]byte, error) {
				if err := bar.arrive(); err != nil {
					return nil, err
				}
				resp, _, err := r.net.Client(clientHost, principal).Call(context.Background(), b.Addr(), m, req)
				return resp, err
			})
		}
	}
	gw, err := rpc.ServeTCP(front, "127.0.0.1:0", clientHost)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	conn, err := rpc.DialTCP(gw.Addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	c := New(Options{ID: 9, Strategy: StrategyRPC}, r.store, conn, r.clock, nil, nil, nil, nil)

	ctx := context.Background()
	key, v1, v2 := []byte("overlap"), []byte("first"), []byte("second")
	bar.expect(3)
	ver, err := c.SetVersioned(ctx, key, v1)
	if err != nil {
		t.Fatalf("SET: %v", err)
	}
	bar.expect(2)
	if got, found, err := c.Get(ctx, key); err != nil || !found || !bytes.Equal(got, v1) {
		t.Errorf("GET: %q found=%v err=%v", got, found, err)
	}
	bar.expect(3)
	if swapped, err := c.Cas(ctx, key, v2, ver); err != nil || !swapped {
		t.Errorf("CAS: swapped=%v err=%v", swapped, err)
	}
	bar.expect(3)
	if err := c.Erase(ctx, key); err != nil {
		t.Errorf("ERASE: %v", err)
	}
	if bar.timedOut() {
		t.Error("a barrier timed out: the client waited on a leg before it sent the rest")
	}
	if n := c.M.RetryCount(); n != 0 {
		t.Errorf("%d retries: every op should complete on its first fan-out", n)
	}
}
