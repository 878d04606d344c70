package cliquemap

import (
	"context"
	"testing"

	"cliquemap/internal/core/client"
	"cliquemap/internal/rpc"
)

// TestGetAllocBudget holds the one-sided GET to the per-op allocation
// budget DESIGN.md ("GET datapath: where a GET's allocations go") records
// by name, on a public cell with the cell tracer on:
//
//	SCAR hit   3 × (response buffer + leg spans) + op span buffer
//	           + trace context + the caller's value            = 9
//	SCAR miss  the same without the value                      = 8
//	2×R hit    3 × (bucket + leg spans) + (data + leg spans)
//	           + op span buffer + trace context + the value    = 11
//
// and the two-sided GET of an out-of-process caller — a tracer-less
// StrategyRPC client on one loopback connection to the cell's gateway — to
// the budget of "TCP RPC datapath: where a call's allocations go":
//
//	RPC hit    3 × (response frame + its spans, the gateway's request
//	over TCP   frame, the span sink's context node + the in-cell
//	           call's spans, the handler's response)
//	           + the request, marshalled once + op span buffer  = 20
//
// A regression here is an allocation back on every GET, which the gated
// benchmark (bench/, allocs_per_op) would only report much later.
func TestGetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ctx := context.Background()
	key, absent := []byte("budget-key"), []byte("budget-absent")

	for _, tc := range []struct {
		name      string
		transport Transport
		strategy  Strategy
		key       []byte
		found     bool
		budget    float64
	}{
		{"SCAR hit", PonyExpress, LookupSCAR, key, true, 9},
		{"SCAR miss", PonyExpress, LookupSCAR, absent, false, 8},
		{"2xR hit over 1RMA", OneRMA, Lookup2xR, key, true, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCell(t, Options{Transport: tc.transport})
			cl := c.NewClient(ClientOptions{Strategy: tc.strategy})
			if err := cl.Set(ctx, key, make([]byte, 128)); err != nil {
				t.Fatal(err)
			}
			get := func() {
				if _, found, err := cl.Get(ctx, tc.key); err != nil || found != tc.found {
					t.Fatalf("get: found=%v err=%v", found, err)
				}
			}
			get() // first use pays the handshakes
			if got := testing.AllocsPerRun(200, get); got > tc.budget {
				t.Errorf("%v allocations per GET, budget %v", got, tc.budget)
			}
			if n := cl.Stats().Retries; n != 0 {
				t.Errorf("%d retries on a quiet cell: the budget is for the quiet path", n)
			}
		})
	}

	t.Run("RPC hit over TCP", func(t *testing.T) {
		c := newCell(t, Options{})
		cc := c.Internal()
		gw, err := cc.ServeTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		conn, err := rpc.DialTCP(gw.Addr(), "budget")
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		cl := client.New(client.Options{ID: 1 << 20, Strategy: client.StrategyRPC},
			cc.Store, conn, cc.Clock, nil, nil, nil, nil)
		if err := cl.Set(ctx, key, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
		get := func() {
			if v, found, err := cl.Get(ctx, key); err != nil || !found || len(v) != 128 {
				t.Fatalf("get: %d bytes found=%v err=%v", len(v), found, err)
			}
		}
		get() // the connection's dispatchers and scratch warm up
		if got := testing.AllocsPerRun(200, get); got > 20 {
			t.Errorf("%v allocations per GET, budget 20", got)
		}
	})

	// A client without a tracer (every rpc.DialTCP caller is one) makes the
	// same one span buffer as a traced client, and never grows it.
	t.Run("tracer-less RPC", func(t *testing.T) {
		c := newCell(t, Options{})
		cc := c.Internal()
		if err := c.NewClient(ClientOptions{}).Set(ctx, key, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
		traced := c.NewClient(ClientOptions{Strategy: LookupSCAR}).Internal()
		_, _, want, err := traced.GetTraced(ctx, absent)
		if err != nil {
			t.Fatal(err)
		}
		bare := client.New(client.Options{ID: 1 << 20, Strategy: client.StrategyRPC},
			cc.Store, cc.Net.Client(cc.Fabric.NumHosts()-1, "bare"), cc.Clock, nil, nil, nil, nil)
		_, found, got, err := bare.GetTraced(ctx, key)
		if err != nil || !found {
			t.Fatalf("get: found=%v err=%v", found, err)
		}
		if len(got.Spans) == 0 || cap(got.Spans) != cap(want.Spans) {
			t.Errorf("tracer-less GET: %d spans in a buffer of %d; a traced GET's buffer is %d",
				len(got.Spans), cap(got.Spans), cap(want.Spans))
		}
	})
}
