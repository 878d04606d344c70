package cliquemap

import (
	"context"
	"runtime"
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
//	over TCP   frame, the in-cell call's spans, the handler's
//	           response)
//	           + the request, marshalled once + op span buffer  = 17
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
		if got := testing.AllocsPerRun(200, get); got > 17 {
			t.Errorf("%v allocations per GET, budget 17", got)
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

// TestMutationAllocBudget holds the mutation fan-out and the access-record
// feedback of a one-sided GET to the budgets DESIGN.md records by name
// ("Mutation datapath: where a SET's allocations go", "Access records: what
// a hit costs"), on a quiet 1RMA cell with the cell tracer on:
//
//	SET overwrite, CAS  trace context + op span buffer + the request,
//	                    marshalled once + 3 × (leg spans + the handler's
//	                    response)                                     = 9
//	ERASE               the same, + 3 × the tombstone's key, which each
//	                    backend keeps                                 = 12
//	2×R hit, touching   the GET's own 11, plus its share of a flush:
//	                    every TouchBatch-th hit sends each cohort member
//	                    its queue buffer as it stands; the handler makes
//	                    one slice of key views and a response, the
//	                    client one slice of promoted-key views        ≤ 11 + 1
//
// A SET that inserts a key costs what the backends keep of it on top (the
// eviction policy's entry). The parent of the change that set these
// measured SET 20, CAS 20, ERASE 23 and 12.6 allocations of touch feedback
// per hit.
func TestMutationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ctx := context.Background()
	key, value := []byte("budget-key"), make([]byte, 128)
	c := newCell(t, Options{Transport: OneRMA})

	cl := c.NewClient(ClientOptions{Strategy: Lookup2xR}).Internal()
	ver, err := cl.SetVersioned(ctx, key, value)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		op     func()
		budget float64
	}{
		{"SET overwrite", func() {
			if err := cl.Set(ctx, key, value); err != nil {
				t.Fatal(err)
			}
		}, 9},
		{"CAS", func() { // a stale expectation: decided on every replica, nothing applied
			if applied, err := cl.Cas(ctx, key, value, ver); err != nil || applied {
				t.Fatalf("cas: applied=%v err=%v", applied, err)
			}
		}, 9},
		{"ERASE", func() {
			if err := cl.Erase(ctx, key); err != nil {
				t.Fatal(err)
			}
		}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.op()
			if got := testing.AllocsPerRun(200, tc.op); got > tc.budget {
				t.Errorf("%v allocations per op, budget %v", got, tc.budget)
			}
		})
	}

	t.Run("2xR hit with touch feedback", func(t *testing.T) {
		tcl := c.NewClient(ClientOptions{Strategy: Lookup2xR, TouchBatch: 64})
		if err := tcl.Set(ctx, key, value); err != nil {
			t.Fatal(err)
		}
		get := func() {
			if _, found, err := tcl.Get(ctx, key); err != nil || !found {
				t.Fatalf("get: found=%v err=%v", found, err)
			}
		}
		for i := 0; i < 3*64; i++ { // handshakes; both buffers of every queue
			get()
		}
		// Whole flush periods, counted exactly: AllocsPerRun rounds its
		// average down, which would hide most of a flush's share.
		const hits = 10 * 64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < hits; i++ {
			get()
		}
		runtime.ReadMemStats(&after)
		if got := float64(after.Mallocs-before.Mallocs) / hits; got > 12 {
			t.Errorf("%.2f allocations per touching GET, budget 11 + 1", got)
		}
	})
	if n := cl.M.RetryCount(); n != 0 {
		t.Errorf("%d retries on a quiet cell: the budget is for the quiet path", n)
	}
}
