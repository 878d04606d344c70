package cliquemap

import (
	"context"
	"testing"

	"cliquemap/internal/core/client"
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
