package cliquemap

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"cliquemap/internal/core/client"
	"cliquemap/internal/rpc"
)

// TestGetAllocBudget holds the GET to the per-op allocation budget DESIGN.md
// ("GET datapath: where a GET's allocations go") records by name, on a
// public cell with the cell tracer on:
//
//	SCAR hit   the caller's value                                    = 1
//	SCAR miss  nothing                                               = 0
//	2×R hit    the caller's value                                    = 1
//	RPC hit    the caller's value                                    = 1
//
// and the two-sided GET of an out-of-process caller — a tracer-less
// StrategyRPC client on one loopback connection to the cell's gateway — to
// the budget of "TCP RPC datapath: where a call's allocations go":
//
//	RPC hit over TCP   the caller's value                            = 1
//
// The op's context node, span buffer, and the arena and span slots its
// request is marshalled into and its legs read into are its leased record
// (trace.OpLease), reused from op to op; the frames, the gateway's call
// records and their reply storage are the connection's. Each cell is warmed
// past its tracer's 512-slot ring first: a slot makes the storage for its
// copy of an op's spans on first use, which is the tracer's cost, not the
// op's. The parent of the change that leased the record measured 9, 8, 11
// and 17; the parent of the change that gave it the receive arena, 7, 6 and
// 9 for the one-sided rows; the parent of the change that read RPC legs
// into it, 7 and 16 for the RPC rows.
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
		{"SCAR hit", PonyExpress, LookupSCAR, key, true, 1},
		{"SCAR miss", PonyExpress, LookupSCAR, absent, false, 0},
		{"2xR hit over 1RMA", OneRMA, Lookup2xR, key, true, 1},
		{"RPC hit", PonyExpress, LookupRPC, key, true, 1},
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
			warm(get) // the handshakes, the tracer's ring
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
		warm(get) // the connection's dispatchers and scratch, the tracer's ring
		if got := testing.AllocsPerRun(200, get); got > 1 {
			t.Errorf("%v allocations per GET, budget 1", got)
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
//	SET overwrite, CAS  nothing: the request, the legs' spans and the
//	                    handlers' responses are the op's leased record = 0
//	ERASE               the tombstone's key goes into each backend's
//	                    reused key arena, also when a fresh key
//	                    demotes and folds in a full cache             = 0
//	2×R hit, touching   the GET's own 1, plus its share of a flush:
//	                    every TouchBatch-th hit sends each cohort member
//	                    its queue buffer as it stands, on a leased op
//	                    record whose arena the handler appends its ack
//	                    to; the client walks the ack in place          = 1
//	evicting SET        a new key into a full data region, each backend
//	                    evicting one, under lru, arc, clock and slfu:
//	                    the policies track hashes in an arena          = 0
//
// The context node and span buffer are the op's leased record, and the
// cell is warmed past its tracer's ring, as in TestGetAllocBudget. The
// parents of the changes that set these measured SET 20 → 9 → 7 → 0, CAS
// 20 → 9 → 7 → 0, ERASE 23 → 12 → 10 → 3 → 0, 12.6 allocations of touch
// feedback per hit before it fell to ≤ 1, a touching hit at 9 + 1 before
// its legs read into the op's arena and at 1 + 0.09 before the flush
// leased a record, and an evicting SET at 12 (lru), 27 (arc), 15 (clock)
// and 6 (slfu) while policies kept string keys.
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
		}, 0},
		{"CAS", func() { // a stale expectation: decided on every replica, nothing applied
			if applied, err := cl.Cas(ctx, key, value, ver); err != nil || applied {
				t.Fatalf("cas: applied=%v err=%v", applied, err)
			}
		}, 0},
		{"ERASE", func() {
			if err := cl.Erase(ctx, key); err != nil {
				t.Fatal(err)
			}
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			warm(tc.op)
			if got := testing.AllocsPerRun(200, tc.op); got > tc.budget {
				t.Errorf("%v allocations per op, budget %v", got, tc.budget)
			}
		})
	}

	t.Run("ERASE into a full tombstone cache", func(t *testing.T) {
		const capacity = 64 // each backend's exact and pending lists
		c := newCell(t, Options{Transport: OneRMA, TombstoneCap: capacity})
		cl := c.NewClient(ClientOptions{Strategy: Lookup2xR})
		keys := make([][]byte, 10*64+300)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("fresh-%06d", i))
		}
		next := 0
		erase := func() {
			if err := cl.Erase(ctx, keys[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		warm(erase) // 640 erases fill both lists of every backend many times over
		if got := testing.AllocsPerRun(200, erase); got > 0 {
			t.Errorf("%v allocations per ERASE of a fresh key, budget 0", got)
		}
	})

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
		warm(get) // handshakes; both buffers of every queue; the tracer's ring
		// Whole flush periods, counted exactly: AllocsPerRun rounds its
		// average down, which would hide most of a flush's share. A flush's
		// allocations recur in every period; the best of three windows
		// leaves out the one-off ones outside the op (a tracer slot growing
		// for a longer trace than it held, the runtime's own after a GC).
		const hits = 10 * 64
		best := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < hits; i++ {
				get()
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		if got := float64(best) / hits; got > 1 {
			t.Errorf("%.3f allocations per touching GET, budget 1", got)
		}
	})
	if n := cl.M.RetryCount(); n != 0 {
		t.Errorf("%d retries on a quiet cell: the budget is for the quiet path", n)
	}

	for _, pol := range []string{"lru", "arc", "clock", "slfu"} {
		t.Run("evicting SET "+pol, func(t *testing.T) {
			c := newCell(t, Options{Transport: OneRMA, Eviction: pol, DataBytes: 1 << 20, DataMaxBytes: 1 << 20, DisableReshaping: true})
			cl := c.NewClient(ClientOptions{Strategy: Lookup2xR})
			keys := make([][]byte, 1024)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("evict-%04d", i))
			}
			value, next := make([]byte, 4<<10), 0
			set := func() {
				if err := cl.Set(ctx, keys[next], value); err != nil {
					t.Fatal(err)
				}
				next++
			}
			warm(set) // ~200 entries fill each backend's 1 MiB; the tracer's ring
			if c.Stats().Evictions == 0 {
				t.Fatal("the data region is not full")
			}
			before, sets := c.Stats().Evictions, next
			if got := testing.AllocsPerRun(200, set); got > 0 {
				t.Errorf("%v allocations per evicting SET, budget 0", got)
			}
			if ev := c.Stats().Evictions - before; ev < uint64(3*(next-sets)) {
				t.Errorf("%d evictions over %d SETs of new keys on 3 replicas", ev, next-sets)
			}
		})
	}
}

// TestGetKeepsBoundedArena: a GET whose legs total past trace.MaxRecv — a
// 120 KiB value over SCAR, three ~121 KiB legs; the largest slab class
// (128 KiB) bounds what can be stored — reads what does not fit into
// buffers of its own and leaves the client's arena no larger than the
// bound, and no smaller than a get_large_scar GET needs: the 16 KiB GET
// after it allocates only its value.
func TestGetKeepsBoundedArena(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ctx := context.Background()
	c := newCell(t, Options{})
	cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	large, huge := []byte("large"), []byte("huge")
	if err := cl.Set(ctx, large, make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(ctx, huge, make([]byte, 120<<10)); err != nil {
		t.Fatal(err)
	}
	get := func(key []byte) {
		if _, found, err := cl.Get(ctx, key); err != nil || !found {
			t.Fatalf("get %s: found=%v err=%v", key, found, err)
		}
	}
	warm(func() { get(large) })
	var mallocs uint64
	const rounds = 10
	for i := 0; i < rounds; i++ {
		get(huge)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		get(large)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if mallocs > rounds {
		t.Errorf("%d allocations over %d 16 KiB GETs, each after a 120 KiB one; want only their values", mallocs, rounds)
	}
}

// warm runs op past everything a first use makes: handshakes, connection
// scratch, and the span storage of each of the cell tracer's 512 ring slots.
// 640 is also whole TouchBatch-64 flush periods.
func warm(op func()) {
	for i := 0; i < 10*64; i++ {
		op()
	}
}
