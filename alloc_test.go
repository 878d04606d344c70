package cliquemap

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"cliquemap/internal/core/client"
	"cliquemap/internal/fabric"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
)

// TestGetAllocBudget holds the GET to the per-op allocation budget DESIGN.md
// ("GET datapath: where a GET's allocations go") records by name, on a
// public cell with the cell tracer on:
//
//	SCAR hit   the caller's value                                    = 1
//	SCAR miss  nothing                                               = 0
//	2×R hit    the caller's value                                    = 1
//	warm 2×R hit (its data read started with the index reads)       = 1
//	RPC hit    the caller's value                                    = 1
//	SCAR near-cache hit  the clone of the cached value               = 1
//	2×R near-cache hit   the clone of the cached value               = 1
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
// first: the tracer's exemplar reservoir makes the storage for its copies
// of an op's spans on first use, which is the tracer's cost, not the op's.
// The parent of the change that leased the record measured 9, 8, 11 and
// 17; the parent of the change that gave it the receive arena, 7, 6 and
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
		warmRead  bool // the measured GETs read the data the client remembers (client/ptrs.go)
	}{
		{"SCAR hit", PonyExpress, LookupSCAR, key, true, 1, false},
		{"SCAR miss", PonyExpress, LookupSCAR, absent, false, 0, false},
		{"2xR hit over 1RMA", OneRMA, Lookup2xR, key, true, 1, true},
		{"warm 2xR hit", PonyExpress, Lookup2xR, key, true, 1, true},
		{"RPC hit", PonyExpress, LookupRPC, key, true, 1, false},
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
			warm(get) // the handshakes, the tracer's reservoir
			if got := testing.AllocsPerRun(200, get); got > tc.budget {
				t.Errorf("%v allocations per GET, budget %v", got, tc.budget)
			}
			if n := cl.Stats().Retries; n != 0 {
				t.Errorf("%d retries on a quiet cell: the budget is for the quiet path", n)
			}
			if tc.warmRead {
				_, _, tr, err := cl.Internal().GetTraced(ctx, tc.key)
				idx, data := spanCoded(tr.Spans, trace.SpanIndexFetch), spanCoded(tr.Spans, trace.SpanDataRead)
				if err != nil || idx == nil || data == nil || data.Start != idx.Start {
					t.Errorf("data read %+v, want it started with the index reads %+v (err %v)", data, idx, err)
				}
			}
		})
	}

	// A near hit is one index-only revalidation round; what it returns is
	// a clone of the cached value, so a later GET's refresh of the entry
	// cannot change it under the caller.
	for _, tc := range []struct {
		name     string
		strategy Strategy
	}{{"SCAR near-cache hit", LookupSCAR}, {"2xR near-cache hit", Lookup2xR}} {
		t.Run(tc.name, func(t *testing.T) {
			cl := newCell(t, Options{}).NewClient(ClientOptions{Strategy: tc.strategy, NearCacheEntries: 8})
			if err := cl.Set(ctx, key, make([]byte, 128)); err != nil {
				t.Fatal(err)
			}
			hammerUntilPromoted(t, cl, key, 2000)
			get := func() {
				if v, found, err := cl.Get(ctx, key); err != nil || !found || len(v) != 128 {
					t.Fatalf("get: %d bytes found=%v err=%v", len(v), found, err)
				}
			}
			warm(get)
			hits := cl.Stats().NearHits
			if got := testing.AllocsPerRun(200, get); got > 1 {
				t.Errorf("%v allocations per near hit, budget 1", got)
			}
			if n := cl.Stats().NearHits - hits; n != 201 {
				t.Errorf("%d near hits in 201 GETs: the budget is for the near hit", n)
			}
		})
	}

	t.Run("RPC hit over TCP", func(t *testing.T) {
		cl := tcpClient(t, newCell(t, Options{}), 0)
		if err := cl.Set(ctx, key, make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
		get := func() {
			if v, found, err := cl.Get(ctx, key); err != nil || !found || len(v) != 128 {
				t.Fatalf("get: %d bytes found=%v err=%v", len(v), found, err)
			}
		}
		warm(get) // the connection's dispatchers and scratch, the tracer's reservoir
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
//	SET, CAS, ERASE     each leg copies its backend's queued access
//	carrying records    records (a GET hit's, whose value is its 1) into
//	                    its request in the op's arena; the handler walks
//	                    them in place                                  = 0
//	2×R hit, touching   the GET's own 1, plus its share of a flush:
//	                    every TouchBatch-th hit copies each cohort
//	                    member's queue into a leased op record's arena,
//	                    where the handler appends its ack              = 1
//	evicting SET        a new key into a full data region, each backend
//	                    evicting one, under lru and arc:
//	                    the policies track hashes in an arena          = 0
//
// The SET, CAS and ERASE rows also run for an out-of-process caller
// (tcpClient): every leg of its fan-out is on the wire before the first is
// read, each leg's response waits in its pooled call record, and the
// frames and the gateway's call records are the connection's.
//
// The context node and span buffer are the op's leased record, and the
// cell is warmed first, as in TestGetAllocBudget. The parents of the
// changes that set these measured SET 20 → 9 → 7 → 0, CAS 20 → 9 → 7 → 0,
// ERASE 23 → 12 → 10 → 3 → 0, 12.6 allocations of touch feedback per hit
// before it fell to ≤ 1, a touching hit at 9 + 1 before its legs read into
// the op's arena and at 1 + 0.09 before the flush leased a record, and an
// evicting SET at 12 (lru) and 27 (arc) while policies kept string keys.
func TestMutationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ctx := context.Background()
	key, value := []byte("budget-key"), make([]byte, 128)
	c := newCell(t, Options{Transport: OneRMA})

	cl := c.NewClient(ClientOptions{Strategy: Lookup2xR}).Internal()
	hitKey := []byte("budget-hit")
	for _, over := range []struct {
		suffix string
		cl     *client.Client
		touch  *client.Client // TouchBatch 64: its mutations carry records
	}{
		{"", cl, c.NewClient(ClientOptions{Strategy: Lookup2xR, TouchBatch: 64}).Internal()},
		{" over TCP", tcpClient(t, c, 0), tcpClient(t, c, 64)},
	} {
		ver, err := over.cl.SetVersioned(ctx, key, value)
		if err != nil {
			t.Fatal(err)
		}
		if err := over.cl.Set(ctx, hitKey, value); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			op   func(cl *client.Client)
		}{
			{"SET overwrite", func(cl *client.Client) {
				if err := cl.Set(ctx, key, value); err != nil {
					t.Fatal(err)
				}
			}},
			{"CAS", func(cl *client.Client) { // a stale expectation: decided on every replica, nothing applied
				if applied, err := cl.Cas(ctx, key, value, ver); err != nil || applied {
					t.Fatalf("cas: applied=%v err=%v", applied, err)
				}
			}},
			{"ERASE", func(cl *client.Client) {
				if err := cl.Erase(ctx, key); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			t.Run(tc.name+over.suffix, func(t *testing.T) {
				op := func() { tc.op(over.cl) }
				warm(op)
				if got := testing.AllocsPerRun(200, op); got > 0 {
					t.Errorf("%v allocations per op, budget 0", got)
				}
			})
			t.Run(tc.name+" carrying records"+over.suffix, func(t *testing.T) {
				op := func() {
					if _, found, err := over.touch.Get(ctx, hitKey); err != nil || !found {
						t.Fatalf("get: found=%v err=%v", found, err)
					}
					tc.op(over.touch)
				}
				warm(op)
				if got := testing.AllocsPerRun(200, op); got > 1 {
					t.Errorf("%v allocations per GET hit and the op carrying its record, budget 1: the GET's value", got)
				}
				if n := over.touch.M.RetryCount(); n != 0 {
					t.Errorf("%d retries on a quiet cell: the budget is for the quiet path", n)
				}
			})
		}
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

	// Each backend's tombstone cache takes its storage at its first
	// erase; from then on, ERASEs of fresh keys into the emptied cache
	// fill both lists and overflow without allocating. Counted exactly
	// over the whole fill (AllocsPerRun rounds down), each time on a new
	// cell, and the best of three leaves out a tracer slot's one-off
	// growth. The warm-up SETs fresh keys, so each backend's heat summary
	// has copied a key into every slot, and erases 16, which fills the
	// tracer's ERASE exemplars and which SETs then drop: the cache has
	// held 16 tombstones when the count starts.
	for _, over := range []struct {
		suffix string
		client func(c *Cell) *client.Client
	}{
		{"", func(c *Cell) *client.Client { return c.NewClient(ClientOptions{Strategy: Lookup2xR}).Internal() }},
		{" over TCP", func(c *Cell) *client.Client { return tcpClient(t, c, 0) }},
	} {
		t.Run("ERASE into an empty tombstone cache"+over.suffix, func(t *testing.T) {
			// Three shards at R=3.2: every backend sees every ERASE, so
			// each fills its exact list, then its pending one, then folds.
			const capacity, erases = 64, 3 * 64
			fresh := func(prefix string, n int) [][]byte {
				keys := make([][]byte, n)
				for i := range keys {
					keys[i] = fmt.Appendf(nil, "%s-%06d", prefix, i)
				}
				return keys
			}
			best := uint64(math.MaxUint64)
			for range 3 {
				c := newCell(t, Options{Transport: OneRMA, TombstoneCap: capacity})
				cl := over.client(c)
				set := func(keys [][]byte) {
					for _, k := range keys {
						if err := cl.Set(ctx, k, value); err != nil {
							t.Fatal(err)
						}
					}
				}
				erase := func(keys [][]byte) {
					for _, k := range keys {
						if err := cl.Erase(ctx, k); err != nil {
							t.Fatal(err)
						}
					}
				}
				set(fresh("warm", 10*64))
				take := fresh("take", 16)
				erase(take)
				set(take) // drops the tombstones
				keys := fresh("empty", erases)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				erase(keys)
				runtime.ReadMemStats(&after)
				best = min(best, after.Mallocs-before.Mallocs)
			}
			if best != 0 {
				t.Errorf("%d allocations over %d ERASEs of fresh keys into an empty cache, budget 0", best, erases)
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
		warm(get) // handshakes; both buffers of every queue; the tracer's reservoir
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

	for _, pol := range []string{"lru", "arc"} {
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
			warm(set) // ~200 entries fill each backend's 1 MiB; the tracer's reservoir
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
	// Mallocs counts the whole process: with the collector off, no
	// post-GC cleanup goroutine allocates inside a window, and the best of
	// three windows leaves out a one-off runtime allocation (a new M).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rounds = 10
	mallocs := uint64(math.MaxUint64)
	for range 3 {
		var window uint64
		for i := 0; i < rounds; i++ {
			get(huge)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			get(large)
			runtime.ReadMemStats(&after)
			window += after.Mallocs - before.Mallocs
		}
		mallocs = min(mallocs, window)
	}
	if mallocs > rounds {
		t.Errorf("%d allocations over %d 16 KiB GETs, each after a 120 KiB one; want only their values", mallocs, rounds)
	}
}

// warm runs op past everything a first use makes: handshakes, connection
// scratch, and the span storage of the cell tracer's exemplar reservoir.
// 640 is also whole TouchBatch-64 flush periods.
// tcpClient is an out-of-process caller of c: a tracer-less StrategyRPC
// client on one loopback connection to the cell's gateway, reporting
// access records at touchBatch.
func tcpClient(t *testing.T, c *Cell, touchBatch int) *client.Client {
	t.Helper()
	cc := c.Internal()
	gw, err := cc.ServeTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	conn, err := rpc.DialTCP(gw.Addr(), "budget")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return client.New(client.Options{ID: 1<<20 + uint64(touchBatch), Strategy: client.StrategyRPC, TouchBatch: touchBatch},
		cc.Store, conn, cc.Clock, nil, nil, nil, nil)
}

// spanCoded returns the first of spans with code, or nil.
func spanCoded(spans []fabric.Span, code uint16) *fabric.Span {
	for i := range spans {
		if spans[i].Code == code {
			return &spans[i]
		}
	}
	return nil
}

func warm(op func()) {
	for i := 0; i < 10*64; i++ {
		op()
	}
}
