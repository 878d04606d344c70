package client

import (
	"context"
	"fmt"
	"testing"

	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
)

// TestPointerTableHoldsWorkingSet: a 2×R client of an R=3.2 cell SETs
// 8 192 distinct keys, each ack naming where its replica put the value,
// then GETs them in reverse order. A slot holds the last key written or
// cold-read through it, so a GET starts warm exactly when its key still
// holds its slot; the count is predicted from the keys' slots. More than
// half the keys start warm, which a table of 4 096 slots cannot do: each
// slot starts at most one of them warm.
func TestPointerTableHoldsWorkingSet(t *testing.T) {
	const n = 8192
	ctx := context.Background()
	// Every backend holds every key in its index, well below its ways, with
	// room for all the data: no SET overflows, evicts or moves a pointer.
	r := newRigMode(t, fabric.Params{}, config.R32, func(o *backend.Options) {
		o.Geometry = layout.Geometry{Buckets: 4096, Ways: 8}
		o.DataBytes, o.DataMaxBytes, o.ReshapeEnabled = 8<<20, 8<<20, false
	})
	cl := r.newClient(Options{Strategy: Strategy2xR})
	key := func(i int) []byte { return fmt.Appendf(nil, "ws-%05d", i) }
	held := map[uint64]string{} // the key each slot holds
	slotOf := func(k []byte) uint64 { return cl.opt.Hash(k).Lo % ptrSlots }
	for i := range n {
		k := key(i)
		if err := cl.Set(ctx, k, k); err != nil {
			t.Fatalf("set %s: %v", k, err)
		}
		held[slotOf(k)] = string(k)
	}
	want := 0
	for i := n - 1; i >= 0; i-- {
		k := key(i)
		if held[slotOf(k)] == string(k) {
			want++
		}
		held[slotOf(k)] = string(k)
	}

	warm, stale := cl.M.WarmReads.Value(), cl.M.StalePointers.Value()
	for i := n - 1; i >= 0; i-- {
		k := key(i)
		if v, found, err := cl.Get(ctx, k); err != nil || !found || string(v) != string(k) {
			t.Fatalf("get %s: %q found=%v err=%v", k, v, found, err)
		}
	}
	for _, b := range r.backends {
		if c := b.CountersSnapshot(); c.Overflows != 0 || c.CapacityEvictions != 0 {
			t.Fatalf("a backend overflowed %d SETs and evicted %d entries, want none", c.Overflows, c.CapacityEvictions)
		}
	}
	if got := cl.M.WarmReads.Value() - warm; got != uint64(want) {
		t.Errorf("%d of %d GETs started warm, want the %d whose key held its slot", got, n, want)
	}
	if got := cl.M.StalePointers.Value() - stale; got != 0 {
		t.Errorf("%d remembered pointers went stale, want none", got)
	}
	if 2*want <= n {
		t.Errorf("%d slots start %d of %d GETs warm, want more than half", ptrSlots, want, n)
	}
}

// TestPointerTableHolders: only a client whose GETs take a dependent data
// read on an R=3.2 cell holds a table, from New: a 2×R one, on Pony or on
// 1RMA, and a SCAR one on 1RMA, which is built as 2×R. After a SET, a CAS
// and a GET, its next GET reads warm. SCAR on Pony, MSG and RPC clients,
// and need-1 modes, hold none.
func TestPointerTableHolders(t *testing.T) {
	ctx := context.Background()
	key, val := []byte("holder"), []byte("value")
	pony := func(r *rig, opt Options) *Client { return r.newClient(opt) }
	oneRMA := func(r *rig, opt Options) *Client { return r.newClient1RMA(opt) }
	for _, tc := range []struct {
		name  string
		mode  config.Mode
		strat Strategy
		dial  func(*rig, Options) *Client
		holds bool
	}{
		{"2xR", config.R32, Strategy2xR, pony, true},
		{"2xR-on-1RMA", config.R32, Strategy2xR, oneRMA, true},
		{"SCAR-on-1RMA", config.R32, StrategySCAR, oneRMA, true},
		{"SCAR", config.R32, StrategySCAR, pony, false},
		{"MSG", config.R32, StrategyMSG, pony, false},
		{"RPC", config.R32, StrategyRPC, pony, false},
		{"R1/2xR", config.R1, Strategy2xR, pony, false},
		{"R1/SCAR-on-1RMA", config.R1, StrategySCAR, oneRMA, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRigMode(t, fabric.Params{}, tc.mode)
			cl := tc.dial(r, Options{Strategy: tc.strat})
			if got := cl.ptrs != nil; got != tc.holds {
				t.Fatalf("after New the client holds a table: %v, want %v", got, tc.holds)
			}
			ver, err := cl.SetVersioned(ctx, key, val)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Cas(ctx, key, val, ver); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				warm := cl.M.WarmReads.Value()
				if _, found, err := cl.Get(ctx, key); err != nil || !found {
					t.Fatalf("get: found=%v err=%v", found, err)
				}
				if got := cl.M.WarmReads.Value() - warm; (got == 1) != tc.holds || got > 1 {
					t.Errorf("a GET kept %d remembered reads, want one only with a table", got)
				}
			}
		})
	}
}

// BenchmarkPointerTable prices the table's three operations over a full
// table, with keys cycling over twice its slots so that the accesses
// spread over all 7 MiB: a GET's lookup of a key whose slot holds it
// (get-hit) or holds another key (get-miss), and a data read's or an ack's
// put. A slot is 56 B, so six in eight straddle two cache lines.
//
//	go test -run '^$' -bench PointerTable ./internal/core/client/
func BenchmarkPointerTable(b *testing.B) {
	const cfgID = 1
	keys := make([]hashring.KeyHash, 2*ptrSlots)
	for i := range keys {
		keys[i] = hashring.DefaultHash(fmt.Appendf(nil, "ptr-%06d", i))
	}
	full := func() *ptrTable {
		t := new(ptrTable)
		for i, h := range keys {
			t.put(h, cfgID, i%3, layout.Pointer{Window: 1, Offset: uint64(i) << 6, Size: 64})
		}
		return t
	}
	t := full()
	var hits, misses []hashring.KeyHash
	for _, h := range keys {
		if _, _, ok := t.get(h, cfgID); ok {
			hits = append(hits, h)
		} else {
			misses = append(misses, h)
		}
	}
	for _, bc := range []struct {
		name string
		keys []hashring.KeyHash
		want bool
	}{{"get-hit", hits, true}, {"get-miss", misses, false}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, ok := t.get(bc.keys[i%len(bc.keys)], cfgID); ok != bc.want {
					b.Fatalf("get found %v, want %v", ok, bc.want)
				}
			}
		})
	}
	b.Run("put", func(b *testing.B) {
		t := full()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.put(keys[i%len(keys)], cfgID, i%3, layout.Pointer{Window: 1, Offset: uint64(i) << 6, Size: 64})
		}
	})
}

// TestLearnedPointers: a 2×R GET's bucket reads name every key of the
// bucket, and the client remembers where each other key's data lies
// (ptrs.go), on an R=3.2 cell with keys A and B in one bucket and B
// written by another client:
//   - after a GET of A, B's first GET starts its data read with the index
//     reads and allocates only its value;
//   - after the other client rewrites B, B's GET returns the new value: the
//     learned pointer costs one wasted data read and is forgotten, and the
//     read that served is remembered;
//   - a key whose pointer slot another key holds is not learned: a GET of
//     C, which shares its bucket and its slot with D, leaves C warm and D
//     cold.
func TestLearnedPointers(t *testing.T) {
	ctx := context.Background()
	// pair returns the first two keys of prefix that of maps alike:
	// sameBucket by rig bucket, sameSlot by pointer slot (and so by bucket,
	// as ptrSlots is a multiple of the rig's buckets).
	h := Options{}.withDefaults().Hash
	pair := func(prefix string, of func([]byte) uint64) (a, b []byte) {
		seen := map[uint64][]byte{}
		for i := 0; ; i++ {
			k := fmt.Appendf(nil, "%s-%d", prefix, i)
			if other, ok := seen[of(k)]; ok {
				return other, k
			}
			seen[of(k)] = k
		}
	}
	sameBucket := func(k []byte) uint64 { return h(k).Lo % uint64(rigGeometry.Buckets) }
	sameSlot := func(k []byte) uint64 { return h(k).Lo % ptrSlots }

	t.Run("warm-and-stale", func(t *testing.T) {
		a, b := pair("learn", sameBucket)
		r, cl, s, clk := newScriptedClient(t, config.R32, a, []byte("a"))
		other := r.newClient(Options{ID: 99})
		if err := other.Set(ctx, b, []byte("b1")); err != nil {
			t.Fatal(err)
		}
		s.get(t, clk, cl, a)
		// get is one GET of b, which must return want: how many reads it
		// kept warm and found stale, and its legs.
		get := func(want string) (warm, stale uint64, data, index []scriptedRead) {
			t.Helper()
			w, st := cl.M.WarmReads.Value(), cl.M.StalePointers.Value()
			if got, _ := s.get(t, clk, cl, b); string(got) != want {
				t.Fatalf("get %s: %q, want %q", b, got, want)
			}
			index, data = s.split()
			return cl.M.WarmReads.Value() - w, cl.M.StalePointers.Value() - st, data, index
		}
		warm, _, data, index := get("b1")
		if warm != 1 || len(data) != 1 || data[0].at != index[0].at {
			t.Fatalf("B's first GET kept %d remembered reads, data legs %+v: want one, pinned with the index reads at %d", warm, data, index[0].at)
		}
		if err := other.Set(ctx, b, []byte("b2")); err != nil {
			t.Fatal(err)
		}
		s.get(t, clk, cl, a) // B's replica's bucket names its new pointer: the slot is refreshed
		warm, stale, data, _ := get("b2")
		if warm != 1 || stale != 0 || len(data) != 1 {
			t.Fatalf("after a GET of A, B's GET kept %d remembered reads (%d stale) over data legs %+v: want one, refreshed", warm, stale, data)
		}
		if err := other.Set(ctx, b, []byte("b3")); err != nil {
			t.Fatal(err)
		}
		warm, stale, data, index = get("b3")
		if warm != 0 || stale != 1 || len(data) != 2 || data[0].at != index[0].at {
			t.Fatalf("after a rewrite, B's GET kept %d remembered reads (%d stale) over data legs %+v: want the remembered one wasted, then one more", warm, stale, data)
		}
		if warm, _, data, _ := get("b3"); warm != 1 || len(data) != 1 {
			t.Fatalf("the read that served was not remembered: %d warm over %+v", warm, data)
		}
	})

	t.Run("allocates-only-the-value", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector allocates")
		}
		const pairs = 9
		r := newRig(t)
		cl, other := r.newClient(Options{Strategy: Strategy2xR}), r.newClient(Options{ID: 99})
		var bs [][]byte
		for i := range pairs {
			a, b := pair(fmt.Sprint("alloc", i), sameBucket)
			for _, k := range [][]byte{a, b} {
				if err := other.Set(ctx, k, k); err != nil {
					t.Fatal(err)
				}
			}
			if _, found, err := cl.Get(ctx, a); err != nil || !found {
				t.Fatalf("get %s: found=%v err=%v", a, found, err)
			}
			bs = append(bs, b)
		}
		warm, next := cl.M.WarmReads.Value(), 0
		allocs := testing.AllocsPerRun(pairs-1, func() { // one call warms up, then pairs-1 are counted
			if v, found, err := cl.Get(ctx, bs[next]); err != nil || !found || string(v) != string(bs[next]) {
				t.Fatalf("get %s: %q found=%v err=%v", bs[next], v, found, err)
			}
			next++
		})
		if got := cl.M.WarmReads.Value() - warm; got != pairs {
			t.Fatalf("%d of %d first GETs started warm", got, pairs)
		}
		if allocs != 1 {
			t.Errorf("a learned key's first GET allocates %v times, want 1 (its value)", allocs)
		}
	})

	t.Run("never-displaces", func(t *testing.T) {
		c, d := pair("slot", sameSlot)
		r := newRig(t)
		cl, other := r.newClient(Options{Strategy: Strategy2xR}), r.newClient(Options{ID: 99})
		if err := cl.Set(ctx, c, c); err != nil {
			t.Fatal(err)
		}
		if err := other.Set(ctx, d, d); err != nil {
			t.Fatal(err)
		}
		for i, tc := range []struct {
			key  []byte
			warm uint64
		}{{c, 1}, {c, 1}, {d, 0}} {
			warm := cl.M.WarmReads.Value()
			if v, found, err := cl.Get(ctx, tc.key); err != nil || !found || string(v) != string(tc.key) {
				t.Fatalf("get %s: %q found=%v err=%v", tc.key, v, found, err)
			}
			if got := cl.M.WarmReads.Value() - warm; got != tc.warm {
				t.Errorf("GET #%d of %s kept %d remembered reads, want %d", i, tc.key, got, tc.warm)
			}
		}
	})
}
