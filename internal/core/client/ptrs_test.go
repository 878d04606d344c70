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
// spread over all 1.75 MiB: a GET's lookup of a key whose slot holds it
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
