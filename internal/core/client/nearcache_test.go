package client

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// TestNearCacheOrderBounded: a hot key its writer keeps updating is dropped
// and re-admitted on every SET→GET cycle. The FIFO's order records stay
// within 2·cap, and eviction follows the latest admission — a re-admitted
// key is younger than every key admitted before it.
func TestNearCacheOrderBounded(t *testing.T) {
	n := newNearCache(4)
	ver := truetime.Version{Micros: 1}
	put := func(k string) { n.put([]byte(k), []byte("v"), ver) }
	for i := 0; i < 10000; i++ {
		put("hot")
		n.drop([]byte("hot"))
		if len(n.order) > 2*n.cap {
			t.Fatalf("cycle %d: %d order records for a cap of %d", i, len(n.order), n.cap)
		}
	}
	for _, k := range []string{"a", "b", "c", "hot"} {
		put(k)
	}
	n.drop([]byte("a"))
	put("a") // re-admitted: now the youngest entry
	put("d") // at cap: evicts b, the oldest admission still cached
	for k, want := range map[string]bool{"a": true, "b": false, "c": true, "hot": true, "d": true} {
		if _, ok := n.get([]byte(k)); ok != want {
			t.Errorf("%s cached = %v, want %v", k, ok, want)
		}
	}
}

// promote makes key hot in cl's own GET counts, as hotEvalEvery GETs of it
// would, and evaluates the promoted set.
func promote(cl *Client, key []byte) {
	for range hotEvalEvery {
		cl.near.hot.noteGet(key, cl.opt.Hash(key).Lo)
	}
	cl.near.hot.eval()
}

// TestEvalHotUnchangedSetAllocatesNothing: re-evaluating the promoted set
// over GET counts whose hot keys have not changed — what almost every
// evaluation does — selects into the client's scratch, finds the published
// set again, and builds nothing.
func TestEvalHotUnchangedSetAllocatesNothing(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR, NearCacheEntries: 16})
	h := &cl.near.hot
	for i := 0; i < 512; i++ {
		for _, k := range [][]byte{fmt.Appendf(nil, "hot-%d", i%4), fmt.Appendf(nil, "cold-%d", i)} {
			h.noteGet(k, cl.opt.Hash(k).Lo)
		}
	}
	if n := cl.PromotedKeys(); n != 4 {
		t.Fatalf("promoted %d keys, want the four hot ones", n)
	}
	set := h.keys.Load()
	if got := testing.AllocsPerRun(100, h.eval); got != 0 {
		t.Errorf("%v allocations per evaluation of an unchanged set, want 0", got)
	}
	if h.keys.Load() != set {
		t.Error("an unchanged set was published again")
	}
}

// TestNearCacheAdmitsOwnHotKeys: a near-cache client promotes the keys hot
// in its own GETs with no access-record reporting (TouchBatch 0), demotes
// a key whose share falls below the demotion bar, and caps the set at
// hotK.
func TestNearCacheAdmitsOwnHotKeys(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR, NearCacheEntries: 16})
	h := &cl.near.hot
	get := func(k []byte) { h.noteGet(k, cl.opt.Hash(k).Lo) }
	for i := 0; i < 640; i++ {
		get(fmt.Appendf(nil, "hot-%d", i%10)) // ten keys at 5 % each
		get(fmt.Appendf(nil, "cold-%d", i))
	}
	if n := cl.PromotedKeys(); n != hotK {
		t.Fatalf("promoted %d keys, want the set's cap %d", n, hotK)
	}
	if cl.isPromoted([]byte("cold-1")) {
		t.Error("a key read once was promoted")
	}
	for i := 0; i < 64_000; i++ { // every hot key's share falls to ~0.05 %
		get(fmt.Appendf(nil, "cold-%d", i))
	}
	if n := cl.PromotedKeys(); n != 0 {
		t.Errorf("%d keys still promoted after their share fell below the demotion bar", n)
	}
}

// TestRefreshConfigForgetsDepartedPromotion: the promoted set is the
// client's own, drawn from its GETs rather than from any backend, so a
// config refresh that drops a departed backend leaves it as it was.
func TestRefreshConfigForgetsDepartedPromotion(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR, NearCacheEntries: 16})
	promote(cl, []byte("stays"))
	set := cl.near.hot.keys.Load()
	cl.refreshConfig()
	if !cl.isPromoted([]byte("stays")) || cl.PromotedKeys() != 1 || cl.near.hot.keys.Load() != set {
		t.Errorf("after refresh: stays=%v, %d keys promoted, want the set as it was",
			cl.isPromoted([]byte("stays")), cl.PromotedKeys())
	}
}

// TestNearCacheSpreadReadsOnlyWinners: a near-cache client's full-path GET
// of a promoted key, with no residency repair behind it, takes its value
// only from a quorum member holding the winning version. A replica that
// lags — holding an older version, or no copy at all — never serves a data
// read, and no GET needs a failover or a retry.
func TestNearCacheSpreadReadsOnlyWinners(t *testing.T) {
	for _, lag := range []string{"older", "missing"} {
		t.Run(lag, func(t *testing.T) {
			r := newRig(t)
			ctx := context.Background()
			cl := r.newClient(Options{Strategy: Strategy2xR, NearCacheEntries: 8})
			key, want := []byte("hot-"+lag), []byte("v2")
			var v1 truetime.Version
			if lag == "older" {
				var err error
				if v1, err = cl.SetVersioned(ctx, key, []byte("v1")); err != nil {
					t.Fatal(err)
				}
			}
			// The winning version lands on b0 and b1 only; b2 (shard 2) lags.
			v2 := truetime.NewGenerator(r.clock, 77).Next()
			if !v1.Less(v2) {
				t.Fatalf("winner %v does not supersede %v", v2, v1)
			}
			req := proto.SetReq{Key: key, Value: want, Version: v2}.Marshal()
			for _, addr := range []string{"b0", "b1"} {
				if _, _, err := r.net.Client(clientHost, "test").Call(ctx, addr, proto.MethodSet, req); err != nil {
					t.Fatal(err)
				}
			}
			promote(cl, key)

			reads := map[uint32]int{}
			for i := 0; i < 200; i++ {
				cl.nearInvalidate(key) // every GET takes the full path to a data read
				got, ok, tr, err := cl.GetTraced(ctx, key)
				if err != nil || !ok || !bytes.Equal(got, want) {
					t.Fatalf("get %d: %q found=%v err=%v", i, got, ok, err)
				}
				for _, sp := range tr.Spans {
					if sp.Code == trace.SpanDataRead {
						reads[sp.Arg]++
					}
				}
			}
			if reads[2] != 0 || reads[0]+reads[1] == 0 {
				t.Errorf("data reads by shard %v: want winners read and the laggard never", reads)
			}
			if f, tr, rc := cl.M.Failovers.Value(), cl.M.TornRetries.Value(), cl.M.RetryCount(); f+tr+rc != 0 {
				t.Errorf("failovers=%d torn=%d retries=%d, want 0", f, tr, rc)
			}
		})
	}
}
