package client

import (
	"bytes"
	"context"
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

// TestRefreshConfigForgetsDepartedPromotion: a backend that serves no shard
// sends no more Touch acks, so nothing would ever replace its last promoted
// set; a config refresh must drop it from the merged view.
func TestRefreshConfigForgetsDepartedPromotion(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR})
	cl.ingestPromo("b0", proto.TouchResp{HotEpoch: 1, HotKeys: [][]byte{[]byte("stays")}}.Marshal())
	cl.ingestPromo("spare-0", proto.TouchResp{HotEpoch: 3, HotKeys: [][]byte{[]byte("departed")}}.Marshal())
	if n := cl.PromotedKeys(); n != 2 {
		t.Fatalf("merged view holds %d keys, want 2", n)
	}
	cl.refreshConfig()
	if !cl.isPromoted([]byte("stays")) || cl.isPromoted([]byte("departed")) {
		t.Errorf("after refresh: stays=%v departed=%v, want true false",
			cl.isPromoted([]byte("stays")), cl.isPromoted([]byte("departed")))
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
			cl.ingestPromo("b0", proto.TouchResp{HotEpoch: 1, HotKeys: [][]byte{key}}.Marshal())

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
