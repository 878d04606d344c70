package client

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/config"
	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
)

// TestStrategiesAgree replays one seeded SET/GET/ERASE sequence under each
// lookup strategy on a fresh cell, for each replication mode. The
// strategies differ only in how they fetch, so every op must return the
// same (value, found), and every GET's trace must have the same shape: an
// index phase that costs the k-th fastest of the live legs, and a data read
// only where the fetch did not already carry the value (2×R), after the
// quorum or, on R=3.2, while it forms (§5.1): from the op's start when the
// client remembers where it read the key's data and that pointer is still
// current (ptrs.go), else from the fastest index answer on.
// One-sided R=3.2 asks the whole cohort at once; every other fetch asks a
// read quorum, and on a quiet cell never more. One row asks for SCAR from
// a 1RMA cohort, whose NICs cannot scan: it is built and predicted as 2×R
// — same results, the dependent data read, the table from New, and no hit
// ever mistaken for a torn scan and pushed down the retry ladder to the
// RPC fallback. The last row is the out-of-process caller: RPC lookups and
// mutations framed over one loopback connection to a gateway, where every
// value served is a view of a response frame and every span crossed the
// wire. The near rows turn the near-cache on (one-sided strategies only;
// it serves nothing else): a near hit is an index-only revalidation round
// that moves no data, and must return what the baseline read. The 900 ops
// are enough for keys to clear the client's promotion bar (2.0 % of its
// GETs, at least 8) between its own mutations, which drop their key's
// entry: each near row records about 50 near hits (300 ops recorded one).
//
// A loader client writes every key first, so each key's first GET starts
// cold. The R=3.2 cell replays the sequence in three more worlds that move
// a remembered pointer under the client: a second client SETs and ERASEs
// between its reads, the backends evict (their data regions hold about
// half the corpus), or every 150 ops the config steps — the new ID a
// resize step publishes, which both clients have picked up. The instant
// of each data read is predicted from the client's own history: its last
// GET of the key read data, its last SET of the key was acked with the
// value's pointer, or a GET of another key read the key's bucket while the
// cell held the key (a bucket names every slot's pointer), and since
// then it did not erase the key, the other client did not mutate it and
// the config did not step. An eviction can
// also move a pointer, so in that world a predicted warm read may start
// cold, but a predicted cold one never starts warm.
func TestStrategiesAgree(t *testing.T) {
	type result struct {
		val   string
		found bool
	}
	type world struct {
		other bool // a second client SETs and ERASEs between the reads
		evict bool // the data regions hold about half the corpus
		step  bool // the config steps every 150 ops
	}
	type dialer func(testing.TB, *rig, Options) *Client
	pony := func(_ testing.TB, r *rig, opt Options) *Client { return r.newClient(opt) }
	oneRMA := func(_ testing.TB, r *rig, opt Options) *Client { return r.newClient1RMA(opt) }
	overTCP := func(t testing.TB, r *rig, opt Options) *Client { return r.newClientTCP(t, opt) }
	replay := func(t *testing.T, w world, mode config.Mode, strat Strategy, newClient dialer, near bool) []result {
		var tweaks []func(*backend.Options)
		if w.evict {
			tweaks = append(tweaks, func(o *backend.Options) { o.DataBytes, o.DataMaxBytes = 64<<10, 64<<10 })
		}
		r := newRigMode(t, fabric.Params{}, mode, tweaks...)
		opt := Options{Strategy: strat}
		if near {
			opt.NearCacheEntries = 8
		}
		cl := newClient(t, r, opt)
		strat = cl.opt.Strategy // the strategy the client was built with
		var other *Client
		if w.other {
			other = r.newClient(Options{ID: 99})
		}
		ctx := context.Background()
		rng := rand.New(rand.NewSource(14))
		need := mode.Quorum()
		legs := need
		if mode == config.R32 && (strat == Strategy2xR || strat == StrategySCAR) {
			legs = mode.Replicas()
		}
		value := func(tag string, op int) []byte {
			v := []byte(fmt.Sprintf("%s%d", tag, op))
			if w.evict {
				v = append(v, make([]byte, 4000)...)
			}
			return v
		}
		loader := r.newClient(Options{ID: 98})
		for k := range 24 {
			if err := loader.Set(ctx, []byte(fmt.Sprintf("k%02d", k)), value("p", k)); err != nil {
				t.Fatalf("loading k%02d: %v", k, err)
			}
		}
		// The client's remembered pointers as its history predicts them:
		// the key each slot holds, and the keys another client moved. A
		// 2×R client holds its table from New. The 24 keys take 24 slots,
		// so a pointer learned from a bucket never finds its slot taken.
		remembers := need > 1 && strat == Strategy2xR
		slotOf := func(key []byte) uint64 { return cl.opt.Hash(key).Lo % ptrSlots }
		bucketOf := func(key string) uint64 { return cl.opt.Hash([]byte(key)).Lo % uint64(rigGeometry.Buckets) }
		held, moved := map[uint64]string{}, map[string]bool{}
		present := map[string]bool{} // the keys the cell holds, evictions aside
		for k := range 24 {
			key := fmt.Sprintf("k%02d", k)
			if other, taken := held[slotOf([]byte(key))]; taken {
				t.Fatalf("%s and %s share a pointer slot", key, other)
			}
			held[slotOf([]byte(key))], present[key] = key, true
		}
		clear(held)
		forget := func(key []byte) {
			if held[slotOf(key)] == string(key) {
				delete(held, slotOf(key))
			}
		}
		hold := func(key []byte) {
			if remembers {
				held[slotOf(key)], moved[string(key)] = string(key), false
			}
		}
		// A GET reads key's bucket, whose slots name every other key there.
		learn := func(key []byte) {
			for k, in := range present {
				if in && k != string(key) && bucketOf(k) == bucketOf(string(key)) {
					hold([]byte(k))
				}
			}
		}
		var out []result
		nearHits, warmReads, coldReads, staleReads := 0, 0, 0, 0
		for op := 0; op < 900; op++ {
			if w.step && op%150 == 149 {
				next := r.store.Update(func(*config.CellConfig) {})
				for _, b := range r.backends {
					b.SetConfigID(next.ID)
				}
				cl.refreshConfig()
				clear(held)
			}
			key := []byte(fmt.Sprintf("k%02d", rng.Intn(24)))
			switch p := rng.Intn(10); {
			case p < 3:
				if err := cl.Set(ctx, key, value("v", op)); err != nil {
					t.Fatalf("op %d set: %v", op, err)
				}
				hold(key)
				present[string(key)] = true
			case p < 4:
				if err := cl.Erase(ctx, key); err != nil {
					t.Fatalf("op %d erase: %v", op, err)
				}
				forget(key)
				present[string(key)] = false
			case other != nil && p < 5:
				var err error
				if rng.Intn(3) == 0 {
					err = other.Erase(ctx, key)
					present[string(key)] = false
				} else {
					err = other.Set(ctx, key, value("o", op))
					present[string(key)] = true
				}
				if err != nil {
					t.Fatalf("op %d: the other client's mutation: %v", op, err)
				}
				moved[string(key)] = true
			default:
				hits := cl.M.NearHits.Value()
				val, found, tr, err := cl.GetTraced(ctx, key)
				if err != nil {
					t.Fatalf("op %d get: %v", op, err)
				}
				out = append(out, result{string(val), found})
				learn(key)
				if cl.M.NearHits.Value() != hits {
					if data, hasData := spanOf(tr, trace.SpanDataRead); hasData {
						t.Fatalf("op %d: a near hit billed a data read %+v", op, data)
					}
					nearHits++
					continue
				}
				warm := remembers && held[slotOf(key)] == string(key) && !moved[string(key)]
				if remembers && held[slotOf(key)] == string(key) && moved[string(key)] {
					staleReads++
				}
				if forget(key); found {
					hold(key)
				}

				// The attempt's annotations, from its index phase on: a
				// near-cache revalidation that fell through ran its own
				// index phase before it.
				attempt := tr
				for i := range tr.Spans {
					if tr.Spans[i].Code == trace.SpanIndexFetch {
						attempt.Spans = tr.Spans[i:]
					}
				}
				idx, ok := spanOf(attempt, trace.SpanIndexFetch)
				if !ok || idx.Arg != uint32(legs) {
					t.Fatalf("op %d: index-fetch span %+v, want %d live legs", op, idx, legs)
				}
				data, hasData := spanOf(attempt, trace.SpanDataRead)
				if hasData != (strat == Strategy2xR && found) {
					t.Fatalf("op %d: data-read span present=%v (found=%v)", op, hasData, found)
				}
				// An R=3.2 data read starts at the op's start (warm) or at
				// the fastest index answer, and only the quorum wait that
				// outlasts it is annotated; any other data read follows the
				// quorum.
				if hasData && data.Start == idx.Start {
					if !warm {
						t.Fatalf("op %d: data read %+v started with the index reads; the client holds no current pointer", op, data)
					}
					warmReads++
				} else if warm && !w.evict && hasData {
					t.Fatalf("op %d: data read %+v, want it started with the index reads at %dns", op, data, idx.Start)
				} else if hasData {
					coldReads++
				}
				spec := hasData && need > 1
				dataStart := idx.Start + idx.Dur
				if spec && data.Start == idx.Start {
					dataStart = idx.Start
				}
				waitFrom := idx.Start + idx.Dur
				if spec {
					waitFrom = max(waitFrom, dataStart+data.Dur)
				}
				end := waitFrom
				if w, ok := spanOf(attempt, trace.SpanQuorumWait); ok {
					if w.Start != waitFrom || w.Arg != uint32(need) {
						t.Fatalf("op %d: quorum-wait %+v does not start at %dns", op, w, waitFrom)
					}
					end = w.Start + w.Dur
				}
				if !spec {
					dataStart = end
					end += data.Dur
				}
				if hasData && data.Start != dataStart {
					t.Fatalf("op %d: data read %+v, want it started at %dns", op, data, dataStart)
				}
				if tr.Ns != end {
					t.Fatalf("op %d: GET took %dns, want %dns (index phase %+v, data %d)", op, tr.Ns, end, idx, data.Dur)
				}
			}
		}
		if n := cl.M.RetryCount() + cl.M.RPCFallbacks.Value(); n != 0 {
			t.Fatalf("quiet cell needed %d retries/fallbacks", n)
		}
		if near && nearHits == 0 {
			t.Fatal("no GET was a near hit")
		}
		if remembers && !near && (warmReads == 0 || coldReads == 0) {
			t.Fatalf("%d data reads started with the index reads and %d after them, want some of each", warmReads, coldReads)
		}
		if w.other && remembers && !near && staleReads == 0 {
			t.Fatal("the other client moved no pointer the client held")
		}
		if w.evict {
			var evicted uint64
			for _, b := range r.backends {
				evicted += b.CountersSnapshot().CapacityEvictions
			}
			if evicted == 0 {
				t.Fatal("the cell evicted nothing")
			}
		}
		return out
	}

	// The quiet R=3.2 rows keep the bare strategy names; the other cells
	// prefix theirs with the mode, or the world.
	for _, cell := range []struct {
		prefix string
		mode   config.Mode
		world  world
	}{
		{"", config.R32, world{}}, {"R1/", config.R1, world{}}, {"R2Immutable/", config.R2Immutable, world{}},
		{"second-writer/", config.R32, world{other: true}},
		{"evicting/", config.R32, world{evict: true}},
		{"config-step/", config.R32, world{step: true}},
	} {
		want := replay(t, cell.world, cell.mode, Strategy2xR, pony, false)
		for _, tc := range []struct {
			name      string
			strat     Strategy
			newClient dialer
			near      bool
		}{
			{"SCAR", StrategySCAR, pony, false}, {"MSG", StrategyMSG, pony, false}, {"RPC", StrategyRPC, pony, false},
			{"SCAR-on-1RMA", StrategySCAR, oneRMA, false},
			{"RPC-over-TCP", StrategyRPC, overTCP, false},
			{"2xR-near", Strategy2xR, pony, true},
			{"SCAR-near", StrategySCAR, pony, true},
			{"SCAR-on-1RMA-near", StrategySCAR, oneRMA, true},
		} {
			t.Run(cell.prefix+tc.name, func(t *testing.T) {
				got := replay(t, cell.world, cell.mode, tc.strat, tc.newClient, tc.near)
				if len(got) != len(want) {
					t.Fatalf("%d GETs, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("GET #%d: %s returned %+v, 2xR returned %+v", i, tc.name, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestGetTraceParity pins the assembled OpTrace of one quiet 2×R and one
// SCAR GET — Ns, Bytes, and every span's code/arg/start/dur in order —
// to goldens captured before the GET path stopped building per-stage
// traces and copying them together. Any change to span order, to a base
// offset, or to a modelled cost shows up here as a diff. The SCAR golden
// was retaken when a SCAR reply shrank from the whole bucket to its header
// and matched slot: each leg's response went 942 → 438 B and its receive
// 258 → 237 ns (5609 ns, 3114 B before). The 2×R key is written by
// another client, so the data read starts at the fastest index answer
// (§5.1) and outlasts the quorum wait: that golden has no quorum-wait span.
// Written by the client itself, the first SET ack names where its replica
// put the value, and the data read starts with the index reads (ptrs.go):
// the same legs and bytes, 5 245 ns sooner.
//
// The fixture is the deterministic corner of the model: an effectively
// infinite downlink (no serialization, so no wall-clock-dependent
// backlog), unpinned legs, one GET per fresh cell (the NIC's load estimate
// is still zero), seeded jitter.
func TestGetTraceParity(t *testing.T) {
	type golden struct {
		ns, bytes uint64
		spans     []fabric.Span
	}
	for _, tc := range []struct {
		name  string
		strat Strategy
		other bool // another client writes the key
		want  golden
	}{
		{"2xR", Strategy2xR, true, golden{10849, 2382, []fabric.Span{
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 592, Start: 2539, Dur: 464},
			{Code: 11, Arg: 0, Start: 5245, Dur: 244},
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 592, Start: 2690, Dur: 464},
			{Code: 11, Arg: 0, Start: 5217, Dur: 244},
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 592, Start: 2530, Dur: 464},
			{Code: 11, Arg: 0, Start: 5138, Dur: 244},
			{Code: 1, Arg: 3, Start: 0, Dur: 5382},
			{Code: 9, Arg: 0, Start: 5382, Dur: 440},
			{Code: 10, Arg: 350, Start: 7909, Dur: 454},
			{Code: 11, Arg: 0, Start: 10615, Dur: 234},
			{Code: 3, Arg: 1, Start: 5382, Dur: 5467},
		}}},
		{"2xR/own-set", Strategy2xR, false, golden{5604, 2382, []fabric.Span{
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 592, Start: 2539, Dur: 464},
			{Code: 11, Arg: 0, Start: 5245, Dur: 244},
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 592, Start: 2690, Dur: 464},
			{Code: 11, Arg: 0, Start: 5217, Dur: 244},
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 592, Start: 2530, Dur: 464},
			{Code: 11, Arg: 0, Start: 5138, Dur: 244},
			{Code: 1, Arg: 3, Start: 0, Dur: 5382},
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 350, Start: 2664, Dur: 454},
			{Code: 11, Arg: 0, Start: 5370, Dur: 234},
			{Code: 3, Arg: 0, Start: 0, Dur: 5604},
		}}},
		{"SCAR", StrategySCAR, false, golden{5588, 1602, []fabric.Span{
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 438, Start: 2539, Dur: 598},
			{Code: 11, Arg: 0, Start: 5379, Dur: 237},
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 438, Start: 2690, Dur: 598},
			{Code: 11, Arg: 0, Start: 5351, Dur: 237},
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 438, Start: 2530, Dur: 598},
			{Code: 11, Arg: 0, Start: 5272, Dur: 237},
			{Code: 1, Arg: 3, Start: 0, Dur: 5509},
			{Code: 2, Arg: 2, Start: 5509, Dur: 79},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRigOn(t, fabric.Params{HostGbps: 1e12})
			cl := r.newClientAt(Options{Strategy: tc.strat, Seed: 7}, nil)
			ctx := context.Background()
			key := []byte("golden-key")
			writer := cl
			if tc.other {
				writer = r.newClientAt(Options{ID: 99, Seed: 7}, nil)
			}
			if err := writer.Set(ctx, key, make([]byte, 300)); err != nil {
				t.Fatal(err)
			}
			val, found, tr, err := cl.GetTraced(ctx, key)
			if err != nil || !found || len(val) != 300 {
				t.Fatalf("get: %d bytes found=%v err=%v", len(val), found, err)
			}
			if tr.Ns != tc.want.ns || tr.Bytes != tc.want.bytes {
				t.Errorf("trace = %dns %dB, want %dns %dB", tr.Ns, tr.Bytes, tc.want.ns, tc.want.bytes)
			}
			if !slices.Equal(tr.Spans, tc.want.spans) {
				t.Errorf("spans:\n got %v\nwant %v", tr.Spans, tc.want.spans)
			}
			if cap(tr.Spans) != opSpans {
				t.Errorf("span buffer grew to %d; the op makes one of %d", cap(tr.Spans), opSpans)
			}
		})
	}
}

// TestMutationTraceParity pins the assembled OpTrace of one quiet SET, CAS
// and ERASE — Ns, Bytes, and every span's code/arg/start/dur in order — to
// goldens captured at the commit before mutate stopped building a trace per
// attempt and copying it into the op's, on TestGetTraceParity's
// deterministic fixture (the CAS and the ERASE follow one SET of the key on
// a fresh cell). The client is traced, or the RPC legs record no spans.
// An ERASE travels as a SetReq, whose empty Value and false Repair add four
// bytes to each leg's request; its byte goldens count them. A SET's or
// applied CAS's ack names where its replica put the value
// (MutateResp.Ptr, tags 8–10): 9 more bytes per leg's response, 1 839 →
// 1 866 B for the SET and 1 572 → 1 599 B for the CAS, at the same ns.
func TestMutationTraceParity(t *testing.T) {
	type golden struct {
		ns, bytes uint64
		spans     []fabric.Span
	}
	for _, tc := range []struct {
		kind trace.Kind
		want golden
	}{
		{trace.KindSet, golden{77100, 1866, []fabric.Span{
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 464, Start: 32000, Dur: 2257},
			{Code: 6, Arg: 2600, Start: 34257, Dur: 40600},
			{Code: 7, Arg: 158, Start: 74857, Dur: 2257},
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 464, Start: 32000, Dur: 2257},
			{Code: 6, Arg: 2600, Start: 34257, Dur: 40600},
			{Code: 7, Arg: 158, Start: 74857, Dur: 2193},
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 464, Start: 32000, Dur: 2257},
			{Code: 6, Arg: 2600, Start: 34257, Dur: 40600},
			{Code: 7, Arg: 158, Start: 74857, Dur: 2243},
			{Code: 2, Arg: 2, Start: 77050, Dur: 50},
		}}},
		{trace.KindCas, golden{76860, 1599, []fabric.Span{
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 375, Start: 32000, Dur: 2212},
			{Code: 6, Arg: 2600, Start: 34212, Dur: 40600},
			{Code: 7, Arg: 158, Start: 74812, Dur: 2048},
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 375, Start: 32000, Dur: 2099},
			{Code: 6, Arg: 2600, Start: 34099, Dur: 40600},
			{Code: 7, Arg: 158, Start: 74699, Dur: 2238},
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 375, Start: 32000, Dur: 2080},
			{Code: 6, Arg: 2600, Start: 34080, Dur: 40600},
			{Code: 7, Arg: 158, Start: 74680, Dur: 2159},
			{Code: 2, Arg: 2, Start: 76839, Dur: 21},
		}}},
		{trace.KindErase, golden{76060, 936, []fabric.Span{
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 163, Start: 32000, Dur: 2212},
			{Code: 6, Arg: 1800, Start: 34212, Dur: 39800},
			{Code: 7, Arg: 149, Start: 74012, Dur: 2048},
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 163, Start: 32000, Dur: 2099},
			{Code: 6, Arg: 1800, Start: 34099, Dur: 39800},
			{Code: 7, Arg: 149, Start: 73899, Dur: 2238},
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 163, Start: 32000, Dur: 2080},
			{Code: 6, Arg: 1800, Start: 34080, Dur: 39800},
			{Code: 7, Arg: 149, Start: 73880, Dur: 2159},
			{Code: 2, Arg: 2, Start: 76039, Dur: 21},
		}}},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			r := newRigOn(t, fabric.Params{HostGbps: 1e12})
			cl := r.newClientAt(Options{Strategy: Strategy2xR, Seed: 7, Tracer: trace.NewTracer()}, nil)
			ctx := context.Background()
			key := []byte("golden-key")
			var tr fabric.OpTrace
			var err error
			if tc.kind == trace.KindSet {
				_, tr, err = cl.SetVersionedTraced(ctx, key, make([]byte, 300))
			} else {
				v, _, serr := cl.SetVersionedTraced(ctx, key, make([]byte, 300))
				if serr != nil {
					t.Fatal(serr)
				}
				if tc.kind == trace.KindCas {
					var applied bool
					if applied, tr, err = cl.CasTraced(ctx, key, make([]byte, 200), v); !applied {
						t.Errorf("cas at the stored version did not apply")
					}
				} else {
					tr, err = cl.EraseTraced(ctx, key)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if tr.Ns != tc.want.ns || tr.Bytes != tc.want.bytes {
				t.Errorf("trace = %dns %dB, want %dns %dB", tr.Ns, tr.Bytes, tc.want.ns, tc.want.bytes)
			}
			if !slices.Equal(tr.Spans, tc.want.spans) {
				t.Errorf("spans:\n got %v\nwant %v", tr.Spans, tc.want.spans)
			}
			if cap(tr.Spans) != mutSpans {
				t.Errorf("span buffer grew to %d; the op makes one of %d", cap(tr.Spans), mutSpans)
			}
		})
	}
}
