package client

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cliquemap/internal/core/config"
	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// TestStrategiesAgree replays one seeded SET/GET/ERASE sequence under each
// lookup strategy on a fresh cell, for each replication mode. The
// strategies differ only in how they fetch, so every op must return the
// same (value, found), and every GET's trace must have the same shape: an
// index phase that costs the k-th fastest of the live legs, and a data read
// only where the fetch did not already carry the value (2×R), after the
// quorum or, on R=3.2, from the fastest index answer on (§5.1).
// One-sided R=3.2 asks the whole cohort at once; every other fetch asks a
// read quorum, and on a quiet cell never more. One row asks for SCAR from
// a 1RMA cohort, whose NICs cannot scan: it must degrade to exactly 2×R —
// same results, the dependent data read, and no hit ever mistaken for a
// torn scan and pushed down the retry ladder to the RPC fallback. The last
// row is the out-of-process caller: RPC lookups and mutations framed over
// one loopback connection to a gateway, where every value served is a view
// of a response frame and every span crossed the wire. The conditional
// rows replay the sequence through GetIfChanged, each GET holding the
// version the previous read of its key returned: a read that confirms it
// stands for that read's value, and on a one-sided strategy it moves no
// data.
func TestStrategiesAgree(t *testing.T) {
	type result struct {
		val   string
		found bool
	}
	type dialer func(testing.TB, *rig, Options) *Client
	pony := func(_ testing.TB, r *rig, opt Options) *Client { return r.newClient(opt) }
	oneRMA := func(_ testing.TB, r *rig, opt Options) *Client { return r.newClient1RMA(opt) }
	overTCP := func(t testing.TB, r *rig, opt Options) *Client { return r.newClientTCP(t, opt) }
	type held struct {
		val string
		ver truetime.Version
	}
	replay := func(t *testing.T, mode config.Mode, strat Strategy, newClient dialer, on1RMA, cond bool) []result {
		r := newRigMode(t, fabric.Params{}, mode)
		cl := newClient(t, r, Options{Strategy: strat})
		ctx := context.Background()
		rng := rand.New(rand.NewSource(14))
		need := mode.Quorum()
		legs := need
		if mode == config.R32 && (strat == Strategy2xR || strat == StrategySCAR) {
			legs = mode.Replicas()
		}
		var out []result
		last, confirms := map[string]held{}, 0
		for op := 0; op < 300; op++ {
			key := []byte(fmt.Sprintf("k%02d", rng.Intn(24)))
			switch p := rng.Intn(10); {
			case p < 3:
				if err := cl.Set(ctx, key, []byte(fmt.Sprintf("v%d", op))); err != nil {
					t.Fatalf("op %d set: %v", op, err)
				}
			case p < 4:
				if err := cl.Erase(ctx, key); err != nil {
					t.Fatalf("op %d erase: %v", op, err)
				}
			case cond:
				h := last[string(key)]
				val, ver, found, tr, err := cl.GetIfChanged(ctx, key, h.ver)
				if err != nil {
					t.Fatalf("op %d get: %v", op, err)
				}
				if confirmed := found && ver == h.ver; confirmed {
					if _, hasData := spanOf(tr, trace.SpanDataRead); val != nil || hasData && strat != StrategyRPC {
						t.Fatalf("op %d: a read confirming %v returned %q (data-read span %v)", op, ver, val, hasData)
					}
					val = []byte(h.val)
					confirms++
				}
				last[string(key)] = held{string(val), ver}
				out = append(out, result{string(val), found})
			default:
				val, found, tr, err := cl.GetTraced(ctx, key)
				if err != nil {
					t.Fatalf("op %d get: %v", op, err)
				}
				out = append(out, result{string(val), found})

				idx, ok := spanOf(tr, trace.SpanIndexFetch)
				if !ok || idx.Arg != uint32(legs) {
					t.Fatalf("op %d: index-fetch span %+v, want %d live legs", op, idx, legs)
				}
				data, hasData := spanOf(tr, trace.SpanDataRead)
				if hasData != ((strat == Strategy2xR || on1RMA) && found) {
					t.Fatalf("op %d: data-read span present=%v (found=%v)", op, hasData, found)
				}
				// An R=3.2 data read starts at the fastest index answer, and
				// only the quorum wait that outlasts it is annotated; any
				// other data read follows the quorum.
				spec := hasData && need > 1
				dataStart, waitFrom := idx.Dur, idx.Dur
				if spec {
					waitFrom += data.Dur
				}
				end := waitFrom
				if w, ok := spanOf(tr, trace.SpanQuorumWait); ok {
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
					t.Fatalf("op %d: GET took %dns, want %dns (index phase %d, data %d)", op, tr.Ns, end, idx.Dur, data.Dur)
				}
			}
		}
		if n := cl.M.RetryCount() + cl.M.RPCFallbacks.Value(); n != 0 {
			t.Fatalf("quiet cell needed %d retries/fallbacks", n)
		}
		if cond && confirms == 0 {
			t.Fatal("no conditional read confirmed its version")
		}
		return out
	}

	// The R=3.2 rows keep the bare strategy names; the other cells prefix
	// theirs with the mode.
	for _, cell := range []struct {
		prefix string
		mode   config.Mode
	}{{"", config.R32}, {"R1/", config.R1}, {"R2Immutable/", config.R2Immutable}} {
		want := replay(t, cell.mode, Strategy2xR, pony, false, false)
		for _, tc := range []struct {
			name      string
			strat     Strategy
			newClient dialer
			on1RMA    bool
			cond      bool
		}{
			{"SCAR", StrategySCAR, pony, false, false}, {"MSG", StrategyMSG, pony, false, false}, {"RPC", StrategyRPC, pony, false, false},
			{"SCAR-on-1RMA", StrategySCAR, oneRMA, true, false},
			{"RPC-over-TCP", StrategyRPC, overTCP, false, false},
			{"2xR-conditional", Strategy2xR, pony, false, true},
			{"SCAR-conditional", StrategySCAR, pony, false, true},
			{"RPC-conditional", StrategyRPC, pony, false, true},
		} {
			t.Run(cell.prefix+tc.name, func(t *testing.T) {
				got := replay(t, cell.mode, tc.strat, tc.newClient, tc.on1RMA, tc.cond)
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
// offset, or to a modelled cost shows up here as a diff. The 2×R data
// read starts at the fastest index answer (§5.1) and outlasts the quorum
// wait, so that golden has no quorum-wait span.
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
		strat Strategy
		want  golden
	}{
		{Strategy2xR, golden{10849, 2382, []fabric.Span{
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
		{StrategySCAR, golden{5609, 3114, []fabric.Span{
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 942, Start: 2539, Dur: 598},
			{Code: 11, Arg: 0, Start: 5379, Dur: 258},
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 942, Start: 2690, Dur: 598},
			{Code: 11, Arg: 0, Start: 5351, Dur: 258},
			{Code: 9, Arg: 0, Start: 0, Dur: 440},
			{Code: 10, Arg: 942, Start: 2530, Dur: 598},
			{Code: 11, Arg: 0, Start: 5272, Dur: 258},
			{Code: 1, Arg: 3, Start: 0, Dur: 5530},
			{Code: 2, Arg: 2, Start: 5530, Dur: 79},
		}}},
	} {
		t.Run(tc.strat.String(), func(t *testing.T) {
			r := newRigOn(t, fabric.Params{HostGbps: 1e12})
			cl := r.newClientAt(Options{Strategy: tc.strat, Seed: 7}, nil)
			ctx := context.Background()
			key := []byte("golden-key")
			if err := cl.Set(ctx, key, make([]byte, 300)); err != nil {
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
// bytes to each leg's request; its byte goldens count them.
func TestMutationTraceParity(t *testing.T) {
	type golden struct {
		ns, bytes uint64
		spans     []fabric.Span
	}
	for _, tc := range []struct {
		kind trace.Kind
		want golden
	}{
		{trace.KindSet, golden{77100, 1839, []fabric.Span{
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 464, Start: 32000, Dur: 2257},
			{Code: 6, Arg: 2600, Start: 34257, Dur: 40600},
			{Code: 7, Arg: 149, Start: 74857, Dur: 2257},
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 464, Start: 32000, Dur: 2257},
			{Code: 6, Arg: 2600, Start: 34257, Dur: 40600},
			{Code: 7, Arg: 149, Start: 74857, Dur: 2193},
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 464, Start: 32000, Dur: 2257},
			{Code: 6, Arg: 2600, Start: 34257, Dur: 40600},
			{Code: 7, Arg: 149, Start: 74857, Dur: 2243},
			{Code: 2, Arg: 2, Start: 77050, Dur: 50},
		}}},
		{trace.KindCas, golden{76860, 1572, []fabric.Span{
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 375, Start: 32000, Dur: 2212},
			{Code: 6, Arg: 2600, Start: 34212, Dur: 40600},
			{Code: 7, Arg: 149, Start: 74812, Dur: 2048},
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 375, Start: 32000, Dur: 2099},
			{Code: 6, Arg: 2600, Start: 34099, Dur: 40600},
			{Code: 7, Arg: 149, Start: 74699, Dur: 2238},
			{Code: 5, Arg: 0, Start: 0, Dur: 32000},
			{Code: 7, Arg: 375, Start: 32000, Dur: 2080},
			{Code: 6, Arg: 2600, Start: 34080, Dur: 40600},
			{Code: 7, Arg: 149, Start: 74680, Dur: 2159},
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
