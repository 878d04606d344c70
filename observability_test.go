package cliquemap

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"cliquemap/internal/chaos"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/fleet"
	"cliquemap/internal/rpc"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
)

// TestSlowGetVisibleOverDebugRPC is the end-to-end observability check:
// a degraded engine on the serving backend must surface as a retained
// slow GET in the Debug RPC, with its span timeline attributing the
// latency to engine service rather than quorum assembly.
func TestSlowGetVisibleOverDebugRPC(t *testing.T) {
	c := newCell(t, Options{Shards: 1, Spares: 0, Mode: R1})
	cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	ctx := context.Background()

	if err := cl.Set(ctx, []byte("slow-key"), []byte("payload")); err != nil {
		t.Fatal(err)
	}

	const delay = 10 * time.Millisecond
	c.Tracer().SetSlowThreshold(uint64(2 * time.Millisecond))
	if err := c.Chaos().Inject(ctx, chaos.Event{Hazard: chaos.HazardBrownout, Shard: 0, Delay: uint64(delay)}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Get(ctx, []byte("slow-key")); err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if err := c.Chaos().Heal(ctx, chaos.Event{Hazard: chaos.HazardBrownout, Shard: 0}); err != nil {
		t.Fatal(err)
	}

	g, err := c.Internal().ServeTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	remote, err := rpc.DialTCP(g.Addr(), "observer")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	raw, _, err := remote.Call(ctx, "backend-0", proto.MethodDebug, proto.DebugReq{MaxSlow: 8}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := proto.UnmarshalDebugResp(raw)
	if err != nil {
		t.Fatal(err)
	}
	if dbg.SlowTotal == 0 || len(dbg.SlowOps) == 0 {
		t.Fatalf("no slow ops retained: %+v", dbg)
	}

	var slow *proto.DebugOp
	for i := range dbg.SlowOps {
		if dbg.SlowOps[i].Kind == "GET" {
			slow = &dbg.SlowOps[i]
			break
		}
	}
	if slow == nil {
		t.Fatalf("no slow GET in %+v", dbg.SlowOps)
	}
	if slow.Ns < uint64(delay) {
		t.Errorf("slow GET latency %v, want >= %v", time.Duration(slow.Ns), delay)
	}
	if slow.WallNs == 0 {
		t.Error("slow GET missing wall-clock stamp")
	}

	var engineNs, quorumNs uint64
	for _, sp := range slow.Spans {
		switch sp.Code {
		case trace.SpanEngineService:
			engineNs += sp.Dur
		case trace.SpanQuorumWait:
			quorumNs += sp.Dur
		}
	}
	if engineNs < uint64(delay) {
		t.Errorf("engine-service spans account for %v, want >= %v (spans: %+v)",
			time.Duration(engineNs), delay, slow.Spans)
	}
	if engineNs < slow.Ns/2 {
		t.Errorf("engine service %v should dominate op latency %v",
			time.Duration(engineNs), time.Duration(slow.Ns))
	}
	if quorumNs > 0 {
		t.Errorf("R1 GET reported quorum wait %v", time.Duration(quorumNs))
	}

	// The latency summary for GETs must have absorbed the slow op.
	var sawGet bool
	for _, h := range dbg.Hists {
		if h.Kind == "GET" && h.Count > 0 {
			sawGet = true
			if h.MaxNs < uint64(delay) {
				t.Errorf("GET hist max %v, want >= %v", time.Duration(h.MaxNs), delay)
			}
		}
	}
	if !sawGet {
		t.Errorf("no GET histogram in %+v", dbg.Hists)
	}
}

// TestSlowMutationAttributesQuorumWait degrades two of the three cohort
// members, so every mutation quorum must include a slow leg: the retained
// trace should blame SpanQuorumWait, not the local engine.
func TestSlowMutationAttributesQuorumWait(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Spares: 0, Mode: R32})
	cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	ctx := context.Background()

	const delay = 10 * time.Millisecond
	c.Tracer().SetSlowThreshold(uint64(2 * time.Millisecond))
	browned := []chaos.Event{
		{Hazard: chaos.HazardBrownout, Shard: 1, Delay: uint64(delay)},
		{Hazard: chaos.HazardBrownout, Shard: 2, Delay: uint64(delay)},
	}
	for _, ev := range browned {
		if err := c.Chaos().Inject(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Set(ctx, []byte("quorum-key"), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	for _, ev := range browned {
		if err := c.Chaos().Heal(ctx, ev); err != nil {
			t.Fatal(err)
		}
	}

	snap := c.Tracer().Snapshot(8)
	var slow *trace.OpRecord
	for i := range snap.Slow {
		if snap.Slow[i].Kind == trace.KindSet.String() {
			slow = &snap.Slow[i]
			break
		}
	}
	if slow == nil {
		t.Fatalf("no slow SET retained: %+v", snap.Slow)
	}
	var quorumNs uint64
	for _, sp := range slow.Spans {
		if sp.Code == trace.SpanQuorumWait {
			quorumNs += sp.Dur
		}
	}
	// The quorum spread is (second leg - first leg): one fast cohort
	// member and one degraded, so roughly the injected delay.
	if quorumNs < uint64(delay)/2 {
		t.Errorf("quorum wait %v, want >= %v (spans: %+v)",
			time.Duration(quorumNs), delay/2, slow.Spans)
	}
}

// TestTierGetTraceSpansBothCells is the cross-cell observability check:
// one tier GET of a key a remote cell owns must yield ONE trace, recorded
// in the local cell's tracer under a single op id, whose span timeline
// covers the tier routing decision and, inside a tier-forward bracket, the
// owner cell's index lookup. The same record must then be readable over
// the Debug RPC, exactly as cmstat -trace reads it.
func TestTierGetTraceSpansBothCells(t *testing.T) {
	small := Options{Shards: 2, Spares: 0, Mode: R32}
	tr, err := NewTier(TierOptions{Cells: []TierCellOptions{
		{Name: "us", Options: small},
		{Name: "eu", Options: small},
		{Name: "asia", Options: small},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The writer records into eu's tracer, so us's records only the read.
	writer, err := tr.NewClient(TierClientOptions{Local: "eu"})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := tr.NewClient(TierClientOptions{Local: "us"})
	if err != nil {
		t.Fatal(err)
	}
	// Every op the local cell records is slow, so its slow log keeps the
	// tier GET for the checks below.
	local := tr.Cell("us").Tracer()
	local.SetSlowThreshold(1)

	// A key owned by eu, read from us: the read crosses cells.
	var key []byte
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("xcell-key-%05d", i))
		if tr.Owner(k) == "eu" {
			key = k
			break
		}
	}
	if err := writer.Set(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	ops := local.Ops()
	if val, found, err := reader.Get(ctx, key); err != nil || !found || string(val) != "v1" {
		t.Fatalf("tier read: %q %v %v", val, found, err)
	}
	if n := local.Ops() - ops; n != 1 {
		t.Fatalf("the local cell recorded %d ops for one tier GET, want 1", n)
	}
	slow := local.Snapshot(0).Slow
	if len(slow) != 1 || slow[0].Kind != trace.KindGet.String() {
		t.Fatalf("local slow log %+v, want the one tier GET", slow)
	}
	rec := slow[0]

	hasSpan := func(spans []fabric.Span, code uint16) bool {
		for _, sp := range spans {
			if sp.Code == code {
				return true
			}
		}
		return false
	}
	// The owner cell's index lookup (SpanIndexFetch) lies inside the
	// tier-forward bracket, in the same span list as the tier's own spans.
	spansBothCells := func(spans []fabric.Span) bool {
		if !hasSpan(spans, trace.SpanTierRoute) || !hasSpan(spans, trace.SpanRingLookup) {
			return false
		}
		var br fabric.Span
		for _, sp := range spans {
			if sp.Code == trace.SpanTierForward {
				br = sp
			}
		}
		for _, sp := range spans {
			if sp.Code == trace.SpanIndexFetch && sp.Start >= br.Start && sp.Start+sp.Dur <= br.Start+br.Dur {
				return br.Dur > 0
			}
		}
		return false
	}
	if !spansBothCells(rec.Spans) {
		t.Errorf("record lacks the routing spans or the owner's index lookup inside its tier-forward bracket: %+v", rec.Spans)
	}

	// Wire path: the same op id, with its cross-cell spans, is readable
	// over MethodDebug from the local cell — the cmstat -trace view.
	g, err := tr.Cell("us").Internal().ServeTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	remote, err := rpc.DialTCP(g.Addr(), "observer")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	raw, _, err := remote.Call(ctx, "backend-0", proto.MethodDebug, proto.DebugReq{MaxSlow: 8}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	dbg, err := proto.UnmarshalDebugResp(raw)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, op := range append(append([]proto.DebugOp{}, dbg.Exemplars...), dbg.SlowOps...) {
		if op.ID != rec.ID {
			continue
		}
		found = true
		if !spansBothCells(op.Spans) {
			t.Errorf("wire copy of op %d lost a cell's spans: %+v", op.ID, op.Spans)
		}
	}
	if !found {
		t.Errorf("tier GET %d not visible over Debug RPC", rec.ID)
	}
}

// TestHeatMergeRecallProperty checks the fleet heat-union property the
// global hot-key ranking rests on: unioning per-cell space-saving
// sketches over DISJOINT key populations (each cell owns its keys, so no
// key is counted twice) must (a) preserve the space-saving over-estimate
// bound per key and (b) recall nearly all of the true global top-k under
// a Zipf workload.
func TestHeatMergeRecallProperty(t *testing.T) {
	const (
		cells   = 3
		sketchK = 32
		topN    = 10
		keys    = 600
		draws   = 60000
	)
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.3, 1, keys-1)

		truth := make(map[string]uint64)
		sketches := make([]*stats.TopK, cells)
		for i := range sketches {
			sketches[i] = stats.NewTopK(sketchK)
		}
		for i := 0; i < draws; i++ {
			id := zipf.Uint64()
			key := fmt.Sprintf("key-%04d", id)
			truth[key]++
			// Disjoint ownership: a key's accesses all land on one cell.
			sketches[id%cells].TouchString(key)
		}

		perCell := make([][]proto.DebugHotKey, cells)
		for i, sk := range sketches {
			for _, hk := range sk.TopN(sketchK) {
				perCell[i] = append(perCell[i], proto.DebugHotKey{Key: hk.Key, Count: hk.Count, Err: hk.Err})
			}
		}
		merged := fleet.MergeHotKeys(perCell...)
		if len(merged) == 0 {
			t.Fatalf("seed %d: empty merge", seed)
		}

		// (a) Over-estimate bound: for every merged key, the true count
		// lies in [Count-Err, Count].
		for _, hk := range merged {
			tc := truth[hk.Key]
			if tc > hk.Count || hk.Count-hk.Err > tc {
				t.Errorf("seed %d: key %s bound violated: true=%d count=%d err=%d",
					seed, hk.Key, tc, hk.Count, hk.Err)
			}
		}

		// (b) Recall of the true global top-N.
		type kc struct {
			k string
			c uint64
		}
		var all []kc
		for k, c := range truth {
			all = append(all, kc{k, c})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].c != all[j].c {
				return all[i].c > all[j].c
			}
			return all[i].k < all[j].k
		})
		want := make(map[string]bool, topN)
		for _, e := range all[:topN] {
			want[e.k] = true
		}
		n := topN
		if n > len(merged) {
			n = len(merged)
		}
		recalled := 0
		for _, hk := range merged[:n] {
			if want[hk.Key] {
				recalled++
			}
		}
		if recalled < topN-2 {
			t.Errorf("seed %d: recall %d/%d of true top-%d", seed, recalled, topN, topN)
		}
		// The single hottest key globally must rank first in the merge.
		if merged[0].Key != all[0].k {
			t.Errorf("seed %d: merged hottest %q, true hottest %q", seed, merged[0].Key, all[0].k)
		}
	}
}
