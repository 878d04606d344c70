package cliquemap

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/fleet"
	"cliquemap/internal/health"
)

// TestFleetAggregatorMergesLiveTier is the scrape-and-merge end-to-end
// check: a live 3-cell federation tier under a skewed workload, scraped
// by the fleet aggregator over the same additive methods cmstat -fleet
// uses, must yield merged latency percentiles spanning all cells, an
// evaluated fleet SLO verdict, a global hot-key ranking surfacing the
// skew, and a per-cell routing-skew report against ring ownership.
func TestFleetAggregatorMergesLiveTier(t *testing.T) {
	small := Options{Shards: 2, Spares: 0, Mode: R32, Health: health.Config{
		FastWindowNs: uint64(10 * time.Second),
		SlowWindowNs: uint64(100 * time.Second),
		BucketNs:     uint64(50 * time.Millisecond),
	}}
	tr, err := NewTier(TierOptions{Cells: []TierCellOptions{
		{Name: "us", Options: small},
		{Name: "eu", Options: small},
		{Name: "asia", Options: small},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl, err := tr.NewClient(TierClientOptions{})
	if err != nil {
		t.Fatal(err)
	}

	// A spread workload plus one scorching key: the global ranking must
	// surface it no matter which cell owns it.
	hot := []byte("fleet-hot-key")
	if err := cl.Set(ctx, hot, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("fleet-key-%04d", i))
		if err := cl.Set(ctx, key, []byte("v")); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if _, _, err := cl.Get(ctx, key); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	for i := 0; i < 400; i++ {
		if _, _, err := cl.Get(ctx, hot); err != nil {
			t.Fatal(err)
		}
	}
	// Health: a few canary prober rounds per cell evaluate the SLOs.
	for i := 0; i < 3; i++ {
		tr.ProbeRound(ctx)
	}

	targets := make([]fleet.Target, 0, 3)
	for _, name := range tr.Cells() {
		targets = append(targets, fleet.Target{
			Name:   name,
			Caller: tr.Cell(name).Internal().Net.Client(0, "fleet-aggregator"),
		})
	}
	agg := fleet.New(targets, fleet.Options{})
	v := agg.ScrapeOnce(ctx)

	// Merged latency: the GET distribution must combine all three cells.
	var got *proto.DebugHist
	for i := range v.Hists {
		if v.Hists[i].Kind == "GET" && v.Hists[i].Cells == 3 {
			got = &v.Hists[i]
			break
		}
	}
	if got == nil {
		t.Fatalf("no 3-cell merged GET histogram: %+v", v.Hists)
	}
	if got.Count == 0 || got.P99Ns < got.P50Ns || got.MaxNs < got.P99Ns {
		t.Errorf("degenerate merged GET hist: %+v", got)
	}

	// Fleet SLO verdict: health scraped from every cell, nothing paging.
	if v.Verdict != "ok" {
		t.Errorf("fleet verdict %q, want ok (classes: %+v)", v.Verdict, v.Classes)
	}
	if len(v.Classes) == 0 {
		t.Error("no SLO classes merged")
	}

	// Global heat: the scorching key leads the union.
	if len(v.HotKeys) == 0 || v.HotKeys[0].Key != string(hot) {
		t.Errorf("global hot ranking misses %q: %+v", hot, truncHot(v))
	}

	// Routing skew: all three cells live, each with ring ownership.
	if len(v.Skew) != 3 {
		t.Fatalf("skew rows: %+v", v.Skew)
	}
	for _, s := range v.Skew {
		if s.OwnedPpm == 0 {
			t.Errorf("cell %s has no ring share: %+v", s.Name, s)
		}
	}
	if !v.RingOK {
		t.Error("no ring snapshot scraped")
	}

	// The Prometheus exposition of the merged view names fleet series.
	var sb strings.Builder
	v.WriteProm(&sb)
	for _, want := range []string{"cliquemap_fleet_cells 3", "cliquemap_fleet_op_latency_ns", "cliquemap_fleet_route_skew"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	// A second round computes interval deltas; with no new traffic the
	// observed shares go quiet but every cell stays live.
	v2 := agg.ScrapeOnce(ctx)
	if len(v2.Skew) != 3 || v2.Round != 2 {
		t.Errorf("second round: round=%d skew=%+v", v2.Round, v2.Skew)
	}
	for _, c := range v2.Cells {
		if c.Stale || c.Err != "" {
			t.Errorf("cell %s unhealthy on round 2: %+v", c.Name, c)
		}
	}
}

func truncHot(v *fleet.View) []string {
	n := len(v.HotKeys)
	if n > 5 {
		n = 5
	}
	out := make([]string, 0, n)
	for _, hk := range v.HotKeys[:n] {
		out = append(out, fmt.Sprintf("%s=%d", hk.Key, hk.Count))
	}
	return out
}

// TestFleetScrapeCellUnionsShardSketches drives the one scrape sequence
// (cmstat's, and the aggregator's) against a live 4-shard cell whose keys
// each live on a single shard: the cell's hot-key ranking must span every
// shard's sketch, not stop at the first responder's, and must be exactly
// what a one-cell fleet view ranks.
func TestFleetScrapeCellUnionsShardSketches(t *testing.T) {
	c, err := NewCell(Options{Shards: 4, Spares: 0, Mode: R1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cl := c.NewClient(ClientOptions{})
	for i := 0; i < 32; i++ {
		for n := 0; n <= i%4; n++ {
			if err := cl.Set(ctx, []byte(fmt.Sprintf("union-key-%02d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	tgt := fleet.Target{Name: "solo", Caller: c.Internal().Net.Client(0, "cmstat")}
	cs, err := fleet.ScrapeCell(ctx, tgt, 8, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Stats) != 4 || len(cs.Errors) != 0 || !cs.DebugOK || !cs.HealthOK || !cs.TierOK {
		t.Fatalf("incomplete scrape: stats=%d errors=%v debug=%v health=%v tier=%v",
			len(cs.Stats), cs.Errors, cs.DebugOK, cs.HealthOK, cs.TierOK)
	}
	if len(cs.HotKeys) != 32 {
		t.Errorf("cell ranking holds %d keys, want all 32", len(cs.HotKeys))
	}
	if one := len(cs.Debug.HotKeys); one == 0 || one >= len(cs.HotKeys) {
		t.Errorf("first shard's sketch holds %d keys, the cell's union %d: the union should be wider", one, len(cs.HotKeys))
	}
	v := fleet.New([]fleet.Target{tgt}, fleet.Options{}).ScrapeOnce(ctx)
	if fmt.Sprint(v.HotKeys) != fmt.Sprint(cs.HotKeys) {
		t.Errorf("one-cell fleet view ranks\n %v\nthe cell scrape\n %v", v.HotKeys, cs.HotKeys)
	}
}
