package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/fleet"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
)

// Every renderer is a function of (io.Writer, scrape(s), flags), so each
// view is pinned to a golden file rendered from a fixed synthetic scrape.
// The goldens were first captured from the hand-written column logic of
// the commit before the column table; `go test ./cmd/cmstat -update`
// rewrites them.

var update = flag.Bool("update", false, "rewrite the golden files")

func TestMain(m *testing.M) {
	time.Local = time.UTC // printOp and the STALE marker format local wall time
	os.Exit(m.Run())
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from %s:\n--- got\n%s\n--- want\n%s", name, path, got, want)
	}
}

var t0 = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// hist summarises obs the way a backend's Debug snapshot does.
func hist(kind, transport string, obs ...uint64) proto.DebugHist {
	var h stats.Histogram
	for _, v := range obs {
		h.Record(v)
	}
	return trace.Summarize(kind, transport, &h)
}

// taskStats is one busy task: every table has something to show.
func taskStats(shard int, scale uint64) proto.StatsResp {
	return proto.StatsResp{
		Shard: shard, ResidentKeys: 1000 * scale, MemoryBytes: (3 << 20) * scale,
		Sets: 5000 * scale, Gets: 90_000 * scale, Evictions: 40 * scale,
		IndexResizes: 1, DataGrows: 2, RepairsIssued: 7 * scale, VersionRejects: 3 * scale,
		Stripes: 16, StripeMaxOps: 9000 * scale, StripeTotalOps: 95_000 * scale,
		HeatTracked: 48, HeatTotal: 95_000 * scale,
		CkptEpoch: 3 + scale, CkptUnixNano: uint64(t0.Add(-90 * time.Second).UnixNano()),
		JournalRecords: 44 * scale, JournalBytes: 70_000 * scale,
		RecoveredKeys: 900, ReplayedRecords: 12, SelfValidated: 850,
		StripeContended: 17 * scale, StripeWaitNs: 81_234 * scale,
		StripeHeldNs: 400_000 * scale, StripeHeldSampled: 12 * scale,
		RPCWorkerLimit: 64, RPCWorkersBusy: 7, RPCQueuedSubmits: 3 * scale,
		RPCSubmitWaitNs: 55_555 * scale, RPCQueuedCalls: 120 * scale,
		RPCQueueNs: 9_000_000 * scale, RPCRhoMilli: 870,
		NICEngines: 4, NICRhoMilli: 930, NICQueueNs: 1_234_567 * scale, NICOps: 88_000 * scale,
		SlabDrains: 21 * scale, EntriesMoved: 1900 * scale, DataFragMilli: 153, DataTailBytes: 64 << 10,
		Erases: 300 * scale, CasOps: 200 * scale, Overflows: 2 * scale, Touches: 640 * scale, CorruptPurged: scale,
	}
}

// cellA is a healthy 3-shard cell at t0 inside a 2-cell tier: every
// section renders.
func cellA() *fleet.CellScrape {
	s0, s1, s2 := taskStats(0, 1), taskStats(1, 2), taskStats(2, 3)
	s1.Sealed, s1.Recovering = true, true
	s2.HandoffSealed = true
	hot := []proto.DebugHotKey{{Key: "k1", Count: 900, Err: 3}, {Key: "\x00probe/x", Count: 20}, {Key: "k2", Count: 11, Err: 1}}
	return &fleet.CellScrape{
		Name: "127.0.0.1:7070", At: t0,
		Config: proto.ConfigResp{ConfigID: 9, Replicas: 3, Quorum: 2, ShardAddrs: []string{"backend-0", "backend-1", "backend-2"}},
		Stats:  map[string]proto.StatsResp{"backend-0": s0, "backend-1": s1, "backend-2": s2},
		Errors: map[string]string{},
		Debug: proto.DebugResp{
			OpsTotal: 120_000, SlowTotal: 4, SlowThresholdNs: 1_000_000,
			Hists: []proto.DebugHist{
				hist("GET", "2xR", 5000, 6000, 7000, 9000, 40_000),
				hist("GET", "SCAR", 4000, 4100, 4200),
				hist("SET", "RPC", 90_000, 110_000),
				hist("CAS", "RPC", 95_000),
			},
			CPU: []proto.DebugCPU{{Component: "client", TotalNs: 5_000_000, Ops: 100}, {Component: "rpc", TotalNs: 44_000_000, Ops: 900}},
			SlowOps: []proto.DebugOp{{ID: 42, Kind: "GET", Transport: "2xR", Attempts: 2, Ns: 3_000_000, Bytes: 1024,
				WallNs: t0.Add(-time.Second).UnixNano(),
				Spans:  []fabric.Span{{Code: 1, Arg: 3, Start: 0, Dur: 4200}, {Code: 5, Start: 4200, Dur: 900}, {Code: 99, Start: 5100, Dur: 1}}}},
			Exemplars:  []proto.DebugOp{{ID: 7, Kind: "CAS", Transport: "RPC", Attempts: 1, Ns: 50_000}},
			Hazards:    []proto.DebugHazard{{Name: "drop", Count: 9}, {Name: "partition", Count: 1}},
			HotKeys:    hot[:1],
			StripeHeat: []uint64{5, 0, 17, 9},
		},
		DebugOK: true,
		Health: proto.HealthResp{GeneratedNs: 12345, Rounds: 7,
			Classes: []proto.HealthClass{
				{Class: "GET", State: "page", SinceNs: 99, AvailabilityPpm: 999_000, LatencyTargetNs: 1_000_000,
					FastBurnMilli: 14_400, SlowBurnMilli: 6_250, WindowGood: 10, WindowBad: 5, Good: 100, Bad: 6,
					ProbeP50Ns: 7000, ProbeP99Ns: 70_000, Pages: 2, Warns: 1},
				{Class: "SET", State: "ok", AvailabilityPpm: 999_900, LatencyTargetNs: 5_000_000, Good: 50},
			},
			Targets: []proto.HealthTarget{{Name: "2xR", Good: 50, Bad: 1}, {Name: "RPC", Good: 49}}},
		HealthOK: true,
		Tier: proto.TierResp{RingVersion: 9, Vnodes: 128, Cells: []proto.TierCell{
			{Name: "us", WeightMilli: 1000, BaseMilli: 1000, State: "ok", OwnedPpm: 750_000},
			{Name: "eu", WeightMilli: 250, BaseMilli: 1000, State: "page", Demoted: true, OwnedPpm: 250_000}}},
		TierOK:  true,
		HotKeys: hot,
	}
}

// cellB is cellA two seconds on: backend-1 restarted (its counters are
// lower than cellA's) and backend-2 stopped answering Stats.
func cellB() *fleet.CellScrape {
	b := cellA()
	b.At = t0.Add(2 * time.Second)
	s0 := taskStats(0, 1)
	s0.Gets, s0.Sets, s0.Evictions, s0.RepairsIssued = s0.Gets+30_000, s0.Sets+2500, s0.Evictions+5, s0.RepairsIssued+1
	s0.RPCQueueNs, s0.StripeWaitNs, s0.StripeContended = s0.RPCQueueNs+500_000_000, s0.StripeWaitNs+20_000_000, s0.StripeContended+40
	s0.NICQueueNs, s0.NICOps = s0.NICQueueNs+100_000_000, s0.NICOps+3_000_000
	s1 := taskStats(1, 1) // restarted: scale 2 → 1
	s1.Gets = 100
	b.Stats = map[string]proto.StatsResp{"backend-0": s0, "backend-1": s1}
	b.Errors = map[string]string{"backend-2": "rpc: deadline exceeded"}
	b.Debug.OpsTotal, b.Debug.SlowTotal = 180_000, 6
	b.Debug.CPU = []proto.DebugCPU{{Component: "client", TotalNs: 9_000_000, Ops: 180}, {Component: "rpc", TotalNs: 40_000_000, Ops: 800}}
	return b
}

// cellResizing is cellA mid-resize 3 → 4: two old shards sealed, and a
// pending-only spare that answers Stats.
func cellResizing() *fleet.CellScrape {
	c := cellA()
	c.Config.PendingShards = 4
	c.Config.PendingShardAddrs = []string{"backend-0", "backend-1", "backend-2", "spare-0"}
	c.Config.SealedOld = []bool{true, false, true}
	sp := taskStats(-1, 1)
	sp.PendingShards, sp.HandoffSealed = 4, true
	c.Stats["spare-0"] = sp
	return c
}

// cellResized is the same cell two seconds after the resize committed:
// spare-0 now serves shard 3 and was in no earlier round's shard map.
func cellResized() *fleet.CellScrape {
	c := cellA()
	c.At = t0.Add(2 * time.Second)
	c.Config.ConfigID, c.Config.ShardAddrs = 10, []string{"backend-0", "backend-1", "backend-2", "spare-0"}
	c.Stats["spare-0"] = taskStats(3, 1)
	return c
}

func render(f func(w *bytes.Buffer)) []byte {
	var b bytes.Buffer
	f(&b)
	return b.Bytes()
}

func TestCellViews(t *testing.T) {
	golden(t, "cumulative", render(func(w *bytes.Buffer) { printTables(w, cellA(), nil, false, false, 10) }))
	golden(t, "watch_restart_unreachable", render(func(w *bytes.Buffer) { printTables(w, cellB(), cellA(), false, false, 10) }))
	golden(t, "resize", render(func(w *bytes.Buffer) { printTables(w, cellResizing(), nil, false, false, 2) }))
	golden(t, "watch_promoted_spare", render(func(w *bytes.Buffer) { printTables(w, cellResized(), cellA(), false, false, 10) }))
	golden(t, "trace", render(func(w *bytes.Buffer) { printTables(w, cellA(), nil, true, true, 10) }))
	golden(t, "json", render(func(w *bytes.Buffer) { printJSON(w, cellA()) }))
	golden(t, "prom", render(func(w *bytes.Buffer) { cellA().WriteProm(w) }))

	// A bare cell: no saturation or recovery telemetry, no tracer, no health
	// plane, outside any tier — and -tier asked for.
	bare := &fleet.CellScrape{Name: "bare", At: t0, TierOK: true,
		Config: proto.ConfigResp{ConfigID: 1, Replicas: 1, Quorum: 1, ShardAddrs: []string{"backend-0"}},
		Stats:  map[string]proto.StatsResp{"backend-0": {ResidentKeys: 3, MemoryBytes: 4096, Sets: 3}}}
	golden(t, "bare_tier", render(func(w *bytes.Buffer) { printTables(w, bare, nil, false, true, 10) }))
	golden(t, "bare_json", render(func(w *bytes.Buffer) { printJSON(w, bare) }))
}

// TestWatchDeltas pins the three -watch defects the column table fixed, on
// the fixed scrapes: a task with no previous round prints "-" rather than
// its lifetime as one interval's rate; a restart is flagged once per task,
// from any cumulative column — one no -watch table shows included — for all
// three tables; and the cumulative view has the GETS column.
func TestWatchDeltas(t *testing.T) {
	field := func(out, row string, col int) string {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > col && f[1] == row {
				return f[col]
			}
		}
		t.Fatalf("no row %s:\n%s", row, out)
		return ""
	}
	out := string(render(func(w *bytes.Buffer) { printTable(w, "", cellResized(), cellA()) }))
	if got := field(out, "spare-0", 4); got != "-" { // GETS/s
		t.Errorf("a task with no previous round shows GETS/s %q, want -:\n%s", got, out)
	}
	if got := field(out, "backend-0", 4); got != "0" {
		t.Errorf("an idle task with a previous round shows GETS/s %q, want 0", got)
	}
	sat := string(render(func(w *bytes.Buffer) { printTable(w, "SATURATION", cellResized(), cellA()) }))
	if got := field(sat, "spare-0", 4); got != "-" { // QWAIT s/s
		t.Errorf("SATURATION shows a first interval of %q, want -:\n%s", got, sat)
	}

	// Only IndexResizes (a cumulative-view column) goes backwards.
	prev, cur := cellA(), cellA()
	cur.At = t0.Add(2 * time.Second)
	st := cur.Stats["backend-2"]
	st.IndexResizes = 0
	cur.Stats["backend-2"] = st
	out = string(render(func(w *bytes.Buffer) { printTables(w, cur, prev, false, false, 10) }))
	if n := strings.Count(out, "counters reset on backend-2 (backend restart)"); n != 1 {
		t.Errorf("restart of backend-2 flagged %d times, want once:\n%s", n, out)
	}
	if out = string(render(func(w *bytes.Buffer) { printTables(w, cellB(), cellA(), false, false, 10) })); strings.Count(out, "note: ") != 1 {
		t.Errorf("one restarted task, want one note for all three tables:\n%s", out)
	}

	head := strings.SplitN(string(render(func(w *bytes.Buffer) { printTable(w, "", cellA(), nil) })), "\n", 2)[0]
	if !strings.Contains(head, " GETS ") || strings.Contains(head, "/s") {
		t.Errorf("cumulative header %q: want GETS, and no rates", head)
	}
}

// fakeGateway answers the scrape sequence from a CellScrape.
type fakeGateway struct {
	cs   *fleet.CellScrape
	down bool
}

func (g *fakeGateway) Call(_ context.Context, addr, method string, _ []byte) ([]byte, fabric.OpTrace, error) {
	if g.down {
		return nil, fabric.OpTrace{}, errors.New("connection refused")
	}
	switch method {
	case proto.MethodConfig:
		return g.cs.Config.Marshal(), fabric.OpTrace{}, nil
	case proto.MethodStats:
		if st, ok := g.cs.Stats[addr]; ok {
			return st.Marshal(), fabric.OpTrace{}, nil
		}
	case proto.MethodDebug:
		return g.cs.Debug.Marshal(), fabric.OpTrace{}, nil
	case proto.MethodHealth:
		return g.cs.Health.Marshal(), fabric.OpTrace{}, nil
	case proto.MethodTier:
		return g.cs.Tier.Marshal(), fabric.OpTrace{}, nil
	}
	return nil, fabric.OpTrace{}, errors.New("no answer")
}

// fleetRounds scrapes a 3-cell fleet twice: all of us/eu up and ap never
// reachable (DOWN), then eu drops out (STALE as of round 1).
func fleetRounds(t *testing.T) (first, second *fleet.View) {
	us, eu := cellA(), cellA()
	eu.Debug.Hists = []proto.DebugHist{hist("GET", "2xR", 8000, 900_000), hist("ERASE", "RPC", 70_000)}
	eu.Debug.HotKeys = []proto.DebugHotKey{{Key: "k2", Count: 500, Err: 9}, {Key: "k9", Count: 5}}
	eu.Health.Classes[0].State, eu.Health.Classes[0].FastBurnMilli = "warn", 2500
	euGW := &fakeGateway{cs: eu}
	now := t0
	agg := fleet.New([]fleet.Target{
		{Name: "us", Caller: &fakeGateway{cs: us}},
		{Name: "eu", Caller: euGW},
		{Name: "ap", Caller: &fakeGateway{down: true}},
	}, fleet.Options{Now: func() time.Time { return now }})
	first = agg.ScrapeOnce(context.Background())
	euGW.down = true
	for a, st := range us.Stats {
		st.Gets += 50_000
		us.Stats[a] = st
	}
	now = t0.Add(2 * time.Second)
	return first, agg.ScrapeOnce(context.Background())
}

func TestFleetViews(t *testing.T) {
	first, second := fleetRounds(t)
	golden(t, "fleet", render(func(w *bytes.Buffer) { printFleet(w, first, nil, 10) }))
	golden(t, "fleet_watch_stale_down", render(func(w *bytes.Buffer) { printFleet(w, second, first, 2) }))
	golden(t, "fleet_json", render(func(w *bytes.Buffer) { printFleetJSON(w, second) }))
	golden(t, "fleet_prom", render(func(w *bytes.Buffer) { second.WriteProm(w) }))
}
