package cliquemap

// End-to-end checks of the fleet health plane: a chaos brownout must
// deterministically trip a burn-rate page within the fast window, healing
// must clear it well inside one slow window, and a skewed workload's hot
// keys must surface through the Debug RPC's heavy-hitter sketch. All
// timing runs on the fabric's virtual clock, so the scenario replays
// byte-for-byte under a fixed seed.

import (
	"context"
	"strings"
	"testing"
	"time"

	"cliquemap/internal/chaos"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/health"
	"cliquemap/internal/rpc"
	"cliquemap/internal/workload"
)

// healthTestConfig shrinks the SLO windows to virtual-millisecond scale:
// one prober round advances the fabric clock by roughly a virtual
// millisecond (4 targets × 8 keys × 4 ops), so the fast window spans a
// handful of rounds and the whole incident fits in a CI-friendly run.
func healthTestConfig() health.Config {
	return health.Config{
		FastWindowNs: uint64(20 * time.Millisecond),
		SlowWindowNs: uint64(200 * time.Millisecond),
		BucketNs:     uint64(1 * time.Millisecond),
	}
}

// TestProberRecordsEachOpOnce: one prober round on a healthy Pony cell
// records every canary op into the plane exactly once — 4 targets × 8
// probe keys gives each op class 32 records, and each target its 8 keys ×
// 4 ops.
func TestProberRecordsEachOpOnce(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Spares: 1, Mode: R32})
	snap := c.Prober().Round(context.Background())
	for _, class := range []string{"SET", "GET", "CAS", "ERASE"} {
		cs, ok := snap.Class(class)
		if !ok || cs.Good+cs.Bad != 32 {
			t.Errorf("class %s: good %d + bad %d (present %v), want 32", class, cs.Good, cs.Bad, ok)
		}
	}
	if len(snap.Targets) != 4 {
		t.Errorf("targets %+v, want 4", snap.Targets)
	}
	for _, tg := range snap.Targets {
		if tg.Good+tg.Bad != 32 {
			t.Errorf("target %s: good %d + bad %d, want 32", tg.Name, tg.Good, tg.Bad)
		}
	}
}

// runBrownoutScenario drives the canonical incident — healthy baseline,
// cell-wide GET brownout, heal — and reports the virtual nanoseconds the
// plane took to page after injection and to return to ok after the heal,
// plus the per-round worst-state trace for determinism checks.
func runBrownoutScenario(t *testing.T) (pageAfterNs, clearAfterNs uint64, states []string) {
	t.Helper()
	c := newCell(t, Options{Shards: 3, Spares: 1, Mode: R32, Health: healthTestConfig()})
	prober := c.Prober()
	ctx := context.Background()
	cfg := c.Health().Config()

	// Baseline: a few healthy rounds must leave every class Ok.
	for i := 0; i < 3; i++ {
		snap := prober.Round(ctx)
		states = append(states, snap.Worst().String())
		if snap.Worst() != health.Ok {
			t.Fatalf("healthy baseline round %d: worst=%s", i, snap.Worst())
		}
	}

	// Brownout every shard: 2ms of engine service delay pushes every GET
	// past its 1ms SLO threshold (mutations fan out concurrently and stay
	// under their 5ms threshold, so the page isolates to GET).
	ch := c.Chaos()
	if err := ch.Inject(ctx, chaos.Event{Hazard: chaos.HazardBrownout, Shard: -1, Delay: uint64(2 * time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	injected := c.Internal().Fabric.NowNs()
	paged := false
	for c.Internal().Fabric.NowNs()-injected <= cfg.FastWindowNs {
		snap := prober.Round(ctx)
		states = append(states, snap.Worst().String())
		if gc, ok := snap.Class("GET"); ok && gc.State == health.Page {
			paged = true
			pageAfterNs = c.Internal().Fabric.NowNs() - injected
			break
		}
	}
	if !paged {
		t.Fatalf("brownout did not page GET within the fast window (%v virtual)",
			time.Duration(cfg.FastWindowNs))
	}

	// Heal. The fast window drains within FastWindowNs of good probes,
	// breaking the both-windows page condition, so the alert must clear
	// well inside one slow window.
	if err := ch.Heal(ctx, chaos.Event{Hazard: chaos.HazardBrownout, Shard: -1}); err != nil {
		t.Fatal(err)
	}
	healed := c.Internal().Fabric.NowNs()
	cleared := false
	for c.Internal().Fabric.NowNs()-healed <= cfg.SlowWindowNs {
		snap := prober.Round(ctx)
		states = append(states, snap.Worst().String())
		if snap.Worst() == health.Ok {
			cleared = true
			clearAfterNs = c.Internal().Fabric.NowNs() - healed
			break
		}
	}
	if !cleared {
		t.Fatalf("page did not clear within one slow window (%v virtual) of the heal",
			time.Duration(cfg.SlowWindowNs))
	}

	// The prober's probe keys live in the reserved namespace and must
	// never leak into user-visible heat telemetry.
	for _, b := range c.Internal().Nodes() {
		for _, hk := range b.Heat().TopN(0) {
			t.Fatalf("probe key leaked into heat sketch: %q", hk.Key)
		}
	}
	return pageAfterNs, clearAfterNs, states
}

func TestHealthBrownoutPagesAndClears(t *testing.T) {
	pageNs, clearNs, _ := runBrownoutScenario(t)
	t.Logf("paged %v after injection, cleared %v after heal (virtual)",
		time.Duration(pageNs), time.Duration(clearNs))
}

// transitions collapses a per-round state trace to its distinct
// transitions ("ok ok page page ok" → "ok page ok").
func transitions(states []string) []string {
	var out []string
	for _, s := range states {
		if len(out) == 0 || out[len(out)-1] != s {
			out = append(out, s)
		}
	}
	return out
}

// TestHealthScenarioDeterministic replays the same incident twice on
// fresh cells. The fabric's arrival clock is wall time (1 real second ≡
// 1 virtual second), so round counts jitter by scheduling — but the
// alert trajectory must be identical: ok → page → ok, with both runs
// paging inside the fast window and clearing inside the slow window
// (asserted by runBrownoutScenario). Exact window algebra under a fully
// fake clock is covered by the internal/health unit tests.
func TestHealthScenarioDeterministic(t *testing.T) {
	_, _, s1 := runBrownoutScenario(t)
	_, _, s2 := runBrownoutScenario(t)
	for run, tr := range [][]string{transitions(s1), transitions(s2)} {
		// Legal recoveries: straight to ok once the fast window drains, or
		// stepping down through warn if a round lands mid-drain.
		got := strings.Join(tr, " ")
		if got != "ok page ok" && got != "ok page warn ok" {
			t.Fatalf("run %d trajectory %q, want ok → page → (warn →) ok", run+1, got)
		}
	}
}

// TestHealthServedOverRPC checks the MethodHealth wire path end to end:
// the evaluated snapshot — including a live page — must be readable
// through the TCP gateway exactly as cmstat reads it.
func TestHealthServedOverRPC(t *testing.T) {
	// Wide windows: this test only needs the page to fire and still be
	// visible over the wire after the TCP gateway spins up, so the windows
	// must comfortably outlast brownout-slowed prober rounds plus the
	// dial — unlike the incident tests above, nothing here waits for a
	// clear.
	c := newCell(t, Options{Shards: 3, Spares: 0, Mode: R32, Health: health.Config{
		FastWindowNs: uint64(10 * time.Second),
		SlowWindowNs: uint64(100 * time.Second),
		BucketNs:     uint64(50 * time.Millisecond),
	}})
	prober := c.Prober()
	ctx := context.Background()

	ch := c.Chaos()
	if err := ch.Inject(ctx, chaos.Event{Hazard: chaos.HazardBrownout, Shard: -1, Delay: uint64(2 * time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		prober.Round(ctx)
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

	raw, _, err := remote.Call(ctx, "backend-0", proto.MethodHealth, proto.HealthReq{}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	hl, err := proto.UnmarshalHealthResp(raw)
	if err != nil {
		t.Fatal(err)
	}
	if hl.Rounds != 5 {
		t.Errorf("rounds over RPC = %d, want 5", hl.Rounds)
	}
	var get *proto.HealthClass
	for i := range hl.Classes {
		if hl.Classes[i].Class == "GET" {
			get = &hl.Classes[i]
		}
	}
	if get == nil {
		t.Fatalf("no GET class in %+v", hl.Classes)
	}
	if get.State != "page" {
		t.Errorf("GET state over RPC = %q, want \"page\"", get.State)
	}
	if get.FastBurnMilli == 0 || get.SlowBurnMilli == 0 {
		t.Errorf("burn rates not populated: %+v", get)
	}
	if get.AvailabilityPpm != 999000 {
		t.Errorf("availability objective = %d ppm, want 999000", get.AvailabilityPpm)
	}
	if len(hl.Targets) == 0 {
		t.Error("no probe targets in health snapshot")
	}
}

// TestHotKeyTelemetryE2E plants a Zipf-skewed workload (s=1.2, the
// acceptance shape) and checks the hottest key surfaces through the
// Debug RPC's heavy-hitter sketch with its error bound, and that the
// Stats RPC carries the sketch occupancy gauges.
func TestHotKeyTelemetryE2E(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Spares: 0, Mode: R32})
	cl := c.NewClient(ClientOptions{Strategy: LookupSCAR, TouchBatch: 32})
	ctx := context.Background()

	const keys = 512
	for i := 0; i < keys; i++ {
		if err := cl.Set(ctx, []byte(workload.Key(uint64(i))), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	kg := workload.NewZipfKeys(keys, 1.2, 1)
	for i := 0; i < 20000; i++ {
		k := []byte(workload.Key(kg.Next()))
		if _, _, err := cl.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
	}
	cl.FlushTouches(ctx)

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

	// The sketch is per-backend; under Zipf 1.2 the head key dominates,
	// so the backend owning it must rank it first. Scan all shards.
	hot := string(workload.Key(0))
	foundHot := false
	for _, addr := range []string{"backend-0", "backend-1", "backend-2"} {
		raw, _, err := remote.Call(ctx, addr, proto.MethodDebug, proto.DebugReq{}.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		dbg, derr := proto.UnmarshalDebugResp(raw)
		if derr != nil {
			t.Fatal(derr)
		}
		if len(dbg.StripeHeat) == 0 {
			t.Errorf("%s: no stripe heat", addr)
		}
		for i, hk := range dbg.HotKeys {
			if hk.Key == hot && i == 0 {
				foundHot = true
				if hk.Count == 0 {
					t.Errorf("hot key has zero count: %+v", hk)
				}
			}
		}
		sraw, _, serr := remote.Call(ctx, addr, proto.MethodStats, nil)
		if serr != nil {
			t.Fatal(serr)
		}
		st, uerr := proto.UnmarshalStatsResp(sraw)
		if uerr != nil {
			t.Fatal(uerr)
		}
		if st.HeatTracked == 0 || st.HeatTotal == 0 {
			t.Errorf("%s: heat gauges empty: tracked=%d total=%d", addr, st.HeatTracked, st.HeatTotal)
		}
	}
	if !foundHot {
		t.Errorf("planted hot key %q not ranked first on any shard", hot)
	}
}
