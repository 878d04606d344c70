package tier

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"cliquemap/internal/chaos"
	"cliquemap/internal/core/cell"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/hashring"
	"cliquemap/internal/health"
)

// tinyHealth shrinks the SLO windows to virtual-millisecond scale so a
// brownout pages within a few prober rounds (same recipe as the cell-
// level health e2e tests).
func tinyHealth() health.Config {
	return health.Config{
		FastWindowNs: uint64(20 * time.Millisecond),
		SlowWindowNs: uint64(200 * time.Millisecond),
		BucketNs:     uint64(1 * time.Millisecond),
	}
}

func newTestTier(t *testing.T, names ...string) *Tier {
	t.Helper()
	var refs []CellRef
	for _, n := range names {
		c, err := cell.New(cell.Options{Shards: 3, Spares: 1, Mode: config.R32, Health: tinyHealth()})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, CellRef{Name: n, Cell: c})
	}
	tr, err := New(Options{Cells: refs})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func testKey(i int) []byte { return []byte(fmt.Sprintf("tier-key-%05d", i)) }

func TestTierRoutesAndServes(t *testing.T) {
	tr := newTestTier(t, "us", "eu", "asia")
	cl, err := tr.NewClient(ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const n = 300
	perCell := map[string]int{}
	for i := 0; i < n; i++ {
		key := testKey(i)
		if err := cl.Set(ctx, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		perCell[tr.Owner(key)]++
	}
	for _, name := range tr.Cells() {
		if perCell[name] == 0 {
			t.Errorf("cell %s owns no keys out of %d", name, n)
		}
	}
	for i := 0; i < n; i++ {
		val, found, err := cl.Get(ctx, testKey(i))
		if err != nil || !found {
			t.Fatalf("get %d: found=%v err=%v", i, found, err)
		}
		if want := fmt.Sprintf("v%d", i); string(val) != want {
			t.Fatalf("get %d: %q, want %q", i, val, want)
		}
	}

	// The key must physically live on the owning cell: a direct per-cell
	// read on the owner finds it.
	for i := 0; i < 50; i++ {
		key := testKey(i)
		owner := tr.Owner(key)
		_, found, err := cl.cls[owner].Get(ctx, key)
		if err != nil || !found {
			t.Fatalf("key %d not on its owner %s: found=%v err=%v", i, owner, found, err)
		}
	}
}

// TestTierKillCellReroutes is the zero-lost-acked-writes oracle: crash
// every shard of one cell mid-workload, keep writing through the tier
// client, and verify (a) the router marks the cell dead and re-routes,
// (b) every key's LAST acked write is readable afterwards, and (c) only
// keys the dead cell owned changed owner.
func TestTierKillCellReroutes(t *testing.T) {
	tr := newTestTier(t, "us", "eu", "asia")
	cl, err := tr.NewClient(ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const n = 200
	acked := map[string]string{} // key → last acked value
	write := func(round int) {
		for i := 0; i < n; i++ {
			key, val := testKey(i), fmt.Sprintf("r%d-v%d", round, i)
			if err := cl.Set(ctx, key, []byte(val)); err != nil {
				// Not acked — the previous acked value must still rule.
				continue
			}
			acked[string(key)] = val
		}
	}
	write(0)

	ringBefore := tr.Router().Ring()
	verBefore := tr.Router().Version()

	// Kill asia: every shard crashes, clients start failing over.
	victim := tr.Cell("asia")
	for s := 0; s < 3; s++ {
		victim.Crash(s)
	}

	// Keep writing: ops against the dead cell fail, push it over the
	// dead threshold, and retry onto the new owner.
	write(1)
	write(2)

	if v := tr.Router().Version(); v == verBefore {
		t.Fatal("ring version did not change after cell death")
	}
	snap := tr.Router().Snapshot()
	for _, c := range snap.Cells {
		if c.Name == "asia" {
			if c.State != "dead" || c.WeightMilli != 0 || c.OwnedPpm != 0 {
				t.Fatalf("dead cell state %+v", c)
			}
		}
	}

	// Every acked write must be readable — the reroute may cost misses
	// for keys never re-acked, but write rounds 1-2 re-acked everything.
	for key, want := range acked {
		val, found, err := cl.Get(ctx, []byte(key))
		if err != nil {
			t.Fatalf("get %q after kill: %v", key, err)
		}
		if !found {
			t.Fatalf("lost acked write: %q missing", key)
		}
		if string(val) != want {
			t.Fatalf("acked write regressed: %q = %q, want %q", key, val, want)
		}
	}

	// Movement check: only asia's former range moved.
	ringAfter := tr.Router().Ring()
	moved, total := 0, 2000
	for i := 0; i < total; i++ {
		h := hashring.DefaultHash(testKey(i))
		was, now := ringBefore.OwnerName(h), ringAfter.OwnerName(h)
		if was != now {
			moved++
			if was != "asia" {
				t.Fatalf("key %d moved from untouched cell %s", i, was)
			}
		}
	}
	if frac := float64(moved) / float64(total); frac > 1.0/3+0.06 {
		t.Errorf("kill moved %.3f of keyspace, want ≤ 1/3 + slack", frac)
	}
	if cl.Metrics().DeadFailovers.Load() == 0 {
		t.Error("no dead-failover retry recorded")
	}
}

// TestTierHealthDemoteHysteresis drives the full incident: brownout one
// cell until its plane pages, verify the router demotes it (bounded key
// movement, ring version bump), heal, and verify full weight returns
// only after healHold consecutive clean rounds.
func TestTierHealthDemoteHysteresis(t *testing.T) {
	tr := newTestTier(t, "us", "eu", "asia")
	ctx := context.Background()

	// Baseline probe rounds: all cells Ok, no demotions.
	for i := 0; i < 3; i++ {
		tr.ProbeRound(ctx)
	}
	verBefore := tr.Router().Version()
	ringBefore := tr.Router().Ring()

	// Brownout every eu shard past the 1ms GET SLO.
	ch := tr.Cell("eu").Chaos()
	if err := ch.Inject(ctx, chaos.Event{Hazard: chaos.HazardBrownout, Shard: -1, Delay: uint64(2 * time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	demoted := false
	for i := 0; i < 40 && !demoted; i++ {
		tr.ProbeRound(ctx)
		for _, c := range tr.Router().Snapshot().Cells {
			if c.Name == "eu" && c.Demoted {
				demoted = true
			}
		}
	}
	if !demoted {
		t.Fatal("paged cell was never demoted")
	}
	if tr.Router().Version() == verBefore {
		t.Fatal("demotion did not rebuild the ring")
	}

	// Bounded movement: ≤ 1/N + slack, and only out of eu.
	ringDemoted := tr.Router().Ring()
	moved, total := 0, 2000
	for i := 0; i < total; i++ {
		h := hashring.DefaultHash(testKey(i))
		was, now := ringBefore.OwnerName(h), ringDemoted.OwnerName(h)
		if was != now {
			moved++
			if was != "eu" {
				t.Fatalf("demotion moved key from untouched cell %s", was)
			}
		}
	}
	if frac := float64(moved) / float64(total); frac > 1.0/3+0.06 {
		t.Errorf("demotion moved %.3f of keyspace, want ≤ 1/3 + slack", frac)
	}

	// Heal. Demotion must persist until healHold consecutive clean
	// evaluations — the plane itself also holds the page until its fast
	// window drains, so count rounds from the first clean one.
	if err := ch.Heal(ctx, chaos.Event{Hazard: chaos.HazardBrownout, Shard: -1}); err != nil {
		t.Fatal(err)
	}
	cleanRounds := 0
	restored := false
	for i := 0; i < 300 && !restored; i++ {
		tr.ProbeRound(ctx)
		snap := tr.Router().Snapshot()
		for _, c := range snap.Cells {
			if c.Name == "eu" {
				if c.Demoted {
					if c.State == "ok" {
						cleanRounds++
					}
				} else {
					restored = true
				}
			}
		}
	}
	if !restored {
		t.Fatal("healed cell never restored to full weight")
	}
	if cleanRounds < healHold-1 {
		t.Errorf("restored after %d clean rounds, want ≥ %d (hysteresis)", cleanRounds, healHold-1)
	}
	var euW uint64
	for _, c := range tr.Router().Snapshot().Cells {
		if c.Name == "eu" {
			euW = c.WeightMilli
		}
	}
	if euW != 1000 {
		t.Errorf("restored weight %d milli, want 1000", euW)
	}
}

func TestTierFollowerReads(t *testing.T) {
	tr := newTestTier(t, "us", "eu")
	ctx := context.Background()

	// Writer colocated with us; reader colocated with us too, follower
	// reads on. Pick a key owned by eu so reads cross cells.
	writer, err := tr.NewClient(ClientOptions{Local: "us"})
	if err != nil {
		t.Fatal(err)
	}
	// The fabric clock tracks wall time, so the bound must be wide
	// enough that two adjacent reads land inside it even under -race
	// scheduling noise, yet short enough to cross with one sleep.
	const staleBound = 500 * time.Millisecond
	reader, err := tr.NewClient(ClientOptions{
		Local: "us", FollowerReads: true,
		StaleBoundNs: uint64(staleBound),
	})
	if err != nil {
		t.Fatal(err)
	}
	var key []byte
	for i := 0; ; i++ {
		k := testKey(i)
		if tr.Owner(k) == "eu" {
			key = k
			break
		}
	}

	if err := writer.Set(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// First read: follower miss → owner fetch → populate local cache.
	val, found, err := reader.Get(ctx, key)
	if err != nil || !found || !bytes.Equal(val, []byte("v1")) {
		t.Fatalf("first read: %q %v %v", val, found, err)
	}
	if reader.Metrics().FollowerMisses.Load() != 1 {
		t.Fatalf("expected one follower miss, got %d", reader.Metrics().FollowerMisses.Load())
	}

	// Second read inside the bound: served locally.
	if _, _, err := reader.Get(ctx, key); err != nil {
		t.Fatal(err)
	}
	if reader.Metrics().FollowerHits.Load() != 1 {
		t.Fatalf("expected one follower hit, got %d", reader.Metrics().FollowerHits.Load())
	}

	// The owner moves the value forward; the follower copy is now stale.
	if err := writer.Set(ctx, key, []byte("v2")); err != nil {
		t.Fatal(err)
	}

	// Inside the stale bound the follower may legally serve v1 (that is
	// the contract). Wait out the bound, then the read must revalidate
	// and return v2.
	time.Sleep(staleBound + 100*time.Millisecond)
	val, found, err = reader.Get(ctx, key)
	if err != nil || !found {
		t.Fatalf("stale read: %v %v", found, err)
	}
	if !bytes.Equal(val, []byte("v2")) {
		t.Fatalf("stale follower served %q after bound, want revalidated v2", val)
	}
	if reader.Metrics().FollowerRefreshes.Load() == 0 {
		t.Error("no follower refresh recorded")
	}

	// Erase through the reader invalidates its local copy too.
	if err := reader.Erase(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, found, _ := reader.Get(ctx, key); found {
		t.Error("erased key still found via follower path")
	}
}

// TestFollowerReadHoldsBoundPastLaggingPrimary: a follower entry past its
// staleness bound is revalidated by a read quorum of the owner cell, not
// by whichever cohort member answers first. The owner's primary refuses
// RPCs while a SET of v2 acks on the other two replicas, so its copy
// still holds v1; a revalidation that trusted the first answer would
// reconfirm v1 at every bound until a repair sweep ran.
func TestFollowerReadHoldsBoundPastLaggingPrimary(t *testing.T) {
	tr := newTestTier(t, "us", "eu")
	ctx := context.Background()
	const staleBound = 50 * time.Millisecond
	writer, err := tr.NewClient(ClientOptions{Local: "eu"})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := tr.NewClient(ClientOptions{Local: "us", FollowerReads: true, StaleBoundNs: uint64(staleBound)})
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(0)
	for i := 1; tr.Owner(key) != "eu"; i++ {
		key = testKey(i)
	}
	if err := writer.Set(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if val, _, err := reader.Get(ctx, key); err != nil || string(val) != "v1" {
		t.Fatalf("first read: %q %v", val, err)
	}

	owner := tr.Cell("eu")
	primary := int(hashring.DefaultHash(key).Hi % uint64(owner.Shards()))
	owner.SetRPCFailRate(primary, 1.0, 1)
	err = writer.Set(ctx, key, []byte("v2"))
	owner.SetRPCFailRate(primary, 0, 1)
	if err != nil {
		t.Fatalf("set v2 with the primary refusing RPCs: %v", err)
	}

	time.Sleep(staleBound + 20*time.Millisecond)
	refreshes := reader.Metrics().FollowerRefreshes.Load()
	val, found, err := reader.Get(ctx, key)
	if err != nil || !found || string(val) != "v2" {
		t.Fatalf("read past the bound: %q found=%v err=%v, want v2", val, found, err)
	}
	if reader.Metrics().FollowerRefreshes.Load() == refreshes {
		t.Error("the read past the bound recorded no follower refresh")
	}
}

// TestTierResizeKeepsCellAlive is the regression test for the federation
// tier's deadliest false positive: an online resize bumps the cell's
// config epoch, and if any tier-client path keeps using the stale
// ConfigID (the follower revalidation RPC did), every op against that
// cell fails and failThreshold consecutive failures mark a perfectly
// healthy cell dead. Routine maintenance must never kill a cell.
func TestTierResizeKeepsCellAlive(t *testing.T) {
	tr := newTestTier(t, "us", "eu", "asia")
	ctx := context.Background()
	writer, err := tr.NewClient(ClientOptions{Local: "us"})
	if err != nil {
		t.Fatal(err)
	}
	reader, err := tr.NewClient(ClientOptions{
		Local: "us", FollowerReads: true,
		StaleBoundNs: uint64(20 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 120
	for i := 0; i < n; i++ {
		if err := writer.Set(ctx, testKey(i), []byte("v1")); err != nil {
			t.Fatalf("pre-resize set %d: %v", i, err)
		}
		if _, _, err := reader.Get(ctx, testKey(i)); err != nil {
			t.Fatalf("pre-resize get %d: %v", i, err)
		}
	}

	if err := tr.Cell("eu").Resize(ctx, 4); err != nil {
		t.Fatalf("resize: %v", err)
	}
	// Let every follower entry age past the bound so each read takes the
	// revalidation path against the (new-epoch) owner.
	time.Sleep(40 * time.Millisecond)

	for i := 0; i < n; i++ {
		if _, _, err := reader.Get(ctx, testKey(i)); err != nil {
			t.Fatalf("post-resize get %d: %v", i, err)
		}
		if err := writer.Set(ctx, testKey(i), []byte("v2")); err != nil {
			t.Fatalf("post-resize set %d: %v", i, err)
		}
	}
	for _, c := range tr.Router().Snapshot().Cells {
		if c.State != "ok" || c.Demoted {
			t.Errorf("cell %s is %s (demoted=%v) after a routine resize", c.Name, c.State, c.Demoted)
		}
	}
	if v := tr.Router().Version(); v != 1 {
		t.Errorf("ring version %d after resize, want 1 (no rebuilds)", v)
	}
}

// TestTierConcurrentOpsAndReweight is the -race hammer at tier level:
// clients route and mutate while health flaps demote/restore cells and
// weights change.
func TestTierConcurrentOpsAndReweight(t *testing.T) {
	tr := newTestTier(t, "us", "eu", "asia")
	ctx := context.Background()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < 3; g++ {
		cl, err := tr.NewClient(ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(cl *Client, g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := testKey(g*1000 + i%100)
				if err := cl.Set(ctx, key, []byte("v")); err != nil {
					t.Errorf("set: %v", err)
					return
				}
				if _, _, err := cl.Get(ctx, key); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}(cl, g)
	}

	r := tr.Router()
	for i := 0; i < 150; i++ {
		switch i % 3 {
		case 0:
			r.ApplyHealth("eu", health.Page)
		case 1:
			for k := 0; k < healHold; k++ {
				r.ApplyHealth("eu", health.Ok)
			}
		case 2:
			r.SetWeight("asia", 0.5+float64(i%4)*0.25)
		}
	}
	close(stop)
	wg.Wait()
}

func TestTierValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("empty tier accepted")
	}
	c, err := cell.New(cell.Options{Shards: 3, Mode: config.R32})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Cells: []CellRef{{Name: "", Cell: c}}}); err == nil {
		t.Error("unnamed cell accepted")
	}
	if _, err := New(Options{Cells: []CellRef{{Name: "a", Cell: c}, {Name: "a", Cell: c}}}); err == nil {
		t.Error("duplicate cell name accepted")
	}
	tr, err := New(Options{Cells: []CellRef{{Name: "a", Cell: c}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.NewClient(ClientOptions{Local: "nope"}); err == nil {
		t.Error("unknown local cell accepted")
	}
}

// TestTierGetAllocatesOnlyItsLeg: a traced tier GET that its local cell
// owns allocates exactly what its cell leg, a GetTraced on that cell's
// client, does. The tier op's context node, trace and span buffer are its
// leased record. Before leasing they were 3 allocations per op, and the
// tier GET cost 2 more than a standalone leg, which then made a context
// node of its own that the tier's leg did not.
func TestTierGetAllocatesOnlyItsLeg(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	tr := newTestTier(t, "us", "eu")
	cl, err := tr.NewClient(ClientOptions{PerCell: client.Options{Strategy: client.StrategySCAR}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	key := testKey(0)
	for i := 1; tr.Owner(key) != "us"; i++ {
		key = testKey(i)
	}
	if err := cl.Set(ctx, key, make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	leg := func() {
		if _, found, _, err := cl.local.GetTraced(ctx, key); err != nil || !found {
			t.Fatalf("cell get: found=%v err=%v", found, err)
		}
	}
	edge := func() {
		if _, found, err := cl.Get(ctx, key); err != nil || !found {
			t.Fatalf("tier get: found=%v err=%v", found, err)
		}
	}
	for i := 0; i < 600; i++ { // past the tracer reservoir's first fill
		edge()
	}
	ops := cl.Tracer().Ops()
	want := testing.AllocsPerRun(200, leg)
	if got := testing.AllocsPerRun(200, edge); got != want {
		t.Errorf("a tier GET allocates %v, its cell leg %v: the tier edge must add nothing", got, want)
	}
	if n := cl.Tracer().Ops() - ops; n != 2*201 {
		t.Errorf("%d ops recorded, want one per GET: both GETs are traced", n)
	}
}
