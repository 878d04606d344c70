package cell

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"cliquemap/internal/chaos"
	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

func newTestCell(t *testing.T, opt Options) *Cell {
	t.Helper()
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func small32() Options {
	return Options{
		Shards: 3, Spares: 1, Mode: config.R32, Transport: TransportPony,
		Backend: backend.Options{
			Geometry:       layout.Geometry{Buckets: 64, Ways: 8},
			DataBytes:      1 << 20,
			DataMaxBytes:   8 << 20,
			SlabBytes:      64 << 10,
			ReshapeEnabled: true,
		},
	}
}

func TestSetGetAcrossStrategies(t *testing.T) {
	for _, strat := range []client.Strategy{client.Strategy2xR, client.StrategySCAR, client.StrategyMSG, client.StrategyRPC} {
		t.Run(strat.String(), func(t *testing.T) {
			c := newTestCell(t, small32())
			cl := c.NewClient(client.Options{Strategy: strat})
			ctx := context.Background()
			for i := 0; i < 20; i++ {
				k := []byte(fmt.Sprintf("key-%d", i))
				v := []byte(fmt.Sprintf("value-%d", i))
				if err := cl.Set(ctx, k, v); err != nil {
					t.Fatalf("set %d: %v", i, err)
				}
			}
			for i := 0; i < 20; i++ {
				k := []byte(fmt.Sprintf("key-%d", i))
				got, found, err := cl.Get(ctx, k)
				if err != nil || !found || string(got) != fmt.Sprintf("value-%d", i) {
					t.Fatalf("get %d: %q %v %v", i, got, found, err)
				}
			}
			if _, found, err := cl.Get(ctx, []byte("absent")); err != nil || found {
				t.Errorf("absent key: found=%v err=%v", found, err)
			}
		})
	}
}

// TestReadOnlyClientSurvivesConfigBump: a client that only ever GETs has
// no mutation bounce to tell it the fleet moved on, so every strategy's
// read legs must surface the stale-ConfigID rejection themselves — one
// config refresh, then every preloaded key hits under the new shard map.
func TestReadOnlyClientSurvivesConfigBump(t *testing.T) {
	for _, strat := range []client.Strategy{client.Strategy2xR, client.StrategySCAR, client.StrategyMSG, client.StrategyRPC} {
		t.Run(strat.String(), func(t *testing.T) {
			c := newTestCell(t, small32())
			ctx := context.Background()
			writer := c.NewClient(client.Options{})
			const keys = 50
			for i := 0; i < keys; i++ {
				if err := writer.Set(ctx, []byte(fmt.Sprintf("key-%d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
					t.Fatalf("preload %d: %v", i, err)
				}
			}
			reader := c.NewClient(client.Options{Strategy: strat})
			if err := c.Resize(ctx, 4); err != nil {
				t.Fatalf("resize: %v", err)
			}
			for i := 0; i < keys; i++ {
				got, found, err := reader.Get(ctx, []byte(fmt.Sprintf("key-%d", i)))
				if err != nil || !found || string(got) != fmt.Sprintf("value-%d", i) {
					t.Errorf("get %d after resize: %q found=%v err=%v", i, got, found, err)
				}
			}
			if n := reader.M.ConfigRetries.Value(); n < 1 {
				t.Errorf("ConfigRetries = %d, want >= 1: the stale config was never refreshed", n)
			}
			if n := reader.M.Inquorate.Value(); n != 0 {
				t.Errorf("Inquorate = %d, want 0", n)
			}
		})
	}
}

func TestSetGetR1AndR2(t *testing.T) {
	for _, mode := range []config.Mode{config.R1, config.R2Immutable} {
		t.Run(mode.String(), func(t *testing.T) {
			opt := small32()
			opt.Mode = mode
			c := newTestCell(t, opt)
			cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
			ctx := context.Background()
			if err := cl.Set(ctx, []byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			got, found, err := cl.Get(ctx, []byte("k"))
			if err != nil || !found || string(got) != "v" {
				t.Fatalf("get: %q %v %v", got, found, err)
			}
		})
	}
}

func TestEraseNoResurrection(t *testing.T) {
	c := newTestCell(t, small32())
	cl := c.NewClient(client.Options{Strategy: client.StrategySCAR})
	ctx := context.Background()
	cl.Set(ctx, []byte("k"), []byte("v"))
	if err := cl.Erase(ctx, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, found, err := cl.Get(ctx, []byte("k")); err != nil || found {
		t.Errorf("after erase: found=%v err=%v", found, err)
	}
	// A later SET creates it anew.
	cl.Set(ctx, []byte("k"), []byte("v2"))
	got, found, _ := cl.Get(ctx, []byte("k"))
	if !found || string(got) != "v2" {
		t.Errorf("re-set: %q %v", got, found)
	}
}

func TestCas(t *testing.T) {
	c := newTestCell(t, small32())
	cl := c.NewClient(client.Options{})
	ctx := context.Background()
	v1, err := cl.SetVersioned(ctx, []byte("k"), []byte("a"))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := cl.Cas(ctx, []byte("k"), []byte("b"), v1)
	if err != nil || !ok {
		t.Fatalf("cas with right version: %v %v", ok, err)
	}
	ok, err = cl.Cas(ctx, []byte("k"), []byte("c"), v1) // stale expectation
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("cas with stale version applied")
	}
	got, _, _ := cl.Get(ctx, []byte("k"))
	if string(got) != "b" {
		t.Errorf("value = %q", got)
	}
}

// TestQuorumSurvivesSingleFailure is the §5.1 availability property the
// paper proved in TLA+: R=3.2 serves reads with any single backend down.
func TestQuorumSurvivesSingleFailure(t *testing.T) {
	c := newTestCell(t, small32())
	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
	ctx := context.Background()
	keys := make([][]byte, 30)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		if err := cl.Set(ctx, keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for down := 0; down < 3; down++ {
		c.Crash(down)
		for _, k := range keys {
			got, found, err := cl.Get(ctx, k)
			if err != nil || !found || string(got) != "v" {
				t.Fatalf("shard %d down, key %q: %q %v %v", down, k, got, found, err)
			}
		}
		// Writes also make progress (quorum of 2).
		if err := cl.Set(ctx, []byte(fmt.Sprintf("during-%d", down)), []byte("w")); err != nil {
			t.Fatalf("write with shard %d down: %v", down, err)
		}
		if err := c.Restart(ctx, down); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCrashRestartRepair(t *testing.T) {
	c := newTestCell(t, small32())
	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if err := cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	c.Crash(1)
	// Writes during the outage create dirty quorums involving shard 1.
	for i := 0; i < 20; i++ {
		if err := cl.Set(ctx, []byte(fmt.Sprintf("dirty%d", i)), []byte("d")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Restart(ctx, 1); err != nil {
		t.Fatal(err)
	}
	// After repair, the restarted backend must hold every key it
	// replicates: all three replicas agree, so even a client preferring
	// backend 1 reads correctly.
	b1 := c.Backend(1)
	if b1.Len() == 0 {
		t.Fatal("restarted backend still empty after repair")
	}
	if c.AggregateCounters().RepairsIssued == 0 {
		t.Error("no repairs recorded")
	}
	for i := 0; i < 20; i++ {
		got, found, err := cl.Get(ctx, []byte(fmt.Sprintf("dirty%d", i)))
		if err != nil || !found || string(got) != "d" {
			t.Fatalf("dirty%d after repair: %q %v %v", i, got, found, err)
		}
	}
}

// TestRemoteRepairEraseCountsAsSettle: a replica warm-restarts holding a
// key the cohort erased while it was down. The key's primary is another
// shard, so what settles it is that primary's repair ERASE over RPC; the
// recovered entry was corrected, not confirmed, so it does not count as
// self-validated.
func TestRemoteRepairEraseCountsAsSettle(t *testing.T) {
	opt := small32()
	opt.DataDir = t.TempDir()
	c := newTestCell(t, opt)
	cl := c.NewClient(client.Options{})
	ctx := context.Background()
	const down, keys = 0, 20
	var gone []byte
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if err := cl.Set(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if gone == nil && int(hashring.DefaultHash(k).Hi%uint64(opt.Shards)) != down {
			gone = k
		}
	}
	c.Crash(down)
	if err := cl.Erase(ctx, gone); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartWarm(ctx, down); err != nil {
		t.Fatal(err)
	}
	b := c.Backend(down)
	if b.Len() != keys-1 {
		t.Fatalf("restarted replica holds %d keys after repair, want %d", b.Len(), keys-1)
	}
	rs := b.RecoveryStatsSnapshot()
	if rs.RecoveredKeys != keys {
		t.Fatalf("RecoveredKeys = %d, want %d", rs.RecoveredKeys, keys)
	}
	if rs.SelfValidated != rs.RecoveredKeys-1 {
		t.Errorf("SelfValidated = %d, want %d: the erased key was repaired, not confirmed", rs.SelfValidated, rs.RecoveredKeys-1)
	}
}

func TestPlannedMaintenanceSparing(t *testing.T) {
	c := newTestCell(t, small32())
	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	// Warm the client's handshakes so the migration is discovered via
	// bucket ConfigID mismatch rather than a fresh Hello.
	for i := 0; i < 30; i++ {
		if _, found, err := cl.Get(ctx, []byte(fmt.Sprintf("k%d", i))); err != nil || !found {
			t.Fatalf("pre-maintenance k%d: %v %v", i, found, err)
		}
	}
	primaryAddr := c.Store.Get().AddrFor(0)

	spareAddr, err := c.PlannedMaintenance(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if spareAddr == primaryAddr {
		t.Fatal("maintenance did not move the shard")
	}
	// The old primary can now "restart" (it is idle); reads keep working
	// throughout via the spare + config refresh.
	for i := 0; i < 30; i++ {
		got, found, gerr := cl.Get(ctx, []byte(fmt.Sprintf("k%d", i)))
		if gerr != nil || !found || string(got) != "v" {
			t.Fatalf("during maintenance k%d: %q %v %v", i, got, found, gerr)
		}
	}
	if cl.M.ConfigRetries.Value() == 0 {
		t.Error("clients should have discovered the migration via config-ID mismatch")
	}
	// Return the shard to the primary.
	if err := c.CompleteMaintenance(ctx, 0, primaryAddr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		got, found, gerr := cl.Get(ctx, []byte(fmt.Sprintf("k%d", i)))
		if gerr != nil || !found || string(got) != "v" {
			t.Fatalf("after maintenance k%d: %q %v %v", i, got, found, gerr)
		}
	}
	if got := c.Backend(0).Addr(); got != primaryAddr {
		t.Errorf("shard 0 served by %s, want %s", got, primaryAddr)
	}
}

// TestFig5RaceTornRead reproduces the §5.3 race: a GET racing a SET either
// orders before (old value), after (new value), or retries internally —
// but never returns a torn or wrong value.
func TestFig5RaceTornRead(t *testing.T) {
	c := newTestCell(t, small32())
	ctx := context.Background()
	writer := c.NewClient(client.Options{})
	reader := c.NewClient(client.Options{Strategy: client.Strategy2xR})

	key := []byte("contended")
	// Values large enough to span many write chunks → real tear windows.
	valA := bytes.Repeat([]byte{'A'}, 8000)
	valB := bytes.Repeat([]byte{'B'}, 8000)
	if err := writer.Set(ctx, key, valA); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				writer.Set(ctx, key, valB)
			} else {
				writer.Set(ctx, key, valA)
			}
			i++
		}
	}()

	for i := 0; i < 300; i++ {
		got, found, err := reader.Get(ctx, key)
		if err != nil {
			continue // starved GET after retries: legal, rare
		}
		if !found {
			t.Error("key vanished mid-race")
			break
		}
		allA := bytes.Count(got, []byte{'A'}) == len(got)
		allB := bytes.Count(got, []byte{'B'}) == len(got)
		if !allA && !allB {
			t.Fatalf("torn value escaped validation: %d A / %d B",
				bytes.Count(got, []byte{'A'}), bytes.Count(got, []byte{'B'}))
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("torn retries: %d, quorum retries: %d", reader.M.TornRetries.Value(), reader.M.QuorumRetries.Value())
}

// TestIndexResizeThroughClient drives enough inserts to force index
// resizes (window revocation) while a client keeps reading: the client
// must recover transparently via re-handshake.
func TestIndexResizeThroughClient(t *testing.T) {
	opt := small32()
	opt.Backend.Geometry = layout.Geometry{Buckets: 4, Ways: 4}
	c := newTestCell(t, opt)
	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
	ctx := context.Background()

	for i := 0; i < 120; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if err := cl.Set(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		// Interleave reads so some hit windows revoked by resizes.
		if _, _, err := cl.Get(ctx, []byte(fmt.Sprintf("k%d", i/2))); err != nil {
			t.Fatalf("get during resizes: %v", err)
		}
	}
	agg := c.AggregateCounters()
	if agg.IndexResizes == 0 {
		t.Fatal("no index resizes happened; test ineffective")
	}
	// Keys may legitimately disappear only via pre-resize associativity
	// evictions; everything else must survive the window churn.
	missing := 0
	for i := 0; i < 120; i++ {
		_, found, err := cl.Get(ctx, []byte(fmt.Sprintf("k%d", i)))
		if err != nil {
			t.Fatalf("k%d after resizes: %v", i, err)
		}
		if !found {
			missing++
		}
	}
	if uint64(missing) > agg.AssocEvictions {
		t.Errorf("%d keys missing but only %d associativity evictions across the cell", missing, agg.AssocEvictions)
	}
	if missing > 20 {
		t.Errorf("too many keys lost to conflicts: %d/120", missing)
	}
}

func TestTouchReportingFeedsEviction(t *testing.T) {
	c := newTestCell(t, small32())
	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR, TouchBatch: 4})
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	for i := 0; i < 8; i++ {
		cl.Get(ctx, []byte(fmt.Sprintf("k%d", i)))
	}
	cl.FlushTouches(ctx)
	if c.AggregateCounters().Touches == 0 {
		t.Error("no access records ingested")
	}
}

func TestAntagonistToggles(t *testing.T) {
	c := newTestCell(t, small32())
	c.SetAntagonist(1, 0.95)
	host := c.Store.Get().HostFor(1)
	if got := c.Fabric.Host(host).ExternalLoad(); got < 0.9 {
		t.Errorf("antagonist load = %v", got)
	}
	c.SetAntagonist(1, 0)
	if got := c.Fabric.Host(host).ExternalLoad(); got != 0 {
		t.Errorf("antagonist not cleared: %v", got)
	}
}

// TestOneRMATransportEndToEnd: SCAR requested from a 1RMA cell, whose
// NICs cannot scan, builds a 2×R client. It reports the 2×R transport,
// every GET hit reads its data after the index, and it holds its pointer
// table from New: each GET after the client's own SET of the key starts
// its data read warm, the first one included.
func TestOneRMATransportEndToEnd(t *testing.T) {
	opt := small32()
	opt.Transport = Transport1RMA
	c := newTestCell(t, opt)
	cl := c.NewClient(client.Options{Strategy: client.StrategySCAR})
	if got := cl.Transport(); got != trace.Transport2xR {
		t.Fatalf("transport %v, want %v", got, trace.Transport2xR)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if err := cl.Set(ctx, k, []byte("v")); err != nil {
			t.Fatal(err)
		}
		got, found, tr, err := cl.GetTraced(ctx, k)
		if err != nil || !found || string(got) != "v" {
			t.Fatalf("1rma get: %q %v %v", got, found, err)
		}
		if !slices.ContainsFunc(tr.Spans, func(s fabric.Span) bool { return s.Code == trace.SpanDataRead }) {
			t.Fatalf("GET %d read no data after its index: %+v", i, tr.Spans)
		}
	}
	if warm, n := cl.M.WarmReads.Value(), cl.M.RetryCount()+cl.M.RPCFallbacks.Value(); warm != 10 || n != 0 {
		t.Errorf("%d of 10 GETs started warm, %d retries or fallbacks; want 10 and 0", warm, n)
	}
}

// TestOneRMAMessageClientIsRPC: a MSG client of a 1RMA cell, whose NICs
// offer no messaging, is built as an RPC client (cell.strategy): it
// reports the RPC transport, and the tracer files its GETs under it; so
// is one built outside a cell without a message path (client.New). The
// prober builds one canary per strategy the transport serves: "2xR" and
// "RPC" on 1RMA, all four on Pony.
func TestOneRMAMessageClientIsRPC(t *testing.T) {
	opt := small32()
	opt.Transport = Transport1RMA
	c := newTestCell(t, opt)
	cl := c.NewClient(client.Options{Strategy: client.StrategyMSG})
	if got := cl.Transport(); got != trace.TransportRPC {
		t.Fatalf("transport %v, want %v", got, trace.TransportRPC)
	}
	bare := client.New(client.Options{Strategy: client.StrategyMSG}, c.Store, c.Net.WANClient(1, "bare", 0), c.Clock, nil, nil, nil, nil)
	if got := bare.Transport(); got != trace.TransportRPC {
		t.Errorf("a client without a message path: transport %v, want %v", got, trace.TransportRPC)
	}
	ctx := context.Background()
	if err := cl.Set(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, found, err := cl.Get(ctx, []byte("k")); err != nil || !found {
		t.Fatalf("GET: found=%v err=%v", found, err)
	}
	for _, h := range c.Tracer.Snapshot(0).Hists {
		if h.Kind == "GET" && h.Transport != "RPC" {
			t.Errorf("a GET filed under %s, want RPC", h.Transport)
		}
	}
	if got := c.Prober().Targets(); !slices.Equal(got, []string{"2xR", "RPC"}) {
		t.Errorf("1RMA probe targets %v, want [2xR RPC]", got)
	}
	if got := newTestCell(t, small32()).Prober().Targets(); !slices.Equal(got, []string{"2xR", "SCAR", "MSG", "RPC"}) {
		t.Errorf("Pony probe targets %v, want [2xR SCAR MSG RPC]", got)
	}
}

// TestRetryRateUnderMixedLoad checks the §4 claim: self-validation
// retries are rare under a normal mixed workload — well under 1% here
// (the paper reports <0.01% at production scale).
func TestRetryRateUnderMixedLoad(t *testing.T) {
	c := newTestCell(t, small32())
	cl := c.NewClient(client.Options{Strategy: client.StrategySCAR})
	ctx := context.Background()
	const keys = 50
	for i := 0; i < keys; i++ {
		cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("value"))
	}
	ops := uint64(0)
	for round := 0; round < 40; round++ {
		for i := 0; i < keys; i++ {
			if i%10 == 0 {
				cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("value2"))
			}
			if _, _, err := cl.Get(ctx, []byte(fmt.Sprintf("k%d", i))); err != nil {
				t.Fatal(err)
			}
			ops++
		}
	}
	retries := cl.M.RetryCount()
	if float64(retries) > 0.01*float64(ops) {
		t.Errorf("retry rate %.4f%% (%d/%d) exceeds 1%%", 100*float64(retries)/float64(ops), retries, ops)
	}
}

// TestEvictionRate checks the §4.2 observation that evictions run at
// roughly half the SET rate once a cache at capacity churns — i.e. the
// same order of magnitude, not a pathology.
func TestEvictionRate(t *testing.T) {
	opt := small32()
	opt.Backend.DataBytes = 256 << 10
	opt.Backend.DataMaxBytes = 256 << 10
	opt.Backend.SlabBytes = 32 << 10
	opt.Backend.ReshapeEnabled = false
	c := newTestCell(t, opt)
	cl := c.NewClient(client.Options{})
	ctx := context.Background()
	val := bytes.Repeat([]byte{1}, 2000)
	const sets = 600
	for i := 0; i < sets; i++ {
		if err := cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	agg := c.AggregateCounters()
	evictions := agg.CapacityEvictions + agg.AssocEvictions
	ratio := float64(evictions) / float64(agg.SetsApplied)
	if ratio < 0.1 || ratio > 1.5 {
		t.Errorf("eviction/SET ratio = %.2f (evictions=%d sets=%d); expected same order as SETs", ratio, evictions, agg.SetsApplied)
	}
}

func TestGetBatch(t *testing.T) {
	c := newTestCell(t, small32())
	cl := c.NewClient(client.Options{Strategy: client.StrategySCAR})
	ctx := context.Background()
	var keys [][]byte
	for i := 0; i < 12; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		keys = append(keys, k)
		cl.Set(ctx, k, []byte(fmt.Sprintf("v%d", i)))
	}
	keys = append(keys, []byte("missing"))
	vals, found, tr, err := cl.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if !found[i] || string(vals[i]) != fmt.Sprintf("v%d", i) {
			t.Errorf("batch[%d] = %q %v", i, vals[i], found[i])
		}
	}
	if found[12] {
		t.Error("missing key reported found")
	}
	if tr.Ns == 0 {
		t.Error("batch trace empty")
	}
}

// TestCompressionEndToEnd exercises §9's post-launch compression feature:
// compressible values are stored compressed on the backends, every lookup
// strategy transparently decompresses, and the data region shrinks.
func TestCompressionEndToEnd(t *testing.T) {
	opt := small32()
	opt.Backend.CompressThreshold = 256
	c := newTestCell(t, opt)
	ctx := context.Background()

	// A highly compressible 8KB value.
	val := bytes.Repeat([]byte("cliquemap "), 800)
	writer := c.NewClient(client.Options{})
	if err := writer.Set(ctx, []byte("big"), val); err != nil {
		t.Fatal(err)
	}
	for _, strat := range []client.Strategy{client.Strategy2xR, client.StrategySCAR, client.StrategyMSG, client.StrategyRPC} {
		cl := c.NewClient(client.Options{Strategy: strat})
		got, found, err := cl.Get(ctx, []byte("big"))
		if err != nil || !found {
			t.Fatalf("%v: %v %v", strat, found, err)
		}
		if !bytes.Equal(got, val) {
			t.Fatalf("%v: value corrupted (%d vs %d bytes)", strat, len(got), len(val))
		}
	}

	// Compare resident footprint against an uncompressed twin.
	plain := newTestCell(t, small32())
	pw := plain.NewClient(client.Options{})
	pw.Set(ctx, []byte("big"), val)
	compressedUtil := c.Backend(0).DataUtilization()
	plainUtil := plain.Backend(0).DataUtilization()
	if compressedUtil >= plainUtil {
		t.Errorf("compression did not shrink storage: %.4f vs %.4f", compressedUtil, plainUtil)
	}
}

// TestCompressionSurvivesMaintenance: compressed entries migrate, repair,
// and version-bump without corruption.
func TestCompressionSurvivesMaintenance(t *testing.T) {
	opt := small32()
	opt.Backend.CompressThreshold = 128
	c := newTestCell(t, opt)
	ctx := context.Background()
	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
	val := bytes.Repeat([]byte("zip"), 1000)
	for i := 0; i < 20; i++ {
		if err := cl.Set(ctx, []byte(fmt.Sprintf("c%d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	// Crash + restart: repairs stream values and re-install them.
	c.Crash(2)
	if err := c.Restart(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// Migration to a spare and back.
	primary := c.Store.Get().AddrFor(0)
	if _, err := c.PlannedMaintenance(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CompleteMaintenance(ctx, 0, primary); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, found, err := cl.Get(ctx, []byte(fmt.Sprintf("c%d", i)))
		if err != nil || !found || !bytes.Equal(got, val) {
			t.Fatalf("c%d after maintenance: found=%v err=%v len=%d", i, found, err, len(got))
		}
	}
}

// TestImmutableR2 exercises §6.4: a bulk-loaded, sealed corpus serves GETs
// from a single replica, fails over to the second when the first dies,
// and rejects all client mutations.
func TestImmutableR2(t *testing.T) {
	opt := small32()
	opt.Mode = config.R2Immutable
	c := newTestCell(t, opt)
	ctx := context.Background()

	corpus := map[string][]byte{}
	for i := 0; i < 40; i++ {
		corpus[fmt.Sprintf("imm%d", i)] = []byte(fmt.Sprintf("val%d", i))
	}
	if err := c.LoadImmutable(ctx, corpus); err != nil {
		t.Fatal(err)
	}

	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
	for k, want := range corpus {
		got, found, err := cl.Get(ctx, []byte(k))
		if err != nil || !found || !bytes.Equal(got, want) {
			t.Fatalf("%s: %q %v %v", k, got, found, err)
		}
	}

	// Mutations are rejected on a sealed cell.
	if err := cl.Set(ctx, []byte("imm0"), []byte("tamper")); err == nil {
		t.Error("SET accepted on sealed corpus")
	}
	if err := cl.Erase(ctx, []byte("imm0")); err == nil {
		t.Error("ERASE accepted on sealed corpus")
	}
	if got, _, _ := cl.Get(ctx, []byte("imm0")); !bytes.Equal(got, corpus["imm0"]) {
		t.Error("sealed value changed")
	}

	// Single-backend failure: the second replica serves (§6.4 tolerates
	// single-backend failures).
	c.Crash(0)
	served := 0
	for k, want := range corpus {
		got, found, err := cl.Get(ctx, []byte(k))
		if err == nil && found && bytes.Equal(got, want) {
			served++
		}
	}
	if served != len(corpus) {
		t.Errorf("with one replica down, served %d/%d", served, len(corpus))
	}
}

// TestBrownoutHealRestoresHandlerCost: a brownout adds its delay to the
// handler cost every replica's server bills a SET and a GET, and its heal
// restores that cost rather than zeroing it.
func TestBrownoutHealRestoresHandlerCost(t *testing.T) {
	c := newTestCell(t, small32())
	cl := c.NewClient(client.Options{Strategy: client.StrategyRPC})
	ctx := context.Background()
	key := []byte("k")
	// serverArg is the handler cost one op's server spans carry.
	serverArg := func(op string, tr fabric.OpTrace, err error) uint32 {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		var args []uint32
		for _, sp := range tr.Spans {
			if sp.Code == trace.SpanRPCServer {
				args = append(args, sp.Arg)
			}
		}
		if len(args) == 0 || slices.Min(args) != slices.Max(args) {
			t.Fatalf("%s: server span args %v, want one cost", op, args)
		}
		return args[0]
	}
	costs := func() (set, get uint32) {
		_, tr, err := cl.SetVersionedTraced(ctx, key, []byte("v"))
		set = serverArg("SET", tr, err)
		_, _, tr, err = cl.GetTraced(ctx, key)
		return set, serverArg("GET", tr, err)
	}

	baseSet, baseGet := costs()
	if baseSet == 0 || baseGet == 0 {
		t.Fatalf("handler costs SET %d GET %d, want both billed", baseSet, baseGet)
	}
	const delay = 5000
	ev := chaos.Event{Hazard: chaos.HazardBrownout, Shard: -1, Delay: delay}
	if err := c.Chaos().Inject(ctx, ev); err != nil {
		t.Fatal(err)
	}
	if set, get := costs(); set != baseSet+delay || get != baseGet+delay {
		t.Errorf("browned out: SET %d GET %d, want %d and %d", set, get, baseSet+delay, baseGet+delay)
	}
	if err := c.Chaos().Heal(ctx, ev); err != nil {
		t.Fatal(err)
	}
	if set, get := costs(); set != baseSet || get != baseGet {
		t.Errorf("healed: SET %d GET %d, want %d and %d", set, get, baseSet, baseGet)
	}
}

// TestImmutableR2SingleReplicaTraffic: most R=2 GETs touch one replica,
// not two — roughly half the index-fetch traffic of a quorum read.
func TestImmutableR2SingleReplicaTraffic(t *testing.T) {
	opt := small32()
	opt.Mode = config.R2Immutable
	c := newTestCell(t, opt)
	ctx := context.Background()
	if err := c.LoadImmutable(ctx, map[string][]byte{"k": []byte("v")}); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
	var before uint64
	for _, b := range c.Nodes() {
		before += b.CountersSnapshot().Gets
	}
	const gets = 50
	for i := 0; i < gets; i++ {
		if _, found, err := cl.Get(ctx, []byte("k")); err != nil || !found {
			t.Fatal(found, err)
		}
	}
	// RMA GETs don't touch backend counters at all; what we can assert is
	// cheaper: the op's byte traffic. One replica consulted ⇒ roughly one
	// bucket per GET rather than two.
	_, _, tr, err := cl.GetTraced(ctx, []byte("k"))
	if err != nil {
		t.Fatal(err)
	}
	bucket := uint64(opt.Backend.Geometry.BucketSize())
	if tr.Bytes > bucket+2048 {
		t.Errorf("R=2 GET moved %d bytes; single-replica read should be ~1 bucket (%d) + data", tr.Bytes, bucket)
	}
	_ = before
}

// TestQuorumRepairClearsDirtyQuorums builds dirty quorums by hand (a key
// applied on only two of three replicas — what §5.4 attributes to task
// failures, uncoordinated eviction, and RPC failures) and verifies that
// one repair sweep settles all replicas on a single VersionNumber.
func TestQuorumRepairClearsDirtyQuorums(t *testing.T) {
	c := newTestCell(t, small32())
	ctx := context.Background()
	cl := c.NewClient(client.Options{})

	// A healthy key for contrast.
	if err := cl.Set(ctx, []byte("healthy"), []byte("h")); err != nil {
		t.Fatal(err)
	}

	// Dirty quorum: install on just two replicas of the cohort.
	key := []byte("dirty-key")
	cfg := c.Store.Get()
	cohort := cfg.Cohort(primaryShard(c, key))
	gen := c.Clock
	_ = gen
	v := cl.Config() // silence; version comes from a direct generator below
	_ = v
	ver := truetimeVersionForTest()
	for _, shard := range cohort[:2] {
		if applied, _, _ := c.Backend(shard).ApplySet(key, []byte("dv"), ver); !applied {
			t.Fatal("setup apply rejected")
		}
	}

	agreeCount := func() int {
		versions := map[string]int{}
		for _, shard := range cohort {
			resp, err := c.Backend(shard).HandleMsg(proto.GetReq{Key: key}.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			g, _ := proto.UnmarshalGetResp(resp)
			if g.Found {
				versions[g.Version.String()]++
			} else {
				versions["absent"]++
			}
		}
		max := 0
		for _, n := range versions {
			if n > max {
				max = n
			}
		}
		return max
	}
	if agreeCount() == 3 {
		t.Fatal("setup failed: quorum not dirty")
	}

	repaired, err := c.RepairAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if repaired == 0 {
		t.Fatal("repair sweep found nothing")
	}
	if agreeCount() != 3 {
		t.Error("replicas still disagree after repair")
	}
	// The repaired value is intact and quorum-readable.
	got, found, err := cl.Get(ctx, key)
	if err != nil || !found || !bytes.Equal(got, []byte("dv")) {
		t.Errorf("after repair: %q %v %v", got, found, err)
	}
	// A second sweep is a no-op: repair converges.
	again, err := c.RepairAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Errorf("repair did not converge: second sweep fixed %d more", again)
	}
}

func truetimeVersionForTest() truetime.Version {
	return truetime.Version{Micros: time.Now().UnixMicro() + 1_000_000, ClientID: 7, Seq: 1}
}

// TestWANClient exercises Table 1's WAN access path: a remote-region
// client reaches the cell purely over RPC, works correctly, and pays the
// WAN distance on every op.
func TestWANClient(t *testing.T) {
	c := newTestCell(t, small32()) // one client host: local and WAN clients share it
	ctx := context.Background()

	local := c.NewClient(client.Options{Strategy: client.StrategySCAR})
	wan := c.NewWANClient(client.Options{}, 30*time.Millisecond)

	if err := wan.Set(ctx, []byte("wk"), []byte("wv")); err != nil {
		t.Fatal(err)
	}
	got, found, err := wan.Get(ctx, []byte("wk"))
	if err != nil || !found || !bytes.Equal(got, []byte("wv")) {
		t.Fatalf("wan get: %q %v %v", got, found, err)
	}
	// The corpus is shared: the local client sees WAN-written data.
	got, found, err = local.Get(ctx, []byte("wk"))
	if err != nil || !found || !bytes.Equal(got, []byte("wv")) {
		t.Fatalf("local get of wan write: %q %v %v", got, found, err)
	}
	// WAN latency dominates: the op's modelled latency carries the 30ms.
	// (histogram buckets report lower bounds with ≤6.25% error)
	if p50 := wan.M.GetLatency.Percentile(50); p50 < 28_000_000 {
		t.Errorf("wan GET p50 = %dns, want >= one-way WAN latency", p50)
	}
	if localP50 := local.M.GetLatency.Percentile(50); localP50 > 1_000_000 {
		t.Errorf("local client affected by WAN latency: p50 = %dns", localP50)
	}
}

// TestStatsRPC exercises the post-launch Stats method (§6-style additive
// evolution): new clients can introspect backends; the data matches the
// backend's own counters.
func TestStatsRPC(t *testing.T) {
	c := newTestCell(t, small32())
	ctx := context.Background()
	cl := c.NewClient(client.Options{})
	for i := 0; i < 10; i++ {
		cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	rpcc := c.Net.Client(0, "ops-dashboard")
	resp, _, err := rpcc.Call(ctx, "backend-1", proto.MethodStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := proto.UnmarshalStatsResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shard != 1 || st.Sealed {
		t.Errorf("stats: %+v", st)
	}
	if st.ResidentKeys != 10 || st.Sets != 10 {
		t.Errorf("stats counters: resident=%d sets=%d", st.ResidentKeys, st.Sets)
	}
	if st.MemoryBytes == 0 {
		t.Error("stats memory zero")
	}
}

// TestCellACL: per-RPC ACLs (Table 1) gate the whole service surface.
func TestCellACL(t *testing.T) {
	opt := small32()
	opt.ACL = func(principal, method string) error {
		if method == proto.MethodSet && principal != "client-writer" {
			return fmt.Errorf("principal %q may not SET", principal)
		}
		return nil
	}
	c, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	reader := c.Net.Client(0, "client-reader")
	writer := c.Net.Client(0, "client-writer")
	req := proto.SetReq{Key: []byte("k"), Value: []byte("v"), Version: truetimeVersionForTest()}.Marshal()
	if _, _, err := reader.Call(ctx, "backend-0", proto.MethodSet, req); err == nil {
		t.Error("unauthorized SET accepted")
	}
	if _, _, err := writer.Call(ctx, "backend-0", proto.MethodSet, req); err != nil {
		t.Errorf("authorized SET rejected: %v", err)
	}
	// Reads remain open to both.
	if _, _, err := reader.Call(ctx, "backend-0", proto.MethodGet, proto.GetReq{Key: []byte("k")}.Marshal()); err != nil {
		t.Errorf("read blocked: %v", err)
	}
}

// TestClientResilientToTransientRPCFailures: sporadic RPC drops (a §5.4
// dirty-quorum source) are absorbed by client retries — mutations still
// reach a write quorum and reads keep answering.
func TestClientResilientToTransientRPCFailures(t *testing.T) {
	c := newTestCell(t, small32())
	ctx := context.Background()
	// 20% of RPCs to backend-1 fail transiently.
	c.BackendByAddr("backend-1").Server().SetFailRate(0.2, 42)

	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
	okSets := 0
	for i := 0; i < 60; i++ {
		if err := cl.Set(ctx, []byte(fmt.Sprintf("t%d", i)), []byte("v")); err == nil {
			okSets++
		}
	}
	// Quorum (2/3) tolerates one flaky member entirely.
	if okSets != 60 {
		t.Errorf("only %d/60 SETs reached a write quorum", okSets)
	}
	for i := 0; i < 60; i++ {
		got, found, err := cl.Get(ctx, []byte(fmt.Sprintf("t%d", i)))
		if err != nil || !found || string(got) != "v" {
			t.Fatalf("t%d: %q %v %v", i, got, found, err)
		}
	}
	// The flaky backend missed some SETs: dirty quorums exist. A repair
	// sweep (run by a healthy member) heals them.
	c.BackendByAddr("backend-1").Server().SetFailRate(0, 0)
	repaired, err := c.RepairAll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("repaired %d dirty quorums caused by transient RPC failures", repaired)
	if again, _ := c.RepairAll(ctx); again != 0 {
		t.Errorf("repair not converged: %d more", again)
	}
}

// TestTouchFeedbackKeepsHotKeys closes the §4.2 loop end-to-end: clients
// report touches, backends ingest them into LRU, and capacity evictions
// then prefer cold keys — the hot key survives pressure.
func TestTouchFeedbackKeepsHotKeys(t *testing.T) {
	opt := small32()
	opt.Backend.DataBytes = 128 << 10
	opt.Backend.DataMaxBytes = 128 << 10 // fixed: force capacity evictions
	opt.Backend.SlabBytes = 16 << 10
	opt.Backend.ReshapeEnabled = false
	opt.Backend.Policy = "lru"
	c := newTestCell(t, opt)
	ctx := context.Background()
	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR, TouchBatch: 4})

	hot := []byte("hot-key")
	if err := cl.Set(ctx, hot, bytes.Repeat([]byte{1}, 2000)); err != nil {
		t.Fatal(err)
	}
	// Interleave cold inserts with hot-key reads (each read reports
	// touches, keeping the hot key at the LRU front).
	val := bytes.Repeat([]byte{2}, 2000)
	for i := 0; i < 120; i++ {
		if err := cl.Set(ctx, []byte(fmt.Sprintf("cold%d", i)), val); err != nil {
			t.Fatal(err)
		}
		if _, found, err := cl.Get(ctx, hot); err != nil || !found {
			t.Fatalf("hot key evicted at step %d (err=%v)", i, err)
		}
	}
	agg := c.AggregateCounters()
	if agg.CapacityEvictions == 0 {
		t.Fatal("no capacity pressure; test ineffective")
	}
	if agg.Touches == 0 {
		t.Fatal("no touches ingested; feedback loop broken")
	}
}

// TestTCPGatewayFullProtocol drives the complete CliqueMap protocol from
// outside the cell's address space: an external caller over a real TCP
// socket discovers the shard map, writes to every replica with a
// client-nominated version, and reads back with a version quorum.
func TestTCPGatewayFullProtocol(t *testing.T) {
	c := newTestCell(t, small32())
	gw, err := c.ServeTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	tc, err := rpc.DialTCP(gw.Addr(), "external-process")
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	ctx := context.Background()

	// Discover the cell.
	raw, _, err := tc.Call(ctx, "backend-0", proto.MethodConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := proto.UnmarshalConfigResp(raw)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Replicas != 3 || cfg.Quorum != 2 || len(cfg.ShardAddrs) != 3 {
		t.Fatalf("config: %+v", cfg)
	}

	// Write: SET to the key's whole cohort at one nominated version.
	key := []byte("tcp-key")
	h := hashring.DefaultHash(key)
	primary := int(h.Hi % uint64(len(cfg.ShardAddrs)))
	ver := truetimeVersionForTest()
	acks := 0
	for i := 0; i < cfg.Replicas; i++ {
		addr := cfg.ShardAddrs[(primary+i)%len(cfg.ShardAddrs)]
		resp, _, cerr := tc.Call(ctx, addr, proto.MethodSet,
			proto.SetReq{Key: key, Value: []byte("tcp-value"), Version: ver}.Marshal())
		if cerr != nil {
			continue
		}
		if mr, merr := proto.UnmarshalMutateResp(resp); merr == nil && mr.Applied {
			acks++
		}
	}
	if acks < cfg.Quorum {
		t.Fatalf("write quorum not reached: %d acks", acks)
	}

	// Read: quorum on versions across replicas.
	votes := map[string]int{}
	var value []byte
	for i := 0; i < cfg.Replicas; i++ {
		addr := cfg.ShardAddrs[(primary+i)%len(cfg.ShardAddrs)]
		resp, _, cerr := tc.Call(ctx, addr, proto.MethodGet, proto.GetReq{Key: key}.Marshal())
		if cerr != nil {
			continue
		}
		g, gerr := proto.UnmarshalGetResp(resp)
		if gerr != nil || !g.Found {
			continue
		}
		votes[g.Version.String()]++
		if votes[g.Version.String()] >= cfg.Quorum {
			value = g.Value
		}
	}
	if !bytes.Equal(value, []byte("tcp-value")) {
		t.Fatalf("quorum read over TCP got %q (votes %v)", value, votes)
	}

	// The in-process view agrees.
	local := c.NewClient(client.Options{})
	got, found, err := local.Get(ctx, key)
	if err != nil || !found || !bytes.Equal(got, []byte("tcp-value")) {
		t.Fatalf("local view: %q %v %v", got, found, err)
	}
}

// TestAggregateCountersCountsCorruptPurges: a checksum purge on one task
// shows up in the cell-wide sum (AggregateCounters used to add Counters'
// fields by hand and had dropped this one).
func TestAggregateCountersCountsCorruptPurges(t *testing.T) {
	c := newTestCell(t, small32())
	cl := c.NewClient(client.Options{})
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	damaged := len(c.CorruptData(0, 3, 1))
	if damaged == 0 {
		t.Fatal("nothing corrupted; test ineffective")
	}
	c.Backend(0).Items(-1, 0) // the corpus walk quarantines what fails its checksum
	if got := c.AggregateCounters().CorruptPurged; got != uint64(damaged) {
		t.Errorf("AggregateCounters().CorruptPurged = %d, want %d", got, damaged)
	}
}
