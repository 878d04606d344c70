package backend

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/slab"
	"cliquemap/internal/truetime"
)

type rig struct {
	store *config.Store
	net   *rpc.Network
	clk   *truetime.FakeClock
	gen   *truetime.Generator
	b     *Backend
}

func newRig(t testing.TB, opt Options) *rig {
	t.Helper()
	f := fabric.New(8, fabric.Params{})
	net := rpc.NewNetwork(f, rpc.CostModel{}, nil)
	store := config.NewStore(config.CellConfig{
		Mode: config.R32, Shards: 3,
		ShardAddrs: []string{"b0", "b1", "b2"},
	})
	clk := &truetime.FakeClock{}
	clk.Set(1000)
	gen := truetime.NewGenerator(clk, 99)
	if opt.Addr == "" {
		opt.Addr = "b0"
	}
	b, err := New(opt, store, rmem.NewRegistry(), net, gen, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{store: store, net: net, clk: clk, gen: gen, b: b}
}

func (r *rig) v() truetime.Version {
	r.clk.Advance(1000)
	return r.gen.Next()
}

func TestSetGetRoundTrip(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	v := r.v()
	applied, stored, _ := r.b.ApplySet([]byte("k1"), []byte("v1"), v)
	if !applied || stored != v {
		t.Fatalf("set: applied=%v stored=%v", applied, stored)
	}
	val, ver, found := r.b.get(nil, []byte("k1"))
	if !found || string(val) != "v1" || ver != v {
		t.Errorf("get: %q %v %v", val, ver, found)
	}
	if r.b.Len() != 1 {
		t.Errorf("len = %d", r.b.Len())
	}
}

func TestGetMissing(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	if _, _, found := r.b.get(nil, []byte("nope")); found {
		t.Error("missing key found")
	}
}

// TestDamagedEntryIsNotAMiss: a two-sided lookup of a key whose stored
// entry fails its checksum answers an error, so that replica abstains from
// the client's vote, as a one-sided reader's failed checksum does. A miss
// would vote for the zero version and, beside one other, read an acked key
// as absent.
func TestDamagedEntryIsNotAMiss(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	key := []byte("damaged")
	if applied, _, _ := r.b.ApplySet(key, []byte("stored"), r.v()); !applied {
		t.Fatal("set not applied")
	}
	if damaged := r.b.CorruptEntries(1, 3); len(damaged) != 1 {
		t.Fatalf("corrupted %d entries, want 1", len(damaged))
	}
	resp, err := r.b.HandleMsg(proto.GetReq{Key: key}.Marshal())
	if err == nil {
		g, _ := proto.UnmarshalGetResp(resp)
		t.Fatalf("damaged entry answered found=%v, want an error", g.Found)
	}
	if _, _, found := r.b.get(nil, key); found {
		t.Error("get served a damaged entry")
	}
}

func TestVersionMonotonicity(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	v1 := r.v()
	v2 := r.v()
	// Install at v2 first; v1 must be rejected as stale.
	if applied, _, _ := r.b.ApplySet([]byte("k"), []byte("new"), v2); !applied {
		t.Fatal("v2 set rejected")
	}
	applied, stored, _ := r.b.ApplySet([]byte("k"), []byte("old"), v1)
	if applied {
		t.Error("stale SET applied")
	}
	if stored != v2 {
		t.Errorf("stored = %v, want %v", stored, v2)
	}
	if val, _, _ := r.b.get(nil, []byte("k")); string(val) != "new" {
		t.Errorf("value clobbered: %q", val)
	}
	if r.b.CountersSnapshot().VersionRejects != 1 {
		t.Error("version reject not counted")
	}
}

func TestSetEqualVersionRejected(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	v := r.v()
	r.b.ApplySet([]byte("k"), []byte("a"), v)
	if applied, _, _ := r.b.ApplySet([]byte("k"), []byte("b"), v); applied {
		t.Error("same-version SET applied; must be strictly increasing")
	}
}

func TestEraseAndTombstone(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	v1 := r.v()
	v2 := r.v()
	v3 := r.v()
	r.b.ApplySet([]byte("k"), []byte("v"), v1)
	if applied, _ := r.b.ApplyErase([]byte("k"), v2); !applied {
		t.Fatal("erase rejected")
	}
	if _, _, found := r.b.get(nil, []byte("k")); found {
		t.Error("erased key still resident")
	}
	// Late SET at v1 < tombstone v2 must not resurrect (§5.2).
	if applied, _, _ := r.b.ApplySet([]byte("k"), []byte("zombie"), v1); applied {
		t.Error("late SET resurrected erased value")
	}
	// A genuinely newer SET succeeds.
	if applied, _, _ := r.b.ApplySet([]byte("k"), []byte("fresh"), v3); !applied {
		t.Error("fresh SET after erase rejected")
	}
}

func TestEraseOfAbsentKeyStillTombstones(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	v1 := r.v()
	v2 := r.v()
	_ = v2
	if applied, _ := r.b.ApplyErase([]byte("ghost"), v2); !applied {
		t.Fatal("erase of absent key rejected")
	}
	if applied, _, _ := r.b.ApplySet([]byte("ghost"), []byte("x"), v1); applied {
		t.Error("SET below tombstone of never-present key applied")
	}
}

// TestTombstoneSummaryCoarseButConsistent: after a tombstone overflows
// BOTH the exact cache and the pending-settle queue into the summary,
// SETs below the summary are rejected even for unrelated keys — coarse,
// never inconsistent (§5.2).
func TestTombstoneSummaryCoarseButConsistent(t *testing.T) {
	r := newRig(t, Options{Shard: 0, TombstoneCap: 2})
	vOld := r.v()
	var eraseVs []truetime.Version
	for i := 0; i < 6; i++ {
		eraseVs = append(eraseVs, r.v())
	}
	for i := 0; i < 6; i++ {
		r.b.ApplyErase([]byte(fmt.Sprintf("e%d", i)), eraseVs[i])
	}
	// e0, e1 overflowed the pending queue (cap 2 each stage) into the
	// summary. A SET on e0 below the summary must be rejected.
	if applied, _, _ := r.b.ApplySet([]byte("e0"), []byte("x"), vOld); applied {
		t.Error("SET below summary bound applied")
	}
	// And even an unrelated never-erased key is bounded by the summary —
	// the documented coarseness.
	if applied, _, _ := r.b.ApplySet([]byte("unrelated"), []byte("x"), vOld); applied {
		t.Error("summary coarseness not enforced")
	}
	// New versions beyond the summary proceed.
	if applied, _, _ := r.b.ApplySet([]byte("e0"), []byte("y"), r.v()); !applied {
		t.Error("fresh SET rejected")
	}
}

// TestHeatExcludesReservedNamespaces: probe-canary and federation
// follower-cache keys must never register in the heat sketch — synthetic
// and echoed traffic masquerading as heat would mis-drive the hot-key
// promotion loop.
func TestHeatExcludesReservedNamespaces(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	user := []byte("user-key")
	probe := []byte(layout.ProbeKeyPrefix + "canary")
	tier := []byte(layout.TierKeyPrefix + "remote-key")
	for i := 0; i < 50; i++ {
		r.b.get(nil, user)
		r.b.get(nil, probe)
		r.b.get(nil, tier)
	}
	if got := r.b.Heat().Total(); got != 50 {
		t.Errorf("heat total = %d, want 50 (user accesses only)", got)
	}
	for _, hk := range r.b.Heat().TopN(10) {
		if hk.Key != string(user) {
			t.Errorf("reserved-namespace key %q registered in heat sketch", hk.Key)
		}
	}
}

func TestCas(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	v1 := r.v()
	r.b.ApplySet([]byte("k"), []byte("a"), v1)

	wrong := r.v()
	if applied, stored := r.b.ApplyCas([]byte("k"), []byte("b"), wrong, r.v()); applied {
		t.Errorf("CAS with wrong expectation applied (stored=%v)", stored)
	}
	if applied, _ := r.b.ApplyCas([]byte("k"), []byte("b"), v1, r.v()); !applied {
		t.Error("CAS with correct expectation rejected")
	}
	if val, _, _ := r.b.get(nil, []byte("k")); string(val) != "b" {
		t.Errorf("after CAS: %q", val)
	}
}

// TestCasCountsOnce: an applied CAS moves CasOps, CasApplied and the heat
// total by one and nothing else — it is not also a SET — and a lost CAS
// moves only CasOps and the heat: a failed expectation is no version reject.
func TestCasCountsOnce(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	v1 := r.v()
	r.b.ApplySet([]byte("k"), []byte("a"), v1)
	for _, c := range []struct {
		expected truetime.Version
		applied  bool
	}{{v1, true}, {v1, false}} {
		before, heat := r.b.CountersSnapshot(), r.b.Heat().Total()
		if applied, _ := r.b.ApplyCas([]byte("k"), []byte("b"), c.expected, r.v()); applied != c.applied {
			t.Fatalf("CAS at %v: applied=%v, want %v", c.expected, applied, c.applied)
		}
		want := before
		want.CasOps++
		if c.applied {
			want.CasApplied++
		}
		if got := r.b.CountersSnapshot(); got != want {
			t.Errorf("CAS (applied=%v) moved the counters\n from %+v\n   to %+v\n want %+v", c.applied, before, got, want)
		}
		if got := r.b.Heat().Total() - heat; got != 1 {
			t.Errorf("CAS (applied=%v) heated its key %d times, want 1", c.applied, got)
		}
	}
}

func TestCasOnAbsentKeyZeroExpected(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	if applied, _ := r.b.ApplyCas([]byte("new"), []byte("v"), truetime.Version{}, r.v()); !applied {
		t.Error("CAS(zero) on absent key should create")
	}
}

func TestCapacityEviction(t *testing.T) {
	// Tiny data region, reshaping off: SETs beyond capacity force
	// policy-driven evictions rather than failures.
	r := newRig(t, Options{
		Shard: 0, DataBytes: 64 << 10, DataMaxBytes: 64 << 10, SlabBytes: 16 << 10,
		ReshapeEnabled: false,
	})
	val := make([]byte, 8000)
	for i := 0; i < 30; i++ {
		applied, _, _ := r.b.ApplySet([]byte(fmt.Sprintf("k%d", i)), val, r.v())
		if !applied {
			t.Fatalf("set %d not applied", i)
		}
	}
	c := r.b.CountersSnapshot()
	if c.CapacityEvictions == 0 {
		t.Error("no capacity evictions under pressure")
	}
	if r.b.Len() == 0 || r.b.Len() >= 30 {
		t.Errorf("resident = %d", r.b.Len())
	}
}

func TestDataRegionGrowth(t *testing.T) {
	r := newRig(t, Options{
		Shard: 0, DataBytes: 64 << 10, DataMaxBytes: 1 << 20, SlabBytes: 16 << 10,
		ReshapeEnabled: true,
	})
	before := r.b.MemoryBytes()
	val := make([]byte, 8000)
	for i := 0; i < 60; i++ {
		if applied, _, _ := r.b.ApplySet([]byte(fmt.Sprintf("k%d", i)), val, r.v()); !applied {
			t.Fatalf("set %d failed", i)
		}
	}
	c := r.b.CountersSnapshot()
	if c.DataGrows == 0 {
		t.Error("region never grew")
	}
	if c.CapacityEvictions != 0 {
		t.Error("grew-capable backend evicted instead of growing")
	}
	if r.b.MemoryBytes() <= before {
		t.Error("memory footprint did not expand")
	}
	if r.b.Len() != 60 {
		t.Errorf("resident = %d, want 60 (no evictions)", r.b.Len())
	}
}

func TestPreallocBaselineDoesNotGrow(t *testing.T) {
	r := newRig(t, Options{
		Shard: 0, DataBytes: 64 << 10, DataMaxBytes: 1 << 20,
		SlabBytes: 16 << 10, ReshapeEnabled: false,
	})
	// Baseline provisions for peak immediately.
	if got := r.b.MemoryBytes(); got < 1<<20 {
		t.Errorf("prealloc baseline populated only %d bytes", got)
	}
}

func TestIndexResize(t *testing.T) {
	r := newRig(t, Options{
		Shard:     0,
		Geometry:  layout.Geometry{Buckets: 4, Ways: 4}, // 16 entries
		DataBytes: 1 << 20, DataMaxBytes: 1 << 22, SlabBytes: 64 << 10,
		ReshapeEnabled: true,
	})
	helloBefore := r.b.hello()
	for i := 0; i < 40; i++ {
		if applied, _, _ := r.b.ApplySet([]byte(fmt.Sprintf("key-%d", i)), []byte("v"), r.v()); !applied {
			t.Fatalf("set %d rejected", i)
		}
	}
	c := r.b.CountersSnapshot()
	if c.IndexResizes == 0 {
		t.Fatal("index never resized")
	}
	helloAfter := r.b.hello()
	if helloAfter.Buckets <= helloBefore.Buckets {
		t.Error("bucket count did not grow")
	}
	if helloAfter.IndexWindow == helloBefore.IndexWindow {
		t.Error("index window not re-registered")
	}
	if helloAfter.IndexEpoch <= helloBefore.IndexEpoch {
		t.Error("index epoch did not advance")
	}
	// Old window must be revoked.
	if _, err := r.b.reg.Lookup(helloBefore.IndexWindow); err == nil {
		t.Error("old index window still registered")
	}
	// Every key not legitimately evicted by a pre-resize associativity
	// conflict must survive the resize intact.
	lost := 0
	for i := 0; i < 40; i++ {
		if _, _, found := r.b.get(nil, []byte(fmt.Sprintf("key-%d", i))); !found {
			lost++
		}
	}
	if uint64(lost) != c.AssocEvictions {
		t.Errorf("lost %d keys but only %d associativity evictions", lost, c.AssocEvictions)
	}
	if lost > 5 {
		t.Errorf("resize should make associativity conflicts rare; lost %d/40", lost)
	}
}

func TestAssociativityConflictEvicts(t *testing.T) {
	// One bucket, 2 ways, no overflow: the third key must evict the
	// lowest-versioned entry (§4.2 associativity conflict).
	r := newRig(t, Options{
		Shard:    0,
		Geometry: layout.Geometry{Buckets: 1, Ways: 2},
		// Load factor beyond 1.0 so no resize interferes.
		MaxLoadFactor: 10,
	})
	r.b.ApplySet([]byte("a"), []byte("1"), r.v())
	r.b.ApplySet([]byte("b"), []byte("2"), r.v())
	r.b.ApplySet([]byte("c"), []byte("3"), r.v())
	c := r.b.CountersSnapshot()
	if c.AssocEvictions != 1 {
		t.Errorf("assoc evictions = %d, want 1", c.AssocEvictions)
	}
	// Oldest version ("a") should be gone; b and c remain.
	if _, _, found := r.b.get(nil, []byte("a")); found {
		t.Error("oldest entry survived associativity conflict")
	}
	for _, k := range []string{"b", "c"} {
		if _, _, found := r.b.get(nil, []byte(k)); !found {
			t.Errorf("%s lost", k)
		}
	}
}

func TestOverflowSideTable(t *testing.T) {
	r := newRig(t, Options{
		Shard:            0,
		Geometry:         layout.Geometry{Buckets: 1, Ways: 2},
		MaxLoadFactor:    10,
		OverflowFallback: true,
	})
	r.b.ApplySet([]byte("a"), []byte("1"), r.v())
	r.b.ApplySet([]byte("b"), []byte("2"), r.v())
	r.b.ApplySet([]byte("c"), []byte("3"), r.v())
	c := r.b.CountersSnapshot()
	if c.Overflows != 1 || c.AssocEvictions != 0 {
		t.Errorf("overflows=%d assoc=%d", c.Overflows, c.AssocEvictions)
	}
	// All three keys must be servable (c via the side table).
	for _, k := range []string{"a", "b", "c"} {
		if _, _, found := r.b.get(nil, []byte(k)); !found {
			t.Errorf("%s not servable", k)
		}
	}
	// The bucket must carry the overflow bit for clients.
	raw, err := r.b.idx.Load().region.Read(0, r.b.idx.Load().geo.BucketSize())
	if err != nil {
		t.Fatal(err)
	}
	dec, err := layout.DecodeBucket(raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Flags&layout.OverflowFlag == 0 {
		t.Error("overflow bit not set")
	}
}

func TestSetConfigIDRestampsBuckets(t *testing.T) {
	r := newRig(t, Options{Shard: 0, Geometry: layout.Geometry{Buckets: 4, Ways: 2}})
	r.b.ApplySet([]byte("k"), []byte("v"), r.v())
	r.b.SetConfigID(42)
	for i := 0; i < 4; i++ {
		raw, err := r.b.idx.Load().region.Read(r.b.idx.Load().geo.BucketOffset(i), r.b.idx.Load().geo.BucketSize())
		if err != nil {
			t.Fatal(err)
		}
		dec, err := layout.DecodeBucket(raw, 2)
		if err != nil {
			t.Fatal(err)
		}
		if dec.ConfigID != 42 {
			t.Errorf("bucket %d config id = %d", i, dec.ConfigID)
		}
	}
	// The stored entry survives restamping.
	if _, _, found := r.b.get(nil, []byte("k")); !found {
		t.Error("entry lost in restamp")
	}
}

func TestHelloReflectsState(t *testing.T) {
	r := newRig(t, Options{Shard: 2, Geometry: layout.Geometry{Buckets: 8, Ways: 4}})
	h := r.b.hello()
	if h.Shard != 2 || h.Buckets != 8 || h.Ways != 4 {
		t.Errorf("hello = %+v", h)
	}
	if h.IndexWindow == 0 || len(h.DataWindows) == 0 {
		t.Error("hello missing windows")
	}
	if h.ConfigID != r.store.Get().ID {
		t.Errorf("hello config id = %d", h.ConfigID)
	}
}

func TestRPCServiceSurface(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	client := r.net.Client(7, "test")
	ctx := context.Background()

	// SET over RPC.
	v := r.v()
	resp, _, err := client.Call(ctx, "b0", proto.MethodSet, proto.SetReq{Key: []byte("rk"), Value: []byte("rv"), Version: v}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	mr, err := proto.UnmarshalMutateResp(resp)
	if err != nil || !mr.Applied {
		t.Fatalf("rpc set: %+v %v", mr, err)
	}

	// GET over RPC.
	resp, _, err = client.Call(ctx, "b0", proto.MethodGet, proto.GetReq{Key: []byte("rk")}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	gr, err := proto.UnmarshalGetResp(resp)
	if err != nil || !gr.Found || string(gr.Value) != "rv" {
		t.Fatalf("rpc get: %+v %v", gr, err)
	}

	// Hello over RPC.
	resp, _, err = client.Call(ctx, "b0", proto.MethodHello, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.UnmarshalHelloResp(resp); err != nil {
		t.Fatal(err)
	}

	// Touch over RPC.
	if _, _, err = client.Call(ctx, "b0", proto.MethodTouch, proto.TouchReq{Keys: [][]byte{[]byte("rk")}}.Marshal()); err != nil {
		t.Fatal(err)
	}
	if r.b.CountersSnapshot().Touches != 1 {
		t.Error("touch not ingested")
	}

	// Scan over RPC.
	resp, _, err = client.Call(ctx, "b0", proto.MethodScan, proto.ScanReq{Shard: shardOf(r, "rk"), Limit: 10}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	sr, err := proto.UnmarshalScanResp(resp)
	if err != nil || len(sr.Items) != 1 || string(sr.Items[0].Key) != "rk" {
		t.Fatalf("scan: %+v %v", sr, err)
	}
}

func shardOf(r *rig, key string) int {
	cfg := r.store.Get()
	return int(hashring.DefaultHash([]byte(key)).Hi % uint64(cfg.Shards))
}

func TestHandleMsg(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	r.b.ApplySet([]byte("mk"), []byte("mv"), r.v())
	resp, err := r.b.HandleMsg(proto.GetReq{Key: []byte("mk")}.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	g, err := proto.UnmarshalGetResp(resp)
	if err != nil || !g.Found || string(g.Value) != "mv" {
		t.Fatalf("msg get: %+v %v", g, err)
	}
}

func TestCompactRestartPreservesData(t *testing.T) {
	r := newRig(t, Options{
		Shard: 0, DataBytes: 1 << 20, DataMaxBytes: 4 << 20, SlabBytes: 64 << 10,
		ReshapeEnabled: true,
	})
	keys := map[string]string{}
	for i := 0; i < 50; i++ {
		k, v := fmt.Sprintf("k%d", i), fmt.Sprintf("value-%d", i)
		keys[k] = v
		r.b.ApplySet([]byte(k), []byte(v), r.v())
	}
	before := r.b.MemoryBytes()
	r.b.CompactRestart(0.2)
	after := r.b.MemoryBytes()
	if after >= before {
		t.Errorf("compact did not shrink: %d -> %d", before, after)
	}
	for k, want := range keys {
		val, _, found := r.b.get(nil, []byte(k))
		if !found || string(val) != want {
			t.Errorf("%s lost or corrupted after compaction: %q %v", k, val, found)
		}
	}
}

func TestItemsFiltersByShard(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	cfg := r.store.Get()
	for i := 0; i < 60; i++ {
		r.b.ApplySet([]byte(fmt.Sprintf("k%d", i)), []byte("v"), r.v())
	}
	all := r.b.Items(-1, cfg.Shards)
	if len(all) != 60 {
		t.Fatalf("all items = %d", len(all))
	}
	var sum int
	for s := 0; s < cfg.Shards; s++ {
		sum += len(r.b.Items(s, cfg.Shards))
	}
	if sum != 60 {
		t.Errorf("shard-filtered sum = %d", sum)
	}
}

var _ = bytes.Equal
var _ = slab.ErrNoCapacity
var _ = rmem.ErrRevoked

func TestScanPagination(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	cfg := r.store.Get()
	// Install enough keys for one shard to need multiple pages.
	installed := 0
	for i := 0; installed < 30; i++ {
		k := []byte(fmt.Sprintf("scan-%d", i))
		if int(hashring.DefaultHash(k).Hi%uint64(cfg.Shards)) != 0 {
			continue
		}
		if applied, _, _ := r.b.ApplySet(k, []byte("v"), r.v()); applied {
			installed++
		}
	}
	// Page through with a small limit; every key must appear exactly once.
	seen := map[string]int{}
	cursor := uint64(0)
	pages := 0
	for {
		resp := r.b.scan(protoScan(0, cursor, 7))
		for _, it := range resp.Items {
			seen[string(it.Key)]++
		}
		pages++
		if resp.Done {
			break
		}
		if resp.NextCursor <= cursor && pages > 1 {
			t.Fatal("cursor did not advance")
		}
		cursor = resp.NextCursor
		if pages > 100 {
			t.Fatal("pagination never terminated")
		}
	}
	if pages < 2 {
		t.Fatalf("limit 7 with %d keys should paginate (pages=%d)", installed, pages)
	}
	if len(seen) != installed {
		t.Errorf("scanned %d distinct keys, want %d", len(seen), installed)
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("%s appeared %d times", k, n)
		}
	}
}

func protoScan(shard int, cursor uint64, limit int) proto.ScanReq {
	return proto.ScanReq{Shard: shard, Cursor: cursor, Limit: limit}
}

func TestStatsHandlerDirect(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	r.b.ApplySet([]byte("k"), []byte("v"), r.v())
	client := r.net.Client(7, "t")
	resp, _, err := client.Call(context.Background(), "b0", proto.MethodStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := proto.UnmarshalStatsResp(resp)
	if err != nil || st.Sets != 1 || st.ResidentKeys != 1 {
		t.Errorf("stats: %+v %v", st, err)
	}
}

func TestSealRejectsMutations(t *testing.T) {
	r := newRig(t, Options{Shard: 0})
	r.b.ApplySet([]byte("k"), []byte("v"), r.v())
	r.b.Seal()
	if !r.b.Sealed() {
		t.Fatal("Sealed() false")
	}
	client := r.net.Client(7, "t")
	ctx := context.Background()
	if _, _, err := client.Call(ctx, "b0", proto.MethodSet, proto.SetReq{Key: []byte("k"), Value: []byte("x"), Version: r.v()}.Marshal()); err == nil {
		t.Error("sealed backend accepted SET")
	}
	// Repair-flagged SETs stay open (quorum repair must work on immutable
	// corpora too).
	if _, _, err := client.Call(ctx, "b0", proto.MethodSet, proto.SetReq{Key: []byte("k2"), Value: []byte("x"), Version: r.v(), Repair: true}.Marshal()); err != nil {
		t.Errorf("repair SET rejected on sealed backend: %v", err)
	}
	// Reads unaffected.
	if _, _, err := client.Call(ctx, "b0", proto.MethodGet, proto.GetReq{Key: []byte("k")}.Marshal()); err != nil {
		t.Errorf("read on sealed backend: %v", err)
	}
}

// TestCountersAddSumsEveryField fills every field of two snapshots by
// reflection and checks every field of their sum, so a field added to
// Counters and not to Add fails here by name.
func TestCountersAddSumsEveryField(t *testing.T) {
	var a, b Counters
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(uint64(i + 1))
		bv.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	a.Add(b)
	for i := 0; i < av.NumField(); i++ {
		if got, want := av.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("Counters.Add: %s = %d, want %d", av.Type().Field(i).Name, got, want)
		}
	}
}

// TestCountersReachStats sets each Counters field alone and expects the
// Stats snapshot built from it to differ from the empty one, so a counter
// added to Counters and carried nowhere — invisible to every operator
// surface, as CorruptPurged was — fails here by name, unless it is listed
// with the reason it stays in the process.
func TestCountersReachStats(t *testing.T) {
	stays := map[string]string{
		"SetsApplied":   "read in-process (bench's backend.sets_applied_ratio, the mutation tests); VersionRejects is the operator's view of the attempted/applied gap",
		"ErasesApplied": "as SetsApplied",
		"CasApplied":    "as SetsApplied; a lost CAS is a result the client sees, not an operator signal",
	}
	typ := reflect.TypeOf(Counters{})
	for i := 0; i < typ.NumField(); i++ {
		var c Counters
		reflect.ValueOf(&c).Elem().Field(i).SetUint(1)
		name := typ.Field(i).Name
		reached := !reflect.DeepEqual(c.stats(), proto.StatsResp{})
		switch _, listed := stays[name]; {
		case reached && listed:
			t.Errorf("Counters.%s reaches StatsResp but is still listed as staying in-process", name)
		case !reached && !listed:
			t.Errorf("Counters.%s reaches no StatsResp field: carry it in Counters.stats or list why not", name)
		}
	}
}
