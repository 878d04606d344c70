package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/onerma"
	"cliquemap/internal/pony"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/stats"
	"cliquemap/internal/truetime"
)

// rig assembles a 3-backend cell (R=3.2 unless built by newRigMode) by
// hand (without internal/core/cell, which has its own tests) so client
// behaviours can be probed in isolation.
type rig struct {
	f        *fabric.Fabric
	net      *rpc.Network
	store    *config.Store
	backends []*backend.Backend
	regs     []*rmem.Registry
	nics     []*pony.NIC
	acct     *stats.CPUAccount
	clock    *truetime.SystemClock
}

const clientHost = 3

func newRig(t testing.TB) *rig { return newRigOn(t, fabric.Params{}) }

func newRigOn(t testing.TB, p fabric.Params) *rig { return newRigMode(t, p, config.R32) }

// newRigMode builds the rig in mode; each tweak edits every backend's options.
func newRigMode(t testing.TB, p fabric.Params, mode config.Mode, tweaks ...func(*backend.Options)) *rig {
	t.Helper()
	r := &rig{
		f:     fabric.New(5, p),
		acct:  stats.NewCPUAccount(),
		clock: truetime.NewSystemClock(),
	}
	r.net = rpc.NewNetwork(r.f, rpc.CostModel{}, r.acct)
	cfg := config.CellConfig{Mode: mode, Shards: 3}
	for i := 0; i < 3; i++ {
		cfg.ShardAddrs = append(cfg.ShardAddrs, fmt.Sprintf("b%d", i))
		cfg.Backends = append(cfg.Backends, config.BackendInfo{Shard: i, Addr: fmt.Sprintf("b%d", i), HostID: i})
	}
	r.store = config.NewStore(cfg)
	for i := 0; i < 3; i++ {
		reg := rmem.NewRegistry()
		opt := backend.Options{
			Shard: i, HostID: i, Addr: fmt.Sprintf("b%d", i),
			Geometry:       layout.Geometry{Buckets: 32, Ways: 8},
			DataBytes:      1 << 20,
			DataMaxBytes:   4 << 20,
			SlabBytes:      64 << 10,
			ReshapeEnabled: true,
		}
		for _, tw := range tweaks {
			tw(&opt)
		}
		b, err := backend.New(opt, r.store, reg, r.net, truetime.NewGenerator(r.clock, uint64(100+i)), r.acct)
		if err != nil {
			t.Fatal(err)
		}
		n := pony.New(r.f.Host(i), reg, pony.CostModel{}, pony.EngineConfig{}, r.acct)
		n.SetMsgHandler(b.HandleMsg)
		r.backends = append(r.backends, b)
		r.regs = append(r.regs, reg)
		r.nics = append(r.nics, n)
	}
	return r
}

func (r *rig) newClient(opt Options) *Client { return r.newClientAt(opt, r.f.NowNs) }

// newClientAt builds a client on the given virtual clock; nil leaves its
// legs unpinned.
func (r *rig) newClientAt(opt Options, now NowFunc) *Client {
	return r.newClientVia(opt, now, r.net.Client(clientHost, "test"))
}

// newClientVia is newClientAt with every RPC made through rpcc.
func (r *rig) newClientVia(opt Options, now NowFunc, rpcc rpc.Caller) *Client {
	opt.HostID = clientHost
	local := pony.New(r.f.Host(clientHost), nil, pony.CostModel{}, pony.EngineConfig{}, r.acct)
	dial := func(host int) nic.RMA {
		return pony.Dial(r.f, local, r.nics[host])
	}
	msg := func(host int, at uint64, req []byte) ([]byte, fabric.OpTrace, error) {
		return pony.Dial(r.f, local, r.nics[host]).Message(at, req)
	}
	return New(opt, r.store, rpcc, r.clock, dial, msg, now, r.acct)
}

// newClient1RMA builds a client reaching the rig's backends through
// fixed-function 1RMA NICs over the same registered memory: plain Reads
// only, no ScanAndRead, no NIC messaging.
func (r *rig) newClient1RMA(opt Options) *Client {
	opt.HostID = clientHost
	local := onerma.New(r.f.Host(clientHost), nil, onerma.CostModel{}, r.acct, nil)
	dial := func(host int) nic.RMA {
		return onerma.Dial(r.f, local, onerma.New(r.f.Host(host), r.regs[host], onerma.CostModel{}, r.acct, nil))
	}
	return New(opt, r.store, r.net.Client(clientHost, "test"), r.clock, dial, nil, r.f.NowNs, r.acct)
}

// newClientTCP builds the client of an out-of-process caller: everything it
// does is an RPC framed over one loopback connection to a gateway on the
// rig's network. No NIC, no tracer.
func (r *rig) newClientTCP(t testing.TB, opt Options) *Client {
	gw, err := rpc.ServeTCP(r.net, "127.0.0.1:0", clientHost)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	conn, err := rpc.DialTCP(gw.Addr(), "test")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return New(opt, r.store, conn, r.clock, nil, nil, nil, nil)
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{Strategy2xR: "2xR", StrategySCAR: "SCAR", StrategyMSG: "MSG", StrategyRPC: "RPC"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%v.String() = %q", s, s.String())
		}
	}
}

func TestBasicOps(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR})
	ctx := context.Background()
	if err := cl.Set(ctx, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	got, found, err := cl.Get(ctx, []byte("a"))
	if err != nil || !found || string(got) != "1" {
		t.Fatalf("get: %q %v %v", got, found, err)
	}
	if cl.M.Gets.Value() != 1 || cl.M.Hits.Value() != 1 || cl.M.Sets.Value() != 1 {
		t.Errorf("metrics: gets=%d hits=%d sets=%d", cl.M.Gets.Value(), cl.M.Hits.Value(), cl.M.Sets.Value())
	}
	if cl.M.GetLatency.Count() != 1 {
		t.Error("latency not recorded")
	}
}

// TestPreferredBackendAvoidsLoaded is the Figure 11 mechanism: under an
// antagonist, the data fetch should come from an unloaded replica, keeping
// latency near the no-load baseline.
func TestPreferredBackendAvoidsLoaded(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR})
	ctx := context.Background()
	key := []byte("hot-key")
	if err := cl.Set(ctx, key, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	// Baseline median.
	var base []uint64
	for i := 0; i < 60; i++ {
		_, _, tr, err := cl.GetTraced(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, tr.Ns)
	}
	// Load one replica's host heavily.
	r.f.Host(0).SetExternalLoad(0.95)
	var loaded []uint64
	for i := 0; i < 60; i++ {
		_, _, tr, err := cl.GetTraced(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		loaded = append(loaded, tr.Ns)
	}
	if med(loaded) > 3*med(base) {
		t.Errorf("R=3.2 median under single-host load %dns vs baseline %dns: preferred backend not avoiding the antagonist", med(loaded), med(base))
	}
}

func med(xs []uint64) uint64 {
	s := append([]uint64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// TestTwoCrashedReplicasSurfaceInquorate: with two of three backends
// crashed no attempt, the final RPC one included, gathers a quorum, so
// the default client reports ErrInquorate rather than one replica's answer.
func TestTwoCrashedReplicasSurfaceInquorate(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR, Retries: 1})
	ctx := context.Background()
	cl.Set(ctx, []byte("k"), []byte("v"))
	for i := 0; i < 2; i++ {
		r.backends[i].Server().Stop()
		r.nics[i].SetDown(true)
	}
	if _, _, err := cl.Get(ctx, []byte("k")); !errors.Is(err, ErrInquorate) {
		t.Fatalf("get with 2/3 backends down: err=%v, want ErrInquorate", err)
	}
	if cl.M.Inquorate.Value() != 1 || cl.M.RPCFallbacks.Value() != 0 {
		t.Errorf("inquorate=%d rpc fallbacks=%d, want 1 and 0", cl.M.Inquorate.Value(), cl.M.RPCFallbacks.Value())
	}
}

// TestRPCFallbackServesWithOneReplica: with two replicas' NICs down and
// their RPC servers up, every one-sided attempt is inquorate and the final
// attempt serves the value over RPC.
func TestRPCFallbackServesWithOneReplica(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR})
	ctx := context.Background()
	cl.Set(ctx, []byte("k"), []byte("v"))
	for i := 0; i < 2; i++ {
		r.nics[i].SetDown(true)
	}
	got, found, err := cl.Get(ctx, []byte("k"))
	if err != nil || !found || string(got) != "v" {
		t.Fatalf("fallback get: %q %v %v", got, found, err)
	}
	if cl.M.RPCFallbacks.Value() != 1 {
		t.Errorf("%d fallbacks counted, want 1", cl.M.RPCFallbacks.Value())
	}
}

// staleFirstReplica writes val at a version newer than any client's to
// every replica of key but the first of its read cohort, which keeps the
// acked value: a single-replica read of that member answers stale. It
// returns the stale replica's index.
func staleFirstReplica(t *testing.T, r *rig, key, val []byte) int {
	t.Helper()
	cfg := r.store.Get()
	stale := slices.Index(cfg.ShardAddrs, readRoute(cfg, hashring.DefaultHash(key)).addrs[0])
	newer := truetime.Version{Micros: math.MaxInt64 / 2, ClientID: 99, Seq: 1}
	for i, b := range r.backends {
		if i == stale {
			continue
		}
		if ok, _, _ := b.ApplySet(key, val, newer); !ok {
			t.Fatalf("replica %d refused the newer version", i)
		}
	}
	return stale
}

// TestFallbackReadVotes: the final RPC attempt votes. Replica 0 of the
// key's cohort missed an overwrite; the other two replicas' NICs are down
// (their RPC servers up), so every one-sided attempt is inquorate, and the
// fallback must return the overwrite the two hold, not replica 0's value.
func TestFallbackReadVotes(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR})
	ctx := context.Background()
	key := []byte("fallback-votes")
	if err := cl.Set(ctx, key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	stale := staleFirstReplica(t, r, key, []byte("new"))
	for i := range r.nics {
		r.nics[i].SetDown(i != stale)
	}
	got, found, err := cl.Get(ctx, key)
	if err != nil || !found || string(got) != "new" {
		t.Fatalf("get: %q found=%v err=%v, want the quorate \"new\"", got, found, err)
	}
	if cl.M.RPCFallbacks.Value() != 1 {
		t.Errorf("%d fallbacks counted, want 1", cl.M.RPCFallbacks.Value())
	}
}

// TestOverflowReadVotes: on a miss quorum that saw a bucket's overflow bit
// the client re-asks the cohort over RPC and votes (§4.2). Every key
// hashes to one bucket, so the key lives in each replica's side table, and
// replica 0 of its cohort holds a stale copy there.
func TestOverflowReadVotes(t *testing.T) {
	oneBucket := func(key []byte) hashring.KeyHash {
		h := hashring.DefaultHash(key)
		return hashring.KeyHash{Hi: h.Hi, Lo: h.Lo << 16}
	}
	r := newRigMode(t, fabric.Params{}, config.R32, func(o *backend.Options) {
		o.OverflowFallback, o.Hash = true, oneBucket
	})
	cl := r.newClient(Options{Strategy: Strategy2xR, Hash: oneBucket})
	ctx := context.Background()
	for i := range 8 { // the bucket's ways
		if err := cl.Set(ctx, fmt.Appendf(nil, "filler-%d", i), []byte("f")); err != nil {
			t.Fatal(err)
		}
	}
	key := []byte("overflow-votes")
	if err := cl.Set(ctx, key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	staleFirstReplica(t, r, key, []byte("new"))
	got, found, err := cl.Get(ctx, key)
	if err != nil || !found || string(got) != "new" {
		t.Fatalf("get: %q found=%v err=%v, want the quorate \"new\"", got, found, err)
	}
	if cl.M.RPCFallbacks.Value() != 1 || cl.M.RetryCount() != 0 {
		t.Errorf("%d overflow lookups and %d retries, want 1 and 0", cl.M.RPCFallbacks.Value(), cl.M.RetryCount())
	}
}

func TestWindowRevocationRecovery(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR})
	ctx := context.Background()
	cl.Set(ctx, []byte("k"), []byte("v"))
	if _, found, _ := cl.Get(ctx, []byte("k")); !found {
		t.Fatal("warmup get failed")
	}
	// Force index resizes on every backend by filling them: windows get
	// revoked underneath the client's cached handshakes.
	for i := 0; i < 400; i++ {
		cl.Set(ctx, []byte(fmt.Sprintf("fill-%d", i)), []byte("x"))
	}
	// "k" may have been legitimately evicted by associativity conflicts;
	// the invariant is that the client's answer (after transparent window
	// recovery) matches the replicas' ground truth.
	resident := 0
	for _, b := range r.backends {
		resp, err := b.HandleMsg(proto.GetReq{Key: []byte("k")}.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if g, _ := proto.UnmarshalGetResp(resp); g.Found {
			resident++
		}
	}
	got, found, err := cl.Get(ctx, []byte("k"))
	if err != nil {
		t.Fatalf("get after revocations: %v", err)
	}
	wantFound := resident >= 2
	if found != wantFound {
		t.Fatalf("found=%v but %d/3 replicas hold the key", found, resident)
	}
	if found && string(got) != "v" {
		t.Fatalf("value corrupted: %q", got)
	}
}

func TestScarPiggybacksData(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: StrategySCAR})
	ctx := context.Background()
	cl.Set(ctx, []byte("k"), []byte("scar-value"))
	got, found, tr, err := cl.GetTraced(ctx, []byte("k"))
	if err != nil || !found || string(got) != "scar-value" {
		t.Fatalf("scar get: %q %v %v", got, found, err)
	}
	// SCAR under R=3.2 solicits three full copies: bytes moved must cover
	// at least 3 buckets + 3 data entries (§6.3's incast trade).
	bucketSize := uint64(layout.Geometry{Buckets: 32, Ways: 8}.BucketSize())
	minBytes := 3 * bucketSize // lower bound: three full bucket responses
	if tr.Bytes < minBytes {
		t.Errorf("scar moved only %d bytes", tr.Bytes)
	}
}

func TestMsgStrategyUsesHandler(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: StrategyMSG})
	ctx := context.Background()
	cl.Set(ctx, []byte("k"), []byte("msg-value"))
	got, found, err := cl.Get(ctx, []byte("k"))
	if err != nil || !found || string(got) != "msg-value" {
		t.Fatalf("msg get: %q %v %v", got, found, err)
	}
}

func TestTouchQueueFlushThreshold(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR, TouchBatch: 3})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	for i := 0; i < 3; i++ {
		cl.Get(ctx, []byte(fmt.Sprintf("k%d", i)))
	}
	var touches uint64
	for _, b := range r.backends {
		touches += b.CountersSnapshot().Touches
	}
	if touches == 0 {
		t.Error("touch batch never flushed at threshold")
	}
}

func TestVersionsAscendAcrossClients(t *testing.T) {
	r := newRig(t)
	c1 := r.newClient(Options{ID: 1})
	c2 := r.newClient(Options{ID: 2})
	ctx := context.Background()
	v1, err := c1.SetVersioned(ctx, []byte("k"), []byte("from-c1"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c2.SetVersioned(ctx, []byte("k"), []byte("from-c2"))
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Less(v2) && !v2.Less(v1) {
		t.Error("versions from distinct clients must be comparable and distinct")
	}
	// The later version's value must win on every replica.
	later := "from-c2"
	if v2.Less(v1) {
		later = "from-c1"
	}
	for _, b := range r.backends {
		resp, err := b.HandleMsg(proto.GetReq{Key: []byte("k")}.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		g, _ := proto.UnmarshalGetResp(resp)
		if string(g.Value) != later {
			t.Errorf("replica %s holds %q, want %q", b.Addr(), g.Value, later)
		}
	}
}

func TestClientCPUAccounting(t *testing.T) {
	r := newRig(t)
	cl := r.newClient(Options{Strategy: Strategy2xR})
	ctx := context.Background()
	cl.Set(ctx, []byte("k"), []byte("v"))
	cl.Get(ctx, []byte("k"))
	if r.acct.TotalNanos("client") == 0 {
		t.Error("client CPU not billed")
	}
}

func BenchmarkGet2xR(b *testing.B) {
	r := newRig(b)
	cl := r.newClient(Options{Strategy: Strategy2xR})
	ctx := context.Background()
	cl.Set(ctx, []byte("bench"), make([]byte, 1024))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Get(ctx, []byte("bench")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetSCAR(b *testing.B) {
	r := newRig(b)
	cl := r.newClient(Options{Strategy: StrategySCAR})
	ctx := context.Background()
	cl.Set(ctx, []byte("bench"), make([]byte, 1024))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Get(ctx, []byte("bench")); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDamagedIndexPointerFailsOver: an IndexEntry pointer is RMA-visible
// memory. One replica whose pointer has a flipped size bit (or an offset
// near the top of the address space) must cost that replica's data leg —
// a bounds error under 2×R, a bucket-only response under SCAR — while the
// two healthy quorum members still serve the GET; never a panic or an
// allocation sized by the damage.
func TestDamagedIndexPointerFailsOver(t *testing.T) {
	for _, strat := range []Strategy{Strategy2xR, StrategySCAR} {
		for _, damage := range []struct {
			name string
			mut  func(*layout.Pointer)
		}{
			{"size 1<<40", func(p *layout.Pointer) { p.Size = 1 << 40 }},
			{"offset MaxInt64-8", func(p *layout.Pointer) { p.Offset = math.MaxInt64 - 8 }},
		} {
			t.Run(strat.String()+"/"+damage.name, func(t *testing.T) {
				r := newRig(t)
				cl := r.newClient(Options{Strategy: strat})
				ctx := context.Background()
				key, val := []byte("damaged-ptr"), []byte("still-served")
				if err := cl.Set(ctx, key, val); err != nil {
					t.Fatal(err)
				}
				if _, _, err := cl.Get(ctx, key); err != nil { // caches the handshakes
					t.Fatal(err)
				}
				// Restamp replica 0's slot for key with the damaged pointer.
				h := cl.opt.Hash(key)
				hello := cl.hellos["b0"]
				geo := layout.Geometry{Buckets: hello.Buckets, Ways: hello.Ways}
				idx, err := r.regs[0].Lookup(hello.IndexWindow)
				if err != nil {
					t.Fatal(err)
				}
				off := geo.BucketOffset(int(h.Lo % uint64(geo.Buckets)))
				raw, err := idx.Region.Read(off, geo.BucketSize())
				if err != nil {
					t.Fatal(err)
				}
				e, slot, ok := layout.RawBucket(raw).Find(h)
				if !ok {
					t.Fatal("replica 0 does not hold the key")
				}
				damage.mut(&e.Ptr)
				ie := make([]byte, layout.IndexEntrySize)
				layout.EncodeIndexEntry(ie, e)
				if err := idx.Region.Write(off+layout.SlotOffset(slot), ie); err != nil {
					t.Fatal(err)
				}

				for i := 0; i < 20; i++ { // whichever member answers fastest
					got, found, err := cl.Get(ctx, key)
					if err != nil || !found || string(got) != string(val) {
						t.Fatalf("get %d: %q found=%v err=%v", i, got, found, err)
					}
				}
				if n := cl.M.RetryCount(); n != 0 {
					t.Errorf("%d whole-op retries: a damaged copy costs a failover, not an attempt", n)
				}
			})
		}
	}
}

// slowOrDamagedConn is a replica whose data reads (any Read but a
// bucket's) come back with a flipped bit, or every eighth of them
// slowEvery8 more modelled time: the cases a failover and a hedge exist
// for.
type slowOrDamagedConn struct {
	*pony.Conn
	bucketLen  int
	slowEvery8 uint64
	reads      *int
	flip       bool
}

func (s slowOrDamagedConn) AppendRead(dst []byte, spans []fabric.Span, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	b, tr, err := s.Conn.AppendRead(dst, spans, at, win, off, length)
	if err == nil && length != s.bucketLen {
		if *s.reads++; *s.reads%8 == 0 {
			tr.Ns += s.slowEvery8
		}
		if s.flip {
			b[len(b)-1] ^= 1
		}
	}
	return b, tr, err
}

// TestArenaValuesOutliveHedgesAndFailovers: one replica's data legs are
// now and then a millisecond slow and another's come back damaged, so 2×R GETs are served
// by hedges and by failovers, each leg reading into the op's receive arena
// after the legs before it. Every value returned must still read as it did
// after later GETs have reused the arena. Run with `go test -race
// -count=10 -run TestArenaValuesOutliveHedgesAndFailovers
// ./internal/core/client/`.
func TestArenaValuesOutliveHedgesAndFailovers(t *testing.T) {
	r := newRig(t)
	local := pony.New(r.f.Host(clientHost), nil, pony.CostModel{}, pony.EngineConfig{}, r.acct)
	bucketLen := layout.Geometry{Buckets: 32, Ways: 8}.BucketSize()
	dial := func(host int) nic.RMA {
		c := slowOrDamagedConn{Conn: pony.Dial(r.f, local, r.nics[host]), bucketLen: bucketLen, reads: new(int), flip: host == 1}
		if host == 0 {
			c.slowEvery8 = 1_000_000
		}
		return c
	}
	cl := New(Options{HostID: clientHost, Strategy: Strategy2xR}, r.store, r.net.Client(clientHost, "test"), r.clock, dial, nil, r.f.NowNs, r.acct)
	ctx := context.Background()
	const keys = 16
	want := make([][]byte, keys)
	for k := range want {
		key := fmt.Sprintf("hedged-%02d", k)
		want[k] = bytes.Repeat([]byte(key+"|"), (16<<(k%10))/len(key)+1)
		if err := cl.Set(ctx, []byte(key), want[k]); err != nil {
			t.Fatal(err)
		}
	}
	type held struct {
		k   int
		val []byte
	}
	var kept []held
	for round := 0; round < 20; round++ {
		for k := range want {
			v, found, err := cl.Get(ctx, []byte(fmt.Sprintf("hedged-%02d", k)))
			if err != nil || !found || !bytes.Equal(v, want[k]) {
				t.Fatalf("round %d key %d: %d bytes found=%v err=%v", round, k, len(v), found, err)
			}
			kept = append(kept, held{k, v})
		}
	}
	for i, h := range kept {
		if !bytes.Equal(h.val, want[h.k]) {
			t.Fatalf("GET #%d's value changed under later GETs", i)
		}
	}
	if cl.M.HedgeWins.Value() == 0 || cl.M.Failovers.Value() == 0 {
		t.Errorf("hedge wins %d, failovers %d: both paths must have served", cl.M.HedgeWins.Value(), cl.M.Failovers.Value())
	}
}
