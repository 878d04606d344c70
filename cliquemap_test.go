package cliquemap

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cliquemap/internal/core/client"
	"cliquemap/internal/core/proto"
)

func newCell(t *testing.T, opt Options) *Cell {
	t.Helper()
	c, err := NewCell(opt)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPublicAPIQuickstart(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Spares: 1, Mode: R32})
	cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	ctx := context.Background()

	if err := cl.Set(ctx, []byte("greeting"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get(ctx, []byte("greeting"))
	if err != nil || !ok || string(v) != "hello" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := cl.Erase(ctx, []byte("greeting")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.Get(ctx, []byte("greeting")); ok {
		t.Error("erased key still visible")
	}
	st := cl.Stats()
	if st.Gets != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("client stats: %+v", st)
	}
}

func TestPublicCas(t *testing.T) {
	c := newCell(t, Options{})
	cl := c.NewClient(ClientOptions{})
	ctx := context.Background()
	v1, err := cl.SetVersioned(ctx, []byte("counter"), []byte("1"))
	if err != nil {
		t.Fatal(err)
	}
	ok, err := cl.Cas(ctx, []byte("counter"), []byte("2"), v1)
	if err != nil || !ok {
		t.Fatalf("cas: %v %v", ok, err)
	}
	ok, _ = cl.Cas(ctx, []byte("counter"), []byte("3"), v1)
	if ok {
		t.Error("stale cas applied")
	}
}

func TestPublicBatch(t *testing.T) {
	c := newCell(t, Options{})
	cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	ctx := context.Background()
	var keys [][]byte
	for i := 0; i < 10; i++ {
		k := []byte(fmt.Sprintf("b%d", i))
		keys = append(keys, k)
		cl.Set(ctx, k, k)
	}
	vals, found, err := cl.GetBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !found[i] || string(vals[i]) != string(keys[i]) {
			t.Errorf("batch[%d]: %q %v", i, vals[i], found[i])
		}
	}
}

func TestPublicMaintenanceFlow(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Spares: 1})
	cl := c.NewClient(ClientOptions{})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	primary := c.Internal().Store.Get().AddrFor(1)
	if _, err := c.PlannedMaintenance(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Get(ctx, []byte("k3")); err != nil || !ok {
		t.Fatalf("get during maintenance: %v %v", ok, err)
	}
	if err := c.CompleteMaintenance(ctx, 1, primary); err != nil {
		t.Fatal(err)
	}
}

func TestPublicCrashRestart(t *testing.T) {
	c := newCell(t, Options{})
	cl := c.NewClient(ClientOptions{})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	c.Crash(0)
	if _, ok, err := cl.Get(ctx, []byte("k1")); err != nil || !ok {
		t.Fatalf("get with shard down: %v %v", ok, err)
	}
	if err := c.Restart(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if c.Stats().RepairsIssued == 0 {
		t.Error("restart did not repair")
	}
}

// TestRestartLeavesNoGoroutines: a replaced task's RPC server must not
// strand anything — handlers run on their callers, so crash/restart cycles
// with traffic between leave the goroutine count where it was.
func TestRestartLeavesNoGoroutines(t *testing.T) {
	c := newCell(t, Options{Shards: 3})
	cl := c.NewClient(ClientOptions{})
	ctx := context.Background()
	traffic := func() {
		for i := 0; i < 50; i++ {
			if err := cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	traffic()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		c.Crash(i % 3)
		if err := c.Restart(ctx, i%3); err != nil {
			t.Fatal(err)
		}
		traffic()
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("20 crash/restart cycles: %d goroutines, %d before", now, before)
	}
}

func TestPublicModesAndTransports(t *testing.T) {
	for _, mode := range []Mode{R1, R2Immutable, R32} {
		for _, tp := range []Transport{PonyExpress, OneRMA} {
			t.Run(fmt.Sprintf("%v-%d", mode, tp), func(t *testing.T) {
				c := newCell(t, Options{Mode: mode, Transport: tp})
				cl := c.NewClient(ClientOptions{})
				ctx := context.Background()
				if err := cl.Set(ctx, []byte("k"), []byte("v")); err != nil {
					t.Fatal(err)
				}
				v, ok, err := cl.Get(ctx, []byte("k"))
				if err != nil || !ok || string(v) != "v" {
					t.Fatalf("get: %q %v %v", v, ok, err)
				}
			})
		}
	}
}

// TestPublicEvictionPolicies: under each policy a cell whose data region
// fills evicts, and every acked key reads back its own value or is absent.
func TestPublicEvictionPolicies(t *testing.T) {
	for _, pol := range []string{"lru", "arc", "clock", "slfu"} {
		t.Run(pol, func(t *testing.T) {
			c := newCell(t, Options{Eviction: pol, DataBytes: 1 << 20, DataMaxBytes: 1 << 20, DisableReshaping: true})
			cl := c.NewClient(ClientOptions{TouchBatch: 8})
			ctx := context.Background()
			value := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 4<<10) }
			const keys = 400 // ~200 fit each backend's 1 MiB
			for i := 0; i < keys; i++ {
				if err := cl.Set(ctx, []byte(fmt.Sprintf("k%d", i)), value(i)); err != nil {
					t.Fatal(err)
				}
				cl.Get(ctx, []byte(fmt.Sprintf("k%d", i%20))) // a hot twenty
			}
			cl.FlushTouches(ctx)
			if n := c.Internal().AggregateCounters().CapacityEvictions; n == 0 {
				t.Error("no capacity eviction")
			}
			for i := 0; i < keys; i++ {
				v, found, err := cl.Get(ctx, []byte(fmt.Sprintf("k%d", i)))
				if err != nil || found && !bytes.Equal(v, value(i)) || !found && i == keys-1 {
					t.Errorf("k%d: %d bytes, found %v, err %v", i, len(v), found, err)
				}
			}
		})
	}
	if _, err := NewCell(Options{Eviction: "bogus"}); err == nil {
		t.Error("bogus eviction policy accepted")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Sets: 1, MemoryBytes: 5 << 20}
	if s.String() == "" {
		t.Error("empty stats string")
	}
	for _, n := range []int{512, 4 << 10, 4 << 20, 4 << 30} {
		if fmtBytes(n) == "" {
			t.Error("fmtBytes empty")
		}
	}
}

func TestPublicWANClient(t *testing.T) {
	c := newCell(t, Options{})
	local := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	wan := c.NewWANClient(ClientOptions{}, 20*time.Millisecond)
	ctx := context.Background()
	if err := local.Set(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := wan.Get(ctx, []byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("wan get: %q %v %v", v, ok, err)
	}
	if wan.Stats().GetP50 < 18*time.Millisecond {
		t.Errorf("wan p50 = %v, want ~>=20ms", wan.Stats().GetP50)
	}
}

// TestWANClientLeavesLocalLatency: on a default cell every client shares
// one fabric host, and a WAN client's distance is its own. A local SCAR
// client made after a 20 ms WAN client, and one made before it, keep the
// modelled GET latency the first one had.
func TestWANClientLeavesLocalLatency(t *testing.T) {
	c := newCell(t, Options{})
	ctx := context.Background()
	if err := c.NewClient(ClientOptions{}).Set(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	p50 := func(cl *Client, gets int) time.Duration {
		t.Helper()
		for i := 0; i < gets; i++ {
			if _, ok, err := cl.Get(ctx, []byte("k")); err != nil || !ok {
				t.Fatalf("local get: %v %v", ok, err)
			}
		}
		return cl.Stats().GetP50
	}
	early := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	before := p50(early, 200)

	wan := c.NewWANClient(ClientOptions{}, 20*time.Millisecond)
	if _, ok, err := wan.Get(ctx, []byte("k")); err != nil || !ok {
		t.Fatalf("wan get: %v %v", ok, err)
	}
	if p := wan.Stats().GetP50; p < 18*time.Millisecond {
		t.Fatalf("wan p50 = %v, want ~>=20ms", p)
	}

	late := p50(c.NewClient(ClientOptions{Strategy: LookupSCAR}), 200)
	// The early client's p50 now spans 800 GETs, 600 of them after the
	// WAN client was made.
	again := p50(early, 600)
	for name, p := range map[string]time.Duration{"made after": late, "made before": again} {
		if p > 2*before {
			t.Errorf("local client %s the WAN client: GET p50 = %v, was %v", name, p, before)
		}
	}
}

func TestPublicImmutable(t *testing.T) {
	c := newCell(t, Options{Mode: R2Immutable})
	ctx := context.Background()
	if err := c.LoadImmutable(ctx, map[string][]byte{"a": []byte("1"), "b": []byte("2")}); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient(ClientOptions{})
	v, ok, err := cl.Get(ctx, []byte("a"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("get: %q %v %v", v, ok, err)
	}
	if err := cl.Set(ctx, []byte("a"), []byte("x")); err == nil {
		t.Error("sealed cell accepted a SET")
	}
}

func TestPublicCompression(t *testing.T) {
	c := newCell(t, Options{CompressThreshold: 128})
	cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	ctx := context.Background()
	val := make([]byte, 8192) // zeros: maximally compressible
	if err := cl.Set(ctx, []byte("z"), val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := cl.Get(ctx, []byte("z"))
	if err != nil || !ok || len(got) != len(val) {
		t.Fatalf("get: len=%d ok=%v err=%v", len(got), ok, err)
	}
}

// TestPublicCustomHash: a cell-wide custom hash (§6.5) controls placement
// while all operations keep working, including against the default hash's
// reserved zero value.
func TestPublicCustomHash(t *testing.T) {
	c := newCell(t, Options{
		Hash: func(key []byte) (hi, lo uint64) {
			h := DefaultHash(key)
			return h.Hi ^ 0x1234, h.Lo // different placement than default
		},
	})
	cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		k := []byte(fmt.Sprintf("ch%d", i))
		if err := cl.Set(ctx, k, k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		k := []byte(fmt.Sprintf("ch%d", i))
		v, ok, err := cl.Get(ctx, k)
		if err != nil || !ok || string(v) != string(k) {
			t.Fatalf("%s: %q %v %v", k, v, ok, err)
		}
	}
	if err := cl.Erase(ctx, []byte("ch0")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := cl.Get(ctx, []byte("ch0")); ok {
		t.Error("erase under custom hash failed")
	}
	// A degenerate hash returning zero must be remapped, not break the
	// empty-slot sentinel.
	z := newCell(t, Options{Hash: func([]byte) (uint64, uint64) { return 0, 0 }})
	zcl := z.NewClient(ClientOptions{})
	if err := zcl.Set(ctx, []byte("zk"), []byte("zv")); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := zcl.Get(ctx, []byte("zk")); err != nil || !ok || string(v) != "zv" {
		t.Fatalf("zero-hash cell: %q %v %v", v, ok, err)
	}
}

// TestOversizedMutationFails: a SET or CAS whose entry no backend can store
// (past the largest slab class, 128 KiB) fails, where it used to be acked
// and not applied — at once, without spending the retry budget, on the
// one-sided clients and across the TCP gateway — and the value before it
// still reads back.
func TestOversizedMutationFails(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy client.Strategy
		tcp      bool
	}{
		{"2xR", client.Strategy2xR, false},
		{"SCAR", client.StrategySCAR, false},
		{"RPC over TCP", client.StrategyRPC, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := dialClient(t, newCell(t, Options{}).Internal(), client.Options{Strategy: tc.strategy}, tc.tcp)
			ctx := context.Background()
			key, old, huge := []byte("k"), []byte("old"), make([]byte, 129<<10)
			ver, err := cl.SetVersioned(ctx, key, old)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Set(ctx, key, huge); !proto.NotStored(err) {
				t.Errorf("129 KiB SET: %v, want the entry refused", err)
			}
			if swapped, err := cl.Cas(ctx, key, huge, ver); swapped || !proto.NotStored(err) {
				t.Errorf("129 KiB CAS: swapped=%v err=%v, want the entry refused", swapped, err)
			}
			if v, found, err := cl.Get(ctx, key); err != nil || !found || !bytes.Equal(v, old) {
				t.Errorf("after the refused mutations: %q found=%v err=%v, want %q", v, found, err, old)
			}
			if n, ns := cl.M.RetryCount(), cl.M.BackoffNs.Value(); n != 0 || ns != 0 {
				t.Errorf("%d retries, %d ns of backoff: a refused entry is not worth a retry", n, ns)
			}
		})
	}
}
