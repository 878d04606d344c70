package backend

import (
	"context"
	"fmt"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/hashring"
	"cliquemap/internal/truetime"
)

// TestHandlersKeepNoRequestBytes: a handler's req is its own only until it
// returns — the TCP gateway reads the next frame into the same buffer and a
// client marshals its next request into the same leased arena. Every
// mutating handler runs here on a request that is overwritten with 0xA5 the
// moment the call is back; whatever the backend kept of it (the index and
// side table, the eviction policy, tombstones, the heat sketch, the durable
// checkpoint and journal) must still name the original keys and values.
func TestHandlersKeepNoRequestBytes(t *testing.T) {
	dir := t.TempDir()
	opt := Options{
		Shard: 0, DataDir: dir, OverflowFallback: true, MaxLoadFactor: 10,
		Geometry: layout.Geometry{Buckets: 1, Ways: 2}, // a third key overflows to the side table
	}
	r := newRig(t, opt)
	client := r.net.Client(5, "test")
	call := func(method string, req []byte) []byte {
		t.Helper()
		resp, _, err := client.Call(context.Background(), "b0", method, req)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		for i := range req {
			req[i] = 0xA5
		}
		return resp
	}

	type kv struct {
		val string
		ver truetime.Version
	}
	live := map[string]kv{}
	// Mutations also carry access records (SetReq.Touches and kin), here
	// naming keys that stay live.
	carried := func(keys ...string) []byte {
		var r proto.TouchReq
		for _, k := range keys {
			r.Keys = append(r.Keys, []byte(k))
		}
		return r.Marshal()
	}
	for i := 0; i < 5; i++ {
		k, v := fmt.Sprintf("key-%d", i), fmt.Sprintf("value-%d", i)
		ver := r.v()
		var touches []byte
		if i == 4 {
			touches = carried("key-0", "key-2")
		}
		call(proto.MethodSet, proto.SetReq{Key: []byte(k), Value: []byte(v), Version: ver, Touches: touches}.Marshal())
		live[k] = kv{v, ver}
	}
	if r.b.CountersSnapshot().Overflows == 0 {
		t.Fatal("no key overflowed to the side table")
	}
	if err := r.b.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	// After the checkpoint, the journal's tail: one op of each kind.
	casVer := r.v()
	resp := call(proto.MethodCas, proto.SetReq{Key: []byte("key-0"), Value: []byte("swapped-0"), Expected: live["key-0"].ver, Version: casVer, Touches: carried("key-3")}.Marshal())
	if mr, _ := proto.UnmarshalMutateResp(resp); !mr.Applied {
		t.Fatal("cas not applied")
	}
	live["key-0"] = kv{"swapped-0", casVer}
	erased := map[string]truetime.Version{"key-1": r.v()}
	call(proto.MethodErase, proto.SetReq{Key: []byte("key-1"), Version: erased["key-1"], Touches: carried("key-4")}.Marshal())
	delete(live, "key-1")
	mig := proto.MigrateBatchReq{Shard: 0, Final: true}
	for i := 0; i < 2; i++ {
		k, v, ver := fmt.Sprintf("moved-%d", i), fmt.Sprintf("moved-value-%d", i), r.v()
		mig.Items = append(mig.Items, proto.MigrateItem{Key: []byte(k), Value: []byte(v), Version: ver})
		live[k] = kv{v, ver}
	}
	erased["moved-gone"] = r.v()
	mig.Items = append(mig.Items, proto.MigrateItem{Key: []byte("moved-gone"), Version: erased["moved-gone"], Tombstone: true})
	call(proto.MethodMigrateBatch, mig.Marshal())
	var touched [][]byte
	for k := range live {
		touched = append(touched, []byte(k))
	}
	call(proto.MethodTouch, proto.TouchReq{Keys: touched}.Marshal())

	check := func(when string, b *Backend) {
		t.Helper()
		for k, want := range live {
			if v, ver, found := b.get(nil, []byte(k)); !found || string(v) != want.val || ver != want.ver {
				t.Errorf("%s: %s = %q at %v (found %v), want %q at %v", when, k, v, ver, found, want.val, want.ver)
			}
		}
		for k, want := range erased {
			if ver, ok := b.tombBound(b.opt.Hash([]byte(k)), []byte(k)); !ok || ver != want {
				t.Errorf("%s: tombstone of %s = %v (%v), want %v", when, k, ver, ok, want)
			}
		}
	}
	check("live", r.b)
	for _, hk := range r.b.Heat().TopN(0) {
		if _, ok := live[hk.Key]; !ok && erased[hk.Key] == (truetime.Version{}) {
			t.Errorf("heat sketch tracks %q: a view of a recycled request", hk.Key)
		}
	}
	tracked := map[hashring.KeyHash]bool{}
	for i := range r.b.stripes {
		s := &r.b.stripes[i]
		for {
			h, ok := s.policy.Victim()
			if !ok {
				break
			}
			tracked[h] = true
			s.policy.Remove(h)
		}
	}
	for k := range live {
		if !tracked[hashring.DefaultHash([]byte(k))] {
			t.Errorf("the eviction policy does not track live key %s", k)
		}
	}
	if len(tracked) != len(live) {
		t.Errorf("the eviction policy tracks %d keys, %d are live", len(tracked), len(live))
	}
	check("after a warm restart", newRig(t, Options{
		Shard: 0, DataDir: dir, OverflowFallback: true, MaxLoadFactor: 10,
		Geometry: opt.Geometry, Recovering: true,
	}).b)
}

// TestPolicyTracksOnlyResidentKeys: an entry that leaves the index leaves
// its stripe's eviction policy too, even when its bytes are corrupt and its
// key cannot be read — purged by the walker's quarantine, or dropped as an
// associativity victim — so no ghost is later picked as a capacity victim
// that frees nothing and still counts as an eviction.
func TestPolicyTracksOnlyResidentKeys(t *testing.T) {
	r := newRig(t, Options{
		Shard: 0, DataBytes: 64 << 10, DataMaxBytes: 64 << 10, SlabBytes: 16 << 10,
		Geometry:      layout.Geometry{Buckets: 1, Ways: 8},
		MaxLoadFactor: 10, // no resize: a ninth key is an associativity conflict
	})
	b := r.b
	set := func(key string, n int) {
		t.Helper()
		if applied, _, _ := b.ApplySet([]byte(key), make([]byte, n), r.v()); !applied {
			t.Fatalf("set %s not applied", key)
		}
	}
	corrupt := func(key string) {
		t.Helper()
		h := b.opt.Hash([]byte(key))
		idx := b.idx.Load()
		e, _, ok := idx.bucket(idx.bucketOf(h)).Find(h)
		if !ok {
			t.Fatalf("%s is not indexed", key)
		}
		if err := b.data.Load().region.FlipBit(int(e.Ptr.Offset+e.Ptr.Size/2), 1); err != nil {
			t.Fatal(err)
		}
	}
	tracked := func(when string) {
		t.Helper()
		n := 0
		for i := range b.stripes {
			n += b.stripes[i].policy.Len()
		}
		if n != b.Len() {
			t.Errorf("%s: the policies track %d keys, %d are resident", when, n, b.Len())
		}
	}

	for i := 0; i < 8; i++ {
		set(fmt.Sprintf("k%d", i), 16)
	}
	corrupt("k1")
	b.Items(-1, 0) // the walker meets k1 and purges it
	if c := b.CountersSnapshot(); c.CorruptPurged != 1 {
		t.Fatalf("purged %d corrupt entries, want 1", c.CorruptPurged)
	}
	tracked("after a quarantine")

	set("k8", 16) // takes k1's slot
	corrupt("k0") // the oldest version: the next conflict's victim
	set("k9", 16)
	if c := b.CountersSnapshot(); c.AssocEvictions != 1 {
		t.Fatalf("%d associativity evictions, want 1", c.AssocEvictions)
	}
	tracked("after a corrupt associativity victim")

	before, resident := b.CountersSnapshot(), b.Len()
	for i := 0; i < 16; i++ {
		set(fmt.Sprintf("big%d", i), 6000)
	}
	after := b.CountersSnapshot()
	capacity, assoc := after.CapacityEvictions-before.CapacityEvictions, after.AssocEvictions-before.AssocEvictions
	if capacity == 0 {
		t.Fatal("no capacity eviction: the data region is not full")
	}
	if left := uint64(resident + 16 - b.Len()); capacity+assoc != left {
		t.Errorf("%d capacity + %d associativity evictions counted, %d entries left", capacity, assoc, left)
	}
	tracked("after capacity evictions")
}
