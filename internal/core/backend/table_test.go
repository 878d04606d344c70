package backend

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/truetime"
	"cliquemap/internal/workload"
)

// checkTags holds every slot's tag to the index region: tagOf the slot's
// stored hash, 0 where the slot is empty.
func checkTags(t *testing.T, b *Backend, when string) {
	t.Helper()
	idx := b.idx.Load()
	for bucket := 0; bucket < idx.geo.Buckets; bucket++ {
		raw := idx.bucket(bucket)
		for slot, tag := range idx.tagsOf(bucket) {
			var want uint8
			if h := raw.Hash(slot); !h.Zero() {
				want = tagOf(h)
			}
			if tag != want {
				t.Fatalf("%s: bucket %d slot %d has tag %#x, its hash %v wants %#x", when, bucket, slot, tag, raw.Hash(slot), want)
			}
		}
	}
}

// TestTagsMatchRegion runs a seeded mix of SETs, CASes and ERASEs over a
// small index of 2-way buckets and a 64 KiB data region, which evicts for
// capacity and for associativity and resizes the index (MaxLoadFactor
// 0.5), then a compact-restart and a purge of corrupted entries, and
// checks after each that the slot tags match the region.
func TestTagsMatchRegion(t *testing.T) {
	r := newRig(t, Options{Shard: 0,
		Geometry:      layout.Geometry{Buckets: 4, Ways: 2},
		MaxLoadFactor: 0.5,
		DataBytes:     64 << 10, DataMaxBytes: 64 << 10, SlabBytes: 16 << 10,
	})
	rng := rand.New(rand.NewSource(65))
	mix := func(n int) {
		for i := 0; i < n; i++ {
			key := []byte(fmt.Sprintf("key-%d", rng.Intn(400)))
			value := make([]byte, 100+rng.Intn(1500))
			switch rng.Intn(4) {
			case 0, 1:
				r.b.ApplySet(key, value, r.v())
			case 2:
				expected := truetime.Version{}
				if rng.Intn(4) > 0 {
					_, expected, _ = r.b.get(nil, key)
				}
				r.b.ApplyCas(key, value, expected, r.v())
			default:
				r.b.ApplyErase(key, r.v())
			}
		}
	}
	mix(3000)
	checkTags(t, r.b, "mix")
	r.b.CompactRestart(0.5)
	checkTags(t, r.b, "compact-restart")
	if len(r.b.CorruptEntries(8, 7)) == 0 {
		t.Fatal("no entry corrupted")
	}
	r.b.Items(-1, 0) // the walk purges what it cannot decode
	checkTags(t, r.b, "purge")
	mix(1000)
	checkTags(t, r.b, "second mix")
	c := r.b.CountersSnapshot()
	if c.CapacityEvictions == 0 || c.AssocEvictions == 0 || c.IndexResizes == 0 || c.CorruptPurged == 0 || c.ErasesApplied == 0 || c.CasApplied == 0 {
		t.Errorf("the mix missed a path: %+v", c)
	}
}

// BenchmarkBulkLoad loads 100 000 distinct 20 B keys with 128 B values into
// a fresh backend of 32 768 buckets and a 64 MiB data region, the shape of
// get_small_scar's preload into each of its backends. It reports ns/set,
// the mean ApplySet, and index_build_ns, the time New takes, which is the
// building of its 32 MiB index.
func BenchmarkBulkLoad(b *testing.B) {
	const keys, buckets, dataBytes = 100_000, 32768, 64 << 20
	key := make([][]byte, keys)
	for i := range key {
		key[i] = []byte(workload.Key(uint64(i)))
	}
	value := workload.ValueGen(0, 128)
	store := config.NewStore(config.CellConfig{Mode: config.R1, Shards: 1, ShardAddrs: []string{"bulk"},
		Backends: []config.BackendInfo{{Shard: 0, Addr: "bulk"}}})
	vgen := truetime.NewGenerator(truetime.NewSystemClock(), 9)
	var build, load time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC() // the last iteration's regions go before this one's are built
		net := rpc.NewNetwork(fabric.New(2, fabric.Params{}), rpc.CostModel{}, nil)
		b.StartTimer()
		t0 := time.Now()
		be, err := New(Options{Shard: 0, Addr: "bulk",
			Geometry:  layout.Geometry{Buckets: buckets, Ways: layout.DefaultWays},
			DataBytes: dataBytes, DataMaxBytes: dataBytes, ReshapeEnabled: true,
		}, store, rmem.NewRegistry(), net, vgen, nil)
		if err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		for _, k := range key {
			if applied, _, _ := be.ApplySet(k, value, vgen.Next()); !applied {
				b.Fatal("bulk load: not applied")
			}
		}
		build, load = build+t1.Sub(t0), load+time.Since(t1)
	}
	b.StopTimer()
	b.ReportMetric(float64(load.Nanoseconds())/float64(b.N*keys), "ns/set")
	b.ReportMetric(float64(build.Nanoseconds())/float64(b.N), "index_build_ns")
}
