package backend

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/hashring"
	"cliquemap/internal/truetime"
)

// sparseRig fills a small region (8 slabs of 16 KiB) with entries of two
// classes and erases most of them again, so every slab is sparse and a drain
// has free chunks to move into. It returns what stayed resident.
func sparseRig(t *testing.T, opt Options) (*rig, map[string]truetime.Version) {
	t.Helper()
	opt.Shard, opt.DataBytes, opt.DataMaxBytes, opt.SlabBytes = 0, 128<<10, 128<<10, 16<<10
	r := newRig(t, opt)
	kept := map[string]truetime.Version{}
	for i := 0; i < 200; i++ { // 100 × 192 B chunks (2 slabs), 100 × 640 B chunks (4 slabs)
		key := fmt.Sprintf("k%03d", i)
		if ok, _, ev := r.b.ApplySet([]byte(key), relocValue(key, 100+400*(i%2)), r.v()); !ok || ev != 0 {
			t.Fatalf("fill %s: applied %v, evictions %d", key, ok, ev)
		}
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("k%03d", i)
		if i%8 > 1 {
			r.b.ApplyErase([]byte(key), r.v())
			continue
		}
		_, kept[key], _ = r.b.get(nil, []byte(key))
	}
	return r, kept
}

// relocValue is a value that names its key, so a wrong-key read shows.
func relocValue(key string, n int) []byte {
	return bytes.Repeat([]byte(key+"|"), n/len(key)+1)[:n]
}

// checkResident fails unless every key of want is served at its version
// with its own bytes.
func checkResident(t *testing.T, b *Backend, want map[string]truetime.Version) {
	t.Helper()
	for key, v := range want {
		val, got, found := b.get(nil, []byte(key))
		if !found || got != v || !bytes.Equal(val, relocValue(key, len(val))) {
			t.Errorf("%s: found %v at %v (want %v), %d bytes", key, found, got, v, len(val))
		}
	}
}

// TestDrainMovesWithoutPublishing: a drain with room to move into evicts
// nothing and is not a mutation — no durable record, no handoff-journal
// key, no version or policy change — and hands the allocator a whole slab.
func TestDrainMovesWithoutPublishing(t *testing.T) {
	r, kept := sparseRig(t, Options{DataDir: t.TempDir()})
	b := r.b
	victims := make([]hashring.KeyHash, len(b.stripes))
	for i := range b.stripes {
		victims[i], _ = b.stripes[i].policy.Victim()
	}
	before, resident := b.CountersSnapshot(), b.Len()
	freeBefore := b.data.Load().alloc.Stats().FreeSlabs
	records, _ := b.persist.Load().Depth()
	b.journalStart()

	evicted := 0
	for i := 0; i < 3; i++ {
		evicted += b.drainSlab(b.data.Load())
	}

	after := b.CountersSnapshot()
	if evicted != 0 || after.CapacityEvictions != before.CapacityEvictions || b.Len() != resident {
		t.Errorf("drains evicted %d (counter +%d), resident %d → %d", evicted, after.CapacityEvictions-before.CapacityEvictions, resident, b.Len())
	}
	if after.SlabDrains-before.SlabDrains != 3 || after.EntriesMoved == before.EntriesMoved {
		t.Errorf("drains %d, moved %d", after.SlabDrains-before.SlabDrains, after.EntriesMoved-before.EntriesMoved)
	}
	if got := b.data.Load().alloc.Stats().FreeSlabs; got != freeBefore+3 {
		t.Errorf("free slabs %d → %d, want three more", freeBefore, got)
	}
	if keys := b.journalSwap(); len(keys) != 0 {
		t.Errorf("moves noted handoff-journal keys %q", keys)
	}
	if now, _ := b.persist.Load().Depth(); now != records {
		t.Errorf("moves appended %d durable records", now-records)
	}
	for i := range b.stripes {
		if v, _ := b.stripes[i].policy.Victim(); v != victims[i] {
			t.Errorf("stripe %d: next victim %v → %v", i, victims[i], v)
		}
	}
	checkResident(t, b, kept)
}

// TestDrainOfSupersededRegionTouchesNothing: a drain handed a data region
// that a compact-restart has since replaced finds every entry it decodes
// confirmed by no index, and leaves the live corpus alone.
func TestDrainOfSupersededRegionTouchesNothing(t *testing.T) {
	r, kept := sparseRig(t, Options{})
	b := r.b
	old := b.data.Load()
	b.CompactRestart(0.5)
	if b.data.Load() == old {
		t.Fatal("compact-restart kept the region")
	}
	for key := range kept { // re-installed at the same versions
		_, kept[key], _ = b.get(nil, []byte(key))
	}
	before, resident := b.CountersSnapshot(), b.Len()
	if ev := b.drainSlab(old); ev != 0 {
		t.Errorf("drain of the old region evicted %d", ev)
	}
	after := b.CountersSnapshot()
	if after.EntriesMoved != before.EntriesMoved || after.CapacityEvictions != before.CapacityEvictions || b.Len() != resident {
		t.Errorf("drain of the old region moved %d, evicted %d, resident %d → %d",
			after.EntriesMoved-before.EntriesMoved, after.CapacityEvictions-before.CapacityEvictions, resident, b.Len())
	}
	checkResident(t, b, kept)
}

// TestDrainRacesReshaping runs forced drains against everything that swaps
// or rewrites regions under the all-stripe barrier — compact-restart, index
// resizes (the index starts at 16 slots), data-region growth, handoff seals,
// checkpoints — while writers install mixed sizes; each writer turns aside
// for one of those every few SETs, so they overlap the other writers and one
// another. Meaningful under -race; afterwards every resident entry must
// decode and carry a version acked for its key — the last one, unless a
// compact-restart re-installed its snapshot after a newer version had been
// evicted (evictions leave no version bound behind; true at the parent too).
func TestDrainRacesReshaping(t *testing.T) {
	r := newRig(t, Options{
		Shard: 0, Geometry: layout.Geometry{Buckets: 4, Ways: 4},
		DataBytes: 64 << 10, DataMaxBytes: 256 << 10, SlabBytes: 16 << 10, ReshapeEnabled: true,
		DataDir: t.TempDir(),
	})
	b := r.b
	const writers, keysPerWriter, rounds = 4, 150, 6
	var vmu sync.Mutex // rig.v is not concurrency-safe
	nextV := func() truetime.Version { vmu.Lock(); defer vmu.Unlock(); return r.v() }
	acked := make([]map[string][]truetime.Version, writers)
	var ops atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		acked[w] = map[string][]truetime.Version{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := 0; i < keysPerWriter; i++ {
					switch n := ops.Add(1); {
					case n%211 == 0:
						b.CompactRestart(0.3)
					case n%53 == 0:
						if err := b.CheckpointNow(); err != nil {
							t.Errorf("checkpoint: %v", err)
						}
					case n%29 == 0:
						b.HandoffSeal()
						b.HandoffUnseal()
					case n%3 == 0:
						b.drainSlab(b.data.Load())
					}
					key := fmt.Sprintf("w%d-%03d", w, i)
					v := nextV()
					if ok, _, _ := b.ApplySet([]byte(key), relocValue(key, 64<<uint((i+round)%7)), v); ok {
						acked[w][key] = append(acked[w][key], v)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	c := b.CountersSnapshot()
	if c.CorruptPurged != 0 {
		t.Errorf("%d entries failed their checksum", c.CorruptPurged)
	}
	if c.EntriesMoved == 0 || c.IndexResizes == 0 || c.DataGrows == 0 {
		t.Errorf("moved %d, index resizes %d, data grows %d: the race never happened", c.EntriesMoved, c.IndexResizes, c.DataGrows)
	}
	resident := 0
	for w := range acked {
		for key, vs := range acked[w] {
			val, got, found := b.get(nil, []byte(key))
			if !found {
				continue // evicted
			}
			resident++
			if !slices.Contains(vs, got) || !bytes.Equal(val, relocValue(key, len(val))) {
				t.Errorf("%s: served at %v with %d bytes, acked %v", key, got, len(val), vs)
			}
		}
	}
	if items := b.Items(-1, 0); len(items) != b.Len() || resident != b.Len() {
		t.Errorf("index holds %d entries, %d decode, %d match an acked key", b.Len(), len(items), resident)
	}
}

// TestIndexResizeChurnUnderReaders: index resizes churned under concurrent
// bucket readers, with the collector running almost continuously, never
// fault and never serve a wrong value. Each resize drops the old index
// region, whose array goes back to the kernel once the region is
// collected; every bucket view is taken and used under its stripe lock,
// where the index is the backend's current one, so no view outlives its
// region. A view that did would read unmapped memory: a SIGSEGV.
func TestIndexResizeChurnUnderReaders(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(1))
	const keys, readers = 400, 3
	key := func(i int) []byte { return []byte(fmt.Sprintf("churn-%03d", i)) }
	for round := 0; round < 4; round++ {
		r := newRig(t, Options{
			Shard: 0, Geometry: layout.Geometry{Buckets: 2, Ways: 4},
			DataBytes: 1 << 20, DataMaxBytes: 1 << 22, SlabBytes: 64 << 10, ReshapeEnabled: true,
		})
		b := r.b
		var stored [keys]atomic.Bool // applied, so possibly resident
		var written atomic.Int64
		var wg sync.WaitGroup
		wg.Add(1 + readers)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				if ok, _, _ := b.ApplySet(key(i), relocValue(string(key(i)), 96), r.v()); ok {
					stored[i].Store(true)
				}
				written.Store(int64(i + 1))
			}
		}()
		for rd := 0; rd < readers; rd++ {
			go func(rd int) {
				defer wg.Done()
				for n := 0; written.Load() < keys; n++ {
					i := (n*7 + rd) % int(max(written.Load(), 1))
					if !stored[i].Load() {
						continue
					}
					// A full bucket below the resize trigger evicts a
					// victim, so a stored key may be gone; a found one
					// must carry its own bytes. One reader walks the
					// whole index, holding each bucket's view longer.
					if val, _, found := b.get(nil, key(i)); found && !bytes.Equal(val, relocValue(string(key(i)), 96)) {
						t.Errorf("round %d: %s served %d wrong bytes", round, key(i), len(val))
						return
					}
					if rd > 0 {
						continue
					}
					for _, it := range b.Items(-1, 1) {
						if !bytes.Equal(it.Value, relocValue(string(it.Key), 96)) {
							t.Errorf("round %d: walk served %s with %d wrong bytes", round, it.Key, len(it.Value))
							return
						}
					}
				}
			}(rd)
		}
		wg.Wait()
		if c := b.CountersSnapshot(); c.IndexResizes < 5 {
			t.Fatalf("round %d: %d index resizes, want the index to churn", round, c.IndexResizes)
		}
	}
}
