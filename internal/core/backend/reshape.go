package backend

// Reshaping: growing the data region, repurposing its slabs (drains, which
// relocate entries one stripe lock at a time), upsizing the index, and the
// whole-corpus rebuilds (compact-restart, clear, post-resize GC), which swap
// or rewrite regions under the all-stripe barrier.

import (
	"fmt"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/eviction"
	"cliquemap/internal/hashring"
	"cliquemap/internal/rmem"
	"cliquemap/internal/slab"
)

// growWatermark is the data-region utilization that triggers growth ahead
// of demand (§4.1).
const growWatermark = 0.85

// newDataRegion builds an empty slab-managed data region of the given
// populated size, with its first window registered.
func (b *Backend) newDataRegion(bytes int) (*dataRegion, error) {
	alloc, err := slab.New(bytes, b.opt.SlabBytes, nil)
	if err != nil {
		return nil, fmt.Errorf("backend: data allocator: %w", err)
	}
	dr := &dataRegion{region: rmem.NewRegion(bytes, b.opt.DataMaxBytes), alloc: alloc}
	dr.windows = []*rmem.Window{b.reg.Register(dr.region, 1)}
	dr.cur.Store(dr.windows[0])
	return dr, nil
}

// resetStripes gives every stripe a fresh eviction policy sized for geo and
// an empty side shard.
func (b *Backend) resetStripes(geo layout.Geometry) error {
	perStripe := geo.Buckets * geo.Ways / len(b.stripes)
	if perStripe < 1 {
		perStripe = 1
	}
	for i := range b.stripes {
		pol, err := eviction.New(b.opt.Policy, perStripe)
		if err != nil {
			return err
		}
		b.stripes[i].policy = pol.Policy
		b.stripes[i].side = make(map[hashring.KeyHash]sideEntry)
	}
	return nil
}

// swapRegions installs a fresh data region and a fresh index of the same
// geometry, revoking the old windows so stale client handles fail
// validation and refresh. All stripe locks are held.
func (b *Backend) swapRegions(dr *dataRegion) {
	old := b.idx.Load()
	for _, w := range b.data.Load().windowIDs() {
		b.reg.Revoke(w)
	}
	b.reg.Revoke(old.win.ID)
	b.data.Store(dr)
	b.idx.Store(b.newIndex(old.geo, old.epoch+1))
}

// maybeGrow grows ahead of demand at the high watermark. Lock-free check;
// growth itself is serialized by the region's wmu.
func (b *Backend) maybeGrow(dr *dataRegion) {
	if !b.opt.ReshapeEnabled {
		return
	}
	pool := dr.alloc.PoolBytes()
	if pool > 0 && float64(dr.alloc.AllocatedBytes())/float64(pool) >= growWatermark {
		b.grow(dr)
	}
}

// grow populates more of the reserved range and registers a new
// overlapping window (§4.1). Returns false at the ceiling or with
// reshaping disabled.
func (b *Backend) grow(dr *dataRegion) bool {
	if !b.opt.ReshapeEnabled {
		return false
	}
	dr.wmu.Lock()
	defer dr.wmu.Unlock()
	cur := dr.region.Populated()
	if cur >= b.opt.DataMaxBytes {
		return false
	}
	step := int(float64(cur) * b.opt.GrowStep)
	if step < b.opt.SlabBytes {
		step = b.opt.SlabBytes
	}
	if cur+step > b.opt.DataMaxBytes {
		step = b.opt.DataMaxBytes - cur
	}
	newPop := dr.region.Grow(step)
	grew := dr.alloc.Grow(newPop - cur)
	if grew <= 0 {
		return false
	}
	// Advertise a second, larger overlapping window; clients converge to
	// it over time. Old windows stay valid for existing pointers.
	w := b.reg.Register(dr.region, dr.windows[len(dr.windows)-1].Epoch+1)
	dr.windows = append(dr.windows, w)
	dr.cur.Store(w)
	b.stripes[0].ctr.dataGrows.Add(1)
	return true
}

// drainSlab repurposes one slab of dr: the allocator seals the slab that is
// cheapest to empty, and each entry living there is moved to a free chunk of
// its own class elsewhere, or — its class having none — evicted (co-residents
// of a sparse slab are not cold, so that is the last resort). Returns the
// evictions. Must be called with NO stripe lock held.
func (b *Backend) drainSlab(dr *dataRegion) (evictions int) {
	chunks := dr.alloc.Drain()
	if len(chunks) == 0 {
		return 0
	}
	b.stripes[0].ctr.slabDrains.Add(1)
	bp := dataBufs.Get().(*[]byte)
	defer dataBufs.Put(bp)
	n := chunks[0].Size // one slab, one class
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	for _, c := range chunks {
		if b.relocate(dr, c, (*bp)[:n]) {
			evictions++
		}
	}
	return evictions
}

// relocate moves the entry in chunk c of dr to another chunk, reporting
// true when it had to evict it instead. The chunk is decoded where it lies
// and confirmed under its key's stripe lock: unless the slot for its hash
// holds this offset at this version in the still-current region, the chunk
// is being freed, or an install has not yet published it, and it is left
// alone. A move is not a mutation (DESIGN.md, "Data region"): the bytes are
// copied whole and the slot rewritten with the same hash and version, so no
// journal, tombstone or policy hears of it, and a one-sided reader sees what
// it sees after an overwrite.
func (b *Backend) relocate(dr *dataRegion, c slab.Ref, raw []byte) (evicted bool) {
	if dr.region.ReadInto(c.Offset, raw) != nil {
		return false
	}
	de, err := layout.DecodeDataEntry(raw)
	if err != nil {
		return false
	}
	h := b.opt.Hash(de.Key)
	s := b.stripeOf(h)
	s.mu.Lock()
	defer s.unlock()
	if b.data.Load() != dr {
		return false
	}
	idx := b.idx.Load()
	bucket := idx.bucketOf(h)
	e, slot, ok := idx.find(bucket, h)
	if !ok || int(e.Ptr.Offset) != c.Offset || e.Version != de.Version {
		return false
	}
	n := int(e.Ptr.Size)
	ref, err := dr.alloc.Alloc(n)
	if err != nil {
		b.removeLocked(s, h)
		s.ctr.capacityEvictions.Add(1)
		return true
	}
	if dr.region.WriteChunked(ref.Offset, raw[:n]) != nil {
		dr.alloc.Free(ref, n)
		return false
	}
	e.Ptr = layout.Pointer{Window: dr.current().ID, Offset: uint64(ref.Offset), Size: uint64(n)}
	b.putSlot(idx, bucket, slot, e)
	s.ctr.entriesMoved.Add(1)
	return false
}

// maybeResizeIndex upsizes the index past the target load factor (§4.1):
// build a new, larger index, repopulate it, revoke remote access to the
// original. All stripes are taken (mutations stall); client RMAs against
// the old window fail and retry via RPC, learning the new geometry.
func (b *Backend) maybeResizeIndex() {
	if !b.idx.Load().overloaded(b.opt.MaxLoadFactor) {
		return
	}
	b.lockAll()
	defer b.unlockAll()
	// Re-check under the locks: a concurrent mutation may have resized.
	old := b.idx.Load()
	if !old.overloaded(b.opt.MaxLoadFactor) {
		return
	}
	var live []layout.IndexEntry
	b.walk(walkOpts{stripe: allStripes}, func(r *resident) bool {
		if r.slot < 0 {
			return false // side-shard entries are not indexed
		}
		live = append(live, r.IndexEntry)
		return true
	})
	// Rehash into progressively larger geometries until every entry places
	// (a target bucket can overflow its ways, in which case we double again
	// rather than drop data).
	geo := old.geo
	for attempt := 0; attempt < 8; attempt++ {
		geo.Buckets *= 2
		next := b.newIndex(geo, old.epoch+1)
		if b.rehash(next, live) {
			b.idx.Store(next)
			b.reg.Revoke(old.win.ID)
			b.stripes[0].ctr.indexResizes.Add(1)
			return
		}
		b.reg.Revoke(next.win.ID)
	}
	// Pathological; keep the old index rather than lose data.
}

// rehash places every entry into the (unpublished) index next, reporting
// false when some bucket runs out of ways.
func (b *Backend) rehash(next *indexRegion, live []layout.IndexEntry) bool {
	for _, e := range live {
		bucket := next.bucketOf(e.Hash)
		slot, ok := next.emptySlot(bucket)
		if !ok {
			return false
		}
		b.putSlot(next, bucket, slot, e)
	}
	return true
}

// CompactRestart models the paper's non-disruptive restart downsizing:
// rebuild the data region sized to current usage (plus slack), preserving
// contents. Used by the Figure 3 harness when the corpus shrinks.
func (b *Backend) CompactRestart(slack float64) {
	b.lockAll()
	items := b.snapshot(walkOpts{stripe: allStripes})
	// Size the new pool to fit current usage plus slack.
	var need int
	for _, it := range items {
		need += slab.ClassSize(layout.DataEntrySize(len(it.Key), len(it.Value)))
	}
	newBytes := int(float64(need) * (1 + slack))
	if newBytes < b.opt.SlabBytes*2 {
		newBytes = b.opt.SlabBytes * 2
	}
	newBytes = (newBytes/b.opt.SlabBytes + 1) * b.opt.SlabBytes
	if newBytes > b.opt.DataMaxBytes {
		newBytes = b.opt.DataMaxBytes
	}
	dr, err := b.newDataRegion(newBytes)
	if err != nil {
		b.unlockAll()
		return
	}
	b.swapRegions(dr)
	for i := range b.stripes {
		// Side-shard entries are in items too; reinstalling them re-marks
		// their buckets overflowed in the fresh index.
		b.stripes[i].side = make(map[hashring.KeyHash]sideEntry)
	}
	b.unlockAll()

	for _, it := range items {
		b.install(it)
	}
}

// Clear wipes the backend to an empty idle state (a shrink demoted it to
// a spare): fresh index and data regions, empty side tables, policies,
// and tombstone cache.
func (b *Backend) Clear() {
	b.lockAll()
	dr, err := b.newDataRegion(b.opt.DataBytes)
	if err != nil {
		b.unlockAll()
		return
	}
	b.swapRegions(dr)
	_ = b.resetStripes(b.idx.Load().geo) // the policy name was validated by New
	b.unlockAll()

	b.tombReset()
	b.persistReset() // empty corpus; a crash must not resurrect the old one
}

// DropForeign removes every resident entry, side-table entry, and exact
// tombstone whose post-resize cohort no longer includes this backend's
// shard — the post-flip GC of a resize. Returns how many were dropped.
func (b *Backend) DropForeign(shards, replicas int) int {
	my := b.Shard()
	if my < 0 || shards <= 0 {
		return 0
	}
	r := replicas
	if r > shards {
		r = shards
	}
	foreign := func(h hashring.KeyHash) bool {
		return (my-int(h.Hi%uint64(shards))+shards)%shards >= r
	}

	var victims []hashring.KeyHash
	b.lockAll()
	b.walk(walkOpts{stripe: allStripes}, func(e *resident) bool {
		if foreign(e.Hash) {
			victims = append(victims, e.Hash)
		}
		return true
	})
	for _, h := range victims {
		b.removeLocked(b.stripeOf(h), h)
	}
	b.unlockAll()

	b.tombMutate(func(t *tombstoneCache) {
		t.dropIf(foreign)
	})
	if len(victims) > 0 && b.persist.Load() != nil {
		// Collapse the durable lineage to the trimmed corpus so a later
		// crash cannot resurrect the dropped foreign keys.
		_ = b.CheckpointNow()
	}
	return len(victims)
}
