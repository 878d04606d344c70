package backend

// The index table and the corpus walker. Every read or write of the
// RMA-visible index region, and every enumeration of what the backend
// holds, goes through the primitives in this file.

import (
	"sync/atomic"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/hashring"
	"cliquemap/internal/rmem"
	"cliquemap/internal/slab"
	"cliquemap/internal/truetime"
)

// indexRegion is the current RMA-accessible index.
type indexRegion struct {
	geo    layout.Geometry
	region *rmem.Region
	win    *rmem.Window
	epoch  uint64
	used   atomic.Int64 // occupied IndexEntries
}

// newIndex builds a zeroed index region with stamped bucket headers.
func (b *Backend) newIndex(geo layout.Geometry, epoch uint64) *indexRegion {
	idx := &indexRegion{geo: geo, region: rmem.NewRegion(geo.RegionBytes(), geo.RegionBytes()), epoch: epoch}
	for i := 0; i < geo.Buckets; i++ {
		b.stampBucket(idx, i, 0)
	}
	idx.win = b.reg.Register(idx.region, epoch)
	return idx
}

func (x *indexRegion) bucketOf(h hashring.KeyHash) int { return int(h.Lo % uint64(x.geo.Buckets)) }

// slotOff is the region offset of (bucket, slot).
func (x *indexRegion) slotOff(bucket, slot int) int {
	return x.geo.BucketOffset(bucket) + layout.SlotOffset(slot)
}

// overloaded reports whether occupancy has reached the resize trigger.
func (x *indexRegion) overloaded(maxLoad float64) bool {
	return float64(x.used.Load())/float64(x.geo.Buckets*x.geo.Ways) >= maxLoad
}

// bucket returns a zero-copy view of bucket i, nil on a region error (which
// reads as a bucket with no slots). Aliasing is safe under the bucket's
// stripe lock: every writer of the bucket holds the same lock, and the
// index region's backing array is immutable for the region's lifetime
// (resizes build a whole new region).
func (x *indexRegion) bucket(i int) layout.RawBucket {
	raw, err := x.region.View(x.geo.BucketOffset(i), x.geo.BucketSize())
	if err != nil {
		return nil
	}
	return raw
}

// emptySlot returns r's first empty slot.
func emptySlot(r layout.RawBucket) (int, bool) {
	for i, n := 0, r.Ways(); i < n; i++ {
		if r.Hash(i).Zero() {
			return i, true
		}
	}
	return -1, false
}

// victimSlot picks r's occupied slot with the lowest VersionNumber.
func victimSlot(r layout.RawBucket) (victim layout.IndexEntry, slot int, ok bool) {
	slot = -1
	for i, n := 0, r.Ways(); i < n; i++ {
		if r.Hash(i).Zero() {
			continue
		}
		if e := r.Entry(i); slot < 0 || e.Version.Less(victim.Version) {
			victim, slot = e, i
		}
	}
	return victim, slot, slot >= 0
}

// stampBucket rewrites bucket's header with the current config stamp,
// keeping its flags and adding set. The bucket's stripe lock is held (or
// the index is not yet published).
func (b *Backend) stampBucket(idx *indexRegion, bucket int, set uint64) {
	if raw := idx.bucket(bucket); raw != nil {
		set |= raw.Flags()
	}
	var hdr [layout.BucketHeaderSize]byte
	layout.EncodeBucketHeader(hdr[:], b.stampID(), set)
	idx.region.Write(idx.geo.BucketOffset(bucket), hdr[:])
}

// restampAll rewrites every bucket header under the all-stripe barrier:
// clients holding the old stamp fail validation on their next GET and
// refresh (§6.1).
func (b *Backend) restampAll() {
	b.lockAll()
	defer b.unlockAll()
	idx := b.idx.Load()
	for i := 0; i < idx.geo.Buckets; i++ {
		b.stampBucket(idx, i, 0)
	}
}

// SetConfigID restamps every bucket header with the new configuration ID.
func (b *Backend) SetConfigID(id uint64) {
	b.configID.Store(id)
	b.restampAll()
}

// putSlot publishes e at (bucket, slot) — the pointer write is a
// mutation's ordering point — and then settles the books: a slot that was
// occupied has its old DataEntry reclaimed, a fresh one is counted. The
// bucket's stripe lock is held.
func (b *Backend) putSlot(idx *indexRegion, bucket, slot int, e layout.IndexEntry) {
	// Decode the occupant before the write: the view aliases the slot.
	var old layout.IndexEntry
	if raw := idx.bucket(bucket); !raw.Hash(slot).Zero() {
		old = raw.Entry(slot)
	}
	var buf [layout.IndexEntrySize]byte
	layout.EncodeIndexEntry(buf[:], e)
	idx.region.Write(idx.slotOff(bucket, slot), buf[:])
	if old.Empty() {
		idx.used.Add(1)
	} else {
		b.data.Load().free(old.Ptr)
	}
}

// zeroEntry is the wire form of an empty IndexEntry slot (read-only).
var zeroEntry = make([]byte, layout.IndexEntrySize)

// clearSlot empties (bucket, slot), whose occupant is e, and reclaims e's
// DataEntry. In-flight 2×R GETs may still complete against the old bytes;
// they are ordered-before the removal (§4.2). The bucket's stripe lock is
// held.
func (b *Backend) clearSlot(idx *indexRegion, bucket, slot int, e layout.IndexEntry) {
	idx.region.Write(idx.slotOff(bucket, slot), zeroEntry)
	idx.used.Add(-1)
	b.data.Load().free(e.Ptr)
}

// free returns the DataEntry at p to the allocator.
func (d *dataRegion) free(p layout.Pointer) {
	d.alloc.Free(slab.Ref{Offset: int(p.Offset), Size: slab.ClassSize(int(p.Size))}, int(p.Size))
}

// readEntry reads and validates the DataEntry behind e into *buf, grown to
// fit; the entry returned aliases it. The read is the one a NIC serves
// (Registry.AppendRead: bounds before bytes, rmem's range locks), so the
// tearing model is the same, and the checksum still decides whether what
// was read is an entry.
func (b *Backend) readEntry(e layout.IndexEntry, buf *[]byte) (layout.DataEntry, error) {
	raw, err := b.reg.AppendRead((*buf)[:0], e.Ptr.Window, int(e.Ptr.Offset), int(e.Ptr.Size))
	if err != nil {
		return layout.DataEntry{}, err
	}
	*buf = raw
	return layout.DecodeDataEntry(raw)
}

// ---------------------------------------------------------------- walker --

// shardFilter admits keys whose primary shard is shard; the zero filter
// (no shard count) and a negative shard admit everything.
type shardFilter struct{ shard, shards int }

func (f shardFilter) match(h hashring.KeyHash) bool {
	return f.shard < 0 || f.shards <= 0 || int(h.Hi%uint64(f.shards)) == f.shard
}

// allStripes is walkOpts.stripe's "no restriction".
const allStripes = -1

// walkOpts selects what the corpus walker visits.
type walkOpts struct {
	from   int // first bucket; the side table is the pseudo-bucket after the last
	stripe int // only this stripe's buckets and side shard, or allStripes
	filter shardFilter
}

// resident is the walker's cursor: one index slot, or (slot < 0) one
// side-table entry, whose Ptr is nil and whose bucket is geo.Buckets.
type resident struct {
	layout.IndexEntry
	bucket, slot int

	b    *Backend
	idx  *indexRegion
	side sideEntry
}

// walk is the one corpus iterator: every resident index entry from bucket
// o.from up, then every side-table entry, in that fixed order, until fn
// returns false. The caller holds the stripe locks covering what it walks
// (all of them, or o.stripe's). Entry bytes are read only when fn asks the
// cursor for them.
func (b *Backend) walk(o walkOpts, fn func(r *resident) bool) {
	idx := b.idx.Load()
	r := resident{b: b, idx: idx}
	first, step := o.from, 1
	if o.stripe != allStripes { // the stripe's buckets are those ≡ stripe mod nStripes
		step = len(b.stripes)
		first += (o.stripe - o.from%step + step) % step
	}
	for bucket := first; bucket < idx.geo.Buckets; bucket += step {
		raw := idx.bucket(bucket)
		for slot, n := 0, raw.Ways(); slot < n; slot++ {
			if raw.Hash(slot).Zero() {
				continue
			}
			r.IndexEntry, r.bucket, r.slot = raw.Entry(slot), bucket, slot
			if o.filter.match(r.Hash) && !fn(&r) {
				return
			}
		}
	}
	r.bucket, r.slot = idx.geo.Buckets, -1
	for i := range b.stripes {
		if o.stripe != allStripes && i != o.stripe {
			continue
		}
		for h, se := range b.stripes[i].side {
			r.IndexEntry, r.side = layout.IndexEntry{Hash: h, Version: se.version}, se
			if o.filter.match(r.Hash) && !fn(&r) {
				return
			}
		}
	}
}

// read decodes the stored DataEntry under the cursor, with a private key.
//
// This is where quarantine happens. The walker's caller holds the entry's
// stripe lock, and an index pointer is published only after its body is
// fully written, so a checksum/decode failure here is durable §3 damage,
// not a §5.3 tear: the entry can never be served again, yet its index
// version would keep version-blocking repair settles at that version
// forever. Zero the slot, free the storage and forget the key's hash in
// the policy, so the cohort's repair sweep can re-install the authoritative
// bytes from a healthy replica (§5.4 convergence). Registry read errors are
// skipped without purging: they can be transient (e.g. a window revoked
// mid-reconfiguration).
func (r *resident) read() (layout.DataEntry, bool) {
	if r.slot < 0 {
		return layout.DataEntry{Key: append([]byte(nil), r.side.key...), Value: r.side.value, Version: r.Version}, true
	}
	raw, err := r.b.reg.AppendRead(nil, r.Ptr.Window, int(r.Ptr.Offset), int(r.Ptr.Size))
	if err != nil {
		return layout.DataEntry{}, false
	}
	de, err := layout.DecodeDataEntry(raw)
	if err != nil {
		r.b.clearSlot(r.idx, r.bucket, r.slot, r.IndexEntry)
		r.b.stripeOf(r.Hash).policy.Remove(r.Hash)
		r.b.stripes[0].ctr.corruptPurged.Add(1)
		return layout.DataEntry{}, false
	}
	de.Key = append([]byte(nil), de.Key...)
	return de, true
}

// key returns the entry's key.
func (r *resident) key() ([]byte, bool) {
	de, ok := r.read()
	return de.Key, ok
}

// kv returns the entry's key and client-visible (uncompressed) value.
func (r *resident) kv() (key, value []byte, ok bool) {
	de, ok := r.read()
	if !ok {
		return nil, nil, false
	}
	value, err := de.MaterializeValue()
	return de.Key, value, err == nil
}

// snapshot collects what o selects as (key, value, version) items.
func (b *Backend) snapshot(o walkOpts) (out []proto.MigrateItem) {
	b.walk(o, func(r *resident) bool {
		if key, value, ok := r.kv(); ok {
			out = append(out, proto.MigrateItem{Key: key, Value: value, Version: r.Version})
		}
		return true
	})
	return out
}

// Items snapshots all resident KV pairs of a shard (or every shard with
// shard < 0) — the migration and cohort-repair source.
func (b *Backend) Items(shard, shards int) []proto.MigrateItem {
	b.lockAll()
	defer b.unlockAll()
	return b.snapshot(walkOpts{stripe: allStripes, filter: shardFilter{shard, shards}})
}

// scan returns a page of (KeyHash, Version, Key) summaries for keys whose
// primary shard matches — the §5.4 cohort-scan surface. Pages break only
// between buckets; the last one also carries the shard's tombstones.
func (b *Backend) scan(req proto.ScanReq) (resp proto.ScanResp) {
	filter := shardFilter{req.Shard, b.store.Get().Shards}
	limit := req.Limit
	if limit <= 0 {
		limit = 1024
	}
	b.lockAll()
	defer b.unlockAll()
	last, more := -1, false
	b.walk(walkOpts{from: int(req.Cursor), stripe: allStripes, filter: filter}, func(r *resident) bool {
		if len(resp.Items) >= limit && r.bucket != last {
			resp.NextCursor, more = uint64(r.bucket), true
			return false
		}
		if key, ok := r.key(); ok {
			last = r.bucket
			resp.Items = append(resp.Items, proto.ScanItem{HashHi: r.Hash.Hi, HashLo: r.Hash.Lo, Version: r.Version, Key: key})
		}
		return true
	})
	if more {
		return resp
	}
	b.eachTombstone(filter, func(key []byte, h hashring.KeyHash, v truetime.Version) {
		resp.Items = append(resp.Items, proto.ScanItem{HashHi: h.Hi, HashLo: h.Lo, Version: v, Key: key, Tombstone: true})
	})
	// The coarse summary travels with the scan so repair peers can tell
	// "never saw this key" apart from "erased it, but the tombstone was
	// evicted into the summary" (§5.2).
	resp.TombSummary = b.tombSummary()
	resp.Done = true
	return resp
}
