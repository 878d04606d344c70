package backend

// The mutation core: lookup, the version gate, the one write sequence
// behind SET and CAS, ERASE, install (a corpus item as the write or erase
// it records), eviction, and publish — the
// single point where an applied mutation becomes visible to the tombstone
// cache, the handoff journal and the durable journal.

import (
	"fmt"
	"sync"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/hashring"
	"cliquemap/internal/slab"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// lookup finds key's stored entry in the index or the side shard; the
// key's stripe lock (s) is held. The entry is a view — of *buf, into which
// an indexed entry is read, or of the side shard's bytes, which are never
// rewritten in place — and its Value is as stored, possibly compressed.
// Finding nothing, err says why an indexed entry could not be read.
func (b *Backend) lookup(s *stripe, h hashring.KeyHash, key []byte, buf *[]byte) (de layout.DataEntry, found bool, err error) {
	idx := b.idx.Load()
	if e, _, ok := idx.bucket(idx.bucketOf(h)).Find(h); ok {
		if de, err = b.readEntry(e, buf); err == nil && string(de.Key) == string(key) {
			return de, true, nil
		}
	}
	if se, ok := s.side[h]; ok && string(se.key) == string(key) {
		return layout.DataEntry{Key: key, Value: se.value, Version: se.version}, true, nil
	}
	return layout.DataEntry{}, false, err
}

// view is the read both two-sided lookups and get share: count it, note
// the key's heat, and look the key up under its stripe lock into *buf.
func (b *Backend) view(sink *trace.SpanSink, key []byte, buf *[]byte) (layout.DataEntry, bool, error) {
	h := b.opt.Hash(key)
	s := b.stripeOf(h)
	s.ctr.gets.Add(1)
	b.noteHeat(key, h)
	lockStripe(s, sink)
	defer s.unlock()
	return b.lookup(s, h, key, buf)
}

// get returns key's client-visible value as the caller's own copy: repair
// reads, handoff, tests. The RPC/MSG lookup path encodes a view instead
// (serveGet).
func (b *Backend) get(sink *trace.SpanSink, key []byte) (value []byte, ver truetime.Version, found bool) {
	bp := dataBufs.Get().(*[]byte)
	defer dataBufs.Put(bp)
	de, found, _ := b.view(sink, key, bp) // damaged reads as absent: repair rewrites it
	if !found {
		return nil, truetime.Version{}, false
	}
	value, err := de.MaterializeValue()
	return value, de.Version, err == nil
}

// precond is what an install needs beyond a version above the key's bound:
// a CAS needs the bound to equal expected.
type precond struct {
	cas      bool
	expected truetime.Version
}

// versionGate is the check every mutation passes under its stripe lock —
// installs pass it twice, before preparing the entry and again under the
// lock that publishes it. The key's bound is its stored version when it is
// resident (in raw's bucket or the side shard), else its tombstone bound
// (§5.2); pre must hold and v must exceed the bound. A failed precondition
// is not a version reject.
func (b *Backend) versionGate(s *stripe, raw layout.RawBucket, key []byte, h hashring.KeyHash, v truetime.Version, pre precond) (bound truetime.Version, ok bool) {
	e, _, resident := raw.Find(h)
	if bound = e.Version; !resident {
		var se sideEntry
		if se, resident = s.side[h]; resident {
			bound = se.version
		} else {
			bound, _ = b.tombBound(h, key)
		}
	}
	if pre.cas && bound != pre.expected {
		return bound, false
	}
	if !bound.Less(v) {
		s.ctr.versionRejects.Add(1)
		return bound, false
	}
	return bound, true
}

// dataBufs pools DataEntry-sized scratch: the mutation path encodes into
// one, the lookup paths read into one, and neither allocates for it.
var dataBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeEntry encodes and stores a DataEntry, compressing the value when
// configured and worthwhile, and returns its pointer and the number of
// evictions the allocation performed. Must be called with NO stripe lock
// held: allocation may evict, which locks a victim's stripe. The body is
// written in chunks — the §5.3 tearing window is real.
func (b *Backend) writeEntry(dr *dataRegion, key, value []byte, v truetime.Version) (layout.Pointer, int, error) {
	stored, compressed := value, false
	if b.opt.CompressThreshold > 0 && len(value) >= b.opt.CompressThreshold {
		stored, compressed = layout.CompressValue(value)
	}
	need := layout.DataEntrySize(len(key), len(stored))
	ref, evictions, err := b.allocWithEviction(dr, need)
	if err != nil {
		return layout.Pointer{}, evictions, err
	}
	ptr := layout.Pointer{Window: dr.current().ID, Offset: uint64(ref.Offset), Size: uint64(need)}
	bp := dataBufs.Get().(*[]byte)
	defer dataBufs.Put(bp)
	if cap(*bp) < need {
		*bp = make([]byte, need+need/2)
	}
	buf := (*bp)[:need]
	layout.EncodeDataEntryFlagged(buf, key, stored, v, compressed)
	if werr := dr.region.WriteChunked(ref.Offset, buf); werr != nil {
		dr.free(ptr)
		return layout.Pointer{}, evictions, werr
	}
	return ptr, evictions, nil
}

// allocWithEviction carves space: growing the data region at the §4.1 high
// watermark, else evicting the policy's victim, and — when that victim's
// chunk was of another class and no slab has emptied, so the region is
// calcified rather than full — repurposing a slab (drainSlab). A drain only
// ever follows an eviction, so the loop makes room or fails. No stripe lock
// may be held by the caller.
func (b *Backend) allocWithEviction(dr *dataRegion, need int) (slab.Ref, int, error) {
	evictions, wrongClass := 0, false
	for {
		ref, err := dr.alloc.Alloc(need)
		switch {
		case err == nil:
			b.maybeGrow(dr)
			return ref, evictions, nil
		case err != slab.ErrNoCapacity:
			return slab.Ref{}, evictions, err
		case b.grow(dr):
			// Growth is preferred over eviction while headroom remains.
		case wrongClass:
			evictions += b.drainSlab(dr)
			wrongClass = false
		default:
			freed, ok := b.evictOne()
			if !ok {
				return slab.Ref{}, evictions, slab.ErrNoCapacity
			}
			evictions++
			wrongClass = freed != 0 && slab.ClassSize(freed) != slab.ClassSize(need)
		}
	}
}

// evictOne removes one policy-chosen victim (capacity conflict), trying
// stripes round-robin, and returns the size of the DataEntry that freed (0
// for a side-shard victim). Must be called with NO stripe lock held. ok is
// false if nothing is evictable.
func (b *Backend) evictOne() (freed int, ok bool) {
	start := b.evictCursor.Add(1)
	n := uint64(len(b.stripes))
	for i := uint64(0); i < n; i++ {
		s := &b.stripes[(start+i)%n]
		s.mu.Lock()
		victim, found := s.policy.Victim()
		if found {
			freed = b.removeLocked(s, victim)
			s.ctr.capacityEvictions.Add(1)
		}
		s.unlock()
		if found {
			return freed, true
		}
	}
	return 0, false
}

// removeLocked drops the key hashing to h from the index, the side shard and
// the eviction policy, and returns the size of the DataEntry it freed (0 if
// the key was not indexed); the key's stripe lock (s) is held.
func (b *Backend) removeLocked(s *stripe, h hashring.KeyHash) (freed int) {
	idx := b.idx.Load()
	bucket := idx.bucketOf(h)
	if e, slot, ok := idx.bucket(bucket).Find(h); ok {
		b.clearSlot(idx, bucket, slot, e)
		freed = int(e.Ptr.Size)
	}
	delete(s.side, h)
	s.policy.Remove(h)
	return freed
}

// ApplySet installs a KV pair directly (bulk loaders and tests); normal
// traffic arrives via the SET RPC handler. An entry that could not be
// stored reads as not applied.
func (b *Backend) ApplySet(key, value []byte, v truetime.Version) (applied bool, stored truetime.Version, evictions int) {
	applied, stored, evictions, _ = b.set(nil, key, value, v, precond{})
	return applied, stored, evictions
}

// ApplyErase erases a key directly (model checking and tests); normal
// traffic arrives via the ERASE RPC handler.
func (b *Backend) ApplyErase(key []byte, v truetime.Version) (applied bool, stored truetime.Version) {
	return b.erase(nil, key, v)
}

// ApplyCas compare-and-swaps directly (stress tests); normal traffic
// arrives via the CAS RPC handler. As for ApplySet, an entry that could not
// be stored reads as not applied.
func (b *Backend) ApplyCas(key, value []byte, expected, v truetime.Version) (applied bool, stored truetime.Version) {
	applied, stored, _, _ = b.set(nil, key, value, v, precond{cas: true, expected: expected})
	return applied, stored
}

// set is the SET RPC's core (§3, §5.2) and, with pre.cas, the CAS RPC's:
// a version-gated install with eviction under capacity and associativity
// conflicts, counted as a SET or as a CAS, never both. err (wrapping
// proto.ErrNotStored) reports an entry the data region could not take.
func (b *Backend) set(sink *trace.SpanSink, key, value []byte, v truetime.Version, pre precond) (applied bool, stored truetime.Version, evictions int, err error) {
	h := b.opt.Hash(key)
	s := b.stripeOf(h)
	ops, done := &s.ctr.sets, &s.ctr.setsApplied
	if pre.cas {
		ops, done = &s.ctr.casOps, &s.ctr.casApplied
	}
	ops.Add(1)
	b.noteHeat(key, h)
	if applied, stored, evictions, err = b.gatedWrite(sink, s, h, key, value, v, pre); applied {
		done.Add(1)
	}
	return applied, stored, evictions, err
}

// gatedWrite is the one write sequence: gate → unlock → allocate+write →
// relock → re-gate → publish. Allocation can evict (locking other stripes)
// and performs the chunked body write, so it must not run under this key's
// stripe lock. The second gate after relocking restores atomicity: if a
// concurrent mutation moved the version bound past v or broke pre, the
// prepared entry is discarded exactly as if the first gate had failed. An
// entry the data region cannot take (past the largest slab class, or
// nothing left to evict) fails with proto.ErrNotStored.
func (b *Backend) gatedWrite(sink *trace.SpanSink, s *stripe, h hashring.KeyHash, key, value []byte, v truetime.Version, pre precond) (applied bool, stored truetime.Version, evictions int, err error) {
	for {
		lockStripe(s, sink)
		idx := b.idx.Load()
		bound, ok := b.versionGate(s, idx.bucket(idx.bucketOf(h)), key, h, v, pre)
		dr := b.data.Load()
		s.unlock()
		if !ok {
			return false, bound, evictions, nil
		}

		ptr, ev, err := b.writeEntry(dr, key, value, v)
		evictions += ev
		if err != nil {
			return false, bound, evictions, fmt.Errorf("%w: %w", proto.ErrNotStored, err)
		}

		lockStripe(s, sink)
		if b.data.Load() != dr {
			// A compact-restart swapped the data region underneath the
			// allocation; discard and redo against the new region.
			s.unlock()
			dr.free(ptr)
			continue
		}
		idx = b.idx.Load() // may have resized while unlocked
		bucket := idx.bucketOf(h)
		raw := idx.bucket(bucket)
		if bound, ok = b.versionGate(s, raw, key, h, v, pre); ok {
			ok = b.place(s, idx, bucket, raw, layout.IndexEntry{Hash: h, Version: v, Ptr: ptr}, key, value)
		}
		if !ok {
			s.unlock()
			dr.free(ptr)
			return false, bound, evictions, nil
		}
		s.policy.Add(h)
		b.publish(h, proto.MigrateItem{Key: key, Value: value, Version: v})
		s.unlock()
		b.maybeResizeIndex()
		b.maybeCheckpoint()
		return true, v, evictions, nil
	}
}

// place puts a prepared entry where readers will find it: over the key's
// current slot, else into an empty one, else — an associativity conflict —
// into the RPC side shard (§4.2, freeing the prepared DataEntry) or over
// the bucket's oldest-versioned entry. False means the bucket could not
// take it. The bucket's stripe lock (s) is held.
func (b *Backend) place(s *stripe, idx *indexRegion, bucket int, raw layout.RawBucket, e layout.IndexEntry, key, value []byte) bool {
	_, slot, ok := raw.Find(e.Hash)
	if !ok {
		slot, ok = emptySlot(raw)
	}
	if !ok && b.opt.OverflowFallback {
		b.data.Load().free(e.Ptr)
		s.side[e.Hash] = newSideEntry(key, value, e.Version)
		b.stampBucket(idx, bucket, layout.OverflowFlag)
		s.ctr.overflows.Add(1)
		return true
	}
	if !ok {
		var victim layout.IndexEntry
		if victim, slot, ok = victimSlot(raw); !ok {
			return false
		}
		// The victim shares this bucket, hence this stripe.
		s.policy.Remove(victim.Hash)
		b.clearSlot(idx, bucket, slot, victim)
		s.ctr.assocEvictions.Add(1)
	}
	b.putSlot(idx, bucket, slot, e)
	delete(s.side, e.Hash)
	return true
}

// erase is the ERASE RPC's core (§5.2).
func (b *Backend) erase(sink *trace.SpanSink, key []byte, v truetime.Version) (applied bool, stored truetime.Version) {
	h := b.opt.Hash(key)
	s := b.stripeOf(h)
	s.ctr.erases.Add(1)
	b.noteHeat(key, h)
	lockStripe(s, sink)
	idx := b.idx.Load()
	if bound, ok := b.versionGate(s, idx.bucket(idx.bucketOf(h)), key, h, v, precond{}); !ok {
		s.unlock()
		return false, bound
	}
	b.removeLocked(s, h)
	s.ctr.erasesApplied.Add(1)
	b.publish(h, proto.MigrateItem{Key: key, Version: v, Tombstone: true})
	s.unlock()
	b.maybeCheckpoint()
	return true, v
}

// publish is the one publication point. Every applied mutation — insert,
// overwrite, overflow to the side shard, associativity-evicting insert,
// erase, version rewrite — calls it exactly once, under the key's stripe
// lock, after the index/side-shard change and before the lock is released
// (hence before the ack). That lock orders its three notes against the
// handoff seal barrier and the checkpoint rotation barrier, which both
// take every stripe. it.Value is the client-visible (uncompressed) bytes.
// The checkpoint trigger is not a note: it takes every stripe, so the
// caller runs it after releasing this one (maybeCheckpoint).
func (b *Backend) publish(h hashring.KeyHash, it proto.MigrateItem) {
	b.tombPublish(it.Tombstone, h, it.Key, it.Version)
	b.journalNote(it.Key)
	b.persistNote(it)
}

// install applies one corpus item — a migration frame's, a recovered
// checkpoint or journal record, a compact-restart survivor — as the write
// or erase it records. The version gate makes every re-application
// idempotent and order-tolerant.
func (b *Backend) install(it proto.MigrateItem) {
	if it.Tombstone {
		b.erase(nil, it.Key, it.Version)
	} else {
		b.set(nil, it.Key, it.Value, it.Version, precond{})
	}
}
