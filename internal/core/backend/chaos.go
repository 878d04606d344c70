package backend

import (
	"math/rand"

	"cliquemap/internal/core/layout"
)

// CorruptEntries flips one random bit in up to n distinct live DataEntries
// and returns the keys of the entries it damaged. It is the chaos plane's
// registered-memory corruption actuator: the flip lands through the data
// region's stripe locks (rmem.FlipBit), so it models a silent DRAM/DMA
// corruption rather than a Go-level race, and the only defense is the §3
// self-validating checksum on the read path.
//
// Buckets are visited in a seeded random order, one victim entry per
// bucket, each selected and flipped under its bucket's stripe lock so the
// index entry cannot be freed or rewritten between selection and flip. An
// entry that is already undecodable is skipped (its key is unknowable);
// callers therefore get back exactly the set of keys whose stored bytes
// went from valid to corrupt in this call.
func (b *Backend) CorruptEntries(n int, seed uint64) [][]byte {
	if n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(int64(seed)))

	var keys [][]byte
	idx := b.idx.Load()
	for _, bucket := range rng.Perm(idx.geo.Buckets) {
		if len(keys) >= n {
			break
		}
		s := &b.stripes[uint64(bucket)%b.nStripes]
		s.mu.Lock()
		// Re-load under the lock: a concurrent resize swaps the index under
		// all stripe locks, so the bucket number may no longer be valid.
		cur := b.idx.Load()
		if cur != idx && bucket >= cur.geo.Buckets {
			s.unlock()
			continue
		}
		key := b.corruptOneLocked(cur.bucket(bucket), rng)
		s.unlock()
		if key != nil {
			keys = append(keys, key)
		}
	}
	return keys
}

// corruptOneLocked picks one decodable live entry in the raw bucket and
// flips a random bit inside its stored DataEntry. Caller holds the
// bucket's stripe lock. Returns the damaged entry's key, or nil.
func (b *Backend) corruptOneLocked(raw layout.RawBucket, rng *rand.Rand) []byte {
	for _, slot := range rng.Perm(raw.Ways()) {
		e := raw.Entry(slot)
		if e.Ptr.Nil() {
			continue
		}
		w, werr := b.reg.Lookup(e.Ptr.Window)
		if werr != nil {
			continue
		}
		stored, rerr := w.Region.Read(int(e.Ptr.Offset), int(e.Ptr.Size))
		if rerr != nil {
			continue
		}
		de, derr := layout.DecodeDataEntry(stored)
		if derr != nil {
			continue // already corrupt; key unknowable
		}
		off := int(e.Ptr.Offset) + rng.Intn(int(e.Ptr.Size))
		if w.Region.FlipBit(off, 1<<uint(rng.Intn(8))) != nil {
			continue
		}
		return append([]byte(nil), de.Key...)
	}
	return nil
}
