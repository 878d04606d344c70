package client

// Remembered data pointers: where this client last read, wrote or saw
// each key's data. An R=3.2 2×R GET starts §5.1's speculative data read
// with the index reads when the table names the key's pointer, instead of
// at the first index answer: a warm hit pays one round trip, not two
// dependent ones. A slot is learned by the data read that served, by
// the client's own SET or swapped CAS, whose fastest ack names where its
// replica put the value (MutateResp.Ptr, outside a resize), or by any
// bucket read that names the key (learn); any other own mutation drops
// it. The read is kept only when its replica's index entry
// still names the pointer, and is validated like every data read —
// checksum, full key, the quorum's version — so a stale slot costs one
// wasted leg and never changes an answer.
//
// Only a client whose GETs take a dependent read holds a table: a 2×R
// client of an R=3.2 cell, from New. SCAR, MSG and RPC fetches carry the
// data with the index answer and never read it.

import (
	"sync/atomic"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/hashring"
	"cliquemap/internal/rmem"
)

// ptrSlots sizes the table to a client's hot set: 131 072 slots of 56 B
// are 7 MiB, about one per slot of mix_rw_1rma's 8 192 × 14 index. On
// mix_rw_1rma (Zipf 1.1 over 200 K keys, 40 % of the ops the client's own
// SETs and 5 % its CASes, 80 % of the GETs hits) the share of GETs that
// start warm, with the pointers bucket reads teach and without, is
//
//	slots     4 096   16 384  32 768  65 536  131 072  262 144
//	learning  63.9 %  71.7 %  74.5 %  76.4 %  77.5 %   78.0 %
//	without                   73.7 %          75.8 %
//
// A key's slot, like its bucket, is its hash's low bits, so the keys of
// one bucket share ptrSlots/8 192 slots: at 4 096 two buckets share each
// slot, which the client's own reads hold, and each doubling past 8 192
// gives every bucket twice the room.
const ptrSlots = 131072

// ptrTable is direct-mapped by the key hash's low bits. A slot is a hint:
// a reader that finds it mid-write, or a writer that finds another writer
// in it, gives up rather than wait.
type ptrTable [ptrSlots]ptrSlot

// ptrSlot is one remembered pointer under a seqlock: seq is odd while a
// writer fills the words. Every word is an atomic, so a reader racing a
// writer is no data race: it sees seq move and misses.
type ptrSlot struct {
	seq            atomic.Uint64
	hash           atomic.Uint64 // the key's KeyHash.Hi
	cfg            atomic.Uint64 // the config ID the pointer was read under
	shard          atomic.Uint64 // the replica that served it
	win, off, size atomic.Uint64 // the layout.Pointer; size 0 is an empty slot
}

// get returns the replica and pointer remembered for h under the config
// cfgID. A slot learned under another config is dropped.
func (t *ptrTable) get(h hashring.KeyHash, cfgID uint64) (shard int, p layout.Pointer, ok bool) {
	if t == nil {
		return 0, p, false
	}
	s := &t[h.Lo%ptrSlots]
	seq := s.seq.Load()
	if seq&1 != 0 {
		return 0, p, false
	}
	tag, cfg, sh := s.hash.Load(), s.cfg.Load(), s.shard.Load()
	p = layout.Pointer{Window: rmem.WindowID(s.win.Load()), Offset: s.off.Load(), Size: s.size.Load()}
	if s.seq.Load() != seq || tag != h.Hi || p.Size == 0 {
		return 0, layout.Pointer{}, false
	}
	if cfg != cfgID {
		t.drop(h)
		return 0, layout.Pointer{}, false
	}
	return int(sh), p, true
}

// put remembers that shard served h's data at p under the config cfgID.
func (t *ptrTable) put(h hashring.KeyHash, cfgID uint64, shard int, p layout.Pointer) {
	if t == nil {
		return
	}
	s := &t[h.Lo%ptrSlots]
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		return
	}
	s.hash.Store(h.Hi)
	s.cfg.Store(cfgID)
	s.shard.Store(uint64(shard))
	s.win.Store(uint64(p.Window))
	s.off.Store(p.Offset)
	s.size.Store(p.Size)
	s.seq.Store(seq + 2)
}

// learn remembers where each other key of a bucket that shard served
// under the config cfgID keeps its data: a bucket read carries every
// slot's pointer, so the first GET of a key whose bucket the client read
// starts warm. self is the key the read was for; its slot is the data
// read's to fill. A learned pointer goes only into an empty slot (or one
// learned under another config, which get drops) or refreshes the same
// key's pointer from the same replica: it never displaces another key's,
// and of a round's three buckets the first to reach an empty slot keeps it.
func (t *ptrTable) learn(b layout.RawBucket, self hashring.KeyHash, cfgID uint64, shard int) {
	if t == nil {
		return
	}
	for i, n := 0, b.Ways(); i < n; i++ {
		h := b.Hash(i)
		if h.Zero() || h == self {
			continue
		}
		s := &t[h.Lo%ptrSlots]
		live := s.size.Load() != 0 && s.cfg.Load() == cfgID
		if live && (s.hash.Load() != h.Hi || s.shard.Load() != uint64(shard)) {
			continue // another key's, or this key's from another replica
		}
		p := b.Entry(i).Ptr
		if live && s.win.Load() == uint64(p.Window) && s.off.Load() == p.Offset && s.size.Load() == p.Size {
			continue // unchanged: write nothing
		}
		t.put(h, cfgID, shard, p)
	}
}

// drop forgets h's pointer, if its slot holds one.
func (t *ptrTable) drop(h hashring.KeyHash) {
	if t != nil && t[h.Lo%ptrSlots].hash.Load() == h.Hi {
		t.put(h, 0, 0, layout.Pointer{})
	}
}

// remembered names the view whose replica the table remembers holding
// the key's data under the config cfgID, and the pointer, when a GET
// fetching with how can start its data read there with the index reads:
// the replica is resolved and its index leg carries no data.
// -1 when there is none.
func (c *Client) remembered(x *legExec, cfgID uint64, how legKind, views []indexView) (int, layout.Pointer) {
	shard, p, ok := c.ptrs.get(x.h, cfgID)
	for i := range views {
		if v := &views[i]; ok && v.err == nil && v.rep.shard == shard && how == legIndex {
			return i, p
		}
	}
	return -1, p
}
