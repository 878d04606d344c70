package client

// Remembered data pointers: where this client last read or wrote each
// key's data. An R=3.2 2×R GET starts §5.1's speculative data read
// with the index reads when the table names the key's pointer, instead of
// at the first index answer: a warm hit pays one round trip, not two
// dependent ones. A slot is learned by the data read that served, or by
// the client's own SET or swapped CAS, whose fastest ack names where its
// replica put the value (MutateResp.Ptr, outside a resize); any other own
// mutation drops it. The read is kept only when its replica's index entry
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

// ptrSlots sizes the table to a client's hot set: 32 768 slots of 56 B
// are 1.75 MiB. On mix_rw_1rma (Zipf 1.1 over 200 K keys, 40 % of the ops
// the client's own SETs and 5 % its CASes, 80 % of the GETs hits) the
// share of GETs that start warm is
//
//	slots   4 096   16 384  32 768  65 536  131 072
//	warm    63.9 %  70.9 %  72.9 %  74.0 %  74.8 %
//
// Past 32 768 each doubling adds about a point.
const ptrSlots = 32768

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

// drop forgets h's pointer, if its slot holds one.
func (t *ptrTable) drop(h hashring.KeyHash) {
	if t != nil && t[h.Lo%ptrSlots].hash.Load() == h.Hi {
		t.put(h, 0, 0, layout.Pointer{})
	}
}

// remembered names the view whose replica the table remembers holding
// the key's data under the config cfgID, and the pointer, when a GET
// fetching with how can start its data read there with the index reads:
// the replica is resolved, not demoted, and its index leg carries no data.
// -1 when there is none.
func (c *Client) remembered(x *legExec, cfgID uint64, how legKind, views []indexView) (int, layout.Pointer) {
	shard, p, ok := c.ptrs.get(x.h, cfgID)
	for i := range views {
		if v := &views[i]; ok && v.err == nil && v.rep.shard == shard && how == legIndex && !c.replicaDemoted(v.rep.addr) {
			return i, p
		}
	}
	return -1, p
}
