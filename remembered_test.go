package cliquemap

// Remembered-pointer stress: a 2×R reader on an R=3.2 cell starts a key's
// data read with its index reads when it remembers where it read the
// key's data before (internal/core/client/ptrs.go). This test moves those
// pointers under the readers every way the cell can — other clients' SETs
// and ERASEs, the readers' own SETs (whose acks name where each replica put
// the value; the reader GETs the key next), evictions and slab drains in
// data regions a fraction of the corpus, and a 3→4 resize step mid-run — and
// checks every op against a versioned register with internal/history: a
// pointer gone stale may cost a wasted read, never an answer. Each hot key
// has one writer: an eviction forgets a key's version, so a second
// writer's older SET still in flight could land after it and read back as
// a stale value with no remembered pointer involved.
//
// Run with `go test -race -count=20 -run TestRememberedPointersStayFresh .`.

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"cliquemap/internal/core/client"
	"cliquemap/internal/drive"
	"cliquemap/internal/history"
)

const (
	ptrHotKeys  = 32
	ptrColdOps  = 1500 // the cold writer's SETs: the run's length
	ptrResizeAt = 300  // reader GETs before the resize starts
	ptrWriters  = 2    // other clients; writer w has history ID ptrWriterID+w
	ptrWriterID = 10
)

// ptrValue is a value of hot key k unique to writer w's i-th write, sized
// from 100 B to about 3 KiB so entries change slab class.
func ptrValue(k, w, i int) []byte {
	v := make([]byte, 100<<uint((k+w+i)%6))
	n := copy(v, fmt.Sprintf("hot-%02d#w%d#%06d#", k, w, i))
	for j := n; j < len(v); j++ {
		v[j] = byte(i + j)
	}
	return v
}

func TestRememberedPointersStayFresh(t *testing.T) {
	t.Run("pony", func(t *testing.T) { rememberedPointerStress(t, PonyExpress, Lookup2xR) })
	t.Run("1rma", func(t *testing.T) { rememberedPointerStress(t, OneRMA, Lookup2xR, LookupSCAR) })
}

func rememberedPointerStress(t *testing.T, transport Transport, strategies ...Strategy) {
	c := newCell(t, Options{
		Shards: 3, Spares: 1, Mode: R32, Transport: transport,
		DataBytes: 1 << 20, DataMaxBytes: 1 << 20, DisableReshaping: true,
	})
	ctx := context.Background()
	rec := &history.Recorder{}
	key := func(k int) []byte { return []byte(fmt.Sprintf("ptr-hot-%02d", k)) }

	// Hot key k's one writer is k mod the writers: the other clients first,
	// then the readers. pick draws one of writer o's keys.
	writers := ptrWriters + len(strategies)
	pick := func(rng *rand.Rand, o int) int { return o + writers*rng.Intn(ptrHotKeys/writers) }

	// Readers, one per strategy: GETs skewed to a few keys, so most find
	// their pointer remembered, and every 16th op a SET of one of their own,
	// whose key the next op GETs from the pointer the SET's ack named.
	readers := make([]*client.Client, len(strategies))
	var gets, hits, ownWarm atomic.Uint64
	readGroup := drive.Group{Workers: len(strategies), Worker: func(w int) drive.Op {
		readers[w] = c.Internal().NewClient(client.Options{ID: uint64(1 + w), Strategy: strategies[w].internal()})
		h := history.Client{C: readers[w], R: rec, ID: w}
		rng := rand.New(rand.NewSource(int64(w + 1)))
		own := -1 // the key this reader SET on its last op
		return func(i int) (uint64, error) {
			if i%16 == 15 {
				own = pick(rng, ptrWriters+w)
				h.SetVersioned(ctx, key(own), ptrValue(own, w, i))
				return 0, nil
			}
			k, warm := rng.Intn(ptrHotKeys)&rng.Intn(ptrHotKeys), readers[w].M.WarmReads.Value()
			if own >= 0 {
				k = own
			}
			if _, found, err := h.Get(ctx, key(k)); err == nil && found {
				hits.Add(1)
			}
			if own >= 0 && readers[w].M.WarmReads.Value() > warm {
				ownWarm.Add(1)
			}
			own = -1
			gets.Add(1)
			return 0, nil
		}
	}}

	// Writers: other clients' SETs and ERASEs of their keys.
	writeGroup := drive.Group{Workers: ptrWriters, Worker: func(w int) drive.Op {
		id := ptrWriterID + w
		h := history.Client{C: c.Internal().NewClient(client.Options{ID: uint64(id)}), R: rec, ID: id}
		rng := rand.New(rand.NewSource(int64(id)))
		return func(i int) (uint64, error) {
			k := pick(rng, w)
			if rng.Intn(4) == 0 {
				h.Erase(ctx, key(k))
			} else {
				h.SetVersioned(ctx, key(k), ptrValue(k, id, i))
			}
			return 0, nil
		}
	}}

	// The cold writer: fresh keys of mixed sizes that keep the regions
	// evicting and draining. It bounds the run.
	cold := drive.Group{Ops: ptrColdOps, Worker: func(int) drive.Op {
		cl := c.NewClient(ClientOptions{})
		rng := rand.New(rand.NewSource(99))
		buf := make([]byte, 8<<10)
		return func(i int) (uint64, error) {
			cl.Set(ctx, []byte(fmt.Sprintf("ptr-cold-%05d", i)), buf[:256<<uint(rng.Intn(5))])
			return 0, nil
		}
	}}

	drive.Run(ctx, func() {
		for gets.Load() < ptrResizeAt {
			time.Sleep(time.Millisecond)
		}
		if err := c.Resize(ctx, 4); err != nil {
			t.Errorf("resize 3→4: %v", err)
		}
	}, readGroup, writeGroup, cold)

	if got := c.Shards(); got != 4 {
		t.Fatalf("shards after the resize = %d, want 4", got)
	}
	var warm, stale uint64
	for _, cl := range readers {
		warm += cl.M.WarmReads.Value()
		stale += cl.M.StalePointers.Value()
	}
	evicted := c.Stats().Evictions
	if warm == 0 || stale == 0 || evicted == 0 || hits.Load() == 0 || ownWarm.Load() == 0 {
		t.Fatalf("warm reads %d (%d after the reader's own SET), stale pointers %d, evictions %d, hits %d: the run moved no pointer under a reader",
			warm, ownWarm.Load(), stale, evicted, hits.Load())
	}
	check := history.Client{C: c.Internal().NewClient(client.Options{ID: 99}), R: rec, ID: 99}
	if err := check.ReadAll(ctx, c.RepairAll); err != nil {
		t.Fatal(err)
	}
	checkRegister(t, rec, evicted)
}
