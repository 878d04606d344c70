package cliquemap

// End-to-end tests for the hot-key adaptive serving loop: server-side
// promotion (heat sketch → promoted set), piggybacked promotion learning
// on Touch acks, and the one client switch (NearCacheEntries) that turns
// on the near-cache with quorum revalidation, per-key transport steering
// and data-read spreading.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// hammerUntilPromoted drives GETs on key until the client has learned a
// promotion (or the attempt budget runs out). Touch batches flush every
// TouchBatch hits, the backend re-evaluates its promoted set as those
// touches arrive, and the ack piggybacks the set back.
func hammerUntilPromoted(t *testing.T, cl *Client, key []byte, budget int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < budget; i++ {
		if _, ok, err := cl.Get(ctx, key); err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if cl.Internal().PromotedKeys() > 0 {
			return
		}
	}
	t.Fatalf("key never promoted after %d gets", budget)
}

// TestHotKeyNearCacheEndToEnd: hammering one key promotes it on the
// server, the promotion rides a Touch ack back, and subsequent GETs are
// served from the near-cache — validated by an index-only quorum round,
// still returning the correct value.
func TestHotKeyNearCacheEndToEnd(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32})
	cl := c.NewClient(ClientOptions{TouchBatch: 8, NearCacheEntries: 64})
	ctx := context.Background()
	key := []byte("hot-celebrity")
	if err := cl.Set(ctx, key, []byte("payload-v1")); err != nil {
		t.Fatal(err)
	}
	hammerUntilPromoted(t, cl, key, 2000)

	// The next GET fills the near-cache; the ones after serve from it.
	for i := 0; i < 10; i++ {
		v, ok, err := cl.Get(ctx, key)
		if err != nil || !ok || string(v) != "payload-v1" {
			t.Fatalf("post-promotion get: %q %v %v", v, ok, err)
		}
	}
	st := cl.Stats()
	if st.NearHits == 0 {
		t.Fatalf("no near-cache hits after promotion: %+v", st)
	}
}

// TestNearCacheStalenessProperty: the near-cache never serves a value a
// read quorum no longer vouches for. With a single sequential writer,
// every read issued after an acked overwrite must observe that overwrite
// (the revalidation quorum intersects the write's ack quorum), and an
// acked erase must read as a miss — never the cached corpse.
func TestNearCacheStalenessProperty(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32})
	reader := c.NewClient(ClientOptions{TouchBatch: 8, NearCacheEntries: 64})
	writer := c.NewClient(ClientOptions{})
	ctx := context.Background()
	key := []byte("hot-mutating")
	if err := writer.Set(ctx, key, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	hammerUntilPromoted(t, reader, key, 2000)

	for i := 1; i <= 50; i++ {
		want := []byte(fmt.Sprintf("v%d", i))
		if err := writer.Set(ctx, key, want); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		v, ok, err := reader.Get(ctx, key)
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(v, want) {
			t.Fatalf("stale read after acked overwrite: got %q want %q (near stats: %+v)",
				v, want, reader.Stats())
		}
	}
	// With the writer quiet, reads revalidate to the same version and the
	// near-cache serves.
	for i := 0; i < 5; i++ {
		v, ok, err := reader.Get(ctx, key)
		if err != nil || !ok || !bytes.Equal(v, []byte("v50")) {
			t.Fatalf("stable read: %q %v %v", v, ok, err)
		}
	}
	st := reader.Stats()
	if st.NearStale == 0 || st.NearHits == 0 {
		t.Fatalf("property test did not exercise both near paths: %+v", st)
	}
	if err := writer.Erase(ctx, key); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if v, ok, _ := reader.Get(ctx, key); ok {
			t.Fatalf("erased hot key resurrected from near-cache: %q", v)
		}
	}
}

// TestHotChurnRace is the promote/demote churn hammer, meant for -race:
// readers shift their heat between key groups (forcing promotion epochs
// to turn over) while a single writer per key mutates continuously. The
// oracle is per-key sequence monotonicity: with one sequential writer, a
// reader's observed sequence number must never regress — a regression
// would mean the near-cache served a value a quorum had already
// superseded.
func TestHotChurnRace(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32})
	ctx := context.Background()
	const nKeys = 4
	keys := make([][]byte, nKeys)
	seqs := make([]atomic.Uint64, nKeys)
	writer := c.NewClient(ClientOptions{})
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("churn-k%d", k))
		if err := writer.Set(ctx, keys[k], []byte(fmt.Sprintf("k%d.s0", k))); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan string, 16)

	// Writer: one goroutine owns all keys (sequential per key).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := i % nKeys
			s := seqs[k].Load() + 1
			if err := writer.Set(ctx, keys[k], []byte(fmt.Sprintf("k%d.s%d", k, s))); err == nil {
				seqs[k].Store(s)
			}
		}
	}()

	// Readers: each phase hammers a different key group so the promoted
	// set churns — keys heat up, get promoted, cool off, get demoted.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cl := c.NewClient(ClientOptions{TouchBatch: 4, NearCacheEntries: 16})
			last := make([]uint64, nKeys)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Phase-shifted focus: 3/4 of reads hit the phase's hot
				// key, the rest scatter.
				k := ((i / 400) + r) % nKeys
				if i%4 == 3 {
					k = i % nKeys
				}
				v, ok, err := cl.Get(ctx, keys[k])
				if err != nil || !ok {
					continue // churn can race an in-flight overwrite's window
				}
				var gk int
				var s uint64
				if n, serr := fmt.Sscanf(string(v), "k%d.s%d", &gk, &s); serr != nil || n != 2 || gk != k {
					fail <- fmt.Sprintf("reader %d: phantom value %q for key %d", r, v, k)
					return
				}
				if s < last[k] {
					fail <- fmt.Sprintf("reader %d: key %d seq regressed %d -> %d", r, k, last[k], s)
					return
				}
				last[k] = s
			}
		}(r)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Bounded by iterations via the writer's progress, not wall time:
	// let the writer push enough churn through, then stop everyone.
	for seqs[0].Load() < 500 {
		select {
		case msg := <-fail:
			close(stop)
			<-done
			t.Fatal(msg)
		default:
		}
	}
	close(stop)
	<-done
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
}
