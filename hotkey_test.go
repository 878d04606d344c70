package cliquemap

// End-to-end tests for hot-key adaptive serving: the one client switch
// (NearCacheEntries) turns on a near-cache that admits the keys hot in the
// client's own GETs and serves them after quorum revalidation.

import (
	"context"
	"fmt"
	"testing"

	"cliquemap/internal/core/client"
	"cliquemap/internal/drive"
	"cliquemap/internal/hashring"
	"cliquemap/internal/history"
)

// hammerUntilPromoted drives GETs on key until the client has promoted a
// key (or the attempt budget runs out): the client re-evaluates its
// promoted set from its own GET counts as they arrive.
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

// TestHotKeyNearCacheEndToEnd: hammering one key promotes it in the
// client, with or without access-record reporting, and subsequent GETs are
// served from the near-cache — validated by an index-only quorum round,
// still returning the correct value.
func TestHotKeyNearCacheEndToEnd(t *testing.T) {
	for _, touchBatch := range []int{8, 0} {
		t.Run(fmt.Sprintf("TouchBatch=%d", touchBatch), func(t *testing.T) {
			c := newCell(t, Options{Shards: 3, Mode: R32})
			cl := c.NewClient(ClientOptions{TouchBatch: touchBatch, NearCacheEntries: 64})
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
		})
	}
}

// TestNearCacheStalenessProperty: the near-cache never serves a value a
// read quorum no longer vouches for. Near-cache reads are held to the
// same versioned register as any other (internal/history): every read
// issued after an acked overwrite observes it (the revalidation quorum
// intersects the write's ack quorum), and an acked erase reads as a miss
// — never the cached corpse.
func TestNearCacheStalenessProperty(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32})
	rec := &history.Recorder{}
	pub := c.NewClient(ClientOptions{TouchBatch: 8, NearCacheEntries: 64})
	reader := history.Client{C: pub.Internal(), R: rec, ID: 1}
	writer := history.Client{C: c.NewClient(ClientOptions{}).Internal(), R: rec}
	ctx := context.Background()
	key := []byte("hot-mutating")
	if _, err := writer.SetVersioned(ctx, key, []byte("v0")); err != nil {
		t.Fatal(err)
	}
	hammerUntilPromoted(t, pub, key, 2000)

	for i := 1; i <= 50; i++ {
		if _, err := writer.SetVersioned(ctx, key, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
		if _, _, err := reader.Get(ctx, key); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	// With the writer quiet, reads revalidate to the same version and the
	// near-cache serves.
	for i := 0; i < 5; i++ {
		if _, _, err := reader.Get(ctx, key); err != nil {
			t.Fatalf("stable read: %v", err)
		}
	}
	st := pub.Stats()
	if st.NearStale == 0 || st.NearHits == 0 {
		t.Fatalf("property test did not exercise both near paths: %+v", st)
	}
	if err := writer.Erase(ctx, key); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		reader.Get(ctx, key)
	}
	checkRegister(t, rec, 0)
}

// TestHotChurnRace is the promote/demote churn hammer, meant for -race:
// readers shift their heat between key groups (turning their promoted sets
// over) while a writer mutates every key continuously. Every
// read, near-cache ones included, is held to the versioned register: a
// read older than an acked write or an earlier read would mean the
// near-cache served a value a quorum had already superseded.
func TestHotChurnRace(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32})
	ctx := context.Background()
	const nKeys = 4
	rec := &history.Recorder{}
	keys := make([][]byte, nKeys)
	writer := history.Client{C: c.NewClient(ClientOptions{}).Internal(), R: rec}
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("churn-k%d", k))
		if _, err := writer.SetVersioned(ctx, keys[k], []byte(fmt.Sprintf("k%d.s0", k))); err != nil {
			t.Fatal(err)
		}
	}

	// Readers: each phase hammers a different key group so the promoted
	// set churns — keys heat up, get promoted, cool off, get demoted.
	readers := drive.Group{Workers: 2, Worker: func(r int) drive.Op {
		cl := history.Client{C: c.Internal().NewClient(client.Options{TouchBatch: 4, NearCacheEntries: 16}), R: rec, ID: 1 + r}
		return func(i int) (uint64, error) {
			// Phase-shifted focus: 3/4 of reads hit the phase's hot key,
			// the rest scatter.
			k := ((i / 400) + r) % nKeys
			if i%4 == 3 {
				k = i % nKeys
			}
			_, _, err := cl.Get(ctx, keys[k]) // an error (churn racing an overwrite's window) observes nothing
			return 0, err
		}
	}}

	// Bounded by the writer's progress, not wall time: 500 rounds over
	// every key push enough churn through.
	drive.Run(ctx, func() {
		for i := nKeys; i < 501*nKeys; i++ {
			writer.SetVersioned(ctx, keys[i%nKeys], []byte(fmt.Sprintf("k%d.s%d", i%nKeys, i/nKeys)))
		}
	}, readers)
	checkRegister(t, rec, 0)
}

// TestNearCacheHoldsPastLaggingPrimary: a near-cache entry is revalidated
// by a read quorum, never by whichever replica answers first. The key's
// primary refuses RPCs while a SET of v2 acks on the other two replicas,
// so the primary's index still holds v1, the cached version; a
// revalidation that trusted one answer could reconfirm v1 until a repair
// sweep ran. The next GET must find the version moved and read v2.
func TestNearCacheHoldsPastLaggingPrimary(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32})
	rec := &history.Recorder{}
	pub := c.NewClient(ClientOptions{NearCacheEntries: 8})
	reader := history.Client{C: pub.Internal(), R: rec, ID: 1}
	writer := history.Client{C: c.NewClient(ClientOptions{}).Internal(), R: rec}
	ctx := context.Background()
	key := []byte("hot-lagging")
	if _, err := writer.SetVersioned(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	hammerUntilPromoted(t, pub, key, 2000)
	if v, _, err := reader.Get(ctx, key); err != nil || string(v) != "v1" || pub.Stats().NearHits == 0 {
		t.Fatalf("cached read: %q err=%v, %+v: want a near hit on v1", v, err, pub.Stats())
	}

	primary := int(hashring.DefaultHash(key).Hi % uint64(c.Internal().Shards()))
	c.Internal().SetRPCFailRate(primary, 1, 1)
	_, err := writer.SetVersioned(ctx, key, []byte("v2"))
	c.Internal().SetRPCFailRate(primary, 0, 1)
	if err != nil {
		t.Fatalf("set v2 with the primary refusing RPCs: %v", err)
	}

	stale := pub.Stats().NearStale
	if v, found, err := reader.Get(ctx, key); err != nil || !found || string(v) != "v2" {
		t.Fatalf("read after the overwrite: %q found=%v err=%v, want v2", v, found, err)
	}
	if pub.Stats().NearStale == stale {
		t.Error("the read after the overwrite counted no stale near entry")
	}
	checkRegister(t, rec, 0)
}
