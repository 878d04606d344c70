package cliquemap

import (
	"context"
	"fmt"
	"testing"

	"cliquemap/internal/core/client"
	"cliquemap/internal/drive"
	"cliquemap/internal/history"
)

// TestResizeGrowUnderLoad grows a live cell 4→6 shards while mixed
// SET/GET load, two writers per key, runs against it, then reads every key
// back through a fresh client and checks the whole history — the
// tentpole's zero-lost-acked-writes claim.
func TestResizeGrowUnderLoad(t *testing.T) {
	c := newCell(t, Options{Shards: 4, Spares: 2, Mode: R32})
	rec := &history.Recorder{}
	const workers = 4
	ctx := context.Background()

	// Seed a corpus before the resize.
	seed := history.Client{C: c.NewClient(ClientOptions{Strategy: LookupSCAR}).Internal(), R: rec, ID: workers}
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("pre-%03d", i))
		if _, err := seed.SetVersioned(ctx, k, []byte(fmt.Sprintf("v0-%03d", i))); err != nil {
			t.Fatalf("seed set %s: %v", k, err)
		}
	}

	// Mixed load concurrent with the resize: workers w and w+2 share keys.
	load := drive.Group{Workers: workers, Worker: func(w int) drive.Op {
		h := history.Client{C: c.Internal().NewClient(client.Options{}), R: rec, ID: w}
		return func(i int) (uint64, error) {
			k := []byte(fmt.Sprintf("live-%d-%03d", w%2, i%50))
			h.SetVersioned(ctx, k, []byte(fmt.Sprintf("w%d-i%d", w, i)))
			if i%3 == 0 {
				h.Get(ctx, k)
			}
			return 0, nil
		}
	}}
	drive.Run(ctx, func() {
		if err := c.Resize(ctx, 6); err != nil {
			t.Fatalf("resize 4→6: %v", err)
		}
	}, load)

	if got := c.Shards(); got != 6 {
		t.Fatalf("shards after resize = %d, want 6", got)
	}

	// Every key reads back through a fresh client in the new epoch.
	check := history.Client{C: c.Internal().NewClient(client.Options{}), R: rec, ID: workers + 1}
	if err := check.ReadAll(ctx, c.RepairAll); err != nil {
		t.Fatal(err)
	}
	// An evicted key may read as a miss: the cell is sized to evict nothing.
	if n := c.Stats().Evictions; n > 0 {
		t.Fatalf("the cell evicted %d entries: sizing blunts the history check", n)
	}
	checkRegister(t, rec, 0)
}

// TestResizeShrinkAndRegrow shrinks 4→3 (dropping a task back to spare
// duty) and then grows 3→5 reusing it, verifying the corpus survives
// both directions.
func TestResizeShrinkAndRegrow(t *testing.T) {
	c := newCell(t, Options{Shards: 4, Spares: 1, Mode: R32})
	cl := c.NewClient(ClientOptions{})
	ctx := context.Background()

	const keys = 120
	for i := 0; i < keys; i++ {
		if err := cl.Set(ctx, []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatalf("set: %v", err)
		}
	}

	if err := c.Resize(ctx, 3); err != nil {
		t.Fatalf("shrink 4→3: %v", err)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%03d", i)
		v, ok, err := cl.Get(ctx, []byte(k))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("after shrink, %s: %q %v %v", k, v, ok, err)
		}
	}

	// The dropped task and the original spare both count as capacity now.
	if err := c.Resize(ctx, 5); err != nil {
		t.Fatalf("grow 3→5: %v", err)
	}
	if got := c.Shards(); got != 5 {
		t.Fatalf("shards = %d, want 5", got)
	}
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("k%03d", i)
		v, ok, err := cl.Get(ctx, []byte(k))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%03d", i) {
			t.Fatalf("after regrow, %s: %q %v %v", k, v, ok, err)
		}
	}
}

// TestResizeErasesSurvive checks the tombstone path: keys erased before
// and during a resize stay erased afterwards (no resurrection through
// the migration stream).
func TestResizeErasesSurvive(t *testing.T) {
	c := newCell(t, Options{Shards: 4, Spares: 2, Mode: R32})
	cl := c.NewClient(ClientOptions{})
	ctx := context.Background()

	const keys = 80
	for i := 0; i < keys; i++ {
		if err := cl.Set(ctx, []byte(fmt.Sprintf("e%03d", i)), []byte("doomed")); err != nil {
			t.Fatalf("set: %v", err)
		}
	}
	for i := 0; i < keys; i += 2 {
		if err := cl.Erase(ctx, []byte(fmt.Sprintf("e%03d", i))); err != nil {
			t.Fatalf("erase: %v", err)
		}
	}

	if err := c.Resize(ctx, 6); err != nil {
		t.Fatalf("resize: %v", err)
	}

	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("e%03d", i)
		_, ok, err := cl.Get(ctx, []byte(k))
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if i%2 == 0 && ok {
			t.Errorf("erased key %s resurrected by resize", k)
		}
		if i%2 == 1 && !ok {
			t.Errorf("surviving key %s lost by resize", k)
		}
	}
}

// TestResizeShrinkDropsDepartedTouchQueue: a touching client queues access
// records per backend address. After a 4→3 shrink the demoted task serves
// no shard, so nothing would ever fill its queue to the flush threshold
// again — the records must go when the client refreshes its config, not sit
// there for good while every FlushTouches reports them to a spare.
func TestResizeShrinkDropsDepartedTouchQueue(t *testing.T) {
	c := newCell(t, Options{Shards: 4, Mode: R32})
	cc := c.Internal()
	cl := c.NewClient(ClientOptions{Strategy: Lookup2xR, TouchBatch: 64})
	ctx := context.Background()

	// Few enough hits that no queue reaches the threshold on its own,
	// enough that every backend's holds some.
	hitAll := func() {
		t.Helper()
		for i := 0; i < 20; i++ {
			k := []byte(fmt.Sprintf("touched-%02d", i))
			if _, ok, err := cl.Get(ctx, k); err != nil || !ok {
				t.Fatalf("get %s: found=%v err=%v", k, ok, err)
			}
		}
	}
	for i := 0; i < 20; i++ {
		if err := cl.Set(ctx, []byte(fmt.Sprintf("touched-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	hitAll()
	departed := cc.BackendByAddr(cc.Store.Get().ShardAddrs[3])
	if err := c.Resize(ctx, 3); err != nil {
		t.Fatalf("resize 4→3: %v", err)
	}
	hitAll() // trips the config stamp: the client refreshes into the 3-shard epoch

	before := departed.CountersSnapshot().Touches
	cl.Internal().FlushTouches(ctx)
	if got := departed.CountersSnapshot().Touches - before; got != 0 {
		t.Errorf("FlushTouches reported %d access records to %s, which serves no shard since the shrink", got, departed.Addr())
	}
}
