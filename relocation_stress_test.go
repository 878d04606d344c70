package cliquemap

// Relocation stress: slab drains move entries behind their readers (a drain
// rewrites an index slot with the same hash and version and a new pointer),
// so this test keeps small data regions permanently calcified — mixed-size
// writers over a corpus several times the region — while one client per
// lookup strategy reads a fixed hot set that is itself being rewritten at
// changing sizes. Every op lands in one history, which internal/history
// checks against a versioned register: whatever a GET returns must be a
// value that was issued for exactly that key, whole, and no older than the
// newest SET acked before the GET began. Once the storm stops every
// strategy must agree with what the backends hold, and no entry may have
// failed its checksum.
//
// Run with `go test -race -run TestRelocationInvisibleToReaders`.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"cliquemap/internal/core/client"
	"cliquemap/internal/drive"
	"cliquemap/internal/history"
)

const (
	relocHotKeys    = 24
	relocColdKeys   = 10000 // per cold writer
	relocColdWriter = 2
)

func relocHotKey(k int) []byte { return []byte(fmt.Sprintf("hot-%02d", k)) }

// relocHotValue is the value of hot key k at sequence seq: a header naming
// both, then a seq-derived fill, so a wrong-key, stale or torn read shows.
func relocHotValue(k int, seq uint64) []byte {
	sizes := [...]int{90, 200, 700, 1500, 3000, 6000}
	v := make([]byte, sizes[(uint64(k)+seq)%uint64(len(sizes))])
	n := copy(v, fmt.Sprintf("hot-%02d#%08d#", k, seq))
	for i := n; i < len(v); i++ {
		v[i] = byte(seq) + byte(i)
	}
	return v
}

func TestRelocationInvisibleToReaders(t *testing.T) {
	t.Run("pony", func(t *testing.T) { relocationStress(t, PonyExpress, LookupSCAR, Lookup2xR, LookupRPC) })
	t.Run("1rma", func(t *testing.T) { relocationStress(t, OneRMA, Lookup2xR) })
}

func relocationStress(t *testing.T, transport Transport, strategies ...Strategy) {
	c := newCell(t, Options{
		Shards: 3, Mode: R1, Transport: transport,
		DataBytes: 8 << 20, DataMaxBytes: 8 << 20, DisableReshaping: true,
	})
	ctx := context.Background()
	rec := &history.Recorder{}

	// The hot writer rewrites the hot set at changing sizes.
	hotWriter := drive.Group{Worker: func(int) drive.Op {
		cl := history.Client{C: c.NewClient(ClientOptions{}).Internal(), R: rec}
		return func(i int) (uint64, error) {
			for k := 0; k < relocHotKeys; k++ {
				cl.SetVersioned(ctx, relocHotKey(k), relocHotValue(k, uint64(i+1)))
			}
			return 0, nil
		}
	}}

	// Readers, one per strategy.
	reader := func(st Strategy) *client.Client {
		return c.Internal().NewClient(client.Options{Strategy: st.internal()})
	}
	hits := make([]atomic.Uint64, len(strategies))
	readers := drive.Group{Workers: len(strategies), Worker: func(i int) drive.Op {
		st := strategies[i]
		cl := history.Client{C: reader(st), R: rec, ID: 1 + i}
		return func(n int) (uint64, error) {
			k := n % relocHotKeys
			_, found, err := cl.Get(ctx, relocHotKey(k))
			if errors.Is(err, client.ErrExhausted) {
				return 0, err // the retry budget tripping under a rewrite storm is fail-fast, not a wrong answer
			}
			if err != nil {
				t.Errorf("strategy %d: GET hot-%02d: %v", st, k, err)
				return 0, drive.ErrStop
			}
			if found { // else evicted, and the hot writer brings it back
				hits[i].Add(1)
			}
			return 0, nil
		}
	}}

	// Cold writers: the mixed-size churn that keeps the regions calcified,
	// relocColdKeys fresh keys each.
	cold := drive.Group{Workers: relocColdWriter, Ops: relocColdWriter * relocColdKeys, Worker: func(w int) drive.Op {
		cl := c.NewClient(ClientOptions{})
		rng := rand.New(rand.NewSource(int64(w + 1)))
		buf := make([]byte, 12<<10)
		return func(i int) (uint64, error) {
			size := 128 << uint(rng.Intn(6)) // 128 B … 6 KiB
			size += rng.Intn(size / 2)
			if err := cl.Set(ctx, []byte(fmt.Sprintf("cold-%d-%05d", w, i)), buf[:size]); err != nil && !errors.Is(err, client.ErrExhausted) {
				t.Errorf("cold SET: %v", err)
				return 0, drive.ErrStop
			}
			return 0, nil
		}
	}}
	drive.Run(ctx, nil, hotWriter, readers, cold)

	agg := c.Internal().AggregateCounters()
	if agg.SlabDrains == 0 || agg.EntriesMoved == 0 {
		t.Fatalf("drains %d, moved %d: the regions never calcified", agg.SlabDrains, agg.EntriesMoved)
	}
	for i, st := range strategies {
		if hits[i].Load() == 0 {
			t.Errorf("strategy %d never hit", st)
		}
	}

	// Quiesced: what the backends hold is what every strategy serves, at the
	// last acked sequence, and every held entry still passes its checksum.
	held := map[string]bool{}
	for _, b := range c.Internal().Nodes() {
		for _, it := range b.Items(-1, 0) {
			held[string(it.Key)] = true
		}
	}
	for i, st := range strategies {
		cl := history.Client{C: reader(st), R: rec, ID: 1 + len(strategies) + i}
		for k := 0; k < relocHotKeys; k++ {
			if _, found, err := cl.Get(ctx, relocHotKey(k)); err != nil || found != held[string(relocHotKey(k))] {
				t.Errorf("strategy %d: hot-%02d found %v (err %v), backend holds it: %v", st, k, found, err, held[string(relocHotKey(k))])
			}
		}
	}
	checkRegister(t, rec, c.Stats().Evictions)
	if n := c.Internal().AggregateCounters().CorruptPurged; n != 0 {
		t.Errorf("%d entries failed their checksum", n)
	}
	t.Logf("drains %d, moved %d, capacity evictions %d", agg.SlabDrains, agg.EntriesMoved, agg.CapacityEvictions)
}
