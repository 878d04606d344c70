package cliquemap

// Lease-safety stress test: every public client op runs on one leased op
// record (a context node plus an inline span buffer), recycled through the
// client's one-slot spare the moment the op returns, and the tracer copies
// the spans it records. A record reused while something still references
// it shows up here as a wrong value, a trace that changes after it was
// handed out, or (under -race) a data race.
//
// Run with `go test -race -count=10 -run TestOpLeaseStress .`.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
)

func TestOpLeaseStress(t *testing.T) {
	const (
		workers = 8
		keysPer = 4
		ops     = 400
	)
	c := newCell(t, Options{})
	cl := c.NewClient(ClientOptions{})
	tracer := c.Tracer()
	ctx := context.Background()

	// The tracer reader: a record ID seen twice — in Recent, in a snapshot's
	// exemplars or slow log — must carry the same spans every time.
	stop := make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		seen := make(map[uint64][]fabric.Span)
		check := func(where string, recs []trace.OpRecord) {
			for _, r := range recs {
				if prev, ok := seen[r.ID]; !ok {
					seen[r.ID] = r.Spans
				} else if !slices.Equal(prev, r.Spans) {
					t.Errorf("%s: op %d changed its spans after it was recorded:\n was %+v\n now %+v", where, r.ID, prev, r.Spans)
					return
				}
			}
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			check("Recent", tracer.Recent(0))
			snap := tracer.Snapshot(0)
			check("Snapshot.Exemplars", snap.Exemplars)
			check("Snapshot.Slow", snap.Slow)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// This worker is its keys' only writer, so the last acked write
			// is exactly what a read must return.
			keys := make([][]byte, keysPer)
			for k := range keys {
				keys[k] = []byte(fmt.Sprintf("lease-%d-%d", w, k))
			}
			acked := make([]string, keysPer) // "" = absent
			vers := make([]Version, keysPer)
			verKnown := make([]bool, keysPer)
			check := func(op string, k int, v []byte, found bool, err error) bool {
				if err != nil || found != (acked[k] != "") || string(v) != acked[k] {
					t.Errorf("worker %d %s %s: %q found=%v err=%v, last acked %q", w, op, keys[k], v, found, err, acked[k])
					return false
				}
				return true
			}
			var kept fabric.OpTrace // a GetTraced caller's trace, which must stay put
			var keptCopy []fabric.Span
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				k := rng.Intn(keysPer)
				val := fmt.Sprintf("w%d-k%d-i%d", w, k, i)
				op := rng.Intn(6)
				if op == 1 && vers[k] == (Version{}) {
					op = 0 // no version to expect yet
				}
				switch op {
				case 0:
					ver, err := cl.SetVersioned(ctx, keys[k], []byte(val))
					if err != nil {
						t.Errorf("worker %d set: %v", w, err)
						return
					}
					acked[k], vers[k], verKnown[k] = val, ver, true
				case 1:
					applied, err := cl.Cas(ctx, keys[k], []byte(val), vers[k])
					if err != nil {
						t.Errorf("worker %d cas: %v", w, err)
						return
					}
					if want := verKnown[k] && acked[k] != ""; applied != want {
						t.Errorf("worker %d cas %s: applied=%v, want %v", w, keys[k], applied, want)
						return
					}
					if applied {
						acked[k], verKnown[k] = val, false // Cas does not return its version
					}
				case 2:
					if err := cl.Erase(ctx, keys[k]); err != nil {
						t.Errorf("worker %d erase: %v", w, err)
						return
					}
					acked[k], verKnown[k] = "", false
				case 3:
					v, found, err := cl.Get(ctx, keys[k])
					if !check("get", k, v, found, err) {
						return
					}
				case 4:
					vals, found, err := cl.GetBatch(ctx, keys)
					if err != nil {
						t.Errorf("worker %d batch: %v", w, err)
						return
					}
					for j := range keys {
						if !check("batch", j, vals[j], found[j], nil) {
							return
						}
					}
				case 5:
					v, found, tr, err := cl.Internal().GetTraced(ctx, keys[k])
					if !check("traced get", k, v, found, err) {
						return
					}
					if len(tr.Spans) == 0 {
						t.Errorf("worker %d: a traced GET returned no spans", w)
						return
					}
					kept, keptCopy = tr, slices.Clone(tr.Spans)
				}
				if !slices.Equal(kept.Spans, keptCopy) {
					t.Errorf("worker %d: a kept GetTraced trace changed under later ops:\n was %+v\n now %+v", w, keptCopy, kept.Spans)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerDone.Wait()
}
