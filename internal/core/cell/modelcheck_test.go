package cell

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cliquemap/internal/core/client"
	"cliquemap/internal/hashring"
	"cliquemap/internal/history"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// primaryShard recovers a key's primary shard (clients and backends share
// hashring.DefaultHash).
func primaryShard(c *Cell, key []byte) int {
	return int(hashring.DefaultHash(key).Hi % uint64(c.Store.Get().Shards))
}

// This file is a miniature model checker for the R=3.2 quorum protocol —
// the property the paper verified in TLA+ (§5, footnote 3: "We proved
// single failure tolerance"). It exhaustively enumerates interleavings of
// two concurrent mutations' per-replica applications (optionally with one
// crashed replica) and, after *every* prefix, runs a real client GET
// against the real backends. The mutations, recorded with their explicit
// versions, and the GETs form one history, which internal/history checks
// against a versioned register:
//
//  1. Safety: a successful GET never returns a value that was not
//     written, and never reports a miss while the key exists.
//  2. Monotonicity: the version successful GETs observe never goes
//     backwards as the interleaving advances (replica versions are
//     monotone, so quorumed versions must be too).
//  3. Convergence: once all steps of both mutations have applied, a GET
//     succeeds with the higher-versioned one's outcome — obstruction-free
//     progress once the competing mutations have quiesced (§5.3).
//
// Mid-race, a GET may legitimately fail to assemble a quorum: §5.3 notes
// that a GET racing *multiple* concurrent SETs "may subsequently fail to
// achieve quorum" and is retried. A failed GET observes nothing, so the
// model tolerates ErrInquorate on incomplete prefixes but never a wrong
// answer.

// interleavings enumerates all merges of two sequences of lengths m and n
// as boolean step lists (false = first writer's next step, true = second).
func interleavings(m, n int) [][]bool {
	var out [][]bool
	var rec func(prefix []bool, remA, remB int)
	rec = func(prefix []bool, remA, remB int) {
		if remA == 0 && remB == 0 {
			out = append(out, append([]bool(nil), prefix...))
			return
		}
		if remA > 0 {
			rec(append(prefix, false), remA-1, remB)
		}
		if remB > 0 {
			rec(append(prefix, true), remA, remB-1)
		}
	}
	rec(nil, m, n)
	return out
}

func TestInterleavingsCount(t *testing.T) {
	if got := len(interleavings(3, 3)); got != 20 {
		t.Fatalf("C(6,3) = %d, want 20", got)
	}
}

// TestModelCheckConcurrentSets exhaustively explores two racing SETs under
// R=3.2, with and without a single crashed replica.
func TestModelCheckConcurrentSets(t *testing.T) {
	for crash := -1; crash < 3; crash++ {
		modelCheck(t, trace.KindSet, crash)
	}
}

// TestModelCheckSetEraseRace explores a SET racing an ERASE step-by-step:
// the erase's tombstone must make the outcome deterministic per version
// order, and an erased value must never resurrect.
func TestModelCheckSetEraseRace(t *testing.T) { modelCheck(t, trace.KindErase, -1) }

// modelCheck runs every interleaving of a SET of "v1" racing a second
// mutation of kind second (a SET of "v2", or an ERASE) at a higher
// version in the same microsecond, each applied replica by replica, with
// shard crash down (-1: none). Converged, the second mutation wins, and
// the first one's stale late copy must not resurrect anything.
func modelCheck(t *testing.T, second trace.Kind, crash int) {
	key := []byte("model-key")
	for oi, order := range interleavings(3, 3) {
		name := fmt.Sprintf("crash%d/order%d", crash, oi)
		// Fresh cell per scenario: deterministic initial state.
		c := newTestCell(t, small32())
		rec := &history.Recorder{}
		cl := history.Client{C: c.NewClient(client.Options{Strategy: client.Strategy2xR, Retries: 1}), R: rec}
		ctx := context.Background()
		if _, err := cl.SetVersioned(ctx, key, []byte("v0")); err != nil {
			t.Fatal(err)
		}
		clk := &truetime.FakeClock{}
		clk.Set(time.Now().UnixMicro() + 1_000_000_000) // far above v0's wall-clock version
		ver1 := truetime.NewGenerator(clk, 101).Next()
		ver2 := truetime.NewGenerator(clk, 102).Next() // same micros, higher client id → ver1 < ver2
		if crash >= 0 {
			c.Crash(crash)
		}
		// Both mutations span every step, and every GET between.
		start := rec.Tick()
		// The cohort of the key under 3 shards is all three backends; each
		// mutation applies to replica 0, 1, 2 of the cohort in turn.
		cohort := c.Store.Get().Cohort(primaryShard(c, key))
		next := [2]int{}
		cl.Get(ctx, key)
		for _, two := range order {
			i := 0
			if two {
				i = 1
			}
			if shard := cohort[next[i]]; shard != crash {
				switch {
				case !two:
					c.Backend(shard).ApplySet(key, []byte("v1"), ver1)
				case second == trace.KindSet:
					c.Backend(shard).ApplySet(key, []byte("v2"), ver2)
				default:
					c.Backend(shard).ApplyErase(key, ver2)
				}
			}
			next[i]++
			cl.Get(ctx, key) // an inquorate GET observes nothing
		}
		rec.Add(history.Op{Invoke: start, Client: 101, Kind: trace.KindSet, Key: string(key), Value: history.Tag([]byte("v1")), Version: ver1})
		op := history.Op{Invoke: start, Client: 102, Kind: second, Key: string(key), Version: ver2}
		if second == trace.KindSet {
			op.Value = history.Tag([]byte("v2"))
		}
		rec.Add(op)
		for _, shard := range cohort {
			if shard != crash {
				c.Backend(shard).ApplySet(key, []byte("v1"), ver1)
			}
		}
		if _, _, err := cl.Get(ctx, key); err != nil {
			t.Fatalf("%s: converged GET: %v", name, err)
		}
		if vs := history.Check(rec.Ops(), 0); len(vs) > 0 {
			t.Fatalf("%s:\n%v", name, vs[0])
		}
	}
}
