package cliquemap

// Lease-safety stress test: every public client op runs on one leased op
// record (a context node, an inline span buffer, and the arena its requests
// are marshalled into and its legs read into), recycled through the
// client's one-slot spare the moment the op returns, and the tracer copies
// the spans it records. A record reused while something still references
// it shows up here as a wrong value, a value or trace that changes after it
// was handed out, or (under -race) a data race — over one-sided GETs and
// over StrategyRPC, in process and across the TCP gateway.
//
// Run with `go test -race -count=10 -run TestOpLeaseStress .`.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cliquemap/internal/core/cell"
	"cliquemap/internal/core/client"
	"cliquemap/internal/drive"
	"cliquemap/internal/fabric"
	"cliquemap/internal/history"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

func TestOpLeaseStress(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy client.Strategy
		tcp      bool
	}{
		{"2xR", client.Strategy2xR, false},
		{"RPC", client.StrategyRPC, false},
		{"RPC over TCP", client.StrategyRPC, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCell(t, Options{})
			opLeaseStress(t, c.Tracer(), dialClient(t, c.Internal(), client.Options{Strategy: tc.strategy}, tc.tcp))
		})
	}
}

// dialClient is a client of cc: an in-process one, or one whose only way in
// is one TCP connection to the cell's gateway.
func dialClient(t *testing.T, cc *cell.Cell, copt client.Options, tcp bool) *client.Client {
	if !tcp {
		return cc.NewClient(copt)
	}
	gw, err := cc.ServeTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gw.Close() })
	conn, err := rpc.DialTCP(gw.Addr(), "lease")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return client.New(copt, cc.Store, conn, cc.Clock, nil, nil, nil, nil)
}

func opLeaseStress(t *testing.T, tracer *trace.Tracer, cl *client.Client) {
	const (
		workers = 8
		keysPer = 4
		ops     = 400
	)
	ctx := context.Background()

	// The tracer reader: a record ID seen twice — in a snapshot's exemplars
	// or slow log — must carry the same spans every time.
	reader := drive.Group{Worker: func(int) drive.Op {
		seen := make(map[uint64][]fabric.Span)
		check := func(where string, recs []trace.OpRecord) error {
			for _, r := range recs {
				if prev, ok := seen[r.ID]; !ok {
					seen[r.ID] = r.Spans
				} else if !slices.Equal(prev, r.Spans) {
					t.Errorf("%s: op %d changed its spans after it was recorded:\n was %+v\n now %+v", where, r.ID, prev, r.Spans)
					return drive.ErrStop
				}
			}
			return nil
		}
		return func(int) (uint64, error) {
			snap := tracer.Snapshot(0)
			if err := check("Snapshot.Exemplars", snap.Exemplars); err != nil {
				return 0, err
			}
			return 0, check("Snapshot.Slow", snap.Slow)
		}
	}}

	// Every op lands in one history, held to the register. Each worker is
	// its keys' only writer, so a CAS against the version of its own last
	// SET must swap exactly when no CAS or erase has followed that SET: a
	// garbled expected version in a reused record fails one way or the
	// other.
	rec := &history.Recorder{}
	drive.Run(ctx, nil, reader, drive.Group{Workers: workers, Ops: workers * ops, Worker: func(w int) drive.Op {
		h := history.Client{C: cl, R: rec, ID: w}
		keys := make([][]byte, keysPer)
		for k := range keys {
			keys[k] = []byte(fmt.Sprintf("lease-%d-%d", w, k))
		}
		vers := make([]truetime.Version, keysPer) // the newest SET's, for CAS
		current := make([]bool, keysPer)          // vers[k] is still k's version
		var kept fabric.OpTrace                   // a GetTraced caller's trace, which must stay put
		var keptCopy []fabric.Span
		var keptVals, keptValsCopy [][]byte // the last GET's or batch's values, likewise
		rng := rand.New(rand.NewSource(int64(w)))
		return func(i int) (uint64, error) {
			k := rng.Intn(keysPer)
			val := fmt.Sprintf("w%d-k%d-i%d", w, k, i)
			op := rng.Intn(6)
			if op == 1 && vers[k] == (truetime.Version{}) {
				op = 0 // no version to expect yet
			}
			var err error
			switch op {
			case 0:
				vers[k], err = h.SetVersioned(ctx, keys[k], []byte(val))
				current[k] = true
			case 1:
				var swapped bool
				if swapped, err = h.Cas(ctx, keys[k], []byte(val), vers[k]); err == nil && swapped != current[k] {
					err = fmt.Errorf("cas swapped=%v, want %v", swapped, current[k])
				}
				current[k] = false // a swap's version is not returned
			case 2:
				err = h.Erase(ctx, keys[k])
				current[k] = false
			case 3:
				var v []byte
				v, _, err = h.Get(ctx, keys[k])
				keptVals = [][]byte{v}
			case 4:
				inv := rec.Tick()
				var found []bool
				keptVals, found, _, err = cl.GetBatch(ctx, keys)
				for j := range found {
					h.Observe(inv, keys[j], keptVals[j], found[j], err)
				}
			case 5:
				inv := rec.Tick()
				v, found, tr, gerr := cl.GetTraced(ctx, keys[k])
				if h.Observe(inv, keys[k], v, found, gerr); gerr == nil && len(tr.Spans) == 0 {
					gerr = errors.New("a traced GET returned no spans")
				}
				kept, keptCopy, err = tr, slices.Clone(tr.Spans), gerr
			}
			if err != nil {
				t.Errorf("worker %d op %d on %s: %v", w, op, keys[k], err)
				return 0, drive.ErrStop
			}
			if op >= 3 {
				keptValsCopy = keptValsCopy[:0]
				for _, v := range keptVals {
					keptValsCopy = append(keptValsCopy, slices.Clone(v))
				}
			}
			for j := range keptVals {
				if !bytes.Equal(keptVals[j], keptValsCopy[j]) {
					t.Errorf("worker %d: a value a GET returned changed under later ops: was %q, now %q", w, keptValsCopy[j], keptVals[j])
					return 0, drive.ErrStop
				}
			}
			if !slices.Equal(kept.Spans, keptCopy) {
				t.Errorf("worker %d: a kept GetTraced trace changed under later ops:\n was %+v\n now %+v", w, keptCopy, kept.Spans)
				return 0, drive.ErrStop
			}
			return 0, nil
		}
	}})
	checkRegister(t, rec, 0)
}

// TestOpLeaseValuesOutliveArena: a GET's NIC and RPC legs read into its
// client's leased receive arena, which the client's next op reuses, and a
// value leaves the arena as a copy. Every value a client's GETs returned —
// over SCAR and 2×R, served by the first replica, by a failover past a
// damaged copy, or past a hedged leg; over StrategyRPC in process and across
// the TCP gateway; by the RPC lookup of an overflowed bucket — must still
// read as it did after later GETs have reused the arena, whatever the
// arena's regrowth mid-op did. Values are distinct per key and span 16 B to
// 120 KiB. Past two crashed replicas every attempt, the final RPC one
// included, is inquorate: each GET must say so.
//
// Run with `go test -race -count=10 -run TestOpLeaseValuesOutliveArena .`.
func TestOpLeaseValuesOutliveArena(t *testing.T) {
	const (
		workers = 4
		keysPer = 12
		rounds  = 6
	)
	// Every key indexes to one bucket, whose ways overflow to the side table.
	oneBucket := func(key []byte) (uint64, uint64) {
		h := DefaultHash(key)
		return h.Hi, h.Lo << 16
	}
	failovers := func(m *client.Metrics) uint64 { return m.Failovers.Value() }
	fallbacks := func(m *client.Metrics) uint64 { return m.RPCFallbacks.Value() }
	inquorate := func(m *client.Metrics) uint64 { return m.Inquorate.Value() }
	for _, tc := range []struct {
		name     string
		opt      Options
		strategy client.Strategy
		tcp      bool
		hazard   func(c *cell.Cell) // after the values are set
		served   func(m *client.Metrics) uint64
		wantErr  error
	}{
		{"SCAR", Options{}, client.StrategySCAR, false, damage, failovers, nil},
		{"2xR", Options{}, client.Strategy2xR, false, damage, failovers, nil},
		{"2xR over 1RMA", Options{Transport: OneRMA}, client.Strategy2xR, false, damage, failovers, nil},
		{"RPC", Options{}, client.StrategyRPC, false, nil, nil, nil},
		{"RPC over TCP", Options{}, client.StrategyRPC, true, nil, nil, nil},
		{"overflow fallback", Options{OverflowFallback: true, Hash: oneBucket}, client.Strategy2xR, false, nil, fallbacks, nil},
		{"final fallback", Options{}, client.Strategy2xR, false, func(c *cell.Cell) { c.Crash(0); c.Crash(1) }, inquorate, client.ErrInquorate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := newCell(t, tc.opt).Internal()
			// The final RPC attempt spends a retry token on every GET.
			cl := dialClient(t, cc, client.Options{Strategy: tc.strategy, Retries: 1, Budget: client.NewRetryBudget(1e9, 1)}, tc.tcp)
			ctx := context.Background()
			want := make(map[string][]byte)
			for w := 0; w < workers; w++ {
				for k := 0; k < keysPer; k++ {
					key := fmt.Sprintf("arena-%d-%d", w, k)
					size := 16 << (k % 9) // up to 4 KiB
					if k == keysPer-1 {
						size = 120 << 10 // slow to read: its data leg draws a hedge
					}
					val := bytes.Repeat([]byte(key+"|"), size/len(key)+1)[:size]
					if err := cl.Set(ctx, []byte(key), val); err != nil {
						t.Fatal(err)
					}
					want[key] = val
				}
			}
			if tc.hazard != nil {
				tc.hazard(cc)
			}
			var served uint64
			if tc.served != nil {
				served = tc.served(&cl.M)
			}

			// Each worker GETs its own keys round-robin and keeps every
			// value it was handed.
			type held struct {
				key string
				val []byte
			}
			kept := make([][]held, workers)
			drive.Run(ctx, nil, drive.Group{Workers: workers, Ops: workers * rounds * keysPer, Worker: func(w int) drive.Op {
				n := 0
				return func(int) (uint64, error) {
					key := fmt.Sprintf("arena-%d-%d", w, n%keysPer)
					n++
					v, found, err := cl.Get(ctx, []byte(key))
					if tc.wantErr != nil {
						if !errors.Is(err, tc.wantErr) {
							t.Errorf("get %s: err=%v, want %v", key, err, tc.wantErr)
							return 0, drive.ErrStop
						}
						return 0, nil
					}
					if err != nil || !found || !bytes.Equal(v, want[key]) {
						t.Errorf("get %s: %d bytes found=%v err=%v", key, len(v), found, err)
						return 0, drive.ErrStop
					}
					kept[w] = append(kept[w], held{key, v})
					return 0, nil
				}
			}})
			for w := range kept {
				for i, h := range kept[w] {
					if !bytes.Equal(h.val, want[h.key]) {
						t.Errorf("worker %d: GET #%d's value for %s changed under later GETs", w, i, h.key)
						break
					}
				}
			}
			if tc.served != nil && tc.served(&cl.M) == served {
				t.Error("no GET took the path under test")
			}
		})
	}
}

// damage breaks one replica's copies of some keys: reading them there fails
// its checksum and the GET fails over.
func damage(c *cell.Cell) { c.CorruptData(1, 16, 11) }
