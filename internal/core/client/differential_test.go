package client

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"cliquemap/internal/trace"
)

// TestStrategiesAgree replays one seeded SET/GET/ERASE sequence under each
// lookup strategy on a fresh cell. The strategies differ only in how they
// fetch, so every op must return the same (value, found), and every GET's
// trace must have the same shape: an index phase that costs the k-th
// fastest of the live legs, followed by a data read only where the fetch
// did not already carry the value (2×R).
func TestStrategiesAgree(t *testing.T) {
	type result struct {
		val   string
		found bool
	}
	replay := func(t *testing.T, strat Strategy) []result {
		r := newRig(t)
		cl := r.newClient(Options{Strategy: strat})
		ctx := context.Background()
		rng := rand.New(rand.NewSource(14))
		var out []result
		for op := 0; op < 300; op++ {
			key := []byte(fmt.Sprintf("k%02d", rng.Intn(24)))
			switch p := rng.Intn(10); {
			case p < 3:
				if err := cl.Set(ctx, key, []byte(fmt.Sprintf("v%d", op))); err != nil {
					t.Fatalf("op %d set: %v", op, err)
				}
			case p < 4:
				if err := cl.Erase(ctx, key); err != nil {
					t.Fatalf("op %d erase: %v", op, err)
				}
			default:
				val, found, tr, err := cl.GetTraced(ctx, key)
				if err != nil {
					t.Fatalf("op %d get: %v", op, err)
				}
				out = append(out, result{string(val), found})

				idx, ok := spanOf(tr, trace.SpanIndexFetch)
				if !ok || idx.Arg != 3 {
					t.Fatalf("op %d: index-fetch span %+v, want 3 live legs", op, idx)
				}
				phase := idx.Dur
				if w, ok := spanOf(tr, trace.SpanQuorumWait); ok {
					if w.Start != idx.Dur || w.Arg != 2 {
						t.Fatalf("op %d: quorum-wait %+v does not follow the fastest leg (%dns)", op, w, idx.Dur)
					}
					phase += w.Dur
				}
				data, hasData := spanOf(tr, trace.SpanDataRead)
				if hasData != (strat == Strategy2xR && found) {
					t.Fatalf("op %d: data-read span present=%v (found=%v)", op, hasData, found)
				}
				if want := phase + data.Dur; tr.Ns != want {
					t.Fatalf("op %d: GET took %dns, want index phase %d + data %d", op, tr.Ns, phase, data.Dur)
				}
			}
		}
		if n := cl.M.RetryCount() + cl.M.RPCFallbacks.Value(); n != 0 {
			t.Fatalf("quiet cell needed %d retries/fallbacks", n)
		}
		return out
	}

	want := replay(t, Strategy2xR)
	for _, strat := range []Strategy{StrategySCAR, StrategyMSG, StrategyRPC} {
		t.Run(strat.String(), func(t *testing.T) {
			got := replay(t, strat)
			if len(got) != len(want) {
				t.Fatalf("%d GETs, want %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("GET #%d: %s returned %+v, 2xR returned %+v", i, strat, got[i], want[i])
				}
			}
		})
	}
}
