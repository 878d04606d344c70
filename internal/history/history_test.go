package history

import (
	"fmt"
	"math/rand"
	"testing"

	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// ver is a version at microsecond us nominated by client c.
func ver(us int64, c uint64) truetime.Version {
	return truetime.Version{Micros: us, ClientID: c, Seq: 1}
}

// w is a mutation of key "k" spanning ticks [inv, done]; value "" for an erase.
func w(kind trace.Kind, inv, done uint64, val string, v truetime.Version, out Outcome) Op {
	return Op{Invoke: inv, Complete: done, Client: int(v.ClientID), Kind: kind, Key: "k", Value: val, Version: v, Outcome: out}
}

// r is an answered GET of key "k" spanning [inv, done]; value "" for a miss.
func r(inv, done uint64, val string) Op {
	return Op{Invoke: inv, Complete: done, Kind: trace.KindGet, Key: "k", Value: val}
}

func cas(inv, done uint64, val string, v, expected truetime.Version, out Outcome) Op {
	op := w(trace.KindCas, inv, done, val, v, out)
	op.Expected = expected
	return op
}

const set, erase = trace.KindSet, trace.KindErase

// TestCheckerVerdicts holds each rule to at least one legal and one illegal
// hand-built history of key "k".
func TestCheckerVerdicts(t *testing.T) {
	a := w(set, 1, 2, "a", ver(1, 1), Ack) // the acked baseline
	for _, tc := range []struct {
		name      string
		ops       []Op
		evictions uint64
		rule      string // "" = legal
	}{
		{"same-microsecond inversion: the higher ClientID wins, acked first", []Op{w(set, 1, 2, "a", ver(100, 2), Ack), w(set, 3, 4, "b", ver(100, 1), Ack), r(5, 6, "a")}, 0, ""},
		{"same-microsecond inversion: the later ack loses", []Op{w(set, 1, 2, "a", ver(100, 2), Ack), w(set, 3, 4, "b", ver(100, 1), Ack), r(5, 6, "b")}, 0, "stale"},
		{"an errored SET surfaces later", []Op{a, w(set, 3, 4, "b", ver(2, 1), Failed), r(5, 6, "a"), r(7, 8, "b")}, 0, ""},
		{"a surfaced errored SET is taken back", []Op{a, w(set, 3, 4, "b", ver(2, 1), Failed), r(5, 6, "b"), r(7, 8, "a")}, 0, "regressed"},
		{"an ErrNotStored SET surfaces", []Op{a, w(set, 3, 4, "b", ver(2, 1), NotStored), r(5, 6, "b")}, 0, "not-stored"},
		{"an acked erase reads as a miss", []Op{a, w(erase, 3, 4, "", ver(2, 1), Ack), r(5, 6, "")}, 0, ""},
		{"an acked erase resurrects", []Op{a, w(erase, 3, 4, "", ver(2, 1), Ack), r(5, 6, "a")}, 0, "stale"},
		{"a read concurrent with an overwrite returns the old value", []Op{a, r(3, 6, "a"), w(set, 4, 5, "b", ver(2, 1), Ack)}, 0, ""},
		{"a read after an acked overwrite returns the old value", []Op{a, w(set, 3, 4, "b", ver(2, 1), Ack), r(5, 6, "a")}, 0, "stale"},
		{"overlapping reads of a concurrent write disagree", []Op{a, w(set, 3, 10, "b", ver(2, 1), Ack), r(4, 7, "b"), r(5, 6, "a")}, 0, ""},
		{"non-overlapping reads of a concurrent write regress", []Op{a, w(set, 3, 10, "b", ver(2, 1), Ack), r(4, 5, "b"), r(6, 7, "a")}, 0, "regressed"},
		{"a CAS swaps against the current version", []Op{a, cas(3, 4, "c", ver(2, 1), ver(1, 1), Ack), r(5, 6, "c")}, 0, ""},
		{"a CAS swaps against a superseded version", []Op{a, w(set, 3, 4, "b", ver(2, 2), Ack), cas(5, 6, "c", ver(3, 1), ver(1, 1), Ack)}, 0, "cas"},
		{"a CAS that did not swap surfaces", []Op{a, cas(3, 4, "c", ver(2, 1), ver(9, 9), NotApplied), r(5, 6, "c")}, 0, ""},
		{"a read returns a value never written", []Op{a, r(3, 4, "z")}, 0, "phantom"},
		{"a read returns a write issued after it completed", []Op{r(1, 2, "a"), w(set, 3, 4, "a", ver(1, 1), Ack)}, 0, "phantom"},
		{"a miss before any write", []Op{r(1, 2, ""), w(set, 3, 4, "a", ver(1, 1), Ack)}, 0, ""},
		{"a miss after an acked SET, nothing evicted", []Op{a, r(3, 4, "")}, 0, "miss"},
		{"a miss after an acked SET in a cell that evicted", []Op{a, r(3, 4, "")}, 1, ""},
		{"a miss explained by an errored erase, then an older read", []Op{a, w(erase, 3, 4, "", ver(2, 1), Failed), r(5, 6, ""), r(7, 8, "a")}, 0, "regressed"},
	} {
		got, vs := "", Check(tc.ops, tc.evictions)
		if len(vs) > 0 {
			got = vs[0].Rule
		}
		if got != tc.rule {
			t.Errorf("%s: flagged %q, want %q\n%v", tc.name, got, tc.rule, vs)
		}
	}
}

// TestCheckerAcceptsRegisterHistories: every history a register with a
// version gate produces passes, however its ops overlap, whichever errored
// writes took effect, and with versions tied in the microsecond.
func TestCheckerAcceptsRegisterHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		if vs := Check(registerHistory(rng, 2+rng.Intn(40)), 0); len(vs) > 0 {
			t.Fatalf("trial %d flagged a register history:\n%v", trial, vs[0])
		}
	}
}

// registerHistory runs n random ops on one key of a register, one at a
// time: op i takes effect at tick 100i, inside a random tick span that
// overlaps its neighbours'. A write nominates its version as it begins.
func registerHistory(rng *rand.Rand, n int) []Op {
	var cur Op // the write in force; Value "" is absent
	var written []truetime.Version
	ops := make([]Op, n)
	for i := range ops {
		at := uint64(100 * (i + 1))
		op := Op{Invoke: at - uint64(rng.Intn(99)), Complete: at + uint64(1+rng.Intn(99)), Key: "k", Kind: trace.Kind(rng.Intn(4))}
		failed := rng.Intn(8) == 0
		if op.Kind != trace.KindGet {
			op.Version = ver(int64(op.Invoke/150), uint64(1+rng.Intn(3)))
			op.Version.Seq = uint64(i)
		}
		if op.Kind == trace.KindSet || op.Kind == trace.KindCas {
			op.Value = fmt.Sprintf("v%d", i)
		}
		switch {
		case op.Kind == trace.KindGet:
			if op.Value = cur.Value; failed {
				op.Value, op.Outcome = "", Failed
			}
		case op.Kind == trace.KindSet && rng.Intn(10) == 0:
			op.Outcome = NotStored
		case op.Kind == trace.KindCas:
			if len(written) > 0 {
				op.Expected = written[rng.Intn(len(written))]
			}
			op.Outcome = NotApplied
			if cur.Value != "" && cur.Version == op.Expected && cur.Version.Less(op.Version) {
				op.Outcome, cur = Ack, op
				written = append(written, op.Version)
			}
		default: // a SET or ERASE applies unless it errored and did not
			if failed {
				op.Outcome = Failed
			}
			if (!failed || rng.Intn(2) == 0) && cur.Version.Less(op.Version) {
				if cur = op; op.Kind == trace.KindSet {
					written = append(written, op.Version)
				}
			}
		}
		if failed && op.Kind == trace.KindCas {
			op.Outcome = Failed
		}
		ops[i] = op
	}
	return ops
}
