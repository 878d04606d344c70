package client

// Quorum stage: what a fan-out costs (it completes at its k-th fastest
// leg) and which version the cohort agrees on (§5.1). Pure functions of
// the views, so the protocol core is testable without a cell.

import (
	"slices"

	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// settleFanout advances tr past a parallel fan-out that completes once k
// of its legs have answered: the phase costs the k-th fastest leg. When
// the op sat waiting for that k-th answer after the first replica had
// already responded, the wait is annotated — the paper's tail story
// (§5.1). A nonzero phase code also annotates the fastest leg as the
// phase itself. legNs is sorted in place; cohorts are tiny, so it lives
// in a caller's stack array.
func settleFanout(tr *fabric.OpTrace, legNs []uint64, k int, phase uint16) {
	slices.Sort(legNs)
	if phase != 0 {
		tr.Annotate(phase, uint32(len(legNs)), tr.Ns, legNs[0])
	}
	if legNs[k-1] > legNs[0] {
		tr.Annotate(trace.SpanQuorumWait, uint32(k), tr.Ns+legNs[0], legNs[k-1]-legNs[0])
	}
	tr.Add(legNs[k-1])
}

// hideWait trims the index phase's closing quorum-wait annotation to what
// outlasts busy, the end of a kept speculative read that overlapped it.
func hideWait(tr *fabric.OpTrace, busy uint64) {
	if n := len(tr.Spans) - 1; n >= 0 && tr.Spans[n].Code == trace.SpanQuorumWait {
		if w := &tr.Spans[n]; busy < w.Start+w.Dur {
			w.Start, w.Dur = busy, w.Start+w.Dur-busy
		} else {
			tr.Spans = tr.Spans[:n]
		}
	}
}

// vote is one distinct version's support among the live views.
type vote struct {
	ver   truetime.Version
	count int
}

// tally is the §5.1 vote: each live replica votes its IndexEntry's
// (KeyHash, VersionNumber) — an absent entry votes the zero version, an
// agreed miss — and the highest version backed by need votes wins.
// ErrInquorate when no version is. At most one distinct version per live
// view, so a fixed array holds the full tally without a map.
func tally(views []indexView, need int) (truetime.Version, error) {
	var voteArr [8]vote
	votes := voteArr[:0]
next:
	for i := range views {
		v := &views[i]
		if v.err != nil {
			continue
		}
		ver := truetime.Version{}
		if v.present {
			ver = v.entry.Version
		}
		for j := range votes {
			if votes[j].ver == ver {
				votes[j].count++
				continue next
			}
		}
		if len(votes) < cap(votes) {
			votes = append(votes, vote{ver: ver, count: 1})
		}
	}
	var winner *vote
	for i := range votes {
		if votes[i].count >= need && (winner == nil || winner.ver.Less(votes[i].ver)) {
			winner = &votes[i]
		}
	}
	if winner == nil {
		return truetime.Version{}, ErrInquorate
	}
	return winner.ver, nil
}

// mutAck is one answered mutation leg: the epochs whose cohort it serves,
// MutateResp.Sealed, and whether it holds the nominated version.
type mutAck struct{ inOld, inPending, sealed, applied bool }

// mutVerdict decides a mutation fan-out: ok once the deciding epoch's
// quorum acked, swapped once that quorum applied the write (a CAS's
// answer). The pending epoch decides when authoritative and quorate, else
// the old one, less its sealed members; one old and one pending leg are a
// quorum of neither.
func mutVerdict(acks []mutAck, q int, pendingDecides bool) (ok, swapped bool) {
	var n [2][2]int // [old, pending][acked, applied]
	for _, a := range acks {
		for e, in := range [2]bool{a.inOld && !a.sealed, a.inPending} {
			if in {
				n[e][0]++
				if a.applied {
					n[e][1]++
				}
			}
		}
	}
	e := 0 // the deciding epoch
	if pendingDecides && n[1][0] >= q {
		e = 1
	}
	return n[e][0] >= q, n[e][1] >= q
}

// quorum ends a fetch's index phase on the op's trace, where the legs
// were placed as each round started, and returns the quorum-winning
// version (zero = an agreed miss). With fewer than need live views there
// is nothing to vote on: the first leg error surfaces, so the retry layer
// repairs the actual cause instead of guessing from a bare ErrUnavailable.
func quorum(tr *fabric.OpTrace, views []indexView, need int) (winner truetime.Version, err error) {
	// One round ends at its need-th live answer. An escalated fetch's
	// rounds ran in sequence, each ending with its slowest leg, failed or not.
	escalated := len(views) > 0 && views[len(views)-1].late
	var legArr [8]uint64
	legNs := legArr[:0]
	var legErr error
	live := 0
	for i := range views {
		v := &views[i]
		if i > 0 && v.late && !views[i-1].late {
			settleFanout(tr, legNs, len(legNs), trace.SpanIndexFetch)
			legNs = legNs[:0]
		}
		if v.err == nil {
			live++
		} else if legErr == nil {
			legErr = v.err
		}
		if v.err == nil || escalated {
			legNs = append(legNs, v.ns)
		}
	}
	if escalated {
		settleFanout(tr, legNs, len(legNs), trace.SpanIndexFetch)
	} else if len(legNs) >= need {
		settleFanout(tr, legNs, need, trace.SpanIndexFetch)
	}
	if live < need {
		if legErr == nil {
			legErr = ErrUnavailable
		}
		return truetime.Version{}, legErr
	}
	return tally(views, need)
}
