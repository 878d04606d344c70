package backend

import (
	"bytes"
	"slices"

	"cliquemap/internal/core/proto"
)

// Hot-key promotion: the server side of the hot-key adaptive serving loop.
//
// The heat sketch (stats.TopK) already sees every access on every
// transport — mutations, RPC/MSG lookups, and the access records clients
// report for one-sided RMA GETs. Promotion distills that telemetry into a
// small actionable set: the top-k keys whose estimated share of traffic
// clears a promotion bar are PROMOTED, and the set (with a monotonically
// increasing epoch) rides the responses that have readers: the acks to
// access records, of a Touch RPC or of a mutation leg that carried them
// (clients near-cache, steer and spread promoted keys), and Stats scrapes
// (cmstat's PROMOTED table). A promoted key is otherwise an ordinary key:
// it converges through RepairShard like any other, and read spreading
// needs no residency guarantee because the client only reads data from
// quorum members holding the winning version.
//
// Hysteresis: a key promotes when its estimated count reaches the
// promote bar (a traffic share floor with an absolute minimum) and stays
// promoted until it falls below the lower demote bar, so keys oscillating
// around the threshold do not churn epochs.
const (
	hotK            = 8   // promoted-set capacity
	hotMinCount     = 64  // absolute floor: never promote on a tiny sample
	hotPromoteMilli = 20  // promote at ≥ 2.0% of the sketch's total traffic
	hotDemoteMilli  = 10  // demote below 1.0% (hysteresis)
	hotEvalEvery    = 256 // re-evaluate at most once per this many touches
)

// hotSet is an immutable promotion snapshot, swapped atomically.
type hotSet struct {
	epoch uint64
	keys  [][]byte // hottest first; shared read-only
	ack   []byte   // TouchResp{epoch, keys}, encoded once for every ack
}

// noHot is the ack of a backend that has never promoted a key.
var noHot = proto.TouchResp{}.Marshal()

// maybeEvalHot re-evaluates the promoted set if enough new traffic has
// accumulated since the last evaluation. Called from touch ingestion and
// stats scrapes (both off the per-op hot path); cheap when throttled.
func (b *Backend) maybeEvalHot() {
	total := b.heat.Total()
	last := b.hotEvalTotal.Load()
	if total < last+hotEvalEvery {
		return
	}
	if !b.hotEvalTotal.CompareAndSwap(last, total) {
		return // another caller is evaluating this window
	}
	b.evalHot(total)
}

func (b *Backend) evalHot(total uint64) {
	promoteBar := total * hotPromoteMilli / 1000
	if promoteBar < hotMinCount {
		promoteBar = hotMinCount
	}
	demoteBar := total * hotDemoteMilli / 1000
	if demoteBar < hotMinCount/2 {
		demoteBar = hotMinCount / 2
	}
	// One evaluation at a time: hotMu guards the candidate scratch as well
	// as the epoch bump.
	b.hotMu.Lock()
	epoch, cur := b.HotSnapshot()
	b.hotCand = b.heat.AppendTop(b.hotCand, 2*hotK)
	// Move the candidates that clear their bar to the front, hottest first,
	// and see whether they are the set already published — the usual
	// outcome, and it builds nothing.
	cand, next, same := b.hotCand, 0, true
	for i := 0; i < len(cand) && next < hotK; i++ {
		bar := promoteBar
		promoted := slices.ContainsFunc(cur, func(key []byte) bool { return bytes.Equal(key, cand[i].Key) })
		if promoted {
			bar = demoteBar
		}
		if cand[i].Count >= bar {
			cand[next], cand[i] = cand[i], cand[next]
			next++
			same = same && promoted
		}
	}
	if same && next == len(cur) {
		b.hotMu.Unlock()
		return
	}
	keys := make([][]byte, 0, next)
	for _, hk := range cand[:next] {
		keys = append(keys, bytes.Clone(hk.Key))
	}
	b.hot.Store(&hotSet{epoch: epoch + 1, keys: keys, ack: proto.TouchResp{HotEpoch: epoch + 1, HotKeys: keys}.Marshal()})
	b.hotMu.Unlock()
}

// HotSnapshot returns the promotion epoch and the promoted keys, hottest
// first. The slice and its elements are shared read-only snapshots;
// callers must not mutate them. Epoch 0 means nothing has ever promoted.
func (b *Backend) HotSnapshot() (uint64, [][]byte) {
	hs := b.hot.Load()
	if hs == nil {
		return 0, nil
	}
	return hs.epoch, hs.keys
}

// hotAck is the promotion set as the encoded TouchResp an ack to access
// records carries; shared read-only.
func (b *Backend) hotAck() []byte {
	if hs := b.hot.Load(); hs != nil {
		return hs.ack
	}
	return noHot
}
