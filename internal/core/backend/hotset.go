package backend

import (
	"context"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/truetime"
)

// Hot-key promotion: the server side of the hot-key adaptive serving loop.
//
// The heat sketch (stats.TopK) already sees every access on every
// transport — mutations, RPC/MSG lookups, and the touch batches clients
// report for one-sided RMA GETs. Promotion distills that telemetry into a
// small actionable set: the top-k keys whose estimated share of traffic
// clears a promotion bar are PROMOTED, and the set (with a monotonically
// increasing epoch) piggybacks on responses clients already receive
// (Touch acks, Stats and Health polls), so clients learn which keys are
// hot without a dedicated round trip.
//
// Promotion drives two server behaviours and two client behaviours:
//   - server: promoted keys are promptly settled to all-replica residency
//     (RepairHot), so R-way read spreading never hits a missing replica;
//   - server: the promotion epoch lets clients cheaply detect change;
//   - client: promoted keys become near-cache admission candidates and
//     get per-key transport steering / R-way data-read spreading.
//
// Hysteresis: a key promotes when its estimated count reaches the
// promote bar (a traffic share floor with an absolute minimum) and stays
// promoted until it falls below the lower demote bar, so keys oscillating
// around the threshold do not churn epochs.
const (
	hotDefaultK     = 8   // promoted-set capacity when Options.HotK == 0
	hotMinCount     = 64  // absolute floor: never promote on a tiny sample
	hotPromoteMilli = 20  // promote at ≥ 2.0% of the sketch's total traffic
	hotDemoteMilli  = 10  // demote below 1.0% (hysteresis)
	hotEvalEvery    = 256 // re-evaluate at most once per this many touches
)

// hotSet is an immutable promotion snapshot, swapped atomically.
type hotSet struct {
	epoch uint64
	keys  [][]byte // hottest first; shared read-only
	set   map[string]struct{}
}

// maybeEvalHot re-evaluates the promoted set if enough new traffic has
// accumulated since the last evaluation. Called from touch ingestion and
// stats scrapes (both off the per-op hot path); cheap when throttled.
func (b *Backend) maybeEvalHot() {
	if b.opt.HotK < 0 {
		return
	}
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
	k := b.opt.HotK
	if k == 0 {
		k = hotDefaultK
	}
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
	cur := b.hot.Load()
	var curSet map[string]struct{}
	if cur != nil {
		curSet = cur.set
	}
	b.hotCand = b.heat.AppendTop(b.hotCand, 2*k)
	// Move the candidates that clear their bar to the front, hottest first,
	// and see whether they are the set already published — the usual
	// outcome, and it builds nothing.
	cand, next, same := b.hotCand, 0, true
	for i := 0; i < len(cand) && next < k; i++ {
		bar := promoteBar
		_, promoted := curSet[string(cand[i].Key)]
		if promoted {
			bar = demoteBar
		}
		if cand[i].Count >= bar {
			cand[next], cand[i] = cand[i], cand[next]
			next++
			same = same && promoted
		}
	}
	if same && next == len(curSet) {
		b.hotMu.Unlock()
		return
	}
	keys := make([][]byte, 0, next)
	set := make(map[string]struct{}, next)
	for _, hk := range cand[:next] {
		key := string(hk.Key)
		keys = append(keys, []byte(key))
		set[key] = struct{}{}
	}
	epoch := uint64(1)
	if cur != nil {
		epoch = cur.epoch + 1
	}
	b.hot.Store(&hotSet{epoch: epoch, keys: keys, set: set})
	b.hotMu.Unlock()

	// Server-driven residency: settle freshly promoted keys to all
	// replicas now rather than waiting for the next full repair sweep, so
	// clients that start spreading reads R-ways never hit a replica that
	// is missing the key. One sweep in flight at a time; a promotion that
	// lands mid-sweep is picked up by the next epoch change or full
	// repair.
	if len(keys) > 0 && b.hotResidency.CompareAndSwap(false, true) {
		go func() {
			defer b.hotResidency.Store(false)
			b.RepairHot(context.Background())
		}()
	}
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

// RepairHot settles every currently promoted key to all-replica residency:
// the targeted, prompt complement of the full RepairShard sweep (whose
// all-views-agree clean check already converges divergent keys, just on
// sweep cadence rather than promotion cadence).
//
// Safety mirrors RepairShard's settle rule: a laggard is written AT the
// best observed version, and only when a read quorum already holds that
// version — so an incomplete (never-acked) erase on a minority cannot
// block residency, while a completed quorum erase leaves fewer than
// quorum value-holders and the key is skipped. Every install re-validates
// version monotonicity and the tombstone bound under the key's stripe
// lock, so a racing newer mutation or erase wins and the next sweep
// re-evaluates.
func (b *Backend) RepairHot(ctx context.Context) (settled int) {
	_, keys := b.HotSnapshot()
	if len(keys) == 0 {
		return 0
	}
	cfg := b.store.Get()
	if cfg.Shards == 0 {
		return 0
	}
	quorum := cfg.Mode.Quorum()
	client := b.rpcClient()

	type view struct {
		addr  string
		found bool
		ver   truetime.Version
		val   []byte
	}
	for _, key := range keys {
		h := b.opt.Hash(key)
		cohort := cfg.Cohort(int(h.Hi % uint64(cfg.Shards)))
		views := make([]view, 0, len(cohort))
		for _, shard := range cohort {
			v := view{addr: cfg.AddrFor(shard)}
			v.val, v.ver, v.found = b.getAt(ctx, client, v.addr, key)
			views = append(views, v)
		}
		var bestV truetime.Version
		bestIdx, votes := -1, 0
		for i, v := range views {
			if v.found && (bestIdx < 0 || bestV.Less(v.ver)) {
				bestIdx, bestV = i, v.ver
			}
		}
		if bestIdx < 0 {
			continue
		}
		for _, v := range views {
			if v.found && v.ver == bestV {
				votes++
			}
		}
		if votes < quorum {
			// No read quorum at the best version: either an erase
			// completed (value holders are the minority that missed it)
			// or a write is still settling. Leave it to the full repair
			// sweep, which sees tombstones.
			continue
		}
		value := views[bestIdx].val
		for _, v := range views {
			if v.found && v.ver == bestV {
				continue
			}
			if v.addr == b.opt.Addr {
				if applied, _, _ := b.set(nil, key, value, bestV); applied {
					settled++
				}
			} else {
				client.Call(ctx, v.addr, proto.MethodSet, proto.SetReq{Key: key, Value: value, Version: bestV, Repair: true}.Marshal())
				settled++
			}
		}
	}
	return settled
}
