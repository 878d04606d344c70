package backend

// Shard handoff: the seal/journal/delta machinery shared by planned
// maintenance (MigrateTo) and online resizing (ResizeHandoff).
//
// The protocol closes the lost-write window of snapshot-then-stream
// migration (§6.1): a SET acked by the source after the bulk snapshot but
// before the ownership flip used to be silently dropped. The hardened
// flow is
//
//	journal on → bulk snapshot+stream → SEAL → drain journal (delta
//	passes until dry) → tombstones + summary → AssumeShard / config flip
//
// with three invariants:
//
//  1. Every mutation published while the journal is active and the seal
//     is down is noted under its key's stripe lock. Sealing takes every
//     stripe lock as a barrier, so a drain after the seal observes every
//     such note.
//  2. A sealed backend rejects client mutations with proto.ErrShardSealed
//     (a config-mismatch-class error: clients refresh and retry), except
//     pending-epoch writes it owns during a resize — those are already
//     replicated across the new epoch and need no journaling.
//  3. Tombstones move as first-class MigrateItems and the coarse summary
//     is folded into the receiver, so an erase immediately before a
//     handoff cannot resurrect on the new owner (§5.2).

import (
	"context"
	"fmt"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/hashring"
	"cliquemap/internal/truetime"
)

// migrateBatchSize is the per-frame item count of migration streams.
const migrateBatchSize = 256

// ----------------------------------------------------------------- seal --

// HandoffSeal sets the shard-handoff seal. It takes every stripe lock as
// a barrier: any mutation already past its handler's seal check either
// published (and journaled) before the barrier, or publishes after it and
// is skipped by the journal — in which case its surviving old-epoch
// cohort copies carry it into their own later handoffs (see DESIGN.md,
// "Shard handoff & resizing").
func (b *Backend) HandoffSeal() {
	b.lockAll()
	b.handoffSealed.Store(true)
	b.unlockAll()
}

// HandoffUnseal clears the shard-handoff seal (after the config flip, or
// when the source re-arms as a spare).
func (b *Backend) HandoffUnseal() { b.handoffSealed.Store(false) }

// HandoffSealed reports the shard-handoff seal (distinct from the
// R2Immutable corpus seal of Sealed).
func (b *Backend) HandoffSealed() bool { return b.handoffSealed.Load() }

// isPendingOwner reports whether this backend serves a shard in the
// pending epoch of an in-flight resize.
func (b *Backend) isPendingOwner() bool {
	if b.store == nil {
		return false
	}
	cfg := b.store.Get()
	if cfg.Pending == nil {
		return false
	}
	for _, a := range cfg.Pending.ShardAddrs {
		if a == b.opt.Addr {
			return true
		}
	}
	return false
}

// handoffRejects decides a mutation's fate under the handoff seal: sealed
// backends bounce everything except pending-epoch writes they own.
//
// A backend serving no shard at all bounces too. After a handoff the
// demoted source is an idle spare, yet clients whose config still names
// it keep routing writes its way; if it acked them, each ack would mint
// a quorum vote that leaves the cohort with the task — two such mixed
// quorums in a row is a silently lost acked write. The only mutations a
// shardless task may apply are pending-epoch writes it owns (a resize
// growth target holds shard -1 until the commit flip).
func (b *Backend) handoffRejects(pending bool) bool {
	if b.Shard() < 0 || b.handoffSealed.Load() {
		return !pending || !b.isPendingOwner()
	}
	return false
}

// handoffStranded is the response-time companion to handoffRejects: it
// reports whether a mutation that just published here may have missed the
// handoff (stamped into MutateResp.Sealed so the client discounts the
// ack). The seal check at handler entry races the seal barrier — a
// mutation can pass the check, stall, and publish after the journal has
// drained; by then the backend may even have been unsealed again (the
// maintenance source re-arms as a spare, a resize survivor unseals at the
// commit flip). Three response-time signals cover every such interleaving:
//
//   - still sealed: the drain may already be past this key;
//   - shard -1: the source was demoted to a spare (set before the
//     deferred unseal, and persisting after it);
//   - configID moved since handler entry: an epoch transition (resize
//     flip, maintenance config bump) completed mid-apply, so handoff
//     coverage is unprovable.
//
// Conversely a publish that entered before the seal and responded
// unsealed, serving the same shard under the same config, is provably
// covered by the bulk snapshot or the journal. A false positive merely
// discounts one ack; the client's idempotent, version-gated retry
// re-establishes quorum.
func (b *Backend) handoffStranded(entryID uint64) bool {
	return b.handoffSealed.Load() || b.Shard() < 0 || b.configID.Load() != entryID
}

// -------------------------------------------------------------- journal --

// journalStart arms the mutation journal; every key published from now on
// (until the seal goes up) is recorded for the delta pass.
func (b *Backend) journalStart() {
	b.journalMu.Lock()
	b.journal = make(map[string]struct{})
	b.journalMu.Unlock()
	b.journalActive.Store(true)
}

// journalStop disarms and discards the journal.
func (b *Backend) journalStop() {
	b.journalActive.Store(false)
	b.journalMu.Lock()
	b.journal = nil
	b.journalMu.Unlock()
}

// journalSwap returns the journaled keys and installs a fresh map, so
// delta passes can loop until a swap comes back dry. Notes stop once the
// seal is up (invariant 2 above), so the loop terminates.
func (b *Backend) journalSwap() []string {
	b.journalMu.Lock()
	defer b.journalMu.Unlock()
	if len(b.journal) == 0 {
		return nil
	}
	keys := make([]string, 0, len(b.journal))
	for k := range b.journal {
		keys = append(keys, k)
	}
	b.journal = make(map[string]struct{})
	return keys
}

// journalNote records a published mutation's key. Callers hold the key's
// stripe lock, which orders the note against the seal barrier; sealed
// publishes are intentionally skipped (they are pending-epoch or
// migration writes, already replicated in the new epoch).
func (b *Backend) journalNote(key []byte) {
	if !b.journalActive.Load() || b.handoffSealed.Load() {
		return
	}
	b.journalMu.Lock()
	if b.journal != nil {
		b.journal[string(key)] = struct{}{}
	}
	b.journalMu.Unlock()
}

// snapshotKeys re-reads journaled keys into migrate items: current value
// if resident, exact tombstone if erased, nothing if evicted (the version
// gate on the receiver makes every outcome safe to re-apply).
func (b *Backend) snapshotKeys(keys []string) []proto.MigrateItem {
	out := make([]proto.MigrateItem, 0, len(keys))
	for _, k := range keys {
		kb := []byte(k)
		if val, ver, ok := b.get(nil, kb); ok {
			out = append(out, proto.MigrateItem{Key: kb, Value: val, Version: ver})
		} else if v, exact := b.tombBound(b.opt.Hash(kb), kb); exact {
			out = append(out, proto.MigrateItem{Key: kb, Version: v, Tombstone: true})
		}
	}
	return out
}

// ------------------------------------------------------------ streaming --

// handoff is the source side of every shard handoff, planned maintenance
// and resize step alike: journal on → bulk snapshot+stream → seal → drain
// the journal until dry → tombstones → coarse summary. The two callers
// differ only in routing: targetsOf names the receivers of one key, and
// allTargets every receiver of the final summary frame (a whole-backend
// bound, so it travels wide). Every frame — bulk, delta, tombstones,
// summary — is one MethodMigrateBatch call.
func (b *Backend) handoff(ctx context.Context, shard int, seal func(context.Context) error, targetsOf func(key []byte) []string, allTargets []string) error {
	client := b.rpcClient()
	send := func(addr string, req proto.MigrateBatchReq) error {
		_, _, err := client.Call(ctx, addr, proto.MethodMigrateBatch, req.Marshal())
		return err
	}
	stream := func(items []proto.MigrateItem) error {
		routed := make(map[string][]proto.MigrateItem)
		for _, it := range items {
			for _, addr := range targetsOf(it.Key) {
				routed[addr] = append(routed[addr], it)
			}
		}
		for addr, its := range routed {
			for len(its) > 0 {
				n := min(len(its), migrateBatchSize)
				if err := send(addr, proto.MigrateBatchReq{Shard: shard, Items: its[:n]}); err != nil {
					return err
				}
				its = its[n:]
			}
		}
		return nil
	}

	b.journalStart()
	defer b.journalStop()

	// Bulk: everything this backend holds (copies for every shard of its
	// cohorts), while writes continue — journaled as they land.
	if err := stream(b.Items(-1, 0)); err != nil {
		return err
	}
	if err := seal(ctx); err != nil {
		return err
	}
	// Catch-up: mutations that raced the bulk stream. journalNote stops
	// recording once sealed, so the loop terminates.
	for keys := b.journalSwap(); len(keys) > 0; keys = b.journalSwap() {
		if err := stream(b.snapshotKeys(keys)); err != nil {
			return err
		}
	}
	// Tombstones as first-class items, then the coarse summary.
	var tombs []proto.MigrateItem
	sum := b.eachTombstone(shardFilter{}, func(key []byte, _ hashring.KeyHash, v truetime.Version) {
		tombs = append(tombs, proto.MigrateItem{Key: append([]byte(nil), key...), Version: v, Tombstone: true})
	})
	if err := stream(tombs); err != nil {
		return err
	}
	if !sum.Zero() {
		for _, addr := range allTargets {
			if err := send(addr, proto.MigrateBatchReq{Shard: shard, Final: true, TombSummary: sum}); err != nil {
				return err
			}
		}
	}
	return nil
}

// MigrateTo streams this backend's shard contents to target and hands the
// shard over — the planned-maintenance path of §6.1. The caller (cell
// orchestration) is responsible for the config update that points the
// shard at the target.
//
// Handoff is lossless for acked writes: after the seal — a lockAll barrier
// — new mutations bounce with ErrShardSealed and retry against the target
// once the client refreshes config, and only after the journal has drained
// does the target assume the shard.
func (b *Backend) MigrateTo(ctx context.Context, targetAddr string) error {
	shard := b.Shard()
	if shard < 0 {
		return fmt.Errorf("backend %s: no shard to migrate", b.opt.Addr)
	}
	sealed := false
	seal := func(context.Context) error {
		b.HandoffSeal()
		sealed = true
		return nil
	}
	target := []string{targetAddr}
	err := b.handoff(ctx, shard, seal, func([]byte) []string { return target }, target)
	if sealed {
		defer b.HandoffUnseal() // source re-arms as a spare after handoff
	}
	if err != nil {
		return err
	}
	if _, _, err := b.rpcClient().Call(ctx, targetAddr, proto.MethodAssumeShard, proto.AssumeShardReq{Shard: shard}.Marshal()); err != nil {
		return err
	}
	b.shard.Store(-1)
	return nil
}

// ResizeHandoff runs the source side of one resize step: stream this
// backend's full holdings to their pending-epoch owners, seal (via the
// caller's closure, normally a MethodSeal RPC so protocol degradation is
// visible), drain the journal, and move the tombstones. The caller flips
// SealedOld afterwards; the source stays sealed until the final config
// flip so no late old-epoch write can land on drained state.
func (b *Backend) ResizeHandoff(ctx context.Context, seal func(context.Context) error) error {
	cfg := b.store.Get()
	if cfg.Pending == nil {
		return fmt.Errorf("backend %s: resize handoff without a pending epoch", b.opt.Addr)
	}
	shard := b.Shard()
	if shard < 0 {
		return fmt.Errorf("backend %s: no shard to hand off", b.opt.Addr)
	}
	// A key goes to every member of its pending cohort but this backend.
	owners := func(key []byte) []string {
		var out []string
		p := int(b.opt.Hash(key).Hi % uint64(cfg.Pending.Shards))
		for _, s := range cfg.PendingCohort(p) {
			if addr := cfg.Pending.AddrFor(s); addr != "" && addr != b.opt.Addr {
				out = append(out, addr)
			}
		}
		return out
	}
	var all []string
	seen := map[string]bool{"": true, b.opt.Addr: true}
	for _, addr := range cfg.Pending.ShardAddrs {
		if !seen[addr] {
			seen[addr] = true
			all = append(all, addr)
		}
	}
	return b.handoff(ctx, shard, seal, owners, all)
}
