package backend

// Durable warm restarts: the backend side of internal/persist.
//
// Every applied mutation is teed — under the key's stripe lock, right at
// its publication point — into the task's write-ahead journal, so the
// journal is always a superset of the acknowledged writes (the append
// happens before the RPC handler can reply). A periodic checkpoint
// collapses the journal: rotate the journal epoch under a brief all-stripe
// barrier, then scan the corpus stripe-by-stripe (mutations on other
// stripes keep flowing; anything concurrent lands in the new journal and
// re-applies idempotently on replay), and commit the image atomically.
//
// Recovery runs inside New, BEFORE the RPC service registers: the corpus
// is rebuilt from checkpoint + journal tail with zero concurrent traffic,
// then the tee activates and the backend starts serving in the
// "recovering" state — resident entries are served (they are genuine
// acked writes at monotone versions), but misses bounce with
// proto.ErrRecovering and the index's bucket headers carry a sentinel
// config stamp so one-sided RMA readers fail §6.1 validation and divert
// to RPC. A restarted replica therefore can never vote an "agreed miss"
// for a key it acked before the crash — the hole behind the rolling-crash
// lost-write flake. EndRecovery (after the §5.4 self-validation sweep)
// restamps the buckets and lifts the guard.

import (
	"cliquemap/internal/hashring"
	"cliquemap/internal/persist"
	"cliquemap/internal/truetime"
)

// recoverStampBit is OR-ed into bucket-header config stamps while the
// backend is recovering. Real config IDs are small counters, so the high
// bit never collides; any RMA reader's §6.1 validation fails against it.
const recoverStampBit = uint64(1) << 63

// defaultCheckpointEvery collapses the journal after this many appended
// records when Options.CheckpointEvery is unset.
const defaultCheckpointEvery = 4096

// stampID is the config ID written into bucket headers: the real ID, or
// the sentinel-marked ID while recovering.
func (b *Backend) stampID() uint64 {
	id := b.configID.Load()
	if b.recovering.Load() {
		id |= recoverStampBit
	}
	return id
}

// Recovering reports whether the backend is in its post-restart
// self-validation window.
func (b *Backend) Recovering() bool { return b.recovering.Load() }

// EndRecovery lifts the recovering guard after the self-validation sweep:
// computes how many recovered entries rejoined the quorum unchanged,
// restamps bucket headers with the true config ID, and resumes serving
// misses.
func (b *Backend) EndRecovery() {
	if !b.recovering.Swap(false) {
		return
	}
	rec, settles := b.recoveredKeys.Load(), b.recoverySettles.Load()
	if rec > settles {
		b.selfValidated.Store(rec - settles)
	} else {
		b.selfValidated.Store(0)
	}
	b.restampAll()
}

// noteRecoverySettle counts a repair-path write applied while recovering —
// a recovered entry (or hole) the quorum had to correct rather than
// confirm.
func (b *Backend) noteRecoverySettle() {
	if b.recovering.Load() {
		b.recoverySettles.Add(1)
	}
}

// openPersist opens the durable store, replays what it recovered into the
// in-memory corpus, and only then activates the journal tee. Called from
// New before the RPC service registers, so replay sees zero concurrent
// traffic.
func (b *Backend) openPersist() error {
	store, rec, err := persist.Open(b.opt.DataDir, b.opt.Shard, persist.Options{
		Hook: b.opt.PersistHook,
	})
	if err != nil {
		return err
	}
	for _, r := range rec.Checkpoint {
		b.replayRecord(r)
	}
	for _, r := range rec.Journal {
		b.replayRecord(r)
	}
	b.replayedRecords.Store(uint64(len(rec.Journal)))
	b.recoveredKeys.Store(uint64(b.Len()))
	b.persist.Store(store) // tee active from here on
	return nil
}

// replayRecord re-applies one durable record. The version gate makes
// replay idempotent and order-tolerant across overlapping checkpoint and
// journal contents.
func (b *Backend) replayRecord(r persist.Record) {
	switch r.Op {
	case persist.OpSet:
		b.set(nil, r.Key, r.Value, r.Version)
	case persist.OpErase:
		b.erase(nil, r.Key, r.Version)
	}
}

// persistNote tees one applied mutation into the journal. Its only caller
// is publish, under the key's stripe lock (the mutation's publication
// point), so the append is ordered before the ack and before any
// checkpoint rotation barrier. value must be the uncompressed bytes (what
// a client would read back).
func (b *Backend) persistNote(op byte, key, value []byte, v truetime.Version) {
	if p := b.persist.Load(); p != nil {
		_ = p.Append(persist.Record{Op: op, Key: key, Value: value, Version: v})
	}
}

// maybeCheckpoint runs a checkpoint on the mutation whose journal record
// crossed CheckpointEvery, unless one is already running — the rule index
// resize follows: the write that crossed the trigger pays the corpus scan.
// The caller must hold no stripe lock (the checkpoint takes them all).
func (b *Backend) maybeCheckpoint() {
	p := b.persist.Load()
	if p == nil {
		return
	}
	every := uint64(b.opt.CheckpointEvery)
	if every == 0 {
		every = defaultCheckpointEvery
	}
	if recs, _ := p.Depth(); recs < every || !b.ckptMu.TryLock() {
		return
	}
	defer b.ckptMu.Unlock()
	_ = b.checkpoint(p)
}

// CheckpointNow takes a full corpus checkpoint, waiting out one already in
// flight.
func (b *Backend) CheckpointNow() error {
	p := b.persist.Load()
	if p == nil {
		return nil
	}
	b.ckptMu.Lock()
	defer b.ckptMu.Unlock()
	return b.checkpoint(p)
}

// checkpoint rotates the journal epoch under the all-stripe barrier, then
// scans stripe-by-stripe and commits; ckptMu is held. Mutations are paused
// only for the rotation (a file create) — the scan holds one stripe at a
// time, and anything landing mid-scan is in the new journal, where
// version-gated replay makes the overlap idempotent.
func (b *Backend) checkpoint(p *persist.Store) error {
	b.lockAll()
	epoch, err := p.Rotate()
	b.unlockAll()
	if err != nil {
		return err
	}
	cw, err := p.BeginCheckpoint(epoch, b.configID.Load())
	if err != nil {
		return err
	}
	// A failed write leaves ckpt.tmp as the crash left it.
	for si := range b.stripes {
		s := &b.stripes[si]
		s.mu.Lock()
		items := b.snapshot(walkOpts{stripe: si})
		s.unlock()
		for _, it := range items {
			if err := cw.Write(persist.Record{Op: persist.OpSet, Key: it.Key, Value: it.Value, Version: it.Version}); err != nil {
				return err
			}
		}
	}
	// Enumerable tombstones ride along as erase records so version bounds
	// on recently-erased keys survive the restart (the coarse summary does
	// not; it re-forms as the cache refills).
	var tombs []persist.Record
	b.eachTombstone(shardFilter{}, func(key []byte, _ hashring.KeyHash, v truetime.Version) {
		tombs = append(tombs, persist.Record{Op: persist.OpErase, Key: append([]byte(nil), key...), Version: v})
	})
	for _, r := range tombs {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	return cw.Commit()
}

// persistReset wipes the durable lineage when the in-memory corpus is
// discarded wholesale (Clear on a shrink demotion), so a later crash
// cannot resurrect dropped keys — nor can a checkpoint that was mid-scan.
func (b *Backend) persistReset() {
	if p := b.persist.Load(); p != nil {
		b.ckptMu.Lock()
		defer b.ckptMu.Unlock()
		_ = p.Reset()
	}
}

// RecoveryStats is the backend's durable-restart telemetry, served via
// MethodStats.
type RecoveryStats struct {
	CkptEpoch       uint64
	CkptUnixNano    int64
	JournalRecords  uint64
	JournalBytes    uint64
	RecoveredKeys   uint64
	ReplayedRecords uint64
	SelfValidated   uint64
	Recovering      bool
}

// RecoveryStatsSnapshot gathers the durable-restart telemetry.
func (b *Backend) RecoveryStatsSnapshot() RecoveryStats {
	rs := RecoveryStats{
		RecoveredKeys:   b.recoveredKeys.Load(),
		ReplayedRecords: b.replayedRecords.Load(),
		SelfValidated:   b.selfValidated.Load(),
		Recovering:      b.recovering.Load(),
	}
	if p := b.persist.Load(); p != nil {
		rs.CkptEpoch, rs.CkptUnixNano = p.CheckpointState()
		rs.JournalRecords, rs.JournalBytes = p.Depth()
	}
	return rs
}
