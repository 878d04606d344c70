// Package proto defines CliqueMap's RPC message schemas over the
// versioned TLV encoding of internal/wire.
//
// Every message tolerates unknown fields, which is what let the production
// system ship "over a hundred changes to CliqueMap's protocol definitions"
// without lockstep client/backend upgrades (§6). Field tags are therefore
// stable and append-only.
//
// A message's schema is its `wire:"N,..."` struct tags (grammar in
// internal/wire/codec.go), and the tags are the codec: every Marshal,
// AppendTo and UnmarshalX is a one-line wrapper over wire.Append /
// wire.Decode, which run each type's plan, compiled from its tags once.
// Decoded []byte fields alias the frame (nil when empty): an RPC handler
// finishes with its request before returning and copies what it keeps.
package proto

import (
	"errors"
	"fmt"
	"strings"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/rmem"
	"cliquemap/internal/truetime"
	"cliquemap/internal/wire"
)

// Method names served by every backend.
const (
	MethodHello       = "CliqueMap.Hello"
	MethodGet         = "CliqueMap.Get"
	MethodSet         = "CliqueMap.Set"
	MethodErase       = "CliqueMap.Erase"
	MethodCas         = "CliqueMap.Cas"
	MethodTouch       = "CliqueMap.Touch"
	MethodScan        = "CliqueMap.Scan"
	MethodAssumeShard = "CliqueMap.AssumeShard"
	// MethodMigrateBatch carries every shard-handoff frame: the bulk
	// stream, the sealed journal delta, tombstones, and the final coarse
	// tombstone summary.
	MethodMigrateBatch = "CliqueMap.MigrateBatch"
	// MethodStats was added after initial deployment — the kind of
	// additive protocol evolution §6 describes. Old clients simply never
	// call it; old servers answer ErrNoSuchMethod and new clients cope.
	MethodStats = "CliqueMap.Stats"
	// MethodConfig lets external (TCP/WAN) callers discover the cell's
	// shard map without access to the in-process config store.
	MethodConfig = "CliqueMap.Config"
	// MethodDebug ships the cell's op-tracing snapshot: latency
	// percentiles per kind/transport, CPU accounts, and retained slow-op
	// traces. Additive like MethodStats.
	MethodDebug = "CliqueMap.Debug"
	// MethodHealth ships the fleet health plane's evaluated SLO state:
	// per-op-class burn rates, alert states, and probe-target
	// availability. Additive like MethodStats.
	MethodHealth = "CliqueMap.Health"
	// MethodTier ships the federation router's weighted-ring snapshot:
	// member cells, live/base weights, demotion state, and ownership
	// shares. Additive like MethodStats; cells outside a tier answer an
	// empty snapshot.
	MethodTier = "CliqueMap.Tier"
	// MethodSeal toggles a backend's handoff seal: a sealed backend
	// rejects client mutations with ErrShardSealed (migration streams and
	// pending-epoch writes still land) so the handoff delta pass can drain
	// to a closed set. Additive: old servers answer ErrNoSuchMethod and
	// the resize orchestrator aborts rather than risking a lost write.
	MethodSeal = "CliqueMap.Seal"
)

// ErrShardSealed is returned by a handoff-sealed backend for client
// mutations. It is a config-mismatch-class error: the client refreshes
// its config (picking up the seal bitmap or the post-handoff flip) and
// retries against the current owners. Defined here so both client and
// backend can errors.Is against it without importing each other.
var ErrShardSealed = fmt.Errorf("proto: shard sealed for handoff")

// ErrNotStored is returned by a backend whose data region cannot take a
// SET's or CAS's entry (past its largest slab class, or nothing to evict):
// nothing applied, and a retry would fail alike.
var ErrNotStored = errors.New("proto: entry not stored")

// NotStored reports ErrNotStored, in process or as a TCP error's message.
func NotStored(err error) bool {
	return errors.Is(err, ErrNotStored) || err != nil && strings.HasPrefix(err.Error(), ErrNotStored.Error())
}

// ErrRecovering is returned by a freshly-restarted backend for a GET that
// misses while the backend is still self-validating back into the quorum
// (§5.4): the replica cannot distinguish "never stored" from "acked
// before the crash, not yet recovered", so its miss must not count as an
// agreed-miss vote. Resident entries are served normally. Clients treat
// it like a transient replica fault: drop the vote and lean on the rest
// of the quorum.
var ErrRecovering = fmt.Errorf("proto: backend recovering, miss vote withheld")

// HelloResp is the connection handshake (§3's "established at
// connection-time alongside other RMA-relevant metadata"): everything a
// client needs to issue raw RMAs against this backend.
type HelloResp struct {
	ConfigID    uint64          `wire:"1"`
	Shard       int             `wire:"2,zigzag"`
	Buckets     int             `wire:"3"`
	Ways        int             `wire:"4"`
	IndexWindow rmem.WindowID   `wire:"5"`
	IndexEpoch  uint64          `wire:"6"`
	DataWindows []rmem.WindowID `wire:"7"`
}

// Marshal encodes the handshake; UnmarshalHelloResp decodes it.
func (h HelloResp) Marshal() []byte                        { return wire.Append(nil, &h) }
func UnmarshalHelloResp(b []byte) (h HelloResp, err error) { err = wire.Decode(b, &h); return }

// SetReq is every single-key mutation at a client-nominated version
// (§5.2); the RPC method names the kind. A SET installs key=value. An ERASE
// sends no value and removes key, its version retained in the tombstone
// cache so late SETs cannot resurrect the value. A CAS installs only if the
// stored version equals Expected. Repair marks repair-driven mutations
// (§5.4). Pending marks a mutation leg addressed to a pending-epoch owner
// during a resize: it bypasses the handoff seal on backends that own the
// key in the pending shard map.
type SetReq struct {
	Key     []byte           `wire:"1"`
	Value   []byte           `wire:"2"`
	Version truetime.Version `wire:"3,flat"`
	Repair  bool             `wire:"6"`
	Pending bool             `wire:"7"`
	// ConfigID is the sender's config view; a backend whose stamped ID
	// differs rejects with layout.ErrConfigChanged so stale clients
	// refresh instead of writing into a superseded epoch. 0 = unchecked
	// (repair traffic, old senders).
	ConfigID uint64 `wire:"8"`
	// Touches is the sender's queued access records for this backend, as
	// the encoded TouchReq that would have reported them (§4.2): a
	// mutation leg carries them instead of a Touch RPC. nil = none. An old
	// server skips the field; records are hints.
	Touches []byte `wire:"9,omitzero"`
	// Expected is a CAS's precondition; zero elsewhere, and then not sent.
	Expected truetime.Version `wire:"10,flat,omitzero"`
}

// AppendTo appends the encoded request to b; Marshal is AppendTo(nil).
// UnmarshalSetReq decodes it; Key, Value and Touches alias b.
func (r SetReq) AppendTo(b []byte) []byte            { return wire.Append(b, &r) }
func (r SetReq) Marshal() []byte                     { return r.AppendTo(nil) }
func UnmarshalSetReq(b []byte) (r SetReq, err error) { err = wire.Decode(b, &r); return }

// MutateResp answers SET/ERASE/CAS: whether the mutation applied, the
// version now stored, and how many evictions it forced (§4.2 instruments
// eviction-to-SET ratios). Sealed reports that the answering backend is
// handoff-sealed: its mutation journal has already drained, so the ack
// must not count toward the old epoch's quorum (the write survives only
// through the backend's pending-epoch ownership). Ptr names where an
// applied SET or CAS put the value in the replica's data region, so the
// writer's next one-sided GET can start its data read there (the client's
// ptrs.go); it is zero for an ERASE, a write not applied and one the
// replica keeps in its RPC side shard (§4.2), and a zero pointer adds no
// bytes. Tag 7 is retired (a hot-key promotion set the backend no longer
// keeps) and is never reused: older servers may still send it, and
// decoders skip it.
type MutateResp struct {
	Applied   bool             `wire:"1"`
	Stored    truetime.Version `wire:"2,flat"`
	Evictions int              `wire:"5"`
	Sealed    bool             `wire:"6"`
	Ptr       layout.Pointer   `wire:"8,flat,omitzero"`
}

// AppendTo appends the encoded response to b; Marshal is AppendTo(nil).
// UnmarshalMutateResp decodes it.
func (r MutateResp) AppendTo(b []byte) []byte                { return wire.Append(b, &r) }
func (r MutateResp) Marshal() []byte                         { return r.AppendTo(nil) }
func UnmarshalMutateResp(b []byte) (r MutateResp, err error) { err = wire.Decode(b, &r); return }

// GetReq is the RPC lookup fallback (overflowed buckets, WAN access, MSG
// strategy, and retries after RMA failures).
type GetReq struct {
	Key []byte `wire:"1"`
	// ConfigID, when non-zero, is the §6.1 self-validation stamp on the
	// two-sided read path: the server rejects the lookup when its config
	// differs, so a stale-routed client refreshes instead of trusting an
	// answer from a backend that may no longer own the key.
	ConfigID uint64 `wire:"2"`
}

// AppendTo appends the encoded request to b; Marshal is AppendTo(nil).
// UnmarshalGetReq decodes it; Key aliases b.
func (r GetReq) AppendTo(b []byte) []byte            { return wire.Append(b, &r) }
func (r GetReq) Marshal() []byte                     { return r.AppendTo(nil) }
func UnmarshalGetReq(b []byte) (r GetReq, err error) { err = wire.Decode(b, &r); return }

// GetResp carries the lookup result.
type GetResp struct {
	Found   bool             `wire:"1"`
	Value   []byte           `wire:"2"`
	Version truetime.Version `wire:"3,flat"`
}

// AppendTo appends the encoded response to b; Marshal is AppendTo(nil).
// UnmarshalGetResp decodes it; Value aliases b, which a client
// reads into its op's reused arena: the value leaves it as a copy.
func (r GetResp) AppendTo(b []byte) []byte             { return wire.Append(b, &r) }
func (r GetResp) Marshal() []byte                      { return r.AppendTo(nil) }
func UnmarshalGetResp(b []byte) (r GetResp, err error) { err = wire.Decode(b, &r); return }

// ScanItem is one KV summary in a cohort scan (§5.4): KeyHash + version,
// plus the key itself so the scanner can repair without a second lookup.
// Tombstone marks an erased key (§5.2): the scanner must see erases, or a
// dirty quorum would be "repaired" by resurrecting the erased value.
type ScanItem struct {
	HashHi    uint64           `wire:"1"`
	HashLo    uint64           `wire:"2"`
	Version   truetime.Version `wire:"3,flat"`
	Key       []byte           `wire:"6"`
	Tombstone bool             `wire:"7"`
}

// ScanReq asks a cohort member for its view of a shard's keys, paged by
// cursor.
type ScanReq struct {
	Shard  int    `wire:"1,zigzag"`
	Cursor uint64 `wire:"2"`
	Limit  int    `wire:"3"`
}

// Marshal encodes the request; UnmarshalScanReq decodes it.
func (r ScanReq) Marshal() []byte                      { return wire.Append(nil, &r) }
func UnmarshalScanReq(b []byte) (r ScanReq, err error) { err = wire.Decode(b, &r); return }

// ScanResp returns a page of summaries. TombSummary is the replica's
// coarse tombstone-summary version (§5.2): an upper bound on erases whose
// exact tombstones were FIFO-evicted from the cache. Repair uses it to
// refuse settling a key upward past a replica whose summary dominates the
// candidate — absence there may be a summary-evicted erase, not a lag.
type ScanResp struct {
	Items       []ScanItem       `wire:"1"`
	NextCursor  uint64           `wire:"2"`
	Done        bool             `wire:"3"`
	TombSummary truetime.Version `wire:"4,flat"`
}

// Marshal encodes the response; UnmarshalScanResp decodes it.
func (r ScanResp) Marshal() []byte                       { return wire.Append(nil, &r) }
func UnmarshalScanResp(b []byte) (r ScanResp, err error) { err = wire.Decode(b, &r); return }

// MigrateItem is one KV pair streamed during warm-spare migration (§6.1).
// Tombstone marks an erased key (mirroring ScanItem tag 7): the receiver
// installs the version in its tombstone cache instead of its index, so an
// erase just before a handoff cannot resurrect on the new owner.
type MigrateItem struct {
	Key       []byte           `wire:"1"`
	Value     []byte           `wire:"2"`
	Version   truetime.Version `wire:"3,flat"`
	Tombstone bool             `wire:"6"`
}

// MigrateBatchReq streams a page of a shard's contents to a spare (or back
// to a restarted primary). TombSummary, carried on the final batch, is the
// source's coarse tombstone-summary version; the receiver folds it into
// its own summary so even FIFO-evicted erases keep their upper bound
// across the handoff.
type MigrateBatchReq struct {
	Shard       int              `wire:"1,zigzag"`
	Items       []MigrateItem    `wire:"2"`
	Final       bool             `wire:"3"`
	TombSummary truetime.Version `wire:"4,flat"`
}

// Marshal encodes the request; UnmarshalMigrateBatchReq decodes it.
func (r MigrateBatchReq) Marshal() []byte { return wire.Append(nil, &r) }
func UnmarshalMigrateBatchReq(b []byte) (r MigrateBatchReq, err error) {
	err = wire.Decode(b, &r)
	return
}

// AssumeShardReq tells a spare to assume (or a primary to resume) serving
// a shard.
type AssumeShardReq struct {
	Shard int `wire:"1,zigzag"`
}

// Marshal encodes the request; UnmarshalAssumeShardReq decodes it.
func (r AssumeShardReq) Marshal() []byte { return wire.Append(nil, &r) }
func UnmarshalAssumeShardReq(b []byte) (r AssumeShardReq, err error) {
	err = wire.Decode(b, &r)
	return
}

// SealReq toggles the handoff seal on a backend (MethodSeal). On=true
// seals; On=false unseals (after the config flip, for backends that
// survive into the new epoch).
type SealReq struct {
	On bool `wire:"1"`
}

// Marshal encodes the request; UnmarshalSealReq decodes it.
func (r SealReq) Marshal() []byte                      { return wire.Append(nil, &r) }
func UnmarshalSealReq(b []byte) (r SealReq, err error) { err = wire.Decode(b, &r); return }

// ConfigResp describes the cell to external callers: the replication
// mode's replica count and the address serving each shard. During a
// resize the pending-epoch fields carry the target shard map and the
// per-old-shard seal bitmap (for cmstat RESIZE progress); they are empty
// outside transitions.
type ConfigResp struct {
	ConfigID          uint64   `wire:"1"`
	Replicas          int      `wire:"2"`
	Quorum            int      `wire:"3"`
	ShardAddrs        []string `wire:"4"`
	PendingShards     int      `wire:"5"`
	PendingShardAddrs []string `wire:"6"`
	SealedOld         []bool   `wire:"7"`
}

// Marshal encodes the config snapshot; UnmarshalConfigResp decodes it.
func (r ConfigResp) Marshal() []byte                         { return wire.Append(nil, &r) }
func UnmarshalConfigResp(b []byte) (r ConfigResp, err error) { err = wire.Decode(b, &r); return }

// StatsResp is a backend's introspection snapshot (a post-launch additive
// method; see MethodStats).
type StatsResp struct {
	Shard          int    `wire:"1,zigzag"`
	Sealed         bool   `wire:"2"`
	ResidentKeys   uint64 `wire:"3"`
	MemoryBytes    uint64 `wire:"4"`
	Sets           uint64 `wire:"5"`
	Gets           uint64 `wire:"6"`
	Evictions      uint64 `wire:"7"`
	IndexResizes   uint64 `wire:"8"`
	DataGrows      uint64 `wire:"9"`
	RepairsIssued  uint64 `wire:"10"`
	VersionRejects uint64 `wire:"11"`
	// Stripes is the backend's lock-stripe count; StripeMaxOps is the op
	// count of the busiest stripe and StripeTotalOps the sum across
	// stripes, so dashboards can report max/mean stripe skew.
	Stripes        uint64 `wire:"12"`
	StripeMaxOps   uint64 `wire:"13"`
	StripeTotalOps uint64 `wire:"14"`
	// HeatTracked is the number of keys currently in the backend's
	// space-saving top-k sketch; HeatTotal is the total accesses the
	// sketch has absorbed (the N of its N/k error bound).
	HeatTracked uint64 `wire:"15"`
	HeatTotal   uint64 `wire:"16"`
	// HandoffSealed reports the handoff seal (distinct from the
	// R2Immutable corpus seal in Sealed); PendingShards is the target
	// shard count of an in-flight resize as seen by this backend's
	// config snapshot, 0 outside transitions.
	HandoffSealed bool   `wire:"17"`
	PendingShards uint64 `wire:"18"`
	// Durable warm-restart telemetry (the cmstat RECOVERY columns).
	// CkptEpoch/CkptUnixNano identify the newest committed checkpoint
	// (zero when none this process lifetime); JournalRecords/JournalBytes
	// are the live write-ahead journal depth; RecoveredKeys is the corpus
	// size recovered at startup, ReplayedRecords the journal-tail records
	// replayed on top of the checkpoint, SelfValidated the recovered
	// entries that rejoined the quorum without needing a repair settle;
	// Recovering is the §5.4 self-validation window flag.
	CkptEpoch       uint64 `wire:"19"`
	CkptUnixNano    uint64 `wire:"20"`
	JournalRecords  uint64 `wire:"21"`
	JournalBytes    uint64 `wire:"22"`
	RecoveredKeys   uint64 `wire:"23"`
	ReplayedRecords uint64 `wire:"24"`
	SelfValidated   uint64 `wire:"25"`
	Recovering      bool   `wire:"26"`
	// Saturation telemetry (the cmstat SATURATION columns and the loadwall
	// limiting-resource probe). Stripe* cover lock contention on the
	// mutation path; RPC* cover the server's handler admission and modelled
	// admission queue; NIC* cover the serving NIC's engine queue. Gauges
	// (RPCWorkerLimit, RPCWorkersBusy, RPCRhoMilli, NICEngines,
	// NICRhoMilli) are instantaneous; the rest are cumulative and may
	// reset when a task restarts.
	StripeContended   uint64 `wire:"27"`
	StripeWaitNs      uint64 `wire:"28"`
	StripeHeldNs      uint64 `wire:"29"`
	StripeHeldSampled uint64 `wire:"30"`
	RPCWorkerLimit    uint64 `wire:"31"`
	RPCWorkersBusy    uint64 `wire:"32"`
	RPCQueuedSubmits  uint64 `wire:"33"`
	RPCSubmitWaitNs   uint64 `wire:"34"`
	RPCQueuedCalls    uint64 `wire:"35"`
	RPCQueueNs        uint64 `wire:"36"`
	RPCRhoMilli       uint64 `wire:"37"`
	NICEngines        uint64 `wire:"38"`
	NICRhoMilli       uint64 `wire:"39"`
	NICQueueNs        uint64 `wire:"40"`
	NICOps            uint64 `wire:"41"`
	// Tags 42–43 are retired (a hot-key promotion set the backend no
	// longer keeps) and are never reused: older servers may still send
	// them, and decoders skip them.
	// Data-region health: evictions with SlabDrains (slabs repurposed,
	// EntriesMoved relocated rather than evicted) mean calcified, without
	// mean full. DataFragMilli (1 − requested/allocated, ×1000) and
	// DataTailBytes (stranded past a slab's last chunk) are gauges.
	SlabDrains    uint64 `wire:"44,omitzero"`
	EntriesMoved  uint64 `wire:"45,omitzero"`
	DataFragMilli uint64 `wire:"46,omitzero"`
	DataTailBytes uint64 `wire:"47,omitzero"`
	// The op and fault counters that rode no tag before: ERASE and CAS
	// attempts, SETs that overflowed their bucket to the RPC fallback,
	// access records ingested, and entries purged on a failed checksum.
	Erases        uint64 `wire:"48,omitzero"`
	CasOps        uint64 `wire:"49,omitzero"`
	Overflows     uint64 `wire:"50,omitzero"`
	Touches       uint64 `wire:"51,omitzero"`
	CorruptPurged uint64 `wire:"52,omitzero"`
}

// Marshal encodes the stats snapshot; UnmarshalStatsResp decodes it.
func (r StatsResp) Marshal() []byte                        { return wire.Append(nil, &r) }
func UnmarshalStatsResp(b []byte) (r StatsResp, err error) { err = wire.Decode(b, &r); return }

// Ack is the empty success response.
type Ack struct{}

// Marshal encodes the ack.
func (Ack) Marshal() []byte { return wire.NewEncoder().Encoded() }
