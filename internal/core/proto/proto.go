// Package proto defines CliqueMap's RPC message schemas over the
// versioned TLV encoding of internal/wire.
//
// Every message tolerates unknown fields, which is what let the production
// system ship "over a hundred changes to CliqueMap's protocol definitions"
// without lockstep client/backend upgrades (§6). Field tags are therefore
// stable and append-only.
//
// A message's schema is its `wire:"N,..."` struct tags (grammar in
// internal/wire/codec.go), and for every message off the GET/SET datapath
// the tags are also the codec: Marshal and UnmarshalX are one-line
// wrappers over wire.Marshal / wire.Unmarshal. The eight datapath messages
// (SetReq, EraseReq, CasReq, GetReq, GetResp, MutateResp, TouchReq,
// TouchResp) carry the same tags but keep hand-written, allocation-tuned
// codecs (all but TouchReq append to storage the caller owns: AppendTo);
// TestCodecDifferential holds each to the tag-driven codec.
package proto

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"cliquemap/internal/rmem"
	"cliquemap/internal/truetime"
	"cliquemap/internal/wire"
)

// Method names served by every backend.
const (
	MethodHello         = "CliqueMap.Hello"
	MethodGet           = "CliqueMap.Get"
	MethodSet           = "CliqueMap.Set"
	MethodErase         = "CliqueMap.Erase"
	MethodCas           = "CliqueMap.Cas"
	MethodTouch         = "CliqueMap.Touch"
	MethodScan          = "CliqueMap.Scan"
	MethodUpdateVersion = "CliqueMap.UpdateVersion"
	MethodAssumeShard   = "CliqueMap.AssumeShard"
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

// begin starts a datapath message at the end of b. A b with no room at all
// (Marshal's nil) first grows to fit about size bytes; room is trusted.
func begin(b []byte, size int) (e wire.Encoder) {
	if len(b) == cap(b) {
		b = slices.Grow(b, size)
	}
	e.InitAppend(b)
	return e
}

// Version field tags, shared by every message embedding a VersionNumber.
func encodeVersion(e *wire.Encoder, base uint64, v truetime.Version) {
	e.Uint(base, uint64(v.Micros))
	e.Uint(base+1, v.ClientID)
	e.Uint(base+2, v.Seq)
}

type versionAcc struct{ m, c, s uint64 }

func (a versionAcc) version() truetime.Version {
	return truetime.Version{Micros: int64(a.m), ClientID: a.c, Seq: a.s}
}

// decode is the body of every tag-driven UnmarshalX. Like the hand-written
// decoders it returns whatever decoded before an error alongside it.
func decode[T any](b []byte) (T, error) {
	var m T
	err := wire.Unmarshal(b, &m)
	return m, err
}

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

// Marshal encodes the handshake.
func (h HelloResp) Marshal() []byte { return wire.Marshal(h) }

// UnmarshalHelloResp decodes the handshake.
func UnmarshalHelloResp(b []byte) (HelloResp, error) { return decode[HelloResp](b) }

// SetReq installs key=value at a client-nominated version (§5.2). Repair
// marks repair-driven SETs (§5.4) for observability. Pending marks a
// mutation leg addressed to a pending-epoch owner during a resize: it
// bypasses the handoff seal on backends that own the key in the pending
// shard map.
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
}

// AppendTo appends the encoded request to b; Marshal is AppendTo(nil).
func (r SetReq) AppendTo(b []byte) []byte {
	e := begin(b, len(r.Key)+len(r.Value)+48)
	e.Bytes(1, r.Key)
	e.Bytes(2, r.Value)
	encodeVersion(&e, 3, r.Version)
	e.Bool(6, r.Repair)
	e.Bool(7, r.Pending)
	e.Uint(8, r.ConfigID)
	return e.Encoded()
}

func (r SetReq) Marshal() []byte { return r.AppendTo(nil) }

// UnmarshalSetReq decodes the request. Key and Value alias b: they are
// valid only while b is — fine for RPC handlers, which finish with the
// request before returning and copy anything they keep.
func UnmarshalSetReq(b []byte) (SetReq, error) {
	var r SetReq
	var v versionAcc
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return r, err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.Key = d.Bytes()
		case 2:
			r.Value = d.Bytes()
		case 3:
			v.m = d.Uint()
		case 4:
			v.c = d.Uint()
		case 5:
			v.s = d.Uint()
		case 6:
			r.Repair = d.Bool()
		case 7:
			r.Pending = d.Bool()
		case 8:
			r.ConfigID = d.Uint()
		}
	}
	r.Version = v.version()
	return r, d.Err()
}

// MutateResp answers SET/ERASE/CAS: whether the mutation applied, the
// version now stored, and how many evictions it forced (§4.2 instruments
// eviction-to-SET ratios). Sealed reports that the answering backend is
// handoff-sealed: its mutation journal has already drained, so the ack
// must not count toward the old epoch's quorum (the write survives only
// through the backend's pending-epoch ownership).
type MutateResp struct {
	Applied   bool             `wire:"1"`
	Stored    truetime.Version `wire:"2,flat"`
	Evictions int              `wire:"5"`
	Sealed    bool             `wire:"6"`
}

// AppendTo appends the encoded response to b; Marshal is AppendTo(nil).
func (r MutateResp) AppendTo(b []byte) []byte {
	e := begin(b, 48)
	e.Bool(1, r.Applied)
	encodeVersion(&e, 2, r.Stored)
	e.Uint(5, uint64(r.Evictions))
	e.Bool(6, r.Sealed)
	return e.Encoded()
}

func (r MutateResp) Marshal() []byte { return r.AppendTo(nil) }

// UnmarshalMutateResp decodes the response.
func UnmarshalMutateResp(b []byte) (MutateResp, error) {
	var r MutateResp
	var v versionAcc
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return r, err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.Applied = d.Bool()
		case 2:
			v.m = d.Uint()
		case 3:
			v.c = d.Uint()
		case 4:
			v.s = d.Uint()
		case 5:
			r.Evictions = int(d.Uint())
		case 6:
			r.Sealed = d.Bool()
		}
	}
	r.Stored = v.version()
	return r, d.Err()
}

// EraseReq removes key at a client-nominated version; the version is
// retained in the tombstone cache so late SETs cannot resurrect the value
// (§5.2).
type EraseReq struct {
	Key      []byte           `wire:"1"`
	Version  truetime.Version `wire:"2,flat"`
	Pending  bool             `wire:"5"` // see SetReq.Pending
	ConfigID uint64           `wire:"6"` // see SetReq.ConfigID
}

// AppendTo appends the encoded request to b; Marshal is AppendTo(nil).
func (r EraseReq) AppendTo(b []byte) []byte {
	e := begin(b, len(r.Key)+48)
	e.Bytes(1, r.Key)
	encodeVersion(&e, 2, r.Version)
	e.Bool(5, r.Pending)
	e.Uint(6, r.ConfigID)
	return e.Encoded()
}

func (r EraseReq) Marshal() []byte { return r.AppendTo(nil) }

// UnmarshalEraseReq decodes the request. Key aliases b (see
// UnmarshalSetReq).
func UnmarshalEraseReq(b []byte) (EraseReq, error) {
	var r EraseReq
	var v versionAcc
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return r, err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.Key = d.Bytes()
		case 2:
			v.m = d.Uint()
		case 3:
			v.c = d.Uint()
		case 4:
			v.s = d.Uint()
		case 5:
			r.Pending = d.Bool()
		case 6:
			r.ConfigID = d.Uint()
		}
	}
	r.Version = v.version()
	return r, d.Err()
}

// CasReq installs Value only if the stored version equals Expected (§5.2).
type CasReq struct {
	Key      []byte           `wire:"1"`
	Value    []byte           `wire:"2"`
	Expected truetime.Version `wire:"3,flat"`
	Version  truetime.Version `wire:"6,flat"` // new version on success
	Pending  bool             `wire:"9"`      // see SetReq.Pending
	ConfigID uint64           `wire:"10"`     // see SetReq.ConfigID
}

// AppendTo appends the encoded request to b; Marshal is AppendTo(nil).
func (r CasReq) AppendTo(b []byte) []byte {
	e := begin(b, len(r.Key)+len(r.Value)+80)
	e.Bytes(1, r.Key)
	e.Bytes(2, r.Value)
	encodeVersion(&e, 3, r.Expected)
	encodeVersion(&e, 6, r.Version)
	e.Bool(9, r.Pending)
	e.Uint(10, r.ConfigID)
	return e.Encoded()
}

func (r CasReq) Marshal() []byte { return r.AppendTo(nil) }

// UnmarshalCasReq decodes the request. Key and Value alias b (see
// UnmarshalSetReq).
func UnmarshalCasReq(b []byte) (CasReq, error) {
	var r CasReq
	var exp, nv versionAcc
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return r, err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.Key = d.Bytes()
		case 2:
			r.Value = d.Bytes()
		case 3:
			exp.m = d.Uint()
		case 4:
			exp.c = d.Uint()
		case 5:
			exp.s = d.Uint()
		case 6:
			nv.m = d.Uint()
		case 7:
			nv.c = d.Uint()
		case 8:
			nv.s = d.Uint()
		case 9:
			r.Pending = d.Bool()
		case 10:
			r.ConfigID = d.Uint()
		}
	}
	r.Expected = exp.version()
	r.Version = nv.version()
	return r, d.Err()
}

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
func (r GetReq) AppendTo(b []byte) []byte {
	e := begin(b, len(r.Key)+24)
	e.Bytes(1, r.Key)
	e.Uint(2, r.ConfigID)
	return e.Encoded()
}

func (r GetReq) Marshal() []byte { return r.AppendTo(nil) }

// UnmarshalGetReq decodes the request. Key aliases b (see
// UnmarshalSetReq).
func UnmarshalGetReq(b []byte) (GetReq, error) {
	var r GetReq
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return r, err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.Key = d.Bytes()
		case 2:
			r.ConfigID = d.Uint()
		}
	}
	return r, d.Err()
}

// GetResp carries the lookup result.
type GetResp struct {
	Found   bool             `wire:"1"`
	Value   []byte           `wire:"2"`
	Version truetime.Version `wire:"3,flat"`
}

// AppendTo appends the encoded response to b; Marshal is AppendTo(nil).
func (r GetResp) AppendTo(b []byte) []byte {
	e := begin(b, len(r.Value)+48)
	e.Bool(1, r.Found)
	e.Bytes(2, r.Value)
	encodeVersion(&e, 3, r.Version)
	return e.Encoded()
}

func (r GetResp) Marshal() []byte { return r.AppendTo(nil) }

// UnmarshalGetResp decodes the response. Value aliases b, which a client
// reads into its op's reused arena: the value leaves it as a copy.
func UnmarshalGetResp(b []byte) (GetResp, error) {
	var r GetResp
	var v versionAcc
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return r, err
	}
	for d.Next() {
		switch d.Tag() {
		case 1:
			r.Found = d.Bool()
		case 2:
			r.Value = d.Bytes()
		case 3:
			v.m = d.Uint()
		case 4:
			v.c = d.Uint()
		case 5:
			v.s = d.Uint()
		}
	}
	r.Version = v.version()
	return r, d.Err()
}

// TouchReq is the batched access-record report clients send so backends
// can run recency-based eviction despite never seeing RMA GETs (§4.2).
type TouchReq struct {
	Keys [][]byte `wire:"1"`
}

// Marshal encodes the request.
func (r TouchReq) Marshal() []byte {
	e := wire.NewEncoder()
	for _, k := range r.Keys {
		AppendTouchKey(e, k)
	}
	return e.Encoded()
}

// AppendTouchKey adds one access record to the TouchReq being encoded in e:
// a client keeps its pending records as the request that will report them.
func AppendTouchKey(e *wire.Encoder, key []byte) { e.Bytes(1, key) }

// RangeTouchKeys calls fn with each access record of the encoded TouchReq
// b, in order, as a view of b: the handler walks its request where it lies
// and keeps only what it copies.
func RangeTouchKeys(b []byte, fn func(key []byte)) error { return rangeBytes(b, 1, fn) }

// rangeBytes calls fn with each tag field of the message b, in order, as a
// view of b.
func rangeBytes(b []byte, tag uint64, fn func(v []byte)) error {
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return err
	}
	for d.Next() {
		if d.Tag() == tag {
			fn(d.Bytes())
		}
	}
	return d.Err()
}

// UnmarshalTouchReq decodes the request; Keys alias b.
func UnmarshalTouchReq(b []byte) (r TouchReq, err error) {
	err = RangeTouchKeys(b, func(k []byte) { r.Keys = append(r.Keys, k) })
	return r, err
}

// TouchResp acknowledges a batched access-record report and piggybacks
// the backend's hot-key promotion set (its keys and the epoch naming it):
// the feed clients learn promotion from. Additive: pre-promotion servers
// answered a bare Ack (an empty frame), which decodes as epoch 0 with no
// keys, and pre-promotion clients ignore the body entirely.
type TouchResp struct {
	HotEpoch uint64   `wire:"1,omitzero"`
	HotKeys  [][]byte `wire:"2"`
}

// AppendTo appends the encoded response to b; Marshal is AppendTo(nil).
func (r TouchResp) AppendTo(b []byte) []byte {
	e := begin(b, 128)
	if r.HotEpoch != 0 {
		e.Uint(1, r.HotEpoch)
	}
	for _, k := range r.HotKeys {
		e.Bytes(2, k)
	}
	return e.Encoded()
}

func (r TouchResp) Marshal() []byte { return r.AppendTo(nil) }

// TouchRespEpoch returns the HotEpoch of the encoded TouchResp b, and
// RangeHotKeys calls fn with each of its promoted keys, in order, as a view
// of b: a client reads the epoch and walks the keys only when it changed.
func TouchRespEpoch(b []byte) (epoch uint64, err error) {
	var d wire.Decoder
	if err := d.Init(b); err != nil {
		return 0, err
	}
	for d.Next() {
		if d.Tag() == 1 {
			epoch = d.Uint()
		}
	}
	return epoch, d.Err()
}

func RangeHotKeys(b []byte, fn func(key []byte)) error { return rangeBytes(b, 2, fn) }

// UnmarshalTouchResp decodes the response; HotKeys alias b.
func UnmarshalTouchResp(b []byte) (r TouchResp, err error) {
	if r.HotEpoch, err = TouchRespEpoch(b); err == nil {
		err = RangeHotKeys(b, func(k []byte) { r.HotKeys = append(r.HotKeys, k) })
	}
	return r, err
}

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

// Marshal encodes the request.
func (r ScanReq) Marshal() []byte { return wire.Marshal(r) }

// UnmarshalScanReq decodes the request.
func UnmarshalScanReq(b []byte) (ScanReq, error) { return decode[ScanReq](b) }

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

// Marshal encodes the response.
func (r ScanResp) Marshal() []byte { return wire.Marshal(r) }

// UnmarshalScanResp decodes the response.
func UnmarshalScanResp(b []byte) (ScanResp, error) { return decode[ScanResp](b) }

// UpdateVersionReq bumps the stored version of key to Version without
// changing its value — step 2 of the §5.4 repair procedure, which settles
// all three replicas on one VersionNumber.
type UpdateVersionReq struct {
	Key     []byte           `wire:"1"`
	Version truetime.Version `wire:"2,flat"`
}

// Marshal encodes the request.
func (r UpdateVersionReq) Marshal() []byte { return wire.Marshal(r) }

// UnmarshalUpdateVersionReq decodes the request.
func UnmarshalUpdateVersionReq(b []byte) (UpdateVersionReq, error) {
	return decode[UpdateVersionReq](b)
}

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

// Marshal encodes the request.
func (r MigrateBatchReq) Marshal() []byte { return wire.Marshal(r) }

// UnmarshalMigrateBatchReq decodes the request.
func UnmarshalMigrateBatchReq(b []byte) (MigrateBatchReq, error) { return decode[MigrateBatchReq](b) }

// AssumeShardReq tells a spare to assume (or a primary to resume) serving
// a shard.
type AssumeShardReq struct {
	Shard int `wire:"1,zigzag"`
}

// Marshal encodes the request.
func (r AssumeShardReq) Marshal() []byte { return wire.Marshal(r) }

// UnmarshalAssumeShardReq decodes the request.
func UnmarshalAssumeShardReq(b []byte) (AssumeShardReq, error) { return decode[AssumeShardReq](b) }

// SealReq toggles the handoff seal on a backend (MethodSeal). On=true
// seals; On=false unseals (after the config flip, for backends that
// survive into the new epoch).
type SealReq struct {
	On bool `wire:"1"`
}

// Marshal encodes the request.
func (r SealReq) Marshal() []byte { return wire.Marshal(r) }

// UnmarshalSealReq decodes the request.
func UnmarshalSealReq(b []byte) (SealReq, error) { return decode[SealReq](b) }

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

// Marshal encodes the config snapshot.
func (r ConfigResp) Marshal() []byte { return wire.Marshal(r) }

// UnmarshalConfigResp decodes the config snapshot.
func UnmarshalConfigResp(b []byte) (ConfigResp, error) { return decode[ConfigResp](b) }

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
	// Hot-key promotion set (the cmstat PROMOTED column): HotEpoch
	// identifies the set (bumped on every membership change), HotKeys are
	// the keys this backend currently advertises as promoted.
	HotEpoch uint64   `wire:"42"`
	HotKeys  [][]byte `wire:"43"`
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

// Marshal encodes the stats snapshot.
func (r StatsResp) Marshal() []byte { return wire.Marshal(r) }

// UnmarshalStatsResp decodes the stats snapshot.
func UnmarshalStatsResp(b []byte) (StatsResp, error) { return decode[StatsResp](b) }

// Ack is the empty success response.
type Ack struct{}

// Marshal encodes the ack.
func (Ack) Marshal() []byte { return wire.NewEncoder().Encoded() }
