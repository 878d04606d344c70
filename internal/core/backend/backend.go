// Package backend implements a CliqueMap backend task (§4): the
// RMA-accessible index and data regions, and the RPC handlers that own all
// mutation — SET/ERASE/CAS with version monotonicity, eviction under
// capacity and associativity conflicts, access-record ingestion for
// recency policies, index resizing, data-region reshaping, cohort
// scanning, quorum repair, and warm-spare migration.
//
// The division of labour is the paper's core idea: GETs never run backend
// code (they are served by the NIC out of registered memory), so
// everything here is straightforward locked Go — and the self-validating
// formats in internal/core/layout make it safe for this code to rearrange
// memory underneath in-flight RMAs, because any client that observes an
// intermediate state fails validation and retries.
//
// # Concurrency model
//
// Mutations are synchronized by bucket-stripe locks rather than one global
// mutex. A key hashes to stripe h.Lo % nStripes, where nStripes divides
// the bucket count (and keeps dividing it across doubling resizes), so a
// stripe owns a fixed set of buckets, that set's side-table shard, a
// per-stripe eviction policy, and a per-stripe counter shard. Mutations on
// different stripes proceed fully in parallel.
//
// Lock-ordering rules (violations deadlock; see DESIGN.md, "Backend storage
// core"):
//
//  1. Stripe locks are acquired in ascending index order. Single-key ops
//     take exactly one; cell-wide ops (resize, restamp, compact-restart,
//     scan, Items) take all of them, holding none on entry.
//  2. Leaf locks (tombMu, journalMu, the persist store's mutex,
//     the data region's wmu, the rmem region stripes, the slab allocator's
//     internal locks, a stripe's policy — guarded by that stripe's own
//     mutex) may be taken under stripe locks but never the reverse.
//  3. Allocation that can evict or drain a slab (allocWithEviction) must be
//     entered with NO stripe lock held: eviction locks a victim's stripe,
//     and a drain locks the stripe of each entry it relocates. Installs
//     therefore run as gate → unlock → allocate+write → relock → re-gate →
//     publish.
//
// # File map
//
//	backend.go   options, the Backend struct, New, stripe locks, accessors
//	table.go     the index table (bucket view, put/clear slot, header stamp) and the corpus walker
//	apply.go     lookup, version gate, gated write (SET/CAS), erase, install, eviction, publish
//	reshape.go   data-region growth, slab drains (relocation), index resize, compact-restart, clear, post-resize GC
//	tombstone.go the tombstone cache and the Backend's only access to it
//	handoff.go   seal, handoff journal, the one handoff source loop; persist.go the durable tee,
//	             checkpoints and recovery; service.go the RPC surface and repair; hotset.go promotion
package backend

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/eviction"
	"cliquemap/internal/hashring"
	"cliquemap/internal/persist"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/slab"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// SetTracer attaches the cell's op tracer so MethodDebug can serve
// snapshots. Safe to leave unset: the handler degrades to CPU accounts
// only.
func (b *Backend) SetTracer(t *trace.Tracer) { b.tracer.Store(t) }

// Tracer returns the attached op tracer, or nil.
func (b *Backend) Tracer() *trace.Tracer { return b.tracer.Load() }

// Heat returns the backend's key-heat sketch.
func (b *Backend) Heat() *stats.TopK { return b.heat }

// SetHealthSource attaches the marshalled-HealthResp provider behind
// MethodHealth. Safe to leave unset: the handler serves an empty
// snapshot.
func (b *Backend) SetHealthSource(fn func() []byte) { b.healthSrc.Store(&fn) }

// SetTierSource attaches the marshalled-TierResp provider behind
// MethodTier. Safe to leave unset: the handler serves an empty snapshot.
func (b *Backend) SetTierSource(fn func() []byte) { b.tierSrc.Store(&fn) }

// NICSaturation mirrors the serving NIC's queue-pressure snapshot
// (pony.Saturation) without importing the transport package.
type NICSaturation struct {
	Engines  uint64 // current engine count (gauge)
	RhoMilli uint64 // utilization at the last engine visit ×1000 (gauge)
	QueueNs  uint64 // cumulative modelled engine-queue ns
	Ops      uint64 // cumulative ops served
}

// SetNICSatSource attaches the serving NIC's saturation snapshot provider
// so MethodStats can report engine-queue pressure alongside the backend's
// own counters. Safe to leave unset (RPC-only cells): zeros are served.
func (b *Backend) SetNICSatSource(fn func() NICSaturation) { b.nicSatSrc.Store(&fn) }

// NICSat returns the serving NIC's saturation snapshot, or zeros.
func (b *Backend) NICSat() NICSaturation {
	if fn := b.nicSatSrc.Load(); fn != nil {
		return (*fn)()
	}
	return NICSaturation{}
}

// stripeSaturation aggregates the per-stripe lock-contention counters:
// how often mutations collided on a stripe, how long contended acquirers
// waited, and the sampled critical-section occupancy.
type stripeSaturation struct {
	Contended   uint64 // acquisitions that found the lock held
	WaitNs      uint64 // wall-ns contended acquirers waited
	HeldNs      uint64 // wall-ns of sampled (1/heldSampleEvery) critical sections
	HeldSampled uint64 // critical sections measured into HeldNs
}

// stripeSaturation snapshots the stripe-lock contention counters. The
// counters live under each stripe's mutex (keeping them off the hot
// path's pre-lock cache traffic), so the snapshot takes each lock
// briefly; it only runs on a Stats snapshot.
func (b *Backend) stripeSaturation() stripeSaturation {
	var out stripeSaturation
	for i := range b.stripes {
		s := &b.stripes[i]
		s.mu.Lock()
		out.Contended += s.lockContended
		out.WaitNs += s.lockWaitNs
		out.HeldNs += s.lockHeldNs
		out.HeldSampled += s.lockHeldSampled
		s.mu.Unlock()
	}
	return out
}

// noteHeat feeds one key access into the heat sketch, reusing the hash
// the hot path already computed. Probe-namespace canaries are excluded so
// the health plane's own synthetic traffic can never masquerade as a hot
// key, and the federation tier's follower-cache namespace is excluded so
// cached copies of remotely-owned keys don't re-count reads the owner
// cell already measured (follower traffic would otherwise self-amplify
// apparent heat and mis-drive the promotion loop).
func (b *Backend) noteHeat(key []byte, h hashring.KeyHash) {
	if !layout.IsProbeKey(key) && !layout.IsTierKey(key) {
		b.heat.Touch(key, h.Lo)
	}
}

// heldSampleEvery sets how many lockStripe acquisitions share one
// held-time measurement; sampling keeps the clock reads off all but
// 1/64th of hot-path critical sections.
const heldSampleEvery = 64

// lockStripe acquires s.mu, attributing contended waits to the op's span
// sink and to the stripe's contention counters. All counter writes happen
// after acquisition, inside the critical section the caller already owns —
// the uncontended path is a single TryLock CAS plus a plain increment on
// memory no other CPU is touching, so it pays (almost) nothing over a
// plain Lock and adds no shared-cache-line traffic before the lock.
// Sampled acquisitions additionally time their critical section, billed at
// release by stripe.unlock.
func lockStripe(s *stripe, sink *trace.SpanSink) {
	if !s.mu.TryLock() {
		t0 := time.Now()
		s.mu.Lock()
		wait := uint64(time.Since(t0))
		s.lockContended++
		s.lockWaitNs += wait
		if sink != nil {
			sink.Annotate(trace.SpanStripeWait, 0, wait)
		}
	}
	s.lockAcq++
	if s.lockAcq%heldSampleEvery == 0 {
		s.heldStart = time.Now()
	}
}

// unlock releases the stripe, billing a sampled critical section's held
// time. Every stripe unlock must come through here so a sampled section is
// always closed by its own release.
func (s *stripe) unlock() {
	if !s.heldStart.IsZero() {
		s.lockHeldNs += uint64(time.Since(s.heldStart))
		s.lockHeldSampled++
		s.heldStart = time.Time{}
	}
	s.mu.Unlock()
}

// maxStripes bounds the stripe count; the actual count is the largest
// power of two ≤ maxStripes that divides the initial bucket count, so a
// bucket's stripe is stable across doubling resizes.
const maxStripes = 16

// Options configures one backend task.
type Options struct {
	Shard  int    // primary shard served; -1 for an idle spare
	HostID int    // fabric host
	Addr   string // RPC address

	Geometry     layout.Geometry // initial index shape
	DataBytes    int             // initially populated data-region bytes
	DataMaxBytes int             // reserved ceiling for reshaping
	SlabBytes    int             // slab size for the data allocator

	Policy           string  // eviction policy name (internal/eviction)
	MaxLoadFactor    float64 // index resize trigger (§4.1)
	GrowStep         float64 // fraction of current size to grow by
	OverflowFallback bool    // RPC side-table on bucket overflow (§4.2)
	TombstoneCap     int     // tombstone cache capacity (§5.2)
	ReshapeEnabled   bool    // false = paper's "pre-allocate for peak" baseline
	// CompressThreshold enables DEFLATE compression of values at least
	// this many bytes (0 disables) — one of the post-launch features §9
	// credits to keeping mutations on RPC.
	CompressThreshold int
	// Hash overrides the key hash (§6.5 added customizable hash functions
	// for disaggregation users). Must match the clients'; nil means
	// hashring.DefaultHash.
	Hash hashring.HashFunc

	// DataDir, when non-empty, enables the durability plane (persist.go):
	// applied mutations tee into a write-ahead journal under DataDir,
	// checkpoints collapse the journal, and New recovers the corpus warm
	// from the newest checkpoint + journal tail before serving.
	DataDir string
	// CheckpointEvery is the journal depth (records) at which the mutation
	// that reaches it runs a checkpoint; 0 takes a default.
	CheckpointEvery int
	// Recovering starts the backend in the §5.4 self-validation window:
	// resident entries serve, misses bounce with proto.ErrRecovering, and
	// bucket headers carry a sentinel config stamp that diverts one-sided
	// readers to RPC, until EndRecovery. Set by restarts rejoining a
	// quorum whose corpus may be behind.
	Recovering bool
	// PersistHook passes through to persist.Options (crash injection for
	// tests). Journal appends are not fsynced: kill -9 survival does not
	// need it, the OS page cache persists.
	PersistHook func(point string) bool
}

func (o Options) withDefaults() Options {
	o.Hash = hashring.OrDefault(o.Hash)
	if o.Geometry.Buckets == 0 {
		o.Geometry = layout.Geometry{Buckets: 256, Ways: layout.DefaultWays}
	}
	if o.Geometry.Ways == 0 {
		o.Geometry.Ways = layout.DefaultWays
	}
	if o.DataBytes == 0 {
		o.DataBytes = 4 << 20
	}
	if o.DataMaxBytes < o.DataBytes {
		o.DataMaxBytes = o.DataBytes * 16
	}
	if !o.ReshapeEnabled {
		o.DataBytes = o.DataMaxBytes // pre-allocate for peak (the baseline)
	}
	if o.SlabBytes == 0 {
		o.SlabBytes = 256 << 10
	}
	if o.MaxLoadFactor == 0 {
		o.MaxLoadFactor = 0.70
	}
	if o.GrowStep == 0 {
		o.GrowStep = 0.5
	}
	if o.TombstoneCap == 0 {
		o.TombstoneCap = 8192
	}
	return o
}

// Counters aggregates the backend's observable behaviour.
type Counters struct {
	Sets, SetsApplied     uint64
	Erases, ErasesApplied uint64
	CasOps, CasApplied    uint64
	Gets                  uint64
	VersionRejects        uint64
	CapacityEvictions     uint64
	AssocEvictions        uint64
	Overflows             uint64
	Touches               uint64
	IndexResizes          uint64
	DataGrows             uint64
	RepairsIssued         uint64
	CorruptPurged         uint64
	SlabDrains            uint64 // slabs sealed for repurposing to another size class
	EntriesMoved          uint64 // entries a drain relocated rather than evicted
}

// Add sums o into c, field by field.
func (c *Counters) Add(o Counters) {
	c.Sets += o.Sets
	c.SetsApplied += o.SetsApplied
	c.Erases += o.Erases
	c.ErasesApplied += o.ErasesApplied
	c.CasOps += o.CasOps
	c.CasApplied += o.CasApplied
	c.Gets += o.Gets
	c.VersionRejects += o.VersionRejects
	c.CapacityEvictions += o.CapacityEvictions
	c.AssocEvictions += o.AssocEvictions
	c.Overflows += o.Overflows
	c.Touches += o.Touches
	c.IndexResizes += o.IndexResizes
	c.DataGrows += o.DataGrows
	c.RepairsIssued += o.RepairsIssued
	c.CorruptPurged += o.CorruptPurged
	c.SlabDrains += o.SlabDrains
	c.EntriesMoved += o.EntriesMoved
}

// counterShard is one stripe's share of the counters, updated lock-free so
// stats reads never contend with serving.
type counterShard struct {
	sets, setsApplied     atomic.Uint64
	erases, erasesApplied atomic.Uint64
	casOps, casApplied    atomic.Uint64
	gets                  atomic.Uint64
	versionRejects        atomic.Uint64
	capacityEvictions     atomic.Uint64
	assocEvictions        atomic.Uint64
	overflows             atomic.Uint64
	touches               atomic.Uint64
	indexResizes          atomic.Uint64
	dataGrows             atomic.Uint64
	repairsIssued         atomic.Uint64
	corruptPurged         atomic.Uint64
	slabDrains            atomic.Uint64
	entriesMoved          atomic.Uint64
}

// ops returns the stripe's total op count (for skew reporting).
func (c *counterShard) ops() uint64 {
	return c.sets.Load() + c.erases.Load() + c.casOps.Load() + c.gets.Load() + c.touches.Load()
}

func (c *counterShard) addTo(out *Counters) {
	out.Sets += c.sets.Load()
	out.SetsApplied += c.setsApplied.Load()
	out.Erases += c.erases.Load()
	out.ErasesApplied += c.erasesApplied.Load()
	out.CasOps += c.casOps.Load()
	out.CasApplied += c.casApplied.Load()
	out.Gets += c.gets.Load()
	out.VersionRejects += c.versionRejects.Load()
	out.CapacityEvictions += c.capacityEvictions.Load()
	out.AssocEvictions += c.assocEvictions.Load()
	out.Overflows += c.overflows.Load()
	out.Touches += c.touches.Load()
	out.IndexResizes += c.indexResizes.Load()
	out.DataGrows += c.dataGrows.Load()
	out.RepairsIssued += c.repairsIssued.Load()
	out.CorruptPurged += c.corruptPurged.Load()
	out.SlabDrains += c.slabDrains.Load()
	out.EntriesMoved += c.entriesMoved.Load()
}

// dataRegion is the slab-managed DataEntry pool.
type dataRegion struct {
	region *rmem.Region
	alloc  *slab.Allocator

	cur     atomic.Pointer[rmem.Window] // newest window; lock-free hot-path reads
	wmu     sync.Mutex                  // windows slice + growth serialization
	windows []*rmem.Window              // all live windows, oldest first
}

func (d *dataRegion) current() *rmem.Window { return d.cur.Load() }

func (d *dataRegion) windowIDs() []rmem.WindowID {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	out := make([]rmem.WindowID, len(d.windows))
	for i, w := range d.windows {
		out[i] = w.ID
	}
	return out
}

// sideEntry is an overflowed KV pair reachable only via RPC (§4.2), filed
// under its key's hash like an index entry.
type sideEntry struct {
	key, value []byte
	version    truetime.Version
}

// newSideEntry copies key and value into one buffer the entry owns.
func newSideEntry(key, value []byte, v truetime.Version) sideEntry {
	kv := append(append(make([]byte, 0, len(key)+len(value)), key...), value...)
	return sideEntry{key: kv[:len(key):len(key)], value: kv[len(key):], version: v}
}

// stripe owns an equivalence class of buckets (bucket % nStripes), that
// class's side-table shard, eviction-policy slots, and counter shard.
type stripe struct {
	mu     sync.Mutex
	policy eviction.Policy
	side   map[hashring.KeyHash]sideEntry
	ctr    counterShard

	// Lock-contention telemetry (the loadwall saturation plane). All of
	// it — counters included — is guarded by mu itself and mutated only
	// inside the critical section, so the hot path never touches a shared
	// cache line before it owns the stripe. StripeSaturation (MethodStats
	// only) takes each stripe's lock briefly to snapshot.
	lockAcq         uint64 // lockStripe acquisitions (sampling base)
	lockContended   uint64 // acquisitions that found the lock held
	lockWaitNs      uint64 // measured wall-ns contended acquirers waited
	lockHeldNs      uint64 // measured wall-ns of sampled critical sections
	lockHeldSampled uint64 // critical sections measured into lockHeldNs
	heldStart       time.Time
}

// Backend is one CliqueMap backend task.
type Backend struct {
	opt   Options
	store *config.Store
	reg   *rmem.Registry
	gen   *truetime.Generator
	net   *rpc.Network
	srv   *rpc.Server
	acct  *stats.CPUAccount

	// tracer, when set, serves Debug RPC snapshots; the cell attaches the
	// shared per-host tracer after construction.
	tracer atomic.Pointer[trace.Tracer]

	// heat is the always-on key-heat sketch behind the health plane's
	// hot-key telemetry. It sees every mutation and RPC/MSG lookup plus
	// the client-reported access records (the keys of one-sided RMA GETs
	// the backend never executes), so heavy hitters
	// are visible on every transport.
	heat *stats.TopK

	// healthSrc, when set, serves MethodHealth snapshots; the cell
	// attaches a closure over its health plane after construction.
	healthSrc atomic.Pointer[func() []byte]

	stripes  []stripe
	nStripes uint64

	idx  atomic.Pointer[indexRegion] // swapped only under all stripe locks
	data atomic.Pointer[dataRegion]  // swapped only under all stripe locks

	tombMu sync.Mutex
	tomb   *tombstoneCache
	// tombLive and tombSummarySet shadow the cache's state so the hot
	// mutation path can skip tombMu entirely while the cache is empty (the
	// steady state: no recent ERASEs). Per-key correctness holds because a
	// key's tombstone insert and its later drop/bound are both serialized
	// by that key's stripe lock, which orders the shadow updates too.
	tombLive       atomic.Int64
	tombSummarySet atomic.Bool

	shard atomic.Int64 // served shard; -1 for an idle spare

	sealed   atomic.Bool
	configID atomic.Uint64

	// handoffSealed is the shard-handoff seal (distinct from the
	// R2Immutable corpus seal above): while set, client mutations bounce
	// with proto.ErrShardSealed unless they are pending-epoch writes this
	// backend owns. Sealing takes every stripe lock as a barrier; see
	// handoff.go.
	handoffSealed atomic.Bool

	// journal records keys of mutations published while a handoff is in
	// flight, so the post-seal delta pass can stream exactly what the
	// bulk snapshot missed. Notes are taken under the key's stripe lock;
	// journalMu is a leaf lock below it. journalActive keeps the
	// steady-state mutation path to one atomic load.
	journalActive atomic.Bool
	journalMu     sync.Mutex
	journal       map[string]struct{}

	evictCursor atomic.Uint64 // round-robin start stripe for capacity eviction

	// persist, when set, is the durable store behind warm restarts:
	// applied mutations tee into its journal under the key's stripe lock
	// (persist.go). Stored only after recovery replay completes, so
	// replayed records are not re-journaled. Memory-only backends keep it
	// nil and pay one atomic load per mutation.
	persist    atomic.Pointer[persist.Store]
	recovering atomic.Bool
	// ckptMu serializes checkpoints — CheckpointNow callers wait for it,
	// the journal-depth trigger on a mutation skips while it is held — so
	// two never interleave records in the one temp image. It is taken
	// before any stripe lock, never under one.
	ckptMu sync.Mutex

	// Warm-restart telemetry behind the RECOVERY stats columns.
	recoveredKeys   atomic.Uint64
	replayedRecords atomic.Uint64
	recoverySettles atomic.Uint64
	selfValidated   atomic.Uint64

	// tierSrc, when set, serves MethodTier snapshots; the federation
	// tier attaches a closure over its router after construction. Kept
	// at the tail: it is cold, and the fields above it are hot-path.
	tierSrc atomic.Pointer[func() []byte]

	// nicSatSrc, when set, supplies the serving NIC's saturation snapshot
	// for MethodStats (cold; read only by stats scrapes).
	nicSatSrc atomic.Pointer[func() NICSaturation]

	// Hot-key promotion state (hotset.go). Cold: evaluated on touch
	// ingestion and stats scrapes, read via one atomic load everywhere
	// else.
	hotMu        sync.Mutex      // serializes evaluations and their epoch bumps
	hotCand      []stats.HotCand // under hotMu: evalHot's selection scratch
	hot          atomic.Pointer[hotSet]
	hotEvalTotal atomic.Uint64 // sketch total at the last evaluation
}

// New builds and registers a backend task: its memory regions, RMA
// windows, and RPC service. The same registry must be attached to the
// host's NIC so inbound RMAs can be served.
func New(opt Options, store *config.Store, reg *rmem.Registry, net *rpc.Network, gen *truetime.Generator, acct *stats.CPUAccount) (*Backend, error) {
	opt = opt.withDefaults()
	if err := opt.Geometry.Validate(); err != nil {
		return nil, err
	}
	b := &Backend{
		opt:   opt,
		store: store,
		reg:   reg,
		gen:   gen,
		net:   net,
		acct:  acct,
		tomb:  newTombstoneCache(opt.TombstoneCap),
		heat:  stats.NewTopK(0),
	}

	// Stripe count: largest power of two ≤ maxStripes dividing the initial
	// bucket count. Resizes double the bucket count, preserving
	// divisibility, so a bucket's stripe never changes.
	n := maxStripes
	for opt.Geometry.Buckets%n != 0 {
		n /= 2
	}
	b.shard.Store(int64(opt.Shard))
	b.nStripes = uint64(n)
	b.stripes = make([]stripe, n)
	if err := b.resetStripes(opt.Geometry); err != nil {
		return nil, err
	}
	if store != nil {
		b.configID.Store(store.Get().ID)
	}
	if opt.Recovering {
		b.recovering.Store(true) // before newIndex: buckets get the sentinel stamp
	}

	b.idx.Store(b.newIndex(opt.Geometry, 1))
	dr, err := b.newDataRegion(opt.DataBytes)
	if err != nil {
		return nil, err
	}
	b.data.Store(dr)

	// Recover the durable corpus before the RPC service exists: replay
	// runs with zero concurrent traffic, and the journal tee activates
	// only once replay is done (persist.go).
	if opt.DataDir != "" {
		if err := b.openPersist(); err != nil {
			return nil, fmt.Errorf("backend: persist: %w", err)
		}
	}

	b.srv = net.Serve(opt.Addr, opt.HostID)
	b.registerHandlers()
	return b, nil
}

// stripeOf returns the stripe owning h's bucket. Because nStripes divides
// the bucket count, h.Lo % buckets % nStripes == h.Lo % nStripes.
func (b *Backend) stripeOf(h hashring.KeyHash) *stripe {
	return &b.stripes[h.Lo%b.nStripes]
}

// lockAll acquires every stripe in ascending order (cell-wide ops).
func (b *Backend) lockAll() {
	for i := range b.stripes {
		b.stripes[i].mu.Lock()
	}
}

func (b *Backend) unlockAll() {
	for i := len(b.stripes) - 1; i >= 0; i-- {
		b.stripes[i].mu.Unlock()
	}
}

// Addr returns the RPC address.
func (b *Backend) Addr() string { return b.opt.Addr }

// HostID returns the fabric host.
func (b *Backend) HostID() int { return b.opt.HostID }

// Shard returns the currently served shard (-1 for idle spare).
func (b *Backend) Shard() int { return int(b.shard.Load()) }

// Server exposes the RPC server (for Stop/Start fault injection).
func (b *Backend) Server() *rpc.Server { return b.srv }

// CountersSnapshot merges the per-stripe counter shards.
func (b *Backend) CountersSnapshot() Counters {
	var out Counters
	for i := range b.stripes {
		b.stripes[i].ctr.addTo(&out)
	}
	return out
}

// StripeOps returns each stripe's total op count — the raw data behind the
// Stats RPC's stripe-skew fields.
func (b *Backend) StripeOps() []uint64 {
	out := make([]uint64, len(b.stripes))
	for i := range b.stripes {
		out[i] = b.stripes[i].ctr.ops()
	}
	return out
}

// MemoryBytes reports the backend's populated DRAM footprint: index region
// plus populated data region — the Figure 3 metric.
func (b *Backend) MemoryBytes() int {
	return b.idx.Load().geo.RegionBytes() + b.data.Load().region.Populated()
}

// DataUtilization returns allocated/populated for the data region.
func (b *Backend) DataUtilization() float64 {
	st := b.data.Load().alloc.Stats()
	if st.PoolBytes == 0 {
		return 0
	}
	return float64(st.AllocatedBytes) / float64(st.PoolBytes)
}

// hello describes the backend's current RMA geometry for the client
// handshake.
func (b *Backend) hello() proto.HelloResp {
	idx := b.idx.Load()
	return proto.HelloResp{
		ConfigID:    b.configID.Load(),
		Shard:       b.Shard(),
		Buckets:     idx.geo.Buckets,
		Ways:        idx.geo.Ways,
		IndexWindow: idx.win.ID,
		IndexEpoch:  idx.epoch,
		DataWindows: b.data.Load().windowIDs(),
	}
}

// Len returns the resident entry count.
func (b *Backend) Len() int {
	n := int(b.idx.Load().used.Load())
	for i := range b.stripes {
		s := &b.stripes[i]
		s.mu.Lock()
		n += len(s.side)
		s.unlock()
	}
	return n
}

// Seal marks the corpus immutable (§6.4, R=2/Immutable): client-facing
// mutations are rejected from now on. Repair and migration paths remain
// open — they preserve, rather than change, the corpus.
func (b *Backend) Seal() { b.sealed.Store(true) }

// Sealed reports whether client mutations are rejected.
func (b *Backend) Sealed() bool { return b.sealed.Load() }

// ingestTouches feeds an encoded TouchReq's access records to the eviction
// policy (§4.2), each key's hash to its stripe's, as the request lies.
func (b *Backend) ingestTouches(req []byte) error {
	return proto.RangeTouchKeys(req, func(k []byte) {
		h := b.opt.Hash(k)
		s := b.stripeOf(h)
		s.mu.Lock()
		s.policy.Touch(h)
		s.unlock()
		s.ctr.touches.Add(1)
		// Touch batches carry the keys of one-sided RMA GETs the backend
		// never executes — without this feed, RMA-heavy hot keys would be
		// invisible to heat telemetry.
		b.noteHeat(k, h)
	})
}

// rpcClient builds the backend's outbound RPC identity (repairs,
// migrations).
func (b *Backend) rpcClient() *rpc.Client {
	return b.net.Client(b.opt.HostID, fmt.Sprintf("backend-%s", b.opt.Addr))
}
