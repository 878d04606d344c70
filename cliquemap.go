// Package cliquemap is a faithful open-source reproduction of CliqueMap
// (Singhvi et al., SIGCOMM 2021), Google's hybrid RMA/RPC in-memory
// key-value caching system.
//
// GETs are served by one-sided remote memory access against the backends'
// registered index and data regions — no backend application code runs —
// while SET/ERASE/CAS and all control traffic travel over an RPC framework
// that carries authentication, protocol versioning, and evolution support.
// Replication mode R=3.2 keeps three uncoordinated copies of every pair
// and resolves consistency with a client-side majority quorum, preferred-
// backend selection, self-validating responses, and per-operation retries.
//
// The RMA hardware the paper ran on (Pony Express, 1RMA) is substituted by
// calibrated simulations (see DESIGN.md); the full protocol stack — memory
// layouts, checksums, version quorums, eviction, reshaping, tombstones,
// repair, warm-spare migration — is real and runs in-process.
//
// Quickstart:
//
//	cm, _ := cliquemap.NewCell(cliquemap.Options{Shards: 3, Spares: 1, Mode: cliquemap.R32})
//	cl := cm.NewClient(cliquemap.ClientOptions{})
//	cl.Set(ctx, []byte("k"), []byte("v"))
//	v, ok, _ := cl.Get(ctx, []byte("k"))
package cliquemap

import (
	"context"
	"fmt"
	"io"
	"time"

	"cliquemap/internal/chaos"
	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/cell"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/hashring"
	"cliquemap/internal/health"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// Mode selects the replication scheme (§5, §6.4 of the paper).
type Mode int

const (
	// R32 keeps three copies read through a client-side quorum of two.
	// It is the zero value: cells replicate unless told otherwise.
	R32 Mode = iota
	// R1 keeps one copy; warm spares provide maintenance continuity.
	R1
	// R2Immutable keeps two copies of an immutable corpus.
	R2Immutable
)

func (m Mode) internal() config.Mode {
	switch m {
	case R1:
		return config.R1
	case R2Immutable:
		return config.R2Immutable
	default:
		return config.R32
	}
}

// String names the mode as the paper does.
func (m Mode) String() string { return m.internal().String() }

// Transport selects the simulated RMA substrate (§7.2.4).
type Transport int

const (
	// PonyExpress is the software NIC: SCAR available, engines scale out.
	PonyExpress Transport = iota
	// OneRMA is the all-hardware NIC: 2×R only, lower RTT.
	OneRMA
)

// Strategy selects the GET path (§6.3).
type Strategy int

const (
	// Lookup2xR uses two dependent RMA reads (any transport).
	Lookup2xR Strategy = iota
	// LookupSCAR uses single-round-trip scan-and-read (Pony Express). A
	// OneRMA cell's NICs cannot scan: there NewClient builds a 2×R client.
	LookupSCAR
	// LookupMSG uses two-sided NIC messaging.
	LookupMSG
	// LookupRPC uses full RPC (WAN / no-RMA fallback).
	LookupRPC
)

func (s Strategy) internal() client.Strategy {
	switch s {
	case LookupSCAR:
		return client.StrategySCAR
	case LookupMSG:
		return client.StrategyMSG
	case LookupRPC:
		return client.StrategyRPC
	default:
		return client.Strategy2xR
	}
}

// Version is a CliqueMap VersionNumber: {TrueTime, ClientID, Seq},
// globally unique and monotonic per key (§5.2). Use it with Cas.
type Version = truetime.Version

// Options configures a cell.
type Options struct {
	// Shards is the logical backend count (default 3).
	Shards int
	// Spares is the warm-spare count for planned maintenance (§6.1).
	Spares int
	// Mode is the replication scheme (default R32).
	Mode Mode
	// Transport selects the RMA substrate (default PonyExpress).
	Transport Transport
	// Eviction names the replacement policy: "lru" (default) or "arc"
	// (§4.2).
	Eviction string
	// Buckets and Ways shape each backend's index region (defaults 256
	// buckets × 14 ways — 1KB buckets as in the paper).
	Buckets, Ways int
	// DataBytes / DataMaxBytes size each backend's data region: initially
	// populated bytes and the reserved reshaping ceiling (§4.1).
	DataBytes, DataMaxBytes int
	// DisableReshaping reverts to the pre-allocate-for-peak baseline the
	// paper argues against (Figure 3's "before" world).
	DisableReshaping bool
	// OverflowFallback enables the RPC side-table for bucket overflow
	// (§4.2).
	OverflowFallback bool
	// CompressThreshold enables DEFLATE compression of values at least
	// this many bytes (0 disables) — §9's post-launch compression feature.
	CompressThreshold int
	// TombstoneCap sizes each backend's exact tombstone cache (§5.2) and
	// its pending-settle queue of evicted tombstones (default 8192 each).
	// A backend takes the cache's storage once, at its first ERASE:
	// 2·TombstoneCap+2 nodes of 96 B, about 1.5 MiB at the default. A key
	// longer than 32 B adds a buffer to the node that holds it.
	TombstoneCap int
	// Hash overrides the cell-wide 128-bit key hash (§6.5 added
	// customizable hash functions for disaggregation users): hi selects
	// the backend, lo the bucket. All clients of the cell share it. nil
	// uses the default double-FNV hash.
	Hash func(key []byte) (hi, lo uint64)
	// Health shapes the fleet health plane's SLO windows and per-op-class
	// objectives; zero values take the production defaults (5m/1h
	// virtual windows). A class pages at burn 14.4 and warns at 3.
	Health health.Config
	// DataDir, when non-empty, enables durable warm restarts: every
	// backend task checkpoints its corpus and journals mutations under
	// DataDir/<task-addr>, and a restarted task (or a restarted cmcell
	// process pointed at the same directory) recovers its pre-crash
	// corpus from checkpoint + journal replay instead of rejoining empty.
	DataDir string
}

// KeyHash is the 128-bit key hash: Hi selects the backend cohort, Lo the
// bucket within an index.
type KeyHash = hashring.KeyHash

// DefaultHash is the cell's default key hash, exported so custom hash
// functions (Options.Hash) can compose with it.
func DefaultHash(key []byte) KeyHash { return hashring.DefaultHash(key) }

// ClientOptions configures a client.
type ClientOptions struct {
	// Strategy is the GET path (default Lookup2xR).
	Strategy Strategy
	// TouchBatch enables access-record reporting (§4.2); 0 disables. The
	// records of a client's hits ride its next mutations to each replica;
	// a replica's records flush as their own RPC once TouchBatch of them
	// wait with no mutation headed its way.
	TouchBatch int
	// NearCacheEntries turns on hot-key adaptive serving (0 = off): a
	// client-side near-cache of that many entries, admitting only the keys
	// hot in this client's own GETs. Near-serves are validated by a 1-RTT
	// index-only quorum read, so they never return a value no quorum
	// currently vouches for. A hot key's GET the near-cache cannot serve
	// takes Strategy like any other. RMA strategies (2xR, SCAR) only.
	NearCacheEntries int
}

// Cell is a running CliqueMap cell: backends, spares, NICs, config store.
type Cell struct {
	c *cell.Cell
}

// NewCell builds and starts a cell.
func NewCell(opt Options) (*Cell, error) {
	copt := cell.Options{
		Shards:  opt.Shards,
		Spares:  opt.Spares,
		Mode:    opt.Mode.internal(),
		Health:  opt.Health,
		DataDir: opt.DataDir,
		Backend: backend.Options{
			Policy:            opt.Eviction,
			DataBytes:         opt.DataBytes,
			DataMaxBytes:      opt.DataMaxBytes,
			OverflowFallback:  opt.OverflowFallback,
			ReshapeEnabled:    !opt.DisableReshaping,
			CompressThreshold: opt.CompressThreshold,
			TombstoneCap:      opt.TombstoneCap,
		},
	}
	if opt.Buckets > 0 || opt.Ways > 0 {
		copt.Backend.Geometry = layout.Geometry{Buckets: opt.Buckets, Ways: opt.Ways}
	}
	if opt.Transport == OneRMA {
		copt.Transport = cell.Transport1RMA
	}
	if opt.Hash != nil {
		copt.Hash = hashring.FromPair(opt.Hash)
	}
	c, err := cell.New(copt)
	if err != nil {
		return nil, err
	}
	return &Cell{c: c}, nil
}

// NewClient attaches a new client to the cell.
func (c *Cell) NewClient(opt ClientOptions) *Client {
	cl := c.c.NewClient(client.Options{
		Strategy:         opt.Strategy.internal(),
		TouchBatch:       opt.TouchBatch,
		NearCacheEntries: opt.NearCacheEntries,
	})
	return &Client{cl: cl}
}

// ServeTCP exposes the cell's RPC surface on a real TCP socket and
// returns the gateway (close it to stop). External processes use
// rpc.DialTCP and the proto message schemas against it.
func (c *Cell) ServeTCP(addr string) (io.Closer, error) {
	return c.c.ServeTCP(addr)
}

// RecoveredKeys reports how many keys the cell's tasks loaded from their
// durable checkpoints and journals at startup (0 without Options.DataDir,
// or on a first start). Lets an operator confirm a restarted process came
// back warm.
func (c *Cell) RecoveredKeys() uint64 {
	var n uint64
	for _, b := range c.c.Nodes() {
		n += b.RecoveryStatsSnapshot().RecoveredKeys
	}
	return n
}

// NewWANClient attaches a client in a remote region: every lookup travels
// the RPC path with oneWay of added WAN latency per delivery (Table 1's
// "WAN access via RPC").
func (c *Cell) NewWANClient(opt ClientOptions, oneWay time.Duration) *Client {
	cl := c.c.NewWANClient(client.Options{TouchBatch: opt.TouchBatch}, oneWay)
	return &Client{cl: cl}
}

// LoadImmutable bulk-loads an immutable corpus and seals the cell (§6.4):
// subsequent client mutations fail. Use with Mode R2Immutable.
func (c *Cell) LoadImmutable(ctx context.Context, items map[string][]byte) error {
	return c.c.LoadImmutable(ctx, items)
}

// PlannedMaintenance migrates a shard to a warm spare ahead of
// maintenance, returning the spare's address (§6.1).
func (c *Cell) PlannedMaintenance(ctx context.Context, shard int) (string, error) {
	return c.c.PlannedMaintenance(ctx, shard)
}

// CompleteMaintenance moves a shard back from its spare to primaryAddr.
func (c *Cell) CompleteMaintenance(ctx context.Context, shard int, primaryAddr string) error {
	return c.c.CompleteMaintenance(ctx, shard, primaryAddr)
}

// Resize changes the cell's logical shard count online. The cell stays
// live throughout: GETs keep running on RMA and no acknowledged write is
// lost. Growth claims idle warm spares for the new shards; a shrink
// returns the trailing shards' tasks to spare duty. Shards move one at a
// time through a two-epoch config (bulk stream → seal → catch-up delta →
// flip), so the transition's client cost is bounded to retries, never
// data.
func (c *Cell) Resize(ctx context.Context, newShards int) error {
	return c.c.Resize(ctx, newShards)
}

// Shards returns the cell's current logical shard count.
func (c *Cell) Shards() int { return c.c.Shards() }

// Crash simulates an unplanned failure of a shard's task.
func (c *Cell) Crash(shard int) { c.c.Crash(shard) }

// Restart brings a crashed shard back empty and runs post-restart repairs
// (§5.4).
func (c *Cell) Restart(ctx context.Context, shard int) error { return c.c.Restart(ctx, shard) }

// RestartWarm brings a crashed shard back recovered from its durable
// checkpoint + journal (Options.DataDir) and self-validates it back into
// the quorum; cold like Restart when the cell has no data directory.
func (c *Cell) RestartWarm(ctx context.Context, shard int) error { return c.c.RestartWarm(ctx, shard) }

// RepairAll runs one cohort-scan repair sweep, returning repairs issued.
func (c *Cell) RepairAll(ctx context.Context) (int, error) { return c.c.RepairAll(ctx) }

// SetAntagonist applies competing load (0..1 of NIC bandwidth) to the
// host serving a shard (§7.2.1).
func (c *Cell) SetAntagonist(shard int, frac float64) { c.c.SetAntagonist(shard, frac) }

// MemoryBytes reports the cell's total populated backend DRAM (Figure 3).
func (c *Cell) MemoryBytes() int { return c.c.TotalMemoryBytes() }

// CompactAll triggers non-disruptive downsizing restarts (§4.1).
func (c *Cell) CompactAll(slack float64) { c.c.CompactAll(slack) }

// Stats summarizes backend-side behaviour.
type Stats struct {
	Sets, SetsApplied uint64
	Gets              uint64
	Evictions         uint64
	IndexResizes      uint64
	DataGrows         uint64
	RepairsIssued     uint64
	MemoryBytes       int
}

// Stats returns a snapshot of cell-wide counters.
func (c *Cell) Stats() Stats {
	agg := c.c.AggregateCounters()
	return Stats{
		Sets:          agg.Sets,
		SetsApplied:   agg.SetsApplied,
		Gets:          agg.Gets,
		Evictions:     agg.CapacityEvictions + agg.AssocEvictions,
		IndexResizes:  agg.IndexResizes,
		DataGrows:     agg.DataGrows,
		RepairsIssued: agg.RepairsIssued,
		MemoryBytes:   c.c.TotalMemoryBytes(),
	}
}

// Tracer exposes the cell-wide op tracer: per-kind/per-transport latency
// histograms, exemplars, and the retained slow-op log.
// Remote tools read the same data over the Debug RPC (cmstat -trace).
func (c *Cell) Tracer() *trace.Tracer { return c.c.Tracer }

// Chaos exposes the cell's fault-injection plane: one seeded registry
// for every hazard class (crashes, partitions, packet loss, RPC failure
// rates, engine brownouts, memory corruption, config staleness) plus the
// scenario presets ("brownout", "partition-heal", "corruption-soak",
// "rolling-crash"). See DESIGN.md's fault-model section.
func (c *Cell) Chaos() *chaos.Plane { return c.c.Chaos() }

// ChaosEngine builds a schedule-driven fault engine for a named preset;
// the same (preset, seed) pair always produces the same schedule.
func (c *Cell) ChaosEngine(preset string, seed uint64) (*chaos.Engine, error) {
	return c.c.ChaosEngine(preset, seed)
}

// Health exposes the cell's fleet health plane: per-op-class SLOs with
// multi-window burn-rate alerting, fed by the E2E probers and served to
// remote tooling over the Health RPC. Lazily built on first use.
func (c *Cell) Health() *health.Plane { return c.c.Health() }

// Prober exposes the cell's E2E prober: canary clients — one per lookup
// strategy the transport supports — sweeping the reserved probe-key
// namespace with the full GET/SET/CAS/ERASE mix. Drive Round from the
// workload loop so probe cadence rides the cell's virtual clock.
func (c *Cell) Prober() *health.Prober { return c.c.Prober() }

// Internal exposes the underlying cell for the benchmark harness. It is
// not part of the stable API.
func (c *Cell) Internal() *cell.Cell { return c.c }

// Client is a CliqueMap client handle. Safe for concurrent use.
type Client struct {
	cl *client.Client
}

// Get looks up key, returning its value and whether it was a hit.
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	return c.cl.Get(ctx, key)
}

// GetBatch looks up many keys as one logical operation whose legs are
// pinned to one modelled instant; the error is the first by key order.
func (c *Client) GetBatch(ctx context.Context, keys [][]byte) ([][]byte, []bool, error) {
	vals, found, _, err := c.cl.GetBatch(ctx, keys)
	return vals, found, err
}

// Set installs key=value on all replicas at a fresh version.
func (c *Client) Set(ctx context.Context, key, value []byte) error {
	return c.cl.Set(ctx, key, value)
}

// SetVersioned is Set returning the nominated Version for later Cas.
func (c *Client) SetVersioned(ctx context.Context, key, value []byte) (Version, error) {
	return c.cl.SetVersioned(ctx, key, value)
}

// Erase removes key, tombstoning its version so stale SETs cannot
// resurrect it (§5.2).
func (c *Client) Erase(ctx context.Context, key []byte) error {
	return c.cl.Erase(ctx, key)
}

// Cas installs value only if the stored version equals expected,
// reporting whether the swap applied (§5.2).
func (c *Client) Cas(ctx context.Context, key, value []byte, expected Version) (bool, error) {
	return c.cl.Cas(ctx, key, value, expected)
}

// FlushTouches force-flushes pending access records (§4.2).
func (c *Client) FlushTouches(ctx context.Context) { c.cl.FlushTouches(ctx) }

// ClientStats summarizes a client's observable behaviour.
type ClientStats struct {
	Gets, Hits, Misses uint64
	Sets               uint64
	Retries            uint64
	RPCFallbacks       uint64
	Failovers          uint64
	BudgetDenied       uint64
	NearHits           uint64
	NearStale          uint64
	GetP50, GetP99     time.Duration
}

// Stats returns a snapshot of the client's metrics.
func (c *Client) Stats() ClientStats {
	m := &c.cl.M
	return ClientStats{
		Gets:         m.Gets.Value(),
		Hits:         m.Hits.Value(),
		Misses:       m.Misses.Value(),
		Sets:         m.Sets.Value(),
		Retries:      m.RetryCount(),
		RPCFallbacks: m.RPCFallbacks.Value(),
		Failovers:    m.Failovers.Value(),
		BudgetDenied: m.BudgetDenied.Value(),
		NearHits:     m.NearHits.Value(),
		NearStale:    m.NearStale.Value(),
		GetP50:       time.Duration(m.GetLatency.Percentile(50)),
		GetP99:       time.Duration(m.GetLatency.Percentile(99)),
	}
}

// Internal exposes the underlying client for the benchmark harness. Not
// part of the stable API.
func (c *Client) Internal() *client.Client { return c.cl }

// String renders cell stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("sets=%d applied=%d evictions=%d resizes=%d grows=%d repairs=%d mem=%s",
		s.Sets, s.SetsApplied, s.Evictions, s.IndexResizes, s.DataGrows, s.RepairsIssued,
		fmtBytes(s.MemoryBytes))
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
