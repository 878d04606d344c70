// Package cell orchestrates a CliqueMap cell: N backend tasks plus warm
// spares on a simulated fabric, the HA configuration store, per-host NICs
// (Pony Express or 1RMA), and client construction.
//
// The cell is also the fault-injection surface for the §7.2 experiments:
// planned maintenance via spare migration (§6.1, Figure 13), crashes and
// post-restart repairs (§5.4, Figure 14), antagonist load on individual
// hosts (§7.2.1, Figure 11), and cohort-scan repair sweeps.
package cell

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cliquemap/internal/chaos"
	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/health"
	"cliquemap/internal/nic"
	"cliquemap/internal/onerma"
	"cliquemap/internal/pony"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// Transport selects the RMA substrate (§7.2.4).
type Transport int

const (
	// TransportPony is the software NIC with SCAR and engine scale-out.
	TransportPony Transport = iota
	// Transport1RMA is the all-hardware NIC: 2×R only, low RTT.
	Transport1RMA
)

// Options configures a cell.
type Options struct {
	Shards      int
	Spares      int
	Mode        config.Mode
	Transport   Transport
	ClientHosts int // hosts reserved for clients (≥1)

	Fabric  fabric.Params
	Backend backend.Options // template; per-task fields are filled in
	// ACL, when set, gates every backend RPC by (principal, method) —
	// the per-RPC ACLs Table 1 credits to the RPC framework.
	ACL rpc.Authenticator
	// Hash overrides the cell-wide key hash (§6.5); backends and every
	// client constructed by this cell share it. nil = DefaultHash.
	Hash hashring.HashFunc
	// Health shapes the fleet health plane (SLO windows, burn thresholds);
	// zero values take the production defaults. See Cell.Health / Prober.
	Health health.Config

	Pony    pony.CostModel
	PonyEng pony.EngineConfig

	// DataDir, when non-empty, enables durable warm restarts: each task
	// journals and checkpoints its corpus under DataDir/<addr>, and a
	// restarted task recovers warm from that state instead of rejoining
	// empty (see internal/persist and RestartWarm).
	DataDir string
}

func (o Options) withDefaults() Options {
	if o.Shards == 0 {
		o.Shards = 3
	}
	if o.ClientHosts == 0 {
		o.ClientHosts = 1
	}
	return o
}

// node is one backend task and its host's NIC.
type node struct {
	info config.BackendInfo
	b    *backend.Backend
	nic  *nic.NIC
}

// Cell is a running CliqueMap cell.
type Cell struct {
	opt    Options
	Fabric *fabric.Fabric
	Net    *rpc.Network
	Store  *config.Store
	Acct   *stats.CPUAccount
	Clock  *truetime.SystemClock
	// HWHist collects 1RMA hardware timestamps (Figure 16).
	HWHist *stats.Histogram
	// Tracer is the cell-wide op tracer: every client built by NewClient
	// records into it, backends serve it over MethodDebug, and the TCP
	// gateway records remote ops into it.
	Tracer *trace.Tracer

	mu          sync.Mutex
	nodes       []*node // shards first, then spares
	byAddr      map[string]*node
	clientNICs  map[int]*nic.NIC // by host
	nextClient  int
	clientIDSeq uint64

	// maintMu serializes the shard-movement control plane: planned
	// maintenance, its completion, and resizes each stream whole shards
	// between tasks, and two concurrent movers racing on the same source
	// (or the same spare) would corrupt the handoff protocol's
	// seal/journal state. One mover at a time, cell-wide.
	maintMu sync.Mutex

	chaosOnce  sync.Once
	chaosPlane *chaos.Plane

	healthOnce  sync.Once
	healthPlane atomic.Pointer[health.Plane]
	tierSnap    atomic.Pointer[func() proto.TierResp] // MethodTier's source, nil outside a tier
	proberOnce  sync.Once
	prober      *health.Prober
}

// New builds and starts a cell.
func New(opt Options) (*Cell, error) {
	opt = opt.withDefaults()
	hosts := opt.Shards + opt.Spares + opt.ClientHosts
	c := &Cell{
		opt:        opt,
		Fabric:     fabric.New(hosts, opt.Fabric),
		Acct:       stats.NewCPUAccount(),
		Clock:      truetime.NewSystemClock(),
		HWHist:     &stats.Histogram{},
		Tracer:     trace.NewTracer(),
		byAddr:     make(map[string]*node),
		clientNICs: make(map[int]*nic.NIC),
	}
	c.Net = rpc.NewNetwork(c.Fabric, rpc.CostModel{}, c.Acct)
	c.Net.SetTracer(c.Tracer)

	// Initial configuration: shard i on host i; spares idle after.
	cfg := config.CellConfig{Mode: opt.Mode, Shards: opt.Shards}
	for i := 0; i < opt.Shards; i++ {
		addr := fmt.Sprintf("backend-%d", i)
		cfg.ShardAddrs = append(cfg.ShardAddrs, addr)
		cfg.Backends = append(cfg.Backends, config.BackendInfo{Shard: i, Addr: addr, HostID: i})
	}
	for i := 0; i < opt.Spares; i++ {
		addr := fmt.Sprintf("spare-%d", i)
		cfg.Backends = append(cfg.Backends, config.BackendInfo{Shard: -1, Addr: addr, HostID: opt.Shards + i, Spare: true})
	}
	c.Store = config.NewStore(cfg)

	for _, info := range c.Store.Get().Backends {
		n, err := c.startNode(info, false)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.byAddr[info.Addr] = n
	}
	return c, nil
}

// startNode builds a backend task with its registry and NIC on its host.
// recovering starts the task in the §5.4 self-validation window (restarts
// rejoining a quorum; initial cell construction starts clean).
func (c *Cell) startNode(info config.BackendInfo, recovering bool) (*node, error) {
	reg := rmem.NewRegistry()
	bopt := c.opt.Backend
	if c.opt.Hash != nil {
		bopt.Hash = c.opt.Hash
	}
	bopt.Shard = info.Shard
	bopt.HostID = info.HostID
	bopt.Addr = info.Addr
	bopt.Recovering = recovering
	if c.opt.DataDir != "" {
		// Per-task subdir keyed by address: the durable lineage follows
		// the task across crash/restart and shard promotion alike.
		bopt.DataDir = filepath.Join(c.opt.DataDir, info.Addr)
	}
	gen := truetime.NewGenerator(c.Clock, uint64(1000+info.HostID))
	b, err := backend.New(bopt, c.Store, reg, c.Net, gen, c.Acct)
	if err != nil {
		return nil, err
	}
	if c.opt.ACL != nil {
		b.Server().SetAuthenticator(c.opt.ACL)
	}
	b.SetTracer(c.Tracer)
	c.servePlanes(b.Server())
	n := &node{info: info, b: b, nic: c.newNIC(info.HostID, reg, nil)}
	n.nic.SetMsgHandler(b.HandleMsg)
	b.SetNICSatSource(func() backend.NICSaturation {
		s := n.nic.Saturation()
		return backend.NICSaturation{Engines: s.Engines, RhoMilli: s.RhoMilli, QueueNs: s.QueueNs, Ops: s.Ops}
	})
	return n, nil
}

// newNIC builds host's NIC on the cell's transport: the one place the
// substrate is chosen. hist collects 1RMA hardware timestamps.
func (c *Cell) newNIC(host int, reg *rmem.Registry, hist *stats.Histogram) *nic.NIC {
	if c.opt.Transport == Transport1RMA {
		return onerma.New(c.Fabric.Host(host), reg, onerma.CostModel{}, c.Acct, hist)
	}
	return pony.New(c.Fabric.Host(host), reg, c.opt.Pony, c.opt.PonyEng, c.Acct)
}

// Backend returns the task currently serving shard s.
func (c *Cell) Backend(s int) *backend.Backend {
	addr := c.Store.Get().AddrFor(s)
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.byAddr[addr]; n != nil {
		return n.b
	}
	return nil
}

// BackendByAddr returns the task at addr.
func (c *Cell) BackendByAddr(addr string) *backend.Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.byAddr[addr]; n != nil {
		return n.b
	}
	return nil
}

// Nodes returns all backend tasks (shards then spares).
func (c *Cell) Nodes() []*backend.Backend {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*backend.Backend, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.b
	}
	return out
}

// PonyEngines returns the engine count per backend node (Figure 15; 0 on
// a hardware NIC).
func (c *Cell) PonyEngines() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, len(c.nodes))
	for _, n := range c.nodes {
		out = append(out, int(n.nic.Saturation().Engines))
	}
	return out
}

// TotalMemoryBytes sums every task's populated DRAM (Figure 3).
func (c *Cell) TotalMemoryBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.nodes {
		total += n.b.MemoryBytes()
	}
	return total
}

// clientHostID assigns client i to a host in the client range.
func (c *Cell) clientHostID() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	base := c.opt.Shards + c.opt.Spares
	h := base + c.nextClient%c.opt.ClientHosts
	c.nextClient++
	return h
}

// clientNIC lazily builds the client-side NIC for a host.
func (c *Cell) clientNIC(host int) *nic.NIC {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.clientNICs[host]
	if !ok {
		n = c.newNIC(host, nil, c.HWHist)
		c.clientNICs[host] = n
	}
	return n
}

// servingNIC returns the NIC of the backend on the given host, or nil.
func (c *Cell) servingNIC(host int) *node {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		if n.info.HostID == host {
			return n
		}
	}
	return nil
}

// NewClient constructs a client attached to a client host of this cell.
func (c *Cell) NewClient(copt client.Options) *client.Client {
	return c.newClient(copt, 0)
}

// newClient builds a client whose RPC responses also travel wanNs of WAN
// distance (0 for a local client). A SCAR client of a 1RMA cell is built
// as a 2×R one, as a MSG client of one is built to look up over RPC.
func (c *Cell) newClient(copt client.Options, wanNs uint64) *client.Client {
	c.mu.Lock()
	c.clientIDSeq++
	if copt.ID == 0 {
		copt.ID = c.clientIDSeq
	}
	c.mu.Unlock()
	if copt.HostID == 0 {
		copt.HostID = c.clientHostID()
	}
	if copt.Strategy == client.StrategySCAR && c.opt.Transport == Transport1RMA {
		copt.Strategy = client.Strategy2xR // 1RMA cannot scan (probeStrategies)
	}

	local := c.clientNIC(copt.HostID)
	dial := func(host int) nic.RMA {
		target := c.servingNIC(host)
		if target == nil {
			return deadConn{}
		}
		return nic.Dial(c.Fabric, local, target.nic)
	}
	var msg client.MsgFunc
	if local.Messaging() {
		msg = func(host int, at uint64, req []byte) ([]byte, fabric.OpTrace, error) {
			target := c.servingNIC(host)
			if target == nil {
				return nil, fabric.OpTrace{}, nic.ErrUnreachable
			}
			return nic.Dial(c.Fabric, local, target.nic).Message(at, req)
		}
	}
	if c.opt.Hash != nil && copt.Hash == nil {
		copt.Hash = c.opt.Hash
	}
	if copt.Tracer == nil {
		copt.Tracer = c.Tracer
	}
	rpcc := c.Net.WANClient(copt.HostID, fmt.Sprintf("client-%d", copt.ID), wanNs)
	return client.New(copt, c.Store, rpcc, c.Clock, dial, msg, c.Fabric.NowNs, c.Acct)
}

// ServeTCP exposes the cell's RPC surface on a real socket, so processes
// outside this address space (remote tools, other services, WAN callers)
// can drive the full protocol. Calls enter the fabric at the first client
// host.
func (c *Cell) ServeTCP(addr string) (*rpc.TCPGateway, error) {
	return rpc.ServeTCP(c.Net, addr, c.opt.Shards+c.opt.Spares)
}

// NewWANClient constructs a client in a remote region reaching this cell
// purely over RPC (Table 1: RMA protocols are not applicable over WAN, so
// lookups fall back to the RPC path). oneWay is the extra WAN latency
// added to every response the client receives; local clients on the same
// host do not pay it. The client's lookup strategy is forced to RPC.
func (c *Cell) NewWANClient(copt client.Options, oneWay time.Duration) *client.Client {
	copt.Strategy = client.StrategyRPC
	return c.newClient(copt, uint64(oneWay.Nanoseconds()))
}

// deadConn fails every op — a target host with no serving backend.
type deadConn struct{}

func (deadConn) Read(uint64, rmem.WindowID, int, int) ([]byte, fabric.OpTrace, error) {
	return nil, fabric.OpTrace{}, nic.ErrUnreachable
}

func (deadConn) ScanAndRead(uint64, rmem.WindowID, int, int, hashring.KeyHash, int) (nic.ScarResult, fabric.OpTrace, error) {
	return nic.ScarResult{}, fabric.OpTrace{}, nic.ErrUnreachable
}

func (deadConn) SupportsScar() bool { return false }

// bumpConfig applies a mutation to the store and restamps every live
// backend's buckets with the new ID.
func (c *Cell) bumpConfig(mutate func(*config.CellConfig)) config.CellConfig {
	next := c.Store.Update(mutate)
	c.mu.Lock()
	nodes := append([]*node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		if !n.b.Server().Stopped() {
			n.b.SetConfigID(next.ID)
		}
	}
	return next
}

// The cell is the chaos plane's actuation surface: every hazard class the
// plane can inject maps to one of the methods below.
var _ chaos.Surface = (*Cell)(nil)

// Chaos returns the cell's unified fault-injection plane (lazily built,
// seeded from the fabric seed so a whole cell's fault behaviour replays
// from one number). Every ad-hoc injection should go through its Inject
// and Heal; the methods below are the leaf actuators it drives.
func (c *Cell) Chaos() *chaos.Plane {
	c.chaosOnce.Do(func() {
		c.chaosPlane = chaos.NewPlane(c, c.Fabric.Params().Seed)
		c.chaosPlane.SetTracer(c.Tracer)
	})
	return c.chaosPlane
}

// ChaosEngine builds a schedule-driven engine over this cell for the
// named preset. The returned engine mirrors hazard counts into the cell
// tracer; drive it with Step from the workload loop.
func (c *Cell) ChaosEngine(preset string, seed uint64) (*chaos.Engine, error) {
	sched, err := chaos.Preset(preset, seed, c.opt.Shards)
	if err != nil {
		return nil, err
	}
	e := chaos.NewEngine(sched, c)
	e.SetTracer(c.Tracer)
	return e, nil
}

// Shards returns the current logical shard count (chaos.Surface). It
// reads the config store, not the construction-time option: resizes
// change it.
func (c *Cell) Shards() int { return c.Store.Get().Shards }

// SetRPCFailRate makes the server currently holding shard fail the given
// fraction of calls transiently (chaos.Surface actuator over
// rpc.Server.SetFailRate).
func (c *Cell) SetRPCFailRate(shard int, rate float64, seed int64) {
	b := c.Backend(shard)
	if b != nil {
		b.Server().SetFailRate(rate, seed)
	}
}

// PartitionShard cuts the host serving shard off from every other host
// (chaos.Surface actuator over fabric.IsolateHost).
func (c *Cell) PartitionShard(shard int) {
	if host := c.Store.Get().HostFor(shard); host >= 0 {
		c.Fabric.IsolateHost(host)
	}
}

// HealPartitions removes every partition from the fabric.
func (c *Cell) HealPartitions() { c.Fabric.HealLinks() }

// CorruptData flips one bit in up to n live DataEntries on the backend
// serving shard, returning the damaged keys (chaos.Surface actuator over
// backend.CorruptEntries).
func (c *Cell) CorruptData(shard int, n int, seed uint64) [][]byte {
	b := c.Backend(shard)
	if b == nil {
		return nil
	}
	return b.CorruptEntries(n, seed)
}

// SetConfigStale pins or unpins the config store's read snapshot
// (chaos.Surface actuator over config.Store.SetStale).
func (c *Cell) SetConfigStale(stale bool) { c.Store.SetStale(stale) }

// MaintainShard (chaos.Surface actuator) runs one full planned-
// maintenance cycle: the shard migrates to a warm spare and back to its
// original task, opening both handoff windows in sequence.
func (c *Cell) MaintainShard(ctx context.Context, shard int) error {
	orig := c.Store.Get().AddrFor(shard)
	if _, err := c.PlannedMaintenance(ctx, shard); err != nil {
		return err
	}
	return c.CompleteMaintenance(ctx, shard, orig)
}

// SetEngineDelay injects extra per-command service time into the node
// serving shard s — the chaos plane's Brownout actuator (an overloaded
// or misbehaving serving engine). The delay covers the one-sided path
// (Pony Express or 1RMA engine visits) and the two-sided data RPCs, so
// GETs and mutation quorum legs both see it. Prefer injecting through
// Chaos().Inject so the injection is counted.
func (c *Cell) SetEngineDelay(shard int, ns uint64) {
	host := c.Store.Get().HostFor(shard)
	if host < 0 {
		return
	}
	n := c.servingNIC(host)
	if n == nil {
		return
	}
	n.nic.SetServiceDelay(ns)
	n.b.SetServiceDelay(ns)
}

// SetAntagonist places external load on the host serving shard s
// (§7.2.1's ~95Gbps competing demand).
func (c *Cell) SetAntagonist(shard int, frac float64) {
	host := c.Store.Get().HostFor(shard)
	if host >= 0 {
		c.Fabric.Host(host).SetExternalLoad(frac)
	}
}

// SetClientLoad places external load on a client's host (Figure 12's
// incast exacerbation).
func (c *Cell) SetClientLoad(clientHost int, frac float64) {
	c.Fabric.Host(clientHost).SetExternalLoad(frac)
}

// CompactAll triggers the non-disruptive downsizing restart on every task
// (Figure 3's corpus-shrink response).
func (c *Cell) CompactAll(slack float64) {
	for _, b := range c.Nodes() {
		if !b.Server().Stopped() {
			b.CompactRestart(slack)
		}
	}
}

// LoadImmutable bulk-loads an immutable corpus (§6.4): every KV pair is
// installed on its replica set directly and the cell is then sealed —
// client mutations are rejected from that point on. Intended for
// R=2/Immutable cells, where the corpus comes from an external system of
// record.
func (c *Cell) LoadImmutable(ctx context.Context, items map[string][]byte) error {
	cfg := c.Store.Get()
	gen := truetime.NewGenerator(c.Clock, 999)
	for k, v := range items {
		hashFn := hashring.OrDefault(c.opt.Hash)
		h := hashFn([]byte(k))
		primary := int(h.Hi % uint64(cfg.Shards))
		ver := gen.Next()
		for _, shard := range cfg.Cohort(primary) {
			b := c.BackendByAddr(cfg.AddrFor(shard))
			if b == nil {
				return fmt.Errorf("cell: shard %d has no task", shard)
			}
			if applied, _, _ := b.ApplySet([]byte(k), v, ver); !applied {
				return fmt.Errorf("cell: immutable load of %q rejected", k)
			}
		}
	}
	for _, b := range c.Nodes() {
		b.Seal()
	}
	return nil
}

// AggregateCounters sums counters across tasks.
func (c *Cell) AggregateCounters() backend.Counters {
	var out backend.Counters
	for _, b := range c.Nodes() {
		out.Add(b.CountersSnapshot())
	}
	return out
}
