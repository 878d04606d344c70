package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"cliquemap"
	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/nic"
	"cliquemap/internal/onerma"
	"cliquemap/internal/pony"
	"cliquemap/internal/rmem"
	"cliquemap/internal/rpc"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

const shards = 3

// kv is the client surface the driver calls — the public Get/Set/Cas/Erase
// methods, satisfied by *cliquemap.Client, *client.Client and the traced
// adapter alike.
type kv interface {
	Get(ctx context.Context, key []byte) ([]byte, bool, error)
	SetVersioned(ctx context.Context, key, value []byte) (truetime.Version, error)
	Cas(ctx context.Context, key, value []byte, expected truetime.Version) (bool, error)
	Erase(ctx context.Context, key []byte) error
}

// rig is one built cell plus the client under test and the handles the
// counters are read through.
type rig struct {
	kv       kv
	cl       *client.Client // the client behind kv, for its Metrics
	backends []*backend.Backend
	net      *rpc.Network
	acct     *stats.CPUAccount
	closers  []io.Closer
}

func (r *rig) close() {
	for _, c := range r.closers {
		c.Close()
	}
}

// dialGateway opens the one TCP connection a remote client has to the
// cell's gateway; the rig closes both.
func (r *rig) dialGateway(gw *rpc.TCPGateway, err error) (*rpc.TCPClient, error) {
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, gw)
	conn, err := rpc.DialTCP(gw.Addr(), "bench")
	if err != nil {
		r.close()
		return nil, err
	}
	r.closers = append(r.closers, conn)
	return conn, nil
}

func (r *rig) memoryBytes() int {
	n := 0
	for _, b := range r.backends {
		n += b.MemoryBytes()
	}
	return n
}

// newPublicRig builds the workload's cell and client through the public
// cliquemap API — what the end-to-end numbers are measured on.
func newPublicRig(sp spec) (*rig, error) {
	cell, err := cliquemap.NewCell(cliquemap.Options{
		Shards: shards, Mode: cliquemap.R32, Transport: sp.transport,
		Buckets: sp.buckets, Ways: layout.DefaultWays,
		DataBytes: sp.dataBytes, DataMaxBytes: sp.dataBytes,
	})
	if err != nil {
		return nil, err
	}
	cc := cell.Internal()
	r := &rig{backends: cc.Nodes(), net: cc.Net, acct: cc.Acct}
	if !sp.tcp {
		cl := cell.NewClient(cliquemap.ClientOptions{Strategy: sp.strategy, TouchBatch: sp.touch})
		r.kv, r.cl = cl, cl.Internal()
		return r, nil
	}
	// Out-of-process shape: one real TCP connection to the cell's gateway
	// is the client's only way in; lookups and mutations are all RPC.
	conn, err := r.dialGateway(cc.ServeTCP("127.0.0.1:0"))
	if err != nil {
		return nil, err
	}
	r.cl = client.New(client.Options{ID: 2, Strategy: client.StrategyRPC},
		cc.Store, conn, cc.Clock, nil, nil, nil, nil)
	r.kv = r.cl
	return r, nil
}

// newSeamRig assembles the same cell from its layers' constructors, the
// way cell.New and cell.NewClient do, so that the benchmark holds the two
// injectable seams — the client's DialFunc and its rpc.Caller — and can
// wrap both with rec's span decorators. The cell package keeps its NICs
// private, so the public constructor cannot be decorated; the traced run
// uses this twin instead, and TestSeamRigMatchesPublic holds the two to
// the same observable behaviour.
func newSeamRig(sp spec, rec *recorder) (*rig, error) {
	const clientHost = shards
	fab := fabric.New(shards+1, fabric.Params{})
	acct := stats.NewCPUAccount()
	clock := truetime.NewSystemClock()
	tracer := trace.NewTracer()
	net := rpc.NewNetwork(fab, rpc.CostModel{}, acct)
	net.SetTracer(tracer)

	cfg := config.CellConfig{Mode: config.R32, Shards: shards}
	for i := 0; i < shards; i++ {
		addr := fmt.Sprintf("backend-%d", i)
		cfg.ShardAddrs = append(cfg.ShardAddrs, addr)
		cfg.Backends = append(cfg.Backends, config.BackendInfo{Shard: i, Addr: addr, HostID: i})
	}
	store := config.NewStore(cfg)

	r := &rig{net: net, acct: acct}
	ponyNICs := make([]*pony.NIC, shards)
	oneNICs := make([]*onerma.NIC, shards)
	for i, info := range cfg.Backends {
		reg := rmem.NewRegistry()
		b, err := backend.New(backend.Options{
			Shard: info.Shard, HostID: info.HostID, Addr: info.Addr,
			Geometry:  layout.Geometry{Buckets: sp.buckets, Ways: layout.DefaultWays},
			DataBytes: sp.dataBytes, DataMaxBytes: sp.dataBytes, ReshapeEnabled: true,
		}, store, reg, net, truetime.NewGenerator(clock, uint64(1000+info.HostID)), acct)
		if err != nil {
			return nil, err
		}
		b.SetTracer(tracer)
		if sp.transport == cliquemap.OneRMA {
			oneNICs[i] = onerma.New(fab.Host(i), reg, onerma.CostModel{}, acct, nil)
		} else {
			n := pony.New(fab.Host(i), reg, pony.CostModel{}, pony.EngineConfig{}, acct)
			n.SetMsgHandler(b.HandleMsg)
			b.SetNICSatSource(func() backend.NICSaturation {
				s := n.Saturation()
				return backend.NICSaturation{Engines: s.Engines, RhoMilli: s.RhoMilli, QueueNs: s.QueueNs, Ops: s.Ops}
			})
			ponyNICs[i] = n
		}
		r.backends = append(r.backends, b)
	}

	var dial client.DialFunc
	if sp.transport == cliquemap.OneRMA {
		local := onerma.New(fab.Host(clientHost), nil, onerma.CostModel{}, acct, &stats.Histogram{})
		dial = func(host int) nic.RMA { return rec.wrapRMA(onerma.Dial(fab, local, oneNICs[host])) }
	} else {
		local := pony.New(fab.Host(clientHost), nil, pony.CostModel{}, pony.EngineConfig{}, acct)
		dial = func(host int) nic.RMA { return rec.wrapRMA(pony.Dial(fab, local, ponyNICs[host])) }
	}

	copt := client.Options{ID: 1, HostID: clientHost, Strategy: clientStrategy(sp.strategy), TouchBatch: sp.touch, Tracer: tracer}
	if !sp.tcp {
		caller := rec.wrapCaller(net.Client(clientHost, "client-1"))
		r.cl = client.New(copt, store, caller, clock, dial, nil, fab.NowNs, acct)
		r.kv = r.cl
		return r, nil
	}
	conn, err := r.dialGateway(rpc.ServeTCP(net, "127.0.0.1:0", clientHost))
	if err != nil {
		return nil, err
	}
	r.cl = client.New(client.Options{ID: 2, Strategy: client.StrategyRPC, Tracer: tracer},
		store, rec.wrapCaller(conn), clock, nil, nil, nil, nil)
	r.kv = r.cl
	return r, nil
}

func clientStrategy(s cliquemap.Strategy) client.Strategy {
	switch s {
	case cliquemap.LookupSCAR:
		return client.StrategySCAR
	case cliquemap.LookupRPC:
		return client.StrategyRPC
	}
	return client.Strategy2xR
}

// setUp populates a fresh rig and runs the fixed-count warm-up: everything
// setup_s covers besides building the cell. It returns the generator and
// oracle positioned at the start of the measured stream.
//
// The preload is a bulk load, the way cell.LoadImmutable does one: every
// pair is applied to its replicas directly at a nominated version, without
// 100,000 client round trips. With three shards at R=3.2 a key's cohort is
// every backend. The warm-up then goes through the client under test.
func setUp(r *rig, sp spec, seed int64) (*generator, *oracle, error) {
	g := newGenerator(sp, seed)
	o := newOracle(g)
	ctx := context.Background()
	versions := truetime.NewGenerator(truetime.NewSystemClock(), 999)
	for _, p := range g.preloadOps() {
		ver := versions.Next()
		for _, b := range r.backends {
			if applied, _, _ := b.ApplySet(g.keys[p.key], g.vals[p.val], ver); !applied {
				return nil, nil, fmt.Errorf("preload: %s rejected key %d", b.Addr(), p.key)
			}
		}
		o.ackSet(p.key, p.val, ver, nil)
	}
	if sp.resident {
		// The contract of a resident workload is checked where it is made:
		// a preload that already evicted would turn every later miss into
		// a reported failure of the system rather than of the sizing.
		for _, b := range r.backends {
			if c := b.CountersSnapshot(); c.CapacityEvictions+c.AssocEvictions > 0 {
				return nil, nil, fmt.Errorf("preload evicted %d keys on %s: workload %s is not resident",
					c.CapacityEvictions+c.AssocEvictions, b.Addr(), sp.name)
			}
		}
	}
	for i := 0; i < sp.warmOps; i++ {
		step(ctx, r.kv, g, o, g.next())
	}
	if o.failed > 0 {
		return nil, nil, fmt.Errorf("warm-up: %s", o.firstFailure)
	}
	return g, o, nil
}

// step issues one op through the public client surface, hands the outcome
// to the oracle, and returns the real-clock time of the call alone.
func step(ctx context.Context, c kv, g *generator, o *oracle, p op) time.Duration {
	key := g.keys[p.key]
	switch p.kind {
	case opSet:
		t0 := time.Now()
		ver, err := c.SetVersioned(ctx, key, g.vals[p.val])
		d := time.Since(t0)
		o.ackSet(p.key, p.val, ver, err)
		return d
	case opCas:
		expected := o.ver[p.key]
		t0 := time.Now()
		applied, err := c.Cas(ctx, key, g.vals[p.val], expected)
		d := time.Since(t0)
		o.ackCas(p.key, p.val, applied, err)
		return d
	case opErase:
		t0 := time.Now()
		err := c.Erase(ctx, key)
		d := time.Since(t0)
		o.ackErase(p.key, err)
		return d
	}
	t0 := time.Now()
	got, found, err := c.Get(ctx, key)
	d := time.Since(t0)
	o.checkGet(p.key, got, found, err)
	return d
}
