package experiments

import (
	"runtime/debug"
	"time"

	"cliquemap/internal/core/cell"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/health"
	"cliquemap/internal/loadwall"
	"cliquemap/internal/pony"
	"cliquemap/internal/stats"
	"cliquemap/internal/workload"
)

// loadwallCase is one row of the load-wall sweep: a lookup strategy, a
// value size, a GET fraction, and the cell shaping that determines which
// resource should hit the wall first.
type loadwallCase struct {
	label    string
	strategy client.Strategy
	valSize  int
	getFrac  float64

	// Cell shaping. Each case deliberately narrows one resource so the
	// knee lands at a wall-clock-feasible QPS and the saturation plane has
	// a distinct wall to name; the *relationships* between rows (SCAR vs
	// 2xR vs RPC, small vs large values) are the reproduction target.
	slowNIC  bool // 40µs single-engine Pony: NIC engine is the wall
	slowWire bool // 2 Gbps hosts: the downlink drain clock is the wall
	rpcTight bool // 4 RPC workers + costly GET handler: the worker limit is the wall

	latObjNs    uint64 // SLO latency objective gating each step
	startQPS    float64
	maxQPS      float64
	clientHosts int
}

// loadwallCases is the published sweep: {SCAR, 2xR, RPC} × {128B, 16KB}
// plus a mixed-write row.
func loadwallCases() []loadwallCase {
	return []loadwallCase{
		{label: "SCAR 128B", strategy: client.StrategySCAR, valSize: 128, getFrac: 1,
			slowNIC: true, latObjNs: 4_000_000, startQPS: 2000, maxQPS: 64_000, clientHosts: 8},
		{label: "2xR 128B", strategy: client.Strategy2xR, valSize: 128, getFrac: 1,
			slowNIC: true, latObjNs: 4_000_000, startQPS: 2000, maxQPS: 64_000, clientHosts: 8},
		{label: "RPC 128B", strategy: client.StrategyRPC, valSize: 128, getFrac: 1,
			rpcTight: true, latObjNs: 4_000_000, startQPS: 1500, maxQPS: 64_000, clientHosts: 8},
		{label: "SCAR 16KB", strategy: client.StrategySCAR, valSize: 16 << 10, getFrac: 1,
			slowWire: true, latObjNs: 6_000_000, startQPS: 2000, maxQPS: 64_000, clientHosts: 2},
		{label: "RPC 16KB", strategy: client.StrategyRPC, valSize: 16 << 10, getFrac: 1,
			slowWire: true, latObjNs: 6_000_000, startQPS: 1000, maxQPS: 32_000, clientHosts: 2},
		// 128K ceiling: only four ops in five load the shaped NIC, so the GET
		// rate must be able to pass the pure-GET row's ~54K knee.
		{label: "SCAR 128B 80/20", strategy: client.StrategySCAR, valSize: 128, getFrac: 0.8,
			slowNIC: true, latObjNs: 4_000_000, startQPS: 2000, maxQPS: 128_000, clientHosts: 8},
	}
}

// loadwallProfile sizes the knee search. The full profile is what cmbench
// publishes; tests use a cheaper one.
type loadwallProfile struct {
	stepDurNs uint64
	bisect    int
	workers   int
}

func loadwallFullProfile() loadwallProfile {
	return loadwallProfile{stepDurNs: 250e6, bisect: 3, workers: 16}
}

// mix64 is a splitmix-style finalizer used to derive the per-op GET/SET
// coin from the op's schedule index, so the mix is deterministic per seed
// yet uncorrelated with key choice.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// loadwallProbe builds the saturation probe for a cell: each call returns
// per-resource scores (queue-seconds accrued per wall-second, or backlog
// fraction for the downlink gauge) as deltas since the previous call, so
// the knee search sees each step's own saturation rather than the ramp's
// cumulative history.
func loadwallProbe(c *cell.Cell, clients []*client.Client, stepDurNs uint64) loadwall.Probe {
	type snap struct {
		stripeWait uint64
		rpcQueue   uint64
		nicQueue   uint64
		backoff    uint64
		wall       time.Time
	}
	collect := func() snap {
		s := snap{wall: time.Now()}
		for _, b := range c.Nodes() {
			st := b.Stats() // the snapshot a MethodStats scrape serves
			s.stripeWait += st.StripeWaitNs
			s.rpcQueue += st.RPCQueueNs + st.RPCSubmitWaitNs
			s.nicQueue += st.NICQueueNs
		}
		for _, cl := range clients {
			s.backoff += cl.M.BackoffNs.Value()
		}
		return s
	}
	prev := collect()
	return func() map[string]float64 {
		cur := collect()
		wall := cur.wall.Sub(prev.wall).Seconds()
		if wall <= 0 {
			wall = 1e-9
		}
		// The downlink drain clock is a gauge, not a counter: report the
		// worst per-host backlog as a fraction of the step window.
		var worst uint64
		for h := 0; h < c.Fabric.NumHosts(); h++ {
			if b := c.Fabric.Host(h).Backlog(); b > worst {
				worst = b
			}
		}
		m := map[string]float64{
			"stripe-locks": float64(cur.stripeWait-prev.stripeWait) / 1e9 / wall,
			"rpc-workers":  float64(cur.rpcQueue-prev.rpcQueue) / 1e9 / wall,
			"nic-engines":  float64(cur.nicQueue-prev.nicQueue) / 1e9 / wall,
			"retry-budget": float64(cur.backoff-prev.backoff) / 1e9 / wall,
			"downlink":     float64(worst) / float64(stepDurNs),
		}
		prev = cur
		return m
	}
}

// runLoadwallCase builds the case's cell and searches for its knee.
func runLoadwallCase(rc loadwallCase, prof loadwallProfile) *loadwall.Report {
	opt := cell.Options{
		Shards: 3, Spares: 1, Mode: config.R32,
		Transport:   cell.TransportPony,
		ClientHosts: rc.clientHosts,
		Backend:     smallBackend(),
	}
	if rc.slowNIC {
		opt.Pony = pony.CostModel{EngineServiceNs: 40_000, ScanPerEntryNs: 18, PerKBNs: 42, MsgWakeupNs: 1500}
		opt.PonyEng = pony.EngineConfig{MaxEngines: 1, ScaleOutAt: 0.70, ScaleInAt: 0.25}
	}
	if rc.slowWire {
		opt.Fabric = fabric.Params{HostGbps: 2}
	}
	c := mustCell(opt)
	if rc.rpcTight {
		for _, b := range c.Nodes() {
			srv := b.Server()
			srv.SetWorkerLimit(4)
			srv.SetMethodCost(proto.MethodGet, 400_000)
		}
	}

	nKeys := 512
	if rc.valSize >= 8<<10 {
		nKeys = 256 // keep the large-value corpus within the data segment
	}
	keys := preload(c.NewClient(client.Options{}).SetVersioned, nKeys, rc.valSize)

	// One client per generator worker, checked out through a pool so an op
	// always holds its client exclusively; NewClient round-robins them
	// over the cell's client hosts.
	clients := make([]*client.Client, prof.workers)
	pool := make(chan *client.Client, prof.workers)
	for i := range clients {
		clients[i] = c.NewClient(client.Options{Strategy: rc.strategy})
		pool <- clients[i]
	}

	getCut := uint64(rc.getFrac * float64(uint64(1)<<32))
	op := func(seq uint64) (uint64, error) {
		cl := <-pool
		defer func() { pool <- cl }()
		k := keys[seq%uint64(len(keys))]
		if mix64(seq)&0xffffffff < getCut {
			_, _, tr, err := cl.GetTraced(ctx, k)
			return tr.Ns, err
		}
		_, tr, err := cl.SetVersionedTraced(ctx, k, workload.ValueGen(seq, rc.valSize))
		return tr.Ns, err
	}

	cfg := loadwall.Config{
		StartQPS:       rc.startQPS,
		MaxQPS:         rc.maxQPS,
		Bisect:         prof.bisect,
		StepDurationNs: prof.stepDurNs,
		Seed:           42,
		Workers:        prof.workers,
		WarmupNs:       prof.stepDurNs,
		Class:          "GET",
		Objective:      health.Objective{Availability: 0.999, LatencyNs: rc.latObjNs},
	}
	return loadwall.FindKnee(c.Fabric.Params().Clock, cfg, op, loadwallProbe(c, clients, prof.stepDurNs))
}

// figLoadWallWith runs a set of cases under a profile; FigLoadWall is the
// published full sweep, tests pass a cheaper profile.
func figLoadWallWith(cases []loadwallCase, prof loadwallProfile) Result {
	res := Result{
		Name:  "loadwall",
		Title: "Load wall: max sustainable QPS per lookup strategy and value size, with the limiting resource",
		Notes: "open-loop knee search (coordinated-omission-correct); limit = argmax saturation score at the failing step nearest the knee",
	}
	// GC assist pauses of several ms land squarely in the measured tail at
	// these step durations; relax the GC target for the sweep so the knee
	// reflects the modelled system, not the generator's own allocator.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	for _, rc := range cases {
		rep := runLoadwallCase(rc, prof)
		h := &stats.Histogram{}
		if ks, ok := rep.KneeStep(); ok {
			h = ks.Latency
		}
		limit := rep.Limiting
		if limit == "" {
			limit = "none"
		}
		// The knee is a capacity (higher is better); it moves with
		// machine load like every wall-clock-denominated number, so
		// benchdiff reports it informationally. The percentile columns
		// are measured AT the knee — a drifting operating point — so
		// they inherit its noise (two identical-code runs differ by
		// ±50% on p99.9-at-knee) and are tagged the same way.
		lats := latCols(h, 50, 99, 99.9)
		for i := range lats {
			lats[i].Noisy = true
		}
		res.Rows = append(res.Rows, Row{
			Label: rc.label,
			Cols: append(append([]Col{{Name: "knee", Value: rep.KneeQPS, Unit: "qps", Noisy: true}},
				lats...),
				Col{Name: "limit", Text: limit}),
		})
	}
	return res
}

// FigLoadWall sweeps lookup strategy × value size × GET:SET mix and
// reports, per configuration, the highest offered QPS that holds the SLO
// (the knee), the latency percentiles measured at that load, and which
// resource hit the wall — the capacity answer §7 stops short of.
func FigLoadWall() Result {
	return figLoadWallWith(loadwallCases(), loadwallFullProfile())
}
