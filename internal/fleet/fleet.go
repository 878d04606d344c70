// Package fleet is the scrape-and-merge half of the observability plane:
// a pull-based aggregator that polls every cell of a federation tier over
// the existing additive methods (Stats, Debug, Health, Tier), merges the
// per-cell answers into one fleet view — true merged latency percentiles
// (raw histogram buckets travel on the wire, so the merge is exact to
// bucket resolution rather than an average of quantiles), a fleet-wide
// SLO burn verdict, a global hot-key ranking from unioned per-backend
// sketches, and a routing-skew report comparing each cell's observed load
// share against the keyspace share its ring arcs own.
//
// The aggregator is transport-agnostic: anything with the rpc Call shape
// (in-process rpc.Client, TCP gateway rpc.TCPClient) scrapes a cell, so
// the same code serves tests and cmstat -fleet. Cells fail independently:
// a cell that stops answering keeps its last good scrape in the view,
// marked stale with the time it was last seen, rather than vanishing from
// the table.
//
// It is also where a scrape is rendered: prom.go is the one Prometheus
// exposition writer (a cell's page and the fleet's), columns.go the one
// list of per-task metrics behind cmstat's tables and the page's per-task
// families.
package fleet

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/health"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
)

// Caller is the scrape transport: the Call shape shared by the in-process
// rpc.Client and the TCP gateway rpc.TCPClient.
type Caller interface {
	Call(ctx context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error)
}

// Target names one cell and how to reach it.
type Target struct {
	Name   string
	Caller Caller
}

// Options tunes the aggregator.
type Options struct {
	// Now is the wall clock (test hook); nil means time.Now.
	Now func() time.Time
}

// CellScrape is one cell's most recent successfully scraped state. When
// the latest round failed, Stale is true and the fields are the last good
// scrape, captured at At ("stale as of").
type CellScrape struct {
	Name  string
	At    time.Time `json:"at"`
	Stale bool      `json:"stale,omitempty"`
	Err   string    `json:"err,omitempty"` // last failure, "" when healthy

	Config   proto.ConfigResp           `json:"config"`
	Stats    map[string]proto.StatsResp `json:"stats,omitempty"`  // by backend address
	Errors   map[string]string          `json:"errors,omitempty"` // addresses whose Stats fetch failed
	Debug    proto.DebugResp            `json:"debug"`
	DebugOK  bool                       `json:"debugOk,omitempty"`
	Health   proto.HealthResp           `json:"health"`
	HealthOK bool                       `json:"healthOk,omitempty"`
	Tier     proto.TierResp             `json:"tier"`
	TierOK   bool                       `json:"tierOk,omitempty"`
	HotKeys  []proto.DebugHotKey        `json:"hotKeys,omitempty"` // unioned across the cell's shards

	// Ops is Σ Gets+Sets+CasOps+Erases across shards (cumulative); Keys and Bytes sum
	// resident keys and memory.
	Ops   uint64 `json:"ops"`
	Keys  uint64 `json:"keys"`
	Bytes uint64 `json:"bytes"`
}

// ClassVerdict rolls one SLO class across the fleet: worst state wins,
// burn rates take the fleet max, tallies sum.
type ClassVerdict struct {
	Class         string
	State         health.State // worst across cells
	FastBurnMilli uint64       // max across cells
	SlowBurnMilli uint64
	WindowGood    uint64 // summed
	WindowBad     uint64
	Pages         uint64
	Warns         uint64
	Cells         int
}

// CellSkew compares one cell's observed share of fleet load against the
// keyspace share its ring arcs own. Shares are parts-per-million;
// RatioMilli is observed/owned ×1000 (1000 = perfectly proportional; 0
// when the cell owns nothing).
type CellSkew struct {
	Name        string
	Ops         uint64 // ops observed this interval (cumulative on the first round)
	ObservedPpm uint64
	OwnedPpm    uint64
	RatioMilli  uint64
}

// View is one merged fleet snapshot.
type View struct {
	At      time.Time
	Round   uint64
	Cells   []CellScrape     // target order
	Hists   []trace.HistStat // one per kind/transport, merged across cells (Cells says how many); no Buckets
	Verdict health.State     // fleet-wide worst SLO state, or "unknown" before any cell reported health
	Classes []ClassVerdict
	HotKeys []proto.DebugHotKey // global union, hottest first
	Skew    []CellSkew
	Ring    proto.TierResp // freshest ring snapshot seen (highest version)
	RingOK  bool
}

// Aggregator scrapes a set of cells into merged Views, remembering each
// cell's last good scrape between rounds.
type Aggregator struct {
	targets []Target
	opt     Options

	mu      sync.Mutex
	last    map[string]CellScrape // last good scrape per cell
	prevOps map[string]uint64     // previous round's cumulative ops (skew deltas)
	round   uint64
}

// New builds an aggregator over the given cells.
func New(targets []Target, opt Options) *Aggregator {
	if opt.Now == nil {
		opt.Now = time.Now
	}
	return &Aggregator{
		targets: targets,
		opt:     opt,
		last:    make(map[string]CellScrape, len(targets)),
		prevOps: make(map[string]uint64, len(targets)),
	}
}

// ScrapeOnce polls every cell once (concurrently), merges, and returns the
// new view. Unreachable cells contribute their last good scrape, marked
// stale.
func (a *Aggregator) ScrapeOnce(ctx context.Context) *View {
	now := a.opt.Now()
	type result struct {
		i  int
		cs CellScrape
		ok bool
	}
	results := make([]result, len(a.targets))
	var wg sync.WaitGroup
	for i, tgt := range a.targets {
		wg.Add(1)
		go func(i int, tgt Target) {
			defer wg.Done()
			cs, err := ScrapeCell(ctx, tgt, 1, now)
			if err != nil {
				results[i] = result{i: i, cs: CellScrape{Name: tgt.Name, Err: err.Error()}, ok: false}
				return
			}
			results[i] = result{i: i, cs: cs, ok: true}
		}(i, tgt)
	}
	wg.Wait()

	a.mu.Lock()
	a.round++
	round := a.round
	cells := make([]CellScrape, 0, len(a.targets))
	opsDelta := make(map[string]uint64, len(a.targets))
	for _, r := range results {
		if r.ok {
			a.last[r.cs.Name] = r.cs
			opsDelta[r.cs.Name] = r.cs.Ops - min(a.prevOps[r.cs.Name], r.cs.Ops)
			a.prevOps[r.cs.Name] = r.cs.Ops
			cells = append(cells, r.cs)
			continue
		}
		// Failed round: surface the last good scrape (if any) marked
		// stale-as-of its capture time, so -watch readers see the cell
		// drop out without losing its last known state.
		if prev, ok := a.last[r.cs.Name]; ok {
			prev.Stale = true
			prev.Err = r.cs.Err
			cells = append(cells, prev)
		} else {
			cells = append(cells, r.cs)
		}
	}
	a.mu.Unlock()

	return merge(now, round, cells, opsDelta)
}

// ScrapeCell polls one cell once — the Config → Stats → Debug → Health →
// Tier sequence every dashboard surface (the Aggregator, cmstat) shares.
// Config is discovered from backend-0 (shard addresses are conventional);
// Stats is asked of every current and pending-epoch address (a resize
// routes to spares outside the old shard map), failures kept per address
// in Errors; the cell-wide Debug, Health and Tier planes come from the
// first shard that answers a decodable frame, Debug bounded to maxSlow
// slow-op traces; the per-backend heavy-hitter sketches are unioned across
// every shard. Those three methods are additive: a cell that predates one
// simply leaves its OK flag false. It fails only when the cell is
// unreachable: no config (an empty scrape), or no shard answering Stats —
// then the scrape is still returned whole, every address's reason in Errors.
func ScrapeCell(ctx context.Context, tgt Target, maxSlow int, now time.Time) (CellScrape, error) {
	cs := CellScrape{Name: tgt.Name, At: now, Stats: make(map[string]proto.StatsResp), Errors: make(map[string]string)}
	cfg, err := ask(ctx, tgt.Caller, "backend-0", proto.MethodConfig, nil, proto.UnmarshalConfigResp)
	if err != nil {
		return cs, fmt.Errorf("config: %w", err)
	}
	cs.Config = cfg

	addrs := slices.Clone(cfg.ShardAddrs)
	for _, addr := range cfg.PendingShardAddrs {
		if !slices.Contains(addrs, addr) {
			addrs = append(addrs, addr)
		}
	}
	for i, addr := range addrs {
		st, err := ask(ctx, tgt.Caller, addr, proto.MethodStats, nil, proto.UnmarshalStatsResp)
		if err != nil {
			cs.Errors[addr] = err.Error()
			continue
		}
		cs.Stats[addr] = st
		if i < len(cfg.ShardAddrs) { // a pending-only spare holds copies in flight, not load
			cs.Ops += st.Gets + st.Sets + st.CasOps + st.Erases
			cs.Keys += st.ResidentKeys
			cs.Bytes += st.MemoryBytes
		}
	}

	// The tracer is cell-wide (keep the first snapshot, at the caller's
	// bound); the heavy-hitter sketch is per-backend, so the remaining
	// shards are still asked, with the slow log cut to one op.
	var sketches [][]proto.DebugHotKey
	for _, addr := range cfg.ShardAddrs {
		req := proto.DebugReq{MaxSlow: maxSlow}
		if cs.DebugOK {
			req.MaxSlow = 1
		}
		dbg, err := ask(ctx, tgt.Caller, addr, proto.MethodDebug, req.Marshal(), proto.UnmarshalDebugResp)
		if err != nil {
			continue
		}
		if !cs.DebugOK {
			cs.Debug, cs.DebugOK = dbg, true
		}
		sketches = append(sketches, dbg.HotKeys)
	}
	cs.HotKeys = MergeHotKeys(sketches...)

	cs.Health, cs.HealthOK = askAny(ctx, tgt.Caller, cfg.ShardAddrs, proto.MethodHealth, proto.HealthReq{}.Marshal(), proto.UnmarshalHealthResp)
	cs.Tier, cs.TierOK = askAny(ctx, tgt.Caller, cfg.ShardAddrs, proto.MethodTier, proto.TierReq{}.Marshal(), proto.UnmarshalTierResp)
	if len(cs.Stats) == 0 {
		return cs, fmt.Errorf("no shard of %s answered stats: %v", tgt.Name, cs.Errors)
	}
	return cs, nil
}

// askAny asks each address in turn for a cell-wide plane and returns the
// first answer that decodes.
func askAny[T any](ctx context.Context, c Caller, addrs []string, method string, req []byte, decode func([]byte) (T, error)) (T, bool) {
	for _, addr := range addrs {
		if v, err := ask(ctx, c, addr, method, req, decode); err == nil {
			return v, true
		}
	}
	var zero T
	return zero, false
}

// ask issues one scrape call and decodes the answer. A frame that does not
// decode is as good as no answer: the zero value and the error.
func ask[T any](ctx context.Context, c Caller, addr, method string, req []byte, decode func([]byte) (T, error)) (T, error) {
	var zero T
	raw, _, err := c.Call(ctx, addr, method, req)
	if err != nil {
		return zero, err
	}
	v, err := decode(raw)
	if err != nil {
		return zero, fmt.Errorf("decode: %w", err)
	}
	return v, nil
}

func rankHeat(heat map[string]*proto.DebugHotKey) []proto.DebugHotKey {
	out := make([]proto.DebugHotKey, 0, len(heat))
	for _, hk := range heat {
		out = append(out, *hk)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// MergeHotKeys unions several heavy-hitter rankings (per-backend or
// per-cell space-saving sketches) into one global ranking, hottest
// first. Counts and error bounds sum: each input's Count over-estimates
// by at most its Err, so the union's Count over-estimates by at most the
// summed Err and the ranking's trust interval stays computable.
func MergeHotKeys(rankings ...[]proto.DebugHotKey) []proto.DebugHotKey {
	heat := make(map[string]*proto.DebugHotKey)
	for _, ranking := range rankings {
		for _, hk := range ranking {
			if got, ok := heat[hk.Key]; ok {
				got.Count += hk.Count
				got.Err += hk.Err
			} else {
				cp := hk
				heat[hk.Key] = &cp
			}
		}
	}
	return rankHeat(heat)
}

// merge folds the per-cell scrapes into one fleet view.
func merge(now time.Time, round uint64, cells []CellScrape, opsDelta map[string]uint64) *View {
	v := &View{At: now, Round: round, Cells: cells, Verdict: "unknown"}

	// Latency: rebuild one histogram per (kind, transport) from the raw
	// buckets each cell shipped, then read fleet percentiles off the
	// merged distribution. Quantile-only hists (old senders, empty
	// buckets) cannot be merged exactly and are skipped.
	type histKey struct{ kind, transport string }
	merged := make(map[histKey]*stats.Histogram)
	contrib := make(map[histKey]uint64)
	var order []histKey
	for _, cs := range cells {
		if !cs.DebugOK {
			continue
		}
		for _, h := range cs.Debug.Hists {
			if len(h.Buckets) == 0 {
				continue
			}
			k := histKey{h.Kind, h.Transport}
			mh, ok := merged[k]
			if !ok {
				mh = &stats.Histogram{}
				merged[k] = mh
				order = append(order, k)
			}
			mh.AddBuckets(h.Buckets, h.SumNs, h.MaxNs)
			contrib[k]++
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].kind != order[j].kind {
			return order[i].kind < order[j].kind
		}
		return order[i].transport < order[j].transport
	})
	for _, k := range order {
		h := trace.Summarize(k.kind, k.transport, merged[k])
		h.Buckets, h.Cells = nil, contrib[k]
		v.Hists = append(v.Hists, h)
	}

	// SLO verdict: per class, worst state across cells wins; burn rates
	// report the fleet max (the cell closest to its error budget), window
	// tallies and alert counts sum.
	classes := make(map[string]*ClassVerdict)
	var classOrder []string
	healthSeen := false
	for _, cs := range cells {
		if !cs.HealthOK {
			continue
		}
		healthSeen = true
		for _, c := range cs.Health.Classes {
			cv, ok := classes[c.Class]
			if !ok {
				cv = &ClassVerdict{Class: c.Class, State: health.Ok}
				classes[c.Class] = cv
				classOrder = append(classOrder, c.Class)
			}
			if c.State.Rank() > cv.State.Rank() {
				cv.State = c.State
			}
			if c.FastBurnMilli > cv.FastBurnMilli {
				cv.FastBurnMilli = c.FastBurnMilli
			}
			if c.SlowBurnMilli > cv.SlowBurnMilli {
				cv.SlowBurnMilli = c.SlowBurnMilli
			}
			cv.WindowGood += c.WindowGood
			cv.WindowBad += c.WindowBad
			cv.Pages += c.Pages
			cv.Warns += c.Warns
			cv.Cells++
		}
	}
	sort.Strings(classOrder)
	worst := health.Ok
	for _, name := range classOrder {
		cv := classes[name]
		v.Classes = append(v.Classes, *cv)
		if cv.State.Rank() > worst.Rank() {
			worst = cv.State
		}
	}
	if healthSeen {
		v.Verdict = worst
	}

	// Global heat: union the per-cell (already shard-unioned) sketches.
	perCell := make([][]proto.DebugHotKey, 0, len(cells))
	for _, cs := range cells {
		perCell = append(perCell, cs.HotKeys)
	}
	v.HotKeys = MergeHotKeys(perCell...)

	// Ring: the freshest tier snapshot any cell serves.
	for _, cs := range cells {
		if cs.TierOK && (!v.RingOK || cs.Tier.RingVersion > v.Ring.RingVersion) {
			v.Ring, v.RingOK = cs.Tier, true
		}
	}

	// Routing skew: each live cell's share of the interval's observed ops
	// against the keyspace share its arcs own on the freshest ring.
	owned := make(map[string]uint64)
	if v.RingOK {
		for _, c := range v.Ring.Cells {
			owned[c.Name] = c.OwnedPpm
		}
	}
	var totalOps uint64
	for _, cs := range cells {
		if !cs.Stale && cs.Err == "" {
			totalOps += opsDelta[cs.Name]
		}
	}
	for _, cs := range cells {
		if cs.Stale || cs.Err != "" {
			continue
		}
		sk := CellSkew{Name: cs.Name, Ops: opsDelta[cs.Name], OwnedPpm: owned[cs.Name]}
		if totalOps > 0 {
			sk.ObservedPpm = opsDelta[cs.Name] * 1_000_000 / totalOps
		}
		if sk.OwnedPpm > 0 {
			sk.RatioMilli = sk.ObservedPpm * 1000 / sk.OwnedPpm
		}
		v.Skew = append(v.Skew, sk)
	}
	return v
}
