package fleet

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/fabric"
	"cliquemap/internal/health"
	"cliquemap/internal/stats"
	"cliquemap/internal/trace"
)

// fakeCell serves canned method responses through the Caller interface,
// so merge semantics are tested without spinning up real cells.
type fakeCell struct {
	cfg    proto.ConfigResp
	stats  map[string]proto.StatsResp
	debug  map[string]proto.DebugResp // per shard addr
	health *proto.HealthResp
	tier   *proto.TierResp
	fail   bool

	badHealth map[string]bool // addrs answering Health with a damaged frame
	maxSlow   map[string]int  // Debug bound each addr was asked with
}

var errDown = errors.New("unreachable")

func (f *fakeCell) Call(_ context.Context, addr, method string, req []byte) ([]byte, fabric.OpTrace, error) {
	if f.fail {
		return nil, fabric.OpTrace{}, errDown
	}
	switch method {
	case proto.MethodConfig:
		return f.cfg.Marshal(), fabric.OpTrace{}, nil
	case proto.MethodStats:
		st, ok := f.stats[addr]
		if !ok {
			return nil, fabric.OpTrace{}, errDown
		}
		return st.Marshal(), fabric.OpTrace{}, nil
	case proto.MethodDebug:
		dbg, ok := f.debug[addr]
		if !ok {
			return nil, fabric.OpTrace{}, errDown
		}
		if dr, err := proto.UnmarshalDebugReq(req); err == nil && f.maxSlow != nil {
			f.maxSlow[addr] = dr.MaxSlow
		}
		return dbg.Marshal(), fabric.OpTrace{}, nil
	case proto.MethodHealth:
		if f.health == nil {
			return nil, fabric.OpTrace{}, errDown
		}
		frame := f.health.Marshal()
		if f.badHealth[addr] {
			frame = frame[:len(frame)-1]
		}
		return frame, fabric.OpTrace{}, nil
	case proto.MethodTier:
		if f.tier == nil {
			return nil, fabric.OpTrace{}, errDown
		}
		return f.tier.Marshal(), fabric.OpTrace{}, nil
	}
	return nil, fabric.OpTrace{}, errDown
}

// wireHist summarises a histogram of the given observations the way a
// tracer snapshot does.
func wireHist(kind, transport string, obs []uint64) proto.DebugHist {
	var h stats.Histogram
	for _, v := range obs {
		h.Record(v)
	}
	return trace.Summarize(kind, transport, &h)
}

func simpleCell(name string, ops uint64, hists []proto.DebugHist, hot []proto.DebugHotKey) *fakeCell {
	return &fakeCell{
		cfg: proto.ConfigResp{ShardAddrs: []string{"backend-0"}},
		stats: map[string]proto.StatsResp{
			"backend-0": {Gets: ops, ResidentKeys: 10, MemoryBytes: 1 << 20},
		},
		debug: map[string]proto.DebugResp{
			"backend-0": {OpsTotal: ops, Hists: hists, HotKeys: hot},
		},
	}
}

func TestMergedPercentilesMatchUnion(t *testing.T) {
	// Two cells with disjoint latency populations; the fleet percentiles
	// must equal a single histogram fed the union, not an average of the
	// per-cell quantiles.
	var obsA, obsB []uint64
	for i := 0; i < 900; i++ {
		obsA = append(obsA, 1000) // fast cell: 1µs
	}
	for i := 0; i < 100; i++ {
		obsB = append(obsB, 1_000_000) // slow cell: 1ms
	}
	a := New([]Target{
		{Name: "a", Caller: simpleCell("a", 900, []proto.DebugHist{wireHist("GET", "2xR", obsA)}, nil)},
		{Name: "b", Caller: simpleCell("b", 100, []proto.DebugHist{wireHist("GET", "2xR", obsB)}, nil)},
	}, Options{})
	v := a.ScrapeOnce(context.Background())
	if len(v.Hists) != 1 {
		t.Fatalf("hists: %+v", v.Hists)
	}
	var union stats.Histogram
	for _, o := range append(append([]uint64{}, obsA...), obsB...) {
		union.Record(o)
	}
	h := v.Hists[0]
	if h.Count != 1000 || h.Cells != 2 {
		t.Fatalf("count=%d cells=%d", h.Count, h.Cells)
	}
	wantQ := union.Quantiles(50, 99)
	if h.P50Ns != wantQ[0] || h.P99Ns != wantQ[1] {
		t.Errorf("merged p50/p99 = %d/%d, want %d/%d", h.P50Ns, h.P99Ns, wantQ[0], wantQ[1])
	}
	// p99 of the union is in the slow cell's population — a quantile
	// average could never land there.
	if h.P99Ns < 900_000 {
		t.Errorf("p99 %d does not reflect the slow cell", h.P99Ns)
	}
	if h.MaxNs != union.Max() || h.MeanNs != uint64(union.Mean()) || h.SumNs != union.Sum() {
		t.Errorf("max/mean/sum = %d/%d/%d, want %d/%d/%d", h.MaxNs, h.MeanNs, h.SumNs, union.Max(), uint64(union.Mean()), union.Sum())
	}
}

func TestStaleCellKeepsLastGoodScrape(t *testing.T) {
	now := time.Unix(100, 0)
	clock := func() time.Time { return now }
	b := simpleCell("b", 50, nil, nil)
	a := New([]Target{
		{Name: "a", Caller: simpleCell("a", 100, nil, nil)},
		{Name: "b", Caller: b},
	}, Options{Now: clock})
	v := a.ScrapeOnce(context.Background())
	if len(v.Cells) != 2 || v.Cells[1].Stale {
		t.Fatalf("first round: %+v", v.Cells)
	}
	firstAt := v.Cells[1].At

	// Cell b drops out; its row must stay, marked stale as of the last
	// good scrape, and must no longer contribute to skew.
	b.fail = true
	now = now.Add(5 * time.Second)
	v = a.ScrapeOnce(context.Background())
	bs := v.Cells[1]
	if !bs.Stale || bs.Err == "" {
		t.Fatalf("expected stale cell b: %+v", bs)
	}
	if !bs.At.Equal(firstAt) {
		t.Errorf("stale-as-of %v, want %v", bs.At, firstAt)
	}
	if bs.Ops != 50 {
		t.Errorf("stale row lost last good state: %+v", bs)
	}
	for _, s := range v.Skew {
		if s.Name == "b" {
			t.Errorf("stale cell in skew: %+v", v.Skew)
		}
	}
}

func TestBurnVerdictRollup(t *testing.T) {
	mk := func(state health.State, fast uint64, pages uint64) *proto.HealthResp {
		return &proto.HealthResp{Classes: []proto.HealthClass{{
			Class: "GET", State: state, FastBurnMilli: fast,
			WindowGood: 90, WindowBad: 10, Pages: pages,
		}}}
	}
	ca := simpleCell("a", 1, nil, nil)
	ca.health = mk("ok", 500, 0)
	cb := simpleCell("b", 1, nil, nil)
	cb.health = mk("page", 14500, 2)
	a := New([]Target{{Name: "a", Caller: ca}, {Name: "b", Caller: cb}}, Options{})
	v := a.ScrapeOnce(context.Background())
	if v.Verdict != "page" {
		t.Fatalf("verdict %q, want page", v.Verdict)
	}
	if len(v.Classes) != 1 {
		t.Fatalf("classes: %+v", v.Classes)
	}
	c := v.Classes[0]
	if c.State != "page" || c.FastBurnMilli != 14500 || c.Pages != 2 ||
		c.WindowGood != 180 || c.WindowBad != 20 || c.Cells != 2 {
		t.Errorf("rollup: %+v", c)
	}
}

func TestHotKeyUnionAcrossCells(t *testing.T) {
	a := New([]Target{
		{Name: "a", Caller: simpleCell("a", 1, nil, []proto.DebugHotKey{{Key: "k1", Count: 70}, {Key: "k2", Count: 10}})},
		{Name: "b", Caller: simpleCell("b", 1, nil, []proto.DebugHotKey{{Key: "k2", Count: 80}, {Key: "k3", Count: 5}})},
	}, Options{})
	v := a.ScrapeOnce(context.Background())
	if len(v.HotKeys) != 3 {
		t.Fatalf("hot keys: %+v", v.HotKeys)
	}
	if v.HotKeys[0].Key != "k2" || v.HotKeys[0].Count != 90 {
		t.Errorf("global hottest: %+v", v.HotKeys[0])
	}
	if v.HotKeys[1].Key != "k1" || v.HotKeys[2].Key != "k3" {
		t.Errorf("ranking: %+v", v.HotKeys)
	}
}

func TestSkewAgainstRingShares(t *testing.T) {
	ca := simpleCell("a", 300, nil, nil)
	ring := &proto.TierResp{RingVersion: 7, Cells: []proto.TierCell{
		{Name: "a", OwnedPpm: 750_000},
		{Name: "b", OwnedPpm: 250_000},
	}}
	ca.tier = ring
	cb := simpleCell("b", 100, nil, nil)
	a := New([]Target{{Name: "a", Caller: ca}, {Name: "b", Caller: cb}}, Options{})
	v := a.ScrapeOnce(context.Background())
	if !v.RingOK || v.Ring.RingVersion != 7 {
		t.Fatalf("ring: %+v", v.Ring)
	}
	if len(v.Skew) != 2 {
		t.Fatalf("skew: %+v", v.Skew)
	}
	// Cell a serves 75% of ops and owns 75% of the ring: ratio 1.0.
	sa := v.Skew[0]
	if sa.ObservedPpm != 750_000 || sa.RatioMilli != 1000 {
		t.Errorf("cell a skew: %+v", sa)
	}
	if sb := v.Skew[1]; sb.ObservedPpm != 250_000 || sb.RatioMilli != 1000 {
		t.Errorf("cell b skew: %+v", sb)
	}
}

func TestWritePromExposition(t *testing.T) {
	ca := simpleCell("a", 10, []proto.DebugHist{wireHist("GET", "2xR", []uint64{1000, 2000})},
		[]proto.DebugHotKey{{Key: "hot\"key", Count: 9}})
	ca.health = &proto.HealthResp{Classes: []proto.HealthClass{{Class: "GET", State: "warn", FastBurnMilli: 2500}}}
	a := New([]Target{{Name: "a", Caller: ca}}, Options{})
	v := a.ScrapeOnce(context.Background())
	var buf bytes.Buffer
	v.WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{
		"cliquemap_fleet_cells 1",
		`cliquemap_fleet_cell_up{cell="a"} 1`,
		`cliquemap_fleet_op_latency_ns{kind="GET",transport="2xR",quantile="0.99"}`,
		"cliquemap_fleet_slo_state 2",
		`cliquemap_fleet_slo_burn{class="GET",window="fast"} 2.5`,
		`cliquemap_fleet_hot_key_count{key="hot\"key"} 9`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
}

// TestScrapeCell pins the one scrape sequence cmstat and the aggregator
// share, on a 4-shard cell mid-resize: Stats covers current and pending
// addresses with failures kept per address; the tracer snapshot is the
// first responder's at the caller's bound; the hot-key ranking is the
// union of every shard's sketch — what a one-cell fleet view shows — and
// a frame that does not decode is passed over for the next shard's.
func TestScrapeCell(t *testing.T) {
	shards := []string{"backend-0", "backend-1", "backend-2", "backend-3"}
	cell := &fakeCell{
		cfg: proto.ConfigResp{ShardAddrs: shards, PendingShards: 5,
			PendingShardAddrs: append(append([]string{}, shards...), "spare-0")},
		stats: map[string]proto.StatsResp{
			"backend-0": {Gets: 10, ResidentKeys: 1}, "backend-1": {Gets: 20, ResidentKeys: 2},
			"backend-3": {Sets: 5, ResidentKeys: 4}, "spare-0": {Sets: 1000, ResidentKeys: 7},
		},
		debug: map[string]proto.DebugResp{ // backend-0 answers Stats but not Debug
			"backend-1": {OpsTotal: 111, HotKeys: []proto.DebugHotKey{{Key: "a", Count: 5, Err: 1}, {Key: "b", Count: 4}}},
			"backend-2": {OpsTotal: 222, HotKeys: []proto.DebugHotKey{{Key: "c", Count: 9}}},
			"backend-3": {OpsTotal: 333, HotKeys: []proto.DebugHotKey{{Key: "a", Count: 6, Err: 2}}},
		},
		health:    &proto.HealthResp{Rounds: 3, Classes: []proto.HealthClass{{Class: "GET", State: "ok"}}},
		badHealth: map[string]bool{"backend-0": true},
		maxSlow:   make(map[string]int),
	}
	tgt := Target{Name: "solo", Caller: cell}
	cs, err := ScrapeCell(context.Background(), tgt, 8, time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Stats) != 4 || len(cs.Errors) != 1 || cs.Errors["backend-2"] == "" {
		t.Errorf("stats %v, errors %v; want 4 answers and backend-2 in errors", cs.Stats, cs.Errors)
	}
	if cs.Ops != 35 || cs.Keys != 7 {
		t.Errorf("ops=%d keys=%d, want 35 and 7 (the pending-only spare holds copies, not load)", cs.Ops, cs.Keys)
	}
	if !cs.DebugOK || cs.Debug.OpsTotal != 111 {
		t.Errorf("tracer snapshot should be backend-1's, the first responder: %+v", cs.Debug)
	}
	if want := map[string]int{"backend-1": 8, "backend-2": 1, "backend-3": 1}; !reflect.DeepEqual(cell.maxSlow, want) {
		t.Errorf("Debug bounds asked: %v, want %v", cell.maxSlow, want)
	}
	union := []proto.DebugHotKey{{Key: "a", Count: 11, Err: 3}, {Key: "c", Count: 9}, {Key: "b", Count: 4}}
	if !reflect.DeepEqual(cs.HotKeys, union) {
		t.Errorf("hot keys %+v, want the 3-shard union %+v", cs.HotKeys, union)
	}
	if v := New([]Target{tgt}, Options{}).ScrapeOnce(context.Background()); !reflect.DeepEqual(v.HotKeys, cs.HotKeys) {
		t.Errorf("one-cell fleet view ranks %+v, the cell scrape %+v", v.HotKeys, cs.HotKeys)
	}
	if !cs.HealthOK || cs.Health.Rounds != 3 {
		t.Errorf("health should come from backend-1 after backend-0's damaged frame: ok=%v %+v", cs.HealthOK, cs.Health)
	}
	if cs.TierOK {
		t.Errorf("no shard serves Tier, yet TierOK: %+v", cs.Tier)
	}

	// No shard answers Stats (a cell that predates or fails the method): an
	// error for the aggregator, and the whole scrape for cmstat, which
	// prints one unreachable row per address from Errors.
	cell.stats = nil
	cs, err = ScrapeCell(context.Background(), tgt, 8, time.Unix(101, 0))
	if err == nil || !strings.Contains(err.Error(), "backend-2:") {
		t.Errorf("err = %v, want one naming every address's reason", err)
	}
	if len(cs.Errors) != 5 || cs.Errors["spare-0"] == "" || len(cs.Config.ShardAddrs) != 4 || !cs.DebugOK || !cs.HealthOK {
		t.Errorf("errors %v config %v debugOK=%v healthOK=%v; want 5 reasons beside the planes that did answer",
			cs.Errors, cs.Config.ShardAddrs, cs.DebugOK, cs.HealthOK)
	}
	cell.fail = true
	if cs, err = ScrapeCell(context.Background(), tgt, 8, time.Unix(102, 0)); err == nil || len(cs.Errors) != 0 {
		t.Errorf("err = %v errors = %v, want a config failure and an empty scrape", err, cs.Errors)
	}
}
