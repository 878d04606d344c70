package fleet

import (
	"bytes"
	"context"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"cliquemap/internal/core/proto"
)

var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)` + // metric name
	`(\{[a-zA-Z_]\w*="(?:\\.|[^"\\])*"(?:,[a-zA-Z_]\w*="(?:\\.|[^"\\])*")*\})?` + // labels: values quoted and escaped
	` (-?[0-9][0-9.eE+-]*|NaN|[+-]Inf)$`)

// checkExposition holds a page to the text exposition format, strictly:
// every family has exactly one "# TYPE" line, before its first sample;
// its samples follow that line contiguously; and a sample is named for its
// family, or family_sum / family_count under a summary.
func checkExposition(page string) error {
	types := make(map[string]string)
	family := "" // whose run of samples the cursor is in
	for n, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		if decl, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(decl)
			if len(f) != 2 {
				return fmt.Errorf("line %d: malformed TYPE line %q", n+1, line)
			}
			if _, dup := types[f[0]]; dup {
				return fmt.Errorf("line %d: second # TYPE for %s", n+1, f[0])
			}
			types[f[0]], family = f[1], f[0]
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: not a sample: %q", n+1, line)
		}
		name := m[1]
		for _, suffix := range []string{"_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "summary" {
				name = base
			}
		}
		if name != family {
			return fmt.Errorf("line %d: sample of %s inside the run of family %q: no # TYPE of its own before it, or its samples are not contiguous", n+1, name, family)
		}
	}
	return nil
}

// promCell is a cell with something in every section of its page: two
// serving shards, a spare outside the shard map, a label value that needs
// escaping.
func promCell() *fakeCell {
	c := simpleCell("solo", 10, []proto.DebugHist{wireHist("GET", "2xR", []uint64{1000, 2000}), wireHist("SET", "RPC", []uint64{90_000})},
		[]proto.DebugHotKey{{Key: "hot\"key", Count: 9}})
	c.cfg.ShardAddrs = []string{"backend-0", "backend-1"}
	c.stats["backend-1"] = proto.StatsResp{Gets: 5, RPCWorkerLimit: 64, RPCWorkersBusy: 2, RPCRhoMilli: 870, RPCQueueNs: 1_500_000_000, CorruptPurged: 1}
	dbg := c.debug["backend-0"]
	dbg.CPU = []proto.DebugCPU{{Component: "client", TotalNs: 2000, Ops: 1}}
	dbg.Hazards = []proto.DebugHazard{{Name: "nic\\delay", Count: 3}}
	dbg.Health = []proto.DebugHealth{{Addr: "backend-0", ScoreMilli: 1000}, {Addr: "backend-1", ScoreMilli: 125, Demoted: true}}
	c.debug["backend-0"] = dbg
	c.health = &proto.HealthResp{Rounds: 7,
		Classes: []proto.HealthClass{{Class: "GET", State: "warn", FastBurnMilli: 2500, Good: 9, Bad: 1}},
		Targets: []proto.HealthTarget{{Name: "2xR", Good: 9, Bad: 1}}}
	return c
}

// TestWriteProm renders the three pages the one writer serves — a cell's
// own (Cell.Scrape: spares included), a remote cell's (cmstat -prom) and
// the merged fleet's — checks each strictly, and pins the two exposition
// defects of the four writers it replaced: replica_demoted is a family of
// its own rather than samples inside replica_health_score's, and a latency
// summary's _sum is the exact SumNs, on the fleet page too.
func TestWriteProm(t *testing.T) {
	cell := promCell()
	remote, err := ScrapeCell(context.Background(), Target{Name: "solo", Caller: cell}, 1, time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	own := remote
	own.Stats = map[string]proto.StatsResp{"backend-0": remote.Stats["backend-0"], "backend-1": remote.Stats["backend-1"], "spare-0": {RPCWorkerLimit: 64}}
	view := New([]Target{{Name: "solo", Caller: cell}, {Name: "gone", Caller: &fakeCell{fail: true}}}, Options{}).ScrapeOnce(context.Background())

	pages := make(map[string]string)
	for name, write := range map[string]func(*bytes.Buffer){
		"cell":   func(b *bytes.Buffer) { own.WriteProm(b) },
		"remote": func(b *bytes.Buffer) { remote.WriteProm(b) },
		"fleet":  func(b *bytes.Buffer) { view.WriteProm(b) },
	} {
		var b bytes.Buffer
		write(&b)
		pages[name] = b.String()
		if err := checkExposition(pages[name]); err != nil {
			t.Errorf("%s page: %v\n%s", name, err, pages[name])
		}
	}
	for page, wants := range map[string][]string{
		"cell": {
			"# TYPE cliquemap_replica_demoted gauge\ncliquemap_replica_demoted{replica=\"backend-0\"} 0\ncliquemap_replica_demoted{replica=\"backend-1\"} 1\n",
			"cliquemap_replica_health_score{replica=\"backend-0\"} 1\ncliquemap_replica_health_score{replica=\"backend-1\"} 0.125\n",
			`cliquemap_op_latency_ns_sum{kind="GET",transport="2xR"} 3000`,
			`cliquemap_hazard_injections_total{hazard="nic\\delay"} 3`,
			`cliquemap_slo_alert_state{class="GET"} 1`,
			`cliquemap_rpc_workers{task="spare-0",state="limit"} 64`,
			`cliquemap_rpc_queue_seconds_total{task="backend-1"} 1.5`,
			`cliquemap_task_corrupt_purged_total{task="backend-1"} 1`,
		},
		"remote": {`cliquemap_rpc_utilization{task="backend-1"} 0.87`, `cliquemap_probe_rounds_total 7`},
		"fleet":  {`cliquemap_fleet_op_latency_ns_sum{kind="GET",transport="2xR"} 3000`, `cliquemap_fleet_cell_up{cell="gone"} 0`},
	} {
		for _, want := range wants {
			if !strings.Contains(pages[page], want) {
				t.Errorf("%s page missing %q:\n%s", page, want, pages[page])
			}
		}
	}
	if strings.Contains(pages["remote"], "spare-0") {
		t.Error("a remote scrape covers the shard map; the spare is the cell's own page's")
	}

	// What trace.Tracer.WriteProm wrote before: the checker must refuse it.
	const parent = `# TYPE cliquemap_replica_health_score gauge
cliquemap_replica_health_score{replica="backend-0"} 1
cliquemap_replica_demoted{replica="backend-0"} 0
cliquemap_replica_health_score{replica="backend-1"} 0.125
cliquemap_replica_demoted{replica="backend-1"} 1
`
	if err := checkExposition(parent); err == nil {
		t.Error("the checker passes the interleaved, untyped replica_demoted samples of the old tracer writer")
	}
	for _, bad := range []string{
		"cliquemap_x 1\n", // no TYPE
		"# TYPE a gauge\na 1\n# TYPE b gauge\nb 1\na 2\n",      // not contiguous
		"# TYPE a gauge\n# TYPE a gauge\na 1\n",                // TYPE twice
		"# TYPE a gauge\na_sum 1\n",                            // _sum outside a summary
		"# TYPE a gauge\na{k=v} 1\n",                           // unquoted label value
		"# TYPE a gauge\na{k=\"un\"escaped\"} 1\n",             // unescaped quote
		"# TYPE a summary\na{quantile=\"0.5\"} 1\na_count 2 3", // trailing junk
	} {
		if err := checkExposition(bad); err == nil {
			t.Errorf("the checker passes %q", bad)
		}
	}
}
