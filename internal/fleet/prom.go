package fleet

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/trace"
)

// The one Prometheus writer. Both pages — a cell's (cmcell /metrics from
// the cell's own snapshot functions, cmstat -prom from a remote scrape)
// and the merged fleet's (cmstat -fleet -prom) — are rendered from scraped
// records, never from live objects, so what an operator graphs is what
// cmstat tabulates.

// promWriter emits text exposition format 0.0.4. family is the only place
// a "# TYPE" line is written; a family's samples follow it contiguously.
type promWriter struct{ w io.Writer }

func (p promWriter) family(name, typ string) { fmt.Fprintf(p.w, "# TYPE %s %s\n", name, typ) }

// sample writes one sample; labels are name, value pairs. value is an
// integer, or a float64 (printed %g).
func (p promWriter) sample(name string, value any, labels ...string) {
	var l strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			l.WriteByte(',')
		}
		l.WriteString(labels[i] + "=" + strconv.Quote(labels[i+1]))
	}
	if l.Len() > 0 {
		name += "{" + l.String() + "}"
	}
	fmt.Fprintf(p.w, "%s %v\n", name, value)
}

// single is a family of one unlabelled sample.
func (p promWriter) single(name, typ string, value any) {
	p.family(name, typ)
	p.sample(name, value)
}

// latency writes one summary family from kind/transport latency records.
func (p promWriter) latency(name string, hists []trace.HistStat) {
	p.family(name, "summary")
	for _, h := range hists {
		l := []string{"kind", h.Kind, "transport", h.Transport, "quantile"}
		p.sample(name, h.P50Ns, append(l, "0.5")...)
		p.sample(name, h.P90Ns, append(l, "0.9")...)
		p.sample(name, h.P99Ns, append(l, "0.99")...)
		p.sample(name, h.P999Ns, append(l, "0.999")...)
		p.sample(name+"_count", h.Count, l[:4]...)
		p.sample(name+"_sum", h.SumNs, l[:4]...)
	}
}

func milli(v uint64) float64 { return float64(v) / 1000 }

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WriteProm renders one cell's scrape: the op-tracing plane (op counts,
// a latency summary per kind/transport, hazard injections, CPU accounts),
// the health plane (SLO burn rates and alert states, probe outcomes), and
// one family per exporting row of Columns with a sample per task that
// answered Stats, in address order.
func (cs *CellScrape) WriteProm(w io.Writer) {
	p := promWriter{w}
	if d := &cs.Debug; cs.DebugOK {
		p.single("cliquemap_ops_total", "counter", d.OpsTotal)
		p.single("cliquemap_slow_ops_total", "counter", d.SlowTotal)
		p.single("cliquemap_slow_threshold_ns", "gauge", d.SlowThresholdNs)
		p.latency("cliquemap_op_latency_ns", d.Hists)
		if len(d.Hazards) > 0 {
			p.family("cliquemap_hazard_injections_total", "counter")
			for _, h := range d.Hazards {
				p.sample("cliquemap_hazard_injections_total", h.Count, "hazard", h.Name)
			}
		}
		if len(d.CPU) > 0 {
			p.family("cliquemap_cpu_ns_total", "counter")
			for _, c := range d.CPU {
				p.sample("cliquemap_cpu_ns_total", c.TotalNs, "component", c.Component)
			}
		}
	}
	if h := &cs.Health; cs.HealthOK {
		p.family("cliquemap_slo_burn_rate", "gauge")
		for _, c := range h.Classes {
			p.sample("cliquemap_slo_burn_rate", milli(c.FastBurnMilli), "class", c.Class, "window", "fast")
			p.sample("cliquemap_slo_burn_rate", milli(c.SlowBurnMilli), "class", c.Class, "window", "slow")
		}
		p.family("cliquemap_slo_alert_state", "gauge")
		for _, c := range h.Classes {
			p.sample("cliquemap_slo_alert_state", max(c.State.Rank()-1, 0), "class", c.Class) // 0 ok, 1 warn, 2 page
		}
		p.family("cliquemap_probe_ops_total", "counter")
		for _, c := range h.Classes {
			p.sample("cliquemap_probe_ops_total", c.Good, "class", c.Class, "outcome", "good")
			p.sample("cliquemap_probe_ops_total", c.Bad, "class", c.Class, "outcome", "bad")
		}
		if len(h.Targets) > 0 {
			p.family("cliquemap_probe_target_ops_total", "counter")
			for _, t := range h.Targets {
				p.sample("cliquemap_probe_target_ops_total", t.Good, "target", t.Name, "outcome", "good")
				p.sample("cliquemap_probe_target_ops_total", t.Bad, "target", t.Name, "outcome", "bad")
			}
		}
		p.single("cliquemap_probe_rounds_total", "counter", h.Rounds)
	}
	tasks := make([]string, 0, len(cs.Stats))
	for addr := range cs.Stats {
		tasks = append(tasks, addr)
	}
	slices.Sort(tasks)
	for i := range Columns {
		if c := &Columns[i]; c.Prom != "" {
			p.column(c, tasks, cs.Stats)
		}
	}
}

// column writes one per-task family. Cumulative kinds are counters
// (*_total; they reset when the task restarts), the rest gauges; Nanos
// export as seconds and the ×1000 kinds as plain ratios.
func (p promWriter) column(c *Column, tasks []string, stats map[string]proto.StatsResp) {
	typ := "gauge"
	if c.Kind.Cumulative() {
		typ = "counter"
	}
	p.family(c.Prom, typ)
	for _, addr := range tasks {
		st := stats[addr]
		switch v := c.Get(&st); c.Kind {
		case Occupancy:
			p.sample(c.Prom, v, "task", addr, "state", "busy")
			p.sample(c.Prom, c.Of(&st), "task", addr, "state", "limit")
		case Nanos:
			p.sample(c.Prom, float64(v)/1e9, "task", addr)
		case Milli, Percent:
			p.sample(c.Prom, milli(v), "task", addr)
		default:
			p.sample(c.Prom, v, "task", addr)
		}
	}
}

// WriteProm renders the merged fleet view.
func (v *View) WriteProm(w io.Writer) {
	p := promWriter{w}
	p.single("cliquemap_fleet_cells", "gauge", len(v.Cells))
	p.family("cliquemap_fleet_cell_up", "gauge")
	for _, cs := range v.Cells {
		p.sample("cliquemap_fleet_cell_up", b2i(!cs.Stale && cs.Err == ""), "cell", cs.Name)
	}
	p.family("cliquemap_fleet_cell_ops_total", "counter")
	for _, cs := range v.Cells {
		p.sample("cliquemap_fleet_cell_ops_total", cs.Ops, "cell", cs.Name)
	}
	p.latency("cliquemap_fleet_op_latency_ns", v.Hists)
	p.single("cliquemap_fleet_slo_state", "gauge", v.Verdict.Rank())
	p.family("cliquemap_fleet_slo_burn", "gauge")
	for _, c := range v.Classes {
		p.sample("cliquemap_fleet_slo_burn", milli(c.FastBurnMilli), "class", c.Class, "window", "fast")
		p.sample("cliquemap_fleet_slo_burn", milli(c.SlowBurnMilli), "class", c.Class, "window", "slow")
	}
	if len(v.HotKeys) > 0 {
		p.family("cliquemap_fleet_hot_key_count", "gauge")
		for _, hk := range v.HotKeys[:min(len(v.HotKeys), 16)] {
			p.sample("cliquemap_fleet_hot_key_count", hk.Count, "key", hk.Key)
		}
	}
	if len(v.Skew) > 0 {
		p.family("cliquemap_fleet_route_skew", "gauge")
		for _, s := range v.Skew {
			p.sample("cliquemap_fleet_route_skew", milli(s.RatioMilli), "cell", s.Name)
		}
	}
}
