// Command cmstat inspects a running CliqueMap cell from outside its
// process: it dials the cell's TCP gateway (cmcell -listen, or
// Cell.ServeTCP), discovers the shard map with the Config method, and
// prints each backend's Stats snapshot, the cell's op-tracing plane
// (Debug method), the fleet health plane's SLO state (Health method),
// and the key-heat telemetry — the operational dashboard view. When a
// resize is in flight (the Config response carries a pending epoch) a
// RESIZE section shows per-shard handoff progress. Cells that export
// saturation telemetry get a SATURATION section: RPC worker occupancy,
// admission ρ, stripe-lock contention, and NIC engine queueing — the
// live view of the resources a load-wall run names as limiting.
//
// Flags:
//
//	-gateway addr   cell TCP gateway address (default 127.0.0.1:7070)
//	-as name        principal to authenticate as
//	-watch d        refresh every d; successive snapshots print
//	                per-interval rates (ops/s, CPU-ns/op) rather than
//	                cumulative counters. Counter resets (a backend
//	                restarted) clamp to zero and are flagged instead of
//	                wrapping to garbage rates.
//	-json           emit one machine-readable JSON document per snapshot
//	                instead of tables (composable with -watch: one
//	                document per line)
//	-trace          also print the retained slow-op log with per-layer
//	                span breakdowns, and the per-kind exemplar traces
//	-tier           print the federation tier's ring table (member cells,
//	                live/base weights, demotion state, ownership shares);
//	                shown automatically when the cell belongs to a tier
//	-slow n         cap the slow ops requested per snapshot (default 8)
//	-hot n          cap the hot keys printed (default 10)
//	-fleet list     scrape EVERY cell in the comma-separated gateway list
//	                (entries "name=addr" or bare "addr") and print one
//	                merged fleet view: true merged latency percentiles,
//	                the fleet SLO burn verdict, the global hot-key union,
//	                and per-cell routing skew vs. ring ownership. Cells
//	                that stop answering mid -watch stay in the table
//	                marked "STALE as of <time>" with their last state.
//	-prom           print Prometheus text exposition instead of tables: the
//	                page cmcell's /metrics serves, rendered from the remote
//	                scrape; with -fleet, the merged view's
//
// Usage:
//
//	cmcell -ops 100000 -listen 127.0.0.1:7070 &   # a cell with a gateway
//	cmstat -gateway 127.0.0.1:7070 -watch 2s -trace
//	cmstat -fleet us=127.0.0.1:7070,eu=127.0.0.1:7071 -watch 2s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"cliquemap/internal/core/proto"
	"cliquemap/internal/fleet"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
)

func main() {
	gateway := flag.String("gateway", "127.0.0.1:7070", "cell TCP gateway address")
	principal := flag.String("as", "cmstat", "principal to authenticate as")
	watch := flag.Duration("watch", 0, "refresh interval (0 = print once)")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	showTrace := flag.Bool("trace", false, "print slow-op traces and exemplars")
	showTier := flag.Bool("tier", false, "print the federation tier ring table")
	fleetSpec := flag.String("fleet", "", "comma-separated cell gateways (name=addr or addr) to scrape and merge into one fleet view")
	promOut := flag.Bool("prom", false, "emit Prometheus text exposition instead of tables (with -fleet: of the merged view)")
	maxSlow := flag.Int("slow", 8, "slow ops to request per snapshot")
	maxHot := flag.Int("hot", 10, "hot keys to print")
	flag.Parse()

	if *fleetSpec != "" {
		runFleet(context.Background(), *fleetSpec, *principal, *watch, *jsonOut, *promOut, *maxHot)
		return
	}

	client, err := rpc.DialTCP(*gateway, *principal)
	if err != nil {
		fatal("dialing %s: %v", *gateway, err)
	}
	defer client.Close()
	ctx := context.Background()

	// One cell is a fleet of one: the scrape sequence is fleet.ScrapeCell's.
	// prev retains a round so the next -watch round can print per-interval
	// rates instead of cumulative counters.
	tgt := fleet.Target{Name: *gateway, Caller: client}
	var prev *fleet.CellScrape
	for {
		// A cell whose config answers but whose every Stats call fails is
		// still rendered: one unreachable row (and `errors` entry) per shard.
		cur, err := fleet.ScrapeCell(ctx, tgt, *maxSlow, time.Now())
		if err != nil && len(cur.Errors) == 0 {
			fatal("%v", err)
		}
		switch {
		case *promOut:
			cur.WriteProm(os.Stdout)
		case *jsonOut:
			printJSON(os.Stdout, &cur)
		default:
			printTables(os.Stdout, &cur, prev, *showTrace, *showTier, *maxHot)
		}
		if *watch <= 0 {
			return
		}
		prev = &cur
		time.Sleep(*watch)
		if !*jsonOut && !*promOut {
			fmt.Println()
		}
	}
}

// jsonReport is the -json document: the full remote state of one
// snapshot, fields omitted when the cell does not serve them.
type jsonReport struct {
	At     time.Time                  `json:"at"`
	Config proto.ConfigResp           `json:"config"`
	Stats  map[string]proto.StatsResp `json:"stats"`
	Errors map[string]string          `json:"errors,omitempty"`
	Debug  *proto.DebugResp           `json:"debug,omitempty"`
	Health *proto.HealthResp          `json:"health,omitempty"`
	Tier   *proto.TierResp            `json:"tier,omitempty"`
}

func printJSON(w io.Writer, cur *fleet.CellScrape) {
	rep := jsonReport{At: cur.At, Config: cur.Config, Stats: cur.Stats, Errors: cur.Errors}
	if cur.DebugOK {
		dbg := cur.Debug
		dbg.HotKeys = cur.HotKeys // the cell's sketch, not one shard's
		rep.Debug = &dbg
	}
	if cur.HealthOK {
		rep.Health = &cur.Health
	}
	if cur.TierOK && len(cur.Tier.Cells) > 0 {
		rep.Tier = &cur.Tier
	}
	if err := json.NewEncoder(w).Encode(rep); err != nil {
		fatal("json encode: %v", err)
	}
}

// delta returns cur−prev for a monotonic counter, clamped at zero. A
// backend restart resets its counters to zero, so a raw uint64
// subtraction would wrap to ~2^64 and print absurd rates; a reset
// interval instead reads as zero, and reset says why.
func delta(cur, prev uint64) (d uint64, reset bool) {
	if cur < prev {
		return 0, true
	}
	return cur - prev, false
}

func printTables(w io.Writer, cur, prev *fleet.CellScrape, showTrace, showTier bool, maxHot int) {
	cfg := cur.Config
	fmt.Fprintf(w, "cell config id=%d replicas=%d quorum=%d shards=%d\n",
		cfg.ConfigID, cfg.Replicas, cfg.Quorum, len(cfg.ShardAddrs))
	if cfg.PendingShards > 0 {
		printResize(w, cur)
	}

	printTable(w, "", cur, prev)
	if prev != nil {
		// One verdict per task for all three tables: it restarted if any of
		// its cumulative columns, shown under -watch or not, went backwards.
		var restarted []string
		for _, addr := range cfg.ShardAddrs {
			st, ok := cur.Stats[addr]
			if p, had := prev.Stats[addr]; ok && had && fleet.Restarted(&st, &p) {
				restarted = append(restarted, addr)
			}
		}
		if len(restarted) > 0 {
			fmt.Fprintf(w, "note: counters reset on %s (backend restart); affected deltas clamped to zero\n",
				strings.Join(restarted, ", "))
		}
	}
	printTable(w, "RECOVERY", cur, prev)
	printTable(w, "SATURATION", cur, prev)

	if cur.TierOK && (showTier || len(cur.Tier.Cells) > 0) {
		printTier(w, cur.Tier)
	}
	if cur.HealthOK {
		printHealth(w, cur.Health)
	}
	if cur.DebugOK {
		printDebug(w, cur, prev, showTrace, maxHot)
	}
}

// printTable renders one of the per-task tables — the main one ("") or a
// named plane — from fleet.Columns: a row per shard, a cell per column
// that has a header in this mode (cumulative, or -watch when prev is set).
// A named plane no task has anything to show in is omitted: the cell
// predates its telemetry or runs without it (no data directory, say).
func printTable(w io.Writer, table string, cur, prev *fleet.CellScrape) {
	watch, elapsed := prev != nil, 0.0
	if watch {
		elapsed = cur.At.Sub(prev.At).Seconds()
	}
	header := func(c *fleet.Column) string {
		if watch {
			return c.Watch
		}
		return c.Head
	}
	lead, shown := "\n"+table, false
	if table == "" {
		lead, shown = "SHARD", true
	}
	var cols []*fleet.Column
	for i := range fleet.Columns {
		c := &fleet.Columns[i]
		if c.Table != table {
			continue
		}
		if header(c) != "" {
			cols = append(cols, c)
		}
		for _, addr := range cur.Config.ShardAddrs {
			if st, ok := cur.Stats[addr]; ok && !blank(c, &st) {
				shown = true
			}
		}
	}
	if !shown {
		return
	}
	tw := newTab(w)
	fmt.Fprint(tw, lead, "\tADDR")
	for _, c := range cols {
		fmt.Fprint(tw, "\t", header(c))
	}
	fmt.Fprintln(tw)
	for shard, addr := range cur.Config.ShardAddrs {
		st, ok := cur.Stats[addr]
		if !ok {
			if table == "" {
				fmt.Fprintf(tw, "%d\t%s\t(unreachable: %s)\n", shard, addr, cur.Errors[addr])
			}
			continue
		}
		var before *proto.StatsResp // nil: the task answered no previous round
		if watch {
			if p, had := prev.Stats[addr]; had {
				before = &p
			}
		}
		fmt.Fprintf(tw, "%d\t%s", shard, addr)
		for _, c := range cols {
			fmt.Fprint(tw, "\t", cell(c, &st, before, watch, cur.At, elapsed))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// blank reports whether column c reads for st as it does for a task that
// reports nothing.
func blank(c *fleet.Column, st *proto.StatsResp) bool {
	return cell(c, st, nil, false, time.Time{}, 0) == cell(c, new(proto.StatsResp), nil, false, time.Time{}, 0)
}

// cell renders one column of one task's row. Gauges read the same in both
// modes. A cumulative column prints its lifetime total, or under -watch
// the interval since prev — clamped at zero across a restart, and "-" for
// a task with no previous round (a spare a resize just promoted: its
// lifetime is not one interval's work): a queue time as queue-seconds per
// second, a count as a rate under a "…/s" header, else as the delta.
func cell(c *fleet.Column, cur, prev *proto.StatsResp, watch bool, at time.Time, elapsed float64) string {
	if c.Kind == fleet.Text {
		return c.Text(cur)
	}
	v := c.Get(cur)
	switch c.Kind {
	case fleet.Occupancy:
		return fmt.Sprintf("%d/%d", v, c.Of(cur))
	case fleet.Bytes:
		return fmtBytes(v)
	case fleet.Milli:
		return fmt.Sprintf("%.2f", float64(v)/1000)
	case fleet.Percent:
		return fmt.Sprintf("%.1f%%", float64(v)/10)
	case fleet.Age:
		if v == 0 {
			return "-"
		}
		return at.Sub(time.Unix(0, int64(v))).Round(time.Second).String()
	case fleet.Gauge:
		return fmt.Sprint(v)
	}
	// Counter or Nanos.
	switch {
	case !watch && c.Kind == fleet.Nanos:
		return time.Duration(v).String()
	case !watch:
		return fmt.Sprint(v)
	case prev == nil:
		return "-"
	}
	d, _ := delta(v, c.Get(prev))
	switch {
	case c.Kind == fleet.Nanos:
		return fmtQSec(d, elapsed)
	case strings.HasSuffix(c.Watch, "/s"):
		return fmtRate(d, elapsed)
	}
	return fmt.Sprint(d)
}

// fmtQSec renders accumulated queue-nanoseconds over a wall interval as
// queue-seconds per second: 1.00 ≈ one op-stream's worth of continuous
// waiting on that resource.
func fmtQSec(ns uint64, seconds float64) string {
	if seconds <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.3f", float64(ns)/1e9/seconds)
}

// printTier renders the federation router's ring table: one row per
// member cell with its live routing weight against the configured base,
// the health state driving any demotion, and the exact keyspace share
// its ring arcs own.
func printTier(w io.Writer, t proto.TierResp) {
	if len(t.Cells) == 0 {
		fmt.Fprintf(w, "\ntier: cell is not part of a federation tier\n")
		return
	}
	fmt.Fprintf(w, "\ntier: ring v%d, %d vnodes/unit weight, %d cells\n",
		t.RingVersion, t.Vnodes, len(t.Cells))
	tw := newTab(w)
	fmt.Fprintln(tw, "CELL\tSTATE\tWEIGHT\tBASE\tOWNED\tDEMOTED")
	for _, c := range t.Cells {
		fmt.Fprintf(tw, "%s\t%s\t%.3f\t%.3f\t%.1f%%\t%v\n",
			c.Name, strings.ToUpper(c.State),
			float64(c.WeightMilli)/1000, float64(c.BaseMilli)/1000,
			float64(c.OwnedPpm)/1e4, c.Demoted)
	}
	tw.Flush()
}

// printResize renders an in-flight resize: the old→new shard count, how
// many old shards have sealed their handoff (sealed ≥ R−Q+1 of a cohort
// flips read authority to the pending epoch), and one row per pending
// shard with the owning backend's own view of the handoff — useful for
// spotting a resize wedged mid-shard.
func printResize(w io.Writer, cur *fleet.CellScrape) {
	cfg := cur.Config
	sealed := 0
	for _, s := range cfg.SealedOld {
		if s {
			sealed++
		}
	}
	fmt.Fprintf(w, "RESIZE in progress: %d -> %d shards, %d/%d old shards sealed\n",
		len(cfg.ShardAddrs), cfg.PendingShards, sealed, len(cfg.SealedOld))
	tw := newTab(w)
	fmt.Fprintln(tw, "PENDING\tADDR\tOLD SHARD\tOLD SEALED\tBACKEND HSEAL\tBACKEND TARGET")
	for ps, addr := range cfg.PendingShardAddrs {
		oldShard, oldSealed := "-", "-"
		for s, a := range cfg.ShardAddrs {
			if a == addr {
				oldShard = fmt.Sprintf("%d", s)
				if s < len(cfg.SealedOld) {
					oldSealed = fmt.Sprintf("%v", cfg.SealedOld[s])
				}
			}
		}
		hseal, target := "?", "?"
		if st, ok := cur.Stats[addr]; ok {
			hseal = fmt.Sprintf("%v", st.HandoffSealed)
			target = fmt.Sprintf("%d", st.PendingShards)
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\n", ps, addr, oldShard, oldSealed, hseal, target)
	}
	tw.Flush()
}

// printHealth renders the SLO engine's evaluated state: one row per op
// class with its alert state and burn rates, then per-probe-target
// availability.
func printHealth(w io.Writer, h proto.HealthResp) {
	fmt.Fprintf(w, "\nhealth: prober rounds=%d\n", h.Rounds)
	tw := newTab(w)
	fmt.Fprintln(tw, "CLASS\tSTATE\tSLO\tBURN(fast)\tBURN(slow)\tWINDOW G/B\tPROBE P50\tP99\tPAGES\tWARNS")
	for _, c := range h.Classes {
		fmt.Fprintf(tw, "%s\t%s\t%s<%v\t%.2f\t%.2f\t%d/%d\t%v\t%v\t%d\t%d\n",
			c.Class, strings.ToUpper(string(c.State)),
			fmtPpm(c.AvailabilityPpm), time.Duration(c.LatencyTargetNs),
			float64(c.FastBurnMilli)/1000, float64(c.SlowBurnMilli)/1000,
			c.WindowGood, c.WindowBad,
			time.Duration(c.ProbeP50Ns), time.Duration(c.ProbeP99Ns),
			c.Pages, c.Warns)
	}
	tw.Flush()
	if len(h.Targets) > 0 {
		tw = newTab(w)
		fmt.Fprintln(tw, "TARGET\tPROBES\tBAD\tAVAIL")
		for _, t := range h.Targets {
			total := t.Good + t.Bad
			avail := 1.0
			if total > 0 {
				avail = float64(t.Good) / float64(total)
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%.4f\n", t.Name, total, t.Bad, avail)
		}
		tw.Flush()
	}
}

// printLatency renders kind/transport latency summaries — one cell's, or
// (cells set) a fleet's merged ones with how many cells fed each.
func printLatency(w io.Writer, hists []proto.DebugHist, cells bool) {
	tw := newTab(w)
	if cells {
		fmt.Fprintln(tw, "\nKIND\tVIA\tCELLS\tCOUNT\tMEAN\tP50\tP90\tP99\tP99.9\tMAX")
	} else {
		fmt.Fprintln(tw, "KIND\tVIA\tCOUNT\tMEAN\tP50\tP90\tP99\tP99.9\tMAX")
	}
	for _, h := range hists {
		via := h.Transport
		if cells {
			via += fmt.Sprintf("\t%d", h.Cells)
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%v\t%v\t%v\t%v\t%v\t%v\n",
			h.Kind, via, h.Count,
			time.Duration(h.MeanNs), time.Duration(h.P50Ns), time.Duration(h.P90Ns),
			time.Duration(h.P99Ns), time.Duration(h.P999Ns), time.Duration(h.MaxNs))
	}
	tw.Flush()
}

// printHotKeys renders a heavy-hitter ranking — a cell's sketch unioned
// across its shards, or the fleet's across cells. Counts over-estimate by
// at most ERR.
func printHotKeys(w io.Writer, title string, keys []proto.DebugHotKey, maxHot int) {
	if len(keys) == 0 {
		return
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "\n"+title+"\tCOUNT\tERR")
	for _, hk := range keys[:min(len(keys), maxHot)] {
		fmt.Fprintf(tw, "%s\t%d\t%d\n", fmtKey(hk.Key), hk.Count, hk.Err)
	}
	tw.Flush()
}

func printDebug(w io.Writer, cur, prev *fleet.CellScrape, showTrace bool, maxHot int) {
	dbg := cur.Debug
	fmt.Fprintf(w, "\ntracing: ops=%d slow=%d slow_threshold=%v\n",
		dbg.OpsTotal, dbg.SlowTotal, time.Duration(dbg.SlowThresholdNs))
	watch := prev != nil && prev.DebugOK
	var elapsed float64
	if watch {
		elapsed = cur.At.Sub(prev.At).Seconds()
		dOps, r1 := delta(dbg.OpsTotal, prev.Debug.OpsTotal)
		dSlow, r2 := delta(dbg.SlowTotal, prev.Debug.SlowTotal)
		note := ""
		if r1 || r2 {
			note = " (tracer reset; interval clamped)"
		}
		fmt.Fprintf(w, "interval: %s ops/s, %d slow promoted%s\n", fmtRate(dOps, elapsed), dSlow, note)
	}
	printLatency(w, dbg.Hists, false)

	if len(dbg.CPU) > 0 {
		tw := newTab(w)
		if watch {
			// Per-interval attribution: CPU-ns spent per op completed in
			// the window, per component.
			fmt.Fprintln(tw, "\nCPU COMPONENT\tOPS/s\tCPU-ns/op")
			prevCPU := make(map[string]proto.DebugCPU, len(prev.Debug.CPU))
			for _, c := range prev.Debug.CPU {
				prevCPU[c.Component] = c
			}
			for _, c := range dbg.CPU {
				p := prevCPU[c.Component]
				dOps, r1 := delta(c.Ops, p.Ops)
				dNs, r2 := delta(c.TotalNs, p.TotalNs)
				if dOps == 0 || r1 || r2 {
					continue
				}
				fmt.Fprintf(tw, "%s\t%s\t%d\n", c.Component, fmtRate(dOps, elapsed), dNs/dOps)
			}
		} else {
			fmt.Fprintln(tw, "\nCPU COMPONENT\tOPS\tTOTAL CPU\tCPU-ns/op")
			for _, c := range dbg.CPU {
				perOp := uint64(0)
				if c.Ops > 0 {
					perOp = c.TotalNs / c.Ops
				}
				fmt.Fprintf(tw, "%s\t%d\t%v\t%d\n", c.Component, c.Ops, time.Duration(c.TotalNs), perOp)
			}
		}
		tw.Flush()
	}

	if len(dbg.Hazards) > 0 {
		tw := newTab(w)
		fmt.Fprintln(tw, "\nHAZARD\tINJECTIONS")
		for _, hz := range dbg.Hazards {
			fmt.Fprintf(tw, "%s\t%d\n", hz.Name, hz.Count)
		}
		tw.Flush()
	}
	if len(dbg.Health) > 0 {
		tw := newTab(w)
		fmt.Fprintln(tw, "\nREPLICA\tHEALTH\tDEMOTED")
		for _, rh := range dbg.Health {
			fmt.Fprintf(tw, "%s\t%.2f\t%v\n", rh.Addr, float64(rh.ScoreMilli)/1000, rh.Demoted)
		}
		tw.Flush()
	}

	// Key heat: the cell's heavy hitters, and the per-stripe load spread.
	printHotKeys(w, "HOT KEY", cur.HotKeys, maxHot)
	var total, hottest uint64
	for _, n := range dbg.StripeHeat {
		total, hottest = total+n, max(hottest, n)
	}
	if total > 0 {
		mean := float64(total) / float64(len(dbg.StripeHeat))
		fmt.Fprintf(w, "stripe heat: %d stripes, %d ops, hottest %.2fx mean\n",
			len(dbg.StripeHeat), total, float64(hottest)/mean)
	}

	if !showTrace {
		return
	}
	if len(dbg.SlowOps) > 0 {
		fmt.Fprintf(w, "\nslow ops (newest first):\n")
		for _, op := range dbg.SlowOps {
			printOp(w, op)
		}
	}
	if len(dbg.Exemplars) > 0 {
		fmt.Fprintf(w, "\nexemplars:\n")
		for _, op := range dbg.Exemplars {
			printOp(w, op)
		}
	}
}

// printOp renders one retained op and its span timeline, indented under
// the op header, each span as [start +dur] name(arg).
func printOp(w io.Writer, op proto.DebugOp) {
	when := ""
	if op.WallNs != 0 {
		when = " at " + time.Unix(0, op.WallNs).Format("15:04:05.000")
	}
	fmt.Fprintf(w, "  op=%d %s/%s attempts=%d latency=%v bytes=%d%s\n",
		op.ID, op.Kind, op.Transport, op.Attempts, time.Duration(op.Ns), op.Bytes, when)
	for _, sp := range op.Spans {
		fmt.Fprintf(w, "    [%8v +%8v] %s(%d)\n",
			time.Duration(sp.Start), time.Duration(sp.Dur), trace.CodeName(sp.Code), sp.Arg)
	}
}

func newTab(w io.Writer) *tabwriter.Writer { return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0) }

func fmtRate(n uint64, seconds float64) string {
	if seconds <= 0 {
		return "-"
	}
	r := float64(n) / seconds
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fk", r/1e3)
	}
	return fmt.Sprintf("%.0f", r)
}

// fmtPpm renders a parts-per-million availability objective ("999000" →
// "99.9%").
func fmtPpm(ppm uint64) string {
	return fmt.Sprintf("%g%%", float64(ppm)/1e4)
}

// fmtKey renders a possibly-binary key for terminal display.
func fmtKey(k string) string {
	for i := 0; i < len(k); i++ {
		if k[i] < 0x20 || k[i] > 0x7e {
			return fmt.Sprintf("%q", k)
		}
	}
	return k
}

func fmtBytes(n uint64) string {
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

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cmstat: "+format+"\n", args...)
	os.Exit(1)
}
