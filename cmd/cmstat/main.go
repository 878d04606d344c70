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
// live view of the resources a load-wall run names as limiting. Shards
// promoting hot keys (§hot-key adaptive serving) get a PROMOTED section:
// the promotion-set epoch and current members per shard.
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
//	-prom           with -fleet: print Prometheus text exposition of the
//	                merged view instead of tables
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
	promOut := flag.Bool("prom", false, "with -fleet: emit Prometheus text exposition instead of tables")
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
		if *jsonOut {
			printJSON(&cur)
		} else {
			printTables(&cur, prev, *showTrace, *showTier, *maxHot)
		}
		if *watch <= 0 {
			return
		}
		prev = &cur
		time.Sleep(*watch)
		if !*jsonOut {
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

func printJSON(cur *fleet.CellScrape) {
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
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fatal("json encode: %v", err)
	}
}

// delta returns cur−prev for a monotonic counter, clamped at zero. A
// backend restart resets its counters to zero, so a raw uint64
// subtraction would wrap to ~2^64 and print absurd rates; a reset
// interval instead reads as zero and sets restarted so the output can
// say why.
func delta(cur, prev uint64, restarted *bool) uint64 {
	if cur < prev {
		*restarted = true
		return 0
	}
	return cur - prev
}

func printTables(cur, prev *fleet.CellScrape, showTrace, showTier bool, maxHot int) {
	cfg := cur.Config
	fmt.Printf("cell config id=%d replicas=%d quorum=%d shards=%d\n",
		cfg.ConfigID, cfg.Replicas, cfg.Quorum, len(cfg.ShardAddrs))
	if cfg.PendingShards > 0 {
		printResize(cur)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	delt := prev != nil
	var restartedShards []string
	if delt {
		fmt.Fprintln(w, "SHARD\tADDR\tKEYS\tMEMORY\tGETS/s\tSETS/s\tEVICT\tDRAINS\tMOVED\tFRAG\tREPAIRS\tREJECTS\tSKEW\tSEALED")
	} else {
		fmt.Fprintln(w, "SHARD\tADDR\tKEYS\tMEMORY\tSETS\tEVICT\tDRAINS\tMOVED\tFRAG\tTAIL\tRESIZE\tGROWS\tREPAIRS\tREJECTS\tSTRIPES\tSKEW\tSEALED")
	}
	for shard, addr := range cfg.ShardAddrs {
		st, ok := cur.Stats[addr]
		if !ok {
			fmt.Fprintf(w, "%d\t%s\t(unreachable: %s)\n", shard, addr, cur.Errors[addr])
			continue
		}
		if delt {
			elapsed := cur.At.Sub(prev.At).Seconds()
			p := prev.Stats[addr]
			restarted := false
			fmt.Fprintf(w, "%d\t%s\t%d\t%s\t%s\t%s\t%d\t%d\t%d\t%.1f%%\t%d\t%d\t%s\t%v\n",
				shard, addr, st.ResidentKeys, fmtBytes(st.MemoryBytes),
				fmtRate(delta(st.Gets, p.Gets, &restarted), elapsed),
				fmtRate(delta(st.Sets, p.Sets, &restarted), elapsed),
				delta(st.Evictions, p.Evictions, &restarted),
				delta(st.SlabDrains, p.SlabDrains, &restarted),
				delta(st.EntriesMoved, p.EntriesMoved, &restarted),
				float64(st.DataFragMilli)/10, // FRAG: allocated chunk bytes no entry asked for
				delta(st.RepairsIssued, p.RepairsIssued, &restarted),
				delta(st.VersionRejects, p.VersionRejects, &restarted),
				fmtSkew(st), fmtSeal(st))
			if restarted {
				restartedShards = append(restartedShards, addr)
			}
		} else {
			fmt.Fprintf(w, "%d\t%s\t%d\t%s\t%d\t%d\t%d\t%d\t%.1f%%\t%s\t%d\t%d\t%d\t%d\t%d\t%s\t%v\n",
				shard, addr, st.ResidentKeys, fmtBytes(st.MemoryBytes),
				st.Sets, st.Evictions, st.SlabDrains, st.EntriesMoved, float64(st.DataFragMilli)/10, fmtBytes(st.DataTailBytes),
				st.IndexResizes, st.DataGrows,
				st.RepairsIssued, st.VersionRejects, st.Stripes,
				fmtSkew(st), fmtSeal(st))
		}
	}
	w.Flush()
	if len(restartedShards) > 0 {
		fmt.Printf("note: counters reset on %s (backend restart); affected deltas clamped to zero\n",
			strings.Join(restartedShards, ", "))
	}

	printRecovery(cur)
	printSaturation(cur, prev)
	printPromoted(cur)

	if cur.TierOK && (showTier || len(cur.Tier.Cells) > 0) {
		printTier(cur.Tier)
	}
	if cur.HealthOK {
		printHealth(cur.Health)
	}
	if cur.DebugOK {
		printDebug(cur, prev, showTrace, maxHot)
	}
}

// printRecovery renders the durability plane: one row per shard with
// the age of its last durable checkpoint, the delta journal depth since
// that checkpoint, and — after a warm restart — how much of the corpus
// came back from disk and how much of it has self-validated against the
// quorum. Omitted entirely when no shard runs with a data directory.
func printRecovery(cur *fleet.CellScrape) {
	cfg := cur.Config
	any := false
	for _, addr := range cfg.ShardAddrs {
		st, ok := cur.Stats[addr]
		if ok && (st.CkptUnixNano != 0 || st.JournalRecords != 0 || st.JournalBytes != 0 ||
			st.RecoveredKeys != 0 || st.Recovering) {
			any = true
			break
		}
	}
	if !any {
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\nRECOVERY\tADDR\tCKPT EPOCH\tCKPT AGE\tJOURNAL\tJBYTES\tRECOVERED\tREPLAYED\tSELFVAL\tRECOVERING")
	for shard, addr := range cfg.ShardAddrs {
		st, ok := cur.Stats[addr]
		if !ok {
			continue
		}
		age := "-"
		if st.CkptUnixNano != 0 {
			age = cur.At.Sub(time.Unix(0, int64(st.CkptUnixNano))).Round(time.Second).String()
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%s\t%d\t%s\t%d\t%d\t%d\t%v\n",
			shard, addr, st.CkptEpoch, age,
			st.JournalRecords, fmtBytes(st.JournalBytes),
			st.RecoveredKeys, st.ReplayedRecords, st.SelfValidated, st.Recovering)
	}
	w.Flush()
}

// printSaturation renders the per-shard saturation plane: how busy each
// resource on the serving path is, so a load-wall report's "limited by X"
// can be read straight off a live cell. Gauges (worker occupancy, ρ,
// engines) are instantaneous; the queue-time columns are cumulative
// counters, so under -watch they print as queue-seconds accumulated per
// wall second over the interval — the same score the loadwall probe
// ranks resources by — with restart resets clamped to zero like every
// other counter. Omitted for cells that predate the telemetry (all
// saturation fields decode as zero).
func printSaturation(cur, prev *fleet.CellScrape) {
	cfg := cur.Config
	any := false
	for _, addr := range cfg.ShardAddrs {
		st, ok := cur.Stats[addr]
		if ok && (st.RPCWorkerLimit != 0 || st.NICEngines != 0) {
			any = true
			break
		}
	}
	if !any {
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	delt := prev != nil
	if delt {
		fmt.Fprintln(w, "\nSATURATION\tADDR\tWORKERS\tRPCρ\tQWAIT s/s\tLOCK s/s\tCONT/s\tENG\tNICρ\tNICQ s/s\tNICOPS/s")
	} else {
		fmt.Fprintln(w, "\nSATURATION\tADDR\tWORKERS\tRPCρ\tQUEUED\tQWAIT\tCONTENDED\tLOCKWAIT\tENG\tNICρ\tNICQ\tNICOPS")
	}
	var restartedShards []string
	for shard, addr := range cfg.ShardAddrs {
		st, ok := cur.Stats[addr]
		if !ok {
			continue
		}
		workers := fmt.Sprintf("%d/%d", st.RPCWorkersBusy, st.RPCWorkerLimit)
		if delt {
			elapsed := cur.At.Sub(prev.At).Seconds()
			p := prev.Stats[addr]
			restarted := false
			qwait := delta(st.RPCSubmitWaitNs, p.RPCSubmitWaitNs, &restarted) +
				delta(st.RPCQueueNs, p.RPCQueueNs, &restarted)
			lock := delta(st.StripeWaitNs, p.StripeWaitNs, &restarted)
			cont := delta(st.StripeContended, p.StripeContended, &restarted)
			nicq := delta(st.NICQueueNs, p.NICQueueNs, &restarted)
			nops := delta(st.NICOps, p.NICOps, &restarted)
			fmt.Fprintf(w, "%d\t%s\t%s\t%.2f\t%s\t%s\t%s\t%d\t%.2f\t%s\t%s\n",
				shard, addr, workers, float64(st.RPCRhoMilli)/1000,
				fmtQSec(qwait, elapsed), fmtQSec(lock, elapsed),
				fmtRate(cont, elapsed),
				st.NICEngines, float64(st.NICRhoMilli)/1000,
				fmtQSec(nicq, elapsed), fmtRate(nops, elapsed))
			if restarted {
				restartedShards = append(restartedShards, addr)
			}
		} else {
			fmt.Fprintf(w, "%d\t%s\t%s\t%.2f\t%d\t%v\t%d\t%v\t%d\t%.2f\t%v\t%d\n",
				shard, addr, workers, float64(st.RPCRhoMilli)/1000,
				st.RPCQueuedCalls,
				time.Duration(st.RPCSubmitWaitNs+st.RPCQueueNs),
				st.StripeContended, time.Duration(st.StripeWaitNs),
				st.NICEngines, float64(st.NICRhoMilli)/1000,
				time.Duration(st.NICQueueNs), st.NICOps)
		}
	}
	w.Flush()
	if len(restartedShards) > 0 {
		fmt.Printf("note: saturation counters reset on %s (backend restart); affected deltas clamped to zero\n",
			strings.Join(restartedShards, ", "))
	}
}

// printPromoted renders the hot-key promotion plane: one row per shard
// holding promoted keys, with the promotion-set epoch (bumped on every
// membership change — clients revalidate their piggybacked view against
// it) and the keys themselves. Omitted when no shard promotes (HotK
// disabled, or the workload has no stable head).
func printPromoted(cur *fleet.CellScrape) {
	cfg := cur.Config
	any := false
	for _, addr := range cfg.ShardAddrs {
		if st, ok := cur.Stats[addr]; ok && (st.HotEpoch != 0 || len(st.HotKeys) > 0) {
			any = true
			break
		}
	}
	if !any {
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "\nPROMOTED\tADDR\tEPOCH\tKEYS\tSET")
	for shard, addr := range cfg.ShardAddrs {
		st, ok := cur.Stats[addr]
		if !ok {
			continue
		}
		names := make([]string, 0, len(st.HotKeys))
		for i, k := range st.HotKeys {
			if i == 4 {
				names = append(names, fmt.Sprintf("+%d more", len(st.HotKeys)-i))
				break
			}
			names = append(names, fmtKey(string(k)))
		}
		set := strings.Join(names, " ")
		if set == "" {
			set = "-"
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%s\n", shard, addr, st.HotEpoch, len(st.HotKeys), set)
	}
	w.Flush()
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
func printTier(t proto.TierResp) {
	if len(t.Cells) == 0 {
		fmt.Printf("\ntier: cell is not part of a federation tier\n")
		return
	}
	fmt.Printf("\ntier: ring v%d, %d vnodes/unit weight, %d cells\n",
		t.RingVersion, t.Vnodes, len(t.Cells))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "CELL\tSTATE\tWEIGHT\tBASE\tOWNED\tDEMOTED")
	for _, c := range t.Cells {
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.3f\t%.1f%%\t%v\n",
			c.Name, strings.ToUpper(c.State),
			float64(c.WeightMilli)/1000, float64(c.BaseMilli)/1000,
			float64(c.OwnedPpm)/1e4, c.Demoted)
	}
	w.Flush()
}

// printResize renders an in-flight resize: the old→new shard count, how
// many old shards have sealed their handoff (sealed ≥ R−Q+1 of a cohort
// flips read authority to the pending epoch), and one row per pending
// shard with the owning backend's own view of the handoff — useful for
// spotting a resize wedged mid-shard.
func printResize(cur *fleet.CellScrape) {
	cfg := cur.Config
	sealed := 0
	for _, s := range cfg.SealedOld {
		if s {
			sealed++
		}
	}
	fmt.Printf("RESIZE in progress: %d -> %d shards, %d/%d old shards sealed\n",
		len(cfg.ShardAddrs), cfg.PendingShards, sealed, len(cfg.SealedOld))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "PENDING\tADDR\tOLD SHARD\tOLD SEALED\tBACKEND HSEAL\tBACKEND TARGET")
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
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\n", ps, addr, oldShard, oldSealed, hseal, target)
	}
	w.Flush()
}

// printHealth renders the SLO engine's evaluated state: one row per op
// class with its alert state and burn rates, then per-probe-target
// availability.
func printHealth(h proto.HealthResp) {
	fmt.Printf("\nhealth: prober rounds=%d\n", h.Rounds)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "CLASS\tSTATE\tSLO\tBURN(fast)\tBURN(slow)\tWINDOW G/B\tPROBE P50\tP99\tPAGES\tWARNS")
	for _, c := range h.Classes {
		fmt.Fprintf(w, "%s\t%s\t%s<%v\t%.2f\t%.2f\t%d/%d\t%v\t%v\t%d\t%d\n",
			c.Class, strings.ToUpper(c.State),
			fmtPpm(c.AvailabilityPpm), time.Duration(c.LatencyTargetNs),
			float64(c.FastBurnMilli)/1000, float64(c.SlowBurnMilli)/1000,
			c.WindowGood, c.WindowBad,
			time.Duration(c.ProbeP50Ns), time.Duration(c.ProbeP99Ns),
			c.Pages, c.Warns)
	}
	w.Flush()
	if len(h.Targets) > 0 {
		w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "TARGET\tPROBES\tBAD\tAVAIL")
		for _, t := range h.Targets {
			total := t.Good + t.Bad
			avail := 1.0
			if total > 0 {
				avail = float64(t.Good) / float64(total)
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%.4f\n", t.Name, total, t.Bad, avail)
		}
		w.Flush()
	}
}

// printHeat renders the key-heat telemetry: the heavy-hitter sketch
// unioned across the cell's shards (counts are over-estimates by at most
// ERR) and the per-stripe load spread.
func printHeat(hotKeys []proto.DebugHotKey, stripeHeat []uint64, maxHot int) {
	if n := len(hotKeys); n > 0 {
		if n > maxHot {
			n = maxHot
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "\nHOT KEY\tCOUNT\tERR")
		for _, hk := range hotKeys[:n] {
			fmt.Fprintf(w, "%s\t%d\t%d\n", fmtKey(hk.Key), hk.Count, hk.Err)
		}
		w.Flush()
	}
	if len(stripeHeat) > 0 {
		var total, max uint64
		for _, n := range stripeHeat {
			total += n
			if n > max {
				max = n
			}
		}
		if total > 0 {
			mean := float64(total) / float64(len(stripeHeat))
			fmt.Printf("stripe heat: %d stripes, %d ops, hottest %.2fx mean\n",
				len(stripeHeat), total, float64(max)/mean)
		}
	}
}

func printDebug(cur, prev *fleet.CellScrape, showTrace bool, maxHot int) {
	dbg := cur.Debug
	fmt.Printf("\ntracing: ops=%d slow=%d slow_threshold=%v\n",
		dbg.OpsTotal, dbg.SlowTotal, time.Duration(dbg.SlowThresholdNs))
	if prev != nil && prev.DebugOK {
		elapsed := cur.At.Sub(prev.At).Seconds()
		restarted := false
		dOps := delta(dbg.OpsTotal, prev.Debug.OpsTotal, &restarted)
		dSlow := delta(dbg.SlowTotal, prev.Debug.SlowTotal, &restarted)
		note := ""
		if restarted {
			note = " (tracer reset; interval clamped)"
		}
		fmt.Printf("interval: %s ops/s, %d slow promoted%s\n",
			fmtRate(dOps, elapsed), dSlow, note)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "KIND\tVIA\tCOUNT\tMEAN\tP50\tP90\tP99\tP99.9\tMAX")
	for _, h := range dbg.Hists {
		fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%v\t%v\t%v\t%v\t%v\n",
			h.Kind, h.Transport, h.Count,
			time.Duration(h.MeanNs), time.Duration(h.P50Ns), time.Duration(h.P90Ns),
			time.Duration(h.P99Ns), time.Duration(h.P999Ns), time.Duration(h.MaxNs))
	}
	w.Flush()

	if len(dbg.CPU) > 0 {
		w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		if prev != nil && prev.DebugOK {
			// Per-interval attribution: CPU-ns spent per op completed in
			// the window, per component.
			elapsed := cur.At.Sub(prev.At).Seconds()
			fmt.Fprintln(w, "\nCPU COMPONENT\tOPS/s\tCPU-ns/op")
			prevCPU := make(map[string]proto.DebugCPU, len(prev.Debug.CPU))
			for _, c := range prev.Debug.CPU {
				prevCPU[c.Component] = c
			}
			for _, c := range dbg.CPU {
				p := prevCPU[c.Component]
				restarted := false
				dOps := delta(c.Ops, p.Ops, &restarted)
				dNs := delta(c.TotalNs, p.TotalNs, &restarted)
				if dOps == 0 || restarted {
					continue
				}
				fmt.Fprintf(w, "%s\t%s\t%d\n", c.Component,
					fmtRate(dOps, elapsed), dNs/dOps)
			}
		} else {
			fmt.Fprintln(w, "\nCPU COMPONENT\tOPS\tTOTAL CPU\tCPU-ns/op")
			for _, c := range dbg.CPU {
				perOp := uint64(0)
				if c.Ops > 0 {
					perOp = c.TotalNs / c.Ops
				}
				fmt.Fprintf(w, "%s\t%d\t%v\t%d\n", c.Component, c.Ops,
					time.Duration(c.TotalNs), perOp)
			}
		}
		w.Flush()
	}

	if len(dbg.Hazards) > 0 {
		w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "\nHAZARD\tINJECTIONS")
		for _, hz := range dbg.Hazards {
			fmt.Fprintf(w, "%s\t%d\n", hz.Name, hz.Count)
		}
		w.Flush()
	}
	if len(dbg.Health) > 0 {
		w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "\nREPLICA\tHEALTH\tDEMOTED")
		for _, rh := range dbg.Health {
			fmt.Fprintf(w, "%s\t%.2f\t%v\n", rh.Addr, float64(rh.ScoreMilli)/1000, rh.Demoted)
		}
		w.Flush()
	}

	printHeat(cur.HotKeys, dbg.StripeHeat, maxHot)

	if !showTrace {
		return
	}
	if len(dbg.SlowOps) > 0 {
		fmt.Printf("\nslow ops (newest first):\n")
		for _, op := range dbg.SlowOps {
			printOp(op)
		}
	}
	if len(dbg.Exemplars) > 0 {
		fmt.Printf("\nexemplars:\n")
		for _, op := range dbg.Exemplars {
			printOp(op)
		}
	}
}

// printOp renders one retained op and its span timeline, indented under
// the op header, each span as [start +dur] name(arg).
func printOp(op proto.DebugOp) {
	when := ""
	if op.WallNs != 0 {
		when = " at " + time.Unix(0, op.WallNs).Format("15:04:05.000")
	}
	fmt.Printf("  op=%d %s/%s attempts=%d latency=%v bytes=%d%s\n",
		op.ID, op.Kind, op.Transport, op.Attempts, time.Duration(op.Ns), op.Bytes, when)
	for _, sp := range op.Spans {
		fmt.Printf("    [%8v +%8v] %s(%d)\n",
			time.Duration(sp.Start), time.Duration(sp.Dur), trace.CodeName(sp.Code), sp.Arg)
	}
}

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
	clean := true
	for i := 0; i < len(k); i++ {
		if k[i] < 0x20 || k[i] > 0x7e {
			clean = false
			break
		}
	}
	if clean {
		return k
	}
	return fmt.Sprintf("%q", k)
}

// fmtSeal renders the two independent seals on a backend: the corpus
// seal (R2Immutable mode) and the handoff seal (a shard migration is
// draining its journal; mutations bounce until the seal lifts).
func fmtSeal(st proto.StatsResp) string {
	switch {
	case st.Sealed && st.HandoffSealed:
		return "corpus+handoff"
	case st.Sealed:
		return "corpus"
	case st.HandoffSealed:
		return "handoff"
	}
	return "-"
}

// fmtSkew renders the busiest stripe's op count relative to the mean
// stripe (1.00 = perfectly even load; nStripes = everything on one
// stripe). High skew means the bucket-stripe locks are degenerating
// toward a global lock for this workload.
func fmtSkew(st proto.StatsResp) string {
	if st.Stripes == 0 || st.StripeTotalOps == 0 {
		return "-"
	}
	mean := float64(st.StripeTotalOps) / float64(st.Stripes)
	return fmt.Sprintf("%.2f", float64(st.StripeMaxOps)/mean)
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
