// Command cmcell runs a CliqueMap cell under synthetic load and reports
// client- and backend-side statistics — a quick operational smoke test of
// the whole stack.
//
// Telemetry flags:
//
//	-listen addr   serve the cell's RPC surface on a TCP socket, so
//	               cmstat (and any rpc.DialTCP caller) can inspect it
//	-http addr     serve HTTP observability: GET /metrics returns
//	               Prometheus text exposition of the cell's own telemetry
//	               scrape — what cmstat -prom renders remotely: the
//	               op-tracing plane (latency summaries per kind/transport,
//	               slow-op counters, CPU accounts), the health plane's SLO
//	               burn-rate and alert-state gauges, and one family per
//	               per-task column cmstat tabulates (op counters, data
//	               region, durability, RPC / stripe-lock / NIC saturation);
//	               /debug/pprof/* exposes the standard Go profiling
//	               endpoints
//	-probes n      spread n E2E prober rounds across the run (default
//	               50; 0 disables). Each round sweeps every transport
//	               strategy with the full GET/SET/CAS/ERASE canary mix
//	               and re-evaluates the SLO alert state machine.
//
// When either is set, cmcell keeps serving after the workload finishes
// until interrupted.
//
// Usage:
//
//	cmcell -shards 5 -spares 1 -mode r32 -strategy scar \
//	       -keys 2000 -ops 20000 -getfrac 0.95 -valsize 1024 \
//	       -maintain -crash -resize 7 -listen 127.0.0.1:7070 -http 127.0.0.1:7071
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"cliquemap"
	"cliquemap/internal/chaos"
	"cliquemap/internal/health"
	"cliquemap/internal/workload"
)

func main() {
	shards := flag.Int("shards", 3, "backend count")
	spares := flag.Int("spares", 1, "warm spare count")
	mode := flag.String("mode", "r32", "replication: r1, r2, r32")
	strategy := flag.String("strategy", "scar", "lookup: 2xr, scar, msg, rpc")
	transport := flag.String("transport", "pony", "rma transport: pony, 1rma")
	keys := flag.Int("keys", 1000, "corpus size")
	ops := flag.Int("ops", 10000, "operations to run")
	getFrac := flag.Float64("getfrac", 0.95, "GET fraction of the mix")
	valSize := flag.Int("valsize", 1024, "value size in bytes")
	zipf := flag.Float64("zipf", 1.1, "key popularity skew (<=1 for uniform)")
	evict := flag.String("evict", "lru", "eviction policy: lru, arc, clock, slfu")
	maintain := flag.Bool("maintain", false, "inject a planned maintenance mid-run")
	crash := flag.Bool("crash", false, "inject a crash + restart mid-run")
	resizeTo := flag.Int("resize", 0, "resize the cell to this shard count at 1/4 of the run and back at 3/4 (0 disables; needs enough spares to grow)")
	chaosPreset := flag.String("chaos", "", "run a chaos schedule during the workload: "+strings.Join(chaos.Presets(), ", "))
	chaosSeed := flag.Uint64("chaosseed", 1, "chaos schedule seed (same seed = same schedule)")
	dataDir := flag.String("data", "", "durable warm-restart directory: journal + checkpoint each task's corpus here and recover it on startup")
	listen := flag.String("listen", "", "also serve the RPC surface on this TCP address (e.g. 127.0.0.1:7070)")
	httpAddr := flag.String("http", "", "serve /metrics (Prometheus text) and /debug/pprof on this address")
	probeRounds := flag.Int("probes", 50, "E2E prober rounds spread across the run (0 disables)")
	flag.Parse()

	opt := cliquemap.Options{Shards: *shards, Spares: *spares, Eviction: *evict, DataDir: *dataDir}
	switch *mode {
	case "r1":
		opt.Mode = cliquemap.R1
	case "r2":
		opt.Mode = cliquemap.R2Immutable
	case "r32":
		opt.Mode = cliquemap.R32
	default:
		fatal("unknown mode %q", *mode)
	}
	switch *transport {
	case "pony":
		opt.Transport = cliquemap.PonyExpress
	case "1rma":
		opt.Transport = cliquemap.OneRMA
	default:
		fatal("unknown transport %q", *transport)
	}

	var strat cliquemap.Strategy
	switch *strategy {
	case "2xr":
		strat = cliquemap.Lookup2xR
	case "scar":
		strat = cliquemap.LookupSCAR
	case "msg":
		strat = cliquemap.LookupMSG
	case "rpc":
		strat = cliquemap.LookupRPC
	default:
		fatal("unknown strategy %q", *strategy)
	}

	cell, err := cliquemap.NewCell(opt)
	if err != nil {
		fatal("building cell: %v", err)
	}
	cl := cell.NewClient(cliquemap.ClientOptions{Strategy: strat, TouchBatch: 64})
	ctx := context.Background()

	fmt.Printf("cmcell: %d shards + %d spares, %s, %s lookups over %s\n",
		*shards, *spares, *mode, *strategy, *transport)
	if *dataDir != "" {
		if n := cell.RecoveredKeys(); n > 0 {
			fmt.Printf("warm restart: recovered %d keys from %s\n", n, *dataDir)
		} else {
			fmt.Printf("durable restarts enabled: journaling to %s (nothing to recover)\n", *dataDir)
		}
	}

	if *listen != "" {
		gw, gerr := cell.ServeTCP(*listen)
		if gerr != nil {
			fatal("tcp gateway: %v", gerr)
		}
		defer gw.Close()
		fmt.Printf("RPC surface on tcp://%s (rpc.DialTCP + proto schemas)\n", *listen)
	}

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			writeMetrics(w, cell)
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if herr := http.ListenAndServe(*httpAddr, mux); herr != nil {
				fmt.Fprintf(os.Stderr, "cmcell: http: %v\n", herr)
			}
		}()
		fmt.Printf("metrics on http://%s/metrics, profiles on /debug/pprof\n", *httpAddr)
	}

	// Preload.
	start := time.Now()
	for i := 0; i < *keys; i++ {
		if err := cl.Set(ctx, []byte(workload.Key(uint64(i))), workload.ValueGen(uint64(i), *valSize)); err != nil {
			fatal("preload: %v", err)
		}
	}
	fmt.Printf("preloaded %d keys (%dB values) in %v\n", *keys, *valSize, time.Since(start).Round(time.Millisecond))

	var kg workload.KeyGen
	if *zipf > 1 {
		kg = workload.NewZipfKeys(uint64(*keys), *zipf, 1)
	} else {
		kg = workload.NewUniformKeys(uint64(*keys), 1)
	}
	mix := workload.NewMix(*getFrac, 2)

	// Chaos schedule: step the engine at evenly-spaced points in the run
	// so every event (and its heal) lands inside the workload window.
	var eng *chaos.Engine
	chaosEvery := 0
	if *chaosPreset != "" {
		eng, err = cell.ChaosEngine(*chaosPreset, *chaosSeed)
		if err != nil {
			fatal("chaos: %v", err)
		}
		chaosEvery = *ops / (eng.Steps() + 1)
		if chaosEvery == 0 {
			chaosEvery = 1
		}
		fmt.Printf("chaos: preset %q seed %d, %d steps (every %d ops)\n",
			*chaosPreset, *chaosSeed, eng.Steps(), chaosEvery)
	}

	// E2E probers: canary rounds interleave with the workload so the
	// health plane sees the cell exactly as chaos leaves it.
	var prober *health.Prober
	probeEvery := 0
	if *probeRounds > 0 {
		prober = cell.Prober()
		probeEvery = *ops / *probeRounds
		if probeEvery == 0 {
			probeEvery = 1
		}
		fmt.Printf("probers: targets %v, one round every %d ops\n", prober.Targets(), probeEvery)
	}

	start = time.Now()
	for i := 0; i < *ops; i++ {
		if prober != nil && i%probeEvery == 0 {
			prober.Round(ctx)
		}
		if eng != nil && !eng.Done() && i > 0 && i%chaosEvery == 0 {
			if _, serr := eng.Step(ctx); serr != nil {
				fmt.Fprintf(os.Stderr, "chaos step: %v\n", serr)
			}
		}
		if *resizeTo > 0 && i == *ops/4 {
			if err := cell.Resize(ctx, *resizeTo); err != nil {
				fatal("resize: %v", err)
			}
			fmt.Printf("t+%v resized cell %d -> %d shards online\n",
				time.Since(start).Round(time.Millisecond), *shards, *resizeTo)
		}
		if *resizeTo > 0 && i == 3**ops/4 {
			if err := cell.Resize(ctx, *shards); err != nil {
				fatal("resize back: %v", err)
			}
			fmt.Printf("t+%v resized cell %d -> %d shards online\n",
				time.Since(start).Round(time.Millisecond), *resizeTo, *shards)
		}
		if *maintain && i == *ops/3 {
			primary := cell.Internal().Store.Get().AddrFor(0)
			if _, err := cell.PlannedMaintenance(ctx, 0); err != nil {
				fatal("maintenance: %v", err)
			}
			fmt.Printf("t+%v planned maintenance: shard 0 -> spare (primary was %s)\n",
				time.Since(start).Round(time.Millisecond), primary)
		}
		if *crash && i == *ops/2 {
			cell.Crash(1)
			fmt.Printf("t+%v crashed shard 1\n", time.Since(start).Round(time.Millisecond))
		}
		if *crash && i == 2**ops/3 {
			if err := cell.Restart(ctx, 1); err != nil {
				fatal("restart: %v", err)
			}
			fmt.Printf("t+%v restarted shard 1 (repairs ran)\n", time.Since(start).Round(time.Millisecond))
		}
		k := []byte(workload.Key(kg.Next()))
		if mix.NextIsGet() {
			if _, _, err := cl.Get(ctx, k); err != nil {
				fmt.Fprintf(os.Stderr, "get %s: %v\n", k, err)
			}
		} else {
			if err := cl.Set(ctx, k, workload.ValueGen(1, *valSize)); err != nil {
				fmt.Fprintf(os.Stderr, "set %s: %v\n", k, err)
			}
		}
	}
	wall := time.Since(start)

	if eng != nil {
		// Heal whatever is still injected, then repair and report.
		if herr := eng.HealAll(ctx); herr != nil {
			fmt.Fprintf(os.Stderr, "chaos heal: %v\n", herr)
		}
		if n, rerr := cell.RepairAll(ctx); rerr == nil {
			fmt.Printf("chaos healed; post-fault repair issued %d repairs\n", n)
		}
		counters := eng.Counters()
		names := make([]string, 0, len(counters))
		for name := range counters {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Printf("chaos injections:")
		for _, name := range names {
			fmt.Printf(" %s=%d", name, counters[name])
		}
		fmt.Println()
	}

	cs := cl.Stats()
	fmt.Printf("\n%d ops in %v (%.0f ops/s real)\n", *ops, wall.Round(time.Millisecond), float64(*ops)/wall.Seconds())
	fmt.Printf("client: gets=%d hits=%d misses=%d sets=%d retries=%d rpc_fallbacks=%d hedges=%d failovers=%d budget_denied=%d\n",
		cs.Gets, cs.Hits, cs.Misses, cs.Sets, cs.Retries, cs.RPCFallbacks, cs.Hedges, cs.Failovers, cs.BudgetDenied)
	fmt.Printf("modelled GET latency: p50=%v p99=%v\n", cs.GetP50, cs.GetP99)
	fmt.Printf("cell: %v\n", cell.Stats())
	tr := cell.Tracer()
	fmt.Printf("tracing: ops=%d slow=%d threshold=%v\n",
		tr.Ops(), tr.SlowOpsSeen(), time.Duration(tr.SlowThreshold()))
	if prober != nil {
		prober.Round(ctx) // one post-heal round so the final state is current
		snap := cell.Health().Evaluate()
		fmt.Printf("health: worst=%s rounds=%d\n", snap.Worst(), snap.Rounds)
		for _, hc := range snap.Classes {
			fmt.Printf("  %-5s %-4s burn fast=%.2f slow=%.2f probes good=%d bad=%d p50=%v p99=%v pages=%d warns=%d\n",
				hc.Class, hc.State, hc.FastBurn, hc.SlowBurn, hc.Good, hc.Bad,
				time.Duration(hc.ProbeP50Ns), time.Duration(hc.ProbeP99Ns), hc.Pages, hc.Warns)
		}
	}

	if *listen != "" || *httpAddr != "" {
		fmt.Println("serving until interrupt (ctrl-c)...")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
	}
}

// writeMetrics renders the /metrics page: the cell's own scrape through
// the one exposition writer cmstat -prom uses on a remote one.
func writeMetrics(w io.Writer, cell *cliquemap.Cell) {
	cs := cell.Internal().Scrape(time.Now())
	cs.WriteProm(w)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "cmcell: "+format+"\n", args...)
	os.Exit(1)
}
