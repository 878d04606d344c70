package experiments

import (
	"fmt"
	"os"

	"cliquemap/internal/core/cell"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/drive"
	"cliquemap/internal/hashring"
)

// Fig11Preferred regenerates Figure 11: preferred-backend selection under
// a single overloaded server. A 3-backend R=3.2 cell and an R=1 baseline
// repeatedly GET one 4KB pair while an antagonist drives ~95% of one
// backend host's NIC. R=3.2's quorum ignores the slow replica; R=1 has no
// choice. Values are normalized to each mode's no-load latency.
func Fig11Preferred() Result {
	const ops = 800
	run := func(mode config.Mode, load bool) (p50, p99 float64) {
		c := mustCell(cell.Options{
			Shards: 3, Mode: mode, Transport: cell.TransportPony,
			Backend: smallBackend(),
		})
		cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
		keys := preload(cl.SetVersioned, 1, 4096)
		if load {
			// Load the host of the key's primary replica so R=1 cannot
			// avoid it.
			c.SetAntagonist(primaryShardOf(c, keys[0]), 0.95)
		}
		hist := &drive.Run(ctx, nil, drive.Group{Ops: ops, Worker: gets(cl, keys)}).Service
		return float64(hist.Percentile(50)), float64(hist.Percentile(99))
	}

	res := Result{
		Name:  "fig11",
		Title: "Preferred backend selection under server host load (normalized to no-load)",
		Notes: "R=3.2 tolerates a single slow server; R=1 is obliged to use it (§7.2.1)",
	}
	for _, mode := range []config.Mode{config.R32, config.R1} {
		base50, base99 := run(mode, false)
		load50, load99 := run(mode, true)
		for _, v := range []struct {
			label    string
			p50, p99 float64
		}{
			{fmt.Sprintf("%s no-load", mode), 1, 1},
			{fmt.Sprintf("%s loaded", mode), load50 / base50, load99 / base99},
		} {
			res.Rows = append(res.Rows, Row{
				Label: v.label,
				Cols: []Col{
					{Name: "p50_norm", Value: v.p50, Unit: "x"},
					{Name: "p99_norm", Value: v.p99, Unit: "x"},
				},
			})
		}
	}
	return res
}

// primaryShardOf recovers the primary shard of a key in a cell; clients
// and backends share hashring.DefaultHash.
func primaryShardOf(c *cell.Cell, key []byte) int {
	cfg := c.Store.Get()
	return int(hashring.DefaultHash(key).Hi % uint64(cfg.Shards))
}

// maintenanceRun drives a steady GET load while an event (planned or
// unplanned maintenance) is injected mid-run, sampling latency and RPC
// byte rates per interval — Figures 13 and 14.
func maintenanceRun(name, title string, inject func(c *cell.Cell, interval int)) Result {
	c := mustCell(cell.Options{
		Shards: 3, Spares: 1, Mode: config.R32,
		Transport: cell.TransportPony,
		Backend:   smallBackend(),
	})
	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
	keys := preload(cl.SetVersioned, 200, 1024)
	return Result{Name: name, Title: title, Rows: intervalRows(c, cl, keys, func(iv int) { inject(c, iv) })}
}

// Fig13Planned regenerates Figure 13: planned maintenance hidden by warm
// spares. The shard migrates at t2 and returns at t4; client latency
// barely moves while RPC bytes spike during each transfer.
func Fig13Planned() Result {
	var primaryAddr string
	return maintenanceRun("fig13",
		"Planned maintenance via spares under steady GET load",
		func(c *cell.Cell, iv int) {
			switch iv {
			case 2:
				primaryAddr = c.Store.Get().AddrFor(1)
				if _, err := c.PlannedMaintenance(ctx, 1); err != nil {
					panic(err)
				}
			case 4:
				if err := c.CompleteMaintenance(ctx, 1, primaryAddr); err != nil {
					panic(err)
				}
			}
		})
}

// Fig14Unplanned regenerates Figure 14: a forced crash at t2, restart and
// repair burst at t3. Latency stays nominal (quorum masks the loss; the
// repair traffic shows up as an RPC byte burst).
func Fig14Unplanned() Result {
	return maintenanceRun("fig14",
		"Unplanned crash with post-restart repairs under steady GET load",
		func(c *cell.Cell, iv int) {
			switch iv {
			case 2:
				c.Crash(1)
			case 3:
				if err := c.Restart(ctx, 1); err != nil {
					panic(err)
				}
			}
		})
}

// FigWarmRestart is the Figure-14 scenario re-run with durable warm
// restarts: the crashed task recovers its corpus from checkpoint+journal
// instead of arriving empty and repair-bound. Each variant preloads, force
// crashes a replica, restarts it, and then — BEFORE any repair runs —
// probes the restarted replica directly for every pre-crash key. The warm
// task serves essentially the whole corpus from its own disk lineage
// (journal-replay-bound recovery), so the subsequent self-validation sweep
// finds almost nothing to push; the cold task must re-learn every key from
// its cohort (repair-bound recovery).
func FigWarmRestart() Result {
	const keyCount = 400
	run := func(dataDir string) (servedFrac float64, repairs, recovered uint64) {
		c := mustCell(cell.Options{
			Shards: 3, Spares: 1, Mode: config.R32,
			Transport: cell.TransportPony,
			Backend:   smallBackend(),
			DataDir:   dataDir,
		})
		cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
		keys := preload(cl.SetVersioned, keyCount, 1024)

		c.Crash(1)
		if _, err := c.RestartBegin(1); err != nil {
			panic(err)
		}
		// Per-replica probe inside the recovery window: what can the
		// restarted task serve before a single repair has run? A bounced
		// miss (the recovering guard) counts as not-served.
		addr := c.Store.Get().AddrFor(1)
		probe := c.Net.Client(c.Fabric.NumHosts()-1, "warm-probe")
		served := 0
		for _, k := range keys {
			resp, _, err := probe.Call(ctx, addr, proto.MethodGet, proto.GetReq{Key: k}.Marshal())
			if err != nil {
				continue
			}
			if g, gerr := proto.UnmarshalGetResp(resp); gerr == nil && g.Found {
				served++
			}
		}
		before := c.AggregateCounters().RepairsIssued
		if err := c.RestartComplete(ctx, 1); err != nil {
			panic(err)
		}
		repairs = c.AggregateCounters().RepairsIssued - before
		recovered = c.Backend(1).RecoveryStatsSnapshot().RecoveredKeys
		return float64(served) / float64(len(keys)), repairs, recovered
	}

	coldFrac, coldRepairs, _ := run("")
	warmDir, err := os.MkdirTemp("", "cmwarm-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(warmDir)
	warmFrac, warmRepairs, warmRecovered := run(warmDir)

	return Result{
		Name:  "fig14warm",
		Title: "Unplanned crash: cold (repair-bound) vs durable warm restart (journal-replay-bound)",
		Notes: "pre-repair corpus served by the restarted replica itself; repairs = keys its cohort had to push afterward",
		Rows: []Row{
			{Label: "cold-restart", Cols: []Col{
				{Name: "precrash_served", Value: coldFrac * 100, Unit: "%"},
				{Name: "repairs", Value: float64(coldRepairs), Unit: ""},
				{Name: "recovered_from_disk", Value: 0, Unit: ""},
			}},
			{Label: "warm-restart", Cols: []Col{
				{Name: "precrash_served", Value: warmFrac * 100, Unit: "%"},
				{Name: "repairs", Value: float64(warmRepairs), Unit: ""},
				{Name: "recovered_from_disk", Value: float64(warmRecovered), Unit: ""},
			}},
		},
	}
}
