package experiments

import (
	"context"

	"cliquemap/internal/core/cell"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/drive"
	"cliquemap/internal/shim"
	"cliquemap/internal/stats"
)

// clientStore adapts the CliqueMap client to the shim's Store interface —
// the primary client library living inside the shim subprocess.
type clientStore struct{ cl *client.Client }

func (s clientStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	return s.cl.Get(ctx, key)
}
func (s clientStore) Set(ctx context.Context, key, value []byte) error {
	return s.cl.Set(ctx, key, value)
}
func (s clientStore) Erase(ctx context.Context, key []byte) error { return s.cl.Erase(ctx, key) }

// Fig6Languages regenerates Figure 6: GET op rate (a), CPU-µs/op (b), and
// median op latency (c) by client language. cpp is the native client;
// java/go/py run through the real pipe shim with calibrated per-language
// costs (§6.2: 64B objects, random keys).
func Fig6Languages() Result {
	const (
		keys = 300
		ops  = 1500
	)
	res := Result{
		Name:  "fig6",
		Title: "Performance by client language (64B objects)",
		Notes: "cpp native; others via subprocess shim over OS pipes (§6.2)",
	}

	for _, prof := range shim.Profiles() {
		c := std32()
		cl := c.NewClient(client.Options{Strategy: client.StrategySCAR})
		kk := preload(cl.SetVersioned, keys, 64)

		var hist *stats.Histogram
		var cpuNs float64

		if !prof.PipeHop {
			// Native path: the client library directly.
			hist = &drive.Run(ctx, nil, drive.Group{Ops: ops, Worker: gets(cl, kk)}).Service
			cpuNs = c.Acct.PerOpNanos("client")
		} else {
			ip, err := shim.NewInProcess(ctx, clientStore{cl: cl}, prof, c.Acct)
			if err != nil {
				panic(err)
			}
			hist = &drive.Run(ctx, nil, drive.Group{Ops: ops, Worker: func(int) drive.Op {
				return func(i int) (uint64, error) {
					_, _, shimNs, err := ip.Client.Get(kk[i%len(kk)])
					// Op latency = native op latency + the shim hop.
					return cl.M.GetLatency.Percentile(50) + shimNs, err
				}
			}}).Service
			ip.Close()
			cpuNs = c.Acct.PerOpNanos("client") + c.Acct.PerOpNanos("shim-"+prof.Name)
		}

		// Throughput is CPU-bound per client: ops/sec = 1e9 / CPU-ns.
		rate := 0.0
		if cpuNs > 0 {
			rate = 1e9 / cpuNs
		}
		res.Rows = append(res.Rows, Row{
			Label: prof.Name,
			Cols: []Col{
				{Name: "op_rate", Value: rate, Unit: "ops/s", Noisy: true},
				{Name: "cpu/op", Value: cpuNs / 1000, Unit: "us"},
				{Name: "p50_lat", Value: float64(hist.Percentile(50)) / 1000, Unit: "us"},
			},
		})
	}
	return res
}

// Fig7LookupCPU regenerates Figure 7: CliqueMap-client and Pony Express
// CPU per GET under 2×R, SCAR, and two-sided messaging. SCAR roughly
// halves pony CPU versus 2×R; MSG's thread wakeups dwarf both.
func Fig7LookupCPU() Result {
	const (
		keys = 200
		ops  = 2000
	)
	res := Result{
		Name:  "fig7",
		Title: "Client and Pony Express CPU efficiency by lookup strategy (CPU-ns/op)",
	}
	for _, strat := range []client.Strategy{client.Strategy2xR, client.StrategySCAR, client.StrategyMSG} {
		c := mustCell(cell.Options{
			Shards: 3, Mode: config.R1, // single replica isolates per-op cost
			Transport: cell.TransportPony,
			Backend:   smallBackend(),
		})
		cl := c.NewClient(client.Options{Strategy: strat})
		kk := preload(cl.SetVersioned, keys, 64)
		// Per-op accounting: divide total CPU by completed GETs.
		startClient := c.Acct.TotalNanos("client")
		startPony := c.Acct.TotalNanos("pony")
		r := drive.Run(ctx, nil, drive.Group{Ops: ops, Worker: gets(cl, kk)})
		done := max(r.Ops-r.Errors, 1)
		clientNs := float64(c.Acct.TotalNanos("client")-startClient) / float64(done)
		ponyNs := float64(c.Acct.TotalNanos("pony")-startPony) / float64(done)
		res.Rows = append(res.Rows, Row{
			Label: strat.String(),
			Cols: []Col{
				{Name: "client", Value: clientNs, Unit: "ns"},
				{Name: "pony", Value: ponyNs, Unit: "ns"},
			},
		})
	}
	return res
}
