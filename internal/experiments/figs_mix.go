package experiments

import (
	"fmt"
	"time"

	"cliquemap/internal/core/client"
	"cliquemap/internal/stats"
	"cliquemap/internal/workload"
)

// mixRun drives a GET/SET mix at a fixed value size and returns latency
// histograms plus the modelled backend CPU the mix consumed, per wall
// second (swings with machine load) and per op issued (does not).
func mixRun(getFrac float64, valSize, ops int) (getHist, setHist *stats.Histogram, cpuPerSec, cpuUsPerOp float64) {
	c := std32()
	cl := c.NewClient(client.Options{Strategy: client.StrategySCAR})
	keys := preload(cl.SetVersioned, 200, valSize)

	mix := workload.NewMix(getFrac, 42)
	getHist = &stats.Histogram{}
	cl.M.SetLatency.Reset() // isolate the mix from preload SETs
	startCPU := c.Acct.TotalNanos("rpc-server") + c.Acct.TotalNanos("handler") + c.Acct.TotalNanos("pony")
	start := time.Now()
	for i := 0; i < ops; i++ {
		k := keys[i%len(keys)]
		if mix.NextIsGet() {
			if _, _, tr, err := cl.GetTraced(ctx, k); err == nil {
				getHist.Record(tr.Ns)
			}
		} else {
			cl.Set(ctx, k, workload.ValueGen(uint64(i%len(keys)), valSize))
		}
	}
	wall := time.Since(start).Seconds()
	endCPU := c.Acct.TotalNanos("rpc-server") + c.Acct.TotalNanos("handler") + c.Acct.TotalNanos("pony")
	cpuNs := float64(endCPU - startCPU)
	return getHist, cl.M.SetLatency.Snapshot(), cpuNs / 1e9 / wall, cpuNs / 1e3 / float64(ops)
}

// Fig18Mix regenerates Figure 18: GET and SET latencies at 5/50/95% GET
// fractions with 4KB values — more RPC-based SETs mean higher typical
// latency for the mix.
func Fig18Mix() Result {
	res := Result{
		Name:  "fig18",
		Title: "Latencies under varying GET/SET mixes (4KB values)",
	}
	for _, frac := range []float64{0.05, 0.50, 0.95} {
		g, s, _, _ := mixRun(frac, 4096, 1200)
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("%d%% GETs", int(frac*100)),
			Cols: []Col{
				{Name: "get_p50", Value: float64(g.Percentile(50)) / 1000, Unit: "us"},
				{Name: "get_p99", Value: float64(g.Percentile(99)) / 1000, Unit: "us"},
				{Name: "set_p50", Value: float64(s.Percentile(50)) / 1000, Unit: "us"},
				{Name: "set_p99", Value: float64(s.Percentile(99)) / 1000, Unit: "us"},
			},
		})
	}
	return res
}

// Fig19MixCPU regenerates Figure 19: backend CPU consumed across the same
// mixes — greater SET percentages cost more, as progressively more of the
// workload cannot use RMA. The paper's axis is CPU per wall second; the
// per-op column is the same modelled CPU over a denominator that does not
// move with machine load, and is the one the shape test holds.
func Fig19MixCPU() Result {
	res := Result{
		Name:  "fig19",
		Title: "Backend CPU cost under varying GET/SET mixes (CPU-s per wall-s, 4KB values)",
	}
	for _, frac := range []float64{0.05, 0.50, 0.95} {
		_, _, cpu, cpuPerOp := mixRun(frac, 4096, 1200)
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("%d%% GETs", int(frac*100)),
			// Modelled cpu-s over wall-s: the denominator makes it swing
			// with machine load, so benchdiff treats it as informational.
			Cols: []Col{
				{Name: "cpu", Value: cpu, Unit: "cpu-s/s", Noisy: true},
				{Name: "cpu_per_op", Value: cpuPerOp, Unit: "us"},
			},
		})
	}
	return res
}

// Fig20ValueSize regenerates Figure 20: latency across value sizes at a
// fixed GET rate — for production-typical sizes, per-op fixed costs
// dominate and latency is insensitive until sizes grow large.
func Fig20ValueSize() Result {
	res := Result{
		Name:  "fig20",
		Title: "Performance under varying value sizes (95% GETs)",
	}
	for _, sz := range []int{32, 256, 2048, 16384} {
		g, s, _, _ := mixRun(0.95, sz, 900)
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("%dB", sz),
			Cols: []Col{
				{Name: "get_p50", Value: float64(g.Percentile(50)) / 1000, Unit: "us"},
				{Name: "get_p99", Value: float64(g.Percentile(99)) / 1000, Unit: "us"},
				{Name: "set_p50", Value: float64(s.Percentile(50)) / 1000, Unit: "us"},
				{Name: "set_p99", Value: float64(s.Percentile(99)) / 1000, Unit: "us"},
			},
		})
	}
	return res
}
