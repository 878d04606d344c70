package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/cell"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/drive"
	"cliquemap/internal/fabric"
	"cliquemap/internal/stats"
	"cliquemap/internal/truetime"
	"cliquemap/internal/workload"
)

// ctx is the shared experiment context.
var ctx = context.Background()

// smallBackend is the common backend template for controlled experiments:
// enough headroom that the workload, not allocator pressure, dominates.
func smallBackend() backend.Options {
	return backend.Options{
		Geometry:       layout.Geometry{Buckets: 512, Ways: layout.DefaultWays},
		DataBytes:      8 << 20,
		DataMaxBytes:   64 << 20,
		SlabBytes:      256 << 10,
		ReshapeEnabled: true,
	}
}

// mustCell builds a cell or panics (experiments are programs, not servers).
func mustCell(opt cell.Options) *cell.Cell {
	c, err := cell.New(opt)
	if err != nil {
		panic(fmt.Sprintf("experiments: building cell: %v", err))
	}
	return c
}

// std32 is the default controlled-experiment cell: 3 backends R=3.2 over
// Pony Express.
func std32() *cell.Cell {
	return mustCell(cell.Options{
		Shards: 3, Spares: 1, Mode: config.R32,
		Transport: cell.TransportPony,
		Backend:   smallBackend(),
	})
}

// preload installs n keys of fixed value size through set and returns them.
func preload(set func(ctx context.Context, key, value []byte) (truetime.Version, error), n, valSize int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(workload.Key(uint64(i)))
		if _, err := set(ctx, keys[i], workload.ValueGen(uint64(i), valSize)); err != nil {
			panic(fmt.Sprintf("experiments: preload set: %v", err))
		}
	}
	return keys
}

// gets builds a drive worker that GETs keys round-robin on cl and reports
// each op's modelled latency.
func gets(cl *client.Client, keys [][]byte) func(int) drive.Op {
	return func(int) drive.Op {
		return func(i int) (uint64, error) {
			_, _, tr, err := cl.GetTraced(ctx, keys[i%len(keys)])
			return tr.Ns, err
		}
	}
}

// intervalRows drives six 400 ms intervals of 600 paced GETs on cl and
// renders one row per interval, t0 to t5: GET p50 and p99.9 and the cell's
// RPC byte rate. event(iv) runs before interval iv.
func intervalRows(c *cell.Cell, cl *client.Client, keys [][]byte, event func(iv int)) []Row {
	const (
		intervals   = 6
		intervalLen = 400 * time.Millisecond
		opsPerIntvl = 600
	)
	var rows []Row
	lastBytes := c.Net.BytesSent()
	for iv := 0; iv < intervals; iv++ {
		event(iv)
		start, w := time.Now(), watchWeather(c.Fabric)
		r := drive.Run(ctx, nil, drive.Group{Ops: opsPerIntvl, Pace: intervalLen / opsPerIntvl, Worker: gets(cl, keys)})
		wall := time.Since(start).Seconds()
		bytes := c.Net.BytesSent()
		rows = append(rows, Row{
			Label: fmt.Sprintf("t%d", iv),
			Cols: append(latCols(&r.Service, 50, 99.9),
				Col{Name: "rpc_rate", Value: float64(bytes-lastBytes) / wall, Unit: "B/s", Noisy: true},
			),
			weather: w.done(),
		})
		lastBytes = bytes
	}
	return rows
}

// latCols renders the standard latency percentile columns in µs.
func latCols(h *stats.Histogram, ps ...float64) []Col {
	if len(ps) == 0 {
		ps = []float64{50, 99}
	}
	cols := make([]Col, 0, len(ps))
	for _, p := range ps {
		cols = append(cols, Col{
			Name:  fmt.Sprintf("p%g", p),
			Value: float64(h.Percentile(p)) / 1000,
			Unit:  "us",
		})
	}
	return cols
}

// weather is what a row's run looked like from outside the model: the
// stall share its cell's fabric billed over the row (fabric.Host.StallNs,
// summed over hosts) and the p99 of the Go runtime's GC pauses and
// goroutine scheduling latencies over the same span. A shape test prints
// it beside a failing row, so a tail that is the machine's and not the
// model's says so. A load-wall row adds its floor step's worst generator
// lag (loadwall.StepResult.MaxLagNs): a timetable sleep that overshoots
// pages the floor step while the scheduling p99 stays low.
type weather struct {
	stallNs         uint64
	gcP99, schedP99 float64 // seconds
	floorLagNs      uint64  // a load-wall row's; 0 elsewhere
}

func (w weather) String() string {
	lag := ""
	if w.floorLagNs > 0 {
		lag = fmt.Sprintf(", floor-step generator lag max %.0fus", float64(w.floorLagNs)/1e3)
	}
	return fmt.Sprintf("[stall share %.1fus, GC pause p99 %.0fus, sched latency p99 %.0fus%s]",
		float64(w.stallNs)/1e3, w.gcP99*1e6, w.schedP99*1e6, lag)
}

// weatherWatch is a weather reading in progress: the fabric's stall share
// and the runtime's histograms at its start.
type weatherWatch struct {
	f       *fabric.Fabric
	stallNs uint64
	samples [2]metrics.Sample
}

// watchWeather starts a weather reading over f.
func watchWeather(f *fabric.Fabric) *weatherWatch {
	w := &weatherWatch{f: f, stallNs: stallNs(f)}
	w.samples[0].Name, w.samples[1].Name = "/gc/pauses:seconds", "/sched/latencies:seconds"
	metrics.Read(w.samples[:])
	return w
}

// done ends the reading: the stall share billed and the p99s of what the
// runtime histograms gained since watchWeather.
func (w *weatherWatch) done() weather {
	var now [2]metrics.Sample // fresh: Read may reuse a sample's histogram
	now[0].Name, now[1].Name = w.samples[0].Name, w.samples[1].Name
	metrics.Read(now[:])
	return weather{
		stallNs:  stallNs(w.f) - w.stallNs,
		gcP99:    histP99(w.samples[0].Value, now[0].Value),
		schedP99: histP99(w.samples[1].Value, now[1].Value),
	}
}

// stallNs sums f's hosts' stall shares.
func stallNs(f *fabric.Fabric) (ns uint64) {
	for i := 0; i < f.NumHosts(); i++ {
		ns += f.Host(i).StallNs()
	}
	return ns
}

// histP99 is the p99 of the counts b gained over a, as the upper bound of
// the bucket holding it (its lower bound for the open top bucket); 0 with
// no counts or when the metric is unsupported.
func histP99(a, b metrics.Value) float64 {
	if a.Kind() != metrics.KindFloat64Histogram || b.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Float64Histogram(), b.Float64Histogram()
	var total uint64
	for i := range hb.Counts {
		total += hb.Counts[i] - ha.Counts[i]
	}
	var seen uint64
	for i := range hb.Counts {
		if seen += hb.Counts[i] - ha.Counts[i]; total > 0 && seen*100 >= total*99 {
			if up := hb.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return hb.Buckets[i]
		}
	}
	return 0
}
