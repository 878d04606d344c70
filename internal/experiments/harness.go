package experiments

import (
	"context"
	"fmt"
	"time"

	"cliquemap/internal/core/backend"
	"cliquemap/internal/core/cell"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/layout"
	"cliquemap/internal/drive"
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
		start := time.Now()
		r := drive.Run(ctx, nil, drive.Group{Ops: opsPerIntvl, Pace: intervalLen / opsPerIntvl, Worker: gets(cl, keys)})
		wall := time.Since(start).Seconds()
		bytes := c.Net.BytesSent()
		rows = append(rows, Row{
			Label: fmt.Sprintf("t%d", iv),
			Cols: append(latCols(&r.Service, 50, 99.9),
				Col{Name: "rpc_rate", Value: float64(bytes-lastBytes) / wall, Unit: "B/s", Noisy: true},
			),
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
