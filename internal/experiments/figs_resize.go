package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cliquemap/internal/core/cell"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/history"
	"cliquemap/internal/stats"
)

// FigResize is the online-resizing companion to Figure 13: where the
// paper's planned-maintenance figure moves one shard to a spare, this
// run changes the cell's logical shard count under mixed load. A
// 4-shard cell grows to 6 at t2 and shrinks back at t4 while a steady
// paced GET stream samples latency per interval and a concurrent writer
// keeps mutating the corpus. GET p50 should stay flat across the
// resizes (reads stay on RMA throughout; only the tail sees the config
// refreshes), RPC bytes spike during each transfer, and — the hard
// invariant — the writer's history, read back after the churn, must hold
// to a versioned register (internal/history): no acked SET is lost. A
// violation panics: that is a correctness bug, not a data point.
func FigResize() Result {
	const (
		intervals   = 6
		intervalLen = 400 * time.Millisecond
		opsPerIntvl = 600
		keyCount    = 200
	)
	c := mustCell(cell.Options{
		Shards: 4, Spares: 2, Mode: config.R32,
		Transport: cell.TransportPony,
		Backend:   smallBackend(),
	})
	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
	rec := &history.Recorder{}
	keys := preload(history.Client{C: cl, R: rec}.SetVersioned, keyCount, 1024)

	// The mixed-load writer: round-robin SETs of distinct values.
	var stop atomic.Bool
	var sets atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w := history.Client{R: rec, ID: 1, C: c.NewClient(client.Options{
			Strategy: client.StrategySCAR, Retries: 8, Budget: client.NewRetryBudget(5000, 1),
		})}
		for seq := uint64(1); !stop.Load(); seq++ {
			if _, err := w.SetVersioned(ctx, keys[seq%keyCount], []byte(fmt.Sprintf("rs%d", seq))); err == nil {
				sets.Add(1)
			}
		}
	}()

	res := Result{
		Name:  "resize",
		Title: "Online resize 4 -> 6 -> 4 shards under mixed GET/SET load",
	}
	lastBytes := c.Net.BytesSent()
	for iv := 0; iv < intervals; iv++ {
		switch iv {
		case 2:
			if err := c.Resize(ctx, 6); err != nil {
				panic(fmt.Sprintf("experiments: resize to 6: %v", err))
			}
		case 4:
			if err := c.Resize(ctx, 4); err != nil {
				panic(fmt.Sprintf("experiments: resize to 4: %v", err))
			}
		}
		var hist stats.Histogram
		start := time.Now()
		pace := intervalLen / opsPerIntvl
		driveGets(cl, keys, opsPerIntvl, pace, &hist)
		wall := time.Since(start).Seconds()
		bytes := c.Net.BytesSent()
		res.Rows = append(res.Rows, Row{
			Label: fmt.Sprintf("t%d", iv),
			Cols: append(latCols(&hist, 50, 99.9),
				Col{Name: "rpc_rate", Value: float64(bytes-lastBytes) / wall, Unit: "B/s", Noisy: true},
			),
		})
		lastBytes = bytes
	}

	stop.Store(true)
	wg.Wait()
	check := history.Client{C: c.NewClient(client.Options{Strategy: client.Strategy2xR}), R: rec, ID: 2}
	if err := check.ReadAll(ctx, c.RepairAll); err != nil {
		panic(fmt.Sprintf("experiments: resize audit: %v", err))
	}
	if vs := history.Check(rec.Ops(), 0); len(vs) > 0 { // the cell is sized to evict nothing
		panic(fmt.Sprintf("experiments: resize broke the register on %d keys; the first:\n%v", len(vs), vs[0]))
	}
	res.Notes = fmt.Sprintf("grew 4->6 at t2, shrank back at t4; %d SETs acked during churn, 0 lost", sets.Load())
	return res
}
