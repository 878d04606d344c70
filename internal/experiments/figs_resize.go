package experiments

import (
	"fmt"

	"cliquemap/internal/core/cell"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/drive"
	"cliquemap/internal/history"
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
	const keyCount = 200
	c := mustCell(cell.Options{
		Shards: 4, Spares: 2, Mode: config.R32,
		Transport: cell.TransportPony,
		Backend:   smallBackend(),
	})
	cl := c.NewClient(client.Options{Strategy: client.Strategy2xR})
	rec := &history.Recorder{}
	keys := preload(history.Client{C: cl, R: rec}.SetVersioned, keyCount, 1024)

	res := Result{
		Name:  "resize",
		Title: "Online resize 4 -> 6 -> 4 shards under mixed GET/SET load",
	}
	resize := func(iv int) {
		n := map[int]int{2: 6, 4: 4}[iv]
		if n == 0 {
			return
		}
		if err := c.Resize(ctx, n); err != nil {
			panic(fmt.Sprintf("experiments: resize to %d: %v", n, err))
		}
	}
	// The mixed-load writer: round-robin SETs of distinct values.
	writer := drive.Group{Worker: func(int) drive.Op {
		w := history.Client{R: rec, ID: 1, C: c.NewClient(client.Options{
			Strategy: client.StrategySCAR, Retries: 8, Budget: client.NewRetryBudget(5000, 1),
		})}
		return func(i int) (uint64, error) {
			seq := uint64(i + 1)
			_, err := w.SetVersioned(ctx, keys[seq%keyCount], []byte(fmt.Sprintf("rs%d", seq)))
			return 0, err
		}
	}}
	churn := drive.Run(ctx, func() { res.Rows = intervalRows(c, cl, keys, resize) }, writer)

	check := history.Client{C: c.NewClient(client.Options{Strategy: client.Strategy2xR}), R: rec, ID: 2}
	if err := check.ReadAll(ctx, c.RepairAll); err != nil {
		panic(fmt.Sprintf("experiments: resize audit: %v", err))
	}
	if vs := history.Check(rec.Ops(), 0); len(vs) > 0 { // the cell is sized to evict nothing
		panic(fmt.Sprintf("experiments: resize broke the register on %d keys; the first:\n%v", len(vs), vs[0]))
	}
	res.Notes = fmt.Sprintf("grew 4->6 at t2, shrank back at t4; %d SETs acked during churn, 0 lost", churn.Ops-churn.Errors)
	return res
}
