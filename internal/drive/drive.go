// Package drive is the one closed-loop driver behind the figures, the load
// wall and the soaks: it starts groups of logical clients, each a goroutine
// issuing one op after another, paces them, stops them and joins them.
//
// A bounded group's workers share a fixed number of ops, so a slow
// worker's share passes to the others. A background group runs until every
// bounded group and the caller's controller have returned: the load a
// controller's faults, resizes and maintenance land under.
package drive

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cliquemap/internal/fabric"
	"cliquemap/internal/stats"
)

// Op issues op i — the group's i-th for a bounded group, the worker's own
// i-th for a background one — and returns its service time in ns. A failed
// op returns an error: it is counted in Result.Errors, and its service time
// is not recorded.
type Op func(i int) (ns uint64, err error)

// ErrStop, returned by an op, ends its worker without counting the op: the
// op has reported a failure, and more ops would only repeat it. The rest of
// a bounded group takes over the stopped worker's share.
var ErrStop = errors.New("drive: worker stopped")

// Timetable holds a bounded group to an arrival schedule: op i is issued no
// earlier than At[i] ns after Run starts the group on Clock, and an op
// issued later is charged its lag in Result.Lagged.
type Timetable struct {
	Clock fabric.Clock
	At    []uint64 // one instant per op
	// Done, when set, sees every op's lag plus service ns and its error.
	Done func(latNs uint64, err error)
}

// Group is a set of logical clients issuing one kind of op.
type Group struct {
	Workers int // default 1
	// Ops > 0 bounds the group to that many ops; 0 makes it a background
	// group.
	Ops int
	// Pace, when positive, starts each of a worker's ops Pace after the
	// previous one was due, on the wall clock. A late start is not charged:
	// a paced group records service time only.
	Pace     time.Duration
	Arrivals *Timetable // bounded groups only
	// Worker builds worker w's op. Run calls it for every worker of every
	// group, in order, on the caller's goroutine, before any op runs.
	Worker func(w int) Op
}

// Result is what a run recorded, over all of its groups.
type Result struct {
	Service stats.Histogram // service ns of every op that succeeded
	// Lagged is lag plus service ns of every timetabled op, failed ones
	// included.
	Lagged   stats.Histogram
	Ops      uint64 // ops issued
	Errors   uint64 // ops that failed
	MaxLagNs uint64 // the worst lag of a timetabled op
}

type run struct {
	ctx                 context.Context
	stopped             atomic.Bool
	res                 *Result
	ops, errs, maxLagNs atomic.Uint64
}

// Run starts every group's workers, calls control (when non-nil) on the
// caller's goroutine, waits for the bounded groups, then stops and joins
// the background groups. Every worker is stopped and joined before Run
// returns, also when control leaves through a panic or runtime.Goexit (a
// test's t.Fatal) — then bounded groups are cut short too — and once ctx is
// done no op starts.
func Run(ctx context.Context, control func(), groups ...Group) *Result {
	r := &run{ctx: ctx, res: &Result{}}
	ops := make([][]Op, len(groups))
	for g, gr := range groups {
		for w := 0; w < max(gr.Workers, 1); w++ {
			ops[g] = append(ops[g], gr.Worker(w))
		}
	}

	var all, bounded sync.WaitGroup
	defer func() {
		r.stopped.Store(true)
		all.Wait()
		r.res.Ops, r.res.Errors = r.ops.Load(), r.errs.Load()
		r.res.MaxLagNs = r.maxLagNs.Load()
	}()
	for g := range groups {
		gr := &groups[g]
		var next atomic.Uint64 // a bounded group's shared op index
		var t0 uint64
		if gr.Arrivals != nil {
			t0 = gr.Arrivals.Clock.NowNs()
		}
		for _, op := range ops[g] {
			all.Add(1)
			if gr.Ops > 0 {
				bounded.Add(1)
			}
			go func() {
				defer all.Done()
				if gr.Ops > 0 {
					defer bounded.Done()
				}
				r.work(gr, op, &next, t0)
			}()
		}
	}
	if control != nil && r.turn() {
		control()
	}
	bounded.Wait()
	return r.res
}

// turn is the boundary every op and the controller cross before they run:
// the one place a scheduler that picks which logical client goes next
// would hold a client back. It reports whether the run still wants the
// turn taken.
func (r *run) turn() bool { return !r.stopped.Load() && r.ctx.Err() == nil }

// work is one logical client's loop.
func (r *run) work(g *Group, op Op, next *atomic.Uint64, t0 uint64) {
	due := time.Now()
	for n := 0; r.turn(); n++ {
		i := n
		if g.Ops > 0 {
			if i = int(next.Add(1) - 1); i >= g.Ops {
				return
			}
		}
		if g.Pace > 0 {
			due = due.Add(g.Pace)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		var lag uint64
		tt := g.Arrivals
		if tt != nil {
			at := t0 + tt.At[i]
			now := tt.Clock.NowNs()
			for now < at {
				tt.Clock.SleepNs(at - now)
				now = tt.Clock.NowNs()
			}
			lag = now - at
		}
		ns, err := op(i)
		if err == ErrStop {
			return
		}
		r.ops.Add(1)
		if err != nil {
			r.errs.Add(1)
		} else {
			r.res.Service.Record(ns)
		}
		if tt == nil {
			continue
		}
		r.res.Lagged.Record(lag + ns)
		for m := r.maxLagNs.Load(); lag > m; m = r.maxLagNs.Load() {
			if r.maxLagNs.CompareAndSwap(m, lag) {
				break
			}
		}
		if tt.Done != nil {
			tt.Done(lag+ns, err)
		}
	}
}
