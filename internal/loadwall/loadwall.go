// Package loadwall is the open-loop capacity harness: it offers load on a
// fixed arrival clock, measures latency from each op's *scheduled* send
// time, and searches for the knee — the maximum offered QPS a
// configuration sustains while meeting its SLO.
//
// The crucial property is coordinated-omission correctness. A closed-loop
// driver that waits for each response before sending the next op lets a
// stalled server silently throttle the generator: one 50ms stall shows up
// as one slow op and a dip in throughput. Here arrivals are pre-scheduled
// (Poisson or uniform spacing, seeded, so runs are reproducible), and an
// op that is issued late — because every worker was stuck behind the stall
// — is charged the backlog it actually suffered: latency = (issue instant
// − scheduled instant) + the op's own service time. A 50ms stall at 10k
// offered QPS therefore surfaces as ~500 ops of queued latency, which is
// what the paper's open-loop figures (Figs 8–10 run at fixed offered
// loads) and any honest tail percentile require.
//
// The generator keeps its arrival schedule on a fabric.Clock: against a
// cell, the cell's own, so offered QPS is QPS of the clock the modelled
// system prices load at; in unit tests, a fabric.ManualClock.
package loadwall

import (
	"context"
	"math"

	"cliquemap/internal/drive"
	"cliquemap/internal/fabric"
	"cliquemap/internal/stats"
)

// Arrival selects the inter-arrival law for a step.
type Arrival int

const (
	// ArrivalPoisson spaces ops with exponential gaps (memoryless open
	// loop — the default, matching how independent frontends offer load).
	ArrivalPoisson Arrival = iota
	// ArrivalUniform spaces ops exactly 1/QPS apart (a paced generator).
	ArrivalUniform
)

// splitmix64 is the seeded generator behind arrival schedules — tiny,
// deterministic, and stdlib-free so the same seed yields the same
// schedule on every platform.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Schedule precomputes the arrival instants (ns offsets from step start)
// for n ops offered at qps. The whole schedule is materialized up front so
// issuing an op is a lock-free index fetch — the generator never does rng
// or float math while it is supposed to be keeping the arrival clock.
func Schedule(kind Arrival, qps float64, n int, seed uint64) []uint64 {
	if n <= 0 || qps <= 0 {
		return nil
	}
	out := make([]uint64, n)
	gapNs := 1e9 / qps
	switch kind {
	case ArrivalUniform:
		for i := range out {
			out[i] = uint64(float64(i) * gapNs)
		}
	default: // Poisson
		state := seed ^ 0xc1f651c67c62c6e0
		var t float64
		for i := range out {
			// U in (0,1]: map the top 53 bits, never zero.
			u := float64(splitmix64(&state)>>11+1) / (1 << 53)
			t += -math.Log(u) * gapNs
			out[i] = uint64(t)
		}
	}
	return out
}

// Op executes one operation against the system under test and returns its
// service latency in ns (for this repo, the modelled OpTrace latency).
// seq is the op's index in the arrival schedule, usable for key choice.
type Op func(seq uint64) (serviceNs uint64, err error)

// StepConfig describes one fixed-offered-load step.
type StepConfig struct {
	QPS     float64
	Ops     int // arrivals in the step (duration ≈ Ops/QPS)
	Arrival Arrival
	Seed    uint64
	Workers int // concurrent issuers; default 32

	// OnResult, when set, observes every op's scheduled-time latency —
	// the knee search uses it to feed the health plane.
	OnResult func(latNs uint64, err error)
}

// StepResult is one step's measurement.
type StepResult struct {
	OfferedQPS float64
	Completed  uint64
	Errors     uint64
	// Latency measures from scheduled send time: issue lag (backlog) plus
	// the op's own service time. This is the coordinated-omission-correct
	// number; percentiles come from here.
	Latency *stats.Histogram
	// MaxLagNs is the worst issue-after-schedule backlog — the generator's
	// own saturation signal (a backlogged generator means offered >
	// capacity regardless of what the SLO says).
	MaxLagNs uint64
}

// RunStep offers cfg.Ops operations at cfg.QPS on clock and measures them.
// Workers pull arrivals from a shared index: an op is issued no earlier
// than its scheduled instant, and if all workers are busy when it comes
// due, the lateness is charged to its latency.
func RunStep(clock fabric.Clock, cfg StepConfig, op Op) StepResult {
	sched := Schedule(cfg.Arrival, cfg.QPS, cfg.Ops, cfg.Seed)
	if len(sched) == 0 {
		return StepResult{OfferedQPS: cfg.QPS, Latency: &stats.Histogram{}}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 32
	}
	r := drive.Run(context.Background(), nil, drive.Group{
		Workers:  min(workers, len(sched)),
		Ops:      len(sched),
		Arrivals: &drive.Timetable{Clock: clock, At: sched, Done: cfg.OnResult},
		Worker: func(int) drive.Op {
			return func(i int) (uint64, error) { return op(uint64(i)) }
		},
	})
	return StepResult{OfferedQPS: cfg.QPS, Completed: r.Ops - r.Errors, Errors: r.Errors, Latency: &r.Lagged, MaxLagNs: r.MaxLagNs}
}
