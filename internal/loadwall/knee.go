package loadwall

import (
	"fmt"
	"math"
	"sort"

	"cliquemap/internal/fabric"
	"cliquemap/internal/health"
)

// Probe snapshots saturation scores at a step boundary: resource name →
// dimensionless load (queue-seconds accrued per wall-second, or a rho-like
// utilization). The knee search records the scores at each failing step
// and names the argmax as the limiting resource — the thing that actually
// clipped. Scores must be comparable across resources; "fraction of one
// resource-second consumed per second" is the intended semantic.
type Probe func() map[string]float64

// Config drives FindKnee.
type Config struct {
	StartQPS float64 // first ramp step (default 1000)
	MaxQPS   float64 // give up above this (default 1<<20)
	Bisect   int     // bisection iterations after the coarse bracket (default 3)

	StepDurationNs uint64  // settle window per step (default 250ms)
	Arrival        Arrival // arrival law (default Poisson)
	Seed           uint64
	Workers        int

	// WarmupNs, when non-zero, runs one discarded step at StartQPS before
	// the ramp. Load-dependent state in the system under test (rate EWMAs,
	// admission-control utilization estimates) otherwise still reflects
	// whatever traffic preceded the search — e.g. a tight preload loop —
	// and mis-prices the first steps.
	WarmupNs uint64

	// Class and Objective gate a step on the health plane: a fresh plane
	// (windows scaled to the step) records every op, and a step fails if
	// the class pages. Zero Objective means latency/availability gating is
	// disabled and only the error rate and backlog apply.
	Class     string
	Objective health.Objective
}

const (
	// grow is the ramp factor between coarse steps.
	grow = 2
	// maxErrorRate fails a step whose error fraction (ErrExhausted,
	// unavailability, …) exceeds it.
	maxErrorRate = 0.01
	// maxBacklogFrac fails a step whose worst issue backlog exceeds this
	// fraction of the step duration — offered load the generator could not
	// even issue on time is unsustainable by definition.
	maxBacklogFrac = 0.5
)

func (c Config) withDefaults() Config {
	if c.StartQPS <= 0 {
		c.StartQPS = 1000
	}
	if c.MaxQPS <= 0 {
		c.MaxQPS = 1 << 20
	}
	if c.Bisect == 0 {
		c.Bisect = 3
	}
	if c.StepDurationNs == 0 {
		c.StepDurationNs = 250e6
	}
	if c.Class == "" {
		c.Class = "GET"
	}
	return c
}

// StepOutcome is one ramp step plus its verdict.
type StepOutcome struct {
	StepResult
	Passed     bool
	Reason     string             // why the step failed ("" when passed)
	Saturation map[string]float64 // probe snapshot at step end
}

// Report is the full load-wall result: the curve, the knee, and the
// resource that clipped.
type Report struct {
	Steps   []StepOutcome
	KneeQPS float64 // highest offered QPS that passed (0: even StartQPS failed)
	// Limiting names the saturation score that dominated at the failing
	// step closest to the knee — the resource that hit the wall.
	Limiting string
	// LimitingScore is that resource's score at the same step.
	LimitingScore float64
}

// FindKnee ramps offered load geometrically until a step fails its SLO,
// then bisects (geometric midpoints) between the last pass and the first
// fail. op is the system under test; probe (optional) supplies saturation
// scores so the report can name the wall.
func FindKnee(clock fabric.Clock, cfg Config, op Op, probe Probe) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{}

	runStep := func(qps float64) StepOutcome {
		ops := int(qps * float64(cfg.StepDurationNs) / 1e9)
		if ops < 16 {
			ops = 16
		}
		// A fresh plane per step: the knee question is "does THIS offered
		// load page", not "has the whole ramp paged yet". Windows scale to
		// the step so the burn thresholds act within the settle window.
		var plane *health.Plane
		if cfg.Objective != (health.Objective{}) {
			hcfg := health.Config{
				FastWindowNs: cfg.StepDurationNs / 2,
				SlowWindowNs: cfg.StepDurationNs,
				BucketNs:     cfg.StepDurationNs / 16,
				Objectives:   []health.Objective{{Class: cfg.Class, Availability: cfg.Objective.Availability, LatencyNs: cfg.Objective.LatencyNs}},
			}
			plane = health.NewPlane(hcfg, clock.NowNs)
		}
		sc := StepConfig{
			QPS: qps, Ops: ops, Arrival: cfg.Arrival,
			Seed: cfg.Seed ^ math.Float64bits(qps), Workers: cfg.Workers,
		}
		if plane != nil {
			sc.OnResult = func(latNs uint64, err error) {
				plane.Record(cfg.Class, latNs, err != nil)
			}
		}
		out := StepOutcome{StepResult: RunStep(clock, sc, op), Passed: true}
		if probe != nil {
			out.Saturation = probe()
		}
		total := out.Completed + out.Errors
		if total > 0 {
			if errRate := float64(out.Errors) / float64(total); errRate > maxErrorRate {
				out.Passed = false
				out.Reason = fmt.Sprintf("error-rate %.1f%%", errRate*100)
			}
		}
		if out.Passed && plane != nil {
			if snap := plane.Evaluate(); snap.Worst() == health.Page {
				cs, _ := snap.Class(cfg.Class)
				out.Passed = false
				out.Reason = fmt.Sprintf("slo-page (burn %.1f, p99 %s)", float64(cs.FastBurnMilli)/1000, fmtNs(cs.ProbeP99Ns))
			}
		}
		if out.Passed && float64(out.MaxLagNs) > maxBacklogFrac*float64(cfg.StepDurationNs) {
			out.Passed = false
			out.Reason = fmt.Sprintf("backlog %s", fmtNs(out.MaxLagNs))
		}
		rep.Steps = append(rep.Steps, out)
		return out
	}

	// A failing step is re-run once and the confirmation's verdict
	// stands. A genuinely saturated step fails both times (the system's
	// queues are the same ones), but a one-off environmental stall — a
	// GC pause, a scheduler hiccup on a busy box — fails only the run it
	// landed in, and without confirmation it would bias the knee down or
	// declare no sustainable load at all. Both runs stay in Steps so the
	// curve shows the discarded verdict.
	step := func(qps float64) StepOutcome {
		out := runStep(qps)
		if !out.Passed {
			out = runStep(qps)
		}
		return out
	}

	if cfg.WarmupNs > 0 {
		n := int(cfg.StartQPS * float64(cfg.WarmupNs) / 1e9)
		if n < 16 {
			n = 16
		}
		RunStep(clock, StepConfig{
			QPS: cfg.StartQPS, Ops: n, Arrival: cfg.Arrival,
			Seed: cfg.Seed ^ 0x77a7, Workers: cfg.Workers,
		}, op)
		if probe != nil {
			probe() // discard warmup deltas so step scores start clean
		}
	}

	// Coarse geometric ramp.
	lo, hi := 0.0, 0.0
	var firstFail *StepOutcome
	for qps := cfg.StartQPS; qps <= cfg.MaxQPS; qps *= grow {
		out := step(qps)
		if out.Passed {
			lo = qps
		} else {
			hi = qps
			firstFail = &rep.Steps[len(rep.Steps)-1]
			break
		}
	}
	if hi == 0 {
		// Never failed up to MaxQPS: the wall is beyond the probe range.
		rep.KneeQPS = lo
		return rep
	}

	// Bisect the bracket at geometric midpoints.
	for i := 0; i < cfg.Bisect && lo > 0; i++ {
		mid := math.Sqrt(lo * hi)
		out := step(mid)
		if out.Passed {
			lo = mid
		} else {
			hi = mid
			firstFail = &rep.Steps[len(rep.Steps)-1]
		}
	}
	rep.KneeQPS = lo

	// Name the wall from the failing step closest to the knee.
	if firstFail != nil && len(firstFail.Saturation) > 0 {
		names := make([]string, 0, len(firstFail.Saturation))
		for k := range firstFail.Saturation {
			names = append(names, k)
		}
		sort.Strings(names) // deterministic tie-break
		for _, k := range names {
			if v := firstFail.Saturation[k]; v > rep.LimitingScore {
				rep.Limiting, rep.LimitingScore = k, v
			}
		}
	}
	return rep
}

// KneeStep returns the highest passing step (the measured curve point at
// the knee), or ok=false if every step failed.
func (r *Report) KneeStep() (StepOutcome, bool) {
	var best StepOutcome
	ok := false
	for _, s := range r.Steps {
		if s.Passed && (!ok || s.OfferedQPS > best.OfferedQPS) {
			best, ok = s, true
		}
	}
	return best, ok
}

func fmtNs(ns uint64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
