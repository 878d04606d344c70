package loadwall

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"cliquemap/internal/fabric"
	"cliquemap/internal/health"
)

// TestScheduleDeterministic: same seed → identical arrival sequence;
// different seed → different sequence.
func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(ArrivalPoisson, 10000, 1000, 42)
	b := Schedule(ArrivalPoisson, 10000, 1000, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different Poisson schedules")
	}
	c := Schedule(ArrivalPoisson, 10000, 1000, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical Poisson schedules")
	}
}

// TestScheduleUniform: exact 1/QPS spacing.
func TestScheduleUniform(t *testing.T) {
	s := Schedule(ArrivalUniform, 10000, 5, 1)
	want := []uint64{0, 100000, 200000, 300000, 400000}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("uniform schedule = %v, want %v", s, want)
	}
}

// TestSchedulePoissonMean: the mean inter-arrival gap converges to 1/QPS.
func TestSchedulePoissonMean(t *testing.T) {
	const qps, n = 10000.0, 20000
	s := Schedule(ArrivalPoisson, qps, n, 7)
	meanGap := float64(s[n-1]) / float64(n-1)
	want := 1e9 / qps
	if math.Abs(meanGap-want)/want > 0.05 {
		t.Fatalf("Poisson mean gap = %.0fns, want ~%.0fns", meanGap, want)
	}
}

// TestCoordinatedOmission is the measurement-correctness core: a 50ms
// server stall at 10k offered QPS must surface as ~500 ops of queued
// scheduled-time latency — NOT one slow op and silently reduced
// throughput, which is what a closed-loop driver would report.
func TestCoordinatedOmission(t *testing.T) {
	clock := &fabric.ManualClock{}
	const (
		qps       = 10000.0
		serviceNs = 10_000     // 10µs modelled service
		stallNs   = 50_000_000 // one 50ms server stall
		stallAt   = 100        // op index that hits the stalled server
	)
	var queued int
	res := RunStep(clock, StepConfig{
		QPS: qps, Ops: 2000, Arrival: ArrivalUniform, Workers: 1,
		OnResult: func(latNs uint64, err error) {
			if latNs >= 1_000_000 { // >1ms ⇒ dominated by queueing, not service
				queued++
			}
		},
	}, func(seq uint64) (uint64, error) {
		if seq == stallAt {
			clock.Advance(stallNs) // the server stalls the issuing worker
		}
		return serviceNs, nil
	})

	if res.Completed != 2000 {
		t.Fatalf("completed %d of 2000", res.Completed)
	}
	// 50ms backlog drains at one 100µs arrival per tick ⇒ ~500 ops above
	// 1ms of queued latency (the last ~10 fall back under 1ms).
	if queued < 450 || queued > 510 {
		t.Fatalf("queued-latency ops = %d, want ~500 (coordinated omission lost)", queued)
	}
	// The worst op saw (almost) the whole stall, not service time.
	if res.MaxLagNs < stallNs-200_000 {
		t.Fatalf("MaxLagNs = %d, want ≈%d (stall not charged to schedule)", res.MaxLagNs, stallNs)
	}
	if res.Latency.Percentile(99) < 1_000_000 {
		t.Fatalf("p99 = %dns, want >1ms: backlog must surface in the tail", res.Latency.Percentile(99))
	}
}

// TestRunStepNoStall: an unloaded run keeps latency at service time and
// accrues no backlog.
func TestRunStepNoStall(t *testing.T) {
	clock := &fabric.ManualClock{}
	res := RunStep(clock, StepConfig{QPS: 10000, Ops: 500, Arrival: ArrivalUniform, Workers: 1},
		func(seq uint64) (uint64, error) { return 10_000, nil })
	if res.MaxLagNs != 0 {
		t.Fatalf("MaxLagNs = %d, want 0", res.MaxLagNs)
	}
	if p99 := res.Latency.Percentile(99); p99 > 20_000 {
		t.Fatalf("p99 = %d, want ~service time", p99)
	}
}

// TestRunStepErrors: failures count as errors, not completions.
func TestRunStepErrors(t *testing.T) {
	clock := &fabric.ManualClock{}
	boom := errors.New("boom")
	res := RunStep(clock, StepConfig{QPS: 10000, Ops: 100, Arrival: ArrivalUniform, Workers: 1},
		func(seq uint64) (uint64, error) {
			if seq%4 == 0 {
				return 0, boom
			}
			return 10_000, nil
		})
	if res.Errors != 25 || res.Completed != 75 {
		t.Fatalf("errors=%d completed=%d, want 25/75", res.Errors, res.Completed)
	}
}

// TestFindKnee models a server with a hard 10k-QPS capacity (100µs serial
// service): the knee search must land in [6k, 10k] and name the probed
// resource that tracked utilization.
func TestFindKnee(t *testing.T) {
	clock := &fabric.ManualClock{}
	var nextFree, busyNs uint64 // the fake server's drain clock + busy time
	op := func(seq uint64) (uint64, error) {
		const svc = 100_000 // 100µs serial service ⇒ 10k QPS capacity
		now := clock.NowNs()
		var wait uint64
		if nextFree > now {
			wait = nextFree - now
			nextFree += svc
		} else {
			nextFree = now + svc
		}
		busyNs += svc
		return wait + svc, nil
	}
	// Probe scores are "resource-seconds consumed per wall-second": the
	// fake server's utilization since the previous probe, plus a constant
	// low score for a second resource to prove argmax selection.
	var lastNow, lastBusy uint64
	probe := func() map[string]float64 {
		now := clock.NowNs()
		var score float64
		if now > lastNow {
			score = float64(busyNs-lastBusy) / float64(now-lastNow)
		}
		lastNow, lastBusy = now, busyNs
		return map[string]float64{"fake-server": score, "idle-thing": 0.01}
	}
	cfg := Config{
		StartQPS: 2000, MaxQPS: 64000, Bisect: 3,
		StepDurationNs: 250e6, Arrival: ArrivalUniform, Workers: 1,
		Class:     "GET",
		Objective: health.Objective{Class: "GET", Availability: 0.999, LatencyNs: 1_000_000},
	}
	rep := FindKnee(clock, cfg, op, probe)
	if rep.KneeQPS < 6000 || rep.KneeQPS > 10000 {
		t.Fatalf("KneeQPS = %.0f, want in [6000, 10000]", rep.KneeQPS)
	}
	if len(rep.Steps) < 3 {
		t.Fatalf("too few steps: %d", len(rep.Steps))
	}
	if _, ok := rep.KneeStep(); !ok {
		t.Fatal("no passing step at the knee")
	}
	if rep.Limiting != "fake-server" {
		t.Fatalf("Limiting = %q, want fake-server", rep.Limiting)
	}
}

// TestFindKneeAllPass: a system faster than MaxQPS reports the last step
// as the knee with no limiting resource.
func TestFindKneeAllPass(t *testing.T) {
	clock := &fabric.ManualClock{}
	rep := FindKnee(clock, Config{
		StartQPS: 1000, MaxQPS: 4000, Bisect: 2,
		StepDurationNs: 50e6, Arrival: ArrivalUniform, Workers: 1,
	}, func(seq uint64) (uint64, error) { return 1000, nil }, nil)
	if rep.KneeQPS != 4000 {
		t.Fatalf("KneeQPS = %.0f, want 4000 (never failed)", rep.KneeQPS)
	}
	if rep.Limiting != "" {
		t.Fatalf("Limiting = %q, want empty", rep.Limiting)
	}
}
