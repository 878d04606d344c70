// Package chaos is CliqueMap's unified fault-injection plane: one seeded
// registry through which every hazard class the system defends against is
// injected, scheduled, counted, and healed.
//
// The paper's §5.4 catalogues the hazards production surfaced — transient
// RPC failures, dirty quorums from crashed or migrating backends, torn and
// corrupt reads caught by checksum self-validation (§3) — and leans on
// client-side retries as the universal handler. Besta & Hoefler's fault-
// tolerance work for RMA programming models argues such systems need an
// explicit, systematic fault model precisely because one-sided reads
// bypass the server software that would otherwise detect failure; Aguilera
// et al. show correctness under RDMA failures hinges on adversarially
// scheduled partitions and crashes. This package is that fault model made
// executable:
//
//   - Hazard taxonomy: one table row per class — crash/restart, network
//     partition, transient RPC failure rates, NIC-engine brownouts,
//     registered-memory bit corruption, config-store staleness, and
//     control-plane churn (planned-maintenance handoffs, online resize).
//   - Plane: the single front door, Inject and Heal, that applies any
//     hazard through a Surface (implemented by the cell), deriving every
//     actuator's seed from one master seed and tallying injections into
//     hazard counters (mirrored to the cell tracer for cmstat / Prometheus).
//   - Schedule: a deterministic event list — a pure function of
//     (preset, seed, shards) — with per-event auto-heal steps.
//   - Engine: applies a schedule step by step from a test or cmcell's
//     workload loop, and can force-heal everything outstanding so soak
//     oracles can assert post-fault convergence.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"cliquemap/internal/trace"
)

// Hazard enumerates the injectable fault classes; it indexes hazards.
type Hazard uint8

const (
	HazardCrash Hazard = iota
	HazardRestart
	HazardPartition
	HazardRPCFail
	HazardBrownout
	HazardCorruption
	HazardConfigStale
	HazardMaintain
	HazardResize
	HazardHeal
	HazardRestartWarm
	numHazards
)

// String names the hazard for counters and schedule dumps.
func (h Hazard) String() string {
	if h < numHazards {
		return hazards[h].name
	}
	return fmt.Sprintf("hazard-%d", uint8(h))
}

// actuator applies or reverts one event on one target shard.
type actuator func(ctx context.Context, p *Plane, ev Event, shard int) error

// hazards is the fault model, one row per Hazard: its counter name, how
// an event fires on one target shard, and how it heals (nil: no revert —
// repair, overwrites or a later event are the cure). A wide row acts once
// for the whole cell whatever the event's Shard.
var hazards = [numHazards]struct {
	name       string
	wide       bool
	fire, heal actuator
}{
	HazardCrash: {name: "crash",
		fire: func(_ context.Context, p *Plane, _ Event, s int) error { p.sur.Crash(s); return nil },
		heal: func(ctx context.Context, p *Plane, ev Event, s int) error {
			if ev.Warm {
				return p.sur.RestartWarm(ctx, s)
			}
			return p.sur.Restart(ctx, s)
		}},
	HazardPartition: {name: "partition",
		fire: func(_ context.Context, p *Plane, _ Event, s int) error { p.sur.PartitionShard(s); return nil },
		heal: func(_ context.Context, p *Plane, _ Event, _ int) error { p.sur.HealPartitions(); return nil }},
	HazardRPCFail: {name: "rpc-fail",
		fire: func(_ context.Context, p *Plane, ev Event, s int) error {
			p.sur.SetRPCFailRate(s, ev.Rate, int64(p.subSeed()))
			return nil
		},
		heal: func(_ context.Context, p *Plane, _ Event, s int) error { p.sur.SetRPCFailRate(s, 0, 0); return nil }},
	HazardBrownout: {name: "brownout",
		fire: func(_ context.Context, p *Plane, ev Event, s int) error {
			p.sur.SetEngineDelay(s, ev.Delay)
			return nil
		},
		heal: func(_ context.Context, p *Plane, _ Event, s int) error { p.sur.SetEngineDelay(s, 0); return nil }},
	HazardCorruption: {name: "corruption",
		fire: func(_ context.Context, p *Plane, ev Event, s int) error {
			p.sur.CorruptData(s, ev.Count, ev.Seed)
			return nil
		}},
	HazardConfigStale: {name: "config-stale", wide: true,
		fire: func(_ context.Context, p *Plane, _ Event, _ int) error { p.sur.SetConfigStale(true); return nil },
		heal: func(_ context.Context, p *Plane, _ Event, _ int) error { p.sur.SetConfigStale(false); return nil }},
	HazardMaintain: {name: "maintain",
		fire: func(ctx context.Context, p *Plane, _ Event, s int) error { return p.sur.MaintainShard(ctx, s) }},
	HazardResize: {name: "resize", wide: true,
		fire: func(ctx context.Context, p *Plane, ev Event, _ int) error { return p.sur.Resize(ctx, ev.Count) }},
	// Counter names only: a heal, and the restart a crash heals with.
	HazardHeal:        {name: "heal"},
	HazardRestart:     {name: "restart"},
	HazardRestartWarm: {name: "restart-warm"},
}

// Surface is what the plane drives — implemented by the cell. Methods use
// only basic types so the plane stays import-cycle-free of core packages.
type Surface interface {
	// Shards returns the logical shard count (targets are 0..Shards-1).
	Shards() int
	// Crash kills shard's backend task (server stops, NICs down).
	Crash(shard int)
	// Restart brings shard's backend back empty and kicks off repair.
	Restart(ctx context.Context, shard int) error
	// RestartWarm brings shard's backend back recovered from its durable
	// checkpoint + journal (falling back to a cold start when the cell
	// has no data directory) and runs the self-validation rejoin.
	RestartWarm(ctx context.Context, shard int) error
	// SetRPCFailRate makes shard's server fail the given fraction of calls
	// transiently; rate 0 heals.
	SetRPCFailRate(shard int, rate float64, seed int64)
	// SetEngineDelay injects ns of NIC-engine service delay on shard's
	// host (pony + 1RMA + RPC handler cost); 0 heals.
	SetEngineDelay(shard int, ns uint64)
	// PartitionShard cuts shard's host off from every other host.
	PartitionShard(shard int)
	// HealPartitions removes every partition.
	HealPartitions()
	// CorruptData flips one bit in up to n live entries on shard's
	// backend, returning the damaged keys.
	CorruptData(shard int, n int, seed uint64) [][]byte
	// SetConfigStale pins (true) or unpins (false) the config store's
	// read snapshot.
	SetConfigStale(stale bool)
	// MaintainShard runs one full planned-maintenance cycle on shard —
	// migrate to a warm spare, then hand back — the §6.1 control-plane
	// churn that opens handoff windows.
	MaintainShard(ctx context.Context, shard int) error
	// Resize changes the cell's logical shard count online (two-epoch
	// handoff). Unlike the fault hazards it is a deliberate state change:
	// there is no heal, a later event resizes back instead.
	Resize(ctx context.Context, shards int) error
}

// Plane is the unified fault-injection front door. Every injection and
// heal — scheduled by an Engine or invoked directly — goes through Inject
// or Heal, which count the hazard per target (mirrored into the cell
// tracer when attached) and run its row of the hazard table.
type Plane struct {
	sur    Surface
	seed   uint64
	subSeq atomic.Uint64
	tracer atomic.Pointer[trace.Tracer]

	counters [numHazards]atomic.Uint64
}

// NewPlane binds a plane to a surface under one master seed.
func NewPlane(sur Surface, seed uint64) *Plane {
	if seed == 0 {
		seed = 1
	}
	return &Plane{sur: sur, seed: seed}
}

// SetTracer mirrors hazard counts into t (for cmstat / Prometheus).
func (p *Plane) SetTracer(t *trace.Tracer) { p.tracer.Store(t) }

// Seed returns the master seed.
func (p *Plane) Seed() uint64 { return p.seed }

// subSeed derives a fresh deterministic actuator seed from the master
// seed (splitmix64 over an injection sequence number).
func (p *Plane) subSeed() uint64 {
	z := p.seed + p.subSeq.Add(1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *Plane) note(h Hazard) {
	p.counters[h].Add(1)
	if t := p.tracer.Load(); t != nil {
		t.HazardInc(h.String(), 1)
	}
}

// Counters returns the cumulative injection count per hazard name.
func (p *Plane) Counters() map[string]uint64 {
	out := make(map[string]uint64, numHazards)
	for h := Hazard(0); h < numHazards; h++ {
		if n := p.counters[h].Load(); n > 0 {
			out[h.String()] = n
		}
	}
	return out
}

// Inject fires ev on each of its targets (every shard when ev.Shard is
// -1; once for a cell-wide hazard), counting ev.Hazard per target. It
// stops at the first target that fails.
func (p *Plane) Inject(ctx context.Context, ev Event) error {
	if ev.Hazard >= numHazards || hazards[ev.Hazard].fire == nil {
		return fmt.Errorf("chaos: %s cannot be injected", ev.Hazard)
	}
	fire := hazards[ev.Hazard].fire
	return p.each(ev, ev.Hazard, func(s int) error { return fire(ctx, p, ev, s) })
}

// Heal reverts ev on each of its targets, counting one heal per target —
// a crash's heal is its restart and counts as restart or restart-warm. A
// hazard with no revert is a no-op.
func (p *Plane) Heal(ctx context.Context, ev Event) error {
	if ev.Hazard >= numHazards || hazards[ev.Hazard].heal == nil {
		return nil
	}
	heal := hazards[ev.Hazard].heal
	as := HazardHeal
	if ev.Hazard == HazardCrash {
		as = HazardRestart
		if ev.Warm {
			as = HazardRestartWarm
		}
	}
	return p.each(ev, as, func(s int) error { return heal(ctx, p, ev, s) })
}

// each counts h and runs act once per target of ev.
func (p *Plane) each(ev Event, h Hazard, act func(shard int) error) error {
	if ev.Shard >= 0 || hazards[ev.Hazard].wide {
		p.note(h)
		return act(ev.Shard)
	}
	for s, n := 0, p.sur.Shards(); s < n; s++ {
		p.note(h)
		if err := act(s); err != nil {
			return err
		}
	}
	return nil
}

// Event is one scheduled injection: fire when the engine reaches Step,
// auto-revert when it reaches HealStep (<0 = never auto-heal; corruption
// has no revert — repair and overwrites are the only cure).
type Event struct {
	Step   int
	Hazard Hazard
	Shard  int     // target shard; -1 = cell-wide
	Rate   float64 // rpc-fail fraction
	Delay  uint64  // brownout engine delay ns
	Count  int     // corruption flips, or resize target shard count
	Seed   uint64  // per-event actuator seed
	Heal   int     // step at which the effect reverts; -1 = never
	Warm   bool    // crash heals via RestartWarm instead of cold Restart
}

// String renders the event for schedule dumps and determinism checks.
func (e Event) String() string {
	s := fmt.Sprintf("step=%d %s shard=%d rate=%.3f delay=%d count=%d seed=%d heal=%d",
		e.Step, e.Hazard, e.Shard, e.Rate, e.Delay, e.Count, e.Seed, e.Heal)
	if e.Warm {
		s += " warm=true"
	}
	return s
}

// Schedule is a deterministic fault plan: Events sorted by Step, all
// fired by Steps steps. Identical (Name, Seed, shards) inputs produce
// identical schedules.
type Schedule struct {
	Name   string
	Seed   uint64
	Steps  int
	Events []Event
}

// String renders the whole schedule (the determinism-test witness).
func (s Schedule) String() string {
	out := fmt.Sprintf("schedule %s seed=%d steps=%d\n", s.Name, s.Seed, s.Steps)
	for _, e := range s.Events {
		out += "  " + e.String() + "\n"
	}
	return out
}

// Presets names the built-in scenario schedules.
func Presets() []string {
	return []string{"brownout", "partition-heal", "corruption-soak", "rolling-crash", "rolling-crash-warm", "maintenance-storm"}
}

// Preset builds a named scenario schedule for a cell of the given shard
// count. The schedule is a pure function of (name, seed, shards): the
// same inputs yield byte-identical plans, which is what makes soak
// failures replayable.
func Preset(name string, seed uint64, shards int) (Schedule, error) {
	if shards < 1 {
		return Schedule{}, fmt.Errorf("chaos: preset needs at least one shard, got %d", shards)
	}
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	s := Schedule{Name: name, Seed: seed}
	victim := rng.Intn(shards)
	switch name {
	case "brownout":
		// Cell-wide transient RPC failures plus one shard's engines running
		// hot — the retry-storm scenario the token-bucket budget must shed.
		s.Steps = 10
		s.Events = append(s.Events,
			Event{Step: 1, Hazard: HazardRPCFail, Shard: -1, Rate: 0.3, Seed: rng.Uint64(), Heal: 6},
			Event{Step: 1, Hazard: HazardBrownout, Shard: victim, Delay: 2_000_000, Heal: 6},
		)
	case "partition-heal":
		// One shard's host drops off the fabric, then rejoins; while it is
		// gone the config store also lags, so refresh-based repair reads a
		// stale placement.
		s.Steps = 10
		s.Events = append(s.Events,
			Event{Step: 1, Hazard: HazardPartition, Shard: victim, Heal: 6},
			Event{Step: 2, Hazard: HazardConfigStale, Shard: -1, Heal: 5},
		)
	case "corruption-soak":
		// Repeated bit flips in live registered memory across shards —
		// checksum self-validation is the only defense. No auto-heal:
		// repair and overwrites are the cure.
		s.Steps = 12
		for step := 2; step <= 8; step += 2 {
			s.Events = append(s.Events, Event{
				Step: step, Hazard: HazardCorruption, Shard: rng.Intn(shards),
				Count: 4 + rng.Intn(5), Seed: rng.Uint64(), Heal: -1,
			})
		}
	case "rolling-crash":
		// Crash each shard in a random order, restarting one before the
		// next falls — the rolling-maintenance worst case of §6.1.
		s.Steps = 2 + 2*shards
		for i, shard := range rng.Perm(shards) {
			s.Events = append(s.Events, Event{
				Step: 1 + 2*i, Hazard: HazardCrash, Shard: shard, Heal: 2 + 2*i,
			})
		}
	case "rolling-crash-warm":
		// The same rolling worst case, but every victim rejoins via the
		// durability plane: checkpoint + journal replay instead of an
		// empty corpus. The oracle's lost-write check is the payoff — a
		// warm rejoin must never surface an agreed miss for an acked key.
		s.Steps = 2 + 2*shards
		for i, shard := range rng.Perm(shards) {
			s.Events = append(s.Events, Event{
				Step: 1 + 2*i, Hazard: HazardCrash, Shard: shard, Heal: 2 + 2*i, Warm: true,
			})
		}
	case "maintenance-storm":
		// Back-to-back shard handoffs: planned-maintenance cycles
		// interleaved with an online grow and the shrink back — every
		// seal/drain/flip window the control plane can open, repeatedly,
		// under load. Deliberately no RPC-failure or partition events ride
		// along: a failed handoff RPC mid-resize leaves the pending epoch
		// parked for the operator by design, which is not a convergence
		// failure this preset should manufacture.
		s.Steps = 10
		s.Events = append(s.Events,
			Event{Step: 1, Hazard: HazardMaintain, Shard: victim, Heal: -1},
			Event{Step: 2, Hazard: HazardResize, Shard: -1, Count: shards + 2, Heal: -1},
			Event{Step: 4, Hazard: HazardMaintain, Shard: rng.Intn(shards), Heal: -1},
			Event{Step: 6, Hazard: HazardResize, Shard: -1, Count: shards, Heal: -1},
			Event{Step: 8, Hazard: HazardMaintain, Shard: rng.Intn(shards), Heal: -1},
		)
	default:
		return Schedule{}, fmt.Errorf("chaos: unknown preset %q (have %v)", name, Presets())
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Step < s.Events[j].Step })
	return s, nil
}

// Engine walks a Schedule over a Plane. Callers drive it synchronously —
// Step from a workload loop or test — so event application interleaves
// deterministically with offered load. Not safe for concurrent Step
// calls; the hazards it applies are themselves thread-safe.
type Engine struct {
	plane *Plane
	sched Schedule

	mu      sync.Mutex
	step    int
	pending []Event // fired events awaiting their Heal step
	firstEE error   // first apply error, kept for RunAll's return
}

// NewEngine binds sched to a fresh plane over sur, seeded by the
// schedule's seed.
func NewEngine(sched Schedule, sur Surface) *Engine {
	return &Engine{plane: NewPlane(sur, sched.Seed), sched: sched}
}

// SetTracer mirrors hazard counts into t.
func (e *Engine) SetTracer(t *trace.Tracer) { e.plane.SetTracer(t) }

// Steps returns the schedule length.
func (e *Engine) Steps() int { return e.sched.Steps }

// StepN returns how many steps have been applied.
func (e *Engine) StepN() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.step
}

// Done reports whether the schedule has fully run and healed.
func (e *Engine) Done() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.step >= e.sched.Steps && len(e.pending) == 0
}

// Step advances one schedule step: heals whose time has come are applied
// first (a fault window closes before a new one opens), then this step's
// events fire. Returns the number of events applied.
func (e *Engine) Step(ctx context.Context) (int, error) {
	e.mu.Lock()
	e.step++
	step := e.step
	var heals, fires []Event
	keep := e.pending[:0]
	for _, ev := range e.pending {
		if ev.Heal >= 0 && ev.Heal <= step {
			heals = append(heals, ev)
		} else {
			keep = append(keep, ev)
		}
	}
	e.pending = keep
	for _, ev := range e.sched.Events {
		if ev.Step == step {
			fires = append(fires, ev)
			if ev.Heal > step {
				e.pending = append(e.pending, ev)
			}
		}
	}
	e.mu.Unlock()

	var firstErr error
	n := 0
	for _, ev := range heals {
		if err := e.plane.Heal(ctx, ev); err != nil && firstErr == nil {
			firstErr = err
		}
		n++
	}
	for _, ev := range fires {
		if err := e.plane.Inject(ctx, ev); err != nil && firstErr == nil {
			firstErr = err
		}
		n++
	}
	if firstErr != nil {
		e.mu.Lock()
		if e.firstEE == nil {
			e.firstEE = firstErr
		}
		e.mu.Unlock()
	}
	return n, firstErr
}

// RunAll drives the schedule to completion (no pacing) and heals
// everything outstanding.
func (e *Engine) RunAll(ctx context.Context) error {
	for e.StepN() < e.sched.Steps {
		if _, err := e.Step(ctx); err != nil {
			return err
		}
	}
	if err := e.HealAll(ctx); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.firstEE
}

// HealAll force-reverts every outstanding effect — the end of the fault
// window, after which soak oracles assert convergence.
func (e *Engine) HealAll(ctx context.Context) error {
	e.mu.Lock()
	pending := e.pending
	e.pending = nil
	e.mu.Unlock()
	var firstErr error
	for _, ev := range pending {
		if err := e.plane.Heal(ctx, ev); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Counters returns the engine's cumulative injections per hazard name.
func (e *Engine) Counters() map[string]uint64 { return e.plane.Counters() }
