package chaos

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// fakeSurface is an in-memory Surface that records every injection so
// tests can assert the engine heals exactly what it fires.
type fakeSurface struct {
	mu           sync.Mutex
	shards       int
	crashed      map[int]bool
	restarts     int
	warmRestarts int
	failRate     map[int]float64
	delay        map[int]uint64
	isolated     map[int]bool
	stale        bool
	corrupts     int
	maintains    int
}

func newFakeSurface(shards int) *fakeSurface {
	return &fakeSurface{
		shards:   shards,
		crashed:  make(map[int]bool),
		failRate: make(map[int]float64),
		delay:    make(map[int]uint64),
		isolated: make(map[int]bool),
	}
}

func (f *fakeSurface) Shards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.shards
}

func (f *fakeSurface) Crash(shard int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed[shard] = true
}

func (f *fakeSurface) Restart(_ context.Context, shard int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.crashed[shard] {
		return fmt.Errorf("restart of shard %d that is not crashed", shard)
	}
	delete(f.crashed, shard)
	f.restarts++
	return nil
}

func (f *fakeSurface) RestartWarm(_ context.Context, shard int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.crashed[shard] {
		return fmt.Errorf("warm restart of shard %d that is not crashed", shard)
	}
	delete(f.crashed, shard)
	f.warmRestarts++
	return nil
}

func (f *fakeSurface) SetRPCFailRate(shard int, rate float64, _ int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if rate == 0 {
		delete(f.failRate, shard)
		return
	}
	f.failRate[shard] = rate
}

func (f *fakeSurface) SetEngineDelay(shard int, ns uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ns == 0 {
		delete(f.delay, shard)
		return
	}
	f.delay[shard] = ns
}

func (f *fakeSurface) PartitionShard(shard int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.isolated[shard] = true
}

func (f *fakeSurface) HealPartitions() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.isolated = make(map[int]bool)
}

func (f *fakeSurface) CorruptData(_ int, n int, _ uint64) [][]byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corrupts += n
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("fake-%d", i))
	}
	return keys
}

func (f *fakeSurface) SetConfigStale(stale bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stale = stale
}

func (f *fakeSurface) MaintainShard(_ context.Context, shard int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed[shard] {
		return fmt.Errorf("maintenance on crashed shard %d", shard)
	}
	f.maintains++
	return nil
}

func (f *fakeSurface) Resize(_ context.Context, shards int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if shards < 1 {
		return fmt.Errorf("resize to %d shards", shards)
	}
	f.shards = shards
	return nil
}

// residual reports the first injection still in effect (corruption has no
// heal, by design).
func (f *fakeSurface) residual() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.crashed) > 0 {
		return fmt.Sprintf("crashed shards: %v", f.crashed)
	}
	if len(f.failRate) > 0 {
		return fmt.Sprintf("rpc fail rates: %v", f.failRate)
	}
	if len(f.delay) > 0 {
		return fmt.Sprintf("engine delays: %v", f.delay)
	}
	if len(f.isolated) > 0 {
		return fmt.Sprintf("partitions: %v", f.isolated)
	}
	if f.stale {
		return "config store still stale"
	}
	return ""
}

var _ Surface = (*fakeSurface)(nil)

// TestPresetDeterminism: a schedule is a pure function of (preset, seed,
// shards). Same inputs produce byte-identical schedules; a different seed
// produces a different one (asserted on corruption-soak, whose events
// embed per-event seeds, so distinct seeds cannot collide).
func TestPresetDeterminism(t *testing.T) {
	for _, name := range Presets() {
		for _, shards := range []int{1, 3, 5} {
			a, err := Preset(name, 42, shards)
			if err != nil {
				t.Fatalf("Preset(%q, 42, %d): %v", name, shards, err)
			}
			b, err := Preset(name, 42, shards)
			if err != nil {
				t.Fatalf("Preset(%q, 42, %d) second call: %v", name, shards, err)
			}
			if a.String() != b.String() {
				t.Errorf("%s/%d: same seed produced different schedules:\n%s\nvs\n%s",
					name, shards, a.String(), b.String())
			}
		}
	}
	a, _ := Preset("corruption-soak", 1, 3)
	b, _ := Preset("corruption-soak", 2, 3)
	if a.String() == b.String() {
		t.Errorf("corruption-soak: seeds 1 and 2 produced identical schedules:\n%s", a.String())
	}
}

// TestPresetValidity: every preset builds well-formed schedules — events
// land inside the step window, targets are in range, heals come after
// fires — and bad inputs are rejected.
func TestPresetValidity(t *testing.T) {
	for _, name := range Presets() {
		for _, shards := range []int{1, 2, 3, 7} {
			s, err := Preset(name, 7, shards)
			if err != nil {
				t.Fatalf("Preset(%q, 7, %d): %v", name, shards, err)
			}
			if len(s.Events) == 0 {
				t.Errorf("%s/%d: empty schedule", name, shards)
			}
			for _, ev := range s.Events {
				if ev.Step < 0 || ev.Step >= s.Steps {
					t.Errorf("%s/%d: event %s outside step window [0,%d)", name, shards, ev, s.Steps)
				}
				if ev.Shard < -1 || ev.Shard >= shards {
					t.Errorf("%s/%d: event %s targets shard out of range", name, shards, ev)
				}
				if ev.Heal != -1 && ev.Heal <= ev.Step {
					t.Errorf("%s/%d: event %s heals at or before its fire step", name, shards, ev)
				}
			}
		}
	}
	if _, err := Preset("no-such-preset", 1, 3); err == nil {
		t.Error("unknown preset did not error")
	}
	if _, err := Preset("brownout", 1, 0); err == nil {
		t.Error("zero shards did not error")
	}
}

// TestEngineRunAllHeals: for every preset, running the schedule to
// completion leaves the surface fully healed — every injection the engine
// fired was paired with its heal (corruption aside: bit flips have no
// heal; repair is the client/backend's job and is asserted in the root
// package's soak tests).
func TestEngineRunAllHeals(t *testing.T) {
	for _, name := range Presets() {
		for _, shards := range []int{1, 3} {
			sched, err := Preset(name, 11, shards)
			if err != nil {
				t.Fatalf("Preset(%q): %v", name, err)
			}
			sur := newFakeSurface(shards)
			eng := NewEngine(sched, sur)
			if err := eng.RunAll(context.Background()); err != nil {
				t.Fatalf("%s/%d: RunAll: %v", name, shards, err)
			}
			if !eng.Done() {
				t.Errorf("%s/%d: engine not Done after RunAll", name, shards)
			}
			if res := sur.residual(); res != "" {
				t.Errorf("%s/%d: surface not healed after RunAll: %s", name, shards, res)
			}
		}
	}
}

// TestEngineRollingCrashRestarts: the rolling-crash preset must crash
// every shard exactly once and restart each before the next crash (the
// fake errors on restarting a live shard, so ordering bugs surface as
// RunAll errors).
func TestEngineRollingCrashRestarts(t *testing.T) {
	const shards = 4
	sched, err := Preset("rolling-crash", 3, shards)
	if err != nil {
		t.Fatal(err)
	}
	sur := newFakeSurface(shards)
	eng := NewEngine(sched, sur)
	if err := eng.RunAll(context.Background()); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if sur.restarts != shards {
		t.Errorf("restarts = %d, want %d (one per shard)", sur.restarts, shards)
	}
	c := eng.Counters()
	if c[HazardCrash.String()] != shards {
		t.Errorf("crash counter = %d, want %d", c[HazardCrash.String()], shards)
	}
	if c[HazardRestart.String()] != shards {
		t.Errorf("restart counter = %d, want %d", c[HazardRestart.String()], shards)
	}
}

// TestEngineMaintenanceStorm: the maintenance-storm preset must run
// several full maintenance cycles, grow the cell, and shrink it back to
// its original shard count — control-plane churn is a round trip, not a
// leftover fault.
func TestEngineMaintenanceStorm(t *testing.T) {
	const shards = 3
	sched, err := Preset("maintenance-storm", 17, shards)
	if err != nil {
		t.Fatal(err)
	}
	sur := newFakeSurface(shards)
	eng := NewEngine(sched, sur)
	if err := eng.RunAll(context.Background()); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if sur.Shards() != shards {
		t.Errorf("shard count = %d after storm, want %d (shrink-back missing)", sur.Shards(), shards)
	}
	if sur.maintains < 3 {
		t.Errorf("maintains = %d, want >= 3", sur.maintains)
	}
	c := eng.Counters()
	if c[HazardResize.String()] != 2 {
		t.Errorf("resize counter = %d, want 2 (grow + shrink)", c[HazardResize.String()])
	}
	if res := sur.residual(); res != "" {
		t.Errorf("residual fault after storm: %s", res)
	}
}

// TestEngineStepwise drives the brownout preset one step at a time and
// checks the fire/heal lifecycle: injections appear at their scheduled
// step, persist until their heal step, then vanish; Done flips only after
// the last step with no pending heals.
func TestEngineStepwise(t *testing.T) {
	const shards = 3
	sched, err := Preset("brownout", 9, shards)
	if err != nil {
		t.Fatal(err)
	}
	// The brownout preset fires an RPC fail-rate (cell-wide) and one
	// shard's engine delay at step 1, healing both at step 6.
	sur := newFakeSurface(shards)
	eng := NewEngine(sched, sur)
	ctx := context.Background()

	injected := false
	for !eng.Done() {
		if _, err := eng.Step(ctx); err != nil {
			t.Fatalf("step %d: %v", eng.StepN(), err)
		}
		step := eng.StepN()
		sur.mu.Lock()
		haveFail := len(sur.failRate) > 0
		haveDelay := len(sur.delay) > 0
		sur.mu.Unlock()
		switch {
		case step >= 1 && step < 6:
			if !haveFail || !haveDelay {
				t.Fatalf("step %d: brownout not in effect (failRate=%v delay=%v)", step, haveFail, haveDelay)
			}
			injected = true
		case step >= 6:
			if haveFail || haveDelay {
				t.Fatalf("step %d: brownout not healed (failRate=%v delay=%v)", step, haveFail, haveDelay)
			}
		}
	}
	if !injected {
		t.Fatal("schedule never injected the brownout")
	}
	if res := sur.residual(); res != "" {
		t.Fatalf("surface not healed at Done: %s", res)
	}
	// Idempotent: stepping a Done engine is a no-op, and HealAll on a
	// healed surface changes nothing.
	if _, err := eng.Step(ctx); err != nil {
		t.Fatalf("step after Done: %v", err)
	}
	if err := eng.HealAll(ctx); err != nil {
		t.Fatalf("HealAll after Done: %v", err)
	}
	if res := sur.residual(); res != "" {
		t.Fatalf("HealAll disturbed a healed surface: %s", res)
	}
}

// TestEngineHealAllMidFault: abandoning a schedule mid-fault (the cmcell
// path when the workload ends early) must still heal everything pending.
func TestEngineHealAllMidFault(t *testing.T) {
	const shards = 3
	for _, name := range Presets() {
		sched, err := Preset(name, 5, shards)
		if err != nil {
			t.Fatal(err)
		}
		sur := newFakeSurface(shards)
		eng := NewEngine(sched, sur)
		ctx := context.Background()
		// Step just past the first fire, then bail out.
		for i := 0; i < 2 && !eng.Done(); i++ {
			if _, err := eng.Step(ctx); err != nil {
				t.Fatalf("%s: step: %v", name, err)
			}
		}
		if err := eng.HealAll(ctx); err != nil {
			t.Fatalf("%s: HealAll: %v", name, err)
		}
		if res := sur.residual(); res != "" {
			t.Errorf("%s: residual fault after HealAll: %s", name, res)
		}
	}
}

// TestPlaneCounters: every injection and heal routed through the plane
// increments exactly its hazard counter — one per target shard, a crash's
// heal as its restart, nothing for a hazard with no revert — and Counters
// omits hazards never fired.
func TestPlaneCounters(t *testing.T) {
	sur := newFakeSurface(3)
	p := NewPlane(sur, 1)
	ctx := context.Background()

	for _, step := range []struct {
		heal bool
		ev   Event
	}{
		{false, Event{Hazard: HazardCrash, Shard: 0}},
		{true, Event{Hazard: HazardCrash, Shard: 0}},
		{false, Event{Hazard: HazardCrash, Shard: 1}},
		{true, Event{Hazard: HazardCrash, Shard: 1, Warm: true}},
		{false, Event{Hazard: HazardRPCFail, Shard: 1, Rate: 0.5}},
		{true, Event{Hazard: HazardRPCFail, Shard: 1}},
		{false, Event{Hazard: HazardBrownout, Shard: 2, Delay: 1000}},
		{true, Event{Hazard: HazardBrownout, Shard: 2}},
		{false, Event{Hazard: HazardPartition, Shard: 1}},
		{true, Event{Hazard: HazardPartition, Shard: 1}},
		{false, Event{Hazard: HazardCorruption, Shard: 0, Count: 3, Seed: 1}},
		{true, Event{Hazard: HazardCorruption, Shard: 0}},
		{false, Event{Hazard: HazardConfigStale, Shard: -1}},
		{true, Event{Hazard: HazardConfigStale, Shard: -1}},
		{false, Event{Hazard: HazardMaintain, Shard: 0}},
		{false, Event{Hazard: HazardResize, Shard: -1, Count: 3}},
	} {
		act := p.Inject
		if step.heal {
			act = p.Heal
		}
		if err := act(ctx, step.ev); err != nil {
			t.Fatalf("%s (heal=%v): %v", step.ev, step.heal, err)
		}
	}

	// A cell-wide rpc-fail hits, counts and heals every shard.
	if err := p.Inject(ctx, Event{Hazard: HazardRPCFail, Shard: -1, Rate: 0.3}); err != nil {
		t.Fatal(err)
	}
	sur.mu.Lock()
	failing := len(sur.failRate)
	sur.mu.Unlock()
	if failing != 3 {
		t.Errorf("cell-wide rpc-fail reached %d shards, want 3", failing)
	}
	if err := p.Heal(ctx, Event{Hazard: HazardRPCFail, Shard: -1}); err != nil {
		t.Fatal(err)
	}
	for _, h := range []Hazard{HazardHeal, numHazards} {
		if err := p.Inject(ctx, Event{Hazard: h, Shard: 0}); err == nil {
			t.Errorf("injecting %s did not error", h)
		}
	}

	got := p.Counters()
	want := map[string]uint64{
		HazardCrash.String():       2,
		HazardRestart.String():     1,
		HazardRestartWarm.String(): 1,
		HazardRPCFail.String():     1 + 3,
		HazardBrownout.String():    1,
		HazardPartition.String():   1,
		HazardCorruption.String():  1,
		HazardConfigStale.String(): 1,
		HazardMaintain.String():    1,
		HazardResize.String():      1,
		HazardHeal.String():        4 + 3, // rpc-fail, brownout, partition, stale; then 3 shards
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counters = %v, want %v", got, want)
	}
	if res := sur.residual(); res != "" {
		t.Errorf("surface not healed: %s", res)
	}
}

// TestScheduleString: the human-readable schedule dump is the determinism
// witness used by tests and ops — it must mention the preset name, seed,
// and every event's hazard.
func TestScheduleString(t *testing.T) {
	s, err := Preset("partition-heal", 123, 3)
	if err != nil {
		t.Fatal(err)
	}
	dump := s.String()
	for _, want := range []string{"partition-heal", "123", HazardPartition.String()} {
		if !contains(dump, want) {
			t.Errorf("schedule dump missing %q:\n%s", want, dump)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
