package cliquemap

// Jepsen-lite chaos soak: concurrent workers run a keyed workload while a
// seeded chaos schedule injects crashes, partitions, brownouts, bit
// corruption, and config staleness. Every op lands in one history, which
// internal/history checks against a versioned register — the paper's
// end-to-end safety story (§3, §5.2, §5.4): no lost acked write, no
// resurrected erase, no read that goes backwards, no value that was never
// written (a corrupted one must not leak past the checksum). After the
// fault window heals, repair must quiesce and every key must read back
// stably.
//
// Workers split into key groups; with two writers per key, two workers
// write (and read) each group. Run under -race; CI pins the seeds so a
// failure replays byte-for-byte.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cliquemap/internal/chaos"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/drive"
	"cliquemap/internal/history"
	"cliquemap/internal/truetime"
)

const (
	soakWorkers      = 4
	soakKeysPerGroup = 8
)

// checkRegister fails t on the first key of rec's history that breaks the
// versioned register, printing that key's whole history.
func checkRegister(t *testing.T, rec *history.Recorder, evictions uint64) {
	t.Helper()
	if vs := history.Check(rec.Ops(), evictions); len(vs) > 0 {
		t.Fatalf("%d keys break the register; the first:\n%v", len(vs), vs[0])
	}
}

func soakKey(g, k int) []byte { return []byte(fmt.Sprintf("soak-g%d-k%d", g, k)) }

func soakVal(w, k int, seq uint64) []byte {
	return []byte(fmt.Sprintf("w%d.k%d.s%d|chaos-soak-payload", w, k, seq))
}

// soakWorker is worker w's op over key group g. Op failures during fault
// windows are outcomes in the history, never fatal.
func soakWorker(ctx context.Context, h history.Client, w, g int) drive.Op {
	rng := rand.New(rand.NewSource(int64(w)))
	// lastVer tracks the version of this worker's newest acked SET of each
	// key, so CAS ops present a plausibly-current expectation.
	lastVer := make([]truetime.Version, soakKeysPerGroup)
	return func(i int) (uint64, error) {
		k := i % soakKeysPerGroup
		val := soakVal(w, k, uint64(i+1)) // seq 0 is the preload
		switch {
		case i%7 == 6:
			if h.Erase(ctx, soakKey(g, k)) == nil {
				lastVer[k] = truetime.Version{}
			}
		case i%7 == 3 && !lastVer[k].Zero():
			h.Cas(ctx, soakKey(g, k), val, lastVer[k])
			// The CAS nominated a fresh version either way; the old
			// expectation is spent.
			lastVer[k] = truetime.Version{}
		default:
			if v, err := h.SetVersioned(ctx, soakKey(g, k), val); err == nil {
				lastVer[k] = v
			}
		}
		for r := 0; r < 2; r++ {
			h.Get(ctx, soakKey(g, rng.Intn(soakKeysPerGroup)))
		}
		return 0, nil
	}
}

// soakCell is the soaks' cell. Three spares: the maintenance-storm preset
// grows the cell by two shards and still runs a maintenance handoff while
// grown, so the storm needs +2 growth capacity plus one idle spare at all
// times.
var soakCell = Options{Shards: 3, Spares: 3, Mode: R32}

// runChaosSoak is the shared harness: build a cell, preload, run workers
// with the given writers per key and one StrategyRPC reader while stepping
// the preset's schedule (seed 1), then heal, repair to quiescence, read
// every key back, and check the history.
func runChaosSoak(t *testing.T, preset string, writers int, copt Options) {
	t.Helper()
	const seed = 1
	groups := soakWorkers / writers // worker w writes group w % groups
	c := newCell(t, copt)
	cc := c.Internal()
	ctx := context.Background()

	eng, err := c.ChaosEngine(preset, seed)
	if err != nil {
		t.Fatal(err)
	}

	rec := &history.Recorder{}
	clients := make([]history.Client, soakWorkers)
	for w := range clients {
		clients[w] = history.Client{R: rec, ID: w, C: cc.NewClient(client.Options{
			Strategy: client.StrategySCAR,
			Retries:  8,
			Budget:   client.NewRetryBudget(500, 1),
		})}
	}
	// Preload before the fault window so every key has an acked baseline.
	for g := 0; g < groups; g++ {
		for k := 0; k < soakKeysPerGroup; k++ {
			if _, err := clients[g].SetVersioned(ctx, soakKey(g, k), soakVal(g, k, 0)); err != nil {
				t.Fatalf("preload g%d/k%d: %v", g, k, err)
			}
		}
	}

	workers := drive.Group{Workers: soakWorkers, Worker: func(w int) drive.Op {
		return soakWorker(ctx, clients[w], w, w%groups)
	}}
	// One two-sided reader: a StrategyRPC GET asks a read quorum and the
	// rest of the cohort only when it disagrees, so that escalation runs
	// under every fault and its answers join the history too.
	rpcReader := history.Client{R: rec, ID: soakWorkers + 1, C: cc.NewClient(client.Options{
		Strategy: client.StrategyRPC,
		Retries:  8,
		Budget:   client.NewRetryBudget(500, 1),
	})}
	reader := drive.Group{Worker: func(int) drive.Op {
		rng := rand.New(rand.NewSource(soakWorkers + 1))
		return func(int) (uint64, error) {
			rpcReader.Get(ctx, soakKey(rng.Intn(groups), rng.Intn(soakKeysPerGroup)))
			return 0, nil
		}
	}}
	// Step the schedule through while the workers hammer the cell, so
	// every fire and heal lands under load.
	drive.Run(ctx, func() {
		for !eng.Done() {
			if _, serr := eng.Step(ctx); serr != nil {
				t.Errorf("chaos step: %v", serr)
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond) // post-heal load, catches lingering damage
	}, workers, reader)
	if rpcReader.C.M.Gets.Value() == 0 {
		t.Fatal("the StrategyRPC reader ran no GET")
	}

	// Fault window over: force-heal anything outstanding, then repair
	// until quiescent — §5.4's permanent repair must converge.
	if err := eng.HealAll(ctx); err != nil {
		t.Fatalf("HealAll: %v", err)
	}
	quiesced := false
	for i := 0; i < 12; i++ {
		n, rerr := c.RepairAll(ctx)
		if rerr != nil {
			t.Fatalf("RepairAll: %v", rerr)
		}
		if n == 0 {
			quiesced = true
			break
		}
	}
	if !quiesced {
		t.Fatalf("repair did not quiesce within 12 sweeps after %s", preset)
	}

	// Converged state, through a fresh client: every key reads cleanly and
	// identically twice (stability), and both reads join the history.
	vcl := history.Client{R: rec, ID: soakWorkers, C: cc.NewClient(client.Options{Strategy: client.Strategy2xR})}
	for g := 0; g < groups; g++ {
		for k := 0; k < soakKeysPerGroup; k++ {
			v1, hit1, err := vcl.Get(ctx, soakKey(g, k))
			if err != nil {
				t.Fatalf("post-heal read g%d/k%d: %v", g, k, err)
			}
			v2, hit2, err := vcl.Get(ctx, soakKey(g, k))
			if err != nil {
				t.Fatalf("post-heal re-read g%d/k%d: %v", g, k, err)
			}
			if hit1 != hit2 || !bytes.Equal(v1, v2) {
				t.Errorf("g%d/k%d unstable after repair: (%v,%q) then (%v,%q)", g, k, hit1, v1, hit2, v2)
			}
		}
	}

	// An evicted key legitimately reads as a miss, which would blunt the
	// check: the soak is sized to evict nothing.
	agg := cc.AggregateCounters()
	evictions := agg.CapacityEvictions + agg.AssocEvictions
	if evictions > 0 {
		t.Fatalf("the cell evicted %d entries: soak sizing blunts the history check", evictions)
	}
	checkRegister(t, rec, evictions)
	counters := eng.Counters()
	if len(counters) == 0 {
		t.Fatalf("%s soak fired no hazards", preset)
	}
	t.Logf("%s seed %d: hazards %v", preset, seed, counters)
}

func TestChaosSoakBrownout(t *testing.T)      { runChaosSoak(t, "brownout", 2, soakCell) }
func TestChaosSoakPartitionHeal(t *testing.T) { runChaosSoak(t, "partition-heal", 2, soakCell) }
func TestChaosSoakCorruption(t *testing.T)    { runChaosSoak(t, "corruption-soak", 2, soakCell) }
func TestChaosSoakRollingCrash(t *testing.T)  { runChaosSoak(t, "rolling-crash", 2, soakCell) }

// TestChaosSoakRollingCrashWarm is the rolling-crash soak with durable
// warm restarts: every crashed shard rejoins from its checkpoint+journal
// lineage (recovering state, miss-bounce, self-validation) instead of
// cold-empty. The same history check must hold: in particular, a
// warm-restarted replica's recovered-but-stale residents must never
// surface past the quorum as resurrections or regressed observations.
func TestChaosSoakRollingCrashWarm(t *testing.T) {
	copt := soakCell
	copt.DataDir = t.TempDir()
	runChaosSoak(t, "rolling-crash-warm", 2, copt)
}

// TestRestartLostWriteRegressionCold is the distilled rolling-crash
// lost-write flake: a SET acked by exactly {0,1} (replica 2's leg forced
// to fail), then replica 0 crashes and restarts EMPTY. Pre-fix, a quorum
// GET could collect miss(0)+miss(2) — two "agreed miss" votes for a key
// the cell acknowledged — and return a clean miss. The recovering state
// must withhold replica 0's miss vote until repair completes.
func TestRestartLostWriteRegressionCold(t *testing.T) {
	testRestartLostWriteRegression(t, Options{Shards: 3, Mode: R32})
}

// TestRestartLostWriteRegressionWarm closes the same hole from the other
// side: with a data directory, the restarted acker recovers the key from
// its journal and serves it immediately — no repair needed for the read
// to hit.
func TestRestartLostWriteRegressionWarm(t *testing.T) {
	testRestartLostWriteRegression(t, Options{Shards: 3, Mode: R32, DataDir: t.TempDir()})
}

func testRestartLostWriteRegression(t *testing.T, copt Options) {
	c := newCell(t, copt)
	cc := c.Internal()
	ctx := context.Background()
	rec := &history.Recorder{}
	cl := history.Client{C: cc.NewClient(client.Options{Strategy: client.StrategyRPC, Retries: 2}), R: rec}

	key, val := []byte("ghost"), []byte("acked-by-two")
	// Replica 2's mutation leg fails outright: the SET acks on {0,1} alone.
	cc.SetRPCFailRate(2, 1.0, 1)
	if _, err := cl.SetVersioned(ctx, key, val); err != nil {
		t.Fatalf("quorum-of-two set: %v", err)
	}
	cc.SetRPCFailRate(2, 0, 0)

	// Crash an acker and bring it back mid-recovery (RestartBegin swaps in
	// the new backend but does NOT repair yet — the window the flake lived
	// in). Every read in this window must refuse to agree-miss: a value, or
	// an error (quorum starved by the withheld vote: safe, retryable), never
	// a clean miss.
	c.Crash(0)
	if _, err := cc.RestartBegin(0); err != nil {
		t.Fatal(err)
	}
	sawHit := false
	for i := 0; i < 20; i++ {
		_, hit, err := cl.Get(ctx, key)
		sawHit = sawHit || err == nil && hit
	}
	if copt.DataDir != "" {
		// Warm: the journal already restored the key on the restarted
		// replica, so reads must succeed before any repair runs...
		if !sawHit {
			t.Fatal("warm-restarted acker never served its journaled write")
		}
		if rec := cc.Backend(0).RecoveryStatsSnapshot(); rec.RecoveredKeys == 0 {
			t.Fatal("warm restart recovered zero keys")
		}
	}

	// ...and after self-validation completes, reads hit unconditionally in
	// both variants.
	if err := cc.RestartComplete(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Get(ctx, key); err != nil {
		t.Fatalf("post-repair get: %v", err)
	}
	checkRegister(t, rec, 0)
	if cc.Backend(0).Recovering() {
		t.Fatal("recovering guard still up after RestartComplete")
	}
}

// TestRestartLostWriteUnderContention re-runs the distilled lost-write
// repro with the load profile the original flake needed: the pinned
// quorum-of-two SET goes through the crash/RestartBegin window while
// concurrent writers hammer unrelated keys (journal, stripe-lock, and
// repair contention) and concurrent readers race the ghost key. The
// historical failure mode — PR 6's baseline lost the acked write ~3/30
// only under parallel load, because an empty cold-restarted acker's miss
// vote could complete a false miss quorum exactly when scheduling delays
// let a GET land mid-restart — was fixed by the §5.4 recovering state
// (PR 8: misses withheld until self-validation). This pins the fix at
// the contention point, not just the single-threaded distillation.
func TestRestartLostWriteUnderContention(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32})
	cc := c.Internal()
	ctx := context.Background()
	rec := &history.Recorder{}
	quorumRPC := client.Options{Strategy: client.StrategyRPC, Retries: 2}
	cl := history.Client{C: cc.NewClient(quorumRPC), R: rec}

	key, val := []byte("ghost-contended"), []byte("acked-by-two")
	cc.SetRPCFailRate(2, 1.0, 1)
	if _, err := cl.SetVersioned(ctx, key, val); err != nil {
		t.Fatalf("quorum-of-two set: %v", err)
	}
	cc.SetRPCFailRate(2, 0, 0)

	c.Crash(0)
	if _, err := cc.RestartBegin(0); err != nil {
		t.Fatal(err)
	}

	// Contention writers: disjoint keys, full mutation pressure on every
	// backend (including the recovering one) for the whole window.
	writers := drive.Group{Workers: 3, Worker: func(w int) drive.Op {
		wcl := cc.NewClient(client.Options{Strategy: client.StrategyRPC, Retries: 2})
		return func(i int) (uint64, error) {
			k := []byte(fmt.Sprintf("contender-w%d-k%d", w, i%8))
			return 0, wcl.Set(ctx, k, []byte(fmt.Sprintf("w%d.s%d", w, i)))
		}
	}}
	// Racing readers on the ghost key, 90 reads between them: every
	// answered read in the window must be the acked value — an agreed miss
	// is the lost write. An error (quorum starved by the withheld vote) is
	// safe.
	readers := drive.Group{Workers: 3, Ops: 3 * 30, Worker: func(r int) drive.Op {
		rcl := history.Client{C: cc.NewClient(quorumRPC), R: rec, ID: 1 + r}
		return func(int) (uint64, error) {
			_, _, err := rcl.Get(ctx, key)
			return 0, err
		}
	}}
	drive.Run(ctx, nil, writers, readers)
	if err := cc.RestartComplete(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.Get(ctx, key); err != nil {
		t.Fatalf("post-repair get: %v", err)
	}
	checkRegister(t, rec, 0)
}

// TestChaosSoakMaintenanceStorm runs the full SET/ERASE/CAS-adjacent
// workload through repeated planned-maintenance cycles and an online
// grow-then-shrink — every seal/drain/flip window the control plane can
// open — holding the same history check and convergence after the storm.
//
// It keeps one writer per key. With two, about 1 run in 25 breaks the
// register: a CAS reports a swap against a version that an acked write had
// already superseded, and two reads that do not overlap, both concurrent
// with one SET, go backwards (ROADMAP item 1(b)).
func TestChaosSoakMaintenanceStorm(t *testing.T) { runChaosSoak(t, "maintenance-storm", 1, soakCell) }

// TestRetryBudgetExhaustion: when every retry fails, the token-bucket
// budget must cut the op off promptly with ErrExhausted — not let it
// grind through a deep retry schedule — and must not tax the first
// attempt of later ops once the fault heals.
func TestRetryBudgetExhaustion(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32})
	cc := c.Internal()
	ctx := context.Background()
	budget := client.NewRetryBudget(2, 0.001)
	cl := cc.NewClient(client.Options{
		Strategy: client.StrategySCAR,
		Retries:  100, // the budget, not the retry cap, must bind
		Budget:   budget,
	})
	key := []byte("budget-key")
	if err := cl.Set(ctx, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}

	plane := cc.Chaos()
	if err := plane.Inject(ctx, chaos.Event{Hazard: chaos.HazardRPCFail, Shard: -1, Rate: 1.0}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := cl.Set(ctx, key, []byte("v2"))
	if !errors.Is(err, client.ErrExhausted) {
		t.Fatalf("Set under total failure: got %v, want ErrExhausted", err)
	}
	if got := cl.M.BudgetDenied.Value(); got == 0 {
		t.Fatal("budget exhaustion not counted in BudgetDenied")
	}
	// Capacity 2 → at most 2 billed retries before the cutoff; with 100
	// configured retries, only the budget explains a prompt return.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("exhausted op took %v: budget did not cut off retries", elapsed)
	}
	// Bucket is empty now: the next failing op is denied on its first
	// retry, immediately.
	if err := cl.Set(ctx, key, []byte("v3")); !errors.Is(err, client.ErrExhausted) {
		t.Fatalf("second Set: got %v, want prompt ErrExhausted", err)
	}

	// Heal: first attempts are free, so an empty bucket must not block
	// healthy traffic, and successes re-credit it.
	if err := plane.Heal(ctx, chaos.Event{Hazard: chaos.HazardRPCFail, Shard: -1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set(ctx, key, []byte("v4")); err != nil {
		t.Fatalf("post-heal Set with empty budget: %v", err)
	}
	if v, ok, err := cl.Get(ctx, key); err != nil || !ok || string(v) != "v4" {
		t.Fatalf("post-heal Get: %q %v %v", v, ok, err)
	}
}

// TestBrownoutAmplificationBounded: under a 30% transient RPC failure
// rate, the quorum write path with budgeted backoff must keep total RPC
// attempts under 2× the offered legs — the retry-storm bound the paper's
// §9 outages motivate — and goodput must snap back once the fault heals.
func TestBrownoutAmplificationBounded(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32})
	cc := c.Internal()
	ctx := context.Background()
	cl := cc.NewClient(client.Options{
		Strategy: client.StrategySCAR,
		Budget:   client.NewRetryBudget(10_000, 1), // roomy: measure structural amplification, not budget cutoff
	})
	const keys = 16
	for i := 0; i < keys; i++ {
		if err := cl.Set(ctx, soakKey(9, i), []byte("warm")); err != nil {
			t.Fatal(err)
		}
	}

	plane := cc.Chaos()
	if err := plane.Inject(ctx, chaos.Event{Hazard: chaos.HazardRPCFail, Shard: -1, Rate: 0.3}); err != nil {
		t.Fatal(err)
	}
	const ops = 300
	base := cc.Net.Calls()
	failed := 0
	for i := 0; i < ops; i++ {
		if err := cl.Set(ctx, soakKey(9, i%keys), soakVal(9, i%keys, uint64(i+2))); err != nil {
			failed++
		}
	}
	attempts := cc.Net.Calls() - base
	offered := uint64(ops * 3) // one leg per replica per op
	if attempts >= 2*offered {
		t.Fatalf("brownout amplification: %d RPC attempts for %d offered legs (>= 2x)", attempts, offered)
	}
	// 30% per-leg failure with a 2-of-3 quorum rarely exhausts 5 retries;
	// the brownout should degrade, not collapse, goodput.
	if failed > ops/10 {
		t.Errorf("%d/%d ops failed under 30%% brownout (expected mostly-successful quorums)", failed, ops)
	}
	t.Logf("brownout: %d attempts / %d offered legs (%.2fx), %d failed ops",
		attempts, offered, float64(attempts)/float64(offered), failed)

	// Heal and verify recovery: every op succeeds and amplification
	// returns to ~1 (a handful of calls of slack for config refresh).
	if err := plane.Heal(ctx, chaos.Event{Hazard: chaos.HazardRPCFail, Shard: -1}); err != nil {
		t.Fatal(err)
	}
	base = cc.Net.Calls()
	const healedOps = 100
	for i := 0; i < healedOps; i++ {
		if err := cl.Set(ctx, soakKey(9, i%keys), []byte("healed")); err != nil {
			t.Fatalf("post-heal Set %d: %v", i, err)
		}
	}
	healedAttempts := cc.Net.Calls() - base
	if healedAttempts > healedOps*3+10 {
		t.Errorf("goodput did not recover: %d attempts for %d ops post-heal", healedAttempts, healedOps)
	}
}

// TestCorruptionCaughtByChecksum: flip one bit in live entries on one
// backend, then prove the §3 self-validating checksum catches EXACTLY the
// injected flips — a direct per-replica probe of the victim finds every
// damaged entry rejected and every untouched entry served — and that the
// quorum client absorbs each detection as a clean failover: the pristine
// value always comes back, every torn read pairs with a failover, and a
// rejected entry never surfaces as a miss. Overwriting cures the damage.
func TestCorruptionCaughtByChecksum(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32})
	cc := c.Internal()
	ctx := context.Background()
	cl := cc.NewClient(client.Options{Strategy: client.Strategy2xR})
	const keys = 64
	want := make(map[string][]byte, keys)
	for i := 0; i < keys; i++ {
		k := []byte(fmt.Sprintf("corr-%d", i))
		v := []byte(fmt.Sprintf("pristine-value-%d", i))
		if err := cl.Set(ctx, k, v); err != nil {
			t.Fatal(err)
		}
		want[string(k)] = v
	}

	const victim = 1
	damaged := map[string]bool{}
	for _, k := range cc.CorruptData(victim, keys, 7) {
		damaged[string(k)] = true
	}
	if len(damaged) == 0 {
		t.Fatal("corruption injected nothing")
	}

	// Per-replica witness: the victim replicates every key (3-shard
	// cohort), and its local GET decodes through the checksum. Damaged
	// entries must be rejected with an error (the replica abstains from a
	// two-sided quorum vote; a miss would vote for the zero version),
	// untouched ones served intact — detection is exact, not probabilistic.
	victimAddr := cc.Store.Get().AddrFor(victim)
	probe := cc.Net.Client(cc.Fabric.NumHosts()-1, "corruption-probe")
	probeShard := func(wantClean map[string]bool) {
		t.Helper()
		for k := range want {
			resp, _, err := probe.Call(ctx, victimAddr, proto.MethodGet, proto.GetReq{Key: []byte(k)}.Marshal())
			if !wantClean[k] {
				if err == nil {
					t.Errorf("victim replica answered damaged %q, want an error (checksum mis-detected the flip, or a miss vote)", k)
				}
				continue
			}
			if err != nil {
				t.Fatalf("probe %q: %v", k, err)
			}
			g, err := proto.UnmarshalGetResp(resp)
			if err != nil {
				t.Fatalf("probe %q: %v", k, err)
			}
			if !g.Found {
				t.Errorf("victim replica %q: not found, want its intact entry", k)
			}
			if g.Found && !bytes.Equal(g.Value, want[k]) {
				t.Errorf("victim replica served wrong bytes for %q: %q", k, g.Value)
			}
		}
	}
	clean := map[string]bool{}
	for k := range want {
		clean[k] = !damaged[k]
	}
	probeShard(clean)

	// Client-side: whichever replica the quorum read picks first, a
	// damaged copy is only ever absorbed — right value, torn paired with
	// failover, never a miss. Several rounds so the latency-ordered
	// replica choice exercises the victim plenty.
	torn0, fail0, miss0 := cl.M.TornRetries.Value(), cl.M.Failovers.Value(), cl.M.Misses.Value()
	for round := 0; round < 10; round++ {
		for k, v := range want {
			got, ok, err := cl.Get(ctx, []byte(k))
			if err != nil || !ok {
				t.Fatalf("round %d get %q: %v %v", round, k, ok, err)
			}
			if !bytes.Equal(got, v) {
				t.Fatalf("corrupted value leaked for %q: got %q want %q", k, got, v)
			}
		}
	}
	torn := cl.M.TornRetries.Value() - torn0
	fails := cl.M.Failovers.Value() - fail0
	if torn == 0 {
		t.Errorf("no read ever hit the %d damaged entries in 10 rounds", len(damaged))
	}
	if torn != fails {
		t.Errorf("accounting drift: torn=%d failovers=%d (every detection must be absorbed by exactly one failover)", torn, fails)
	}
	if d := cl.M.Misses.Value() - miss0; d != 0 {
		t.Errorf("%d misses during corruption reads (rejection must fail over, not miss)", d)
	}
	t.Logf("corruption: %d/%d entries damaged, torn=%d failovers=%d over 10 rounds", len(damaged), keys, torn, fails)

	// Overwrite cures: fresh SETs replace the damaged bytes, the victim
	// serves everything again, and reads stop tearing.
	for k := range damaged {
		want[k] = append([]byte("cured-"), k...)
		if err := cl.Set(ctx, []byte(k), want[k]); err != nil {
			t.Fatalf("curing set %q: %v", k, err)
		}
	}
	for k := range clean {
		clean[k] = true
	}
	probeShard(clean)
	tornBefore := cl.M.TornRetries.Value()
	for k, v := range want {
		got, ok, err := cl.Get(ctx, []byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("post-cure get %q: %q %v %v", k, got, ok, err)
		}
	}
	if d := cl.M.TornRetries.Value() - tornBefore; d != 0 {
		t.Errorf("%d torn reads after overwrite cure (corruption should be gone)", d)
	}
}

// TestEvictedTombstoneResurrection is the distilled §5.2 residual: a key
// erased with quorum {0,1} (replica 2's leg forced to fail) whose
// tombstone is then churned out of the ackers' exact caches by unrelated
// erases. Before the pending-settle queue, the evicted tombstone
// collapsed straight into the coarse summary — invisible to repair, which
// stayed dominated-neutral while replica 2 kept the stale value — and two
// cold restarts of the ackers later, repair settled that stale value back
// onto the cohort: a resurrection of an acked erase. The pending queue
// keeps the evicted tombstone enumerable, so the repair sweep folds the
// erase back into cohort scans and re-erases replica 2 first.
func TestEvictedTombstoneResurrection(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32, TombstoneCap: 2})
	cc := c.Internal()
	ctx := context.Background()
	cl := cc.NewClient(client.Options{Strategy: client.StrategyRPC, Retries: 2})

	key := []byte("lazarus")
	if err := cl.Set(ctx, key, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	// Replica 2's mutation leg fails outright: the ERASE acks on {0,1}.
	cc.SetRPCFailRate(2, 1.0, 1)
	if err := cl.Erase(ctx, key); err != nil {
		t.Fatalf("quorum-of-two erase: %v", err)
	}
	cc.SetRPCFailRate(2, 0, 0)

	// Churn unrelated erases through the cohort until the key's tombstone
	// is evicted from the ackers' exact caches (cap 2) — but not so many
	// that it also overflows the pending-settle queue.
	for i := 0; i < 3; i++ {
		fk := []byte(fmt.Sprintf("filler-%d", i))
		if err := cl.Set(ctx, fk, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := cl.Erase(ctx, fk); err != nil {
			t.Fatal(err)
		}
	}

	// The repair sweep that must fold the evicted-but-pending tombstone
	// back into cohort scans and complete the erase on replica 2.
	if _, err := cc.RepairAll(ctx); err != nil {
		t.Fatal(err)
	}

	// Cold-restart both ackers in turn: their tombstone caches AND coarse
	// summaries are wiped. Pre-fix, after the second restart the only
	// surviving view of the key was replica 2's stale value, and repair
	// settled it back cohort-wide.
	for _, s := range []int{0, 1} {
		c.Crash(s)
		if err := cc.Restart(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cc.RepairAll(ctx); err != nil {
		t.Fatal(err)
	}

	if got, hit, err := cl.Get(ctx, key); err != nil || hit {
		t.Fatalf("acked erase resurrected: got %q hit=%v err=%v", got, hit, err)
	}
}
