// Geo-style serving at fleet scale (§2, §7.1): three regional cells
// behind the federation tier's consistent-hash router, with road-segment
// traffic estimates read by diurnal query streams that follow the sun —
// each region peaks a third of a synthetic day apart — while a model
// pipeline continuously refreshes the corpus through the tier.
//
// The example compresses each day into a few hundred milliseconds and
// walks the three production events the tier exists for:
//
//   - day 1: steady state — every region serves its diurnal curve, reads
//     for remotely-owned segments ride the stale-bounded follower path;
//   - day 2: the EU cell is resized 3→4 shards mid-day (riding the
//     two-epoch resize protocol) and re-weighted to match, then a US
//     brownout pages its health plane and the router demotes it with
//     hysteresis — traffic shifts with bounded key movement;
//   - day 3: the Asia cell is killed outright; the router routes around
//     it and every acked write stays readable.
//
// The process exits non-zero if any invariant breaks: an acked write
// lost, a rebalance moving more than ~1/N of the keyspace, or keys
// moving between cells the event did not touch.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"cliquemap"
	"cliquemap/internal/chaos"
	"cliquemap/internal/health"
	"cliquemap/internal/workload"
)

const (
	segments = 1200
	dayWall  = 300 * time.Millisecond // one compressed day
	peakQPS  = 300                    // route queries per day per region at peak
)

var regions = []string{"us", "eu", "asia"}

func main() {
	// Health windows shrunk to the compressed-day scale so a brownout
	// pages within a few prober rounds (the production defaults span
	// virtual hours).
	tinyHealth := health.Config{
		FastWindowNs: uint64(20 * time.Millisecond),
		SlowWindowNs: uint64(200 * time.Millisecond),
		BucketNs:     uint64(1 * time.Millisecond),
	}
	var cellOpts []cliquemap.TierCellOptions
	for _, r := range regions {
		cellOpts = append(cellOpts, cliquemap.TierCellOptions{
			Name: r,
			Options: cliquemap.Options{
				Shards: 3, Spares: 2, Mode: cliquemap.R32,
				Eviction: "arc", // road segments have strong recency+frequency structure
				Health:   tinyHealth,
			},
		})
	}
	tier, err := cliquemap.NewTier(cliquemap.TierOptions{Cells: cellOpts})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// The model pipeline owns writes; it routes through the tier and
	// records the last acked value per segment — the oracle for the
	// zero-lost-acked-writes audit.
	updater, err := tier.NewClient(cliquemap.TierClientOptions{Local: "us"})
	if err != nil {
		log.Fatal(err)
	}
	acked := make(map[int]string, segments)
	refresh := func(i int, tag string) {
		v := fmt.Sprintf("%s-seg%d", tag, i)
		if err := updater.Set(ctx, []byte(workload.Key(uint64(i))), []byte(v)); err == nil {
			acked[i] = v
		}
	}
	for i := 0; i < segments; i++ {
		refresh(i, "seed")
	}

	// One navigation-serving client per region, co-located with its
	// cell: remotely-owned segments ride the follower path, bounded at
	// 40ms staleness on a corpus refreshed far slower than that matters.
	readers := map[string]*cliquemap.TierClient{}
	diurnals := map[string]workload.Diurnal{}
	for i, r := range regions {
		rd, err := tier.NewClient(cliquemap.TierClientOptions{
			Local: r, FollowerReads: true, StaleBound: 40 * time.Millisecond,
		})
		if err != nil {
			log.Fatal(err)
		}
		readers[r] = rd
		// The sun: each region's peak lands a third of a day after the
		// previous one's.
		diurnals[r] = workload.Diurnal{
			Base: peakQPS, PeakRatio: 3, Day: dayWall,
			Phase: float64(i) / float64(len(regions)),
		}
	}
	keys := workload.NewZipfKeys(segments, 1.05, 11)
	start := time.Now()

	// runDay drives one compressed day of sun-following load plus the
	// steady refresh stream.
	runDay := func(day int) {
		dayStart := time.Now()
		queries, updates := 0, 0
		seg := 0
		for time.Since(dayStart) < dayWall {
			for _, r := range regions {
				rate := diurnals[r].Rate(time.Since(start))
				// Each region reads in proportion to its local hour.
				n := int(rate/float64(peakQPS)*3 + 0.5)
				for q := 0; q < n; q++ {
					key := []byte(workload.Key(keys.Next()))
					if _, _, err := readers[r].Get(ctx, key); err != nil {
						log.Fatalf("day %d: %s read: %v", day, r, err)
					}
					queries++
				}
			}
			refresh(seg%segments, fmt.Sprintf("d%d", day))
			seg++
			updates++
			time.Sleep(time.Millisecond)
		}
		fmt.Printf("day %d: %4d route queries, %4d segment updates\n", day, queries, updates)
	}

	// owners snapshots the ring's view of every segment.
	owners := func() map[int]string {
		m := make(map[int]string, segments)
		for i := 0; i < segments; i++ {
			m[i] = tier.Owner([]byte(workload.Key(uint64(i))))
		}
		return m
	}
	// auditMove verifies a rebalance event: ≤ maxFrac of segments moved,
	// and every move came from the affected cell.
	auditMove := func(event string, before, after map[int]string, from string, maxFrac float64) {
		moved := 0
		for i := 0; i < segments; i++ {
			if before[i] != after[i] {
				moved++
				if before[i] != from {
					fmt.Printf("FAIL: %s moved segment %d from untouched cell %s\n", event, i, before[i])
					os.Exit(1)
				}
			}
		}
		frac := float64(moved) / segments
		fmt.Printf("%s: remapped %.1f%% of segments (bound %.1f%%), all from %s\n",
			event, 100*frac, 100*maxFrac, from)
		if frac > maxFrac {
			fmt.Printf("FAIL: %s moved %.3f of keyspace, bound %.3f\n", event, frac, maxFrac)
			os.Exit(1)
		}
	}

	// Day 1: steady state.
	runDay(1)

	// Day 2, first half: EU gains capacity mid-day — an online 3→4 shard
	// resize inside the cell, then a matching router re-weight. The
	// re-weight moves keys INTO eu only; intra-cell movement is the
	// resize protocol's business, invisible up here.
	if err := tier.Cell("eu").Resize(ctx, 4); err != nil {
		log.Fatalf("eu resize: %v", err)
	}
	before := owners()
	tier.SetWeight("eu", 4.0/3)
	after := owners()
	moved := 0
	for i := 0; i < segments; i++ {
		if before[i] != after[i] {
			moved++
			if after[i] != "eu" {
				fmt.Printf("FAIL: eu re-weight moved segment %d to %s\n", i, after[i])
				os.Exit(1)
			}
		}
	}
	fmt.Printf("eu resized 3->4 shards, re-weighted 1.00->1.33: pulled in %.1f%% of segments\n",
		100*float64(moved)/segments)
	runDay(2)

	// Day 2, second half: a US brownout pages its health plane; the
	// router demotes it with hysteresis and sheds most of its range.
	usChaos := tier.Cell("us").Chaos()
	if err := usChaos.Inject(ctx, chaos.Event{Hazard: chaos.HazardBrownout, Shard: -1, Delay: uint64(2 * time.Millisecond)}); err != nil {
		fmt.Println("FAIL:", err)
		os.Exit(1)
	}
	before = owners()
	demoted := false
	for round := 0; round < 60 && !demoted; round++ {
		tier.ProbeRound(ctx)
		for _, c := range tier.Snapshot().Cells {
			if c.Name == "us" && c.Demoted {
				demoted = true
			}
		}
	}
	if !demoted {
		fmt.Println("FAIL: paged us cell was never demoted")
		os.Exit(1)
	}
	// The demotion sheds ~3/4 of us's ~29% share; the 1/N+slack bound
	// still holds because only us's own arcs move.
	auditMove("us demotion", before, owners(), "us", 1.0/3+0.05)

	// Heal: probes must run clean for HealHold rounds before the router
	// restores full weight — no flapping on the first good round.
	if err := usChaos.Heal(ctx, chaos.Event{Hazard: chaos.HazardBrownout, Shard: -1}); err != nil {
		fmt.Println("FAIL:", err)
		os.Exit(1)
	}
	restored := false
	for round := 0; round < 400 && !restored; round++ {
		tier.ProbeRound(ctx)
		for _, c := range tier.Snapshot().Cells {
			if c.Name == "us" && !c.Demoted && c.WeightMilli == 1000 {
				restored = true
			}
		}
	}
	if !restored {
		fmt.Println("FAIL: healed us cell never restored to full weight")
		os.Exit(1)
	}
	fmt.Printf("us healed and restored to full weight (ring v%d)\n", tier.RingVersion())

	// Day 3: Asia dies. The writer keeps streaming; failed ops push the
	// cell over the dead threshold and re-route, so every ack still
	// names a live owner.
	before = owners()
	for s := 0; s < 3; s++ {
		tier.Cell("asia").Crash(s)
	}
	runDay(3)
	asiaDead := false
	for _, c := range tier.Snapshot().Cells {
		if c.Name == "asia" && c.State == "dead" && c.WeightMilli == 0 {
			asiaDead = true
		}
	}
	if !asiaDead {
		fmt.Println("FAIL: killed asia cell not marked dead")
		os.Exit(1)
	}
	auditMove("asia kill", before, owners(), "asia", 1.0/3+0.05)

	// Full refresh so every segment's last ack postdates the kill, then
	// the audit: every acked write must read back exactly (through the
	// updater — no follower cache in the loop).
	for i := 0; i < segments; i++ {
		refresh(i, "final")
	}
	lost := 0
	for i, want := range acked {
		val, found, err := updater.Get(ctx, []byte(workload.Key(uint64(i))))
		if err != nil || !found || string(val) != want {
			lost++
		}
	}
	if lost > 0 {
		fmt.Printf("FAIL: %d acked writes lost after asia kill\n", lost)
		os.Exit(1)
	}

	st := readers["eu"].Stats()
	fmt.Printf("\nzero acked writes lost across resize, demotion, and cell kill\n")
	fmt.Printf("eu reader: %d ops, follower hits=%d revalidations=%d refreshes=%d misses=%d\n",
		st.Ops, st.FollowerHits, st.FollowerRevalids, st.FollowerRefreshes, st.FollowerMisses)
	var ops, reroutes, failovers uint64
	for _, r := range regions {
		s := readers[r].Stats()
		ops, reroutes, failovers = ops+s.Ops, reroutes+s.Reroutes, failovers+s.DeadFailovers
	}
	u := updater.Stats()
	ops, reroutes, failovers = ops+u.Ops, reroutes+u.Reroutes, failovers+u.DeadFailovers
	fmt.Printf("all clients: %d ops, reroutes=%d dead-failovers=%d\n", ops, reroutes, failovers)
	fmt.Printf("final ring v%d\n", tier.RingVersion())
}
