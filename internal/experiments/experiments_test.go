package experiments

import (
	"strings"
	"testing"

	"cliquemap/internal/core/client"
)

func TestResultFormat(t *testing.T) {
	r := Result{
		Name: "figX", Title: "test",
		Rows: []Row{
			{Label: "a", Cols: []Col{{Name: "v", Value: 1.5, Unit: "us"}}},
			{Label: "bbbb", Cols: []Col{{Name: "v", Value: 2000, Unit: "ops/s"}}},
		},
		Notes: "note",
	}
	out := r.Format()
	for _, want := range []string{"figX", "test", "a", "bbbb", "note", "1.5us", "2.0Kops/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains((Result{Name: "e", Title: "t"}).Format(), "(no rows)") {
		t.Error("empty result format")
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"3", "fig3", "FIG11", "20", "resize", "tier", "loadwall", "hotkey"} {
		if _, ok := ByName(n); !ok {
			t.Errorf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("99"); ok {
		t.Error("bogus figure resolved")
	}
	if len(All()) != 21 {
		t.Errorf("All() = %d experiments", len(All()))
	}
}

// TestFig10 runs the cheapest experiment end-to-end and checks Figure 10's
// qualitative shape: CDFs are monotone, Geo skews smaller than Ads.
func TestFig10(t *testing.T) {
	r := Fig10SizeCDF()
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	prevAds, prevGeo := 0.0, 0.0
	for _, row := range r.Rows {
		ads, geo := row.Cols[0].Value, row.Cols[1].Value
		if ads < prevAds || geo < prevGeo {
			t.Errorf("CDF not monotone at %s", row.Label)
		}
		prevAds, prevGeo = ads, geo
	}
	// At 1KB Geo should be further along than Ads.
	for _, row := range r.Rows {
		if row.Label == "1024B" && row.Cols[1].Value <= row.Cols[0].Value {
			t.Errorf("Geo CDF at 1KB (%v) should exceed Ads (%v)", row.Cols[1].Value, row.Cols[0].Value)
		}
	}
}

// TestFig7Shape checks Figure 7's ordering claims without running the full
// harness elsewhere: SCAR is cheaper than 2×R on pony CPU; MSG is the most
// expensive pony path.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	r := Fig7LookupCPU()
	vals := map[string]map[string]float64{}
	for _, row := range r.Rows {
		vals[row.Label] = map[string]float64{}
		for _, c := range row.Cols {
			vals[row.Label][c.Name] = c.Value
		}
	}
	if !(vals["SCAR"]["pony"] < vals["2xR"]["pony"]) {
		t.Errorf("SCAR pony CPU %v not below 2xR %v", vals["SCAR"]["pony"], vals["2xR"]["pony"])
	}
	if !(vals["MSG"]["pony"] > vals["SCAR"]["pony"]) {
		t.Errorf("MSG pony CPU %v not above SCAR %v", vals["MSG"]["pony"], vals["SCAR"]["pony"])
	}
}

// TestFig11Shape: R=3.2 stays near 1x under single-server load; R=1
// inflates.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	r := Fig11Preferred()
	var r32, r1 float64
	for _, row := range r.Rows {
		if strings.HasPrefix(row.Label, "R=3.2 loaded") {
			r32 = row.Cols[0].Value
		}
		if strings.HasPrefix(row.Label, "R=1 loaded") {
			r1 = row.Cols[0].Value
		}
	}
	if r32 == 0 || r1 == 0 {
		t.Fatalf("missing rows: %+v", r.Rows)
	}
	if r1 <= r32 {
		t.Errorf("R=1 loaded p50 (%.2fx) should exceed R=3.2 loaded (%.2fx)", r1, r32)
	}
	if r32 > 2.0 {
		t.Errorf("R=3.2 loaded p50 = %.2fx; preferred backend should nearly hide the antagonist", r32)
	}
}

// TestFigWarmRestartShape: the durable warm restart must be
// journal-replay-bound, not repair-bound — the restarted task serves
// ≥99% of its pre-crash corpus before any repair runs, and the repair
// traffic its cohort pushes drops ≥10× versus a cold restart.
func TestFigWarmRestartShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	r := FigWarmRestart()
	var cold, warm *Row
	for i := range r.Rows {
		switch r.Rows[i].Label {
		case "cold-restart":
			cold = &r.Rows[i]
		case "warm-restart":
			warm = &r.Rows[i]
		}
	}
	if cold == nil || warm == nil {
		t.Fatalf("missing rows: %+v", r.Rows)
	}
	col := func(row *Row, name string) float64 {
		for _, c := range row.Cols {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("row %s missing col %s", row.Label, name)
		return 0
	}
	if served := col(warm, "precrash_served"); served < 99 {
		t.Errorf("warm restart served %.1f%% of pre-crash corpus pre-repair, want >= 99%%", served)
	}
	if served := col(cold, "precrash_served"); served != 0 {
		t.Errorf("cold restart served %.1f%% pre-repair; an empty task should serve nothing", served)
	}
	coldRep, warmRep := col(cold, "repairs"), col(warm, "repairs")
	if coldRep == 0 {
		t.Fatal("cold restart issued zero repairs; the baseline is broken")
	}
	if coldRep < 10*(warmRep+1) {
		t.Errorf("repair traffic: cold=%v warm=%v, want >= 10x drop", coldRep, warmRep)
	}
	if col(warm, "recovered_from_disk") == 0 {
		t.Error("warm restart recovered nothing from disk")
	}
}

// TestFig12Shape: with 64KB values SCAR loses its advantage (the incast
// crossover).
func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	r := Fig12Incast()
	vals := map[string]float64{}
	for _, row := range r.Rows {
		vals[row.Label] = row.Cols[0].Value
	}
	if !(vals["SCAR no-load"] > vals["2xR no-load"]) {
		t.Errorf("64KB values: SCAR p50 (%v) should lag 2xR (%v)", vals["SCAR no-load"], vals["2xR no-load"])
	}
}

// TestFig3Shape: reshaping saves memory at launch and tracks the corpus
// shrink.
func TestFig3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	r := Fig3Reshaping()
	if len(r.Rows) != 13 {
		t.Fatalf("weeks = %d", len(r.Rows))
	}
	week1 := r.Rows[0].Cols[0].Value
	week5 := r.Rows[4].Cols[0].Value
	week13 := r.Rows[12].Cols[0].Value
	if !(week5 < week1) {
		t.Errorf("reshaping launch did not save memory: %v -> %v", week1, week5)
	}
	if !(week13 < week5) {
		t.Errorf("corpus shrink did not reduce memory: %v -> %v", week5, week13)
	}
	if week13 > 0.7*week1 {
		t.Errorf("total savings too small: %v of %v", week13, week1)
	}
}

// TestFig6Shape: the language ordering of Figure 6 — cpp dominates; python
// is an order of magnitude behind go/java.
func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	r := Fig6Languages()
	rate := map[string]float64{}
	cpu := map[string]float64{}
	for _, row := range r.Rows {
		for _, c := range row.Cols {
			switch c.Name {
			case "op_rate":
				rate[row.Label] = c.Value
			case "cpu/op":
				cpu[row.Label] = c.Value
			}
		}
	}
	if !(rate["cpp"] > rate["go"] && rate["go"] > rate["py"]) {
		t.Errorf("op rate ordering wrong: %v", rate)
	}
	if rate["cpp"] < 5*rate["go"] {
		t.Errorf("cpp (%f) should be far ahead of go (%f)", rate["cpp"], rate["go"])
	}
	if cpu["py"] < 5*cpu["java"] {
		t.Errorf("python CPU (%f) should dwarf java (%f)", cpu["py"], cpu["java"])
	}
}

// TestFig15Shape: engines scale out as the ramp progresses.
func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	if raceEnabled {
		// The ramp's "max" step relies on real wall-clock op rates crossing
		// the engine scale-out threshold; the race detector's slowdown keeps
		// even the max step below it. Scale-out mechanics are covered by
		// internal/pony under -race.
		t.Skip("load ramp is calibrated to wall-clock rates")
	}
	r := Fig15PonyRamp()
	first := r.Rows[0].Cols[len(r.Rows[0].Cols)-1].Value
	last := r.Rows[len(r.Rows)-1].Cols[len(r.Rows[len(r.Rows)-1].Cols)-1].Value
	if last <= first {
		t.Errorf("engines did not scale out: %v -> %v", first, last)
	}
	if last < 2 {
		t.Errorf("peak engines %v; expected multi-engine scale-out", last)
	}
}

// TestFig16and17Shape: 1RMA hardware latency is load-insensitive while
// end-to-end latency is worst at the idle rate (C-states).
func TestFig16and17Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	hw := Fig16OneRMAHW()
	lo := hw.Rows[0].Cols[0].Value
	hi := hw.Rows[len(hw.Rows)-1].Cols[0].Value
	if hi > 2*lo {
		t.Errorf("hw latency doubled across the ramp: %v -> %v", lo, hi)
	}
	get := Fig17OneRMAGet()
	idle := get.Rows[0].Cols[0].Value
	warm := get.Rows[len(get.Rows)-1].Cols[0].Value
	if idle <= warm {
		t.Errorf("C-state inversion missing: idle p50 %v <= warm p50 %v", idle, warm)
	}
}

// TestFig19Shape: backend CPU falls as the GET fraction rises.
func TestFig19Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	r := Fig19MixCPU()
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Modelled backend CPU per op: cpu-s/s (Cols[0]) divides the same CPU
	// by wall seconds, and one slow row on a loaded machine reorders it.
	const perOp = 1
	if r.Rows[0].Cols[perOp].Name != "cpu_per_op" {
		t.Fatalf("cols: %+v", r.Rows[0].Cols)
	}
	a, b, c := r.Rows[0].Cols[perOp].Value, r.Rows[1].Cols[perOp].Value, r.Rows[2].Cols[perOp].Value
	if !(a > b && b > c) {
		t.Errorf("CPU per op not monotone in GET fraction: %v %v %v", a, b, c)
	}
	if a < 2*c {
		t.Errorf("write-heavy CPU (%v) should far exceed read-heavy (%v)", a, c)
	}
}

// TestFigResizeShape: GET p50 stays flat while the cell resizes 4->6->4
// under mixed load — reads stay on RMA throughout; only the tail pays
// for config refreshes. The zero-lost-acked-writes invariant is checked
// inside FigResize itself (a loss panics the run).
func TestFigResizeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	r := FigResize()
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base := r.Rows[0].Cols[0].Value
	if v := r.Rows[1].Cols[0].Value; v < base {
		base = v
	}
	for _, row := range r.Rows {
		if row.Cols[0].Value > 1.5*base {
			t.Errorf("GET p50 not flat across resize: %s = %.1fus vs baseline %.1fus",
				row.Label, row.Cols[0].Value, base)
		}
	}
}

// TestFig20Shape: latency flat for small values, rising at 16KB.
func TestFig20Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	r := Fig20ValueSize()
	p50 := func(i int) float64 { return r.Rows[i].Cols[0].Value }
	if p50(2) > 1.5*p50(0) {
		t.Errorf("small-value latency not flat: %v vs %v", p50(0), p50(2))
	}
	if p50(3) < 1.3*p50(0) {
		t.Errorf("16KB latency (%v) should exceed 32B (%v)", p50(3), p50(0))
	}
}

// TestFigLoadWallShape: the knee search finds a wall above the starting
// load for both an RMA strategy and the RPC path, and the saturation
// plane names a limiting resource. A cheap profile (short steps, fewer
// bisections) keeps this in unit-test budget; the published figure uses
// the full profile.
func TestFigLoadWallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	prof := loadwallProfile{stepDurNs: 100e6, bisect: 2, workers: 8}
	cases := []loadwallCase{
		{label: "SCAR 128B", strategy: client.StrategySCAR, valSize: 128, getFrac: 1,
			slowNIC: true, latObjNs: 4_000_000, startQPS: 2000, maxQPS: 64_000, clientHosts: 8},
		{label: "RPC 128B", strategy: client.StrategyRPC, valSize: 128, getFrac: 1,
			rpcTight: true, latObjNs: 4_000_000, startQPS: 1500, maxQPS: 64_000, clientHosts: 8},
	}
	r := figLoadWallWith(cases, prof)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The search runs against the wall clock; on a box busy with other
	// test packages (or under -race) scheduler starvation can fail even
	// the floor step twice. One whole-row retry keeps the test about the
	// harness's shape, not the CI machine's load average.
	for i, row := range r.Rows {
		if len(row.Cols) > 0 && row.Cols[0].Value <= 0 {
			retry := figLoadWallWith(cases[i:i+1], prof)
			if len(retry.Rows) == 1 {
				r.Rows[i] = retry.Rows[0]
			}
		}
	}
	for _, row := range r.Rows {
		if len(row.Cols) != 5 {
			t.Fatalf("%s: cols = %d, want 5", row.Label, len(row.Cols))
		}
		knee := row.Cols[0]
		if knee.Name != "knee" || knee.Unit != "qps" {
			t.Fatalf("%s: first col = %+v, want knee/qps", row.Label, knee)
		}
		if knee.Value <= 0 {
			t.Errorf("%s: no sustainable load found (knee=%.0f)", row.Label, knee.Value)
		}
		if p50, p999 := row.Cols[1].Value, row.Cols[3].Value; p999 < p50 {
			t.Errorf("%s: p99.9 %.1fus < p50 %.1fus", row.Label, p999, p50)
		}
		if lim := row.Cols[4]; lim.Name != "limit" || lim.Text == "" || lim.Text == "none" {
			t.Errorf("%s: wall not named: %+v", row.Label, lim)
		}
	}
}

// TestFigHotKeyShape pins the hot-key adaptive-serving acceptance gate on
// the demonstrating pair (24K values, past the Fig 20 steering crossover):
// adaptive GET p99.9 must be at most half the fixed-SCAR baseline's, every
// row must report zero lost acked writes, the near-cache and promotion
// machinery must actually engage on adaptive rows, and steering must fire
// only past the crossover. The 4K pair's baseline tail is collision-driven
// and not reliably present, so the latency gate anchors on 24K.
func TestFigHotKeyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-figure run")
	}
	r := FigHotKey()
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	col := func(row Row, name string) float64 {
		for _, c := range row.Cols {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("%s: no column %q", row.Label, name)
		return 0
	}
	for _, row := range r.Rows {
		if lost := col(row, "lost"); lost != 0 {
			t.Errorf("%s: %v lost acked writes", row.Label, lost)
		}
		adaptive := strings.HasPrefix(row.Label, "adaptive")
		if adaptive {
			if col(row, "nearhit%") <= 0 {
				t.Errorf("%s: near-cache never served", row.Label)
			}
			if col(row, "promoted") <= 0 {
				t.Errorf("%s: no keys promoted", row.Label)
			}
		} else {
			if col(row, "nearhit%") != 0 || col(row, "steered") != 0 {
				t.Errorf("%s: fixed row used adaptive machinery: %+v", row.Label, row.Cols)
			}
		}
	}
	if v := col(r.Rows[1], "steered"); v != 0 {
		t.Errorf("adaptive-4K steered %v reads below the crossover", v)
	}
	if v := col(r.Rows[3], "steered"); v <= 0 {
		t.Error("adaptive-24K never steered past the crossover")
	}
	// The latency gate, with one whole-pair retry: the baseline tail is a
	// real collision phenomenon, so a quiet machine-load fluke on a single
	// rep should not fail the shape test.
	gate := func(fixed, adaptive Row) bool {
		return col(adaptive, "p99.9") <= 0.5*col(fixed, "p99.9")
	}
	if !gate(r.Rows[2], r.Rows[3]) {
		retry := FigHotKey()
		if !gate(retry.Rows[2], retry.Rows[3]) {
			t.Errorf("adaptive-24K p99.9 %vus not <= 0.5x fixed %vus (retry: %vus vs %vus)",
				col(r.Rows[3], "p99.9"), col(r.Rows[2], "p99.9"),
				col(retry.Rows[3], "p99.9"), col(retry.Rows[2], "p99.9"))
		}
	}
}
