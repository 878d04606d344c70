package health

import "testing"

// fakeClock is a settable virtual clock.
type fakeClock struct{ ns uint64 }

func (f *fakeClock) now() uint64 { return f.ns }

func testConfig() Config {
	return Config{
		FastWindowNs: 100,
		SlowWindowNs: 1000,
		BucketNs:     10,
		Objectives: []Objective{
			{Class: "GET", Availability: 0.999, LatencyNs: 1000},
		},
	}
}

func classOf(t *testing.T, s Snapshot, name string) ClassStatus {
	t.Helper()
	c, ok := s.Class(name)
	if !ok {
		t.Fatalf("class %s missing from snapshot %+v", name, s)
	}
	return c
}

// TestBurnRateWindows checks the window algebra: with both windows seeing
// the same (partially filled) history the burn rates agree; once the fast
// window slides past an incident, the slow window still remembers it.
func TestBurnRateWindows(t *testing.T) {
	clk := &fakeClock{}
	p := NewPlane(testConfig(), clk.now)

	// 30% failures over 50ns: both windows see the identical samples, so
	// their burn rates must be equal — burn = 0.30 / 0.001 = 300.
	for i := 0; i < 100; i++ {
		clk.ns = uint64(i) / 2
		p.Record("GET", 10, i%10 < 3)
	}
	clk.ns = 50
	c := classOf(t, p.Evaluate(), "GET")
	if c.FastBurnMilli != c.SlowBurnMilli {
		t.Fatalf("partially filled windows disagree: fast %d, slow %d milli", c.FastBurnMilli, c.SlowBurnMilli)
	}
	if c.FastBurnMilli < 250_000 || c.FastBurnMilli > 350_000 {
		t.Fatalf("burn = %d milli, want ≈300 000", c.FastBurnMilli)
	}

	// Heal: pure successes for one fast window. Fast burn drops to zero;
	// slow burn stays elevated because the slow window still covers the
	// incident.
	for i := 0; i < 100; i++ {
		clk.ns = 50 + uint64(i)*2
		p.Record("GET", 10, false)
	}
	clk.ns = 260 // the fast window [160,260] is entirely post-incident
	c = classOf(t, p.Evaluate(), "GET")
	if c.FastBurnMilli != 0 {
		t.Fatalf("fast burn = %d milli after clean fast window, want 0", c.FastBurnMilli)
	}
	if c.SlowBurnMilli == 0 {
		t.Fatalf("slow burn forgot the incident inside its window")
	}

	// Slide past the slow window too: everything clears.
	clk.ns = 2000
	p.Record("GET", 10, false)
	c = classOf(t, p.Evaluate(), "GET")
	if c.FastBurnMilli != 0 || c.SlowBurnMilli != 0 {
		t.Fatalf("burns = %d/%d milli after full window slide, want 0/0", c.FastBurnMilli, c.SlowBurnMilli)
	}
}

// TestAlertStateMachine walks ok → warn → page → clear and checks the
// hysteresis: a page holds until burn falls below clearFactor×pageBurn,
// and it must clear within one fast window of a heal (hence well inside
// one slow window).
func TestAlertStateMachine(t *testing.T) {
	clk := &fakeClock{}
	p := NewPlane(testConfig(), clk.now)

	// Healthy baseline.
	for i := 0; i < 50; i++ {
		clk.ns = uint64(i)
		p.Record("GET", 10, false)
	}
	clk.ns = 50
	if c := classOf(t, p.Evaluate(), "GET"); c.State != Ok {
		t.Fatalf("healthy state = %v, want ok", c.State)
	}

	// Brownout: 50% failures — burn 500 on both windows → page.
	for i := 0; i < 40; i++ {
		clk.ns = 50 + uint64(i)
		p.Record("GET", 10, i%2 == 0)
	}
	clk.ns = 90
	c := classOf(t, p.Evaluate(), "GET")
	if c.State != Page {
		t.Fatalf("brownout state = %v (burns %d/%d milli), want page", c.State, c.FastBurnMilli, c.SlowBurnMilli)
	}
	if c.Pages != 1 {
		t.Fatalf("pages = %d, want 1", c.Pages)
	}
	pagedAt := c.SinceNs

	// Immediately after heal the fast window still covers the incident:
	// the page must hold (hysteresis, no flapping).
	for i := 0; i < 20; i++ {
		clk.ns = 90 + uint64(i)
		p.Record("GET", 10, false)
	}
	clk.ns = 110
	c = classOf(t, p.Evaluate(), "GET")
	if c.State != Page {
		t.Fatalf("state = %v just after heal (fast window still dirty), want page held", c.State)
	}
	if c.SinceNs != pagedAt {
		t.Fatalf("page SinceNs moved from %d to %d without a transition", pagedAt, c.SinceNs)
	}

	// One fast window after the heal the fast burn is clean → page exits.
	for i := 0; i < 30; i++ {
		clk.ns = 110 + uint64(i)*4
		p.Record("GET", 10, false)
	}
	clk.ns = 230
	c = classOf(t, p.Evaluate(), "GET")
	if c.State == Page {
		t.Fatalf("page still held one fast window after heal (burns %d/%d milli)", c.FastBurnMilli, c.SlowBurnMilli)
	}
	if c.State != Ok {
		t.Fatalf("state = %v after clean fast window, want ok", c.State)
	}
}

// TestWarnBeforePage checks the intermediate severity: a burn above
// warnBurn but below pageBurn warns without paging.
func TestWarnBeforePage(t *testing.T) {
	clk := &fakeClock{}
	p := NewPlane(testConfig(), clk.now)
	// 0.5% failures: burn = 0.005/0.001 = 5 — above warn (3), below page
	// (14.4).
	for i := 0; i < 1000; i++ {
		clk.ns = uint64(i) / 20
		p.Record("GET", 10, i%200 == 0)
	}
	clk.ns = 50
	c := classOf(t, p.Evaluate(), "GET")
	if c.State != Warn {
		t.Fatalf("state = %v (burns %d/%d milli), want warn", c.State, c.FastBurnMilli, c.SlowBurnMilli)
	}
	if c.Pages != 0 || c.Warns != 1 {
		t.Fatalf("pages/warns = %d/%d, want 0/1", c.Pages, c.Warns)
	}
}

// TestLatencySLO checks that slow successes burn budget: ops above the
// class latency threshold count as bad even with no errors at all.
func TestLatencySLO(t *testing.T) {
	clk := &fakeClock{}
	p := NewPlane(testConfig(), clk.now)
	for i := 0; i < 100; i++ {
		clk.ns = uint64(i)
		p.Record("GET", 5000, false) // 5µs > 1µs threshold
	}
	clk.ns = 100
	c := classOf(t, p.Evaluate(), "GET")
	if c.State != Page {
		t.Fatalf("all-slow state = %v, want page", c.State)
	}
	if c.Bad != 100 || c.Good != 0 {
		t.Fatalf("good/bad = %d/%d, want 0/100", c.Good, c.Bad)
	}
}

// TestEmptyWindowsStayOk checks the degenerate cases: no samples at all,
// and a clock jump far past the ring.
func TestEmptyWindowsStayOk(t *testing.T) {
	clk := &fakeClock{}
	p := NewPlane(testConfig(), clk.now)
	if c := classOf(t, p.Evaluate(), "GET"); c.State != Ok || c.FastBurnMilli != 0 {
		t.Fatalf("empty plane: %+v", c)
	}
	p.Record("GET", 10, true)
	clk.ns = 1 << 40 // jump far past the ring span
	p.Record("GET", 10, false)
	c := classOf(t, p.Evaluate(), "GET")
	if c.SlowBurnMilli != 0 {
		t.Fatalf("ancient failure leaked into the window: %+v", c)
	}
}
