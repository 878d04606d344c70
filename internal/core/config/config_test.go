package config

import (
	"sync"
	"testing"
	"testing/quick"
)

func sample() CellConfig {
	return CellConfig{
		Mode:       R32,
		Shards:     3,
		ShardAddrs: []string{"b0", "b1", "b2"},
		Backends: []BackendInfo{
			{Shard: 0, Addr: "b0", HostID: 0},
			{Shard: 1, Addr: "b1", HostID: 1},
			{Shard: 2, Addr: "b2", HostID: 2},
			{Shard: -1, Addr: "spare0", HostID: 3, Spare: true},
		},
	}
}

func TestModeProperties(t *testing.T) {
	cases := []struct {
		m        Mode
		replicas int
		quorum   int
		name     string
	}{
		{R1, 1, 1, "R=1"},
		{R2Immutable, 2, 1, "R=2/Immutable"},
		{R32, 3, 2, "R=3.2"},
	}
	for _, c := range cases {
		if c.m.Replicas() != c.replicas || c.m.Quorum() != c.quorum || c.m.String() != c.name {
			t.Errorf("%v: replicas=%d quorum=%d name=%q", c.m, c.m.Replicas(), c.m.Quorum(), c.m.String())
		}
	}
}

func TestCohortWraps(t *testing.T) {
	c := sample()
	got := c.Cohort(2)
	want := []int{2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Cohort(2) = %v, want %v", got, want)
		}
	}
	c.Mode = R1
	if len(c.Cohort(0)) != 1 {
		t.Error("R1 cohort should have 1 member")
	}
}

func TestCohortClampedToShards(t *testing.T) {
	c := CellConfig{Mode: R32, Shards: 2, ShardAddrs: []string{"a", "b"}}
	if got := len(c.Cohort(0)); got != 2 {
		t.Errorf("cohort on 2-shard cell = %d members", got)
	}
}

func TestCohortDistinctMembers(t *testing.T) {
	f := func(hi uint64, nRaw uint8) bool {
		c := CellConfig{Mode: R32, Shards: int(nRaw%20) + 3}
		got := c.Cohort(int(hi % uint64(c.Shards)))
		return len(got) == 3 && got[0] != got[1] && got[1] != got[2] && got[0] != got[2]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddrHostLookup(t *testing.T) {
	c := sample()
	if c.AddrFor(1) != "b1" {
		t.Errorf("AddrFor(1) = %q", c.AddrFor(1))
	}
	if c.AddrFor(9) != "" || c.AddrFor(-1) != "" {
		t.Error("out-of-range AddrFor should be empty")
	}
	if c.HostFor(2) != 2 {
		t.Errorf("HostFor(2) = %d", c.HostFor(2))
	}
	if c.HostFor(9) != -1 {
		t.Error("HostFor out of range should be -1")
	}
}

func TestStoreUpdateBumpsID(t *testing.T) {
	s := NewStore(sample())
	c0 := s.Get()
	if c0.ID != 1 {
		t.Fatalf("initial ID = %d", c0.ID)
	}
	c1 := s.Update(func(c *CellConfig) { c.ShardAddrs[0] = "spare0" })
	if c1.ID != 2 {
		t.Errorf("updated ID = %d", c1.ID)
	}
	if s.Get().AddrFor(0) != "spare0" {
		t.Error("update not visible")
	}
	if c0.AddrFor(0) != "b0" {
		t.Error("old snapshot mutated")
	}
}

func TestSnapshotsIsolated(t *testing.T) {
	s := NewStore(sample())
	c := s.Get()
	c.ShardAddrs[0] = "tampered"
	c.Backends[0].Addr = "tampered"
	if s.Get().AddrFor(0) == "tampered" {
		t.Error("Get returned aliased storage")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	s := NewStore(sample())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Update(func(c *CellConfig) {})
			}
		}()
	}
	wg.Wait()
	if got := s.Get().ID; got != 401 {
		t.Errorf("final ID = %d, want 401 (every update counted exactly once)", got)
	}
}
