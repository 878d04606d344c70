package nic_test

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sync"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/nic"
	"cliquemap/internal/onerma"
	"cliquemap/internal/pony"
	"cliquemap/internal/rmem"
	"cliquemap/internal/truetime"
	"cliquemap/internal/workload"
)

// The layer probes of bench/probes.go that time this package's legs —
// pony.read, onerma.read and pony.scar — as benchmarks beside the code
// they measure. Each reports its probe's rows, under the probe's metric
// names, per call:
//
//	go test -run '^$' -bench Probe ./internal/nic/

// probeFixture is one backend's registered memory shaped like the
// get_small_scar workload's: 32 768 buckets of 14 ways and 100 000
// resident 128-byte values under the workload's keys, each in the bucket
// its key hashes to (a key whose bucket is full is skipped).
type probeFixture struct {
	geo    layout.Geometry
	reg    *rmem.Registry
	idxWin rmem.WindowID
	hashes []hashring.KeyHash
}

var probeMemory = sync.OnceValue(func() *probeFixture {
	const keys, valueSize = 100_000, 128
	f := &probeFixture{geo: layout.Geometry{Buckets: 32768, Ways: layout.DefaultWays}, reg: rmem.NewRegistry()}
	entrySize := layout.DataEntrySize(len(workload.Key(0)), valueSize)
	idx := rmem.NewRegion(f.geo.RegionBytes(), f.geo.RegionBytes())
	data := rmem.NewRegion(keys*entrySize, keys*entrySize)
	f.idxWin = f.reg.Register(idx, 1).ID
	dataWin := f.reg.Register(data, 1).ID
	ver := truetime.Version{Micros: 1, ClientID: 7, Seq: 1}
	hdr, slot := make([]byte, layout.BucketHeaderSize), make([]byte, layout.IndexEntrySize)
	entry := make([]byte, entrySize)
	fill := make([]uint8, f.geo.Buckets)
	layout.EncodeBucketHeader(hdr, 1, 0)
	for b := range f.geo.Buckets {
		must(idx.Write(f.geo.BucketOffset(b), hdr))
	}
	for i := range keys {
		key := workload.Key(uint64(i))
		h := hashring.DefaultHash([]byte(key))
		b := int(h.Lo % uint64(f.geo.Buckets))
		if int(fill[b]) == f.geo.Ways {
			continue
		}
		off := len(f.hashes) * entrySize
		layout.EncodeDataEntry(entry, []byte(key), workload.ValueGen(uint64(i), valueSize), ver)
		must(data.Write(off, entry))
		layout.EncodeIndexEntry(slot, layout.IndexEntry{Hash: h, Version: ver,
			Ptr: layout.Pointer{Window: dataWin, Offset: uint64(off), Size: uint64(entrySize)}})
		must(idx.Write(f.geo.BucketOffset(b)+layout.SlotOffset(int(fill[b])), slot))
		fill[b]++
		f.hashes = append(f.hashes, h)
	}
	return f
})

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// pick scatters call i over the fixture's entries, as the probes do.
func (f *probeFixture) pick(i int) int { return int(uint32(i) * 2654435761 % uint32(len(f.hashes))) }

func (f *probeFixture) bucketOff(k int) int {
	return f.geo.BucketOffset(int(f.hashes[k].Lo % uint64(f.geo.Buckets)))
}

// probeConn dials a client-only NIC to a NIC serving the fixture, both of
// one row, on the wall clock.
func probeConn(f *probeFixture, newNIC func(h *fabric.Host, reg *rmem.Registry) *nic.NIC) *nic.Conn {
	fab := fabric.New(2, fabric.Params{})
	return nic.Dial(fab, newNIC(fab.Host(1), nil), newNIC(fab.Host(0), f.reg))
}

func ponyNIC(h *fabric.Host, reg *rmem.Registry) *nic.NIC {
	return pony.New(h, reg, pony.CostModel{}, pony.EngineConfig{}, nil)
}

func oneRMANIC(h *fabric.Host, reg *rmem.Registry) *nic.NIC {
	return onerma.New(h, reg, onerma.CostModel{}, nil, nil)
}

// probeLoop times fn as bench/probes.go's probe does — a tenth as many
// warm-up calls, then b.N timed ones — and reports the probe's three
// rows per call: prefix_ns, prefix_allocs and prefix_bytes.
func probeLoop(b *testing.B, prefix string, fn func(i int)) {
	for i := 0; i < b.N/10+1; i++ {
		fn(i)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, prefix+"_ns")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, prefix+"_allocs")
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/n, prefix+"_bytes")
}

// BenchmarkProbePonyRead is pony.read: a one-sided Read of a whole bucket.
func BenchmarkProbePonyRead(b *testing.B) { benchmarkRead(b, "pony.read", ponyNIC) }

// BenchmarkProbeOneRMARead is onerma.read: the same Read on 1RMA.
func BenchmarkProbeOneRMARead(b *testing.B) { benchmarkRead(b, "onerma.read", oneRMANIC) }

func benchmarkRead(b *testing.B, prefix string, newNIC func(*fabric.Host, *rmem.Registry) *nic.NIC) {
	f := probeMemory()
	conn := probeConn(f, newNIC)
	probeLoop(b, prefix, func(i int) {
		if _, _, err := conn.Read(0, f.idxWin, f.bucketOff(f.pick(i)), f.geo.BucketSize()); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkProbePonyScar is pony.scar: a SCAR that finds its key.
func BenchmarkProbePonyScar(b *testing.B) {
	f := probeMemory()
	conn := probeConn(f, ponyNIC)
	probeLoop(b, "pony.scar", func(i int) {
		k := f.pick(i)
		if res, _, err := conn.ScanAndRead(0, f.idxWin, f.bucketOff(k), f.geo.BucketSize(), f.hashes[k], f.geo.Ways); err != nil || !res.Found {
			b.Fatalf("found=%v err=%v", res.Found, err)
		}
	})
}

// TestProbeTwinsReportBenchRows runs each twin for a few calls and checks
// that it reports exactly its probe's three rows, each under a name
// BENCHMARK.json lists with the unit it gives there.
func TestProbeTwinsReportBenchRows(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, row := range decl.PerLayer {
		units[row.Name] = row.Unit
	}
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	if err := benchtime.Set("20x"); err != nil {
		t.Fatal(err)
	}
	for _, twin := range []struct {
		prefix string
		fn     func(*testing.B)
	}{
		{"pony.read", BenchmarkProbePonyRead},
		{"onerma.read", BenchmarkProbeOneRMARead},
		{"pony.scar", BenchmarkProbePonyScar},
	} {
		res := testing.Benchmark(twin.fn)
		want := map[string]string{twin.prefix + "_ns": "ns", twin.prefix + "_allocs": "allocs", twin.prefix + "_bytes": "B"}
		if res.N == 0 || len(res.Extra) != len(want) {
			t.Errorf("%s: %d calls reported %v, want the rows %v", twin.prefix, res.N, res.Extra, want)
		}
		for name, unit := range want {
			if _, ok := res.Extra[name]; !ok || units[name] != unit {
				t.Errorf("%s: reported=%v, BENCHMARK.json unit %q; want %q", name, ok, units[name], unit)
			}
		}
	}
}
