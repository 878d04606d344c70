package layout_test

import (
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"sync"
	"testing"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/hashring"
	"cliquemap/internal/rmem"
	"cliquemap/internal/truetime"
	"cliquemap/internal/workload"
)

// The layer probes of bench/probes.go that time this package's codec —
// layout.decode_bucket, layout.decode_entry and layout.encode_entry — as
// benchmarks beside the code they measure. Each reports, per call, the
// rows BENCHMARK.json lists for its probe:
//
//	go test -run '^$' -bench Probe ./internal/core/layout/

// probeFixture is one backend's registered memory shaped like the
// get_small_scar workload's: 32 768 buckets of 14 ways and 100 000
// resident 128-byte values under the workload's keys, each in the bucket
// its key hashes to (a key whose bucket is full is skipped).
type probeFixture struct {
	geo       layout.Geometry
	idx, data *rmem.Region
	hashes    []hashring.KeyHash
	entrySize int
}

var probeVersion = truetime.Version{Micros: 1, ClientID: 7, Seq: 1}

var probeMemory = sync.OnceValue(func() *probeFixture {
	const keys, valueSize = 100_000, 128
	f := &probeFixture{
		geo:       layout.Geometry{Buckets: 32768, Ways: layout.DefaultWays},
		entrySize: layout.DataEntrySize(len(workload.Key(0)), valueSize),
	}
	f.idx = rmem.NewRegion(f.geo.RegionBytes(), f.geo.RegionBytes())
	f.data = rmem.NewRegion(keys*f.entrySize, keys*f.entrySize)
	hdr, slot := make([]byte, layout.BucketHeaderSize), make([]byte, layout.IndexEntrySize)
	entry := make([]byte, f.entrySize)
	fill := make([]uint8, f.geo.Buckets)
	layout.EncodeBucketHeader(hdr, 1, 0)
	for b := range f.geo.Buckets {
		must(f.idx.Write(f.geo.BucketOffset(b), hdr))
	}
	for i := range keys {
		key := workload.Key(uint64(i))
		h := hashring.DefaultHash([]byte(key))
		b := int(h.Lo % uint64(f.geo.Buckets))
		if int(fill[b]) == f.geo.Ways {
			continue
		}
		off := len(f.hashes) * f.entrySize
		layout.EncodeDataEntry(entry, []byte(key), workload.ValueGen(uint64(i), valueSize), probeVersion)
		must(f.data.Write(off, entry))
		layout.EncodeIndexEntry(slot, layout.IndexEntry{Hash: h, Version: probeVersion,
			Ptr: layout.Pointer{Offset: uint64(off), Size: uint64(f.entrySize)}})
		must(f.idx.Write(f.geo.BucketOffset(b)+layout.SlotOffset(int(fill[b])), slot))
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

// sink keeps the compiler from discarding a probed call's result.
var sink uint64

// probeLoop times fn as bench/probes.go's probe does — a tenth as many
// warm-up calls, then b.N timed ones — and reports prefix_ns per call,
// and prefix_allocs too when allocs is set.
func probeLoop(b *testing.B, prefix string, allocs bool, fn func(i int)) {
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
	if allocs {
		b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, prefix+"_allocs")
	}
}

// BenchmarkProbeDecodeBucket is layout.decode_bucket: decoding a whole
// bucket viewed in the index region.
func BenchmarkProbeDecodeBucket(b *testing.B) {
	f := probeMemory()
	probeLoop(b, "layout.decode_bucket", false, func(i int) {
		raw, err := f.idx.View(f.geo.BucketOffset(int(f.hashes[f.pick(i)].Lo%uint64(f.geo.Buckets))), f.geo.BucketSize())
		must(err)
		bk, err := layout.DecodeBucket(raw, f.geo.Ways)
		must(err)
		sink += bk.ConfigID
	})
}

// BenchmarkProbeDecodeEntry is layout.decode_entry: decoding and
// checksumming a DataEntry viewed in the data region.
func BenchmarkProbeDecodeEntry(b *testing.B) {
	f := probeMemory()
	probeLoop(b, "layout.decode_entry", true, func(i int) {
		raw, err := f.data.View(f.pick(i)*f.entrySize, f.entrySize)
		must(err)
		de, err := layout.DecodeDataEntry(raw)
		must(err)
		sink += uint64(len(de.Value))
	})
}

// BenchmarkProbeEncodeEntry is layout.encode_entry: encoding the
// workload's first key and a 128-byte value into a reused buffer.
func BenchmarkProbeEncodeEntry(b *testing.B) {
	key, value := []byte(workload.Key(0)), workload.ValueGen(0, 128)
	scratch := make([]byte, layout.DataEntrySize(len(key), len(value)))
	probeLoop(b, "layout.encode_entry", false, func(int) {
		sink += uint64(layout.EncodeDataEntry(scratch, key, value, probeVersion))
	})
}

// TestProbeTwinsReportBenchRows runs each twin for a few calls and checks
// that it reports exactly the rows BENCHMARK.json lists for its probe,
// each with the unit it gives there.
func TestProbeTwinsReportBenchRows(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
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
		fn   func(*testing.B)
		want map[string]string
	}{
		{BenchmarkProbeDecodeBucket, map[string]string{"layout.decode_bucket_ns": "ns"}},
		{BenchmarkProbeDecodeEntry, map[string]string{"layout.decode_entry_ns": "ns", "layout.decode_entry_allocs": "allocs"}},
		{BenchmarkProbeEncodeEntry, map[string]string{"layout.encode_entry_ns": "ns"}},
	} {
		res := testing.Benchmark(twin.fn)
		if res.N == 0 || len(res.Extra) != len(twin.want) {
			t.Errorf("%d calls reported %v, want the rows %v", res.N, res.Extra, twin.want)
		}
		for name, unit := range twin.want {
			if _, ok := res.Extra[name]; !ok || units[name] != unit {
				t.Errorf("%s: reported=%v, BENCHMARK.json unit %q; want %q", name, ok, units[name], unit)
			}
		}
	}
}
