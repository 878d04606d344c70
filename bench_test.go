package cliquemap

// One benchmark per evaluation table/figure. Each exercises the figure's
// core operation under the figure's configuration so `go test -bench=.`
// sweeps the whole evaluation surface; cmd/cmbench regenerates the full
// series (rows, time series, CDFs) and EXPERIMENTS.md records the
// paper-vs-measured comparison.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"cliquemap/internal/core/cell"
	"cliquemap/internal/core/client"
	"cliquemap/internal/core/config"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/shim"
	"cliquemap/internal/truetime"
	"cliquemap/internal/workload"
)

func benchCell(b *testing.B, opt Options) *Cell {
	b.Helper()
	c, err := NewCell(opt)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchPreload(b *testing.B, cl *Client, n, valSize int) [][]byte {
	b.Helper()
	keys := make([][]byte, n)
	ctx := context.Background()
	for i := range keys {
		keys[i] = []byte(workload.Key(uint64(i)))
		if err := cl.Set(ctx, keys[i], workload.ValueGen(uint64(i), valSize)); err != nil {
			b.Fatal(err)
		}
	}
	return keys
}

// BenchmarkMutationThroughput drives the backend mutation path — the full
// RPC dispatch plus SET/CAS handler work — from many goroutines at once
// over disjoint key ranges. With one global backend lock this serializes;
// with bucket-stripe locking it should scale with -cpu. Run with e.g.
// `go test -bench MutationThroughput -cpu 1,8`.
func BenchmarkMutationThroughput(b *testing.B) {
	c := benchCell(b, Options{
		Shards: 1, Mode: R1,
		Buckets: 8192, Ways: 14,
		DataBytes: 64 << 20, DataMaxBytes: 64 << 20,
	})
	cc := c.Internal()
	ctx := context.Background()
	clientHost := cc.Fabric.NumHosts() - 1
	val := workload.ValueGen(1, 128)
	var gid atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := gid.Add(1)
		rpcc := cc.Net.Client(clientHost, fmt.Sprintf("bench-%d", id))
		gen := truetime.NewGenerator(cc.Clock, 10_000+id)
		const span = 512 // keys owned by this goroutine
		lastVer := make([]truetime.Version, span)
		i := 0
		for pb.Next() {
			slot := i % span
			key := []byte(fmt.Sprintf("mt-%d-%d", id, slot))
			if i%4 == 3 && !lastVer[slot].Zero() {
				v := gen.Next()
				req := proto.SetReq{Key: key, Value: val, Expected: lastVer[slot], Version: v}
				resp, _, err := rpcc.Call(ctx, "backend-0", proto.MethodCas, req.Marshal())
				if err != nil {
					b.Fatal(err)
				}
				if mr, merr := proto.UnmarshalMutateResp(resp); merr == nil && mr.Applied {
					lastVer[slot] = v
				}
			} else {
				v := gen.Next()
				req := proto.SetReq{Key: key, Value: val, Version: v}
				resp, _, err := rpcc.Call(ctx, "backend-0", proto.MethodSet, req.Marshal())
				if err != nil {
					b.Fatal(err)
				}
				if mr, merr := proto.UnmarshalMutateResp(resp); merr == nil && mr.Applied {
					lastVer[slot] = v
				}
			}
			i++
		}
	})
}

// BenchmarkFig03Reshaping measures the mutation path with on-demand data
// region growth enabled — the reshaping machinery Figure 3 credits with
// the DRAM savings.
func BenchmarkFig03Reshaping(b *testing.B) {
	c := benchCell(b, Options{Shards: 3, DataBytes: 1 << 20, DataMaxBytes: 256 << 20})
	cl := c.NewClient(ClientOptions{})
	ctx := context.Background()
	val := workload.ValueGen(1, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Set(ctx, []byte(workload.Key(uint64(i))), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Stats().DataGrows), "region-grows")
}

// BenchmarkFig03PreallocBaseline is the ablation: the pre-allocate-for-
// peak world the paper launched from.
func BenchmarkFig03PreallocBaseline(b *testing.B) {
	c := benchCell(b, Options{Shards: 3, DataBytes: 1 << 20, DataMaxBytes: 256 << 20, DisableReshaping: true})
	cl := c.NewClient(ClientOptions{})
	ctx := context.Background()
	val := workload.ValueGen(1, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Set(ctx, []byte(workload.Key(uint64(i))), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.MemoryBytes())/(1<<20), "MiB-resident")
}

// BenchmarkFig06Languages benchmarks one GET per language binding: native
// versus through the pipe shim.
func BenchmarkFig06Languages(b *testing.B) {
	for _, prof := range shim.Profiles() {
		b.Run(prof.Name, func(b *testing.B) {
			c := benchCell(b, Options{})
			cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
			keys := benchPreload(b, cl, 64, 64)
			ctx := context.Background()
			if !prof.PipeHop {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := cl.Get(ctx, keys[i%len(keys)]); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			ip, err := shim.NewInProcess(ctx, benchStore{cl}, prof, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer ip.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := ip.Client.Get(keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type benchStore struct{ cl *Client }

func (s benchStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	return s.cl.Get(ctx, key)
}
func (s benchStore) Set(ctx context.Context, key, value []byte) error {
	return s.cl.Set(ctx, key, value)
}
func (s benchStore) Erase(ctx context.Context, key []byte) error { return s.cl.Erase(ctx, key) }

// BenchmarkFig07LookupCPU benchmarks a GET per lookup strategy and reports
// the modelled client+pony CPU per op — Figure 7's comparison.
func BenchmarkFig07LookupCPU(b *testing.B) {
	for _, strat := range []Strategy{Lookup2xR, LookupSCAR, LookupMSG} {
		name := []string{"2xR", "SCAR", "MSG", "RPC"}[int(strat)]
		b.Run(name, func(b *testing.B) {
			c := benchCell(b, Options{Mode: R1})
			cl := c.NewClient(ClientOptions{Strategy: strat})
			keys := benchPreload(b, cl, 64, 64)
			ctx := context.Background()
			acct := c.Internal().Acct
			startC, startP := acct.TotalNanos("client"), acct.TotalNanos("pony")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.Get(ctx, keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64(acct.TotalNanos("client")-startC)/n, "client-cpu-ns/op")
			b.ReportMetric(float64(acct.TotalNanos("pony")-startP)/n, "pony-cpu-ns/op")
		})
	}
}

// BenchmarkFig08AdsBatch benchmarks one Ads-style batched GET.
func BenchmarkFig08AdsBatch(b *testing.B) {
	c := benchCell(b, Options{Shards: 5})
	cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	sizes := workload.AdsSizes(1)
	ctx := context.Background()
	for i := uint64(0); i < 500; i++ {
		cl.Set(ctx, []byte(workload.Key(i)), workload.ValueGen(i, sizes.Next()))
	}
	batches := workload.AdsBatches(2)
	kg := workload.NewZipfKeys(500, 1.2, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs := batches.Next()
		keys := make([][]byte, bs)
		for j := range keys {
			keys[j] = []byte(workload.Key(kg.Next()))
		}
		if _, _, err := cl.GetBatch(ctx, keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09GeoMix benchmarks the Geo pattern: a batched GET plus a
// background segment update.
func BenchmarkFig09GeoMix(b *testing.B) {
	c := benchCell(b, Options{Shards: 4, Eviction: "arc"})
	reader := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	updater := c.NewClient(ClientOptions{})
	sizes := workload.GeoSizes(7)
	ctx := context.Background()
	for i := uint64(0); i < 500; i++ {
		updater.Set(ctx, []byte(workload.Key(i)), workload.ValueGen(i, sizes.Next()))
	}
	batches := workload.GeoBatches(9)
	kg := workload.NewZipfKeys(500, 1.05, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bs := batches.Next()
		keys := make([][]byte, bs)
		for j := range keys {
			keys[j] = []byte(workload.Key(kg.Next()))
		}
		if _, _, err := reader.GetBatch(ctx, keys); err != nil {
			b.Fatal(err)
		}
		seg := kg.Next()
		updater.Set(ctx, []byte(workload.Key(seg)), workload.ValueGen(seg, sizes.Next()))
	}
}

// BenchmarkFig10SizeGen benchmarks the object-size generators behind the
// Figure 10 CDFs.
func BenchmarkFig10SizeGen(b *testing.B) {
	ads, geo := workload.AdsSizes(1), workload.GeoSizes(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ads.Next()
		_ = geo.Next()
	}
}

// BenchmarkFig11Preferred benchmarks an R=3.2 GET with one replica's host
// under a 95% antagonist — the quorum's preferred-backend path.
func BenchmarkFig11Preferred(b *testing.B) {
	c := benchCell(b, Options{})
	cl := c.NewClient(ClientOptions{Strategy: Lookup2xR})
	keys := benchPreload(b, cl, 1, 4096)
	c.SetAntagonist(0, 0.95)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Get(ctx, keys[0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cl.Stats().GetP99.Nanoseconds())/1000, "modelled-p99-us")
}

// BenchmarkFig12Incast benchmarks SCAR and 2×R GETs of 64KB values — the
// incast comparison.
func BenchmarkFig12Incast(b *testing.B) {
	for _, strat := range []Strategy{Lookup2xR, LookupSCAR} {
		name := []string{"2xR", "SCAR"}[int(strat)]
		b.Run(name, func(b *testing.B) {
			c := benchCell(b, Options{})
			cl := c.NewClient(ClientOptions{Strategy: strat})
			keys := benchPreload(b, cl, 4, 64<<10)
			ctx := context.Background()
			b.SetBytes(64 << 10)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.Get(ctx, keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cl.Stats().GetP50.Nanoseconds())/1000, "modelled-p50-us")
		})
	}
}

// BenchmarkFig13PlannedMaintenance benchmarks the full migrate-to-spare /
// migrate-back cycle.
func BenchmarkFig13PlannedMaintenance(b *testing.B) {
	c := benchCell(b, Options{Shards: 3, Spares: 1})
	cl := c.NewClient(ClientOptions{})
	benchPreload(b, cl, 200, 1024)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		primary := c.Internal().Store.Get().AddrFor(0)
		if _, err := c.PlannedMaintenance(ctx, 0); err != nil {
			b.Fatal(err)
		}
		if err := c.CompleteMaintenance(ctx, 0, primary); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14CrashRepair benchmarks the crash → restart → repair cycle.
func BenchmarkFig14CrashRepair(b *testing.B) {
	c := benchCell(b, Options{Shards: 3})
	cl := c.NewClient(ClientOptions{})
	benchPreload(b, cl, 100, 512)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Crash(1)
		if err := c.Restart(ctx, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig15PonyMaxRate benchmarks GETs at maximum offered rate over
// Pony Express — the op the Figure 15 ramp saturates with.
func BenchmarkFig15PonyMaxRate(b *testing.B) {
	cc, err := cell.New(cell.Options{
		Shards: 5, Mode: config.R1, Transport: cell.TransportPony,
	})
	if err != nil {
		b.Fatal(err)
	}
	cl := cc.NewClient(client.Options{Strategy: client.StrategySCAR})
	ctx := context.Background()
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte(workload.Key(uint64(i)))
		cl.Set(ctx, keys[i], workload.ValueGen(uint64(i), 4096))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Get(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	engines := cc.PonyEngines()
	sum := 0
	for _, e := range engines {
		sum += e
	}
	b.ReportMetric(float64(sum)/float64(len(engines)), "engines/host")
}

// BenchmarkFig16_17OneRMA benchmarks 2×R GETs over the 1RMA hardware model
// and reports the hardware (fabric+PCIe) median — Figures 16 and 17.
func BenchmarkFig16_17OneRMA(b *testing.B) {
	cc, err := cell.New(cell.Options{
		Shards: 5, Mode: config.R1, Transport: cell.Transport1RMA,
	})
	if err != nil {
		b.Fatal(err)
	}
	cl := cc.NewClient(client.Options{Strategy: client.Strategy2xR})
	ctx := context.Background()
	keys := make([][]byte, 100)
	for i := range keys {
		keys[i] = []byte(workload.Key(uint64(i)))
		cl.Set(ctx, keys[i], workload.ValueGen(uint64(i), 4096))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Get(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cc.HWHist.Percentile(50))/1000, "hw-p50-us")
}

// BenchmarkFig18Mix benchmarks the 5/50/95% GET mixes at 4KB values.
func BenchmarkFig18Mix(b *testing.B) {
	for _, frac := range []float64{0.05, 0.50, 0.95} {
		b.Run(fmt.Sprintf("get%d", int(frac*100)), func(b *testing.B) {
			c := benchCell(b, Options{})
			cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
			keys := benchPreload(b, cl, 100, 4096)
			mix := workload.NewMix(frac, 42)
			val := workload.ValueGen(9, 4096)
			ctx := context.Background()
			b.SetBytes(4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i%len(keys)]
				if mix.NextIsGet() {
					if _, _, err := cl.Get(ctx, k); err != nil {
						b.Fatal(err)
					}
				} else if err := cl.Set(ctx, k, val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig19MixCPU benchmarks the 50% mix and reports modelled backend
// CPU per op — Figure 19's cost axis.
func BenchmarkFig19MixCPU(b *testing.B) {
	c := benchCell(b, Options{})
	cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
	keys := benchPreload(b, cl, 100, 4096)
	mix := workload.NewMix(0.50, 42)
	val := workload.ValueGen(9, 4096)
	ctx := context.Background()
	acct := c.Internal().Acct
	start := acct.TotalNanos("rpc-server") + acct.TotalNanos("handler") + acct.TotalNanos("pony")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		if mix.NextIsGet() {
			cl.Get(ctx, k)
		} else {
			cl.Set(ctx, k, val)
		}
	}
	b.StopTimer()
	end := acct.TotalNanos("rpc-server") + acct.TotalNanos("handler") + acct.TotalNanos("pony")
	b.ReportMetric(float64(end-start)/float64(b.N), "backend-cpu-ns/op")
}

// BenchmarkFig20ValueSize sweeps the Figure 20 value sizes.
func BenchmarkFig20ValueSize(b *testing.B) {
	for _, sz := range []int{32, 256, 2048, 16384} {
		b.Run(fmt.Sprintf("%dB", sz), func(b *testing.B) {
			c := benchCell(b, Options{})
			cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
			keys := benchPreload(b, cl, 100, sz)
			ctx := context.Background()
			b.SetBytes(int64(sz))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.Get(ctx, keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1RPCBaseline quantifies Table 1/§2.1's premise: the cost
// of a full-framework RPC lookup versus the RMA path it motivates.
func BenchmarkTable1RPCBaseline(b *testing.B) {
	for _, strat := range []Strategy{LookupRPC, LookupSCAR} {
		name := map[Strategy]string{LookupRPC: "rpc", LookupSCAR: "rma-scar"}[strat]
		b.Run(name, func(b *testing.B) {
			c := benchCell(b, Options{})
			cl := c.NewClient(ClientOptions{Strategy: strat})
			keys := benchPreload(b, cl, 64, 64)
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := cl.Get(ctx, keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cl.Stats().GetP50.Nanoseconds())/1000, "modelled-p50-us")
		})
	}
}

// BenchmarkAblationEvictionPolicies compares the §4.2 replacement policies.
// ns/op is a SET under churn. After it, a seeded Zipf GET stream runs over
// the same keys, a miss filling its key as a look-aside cache does, and
// hit% is the share of the stream's second half that hit: what the policy
// keeps of a skewed working set larger than the cache. A +scan row runs
// the same stream with a one-pass sequential scan of cold keys
// interleaved, one scan GET (a miss, then its fill) before each Zipf GET:
// the case ARC's frequency list exists for. Its hit% counts the Zipf GETs
// alone.
func BenchmarkAblationEvictionPolicies(b *testing.B) {
	const keys, gets = 5000, 20_000
	for _, pol := range []string{"lru", "arc"} {
		for _, scan := range []bool{false, true} {
			name := pol
			if scan {
				name += "+scan"
			}
			b.Run(name, func(b *testing.B) {
				c := benchCell(b, Options{
					Eviction: pol, DataBytes: 2 << 20, DataMaxBytes: 2 << 20,
				})
				cl := c.NewClient(ClientOptions{TouchBatch: 32})
				ctx := context.Background()
				val := workload.ValueGen(1, 4096)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := cl.Set(ctx, []byte(workload.Key(uint64(i%keys))), val); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				get := func(key []byte) bool { // a miss fills the key
					_, found, err := cl.Get(ctx, key)
					if err == nil && !found {
						err = cl.Set(ctx, key, val)
					}
					if err != nil {
						b.Fatal(err)
					}
					return found
				}
				zipf, hits := workload.NewZipfKeys(keys, 1.05, 13), 0
				for i := 0; i < gets; i++ {
					if scan {
						get([]byte(workload.Key(uint64(keys + i))))
					}
					if get([]byte(workload.Key(zipf.Next()))) && i >= gets/2 {
						hits++
					}
				}
				b.ReportMetric(100*float64(hits)/(gets/2), "hit%")
			})
		}
	}
}

// BenchmarkWANGet measures the Table 1 WAN-access path: remote-region
// lookups over RPC with added WAN latency.
func BenchmarkWANGet(b *testing.B) {
	c := benchCell(b, Options{})
	local := c.NewClient(ClientOptions{})
	keys := benchPreload(b, local, 64, 1024)
	wan := c.NewWANClient(ClientOptions{}, 20_000_000) // 20ms one-way
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wan.Get(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wan.Stats().GetP50.Microseconds()), "modelled-p50-us")
}

// BenchmarkCompressionSet compares SET cost with and without the §9
// compression feature on compressible values.
func BenchmarkCompressionSet(b *testing.B) {
	val := make([]byte, 8192) // zeros: maximally compressible
	for _, threshold := range []int{0, 256} {
		name := "off"
		if threshold > 0 {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			c := benchCell(b, Options{CompressThreshold: threshold})
			cl := c.NewClient(ClientOptions{})
			ctx := context.Background()
			b.SetBytes(int64(len(val)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.Set(ctx, []byte(workload.Key(uint64(i%512))), val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkImmutableGet measures the §6.4 single-replica read path.
func BenchmarkImmutableGet(b *testing.B) {
	c := benchCell(b, Options{Mode: R2Immutable})
	corpus := map[string][]byte{}
	keys := make([][]byte, 128)
	for i := range keys {
		k := workload.Key(uint64(i))
		keys[i] = []byte(k)
		corpus[k] = workload.ValueGen(uint64(i), 1024)
	}
	ctx := context.Background()
	if err := c.LoadImmutable(ctx, corpus); err != nil {
		b.Fatal(err)
	}
	cl := c.NewClient(ClientOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cl.Get(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}
