package main

import (
	"bytes"
	"hash/fnv"
	"math/rand"

	"cliquemap/internal/truetime"
	"cliquemap/internal/workload"
)

// op is one generated client call: which key, and for a write which pool
// value. The system under test sees only these.
type op struct {
	kind opKind
	key  int32
	val  int32
}

// generator turns a seed into the workload's inputs: the key bytes, the
// value pool, the preload order and the op stream. Same seed, same inputs.
type generator struct {
	sp   spec
	keys [][]byte // key bytes by key index (fixed set; the seed orders them)
	vals [][]byte // value pool; a write's payload is vals[op.val]

	keygen workload.KeyGen
	rng    *rand.Rand
}

func newGenerator(sp spec, seed int64) *generator {
	g := &generator{sp: sp, rng: rand.New(rand.NewSource(seed))}
	g.keys = make([][]byte, sp.keys)
	for i := range g.keys {
		g.keys[i] = []byte(workload.Key(uint64(i)))
	}
	g.vals = make([][]byte, sp.values)
	for i := range g.vals {
		g.vals[i] = workload.ValueGen(uint64(seed)<<32|uint64(i), sp.valueSize)
	}
	if sp.zipfS > 0 {
		g.keygen = workload.NewZipfKeys(uint64(sp.keys), sp.zipfS, seed+1)
	} else {
		g.keygen = workload.NewUniformKeys(uint64(sp.keys), seed+1)
	}
	return g
}

// preloadOps returns the SETs that populate the cell before the warm-up.
// The preloaded keys are the sp.preload lowest indices — the hottest under
// Zipf — written in a seed-shuffled order with seed-chosen values.
func (g *generator) preloadOps() []op {
	ops := make([]op, g.sp.preload)
	for i, k := range g.rng.Perm(g.sp.preload) {
		ops[i] = op{kind: opSet, key: int32(k), val: int32(g.rng.Intn(len(g.vals)))}
	}
	return ops
}

// next draws the next op of the stream.
func (g *generator) next() op {
	o := op{key: int32(g.keygen.Next())}
	if g.sp.getPct >= 100 {
		return o // opGet; pure-GET streams spend no randomness on the mix
	}
	switch p := g.rng.Intn(100); {
	case p < g.sp.getPct:
		return o
	case p < g.sp.setPct:
		o.kind = opSet
	case p < g.sp.casPct:
		o.kind = opCas
	default:
		o.kind = opErase
		return o
	}
	o.val = int32(g.rng.Intn(len(g.vals)))
	return o
}

// streamHash folds the first n ops of a fresh stream into one number, so a
// test can hold "same seed, same inputs" without storing the stream.
func streamHash(sp spec, seed int64, n int) uint64 {
	g := newGenerator(sp, seed)
	h := fnv.New64a()
	var b [9]byte
	put := func(o op) {
		b[0] = byte(o.kind)
		for i := 0; i < 4; i++ {
			b[1+i] = byte(o.key >> (8 * i))
			b[5+i] = byte(o.val >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, o := range g.preloadOps() {
		put(o)
	}
	for i := 0; i < n; i++ {
		put(g.next())
	}
	h.Write(g.vals[0])
	return h.Sum64()
}

// oracle is the driver's model of the cell. With one caller every op has
// completed before the next starts, so the last acknowledged write per key
// is the only value a GET may return.
type oracle struct {
	sp   spec
	vals [][]byte
	val  []int32            // pool index of the last acked write; absent = never written or erased
	ver  []truetime.Version // version of that write when known (SET returns it; CAS and ERASE do not)

	attempted, failed uint64
	gets, hits        uint64
	firstFailure      string
}

const absent = int32(-1)

func newOracle(g *generator) *oracle {
	o := &oracle{sp: g.sp, vals: g.vals, val: make([]int32, g.sp.keys), ver: make([]truetime.Version, g.sp.keys)}
	for i := range o.val {
		o.val[i] = absent
	}
	return o
}

func (o *oracle) fail(what string, k int32) {
	o.failed++
	if o.firstFailure == "" {
		o.firstFailure = what + " on " + workload.Key(uint64(k))
	}
}

// checkGet judges one GET result: a hit must carry exactly the last acked
// value; a miss is acceptable only for a key never written, erased, or —
// where the workload lets eviction run — evicted.
func (o *oracle) checkGet(k int32, got []byte, found bool, err error) {
	o.attempted++
	o.gets++
	want := o.val[k]
	switch {
	case err != nil:
		o.fail("get error: "+err.Error(), k)
	case found:
		o.hits++
		if want == absent {
			o.fail("get returned an erased or never-written value", k)
		} else if !bytes.Equal(got, o.vals[want]) {
			o.fail("get returned a stale, torn or foreign value", k)
		}
	case want != absent && o.sp.resident:
		o.fail("get missed a resident key", k)
	}
}

func (o *oracle) ackSet(k, v int32, ver truetime.Version, err error) {
	o.attempted++
	if err != nil {
		o.fail("set error: "+err.Error(), k)
		return
	}
	o.val[k], o.ver[k] = v, ver
}

// ackCas records a CAS outcome. Whether it applies depends on residency
// (an evicted key compares against the zero version), so only errors fail.
func (o *oracle) ackCas(k, v int32, applied bool, err error) {
	o.attempted++
	if err != nil {
		o.fail("cas error: "+err.Error(), k)
		return
	}
	if applied {
		o.val[k], o.ver[k] = v, truetime.Version{}
	}
}

func (o *oracle) ackErase(k int32, err error) {
	o.attempted++
	if err != nil {
		o.fail("erase error: "+err.Error(), k)
		return
	}
	o.val[k], o.ver[k] = absent, truetime.Version{}
}
