package slab

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// Allocator invariants, checked against a model after every step of an
// Alloc / Free / Drain / Grow program. The program is a byte string (two
// bytes per op), so the seeded random test and the fuzz target share one
// interpreter.

const (
	modelSlab     = 4096
	modelMaxSlabs = 12
)

type modelChunk struct {
	ref Ref
	req int
}

// allocModel is what the test knows without looking inside the allocator:
// the chunks it holds, and which slabs a Drain has sealed.
type allocModel struct {
	t      *testing.T
	a      *Allocator
	nSlabs int
	live   map[int]modelChunk // by offset
	order  []int              // live offsets, for picking one by index
	sealed map[int]bool       // slab → sealed by Drain, not yet seen reclaimed
}

func newAllocModel(t *testing.T) *allocModel {
	a, err := New(4*modelSlab, modelSlab, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &allocModel{t: t, a: a, nSlabs: 4, live: map[int]modelChunk{}, sealed: map[int]bool{}}
}

// inSlab returns the live chunks of slab si.
func (m *allocModel) inSlab(si int) (chunks []Ref) {
	for off, c := range m.live {
		if off/modelSlab == si {
			chunks = append(chunks, c.ref)
		}
	}
	return chunks
}

func (m *allocModel) alloc(size int) {
	r, err := m.a.Alloc(size)
	if err == ErrNoCapacity {
		// Exhaustion must be real: no slab is empty, and every slab of this
		// class that may serve is full.
		class := ClassSize(size)
		for si := 0; si < m.nSlabs; si++ {
			chunks := m.inSlab(si)
			if len(chunks) == 0 {
				m.t.Fatalf("Alloc(%d) = ErrNoCapacity with slab %d empty (sealed %v)", size, si, m.sealed[si])
			}
			if chunks[0].Size == class && !m.sealed[si] && len(chunks) < modelSlab/class {
				m.t.Fatalf("Alloc(%d) = ErrNoCapacity with %d/%d chunks of slab %d in use", size, len(chunks), modelSlab/class, si)
			}
		}
		return
	}
	if err != nil {
		m.t.Fatalf("Alloc(%d): %v", size, err)
	}
	if r.Size != ClassSize(size) || r.Offset < 0 || r.Offset+r.Size > m.nSlabs*modelSlab || r.Offset%modelSlab%r.Size != 0 {
		m.t.Fatalf("Alloc(%d) = %+v", size, r)
	}
	if _, dup := m.live[r.Offset]; dup {
		m.t.Fatalf("Alloc(%d): offset %d handed out twice", size, r.Offset)
	}
	si := r.Offset / modelSlab
	if r.Offset%modelSlab+r.Size > modelSlab {
		m.t.Fatalf("Alloc(%d) = %+v crosses a slab boundary", size, r)
	}
	peers := m.inSlab(si)
	if len(peers) > 0 && peers[0].Size != r.Size {
		m.t.Fatalf("Alloc(%d) = %+v in a slab holding %d B chunks", size, r, peers[0].Size)
	}
	if m.sealed[si] {
		// A sealed slab serves nothing; a chunk from it means it emptied and
		// was reclaimed.
		if len(peers) > 0 {
			m.t.Fatalf("Alloc(%d) = %+v from sealed slab %d with %d live chunks", size, r, si, len(peers))
		}
		delete(m.sealed, si)
	}
	m.live[r.Offset] = modelChunk{r, size}
	m.order = append(m.order, r.Offset)
}

func (m *allocModel) free(i int) {
	if len(m.order) == 0 {
		return
	}
	i %= len(m.order)
	off := m.order[i]
	m.order[i] = m.order[len(m.order)-1]
	m.order = m.order[:len(m.order)-1]
	c := m.live[off]
	delete(m.live, off)
	// Succeeds whether or not the slab is sealed.
	if err := m.a.Free(c.ref, c.req); err != nil {
		m.t.Fatalf("Free(%+v) (sealed %v): %v", c.ref, m.sealed[off/modelSlab], err)
	}
}

// drain seals a slab and then, as the backend would, frees the first
// `drop` of the chunks it was given.
func (m *allocModel) drain(drop int) {
	chunks := m.a.Drain()
	if len(chunks) == 0 {
		if len(m.live) != 0 {
			m.t.Fatalf("Drain() = nil with %d chunks live", len(m.live))
		}
		return
	}
	si := chunks[0].Offset / modelSlab
	want := m.inSlab(si)
	if len(chunks) != len(want) {
		m.t.Fatalf("Drain() named %d chunks of slab %d, %d are live", len(chunks), si, len(want))
	}
	for _, c := range chunks {
		if got, ok := m.live[c.Offset]; !ok || got.ref != c {
			m.t.Fatalf("Drain() named %+v, which is not a live chunk of slab %d", c, si)
		}
	}
	m.sealed[si] = true
	for _, c := range chunks[:min(drop, len(chunks))] {
		for i, off := range m.order {
			if off == c.Offset {
				m.free(i)
				break
			}
		}
	}
}

func (m *allocModel) grow() {
	if m.nSlabs >= modelMaxSlabs {
		return
	}
	if got := m.a.Grow(modelSlab + 100); got != modelSlab {
		m.t.Fatalf("Grow = %d, want one slab", got)
	}
	m.nSlabs++
}

// check compares the allocator's books with the model's.
func (m *allocModel) check(step int) {
	var allocated, requested int
	occupied := map[int]bool{}
	tails := 0 // of the slabs known to be assigned: those holding a chunk
	for _, c := range m.live {
		allocated += c.ref.Size
		requested += c.req
		if si := c.ref.Offset / modelSlab; !occupied[si] {
			occupied[si] = true
			tails += modelSlab % c.ref.Size
		}
	}
	st := m.a.Stats()
	if st.AllocatedBytes != allocated || st.RequestedBytes != requested || st.PoolBytes != m.nSlabs*modelSlab {
		m.t.Fatalf("step %d: stats %+v, model allocated %d requested %d pool %d", step, st, allocated, requested, m.nSlabs*modelSlab)
	}
	if st.FreeSlabs != m.nSlabs-len(occupied) {
		m.t.Fatalf("step %d: FreeSlabs = %d, model has %d slabs without a live chunk", step, st.FreeSlabs, m.nSlabs-len(occupied))
	}
	// An emptied slab keeps its class, and its tail (under half a slab),
	// until it is reclaimed.
	if st.TailBytes < tails || st.TailBytes > tails+st.FreeSlabs*modelSlab/2 {
		m.t.Fatalf("step %d: TailBytes = %d, occupied slabs strand %d", step, st.TailBytes, tails)
	}
}

// runProgram interprets prog against a fresh allocator.
func runProgram(t *testing.T, prog []byte) {
	m := newAllocModel(t)
	for step := 0; step+1 < len(prog); step += 2 {
		op, arg := prog[step], int(prog[step+1])
		switch {
		case op < 140:
			// Sizes cluster on a few classes and reach past the largest one
			// that fits (an error, not exhaustion).
			size := 1 + arg*(1+int(op%5)*4)
			if size > modelSlab {
				if _, err := m.a.Alloc(size); err == nil || err == ErrNoCapacity {
					t.Fatalf("Alloc(%d) over the largest class: %v", size, err)
				}
				break
			}
			m.alloc(size)
		case op < 225:
			m.free(arg | int(op)<<8)
		case op < 245:
			m.drain(arg)
		default:
			m.grow()
		}
		m.check(step / 2)
	}
	// Everything freed, every slab — sealed or not — serves again.
	for len(m.order) > 0 {
		m.free(0)
	}
	for i := 0; i < m.nSlabs; i++ {
		m.alloc(modelSlab)
	}
	m.check(-1)
	if len(m.live) != m.nSlabs {
		t.Fatalf("%d of %d slabs served a whole-slab chunk after everything was freed", len(m.live), m.nSlabs)
	}
}

func TestAllocatorInvariants(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		prog := make([]byte, 2*3000)
		rng.Read(prog)
		runProgram(t, prog)
	}
}

func FuzzAllocatorOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 10, 230, 1, 150, 0, 250, 0})
	// Fill one class, drain, free into the sealed slab, reuse it elsewhere.
	f.Add([]byte{4, 240, 4, 240, 4, 240, 4, 240, 230, 0, 150, 0, 150, 0, 0, 63, 0, 63})
	rng := rand.New(rand.NewSource(7))
	seed := make([]byte, 400)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runProgram(t, prog)
	})
}

// TestAllocatorConcurrent runs the same mix from 8 goroutines over one
// growing allocator (meaningful under -race): no offset is ever held by two of them,
// the byte counters return to zero, and every slab — many of them sealed
// along the way — serves again once its chunks are freed.
func TestAllocatorConcurrent(t *testing.T) {
	const workers, steps, slabs = 8, 4000, 16
	a := mustNew(t, slabs*modelSlab, modelSlab, nil)
	var held sync.Map // offset → owner
	var grown atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			var mine []modelChunk
			release := func(i int) {
				c := mine[i]
				mine[i] = mine[len(mine)-1]
				mine = mine[:len(mine)-1]
				held.Delete(c.ref.Offset)
				if err := a.Free(c.ref, c.req); err != nil {
					t.Errorf("Free(%+v): %v", c.ref, err)
				}
			}
			for i := 0; i < steps; i++ {
				switch p := rng.Intn(100); {
				case p < 50:
					size := 1 + rng.Intn(modelSlab)>>uint(rng.Intn(6))
					r, err := a.Alloc(size)
					if err == ErrNoCapacity {
						continue
					}
					if err != nil {
						t.Errorf("Alloc(%d): %v", size, err)
						return
					}
					if owner, dup := held.LoadOrStore(r.Offset, w); dup {
						t.Errorf("offset %d handed to worker %d while worker %v holds it", r.Offset, w, owner)
						return
					}
					mine = append(mine, modelChunk{r, size})
				case p < 95:
					if len(mine) > 0 {
						release(rng.Intn(len(mine)))
					}
				case p < 99:
					a.Drain()
				default:
					if grown.Add(1) <= slabs {
						a.Grow(modelSlab)
					}
				}
			}
			for len(mine) > 0 {
				release(0)
			}
		}(w)
	}
	wg.Wait()
	total := a.PoolBytes() / modelSlab
	if st := a.Stats(); st.AllocatedBytes != 0 || st.RequestedBytes != 0 || st.FreeSlabs != total || total <= slabs {
		t.Fatalf("after every chunk was freed: %+v (%d slabs, %d at the start)", st, total, slabs)
	}
	for i := 0; i < total; i++ {
		if _, err := a.Alloc(modelSlab); err != nil {
			t.Fatalf("whole-slab Alloc %d of %d: %v", i, total, err)
		}
	}
}
