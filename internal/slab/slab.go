// Package slab implements the slab-based allocator governing CliqueMap's
// data region (§4.1): "the memory pool for DataEntries is governed by a
// slab-based allocator and tuned to the deployment's workload. Slabs can be
// repurposed to different size classes as values come and go."
//
// The allocator carves a contiguous byte pool into fixed-size slabs; each
// slab is assigned to one size class and split into equal chunks. The
// default classes are spaced eight per doubling, and a size maps to its
// class by bit arithmetic (ClassSize), which the backend's free path shares.
//
// A slab whose last chunk is freed keeps its class (an alloc/free ping-pong
// must not rebuild a free list per round) but is counted as emptied; an
// Alloc that finds no unassigned slab reclaims one of those, and when the
// count is zero reports exhaustion without looking at any slab. The caller
// can then Drain: the allocator seals the slab whose contents are cheapest
// to re-home and names its live chunks, which the caller moves or drops;
// the Free of the last one makes the slab reclaimable like any other.
//
// Allocation happens inside concurrent backend RPC handlers: the fast path
// is synchronized per size class so SETs of different sizes never contend,
// and a central mutex serializes only the slow path (slab assignment,
// reclaiming, pool growth).
//
// Lock ordering: central mu → class mu. The fast path takes a single class
// mutex; the slow path takes the central mutex first and then at most one
// class mutex at a time. A slab's classIdx can only change under both the
// central mutex and its current class's mutex, so either pins it. A slab's
// free list and its sealed / listed flags belong to its current class's
// mutex.
package slab

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrNoCapacity reports that no chunk could be carved out; the caller (the
// backend's SET handler) responds by growing the data region (§4.1,
// reshaping), by evicting (§4.2, capacity conflict), or by draining a slab.
var ErrNoCapacity = errors.New("slab: no capacity")

// Ref locates an allocated chunk inside the pool: the RMA-friendly pointer
// of §3 is built from this (region id, offset, size).
type Ref struct {
	Offset int // byte offset into the pool
	Size   int // chunk size (size class), ≥ requested length
}

// classBits is log2 of the default table's classes per doubling.
const classBits = 3

// defaultClasses is the one copy of the default class table.
var defaultClasses = DefaultSizeClasses()

// DefaultSizeClasses spans 64B to 128KB with eight classes per doubling (64,
// 72, 80, … 120, 128, 144, … 122880, 131072: 89 classes), covering the
// object-size CDF of Figure 10 (most values ≤ a few KB, tail to ~100KB). A
// request fills more than 8/9 of its chunk, where powers of two waste half;
// a 1 KiB value's 1 084 B entry takes a 1 152 B chunk.
func DefaultSizeClasses() []int {
	var cs []int
	for base := 64; base < 128<<10; base *= 2 {
		for q := 0; q < 1<<classBits; q++ {
			cs = append(cs, base+q*base>>classBits)
		}
	}
	return append(cs, 128<<10)
}

// classIndex returns the index in the default table of the smallest class
// holding size (≥ 1), past the table's end when none does. With 2^e ≤ size-1
// < 2^(e+1), the classBits bits under the leading one pick the step of that
// doubling.
func classIndex(size int) int {
	if size <= 64 {
		return 0
	}
	m := uint(size - 1)
	e := bits.Len(m) - 1
	return (e-6)<<classBits + int(m>>(e-classBits))&(1<<classBits-1) + 1
}

// ClassSize returns the default class a request of size bytes is served
// from, or size itself when it exceeds the largest class.
func ClassSize(size int) int {
	if i := classIndex(size); i < len(defaultClasses) {
		return defaultClasses[i]
	}
	return size
}

type slabState struct {
	classIdx atomic.Int32 // -1 if unassigned; changes only under central mu + old class mu
	used     atomic.Int32 // allocated chunk count; mutated under class mu
	free     []int        // free chunk offsets within this slab
	sealed   atomic.Bool  // being drained: serves no chunk until reclaimed; set under class mu
	listed   bool         // has an entry on its class's slabs list
}

type classState struct {
	mu    sync.Mutex
	slabs []int // slabs of this class that may have free chunks; entries are hints
}

// Allocator manages a pool of poolSize bytes divided into slabSize slabs.
type Allocator struct {
	slabSize   int
	classes    []int         // immutable after New
	states     []*classState // one per class, immutable slice
	defaultTbl bool          // classes is a prefix of the default table

	mu        sync.Mutex // central: freeSlabs, slab assignment, growth
	freeSlabs []int      // indices of unassigned slabs

	slabs atomic.Pointer[[]*slabState] // grows under central mu; elements stable

	nFree     atomic.Int64 // len(freeSlabs)
	nEmptied  atomic.Int64 // assigned slabs with no chunk in use; moved where used crosses 0
	tailBytes atomic.Int64 // stranded tails of the assigned slabs
	poolSize  atomic.Int64 // bytes in the pool
	allocated atomic.Int64 // bytes in allocated chunks (by size class)
	requested atomic.Int64 // bytes actually requested by callers
}

// New returns an allocator over poolSize bytes with the given slab size and
// size classes (DefaultSizeClasses if nil). poolSize is rounded down to a
// multiple of slabSize. Classes larger than slabSize are rejected.
func New(poolSize, slabSize int, classes []int) (*Allocator, error) {
	if slabSize <= 0 || poolSize < slabSize {
		return nil, fmt.Errorf("slab: pool %d / slab %d invalid", poolSize, slabSize)
	}
	defaultTbl := classes == nil
	if defaultTbl {
		classes = defaultClasses[:sort.SearchInts(defaultClasses, slabSize+1)]
	}
	for i, c := range classes {
		if c <= 0 || c > slabSize {
			return nil, fmt.Errorf("slab: class %d (%dB) exceeds slab size %d", i, c, slabSize)
		}
		if i > 0 && classes[i] <= classes[i-1] {
			return nil, errors.New("slab: classes must be strictly increasing")
		}
	}
	n := poolSize / slabSize
	a := &Allocator{
		slabSize:   slabSize,
		classes:    classes,
		states:     make([]*classState, len(classes)),
		defaultTbl: defaultTbl,
	}
	for i := range a.states {
		a.states[i] = &classState{}
	}
	a.slabs.Store(new([]*slabState))
	a.addSlabsLocked(n)
	return a, nil
}

// addSlabsLocked extends the pool by n unassigned slabs; central mu held (or
// the allocator is not yet shared).
func (a *Allocator) addSlabsLocked(n int) {
	old := *a.slabs.Load()
	slabs := make([]*slabState, len(old)+n)
	copy(slabs, old)
	for i := len(old); i < len(slabs); i++ {
		slabs[i] = &slabState{}
		slabs[i].classIdx.Store(-1)
		a.freeSlabs = append(a.freeSlabs, i)
	}
	a.slabs.Store(&slabs)
	a.nFree.Add(int64(n))
	a.poolSize.Add(int64(n * a.slabSize))
}

// classFor returns the smallest class index fitting size, or -1.
func (a *Allocator) classFor(size int) int {
	ci := classIndex(size)
	if !a.defaultTbl {
		ci = sort.SearchInts(a.classes, size)
	}
	if ci >= len(a.classes) {
		return -1
	}
	return ci
}

// Alloc carves a chunk of at least size bytes. On success the returned Ref
// is stable until Free.
func (a *Allocator) Alloc(size int) (Ref, error) {
	if size <= 0 {
		return Ref{}, fmt.Errorf("slab: invalid size %d", size)
	}
	ci := a.classFor(size)
	if ci < 0 {
		return Ref{}, fmt.Errorf("slab: size %d exceeds largest class %d", size, a.classes[len(a.classes)-1])
	}

	// Fast path: a slab of this class with free chunks, under the class
	// mutex only.
	cs := a.states[ci]
	cs.mu.Lock()
	slabs := *a.slabs.Load() // under the lock: the list may name a slab Grow just added
	for len(cs.slabs) > 0 {
		s := slabs[cs.slabs[len(cs.slabs)-1]]
		if int(s.classIdx.Load()) == ci {
			if !s.sealed.Load() && len(s.free) > 0 {
				r := a.take(s, ci, size)
				cs.mu.Unlock()
				return r, nil
			}
			s.listed = false // exhausted or sealed; Free re-lists it
		}
		// Else the slab went to another class, whose mutex owns its flags.
		cs.slabs = cs.slabs[:len(cs.slabs)-1]
	}
	cs.mu.Unlock()

	// Slow path: assign a fresh slab to this class under the central mutex.
	a.mu.Lock()
	defer a.mu.Unlock()
	si, ok := a.takeFreeSlabLocked()
	if !ok {
		return Ref{}, ErrNoCapacity
	}
	slabs = *a.slabs.Load()
	s := slabs[si]
	// The slab is off every list, so no one else can touch it until it is
	// published into the class list below.
	chunk := a.classes[ci]
	n := a.slabSize / chunk
	s.free = make([]int, 0, n)
	base := si * a.slabSize
	for k := n - 1; k >= 0; k-- {
		s.free = append(s.free, base+k*chunk)
	}
	s.used.Store(0)
	a.nEmptied.Add(1) // until take, below
	a.tailBytes.Add(int64(a.slabSize % chunk))
	cs.mu.Lock()
	s.classIdx.Store(int32(ci))
	s.listed = true
	cs.slabs = append(cs.slabs, si)
	r := a.take(s, ci, size)
	cs.mu.Unlock()
	return r, nil
}

// takeFreeSlabLocked pops an unassigned slab, else reclaims an assigned one
// that has emptied (repurposing, §4.1); central mu held, which pins every
// slab's class. With nothing to reclaim it fails having touched no slab: the
// scan runs only when it will find one, at about a free list's build cost.
func (a *Allocator) takeFreeSlabLocked() (int, bool) {
	if n := len(a.freeSlabs); n > 0 {
		si := a.freeSlabs[n-1]
		a.freeSlabs = a.freeSlabs[:n-1]
		a.nFree.Add(-1)
		return si, true
	}
	if a.nEmptied.Load() == 0 {
		return 0, false
	}
	for si, s := range *a.slabs.Load() {
		ci := int(s.classIdx.Load())
		if ci < 0 || s.used.Load() != 0 {
			continue
		}
		cs := a.states[ci]
		cs.mu.Lock()
		empty := s.used.Load() == 0 // still: a fast-path Alloc may have got here first
		if empty {
			s.classIdx.Store(-1)
			s.free, s.listed = nil, false
			s.sealed.Store(false)
			a.nEmptied.Add(-1)
			a.tailBytes.Add(-int64(a.slabSize % a.classes[ci]))
		}
		cs.mu.Unlock()
		if empty {
			return si, true
		}
	}
	return 0, false
}

// take pops a chunk from s; the class mutex for ci is held.
func (a *Allocator) take(s *slabState, ci, reqSize int) Ref {
	off := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	if s.used.Add(1) == 1 {
		a.nEmptied.Add(-1)
	}
	a.allocated.Add(int64(a.classes[ci]))
	a.requested.Add(int64(reqSize))
	return Ref{Offset: off, Size: a.classes[ci]}
}

// Free returns a chunk to its slab. The ref must have come from Alloc and
// reqSize must be the size originally requested.
func (a *Allocator) Free(r Ref, reqSize int) error {
	slabs := *a.slabs.Load()
	si := r.Offset / a.slabSize
	if si < 0 || si >= len(slabs) {
		return fmt.Errorf("slab: ref offset %d out of pool", r.Offset)
	}
	s := slabs[si]
	for {
		ci := int(s.classIdx.Load())
		if ci < 0 || a.classes[ci] != r.Size {
			return fmt.Errorf("slab: ref size %d does not match slab class", r.Size)
		}
		cs := a.states[ci]
		cs.mu.Lock()
		if int(s.classIdx.Load()) != ci {
			// Repurposed between the load and the lock (only possible on a
			// bad ref — a live chunk pins its slab's class); retry.
			cs.mu.Unlock()
			continue
		}
		if (r.Offset-si*a.slabSize)%r.Size != 0 {
			cs.mu.Unlock()
			return fmt.Errorf("slab: ref offset %d misaligned for class %d", r.Offset, r.Size)
		}
		s.free = append(s.free, r.Offset)
		a.allocated.Add(-int64(r.Size))
		a.requested.Add(-int64(reqSize))
		if s.used.Add(-1) == 0 {
			a.nEmptied.Add(1)
		} else if !s.sealed.Load() && !s.listed {
			s.listed = true
			cs.slabs = append(cs.slabs, si)
		}
		cs.mu.Unlock()
		return nil
	}
}

// Drain seals the slab that is cheapest to empty — the fewest chunks that
// would not fit the free chunks its class has elsewhere, then the fewest
// chunks — and returns its live chunks. A sealed slab serves no chunk but
// accepts Free, and once its last chunk is freed the next Alloc that needs a
// slab reclaims it. The caller moves or drops each chunk's contents and frees
// it; chunks it leaves keep the slab sealed, and a later Drain offers it
// again. Nil means no slab holds a chunk.
func (a *Allocator) Drain() []Ref {
	slabs := *a.slabs.Load()
	holes := make([]int, len(a.classes)) // free chunks a class can still serve
	for _, s := range slabs {
		if ci := int(s.classIdx.Load()); ci >= 0 && !s.sealed.Load() {
			holes[ci] += a.slabSize/a.classes[ci] - int(s.used.Load())
		}
	}
	best, bestLoss, bestUsed := -1, 0, 0
	for si, s := range slabs {
		ci, used := int(s.classIdx.Load()), int(s.used.Load())
		if ci < 0 || used == 0 {
			continue
		}
		elsewhere := holes[ci]
		if !s.sealed.Load() {
			elsewhere -= a.slabSize/a.classes[ci] - used
		}
		loss := max(0, used-elsewhere)
		if best < 0 || loss < bestLoss || loss == bestLoss && used < bestUsed {
			best, bestLoss, bestUsed = si, loss, used
		}
	}
	if best < 0 {
		return nil
	}
	s := slabs[best]
	ci := int(s.classIdx.Load())
	if ci < 0 {
		return nil // emptied and reclaimed since the scan
	}
	cs := a.states[ci]
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if int(s.classIdx.Load()) != ci {
		return nil
	}
	s.sealed.Store(true)
	chunk, base := a.classes[ci], best*a.slabSize
	isFree := make([]bool, a.slabSize/chunk)
	for _, off := range s.free {
		isFree[(off-base)/chunk] = true
	}
	live := make([]Ref, 0, len(isFree)-len(s.free))
	for k, f := range isFree {
		if !f {
			live = append(live, Ref{Offset: base + k*chunk, Size: chunk})
		}
	}
	return live
}

// Stats describes allocator occupancy.
type Stats struct {
	PoolBytes      int     // total pool capacity
	AllocatedBytes int     // bytes held in allocated chunks (class-rounded)
	RequestedBytes int     // bytes the callers actually asked for
	FreeSlabs      int     // slabs an Alloc could assign: unassigned or emptied
	TailBytes      int     // bytes assigned slabs strand past their last whole chunk
	Utilization    float64 // allocated / pool
	InternalFrag   float64 // 1 - requested/allocated
}

// Stats returns a snapshot, from counters alone: it takes no lock and walks
// no slab.
func (a *Allocator) Stats() Stats {
	pool := int(a.poolSize.Load())
	alloc := int(a.allocated.Load())
	st := Stats{
		PoolBytes:      pool,
		AllocatedBytes: alloc,
		RequestedBytes: int(a.requested.Load()),
		FreeSlabs:      int(a.nFree.Load() + a.nEmptied.Load()),
		TailBytes:      int(a.tailBytes.Load()),
	}
	if pool > 0 {
		st.Utilization = float64(alloc) / float64(pool)
	}
	if alloc > 0 {
		st.InternalFrag = 1 - float64(st.RequestedBytes)/float64(alloc)
	}
	return st
}

// AllocatedBytes returns bytes held in allocated chunks, lock-free. Hot
// paths (the backend's per-alloc growth check) use this instead of Stats.
func (a *Allocator) AllocatedBytes() int { return int(a.allocated.Load()) }

// Grow extends the pool by additional bytes (rounded down to whole slabs),
// modelling data-region reshaping (§4.1): the address range was reserved up
// front, and Grow populates more of it.
func (a *Allocator) Grow(additional int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := additional / a.slabSize
	if n <= 0 {
		return 0
	}
	a.addSlabsLocked(n)
	return n * a.slabSize
}

// PoolBytes returns the current pool capacity.
func (a *Allocator) PoolBytes() int { return int(a.poolSize.Load()) }
