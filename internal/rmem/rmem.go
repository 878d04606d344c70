// Package rmem models RMA-registered memory: the index and data regions a
// CliqueMap backend exposes for one-sided reads (§3, §4.1).
//
// Two properties of real registered memory matter to CliqueMap's design and
// are reproduced here:
//
//  1. RMA reads are not atomic with respect to CPU writes. A concurrent
//     SET can tear a GET's view of a DataEntry. In hardware this happens
//     because DMA and CPU stores interleave at cache-line granularity; here
//     writers apply mutations in bounded-size chunks and drop the region
//     locks between chunks, so concurrent readers observe genuinely torn
//     states without any Go-level data race. Self-validating checksums
//     (§3) are exercised for real.
//
//  2. Remote access is mediated by windows that can be revoked. Index
//     resizing (§4.1) revokes the old index window; in-flight client RMAs
//     then fail with a window error and the client retries via RPC,
//     learning the new geometry. Data-region growth registers a second,
//     larger window overlapping the first, and clients converge to it.
//
// Regions are internally synchronized with an offset-striped lock: the
// byte range is divided into lockBlock-sized blocks, each guarded by its
// own mutex, and an access locks the blocks it covers in ascending order.
// Accesses to disjoint blocks — concurrent SET handlers writing different
// DataEntries, or RMA GETs against different buckets — do not contend.
// A single Read still locks its whole span at once, so each Read is
// internally consistent per call; tearing arises only between a writer's
// chunks, exactly as before.
package rmem

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

var (
	// ErrRevoked reports an RMA against a revoked (or never-registered)
	// window. Clients respond by retrying over RPC (§4.1).
	ErrRevoked = errors.New("rmem: window revoked")
	// ErrOutOfBounds reports an RMA beyond the window's populated extent.
	ErrOutOfBounds = errors.New("rmem: access out of bounds")
)

// WriteChunk is the granularity at which writers publish bytes. Reads can
// interleave at chunk boundaries — this is the tearing window.
const WriteChunk = 256

// lockBlock is the granularity of the region lock stripes. Large enough
// that a typical access (a bucket, a DataEntry chunk) covers one or two
// blocks; small enough that concurrent accesses to different entries
// rarely share one.
const lockBlock = 64 << 10

// Region is a registered memory area. The backing array is reserved at
// maximum capacity up front (the paper's mmap of a very large virtual
// range, §4.1) but only `populated` bytes are usable; Grow populates more
// on demand. On unix the array is an anonymous mapping outside the Go
// heap, resident only where written and unmapped when the Region is
// collected; under the race detector, and elsewhere, it is a heap slice.
type Region struct {
	locks     []sync.Mutex // one per lockBlock of reserved capacity
	buf       []byte
	populated atomic.Int64
}

// mapped counts the bytes live regions hold mapped outside the heap.
var mapped atomic.Int64

// NewRegion reserves maxCap bytes and populates the first populated bytes.
func NewRegion(populated, maxCap int) *Region {
	if populated < 0 || maxCap < populated {
		panic(fmt.Sprintf("rmem: invalid region geometry %d/%d", populated, maxCap))
	}
	buf, isMapped := reserve(maxCap)
	r := &Region{locks: make([]sync.Mutex, (maxCap+lockBlock-1)/lockBlock+1), buf: buf}
	if isMapped {
		mapped.Add(int64(maxCap))
		runtime.SetFinalizer(r, func(r *Region) {
			unreserve(r.buf)
			mapped.Add(-int64(len(r.buf)))
		})
	}
	r.populated.Store(int64(populated))
	return r
}

// lockRange locks the stripes covering [off, off+n) in ascending order.
func (r *Region) lockRange(off, n int) (lo, hi int) {
	lo = off / lockBlock
	hi = lo
	if n > 0 {
		hi = (off + n - 1) / lockBlock
	}
	for i := lo; i <= hi; i++ {
		r.locks[i].Lock()
	}
	return lo, hi
}

func (r *Region) unlockRange(lo, hi int) {
	for i := hi; i >= lo; i-- {
		r.locks[i].Unlock()
	}
}

// Populated returns the usable extent.
func (r *Region) Populated() int { return int(r.populated.Load()) }

// Grow populates additional bytes, up to capacity, returning the new
// populated extent. Growth is what data-region reshaping performs off the
// critical path (§4.1).
func (r *Region) Grow(additional int) int {
	for {
		cur := r.populated.Load()
		next := cur + int64(additional)
		if next > int64(len(r.buf)) {
			next = int64(len(r.buf))
		}
		if r.populated.CompareAndSwap(cur, next) {
			return int(next)
		}
	}
}

// Read copies length bytes at off into a fresh slice. The read is atomic
// at chunk granularity only — matching DMA semantics — but since it holds
// its span's locks for the whole copy, a single Read is internally
// consistent *per call*. Tearing arises between a writer's chunks, i.e. a
// Read that lands between two WriteChunked sections of one logical entry.
func (r *Region) Read(off, length int) ([]byte, error) {
	// Check before allocating: length can come from a pointer read out of
	// RMA-visible memory, and a flipped high bit must cost an error, not a
	// terabyte make.
	if !r.InBounds(off, length) {
		return nil, ErrOutOfBounds
	}
	out := make([]byte, length)
	if err := r.ReadInto(off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// InBounds reports whether [off, off+length) lies inside the populated
// extent. The arithmetic cannot overflow, whatever the arguments.
func (r *Region) InBounds(off, length int) bool {
	p := r.populated.Load()
	return off >= 0 && length >= 0 && int64(off) <= p && int64(length) <= p-int64(off)
}

// View returns a zero-copy aliasing slice of [off, off+length). It takes
// no locks: the caller must order the view against writers of the same
// byte range externally (the backend reads its own index bucket this way
// under the bucket's stripe lock, which also serializes that bucket's
// writers). The slice is valid while the Region is reachable — Grow never
// reallocates the backing array, and the populated extent never recedes —
// and no longer: a mapped array goes back to the kernel when the Region
// is collected, so a caller whose last use of the Region precedes its
// last use of the view must runtime.KeepAlive the Region.
func (r *Region) View(off, length int) ([]byte, error) {
	if !r.InBounds(off, length) {
		return nil, ErrOutOfBounds
	}
	return r.buf[off : off+length : off+length], nil
}

// ReadInto copies into caller storage, avoiding allocation on hot paths.
func (r *Region) ReadInto(off int, dst []byte) error {
	if !r.InBounds(off, len(dst)) {
		return ErrOutOfBounds
	}
	lo, hi := r.lockRange(off, len(dst))
	copy(dst, r.buf[off:off+len(dst)])
	r.unlockRange(lo, hi)
	return nil
}

// Write stores data at off while holding its span's locks across the whole
// copy. Use for small metadata (an IndexEntry) whose publication must be
// single-chunk-atomic.
func (r *Region) Write(off int, data []byte) error {
	if !r.InBounds(off, len(data)) {
		return ErrOutOfBounds
	}
	lo, hi := r.lockRange(off, len(data))
	copy(r.buf[off:], data)
	r.unlockRange(lo, hi)
	return nil
}

// WriteChunked stores data at off in WriteChunk-sized sections, dropping
// the locks between sections. Concurrent readers may observe a prefix of
// the new bytes and a suffix of the old — a torn entry. This is how all
// DataEntry bodies are written.
func (r *Region) WriteChunked(off int, data []byte) error {
	if !r.InBounds(off, len(data)) {
		return ErrOutOfBounds
	}
	for i := 0; i < len(data); i += WriteChunk {
		end := i + WriteChunk
		if end > len(data) {
			end = len(data)
		}
		// No explicit yield between chunks: dropping the stripe locks is the
		// interleave point. A reader contending on the stripe enters the
		// mutex's starvation-mode FIFO within ~1ms and is handed the lock at
		// the next chunk boundary, so overlapping reads observe genuinely
		// torn states — while a writer's latency stays bounded by its chunk
		// count, not by the reader arrival rate. (An unconditional
		// runtime.Gosched here parks the writer on the global run queue,
		// which a busy single-P scheduler drains so rarely that a hot-key
		// read storm starved SETs for entire seconds.)
		lo, hi := r.lockRange(off+i, end-i)
		copy(r.buf[off+i:], data[i:end])
		r.unlockRange(lo, hi)
	}
	return nil
}

// FlipBit XORs mask into the byte at off while holding the covering lock
// stripe — modelling a silent registered-memory corruption (a DRAM bit
// flip, a DMA scribble) that lands between legitimate accesses rather
// than racing them. The damage is indistinguishable from a torn write to
// readers, which is the point: it must be caught by the §3 self-validating
// checksums, never by a Go-level race.
func (r *Region) FlipBit(off int, mask byte) error {
	if off < 0 || mask == 0 {
		return ErrOutOfBounds
	}
	if int64(off) >= r.populated.Load() {
		return ErrOutOfBounds
	}
	lo, hi := r.lockRange(off, 1)
	r.buf[off] ^= mask
	r.unlockRange(lo, hi)
	return nil
}

// WindowID names a registered RMA window. IDs are never reused within a
// Registry, so a stale ID always fails closed.
type WindowID uint64

// Window describes one registered window: a view over a region.
type Window struct {
	ID     WindowID
	Region *Region
	// Epoch counts registrations for the same logical role (e.g. "index").
	// Clients compare epochs to detect that their cached window is old.
	Epoch uint64
}

// Registry is a backend's table of registered windows — what its NIC
// consults to serve inbound RMA. Lookups are lock-free: every one-sided
// read resolves a window, so the table must never contend with serving.
type Registry struct {
	nextID  atomic.Uint64
	windows sync.Map // WindowID -> *Window
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

// Register exposes region under a fresh window ID at the given epoch.
func (g *Registry) Register(region *Region, epoch uint64) *Window {
	w := &Window{ID: WindowID(g.nextID.Add(1)), Region: region, Epoch: epoch}
	g.windows.Store(w.ID, w)
	return w
}

// Revoke invalidates a window. Subsequent RMAs with its ID fail with
// ErrRevoked.
func (g *Registry) Revoke(id WindowID) {
	g.windows.Delete(id)
}

// Lookup resolves a window ID, failing if revoked.
func (g *Registry) Lookup(id WindowID) (*Window, error) {
	w, ok := g.windows.Load(id)
	if !ok {
		return nil, fmt.Errorf("%w: id %d", ErrRevoked, id)
	}
	return w.(*Window), nil
}

// Peek runs fn on [off, off+length) of window id in place, holding the
// span's locks for fn's whole run, so fn sees what one AppendRead of the
// extent would copy. A NIC that scans a bucket server-side reads it this
// way and copies out only what it answers with. fn must not keep the view.
func (g *Registry) Peek(id WindowID, off, length int, fn func(view []byte)) error {
	w, err := g.Lookup(id)
	if err != nil {
		return err
	}
	r := w.Region
	if !r.InBounds(off, length) {
		return ErrOutOfBounds
	}
	lo, hi := r.lockRange(off, length)
	defer r.unlockRange(lo, hi)
	fn(r.buf[off : off+length : off+length])
	return nil
}

// AppendRead serves a one-sided read against window id into dst's tail: it
// returns append(dst, bytes…), or dst unchanged on error. off and length
// come from outside — the initiator's geometry, a pointer read out of
// RMA-visible memory — so the extent is checked before dst grows.
func (g *Registry) AppendRead(dst []byte, id WindowID, off, length int) ([]byte, error) {
	w, err := g.Lookup(id)
	if err != nil {
		return dst, err
	}
	if !w.Region.InBounds(off, length) {
		return dst, ErrOutOfBounds
	}
	out := slices.Grow(dst, length)[:len(dst)+length]
	if err := w.Region.ReadInto(off, out[len(dst):]); err != nil {
		return dst, err
	}
	return out, nil
}
