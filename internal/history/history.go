// Package history records client ops and checks each key's history
// against a versioned register (§5.2): acked writes order by their
// client-nominated version, not by real time; a write that errored, or a
// CAS that did not swap, may have applied, one that failed with
// proto.ErrNotStored did not; a read returns the newest write acked
// before it began, or one not acked by then; reads that do not overlap
// never go backwards; a CAS that swapped found its expected version
// current; a miss needs an erase, unless the cell evicted. Near-cache
// reads are GETs like any other. A read names its write by value, so the
// values written to one key must differ.
package history

import (
	"context"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cliquemap/internal/core/client"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// Outcome is how an op ended.
type Outcome uint8

const (
	Ack        Outcome = iota // a GET answered; a mutation reached its quorum
	Failed                    // the op errored: a mutation may have applied
	NotStored                 // proto.ErrNotStored: the mutation applied nowhere
	NotApplied                // a CAS that answered without swapping
)

func (o Outcome) String() string { return [...]string{"ack", "error", "not-stored", "not-applied"}[o] }

// Op is one client op as the history keeps it.
type Op struct {
	Invoke, Complete uint64 // ticks of the Recorder's one counter
	Client           int
	Kind             trace.Kind // KindGet, KindSet, KindCas or KindErase
	Key              string
	Value            string           // Tag of the value written or read; "" for an erase or a miss
	Version          truetime.Version // a mutation's nominated version
	Expected         truetime.Version // a CAS's expected version
	Outcome          Outcome
}

// String is the op's line in a failure artifact: tick span, client, kind,
// value tag, version and outcome.
func (o Op) String() string {
	val := o.Value
	if val == "" && o.Kind == trace.KindGet && o.Outcome == Ack {
		val = "miss"
	}
	s := fmt.Sprintf("[%d,%d] c%d %s %s", o.Invoke, o.Complete, o.Client, o.Kind, val)
	switch o.Kind {
	case trace.KindCas:
		s += " " + o.Version.String() + " expect " + o.Expected.String()
	case trace.KindSet, trace.KindErase:
		s += " " + o.Version.String()
	}
	return s + " " + o.Outcome.String()
}

// Tag is what a history keeps of a value: the value quoted, or for a long
// one its quoted head and a hash of the whole.
func Tag(v []byte) string {
	if len(v) <= 32 {
		return fmt.Sprintf("%q", v)
	}
	h := fnv.New64a()
	h.Write(v)
	return fmt.Sprintf("%q…%016x", v[:24], h.Sum64())
}

// Recorder collects the ops of any number of goroutines.
type Recorder struct {
	tick atomic.Uint64
	mu   sync.Mutex
	ops  []Op
}

// Tick returns the next tick: an op takes one as its Invoke first.
func (r *Recorder) Tick() uint64 { return r.tick.Add(1) }

// Add records op, which completes now.
func (r *Recorder) Add(op Op) {
	op.Complete = r.Tick()
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

// Ops returns a copy of the history so far.
func (r *Recorder) Ops() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.ops)
}

// Client runs ops through C and records each in R as client ID: its Get,
// SetVersioned, Cas and Erase are C's, recorded.
type Client struct {
	C  *client.Client
	R  *Recorder
	ID int
}

func (c Client) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	inv := c.R.Tick()
	v, found, err := c.C.Get(ctx, key)
	c.Observe(inv, key, v, found, err)
	return v, found, err
}

// Observe records a read of key begun at tick inv by another read method.
func (c Client) Observe(inv uint64, key, v []byte, found bool, err error) {
	op := Op{Invoke: inv, Client: c.ID, Kind: trace.KindGet, Key: string(key)}
	if err != nil {
		op.Outcome = Failed
	} else if found {
		op.Value = Tag(v)
	}
	c.R.Add(op)
}

func (c Client) SetVersioned(ctx context.Context, key, value []byte) (truetime.Version, error) {
	v, _, err := c.mutate(ctx, trace.KindSet, key, value, truetime.Version{})
	return v, err
}

func (c Client) Cas(ctx context.Context, key, value []byte, expected truetime.Version) (bool, error) {
	_, swapped, err := c.mutate(ctx, trace.KindCas, key, value, expected)
	return swapped, err
}

func (c Client) Erase(ctx context.Context, key []byte) error {
	_, _, err := c.mutate(ctx, trace.KindErase, key, nil, truetime.Version{})
	return err
}

func (c Client) mutate(ctx context.Context, kind trace.Kind, key, value []byte, expected truetime.Version) (truetime.Version, bool, error) {
	inv := c.R.Tick()
	v, swapped, err := c.C.Mutate(ctx, kind, key, value, expected)
	op := Op{Invoke: inv, Client: c.ID, Kind: kind, Key: string(key), Version: v, Expected: expected}
	if kind != trace.KindErase {
		op.Value = Tag(value)
	}
	switch {
	case proto.NotStored(err):
		op.Outcome = NotStored
	case err != nil:
		op.Outcome = Failed
	case kind == trace.KindCas && !swapped:
		op.Outcome = NotApplied
	}
	c.R.Add(op)
	return v, swapped, err
}

// ReadAll reads every key R has seen once more, the audit of a cell after
// churn. A read that errors is one more observation, retried up to 20
// times. A key still unreadable (its replicas may hold three versions, and
// no quorum, until repair settles them) gets 20 more after a repair.
func (c Client) ReadAll(ctx context.Context, repair func(context.Context) (int, error)) error {
	seen := map[string]bool{}
	for _, op := range c.R.Ops() {
		if seen[op.Key] {
			continue
		}
		seen[op.Key] = true
		_, _, err := c.Get(ctx, []byte(op.Key))
		for try := 1; try < 40 && err != nil; try++ {
			if try == 20 {
				if _, err := repair(ctx); err != nil {
					return err
				}
			}
			_, _, err = c.Get(ctx, []byte(op.Key))
		}
		if err != nil {
			return fmt.Errorf("history: %s stays unreadable after repair: %w", op.Key, err)
		}
	}
	return nil
}

// Violation is the first rule a key's history breaks.
type Violation struct {
	Key, Rule, Detail string
	History           []Op // the key's ops in invoke order
}

// Error reports the key and rule, then the key's whole history.
func (v Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "key %s breaks %q: %s\n", v.Key, v.Rule, v.Detail)
	for _, op := range v.History {
		fmt.Fprintf(&b, "  %s\n", op)
	}
	return b.String()
}

// Check holds each key's history to the register and returns one
// Violation per key that breaks a rule, in key order. evictions is the
// cell's eviction count: once the cell has evicted, any miss is legal.
func Check(ops []Op, evictions uint64) []Violation {
	ops = slices.Clone(ops)
	sort.Slice(ops, func(i, j int) bool {
		return ops[i].Key < ops[j].Key || ops[i].Key == ops[j].Key && ops[i].Invoke < ops[j].Invoke
	})
	var out []Violation
	for lo, hi := 0, 0; lo < len(ops); lo = hi {
		for hi = lo; hi < len(ops) && ops[hi].Key == ops[lo].Key; hi++ {
		}
		if rule, detail := checkKey(ops[lo:hi], evictions > 0); rule != "" {
			out = append(out, Violation{ops[lo].Key, rule, detail, ops[lo:hi]})
		}
	}
	return out
}

// checkKey scans h, one key's ops in invoke order. The floor is the highest
// version in force as an op began: every acked write's and answered read's.
func checkKey(h []Op, evicted bool) (rule, detail string) {
	writes := map[string]*Op{}             // by value tag
	versions := map[truetime.Version]*Op{} // SETs and CASes by version
	for i, op := range h {
		if op.Kind != trace.KindGet && op.Value != "" {
			writes[op.Value], versions[op.Version] = &h[i], &h[i]
		}
	}
	byDone := make([]int, len(h))
	for i := range byDone {
		byDone[i] = i
	}
	sort.Slice(byDone, func(a, b int) bool { return h[byDone[a]].Complete < h[byDone[b]].Complete })
	inForce := make([]truetime.Version, len(h)) // what each op put in force when it completed
	var floor truetime.Version
	var floorOp *Op
	for i, j := 0, 0; i < len(h); i++ {
		r := &h[i]
		for ; j < len(h) && h[byDone[j]].Complete < r.Invoke; j++ {
			if d := byDone[j]; floor.Less(inForce[d]) {
				floor, floorOp = inForce[d], &h[d]
			}
		}
		if r.Outcome != Ack {
			continue
		}
		switch {
		case r.Kind != trace.KindGet:
			if r.Kind == trace.KindCas {
				if w := versions[r.Expected]; w == nil || w.Outcome == NotStored || r.Expected.Less(floor) {
					return "cas", fmt.Sprintf("%s swapped, but its expected version was not current (floor %s)", r, floorOp)
				}
			}
			inForce[i] = r.Version
		case r.Value != "":
			w := writes[r.Value]
			switch {
			case w == nil || w.Invoke > r.Complete:
				return "phantom", fmt.Sprintf("%s returned a value no write had issued", r)
			case w.Outcome == NotStored:
				return "not-stored", fmt.Sprintf("%s returned %s", r, w)
			case w.Version.Less(floor) && floorOp.Kind == trace.KindGet:
				return "regressed", fmt.Sprintf("%s returned %s, older than %s", r, w, floorOp)
			case w.Version.Less(floor):
				return "stale", fmt.Sprintf("%s returned %s, older than %s", r, w, floorOp)
			}
			inForce[i] = w.Version
		case !evicted:
			// The lowest version that explains the miss: absence, or an erase.
			v, ok := floor, floor.Zero()
			for _, e := range h {
				if e.Kind == trace.KindErase && e.Invoke < r.Complete && !e.Version.Less(floor) && (!ok || e.Version.Less(v)) {
					v, ok = e.Version, true
				}
			}
			if !ok {
				return "miss", fmt.Sprintf("%s, but no erase explains it after %s", r, floorOp)
			}
			inForce[i] = v
		}
	}
	return "", ""
}
