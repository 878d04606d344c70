package health

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/fabric"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// Canary is the client surface the prober exercises — *client.Client
// satisfies it. Each op's traced form hands back its modelled latency,
// which the prober records into the plane with the op's outcome.
type Canary interface {
	GetTraced(ctx context.Context, key []byte) ([]byte, bool, fabric.OpTrace, error)
	SetVersionedTraced(ctx context.Context, key, value []byte) (truetime.Version, fabric.OpTrace, error)
	CasTraced(ctx context.Context, key, value []byte, expected truetime.Version) (bool, fabric.OpTrace, error)
	EraseTraced(ctx context.Context, key []byte) (fabric.OpTrace, error)
	Transport() trace.Transport
}

// Target is one probe path: a canary client pinned to a transport (and,
// through replica selection, to the full cohort fan-out). Name labels it
// in telemetry, e.g. "2xR" or "RPC".
type Target struct {
	Name   string
	Client Canary
}

// ProbeKeys returns n canary keys inside the reserved probe namespace
// (layout.ProbeKeyPrefix). Spreading n well past the shard count makes
// every shard own at least one probe key with high probability, so a
// single sick replica cannot hide from the prober.
func ProbeKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("%scanary-%04d", layout.ProbeKeyPrefix, i))
	}
	return keys
}

// Prober sweeps every target × probe key with the full op mix. Rounds are
// driven explicitly (by cmcell's workload loop or a test) so probe
// cadence rides the same virtual clock as the cell.
type Prober struct {
	plane   *Plane
	targets []Target
	keys    [][]byte
	round   uint64
}

// NewProber builds a prober feeding plane. Keys defaults to ProbeKeys(8)
// when nil.
func NewProber(plane *Plane, targets []Target, keys [][]byte) *Prober {
	if len(keys) == 0 {
		keys = ProbeKeys(8)
	}
	return &Prober{plane: plane, targets: targets, keys: keys}
}

// Targets returns the probe target names, for display.
func (p *Prober) Targets() []string {
	names := make([]string, len(p.targets))
	for i, t := range p.targets {
		names[i] = t.Name
	}
	return names
}

// value derives the deterministic canary payload for (round, key, gen).
func probeValue(round uint64, key []byte, gen byte) []byte {
	v := make([]byte, 16+len(key))
	binary.LittleEndian.PutUint64(v, round)
	v[8] = gen
	copy(v[16:], key)
	return v
}

// Round performs one full sweep: for every target and probe key, SET a
// fresh payload, GET it back (verifying the bytes), CAS it forward at the
// SET's version, and ERASE it. Each op's availability and latency go into
// the plane through the target's Plane.Observer; Round adds the
// correctness verdicts (wrong value, lost CAS) and finishes with an
// Evaluate so alert states track probe cadence.
func (p *Prober) Round(ctx context.Context) Snapshot {
	p.round++
	for _, t := range p.targets {
		observe, tp := p.plane.Observer(t.Name), t.Client.Transport()
		for _, key := range p.keys {
			val := probeValue(p.round, key, 0)
			v, tr, err := t.Client.SetVersionedTraced(ctx, key, val)
			observe(trace.KindSet, trace.TransportRPC, tr.Ns, err)
			if err == nil {
				got, found, tr, gerr := t.Client.GetTraced(ctx, key)
				observe(trace.KindGet, tp, tr.Ns, gerr)
				if gerr == nil && (!found || !bytes.Equal(got, val)) {
					p.plane.RecordViolation("GET")
				}
				applied, tr, cerr := t.Client.CasTraced(ctx, key, probeValue(p.round, key, 1), v)
				observe(trace.KindCas, trace.TransportRPC, tr.Ns, cerr)
				if cerr == nil && !applied {
					p.plane.RecordViolation("CAS")
				}
			}
			tr, err = t.Client.EraseTraced(ctx, key)
			observe(trace.KindErase, trace.TransportRPC, tr.Ns, err)
		}
	}
	p.plane.noteRound()
	return p.plane.Evaluate()
}
