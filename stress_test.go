package cliquemap

// Concurrency stress test for the striped backend: many writers issue
// SET/ERASE/CAS over a small overlapping key space against one R=3.2
// cohort while readers run, all under the race detector. It asserts the
// two invariants the stripe refactor must preserve:
//
//   - monotone versions: a replica never serves a key at a version lower
//     than one it served before (version bounds only grow, §5.2);
//   - no lost updates: after the storm settles, every key's surviving
//     version is at least the newest mutation that reached a write quorum,
//     and whatever version survives is one that was actually issued, with
//     its exact payload.
//
// Run with `go test -race -run ConcurrentMutationStress`.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cliquemap/internal/core/client"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/drive"
	"cliquemap/internal/truetime"
)

const (
	stressWriters      = 4
	stressQuorumReader = 2
	stressKeys         = 12
	stressOpsPerWriter = 250
	stressQuorum       = 2 // R=3.2: replication 3, quorum 2
)

type stressMut struct {
	kind    byte // 's', 'c', 'e'
	v       truetime.Version
	payload string
	applied int // replicas that reported Applied
}

func stressKey(i int) []byte { return []byte(fmt.Sprintf("stress-%d", i)) }

func TestConcurrentMutationStress(t *testing.T) {
	c := newCell(t, Options{Shards: 3, Mode: R32})
	cc := c.Internal()
	ctx := context.Background()
	cfg := cc.Store.Get()
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = cfg.AddrFor(i)
	}
	clientHost := cc.Fabric.NumHosts() - 1

	var recMu sync.Mutex
	recs := make(map[string][]stressMut)

	// Per-replica reader: found versions for a key must never regress.
	readerErrs := make(chan error, stressQuorumReader+stressWriters+1)
	replicaReader := drive.Group{Worker: func(int) drive.Op {
		rpcc := cc.Net.Client(clientHost, "stress-reader")
		last := make(map[string]truetime.Version, 3*stressKeys)
		return func(i int) (uint64, error) {
			key := stressKey(i % stressKeys)
			for r, addr := range addrs {
				resp, _, err := rpcc.Call(ctx, addr, proto.MethodGet, proto.GetReq{Key: key}.Marshal())
				if err != nil {
					continue
				}
				gr, gerr := proto.UnmarshalGetResp(resp)
				if gerr != nil || !gr.Found {
					continue
				}
				id := fmt.Sprintf("%d/%s", r, key)
				if gr.Version.Less(last[id]) {
					readerErrs <- fmt.Errorf("replica %d key %s: version regressed %v -> %v", r, key, last[id], gr.Version)
					return 0, drive.ErrStop
				}
				last[id] = gr.Version
			}
			return 0, nil
		}
	}}

	// Quorum-GET readers exercise the client's RMA read path (including
	// torn-read detection and retry) against live mutation.
	quorumReaders := drive.Group{Workers: stressQuorumReader, Worker: func(id int) drive.Op {
		cl := c.NewClient(ClientOptions{Strategy: LookupSCAR})
		return func(i int) (uint64, error) {
			val, found, err := cl.Get(ctx, stressKey((i+id)%stressKeys))
			if errors.Is(err, client.ErrExhausted) {
				// Retry-budget exhaustion is the client's intended
				// fail-fast under overload, not a consistency violation —
				// and this storm of tight-loop quorum reads against 12
				// keys under live mutation can legitimately trip it when
				// the box is slow (e.g. under the race detector). Back
				// off and keep hammering; the oracles below still catch
				// any real lost update or regression.
				time.Sleep(time.Millisecond)
				return 0, err
			}
			if err != nil {
				readerErrs <- fmt.Errorf("quorum get: %v", err)
				return 0, drive.ErrStop
			}
			if found && (len(val) == 0 || val[0] != 'w') {
				readerErrs <- fmt.Errorf("quorum get returned foreign value %q", val)
				return 0, drive.ErrStop
			}
			return 0, nil
		}
	}}

	// Writers: versioned mutations to the full cohort, overlapping keys.
	writers := drive.Group{Workers: stressWriters, Ops: stressWriters * stressOpsPerWriter, Worker: func(id int) drive.Op {
		gen := truetime.NewGenerator(cc.Clock, uint64(7000+id))
		rpcc := cc.Net.Client(clientHost, fmt.Sprintf("stress-writer-%d", id))
		rng := rand.New(rand.NewSource(int64(id)))
		lastApplied := make(map[string]truetime.Version, stressKeys)

		send := func(method string, req []byte) (acked, applied int) {
			for _, addr := range addrs {
				resp, _, err := rpcc.Call(ctx, addr, method, req)
				if err != nil {
					continue
				}
				mr, merr := proto.UnmarshalMutateResp(resp)
				if merr != nil {
					continue
				}
				acked++
				if mr.Applied {
					applied++
				}
			}
			return acked, applied
		}

		return func(i int) (uint64, error) {
			key := stressKey(rng.Intn(stressKeys))
			v := gen.Next()
			m := stressMut{v: v}
			var acked int
			switch op := rng.Intn(10); {
			case op < 6:
				m.kind = 's'
				m.payload = fmt.Sprintf("w%d-%d", id, i)
				req := proto.SetReq{Key: key, Value: []byte(m.payload), Version: v}.Marshal()
				acked, m.applied = send(proto.MethodSet, req)
			case op < 8 && !lastApplied[string(key)].Zero():
				m.kind = 'c'
				m.payload = fmt.Sprintf("w%d-%d", id, i)
				req := proto.SetReq{Key: key, Value: []byte(m.payload), Expected: lastApplied[string(key)], Version: v}.Marshal()
				acked, m.applied = send(proto.MethodCas, req)
			default:
				m.kind = 'e'
				req := proto.SetReq{Key: key, Version: v}.Marshal()
				acked, m.applied = send(proto.MethodErase, req)
			}
			if acked != len(addrs) {
				readerErrs <- fmt.Errorf("writer %d: only %d/%d replicas acked", id, acked, len(addrs))
				return 0, drive.ErrStop
			}
			if m.applied >= stressQuorum && m.kind != 'e' {
				lastApplied[string(key)] = v
			}
			recMu.Lock()
			recs[string(key)] = append(recs[string(key)], m)
			recMu.Unlock()
			return 0, nil
		}
	}}
	drive.Run(ctx, nil, replicaReader, quorumReaders, writers)
	select {
	case err := <-readerErrs:
		t.Fatal(err)
	default:
	}

	// Converge: quorum repair propagates any minority-applied winners.
	if _, err := c.RepairAll(ctx); err != nil {
		t.Fatalf("repair: %v", err)
	}

	// No lost updates: per key, reconcile the final state against the
	// mutation record.
	rpcc := cc.Net.Client(clientHost, "stress-verify")
	for k := 0; k < stressKeys; k++ {
		key := stressKey(k)
		muts := recs[string(key)]
		byVersion := make(map[truetime.Version]stressMut, len(muts))
		var vSet, vErase truetime.Version // newest quorum-applied mutation per kind
		for _, m := range muts {
			byVersion[m.v] = m
			if m.applied < stressQuorum {
				continue
			}
			if m.kind == 'e' {
				if vErase.Less(m.v) {
					vErase = m.v
				}
			} else if vSet.Less(m.v) {
				vSet = m.v
			}
		}

		// best = newest found version across replicas.
		var best truetime.Version
		var bestVal []byte
		found := false
		for _, addr := range addrs {
			resp, _, err := rpcc.Call(ctx, addr, proto.MethodGet, proto.GetReq{Key: key}.Marshal())
			if err != nil {
				t.Fatalf("verify get: %v", err)
			}
			gr, gerr := proto.UnmarshalGetResp(resp)
			if gerr != nil {
				t.Fatalf("verify decode: %v", gerr)
			}
			if gr.Found && (best.Less(gr.Version) || !found) {
				best, bestVal, found = gr.Version, append([]byte(nil), gr.Value...), true
			}
		}

		if found {
			m, issued := byVersion[best]
			if !issued {
				t.Fatalf("key %s: surviving version %v was never issued", key, best)
			}
			if m.kind == 'e' {
				t.Fatalf("key %s: surviving version %v belongs to an erase", key, best)
			}
			if string(bestVal) != m.payload {
				t.Fatalf("key %s: payload %q does not match mutation %v (%q)", key, bestVal, best, m.payload)
			}
		}
		if vErase.Less(vSet) {
			// Newest quorum-applied mutation stored a value: it (or
			// something newer) must have survived.
			if !found || best.Less(vSet) {
				t.Fatalf("key %s: lost update — quorum-applied set %v, surviving %v (found=%v)", key, vSet, best, found)
			}
		} else if !vErase.Zero() && vSet.Less(vErase) {
			// Newest quorum-applied mutation erased: only something even
			// newer (a minority-applied CAS promoted by repair) may survive.
			if found && best.Less(vErase) {
				t.Fatalf("key %s: erased at %v but older version %v survived", key, vErase, best)
			}
		}
	}
}
