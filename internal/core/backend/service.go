package backend

import (
	"context"
	"errors"

	"cliquemap/internal/core/layout"
	"cliquemap/internal/core/proto"
	"cliquemap/internal/rpc"
	"cliquemap/internal/trace"
	"cliquemap/internal/truetime"
)

// ErrSealed rejects client mutations against an immutable corpus (§6.4).
var ErrSealed = errors.New("backend: corpus is sealed (R=2/Immutable)")

// Handler CPU costs (ns) billed per invocation, on top of the RPC
// framework cost. SETs dominate Figure 19's backend CPU at low GET
// fractions.
const (
	setHandlerCPU   = 2600
	eraseHandlerCPU = 1800
	getHandlerCPU   = 1600
	touchHandlerCPU = 300
	scanHandlerCPU  = 4000
)

// mutations is the handler table of the three client mutation methods,
// keyed by method. Each decodes one SetReq, takes the access records it
// carries, passes admission and acks the same way; a row names the cost its
// handler bills and the core that applies it.
var mutations = map[string]struct {
	cost  uint64
	apply func(b *Backend, sink *trace.SpanSink, r proto.SetReq) (applied bool, stored truetime.Version, evictions int, err error)
}{
	proto.MethodSet: {setHandlerCPU, func(b *Backend, sink *trace.SpanSink, r proto.SetReq) (bool, truetime.Version, int, error) {
		return b.set(sink, r.Key, r.Value, r.Version, precond{})
	}},
	proto.MethodErase: {eraseHandlerCPU, func(b *Backend, sink *trace.SpanSink, r proto.SetReq) (bool, truetime.Version, int, error) {
		applied, stored := b.erase(sink, r.Key, r.Version)
		return applied, stored, 0, nil
	}},
	proto.MethodCas: {setHandlerCPU, func(b *Backend, sink *trace.SpanSink, r proto.SetReq) (bool, truetime.Version, int, error) {
		return b.set(sink, r.Key, r.Value, r.Version, precond{cas: true, expected: r.Expected})
	}},
}

// debugHotKeys caps the heavy-hitter list shipped per Debug snapshot.
const debugHotKeys = 32

// SetServiceDelay adds ns of modelled handler time to every GET and client
// mutation — a brownout of this task; 0 restores the handlers' own costs.
func (b *Backend) SetServiceDelay(ns uint64) {
	b.srv.SetMethodCost(proto.MethodGet, getHandlerCPU+ns)
	for method, m := range mutations {
		b.srv.SetMethodCost(method, m.cost+ns)
	}
}

// registerHandlers wires the RPC service surface.
func (b *Backend) registerHandlers() {
	s := b.srv
	s.Handle(proto.MethodHello, func(_ context.Context, _ string, _ []byte) ([]byte, error) {
		return b.hello().Marshal(), nil
	})

	s.Handle(proto.MethodGet, func(ctx context.Context, _ string, req []byte) ([]byte, error) {
		sink := trace.SinkFrom(ctx)
		return b.serveGet(sink, sink.Reply(), req)
	})
	s.SetMethodCost(proto.MethodGet, getHandlerCPU)

	for method, m := range mutations {
		s.HandleBilled(method, func(ctx context.Context, _ string, req []byte) ([]byte, uint64, error) {
			r, err := proto.UnmarshalSetReq(req)
			if err != nil {
				return nil, 0, err
			}
			hot, cost, err := b.carried(r.Touches)
			if err != nil {
				return nil, cost, err
			}
			entryID, err := b.admitMutation(r.ConfigID, r.Pending, r.Repair)
			if err != nil {
				return nil, cost, err
			}
			sink := trace.SinkFrom(ctx)
			applied, stored, ev, err := m.apply(b, sink, r)
			if err != nil {
				return nil, cost, err
			}
			if applied && r.Repair {
				b.noteRecoverySettle()
			}
			return proto.MutateResp{Applied: applied, Stored: stored, Evictions: ev, Sealed: b.handoffStranded(entryID), Hot: hot}.AppendTo(sink.Reply()), cost, nil
		})
		s.SetMethodCost(method, m.cost)
	}

	s.Handle(proto.MethodTouch, func(ctx context.Context, _ string, req []byte) ([]byte, error) {
		ack, err := b.touch(req)
		if err != nil {
			return nil, err
		}
		return append(trace.SinkFrom(ctx).Reply(), ack...), nil
	})
	s.SetMethodCost(proto.MethodTouch, touchHandlerCPU)

	s.Handle(proto.MethodScan, func(_ context.Context, _ string, req []byte) ([]byte, error) {
		r, err := proto.UnmarshalScanReq(req)
		if err != nil {
			return nil, err
		}
		return b.scan(r).Marshal(), nil
	})
	s.SetMethodCost(proto.MethodScan, scanHandlerCPU)

	// Migration streams bypass both seals: they preserve, rather than
	// originate, state. Tombstone-flagged items re-play as erases so the
	// receiver's tombstone cache records them; the version gate makes
	// every re-application idempotent.
	migrate := func(_ context.Context, _ string, req []byte) ([]byte, error) {
		r, err := proto.UnmarshalMigrateBatchReq(req)
		if err != nil {
			return nil, err
		}
		for _, it := range r.Items {
			b.install(it)
		}
		if r.Final {
			b.tombSummaryFold(r.TombSummary)
		}
		return proto.Ack{}.Marshal(), nil
	}
	s.Handle(proto.MethodMigrateBatch, migrate)
	s.SetMethodCost(proto.MethodMigrateBatch, setHandlerCPU)

	s.Handle(proto.MethodSeal, func(_ context.Context, _ string, req []byte) ([]byte, error) {
		r, err := proto.UnmarshalSealReq(req)
		if err != nil {
			return nil, err
		}
		if r.On {
			b.HandoffSeal()
		} else {
			b.HandoffUnseal()
		}
		return proto.Ack{}.Marshal(), nil
	})

	s.Handle(proto.MethodAssumeShard, func(_ context.Context, _ string, req []byte) ([]byte, error) {
		r, err := proto.UnmarshalAssumeShardReq(req)
		if err != nil {
			return nil, err
		}
		b.shard.Store(int64(r.Shard))
		return proto.Ack{}.Marshal(), nil
	})

	s.Handle(proto.MethodConfig, func(_ context.Context, _ string, _ []byte) ([]byte, error) {
		cfg := b.store.Get()
		resp := proto.ConfigResp{
			ConfigID:   cfg.ID,
			Replicas:   cfg.Mode.Replicas(),
			Quorum:     cfg.Mode.Quorum(),
			ShardAddrs: append([]string(nil), cfg.ShardAddrs...),
		}
		if cfg.Pending != nil {
			resp.PendingShards = cfg.Pending.Shards
			resp.PendingShardAddrs = append([]string(nil), cfg.Pending.ShardAddrs...)
			resp.SealedOld = append([]bool(nil), cfg.Pending.SealedOld...)
		}
		return resp.Marshal(), nil
	})

	s.Handle(proto.MethodStats, func(_ context.Context, _ string, _ []byte) ([]byte, error) {
		return b.Stats().Marshal(), nil
	})

	s.Handle(proto.MethodDebug, func(_ context.Context, _ string, req []byte) ([]byte, error) {
		r, err := proto.UnmarshalDebugReq(req)
		if err != nil {
			return nil, err
		}
		return b.Debug(r.MaxSlow).Marshal(), nil
	})

	s.Handle(proto.MethodHealth, func(_ context.Context, _ string, _ []byte) ([]byte, error) {
		// The health plane is cell-wide state; the cell attaches a
		// marshalled-snapshot source after construction. A bare backend
		// (tests, spares before wiring) serves an empty snapshot rather
		// than an error so tooling can always poll.
		if fn := b.healthSrc.Load(); fn != nil {
			return (*fn)(), nil
		}
		return proto.HealthResp{}.Marshal(), nil
	})

	s.Handle(proto.MethodTier, func(_ context.Context, _ string, _ []byte) ([]byte, error) {
		// Tier routing state lives in the federation router; a tier
		// attaches a marshalled-snapshot source to every member cell's
		// backends. A cell outside any tier serves an empty snapshot so
		// cmstat -tier can always poll and report "not in a tier".
		if fn := b.tierSrc.Load(); fn != nil {
			return (*fn)(), nil
		}
		return proto.TierResp{}.Marshal(), nil
	})
}

// The two telemetry snapshot functions. Each is the whole body of its RPC
// method, and is also called directly — by the cell's own /metrics
// exposition and the loadwall probe — so a reader inside the process sees
// exactly what a scrape over the wire does, without billing the RPC
// framework it reports on.

// Stats snapshots the task's counters, gauges and saturation telemetry
// (MethodStats). A new counter is one StatsResp field, one line here (or
// in Counters.stats), and one row of fleet.Columns.
func (b *Backend) Stats() proto.StatsResp {
	st := b.CountersSnapshot().stats()
	st.Shard, st.Sealed, st.HandoffSealed = b.Shard(), b.Sealed(), b.HandoffSealed()
	st.ResidentKeys, st.MemoryBytes = uint64(b.Len()), uint64(b.MemoryBytes())
	if p := b.store.Get().Pending; p != nil {
		st.PendingShards = uint64(p.Shards)
	}

	stripeOps := b.StripeOps()
	st.Stripes = uint64(len(stripeOps))
	for _, ops := range stripeOps {
		st.StripeTotalOps += ops
		st.StripeMaxOps = max(st.StripeMaxOps, ops)
	}
	st.HeatTracked, st.HeatTotal = uint64(b.heat.Tracked()), b.heat.Total()
	// Stats scrapes double as a promotion heartbeat for workloads
	// that never send touch batches (MSG/RPC-only clients).
	b.maybeEvalHot()
	st.HotEpoch, st.HotKeys = b.HotSnapshot()

	rec := b.RecoveryStatsSnapshot()
	st.CkptEpoch, st.CkptUnixNano = rec.CkptEpoch, uint64(rec.CkptUnixNano)
	st.JournalRecords, st.JournalBytes = rec.JournalRecords, rec.JournalBytes
	st.RecoveredKeys, st.ReplayedRecords = rec.RecoveredKeys, rec.ReplayedRecords
	st.SelfValidated, st.Recovering = rec.SelfValidated, rec.Recovering

	ssat := b.stripeSaturation()
	st.StripeContended, st.StripeWaitNs = ssat.Contended, ssat.WaitNs
	st.StripeHeldNs, st.StripeHeldSampled = ssat.HeldNs, ssat.HeldSampled
	rsat := b.srv.Saturation()
	st.RPCWorkerLimit, st.RPCWorkersBusy, st.RPCRhoMilli = rsat.WorkerLimit, rsat.WorkersBusy, rsat.RhoMilli
	st.RPCQueuedSubmits, st.RPCSubmitWaitNs = rsat.QueuedSubmits, rsat.SubmitWaitNs
	st.RPCQueuedCalls, st.RPCQueueNs = rsat.QueuedCalls, rsat.QueueNs
	nsat := b.NICSat()
	st.NICEngines, st.NICRhoMilli, st.NICQueueNs, st.NICOps = nsat.Engines, nsat.RhoMilli, nsat.QueueNs, nsat.Ops

	slabs := b.data.Load().alloc.Stats()
	st.DataFragMilli, st.DataTailBytes = uint64(slabs.InternalFrag*1000), uint64(slabs.TailBytes)
	return st
}

// stats starts a Stats snapshot from the op counters. Every Counters field
// lands here or on the reflection test's skip list, with its reason.
func (c Counters) stats() proto.StatsResp {
	return proto.StatsResp{
		Sets:           c.Sets,
		Gets:           c.Gets,
		Erases:         c.Erases,
		CasOps:         c.CasOps,
		Touches:        c.Touches,
		Evictions:      c.CapacityEvictions + c.AssocEvictions,
		Overflows:      c.Overflows,
		CorruptPurged:  c.CorruptPurged,
		IndexResizes:   c.IndexResizes,
		DataGrows:      c.DataGrows,
		RepairsIssued:  c.RepairsIssued,
		VersionRejects: c.VersionRejects,
		SlabDrains:     c.SlabDrains,
		EntriesMoved:   c.EntriesMoved,
	}
}

// Debug snapshots the cell's op tracer (when attached), this task's CPU
// accounts, heavy-hitter sketch and per-stripe op counts (MethodDebug).
// maxSlow bounds the slow-op log; ≤ 0 means all retained.
func (b *Backend) Debug(maxSlow int) proto.DebugResp {
	var resp proto.DebugResp
	if t := b.tracer.Load(); t != nil {
		snap := t.Snapshot(maxSlow)
		resp = proto.DebugResp{
			OpsTotal: snap.Ops, SlowTotal: snap.SlowTotal, SlowThresholdNs: snap.SlowThresholdNs,
			Hists: snap.Hists, SlowOps: snap.Slow, Exemplars: snap.Exemplars,
			Hazards: snap.Hazards, Health: snap.Health,
		}
	}
	if b.acct != nil {
		resp.CPU = b.acct.Rows()
	}
	resp.HotKeys = b.heat.TopN(debugHotKeys)
	resp.StripeHeat = b.StripeOps()
	return resp
}

// HandleMsg serves the two-sided MSG lookup strategy (Figure 7) delivered
// through the software NIC: a GET that wakes a backend application thread.
func (b *Backend) HandleMsg(req []byte) ([]byte, error) { return b.serveGet(nil, nil, req) }

// serveGet is the server side of both two-sided lookups, the MethodGet RPC
// and the NIC MSG exchange: it appends the response to dst.
func (b *Backend) serveGet(sink *trace.SpanSink, dst, req []byte) ([]byte, error) {
	r, err := proto.UnmarshalGetReq(req)
	if err != nil {
		return nil, err
	}
	if r.ConfigID != 0 && r.ConfigID != b.configID.Load() {
		return nil, layout.ErrConfigChanged
	}
	// One copy, one allocation: the entry is read into pooled scratch,
	// checksum-validated there, and its value encoded straight into the
	// response.
	bp := dataBufs.Get().(*[]byte)
	defer dataBufs.Put(bp)
	de, found, err := b.view(sink, r.Key, bp)
	if err != nil {
		// A damaged entry abstains: a miss vote could join a false miss quorum.
		return nil, err
	}
	if !found && b.recovering.Load() {
		// A recovering replica cannot distinguish "never stored" from
		// "acked before the crash, not yet recovered": a clean miss
		// here could mint a lost-write quorum. Resident entries are
		// safe to serve (genuine acked writes at monotone versions);
		// misses bounce until the self-validation sweep ends.
		return nil, proto.ErrRecovering
	}
	if de.Compressed {
		if de.Value, err = layout.DecompressValue(de.Value); err != nil {
			return nil, err
		}
	}
	return proto.GetResp{Found: found, Value: de.Value, Version: de.Version}.AppendTo(dst), nil
}

// touch feeds access records (§4.2), an encoded TouchReq, to eviction and
// the heat sketch, and returns the ack they earn: the promotion set, since
// access records are exactly the traffic that makes keys hot. Old clients
// read a TouchResp as the empty Ack they expect (additive tags).
func (b *Backend) touch(records []byte) ([]byte, error) {
	if err := b.ingestTouches(records); err != nil {
		return nil, err
	}
	b.maybeEvalHot()
	return b.hotAck(), nil
}

// carried takes the access records a mutation leg carried (nil: none)
// through touch, whatever the mutation's verdict, and returns their ack
// and their cost: what the Touch RPC they stand in for bills its handler.
func (b *Backend) carried(records []byte) (ack []byte, cost uint64, err error) {
	if records == nil {
		return nil, 0, nil
	}
	ack, err = b.touch(records)
	return ack, touchHandlerCPU, err
}

// admitMutation is the admission check every client mutation passes before
// it applies: the corpus seal (repair SETs exempt), the §6.1 self-
// validation stamp extended to the RPC write path — a client whose config
// view lags (or leads a not-yet-restamped backend) must refresh before
// its write lands in the wrong epoch — and the handoff seal. It returns
// the config stamp at entry, which handoffStranded compares at response
// time.
func (b *Backend) admitMutation(cfgID uint64, pending, repair bool) (entryID uint64, err error) {
	if b.Sealed() && !repair {
		return 0, ErrSealed
	}
	entryID = b.configID.Load()
	if cfgID != 0 && cfgID != entryID {
		return 0, layout.ErrConfigChanged
	}
	if b.handoffRejects(pending) {
		return 0, proto.ErrShardSealed
	}
	return entryID, nil
}

// getAt reads key from the cohort member at addr — directly when that is
// this backend, else over RPC. An unreachable member reads as a miss.
func (b *Backend) getAt(ctx context.Context, client *rpc.Client, addr string, key []byte) (value []byte, ver truetime.Version, found bool) {
	if addr == b.opt.Addr {
		return b.get(nil, key)
	}
	resp, _, err := client.Call(ctx, addr, proto.MethodGet, proto.GetReq{Key: key}.Marshal())
	if err != nil {
		return nil, truetime.Version{}, false
	}
	g, err := proto.UnmarshalGetResp(resp)
	return g.Value, g.Version, err == nil && g.Found
}

// RepairShard runs the §5.4 repair procedure for shard s, which this
// backend should only do when it participates in s's cohort. For every key
// of shard s, it gathers the per-replica versions (its own view plus
// cohort scans over RPC), detects dirty quorums, and settles all replicas
// on the newest version: a SET (or, for a tombstone, an ERASE) at that
// version to each replica that lags it.
func (b *Backend) RepairShard(ctx context.Context, s int) (repaired int, err error) {
	cfg := b.store.Get()
	cohort := cfg.Cohort(s)

	type replicaView struct {
		addr    string
		local   bool
		items   map[string]proto.ScanItem
		summary truetime.Version // replica's coarse tombstone summary
	}
	views := make([]replicaView, 0, len(cohort))
	client := b.rpcClient()

	for _, shard := range cohort {
		addr := cfg.AddrFor(shard)
		view := replicaView{addr: addr, local: addr == b.opt.Addr, items: make(map[string]proto.ScanItem)}
		for cursor, done := uint64(0), false; !done; {
			req := proto.ScanReq{Shard: s, Cursor: cursor, Limit: 4096}
			var page proto.ScanResp
			if view.local {
				page = b.scan(req)
			} else {
				resp, _, cerr := client.Call(ctx, addr, proto.MethodScan, req.Marshal())
				if cerr != nil {
					// A down cohort member cannot be scanned; repair what
					// the reachable members show.
					break
				}
				var perr error
				if page, perr = proto.UnmarshalScanResp(resp); perr != nil {
					return repaired, perr
				}
			}
			for _, it := range page.Items {
				view.items[string(it.Key)] = it
			}
			view.summary = view.summary.Max(page.TombSummary)
			cursor, done = page.NextCursor, page.Done
		}
		views = append(views, view)
	}

	// settle sends the repair mutation r through method to each laggard
	// (versions[i] is not r's): here through the method's core, to a peer
	// over RPC. It reports whether every laggard was reached.
	settle := func(method string, r proto.SetReq, versions []truetime.Version) (reached bool) {
		reached = true
		for i, v := range views {
			switch {
			case versions[i] == r.Version:
			case v.local:
				if applied, _, _, _ := mutations[method].apply(b, nil, r); applied {
					b.noteRecoverySettle()
				}
			default:
				_, _, err := client.Call(ctx, v.addr, method, r.Marshal())
				reached = reached && err == nil
			}
		}
		return reached
	}

	// Union of keys across replicas.
	keys := map[string]bool{}
	for _, v := range views {
		for k := range v.items {
			keys[k] = true
		}
	}

	for k := range keys {
		var versions []truetime.Version
		bestIdx := -1
		var bestV truetime.Version
		bestTomb := false
		for i, v := range views {
			it, ok := v.items[k]
			if !ok {
				versions = append(versions, truetime.Version{})
				continue
			}
			versions = append(versions, it.Version)
			if bestIdx < 0 || bestV.Less(it.Version) {
				bestIdx, bestV, bestTomb = i, it.Version, it.Tombstone
			}
		}
		clean := true
		for _, v := range versions {
			if v != bestV {
				clean = false
				break
			}
		}
		if clean || bestIdx < 0 {
			if clean && bestTomb {
				// Every replica holds the tombstone at bestV: the erase
				// is cohort-settled, so a pending-settle copy of it can
				// retire.
				b.tombSettled(views[bestIdx].items[k])
			}
			continue
		}

		// Settle the laggards AT bestV — never a fresh dominating version.
		// Repair's view is a snapshot: a client mutation can land between
		// the scan and this settle, and a settle stamped with a version
		// above everything would clobber it (a lost acked write). At
		// bestV, every install re-validates version monotonicity under
		// the stripe lock, so a concurrent newer mutation wins and the
		// next sweep re-evaluates — repair converges without ever racing
		// ahead of the write path.
		if bestTomb {
			// Newest state is an ERASE: propagate the tombstone. Replicas
			// still holding the value missed the erase; re-erasing at the
			// tombstone's version completes it (§5.2) without resurrection.
			// An unreachable laggard was not erased, so a pending-settle
			// tombstone must then stay enumerable for the next sweep.
			if settle(proto.MethodErase, proto.SetReq{Key: []byte(k), Version: bestV, Repair: true}, versions) {
				b.tombSettled(views[bestIdx].items[k])
			}
			repaired++
			continue
		}

		// Newest state is a value — but a replica that does NOT hold the
		// key and whose coarse tombstone summary dominates bestV may have
		// erased it at a version the summary swallowed (§5.2): the erase
		// is invisible to the scan, and settling the value upward would
		// resurrect it. Repair stays neutral on such keys; the summary
		// still blocks stale SETs and the window closes as the cohort
		// converges.
		dominated := false
		for _, v := range views {
			if _, ok := v.items[k]; ok {
				continue
			}
			if !v.summary.Less(bestV) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}

		// Newest state is a value: fetch it, requiring it still carries
		// bestV — if the holder moved on, a newer mutation is already
		// settling this key and the next sweep re-evaluates.
		value, ver, found := b.getAt(ctx, client, views[bestIdx].addr, []byte(k))
		if !found || ver != bestV {
			continue
		}
		settle(proto.MethodSet, proto.SetReq{Key: []byte(k), Value: value, Version: bestV, Repair: true}, versions)
		repaired++
	}

	b.stripes[0].ctr.repairsIssued.Add(uint64(repaired))
	return repaired, nil
}
