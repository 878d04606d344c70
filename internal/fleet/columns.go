package fleet

import (
	"fmt"

	"cliquemap/internal/core/proto"
)

// Kind says how a column's value reads: in a table cell, as a -watch
// interval, and as a Prometheus sample.
type Kind int

const (
	Counter   Kind = iota // cumulative count; -watch prints the interval's delta, or a rate under a "…/s" header
	Nanos                 // cumulative nanoseconds; -watch prints seconds accrued per wall second; exported as seconds
	Gauge                 // instantaneous count
	Bytes                 // instantaneous byte size
	Milli                 // instantaneous ratio ×1000
	Percent               // instantaneous ratio ×1000, shown as a percentage
	Age                   // unix-nanosecond instant, shown as its age at scrape time (0: never)
	Occupancy             // Get busy out of Of
	Text                  // display string
)

// Cumulative reports whether values of kind k only grow over a task's
// lifetime, so that -watch shows their per-interval change and a value
// lower than the previous round's means the task restarted.
func (k Kind) Cumulative() bool { return k == Counter || k == Nanos }

// Column is one per-task metric: where cmstat shows it and how /metrics
// exports it, both read off a scraped StatsResp.
type Column struct {
	Table string // "" (the per-shard main table), "RECOVERY" or "SATURATION"
	Head  string // header in the cumulative view; "" leaves the column out of it
	Watch string // header under -watch; "" leaves the column out of it
	Kind  Kind
	Prom  string // Prometheus family, one sample per task (Occupancy: two, by state); "" exports nothing
	Get   func(*proto.StatsResp) uint64
	Of    func(*proto.StatsResp) uint64 // Occupancy only
	Text  func(*proto.StatsResp) string // Text only
}

type sr = proto.StatsResp

func num(table, head, watch string, kind Kind, prom string, get func(*sr) uint64) Column {
	return Column{Table: table, Head: head, Watch: watch, Kind: kind, Prom: prom, Get: get}
}

func text(table, head string, get func(*sr) string) Column {
	return Column{Table: table, Head: head, Watch: head, Kind: Text, Text: get}
}

const (
	recovery   = "RECOVERY"
	saturation = "SATURATION"
)

// Columns is the one list of per-task metrics. cmstat's main, RECOVERY and
// SATURATION tables (cumulative and -watch) and the per-task families of
// the exposition page are all derived from it, so adding a counter is one
// StatsResp field, one line in Backend.Stats, and one row here. Every
// numeric or bool StatsResp field is read by exactly one row (a test holds
// that), and nothing else names one except the RESIZE section, which is
// not a per-task column.
var Columns = []Column{
	num("", "KEYS", "KEYS", Gauge, "cliquemap_task_resident_keys", func(s *sr) uint64 { return s.ResidentKeys }),
	num("", "MEMORY", "MEMORY", Bytes, "cliquemap_task_memory_bytes", func(s *sr) uint64 { return s.MemoryBytes }),
	num("", "GETS", "GETS/s", Counter, "cliquemap_task_gets_total", func(s *sr) uint64 { return s.Gets }),
	num("", "SETS", "SETS/s", Counter, "cliquemap_task_sets_total", func(s *sr) uint64 { return s.Sets }),
	num("", "ERASES", "", Counter, "cliquemap_task_erases_total", func(s *sr) uint64 { return s.Erases }),
	num("", "CAS", "", Counter, "cliquemap_task_cas_total", func(s *sr) uint64 { return s.CasOps }),
	num("", "TOUCHES", "", Counter, "cliquemap_task_touches_total", func(s *sr) uint64 { return s.Touches }),
	num("", "EVICT", "EVICT", Counter, "cliquemap_task_evictions_total", func(s *sr) uint64 { return s.Evictions }),
	num("", "OVERFLOW", "", Counter, "cliquemap_task_overflows_total", func(s *sr) uint64 { return s.Overflows }),
	num("", "PURGED", "", Counter, "cliquemap_task_corrupt_purged_total", func(s *sr) uint64 { return s.CorruptPurged }),
	num("", "DRAINS", "DRAINS", Counter, "cliquemap_task_slab_drains_total", func(s *sr) uint64 { return s.SlabDrains }),
	num("", "MOVED", "MOVED", Counter, "cliquemap_task_entries_moved_total", func(s *sr) uint64 { return s.EntriesMoved }),
	// FRAG: allocated chunk bytes no entry asked for; TAIL: stranded past a slab's last chunk.
	num("", "FRAG", "FRAG", Percent, "cliquemap_task_data_frag_ratio", func(s *sr) uint64 { return s.DataFragMilli }),
	num("", "TAIL", "", Bytes, "cliquemap_task_data_tail_bytes", func(s *sr) uint64 { return s.DataTailBytes }),
	num("", "RESIZE", "", Counter, "cliquemap_task_index_resizes_total", func(s *sr) uint64 { return s.IndexResizes }),
	num("", "GROWS", "", Counter, "cliquemap_task_data_grows_total", func(s *sr) uint64 { return s.DataGrows }),
	num("", "REPAIRS", "REPAIRS", Counter, "cliquemap_task_repairs_total", func(s *sr) uint64 { return s.RepairsIssued }),
	num("", "REJECTS", "REJECTS", Counter, "cliquemap_task_version_rejects_total", func(s *sr) uint64 { return s.VersionRejects }),
	num("", "STRIPES", "", Gauge, "", func(s *sr) uint64 { return s.Stripes }),
	text("", "SKEW", fmtSkew),
	text("", "SEALED", fmtSeal),
	// The heat sketch's size and its N (of the N/k error bound); its content is the HOT KEY table.
	num("", "", "", Gauge, "cliquemap_task_heat_tracked_keys", func(s *sr) uint64 { return s.HeatTracked }),
	num("", "", "", Counter, "cliquemap_task_heat_ops_total", func(s *sr) uint64 { return s.HeatTotal }),

	// The durability plane: the newest committed checkpoint, the journal
	// depth since it, and — after a warm restart — how much of the corpus
	// came back from disk and has self-validated against the quorum. All
	// gauges: -watch shows where recovery stands, not its rate.
	num(recovery, "CKPT EPOCH", "CKPT EPOCH", Gauge, "cliquemap_task_checkpoint_epoch", func(s *sr) uint64 { return s.CkptEpoch }),
	num(recovery, "CKPT AGE", "CKPT AGE", Age, "", func(s *sr) uint64 { return s.CkptUnixNano }),
	num(recovery, "JOURNAL", "JOURNAL", Gauge, "cliquemap_task_journal_records", func(s *sr) uint64 { return s.JournalRecords }),
	num(recovery, "JBYTES", "JBYTES", Bytes, "cliquemap_task_journal_bytes", func(s *sr) uint64 { return s.JournalBytes }),
	num(recovery, "RECOVERED", "RECOVERED", Gauge, "cliquemap_task_recovered_keys", func(s *sr) uint64 { return s.RecoveredKeys }),
	num(recovery, "REPLAYED", "REPLAYED", Gauge, "cliquemap_task_replayed_records", func(s *sr) uint64 { return s.ReplayedRecords }),
	num(recovery, "SELFVAL", "SELFVAL", Gauge, "cliquemap_task_self_validated_keys", func(s *sr) uint64 { return s.SelfValidated }),
	text(recovery, "RECOVERING", func(s *sr) string { return fmt.Sprint(s.Recovering) }),

	// How busy each resource on the serving path is, so a load-wall
	// report's "limited by X" reads straight off a live cell. The queue
	// times are cumulative: under -watch they print as queue-seconds
	// accrued per wall second, the score the loadwall probe ranks by.
	{Table: saturation, Head: "WORKERS", Watch: "WORKERS", Kind: Occupancy, Prom: "cliquemap_rpc_workers",
		Get: func(s *sr) uint64 { return s.RPCWorkersBusy }, Of: func(s *sr) uint64 { return s.RPCWorkerLimit }},
	num(saturation, "RPCρ", "RPCρ", Milli, "cliquemap_rpc_utilization", func(s *sr) uint64 { return s.RPCRhoMilli }),
	num(saturation, "QSUBMITS", "", Counter, "cliquemap_rpc_queued_submits_total", func(s *sr) uint64 { return s.RPCQueuedSubmits }),
	num(saturation, "QUEUED", "", Counter, "cliquemap_rpc_queued_calls_total", func(s *sr) uint64 { return s.RPCQueuedCalls }),
	num(saturation, "QWAIT", "QWAIT s/s", Nanos, "cliquemap_rpc_queue_seconds_total", func(s *sr) uint64 { return s.RPCSubmitWaitNs + s.RPCQueueNs }),
	num(saturation, "CONTENDED", "CONT/s", Counter, "cliquemap_stripe_lock_contended_total", func(s *sr) uint64 { return s.StripeContended }),
	num(saturation, "LOCKWAIT", "LOCK s/s", Nanos, "cliquemap_stripe_lock_wait_seconds_total", func(s *sr) uint64 { return s.StripeWaitNs }),
	num(saturation, "HELD", "", Nanos, "cliquemap_stripe_lock_held_seconds_total", func(s *sr) uint64 { return s.StripeHeldNs }),
	num(saturation, "HELDN", "", Counter, "cliquemap_stripe_lock_held_samples_total", func(s *sr) uint64 { return s.StripeHeldSampled }),
	num(saturation, "ENG", "ENG", Gauge, "cliquemap_nic_engines", func(s *sr) uint64 { return s.NICEngines }),
	num(saturation, "NICρ", "NICρ", Milli, "cliquemap_nic_utilization", func(s *sr) uint64 { return s.NICRhoMilli }),
	num(saturation, "NICQ", "NICQ s/s", Nanos, "cliquemap_nic_queue_seconds_total", func(s *sr) uint64 { return s.NICQueueNs }),
	num(saturation, "NICOPS", "NICOPS/s", Counter, "cliquemap_nic_ops_total", func(s *sr) uint64 { return s.NICOps }),
}

// Restarted reports whether any cumulative column of cur reads lower than
// it did in prev: the task's counters reset, i.e. the backend restarted
// between the two scrapes.
func Restarted(cur, prev *proto.StatsResp) bool {
	for i := range Columns {
		if c := &Columns[i]; c.Kind.Cumulative() && c.Get(cur) < c.Get(prev) {
			return true
		}
	}
	return false
}

// fmtSeal renders the two independent seals on a backend: the corpus
// seal (R2Immutable mode) and the handoff seal (a shard migration is
// draining its journal; mutations bounce until the seal lifts).
func fmtSeal(st *proto.StatsResp) string {
	switch {
	case st.Sealed && st.HandoffSealed:
		return "corpus+handoff"
	case st.Sealed:
		return "corpus"
	case st.HandoffSealed:
		return "handoff"
	}
	return "-"
}

// fmtSkew renders the busiest stripe's op count relative to the mean
// stripe (1.00 = perfectly even load; nStripes = everything on one
// stripe). High skew means the bucket-stripe locks are degenerating
// toward a global lock for this workload.
func fmtSkew(st *proto.StatsResp) string {
	if st.Stripes == 0 || st.StripeTotalOps == 0 {
		return "-"
	}
	mean := float64(st.StripeTotalOps) / float64(st.Stripes)
	return fmt.Sprintf("%.2f", float64(st.StripeMaxOps)/mean)
}
