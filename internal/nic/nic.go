// Package nic defines the one-sided operation surface CliqueMap clients
// hold toward each backend, independent of the underlying RMA transport.
//
// The paper stresses that datacenters are heterogeneous (§6.3, §7.2.4):
// CliqueMap runs 2×R fetches over any transport (Pony Express, 1RMA,
// RDMA), uses the custom SCAR op where the software NIC offers it, and
// falls back to RPC where no RMA protocol applies. This interface is the
// seam that makes the lookup strategy swappable.
package nic

import (
	"errors"

	"cliquemap/internal/fabric"
	"cliquemap/internal/hashring"
	"cliquemap/internal/rmem"
)

var (
	// ErrNotSupported reports that the transport lacks the requested op
	// (e.g. SCAR on 1RMA); callers fall back to 2×R.
	ErrNotSupported = errors.New("nic: operation not supported by transport")
	// ErrUnreachable reports that the target NIC is down (crashed backend
	// host); clients retry on other replicas.
	ErrUnreachable = errors.New("nic: target unreachable")
)

// ScarResult is the combined response of a Scan-and-Read (§6.3): the full
// Bucket plus, when the scan matched, the DataEntry bytes it pointed at.
type ScarResult struct {
	Bucket []byte // raw bucket bytes
	Data   []byte // raw DataEntry bytes; nil if the scan found no match
	Found  bool
}

// RMA is the per-target one-sided op surface. The `at` argument is the
// op's virtual start instant (fabric nanoseconds; 0 = now): parallel legs
// of one logical op pass a common value so their responses contend for the
// initiator's downlink in the latency model.
type RMA interface {
	// Read performs a one-sided read of length bytes at off in window win
	// on the target, returning the bytes and the op's modelled latency.
	Read(at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error)

	// ScanAndRead executes the SCAR primitive: read the bucket at
	// [bucketOff, bucketOff+bucketLen) in idxWin, scan it NIC-side for
	// hash, follow the matching IndexEntry's pointer into the data region,
	// and return bucket plus data in a single round trip.
	ScanAndRead(at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (ScarResult, fabric.OpTrace, error)

	// SupportsScar reports whether ScanAndRead is available.
	SupportsScar() bool
}

// Appender is RMA's two ops on the caller's storage: the response comes
// back as append(dst, …) (for a SCAR, as views of it) and the spans as
// append(spans, …); on error dst comes back unchanged.
type Appender interface {
	AppendRead(dst []byte, spans []fabric.Span, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error)
	AppendScanAndRead(dst []byte, spans []fabric.Span, at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (ScarResult, fabric.OpTrace, error)
}

// Appending returns conn's append form, or, for a conn without one (a
// decorator that wraps only RMA), its Read and ScanAndRead behind it.
func Appending(conn RMA) Appender {
	if a, ok := conn.(Appender); ok {
		return a
	}
	return oldForm{conn}
}

type oldForm struct{ RMA }

func (o oldForm) AppendRead(_ []byte, _ []fabric.Span, at uint64, win rmem.WindowID, off, length int) ([]byte, fabric.OpTrace, error) {
	return o.Read(at, win, off, length)
}

func (o oldForm) AppendScanAndRead(_ []byte, _ []fabric.Span, at uint64, idxWin rmem.WindowID, bucketOff, bucketLen int, hash hashring.KeyHash, ways int) (ScarResult, fabric.OpTrace, error) {
	return o.ScanAndRead(at, idxWin, bucketOff, bucketLen, hash, ways)
}
