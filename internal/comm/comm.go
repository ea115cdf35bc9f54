// Package comm provides the communication substrate of the distributed
// runtime: point-to-point messaging between ranked peers plus the
// collectives the two inference strategies need — All-Gather for Voltage's
// layer synchronization and All-Reduce for the tensor-parallelism baseline.
//
// Two transports implement the Peer interface: an in-memory mesh with
// emulated bandwidth/latency (the default for experiments, mirroring the
// paper's bandwidth-capped VMs) and a TCP mesh for genuinely distributed
// deployments.
package comm

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrClosed is returned by operations on a closed peer.
var ErrClosed = errors.New("comm: peer closed")

// ErrCorrupt marks a payload whose integrity check failed: the frame header
// was malformed or the CRC32 did not match (see FramedPeer). The message is
// unusable but the link itself may still be healthy.
var ErrCorrupt = errors.New("comm: corrupt frame")

// ErrTimeout marks an operation that exceeded its watchdog deadline (see
// WithOpTimeout and the cluster's Options.RequestTimeout): the expected
// message never arrived, modeling a dropped packet or a stalled device.
var ErrTimeout = errors.New("comm: deadline exceeded")

// RemoteError attributes a failure to a specific remote rank, so the
// cluster's health tracker can blame the right device: a corrupt frame
// blames its sender, a receive timeout blames the silent source.
type RemoteError struct {
	// Rank is the base-mesh rank of the peer held responsible.
	Rank int
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *RemoteError) Error() string { return fmt.Sprintf("peer %d: %v", e.Rank, e.Err) }

// Unwrap supports errors.Is/As against the underlying cause.
func (e *RemoteError) Unwrap() error { return e.Err }

// RemoteRank extracts the blamed rank from an error chain. The second
// return is false when no RemoteError is present (the failure cannot be
// attributed to a specific peer).
func RemoteRank(err error) (int, bool) {
	var re *RemoteError
	if errors.As(err, &re) {
		return re.Rank, true
	}
	return -1, false
}

// Peer is one ranked endpoint of a fully connected group of Size devices.
// Implementations must be safe for concurrent use; Send and Recv on
// distinct (peer, direction) pairs may proceed in parallel, but callers
// must not issue concurrent Recv calls for the same source rank.
type Peer interface {
	// Rank returns this peer's index in [0, Size).
	Rank() int
	// Size returns the number of peers in the group.
	Size() int
	// Send delivers data to peer `to`. The callee does not retain data
	// after Send returns (it copies or fully transmits the payload first),
	// so callers may reuse their encode buffers immediately.
	Send(ctx context.Context, to int, data []byte) error
	// Recv returns the next message from peer `from`, blocking until one
	// arrives, the context is cancelled, or the peer is closed. The
	// returned slice is owned exclusively by the caller, which may hand it
	// back to the transport with ReleaseBuffer after decoding.
	Recv(ctx context.Context, from int) ([]byte, error)
	// Stats returns a snapshot of this peer's traffic counters.
	Stats() Stats
	// Close releases the peer's resources and unblocks pending operations.
	Close() error
}

// Flusher is an optional Peer capability: discard any buffered,
// undelivered traffic so the next protocol's streams start aligned. The
// in-memory mesh implements it (its FIFO links hold frames an aborted
// collective never drained); wrappers delegate it so the capability
// survives the wrapper stack — a wrapper that swallowed it would silently
// turn the flush between rounds into a no-op (the classic wrapper-hides-optional-
// interface bug). Flush reports whether buffered traffic was actually
// discardable: a delegating wrapper over a transport with no flush support
// (e.g. TCP, whose in-flight bytes live in kernel buffers) returns false.
//
// Callers must guarantee no rank is concurrently sending or receiving (the
// cluster flushes between rounds, once every worker of the ended one has
// returned).
type Flusher interface {
	Flush() bool
}

// TryFlush flushes p when it (or, through wrapper delegation, the peer it
// wraps) supports flushing. It is the safe way to flush a wrapped peer:
// no-op, returning false, when nothing in the stack can flush.
func TryFlush(p Peer) bool {
	if f, ok := p.(Flusher); ok {
		return f.Flush()
	}
	return false
}

// FaultKind classifies a transport-level fault observed by a FaultTap.
type FaultKind int

// Fault kinds.
const (
	// FaultCorrupt is a frame that failed its integrity check on receive.
	FaultCorrupt FaultKind = iota + 1
	// FaultTimeout is an operation that exceeded its watchdog deadline.
	FaultTimeout
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultCorrupt:
		return "corrupt"
	case FaultTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultTap observes transport-level faults for metrics: rank is the peer
// blamed (a corrupt frame's sender, a timeout's silent remote). Taps run on
// the error path only — never on a successful operation — and must be safe
// for concurrent use.
type FaultTap func(kind FaultKind, rank int)

// Stats counts a peer's traffic. The byte counts are payload bytes (what
// the paper calls communication size); framing overhead is excluded so the
// numbers are directly comparable with the analytic formulas.
type Stats struct {
	BytesSent, BytesRecv int64
	MsgsSent, MsgsRecv   int64
}

// Add returns the element-wise sum of two stats snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		BytesSent: s.BytesSent + o.BytesSent,
		BytesRecv: s.BytesRecv + o.BytesRecv,
		MsgsSent:  s.MsgsSent + o.MsgsSent,
		MsgsRecv:  s.MsgsRecv + o.MsgsRecv,
	}
}

// Sub returns the element-wise difference s−o — the traffic between two
// snapshots of one peer's counters (o taken earlier than s).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		BytesSent: s.BytesSent - o.BytesSent,
		BytesRecv: s.BytesRecv - o.BytesRecv,
		MsgsSent:  s.MsgsSent - o.MsgsSent,
		MsgsRecv:  s.MsgsRecv - o.MsgsRecv,
	}
}

// counters is the shared atomic implementation of Stats tracking.
type counters struct {
	bytesSent, bytesRecv atomic.Int64
	msgsSent, msgsRecv   atomic.Int64
}

func (c *counters) sent(n int) {
	c.bytesSent.Add(int64(n))
	c.msgsSent.Add(1)
}

// unsent takes back a sent that did not happen.
func (c *counters) unsent(n int) {
	c.bytesSent.Add(-int64(n))
	c.msgsSent.Add(-1)
}

func (c *counters) received(n int) {
	c.bytesRecv.Add(int64(n))
	c.msgsRecv.Add(1)
}

func (c *counters) snapshot() Stats {
	return Stats{
		BytesSent: c.bytesSent.Load(),
		BytesRecv: c.bytesRecv.Load(),
		MsgsSent:  c.msgsSent.Load(),
		MsgsRecv:  c.msgsRecv.Load(),
	}
}
