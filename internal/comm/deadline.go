package comm

import (
	"context"
	"fmt"
	"time"
)

// TimeoutPeer is the transport-level watchdog: every Send and Recv runs
// under its own deadline, so a silently dropped message (a lossy link with
// no transport recovery) or a stalled device resolves as a typed ErrTimeout
// instead of a permanent hang. Collectives built on a TimeoutPeer inherit
// the bound step by step — each exchange of an All-Gather or ring
// All-Reduce is individually watched.
//
// The deadline applies per operation, not per request; callers that need an
// end-to-end budget combine this with a request context deadline (the
// cluster's Options.RequestTimeout).
type TimeoutPeer struct {
	base Peer
	d    time.Duration
	taps []FaultTap
}

var _ Peer = (*TimeoutPeer)(nil)
var _ Flusher = (*TimeoutPeer)(nil)

// WithOpTimeout bounds every operation on base at d. A non-positive d
// returns base unchanged. Optional taps observe every watchdog expiry
// (blaming the remote rank); nil taps are skipped.
func WithOpTimeout(base Peer, d time.Duration, taps ...FaultTap) Peer {
	if d <= 0 {
		return base
	}
	return &TimeoutPeer{base: base, d: d, taps: nonNilTaps(taps)}
}

// unwatchedKey marks a context whose operations a TimeoutPeer leaves
// unbounded.
type unwatchedKey struct{}

// Unwatched returns a context under which a TimeoutPeer applies no per-op
// deadline: for a wait on a link that may legitimately stay silent (a
// device with no work this round awaiting its next command), where an
// expiry would report a fault that did not happen. The caller's own
// cancellation is then the only thing that ends the wait.
func Unwatched(ctx context.Context) context.Context {
	return context.WithValue(ctx, unwatchedKey{}, true)
}

// Rank implements Peer.
func (p *TimeoutPeer) Rank() int { return p.base.Rank() }

// Size implements Peer.
func (p *TimeoutPeer) Size() int { return p.base.Size() }

// Send implements Peer under the per-op deadline. A timeout blames the
// destination rank (conservatively — the local egress may equally be at
// fault, but the destination is the link the caller should avoid).
func (p *TimeoutPeer) Send(ctx context.Context, to int, data []byte) error {
	opCtx, cancel := context.WithTimeout(ctx, p.d)
	defer cancel()
	err := p.base.Send(opCtx, to, data)
	return p.mapErr(ctx, opCtx, err, to, "send to")
}

// Recv implements Peer under the per-op deadline. A timeout blames the
// source rank: the expected message never arrived.
func (p *TimeoutPeer) Recv(ctx context.Context, from int) ([]byte, error) {
	if ctx.Value(unwatchedKey{}) != nil {
		return p.base.Recv(ctx, from)
	}
	opCtx, cancel := context.WithTimeout(ctx, p.d)
	defer cancel()
	blob, err := p.base.Recv(opCtx, from)
	if err != nil {
		return nil, p.mapErr(ctx, opCtx, err, from, "recv from")
	}
	return blob, nil
}

// mapErr converts a failure caused by the op's own timer — rather than the
// caller's context — into an attributed ErrTimeout. The inner error is
// matched loosely (TCP reports deadline expiry as a net timeout, the
// in-memory mesh as opCtx.Err()), so expiry of the op timer is the signal.
func (p *TimeoutPeer) mapErr(ctx, opCtx context.Context, err error, rank int, op string) error {
	if err == nil {
		return nil
	}
	if opCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		for _, tap := range p.taps {
			tap(FaultTimeout, rank)
		}
		return &RemoteError{Rank: rank, Err: fmt.Errorf("%w: %s %d after %v", ErrTimeout, op, rank, p.d)}
	}
	return err
}

// Flush delegates the optional Flusher capability to the wrapped peer, so
// fencing through a watchdog-wrapped peer reaches the mesh's buffered
// links.
func (p *TimeoutPeer) Flush() bool { return TryFlush(p.base) }

// Stats implements Peer, delegating to the wrapped transport.
func (p *TimeoutPeer) Stats() Stats { return p.base.Stats() }

// Close implements Peer.
func (p *TimeoutPeer) Close() error { return p.base.Close() }
