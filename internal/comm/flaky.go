package comm

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"voltage/internal/netem"
)

// ErrInjected marks failures produced by the fault-injection wrapper.
var ErrInjected = errors.New("comm: injected failure")

// FlakyPeer wraps a Peer with deterministic fault injection for robustness
// tests: it can fail sends after a countdown, corrupt payloads, drop
// messages silently, stall receives (a hung device), or deliver late. All
// counters are global across links so tests can target "the n-th
// operation".
//
// Stats note: injected faults keep the clean path's byte accounting — a
// corrupted payload counts exactly the bytes the clean send would have
// counted, and a dropped message counts nothing on either side (it never
// reached the transport). Chaos runs must therefore not assert the paper's
// communication-volume formulas against a flaky mesh: drops remove whole
// messages from the totals and retried requests move extra traffic.
type FlakyPeer struct {
	// Inner is the wrapped peer.
	Inner Peer
	// FailSendAfter makes the (n+1)-th Send return ErrInjected (0 =
	// disabled; 1 means the first send fails).
	FailSendAfter int64
	// CorruptEvery corrupts every n-th sent payload by flipping its first
	// byte (0 = disabled). Zero-length payloads pass through.
	CorruptEvery int64
	// DropEvery silently discards every n-th sent message (0 = disabled):
	// the send "succeeds" but nothing arrives, modeling a lossy link with
	// no transport-level recovery.
	DropEvery int64
	// FailRecvAfter makes the n-th Recv (and every later one) return
	// ErrInjected — a device that dies at a scheduled operation (0 =
	// disabled; 1 means the first receive fails). Counted on the same
	// global receive counter as StallRecvAfter and DelayEvery, so chaos
	// tests can kill a rank at an exact protocol step: during batched
	// decoding a worker receives one frame per fused step, making the
	// fault's step index deterministic.
	FailRecvAfter int64
	// StallRecvAfter makes the (n+1)-th Recv (and every later one) block
	// until the context is cancelled or the peer is closed — a hung device
	// (0 = disabled; 1 means the first receive stalls).
	StallRecvAfter int64
	// DelayEvery delays every n-th Recv by Delay before delivering (0 =
	// disabled) — late delivery, for exercising deadline slack.
	DelayEvery int64
	// Delay is the extra latency applied by DelayEvery.
	Delay time.Duration

	sends atomic.Int64
	recvs atomic.Int64

	closeOnce sync.Once
	closedMu  sync.Mutex
	closed    chan struct{}
}

var _ Peer = (*FlakyPeer)(nil)

// Rank implements Peer.
func (f *FlakyPeer) Rank() int { return f.Inner.Rank() }

// Size implements Peer.
func (f *FlakyPeer) Size() int { return f.Inner.Size() }

// Send implements Peer with the configured fault behaviour.
func (f *FlakyPeer) Send(ctx context.Context, to int, data []byte) error {
	n := f.sends.Add(1)
	if f.FailSendAfter > 0 && n >= f.FailSendAfter {
		return ErrInjected
	}
	if f.DropEvery > 0 && n%f.DropEvery == 0 {
		return nil // swallowed
	}
	if f.CorruptEvery > 0 && n%f.CorruptEvery == 0 && len(data) > 0 {
		// The corrupted copy is pooled and released after the transport has
		// taken ownership, and its length equals the clean payload's, so
		// Stats() counters above and below the wrapper count the corrupted
		// send identically to a clean one.
		corrupted := GetBuffer(len(data))
		copy(corrupted, data)
		corrupted[0] ^= 0xFF
		err := f.Inner.Send(ctx, to, corrupted)
		ReleaseBuffer(corrupted)
		return err
	}
	return f.Inner.Send(ctx, to, data)
}

// Recv implements Peer with the configured fault behaviour.
func (f *FlakyPeer) Recv(ctx context.Context, from int) ([]byte, error) {
	n := f.recvs.Add(1)
	if f.FailRecvAfter > 0 && n >= f.FailRecvAfter {
		return nil, ErrInjected
	}
	if f.StallRecvAfter > 0 && n >= f.StallRecvAfter {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-f.closedCh():
			return nil, ErrClosed
		}
	}
	if f.DelayEvery > 0 && n%f.DelayEvery == 0 && f.Delay > 0 {
		if err := netem.SleepUntil(ctx, time.Now().Add(f.Delay)); err != nil {
			return nil, err
		}
	}
	return f.Inner.Recv(ctx, from)
}

// closedCh lazily initializes the close-notification channel so the zero
// value of FlakyPeer stays usable, matching the existing tests.
func (f *FlakyPeer) closedCh() chan struct{} {
	f.closedMu.Lock()
	defer f.closedMu.Unlock()
	if f.closed == nil {
		f.closed = make(chan struct{})
	}
	return f.closed
}

// Stats implements Peer.
func (f *FlakyPeer) Stats() Stats { return f.Inner.Stats() }

// Flush delegates the optional Flusher capability to the wrapped peer, so
// chaos-wrapped meshes still flush a dead round's residue.
func (f *FlakyPeer) Flush() bool { return TryFlush(f.Inner) }

// Close implements Peer, also releasing any stalled receives.
func (f *FlakyPeer) Close() error {
	f.closeOnce.Do(func() { close(f.closedCh()) })
	return f.Inner.Close()
}
