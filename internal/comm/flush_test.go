package comm

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"voltage/internal/netem"
)

// TestWrappedPeerStillFlushes pins the fencing bugfix: Flush must survive
// the full wrapper stack the cluster actually builds (fault injection →
// framing → watchdog), not just the concrete *MemPeer. Before
// the Flusher interface, fencing flushed the raw mesh directly and any
// wrapper-level view of the transport was bypassed.
func TestWrappedPeerStillFlushes(t *testing.T) {
	mesh, err := NewMemMesh(2, netem.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh[0].Close()
	// The cluster's exact stack: WrapTransport → Framed → watchdog.
	var wrapped Peer = &FlakyPeer{Inner: mesh[0]}
	wrapped = NewFramed(wrapped)
	wrapped = WithOpTimeout(wrapped, time.Minute)

	// Queue residue the way an aborted protocol would: a sent frame nobody
	// received.
	if err := wrapped.Send(context.Background(), 1, []byte("residue")); err != nil {
		t.Fatal(err)
	}
	if got := mesh[0].Queued(); got != 1 {
		t.Fatalf("queued = %d, want 1 before flush", got)
	}
	if !TryFlush(wrapped) {
		t.Fatal("TryFlush through the wrapper stack must reach the mesh")
	}
	if got := mesh[0].Queued(); got != 0 {
		t.Fatalf("queued = %d, want 0 after flush through wrappers", got)
	}
}

// TestTryFlushNoopFallback pins the documented no-op: a peer stack with no
// Flusher anywhere reports false and flushes nothing.
func TestTryFlushNoopFallback(t *testing.T) {
	mesh, err := NewMemMesh(2, netem.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh[0].Close()
	// A wrapper that hides every optional capability.
	opaque := &opaquePeer{base: mesh[0]}
	if TryFlush(opaque) {
		t.Fatal("TryFlush over a non-Flusher must report false")
	}
	// Delegating wrappers over the opaque peer also report false (nothing
	// below them can flush), instead of pretending the flush happened.
	if TryFlush(NewFramed(opaque)) {
		t.Fatal("a delegating wrapper over a non-Flusher must report false")
	}
}

// opaquePeer forwards Peer only, deliberately hiding optional interfaces.
type opaquePeer struct{ base Peer }

func (o *opaquePeer) Rank() int { return o.base.Rank() }
func (o *opaquePeer) Size() int { return o.base.Size() }
func (o *opaquePeer) Send(ctx context.Context, to int, data []byte) error {
	return o.base.Send(ctx, to, data)
}
func (o *opaquePeer) Recv(ctx context.Context, from int) ([]byte, error) {
	return o.base.Recv(ctx, from)
}
func (o *opaquePeer) Stats() Stats { return o.base.Stats() }
func (o *opaquePeer) Close() error { return o.base.Close() }

// TestFaultTapsObserveCorruptAndTimeout pins the metrics error taps: a
// corrupt frame fires FaultCorrupt blaming the sender, a watchdog expiry
// fires FaultTimeout blaming the silent remote, and clean traffic fires
// nothing.
func TestFaultTapsObserveCorruptAndTimeout(t *testing.T) {
	mesh, err := NewMemMesh(2, netem.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh[0].Close()

	var corrupt, timeout atomic.Int64
	var blamed atomic.Int64
	tap := func(kind FaultKind, rank int) {
		switch kind {
		case FaultCorrupt:
			corrupt.Add(1)
		case FaultTimeout:
			timeout.Add(1)
		}
		blamed.Store(int64(rank))
	}

	sender := NewFramed(&FlakyPeer{Inner: mesh[0], CorruptEvery: 2})
	receiver := WithOpTimeout(NewFramed(mesh[1], tap), 50*time.Millisecond, tap)
	ctx := context.Background()

	// Clean round trip: no tap fires.
	if err := sender.Send(ctx, 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.Recv(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if corrupt.Load() != 0 || timeout.Load() != 0 {
		t.Fatal("taps fired on clean traffic")
	}

	// Corrupted frame: FaultCorrupt blaming sender rank 0.
	if err := sender.Send(ctx, 1, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.Recv(ctx, 0); err == nil {
		t.Fatal("corrupted frame must fail")
	}
	if corrupt.Load() != 1 || blamed.Load() != 0 {
		t.Fatalf("corrupt taps = %d (blamed %d), want 1 blaming rank 0", corrupt.Load(), blamed.Load())
	}

	// Silent source: FaultTimeout blaming rank 0.
	if _, err := receiver.Recv(ctx, 0); err == nil {
		t.Fatal("watchdog must expire")
	}
	if timeout.Load() != 1 || blamed.Load() != 0 {
		t.Fatalf("timeout taps = %d (blamed %d), want 1 blaming rank 0", timeout.Load(), blamed.Load())
	}
}
