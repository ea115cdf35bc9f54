package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"voltage/internal/comm"
	"voltage/internal/model"
)

// Satellite coverage for the gateway PR's serving-runtime changes: the
// pending queue's bound and the canceled-in-queue drop + metric.

// TestConfigurableChannelDepths: Options.QueueDepth bounds every pending
// request. With depth 1 and the mesh full — one pass per serving rank, held
// by a gate on rank 0 — a further request fills the queue, and a third — a
// generate, as bounded as a classify — waits for a slot until its context
// ends: it returns ctx.Err(), counted under voltage_requests_canceled_total
// only. One of the held passes is a generate whose caller gives up while it
// is on the mesh: once its call has returned, BatchWidth no longer counts it.
func TestConfigurableChannelDepths(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	c := newTinyDecoder(t, 2, Options{
		QueueDepth: 1,
		WrapTransport: func(rank int, p comm.Peer) comm.Peer {
			if rank == 0 {
				return &gatePeer{Peer: p, release: release, entered: entered}
			}
			return p
		},
	})
	first, err := c.Submit(context.Background(), StrategyVoltage, embedTiny(t, c, 4))
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the first request is on the mesh, out of the queue
	genCtx, giveUp := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, err := c.GenerateVoltage(genCtx, []int{1, 2, 3}, 2)
		gone <- err
	}()
	waitCond(t, 10*time.Second, "the generate to be taken onto the mesh", func() bool {
		return c.BatchWidth() == 1 && c.Metrics().Gauge("voltage_queue_length") == 0
	})
	giveUp()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("a generate whose caller gave up returned %v", err)
	}
	if w := c.BatchWidth(); w != 0 {
		t.Errorf("BatchWidth = %d after the only generate's call returned, want 0", w)
	}
	second, err := c.SubmitTokens(context.Background(), StrategyVoltage, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics().Gauge("voltage_queue_length"); got != 1 {
		t.Errorf("voltage_queue_length = %v with one request waiting behind a full mesh, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := c.GenerateVoltage(ctx, []int{1, 2, 3}, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a generate behind a full queue returned %v, want its context's error", err)
	}
	if _, err := c.Submit(ctx, StrategyVoltage, embedTiny(t, c, 4)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a classify behind a full queue returned %v, want its context's error", err)
	}
	if w := c.BatchWidth(); w != 0 {
		t.Errorf("BatchWidth = %d with no generate's caller waiting, want 0", w)
	}
	close(release)
	for _, pend := range []*Pending{first, second} {
		if _, err := pend.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	// The abandoned generate leaves at the first boundary after its pass
	// lands.
	waitCond(t, 10*time.Second, "the abandoned generate to resolve", func() bool {
		return c.Metrics().Counter(`voltage_requests_total{outcome="error"}`) == 1
	})
	snap := c.Metrics()
	if got := snap.Counter("voltage_requests_canceled_total"); got != 2 {
		t.Errorf("voltage_requests_canceled_total = %v, want the 2 refused waiters", got)
	}
	if ok, bad := snap.Counter(`voltage_requests_total{outcome="ok"}`), snap.Counter(`voltage_requests_total{outcome="error"}`); ok != 2 || bad != 1 {
		t.Errorf("requests ok/error = %v/%v, want 2/1 (the abandoned generate; a refused waiter is not a request)", ok, bad)
	}
	if got := snap.Gauge("voltage_queue_length"); got != 0 {
		t.Errorf("voltage_queue_length = %v after the queue drained, want 0", got)
	}
	// Default depth when unset.
	if got := cap(newTiny(t, 2, Options{}).batcher.slots); got != defaultQueueDepth {
		t.Errorf("default queue bound = %d, want %d", got, defaultQueueDepth)
	}
}

func TestNegativeChannelDepthRejected(t *testing.T) {
	if _, err := NewMem(model.Tiny(), 2, Options{QueueDepth: -1}); err == nil {
		t.Error("NewMem accepted a negative QueueDepth")
	}
}

// gatePeer blocks every Send/Recv until released, then delegates — a
// deterministic way to hold a request in flight. entered is closed the
// first time the gate is reached, so tests can order themselves against
// the held request.
type gatePeer struct {
	comm.Peer
	release <-chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (g *gatePeer) gate(ctx context.Context) error {
	g.once.Do(func() { close(g.entered) })
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gatePeer) Send(ctx context.Context, to int, data []byte) error {
	if err := g.gate(ctx); err != nil {
		return err
	}
	return g.Peer.Send(ctx, to, data)
}

func (g *gatePeer) Recv(ctx context.Context, from int) ([]byte, error) {
	if err := g.gate(ctx); err != nil {
		return nil, err
	}
	return g.Peer.Recv(ctx, from)
}

// TestCanceledWhileQueuedDroppedAndCounted holds the loop in a generation's
// join, cancels a request still sitting in the pending queue, and asserts the
// loop drops it without dispatching and counts it under
// voltage_requests_canceled_total.
func TestCanceledWhileQueuedDroppedAndCounted(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	c := newTinyDecoder(t, 2, Options{
		WrapTransport: func(rank int, p comm.Peer) comm.Peer {
			if rank == 0 {
				return &gatePeer{Peer: p, release: release, entered: entered}
			}
			return p
		},
	})

	// The gate holds the generation's join on the mesh until we release.
	genErr := make(chan error, 1)
	go func() {
		_, err := c.GenerateVoltage(context.Background(), []int{1, 2, 3}, 2)
		genErr <- err
	}()
	<-entered // the generation is in flight; the loop is busy

	// Queue a classification behind it, then abandon it.
	ctx, cancel := context.WithCancel(context.Background())
	pend, err := c.Submit(ctx, StrategyVoltage, embedTiny(t, c, 4))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)

	if err := <-genErr; err != nil {
		t.Fatalf("held generation: %v", err)
	}
	if _, err := pend.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled-in-queue request resolved %v, want context.Canceled", err)
	}
	snap := c.Metrics()
	if got := snap.Counter("voltage_requests_canceled_total"); got != 1 {
		t.Errorf("voltage_requests_canceled_total = %v, want 1", got)
	}
	// The drop happened before dispatch: no error attempt was recorded for it.
	if got := snap.Counter(`voltage_requests_total{outcome="error"}`); got != 0 {
		t.Errorf("error requests = %v, want 0 (canceled request must not reach the mesh)", got)
	}
	// The runtime still serves afterwards.
	if _, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 4)); err != nil {
		t.Fatal(err)
	}
}

// TestCanceledMetricConcurrent hammers the cancel path under load: many
// queued requests canceled concurrently must neither hang nor dispatch.
func TestCanceledMetricConcurrent(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	c := newTinyDecoder(t, 2, Options{
		WrapTransport: func(rank int, p comm.Peer) comm.Peer {
			if rank == 0 {
				return &gatePeer{Peer: p, release: release, entered: entered}
			}
			return p
		},
	})
	genErr := make(chan error, 1)
	go func() {
		_, err := c.GenerateVoltage(context.Background(), []int{1, 2, 3}, 2)
		genErr <- err
	}()
	<-entered

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		pend, err := c.Submit(ctx, StrategyVoltage, embedTiny(t, c, 2))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		cancel()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = pend.Wait(context.Background())
		}(i)
	}
	close(release)
	if err := <-genErr; err != nil {
		t.Fatalf("held generation: %v", err)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("request %d resolved %v, want context.Canceled", i, err)
		}
	}
	if got := c.Metrics().Counter("voltage_requests_canceled_total"); got != n {
		t.Errorf("canceled total = %v, want %d", got, n)
	}
}
