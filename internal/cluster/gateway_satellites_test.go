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

// Satellite coverage for the gateway PR's serving-runtime changes:
// configurable channel depths, the canceled-in-queue drop + metric, and
// exclusive-fence metering.

func TestConfigurableChannelDepths(t *testing.T) {
	c := newTiny(t, 2, Options{QueueDepth: 1})
	if got := cap(c.queue); got != 1 {
		t.Errorf("queue cap = %d, want 1", got)
	}
	// Default preserved when unset.
	d := newTiny(t, 2, Options{})
	if got := cap(d.queue); got != defaultQueueDepth {
		t.Errorf("default queue cap = %d, want %d", got, defaultQueueDepth)
	}
	// The sized cluster still serves.
	if _, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 4)); err != nil {
		t.Fatal(err)
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

// TestCanceledWhileQueuedDroppedAndCounted holds the dispatcher in an
// exclusive generation fence, cancels a request still sitting in the
// admission queue, and asserts the dispatcher drops it without dispatching
// and counts it under voltage_requests_canceled_total.
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

	// Exclusive generation: the dispatcher fences the queue on it until it
	// resolves, and the gate holds it in flight until we release.
	genErr := make(chan error, 1)
	go func() {
		_, err := c.GenerateVoltage(context.Background(), []int{1, 2, 3}, 2)
		genErr <- err
	}()
	<-entered // the generation is in flight; the queue is fenced

	// Queue a classification behind the fence, then abandon it.
	ctx, cancel := context.WithCancel(context.Background())
	pend, err := c.Submit(ctx, StrategyVoltage, embedTiny(t, c, 4))
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	close(release)

	if err := <-genErr; err != nil {
		t.Fatalf("fenced generation: %v", err)
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

// TestFenceMetering asserts exclusive runs are counted and timed by the
// fence instruments.
func TestFenceMetering(t *testing.T) {
	c := newTinyDecoder(t, 2, Options{})
	start := time.Now()
	if _, err := c.GenerateVoltage(context.Background(), []int{1, 2, 3}, 2); err != nil {
		t.Fatal(err)
	}
	// The fence-duration observation lands when the dispatcher leaves the
	// fence; running one more (unfenced) request through the
	// single-goroutine dispatcher guarantees it has. The elapsed upper
	// bound must be captured after that flush: the dispatcher may leave
	// the fence a beat after GenerateVoltage returns to the caller.
	if _, err := c.Infer(context.Background(), StrategyVoltage, embedTiny(t, c, 4)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	snap := c.Metrics()
	if got := snap.Counter(`voltage_queue_fences_total{reason="exclusive"}`); got != 1 {
		t.Errorf("exclusive fences = %v, want 1", got)
	}
	h, ok := snap.Histograms["voltage_fence_duration_seconds"]
	if !ok || h.Count != 1 {
		t.Fatalf("fence duration histogram = %+v ok=%v, want 1 observation", h, ok)
	}
	if h.Sum <= 0 || h.Sum > elapsed.Seconds() {
		t.Errorf("fence duration sum = %v s, want within (0, %v]", h.Sum, elapsed.Seconds())
	}
	// Plain classification takes no fence.
	if got := snap.Counter(`voltage_queue_fences_total{reason="fault_isolation"}`); got != 0 {
		t.Errorf("fault_isolation fences = %v, want 0", got)
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
		t.Fatalf("fenced generation: %v", err)
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
