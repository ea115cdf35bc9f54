package cluster

import (
	"context"
	"fmt"
	"time"

	"voltage/internal/comm"
	"voltage/internal/partition"
)

// Degraded-mode serving. When Options.MaxRetries > 0, every Submit runs
// under a per-request supervisor: a failed attempt is diagnosed (blame a
// rank from the request's error slots, mark it unhealthy) and the request
// is transparently re-dispatched over the surviving workers. The retry is
// cheap by construction — Voltage's position-wise partition means any
// contiguous re-slice of the sequence over the survivors is a valid plan,
// so a dead rank costs a re-partition, not a redesign:
//
//	attempt 1: K workers, the installed partition scheme
//	attempt n: the survivors, the partition re-sliced over them
//	0 workers: the terminal computes the request locally (unpaced)
//
// Degraded outputs are bit-identical to a healthy cluster of the same
// surviving size: every worker holds a full model replica from the shared
// seed, so the surviving ranks run exactly the math a smaller cluster
// would.

// submitSupervised admits one fault-tolerant request: the returned handle
// resolves when an attempt succeeds or the retry budget is exhausted.
func (c *Cluster) submitSupervised(ctx context.Context, in input) (*Pending, error) {
	c.Serve()
	outer := &request{input: in, done: make(chan struct{})}
	outer.ctx, outer.cancel = context.WithCancel(ctx)
	if c.serveCtx.Err() != nil {
		outer.cancel()
		return nil, errServingStopped
	}
	go c.supervise(ctx, outer)
	return &Pending{c: c, req: outer}, nil
}

// supervise drives one request through its attempts.
func (c *Cluster) supervise(ctx context.Context, outer *request) {
	live := c.health.live(time.Now())
	var lastErr error
	maxAttempts := 1 + c.opts.MaxRetries
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		outer.attempts = attempt
		if len(live) == 0 {
			err := c.localFallback(outer)
			c.metrics.fallbackServed()
			c.metrics.observeRequest(attempt, true, err)
			outer.finish(err)
			return
		}
		inner, err := c.submitAttempt(ctx, outer.input, live)
		if err != nil {
			c.metrics.observeRequest(attempt, false, err)
			outer.finish(err)
			return
		}
		ireq := inner.req
		select {
		case <-ireq.done:
		case <-c.serveCtx.Done():
			select {
			case <-ireq.done: // resolution raced the shutdown; prefer it
			default:
				// Shutdown-drain resolutions are deliberately not counted as
				// requests: they report the cluster dying, not the workload.
				outer.finish(errServingStopped)
				return
			}
		}
		outer.trace = ireq.trace // final attempt's trace wins
		if ireq.err == nil {
			outer.output = ireq.output
			outer.latency = ireq.latency
			outer.perDevice = ireq.perDevice
			outer.live = ireq.live
			outer.degraded = ireq.degraded
			c.health.recordSuccess(ireq.live)
			c.metrics.observeRequest(attempt, ireq.degraded, nil)
			outer.finish(nil)
			return
		}
		lastErr = ireq.err
		if !retryable(ireq.err) || ctx.Err() != nil || c.serveCtx.Err() != nil {
			c.metrics.observeRequest(attempt, ireq.degraded, ireq.err)
			outer.finish(ireq.err)
			return
		}
		// ireq.errs is safe to read here: collect() waits for every worker
		// before resolving the request.
		if blamed, cause := blameRank(ireq.errs, c.k); blamed >= 0 {
			c.health.recordFailure(blamed, cause)
			live = removeRank(live, blamed)
		}
	}
	c.metrics.observeRequest(maxAttempts, false, lastErr)
	outer.finish(fmt.Errorf("cluster: %d attempts exhausted: %w", maxAttempts, lastErr))
}

// submitAttempt enqueues one attempt over the given live ranks. A full
// complement runs the installed scheme; a degraded set runs the partition
// re-sliced over the survivors.
func (c *Cluster) submitAttempt(ctx context.Context, in input, live []int) (*Pending, error) {
	// Fenced: the attempt owns the mesh exclusively so that, if it fails
	// mid-collective, the dispatcher can flush its residual traffic before
	// anything else enters. Fault tolerance trades mesh-level pipelining
	// for failure isolation; the admission queue still overlaps requests.
	req := &request{runner: voltageRunner{}, input: in, live: append([]int(nil), live...), fenced: true, supervised: true}
	if len(live) < c.k {
		scheme, err := c.degradedScheme(live)
		if err != nil {
			return nil, err
		}
		req.scheme = scheme
		req.degraded = true
	}
	return c.submit(ctx, req)
}

// degradedScheme re-partitions the sequence positions over the surviving
// ranks. Once the adaptive controller has installed a weighted scheme, a
// failure re-slice keeps the survivors' learned relative shares — the
// observed speeds are better evidence than the configured rates. Before
// any install, survivors weight by their configured compute rates on
// heterogeneous clusters, uniformly otherwise.
func (c *Cluster) degradedScheme(live []int) (*partition.Scheme, error) {
	if ratios, gen := c.adaptedRatios(); gen > 0 {
		weights := make([]float64, len(live))
		var sum float64
		for i, r := range live {
			weights[i] = ratios[r]
			sum += ratios[r]
		}
		// A survivor set whose installed shares are all zero (possible when
		// every survivor was squeezed out by the last install) falls through
		// to the static weighting below.
		if sum > 0 {
			return partition.Weighted(weights)
		}
	}
	if c.opts.HeteroDeviceFlops != nil {
		weights := make([]float64, len(live))
		for i, r := range live {
			weights[i] = c.opts.HeteroDeviceFlops[r]
		}
		return partition.Weighted(weights)
	}
	return partition.Even(len(live))
}

// adaptedRatios returns the installed scheme's ratio vector and its
// generation (0 = never re-partitioned).
func (c *Cluster) adaptedRatios() ([]float64, uint64) {
	c.schemeMu.RLock()
	defer c.schemeMu.RUnlock()
	return c.scheme.Ratios(), c.schemeGen
}

// localFallback serves a request on the terminal alone when no worker
// survives — the emulation's terminal holds a full model replica, so the
// request still resolves (unpaced, with no mesh traffic): it embeds token ids
// itself and answers a pooled request with the pooled row of its forward pass.
func (c *Cluster) localFallback(outer *request) error {
	start := time.Now()
	m, x := c.models[0], outer.x
	if outer.ids != nil {
		var err error
		if x, err = m.Embed.EmbedTokens(outer.ids); err != nil {
			return err
		}
	}
	out, err := m.ForwardFeatures(x)
	if err != nil {
		return err
	}
	if outer.pooled() {
		row := m.Classifier.PooledRow(out.Rows())
		if out, err = out.RowSlice(row, row+1); err != nil {
			return err
		}
	}
	outer.output = out
	outer.latency = time.Since(start)
	outer.perDevice = make([]comm.Stats, c.k+1)
	outer.live = []int{}
	outer.degraded = true
	return nil
}

// removeRank returns live without rank, preserving order.
func removeRank(live []int, rank int) []int {
	out := make([]int, 0, len(live))
	for _, r := range live {
		if r != rank {
			out = append(out, r)
		}
	}
	return out
}
