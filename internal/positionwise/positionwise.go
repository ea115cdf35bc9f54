// Package positionwise is the wire protocol of the paper's own strategy,
// Algorithm 2: the terminal scatters the input to the devices, each device
// computes its position slice of a layer, one All-Gather re-assembles the
// layer output on every device, and the last layer's slices go back to the
// terminal. It sits beside tparallel and pipeline, the two baselines, and
// like them knows nothing of the runtime around it: device pacing and span
// reporting are injected as nil-safe hooks, the All-Gather as a function
// value, the matrix pool through the device's Exchange.
//
// The emulated cluster's classify rounds, its generate joins and the TCP
// fleet (voltage-worker, voltage-server -addrs) all run this code.
package positionwise

import (
	"context"
	"fmt"
	"time"

	"voltage/internal/comm"
	"voltage/internal/flopcount"
	"voltage/internal/model"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// Gather is the between-layer synchronisation: every member of group
// contributes its rows (ranges[group.Rank()]) and gets the assembled layer
// output back.
type Gather func(ctx context.Context, group comm.Peer, part *tensor.Matrix, ranges []partition.Range) (*tensor.Matrix, error)

// Exact is the float32 All-Gather by direct exchange — the schedule of the
// paper's accounting — through ex's encode scratch and matrix pool.
func Exact(ex *comm.Exchange) Gather {
	return func(ctx context.Context, group comm.Peer, part *tensor.Matrix, ranges []partition.Range) (*tensor.Matrix, error) {
		return ex.AllGatherMatrix(ctx, group, part, ranges, false)
	}
}

// Quantized is the int8 All-Gather (≈¼ the bytes, bounded per-layer error).
func Quantized(ctx context.Context, group comm.Peer, part *tensor.Matrix, ranges []partition.Range) (*tensor.Matrix, error) {
	return comm.AllGatherMatrixQ(ctx, group, part, ranges, false)
}

// Device is one device's side of the protocol (Algorithm 2, lines 4–15).
type Device struct {
	Model *model.Model
	// Peer reaches the terminal, at rank Terminal. Group is the collective
	// group of the devices in the pass; this device is member Group.Rank(),
	// and a pass's ranges are indexed the same way.
	Peer     comm.Peer
	Terminal int
	Group    comm.Peer
	// Ex is the device goroutine's encode scratch and matrix pool. With a
	// pool, a pass recycles every activation it is done with — its input
	// included — and allocates nothing per layer in the steady state.
	Ex *comm.Exchange
	// Gather synchronises the layers; nil is Exact(Ex).
	Gather Gather

	// Pace, when non-nil, is called once a layer's rows are computed, with
	// the time the work started and its analytic Γ; the cluster runtime
	// sleeps out the emulated device's budget in it and reports the compute
	// span. OnComm, when non-nil, is told how long a layer's All-Gather
	// blocked.
	Pace   func(ctx context.Context, layer int, start time.Time, flops int64) error
	OnComm func(layer int, d time.Duration)
}

// Classify runs the plain pass over the input x: this device's rows of
// every layer, the last layer's sent to the terminal.
func (d *Device) Classify(ctx context.Context, x *tensor.Matrix, ranges []partition.Range) error {
	_, err := d.run(ctx, x, ranges, false, false, time.Now(), 0)
	return err
}

// Prefill runs a generate join over the prefix ids, cut down to what
// generation reads (Work): the owner of the joining sequence keeps each
// layer's K/V as its decode cache — returned — and alone computes the last
// layer, of which only the newest row exists; every other device returns nil
// and answers the terminal with a 0-row partition. The embedding is charged
// to layer 0.
func (d *Device) Prefill(ctx context.Context, ids []int, ranges []partition.Range, owner bool) (*model.DecodeState, error) {
	start := time.Now()
	x, err := d.Model.Embed.EmbedTokens(ids)
	if err != nil {
		return nil, err
	}
	return d.run(ctx, x, ranges, true, owner, start, flopcount.EmbedCost(len(ids), d.Model.Cfg.F))
}

// Work is the rows a device computes at one layer of a pass over n positions
// and the Γ it is paced for. In a classify that is its slice mine, in
// Algorithm 1's selected order, at every layer. In a join it is the same up
// to the last layer for a non-owner; the owner runs the naive association,
// whose K = x·W_K, V = x·W_V it keeps as the layer's cache — Theorem 2's
// reordering saves exactly those two products, so it only pays where they
// have no other use. Of a join's last layer nothing is read but the newest
// row, which the owner computes (P = 1) next to its cache.
func Work(layer *model.Layer, last bool, n int, mine partition.Range, join, owner bool) (partition.Range, int64, error) {
	if last && join {
		mine = partition.Range{From: n, To: n}
		if owner {
			mine.From = n - 1
		}
	}
	cost := layer.Cost
	if owner {
		cost = layer.CachedCost
	} else if mine.Empty() {
		return mine, 0, nil
	}
	g, err := cost(n, mine.Len())
	return mine, g, err
}

// run is the layer loop. start and lead are when this device began work it
// has not been paced for yet and that work's Γ (a join's embedding).
func (d *Device) run(ctx context.Context, x *tensor.Matrix, ranges []partition.Range, join, owner bool, start time.Time, lead int64) (*model.DecodeState, error) {
	if len(ranges) != d.Group.Size() {
		return nil, fmt.Errorf("positionwise: %d ranges for a group of %d", len(ranges), d.Group.Size())
	}
	gather := d.Gather
	if gather == nil {
		gather = Exact(d.Ex)
	}
	pool := d.Ex.Pool()
	layers := d.Model.Layers
	n, mine := x.Rows(), ranges[d.Group.Rank()]
	var state *model.DecodeState
	if owner {
		state = &model.DecodeState{Layers: make([]*model.LayerState, len(layers)), Pos: n}
	}
	for li, layer := range layers {
		last := li == len(layers)-1
		rows, cost, err := Work(layer, last, n, mine, join, owner)
		if err != nil {
			return nil, err
		}
		var part *tensor.Matrix
		if owner {
			part, state.Layers[li], err = layer.ForwardPartitionCached(x, rows)
		} else {
			part, _, err = layer.ForwardPartition(x, rows)
		}
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", li, err)
		}
		if d.Pace != nil {
			if err := d.Pace(ctx, li, start, lead+cost); err != nil {
				return nil, err
			}
		}
		if last {
			err := d.Peer.Send(ctx, d.Terminal, d.Ex.Encode(part))
			pool.Put(part)
			pool.Put(x)
			return state, err
		}
		commStart := time.Now()
		next, err := gather(ctx, d.Group, part, ranges)
		if err != nil {
			return nil, fmt.Errorf("layer %d allgather: %w", li, err)
		}
		if d.OnComm != nil {
			d.OnComm(li, time.Since(commStart))
		}
		// The gather copied the local rows into the assembled matrix and no
		// layer retains its input, so both recycle here.
		pool.Put(part)
		pool.Put(x)
		x, start, lead = next, time.Now(), 0
	}
	return state, nil
}

// Scatter is the terminal's sending half: it ships the same frames, in order,
// to each of the given ranks (Algorithm 2, line 2).
func Scatter(ctx context.Context, p comm.Peer, ranks []int, frames ...[]byte) error {
	for _, r := range ranks {
		for _, f := range frames {
			if err := p.Send(ctx, r, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Assemble is the terminal's receiving half: one last-layer partition from
// each of ranks, stacked in that order (Algorithm 2, line 8). ranges[i] is
// what ranks[i] was given; a partition of any other size is refused in its
// sender's name. Decoded partitions pass through pool (nil-safe); the result
// is the caller's own.
func Assemble(ctx context.Context, p comm.Peer, pool *tensor.MatrixPool, ranks []int, ranges []partition.Range) (*tensor.Matrix, error) {
	if len(ranges) != len(ranks) {
		return nil, fmt.Errorf("positionwise: %d ranges for %d ranks", len(ranges), len(ranks))
	}
	parts := make([]*tensor.Matrix, len(ranks))
	for i, r := range ranks {
		got, err := p.Recv(ctx, r)
		if err != nil {
			return nil, err
		}
		part, _, err := tensor.DecodePooled(pool, got)
		if err != nil {
			return nil, fmt.Errorf("positionwise: partition from rank %d: %w", r, err)
		}
		comm.ReleaseBuffer(got)
		if part.Rows() != ranges[i].Len() {
			return nil, &comm.RemoteError{Rank: r, Err: fmt.Errorf(
				"positionwise: a partition of %d rows for the range %v", part.Rows(), ranges[i])}
		}
		parts[i] = part
	}
	out, err := tensor.ConcatRows(parts...)
	if err != nil {
		return nil, err
	}
	for _, part := range parts {
		pool.Put(part)
	}
	return out, nil
}
