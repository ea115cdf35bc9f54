package comm

import (
	"context"
	"fmt"

	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// Exchange bundles the per-goroutine reusable resources of the matrix
// collectives: an encode scratch buffer and a matrix pool. One Exchange
// belongs to exactly one goroutine (a device's worker or the terminal's
// loop); the pool it references may be shared across goroutines.
//
// The scratch reuse relies on the Peer contract that Send does not retain
// the payload after it returns — the in-memory mesh copies on send, the TCP
// transport writes to the socket before returning.
type Exchange struct {
	buf  []byte
	pool *tensor.MatrixPool
}

// NewExchange returns an Exchange drawing matrices from pool (nil disables
// matrix pooling but still reuses the encode scratch).
func NewExchange(pool *tensor.MatrixPool) *Exchange {
	return &Exchange{pool: pool}
}

// Pool returns the matrix pool (possibly nil).
func (ex *Exchange) Pool() *tensor.MatrixPool { return ex.pool }

// Encode serializes m into the exchange's scratch buffer and returns it.
// The returned slice is invalidated by the next Encode on this Exchange, so
// it must be handed to Send (which does not retain it) before then.
func (ex *Exchange) Encode(m *tensor.Matrix) []byte {
	ex.buf = tensor.Encode(ex.buf[:0], m)
	return ex.buf
}

// AllGatherMatrix is Voltage's between-layer synchronization with buffer
// reuse: every rank contributes its output partition `mine` (rows
// ranges[rank] of the full matrix) and receives the assembled full matrix,
// drawn from the exchange's pool — GatherTo with Everyone reading, or, when
// ring is true, the same gather forwarded around the ring.
//
// ranges must be the partition scheme's ranges for the current sequence
// length, identical on every rank.
func (ex *Exchange) AllGatherMatrix(ctx context.Context, p Peer, mine *tensor.Matrix, ranges []partition.Range, ring bool) (*tensor.Matrix, error) {
	if !ring {
		return ex.GatherTo(ctx, p, Everyone, mine, ranges)
	}
	if err := checkPartition(p, mine, ranges); err != nil {
		return nil, err
	}
	blobs, err := RingAllGather(ctx, p, ex.Encode(mine))
	if err != nil {
		return nil, err
	}
	return ex.assemble(p, Everyone, mine, ranges, blobs, decodeExact)
}

// GatherTo is the synchronisation between two layers of a position-wise pass,
// for whoever reads the layer: every member contributes its partition `mine`
// (rows ranges[rank]) to the members that read it and gets back the rows it
// reads itself, assembled into one matrix drawn from the exchange's pool —
// every row under Everyone (the paper's All-Gather), rows [0, ranges[rank].To)
// under Successors, every row at the root of Only and nil at the others.
// Received blobs are released back to the transport's buffer pool and decoded
// partitions are recycled, so the steady-state cost is one pooled matrix per
// call.
func (ex *Exchange) GatherTo(ctx context.Context, p Peer, readers Readers, mine *tensor.Matrix, ranges []partition.Range) (*tensor.Matrix, error) {
	if err := checkPartition(p, mine, ranges); err != nil {
		return nil, err
	}
	blobs, err := GatherTo(ctx, p, readers, ex.Encode(mine))
	if err != nil || blobs == nil {
		return nil, err
	}
	return ex.assemble(p, readers, mine, ranges, blobs, decodeExact)
}

// checkPartition holds a collective's own contribution to its range.
func checkPartition(p Peer, mine *tensor.Matrix, ranges []partition.Range) error {
	if len(ranges) != p.Size() {
		return fmt.Errorf("comm: %d ranges for %d peers", len(ranges), p.Size())
	}
	if r := ranges[p.Rank()]; mine.Rows() != r.Len() {
		return fmt.Errorf("comm: partition has %d rows, range %v wants %d", mine.Rows(), r, r.Len())
	}
	return nil
}

// decodeExact is the float32 wire form of a partition.
func decodeExact(pool *tensor.MatrixPool, blob []byte) (*tensor.Matrix, error) {
	part, _, err := tensor.DecodePooled(pool, blob)
	return part, err
}

// assemble stacks the partitions this member reads (mine, which is not
// decoded again, and blobs[i] of every other member i it reads) into one
// pooled matrix. A partition that does not decode or does not fit its range
// is refused in its sender's name. Received blobs go back to the transport's
// buffer pool and decoded partitions are recycled, on every path.
func (ex *Exchange) assemble(p Peer, readers Readers, mine *tensor.Matrix, ranges []partition.Range, blobs [][]byte,
	decode func(*tensor.MatrixPool, []byte) (*tensor.Matrix, error)) (out *tensor.Matrix, err error) {
	me := p.Rank()
	total := 0
	cols := mine.Cols()
	contiguous := true
	for rank, rr := range ranges {
		if !readers.Reads(rank, me) {
			continue
		}
		if rr.From != total {
			contiguous = false
		}
		total += rr.Len()
	}
	// A pooled matrix has unspecified contents, so it is only safe when the
	// ranges read tile [0, total) exactly (which partition schemes
	// guarantee); otherwise fall back to a zeroed allocation, preserving the
	// historical semantics for irregular range sets.
	if contiguous {
		out = ex.pool.Get(total, cols)
	} else {
		out = tensor.New(total, cols)
	}
	defer func() {
		for rank, blob := range blobs {
			if rank != me {
				ReleaseBuffer(blob)
			}
		}
		if err != nil {
			ex.pool.Put(out)
			out = nil
		}
	}()
	for rank, rr := range ranges {
		if !readers.Reads(rank, me) {
			continue
		}
		part := mine
		if rank != me {
			if part, err = decode(ex.pool, blobs[rank]); err != nil {
				return nil, &RemoteError{Rank: meshRank(p, rank), Err: fmt.Errorf("comm: gather decode: %w", err)}
			}
		}
		if part.Rows() != rr.Len() || part.Cols() != cols {
			err = &RemoteError{Rank: meshRank(p, rank), Err: fmt.Errorf(
				"comm: a partition of %dx%d, range %v wants %dx%d", part.Rows(), part.Cols(), rr, rr.Len(), cols)}
		} else if !rr.Empty() {
			err = out.SetRowSlice(rr.From, part)
		}
		if rank != me {
			ex.pool.Put(part)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
