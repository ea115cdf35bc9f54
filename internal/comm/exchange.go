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
// drawn from the exchange's pool. Received blobs are released back to the
// transport's buffer pool and decoded partitions are recycled, so the
// steady-state cost is one pooled matrix per call.
//
// ranges must be the partition scheme's ranges for the current sequence
// length, identical on every rank. When ring is true the ring all-gather is
// used; otherwise the naive direct exchange.
func (ex *Exchange) AllGatherMatrix(ctx context.Context, p Peer, mine *tensor.Matrix, ranges []partition.Range, ring bool) (*tensor.Matrix, error) {
	if err := checkPartition(p, mine, ranges); err != nil {
		return nil, err
	}
	gather := AllGather
	if ring {
		gather = RingAllGather
	}
	blobs, err := gather(ctx, p, ex.Encode(mine))
	if err != nil {
		return nil, err
	}
	return ex.assemble(p, mine, ranges, blobs)
}

// GatherMatrix is AllGatherMatrix for a synchronisation only one member reads:
// every other member sends its partition to root and returns nil — K−1
// transfers where the All-Gather makes K(K−1) — and root assembles the full
// matrix, drawn from the exchange's pool.
func (ex *Exchange) GatherMatrix(ctx context.Context, p Peer, root int, mine *tensor.Matrix, ranges []partition.Range) (*tensor.Matrix, error) {
	if err := checkPartition(p, mine, ranges); err != nil {
		return nil, err
	}
	blobs, err := Gather(ctx, p, root, ex.Encode(mine))
	if err != nil || blobs == nil {
		return nil, err
	}
	return ex.assemble(p, mine, ranges, blobs)
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

// assemble stacks the gathered partitions (blobs[p.Rank()] is mine, not
// decoded again) into one pooled matrix. A partition that does not fit its
// range is refused in its sender's name. Received blobs go back to the
// transport's buffer pool and decoded partitions are recycled.
func (ex *Exchange) assemble(p Peer, mine *tensor.Matrix, ranges []partition.Range, blobs [][]byte) (*tensor.Matrix, error) {
	total := 0
	cols := mine.Cols()
	contiguous := true
	for _, rr := range ranges {
		if rr.From != total {
			contiguous = false
		}
		total += rr.Len()
	}
	// A pooled matrix has unspecified contents, so it is only safe when the
	// ranges tile [0, total) exactly (which partition schemes guarantee);
	// otherwise fall back to a zeroed allocation, preserving the historical
	// semantics for irregular range sets.
	var out *tensor.Matrix
	if contiguous {
		out = ex.pool.Get(total, cols)
	} else {
		out = tensor.New(total, cols)
	}
	for rank, blob := range blobs {
		part := mine
		if rank != p.Rank() {
			decoded, _, err := tensor.DecodePooled(ex.pool, blob)
			if err != nil {
				return nil, &RemoteError{Rank: meshRank(p, rank), Err: fmt.Errorf("comm: gather decode: %w", err)}
			}
			part = decoded
		}
		rr := ranges[rank]
		if part.Rows() != rr.Len() || part.Cols() != cols {
			return nil, &RemoteError{Rank: meshRank(p, rank), Err: fmt.Errorf(
				"comm: a partition of %dx%d, range %v wants %dx%d", part.Rows(), part.Cols(), rr, rr.Len(), cols)}
		}
		if !rr.Empty() {
			if err := out.SetRowSlice(rr.From, part); err != nil {
				return nil, err
			}
		}
		if rank != p.Rank() {
			ex.pool.Put(part)
			ReleaseBuffer(blob)
		}
	}
	return out, nil
}
