package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"voltage/internal/tensor"
)

// This file implements the collectives used by the two inference
// strategies:
//
//   - AllGather: Voltage's between-layer synchronization. Per-device
//     traffic: each device sends its NF/K-row partition to K−1 peers and
//     receives K−1 partitions — (K−1)·N·F/K values each way, the paper's
//     "(K−1)NF/K per layer".
//   - AllReduceSum: tensor parallelism's head/FFN merge. The ring variant
//     moves 2·(K−1)·N·F/K values per device per call; two calls per layer
//     give the paper's 4(K−1)NF/K.
//
// All collectives are SPMD: every rank must call the same operation in the
// same order with compatible arguments.
//
// Deadlines: collectives inherit per-step watchdog deadlines from a
// WithOpTimeout-wrapped peer — every individual exchange of an All-Gather
// or ring All-Reduce is then bounded, so one dropped message resolves as an
// attributed ErrTimeout instead of hanging the whole collective. When a
// collective fails on several links at once (one dead rank cancels the
// request, which aborts the healthy links too), the error returned is the
// most diagnostic one: rank-attributed failures beat plain transport
// errors, which beat secondary context cancellations.

// firstError selects the most diagnostic error from a collective's
// per-link results: RemoteError (names the culprit rank) over other
// non-context errors over context cancellations.
func firstError(errs []error) error {
	var fallback, plain error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if _, ok := RemoteRank(err); ok {
			return err
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if fallback == nil {
				fallback = err
			}
			continue
		}
		if plain == nil {
			plain = err
		}
	}
	if plain != nil {
		return plain
	}
	return fallback
}

// Broadcast sends root's blob to every peer; non-root ranks receive and
// return it. Root returns its own data unchanged.
func Broadcast(ctx context.Context, p Peer, root int, data []byte) ([]byte, error) {
	if root < 0 || root >= p.Size() {
		return nil, fmt.Errorf("comm: broadcast root %d of %d", root, p.Size())
	}
	if p.Rank() == root {
		if err := sendToAll(ctx, p, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	return p.Recv(ctx, root)
}

// Readers says who reads whom in a gather: which members of the group a
// member's contribution is sent to. It is the one thing that tells the
// gathers apart — the zero value, Everyone, is the All-Gather.
type Readers struct {
	kind readersKind
	root int
}

type readersKind uint8

const (
	everyone readersKind = iota
	successors
	only
)

var (
	// Everyone reads every member: the All-Gather, K(K−1) transfers.
	Everyone = Readers{}
	// Successors is the gather of a causal pass, whose member j reads the
	// rows of members 0…j only: a contribution goes to the members after its
	// sender, K(K−1)/2 transfers, and member 0 waits for nobody.
	Successors = Readers{kind: successors}
)

// Only is the gather one member reads: K−1 transfers, all to root.
func Only(root int) Readers { return Readers{kind: only, root: root} }

// Reads reports whether member `to` reads member `from`'s contribution. A
// member that does not read its own takes nothing away from the gather.
func (r Readers) Reads(from, to int) bool {
	switch r.kind {
	case successors:
		return from <= to
	case only:
		return to == r.root
	default:
		return true
	}
}

// GatherTo exchanges blobs directly: each rank sends its blob to every other
// rank that reads it and receives the blobs it reads, so a reader ends with
// result[i] = rank i's contribution for every i it reads (result[rank] = own
// data, the rest nil). A rank that reads nothing only sends, and returns nil.
func GatherTo(ctx context.Context, p Peer, readers Readers, data []byte) ([][]byte, error) {
	me, k := p.Rank(), p.Size()
	if readers.kind == only && (readers.root < 0 || readers.root >= k) {
		return nil, fmt.Errorf("comm: gather root %d of %d", readers.root, k)
	}
	out := make([][]byte, k)
	out[me] = data
	var wg sync.WaitGroup
	errs := make([]error, 2*k)
	for r := 0; r < k; r++ {
		if r == me {
			continue
		}
		if readers.Reads(me, r) {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = p.Send(ctx, r, data)
			}(r)
		}
		if readers.Reads(r, me) {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				out[r], errs[k+r] = p.Recv(ctx, r)
			}(r)
		}
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	if !readers.Reads(me, me) {
		return nil, nil
	}
	return out, nil
}

// AllGather exchanges blobs so every rank ends with result[i] = rank i's
// contribution. This is the naive (direct-exchange) algorithm: each rank
// sends its blob to the K−1 others.
func AllGather(ctx context.Context, p Peer, data []byte) ([][]byte, error) {
	return GatherTo(ctx, p, Everyone, data)
}

// RingAllGather is the bandwidth-optimal ring variant: K−1 steps, each
// forwarding one blob to the next rank. Per-device traffic equals the
// naive variant ((K−1) blobs each way) but transfers pipeline around the
// ring instead of fanning out.
func RingAllGather(ctx context.Context, p Peer, data []byte) ([][]byte, error) {
	k := p.Size()
	out := make([][]byte, k)
	out[p.Rank()] = data
	if k == 1 {
		return out, nil
	}
	next := (p.Rank() + 1) % k
	prev := (p.Rank() - 1 + k) % k
	carry := data
	carrySrc := p.Rank()
	for step := 0; step < k-1; step++ {
		var wg sync.WaitGroup
		var sendErr, recvErr error
		var incoming []byte
		wg.Add(2)
		go func(blob []byte) {
			defer wg.Done()
			sendErr = p.Send(ctx, next, blob)
		}(carry)
		go func() {
			defer wg.Done()
			incoming, recvErr = p.Recv(ctx, prev)
		}()
		wg.Wait()
		if err := firstError([]error{sendErr, recvErr}); err != nil {
			return nil, err
		}
		carrySrc = (carrySrc - 1 + k) % k
		out[carrySrc] = incoming
		carry = incoming
	}
	return out, nil
}

// AllReduceSum sums the peers' matrices element-wise, leaving every rank
// with the total. The naive algorithm all-gathers full matrices and
// reduces locally: per-device traffic (K−1)·N·F each way — the overhead
// that makes tensor parallelism impractical at the edge.
func AllReduceSum(ctx context.Context, p Peer, m *tensor.Matrix) (*tensor.Matrix, error) {
	blobs, err := AllGather(ctx, p, tensor.Encode(nil, m))
	if err != nil {
		return nil, err
	}
	sum := m.Clone()
	for r, blob := range blobs {
		if r == p.Rank() {
			continue
		}
		other, _, err := tensor.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("comm: allreduce decode from %d: %w", r, err)
		}
		if err := tensor.AddInPlace(sum, other); err != nil {
			return nil, fmt.Errorf("comm: allreduce from %d: %w", r, err)
		}
	}
	return sum, nil
}

// RingAllReduceSum is the bandwidth-optimal ring all-reduce
// (reduce-scatter followed by all-gather): per-device traffic
// 2·(K−1)·N·F/K values each way, the figure the paper cites from
// Megatron-LM. The matrix is chunked along its flat backing array.
func RingAllReduceSum(ctx context.Context, p Peer, m *tensor.Matrix) (*tensor.Matrix, error) {
	k := p.Size()
	out := m.Clone()
	if k == 1 {
		return out, nil
	}
	data := out.Data()
	bounds := chunkBounds(len(data), k)
	next := (p.Rank() + 1) % k
	prev := (p.Rank() - 1 + k) % k

	// Phase 1: reduce-scatter. After step s, rank r holds the partial sum
	// of chunk (r−s) accumulated over s+1 ranks.
	for step := 0; step < k-1; step++ {
		sendChunk := (p.Rank() - step + k) % k
		recvChunk := (p.Rank() - step - 1 + k) % k
		incoming, err := exchangeChunk(ctx, p, next, prev, data, bounds, sendChunk)
		if err != nil {
			return nil, err
		}
		lo, hi := bounds[recvChunk], bounds[recvChunk+1]
		if len(incoming) != (hi-lo)*4 {
			return nil, fmt.Errorf("comm: ring allreduce chunk size %d, want %d", len(incoming), (hi-lo)*4)
		}
		addFloatBytes(data[lo:hi], incoming)
	}
	// Phase 2: all-gather the reduced chunks around the ring.
	for step := 0; step < k-1; step++ {
		sendChunk := (p.Rank() + 1 - step + k) % k
		recvChunk := (p.Rank() - step + k) % k
		incoming, err := exchangeChunk(ctx, p, next, prev, data, bounds, sendChunk)
		if err != nil {
			return nil, err
		}
		lo, hi := bounds[recvChunk], bounds[recvChunk+1]
		if len(incoming) != (hi-lo)*4 {
			return nil, fmt.Errorf("comm: ring allgather chunk size %d, want %d", len(incoming), (hi-lo)*4)
		}
		copyFloatBytes(data[lo:hi], incoming)
	}
	return out, nil
}

// chunkBounds splits n elements into k nearly equal contiguous chunks,
// returning k+1 boundary indices.
func chunkBounds(n, k int) []int {
	bounds := make([]int, k+1)
	for i := 0; i <= k; i++ {
		bounds[i] = i * n / k
	}
	return bounds
}

// exchangeChunk concurrently sends data[bounds[c]:bounds[c+1]] to next and
// receives one chunk from prev.
func exchangeChunk(ctx context.Context, p Peer, next, prev int, data []float32, bounds []int, c int) ([]byte, error) {
	lo, hi := bounds[c], bounds[c+1]
	blob := floatsToBytes(data[lo:hi])
	var wg sync.WaitGroup
	var sendErr, recvErr error
	var incoming []byte
	wg.Add(2)
	go func() {
		defer wg.Done()
		sendErr = p.Send(ctx, next, blob)
	}()
	go func() {
		defer wg.Done()
		incoming, recvErr = p.Recv(ctx, prev)
	}()
	wg.Wait()
	if err := firstError([]error{sendErr, recvErr}); err != nil {
		return nil, err
	}
	return incoming, nil
}

func sendToAll(ctx context.Context, p Peer, data []byte) error {
	var wg sync.WaitGroup
	errs := make([]error, p.Size())
	for r := 0; r < p.Size(); r++ {
		if r == p.Rank() {
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = p.Send(ctx, r, data)
		}(r)
	}
	wg.Wait()
	return firstError(errs)
}
