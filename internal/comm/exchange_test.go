package comm

import (
	"context"
	"sync"
	"testing"

	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// gatherAll runs fn (an Exchange-based all-gather round) on every rank of a
// fresh mesh and returns the per-rank results.
func runAllGatherRound(t *testing.T, peers []*MemPeer, exs []*Exchange, parts []*tensor.Matrix, ranges []partition.Range, ring bool) []*tensor.Matrix {
	t.Helper()
	k := len(peers)
	outs := make([]*tensor.Matrix, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			outs[r], errs[r] = exs[r].AllGatherMatrix(context.Background(), peers[r], parts[r], ranges, ring)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return outs
}

func TestExchangeAllGatherMatrixMatchesPlain(t *testing.T) {
	for _, ring := range []bool{false, true} {
		const k, n, cols = 3, 8, 4
		peers, err := NewMemMesh(k, netem.Profile{})
		if err != nil {
			t.Fatal(err)
		}
		defer peers[0].Close()
		scheme, err := partition.Even(k)
		if err != nil {
			t.Fatal(err)
		}
		ranges, err := scheme.Ranges(n)
		if err != nil {
			t.Fatal(err)
		}
		pool := &tensor.MatrixPool{}
		exs := make([]*Exchange, k)
		for r := range exs {
			exs[r] = NewExchange(pool)
		}
		// Two rounds with different values: the second reuses scratch
		// buffers and pooled matrices from the first, and must still be
		// exact.
		for round := 0; round < 2; round++ {
			full := tensor.New(n, cols)
			for i := 0; i < n; i++ {
				for j := 0; j < cols; j++ {
					full.Set(i, j, float32(round*1000+i*cols+j))
				}
			}
			parts := make([]*tensor.Matrix, k)
			for r := 0; r < k; r++ {
				part, err := full.RowSlice(ranges[r].From, ranges[r].To)
				if err != nil {
					t.Fatal(err)
				}
				parts[r] = part
			}
			outs := runAllGatherRound(t, peers, exs, parts, ranges, ring)
			for r, out := range outs {
				if !out.Equal(full) {
					t.Fatalf("ring=%v round %d rank %d: assembled matrix differs", ring, round, r)
				}
				pool.Put(out)
			}
		}
	}
}

// TestExchangeGatherMatrix: every member's rows reach root — and only root —
// in K−1 messages; a second round on recycled buffers is still exact; K = 1
// moves nothing.
func TestExchangeGatherMatrix(t *testing.T) {
	ctx := context.Background()
	for _, k := range []int{1, 2, 3} {
		const n, cols = 8, 4
		peers, err := NewMemMesh(k, netem.Profile{})
		if err != nil {
			t.Fatal(err)
		}
		defer peers[0].Close()
		scheme, err := partition.Even(k)
		if err != nil {
			t.Fatal(err)
		}
		ranges, err := scheme.Ranges(n)
		if err != nil {
			t.Fatal(err)
		}
		pool := &tensor.MatrixPool{}
		exs := make([]*Exchange, k)
		for r := range exs {
			exs[r] = NewExchange(pool)
		}
		for round := 0; round < 2*k; round++ {
			root := round % k
			full := tensor.New(n, cols)
			for i := 0; i < n; i++ {
				for j := 0; j < cols; j++ {
					full.Set(i, j, float32(round*1000+i*cols+j))
				}
			}
			before := make([]Stats, k)
			outs := make([]*tensor.Matrix, k)
			errs := make([]error, k)
			var wg sync.WaitGroup
			for r := 0; r < k; r++ {
				before[r] = peers[r].Stats()
				part, err := full.RowSlice(ranges[r].From, ranges[r].To)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					outs[r], errs[r] = exs[r].GatherTo(ctx, peers[r], Only(root), part, ranges)
				}(r)
			}
			wg.Wait()
			for r := 0; r < k; r++ {
				if errs[r] != nil {
					t.Fatalf("K=%d root %d rank %d: %v", k, root, r, errs[r])
				}
				sent := peers[r].Stats().Sub(before[r]).MsgsSent
				if r == root {
					if !outs[r].Equal(full) || sent != 0 {
						t.Fatalf("K=%d round %d: root %d sent %d messages and assembled a matrix equal to the input: %v", k, round, r, sent, outs[r].Equal(full))
					}
					pool.Put(outs[r])
				} else if outs[r] != nil || sent != 1 {
					t.Fatalf("K=%d round %d: rank %d, not the root, sent %d messages and returned %v", k, round, r, sent, outs[r])
				}
			}
		}
	}
}

// TestExchangeGatherMatrixNamesTheSender: a partition that does not fit its
// range is refused at root in its sender's name — its mesh rank, also when the
// collective ran on a subgroup that renumbers it.
func TestExchangeGatherMatrixNamesTheSender(t *testing.T) {
	ctx := context.Background()
	peers, err := NewMemMesh(4, netem.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer peers[0].Close()
	members := []int{1, 3}
	rootView := []partition.Range{{From: 0, To: 3}, {From: 3, To: 5}}
	senderView := []partition.Range{{From: 0, To: 2}, {From: 2, To: 5}}
	sender, err := NewSubgroup(peers[3], members)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := NewExchange(nil).GatherTo(ctx, sender, Only(0), tensor.New(3, 4), senderView); out != nil || err != nil {
		t.Fatalf("sender returned %v, %v", out, err)
	}
	root, err := NewSubgroup(peers[1], members)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewExchange(nil).GatherTo(ctx, root, Only(0), tensor.New(3, 4), rootView)
	if r, ok := RemoteRank(err); !ok || r != 3 {
		t.Fatalf("root got %v, want the three-row partition refused in mesh rank 3's name", err)
	}
	// Its own partition a member checks before sending anything.
	if _, err := NewExchange(nil).GatherTo(ctx, sender, Only(0), tensor.New(1, 4), senderView); err == nil {
		t.Fatal("a member sent a partition that does not fit its own range")
	}
	if _, err := NewExchange(nil).GatherTo(ctx, root, Only(0), tensor.New(3, 4), rootView[:1]); err == nil {
		t.Fatal("one range accepted for a group of two")
	}
}

// TestExchangeGatherToSuccessors: under Successors member j's rows go to the
// K−1−j members after it and to nobody else — (K−1−j) messages of its encoded
// partition out, j partitions in, exactly — and it ends with rows
// [0, ranges[j].To), its own included; member 0 receives nothing. A second
// round on recycled buffers is still exact, and a member without rows takes
// part with an empty partition.
func TestExchangeGatherToSuccessors(t *testing.T) {
	ctx := context.Background()
	const n, cols = 9, 4
	for _, weights := range [][]float64{{1}, {1, 2}, {2, 1, 1}, {1, 0, 1, 1}} {
		k := len(weights)
		peers, err := NewMemMesh(k, netem.Profile{})
		if err != nil {
			t.Fatal(err)
		}
		defer peers[0].Close()
		scheme, err := partition.Weighted(weights)
		if err != nil {
			t.Fatal(err)
		}
		ranges, err := scheme.Ranges(n)
		if err != nil {
			t.Fatal(err)
		}
		pool := &tensor.MatrixPool{}
		for round := 0; round < 2; round++ {
			full := tensor.NewRNG(int64(round+1)).Normal(n, cols, 1)
			before := make([]Stats, k)
			outs := make([]*tensor.Matrix, k)
			errs := make([]error, k)
			var wg sync.WaitGroup
			for r := 0; r < k; r++ {
				before[r] = peers[r].Stats()
				part, err := full.RowSlice(ranges[r].From, ranges[r].To)
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					outs[r], errs[r] = NewExchange(pool).GatherTo(ctx, peers[r], Successors, part, ranges)
				}(r)
			}
			wg.Wait()
			var recv int64
			for r := 0; r < k; r++ {
				if errs[r] != nil {
					t.Fatalf("weights %v rank %d: %v", weights, r, errs[r])
				}
				want, err := full.RowSlice(0, ranges[r].To)
				if err != nil {
					t.Fatal(err)
				}
				if !outs[r].Equal(want) {
					t.Errorf("weights %v round %d: rank %d assembled %dx%d, want rows [0,%d) of the input", weights, round, r, outs[r].Rows(), outs[r].Cols(), ranges[r].To)
				}
				pool.Put(outs[r])
				mine := int64(tensor.EncodedSize(ranges[r].Len(), cols))
				got := peers[r].Stats().Sub(before[r])
				if got.MsgsSent != int64(k-1-r) || got.BytesSent != int64(k-1-r)*mine || got.MsgsRecv != int64(r) || got.BytesRecv != recv {
					t.Errorf("weights %v round %d: rank %d moved %+v, want its %d bytes out to the %d ranks after it and %d bytes in from the %d before",
						weights, round, r, got, mine, k-1-r, recv, r)
				}
				recv += mine
			}
		}
	}
}

// TestExchangeGatherToSuccessorsNamesTheSender: a partition that does not
// decode, or does not fit its range, is refused by the member that reads it in
// its sender's name — its mesh rank, through a subgroup whose member order is
// a rotation of the rank order — and a member checks its own before sending.
func TestExchangeGatherToSuccessorsNamesTheSender(t *testing.T) {
	ctx := context.Background()
	peers, err := NewMemMesh(4, netem.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer peers[0].Close()
	members := []int{2, 3, 1} // ranks 1, 2, 3 with rank 1 last
	group := func(rank int) Peer {
		g, err := NewSubgroup(peers[rank], members)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ranges := []partition.Range{{From: 0, To: 2}, {From: 2, To: 5}, {From: 5, To: 6}}
	// Member 0 (rank 2) sends bytes that are no matrix; member 1 (rank 3)
	// believes its slice is two rows long.
	for to := 1; to <= 2; to++ {
		if err := group(2).Send(ctx, to, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	skewed := []partition.Range{{From: 0, To: 2}, {From: 2, To: 4}, {From: 4, To: 6}}
	_, err = NewExchange(nil).GatherTo(ctx, group(3), Successors, tensor.New(2, 4), skewed)
	if r, ok := RemoteRank(err); !ok || r != 2 {
		t.Fatalf("member 1 got %v, want the undecodable partition refused in mesh rank 2's name", err)
	}
	// Member 2 (rank 1) reads both: the first bad one it meets is member 0's.
	_, err = NewExchange(nil).GatherTo(ctx, group(1), Successors, tensor.New(1, 4), ranges)
	if r, ok := RemoteRank(err); !ok || r != 2 {
		t.Fatalf("member 2 got %v, want the undecodable partition refused in mesh rank 2's name", err)
	}
	// With member 0 honest, the two-row partition of member 1 is what is left
	// to refuse.
	if out, err := NewExchange(nil).GatherTo(ctx, group(2), Successors, tensor.New(2, 4), ranges); err != nil || out.Rows() != 2 {
		t.Fatalf("member 0 returned %v, %v; want its own two rows", out, err)
	}
	if _, err = NewExchange(nil).GatherTo(ctx, group(3), Successors, tensor.New(2, 4), skewed); err != nil {
		t.Fatalf("member 1: %v", err)
	}
	_, err = NewExchange(nil).GatherTo(ctx, group(1), Successors, tensor.New(1, 4), ranges)
	if r, ok := RemoteRank(err); !ok || r != 3 {
		t.Fatalf("member 2 got %v, want the two-row partition for [2,5) refused in mesh rank 3's name", err)
	}
	if _, err := NewExchange(nil).GatherTo(ctx, group(3), Successors, tensor.New(1, 4), ranges); err == nil {
		t.Fatal("a member sent a partition that does not fit its own range")
	}
}

func TestMemSendKeepsCallerBuffer(t *testing.T) {
	// The Peer contract: Send does not retain the caller's slice, so a
	// scratch buffer may be rewritten immediately after Send returns.
	peers, err := NewMemMesh(2, netem.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer peers[0].Close()
	ctx := context.Background()
	scratch := []byte{1, 2, 3}
	if err := peers[0].Send(ctx, 1, scratch); err != nil {
		t.Fatal(err)
	}
	scratch[0], scratch[1], scratch[2] = 9, 9, 9 // caller reuses the buffer
	got, err := peers[1].Recv(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("receiver saw the caller's overwrite: %v", got)
	}
	ReleaseBuffer(got)
}
