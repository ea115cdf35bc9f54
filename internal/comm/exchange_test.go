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
					outs[r], errs[r] = exs[r].GatherMatrix(ctx, peers[r], root, part, ranges)
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
	if out, err := NewExchange(nil).GatherMatrix(ctx, sender, 0, tensor.New(3, 4), senderView); out != nil || err != nil {
		t.Fatalf("sender returned %v, %v", out, err)
	}
	root, err := NewSubgroup(peers[1], members)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewExchange(nil).GatherMatrix(ctx, root, 0, tensor.New(3, 4), rootView)
	if r, ok := RemoteRank(err); !ok || r != 3 {
		t.Fatalf("root got %v, want the three-row partition refused in mesh rank 3's name", err)
	}
	// Its own partition a member checks before sending anything.
	if _, err := NewExchange(nil).GatherMatrix(ctx, sender, 0, tensor.New(1, 4), senderView); err == nil {
		t.Fatal("a member sent a partition that does not fit its own range")
	}
	if _, err := NewExchange(nil).GatherMatrix(ctx, root, 0, tensor.New(3, 4), rootView[:1]); err == nil {
		t.Fatal("one range accepted for a group of two")
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
