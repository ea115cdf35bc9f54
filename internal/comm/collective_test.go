package comm

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// runSPMD runs fn concurrently on every peer and returns the first error.
func runSPMD(t testing.TB, peers []*MemPeer, fn func(p Peer) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(peers))
	for i, p := range peers {
		wg.Add(1)
		go func(i int, p Peer) {
			defer wg.Done()
			errs[i] = fn(p)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, k := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			peers := memPair(t, k, netem.Unlimited)
			want := []byte("payload")
			runSPMD(t, peers, func(p Peer) error {
				var in []byte
				if p.Rank() == 0 {
					in = want
				}
				got, err := Broadcast(context.Background(), p, 0, in)
				if err != nil {
					return err
				}
				if string(got) != string(want) {
					return fmt.Errorf("rank %d got %q", p.Rank(), got)
				}
				return nil
			})
		})
	}
}

func TestBroadcastBadRoot(t *testing.T) {
	peers := memPair(t, 2, netem.Unlimited)
	if _, err := Broadcast(context.Background(), peers[0], 9, nil); err == nil {
		t.Fatal("want error for bad root")
	}
}

func TestGather(t *testing.T) {
	peers := memPair(t, 4, netem.Unlimited)
	runSPMD(t, peers, func(p Peer) error {
		blob := []byte{byte(p.Rank())}
		out, err := GatherTo(context.Background(), p, Only(2), blob)
		if err != nil {
			return err
		}
		if p.Rank() != 2 {
			if out != nil {
				return fmt.Errorf("non-root got result")
			}
			return nil
		}
		for r, b := range out {
			if len(b) != 1 || b[0] != byte(r) {
				return fmt.Errorf("root out[%d] = %v", r, b)
			}
		}
		return nil
	})
	if _, err := GatherTo(context.Background(), peers[0], Only(-1), nil); err == nil {
		t.Fatal("want error for bad root")
	}
}

func TestAllGatherVariants(t *testing.T) {
	for _, ring := range []bool{false, true} {
		for _, k := range []int{1, 2, 3, 6} {
			t.Run(fmt.Sprintf("ring=%v/k=%d", ring, k), func(t *testing.T) {
				peers := memPair(t, k, netem.Unlimited)
				runSPMD(t, peers, func(p Peer) error {
					blob := []byte{byte(p.Rank()), byte(p.Rank() * 2)}
					gather := AllGather
					if ring {
						gather = RingAllGather
					}
					out, err := gather(context.Background(), p, blob)
					if err != nil {
						return err
					}
					if len(out) != k {
						return fmt.Errorf("got %d blobs", len(out))
					}
					for r, b := range out {
						if len(b) != 2 || b[0] != byte(r) || b[1] != byte(r*2) {
							return fmt.Errorf("rank %d out[%d] = %v", p.Rank(), r, b)
						}
					}
					return nil
				})
			})
		}
	}
}

func TestAllReduceSumVariants(t *testing.T) {
	for _, ring := range []bool{false, true} {
		for _, k := range []int{1, 2, 3, 5} {
			t.Run(fmt.Sprintf("ring=%v/k=%d", ring, k), func(t *testing.T) {
				peers := memPair(t, k, netem.Unlimited)
				rows, cols := 7, 9
				// want[i] = sum over ranks of (rank+1) * base[i]
				base := tensor.NewRNG(42).Normal(rows, cols, 1)
				factor := float32(0)
				for r := 0; r < k; r++ {
					factor += float32(r + 1)
				}
				want := tensor.Scale(base, factor)
				runSPMD(t, peers, func(p Peer) error {
					mine := tensor.Scale(base, float32(p.Rank()+1))
					reduce := AllReduceSum
					if ring {
						reduce = RingAllReduceSum
					}
					got, err := reduce(context.Background(), p, mine)
					if err != nil {
						return err
					}
					if !got.AlmostEqual(want, 1e-3) {
						d, _ := got.MaxAbsDiff(want)
						return fmt.Errorf("rank %d allreduce off by %v", p.Rank(), d)
					}
					return nil
				})
			})
		}
	}
}

func TestRingAllReduceDoesNotMutateInput(t *testing.T) {
	peers := memPair(t, 3, netem.Unlimited)
	base := tensor.NewRNG(7).Normal(4, 4, 1)
	runSPMD(t, peers, func(p Peer) error {
		mine := base.Clone()
		snapshot := mine.Clone()
		if _, err := RingAllReduceSum(context.Background(), p, mine); err != nil {
			return err
		}
		if !mine.Equal(snapshot) {
			return fmt.Errorf("input mutated")
		}
		return nil
	})
}

func TestAllGatherMatrix(t *testing.T) {
	for _, ring := range []bool{false, true} {
		t.Run(fmt.Sprintf("ring=%v", ring), func(t *testing.T) {
			peers := memPair(t, 3, netem.Unlimited)
			full := tensor.NewRNG(11).Normal(10, 4, 1)
			scheme, err := partition.Weighted([]float64{2, 5, 3})
			if err != nil {
				t.Fatal(err)
			}
			ranges, err := scheme.Ranges(10)
			if err != nil {
				t.Fatal(err)
			}
			runSPMD(t, peers, func(p Peer) error {
				r := ranges[p.Rank()]
				mine, err := full.RowSlice(r.From, r.To)
				if err != nil {
					return err
				}
				got, err := AllGatherMatrix(context.Background(), p, mine, ranges, ring)
				if err != nil {
					return err
				}
				if !got.Equal(full) {
					return fmt.Errorf("rank %d assembled wrong matrix", p.Rank())
				}
				return nil
			})
		})
	}
}

func TestAllGatherMatrixValidation(t *testing.T) {
	peers := memPair(t, 2, netem.Unlimited)
	m := tensor.New(3, 2)
	// Wrong number of ranges.
	if _, err := AllGatherMatrix(context.Background(), peers[0], m, []partition.Range{{From: 0, To: 3}}, false); err == nil {
		t.Fatal("want error for range count")
	}
	// Partition rows disagree with own range.
	ranges := []partition.Range{{From: 0, To: 5}, {From: 5, To: 10}}
	if _, err := AllGatherMatrix(context.Background(), peers[0], m, ranges, false); err == nil {
		t.Fatal("want error for row mismatch")
	}
}

func TestBroadcastMatrix(t *testing.T) {
	peers := memPair(t, 3, netem.Unlimited)
	want := tensor.NewRNG(13).Normal(5, 6, 1)
	runSPMD(t, peers, func(p Peer) error {
		var in *tensor.Matrix
		if p.Rank() == 0 {
			in = want
		}
		got, err := BroadcastMatrix(context.Background(), p, 0, in)
		if err != nil {
			return err
		}
		if !got.Equal(want) {
			return fmt.Errorf("rank %d matrix mismatch", p.Rank())
		}
		return nil
	})
}

func TestAllGatherCommVolumeMatchesPaperFormula(t *testing.T) {
	// Table A: Voltage's per-device All-Gather traffic is (K−1)·N·F/K
	// values, i.e. 4(K−1)NF/K bytes (+8-byte headers), vs tensor
	// parallelism's ring All-Reduce at 2·(K−1)·N·F/K values per call and
	// two calls per layer.
	k, n, f := 4, 64, 32
	peers := memPair(t, k, netem.Unlimited)
	full := tensor.NewRNG(17).Normal(n, f, 1)
	scheme, _ := partition.Even(k)
	ranges, _ := scheme.Ranges(n)
	runSPMD(t, peers, func(p Peer) error {
		r := ranges[p.Rank()]
		mine, err := full.RowSlice(r.From, r.To)
		if err != nil {
			return err
		}
		_, err = AllGatherMatrix(context.Background(), p, mine, ranges, false)
		return err
	})
	wantBytes := int64(4 * (k - 1) * n * f / k)
	for _, p := range peers {
		s := p.Stats()
		overhead := s.MsgsSent * 8 // codec headers
		if got := s.BytesSent - overhead; got != wantBytes {
			t.Fatalf("rank %d sent %d payload bytes, paper formula %d", p.Rank(), got, wantBytes)
		}
	}

	// Ring All-Reduce volume: 2·(K−1)·N·F/K values per device.
	peers2 := memPair(t, k, netem.Unlimited)
	runSPMD(t, peers2, func(p Peer) error {
		m := tensor.NewRNG(18).Normal(n, f, 1)
		_, err := RingAllReduceSum(context.Background(), p, m)
		return err
	})
	wantReduce := int64(4 * 2 * (k - 1) * n * f / k)
	for _, p := range peers2 {
		if got := p.Stats().BytesSent; got != wantReduce {
			t.Fatalf("rank %d ring allreduce sent %d bytes, want %d", p.Rank(), got, wantReduce)
		}
	}
}

func TestChunkBounds(t *testing.T) {
	f := func(seed int64) bool {
		n := int(uint64(seed) % 1000)
		k := 1 + int(uint64(seed)>>32%16)
		b := chunkBounds(n, k)
		if len(b) != k+1 || b[0] != 0 || b[k] != n {
			return false
		}
		for i := 0; i < k; i++ {
			if b[i+1] < b[i] {
				return false
			}
			// Near-even: chunk sizes differ by at most 1.
			if d := (b[i+1] - b[i]) - n/k; d < 0 || d > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatBytesHelpers(t *testing.T) {
	v := []float32{1.5, -2.25, 3}
	b := floatsToBytes(v)
	dst := make([]float32, 3)
	copyFloatBytes(dst, b)
	for i := range v {
		if dst[i] != v[i] {
			t.Fatalf("copyFloatBytes[%d] = %v", i, dst[i])
		}
	}
	addFloatBytes(dst, b)
	for i := range v {
		if dst[i] != 2*v[i] {
			t.Fatalf("addFloatBytes[%d] = %v", i, dst[i])
		}
	}
}
