package comm

import (
	"context"
	"fmt"
	"testing"

	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/quantize"
	"voltage/internal/tensor"
)

// TestAllGatherMatrixQAssembles: whoever reads the gather, a reader ends with
// the quantization round trip of every partition it reads — every row under
// Everyone, its prefix under Successors, every row at the root of Only and
// nothing at the others.
func TestAllGatherMatrixQAssembles(t *testing.T) {
	for name, readers := range map[string]Readers{"everyone": Everyone, "successors": Successors, "only": Only(1)} {
		t.Run(name, func(t *testing.T) {
			peers := memPair(t, 3, netem.Unlimited)
			full := tensor.NewRNG(21).Normal(12, 8, 1)
			scheme, _ := partition.Even(3)
			ranges, _ := scheme.Ranges(12)
			// Reference: what a reader of every row should see — the
			// quantization round trip of each partition.
			want := tensor.New(12, 8)
			for _, r := range ranges {
				part, _ := full.RowSlice(r.From, r.To)
				if err := want.SetRowSlice(r.From, quantize.Roundtrip(part)); err != nil {
					t.Fatal(err)
				}
			}
			runSPMD(t, peers, func(p Peer) error {
				r := ranges[p.Rank()]
				mine, err := full.RowSlice(r.From, r.To)
				if err != nil {
					return err
				}
				got, err := GatherToQ(context.Background(), p, readers, mine, ranges)
				if err != nil {
					return err
				}
				if !readers.Reads(p.Rank(), p.Rank()) {
					if got != nil {
						return fmt.Errorf("rank %d reads nothing and got %dx%d", p.Rank(), got.Rows(), got.Cols())
					}
					return nil
				}
				rows := 12
				if readers == Successors {
					rows = r.To
				}
				wantRows, err := want.RowSlice(0, rows)
				if err != nil {
					return err
				}
				if !got.Equal(wantRows) {
					return fmt.Errorf("rank %d: quantized assembly differs from reference", p.Rank())
				}
				fullRows, _ := full.RowSlice(0, rows)
				d, err := got.MaxAbsDiff(fullRows)
				if err != nil {
					return err
				}
				if d > quantize.MaxError(full)+1e-6 {
					return fmt.Errorf("rank %d: deviation %v beyond bound", p.Rank(), d)
				}
				return nil
			})
		})
	}
}

func TestAllGatherMatrixQConsistentAcrossRanks(t *testing.T) {
	// The critical consistency property: every rank must assemble the
	// SAME matrix (including the quantized view of its own partition), or
	// the devices' layer inputs would drift apart.
	peers := memPair(t, 2, netem.Unlimited)
	full := tensor.NewRNG(22).Normal(6, 4, 1)
	scheme, _ := partition.Even(2)
	ranges, _ := scheme.Ranges(6)
	results := make([]*tensor.Matrix, 2)
	runSPMD(t, peers, func(p Peer) error {
		mine, err := full.RowSlice(ranges[p.Rank()].From, ranges[p.Rank()].To)
		if err != nil {
			return err
		}
		got, err := GatherToQ(context.Background(), p, Everyone, mine, ranges)
		if err != nil {
			return err
		}
		results[p.Rank()] = got
		return nil
	})
	if !results[0].Equal(results[1]) {
		t.Fatal("ranks assembled different matrices")
	}
}

func TestAllGatherMatrixQValidation(t *testing.T) {
	peers := memPair(t, 2, netem.Unlimited)
	m := tensor.New(3, 2)
	if _, err := GatherToQ(context.Background(), peers[0], Everyone, m, []partition.Range{{From: 0, To: 3}}); err == nil {
		t.Fatal("want error for range count mismatch")
	}
	ranges := []partition.Range{{From: 0, To: 5}, {From: 5, To: 10}}
	if _, err := GatherToQ(context.Background(), peers[0], Everyone, m, ranges); err == nil {
		t.Fatal("want error for row mismatch")
	}
}

func TestAllGatherMatrixQTrafficQuarter(t *testing.T) {
	k, n, f := 4, 64, 128
	peers := memPair(t, k, netem.Unlimited)
	full := tensor.NewRNG(23).Normal(n, f, 1)
	scheme, _ := partition.Even(k)
	ranges, _ := scheme.Ranges(n)
	runSPMD(t, peers, func(p Peer) error {
		mine, err := full.RowSlice(ranges[p.Rank()].From, ranges[p.Rank()].To)
		if err != nil {
			return err
		}
		_, err = GatherToQ(context.Background(), p, Everyone, mine, ranges)
		return err
	})
	floatBytes := int64((k - 1) * tensor.EncodedSize(n/k, f))
	for _, p := range peers {
		sent := p.Stats().BytesSent
		ratio := float64(floatBytes) / float64(sent)
		if ratio < 3.5 || ratio > 4.2 {
			t.Fatalf("rank %d traffic reduction %.2f, want ≈4", p.Rank(), ratio)
		}
	}
}

func TestSubgroupClose(t *testing.T) {
	peers := memPair(t, 2, netem.Unlimited)
	s, err := NewSubgroup(peers[0], []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := peers[1].Recv(context.Background(), 0); err != ErrClosed {
		t.Fatalf("base mesh not closed through subgroup: %v", err)
	}
}
