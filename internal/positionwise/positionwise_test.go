package positionwise

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"voltage/internal/comm"
	"voltage/internal/flopcount"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// paceCall is one firing of a device's Pace hook.
type paceCall struct {
	layer int
	flops int64
}

// fleet is K unpaced devices plus a terminal (rank K) on an in-memory mesh,
// every device recording what its hooks were told.
type fleet struct {
	term  comm.Peer
	ranks []int
	devs  []*Device
	paced [][]paceCall
	comms [][]int // layers whose All-Gather was reported, per device
}

func newFleet(t *testing.T, m *model.Model, k int, pool *tensor.MatrixPool) *fleet {
	t.Helper()
	mesh, err := comm.NewMemMesh(k+1, netem.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mesh[0].Close() })
	f := &fleet{term: mesh[k], ranks: make([]int, k), devs: make([]*Device, k),
		paced: make([][]paceCall, k), comms: make([][]int, k)}
	for r := range f.ranks {
		f.ranks[r] = r
	}
	for r := 0; r < k; r++ {
		group, err := comm.NewSubgroup(mesh[r], f.ranks)
		if err != nil {
			t.Fatal(err)
		}
		f.devs[r] = &Device{
			Model: m, Peer: mesh[r], Terminal: k, Group: group, Ex: comm.NewExchange(pool),
			Pace: func(_ context.Context, layer int, _ time.Time, flops int64) error {
				f.paced[r] = append(f.paced[r], paceCall{layer, flops})
				return nil
			},
			OnComm: func(layer int, _ time.Duration) { f.comms[r] = append(f.comms[r], layer) },
		}
	}
	return f
}

// each runs fn on every device at once and fails the test on any error.
func (f *fleet) each(t *testing.T, fn func(r int, d *Device) error) func() {
	t.Helper()
	errs := make([]error, len(f.devs))
	var wg sync.WaitGroup
	for r, d := range f.devs {
		f.paced[r], f.comms[r] = nil, nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(r, d)
		}()
	}
	return func() {
		t.Helper()
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("device %d: %v", r, err)
			}
		}
	}
}

// checkHooks: Pace fired once per layer, in order, with the Γ of Work (plus
// lead at layer 0); OnComm once per layer but the last.
func (f *fleet) checkHooks(t *testing.T, name string, m *model.Model, n int, ranges []partition.Range, join bool, owner int, lead int64) {
	t.Helper()
	layers := len(m.Layers)
	for r := range f.devs {
		if len(f.paced[r]) != layers || len(f.comms[r]) != layers-1 {
			t.Fatalf("%s: device %d paced %d times and reported %d gathers over %d layers", name, r, len(f.paced[r]), len(f.comms[r]), layers)
		}
		for li, layer := range m.Layers {
			_, want, err := Work(layer, li == layers-1, n, ranges[r], join, join && r == owner)
			if err != nil {
				t.Fatal(err)
			}
			if li == 0 {
				want += lead
			}
			if got := f.paced[r][li]; got != (paceCall{li, want}) {
				t.Errorf("%s: device %d layer %d paced as %+v, want Γ %d", name, r, li, got, want)
			}
			if li < layers-1 && f.comms[r][li] != li {
				t.Errorf("%s: device %d gather %d reported for layer %d", name, r, li, f.comms[r][li])
			}
		}
	}
}

func testTokens(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = (7*i + 3*n + 1) % 100
	}
	return ids
}

// naiveEverywhere reports whether every non-owner slice runs the naive
// association, so that a join's layer inputs are the solo prefill's bit for
// bit (a reordered slice is the same mathematics rounded differently).
func naiveEverywhere(cfg model.Config, ranges []partition.Range, owner int) bool {
	n := ranges[len(ranges)-1].To
	for i, r := range ranges {
		if i == owner || r.Empty() {
			continue
		}
		if flopcount.SelectOrder(flopcount.Shape{N: n, P: r.Len(), F: cfg.F, FH: cfg.FH()}) != flopcount.OrderNaive {
			return false
		}
	}
	return true
}

// TestPasses runs both passes over K ∈ {1, 2, 3}, even and weighted schemes
// (one leaving a device without rows) and a few lengths: the classify pass
// equals the layer-by-layer partition reference bit for bit, the join pass
// the solo prefill, and the hooks see every (layer, phase) once.
func TestPasses(t *testing.T) {
	cfg := model.TinyDecoder().Scaled(3)
	m, err := model.NewRandom(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, weights := range [][]float64{{1}, {1, 1}, {1, 3}, {1, 1, 1}, {4, 4, 1}, {0, 1, 1}} {
		k := len(weights)
		scheme, err := partition.Weighted(weights)
		if err != nil {
			t.Fatal(err)
		}
		pooled := newFleet(t, m, k, &tensor.MatrixPool{})
		unpooled := newFleet(t, m, k, nil)
		for _, n := range []int{1, 2, 7, 40} {
			name := fmt.Sprintf("weights %v N=%d", weights, n)
			ranges, err := scheme.Ranges(n)
			if err != nil {
				t.Fatal(err)
			}
			ids := testTokens(n)
			x, err := m.Embed.EmbedTokens(ids)
			if err != nil {
				t.Fatal(err)
			}

			// Classify, twice so the second round runs on recycled buffers.
			want := x
			for li := range m.Layers {
				parts := make([]*tensor.Matrix, k)
				for r, rg := range ranges {
					if parts[r], err = m.ForwardLayerPartition(li, want, rg); err != nil {
						t.Fatal(err)
					}
				}
				if want, err = tensor.ConcatRows(parts...); err != nil {
					t.Fatal(err)
				}
			}
			for round := 0; round < 2; round++ {
				wait := pooled.each(t, func(r int, d *Device) error {
					blob, err := d.Peer.Recv(ctx, d.Terminal)
					if err != nil {
						return err
					}
					in, _, err := tensor.DecodePooled(d.Ex.Pool(), blob)
					if err != nil {
						return err
					}
					return d.Classify(ctx, in, ranges)
				})
				if err := Scatter(ctx, pooled.term, pooled.ranks, tensor.Encode(nil, x)); err != nil {
					t.Fatal(err)
				}
				got, err := Assemble(ctx, pooled.term, nil, pooled.ranks, ranges)
				wait()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s round %d: classify pass differs from the partition reference", name, round)
				}
				pooled.checkHooks(t, name+" classify", m, n, ranges, false, -1, 0)
			}

			// Join prefill, every device taking a turn as the owner.
			wantLast, wantState, err := m.Prefill(x)
			if err != nil {
				t.Fatal(err)
			}
			for owner := 0; owner < k; owner++ {
				name := fmt.Sprintf("%s owner %d", name, owner)
				states := make([]*model.DecodeState, k)
				wait := unpooled.each(t, func(r int, d *Device) (err error) {
					states[r], err = d.Prefill(ctx, ids, ranges, r == owner)
					return err
				})
				replies := make([]*tensor.Matrix, k)
				for r := range replies {
					blob, err := unpooled.term.Recv(ctx, r)
					if err != nil {
						t.Fatal(err)
					}
					if replies[r], _, err = tensor.Decode(blob); err != nil {
						t.Fatal(err)
					}
				}
				wait()
				exact := naiveEverywhere(cfg, ranges, owner)
				same := func(what string, a, b *tensor.Matrix, exact bool) {
					t.Helper()
					d, err := a.MaxAbsDiff(b)
					if err != nil || (exact && d != 0) || d > 1e-4 {
						t.Errorf("%s: %s differs from the solo prefill's by %v (err %v, exact %v)", name, what, d, err, exact)
					}
				}
				for r, reply := range replies {
					if r != owner {
						if states[r] != nil || reply.Rows() != 0 || reply.Cols() != cfg.F {
							t.Errorf("%s: device %d answered %dx%d and state %v, want 0x%d and none", name, r, reply.Rows(), reply.Cols(), states[r] != nil, cfg.F)
						}
						continue
					}
					same("last hidden row", reply, wantLast, exact)
					st := states[r]
					if st == nil || st.Pos != n || len(st.Layers) != len(wantState.Layers) {
						t.Fatalf("%s: owner state %+v, want position %d over %d layers", name, st, n, len(wantState.Layers))
					}
					for li, ls := range st.Layers {
						for h, hs := range ls.Attn.Heads {
							ws := wantState.Layers[li].Attn.Heads[h]
							same(fmt.Sprintf("layer %d head %d K", li, h), hs.K, ws.K, exact || li == 0)
							same(fmt.Sprintf("layer %d head %d V", li, h), hs.V, ws.V, exact || li == 0)
						}
					}
				}
				unpooled.checkHooks(t, name, m, n, ranges, true, owner, flopcount.EmbedCost(n, cfg.F))
			}
		}
	}
}

// TestAssembleNamesTheRankWithTheWrongPartition: the terminal checks each
// partition against its sender's range, not only the total.
func TestAssembleNamesTheRankWithTheWrongPartition(t *testing.T) {
	mesh, err := comm.NewMemMesh(3, netem.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	defer mesh[0].Close()
	ctx := context.Background()
	ranges := []partition.Range{{From: 0, To: 2}, {From: 2, To: 5}}
	// Five rows arrive in all, but rank 0 sent three of them and rank 1 two.
	for r, rows := range []int{3, 2} {
		if err := mesh[r].Send(ctx, 2, tensor.Encode(nil, tensor.New(rows, 4))); err != nil {
			t.Fatal(err)
		}
	}
	_, err = Assemble(ctx, mesh[2], nil, []int{0, 1}, ranges)
	if r, ok := comm.RemoteRank(err); !ok || r != 0 || !strings.Contains(err.Error(), "[0,2)") {
		t.Fatalf("Assemble = %v, want an error naming rank 0 and its range [0,2)", err)
	}
	if _, err := Assemble(ctx, mesh[2], nil, []int{0, 1}, ranges[:1]); err == nil {
		t.Fatal("Assemble accepted one range for two ranks")
	}
}
