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

// checkHooks: Pace fired for exactly the layers Work gives this device
// something to do at (the embedding, lead, counts as layer 0's), in order and
// with that Γ; OnComm for exactly the synchronisations it took — every one
// but, for a device that is not the reader of a one-row pass, none after the
// Gather that feeds the last layer.
func (f *fleet) checkHooks(t *testing.T, name string, m *model.Model, n int, ranges []partition.Range, read Read, lead int64) {
	t.Helper()
	layers := len(m.Layers)
	for r := range f.devs {
		var wantPaced []paceCall
		for li, layer := range m.Layers {
			_, want, err := Work(layer, li == layers-1, n, ranges[r], read, read.One && r == read.At)
			if err != nil {
				t.Fatal(err)
			}
			if li == 0 {
				want += lead
			}
			if want > 0 {
				wantPaced = append(wantPaced, paceCall{li, want})
			}
		}
		if fmt.Sprint(f.paced[r]) != fmt.Sprint(wantPaced) {
			t.Errorf("%s: device %d paced as %+v, want %+v", name, r, f.paced[r], wantPaced)
		}
		if len(f.comms[r]) != layers-1 {
			t.Fatalf("%s: device %d reported %d synchronisations over %d layers", name, r, len(f.comms[r]), layers)
		}
		for li, got := range f.comms[r] {
			if got != li {
				t.Errorf("%s: device %d synchronisation %d reported for layer %d", name, r, li, got)
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

// naiveEverywhere reports whether everything a one-row pass computes in
// Algorithm 1's selected order — every slice but a cache-keeping reader's,
// and the reader's P = 1 last row unless it keeps a cache — selects the naive
// association, so that the pass is the solo forward bit for bit (a reordered
// slice is the same mathematics rounded differently).
func naiveEverywhere(cfg model.Config, ranges []partition.Range, read Read) bool {
	n := ranges[len(ranges)-1].To
	naive := func(p int) bool {
		return flopcount.SelectOrder(flopcount.Shape{N: n, P: p, F: cfg.F, FH: cfg.FH()}) == flopcount.OrderNaive
	}
	if !read.Cache && !naive(1) {
		return false
	}
	for i, r := range ranges {
		if (read.Cache && i == read.At) || r.Empty() {
			continue
		}
		if !naive(r.Len()) {
			return false
		}
	}
	return true
}

// collect receives one reply from every device of f, as Assemble does but
// keeping them apart.
func (f *fleet) collect(t *testing.T) []*tensor.Matrix {
	t.Helper()
	replies := make([]*tensor.Matrix, len(f.devs))
	for r := range replies {
		blob, err := f.term.Recv(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if replies[r], _, err = tensor.Decode(blob); err != nil {
			t.Fatal(err)
		}
	}
	return replies
}

// TestPasses runs the three passes over K ∈ {1, 2, 3}, even and weighted
// schemes (one leaving a device without rows) and a few lengths: the full pass
// equals the layer-by-layer partition reference bit for bit; the
// classify-by-ids pass, reading each of the first, a middle and the last row,
// and the join, every device taking a turn as the owner, equal the solo
// forward (bit for bit where naiveEverywhere, to 1e-4 otherwise) and answer
// the terminal with that one row from the reader and 0×F from the rest; and
// the hooks see exactly the work done and the synchronisations taken.
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

			// The full pass, twice so the second round runs on recycled buffers.
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
				pooled.checkHooks(t, name+" classify", m, n, ranges, AllRows, 0)
			}

			wantRows, err := m.ForwardFeatures(x)
			if err != nil {
				t.Fatal(err)
			}
			wantLast, wantState, err := m.Prefill(x)
			if err != nil {
				t.Fatal(err)
			}
			same := func(name, what string, a, b *tensor.Matrix, exact bool) {
				t.Helper()
				d, err := a.MaxAbsDiff(b)
				if err != nil || (exact && d != 0) || d > 1e-4 {
					t.Errorf("%s: %s differs from the solo forward's by %v (err %v, exact %v)", name, what, d, err, exact)
				}
			}
			// oneRow runs the pass read as read on fleet f from a scattered
			// token frame and checks the replies and the hooks; it returns
			// the devices' states.
			oneRow := func(name string, f *fleet, read Read, wantRow *tensor.Matrix) []*model.DecodeState {
				t.Helper()
				states := make([]*model.DecodeState, k)
				wait := f.each(t, func(r int, d *Device) error {
					blob, err := d.Peer.Recv(ctx, d.Terminal)
					if err != nil {
						return err
					}
					got, err := ParseTokens(blob, len(blob)/4, d.Model.Embed)
					if err != nil {
						return err
					}
					states[r], err = d.RunTokens(ctx, got, ranges, read)
					return err
				})
				if err := Scatter(ctx, f.term, f.ranks, TokenFrame(ids)); err != nil {
					t.Fatal(err)
				}
				replies := f.collect(t)
				wait()
				for r, reply := range replies {
					if r != read.At {
						if states[r] != nil || reply.Rows() != 0 || reply.Cols() != cfg.F {
							t.Errorf("%s: device %d answered %dx%d and state %v, want 0x%d and none", name, r, reply.Rows(), reply.Cols(), states[r] != nil, cfg.F)
						}
						continue
					}
					same(name, "the row read", reply, wantRow, naiveEverywhere(cfg, ranges, read))
				}
				f.checkHooks(t, name, m, n, ranges, read, flopcount.EmbedCost(n, cfg.F))
				return states
			}

			// Classify by ids: the pooled row of an encoder, of a decoder, and
			// one in between, each at the device whose slice holds it.
			for _, row := range []int{0, n / 2, n - 1} {
				name := fmt.Sprintf("%s row %d", name, row)
				read := OneRow(ranges, row)
				if rg := ranges[read.At]; row < rg.From || row >= rg.To {
					t.Fatalf("%s: OneRow reads it at device %d, whose rows are %v", name, read.At, ranges[read.At])
				}
				wantRow, err := wantRows.RowSlice(row, row+1)
				if err != nil {
					t.Fatal(err)
				}
				for round := 0; round < 2; round++ {
					for r, st := range oneRow(name, pooled, read, wantRow) {
						if st != nil {
							t.Errorf("%s: device %d kept a cache nobody asked for", name, r)
						}
					}
				}
			}

			// Join prefill, every device taking a turn as the owner.
			for owner := 0; owner < k; owner++ {
				name := fmt.Sprintf("%s owner %d", name, owner)
				read := Read{One: true, Row: n - 1, At: owner, Cache: true}
				st := oneRow(name, unpooled, read, wantLast)[owner]
				if st == nil || st.Pos != n || len(st.Layers) != len(wantState.Layers) {
					t.Fatalf("%s: owner state %+v, want position %d over %d layers", name, st, n, len(wantState.Layers))
				}
				exact := naiveEverywhere(cfg, ranges, read)
				for li, ls := range st.Layers {
					for h, hs := range ls.Attn.Heads {
						ws := wantState.Layers[li].Attn.Heads[h]
						same(name, fmt.Sprintf("layer %d head %d K", li, h), hs.K, ws.K, exact || li == 0)
						same(name, fmt.Sprintf("layer %d head %d V", li, h), hs.V, ws.V, exact || li == 0)
					}
				}
			}
		}
	}
}

// TestRunRefusesAReadNobodyCanAnswer: a row outside the input, a reader
// outside the group, or a row or cache named without One (which would run the
// full pass in silence) is an error before any layer runs, not a hang.
func TestRunRefusesAReadNobodyCanAnswer(t *testing.T) {
	m, err := model.NewRandom(model.TinyDecoder(), 1)
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, m, 1, nil)
	ranges := []partition.Range{{From: 0, To: 4}}
	for _, read := range []Read{{One: true, Row: 4}, {One: true, At: 1}, OneRow(ranges, 9), {Row: 3}, {Cache: true}} {
		if _, err := f.devs[0].RunTokens(context.Background(), testTokens(4), ranges, read); err == nil {
			t.Errorf("read %+v was accepted for 4 positions on one device", read)
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
