package positionwise

import (
	"context"
	"fmt"
	"math"
	"math/rand"
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
// every device recording what its hooks were told. members is the order the
// devices' mesh ranks are members of the group in; ranges, devs and the hook
// records are indexed by member.
type fleet struct {
	term    comm.Peer
	members []int
	devs    []*Device
	paced   [][]paceCall
	comms   [][]int // layers whose gather was reported, per member
}

func newFleet(t *testing.T, m *model.Model, members []int, pool *tensor.MatrixPool) *fleet {
	t.Helper()
	k := len(members)
	mesh, err := comm.NewMemMesh(k+1, netem.Profile{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mesh[0].Close() })
	f := &fleet{term: mesh[k], members: members, devs: make([]*Device, k),
		paced: make([][]paceCall, k), comms: make([][]int, k)}
	for i, r := range members {
		group, err := comm.NewSubgroup(mesh[r], members)
		if err != nil {
			t.Fatal(err)
		}
		f.devs[i] = &Device{
			Model: m, Peer: mesh[r], Terminal: k, Group: group, Ex: comm.NewExchange(pool),
			Pace: func(_ context.Context, layer int, _ time.Time, flops int64) error {
				f.paced[i] = append(f.paced[i], paceCall{layer, flops})
				return nil
			},
			OnComm: func(layer int, _ time.Duration) { f.comms[i] = append(f.comms[i], layer) },
		}
	}
	return f
}

// inOrder is the members 0…k−1 in rank order.
func inOrder(k int) []int {
	members := make([]int, k)
	for r := range members {
		members[r] = r
	}
	return members
}

// each runs fn on every device at once and fails the test on any error.
func (f *fleet) each(t *testing.T, fn func(i int, d *Device) error) func() {
	t.Helper()
	errs := make([]error, len(f.devs))
	var wg sync.WaitGroup
	for i, d := range f.devs {
		f.paced[i], f.comms[i] = nil, nil
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, d)
		}()
	}
	return func() {
		t.Helper()
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("member %d: %v", i, err)
			}
		}
	}
}

// horizon is how many of a pass's n positions the member whose slice is mine
// reads: on a causal model the prefix its rows attend to.
func horizon(m *model.Model, n int, mine partition.Range) int {
	if m.Causal() {
		return mine.To
	}
	return n
}

// checkHooks: Pace fired for exactly the layers Work gives this device
// something to do at over the rows it reads (the embedding of those rows, when
// the input was token ids, counts as layer 0's), in order and with that Γ;
// OnComm for exactly the synchronisations it took — every one but, for a
// device that is not the reader of a one-row pass, none after the Gather that
// feeds the last layer.
func (f *fleet) checkHooks(t *testing.T, name string, m *model.Model, n int, ranges []partition.Range, read Read, tokens bool) {
	t.Helper()
	layers := len(m.Layers)
	for i := range f.devs {
		seen := horizon(m, n, ranges[i])
		var wantPaced []paceCall
		for li, layer := range m.Layers {
			_, want, err := Work(layer, li == layers-1, seen, ranges[i], read, read.One && i == read.At)
			if err != nil {
				t.Fatal(err)
			}
			if li == 0 && tokens {
				want += flopcount.EmbedCost(seen, m.Cfg.F)
			}
			if want > 0 {
				wantPaced = append(wantPaced, paceCall{li, want})
			}
		}
		if fmt.Sprint(f.paced[i]) != fmt.Sprint(wantPaced) {
			t.Errorf("%s: member %d paced as %+v, want %+v", name, i, f.paced[i], wantPaced)
		}
		if len(f.comms[i]) != layers-1 {
			t.Fatalf("%s: member %d reported %d synchronisations over %d layers", name, i, len(f.comms[i]), layers)
		}
		for li, got := range f.comms[i] {
			if got != li {
				t.Errorf("%s: member %d synchronisation %d reported for layer %d", name, i, li, got)
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
// and the reader's P = 1 last row unless it keeps a cache, each over the rows
// its device reads — selects the naive association, so that the pass is the
// solo forward bit for bit (a reordered slice is the same mathematics rounded
// differently; a causal slice computed over its prefix alone is the same
// mathematics rounded the same, the masked terms it leaves out being exact
// zeros).
func naiveEverywhere(m *model.Model, ranges []partition.Range, read Read) bool {
	n := ranges[len(ranges)-1].To
	naive := func(seen, p int) bool {
		return flopcount.SelectOrder(flopcount.Shape{N: seen, P: p, F: m.Cfg.F, FH: m.Cfg.FH()}) == flopcount.OrderNaive
	}
	if !read.Cache && !naive(horizon(m, n, ranges[read.At]), 1) {
		return false
	}
	for i, r := range ranges {
		if (read.Cache && i == read.At) || r.Empty() {
			continue
		}
		if !naive(horizon(m, n, r), r.Len()) {
			return false
		}
	}
	return true
}

// collect receives one reply from every member of f, as Assemble does but
// keeping them apart.
func (f *fleet) collect(t *testing.T) []*tensor.Matrix {
	t.Helper()
	replies := make([]*tensor.Matrix, len(f.devs))
	for i, r := range f.members {
		blob, err := f.term.Recv(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if replies[i], _, err = tensor.Decode(blob); err != nil {
			t.Fatal(err)
		}
	}
	return replies
}

// ownerLast is s rotated so that s[owner] comes last: the member order of a
// join, and its members' weights.
func ownerLast[T any](s []T, owner int) []T {
	return append(append([]T{}, s[owner+1:]...), s[:owner+1]...)
}

// TestPasses runs the three passes on a decoder and an encoder over
// K ∈ {1, 2, 3}, even and weighted schemes (one leaving a device without rows)
// and a few lengths. The full pass equals the layer-by-layer partition
// reference bit for bit, each slice computed from the rows its device reads —
// every row on the encoder, the prefix x[:To] on the decoder. The
// classify-by-ids pass — on the encoder reading each of the first, a middle
// and the last row, on the decoder the last, the one row a member that sees
// them all can hold — and the join, every device taking a turn as the owner,
// the last member, equal the solo forward (bit for bit where naiveEverywhere,
// to 1e-4 otherwise) and answer the terminal with that one row from the reader
// and 0×F from the rest. And the hooks see exactly the work done and the
// synchronisations taken.
func TestPasses(t *testing.T) {
	for _, cfg := range []model.Config{model.TinyDecoder().Scaled(3), model.Tiny().Scaled(3)} {
		m, err := model.NewRandom(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, weights := range [][]float64{{1}, {1, 1}, {1, 3}, {1, 1, 1}, {4, 4, 1}, {0, 1, 1}} {
			testPasses(t, m, weights)
		}
	}
}

func testPasses(t *testing.T, m *model.Model, weights []float64) {
	ctx := context.Background()
	cfg, k := m.Cfg, len(weights)
	scheme, err := partition.Weighted(weights)
	if err != nil {
		t.Fatal(err)
	}
	pooled := newFleet(t, m, inOrder(k), &tensor.MatrixPool{})
	// The joins' fleets: owner the last member, its weight with it.
	joins := make([]*fleet, k)
	joinSchemes := make([]*partition.Scheme, k)
	for owner := range joins {
		joins[owner] = newFleet(t, m, ownerLast(inOrder(k), owner), nil)
		if joinSchemes[owner], err = partition.Weighted(ownerLast(weights, owner)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{1, 2, 7, 40} {
		name := fmt.Sprintf("%s weights %v N=%d", cfg.Name, weights, n)
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
			for i, rg := range ranges {
				seen, err := want.RowSlice(0, horizon(m, n, rg))
				if err != nil {
					t.Fatal(err)
				}
				if parts[i], err = m.ForwardLayerPartition(li, seen, rg); err != nil {
					t.Fatal(err)
				}
			}
			if want, err = tensor.ConcatRows(parts...); err != nil {
				t.Fatal(err)
			}
		}
		for round := 0; round < 2; round++ {
			wait := pooled.each(t, func(_ int, d *Device) error {
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
			if err := Scatter(ctx, pooled.term, pooled.members, tensor.Encode(nil, x)); err != nil {
				t.Fatal(err)
			}
			got, err := Assemble(ctx, pooled.term, nil, pooled.members, ranges)
			wait()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s round %d: classify pass differs from the partition reference", name, round)
			}
			pooled.checkHooks(t, name+" classify", m, n, ranges, AllRows, false)
		}

		wantRows, err := m.ForwardFeatures(x)
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
		// oneRow runs the pass over ranges read as read on fleet f from a
		// scattered token frame and checks the replies and the hooks; it
		// returns the members' states.
		oneRow := func(name string, f *fleet, ranges []partition.Range, read Read, wantRow *tensor.Matrix) []*model.DecodeState {
			t.Helper()
			states := make([]*model.DecodeState, k)
			wait := f.each(t, func(i int, d *Device) error {
				blob, err := d.Peer.Recv(ctx, d.Terminal)
				if err != nil {
					return err
				}
				got, err := ParseTokens(blob, len(blob)/4, d.Model.Embed)
				if err != nil {
					return err
				}
				states[i], err = d.RunTokens(ctx, got, ranges, read)
				return err
			})
			if err := Scatter(ctx, f.term, f.members, TokenFrame(ids)); err != nil {
				t.Fatal(err)
			}
			replies := f.collect(t)
			wait()
			for i, reply := range replies {
				if i != read.At {
					if states[i] != nil || reply.Rows() != 0 || reply.Cols() != cfg.F {
						t.Errorf("%s: member %d answered %dx%d and state %v, want 0x%d and none", name, i, reply.Rows(), reply.Cols(), states[i] != nil, cfg.F)
					}
					continue
				}
				same(name, "the row read", reply, wantRow, naiveEverywhere(m, ranges, read))
			}
			f.checkHooks(t, name, m, n, ranges, read, true)
			return states
		}

		// Classify by ids: the pooled row of a decoder and, where any member
		// can be the reader, of an encoder and one in between, each at the
		// device whose slice holds it.
		rows := []int{n - 1}
		if !m.Causal() {
			rows = []int{0, n / 2, n - 1}
		}
		for _, row := range rows {
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
				for i, st := range oneRow(name, pooled, ranges, read, wantRow) {
					if st != nil {
						t.Errorf("%s: member %d kept a cache nobody asked for", name, i)
					}
				}
			}
		}

		// Join prefill, every device taking a turn as the owner.
		if !m.Causal() {
			continue
		}
		wantLast, wantState, err := m.Prefill(x)
		if err != nil {
			t.Fatal(err)
		}
		for owner := 0; owner < k; owner++ {
			name := fmt.Sprintf("%s owner %d", name, owner)
			ranges, err := joinSchemes[owner].Ranges(n)
			if err != nil {
				t.Fatal(err)
			}
			read := Read{One: true, Row: n - 1, At: k - 1, Cache: true}
			st := oneRow(name, joins[owner], ranges, read, wantLast)[k-1]
			if st == nil || st.Pos != n || len(st.Layers) != len(wantState.Layers) {
				t.Fatalf("%s: owner state %+v, want position %d over %d layers", name, st, n, len(wantState.Layers))
			}
			exact := naiveEverywhere(m, ranges, read)
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

// TestRunRefusesAReadNobodyCanAnswer: a row outside the input, a reader
// outside the group, a row or cache named without One (which would run the
// full pass in silence), a slice that runs past the input or — on a causal
// model — a reader whose slice stops short of the last row (it would never be
// sent the rest) is an error before any layer runs, not a hang.
func TestRunRefusesAReadNobodyCanAnswer(t *testing.T) {
	m, err := model.NewRandom(model.TinyDecoder(), 1)
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, m, inOrder(1), nil)
	ranges := []partition.Range{{From: 0, To: 4}}
	for _, read := range []Read{{One: true, Row: 4}, {One: true, At: 1}, OneRow(ranges, 9), {Row: 3}, {Cache: true}} {
		if _, err := f.devs[0].RunTokens(context.Background(), testTokens(4), ranges, read); err == nil {
			t.Errorf("read %+v was accepted for 4 positions on one device", read)
		}
	}
	if _, err := f.devs[0].RunTokens(context.Background(), testTokens(3), ranges, AllRows); err == nil {
		t.Error("a slice of four rows was accepted for 3 positions")
	}
	two := newFleet(t, m, inOrder(2), nil)
	halves := []partition.Range{{From: 0, To: 2}, {From: 2, To: 4}}
	for i, d := range two.devs {
		if _, err := d.RunTokens(context.Background(), testTokens(4), halves, OneRow(halves, 1)); err == nil {
			t.Errorf("member %d of a causal pass accepted a reader that sees rows %v of 4", i, halves[0])
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

// TestSlice: on a causal model Slice's cut is contiguous from row 0, covers
// the n positions, leaves a member with no share empty, and its largest
// per-layer Γ ÷ share — each member priced by Work at its horizon, a join's
// owner as the cache-keeping reader — is the smallest any contiguous cut
// reaches, found by brute force over N ≤ 24 and K ≤ 4, even and weighted
// schemes, with and without a cache-keeping last member; Theorem 2's order
// flips inside those lengths on the wider decoder. On an encoder it is
// scheme.Ranges(n), whatever the scheme.
func TestSlice(t *testing.T) {
	wide := model.TinyDecoder().Scaled(1)
	wide.F, wide.FFN = 128, 256
	rng := rand.New(rand.NewSource(28))
	for _, cfg := range []model.Config{model.TinyDecoder().Scaled(1), wide, model.Tiny().Scaled(1)} {
		m, err := model.NewRandom(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= 4; k++ {
			for trial := range 4 {
				weights := make([]float64, k)
				for i := range weights {
					weights[i] = 1
					if trial > 0 {
						weights[i] = float64(1 + rng.Intn(4))
					}
				}
				if trial == 3 && k > 1 {
					weights[rng.Intn(k)] = 0
				}
				scheme, err := partition.Weighted(weights)
				if err != nil {
					t.Fatal(err)
				}
				for n := 1; n <= 24; n++ {
					for _, cache := range []bool{false, true} {
						checkSlice(t, m, scheme, n, cache)
					}
				}
			}
		}
	}
}

func checkSlice(t *testing.T, m *model.Model, scheme *partition.Scheme, n int, cache bool) {
	t.Helper()
	name := fmt.Sprintf("%s N=%d shares %.3v cache %v", m.Cfg.Name, n, scheme.Ratios(), cache)
	got, err := Slice(m, scheme, n, cache)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !m.Causal() {
		if want, _ := scheme.Ranges(n); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: an encoder's pass cut as %v, want scheme.Ranges %v", name, got, want)
		}
		return
	}
	shares := scheme.Ratios()
	at := 0
	for j, r := range got {
		if r.From != at || r.To < r.From {
			t.Fatalf("%s: %v is not contiguous from row 0", name, got)
		}
		if shares[j] == 0 && !r.Empty() {
			t.Errorf("%s: member %d has no share, yet rows %v", name, j, r)
		}
		at = r.To
	}
	if at != n {
		t.Fatalf("%s: %v does not cover %d positions", name, got, n)
	}
	// worst is the largest Γ ÷ share of a cut, as the devices are paced.
	k := len(shares)
	worst := func(ranges []partition.Range) float64 {
		w := 0.0
		for j, r := range ranges {
			reader := cache && j == k-1
			read := AllRows
			if reader {
				read = Read{One: true, Row: n - 1, At: k - 1, Cache: true}
			}
			_, g, err := Work(m.Layers[0], false, r.To, r, read, reader)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case shares[j] > 0:
				w = max(w, float64(g)/shares[j])
			case !r.Empty():
				w = math.Inf(1)
			}
		}
		return w
	}
	best := math.Inf(1)
	cut := make([]partition.Range, k)
	var search func(j, from int)
	search = func(j, from int) {
		if j == k-1 {
			cut[j] = partition.Range{From: from, To: n}
			best = min(best, worst(cut))
			return
		}
		for to := from; to <= n; to++ {
			cut[j] = partition.Range{From: from, To: to}
			search(j+1, to)
		}
	}
	search(0, 0)
	if w := worst(got); w != best {
		t.Errorf("%s: cut %v has a largest Γ ÷ share of %v, the best contiguous cut %v", name, got, w, best)
	}
}
