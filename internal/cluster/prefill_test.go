package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"voltage/internal/comm"
	"voltage/internal/flopcount"
	"voltage/internal/model"
	"voltage/internal/partition"
	"voltage/internal/positionwise"
	"voltage/internal/tensor"
	"voltage/internal/trace"
)

// Tests for the join prefill that does only what generation reads: token ids
// on the wire, the owner's attention K/V kept as its cache, the last layer
// reduced to the newest row.

// prefillCfg is a decoder with the benchmark model's attention shape
// (F = 128, FH = 32), where Theorem 2's test flips between the two orders
// inside the lengths tested: at K = 3 an even slice of N ≤ 85 runs reordered
// on a non-owner and naive from N = 86 on.
func prefillCfg(layers int) model.Config {
	return model.Config{
		Name: "prefill-decoder", Kind: model.KindDecoder,
		Layers: layers, F: 128, Heads: 4, FFN: 256, Act: tensor.GELU,
		VocabSize: 200, MaxSeq: 96, NumClasses: 2,
	}
}

func prefillPrompt(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = (11*i + 3*n + 5) % 200
	}
	return p
}

// drivePrefill runs one join prefill by hand — every live rank's device
// (Cluster.device, as its worker builds it) over the pass a join is, laid out
// as the terminal lays it out (the owner the last member, every rank's share
// of scheme following it), the terminal's reply collection here — and returns
// the row the terminal got back, the owner's decode state and whether every
// other slice ran the naive association (naiveEverywhere).
func drivePrefill(t *testing.T, c *Cluster, live []int, scheme *partition.Scheme, owner int, prefix []int) (*tensor.Matrix, *model.DecodeState, bool) {
	t.Helper()
	rd := &round{ranks: live, live: live}
	if live == nil {
		rd.ranks = c.allRanks()
	}
	at := slices.Index(rd.ranks, owner)
	members := memberOrder(rd.ranks, at)
	rotated, err := partition.New(memberOrder(scheme.Ratios(), at))
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := positionwise.Slice(c.models[0], rotated, len(prefix), true)
	if err != nil {
		t.Fatal(err)
	}
	read := positionwise.Read{One: true, Row: len(prefix) - 1, At: len(members) - 1, Cache: true}
	ctx := context.Background()
	states := make([]*model.DecodeState, c.k)
	errs := make([]error, c.k)
	var wg sync.WaitGroup
	for _, r := range rd.ranks {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			dev := c.device(r, nil)
			if dev.Group, errs[r] = comm.NewSubgroup(c.peers[r], members); errs[r] != nil {
				return
			}
			dev.Ex = comm.NewExchange(c.pool)
			states[r], errs[r] = dev.RunTokens(ctx, prefix, ranges, read)
		}(r)
	}
	last, seqErr, err := collect(ctx, c.peers[c.terminalRank()], c.pool, members, read.Replies(ranges))
	wg.Wait()
	if err != nil || seqErr != nil {
		t.Fatalf("collecting the join: %v / %v", err, seqErr)
	}
	for _, r := range rd.ranks {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if (states[r] != nil) != (r == owner) {
			t.Fatalf("rank %d holds a cache: %v, owner is %d", r, states[r] != nil, owner)
		}
	}
	return last, states[owner], naiveEverywhere(c.cfg, ranges)
}

// naiveEverywhere reports whether every slice but the last member's — the
// owner's, which runs the naive association by rule — selected it too, at the
// horizon the slice is computed over, so that every row of every layer input
// is the solo run's bit for bit. (A reordered slice is the same mathematics
// rounded differently.)
func naiveEverywhere(cfg model.Config, ranges []partition.Range) bool {
	for _, r := range ranges[:len(ranges)-1] {
		if r.Empty() {
			continue
		}
		if flopcount.SelectOrder(flopcount.Shape{N: r.To, P: r.Len(), F: cfg.F, FH: cfg.FH()}) != flopcount.OrderNaive {
			return false
		}
	}
	return true
}

// checkOwnerCache compares the owner's state and returned row with the solo
// prefill's: layer 0's K/V always bit-identical (its input is the embedding),
// every layer's and the row whenever exact holds, and to rounding otherwise.
func checkOwnerCache(t *testing.T, name string, ref *model.Model, prefix []int, last *tensor.Matrix, got *model.DecodeState, exact bool) {
	t.Helper()
	x, err := ref.Embed.EmbedTokens(prefix)
	if err != nil {
		t.Fatal(err)
	}
	wantLast, want, err := ref.Prefill(x)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, a, b *tensor.Matrix, exact bool) {
		d, err := a.MaxAbsDiff(b)
		if err != nil || (exact && d != 0) || d > 1e-4 {
			t.Errorf("%s: %s differs from the solo prefill's by %v (err %v, exact %v)", name, what, d, err, exact)
		}
	}
	if got.Pos != len(prefix) || len(got.Layers) != len(want.Layers) {
		t.Fatalf("%s: cache at position %d over %d layers, want %d over %d", name, got.Pos, len(got.Layers), len(prefix), len(want.Layers))
	}
	for li, ls := range got.Layers {
		for h, hs := range ls.Attn.Heads {
			ws := want.Layers[li].Attn.Heads[h]
			same(fmt.Sprintf("layer %d head %d K", li, h), hs.K, ws.K, exact || li == 0)
			same(fmt.Sprintf("layer %d head %d V", li, h), hs.V, ws.V, exact || li == 0)
		}
	}
	same("last hidden row", last, wantLast, exact)
}

// TestJoinPrefillMatchesSolo: over K × L × N — one and two positions (ranks
// with nothing to compute, owners among them), N = K and K+1, both sides of
// the Theorem-2 crossover and a full context — the streamed tokens equal
// GenerateIncremental's and the owner's per-layer cache equals the solo
// prefill's.
func TestJoinPrefillMatchesSolo(t *testing.T) {
	const steps = 3
	for _, layers := range []int{1, 2, 4} {
		cfg := prefillCfg(layers)
		ref, err := model.NewRandom(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3} {
			c, err := NewMem(cfg, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			// The joins driven by hand get a mesh no round ever ran on: its
			// workers would race them for the frames.
			byHand, err := NewMem(cfg, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(byHand.Close)
			for _, n := range []int{1, 2, k, k + 1, 85, 86, cfg.MaxSeq - 1} {
				name := fmt.Sprintf("K=%d L=%d N=%d", k, layers, n)
				prompt := prefillPrompt(n)
				want, err := ref.GenerateIncremental(prompt, steps)
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.GenerateVoltage(context.Background(), prompt, steps)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !equalTokens(res.Tokens, want) {
					t.Errorf("%s: tokens %v != solo %v", name, res.Tokens, want)
				}
				last, state, exact := drivePrefill(t, byHand, nil, c.scheme, n%k, prompt)
				checkOwnerCache(t, name, ref, prompt, last, state, exact)
			}
		}
	}
}

// TestJoinPrefillOwnerWithoutRowsAndDegradedRound: the two slicings the grid
// above does not reach — an installed scheme that gives the owner no rows at
// any length, and a degraded round re-sliced over survivors {0, 2}.
func TestJoinPrefillOwnerWithoutRowsAndDegradedRound(t *testing.T) {
	cfg := prefillCfg(2)
	ref, err := model.NewRandom(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewMem(cfg, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for _, n := range []int{5, 90} {
		prompt := prefillPrompt(n)
		starved, err := partition.Weighted([]float64{0, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		last, state, exact := drivePrefill(t, c, nil, starved, 0, prompt)
		checkOwnerCache(t, fmt.Sprintf("owner without rows, N=%d", n), ref, prompt, last, state, exact)

		live := []int{0, 2}
		resliced, err := c.rateScheme(live)
		if err != nil {
			t.Fatal(err)
		}
		last, state, exact = drivePrefill(t, c, live, resliced, 2, prompt)
		checkOwnerCache(t, fmt.Sprintf("degraded round, N=%d", n), ref, prompt, last, state, exact)
	}
}

// TestJoinPrefillTraffic: a join moves K·(header + 4N) bytes of token ids
// out in K messages, L−2 gathers and one Gather to the owner between the
// workers (rankTraffic over the ranges the frame carries, positionwise.Slice's
// with the owner the last member and the ranks after it the first: member j
// sends its rows to the K−1−j members after it at each gather), and one F-row
// plus K−1 empty partitions back — nothing else — for every owner. Two layers
// have the Gather alone, three one gather before it.
func TestJoinPrefillTraffic(t *testing.T) {
	const k, n = 3, 8
	for _, layers := range []int{2, 3} {
		cfg := model.TinyDecoder().Scaled(layers)
		c, err := NewMem(cfg, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		// An even scheme: the same shares in any member order.
		ranges, err := positionwise.Slice(c.Model(0), c.scheme, n, true)
		if err != nil {
			t.Fatal(err)
		}
		enc := func(rows int) int64 { return int64(len(tensor.Encode(nil, tensor.New(rows, cfg.F)))) }
		// Placement ties take turns, so three lone joins visit every owner.
		for owner := 0; owner < k; owner++ {
			// One token: join, produce, leave — no decode step.
			res, err := c.GenerateVoltage(context.Background(), []int{2, 4, 6, 8, 10, 12, 14, 16}, 1)
			if err != nil {
				t.Fatal(err)
			}
			const leave = 5 // opLeave is 5 bytes
			header := int64(passHeader + 8*k)
			term := res.PerDevice[k]
			if want := k*(header+4*n) + leave; term.BytesSent != want || term.MsgsSent != k+1 {
				t.Errorf("L=%d: terminal sent %d bytes in %d messages, want %d in %d (one pass frame per rank, one leave)", layers, term.BytesSent, term.MsgsSent, want, k+1)
			}
			if want := enc(1) + (k-1)*enc(0); term.BytesRecv != want || term.MsgsRecv != k {
				t.Errorf("L=%d: terminal received %d bytes in %d messages, want %d in %d (one hidden row, %d empty partitions)", layers, term.BytesRecv, term.MsgsRecv, want, k, k-1)
			}
			for j, r := range memberOrder(c.allRanks(), owner) {
				bytes, msgs := rankTraffic(cfg, ranges, j, k-1)
				if got := res.PerDevice[r]; got.BytesSent != bytes || got.MsgsSent != msgs {
					t.Errorf("L=%d owner %d: rank %d, member %d, sent %d bytes in %d messages, want %d in %d (%d gathers of its %d rows to %d members, the Gather to rank %d, its reply)",
						layers, owner, r, j, got.BytesSent, got.MsgsSent, bytes, msgs, layers-2, ranges[j].Len(), k-1-j, owner)
				}
			}
		}
	}
}

// TestJoinReportsNoComputeWhereNothingRan: a rank traces one compute span
// per layer it had rows at (or a cache to build) — a non-owner none at the
// last layer, where a 0 ms span used to drag its per-rank time down.
func TestJoinReportsNoComputeWhereNothingRan(t *testing.T) {
	const k = 3
	c := newTinyDecoder(t, k, Options{TraceRequests: true})
	layers := c.cfg.Layers
	// One token: join, produce, leave — no decode step, so every compute
	// span is the join's. The first joiner lands on rank 0.
	res, err := c.GenerateVoltage(context.Background(), []int{2, 4, 6, 8, 10, 12, 14, 16}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < k; r++ {
		want := layers - 1
		if r == 0 {
			want = layers
		}
		if got, _ := phaseSpans(res.Trace, r, trace.PhaseCompute); got != want {
			t.Errorf("rank %d reported %d compute spans over %d layers, want %d", r, got, layers, want)
		}
	}
}

// TestPrefillWorkMatchesFlopcount: what a rank is paced for at each layer of
// a join, and of a classify read at its pooled row, is the analytic Γ of
// exactly what it executes there.
func TestPrefillWorkMatchesFlopcount(t *testing.T) {
	cfg := prefillCfg(2)
	m, err := model.NewRandom(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	layer := m.Layers[0]
	const n = 60
	layerCost := func(p int, o flopcount.Order) int64 {
		cost, err := flopcount.LayerCost(flopcount.Shape{N: n, P: p, F: cfg.F, FH: cfg.FH()}, cfg.Heads, cfg.FFN, o)
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	kv := 2 * int64(cfg.Heads) * flopcount.MatMulCost(n, cfg.F, cfg.FH())
	mine := partition.Range{From: 20, To: 40}
	lastRow := partition.Range{From: n - 1, To: n}
	if flopcount.SelectOrder(flopcount.Shape{N: n, P: mine.Len(), F: cfg.F, FH: cfg.FH()}) != flopcount.OrderReordered {
		t.Fatal("the test shape should sit on the reordered side of Theorem 2")
	}
	join := positionwise.Read{One: true, Row: n - 1, Cache: true}
	pooled := positionwise.Read{One: true}
	firstRow := partition.Range{From: 0, To: 1}
	nothing := partition.Range{From: n, To: n}
	cases := []struct {
		name      string
		read      positionwise.Read
		last      bool
		mine      partition.Range
		reader    bool
		wantRange partition.Range
		wantCost  int64
	}{
		{"owner: naive order, its K/V are the cache", join, false, mine, true, mine, layerCost(mine.Len(), flopcount.OrderNaive)},
		{"owner without rows: the two projections", join, false, partition.Range{}, true, partition.Range{}, kv},
		{"non-owner: Algorithm 1's order", join, false, mine, false, mine, layerCost(mine.Len(), flopcount.OrderReordered)},
		{"non-owner without rows: nothing", join, false, partition.Range{}, false, partition.Range{}, 0},
		{"last layer, owner: cache and the newest row", join, true, mine, true, lastRow, layerCost(1, flopcount.OrderNaive)},
		{"last layer, owner without rows: the same", join, true, partition.Range{}, true, lastRow, layerCost(1, flopcount.OrderNaive)},
		{"last layer, non-owner: nothing", join, true, mine, false, nothing, 0},
		{"classify, reader: Algorithm 1's order, no cache", pooled, false, mine, true, mine, layerCost(mine.Len(), flopcount.OrderReordered)},
		{"classify, reader without rows: nothing", pooled, false, partition.Range{}, true, partition.Range{}, 0},
		{"classify, last layer, reader: the pooled row at P = 1", pooled, true, mine, true, firstRow, layerCost(1, flopcount.OrderReordered)},
		{"classify, last layer, the others: nothing", pooled, true, mine, false, nothing, 0},
		{"every row read: the slice at the last layer too", positionwise.AllRows, true, mine, false, mine, layerCost(mine.Len(), flopcount.OrderReordered)},
	}
	for _, tc := range cases {
		r, cost, err := positionwise.Work(layer, tc.last, n, tc.mine, tc.read, tc.reader)
		if err != nil || r != tc.wantRange || cost != tc.wantCost {
			t.Errorf("%s: range %v cost %d err %v, want %v and %d", tc.name, r, cost, err, tc.wantRange, tc.wantCost)
		}
	}
	// Keeping K/V never costs the owner more than the reordered partition
	// plus a separate cache build did.
	for p := 1; p <= n; p++ {
		shared, err := layer.CachedCost(n, p)
		if err != nil {
			t.Fatal(err)
		}
		selected, err := layer.Cost(n, p)
		if err != nil {
			t.Fatal(err)
		}
		if shared > selected+kv {
			t.Errorf("P=%d: shared-K/V cost %d exceeds selected order + cache build %d", p, shared, selected+kv)
		}
	}
}

// TestJoinPrefillPacedForItsWork: on a paced device a join takes at least the
// owner's budget — embedding, every layer in the naive order, one row at the
// last. (A lower bound only: a paced sleep never wakes early.)
func TestJoinPrefillPacedForItsWork(t *testing.T) {
	const n, deviceFlops = 48, 4e8
	cfg := prefillCfg(2)
	c, err := NewMem(cfg, 1, Options{DeviceFlops: deviceFlops})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	res, err := c.GenerateVoltage(context.Background(), prefillPrompt(n), 1)
	if err != nil {
		t.Fatal(err)
	}
	work := flopcount.EmbedCost(n, cfg.F)
	for _, p := range []int{n, 1} {
		cost, err := flopcount.LayerCost(flopcount.Shape{N: n, P: p, F: cfg.F, FH: cfg.FH()}, cfg.Heads, cfg.FFN, flopcount.OrderNaive)
		if err != nil {
			t.Fatal(err)
		}
		work += cost
	}
	if budget := time.Duration(float64(work) / deviceFlops * float64(time.Second)); res.PrefillLatency < budget {
		t.Errorf("prefill took %v, under the %v its %d MACs are paced for", res.PrefillLatency, budget, work)
	}
}

// sliceReference runs the pass over x slice by slice as the devices do — each
// member's rows of a layer from the rows it reads (its prefix, the model being
// causal), in Algorithm 1's selected order or, where naive[i], in the naive
// association a cache-keeping owner runs — and returns every layer's input,
// assembled, with the last layer's output after them.
func sliceReference(t *testing.T, m *model.Model, x *tensor.Matrix, ranges []partition.Range, naive func(member int) bool) []*tensor.Matrix {
	t.Helper()
	inputs := []*tensor.Matrix{x}
	for _, layer := range m.Layers {
		cur := inputs[len(inputs)-1]
		parts := make([]*tensor.Matrix, len(ranges))
		for i, r := range ranges {
			seen, err := cur.RowSlice(0, r.To)
			if err == nil && naive(i) {
				parts[i], err = layer.ForwardPartitionFixedOrder(seen, r, flopcount.OrderNaive)
			} else if err == nil {
				parts[i], _, err = layer.ForwardPartition(seen, r)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		next, err := tensor.ConcatRows(parts...)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, next)
	}
	return inputs
}

// TestCausalPassProperty: over random lengths, K ∈ {1…4} and weighted schemes
// one of whose members has no share, a causal pass is what its slices — the
// ones positionwise.Slice cuts, as the terminal does — say it is, bit for bit. The full pass returns the slice-by-slice reference's rows.
// A join — every rank taking a turn as the owner, the one without a share
// too — leaves on its owner exactly the K/V that reference's layer inputs
// project to and answers with the row its last layer gives; they are
// Model.ResumeState's bit for bit wherever every other slice selected the
// naive order, and to rounding otherwise. And a served stream's greedy
// continuation is the solo run's, whichever rank owns it.
func TestCausalPassProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	cfg := prefillCfg(3)
	ref, err := model.NewRandom(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	cases := 6
	if raceEnabled {
		cases = 2
	}
	for range cases {
		k := 1 + rng.Intn(4)
		n := 1 + rng.Intn(cfg.MaxSeq-4)
		weights := make([]float64, k)
		for i := range weights {
			weights[i] = float64(1 + rng.Intn(5))
		}
		if k > 1 {
			weights[rng.Intn(k)] = 0
		}
		scheme, err := partition.Weighted(weights)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("K=%d N=%d weights %v", k, n, weights)
		prompt := prefillPrompt(n)
		x, err := ref.Embed.EmbedTokens(prompt)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewMem(cfg, k, Options{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)

		// The full pass.
		ranges, err := positionwise.Slice(ref, scheme, n, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Infer(context.Background(), StrategyVoltage, x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := sliceReference(t, ref, x, ranges, func(int) bool { return false })
		if !res.Output.Equal(want[len(want)-1]) {
			t.Errorf("%s: the full pass differs from its slices' reference", name)
		}

		// Served streams: placement ties take turns, so K of them visit
		// every rank with a share.
		solo, err := ref.GenerateIncremental(prompt, 3)
		if err != nil {
			t.Fatal(err)
		}
		for range k {
			got, err := c.GenerateVoltage(context.Background(), prompt, 3)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !equalTokens(got.Tokens, solo) {
				t.Errorf("%s: tokens %v != solo %v", name, got.Tokens, solo)
			}
		}

		// Joins by hand, on a mesh no round ran on, for the owner's state.
		byHand, err := NewMem(cfg, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(byHand.Close)
		for owner := 0; owner < k; owner++ {
			name := fmt.Sprintf("%s owner %d", name, owner)
			last, state, exact := drivePrefill(t, byHand, nil, scheme, owner, prompt)
			checkOwnerCache(t, name, ref, prompt, last, state, exact)
			rotated, err := partition.New(memberOrder(scheme.Ratios(), owner))
			if err != nil {
				t.Fatal(err)
			}
			if ranges, err = positionwise.Slice(ref, rotated, n, true); err != nil {
				t.Fatal(err)
			}
			inputs := sliceReference(t, ref, x, ranges, func(member int) bool { return member == k-1 })
			for li, layer := range ref.Layers {
				rows := partition.Range{From: n, To: n}
				if li == len(ref.Layers)-1 {
					rows.From = n - 1
				}
				row, ls, err := layer.ForwardPartitionCached(inputs[li], rows)
				if err != nil {
					t.Fatal(err)
				}
				for h, hs := range state.Layers[li].Attn.Heads {
					if ws := ls.Attn.Heads[h]; !hs.K.Equal(ws.K) || !hs.V.Equal(ws.V) {
						t.Errorf("%s: layer %d head %d K/V differ from the projection of the slices' reference", name, li, h)
					}
				}
				if !rows.Empty() && !last.Equal(row) {
					t.Errorf("%s: the row answered differs from the last layer over the slices' reference", name)
				}
			}
		}
	}
}
