package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"voltage/internal/adapt"
	"voltage/internal/comm"
	"voltage/internal/flopcount"
	"voltage/internal/model"
	"voltage/internal/partition"
	"voltage/internal/positionwise"
	"voltage/internal/tensor"
)

// Tests for the classify that does only what classification reads: token ids
// on the wire, the last layer reduced to the pooled row on the one rank whose
// slice holds it, and a Gather to that rank in place of the last All-Gather.

// classifyCfg is prefillCfg's shape as a decoder (pooled row N−1) or an
// encoder (pooled row 0), three layers deep so a pass has one All-Gather and
// the Gather.
func classifyCfg(kind model.Kind) model.Config {
	cfg := prefillCfg(3)
	cfg.Name, cfg.Kind = "classify-"+kind.String(), kind
	return cfg
}

// wireCfg is the smallest shape whose pass has one All-Gather and the Gather,
// for tests of the pass's messages — bytes, faults, races — rather than its
// arithmetic.
func wireCfg(kind model.Kind) model.Config {
	cfg := model.Tiny().Scaled(3)
	cfg.Name, cfg.Kind = "wire-"+kind.String(), kind
	return cfg
}

// promptIn is prefillPrompt inside cfg's vocabulary.
func promptIn(cfg model.Config, n int) []int {
	p := prefillPrompt(n)
	for i := range p {
		p[i] %= cfg.VocabSize
	}
	return p
}

// classifyTokens runs one token classify and post-processes it as core does.
func classifyTokens(t *testing.T, c *Cluster, ids []int) (*Result, []float32) {
	t.Helper()
	pend, err := c.SubmitTokens(context.Background(), StrategyVoltage, ids)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pend.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Rows() != 1 || res.Output.Cols() != c.cfg.F {
		t.Fatalf("a token classify returned %dx%d, want the pooled row 1x%d", res.Output.Rows(), res.Output.Cols(), c.cfg.F)
	}
	logits, err := c.Model(0).Classifier.Logits(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	return res, logits
}

// soloLogits is the single-device reference: embed, the whole stack, the
// classifier over all N rows.
func soloLogits(t *testing.T, m *model.Model, ids []int) (*tensor.Matrix, []float32) {
	t.Helper()
	x, err := m.Embed.EmbedTokens(ids)
	if err != nil {
		t.Fatal(err)
	}
	hidden, err := m.ForwardFeatures(x)
	if err != nil {
		t.Fatal(err)
	}
	logits, err := m.Classifier.Logits(hidden)
	if err != nil {
		t.Fatal(err)
	}
	return hidden, logits
}

// TestClassifyTokensMatchesSolo: over K × scheme (even, weighted, one rank
// without rows) × N × {decoder, encoder}, the logits are within
// 1e-4·(1+|ref|) of the solo forward's and the class is the same. The pooled
// row is bit-identical to the solo forward's wherever the pass and the solo
// run do the same arithmetic: every non-empty slice selects the naive order
// under Theorem 2 at (N, P) — at (To, P) on the decoder, whose slices are
// computed over their prefix — and so does the reader's last row at (N, 1) —
// which at this shape it does only at N = 1; a reordered product is the same
// mathematics rounded differently. (Under the race detector the whole grid runs
// at wireCfg's shape: what is raced is the pass's goroutines and frames, which
// are the same at any F, and the arithmetic at the benchmark's shape costs ten
// times as much there for nothing the plain run does not check.)
func TestClassifyTokensMatchesSolo(t *testing.T) {
	for _, kind := range []model.Kind{model.KindDecoder, model.KindEncoder} {
		cfg := classifyCfg(kind)
		if raceEnabled {
			cfg = wireCfg(kind)
		}
		ref, err := model.NewRandom(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		naive := func(n, p int) bool {
			return flopcount.SelectOrder(flopcount.Shape{N: n, P: p, F: cfg.F, FH: cfg.FH()}) == flopcount.OrderNaive
		}
		type reference struct {
			hidden *tensor.Matrix
			logits []float32
		}
		solo := map[int]reference{} // by N: the same for every K and scheme
		exactRuns := 0
		for _, k := range []int{1, 2, 3, 5} {
			weighted, starved := make([]float64, k), make([]float64, k)
			for i := range weighted {
				weighted[i], starved[i] = float64(1+(2*i)%3), 1
			}
			starved[0] = 0
			schemes := map[string][]float64{"even": nil, "weighted": weighted}
			if k > 1 {
				schemes["rank 0 without rows"] = starved
			}
			// One cluster per K, re-sliced between schemes as an operator
			// would: a request pins the scheme installed when it is admitted.
			c, err := NewMem(cfg, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			for sname, weights := range schemes {
				scheme, err := partition.Even(k)
				if weights != nil {
					scheme, err = partition.Weighted(weights)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := c.InstallScheme(scheme, adapt.CauseManual, 0); err != nil {
					t.Fatal(err)
				}
				for _, n := range []int{1, 2, k - 1, k, 17, cfg.MaxSeq} {
					if n < 1 {
						continue
					}
					name := fmt.Sprintf("%s K=%d %s N=%d", kind, k, sname, n)
					ids := promptIn(cfg, n)
					if _, ok := solo[n]; !ok {
						hidden, logits := soloLogits(t, ref, ids)
						solo[n] = reference{hidden, logits}
					}
					hidden, want := solo[n].hidden, solo[n].logits
					res, got := classifyTokens(t, c, ids)
					for i := range want {
						if d := math.Abs(float64(got[i] - want[i])); d > 1e-4*(1+math.Abs(float64(want[i]))) {
							t.Errorf("%s: logit %d is %g, solo %g", name, i, got[i], want[i])
						}
					}
					if model.Argmax(got) != model.Argmax(want) {
						t.Errorf("%s: class %d, solo %d", name, model.Argmax(got), model.Argmax(want))
					}
					ranges, err := c.currentScheme().Ranges(n)
					if err != nil {
						t.Fatal(err)
					}
					exact := naive(n, 1)
					for _, r := range ranges {
						seen := n
						if kind == model.KindDecoder {
							seen = r.To // a causal slice is computed over its prefix
						}
						exact = exact && (r.Empty() || naive(seen, r.Len()))
					}
					if exact {
						exactRuns++
						row := ref.Classifier.PooledRow(n)
						wantRow, err := hidden.RowSlice(row, row+1)
						if err != nil {
							t.Fatal(err)
						}
						if !res.Output.Equal(wantRow) {
							t.Errorf("%s: every product ran in the naive order, yet the pooled row differs from the solo forward's", name)
						}
					}
				}
			}
		}
		if exactRuns == 0 {
			t.Errorf("%s: no run met the bit-identity condition", kind)
		}
	}
}

// rankTraffic is what member j of a one-row pass over ranges (in member order)
// sends, exactly: its rows to the members that read them at each of the L−2
// gathers every member takes — the K−1 others on a bidirectional model (the
// paper's All-Gather), the K−1−j after it on a causal one — once more to the
// reader at the Gather (the reader itself sends nothing there), and its reply:
// the one row from the reader, an empty partition from the rest.
func rankTraffic(cfg model.Config, ranges []partition.Range, j, reader int) (bytes, msgs int64) {
	enc := func(rows int) int64 { return int64(len(tensor.Encode(nil, tensor.New(rows, cfg.F)))) }
	mine := enc(ranges[j].Len())
	readers := int64(len(ranges) - 1)
	if cfg.Kind == model.KindDecoder {
		readers -= int64(j)
	}
	msgs = int64(cfg.Layers-2) * readers
	bytes = msgs * mine
	if j == reader {
		return bytes + enc(1), msgs + 1
	}
	return bytes + mine + enc(0), msgs + 2
}

// TestClassifyTokensTraffic: a token classify moves K·(header + 4N) bytes of
// ids out, L−2 gathers and one Gather to the reader between the workers
// (rankTraffic, over the ranges the frame carries: positionwise.Slice's), and
// one F-row plus K−1 empty partitions back — nothing else. The encoder's
// gathers are the paper's All-Gathers of scheme.Ranges' slices, (K−1)·NF/K
// out of every rank; in the decoder's, rank j sends its slice — cut by cost,
// so the early ones are the larger — to the K−1−j ranks after it.
func TestClassifyTokensTraffic(t *testing.T) {
	const k, n = 3, 17
	for _, kind := range []model.Kind{model.KindDecoder, model.KindEncoder} {
		cfg := wireCfg(kind)
		c, err := NewMem(cfg, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		res, _ := classifyTokens(t, c, promptIn(cfg, n))
		ranges, err := positionwise.Slice(c.Model(0), c.currentScheme(), n, false)
		if err != nil {
			t.Fatal(err)
		}
		if even, _ := c.currentScheme().Ranges(n); (kind == model.KindEncoder) != slices.Equal(ranges, even) {
			t.Errorf("%s: the pass is cut as %v, the scheme's even ranges are %v", kind, ranges, even)
		}
		reader := 0
		if kind == model.KindDecoder {
			reader = k - 1
		}
		enc := func(rows int) int64 { return int64(len(tensor.Encode(nil, tensor.New(rows, cfg.F)))) }
		if enc(1)-enc(0) != int64(4*cfg.F) {
			t.Fatalf("a hidden row encodes to %d bytes over an empty partition, want 4F", enc(1)-enc(0))
		}
		term := res.PerDevice[k]
		if want := int64(k * (passHeader + 8*k + 4*n)); term.BytesSent != want || term.MsgsSent != k {
			t.Errorf("%s: terminal sent %d bytes in %d messages, want %d in %d (one pass frame per rank: header, K ranges, the ids)", kind, term.BytesSent, term.MsgsSent, want, k)
		}
		if want := enc(1) + (k-1)*enc(0); term.BytesRecv != want || term.MsgsRecv != k {
			t.Errorf("%s: terminal received %d bytes in %d messages, want %d in %d (the pooled row, %d empty partitions)", kind, term.BytesRecv, term.MsgsRecv, want, k, k-1)
		}
		for r := 0; r < k; r++ {
			bytes, msgs := rankTraffic(cfg, ranges, r, reader)
			if got := res.PerDevice[r]; got.BytesSent != bytes || got.MsgsSent != msgs {
				t.Errorf("%s: rank %d sent %d bytes in %d messages, want %d in %d (reader %d)", kind, r, got.BytesSent, got.MsgsSent, bytes, msgs, reader)
			}
		}
	}
}

// TestSubmitPooledReadsOneRowOfAScatteredInput: an input only the terminal
// can embed keeps the N×F scatter and still gets the reduced last layer and
// the Gather.
func TestSubmitPooledReadsOneRowOfAScatteredInput(t *testing.T) {
	const k, n = 3, 12
	c := newTiny(t, k, Options{})
	x := embedTiny(t, c, n)
	pend, err := c.SubmitPooled(context.Background(), StrategyVoltage, x)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pend.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo(t, c, x).RowSlice(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := res.Output.MaxAbsDiff(want); err != nil || d > 1e-4 {
		t.Fatalf("pooled row differs from the solo forward's row 0 by %v (err %v)", d, err)
	}
	ranges, err := c.currentScheme().Ranges(n)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < k; r++ {
		if want, _ := rankTraffic(c.cfg, ranges, r, 0); res.PerDevice[r].BytesSent != want {
			t.Errorf("rank %d sent %d bytes, want %d", r, res.PerDevice[r].BytesSent, want)
		}
	}
	if got, want := res.PerDevice[k].BytesSent, int64(k*(passHeader+8*k+len(tensor.Encode(nil, x)))); got != want {
		t.Errorf("terminal sent %d bytes, want the pass header and the embedding to each of %d ranks: %d", got, k, want)
	}
}

// TestClassifyTokensRejectedBeforeAdmission: ids the embedding would refuse
// never reach the mesh.
func TestClassifyTokensRejectedBeforeAdmission(t *testing.T) {
	c := newTiny(t, 2, Options{})
	for _, ids := range [][]int{nil, {}, {c.cfg.VocabSize}, {-1}, make([]int, c.cfg.MaxSeq+1)} {
		if _, err := c.SubmitTokens(context.Background(), StrategyVoltage, ids); err == nil {
			t.Errorf("ids %v were admitted", ids)
		}
	}
	if n := c.Metrics().Counter(`voltage_requests_total{outcome="ok"}`); n != 0 {
		t.Errorf("%v requests counted", n)
	}
}

// TestClassifyTokensKilledWorkerResolvesOnSurvivors: rank 2 dies inside its
// first gather — its second receive, the first of the two partitions the last
// slice is sent whether the model is causal or not. Supervised, the ids request is
// re-sliced over ranks {0,1} — the reader now the survivor whose slice holds
// the pooled row — and answers with the logits a healthy two-worker cluster
// gives, bit for bit.
func TestClassifyTokensKilledWorkerResolvesOnSurvivors(t *testing.T) {
	const n = 19
	for _, kind := range []model.Kind{model.KindDecoder, model.KindEncoder} {
		cfg := wireCfg(kind)
		c, err := NewMem(cfg, 3, Options{
			MaxRetries:    2,
			WrapTransport: wrapRank(2, func(p comm.Peer) comm.Peer { return &comm.FlakyPeer{Inner: p, FailRecvAfter: 2} }),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		healthy, err := NewMem(cfg, 2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(healthy.Close)
		ids := promptIn(cfg, n)
		res, got := classifyTokens(t, c, ids)
		if res.Attempts != 2 || !res.Degraded || len(res.Live) != 2 || containsRank(res.Live, 2) {
			t.Errorf("%s: attempts %d degraded %v live %v, want one retry on the survivors [0 1]", kind, res.Attempts, res.Degraded, res.Live)
		}
		if h := c.Health()[2]; h.State != Unhealthy || !errors.Is(h.LastErr, comm.ErrInjected) {
			t.Errorf("%s: rank 2 health = %v (%v), want Unhealthy with ErrInjected", kind, h.State, h.LastErr)
		}
		_, want := classifyTokens(t, healthy, ids)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: degraded logits %v differ from a healthy 2-worker cluster's %v", kind, got, want)
		}
	}
}

// TestClassifyTokensAllWorkersDeadFallsBackToTerminal: with no survivor the
// terminal embeds the ids itself and answers with the pooled row of its own
// forward pass.
func TestClassifyTokensAllWorkersDeadFallsBackToTerminal(t *testing.T) {
	for _, kind := range []model.Kind{model.KindDecoder, model.KindEncoder} {
		cfg := wireCfg(kind)
		c, err := NewMem(cfg, 1, Options{
			MaxRetries:    2,
			WrapTransport: wrapRank(0, func(p comm.Peer) comm.Peer { return &comm.FlakyPeer{Inner: p, FailSendAfter: 1} }),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		ids := promptIn(cfg, 7)
		res, got := classifyTokens(t, c, ids)
		if !res.Degraded || res.Live == nil || len(res.Live) != 0 {
			t.Errorf("%s: degraded=%v live=%v, want degraded with an empty (non-nil) live set", kind, res.Degraded, res.Live)
		}
		_, want := soloLogits(t, c.Model(0), ids)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: fallback logits %v differ from the terminal's own forward pass %v", kind, got, want)
		}
	}
}
