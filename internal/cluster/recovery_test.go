package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/tensor"
)

// Tests of the one recovery rule: whatever ends a round, the next one starts
// on clean links, and every request resolves once, exactly or with a typed
// error.

// onceFaulty drops or corrupts its n-th send, once: a single lost or damaged
// message on an otherwise healthy mesh.
type onceFaulty struct {
	comm.Peer
	n       int64
	corrupt bool
	sends   atomic.Int64
}

func (f *onceFaulty) Send(ctx context.Context, to int, data []byte) error {
	if f.sends.Add(1) != f.n {
		return f.Peer.Send(ctx, to, data)
	}
	if !f.corrupt {
		return nil // swallowed
	}
	damaged := append([]byte(nil), data...)
	damaged[len(damaged)-1] ^= 0xFF
	return f.Peer.Send(ctx, to, damaged)
}

// TestLostMessageNeverPoisonsTheNextRequest is the regression test for the
// residue defect: a cluster without retries that lost one message resolved
// that request as ErrTimeout — and answered the next one from the dead
// request's leftover frames, silently wrong. Every send of rank 0 during one
// Infer (two All-Gather shares, then its reply) is lost or damaged in turn;
// the request it belongs to resolves with the typed cause (or, with retries
// on, exactly), and the next Infer and the next SubmitTokens on the same
// cluster equal the solo forward — never a wrong matrix, never a hang.
func TestLostMessageNeverPoisonsTheNextRequest(t *testing.T) {
	const k, n, sends = 3, 9, 3
	for _, retries := range []int{0, 2} {
		for _, corrupt := range []bool{false, true} {
			for nth := int64(1); nth <= sends; nth++ {
				name := fmt.Sprintf("retries=%d corrupt=%v send=%d", retries, corrupt, nth)
				c := newTiny(t, k, Options{
					MaxRetries:     retries,
					RequestTimeout: 300 * time.Millisecond,
					WrapTransport: wrapRank(0, func(p comm.Peer) comm.Peer {
						return &onceFaulty{Peer: p, n: nth, corrupt: corrupt}
					}),
				})
				x := embedTiny(t, c, n)
				want := solo(t, c, x)
				same := func(what string, got *tensor.Matrix) {
					t.Helper()
					if d, err := got.MaxAbsDiff(want); err != nil || d > 1e-4 {
						t.Fatalf("%s: %s differs from the solo forward by %v (err %v)", name, what, d, err)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				res, err := c.Infer(ctx, StrategyVoltage, x)
				switch cause := map[bool]error{false: comm.ErrTimeout, true: comm.ErrCorrupt}[corrupt]; {
				case retries == 0 && !errors.Is(err, cause):
					t.Fatalf("%s: the faulted request returned %v, want %v", name, err, cause)
				case retries > 0 && err != nil:
					t.Fatalf("%s: the faulted request was not retried to success: %v", name, err)
				case retries > 0:
					same("the retried request", res.Output)
				}
				res, err = c.Infer(ctx, StrategyVoltage, x)
				if err != nil {
					t.Fatalf("%s: the next Infer: %v", name, err)
				}
				same("the next Infer", res.Output)
				ids := make([]int, n)
				for i := range ids {
					ids[i] = (i*7 + 3) % c.cfg.VocabSize // embedTiny's ids
				}
				pend, err := c.SubmitTokens(ctx, StrategyVoltage, ids)
				if err != nil {
					t.Fatal(err)
				}
				if res, err = pend.Wait(ctx); err != nil {
					t.Fatalf("%s: the next SubmitTokens: %v", name, err)
				}
				row := c.Model(0).Classifier.PooledRow(n)
				if want, err = want.RowSlice(row, row+1); err != nil {
					t.Fatal(err)
				}
				same("the next token classify's pooled row", res.Output)
				cancel()
				c.Close()
			}
		}
	}
}

// countingPeer counts receives, to size the enumeration below.
type countingPeer struct {
	comm.Peer
	recvs atomic.Int64
}

func (p *countingPeer) Recv(ctx context.Context, from int) ([]byte, error) {
	p.recvs.Add(1)
	return p.Peer.Recv(ctx, from)
}

// TestEveryReceiveFaultResolvesEveryRequestOnce enumerates the fault points of
// a small mixed workload — one token classify and two generates in flight on
// K = 3 with two retries — instead of sampling them: each rank is killed at
// each receive of the fault-free run in turn (and at the idle wait after it).
// Whatever the fault lands in — a classify's All-Gather, a join's Gather, a
// step frame, an idle wait — every request resolves once, every output equals
// its solo reference, the results' recovery fields agree with the blamed
// rank, no token callback fires after its stream returned, and the loop's
// bookkeeping is back at zero.
func TestEveryReceiveFaultResolvesEveryRequestOnce(t *testing.T) {
	const k, steps = 3, 3
	prompts := batchPrompts[:2]
	classifyIDs := []int{9, 8, 7, 6, 5, 4, 3}
	wantTokens := soloReference(t, prompts, steps)
	ref, err := model.NewRandom(model.TinyDecoder(), 1)
	if err != nil {
		t.Fatal(err)
	}
	hidden, _ := soloLogits(t, ref, classifyIDs)
	wantRow, err := hidden.RowSlice(len(classifyIDs)-1, len(classifyIDs))
	if err != nil {
		t.Fatal(err)
	}

	// run drives the workload on a cluster whose rank `doomed` fails its n-th
	// receive and every later one (doomed < 0: nobody), and checks everything
	// but the recovery fields; it returns each rank's receive count.
	run := func(doomed int, n int64) []int64 {
		name := fmt.Sprintf("rank %d receive %d", doomed, n)
		counters := make([]*countingPeer, k)
		release, entered := make(chan struct{}), make(chan struct{})
		c := newTinyDecoder(t, k, Options{
			MaxRetries: 2, MaxBatch: 4,
			WrapTransport: func(rank int, p comm.Peer) comm.Peer {
				if rank == k {
					return &gatePeer{Peer: p, release: release, entered: entered}
				}
				counters[rank] = &countingPeer{Peer: p}
				if rank == doomed {
					return &comm.FlakyPeer{Inner: counters[rank], FailRecvAfter: n}
				}
				return counters[rank]
			},
		})
		defer c.Close()
		// Arrival order is part of the case. A first request holds the loop at
		// its scatter (the terminal's gate) while the workload queues up behind
		// it — generate 0, generate 1, the classify — so one admit boundary
		// takes all three, in that order, every time.
		plug, err := c.Submit(context.Background(), StrategyVoltage, embedTiny(t, c, 5))
		if err != nil {
			t.Fatal(err)
		}
		<-entered
		gens := make([]*GenerateResult, len(prompts))
		errs := make([]error, len(prompts))
		var returned [2]atomic.Bool
		var late atomic.Int64
		var wg sync.WaitGroup
		for i, p := range prompts {
			wg.Add(1)
			go func(i int, p []int) {
				defer wg.Done()
				gens[i], errs[i] = c.GenerateVoltageStream(context.Background(), p, steps, func(int) {
					if returned[i].Load() {
						late.Add(1)
					}
				})
				returned[i].Store(true)
			}(i, p)
			waitCond(t, 10*time.Second, "the generate to be queued", func() bool { return c.BatchWidth() == i+1 })
		}
		pend, err := c.SubmitTokens(context.Background(), StrategyVoltage, classifyIDs)
		if err != nil {
			t.Fatal(err)
		}
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if _, err := plug.Wait(ctx); err != nil {
			t.Fatalf("%s: the first request: %v", name, err)
		}
		res, err := pend.Wait(ctx)
		if err != nil {
			t.Fatalf("%s: classify: %v", name, err)
		}
		wg.Wait()
		if d, err := res.Output.MaxAbsDiff(wantRow); err != nil || d > 1e-4 {
			t.Errorf("%s: classify's pooled row differs from the solo forward by %v (err %v)", name, d, err)
		}
		// Counters before health: a recovery is counted after its rank is
		// blamed, so a fault that fires once everything has returned (the idle
		// wait) is never seen half-recorded.
		snap := c.Metrics()
		blamed := -1
		for _, h := range c.Health() {
			if h.Failures > 0 {
				if blamed >= 0 || h.Rank != doomed || h.State != Unhealthy || !errors.Is(h.LastErr, comm.ErrInjected) {
					t.Errorf("%s: health %+v, want only the doomed rank blamed, with ErrInjected", name, h)
				}
				blamed = h.Rank
			}
		}
		var survivors []int
		for r := 0; r < k; r++ {
			if r != blamed {
				survivors = append(survivors, r)
			}
		}
		// A single fault costs at most one retry; whoever was retried rode the
		// re-sliced round; a degraded classify ran on exactly the survivors.
		if res.Attempts > 2 || (res.Attempts == 2) && !res.Degraded || res.Degraded != (res.Live != nil) ||
			res.Degraded && (blamed < 0 || fmt.Sprint(res.Live) != fmt.Sprint(survivors)) {
			t.Errorf("%s: classify attempts %d degraded %v live %v with rank %d blamed", name, res.Attempts, res.Degraded, res.Live, blamed)
		}
		for i := range prompts {
			if errs[i] != nil {
				t.Fatalf("%s: stream %d: %v", name, i, errs[i])
			}
			if !equalTokens(gens[i].Tokens, wantTokens[i]) {
				t.Errorf("%s: stream %d: tokens %v != solo %v", name, i, gens[i].Tokens, wantTokens[i])
			}
			if a := gens[i].Attempts; a > 2 || a == 2 && !gens[i].Degraded || gens[i].Degraded && blamed < 0 {
				t.Errorf("%s: stream %d: attempts %d degraded %v with rank %d blamed", name, i, a, gens[i].Degraded, blamed)
			}
		}
		if late.Load() != 0 {
			t.Errorf("%s: %d token callbacks fired after their stream returned", name, late.Load())
		}
		if w := c.BatchWidth(); w != 0 {
			t.Errorf("%s: BatchWidth = %d after every return", name, w)
		}
		if q := snap.Gauge("voltage_queue_length"); q != 0 {
			t.Errorf("%s: voltage_queue_length = %v after every return", name, q)
		}
		if ok, bad := snap.Counter(`voltage_requests_total{outcome="ok"}`), snap.Counter(`voltage_requests_total{outcome="error"}`); ok != 4 || bad != 0 {
			t.Errorf("%s: requests ok/error = %v/%v, want each of the 4 counted once", name, ok, bad)
		}
		retried := res.Attempts == 2 || gens[0].Attempts == 2 || gens[1].Attempts == 2
		if rec := snap.Counter(`voltage_batch_recoveries_total{cause="injected"}`); rec > 1 || rec == 1 && blamed < 0 || retried && rec == 0 {
			t.Errorf("%s: %v recoveries with rank %d blamed (a request retried: %v)", name, rec, blamed, retried)
		}
		counts := make([]int64, k)
		for r := range counts {
			counts[r] = counters[r].recvs.Load()
		}
		return counts
	}

	counts := run(-1, 0)
	for r, total := range counts {
		if total < 4 {
			t.Fatalf("rank %d made %d receives in the fault-free run: the workload did not reach it", r, total)
		}
		for n := int64(1); n <= total+1; n++ {
			run(r, n)
		}
	}
}
