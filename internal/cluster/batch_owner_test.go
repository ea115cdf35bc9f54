package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/partition"
	"voltage/internal/positionwise"
	"voltage/internal/tensor"
)

// Tests for decode sharded by sequence: placement (one owner rank and one
// KV cache per live sequence), the faults particular to it (an owner dying,
// a rank that owns nothing dying, idle ranks under the per-op watchdog), and
// validation of the opPass frame that carries the input, its reader or owner
// and the row ranges.

// placementPrompts is eight sequences of distinct lengths (2..9).
func placementPrompts() [][]int {
	prompts := make([][]int, 8)
	for i := range prompts {
		p := make([]int, i+2)
		for j := range p {
			p[j] = (7*i + 3*j + 1) % 100
		}
		prompts[i] = p
	}
	return prompts
}

// kvResidency reads the per-rank cache gauges: sequences owned and
// positions cached, by worker rank.
func kvResidency(c *Cluster) (seqs, positions []int) {
	snap := c.Metrics()
	for r := 0; r < c.K(); r++ {
		seqs = append(seqs, int(snap.Gauge(fmt.Sprintf("voltage_kv_cache_sequences{rank=%q}", fmt.Sprint(r)))))
		positions = append(positions, int(snap.Gauge(fmt.Sprintf("voltage_kv_cache_positions{rank=%q}", fmt.Sprint(r)))))
	}
	return seqs, positions
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// heldBatch joins every prompt into one batch and holds the terminal at the
// first token callback — every prefill done, no decode step taken — until
// release is called; wait then collects the streams.
func heldBatch(t *testing.T, c *Cluster, prompts [][]int, steps int) (release func(), wait func() []*GenerateResult) {
	t.Helper()
	gate := make(chan struct{})
	results := make([]*GenerateResult, len(prompts))
	errs := make([]error, len(prompts))
	var wg sync.WaitGroup
	for i, p := range prompts {
		wg.Add(1)
		go func(i int, p []int) {
			defer wg.Done()
			results[i], errs[i] = c.GenerateVoltageStream(context.Background(), p, steps, func(int) { <-gate })
		}(i, p)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if seqs, _ := kvResidency(c); sum(seqs) == len(prompts) {
			break
		}
		if time.Now().After(deadline) {
			close(gate)
			seqs, _ := kvResidency(c)
			t.Fatalf("caches for %d of %d sequences after 10s (per rank %v)", sum(seqs), len(prompts), seqs)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	wait = func() []*GenerateResult {
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("stream %d: %v", i, err)
			}
		}
		return results
	}
	return release, wait
}

func TestOwnerPlacementOneCachePerSequence(t *testing.T) {
	prompts := placementPrompts()
	total := 0
	for _, p := range prompts {
		total += len(p)
	}
	const steps = 5
	want := soloReference(t, prompts, steps)
	c := newTinyDecoder(t, 3, Options{MaxBatch: len(prompts), BatchWindow: 200 * time.Millisecond})

	release, wait := heldBatch(t, c, prompts, steps)
	seqs, positions := kvResidency(c)
	// B = 8 over K = 3 even shares: every sequence cached on exactly one
	// rank, owned counts 3·3·2 — ties take turns in join order, ranks
	// 0,1,2,0,1,2,0,1, whether or not joins share the mesh.
	if sum(seqs) != len(prompts) {
		t.Errorf("caches held = %v, want %d in total (one rank per sequence)", seqs, len(prompts))
	}
	if fmt.Sprint(seqs) != "[3 3 2]" {
		t.Errorf("owned counts %v, want [3 3 2]: placement taking turns in join order", seqs)
	}
	// Replicated decode cached every position on every rank (K × total);
	// owners cache each once. Which prompts share a rank follows the order
	// the streams joined in, so a rank holds at most its three sequences'
	// worth of the longest prompts — the last three.
	if sum(positions) != total {
		t.Errorf("cached positions %v sum to %d, want the %d prompt positions once", positions, sum(positions), total)
	}
	most := len(prompts[5]) + len(prompts[6]) + len(prompts[7])
	for r, n := range positions {
		if n > most {
			t.Errorf("rank %d caches %d of %d positions; the replicated path cached all of them on every rank", r, n, total)
		}
	}
	release()
	results := wait()
	for i := range prompts {
		if !equalTokens(results[i].Tokens, want[i]) {
			t.Errorf("stream %d: tokens %v != solo %v", i, results[i].Tokens, want[i])
		}
	}
	// Leaving drops the cache on the owner; nothing stays resident.
	deadline := time.Now().Add(5 * time.Second)
	for {
		seqs, positions := kvResidency(c)
		if sum(seqs) == 0 && sum(positions) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("residency after the batch drained: sequences %v positions %v, want none", seqs, positions)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestOwnerPlacementFollowsSchemeRatios(t *testing.T) {
	prompts := placementPrompts()[:6]
	const steps = 4
	want := soloReference(t, prompts, steps)
	target, err := partition.Weighted([]float64{3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	c := newTinyDecoder(t, 3, Options{MaxBatch: len(prompts), BatchWindow: 200 * time.Millisecond, Scheme: target})
	release, wait := heldBatch(t, c, prompts, steps)
	if seqs, _ := kvResidency(c); seqs[0] != 3 || seqs[1] != 2 || seqs[2] != 1 {
		t.Errorf("owned counts %v under shares 3:2:1, want [3 2 1]", seqs)
	}
	release()
	for i, res := range wait() {
		if !equalTokens(res.Tokens, want[i]) {
			t.Errorf("stream %d: tokens %v != solo %v", i, res.Tokens, want[i])
		}
	}
}

func TestPickOwner(t *testing.T) {
	live := func(owners ...int) []*request {
		var out []*request
		for _, o := range owners {
			out = append(out, &request{gen: &generation{owner: o}})
		}
		return out
	}
	third := 1.0 / 3
	cases := []struct {
		name   string
		ranks  []int
		shares []float64
		owned  []int // owners of the sequences already live
		last   int   // owner of the last sequence to join, -1 for none
		want   int
	}{
		{"the first placement starts at the lowest rank", []int{0, 1, 2}, []float64{third, third, third}, nil, -1, 0},
		{"fills the empty rank", []int{0, 1, 2}, []float64{third, third, third}, []int{0, 1}, 1, 2},
		{"even again wraps round", []int{0, 1, 2}, []float64{third, third, third}, []int{0, 1, 2}, 2, 0},
		{"lone sequences take turns", []int{0, 1, 2}, []float64{third, third, third}, nil, 0, 1},
		{"a squeezed rank keeps its turn", []int{0, 1, 2}, []float64{4. / 9, 4. / 9, 1. / 9}, nil, 1, 2},
		{"the turn only breaks ties", []int{0, 1, 2}, []float64{third, third, third}, []int{1, 2}, 0, 0},
		{"a departure's slot is refilled", []int{0, 1, 2}, []float64{third, third, third}, []int{0, 0, 2, 2}, 2, 1},
		{"load is owned over share", []int{0, 1, 2}, []float64{0.5, 0.25, 0.25}, []int{0, 1, 2}, 2, 0},
		{"a rank without share is passed over", []int{0, 1, 2}, []float64{0, 0.5, 0.5}, nil, -1, 1},
		{"degraded round indexes shares by live position", []int{0, 2}, []float64{0.25, 0.75}, []int{0}, 0, 2},
		{"the turn skips a rank outside the round", []int{0, 2}, []float64{0.5, 0.5}, nil, 1, 2},
	}
	for _, tc := range cases {
		if got := pickOwner(tc.ranks, tc.shares, live(tc.owned...), tc.last); got != tc.want {
			t.Errorf("%s: owner %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestLoneSequencesVisitEveryRank: a batch narrower than the mesh must not
// leave the higher ranks idle. One stream at a time on three ranks, placement
// ties take turns, so after three streams every rank has owned one and fed
// step times to the profile — including a rank the scheme has squeezed.
func TestLoneSequencesVisitEveryRank(t *testing.T) {
	const steps = 5
	want := soloReference(t, batchPrompts[:3], steps)
	squeezed, err := partition.Weighted([]float64{4, 4, 1})
	if err != nil {
		t.Fatal(err)
	}
	c := newTinyDecoder(t, 3, Options{MaxBatch: 4, Scheme: squeezed})
	for i, p := range batchPrompts[:3] {
		res, err := c.GenerateVoltage(context.Background(), p, steps)
		if err != nil {
			t.Fatal(err)
		}
		if !equalTokens(res.Tokens, want[i]) {
			t.Errorf("stream %d: tokens %v != solo %v", i, res.Tokens, want[i])
		}
	}
	for _, r := range c.Profile().Ranks[:3] {
		if r.StepSamples != steps-1 {
			t.Errorf("rank %d fed %d step samples, want %d (one stream each)", r.Rank, r.StepSamples, steps-1)
		}
	}
}

func TestBatchedGenerateIdleRankKilledMidBatchResumes(t *testing.T) {
	// Two sequences land on ranks 0 and 1; rank 2 owns nothing, so after the
	// two prefills (one pass frame each; the Gather sends to the owner and
	// nothing comes back) its next receive, the 3rd, is the idle wait
	// for the next join — which dies while the owners are decoding. The round
	// must fail, blame rank 2, and resume both streams over ranks {0,1},
	// bit-identical to solo.
	c := newTinyDecoder(t, 3, Options{
		MaxBatch: 2, BatchWindow: 60 * time.Millisecond, MaxRetries: 2,
		WrapTransport: wrapRank(2, func(p comm.Peer) comm.Peer {
			return &comm.FlakyPeer{Inner: p, FailRecvAfter: 3}
		}),
	})
	const steps = 8
	prompts := batchPrompts[:2]
	want := soloReference(t, prompts, steps)
	results, errs := runBatch(c, prompts, steps)
	for i := range prompts {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		if !equalTokens(results[i].Tokens, want[i]) {
			t.Errorf("stream %d: tokens %v != solo %v", i, results[i].Tokens, want[i])
		}
		if results[i].Attempts != 2 || !results[i].Degraded {
			t.Errorf("stream %d: attempts %d degraded %v, want one resume on the survivors", i, results[i].Attempts, results[i].Degraded)
		}
	}
	if h := c.Health()[2]; h.State != Unhealthy || !errors.Is(h.LastErr, comm.ErrInjected) {
		t.Errorf("rank 2 health = %v (%v), want Unhealthy with ErrInjected", h.State, h.LastErr)
	}
	for r := 0; r < 2; r++ {
		if h := c.Health()[r]; h.Failures != 0 {
			t.Errorf("owner rank %d blamed %d times for the idle rank's death", r, h.Failures)
		}
	}
	if got := c.Metrics().Counter(`voltage_batch_recoveries_total{cause="injected"}`); got != 1 {
		t.Errorf("injected recoveries = %v, want 1", got)
	}
}

func TestBatchedGenerateIdleRanksOutliveOpTimeout(t *testing.T) {
	// One paced sequence decodes on rank 0 for many watchdog periods while
	// ranks 1 and 2 own nothing and hear nothing. Their silence is not a
	// fault: no timeout fires, nothing is retried. (The watchdog is loose
	// enough that the owner, which is watched, never waits it out for its
	// next frame on a loaded host.)
	const opTimeout = 100 * time.Millisecond
	c := newTinyDecoder(t, 3, Options{
		MaxBatch: 1, DeviceFlops: 1e6, // ~17 ms of paced compute per decode step
		OpTimeout: opTimeout, MaxRetries: 1,
	})
	const steps = 24
	want := soloReference(t, batchPrompts[:1], steps)
	res, err := c.GenerateVoltage(context.Background(), batchPrompts[0], steps)
	if err != nil {
		t.Fatal(err)
	}
	if !equalTokens(res.Tokens, want[0]) {
		t.Errorf("tokens %v != solo %v", res.Tokens, want[0])
	}
	if res.Attempts != 1 || res.Degraded {
		t.Errorf("attempts %d degraded %v, want an undisturbed run", res.Attempts, res.Degraded)
	}
	if res.DecodeLatency < 3*opTimeout {
		t.Fatalf("decode took %v: too short to outlast the watchdog, the test proves nothing", res.DecodeLatency)
	}
	if n := c.Metrics().Counter("voltage_op_timeouts_total"); n != 0 {
		t.Errorf("%v watchdog expiries on idle ranks, want 0", n)
	}
}

func TestBatchedGenerateOwnerKilledReleasesIdleRanksUnderWatchdog(t *testing.T) {
	// With a per-op watchdog and retries on, a failed round is not canceled: every
	// blocked role must resolve by its own means so the votes stay
	// attributed. Ranks 1 and 2 wait unwatched (they own nothing), so the
	// abort itself has to release them — or the round never resolves. Rank 0
	// dies on its 6th receive: 3 for the prefill (the pass frame, two Gather
	// shares), then its 3rd step frame.
	c := newTinyDecoder(t, 3, Options{
		MaxBatch: 1, OpTimeout: 150 * time.Millisecond, MaxRetries: 1,
		WrapTransport: wrapRank(0, func(p comm.Peer) comm.Peer {
			return &comm.FlakyPeer{Inner: p, FailRecvAfter: 6}
		}),
	})
	const steps = 8
	want := soloReference(t, batchPrompts[:1], steps)
	type outcome struct {
		res *GenerateResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.GenerateVoltage(context.Background(), batchPrompts[0], steps)
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("stream never resolved: idle ranks were not released from the failed round")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !equalTokens(out.res.Tokens, want[0]) {
		t.Errorf("tokens %v != solo %v", out.res.Tokens, want[0])
	}
	if out.res.Attempts != 2 || !out.res.Degraded {
		t.Errorf("attempts %d degraded %v, want one resume on the survivors", out.res.Attempts, out.res.Degraded)
	}
	if h := c.Health()[0]; h.State != Unhealthy || !errors.Is(h.LastErr, comm.ErrInjected) {
		t.Errorf("rank 0 health = %v (%v), want Unhealthy with ErrInjected", h.State, h.LastErr)
	}
	for r := 1; r < 3; r++ {
		if h := c.Health()[r]; h.Failures != 0 {
			t.Errorf("idle rank %d blamed %d times for the owner's death", r, h.Failures)
		}
	}
}

// --- opPass frame validation ---------------------------------------------------

// rawPass builds an opPass frame without the encoder's guarantees: the range
// count written is `count`, whatever bounds holds.
func rawPass(form, kind byte, at, count int, payload []byte, bounds ...int) []byte {
	ranges := make([]partition.Range, len(bounds)/2)
	for i := range ranges {
		ranges[i] = partition.Range{From: bounds[2*i], To: bounds[2*i+1]}
	}
	frame := encodePass(kind, at, 77, ranges, []int{}, nil)
	frame[1] = form
	frame[9], frame[10] = byte(count), byte(count>>8)
	return append(frame, payload...)
}

// join is a token-form join frame — what an opPrefill header and the token
// frame after it used to say.
func join(owner, count int, tokens []byte, bounds ...int) []byte {
	return rawPass(formIDs, readJoin, owner, count, tokens, bounds...)
}

// fiveTokens is the well-formed token frame of a five-position prefix; ids(n)
// is one of n positions.
var fiveTokens = positionwise.TokenFrame([]int{4, 8, 15, 16, 23})

func ids(n int) []byte {
	prefix := make([]int, n)
	for i := range prefix {
		prefix[i] = i % 100
	}
	return positionwise.TokenFrame(prefix)
}

// matrix is the encoding of a rows×cols input.
func matrix(rows, cols int) []byte { return tensor.Encode(nil, tensor.New(rows, cols)) }

// badPassFrames are malformed opPass frames — joins and classifies, in both
// input forms — for a two-rank round {0,1} on the tiny decoder (vocabulary
// 100, MaxSeq 64, F 32).
var badPassFrames = []struct {
	name  string
	frame []byte
}{
	{"opcode only", []byte{opPass}},
	{"another opcode", append([]byte{opStep}, join(0, 2, fiveTokens, 0, 3, 3, 5)[1:]...)},
	{"short frame", join(0, 2, nil, 0, 3, 3, 5)[:8]},
	{"truncated range", join(0, 2, nil, 0, 3, 3, 5)[:23]},
	{"trailing bytes", append(join(0, 2, fiveTokens, 0, 3, 3, 5), 0, 0, 0, 0)},
	{"one range for two serving ranks", join(0, 1, fiveTokens, 0, 5)},
	{"three ranges for two serving ranks", join(0, 3, fiveTokens, 0, 2, 2, 4, 4, 5)},
	{"count disagrees with length", join(0, 3, fiveTokens, 0, 3, 3, 5)},
	{"owner is the terminal", join(2, 2, fiveTokens, 0, 3, 3, 5)},
	{"owner outside the mesh", join(900, 2, fiveTokens, 0, 3, 3, 5)},
	{"ranges overlap", join(0, 2, fiveTokens, 0, 3, 2, 5)},
	{"ranges leave a gap", join(0, 2, fiveTokens, 0, 3, 4, 5)},
	{"range runs backwards", join(0, 2, fiveTokens, 0, 3, 3, 2)},
	{"ranges start past row 0", join(0, 2, fiveTokens, 1, 3, 3, 5)},
	{"ranges stop short of the prefix", join(0, 2, fiveTokens, 0, 2, 2, 4)},
	{"ranges run past the prefix", join(0, 2, fiveTokens, 0, 3, 3, 9)},
	{"no token ids", join(0, 2, nil, 0, 3, 3, 5)},
	{"no positions and no token ids", join(0, 2, nil, 0, 0, 0, 0)},
	{"token bytes not a multiple of four", join(0, 2, fiveTokens[:19], 0, 3, 3, 5)},
	{"a byte past the last id", join(0, 2, append(ids(5), 7), 0, 3, 3, 5)},
	{"an embedded matrix where the ids belong", join(0, 2, matrix(5, 32), 0, 3, 3, 5)},
	{"id outside the vocabulary", join(0, 2, positionwise.TokenFrame([]int{4, 8, 100, 16, 23}), 0, 3, 3, 5)},
	{"id with the sign bit set", join(0, 2, positionwise.TokenFrame([]int{4, 8, -1, 16, 23}), 0, 3, 3, 5)},
	{"more positions than MaxSeq", join(0, 2, ids(65), 0, 30, 30, 65)},
	{"unknown input form", rawPass(2, readAll, 0, 2, fiveTokens, 0, 3, 3, 5)},
	{"unknown read kind", rawPass(formIDs, 3, 0, 2, fiveTokens, 0, 3, 3, 5)},
	{"every row read, yet a reader named", rawPass(formIDs, readAll, 1, 2, fiveTokens, 0, 3, 3, 5)},
	{"pooled reader outside the round", rawPass(formIDs, readPooled, 2, 2, fiveTokens, 0, 3, 3, 5)},
	{"a pooled row of no positions", rawPass(formX, readPooled, 0, 2, matrix(0, 32), 0, 0, 0, 0)},
	{"every row of no positions", rawPass(formX, readAll, 0, 2, matrix(0, 32), 0, 0, 0, 0)},
	{"token ids where the matrix belongs", rawPass(formX, readAll, 0, 2, fiveTokens, 0, 3, 3, 5)},
	{"matrix of another width", rawPass(formX, readAll, 0, 2, matrix(5, 16), 0, 3, 3, 5)},
	{"matrix shorter than the ranges", rawPass(formX, readAll, 0, 2, matrix(4, 32), 0, 3, 3, 5)},
	{"matrix cut short", rawPass(formX, readPooled, 1, 2, matrix(5, 32)[:600], 0, 3, 3, 5)},
	{"bytes past the matrix", rawPass(formX, readAll, 0, 2, append(matrix(5, 32), 0), 0, 3, 3, 5)},
	{"a causal reader that does not see the last row", rawPass(formIDs, readPooled, 0, 2, fiveTokens, 0, 3, 3, 5)},
	{"a causal reader without rows before the last", rawPass(formX, readPooled, 0, 2, matrix(1, 32), 0, 0, 0, 1)},
}

// goodPassFrames are well-formed: a join, a token classify, a scattered x read
// whole and read at its pooled row, and joins owned by rank number 0 — the
// member order rotated, rank 1 holding the first slice — one of them with an
// owner that has no rows.
var goodPassFrames = [][]byte{
	join(1, 2, fiveTokens, 0, 3, 3, 5),
	rawPass(formIDs, readPooled, 1, 2, fiveTokens, 0, 3, 3, 5),
	rawPass(formIDs, readPooled, 0, 2, ids(64), 0, 64, 64, 64),
	rawPass(formX, readAll, 0, 2, matrix(5, 32), 0, 3, 3, 5),
	rawPass(formX, readPooled, 1, 2, matrix(1, 32), 0, 0, 0, 1),
	join(0, 2, fiveTokens, 0, 3, 3, 5),
	join(0, 2, fiveTokens, 0, 5, 5, 5),
}

func tinyDecoderModel(t testing.TB) *model.Model {
	t.Helper()
	m, err := model.NewRandom(model.TinyDecoder(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParsePrefillFrame(t *testing.T) {
	m := tinyDecoderModel(t)
	for _, tc := range badPassFrames {
		if pf, err := parsePassFrame(tc.frame, 2, m, nil); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: parsed as %+v with error %v, want errBadFrame", tc.name, pf, err)
		}
	}
	for i, frame := range goodPassFrames {
		if _, err := parsePassFrame(frame, 2, m, nil); err != nil {
			t.Errorf("well-formed frame %d rejected: %v", i, err)
		}
	}
	// One range per serving rank: a frame for two ranks is not one for three.
	if _, err := parsePassFrame(goodPassFrames[0], 3, m, nil); !errors.Is(err, errBadFrame) {
		t.Errorf("two ranges accepted by a round of three: %v", err)
	}
	// A degraded round's owner is named by its place among the serving ranks,
	// and may hold no rows; whichever rank it is, it is the last member.
	want := positionwise.Read{One: true, Row: 4, At: 1, Cache: true}
	pf, err := parsePassFrame(join(1, 2, fiveTokens, 0, 0, 0, 5), 2, m, nil)
	if err != nil || pf.seq != 77 || pf.read != want || pf.last != 1 || !pf.ranges[0].Empty() || pf.ranges[1] != (partition.Range{From: 0, To: 5}) || !equalTokens(pf.ids, []int{4, 8, 15, 16, 23}) {
		t.Errorf("valid join parsed as %+v, err %v", pf, err)
	}
	pf, err = parsePassFrame(goodPassFrames[5], 2, m, nil)
	if err != nil || pf.read != want || pf.last != 0 || !slices.Equal(memberOrder([]int{4, 7}, pf.last), []int{7, 4}) {
		t.Errorf("a join owned by rank number 0 parsed as %+v, err %v; want it the last of the members [7 4]", pf, err)
	}
	// A classify is read at the classifier's pooled row (a decoder's last),
	// wherever the frame puts the reader.
	pf, err = parsePassFrame(goodPassFrames[1], 2, m, nil)
	if want := (positionwise.Read{One: true, Row: 4, At: 1}); err != nil || pf.read != want {
		t.Errorf("valid token classify reads %+v, err %v; want %+v", pf.read, err, want)
	}
	pf, err = parsePassFrame(goodPassFrames[3], 2, m, nil)
	if err != nil || pf.read != positionwise.AllRows || pf.ids != nil || pf.x.Rows() != 5 || pf.x.Cols() != 32 {
		t.Errorf("valid scattered input parsed as %+v, err %v", pf, err)
	}
}

func FuzzParsePrefillFrame(f *testing.F) {
	for _, tc := range badPassFrames {
		f.Add(tc.frame)
	}
	for _, frame := range goodPassFrames {
		f.Add(frame)
	}
	m := tinyDecoderModel(f)
	cfg := m.Cfg
	f.Fuzz(func(t *testing.T, frame []byte) {
		pf, err := parsePassFrame(frame, 2, m, nil)
		if err != nil {
			if !errors.Is(err, errBadFrame) {
				t.Fatalf("error %v is not errBadFrame", err)
			}
			return
		}
		if len(pf.ranges) != 2 || pf.ranges[0].From != 0 || pf.ranges[0].To != pf.ranges[1].From || pf.ranges[1].To < pf.ranges[1].From {
			t.Fatalf("accepted ranges %v for two serving ranks", pf.ranges)
		}
		n := pf.ranges[1].To
		if n < 1 || (pf.ids != nil) == (pf.x != nil) {
			t.Fatalf("accepted %d positions as ids %v and x %v", n, pf.ids, pf.x)
		}
		if r := pf.read; r.One && (r.At < 0 || r.At > 1 || r.Row < 0 || r.Row >= n) || !r.One && r != positionwise.AllRows {
			t.Fatalf("accepted read %+v over %d positions on two ranks", r, n)
		}
		// The tiny decoder is causal: a one-row reader sees every row, and a
		// join's owner is the last member whichever rank the frame names.
		if pf.read.One && pf.ranges[pf.read.At].To != n {
			t.Fatalf("accepted a reader whose slice %v stops short of the %d positions of a causal pass", pf.ranges[pf.read.At], n)
		}
		if pf.last < 0 || pf.last > 1 || (!pf.read.Cache && pf.last != 1) || (pf.read.Cache && pf.read.At != 1) {
			t.Fatalf("accepted read %+v with rank number %d as the last of two members", pf.read, pf.last)
		}
		kind, at := byte(readAll), pf.read.At
		if pf.read.One {
			kind = readPooled
		}
		if pf.read.Cache {
			kind, at = readJoin, pf.last
		}
		again := encodePass(kind, at, pf.seq, pf.ranges, pf.ids, pf.x)
		if pf.ids != nil {
			if len(pf.ids) != n || n > cfg.MaxSeq {
				t.Fatalf("accepted %d ids for %d of at most %d positions", len(pf.ids), n, cfg.MaxSeq)
			}
			for _, id := range pf.ids {
				if id < 0 || id >= cfg.VocabSize {
					t.Fatalf("accepted id %d outside the vocabulary of %d", id, cfg.VocabSize)
				}
			}
			if string(again) != string(frame) {
				t.Fatalf("accepted frame %x re-encodes as %x", frame, again)
			}
			return
		}
		if pf.x.Rows() != n || pf.x.Cols() != cfg.F {
			t.Fatalf("accepted a %dx%d input for %d positions of %d features", pf.x.Rows(), pf.x.Cols(), n, cfg.F)
		}
		// A float's NaN payload need not survive the decode: the header and
		// the length must.
		hdr := passHeader + 16
		if len(again) != len(frame) || string(again[:hdr+8]) != string(frame[:hdr+8]) {
			t.Fatalf("accepted frame %x re-encodes as %x", frame, again)
		}
	})
}

func TestBatchWorkerRejectsMalformedPrefillHeader(t *testing.T) {
	c := newTinyDecoder(t, 2, Options{})
	ctx := context.Background()
	term := c.peers[c.terminalRank()]
	send := func(frame []byte) {
		t.Helper()
		for r := 0; r < c.k; r++ {
			if err := term.Send(ctx, r, frame); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each rank in turn is handed the frame in a round of its own, which its
	// refusal ends the way a failed round ends: abort, wait, flush.
	for _, tc := range append(badPassFrames, struct {
		name  string
		frame []byte
	}{"an empty frame", []byte{}}) {
		for r := 0; r < c.k; r++ {
			rd := c.newRound(nil)
			if err := term.Send(ctx, r, tc.frame); err != nil {
				t.Fatal(err)
			}
			rd.workers.Wait()
			c.endRound(rd, errBadFrame)
			if !errors.Is(rd.errs[r], errBadFrame) {
				t.Errorf("%s: rank %d returned %v, want errBadFrame", tc.name, r, rd.errs[r])
			}
		}
	}
	// Whatever each rejected frame left unread was flushed with its round:
	// on the same links a well-formed round runs a join, a decode step on
	// the owner, and ends when the terminal stops it.
	rd := c.newRound(nil)
	send(encodePass(readJoin, 1, 5, []partition.Range{{From: 0, To: 3}, {From: 3, To: 5}}, []int{4, 8, 15, 16, 23}, nil))
	for r := 0; r < c.k; r++ {
		got, err := term.Recv(ctx, r)
		if err != nil {
			t.Fatalf("prefill partition from rank %d: %v", r, err)
		}
		// The owner answers with the newest position's row, the rest with
		// none.
		part, _, err := tensor.Decode(got)
		if want := r; err != nil || part.Rows() != want || part.Cols() != c.cfg.F {
			t.Fatalf("prefill reply from rank %d: %v, err %v; want %d rows", r, part, err, want)
		}
		comm.ReleaseBuffer(got)
	}
	step := stepFrame(1, 1, []*request{{id: 5, gen: &generation{tokens: []int{42}}}}, []int{0})
	if err := term.Send(ctx, 1, step); err != nil {
		t.Fatal(err)
	}
	got, err := term.Recv(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	row, _, err := tensor.Decode(got)
	if err != nil || row.Rows() != 1 || row.Cols() != c.cfg.F {
		t.Fatalf("owner's step reply: %v, err %v; want one hidden row", row, err)
	}
	// Rank 0 holds no cache for sequence 5: a step addressed to it is
	// rejected, not served from a replica — and its failure ends the round
	// for the owner too.
	if err := term.Send(ctx, 0, step); err != nil {
		t.Fatal(err)
	}
	rd.workers.Wait()
	c.endRound(rd, nil)
	if !errors.Is(rd.errs[0], errBadFrame) {
		t.Errorf("rank 0 served a step for a sequence it does not own: %v", rd.errs[0])
	}
	if !errors.Is(rd.errs[1], context.Canceled) {
		t.Errorf("owner rank 1 ended with %v, want the round's cancellation", rd.errs[1])
	}
}
