// Package positionwise is the wire protocol of the paper's own strategy,
// Algorithm 2: the terminal scatters the input to the devices, each device
// computes its position slice of a layer, one All-Gather re-assembles the
// layer output on every device, and the last layer's slices go back to the
// terminal. It sits beside tparallel and pipeline, the two baselines, and
// like them knows nothing of the runtime around it: device pacing and span
// reporting are injected as nil-safe hooks, the gather as a function value,
// the matrix pool through the device's Exchange.
//
// One layer loop serves every pass; what differs between them is what the
// caller reads of the last layer (Read), the form the input arrives in (the
// embedded matrix, or token ids each device embeds itself) and whether the
// model is causal. The paper All-Gathers because in BERT and ViT every
// position reads every position; in a decoder position i reads positions ≤ i
// only, so the device holding slice j keeps rows [0, ranges[j].To) and nothing
// else — it embeds, is sent and is paced for attention over that prefix alone
// (a deviation from the paper, which All-Gathers GPT-2 too, that leaves the
// outputs what they were). The emulated cluster's classifies, its generate
// joins and the TCP fleet (voltage-worker, voltage-server -addrs) all run
// this code.
package positionwise

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"voltage/internal/comm"
	"voltage/internal/flopcount"
	"voltage/internal/model"
	"voltage/internal/partition"
	"voltage/internal/tensor"
)

// Gather is the between-layer synchronisation: every member of group
// contributes its rows (ranges[group.Rank()]) to the members that read them
// and gets back, assembled, the rows it reads itself — nil if it reads none.
type Gather func(ctx context.Context, group comm.Peer, readers comm.Readers, part *tensor.Matrix, ranges []partition.Range) (*tensor.Matrix, error)

// Quantized is the int8 gather (≈¼ the bytes, bounded per-layer error).
func Quantized(ctx context.Context, group comm.Peer, readers comm.Readers, part *tensor.Matrix, ranges []partition.Range) (*tensor.Matrix, error) {
	return comm.GatherToQ(ctx, group, readers, part, ranges)
}

// Read is what the caller of a pass reads of its last layer — the one thing
// that tells the passes apart. The zero value, AllRows, is Algorithm 2 as the
// paper has it. With One, a single Row is read (a classifier's pooled row, a
// join's newest position) and the last layer has one reader: group member At
// computes that row alone (P = 1) and the terminal hears 1×F from it and 0×F
// from the others, so the synchronisation that feeds the last layer is a
// Gather to At, after which the others are done. With Cache the reader also
// keeps every layer's K/V over the whole input as a decode cache, running the
// naive association that materialises them. On a causal model the reader must
// be a member that sees every row: one whose slice ends at N.
type Read struct {
	One   bool // false: every row, and the fields below stay zero
	Row   int
	At    int
	Cache bool
}

// AllRows reads the whole last layer.
var AllRows = Read{}

// OneRow reads row at the member whose range holds it.
func OneRow(ranges []partition.Range, row int) Read {
	at := -1
	for i, r := range ranges {
		if r.From <= row && row < r.To {
			at = i
		}
	}
	return Read{One: true, Row: row, At: at}
}

// Pooled reads the one row cls classifies from, of a pass over ranges.
func Pooled(cls *model.Classifier, ranges []partition.Range) Read {
	return OneRow(ranges, cls.PooledRow(ranges[len(ranges)-1].To))
}

// Replies is what Assemble expects of each member of a pass over ranges read
// as r.
func (r Read) Replies(ranges []partition.Range) []partition.Range {
	if !r.One {
		return ranges
	}
	replies := make([]partition.Range, len(ranges))
	for i := range replies {
		replies[i] = partition.Range{From: r.Row, To: r.Row}
	}
	if r.At >= 0 && r.At < len(replies) {
		replies[r.At].To++
	}
	return replies
}

// Device is one device's side of the protocol (Algorithm 2, lines 4–15).
type Device struct {
	Model *model.Model
	// Peer reaches the terminal, at rank Terminal. Group is the collective
	// group of the devices in the pass; this device is member Group.Rank(),
	// and a pass's ranges are indexed the same way.
	Peer     comm.Peer
	Terminal int
	Group    comm.Peer
	// Ex is the device goroutine's encode scratch and matrix pool. With a
	// pool, a pass recycles every activation it is done with — its input
	// included — and allocates nothing per layer in the steady state.
	Ex *comm.Exchange
	// Gather synchronises the layers; nil is Ex.GatherTo, the float32 gather
	// by direct exchange — the schedule of the paper's accounting — through
	// Ex's encode scratch and matrix pool.
	Gather Gather

	// Pace, when non-nil, is called once a layer's rows are computed, with
	// the time the work started and its analytic Γ; the cluster runtime
	// sleeps out the emulated device's budget in it and reports the compute
	// span. It is not called for a layer the device had nothing to do at.
	// OnComm, when non-nil, is told how long a layer's synchronisation
	// blocked.
	Pace   func(ctx context.Context, layer int, start time.Time, flops int64) error
	OnComm func(layer int, d time.Duration)
}

// Classify runs the paper's pass over the input x: this device's rows of
// every layer, the last layer's sent to the terminal.
func (d *Device) Classify(ctx context.Context, x *tensor.Matrix, ranges []partition.Range) error {
	_, err := d.Run(ctx, x, ranges, AllRows)
	return err
}

// Run runs one pass over the input x, cut down to what read says the caller
// reads (Work) and, on a causal model, to the rows this device's slice attends
// to (horizon). A reader that keeps its cache returns it; every other device
// returns nil.
func (d *Device) Run(ctx context.Context, x *tensor.Matrix, ranges []partition.Range, read Read) (*model.DecodeState, error) {
	start := time.Now()
	seen, err := d.horizon(x.Rows(), ranges, read)
	if err != nil {
		return nil, err
	}
	if seen < x.Rows() {
		head, err := x.RowSlice(0, seen)
		if err != nil {
			return nil, err
		}
		d.Ex.Pool().Put(x)
		x = head
	}
	return d.run(ctx, x, ranges, read, start, 0)
}

// RunTokens is Run over token ids, of which this device embeds the ones it
// reads; the embedding is charged to layer 0.
func (d *Device) RunTokens(ctx context.Context, ids []int, ranges []partition.Range, read Read) (*model.DecodeState, error) {
	start := time.Now()
	seen, err := d.horizon(len(ids), ranges, read)
	if err != nil {
		return nil, err
	}
	x := tensor.New(0, d.Model.Cfg.F) // a device whose slice is [0,0) reads nothing
	if seen > 0 {
		if x, err = d.Model.Embed.EmbedTokens(ids[:seen]); err != nil {
			return nil, err
		}
	}
	return d.run(ctx, x, ranges, read, start, flopcount.EmbedCost(seen, d.Model.Cfg.F))
}

// horizon checks a pass over n positions, sliced as ranges and read as read,
// and returns how many of the positions this device reads: all n, or on a
// causal model the prefix its own rows attend to, [0, ranges[me].To).
func (d *Device) horizon(n int, ranges []partition.Range, read Read) (int, error) {
	if len(ranges) != d.Group.Size() {
		return 0, fmt.Errorf("positionwise: %d ranges for a group of %d", len(ranges), d.Group.Size())
	}
	mine := ranges[d.Group.Rank()]
	if n < 1 || mine.From < 0 || mine.To < mine.From || mine.To > n {
		return 0, fmt.Errorf("positionwise: the slice %v of %d positions", mine, n)
	}
	if read.One && (read.Row < 0 || read.Row >= n || read.At < 0 || read.At >= len(ranges)) {
		return 0, fmt.Errorf("positionwise: reading row %d of %d at member %d of %d", read.Row, n, read.At, len(ranges))
	}
	if !read.One && read != AllRows {
		return 0, fmt.Errorf("positionwise: %+v names a row or a cache without One", read)
	}
	if !d.Model.Causal() {
		return n, nil
	}
	if read.One && ranges[read.At].To != n {
		return 0, fmt.Errorf("positionwise: member %d, whose slice is %v, reads one row of a causal pass over %d positions but does not see them all",
			read.At, ranges[read.At], n)
	}
	return mine.To, nil
}

// Work is the rows a device computes at one layer of a pass of which it reads
// n positions (all of them, or its causal horizon) and the Γ it is paced for:
// its slice mine, in Algorithm 1's selected order for that n,
// at every layer but a last layer of which one row is read — there the reader
// computes that row and the others nothing. A reader that keeps its cache
// runs the naive association throughout, whose K = x·W_K, V = x·W_V are the
// layer's cache — Theorem 2's reordering saves exactly those two products, so
// it only pays where they have no other use.
func Work(layer *model.Layer, last bool, n int, mine partition.Range, read Read, reader bool) (partition.Range, int64, error) {
	if last && read.One {
		mine = partition.Range{From: n, To: n}
		if reader {
			mine = partition.Range{From: read.Row, To: read.Row + 1}
		}
	}
	cost := layer.Cost
	if reader && read.Cache {
		cost = layer.CachedCost
	} else if mine.Empty() {
		return mine, 0, nil
	}
	g, err := cost(n, mine.Len())
	return mine, g, err
}

// Slice cuts a pass over n positions among the members of scheme, in member
// order. On a bidirectional model every member reads all n positions, so its
// Γ is proportional to its row count and the cut is scheme.Ranges(n). On a
// causal one member j reads the prefix its slice ends at, so equal row counts
// are unequal work — the last slice attends to n rows, the first to n/K — and
// once passes overlap on the mesh the busiest member sets its rate. There the
// cut is the contiguous one whose largest per-layer Γ ÷ share is smallest,
// each member priced by the Layer.Cost it is paced for (Work) and, with
// cache, the last by Layer.CachedCost, as a join's owner is. A member with no
// share gets an empty slice.
func Slice(m *model.Model, scheme *partition.Scheme, n int, cache bool) ([]partition.Range, error) {
	if !m.Causal() {
		return scheme.Ranges(n)
	}
	var last func(n, p int) (int64, error)
	if cache {
		last = m.Layers[0].CachedCost
	}
	return SliceByCost(scheme.Ratios(), n, m.Layers[0].Cost, last)
}

// SliceByCost is Slice's search for a causal pass over n positions among
// len(shares) members, where a member computing p ≥ 1 rows over a horizon of
// n costs cost(n, p), an empty slice nothing, and — when lastCost is non-nil
// — the last member lastCost(n, p), its empty slice too: of the contiguous
// cuts, the one minimising the largest cost ÷ share. Both costs grow with n
// and with p, so the best cut of [0, b) among the first j+1 members is found
// from the first j by a binary search for the boundary where their best
// grows past member j's load. The cost model calls it with costs of its own.
func SliceByCost(shares []float64, n int, cost, lastCost func(n, p int) (int64, error)) ([]partition.Range, error) {
	k := len(shares)
	if k == 0 || n < 0 {
		return nil, fmt.Errorf("positionwise: slicing %d positions among %d members", n, k)
	}
	var failed error
	load := func(j, a, b int) float64 {
		c, p := cost, b-a
		switch {
		case shares[j] <= 0 && p > 0:
			return math.Inf(1)
		case shares[j] <= 0:
			return 0
		case j == k-1 && lastCost != nil:
			c = lastCost
		case p == 0:
			return 0
		}
		g, err := c(b, p)
		if err != nil && failed == nil {
			failed = err
		}
		return float64(g) / shares[j]
	}
	// best[j][b] is the smallest largest load cutting [0, b) among members
	// 0…j, from[j][b] where member j's slice then starts; NaN until computed.
	best, from := make([][]float64, k), make([][]int, k)
	for j := range best {
		best[j], from[j] = make([]float64, n+1), make([]int, n+1)
		for b := range best[j] {
			best[j][b] = math.NaN()
		}
	}
	var opt func(j, b int) float64
	opt = func(j, b int) float64 {
		if !math.IsNaN(best[j][b]) {
			return best[j][b]
		}
		if j == 0 {
			best[j][b] = load(0, 0, b)
			return best[j][b]
		}
		// The smallest a at which the first j members' best reaches member
		// j's load over [a, b); the optimum is there or just before it.
		lo, hi := 0, b+1
		for lo < hi {
			mid := (lo + hi) / 2
			if opt(j-1, mid) >= load(j, mid, b) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		a, v := lo, math.Inf(1)
		if lo <= b {
			v = opt(j-1, lo)
		}
		if lo > 0 {
			if w := load(j, lo-1, b); w < v {
				a, v = lo-1, w
			}
		}
		best[j][b], from[j][b] = v, a
		return v
	}
	opt(k-1, n)
	if failed != nil {
		return nil, failed
	}
	ranges := make([]partition.Range, k)
	for j, b := k-1, n; j >= 0; j-- {
		a := 0
		if j > 0 {
			opt(j, b) // the search may have passed over this boundary
			a = from[j][b]
		}
		ranges[j] = partition.Range{From: a, To: b}
		b = a
	}
	return ranges, nil
}

// run is the layer loop over x, the rows of the input this device reads.
// start and lead are when the device began work it has not been paced for yet
// and that work's Γ (the embedding of token ids). Between two layers the
// members that go on to read this one gather it: everyone, on a causal model
// each member's successors, before the last layer of a one-row read the
// reader alone.
func (d *Device) run(ctx context.Context, x *tensor.Matrix, ranges []partition.Range, read Read, start time.Time, lead int64) (*model.DecodeState, error) {
	gather := d.Gather
	if gather == nil {
		gather = d.Ex.GatherTo
	}
	pool := d.Ex.Pool()
	layers := d.Model.Layers
	n, me := x.Rows(), d.Group.Rank()
	mine, reader := ranges[me], read.One && read.At == me
	readers := comm.Everyone
	if d.Model.Causal() {
		readers = comm.Successors
	}
	var state *model.DecodeState
	if reader && read.Cache {
		state = &model.DecodeState{Layers: make([]*model.LayerState, len(layers)), Pos: n}
	}
	for li, layer := range layers {
		last := li == len(layers)-1
		rows, cost, err := Work(layer, last, n, mine, read, reader)
		if err != nil {
			return nil, err
		}
		var part *tensor.Matrix
		if state != nil {
			part, state.Layers[li], err = layer.ForwardPartitionCached(x, rows)
		} else {
			part, _, err = layer.ForwardPartition(x, rows)
		}
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", li, err)
		}
		if flops := lead + cost; flops > 0 && d.Pace != nil {
			if err := d.Pace(ctx, li, start, flops); err != nil {
				return nil, err
			}
		}
		if last {
			err := d.Peer.Send(ctx, d.Terminal, d.Ex.Encode(part))
			pool.Put(part)
			pool.Put(x)
			return state, err
		}
		to := readers
		if read.One && li == len(layers)-2 {
			to = comm.Only(read.At)
		}
		commStart := time.Now()
		next, err := gather(ctx, d.Group, to, part, ranges)
		if err != nil {
			return nil, fmt.Errorf("layer %d gather: %w", li, err)
		}
		if d.OnComm != nil {
			d.OnComm(li, time.Since(commStart))
		}
		// The gather copied the local rows into the assembled matrix and no
		// layer retains its input, so both recycle here.
		pool.Put(part)
		pool.Put(x)
		if next == nil {
			// The last layer is the reader's: this device is done.
			return nil, d.Peer.Send(ctx, d.Terminal, d.Ex.Encode(tensor.New(0, layer.F())))
		}
		x, start, lead = next, time.Now(), 0
	}
	return state, nil
}

// TokenFrame is the wire form of a pass's input as token ids: [N×token u32],
// little-endian, no header.
func TokenFrame(ids []int) []byte {
	buf := make([]byte, 4*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(id))
	}
	return buf
}

// ParseTokens validates a token frame said to hold n ids — by a header that
// came before it or, for a frame that travels alone, by its own length
// (n = len(frame)/4): exactly n ids, and a sequence the embedding accepts
// (1 ≤ n ≤ MaxSeq, every id in the vocabulary).
func ParseTokens(frame []byte, n int, e *model.Embedding) ([]int, error) {
	if len(frame) != 4*n {
		return nil, fmt.Errorf("positionwise: %d bytes of token ids for %d positions", len(frame), n)
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = int(binary.LittleEndian.Uint32(frame[4*i:]))
	}
	if err := e.CheckTokens(ids); err != nil {
		return nil, err
	}
	return ids, nil
}

// Scatter is the terminal's sending half: it ships the same frames, in order,
// to each of the given ranks (Algorithm 2, line 2).
func Scatter(ctx context.Context, p comm.Peer, ranks []int, frames ...[]byte) error {
	for _, r := range ranks {
		for _, f := range frames {
			if err := p.Send(ctx, r, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// Assemble is the terminal's receiving half: one last-layer partition from
// each of ranks, stacked in that order (Algorithm 2, line 8). ranges[i] is
// what ranks[i] answers with (Read.Replies); a partition of any other size is
// refused in its sender's name. Decoded partitions pass through pool (nil-safe); the result
// is the caller's own.
func Assemble(ctx context.Context, p comm.Peer, pool *tensor.MatrixPool, ranks []int, ranges []partition.Range) (*tensor.Matrix, error) {
	if len(ranges) != len(ranks) {
		return nil, fmt.Errorf("positionwise: %d ranges for %d ranks", len(ranges), len(ranks))
	}
	parts := make([]*tensor.Matrix, 0, len(ranks))
	defer func() {
		for _, part := range parts {
			pool.Put(part)
		}
	}()
	for i, r := range ranks {
		got, err := p.Recv(ctx, r)
		if err != nil {
			return nil, err
		}
		part, _, err := tensor.DecodePooled(pool, got)
		comm.ReleaseBuffer(got)
		if err != nil {
			return nil, fmt.Errorf("positionwise: partition from rank %d: %w", r, err)
		}
		parts = append(parts, part)
		if part.Rows() != ranges[i].Len() {
			return nil, &comm.RemoteError{Rank: r, Err: fmt.Errorf(
				"positionwise: a partition of %d rows for the range %v", part.Rows(), ranges[i])}
		}
	}
	return tensor.ConcatRows(parts...)
}
