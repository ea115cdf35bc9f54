package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"voltage"
	"voltage/internal/cluster"
	"voltage/internal/comm"
)

// Spans are recorded here, in the benchmark's own files, around the calls
// into each layer's public seam; nothing inside the program is touched:
//
//	request                 root; load generator, due time → last byte
//	└ server.handler        around Handler().ServeHTTP
//	  └ backend.call        GatewayBackend decorator around the engine;
//	                        token callbacks are events on it
//	transport.send / .recv  comm.Peer decorator per rank; these serve fused
//	                        rounds of many requests, so they are summed
//	                        per rank, not attached to a request
//
// Spans stay in memory until the run ends.

// spanRec is one recorded span.
type spanRec struct {
	ID     uint64
	Parent uint64
	Req    uint64 // root span of the request this belongs to
	Name   string
	Start  time.Time
	End    time.Time
	Events []time.Time // backend.call: one per token callback
}

type spanKey struct{}

// rankIO sums one rank's transport calls inside the timed window.
type rankIO struct {
	sendNs, recvNs   atomic.Int64
	sendMsgs, sendBy atomic.Int64
}

// tracer collects spans and transport totals. A nil *tracer records
// nothing, so untraced runs pay a nil check and no more.
type tracer struct {
	next  atomic.Uint64
	mu    sync.Mutex
	spans []spanRec
	// open gates the transport totals to the timed window.
	open  atomic.Bool
	ranks []*rankIO
}

func newTracer(ranks int) *tracer {
	t := &tracer{ranks: make([]*rankIO, ranks)}
	for i := range t.ranks {
		t.ranks[i] = &rankIO{}
	}
	return t
}

func (t *tracer) newID() uint64 { return t.next.Add(1) }

func (t *tracer) add(s spanRec) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) openWindow() {
	if t != nil {
		t.open.Store(true)
	}
}

func (t *tracer) closeWindow() {
	if t != nil {
		t.open.Store(false)
	}
}

// tracedPeer times one rank's sends and receives.
type tracedPeer struct {
	comm.Peer
	io   *rankIO
	open *atomic.Bool
}

func (t *tracer) wrapTransport(rank int, p comm.Peer) comm.Peer {
	return &tracedPeer{Peer: p, io: t.ranks[rank], open: &t.open}
}

func (p *tracedPeer) Send(ctx context.Context, to int, data []byte) error {
	if !p.open.Load() {
		return p.Peer.Send(ctx, to, data)
	}
	start := time.Now()
	err := p.Peer.Send(ctx, to, data)
	p.io.sendNs.Add(int64(time.Since(start)))
	p.io.sendMsgs.Add(1)
	p.io.sendBy.Add(int64(len(data)))
	return err
}

func (p *tracedPeer) Recv(ctx context.Context, from int) ([]byte, error) {
	if !p.open.Load() {
		return p.Peer.Recv(ctx, from)
	}
	start := time.Now()
	data, err := p.Peer.Recv(ctx, from)
	p.io.recvNs.Add(int64(time.Since(start)))
	return data, err
}

// Flush keeps the mesh's optional flush capability visible through the
// decorator; the cluster's fencing relies on it.
func (p *tracedPeer) Flush() bool { return comm.TryFlush(p.Peer) }

// tracedBackend records a backend.call span around every engine call the
// gateway makes. Embedding the engine keeps its optional capabilities
// (flight recorder, batch width) visible to the gateway, so a traced
// system is configured exactly like an untraced one.
type tracedBackend struct {
	*voltage.Engine
	tr *tracer
}

func (b *tracedBackend) span(ctx context.Context, start time.Time, events []time.Time) {
	ids, _ := ctx.Value(spanKey{}).([2]uint64) // request root, handler span
	b.tr.add(spanRec{ID: b.tr.newID(), Parent: ids[1], Req: ids[0], Name: "backend.call", Start: start, End: time.Now(), Events: events})
}

func (b *tracedBackend) ClassifyTokens(ctx context.Context, strategy voltage.Strategy, ids []int) (*voltage.Prediction, error) {
	start := time.Now()
	pred, err := b.Engine.ClassifyTokens(ctx, strategy, ids)
	b.span(ctx, start, nil)
	return pred, err
}

func (b *tracedBackend) GenerateStream(ctx context.Context, prompt []int, steps int, onToken func(int)) (*cluster.GenerateResult, error) {
	start := time.Now()
	events := make([]time.Time, 0, steps)
	res, err := b.Engine.GenerateStream(ctx, prompt, steps, func(tok int) {
		events = append(events, time.Now())
		onToken(tok)
	})
	b.span(ctx, start, events)
	return res, err
}

// selfTime is a span's duration minus the part of it its children cover.
// Children are clipped to the parent and overlapping children are counted
// once.
func selfTime(parent spanRec, children []spanRec) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var edge time.Time
	for _, v := range ivs {
		if v.a.After(edge) {
			edge = v.a
		}
		if v.b.After(edge) {
			covered += v.b.Sub(edge)
			edge = v.b
		}
	}
	return parent.End.Sub(parent.Start) - covered
}

// dump writes every span, times as nanoseconds since the first span.
func (t *tracer) dump(path string) error {
	t.mu.Lock()
	spans := append([]spanRec(nil), t.spans...)
	t.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	epoch := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	type row struct {
		ID      uint64  `json:"id"`
		Parent  uint64  `json:"parent,omitempty"`
		Req     uint64  `json:"req"`
		Name    string  `json:"name"`
		StartNs int64   `json:"start_ns"`
		EndNs   int64   `json:"end_ns"`
		Events  []int64 `json:"events_ns,omitempty"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		r := row{ID: s.ID, Parent: s.Parent, Req: s.Req, Name: s.Name,
			StartNs: int64(s.Start.Sub(epoch)), EndNs: int64(s.End.Sub(epoch))}
		for _, e := range s.Events {
			r.Events = append(r.Events, int64(e.Sub(epoch)))
		}
		rows[i] = r
	}
	type rankRow struct {
		Rank   int     `json:"rank"`
		SendS  float64 `json:"send_s"`
		RecvS  float64 `json:"recv_wait_s"`
		Msgs   int64   `json:"msgs_sent"`
		BytesS int64   `json:"bytes_sent"`
	}
	out := struct {
		Spans     []row     `json:"spans"`
		Transport []rankRow `json:"transport"`
	}{Spans: rows}
	for r, io := range t.ranks {
		out.Transport = append(out.Transport, rankRow{r, time.Duration(io.sendNs.Load()).Seconds(),
			time.Duration(io.recvNs.Load()).Seconds(), io.sendMsgs.Load(), io.sendBy.Load()})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
