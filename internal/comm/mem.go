package comm

import (
	"context"
	"fmt"
	"sync"
	"time"

	"voltage/internal/netem"
)

// memMessage carries a payload plus the emulated time at which the last
// byte clears the network.
type memMessage struct {
	data    []byte
	readyAt time.Time
}

// MemPeer is an in-process peer connected to its group through Go channels,
// with netem-emulated bandwidth and latency. It is the transport used by
// the experiment harness: one goroutine per emulated device, real wall
// clock, shaped links.
type MemPeer struct {
	rank      int
	links     [][]chan memMessage // links[from][to]
	nics      []*netem.NIC        // one per rank
	lat       time.Duration
	done      chan struct{}
	closeOnce *sync.Once // shared across the mesh
	stats     counters
}

var _ Peer = (*MemPeer)(nil)

// memLinkDepth bounds in-flight messages per directed link. All protocols
// in this repository alternate send/recv per layer, so a shallow queue
// suffices; the depth only has to exceed the collectives' fan-out.
const memLinkDepth = 64

// NewMemMesh builds a fully connected in-memory group of k peers whose
// traffic is shaped by the given network profile. Closing any peer shuts
// down the whole mesh.
func NewMemMesh(k int, profile netem.Profile) ([]*MemPeer, error) {
	if k < 1 {
		return nil, fmt.Errorf("comm: mesh size %d < 1", k)
	}
	links := make([][]chan memMessage, k)
	for i := range links {
		links[i] = make([]chan memMessage, k)
		for j := range links[i] {
			if i != j {
				links[i][j] = make(chan memMessage, memLinkDepth)
			}
		}
	}
	nics := make([]*netem.NIC, k)
	for i := range nics {
		nics[i] = netem.NewNIC(profile.Rate())
	}
	done := make(chan struct{})
	var once sync.Once
	peers := make([]*MemPeer, k)
	for i := range peers {
		peers[i] = &MemPeer{
			rank:      i,
			links:     links,
			nics:      nics,
			lat:       profile.Latency,
			done:      done,
			closeOnce: &once,
		}
	}
	return peers, nil
}

// Rank implements Peer.
func (p *MemPeer) Rank() int { return p.rank }

// Size implements Peer.
func (p *MemPeer) Size() int { return len(p.nics) }

// Send implements Peer. The emulated transfer reserves the sender's egress
// and the receiver's ingress; Send itself returns as soon as the message is
// queued (the NIC reservation, not the caller, carries the delay).
//
// The payload is copied into a pooled buffer, so the caller keeps ownership
// of data (per the Peer contract) and the receiver gets an exclusively
// owned slice it may ReleaseBuffer.
func (p *MemPeer) Send(ctx context.Context, to int, data []byte) error {
	if to < 0 || to >= p.Size() || to == p.rank {
		return fmt.Errorf("comm: send to invalid rank %d from %d", to, p.rank)
	}
	end := netem.Transfer(time.Now(), p.nics[p.rank], p.nics[to], len(data))
	buf := GetBuffer(len(data))
	copy(buf, data)
	msg := memMessage{data: buf, readyAt: end.Add(p.lat)}
	select {
	case p.links[p.rank][to] <- msg:
		p.stats.sent(len(data))
		return nil
	case <-p.done:
		ReleaseBuffer(buf)
		return ErrClosed
	case <-ctx.Done():
		ReleaseBuffer(buf)
		return ctx.Err()
	}
}

// Recv implements Peer, blocking until the emulated arrival time of the
// next message from the given rank.
func (p *MemPeer) Recv(ctx context.Context, from int) ([]byte, error) {
	if from < 0 || from >= p.Size() || from == p.rank {
		return nil, fmt.Errorf("comm: recv from invalid rank %d at %d", from, p.rank)
	}
	select {
	case msg := <-p.links[from][p.rank]:
		if err := netem.SleepUntil(ctx, msg.readyAt); err != nil {
			ReleaseBuffer(msg.data)
			return nil, err
		}
		p.stats.received(len(msg.data))
		return msg.data, nil
	case <-p.done:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Stats implements Peer.
func (p *MemPeer) Stats() Stats { return p.stats.snapshot() }

// Close implements Peer; it shuts down the entire mesh. Closing twice is
// safe.
func (p *MemPeer) Close() error {
	p.closeOnce.Do(func() { close(p.done) })
	return nil
}

// NIC exposes rank r's emulated interface so experiments can change
// bandwidth mid-run (the Fig. 5 sweep).
func (p *MemPeer) NIC(r int) *netem.NIC {
	return p.nics[r]
}

// Flush discards every message buffered on the mesh's links, releasing
// their pooled buffers, and implements the optional Flusher capability
// (always true: the in-memory links are flushable even when empty). It is
// the recovery hook for a protocol aborted mid-flight: a failed collective
// leaves undelivered messages queued on the FIFO links, which would
// misalign the next protocol's stream. The caller must guarantee no rank
// is concurrently sending or receiving (the cluster flushes between rounds,
// once every worker of the ended one has returned).
func (p *MemPeer) Flush() bool {
	for _, row := range p.links {
		for _, ch := range row {
			if ch == nil {
				continue
			}
			for drained := false; !drained; {
				select {
				case msg := <-ch:
					ReleaseBuffer(msg.data)
				default:
					drained = true
				}
			}
		}
	}
	return true
}

// Queued reports the number of undelivered messages buffered across every
// link of the mesh — the residue Flush would discard. Like Flush, it is
// only meaningful while no rank is mid-operation.
func (p *MemPeer) Queued() int {
	n := 0
	for _, row := range p.links {
		for _, ch := range row {
			if ch != nil {
				n += len(ch)
			}
		}
	}
	return n
}

var _ Flusher = (*MemPeer)(nil)
