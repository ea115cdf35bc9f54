package comm

import (
	"context"
	"fmt"
)

// Subgroup is a view of a Peer restricted to a subset of the mesh: ranks
// are renumbered 0..len(members)-1 in member order. Collectives run on a
// Subgroup involve only its members — the cluster runtime uses this to run
// worker-only All-Gathers in a mesh that also contains the terminal device.
type Subgroup struct {
	base    Peer
	members []int // members[i] = base rank of subgroup rank i
	rank    int   // this peer's subgroup rank
}

var _ Peer = (*Subgroup)(nil)

// NewSubgroup wraps base so that only the given base ranks participate.
// base's own rank must be one of the members.
func NewSubgroup(base Peer, members []int) (*Subgroup, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("comm: empty subgroup")
	}
	seen := make(map[int]bool, len(members))
	self := -1
	for i, m := range members {
		if m < 0 || m >= base.Size() {
			return nil, fmt.Errorf("comm: subgroup member %d outside mesh of %d", m, base.Size())
		}
		if seen[m] {
			return nil, fmt.Errorf("comm: duplicate subgroup member %d", m)
		}
		seen[m] = true
		if m == base.Rank() {
			self = i
		}
	}
	if self < 0 {
		return nil, fmt.Errorf("comm: base rank %d not in subgroup %v", base.Rank(), members)
	}
	cp := make([]int, len(members))
	copy(cp, members)
	return &Subgroup{base: base, members: cp, rank: self}, nil
}

// meshRank is the rank by which the mesh under p knows p's member rank: the
// name a RemoteError must carry, since blame is kept by mesh rank.
func meshRank(p Peer, rank int) int {
	if s, ok := p.(*Subgroup); ok && rank >= 0 && rank < len(s.members) {
		return meshRank(s.base, s.members[rank])
	}
	return rank
}

// Rank implements Peer (subgroup-local rank).
func (s *Subgroup) Rank() int { return s.rank }

// Size implements Peer (subgroup size).
func (s *Subgroup) Size() int { return len(s.members) }

// Send implements Peer, translating the subgroup rank to the base mesh.
func (s *Subgroup) Send(ctx context.Context, to int, data []byte) error {
	if to < 0 || to >= len(s.members) {
		return fmt.Errorf("comm: subgroup send to %d of %d", to, len(s.members))
	}
	return s.base.Send(ctx, s.members[to], data)
}

// Recv implements Peer, translating the subgroup rank to the base mesh.
func (s *Subgroup) Recv(ctx context.Context, from int) ([]byte, error) {
	if from < 0 || from >= len(s.members) {
		return nil, fmt.Errorf("comm: subgroup recv from %d of %d", from, len(s.members))
	}
	return s.base.Recv(ctx, s.members[from])
}

// Stats implements Peer, delegating to the base peer (traffic is counted
// once, on the underlying mesh).
func (s *Subgroup) Stats() Stats { return s.base.Stats() }

// Flush delegates the optional Flusher capability to the base peer. Note
// the mesh-wide flush is not restricted to the subgroup's links.
func (s *Subgroup) Flush() bool { return TryFlush(s.base) }

// Close implements Peer. Closing a subgroup closes the underlying peer.
func (s *Subgroup) Close() error { return s.base.Close() }
