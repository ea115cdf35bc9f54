package comm

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Integrity-checked framing. Every payload crossing a FramedPeer carries a
// fixed 12-byte header:
//
//	offset  size  field
//	0       2     magic (0x564C, "VL")
//	2       1     version (currently 1)
//	3       1     flags (reserved, must be 0)
//	4       4     payload length, little-endian uint32
//	8       4     CRC32-Castagnoli of the payload, little-endian uint32
//
// A receiver that sees a bad magic, an unknown version, a length that
// disagrees with the message size, or a CRC mismatch returns ErrCorrupt
// (wrapped in a RemoteError naming the sender) instead of handing garbage
// bytes to the tensor decoder. The transports below already preserve
// message boundaries, so the length field is pure cross-validation.
//
// Stats discipline: FramedPeer keeps its own counters over payload bytes
// only — the 12-byte header is framing overhead and, per the Stats
// contract, excluded so the numbers stay comparable with the paper's
// communication formulas.

const (
	frameMagic   = 0x564C
	frameVersion = 1
	frameHeader  = 12
)

// frameTable is the CRC32 polynomial used for payload checksums.
var frameTable = crc32.MakeTable(crc32.Castagnoli)

// FramedPeer wraps a transport with the checksummed frame format above.
// Both ends of every link must be framed symmetrically.
type FramedPeer struct {
	base  Peer
	stats counters
	taps  []FaultTap
}

var _ Peer = (*FramedPeer)(nil)
var _ Flusher = (*FramedPeer)(nil)

// NewFramed wraps base so every payload is integrity-checked in transit.
// Optional taps observe every corrupt frame (blaming its sender); nil taps
// are skipped.
func NewFramed(base Peer, taps ...FaultTap) *FramedPeer {
	return &FramedPeer{base: base, taps: nonNilTaps(taps)}
}

// nonNilTaps drops nil entries so variadic call sites can pass a possibly
// unset tap without guarding.
func nonNilTaps(taps []FaultTap) []FaultTap {
	out := taps[:0]
	for _, t := range taps {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// Rank implements Peer.
func (p *FramedPeer) Rank() int { return p.base.Rank() }

// Size implements Peer.
func (p *FramedPeer) Size() int { return p.base.Size() }

// Send implements Peer, prepending the frame header. The framed copy is a
// pooled buffer released after the inner Send returns (the Peer contract
// guarantees the transport does not retain it).
func (p *FramedPeer) Send(ctx context.Context, to int, data []byte) error {
	buf := GetBuffer(frameHeader + len(data))
	binary.LittleEndian.PutUint16(buf, frameMagic)
	buf[2] = frameVersion
	buf[3] = 0
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(data)))
	binary.LittleEndian.PutUint32(buf[8:], crc32.Checksum(data, frameTable))
	copy(buf[frameHeader:], data)
	// Counted before the frame is handed over: whoever reads these counters
	// after receiving the message finds it counted — the cluster takes a
	// request's traffic as their difference across its pass.
	p.stats.sent(len(data))
	err := p.base.Send(ctx, to, buf)
	ReleaseBuffer(buf)
	if err != nil {
		p.stats.unsent(len(data))
	}
	return err
}

// Recv implements Peer, validating the frame before releasing the payload
// to the caller. Corruption resolves as ErrCorrupt attributed to the
// sender; the returned payload aliases the transport's buffer past the
// header, so callers may still ReleaseBuffer it after decoding.
func (p *FramedPeer) Recv(ctx context.Context, from int) ([]byte, error) {
	blob, err := p.base.Recv(ctx, from)
	if err != nil {
		return nil, err
	}
	if err := verifyFrame(blob); err != nil {
		ReleaseBuffer(blob)
		for _, tap := range p.taps {
			tap(FaultCorrupt, from)
		}
		return nil, &RemoteError{Rank: from, Err: err}
	}
	payload := blob[frameHeader:]
	p.stats.received(len(payload))
	return payload, nil
}

// verifyFrame checks one framed message, returning an ErrCorrupt-wrapped
// description of the first violation.
func verifyFrame(blob []byte) error {
	if len(blob) < frameHeader {
		return fmt.Errorf("%w: short frame (%d bytes)", ErrCorrupt, len(blob))
	}
	if m := binary.LittleEndian.Uint16(blob); m != frameMagic {
		return fmt.Errorf("%w: bad magic %#04x", ErrCorrupt, m)
	}
	if v := blob[2]; v != frameVersion {
		return fmt.Errorf("%w: unsupported frame version %d", ErrCorrupt, v)
	}
	if blob[3] != 0 {
		return fmt.Errorf("%w: reserved flags %#02x", ErrCorrupt, blob[3])
	}
	n := binary.LittleEndian.Uint32(blob[4:])
	if int(n) != len(blob)-frameHeader {
		return fmt.Errorf("%w: declared %d payload bytes, frame carries %d", ErrCorrupt, n, len(blob)-frameHeader)
	}
	want := binary.LittleEndian.Uint32(blob[8:])
	if got := crc32.Checksum(blob[frameHeader:], frameTable); got != want {
		return fmt.Errorf("%w: crc %#08x, want %#08x", ErrCorrupt, got, want)
	}
	return nil
}

// Stats implements Peer with payload-only counters (framing overhead
// excluded, matching the paper's communication-size accounting).
func (p *FramedPeer) Stats() Stats { return p.stats.snapshot() }

// Flush delegates the optional Flusher capability to the wrapped transport,
// so fencing through a framed peer reaches the mesh's buffered links.
func (p *FramedPeer) Flush() bool { return TryFlush(p.base) }

// Close implements Peer by closing the underlying transport.
func (p *FramedPeer) Close() error { return p.base.Close() }
