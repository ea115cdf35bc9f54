package comm

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"voltage/internal/netem"
)

// framedPair wraps both ends of a two-peer mem mesh symmetrically.
func framedPair(t *testing.T) (*FramedPeer, *FramedPeer) {
	t.Helper()
	peers := memPair(t, 2, netem.Unlimited)
	return NewFramed(peers[0]), NewFramed(peers[1])
}

func TestFramedRoundTrip(t *testing.T) {
	a, b := framedPair(t)
	ctx := context.Background()
	for _, payload := range [][]byte{
		[]byte("hello"),
		{},  // zero-payload frames are valid (generation shutdown uses them)
		{0}, // single byte
	} {
		go func() { _ = a.Send(ctx, 1, payload) }()
		got, err := b.Recv(ctx, 0)
		if err != nil {
			t.Fatalf("recv %q: %v", payload, err)
		}
		if string(got) != string(payload) {
			t.Fatalf("round trip: got %q, want %q", got, payload)
		}
	}
}

func TestFramedDetectsCorruption(t *testing.T) {
	// A bit flip anywhere in the framed message (here: the first byte, via
	// FlakyPeer) must resolve as ErrCorrupt attributed to the sender.
	peers := memPair(t, 2, netem.Unlimited)
	sender := NewFramed(&FlakyPeer{Inner: peers[0], CorruptEvery: 1})
	receiver := NewFramed(peers[1])
	ctx := context.Background()
	go func() { _ = sender.Send(ctx, 1, []byte("payload")) }()
	_, err := receiver.Recv(ctx, 0)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	if r, ok := RemoteRank(err); !ok || r != 0 {
		t.Fatalf("corruption should blame sender rank 0, got (%d, %v)", r, ok)
	}
}

func TestFramedStatsCountPayloadOnly(t *testing.T) {
	a, b := framedPair(t)
	ctx := context.Background()
	payload := make([]byte, 100)
	sent := make(chan error, 1)
	go func() { sent <- a.Send(ctx, 1, payload) }()
	if _, err := b.Recv(ctx, 0); err != nil {
		t.Fatal(err)
	}
	// The sender counts the bytes once its Send returns, which the receive
	// completing does not imply.
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().BytesSent; got != int64(len(payload)) {
		t.Fatalf("framed sender counted %d bytes, want payload-only %d", got, len(payload))
	}
	if got := b.Stats().BytesRecv; got != int64(len(payload)) {
		t.Fatalf("framed receiver counted %d bytes, want payload-only %d", got, len(payload))
	}
}

// buildFrame assembles a valid frame for direct verifyFrame tests.
func buildFrame(payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint16(buf, frameMagic)
	buf[2] = frameVersion
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[8:], crc32.Checksum(payload, frameTable))
	copy(buf[frameHeader:], payload)
	return buf
}

func TestVerifyFrameViolations(t *testing.T) {
	payload := []byte("abcdef")
	mutate := map[string]func([]byte) []byte{
		"short frame":     func(f []byte) []byte { return f[:frameHeader-1] },
		"bad magic":       func(f []byte) []byte { f[0] ^= 0xFF; return f },
		"bad version":     func(f []byte) []byte { f[2] = 99; return f },
		"nonzero flags":   func(f []byte) []byte { f[3] = 1; return f },
		"length mismatch": func(f []byte) []byte { binary.LittleEndian.PutUint32(f[4:], 3); return f },
		"payload flip":    func(f []byte) []byte { f[frameHeader] ^= 0x01; return f },
		"crc flip":        func(f []byte) []byte { f[8] ^= 0x01; return f },
	}
	if err := verifyFrame(buildFrame(payload)); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	}
	if err := verifyFrame(buildFrame(nil)); err != nil {
		t.Fatalf("clean empty frame rejected: %v", err)
	}
	for name, m := range mutate {
		if err := verifyFrame(m(buildFrame(payload))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
}

func TestFramedOverTCP(t *testing.T) {
	// The frame survives the TCP transport's own length-prefixed framing.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	raw, err := NewLocalTCPMesh(ctx, 2, netem.Unlimited)
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewFramed(raw[0]), NewFramed(raw[1])
	defer a.Close()
	defer b.Close()
	payload := []byte("over tcp")
	go func() { _ = a.Send(ctx, 1, payload) }()
	got, err := b.Recv(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("got %q, want %q", got, payload)
	}
}
