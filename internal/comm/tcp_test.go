package comm

import (
	"context"
	"fmt"
	"testing"
	"time"

	"voltage/internal/netem"
	"voltage/internal/tensor"
)

func tcpMesh(t testing.TB, k int, profile netem.Profile) []*TCPPeer {
	t.Helper()
	peers, err := NewLocalTCPMesh(context.Background(), k, profile)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, p := range peers {
			_ = p.Close()
		}
	})
	return peers
}

func TestTCPMeshValidation(t *testing.T) {
	if _, err := NewLocalTCPMesh(context.Background(), 0, netem.Unlimited); err == nil {
		t.Fatal("want error for k=0")
	}
}

func TestTCPSendRecv(t *testing.T) {
	peers := tcpMesh(t, 3, netem.Unlimited)
	ctx := context.Background()
	go func() {
		_ = peers[2].Send(ctx, 0, []byte("over tcp"))
	}()
	got, err := peers[0].Recv(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "over tcp" {
		t.Fatalf("got %q", got)
	}
	if peers[1].Rank() != 1 || peers[1].Size() != 3 {
		t.Fatal("rank/size broken")
	}
}

func TestTCPInvalidRanks(t *testing.T) {
	peers := tcpMesh(t, 2, netem.Unlimited)
	ctx := context.Background()
	if err := peers[0].Send(ctx, 0, nil); err == nil {
		t.Fatal("want error sending to self")
	}
	if _, err := peers[0].Recv(ctx, 7); err == nil {
		t.Fatal("want error receiving from OOB rank")
	}
}

func TestTCPCollectives(t *testing.T) {
	peers := tcpMesh(t, 3, netem.Unlimited)
	base := tensor.NewRNG(3).Normal(6, 6, 1)
	want := tensor.Scale(base, 6) // 1+2+3
	errs := make(chan error, 3)
	for _, p := range peers {
		go func(p Peer) {
			mine := tensor.Scale(base, float32(p.Rank()+1))
			got, err := RingAllReduceSum(context.Background(), p, mine)
			if err == nil && !got.AlmostEqual(want, 1e-3) {
				err = fmt.Errorf("rank %d wrong sum", p.Rank())
			}
			errs <- err
		}(p)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPEgressShaping(t *testing.T) {
	// 1 MB at 160 Mbps (20 MB/s) ≈ 50 ms.
	peers := tcpMesh(t, 2, netem.Profile{BandwidthMbps: 160})
	ctx := context.Background()
	payload := make([]byte, 1<<20)
	start := time.Now()
	go func() { _ = peers[0].Send(ctx, 1, payload) }()
	if _, err := peers[1].Recv(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("shaped send finished in %v, want ≥~50ms", elapsed)
	}
}

func TestTCPStats(t *testing.T) {
	peers := tcpMesh(t, 2, netem.Unlimited)
	ctx := context.Background()
	sent := make(chan error, 1)
	go func() { sent <- peers[0].Send(ctx, 1, make([]byte, 512)) }()
	if _, err := peers[1].Recv(ctx, 0); err != nil {
		t.Fatal(err)
	}
	// The receiver can hold the bytes before Send has counted them.
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if s := peers[0].Stats(); s.BytesSent != 512 || s.MsgsSent != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	peers := tcpMesh(t, 2, netem.Unlimited)
	done := make(chan error, 1)
	go func() {
		_, err := peers[1].Recv(context.Background(), 0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	_ = peers[1].Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil after close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv not unblocked by Close")
	}
	if err := peers[1].Send(context.Background(), 0, []byte("x")); err == nil {
		t.Fatal("Send after close should fail")
	}
	_ = peers[1].Close() // double close safe
}

func TestTCPRecvDeadline(t *testing.T) {
	peers := tcpMesh(t, 2, netem.Unlimited)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := peers[0].Recv(ctx, 1); err == nil {
		t.Fatal("want timeout error")
	}
}

func TestTCPLargeMessage(t *testing.T) {
	peers := tcpMesh(t, 2, netem.Unlimited)
	ctx := context.Background()
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i)
	}
	go func() { _ = peers[0].Send(ctx, 1, big) }()
	got, err := peers[1].Recv(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big) {
		t.Fatalf("got %d bytes", len(got))
	}
	for i := 0; i < len(big); i += 99991 {
		if got[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}
