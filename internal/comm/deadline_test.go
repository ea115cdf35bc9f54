package comm

import (
	"context"
	"errors"
	"testing"
	"time"

	"voltage/internal/netem"
)

func TestOpTimeoutDisabled(t *testing.T) {
	peers := memPair(t, 2, netem.Unlimited)
	if p := WithOpTimeout(peers[0], 0); p != Peer(peers[0]) {
		t.Fatal("zero timeout should return the base peer unchanged")
	}
	if p := WithOpTimeout(peers[0], -time.Second); p != Peer(peers[0]) {
		t.Fatal("negative timeout should return the base peer unchanged")
	}
}

func TestOpTimeoutDropResolvesAsErrTimeout(t *testing.T) {
	// A message that never arrives (dropped upstream) must resolve as a
	// typed ErrTimeout blaming the silent source, not hang.
	peers := memPair(t, 2, netem.Unlimited)
	receiver := WithOpTimeout(peers[1], 30*time.Millisecond)
	start := time.Now()
	_, err := receiver.Recv(context.Background(), 0)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if r, ok := RemoteRank(err); !ok || r != 0 {
		t.Fatalf("timeout should blame source rank 0, got (%d, %v)", r, ok)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
}

func TestOpTimeoutPassesCleanTraffic(t *testing.T) {
	peers := memPair(t, 2, netem.Unlimited)
	a := WithOpTimeout(peers[0], time.Second)
	b := WithOpTimeout(peers[1], time.Second)
	ctx := context.Background()
	sent := make(chan error, 1)
	go func() { sent <- a.Send(ctx, 1, []byte("on time")) }()
	got, err := b.Recv(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "on time" {
		t.Fatalf("got %q", got)
	}
	// The receiver can hold the message before Send has returned and been
	// counted: read the sender's stats only once it has.
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if a.Stats().BytesSent != int64(len("on time")) {
		t.Fatal("stats not delegated through the watchdog")
	}
}

func TestOpTimeoutDoesNotMaskCallerCancel(t *testing.T) {
	// A failure caused by the caller's own context must come back as that
	// context's error, never as an attributed ErrTimeout.
	peers := memPair(t, 2, netem.Unlimited)
	receiver := WithOpTimeout(peers[1], time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := receiver.Recv(ctx, 0)
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("caller cancellation misreported as ErrTimeout: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestOpTimeoutOverFlakyDelay(t *testing.T) {
	// Late delivery within the deadline passes; beyond it, times out.
	peers := memPair(t, 2, netem.Unlimited)
	flaky := &FlakyPeer{Inner: peers[1], DelayEvery: 1, Delay: 5 * time.Millisecond}
	receiver := WithOpTimeout(flaky, 500*time.Millisecond)
	ctx := context.Background()
	go func() { _ = peers[0].Send(ctx, 1, []byte("late")) }()
	if _, err := receiver.Recv(ctx, 0); err != nil {
		t.Fatalf("delay within deadline should deliver: %v", err)
	}

	slow := &FlakyPeer{Inner: peers[1], DelayEvery: 1, Delay: time.Minute}
	strict := WithOpTimeout(slow, 20*time.Millisecond)
	go func() { _ = peers[0].Send(ctx, 1, []byte("too late")) }()
	if _, err := strict.Recv(ctx, 0); !errors.Is(err, ErrTimeout) {
		t.Fatalf("delay past deadline: want ErrTimeout, got %v", err)
	}
}

func TestOpTimeoutUnwatchedRecvOutlivesDeadline(t *testing.T) {
	// An Unwatched wait is not a fault however long the link stays silent:
	// it sits out several deadlines, fires no tap, and still delivers; the
	// caller's cancellation ends it with the caller's error.
	peers := memPair(t, 2, netem.Unlimited)
	taps := 0
	receiver := WithOpTimeout(peers[1], 10*time.Millisecond, func(FaultKind, int) { taps++ })
	go func() {
		time.Sleep(50 * time.Millisecond)
		_ = peers[0].Send(context.Background(), 1, []byte("late"))
	}()
	got, err := receiver.Recv(Unwatched(context.Background()), 0)
	if err != nil || string(got) != "late" {
		t.Fatalf("unwatched recv = %q, %v; want the late message", got, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := receiver.Recv(Unwatched(ctx), 0); !errors.Is(err, context.Canceled) || errors.Is(err, ErrTimeout) {
		t.Fatalf("canceled unwatched recv: %v, want context.Canceled", err)
	}
	if taps != 0 {
		t.Fatalf("%d watchdog taps fired on unwatched waits", taps)
	}
}
