package main

import (
	"net"
	"strings"
	"sync"
	"testing"
)

// freePorts reserves n loopback addresses.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		_ = l.Close()
	}
	return addrs
}

func TestWorkerValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-addrs", "onlyone"}, &sb); err == nil {
		t.Fatal("want error for single address")
	}
	if err := run([]string{"-addrs", "a,b", "-model", "bogus"}, &sb); err == nil {
		t.Fatal("want error for unknown model")
	}
	if err := run([]string{"-addrs", "a,b,c", "-terminal", "-rank", "0"}, &sb); err == nil {
		t.Fatal("want error for terminal at non-last rank")
	}
	if err := run([]string{"-bad-flag"}, &sb); err == nil {
		t.Fatal("want error for bad flag")
	}
}

func TestWorkerEndToEndInProcess(t *testing.T) {
	// Two workers + a terminal as goroutines over real TCP: the same code
	// paths as three separate processes.
	addrs := freePorts(t, 3)
	addrList := strings.Join(addrs, ",")
	var wg sync.WaitGroup
	errs := make([]error, 3)
	outs := make([]strings.Builder, 3)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = run([]string{
				"-rank", itoa(r), "-addrs", addrList, "-model", "tiny", "-words", "16",
				"-timeout", "30s",
			}, &outs[r])
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[2] = run([]string{
			"-rank", "2", "-terminal", "-addrs", addrList, "-model", "tiny",
			"-words", "16", "-requests", "2", "-timeout", "30s",
		}, &outs[2])
	}()
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v\n%s", r, err, outs[r].String())
		}
	}
	term := outs[2].String()
	if !strings.Contains(term, "request 0: class=") || !strings.Contains(term, "request 1: class=") {
		t.Fatalf("terminal output:\n%s", term)
	}
	for r := 0; r < 2; r++ {
		if !strings.Contains(outs[r].String(), "shutting down") {
			t.Fatalf("worker %d did not shut down cleanly:\n%s", r, outs[r].String())
		}
	}
}

func itoa(n int) string {
	return string(rune('0' + n))
}
