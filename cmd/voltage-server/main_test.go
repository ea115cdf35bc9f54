package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/comm"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/positionwise"
	"voltage/internal/server"
)

type lockedBuilder struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *lockedBuilder) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *lockedBuilder) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

var listenRe = regexp.MustCompile(`gateway listening on (\S+)`)

// startLocal runs the binary in -local mode with -hold and returns the
// gateway's base URL plus the run error channel.
func startLocal(t *testing.T, out *lockedBuilder, extra ...string) (string, <-chan error) {
	t.Helper()
	args := append([]string{
		"-listen", "127.0.0.1:0", "-local", "2", "-layers", "1",
		"-hold", "15s", "-drain-timeout", "5s",
	}, extra...)
	errCh := make(chan error, 1)
	go func() { errCh <- run(args, out) }()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			return "http://" + m[1], errCh
		}
		select {
		case err := <-errCh:
			t.Fatalf("server exited before listening: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never listened:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestServeLocalEndToEnd(t *testing.T) {
	var out lockedBuilder
	base, errCh := startLocal(t, &out)

	// Classification round-trips through the gateway.
	body, _ := json.Marshal(map[string]any{"text": "edge meets transformers"})
	resp, err := http.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var classify struct {
		Class  int       `json:"class"`
		Logits []float32 `json:"logits"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&classify); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(classify.Logits) == 0 {
		t.Fatalf("classify = %d %+v, want 200 with logits", resp.StatusCode, classify)
	}

	// Queue introspection names both classes.
	resp, err = http.Get(base + "/v1/queue")
	if err != nil {
		t.Fatal(err)
	}
	qb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(qb), `"interactive"`) || !strings.Contains(string(qb), `"batch"`) {
		t.Fatalf("/v1/queue = %s, want both classes", qb)
	}

	// Gateway and cluster metric families share one /metrics page.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"voltage_gateway_queue_depth", "voltage_gateway_admitted_total", "voltage_requests_total"} {
		if !strings.Contains(string(mb), want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// SIGINT-equivalent: the -hold path drains; don't wait the full hold.
	// (run exits on its own; just make sure nothing crashed so far.)
	select {
	case err := <-errCh:
		t.Fatalf("server exited early: %v\n%s", err, out.String())
	default:
	}
}

func TestServeLocalShedsWithTinyQueue(t *testing.T) {
	var out lockedBuilder
	// Queue of 1 with 1 worker and paced compute: a burst must shed.
	base, _ := startLocal(t, &out,
		"-queue-interactive", "1", "-gateway-workers", "1", "-device-flops", "2e4")

	const burst = 6
	codes := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{"tokens": []int{1, 2, 3, 4}})
			resp, err := http.Post(base+"/v1/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				codes <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	var ok, shed int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("unexpected status %d", code)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("burst resolved %d ok / %d shed, want both > 0", ok, shed)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), `voltage_gateway_shed_total{cause="queue_full"}`) {
		t.Errorf("/metrics missing queue_full shed counter")
	}
}

func TestServeGenerateStreams(t *testing.T) {
	var out lockedBuilder
	base, _ := startLocal(t, &out, "-model", "tiny-decoder")

	body, _ := json.Marshal(map[string]any{"prompt": []int{1, 2, 3}, "steps": 3})
	resp, err := http.Post(base+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate = %d: %s", resp.StatusCode, raw)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 { // 3 token lines + 1 summary
		t.Fatalf("stream = %d lines, want 4:\n%s", len(lines), raw)
	}
	var final struct {
		Done   bool   `json:"done"`
		Tokens []int  `json:"tokens"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if !final.Done || final.Error != "" || len(final.Tokens) != 6 {
		t.Fatalf("final line = %+v, want done with 6 tokens", final)
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out lockedBuilder
	if err := run([]string{"-local", "0"}, &out); err == nil {
		t.Error("-local 0 accepted")
	}
	if err := run([]string{"-addrs", "127.0.0.1:1"}, &out); err == nil {
		t.Error("single-address mesh accepted")
	}
	if err := run([]string{"-model", "wat"}, &out); err == nil {
		t.Error("unknown model accepted")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestAdminListener(t *testing.T) {
	var out lockedBuilder
	base, _ := startLocal(t, &out, "-admin", "127.0.0.1:0")
	_ = base
	adminRe := regexp.MustCompile(`admin listening on (\S+)`)
	deadline := time.Now().Add(10 * time.Second)
	var admin string
	for {
		if m := adminRe.FindStringSubmatch(out.String()); m != nil {
			admin = "http://" + m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("admin never listened:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := http.Get(admin + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin /healthz = %d: %s", resp.StatusCode, hb)
	}
	resp, err = http.Get(admin + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mb), "voltage_gateway_queue_depth") {
		t.Errorf("admin /metrics missing gateway families:\n%.300s", mb)
	}
}

// TestMeshBackendRefusesAfterAbandonedRequest: a request the caller abandons
// mid-flight is still finished by the workers, and its partitions stay
// queued on the TCP links. The next request of the same length used to
// assemble them as its own answer — another request's output, no error. The
// backend now refuses every request after the first mid-flight failure, with
// an error the gateway answers 503 for.
func TestMeshBackendRefusesAfterAbandonedRequest(t *testing.T) {
	const k = 2
	addrs := make([]string, k+1)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	cfg := model.Tiny()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// The fleet: the device loop of voltage-worker, with rank 0 answering its
	// second request 300 ms late.
	var fleet sync.WaitGroup
	for r := 0; r < k; r++ {
		fleet.Add(1)
		go func() {
			defer fleet.Done()
			mesh, err := comm.NewTCPMesh(ctx, r, addrs, netem.Profile{})
			if err != nil {
				t.Error(err)
				return
			}
			peer := comm.NewFramed(mesh)
			defer peer.Close()
			m, _ := model.NewRandom(cfg, 1)
			scheme, _ := partition.Even(k)
			group, err := comm.NewSubgroup(peer, []int{0, 1})
			if err != nil {
				t.Error(err)
				return
			}
			dev := &positionwise.Device{Model: m, Peer: peer, Terminal: k, Group: group, Ex: comm.NewExchange(nil)}
			for req := 0; ; req++ {
				blob, err := peer.Recv(ctx, k)
				if err != nil || len(blob) == 0 {
					return
				}
				ids, err := positionwise.ParseTokens(blob, len(blob)/4, m.Embed)
				if err != nil {
					t.Error(err)
					return
				}
				if r == 0 && req == 1 {
					time.Sleep(300 * time.Millisecond)
				}
				ranges, _ := scheme.Ranges(len(ids))
				read := positionwise.Pooled(m.Classifier, ranges)
				if _, err := dev.RunTokens(ctx, ids, ranges, read); err != nil {
					return
				}
			}
		}()
	}
	b, err := newMeshBackend(ctx, cfg, addrs, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Wait()
	defer b.close()

	if _, err := b.ClassifyTokens(ctx, cluster.StrategyVoltage, []int{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatalf("clean request: %v", err)
	}
	short, stop := context.WithTimeout(ctx, 50*time.Millisecond)
	_, err = b.ClassifyTokens(short, cluster.StrategyVoltage, []int{6, 5, 4, 3, 2, 1})
	stop()
	if err == nil {
		t.Fatal("abandoned request: answered within 50 ms by a rank that sleeps 300")
	}
	// Let the late rank finish, so the abandoned request's partitions are
	// all queued before the next request of the same length arrives.
	time.Sleep(400 * time.Millisecond)
	pred, err := b.ClassifyTokens(ctx, cluster.StrategyVoltage, []int{9, 8, 7, 9, 8, 7})
	if err == nil {
		t.Fatalf("request after an abandoned one was answered (class %d): it assembled the abandoned request's partitions", pred.Class)
	}
	if got := server.StatusFor(err); got != http.StatusServiceUnavailable {
		t.Fatalf("refusal %q maps to %d, want 503", err, got)
	}
	if _, err := b.ClassifyTokens(ctx, cluster.StrategyTensorParallel, []int{1}); !errors.Is(err, cluster.ErrStrategyNotServed) {
		t.Fatalf("baseline strategy: err = %v, want ErrStrategyNotServed", err)
	}
}
