// Command voltage-worker runs a genuinely distributed Voltage deployment
// across processes (or machines): every device runs one process, the
// processes assemble a TCP mesh from a shared address list, and the
// terminal process drives inference requests through the worker pool with
// Algorithm 2.
//
// Start K workers and one terminal, all with the same -addrs list (worker
// ranks 0..K-1, terminal last):
//
//	voltage-worker -rank 0 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//	voltage-worker -rank 1 -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//	voltage-worker -rank 2 -terminal -words 200 \
//	    -addrs 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002
//
// Every process materializes identical model weights from -seed, so no
// weights cross the network — only activations, exactly as in the paper.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"voltage/internal/comm"
	"voltage/internal/metrics"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/partition"
	"voltage/internal/positionwise"
	"voltage/internal/tensor"
	"voltage/internal/tokenizer"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "voltage-worker:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("voltage-worker", flag.ContinueOnError)
	rank := fs.Int("rank", 0, "this process's rank in the address list")
	addrList := fs.String("addrs", "", "comma-separated host:port list; last entry is the terminal")
	terminal := fs.Bool("terminal", false, "run as the terminal device (must be the last rank)")
	modelName := fs.String("model", "bert", "model preset")
	layers := fs.Int("layers", 2, "stack depth (0 = full paper depth)")
	seed := fs.Int64("seed", 1, "shared weight seed")
	text := fs.String("text", "", "input text (terminal only)")
	words := fs.Int("words", 200, "synthetic word count when -text is empty")
	requests := fs.Int("requests", 1, "number of inference requests (terminal only)")
	bandwidth := fs.Float64("bandwidth", 0, "egress shaping in Mbps (0 = unshaped)")
	timeout := fs.Duration("timeout", 10*time.Minute, "mesh formation + serving budget")
	opTimeout := fs.Duration("op-timeout", 0, "per-message watchdog deadline (0 = none)")
	admin := fs.String("admin", "", "HTTP admin listener address (serves /metrics, /healthz, pprof; port 0 picks a free port)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := model.Presets(*modelName)
	if err != nil {
		return err
	}
	if *layers > 0 {
		cfg = cfg.Scaled(*layers)
	}
	tensor.SetWorkers(1) // single-CPU device emulation
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	addrs := strings.Split(*addrList, ",")
	if len(addrs) < 2 {
		return fmt.Errorf("need at least one worker and one terminal in -addrs")
	}
	if *terminal && *rank != len(addrs)-1 {
		return fmt.Errorf("terminal must be the last rank (%d)", len(addrs)-1)
	}

	// The admin listener starts before the (blocking) mesh formation so a
	// forming or wedged deployment can still be probed; the traffic
	// counters read through a holder that is populated once the mesh is up.
	var holder peerHolder
	if *admin != "" {
		srv, err := startMeshAdmin(*admin, *rank, &holder)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(w, "admin listening on %s\n", srv.Addr())
	}

	profile := netem.Profile{BandwidthMbps: *bandwidth}
	mesh, err := comm.NewTCPMesh(ctx, *rank, addrs, profile)
	if err != nil {
		return err
	}
	// Every payload crossing the mesh rides in a checksummed frame, and an
	// optional watchdog turns silent drops into typed comm.ErrTimeout. All
	// ranks must agree on the framing, so it is unconditional.
	peer := comm.WithOpTimeout(comm.NewFramed(mesh), *opTimeout)
	defer peer.Close()
	holder.set(peer)

	k := len(addrs) - 1
	if *terminal {
		return runTerminal(ctx, w, peer, cfg, k, *seed, *text, *words, *requests)
	}
	return runWorker(ctx, w, peer, cfg, k, *rank, *seed)
}

// peerHolder hands the admin listener a peer that does not exist yet when
// the listener starts (mesh formation blocks). Reads before set() see zero
// stats.
type peerHolder struct {
	mu sync.Mutex
	p  comm.Peer
}

func (h *peerHolder) set(p comm.Peer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.p = p
}

func (h *peerHolder) stats() comm.Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.p == nil {
		return comm.Stats{}
	}
	return h.p.Stats()
}

func (h *peerHolder) formed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.p != nil
}

// startMeshAdmin serves this process's transport counters and liveness for
// a TCP-mesh deployment. (The richer serving metrics live in the cluster
// runtime; a mesh process exposes what it has — its own link traffic.)
func startMeshAdmin(addr string, rank int, holder *peerHolder) (*metrics.AdminServer, error) {
	reg := metrics.NewRegistry()
	reg.CounterFunc("voltage_comm_bytes_sent_total",
		"Payload bytes sent by this process (framing overhead excluded).",
		func() float64 { return float64(holder.stats().BytesSent) })
	reg.CounterFunc("voltage_comm_bytes_recv_total",
		"Payload bytes received by this process.",
		func() float64 { return float64(holder.stats().BytesRecv) })
	reg.CounterFunc("voltage_comm_msgs_sent_total",
		"Messages sent by this process.",
		func() float64 { return float64(holder.stats().MsgsSent) })
	reg.CounterFunc("voltage_comm_msgs_recv_total",
		"Messages received by this process.",
		func() float64 { return float64(holder.stats().MsgsRecv) })
	health := func() metrics.Health {
		return metrics.Health{OK: true, Detail: map[string]any{
			"rank": rank, "mesh_formed": holder.formed(),
		}}
	}
	return metrics.StartAdmin(addr, reg, health)
}

// runWorker serves token classifies until the terminal sends an empty
// shutdown frame: the device code the emulated cluster runs (package
// positionwise) — a frame of token ids in, the pass cut down to the
// classifier's pooled row — unpaced and unobserved.
func runWorker(ctx context.Context, w io.Writer, peer comm.Peer, cfg model.Config, k, rank int, seed int64) error {
	m, err := model.NewRandom(cfg, seed)
	if err != nil {
		return err
	}
	scheme, err := partition.Even(k)
	if err != nil {
		return err
	}
	group, err := comm.NewSubgroup(peer, workerRanks(k))
	if err != nil {
		return err
	}
	term := k
	dev := &positionwise.Device{Model: m, Peer: peer, Terminal: term, Group: group, Ex: comm.NewExchange(nil)}
	fmt.Fprintf(w, "worker %d ready (%s, %d layers)\n", rank, cfg.Name, cfg.Layers)
	for {
		blob, err := peer.Recv(ctx, term)
		if err != nil {
			return err
		}
		if len(blob) == 0 {
			fmt.Fprintf(w, "worker %d shutting down\n", rank)
			return nil
		}
		ids, err := positionwise.ParseTokens(blob, len(blob)/4, m.Embed)
		if err != nil {
			return err
		}
		ranges, err := positionwise.Slice(m, scheme, len(ids), false)
		if err != nil {
			return err
		}
		read := positionwise.Pooled(m.Classifier, ranges)
		if _, err := dev.RunTokens(ctx, ids, ranges, read); err != nil {
			return err
		}
	}
}

// workerRanks lists the worker ranks [0, k); the terminal is rank k.
func workerRanks(k int) []int {
	ranks := make([]int, k)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// runTerminal drives requests: scatter the token ids, collect the pooled row,
// classify.
func runTerminal(ctx context.Context, w io.Writer, peer comm.Peer, cfg model.Config,
	k int, seed int64, text string, words, requests int) error {
	m, err := model.NewRandom(cfg, seed)
	if err != nil {
		return err
	}
	scheme, err := partition.Even(k)
	if err != nil {
		return err
	}
	tok, err := tokenizer.New(cfg.VocabSize)
	if err != nil {
		return err
	}
	var ids []int
	if text != "" {
		ids = tok.Encode(text)
	} else {
		n := words
		if n+2 > cfg.MaxSeq {
			n = cfg.MaxSeq - 2
		}
		ids = tok.EncodeWords(n, 7)
	}
	ranks := workerRanks(k)
	if err := m.Embed.CheckTokens(ids); err != nil {
		return err
	}
	ranges, err := positionwise.Slice(m, scheme, len(ids), false)
	if err != nil {
		return err
	}
	read := positionwise.Pooled(m.Classifier, ranges)
	for req := 0; req < requests; req++ {
		start := time.Now()
		if err := positionwise.Scatter(ctx, peer, ranks, positionwise.TokenFrame(ids)); err != nil {
			return err
		}
		out, err := positionwise.Assemble(ctx, peer, nil, ranks, read.Replies(ranges))
		if err != nil {
			return err
		}
		latency := time.Since(start)
		class, err := m.Classifier.Predict(out)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "request %d: class=%d latency=%v N=%d K=%d\n",
			req, class, latency.Round(time.Millisecond), len(ids), k)
	}
	// Shutdown: empty frame to every worker.
	return positionwise.Scatter(ctx, peer, ranks, []byte{})
}
