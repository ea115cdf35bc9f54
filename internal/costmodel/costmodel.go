// Package costmodel predicts the latency of distributed transformer
// inference analytically, combining the paper's FLOP counts (Section IV)
// with its communication-volume formulas (Section V-C) and the half-duplex
// NIC model of the netem emulator.
//
// The model serves two purposes: it regenerates the *shapes* of the
// paper's Figures 4 and 5 in microseconds (no heavy math), and it documents
// exactly which analytic quantities drive each curve. The real cluster
// runtime validates it.
package costmodel

import (
	"fmt"
	"time"

	"voltage/internal/cluster"
	"voltage/internal/flopcount"
	"voltage/internal/model"
	"voltage/internal/netem"
	"voltage/internal/positionwise"
)

// DeviceProfile describes one emulated edge device's compute capability.
type DeviceProfile struct {
	// FlopsPerSec is the device's sustained dense-matmul throughput.
	FlopsPerSec float64
}

// EdgeCPU approximates the paper's single-vCPU VMs running MKL-backed
// PyTorch CPU inference (tens of GFLOP/s of sustained dense math; this
// value reproduces the paper's ≈2.3 s single-device BERT-Large latency at
// N=200).
var EdgeCPU = DeviceProfile{FlopsPerSec: 25e9}

// DefaultCommEfficiency is the fraction of line rate a transfer actually
// sustains (TCP/IP framing, imperfect pipelining, synchronization skew).
const DefaultCommEfficiency = 0.6

// System describes a deployment to be costed.
type System struct {
	Model  model.Config
	N      int // transformer sequence length
	K      int // worker devices
	Net    netem.Profile
	Device DeviceProfile
	// CommEfficiency scales the effective bandwidth (0 → use
	// DefaultCommEfficiency; 1 → ideal line rate).
	CommEfficiency float64
}

// Validate reports whether the system is well-formed.
func (s System) Validate() error {
	if err := s.Model.Validate(); err != nil {
		return err
	}
	switch {
	case s.N < 1:
		return fmt.Errorf("costmodel: N = %d", s.N)
	case s.K < 1:
		return fmt.Errorf("costmodel: K = %d", s.K)
	case s.Device.FlopsPerSec <= 0:
		return fmt.Errorf("costmodel: flops/s = %v", s.Device.FlopsPerSec)
	}
	return nil
}

// Breakdown is a latency prediction split into its components.
type Breakdown struct {
	Compute  time.Duration // per-device critical-path math
	Comm     time.Duration // collective communication between layers
	Boundary time.Duration // input broadcast + output collection
}

// Total returns the predicted end-to-end latency.
func (b Breakdown) Total() time.Duration { return b.Compute + b.Comm + b.Boundary }

// seconds converts a float duration safely.
func seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// bytesOf returns the wire size of an r×c float32 activation.
func bytesOf(r, c int) float64 { return 4 * float64(r) * float64(c) }

// xferTime returns the serialization time of b bytes at the profile's
// effective rate (zero when unshaped).
func (s System) xferTime(b float64) float64 {
	rate := s.Net.Rate()
	if rate <= 0 {
		return 0
	}
	eff := s.CommEfficiency
	if eff <= 0 {
		eff = DefaultCommEfficiency
	}
	if eff > 1 {
		eff = 1
	}
	return b / (rate * eff)
}

// lat returns the per-message propagation delay in seconds.
func (s System) lat() float64 { return s.Net.Latency.Seconds() }

// Predict returns the latency breakdown for a strategy.
func (s System) Predict(strategy cluster.Strategy) (Breakdown, error) {
	if err := s.Validate(); err != nil {
		return Breakdown{}, err
	}
	switch strategy {
	case cluster.StrategySingle:
		return s.single(), nil
	case cluster.StrategyVoltage:
		return s.voltage()
	case cluster.StrategyTensorParallel:
		return s.tensorParallel(), nil
	default:
		return Breakdown{}, fmt.Errorf("costmodel: unknown strategy %v", strategy)
	}
}

// layerCost is Γ(Algorithm 1) for one layer computing p rows over a horizon
// of n positions — model.Layer.Cost, from the configuration alone.
func (s System) layerCost(n, p int) (int64, error) {
	shape := flopcount.Shape{N: n, P: p, F: s.Model.F, FH: s.Model.FH()}
	return flopcount.LayerCost(shape, s.Model.Heads, s.Model.FFN, flopcount.SelectOrder(shape))
}

// layerFlopsVoltage is Γ(Algorithm 1) for one layer at partition size P.
func (s System) layerFlopsVoltage(p int) float64 {
	c, err := s.layerCost(s.N, p)
	if err != nil {
		return 0
	}
	return float64(c)
}

// single models the whole stack on one device plus the terminal round trip.
func (s System) single() Breakdown {
	compute := float64(s.Model.Layers) * s.layerFlopsVoltage(s.N) / s.Device.FlopsPerSec
	inOut := 2*s.xferTime(bytesOf(s.N, s.Model.F)) + 2*s.lat()
	return Breakdown{Compute: seconds(compute), Boundary: seconds(inOut)}
}

// voltage models Algorithm 2: per-layer partition compute + one gather, with
// the final layer handing partitions to the terminal. A bidirectional model's
// gather is the All-Gather and its critical path the largest partition. A
// decoder's devices keep only the prefix their slice attends to and the pass
// is cut by cost (positionwise.Slice): the critical path is the heaviest
// member's compute chain under that cut, and its gather the prefix gather,
// half the transfers.
func (s System) voltage() (Breakdown, error) {
	layer := s.layerFlopsVoltage((s.N + s.K - 1) / s.K)
	if s.Model.Kind == model.KindDecoder {
		shares := make([]float64, s.K)
		for i := range shares {
			shares[i] = 1 / float64(s.K)
		}
		ranges, err := positionwise.SliceByCost(shares, s.N, s.layerCost, nil)
		if err != nil {
			return Breakdown{}, err
		}
		layer = 0
		for _, r := range ranges {
			if r.Empty() {
				continue
			}
			c, err := s.layerCost(r.To, r.Len())
			if err != nil {
				return Breakdown{}, err
			}
			layer = max(layer, float64(c))
		}
	}
	compute := float64(s.Model.Layers) * layer / s.Device.FlopsPerSec

	parts := allGatherParts(s.K)
	if s.Model.Kind == model.KindDecoder {
		parts = prefixGatherParts(s.K)
	}
	part := bytesOf(s.N, s.Model.F) / float64(s.K)
	perGather := s.xferTime(parts*part) + s.lat()
	comm := float64(s.Model.Layers-1) * perGather
	if s.K == 1 {
		comm = 0 // no synchronization with a single device
	}

	// Boundary: terminal broadcasts x to K workers (serialized on its
	// egress) and collects K final partitions.
	broadcast := s.xferTime(float64(s.K)*bytesOf(s.N, s.Model.F)) + s.lat()
	collect := s.xferTime(bytesOf(s.N, s.Model.F)) + s.lat()
	return Breakdown{
		Compute:  seconds(compute),
		Comm:     seconds(comm),
		Boundary: seconds(broadcast + collect),
	}, nil
}

// allGatherParts is the time one All-Gather among k devices occupies the
// emulated link, in serialisations of one partition. Each device pushes its
// partition to k−1 peers and pulls k−1 through the same half-duplex interface
// — 2(k−1) per NIC — and netem.Transfer holds the sender's and the receiver's
// NIC for the whole of a transfer, so of the k(k−1) transfers at most ⌊k/2⌋
// are in flight at once: the floor is the larger of the two, 6 at k = 3 where
// the per-NIC count alone says 4.
//
// It predicts the direct exchange the system runs only at k ≤ 3, where that
// schedule meets the floor (measured ×1.00–1.05). From k = 4 on it is a lower
// bound, not a prediction: direct exchange there is schedule-limited and takes
// about 9–10 partition times against a floor of 6 at k = 4 and 16 against 10
// at k = 5 (TestAllGatherTermMatchesTheLink), so Predict's Voltage latency at
// k ≥ 4 is what a perfect schedule would reach, below what is measured. The
// odd/even step in the floor also makes predicted latency fall within each
// parity of k rather than from every k to the next: k = 3 sits above k = 2.
func allGatherParts(k int) float64 {
	if k < 2 {
		return 0
	}
	return float64(max(2*(k-1), k*(k-1)/(k/2)))
}

// prefixGatherParts is allGatherParts for the gather of a causal pass, in
// which a partition goes only to the members after its sender: k(k−1)/2
// transfers, of which the last member takes in k−1 one after the other and at
// most ⌊k/2⌋ are in flight at once — k−1 partition times at even k, k at odd.
// At k ≤ 3 that is every transfer in turn (1 at k = 2, 3 at k = 3) and what
// direct exchange takes; from k = 4 on it is a floor under a schedule-limited
// exchange, as the All-Gather's is (≈ 5.2 partition times against 3 at k = 4,
// 7.2 against 5 at k = 5: TestPrefixGatherTermMatchesTheLink). In a pass the
// members finish a layer in slice order, so part of even this is hidden
// behind the last member's compute; the term prices the gather as if all
// started together.
func prefixGatherParts(k int) float64 {
	if k < 2 {
		return 0
	}
	return float64(max(k-1, k*(k-1)/2/(k/2)))
}

// tpLayerFlops is one device's math in a tensor-parallel layer: H/K heads
// over the full sequence (naive order, P = N), the sliced output
// projection, the sliced FFN, and the replicated layer norms.
func (s System) tpLayerFlops() float64 {
	shape := flopcount.Shape{N: s.N, P: s.N, F: s.Model.F, FH: s.Model.FH()}
	headCost := float64(flopcount.MustCost(shape, flopcount.OrderNaive))
	heads := float64(s.Model.Heads) / float64(s.K)
	n, f, dff := float64(s.N), float64(s.Model.F), float64(s.Model.FFN)
	proj := n * f * f / float64(s.K)
	ffn := 2 * n * f * dff / float64(s.K)
	rest := 4 * n * f // residuals + layer norms, replicated on every device
	return heads*headCost + proj + ffn + rest
}

// tensorParallel models the Megatron baseline: per-layer sharded compute
// plus two ring All-Reduces.
func (s System) tensorParallel() Breakdown {
	compute := float64(s.Model.Layers) * s.tpLayerFlops() / s.Device.FlopsPerSec

	// Ring All-Reduce: 2(K−1) synchronized steps; each step a device sends
	// and receives one N·F/K chunk through its half-duplex NIC.
	chunk := bytesOf(s.N, s.Model.F) / float64(s.K)
	perStep := s.xferTime(2*chunk) + s.lat()
	perReduce := 2 * float64(s.K-1) * perStep
	comm := float64(s.Model.Layers) * 2 * perReduce
	if s.K == 1 {
		comm = 0
	}

	broadcast := s.xferTime(float64(s.K)*bytesOf(s.N, s.Model.F)) + s.lat()
	collect := s.xferTime(bytesOf(s.N, s.Model.F)) + s.lat()
	return Breakdown{
		Compute:  seconds(compute),
		Comm:     seconds(comm),
		Boundary: seconds(broadcast + collect),
	}
}

// CommBytesPerLayer returns the paper's per-device per-layer communication
// volume in bytes for each strategy (Section V-C): Voltage (K−1)NF/K,
// tensor parallelism 4(K−1)NF/K, single device 0. The Voltage figure is the
// All-Gather's, what every device of a bidirectional pass sends; member j of
// a causal pass sends its partition to the K−1−j members after it,
// (K−1−j)·NF/K — half the paper's figure on average, none from the last.
func (s System) CommBytesPerLayer(strategy cluster.Strategy) float64 {
	nf := bytesOf(s.N, s.Model.F)
	switch strategy {
	case cluster.StrategyVoltage:
		return float64(s.K-1) * nf / float64(s.K)
	case cluster.StrategyTensorParallel:
		return 4 * float64(s.K-1) * nf / float64(s.K)
	default:
		return 0
	}
}

// SpeedupVsSingle returns predicted single-device latency divided by the
// strategy's latency — >1 means the distribution helps.
func (s System) SpeedupVsSingle(strategy cluster.Strategy) (float64, error) {
	dist, err := s.Predict(strategy)
	if err != nil {
		return 0, err
	}
	single := s.single()
	return float64(single.Total()) / float64(dist.Total()), nil
}
