package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// span is an inclusive integer range.
type span struct{ Lo, Hi int }

// traffic describes the requests of a workload, independent of how fast
// they are sent and of the device profile that serves them.
type traffic struct {
	// ClassifyShare is the share of /v1/classify requests; the rest are
	// /v1/generate.
	ClassifyShare  float64
	ClassifyPrompt span
	GenPrompt      span
	GenSteps       span
}

// phase is one stretch of open-loop arrivals at a fixed mean rate.
type phase struct {
	RPS     float64
	Seconds float64
	// Operating marks the phase whose numbers are the workload's
	// end-to-end metrics; the others feed slo_rate_rps and the overload
	// metric of the full suite.
	Operating bool
}

// workload is one benchmark workload: who sends what, how, to which
// profile.
type workload struct {
	Name    string
	Profile deviceProfile
	Traffic traffic
	// Closed-loop: Clients callers each wait for a reply before sending
	// the next request; their starts are spread over Stagger.
	Clients int
	Stagger time.Duration
	// Open-loop (Clients == 0): arrivals on a schedule. OperatingRPS is
	// the rate of the contract run; SuitePhases the stepped rates of the
	// full suite.
	OperatingRPS float64
	SuitePhases  []phase
	// SuiteSeconds is the timed window of the full suite.
	SuiteSeconds float64
	// SLO is the workload's service level: how soon a request's first
	// output is due. slo_ok_frac is the share of requests sent that got
	// it in time; the limits sit near twice today's median, where the
	// share is high but not saturated.
	SLO slo
}

// slo holds the first-output limits of the two request classes.
type slo struct {
	ClassifyMS   float64 // full classify response
	FirstTokenMS float64 // first streamed token
}

func (w *workload) closed() bool { return w.Clients > 0 }

var generateTraffic = traffic{GenPrompt: span{32, 96}, GenSteps: span{16, 48}}

// workloads lists the benchmark's workloads in report order.
var workloads = []*workload{
	{
		// Long-prompt classify on paced devices: partition compute plus
		// one All-Gather per layer do the work, decode none.
		Name:         "classify_edge",
		Profile:      edgeProfile,
		Traffic:      traffic{ClassifyShare: 1, ClassifyPrompt: span{64, 128}},
		Clients:      2,
		SuiteSeconds: 30,
		SLO:          slo{ClassifyMS: 400},
	},
	{
		// 8 streams on paced devices: the continuous batcher, fused-step
		// pacing and decode placement set the result.
		Name:         "generate_edge",
		Profile:      edgeProfile,
		Traffic:      generateTraffic,
		Clients:      8,
		Stagger:      200 * time.Millisecond,
		SuiteSeconds: 30,
		SLO:          slo{FirstTokenMS: 300},
	},
	{
		// The generate_edge plan with pacing off: kernels, allocation
		// and runtime overhead set the result.
		Name:         "generate_host",
		Profile:      hostProfile,
		Traffic:      generateTraffic,
		Clients:      8,
		Stagger:      200 * time.Millisecond,
		SuiteSeconds: 30,
		SLO:          slo{FirstTokenMS: 100},
	},
	{
		// Open loop at 12 req/s, 40% classify + 60% generate, about 70%
		// of capacity: queueing, head-of-line blocking, join stalls.
		Name:    "mixed_open_edge",
		Profile: edgeProfile,
		Traffic: traffic{
			ClassifyShare:  0.4,
			ClassifyPrompt: span{8, 32},
			GenPrompt:      span{8, 32},
			GenSteps:       span{8, 24},
		},
		OperatingRPS: 12,
		SuitePhases: []phase{
			{RPS: 8, Seconds: 10},
			{RPS: 12, Seconds: 20, Operating: true},
			{RPS: 24, Seconds: 10},
		},
		SuiteSeconds: 40,
		SLO:          slo{ClassifyMS: 250, FirstTokenMS: 500},
	},
}

// lightened returns w with every length a quarter as long: the traffic of
// a smoke run, whose requests must fit its one-second windows.
func lightened(w *workload) *workload {
	quarter := func(r span) span { return span{max(2, r.Lo/4), max(2, r.Hi/4)} }
	l := *w
	l.Traffic.ClassifyPrompt = quarter(w.Traffic.ClassifyPrompt)
	l.Traffic.GenPrompt = quarter(w.Traffic.GenPrompt)
	l.Traffic.GenSteps = quarter(w.Traffic.GenSteps)
	return &l
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

type reqKind uint8

const (
	kindClassify reqKind = iota
	kindGenerate
)

func (k reqKind) path() string {
	if k == kindClassify {
		return "/v1/classify"
	}
	return "/v1/generate"
}

// planReq is one planned request. Body is encoded at plan time so that
// the load loop does no JSON work of its own.
type planReq struct {
	Kind   reqKind
	Prompt []int
	Steps  int
	Body   []byte
}

// plan is everything a run will send, fixed before the system sees any of
// it. Deck is consumed in order (closed-loop clients share one cursor and
// wrap around); open-loop segments carry their own arrival offsets.
type plan struct {
	Deck []planReq
}

const (
	// deckBlock requests form one stratified block: within a block the
	// class mix is exact and lengths cover their range evenly, so any run
	// of consecutive blocks carries the same volume whatever the seed.
	deckBlock = 40
	// deckBlocks bounds the deck; 2560 requests outlast the longest
	// window at the fastest profile.
	deckBlocks = 64
)

// buildPlan derives the request deck of a workload from the seed alone.
// The device profile is not an input: workloads that share traffic share
// the plan byte for byte.
func buildPlan(w *workload, seed int64) *plan {
	rng := rand.New(rand.NewSource(seed))
	t := w.Traffic
	nClassify := int(t.ClassifyShare*deckBlock + 0.5)
	nGenerate := deckBlock - nClassify
	vocab := benchModel().VocabSize
	pl := &plan{Deck: make([]planReq, 0, deckBlock*deckBlocks)}
	for b := 0; b < deckBlocks; b++ {
		block := make([]planReq, 0, deckBlock)
		for _, n := range stratified(rng, t.ClassifyPrompt, nClassify) {
			block = append(block, planReq{Kind: kindClassify, Prompt: randomTokens(rng, n, vocab)})
		}
		steps := stratified(rng, t.GenSteps, nGenerate)
		for i, n := range stratified(rng, t.GenPrompt, nGenerate) {
			block = append(block, planReq{Kind: kindGenerate, Prompt: randomTokens(rng, n, vocab), Steps: steps[i]})
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		pl.Deck = append(pl.Deck, block...)
	}
	for i := range pl.Deck {
		pl.Deck[i].Body = encodeBody(&pl.Deck[i])
	}
	return pl
}

// stratified draws n lengths from r, one from each of n equal strata, in
// random order: uniform over the range with the volume nearly fixed.
func stratified(rng *rand.Rand, r span, n int) []int {
	out := make([]int, n)
	width := float64(r.Hi - r.Lo + 1)
	for i := range out {
		out[i] = r.Lo + int((float64(i)+rng.Float64())/float64(n)*width)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func randomTokens(rng *rand.Rand, n, vocab int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = rng.Intn(vocab)
	}
	return ids
}

func encodeBody(r *planReq) []byte {
	var v any
	if r.Kind == kindClassify {
		v = struct {
			Tokens   []int  `json:"tokens"`
			Strategy string `json:"strategy"`
		}{r.Prompt, "voltage"}
	} else {
		v = struct {
			Prompt []int `json:"prompt"`
			Steps  int   `json:"steps"`
		}{r.Prompt, r.Steps}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("plan: encode request: %v", err)) // ints and strings only
	}
	return b
}

// at returns deck entry i, wrapping around.
func (p *plan) at(i int) *planReq { return &p.Deck[i%len(p.Deck)] }

// digest fingerprints the plan: kinds, lengths and every body byte.
func (p *plan) digest() uint64 {
	h := fnv.New64a()
	for i := range p.Deck {
		r := &p.Deck[i]
		h.Write([]byte{byte(r.Kind), byte(r.Steps)})
		h.Write(r.Body)
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// arrivals places n = rps·seconds request times in [0, seconds): one per
// slot of 1/rps, at a uniformly random offset inside its slot. The loop is
// open — every request is due at its time whether or not earlier ones were
// answered — and neighbours still bunch up to two slots' worth, but the
// count and the load of every second are the same for every seed. A free
// Poisson stream's swell moved every latency metric by more than its
// bound between seeds at the window a run can afford (see README.md).
func arrivals(rng *rand.Rand, rps, seconds float64) []time.Duration {
	n := int(rps*seconds + 0.5)
	slot := seconds / float64(n)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) * slot * float64(time.Second))
	}
	return out
}
