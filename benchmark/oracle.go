package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"voltage/internal/model"
)

// oracleSample is how many requests per workload are recomputed on the
// solo reference model. Every response is checked structurally (see
// parseResponse); the reference pass costs real matmuls, so it samples.
const oracleSample = 32

// logitTol bounds the classify logits' distance from the single-device
// reference. The position-wise partition reorders the attention matrix
// products (the paper's Theorem 2), so float32 sums differ in the last
// bits; generated tokens, by contrast, must match exactly.
const logitTol = 1e-3

// checkOutputs recomputes a seeded sample of the window's OK responses on
// ref, outside any timed window, and returns how many were wrong.
func checkOutputs(ref *model.Model, run *segmentRun, ws *windowStats, seed int64) (wrong int, first string) {
	var idx []int
	for i, o := range ws.Outcomes {
		if o.OK {
			idx = append(idx, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	if len(idx) > oracleSample {
		idx = idx[:oracleSample]
	}
	errs := make([]error, len(idx))
	var wg sync.WaitGroup
	for n, i := range idx {
		wg.Add(1)
		go func(n, i int) {
			defer wg.Done()
			errs[n] = checkOne(ref, run.Samples[i].Req, &ws.Outcomes[i])
		}(n, i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			wrong++
			if first == "" {
				first = err.Error()
			}
		}
	}
	return wrong, first
}

func checkOne(ref *model.Model, req *planReq, o *outcome) error {
	if req.Kind == kindGenerate {
		want, err := ref.GenerateIncremental(req.Prompt, req.Steps)
		if err != nil {
			return fmt.Errorf("oracle: reference generate: %w", err)
		}
		if len(want) != len(o.Tokens) {
			return fmt.Errorf("oracle: generate returned %d tokens, reference %d", len(o.Tokens), len(want))
		}
		for i := range want {
			if want[i] != o.Tokens[i] {
				return fmt.Errorf("oracle: generate token %d is %d, reference %d", i, o.Tokens[i], want[i])
			}
		}
		return nil
	}
	x, err := ref.Embed.EmbedTokens(req.Prompt)
	if err != nil {
		return fmt.Errorf("oracle: reference embed: %w", err)
	}
	hidden, err := ref.ForwardFeatures(x)
	if err != nil {
		return fmt.Errorf("oracle: reference forward: %w", err)
	}
	want, err := ref.Classifier.Logits(hidden)
	if err != nil {
		return fmt.Errorf("oracle: reference head: %w", err)
	}
	if len(want) != len(o.Logits) {
		return fmt.Errorf("oracle: classify returned %d logits, reference %d", len(o.Logits), len(want))
	}
	for i := range want {
		if d := math.Abs(float64(want[i] - o.Logits[i])); d > logitTol*(1+math.Abs(float64(want[i]))) {
			return fmt.Errorf("oracle: classify logit %d is %g, reference %g", i, o.Logits[i], want[i])
		}
	}
	// The class must be the argmax of the logits that were returned; the
	// reference's own argmax may differ only when its margin is within
	// the tolerance.
	if o.Class != model.Argmax(o.Logits) {
		return fmt.Errorf("oracle: classify class %d is not the argmax of its logits", o.Class)
	}
	return nil
}

// reconcile compares the client's account of a whole segment (warm-up
// included) with the scheduler's and the engine's own counters. Every
// request the client saw answered must appear exactly once on each side.
func reconcile(run *segmentRun, ws *windowStats) error {
	var ok, shed, other int
	for i := range run.Samples {
		switch o := ws.Outcomes[i]; {
		case o.OK:
			ok++
		case o.Shed:
			shed++
		default:
			other++
		}
	}
	var served, failed, sheds uint64
	for i, c := range run.After.Sched.Classes {
		served += c.Served - run.Before.Sched.Classes[i].Served
		failed += c.Failed - run.Before.Sched.Classes[i].Failed
	}
	for cause, n := range run.After.Sched.Shed {
		sheds += n - run.Before.Sched.Shed[cause]
	}
	if int(served) != ok || int(sheds) != shed || int(failed) != other {
		return fmt.Errorf("accounting: client saw %d ok / %d shed / %d failed, scheduler %d served / %d shed / %d failed",
			ok, shed, other, served, sheds, failed)
	}
	const key = `voltage_requests_total{outcome="ok"}`
	if eng := run.After.Engine[key] - run.Before.Engine[key]; int(eng) != ok {
		return fmt.Errorf("accounting: client saw %d ok, engine resolved %d", ok, int(eng))
	}
	return nil
}
