package main

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// recorder is the in-memory client end of one request: it keeps the
// response and stamps the clock at every Flush, which is when a streamed
// token becomes visible to a caller. No sockets, no parsing in the loop.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
	stamps []time.Time
}

func newRecorder(flushes int) *recorder {
	return &recorder{hdr: make(http.Header), stamps: make([]time.Time, 0, flushes)}
}

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) Flush() { r.stamps = append(r.stamps, time.Now()) }

// sample is one request as its client saw it.
type sample struct {
	Req    *planReq
	Client int // closed loop: which caller; open loop: -1
	// Start is when the request was due (open loop) or sent (closed
	// loop); latencies count from it. Sent is when the handler was
	// entered, so Sent−Start is how late the generator ran.
	Start, Sent, End time.Time
	Stamps           []time.Time
	Status           int
	Body             []byte
	// Inflight is the number of requests in flight when this one was
	// sent (open loop only): backlog growth shows as its rise.
	Inflight int
	// SpanID is the request's root span in a traced run.
	SpanID uint64
}

// segment is one warm-up plus one timed window of a workload's traffic
// against a booted system.
type segment struct {
	Name      string
	Warm, Dur time.Duration
	// Open loop: arrival offsets from traffic start for the warm-up and
	// the timed window, and the rate they were drawn at.
	RPS          float64
	WarmArrivals []time.Duration
	Arrivals     []time.Duration
	// DeckStart is the deck index of the first timed request.
	DeckStart int
	Operating bool
}

// usage is process-wide resource use at one instant.
type usage struct {
	At  time.Time
	CPU time.Duration
	Mem runtime.MemStats // zero unless asked for
}

// readUsage samples process CPU time; with mem it also reads the Go
// heap counters, which briefly stops the world, so only traced runs ask.
func readUsage(mem bool) usage {
	u := usage{At: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if mem {
		runtime.ReadMemStats(&u.Mem)
	}
	return u
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// segmentRun is what one segment produced.
type segmentRun struct {
	Seg     *segment
	Samples []sample
	Begin   usage // timed window opened
	End     usage // timed window closed
	// The system's own accounting before the first request and after the
	// last response (the oracle reconciles these with the client's), and
	// its counters at the window's edges in a traced run.
	Before, After    counts
	WinBegin, WinEnd map[string]float64
}

// runSegment drives one segment of w's traffic through the handler.
func runSegment(s *sut, w *workload, pl *plan, seg *segment, tr *tracer, withMem bool) *segmentRun {
	run := &segmentRun{Seg: seg, Before: snapshotCounts(s)}

	// The window's resource use is read by a timer of its own, so that
	// no client does measurement work between two requests.
	var marks sync.WaitGroup
	marks.Add(1)
	t0 := time.Now() // traffic start
	go func() {
		defer marks.Done()
		time.Sleep(time.Until(t0.Add(seg.Warm)))
		if tr != nil {
			run.WinBegin = snapshotCounts(s).Engine
		}
		tr.openWindow()
		run.Begin = readUsage(withMem)
		time.Sleep(time.Until(t0.Add(seg.Warm + seg.Dur)))
		run.End = readUsage(withMem)
		tr.closeWindow()
		if tr != nil {
			run.WinEnd = snapshotCounts(s).Engine
		}
	}()

	if w.closed() {
		run.Samples = runClosed(s.h, w, pl, seg, t0, tr)
	} else {
		run.Samples = runOpen(s.h, pl, seg, t0, tr)
	}
	marks.Wait()
	run.After = snapshotCounts(s)
	return run
}

// do sends one request and waits for its response.
func do(h http.Handler, sm *sample, tr *tracer) {
	rec := newRecorder(sm.Req.Steps + 1)
	ctx := context.Background()
	var handlerID uint64
	if tr != nil {
		sm.SpanID, handlerID = tr.newID(), tr.newID()
		ctx = context.WithValue(ctx, spanKey{}, [2]uint64{sm.SpanID, handlerID})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, sm.Req.Kind.path(), bytes.NewReader(sm.Req.Body))
	if err != nil {
		sm.Status = -1
		return
	}
	sm.Sent = time.Now()
	h.ServeHTTP(rec, req)
	sm.End = time.Now()
	sm.Stamps, sm.Status, sm.Body = rec.stamps, rec.status, rec.body.Bytes()
	if tr != nil {
		tr.add(spanRec{ID: sm.SpanID, Name: "request", Req: sm.SpanID, Start: sm.Start, End: sm.End})
		tr.add(spanRec{ID: handlerID, Parent: sm.SpanID, Name: "server.handler", Req: sm.SpanID, Start: sm.Sent, End: sm.End})
	}
}

// runClosed runs w.Clients callers, each blocked on its reply before it
// sends the next request of the shared deck, until the window closes;
// requests in flight then are waited for.
func runClosed(h http.Handler, w *workload, pl *plan, seg *segment, t0 time.Time, tr *tracer) []sample {
	stop := t0.Add(seg.Warm + seg.Dur)
	var cursor atomic.Int64
	cursor.Store(int64(seg.DeckStart))
	perClient := make([][]sample, w.Clients)
	var wg sync.WaitGroup
	for c := 0; c < w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if w.Clients > 1 {
				time.Sleep(w.Stagger * time.Duration(c) / time.Duration(w.Clients-1))
			}
			for time.Now().Before(stop) {
				sm := sample{Req: pl.at(int(cursor.Add(1) - 1)), Client: c, Start: time.Now()}
				do(h, &sm, tr)
				perClient[c] = append(perClient[c], sm)
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all
}

// runOpen sends every planned arrival at its due time whether or not
// earlier ones have been answered, then waits for the stragglers. Each
// request gets a goroutine of its own that blocks until the reply.
func runOpen(h http.Handler, pl *plan, seg *segment, t0 time.Time, tr *tracer) []sample {
	n := len(seg.WarmArrivals) + len(seg.Arrivals)
	samples := make([]sample, n)
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	for i := 0; i < n; i++ {
		var due time.Duration
		var deck int
		if i < len(seg.WarmArrivals) {
			// Warm-up requests come from the far half of the deck, so
			// that the timed window starts on a block boundary.
			due, deck = seg.WarmArrivals[i], len(pl.Deck)/2+seg.DeckStart+i
		} else {
			j := i - len(seg.WarmArrivals)
			due, deck = seg.Warm+seg.Arrivals[j], seg.DeckStart+j
		}
		sm := &samples[i]
		sm.Req, sm.Client, sm.Start = pl.at(deck), -1, t0.Add(due)
		time.Sleep(time.Until(sm.Start))
		sm.Inflight = int(inflight.Add(1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(h, sm, tr)
			inflight.Add(-1)
		}()
	}
	wg.Wait()
	return samples
}

// openSegment draws the arrivals of one open-loop segment from the seed.
func openSegment(name string, seed int64, rps float64, warm, dur time.Duration, deckStart int) *segment {
	rng := rand.New(rand.NewSource(seed ^ int64(deckStart+1)<<20))
	return &segment{
		Name: name, Warm: warm, Dur: dur, RPS: rps, DeckStart: deckStart,
		WarmArrivals: arrivals(rng, rps, warm.Seconds()),
		Arrivals:     arrivals(rng, rps, dur.Seconds()),
	}
}
