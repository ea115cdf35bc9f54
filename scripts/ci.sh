#!/usr/bin/env bash
# Repository CI gate: vet, build, full test suite, then the concurrency
# suites under the race detector (the serving runtime's correctness claims —
# overlapping requests, per-request traffic, pooled buffers — only mean
# something raced), and finally the chaos stage: the fault-injection suite
# twice under -race, since its bugs are scheduling-dependent by nature.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every background server and temp path a smoke stage creates is registered
# here once; whichever way the script exits, all of them are reaped.
PIDS=()
TMPFILES=()
cleanup() {
    for pid in "${PIDS[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "${TMPFILES[@]}"
}
trap cleanup EXIT

# benchmark/ is the only measurement instrument; the load generator it
# replaced must not come back as a package.
if go list ./... | grep -E 'loadgen|voltage-load'; then
    echo "retired load-generator packages are back in the module" >&2
    exit 1
fi

# A device's share of the positions is its rate, fixed when the cluster is
# built (rateScheme): the closed-loop re-partitioning controller and its
# sensing packages were retired and must not come back.
if [ -e internal/adapt ] || [ -e internal/balance ] \
    || grep -rnE 'InstallScheme|schemeMu' --include='*.go' .; then
    echo "the retired re-partitioning controller is back" >&2
    exit 1
fi

# A rank's speed is configuration (its device rate), not a measurement: the
# profile store and its skew/straggler detector were retired, and per-rank
# time has one path, the request trace and the phase counters.
if grep -rnE 'obs\.Store|NewStore|RecordRound|deviceTime|stepRound|voltage_straggler' --include='*.go' .; then
    echo "the retired profile store or straggler detector is back" >&2
    exit 1
fi

# Algorithm 2's layer loop and its one synchronisation (comm.Exchange.GatherTo:
# the All-Gather, a causal pass's prefix gather, the Gather to a one-row pass's
# reader) live in internal/positionwise and nowhere else: a copy in the cluster
# runtime or a binary would drift from it.
if grep -rnE 'ForwardPartition|AllGatherMatrix|GatherTo' --include='*.go' internal/cluster cmd | grep -v _test.go; then
    echo "the position-wise device protocol is called outside internal/positionwise" >&2
    exit 1
fi

# The serving tree executes one strategy. The baselines it is measured
# against (tensor parallelism, pipeline, the int8 All-Gather) are experiment
# subjects of internal/harness; importing or naming them from the runtime,
# the engine, the gateway or a serving binary would grow a second code path.
if grep -rnE 'voltage/internal/(tparallel|pipeline)"|Quantized' --include='*.go' \
    internal/cluster internal/core internal/server \
    cmd/voltage-run cmd/voltage-worker cmd/voltage-server | grep -v _test.go; then
    echo "a baseline strategy is reachable from the serving tree" >&2
    exit 1
fi

# The serving runtime has one request path: the batcher's terminal loop. No
# second runner, supervisor or collector loop may grow beside it.
if grep -rnE 'strategyRunner|exclusive\(\)|submitSupervised|fenceBegin|collectLoop' --include='*.go' internal/cluster | grep -v _test.go; then
    echo "a second request path is back in internal/cluster" >&2
    exit 1
fi

# Passes overlap on the mesh, so nothing may hold "the pass on the mesh" for
# the whole round: a worker finds its pass's trace and traffic slot by seq
# (round.passes). One round-wide trace pointer would file one request's spans
# under another's.
if grep -rnE 'rd\.tracing|tracing[[:space:]]+atomic\.Pointer' --include='*.go' internal/cluster | grep -v _test.go; then
    echo "a round-wide pass trace is back in internal/cluster" >&2
    exit 1
fi

echo "== gofmt -l ."
if [ -n "$(gofmt -l .)" ]; then
    gofmt -l . >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go vet ./cmd/..."
go vet ./cmd/...

echo "== go build ./..."
go build ./...

echo "== go build ./cmd/..."
go build ./cmd/...

echo "== go test ./..."
go test ./...

echo "== kernel benchmarks compile and run once (BenchmarkMatMul*Shapes)"
go test -run '^$' -bench 'Shapes' -benchtime 1x ./internal/tensor

echo "== go test -race ./internal/cluster/... ./internal/positionwise/... ./internal/harness/... ./internal/comm/... ./internal/trace/... ./internal/obs/... ./internal/server/..."
go test -race ./internal/cluster/... ./internal/positionwise/... ./internal/harness/... ./internal/comm/... ./internal/trace/... ./internal/obs/... ./internal/server/...

echo "== chaos: go test -race -count=2 (fault-injection suite)"
go test -race -count=2 -run \
    'Chaos|Killed|Dropped|Corrupt|Stalled|AllWorkersDead|Probation|NonRetryable|LostMessage|EveryReceiveFault|FailedRound|Overlapped|Flaky|OpTimeout|VerifyFrame|Framed|TCPSend|DecodeHostile|DecodeDeclared' \
    ./internal/cluster/... ./internal/comm/... ./internal/tensor/...

echo "== chaos: go test -race -count=3 (batched recovery suite)"
# The batched fault-tolerance claims — a worker killed mid-fused-step parks
# the co-batched survivors and resumes them bit-identically — are
# scheduling-dependent; run them three times under the race detector.
go test -race -count=3 -run 'TestBatchedGenerate|TestBatchWindow' ./internal/cluster/

echo "== fuzz: 5 s of FuzzParsePrefillFrame (the opPass frame: joins and classifies, ids and x)"
# The pass frame is the place a worker parses bytes it did not produce; the
# seed corpus is the malformed-frame table plus well-formed joins (owner last
# in rank order and rotated), token classifies and scattered inputs, 5 s
# mutates it. Every accepted one-row frame must leave its reader seeing every
# row of the causal pass.
go test -run '^$' -fuzz FuzzParsePrefillFrame -fuzztime 5s ./internal/cluster

echo "== benchmark: go test + quick smoke of all four workloads"
# The repository benchmark is its own module (benchmark/go.mod), so the
# tier-1 `go test ./...` above does not reach it. Its tests include a smoke
# run; -quick then drives the built binary the way the benchmark driver
# does (1 s windows, numbers meaningless, output oracle on).
(cd benchmark && go test .)
bash benchmark/run.sh -quick

# The smoke stages run built binaries, not `go run`: killing `go run` leaves
# the server it started alive until its -hold expires.
BIN="$(mktemp -d)"
TMPFILES+=("$BIN")
go build -o "$BIN/" ./cmd/voltage-server

echo "== gateway smoke: voltage-server -local serves /v1/classify, /metrics, /healthz, and sheds"
# Start the inference gateway over a 3-worker in-process engine with a
# deliberately tiny interactive queue (cap 1, one worker, paced compute),
# serve one classification, then fire a burst and require at least one
# typed 429 shed plus the gateway metric families — and, from the same
# process, the serving-runtime families the dashboards depend on and a
# healthy /healthz.
GW_ADDR="127.0.0.1:19156"
GW_LOG="$(mktemp)"
TMPFILES+=("$GW_LOG")
"$BIN/voltage-server" -local 3 -model tiny -layers 1 -listen "$GW_ADDR" \
    -queue-interactive 1 -gateway-workers 1 -device-flops 2e4 \
    -hold 60s -drain-timeout 5s >"$GW_LOG" 2>&1 &
GW_PID=$!
PIDS+=("$GW_PID")
CLASSIFY=""
for _ in $(seq 1 100); do
    if CLASSIFY="$(curl -fsS -X POST "http://$GW_ADDR/v1/classify" \
        -d '{"tokens":[1,2,3,4]}' 2>/dev/null)" \
        && grep -q '"logits"' <<<"$CLASSIFY"; then
        break
    fi
    CLASSIFY=""
    sleep 0.3
done
if [ -z "$CLASSIFY" ]; then
    echo "gateway smoke: /v1/classify never answered" >&2
    cat "$GW_LOG" >&2
    exit 1
fi
# Burst past the queue cap: with one paced worker and a cap-1 queue, at
# least one of six concurrent requests must shed with HTTP 429.
BURST_CODES="$(for _ in $(seq 1 6); do
    curl -s -o /dev/null -w '%{http_code}\n' -X POST \
        "http://$GW_ADDR/v1/classify" -d '{"tokens":[1,2,3,4]}' &
done; wait)"
grep -q '429' <<<"$BURST_CODES" || {
    echo "gateway smoke: burst produced no 429 shed (codes: $BURST_CODES)" >&2
    cat "$GW_LOG" >&2
    exit 1
}
GW_METRICS="$(curl -fsS "http://$GW_ADDR/metrics")"
for family in \
    'voltage_gateway_queue_depth{class="interactive"}' \
    'voltage_gateway_queue_depth{class="batch"}' \
    'voltage_gateway_shed_total{cause="queue_full"}' \
    'voltage_gateway_queue_wait_seconds_bucket' \
    'voltage_requests_total' \
    'voltage_request_latency_seconds_bucket' \
    'voltage_comm_bytes_sent_total{rank="terminal"}' \
    'voltage_errors_total{type="timeout"}' \
    'voltage_health_state{rank="0"}' \
    'voltage_queue_length'; do
    grep -qF "$family" <<<"$GW_METRICS" || {
        echo "gateway smoke: /metrics missing $family" >&2
        exit 1
    }
done
curl -fsS "http://$GW_ADDR/healthz" | grep -q '"ok":true' || {
    echo "gateway smoke: /healthz not ok" >&2
    exit 1
}
curl -fsS "http://$GW_ADDR/v1/queue" | grep -q '"interactive"' || {
    echo "gateway smoke: /v1/queue missing class report" >&2
    exit 1
}
kill "$GW_PID" 2>/dev/null || true
wait "$GW_PID" 2>/dev/null || true

echo "== batched-decode smoke: concurrent /v1/generate streams fuse into one batch; /debug/trace and /debug/flight answer"
# Start the gateway over a decoder engine with continuous batching on, a
# generous coalescing window and request tracing, fire 4 concurrent
# streaming generates with two classifies beside them, require every stream
# and classify to complete, then require the batch metrics to show fused
# steps at width > 1 (the streams actually co-batched, not serialized) and
# the diagnostics surface to answer: the Chrome trace export carries spans,
# the flight recorder carries events and the request traces.
BD_ADDR="127.0.0.1:19157"
BD_LOG="$(mktemp)"
TMPFILES+=("$BD_LOG")
"$BIN/voltage-server" -local 3 -model tiny-decoder -listen "$BD_ADDR" \
    -gateway-workers 4 -max-batch 8 -batch-window 200ms -trace \
    -hold 60s -drain-timeout 5s >"$BD_LOG" 2>&1 &
BD_PID=$!
PIDS+=("$BD_PID")
BD_READY=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$BD_ADDR/healthz" 2>/dev/null | grep -q '"ok":true'; then
        BD_READY=1
        break
    fi
    sleep 0.3
done
if [ -z "$BD_READY" ]; then
    echo "batched-decode smoke: gateway never became healthy" >&2
    cat "$BD_LOG" >&2
    exit 1
fi
BD_DIR="$(mktemp -d)"
TMPFILES+=("$BD_DIR")
(
    for i in 1 2 3 4; do
        curl -sN -X POST "http://$BD_ADDR/v1/generate" \
            -d "{\"prompt\":[$i,$((i+3)),$((i+7))],\"steps\":8}" \
            >"$BD_DIR/stream$i" &
    done
    for i in 1 2; do
        curl -s -X POST "http://$BD_ADDR/v1/classify" \
            -d "{\"tokens\":[$i,2,3,4]}" >"$BD_DIR/classify$i" &
    done
    wait
)
for i in 1 2; do
    grep -q '"logits"' "$BD_DIR/classify$i" || {
        echo "batched-decode smoke: classify $i beside the streams failed" >&2
        cat "$BD_DIR/classify$i" "$BD_LOG" >&2
        exit 1
    }
done
for i in 1 2 3 4; do
    grep -q '"done":true' "$BD_DIR/stream$i" || {
        echo "batched-decode smoke: stream $i never completed" >&2
        cat "$BD_DIR/stream$i" "$BD_LOG" >&2
        exit 1
    }
    grep -q '"error"' "$BD_DIR/stream$i" && {
        echo "batched-decode smoke: stream $i reported an error" >&2
        cat "$BD_DIR/stream$i" >&2
        exit 1
    }
done
rm -rf "$BD_DIR"
BD_METRICS="$(curl -fsS "http://$BD_ADDR/metrics")"
for family in \
    'voltage_batch_size_count' \
    'voltage_fused_steps_total' \
    'voltage_batch_joins_total' \
    'voltage_batch_wait_seconds_count'; do
    grep -qF "$family" <<<"$BD_METRICS" || {
        echo "batched-decode smoke: /metrics missing $family" >&2
        exit 1
    }
done
# Mean fused width > 1 ⟺ histogram sum exceeds its count.
awk '
    /^voltage_batch_size_sum /   { sum = $2 }
    /^voltage_batch_size_count / { count = $2 }
    END {
        if (count == 0 || sum <= count) {
            printf "batched-decode smoke: mean batch width %.3f over %d steps, want > 1\n", \
                (count ? sum / count : 0), count > "/dev/stderr"
            exit 1
        }
    }' <<<"$BD_METRICS"
BD_TRACE="$(curl -fsS "http://$BD_ADDR/debug/trace")"
for want in '"traceEvents"' '"ph":"X"'; do
    grep -qF "$want" <<<"$BD_TRACE" || {
        echo "batched-decode smoke: /debug/trace export missing $want" >&2
        head -c 500 <<<"$BD_TRACE" >&2
        exit 1
    }
done
BD_FLIGHT="$(curl -fsS "http://$BD_ADDR/debug/flight")"
for want in '"kind"' '"traces"'; do
    grep -qF "$want" <<<"$BD_FLIGHT" || {
        echo "batched-decode smoke: /debug/flight dump missing $want" >&2
        head -c 500 <<<"$BD_FLIGHT" >&2
        exit 1
    }
done
kill "$BD_PID" 2>/dev/null || true
wait "$BD_PID" 2>/dev/null || true

echo "== batched-chaos smoke: worker killed mid-batch, streams still complete"
# Same concurrent-generate workload with a classify beside it, but rank 1's
# transport dies on its 11th receive. Every rank takes part in each of the 4
# co-batched prefills and in the classify (one pass frame each: 5 receives),
# and tiny-decoder having two layers, the one synchronisation of a pass is the
# Gather to its reader: least-loaded placement puts the four streams on ranks
# 0,1,2,0 — ties take turns in the order the joins are scattered, up to three
# of them (or two and the classify) on the mesh at once — so rank 1 receives
# the two other ranks' shares once, in the join it owns (the classify's reader
# is the rank holding its last row, rank 2: positionwise.Slice cuts its four
# positions [0,2) [2,3) [3,4)) — 7 in all, whichever joins the classify
# overlaps, since a rank counts its receives, not their order. Decode is sharded by sequence, so rank 1 then receives one step frame
# per round only for the one stream it owns — 7 for steps=8, receives 8..14 —
# and nothing for the other three. Receive 11 is that stream's 4th step frame
# (its 5th if the classify arrives after the streams have drained): inside
# decode, with rounds to spare either side. With -retries 2 the loop must
# blame rank 1, re-slice over the survivors, and resume every stream (whoever
# owned it): all finish cleanly, the classify answers whichever side of the
# kill it lands on, and /metrics records the recovery.
BC_ADDR="127.0.0.1:19158"
BC_LOG="$(mktemp)"
TMPFILES+=("$BC_LOG")
"$BIN/voltage-server" -local 3 -model tiny-decoder -listen "$BC_ADDR" \
    -gateway-workers 4 -max-batch 8 -batch-window 200ms -retries 2 \
    -chaos-kill-rank 1 -chaos-kill-after 11 \
    -hold 60s -drain-timeout 5s >"$BC_LOG" 2>&1 &
BC_PID=$!
PIDS+=("$BC_PID")
BC_READY=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$BC_ADDR/healthz" 2>/dev/null | grep -q '"ok":true'; then
        BC_READY=1
        break
    fi
    sleep 0.3
done
if [ -z "$BC_READY" ]; then
    echo "batched-chaos smoke: gateway never became healthy" >&2
    cat "$BC_LOG" >&2
    exit 1
fi
BC_DIR="$(mktemp -d)"
TMPFILES+=("$BC_DIR")
(
    for i in 1 2 3 4; do
        curl -sN -X POST "http://$BC_ADDR/v1/generate" \
            -d "{\"prompt\":[$i,$((i+3)),$((i+7))],\"steps\":8}" \
            >"$BC_DIR/stream$i" &
    done
    curl -s -X POST "http://$BC_ADDR/v1/classify" \
        -d '{"tokens":[5,2,3,4]}' >"$BC_DIR/classify" &
    wait
)
grep -q '"logits"' "$BC_DIR/classify" || {
    echo "batched-chaos smoke: the classify beside the streams failed" >&2
    cat "$BC_DIR/classify" "$BC_LOG" >&2
    exit 1
}
BC_DONE=0
for i in 1 2 3 4; do
    if grep -q '"done":true' "$BC_DIR/stream$i" && ! grep -q '"error"' "$BC_DIR/stream$i"; then
        BC_DONE=$((BC_DONE + 1))
    fi
done
if [ "$BC_DONE" -lt 1 ]; then
    echo "batched-chaos smoke: no stream survived the mid-batch worker kill" >&2
    cat "$BC_DIR"/stream* "$BC_LOG" >&2
    exit 1
fi
# The recovery must be visible on the stream tails and the metrics: at
# least one sequence reports retries, and the recovery counter moved.
grep -hq '"retries":' "$BC_DIR"/stream* || {
    echo "batched-chaos smoke: no stream reported retries on its done line" >&2
    cat "$BC_DIR"/stream* >&2
    exit 1
}
rm -rf "$BC_DIR"
BC_METRICS="$(curl -fsS "http://$BC_ADDR/metrics")"
for family in \
    'voltage_batch_recoveries_total' \
    'voltage_batch_seqs_resumed_total'; do
    grep -E "^${family}.* [1-9]" <<<"$BC_METRICS" >/dev/null || {
        echo "batched-chaos smoke: /metrics $family never moved" >&2
        grep -F "$family" <<<"$BC_METRICS" >&2 || true
        exit 1
    }
done
kill "$BC_PID" 2>/dev/null || true
wait "$BC_PID" 2>/dev/null || true

echo "== hetero smoke: a throttled rank serves its rate's share from boot"
# Boot a paced 3-worker engine with rank 2 throttled 4x. The scheme weighs
# each rank by its rate from the first pass, so the very first scrape must
# show the slow rank's share well below its even third (4/9 4/9 1/9); then
# every concurrent stream must complete cleanly, with nothing re-prefilled.
HT_ADDR="127.0.0.1:19161"
HT_LOG="$(mktemp)"
TMPFILES+=("$HT_LOG")
"$BIN/voltage-server" -local 3 -model tiny-decoder -listen "$HT_ADDR" \
    -gateway-workers 8 -max-batch 8 -batch-window 2ms \
    -device-flops 4e6 -chaos-slow-rank 2 -chaos-slow-factor 4 \
    -hold 120s -drain-timeout 5s >"$HT_LOG" 2>&1 &
HT_PID=$!
PIDS+=("$HT_PID")
HT_READY=""
for _ in $(seq 1 100); do
    if curl -fsS "http://$HT_ADDR/healthz" 2>/dev/null | grep -q '"ok":true'; then
        HT_READY=1
        break
    fi
    sleep 0.3
done
if [ -z "$HT_READY" ]; then
    echo "hetero smoke: gateway never became healthy" >&2
    cat "$HT_LOG" >&2
    exit 1
fi
awk '
    /^voltage_partition_ratio\{rank="2"\} / { ratio = $2; seen = 1 }
    END {
        if (!seen || ratio >= 0.3) {
            printf "hetero smoke: slow rank partition share %.3f on the first scrape, want < 0.3\n", ratio > "/dev/stderr"
            exit 1
        }
    }' <<<"$(curl -fsS "http://$HT_ADDR/metrics")"
HT_DIR="$(mktemp -d)"
TMPFILES+=("$HT_DIR")
for round in 1 2; do
    (
        for i in 1 2 3 4; do
            curl -sN -X POST "http://$HT_ADDR/v1/generate" \
                -d "{\"prompt\":[$i,$((i+3)),$((i+7))],\"steps\":12}" \
                >"$HT_DIR/stream$round-$i" &
        done
        wait
    )
done
for f in "$HT_DIR"/stream*; do
    if ! grep -q '"done":true' "$f" || grep -q '"error"' "$f"; then
        echo "hetero smoke: stream ${f##*/} did not complete cleanly" >&2
        cat "$f" "$HT_LOG" >&2
        exit 1
    fi
done
grep -qE '^voltage_batch_seqs_resumed_total 0$' <<<"$(curl -fsS "http://$HT_ADDR/metrics")" || {
    echo "hetero smoke: live sequences were re-prefilled" >&2
    exit 1
}
kill "$HT_PID" 2>/dev/null || true
wait "$HT_PID" 2>/dev/null || true

echo "CI OK (wall ${SECONDS}s)"
