#!/usr/bin/env bash
# Smoke tier ("kick the tires"): build the workspace in release mode, then run
# every er-bench figure/table binary at its smallest usable configuration,
# writing each binary's output under out/. Completes in a couple of minutes on
# a laptop; CI runs it on every push. The full reproduction tier lives in
# scripts/full.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

# Smallest workload scale at which every pipeline stage still has data
# (non-empty splits, mislabeled pairs to rank, rules to generate).
SCALE="${KICK_TIRES_SCALE:-0.012}"
OUT=out/kick-tires
BINARIES=(table2 fig9 fig10 fig11 fig12 fig13 fig14 ablation serve_bench train_bench)

# serve_bench, train_bench and fig13 also emit machine-readable results (the
# BENCH_*.json perf trajectory); keep them at stable paths so future PRs can
# diff serving, training and scalability performance. serve_bench additionally
# dumps the raw /metrics exposition it scraped during the front-end phase.
export SERVE_BENCH_JSON=out/serve_bench.json
export TRAIN_BENCH_JSON=out/train_bench.json
export FIG13_JSON=out/fig13.json
export SERVE_BENCH_METRICS_SNAPSHOT=out/metrics-snapshot.prom
export SERVE_BENCH_TRACE_SNAPSHOT=out/trace-snapshot.json

echo "== kick-tires: release build =="
# er-serve and er-gateway build the backend/router binaries that the
# serve_bench multi-process gateway phase and the gateway wiring smoke below
# spawn as real OS processes.
cargo build --release -p er-bench -p er-serve -p er-gateway

rm -rf "$OUT"
mkdir -p "$OUT"

echo "== kick-tires: running ${#BINARIES[@]} binaries at scale $SCALE =="
for bin in "${BINARIES[@]}"; do
    echo "-- $bin"
    ./target/release/"$bin" "$SCALE" >"$OUT/$bin.txt"
done

echo "== kick-tires: outputs =="
ls -l "$OUT"
test -s "$SERVE_BENCH_JSON" || { echo "missing $SERVE_BENCH_JSON" >&2; exit 1; }
test -s "$TRAIN_BENCH_JSON" || { echo "missing $TRAIN_BENCH_JSON" >&2; exit 1; }
test -s "$FIG13_JSON" || { echo "missing $FIG13_JSON" >&2; exit 1; }
echo "serve_bench JSON at $SERVE_BENCH_JSON"
echo "train_bench JSON at $TRAIN_BENCH_JSON"
echo "fig13 JSON at $FIG13_JSON"

# The serve_bench run above is also the HTTP front-end and gateway smoke: it
# starts the score server on an ephemeral port, replays traffic over raw
# sockets (metrics on and off), hot-reloads mid-replay, runs the
# connection-series, tracing and chaos phases, then the multi-process gateway
# phase (scaling, hedging, connection series), exiting non-zero on any broken
# invariant. The rate-limit, backpressure and canary checks are workspace
# tests. Every attestation serve_bench,
# train_bench and fig13 emit is gated by its type (see er_bench::gate), so
# bench_diff against the committed baseline catches a phase that was skipped,
# a shrunk series or a null gateway block: an attestation failure (exit 3) or
# a setup error (2) fails this tier. A perf regression (1) only warns — dev
# hardware legitimately differs from the baseline machine, and the CI
# perf-gate job runs the same diff fatally.
echo "== kick-tires: bench_diff vs out/baseline =="
DIFF_STATUS=0
./target/release/bench_diff || DIFF_STATUS=$?
case $DIFF_STATUS in
    0) ;;
    1) echo "kick-tires: WARNING — bench_diff reported perf regressions; CI perf-gate will fail" ;;
    *) echo "bench_diff failed with exit $DIFF_STATUS (3 = attestation failed, 2 = setup error)" >&2; exit 1 ;;
esac

# The front-end phase scraped its own GET /metrics into a snapshot file.
# Independently re-validate it here: every line must be Prometheus text
# exposition (comment or `name{labels} value`), and the scraped
# er_serve_score_requests_total must reconcile with the number of requests
# the socket replay actually sent — a counter the server under-reports is
# worse than no counter at all.
test -s "$SERVE_BENCH_METRICS_SNAPSHOT" || { echo "missing $SERVE_BENCH_METRICS_SNAPSHOT" >&2; exit 1; }
BAD_LINES=$(grep -cEv '^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+(\.[0-9]+)?|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (\+Inf|NaN))$' \
    "$SERVE_BENCH_METRICS_SNAPSHOT" || true)
[[ "$BAD_LINES" == "0" ]] || {
    echo "metrics snapshot has $BAD_LINES line(s) that are not valid Prometheus text exposition" >&2
    exit 1
}
SCRAPED_SCORES=$(awk '/^er_serve_score_requests_total/ {sum += $NF} END {print sum + 0}' "$SERVE_BENCH_METRICS_SNAPSHOT")
REPLAYED=$(awk '/"replay": \{/ {r = 1} r && /"requests":/ {gsub(/[^0-9]/, ""); print; exit}' "$SERVE_BENCH_JSON")
[[ -n "$REPLAYED" && "$SCRAPED_SCORES" == "$REPLAYED" ]] || {
    echo "scraped er_serve_score_requests_total ($SCRAPED_SCORES) != replayed requests ($REPLAYED)" >&2
    exit 1
}
echo "metrics snapshot parses; score_requests_total $SCRAPED_SCORES reconciles with the $REPLAYED-request replay"

# The tracing phase snapshotted GET /debug/traces. Independently check that
# the snapshot is Chrome trace-event JSON and that the number of request-level
# events in it reconciles with the replayed request count — a tracer that
# silently drops timelines would otherwise still pass.
test -s "$SERVE_BENCH_TRACE_SNAPSHOT" || { echo "missing $SERVE_BENCH_TRACE_SNAPSHOT" >&2; exit 1; }
grep -q '"traceEvents"' "$SERVE_BENCH_TRACE_SNAPSHOT" \
    || { echo "trace snapshot is not Chrome trace-event JSON (no traceEvents key)" >&2; exit 1; }
grep -q '"ph":"X"' "$SERVE_BENCH_TRACE_SNAPSHOT" \
    || { echo "trace snapshot has no complete (ph=X) events" >&2; exit 1; }
# One `"cat":"request"` event is emitted per retained trace; the tracing-on
# ring was sized so nothing is evicted, so the count must equal the replay's.
TRACED_REQUESTS=$(grep -o '"cat":"request"' "$SERVE_BENCH_TRACE_SNAPSHOT" | wc -l | tr -d ' ')
[[ -n "$REPLAYED" && "$TRACED_REQUESTS" == "$REPLAYED" ]] || {
    echo "trace snapshot has $TRACED_REQUESTS request timelines != replayed requests ($REPLAYED)" >&2
    exit 1
}
echo "trace snapshot parses; $TRACED_REQUESTS request timelines reconcile with the $REPLAYED-request replay"

# Binary wiring: spawn the real er-gateway binary in front of two real
# er-serve binaries on localhost (reusing the artifact serve_bench exported),
# then talk raw HTTP/1.1 over /dev/tcp — liveness and stats at the gateway,
# and, at the gateway and at one er-serve alike (both frame with
# er_serve::http), the RFC 7230 conflicting-Content-Length rejection and
# HTTP/1.0 default-close.
echo "== kick-tires: gateway binary wiring =="
GATEWAY_ARTIFACT=out/serve_model.json
test -s "$GATEWAY_ARTIFACT" || { echo "missing $GATEWAY_ARTIFACT (serve_bench exports it)" >&2; exit 1; }
GW_PIDS=()
cleanup_gateway() {
    local pid
    for pid in "${GW_PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup_gateway EXIT
wait_for_banner() { # log-file -> prints the listening addr from the banner
    local log=$1 i
    for i in $(seq 1 100); do
        if grep -q '^LISTENING ' "$log" 2>/dev/null; then
            awk '/^LISTENING/ {print $2; exit}' "$log"
            return 0
        fi
        sleep 0.1
    done
    echo "no LISTENING banner in $log after 10s" >&2
    return 1
}
http_request() { # addr request-bytes -> prints the full HTTP response; fails unless the peer closes within 5s
    local addr=$1 request=$2 status=0
    exec 9<>"/dev/tcp/${addr%:*}/${addr#*:}"
    printf '%b' "$request" >&9
    timeout 5 cat <&9 || status=$?
    exec 9>&- 9<&-
    [[ $status == 0 ]] || { echo "no EOF from $addr within 5s" >&2; return 1; }
}
./target/release/er-serve --artifact "$GATEWAY_ARTIFACT" --listen 127.0.0.1:0 --threads 1 \
    >"$OUT/gw-backend-a.log" 2>&1 &
GW_PIDS+=($!)
./target/release/er-serve --artifact "$GATEWAY_ARTIFACT" --listen 127.0.0.1:0 --threads 1 \
    >"$OUT/gw-backend-b.log" 2>&1 &
GW_PIDS+=($!)
BACKEND_A=$(wait_for_banner "$OUT/gw-backend-a.log")
BACKEND_B=$(wait_for_banner "$OUT/gw-backend-b.log")
./target/release/er-gateway --backend "$BACKEND_A" --backend "$BACKEND_B" --canary 1 \
    --baseline "$GATEWAY_ARTIFACT" --listen 127.0.0.1:0 >"$OUT/gw-gateway.log" 2>&1 &
GW_PIDS+=($!)
GW_ADDR=$(wait_for_banner "$OUT/gw-gateway.log")
HEALTH=$(http_request "$GW_ADDR" 'GET /healthz HTTP/1.1\r\nHost: kick-tires\r\nConnection: close\r\n\r\n')
grep -q '200 OK' <<<"$HEALTH" || { echo "gateway /healthz did not return 200: $HEALTH" >&2; exit 1; }
grep -q '"healthy_backends": 2' <<<"$HEALTH" \
    || { echo "gateway does not see both backends healthy: $HEALTH" >&2; exit 1; }
STATS=$(http_request "$GW_ADDR" 'GET /gateway/stats HTTP/1.1\r\nHost: kick-tires\r\nConnection: close\r\n\r\n')
# /gateway/stats is compact JSON (no space after colons).
grep -qE '"phase": ?"stable"' <<<"$STATS" || { echo "gateway canary not stable at boot: $STATS" >&2; exit 1; }
DIGESTS=$(grep -oE '"model_digest": ?"[0-9a-f]+"' <<<"$STATS" | sort -u)
[[ $(wc -l <<<"$DIGESTS") == 1 && -n "$DIGESTS" ]] \
    || { echo "backends disagree on the artifact digest: $STATS" >&2; exit 1; }
for target in "er-gateway $GW_ADDR" "er-serve $BACKEND_A"; do
    name=${target% *} addr=${target#* }
    BAD_CL=$(http_request "$addr" 'POST /score HTTP/1.1\r\nHost: kick-tires\r\nContent-Length: 2\r\nContent-Length: 3\r\nConnection: close\r\n\r\n{}')
    grep -q '^HTTP/1.1 400 ' <<<"$BAD_CL" \
        || { echo "$name accepted conflicting Content-Length headers: $BAD_CL" >&2; exit 1; }
    HTTP10=$(http_request "$addr" 'GET /healthz HTTP/1.0\r\nHost: kick-tires\r\n\r\n')
    grep -q '^HTTP/1.1 200 ' <<<"$HTTP10" && grep -q '^Connection: close' <<<"$HTTP10" \
        || { echo "$name did not answer HTTP/1.0 with Connection: close: $HTTP10" >&2; exit 1; }
done
cleanup_gateway
trap - EXIT
echo "binary wiring OK: 2 healthy backends, matching digests; gateway and er-serve reject conflicting Content-Length and close HTTP/1.0"

scripts/lint-hot-paths.sh

echo "kick-tires OK"
