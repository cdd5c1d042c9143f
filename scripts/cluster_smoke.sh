#!/bin/sh
# cluster_smoke.sh — end-to-end smoke of the sharded serving path.
#
# Boots a 2-shard cluster behind a router (real processes, real HTTP):
#   1. PUT a trained wrapper through the router (replicated to both shards),
#   2. extract a document through the router,
#   3. fetch the assembled trace for that request from the router's
#      /debug/traces/{id} and assert the span tree covers both processes
#      (router routing spans + shard request/cache spans),
#   4. roll out through the router: stage a canary (replicated to both
#      shards), see it in GET /wrappers/vs/versions, promote it, then stage
#      a second canary and roll it back by its version,
#   5. re-PUT the wrapper until the key has had ten writes, so each shard's
#      registry file was rewritten at its eight-record bound and appended
#      to since, then SIGKILL one shard,
#   6. extract again — the router must fail over and still answer,
#   7. restart the killed shard over its -cache-dir: it must restore the
#      wrapper from its registry at the version state the live shard
#      reports and answer a direct extract, and the router must see it up
#      again,
#   8. DELETE the wrapper through the router and confirm it is gone.
#
# Run from the repository root (make cluster-smoke). Exits non-zero on the
# first broken step.
set -eu

PORT_ROUTER=${PORT_ROUTER:-18440}
PORT_SHARD1=${PORT_SHARD1:-18441}
PORT_SHARD2=${PORT_SHARD2:-18442}
DIR=.smoke-cluster
ROUTER=http://127.0.0.1:$PORT_ROUTER

rm -rf "$DIR"
mkdir -p "$DIR"

PIDS=""
cleanup() {
    for pid in $PIDS; do
        kill "$pid" 2>/dev/null || true
    done
    wait 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

echo "cluster-smoke: building serve"
go build -o "$DIR/serve" ./cmd/serve

echo "cluster-smoke: training wrapper"
go run ./cmd/wrapgen -o "$DIR/wrapper.json" -extra DIV,/DIV,HR \
    cmd/extract/testdata/fig1_page1.html cmd/extract/testdata/fig1_page2.html

echo "cluster-smoke: booting 2 shards + router"
"$DIR/serve" -mode shard -listen 127.0.0.1:$PORT_SHARD1 -cache-dir "$DIR/shard1" 2>"$DIR/shard1.log" &
PIDS="$PIDS $!"
SHARD1_PID=$!
"$DIR/serve" -mode shard -listen 127.0.0.1:$PORT_SHARD2 -cache-dir "$DIR/shard2" 2>"$DIR/shard2.log" &
PIDS="$PIDS $!"
"$DIR/serve" -mode router -listen 127.0.0.1:$PORT_ROUTER \
    -peers http://127.0.0.1:$PORT_SHARD1,http://127.0.0.1:$PORT_SHARD2 \
    -replicas 2 -health-interval 200ms 2>"$DIR/router.log" &
PIDS="$PIDS $!"

wait_up() {
    url=$1
    for _ in $(seq 1 50); do
        if curl -sf "$url/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "cluster-smoke: $url never became healthy" >&2
    return 1
}
wait_up http://127.0.0.1:$PORT_SHARD1
wait_up http://127.0.0.1:$PORT_SHARD2
wait_up "$ROUTER"

# One client-minted trace ID sent on the PUT and the extract: the replicated
# applies and the routed extraction all join the same trace, so the assembled
# tree covers the whole lifecycle.
TRACE_ID=$(od -An -tx1 -N16 /dev/urandom | tr -d ' \n')

echo "cluster-smoke: registering wrapper through the router"
put=$(curl -s -o "$DIR/put.json" -w '%{http_code}' -X PUT \
    -H 'Content-Type: application/json' -H "X-Resilex-Trace: $TRACE_ID" \
    --data-binary @"$DIR/wrapper.json" \
    "$ROUTER/wrappers/vs")
[ "$put" = 201 ] || { echo "cluster-smoke: PUT status $put: $(cat "$DIR/put.json")" >&2; exit 1; }
grep -q '"replicated":2' "$DIR/put.json" || {
    echo "cluster-smoke: PUT not replicated to both shards: $(cat "$DIR/put.json")" >&2; exit 1; }

echo "cluster-smoke: extracting through the router"
curl -s -D "$DIR/extract1.hdr" -H 'Content-Type: application/json' \
    -H "X-Resilex-Trace: $TRACE_ID" \
    --data-binary @scripts/testdata/cluster_smoke_request.json \
    "$ROUTER/extract" >"$DIR/extract1.json"
grep -q '"ok":true' "$DIR/extract1.json" || {
    echo "cluster-smoke: extraction failed: $(cat "$DIR/extract1.json")" >&2; exit 1; }

echo "cluster-smoke: assembling the request trace across both processes"
# The router joined our trace and echoed its ID in the response header; its
# /debug/traces/{id} endpoint merges its own spans with both shards' halves
# fetched over HTTP. The assembled tree must contain the router's routing
# spans AND the shards' apply/request/cache spans — i.e. spans from multiple
# processes under one trace ID.
echoed=$(tr -d '\r' <"$DIR/extract1.hdr" |
    awk -F': ' 'tolower($1)=="x-resilex-trace"{print $2}')
[ "$echoed" = "$TRACE_ID" ] || {
    echo "cluster-smoke: extract response echoed trace \"$echoed\", want $TRACE_ID" >&2
    exit 1; }
curl -sf "$ROUTER/debug/traces/$TRACE_ID" >"$DIR/trace.json" || {
    echo "cluster-smoke: trace $TRACE_ID not retrievable from the router" >&2; exit 1; }
for span in router.extract router.attempt router.replicate \
    serve.extract shard.apply cache.lookup; do
    grep -q "\"$span\"" "$DIR/trace.json" || {
        echo "cluster-smoke: assembled trace missing span $span: $(cat "$DIR/trace.json")" >&2
        exit 1; }
done

# write_step METHOD PATH STATUS PATTERN [BODY]: one wrapper write through the
# router, whose status and response body must match.
write_step() {
    if [ -n "${5:-}" ]; then
        code=$(curl -s -o "$DIR/step.json" -w '%{http_code}' -X "$1" \
            -H 'Content-Type: application/json' --data-binary @"$5" "$ROUTER$2")
    else
        code=$(curl -s -o "$DIR/step.json" -w '%{http_code}' -X "$1" "$ROUTER$2")
    fi
    [ "$code" = "$3" ] && grep -q "$4" "$DIR/step.json" || {
        echo "cluster-smoke: $1 $2: status $code, want $3 and $4: $(cat "$DIR/step.json")" >&2
        exit 1; }
}
# staged_canary prints the canary version GET /wrappers/vs/versions reports
# through the router (empty when none is staged).
staged_canary() {
    curl -sf "$ROUTER/wrappers/vs/versions" >"$DIR/versions.json" || {
        echo "cluster-smoke: versions not readable through the router" >&2; exit 1; }
    sed -n 's/.*"canary":{"version":\([0-9]*\)}.*/\1/p' "$DIR/versions.json"
}

echo "cluster-smoke: canary, versions and promote through the router"
write_step PUT /wrappers/vs/canary 201 '"replicated":2' "$DIR/wrapper.json"
canary=$(staged_canary)
[ -n "$canary" ] || {
    echo "cluster-smoke: versions show no staged canary: $(cat "$DIR/versions.json")" >&2; exit 1; }
write_step POST /wrappers/vs/promote 200 '"promote":2'

echo "cluster-smoke: second canary, rolled back by its version"
write_step PUT /wrappers/vs/canary 201 '"replicated":2' "$DIR/wrapper.json"
canary=$(staged_canary)
[ -n "$canary" ] || {
    echo "cluster-smoke: versions show no second canary: $(cat "$DIR/versions.json")" >&2; exit 1; }
write_step POST "/wrappers/vs/rollback?version=$canary" 200 '"rollback":2'

echo "cluster-smoke: re-registering past the registry's record bound"
for _ in 1 2 3 4 5; do
    write_step PUT /wrappers/vs 201 '"replicated":2' "$DIR/wrapper.json"
done

echo "cluster-smoke: killing shard 1 (SIGKILL), extracting again (failover)"
kill -9 "$SHARD1_PID"
wait "$SHARD1_PID" 2>/dev/null || true
curl -s -H 'Content-Type: application/json' \
    --data-binary @scripts/testdata/cluster_smoke_request.json \
    "$ROUTER/extract" >"$DIR/extract2.json"
grep -q '"ok":true' "$DIR/extract2.json" || {
    echo "cluster-smoke: extraction after shard kill failed: $(cat "$DIR/extract2.json")" >&2; exit 1; }

echo "cluster-smoke: restarting shard 1 over its cache dir"
"$DIR/serve" -mode shard -listen 127.0.0.1:$PORT_SHARD1 -cache-dir "$DIR/shard1" 2>"$DIR/shard1-restart.log" &
PIDS="$PIDS $!"
wait_up http://127.0.0.1:$PORT_SHARD1
grep -q 'serve: restored 1 wrapper(s)' "$DIR/shard1-restart.log" || {
    echo "cluster-smoke: restarted shard did not restore the wrapper: $(cat "$DIR/shard1-restart.log")" >&2; exit 1; }
# version_state URL prints the active and last version a shard reports for
# vs (keys are sorted, so "active" precedes "lastVersion").
version_state() {
    curl -sf "$1/wrappers/vs/versions" |
        sed -n 's/.*"active":{"version":\([0-9]*\)}.*"lastVersion":\([0-9]*\).*/active=\1 last=\2/p'
}
restored=$(version_state http://127.0.0.1:$PORT_SHARD1)
live=$(version_state http://127.0.0.1:$PORT_SHARD2)
[ -n "$restored" ] && [ "$restored" = "$live" ] || {
    echo "cluster-smoke: restarted shard reports \"$restored\", live shard \"$live\"" >&2; exit 1; }
echo "cluster-smoke: restarted shard restored $restored, as the live shard reports"
curl -s -H 'Content-Type: application/json' \
    --data-binary @scripts/testdata/cluster_smoke_request.json \
    http://127.0.0.1:$PORT_SHARD1/extract >"$DIR/extract-restarted.json"
grep -q '"ok":true' "$DIR/extract-restarted.json" || {
    echo "cluster-smoke: extraction on the restarted shard failed: $(cat "$DIR/extract-restarted.json")" >&2; exit 1; }
# The DELETE below must reach both owners, so wait until the router's health
# poller has seen the restarted shard.
for _ in $(seq 1 50); do
    curl -sf "$ROUTER/healthz" | grep -q '"up":2' && break
    sleep 0.1
done
curl -sf "$ROUTER/healthz" | grep -q '"up":2' || {
    echo "cluster-smoke: router never saw the restarted shard up: $(curl -s "$ROUTER/healthz")" >&2; exit 1; }

echo "cluster-smoke: deleting wrapper through the router"
del=$(curl -s -o "$DIR/del.json" -w '%{http_code}' -X DELETE "$ROUTER/wrappers/vs")
[ "$del" = 200 ] || { echo "cluster-smoke: DELETE status $del: $(cat "$DIR/del.json")" >&2; exit 1; }
curl -s -H 'Content-Type: application/json' \
    --data-binary @scripts/testdata/cluster_smoke_request.json \
    "$ROUTER/extract" >"$DIR/extract3.json"
grep -q '"ok":true' "$DIR/extract3.json" && {
    echo "cluster-smoke: extraction still succeeds after DELETE" >&2; exit 1; }

echo "cluster-smoke: OK (replicated put, routed extract, cross-process trace, replicated canary/promote/rollback, failover extract, SIGKILLed shard restored from its cache dir at the live shard's versions, replicated delete)"
