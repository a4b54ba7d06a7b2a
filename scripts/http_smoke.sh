#!/usr/bin/env bash
# HTTP smoke test: boot `gomil serve --listen` on an ephemeral port,
# solve one width over the socket, check /metrics parses, then drain
# gracefully and require a zero exit.
#
#   scripts/http_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
logfile="$workdir/gomil-httpd.log"
server_pid=""
trap '[ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

cargo build -q --release -p gomil --bin gomil
target/release/gomil serve --listen 127.0.0.1:0 \
    --no-cache-file --http-inflight 2 --http-queue 4 \
    2>"$logfile" &
server_pid=$!

# The server prints "listening on http://ADDR" once bound.
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#^listening on http://\([0-9.:]*\).*#\1#p' "$logfile" | head -1)
    [ -n "$addr" ] && break
    kill -0 "$server_pid" 2>/dev/null || { cat "$logfile"; echo "FAIL: server died"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { cat "$logfile"; echo "FAIL: server never bound"; exit 1; }
echo "    server at $addr"

# One real solve end to end: the reply must carry a proved verdict.
solve=$(curl -sS -X POST "http://$addr/solve" \
    -H 'Content-Type: application/json' -d '{"m": 8, "ppg": "and"}')
echo "$solve" | grep -q '"verdict":"proved"' \
    || { echo "FAIL: solve reply lacks a proved verdict: $solve"; exit 1; }
echo "    POST /solve m=8: proved"

# /metrics must be Prometheus-parseable: every non-comment line is
# "name[{labels}] value" with a numeric value, and the solve was counted.
metrics=$(curl -sS "http://$addr/metrics")
echo "$metrics" | grep -q '^gomil_requests_total [1-9]' \
    || { echo "FAIL: gomil_requests_total missing or zero"; exit 1; }
bad=$(echo "$metrics" | grep -v '^#' | awk 'NF != 2 || $2 !~ /^[0-9.+eE-]+$|^inf$/ { print }')
[ -z "$bad" ] || { echo "FAIL: unparseable metric lines:"; echo "$bad"; exit 1; }
echo "    GET /metrics: parseable, requests counted"

# Graceful drain: POST /shutdown, the process must exit 0 by itself,
# and within 1 s (an idle drain is an event wait, not a poll or a stall).
drain_start=$(date +%s%N)
curl -sS -X POST "http://$addr/shutdown" | grep -q draining \
    || { echo "FAIL: shutdown did not acknowledge drain"; exit 1; }
for _ in $(seq 1 1000); do
    kill -0 "$server_pid" 2>/dev/null || break
    sleep 0.01
done
if kill -0 "$server_pid" 2>/dev/null; then
    echo "FAIL: server still running 10 s after drain"; exit 1
fi
wait "$server_pid" || { echo "FAIL: drain exited non-zero"; exit 1; }
drain_ms=$(( ($(date +%s%N) - drain_start) / 1000000 ))
[ "$drain_ms" -le 1000 ] \
    || { echo "FAIL: drain took ${drain_ms} ms (limit 1000 ms)"; exit 1; }
echo "    drain: clean exit 0 in ${drain_ms} ms"
