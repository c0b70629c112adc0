#!/bin/sh
# metrics-smoke: boot one validityd answering a real in-process query
# stream with -metrics on, scrape /metrics and /debug/queries mid-run,
# and assert the §6.3 counter families and the query snapshot actually
# come back. Then a second act boots a three-process TCP fleet with
# -fleet wired and proves the cross-process plane end to end: the typed
# /debug/snapshot and /debug/trace endpoints answer, /metrics/fleet
# serves the rolled-up exposition, validitytop -once renders a status
# table off the live processes, and the issuer's quiesce-frames counter
# proves the cross-process quiescence plane engaged. This is the CI
# gate for the
# observability surface — the Go tests exercise the registry and the
# collector in depth; this proves the built binaries wire them together.
set -e

cd "$(dirname "$0")/.."

BINDIR=$(mktemp -d)
BIN=${BIN:-$BINDIR/validityd}
TOP=${TOP:-$BINDIR/validitytop}
go build -o "$BIN" ./cmd/validityd
go build -o "$TOP" ./cmd/validitytop

LOG=$(mktemp)
OUT=$(mktemp)
PIDS=""
cleanup() {
    for p in $PIDS; do kill "$p" 2>/dev/null || true; done
    rm -f "$LOG" "$OUT"
}
trap cleanup EXIT

# --- act 1: in-process stream, single-process endpoints ---

# A stream long enough to scrape mid-run: 80 queries at concurrency 1
# over 60 hosts run for about four seconds at -hop 10ms (an in-process
# read returns the moment the flood has drained, ~5 hops; 24 queries
# were over in 1.2 s, before a scrape that lost a few polls could
# connect). Port 0 dodges collisions; the bound address arrives on the
# slog stderr line.
"$BIN" -transport chan -topology random -hosts 60 -seed 23 \
    -agg count,min -hq 0,7 -hop 10ms \
    -query -queries 80 -concurrency 1 \
    -metrics 127.0.0.1:0 >"$OUT" 2>"$LOG" &
PID=$!
PIDS="$PIDS $PID"

ADDR=""
i=0
while [ $i -lt 100 ]; do
    ADDR=$(sed -n 's/.*msg="metrics listening" addr=\([0-9.]*:[0-9]*\).*/\1/p' "$LOG" | head -n 1)
    [ -n "$ADDR" ] && break
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "metrics-smoke: validityd exited before announcing its metrics address" >&2
        cat "$LOG" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$ADDR" ]; then
    echo "metrics-smoke: no metrics address in the log after 10s" >&2
    cat "$LOG" >&2
    exit 1
fi

METRICS=$(curl -fsS "http://$ADDR/metrics")
for family in \
    '# TYPE node_messages_sent_total counter' \
    '# TYPE node_frames_dropped_total counter' \
    '# TYPE node_queries_live gauge' \
    '# TYPE daemon_query_latency_ms histogram'; do
    if ! printf '%s\n' "$METRICS" | grep -Fq "$family"; then
        echo "metrics-smoke: /metrics missing '$family'" >&2
        printf '%s\n' "$METRICS" >&2
        exit 1
    fi
done

# Only the "live" key is asserted, not an entry under it: an answered
# query compacts off the live set 2 s after its answer, so a scrape can
# find the set empty — and an empty set still prints the key.
DQ=$(curl -fsS "http://$ADDR/debug/queries")
if ! printf '%s\n' "$DQ" | grep -Fq '"live"'; then
    echo "metrics-smoke: /debug/queries returned no query snapshot" >&2
    exit 1
fi

if ! wait "$PID"; then
    echo "metrics-smoke: act 1 validityd failed" >&2
    cat "$OUT" "$LOG" >&2
    exit 1
fi
PIDS=""
echo "metrics-smoke: act 1 ok (scraped $ADDR mid-run)"

# --- act 2: three-process TCP fleet, cross-process endpoints ---

# Fixed ports derived from the shell pid keep parallel CI runs apart;
# six consecutive ports: three transport, three metrics.
BASE=$((20000 + $$ % 20000))
P1="127.0.0.1:$BASE"
P2="127.0.0.1:$((BASE + 1))"
P3="127.0.0.1:$((BASE + 2))"
M1="127.0.0.1:$((BASE + 3))"
M2="127.0.0.1:$((BASE + 4))"
M3="127.0.0.1:$((BASE + 5))"
PEERS="0-19=$P1,20-39=$P2,40-59=$P3"
FLEET="issuer=$M1,w1=$M2,w2=$M3"
COMMON="-transport tcp -topology random -hosts 60 -seed 23 -peers $PEERS -agg count -hq 0 -dhat 12 -hop 5ms"

# wait_http polls until an endpoint answers (the poor shell's
# waitListening).
wait_http() {
    j=0
    while [ $j -lt 100 ]; do
        curl -fsS -o /dev/null "$1" 2>/dev/null && return 0
        sleep 0.1
        j=$((j + 1))
    done
    echo "metrics-smoke: $1 never came up" >&2
    exit 1
}

# shellcheck disable=SC2086 # COMMON is a flag list, splitting is the point
"$BIN" $COMMON -serve 20-39 -run-for 60s -metrics "$M2" >/dev/null 2>&1 &
PIDS="$PIDS $!"
# shellcheck disable=SC2086
"$BIN" $COMMON -serve 40-59 -run-for 60s -metrics "$M3" >/dev/null 2>&1 &
PIDS="$PIDS $!"
wait_http "http://$M2/metrics"
wait_http "http://$M3/metrics"

# The issuer: a stream slow enough to scrape mid-run, with -fleet armed
# so /metrics/fleet merges all three processes.
# shellcheck disable=SC2086
"$BIN" $COMMON -serve 0-19 -query -queries 8 -concurrency 1 \
    -metrics "$M1" -fleet "$FLEET" >"$OUT" 2>"$LOG" &
QPID=$!
PIDS="$PIDS $QPID"
wait_http "http://$M1/metrics"

# Typed endpoints: the registry snapshot and query 1's trace rings. The
# issuer's ring must hold the query's lifecycle in order — issued before
# retired — and a worker's ring the query's first traffic there, so a
# ring that comes back empty or reordered fails (query 1 is issued as
# soon as the stream starts and retires at its answer, so retry
# briefly). Responses go through variables, not pipes — grep -q quitting
# early would feed curl a SIGPIPE and a spurious exit-23 warning.
SNAP=$(curl -fsS "http://$M1/debug/snapshot")
if ! printf '%s\n' "$SNAP" | grep -Fq '"counters"'; then
    echo "metrics-smoke: /debug/snapshot returned no typed registry dump" >&2
    exit 1
fi
# in_order BODY A B: the JSON body carries "kind": "A" before "kind": "B".
in_order() {
    printf '%s\n' "$1" | awk -v a="\"kind\": \"$2\"" -v b="\"kind\": \"$3\"" \
        'index($0, a) && !x { x = NR } index($0, b) { y = NR } END { exit !(x && y && x < y) }'
}
i=0
while [ $i -lt 50 ]; do
    TRACE=$(curl -fsS "http://$M1/debug/trace?q=1" 2>/dev/null || true)
    WTRACE=$(curl -fsS "http://$M2/debug/trace?q=1" 2>/dev/null || true)
    in_order "$TRACE" issued retired &&
        printf '%s\n' "$WTRACE" | grep -Fq '"kind": "first-traffic"' && break
    sleep 0.1
    i=$((i + 1))
done
if [ $i -ge 50 ]; then
    echo "metrics-smoke: query 1's rings never carried issued before retired (issuer)" \
        "and first-traffic (worker $M2)" >&2
    printf 'issuer:\n%s\nworker:\n%s\n' "$TRACE" "$WTRACE" >&2
    exit 1
fi

FLEETEXPO=$(curl -fsS "http://$M1/metrics/fleet")
for want in 'fleet_peer_up{proc="w1"} 1' 'fleet_peers 3' 'node_messages_sent_total'; do
    if ! printf '%s\n' "$FLEETEXPO" | grep -Fq "$want"; then
        echo "metrics-smoke: /metrics/fleet missing '$want'" >&2
        printf '%s\n' "$FLEETEXPO" >&2
        exit 1
    fi
done

# validitytop against the live fleet: one plain snapshot must carry the
# table header and the per-process rows.
TOPOUT=$("$TOP" -fleet "$FLEET" -once)
for want in 'PROC' 'w1' 'w2' 'fleet:'; do
    if ! printf '%s\n' "$TOPOUT" | grep -Fq "$want"; then
        echo "metrics-smoke: validitytop -once missing '$want'" >&2
        printf '%s\n' "$TOPOUT" >&2
        exit 1
    fi
done

# The quiescence plane: every tcp fleet runs it, so the issuer must take
# worker control frames off the wire while the stream is live — a zero
# counter here means the plane never engaged.
i=0
while [ $i -lt 100 ]; do
    QN=$(curl -fsS "http://$M1/metrics" 2>/dev/null |
        sed -n 's/^node_quiesce_frames_received_total \([0-9]*\)$/\1/p')
    [ -n "$QN" ] && [ "$QN" -gt 0 ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ $i -ge 100 ]; then
    echo "metrics-smoke: issuer never received a quiesce control frame" >&2
    cat "$LOG" >&2
    exit 1
fi

if ! wait "$QPID"; then
    echo "metrics-smoke: fleet issuer failed" >&2
    cat "$LOG" >&2
    exit 1
fi
echo "metrics-smoke: ok (fleet act scraped $M1 mid-run)"
