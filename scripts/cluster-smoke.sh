#!/bin/sh
# cluster-smoke: end-to-end check of the cluster serving layer.
#
#   1. build gptpu-serve and gptpu-router
#   2. boot three sharded daemons on ephemeral ports, each with a
#      seeded transient-fault plan (absorbed by the daemons' dispatch
#      retry budget, so drains stay clean; the router's failover path
#      is exercised by the mid-soak SIGTERM below)
#   3. boot the router over them with fast health probing, a metrics
#      listener and a flight-dump path
#   4. `gptpu-serve -check <router>` — the enriched health probe must
#      answer with the router's shard identity and the healthy
#      members' aggregate device count, then a GEMM round-trips
#   5. drive mixed soak traffic through the router and SIGTERM one
#      daemon mid-soak — the soak must keep succeeding (draining and
#      transient answers fail over to the surviving replicas)
#   6. scrape the router's /metrics: the gptpu_cluster_* families are
#      live (wire bytes, connections and in-flight among them), the
#      membership census shows 2 healthy / 1 dead, and the router's
#      bytes-read counter is nonzero
#   7. drain the router and the surviving daemons, verify the router's
#      flight dump parses, and assert trace-ID propagation: trace IDs
#      recorded by the router appear in the daemons' own flight dumps
#      (one request, one ID, across the hop). Every daemon dumps at
#      exit, the SIGTERMed one included, and the check takes the union:
#      rendezvous placement can leave any one daemon without traffic
#      in the router's last moments, so no single dump must share IDs
#
# Run via `make cluster-smoke`; part of `make ci`.
set -eu

GO=${GO:-go}
TMP=$(mktemp -d)
RLOG="$TMP/router.log"
RDUMP="$TMP/router-flight.json"
SOAKLOG="$TMP/soak.log"
CHAOS="-fault-transient 0.02"
D0="" D1="" D2="" RPID="" SOAKPID=""

cleanup() {
    for p in $D0 $D1 $D2 $RPID $SOAKPID; do
        kill -KILL "$p" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "cluster-smoke: building gptpu-serve and gptpu-router"
$GO build -o "$TMP/gptpu-serve" ./cmd/gptpu-serve
$GO build -o "$TMP/gptpu-router" ./cmd/gptpu-router

# wait_addr LOGFILE PREFIX PID: waits for a daemon/router to announce
# its ephemeral address and prints it.
wait_addr() {
    _addr=""
    i=0
    while [ $i -lt 100 ]; do
        _addr=$(sed -n "s/^$2: listening on \([^ ]*\).*/\1/p" "$1" | head -n 1)
        [ -n "$_addr" ] && break
        if ! kill -0 "$3" 2>/dev/null; then
            echo "cluster-smoke: $2 died during startup" >&2
            cat "$1" >&2
            exit 1
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$_addr" ]; then
        echo "cluster-smoke: $2 never announced its address" >&2
        cat "$1" >&2
        exit 1
    fi
    printf '%s' "$_addr"
}

echo "cluster-smoke: booting 3 sharded daemons"
"$TMP/gptpu-serve" -addr 127.0.0.1:0 -devices 2 -shard s0 -fault-seed 1 $CHAOS \
    -flight-dump "$TMP/s0-flight.json" >"$TMP/d0.log" 2>&1 &
D0=$!
"$TMP/gptpu-serve" -addr 127.0.0.1:0 -devices 2 -shard s1 -fault-seed 2 $CHAOS \
    -flight-dump "$TMP/s1-flight.json" >"$TMP/d1.log" 2>&1 &
D1=$!
"$TMP/gptpu-serve" -addr 127.0.0.1:0 -devices 2 -shard s2 -fault-seed 3 $CHAOS \
    -flight-dump "$TMP/s2-flight.json" >"$TMP/d2.log" 2>&1 &
D2=$!
A0=$(wait_addr "$TMP/d0.log" gptpu-serve "$D0")
A1=$(wait_addr "$TMP/d1.log" gptpu-serve "$D1")
A2=$(wait_addr "$TMP/d2.log" gptpu-serve "$D2")
echo "cluster-smoke: daemons on $A0 $A1 $A2"

"$TMP/gptpu-router" -addr 127.0.0.1:0 -members "$A0,$A1,$A2" -shard edge-router \
    -probe-interval 200ms -metrics 127.0.0.1:0 -flight-dump "$RDUMP" >"$RLOG" 2>&1 &
RPID=$!
RADDR=$(wait_addr "$RLOG" gptpu-router "$RPID")
METRICS=""
i=0
while [ $i -lt 50 ]; do
    METRICS=$(sed -n 's|^gptpu-router: metrics on http://\([^/]*\)/metrics.*|\1|p' "$RLOG" | head -n 1)
    [ -n "$METRICS" ] && break
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$METRICS" ]; then
    echo "cluster-smoke: router never announced its metrics address" >&2
    cat "$RLOG" >&2
    exit 1
fi
echo "cluster-smoke: router on $RADDR, metrics on $METRICS"

# The health check against the ROUTER: same client, same protocol, but
# the reply carries the router's identity and the cluster's aggregate
# healthy capacity (3 daemons x 2 devices).
CHECK=$("$TMP/gptpu-serve" -check "$RADDR")
echo "$CHECK"
case "$CHECK" in
*"shard=edge-router devices=6"*) ;;
*)
    echo "cluster-smoke: -check did not report the aggregate cluster health" >&2
    exit 1
    ;;
esac

echo "cluster-smoke: driving mixed soak traffic, SIGTERMing one daemon mid-soak"
"$TMP/gptpu-serve" -soak "$RADDR" -soak-clients 8 -soak-reqs 1200 -soak-mixed \
    >"$SOAKLOG" 2>&1 &
SOAKPID=$!
sleep 0.5
kill -TERM "$D2"
STATUS=0
wait "$D2" || STATUS=$?
if [ "$STATUS" -ne 0 ] || ! grep -q "drained cleanly" "$TMP/d2.log"; then
    echo "cluster-smoke: SIGTERMed daemon exited $STATUS without a clean drain" >&2
    cat "$TMP/d2.log" >&2
    exit 1
fi
D2=""
STATUS=0
wait "$SOAKPID" || STATUS=$?
SOAKPID=""
cat "$SOAKLOG"
if [ "$STATUS" -ne 0 ]; then
    echo "cluster-smoke: soak through the router failed" >&2
    exit 1
fi
# The kill must not have cost a meaningful share of the stream: the
# router fails draining/transient answers over to the survivors, so
# client-visible failures stay under 10%.
OKS=$(sed -n 's/^gptpu-serve soak: \([0-9]*\) ok, \([0-9]*\) failed.*/\1/p' "$SOAKLOG")
FAILS=$(sed -n 's/^gptpu-serve soak: \([0-9]*\) ok, \([0-9]*\) failed.*/\2/p' "$SOAKLOG")
if [ -z "$OKS" ] || [ "$FAILS" -gt $((OKS / 10)) ]; then
    echo "cluster-smoke: $FAILS failures vs $OKS successes — failover did not absorb the kill" >&2
    exit 1
fi

# Membership census: the router's probes must have ejected the killed
# member (2 healthy, 1 dead) — poll briefly to let the strikes land.
SCRAPE="$TMP/metrics.prom"
scrape() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "http://$METRICS/metrics" >"$SCRAPE"
    elif command -v wget >/dev/null 2>&1; then
        wget -qO "$SCRAPE" "http://$METRICS/metrics"
    else
        echo "cluster-smoke: neither curl nor wget available" >&2
        exit 1
    fi
}
i=0
while [ $i -lt 25 ]; do
    scrape
    if grep -q 'gptpu_cluster_members{state="dead"} 1' "$SCRAPE" &&
        grep -q 'gptpu_cluster_members{state="healthy"} 2' "$SCRAPE"; then
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
if ! grep -q 'gptpu_cluster_members{state="dead"} 1' "$SCRAPE"; then
    echo "cluster-smoke: killed member was never ejected from the census" >&2
    grep '^gptpu_cluster_members' "$SCRAPE" >&2 || true
    exit 1
fi
for family in gptpu_cluster_requests_total gptpu_cluster_replies_total \
    gptpu_cluster_forwards_total gptpu_cluster_failovers_total \
    gptpu_cluster_probes_total gptpu_cluster_request_seconds \
    gptpu_cluster_bytes_read_total gptpu_cluster_bytes_written_total \
    gptpu_cluster_connections gptpu_cluster_inflight; do
    if ! grep -q "^$family" "$SCRAPE"; then
        echo "cluster-smoke: /metrics missing $family" >&2
        exit 1
    fi
done
# The router serves through the daemon's front door, whose reader
# counts every frame: after the soak its bytes-read sample is non-zero.
if ! grep -Eq '^gptpu_cluster_bytes_read_total [1-9]' "$SCRAPE"; then
    echo "cluster-smoke: router read no wire bytes during the soak" >&2
    grep '^gptpu_cluster_bytes_read_total' "$SCRAPE" >&2 || true
    exit 1
fi
echo "cluster-smoke: census shows 2 healthy / 1 dead; cluster metric families live"

echo "cluster-smoke: draining router and surviving daemons"
kill -TERM "$RPID"
STATUS=0
wait "$RPID" || STATUS=$?
if [ "$STATUS" -ne 0 ] || ! grep -q "drained cleanly" "$RLOG"; then
    echo "cluster-smoke: router exited $STATUS without a clean drain" >&2
    cat "$RLOG" >&2
    exit 1
fi
RPID=""
for pid in "$D0" "$D1"; do
    kill -TERM "$pid"
    STATUS=0
    wait "$pid" || STATUS=$?
    if [ "$STATUS" -ne 0 ]; then
        echo "cluster-smoke: daemon exited $STATUS after SIGTERM (want 0)" >&2
        exit 1
    fi
done
D0="" D1=""

# The router's flight dump must parse and validate like any daemon's.
if [ ! -s "$RDUMP" ]; then
    echo "cluster-smoke: router produced no flight dump" >&2
    exit 1
fi
"$TMP/gptpu-serve" -flight-verify "$RDUMP"

# Trace propagation across the hop: the router stamps each routed
# request with a trace ID and forwards it on the wire, so the backend
# daemons' flight recorders must hold the SAME IDs the router's does.
trace_ids() {
    sed -n 's/.*"trace_id": *"\([0-9a-f]*\)".*/\1/p' "$1" | sort -u
}
trace_ids "$RDUMP" >"$TMP/router.ids"
: >"$TMP/daemons.ids"
COUNTS=""
for s in s0 s1 s2; do
    if [ ! -s "$TMP/$s-flight.json" ]; then
        echo "cluster-smoke: daemon $s produced no flight dump" >&2
        exit 1
    fi
    trace_ids "$TMP/$s-flight.json" >"$TMP/$s.ids"
    COUNTS="$COUNTS $s=$(comm -12 "$TMP/router.ids" "$TMP/$s.ids" | wc -l)"
    cat "$TMP/$s.ids" >>"$TMP/daemons.ids"
done
sort -u -o "$TMP/daemons.ids" "$TMP/daemons.ids"
SHARED=$(comm -12 "$TMP/router.ids" "$TMP/daemons.ids" | wc -l)
if [ "$SHARED" -lt 1 ]; then
    echo "cluster-smoke: no trace ID shared between the router's and the daemons' flight dumps (${COUNTS# })" >&2
    exit 1
fi
echo "cluster-smoke: router flight dump verified; $SHARED trace IDs propagated to the daemons (${COUNTS# })"

echo "cluster-smoke: PASS"
