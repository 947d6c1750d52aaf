#!/bin/sh
# load-smoke boots brokerd with the SLO reconciler on a fast sweep and
# failover enabled, runs softsoa-load for a few seconds at modest RPS,
# and asserts the run actually exercised the broker: nonzero
# negotiations in the JSON report, every slo_* family present on
# /v1/metrics, and a /v1/debug/slo snapshot with at least one sweep.
# With LOAD_SMOKE_ARTIFACTS set the JSON report is copied there for CI
# to upload. Exits non-zero on any miss.
set -eu

ADDR=127.0.0.1:18720
WORK=$(mktemp -d)
BIN=$WORK/brokerd
LOAD=$WORK/softsoa-load
REPORT=$WORK/BENCH_load.json
METRICS=$(mktemp)

# Stop brokerd and wait for its drain to finish before deleting the
# binary it runs from, so no brokerd outlives the script.
cleanup() {
    if [ -n "${PID:-}" ]; then
        kill "$PID" 2>/dev/null || true
        wait "$PID" 2>/dev/null || true
    fi
    rm -rf "$WORK" "$METRICS"
}
trap cleanup EXIT INT TERM

go build -o "$BIN" ./cmd/brokerd
go build -o "$LOAD" ./cmd/softsoa-load
"$BIN" -addr "$ADDR" -failover -slo-sweep-every 200ms &
PID=$!

i=0
until curl -fsS "http://$ADDR/v1/health" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "load-smoke: brokerd did not come up on $ADDR" >&2
        exit 1
    fi
    sleep 0.1
done

"$LOAD" -addr "http://$ADDR" -duration 5s -rps 40 -arrivals poisson -seed 7 \
    -out "$REPORT" >/dev/null

# The report must show completed negotiations and per-route quantiles.
for want in '"negotiate"' '"observe"' '"renegotiate"' '"p999_ms"'; do
    if ! grep -q "$want" "$REPORT"; then
        echo "load-smoke: report is missing $want" >&2
        cat "$REPORT" >&2
        exit 1
    fi
done
NEG=$(sed -n '/"negotiate"/,/}/s/.*"sent": \([0-9]*\).*/\1/p' "$REPORT" | head -1)
if [ -z "$NEG" ] || [ "$NEG" -lt 1 ]; then
    echo "load-smoke: no negotiations completed (sent = ${NEG:-0})" >&2
    cat "$REPORT" >&2
    exit 1
fi

# Every SLO family must be live on the public metrics surface.
curl -fsS "http://$ADDR/v1/metrics" >"$METRICS"
for family in slo_sweeps_total slo_slas_tracked slo_compliance slo_burn_rate \
    slo_at_risk slo_at_risk_transitions_total slo_blevel_drift; do
    if ! grep -q "^$family" "$METRICS"; then
        echo "load-smoke: family $family missing from /v1/metrics" >&2
        exit 1
    fi
done

# The reconciler must have swept the standing SLAs at least once.
SWEEPS=$(awk '/^slo_sweeps_total / { print $NF }' "$METRICS")
if [ -z "$SWEEPS" ] || [ "$SWEEPS" -lt 1 ]; then
    echo "load-smoke: slo_sweeps_total = ${SWEEPS:-0}, want >= 1" >&2
    exit 1
fi
curl -fsS "http://$ADDR/v1/debug/slo" | grep -q '"sweeps"'

if [ -n "${LOAD_SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$LOAD_SMOKE_ARTIFACTS"
    cp "$REPORT" "$LOAD_SMOKE_ARTIFACTS"/
fi

echo "load-smoke: ok ($NEG negotiations, $SWEEPS sweeps)"
