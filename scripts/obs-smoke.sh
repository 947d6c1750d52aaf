#!/bin/sh
# obs-smoke boots brokerd with both listeners and a journal directory,
# drives one publish + negotiate through the v1 API, scrapes
# /v1/metrics, asserts the metric families are present, then fetches
# the negotiation's flight-recorder journal and verifies it with
# softsoa-replay — both the HTTP copy and the -journal-dir dump. The
# solve cache admits a plan on the second sighting of its key, so a
# second identical negotiation stores the plan and a third must
# replay it (cache_hits_total > 0); both must still emit journals that
# replay exactly. The HTTP ?format=jsonl copy and the -journal-dir dump of
# the first negotiation and of one three-stage composition must be
# the same bytes, and the composition journal must hold one solver
# event per stage and drop none.
# The SLO reconciler runs on a fast sweep so the slo_* families and
# the /v1/debug/slo snapshot are asserted too. Exits non-zero on any
# miss.
set -eu

ADDR=127.0.0.1:18700
OPS=127.0.0.1:18701
WORK=$(mktemp -d)
BIN=$WORK/brokerd
REPLAY=$WORK/softsoa-replay
JOURNALS=$WORK/journals
METRICS=$(mktemp)
HTTPCOPY=$WORK/http.jsonl
HEADERS=$WORK/headers

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
go build -o "$REPLAY" ./cmd/softsoa-replay
"$BIN" -addr "$ADDR" -ops-addr "$OPS" -journal-dir "$JOURNALS" -slo-sweep-every 100ms &
PID=$!

# Wait for the health endpoint (up to ~5s).
i=0
until curl -fsS "http://$ADDR/v1/health" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -ge 50 ]; then
        echo "obs-smoke: brokerd did not come up on $ADDR" >&2
        exit 1
    fi
    sleep 0.1
done

curl -fsS -X POST "http://$ADDR/v1/providers" -d \
    '<qos service="failmgmt" provider="p1" region="eu"><attribute name="fee" metric="cost" base="2" perUnit="0" resource="failures" maxUnits="10"></attribute></qos>' \
    >/dev/null
SLA=$(curl -fsS -X POST "http://$ADDR/v1/negotiations" -d \
    '<negotiate service="failmgmt" client="shop" metric="cost"><requirement metric="cost" base="0" perUnit="2" resource="failures" maxUnits="10"></requirement><lower>4</lower><upper>1</upper></negotiate>')
SLA_ID=$(printf '%s' "$SLA" | sed -n 's/.*sla id="\([^"]*\)".*/\1/p')
if [ -z "$SLA_ID" ]; then
    echo "obs-smoke: negotiation returned no SLA id" >&2
    exit 1
fi

curl -fsS "http://$ADDR/v1/metrics" >"$METRICS"
for family in broker_http_requests_total broker_negotiations_total broker_slas_active journal_events_dropped_total; do
    if ! grep -q "^$family" "$METRICS"; then
        echo "obs-smoke: family $family missing from /v1/metrics" >&2
        exit 1
    fi
done

# The SLO reconciler sweeps every 100ms: within ~3s the debug snapshot
# must report the negotiated SLA. Only then do the per-SLA slo_*
# series exist on the metrics surface.
i=0
until curl -fsS "http://$ADDR/v1/debug/slo" | grep -q "\"$SLA_ID\""; do
    i=$((i + 1))
    if [ "$i" -ge 30 ]; then
        echo "obs-smoke: /v1/debug/slo never reported $SLA_ID" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS "http://$ADDR/v1/metrics" >"$METRICS"
for family in slo_sweeps_total slo_slas_tracked slo_compliance slo_burn_rate \
    slo_at_risk slo_at_risk_transitions_total slo_blevel_drift; do
    if ! grep -q "^$family" "$METRICS"; then
        echo "obs-smoke: family $family missing from /v1/metrics" >&2
        exit 1
    fi
done

# The ops listener must serve the same exposition plus pprof. grep
# without -q drains the whole pipe so curl never sees a closed sink.
curl -fsS "http://$OPS/metrics" | grep '^broker_http_requests_total' >/dev/null
curl -fsS "http://$OPS/debug/pprof/cmdline" >/dev/null
curl -fsS "http://$OPS/debug/traces" | grep '"traces"' >/dev/null

# The negotiation's journal must be served as JSONL and replay exactly.
curl -fsS "http://$ADDR/v1/negotiations/$SLA_ID/journal?format=jsonl" | "$REPLAY" -
# The JSON document form must be served too.
curl -fsS "http://$ADDR/v1/negotiations/$SLA_ID/journal" | grep -q '"segments"'
# -journal-dir must have dumped the same journal; replay that copy.
if [ ! -f "$JOURNALS/$SLA_ID.jsonl" ]; then
    echo "obs-smoke: journal dir is missing $SLA_ID.jsonl" >&2
    exit 1
fi
"$REPLAY" -q "$JOURNALS/$SLA_ID.jsonl"
# Both copies render from the same recorded values: same bytes.
curl -fsS "http://$ADDR/v1/negotiations/$SLA_ID/journal?format=jsonl" >"$HTTPCOPY"
if ! cmp "$HTTPCOPY" "$JOURNALS/$SLA_ID.jsonl"; then
    echo "obs-smoke: HTTP and -journal-dir copies of $SLA_ID differ" >&2
    exit 1
fi

# A composition journals one solver event per pipeline stage and
# drops none; its two copies must match byte for byte too.
for stage in index:eu:3 notify:us:1 notify:eu:4; do
    svc=${stage%%:*}
    rest=${stage#*:}
    region=${rest%%:*}
    base=${rest#*:}
    curl -fsS -X POST "http://$ADDR/v1/providers" -d \
        "<qos service=\"$svc\" provider=\"$svc-$region\" region=\"$region\"><attribute name=\"fee\" metric=\"cost\" base=\"$base\" perUnit=\"0\" resource=\"failures\" maxUnits=\"10\"></attribute></qos>" \
        >/dev/null
done
curl -fsS -D "$HEADERS" -X POST "http://$ADDR/v1/compositions" -d \
    '<compose client="shop" metric="cost"><stage>failmgmt</stage><stage>index</stage><stage>notify</stage></compose>' >/dev/null
COMP_ID=$(tr -d '\r' <"$HEADERS" | sed -n 's/^[Xx]-[Ss]oftsoa-[Jj]ournal: *//p')
if [ -z "$COMP_ID" ] || [ ! -f "$JOURNALS/$COMP_ID.jsonl" ]; then
    echo "obs-smoke: composition journal ${COMP_ID:-?} was not dumped" >&2
    exit 1
fi
curl -fsS "http://$ADDR/v1/negotiations/$COMP_ID/journal?format=jsonl" >"$HTTPCOPY"
if ! cmp "$HTTPCOPY" "$JOURNALS/$COMP_ID.jsonl"; then
    echo "obs-smoke: HTTP and -journal-dir copies of $COMP_ID differ" >&2
    exit 1
fi
SOLVER_LINES=$(grep -c '"t":"solver"' "$HTTPCOPY" || true)
if [ "$SOLVER_LINES" -ne 3 ]; then
    echo "obs-smoke: composition journal $COMP_ID has $SOLVER_LINES solver lines, want one per stage (3)" >&2
    exit 1
fi
if ! grep '"t":"end"' "$HTTPCOPY" | grep -q '"dropped":0'; then
    echo "obs-smoke: composition journal $COMP_ID dropped events" >&2
    exit 1
fi

# The second identical negotiation runs cold and stores its plan;
# the third replays it. Both journals must still replay exactly, and
# the cache families must show up on the next scrape with at least
# one hit.
PREV_ID=$SLA_ID
for sighting in second third; do
    SLA2=$(curl -fsS -X POST "http://$ADDR/v1/negotiations" -d \
        '<negotiate service="failmgmt" client="shop" metric="cost"><requirement metric="cost" base="0" perUnit="2" resource="failures" maxUnits="10"></requirement><lower>4</lower><upper>1</upper></negotiate>')
    SLA2_ID=$(printf '%s' "$SLA2" | sed -n 's/.*sla id="\([^"]*\)".*/\1/p')
    if [ -z "$SLA2_ID" ] || [ "$SLA2_ID" = "$PREV_ID" ]; then
        echo "obs-smoke: $sighting negotiation returned no fresh SLA id" >&2
        exit 1
    fi
    curl -fsS "http://$ADDR/v1/negotiations/$SLA2_ID/journal?format=jsonl" | "$REPLAY" -
    PREV_ID=$SLA2_ID
done

curl -fsS "http://$ADDR/v1/metrics" >"$METRICS"
for family in cache_hits_total cache_misses_total cache_entries; do
    if ! grep -q "^$family" "$METRICS"; then
        echo "obs-smoke: family $family missing from /v1/metrics" >&2
        exit 1
    fi
done
HITS=$(awk '/^cache_hits_total\{/ { sum += $NF } END { print sum + 0 }' "$METRICS")
if [ "$HITS" -lt 1 ]; then
    echo "obs-smoke: repeat negotiation produced no cache hits (cache_hits_total = $HITS)" >&2
    exit 1
fi

# With OBS_SMOKE_ARTIFACTS set, keep the dumped journals (CI uploads
# them as build artifacts).
if [ -n "${OBS_SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$OBS_SMOKE_ARTIFACTS"
    cp "$JOURNALS"/*.jsonl "$OBS_SMOKE_ARTIFACTS"/
fi

echo "obs-smoke: ok ($(grep -c '^# TYPE' "$METRICS") metric families, journal $SLA_ID replayed, $SLA_ID and $COMP_ID byte-identical over HTTP and -journal-dir)"
