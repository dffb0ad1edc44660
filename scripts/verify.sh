#!/bin/sh
# Full verification: vet + build + race-enabled tests + an end-to-end
# smoke run that checks the telemetry exports are well-formed.
# Run from the repository root (or via `make verify`).
set -eu

cd "$(dirname "$0")/.."

echo '== go vet =='
go vet ./...

echo '== staticcheck =='
# Gated: the verify environment may be offline. CI installs the pinned
# version (see .github/workflows/ci.yml) so the check always runs there.
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo 'staticcheck not installed; skipped (CI runs the pinned version)'
fi

echo '== go build =='
go build ./...

echo '== go test -race =='
go test -race ./...

echo '== perfbench: served plan bytes and canonical keys vs the reference =='
# perfbench is a nested module, so the root ./... above skips it: vet it
# too, so an API rename that breaks the benchmark driver fails here, and
# its tests fail on any drift in served bytes or keys against
# perfbench/testdata/reference.txt.
(cd perfbench && go vet ./...)
(cd perfbench && go test ./...)

echo '== race: parallel search engine at forced pool sizes =='
go test -race -count=1 \
	-run 'TestSearchDeterministicAcrossPoolSizes|TestPruningDoesNotChangePlan|TestEnumeratedSearchConcurrent' \
	./internal/partition

echo '== race: serving layer (singleflight, shedding, graceful shutdown) =='
go test -race -count=1 \
	-run 'TestServerSingleflightConcurrentIdentical|TestServerShedsLoad|TestServerGracefulShutdownDrains' \
	./internal/server

echo '== race: request tracing (disjoint trees, coalesced waiter links) =='
go test -race -count=1 \
	-run 'TestServerObservabilityEndToEnd|TestServerParallelTracesDisjoint|TestServerCoalescedWaiterLinksOwner' \
	./internal/server

echo '== fuzz smoke: loopir parser (10s) =='
go test -fuzz=FuzzParse -fuzztime=10s -run '^$' ./internal/loopir

echo '== fuzz smoke: footprint model vs enumeration (10s) =='
go test -fuzz=FuzzRectFootprint -fuzztime=10s -run '^$' ./internal/verify

echo '== fuzz smoke: integer image counter vs the string-keyed oracle (10s) =='
go test -fuzz=FuzzExactCount -fuzztime=10s -run '^$' ./internal/verify

echo '== fuzz smoke: HNF/SNF contracts (10s) =='
go test -fuzz=FuzzHNF -fuzztime=10s -run '^$' ./internal/verify

echo '== fuzz smoke: served-plan pipeline (10s) =='
go test -fuzz=FuzzPlanPipeline -fuzztime=10s -run '^$' .

echo '== fuzz smoke: communication-set cross-check (10s) =='
go test -fuzz=FuzzCommSets -fuzztime=10s -run '^$' ./internal/verify

echo '== smoke: loopsim -commsets runs the message-passing executor =='
# The executor itself enforces measured words == predicted; the smoke
# checks the CLI surfaces both the table and the accounting line.
commout=$(go run ./cmd/loopsim -procs 4 -param N=24 -param T=2 -commsets fig9stencil)
echo "$commout" | grep -q 'total words/epoch:' || {
	echo 'verify: loopsim -commsets printed no send/receive table' >&2
	exit 1
}
echo "$commout" | grep -q 'msgexec: .* moved' || {
	echo 'verify: loopsim -commsets printed no msgexec accounting line' >&2
	exit 1
}

echo '== smoke: looptune calibration recovers the machine fingerprint =='
# The sim-calibrated fingerprint must agree with the model constants: the
# microbenchmarks fit hit/miss/atomic/mesh costs, they do not read them.
caldump=$(go run ./cmd/looptune -calibrate sim)
echo "$caldump"
modeldump=$(go run ./cmd/looptune -calibrate model)
[ "${caldump#fp}" != "$caldump" ] || { echo 'verify: calibration printed no fingerprint' >&2; exit 1; }
[ "${caldump%%\ *}" = "${modeldump%%\ *}" ] || {
	echo "verify: sim calibration diverged from the model fingerprint:" >&2
	echo "  sim:   $caldump" >&2
	echo "  model: $modeldump" >&2
	exit 1
}

echo '== bench smoke: BENCH_PARTITION.json stays well-formed =='
# A short re-run (10 iterations/benchmark) through the same pipeline that
# produced the checked-in record; the checked-in file itself must also
# validate.
benchout=$(mktemp /tmp/looppart-bench.XXXXXX.json)
# GUARD=0: 10 iterations/benchmark is far too noisy for the regression
# guard; the real guard runs in full scripts/bench.sh invocations.
OUT="$benchout" BENCHTIME=10x GUARD=0 sh scripts/bench.sh >/dev/null
go run ./scripts/benchjson -validate "$benchout"
go run ./scripts/benchjson -validate BENCH_PARTITION.json
rm -f "$benchout"

echo '== smoke: looppart -trace/-metrics on example8 =='
trace=$(mktemp /tmp/looppart-trace.XXXXXX.json)
metrics=$(mktemp /tmp/looppart-metrics.XXXXXX.json)
trap 'rm -f "$trace" "$metrics"' EXIT

go run ./cmd/looppart -procs 16 -trace "$trace" -metrics "$metrics" example8 >/dev/null

# The trace must be a JSON array of Chrome trace events (ph/ts fields);
# the metrics dump must be a JSON object with a counters section.
go run ./scripts/checktrace "$trace" "$metrics"

echo '== smoke: looppart reads a nest from stdin =='
printf 'doall (i, 1, 16)\n A[i] = A[i] + 1\nenddoall\n' \
	| go run ./cmd/looppart -procs 4 - >/dev/null

echo '== smoke: looppartd serves, caches, and drains =='
smokedir=$(mktemp -d /tmp/looppartd-smoke.XXXXXX)
daemon_pid=
cluster_pids=
cleanup() {
	rm -f "$trace" "$metrics"
	[ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
	for p in $cluster_pids; do kill "$p" 2>/dev/null; done
	rm -rf "$smokedir"
	return 0
}
trap cleanup EXIT

go build -o "$smokedir/looppartd" ./cmd/looppartd
"$smokedir/looppartd" -addr 127.0.0.1:0 -portfile "$smokedir/port" \
	-reqlog "$smokedir/requests.log" \
	>"$smokedir/daemon.log" &
daemon_pid=$!
i=0
while [ ! -s "$smokedir/port" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo 'verify: looppartd never wrote its portfile' >&2
		cat "$smokedir/daemon.log" >&2
		exit 1
	fi
	sleep 0.1
done
addr=$(cat "$smokedir/port")

req='{"source":"doall (i, 1, 64)\n A[i] = B[i+1]\nenddoall","procs":8,"strategy":"rect"}'
curl -sf -D "$smokedir/hdr1" -o "$smokedir/resp1" \
	-H 'Content-Type: application/json' --data "$req" "http://$addr/v1/plan"
curl -sf -D "$smokedir/hdr2" -o "$smokedir/resp2" \
	-H 'Content-Type: application/json' --data "$req" "http://$addr/v1/plan"
grep -qi '^x-plancache: miss' "$smokedir/hdr1"
grep -qi '^x-plancache: hit' "$smokedir/hdr2"
# A hit must be byte-identical to the miss that filled the cache.
cmp "$smokedir/resp1" "$smokedir/resp2"
curl -sf "http://$addr/healthz" | grep -q '"status":"ok"'
curl -sf "http://$addr/metrics" | grep -q '^plancache_hits 1'

# ?verify=1 re-validates the served plan: the response must embed the
# cached plan bytes unchanged plus a passing verification report.
curl -sf -o "$smokedir/resp3" \
	-H 'Content-Type: application/json' --data "$req" "http://$addr/v1/plan?verify=1"
grep -q '"failures":0' "$smokedir/resp3"
grep -qF "\"result\":$(cat "$smokedir/resp1")" "$smokedir/resp3"

# Request-scoped observability: a fresh nest under ?verify=1 forces a
# slow cache-miss search whose caller-supplied trace ID must be
# reconstructable from the flight recorder AND the structured request
# log — span tree (singleflight owner, search, persist, verify)
# included.
slowreq='{"source":"doall (i, 1, 64)\n doall (j, 1, 64)\n  A[i,j] = B[i,j] + B[i+1,j+3]\n enddoall\nenddoall","procs":16,"strategy":"rect"}'
curl -sf -o "$smokedir/resp4" -H 'Content-Type: application/json' \
	-H 'X-Trace-Id: verify-smoke-trace' --data "$slowreq" "http://$addr/v1/plan?verify=1"
grep -q '"failures":0' "$smokedir/resp4"
curl -sf "http://$addr/debug/flightrec?trace=verify-smoke-trace" >"$smokedir/flightrec"
grep -q '"trace_id": "verify-smoke-trace"' "$smokedir/flightrec"
grep -q '"cache": "miss"' "$smokedir/flightrec"
for span in cache.lookup singleflight search search.rect store.persist verify; do
	grep -q "\"name\": \"$span\"" "$smokedir/flightrec" || {
		echo "verify: flight record lacks the $span span" >&2
		cat "$smokedir/flightrec" >&2
		exit 1
	}
done
grep -q 'verify-smoke-trace' "$smokedir/requests.log"
curl -sf "http://$addr/debug/cache" | grep -q '"top_keys"'

kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=
grep -q 'served 4 requests (2 searches, 2 cache hits)' "$smokedir/daemon.log"

echo '== smoke: -strategies gating and the ?commsets=1 optimality score =='
# A daemon restricted to rect,skew,lowerbound ("skew" is the accepted
# short spelling of "skewed") must plan those strategies, reject the
# rest, and score every rect-family ?commsets=1 answer against the
# communication lower bound: comm_optimality_pct present, finite, ≤ 100.
"$smokedir/looppartd" -addr 127.0.0.1:0 -portfile "$smokedir/port2" \
	-strategies rect,skew,lowerbound -reqlog '' >"$smokedir/daemon2.log" &
daemon_pid=$!
i=0
while [ ! -s "$smokedir/port2" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo 'verify: strategy-gated looppartd never wrote its portfile' >&2
		cat "$smokedir/daemon2.log" >&2
		exit 1
	fi
	sleep 0.1
done
addr2=$(cat "$smokedir/port2")
grep -q 'strategies enabled: rect, skewed, lowerbound' "$smokedir/daemon2.log"

commreq='{"source":"doall (i, 1, 64)\n doall (j, 1, 64)\n  A[i,j] = A[i+1,j] + A[i,j+2] + 1\n enddoall\nenddoall","procs":16,"strategy":"rect"}'
curl -sf -o "$smokedir/commresp" \
	-H 'Content-Type: application/json' --data "$commreq" "http://$addr2/v1/plan?commsets=1"
grep -q '"comm_lower_bound":' "$smokedir/commresp"
pct=$(sed -n 's/.*"comm_optimality_pct":\([0-9][0-9.e+-]*\).*/\1/p' "$smokedir/commresp")
[ -n "$pct" ] || {
	echo 'verify: ?commsets=1 response carries no finite comm_optimality_pct' >&2
	cat "$smokedir/commresp" >&2
	exit 1
}
awk "BEGIN{exit !($pct >= 0 && $pct <= 100)}" || {
	echo "verify: comm_optimality_pct $pct outside [0, 100]" >&2
	cat "$smokedir/commresp" >&2
	exit 1
}

# A strategy outside the enabled set must be rejected, not planned.
rejreq='{"source":"doall (i, 1, 64)\n A[i] = A[i] + 1\nenddoall","procs":4,"strategy":"blocks"}'
rejcode=$(curl -s -o "$smokedir/rejresp" -w '%{http_code}' \
	-H 'Content-Type: application/json' --data "$rejreq" "http://$addr2/v1/plan")
[ "$rejcode" != 200 ] || {
	echo 'verify: disabled strategy "blocks" was served instead of rejected' >&2
	exit 1
}
grep -q 'not enabled' "$smokedir/rejresp"

kill -TERM "$daemon_pid"
wait "$daemon_pid"
daemon_pid=

echo '== smoke: 3-replica cluster peer-fills, one search fleet-wide =='
# Three daemons on ephemeral ports, each handed the same three @portfile
# peer specs (its own included; the ring dedups) — boot order does not
# matter, each polls until every portfile exists. The same key is then
# asked of every replica: responses must be byte-identical everywhere,
# and the drain lines must show exactly one search across the fleet.
cdir="$smokedir/cluster"
mkdir "$cdir"
cluster_peers="@$cdir/p1,@$cdir/p2,@$cdir/p3"
for i in 1 2 3; do
	"$smokedir/looppartd" -addr 127.0.0.1:0 -portfile "$cdir/p$i" \
		-peers "$cluster_peers" -reqlog '' >"$cdir/d$i.log" &
	cluster_pids="$cluster_pids $!"
done
for i in 1 2 3; do
	j=0
	while [ ! -s "$cdir/p$i" ]; do
		j=$((j + 1))
		if [ "$j" -gt 100 ]; then
			echo "verify: cluster replica $i never wrote its portfile" >&2
			cat "$cdir"/d*.log >&2
			exit 1
		fi
		sleep 0.1
	done
done

clusterreq='{"source":"doall (i, 1, 96)\n doall (j, 1, 96)\n  A[i,j] = B[i,j] + B[i+3,j+1]\n enddoall\nenddoall","procs":12,"strategy":"rect"}'
for i in 1 2 3; do
	caddr=$(cat "$cdir/p$i")
	curl -sf -D "$cdir/hdr$i" -o "$cdir/resp$i" \
		-H 'Content-Type: application/json' --data "$clusterreq" "http://$caddr/v1/plan"
done
# Byte-identity across the fleet: every replica serves the owner's bytes.
cmp "$cdir/resp1" "$cdir/resp2"
cmp "$cdir/resp1" "$cdir/resp3"
# Every response came from the clustering paths: the owner's search
# (miss), a peer fill (peer), or a local hit after the owner searched
# on a fill's behalf (hit).
for i in 1 2 3; do
	grep -qiE '^x-plancache: (miss|peer|hit)' "$cdir/hdr$i" || {
		echo "verify: replica $i served an unexpected X-Plancache status" >&2
		cat "$cdir/hdr$i" >&2
		exit 1
	}
done
grep -qi '^x-plancache: peer' "$cdir"/hdr1 "$cdir"/hdr2 "$cdir"/hdr3 || {
	echo 'verify: no replica served a peer fill' >&2
	exit 1
}

# Clean SIGTERM drain for each replica, then the fleet-wide invariant:
# the three drain lines sum to exactly one search.
for p in $cluster_pids; do kill -TERM "$p"; done
for p in $cluster_pids; do wait "$p"; done
cluster_pids=
fleet_searches=$(grep -ho '[0-9]* searches' "$cdir"/d*.log | awk '{s += $1} END {print s}')
[ "$fleet_searches" = 1 ] || {
	echo "verify: fleet searched $fleet_searches times for one key, want 1" >&2
	cat "$cdir"/d*.log >&2
	exit 1
}

echo 'verify: OK'
