#!/usr/bin/env bash
# The gridnode smoke recipes, one function each. CI's smoke jobs run them
# one by one against a plain build; the reach job runs all of them against
# a coverage build.
#
#   bash .github/smoke.sh RECIPE...   (lb taskfarm membership gate telemetry trace)
#
# GRIDNODE and GRIDTRACE name the binaries (default ./gridnode and
# ./gridtrace). Every recipe writes its logs and snapshots into the
# current directory and uses fixed loopback ports, so run recipes one at
# a time.
set -euo pipefail

GRIDNODE=${GRIDNODE:-./gridnode}
GRIDTRACE=${GRIDTRACE:-./gridtrace}

# Migration across processes: two gridnode processes run the stencil with
# the paper's §6 grid balancer over a 30ms delay chain. -split 3 makes
# cluster 0 span both processes, so the balancing round's evict→arrive PUP
# payloads cross the TCP boundary; the run must converge (a checksum is
# printed) and the metrics snapshot must record at least one balancing
# round with at least one migration.
lb() {
  ADDRS=127.0.0.1:9461,127.0.0.1:9462
  COMMON="-app stencil -procs 4 -split 3 -latency 30ms \
    -objects 16 -width 128 -steps 8 -warmup 1 -lb grid -addrs $ADDRS"
  $GRIDNODE -node 1 $COMMON &
  WORKER=$!
  sleep 1
  $GRIDNODE -node 0 $COMMON -metrics-out lb-metrics.json | tee run.log
  wait $WORKER
  grep -E 'checksum [0-9]+\.[0-9]+' run.log
  jq -e '[.series[] | select(.name=="core_lb_rounds_total") | .value] | add > 0' lb-metrics.json
  jq -e '[.series[] | select(.name=="core_lb_moves_total") | .value] | add > 0' lb-metrics.json
  # The default stack is the reliable one: data frames were sequenced.
  jq -e '[.series[] | select(.name=="vmi_rel_data_sent_total") | .value] | add > 0' lb-metrics.json
}

# Taskfarm dispatch across processes: the same task set runs once as the
# single master (one dispatcher shard, one task per grant) and once as
# four shards with randomized stealing. The one-shard run must send
# exactly one grant per task and never steal; the cost skew drains the
# sharded run's low-index shards early, so node 0's shards must record
# successful steals; and the order-independent checksum must come out
# bit-identical in both.
taskfarm() {
  ADDRS=127.0.0.1:9471,127.0.0.1:9472
  COMMON="-app taskfarm -procs 4 -tasks 400 -spin 40000 -skew 8 \
    -shards 1 -batch 1 -addrs $ADDRS"
  $GRIDNODE -node 1 $COMMON -metrics-out single-node1.json &
  WORKER=$!
  sleep 1
  $GRIDNODE -node 0 $COMMON -metrics-out single-node0.json | tee single.log
  wait $WORKER
  jq -e -s '[.[].series[] | select(.name=="taskfarm_grants_total") | .value // 0] | add == 400' \
    single-node0.json single-node1.json
  jq -e -s '[.[].series[] | select(.name=="taskfarm_steals_total") | .value // 0] | add == 0' \
    single-node0.json single-node1.json

  ADDRS=127.0.0.1:9473,127.0.0.1:9474
  COMMON="-app taskfarm -procs 4 -tasks 400 -spin 40000 -skew 8 \
    -shards 4 -steal -addrs $ADDRS"
  $GRIDNODE -node 1 $COMMON -metrics-out farm-node1.json &
  WORKER=$!
  sleep 1
  $GRIDNODE -node 0 $COMMON -metrics-out farm-node0.json | tee sharded.log
  wait $WORKER

  jq -e -s '[.[].series[] | select(.name=="taskfarm_steals_total") | .value // 0] | add > 0' \
    farm-node0.json farm-node1.json
  SINGLE=$(grep -o 'checksum 0x[0-9a-f]*' single.log)
  SHARDED=$(grep -o 'checksum 0x[0-9a-f]*' sharded.log)
  test -n "$SINGLE" && test "$SINGLE" = "$SHARDED"
}

# Elastic membership across processes: a static three-process run gives
# the baseline checksum; then three founding processes plus a mid-run
# joiner have node 1 drained by SIGTERM while tasks are in flight. The
# elastic run must finish with the static checksum, the metrics must
# record the join and the drain's evacuation moves, and the epoch-fence
# stale-table counter must be present. Node 0 stops its membership
# manager before announcing shutdown, so no control send (a redial of an
# exited worker) may follow its result line.
membership() {
  ADDRS=127.0.0.1:9531,127.0.0.1:9532,127.0.0.1:9533
  COMMON="-app taskfarm -procs 3 -tasks 2000 -spin 2000000 -shards 2 \
    -addrs $ADDRS"
  $GRIDNODE -node 1 $COMMON &
  W1=$!
  $GRIDNODE -node 2 $COMMON &
  W2=$!
  sleep 1
  $GRIDNODE -node 0 $COMMON | tee static.log
  wait $W1 $W2

  ADDRS=127.0.0.1:9541,127.0.0.1:9542,127.0.0.1:9543,127.0.0.1:9544
  COMMON="-app taskfarm -procs 4 -tasks 2000 -spin 2000000 -shards 2 \
    -membership -joiners 3 -addrs $ADDRS"
  $GRIDNODE -node 1 $COMMON -metrics-out mem-node1.json &
  DRAINEE=$!
  $GRIDNODE -node 2 $COMMON &
  W2=$!
  $GRIDNODE -node 3 $COMMON &
  W3=$!
  sleep 1
  $GRIDNODE -node 0 $COMMON -metrics-out mem-node0.json 2>&1 | tee elastic.log &
  COORD=$!
  sleep 2
  kill -TERM $DRAINEE
  wait $DRAINEE
  wait $COORD $W2 $W3

  jq -e -s '[.[].series[] | select(.name=="membership_evacuated_elements_total") | .value // 0] | add > 0' \
    mem-node0.json mem-node1.json
  jq -e -s '[.[].series[] | select(.name=="membership_stale_tables_total") | .value // 0] | add >= 0' \
    mem-node0.json mem-node1.json
  jq -e '[.series[] | select(.name=="membership_joins_total") | .value // 0] | add > 0' mem-node0.json
  STATIC=$(grep -o 'checksum 0x[0-9a-f]*' static.log)
  ELASTIC=$(grep -o 'checksum 0x[0-9a-f]*' elastic.log)
  test -n "$STATIC" && test "$STATIC" = "$ELASTIC"
  ! awk '/checksum 0x/ { done = 1 } done && /control send to node/' elastic.log | grep .
}

# Gateway: node 0 fronts a two-backend serve farm over the reliability
# layer on real TCP; 500 jobs arrive from 20 concurrent curl workers,
# every tenth submission reusing an earlier idempotency key. The gate must
# execute each distinct key exactly once (450 completions, 50 duplicate
# hits), report zero double-executions, and drain its queues to zero
# before shutdown.
gate() {
  ADDRS=127.0.0.1:9561,127.0.0.1:9562,127.0.0.1:9563
  COMMON="-procs 6 -shards 2 -spin 20000 -addrs $ADDRS"
  $GRIDNODE -serve -app taskfarm -node 1 $COMMON &
  W1=$!
  $GRIDNODE -serve -app taskfarm -node 2 $COMMON &
  W2=$!
  sleep 1
  $GRIDNODE -node 0 -app taskfarm -serve $COMMON -listen 127.0.0.1:8085 -tenants ci \
    -metrics-out gate-metrics.json > gate.log 2>&1 &
  GATE=$!
  for i in $(seq 1 50); do
    curl -sf http://127.0.0.1:8085/metrics -o /dev/null && break
    sleep 0.2
  done
  WORKERS=""
  for w in $(seq 0 19); do
    (
      for i in $(seq $w 20 499); do
        if [ $((i % 10)) -eq 9 ]; then KEY="job-$((i - 9))"; else KEY="job-$i"; fi
        curl -sf -X POST -H 'Content-Type: application/json' \
          -d "{\"tenant\":\"ci\",\"key\":\"$KEY\",\"wait\":true}" \
          http://127.0.0.1:8085/v1/jobs > /dev/null
      done
    ) &
    WORKERS="$WORKERS $!"
  done
  wait $WORKERS
  curl -sf "http://127.0.0.1:8085/metrics?format=json" > gate-live.json
  kill -TERM $GATE
  wait $GATE $W1 $W2
  cat gate.log

  grep -E '450 jobs completed, 0 double-executions' gate.log
  jq -e '[.series[] | select(.name=="gate_jobs_completed_total") | .value] | add == 450' gate-live.json
  jq -e '[.series[] | select(.name=="gate_jobs_duplicate_total") | .value] | add == 50' gate-live.json
  jq -e '[.series[] | select(.name=="gate_queue_depth") | .value // 0] | add == 0' gate-live.json
  jq -e '[.series[] | select(.name=="gate_inflight_tasks") | .value // 0] | add == 0' gate-metrics.json
}

# Telemetry plane: three -telemetry backends behind the gateway node 0
# (the collector) over the reliability layer on real TCP. 200 jobs go
# through; the collector's /v1/cluster/metrics must aggregate the nodes'
# worker counters to exactly 200, and some job's /v1/jobs/{id}/trace must
# hold spans from at least two distinct processes (the gate's HTTP root
# plus the backend that executed it). The probe job's status, result and
# event stream must report it done, and /v1/cluster/overlap must answer
# JSON. A second run checks the probes of a node's -metrics server:
# /healthz answers 200, -pprof serves /debug/pprof/cmdline, and /readyz
# answers 200 while serving and flips to 503 the moment a SIGTERM drain
# starts.
telemetry() {
  ADDRS=127.0.0.1:9571,127.0.0.1:9572,127.0.0.1:9573,127.0.0.1:9574
  COMMON="-procs 8 -shards 2 -spin 20000 -addrs $ADDRS \
    -telemetry -telemetry-interval 200ms"
  $GRIDNODE -serve -app taskfarm -node 1 $COMMON &
  W1=$!
  $GRIDNODE -serve -app taskfarm -node 2 $COMMON &
  W2=$!
  $GRIDNODE -serve -app taskfarm -node 3 $COMMON &
  W3=$!
  sleep 1
  $GRIDNODE -node 0 -app taskfarm -serve $COMMON -listen 127.0.0.1:8086 -tenants ci > gate.log 2>&1 &
  GATE=$!
  for i in $(seq 1 100); do
    curl -sf http://127.0.0.1:8086/readyz -o /dev/null && break
    sleep 0.2
  done
  curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"tenant":"ci","key":"job-probe","wait":true}' \
    http://127.0.0.1:8086/v1/jobs > probe.json
  jq -r .id probe.json
  WORKERS=""
  for w in $(seq 0 9); do
    (
      for i in $(seq $w 10 198); do
        curl -sf -X POST -H 'Content-Type: application/json' \
          -d "{\"tenant\":\"ci\",\"key\":\"job-$i\",\"wait\":true}" \
          http://127.0.0.1:8086/v1/jobs > /dev/null
      done
    ) &
    WORKERS="$WORKERS $!"
  done
  wait $WORKERS
  # The collector converges within a reporting period: poll until the
  # cluster-wide worker counter equals the submitted total.
  for i in $(seq 1 50); do
    curl -s "http://127.0.0.1:8086/v1/cluster/metrics?format=json" > cluster.json
    jq -e '[.series[] | select(.name=="taskfarm_worker_tasks_total") | .value] | add == 200' \
      cluster.json > /dev/null && break
    sleep 0.3
  done
  jq -e '[.series[] | select(.name=="taskfarm_worker_tasks_total") | .value] | add == 200' cluster.json
  # The probe job's span tree must be complete; SOME job's tree must cross
  # at least two processes. (The probe itself may legitimately execute on
  # a gateway-local worker — the gate hosts worker PEs too — so the
  # cross-node assertion scans jobs until it finds one granted to a
  # remote node.)
  ID=$(jq -r .id probe.json)
  for i in $(seq 1 50); do
    curl -s "http://127.0.0.1:8086/v1/jobs/$ID/trace" > trace.json
    jq -e '.complete == true' trace.json > /dev/null && break
    sleep 0.3
  done
  jq -e '.complete == true' trace.json
  curl -sf "http://127.0.0.1:8086/v1/jobs/$ID" | jq -e '.state == "done"'
  curl -sf "http://127.0.0.1:8086/v1/jobs/$ID/result" | jq -e '.value != null'
  # A done job's event stream emits its state once and closes.
  curl -sf --max-time 5 "http://127.0.0.1:8086/v1/jobs/$ID/events" > events.ndjson
  tail -n 1 events.ndjson | jq -e '.state == "done"'
  curl -sf "http://127.0.0.1:8086/v1/cluster/overlap" | jq -e 'has("steps")'
  CROSS=no
  for n in $(seq 1 200); do
    curl -s "http://127.0.0.1:8086/v1/jobs/j-$n/trace" > trace.json
    if jq -e '(.nodes | length >= 2) and .complete' trace.json > /dev/null; then
      CROSS=yes; echo "job j-$n crossed nodes: $(jq -c .nodes trace.json)"; break
    fi
  done
  test "$CROSS" = yes
  curl -sf "http://127.0.0.1:8086/v1/cluster/health" | jq -e '.nodes | length == 4'
  curl -sf "http://127.0.0.1:8086/v1/cluster/slo" -o /dev/null
  kill -TERM $GATE
  wait $GATE $W1 $W2 $W3
  cat gate.log

  ADDRS=127.0.0.1:9581,127.0.0.1:9582,127.0.0.1:9583
  COMMON="-app taskfarm -procs 6 -tasks 2000 -spin 2000000 -shards 2 \
    -membership -addrs $ADDRS"
  $GRIDNODE -node 1 $COMMON -metrics 127.0.0.1:9681 -pprof &
  DRAINEE=$!
  $GRIDNODE -node 2 $COMMON &
  W2=$!
  sleep 1
  $GRIDNODE -node 0 $COMMON > drain.log &
  COORD=$!
  for i in $(seq 1 100); do
    code=$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:9681/readyz || echo 000)
    [ "$code" = "200" ] && break
    sleep 0.2
  done
  test "$code" = "200"
  test "$(curl -s -o /dev/null -w '%{http_code}' http://127.0.0.1:9681/healthz)" = "200"
  curl -sf http://127.0.0.1:9681/debug/pprof/cmdline | tr '\0' ' ' | grep gridnode > /dev/null
  kill -TERM $DRAINEE
  FLIPPED=no
  for i in $(seq 1 200); do
    code=$(curl -s -o /dev/null -w '%{http_code}' --max-time 1 http://127.0.0.1:9681/readyz || echo 000)
    if [ "$code" = "503" ]; then FLIPPED=yes; break; fi
    if [ "$code" = "000" ]; then break; fi
    sleep 0.05
  done
  test "$FLIPPED" = "yes"
  wait $DRAINEE $COORD $W2
  grep -E 'checksum' drain.log
}

# Sample trace: two gridnode processes run the stencil over a 2ms WAN
# link with -trace-out; gridtrace analyzes both snapshots and writes the
# Chrome/Perfetto export into trace-artifacts/.
trace() {
  mkdir -p trace-artifacts
  COMMON="-app stencil -procs 4 -objects 64 -width 512 -steps 8 -warmup 2 \
    -latency 2ms -addrs 127.0.0.1:9481,127.0.0.1:9482"
  $GRIDNODE -node 1 $COMMON -trace-out trace-artifacts/stencil_tcp.node1.trace.json &
  WORKER=$!
  $GRIDNODE -node 0 $COMMON -trace-out trace-artifacts/stencil_tcp.node0.trace.json
  wait $WORKER
  $GRIDTRACE -chrome trace-artifacts/stencil_tcp.perfetto.json \
    trace-artifacts/stencil_tcp.node0.trace.json trace-artifacts/stencil_tcp.node1.trace.json \
    | tee trace-artifacts/stencil_tcp.report.txt
  test -s trace-artifacts/stencil_tcp.perfetto.json
}

for recipe in "$@"; do
  case $recipe in
  lb | taskfarm | membership | gate | telemetry | trace) "$recipe" ;;
  *)
    echo "smoke.sh: unknown recipe $recipe" >&2
    exit 2
    ;;
  esac
done
