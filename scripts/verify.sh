#!/usr/bin/env bash
# Tiered verification ladder. Every CI job calls one rung of this script,
# so the exact commands CI enforces are runnable (and debuggable) locally:
#
#   scripts/verify.sh --level=unit          # vet + build (incl. purego) + tests + bench smoke
#   scripts/verify.sh --level=race          # race-detector subset + fuzz corpus
#   scripts/verify.sh --level=kernels       # coding-kernel differential: default vs -tags purego
#   scripts/verify.sh --level=differential  # scenario-grid fast/slow scan
#   scripts/verify.sh --level=smoke         # rxld HTTP serving-contract drill
#   scripts/verify.sh --level=metrics       # /metrics + trace contract + rxltop drill
#   scripts/verify.sh --level=fleet         # 3-daemon fleet + front byte-identity e2e
#   scripts/verify.sh --level=compose       # same drill via docker compose (skips w/o docker)
#   scripts/verify.sh --level=bench         # gated benchmark suite + benchgate
#   scripts/verify.sh --level=all           # the whole ladder, bottom to top
#
# The bench rung leaves its raw output in bench.txt so CI can package it
# as the commit-keyed artifact that becomes the next BENCH_baseline.json.
set -euo pipefail
cd "$(dirname "$0")/.."

level=unit
for arg in "$@"; do
  case "$arg" in
    --level=*) level="${arg#--level=}" ;;
    *)
      echo "usage: $0 [--level=unit|race|kernels|differential|smoke|metrics|fleet|compose|bench|all]" >&2
      exit 2
      ;;
  esac
done

run() {
  echo "+ $*" >&2
  "$@"
}

rung_unit() {
  run go vet ./...
  run go build ./...
  # The purego build is the pinned reference for every SIMD-dispatched
  # kernel; it must always compile even when only the asm path changed.
  run go build -tags purego ./...
  run go test ./...
  # Benchmark smoke: one iteration of everything, so a benchmark that no
  # longer compiles or trips its own assertions fails fast here rather
  # than in the (slow) bench rung.
  run go test -run '^$' -bench . -benchtime 1x ./...
}

rung_race() {
  run go test -race ./internal/runner/ ./internal/core/ ./internal/reliability/... \
    ./internal/service/ ./internal/fleet/ ./internal/obs/ ./internal/workload/ \
    ./internal/trace/ ./cmd/rxlsim/ .
  # Fuzz seed corpus (replay parsing only, no long fuzzing).
  run go test -run 'Fuzz.*' ./internal/trace/
}

rung_kernels() {
  # Coding-kernel differential: the exact same test and fuzz-corpus suite
  # twice — once on the dispatched build (CLMUL CRC folding and
  # word-parallel RS syndromes where the CPU has them) and once under
  # -tags purego (the pinned byte-level reference). Every differential
  # test in these packages cross-checks fast against reference, so the
  # two runs together pin the asm and vectored paths bit-for-bit.
  run go test -count=1 ./internal/cpu/ ./internal/crc/ ./internal/rs/ ./internal/flit/
  run go test -count=1 -tags purego ./internal/cpu/ ./internal/crc/ ./internal/rs/ ./internal/flit/
  # The RXL_PUREGO escape hatch must force the reference kernels at
  # runtime without a rebuild.
  RXL_PUREGO=1 run go test -count=1 -run 'CLMUL|Dispatch|Flags' ./internal/cpu/ ./internal/crc/
  # Kernel fuzz corpora, replayed on both builds.
  run go test -count=1 -run 'Fuzz.*' ./internal/crc/ ./internal/rs/
  run go test -count=1 -tags purego -run 'Fuzz.*' ./internal/crc/ ./internal/rs/
}

rung_differential() {
  # Sweep the built-in topology x workload x fault grid through the
  # fast-path/byte-level differential; any diverging cell (or
  # non-exactly-once RXL delivery) exits non-zero.
  run go run ./cmd/rxlsim -scan -scan-n 25 -ber 1e-5
}

rung_smoke() {
  # Boot the real daemon on a random port, drive the HTTP API the way an
  # operator would, and assert the serving contract — the repeat of an
  # identical job must be a cache hit with a byte-identical result.
  run go build -o rxld ./cmd/rxld
  rm -f rxld.addr
  ./rxld -addr 127.0.0.1:0 -addr-file rxld.addr &
  RXLD_PID=$!
  trap 'kill "$RXLD_PID" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [ -s rxld.addr ] && break; sleep 0.2; done
  ADDR=$(cat rxld.addr)
  echo "daemon at $ADDR"

  curl -fsS "http://$ADDR/v1/healthz" | jq -e '.ok == true'

  SPEC='{"kind":"grid","seed":1,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":2000}}'
  FIRST=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d "$SPEC")
  echo "$FIRST" | jq '{id, status, cached}'
  ID=$(echo "$FIRST" | jq -r .id)

  DONE=$(curl -fsS "http://$ADDR/v1/jobs/$ID?wait=60000")
  test "$(echo "$DONE" | jq -r .status)" = done

  SECOND=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d "$SPEC")
  echo "$SECOND" | jq '{id, status, cached}'
  test "$(echo "$SECOND" | jq -r .cached)" = true
  test "$(echo "$SECOND" | jq -r .status)" = done

  # Byte-identical result documents between the computed first run and
  # the cached repeat.
  echo "$DONE" | jq -cS .result >r1.json
  echo "$SECOND" | jq -cS .result >r2.json
  cmp r1.json r2.json

  curl -fsS "http://$ADDR/v1/statsz" | tee statsz.json | jq .
  jq -e '.cache.hits >= 1 and .jobs_completed >= 2' statsz.json

  kill "$RXLD_PID"
  trap - EXIT
}

rung_metrics() {
  # Observability contract: the daemon exposes valid Prometheus text with
  # the documented families and outcome-split latency histograms, a
  # client-sent request id resolves to a lifecycle trace, and rxltop
  # renders a 3-member fleet map from nothing but /metrics endpoints.
  run go build -o rxld ./cmd/rxld
  BASE=$(mktemp -d)
  run go build -o "$BASE/rxltop" ./cmd/rxltop

  rm -f rxld.addr
  ./rxld -addr 127.0.0.1:0 -addr-file rxld.addr &
  RXLD_PID=$!
  trap 'kill "$RXLD_PID" 2>/dev/null || true' EXIT
  for _ in $(seq 50); do [ -s rxld.addr ] && break; sleep 0.2; done
  ADDR=$(cat rxld.addr)
  echo "daemon at $ADDR"

  SPEC='{"kind":"grid","seed":11,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":2000}}'
  RID=feedfacecafe0001
  FIRST=$(curl -fsS -X POST -H "X-Rxl-Request-Id: $RID" "http://$ADDR/v1/jobs" -d "$SPEC")
  ID=$(echo "$FIRST" | jq -r .id)
  test "$(echo "$FIRST" | jq -r .request_id)" = "$RID"
  DONE=$(curl -fsS "http://$ADDR/v1/jobs/$ID?wait=60000")
  test "$(echo "$DONE" | jq -r .status)" = done
  SECOND=$(curl -fsS -X POST "http://$ADDR/v1/jobs" -d "$SPEC")
  test "$(echo "$SECOND" | jq -r .cached)" = true

  # Every documented family is present, and the outcome split advanced:
  # exactly one miss (the compute) and one hit (the repeat) so far.
  curl -fsS "http://$ADDR/metrics" >"$BASE/metrics.txt"
  for fam in rxld_uptime_seconds rxld_queue_depth rxld_shard_utilization \
             rxld_jobs_submitted_total rxld_jobs_completed_total \
             rxld_cache_entries rxld_cache_bytes rxld_cache_hits_total \
             rxld_request_seconds_bucket rxld_request_seconds_count; do
    grep -q "^$fam" "$BASE/metrics.txt" || { echo "missing family $fam" >&2; return 1; }
  done
  grep -q 'rxld_request_seconds_count{outcome="miss"} 1$' "$BASE/metrics.txt"
  grep -q 'rxld_request_seconds_count{outcome="hit"} 1$' "$BASE/metrics.txt"

  # The propagated request id resolves to the job's lifecycle trace.
  TRACE=$(curl -fsS "http://$ADDR/v1/jobs/$ID/trace")
  echo "$TRACE" | jq -e --arg rid "$RID" '.request_id == $rid'
  echo "$TRACE" | jq -e '[.spans[].name] | contains(["submit", "run", "finish"])'
  curl -fsS "http://$ADDR/v1/trace/$RID" | jq -e '.spans | length > 0'

  kill "$RXLD_PID"
  trap - EXIT

  # 3-member fleet + front with active probing: the front's per-peer
  # families render, and rxltop folds the whole fleet into one map.
  P1=17091 P2=17092 P3=17093 PF=17090
  PEERS="http://127.0.0.1:$P1,http://127.0.0.1:$P2,http://127.0.0.1:$P3"
  PIDS=()
  for p in $P1 $P2 $P3; do
    ./rxld -addr "127.0.0.1:$p" -fleet-self "http://127.0.0.1:$p" -fleet-peers "$PEERS" &
    PIDS+=($!)
  done
  ./rxld -addr "127.0.0.1:$PF" -fleet "$PEERS" -fleet-probe-interval 250ms &
  PIDS+=($!)
  trap 'kill "${PIDS[@]}" 2>/dev/null || true' EXIT
  for p in $P1 $P2 $P3 $PF; do
    for _ in $(seq 50); do
      curl -fsS "http://127.0.0.1:$p/v1/healthz" >/dev/null 2>&1 && break
      sleep 0.2
    done
  done
  curl -fsS -X POST "http://127.0.0.1:$PF/v1/jobs" -d "$SPEC" >/dev/null
  sleep 1 # let a probe round land
  curl -fsS "http://127.0.0.1:$PF/metrics" | grep -q '^rxlfront_peer_up'

  "$BASE/rxltop" -once -front "http://127.0.0.1:$PF" | tee "$BASE/top.txt"
  grep -q "FRONT http://127.0.0.1:$PF" "$BASE/top.txt"
  grep -q '^MEMBER' "$BASE/top.txt"
  for p in $P1 $P2 $P3; do
    grep "127.0.0.1:$p" "$BASE/top.txt" | grep -qv DOWN
  done

  kill "${PIDS[@]}" 2>/dev/null || true
  trap - EXIT
  rm -rf "$BASE"
}

# fleet_drill BASE FRONT D1 D2 D3 — the shared fleet serving-contract
# checks, parameterized on URLs so the process rung and the compose rung
# assert exactly the same things. BASE is a scratch directory for the
# result files.
fleet_drill() {
  local base=$1 front=$2 d1=$3 d2=$4 d3=$5

  SPEC='{"kind":"grid","seed":41,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":2000}}'

  curl -fsS "$front/v1/healthz" | jq -e '.ok == true and .role == "front"'

  # Submit through the front, wait, repeat: the repeat must be answered
  # from the owner's cache, through the front, byte-identically.
  FIRST=$(curl -fsS -X POST "$front/v1/jobs" -d "$SPEC")
  ID=$(echo "$FIRST" | jq -r .id)
  echo "front issued job $ID"
  case "$ID" in p[0-9]*~*) ;; *) echo "front job id lacks peer prefix: $ID" >&2; return 1 ;; esac
  DONE=$(curl -fsS "$front/v1/jobs/$ID?wait=60000")
  test "$(echo "$DONE" | jq -r .status)" = done
  SECOND=$(curl -fsS -X POST "$front/v1/jobs" -d "$SPEC")
  test "$(echo "$SECOND" | jq -r .cached)" = true
  echo "$DONE"   | jq -cS .result >"$base/front1.json"
  echo "$SECOND" | jq -cS .result >"$base/front2.json"
  cmp "$base/front1.json" "$base/front2.json"

  # Submit the same spec directly to every daemon: the non-owners must
  # peer-fetch the owner's bytes instead of recomputing, and all three
  # answers must be byte-identical.
  i=0
  for d in "$d1" "$d2" "$d3"; do
    i=$((i + 1))
    V=$(curl -fsS -X POST "$d/v1/jobs" -d "$SPEC")
    VID=$(echo "$V" | jq -r .id)
    curl -fsS "$d/v1/jobs/$VID?wait=60000" | jq -cS .result >"$base/direct$i.json"
    cmp "$base/front1.json" "$base/direct$i.json"
  done
  PEER_HITS=0
  for d in "$d1" "$d2" "$d3"; do
    ST=$(curl -fsS "$d/v1/statsz")
    echo "$ST" | jq -e '.fleet.ring_size > 0'
    PEER_HITS=$((PEER_HITS + $(echo "$ST" | jq '.fleet.peer_hits // 0')))
  done
  echo "fleet-wide peer_hits=$PEER_HITS"
  test "$PEER_HITS" -ge 2 # the two non-owners fetched instead of computing

  curl -fsS "$front/v1/statsz" | jq -e '.forwards >= 2 and .ring_size > 0'
}

rung_fleet() {
  # Boot a real 3-daemon fleet plus a front as separate processes, drive
  # the fleet serving contract, and diff every byte against a standalone
  # (fleet-less) daemon — routing must never change a result.
  run go build -o rxld ./cmd/rxld
  BASE=$(mktemp -d)
  P1=17081 P2=17082 P3=17083 PF=17080 PS=17089
  PEERS="http://127.0.0.1:$P1,http://127.0.0.1:$P2,http://127.0.0.1:$P3"
  PIDS=()
  for p in $P1 $P2 $P3; do
    ./rxld -addr "127.0.0.1:$p" -fleet-self "http://127.0.0.1:$p" -fleet-peers "$PEERS" &
    PIDS+=($!)
  done
  ./rxld -addr "127.0.0.1:$PF" -fleet "$PEERS" &
  PIDS+=($!)
  ./rxld -addr "127.0.0.1:$PS" &
  PIDS+=($!)
  trap 'kill "${PIDS[@]}" 2>/dev/null || true' EXIT
  for p in $P1 $P2 $P3 $PF $PS; do
    for _ in $(seq 50); do
      curl -fsS "http://127.0.0.1:$p/v1/healthz" >/dev/null 2>&1 && break
      sleep 0.2
    done
  done

  fleet_drill "$BASE" "http://127.0.0.1:$PF" \
    "http://127.0.0.1:$P1" "http://127.0.0.1:$P2" "http://127.0.0.1:$P3"

  # Differential leg: the same spec on a standalone daemon must produce
  # the exact bytes the fleet served.
  SPEC='{"kind":"grid","seed":41,"grid":{"Base":{"Protocol":2,"Levels":1,"BER":1e-6},"N":2000}}'
  V=$(curl -fsS -X POST "http://127.0.0.1:$PS/v1/jobs" -d "$SPEC")
  VID=$(echo "$V" | jq -r .id)
  curl -fsS "http://127.0.0.1:$PS/v1/jobs/$VID?wait=60000" | jq -cS .result >"$BASE/standalone.json"
  cmp "$BASE/front1.json" "$BASE/standalone.json"
  echo "fleet bytes == standalone bytes"

  kill "${PIDS[@]}" 2>/dev/null || true
  trap - EXIT
  rm -rf "$BASE"
}

rung_compose() {
  # The same drill against the docker-compose fleet fixture. Skips (exit
  # 0) when no usable docker daemon or compose plugin is present, so the
  # rung is safe in 'all' on docker-less dev boxes; CI runs it for real.
  if ! command -v docker >/dev/null || ! docker info >/dev/null 2>&1; then
    echo "verify: compose rung skipped (no docker daemon)" >&2
    return 0
  fi
  if ! docker compose version >/dev/null 2>&1; then
    echo "verify: compose rung skipped (no docker compose plugin)" >&2
    return 0
  fi
  BASE=$(mktemp -d)
  run docker compose up --build -d --wait
  trap 'docker compose down -v --remove-orphans >/dev/null 2>&1 || true' EXIT
  fleet_drill "$BASE" "http://127.0.0.1:17080" \
    "http://127.0.0.1:17081" "http://127.0.0.1:17082" "http://127.0.0.1:17083"
  run docker compose down -v --remove-orphans
  trap - EXIT
  rm -rf "$BASE"
}

rung_bench() {
  # Separate invocations so each benchmark gets enough wall time per rep:
  # FlitTransfer/MeshTransfer/MeshExpress ops are ~0.3-20µs (20000x), the
  # MC inner loop is ~8ms/op (100x is already ~1s/rep), the MC epoch-skip
  # legs span 300ns-350µs/op (2000x keeps the slow leg ~0.7s/rep), the
  # engine pump is ~20ns/op (2000000x), the CRC and RS kernels are
  # 0.1-4µs (200000x).
  run go test -run '^$' -bench 'FlitTransfer' \
    -count 5 -benchtime 20000x -benchmem . | tee bench.txt
  run go test -run '^$' -bench 'MeshTransferFastPath' \
    -count 5 -benchtime 20000x -benchmem . | tee -a bench.txt
  run go test -run '^$' -bench 'MeshExpressTraversal' \
    -count 5 -benchtime 20000x -benchmem . | tee -a bench.txt
  run go test -run '^$' -bench 'EngineBulkAdvance' \
    -count 5 -benchtime 2000000x -benchmem . | tee -a bench.txt
  run go test -run '^$' -bench 'MCInnerLoopFastPath' \
    -count 5 -benchtime 100x -benchmem . | tee -a bench.txt
  run go test -run '^$' -bench 'MCEpochSkip' \
    -count 5 -benchtime 2000x -benchmem . | tee -a bench.txt
  run go test -run '^$' -bench 'CRCSlicing' \
    -count 5 -benchtime 200000x -benchmem . | tee -a bench.txt
  run go test -run '^$' -bench 'CRCCLMUL' \
    -count 5 -benchtime 1000000x -benchmem . | tee -a bench.txt
  run go test -run '^$' -bench 'RSSyndromeVectored' \
    -count 5 -benchtime 200000x -benchmem . | tee -a bench.txt
  run go test -run '^$' -bench 'RSEncode' \
    -count 5 -benchtime 200000x -benchmem . | tee -a bench.txt

  jq -r '.output' BENCH_baseline.json >baseline.txt
  if command -v benchstat >/dev/null; then
    benchstat baseline.txt bench.txt || true
  fi

  # Two legs: geomean ns/op vs the committed baseline (absolute, carries
  # runner-fleet noise — hence geomean over count=5 averages), plus
  # machine-invariant within-run ratio floors so the fast-path, express,
  # and epoch-skip wins are gated even when absolute timings drift with
  # the runner's CPU model.
  # The CLMUL gate only applies where the host actually ran the kernel:
  # the benchmark self-skips (emitting nothing) on CPUs or builds without
  # PCLMULQDQ, and a missing benchmark would otherwise fail the gate.
  CLMUL_GATE=()
  if grep -q '^BenchmarkCRCCLMUL/clmul' bench.txt; then
    CLMUL_GATE=(-min-ratio 'BenchmarkCRCSlicing/by16,BenchmarkCRCCLMUL/clmul,4')
  else
    echo "verify: no CLMUL on this host, skipping clmul ratio gate" >&2
  fi
  run go run ./cmd/benchgate -baseline baseline.txt -current bench.txt \
    -max-regress 0.15 \
    -min-ratio 'BenchmarkFlitTransfer/bytelevel,BenchmarkFlitTransfer/fastpath,5' \
    -min-ratio 'BenchmarkMeshTransferFastPath/bytelevel,BenchmarkMeshTransferFastPath/fastpath,5' \
    -min-ratio 'BenchmarkMeshExpressTraversal/fastpath,BenchmarkMeshExpressTraversal/express,1.05' \
    -min-ratio 'BenchmarkMCEpochSkip/pr5-ber1e6,BenchmarkMCEpochSkip/epoch-ber1e9,5' \
    -min-ratio 'BenchmarkCRCSlicing/table,BenchmarkCRCSlicing/by16,4' \
    -min-ratio 'BenchmarkRSSyndromeVectored/bytelevel,BenchmarkRSSyndromeVectored/vectored,3' \
    -min-ratio 'BenchmarkRSEncode/reference,BenchmarkRSEncode/packed,7' \
    "${CLMUL_GATE[@]}"
}

case "$level" in
unit) rung_unit ;;
race) rung_race ;;
kernels) rung_kernels ;;
differential) rung_differential ;;
smoke) rung_smoke ;;
metrics) rung_metrics ;;
fleet) rung_fleet ;;
compose) rung_compose ;;
bench) rung_bench ;;
all)
  rung_unit
  rung_race
  rung_kernels
  rung_differential
  rung_smoke
  rung_metrics
  rung_fleet
  rung_compose
  rung_bench
  ;;
*)
  echo "unknown level '$level' (want unit|race|kernels|differential|smoke|metrics|fleet|compose|bench|all)" >&2
  exit 2
  ;;
esac

echo "verify: level '$level' passed" >&2
