#!/usr/bin/env bash
# Quickstart smoke: executes the commands README.md documents (CI-fast
# variants where the documented command also offers a longer mode). A
# stale flag, a renamed archetype, or a broken REST endpoint fails CI
# here instead of failing the first reader who copies a command.
set -euo pipefail
cd "$(dirname "$0")/.."

run() { echo "smoke: $*"; "$@" > /dev/null; }

run go run ./cmd/simctl -experiment table1
run go run ./cmd/simctl -experiment fig4
run go run ./cmd/simctl -experiment fig4 -full
run go run ./cmd/simctl -experiment scaling
run go run ./cmd/simctl -experiment forecast
run go run ./cmd/simctl -experiment fig8
# The archetype catalog is pinned byte-for-byte: adding or rewording an
# archetype is deliberate, and refreshes the golden with:
#   go run ./cmd/scenario list > scripts/golden/scenario_list.golden
echo "smoke: scenario list golden"
go run ./cmd/scenario list > /tmp/scenario_list_smoke.out
diff -u scripts/golden/scenario_list.golden /tmp/scenario_list_smoke.out
rm -f /tmp/scenario_list_smoke.out
run go run ./cmd/scenario run -name flash-crowd -seed 7
run go run ./cmd/scenario run -name outage -tenants 4 -epochs 10 -seed 1
run go run ./cmd/scenario run -name trace-replay -tenants 4 -epochs 10 -seed 1
# The -trace flag end to end: a recorded CSV drives the same archetype.
printf '# demand trace\n10\n12\n15\n12\n' > /tmp/smoke-trace.csv
run go run ./cmd/scenario run -name homogeneous -tenants 4 -epochs 10 -seed 1 -trace /tmp/smoke-trace.csv
rm -f /tmp/smoke-trace.csv
# Seeds 42.. cross the distress seed the Benders fallback regression
# guards (see internal/scenario/distress_test.go). The sweep output is also
# pinned byte-for-byte against a golden file: solver refactors (the sparse
# LU engine, pricing changes) may change pivot paths but must not move the
# decisions or the printed revenue. Refresh intentionally with:
#   go run ./cmd/scenario sweep -name sla-mix -seeds 2 > scripts/golden/scenario_sweep_sla-mix.golden
echo "smoke: scenario sweep golden"
go run ./cmd/scenario sweep -name sla-mix -seeds 2 > /tmp/scenario_sweep_smoke.out
diff -u scripts/golden/scenario_sweep_sla-mix.golden /tmp/scenario_sweep_smoke.out
rm -f /tmp/scenario_sweep_smoke.out
run go run ./cmd/loadgen -scenario heavy-tail -domains 2 -tenants 4 -epochs 8
run go run ./cmd/loadgen -scenario diurnal-drift -domains 1 -tenants 4 -epochs 10 -mode closed -reoffer
run go run ./cmd/loadgen -scenario diurnal-drift -domains 1 -tenants 4 -epochs 10 -mode static -reoffer

# The ovnes REST walkthrough, including the closed loop and yield surface.
echo "smoke: ovnes REST walkthrough"
go build -o /tmp/ovnes-smoke ./cmd/ovnes
/tmp/ovnes-smoke -listen 127.0.0.1:18080 -collector 127.0.0.1:16343 -epoch-every 500ms &
OVNES=$!
trap 'kill "$OVNES" 2>/dev/null || true' EXIT
for i in $(seq 1 40); do
  curl -fsS 127.0.0.1:18080/epoch > /dev/null 2>&1 && break
  sleep 0.25
done
curl -fsS -X POST 127.0.0.1:18080/requests -d \
  '{"name":"u1","request":{"name":"u1","type":"uRLLC","duration_epochs":12}}' > /dev/null
curl -fsS -X POST 127.0.0.1:18080/epoch > /dev/null
sleep 1
curl -fsS 127.0.0.1:18080/slices > /dev/null
curl -fsS 127.0.0.1:18080/metrics | grep -q '"yield"'
curl -fsS 127.0.0.1:18080/yield > /dev/null
# Adversarial surface: inject a BS outage, run an epoch through the hole,
# recover, and read the applied event stream back.
curl -fsS -X POST 127.0.0.1:18080/topology -d '[{"epoch":0,"kind":0,"index":0,"factor":0}]' > /dev/null
curl -fsS -X POST 127.0.0.1:18080/epoch > /dev/null
curl -fsS -X POST 127.0.0.1:18080/topology -d '[{"epoch":0,"kind":0,"index":0,"factor":1}]' > /dev/null
curl -fsS 127.0.0.1:18080/topology | grep -q '"factor":1'
kill -TERM "$OVNES"
wait "$OVNES"
trap - EXIT

# The durability walkthrough: hard-kill ovnes mid-run and require the
# restarted process to serve the identical yield ledger out of the WAL.
# Driven by explicit POST /epoch (no -epoch-every) so the pre-kill and
# post-recovery ledgers are comparable byte for byte.
echo "smoke: ovnes kill/restart recovery"
DATA=/tmp/ovnes-smoke-data
rm -rf "$DATA"
start_durable() {
  /tmp/ovnes-smoke -listen 127.0.0.1:18084 -collector 127.0.0.1:16347 \
    -data-dir "$DATA" &
  OVNES=$!
  trap 'kill "$OVNES" 2>/dev/null || true' EXIT
  for i in $(seq 1 40); do
    curl -fsS 127.0.0.1:18084/epoch > /dev/null 2>&1 && break
    sleep 0.25
  done
}
start_durable
curl -fsS -X POST 127.0.0.1:18084/requests -d \
  '{"name":"u1","request":{"name":"u1","type":"eMBB","duration_epochs":12}}' > /dev/null
# The registry forgets: a 2-epoch slice is listed as expired in the epoch it
# expires and is gone from /slices one epoch later.
curl -fsS -X POST 127.0.0.1:18084/requests -d \
  '{"name":"short","request":{"name":"short","type":"mMTC","rate_mbps":2,"duration_epochs":2}}' > /dev/null
for i in 1 2; do curl -fsS -X POST 127.0.0.1:18084/epoch > /dev/null; done
curl -fsS 127.0.0.1:18084/slices | grep -q '"name":"short","type":"mMTC","state":"expired"'
curl -fsS -X POST 127.0.0.1:18084/epoch > /dev/null
if curl -fsS 127.0.0.1:18084/slices | grep -q '"short"'; then
  echo "smoke: slice 'short' still in /slices an epoch after the one it expired in"; exit 1
fi
curl -fsS 127.0.0.1:18084/yield > /tmp/ovnes-yield-before.json
kill -9 "$OVNES"
wait "$OVNES" 2>/dev/null || true
start_durable
curl -fsS 127.0.0.1:18084/yield > /tmp/ovnes-yield-after.json
diff -u /tmp/ovnes-yield-before.json /tmp/ovnes-yield-after.json
kill -TERM "$OVNES"
wait "$OVNES"
trap - EXIT
rm -rf "$DATA" /tmp/ovnes-yield-before.json /tmp/ovnes-yield-after.json
echo "smoke: quickstart OK"
