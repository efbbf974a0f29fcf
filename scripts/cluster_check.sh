#!/usr/bin/env bash
# Cluster determinism gate: the distributed control plane must produce
# bit-identical decisions and yield to the single-process engine — even
# when a worker is SIGKILLed mid-run and its load rebalances onto the
# survivor. Two phases:
#
#   1. loadgen: a drift archetype across 4 domains through the closed
#      loop, solved in-process vs dispatched to 2 ovnes-worker processes;
#      the printed tables — admissions and realized yield — must match
#      byte for byte (timing comment lines excluded).
#   2. ovnes: the REST stack in cluster mode, driven epoch by epoch with
#      one worker hard-killed between epochs; /yield and /slices must
#      match a plain single-process run of the same drive, and the
#      coordinator must have logged the rebalance.
set -euo pipefail
cd "$(dirname "$0")/.."

LG=/tmp/cluster-check-loadgen
WK=/tmp/cluster-check-worker
OV=/tmp/cluster-check-ovnes
go build -o "$LG" ./cmd/loadgen
go build -o "$WK" ./cmd/ovnes-worker
go build -o "$OV" ./cmd/ovnes

PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

strip_timing() { grep -v '^# decided \|^# rounds=' "$1"; }

echo "cluster-check: loadgen single-process vs 2 workers"
LGFLAGS=(-scenario diurnal-drift -domains 4 -tenants 4 -epochs 8 -shards 2 -reoffer)
"$LG" "${LGFLAGS[@]}" > /tmp/cluster-check-single.out 2>/dev/null
"$LG" "${LGFLAGS[@]}" -cluster 127.0.0.1:19090 -cluster-workers 2 \
  > /tmp/cluster-check-cluster.out 2>/tmp/cluster-check-lg.err &
LGPID=$!
PIDS+=("$LGPID")
"$WK" -connect 127.0.0.1:19090 -id lg-w1 -log-level warn 2>/dev/null &
PIDS+=("$!")
"$WK" -connect 127.0.0.1:19090 -id lg-w2 -log-level warn 2>/dev/null &
PIDS+=("$!")
wait "$LGPID"
diff <(strip_timing /tmp/cluster-check-single.out) <(strip_timing /tmp/cluster-check-cluster.out)
echo "cluster-check: loadgen tables identical"

echo "cluster-check: ovnes REST drive with a mid-run worker SIGKILL"
drive() { # $1 = orchestrator port; issues the identical epoch sequence,
          # calling hook "$2" between epoch 3 and epoch 4.
  local port=$1 hook=${2:-true}
  for i in $(seq 1 60); do
    curl -fsS "127.0.0.1:$port/epoch" > /dev/null 2>&1 && break
    sleep 0.25
  done
  curl -fsS -X POST "127.0.0.1:$port/requests" -d \
    '{"name":"u1","request":{"name":"u1","type":"uRLLC","duration_epochs":10}}' > /dev/null
  curl -fsS -X POST "127.0.0.1:$port/requests" -d \
    '{"name":"u2","request":{"name":"u2","type":"eMBB","duration_epochs":10}}' > /dev/null
  for e in 1 2 3; do curl -fsS -X POST "127.0.0.1:$port/epoch" > /dev/null; done
  $hook
  for e in 4 5 6; do curl -fsS -X POST "127.0.0.1:$port/epoch" > /dev/null; done
}

# Cluster run: coordinator + 2 workers, kill the worker that owns the
# default domain (the one that logged the assign) between epochs.
"$OV" -listen 127.0.0.1:18090 -collector 127.0.0.1:16353 -algo benders \
  -cluster-listen 127.0.0.1:19091 -log-level info 2>/tmp/cluster-check-ovnes.err &
OVPID=$!
PIDS+=("$OVPID")
"$WK" -connect 127.0.0.1:19091 -id cw1 -log-level info 2>/tmp/cluster-check-w1.err &
W1=$!
PIDS+=("$W1")
"$WK" -connect 127.0.0.1:19091 -id cw2 -log-level info 2>/tmp/cluster-check-w2.err &
W2=$!
PIDS+=("$W2")

# Both workers must be members before the drive starts, or the early
# rounds are legitimately declined to the engine's own solver and the
# kill exercises nothing.
for i in $(seq 1 60); do
  [ "$(grep -c 'worker joined' /tmp/cluster-check-ovnes.err 2>/dev/null)" -ge 2 ] && break
  sleep 0.25
done
[ "$(grep -c 'worker joined' /tmp/cluster-check-ovnes.err)" -ge 2 ] \
  || { echo "cluster-check: workers never joined the coordinator"; exit 1; }

kill_owner() {
  local victim=$W1
  if grep -q 'domain assigned' /tmp/cluster-check-w2.err 2>/dev/null; then victim=$W2; fi
  echo "cluster-check: SIGKILL worker pid $victim (owns the default domain)"
  kill -9 "$victim"
}
drive 18090 kill_owner
curl -fsS 127.0.0.1:18090/yield  > /tmp/cluster-check-yield-cluster.json
curl -fsS 127.0.0.1:18090/slices > /tmp/cluster-check-slices-cluster.json
grep -q 'rebalancing its domains' /tmp/cluster-check-ovnes.err \
  || { echo "cluster-check: coordinator never logged the rebalance"; exit 1; }
kill -TERM "$OVPID"; wait "$OVPID" 2>/dev/null || true
kill "$W1" "$W2" 2>/dev/null || true

# Reference run: the identical drive, no cluster anywhere.
"$OV" -listen 127.0.0.1:18094 -collector 127.0.0.1:16354 -algo benders 2>/dev/null &
OVPID=$!
PIDS+=("$OVPID")
drive 18094
curl -fsS 127.0.0.1:18094/yield  > /tmp/cluster-check-yield-single.json
curl -fsS 127.0.0.1:18094/slices > /tmp/cluster-check-slices-single.json
kill -TERM "$OVPID"; wait "$OVPID" 2>/dev/null || true

diff /tmp/cluster-check-yield-single.json  /tmp/cluster-check-yield-cluster.json
diff /tmp/cluster-check-slices-single.json /tmp/cluster-check-slices-cluster.json
echo "cluster-check: yield ledger and slice states identical across the kill"

rm -f /tmp/cluster-check-*.out /tmp/cluster-check-*.err /tmp/cluster-check-*.json \
  "$LG" "$WK" "$OV"
echo "cluster-check: OK"
