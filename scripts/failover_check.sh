#!/usr/bin/env bash
# Failover gate: a replicated coordinator pair must survive a leader
# SIGKILL with a bit-identical decision record, and a deposed leader that
# keeps running must be fenced by the workers. Two phases, real OS
# processes throughout:
#
#   1. Replication: a leader (WAL + lease + cluster coordinator) serves the
#      first epochs while a standby ovnes tails its log; the leader is
#      SIGKILLed between epochs, the standby takes the lapsed lease,
#      promotes, and serves the rest. /yield and /slices must match a plain
#      single-process run of the same drive byte for byte, and the standby
#      must have logged the takeover with the full pre-kill round count
#      replayed.
#   2. Fencing: two leaders share a lease file; the first never renews
#      (-lease-renew-every 1h), so the second takes over under the next
#      epoch while the first keeps running. The deposed leader's next round
#      dispatch must be rejected by the workers ("fencing: rejected round
#      dispatch"), must fail its epoch POST, and must never fall back to a
#      local solve.
set -euo pipefail
cd "$(dirname "$0")/.."

WK=/tmp/failover-check-worker
OV=/tmp/failover-check-ovnes
go build -o "$WK" ./cmd/ovnes-worker
go build -o "$OV" ./cmd/ovnes

PIDS=()
cleanup() {
  for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
}
trap cleanup EXIT

wait_http() { # $1 = port: wait until the orchestrator endpoint serves
  for i in $(seq 1 120); do
    curl -fsS "127.0.0.1:$1/epoch" > /dev/null 2>&1 && return 0
    sleep 0.25
  done
  echo "failover-check: 127.0.0.1:$1 never started serving"; return 1
}

wait_log() { # $1 = file, $2 = pattern, $3 = label
  for i in $(seq 1 120); do
    grep -q "$2" "$1" 2>/dev/null && return 0
    sleep 0.25
  done
  echo "failover-check: $3 (pattern '$2' never appeared in $1)"; return 1
}

register() { # $1 = port: the two long-lived tenants both runs admit
  curl -fsS -X POST "127.0.0.1:$1/requests" -d \
    '{"name":"u1","request":{"name":"u1","type":"uRLLC","duration_epochs":10}}' > /dev/null
  curl -fsS -X POST "127.0.0.1:$1/requests" -d \
    '{"name":"u2","request":{"name":"u2","type":"eMBB","duration_epochs":10}}' > /dev/null
}

epochs() { # $1 = port, $2 = count
  for e in $(seq 1 "$2"); do curl -fsS -X POST "127.0.0.1:$1/epoch" > /dev/null; done
}

echo "failover-check: phase 1 — leader SIGKILL, standby takeover, byte-identical record"
DATA=/tmp/failover-check-data
rm -rf "$DATA"; mkdir -p "$DATA"

"$OV" -listen 127.0.0.1:18490 -collector 127.0.0.1:16453 -algo benders \
  -data-dir "$DATA" -snapshot-every 2 \
  -lease "$DATA/LEASE" -lease-ttl 2s \
  -cluster-listen 127.0.0.1:19591 -log-level info 2>/tmp/failover-check-leader.err &
LEADER=$!
PIDS+=("$LEADER")
# The standby must not start until the leader holds the lease, or it would
# win the empty-lease race itself and serve from epoch 0.
wait_log /tmp/failover-check-leader.err 'msg="took leadership"' "leader never took the lease"

"$OV" -listen 127.0.0.1:18494 -collector 127.0.0.1:16454 -algo benders \
  -data-dir "$DATA" -snapshot-every 2 \
  -lease "$DATA/LEASE" -lease-ttl 2s -standby \
  -cluster-listen 127.0.0.1:19592 -log-level info 2>/tmp/failover-check-standby.err &
STANDBY=$!
PIDS+=("$STANDBY")

# One worker pool follows both control-plane addresses: failover needs no
# worker reconfiguration.
"$WK" -connect 127.0.0.1:19591,127.0.0.1:19592 -id fw1 -log-level info 2>/tmp/failover-check-w1.err &
PIDS+=("$!")
"$WK" -connect 127.0.0.1:19591,127.0.0.1:19592 -id fw2 -log-level info 2>/tmp/failover-check-w2.err &
PIDS+=("$!")

wait_http 18490
wait_log /tmp/failover-check-leader.err 'worker joined' "workers never joined the leader"
register 18490
epochs 18490 3
echo "failover-check: SIGKILL leader pid $LEADER after epoch 3"
kill -9 "$LEADER"
wait "$LEADER" 2>/dev/null || true

# The lease lapses, the standby takes it, finishes replay and serves.
wait_http 18494
wait_log /tmp/failover-check-standby.err 'msg="took leadership"' "standby never took leadership"
# The standby's state must come from the leader's log: either it tailed
# all 3 pre-kill rounds live, or the leader's snapshot+compaction outran
# the poll loop and the replica re-bootstrapped from the snapshot (which
# itself encodes those rounds) — the byte-identical diffs below hold
# either way. Silent partial replay is the failure this guards against.
grep -q 'replayed-rounds=3' /tmp/failover-check-standby.err \
  || grep -Eq 'snapshot-rebootstraps=[1-9]' /tmp/failover-check-standby.err \
  || { echo "failover-check: standby neither replayed all 3 pre-kill rounds nor re-bootstrapped from a snapshot:"; \
       grep 'took leadership' /tmp/failover-check-standby.err; exit 1; }
epochs 18494 3
curl -fsS 127.0.0.1:18494/yield  > /tmp/failover-check-yield-failover.json
curl -fsS 127.0.0.1:18494/slices > /tmp/failover-check-slices-failover.json
kill -TERM "$STANDBY"; wait "$STANDBY" 2>/dev/null || true

# Reference: the identical drive, one process, no WAL/lease/cluster.
"$OV" -listen 127.0.0.1:18498 -collector 127.0.0.1:16455 -algo benders 2>/dev/null &
REF=$!
PIDS+=("$REF")
wait_http 18498
register 18498
epochs 18498 6
curl -fsS 127.0.0.1:18498/yield  > /tmp/failover-check-yield-ref.json
curl -fsS 127.0.0.1:18498/slices > /tmp/failover-check-slices-ref.json
kill -TERM "$REF"; wait "$REF" 2>/dev/null || true

diff /tmp/failover-check-yield-ref.json  /tmp/failover-check-yield-failover.json
diff /tmp/failover-check-slices-ref.json /tmp/failover-check-slices-failover.json
echo "failover-check: yield ledger and slice states identical across the failover"

echo "failover-check: phase 2 — deposed leader fenced by the workers"
FDIR=/tmp/failover-check-fence
rm -rf "$FDIR"; mkdir -p "$FDIR"

# L1 holds the lease but never renews it (and has no WAL, so its first
# fencing encounter is on the wire, at the workers).
"$OV" -listen 127.0.0.1:18590 -collector 127.0.0.1:16553 -algo benders \
  -lease "$FDIR/LEASE" -lease-ttl 2s -lease-renew-every 1h \
  -cluster-listen 127.0.0.1:19691 -log-level info 2>/tmp/failover-check-l1.err &
L1=$!
PIDS+=("$L1")

"$WK" -connect 127.0.0.1:19691,127.0.0.1:19692 -id fw3 -log-level info 2>/tmp/failover-check-w3.err &
PIDS+=("$!")
"$WK" -connect 127.0.0.1:19691,127.0.0.1:19692 -id fw4 -log-level info 2>/tmp/failover-check-w4.err &
PIDS+=("$!")

wait_http 18590
wait_log /tmp/failover-check-l1.err 'worker joined' "workers never joined the first leader"
register 18590
epochs 18590 1   # sanity: dispatches fine under its own epoch

# L2 waits on the same lease; L1's TTL lapses unrenewed and L2 takes over
# under the next fencing epoch.
"$OV" -listen 127.0.0.1:18594 -collector 127.0.0.1:16554 -algo benders \
  -lease "$FDIR/LEASE" -lease-ttl 2s \
  -cluster-listen 127.0.0.1:19692 -log-level info 2>/tmp/failover-check-l2.err &
L2=$!
PIDS+=("$L2")
wait_log /tmp/failover-check-l2.err 'msg="took leadership"' "second leader never took the lapsed lease"
wait_log /tmp/failover-check-w3.err 'epoch=2.*joined coordinator' "worker fw3 never saw the new leader"
wait_log /tmp/failover-check-w4.err 'epoch=2.*joined coordinator' "worker fw4 never saw the new leader"

# The deposed leader's next dispatch must be rejected, not served and not
# solved by its engine's own solver.
if curl -fsS -X POST 127.0.0.1:18590/epoch > /tmp/failover-check-stale.out 2>&1; then
  echo "failover-check: deposed leader still decided an epoch:"; cat /tmp/failover-check-stale.out; exit 1
fi
grep -q 'fencing: rejected round dispatch from stale leader epoch' \
  /tmp/failover-check-w3.err /tmp/failover-check-w4.err \
  || { echo "failover-check: no worker logged the fencing rejection"; exit 1; }
grep -q 'coordinator fenced' /tmp/failover-check-l1.err \
  || { echo "failover-check: deposed leader never marked itself fenced"; exit 1; }
echo "failover-check: deposed leader fenced by the workers"

rm -f /tmp/failover-check-*.err /tmp/failover-check-*.json /tmp/failover-check-stale.out "$WK" "$OV"
rm -rf "$DATA" "$FDIR"
echo "failover-check: OK"
