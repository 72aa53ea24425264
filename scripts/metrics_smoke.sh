#!/usr/bin/env bash
# End-to-end smoke test of the observability plane: boot a 2-shard curpd
# with a replicated coordinator quorum over real TCP, push writes through
# both shards, scrape every node's /metrics, /events, and /hotkeys
# endpoints, assert the series and documents the observability contract
# promises, then run a SIGUSR1 leader-kill drill and assert the healing
# shows up in the event journal. Run from anywhere; needs go and curl.
set -euo pipefail
cd "$(dirname "$0")/.."

HOST=127.0.0.1
PORT="${PORT:-7000}"
SHARDS=2
F=2
COORDINATORS=3

TMP="$(mktemp -d)"
CURPD_PID=""
cleanup() {
  [ -n "$CURPD_PID" ] && kill "$CURPD_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

go build -o "$TMP/curpd" ./cmd/curpd
go build -o "$TMP/curpctl" ./cmd/curpctl

"$TMP/curpd" -mode cluster -host "$HOST" -port "$PORT" -shards "$SHARDS" -f "$F" \
  -coordinators "$COORDINATORS" \
  >"$TMP/curpd.log" 2>&1 &
CURPD_PID=$!

scrape() { # scrape <port>
  curl -sf --max-time 5 "http://$HOST:$1/metrics"
}

wait_up() { # wait_up <port>
  for _ in $(seq 1 50); do
    if scrape "$1" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "FAIL: metrics endpoint :$1 never came up" >&2
  cat "$TMP/curpd.log" >&2
  exit 1
}

assert_series() { # assert_series <port> <series>...
  local port="$1"; shift
  local body
  body="$(scrape "$port")"
  for series in "$@"; do
    if ! grep -q "^$series" <<<"$body"; then
      echo "FAIL: :$port/metrics is missing $series" >&2
      echo "--- exposition was:" >&2
      echo "$body" >&2
      exit 1
    fi
  done
  echo "ok :$port/metrics has: $*"
}

# Every node's endpoint must come up: per shard block (base + s*1000) the
# coordinator dashboard serves +500, the master +501, follower coordinator
# replicas +501+i, backups +600+i, witnesses +700+i.
for s in $(seq 0 $((SHARDS - 1))); do
  base=$((PORT + s * 1000))
  for off in 500 501 502 503 600 601 700 701; do
    wait_up $((base + off))
  done
done

# Traffic through both shards so the counters move — plain puts plus
# commutative increments, so the class-labeled verdict series get traffic
# in the "counter" class.
for i in $(seq 1 40); do
  "$TMP/curpctl" -coordinator "$HOST:$PORT" -shards "$SHARDS" put "smoke-$i" "v$i" >/dev/null
done
for i in $(seq 1 10); do
  "$TMP/curpctl" -coordinator "$HOST:$PORT" -shards "$SHARDS" incr "smoke-ctr" 1 >/dev/null
done

for s in $(seq 0 $((SHARDS - 1))); do
  base=$((PORT + s * 1000))
  # Masters: the speculative-execution counter, the unsynced window, the
  # retained log (that window, not history), the sync-slot queue, and the
  # per-commutativity-class verdict breakdown.
  assert_series $((base + 501)) \
    curp_master_speculative_ops_total \
    curp_master_sync_lag_ops \
    curp_master_log_entries \
    curp_master_sync_slot_wait_seconds \
    'curp_master_class_verdicts_total{class="counter"'
  # Coordinator dashboard: heal-loop counters (present at 0 from boot),
  # partition gauges, and the master's series merged in.
  assert_series $((base + 500)) \
    'curp_heal_events_total{kind="master-failover"' \
    curp_partition_nodes_alive \
    curp_master_speculative_ops_total \
    curp_master_sync_lag_ops
  # Witnesses and backups carry their role series; a backup says what it
  # holds instead of a log.
  assert_series $((base + 700)) curp_witness_accepts_total
  assert_series $((base + 600)) curp_backup_append_entries \
    curp_backup_replica_objects \
    curp_backup_completion_records
done

# The master accepted writes: speculative ops must be non-zero somewhere.
total=$(for s in $(seq 0 $((SHARDS - 1))); do
  scrape $((PORT + s * 1000 + 501)) | awk '/^curp_master_speculative_ops_total/ {sum += $2} END {print sum+0}'
done | awk '{sum += $1} END {print sum+0}')
if [ "$total" -lt 1 ]; then
  echo "FAIL: curp_master_speculative_ops_total never moved (total=$total)" >&2
  exit 1
fi
echo "ok masters recorded $total speculative ops across $SHARDS shards"

# curpctl top runs end-to-end against the same endpoints.
"$TMP/curpctl" -coordinator "$HOST:$PORT" -shards "$SHARDS" top 300ms 2 >"$TMP/top.out"
if ! grep -q "self-healing" "$TMP/top.out"; then
  echo "FAIL: curpctl top did not render shard status" >&2
  cat "$TMP/top.out" >&2
  exit 1
fi
echo "ok curpctl top rendered $(grep -c self-healing "$TMP/top.out") shard rows"

# curpctl status prints the build-info gauge scraped from the dashboard.
"$TMP/curpctl" -coordinator "$HOST:$PORT" -shards "$SHARDS" -coordinators "$COORDINATORS" status >"$TMP/status.out"
if ! grep -q "build version=" "$TMP/status.out"; then
  echo "FAIL: curpctl status did not print the build-info line" >&2
  cat "$TMP/status.out" >&2
  exit 1
fi
echo "ok curpctl status printed: $(grep -m1 'build version=' "$TMP/status.out" | sed 's/^ *//')"

# Event journal: every endpoint serves /events as JSON, and boot left
# election/lease transitions in the coordinator journals.
fetch() { # fetch <port> <path>
  curl -sf --max-time 5 "http://$HOST:$1$2"
}
for s in $(seq 0 $((SHARDS - 1))); do
  base=$((PORT + s * 1000))
  for off in 500 501 600 700; do
    if ! fetch $((base + off)) /events | grep -q '"events"'; then
      echo "FAIL: :$((base + off))/events is not a journal dump" >&2
      exit 1
    fi
  done
done
echo "ok /events served on coordinator, master, backup, and witness endpoints"

# Key-space analytics: the puts above must have landed in the master's
# hot-key sketch, served on the dashboard and the master endpoint.
for s in $(seq 0 $((SHARDS - 1))); do
  base=$((PORT + s * 1000))
  for off in 500 501; do
    if ! fetch $((base + off)) /hotkeys | grep -q '"total_observations"'; then
      echo "FAIL: :$((base + off))/hotkeys is not a sketch dump" >&2
      exit 1
    fi
  done
  total=$(fetch $((base + 500)) /hotkeys | grep -o '"total_observations": *[0-9]*' | grep -o '[0-9]*' | head -1)
  if [ "${total:-0}" -lt 1 ]; then
    echo "FAIL: shard $s hot-key sketch observed nothing" >&2
    exit 1
  fi
done
echo "ok /hotkeys sketches observed the smoke writes"

# curpctl hotkeys and events run end-to-end against the same endpoints.
"$TMP/curpctl" -coordinator "$HOST:$PORT" -shards "$SHARDS" hotkeys >"$TMP/hotkeys.out"
if ! grep -q "KEY-HASH" "$TMP/hotkeys.out"; then
  echo "FAIL: curpctl hotkeys rendered no table" >&2
  cat "$TMP/hotkeys.out" >&2
  exit 1
fi
"$TMP/curpctl" -coordinator "$HOST:$PORT" -shards "$SHARDS" -coordinators "$COORDINATORS" -f "$F" events >"$TMP/events.out"
if ! grep -q "lease-acquired" "$TMP/events.out"; then
  echo "FAIL: curpctl events shows no lease-acquired from boot" >&2
  cat "$TMP/events.out" >&2
  exit 1
fi
echo "ok curpctl events stitched $(grep -cv '^$' "$TMP/events.out") timeline lines"

# Failover drill: SIGUSR1 crashes each shard's coordinator leader; the
# surviving replicas must elect a successor and journal the transition.
kill -USR1 "$CURPD_PID"
drill_ok=""
for _ in $(seq 1 50); do
  if "$TMP/curpctl" -coordinator "$HOST:$PORT" -shards "$SHARDS" -coordinators "$COORDINATORS" -f "$F" events 2>/dev/null \
      | grep -Eq "election-won|lease-acquired.*term=[2-9]"; then
    drill_ok=1
    break
  fi
  sleep 0.2
done
if [ -z "$drill_ok" ]; then
  echo "FAIL: no election/lease event journaled after the SIGUSR1 drill" >&2
  "$TMP/curpctl" -coordinator "$HOST:$PORT" -shards "$SHARDS" -coordinators "$COORDINATORS" -f "$F" events >&2 || true
  exit 1
fi
echo "ok SIGUSR1 drill journaled the leader change"

echo "PASS metrics smoke"
