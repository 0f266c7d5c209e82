#!/usr/bin/env bash
# Multi-backend chaos smoke: three slserve backends, one -frontend routing
# tier, a Poisson load against the frontend, and a kill -9 of the counter's
# OWNER backend at the midpoint (rebooted empty a few seconds later).
#
# Pass criteria, checked at the end:
#   - the attack client exits 0 and completed requests;
#   - ZERO LOST ACKED UPDATES: the authoritative /counter value read through
#     the frontend is >= the frontend's acked-increment ledger;
#   - the frontend actually moved ownership (handoffs > 0 in /stats and
#     cluster_handoffs_total > 0 in /metrics) — a run where the kill went
#     unnoticed would pass vacuously and must fail instead.
set -euo pipefail

FPORT=19100
BPORTS=(19101 19102 19103)
DUR=16s
KILL_AT=8
RESTART_AT=4 # seconds after the kill

cd "$(dirname "$0")/.."
BIN=$(mktemp -d)/slserve
go build -o "$BIN" ./cmd/slserve

declare -a BPIDS
cleanup() {
  kill "${BPIDS[@]}" "$FPID" "$ATTACK_PID" 2>/dev/null || true
  wait 2>/dev/null || true
}
trap cleanup EXIT

start_backend() { # $1 = index into BPORTS
  "$BIN" -addr "127.0.0.1:${BPORTS[$1]}" >"/tmp/chaos_backend_$1.log" 2>&1 &
  BPIDS[$1]=$!
}

for i in 0 1 2; do start_backend "$i"; done

backends="http://127.0.0.1:${BPORTS[0]},http://127.0.0.1:${BPORTS[1]},http://127.0.0.1:${BPORTS[2]}"
"$BIN" -frontend -addr "127.0.0.1:$FPORT" -backends "$backends" \
  -health-interval 100ms -health-down-after 2 -health-up-after 1 \
  -handoff-drain 200ms -retries 5 >/tmp/chaos_frontend.log 2>&1 &
FPID=$!

front="http://127.0.0.1:$FPORT"
for _ in $(seq 1 50); do
  if curl -fsS "$front/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.2
done
curl -fsS "$front/healthz" >/dev/null # frontend must be up or fail here

"$BIN" -attack -url "$front" -mix counter -arrivals poisson -rate 1500 \
  -clients 4 -dur "$DUR" >/tmp/chaos_attack.json &
ATTACK_PID=$!

sleep "$KILL_AT"
owner=$(curl -fsS "$front/stats" | python3 -c 'import json,sys; print(json.load(sys.stdin)["objects"]["counter"]["owner"])')
echo "chaos: counter owner is backend $owner — kill -9"
kill -9 "${BPIDS[$owner]}"
sleep "$RESTART_AT"
echo "chaos: rebooting backend $owner empty"
start_backend "$owner"

if ! wait "$ATTACK_PID"; then
  echo "chaos: attack client failed"
  cat /tmp/chaos_attack.json
  exit 1
fi
ATTACK_PID=""

# Let any trailing handoff (the rebooted backend re-adopting keys) settle.
sleep 2

curl -fsS "$front/stats" >/tmp/chaos_stats.json
curl -fsS "$front/metrics" >/tmp/chaos_metrics.txt
curl -fsS "$front/counter" >/tmp/chaos_counter.json

python3 - <<'EOF'
import json

attack = json.load(open("/tmp/chaos_attack.json"))
stats = json.load(open("/tmp/chaos_stats.json"))
counter = json.load(open("/tmp/chaos_counter.json"))
metrics = open("/tmp/chaos_metrics.txt").read()

assert attack["requests"] > 0, "attack completed no requests"
ledger = stats["counter_ledger"]
value = counter["value"]
assert ledger > 0, "no increment was ever acked: vacuous run"
assert value >= ledger, f"LOST UPDATE: counter {value} < acked ledger {ledger}"
assert stats["handoffs"] > 0, "no ownership handoff happened: kill went unnoticed"

samples = {}
for line in metrics.splitlines():
    if line and not line.startswith("#"):
        name, sample = line.rsplit(" ", 1)
        samples[name] = int(float(sample))
assert samples.get("cluster_handoffs_total", 0) > 0, "cluster_handoffs_total not exported or zero"
# Backend connections are pooled: the kill and reboot cost redials, but a
# dial per request would mean the pool stopped reusing connections.
dials = samples.get("slfront_backend_dials_total", 0)
assert 0 < dials < attack["requests"] / 10, f"slfront_backend_dials_total = {dials} for {attack['requests']} requests"

print(f"chaos smoke ok: acked={ledger} final={value} phantoms={value-ledger} "
      f"handoffs={stats['handoffs']} steals={stats['steals']} raced={stats['raced']} "
      f"retries={stats['retries']} dials={dials} attack: {attack['requests']} reqs, "
      f"{attack['errors']} errors, {attack['retried']} retried, {attack['exhausted']} exhausted")
EOF
