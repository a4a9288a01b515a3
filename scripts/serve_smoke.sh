#!/usr/bin/env bash
# serve-smoke — end-to-end crash drill for the save-serve daemon, the way
# an operator would drive it from the shell (the in-process version lives
# in crates/serve/tests/service.rs):
#
#   1. start a daemon, submit the quick surface sweep over TCP, and check
#      the bits against a purely local run;
#   2. resubmit with a KillWorker fault injected into the first cell — the
#      worker must catch it and requeue the cell, and the bits must not
#      change;
#   3. SIGTERM the daemon: graceful drain, exit code 0;
#   4. restart on the same cache dir: the whole sweep must be served from
#      the recovered journal (every cell a cache hit), bit-identically;
#   5. with the daemon gone, resume a local sweep from its cache dir: a
#      daemon cache is a valid --checkpoint-dir, so every cell is restored.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q -p save-serve --bin save-serve -p save-bench --bin surface
SERVE=target/debug/save-serve
SURFACE=target/debug/surface

WORK=$(mktemp -d)
CACHE="$WORK/cache"
trap 'kill "$DPID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

start_daemon() {
  "$SERVE" --listen 127.0.0.1:0 --cache-dir "$CACHE" --workers 2 \
    > "$WORK/daemon.out" 2> "$WORK/daemon.err" &
  DPID=$!
  for _ in $(seq 1 100); do
    ADDR=$(sed -n 's/^save-serve listening on //p' "$WORK/daemon.out")
    [ -n "$ADDR" ] && return 0
    sleep 0.1
  done
  echo "daemon never printed its listen address" >&2
  cat "$WORK/daemon.err" >&2
  exit 1
}

# `resumed` counts daemon cache hits, which legitimately differ between
# runs; everything else (grid, secs_bits, cycles) must be bit-identical.
normalize() { sed 's/"resumed":[0-9]*/"resumed":_/' "$1"; }

echo "== local reference sweep =="
"$SURFACE" --quick > "$WORK/local.json"

echo "== 1: remote sweep matches local bits =="
start_daemon
"$SURFACE" --quick --serve "$ADDR" > "$WORK/serve1.json"
diff <(normalize "$WORK/local.json") <(normalize "$WORK/serve1.json")

echo "== 2: killed worker is recovered, bits unchanged =="
"$SURFACE" --quick --serve "$ADDR" --fault-first > "$WORK/serve2.json"
diff <(normalize "$WORK/local.json") <(normalize "$WORK/serve2.json")

echo "== 3: SIGTERM drains gracefully (exit 0) =="
kill -TERM "$DPID"
CODE=0; wait "$DPID" || CODE=$?
if [ "$CODE" -ne 0 ]; then
  echo "expected graceful-drain exit 0, got $CODE" >&2
  cat "$WORK/daemon.err" >&2
  exit 1
fi

echo "== 4: restarted daemon serves the journal-recovered cache =="
start_daemon
"$SURFACE" --quick --serve "$ADDR" > "$WORK/serve3.json"
diff <(normalize "$WORK/local.json") <(normalize "$WORK/serve3.json")
CELLS=$(grep -o '"secs_bits":\[[^]]*\]' "$WORK/local.json" | tr -cd ',' | wc -c)
CELLS=$((CELLS + 1))
if ! grep -q "\"resumed\":$CELLS" "$WORK/serve3.json"; then
  echo "expected all $CELLS cells cache-served after restart:" >&2
  cat "$WORK/serve3.json" >&2
  exit 1
fi

kill -TERM "$DPID"
wait "$DPID" || true

echo "== 5: the drained cache dir resumes a local sweep, no daemon =="
"$SURFACE" --quick --checkpoint-dir "$CACHE" --resume > "$WORK/resume.json"
diff <(normalize "$WORK/local.json") <(normalize "$WORK/resume.json")
if ! grep -q "\"resumed\":$CELLS" "$WORK/resume.json"; then
  echo "expected all $CELLS cells restored from the daemon's journal:" >&2
  cat "$WORK/resume.json" >&2
  exit 1
fi
echo "serve-smoke: OK"
