#!/usr/bin/env bash
# Supervised serving daemon end-to-end (DESIGN.md §15): the same 16-query
# batch (6 admission waves under a 500w/1600w budget) must produce
# byte-identical deterministic manifests from (a) a clean single-worker
# run, (b) a 4-worker run whose workers are crash-injected (exit 86) and
# hang-injected (watchdog SIGKILL + retry), (c) a SIGTERM-drained run
# finished later with --resume, and (d) a SIGKILLed (crashed) daemon
# recovered with --resume. A completed batch keeps no epoch checkpoints,
# and resuming it gives the same manifest again. Also checks the failure
# floor: retry exhaustion poisons the wave and reports `poisoned` outcomes
# while the daemon itself exits cleanly. The in-process variants (every
# wave frontier, backoff determinism, manifest codec damage) live in
# tests/supervisor_test.cc; this script proves the real fork/exec + signal
# path and the CLI flag wiring.
#
# Usage: daemon_smoke.sh CYCLESTREAM_CLI EDGE2BIN WORK_DIR
# (ctest runs it as `daemon_smoke`, label `smoke`). WORK_DIR is removed
# once every check has passed. Every path handed to the daemon is
# absolute and under WORK_DIR, so the orphan sweep after the SIGKILL leg
# only ever matches this script's own workers, never those of a
# concurrent run (`ctest -j`).
set -euo pipefail

cli=$1
edge2bin=$2
rm -rf "$3"
mkdir -p "$3"
work=$(cd "$3" && pwd)
cd "$work"

# Workers of this script's daemons: their argv holds `--stream $work/...`.
work_re=$(printf '%s' "$work" | sed 's/[][\.*^$+?(){}|]/\\&/g')
kill_own_workers() {
  pkill -KILL -f "shard-worker --stream ${work_re}/" || true
}
trap kill_own_workers EXIT

# Fixture stream.
"$cli" generate --model ba --n 20000 --deg 5 --seed 13 --out graph.txt
"$edge2bin" graph.txt graph.bin

common=(serve --daemon --graph "$work/graph.bin" --order file
        --algorithms arb-f2 --queries 16 --epsilon 0.8
        --t-guess 1000 --no-exact --budget-words 500
        --aggregate-budget 1600 --threads 1 --launch subprocess
        --block-edges 1000 --epoch-edges 2000)

# Golden clean run (single worker).
"$cli" "${common[@]}" --shards 1 \
  --shard-dir "$work/sdg" --json_det_out det_golden.json

# A completed batch keeps each wave's final states, which a resume
# re-collects, but no epoch checkpoint: every daemon.manifest write
# deletes those of the waves folded before it.
no_checkpoints_left() {
  if compgen -G "$1/*.ckpt" > /dev/null; then
    echo "$1: checkpoints left behind:"; ls "$1"; exit 1
  fi
}
no_checkpoints_left sdg
compgen -G "sdg/*.state" > /dev/null
"$cli" "${common[@]}" --shards 1 --shard-dir "$work/sdg" \
  --resume --json_det_out det_golden_resumed.json
cmp det_golden.json det_golden_resumed.json
no_checkpoints_left sdg

# Crash + hang injection recovered, manifest identical.
"$cli" "${common[@]}" --shards 4 --shard-dir "$work/sdf" \
  --kill-shard 1 --kill-edges 3000 \
  --hang-shard 2 --hang-edges 2000 --shard-deadline-ms 3000 \
  --json_det_out det_faults.json 2> faults.log
grep -q "fault-injection kill sentinel" faults.log
grep -q "watchdog: worker" faults.log
grep -Eq "daemon: [0-9]+ wave\(s\) completed, [1-9][0-9]* retr" faults.log
cmp det_golden.json det_faults.json
no_checkpoints_left sdf

# SIGTERM drain mid-wave exits 3, --resume finishes identically.
"$cli" "${common[@]}" --shards 2 --shard-dir "$work/sdd" \
  --throttle-ms 100 2> drain.log & pid=$!
sleep 2
kill -TERM "$pid"
set +e
wait "$pid"; rc=$?
set -e
test "$rc" -eq 3 || { echo "expected drain exit 3, got $rc"; exit 1; }
grep -q "drained mid-batch" drain.log
test -f sdd/daemon.manifest
"$cli" "${common[@]}" --shards 2 --shard-dir "$work/sdd" \
  --resume --json_det_out det_drained.json
cmp det_golden.json det_drained.json
no_checkpoints_left sdd

# SIGKILL crash mid-wave, --resume finishes identically.
"$cli" "${common[@]}" --shards 2 --shard-dir "$work/sdc" \
  --throttle-ms 100 2> crash.log & pid=$!
sleep 2
kill -KILL "$pid"
set +e
wait "$pid"
set -e
# Orphaned workers may outlive the daemon briefly; clear them so the
# resume owns the shard dir alone.
kill_own_workers
sleep 1
test -f sdc/daemon.manifest
"$cli" "${common[@]}" --shards 2 --shard-dir "$work/sdc" \
  --resume --json_det_out det_crashed.json
cmp det_golden.json det_crashed.json
no_checkpoints_left sdc

# Retry exhaustion poisons the wave, daemon survives.
"$cli" "${common[@]}" --shards 2 --shard-dir "$work/sdp" \
  --kill-shard 0 --kill-edges 3000 --max-retries 1 \
  --json_det_out det_poisoned.json 2> poison.log
grep -q "poisoning the wave" poison.log
grep -q "poisoned (retry budget exhausted)" poison.log
python3 -c "
import json
queries = json.load(open('det_poisoned.json'))['queries']
poisoned = [n for n, q in queries.items() if q.get('poisoned')]
clean = [n for n, q in queries.items()
         if q.get('estimate') is not None and not q.get('poisoned')]
assert poisoned, 'no poisoned outcome exported'
assert clean, 'every wave died; only wave 0 should be poisoned'
"

cd /
rm -rf "$work"
echo "daemon smoke: all checks passed"
