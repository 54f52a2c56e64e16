#!/usr/bin/env bash
# Multi-process engine end-to-end: the same 16-query arb-f2 batch (6
# admission waves under a 500w/1600w budget) must produce byte-identical
# deterministic manifests from the single-process coordinator (--shards 1),
# in-process runs at W=2/4/8, a 4-worker subprocess run, and a subprocess
# run whose worker 2 is killed mid-epoch and recovered from its
# checkpoints. Also probes the hardened front door: a spec file with
# trailing garbage is rejected with its line number, a non-mergeable kind
# is refused by `shard`, and a negative size flag aborts instead of
# wrapping through a size_t cast. A shard run deletes each wave's state
# and checkpoint files once folded and writes no manifest, so the
# kill+recover run leaves none of them. The exhaustive variants (every
# epoch boundary, every worker count, a relaunch whose checkpoint was
# lost) live in tests/shard_test.cc; this script proves the real
# fork/exec state path and the CLI flag wiring.
#
# Usage: shard_smoke.sh CYCLESTREAM_CLI EDGE2BIN WORK_DIR
# (ctest runs it as `shard_smoke`, label `smoke`). WORK_DIR is removed
# once every check has passed.
set -euo pipefail

cli=$1
edge2bin=$2
work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"

# Fixture stream.
"$cli" generate --model ba --n 20000 --deg 5 --seed 13 --out graph.txt
"$edge2bin" graph.txt graph.bin

# W-shard manifests byte-identical to the single-process run.
common=(--graph graph.bin --order file --algorithms arb-f2
        --queries 16 --epsilon 0.8 --t-guess 1000 --no-exact
        --budget-words 500 --aggregate-budget 1600 --threads 1)
"$cli" shard "${common[@]}" --shards 1 \
  --shard-dir sd1 --json_det_out shard_w1.json
for w in 2 4 8; do
  "$cli" shard "${common[@]}" --shards "$w" \
    --shard-dir "sd$w" --json_det_out "shard_w$w.json"
  cmp shard_w1.json "shard_w$w.json"
done
"$cli" shard "${common[@]}" --shards 4 \
  --launch subprocess --shard-dir sd4p --json_det_out shard_sub.json
cmp shard_w1.json shard_sub.json

# Kill worker 2 mid-epoch, recover, manifest still identical.
"$cli" shard "${common[@]}" --shards 4 \
  --launch subprocess --shard-dir sdk --epoch-edges 5000 \
  --kill-shard 2 --kill-edges 12000 \
  --json_det_out shard_kill.json 2> recover.log
grep -q "1 recovered" recover.log
cmp shard_w1.json shard_kill.json
left=$(ls sdk | grep -E '[.](ckpt|state|manifest)$' || true)
test -z "$left" || { echo "shard run left recovery files: $left"; exit 1; }

# Strict spec and flag validation rejects malformed input.
printf 'name=q0 kind=arb-f2 seed=5x\n' > bad.spec
if "$cli" serve --graph graph.txt \
    --spec bad.spec --no-exact 2> spec_err.log; then
  echo "trailing-garbage spec was accepted"; exit 1
fi
grep -q "bad.spec:1:" spec_err.log
printf 'name=t0 kind=triest reservoir=10\n' > triest.spec
if "$cli" shard --graph graph.bin \
    --order file --shard-dir sdx --spec triest.spec \
    --no-exact 2> kind_err.log; then
  echo "non-mergeable kind was accepted by shard"; exit 1
fi
grep -q "not shard-mergeable" kind_err.log
if "$cli" count --graph graph.txt \
    --target triangles --algorithm triest --reservoir -5 \
    --no-exact > /dev/null 2> neg_err.log; then
  echo "negative --reservoir was accepted"; exit 1
fi
grep -q "non-negative integer" neg_err.log
cd /
rm -rf "$work"
echo "shard smoke: all checks passed"
