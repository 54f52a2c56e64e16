#!/usr/bin/env bash
# Turnstile & time-decay subsystem end-to-end (DESIGN.md §16): (1) the v2
# turnstile format round-trips byte-for-byte through edge2bin (text -> bin
# -> text -> bin); (2) a corrupted op byte is rejected by name even when
# the CRC is patched to match, so the op-byte rule itself is exercised
# rather than the checksum; (3) a stream whose deletes exactly cancel its
# second half yields per-query estimates byte-identical to an insert-only
# run of the surviving first half (linear-sketch cancellation); (4) a
# sliding-window sweep's deterministic manifest is byte-identical at
# --threads 1 and 8. The exhaustive variants (kill-point sweeps at every
# bucket boundary, decay oracles, thread x shard cancellation matrix) live
# in tests/turnstile_test.cc; this script proves the CLI wiring and the
# real file formats.
#
# Usage: window_smoke.sh CYCLESTREAM_CLI EDGE2BIN WORK_DIR
# (ctest runs it as `window_smoke`, label `smoke`). WORK_DIR is removed
# once every check has passed.
set -euo pipefail

cli=$1
edge2bin=$2
work=$3
rm -rf "$work"
mkdir -p "$work"
cd "$work"

# (1) Turnstile round trip, byte-identical both directions.
printf '# cyclestream turnstile stream: 6 vertices, 7 updates\n' > t.txt
printf '+ 0 1\n+ 1 2\n+ 0 2\n- 1 2\n+ 2 3\n+ 4 5\n- 4 5\n' >> t.txt
"$edge2bin" --turnstile t.txt t.bin
"$edge2bin" --to-text t.bin t2.txt
diff t.txt t2.txt
"$edge2bin" --turnstile t2.txt t2.bin
cmp t.bin t2.bin

# (2) Corrupted op byte rejected by name, CRC patched to match.
python3 - <<'EOF'
import struct, zlib
data = bytearray(open('t.bin', 'rb').read())
data[32] = 7  # First record's op byte; valid ops are 0 and 1.
crc = zlib.crc32(bytes(data[32:])) & 0xFFFFFFFF
struct.pack_into('<I', data, 24, crc)
open('bad_op.bin', 'wb').write(bytes(data))
EOF
if "$edge2bin" --to-text bad_op.bin /dev/null 2> op_err.log; then
  echo "corrupted op byte was accepted"; exit 1
fi
grep -q "op byte" op_err.log

# (3) Deletes cancelling the second half match the insert-only run. Full
# stream + deletes of the second half (reversed order) vs an insert-only
# stream of the first half: identical live graphs, and for linear sketches
# identical *states*, bit for bit.
"$cli" generate --model ba --n 2000 --deg 4 --seed 17 --out g.txt
grep -v '^#' g.txt > edges.txt
m=$(wc -l < edges.txt); half=$((m / 2))
{ sed "s/^/+ /" edges.txt; \
  tail -n +"$((half + 1))" edges.txt | tac | sed "s/^/- /"; } > cancel.txt
head -n "$half" edges.txt | sed "s/^/+ /" > insert.txt
"$edge2bin" --turnstile --num_vertices 2000 cancel.txt cancel.bin
"$edge2bin" --turnstile --num_vertices 2000 insert.txt insert.bin
common=(sweep --order file --algorithms
        turnstile-f2-triangle,turnstile-f2-c4 --queries 6
        --epsilon 0.4 --t-guess 500 --no-exact --threads 4)
"$cli" "${common[@]}" --graph cancel.bin --json_det_out det_cancel.json
"$cli" "${common[@]}" --graph insert.bin --json_det_out det_insert.json
python3 -c "
import json
cancel = json.load(open('det_cancel.json'))['queries']
insert = json.load(open('det_insert.json'))['queries']
assert set(cancel) == set(insert) and len(cancel) == 6
for name, q in cancel.items():
    assert q['estimate'] == insert[name]['estimate'], \
        (name, q['estimate'], insert[name]['estimate'])
"

# (4) Sliding-window sweep deterministic across thread counts.
common=(sweep --graph cancel.bin --order file --algorithms
        turnstile-f2-triangle,turnstile-f2-c4 --queries 6
        --epsilon 0.4 --t-guess 500 --no-exact
        --window 4000 --window-buckets 8)
"$cli" "${common[@]}" --threads 1 --json_det_out det_w1.json
"$cli" "${common[@]}" --threads 8 --json_det_out det_w8.json
cmp det_w1.json det_w8.json

cd /
rm -rf "$work"
echo "window smoke: all checks passed"
