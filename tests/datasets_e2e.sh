#!/bin/sh
# Dataset regeneration gate: regenerates the synthetic datasets into a
# scratch directory with tools/make_datasets.sh and checks each is
# byte-identical to its checked-in copy under data/; expands the 10k .qcg
# back to text with qcg2edgelist and compares it with the 10k .txt,
# ignoring '#' comment lines; and runs graph-info on the 100k .qcg and the
# hand-written SNAP file.
#
# Usage: datasets_e2e.sh <source-dir> <build-dir> <work-dir>

set -u

SRC="$1"
BUILD="$2"
WORK="$3"

fail() {
    echo "datasets_e2e: FAIL: $1" >&2
    exit 1
}

rm -rf "$WORK"
mkdir -p "$WORK" || fail "cannot create $WORK"

sh "$SRC/tools/make_datasets.sh" "$BUILD" "$WORK" \
    || fail "tools/make_datasets.sh failed"
for f in synth-p2p-10k.txt synth-p2p-10k.qcg synth-p2p-100k.qcg; do
    cmp "$SRC/data/$f" "$WORK/$f" || fail "regenerated $f differs from data/$f"
done

"$BUILD/tools/qcg2edgelist" "$SRC/data/synth-p2p-10k.qcg" \
    "$WORK/rt10k.txt" --quiet || fail "qcg2edgelist failed"
grep -v '^#' "$SRC/data/synth-p2p-10k.txt" > "$WORK/want.txt"
grep -v '^#' "$WORK/rt10k.txt" > "$WORK/got.txt"
cmp "$WORK/want.txt" "$WORK/got.txt" \
    || fail "qcg2edgelist of the 10k .qcg differs from the 10k .txt"

"$BUILD/tools/qcongest" graph-info "@$SRC/data/synth-p2p-100k.qcg" \
    > "$WORK/info100k.txt" || fail "graph-info on the 100k .qcg failed"
grep -q "100000" "$WORK/info100k.txt" \
    || fail "graph-info on the 100k .qcg does not report n = 100000"
"$BUILD/tools/qcongest" graph-info "@$SRC/data/small-snap.txt" \
    > "$WORK/infosnap.txt" || fail "graph-info on small-snap.txt failed"
grep -q "snap" "$WORK/infosnap.txt" \
    || fail "graph-info does not detect small-snap.txt as snap"

rm -rf "$WORK"
echo "datasets_e2e: PASS"
