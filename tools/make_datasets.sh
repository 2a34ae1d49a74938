#!/bin/sh
# Regenerates every synthetic dataset under data/ from the deterministic
# generators, so the checked-in files can always be audited against a fresh
# build. Usage: tools/make_datasets.sh [BUILD_DIR] [OUT_DIR]
# BUILD_DIR (default: build) is absolute or relative to the repository
# root; OUT_DIR (default: the repository's data/) receives the files.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-build}"
case "$build" in
  /*) ;;
  *) build="$repo/$build" ;;
esac
out="${2:-$repo/data}"
gen="$build/tools/qcongest"
conv="$build/tools/edgelist2qcg"

[ -x "$gen" ] || { echo "error: $gen not built (run cmake --build $build)"; exit 1; }
[ -x "$conv" ] || { echo "error: $conv not built"; exit 1; }
mkdir -p "$out"

# 10,876 nodes mirrors the SNAP p2p-Gnutella04 snapshot; seed 42 is pinned
# by tests/test_dataset.cpp — do not change either without re-pinning.
"$gen" gen pa:10876:3:42 --out="$out/synth-p2p-10k.txt"
"$conv" "$out/synth-p2p-10k.txt" "$out/synth-p2p-10k.qcg" --verify --quiet
"$gen" gen pa:100000:3:42 --out="$out/synth-p2p-100k.qcg"

# data/small-snap.txt is hand-written (it exists to exercise edge-list
# parser tolerances a generator would never produce) and is not
# regenerated here.
echo "datasets regenerated under $out"
