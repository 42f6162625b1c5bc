#!/usr/bin/env bash
# Incremental-mining smoke: the append-twice workflow across real `frapp`
# process invocations, with the count store persisted on disk between them —
# the cross-process half of the bit-identity invariant the ctest grid proves
# in-process.
#
#   1. generate + convert a census table to the binary shard format
#   2. mine it with --count-store (store file created)
#   3. `frapp append` grows the binary table in place (twice: once inside
#      the tail chunk, once crossing a chunk boundary), re-mining with the
#      store after each append — only the delta is perturbed
#   4. every store-backed report is byte-diffed against a from-scratch
#      `--run-pipeline` mine of the same grown file
#   5. after every store-backed mine, no save temp file is left beside the
#      store and the store's version word (bytes 8-11) reads 2
#
# Usage: tools/incremental_smoke.sh [build-dir]   (default: <repo-root>/build)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
frapp="$build_dir/frapp_cli"

if [[ ! -x "$frapp" ]]; then
  echo "FATAL: $frapp not built (cmake --build $build_dir --target frapp_cli)" >&2
  exit 1
fi

rows=24576        # 3 whole chunks
gen_seed=5
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

table="$tmp_dir/census.bin"
store="$tmp_dir/census.frappcnt"

"$frapp" generate --dataset census --rows "$rows" --seed "$gen_seed" \
  --out "$tmp_dir/census.csv" > /dev/null
"$frapp" convert --dataset census --in "$tmp_dir/census.csv" \
  --out "$table" > /dev/null

check_parity() {
  local label="$1"
  "$frapp" mine --dataset census --in "$table" --count-store "$store" \
    > "$tmp_dir/inc.out" 2> "$tmp_dir/inc.err"
  "$frapp" mine --dataset census --run-pipeline --in "$table" \
    > "$tmp_dir/full.out" 2> /dev/null
  if ! diff "$tmp_dir/full.out" "$tmp_dir/inc.out"; then
    echo "FAIL: $label store-backed report differs from the pipeline" >&2
    cat "$tmp_dir/inc.err" >&2
    exit 1
  fi
  cat "$tmp_dir/inc.err"
  echo "OK: $label parity holds"
  check_store "$label"
}

check_store() {
  local label="$1"
  local leftovers
  leftovers="$(find "$tmp_dir" -maxdepth 1 -name '*.tmp*')"
  if [[ -n "$leftovers" ]]; then
    echo "FAIL: $label save left temp file(s) beside the store:" >&2
    echo "$leftovers" >&2
    exit 1
  fi
  local version
  version="$(od -An -tu1 -j8 -N4 "$store" | tr -s ' ' | sed 's/^ //')"
  if [[ "$version" != "2 0 0 0" ]]; then
    echo "FAIL: $label store has version bytes '$version', want '2 0 0 0'" >&2
    exit 1
  fi
  echo "OK: $label store is FRAPPCNT version 2, no temp files"
}

echo "=== first mine: store created ==="
check_parity "initial"
if ! grep -q "store created" "$tmp_dir/inc.err"; then
  echo "FAIL: first mine did not create the store" >&2
  exit 1
fi

echo "=== append inside the tail chunk (+5000 rows) ==="
"$frapp" append --dataset census --out "$table" --rows 5000 \
  --gen-seed "$gen_seed"
check_parity "tail-append"
if ! grep -q "store loaded" "$tmp_dir/inc.err"; then
  echo "FAIL: re-mine did not load the saved store" >&2
  exit 1
fi
if ! grep -q "0 delta chunk(s) perturbed" "$tmp_dir/inc.err"; then
  echo "FAIL: a tail-only append should perturb no whole chunks" >&2
  exit 1
fi

echo "=== append crossing a chunk boundary (+10000 rows) ==="
"$frapp" append --dataset census --out "$table" --rows 10000 \
  --gen-seed "$gen_seed"
check_parity "chunk-append"
if ! grep -q "1 delta chunk(s) perturbed" "$tmp_dir/inc.err"; then
  echo "FAIL: expected exactly one newly completed chunk to be perturbed" >&2
  exit 1
fi

echo "incremental smoke passed: store-backed re-mines are byte-identical"
