#!/usr/bin/env bash
# Builds Release and maintains the perf-trajectory JSON files at the repo root.
#
# Usage: tools/run_benchmarks.sh [--suite NAME]... [build-dir]
#
#   --suite NAME  run only this suite and append only to its trajectory;
#                 repeatable (default: all six). NAME is the trajectory's
#                 middle word: mining, perturbation, pipeline, ingest, dist
#                 or incremental
#   build-dir     CMake build directory to (re)configure and build
#                 (default: <repo-root>/build)
#   -h, --help    print this header and exit
#
# Maintained trajectories (see docs/BENCHMARKS.md for the full schema):
#   BENCH_mining.json       — apriori_benchmark (vertical index vs scalar)
#   BENCH_perturbation.json — perturbation_benchmark (alias kernel vs naive)
#   BENCH_pipeline.json     — pipeline_benchmark (shards x threads sweep)
#   BENCH_ingest.json       — ingest_benchmark (preloaded vs streamed CSV /
#                             prefetched / binary / synthetic sources)
#   BENCH_dist.json         — dist_benchmark (worker-count sweep of the
#                             distributed coordinator/worker path:
#                             bytes-on-wire + merge-time counters vs the
#                             in-process pipeline baseline)
#   BENCH_incremental.json  — incremental_benchmark (store-backed re-mine
#                             after +10% / +1 / +4 / +16-chunk growth vs
#                             the from-scratch pipeline, supmin sweep)
#
# Example: one forced-scalar row in BENCH_perturbation.json and no other file
#   FRAPP_FORCE_KERNEL=scalar tools/run_benchmarks.sh --suite perturbation
#
# Each file holds {"runs": [<google-benchmark output>, ...]}: every
# invocation APPENDS its run (with its context/date) to the trajectory
# instead of overwriting it, so successive PRs accumulate a perf history.
# A pre-existing single-run file (the PR-1 format) is wrapped as the first
# trajectory entry on the next append. Numbers from the single-core CI
# container measure work distribution (CPU time), not wall-clock speedup —
# see the caveat in docs/BENCHMARKS.md.
#
# Context: each run records authoritative frapp keys (frapp_build_type,
# frapp_kernel_level, cache geometry, ...) via FRAPP_BENCHMARK_MAIN();
# ignore the library's own library_build_type, which describes the prebuilt
# google-benchmark .so. Runs whose frapp_build_type is not Release are
# REFUSED at merge time so debug numbers can never pollute a trajectory.
#
# Knobs (environment):
#   FRAPP_FORCE_KERNEL={scalar,harley-seal,avx2,avx512}
#               force the kernel-table dispatch level for the run;
#               the level lands in the run's frapp_kernel_level /
#               frapp_kernel_forced context keys. Unsupported levels fall
#               back to the best the host can run (with a warning).
#
# Thread pinning (PipelineOptions::pin_threads / frapp --pin-threads) is a
# per-process option, not an env knob; pipeline_benchmark runs unpinned.

set -euo pipefail

if [[ "${1:-}" == "-h" || "${1:-}" == "--help" ]]; then
  # Print the header comment above (minus the shebang) as the usage text.
  sed -n '2,/^set -euo/p' "$0" | sed '$d' | sed 's/^# \{0,1\}//'
  exit 0
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

# Suite name -> benchmark binary; the trajectory is BENCH_<suite>.json.
declare -A suite_binary=(
  [mining]=apriori_benchmark
  [perturbation]=perturbation_benchmark
  [pipeline]=pipeline_benchmark
  [ingest]=ingest_benchmark
  [dist]=dist_benchmark
  [incremental]=incremental_benchmark
)
all_suites=(mining perturbation pipeline ingest dist incremental)

suites=()
build_dir="$repo_root/build"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --suite)
      if [[ -z "${2:-}" || -z "${suite_binary[${2}]:-}" ]]; then
        echo "unknown suite '${2:-}' (want one of: ${all_suites[*]})" >&2
        exit 2
      fi
      suites+=("$2")
      shift 2
      ;;
    *)
      build_dir="$1"
      shift
      ;;
  esac
done
if [[ ${#suites[@]} -eq 0 ]]; then suites=("${all_suites[@]}"); fi

targets=()
for suite in "${suites[@]}"; do targets+=("${suite_binary[$suite]}"); done

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j"$(nproc)" --target "${targets[@]}"

# Appends the single-run google-benchmark JSON $2 to the trajectory file $1.
merge_run() {
  local trajectory="$1" new_run="$2"
  python3 - "$trajectory" "$new_run" <<'PY'
import json
import os
import sys

trajectory_path, new_run_path = sys.argv[1], sys.argv[2]
with open(new_run_path) as f:
    new_run = json.load(f)

# Never merge a non-Release run into a trajectory. frapp_build_type is the
# authoritative key (library_build_type describes the prebuilt benchmark
# .so, which Debian ships as "debug").
build_type = new_run.get("context", {}).get("frapp_build_type")
if build_type != "Release":
    sys.exit(f"REFUSED: run has frapp_build_type={build_type!r}, "
             f"want 'Release'; not merging into {trajectory_path}")

runs = []
try:
    with open(trajectory_path) as f:
        existing = json.load(f)
    # Wrap a legacy single-run file; keep an existing trajectory as is.
    runs = existing["runs"] if "runs" in existing else [existing]
except FileNotFoundError:
    pass
except json.JSONDecodeError:
    # Never silently discard an accumulated trajectory: preserve the
    # unparseable file next to the fresh one and say so.
    backup = trajectory_path + ".corrupt"
    os.replace(trajectory_path, backup)
    print(f"WARNING: {trajectory_path} was not valid JSON; "
          f"moved it to {backup} and started a fresh trajectory",
          file=sys.stderr)

runs.append(new_run)
with open(trajectory_path, "w") as f:
    json.dump({"runs": runs}, f, indent=1)
    f.write("\n")
print(f"{trajectory_path}: {len(runs)} run(s)")
PY
}

tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

run_suite() {
  local benchmark="$1" trajectory="$2"
  "$build_dir/$benchmark" \
    --benchmark_out="$tmp_dir/$benchmark.json" \
    --benchmark_out_format=json
  merge_run "$repo_root/$trajectory" "$tmp_dir/$benchmark.json"
}

appended=()
for suite in "${suites[@]}"; do
  run_suite "${suite_binary[$suite]}" "BENCH_$suite.json"
  appended+=("BENCH_$suite.json")
done

echo "Appended runs to ${appended[*]}"
