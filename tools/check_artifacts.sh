#!/usr/bin/env bash
# Regenerate the pinned paper-artifact CSVs at default size and check them
# against bench/baselines/ARTIFACTS.sha256.
#
# Usage:
#   tools/check_artifacts.sh [BUILD_DIR] [--engine NAME]
#
# BUILD_DIR defaults to ./build. Without --engine every pinned bench runs with
# its defaults. With --engine NAME only the engine-routed benches run (the
# MACSio and ext studies, whose byte path goes through an exec::Engine), each
# with `--engine NAME`, and only their manifest lines are checked: the
# artifacts must not depend on the engine. table3_campaign takes --engine too
# but stays out of that set: its rows name the engine that ran them. Exits
# non-zero when a bench fails or a digest differs.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
manifest="$root/bench/baselines/ARTIFACTS.sha256"
build="$root/build"
engine=""
while [ $# -gt 0 ]; do
  case "$1" in
    --engine) engine="${2:?--engine needs a value}"; shift 2 ;;
    --engine=*) engine="${1#--engine=}"; shift ;;
    -h|--help) sed -n '2,15p' "$0"; exit 0 ;;
    *) build=$(cd "$1" && pwd); shift ;;
  esac
done

engine_benches="fig03_macsio_tree table2_macsio_args ablate_filemode
  ext_staging_study ext_codec_study ext_restart_study ext_burst_dynamics"
if [ -n "$engine" ]; then
  benches="$engine_benches"
  engine_args=(--engine "$engine")
else
  benches="fig02_plotfile_tree $engine_benches fig04_sedov_solution
    fig05_cumulative_sweep fig07_per_level fig08_per_task fig09_calibration
    fig11_large_case table1_inputs eq3_partsize_fit ablate_distribution
    ablate_interface ext_checkpoint_study table3_campaign"
  engine_args=()
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for b in $benches; do
  "$build/$b" --out "$out" "${engine_args[@]}" > "$out/$b.log" 2>&1 ||
    { echo "$b failed:"; cat "$out/$b.log"; exit 1; }
done

lines=""
for b in $benches; do
  line=$(grep "  $b\.csv\$" "$manifest") ||
    { echo "ARTIFACTS.sha256 has no line for $b.csv"; exit 1; }
  lines+="$line"$'\n'
done
cd "$out"
printf '%s' "$lines" | sha256sum -c -
