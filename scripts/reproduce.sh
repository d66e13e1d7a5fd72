#!/usr/bin/env bash
# Regenerate every table and figure of the paper, plus the ablations and
# the simulator core's exact work-counter ledger (bench_counters).
#
# Usage: scripts/reproduce.sh [-j N] [results_dir]
#   -j N   run each figure binary's internal sweep on up to N worker
#          threads (default 1; also settable via TRAINBOX_JOBS)
#
# All binaries are built once up front; the loop then invokes the compiled
# artifacts directly, so per-figure cost is pure simulation time instead of
# one cargo invocation per binary, each re-checking the workspace.
# Parallelism lives inside each binary (deterministic ordered sweeps), not
# at the shell level, so figures always print in order and results stay
# byte-identical at any -j.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${TRAINBOX_JOBS:-1}"
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: scripts/reproduce.sh [-j N] [results_dir]" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))

export TRAINBOX_RESULTS_DIR="${1:-results}"

bins=(table01 fig02b fig03 fig05 fig08 fig09 fig10 fig11 table02 table03
      fig19 fig20 fig21 fig21_cluster fig22
      ablation_ring ablation_boxes ablation_nextgen ablation_prepnet
      ablation_prefetch batch_lr scale_up_vs_out ablation_faults
      ablation_sync bench_counters)

cargo build --release -q -p trainbox-bench "${bins[@]/#/--bin=}"

target_dir="${CARGO_TARGET_DIR:-target}"

# Every figure binary must honor the shared -j CLI: probe each one and fail
# loudly if it ignores the flag — a binary that silently ran single-threaded
# would make -j a lie, and one with a divergent CLI would error mid-run.
for b in "${bins[@]}"; do
  got="$("$target_dir/release/$b" -j "$jobs" --print-jobs)" || {
    echo "error: $b rejected '-j $jobs --print-jobs'" >&2; exit 1; }
  if [ "$got" != "jobs=$jobs" ]; then
    echo "error: $b ignores -j (probe printed '$got', want 'jobs=$jobs')" >&2
    exit 1
  fi
done

start_ns="$(date +%s%N)"
for b in "${bins[@]}"; do
  echo
  "$target_dir/release/$b" -j "$jobs"
done
elapsed_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
echo
echo "regenerated $(( ${#bins[@]} - 1 )) figures and the counter ledger into $TRAINBOX_RESULTS_DIR in ${elapsed_ms} ms (jobs=$jobs)"
