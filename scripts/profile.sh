#!/usr/bin/env bash
# Profile the hot path of the cell engine with Linux perf.
#
# Wraps `perf record` / `perf report` around one serial reduced-grid
# sweep (`perf_baseline --grid reduced --jobs 1`), the same workload the
# CI perf-smoke job gates on.  Output lands in /tmp/ascoma-perf.data so
# repeated runs do not litter the repo.
#
# Usage: scripts/profile.sh [extra perf_baseline args...]
#   PERF=/path/to/perf scripts/profile.sh     # non-PATH perf binary
#
# Degrades gracefully: when perf is not installed (or lacks permission
# to record), prints what to install/adjust and exits 0, so the script
# is safe to call from automation on bare containers.
set -euo pipefail
cd "$(dirname "$0")/.."

PERF="${PERF:-perf}"
DATA=/tmp/ascoma-perf.data

if ! command -v "$PERF" >/dev/null 2>&1; then
    echo "profile.sh: '$PERF' not found; skipping profile." >&2
    echo "Install linux-tools (Debian: apt install linux-perf) or set PERF=/path/to/perf." >&2
    echo "Per-layer ns/op needs no perf:  cargo run --release --offline --manifest-path benchmark/Cargo.toml -- trace em3d-local" >&2
    exit 0
fi

cargo build --release -q -p ascoma-bench --bin perf_baseline

if ! "$PERF" record -o "$DATA" --call-graph dwarf -- \
    target/release/perf_baseline --grid reduced --jobs 1 --out /dev/null "$@"; then
    echo "profile.sh: perf record failed (often kernel.perf_event_paranoid; try" >&2
    echo "  sysctl kernel.perf_event_paranoid=1); skipping report." >&2
    exit 0
fi

"$PERF" report -i "$DATA" --stdio --percent-limit 1
echo "profile.sh: raw data in $DATA (e.g. '$PERF annotate -i $DATA')" >&2
