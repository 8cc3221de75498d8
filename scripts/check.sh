#!/usr/bin/env bash
# Correctness gate for the ascoma workspace: formatting, clippy and
# rustdoc with warnings denied, a panic lint over library code, the conformance
# checker over the production protocol state machines (clean suite +
# seeded-fault detection), the liveness, bounded message-fault and soak
# gates, and the feature-gated interleaving/churn test suites.
#
# Run from anywhere inside the repo:
#
#   scripts/check.sh            # everything (CI parity)
#   scripts/check.sh --fast     # skip the release-mode checker gates
#
# The panic lint denies `.unwrap()` / `.expect(` in library (non-test)
# code under crates/*/src.  Audited exceptions live in
# scripts/lint_allow.txt as `path:substring` entries.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
    --fast) fast=1 ;;
    *)
        echo "usage: scripts/check.sh [--fast]" >&2
        exit 2
        ;;
    esac
done

step() { printf '\n== %s ==\n' "$1"; }

step "format"
cargo fmt --all -- --check

step "clippy (deny warnings, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

step "clippy (check/permtests/churntests features)"
cargo clippy --workspace --all-targets \
    --features ascoma/check,ascoma/permtests,ascoma-vm/churntests -- -D warnings

step "clippy (conformance harness: ascoma-check/check)"
cargo clippy -p ascoma-check --all-targets --features check -- -D warnings

step "rustdoc (deny warnings: no broken or ambiguous intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --all-features

step "panic lint (unwrap/expect in library code)"
# Per file: scan until the first top-level `#[cfg(test)]` (test modules
# sit at the bottom of each file in this codebase), skip `//` comment
# lines, flag unwrap/expect calls.
#
# The scan set is `find crates/*/src`, so it picks up new modules
# automatically — but the controller stack and the event-log decoder
# are load-bearing enough that their files are asserted into coverage
# here: a rename that silently dropped them from the scan would
# otherwise go unnoticed.
for must in crates/obs/src/control.rs crates/obs/src/log.rs; do
    if [ ! -f "$must" ]; then
        echo "panic lint: $must missing from the scan set (moved without updating check.sh?)"
        exit 1
    fi
done
hits=$(find crates/*/src -name '*.rs' | sort | while IFS= read -r f; do
    awk -v file="$f" '
        /^#\[cfg\(test\)\]/ { exit }
        { line = $0; sub(/^[ \t]+/, "", line) }
        line ~ /^\/\// { next }
        /\.unwrap\(\)|\.expect\(/ { print file ":" FNR ":" line }
    ' "$f"
done)
viol=0
if [ -n "$hits" ]; then
    while IFS= read -r hit; do
        file=${hit%%:*}
        rest=${hit#*:}
        lineno=${rest%%:*}
        content=${rest#*:}
        allowed=0
        while IFS= read -r allow; do
            case "$allow" in '' | \#*) continue ;; esac
            afile=${allow%%:*}
            apat=${allow#*:}
            if [ "$afile" = "$file" ] && [ "${content#*"$apat"}" != "$content" ]; then
                allowed=1
                break
            fi
        done <scripts/lint_allow.txt
        if [ "$allowed" -eq 0 ]; then
            echo "DENY $file:$lineno: $content"
            viol=1
        fi
    done <<<"$hits"
fi
if [ "$viol" -ne 0 ]; then
    echo "panic lint: unwrap/expect in library code; return a Result or"
    echo "add an audited 'path:substring' entry to scripts/lint_allow.txt"
    exit 1
fi
echo "panic lint clean"

step "wall-clock audit (allow(clippy::disallowed_methods) sites)"
# clippy.toml bans Instant::now and thread::sleep workspace-wide; the
# escape hatch is a fn-level allow, which is only legitimate in the
# audited measurement/pacing files below.  A new allow anywhere else
# must be argued into this list, not silently added.
wall_clock_allowed="
crates/bench/src/pacing.rs
crates/bench/src/bin/perf_baseline.rs
crates/bench/benches/obs_overhead.rs
crates/bench/benches/hotpath.rs
crates/core/src/parallel.rs
crates/check/src/bin/model_check.rs
"
audit_viol=0
while IFS= read -r f; do
    ok=0
    for a in $wall_clock_allowed; do
        [ "$f" = "$a" ] && ok=1 && break
    done
    if [ "$ok" -eq 0 ]; then
        echo "DENY $f: allow(clippy::disallowed_methods) outside the audited wall-clock list"
        audit_viol=1
    fi
done < <(grep -rl "allow(clippy::disallowed_methods)" \
    crates --include='*.rs' | sort)
if [ "$audit_viol" -ne 0 ]; then
    echo "wall-clock audit: either route through bench::pacing, or add the"
    echo "file to the audited list in scripts/check.sh with a justification"
    exit 1
fi
echo "wall-clock audit clean"

step "exploration engine unit tests (BFS, DPOR, lasso, ddmin)"
cargo test -q -p ascoma-check

step "conformance harness tests (ascoma-check --features check)"
cargo test -q -p ascoma-check --features check

step "interleaving permutation tests (core::parallel)"
cargo test -q -p ascoma --features permtests --test parallel_perm

step "frame-pool churn property tests"
cargo test -q -p ascoma-vm --features churntests

step "invariant hooks active (core tests with --features check)"
cargo test -q -p ascoma --features check

step "auto-tuner controller matrix (off-inert, on-deterministic, replay; default + check features)"
cargo test -q -p ascoma --test controller
cargo test -q -p ascoma --features check --test controller

if [ "$fast" -eq 0 ]; then
    step "conformance gate (release): production machines, BFS vs DPOR"
    cargo run -q --release -p ascoma-check --features check \
        --bin model_check -- conform

    step "liveness gate (release): lasso freedom + seeded livelock"
    cargo run -q --release -p ascoma-check --features check \
        --bin model_check -- liveness

    step "fault gate (release): bounded drop/dup faults k<=2, resend liveness"
    cargo run -q --release -p ascoma-check --features check \
        --bin model_check -- faults

    step "fault soak (release): randomized drop/dup/resend walks"
    cargo run -q --release -p ascoma-check --features check \
        --bin model_check -- soak
else
    step "conformance / liveness / fault / soak gates skipped (--fast)"
fi

printf '\nall checks passed\n'
