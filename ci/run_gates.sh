#!/usr/bin/env bash
# Figure smokes + bench_check regression gates, driven by one table —
# adding a figure to CI is one row here, not a copy-pasted workflow
# step.
#
# Columns: fig binary | baseline snapshot | tolerance | min-matches.
# A `-` baseline means smoke-only: the figure asserts its own
# invariants (byte-identity, zero lost updates, ...) but has no
# recorded snapshot to gate timings against. Every gate passes
# --allow-missing-baseline so a fresh checkout without a snapshot
# stays green; tolerances are generous because quick-mode samples on
# shared runners are noisy — the gates catch lost fast paths, not
# percent-level drift.
set -euo pipefail
cd "$(dirname "$0")/.."

gates="
fig_build      -                   -     -
fig_persist    BENCH_persist.json  25.0  5
fig_mvcc       BENCH_mvcc.json     25.0  3
fig_optimizer  BENCH_opt.json      4.0   20
fig_obs        BENCH_obs.json      25.0  4
fig_net        BENCH_net.json      25.0  4
fig_events     BENCH_events.json   25.0  3
"

while read -r fig baseline tolerance min_matches; do
  [ -n "$fig" ] || continue
  echo "::group::$fig"
  cargo run --release -p xtwig-bench --bin "$fig" -- --quick
  if [ "$baseline" != "-" ]; then
    cargo run --release -p xtwig-bench --bin bench_check -- \
      --baseline "$baseline" \
      --current "target/xtwig-results/$fig.json" \
      --tolerance "$tolerance" \
      --min-matches "$min_matches" \
      --allow-missing-baseline
  fi
  echo "::endgroup::"
done <<EOF
$gates
EOF
