#!/usr/bin/env bash
# The CI entry point: everything a green checkmark promises, runnable
# verbatim on a developer's shell. Kept in lockstep with
# .github/workflows/ci.yml, which just calls this script.
#
#   1. dune build       — the whole tree, warnings-as-errors;
#   2. dune runtest     — unit/property/golden suites plus the @lint
#                         alias (check_mli.sh hygiene gate, quicksand
#                         lint --fail-on error, conformance smoke);
#   3. quicksand lint --fail-on warning
#                       — the full rule registry on the Small scenario,
#                         no exclusions (the generator's orphan-transit
#                         adoption pass keeps QS104 clean);
#   4. quicksand check --suite conform
#                       — the streaming invariant checker over half a
#                         simulated day;
#   5. quicksand check --suite static
#                       — the dynamic-vs-static soundness oracle across
#                         5 seeds;
#   6. quicksand check --suite delta
#                       — delta-vs-full propagation equivalence: byte-
#                         identical update streams and final tables
#                         across 5 seeds, delta on/off, jobs 1 vs 4;
#   7. quicksand check --suite churn
#                       — the trace-churn statistical harness across
#                         5 seeds: distribution shape (mean/median/KS),
#                         stream structure (monotonicity, D/U
#                         alternation, accounting), byte-identity across
#                         reruns and worker counts;
#   8. quicksand serve --replay --verify-batch
#                       — the streaming service over a seeded churn-heavy
#                         half day with injected hijacks: C1c alert set
#                         must equal the batch detector's exactly and the
#                         windowed cells must be bit-identical to
#                         Measurement.run's (exit 1 on any divergence);
#   9. quicksand sweep --matrix seeds-2x2
#                       — the tiny 2x2 matrix (two seeds x two churn
#                         models, quarter of a Small day) three times:
#                         jobs=1, jobs=4, and a jobs=1 rerun. Every cell's
#                         summary.json must carry the qs-sweep/1 schema,
#                         and the three results directories must be
#                         byte-identical — fingerprints stable across
#                         reruns, outputs independent of the worker count;
#  10. quicksand sweep --matrix churn-trace-day
#                       — the trace-shaped churn day, same three-way
#                         byte-identity gate (jobs=1 vs jobs=4 vs rerun).
set -eu
cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== quicksand lint --fail-on warning (Small, seed 1)"
dune exec bin/quicksand.exe -- lint --scale small --seed 1 --fail-on warning

echo "== quicksand check --suite conform (Small, seed 1, half a day)"
dune exec bin/quicksand.exe -- check --suite conform --scale small --seed 1 \
  --days 0.5

echo "== quicksand check --suite static (Small, 5 seeds)"
dune exec bin/quicksand.exe -- check --suite static --scale small

echo "== quicksand check --suite delta (Small, 5 seeds)"
dune exec bin/quicksand.exe -- check --suite delta --scale small

echo "== quicksand check --suite churn (5 seeds)"
dune exec bin/quicksand.exe -- check --suite churn

echo "== quicksand serve --replay --verify-batch (Small, seed 1, half a day)"
dune exec bin/quicksand.exe -- serve --replay --verify-batch --scale small \
  --seed 1 --days 0.5 --attacks 4 --quiet

echo "== quicksand sweep --matrix seeds-2x2 (jobs 1 vs 4 vs rerun)"
sweep_tmp="$(mktemp -d)"
trap 'rm -rf "$sweep_tmp"' EXIT
dune exec bin/quicksand.exe -- sweep --matrix seeds-2x2 --jobs 1 \
  --out "$sweep_tmp/j1"
dune exec bin/quicksand.exe -- sweep --matrix seeds-2x2 --jobs 4 \
  --out "$sweep_tmp/j4"
dune exec bin/quicksand.exe -- sweep --matrix seeds-2x2 --jobs 1 \
  --out "$sweep_tmp/j1-rerun"
for cell_summary in "$sweep_tmp"/j1/cell-*/summary.json; do
  for key in '"schema": "qs-sweep/1"' '"fingerprint"' '"vars"' '"dynamics"' \
             '"f3l"' '"f3r"'; do
    grep -qF "$key" "$cell_summary" \
      || { echo "missing $key in $cell_summary"; exit 1; }
  done
done
diff -r "$sweep_tmp/j1" "$sweep_tmp/j4"
diff -r "$sweep_tmp/j1" "$sweep_tmp/j1-rerun"

echo "== quicksand sweep --matrix churn-trace-day (jobs 1 vs 4 vs rerun)"
dune exec bin/quicksand.exe -- sweep --matrix churn-trace-day --jobs 1 \
  --out "$sweep_tmp/trace-j1"
dune exec bin/quicksand.exe -- sweep --matrix churn-trace-day --jobs 4 \
  --out "$sweep_tmp/trace-j4"
dune exec bin/quicksand.exe -- sweep --matrix churn-trace-day --jobs 1 \
  --out "$sweep_tmp/trace-j1-rerun"
diff -r "$sweep_tmp/trace-j1" "$sweep_tmp/trace-j4"
diff -r "$sweep_tmp/trace-j1" "$sweep_tmp/trace-j1-rerun"

echo "CI OK"
