#!/usr/bin/env python3
"""Gate a fresh bench JSON against its committed baseline.

Used by `tools/run_tier1.sh --bench-gate` for BENCH_congest_sim.json,
BENCH_datasets.json, BENCH_dynamic.json, BENCH_theorem11.json and
BENCH_service.json (pass --baseline to pick the file): the bench binary
re-runs the suite into a scratch file, and this script diffs it against
the baseline committed at the repo root. Every bench writes the row
schema of bench/harness.h: (workload, variant, n, workers) names a row,
`seconds`, `speedup_vs_baseline` and `identical` measure it. It fails
(exit 1) when:

  * any fresh row reports `identical: false` — a run disagreed with its
    baseline run, its pinned literals or another worker count on the
    ledger/trace/outputs, which is a correctness bug, never noise;
  * the fresh acceptance block reports
    `byte_identical_at_all_worker_counts: false`;
  * a baseline row is missing from the fresh run even though its graph
    (same `n`) was benched — a silently dropped variant;
  * a row's `speedup_vs_baseline` regressed by more than
    --tolerance (default 15%) relative to the committed number;
  * a dataset-layer acceptance block reports `rss_ratio_ok: false` —
    the streaming CSR build's child-process peak RSS blew through the
    3x raw-edge-bytes budget — or `external_sort_rss_flat: false` —
    the out-of-core sort's child peak RSS grew with the input instead
    of staying pinned near the memory budget — or
    `mapped_residency_ok: false` — a service holding two mapped .bcsr
    specs of one file stopped being resident-lighter than the same
    service holding two owned copies;
  * a dynamic-update acceptance block (BENCH_dynamic.json) reports
    `identical_to_scratch: false` — the incremental cache-repair engine
    diverged from rebuild-from-scratch, a correctness bug — or
    `incremental_speedup_ok: false` — the n=65536 incremental speedup
    fell below its 2x acceptance floor (full runs only; smoke runs
    report it true vacuously);
  * a row's `build_seconds` grew, or its `peak_rss_ratio` grew, by more
    than --tolerance relative to the committed number (columns present
    only on ingest rows; compared only on matching hardware, like the
    speedups — RSS ratios are allocator-stable but page-cache noise is
    not worth flaking over on foreign machines).

Timing gates (speedup and build_seconds) only apply to rows whose
measurement is at least --min-seconds long on both sides (default
0.3s): the smoke tiers' sub-millisecond rows exist to exercise the
identity flags, and scheduler jitter swings them far past any usable
tolerance. Identity flags, acceptance flags, and peak_rss_ratio are
enforced on every row regardless of duration.

Speedup comparisons are only meaningful when the two files were
produced on comparable hardware. When `spec.hardware_workers` differs
between baseline and fresh, the speedup gate is skipped with a loud
warning (the identity gates still apply — determinism does not depend
on the machine). Baseline rows for graphs the fresh run did not bench
at all (e.g. the committed file has --large rows but the gate ran
without --large) are reported as skipped, not failed.

A second mode, `--require-acceptance FILE...`, validates that each
committed baseline carries a non-empty `acceptance` block and exits 1
naming every file that does not — `run_tier1.sh --bench-gate` runs it
before any bench binary so a truncated or hand-mangled baseline fails
the gate in milliseconds, not after the reruns.

The gate logic lives in `gate(base, fresh, tolerance)` (returns
(failures, warnings) lists) so the unit tests in
tools/test_check_bench_regression.py can drive it on in-memory dicts.
"""

import argparse
import json
import sys

# Timing comparisons (speedup_vs_baseline, build_seconds) only run on
# measurements at least this long, on both sides. Sub-0.3s rows — the
# smoke tiers exist to exercise identity, not perf — swing well past
# any reasonable tolerance from scheduler jitter alone, so gating them
# just makes the gate cry wolf. Identity flags, acceptance flags, and
# peak_rss_ratio (an allocator-stable byte ratio, not a timing) are
# enforced on every row regardless of duration.
MIN_TIMING_GATE_SECONDS = 0.3

# Acceptance keys that are fatal when present and false, with the
# message explaining what broke. Checked only when the key exists, so
# sim/dataset/dynamic files each carry their own subset.
FATAL_ACCEPTANCE = {
    "byte_identical_at_all_worker_counts":
        "outcome divergence across worker counts",
    "rss_ratio_ok":
        "streaming CSR build peak RSS exceeded 3x raw edge bytes",
    "external_sort_rss_flat":
        "external sort child peak RSS grew with the input instead of "
        "staying pinned near the memory budget",
    "mapped_residency_ok":
        "two mapped .bcsr specs stopped being resident-lighter than two "
        "owned copies",
    "identical_to_scratch":
        "the incremental update engine diverged from rebuild-from-scratch",
    "incremental_speedup_ok":
        "delta-aware repair no longer clears its 2x floor over rebuild",
}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def key(row):
    # workload + variant + n + workers uniquely names a measurement.
    return (row["workload"], row["variant"], row.get("n"), row.get("workers"))


def missing_acceptance(doc):
    """True when `doc` lacks a usable acceptance block."""
    acc = doc.get("acceptance")
    return not isinstance(acc, dict) or not acc


def gate(base, fresh, tolerance=0.15,
         min_seconds=MIN_TIMING_GATE_SECONDS):
    """Diffs one fresh bench dict against its baseline dict.

    Pure function of its inputs; returns (failures, warnings) as lists
    of strings. Empty failures means the gate passes.
    """
    failures = []
    warnings = []

    for row in fresh.get("results", []):
        if not row.get("identical", False):
            failures.append(
                f"fresh row {key(row)} has identical=false — outcome "
                f"divergence, not a perf question")
    acc = fresh.get("acceptance", {})
    if "byte_identical_at_all_worker_counts" not in acc:
        failures.append(
            "fresh acceptance block is missing "
            "byte_identical_at_all_worker_counts")
    for name, why in FATAL_ACCEPTANCE.items():
        if name in acc and not acc[name]:
            failures.append(f"fresh acceptance {name} is false — {why}")

    base_hw = base.get("spec", {}).get("hardware_workers")
    fresh_hw = fresh.get("spec", {}).get("hardware_workers")
    compare_speed = base_hw == fresh_hw
    if not compare_speed:
        warnings.append(
            f"hardware differs (baseline hardware_workers={base_hw}, "
            f"fresh={fresh_hw}): skipping the speedup gate; identity "
            f"gates still enforced")

    fresh_rows = {key(r): r for r in fresh.get("results", [])}
    fresh_ns = {r.get("n") for r in fresh.get("results", [])}
    for brow in base.get("results", []):
        k = key(brow)
        frow = fresh_rows.get(k)
        if frow is None:
            if brow.get("n") in fresh_ns:
                failures.append(
                    f"baseline row {k} missing from fresh run although "
                    f"n={brow.get('n')} was benched")
            else:
                warnings.append(
                    f"baseline row {k} not benched by this run "
                    f"(n={brow.get('n')} absent — e.g. no --large); skipped")
            continue
        if not compare_speed:
            continue
        long_enough = (brow.get("seconds", 0.0) >= min_seconds
                       and frow.get("seconds", 0.0) >= min_seconds)
        b_speed = brow.get("speedup_vs_baseline", 0.0)
        f_speed = frow.get("speedup_vs_baseline", 0.0)
        if (long_enough and b_speed > 0
                and f_speed < b_speed * (1.0 - tolerance)):
            failures.append(
                f"row {k} speedup regressed {b_speed:.3f} -> {f_speed:.3f} "
                f"(> {tolerance:.0%} below baseline)")
        # Ingest columns (dataset-layer rows): both grow-is-bad.
        # build_seconds is a timing and shares the duration floor (on
        # its own value); peak_rss_ratio is not and is always gated.
        for col in ("build_seconds", "peak_rss_ratio"):
            b_val = brow.get(col)
            f_val = frow.get(col)
            if b_val is None or f_val is None:
                continue
            if col == "build_seconds" and (b_val < min_seconds
                                           or f_val < min_seconds):
                continue
            if b_val > 0 and f_val > b_val * (1.0 + tolerance):
                failures.append(
                    f"row {k} {col} regressed {b_val:.3f} -> {f_val:.3f} "
                    f"(> {tolerance:.0%} above baseline)")
    return failures, warnings


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default="BENCH_congest_sim.json",
                    help="committed bench JSON (default: %(default)s)")
    ap.add_argument("--fresh",
                    help="bench JSON produced by the gating run")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional speedup regression "
                         "(default: %(default)s)")
    ap.add_argument("--min-seconds", type=float,
                    default=MIN_TIMING_GATE_SECONDS,
                    help="timing gates only apply to rows measuring at "
                         "least this long on both sides; identity and "
                         "RSS gates always apply (default: %(default)s)")
    ap.add_argument("--require-acceptance", nargs="+", metavar="FILE",
                    help="instead of diffing, verify each FILE carries a "
                         "non-empty acceptance block (fail-fast baseline "
                         "sanity for run_tier1.sh --bench-gate)")
    args = ap.parse_args(argv)

    if args.require_acceptance:
        bad = [p for p in args.require_acceptance
               if missing_acceptance(load(p))]
        for p in bad:
            print(f"FAIL: {p} has no acceptance block — truncated or "
                  f"hand-edited baseline; regenerate it with the bench "
                  f"binary")
        if bad:
            return 1
        print(f"acceptance blocks present in "
              f"{len(args.require_acceptance)} baseline file(s)")
        return 0

    if not args.fresh:
        ap.error("--fresh is required unless --require-acceptance is used")

    base = load(args.baseline)
    fresh = load(args.fresh)
    failures, warnings = gate(base, fresh, args.tolerance,
                              args.min_seconds)

    for w in warnings:
        print(f"warning: {w}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        print(f"bench gate: {len(failures)} failure(s)")
        return 1
    print(f"bench gate: OK "
          f"({len(fresh.get('results', []))} fresh rows checked against "
          f"{len(base.get('results', []))} baseline rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
