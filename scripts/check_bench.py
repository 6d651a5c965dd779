#!/usr/bin/env python3
"""Bench regression gate: compare a fresh BENCH_throughput.json against the
committed baseline.

Usage:
    scripts/check_bench.py [--current BENCH_throughput.json]
                           [--baseline bench/baseline/BENCH_throughput.baseline.json]
                           [--tolerance 0.5] [--strict] [--ops a,b,...]

Compares per-op/per-thread-count timings from ``results[]`` and per-stage
mean latencies from ``stage_breakdown.histograms``.  A regression is a
current value more than ``(1 + tolerance)`` times the baseline.  The default
tolerance is deliberately generous (50%) because these are wall-clock
micro-benches on shared CI hardware; tighten it on a quiet box.

Both JSON files carry a ``simd`` field naming the vector ISA the run
dispatched to (scalar/avx2/avx512/neon).  When the two runs used different ISAs the
comparison is meaningless — a scalar run on an AVX2 baseline would "regress"
by design — so the script refuses it (exit 2).  Re-run the bench with
``MMHAND_SIMD=<baseline isa>`` or refresh the baseline instead.

``--ops`` restricts the comparison to a comma-separated set of names: op
rows whose op matches exactly, and stage histograms whose name starts with a
listed prefix (e.g. ``--ops process_frame,radar/``).

``--append-history bench/history.jsonl`` additionally appends one
``{"kind": "bench_history", ...}`` record summarizing the current run, so
trends survive baseline refreshes.  Ops are keyed ``op@<N>t+<isa>`` —  the
ISA suffix keeps scalar and vector runs as separate series, because merging
them would fabricate a trend.  ``--timestamp``/``--note`` stamp the record
(timestamp defaults to now; pass it explicitly for reproducible records).
``tools/mmhand_report --history bench/history.jsonl`` renders the trend.

Default mode only reports.  With ``--strict`` the exit code is non-zero when
any regression is found, so CI can gate on it.  Missing/extra ops are
reported but never fail the gate (benches evolve).
"""

import argparse
import json
import os
import sys
import time


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def results_table(doc):
    """{(op, threads): ms} from the results[] array."""
    table = {}
    for row in doc.get("results", []):
        key = (row.get("op", "?"), int(row.get("threads", 0)))
        table[key] = float(row["ms"])
    return table


def stage_table(doc):
    """{stage: mean_us} from stage_breakdown histograms."""
    hists = doc.get("stage_breakdown", {}).get("histograms", {})
    return {name: float(h["mean"]) for name, h in hists.items() if "mean" in h}


def filter_table(table, ops):
    """Keeps op rows matching a name exactly and stages matching a prefix."""
    if not ops:
        return table

    def keep(key):
        name = key[0] if isinstance(key, tuple) else key
        return any(name == f or name.startswith(f) for f in ops)

    return {k: v for k, v in table.items() if keep(k)}


def compare(kind, baseline, current, tolerance, report):
    """Appends (severity, message) rows to report; returns regression count."""
    regressions = 0
    for key in sorted(baseline):
        label = f"{key[0]} @{key[1]}t" if isinstance(key, tuple) else key
        if key not in current:
            report.append(("note", f"{kind} {label}: missing from current run"))
            continue
        base, cur = baseline[key], current[key]
        if base <= 0.0:
            continue
        ratio = cur / base
        line = f"{kind} {label}: {base:.4f} -> {cur:.4f} ({ratio:.2f}x)"
        if ratio > 1.0 + tolerance:
            regressions += 1
            report.append(("REGRESSION", line))
        elif ratio < 1.0 / (1.0 + tolerance):
            report.append(("improved", line))
        else:
            report.append(("ok", line))
    for key in sorted(set(current) - set(baseline)):
        label = f"{key[0]} @{key[1]}t" if isinstance(key, tuple) else key
        report.append(("note", f"{kind} {label}: new (no baseline)"))
    return regressions


def history_record(doc, timestamp, note):
    """One JSONL trend record from a bench run document."""
    isa = doc.get("simd")
    ops = {}
    for (op, threads), ms in sorted(results_table(doc).items()):
        key = f"{op}@{threads}t" + (f"+{isa}" if isa else "")
        ops[key] = ms
    record = {
        "kind": "bench_history",
        "timestamp": timestamp,
        "simd": isa,
        "hardware_concurrency": doc.get("hardware_concurrency"),
        "ops": ops,
    }
    # Provenance (git_sha / hostname / cpu_model) travels with every
    # history record: a trend mixing machines or commits is then visible
    # in the record itself instead of silently misleading.
    provenance = doc.get("provenance")
    if isinstance(provenance, dict):
        record["provenance"] = provenance
    if note:
        record["note"] = note
    overhead = doc.get("telemetry_overhead")
    if isinstance(overhead, dict) and "ratio" in overhead:
        record["telemetry_overhead_ratio"] = overhead["ratio"]
    return record


def append_history(path, doc, timestamp, note):
    record = history_record(doc, timestamp, note)
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"check_bench: appended {len(record['ops'])} op timings to {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", default="BENCH_throughput.json")
    parser.add_argument(
        "--baseline",
        default=os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "bench", "baseline", "BENCH_throughput.baseline.json"),
    )
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional slowdown (default 0.5 = +50%%)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero when a regression is found")
    parser.add_argument("--ops", default="",
                        help="comma-separated op names / stage prefixes to"
                             " compare (default: everything)")
    parser.add_argument("--append-history", default="", metavar="JSONL",
                        help="append a bench_history record for the current"
                             " run to this JSONL file")
    parser.add_argument("--timestamp", type=int, default=None,
                        help="unix seconds to stamp the history record with"
                             " (default: current time)")
    parser.add_argument("--note", default="",
                        help="free-form annotation for the history record")
    args = parser.parse_args()
    ops = [o for o in (s.strip() for s in args.ops.split(",")) if o]

    try:
        baseline = load(args.baseline)
    except OSError as e:
        print(f"check_bench: cannot read baseline: {e}", file=sys.stderr)
        return 2
    try:
        current = load(args.current)
    except OSError as e:
        print(f"check_bench: cannot read current: {e}", file=sys.stderr)
        return 2

    base_isa = baseline.get("simd")
    cur_isa = current.get("simd")
    if base_isa is not None and cur_isa is not None and base_isa != cur_isa:
        print(f"check_bench: refusing cross-ISA comparison: baseline ran"
              f" simd={base_isa}, current ran simd={cur_isa}; rerun with"
              f" MMHAND_SIMD={base_isa} or refresh the baseline",
              file=sys.stderr)
        return 2
    if base_isa is None or cur_isa is None:
        print("check_bench: note: missing 'simd' field in"
              f" {'baseline' if base_isa is None else 'current'} run"
              " (pre-SIMD bench JSON); ISA match not verified")

    report = []
    regressions = 0
    regressions += compare("op",
                           filter_table(results_table(baseline), ops),
                           filter_table(results_table(current), ops),
                           args.tolerance, report)
    regressions += compare("stage",
                           filter_table(stage_table(baseline), ops),
                           filter_table(stage_table(current), ops),
                           args.tolerance, report)

    print(f"check_bench: baseline={args.baseline}")
    print(f"check_bench: current={args.current} tolerance=+{args.tolerance:.0%}")
    for severity, line in report:
        print(f"  [{severity}] {line}")
    if args.append_history:
        timestamp = args.timestamp if args.timestamp is not None \
            else int(time.time())
        try:
            append_history(args.append_history, current, timestamp, args.note)
        except OSError as e:
            print(f"check_bench: cannot append history: {e}", file=sys.stderr)
            return 2
    if regressions:
        print(f"check_bench: {regressions} regression(s) beyond tolerance")
        return 1 if args.strict else 0
    print("check_bench: no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
