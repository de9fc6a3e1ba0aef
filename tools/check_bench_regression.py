#!/usr/bin/env python3
"""Bench-JSON regression and determinism gate for CI.

Default mode compares the timing fields of a freshly produced BENCH_*.json
against a committed baseline and flags slowdowns. Two schemas are
understood:

* google-benchmark output (``{"benchmarks": [{"name", "real_time", ...}]}``):
  every benchmark's ``real_time`` is compared by name.
* the repo's JsonReport schema (``{"bench", "params", "metrics",
  "wall_ms", "trials"}``): only the wall-clock fields are compared
  (``wall_ms`` and the ``mc_wall_ms`` metric when present) — the statistical
  metrics are covered by the determinism mode, not by this gate.

Unpinned CI machines are noisy and differ from the machine that produced
the baseline, so the tolerance is deliberately generous and two-staged:
ratios above ``--warn`` are reported but pass, ratios above ``--fail``
fail the job. A benchmark present in the fresh run but absent from the
baseline fails with an explicit message (commit a refreshed baseline);
benchmarks present only in the baseline are reported and ignored.

``--determinism`` mode instead diffs the ``metrics`` objects of two
JsonReport files (e.g. the same bench run with different ``--threads``)
and fails on any differing value outside the scheduling-dependent
prefixes ``mc_``, ``cache_``, and ``obs_`` (wall-clock and per-thread
bookkeeping, which legitimately vary).

``--exact PATTERN`` (repeatable, default mode only) adds an exact gate for
deterministic work counters: every baseline metric whose name matches the
fnmatch-style PATTERN (e.g. ``'n*_channels_realized'``, ``'cell_*_total'``)
must appear in ``--current`` with exactly the same value. Work counts such
as channels realized or receivers culled do not depend on the machine, so
a change that re-inflates the work fails here even while the wall clock
stays inside the loose timing bounds. A pattern that matches no baseline
metric fails too, so a renamed counter cannot turn the gate vacuous.

``--require-key`` mode checks that the metrics of ``--current`` contain
every named key (repeat the flag; a trailing ``*`` matches a prefix). For
the JsonReport schema the keys are the ``metrics`` object's; for
google-benchmark output every numeric field of every benchmark entry is
exposed as ``<benchmark name>.<field>`` (so per-benchmark counters like
``BM_FullConcurrentRound.rounds_per_sec`` are addressable). CI uses it to
assert that the fault/resilience keys and the round-throughput counter
actually made it into the bench JSON — a silent schema regression would
otherwise turn the gates into a vacuous pass.

``--max NAME=LIMIT`` (repeatable; default and ``--require-key`` modes, or
alone with ``--current``) adds a ceiling: metric NAME of ``--current`` must
be present and at most LIMIT. CI caps ``obs_peak_rss_mb`` this way, so a
memo that grows with the workload cannot come back unnoticed.

Usage:
    check_bench_regression.py --baseline b.json --current c.json \
        [--warn 1.75] [--fail 3.0] [--exact 'n*_channels_realized' ...]
    check_bench_regression.py --determinism --baseline a.json --current b.json
    check_bench_regression.py --current c.json \
        --require-key fault_injected_total --require-key 'l30_n4_*'
    check_bench_regression.py --current c.json --max obs_peak_rss_mb=64
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import sys

# Metrics whose values depend on thread count, scheduling, or wall time;
# the determinism diff ignores them.
NONDETERMINISTIC_PREFIXES = ("mc_", "cache_", "obs_")


def fatal(message: str) -> "NoReturn":  # noqa: F821 - py3.8 compat
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path: str) -> dict:
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as exc:
        fatal(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        fatal(f"{path} is not valid JSON: {exc}")


def load_timings(path: str) -> dict[str, float]:
    """Extract {name: time} from either supported schema."""
    doc = load_json(path)
    timings: dict[str, float] = {}
    if "benchmarks" in doc:  # google-benchmark schema
        for bench in doc["benchmarks"]:
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("name")
            time = bench.get("real_time")
            if name is None or time is None:
                fatal(f"{path}: benchmark entry without name/real_time: "
                      f"{bench!r}")
            timings[name] = float(time)
    elif "wall_ms" in doc or "metrics" in doc:  # JsonReport schema
        if "wall_ms" in doc:
            timings["wall_ms"] = float(doc["wall_ms"])
        mc_wall = doc.get("metrics", {}).get("mc_wall_ms")
        if mc_wall is not None:
            timings["mc_wall_ms"] = float(mc_wall)
    else:
        fatal(f"{path}: unrecognised schema (expected google-benchmark "
              f"output or a JsonReport with wall_ms/metrics)")
    return timings


def check_exact(args: argparse.Namespace) -> int:
    """Exact gate: matching baseline metrics must repeat bit for bit."""
    baseline = metrics_of(load_json(args.baseline), args.baseline)
    current = metrics_of(load_json(args.current), args.current)

    failures = []
    compared = 0
    for pattern in args.exact:
        names = sorted(n for n in baseline if fnmatch.fnmatchcase(n, pattern))
        if not names:
            print(f"FAIL   {pattern}: matches no baseline metric")
            failures.append(pattern)
        for name in names:
            compared += 1
            base, cur = baseline[name], current.get(name, "<absent>")
            if cur == base:
                print(f"ok     {name}: {base}")
            else:
                print(f"FAIL   {name}: {base} -> {cur}")
                failures.append(name)

    print(f"\n{compared} work counter(s) compared exactly, "
          f"{len(failures)} failure(s)")
    if failures:
        print("exact gate FAILED:", ", ".join(failures))
        return 1
    return 0


def check_regression(args: argparse.Namespace) -> int:
    exact_status = check_exact(args) if args.exact else 0
    baseline = load_timings(args.baseline)
    current = load_timings(args.current)

    baseline_only = sorted(set(baseline) - set(current))
    current_only = sorted(set(current) - set(baseline))
    for name in baseline_only:
        print(f"NOTE   {name}: in baseline only (refresh the baseline?)")

    failures = []
    warnings = []
    for name in sorted(set(baseline) & set(current)):
        base, cur = baseline[name], current[name]
        if base <= 0.0:
            continue
        ratio = cur / base
        status = "ok"
        if ratio > args.fail:
            status = "FAIL"
            failures.append(name)
        elif ratio > args.warn:
            status = "WARN"
            warnings.append(name)
        print(f"{status:6s} {name}: {base:.4g} -> {cur:.4g}  ({ratio:.2f}x)")

    print(f"\n{len(failures)} failure(s), {len(warnings)} warning(s), "
          f"{len(set(baseline) & set(current))} compared "
          f"(warn >{args.warn}x, fail >{args.fail}x)")
    if current_only:
        print(f"baseline {args.baseline} is missing benchmark(s) present in "
              f"the current run: {', '.join(current_only)}\n"
              f"-> run the bench on the baseline machine and commit a "
              f"refreshed baseline file")
        return 1
    if failures:
        print("regression gate FAILED:", ", ".join(failures))
        return 1
    return exact_status


def check_determinism(args: argparse.Namespace) -> int:
    docs = [load_json(args.baseline), load_json(args.current)]
    for path, doc in zip((args.baseline, args.current), docs):
        if "metrics" not in doc:
            fatal(f"{path}: no 'metrics' object (determinism mode expects "
                  f"the JsonReport schema)")
    a, b = (doc["metrics"] for doc in docs)

    skipped = {name for name in set(a) | set(b)
               if name.startswith(NONDETERMINISTIC_PREFIXES)}
    checked = sorted((set(a) | set(b)) - skipped)
    diffs = []
    for name in checked:
        if name not in a or name not in b or a[name] != b[name]:
            diffs.append(name)
            print(f"DIFF   {name}: {a.get(name, '<absent>')} != "
                  f"{b.get(name, '<absent>')}")

    print(f"\n{len(checked)} metric(s) compared, {len(skipped)} skipped "
          f"({'/'.join(NONDETERMINISTIC_PREFIXES)} prefixes), "
          f"{len(diffs)} differ")
    if diffs:
        print("determinism check FAILED: metrics differ across runs that "
              "must be bit-identical")
        return 1
    return 0


def metrics_of(doc: dict, path: str) -> dict:
    """The key->value metrics view of either supported schema."""
    if "benchmarks" in doc:  # google-benchmark: flatten numeric fields
        metrics: dict = {}
        for bench in doc["benchmarks"]:
            if bench.get("run_type") == "aggregate":
                continue
            name = bench.get("name")
            if name is None:
                continue
            for key, value in bench.items():
                if isinstance(value, bool) or not isinstance(value,
                                                             (int, float)):
                    continue
                metrics[f"{name}.{key}"] = value
        return metrics
    metrics = doc.get("metrics")
    if metrics is None:
        fatal(f"{path}: no 'metrics' object (require-key mode expects the "
              f"JsonReport or google-benchmark schema)")
    return metrics


def check_required_keys(args: argparse.Namespace) -> int:
    metrics = metrics_of(load_json(args.current), args.current)

    missing = []
    for key in args.require_key:
        if key.endswith("*"):
            hits = [name for name in metrics if name.startswith(key[:-1])]
            ok = bool(hits)
            detail = f"{len(hits)} key(s) match" if ok else "no key matches"
        else:
            ok = key in metrics
            detail = f"= {metrics[key]}" if ok else "absent"
        print(f"{'ok' if ok else 'MISSING':8s} {key}: {detail}")
        if not ok:
            missing.append(key)

    print(f"\n{len(args.require_key)} key(s) required, {len(missing)} missing")
    if missing:
        print("required-key check FAILED:", ", ".join(missing))
        return 1
    return 0


def parse_ceilings(specs: list[str]) -> list[tuple[str, float]]:
    """NAME=LIMIT specs as (name, limit) pairs."""
    ceilings = []
    for spec in specs:
        name, sep, limit = spec.partition("=")
        try:
            value = float(limit)
        except ValueError:
            value = None
        if not sep or not name or value is None:
            fatal(f"--max expects NAME=LIMIT with a numeric LIMIT, got {spec!r}")
        ceilings.append((name, value))
    return ceilings


def check_max(args: argparse.Namespace) -> int:
    """Ceiling gate: every named metric is present and at most its limit."""
    if not args.max:
        return 0
    ceilings = parse_ceilings(args.max)
    metrics = metrics_of(load_json(args.current), args.current)

    failures = []
    for name, limit in ceilings:
        value = metrics.get(name)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            shown = "absent" if name not in metrics else repr(value)
            print(f"FAIL   {name}: {shown} (limit {limit:g})")
            failures.append(name)
        elif value > limit:
            print(f"FAIL   {name}: {value:g} > {limit:g}")
            failures.append(name)
        else:
            print(f"ok     {name}: {value:g} <= {limit:g}")

    print(f"\n{len(ceilings)} ceiling(s) checked, {len(failures)} failure(s)")
    if failures:
        print("ceiling gate FAILED:", ", ".join(failures))
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline")
    parser.add_argument("--current", required=True)
    parser.add_argument("--warn", type=float, default=1.75,
                        help="ratio above which to print a warning")
    parser.add_argument("--fail", type=float, default=3.0,
                        help="ratio above which to fail the run")
    parser.add_argument("--determinism", action="store_true",
                        help="diff the metrics objects for bit-identity "
                             "instead of gating wall times")
    parser.add_argument("--exact", action="append", default=[],
                        metavar="PATTERN",
                        help="also require every baseline metric matching "
                             "PATTERN (fnmatch) to repeat exactly in "
                             "--current (repeatable; default mode only)")
    parser.add_argument("--require-key", action="append", default=[],
                        metavar="KEY",
                        help="assert KEY exists in --current's metrics "
                             "(repeatable; trailing * matches a prefix)")
    parser.add_argument("--max", action="append", default=[],
                        metavar="NAME=LIMIT",
                        help="fail unless metric NAME of --current is present "
                             "and at most LIMIT (repeatable)")
    args = parser.parse_args()

    if args.determinism and args.max:
        fatal("--max belongs to the default and --require-key modes")
    if args.require_key:
        if args.determinism or args.baseline:
            fatal("--require-key is a standalone mode (no --baseline / "
                  "--determinism)")
        return max(check_required_keys(args), check_max(args))
    if args.baseline is None:
        if args.max:
            return check_max(args)
        fatal("--baseline is required outside --require-key and --max modes")
    if args.determinism:
        if args.exact:
            fatal("--exact belongs to the default mode (--determinism "
                  "already compares every metric exactly)")
        return check_determinism(args)
    return max(check_regression(args), check_max(args))


if __name__ == "__main__":
    sys.exit(main())
