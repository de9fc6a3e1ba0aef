#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload briefly, untraced and traced, and checks that the last
stdout line is the result object carrying exactly the metrics BENCHMARK.json
names (with their units), that every check passed, and that bad command
lines exit 2 without a result. Usage, from the repository root:

    python3 perfbench/selftest.py

Takes about a minute once the binary is built (the untraced runs always
score a fixed number of rounds). Exits 0 when everything passed.
"""
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]


def run(args):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True)


def check_result(spec, workload, trace, failures):
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace)])
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        failures.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        failures.append(f"{where}: attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        failures.append(f"{where}: missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}")
    for name, metric in got.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{where}: {name} = {value!r}")
        if name in wanted and metric.get("unit") != wanted[name]:
            failures.append(f"{where}: {name} unit {metric.get('unit')!r}, "
                            f"BENCHMARK.json says {wanted[name]!r}")
    if trace == 0:
        for name in ("setup_s", "rounds_per_s", "round_ms_p50"):
            if name in got and not got[name]["value"] > 0:
                failures.append(f"{where}: {name} is not positive")


BAD_COMMAND_LINES = [
    [],
    ["--workload"],
    ["--workload", "no_such_workload"],
    ["--workload", "fig4_hallway", "--seed", "abc"],
    ["--workload", "fig4_hallway", "--seed", "-1"],
    ["--workload", "fig4_hallway", "--seed"],
    ["--workload", "fig4_hallway", "--seconds", "0"],
    ["--workload", "fig4_hallway", "--trace", "2"],
    ["--workload", "fig4_hallway", "--bogus", "1"],
]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    for args in BAD_COMMAND_LINES:
        proc = run(args)
        if proc.returncode != 2 or proc.stdout.strip():
            failures.append(f"{args}: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace, failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
