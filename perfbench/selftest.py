#!/usr/bin/env python3
"""Self-test of the benchmark.

Runs every workload briefly, untraced and traced, and checks that the last
output line parses, carries exactly the result keys, and reports exactly the
metrics BENCHMARK.json names, each exactly a non-negative number and its
declared unit. Then runs every workload with one oracle expectation
corrupted and checks that the run fails without printing a result.

Run from the repository root:

    python3 perfbench/selftest.py [--seconds 2]
"""

import argparse
import json
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(command, workload, seconds, trace, corrupt=False):
    args = command + [
        "--workload", workload,
        "--seed", "7",
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if corrupt:
        args.append("--corrupt-oracle")
    return subprocess.run(args, capture_output=True, text=True, timeout=600)


def check_result(spec, proc, trace):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        return [f"last line does not parse: {e}"]
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int):
            problems.append(f"{key} is not a whole number")
    if result.get("attempted", 0) < 1:
        problems.append("attempted < 1")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if set(got) != {"value", "unit"}:
            problems.append(f"{m['name']}: keys {sorted(got)}, not value and unit")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{m['name']}: value {value!r} is not a number")
        elif value < 0:
            problems.append(f"{m['name']}: value {value} is negative")
        elif not trace and value == 0:
            problems.append(f"{m['name']}: end-to-end metric is 0")
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2)
    opts = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_result(spec, run(spec["command"], workload, opts.seconds, trace), trace)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload} --trace {trace}: {status}")
            failures += bool(problems)
        proc = run(spec["command"], workload, opts.seconds, 0, corrupt=True)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        caught = proc.returncode != 0 and not last[0].startswith("{")
        print(f"{workload} --corrupt-oracle: {'ok (run failed)' if caught else 'FAIL (run passed)'}")
        failures += not caught
    print("selftest", "passed" if failures == 0 else f"failed ({failures})")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
