#!/usr/bin/env python3
"""Smoke-size self-test of the pipeline ledger.

    python3 pipebench/selftest.py

Runs every workload of BENCHMARK.json at --smoke size, untraced and
traced, and checks that each run passes its output checks and prints
every metric BENCHMARK.json names: on the human-readable lines by name
with its unit, and in the final JSON line with exactly those names and
units. Exits 1 if any run fails.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "pipebench", "run.py")


def check_run(workload, trace, expected):
    """Returns a list of problems with one smoke run."""
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True)
    label = "%s --trace %s" % (workload, trace)
    if done.returncode != 0:
        return ["%s: exit %d\n%s" % (label, done.returncode, done.stderr)]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: unexpected result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("%s: output checks failed" % label)
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("%s: attempted must be a positive integer" % label)
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append("%s: metrics %s, expected %s" %
                        (label, sorted(metrics), sorted(expected)))
    human = [line.split() for line in lines[:-1]]
    for name, unit in expected.items():
        if name in metrics and metrics[name].get("unit") != unit:
            problems.append("%s: %s has unit %s, expected %s" %
                            (label, name, metrics[name].get("unit"), unit))
        if not any(len(f) >= 3 and f[0] == name and f[2] == unit
                   for f in human):
            problems.append("%s: no line prints %s in %s" % (label, name, unit))
    if trace == "0" and not any(f and f[0] == "error_rate" for f in human):
        problems.append("%s: error_rate is not printed" % label)
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in spec["workloads"]:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            found = check_run(workload["name"], trace, expected)
            print("%-16s --trace %s  %s" %
                  (workload["name"], trace, "ok" if not found else "FAILED"))
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
