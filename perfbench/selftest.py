#!/usr/bin/env python3
"""Self-test of the benchmark (run from the repository root):

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's output contract, then runs
a short pass of every workload, untraced and traced, and checks that:
each pass exits 0 and passes its correctness gates; the metric names it
prints equal the names BENCHMARK.json lists (end-to-end untraced,
per-layer traced), with the listed units; every name matches
[A-Za-z0-9_.-]+; and every figure in the report line, percentiles
included, carries its sample count.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec, problems):
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append("BENCHMARK.json keys: %s" % sorted(spec))
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append("workload entry %r" % w)
    for m in spec["end_to_end"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append("end-to-end entry %r" % m)
    for m in spec["per_layer"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better"}:
            problems.append("per-layer entry %r" % m)
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append("unit or direction of %s" % m["name"])
    for n in names:
        if not NAME.match(n):
            problems.append("bad name %r" % n)
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s missing or mis-specified")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    if not 1 <= spec["run_seconds"] <= 60:
        problems.append("run_seconds out of range")


def check_run(spec, workload, trace, problems):
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "2", "--trace", str(trace)]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    label = "%s --trace %d" % (workload, trace)
    lines = run.stdout.strip().split("\n")
    if run.returncode != 0 or len(lines) < 2:
        problems.append("%s exited %d: %s" % (label, run.returncode, run.stderr[-500:]))
        return
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s result keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("%s failed its gates: %s" % (label, report.get("gate")))
    if set(result["metrics"]) != set(units):
        problems.append("%s prints %s, BENCHMARK.json lists %s"
                        % (label, sorted(result["metrics"]), sorted(units)))
    for name, m in result["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != units.get(name):
            problems.append("%s metric %s: %r" % (label, name, m))
        if not NAME.match(name):
            problems.append("%s bad metric name %r" % (label, name))
    for name, m in report["metrics"].items():
        if not isinstance(m.get("samples"), int) or m["samples"] < 1:
            problems.append("%s %s has no sample count" % (label, name))
    print("ok" if not problems else "..", label, "attempted", result["attempted"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    check_spec(spec, problems)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace, problems)
    for p in problems:
        print("FAIL:", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
