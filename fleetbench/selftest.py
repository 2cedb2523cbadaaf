"""Smoke-size self-test of the fleet benchmark.

Run from the root of a checkout::

    python3 fleetbench/selftest.py

Runs every workload of ``BENCHMARK.json`` end to end on tiny fleets
(``run.py --smoke``), untraced and traced, and checks that each run passes
its own output check and prints exactly the metric names ``BENCHMARK.json``
declares for that mode, each with the declared unit.  Then copies only
``BENCHMARK.json`` and the benchmark's directories into an empty directory
and checks that the benchmark refuses to run there.  Exits non-zero on the
first failure.
"""

from __future__ import annotations

import json
import numbers
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: str, workload: str, trace: int, smoke: bool = True) -> subprocess.CompletedProcess:
    command = [sys.executable, os.path.join("fleetbench", "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> None:
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: output check failed\n{done.stderr}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = result["metrics"]
    if set(printed) != set(declared):
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        raise AssertionError(f"{workload} trace={trace}: missing {missing}, undeclared {extra}")
    for name, metric in printed.items():
        if set(metric) != {"value", "unit"} or metric["unit"] != declared[name]:
            raise AssertionError(f"{workload} trace={trace}: {name} is {metric}")
        if not isinstance(metric["value"], numbers.Real) or isinstance(metric["value"], bool):
            raise AssertionError(f"{workload} trace={trace}: {name} value {metric['value']!r}")
    print(f"ok  {workload} trace={trace}: {len(printed)} metrics, attempted {result['attempted']}")


def check_refuses_without_program(spec: dict) -> None:
    bare = os.path.join(ROOT, ".fleetbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bare, spec["workloads"][0]["name"], 0, smoke=False)
        if done.returncode == 0 or '"metrics"' in done.stdout:
            raise AssertionError(f"ran without the program: exit {done.returncode}\n{done.stdout}")
        print(f"ok  refuses to run without the program (exit {done.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, HERE)
    from run import SMOKE_WORKLOADS, WORKLOADS

    names = [workload["name"] for workload in spec["workloads"]]
    if set(names) != set(WORKLOADS) or set(names) != set(SMOKE_WORKLOADS):
        print(f"FAIL workloads {names} != {sorted(WORKLOADS)}", file=sys.stderr)
        return 1
    try:
        for name in names:
            for trace in (0, 1):
                check_result(spec, name, trace)
        check_refuses_without_program(spec)
    except AssertionError as failure:
        print(f"FAIL {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
