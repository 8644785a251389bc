#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Checks that

* every metric named in ``BENCHMARK.json`` is emitted, with its unit, by
  every workload in both modes;
* two runs with one seed report identical work counts;
* a sabotaged campaign result (two swapped result slots) is counted as a
  failed request and makes the command exit non-zero;
* without the program's sources beside it the command exits non-zero
  and prints no result.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(*args, cwd=ROOT):
    command = [sys.executable, "perfbench/run.py", "--tiny",
               "--seconds", "1", "--seed", str(SEED), *args]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    counts = [line for line in lines if line.startswith("counts ")]
    return proc, result, counts


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, message):
        if not ok:
            failures.append(message)
            print("FAIL", message)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc, result, _ = run("--workload", workload,
                                  "--trace", str(trace))
            label = f"{workload} --trace {trace}"
            expect(proc.returncode == 0,
                   f"{label} exited {proc.returncode}: {proc.stderr[-500:]}")
            if result is None:
                expect(False, f"{label} printed no result line")
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   f"{label} result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{label} not correct: {result}")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted, f"{label} metrics/units differ from "
                   f"BENCHMARK.json: {set(got) ^ set(wanted)}")
            expect(all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values()),
                   f"{label} has a non-numeric value")

        first = run("--workload", workload)[2]
        second = run("--workload", workload)[2]
        expect(first and first == second,
               f"{workload}: counts differ between runs of one seed: "
               f"{first} vs {second}")

    proc, result, _ = run("--workload", "campaign", "--sabotage")
    expect(proc.returncode != 0, "sabotaged campaign exited 0")
    expect(result is not None and not result["correct"]
           and result["failed"] >= 1,
           f"sabotaged campaign not counted as failed: {result}")

    bare = ROOT / ".bench_build" / "perfbench-selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, result, _ = run("--workload", "sa-sweep", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and result is None,
           f"run without the sources: exit {proc.returncode}, "
           f"result {result}")

    print("selftest:", "FAILED" if failures else "ok",
          f"({len(failures)} failure(s))")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
