#!/usr/bin/env python3
"""Self-test of the benchmark's contract; not part of the measured runs.

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all), runs ``run.py`` once untraced and once
traced from an empty cwd outside the repo with ``PYTHONPATH`` unset, and
checks the result line: exactly the keys ``correct``, ``attempted``,
``failed``, ``metrics``; a correct run with no failed operation; every
metric BENCHMARK.json names for that mode, with its unit; end-to-end values
above zero. Then it checks that a copy holding only BENCHMARK.json and the
benchmark's own files exits non-zero without a result, and that no run
left files or Ray processes behind.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LEFTOVERS = (".bench_run", ".rt")


def clean_env() -> dict[str, str]:
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def run_bench(root: str, cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, env=clean_env(), capture_output=True, text=True, timeout=180)


def check_result(proc: subprocess.CompletedProcess, spec: dict, trace: int) -> list[str]:
    errs = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-1500:]}"]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(res)}")
    if res.get("correct") is not True or res.get("failed") != 0 or res.get("attempted", 0) < 1:
        errs.append(f"correct={res.get('correct')} failed={res.get('failed')} attempted={res.get('attempted')}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = res.get("metrics", {})
    if set(got) != set(want):
        errs.append(f"metric names differ: {sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if m.get("unit") != want.get(name):
            errs.append(f"{name}: unit {m.get('unit')} != {want.get(name)}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v) or (not trace and v <= 0):
            errs.append(f"{name}: value {v}")
    return errs


def ray_processes() -> list[int]:
    out = []
    for pid in os.listdir("/proc"):
        if pid.isdigit():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    if os.path.join(ROOT, ".rt").encode() in f.read():
                        out.append(int(pid))
            except OSError:
                pass
    return out


def main(argv: list[str]) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    failures = []
    with tempfile.TemporaryDirectory() as cwd:
        for w in workloads:
            for trace in (0, 1):
                errs = check_result(run_bench(ROOT, cwd, w, trace), spec, trace)
                print(f"{w} trace={trace}: {'ok' if not errs else 'FAIL'}")
                failures += [f"{w} trace={trace}: {e}" for e in errs]
        left = [d for d in LEFTOVERS if os.path.exists(os.path.join(ROOT, d))]
        if left or ray_processes():
            failures.append(f"left behind: {left} ray pids {ray_processes()}")

        bare = os.path.join(cwd, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, bare, workloads[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        print(f"bare copy: exit {proc.returncode}")
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
