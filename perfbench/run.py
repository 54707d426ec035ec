#!/usr/bin/env python3
"""Repo benchmark for ``sonic_etl_ray``: one workload per invocation.

    python3 perfbench/run.py --workload backfill --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload on Ray (``num_cpus`` from ``config.json``)
and prints the end-to-end metrics; ``--trace 1`` runs the workload's write
epochs once on Ray for their wall time, replays them in this process with
layer spans, and prints the per-layer metrics. Every run checks its results
against the DuckDB oracle outside the timed region. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``
(``{name: {"value", "unit"}}``).

Streams, lakes and Ray's session files go under the checkout
(``.bench_run/``, ``.rt/``) and are removed when the run ends. Each run
keeps its per-operation samples (untraced) or spans (traced) in
``.bench_out/``. The run works from any cwd and with ``PYTHONPATH`` unset:
the repo root is derived from this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_metric_units(trace: int) -> dict[str, str]:
    """{name: unit} of the metrics a run with this ``--trace`` must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cpu_steal_jiffies() -> int:
    """Host CPU steal so far (all CPUs); a run that saw a lot of it ran on
    a busy host."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["backfill", "tail"])
    ap.add_argument("--seed", type=int, default=None, help="workload seed (default: config.json)")
    ap.add_argument("--seconds", type=float, default=10.0, help="length of the timed region")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "sonic_etl_ray", "__init__.py")):
        print(f"error: package sonic_etl_ray not found under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "config.json")) as f:
        cfg = json.load(f)
    seed = cfg["default_seed"] if args.seed is None else args.seed
    units = load_metric_units(args.trace)

    sys.path.insert(0, ROOT)
    import workloads as wl

    run = wl.Run(ROOT, cfg, args.workload, seed)
    need_mb = run.wcfg["disk_mb"]
    free_mb = shutil.disk_usage(ROOT).free / (1 << 20)
    if free_mb < need_mb:
        print(
            f"error: {free_mb:.0f} MB free under {ROOT}; workload {args.workload} "
            f"writes up to {need_mb} MB", file=sys.stderr,
        )
        return 3

    metrics: dict[str, float] = {}
    t_run, steal0 = time.perf_counter(), cpu_steal_jiffies()
    try:
        os.makedirs(run.dir)
        t0 = time.perf_counter()
        wl.start_ray(run)
        wl.warm_up(run)
        ray_start_s = time.perf_counter() - t0
        print(f"Ray start and warm-up: {ray_start_s:.2f} s", file=sys.stderr)
        if args.trace:
            metrics = wl.run_traced(run, os.path.join(ROOT, ".bench_out"))
        else:
            data_setup_s: list[float] = []

            def setup(fn):
                """Run the data set-up ``setup_reps`` times; keep the last."""
                out = None
                for i in range(cfg["setup_reps"]):
                    t = time.perf_counter()
                    out = fn(f"setup{i}")
                    data_setup_s.append(time.perf_counter() - t)
                    print(f"data set-up {i}: {data_setup_s[-1]:.2f} s", file=sys.stderr)
                return out

            metrics = wl.WORKLOADS[args.workload](run, args.seconds, setup)
            metrics["setup_s"] = ray_start_s + statistics.median(data_setup_s)
    finally:
        wl.stop_ray()
        shutil.rmtree(run.dir, ignore_errors=True)
        shutil.rmtree(os.path.join(ROOT, ".rt"), ignore_errors=True)
        runs_dir = os.path.dirname(run.dir)
        if os.path.isdir(runs_dir) and not os.listdir(runs_dir):
            os.rmdir(runs_dir)
    print(
        f"run took {time.perf_counter() - t_run:.1f} s; host CPU steal "
        f"{(cpu_steal_jiffies() - steal0) / os.sysconf('SC_CLK_TCK'):.2f} CPU-s", file=sys.stderr,
    )

    attempted = max(run.attempted, 1)
    print(f"workload={args.workload} seed={seed} trace={args.trace} num_cpus={cfg['num_cpus']}")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units.get(name, '')}")
    print(f"  failed_ops_frac = {run.failed / attempted:.6g} ({run.failed}/{run.attempted} ops)")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": run.failed == 0,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
