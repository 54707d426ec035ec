"""Merge-on-read vs copy-on-write write-path comparison at steady state.

The scenario MOR exists for: a long-running CDC stream over a bounded key
universe (state ≪ events), applied in many sparse epochs. COW rewrites each
partition's full state every epoch; MOR appends per-epoch winner deltas and
compacts once at the end. Reports wall time, bytes written to the lake, and
the write-amplification ratio. One JSON line.

    python tools/bench_mor.py            # defaults: 4M events / 200k keys / 16 epochs
    MOR_EVENTS=32000000 MOR_KEYS=2000000 python tools/bench_mor.py
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# SPARSE-epoch regime (the one MOR exists for): per-epoch event count must
# be well under the live-key count, or every epoch rewrites ~the whole state
# under COW *and* writes ~a whole state under MOR and nothing is learned.
# 6M events / 2M keys / 48 epochs → late epochs touch ≤6% of state.
N_EVENTS = int(os.environ.get("MOR_EVENTS", 6_000_000))
N_KEYS = int(os.environ.get("MOR_KEYS", 2_000_000))
N_EPOCHS = int(os.environ.get("MOR_EPOCHS", 48))
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
REPS = int(os.environ.get("BENCH_REPS", "2"))


def _stream() -> list[str]:
    from sonic_etl_ray.generator import StreamSpec, generate_stream

    out_dir = f"/tmp/sonic_etl_ray_bench/morstream_n{N_EVENTS}_k{N_KEYS}"
    done = os.path.join(out_dir, "_DONE")
    if not os.path.exists(done):
        shutil.rmtree(out_dir, ignore_errors=True)
        generate_stream(
            out_dir,
            StreamSpec(
                n_events=N_EVENTS, n_repos=200, seed=42,
                segment_size=N_EVENTS // (N_EPOCHS * 2),
                hot_repo_frac=0.2, max_live_keys=N_KEYS,
                p_insert=0.6, p_update=0.38,
            ),
        )
        open(done, "w").close()
    return sorted(glob.glob(os.path.join(out_dir, "segment_*.parquet")))


def _lake_bytes(lake: str) -> dict[str, int]:
    out = {"state": 0, "delta": 0}
    for kind in out:
        for f in glob.glob(os.path.join(lake, "part=*", f"{kind}-*.parquet")):
            out[kind] += os.path.getsize(f)
    return out


def _run(files: list[str], mode: str) -> dict:
    from sonic_etl_ray.pipelines.ingest import (
        compact_lake_states, lake_final_table, run_ingest,
    )

    best = None
    for _ in range(max(REPS, 1)):
        lake = f"/tmp/sonic_etl_ray_bench/morlake_{mode}_{os.getpid()}"
        shutil.rmtree(lake, ignore_errors=True)
        t0 = time.perf_counter()
        run_ingest(
            files, lake, num_partitions=32, segments_per_epoch=2, merge_mode=mode,
        )
        apply_sec = time.perf_counter() - t0
        written = _lake_bytes(lake)  # before compaction: the apply-path cost
        t1 = time.perf_counter()
        compacted = compact_lake_states(lake) if mode == "mor" else {}
        compact_sec = time.perf_counter() - t1
        rows = lake_final_table(lake, columns=["repo"]).num_rows
        shutil.rmtree(lake, ignore_errors=True)
        rec = {
            "apply_sec": round(apply_sec, 2),
            "compact_sec": round(compact_sec, 2),
            "total_sec": round(apply_sec + compact_sec, 2),
            "events_per_sec_apply": round(N_EVENTS / apply_sec, 1),
            "bytes_written_apply": written["state"] + written["delta"],
            "final_rows": rows,
            **({"deltas_folded": compacted.get("deltas_folded")} if mode == "mor" else {}),
        }
        if best is None or rec["apply_sec"] < best["apply_sec"]:
            best = rec
    return best


def main() -> None:
    import logging

    import ray
    from ray.data import DataContext

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    log_yaml = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ray_data_logging.yaml")
    os.environ["RAY_DATA_LOGGING_CONFIG"] = log_yaml
    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
        runtime_env={"env_vars": {"RAY_DATA_LOGGING_CONFIG": log_yaml}},
    )
    DataContext.get_current().enable_progress_bars = False
    files = _stream()
    cow = _run(files, "cow")
    mor = _run(files, "mor")
    ray.shutdown()
    print(json.dumps({
        "metric": "mor_vs_cow_steady_state",
        "events": N_EVENTS, "live_keys": N_KEYS,
        "epochs": N_EPOCHS, "num_cpus": NUM_CPUS,
        "cow": cow, "mor": mor,
        "write_amp_cow_over_mor": round(
            cow["bytes_written_apply"] / max(mor["bytes_written_apply"], 1), 2
        ),
        "apply_speedup_mor": round(cow["apply_sec"] / mor["apply_sec"], 2),
    }))


if __name__ == "__main__":
    main()
