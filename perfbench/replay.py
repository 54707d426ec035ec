"""Single-process, Ray-free replay of a workload's epochs with layer spans.

The replay follows the engine's per-epoch path one step at a time, calling
the same public (and module-level) functions Ray runs in its workers:

    pq.read_table(segment) -> validate_and_derive -> reduce_last_per_key
      -> add_partition_column -> _split_block_for_exchange -> gather
      -> MergeApplier(...).apply_unit -> commitlog.write_manifest

The merge sub-layers are timed by temporarily replacing the names
``apply_unit`` looks up on its own module (``resolve_partition_state``,
``reduce_last_per_key``, ``_write_stats_sidecar``, ``pq.write_table``,
``cl.write_commit``) with timing wrappers, so no engine file is edited.
Each span records name, start, end, parent span and the epoch id; self
time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Callable

import pyarrow as pa
import pyarrow.parquet as pq

import sonic_etl_ray.pipelines.ingest as ing
from sonic_etl_ray.stages.keys import add_partition_column
from sonic_etl_ray.stages.transform import reduce_last_per_key, validate_and_derive
from sonic_etl_ray.state import commitlog as cl

EPOCH_SPAN = "replay.epoch"


class Tracer:
    """In-memory span recorder. A disabled tracer records nothing, so the
    same replay code gives the untraced baseline for the overhead figure."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list[Any]] = []  # [name, start, end, parent, trace_id]
        self._stack: list[int] = []
        self.trace_id: int | None = None
        self.counts: dict[str, float] = {}

    def count(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.trace_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name: str, fn: Callable, skip_under: str | None = None) -> Callable:
        def wrapped(*args, **kwargs):
            if skip_under is not None and self.parent_name() == skip_under:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapped

    def self_times(self) -> dict[str, float]:
        """Σ self time per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
        return out

    def records(self) -> list[dict[str, Any]]:
        return [
            {"name": n, "start": t0, "end": t1, "parent": p, "trace_id": tid}
            for n, t0, t1, p, tid in self.spans
        ]


class _ModuleProxy:
    """Stands in for a module on ``ingest``'s namespace: the named
    attributes are overridden, every other lookup goes to the module."""

    def __init__(self, module: Any, **overrides: Callable):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


@contextmanager
def merge_layer_wrappers(tracer: Tracer):
    """Time the merge sub-layers by swapping the names apply_unit looks up
    on its module; the originals are restored on exit."""
    names = ("resolve_partition_state", "reduce_last_per_key", "_write_stats_sidecar", "pq", "cl")
    saved = {n: getattr(ing, n) for n in names}
    if tracer.enabled:

        def write_table(table, where, *args, **kwargs):
            saved["pq"].write_table(table, where, *args, **kwargs)
            tracer.count("merge.bytes_written", os.path.getsize(where))
            if tracer.parent_name() != "merge.sidecar":
                tracer.count("merge.rows_written", table.num_rows)

        def write_commit(lake_dir, record):
            saved["cl"].write_commit(lake_dir, record)
            tracer.count("commitlog.files_written", 1)

        ing.resolve_partition_state = tracer.wrap("merge.prior_read", saved["resolve_partition_state"])
        ing.reduce_last_per_key = tracer.wrap("merge.lww_reduce", saved["reduce_last_per_key"])
        ing._write_stats_sidecar = tracer.wrap("merge.sidecar", saved["_write_stats_sidecar"])
        # the sidecar writes through the same pq name: its write stays part
        # of merge.sidecar instead of being counted as a state-file write
        ing.pq = _ModuleProxy(
            saved["pq"],
            write_table=tracer.wrap("merge.parquet_write", write_table, skip_under="merge.sidecar"),
        )
        ing.cl = _ModuleProxy(saved["cl"], write_commit=tracer.wrap("commitlog.commit", write_commit))
    try:
        yield
    finally:
        for n, v in saved.items():
            setattr(ing, n, v)


def replay_epochs(
    lake: str,
    epochs: list[tuple[int, list[str]]],
    num_partitions: int,
    batch_size: int,
    tracer: Tracer,
) -> dict[str, Any]:
    """Apply ``epochs`` ([(epoch id, segment files)], in order) to ``lake``
    in this process. Returns wall time, event count and row counters."""
    part_rows = [0] * num_partitions
    n_events = combine_in = combine_out = 0
    t_start = time.perf_counter()
    with merge_layer_wrappers(tracer):
        for epoch, efiles in epochs:
            tracer.trace_id = epoch
            with tracer.span(EPOCH_SPAN):
                os.makedirs(lake, exist_ok=True)
                ing._backfill_evolution_marker(lake)
                with tracer.span("ingest.read"):
                    segs = [pq.read_table(f) for f in efiles]
                    events = pa.concat_tables(segs, promote_options="default")
                n_events += events.num_rows
                # Ray Data hands map_batches batches of up to batch_size rows
                slices_by_block = []
                for lo in range(0, events.num_rows, batch_size):
                    block = events.slice(lo, batch_size)
                    with tracer.span("transform.validate"):
                        block = validate_and_derive(block)
                    combine_in += block.num_rows
                    with tracer.span("transform.combine"):
                        block = reduce_last_per_key(block)
                    combine_out += block.num_rows
                    with tracer.span("keys.partition"):
                        block = add_partition_column(block, num_partitions=num_partitions)
                    with tracer.span("ingest.split"):
                        slices_by_block.append(ing._split_block_for_exchange(block, num_partitions))
                desc = {"segments": [os.path.basename(f) for f in efiles]}
                applier = ing.MergeApplier(lake, epoch, desc)
                records = []
                for part in range(num_partitions):
                    with tracer.span("ingest.gather"):
                        live = [s[part] for s in slices_by_block if s[part].num_rows]
                        if not live:
                            continue
                        group = pa.concat_tables(live, promote_options="default").combine_chunks()
                    part_rows[part] += group.num_rows
                    with tracer.span("merge.apply_unit"):
                        rec, _, _ = applier.apply_unit(part, epoch, group, mem=None)
                    records.append(rec)
                summary = {
                    "epoch": epoch,
                    "parts": sorted(int(r["part"]) for r in records),
                    "applied_lsn_max": max((int(r["applied_lsn"]) for r in records), default=-1),
                    "n_events": sum(int(r["n_events"]) for r in records),
                    "n_errors": sum(int(r.get("n_errors", 0)) for r in records),
                    "n_rows": sum(max(int(r["n_rows"]), 0) for r in records),
                    "input": desc,
                    "num_partitions": num_partitions,
                }
                with tracer.span("commitlog.manifest"):
                    cl.write_manifest(
                        lake, epoch, summary, frontier_updates=ing._frontier_updates(records)
                    )
                tracer.count("commitlog.files_written", 1)
    mean_rows = sum(part_rows) / num_partitions
    return {
        "wall_s": time.perf_counter() - t_start,
        "n_events": n_events,
        "combine_in": combine_in,
        "combine_out": combine_out,
        "partition_skew": (max(part_rows) / mean_rows) if mean_rows else 1.0,
    }


def layer_metrics(tracer: Tracer, stats: dict[str, Any]) -> dict[str, float]:
    """Per-layer figures of one traced replay (seconds are Σ self time)."""
    st = tracer.self_times()
    names = {
        "ingest.read_s": "ingest.read",
        "transform.validate_s": "transform.validate",
        "transform.combine_s": "transform.combine",
        "keys.partition_s": "keys.partition",
        "ingest.split_s": "ingest.split",
        "ingest.gather_s": "ingest.gather",
        "merge.self_s": "merge.apply_unit",
        "merge.prior_read_s": "merge.prior_read",
        "merge.lww_reduce_s": "merge.lww_reduce",
        "merge.parquet_write_s": "merge.parquet_write",
        "merge.sidecar_s": "merge.sidecar",
        "commitlog.commit_s": "commitlog.commit",
        "commitlog.manifest_s": "commitlog.manifest",
    }
    out = {metric: st.get(span, 0.0) for metric, span in names.items()}
    out["transform.combine_rows_out_per_in"] = stats["combine_out"] / max(stats["combine_in"], 1)
    out["keys.partition_skew"] = stats["partition_skew"]
    out["merge.rows_written_per_event"] = tracer.counts.get("merge.rows_written", 0) / max(stats["n_events"], 1)
    out["merge.bytes_written"] = tracer.counts.get("merge.bytes_written", 0)
    out["commitlog.files_written"] = tracer.counts.get("commitlog.files_written", 0)
    out["replay.wall_s"] = stats["wall_s"]
    out["replay.self_sum_s"] = sum(v for k, v in st.items() if k != EPOCH_SPAN)
    return out
