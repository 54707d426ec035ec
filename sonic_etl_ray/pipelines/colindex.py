"""Secondary value index over a lake column: per-partition distinct-value
zone maps that prune non-key predicate reads.

The lake's primary pruning is the key hash (``lookup_keys`` reads exactly
one partition per key) plus row-group stats on the sorted key columns. A
predicate on a NON-key column (``lang = 'rust'``) normally scans every
partition. This sidecar records, per partition, the distinct values of one
column at the partition's current frontier; a probe then reads ONLY the
partitions whose zone map contains a probed value. The win is proportional
to how localized the value is: a rare value (or a lake re-bucketed on the
column) reads O(1) partitions; a value present everywhere degrades to the
full scan — never worse, never wrong.

Freshness without write-path coupling: the index stores the exact frontier
file list it covered per partition. At probe time a partition whose current
frontier differs (new epochs committed since the build) is treated as STALE
and scanned unconditionally — correctness never depends on rebuild
discipline, only pruning quality does. This is the same "sidecar validated
against the commit log" pattern as the incremental repo-stats view.

Layout (atomic, crash-safe): ``<root>/column=<col>/index-<uuid>.parquet``
(rows: part, value) is written first, then ``MANIFEST.json`` (naming the
parquet + the per-partition coverage lists) is os.replace'd into place —
readers either see the old complete index or the new one. The root defaults
to ``<lake>/_colindex`` but can live anywhere (read-only lakes index into
scratch).

Reference analog: the reference's final tables get this from BigQuery
clustering on ``block_timestamp`` (`iac/terraform/bq.tf:30-39`); here it is
an explicit, commit-log-validated artifact.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from ..config import parquet_write_kwargs
from ..state import commitlog as cl
from .ingest import (
    _files_as_of,
    _lake_parts,
    _live_frontier,
    _resolved_live_block,
    read_lake,
)


def _frontier_files(lake_dir: str, part: int) -> list[str]:
    files = _files_as_of(lake_dir, part, cl.list_part_files(lake_dir, part), None, None)
    return [p for _, _, p, _ in _live_frontier(files)] if files else []


def _index_dir(lake_dir: str, column: str, index_root: str | None) -> str:
    root = index_root if index_root is not None else os.path.join(lake_dir, "_colindex")
    return os.path.join(root, f"column={column}")


@ray.remote(num_cpus=1)
def _part_distinct(lake_dir: str, part: int, column: str) -> pa.Table:
    """Distinct live values of ``column`` in one partition — a per-partition
    Ray task reading only that column (tombstones already dropped). A
    partition whose state files predate an evolved-in column reads it as
    all-null (empty zone map — probes correctly skip it)."""
    try:
        tbl = _resolved_live_block(lake_dir, part, [column], None)
        vals = pc.unique(tbl.column(column)).drop_null()
    except KeyError:  # column evolved in after this partition's frontier
        vals = pa.array([], pa.string())
    return pa.table(
        {
            "part": pa.array([part] * len(vals), pa.int64()),
            "value": vals.cast(pa.string()),
        }
    )


def build_value_index(
    lake_dir: str, column: str, index_root: str | None = None
) -> str:
    """Build (or incrementally refresh) the zone map for ``column``. One
    task per CHANGED partition: partitions whose recorded frontier file
    list still matches reuse their prior index rows without a read — a
    refresh after a steady-state epoch touching k of P partitions costs
    O(k) tasks, so the index can ride every apply cadence. Driver folds
    only (part, distinct-value) rows — bounded by partition count × column
    cardinality, never by row count. Returns the index dir; refresh stats
    land in the manifest (``parts_reused`` / ``parts_rebuilt``)."""
    parts = _lake_parts(lake_dir)
    coverage = {str(p): _frontier_files(lake_dir, p) for p in parts}
    reused: pa.Table | None = None
    reused_parts: set[int] = set()
    d0 = _index_dir(lake_dir, column, index_root)
    try:
        with open(os.path.join(d0, "MANIFEST.json")) as f:
            prior_man = json.load(f)
        prior_idx = pq.read_table(os.path.join(d0, prior_man["file"]))
        reused_parts = {
            p for p in parts if prior_man["coverage"].get(str(p)) == coverage[str(p)]
        }
        if reused_parts:  # ONE pass over the prior index, not one per part
            reused = prior_idx.filter(
                pc.is_in(
                    prior_idx.column("part"),
                    value_set=pa.array(sorted(reused_parts), pa.int64()),
                )
            )
    except (OSError, json.JSONDecodeError, KeyError):
        reused, reused_parts = None, set()
    rebuild = [p for p in parts if p not in reused_parts]
    fresh = ray.get([_part_distinct.remote(lake_dir, p, column) for p in rebuild])
    tables = ([reused] if reused is not None else []) + list(fresh)
    idx = (
        pa.concat_tables(tables)
        if tables
        else pa.table({"part": pa.array([], pa.int64()), "value": pa.array([], pa.string())})
    )
    d = _index_dir(lake_dir, column, index_root)
    os.makedirs(d, exist_ok=True)
    fname = f"index-{uuid.uuid4().hex[:12]}.parquet"
    pq.write_table(idx, os.path.join(d, fname), **parquet_write_kwargs(idx.schema))
    tmp = os.path.join(d, f".manifest.{uuid.uuid4().hex[:8]}")
    with open(tmp, "w") as f:
        json.dump(
            {
                "column": column,
                "file": fname,
                "coverage": coverage,
                "parts_reused": len(reused_parts),
                "parts_rebuilt": len(rebuild),
            },
            f,
        )
    os.replace(tmp, os.path.join(d, "MANIFEST.json"))
    # opportunistic GC of superseded index files, with a grace window: a
    # CONCURRENT builder may have written its parquet but not yet published
    # its manifest — deleting it would leave that manifest pointing at a
    # missing file (probes would then silently full-scan forever). Age
    # gating makes the race harmless: in-flight builds finish in seconds.
    import time

    cutoff = time.time() - 300
    for old in os.listdir(d):
        if old.startswith("index-") and old != fname:
            p_old = os.path.join(d, old)
            try:
                if os.stat(p_old).st_mtime < cutoff:
                    os.unlink(p_old)
            except OSError:
                pass
    return d


def probe_parts(
    lake_dir: str, column: str, values: list[str], index_root: str | None = None
) -> tuple[list[int], list[int]] | None:
    """(partitions to scan, the stale subset of them), or None when no index
    exists. A partition is selected if its FRESH zone map contains any
    probed value, or unconditionally when its frontier moved past the index
    (stale ⇒ scan; the index can prune only what it provably covers)."""
    d = _index_dir(lake_dir, column, index_root)
    mpath = os.path.join(d, "MANIFEST.json")
    try:
        with open(mpath) as f:
            man = json.load(f)
        idx = pq.read_table(os.path.join(d, man["file"]))
    except (OSError, json.JSONDecodeError, KeyError):
        return None  # missing/unreadable/foreign-format index = full scan
    hits: set[int] = set()
    # canonicalize probe values through the SAME Arrow cast the index build
    # used (pc.unique(col).cast(string)) — str(True) is 'True' but Arrow
    # casts a bool to 'true'; mismatched forms would silently prune away
    # real matches on non-string columns
    vset = set(pa.array(list(values)).cast(pa.string()).to_pylist())
    pcol = idx.column("part").to_pylist()
    vcol = idx.column("value").to_pylist()
    for p, v in zip(pcol, vcol):
        if v in vset:
            hits.add(int(p))
    selected, stale = [], []
    for part in _lake_parts(lake_dir):
        cov = man["coverage"].get(str(part))
        if cov != _frontier_files(lake_dir, part):
            selected.append(part)  # frontier moved: must scan
            stale.append(part)
        elif part in hits:
            selected.append(part)
    return selected, stale


def read_lake_by_value(
    lake_dir: str,
    column: str,
    values: list[str],
    columns: list[str] | None = None,
    index_root: str | None = None,
) -> "ray.data.Dataset":
    """``read_lake(filter=column IN values)`` through the zone map: only
    indexed-hit + stale partitions are opened. Without an index this is
    exactly the full filtered scan (same results, no pruning)."""
    flt = pc.field(column).isin(values)
    probed = probe_parts(lake_dir, column, values, index_root)
    if probed is None:
        return read_lake(lake_dir, columns=columns, filter=flt)
    selected, _ = probed
    return read_lake(lake_dir, columns=columns, filter=flt, parts=selected)
