"""Auxiliary sinks: debug JSONL/JSON writers and bucketed Parquet layout.

Re-expressions of the reference's output plugins (``output/``):
- :func:`write_jsonl` — the local JSONL appender used for fixtures and the
  ``JSONL`` feature build (``output/jsonl.rs:73-97``);
- :func:`write_json_fixture` — one JSON file per record name, truncate-
  overwrite (``output/json.rs:45-67``);
- :func:`write_bucketed_parquet` — the GCS time-bucketed sink
  (``output/gcs.rs:57-191``): rows grouped into directories by a bucketing
  column. Unlike the reference, which ASSUMES ascending-timestamp arrival
  when splitting buckets (``gcs.rs:84-96``), bucketing here is an explicit
  partition key — arrival order never matters.

The lake's primary sink (partitioned Parquet + commit log) lives in
``pipelines/ingest.py``; these are the secondary/debug surfaces.
"""

from __future__ import annotations

import json
import os
from typing import Any

import pyarrow as pa
import ray.data


def write_jsonl(ds: ray.data.Dataset, out_dir: str) -> str:
    """Write a dataset as JSONL part files (debug/fixture surface)."""
    os.makedirs(out_dir, exist_ok=True)
    ds.write_json(out_dir)
    return out_dir


def write_json_fixture(records: dict[str, Any], out_dir: str, name: str) -> str:
    """One pretty JSON file per record name, truncate-overwrite."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w") as f:
        json.dump(records, f, indent=2, sort_keys=True, default=str)
    return path


def write_arrow_ipc(table: pa.Table, path: str) -> str:
    """Arrow IPC (Feather v2) writer — the native substitute for the
    reference's optional Avro record encoding (``output/google_pubsub.rs:
    176-184``, ``sonic_config/avro_helpers.rs:1-23``): schema-carrying,
    zero-copy-readable interchange for stage boundaries and fixtures."""
    import pyarrow.feather as feather

    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    feather.write_feather(table, path)
    return path


def read_arrow_ipc(path: str) -> pa.Table:
    import pyarrow.feather as feather

    return feather.read_table(path)


def write_bucketed_parquet(
    ds: ray.data.Dataset,
    out_dir: str,
    bucket_column: str,
    bucket_width: int,
) -> str:
    """Partitioned Parquet keyed on ``floor(bucket_column / width)``.

    The LSN/time-bucketed layout (BQ range partitioning on block_number with
    interval 1e6, ``iac/terraform/bq.tf:30-39``): one directory per bucket so
    consumers prune at the read and failed runs skip finished buckets.
    """
    import pyarrow.compute as pc

    def add_bucket(t: pa.Table) -> pa.Table:
        # exact int64 floor division (a float64 round trip misbuckets keys
        # beyond 2^53): Arrow's integer divide truncates toward zero, so
        # step down where the remainder's sign differs from the width's
        key = pc.cast(t[bucket_column], pa.int64())
        q = pc.divide(key, bucket_width)
        r = pc.subtract(key, pc.multiply(q, bucket_width))
        below = pc.less(r, 0) if bucket_width > 0 else pc.greater(r, 0)
        return t.append_column("bucket", pc.if_else(below, pc.subtract(q, 1), q))

    os.makedirs(out_dir, exist_ok=True)
    ds.map_batches(add_bucket, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    return out_dir
