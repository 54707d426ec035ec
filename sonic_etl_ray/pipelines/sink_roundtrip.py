"""Driver-checkable sink/reader roundtrips (K2/K3/S8 promoted to driver rows).

Each query pushes real data through a sink (or planning reader) and returns
a result whose equality with a direct SQL oracle over the source table
proves the surface end to end:

- :func:`bucketed_sink_roundtrip` — ``write_bucketed_parquet`` (the
  time/LSN-bucketed layout, ``iac/terraform/bq.tf:30-39``): the bucket key
  aggregated on readback comes from the hive partition PATH, so equality
  proves the routing, not just the arithmetic;
- :func:`jsonl_roundtrip` — ``write_jsonl`` (``output/logs.rs`` debug
  surface): per-doc sha256 + char length recomputed from the JSON-decoded
  text, so equality proves byte-lossless encode/decode;
- :func:`csv_backfill_ranges` — ``read_lsn_list_csv`` + ``compress_to_ranges``
  (``extractor_transformer/src/main.rs:140-185`` block-list input and the
  gap-run compression of ``daily_backfill_mainnet.py:104-144``): the oracle
  is the SQL gaps-and-islands formulation.

Scratch output goes under a per-call ``mkdtemp`` in /tmp (rerun- and
parallel-safe) and is removed once the result is materialized. The /tmp
scratch is NODE-LOCAL: these roundtrips assume a single-node cluster (the
sandbox). On a multi-node cluster the same pipelines take a shared-storage
scratch dir — the lake's own storage root is the natural choice — since a
file written by a task on one node must be readable by tasks (and the
driver's cleanup) on every other.
"""

from __future__ import annotations

import csv
import os
import shutil
import tempfile

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from sonic_etl_ray.sources.planner import compress_to_ranges, read_lsn_list_csv
from sonic_etl_ray.sources.sinks import write_bucketed_parquet, write_jsonl
from sonic_etl_ray.stages.transform import sha256_column

_BUCKET = 500


def _empty_documents(sf_dir: str) -> pa.Table:
    """Zero-row ``documents`` (doc_id, text) with the source's types. A
    zero-row source writes no file to read back, so the roundtrips build
    their typed empty result from this."""
    schema = pq.read_schema(f"{sf_dir}/documents.parquet")
    return schema.empty_table().select(["doc_id", "text"])


def _doc_sha(t: pa.Table) -> pa.Table:
    return pa.table({"doc_id": t["doc_id"], "sha_hex": sha256_column(t["text"])})


def bucketed_sink_roundtrip(sf_dir: str) -> pd.DataFrame:
    """events → bucketed Parquet (width 500 on event_id) → read back →
    per-bucket count + cents sum, the bucket taken from the partition dir."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    out_dir = tempfile.mkdtemp(prefix="bucketed_sink_", dir="/tmp")
    try:
        write_bucketed_parquet(ds, out_dir, bucket_column="event_id", bucket_width=_BUCKET)

        def agg(t: pa.Table) -> pa.Table:
            # ties away from zero, as SQL ROUND does (Arrow's default is to even)
            cents = pc.cast(
                pc.round(pc.multiply(t["value"], 100.0), round_mode="half_towards_infinity"),
                pa.int64(),
            )
            t2 = pa.table(
                {"bucket": pc.cast(t["bucket"], pa.int64()), "cents": cents}
            )
            part = t2.group_by(["bucket"]).aggregate(
                [("cents", "sum"), ("cents", "count")]
            )
            # select by NAME: group_by output column order is a pyarrow
            # version detail (keys-first on 16.x, aggregates-first earlier)
            return pa.table(
                {
                    "bucket": part["bucket"],
                    "sum_cents": part["cents_sum"],
                    "n_events": part["cents_count"],
                }
            )

        from ray.data.aggregate import Sum

        back = ray.data.read_parquet(out_dir)  # bucket restored from the path
        out = (
            back.map_batches(agg, batch_format="pyarrow")
            .groupby("bucket")
            .aggregate(
                Sum("n_events", alias_name="n_events"),
                Sum("sum_cents", alias_name="sum_cents"),
            )
            .to_pandas()
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    out["bucket"] = out["bucket"].astype("int64")
    return out.sort_values("bucket").reset_index(drop=True)


def jsonl_roundtrip(sf_dir: str) -> pd.DataFrame:
    """documents → JSONL part files → read back → per-doc sha256 hex and
    character length recomputed from the decoded text."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out_dir = tempfile.mkdtemp(prefix="jsonl_sink_", dir="/tmp")
    try:
        write_jsonl(ds, out_dir)

        def fp(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
                    "sha_hex": sha256_column(t["text"]),
                }
            )

        if not os.listdir(out_dir):  # zero rows: no part file to read back
            return fp(_empty_documents(sf_dir)).to_pandas()
        out = (
            ray.data.read_json(out_dir)
            .map_batches(fp, batch_format="pyarrow")
            .to_pandas()
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return out.sort_values("doc_id").reset_index(drop=True)


def ipc_export_roundtrip(sf_dir: str) -> pd.DataFrame:
    """documents → one Arrow IPC (Feather v2) file per batch (K6, the
    schema-carrying Avro-option analog, ``sonic_config/avro_helpers.rs``) →
    read back → per-doc sha256. Shard-parallel: each batch writes its own
    file inside ``map_batches`` — the driver never materializes the table."""
    from sonic_etl_ray.sources.sinks import read_arrow_ipc, write_arrow_ipc

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out_dir = tempfile.mkdtemp(prefix="ipc_export_", dir="/tmp")
    try:
        def dump(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:  # empty blocks write nothing
                return pa.table({"path": pa.array([], pa.string())})
            # first doc_id names the shard — batches never share ids
            name = f"shard_{t['doc_id'][0].as_py()}.arrow"
            write_arrow_ipc(t, os.path.join(out_dir, name))
            return pa.table({"path": pa.array([os.path.join(out_dir, name)], pa.string())})

        paths = [
            r["path"] for r in ds.map_batches(dump, batch_format="pyarrow").take_all()
        ]

        def fp(batch: pa.Table) -> pa.Table:
            return _doc_sha(read_arrow_ipc(batch["path"][0].as_py()))

        if not paths:  # zero rows: no shard to read back
            return _doc_sha(_empty_documents(sf_dir)).to_pandas()
        out = (
            ray.data.from_items([{"path": p} for p in paths])
            .map_batches(fp, batch_format="pyarrow", batch_size=1)
            .to_pandas()
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return out.sort_values("doc_id").reset_index(drop=True)


def checked_timestamp_roundtrip(sf_dir: str) -> pd.DataFrame:
    """events.ts → unix seconds (checked i64 narrowing) → checked
    timestamp[s] (M12, ``transformation/bq/timestamp.rs:23-29``) — the
    second-grain roundtrip the reference applies to block timestamps."""
    from sonic_etl_ray.stages.typed import checked_int64, checked_timestamp_s

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])

    def conv(t: pa.Table) -> pa.Table:
        import numpy as np

        # FLOOR division (np.floor_divide), not Arrow's truncating int64
        # divide: a pre-epoch ts (negative µs) must floor to the earlier
        # second exactly like the oracle's date_trunc('second')
        us = pc.cast(t["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        secs = checked_int64(pa.array(np.floor_divide(us, 1_000_000)), "ts_s")
        return pa.table({"event_id": t["event_id"], "ts_s": checked_timestamp_s(secs)})

    out = ds.map_batches(conv, batch_format="pyarrow").to_pandas()
    # realize at the oracle's microsecond grain (value unchanged)
    out["ts_s"] = out["ts_s"].astype("datetime64[us]")
    return out.sort_values("event_id").reset_index(drop=True)


def csv_backfill_ranges(sf_dir: str) -> pd.DataFrame:
    """The backfill planning input end to end: purchase-event LSNs written
    as a one-column CSV (with header), read back through the sniffing CSV
    reader, gap-run compressed to inclusive ranges. The LSN list is a
    driver-side planning input by design (the reference feeds the same list
    to a single coordinator process)."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "event_type"])

    def purchases(t: pa.Table) -> pa.Table:
        keep = pc.equal(t["event_type"], "purchase")
        return t.filter(keep).select(["event_id"])

    ids = [
        r["event_id"]
        for r in ds.map_batches(purchases, batch_format="pyarrow").take_all()
    ]
    fd, path = tempfile.mkstemp(prefix="backfill_", suffix=".csv", dir="/tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["lsn"])  # header exercises the sniffing path
            w.writerows([x] for x in ids)
        ranges = compress_to_ranges(read_lsn_list_csv(path))
    finally:
        os.unlink(path)
    return pd.DataFrame(
        {
            "start_lsn": pd.array([a for a, _ in ranges], dtype="int64"),
            "end_lsn": pd.array([b for _, b in ranges], dtype="int64"),
        }
    )
