"""Decode/validate/derive stages for the change-event stream.

The ``map_batches`` re-expression of the reference transform family
(``transformation/common.rs``): per-batch, vectorized, Arrow in / Arrow out.

- :func:`validate_and_derive` — op validation (malformed input aborts the
  batch, mirroring how malformed decode errors abort a block while known
  misses are skipped, ``transformation/common.rs:309-496``), plus derived
  columns ``content_sha256`` (the per-row verification invariant) and
  ``size_bytes`` (checked i64, ``transformation/bq/integer.rs`` analog).
- :func:`reduce_last_per_key` — the pre-shuffle combiner: within a batch only
  the max-LSN event per key can win last-writer-wins, so everything else is
  dropped before the hash shuffle (the partial-aggregation pattern; the
  reference instead ships every duplicate to BigQuery and repairs daily,
  ``daily_qc_airflow/daily_dedupe_mainnet.py:65-81``).

Row-level sha256 is computed with hashlib over a C loop — at scale the cost
is bounded by content bytes (~1 GB/s/core) and it is the mandated invariant.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import OPS
from .keys import key_strings
from .typed import checked_int64


class MalformedEventError(ValueError):
    """A change event failed validation; the batch (range analog) aborts."""


def sha256_column(content: pa.Array | pa.ChunkedArray, digest: bool = False) -> pa.Array:
    """Per-row sha256 of a string column; nulls (deletes) stay null.

    Returns lowercase hex by default; ``digest=True`` returns the raw
    32-byte digests as ``binary`` (the fixed-bytes input shape of
    :func:`sonic_etl_ray.stages.typed.format_fixed_bytes`).

    Zero-copy: hashes memoryview slices of the Arrow data buffer directly
    (Arrow strings are already utf-8) — no per-row Python str materialization
    or re-encode. The C hashing itself is the irreducible cost of the
    per-row verification invariant (~1 GB/s/core).
    """
    if isinstance(content, pa.ChunkedArray):
        content = content.combine_chunks()
    import numpy as np

    n = len(content)
    if n == 0:
        return pa.array([], pa.binary() if digest else pa.string())
    arr = content
    # offset width depends on the string type: string/binary carry int32
    # offsets, large_string/large_binary int64 (>2 GiB data buffers — wide
    # content rows at real scale, or parquet files that restore large_string
    # from ARROW:schema metadata). Anything else is a hard error: silently
    # hashing a mis-decoded buffer would corrupt the per-row invariant.
    if pa.types.is_string(arr.type) or pa.types.is_binary(arr.type):
        off_dtype = np.int32
    elif pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        off_dtype = np.int64
    else:
        raise TypeError(f"sha256_column requires a (large_)string/binary column, got {arr.type}")
    bufs = arr.buffers()
    offsets = np.frombuffer(bufs[1], dtype=off_dtype)[arr.offset : arr.offset + n + 1]
    databuf = memoryview(bufs[2])
    valid = np.full(n, True) if arr.null_count == 0 else np.asarray(arr.is_valid())
    sha256 = hashlib.sha256
    out: list[str | bytes | None] = [None] * n
    if digest:
        for i in range(n):
            if valid[i]:
                out[i] = sha256(databuf[offsets[i] : offsets[i + 1]]).digest()
        return pa.array(out, pa.binary())
    for i in range(n):
        if valid[i]:
            out[i] = sha256(databuf[offsets[i] : offsets[i + 1]]).hexdigest()
    return pa.array(out, pa.string())


ERROR_COLUMN = "__error"


def validate_and_derive(batch: pa.Table, on_error: str = "abort") -> pa.Table:
    """Validate ops + derive ``content_sha256``/``size_bytes``.

    Unknown extra columns (schema evolution) pass through untouched.
    Deletes must carry null content; inserts/updates must carry content.

    ``on_error``: ``"abort"`` raises on any malformed event (the reference's
    abort-the-block path, ``transformation/common.rs:309-496``); ``"route"``
    tags malformed rows in an ``__error`` reason column instead — downstream
    the merge applier diverts them to the lake's per-partition error channel
    (the typed-error-row analog of ``TransformationErr``,
    ``transformation/err.rs:1-31``).
    """
    if batch.num_rows == 0:
        return batch
    op = batch.column("op")
    known_op = pc.fill_null(pc.is_in(op, value_set=pa.array(OPS)), False)
    is_delete = pc.equal(op, "delete")
    content = batch.column("content")
    has_content = pc.is_valid(content)
    bad_delete = pc.and_(pc.fill_null(is_delete, False), has_content)
    bad_upsert = pc.and_(
        pc.and_(known_op, pc.invert(pc.fill_null(is_delete, False))),
        pc.invert(has_content),
    )

    any_bad = (
        not pc.all(known_op).as_py()
        or pc.any(bad_delete).as_py()
        or pc.any(bad_upsert).as_py()
    )
    if any_bad and on_error == "abort":
        if not pc.all(known_op).as_py():
            bad = pc.unique(pc.drop_null(op.filter(pc.invert(known_op))))
            raise MalformedEventError(f"unknown op values: {bad.to_pylist()[:5]}")
        raise MalformedEventError("delete with content or upsert without content")

    batch = batch.append_column("content_sha256", sha256_column(content))
    # binary_length = utf8 byte length; nulls (deletes) propagate
    size = checked_int64(pc.binary_length(content), "size_bytes")
    batch = batch.append_column("size_bytes", size)

    if on_error == "route":
        reason = pc.if_else(
            pc.invert(known_op),
            pa.scalar("unknown_op", pa.string()),
            pc.if_else(
                bad_delete,
                pa.scalar("delete_with_content", pa.string()),
                pc.if_else(
                    bad_upsert,
                    pa.scalar("upsert_without_content", pa.string()),
                    pa.scalar(None, pa.string()),
                ),
            ),
        )
        batch = batch.append_column(ERROR_COLUMN, reason)
    return batch


def reduce_last_per_key(batch: pa.Table) -> pa.Table:
    """Keep only the max-LSN row per (repo, path) within this batch.

    Correct as a combiner for last-writer-wins: f(events) = argmax-lsn per
    key composes across batches and the final merge re-applies it per
    partition. Fully vectorized: stable sort by lsn, then group-max of the
    positional index.

    Rows of OTHER fan-out tables (``__table != 'files'``, e.g. decoded
    events) are per-event records, not per-key state — they pass through
    uncollapsed, exactly like error rows.
    """
    if batch.num_rows == 0:
        return batch
    from .decode import TABLE_COLUMN, TABLE_FILES

    if TABLE_COLUMN in batch.column_names:
        is_files = pc.equal(
            pc.fill_null(batch.column(TABLE_COLUMN), TABLE_FILES), TABLE_FILES
        )
        others = batch.filter(pc.invert(is_files))
        if others.num_rows:
            files = batch.filter(is_files)
            parts = [t for t in (reduce_last_per_key(files), others) if t.num_rows]
            return pa.concat_tables(parts, promote_options="default")
        # tag column present but every row is 'files': plain reduction below
    if ERROR_COLUMN in batch.column_names:
        # error rows are diverted, not applied — they must never win (or
        # lose) a last-writer-wins race against valid rows
        err_mask = pc.is_valid(batch.column(ERROR_COLUMN))
        if pc.any(err_mask).as_py():
            errors = batch.filter(err_mask)
            valid = batch.filter(pc.invert(err_mask))
            if valid.num_rows == 0:
                return errors
            return pa.concat_tables(
                [_reduce_valid(batch=valid), errors], promote_options="default"
            )  # errors gain a null __w → counted as 1 delivery each downstream
        # all-null error column → plain reduction below
    return _reduce_valid(batch)


W_COLUMN = "__w"  # raw-delivery weight: how many input events a row stands for


def _reduce_valid(batch: pa.Table) -> pa.Table:
    if W_COLUMN not in batch.column_names:
        batch = batch.append_column(
            W_COLUMN, pa.array(np.ones(batch.num_rows, dtype=np.int64))
        )
    if batch.num_rows <= 1:
        return batch
    order = pc.sort_indices(batch, sort_keys=[("lsn", "ascending")])
    sorted_tbl = batch.take(order)
    idx = pa.table(
        {
            "k": key_strings(sorted_tbl),
            "i": pa.array(np.arange(sorted_tbl.num_rows, dtype=np.int64)),
            "w": sorted_tbl.column(W_COLUMN),
        }
    )
    agg = idx.group_by("k").aggregate([("i", "max"), ("w", "sum")])
    order2 = pc.sort_indices(agg.column("i_max"))  # keep ascending-lsn order
    winners = agg.column("i_max").take(order2)
    weights = pc.cast(agg.column("w_sum").take(order2), pa.int64())
    out = sorted_tbl.take(winners)
    # winner carries the collapsed group's total raw-delivery count (exact
    # lineage event accounting survives the combiner)
    return out.set_column(out.column_names.index(W_COLUMN), W_COLUMN, weights)


def reduce_distinct_versions(batch: pa.Table) -> pa.Table:
    """History-preserving combiner: collapse only EXACT duplicate deliveries
    of the same version — (repo, path, lsn) — keeping the first occurrence
    and summing raw-delivery weights into ``__w``. Every distinct version
    survives to the merge, so the history sidecar
    (:class:`~sonic_etl_ray.pipelines.ingest.MergeApplier` with
    ``track_history=True``) archives the full per-key version chain; final
    state is unchanged because :func:`reduce_last_per_key` composes over this
    combiner's output. Shuffle volume is O(distinct delivered events) —
    the inherent cost of keeping history, vs O(live keys) for the
    last-writer-wins combiner. Fan-out (non-'files') rows and error rows
    pass through exactly as in :func:`reduce_last_per_key`.
    """
    if batch.num_rows == 0:
        return batch
    from .decode import TABLE_COLUMN, TABLE_FILES

    if TABLE_COLUMN in batch.column_names:
        is_files = pc.equal(
            pc.fill_null(batch.column(TABLE_COLUMN), TABLE_FILES), TABLE_FILES
        )
        others = batch.filter(pc.invert(is_files))
        if others.num_rows:
            files = batch.filter(is_files)
            parts = [t for t in (reduce_distinct_versions(files), others) if t.num_rows]
            return pa.concat_tables(parts, promote_options="default")
    if ERROR_COLUMN in batch.column_names:
        err_mask = pc.is_valid(batch.column(ERROR_COLUMN))
        if pc.any(err_mask).as_py():
            errors = batch.filter(err_mask)
            valid = batch.filter(pc.invert(err_mask))
            if valid.num_rows == 0:
                return errors
            return pa.concat_tables(
                [_distinct_valid(valid), errors], promote_options="default"
            )
    return _distinct_valid(batch)


def _distinct_valid(batch: pa.Table) -> pa.Table:
    if W_COLUMN not in batch.column_names:
        batch = batch.append_column(
            W_COLUMN, pa.array(np.ones(batch.num_rows, dtype=np.int64))
        )
    if batch.num_rows <= 1:
        return batch
    idx = pa.table(
        {
            "k": key_strings(batch, key=("repo", "path", "lsn")),
            "i": pa.array(np.arange(batch.num_rows, dtype=np.int64)),
            "w": batch.column(W_COLUMN),
        }
    )
    agg = idx.group_by("k").aggregate([("i", "min"), ("w", "sum")])
    order = pc.sort_indices(agg.column("i_min"))  # keep input order
    firsts = agg.column("i_min").take(order)
    weights = pc.cast(agg.column("w_sum").take(order), pa.int64())
    out = batch.take(firsts)
    return out.set_column(out.column_names.index(W_COLUMN), W_COLUMN, weights)
