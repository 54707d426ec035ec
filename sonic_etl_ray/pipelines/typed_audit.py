"""Driver-checkable pipelines over the typed-cast and planner layers.

Exposes the type-discipline kernels (``stages/typed.py`` — the analog of the
reference's ``transformation/bq/{integer,numeric,bignumeric}.rs`` and
``cap_bignumeric``/``format_fixed_bytes`` in ``transformation/common.rs``)
and the LSN-range planner (``sources/planner.py``, the
``indexing_coordinator/publish_ranges.py:122-146`` analog) as
oracle-verifiable queries, so the M7/M9/M10 and S1/O5 surfaces carry driver
rows instead of pytest-only verification.

All per-batch kernels are vectorized pyarrow.compute; the only Python loop
is the sha256 C-loop shared with the ingest invariant
(``stages/transform.py::sha256_column``).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from sonic_etl_ray.sources.planner import chunk_range
from sonic_etl_ray.stages.transform import sha256_column
from sonic_etl_ray.stages.typed import cap_bignumeric, checked_int64, format_fixed_bytes

# 0, 3, 6, …, 39 trailing zeros — lengths straddle both the NUMERIC bound
# (28 digits) and the BIGNUMERIC cap (38 nines) for realistic cents values.
_ZEROS = pa.array(["0" * (3 * k) for k in range(14)], pa.string())


def _audit_batch(t: pa.Table) -> pa.Table:
    # checked i64 narrowing of the float cents (M10): errors on overflow,
    # never clamps — mirrors transformation/bq/integer.rs:64-152. Ties round
    # away from zero, as SQL ROUND does (Arrow's default rounds to even).
    cents = checked_int64(
        pc.round(pc.multiply(t["o_totalprice"], 100.0), round_mode="half_towards_infinity"),
        "cents",
    )
    digits = pc.cast(cents, pa.string())
    k = t["o_orderkey"]
    # pyarrow has no modulo kernel; int64 divide truncates, keys are ≥ 0
    mod = pc.cast(pc.subtract(k, pc.multiply(pc.divide(k, 14), 14)), pa.int32())
    s = pc.binary_join_element_wise(digits, pc.take(_ZEROS, mod), "")
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    # BIGNUMERIC saturation with the lossless dual (M9,
    # transformation/common.rs:149-160,679-687)
    capped, lossless = cap_bignumeric(s)
    # NUMERIC bound classification (M11's predicate, non-aborting form):
    # a non-negative decimal string is ≤ 10^28-1 iff it has ≤ 28 digits
    numeric_ok = pc.cast(pc.less_equal(pc.utf8_length(s), 28), pa.int64())
    return pa.table(
        {
            "o_orderkey": t["o_orderkey"],
            "cents": cents,
            "capped": capped,
            "lossless": lossless,
            "numeric_ok": numeric_ok,
        }
    )


def typed_narrowing_audit(sf_dir: str) -> pd.DataFrame:
    """Type-discipline audit over decimal-as-string values derived from
    ``orders``: per order a decimal string (cents × 10^(3·(o_orderkey%14)))
    whose lengths straddle the NUMERIC bound (28 digits) and the BIGNUMERIC
    cap (38 nines); returns the capped/lossless dual, the checked-narrowed
    cents, and the NUMERIC in-range flag."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    out = ds.map_batches(_audit_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("o_orderkey").reset_index(drop=True)


def _sha_batch(t: pa.Table) -> pa.Table:
    digests = sha256_column(t["text"], digest=True)
    return pa.table({"doc_id": t["doc_id"], "sha_hex": format_fixed_bytes(digests)})


def content_sha_hex(sf_dir: str) -> pd.DataFrame:
    """Per-document content sha256 rendered through ``format_fixed_bytes``
    (M7: binary → ``0x…`` lowercase hex, ``transformation/common.rs:25-28``)
    — the per-row verification invariant of the CDC lake, exposed as a
    standalone driver-checkable query."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    out = ds.map_batches(_sha_batch, batch_format="pyarrow").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def range_chunk_plan(sf_dir: str, chunk: int = 250) -> pd.DataFrame:
    """The coordinator's work plan (S1/O5): the observed inclusive LSN span
    of ``events`` split into fixed-size inclusive chunks via
    :func:`chunk_range`. The min/max scan is distributed; the plan itself is
    O(n_chunks) driver-side — planning is inherently the coordinator's job
    (the reference publishes ranges from a single process too,
    ``indexing_coordinator/publish_ranges.py:122-146``)."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"])
    from ray.data.aggregate import Max, Min

    stats = ds.aggregate(Min("event_id"), Max("event_id"))
    reqs = chunk_range(stats["min(event_id)"], stats["max(event_id)"], chunk=chunk)
    return pd.DataFrame(
        {
            "task_id": pd.array(range(len(reqs)), dtype="int64"),
            "start_lsn": pd.array([r.start for r in reqs], dtype="int64"),
            "end_lsn": pd.array([r.end for r in reqs], dtype="int64"),
        }
    )
