"""Correctness-gate CDC queries: the real engine vs a DuckDB oracle.

The driver's `events` table is treated as a CDC change log — the exact shape
of the reference's block stream (dense monotone ``event_id`` = LSN,
``sonic_config/mod.rs:264``). A deterministic, SQL-expressible projection
turns each event into a repo-file change event (BASELINE.json input shape),
and the FULL engine (typed transforms → hash-partitioned exchange →
per-partition merge tasks → commit log) applies it into a scratch lake.
The matching ``oracle_sql()`` entries replay the same projection in pure SQL
(window functions), so the driver's side-by-side compare checks the engine's
exactly-once upsert semantics end-to-end, including per-row sha256.

Projection (mirrored verbatim in SQL):
    lsn    = event_id
    op     = 'delete' if value < 20 else 'insert'
    repo   = 'r' || (user_id % 5)
    path   = 'u' || user_id || '/' || event_type
    commit = sha256(event_id as string)
    lang   = event_type
    content= props                      (NULL for deletes)
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..pipelines.ingest import apply_epoch, lake_final_table, scratch_lake_dir
from ..pipelines.qc import detect_gaps

FINAL_COLUMNS = ["repo", "path", "commit", "lang", "content", "content_sha256", "size_bytes", "applied_lsn"]


def _to_change_events(t: pa.Table) -> pa.Table:
    import numpy as np

    is_del = pc.less(t["value"], 20.0)
    user_mod5 = pa.array(np.asarray(t["user_id"]) % 5)
    repo = pc.binary_join_element_wise("r", pc.cast(user_mod5, pa.string()), "")
    path = pc.binary_join_element_wise(
        "u", pc.cast(t["user_id"], pa.string()), "/", t["event_type"], ""
    )
    commit = pa.array(
        [hashlib.sha256(str(e).encode()).hexdigest() for e in t["event_id"].to_pylist()],
        pa.string(),
    )
    content = pc.if_else(is_del, pa.scalar(None, pa.string()), t["props"])
    op = pc.if_else(is_del, "delete", "insert")
    return pa.table(
        {
            "lsn": pc.cast(t["event_id"], pa.int64()),
            "op": op,
            "repo": repo,
            "path": path,
            "commit": commit,
            "lang": t["event_type"],
            "content": content,
        }
    )


def _events_as_cdc(sf_dir: str, duplicate: bool = False) -> ray.data.Dataset:
    ds = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value", "props"],
    )
    if duplicate:  # at-least-once: the whole stream delivered twice
        ds = ds.union(
            ray.data.read_parquet(
                f"{sf_dir}/events.parquet",
                columns=["event_id", "user_id", "event_type", "value", "props"],
            )
        )
    return ds.map_batches(_to_change_events, batch_format="pyarrow")


_VANILLA_LAKE_CACHE: dict[str, tuple] = {}


def _memo_scratch_lake(cache: dict, sf_dir: str, tag: str, build_fn) -> tuple:
    """The one memoized-scratch-lake discipline every cached gate lake
    shares: stamp = events file mtime_ns+size, evict on stale stamp or a
    vanished dir, build once via ``build_fn(lake_dir) -> extra tuple``,
    cache ``(stamp, lake, *extra)``. Returns ``(lake, *extra)``."""
    import os
    import shutil

    st = os.stat(os.path.join(sf_dir, "events.parquet"))
    stamp = (st.st_mtime_ns, st.st_size)
    hit = cache.get(sf_dir)
    if hit is not None and hit[0] == stamp and os.path.isdir(hit[1]):
        return hit[1:]
    if hit is not None:
        shutil.rmtree(hit[1], ignore_errors=True)
    lake = scratch_lake_dir(tag)
    extra = tuple(build_fn(lake) or ())
    cache[sf_dir] = (stamp, lake) + extra
    return (lake,) + extra


def _vanilla_lake(sf_dir: str) -> str:
    """The single-epoch P=8 full replay that every READ-ONLY gate query
    shares — built once per input (keyed on the events file's mtime+size,
    same staleness discipline as ``_DML_LAKE_CACHE``), so the gate pays one
    apply instead of one per query. Contract: callers must never apply
    further epochs or admin ops to this lake; a query that mutates builds
    its own scratch lake."""

    def build(lake: str) -> tuple:
        apply_epoch(_events_as_cdc(sf_dir), lake, epoch=0, num_partitions=8)
        return ()

    return _memo_scratch_lake(_VANILLA_LAKE_CACHE, sf_dir, "cdcvan", build)[0]


def _run_engine(sf_dir: str, duplicate: bool = False) -> pa.Table:
    if not duplicate:
        return lake_final_table(_vanilla_lake(sf_dir))
    lake = scratch_lake_dir("cdcq")
    apply_epoch(_events_as_cdc(sf_dir, duplicate), lake, epoch=0, num_partitions=8)
    return lake_final_table(lake)


def cdc_apply_upserts(sf_dir: str) -> pa.Table:
    """Engine replay of the event log → final upserted table state."""
    return _run_engine(sf_dir).select(FINAL_COLUMNS)


def cdc_apply_dup_replay(sf_dir: str) -> pa.Table:
    """Same stream delivered twice (at-least-once) — must equal single
    delivery (the inline analog of the reference's daily MERGE repair)."""
    return _run_engine(sf_dir, duplicate=True).select(FINAL_COLUMNS)


def cdc_export_snapshot(sf_dir: str) -> pa.Table:
    """Publish-then-read-back: apply the stream, export the consumer-facing
    snapshot (per-partition Ray tasks + atomic manifest,
    :func:`~sonic_etl_ray.pipelines.ingest.export_snapshot`), and return the
    snapshot as read through the manifest — must equal the LWW oracle."""
    from ..pipelines.ingest import export_snapshot, read_snapshot

    lake = _vanilla_lake(sf_dir)  # shared read-only replay
    out_dir = scratch_lake_dir("cdcexp_out")
    export_snapshot(lake, out_dir)
    tbl = pa.concat_tables(
        [ray.get(r) for r in read_snapshot(out_dir).to_arrow_refs()]
    )
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("repo", "ascending"), ("path", "ascending")]))
    return tbl.select(FINAL_COLUMNS)


def cdc_range_scan(sf_dir: str) -> pd.DataFrame:
    """Predicate-pushdown lake scan: live rows for a repo RANGE read through
    ``read_lake(filter=...)`` — the pyarrow expression pushes into the
    Parquet scan (state files are (repo, path)-sorted, so row-group stats
    prune within files; tombstones filter at the same level). Returns the
    per-repo count/bytes aggregate over the pruned read only."""
    lake = _vanilla_lake(sf_dir)  # shared read-only replay
    from ..pipelines.ingest import read_lake

    flt = (pc.field("repo") >= "r1") & (pc.field("repo") < "r4")
    ds = read_lake(lake, columns=["repo", "size_bytes"], filter=flt)

    def partial(t: pa.Table) -> pa.Table:
        out = t.group_by("repo").aggregate([("size_bytes", "sum"), ("repo", "count")])
        return out.rename_columns(["repo", "total_bytes", "n_files"])

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("repo")
        .aggregate(
            Sum("total_bytes", alias_name="total_bytes"),
            Sum("n_files", alias_name="n_files"),
        )
        .to_pandas()
    )
    out["total_bytes"] = out["total_bytes"].astype("int64")
    out["n_files"] = out["n_files"].astype("int64")
    return out.sort_values("repo").reset_index(drop=True)


def cdc_repair_replica(sf_dir: str) -> pa.Table:
    """Anti-entropy repair end-to-end: a replica that (a) only consumed the
    first half of the stream and (b) holds an extra key the source never
    had, repaired against the full source via
    :func:`~sonic_etl_ray.pipelines.dml.repair_replica` — the repaired
    CONTENT must equal the source's LWW state (oracle: ORACLE_SRC final,
    minus applied_lsn: repair converges content, not LSN watermarks)."""
    import pyarrow.parquet as pq_

    from .dml import repair_replica

    src_lake = _vanilla_lake(sf_dir)  # shared read-only replay
    replica = scratch_lake_dir("repair")
    n = pq_.read_metadata(f"{sf_dir}/events.parquet").num_rows
    half = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value", "props"],
        filter=pc.field("event_id") < n // 2,
    ).map_batches(_to_change_events, batch_format="pyarrow")
    apply_epoch(half, replica, epoch=0, num_partitions=8)
    extra = pa.table(
        {
            "op": pa.array(["insert"], pa.string()),
            "lsn": pa.array([10**9], pa.int64()),
            "repo": pa.array(["zz"], pa.string()),
            "path": pa.array(["only-in-replica.txt"], pa.string()),
            "commit": pa.array(["x"], pa.string()),
            "lang": pa.array(["none"], pa.string()),
            "content": pa.array(["drift"], pa.string()),
        }
    )
    apply_epoch(ray.data.from_arrow(extra), replica, epoch=1, num_partitions=8)
    repair_replica(replica, src_lake)
    cols = [c for c in FINAL_COLUMNS if c != "applied_lsn"]
    return lake_final_table(replica).select(cols)


def cdc_clone_branch(sf_dir: str) -> pa.Table:
    """Branch-and-diverge: zero-copy clone of the replay lake (hardlinked
    immutable artifacts, :func:`~sonic_etl_ray.pipelines.ingest.clone_lake`),
    then a bulk DELETE on the BRANCH only. Returns the branch's final state
    (oracle: LWW final minus the predicate's rows, applied_lsn intact —
    survivors are byte-identical); the source staying untouched is pinned
    in pytest."""
    from .dml import delete_where
    from ..pipelines.ingest import clone_lake

    src_lake = _vanilla_lake(sf_dir)  # shared read-only replay
    branch = scratch_lake_dir("branch")
    clone_lake(src_lake, branch)
    delete_where(branch, pc.field("lang") == "view")
    return lake_final_table(branch).select(FINAL_COLUMNS)


def cdc_indexed_value_scan(sf_dir: str) -> pd.DataFrame:
    """Non-key predicate scan through the secondary value index
    (:mod:`.colindex`): build the per-partition distinct-``lang`` zone map,
    then read ``lang = 'purchase'`` opening ONLY indexed-hit partitions —
    results must equal the unpruned filtered scan (the oracle's WHERE).
    The index sidecar lives OUTSIDE the shared read-only replay lake."""
    from .colindex import build_value_index, read_lake_by_value

    lake = _vanilla_lake(sf_dir)  # shared read-only replay
    root = lake + "_colindex"  # sidecar outside the lake dir (contract)
    build_value_index(lake, "lang", index_root=root)
    ds = read_lake_by_value(
        lake, "lang", ["purchase"], columns=["repo", "size_bytes"], index_root=root
    )

    def partial(t: pa.Table) -> pa.Table:
        out = t.group_by("repo").aggregate([("size_bytes", "sum"), ("repo", "count")])
        return out.rename_columns(["repo", "total_bytes", "n_files"])

    from ray.data.aggregate import Sum

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("repo")
        .aggregate(
            Sum("total_bytes", alias_name="total_bytes"),
            Sum("n_files", alias_name="n_files"),
        )
        .to_pandas()
    )
    if out.empty and "repo" not in out.columns:
        # zero index hits: empty Ray blocks drop the schema
        out = pd.DataFrame(
            {
                "repo": pd.Series(dtype="object"),
                "total_bytes": pd.Series(dtype="int64"),
                "n_files": pd.Series(dtype="int64"),
            }
        )
    out["total_bytes"] = out["total_bytes"].astype("int64")
    out["n_files"] = out["n_files"].astype("int64")
    return out.sort_values("repo").reset_index(drop=True)


def cdc_incremental_repo_stats(sf_dir: str) -> pd.DataFrame:
    """The incrementally-maintained per-repo aggregate view: read from the
    merge-time sidecars only (no lake rescan) — must equal the recomputed
    aggregate, which is exactly what the SQL oracle computes."""
    from ..pipelines.ingest import repo_stats_view

    lake = _vanilla_lake(sf_dir)  # shared read-only replay
    return repo_stats_view(lake).to_pandas()


def cdc_row_counts(sf_dir: str) -> pd.DataFrame:
    """QC row-count invariant per repo (``row_counts.py:85-102`` analog)."""
    t = _run_engine(sf_dir)
    df = t.to_pandas()
    out = df.groupby("repo", as_index=False).agg(
        n_files=("path", "count"), total_bytes=("size_bytes", "sum")
    )
    out["total_bytes"] = out["total_bytes"].astype("int64")
    return out.sort_values("repo").reset_index(drop=True)


def cdc_watermark_by_repo(sf_dir: str) -> pd.DataFrame:
    """Max applied LSN per repo — the watermark readback."""
    t = _run_engine(sf_dir)
    df = t.to_pandas()
    return (
        df.groupby("repo", as_index=False)
        .agg(watermark=("applied_lsn", "max"))
        .sort_values("repo")
        .reset_index(drop=True)
    )


EVOLVE_AT = 500  # events with lsn >= this carry the added column


def cdc_schema_evolution(sf_dir: str) -> pa.Table:
    """Column-add evolution through the REAL sink: early segments lack the
    ``size_hint`` column entirely (not just nulls), later segments carry it;
    the merge unifies schemas and the final table exposes it nullable.
    Oracle: CASE WHEN lsn >= T THEN strlen(content) END."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from ..pipelines.ingest import run_ingest

    # materialize the derived stream as two real segment files with
    # DIFFERENT schemas (the reference's reserved-field add-column pattern)
    events = _events_as_cdc(sf_dir).take_all()
    tbl = pa.Table.from_pylist(events)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("lsn", "ascending")]))
    hint = pc.if_else(
        pc.is_valid(tbl["content"]),
        pc.cast(pc.binary_length(tbl["content"]), pa.int64()),
        pa.scalar(None, pa.int64()),
    )
    tbl = tbl.append_column("size_hint", hint)
    early = tbl.filter(pc.less(tbl["lsn"], EVOLVE_AT)).drop_columns(["size_hint"])
    late = tbl.filter(pc.greater_equal(tbl["lsn"], EVOLVE_AT))

    seg_dir = tempfile.mkdtemp(prefix="sonic_etl_ray_evq_")
    pq.write_table(early, os.path.join(seg_dir, "segment_000000.parquet"))
    pq.write_table(late, os.path.join(seg_dir, "segment_000001.parquet"))
    lake = scratch_lake_dir("cdcev")
    run_ingest(
        [os.path.join(seg_dir, f) for f in sorted(os.listdir(seg_dir))],
        lake,
        num_partitions=8,
        segments_per_epoch=1,
    )
    final = lake_final_table(lake)
    if "size_hint" not in final.column_names:
        # degenerate stream: every lsn < EVOLVE_AT, so the evolved segment
        # had zero rows and the sink never saw the column — the oracle's
        # CASE is all-null there too, so an all-null column is exact
        final = final.append_column("size_hint", pa.nulls(final.num_rows, pa.int64()))
    return final.select(FINAL_COLUMNS + ["size_hint"])


class BlocklistFilter:
    """Broadcast anti-join: the blocklist is ``ray.put`` once and fetched per
    actor in ``__init__`` (the guide's semi/anti-join pattern — never a
    shuffle, never re-shipped per batch)."""

    def __init__(self, blocklist_ref):
        import ray

        self.blocked = ray.get(blocklist_ref)

    def __call__(self, t: pa.Table) -> pa.Table:
        mask = pc.invert(
            pc.is_in(t["repo"], value_set=pa.array(sorted(self.blocked)))
        )
        return t.filter(mask)


BLOCKED_REPOS = frozenset({"r0", "r3"})


def cdc_apply_blocklisted(sf_dir: str) -> pa.Table:
    """Engine replay with a broadcast repo blocklist filtered mid-stream."""
    import ray

    ref = ray.put(BLOCKED_REPOS)
    ds = _events_as_cdc(sf_dir).map_batches(
        BlocklistFilter(ref), batch_format="pyarrow"
    )
    lake = scratch_lake_dir("cdcbl")
    apply_epoch(ds, lake, epoch=0, num_partitions=8)
    return lake_final_table(lake).select(FINAL_COLUMNS)


def cdc_nested_evolution(sf_dir: str) -> pd.DataFrame:
    """Nested-type evolution through the REAL sink: early segments lack the
    ``attrs`` column (a ``list<struct<k,n>>`` — the reference's REPEATED
    RECORD shape, ``schemas/bq/traces.json``), later segments carry it with
    one element {k: lang, n: size}; the merge unifies the nested schema and
    the final state exposes it. The query projects SQL-checkable scalars
    FROM the nested values (length + first struct fields), proving the
    nested payload itself survived evolution + merge byte-correct."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from ..pipelines.ingest import run_ingest

    events = _events_as_cdc(sf_dir).take_all()
    tbl = pa.Table.from_pylist(events)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("lsn", "ascending")]))
    attrs_type = pa.list_(pa.struct([("k", pa.string()), ("n", pa.int64())]))
    attrs = pa.array(
        [
            [{"k": lang, "n": len(content)}] if content is not None else None
            for lang, content in zip(tbl["lang"].to_pylist(), tbl["content"].to_pylist())
        ],
        attrs_type,
    )
    tbl = tbl.append_column("attrs", attrs)
    early = tbl.filter(pc.less(tbl["lsn"], EVOLVE_AT)).drop_columns(["attrs"])
    late = tbl.filter(pc.greater_equal(tbl["lsn"], EVOLVE_AT))

    seg_dir = tempfile.mkdtemp(prefix="sonic_etl_ray_nested_")
    pq.write_table(early, os.path.join(seg_dir, "segment_000000.parquet"))
    pq.write_table(late, os.path.join(seg_dir, "segment_000001.parquet"))
    lake = scratch_lake_dir("cdcnested")
    run_ingest(
        [os.path.join(seg_dir, f) for f in sorted(os.listdir(seg_dir))],
        lake,
        num_partitions=8,
        segments_per_epoch=1,
    )
    final = lake_final_table(lake)
    if "attrs" not in final.column_names:
        # degenerate stream: no event reached EVOLVE_AT — the evolved
        # nested column never entered the sink; all-null matches the oracle
        final = final.append_column("attrs", pa.nulls(final.num_rows, attrs_type))
    assert final.schema.field("attrs").type.equals(attrs_type), final.schema
    df = pd.DataFrame(
        {
            "repo": final["repo"].to_pylist(),
            "path": final["path"].to_pylist(),
            "n_attrs": pd.Series(
                pc.list_value_length(final["attrs"]).to_pandas(), dtype="float64"
            ),
            "first_k": [
                a[0]["k"] if a else None for a in final["attrs"].to_pylist()
            ],
            "first_n": pd.Series(
                [float(a[0]["n"]) if a else None for a in final["attrs"].to_pylist()],
                dtype="float64",
            ),
        }
    )
    return df.sort_values(["repo", "path"]).reset_index(drop=True)


# Decode catalog for the gate stream: selector = lang (event_type analog of
# topic0); props always match '{"k": N}' so the abort path never fires at
# the gate (it is pytest-covered). The two entries make 'view'/'signup'/
# 'error' silent skips — the NotFound path.
def _gate_catalog():
    from ..stages.decode import DecodeCatalog, EventSpec

    return DecodeCatalog(
        {
            "click": EventSpec("ClickArgs", r'^\{"k": (\d+)\}$'),
            "purchase": EventSpec("PurchaseArgs", r'^\{"k": (\d+)\}$'),
        }
    )


def cdc_decoded_events(sf_dir: str) -> pd.DataFrame:
    """Decoded-events fan-out table from ONE engine pass (multi-table
    output): catalog-matched change events emit (lsn, repo, path,
    event_name, args) rows alongside the merged file state
    (``PerBlockRecords`` publish fan-out, ``sonic_config/mod.rs:501-574``)."""
    from ..pipelines.sidecars import read_decoded

    lake = scratch_lake_dir("cdcdec")
    apply_epoch(
        _events_as_cdc(sf_dir), lake, epoch=0, num_partitions=8,
        decode_catalog=_gate_catalog(),
    )
    return read_decoded(lake).to_pandas()


def cdc_split_decoded_tables(sf_dir: str) -> pd.DataFrame:
    """N-way fan-out: the catalog routes click events to table 'clicks' and
    purchase events to table 'purchases' — ONE engine pass, one shuffle,
    THREE typed outputs (state + 2 decoded tables), each gated by the unit
    commit record (the reference's six-table PerBlockRecords publish,
    ``sonic_config/mod.rs:305-314``). Returns the union with a tbl label."""
    from ..pipelines.sidecars import decoded_tables, read_decoded
    from ..stages.decode import DecodeCatalog, EventSpec

    catalog = DecodeCatalog(
        {
            "click": EventSpec("ClickArgs", r'^\{"k": (\d+)\}$', table="clicks"),
            "purchase": EventSpec("PurchaseArgs", r'^\{"k": (\d+)\}$', table="purchases"),
        }
    )
    lake = scratch_lake_dir("cdcsplit")
    apply_epoch(
        _events_as_cdc(sf_dir), lake, epoch=0, num_partitions=8,
        decode_catalog=catalog,
    )
    parts = []
    for t in decoded_tables(lake):  # degenerate streams may hit fewer tables
        df = read_decoded(lake, table=t).to_pandas()
        df.insert(0, "tbl", t)
        parts.append(df)
    if not parts:
        out = pd.DataFrame(
            {"tbl": pd.Series(dtype="object"), "lsn": pd.Series(dtype="int64")}
        )
    else:
        out = pd.concat(parts, ignore_index=True)
    return out.sort_values(["tbl", "lsn"]).reset_index(drop=True)


def cdc_multitable_counts(sf_dir: str) -> pd.DataFrame:
    """Both fan-out tables from the SAME single pass: per-repo file-state
    row counts AND decoded-event counts (cross-table accounting, the
    set_event_count analog, ``common.rs:498-503``)."""
    from ..pipelines.sidecars import read_decoded

    lake = scratch_lake_dir("cdcmt")
    apply_epoch(
        _events_as_cdc(sf_dir), lake, epoch=0, num_partitions=8,
        decode_catalog=_gate_catalog(),
    )
    files = lake_final_table(lake).to_pandas()
    dec = read_decoded(lake).to_pandas()
    f = files.groupby("repo", as_index=False).agg(n_files=("path", "count"))
    d = dec.groupby("repo", as_index=False).agg(n_decoded=("lsn", "count"))
    out = f.merge(d, on="repo", how="outer").fillna(0)
    out["n_files"] = out["n_files"].astype("int64")
    out["n_decoded"] = out["n_decoded"].astype("int64")
    return out.sort_values("repo").reset_index(drop=True)


FEED_COLUMNS = [
    "change_type", "repo", "path", "commit", "lang", "content",
    "content_sha256", "size_bytes", "lsn",
]


def cdc_change_feed(sf_dir: str) -> pd.DataFrame:
    """Per-epoch applied-changes feed (the Delta-CDF analog of the
    reference's per-table publish stream, ``sonic_config/mod.rs:501-574``):
    the event log is replayed as TWO epochs split at the median LSN, then
    the feed for epoch 1 is read back from the lake — one row per logical
    change (insert/update/delete) with the post-image payload and winning
    LSN. The oracle restates it as the set-diff of the two LWW snapshots."""
    from ray.data.aggregate import Max, Min

    from ..pipelines.ingest import read_change_feed

    ids = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"])
    agg = ids.aggregate(Min("event_id"), Max("event_id"))
    split = (int(agg["min(event_id)"]) + int(agg["max(event_id)"])) // 2

    def _lt(t: pa.Table) -> pa.Table:
        return t.filter(pc.less(t["lsn"], split))

    def _ge(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["lsn"], split))

    lake = scratch_lake_dir("cdcfeed")
    apply_epoch(
        _events_as_cdc(sf_dir).map_batches(_lt, batch_format="pyarrow"),
        lake, epoch=0, num_partitions=8,
    )
    apply_epoch(
        _events_as_cdc(sf_dir).map_batches(_ge, batch_format="pyarrow"),
        lake, epoch=1, num_partitions=8,
    )
    out = read_change_feed(lake, epoch=1).to_pandas()[FEED_COLUMNS]
    out["size_bytes"] = out["size_bytes"].astype("float64")
    out["lsn"] = out["lsn"].astype("int64")
    return out.sort_values(["repo", "path"]).reset_index(drop=True)


N_FEED_EPOCHS = 4
N_RECONCILE_NEW = 10  # new keys the reconcile-snapshot gate query introduces


def _replay_quartile_epochs(
    sf_dir: str,
    tag: str,
    events_fn=None,
    suppress_unchanged: bool = False,
    merge_mode: str = "cow",
    track_history: bool = False,
) -> tuple[str, int, int]:
    """Replay the event log as N_FEED_EPOCHS contiguous-LSN epochs (epoch of
    an event = (lsn-lo)*N // (hi-lo+1), mirrored exactly in SQL)."""
    from ray.data.aggregate import Max, Min

    ids = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"])
    agg = ids.aggregate(Min("event_id"), Max("event_id"))
    lo, hi = int(agg["min(event_id)"]), int(agg["max(event_id)"])
    span = hi - lo + 1
    lake = scratch_lake_dir(tag)
    for e in range(N_FEED_EPOCHS):

        def in_epoch(t: pa.Table, e: int = e) -> pa.Table:
            ep = pc.divide(
                pc.multiply(pc.subtract(t["lsn"], lo), N_FEED_EPOCHS), span
            )
            return t.filter(pc.equal(ep, e))

        src = events_fn(sf_dir) if events_fn is not None else _events_as_cdc(sf_dir)
        apply_epoch(
            src.map_batches(in_epoch, batch_format="pyarrow"),
            lake, epoch=e, num_partitions=8,
            suppress_unchanged=suppress_unchanged,
            merge_mode=merge_mode,
            track_history=track_history,
        )
    return lake, lo, span


def cdc_apply_mor(sf_dir: str) -> pa.Table:
    """Merge-on-read replay: 4 epochs each writing only per-key-winner DELTA
    files (no prior read, no partition rewrite — the sparse-update
    write-amplification fix at 10^10 events), a compaction folding the first
    epochs\' deltas mid-stream, then the resolved final table. The oracle is
    the SAME LWW snapshot SQL as cdc_apply_upserts: merge-on-read must be
    indistinguishable from copy-on-write at read time."""
    from ..pipelines.ingest import compact_lake_states, lake_final_table

    from ray.data.aggregate import Max, Min

    ids = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"])
    agg = ids.aggregate(Min("event_id"), Max("event_id"))
    lo, hi = int(agg["min(event_id)"]), int(agg["max(event_id)"])
    span = hi - lo + 1
    lake = scratch_lake_dir("cdcmor")
    for e in range(N_FEED_EPOCHS):

        def in_epoch(t: pa.Table, e: int = e) -> pa.Table:
            ep = pc.divide(pc.multiply(pc.subtract(t["lsn"], lo), N_FEED_EPOCHS), span)
            return t.filter(pc.equal(ep, e))

        apply_epoch(
            _events_as_cdc(sf_dir).map_batches(in_epoch, batch_format="pyarrow"),
            lake, epoch=e, num_partitions=8, merge_mode="mor",
        )
        if e == N_FEED_EPOCHS // 2 - 1:  # fold the first half, keep the rest as deltas
            compact_lake_states(lake)
    return lake_final_table(lake).select(FINAL_COLUMNS)


def cdc_point_lookup(sf_dir: str) -> pa.Table:
    """Data-skipping point lookup: replay the stream, then fetch a
    deterministic key set (every key of users with user_id % 97 == 0)
    through :func:`..pipelines.ingest.lookup_keys` — each key is read from
    EXACTLY the one partition it hashes to (plus Parquet row-group pruning
    inside the sorted state file), never a lake scan. Oracle: the LWW
    snapshot joined to the same key set."""
    from ..pipelines.ingest import lookup_keys

    lake = _vanilla_lake(sf_dir)  # shared read-only replay

    def key_rows(t: pa.Table) -> pa.Table:
        import numpy as np

        uid = np.asarray(t["user_id"])
        keep = t.filter(pa.array(uid % 97 == 0))
        ev = _to_change_events(
            keep.append_column("value", pa.array(np.full(keep.num_rows, 100.0)))
            .append_column("props", pa.array([""] * keep.num_rows, pa.string()))
        )
        return ev.select(["repo", "path"])

    key_refs = (
        ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type"]
        )
        .map_batches(key_rows, batch_format="pyarrow")
        .to_arrow_refs()
    )
    key_tabs = [t for t in ray.get(key_refs) if t.num_rows]
    if not key_tabs:  # degenerate stream: no user hits the % 97 sample
        from ..schemas import STATE_SCHEMA

        return STATE_SCHEMA.empty_table().select(FINAL_COLUMNS)
    keys_t = (
        pa.concat_tables(key_tabs)
        .group_by(["repo", "path"])  # tiny: the lookup INPUT (~1% of users)
        .aggregate([])
    )
    keys = list(zip(keys_t["repo"].to_pylist(), keys_t["path"].to_pylist()))
    return lookup_keys(lake, keys, num_partitions=8).select(FINAL_COLUMNS)


def cdc_replicate(sf_dir: str) -> pa.Table:
    """Lake→lake replication through the change feed: replay the stream as
    4 epochs into an upstream lake (P=8), subscribe a downstream lake (P=4,
    merge-on-read) to its per-epoch CDF, return the DOWNSTREAM final table.
    The oracle is the same LWW snapshot SQL — replication must be exactly
    state-preserving across partition counts and merge modes."""
    from ..pipelines.ingest import lake_final_table, replicate_lake

    src_lake, _, _ = _replay_quartile_epochs(sf_dir, "cdcrepsrc")
    dst_lake = scratch_lake_dir("cdcrepdst")
    replicate_lake(src_lake, dst_lake, num_partitions=4, merge_mode="mor")
    return lake_final_table(dst_lake).select(FINAL_COLUMNS)


def cdc_lake_diff(sf_dir: str) -> pa.Table:
    """Replica drift detection: lake A = full replay (P=8), lake B = replay
    of only the stream's first half (P=4 — deliberately mismatched, so the
    gate exercises :func:`..pipelines.ingest.diff_lakes`' rehash path, B
    exchanged into A's partitioning while A never moves). The diff emits
    ONLY differing keys with a status: ``only_a`` (key appeared after the
    cut), ``only_b`` (key deleted after the cut), ``differs`` (content
    updated after the cut). Oracle: FULL OUTER JOIN of the two LWW
    snapshots."""
    import pyarrow.parquet as pq

    from ..pipelines.ingest import diff_lakes

    lake_a = _vanilla_lake(sf_dir)  # shared read-only replay
    ev = pq.read_table(f"{sf_dir}/events.parquet", columns=["event_id"])
    cut = int(pc.max(ev["event_id"]).as_py()) // 2
    lake_b = scratch_lake_dir("cdcdiffb")
    apply_epoch(
        _events_as_cdc(sf_dir).filter(expr=f"lsn <= {cut}"),
        lake_b, epoch=0, num_partitions=4,
    )
    refs = [t for t in ray.get(diff_lakes(lake_a, lake_b).to_arrow_refs()) if t.num_rows]
    if not refs:
        return pa.schema([
            ("repo", pa.string()), ("path", pa.string()), ("status", pa.string()),
            ("a_lsn", pa.int64()), ("b_lsn", pa.int64()),
        ]).empty_table()
    t = pa.concat_tables(refs, promote_options="default")
    return t.take(pc.sort_indices(
        t, sort_keys=[("repo", "ascending"), ("path", "ascending")]
    ))


def cdc_windowed_tail(sf_dir: str) -> pa.Table:
    """Watermark-gated tumbling windows over the applied stream (the
    streaming-window operator): windows of 997 LSNs finalize exactly when
    the lake's applied watermark passes their end — the tail partial window
    is never emitted. The oracle aggregates the same prefix cut; the
    exactly-once/resume/pruning semantics are pytest-driven
    (``tests/test_windows.py``)."""
    from ..pipelines.windows import TumblingWindowView

    lake = _vanilla_lake(sf_dir)
    v = TumblingWindowView(
        lake, window=997, view_root=scratch_lake_dir("cdcwin")
    )
    v.refresh(_events_as_cdc(sf_dir))
    return v.table()


def cdc_windowed_quantiles(sf_dir: str) -> pa.Table:
    """Watermark-gated per-window payload-size quantiles (p50/p90/p99 of
    ``strlen(content)``, deletes excluded) via the KLL sketch view — the
    streaming-percentile operator. ``k = window`` makes each window's
    sketch exact (a window of 997 LSNs holds ≤ 997 events), so the oracle
    is per-window ``quantile_disc`` over the same applied-prefix cut."""
    from ..pipelines.windows import TumblingQuantileView

    lake = _vanilla_lake(sf_dir)
    v = TumblingQuantileView(
        lake, window=997, view_root=scratch_lake_dir("cdcwinq")
    )
    v.refresh(_events_as_cdc(sf_dir))
    return v.table()


def cdc_windowed_topk(sf_dir: str) -> pa.Table:
    """Watermark-gated per-window top-3 repos by event count (the streaming
    "trending keys" view, :class:`~sonic_etl_ray.pipelines.windows.
    TumblingTopKView`): exact per-(window, repo) counts, deterministic
    total-order rank (row_number semantics: ties get distinct ranks by
    the group tie-break), same applied-prefix cut as the other window views."""
    from ..pipelines.windows import TumblingTopKView

    lake = _vanilla_lake(sf_dir)
    v = TumblingTopKView(
        lake, window=997, k=3, view_root=scratch_lake_dir("cdcwintop")
    )
    v.refresh(_events_as_cdc(sf_dir))
    return v.table()


def cdc_lake_stats(sf_dir: str) -> pd.DataFrame:
    """ANALYZE over the replay lake: exact per-column min/max/null/ndv of
    the live state (:func:`~sonic_etl_ray.pipelines.qc.analyze_lake`) —
    the oracle recomputes each statistic from the LWW snapshot."""
    from ..pipelines.qc import analyze_lake

    lake = _vanilla_lake(sf_dir)  # shared read-only replay
    out = analyze_lake(lake, ["repo", "lang", "size_bytes", "applied_lsn"])
    out["n_nulls"] = out["n_nulls"].astype("int64")
    out["n_distinct"] = out["n_distinct"].astype("int64")
    return out


def cdc_lake_stats_approx(sf_dir: str) -> pd.DataFrame:
    """Sketch ANALYZE over the replay lake: exact min/max/null, HLL ndv
    (:func:`~sonic_etl_ray.pipelines.qc.analyze_lake_approx`). The oracle
    recomputes the identical integer HLL registers + linear-counting
    switch in SQL, so the estimate matches hash-exact — an approximate
    statistic with a deterministic contract."""
    from ..pipelines.qc import analyze_lake_approx

    lake = _vanilla_lake(sf_dir)  # shared read-only replay
    out = analyze_lake_approx(lake, ["repo", "lang", "size_bytes", "applied_lsn"])
    out["n_nulls"] = out["n_nulls"].astype("int64")
    out["est_distinct"] = out["est_distinct"].astype("int64")
    return out


def _lake_stats_approx_oracle_sql(columns: list[str]) -> str:
    """Generated oracle for :func:`cdc_lake_stats_approx`: per column, the
    md5-register HLL chain (same integer constants as
    ``functions.sketch``) plus the shared linear-counting VALUES table —
    both sides agree bit-for-bit by construction."""
    from ..functions.sketch import (
        HLL_ALPHA_NUM,
        HLL_M,
        HLL_RHO_MAX,
        HLL_SCALE,
        HLL_TAIL_BITS,
        hll_lc_values_sql,
    )

    mask = (1 << HLL_TAIL_BITS) - 1
    ctes = [f", lc(v, n) AS (SELECT * FROM {hll_lc_values_sql()})"]
    selects = []
    for c in sorted(columns):
        ctes.append(f"""
, h_{c} AS (
  SELECT ('0x' || substr(md5(CAST({c} AS VARCHAR)), 1, 16))::UBIGINT AS h
  FROM final WHERE {c} IS NOT NULL
), r_{c} AS (
  SELECT CAST(h >> {HLL_TAIL_BITS} AS BIGINT) AS bucket,
         MAX(CASE WHEN (h & {mask}) = 0 THEN {HLL_RHO_MAX}
                  ELSE {HLL_RHO_MAX} - LENGTH(BIN(CAST(h & {mask} AS BIGINT)))
             END) AS max_rho
  FROM h_{c} GROUP BY 1
), e_{c} AS (
  SELECT CAST(COUNT(*) AS BIGINT) AS v,
         CAST({HLL_ALPHA_NUM}::HUGEINT //
           (COALESCE(SUM(1::HUGEINT << ({HLL_SCALE} - LEAST(max_rho, {HLL_SCALE}))), 0)
            + ({HLL_M} - COUNT(*)) * (1::HUGEINT << {HLL_SCALE})) AS BIGINT) AS raw
  FROM r_{c}
), est_{c} AS (
  SELECT CASE WHEN v < {HLL_M} AND raw <= {5 * HLL_M // 2}
              THEN (SELECT n FROM lc WHERE lc.v = e_{c}.v) ELSE raw END AS est
  FROM e_{c}
)""")
        selects.append(f"""
  SELECT '{c}' AS "column",
         CAST(MIN({c}) AS VARCHAR) AS min_v,
         CAST(MAX({c}) AS VARCHAR) AS max_v,
         CAST(COUNT(*) FILTER ({c} IS NULL) AS BIGINT) AS n_nulls,
         CAST((SELECT est FROM est_{c}) AS BIGINT) AS est_distinct
  FROM final""")
    return "".join(ctes) + "\nSELECT * FROM (" + "\nUNION ALL".join(selects) + ') ORDER BY "column"'


def cdc_constraints(sf_dir: str) -> pd.DataFrame:
    """Declarative data-quality gate over the replay lake
    (:func:`~sonic_etl_ray.pipelines.qc.check_constraints`): one row per
    constraint with its distributed violation count — the oracle
    recomputes every count from the LWW snapshot."""
    from ..pipelines.qc import Constraint, check_constraints

    lake = _vanilla_lake(sf_dir)  # shared read-only replay
    cons = [
        Constraint("repo_not_null", "not_null", ("repo",)),
        Constraint(
            "lang_known",
            "accepted_values",
            ("lang",),
            values=("click", "purchase", "signup", "view"),
        ),
        Constraint("size_window", "range", ("size_bytes",), lo=5, hi=60),
        Constraint("path_has_view", "regex", ("path",), pattern="view"),
        Constraint("pk_unique", "unique", ("repo", "path")),
        Constraint("lang_unique", "unique", ("lang",)),
    ]
    out = check_constraints(lake, cons)
    out["violations"] = out["violations"].astype("int64")
    out["n_rows"] = out["n_rows"].astype("int64")
    return out


def cdc_session_windows(sf_dir: str) -> pa.Table:
    """Gap-closed session windows per repo over the change stream
    (:class:`~sonic_etl_ray.pipelines.windows.SessionView`, gap=25 LSNs):
    only sessions whose gap has provably elapsed under the applied
    watermark are emitted — the oracle closes sessions with the same
    ``last_lsn + gap <= max(lsn)`` rule over the full stream."""
    from ..pipelines.windows import SessionView

    lake = _vanilla_lake(sf_dir)
    v = SessionView(lake, gap=25, view_root=scratch_lake_dir("cdcsess"))
    v.refresh(_events_as_cdc(sf_dir))
    return v.table()


def cdc_feed_incremental_view(sf_dir: str) -> pd.DataFrame:
    """Downstream per-lang aggregate maintained ONLY from the change feed
    (insert/update post-images add, update_preimage/delete pre-images
    subtract) across a 4-epoch replay — never rescanning the lake. The
    oracle recomputes the same view from the final LWW snapshot, so the
    compare proves the incremental deltas telescope to the true state."""
    from ..pipelines.ingest import feed_incremental_agg

    lake, _, _ = _replay_quartile_epochs(sf_dir, "cdcview")
    out = feed_incremental_agg(lake, range(N_FEED_EPOCHS), group_col="lang")
    out["n_files"] = out["n_files"].astype("int64")
    out["total_bytes"] = out["total_bytes"].astype("int64")
    return out


def cdc_time_travel(sf_dir: str) -> pd.DataFrame:
    """Snapshot-as-of read: replay 4 epochs, read the lake as of epoch 1
    (time travel over the copy-on-write commit log) — the oracle is the LWW
    snapshot over the first two epochs' LSN span only."""
    from ..pipelines.ingest import lake_final_table

    lake, lo, span = _replay_quartile_epochs(sf_dir, "cdctt")
    out = lake_final_table(lake, as_of_epoch=1).select(FINAL_COLUMNS).to_pandas()
    return out.sort_values(["repo", "path"]).reset_index(drop=True)


def _inject_faults(t: pa.Table) -> pa.Table:
    """Deterministic, SQL-mirrorable corruption on top of the standard
    projection: value<2 → delete that (illegally) carries content;
    20≤value<24 → unknown op; 24≤value<28 → upsert without content."""
    ev = _to_change_events(t)
    v = t["value"]
    bogus = pc.and_(pc.greater_equal(v, 20.0), pc.less(v, 24.0))
    nocontent = pc.and_(pc.greater_equal(v, 24.0), pc.less(v, 28.0))
    delwith = pc.less(v, 2.0)
    op = pc.if_else(bogus, pa.scalar("bogus", pa.string()), ev["op"])
    content = pc.if_else(nocontent, pa.scalar(None, pa.string()), ev["content"])
    content = pc.if_else(delwith, t["props"], content)
    ev = ev.set_column(ev.column_names.index("op"), "op", op)
    return ev.set_column(ev.column_names.index("content"), "content", content)


def cdc_error_channel(sf_dir: str) -> pd.DataFrame:
    """Typed error rows (M15/``TransformationErr`` analog,
    ``transformation/err.rs:1-31``) as a driver-gate query: malformed events
    are ROUTED to the per-partition error channel instead of aborting the
    epoch, and read back as (lsn, reason) — the oracle recomputes the same
    classification from the raw events."""
    from ..pipelines.sidecars import read_errors
    from ..stages.transform import ERROR_COLUMN

    lake = scratch_lake_dir("cdcerr")
    faulty = ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value", "props"],
    ).map_batches(_inject_faults, batch_format="pyarrow")
    apply_epoch(faulty, lake, epoch=0, num_partitions=8, on_error="route")
    t = read_errors(lake)
    if "lsn" not in t.column_names:  # degenerate stream: nothing routed
        out = pd.DataFrame(
            {"lsn": pd.Series(dtype="int64"), "reason": pd.Series(dtype="object")}
        )
    else:
        out = pd.DataFrame(
            {"lsn": t["lsn"].to_pandas().astype("int64"), "reason": t[ERROR_COLUMN].to_pandas()}
        )
    return out.sort_values("lsn").reset_index(drop=True)


def cdc_rebucket(sf_dir: str) -> pa.Table:
    """Partition-count migration: apply the stream at P=8, rebucket the lake
    to P=5 through the normal ingest path (state → pseudo-events → re-key →
    exactly-once commit), read the DESTINATION — must equal the plain LWW
    final state (the oracle never sees the migration)."""
    from ..pipelines.ingest import rebucket_lake

    src = _vanilla_lake(sf_dir)  # shared read-only replay (rebucket reads src only)
    dst = scratch_lake_dir("cdcrb_dst")
    rebucket_lake(src, dst, num_partitions=5)
    return lake_final_table(dst).select(FINAL_COLUMNS)


def _events_as_cdc_lowcard(sf_dir: str) -> ray.data.Dataset:
    """The standard projection with a LOW-CARDINALITY content column
    (``'v' || floor(value)::BIGINT % 3``) so repeated per-key upserts often
    carry identical content — the regime no-op suppression exists for."""
    import numpy as np

    def lowcard(t: pa.Table) -> pa.Table:
        ev = _to_change_events_with_value(t)
        short = pa.array(
            np.char.add("v", (np.floor(np.asarray(ev["__value"])).astype(np.int64) % 3).astype(str))
        )
        content = pc.if_else(
            pc.equal(ev["op"], "delete"), pa.scalar(None, pa.string()), short
        )
        ev = ev.set_column(ev.column_names.index("content"), "content", content)
        return ev.drop_columns(["__value"])

    return ray.data.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "value", "props"],
    ).map_batches(lowcard, batch_format="pyarrow")


def _to_change_events_with_value(t: pa.Table) -> pa.Table:
    return _to_change_events(t).append_column("__value", t["value"])


def cdc_suppress_noop(sf_dir: str) -> pa.Table:
    """No-op update suppression end-to-end: 4-epoch replay of a
    low-cardinality-content stream with ``suppress_unchanged=True`` — a
    winning upsert whose content equals the prior live row leaves the row
    (commit, lang, applied_lsn and all) untouched. The oracle recomputes the
    same semantics as four chained per-epoch CTEs, so the compare pins both
    which rows survive AND that suppressed rows keep their OLD lineage."""
    lake, _, _ = _replay_quartile_epochs(
        sf_dir, "cdcsup", events_fn=_events_as_cdc_lowcard, suppress_unchanged=True
    )
    return lake_final_table(lake).select(FINAL_COLUMNS)


def cdc_freshness_accounting(sf_dir: str) -> pd.DataFrame:
    """Liveness/accounting QC from the LINEAGE LOG ONLY (never the data):
    after a 4-epoch replay, the commit records must account for every
    delivered event, the stream's exact LSN head, and the live row count —
    the hourly-liveness + row-counts DAGs
    (``mainnet_hourly_block_check.py:33-47``, ``row_counts.py:16-22``) as
    one oracle-checked aggregate."""
    from ..pipelines.ingest import lineage

    lake, _, _ = _replay_quartile_epochs(sf_dir, "cdcfresh")
    lin = lineage(lake).to_pandas()
    return pd.DataFrame(
        {
            "max_applied_lsn": [int(lin["applied_lsn"].max())],
            "n_events_total": [int(lin["n_events"].sum())],
            "n_live_rows": [int(lake_final_table(lake).num_rows)],
        }
    )


def cdc_gap_detect(sf_dir: str) -> pd.DataFrame:
    """Gap detection over a holed LSN stream (``daily_backfill_mainnet.py:67-99``):
    drop lsn % 97 == 3 events, detect exactly those as missing."""
    import numpy as np

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id"])

    def drop_holes(t: pa.Table) -> pa.Table:
        lsn = np.asarray(t["event_id"], dtype=np.int64)
        return pa.table({"lsn": pa.array(lsn[lsn % 97 != 3])})

    ds = ds.map_batches(drop_holes, batch_format="pyarrow")
    gaps = detect_gaps(ds, lsn_column="lsn")
    return pd.DataFrame({"missing_lsn": gaps})


ORACLE_SRC = """
WITH src AS (
  SELECT
    event_id AS lsn,
    CASE WHEN value < 20 THEN 'delete' ELSE 'insert' END AS op,
    'r' || CAST(user_id % 5 AS VARCHAR) AS repo,
    'u' || CAST(user_id AS VARCHAR) || '/' || event_type AS path,
    sha256(CAST(event_id AS VARCHAR)) AS "commit",
    event_type AS lang,
    CASE WHEN value < 20 THEN NULL ELSE props END AS content
  FROM events
),
last AS (
  SELECT * FROM src
  QUALIFY row_number() OVER (PARTITION BY repo, path ORDER BY lsn DESC) = 1
),
final AS (
  SELECT repo, path, "commit", lang, content,
         sha256(content) AS content_sha256,
         CAST(strlen(content) AS BIGINT) AS size_bytes,
         lsn AS applied_lsn
  FROM last WHERE op <> 'delete'
)
"""

def _suppress_oracle_sql(n: int = N_FEED_EPOCHS) -> str:
    """Chained per-epoch CTEs mirroring suppression semantics exactly:
    state_k = state_{k-1} where the epoch-k winner is absent OR is an upsert
    content-equal to the live prior row; else the winner."""
    cols = ["repo", "path", '"commit"', "lang", "content", "lsn", "deleted"]
    parts = [
        """
WITH src AS (
  SELECT event_id AS lsn,
         CASE WHEN value < 20 THEN 'delete' ELSE 'insert' END AS op,
         'r' || CAST(user_id % 5 AS VARCHAR) AS repo,
         'u' || CAST(user_id AS VARCHAR) || '/' || event_type AS path,
         sha256(CAST(event_id AS VARCHAR)) AS "commit",
         event_type AS lang,
         CASE WHEN value < 20 THEN NULL
              ELSE 'v' || CAST(CAST(FLOOR(value) AS BIGINT) % 3 AS VARCHAR) END AS content
  FROM events
),
bounds AS (SELECT MIN(lsn) AS lo, MAX(lsn) - MIN(lsn) + 1 AS span FROM src)"""
    ]
    for k in range(n):
        parts.append(f""",
w{k} AS (
  SELECT repo, path, "commit", lang, content, lsn, (op = 'delete') AS deleted
  FROM src, bounds WHERE ((lsn - lo) * {n}) // span = {k}
  QUALIFY row_number() OVER (PARTITION BY repo, path ORDER BY lsn DESC) = 1
)""")
        if k == 0:
            parts.append(",\ns0 AS (SELECT * FROM w0)")
        else:
            keep_s = (
                "(w.repo IS NULL OR (NOT w.deleted AND s.repo IS NOT NULL"
                " AND NOT s.deleted AND w.content = s.content))"
            )
            sel = ",\n         ".join(
                f"CASE WHEN {keep_s} THEN s.{c} ELSE w.{c} END AS {c}" for c in cols
            )
            parts.append(f""",
s{k} AS (
  SELECT {sel}
  FROM w{k} w FULL OUTER JOIN s{k - 1} s
    ON w.repo = s.repo AND w.path = s.path
)""")
    parts.append(f"""
SELECT repo, path, "commit", lang, content, sha256(content) AS content_sha256,
       CAST(strlen(content) AS BIGINT) AS size_bytes, lsn AS applied_lsn
FROM s{n - 1} WHERE NOT deleted ORDER BY repo, path""")
    return "".join(parts)


ORACLES: dict[str, str] = {
    "cdc_apply_upserts": ORACLE_SRC + "SELECT * FROM final ORDER BY repo, path",
    # schema-evolution audit log: the engine reads it from commit records;
    # the oracle derives the expected log from the stream (epoch 0 = the 9
    # base state columns iff any early event exists; epoch 1 adds size_hint
    # iff any late-LSN event exists — the same split cdc_schema_evolution
    # replays)
    "cdc_schema_log": """
    SELECT CAST(0 AS BIGINT) AS epoch,
           'applied_lsn,commit,content,content_sha256,deleted,lang,path,repo,size_bytes' AS added,
           '' AS retyped, CAST(9 AS BIGINT) AS n_columns
    WHERE EXISTS (SELECT 1 FROM events WHERE event_id < 500)
    UNION ALL
    SELECT CAST(1 AS BIGINT), 'size_hint', '', CAST(10 AS BIGINT)
    WHERE EXISTS (SELECT 1 FROM events WHERE event_id >= 500)
    ORDER BY epoch""",
    # SCD2 from the change feed, restated over the event stream: the per-key
    # per-epoch winner opens a version (unless delete), the key's next
    # winner-epoch closes it — equivalent to the CDF fold because a feed row
    # exists iff state changed (see cdc_scd2_from_feed docstring)
    "cdc_scd2_from_feed": """
    WITH src AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 20 THEN 'delete' ELSE 'insert' END AS op,
             'r' || CAST(user_id % 5 AS VARCHAR) AS repo,
             'u' || CAST(user_id AS VARCHAR) || '/' || event_type AS path,
             sha256(CAST(event_id AS VARCHAR)) AS "commit"
      FROM events
    ),
    bounds AS (SELECT MIN(lsn) AS lo, MAX(lsn) - MIN(lsn) + 1 AS span FROM src),
    wins AS (
      SELECT repo, path, "commit", (op = 'delete') AS deleted,
             CAST(((lsn - lo) * 4) // span AS BIGINT) AS epoch
      FROM src, bounds
      QUALIFY row_number() OVER (
        PARTITION BY repo, path, ((lsn - lo) * 4) // span ORDER BY lsn DESC) = 1
    ),
    led AS (
      SELECT *, LEAD(epoch) OVER (PARTITION BY repo, path ORDER BY epoch) AS nxt
      FROM wins
    )
    SELECT repo, path, "commit", epoch AS valid_from_epoch,
           CAST(COALESCE(nxt, -1) AS BIGINT) AS valid_to_epoch,
           CAST(nxt IS NULL AS BIGINT) AS is_current
    FROM led WHERE NOT deleted
    ORDER BY repo, path, valid_from_epoch""",
    # SCD2: LEAD over the per-key ordered stream closes each version; the
    # -1 sentinel keeps valid_to_lsn int64 on both sides
    # archive time travel: last-per-key over the stream truncated at the
    # 60%-of-span LSN (integer cut arithmetic mirrored exactly)
    "cdc_state_at_lsn": ORACLE_SRC + """
    , bounds AS (SELECT MIN(lsn) AS lo, MAX(lsn) AS hi FROM src)
    SELECT repo, path, "commit", lang, content,
           sha256(content) AS content_sha256,
           CAST(strlen(content) AS BIGINT) AS size_bytes,
           lsn AS applied_lsn
    FROM (SELECT src.* FROM src, bounds
          WHERE lsn <= lo + ((hi - lo + 1) * 6) // 10
          QUALIFY row_number() OVER (PARTITION BY repo, path ORDER BY lsn DESC) = 1)
    WHERE op <> 'delete' ORDER BY repo, path""",
    # full version chain of the most-versioned key (deterministic tie-break)
    "cdc_key_history": ORACLE_SRC + """
    , pick AS (SELECT repo, path FROM src GROUP BY repo, path
               ORDER BY COUNT(*) DESC, repo, path LIMIT 1)
    SELECT s.lsn, s.op, s.repo, s.path, s."commit", s.lang, s.content
    FROM src s JOIN pick USING (repo, path) ORDER BY s.lsn""",
    # incremental sidecar == full-stream recompute: same oracle by design
    "cdc_scd2_incremental": ORACLE_SRC + """
    SELECT repo, path, "commit", lang,
           lsn AS valid_from_lsn,
           CAST(COALESCE(nxt, -1) AS BIGINT) AS valid_to_lsn,
           CAST(nxt IS NULL AS BIGINT) AS is_current
    FROM (SELECT src.*,
                 LEAD(lsn) OVER (PARTITION BY repo, path ORDER BY lsn) AS nxt
          FROM src)
    WHERE op <> 'delete'
    ORDER BY repo, path, valid_from_lsn""",
    "cdc_scd2_history": ORACLE_SRC + """
    SELECT repo, path, "commit", lang,
           lsn AS valid_from_lsn,
           CAST(COALESCE(nxt, -1) AS BIGINT) AS valid_to_lsn,
           CAST(nxt IS NULL AS BIGINT) AS is_current
    FROM (SELECT src.*,
                 LEAD(lsn) OVER (PARTITION BY repo, path ORDER BY lsn) AS nxt
          FROM src)
    WHERE op <> 'delete'
    ORDER BY repo, path, valid_from_lsn""",
    "cdc_apply_blocklisted": ORACLE_SRC
    + "SELECT * FROM final WHERE repo NOT IN ('r0', 'r3') ORDER BY repo, path",
    "cdc_schema_evolution": ORACLE_SRC
    + f"""
    SELECT repo, path, "commit", lang, content, content_sha256, size_bytes,
           applied_lsn,
           CASE WHEN applied_lsn >= {EVOLVE_AT}
                THEN CAST(strlen(content) AS BIGINT) END AS size_hint
    FROM final ORDER BY repo, path""",
    "cdc_apply_dup_replay": ORACLE_SRC + "SELECT * FROM final ORDER BY repo, path",
    # bulk DML through the exactly-once path: DELETE drops exactly the
    # predicate's live rows; surviving rows are untouched
    "cdc_delete_where": ORACLE_SRC
    + "SELECT * FROM final WHERE lang <> 'purchase' ORDER BY repo, path",
    # ...then UPDATE rewrites the matched rows in place: assigned columns
    # change, derived columns recompute, the per-key LSN bumps by one
    "cdc_update_where": ORACLE_SRC + """
    , after_delete AS (SELECT * FROM final WHERE lang <> 'purchase'),
    after_update AS (
      SELECT repo, path, "commit",
             CASE WHEN lang = 'click' THEN 'clicked' ELSE lang END AS lang,
             CASE WHEN lang = 'click' THEN content || '!' ELSE content END AS content,
             CASE WHEN lang = 'click' THEN applied_lsn + 1 ELSE applied_lsn END AS applied_lsn
      FROM after_delete)
    SELECT repo, path, "commit", lang, content,
           sha256(content) AS content_sha256,
           CAST(strlen(content) AS BIGINT) AS size_bytes, applied_lsn
    FROM after_update ORDER BY repo, path""",
    # ...then MERGE-reconcile against an authoritative snapshot: error keys
    # deleted (delete_missing), view content touched (update at lsn+1),
    # fresh keys inserted at max(event_id)+1, everything else untouched
    "cdc_reconcile_snapshot": ORACLE_SRC + f"""
    , after_delete AS (SELECT * FROM final WHERE lang <> 'purchase'),
    after_update AS (
      SELECT repo, path, "commit",
             CASE WHEN lang = 'click' THEN 'clicked' ELSE lang END AS lang,
             CASE WHEN lang = 'click' THEN content || '!' ELSE content END AS content,
             CASE WHEN lang = 'click' THEN applied_lsn + 1 ELSE applied_lsn END AS applied_lsn
      FROM after_delete),
    reconciled AS (
      SELECT repo, path, "commit", lang,
             CASE WHEN lang = 'view' THEN content || '~r' ELSE content END AS content,
             CASE WHEN lang = 'view' THEN applied_lsn + 1 ELSE applied_lsn END AS applied_lsn
      FROM after_update WHERE lang <> 'error'
      UNION ALL
      SELECT 'zz/new', 'n' || CAST(i AS VARCHAR), 'c' || CAST(i AS VARCHAR),
             'fresh', 'fresh-' || CAST(i AS VARCHAR),
             (SELECT MAX(event_id) + 1 FROM events)
      FROM range({N_RECONCILE_NEW}) t(i))
    SELECT repo, path, "commit", lang, content,
           sha256(content) AS content_sha256,
           CAST(strlen(content) AS BIGINT) AS size_bytes, applied_lsn
    FROM reconciled ORDER BY repo, path""",
    # a published snapshot is a faithful copy of the logical table
    "cdc_export_snapshot": ORACLE_SRC + "SELECT * FROM final ORDER BY repo, path",
    # a branch after clone + DELETE = the LWW state minus the predicate
    "cdc_clone_branch": ORACLE_SRC
    + "SELECT * FROM final WHERE lang <> 'view' ORDER BY repo, path",
    # anti-entropy repair converges replica content to the source's LWW
    # state (applied_lsn excluded: repair stamps its own DML epoch LSNs)
    "cdc_repair_replica": ORACLE_SRC + """
    SELECT repo, path, "commit", lang, content, content_sha256, size_bytes
    FROM final ORDER BY repo, path""",
    # zone-map-pruned non-key predicate read == unpruned filtered aggregate
    "cdc_indexed_value_scan": ORACLE_SRC + """
    SELECT repo,
           CAST(SUM(size_bytes) AS BIGINT) AS total_bytes,
           CAST(COUNT(*) AS BIGINT) AS n_files
    FROM final WHERE lang = 'purchase'
    GROUP BY 1 ORDER BY 1""",
    # pruned range read == full-table aggregate restricted to the range
    "cdc_range_scan": ORACLE_SRC + """
    SELECT repo,
           CAST(SUM(size_bytes) AS BIGINT) AS total_bytes,
           CAST(COUNT(*) AS BIGINT) AS n_files
    FROM final WHERE repo >= 'r1' AND repo < 'r4'
    GROUP BY 1 ORDER BY 1""",
    "cdc_apply_mor": ORACLE_SRC + "SELECT * FROM final ORDER BY repo, path",
    "cdc_replicate": ORACLE_SRC + "SELECT * FROM final ORDER BY repo, path",
    # watermark-gated tumbling windows: the applied-prefix cut, tail withheld
    "cdc_windowed_tail": ORACLE_SRC + """
    , cutw AS (SELECT ((MAX(lsn) + 1) // 997) * 997 AS c FROM src)
    SELECT CAST(lsn // 997 AS BIGINT) AS window_id, repo,
           CAST(COUNT(*) AS BIGINT) AS n_events,
           CAST(SUM(CASE WHEN op = 'delete' THEN 1 ELSE 0 END) AS BIGINT)
             AS n_deletes
    FROM src, cutw WHERE lsn < cutw.c
    GROUP BY 1, 2 ORDER BY 1, 2""",
    # ANALYZE: every statistic recomputed from the LWW snapshot per column
    "cdc_lake_stats": ORACLE_SRC + """
    , stats AS (
      SELECT 'applied_lsn' AS "column",
             CAST(MIN(applied_lsn) AS VARCHAR) AS min_v,
             CAST(MAX(applied_lsn) AS VARCHAR) AS max_v,
             CAST(COUNT(*) FILTER (applied_lsn IS NULL) AS BIGINT) AS n_nulls,
             CAST(COUNT(DISTINCT applied_lsn) AS BIGINT) AS n_distinct
      FROM final
      UNION ALL
      SELECT 'lang', CAST(MIN(lang) AS VARCHAR), CAST(MAX(lang) AS VARCHAR),
             CAST(COUNT(*) FILTER (lang IS NULL) AS BIGINT),
             CAST(COUNT(DISTINCT lang) AS BIGINT) FROM final
      UNION ALL
      SELECT 'repo', CAST(MIN(repo) AS VARCHAR), CAST(MAX(repo) AS VARCHAR),
             CAST(COUNT(*) FILTER (repo IS NULL) AS BIGINT),
             CAST(COUNT(DISTINCT repo) AS BIGINT) FROM final
      UNION ALL
      SELECT 'size_bytes', CAST(MIN(size_bytes) AS VARCHAR),
             CAST(MAX(size_bytes) AS VARCHAR),
             CAST(COUNT(*) FILTER (size_bytes IS NULL) AS BIGINT),
             CAST(COUNT(DISTINCT size_bytes) AS BIGINT) FROM final
    )
    SELECT * FROM stats ORDER BY "column" """,
    # point-in-time enrichment: DuckDB ASOF JOIN (max version lsn <= at);
    # delete semantics and the ''-for-NULL canonicalization mirrored
    "cdc_pit_enrich": ORACLE_SRC + """
    , probe AS (
      SELECT repo, path, lsn AS probe_lsn, lsn - 1 AS at_lsn
      FROM src WHERE lsn % 7 = 0
    )
    SELECT p.repo, p.path, p.probe_lsn,
           COALESCE(v.lsn, -1) AS asof_lsn,
           COALESCE(v.op, '') AS asof_op,
           COALESCE(CASE WHEN v.op = 'delete' THEN NULL ELSE v."commit" END, '')
             AS asof_commit,
           COALESCE(CASE WHEN v.op = 'delete' THEN NULL ELSE v.lang END, '')
             AS asof_lang
    FROM probe p ASOF LEFT JOIN src v
      ON p.repo = v.repo AND p.path = v.path AND v.lsn <= p.at_lsn
    ORDER BY 1, 2, 3""",
    # declarative constraints: every violation count from the LWW snapshot;
    # unique counts use nonnull-minus-distinct to match the engine exactly
    "cdc_constraints": ORACLE_SRC + """
    SELECT * FROM (
      SELECT 'repo_not_null' AS "constraint",
             CAST(COUNT(*) FILTER (repo IS NULL) AS BIGINT) AS violations,
             CAST(COUNT(*) AS BIGINT) AS n_rows FROM final
      UNION ALL
      SELECT 'lang_known',
             COUNT(*) FILTER (lang IS NOT NULL
               AND lang NOT IN ('click', 'purchase', 'signup', 'view')),
             COUNT(*) FROM final
      UNION ALL
      SELECT 'size_window',
             COUNT(*) FILTER (size_bytes IS NOT NULL
               AND (size_bytes < 5 OR size_bytes > 60)),
             COUNT(*) FROM final
      UNION ALL
      SELECT 'path_has_view',
             COUNT(*) FILTER (path IS NOT NULL AND NOT regexp_matches(path, 'view')),
             COUNT(*) FROM final
      UNION ALL
      SELECT 'pk_unique',
             COUNT(*) FILTER (repo IS NOT NULL AND path IS NOT NULL)
               - COUNT(DISTINCT repo || chr(0) || path),
             COUNT(*) FROM final
      UNION ALL
      SELECT 'lang_unique',
             COUNT(*) FILTER (lang IS NOT NULL) - COUNT(DISTINCT lang),
             COUNT(*) FROM final
    ) ORDER BY "constraint" """,
    # sketch ANALYZE: identical integer HLL registers + LC switch in SQL
    "cdc_lake_stats_approx": ORACLE_SRC
    + _lake_stats_approx_oracle_sql(["repo", "lang", "size_bytes", "applied_lsn"]),
    # gap-closed sessions: gaps-and-islands per repo; a session is emitted
    # iff its gap has elapsed under the watermark (max applied lsn)
    "cdc_session_windows": ORACLE_SRC + """
    , o AS (
      SELECT repo, lsn,
             CASE WHEN lsn - lag(lsn) OVER (PARTITION BY repo ORDER BY lsn) > 25
                    OR lag(lsn) OVER (PARTITION BY repo ORDER BY lsn) IS NULL
                  THEN 1 ELSE 0 END AS brk
      FROM src
    ), g AS (
      SELECT repo, lsn, SUM(brk) OVER (PARTITION BY repo ORDER BY lsn) AS sid
      FROM o
    ), sess AS (
      SELECT repo, CAST(MIN(lsn) AS BIGINT) AS start_lsn,
             CAST(MAX(lsn) AS BIGINT) AS last_lsn,
             CAST(COUNT(*) AS BIGINT) AS n_events
      FROM g GROUP BY repo, sid
    ), wm AS (SELECT MAX(lsn) AS w FROM src)
    SELECT repo, start_lsn, last_lsn, n_events FROM sess, wm
    WHERE last_lsn + 25 <= wm.w ORDER BY repo, start_lsn""",
    # per-window top-k repos by event count: same prefix cut, row_number
    "cdc_windowed_topk": ORACLE_SRC + """
    , cutw AS (SELECT ((MAX(lsn) + 1) // 997) * 997 AS c FROM src),
    wc AS (
      SELECT CAST(lsn // 997 AS BIGINT) AS window_id, repo,
             CAST(COUNT(*) AS BIGINT) AS n_events
      FROM src, cutw WHERE lsn < cutw.c GROUP BY 1, 2
    )
    SELECT window_id, repo, n_events,
           CAST(row_number() OVER (PARTITION BY window_id
                ORDER BY n_events DESC, repo) AS BIGINT) AS rank
    FROM wc QUALIFY rank <= 3 ORDER BY window_id, rank""",
    # per-window payload-size quantiles: same prefix cut, quantile_disc per
    # window over non-null payloads (the engine's k=window sketch is exact)
    "cdc_windowed_quantiles": ORACLE_SRC + """
    , cutw AS (SELECT ((MAX(lsn) + 1) // 997) * 997 AS c FROM src)
    SELECT window_id, unnest([0.5, 0.9, 0.99]) AS q, unnest(p) AS size
    FROM (
      SELECT CAST(lsn // 997 AS BIGINT) AS window_id,
             quantile_disc(CAST(strlen(content) AS BIGINT), [0.5, 0.9, 0.99]) AS p
      FROM src, cutw WHERE lsn < cutw.c AND content IS NOT NULL
      GROUP BY 1)
    ORDER BY 1, 2""",
    # lake-to-lake drift: full replay vs first-half replay, differing keys only
    "cdc_lake_diff": ORACLE_SRC + """
    , cut AS (SELECT CAST(FLOOR(MAX(event_id) / 2.0) AS BIGINT) AS c FROM events),
    last_b AS (
      SELECT s.* FROM src s, cut
      WHERE s.lsn <= cut.c
      QUALIFY row_number() OVER (PARTITION BY repo, path ORDER BY lsn DESC) = 1
    ),
    final_b AS (
      SELECT repo, path, sha256(content) AS content_sha256, lsn AS applied_lsn
      FROM last_b WHERE op <> 'delete'
    )
    SELECT COALESCE(a.repo, b.repo) AS repo,
           COALESCE(a.path, b.path) AS path,
           CASE WHEN a.repo IS NULL THEN 'only_b'
                WHEN b.repo IS NULL THEN 'only_a'
                ELSE 'differs' END AS status,
           a.applied_lsn AS a_lsn,
           b.applied_lsn AS b_lsn
    FROM final a FULL OUTER JOIN final_b b
      ON a.repo = b.repo AND a.path = b.path
    WHERE a.repo IS NULL OR b.repo IS NULL
       OR a.content_sha256 <> b.content_sha256
    ORDER BY 1, 2""",
    "cdc_split_decoded_tables": ORACLE_SRC + r"""
    SELECT CASE lang WHEN 'click' THEN 'clicks' ELSE 'purchases' END AS tbl,
           lsn, repo, path,
           CASE lang WHEN 'click' THEN 'ClickArgs' ELSE 'PurchaseArgs' END AS event_name,
           '["' || regexp_extract(content, '^\{"k": (\d+)\}$', 1) || '"]' AS args,
           CAST(0 AS BIGINT) AS line_no
    FROM src
    WHERE lang IN ('click', 'purchase') AND content IS NOT NULL
    ORDER BY tbl, lsn""",
    "cdc_point_lookup": ORACLE_SRC + """
    SELECT f.* FROM final f
    JOIN (SELECT DISTINCT 'r' || CAST(user_id % 5 AS VARCHAR) AS repo,
                 'u' || CAST(user_id AS VARCHAR) || '/' || event_type AS path
          FROM events WHERE user_id % 97 = 0) k
    USING (repo, path) ORDER BY repo, path""",
    # the migration must be invisible: destination state == plain LWW final
    "cdc_rebucket": ORACLE_SRC + "SELECT * FROM final ORDER BY repo, path",
    # suppression: chained per-epoch CTEs (built by _suppress_oracle_sql)
    "cdc_suppress_noop": _suppress_oracle_sql(),
    # lineage-log accounting: every event delivered exactly once, head LSN
    # exact, live-row count equals the LWW oracle's
    "cdc_freshness_accounting": ORACLE_SRC
    + """
    SELECT MAX(s.lsn) AS max_applied_lsn,
           COUNT(*) AS n_events_total,
           (SELECT COUNT(*) FROM final) AS n_live_rows
    FROM src s""",
    # same classification the route-mode validator applies (precedence:
    # unknown op, then delete-with-content, then upsert-without-content)
    "cdc_error_channel": """
    SELECT CAST(event_id AS BIGINT) AS lsn,
           CASE WHEN value >= 20 AND value < 24 THEN 'unknown_op'
                WHEN value < 2 THEN 'delete_with_content'
                ELSE 'upsert_without_content' END AS reason
    FROM events
    WHERE value < 2 OR (value >= 20 AND value < 28)
    ORDER BY lsn""",
    "cdc_row_counts": ORACLE_SRC
    + """
    SELECT repo, COUNT(*) AS n_files, CAST(SUM(size_bytes) AS BIGINT) AS total_bytes
    FROM final GROUP BY repo ORDER BY repo""",
    "cdc_incremental_repo_stats": ORACLE_SRC
    + """
    SELECT repo, COUNT(*) AS n_files, CAST(SUM(size_bytes) AS BIGINT) AS total_bytes
    FROM final GROUP BY repo ORDER BY repo""",
    "cdc_watermark_by_repo": ORACLE_SRC
    + """
    SELECT repo, MAX(applied_lsn) AS watermark FROM final GROUP BY repo ORDER BY repo""",
    "cdc_nested_evolution": ORACLE_SRC
    + f"""
    SELECT repo, path,
           CASE WHEN applied_lsn >= {EVOLVE_AT} THEN CAST(1 AS DOUBLE) END AS n_attrs,
           CASE WHEN applied_lsn >= {EVOLVE_AT} THEN lang END AS first_k,
           CASE WHEN applied_lsn >= {EVOLVE_AT} THEN CAST(strlen(content) AS DOUBLE) END AS first_n
    FROM final ORDER BY repo, path""",
    "cdc_decoded_events": ORACLE_SRC
    + """
    SELECT lsn, repo, path,
           CASE lang WHEN 'click' THEN 'ClickArgs' ELSE 'PurchaseArgs' END AS event_name,
           '["' || regexp_extract(content, '^\\{"k": (\\d+)\\}$', 1) || '"]' AS args,
           CAST(0 AS BIGINT) AS line_no
    FROM src
    WHERE lang IN ('click', 'purchase') AND content IS NOT NULL
    ORDER BY lsn, event_name, line_no""",
    "cdc_multitable_counts": ORACLE_SRC
    + """
    , fcounts AS (SELECT repo, COUNT(*) AS n_files FROM final GROUP BY repo),
    dcounts AS (
      SELECT repo, COUNT(*) AS n_decoded FROM src
      WHERE lang IN ('click', 'purchase') AND content IS NOT NULL
      GROUP BY repo
    )
    SELECT COALESCE(f.repo, d.repo) AS repo,
           COALESCE(f.n_files, 0) AS n_files,
           COALESCE(d.n_decoded, 0) AS n_decoded
    FROM fcounts f FULL OUTER JOIN dcounts d ON f.repo = d.repo
    ORDER BY repo""",
    # change feed for epoch 1 = set-diff of the LWW snapshot over the full
    # stream vs the snapshot over lsn < median split (identical split
    # arithmetic to the engine: integer-floored midpoint of min/max lsn)
    "cdc_change_feed": ORACLE_SRC
    + """
    , split AS (SELECT (MIN(lsn) + MAX(lsn)) // 2 AS s FROM src),
    last0 AS (
      SELECT * FROM src WHERE lsn < (SELECT s FROM split)
      QUALIFY row_number() OVER (PARTITION BY repo, path ORDER BY lsn DESC) = 1
    ),
    final0 AS (SELECT repo, path, lsn AS applied_lsn FROM last0 WHERE op <> 'delete')
    SELECT CASE WHEN f0.repo IS NULL THEN 'insert' ELSE 'update' END AS change_type,
           f1.repo, f1.path, f1."commit", f1.lang, f1.content, f1.content_sha256,
           CAST(f1.size_bytes AS DOUBLE) AS size_bytes, f1.applied_lsn AS lsn
    FROM final f1 LEFT JOIN final0 f0 ON f1.repo = f0.repo AND f1.path = f0.path
    WHERE f0.repo IS NULL OR f1.applied_lsn <> f0.applied_lsn
    UNION ALL
    SELECT 'delete' AS change_type, f0.repo, f0.path,
           NULL AS "commit", NULL AS lang, NULL AS content,
           NULL AS content_sha256, CAST(NULL AS DOUBLE) AS size_bytes, l.lsn
    FROM final0 f0 JOIN last l ON f0.repo = l.repo AND f0.path = l.path
    WHERE l.op = 'delete'
    ORDER BY repo, path""",
    # incremental CDF-consumer view must telescope to the per-lang aggregate
    # of the final LWW snapshot
    "cdc_feed_incremental_view": ORACLE_SRC
    + """
    SELECT lang, COUNT(*) AS n_files, CAST(SUM(size_bytes) AS BIGINT) AS total_bytes
    FROM final GROUP BY lang ORDER BY lang""",
    # as-of epoch 1 of 4 = LWW snapshot over events whose epoch index
    # ((lsn-lo)*4 // span, identical integer arithmetic to the engine) <= 1
    "cdc_time_travel": ORACLE_SRC
    + f"""
    , bounds AS (SELECT MIN(lsn) AS lo, MAX(lsn) - MIN(lsn) + 1 AS span FROM src),
    lastt AS (
      SELECT s.* FROM src s, bounds b
      WHERE ((s.lsn - b.lo) * {N_FEED_EPOCHS}) // b.span <= 1
      QUALIFY row_number() OVER (PARTITION BY repo, path ORDER BY lsn DESC) = 1
    )
    SELECT repo, path, "commit", lang, content, sha256(content) AS content_sha256,
           CAST(strlen(content) AS BIGINT) AS size_bytes, lsn AS applied_lsn
    FROM lastt WHERE op <> 'delete' ORDER BY repo, path""",
    "cdc_gap_detect": """
    WITH present AS (SELECT event_id AS lsn FROM events WHERE event_id % 97 <> 3),
    bounds AS (SELECT MIN(lsn) AS lo, MAX(lsn) AS hi FROM present),
    expected AS (SELECT UNNEST(generate_series(lo, hi)) AS missing_lsn FROM bounds)
    SELECT missing_lsn FROM expected
    WHERE missing_lsn NOT IN (SELECT lsn FROM present) ORDER BY missing_lsn""",
}


def cdc_scd2_history(sf_dir: str, num_buckets: int = 64) -> pd.DataFrame:
    """SCD2 temporal history from the change stream (the warehouse
    history-table pattern the reference's daily MERGE never keeps): every
    non-delete event opens a version valid [lsn, next-event-lsn); a later
    event of ANY op closes it; a trailing non-delete version is current
    (``valid_to_lsn = -1`` sentinel so the schema stays all-int64).

    Shape: one bucket-keyed exchange on hash(repo, path); inside each bucket
    the close-LSN is a vectorized shift over (repo, path, lsn)-sorted rows —
    per-bucket Python, never per-key."""
    import numpy as np

    from ..functions.text import md5_u64

    ds = _events_as_cdc(sf_dir)

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        key = (b["repo"].astype(str) + "\x00" + b["path"].astype(str)).tolist()
        b["__bucket"] = md5_u64(key).view(np.int64) % num_buckets
        return b

    def scd2_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["repo", "path", "lsn"], kind="stable").reset_index(drop=True)
        same_next = (g["repo"].shift(-1) == g["repo"]) & (g["path"].shift(-1) == g["path"])
        # pure-int64 next-LSN (pandas shift detours through float64: lossy > 2^53)
        lsn = g["lsn"].to_numpy(np.int64)
        nxt = np.where(same_next.to_numpy(), np.append(lsn[1:], np.int64(-1)), np.int64(-1))
        keep = (g["op"] != "delete").to_numpy()
        out = pd.DataFrame(
            {
                "repo": g["repo"],
                "path": g["path"],
                "commit": g["commit"],
                "lang": g["lang"],
                "valid_from_lsn": g["lsn"].astype("int64"),
                "valid_to_lsn": nxt,
                "is_current": (nxt == -1).astype("int64"),
            }
        )
        return out[keep]

    out = (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(scd2_bucket, batch_format="pandas")
        .to_pandas()
    )
    for c in ("valid_from_lsn", "valid_to_lsn", "is_current"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["repo", "path", "valid_from_lsn"]).reset_index(drop=True)


# shared history-lake replay for the archive-backed queries: the replay is
# deterministic and the lake immutable afterward, so the three consumers
# (scd2_incremental / state_at_lsn / key_history) reuse ONE execution.
# Keyed by sf_dir with the input stamp stored as VALUE (O(1) entries —
# a rewrite replaces rather than accumulates); the superseded scratch lake
# is removed from disk on eviction.
_HISTORY_LAKE_CACHE: dict[str, tuple[tuple, str, int, int]] = {}


def _history_lake(sf_dir: str) -> tuple[str, int, int]:
    """(lake_dir, lo, span) of the memoized track_history quartile replay."""
    import os
    import shutil

    st = os.stat(os.path.join(sf_dir, "events.parquet"))
    stamp = (st.st_mtime_ns, st.st_size)
    hit = _HISTORY_LAKE_CACHE.get(sf_dir)
    if hit is not None and hit[0] == stamp and os.path.isdir(hit[1]):
        return hit[1], hit[2], hit[3]
    if hit is not None:
        shutil.rmtree(hit[1], ignore_errors=True)
    lake, lo, span = _replay_quartile_epochs(sf_dir, "histq", track_history=True)
    _HISTORY_LAKE_CACHE[sf_dir] = (stamp, lake, lo, span)
    return lake, lo, span


_DML_LAKE_CACHE: dict[str, tuple[tuple, str, int, int, int]] = {}


def _dml_lake(sf_dir: str) -> tuple[str, int, int, int]:
    """(lake_dir, delete_epoch, update_epoch, reconcile_epoch) of the
    memoized bulk-DML drive: full-stream apply → ``DELETE WHERE
    lang='purchase'`` → ``UPDATE WHERE lang='click' SET lang='clicked',
    content=content||'!'`` → MERGE-reconcile against a mutated snapshot
    (drop lang='error' keys via ``delete_missing``, touch lang='view'
    content, introduce ``N_RECONCILE_NEW`` fresh keys at
    ``max(event_id)+1``). All three run through
    :mod:`~sonic_etl_ray.pipelines.dml` (synthetic change events under
    admin epochs on the exactly-once path); the three gate queries read
    the ONE lake at different epochs — time travel separates the steps."""
    from .dml import delete_where, reconcile_snapshot, update_where

    def build(lake: str) -> tuple[int, int, int]:
        apply_epoch(_events_as_cdc(sf_dir), lake, epoch=0, num_partitions=8)
        rd = delete_where(lake, pc.field("lang") == "purchase")
        ru = update_where(
            lake,
            pc.field("lang") == "click",
            {
                "lang": "clicked",
                "content": lambda t: pc.binary_join_element_wise(t["content"], "!", ""),
            },
        )
        # authoritative snapshot = current state, minus error keys, view
        # content touched, plus fresh keys entering at max(event_id)+1
        from ..pipelines.ingest import lake_final_table

        cur = lake_final_table(lake).select(["repo", "path", "commit", "lang", "content"])
        cur = cur.filter(pc.invert(pc.equal(cur["lang"], "error")))
        touched = pc.if_else(
            pc.equal(cur["lang"], "view"),
            pc.binary_join_element_wise(cur["content"], "~r", ""),
            cur["content"],
        )
        cur = cur.set_column(cur.schema.get_field_index("content"), "content", touched)
        fresh = pa.table(
            {
                "repo": pa.array(["zz/new"] * N_RECONCILE_NEW),
                "path": pa.array([f"n{i}" for i in range(N_RECONCILE_NEW)]),
                "commit": pa.array([f"c{i}" for i in range(N_RECONCILE_NEW)]),
                "lang": pa.array(["fresh"] * N_RECONCILE_NEW),
                "content": pa.array([f"fresh-{i}" for i in range(N_RECONCILE_NEW)]),
            }
        )
        from ray.data.aggregate import Max

        hi = ray.data.read_parquet(
            f"{sf_dir}/events.parquet", columns=["event_id"]
        ).aggregate(Max("event_id"))["max(event_id)"]
        rr = reconcile_snapshot(
            lake,
            pa.concat_tables([cur, fresh]),
            delete_missing=True,
            at_lsn=int(hi) + 1,
        )
        return rd["epoch"], ru["epoch"], rr["epoch"]

    return _memo_scratch_lake(_DML_LAKE_CACHE, sf_dir, "cdcdml", build)


def cdc_delete_where(sf_dir: str) -> pa.Table:
    """Predicate bulk DELETE via the exactly-once path (no file rewrite
    protocol — tombstone events under an admin epoch, see
    :func:`sonic_etl_ray.pipelines.dml.delete_where`). Read back AS OF the
    delete epoch: exactly the predicate's rows are gone, survivors are
    byte-identical."""
    lake, del_epoch, _up_epoch, _rec_epoch = _dml_lake(sf_dir)
    from ..pipelines.ingest import lake_final_table

    return lake_final_table(lake, as_of_epoch=del_epoch).select(FINAL_COLUMNS)


def cdc_update_where(sf_dir: str) -> pa.Table:
    """Predicate bulk UPDATE via the exactly-once path: assigned columns
    change (vectorized per-batch kernels), ``content_sha256``/``size_bytes``
    recompute downstream, the per-key LSN bumps by one — all other rows
    byte-identical. Read AS OF the update epoch (a reconcile follows on
    the shared lake)."""
    lake, _del_epoch, up_epoch, _rec_epoch = _dml_lake(sf_dir)
    from ..pipelines.ingest import lake_final_table

    return lake_final_table(lake, as_of_epoch=up_epoch).select(FINAL_COLUMNS)


def cdc_reconcile_snapshot(sf_dir: str) -> pa.Table:
    """MERGE INTO from an authoritative snapshot
    (:func:`sonic_etl_ray.pipelines.dml.reconcile_snapshot` — the Ray
    analog of the reference's daily MERGE repair): after the reconcile the
    lake's payload equals the snapshot EXACTLY — unchanged keys untouched
    (same applied_lsn), changed keys updated at per-key ``lsn+1``, missing
    keys deleted, fresh keys inserted at ``max(event_id)+1``. Read at the
    live frontier."""
    lake, _del_epoch, _up_epoch, _rec_epoch = _dml_lake(sf_dir)
    from ..pipelines.ingest import lake_final_table

    return lake_final_table(lake).select(FINAL_COLUMNS)


def cdc_state_at_lsn(sf_dir: str) -> pd.DataFrame:
    """LSN-grain time travel from the archive: reconstruct the live table as
    of the 60%-of-span LSN (cut mirrored exactly in SQL) — per key the
    max-LSN version <= cut wins, a winning delete kills the key. Exercises
    the history sidecar as a full point-in-time recovery source, not just
    an SCD2 feed."""
    from ..pipelines.history import state_at_lsn

    lake, lo, span = _history_lake(sf_dir)
    cut = lo + (span * 6) // 10
    out = state_at_lsn(lake, cut).to_pandas()
    cols = [
        "repo", "path", "commit", "lang", "content", "content_sha256",
        "size_bytes", "applied_lsn",
    ]
    return out[cols].sort_values(["repo", "path"]).reset_index(drop=True)


def cdc_key_history(sf_dir: str) -> pd.DataFrame:
    """Partition-pruned per-key version-chain lookup: pick the stream's
    most-versioned key (deterministic tie-break, mirrored in SQL), then read
    ONLY that key's hash partition from the archive — the O(1/P) point-read
    path. Returns the full ordered chain."""
    from ..pipelines.history import lookup_key_history

    lake, _lo, _span = _history_lake(sf_dir)
    counts = (
        _events_as_cdc(sf_dir)
        .select_columns(["repo", "path"])
        .groupby(["repo", "path"])
        .count()
    )
    top = counts.sort(
        ["count()", "repo", "path"], descending=[True, False, False]
    ).take(1)[0]
    chain = lookup_key_history(lake, [(top["repo"], top["path"])])
    out = chain.select(["lsn", "op", "repo", "path", "commit", "lang", "content"]).to_pandas()
    return out.sort_values("lsn").reset_index(drop=True)


def cdc_scd2_incremental(sf_dir: str) -> pd.DataFrame:
    """SCD2 dimension maintained INCREMENTALLY by the merge path itself:
    replay the stream as quartile epochs with ``track_history=True`` (every
    merge unit archives its distinct versions into the commit-gated
    ``_history/`` sidecar — append-only, no stream re-read), then derive the
    dimension from the sidecar alone via :func:`history.scd2_view`. Must be
    hash-identical to :func:`cdc_scd2_history`'s full-stream recompute —
    the incremental-maintenance invariant (oracle: the same LEAD window
    SQL over the raw stream)."""
    from ..pipelines.history import scd2_view

    lake, _lo, _span = _history_lake(sf_dir)
    out = scd2_view(lake).to_pandas()
    for c in ("valid_from_lsn", "valid_to_lsn", "is_current"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["repo", "path", "valid_from_lsn"]).reset_index(drop=True)


def cdc_pit_enrich(sf_dir: str) -> pd.DataFrame:
    """Point-in-time enrichment from the history archive
    (:func:`~sonic_etl_ray.pipelines.history.pit_join`): every 7th event
    asks "what version of this file was live just before me" (at_lsn =
    lsn−1) — the warehouse PIT-lookup a training-data pipeline uses to
    join facts to slowly-changing dimensions without leakage. Unmatched
    probes report asof_lsn=-1; a matched delete reports the version LSN
    but empty payload (the key did not exist at that instant; NULLs are
    canonicalized to '' on both sides for the driver's string compare)."""
    from ..pipelines.history import pit_join

    lake, _lo, _span = _history_lake(sf_dir)
    def mk_probe(t: pa.Table) -> pa.Table:
        import numpy as np

        keep = np.asarray(t.column("lsn").combine_chunks()) % 7 == 0
        sub = t.filter(pa.array(keep))
        return pa.table(
            {
                "repo": sub.column("repo"),
                "path": sub.column("path"),
                "probe_lsn": sub.column("lsn"),
                "at_lsn": pc.subtract(sub.column("lsn"), 1),
            }
        )

    probe = (
        _events_as_cdc(sf_dir)
        .select_columns(["repo", "path", "lsn"])
        .map_batches(mk_probe, batch_format="pyarrow")
    )
    out = pit_join(lake, probe, at_column="at_lsn").to_pandas()
    out = out.drop(columns=["at_lsn"])
    for c in ("asof_op", "asof_commit", "asof_lang"):
        out[c] = out[c].map(lambda x: "" if x is None or (isinstance(x, float) and pd.isna(x)) else x)
    out["asof_lsn"] = out["asof_lsn"].astype("int64")
    out["probe_lsn"] = out["probe_lsn"].astype("int64")
    return out.sort_values(["repo", "path", "probe_lsn"]).reset_index(drop=True)


def cdc_scd2_from_feed(sf_dir: str, num_buckets: int = 64) -> pd.DataFrame:
    """Epoch-grain SCD2 dimension built by CONSUMING the change-data feed —
    the lakehouse pattern of maintaining a history table from CDF instead of
    reprocessing the source (each insert/update feed row opens a version at
    its epoch; the key's next feed row of any type closes it; deletes close
    but never appear). Divergence-safety vs the event-stream definition: a
    feed row exists iff state changed, and with suppression off the only
    winner that changes no state is a delete of a dead key — which can never
    be the first event after a LIVE version, so both definitions close every
    version at the same epoch (the oracle is the event-stream LEAD form).

    Shape: per-epoch feeds are partition-parallel diffs (zero shuffle),
    union → ONE bucket-keyed exchange → vectorized per-bucket shift."""
    import numpy as np

    from ..functions.text import md5_u64
    from ..pipelines.ingest import read_change_feed

    lake, _lo, _span = _replay_quartile_epochs(sf_dir, "scd2cdf")

    tagged = None
    for e in range(N_FEED_EPOCHS):

        def tag(t: pa.Table, e: int = e) -> pa.Table:
            t = t.select(["change_type", "repo", "path", "commit"])
            return t.append_column(
                "epoch", pa.array(np.full(t.num_rows, e, np.int64), pa.int64())
            )

        f = read_change_feed(lake, epoch=e).map_batches(tag, batch_format="pyarrow")
        tagged = f if tagged is None else tagged.union(f)

    def add_bucket(b: "pd.DataFrame") -> "pd.DataFrame":
        b = b.copy()
        key = (b["repo"].astype(str) + "\x00" + b["path"].astype(str)).tolist()
        b["__bucket"] = md5_u64(key).view(np.int64) % num_buckets
        return b

    def scd2_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(["repo", "path", "epoch"], kind="stable").reset_index(
            drop=True
        )
        same_next = (g["repo"].shift(-1) == g["repo"]) & (g["path"].shift(-1) == g["path"])
        ep = g["epoch"].to_numpy(np.int64)
        nxt = np.where(same_next.to_numpy(), np.append(ep[1:], np.int64(-1)), np.int64(-1))
        keep = (g["change_type"] != "delete").to_numpy()
        out = pd.DataFrame(
            {
                "repo": g["repo"],
                "path": g["path"],
                "commit": g["commit"],
                "valid_from_epoch": g["epoch"].astype("int64"),
                "valid_to_epoch": nxt,
                "is_current": (nxt == -1).astype("int64"),
            }
        )
        return out[keep]

    out = (
        tagged.map_batches(add_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(scd2_bucket, batch_format="pandas")
        .to_pandas()
    )
    for c in ("valid_from_epoch", "valid_to_epoch", "is_current"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["repo", "path", "valid_from_epoch"]).reset_index(drop=True)


def cdc_schema_log(sf_dir: str) -> pd.DataFrame:
    """Schema-evolution audit: replay the evolving two-segment stream (early
    segments lack ``size_hint`` entirely) and read the per-epoch schema log
    from the commit records — epoch 0 introduces the 9 base state columns,
    epoch 1 introduces ``size_hint`` iff any late-LSN event exists. The log
    is a pure commit-log read (survives vacuum and checkpoint compaction)."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from ..pipelines.ingest import run_ingest, schema_history

    events = _events_as_cdc(sf_dir).take_all()
    tbl = pa.Table.from_pylist(events)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=[("lsn", "ascending")]))
    hint = pc.if_else(
        pc.is_valid(tbl["content"]),
        pc.cast(pc.binary_length(tbl["content"]), pa.int64()),
        pa.scalar(None, pa.int64()),
    )
    tbl = tbl.append_column("size_hint", hint)
    early = tbl.filter(pc.less(tbl["lsn"], EVOLVE_AT)).drop_columns(["size_hint"])
    late = tbl.filter(pc.greater_equal(tbl["lsn"], EVOLVE_AT))

    seg_dir = tempfile.mkdtemp(prefix="sonic_etl_ray_schlog_")
    pq.write_table(early, os.path.join(seg_dir, "segment_000000.parquet"))
    pq.write_table(late, os.path.join(seg_dir, "segment_000001.parquet"))
    lake = scratch_lake_dir("cdcschlog")
    run_ingest(
        [os.path.join(seg_dir, f) for f in sorted(os.listdir(seg_dir))],
        lake,
        num_partitions=8,
        segments_per_epoch=1,
    )
    return schema_history(lake)
