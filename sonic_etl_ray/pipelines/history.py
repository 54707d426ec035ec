"""History sidecar readers: the SCD2 / change-archive surface of the lake.

``run_ingest(..., track_history=True)`` makes every merge unit archive its
distinct delivered versions into an append-only, commit-gated file
``_history/epoch=E/part=P.parquet`` (see ``MergeApplier.apply_unit``). This
module is the read side:

- :func:`history_files`, :func:`read_history`, :func:`compact_history`,
  :func:`expire_history` — the archive's file plan, streaming read, fold
  and retention, all from the shared sidecar family (``sidecars.py``; the
  commit record gates every file, so a crashed unit's orphan stays
  invisible and is overwritten on replay). An ``as_of_epoch`` read that
  needs an epoch a later fold already removed raises
  :class:`EpochNotRetained` instead of returning too few rows;
- :func:`scd2_view` — the SCD2 dimension derived DISTRIBUTEDLY from the
  archive alone: one bucket-keyed exchange on hash(repo, path), then a
  vectorized close-LSN shift inside each bucket (per-bucket Python, never
  per-key) — the same kernel shape as ``cdc_queries.cdc_scd2_history`` but
  fed from the incrementally-maintained sidecar instead of a full stream
  re-read.

Scale notes: history volume is O(distinct delivered events) by definition —
the sidecar only ever appends one file per (epoch, partition), no rewrite,
no read amplification on the ingest path. ``scd2_view`` reads only the five
columns it needs (column-pruned parquet scan) and its exchange fan-out is
``num_buckets``, independent of key cardinality. The reference keeps no
history at all — its daily MERGE (``daily_qc_airflow/daily_dedupe_mainnet.py``)
collapses duplicates and discards superseded rows; this sidecar is the
warehouse SCD2 pattern the north rule's schema-evolution/exactly-once
replay makes safe to maintain incrementally.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from .sidecars import HISTORY, EpochNotRetained, concat_evolved  # noqa: F401

history_files = HISTORY.files
read_history = HISTORY.read_ds
compact_history = HISTORY.compact
expire_history = HISTORY.expire


@ray.remote(num_cpus=1)
def _read_history_part(
    lake_dir: str, part: int, repos: list[str], keyset: list[str]
) -> pa.Table:
    """One partition's archived versions of the looked-up keys."""
    import pyarrow.dataset as pads

    from ..stages.keys import key_strings

    files = HISTORY.files(lake_dir, part=part)
    if not files:
        return pa.table({})
    repo_filter = pc.field("repo").isin(repos)
    tabs = [
        pads.dataset(f, format="parquet").to_table(filter=repo_filter)
        for f in files
    ]
    tbl = concat_evolved([t for t in tabs if t.num_rows] or tabs[:1])
    if not tbl.num_rows:
        return tbl
    exact = pc.is_in(key_strings(tbl), value_set=pa.array(keyset, pa.string()))
    return tbl.filter(exact)


def lookup_key_history(
    lake_dir: str,
    keys: list[tuple[str, str]],
    num_partitions: int | None = None,
) -> pa.Table:
    """Point lookup of FULL version chains by exact (repo, path) keys —
    the archive shares the lake's hash partitioning (history files are
    written per merge partition), so a k-key lookup reads ≤ k of P
    partitions' archive files, never the whole archive; within each file a
    ``repo`` Parquet filter prunes row groups (archive files are
    (repo, path, lsn)-sorted). One Ray task per touched partition.
    Returns all archived versions, (repo, path, lsn)-ascending."""
    import numpy as np

    from ..pipelines.ingest import lake_num_partitions
    from ..stages.keys import KEY_SEP, key_strings, stable_hash64

    if not keys:
        return pa.table({})
    P = num_partitions or lake_num_partitions(lake_dir)
    if P <= 0:
        return pa.table({})
    keytab = pa.table({"repo": [k[0] for k in keys], "path": [k[1] for k in keys]})
    parts = stable_hash64(key_strings(keytab)) % np.uint64(P)
    by_part: dict[int, list[int]] = {}
    for i, p in enumerate(parts):
        by_part.setdefault(int(p), []).append(i)

    refs = []
    for part, idxs in sorted(by_part.items()):
        repos = sorted({keys[i][0] for i in idxs})
        keyset = sorted({keys[i][0] + KEY_SEP + keys[i][1] for i in idxs})
        refs.append(_read_history_part.remote(lake_dir, part, repos, keyset))
    tabs = [t for t in ray.get(refs) if t.num_rows]
    if not tabs:
        return pa.table({})
    out = concat_evolved(tabs)
    # cross-epoch duplicate delivery tolerance: one row per (repo, path, lsn)
    from ..stages.keys import first_indices

    out = out.take(first_indices(out, key=("repo", "path", "lsn")))
    return out.take(
        pc.sort_indices(
            out,
            sort_keys=[
                ("repo", "ascending"), ("path", "ascending"), ("lsn", "ascending"),
            ],
        )
    )


def state_at_lsn(lake_dir: str, lsn: int, num_buckets: int = 64) -> ray.data.Dataset:
    """LSN-grain time travel FROM THE ARCHIVE: reconstruct the live table
    state as of any LSN — per key, the max-LSN version ``<= lsn`` wins;
    a winning delete means the key is dead. Finer-grained than the state
    files' epoch-grain time travel (``read_lake(as_of_epoch=...)``): the
    archive keeps every version, so any point in the stream is
    reconstructable. Same bucket-exchange + vectorized-kernel shape as
    :func:`scd2_view`; reads every archive column (payload included), so
    the result schema matches the live state minus the tombstone/envelope
    internals, with ``applied_lsn`` = the winning version's LSN.

    Arrow-native end to end: the old pandas kernels silently upcast int
    columns (delete rows carry null ``size_bytes`` → float64 on the
    Arrow→pandas hop), which broke the driver's dtype-sensitive hash in
    round 4. Arrow filters/takes preserve dtypes exactly, so winners come
    out int64 with no nulls and realize as int64 in pandas."""
    import numpy as np
    import pyarrow.compute as pc

    from ..functions.text import md5_u64

    files = history_files(lake_dir)  # ONE listing, reused for the read
    if not files:  # empty archive → typed empty state
        from ..schemas import STATE_SCHEMA

        empty = STATE_SCHEMA.empty_table().drop_columns(["deleted"])
        return ray.data.from_arrow(empty)
    ds = ray.data.read_parquet(files, partitioning=None)

    def add_bucket(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["lsn"], lsn))  # prune before the exchange
        # ALWAYS assign __bucket — a fully-pruned batch must keep the same
        # schema as its siblings or the groupby key goes missing
        key = [
            f"{r}\x00{p}"
            for r, p in zip(t["repo"].to_pylist(), t["path"].to_pylist())
        ]
        bucket = (
            md5_u64(key).view(np.int64) % num_buckets
            if key
            else np.array([], np.int64)
        )
        return t.append_column("__bucket", pa.array(bucket, pa.int64()))

    def last_version(g: pa.Table) -> pa.Table:
        g = g.take(
            pc.sort_indices(
                g,
                sort_keys=[
                    ("repo", "ascending"),
                    ("path", "ascending"),
                    ("lsn", "ascending"),
                ],
            )
        )
        repo = g["repo"].to_numpy(zero_copy_only=False)
        path = g["path"].to_numpy(zero_copy_only=False)
        lsn_np = g["lsn"].to_numpy(zero_copy_only=False)
        same_next = (repo[:-1] == repo[1:]) & (path[:-1] == path[1:])
        # cross-epoch duplicate delivery tolerance: one row per (repo, path, lsn)
        dup = np.concatenate(([False], same_next & (lsn_np[:-1] == lsn_np[1:])))
        if dup.any():
            keep = np.flatnonzero(~dup)
            g = g.take(pa.array(keep))
            repo, path = repo[keep], path[keep]
            same_next = (repo[:-1] == repo[1:]) & (path[:-1] == path[1:])
        is_last = (
            np.concatenate((~same_next, [True])) if len(repo) else np.array([], bool)
        )
        op = g["op"].to_numpy(zero_copy_only=False)
        g = g.filter(pa.array(is_last & (op != "delete")))
        g = g.drop_columns(["op", "__bucket"])
        return g.rename_columns(
            ["applied_lsn" if c == "lsn" else c for c in g.column_names]
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bucket")
        .map_groups(last_version, batch_format="pyarrow")
    )


def scd2_view(
    lake_dir: str,
    num_buckets: int = 64,
    as_of_epoch: int | None = None,
) -> ray.data.Dataset:
    """SCD2 dimension from the history sidecar: every archived non-delete
    version opens an interval ``[lsn, next-version-lsn)``; a later version
    of ANY op closes it; a trailing non-delete version is current
    (``valid_to_lsn = -1`` sentinel, ``is_current = 1``).

    Distribution: bucket-keyed exchange on hash(repo, path) → per-bucket
    vectorized shift over (repo, path, lsn)-sorted rows. Cross-epoch
    replays of the SAME version (at-least-once delivery that straddles an
    epoch boundary) dedupe inside the bucket kernel, so the view is stable
    under any delivery schedule the engine itself tolerates."""
    import numpy as np
    import pandas as pd

    from ..functions.text import md5_u64

    files = history_files(lake_dir, as_of_epoch)  # ONE listing (O(epochs×P) stats)
    if not files:  # empty archive → typed empty
        return ray.data.from_arrow(
            pa.table(
                {
                    "repo": pa.array([], pa.string()),
                    "path": pa.array([], pa.string()),
                    "commit": pa.array([], pa.string()),
                    "lang": pa.array([], pa.string()),
                    "valid_from_lsn": pa.array([], pa.int64()),
                    "valid_to_lsn": pa.array([], pa.int64()),
                    "is_current": pa.array([], pa.int64()),
                }
            )
        )
    ds = ray.data.read_parquet(
        files, columns=["repo", "path", "commit", "lang", "lsn", "op"]
    )

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        key = (b["repo"].astype(str) + "\x00" + b["path"].astype(str)).tolist()
        b["__bucket"] = md5_u64(key).view(np.int64) % num_buckets
        return b

    def scd2_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = (
            g.sort_values(["repo", "path", "lsn"], kind="stable")
            .drop_duplicates(["repo", "path", "lsn"], keep="first")
            .reset_index(drop=True)
        )
        same_next = (g["repo"].shift(-1) == g["repo"]) & (
            g["path"].shift(-1) == g["path"]
        )
        # pure-int64 next-LSN: pandas shift() detours through float64 and
        # corrupts LSNs above 2^53 (timestamp-derived / sharded 64-bit ids)
        lsn = g["lsn"].to_numpy(np.int64)
        nxt = np.where(
            same_next.to_numpy(), np.append(lsn[1:], np.int64(-1)), np.int64(-1)
        )
        keep = (g["op"] != "delete").to_numpy()
        out = pd.DataFrame(
            {
                "repo": g["repo"],
                "path": g["path"],
                "commit": g["commit"],
                "lang": g["lang"],
                "valid_from_lsn": lsn,
                "valid_to_lsn": nxt,
                "is_current": (nxt == -1).astype("int64"),
            }
        )
        return out[keep]

    return (
        ds.map_batches(add_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(scd2_bucket, batch_format="pandas")
    )


def pit_join(
    lake_dir: str,
    probe: ray.data.Dataset,
    at_column: str = "at_lsn",
    payload: tuple[str, ...] = ("commit", "lang"),
    num_buckets: int = 64,
    as_of_epoch: int | None = None,
) -> ray.data.Dataset:
    """Point-in-time (temporal) join: enrich each probe row with the
    archived version of its (repo, path) key that was valid AT the probe's
    ``at_column`` LSN — "what did this file look like when that event
    happened". The warehouse PIT-lookup over the SCD2 archive, with the
    same distribution as :func:`scd2_view`: versions and probes ride ONE
    bucket-keyed exchange on hash(repo, path) (fan-out ``num_buckets``,
    independent of key cardinality), then a vectorized last-version-≤-at
    scan inside each bucket — a composite-key sort + cummax, never
    per-key Python.

    Output: every probe column, plus ``asof_lsn`` (matched version LSN,
    -1 when the key has no version yet), ``asof_op``, and
    ``asof_<payload>`` columns (NULL when unmatched or when the matched
    version is a delete — the key did not exist at that instant).
    Versions replayed across epochs dedupe inside the kernel."""
    import numpy as np
    import pandas as pd

    from ..functions.text import md5_u64

    files = history_files(lake_dir, as_of_epoch)
    ver = (
        ray.data.read_parquet(files, columns=["repo", "path", "lsn", "op", *payload])
        if files
        else None
    )

    probe_schema = probe.schema()
    probe_cols = list(probe_schema.names)
    reserved = {"__lsn", "__side", "__bucket", "lsn"}
    if reserved & set(probe_cols):
        raise ValueError(f"probe columns collide with reserved names: {reserved & set(probe_cols)}")
    out_cols = probe_cols + ["asof_lsn", "asof_op"] + [f"asof_{c}" for c in payload]

    # both exchange sides emit the SAME column set, with typed defaults for
    # the columns the other side lacks: a ragged union would make pandas
    # null-fill probe int columns on version blocks and promote them to
    # float64 (silently corrupting ids above 2^53)
    ver_only = ["op", *[c for c in payload if c not in probe_cols]]
    probe_only = [c for c in probe_cols if c not in ("repo", "path")]
    def _numkind(typ) -> str:
        # Ray schemas carry pyarrow types for arrow blocks but numpy /
        # python types for pandas blocks — classify either
        if isinstance(typ, pa.DataType):
            if pa.types.is_integer(typ):
                return "i"
            if pa.types.is_floating(typ):
                return "f"
            return "o"
        try:
            dt = np.dtype(typ)
        except TypeError:
            return "o"
        if np.issubdtype(dt, np.integer):
            return "i"
        if np.issubdtype(dt, np.floating):
            return "f"
        return "o"

    probe_defaults: dict[str, Any] = {}
    for name, typ in zip(probe_schema.names, probe_schema.types):
        if name in probe_only:
            k = _numkind(typ)
            probe_defaults[name] = (
                np.int64(0) if k == "i" else np.float64(0.0) if k == "f" else None
            )

    def tag_probe(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__lsn"] = b[at_column].astype("int64")
        b["__side"] = np.int64(1)
        for c in ver_only:
            b[c] = None
        return b

    def tag_ver(b: pd.DataFrame) -> pd.DataFrame:
        b = b.rename(columns={"lsn": "__lsn"})
        b["__side"] = np.int64(0)
        for c, default in probe_defaults.items():
            # only fill columns the version block LACKS: a payload column
            # that also exists in the probe schema is already present here
            # with the archived values — overwriting it with the probe-side
            # typed default would make asof_<col> silently report 0/None
            if c not in b.columns:
                b[c] = default
        return b

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        key = (b["repo"].astype(str) + "\x00" + b["path"].astype(str)).tolist()
        b["__bucket"] = md5_u64(key).view(np.int64) % num_buckets
        return b

    def pit_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["repo", "path", "__lsn", "__side"], kind="stable")
        side = g["__side"].to_numpy(np.int64)
        # cross-epoch replays deliver identical version rows: keep one
        dup = (
            g.duplicated(["repo", "path", "__lsn", "__side"], keep="first").to_numpy()
            & (side == 0)
        )
        g = g[~dup].reset_index(drop=True)
        side = g["__side"].to_numpy(np.int64)
        n = len(g)
        repo = g["repo"].to_numpy(object)
        path = g["path"].to_numpy(object)
        newkey = np.ones(n, dtype=bool)
        if n > 1:
            newkey[1:] = (repo[1:] != repo[:-1]) | (path[1:] != path[:-1])
        grp = np.cumsum(newkey) - 1
        pos = np.arange(n, dtype=np.int64)
        ver_pos = np.where(side == 0, pos, np.int64(-1))
        filled = np.maximum.accumulate(ver_pos)
        is_probe = side == 1
        pidx = pos[is_probe]
        vidx = filled[is_probe]
        ok = (vidx >= 0) & (grp[np.maximum(vidx, 0)] == grp[pidx])
        out = g.loc[is_probe, probe_cols].reset_index(drop=True)
        safe = np.maximum(vidx, 0)
        lsn = g["__lsn"].to_numpy(np.int64)
        op = g["op"].to_numpy(object) if "op" in g else np.full(n, None, object)
        out["asof_lsn"] = np.where(ok, lsn[safe], np.int64(-1))
        out["asof_op"] = pd.array(np.where(ok, op[safe], None), dtype="object")
        deleted = ok & (out["asof_op"].to_numpy(object) == "delete")
        for c in payload:
            src = g[c].to_numpy(object) if c in g else np.full(n, None, object)
            vals = np.where(ok & ~deleted, src[safe], None)
            out[f"asof_{c}"] = pd.array(vals, dtype="object")
        return out[out_cols]

    tagged_probe = probe.map_batches(tag_probe, batch_format="pandas")
    if ver is None:
        both = tagged_probe
    else:
        both = ver.map_batches(tag_ver, batch_format="pandas").union(tagged_probe)
    return (
        both.map_batches(add_bucket, batch_format="pandas")
        .groupby("__bucket")
        .map_groups(pit_bucket, batch_format="pandas")
    )
