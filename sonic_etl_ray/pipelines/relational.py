"""Relational operator pipelines over the driver test tables.

These exercise the engine's general operator surface — vectorized
projections/filters (the ``transform_*`` family analog,
``transformation/common.rs``), grouped aggregations (the per-block count
aggregates A1–A4), broadcast-small-side joins (the trace-count join J1 and
event-catalog lookup J2), sort/limit, distinct — expressed Ray-Data-first:
column-pruned reads, Arrow ``map_batches``, pre-aggregation before the
shuffle, ``ray.put`` broadcast for dimension tables.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from sonic_etl_ray.stages.joins import safe_join


def _cents(expr: pa.ChunkedArray | pa.Array, scale: float = 100.0) -> pa.Array:
    """``expr · scale`` as int64, rounded half away from zero like the
    DuckDB oracles' ``ROUND`` (Arrow's default rounds half to even)."""
    return pc.cast(
        pc.round(pc.multiply(expr, pa.scalar(scale)), round_mode="half_towards_infinity"),
        pa.int64(),
    )


def _read(sf_dir: str, table: str, columns: list[str] | None = None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def q1_pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-shaped grouped aggregate with derived columns.

    Bit-exact across engines and shuffle orders: the money/quantity inputs
    carry exactly 2 decimal digits, so every SUM is computed as an exact
    scaled-int64 sum (order-independent — distributed accumulation order
    cannot move the result) and converted to float once at the end with a
    fixed division sequence mirrored verbatim by the DuckDB oracle."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_tax", "l_shipdate"],
    )

    def derive(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1998-09-01"))))

        one_minus_d = pc.subtract(pa.scalar(1.0), t["l_discount"])
        disc = pc.multiply(t["l_extendedprice"], one_minus_d)
        charge = pc.multiply(disc, pc.add(pa.scalar(1.0), t["l_tax"]))
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty_c": _cents(t["l_quantity"], 1e2),
                "price_c": _cents(t["l_extendedprice"], 1e2),
                "disc_c": _cents(t["l_discount"], 1e2),
                "disc_price_c": _cents(disc, 1e4),  # 2+2 decimal digits
                "charge_c": _cents(charge, 1e6),  # 2+2+2 decimal digits
            }
        )

    out = (
        ds.map_batches(derive, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty_c", alias_name="qty_c"),
            Sum("price_c", alias_name="price_c"),
            Sum("disc_price_c", alias_name="disc_price_c"),
            Sum("charge_c", alias_name="charge_c"),
            Sum("disc_c", alias_name="disc_c"),
            Count(alias_name="count_order"),
        )
        .to_pandas()
    )
    n = out["count_order"].astype("int64")
    res = pd.DataFrame(
        {
            "l_returnflag": out["l_returnflag"],
            "l_linestatus": out["l_linestatus"],
            "sum_qty": out["qty_c"] / 100.0,
            "sum_base_price": out["price_c"] / 100.0,
            "sum_disc_price": out["disc_price_c"] / 10000.0,
            "sum_charge": out["charge_c"] / 1000000.0,
            "avg_qty": out["qty_c"] / 100.0 / n,
            "avg_price": out["price_c"] / 100.0 / n,
            "avg_disc": out["disc_c"] / 100.0 / n,
            "count_order": n,
        }
    )
    return res.sort_values(["l_returnflag", "l_linestatus"]).reset_index(drop=True)


def filter_project_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6-shaped: vectorized filter + projection + global sum."""
    ds = _read(sf_dir, "lineitem", ["l_quantity", "l_extendedprice", "l_discount", "l_shipdate"])

    def f(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.and_(
                pc.greater_equal(t["l_shipdate"], pa.scalar(pd.Timestamp("1994-01-01"))),
                pc.less(t["l_shipdate"], pa.scalar(pd.Timestamp("1997-01-01"))),
            ),
            pc.and_(
                pc.greater_equal(t["l_discount"], pa.scalar(0.02)),
                pc.less(t["l_quantity"], pa.scalar(30.0)),
            ),
        )
        t = t.filter(m)
        rev = pc.multiply(t["l_extendedprice"], t["l_discount"])
        # partial aggregate inside the batch — one row leaves each batch
        return pa.table({"revenue": [pc.sum(rev).as_py() or 0.0]})

    parts = ds.map_batches(f, batch_format="pyarrow")
    total = parts.aggregate(Sum("revenue", alias_name="revenue"))
    return pd.DataFrame({"revenue": [total["revenue"]]})


def join_orders_customers(sf_dir: str) -> pd.DataFrame:
    """Broadcast hash join (small side via ray.put) + grouped aggregate:
    revenue per customer market segment and nation name."""
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    cdf = cust.to_pandas().merge(
        nation.to_pandas(), left_on="c_nationkey", right_on="n_nationkey"
    )[["c_custkey", "c_mktsegment", "n_name"]]
    ref = ray.put(cdf.set_index("c_custkey"))

    class Enrich:
        def __init__(self, ref):
            self.dim = ray.get(ref)  # fetched once at construction (small dim)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            j = batch.merge(self.dim, left_on="o_custkey", right_index=True, how="inner")
            return (
                j.groupby(["c_mktsegment", "n_name"], as_index=False)
                .agg(total_price=("o_totalprice", "sum"), n_orders=("o_orderkey", "count"))
            )

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    partials = ds.map_batches(Enrich(ref), batch_format="pandas")
    out = (
        partials.groupby(["c_mktsegment", "n_name"])
        .aggregate(Sum("total_price", alias_name="total_price"), Sum("n_orders", alias_name="n_orders"))
        .to_pandas()
    )
    return out.sort_values(["c_mktsegment", "n_name"]).reset_index(drop=True)


def native_join_revenue_by_segment(sf_dir: str) -> pd.DataFrame:
    """Hash-partitioned distributed join via the native ``Dataset.join``
    (both-sides-large path — the alternative to the broadcast join in
    :func:`join_orders_customers`; at scale, num_partitions is the explicit
    shuffle fan-out on the join key)."""
    o = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    c = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    j = safe_join(o, c, join_type="inner", num_partitions=8, on=("o_custkey",), right_on=("c_custkey",))
    out = (
        j.groupby("c_mktsegment")
        .aggregate(Sum("o_totalprice", alias_name="total_price"), Count(alias_name="n_orders"))
        .to_pandas()
    )
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("c_mktsegment").reset_index(drop=True)


def top_orders_by_revenue(sf_dir: str) -> pd.DataFrame:
    """Join + groupby + top-k (sort/limit): top 10 orders by lineitem revenue."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        t2 = pa.table({"l_orderkey": t["l_orderkey"], "revenue": rev})
        return t2.group_by("l_orderkey").aggregate([("revenue", "sum")]).rename_columns(["l_orderkey", "revenue"])

    per_order = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("l_orderkey")
        .aggregate(Sum("revenue", alias_name="revenue"))
    )

    def local_topk(t: pa.Table) -> pa.Table:
        # per-block top-k so the global sort sees ≤k rows per block
        idx = pc.sort_indices(
            t, sort_keys=[("revenue", "descending"), ("l_orderkey", "ascending")]
        )
        return t.take(idx[:10])

    top = (
        per_order.map_batches(local_topk, batch_format="pyarrow")
        .sort(["revenue", "l_orderkey"], descending=[True, False])
        .limit(10)
    )
    return top.to_pandas()


def q5_revenue_by_nation(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5-shaped multi-join: lineitem ⋈ orders ⋈ customer ⋈ nation ⋈
    region, revenue per nation for one region.

    Scale shape: ONLY the genuinely small dimension chain (nation ⋈
    region, 25 rows, pre-filtered to the target region) is built on the
    driver and broadcast via ``ray.put``. Customer — the classic
    too-big-to-broadcast TPC-H dimension — STREAMS: each batch keeps the
    target-region customers via the tiny nationkey→name lookup, and the
    customer⋈orders edge goes through :func:`safe_join`, which broadcasts
    the filtered customer side worker-side while it measures small and
    switches to the hash-partitioned join when it doesn't (no full-table
    driver read at any scale). Lineitem is pre-aggregated per order inside
    each batch; the fact⋈fact edge is the native hash join on the order
    key. No fact or large-dimension table ever touches the driver."""
    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    target_region = region.sort_values("r_regionkey").r_name.iloc[0]
    ndim = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    ndim = ndim[ndim.r_name == target_region][["n_nationkey", "n_name"]]
    ref = ray.put(dict(zip(ndim.n_nationkey, ndim.n_name)))

    class EnrichCustomers:
        def __init__(self, ref):
            self.lut = ray.get(ref)  # 25-entry nationkey→name, tiny

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            n_name = b["c_nationkey"].map(self.lut)
            keep = n_name.notna()
            return pd.DataFrame(
                {"c_custkey": b["c_custkey"][keep], "n_name": n_name[keep]}
            )

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
        EnrichCustomers(ref), batch_format="pandas"
    )
    orders = safe_join(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        cust,
        join_type="inner",
        num_partitions=8,
        on=("o_custkey",),
        right_on=("c_custkey",),
    ).select_columns(["o_orderkey", "n_name"])

    def li_partial(t: pa.Table) -> pa.Table:
        rev = pc.multiply(t["l_extendedprice"], pc.subtract(pa.scalar(1.0), t["l_discount"]))
        part = (
            pa.table({"l_orderkey": t["l_orderkey"], "revenue": rev})
            .group_by("l_orderkey")
            .aggregate([("revenue", "sum")])
        )
        return part.rename_columns(["l_orderkey", "revenue"])

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]).map_batches(
        li_partial, batch_format="pyarrow"
    )
    joined = safe_join(
        li, orders, join_type="inner", num_partitions=8,
        on=("l_orderkey",), right_on=("o_orderkey",),
    )
    out = joined.groupby("n_name").aggregate(Sum("revenue", alias_name="revenue")).to_pandas()
    return out.sort_values("n_name").reset_index(drop=True)


def distinct_mktsegments(sf_dir: str) -> pd.DataFrame:
    vals = sorted(_read(sf_dir, "customer", ["c_mktsegment"]).unique("c_mktsegment"))
    return pd.DataFrame({"c_mktsegment": vals})


def supplier_balance_stats(sf_dir: str) -> pd.DataFrame:
    """Min/max/mean/count aggregate by nation over supplier."""
    out = (
        _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])
        .groupby("s_nationkey")
        .aggregate(
            Min("s_acctbal", alias_name="min_bal"),
            Max("s_acctbal", alias_name="max_bal"),
            Mean("s_acctbal", alias_name="avg_bal"),
            Count(alias_name="n_suppliers"),
        )
        .to_pandas()
    )
    # Ray's sort-based groupby promotes the int32 parquet key to int64;
    # restore the source dtype so the realized frame matches the oracle's.
    out["s_nationkey"] = out["s_nationkey"].astype("int32")
    return out.sort_values("s_nationkey").reset_index(drop=True)


def windowed_user_daily(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-day event-time window per user (streaming-shaped analog of
    the reference's time-bucketed GCS sink, ``output/gcs.rs:57-191``)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        # shuffle on the window start as int64 epoch-µs, not timestamp:
        # integer keys exchange cheaper, and Ray's sort-map samples
        # midnight-aligned timestamps through a numpy datetime64[D] detour
        day = pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.int64())
        t2 = pa.table({"user_id": t["user_id"], "day": day, "value": t["value"]})
        part = t2.group_by(["user_id", "day"]).aggregate([("value", "sum"), ("value", "count")])
        return part.rename_columns(["user_id", "day", "sum_value", "n_events"])

    out = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .aggregate(Sum("sum_value", alias_name="sum_value"), Sum("n_events", alias_name="n_events"))
        .to_pandas()
    )
    out["day"] = pd.to_datetime(out["day"], unit="us")
    return out.sort_values(["user_id", "day"]).reset_index(drop=True)


_USER_BUCKETS = 64  # hash-bucket exchange width for per-user kernels


def _bucket_by_user(ds: ray.data.Dataset, num_buckets: int = _USER_BUCKETS) -> ray.data.Dataset:
    """Append ``__bucket = user_id & (B-1)`` — the bucket-exchange pattern
    (same as :func:`sliding_user_window`/:func:`funnel_conversion`): the
    shuffle key has B values instead of |users|, so the groupby's sort
    machinery touches a tiny key domain and each group lands as ONE frame
    whose per-user work is done by vectorized cython kernels, not one
    Python call per user (Ray's sort-based groupby on high-cardinality keys
    measured 0.47 scaling efficiency; this is the fix)."""
    if num_buckets & (num_buckets - 1):
        raise ValueError(
            f"num_buckets must be a power of two (got {num_buckets}): the "
            "bucket is a bit mask, and a non-power mask silently skews the "
            "exchange into fewer, fatter partitions"
        )
    return ds.map_batches(
        lambda t: t.append_column(
            "__bucket",
            pc.cast(pc.bit_wise_and(t.column("user_id"), num_buckets - 1), pa.int64()),
        ),
        batch_format="pyarrow",
    )


def sessionize_events(sf_dir: str, gap_minutes: int = 30) -> pd.DataFrame:
    """Session windows per user: a >gap_minutes silence starts a new session
    (streaming session-window semantics over the ordered per-key log; the
    bucket is the partition, the sort inside the bucket is the ordering
    assumption — Ray Data has no event-time watermarks, see ray_guide).

    Scale shape: ONE bucket-keyed exchange (64 groups, not |users|); inside
    each bucket the session flag, per-user session numbering and the
    per-session aggregate are all segmented cython kernels over the
    (user, ts, event_id)-sorted frame — no per-user Python."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    gap = pd.Timedelta(minutes=gap_minutes)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable").reset_index(drop=True)
        same_user = g["user_id"].eq(g["user_id"].shift())
        new_session = (~same_user) | (g["ts"] - g["ts"].shift() > gap)
        sid_global = new_session.cumsum()  # int, exact
        # per-user renumbering from 1: subtract the user's first global sid
        first = sid_global.groupby(g["user_id"], sort=False).transform("first")
        g = g.assign(session_id=(sid_global - first + 1).astype("int64"))
        out = g.groupby(["user_id", "session_id"], as_index=False, sort=False).agg(
            n_events=("event_id", "count"),
            start_ts=("ts", "min"),
            end_ts=("ts", "max"),
        )
        out["n_events"] = out["n_events"].astype("int64")
        return out.drop(columns=["__bucket"], errors="ignore")

    out = (
        _bucket_by_user(ds)
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["user_id", "session_id"]).reset_index(drop=True)


def asof_join_last_signup(sf_dir: str) -> pd.DataFrame:
    """As-of join: each purchase event matched to the same user's most recent
    prior-or-equal signup event. Composition: bucket-keyed exchange →
    per-bucket grouped ``pd.merge_asof(by="user_id")`` over time-sorted
    frames (no Ray-native as-of join; merge_asof's by= grouping is the
    cython segmented backward search, one call per BUCKET not per user)."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        purchases = (
            g[g.event_type == "purchase"][["event_id", "user_id", "ts", "value"]]
            .sort_values(["ts", "event_id"], kind="stable")
            .reset_index(drop=True)
        )
        if purchases.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series(dtype="int64"),
                    "user_id": pd.Series(dtype="int64"),
                    "value": pd.Series(dtype="float64"),
                    "signup_event_id": pd.Series(dtype="Int64"),
                }
            )
        # pinned tie-break (mirrored in the oracle): among signups sharing a
        # (user, timestamp), the max event_id is the match candidate
        signups = (
            g[g.event_type == "signup"][["user_id", "ts", "event_id"]]
            .sort_values(["ts", "event_id"], kind="stable")
            .drop_duplicates(subset=["user_id", "ts"], keep="last")
            .rename(columns={"ts": "signup_ts", "event_id": "signup_event_id"})
            .sort_values("signup_ts", kind="stable")
        )
        j = pd.merge_asof(
            purchases,
            signups,
            left_on="ts",
            right_on="signup_ts",
            by="user_id",
            direction="backward",
        )
        j["signup_event_id"] = j["signup_event_id"].astype("Int64")
        return j[["event_id", "user_id", "value", "signup_event_id"]]

    out = (
        _bucket_by_user(ds)
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    if out.empty and "event_id" not in out.columns:
        # no purchase in any bucket: empty Ray blocks drop the schema
        out = pd.DataFrame(
            {
                "event_id": pd.Series(dtype="int64"),
                "user_id": pd.Series(dtype="int64"),
                "value": pd.Series(dtype="float64"),
                "signup_event_id": pd.Series(dtype="Int64"),
            }
        )
    return out.sort_values("event_id").reset_index(drop=True)


def _footer_bounds(path: str, col: str) -> tuple[float, float] | None:
    """Global [min, max] of a column from Parquet row-group statistics —
    footer reads only, no data scan (bucket bounds for quantile passes;
    any value works as long as it brackets the data)."""
    import pyarrow.parquet as pq

    try:
        md = pq.read_metadata(path)
        idx = md.schema.to_arrow_schema().get_field_index(col)
        los, his = [], []
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                return None
            los.append(st.min)
            his.append(st.max)
        return float(min(los)), float(max(his))
    except Exception:
        return None


def price_percentiles(sf_dir: str, n_buckets: int = 1 << 16) -> pd.DataFrame:
    """EXACT distributed quantiles of ``l_extendedprice`` without a global
    sort and without collecting the column: two bounded passes.

    Pass 1: per-batch counts into ``n_buckets`` fixed-width buckets over
    [min, max] → one small groupby → a ≤64k-row histogram on the driver
    (bounded regardless of input cardinality — the column here is
    near-unique, so a value-level histogram would BE the column; at 10^10
    rows that is a driver OOM, this is not). The cumulative histogram
    locates, for each quantile rank ceil(q·n)−1 (DuckDB ``quantile_disc``'s
    exact rule, verified empirically), the bucket holding it and the rank
    offset inside that bucket.

    Pass 2: collect ONLY the values in the few candidate buckets
    (≈ n/n_buckets rows each — ~150k at 10^10 rows), sort exactly, select.
    Exact order statistics, no sampling error."""
    import math

    import numpy as np

    qs = [0.25, 0.5, 0.75, 0.95, 0.99]
    col = "l_extendedprice"
    ds = _read(sf_dir, "lineitem", [col])
    bounds = _footer_bounds(f"{sf_dir}/lineitem.parquet", col)
    if bounds is not None:
        lo, hi = bounds  # free: Parquet row-group stats, no execution
    else:
        agg = ds.aggregate(Min(col), Max(col))
        lo, hi = float(agg[f"min({col})"]), float(agg[f"max({col})"])
    if hi <= lo:  # degenerate: constant column
        return pd.DataFrame({"q": qs, "price": [lo] * len(qs)})
    width = (hi - lo) / n_buckets

    def bucket_counts(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col], dtype=np.float64)
        b = np.minimum(((v - lo) / width).astype(np.int64), n_buckets - 1)
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bucket": pa.array(u, pa.int64()), "n": pa.array(c, pa.int64())})

    hist = (
        ds.map_batches(bucket_counts, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    cum = hist["n"].cumsum().to_numpy()
    n = int(cum[-1])
    ranks = [math.ceil(q * n) - 1 for q in qs]  # 0-based, quantile_disc rule
    need: dict[int, list[int]] = {}  # bucket -> local ranks
    for k in ranks:
        i = int(np.searchsorted(cum, k + 1, side="left"))
        before = int(cum[i - 1]) if i else 0
        need.setdefault(int(hist["bucket"].iloc[i]), []).append(k - before)

    wanted = np.array(sorted(need), dtype=np.int64)

    def in_buckets(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col], dtype=np.float64)
        b = np.minimum(((v - lo) / width).astype(np.int64), n_buckets - 1)
        mask = np.isin(b, wanted)
        return pa.table(
            {"bucket": pa.array(b[mask], pa.int64()), "v": pa.array(v[mask], pa.float64())}
        )

    refs = ds.map_batches(in_buckets, batch_format="pyarrow").to_arrow_refs()
    cand = pa.concat_tables([t for t in ray.get(refs) if t.num_rows]).to_pandas()
    out_vals = []
    for q, k in zip(qs, ranks):
        i = int(np.searchsorted(cum, k + 1, side="left"))
        before = int(cum[i - 1]) if i else 0
        b = int(hist["bucket"].iloc[i])
        vals = np.sort(cand.loc[cand["bucket"] == b, "v"].to_numpy())
        out_vals.append(float(vals[k - before]))
    return pd.DataFrame({"q": qs, "price": out_vals})


def top_orders_per_segment(sf_dir: str, k: int = 3) -> pd.DataFrame:
    """Grouped top-k (the window-function ``row_number() <= k`` analog):
    top-k orders by price per market segment. Broadcast customer dim into
    the fact scan; every batch emits at most k rows per segment, so the
    final per-segment reduce sees ≤ k·blocks tiny rows — no global sort of
    the fact table, one small shuffle on the 5 segment keys."""
    import pyarrow.parquet as pq

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    ref = ray.put(cust.to_pandas().set_index("c_custkey"))

    class LocalTopK:
        def __init__(self, ref):
            self.dim = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            j = batch.merge(self.dim, left_on="o_custkey", right_index=True, how="inner")
            j = j.sort_values(
                ["c_mktsegment", "o_totalprice", "o_orderkey"],
                ascending=[True, False, True],
                kind="stable",
            )
            return j.groupby("c_mktsegment", as_index=False).head(k)[
                ["c_mktsegment", "o_orderkey", "o_totalprice"]
            ]

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True], kind="stable"
        ).head(k)
        g["rank"] = range(1, len(g) + 1)
        return g

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    out = (
        ds.map_batches(LocalTopK(ref), batch_format="pandas")
        .groupby("c_mktsegment")
        .map_groups(final_topk, batch_format="pandas")
        .to_pandas()
    )
    out["rank"] = out["rank"].astype("int64")
    return out.sort_values(["c_mktsegment", "rank"]).reset_index(drop=True)


def user_running_value(sf_dir: str) -> pd.DataFrame:
    """Per-key ORDERED running aggregate (the cumulative window function,
    ``SUM(value) OVER (PARTITION BY user ORDER BY ts, id)``): one shuffle on
    the key, an in-group stable sort, a sequential cumsum — the per-key
    ordering discipline the merge already relies on (O1/O2), surfaced as a
    query operator. Output is row-per-event (a transform, not an aggregate);
    summation order matches the SQL window exactly, so values are
    bit-identical before the display rounding.

    Scale shape: bucket-keyed exchange (64 groups) → per-bucket segmented
    ``groupby(user).cumsum()`` over the (user, ts, event_id)-sorted frame —
    cython sequential accumulation per user (numerically identical to the
    per-user loop it replaces), no per-user Python calls."""
    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="stable").reset_index(drop=True)
        return pd.DataFrame(
            {
                "event_id": g["event_id"],
                "user_id": g["user_id"],
                "running_value": g.groupby("user_id", sort=False)["value"].cumsum(),
            }
        )

    out = (
        _bucket_by_user(ds)
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    return out.sort_values(["user_id", "event_id"]).reset_index(drop=True)


def attribution_range_join(sf_dir: str, window_minutes: int = 30) -> pd.DataFrame:
    """Equi + range join (purchase attribution): each purchase event joined
    to the same user's view/click events in the half-open window
    [purchase_ts − window, purchase_ts), emitting touch count + value sum.

    Range joins have no Ray-native operator; the composition is: tag both
    sides in the SAME scan (one pruned read of events), ONE bucket-keyed
    exchange (64 groups, not |users|), then a per-bucket grouped prefix-sum
    sweep: each user's sources carry running (count, cents) prefixes
    (segmented cython cumsum), and both window bounds are resolved with
    ``pd.merge_asof(by=user, allow_exact_matches=False)`` — the strict-<
    prefix at ``ts`` minus the strict-< prefix at ``ts − window`` IS the
    half-open window aggregate. O((a+s)·log s) per bucket, all cython; no
    per-user Python calls. A pure (no-equi-key) range join uses the same
    sweep after bucketing both sides by time bucket and replicating
    intervals into each bucket they overlap — the partitioning assumption
    is bounded interval length. Value sums are exact scaled-int64 cents
    (order-independent, hash-exact vs the SQL LEFT JOIN oracle)."""
    import numpy as np

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts", "value"])
    win = pd.Timedelta(minutes=window_minutes)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        anchors = (
            g[g.event_type == "purchase"][["event_id", "user_id", "ts"]]
            .sort_values("ts", kind="stable")
            .reset_index(drop=True)
        )
        if anchors.empty:
            return pd.DataFrame(
                {
                    "event_id": pd.Series(dtype="int64"),
                    "user_id": pd.Series(dtype="int64"),
                    "n_touches": pd.Series(dtype="int64"),
                    "touch_cents": pd.Series(dtype="int64"),
                }
            )
        src = (
            g[g.event_type.isin(("view", "click"))][["user_id", "ts", "value"]]
            .sort_values(["user_id", "ts"], kind="stable")
            .reset_index(drop=True)
        )
        cents = np.round(np.nan_to_num(src["value"].to_numpy(np.float64)) * 100.0).astype(np.int64)
        grp = src.groupby("user_id", sort=False)
        src = src.assign(
            cum_n=grp.cumcount() + 1,
            cum_cents=pd.Series(cents, index=src.index).groupby(src["user_id"], sort=False).cumsum(),
        )[["user_id", "ts", "cum_n", "cum_cents"]].sort_values("ts", kind="stable")

        def prefix_at(bound: pd.Series) -> pd.DataFrame:
            # strict-< prefix: last source row with ts < bound, per user
            q = anchors.assign(
                __bound=bound.to_numpy().astype(src["ts"].to_numpy().dtype)
            ).sort_values("__bound", kind="stable")
            m = pd.merge_asof(
                q,
                src,
                left_on="__bound",
                right_on="ts",
                by="user_id",
                direction="backward",
                allow_exact_matches=False,
            )
            m = m.sort_values("event_id", kind="stable").reset_index(drop=True)
            return m[["cum_n", "cum_cents"]].fillna(0)

        hi = prefix_at(anchors["ts"])  # sources strictly before the anchor
        lo = prefix_at(anchors["ts"] - win)  # strictly before the window start
        out = anchors.sort_values("event_id", kind="stable").reset_index(drop=True)
        return pd.DataFrame(
            {
                "event_id": out["event_id"],
                "user_id": out["user_id"],
                "n_touches": (hi["cum_n"] - lo["cum_n"]).astype("int64"),
                "touch_cents": (hi["cum_cents"] - lo["cum_cents"]).astype("int64"),
            }
        )

    out = (
        _bucket_by_user(ds)
        .groupby("__bucket")
        .map_groups(per_bucket, batch_format="pandas")
        .to_pandas()
    )
    if out.empty and "event_id" not in out.columns:
        # no anchor purchase anywhere: Ray drops even typed-empty schemas
        out = pd.DataFrame(
            {
                "event_id": pd.Series(dtype="int64"),
                "user_id": pd.Series(dtype="int64"),
                "n_touches": pd.Series(dtype="int64"),
                "touch_cents": pd.Series(dtype="int64"),
            }
        )
    return out.sort_values("event_id").reset_index(drop=True)


def rollup_revenue(sf_dir: str) -> pd.DataFrame:
    """Multi-level grouping-sets aggregate (GROUP BY ROLLUP analog): order
    count + revenue at (segment, priority), (segment) and grand-total levels
    from ONE shuffle. The distributed pass aggregates only the finest level
    (batch partials → one small groupby); coarser levels are derived from
    that ≤|segments|×|priorities| table on the driver — the correct scale
    shape whenever rollup keys are low-cardinality (additive aggregates
    re-aggregate exactly). NULL group cells use the 'ALL' sentinel on both
    sides (COALESCE in the oracle) so hashing is representation-stable.
    Money sums are exact scaled-int64 cents."""
    import numpy as np
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    ref = ray.put(dict(zip(cust["c_custkey"].to_pylist(), cust["c_mktsegment"].to_pylist())))

    class Partial:
        def __init__(self, ref):
            self.seg = ray.get(ref)

        def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
            b = b.assign(
                c_mktsegment=b["o_custkey"].map(self.seg),
                cents=np.round(np.nan_to_num(b["o_totalprice"].to_numpy(np.float64)) * 100.0).astype(np.int64),
            )
            out = b.groupby(["c_mktsegment", "o_orderpriority"], as_index=False).agg(
                n_orders=("cents", "size"), revenue_cents=("cents", "sum")
            )
            return out

    fine = (
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority", "o_totalprice"])
        .map_batches(Partial(ref), batch_format="pandas")
        .groupby(["c_mktsegment", "o_orderpriority"])
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("revenue_cents", alias_name="revenue_cents"),
        )
        .to_pandas()
    )
    by_seg = fine.groupby("c_mktsegment", as_index=False)[["n_orders", "revenue_cents"]].sum()
    by_seg["o_orderpriority"] = "ALL"
    total = pd.DataFrame(
        {
            "c_mktsegment": ["ALL"],
            "o_orderpriority": ["ALL"],
            "n_orders": [fine["n_orders"].sum()],
            "revenue_cents": [fine["revenue_cents"].sum()],
        }
    )
    out = pd.concat([fine, by_seg, total], ignore_index=True)
    out["n_orders"] = out["n_orders"].astype("int64")
    out["revenue_cents"] = out["revenue_cents"].astype("int64")
    return out.sort_values(["c_mktsegment", "o_orderpriority"]).reset_index(drop=True)


def pivot_orders_by_priority(sf_dir: str) -> pd.DataFrame:
    """Pivot (long → wide): order counts per (year, priority) as one row per
    year with a column per priority. The distributed part is the ordinary
    finest-level aggregate (batch partials → one small groupby); the pivot
    itself is a driver-side reshape of that ≤ |years|×|priorities| result —
    the correct split whenever the pivoted column set is known and small
    (SQL's static PIVOT has the same constraint)."""
    import numpy as np

    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def partial(t: pa.Table) -> pa.Table:
        year = pc.year(t["o_orderdate"])
        t2 = pa.table({"year": pc.cast(year, pa.int64()), "prio": t["o_orderpriority"]})
        out = t2.group_by(["year", "prio"]).aggregate([("prio", "count")])
        return out.rename_columns(["year", "prio", "n"])

    fine = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["year", "prio"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    prios = sorted(fine["prio"].unique())
    wide = fine.pivot_table(index="year", columns="prio", values="n", fill_value=0)
    wide = wide.reindex(columns=prios, fill_value=0).reset_index()
    # stable, SQL-friendly column names: p1_urgent … p5_low
    wide.columns = ["year"] + [
        "p" + p.split("-")[0].strip() + "_" + p.split("-")[1].strip().lower().replace(" ", "_")
        for p in prios
    ]
    for c in wide.columns:
        wide[c] = wide[c].astype("int64")
    return wide.sort_values("year").reset_index(drop=True)


def balance_moments(sf_dir: str) -> pd.DataFrame:
    """Mergeable second-moment aggregate: per-nation account-balance count,
    sum and sum-of-squares as EXACT scaled integers (cents / cents²) — the
    (n, Σx, Σx²) triple is the canonical mergeable summary behind
    mean/variance, and with 2-decimal inputs it is integer-exact, so the
    oracle compares bit-for-bit with no float-order sensitivity. Mean and
    population variance are derivable downstream; the engine ships only the
    merge-safe triple (same discipline as the sketches)."""
    import numpy as np

    ds = _read(sf_dir, "customer", ["c_nationkey", "c_acctbal"])

    def partial(b: pd.DataFrame) -> pa.Table:
        cents = np.round(np.nan_to_num(b["c_acctbal"].to_numpy(np.float64)) * 100.0).astype(np.int64)
        df = pd.DataFrame(
            {"c_nationkey": b["c_nationkey"].to_numpy(), "s": cents, "s2": cents * cents}
        )
        out = df.groupby("c_nationkey", as_index=False).agg(
            n=("s", "size"), sum_cents=("s", "sum"), sumsq_cents=("s2", "sum")
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    out = (
        ds.map_batches(partial, batch_format="pandas")
        .groupby("c_nationkey")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_cents", alias_name="sum_cents"),
            Sum("sumsq_cents", alias_name="sumsq_cents"),
        )
        .to_pandas()
    )
    for c in ("n", "sum_cents", "sumsq_cents"):
        out[c] = out[c].astype("int64")
    out["c_nationkey"] = out["c_nationkey"].astype("int64")
    return out.sort_values("c_nationkey").reset_index(drop=True)


def decode_props_partial(b: pd.DataFrame) -> pa.Table:
    """Vectorized JSON decode of the semi-structured ``props`` column (the
    generic-payload analog of the catalog decode in ``stages/decode.py`` —
    reference ``events/generic.rs:76-135`` — but over arbitrary JSON instead
    of a selector catalog). polars ``str.json_path_match`` is a real JSON
    parser running columnar in Rust; undecodable payloads yield null and are
    silently skipped (the ``GetEventBySigErr::NotFound`` outcome; the abort
    path is exercised by the catalog decoder). Stateless → task pool, not an
    actor pool (no catalog to load; actor ramp would dominate small inputs).

    Emits a per-batch COMBINED partial (one row per distinct key per batch),
    so the global groupby shuffles |keys| rows per batch, not |events|."""
    import polars as pl

    if not len(b):
        return pa.table(
            {
                "k": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "sum_value_cents": pa.array([], pa.int64()),
            }
        )
    # nan_to_num: a NULL value must contribute 0 to the sum (SQL SUM-skips-
    # NULL semantics), not INT64_MIN via an undefined NaN->int64 cast
    cents = np.round(
        np.nan_to_num(b["value"].to_numpy(np.float64)) * 100.0
    ).astype(np.int64)
    pf = pl.DataFrame({"props": b["props"].astype(str), "cents": cents})
    agg = (
        pf.with_columns(
            # strict=False: a non-integer k ('1.5', 'abc') decodes to null
            # and is SKIPPED per the documented contract — the strict cast
            # raised and aborted the whole pipeline on one such payload
            pl.col("props").str.json_path_match("$.k").cast(pl.Int64, strict=False).alias("k")
        )
        .drop_nulls("k")
        .group_by("k")
        .agg(
            pl.len().cast(pl.Int64).alias("n_events"),
            pl.col("cents").sum().alias("sum_value_cents"),
        )
    )
    return agg.to_arrow().cast(
        pa.schema(
            [("k", pa.int64()), ("n_events", pa.int64()), ("sum_value_cents", pa.int64())]
        )
    )


def decode_props_rollup(sf_dir: str) -> pd.DataFrame:
    """Decode the JSON ``props`` payload of every event and roll up event
    count + exact cent-sum per extracted key: read → vectorized JSON decode
    + in-batch combine → ONE small groupby. Money is order-independent
    scaled int64 (same discipline as q1)."""
    ds = _read(sf_dir, "events", ["props", "value"])
    out = (
        ds.map_batches(decode_props_partial, batch_format="pandas")
        .groupby("k")
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("sum_value_cents", alias_name="sum_value_cents"),
        )
        .to_pandas()
    )
    for c in ("k", "n_events", "sum_value_cents"):
        out[c] = out[c].astype("int64")
    return out.sort_values("k").reset_index(drop=True)


def sliding_user_window(
    sf_dir: str, window_days: int = 7, num_buckets: int = 64
) -> pd.DataFrame:
    """Sliding event-time window per key: for each user's active day, the
    exact cent-sum and active-day count over the trailing ``window_days``
    (SQL ``RANGE BETWEEN INTERVAL 6 DAY PRECEDING AND CURRENT ROW``) — the
    hopping-window complement to the tumbling ``windowed_user_daily``.

    Scale shape: per-batch (user, epoch-day) combiner → ONE groupby to daily
    grain (output rows = active user-days, ≪ events) → bucket-keyed exchange
    with the window computed VECTORIZED per bucket: rows sorted by
    (user, day) get a composite int64 key ``user_rank * 2^24 + epoch_day``,
    the trailing-window start is one ``np.searchsorted`` over the whole
    bucket (the composite key floor clamps the search to the row's own
    user), and the windowed sum is a prefix-sum difference. No per-user
    Python, no per-row loop."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def daily_partial(t: pa.Table) -> pa.Table:
        day = pc.cast(
            pc.divide(pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.int64()),
                      86_400_000_000),
            pa.int64(),
        )
        cents = _cents(t["value"])
        t2 = pa.table({"user_id": t["user_id"], "day": day, "cents": cents})
        part = t2.group_by(["user_id", "day"]).aggregate([("cents", "sum")])
        return part.rename_columns(["user_id", "day", "day_cents"])

    daily = (
        ds.map_batches(daily_partial, batch_format="pyarrow")
        .groupby(["user_id", "day"])
        .aggregate(Sum("day_cents", alias_name="day_cents"))
    )

    def bucket_window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "day"], kind="stable").reset_index(drop=True)
        day = g["day"].to_numpy(np.int64)
        cents = g["day_cents"].to_numpy(np.int64)
        user_rank = pd.factorize(g["user_id"].to_numpy())[0].astype(np.int64)
        comp = user_rank * (1 << 24) + day  # epoch-days < 2^24 by construction
        left = np.searchsorted(comp, user_rank * (1 << 24) + day - (window_days - 1))
        prefix = np.concatenate([[0], np.cumsum(cents)])
        idx = np.arange(len(g), dtype=np.int64)
        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64"),
                "day": pd.to_datetime(day * 86_400, unit="s").astype("datetime64[us]"),
                "day_cents": cents,
                "w_cents": prefix[idx + 1] - prefix[left],
                "w_days": idx + 1 - left,
            }
        )

    out = (
        _bucket_by_user(daily, num_buckets)
        .groupby("__bucket")
        .map_groups(bucket_window, batch_format="pandas")
        .to_pandas()
    )
    for c in ("user_id", "day_cents", "w_cents", "w_days"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["user_id", "day"]).reset_index(drop=True)


def grouped_price_percentiles(sf_dir: str, n_buckets: int = 1 << 14) -> pd.DataFrame:
    """EXACT per-group quantiles (``quantile_disc`` rule) of ``o_totalprice``
    by order priority — the grouped extension of :func:`price_percentiles`:
    no per-group sort of the fact table, no skew exposure when one group
    dominates.

    Pass 1: per-batch (group, fixed-width bucket) counts → one small groupby
    → a ≤ |groups|·16k-row histogram on the driver (bounded regardless of
    input cardinality). Per group, the cumulative histogram locates the
    bucket holding each rank ceil(q·n)−1. Pass 2: collect ONLY candidate
    (group, bucket) values (≈ n/n_buckets rows per hit), sort exactly,
    select. Both passes are full scans, neither shuffles more than the tiny
    histogram."""
    import math

    qs = [0.25, 0.5, 0.75, 0.95]
    col, grp = "o_totalprice", "o_orderpriority"
    ds = _read(sf_dir, "orders", [grp, col])
    bounds = _footer_bounds(f"{sf_dir}/orders.parquet", col)
    if bounds is not None:
        lo, hi = bounds
    else:
        agg = ds.aggregate(Min(col), Max(col))
        lo, hi = float(agg[f"min({col})"]), float(agg[f"max({col})"])
    width = (hi - lo) / n_buckets if hi > lo else 1.0

    def bucket_counts(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col], dtype=np.float64)
        b = np.minimum(((v - lo) / width).astype(np.int64), n_buckets - 1)
        tt = pa.table({grp: t[grp], "bucket": pa.array(b, pa.int64())})
        part = tt.group_by([grp, "bucket"]).aggregate([("bucket", "count")])
        return part.rename_columns([grp, "bucket", "n"])

    hist = (
        ds.map_batches(bucket_counts, batch_format="pyarrow")
        .groupby([grp, "bucket"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values([grp, "bucket"])
        .reset_index(drop=True)
    )

    # per-group rank → (bucket, local offset); collect the wanted pairs
    groups = list(hist[grp].unique())
    code = {g: i for i, g in enumerate(sorted(groups))}
    plan: dict[tuple[str, int], list[tuple[float, int]]] = {}
    for g in groups:
        h = hist[hist[grp] == g]
        cum = h["n"].cumsum().to_numpy()
        n = int(cum[-1])
        for q in qs:
            k = math.ceil(q * n) - 1
            i = int(np.searchsorted(cum, k + 1, side="left"))
            before = int(cum[i - 1]) if i else 0
            plan.setdefault((g, int(h["bucket"].iloc[i])), []).append((q, k - before))
    wanted = np.array(
        sorted(code[g] * n_buckets + b for g, b in plan), dtype=np.int64
    )

    def in_buckets(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col], dtype=np.float64)
        b = np.minimum(((v - lo) / width).astype(np.int64), n_buckets - 1)
        comp = pd.Series(t[grp].to_pylist()).map(code).to_numpy(np.int64) * n_buckets + b
        mask = np.isin(comp, wanted)
        return pa.table(
            {
                "comp": pa.array(comp[mask], pa.int64()),
                "v": pa.array(v[mask], pa.float64()),
            }
        )

    refs = ds.map_batches(in_buckets, batch_format="pyarrow").to_arrow_refs()
    cand = pa.concat_tables([t for t in ray.get(refs) if t.num_rows]).to_pandas()
    rows = []
    for (g, b), wants in sorted(plan.items()):
        vals = np.sort(cand.loc[cand["comp"] == code[g] * n_buckets + b, "v"].to_numpy())
        for q, off in wants:
            rows.append((g, q, float(vals[off])))
    out = pd.DataFrame(rows, columns=[grp, "q", "price"])
    return out.sort_values([grp, "q"]).reset_index(drop=True)


def churned_customers(sf_dir: str, since: str = "2000-01-01") -> pd.DataFrame:
    """Distributed anti-join: customers with no order since ``since``
    (churn detection). The fact side is filtered at the read (predicate on
    ``o_orderdate`` — row groups outside the range never leave storage) and
    reduced FIRST (per-batch distinct-key combiner → one groupby of
    ≤ |active customers| keys), then a native left-outer hash join against
    the dim marks matches and the null filter keeps the rest — no NOT-IN
    broadcast of a fact-scale key set."""
    orders = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=pc.field("o_orderdate") >= pa.scalar(pd.Timestamp(since)),
    )

    def distinct_partial(t: pa.Table) -> pa.Table:
        u = pc.unique(t["o_custkey"])
        return pa.table({"o_custkey": u, "m": pa.array(np.ones(len(u), np.int64))})

    okeys = (
        orders.map_batches(distinct_partial, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Max("m", alias_name="m"))
    ).materialize()  # bounded by |active customers|; also guards the
    # no-active-keys edge below (an all-empty join side breaks the shuffle)
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"])
    if okeys.count() == 0:  # nobody active since the cutoff: all churned

        def project_all(t: pa.Table) -> pa.Table:
            cents = _cents(t["c_acctbal"])
            return pa.table(
                {
                    "c_custkey": t["c_custkey"],
                    "c_mktsegment": t["c_mktsegment"],
                    "acctbal_cents": cents,
                }
            )

        out = cust.map_batches(project_all, batch_format="pyarrow").to_pandas()
        return out.sort_values("c_custkey").reset_index(drop=True)
    j = safe_join(
        cust, okeys, join_type="left_outer", num_partitions=8,
        on=("c_custkey",), right_on=("o_custkey",),
    )

    def keep_unmatched(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_null(t["m"]))
        cents = _cents(t["c_acctbal"])
        return pa.table(
            {
                "c_custkey": t["c_custkey"],
                "c_mktsegment": t["c_mktsegment"],
                "acctbal_cents": cents,
            }
        )

    out = j.map_batches(keep_unmatched, batch_format="pyarrow").to_pandas()
    if out.empty:  # all-empty blocks can lose the schema through to_pandas
        return pd.DataFrame(
            {
                "c_custkey": pd.Series(dtype="int64"),
                "c_mktsegment": pd.Series(dtype=object),
                "acctbal_cents": pd.Series(dtype="int64"),
            }
        )
    out["c_custkey"] = out["c_custkey"].astype("int64")
    out["acctbal_cents"] = out["acctbal_cents"].astype("int64")
    return out.sort_values("c_custkey").reset_index(drop=True)


def funnel_conversion(
    sf_dir: str, within_hours: int = 12, num_buckets: int = 64
) -> pd.DataFrame:
    """Funnel conversion: of the users who ever signed up, how many made a
    purchase within ``within_hours`` after (any of) their signups — the
    classic two-step funnel over an ordered event log.

    Shape: ONE bucket-keyed exchange on hash(user_id) (users never straddle
    buckets), then a vectorized per-bucket ``merge_asof`` (forward, by-user,
    toleranced) matches each signup to its next purchase; per-bucket
    partials (signup users, converted users) sum to the final pair. No
    driver-side row processing."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def keep_funnel(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.is_in(t["event_type"], value_set=pa.array(["signup", "purchase"]))
        )

    def bucket_partial(g: pd.DataFrame) -> pd.DataFrame:
        s = (
            g[g.event_type == "signup"][["user_id", "ts"]]
            .sort_values("ts", kind="stable")
            .reset_index(drop=True)
        )
        p = (
            g[g.event_type == "purchase"][["user_id", "ts"]]
            .sort_values("ts", kind="stable")
            .reset_index(drop=True)
        )
        n_signup_users = s["user_id"].nunique()
        if s.empty or p.empty:
            return pd.DataFrame(
                {"n_signup_users": [int(n_signup_users)], "n_converted": [0]}
            )
        m = pd.merge_asof(
            s,
            p.rename(columns={"ts": "p_ts"}),
            left_on="ts",
            right_on="p_ts",
            by="user_id",
            direction="forward",
            tolerance=pd.Timedelta(hours=within_hours),
        )
        converted = m.loc[m["p_ts"].notna(), "user_id"].nunique()
        return pd.DataFrame(
            {"n_signup_users": [int(n_signup_users)], "n_converted": [int(converted)]}
        )

    out = (
        _bucket_by_user(ds.map_batches(keep_funnel, batch_format="pyarrow"), num_buckets)
        .groupby("__bucket")
        .map_groups(bucket_partial, batch_format="pandas")
        .to_pandas()
    )
    return pd.DataFrame(
        {
            "n_signup_users": [int(out["n_signup_users"].sum())],
            "n_converted": [int(out["n_converted"].sum())],
        }
    )


def distinct_customers_per_priority(sf_dir: str) -> pd.DataFrame:
    """EXACT grouped count-distinct (the HLL sketch's exact counterpart):
    two-level shape — per-batch unique (priority, custkey) pairs (combiner)
    → groupby on the PAIR dedupes globally → per-batch pair counts →
    groupby(priority) sums. Shuffle volume is unique pairs, never rows."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_custkey"])

    def pair_partial(t: pa.Table) -> pa.Table:
        out = t.group_by(["o_orderpriority", "o_custkey"]).aggregate([])
        return out

    deduped = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["o_orderpriority", "o_custkey"])
        .aggregate(Count(alias_name="__n"))
    )
    out = (
        deduped.groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_customers"))
        .to_pandas()
    )
    out["n_customers"] = out["n_customers"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def orders_above_customer_avg(sf_dir: str) -> pd.DataFrame:
    """Correlated-subquery shape: orders priced STRICTLY above their own
    customer's average order price, counted per priority. Exact under
    distributed execution: per-customer (sum_cents, n) moments are
    order-independent int64s, and the comparison price > sum/n is the
    integer cross-multiplication price_cents · n > sum_cents — no float
    division anywhere, so ties at the mean are decided identically to the
    oracle. One groupby for the moments, one hash join back, one count."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority", "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        cents = _cents(t["o_totalprice"])
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "o_orderpriority": t["o_orderpriority"],
                "cents": cents,
            }
        )

    orders = ds.map_batches(to_cents, batch_format="pyarrow").materialize()
    moments = orders.groupby("o_custkey").aggregate(
        Sum("cents", alias_name="sum_cents"), Count(alias_name="n")
    )
    j = safe_join(
        orders,
        moments.select_columns(["o_custkey", "sum_cents", "n"]),
        join_type="inner",
        num_partitions=8,
        on=("o_custkey",),
        right_on=("o_custkey",),
    )

    def above(t: pa.Table) -> pa.Table:
        lhs = pc.multiply(t["cents"], pc.cast(t["n"], pa.int64()))
        keep = pc.greater(lhs, t["sum_cents"])
        return pa.table({"o_orderpriority": t.filter(keep)["o_orderpriority"]})

    from ray.data.aggregate import Count as _Count

    out = (
        j.map_batches(above, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(_Count(alias_name="n_orders"))
        .to_pandas()
    )
    out["n_orders"] = out["n_orders"].astype("int64")
    return out.sort_values("o_orderpriority").reset_index(drop=True)


def retention_cohorts(sf_dir: str) -> pd.DataFrame:
    """Weekly retention cohorts: users grouped by first-activity week, and
    for every later week, how many of that cohort were active — the
    standard product-analytics triangle. Shape: per-batch unique (user,
    week) pairs (combiner) → pair groupby dedupes globally → per-user MIN
    week (one small groupby) → hash join pairs⋈cohorts on user → one count
    groupby. Every exchange is key-partitioned; active-pair volume bounds
    everything."""
    from ray.data.aggregate import Count, Min

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def pair_partial(t: pa.Table) -> pa.Table:
        week = pc.cast(pc.floor_temporal(t["ts"], unit="week"), pa.int64())
        tt = pa.table({"user_id": t["user_id"], "week": week})
        return tt.group_by(["user_id", "week"]).aggregate([])

    pairs = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["user_id", "week"])
        .aggregate(Count(alias_name="__n"))
        .select_columns(["user_id", "week"])
        .materialize()
    )
    cohorts = pairs.groupby("user_id").aggregate(Min("week", alias_name="cohort_week"))
    j = safe_join(
        pairs,
        cohorts.select_columns(["user_id", "cohort_week"]),
        join_type="inner",
        num_partitions=8,
        on=("user_id",),
    )
    out = (
        j.groupby(["cohort_week", "week"])
        .aggregate(Count(alias_name="n_users"))
        .to_pandas()
    )
    out["cohort_week"] = pd.to_datetime(out["cohort_week"], unit="us").astype("datetime64[us]")
    out["week"] = pd.to_datetime(out["week"], unit="us").astype("datetime64[us]")
    out["n_users"] = out["n_users"].astype("int64")
    return out.sort_values(["cohort_week", "week"]).reset_index(drop=True)
