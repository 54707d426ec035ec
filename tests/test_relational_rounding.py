"""Cents rounding in ``pipelines/relational.py`` matches DuckDB's ``ROUND``.

Arrow's ``pc.round`` defaults to half-to-even; DuckDB rounds half away from
zero. Values of k + 0.125 / 0.375 / 0.625 / 0.875 scale to exact half cents
(0.125 · 100 = 12.5 is exact in binary), so every query that converts a
price to integer cents has to round them the way its oracle does.
"""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import __ray_entry__ as entry  # noqa: E402
from sonic_etl_ray.pipelines import relational  # noqa: E402
from test_typed_audit import SF  # noqa: E402  (the sf0.001 corpus)

HALF_CENT_COLUMNS = {
    "orders": "o_totalprice",
    "customer": "c_acctbal",
    "events": "value",
}


def _half_cents(n: int) -> pa.Array:
    return pa.array([(i % 50) + 0.125 + 0.25 * (i % 4) for i in range(n)], pa.float64())


@pytest.fixture(scope="module")
def half_cent_sf(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("half_cents")
    for table, column in HALF_CENT_COLUMNS.items():
        t = pq.read_table(f"{SF}/{table}.parquet")
        t = t.set_column(t.schema.get_field_index(column), column, _half_cents(t.num_rows))
        pq.write_table(t, str(out / f"{table}.parquet"))
    return str(out)


@pytest.mark.parametrize(
    "query", ["orders_above_customer_avg", "churned_customers", "sliding_user_window"]
)
def test_cents_round_half_away_from_zero_like_duckdb(half_cent_sf, query):
    eng = getattr(relational, query)(half_cent_sf)
    con = duckdb.connect()
    for table in HALF_CENT_COLUMNS:
        con.execute(f"CREATE VIEW {table} AS SELECT * FROM '{half_cent_sf}/{table}.parquet'")
    ora = con.execute(entry.oracle_sql()[query]).df()
    assert list(eng.columns) == list(ora.columns)
    pd.testing.assert_frame_equal(
        eng.reset_index(drop=True), ora.reset_index(drop=True)
    )
