"""Sink/reader roundtrip queries (``pipelines/sink_roundtrip.py``) vs the
driver's oracles, dtype-strict, plus degenerate shapes."""

from __future__ import annotations

import os
import sys

import duckdb
import pandas as pd
import pyarrow.parquet as pq
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import __ray_entry__ as entry  # noqa: E402
from sonic_etl_ray.pipelines.sink_roundtrip import (  # noqa: E402
    bucketed_sink_roundtrip,
    checked_timestamp_roundtrip,
    csv_backfill_ranges,
    ipc_export_roundtrip,
    jsonl_roundtrip,
)

SF = "/root/testdata/sf0.001"


def _oracle(name: str, sf: str = SF) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("documents", "events"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    return con.execute(entry.oracle_sql()[name]).df()


def _strict(eng: pd.DataFrame, ora: pd.DataFrame) -> None:
    assert list(eng.columns) == list(ora.columns)
    assert [str(d) for d in eng.dtypes] == [str(d) for d in ora.dtypes]
    pd.testing.assert_frame_equal(eng, ora)


def test_bucketed_sink_roundtrip_matches_oracle():
    _strict(bucketed_sink_roundtrip(SF), _oracle("bucketed_sink_roundtrip"))


def test_jsonl_roundtrip_matches_oracle():
    _strict(jsonl_roundtrip(SF), _oracle("jsonl_roundtrip"))


def test_csv_backfill_ranges_matches_oracle():
    eng = csv_backfill_ranges(SF)
    _strict(eng, _oracle("csv_backfill_ranges"))
    # ranges are inclusive, sorted, non-adjacent (maximally compressed)
    assert (eng["end_lsn"] >= eng["start_lsn"]).all()
    if len(eng) > 1:
        assert (eng["start_lsn"].iloc[1:].values - eng["end_lsn"].iloc[:-1].values > 1).all()


def test_ipc_export_roundtrip_matches_oracle():
    _strict(ipc_export_roundtrip(SF), _oracle("ipc_export_roundtrip"))


def test_checked_timestamp_roundtrip_matches_oracle():
    eng = checked_timestamp_roundtrip(SF)
    _strict(eng, _oracle("checked_timestamp_roundtrip"))
    assert str(eng["ts_s"].dtype) == "datetime64[us]"


def test_roundtrips_survive_tiny_corpus(tmp_path):
    dst = str(tmp_path)
    for t, n in [("documents", 1), ("events", 2)]:
        pq.write_table(pq.read_table(f"{SF}/{t}.parquet").slice(0, n), f"{dst}/{t}.parquet")
    assert len(bucketed_sink_roundtrip(dst)) >= 1
    assert len(jsonl_roundtrip(dst)) == 1
    assert len(ipc_export_roundtrip(dst)) == 1
    assert len(checked_timestamp_roundtrip(dst)) == 2
    out = csv_backfill_ranges(dst)  # possibly zero purchases → typed empty
    assert list(out.columns) == ["start_lsn", "end_lsn"]
    assert str(out["start_lsn"].dtype) == "int64"


def test_checked_timestamp_floors_pre_epoch(tmp_path):
    # a pre-1970 ts must floor to the EARLIER second, exactly like the
    # oracle's date_trunc('second') — truncating int division gets this
    # wrong (rounds toward zero); np.floor_divide is the fix under test
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    dst = str(tmp_path)
    ts = pd.to_datetime(
        ["1969-12-31 23:59:59.500000", "1970-01-01 00:00:00.500000"]
    )
    pq.write_table(
        pa.table({"event_id": pa.array([1, 2], pa.int64()),
                  "ts": pa.array(ts, pa.timestamp("us"))}),
        f"{dst}/events.parquet",
    )
    out = checked_timestamp_roundtrip(dst)
    assert list(out["ts_s"].astype(str)) == [
        "1969-12-31 23:59:59", "1970-01-01 00:00:00"
    ]


@pytest.mark.parametrize("query", [jsonl_roundtrip, ipc_export_roundtrip], ids=lambda f: f.__name__)
def test_document_roundtrips_zero_row_corpus(tmp_path, query):
    """A zero-row ``documents`` table writes no file; the roundtrip returns
    the oracle's typed empty frame instead of failing to read back."""
    dst = str(tmp_path)
    pq.write_table(pq.read_table(f"{SF}/documents.parquet").slice(0, 0), f"{dst}/documents.parquet")
    pq.write_table(pq.read_table(f"{SF}/events.parquet"), f"{dst}/events.parquet")
    _strict(query(dst), _oracle(query.__name__, dst))


def test_bucketed_sink_rounds_half_cents_like_duckdb(tmp_path):
    """Exact half-cent values (k + 0.125 → k·100 + 12.5 cents) round away
    from zero, as DuckDB's ROUND does, not to even."""
    import pyarrow as pa

    dst = str(tmp_path)
    ev = pq.read_table(f"{SF}/events.parquet")
    halves = pa.array([(i % 40) + 0.125 + 0.25 * (i % 4) for i in range(ev.num_rows)], pa.float64())
    ev = ev.set_column(ev.schema.get_field_index("value"), "value", halves)
    pq.write_table(ev, f"{dst}/events.parquet")
    pq.write_table(pq.read_table(f"{SF}/documents.parquet"), f"{dst}/documents.parquet")
    _strict(bucketed_sink_roundtrip(dst), _oracle("bucketed_sink_roundtrip", dst))
