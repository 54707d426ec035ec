"""Driver-checkable typed/planner query pipelines (``pipelines/typed_audit.py``).

Each test cross-checks the Ray pipeline against the same DuckDB SQL the
driver's oracle runs (``__ray_entry__.oracle_sql``), dtype-strict, at
sf0.001 — a local replica of the correctness gate for the three new rows.
"""

from __future__ import annotations

import hashlib
import os
import sys

import duckdb
import pandas as pd

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import __ray_entry__ as entry  # noqa: E402
from sonic_etl_ray.pipelines.typed_audit import (  # noqa: E402
    content_sha_hex,
    range_chunk_plan,
    typed_narrowing_audit,
)

SF = "/root/testdata/sf0.001"


def _oracle(name: str, sf: str = SF) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("orders", "documents", "events"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf}/{t}.parquet'")
    return con.execute(entry.oracle_sql()[name]).df()


def _assert_frame_equal_strict(eng: pd.DataFrame, ora: pd.DataFrame) -> None:
    assert list(eng.columns) == list(ora.columns)
    assert [str(d) for d in eng.dtypes] == [str(d) for d in ora.dtypes]
    pd.testing.assert_frame_equal(eng, ora)


def test_typed_narrowing_audit_matches_oracle():
    eng = typed_narrowing_audit(SF)
    _assert_frame_equal_strict(eng, _oracle("typed_narrowing_audit"))
    # the synthetic lengths really straddle both bounds on this corpus
    assert (eng["capped"] != eng["lossless"]).sum() > 0
    assert (eng["numeric_ok"] == 0).sum() > 0
    assert (eng["numeric_ok"] == 1).sum() > 0
    capped_rows = eng.loc[eng["capped"] != eng["lossless"], "capped"]
    assert (capped_rows == "9" * 38).all()


def test_typed_narrowing_audit_rounds_half_cents_like_duckdb(tmp_path):
    """Exact half-cent prices (k + 0.125 → k·100 + 12.5 cents) round away
    from zero, as DuckDB's ROUND does, not to even."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    orders = pq.read_table(f"{SF}/orders.parquet")
    halves = pa.array(
        [(i % 50) + 0.125 + 0.25 * (i % 4) for i in range(orders.num_rows)], pa.float64()
    )
    orders = orders.set_column(
        orders.schema.get_field_index("o_totalprice"), "o_totalprice", halves
    )
    pq.write_table(orders, str(tmp_path / "orders.parquet"))
    for t in ("documents", "events"):
        pq.write_table(pq.read_table(f"{SF}/{t}.parquet"), str(tmp_path / f"{t}.parquet"))
    eng = typed_narrowing_audit(str(tmp_path))
    _assert_frame_equal_strict(eng, _oracle("typed_narrowing_audit", str(tmp_path)))


def test_content_sha_hex_matches_oracle_and_hashlib():
    eng = content_sha_hex(SF)
    _assert_frame_equal_strict(eng, _oracle("content_sha_hex"))
    # spot-check the composition against hashlib directly
    row = duckdb.sql(
        f"SELECT doc_id, text FROM '{SF}/documents.parquet' ORDER BY doc_id LIMIT 1"
    ).fetchone()
    want = "0x" + hashlib.sha256(row[1].encode()).hexdigest()
    assert eng.loc[eng["doc_id"] == row[0], "sha_hex"].iloc[0] == want


def test_range_chunk_plan_matches_oracle():
    eng = range_chunk_plan(SF)
    ora = _oracle("range_chunk_plan")
    _assert_frame_equal_strict(eng, ora)
    # inclusive, gap-free, fixed-size chunks
    assert (eng["end_lsn"] >= eng["start_lsn"]).all()
    assert (eng["start_lsn"].iloc[1:].values - eng["end_lsn"].iloc[:-1].values == 1).all()


def test_dsir_importance_weights_matches_oracle_and_separates_target():
    from sonic_etl_ray.functions.text import dsir_importance_weights

    eng = dsir_importance_weights(SF).copy()
    eng["weight"] = eng["weight"].round(4)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.execute(entry.oracle_sql()["dsir_importance_weights"]).df()
    _assert_frame_equal_strict(eng, ora)
    # the importance model must actually separate the target subset: mean
    # weight of 'en' docs strictly above the non-target mean
    langs = duckdb.sql(
        f"SELECT doc_id, lang FROM '{SF}/documents.parquet'"
    ).df()
    m = eng.merge(langs, on="doc_id")
    assert m.loc[m.lang == "en", "weight"].mean() > m.loc[m.lang != "en", "weight"].mean()


def test_dsir_survives_degenerate_corpora(tmp_path):
    import pyarrow.parquet as pq

    from sonic_etl_ray.functions.text import dsir_importance_weights

    src = f"{SF}/documents.parquet"
    # 1-doc corpus, and a corpus with NO target-lang docs at all
    one = str(tmp_path / "one"); no_t = str(tmp_path / "no_t")
    for d in (one, no_t):
        import os as _os
        _os.makedirs(d)
    t = pq.read_table(src)
    pq.write_table(t.slice(0, 1), f"{one}/documents.parquet")
    import pyarrow.compute as _pc
    pq.write_table(t.filter(_pc.not_equal(t["lang"], "en")).slice(0, 12),
                   f"{no_t}/documents.parquet")
    assert len(dsir_importance_weights(one)) == 1
    out = dsir_importance_weights(no_t)
    assert len(out) == 12 and out["weight"].notna().all()


def test_dsir_resample_matches_oracle_and_is_top_frac():
    import math

    from sonic_etl_ray.functions.text import dsir_importance_weights, dsir_resample

    eng = dsir_resample(SF).copy()
    eng["weight"] = eng["weight"].round(4)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    ora = con.execute(entry.oracle_sql()["dsir_resample"]).df()
    _assert_frame_equal_strict(eng, ora)
    w = dsir_importance_weights(SF)
    assert len(eng) == math.ceil(0.25 * len(w))
    # every selected weight >= every unselected weight (raw comparison)
    sel = set(eng["doc_id"])
    m = w.set_index("doc_id")["weight"]
    assert m[m.index.isin(sel)].min() >= m[~m.index.isin(sel)].max()
