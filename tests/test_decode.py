"""Decode-to-args catalog semantics + multi-table fan-out on the CDC path.

Reference parity (``sonic_config/transformation/common.rs:409-496``,
``events/generic.rs:76-135``): unknown selector → silent skip; null
content → skip; known selector with non-matching content → abort (or
route to the typed error channel); matched rows emit one decoded-events
row with JSON args, published per (epoch, partition) alongside the merged
file state — both gated by the unit's commit record.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from sonic_etl_ray.pipelines.ingest import (
    apply_epoch,
    lake_final_table,
    run_ingest,
    scratch_lake_dir,
)
from sonic_etl_ray.pipelines.sidecars import read_decoded, read_errors
from sonic_etl_ray.stages.decode import DecodeCatalog, EventSpec
from sonic_etl_ray.stages.transform import MalformedEventError

CATALOG = DecodeCatalog(
    {
        "py": EventSpec("PyImport", r"^import (\w+) v(\d+)$"),
        "rs": EventSpec("RsUse", r"^use (\w+)$"),
    }
)


def _stream(rows) -> ray.data.Dataset:
    return ray.data.from_arrow(
        pa.table(
            {
                "lsn": pa.array([r[0] for r in rows], pa.int64()),
                "op": pa.array([r[1] for r in rows], pa.string()),
                "repo": pa.array([r[2] for r in rows], pa.string()),
                "path": pa.array([r[3] for r in rows], pa.string()),
                "commit": pa.array(["c"] * len(rows), pa.string()),
                "lang": pa.array([r[4] for r in rows], pa.string()),
                "content": pa.array([r[5] for r in rows], pa.string()),
            }
        )
    )


GOOD = [
    (0, "insert", "r1", "a.py", "py", "import os v1"),
    (1, "insert", "r1", "b.rs", "rs", "use std"),
    (2, "insert", "r1", "c.txt", "txt", "no catalog entry"),  # silent skip
    (3, "delete", "r1", "a.py", "py", None),  # null content skip
    (4, "update", "r1", "b.rs", "rs", "use core"),
]


def test_decode_fanout_skip_and_match():
    lake = scratch_lake_dir("dec1")
    apply_epoch(_stream(GOOD), lake, epoch=0, num_partitions=2, decode_catalog=CATALOG)
    dec = read_decoded(lake).to_pylist()
    # matched rows only: lsns 0, 1, 4; unknown selector + delete are skipped
    assert [(d["lsn"], d["event_name"], d["args"]) for d in dec] == [
        (0, "PyImport", '["os", "1"]'),
        (1, "RsUse", '["std"]'),
        (4, "RsUse", '["core"]'),
    ]
    # the files table from the SAME pass: a.py deleted, b.rs last-writer c.txt kept
    files = lake_final_table(lake).to_pylist()
    assert {(f["repo"], f["path"], f["content"]) for f in files} == {
        ("r1", "b.rs", "use core"),
        ("r1", "c.txt", "no catalog entry"),
    }


def test_decode_abort_on_undecodable():
    bad = GOOD + [(5, "insert", "r1", "d.py", "py", "not an import line")]
    lake = scratch_lake_dir("dec2")
    with pytest.raises(Exception) as ei:
        apply_epoch(_stream(bad), lake, epoch=0, num_partitions=2, decode_catalog=CATALOG)
    assert "does not match" in str(ei.value)


def test_decode_route_quarantines_source_row():
    bad = GOOD + [(5, "insert", "r1", "d.py", "py", "not an import line")]
    lake = scratch_lake_dir("dec3")
    apply_epoch(
        _stream(bad), lake, epoch=0, num_partitions=2,
        decode_catalog=CATALOG, on_undecodable="route", on_error="route",
    )
    errs = read_errors(lake).to_pylist()
    assert [(e["lsn"], e["__error"]) for e in errs] == [(5, "undecodable_content")]
    # the quarantined row reached neither output table
    assert all(f["path"] != "d.py" for f in lake_final_table(lake).to_pylist())
    assert all(d["lsn"] != 5 for d in read_decoded(lake).to_pylist())


def test_decode_dup_delivery_exactly_once():
    lake = scratch_lake_dir("dec5")
    doubled = _stream(GOOD).union(_stream(GOOD))
    apply_epoch(doubled, lake, epoch=0, num_partitions=2, decode_catalog=CATALOG)
    dec = read_decoded(lake).to_pylist()
    assert [d["lsn"] for d in dec] == [0, 1, 4]  # no duplicates


def test_decode_fused_multi_epoch(tmp_path):
    """Decode on the epoch loop across two epochs: each epoch publishes its
    own decoded rows, and the result matches one epoch over both segments."""
    import os

    seg_dir = str(tmp_path / "segs")
    os.makedirs(seg_dir)
    tbl = _stream(GOOD).take_all()
    t = pa.Table.from_pylist(tbl)
    pq.write_table(t.slice(0, 3), os.path.join(seg_dir, "segment_000000.parquet"))
    pq.write_table(t.slice(3), os.path.join(seg_dir, "segment_000001.parquet"))
    lake_two = scratch_lake_dir("dec6a")
    lake_one = scratch_lake_dir("dec6b")
    files = sorted(glob.glob(seg_dir + "/*.parquet"))
    for lake, spe in ((lake_two, 1), (lake_one, 2)):
        run_ingest(
            files, lake, num_partitions=2, segments_per_epoch=spe, decode_catalog=CATALOG,
        )
    assert read_decoded(lake_two).equals(read_decoded(lake_one))
    assert lake_final_table(lake_two).equals(lake_final_table(lake_one))
    assert read_decoded(lake_two).num_rows == 3


def test_n_table_fanout_routes_and_reads_back(tmp_path):
    """EventSpecs with distinct table routes publish to separate decoded
    tables in ONE pass; each reads back independently and the commit record
    carries per-table lineage."""
    import glob as _glob

    import ray.data

    from sonic_etl_ray.generator import StreamSpec, generate_stream
    from sonic_etl_ray.pipelines.ingest import run_ingest, scratch_lake_dir
    from sonic_etl_ray.pipelines.sidecars import decoded_tables, read_decoded
    from sonic_etl_ray.stages.decode import DecodeCatalog, EventSpec

    seg = str(tmp_path / "segs")
    generate_stream(seg, StreamSpec(n_events=2000, n_repos=6, seed=77, segment_size=500))
    files = sorted(_glob.glob(seg + "/segment_*.parquet"))
    catalog = DecodeCatalog(
        {
            "python": EventSpec("PyDoc", r"^\s*(\w+)", table="py_events"),
            "go": EventSpec("GoDoc", r"^\s*(\w+)", table="go_events"),
            "rust": EventSpec("RsDoc", r"^\s*(\w+)"),  # default table
        }
    )
    lake = scratch_lake_dir("fanout_n")
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=2, decode_catalog=catalog)
    names = decoded_tables(lake)
    assert set(names) >= {"go_events", "py_events"}
    total = 0
    for t in names:
        tbl = read_decoded(lake, table=t)
        assert tbl.num_rows > 0, t
        evn = set(tbl.column("event_name").to_pylist())
        if t == "py_events":
            assert evn == {"PyDoc"}
        if t == "go_events":
            assert evn == {"GoDoc"}
        total += tbl.num_rows
    # per-table files are gated by the same commit record
    import json
    import os

    recs = _glob.glob(os.path.join(lake, "_commits", "epoch=*", "part=*.json"))
    per_table = {}
    for r in recs:
        with open(r) as fh:
            d = json.loads(fh.read())
        for tname, f in d.get("decoded_files", {}).items():
            per_table.setdefault(tname, 0)
            assert os.path.exists(f)
    assert total > 0


def _ev(lsn, path="a.py", content=None):
    return (lsn, "insert", "r1", path, "py", content or f"import m{lsn} v1")


def test_compact_decoded_fold_dedup_and_streaming_read(tmp_path):
    """Per-epoch decoded sidecars fold into deduped per-partition runs:
    read_decoded is bit-identical before/after, the second fold sweeps the
    first fold's originals (one-generation GC grace), a cross-epoch lsn
    replay dedupes, and read_decoded_ds matches the driver-side table."""
    from sonic_etl_ray.pipelines.sidecars import compact_decoded, read_decoded_ds

    lake = str(tmp_path / "lake")
    # epochs 0-3: fresh rows; epoch 2 replays epoch 1's lsn 10 (dup rows)
    apply_epoch(_stream([_ev(i) for i in range(5)]), lake, epoch=0,
                num_partitions=2, decode_catalog=CATALOG)
    apply_epoch(_stream([_ev(10), _ev(11)]), lake, epoch=1,
                num_partitions=2, decode_catalog=CATALOG)
    apply_epoch(_stream([_ev(10), _ev(12)]), lake, epoch=2,
                num_partitions=2, decode_catalog=CATALOG)
    before = read_decoded(lake)
    assert before.num_rows == 8  # lsn 10 deduped across epochs 1/2

    r = compact_decoded(lake, min_files=2)
    assert r["parts"] >= 1 and r["files_folded"] >= 3
    after = read_decoded(lake)
    assert after.equals(before)
    runs = glob.glob(f"{lake}/_decoded/runs/part=*/run-seq=*.parquet")
    assert runs
    # first fold keeps its originals (grace); they are now covered, so a
    # re-read must not double-count them
    assert read_decoded(lake).num_rows == 8

    # two more epochs -> second fold rewrites runs and sweeps gen-1 originals
    orig_epoch_files = set(glob.glob(f"{lake}/_decoded/epoch=*/part=*.parquet"))
    apply_epoch(_stream([_ev(20)]), lake, epoch=3,
                num_partitions=2, decode_catalog=CATALOG)
    apply_epoch(_stream([_ev(21)]), lake, epoch=4,
                num_partitions=2, decode_catalog=CATALOG)
    r2 = compact_decoded(lake, min_files=2)
    assert r2["files_folded"] >= 2
    left = set(glob.glob(f"{lake}/_decoded/epoch=*/part=*.parquet"))
    assert not (left & orig_epoch_files)  # gen-1 originals swept
    final = read_decoded(lake)
    assert final.num_rows == 10

    ds_tbl = read_decoded_ds(lake).to_pandas()
    ds_tbl = ds_tbl.sort_values(["lsn", "event_name", "line_no"]).reset_index(drop=True)
    import pandas as pd

    pd.testing.assert_frame_equal(ds_tbl, final.to_pandas())

    # a fresh epoch (below min_files) stays readable without a fold, and
    # the streaming read dedups a replay straddling the fold boundary
    apply_epoch(_stream([_ev(21), _ev(22)]), lake, epoch=5,
                num_partitions=2, decode_catalog=CATALOG)
    t = read_decoded(lake)
    assert t.num_rows == 11
    d = read_decoded_ds(lake).to_pandas().sort_values(
        ["lsn", "event_name", "line_no"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(d, t.to_pandas())


def test_tailer_decodes_and_folds(tmp_path):
    """Tailing with a decode catalog publishes decoded sidecars per closed
    epoch and folds them on the state-compaction cadence."""
    import pyarrow.parquet as pq_

    from sonic_etl_ray.pipelines.sidecars import read_decoded
    from sonic_etl_ray.pipelines.tail import Tailer

    seg_dir = str(tmp_path / "segs")
    lake = str(tmp_path / "lake")
    os.makedirs(seg_dir)
    for i in range(8):
        rows = [_ev(i * 10 + j) for j in range(3)]
        t = _stream(rows).take_all()
        pq_.write_table(
            pa.Table.from_pylist(t), f"{seg_dir}/segment_{i:05d}.parquet"
        )
    tailer = Tailer(
        seg_dir, lake, num_partitions=2, segments_per_epoch=2,
        decode_catalog=CATALOG, compact_states_every=2,
    )
    tailer.tick()
    dec = read_decoded(lake)
    assert dec.num_rows == 24  # every event decodes (all py lang)
    runs = glob.glob(f"{lake}/_decoded/runs/part=*/run-seq=*.parquet")
    assert runs  # fold happened on the cadence
    # idempotent second tick: nothing new, reads stable
    tailer.tick()
    assert read_decoded(lake).equals(dec)


def test_expire_decoded_epoch_cutoff(tmp_path):
    """Retention drops epoch files and fully-below-cutoff runs; straddling
    runs stay intact (approximate at run granularity, like the history
    archive's expiry)."""
    from sonic_etl_ray.pipelines.sidecars import compact_decoded, expire_decoded, read_decoded

    lake = str(tmp_path / "lake")
    for e in range(4):
        apply_epoch(_stream([_ev(e * 10 + j) for j in range(2)]), lake, epoch=e,
                    num_partitions=2, decode_catalog=CATALOG)
    compact_decoded(lake, min_files=2)  # one run covering epochs 0-3
    apply_epoch(_stream([_ev(100)]), lake, epoch=4,
                num_partitions=2, decode_catalog=CATALOG)
    before = read_decoded(lake).num_rows
    assert before == 9
    # cutoff 2: the run straddles (covers 0-3) -> stays; no epoch files
    # below 2 remain uncovered, so nothing is lost
    r = expire_decoded(lake, before_epoch=2)
    assert r["runs_removed"] == 0
    assert read_decoded(lake).num_rows == before
    # cutoff 10: everything below -> run and epoch-4 file both go
    r2 = expire_decoded(lake, before_epoch=10)
    assert r2["runs_removed"] >= 1
    assert read_decoded(lake).num_rows == 0
