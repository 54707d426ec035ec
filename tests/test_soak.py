"""Integration soak: one growing MOR-tailed lake driven through the whole
feature surface in sequence — incremental ticks, delta compaction,
commit-log checkpointing, snapshot publish, vacuum — with bit-for-bit
oracle equality asserted at every stage boundary."""

from __future__ import annotations

import glob
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet

from sonic_etl_ray.generator import StreamSpec, generate_events, write_segments
from sonic_etl_ray.oracle import assert_state_equal, oracle_final_state
from sonic_etl_ray.pipelines.ingest import (
    export_snapshot,
    lake_final_table,
    read_snapshot,
    vacuum,
)
from sonic_etl_ray.pipelines.qc import freshness, verify_lake_counts
from sonic_etl_ray.pipelines.tail import Tailer


def test_soak_growing_mor_lake(tmp_path):
    spec = StreamSpec(n_events=6000, n_repos=10, seed=77, segment_size=250)
    hidden = str(tmp_path / "hidden")
    seg = str(tmp_path / "segs")
    files = write_segments(generate_events(spec), hidden, spec)
    assert len(files) == 24
    os.makedirs(seg)
    for f in files[:12]:
        shutil.copy(f, seg)
    lake = str(tmp_path / "lake")

    t = Tailer(
        seg,
        lake,
        num_partitions=4,
        segments_per_epoch=3,
        merge_mode="mor",
        compact_states_every=2,
        compact_every=2,
    )
    r1 = t.tick()
    assert r1["epochs_applied"] == 4

    # stage 1: lake == independent replay of the visible prefix
    visible = sorted(glob.glob(seg + "/*.parquet"))
    mid_oracle = oracle_final_state(visible)
    assert_state_equal(lake_final_table(lake), mid_oracle)

    # publish the mid-state snapshot (atomic manifest)
    snap = str(tmp_path / "snap")
    ex = export_snapshot(lake, snap)
    assert ex["rows"] == mid_oracle.num_rows

    # the stream grows; the same tailer catches up incrementally
    for f in files[12:]:
        shutil.copy(f, seg)
    r2 = t.tick()
    assert r2["epochs_applied"] == 4 and r2["epochs_skipped"] == 4

    final_oracle = oracle_final_state(files)
    assert_state_equal(lake_final_table(lake), final_oracle)

    # the published snapshot is immutable: still exactly the mid-state
    snap_tbl = pa.Table.from_pandas(
        read_snapshot(snap).to_pandas(), preserve_index=False
    )
    assert_state_equal(snap_tbl, mid_oracle)

    # QC surfaces agree with the commit log
    assert verify_lake_counts(lake)
    fr = freshness(lake)
    assert set(fr) == {0, 1, 2, 3}  # every partition live
    assert all(v["epoch"] == 7 for v in fr.values())  # frontier at last epoch

    # vacuum drops superseded files; the live state is untouched
    vacuum(lake, keep_epochs=1)
    assert_state_equal(lake_final_table(lake), final_oracle)

    # a fresh tailer (restart) has nothing to do
    r3 = Tailer(
        seg, lake, num_partitions=4, segments_per_epoch=3, merge_mode="mor"
    ).tick()
    assert r3["epochs_applied"] == 0 and r3["epochs_skipped"] == 8


def test_scd2_history_semantics():
    """Version chains: per key, intervals tile [first_lsn, ∞) without
    overlap, deletes close but never appear, exactly one current row per
    live key, and the current rows equal the LWW final state keys."""
    from sonic_etl_ray.pipelines.cdc_queries import cdc_scd2_history

    sf = "/root/testdata/sf0.001"
    out = cdc_scd2_history(sf)
    assert (out["valid_from_lsn"] < out["valid_to_lsn"]).where(
        out["valid_to_lsn"] != -1, True
    ).all()
    for (_, _), g in out.groupby(["repo", "path"]):
        g = g.sort_values("valid_from_lsn")
        # chains: each close either -1 (current, must be last) or a later lsn
        currents = g[g["is_current"] == 1]
        assert len(currents) <= 1
        if len(currents):
            assert currents.index[-1] == g.index[-1]
        # no overlap: next version opens at or after this close
        closes = g["valid_to_lsn"].to_numpy()[:-1]
        opens = g["valid_from_lsn"].to_numpy()[1:]
        assert ((closes == -1) | (closes <= opens)).all()


def test_scd2_from_feed_matches_event_stream_fold():
    """The CDF-consumer SCD2 equals an independent epoch-grain fold computed
    straight from the projected event stream (winner per (key, epoch), LEAD
    closes) — the two definitions coincide because a feed row exists iff
    state changed."""
    import duckdb

    from sonic_etl_ray.pipelines.cdc_queries import cdc_scd2_from_feed

    sf = "/root/testdata/sf0.001"
    out = cdc_scd2_from_feed(sf)
    ora = duckdb.connect().execute(f"""
    WITH src AS (
      SELECT event_id AS lsn,
             CASE WHEN value < 20 THEN 'delete' ELSE 'insert' END AS op,
             'r' || CAST(user_id % 5 AS VARCHAR) AS repo,
             'u' || CAST(user_id AS VARCHAR) || '/' || event_type AS path,
             sha256(CAST(event_id AS VARCHAR)) AS "commit"
      FROM read_parquet('{sf}/events.parquet')
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
    ORDER BY repo, path, valid_from_epoch""").fetchdf()
    assert out.reset_index(drop=True).equals(ora.reset_index(drop=True))


def test_wide_content_ingest_block_splitting(tmp_path):
    """Wide content rows (~20 KB mean, periodic ~100x outliers) through the
    full ingest with a 4 MiB block-size cap, forcing Ray to split blocks by
    bytes rather than rows (SURVEY risk: large-string content at scale) —
    final state must still be bit-equal to the oracle replay."""
    from ray.data import DataContext

    from sonic_etl_ray.pipelines.ingest import run_ingest

    spec = StreamSpec(
        n_events=3000, n_repos=6, seed=91, segment_size=500,
        mean_len=1_000, wide_row_every=100,  # wide rows ~100 KB (pool-bounded)
    )
    seg = str(tmp_path / "wsegs")
    files = write_segments(generate_events(spec), seg, spec)
    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 1 * 1024 * 1024
    try:
        lake = str(tmp_path / "wlake")
        stats = run_ingest(files, lake, num_partitions=4, segments_per_epoch=3)
        assert stats["epochs_applied"] == 2
        assert_state_equal(lake_final_table(lake), oracle_final_state(files))
    finally:
        ctx.target_max_block_size = old


def test_consistent_read_pins_manifest_frontier(tmp_path):
    """While a writer is mid-epoch (some partitions committed, no manifest),
    the default read sees a mixed frontier (per-key consistent only) but
    ``read_lake(consistent=True)`` pins the newest fully-manifested epoch —
    a cross-partition snapshot — and matches the epoch-0 oracle exactly."""
    import glob as _glob

    import pandas as pd

    from sonic_etl_ray.pipelines.ingest import (
        committed_frontier,
        lake_final_table,
        read_lake,
        run_ingest,
    )

    spec = StreamSpec(n_events=4000, n_repos=8, seed=55, segment_size=500)
    seg = str(tmp_path / "csegs")
    files = write_segments(generate_events(spec), seg, spec)
    lake = str(tmp_path / "clake")
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=4)  # epochs 0,1
    epoch0 = lake_final_table(lake, as_of_epoch=0)

    # surgical mid-apply crash image: roll epoch 1 back for partitions 2,3
    # and remove its manifest (partitions 0,1 keep their epoch-1 commits)
    for part in (2, 3):
        for f in _glob.glob(f"{lake}/part={part:05d}/*-epoch=00000001.parquet"):
            os.remove(f)
        cp = f"{lake}/_commits/epoch=00000001/part-{part:05d}.json"
        if os.path.exists(cp):
            os.remove(cp)
    os.remove(f"{lake}/_commits/epoch=00000001.MANIFEST.json")

    assert committed_frontier(lake) == 0
    cons = read_lake(lake, consistent=True).to_pandas()
    live0 = epoch0.to_pandas()  # lake_final_table is already tombstone-free
    key = ["repo", "path"]
    pd.testing.assert_frame_equal(
        cons.sort_values(key).reset_index(drop=True)[sorted(cons.columns)],
        live0.sort_values(key).reset_index(drop=True)[sorted(cons.columns)],
    )
    # the default read is torn: epoch-1 frontier on parts 0,1 — so it must
    # differ from the consistent epoch-0 snapshot
    dflt = read_lake(lake).to_pandas()
    assert not dflt.sort_values(key).reset_index(drop=True)[sorted(cons.columns)].equals(
        cons.sort_values(key).reset_index(drop=True)[sorted(cons.columns)]
    )


def test_schema_history_survives_compaction_and_vacuum(tmp_path):
    """The schema log derives from commit records only: identical before and
    after commit-log checkpoint compaction and vacuum, and it records the
    int32→int64 widen as a retype."""
    import pyarrow as pa_
    import pyarrow.parquet as pq_

    from sonic_etl_ray.pipelines.ingest import run_ingest, schema_history, vacuum
    from sonic_etl_ray.state.commitlog import compact_commits

    # three hand-built segments: base schema → +size_hint:int32 → widen int64
    def seg(path, lsns, extra=None):
        n = len(lsns)
        cols = {
            "lsn": pa_.array(lsns, pa_.int64()),
            "op": pa_.array(["insert"] * n),
            "repo": pa_.array([f"r{i % 2}" for i in range(n)]),
            "path": pa_.array([f"p{i}" for i in range(n)]),
            "commit": pa_.array([f"c{v}" for v in lsns]),
            "lang": pa_.array(["x"] * n),
            "content": pa_.array([f"body{v}" for v in lsns]),
        }
        if extra is not None:
            cols["size_hint"] = extra
        pq_.write_table(pa_.table(cols), path)

    seg_dir = tmp_path / "ssegs"
    os.makedirs(seg_dir)
    seg(str(seg_dir / "segment_000000.parquet"), [0, 1, 2])
    seg(str(seg_dir / "segment_000001.parquet"), [3, 4], pa_.array([5, 5], pa_.int32()))
    seg(str(seg_dir / "segment_000002.parquet"), [5, 6], pa_.array([7, 7], pa_.int64()))
    lake = str(tmp_path / "slake")
    files = sorted(str(p) for p in seg_dir.iterdir())
    run_ingest(files, lake, num_partitions=2, segments_per_epoch=1)

    log = schema_history(lake)
    assert log["epoch"].tolist() == [0, 1, 2]
    assert "size_hint" in log["added"].iloc[1]
    assert log["retyped"].iloc[2] == "size_hint"  # int32 → int64 widen
    assert log["n_columns"].tolist() == [9, 10, 10]

    compact_commits(lake)
    vacuum(lake, keep_epochs=1)
    log2 = schema_history(lake)
    assert log2.equals(log)


def test_soak_full_featured_tail(tmp_path):
    """Everything-on tail: MOR + history archive + decode fan-out + all
    self-compactions on one growing stream, with every surface checked
    against an independent recompute at the end — the integration the
    north rule describes (replay-exact state, incrementally-maintained
    sidecars, bounded file counts) exercised TOGETHER."""
    from sonic_etl_ray.pipelines.history import scd2_view
    from sonic_etl_ray.pipelines.sidecars import (
        compact_decoded,
        read_decoded,
        read_decoded_ds,
    )
    from sonic_etl_ray.pipelines.qc import Constraint, analyze_lake, check_constraints
    from sonic_etl_ray.stages.decode import DecodeCatalog, EventSpec

    spec = StreamSpec(n_events=4000, n_repos=8, seed=31, segment_size=250)
    hidden = str(tmp_path / "hidden")
    seg = str(tmp_path / "segs")
    files = write_segments(generate_events(spec), hidden, spec)
    os.makedirs(seg)
    for f in files[:8]:
        shutil.copy(f, seg)
    lake = str(tmp_path / "lake")
    catalog = DecodeCatalog({"python": EventSpec("PyTok", r"([\s\S]*)")})

    t = Tailer(
        seg, lake, num_partitions=4, segments_per_epoch=2,
        merge_mode="mor", compact_states_every=2, compact_every=2,
        track_history=True, decode_catalog=catalog,
    )
    t.tick()
    for f in files[8:]:
        shutil.copy(f, seg)
    t.tick()

    # 1) state replay-exact vs the independent DuckDB oracle
    final_oracle = oracle_final_state(files)
    assert_state_equal(lake_final_table(lake), final_oracle)

    # 2) decoded fan-out: every decodable event (python inserts whose
    # content starts with a non-space char) appears exactly once
    ev = pa.concat_tables(
        [pa.parquet.read_table(f) for f in files], promote_options="default"
    ).to_pandas()
    dec = read_decoded(lake).to_pandas()
    expect = ev[(ev["lang"] == "python") & ev["content"].notna()]
    assert len(dec) == len(expect)
    assert set(dec["lsn"]) == set(expect["lsn"])
    # streaming read agrees with the driver-side table
    ds_rows = read_decoded_ds(lake).to_pandas().sort_values(
        ["lsn", "event_name", "line_no"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ds_rows, dec.reset_index(drop=True))

    # 3) SCD2 view from the incrementally-maintained archive: the current
    # versions must be exactly the live state's keys
    view = scd2_view(lake).to_pandas()
    cur = view[view["is_current"] == 1]
    live = final_oracle.to_pandas()
    assert set(zip(cur["repo"], cur["path"])) == set(zip(live["repo"], live["path"]))

    # 4) ANALYZE + constraints agree with the final state
    stats = analyze_lake(lake, ["repo"]).set_index("column")
    assert int(stats.loc["repo", "n_distinct"]) == live["repo"].nunique()
    cons = check_constraints(
        lake, [Constraint("pk", "unique", ("repo", "path"))]
    ).set_index("constraint")
    assert int(cons.loc["pk", "violations"]) == 0
    assert int(cons.loc["pk", "n_rows"]) == len(live)

    # 5) self-compaction bounded the sidecar file counts (runs exist;
    # fresh per-epoch files below the fold cadence)
    assert glob.glob(lake + "/_decoded/runs/part=*/run-seq=*.parquet") or (
        compact_decoded(lake, min_files=2) and
        glob.glob(lake + "/_decoded/runs/part=*/run-seq=*.parquet")
    )
    assert glob.glob(lake + "/_history/compacted/part=*/run-seq=*.parquet")
