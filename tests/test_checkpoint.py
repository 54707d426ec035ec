"""Commit-log checkpoint compaction — O(1) resume without per-epoch files."""

from __future__ import annotations

import glob
import os

from sonic_etl_ray.generator import StreamSpec, generate_stream
from sonic_etl_ray.oracle import assert_state_equal, oracle_final_state
from sonic_etl_ray.pipelines.ingest import lake_final_table, lineage, run_ingest, scratch_lake_dir
from sonic_etl_ray.state.commitlog import (
    committed_epochs,
    compact_commits,
    partition_watermark,
    read_manifest,
)


def _gen(tmp_path, n_events=2_000):
    return generate_stream(
        str(tmp_path / "segments"),
        StreamSpec(n_events=n_events, n_repos=6, seed=21, segment_size=250),
    )


def _epoch_files(lake):
    return sorted(glob.glob(os.path.join(lake, "_commits", "epoch=*")))


def test_compact_then_resume_skips_everything(tmp_path):
    files = _gen(tmp_path)
    lake = scratch_lake_dir("ckpt")
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=2)
    before = lake_final_table(lake)
    lin_before = lineage(lake).to_pandas()
    wm_before = [partition_watermark(lake, p) for p in range(4)]

    out = compact_commits(lake)
    assert out["epochs"] == 4 and out["records"] > 0
    assert _epoch_files(lake) == []  # every per-epoch file rolled up

    # resume plans entirely from the checkpoint: all epochs skipped
    stats = run_ingest(files, lake, num_partitions=4, segments_per_epoch=2)
    assert stats == {
        "epochs_applied": 0, "epochs_skipped": 4, "epochs_repaired": 0,
        "segments_deferred": 0, "epochs_total": 4, "segments_quarantined": 0,
    }
    assert_state_equal(lake_final_table(lake), before)
    # lineage and watermarks survive compaction unchanged
    lin_after = lineage(lake).to_pandas()
    assert lin_after.equals(lin_before)
    assert [partition_watermark(lake, p) for p in range(4)] == wm_before


def test_incremental_compaction_merges(tmp_path):
    files = _gen(tmp_path)
    lake = scratch_lake_dir("ckpt2")
    run_ingest(files[:4], lake, num_partitions=4, segments_per_epoch=2)
    compact_commits(lake)
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=2)  # 2 new epochs
    out = compact_commits(lake)  # merge into the existing checkpoint
    assert out["epochs"] == 2
    stats = run_ingest(files, lake, num_partitions=4, segments_per_epoch=2)
    assert stats["epochs_skipped"] == 4 and stats["epochs_applied"] == 0
    assert lineage(lake).num_rows > 0


def test_late_segment_repair_across_checkpoint(tmp_path):
    files = _gen(tmp_path)
    lake = scratch_lake_dir("ckpt3")
    # skip one mid-stream segment, then compact the partial history
    run_ingest(files[:3] + files[4:], lake, num_partitions=4, segments_per_epoch=2)
    compact_commits(lake)
    # full replay: the late segment must be applied under a repair epoch,
    # planned against the CHECKPOINTED covered-segment set
    stats = run_ingest(files, lake, num_partitions=4, segments_per_epoch=2)
    assert stats["epochs_repaired"] == 1
    full = scratch_lake_dir("ckpt3_full")
    run_ingest(files, full, num_partitions=4, segments_per_epoch=2)
    assert_state_equal(lake_final_table(lake), lake_final_table(full))


def test_empty_epoch_gets_manifest(tmp_path):
    """An epoch whose segments hold zero rows still gets a manifest, so the
    next run skips it instead of re-planning it forever."""
    import pyarrow.parquet as pq

    spec = StreamSpec(n_events=2000, n_repos=5, seed=306, segment_size=500)
    files = generate_stream(str(tmp_path / "segs"), spec)  # segments 0..3
    empty = str(tmp_path / "segs" / "segment_000004.parquet")
    pq.write_table(pq.read_schema(files[0]).empty_table(), empty)
    allfiles = files + [empty]

    lake = scratch_lake_dir("ckptempty")
    s1 = run_ingest(allfiles, lake, num_partitions=2, segments_per_epoch=2)
    assert s1["epochs_applied"] == 3  # incl. the empty epoch
    assert committed_epochs(lake) == [0, 1, 2]
    assert read_manifest(lake, 2)["n_events"] == 0
    s2 = run_ingest(allfiles, lake, num_partitions=2, segments_per_epoch=2)
    assert s2["epochs_applied"] == 0 and s2["epochs_skipped"] == 3
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))


def test_time_travel_survives_compaction(tmp_path):
    files = _gen(tmp_path)
    lake = scratch_lake_dir("ckpt4")
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=2)
    asof_before = lake_final_table(lake, as_of_epoch=1)
    compact_commits(lake)
    assert_state_equal(lake_final_table(lake, as_of_epoch=1), asof_before)
