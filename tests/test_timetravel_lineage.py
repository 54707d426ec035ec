"""Time-travel reads, lineage log, and concurrent-apply idempotence."""

from __future__ import annotations

import pyarrow.compute as pc

from sonic_etl_ray.generator import StreamSpec, generate_stream
from sonic_etl_ray.oracle import assert_state_equal, oracle_final_state
from sonic_etl_ray.pipelines.ingest import (
    lake_final_table,
    lineage,
    run_ingest,
    scratch_lake_dir,
)


def _mk(tmp_path, n=4000, seg=500):
    spec = StreamSpec(n_events=n, n_repos=8, seed=77, segment_size=seg)
    files = generate_stream(str(tmp_path / "segs"), spec)
    lake = scratch_lake_dir("tt")
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=2)
    return files, lake


def test_time_travel_reads(tmp_path):
    files, lake = _mk(tmp_path)
    # as of epoch 1 (first 4 segments applied) == oracle over those segments
    asof = lake_final_table(lake, as_of_epoch=1)
    golden = oracle_final_state(files[:4])
    assert_state_equal(asof, golden)
    # full read unchanged
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))


def test_lineage_log(tmp_path):
    files, lake = _mk(tmp_path)
    lin = lineage(lake)
    assert lin.num_rows > 0
    # every epoch × touched partition appears; event counts add up
    assert pc.sum(lin.column("n_events")).as_py() == 4000
    assert pc.max(lin.column("applied_lsn")).as_py() == 3999
    assert set(lin.column("epoch").to_pylist()) == set(range(4))
    segs = set()
    for s in lin.column("segments").to_pylist():
        segs.update(s.split(","))
    assert len(segs) == 8  # all input segments recorded


def test_incremental_stats_view_across_epochs_and_vacuum(tmp_path):
    """The merge-maintained per-repo stats sidecars must equal a recompute
    from the full lake after multi-epoch ingest, and survive vacuum."""
    import pyarrow.compute as pc

    from sonic_etl_ray.pipelines.ingest import repo_stats_view, vacuum

    files, lake = _mk(tmp_path)
    view = repo_stats_view(lake)
    full = lake_final_table(lake)
    recomputed = (
        full.select(["repo", "size_bytes"])
        .group_by("repo")
        .aggregate([("size_bytes", "count"), ("size_bytes", "sum")])
    )
    want = {
        r: (int(n), int(s))
        for r, n, s in zip(
            recomputed.column("repo").to_pylist(),
            recomputed.column("size_bytes_count").to_pylist(),
            recomputed.column("size_bytes_sum").to_pylist(),
        )
    }
    got = {
        r: (int(n), int(s))
        for r, n, s in zip(
            view.column("repo").to_pylist(),
            view.column("n_files").to_pylist(),
            view.column("total_bytes").to_pylist(),
        )
    }
    assert got == want
    vacuum(lake, keep_epochs=1)
    assert repo_stats_view(lake).equals(view)  # live sidecars survive GC


def test_concurrent_reapply_is_idempotent(tmp_path):
    """Two appliers racing on the same (epoch, part) — e.g. a Ray task retry
    whose first attempt actually committed — must not corrupt state."""
    import pyarrow as pa

    from sonic_etl_ray.pipelines.ingest import MergeApplier
    from sonic_etl_ray.stages.keys import add_partition_column
    from sonic_etl_ray.stages.transform import validate_and_derive

    events = pa.table(
        {
            "lsn": pa.array([0, 1, 2], pa.int64()),
            "op": ["insert", "insert", "update"],
            "repo": ["r0", "r0", "r0"],
            "path": ["a", "b", "a"],
            "commit": ["c0", "c1", "c2"],
            "lang": ["x", "x", "x"],
            "content": ["one", "two", "three"],
        }
    )
    batch = add_partition_column(validate_and_derive(events), 1)
    lake = scratch_lake_dir("race")
    first, _, _ = MergeApplier(lake, 0).apply_unit(0, 0, batch, mem=None)
    # replay of a committed unit
    second, _, _ = MergeApplier(lake, 0).apply_unit(0, 0, batch, mem=None)
    assert second["n_rows"] == first["n_rows"]
    state = lake_final_table(lake)
    assert state.num_rows == 2
    assert state.column("commit").to_pylist() == ["c2", "c1"]  # LWW applied once
