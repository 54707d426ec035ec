"""Zero-copy lake cloning (branching) via hardlinked immutable artifacts."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

from sonic_etl_ray.pipelines.dml import delete_where
from sonic_etl_ray.pipelines.ingest import (
    apply_epoch,
    clone_lake,
    lake_final_table,
    vacuum,
)


def _ev(rows):
    return pa.table(
        {
            "op": pa.array(["insert"] * len(rows), pa.string()),
            "lsn": pa.array([r[0] for r in rows], pa.int64()),
            "repo": pa.array([r[1] for r in rows], pa.string()),
            "path": pa.array([r[2] for r in rows], pa.string()),
            "commit": pa.array([f"c{r[0]}" for r in rows], pa.string()),
            "lang": pa.array([r[3] for r in rows], pa.string()),
            "content": pa.array([r[4] for r in rows], pa.string()),
        }
    )


@pytest.fixture()
def src(ray_session, tmp_path):
    lake = str(tmp_path / "src")
    rows = [(i, f"r{i % 3}", f"f{i}", "py" if i % 2 else "rs", f"body {i}") for i in range(40)]
    apply_epoch(ray.data.from_arrow(_ev(rows)), lake, epoch=0, num_partitions=4)
    return lake


def test_clone_is_bit_identical_and_zero_copy(src, tmp_path):
    dst = str(tmp_path / "branch")
    stats = clone_lake(src, dst)
    assert stats["files_copied"] == 0  # same filesystem → all hardlinks
    assert stats["files_linked"] > 0
    assert lake_final_table(dst).equals(lake_final_table(src))
    # shared inodes: the branch's state files ARE the source's bytes
    sfile = next(
        os.path.join(r, f)
        for r, _, fs in os.walk(src)
        for f in fs
        if f.endswith(".parquet")
    )
    dfile = os.path.join(dst, os.path.relpath(sfile, src))
    assert os.stat(sfile).st_ino == os.stat(dfile).st_ino


def test_branches_diverge_independently(src, tmp_path):
    dst = str(tmp_path / "branch")
    clone_lake(src, dst)
    before = lake_final_table(src)
    delete_where(dst, pc.field("lang") == "py")
    after_branch = lake_final_table(dst)
    assert lake_final_table(src).equals(before)  # source untouched
    langs = set(after_branch.column("lang").to_pylist())
    assert "py" not in langs and "rs" in langs


def test_vacuumed_source_does_not_break_branch(src, tmp_path):
    """Unlinking a name on one branch must not free bytes the other still
    references (hardlink inode semantics)."""
    dst = str(tmp_path / "branch")
    # a second epoch so the source has superseded files to vacuum
    apply_epoch(
        ray.data.from_arrow(_ev([(100, "r0", "f0", "py", "new body")])),
        src, epoch=1, num_partitions=4,
    )
    clone_lake(src, dst)
    want = lake_final_table(dst)
    vacuum(src, keep_epochs=1)
    assert lake_final_table(dst).equals(want)  # branch reads fine post-GC


def test_clone_excludes_writer_lease(src, tmp_path):
    from sonic_etl_ray.state import commitlog as cl

    token = cl.acquire_writer_lease(src, owner="t")
    dst = str(tmp_path / "branch")
    clone_lake(src, dst)
    cl.release_writer_lease(src, token)
    assert not os.path.exists(os.path.join(dst, "_WRITER_LEASE.json"))
    # the branch is its own writer domain: lease acquirable immediately
    t2 = cl.acquire_writer_lease(dst, owner="b")
    cl.release_writer_lease(dst, t2)


def test_branch_history_folds_leave_source_runs_alone(ray_session, tmp_path):
    """A run marker names its data file by its own location: folds in a
    branch read and GC the branch's runs, never the source's."""
    import glob

    from sonic_etl_ray.generator import StreamSpec, generate_stream
    from sonic_etl_ray.pipelines.history import HISTORY, compact_history, read_history
    from sonic_etl_ray.pipelines.ingest import run_ingest

    spec = StreamSpec(n_events=3000, n_repos=5, seed=53, segment_size=250)
    files = generate_stream(str(tmp_path / "segs"), spec)
    src, dst = str(tmp_path / "src"), str(tmp_path / "branch")
    kw = dict(num_partitions=1, segments_per_epoch=1, track_history=True)
    run_ingest(files[:4], src, **kw)
    compact_history(src, min_files=2)
    (src_run,) = glob.glob(os.path.join(src, "_history", "**", "run-seq=*.parquet"), recursive=True)
    want, want_rows = HISTORY.read(src), read_history(src).count()

    clone_lake(src, dst)
    for n in (8, 12):  # two folds in the branch
        run_ingest(files[:n], dst, **kw)
        compact_history(dst, min_files=2)
    assert os.path.exists(src_run)
    assert HISTORY.read(src).equals(want) and read_history(src).count() == want_rows
    assert HISTORY.read(dst).num_rows > want.num_rows
