"""Merge-on-read delta mode: write-path equivalence with copy-on-write.

The MOR invariant: for ANY delivery history (dups, deletes, out-of-order
backfill, schema evolution), the resolved merge-on-read lake is bit-equal
to the copy-on-write lake over the same segments — resolution applies the
same LWW reduction at read time that COW applies at write time. The win is
write amplification: a sparse epoch writes O(epoch) delta bytes instead of
O(partition state) (the Hudi MOR / log-file model; the reference's analog
is the daily MERGE folding at-least-once loads,
``daily_qc_airflow/daily_dedupe_mainnet.py:65-81``).
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from sonic_etl_ray.generator import StreamSpec, generate_stream
from sonic_etl_ray.oracle import assert_state_equal, oracle_final_state
from sonic_etl_ray.pipelines.ingest import (
    apply_epoch,
    compact_lake_states,
    compact_partition,
    lake_final_table,
    read_change_feed,
    read_lake,
    repo_stats_view,
    run_ingest,
    scratch_lake_dir,
    vacuum,
)
from sonic_etl_ray.pipelines.qc import verify_lake_counts
from sonic_etl_ray.state import commitlog as cl


def _twin_lakes(tmp_path, spec, replay=0, **kw):
    seg = str(tmp_path / "segments")
    files = generate_stream(seg, spec)
    inputs = files + files[:replay]
    cow, mor = scratch_lake_dir("morcow"), scratch_lake_dir("mor")
    run_ingest(inputs, cow, **kw)
    run_ingest(inputs, mor, merge_mode="mor", **kw)
    return files, cow, mor


def test_mor_equals_cow_mixed_ops(tmp_path):
    spec = StreamSpec(n_events=8000, n_repos=12, seed=11, segment_size=800)
    files, cow, mor = _twin_lakes(
        tmp_path, spec, replay=3, num_partitions=4, segments_per_epoch=3
    )
    tc, tm = lake_final_table(cow), lake_final_table(mor)
    assert tc.equals(tm)
    assert_state_equal(tm, oracle_final_state(files))
    # delta files exist; bases don't (no compaction yet)
    assert glob.glob(os.path.join(mor, "part=*", "delta-*.parquet"))
    assert not glob.glob(os.path.join(mor, "part=*", "state-*.parquet"))
    assert verify_lake_counts(mor)


def test_mor_write_amplification_is_bounded(tmp_path):
    """Steady-state updates: each MOR epoch writes ~epoch-sized deltas while
    COW rewrites ~full partition state — the reason this mode exists."""
    spec = StreamSpec(
        n_events=20_000, n_repos=10, seed=5, segment_size=1000, max_live_keys=8000,
        p_insert=0.6, p_update=0.38,
    )
    # sparse epochs: each epoch's 2000 events touch ≤25% of the ~8000-key
    # state, so COW rewrites ~4x what MOR appends
    _, cow, mor = _twin_lakes(tmp_path, spec, num_partitions=4, segments_per_epoch=2)
    cow_bytes = sum(
        os.path.getsize(f) for f in glob.glob(os.path.join(cow, "part=*", "state-*.parquet"))
    )
    mor_bytes = sum(
        os.path.getsize(f) for f in glob.glob(os.path.join(mor, "part=*", "delta-*.parquet"))
    )
    # 5 epochs over a 2k-key universe: COW writes the full state 5x per
    # partition; MOR writes each event's winner once. Generous 2x margin.
    assert mor_bytes * 2 < cow_bytes, (mor_bytes, cow_bytes)
    assert lake_final_table(cow).equals(lake_final_table(mor))


def test_mor_resume_after_partial_run(tmp_path):
    spec = StreamSpec(n_events=6000, n_repos=8, seed=3, segment_size=500)
    seg = str(tmp_path / "segments")
    files = generate_stream(seg, spec)
    lake = scratch_lake_dir("morresume")
    run_ingest(files[:6], lake, num_partitions=4, segments_per_epoch=3, merge_mode="mor")
    out = run_ingest(files, lake, num_partitions=4, segments_per_epoch=3, merge_mode="mor")
    assert out["epochs_skipped"] == 2
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))


def test_mor_out_of_order_epochs(tmp_path):
    """Backfill: epochs applied newest-first resolve identically (per-key
    LWW is apply-order-independent, in deltas exactly as in states)."""
    import ray.data

    spec = StreamSpec(n_events=4000, n_repos=8, seed=9, segment_size=400)
    seg = str(tmp_path / "segments")
    files = generate_stream(seg, spec)
    lake = scratch_lake_dir("morooo")
    epochs = [(e, files[e * 2 : (e + 1) * 2]) for e in range(5)]
    for e, efiles in reversed(epochs):
        apply_epoch(
            ray.data.read_parquet(efiles), lake, e, num_partitions=4, merge_mode="mor"
        )
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))


def test_mor_compaction_and_vacuum_preserve_state(tmp_path):
    spec = StreamSpec(n_events=9000, n_repos=10, seed=21, segment_size=600)
    files, cow, mor = _twin_lakes(tmp_path, spec, num_partitions=4, segments_per_epoch=5)
    golden = lake_final_table(cow)
    out = compact_lake_states(mor)
    assert out["partitions"] == 4 and out["deltas_folded"] > 0
    assert glob.glob(os.path.join(mor, "part=*", "state-*.parquet"))
    assert lake_final_table(mor).equals(golden)
    # idempotent: nothing trailing to fold
    assert compact_lake_states(mor) == {"partitions": 0, "deltas_folded": 0}
    # vacuum drops the shadowed deltas, state unchanged
    removed = vacuum(mor, keep_epochs=1)["removed"]
    assert removed > 0
    assert not glob.glob(os.path.join(mor, "part=*", "delta-*.parquet"))
    assert lake_final_table(mor).equals(golden)
    assert repo_stats_view(mor).equals(repo_stats_view(cow))


def test_mor_qc_counts_across_compaction(tmp_path):
    """freshness/verify_lake_counts stay truthful at every frontier kind:
    delta frontier (n_delta_rows), compaction base (lineage marker)."""
    from sonic_etl_ray.pipelines.qc import freshness

    spec = StreamSpec(n_events=4000, n_repos=8, seed=19, segment_size=400)
    seg = str(tmp_path / "segments")
    files = generate_stream(seg, spec)
    lake = scratch_lake_dir("morqc")
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=5, merge_mode="mor")
    assert all(v["kind"] == "delta" for v in freshness(lake).values())
    assert verify_lake_counts(lake)
    compact_lake_states(lake)
    f = freshness(lake)
    assert all(v["kind"] == "state" for v in f.values())
    assert sum(v["n_rows"] for v in f.values()) == lake_final_table(lake).num_rows + _tombstones(lake)
    assert verify_lake_counts(lake)


def _tombstones(lake: str) -> int:
    import pyarrow.compute as pc

    from sonic_etl_ray.pipelines.ingest import _lake_parts, resolve_partition_state

    n = 0
    for p in _lake_parts(lake):
        t = resolve_partition_state(lake, p)
        n += int(pc.sum(pc.cast(t.column("deleted"), "int64")).as_py() or 0)
    return n


def test_mor_time_travel_matches_cow(tmp_path):
    spec = StreamSpec(n_events=6000, n_repos=8, seed=13, segment_size=500)
    _, cow, mor = _twin_lakes(tmp_path, spec, num_partitions=4, segments_per_epoch=4)
    for epoch in (0, 1, 2):
        a = lake_final_table(cow, as_of_epoch=epoch)
        b = lake_final_table(mor, as_of_epoch=epoch)
        assert a.equals(b), f"time travel diverged at epoch {epoch}"


def test_mor_change_feed_matches_cow(tmp_path):
    spec = StreamSpec(n_events=5000, n_repos=8, seed=17, segment_size=500)
    _, cow, mor = _twin_lakes(tmp_path, spec, num_partitions=4, segments_per_epoch=4)
    for epoch in (0, 1, 2):
        a = read_change_feed(cow, epoch).take_all()
        b = read_change_feed(mor, epoch).take_all()
        assert a == b, f"change feed diverged at epoch {epoch}"


def test_mixed_mode_cow_epoch_folds_trailing_deltas(tmp_path):
    """A copy-on-write epoch applied over merge-on-read deltas must fold
    them in (not shadow them) — mixed-mode lakes stay correct."""
    import ray.data

    spec = StreamSpec(n_events=4000, n_repos=8, seed=23, segment_size=400)
    seg = str(tmp_path / "segments")
    files = generate_stream(seg, spec)
    lake = scratch_lake_dir("mixed")
    run_ingest(files[:6], lake, num_partitions=4, segments_per_epoch=2, merge_mode="mor")
    for e, lo in ((3, 6), (4, 8)):
        apply_epoch(
            ray.data.read_parquet(files[lo : lo + 2]), lake, e, num_partitions=4
        )  # cow
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))
    # the cow epochs wrote bases that supersede the deltas
    for part in range(4):
        files_p = cl.list_part_files(lake, part)
        if files_p:
            assert files_p[-1][3] == "state"


def test_mor_schema_evolution_through_deltas(tmp_path):
    spec = StreamSpec(
        n_events=6000, n_repos=8, seed=29, segment_size=500, evolve_at=(2000, 4000)
    )
    files, cow, mor = _twin_lakes(tmp_path, spec, num_partitions=4, segments_per_epoch=4)
    tc, tm = lake_final_table(cow), lake_final_table(mor)
    assert tc.schema.names == tm.schema.names
    assert tc.equals(tm)
    assert "branch" in tm.schema.names  # the evolved column arrived
    assert_state_equal(tm, oracle_final_state(files))


def test_mor_guards():
    with pytest.raises(ValueError, match="suppress_unchanged"):
        from sonic_etl_ray.pipelines.ingest import MergeApplier

        MergeApplier("/tmp/x", 0, suppress_unchanged=True, merge_mode="mor")
    with pytest.raises(ValueError, match="merge_mode"):
        from sonic_etl_ray.pipelines.ingest import MergeApplier

        MergeApplier("/tmp/x", 0, merge_mode="wat")


def test_mor_tailer_with_state_compaction(tmp_path):
    from sonic_etl_ray.pipelines.tail import Tailer

    spec = StreamSpec(n_events=4000, n_repos=8, seed=37, segment_size=250)
    seg = str(tmp_path / "segments")
    files = generate_stream(seg, spec)
    lake = scratch_lake_dir("mortail")
    t = Tailer(
        seg, lake, num_partitions=4, segments_per_epoch=4,
        merge_mode="mor", compact_states_every=2,
    )
    out = t.tick()
    assert out["epochs_applied"] == 4
    # compaction ran (threshold 2): every partition frontier is a base
    for part in range(4):
        fp = cl.list_part_files(lake, part)
        if fp:
            assert fp[-1][3] == "state"
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))


def test_compact_partition_noop_on_cow(tmp_path):
    spec = StreamSpec(n_events=1000, n_repos=5, seed=41, segment_size=200)
    seg = str(tmp_path / "segments")
    files = generate_stream(seg, spec)
    lake = scratch_lake_dir("cownoop")
    run_ingest(files, lake, num_partitions=2, segments_per_epoch=5)
    assert compact_partition(lake, 0)["compacted"] == 0


def test_compact_partition_crash_leaves_no_unmarked_base(tmp_path, monkeypatch):
    """A compaction killed after the fold but before its base is published
    leaves no base; the rerun folds again, and freshness reads the resolved
    row count from the base's lineage marker."""
    from sonic_etl_ray.pipelines import ingest as ing
    from sonic_etl_ray.pipelines.qc import freshness

    spec = StreamSpec(n_events=1200, n_repos=5, seed=47, segment_size=200)
    files = generate_stream(str(tmp_path / "segments"), spec)
    lake = scratch_lake_dir("morcrash")
    run_ingest(files, lake, num_partitions=2, segments_per_epoch=2, merge_mode="mor")

    real = ing._write_stats_sidecar
    calls = []

    def crash_once(state, path):
        calls.append(path)
        if len(calls) == 1:
            raise OSError("killed mid-compaction")
        return real(state, path)

    monkeypatch.setattr(ing, "_write_stats_sidecar", crash_once)
    with pytest.raises(OSError):
        compact_partition(lake, 0)
    res = compact_partition(lake, 0)
    assert res["compacted"] == 3
    f = freshness(lake)[0]
    assert f["kind"] == "state" and f["n_rows"] == res["n_rows"] > 0


def test_mor_watermark_and_freshness(tmp_path):
    from sonic_etl_ray.pipelines.qc import freshness

    spec = StreamSpec(n_events=2000, n_repos=6, seed=43, segment_size=200)
    seg = str(tmp_path / "segments")
    files = generate_stream(seg, spec)
    lake = scratch_lake_dir("morwm")
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=5, merge_mode="mor")
    f = freshness(lake)
    assert f and all(v["applied_lsn"] is not None for v in f.values())
    # watermark advances with the newest delta commit
    wm = max(cl.partition_watermark(lake, p) for p in range(4))
    assert wm == pq.read_table(files[-1]).column("lsn")[-1].as_py()


def test_mor_pruned_read_lake(tmp_path):
    """columns/filter pushdown still works through the dirty-partition
    resolution path."""
    import pyarrow.compute as pc

    spec = StreamSpec(n_events=3000, n_repos=6, seed=47, segment_size=300)
    seg = str(tmp_path / "segments")
    generate_stream(seg, spec)
    files = sorted(glob.glob(os.path.join(seg, "segment_*.parquet")))
    lake = scratch_lake_dir("morprune")
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=5, merge_mode="mor")
    full = lake_final_table(lake)
    repo = full.column("repo")[0].as_py()
    want = full.filter(pc.equal(full.column("repo"), repo)).select(["repo", "path"])
    got = (
        read_lake(lake, columns=["repo", "path"], filter=pc.field("repo") == repo)
        .to_arrow_refs()
    )
    import pyarrow as pa
    import ray

    got_t = pa.concat_tables([t for t in ray.get(got) if t.num_rows])
    assert got_t.num_rows == want.num_rows
    assert set(got_t.column("path").to_pylist()) == set(want.column("path").to_pylist())


def test_time_travel_survives_compaction_plus_vacuum(tmp_path):
    """as_of the last epoch (and consistent reads pinned to it) must read
    the compacted base when vacuum removed the pre-compaction files — the
    base at seq s+1 is an exact substitute for the cut at s (it folds
    exactly the files the cut named). Regression: the commit-order seq cut
    dropped the only surviving file and silently returned empty."""
    spec = StreamSpec(n_events=6000, n_repos=8, seed=31, segment_size=600)
    files, cow, mor = _twin_lakes(
        tmp_path, spec, num_partitions=4, segments_per_epoch=5
    )
    golden = lake_final_table(cow)
    last_epoch = max(cl.committed_epochs(mor))
    compact_lake_states(mor)
    vacuum(mor, keep_epochs=1)
    assert lake_final_table(mor, as_of_epoch=last_epoch).equals(golden)
    from sonic_etl_ray.pipelines.ingest import read_lake

    got = read_lake(mor, consistent=True).to_arrow_refs()
    got = pa.concat_tables([ray.get(r) for r in got])
    assert got.num_rows == golden.num_rows


def test_change_feed_returns_empty_after_history_vacuumed(tmp_path):
    """A consumed epoch's feed must never GROW: once vacuum removes the
    pre-epoch history (and no compaction base substitutes for it), the
    exact diff is impossible and the feed returns empty — regression: it
    fabricated an 'insert' for every live key by diffing against None."""
    import pyarrow.compute as pc

    from sonic_etl_ray.pipelines.ingest import apply_epoch, read_change_feed

    def events(rows):
        lsn, op, repo, path, content = map(list, zip(*rows))
        return ray.data.from_arrow(pa.table({
            "lsn": pa.array(lsn, pa.int64()),
            "op": pa.array(op, pa.string()),
            "repo": pa.array(repo, pa.string()),
            "path": pa.array(path, pa.string()),
            "commit": pa.array([f"c{n}" for n in lsn], pa.string()),
            "lang": pa.array(["py"] * len(lsn), pa.string()),
            "content": content,
        }))

    lake = scratch_lake_dir("morfeedvac")
    apply_epoch(events([(1, "insert", "rA", "a.py", "alpha"),
                        (2, "insert", "rA", "b.py", "beta")]),
                lake, epoch=0, num_partitions=2, merge_mode="mor")
    apply_epoch(events([(3, "insert", "rA", "c.py", "charlie")]),
                lake, epoch=1, num_partitions=2, merge_mode="mor")

    def feed(epoch):
        refs = read_change_feed(lake, epoch).to_arrow_refs()
        return pa.concat_tables([ray.get(r) for r in refs])

    before = feed(1)
    assert before["change_type"].to_pylist() == ["insert"]
    assert before["path"].to_pylist() == ["c.py"]
    compact_lake_states(lake)
    vacuum(lake, keep_epochs=1)
    after = feed(1)
    assert after.num_rows == 0  # exact diff impossible; never fabricate
