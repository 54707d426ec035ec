"""End-to-end CDC ingest correctness vs the DuckDB oracle.

Mirrors the reference's conformance-corpus strategy
(``/root/reference/extractor_transformer/tests/README.md:1-8``,
``src/sonic_config/test.rs:174-221``): deterministic inputs, golden
post-replay table state, exact comparison — plus the per-row sha256
invariant from BASELINE.json.
"""

from __future__ import annotations

import glob

import pytest

from sonic_etl_ray.generator import StreamSpec, generate_stream
from sonic_etl_ray.oracle import assert_state_equal, oracle_final_state
from sonic_etl_ray.pipelines.ingest import (
    lake_final_table,
    run_ingest,
    scratch_lake_dir,
)


def _roundtrip(tmp_path, spec: StreamSpec, ingest_kwargs=None, replay_segments=0):
    seg_dir = str(tmp_path / "segments")
    files = generate_stream(seg_dir, spec)
    lake = scratch_lake_dir("test")
    inputs = files + files[:replay_segments]  # duplicate delivery simulation
    run_ingest(inputs, lake, **(ingest_kwargs or {}))
    return lake_final_table(lake), oracle_final_state(files)


def test_tiny_insert_only(tmp_path):
    spec = StreamSpec(n_events=300, n_repos=5, seed=7, segment_size=100, p_insert=1.0, p_update=0.0)
    engine, golden = _roundtrip(tmp_path, spec, {"num_partitions": 4, "segments_per_epoch": 2})
    assert engine.num_rows > 0
    assert_state_equal(engine, golden)


def test_tiny_mixed_ops(tmp_path):
    spec = StreamSpec(n_events=1000, n_repos=5, seed=42, segment_size=100)
    engine, golden = _roundtrip(tmp_path, spec, {"num_partitions": 4, "segments_per_epoch": 3})
    assert_state_equal(engine, golden)


def test_mixed_multi_partition(tmp_path):
    spec = StreamSpec(n_events=10_000, n_repos=20, seed=42, segment_size=1000)
    engine, golden = _roundtrip(tmp_path, spec, {"num_partitions": 8, "segments_per_epoch": 4})
    assert_state_equal(engine, golden)


def test_duplicate_delivery_exactly_once(tmp_path):
    """Replaying whole segments (at-least-once) must not change final state."""
    spec = StreamSpec(n_events=5000, n_repos=10, seed=1, segment_size=500)
    engine, golden = _roundtrip(
        tmp_path, spec, {"num_partitions": 4, "segments_per_epoch": 3}, replay_segments=4
    )
    assert_state_equal(engine, golden)


def test_hot_repo_skew(tmp_path):
    """A repo holding ~40% of events spreads over partitions via (repo,path) keying."""
    import os

    spec = StreamSpec(n_events=20_000, n_repos=50, seed=3, segment_size=2000, hot_repo_frac=0.4)
    seg_dir = str(tmp_path / "segments")
    files = generate_stream(seg_dir, spec)
    lake = scratch_lake_dir("skew")
    run_ingest(files, lake, num_partitions=8, segments_per_epoch=20)
    state_files = glob.glob(os.path.join(lake, "part=*", "state-*.parquet"))
    parts_used = {f.split("part=")[1].split("/")[0] for f in state_files}
    assert len(parts_used) == 8, "hot repo must not collapse into few partitions"

    from sonic_etl_ray.pipelines.qc import skew_report

    rep = skew_report(lake)
    assert rep["partitions"] == 8
    assert rep["imbalance"] < 1.5, f"hot repo skew leaked into partitions: {rep}"
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))


def test_resume_after_partial_run(tmp_path):
    """Kill-and-resume: run some epochs, then rerun; final state identical and
    committed epochs are not re-applied (no duplicate or lost applies)."""
    spec = StreamSpec(n_events=8000, n_repos=10, seed=5, segment_size=500)
    seg_dir = str(tmp_path / "segments")
    files = generate_stream(seg_dir, spec)

    lake = scratch_lake_dir("resume")
    # partial run: only first 6 segments (3 epochs of 2)
    run_ingest(files[:6], lake, num_partitions=4, segments_per_epoch=2)
    # resume with the full input; earlier epochs must be skipped
    stats = run_ingest(files, lake, num_partitions=4, segments_per_epoch=2)
    assert stats["epochs_skipped"] == 3
    assert stats["epochs_applied"] == stats["epochs_total"] - 3

    # compare to an uninterrupted run
    lake2 = scratch_lake_dir("resume_ref")
    run_ingest(files, lake2, num_partitions=4, segments_per_epoch=2)
    assert_state_equal(lake_final_table(lake), lake_final_table(lake2))
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))


def test_schema_evolution_add_and_widen(tmp_path):
    """Later segments add size_hint:int32 (→int64) and branch:string; the sink
    unifies schemas (column add + type widen, north rule)."""
    spec = StreamSpec(n_events=6000, n_repos=10, seed=9, segment_size=500, evolve_at=(2000, 4000))
    engine, _ = _roundtrip(tmp_path, spec, {"num_partitions": 4, "segments_per_epoch": 3})
    golden = oracle_final_state(
        sorted(glob.glob(str(tmp_path / "segments" / "*.parquet"))),
        extra_columns=["size_hint", "branch"],
    )
    import pyarrow as pa

    assert engine.schema.field("size_hint").type == pa.int64()
    assert "branch" in engine.column_names
    assert_state_equal(engine, golden)


def test_generator_determinism(tmp_path):
    from sonic_etl_ray.generator import generate_events

    spec = StreamSpec(n_events=500, seed=11)
    assert generate_events(spec).equals(generate_events(spec))


def test_late_segment_repair_for_committed_epoch(tmp_path):
    """A segment arriving AFTER its epoch was manifested must still be
    applied (under a fresh repair epoch) — never silently lost."""
    spec = StreamSpec(n_events=4000, n_repos=6, seed=31, segment_size=500)
    files = generate_stream(str(tmp_path / "seg"), spec)
    lake = scratch_lake_dir("repair")
    # epoch 0 = segments 0..3; deliver it PARTIAL (missing segment 2), so the
    # epoch closes without it, then the straggler shows up
    first = [files[0], files[1], files[3]] + files[4:]
    r1 = run_ingest(first, lake, num_partitions=2, segments_per_epoch=4)
    assert r1["epochs_applied"] == 2 and r1["epochs_repaired"] == 0
    r2 = run_ingest(files, lake, num_partitions=2, segments_per_epoch=4)
    assert r2["epochs_repaired"] == 1 and r2["epochs_applied"] == 0
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))
    # idempotent: a third run repairs nothing and changes nothing
    r3 = run_ingest(files, lake, num_partitions=2, segments_per_epoch=4)
    assert r3["epochs_repaired"] == 0 and r3["epochs_applied"] == 0
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))


def test_finalize_false_defers_trailing_partial_epoch(tmp_path):
    """finalize=False must NOT close a trailing partial epoch; the segments
    apply later once the epoch fills (or a finalize=True run flushes it)."""
    spec = StreamSpec(n_events=3000, n_repos=6, seed=33, segment_size=500)
    files = generate_stream(str(tmp_path / "seg"), spec)  # 6 segments
    lake = scratch_lake_dir("finalize")
    r1 = run_ingest(files[:5], lake, num_partitions=2, segments_per_epoch=4, finalize=False)
    assert r1["epochs_applied"] == 1 and r1["segments_deferred"] == 1
    # the deferred segment is NOT in the lake yet
    assert_state_equal(lake_final_table(lake), oracle_final_state(files[:4]))
    # still-partial trailing epoch stays deferred on a finalize=False rerun
    r2 = run_ingest(files, lake, num_partitions=2, segments_per_epoch=4, finalize=False)
    assert r2["epochs_applied"] == 0 and r2["segments_deferred"] == 2
    # an explicit finalize run flushes the tail; no repair epoch needed
    r3 = run_ingest(files, lake, num_partitions=2, segments_per_epoch=4)
    assert r3["epochs_applied"] == 1 and r3["epochs_repaired"] == 0
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))


def test_read_fallback_failover_on_poisoned_primary(tmp_path):
    """ST6 source failover: an epoch whose primary segment files are
    corrupt is retried from a fallback mirror root; the final lake is
    bit-identical to the oracle and the stats record the failover
    (reference analog: sonic_config/mod.rs:174-242 provider fallback)."""
    import os
    import shutil

    spec = StreamSpec(n_events=4000, n_repos=6, seed=51, segment_size=1000)
    mirror = str(tmp_path / "mirror")
    files = generate_stream(mirror, spec)

    primary = str(tmp_path / "primary")
    os.makedirs(primary)
    for f in files:
        shutil.copy(f, primary)
    # poison one epoch's segment in the primary (epoch 1 with 2 segs/epoch)
    poisoned = os.path.join(primary, os.path.basename(files[2]))
    with open(poisoned, "wb") as fh:
        fh.write(b"not a parquet file")

    primary_files = sorted(glob.glob(primary + "/*.parquet"))
    lake = scratch_lake_dir("failover")
    stats = run_ingest(
        primary_files, lake, num_partitions=4, segments_per_epoch=2,
        read_fallbacks=[mirror],
    )
    assert stats["epochs_applied"] == 2
    assert stats["epochs_failed_over"] == 1
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))

    # no fallback -> the corrupt epoch is a hard error
    lake2 = scratch_lake_dir("failover2")
    with pytest.raises(Exception):
        run_ingest(primary_files, lake2, num_partitions=4, segments_per_epoch=2)

    # fallback that also lacks the file -> original error propagates
    lake3 = scratch_lake_dir("failover3")
    with pytest.raises(Exception):
        run_ingest(
            primary_files, lake3, num_partitions=4, segments_per_epoch=2,
            read_fallbacks=[str(tmp_path / "nonexistent")],
        )


# Dataset cases keep the ids [P-limit]; segment-path cases are [P-limit-paths]
@pytest.mark.parametrize(
    "limit,source",
    [("default", "dataset"), (0, "dataset"), ("default", "paths"), (0, "paths")],
    ids=["default", "0", "default-paths", "0-paths"],
)
@pytest.mark.parametrize("num_partitions", [1, 2, 4, 7])
def test_exchange_depth_matches_oracle(tmp_path, monkeypatch, num_partitions, limit, source):
    """One map task per input (segment path, or block of a 3-block
    Dataset) splits one-level until inputs×P would cross
    TWO_LEVEL_AUTO_REFS, then the REMAINING inputs' map tasks emit group
    slices for the regroup hop. With the limit forced to 0 the first input
    goes one-level and the rest two-level: P=7 gives ragged groups (√7→3:
    3+3+1, a single-partition tail group), P=2 a single group (the
    one-level fallback), and P=1 never goes two-level. Every shape is
    bit-identical to the oracle."""
    import ray.data

    from sonic_etl_ray.pipelines import ingest as ing

    spec = StreamSpec(n_events=3000, n_repos=5, seed=23, segment_size=1000)
    files = generate_stream(str(tmp_path / "seg"), spec)
    tails = []
    real_two = ing._exchange_two_level

    def spy_two(srcs, p, map_args):
        tails.append(len(srcs))
        return real_two(srcs, p, map_args)

    monkeypatch.setattr(ing, "_exchange_two_level", spy_two)
    if limit == 0:
        monkeypatch.setattr(ing, "TWO_LEVEL_AUTO_REFS", 0)
    lake = scratch_lake_dir(f"exchange_p{num_partitions}_{limit}_{source}")
    src = files if source == "paths" else ray.data.read_parquet(files, override_num_blocks=3)
    ing.apply_epoch(src, lake, epoch=0, num_partitions=num_partitions)
    if limit == 0 and num_partitions > 1:
        assert len(tails) == 1 and tails[0] >= 2  # ≥3 inputs: head 1, tail ≥2
    else:
        assert tails == []
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))


def test_ingest_paths_materialize_nothing_on_the_driver(tmp_path, monkeypatch):
    """Rows stay in the object store on every write path: with the driver's
    Dataset materializers patched to raise, a 4-epoch run_ingest, a plain
    Tailer.tick() and a reconcile_snapshot all still produce oracle-equal
    lakes (the merge sees refs only; records come back as small dicts).
    The segment-path legs (run_ingest, tick) build no Dataset at all:
    there ``read_parquet`` and block iteration raise too."""
    import os
    import shutil

    import ray.data

    from sonic_etl_ray.pipelines.dml import reconcile_snapshot
    from sonic_etl_ray.pipelines.tail import Tailer

    spec = StreamSpec(n_events=4000, n_repos=6, seed=29, segment_size=500)
    files = generate_stream(str(tmp_path / "seg"), spec)  # 8 segments

    def forbidden(*a, **kw):
        raise AssertionError("Dataset materialized on the driver")

    for name in ("take_all", "take", "take_batch", "to_pandas", "iter_rows", "iter_batches"):
        monkeypatch.setattr(ray.data.Dataset, name, forbidden)

    def no_dataset(*a, **kw):
        raise AssertionError("Dataset built on the segment-path write path")

    with monkeypatch.context() as m:
        m.setattr(ray.data, "read_parquet", no_dataset)
        m.setattr(ray.data.Dataset, "iter_internal_ref_bundles", no_dataset)
        lake = scratch_lake_dir("nodriver_ingest")
        stats = run_ingest(files, lake, num_partitions=4, segments_per_epoch=2)
        assert stats["epochs_applied"] == 4

        tail_dir = str(tmp_path / "tail")
        os.makedirs(tail_dir)
        for f in files[:4]:
            shutil.copy(f, tail_dir)
        tail_lake = scratch_lake_dir("nodriver_tail")
        tick = Tailer(tail_dir, tail_lake, num_partitions=4, segments_per_epoch=2).tick()
        assert tick["epochs_applied"] == 2
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))
    assert_state_equal(lake_final_table(tail_lake), oracle_final_state(files[:4]))

    # reconcile the half-tailed lake against the full stream's final state
    payload = ["repo", "path", "commit", "lang", "content"]
    golden = oracle_final_state(files).select(payload)
    res = reconcile_snapshot(tail_lake, golden, delete_missing=True)
    assert res["n_rows_affected"] > 0
    assert lake_final_table(tail_lake, columns=payload).equals(golden)
