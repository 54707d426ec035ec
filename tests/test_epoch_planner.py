"""One epoch planner for ``run_ingest`` and the ``Tailer``.

Segments arrive out of order in a real stream (competing consumers, a
daily backfill republishing missing ranges). Both writers plan through
``sources.planner.plan_epochs``, so a late, lower-numbered segment lands
in its stable epoch or, if that epoch already closed, in a repair epoch —
never in a slot that was already manifested.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from sonic_etl_ray.generator import StreamSpec, generate_events, write_segments
from sonic_etl_ray.oracle import assert_state_equal, oracle_final_state
from sonic_etl_ray.pipelines.ingest import lake_final_table, run_ingest, scratch_lake_dir
from sonic_etl_ray.pipelines.tail import Tailer, set_watermark_override
from sonic_etl_ray.sources.planner import (
    REPAIR_EPOCH_BASE,
    LakeCoverage,
    plan_epochs,
    repair_epoch_id,
)
from sonic_etl_ray.state import commitlog as cl


def _segments(tmp_path) -> list[str]:
    spec = StreamSpec(n_events=3000, n_repos=4, seed=41, segment_size=500)
    files = write_segments(generate_events(spec), str(tmp_path / "hold"), spec)
    assert len(files) == 6
    return files


ORDERS = {
    "late_2": [0, 1, 3, 2, 4, 5],
    "seed7": random.Random(7).sample(range(6), 6),
    "seed19": random.Random(19).sample(range(6), 6),
}


@pytest.mark.parametrize("spe", [1, 2])
@pytest.mark.parametrize("order", sorted(ORDERS))
def test_tailer_out_of_order_arrivals_match_oracle_and_run_ingest(tmp_path, order, spe):
    files = _segments(tmp_path)
    watch = str(tmp_path / "watch")
    os.makedirs(watch)
    lake = scratch_lake_dir("ooo_tail")
    tailer = Tailer(watch, lake, num_partitions=2, segments_per_epoch=spe)
    for i in ORDERS[order]:
        shutil.copy(files[i], watch)
        tailer.tick()
    # nothing is left over: no epoch is applied twice, no repair repeats,
    # and a restarted tailer (coverage read from the lake) agrees
    assert tailer.tick()["epochs_applied"] == 0
    assert Tailer(watch, lake, num_partitions=2, segments_per_epoch=spe).tick()[
        "epochs_applied"
    ] == 0

    tailed = lake_final_table(lake)
    assert_state_equal(tailed, oracle_final_state(files))
    ingested = scratch_lake_dir("ooo_ingest")
    run_ingest(files, ingested, num_partitions=2, segments_per_epoch=spe)
    assert_state_equal(tailed, lake_final_table(ingested))


def test_run_ingest_honours_watermark_override(tmp_path):
    files = _segments(tmp_path)
    lake = scratch_lake_dir("ooo_override")
    set_watermark_override(lake, 1)  # epoch 0 = segments 0-1, marked done
    stats = run_ingest(files, lake, num_partitions=2, segments_per_epoch=2)
    assert stats["epochs_skipped"] == 1 and stats["epochs_repaired"] == 0
    assert stats["epochs_applied"] == 2
    assert_state_equal(lake_final_table(lake), oracle_final_state(files[2:]))


def _manifest(lake, epoch, segments=None, override=False):
    body = {"epoch": epoch, "parts": []}
    if override:
        body["manual_override"] = True
    else:
        body["input"] = {"segments": segments}
    cl.write_manifest(lake, epoch, body)


def test_plan_epochs_rules(tmp_path):
    """The planner alone (no Ray): stable epochs, finalize deferral,
    partial-middle repair, override coverage, and re-reading a cached
    coverage that another writer made stale."""
    lake = str(tmp_path / "lake")
    seg = [f"/s/segment_{i:06d}.parquet" for i in range(8)]

    # fresh lake, segments 0, 1, 3 at spe=2: epoch 0 full, epoch 1 is the
    # trailing partial — deferred with finalize=False, applied otherwise
    plan = plan_epochs([seg[3], seg[0], seg[1]], LakeCoverage(lake), 2, finalize=False)
    assert [(u.epoch, u.files) for u in plan.units] == [(0, seg[0:2])]
    assert (plan.deferred, plan.total, plan.skipped) == (1, 1, [])
    plan = plan_epochs([seg[0], seg[1], seg[3]], LakeCoverage(lake), 2)
    assert [u.epoch for u in plan.units] == [0, 1] and plan.deferred == 0

    # epochs 0 and 1 manifested (1 as a partial middle epoch); segment 2
    # arrives late: a repair unit for epoch 1, listed before normal epochs
    _manifest(lake, 0, ["segment_000000.parquet", "segment_000001.parquet"])
    _manifest(lake, 1, ["segment_000003.parquet"])
    cov = LakeCoverage(lake)
    plan = plan_epochs(seg[0:6], cov, 2, finalize=False)
    rep = repair_epoch_id(["segment_000002.parquet"])
    assert rep >= REPAIR_EPOCH_BASE
    assert [(u.epoch, u.files, u.repair_for) for u in plan.units] == [
        (rep, [seg[2]], 1), (2, seg[4:6], None)
    ]
    assert plan.units[0].input_desc() == {
        "segments": ["segment_000002.parquet"], "repair_for_epoch": 1
    }
    assert plan.skipped == [0]

    # a manual override covers its whole epoch: no repair of its segments
    _manifest(lake, 3, override=True)
    plan = plan_epochs(seg[6:8], LakeCoverage(lake), 2)
    assert plan.units == [] and plan.skipped == [3]

    # a cached coverage that misses a manifest written since is re-read
    # before anything is applied twice
    _manifest(lake, 2, ["segment_000004.parquet", "segment_000005.parquet"])
    plan = plan_epochs(seg[4:6], cov, 2)
    assert plan.units == [] and plan.skipped == [2]
    assert 2 in cov.epochs
