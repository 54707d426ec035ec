"""No-op update suppression (suppress_unchanged) — boundary semantics."""

from __future__ import annotations

import pyarrow as pa
import ray.data

from sonic_etl_ray.pipelines.ingest import (
    apply_epoch,
    lake_final_table,
    read_change_feed,
    scratch_lake_dir,
)
from sonic_etl_ray.state import commitlog as cl


def _events(rows):
    cols = {"lsn": [], "op": [], "repo": [], "path": [], "commit": [], "lang": [], "content": []}
    for lsn, op, path, content in rows:
        cols["lsn"].append(lsn)
        cols["op"].append(op)
        cols["repo"].append("r0")
        cols["path"].append(path)
        cols["commit"].append(f"c{lsn}")
        cols["lang"].append("py")
        cols["content"].append(content)
    return ray.data.from_arrow(
        pa.table({
            "lsn": pa.array(cols["lsn"], pa.int64()), "op": pa.array(cols["op"]),
            "repo": pa.array(cols["repo"]), "path": pa.array(cols["path"]),
            "commit": pa.array(cols["commit"]), "lang": pa.array(cols["lang"]),
            "content": pa.array(cols["content"], pa.string()),
        })
    )


def _apply(lake, epoch, rows):
    apply_epoch(_events(rows), lake, epoch, num_partitions=2, suppress_unchanged=True)


def test_suppressed_update_keeps_old_row_and_feed_is_quiet():
    lake = scratch_lake_dir("sup1")
    _apply(lake, 0, [(1, "insert", "a.py", "A"), (2, "insert", "b.py", "B")])
    # epoch 1: a.py unchanged (suppressed), b.py genuinely changes
    _apply(lake, 1, [(3, "insert", "a.py", "A"), (4, "insert", "b.py", "B2")])
    final = lake_final_table(lake).to_pandas().set_index("path")
    assert final.loc["a.py", "applied_lsn"] == 1  # old lineage kept wholesale
    assert final.loc["a.py", "commit"] == "c1"
    assert final.loc["b.py", "applied_lsn"] == 4
    feed = read_change_feed(lake, 1).to_pandas()
    assert sorted(feed["path"]) == ["b.py"]  # no feed row for the no-op


def test_all_suppressed_epoch_is_noop_commit():
    lake = scratch_lake_dir("sup2")
    _apply(lake, 0, [(1, "insert", "a.py", "A")])
    before = cl.latest_file(lake, *_part_of(lake))
    _apply(lake, 1, [(2, "insert", "a.py", "A")])
    after = cl.latest_file(lake, *_part_of(lake))
    assert before == after  # no new state file written
    rec = cl.read_commit(lake, 1, _part_of(lake)[0])
    assert rec["noop"] is True and rec["n_suppressed"] == 1


def _part_of(lake):
    import os

    for name in os.listdir(lake):
        if name.startswith("part="):
            return (int(name.split("=")[1]),)
    raise AssertionError("no partition dir")


def test_delete_then_reinsert_same_content_not_suppressed():
    lake = scratch_lake_dir("sup3")
    _apply(lake, 0, [(1, "insert", "a.py", "A")])
    _apply(lake, 1, [(2, "delete", "a.py", None)])
    _apply(lake, 2, [(3, "insert", "a.py", "A")])  # prior is a tombstone
    final = lake_final_table(lake).to_pandas()
    assert list(final["path"]) == ["a.py"] and final["applied_lsn"].iloc[0] == 3


def test_suppression_matches_sequential_simulator():
    """Randomized multi-epoch stream (seeded) vs a per-key sequential
    simulator of the boundary rule: apply each epoch's per-key winner unless
    it is an upsert content-equal to the live prior row."""
    import numpy as np

    rng = np.random.default_rng(99)
    n_keys, n_epochs, per_epoch = 12, 5, 30
    lake = scratch_lake_dir("supprop")
    state: dict[str, tuple] = {}  # path -> (content|None(tombstone), lsn, commit)
    lsn = 0
    for e in range(n_epochs):
        rows = []
        for _ in range(per_epoch):
            lsn += 1
            path = f"k{rng.integers(n_keys)}.py"
            if rng.random() < 0.2:
                rows.append((lsn, "delete", path, None))
            else:
                rows.append((lsn, "insert", path, f"C{rng.integers(3)}"))
        _apply(lake, e, rows)
        # simulator: winner per key = max-lsn row of this epoch
        winners: dict[str, tuple] = {}
        for r in rows:
            if r[0] >= winners.get(r[2], (0,))[0]:
                winners[r[2]] = (r[0], r[1], r[3])
        for path, (wlsn, op, content) in winners.items():
            prior = state.get(path)
            live = prior is not None and prior[0] is not None
            if op != "delete" and live and prior[0] == content:
                continue  # suppressed: row untouched
            state[path] = (None if op == "delete" else content, wlsn, f"c{wlsn}")
    want = sorted(
        (p, c, l, cm) for p, (c, l, cm) in state.items() if c is not None
    )
    got = lake_final_table(lake).to_pandas()
    got_rows = sorted(zip(got["path"], got["content"], got["applied_lsn"], got["commit"]))
    assert got_rows == want


def test_suppression_off_by_default_updates_lineage():
    lake = scratch_lake_dir("sup4")
    apply_epoch(_events([(1, "insert", "a.py", "A")]), lake, 0, num_partitions=2)
    apply_epoch(_events([(2, "insert", "a.py", "A")]), lake, 1, num_partitions=2)
    final = lake_final_table(lake).to_pandas()
    assert final["applied_lsn"].iloc[0] == 2  # plain LWW advances lineage
