"""Predicate bulk DML (DELETE/UPDATE ... WHERE) via the exactly-once path.

The DML surface synthesizes change events from the live state and replays
them through apply_epoch under an admin epoch (pipelines/dml.py) — so the
tests pin exactly the properties that design buys: survivors are
byte-identical, derived columns recompute, re-running is idempotent, time
travel below the admin epoch reads the pre-DML state, the DML flows
through merge-on-read and history-tracking lakes like any other epoch,
and an assignment to a column the lake lacks is ordinary schema
evolution."""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray.data

from sonic_etl_ray.pipelines.dml import (
    DML_EPOCH_BASE,
    delete_where,
    dml_epoch,
    update_where,
)
from sonic_etl_ray.pipelines.ingest import (
    REPAIR_EPOCH_BASE,
    apply_epoch,
    lake_final_table,
    scratch_lake_dir,
)


def _events(rows: list[tuple[int, str, str, str, str | None]]) -> ray.data.Dataset:
    lsn, op, repo, path, content = map(list, zip(*rows))
    return ray.data.from_arrow(
        pa.table(
            {
                "lsn": pa.array(lsn, pa.int64()),
                "op": pa.array(op, pa.string()),
                "repo": pa.array(repo, pa.string()),
                "path": pa.array(path, pa.string()),
                "commit": pa.array([f"c{n}" for n in lsn], pa.string()),
                "lang": pa.array(
                    ["md" if p.endswith(".md") else "py" for p in path], pa.string()
                ),
                "content": pa.array(content, pa.string()),
            }
        )
    )


def _base_lake(tag: str, merge_mode: str = "cow", track_history: bool = False) -> str:
    lake = scratch_lake_dir(tag)
    apply_epoch(
        _events(
            [
                (1, "insert", "rA", "a.py", "alpha"),
                (2, "insert", "rA", "b.md", "bravo"),
                (3, "insert", "rB", "c.py", "charlie"),
                (4, "insert", "rB", "d.md", "delta"),
                (5, "insert", "rC", "e.py", "echo"),
            ]
        ),
        lake, epoch=0, num_partitions=4,
        merge_mode=merge_mode, track_history=track_history,
    )
    return lake


def test_delete_where_removes_only_matches():
    lake = _base_lake("dmldel")
    before = lake_final_table(lake)
    res = delete_where(lake, pc.field("lang") == "md")
    assert res["n_rows_affected"] == 2
    assert res["epoch"] >= DML_EPOCH_BASE > REPAIR_EPOCH_BASE + 9_999_999
    after = lake_final_table(lake)
    assert after.num_rows == 3
    assert set(after["lang"].to_pylist()) == {"py"}
    # survivors byte-identical (incl. applied_lsn, sha)
    survivors = before.filter(pc.equal(before["lang"], "py"))
    assert after.equals(survivors)


def test_delete_where_rerun_is_noop_and_epoch_advances():
    lake = _base_lake("dmlrerun")
    r1 = delete_where(lake, pc.field("lang") == "md")
    after1 = lake_final_table(lake)
    r2 = delete_where(lake, pc.field("lang") == "md")  # nothing left to match
    assert r2["n_rows_affected"] == 0
    assert r2["epoch"] > r1["epoch"]  # deterministic, monotonic admin epochs
    assert lake_final_table(lake).equals(after1)


def test_delete_where_time_travel_reads_pre_dml_state():
    lake = _base_lake("dmltt")
    before = lake_final_table(lake)
    res = delete_where(lake, pc.field("repo") == "rA")
    pre = lake_final_table(lake, as_of_epoch=res["epoch"] - 1)
    assert pre.equals(before)
    at = lake_final_table(lake, as_of_epoch=res["epoch"])
    assert at.num_rows == 3 and "rA" not in at["repo"].to_pylist()


def test_update_where_assignments_and_derived_columns():
    lake = _base_lake("dmlupd")
    before = lake_final_table(lake)
    res = update_where(
        lake,
        pc.field("repo") == "rB",
        {
            "lang": "rs",
            "content": lambda t: pc.binary_join_element_wise(t["content"], "-v2", ""),
        },
    )
    assert res["n_rows_affected"] == 2
    after = lake_final_table(lake)
    assert after.num_rows == before.num_rows
    changed = after.filter(pc.equal(after["repo"], "rB"))
    for row in changed.to_pylist():
        assert row["lang"] == "rs"
        assert row["content"].endswith("-v2")
        assert row["content_sha256"] == hashlib.sha256(row["content"].encode()).hexdigest()
        assert row["size_bytes"] == len(row["content"])
    # per-key LSN bumped exactly by one over the pre-update version
    pre = {(r["repo"], r["path"]): r["applied_lsn"] for r in before.to_pylist()}
    for row in changed.to_pylist():
        assert row["applied_lsn"] == pre[(row["repo"], row["path"])] + 1
    untouched = after.filter(pc.invert(pc.equal(after["repo"], "rB")))
    assert untouched.equals(before.filter(pc.invert(pc.equal(before["repo"], "rB"))))


def test_update_where_new_column_is_schema_evolution():
    lake = _base_lake("dmlevo")
    update_where(lake, pc.field("repo") == "rA", {"branch": "main"})
    after = lake_final_table(lake)
    assert "branch" in after.column_names
    by_repo = {r["repo"]: r["branch"] for r in after.to_pylist() if r["path"] == "a.py" or r["repo"] != "rA"}
    assert by_repo["rA"] == "main"
    # unmatched rows carry null for the evolved column
    others = after.filter(pc.invert(pc.equal(after["repo"], "rA")))
    assert others["branch"].null_count == others.num_rows


def test_update_where_rejects_derived_columns():
    lake = _base_lake("dmlbad")
    with pytest.raises(ValueError, match="derived"):
        update_where(lake, pc.field("repo") == "rA", {"content_sha256": "x"})


def test_delete_where_empty_match_commits_noop_epoch():
    lake = _base_lake("dmlempty")
    before = lake_final_table(lake)
    res = delete_where(lake, pc.field("repo") == "rZ")
    assert res["n_rows_affected"] == 0 and res["parts_touched"] == []
    assert lake_final_table(lake).equals(before)
    # the admin epoch is manifested → the next DML gets a fresh epoch
    assert dml_epoch(lake) > res["epoch"]


def test_dml_on_merge_on_read_lake():
    lake = _base_lake("dmlmor", merge_mode="mor")
    res = delete_where(lake, pc.field("lang") == "md", merge_mode="mor")
    assert res["n_rows_affected"] == 2
    after = lake_final_table(lake)
    assert after.num_rows == 3 and set(after["lang"].to_pylist()) == {"py"}


def _payload(tbl: pa.Table) -> pa.Table:
    return tbl.select(["repo", "path", "commit", "lang", "content"])


def test_reconcile_snapshot_full_merge_semantics(monkeypatch):
    from sonic_etl_ray.pipelines import ingest as ing
    from sonic_etl_ray.pipelines.dml import reconcile_snapshot

    _check_reconcile_full_merge("dmlrec", reconcile_snapshot)
    # the same MERGE through the two-level exchange: limit 0, ≥3 blocks
    tails = []
    real_two = ing._exchange_two_level
    monkeypatch.setattr(
        ing, "_exchange_two_level",
        lambda srcs, p, map_args: tails.append(len(srcs)) or real_two(srcs, p, map_args),
    )
    monkeypatch.setattr(ing, "TWO_LEVEL_AUTO_REFS", 0)

    def three_blocks(lake, src, **kw):
        blocks = [src.slice(0, 2), src.slice(2, 2), src.slice(4)]
        return reconcile_snapshot(lake, ray.data.from_arrow(blocks), **kw)

    _check_reconcile_full_merge("dmlrec_two_level", three_blocks)
    # the reconcile exchange: head 1 block one-level, tail 2 blocks two-level
    assert tails and tails[0] == 2


def _check_reconcile_full_merge(tag, reconcile):
    lake = _base_lake(tag)
    before = lake_final_table(lake)
    src = _payload(before)
    # drop rA/a.py (delete), touch rB/c.py (update), keep the rest, add new
    src = src.filter(pc.invert(pc.equal(src["path"], "a.py")))
    touched = pc.if_else(
        pc.equal(src["path"], "c.py"),
        pc.binary_join_element_wise(src["content"], "-r", ""),
        src["content"],
    )
    src = src.set_column(src.schema.get_field_index("content"), "content", touched)
    fresh = pa.table(
        {
            "repo": ["rN"], "path": ["new.py"], "commit": ["cn"],
            "lang": ["py"], "content": ["newbie"],
        }
    )
    src = pa.concat_tables([src, fresh])
    res = reconcile(lake, src, delete_missing=True, at_lsn=100)
    assert res["n_rows_affected"] == 3  # 1 delete + 1 update + 1 insert
    after = lake_final_table(lake)
    got = _payload(after)
    exp = src.take(
        pc.sort_indices(src, sort_keys=[("repo", "ascending"), ("path", "ascending")])
    )
    assert got.equals(exp)
    by_key = {(r["repo"], r["path"]): r["applied_lsn"] for r in after.to_pylist()}
    pre = {(r["repo"], r["path"]): r["applied_lsn"] for r in before.to_pylist()}
    assert by_key[("rN", "new.py")] == 100          # insert at at_lsn
    assert by_key[("rB", "c.py")] == pre[("rB", "c.py")] + 1  # update bumps
    assert by_key[("rB", "d.md")] == pre[("rB", "d.md")]      # unchanged keeps


def test_reconcile_snapshot_in_sync_is_total_noop():
    from sonic_etl_ray.pipelines.dml import reconcile_snapshot

    lake = _base_lake("dmlrec2")
    before = lake_final_table(lake)
    res = reconcile_snapshot(lake, _payload(before), delete_missing=True)
    assert res["n_rows_affected"] == 0 and res["parts_touched"] == []
    assert lake_final_table(lake).equals(before)


def test_reconcile_snapshot_keeps_missing_without_delete_flag():
    from sonic_etl_ray.pipelines.dml import reconcile_snapshot

    lake = _base_lake("dmlrec3")
    before = lake_final_table(lake)
    src = _payload(before).filter(pc.invert(pc.equal(before["repo"], "rA")))
    res = reconcile_snapshot(lake, src)  # delete_missing defaults False
    assert res["n_rows_affected"] == 0
    assert lake_final_table(lake).equals(before)


def test_reconcile_snapshot_duplicate_source_keys_raise():
    from sonic_etl_ray.pipelines.dml import reconcile_snapshot

    lake = _base_lake("dmlrec4")
    src = _payload(lake_final_table(lake))
    dup = pa.concat_tables([src, src.slice(0, 1)])
    with pytest.raises(Exception, match="duplicate"):
        reconcile_snapshot(lake, dup)


def test_reconcile_snapshot_source_is_authoritative_for_columns():
    """Source carries a NEW column (evolution in) and full-row-replace
    semantics null out lake columns the source lacks for UPDATED rows."""
    from sonic_etl_ray.pipelines.dml import reconcile_snapshot

    lake = _base_lake("dmlrec5")
    before = lake_final_table(lake)
    src = _payload(before).drop_columns(["lang"])  # source lacks lang
    touched = pc.binary_join_element_wise(src["content"], "-v2", "")
    src = src.set_column(src.schema.get_field_index("content"), "content", touched)
    src = src.append_column("branch", pa.array(["main"] * src.num_rows))
    res = reconcile_snapshot(lake, src)
    assert res["n_rows_affected"] == before.num_rows  # every row changed
    after = lake_final_table(lake)
    assert "branch" in after.column_names
    rows = after.to_pylist()
    assert all(r["branch"] == "main" for r in rows)
    assert all(r["lang"] is None for r in rows)  # replaced rows lost lang


def test_parse_predicate_and_assignments():
    from sonic_etl_ray.pipelines.dml import parse_assignments, parse_predicate

    t = pa.table({"lang": ["py", "md", "rs"], "n": [1, 5, 9]})
    import pyarrow.dataset as pads

    ds = pads.dataset(t)
    assert ds.to_table(filter=parse_predicate(["lang=py"])).num_rows == 1
    assert ds.to_table(filter=parse_predicate(["lang!=py"])).num_rows == 2
    assert ds.to_table(filter=parse_predicate(["n>=5", "n<9"])).num_rows == 1
    assert ds.to_table(filter=parse_predicate(["n<=5", "lang!=md"])).num_rows == 1
    with pytest.raises(ValueError, match="no operator"):
        parse_predicate(["lang"])
    with pytest.raises(ValueError, match="at least one"):
        parse_predicate([])
    with pytest.raises(ValueError, match="malformed"):
        parse_predicate(["=x"])
    assert parse_assignments(["lang=py3", "n=7", "f=1.5"]) == {
        "lang": "py3", "n": 7, "f": 1.5,
    }
    with pytest.raises(ValueError, match="malformed"):
        parse_assignments(["nope"])


def test_dml_with_history_archives_versions():
    from sonic_etl_ray.pipelines.history import read_history

    lake = _base_lake("dmlhist", track_history=True)
    delete_where(lake, pc.field("repo") == "rC", track_history=True)
    hist = read_history(lake).to_pandas()
    ops = hist[(hist.repo == "rC") & (hist.path == "e.py")].sort_values("lsn")
    assert list(ops["op"]) == ["insert", "delete"]


def test_update_where_rejects_protected_columns():
    lake = _base_lake("dmlprot")
    for col, val in (("lsn", 0), ("op", "insert"), ("repo", "rX"), ("path", "x")):
        with pytest.raises(ValueError, match="protected"):
            update_where(lake, pc.field("repo") == "rA", {col: val})


def test_reconcile_resurrects_tombstoned_key():
    """An insert for a previously-deleted key must outbid the tombstone's
    LSN (losing forever + re-emitting the doomed insert every run was the
    round-3 review's top finding)."""
    from sonic_etl_ray.pipelines.dml import reconcile_snapshot

    lake = _base_lake("dmlres")
    before = lake_final_table(lake)
    delete_where(lake, pc.field("repo") == "rA")
    res = reconcile_snapshot(lake, _payload(before))
    assert res["n_rows_affected"] == 2  # both rA rows come back
    after = lake_final_table(lake)
    assert _payload(after).equals(_payload(before))
    # and the reconcile CONVERGES: a rerun diffs to nothing
    res2 = reconcile_snapshot(lake, _payload(before))
    assert res2["n_rows_affected"] == 0 and res2["parts_touched"] == []


def test_reconcile_source_only_column_lands_when_payload_equal():
    """Post-merge equality: a source-only (evolved-in) column counts as a
    difference wherever it is non-null, even if every shared column
    matches; symmetrically, a live lake-only value the source lacks must
    null out. Both directions converge."""
    from sonic_etl_ray.pipelines.dml import reconcile_snapshot

    lake = _base_lake("dmlrec6")
    base = _payload(lake_final_table(lake))
    src = base.append_column("branch", pa.array(["main"] * base.num_rows))
    res = reconcile_snapshot(lake, src)
    assert res["n_rows_affected"] == base.num_rows
    after = lake_final_table(lake)
    assert after["branch"].null_count == 0
    assert reconcile_snapshot(lake, src)["n_rows_affected"] == 0  # converged
    # reverse: source WITHOUT branch must null the live values back out
    res2 = reconcile_snapshot(lake, base)
    assert res2["n_rows_affected"] == base.num_rows
    after2 = lake_final_table(lake)
    assert after2["branch"].null_count == after2.num_rows
    assert reconcile_snapshot(lake, base)["n_rows_affected"] == 0


def test_dml_predicate_on_evolved_column():
    """A predicate on a column only SOME partitions' files carry must read
    it as null elsewhere, not raise ArrowInvalid in the parquet scan."""
    lake = _base_lake("dmlevo2")
    update_where(lake, pc.field("path") == "a.py", {"branch": "main"})
    res = delete_where(lake, pc.field("branch") == "main")
    assert res["n_rows_affected"] == 1
    after = lake_final_table(lake)
    assert after.num_rows == 4 and "a.py" not in after["path"].to_pylist()


def test_dml_predicate_on_evolved_column_mor_lake():
    lake = _base_lake("dmlevo3", merge_mode="mor")
    update_where(lake, pc.field("path") == "a.py", {"branch": "main"},
                 merge_mode="mor")
    res = delete_where(lake, pc.field("branch") == "main", merge_mode="mor")
    assert res["n_rows_affected"] == 1
    assert lake_final_table(lake).num_rows == 4


def test_cli_literals_quoted_strings_stay_strings():
    from sonic_etl_ray.pipelines.dml import parse_assignments, parse_predicate
    import pyarrow.dataset as pads

    assert parse_assignments(["commit='12345'"]) == {"commit": "12345"}
    assert parse_assignments(['tag="1.5"']) == {"tag": "1.5"}
    t = pa.table({"commit": ["12345", "abc"], "n": [1, 2]})
    got = pads.dataset(t).to_table(filter=parse_predicate(["commit='12345'"]))
    assert got.num_rows == 1 and got["n"].to_pylist() == [1]


def test_time_travel_as_of_dml_is_commit_order_exact():
    """as_of the DML epoch must EXCLUDE stream epochs committed after it
    even though their epoch numbers are smaller (commit order, not
    numeric order) — including partitions the DML never touched."""
    lake = _base_lake("dmltt2")
    res = delete_where(lake, pc.field("repo") == "rA")  # epoch ~200M
    apply_epoch(
        _events([(50, "insert", "rZ", "z.py", "zulu"),
                 (51, "update", "rC", "e.py", "echo-v2")]),
        lake, epoch=1, num_partitions=4,
    )
    at_dml = lake_final_table(lake, as_of_epoch=res["epoch"])
    assert "rZ" not in at_dml["repo"].to_pylist()          # later commit excluded
    assert "rA" not in at_dml["repo"].to_pylist()          # the DML itself visible
    echo = at_dml.filter(pc.equal(at_dml["path"], "e.py"))
    assert echo["content"].to_pylist() == ["echo"]         # later update excluded
    # as_of the later stream epoch sees both (commit order includes the DML)
    at_1 = lake_final_table(lake, as_of_epoch=1)
    assert "rZ" in at_1["repo"].to_pylist()
    assert "rA" not in at_1["repo"].to_pylist()


def test_filtered_read_with_columns_on_evolved_and_plain_lakes():
    """read_lake(filter=..., columns=...) on BOTH lake shapes: a plain
    (homogeneous) lake takes the pushdown fast path, an evolved lake takes
    the unified-schema path — ray 2.49 can't combine a schema override
    with a columns kwarg, so the projection moves post-read there."""
    from sonic_etl_ray.pipelines.ingest import read_lake

    lake = _base_lake("dmlevocols")
    got = read_lake(
        lake, columns=["repo", "size_bytes"], filter=pc.field("repo") == "rA"
    ).to_pandas()
    assert sorted(got.columns) == ["repo", "size_bytes"] and len(got) == 2
    # evolve: one partition gains 'branch'; predicate on it + projection
    update_where(lake, pc.field("path") == "a.py", {"branch": "main"})
    got2 = read_lake(
        lake, columns=["repo", "path"], filter=pc.field("branch") == "main"
    ).to_pandas()
    assert sorted(got2.columns) == ["path", "repo"]
    assert got2["path"].tolist() == ["a.py"]


def test_time_travel_empty_partition_excludes_later_commits():
    """A partition EMPTY at the target epoch (present in the manifest's
    frontier snapshot only by absence) must stay empty in the time-travel
    read — the numeric fallback would leak a later stream epoch's insert
    whose epoch number is smaller than the DML's."""
    lake = _base_lake("dmltt3")
    res = delete_where(lake, pc.field("repo") == "rA")  # epoch ~200M
    # pick a key that hashes to a partition with NO committed files yet
    from sonic_etl_ray.pipelines.ingest import _lake_parts
    from sonic_etl_ray.stages.keys import key_strings, stable_hash64

    existing = set(_lake_parts(lake))
    probe = None
    for i in range(200):
        repo, path = f"rNew{i}", f"n{i}.py"
        h = stable_hash64(key_strings(pa.table({"repo": [repo], "path": [path]})))
        if int(h[0]) % 4 not in existing:
            probe = (repo, path)
            break
    assert probe is not None
    apply_epoch(
        _events([(60, "insert", probe[0], probe[1], "fresh")]),
        lake, epoch=1, num_partitions=4,
    )
    at_dml = lake_final_table(lake, as_of_epoch=res["epoch"])
    assert probe[0] not in at_dml["repo"].to_pylist()


def test_lookup_keys_agrees_with_scan_around_dml_epochs():
    """The point-read surface must give the same time-travel answer as the
    scan surface for the same as_of_epoch (commit order, not numeric)."""
    from sonic_etl_ray.pipelines.ingest import lookup_keys

    lake = _base_lake("dmltt4")
    res = delete_where(lake, pc.field("path") == "b.md")  # tombstone b.md
    apply_epoch(
        _events([(70, "insert", "rA", "b.md", "beta-v2")]),  # resurrect later
        lake, epoch=1, num_partitions=4,
    )
    at_dml = lake_final_table(lake, as_of_epoch=res["epoch"])
    assert "b.md" not in at_dml["path"].to_pylist()
    got = lookup_keys(lake, [("rA", "b.md")], as_of_epoch=res["epoch"])
    assert got.num_rows == 0  # matches the scan: deleted as of the DML
    now = lookup_keys(lake, [("rA", "b.md")])
    assert now["content"].to_pylist() == ["beta-v2"]


def test_parse_predicate_quoted_value_containing_operator_chars():
    """The earliest operator wins: quoted values may contain op characters
    and must not split the term inside the quotes."""
    from sonic_etl_ray.pipelines.dml import parse_predicate
    import pyarrow.dataset as pads

    t = pa.table({"tag": ["a<b", "zzz"], "n": [1, 2]})
    got = pads.dataset(t).to_table(filter=parse_predicate(["tag='a<b'"]))
    assert got["n"].to_pylist() == [1]
    got2 = pads.dataset(t).to_table(filter=parse_predicate(["tag>'a<b'"]))
    assert got2["n"].to_pylist() == [2]
    t3 = pa.table({"v": ["x=y", "q"], "n": [1, 2]})
    got3 = pads.dataset(t3).to_table(filter=parse_predicate(["v!='x=y'"]))
    assert got3["n"].to_pylist() == [2]


def test_filtered_read_on_pre_marker_evolved_lake():
    """A lake that evolved BEFORE the evolution marker existed carries no
    marker: marker absence is only authoritative when the rolling frontier
    cursor (same era) exists, so stripping both must make filtered reads
    walk the footers (regression: the fast path skipped the walk and the
    parquet scan raised ArrowInvalid), and the walk backfills the marker."""
    import os

    from sonic_etl_ray.pipelines.ingest import read_lake
    from sonic_etl_ray.state import commitlog as cl

    lake = _base_lake("dmlpremark")
    update_where(lake, pc.field("path") == "a.py", {"branch": "main"})
    assert cl.schema_ever_evolved(lake)
    # simulate the pre-upgrade era: no marker, no rolling cursor
    os.remove(os.path.join(lake, "_commits", "_schema_evolved"))
    os.remove(os.path.join(lake, "_commits", "_frontier.json"))
    got = read_lake(lake, filter=pc.field("branch") == "main").to_pandas()
    assert got["path"].tolist() == ["a.py"]
    assert cl.schema_ever_evolved(lake)  # the walk backfilled the marker
    # and the next apply on a still-unmarked pre-upgrade lake probes once
    os.remove(os.path.join(lake, "_commits", "_schema_evolved"))
    apply_epoch(
        _events([(90, "insert", "rD", "f.py", "fox")]),
        lake, epoch=3, num_partitions=4,
    )
    assert cl.schema_ever_evolved(lake)


def test_repair_replica_converges_and_diff_reads_clean(ray_session, tmp_path):
    """Drifted replica (missing keys, divergent content at a HIGHER local
    lsn, an extra key) → repair_replica → sha256 diff vs source is empty
    and a second repair commits pure noops (O(drift) idempotence)."""
    import pyarrow as pa
    import ray.data

    from sonic_etl_ray.pipelines.dml import repair_replica
    from sonic_etl_ray.pipelines.ingest import apply_epoch, diff_lakes, lake_final_table

    def ev(rows):
        return pa.table(
            {
                "op": pa.array([r[0] for r in rows], pa.string()),
                "lsn": pa.array([r[1] for r in rows], pa.int64()),
                "repo": pa.array([r[2] for r in rows], pa.string()),
                "path": pa.array([r[3] for r in rows], pa.string()),
                "commit": pa.array([f"c{r[1]}" for r in rows], pa.string()),
                "lang": pa.array(["t"] * len(rows), pa.string()),
                "content": pa.array([r[4] for r in rows], pa.string()),
            }
        )

    src = str(tmp_path / "src")
    rep = str(tmp_path / "rep")
    apply_epoch(
        ray.data.from_arrow(
            ev([("insert", i, f"r{i%3}", f"f{i}", f"body {i}") for i in range(30)])
        ),
        src, epoch=0, num_partitions=4,
    )
    # replica: only even keys; f0 diverges with a HIGHER local lsn; extra key
    apply_epoch(
        ray.data.from_arrow(
            ev(
                [("insert", i, f"r{i%3}", f"f{i}", f"body {i}") for i in range(0, 30, 2)]
                + [("insert", 999, "r0", "f0", "diverged"), ("insert", 998, "zz", "extra", "x")]
            )
        ),
        rep, epoch=0, num_partitions=4,
    )
    assert diff_lakes(rep, src).count() > 0
    stats = repair_replica(rep, src)
    assert diff_lakes(rep, src).count() == 0
    a = lake_final_table(rep).select(["repo", "path", "content"]).to_pandas()
    b = lake_final_table(src).select(["repo", "path", "content"]).to_pandas()
    key = ["repo", "path", "content"]
    assert a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True)
    )
    # idempotence: a second repair changes nothing (all-noop commits)
    before = lake_final_table(rep)
    repair_replica(rep, src)
    assert lake_final_table(rep).equals(before)
