"""History sidecar (track_history=True): incremental SCD2 correctness,
duplicate-delivery / resume idempotence, and commit gating.

The invariant under test is incremental maintenance: the SCD2 dimension
derived from the per-epoch `_history/` sidecar files must equal a
brute-force recompute over the raw change stream — under duplicate
delivery, kill/resume, and epoch-at-a-time application.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from sonic_etl_ray.generator import StreamSpec, generate_stream
from sonic_etl_ray.pipelines.history import history_files, read_history, scd2_view
from sonic_etl_ray.pipelines.ingest import (
    lake_final_table,
    run_ingest,
    scratch_lake_dir,
)
from sonic_etl_ray.oracle import assert_state_equal, oracle_final_state


def _brute_scd2(files: list[str]) -> pd.DataFrame:
    """Pandas reference: LEAD(lsn) per (repo, path) over the distinct raw
    stream; deletes close intervals but emit none."""
    ev = pd.concat([pq.read_table(f).to_pandas() for f in files])
    ev = (
        ev.sort_values(["repo", "path", "lsn"], kind="stable")
        .drop_duplicates(["repo", "path", "lsn"], keep="first")
        .reset_index(drop=True)
    )
    same_next = (ev["repo"].shift(-1) == ev["repo"]) & (ev["path"].shift(-1) == ev["path"])
    nxt = np.where(same_next.to_numpy(), ev["lsn"].shift(-1).fillna(-1).to_numpy(), -1).astype(
        np.int64
    )
    out = pd.DataFrame(
        {
            "repo": ev["repo"],
            "path": ev["path"],
            "commit": ev["commit"],
            "lang": ev["lang"],
            "valid_from_lsn": ev["lsn"].astype("int64"),
            "valid_to_lsn": nxt,
            "is_current": (nxt == -1).astype("int64"),
        }
    )
    return (
        out[(ev["op"] != "delete").to_numpy()]
        .sort_values(["repo", "path", "valid_from_lsn"])
        .reset_index(drop=True)
    )


def _view_df(lake: str) -> pd.DataFrame:
    out = scd2_view(lake).to_pandas()
    for c in ("valid_from_lsn", "valid_to_lsn", "is_current"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["repo", "path", "valid_from_lsn"]).reset_index(drop=True)


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    seg_dir = str(tmp_path_factory.mktemp("hist") / "segments")
    spec = StreamSpec(n_events=3000, n_repos=8, seed=11, segment_size=250)
    files = generate_stream(seg_dir, spec)
    return files


def test_scd2_view_matches_brute_force(stream):
    lake = scratch_lake_dir("hist")
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    got = _view_df(lake)
    want = _brute_scd2(stream)
    pd.testing.assert_frame_equal(got, want)
    # final state is untouched by the history combiner swap
    assert_state_equal(lake_final_table(lake), oracle_final_state(stream))


def test_history_duplicate_delivery_idempotent(stream):
    """Whole-segment replay (at-least-once) must not duplicate history rows."""
    lake = scratch_lake_dir("histdup")
    run_ingest(
        stream + stream[:5], lake,
        num_partitions=4, segments_per_epoch=3, track_history=True,
    )
    pd.testing.assert_frame_equal(_view_df(lake), _brute_scd2(stream))
    # archived event count equals the distinct stream length exactly
    n = read_history(lake).count()
    n_raw = sum(pq.read_metadata(f).num_rows for f in stream)
    assert n == n_raw


def test_history_resume_appends_only_missing_epochs(stream):
    """Kill/resume: applying a prefix then the full stream yields the same
    archive as one full run (epoch manifests fast-forward; commit gates make
    the replayed epochs no-ops)."""
    lake = scratch_lake_dir("histres")
    run_ingest(stream[:6], lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    n_files_prefix = len(history_files(lake))
    stats = run_ingest(
        stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True
    )
    assert stats["epochs_skipped"] >= 2
    assert len(history_files(lake)) > n_files_prefix
    pd.testing.assert_frame_equal(_view_df(lake), _brute_scd2(stream))


def test_uncommitted_history_file_invisible(stream):
    """An orphan sidecar file (crash between write and commit) is excluded
    from every reader until its unit commits."""
    lake = scratch_lake_dir("historph")
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    files = history_files(lake)
    n = len(files)
    orphan_dir = os.path.join(lake, "_history", "epoch=00000999")
    os.makedirs(orphan_dir)
    pq.write_table(pq.read_table(files[0]), os.path.join(orphan_dir, "part=00001.parquet"))
    assert len(history_files(lake)) == n  # no commit record → invisible
    assert read_history(lake).count() == sum(pq.read_metadata(f).num_rows for f in files)


def test_compact_history_preserves_view_and_bounds_files(stream):
    """Compaction folds per-epoch files into one run per partition: same
    archive contents (scd2_view unchanged), far fewer files, idempotent,
    and later epochs still append + fold incrementally."""
    from sonic_etl_ray.pipelines.history import compact_history

    lake = scratch_lake_dir("histcmp")
    run_ingest(stream[:9], lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    before = _view_df(lake)
    n_before = len(history_files(lake))
    stats = compact_history(lake, min_files=2)
    assert stats["files_folded"] > 0
    n_after = len(history_files(lake))
    assert n_after <= 4  # one run per partition
    assert n_after < n_before
    pd.testing.assert_frame_equal(_view_df(lake), before)
    # idempotent: nothing new to fold
    assert compact_history(lake, min_files=2)["files_folded"] == 0
    # new epochs append as per-epoch files, then fold into the existing run
    # (min_files=1: force the incremental refold; the default amortizes it)
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    pd.testing.assert_frame_equal(_view_df(lake), _brute_scd2(stream))
    assert compact_history(lake, min_files=1)["files_folded"] > 0
    assert len(history_files(lake)) <= 4
    pd.testing.assert_frame_equal(_view_df(lake), _brute_scd2(stream))
    assert read_history(lake).count() == sum(pq.read_metadata(f).num_rows for f in stream)


def test_lookup_key_history_full_chain(stream):
    """Per-key version-chain lookup reads only the key's hash partition and
    returns every archived version, before AND after compaction."""
    from sonic_etl_ray.pipelines.history import compact_history, lookup_key_history

    lake = scratch_lake_dir("histkey")
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    ev = pd.concat([pq.read_table(f).to_pandas() for f in stream])
    # pick the most-versioned key
    key = ev.groupby(["repo", "path"]).size().idxmax()
    want = ev[(ev["repo"] == key[0]) & (ev["path"] == key[1])].sort_values("lsn")
    got = lookup_key_history(lake, [key]).to_pandas()
    assert list(got["lsn"]) == list(want["lsn"])
    assert list(got["op"]) == list(want["op"])
    compact_history(lake, min_files=2)
    got2 = lookup_key_history(lake, [key]).to_pandas()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), got2.reset_index(drop=True)
    )
    assert lookup_key_history(lake, [("nope", "nothing")]).num_rows == 0


def test_state_at_lsn_matches_truncated_replay(stream):
    """LSN-grain time travel from the archive == brute-force last-writer-
    wins over the stream truncated at that LSN."""
    from sonic_etl_ray.pipelines.history import state_at_lsn

    lake = scratch_lake_dir("histtt")
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    ev = pd.concat([pq.read_table(f).to_pandas() for f in stream])
    cut = int(ev["lsn"].quantile(0.6))
    sub = ev[ev["lsn"] <= cut].sort_values("lsn", kind="stable")
    last = sub.groupby(["repo", "path"], as_index=False).last()
    want = (
        last[last["op"] != "delete"]
        .rename(columns={"lsn": "applied_lsn"})
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    got = (
        state_at_lsn(lake, cut)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    cols = ["repo", "path", "commit", "lang", "content", "applied_lsn"]
    pd.testing.assert_frame_equal(got[cols], want[cols])
    # sanity: the archive carries the derived sha256 of the winning version
    assert got["content_sha256"].notna().all()


def test_history_survives_schema_evolution(tmp_path):
    """Archive files spanning column ADD + type WIDEN (size_hint int32→int64,
    branch added) read back unified, compact cleanly, and keep the SCD2 view
    and key lookups exact — and no stray hive `epoch` column leaks in from
    the directory layout."""
    from sonic_etl_ray.generator import StreamSpec, generate_stream
    from sonic_etl_ray.pipelines.history import (
        compact_history,
        lookup_key_history,
        read_history,
        scd2_view,
    )

    seg = str(tmp_path / "segs")
    files = generate_stream(
        seg,
        StreamSpec(n_events=600, n_repos=4, seed=5, segment_size=200, evolve_at=(200, 400)),
    )
    lake = scratch_lake_dir("histevo")
    run_ingest(files, lake, num_partitions=2, segments_per_epoch=1, track_history=True)
    full = read_history(lake).to_pandas()
    assert len(full) == 600 and "epoch" not in full.columns
    assert {"size_hint", "branch"} <= set(full.columns)
    want = _brute_scd2(files)
    pd.testing.assert_frame_equal(_view_df(lake), want)
    key = (full["repo"].iloc[0], full["path"].iloc[0])
    chain_tbl = lookup_key_history(lake, [key])
    assert str(chain_tbl.schema.field("size_hint").type) == "int64"  # widened
    chain_before = chain_tbl.to_pandas()
    stats = compact_history(lake, min_files=2)
    assert stats["files_folded"] > 0
    pd.testing.assert_frame_equal(_view_df(lake), want)
    chain_after = lookup_key_history(lake, [key]).to_pandas()
    # column ORDER is schema-arrival-dependent across compaction; values
    # and names must match exactly
    pd.testing.assert_frame_equal(chain_before, chain_after, check_like=True)


def test_expire_history_retention(stream):
    """Retention drops archive strictly below the cutoff: per-epoch files
    always; compacted runs only when wholly below (straddling runs stay)."""
    from sonic_etl_ray.pipelines.history import compact_history, expire_history

    lake = scratch_lake_dir("histexp")
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    ev = pd.concat([pq.read_table(f).to_pandas() for f in stream])
    n_epochs = 4  # 12 segments / 3 per epoch
    # expire the first half (epoch files only, no compaction yet)
    out = expire_history(lake, before_epoch=2)
    assert out["files_removed"] > 0 and out["runs_removed"] == 0
    kept = read_history(lake).to_pandas()
    # epoch of an event = segment_index // 3; segments are 250 events each
    cutoff_lsn = 2 * 3 * 250
    assert int(kept["lsn"].min()) >= cutoff_lsn
    assert len(kept) == int((ev["lsn"] >= cutoff_lsn).sum())
    # SCD2 over the retained tail still derives (chains start at retention)
    v = _view_df(lake)
    assert int(v["valid_from_lsn"].min()) >= cutoff_lsn
    # a compacted run covering epochs 2..3 straddles cutoff 3 → stays;
    # wholly-below cutoff 99 → removed
    compact_history(lake, min_files=1)
    assert expire_history(lake, before_epoch=3)["runs_removed"] == 0
    assert read_history(lake).count() == len(kept)
    out = expire_history(lake, before_epoch=n_epochs)
    assert out["runs_removed"] > 0
    assert read_history(lake).count() == 0


def test_expire_history_crash_leaves_no_stale_coverage(stream, monkeypatch):
    """Expiry removes a run's marker BEFORE its data file. A crash between
    the two then leaves an orphan data file, which nothing reads. In the
    reverse order it leaves an orphan marker: the next fold of that
    partition reuses the seq's data filename, and a crash before the fold's
    own marker rename re-validates the orphan's stale coverage, so reads
    count the fresh epochs twice (once in the run, once as files)."""
    import re

    import pyarrow as pa

    from sonic_etl_ray.pipelines.history import compact_history, expire_history
    from sonic_etl_ray.state import commitlog as cl
    from sonic_etl_ray.state.runfold import fold_partition_runs

    lake = scratch_lake_dir("histexpcrash")
    run_ingest(stream[:6], lake, num_partitions=1, segments_per_epoch=3, track_history=True)
    assert compact_history(lake, min_files=2)["files_folded"] == 2  # run covers epochs 0-1
    run_ingest(stream, lake, num_partitions=1, segments_per_epoch=3, track_history=True)
    run_dir = os.path.join(lake, "_history", "compacted", "part=00000")

    real_remove, run_removals = os.remove, []

    def crash_after_first_run_removal(path):
        if os.path.dirname(path) == run_dir:
            if run_removals:
                raise OSError("crash inside expiry")
            run_removals.append(path)
        real_remove(path)

    monkeypatch.setattr(os, "remove", crash_after_first_run_removal)
    with pytest.raises(OSError, match="crash inside expiry"):
        expire_history(lake, before_epoch=2)
    monkeypatch.undo()

    # the next fold crashes between its data rename and its marker rename;
    # fold tasks run in Ray workers, out of a monkeypatch's reach, so the
    # fold runs here through the same protocol function
    fresh = [(int(re.search(r"epoch=(\d+)", f).group(1)), f) for f in history_files(lake)]
    assert sorted(e for e, _ in fresh) == [2, 3]
    real_rename = os.rename

    def crash_before_marker(src, dst):
        if os.path.dirname(dst) == run_dir and dst.endswith(".json"):
            raise OSError("crash before the marker rename")
        real_rename(src, dst)

    monkeypatch.setattr(os, "rename", crash_before_marker)
    with pytest.raises(OSError, match="crash before the marker rename"):
        fold_partition_runs(run_dir, fresh, fresh, pa.concat_tables)
    monkeypatch.undo()

    live = sum(cl.read_commit(lake, e, 0).get("n_history_rows", 0) for e in (2, 3))
    assert live > 0
    assert read_history(lake).count() == live
    compact_history(lake, min_files=1)  # a clean fold recovers
    assert read_history(lake).count() == live


def test_history_survives_commit_checkpoint_compaction(stream):
    """compact_commits deletes per-unit commit JSONs (rolled into the
    checkpoint) — the archive's commit gate must keep honoring them via the
    checkpoint, or the whole archive silently vanishes."""
    from sonic_etl_ray.pipelines.history import compact_history
    from sonic_etl_ray.state.commitlog import compact_commits

    lake = scratch_lake_dir("histckpt")
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    before = _view_df(lake)
    n_files = len(history_files(lake))
    compact_commits(lake)
    assert len(history_files(lake)) == n_files  # gate honors the checkpoint
    pd.testing.assert_frame_equal(_view_df(lake), before)
    assert compact_history(lake, min_files=1)["files_folded"] > 0
    pd.testing.assert_frame_equal(_view_df(lake), before)


def test_state_at_lsn_edge_cases(stream):
    """A cut below the first archived LSN and an untracked lake both return
    empty without crashing (fully-pruned batches keep the __bucket column)."""
    from sonic_etl_ray.pipelines.history import state_at_lsn

    lake = scratch_lake_dir("histedge")
    run_ingest(stream[:3], lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    lo = int(pq.read_table(stream[0], columns=["lsn"])["lsn"][0].as_py())
    assert state_at_lsn(lake, lo - 1).count() == 0
    bare = scratch_lake_dir("histedge2")
    run_ingest(stream[:3], bare, num_partitions=4, segments_per_epoch=3)
    assert state_at_lsn(bare, 10**9).count() == 0


def test_compact_gc_collects_crash_leftovers(stream):
    """A covered original left on disk by a crash mid-GC is removed by the
    NEXT fold (coverage-list exclusion keeps reads exact in the meantime)."""
    import shutil

    from sonic_etl_ray.pipelines.history import compact_history

    lake = scratch_lake_dir("histgc")
    run_ingest(stream[:9], lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    victims = history_files(lake)
    compact_history(lake, min_files=2)
    # simulate the crash: resurrect one covered original
    ghost = victims[0]
    os.makedirs(os.path.dirname(ghost), exist_ok=True)
    shutil.copyfile(history_files(lake)[0], ghost)
    before = _view_df(lake)
    pd.testing.assert_frame_equal(before, before)  # reads unaffected (covered list)
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    compact_history(lake, min_files=1)
    assert not os.path.exists(ghost)  # next fold GCs it
    pd.testing.assert_frame_equal(_view_df(lake), _brute_scd2(stream))


def test_tailer_tracks_history_and_folds(stream, tmp_path):
    """Integration: a tailing ingest with track_history archives each closed
    epoch as segments arrive, folds the archive on the state-compaction
    cadence, and the final SCD2 view equals the brute force."""
    import shutil

    from sonic_etl_ray.pipelines.tail import Tailer

    seg_dir = str(tmp_path / "grow")
    os.makedirs(seg_dir)
    lake = scratch_lake_dir("histtail")
    tailer = Tailer(
        seg_dir, lake, num_partitions=4, segments_per_epoch=3,
        track_history=True, compact_states_every=2,
    )
    for f in stream:
        shutil.copy(f, os.path.join(seg_dir, os.path.basename(f)))
        tailer.tick()
    pd.testing.assert_frame_equal(_view_df(lake), _brute_scd2(stream))
    assert read_history(lake).count() == sum(
        pq.read_metadata(f).num_rows for f in stream
    )


def test_compact_gc_one_generation_grace(stream):
    """A reader that resolved its file list BEFORE a fold can still read
    every listed file after it: the fold defers deleting what it supersedes
    until the NEXT fold (one-generation grace)."""
    from sonic_etl_ray.pipelines.history import compact_history

    lake = scratch_lake_dir("histgrace")
    run_ingest(stream[:9], lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    pre_fold_list = history_files(lake)  # a concurrent reader's resolved list
    compact_history(lake, min_files=2)
    for f in pre_fold_list:  # every pre-fold path still readable
        assert os.path.exists(f), f
    # the NEXT fold (new epochs arrived) sweeps the superseded generation
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    compact_history(lake, min_files=1)
    assert any(not os.path.exists(f) for f in pre_fold_list)
    pd.testing.assert_frame_equal(_view_df(lake), _brute_scd2(stream))


def test_watermark_advances_across_noop_epochs(tmp_path):
    """A fully-suppressed epoch commits a file-less noop record whose
    applied_lsn must still advance the partition watermark (previously the
    watermark keyed off the newest data file and regressed)."""
    import pyarrow as pa

    import ray.data

    from sonic_etl_ray.pipelines.ingest import apply_epoch
    from sonic_etl_ray.state import commitlog as cl

    lake = scratch_lake_dir("wmnoop")
    ev = pa.table(
        {
            "lsn": pa.array([1], pa.int64()),
            "op": ["insert"],
            "repo": ["r"],
            "path": ["p"],
            "commit": ["c"],
            "lang": ["py"],
            "content": ["hello"],
        }
    )
    apply_epoch(ray.data.from_arrow(ev), lake, epoch=0, num_partitions=1)
    assert cl.partition_watermark(lake, 0) == 1
    # identical content at a later LSN, suppressed → noop commit, no file
    ev2 = ev.set_column(0, "lsn", pa.array([7], pa.int64()))
    apply_epoch(
        ray.data.from_arrow(ev2), lake, epoch=1, num_partitions=1,
        suppress_unchanged=True,
    )
    rec = cl.read_commit(lake, 1, 0)
    assert rec["noop"] is True and rec["applied_lsn"] == 7
    assert cl.partition_watermark(lake, 0) == 7  # advanced, not regressed
    # and it survives checkpoint compaction
    cl.compact_commits(lake)
    assert cl.partition_watermark(lake, 0) == 7


def test_history_off_by_default(stream):
    lake = scratch_lake_dir("histoff")
    run_ingest(stream[:3], lake, num_partitions=4, segments_per_epoch=3)
    assert history_files(lake) == []
    assert not glob.glob(os.path.join(lake, "_history", "*"))


def test_pit_join_matches_brute_force(stream):
    """pit_join vs a pandas merge_asof per probe, including equal-LSN
    matches, unmatched probes (at < first version), and matched deletes
    (payload nulled, asof_lsn kept)."""
    import pyarrow as pa
    import ray.data

    from sonic_etl_ray.pipelines.history import pit_join

    lake = scratch_lake_dir("pit")
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)

    events = pd.concat([pq.read_table(f).to_pandas() for f in stream]).sort_values("lsn")
    # probes: every 5th event at its own lsn (equal match) and lsn-1
    sel = events[events["lsn"] % 5 == 0]
    probe = pd.DataFrame(
        {
            "repo": np.concatenate([sel["repo"], sel["repo"]]),
            "path": np.concatenate([sel["path"], sel["path"]]),
            "tag": ["eq"] * len(sel) + ["prev"] * len(sel),
            "at_lsn": np.concatenate([sel["lsn"], sel["lsn"] - 1]).astype("int64"),
        }
    )
    got = (
        pit_join(lake, ray.data.from_pandas(probe), at_column="at_lsn")
        .to_pandas()
        .sort_values(["repo", "path", "at_lsn", "tag"])
        .reset_index(drop=True)
    )

    # brute force: for each probe, the max-lsn event <= at for that key
    def brute(row):
        sub = events[
            (events["repo"] == row["repo"])
            & (events["path"] == row["path"])
            & (events["lsn"] <= row["at_lsn"])
        ]
        if sub.empty:
            return (-1, None, None, None)
        v = sub.iloc[-1]
        if v["op"] == "delete":
            return (int(v["lsn"]), "delete", None, None)
        return (int(v["lsn"]), v["op"], v["commit"], v["lang"])

    want = probe.sort_values(["repo", "path", "at_lsn", "tag"]).reset_index(drop=True)
    res = want.apply(brute, axis=1, result_type="expand")
    res.columns = ["asof_lsn", "asof_op", "asof_commit", "asof_lang"]
    for c in res.columns:
        a = got[c].map(lambda x: None if (x is None or (isinstance(x, float) and np.isnan(x))) else x)
        b = res[c].map(lambda x: None if (x is None or (isinstance(x, float) and np.isnan(x))) else x)
        assert a.tolist() == b.tolist(), c


def test_pit_join_preserves_probe_int_dtypes(stream):
    """Probe int64 columns must come back int64 (no float64 promotion in
    the bucket exchange) — ids above 2^53 would silently corrupt."""
    import ray.data

    from sonic_etl_ray.pipelines.history import pit_join

    lake = scratch_lake_dir("pitdt")
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)
    big = np.int64(2**60 + 12345)
    probe = pd.DataFrame(
        {"repo": ["r0"], "path": ["nope"], "probe_id": [big], "at_lsn": np.array([50], "int64")}
    )
    out = pit_join(lake, ray.data.from_pandas(probe), at_column="at_lsn").to_pandas()
    assert out["probe_id"].dtype == "int64" and out["probe_id"].iloc[0] == big
    assert out["at_lsn"].dtype == "int64"
    assert out["asof_lsn"].dtype == "int64"

def test_pit_join_probe_payload_column_collision(stream):
    """A probe column named like a payload column ('commit') must not
    clobber the archived payload: asof_commit reports the ARCHIVE value
    and the probe's own 'commit' column passes through unchanged
    (regression: tag_ver used to overwrite version-side payload with the
    probe-side typed default, so asof_commit silently became 0/None)."""
    import ray.data

    from sonic_etl_ray.pipelines.history import pit_join

    lake = scratch_lake_dir("pitcol")
    run_ingest(stream, lake, num_partitions=4, segments_per_epoch=3, track_history=True)

    events = pd.concat([pq.read_table(f).to_pandas() for f in stream]).sort_values("lsn")
    live = events[events["op"] != "delete"].iloc[-1]
    probe = pd.DataFrame(
        {
            "repo": [live["repo"]],
            "path": [live["path"]],
            "commit": ["my-probe-commit"],  # collides with payload column
            "at_lsn": np.array([live["lsn"]], "int64"),
        }
    )
    out = pit_join(lake, ray.data.from_pandas(probe), at_column="at_lsn").to_pandas()
    assert len(out) == 1
    assert out["commit"].iloc[0] == "my-probe-commit"
    assert out["asof_lsn"].iloc[0] == live["lsn"]
    assert out["asof_commit"].iloc[0] == live["commit"]  # archive value, not default


def test_as_of_read_after_second_fold_is_whole_or_raises(stream):
    """An as-of read past a refold: the run of the second fold spans past
    the cut and the first fold's originals are gone. The read uses the
    previous run (kept one generation) and returns every row; once a third
    fold removed that run too, it raises EpochNotRetained instead of
    returning too few rows."""
    from sonic_etl_ray.pipelines.history import EpochNotRetained, compact_history

    def rows(as_of: int) -> list[tuple]:
        df = read_history(lake, as_of_epoch=as_of).to_pandas()
        return sorted(zip(df["lsn"], df["path"]))

    lake = scratch_lake_dir("histasof")
    kw = dict(num_partitions=2, segments_per_epoch=1, track_history=True)
    run_ingest(stream[:6], lake, **kw)
    assert compact_history(lake, min_files=1)["files_folded"] > 0  # runs cover 0-5
    want = rows(5)
    assert len(want) == 6 * 250
    run_ingest(stream[:9], lake, **kw)
    assert compact_history(lake, min_files=1)["files_folded"] > 0  # runs cover 0-8
    assert rows(5) == want
    run_ingest(stream, lake, **kw)
    assert compact_history(lake, min_files=1)["files_folded"] > 0  # runs cover 0-11
    with pytest.raises(EpochNotRetained):
        read_history(lake, as_of_epoch=5)
    assert len(rows(11)) == 12 * 250  # the head read is whole
