"""Error-row channel (M15/TransformationErr analog) and catalog stage tests."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from sonic_etl_ray.generator import StreamSpec, generate_events, write_segments
from sonic_etl_ray.oracle import assert_state_equal, oracle_final_state
from sonic_etl_ray.pipelines.ingest import (
    lake_final_table,
    run_ingest,
    scratch_lake_dir,
)
from sonic_etl_ray.pipelines.sidecars import read_errors
from sonic_etl_ray.stages.transform import MalformedEventError


def _corrupt(table: pa.Table, every: int = 50) -> pa.Table:
    """Deterministically corrupt every Nth row: alternate unknown op /
    delete-with-content."""
    import pyarrow.compute as pc

    op = table.column("op").to_pylist()
    content = table.column("content").to_pylist()
    for i in range(0, len(op), every):
        if (i // every) % 2 == 0:
            op[i] = "upsurt"  # unknown op
        else:
            op[i] = "delete"
            content[i] = "stray content"  # delete must not carry content
    table = table.set_column(table.column_names.index("op"), "op", pa.array(op, pa.string()))
    return table.set_column(
        table.column_names.index("content"), "content", pa.array(content, pa.string())
    )


def _write_corrupted(tmp_path, spec):
    table = _corrupt(generate_events(spec))
    seg_dir = str(tmp_path / "segs")
    files = write_segments(table, seg_dir, spec)
    return table, files


def test_abort_mode_raises(tmp_path):
    """A map task that aborts on a malformed event fails the whole epoch:
    no commit record, no manifest, nothing readable. Rewriting the
    segments clean and rerunning gives an oracle-equal lake."""
    import glob

    from sonic_etl_ray.generator import generate_events
    from sonic_etl_ray.pipelines.ingest import read_lake
    from sonic_etl_ray.state import commitlog as cl

    spec = StreamSpec(n_events=500, n_repos=5, seed=41, segment_size=250)
    _, files = _write_corrupted(tmp_path, spec)
    lake = scratch_lake_dir("abort")
    with pytest.raises(Exception) as ei:
        run_ingest(files, lake, num_partitions=2, on_error="abort")
    assert "MalformedEventError" in str(ei.value) or isinstance(
        ei.value, MalformedEventError
    )
    assert not glob.glob(os.path.join(lake, "_commits", "**", "*.json"), recursive=True)
    assert cl.committed_epochs(lake) == [] and not cl.epoch_manifest_exists(lake, 0)
    assert read_lake(lake).count() == 0

    assert write_segments(generate_events(spec), str(tmp_path / "segs"), spec) == files
    run_ingest(files, lake, num_partitions=2, on_error="abort")
    assert_state_equal(lake_final_table(lake), oracle_final_state(files))


def test_route_mode_diverts_and_applies_valid(tmp_path):
    spec = StreamSpec(n_events=4000, n_repos=8, seed=43, segment_size=500)
    table, files = _write_corrupted(tmp_path, spec)
    lake = scratch_lake_dir("route")
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=4, on_error="route")

    errs = read_errors(lake)
    n_corrupt = (4000 + 49) // 50
    assert errs.num_rows == n_corrupt
    assert set(errs.column("__error").to_pylist()) == {
        "unknown_op",
        "delete_with_content",
    }

    # final state equals the oracle over only the VALID rows
    valid_files = []
    import pyarrow.compute as pc

    for i, f in enumerate(files):
        t = pq.read_table(f)
        ok = pc.and_(
            pc.is_in(t["op"], value_set=pa.array(["insert", "update", "delete"])),
            pc.or_(
                pc.invert(pc.equal(t["op"], "delete")),
                pc.is_null(t["content"]),
            ),
        )
        # upserts must have content
        ok = pc.and_(
            ok,
            pc.or_(pc.equal(t["op"], "delete"), pc.is_valid(t["content"])),
        )
        p = str(tmp_path / f"valid_{i}.parquet")
        pq.write_table(t.filter(ok), p)
        valid_files.append(p)
    assert_state_equal(lake_final_table(lake), oracle_final_state(valid_files))


def test_lang_catalog_conflicts_and_normalizer():
    import pandas as pd
    import ray.data

    from sonic_etl_ray.stages.catalog import (
        CatalogConflictError,
        LangCatalog,
        LangNormalizer,
    )

    cat = LangCatalog()
    cat.add("py", "python")  # identical re-insert: fine
    with pytest.raises(CatalogConflictError):
        cat.add("py", "snake")  # conflicting decoding: hard error

    batch = pa.table(
        {
            "path": ["a/b.py", "c/d.unknownext", "e/f.rs", "g/h"],
            "lang": ["python", "mystery", "go", "x"],
        }
    )
    out = LangNormalizer()(batch)
    assert out.column("lang_norm").to_pylist() == ["python", "mystery", "rust", "x"]
    assert out.column("lang_mismatch").to_pylist() == [False, False, True, False]

    # as an actor-pool stage over a Dataset
    ds = ray.data.from_arrow(batch)
    got = ds.map_batches(
        LangNormalizer, batch_format="pyarrow", concurrency=1
    ).to_pandas()
    assert list(got["lang_norm"]) == ["python", "mystery", "rust", "x"]


def test_dead_letter_replay_restores_state(tmp_path):
    """Quarantine → fix → replay: routed error rows re-ingested under a
    deterministic repair epoch restore the lake to the state of the
    uncorrupted stream (replay merges at ORIGINAL LSNs, so interleaving
    with already-applied later epochs stays correct)."""
    import pyarrow.compute as pc

    from sonic_etl_ray.pipelines.ingest import replay_errors

    spec = StreamSpec(n_events=3000, n_repos=8, seed=59, segment_size=500)
    original = generate_events(spec)

    # corrupt so the FIX restores exact original semantics:
    # non-deletes get an unknown op; deletes get illegal stray content
    op = original.column("op").to_pylist()
    content = original.column("content").to_pylist()
    n_corrupt = 0
    for i in range(0, len(op), 40):
        if op[i] == "delete":
            content[i] = "stray"
        else:
            op[i] = "upsurt"
        n_corrupt += 1
    corrupted = original.set_column(
        original.column_names.index("op"), "op", pa.array(op, pa.string())
    ).set_column(
        original.column_names.index("content"), "content", pa.array(content, pa.string())
    )
    files = write_segments(corrupted, str(tmp_path / "segs"), spec)
    golden_files = write_segments(original, str(tmp_path / "golden"), spec)

    lake = scratch_lake_dir("dlq")
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=3, on_error="route")
    pending = read_errors(lake, pending_only=True)
    assert pending.num_rows == n_corrupt

    def fix(t: pa.Table) -> pa.Table:
        fixed_op = pc.if_else(pc.equal(t["op"], "upsurt"), "insert", t["op"])
        fixed_content = pc.if_else(
            pc.equal(fixed_op, "delete"), pa.scalar(None, pa.string()), t["content"]
        )
        t = t.set_column(t.column_names.index("op"), "op", fixed_op)
        return t.set_column(t.column_names.index("content"), "content", fixed_content)

    out = replay_errors(lake, fix_fn=fix)
    assert out["files"] > 0 and out["replayed_rows"] == n_corrupt
    assert read_errors(lake, pending_only=True).num_rows == 0  # marked
    assert read_errors(lake).num_rows == n_corrupt  # history kept
    assert_state_equal(lake_final_table(lake), oracle_final_state(golden_files))
    # idempotent: nothing pending, same repair epoch would fast-forward anyway
    again = replay_errors(lake, fix_fn=fix)
    assert again["files"] == 0 and again["repair_epoch"] is None


def test_compact_errors_folds_replayed_only(tmp_path):
    """Audit compaction folds ONLY replayed files into runs: the full view
    is bit-stable across folds, the pending view is untouched, and a
    second fold sweeps the first generation's originals + markers."""
    import glob as _glob

    import pyarrow.compute as pc

    from sonic_etl_ray.pipelines.ingest import replay_errors
    from sonic_etl_ray.pipelines.sidecars import compact_errors

    spec = StreamSpec(n_events=3000, n_repos=8, seed=59, segment_size=250)
    original = generate_events(spec)
    op = original.column("op").to_pylist()
    for i in range(0, len(op), 25):
        if op[i] != "delete":
            op[i] = "upsurt"
    corrupted = original.set_column(
        original.column_names.index("op"), "op", pa.array(op, pa.string())
    )
    files = write_segments(corrupted, str(tmp_path / "segs"), spec)
    lake = scratch_lake_dir("dlqfold")
    run_ingest(files, lake, num_partitions=2, segments_per_epoch=2, on_error="route")
    n_err = read_errors(lake).num_rows
    assert n_err > 0

    def fix(t: pa.Table) -> pa.Table:
        fixed = pc.if_else(pc.equal(t["op"], "upsurt"), "insert", t["op"])
        return t.set_column(t.column_names.index("op"), "op", fixed)

    replay_errors(lake, fix_fn=fix)

    def canon(t):
        import pandas as pd

        df = t.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    full_before = canon(read_errors(lake))
    r = compact_errors(lake, min_files=2)
    assert r["parts"] >= 1 and r["files_folded"] >= 2
    assert _glob.glob(f"{lake}/_errors/runs/part=*/run-seq=*.parquet")
    import pandas as pd

    pd.testing.assert_frame_equal(canon(read_errors(lake)), full_before)
    assert read_errors(lake, pending_only=True).num_rows == 0

    # second generation: new errors arrive, are replayed, and a second
    # fold sweeps the first generation's originals and markers
    gen1 = set(_glob.glob(f"{lake}/_errors/epoch=*/part=*.parquet"))
    spec2 = StreamSpec(n_events=1000, n_repos=8, seed=60, segment_size=250)
    t2 = generate_events(spec2)
    op2 = t2.column("op").to_pylist()
    for i in range(0, len(op2), 25):
        if op2[i] != "delete":
            op2[i] = "upsurt"
    t2 = t2.set_column(t2.column_names.index("op"), "op", pa.array(op2, pa.string()))
    files2 = write_segments(t2, str(tmp_path / "segs2"), spec2)
    # continue the SAME lake: later epochs via explicit epoch numbering
    from sonic_etl_ray.pipelines.ingest import apply_epoch
    import ray.data

    base_epoch = 60
    for k in range(0, len(files2), 2):
        apply_epoch(
            ray.data.read_parquet(files2[k : k + 2]),
            lake, epoch=base_epoch + k // 2, num_partitions=2, on_error="route",
        )
    assert read_errors(lake, pending_only=True).num_rows > 0
    replay_errors(lake, fix_fn=fix)
    r2 = compact_errors(lake, min_files=2)
    assert r2["files_folded"] >= 1
    left = set(_glob.glob(f"{lake}/_errors/epoch=*/part=*.parquet"))
    assert not (left & gen1)  # generation-1 originals swept
    assert not any(
        os.path.exists(f + ".REPLAYED") for f in gen1
    )  # markers swept with them


def test_orphan_error_file_invisible(tmp_path):
    """An error file from a crashed, uncommitted unit must not surface as
    pending backlog (replay_errors would refuse it) nor in the audit view."""
    import pyarrow.parquet as pq_

    spec = StreamSpec(n_events=500, n_repos=4, seed=7, segment_size=250)
    t = generate_events(spec)
    op = t.column("op").to_pylist()
    op[10] = "upsurt"
    t = t.set_column(t.column_names.index("op"), "op", pa.array(op, pa.string()))
    files = write_segments(t, str(tmp_path / "segs"), spec)
    lake = scratch_lake_dir("dlqorphan")
    run_ingest(files, lake, num_partitions=2, segments_per_epoch=2, on_error="route")
    committed = read_errors(lake).num_rows
    assert committed >= 1
    # forge an orphan: an error file for an epoch with no commit record
    orphan_dir = os.path.join(lake, "_errors", "epoch=00000099")
    os.makedirs(orphan_dir)
    src = sorted(
        f for f in os.listdir(os.path.join(lake, "_errors"))
        if f.startswith("epoch=") and f != "epoch=00000099"
    )[0]
    import glob as _glob
    import shutil as _shutil

    real = _glob.glob(os.path.join(lake, "_errors", src, "part=*.parquet"))[0]
    _shutil.copy(real, os.path.join(orphan_dir, os.path.basename(real)))
    assert read_errors(lake).num_rows == committed
    assert read_errors(lake, pending_only=True).num_rows == committed


def test_errors_read_and_fold_across_widened_schema(tmp_path):
    """Errors routed on both sides of a column add and an int32→int64
    widening (``size_hint``) read back as ONE table under the engine's
    widening rules, equal to the routed rows, and fold into audit runs
    without changing what reads see."""
    import glob as _glob

    import pyarrow.compute as pc

    from sonic_etl_ray.pipelines.sidecars import compact_errors

    spec = StreamSpec(
        n_events=6000, n_repos=10, seed=9, segment_size=500, evolve_at=(2000, 4000)
    )
    table, files = _write_corrupted(tmp_path, spec)
    lake = scratch_lake_dir("dlqwiden")
    run_ingest(files, lake, num_partitions=4, segments_per_epoch=3, on_error="route")

    errs = read_errors(lake)
    assert errs.schema.field("size_hint").type == pa.int64()
    routed = table.take(pa.array(range(0, table.num_rows, 50)))
    got = errs.select(routed.column_names)
    assert got.sort_by("lsn").equals(routed.sort_by("lsn"))
    assert set(errs.column("__error").to_pylist()) == {"unknown_op", "delete_with_content"}

    # the lake holds exactly the oracle's state over the rows not routed
    valid_files = []
    for i, f in enumerate(files):
        t = pq.read_table(f)
        keep = pc.invert(pc.is_in(t["lsn"], value_set=routed["lsn"].combine_chunks()))
        valid_files.append(str(tmp_path / f"valid_{i}.parquet"))
        pq.write_table(t.filter(keep), valid_files[-1])
    assert_state_equal(lake_final_table(lake), oracle_final_state(valid_files))

    # retire every file (as replay_errors does after its repair manifest),
    # then fold: the run spans both schemas and reads back unchanged
    for f in _glob.glob(f"{lake}/_errors/epoch=*/part=*.parquet"):
        with open(f + ".REPLAYED", "w") as fh:
            fh.write("0")
    r = compact_errors(lake, min_files=2)
    assert r["parts"] == 4 and r["files_folded"] >= 2
    assert read_errors(lake).equals(errs)
    assert read_errors(lake, pending_only=True).num_rows == 0
