"""Per-column Parquet codecs across every lake artifact, and the engine's
own bytes-written counters.

The codec contract: in every Parquet file the engine writes into a lake
(state, deltas, stats, history and error sidecars, sidecar runs, column
indexes, exported snapshots) the hex-digest leaves (``content_sha256``,
``commit``) are ZSTD and every other leaf is the configured codec — never
UNCOMPRESSED, which is what pyarrow writes for a leaf its per-column
``compression`` map does not name.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq

from sonic_etl_ray.generator import StreamSpec, generate_events, generate_stream, write_segments
from sonic_etl_ray.oracle import assert_state_equal, oracle_final_state
from sonic_etl_ray.pipelines.colindex import build_value_index
from sonic_etl_ray.pipelines.history import compact_history
from sonic_etl_ray.pipelines.ingest import (
    export_snapshot,
    lake_final_table,
    lake_state_files,
    run_ingest,
    scratch_lake_dir,
)
from sonic_etl_ray.pipelines.tail import Tailer
from sonic_etl_ray.schemas import DIGEST_COLUMNS
from sonic_etl_ray.state import commitlog as cl


def _leaf_codecs(path: str) -> dict[str, set[str]]:
    """Leaf path → codecs of its column chunks, read from the footer."""
    md = pq.read_metadata(path)
    out: dict[str, set[str]] = {}
    for rg in range(md.num_row_groups):
        for i in range(md.num_columns):
            col = md.row_group(rg).column(i)
            out.setdefault(col.path_in_schema, set()).add(col.compression)
    return out


def _add_nested_column(seg: str) -> None:
    """Evolve one segment with a list<struct> column (a nested leaf)."""
    t = pq.read_table(seg)
    attrs = pa.array(
        [[{"k": f"k{i % 3}", "n": i}] for i in range(t.num_rows)],
        pa.list_(pa.struct([("k", pa.string()), ("n", pa.int64())])),
    )
    pq.write_table(t.append_column("attrs", attrs), seg)


def test_every_lake_file_has_zstd_digests_and_no_uncompressed_leaf(tmp_path):
    # the codec the Ray workers were started with (snappy by default)
    codec = os.environ.get("SONIC_ETL_COMPRESSION", "snappy").upper()
    assert codec != "UNCOMPRESSED"
    seg_dir = str(tmp_path / "segs")
    files = generate_stream(
        seg_dir,
        StreamSpec(n_events=2000, n_repos=5, seed=7, segment_size=250, evolve_at=(600, 1200)),
    )
    _add_nested_column(files[6])
    lake = scratch_lake_dir("codecs")
    kw = dict(num_partitions=2, segments_per_epoch=1, track_history=True)
    run_ingest(files[:4], lake, **kw)  # COW epochs 0-3
    run_ingest(files[:6], lake, merge_mode="mor", **kw)  # MOR deltas 4-5
    run_ingest(files, lake, **kw)  # COW 6-7 fold the deltas; 6 adds attrs
    assert compact_history(lake, min_files=2)["files_folded"] > 0
    build_value_index(lake, "lang")
    snap = str(tmp_path / "snapshot")
    export_snapshot(lake, snap)

    written = sorted(glob.glob(f"{lake}/**/*.parquet", recursive=True))
    written += sorted(glob.glob(f"{snap}/**/*.parquet", recursive=True))
    kinds = {os.path.relpath(f, lake).split(os.sep)[0] for f in written}
    assert {"_history", "_colindex"} <= kinds  # sidecars and index were checked
    assert any("delta-" in f for f in written) and any("/compacted/" in f for f in written)
    seen_digest = seen_nested = False
    for f in written:
        for leaf, codecs in _leaf_codecs(f).items():
            if leaf.split(".")[0] in DIGEST_COLUMNS:
                assert codecs == {"ZSTD"}, (f, leaf, codecs)
                seen_digest = True
            else:
                assert codecs == {codec}, (f, leaf, codecs)
                seen_nested |= leaf.startswith("attrs.")
        duckdb.sql(f"SELECT count(*) FROM read_parquet('{f}')").fetchall()
    assert seen_digest and seen_nested

    gold = oracle_final_state(files, extra_columns=["size_hint", "branch"])
    state = duckdb.sql(
        f"SELECT * FROM read_parquet({lake_state_files(lake)!r}, union_by_name=true) "
        "WHERE NOT deleted"
    ).arrow()
    assert "attrs" in state.column_names
    assert_state_equal(state, gold)
    assert_state_equal(lake_final_table(lake), gold)

    # the footer-only byte report sees the same files and codecs
    tool = os.path.join(os.path.dirname(__file__), "..", "tools", "lake_bytes.py")
    out = subprocess.run(
        [sys.executable, tool, lake, "--json"], capture_output=True, text=True, check=True
    )
    report = json.loads(out.stdout)
    assert {"state", "delta", "stats", "_history", "_history/runs", "_colindex"} <= set(report)
    assert sum(k["bytes"] for k in report.values()) == sum(
        os.path.getsize(f) for f in written if f.startswith(lake)
    )
    for digest in DIGEST_COLUMNS:
        assert report["state"]["columns"][digest]["codecs"] == ["ZSTD"]


def test_configured_codec_reaches_every_non_digest_leaf(tmp_path, monkeypatch):
    """The knob as the writers see it, in-process (Ray workers keep the
    environment they started with): every non-digest leaf, nested ones
    included, takes the configured codec."""
    from sonic_etl_ray.pipelines.ingest import _publish

    monkeypatch.setenv("SONIC_ETL_COMPRESSION", "zstd")
    monkeypatch.setenv("SONIC_ETL_COMPRESSION_LEVEL", "3")
    t = pa.table({
        "commit": ["c" * 40] * 3,
        "content": ["x", "y", None],
        "attrs": pa.array([[{"k": "a"}], None, []], pa.list_(pa.struct([("k", pa.string())]))),
        "tags": pa.array([[("a", 1)], [], None], pa.map_(pa.string(), pa.int64())),
    })
    path = _publish(t, str(tmp_path / "f.parquet"))
    assert _leaf_codecs(path) == {
        leaf: {"ZSTD"} for leaf in (
            "commit", "content", "attrs.list.element.k",
            "tags.key_value.key", "tags.key_value.value",
        )
    }
    assert pq.read_table(path).equals(t)


def _lake_parquet_bytes(lake: str) -> int:
    return sum(os.path.getsize(f) for f in glob.glob(f"{lake}/**/*.parquet", recursive=True))


def test_bytes_written_counts_every_file_a_unit_publishes(tmp_path):
    """Commit records carry the bytes of every file their unit published
    (state, stats, history, errors); the epoch manifest sums them and the
    Tailer's ``bytes_written_total`` counter (and ``/metrics``) add them
    up. On a fresh lake with no fold yet, that is every Parquet byte."""
    spec = StreamSpec(n_events=1000, n_repos=4, seed=3, segment_size=250)
    table = generate_events(spec)
    op = table.column("op").to_pylist()
    op[10] = "upsurt"  # one malformed row: the routed error sidecar
    table = table.set_column(table.column_names.index("op"), "op", pa.array(op))
    files = write_segments(table, str(tmp_path / "segs"), spec)

    lake = scratch_lake_dir("bytes_ingest")
    run_ingest(files, lake, num_partitions=2, segments_per_epoch=2, on_error="route",
               track_history=True)
    assert glob.glob(f"{lake}/_errors/**/*.parquet", recursive=True)
    recs = [cl.read_commit(lake, e, p) for e in (0, 1) for p in (0, 1)]
    assert all(r["bytes_written"] > 0 for r in recs)
    manifests = [cl.read_manifest(lake, e) for e in (0, 1)]
    assert sum(m["bytes_written"] for m in manifests) == sum(r["bytes_written"] for r in recs)
    assert sum(r["bytes_written"] for r in recs) == _lake_parquet_bytes(lake)

    watch = str(tmp_path / "watch")
    os.makedirs(watch)
    tail_lake = scratch_lake_dir("bytes_tail")
    tailer = Tailer(watch, tail_lake, num_partitions=2, segments_per_epoch=1, track_history=True)
    for f in files[1:]:  # the clean segments
        os.link(f, os.path.join(watch, os.path.basename(f)))
        tailer.tick()
        assert tailer.metrics()["bytes_written_total"] == _lake_parquet_bytes(tail_lake)
    assert f"sonic_etl_bytes_written_total {_lake_parquet_bytes(tail_lake)}" in (
        tailer._metrics.to_prometheus()
    )
