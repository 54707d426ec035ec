"""Auxiliary sink tests (JSONL/JSON fixtures, bucketed Parquet layout)."""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from sonic_etl_ray.sources.sinks import (
    write_bucketed_parquet,
    write_json_fixture,
    write_jsonl,
)


def test_write_jsonl(tmp_path):
    ds = ray.data.from_items([{"a": 1, "b": "x"}, {"a": 2, "b": "y"}])
    out = write_jsonl(ds, str(tmp_path / "jl"))
    rows = []
    for f in glob.glob(os.path.join(out, "*.json")):
        with open(f) as fh:
            rows += [json.loads(line) for line in fh if line.strip()]
    assert sorted(r["a"] for r in rows) == [1, 2]


def test_write_json_fixture(tmp_path):
    p = write_json_fixture({"k": [1, 2]}, str(tmp_path), "golden")
    assert json.load(open(p)) == {"k": [1, 2]}
    # truncate-overwrite semantics (output/json.rs:45-67)
    p = write_json_fixture({"k": [3]}, str(tmp_path), "golden")
    assert json.load(open(p)) == {"k": [3]}


def _bucket_members(out: str) -> dict[str, list[int]]:
    return {
        os.path.basename(d): sorted(pq.read_table(d).column("lsn").to_pylist())
        for d in glob.glob(os.path.join(out, "bucket=*"))
    }


def test_write_bucketed_parquet(tmp_path):
    keys = [-1] + list(range(100))
    t = pa.table({"lsn": keys, "v": [str(i) for i in keys]})
    out = write_bucketed_parquet(ray.data.from_arrow(t), str(tmp_path / "bp"), "lsn", 25)
    members = _bucket_members(out)
    assert sorted(members) == ["bucket=-1", "bucket=0", "bucket=1", "bucket=2", "bucket=3"]
    assert members["bucket=-1"] == [-1]  # floor, not truncation toward 0
    got = pq.read_table(out)
    assert got.num_rows == 101
    # keys beyond 2^53 are not exactly representable in float64: the bucket
    # must come from int64 floor division, not a float round trip
    big = 2**53 + 1
    t = pa.table({"lsn": pa.array([big, -big], pa.int64()), "v": ["p", "n"]})
    out = write_bucketed_parquet(ray.data.from_arrow(t), str(tmp_path / "big"), "lsn", 1)
    assert _bucket_members(out) == {f"bucket={big}": [big], f"bucket={-big}": [-big]}


def test_parquet_compression_knob(monkeypatch):
    """SONIC_ETL_COMPRESSION picks the codec for every non-digest leaf of
    every lake artifact write (end-to-end proof in BASELINE.md: identical
    state sha256 under snappy and zstd, zstd 38% smaller on the synthetic
    content); the hex-digest columns are zstd-1 under any setting. The map
    names every Parquet leaf, nested ones by path: pyarrow writes a leaf
    the map does not name UNCOMPRESSED."""
    import pyarrow as pa

    from sonic_etl_ray.config import parquet_write_kwargs

    schema = pa.schema([
        ("commit", pa.string()),
        ("content", pa.string()),
        ("content_sha256", pa.string()),
        ("attrs", pa.list_(pa.struct([("k", pa.string())]))),
    ])
    leaves = ("commit", "content", "content_sha256", "attrs.list.element.k")

    def per_leaf(*values) -> dict:
        return {leaf: v for leaf, v in zip(leaves, values) if v is not None}

    monkeypatch.delenv("SONIC_ETL_COMPRESSION", raising=False)
    monkeypatch.delenv("SONIC_ETL_COMPRESSION_LEVEL", raising=False)
    assert parquet_write_kwargs(schema) == {
        "compression": per_leaf("zstd", "snappy", "zstd", "snappy"),
        "compression_level": per_leaf(1, None, 1, None),
    }
    monkeypatch.setenv("SONIC_ETL_COMPRESSION", "zstd")
    assert parquet_write_kwargs(schema) == {
        "compression": per_leaf("zstd", "zstd", "zstd", "zstd"),
        "compression_level": per_leaf(1, 1, 1, 1),
    }
    monkeypatch.setenv("SONIC_ETL_COMPRESSION_LEVEL", "3")
    assert parquet_write_kwargs(schema) == {
        "compression": per_leaf("zstd", "zstd", "zstd", "zstd"),
        "compression_level": per_leaf(1, 3, 1, 3),
    }
    # no digest column: the configured codec alone, no levels under snappy
    monkeypatch.delenv("SONIC_ETL_COMPRESSION_LEVEL")
    monkeypatch.delenv("SONIC_ETL_COMPRESSION")
    assert parquet_write_kwargs(pa.schema([("content", pa.string())])) == {
        "compression": {"content": "snappy"}
    }
    # a dotted name has no unambiguous leaf path: one codec for the file
    assert parquet_write_kwargs(pa.schema([("a.b", pa.string()), ("commit", pa.string())])) == {
        "compression": "snappy"
    }
