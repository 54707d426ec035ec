"""Engine-wide storage tunables.

Every lake artifact (state, deltas, stats, history, decoded/error
sidecars, sidecar runs, column indexes, snapshots) is written with the
per-column codec map of :func:`parquet_write_kwargs`:

- the hex-digest columns (``schemas.DIGEST_COLUMNS``: ``content_sha256``
  and ``commit``) always get zstd level 1. A 64-char hex digest carries 4
  bits of entropy per byte; snappy has no entropy stage and stores it in
  about 64 bytes, zstd's entropy coder in about half. Those two columns
  are about half of a COW state file's bytes, so this cuts about 22% of
  the bytes of every copy-on-write rewrite, for a write-time cost inside
  measurement noise;
- every other column takes ``SONIC_ETL_COMPRESSION``: ``snappy`` by
  default, ``zstd`` (≈30% smaller on the text ``content`` column for about
  30% more write CPU — the choice when a deployment is storage- or
  network-bound, e.g. an object-store-backed lake), or any codec pyarrow
  accepts. ``SONIC_ETL_COMPRESSION_LEVEL`` optionally pins that codec's
  level (zstd defaults to 1 here: levels >3 cost CPU quadratically for
  single-digit extra ratio on this payload shape).

The map is keyed by Parquet *leaf path* (``s.a``, ``l.list.element``,
``m.key_value.key``): pyarrow writes UNCOMPRESSED any leaf its
``compression`` dict does not name, and a nested leaf keyed by its
top-level name is not named.

Read from the environment on every write, in the process that writes —
in local mode Ray workers inherit the driver's environment when they
start; on a real cluster ship it via
``ray.init(runtime_env={"env_vars": {...}})``. Results are
byte-identical under any codec (compression never changes values), so the
knob is safe to flip between epochs of the same lake: Parquet files are
self-describing and readers mix codecs freely.
"""

from __future__ import annotations

import os
from collections.abc import Iterator

import pyarrow as pa

from .schemas import DIGEST_COLUMNS

DIGEST_CODEC, DIGEST_LEVEL = "zstd", 1


def _leaf_paths(typ: pa.DataType, path: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
    """Parquet column paths, as name tuples, of the leaves under one Arrow
    field (pyarrow's compliant nested naming: ``list.element``,
    ``key_value.key/value``)."""
    if pa.types.is_struct(typ):
        for f in typ:
            yield from _leaf_paths(f.type, (*path, f.name))
    elif pa.types.is_map(typ):
        yield from _leaf_paths(typ.key_type, (*path, "key_value", "key"))
        yield from _leaf_paths(typ.item_type, (*path, "key_value", "value"))
    elif (
        pa.types.is_list(typ) or pa.types.is_large_list(typ)
        or pa.types.is_fixed_size_list(typ)
    ):
        yield from _leaf_paths(typ.value_type, (*path, "list", "element"))
    else:
        yield path


def parquet_write_kwargs(schema: pa.Schema) -> dict:
    """kwargs for every ``pq.write_table`` that persists a lake artifact
    with ``schema``: a per-leaf ``compression`` map (plus levels) that
    names every leaf, digests on zstd-1 and the rest on the configured
    codec."""
    codec = os.environ.get("SONIC_ETL_COMPRESSION", "snappy")
    level_env = os.environ.get("SONIC_ETL_COMPRESSION_LEVEL")
    level = int(level_env) if level_env else (1 if codec == "zstd" else None)
    leaves = [(f.name, leaf) for f in schema for leaf in _leaf_paths(f.type, (f.name,))]
    if any("." in part for _, leaf in leaves for part in leaf):
        # a dotted name has no unambiguous leaf path: one codec for the file
        out: dict = {"compression": codec}
        if level is not None:
            out["compression_level"] = level
        return out
    compression: dict[str, str] = {}
    levels: dict[str, int] = {}
    for name, leaf in leaves:
        key = ".".join(leaf)
        digest = name in DIGEST_COLUMNS
        compression[key] = DIGEST_CODEC if digest else codec
        lvl = DIGEST_LEVEL if digest else level
        if lvl is not None:
            levels[key] = lvl
    out = {"compression": compression}
    if levels:
        out["compression_level"] = levels
    return out
