"""Catalog decode of change-event content into structured args rows.

The true ST2/ST3 analog of the reference's log decoding
(``sonic_config/transformation/common.rs:409-496`` +
``events/generic.rs:76-135``): a per-worker catalog maps a SELECTOR (the
event's ``lang`` column — the topic0 analog) to an event spec; each
matching change event emits one DECODED EVENT row with ``args`` = a JSON
array string of the captured values (the ``Value::Array`` →
``serde_json::to_string`` path). Outcome split mirrors the reference
exactly:

- selector not in the catalog  → silent skip (``GetEventBySigErr::NotFound``);
- null content (deletes)       → silent skip (``LogHasNoTopics``);
- selector known, pattern does NOT match → ABORT the batch
  (``LogDecodeErr::DecodeErr`` → ``ExtractTransformErr``), or with
  ``on_undecodable="route"`` divert the offending source row to the typed
  error channel instead.

Decoded rows ride the SAME Dataset as the file events, tagged with
``__table`` (the multi-table fan-out of ``PerBlockRecords``,
``sonic_config/mod.rs:305-314,501-574``): one read, one shuffle, N typed
outputs per (epoch, partition) unit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .transform import ERROR_COLUMN, MalformedEventError

TABLE_COLUMN = "__table"
TABLE_FILES = "files"
TABLE_DECODED = "decoded"
# decode-output-only columns: appear (null) on file rows after the union,
# stripped again before the merge so they never leak into lake state
DECODE_COLUMNS = ("event_name", "args", "line_no")

DECODED_SCHEMA = pa.schema(
    [
        ("lsn", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("event_name", pa.string()),
        ("args", pa.string()),
        ("line_no", pa.int64()),
    ]
)


@dataclass(frozen=True)
class EventSpec:
    """One catalog entry: decoded-event name + arg pattern over content.

    ``pattern`` must have ≥1 capture groups; captured strings become the
    JSON args array (the reference renders every decoded value to string /
    array form, ``events/generic.rs:76-99``). ``table`` routes the decoded
    rows to a named output table — the reference's per-table publish
    fan-out emits SIX typed tables per block (``sonic_config/mod.rs:
    305-314``); specs sharing a table append into the same per-(epoch,
    partition) file."""

    name: str
    pattern: str
    table: str = TABLE_DECODED


class DecodeCatalog:
    """Selector → :class:`EventSpec` catalog, compiled once per worker (the
    ST1 'catalog loaded once' pattern, ``events/erc.rs:13-180``)."""

    def __init__(self, specs: dict[str, EventSpec]):
        self.specs = dict(specs)
        self.compiled = {sel: re.compile(s.pattern) for sel, s in specs.items()}
        for s in specs.values():
            if s.table == TABLE_FILES:
                raise ValueError(f"{TABLE_FILES!r} is the reserved state-table tag")

    def selectors(self) -> list[str]:
        return sorted(self.specs)


def _json_args(groups: pd.DataFrame) -> pd.Series:
    """Vectorized JSON array assembly from regex capture-group columns:
    '["g1", "g2", ...]' — every captured value a JSON string, exactly
    ``serde_json`` rendering of Value::Array of strings."""
    out = '["' + groups.iloc[:, 0].astype(str)
    for i in range(1, groups.shape[1]):
        out = out + '", "' + groups.iloc[:, i].astype(str)
    return out + '"]'


class ContentDecoder:
    """``map_batches`` stage: pass file rows through tagged ``files`` and
    append one tagged ``decoded`` row per catalog-matched change event.

    Runs AFTER ``validate_and_derive`` (rows are already typed/validated).
    Arrow in / Arrow out — the union is an arrow concat with type
    promotion, so file-row column types are never disturbed (a pandas
    round-trip would turn int64+null into float64 and corrupt schema
    evolution). Per-selector work is vectorized: one ``str.extract`` per
    catalog entry over that selector's rows.
    """

    def __init__(self, catalog: DecodeCatalog, on_undecodable: str = "abort"):
        if on_undecodable not in ("abort", "route"):
            raise ValueError("on_undecodable must be 'abort' or 'route'")
        self.catalog = catalog
        self.on_undecodable = on_undecodable

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        n = batch.num_rows
        lang = batch.column("lang").to_pandas()
        content = batch.column("content").to_pandas()
        err = (
            batch.column(ERROR_COLUMN).to_pandas()
            if ERROR_COLUMN in batch.column_names
            else pd.Series([None] * n)
        )
        decodable = lang.isin(self.catalog.selectors()) & content.notna() & err.isna()

        lsn = np.asarray(batch.column("lsn"))
        repo = batch.column("repo").to_pandas()
        path = batch.column("path").to_pandas()
        new_err = err.copy()
        decoded_parts: list[pa.Table] = []
        for sel in self.catalog.selectors():
            idx = np.flatnonzero((decodable & (lang == sel)).to_numpy())
            if idx.size == 0:
                continue
            spec = self.catalog.specs[sel]
            groups = content.iloc[idx].str.extract(self.catalog.compiled[sel])
            bad = groups.isna().any(axis=1).to_numpy()
            if bad.any():
                if self.on_undecodable == "abort":
                    sample = content.iloc[idx[bad][0]]
                    raise MalformedEventError(
                        f"content for selector {sel!r} does not match "
                        f"{spec.pattern!r}: {sample!r}"
                    )
                # route: divert the SOURCE row to the typed error channel
                # (the reference aborts the whole block; routing quarantines
                # just the offending row)
                new_err.iloc[idx[bad]] = "undecodable_content"
                idx, groups = idx[~bad], groups[~bad]
                if idx.size == 0:
                    continue
            cols = {
                "lsn": pa.array(lsn[idx], pa.int64()),
                "repo": pa.array(repo.iloc[idx], pa.string()),
                "path": pa.array(path.iloc[idx], pa.string()),
                TABLE_COLUMN: pa.array([spec.table] * idx.size, pa.string()),
                "event_name": pa.array([spec.name] * idx.size, pa.string()),
                "args": pa.array(_json_args(groups), pa.string()),
                "line_no": pa.array(np.zeros(idx.size, dtype=np.int64)),
            }
            decoded_parts.append(pa.table(cols))

        if self.on_undecodable == "route" and not new_err.equals(err):
            col = pa.array(new_err, pa.string())
            if ERROR_COLUMN in batch.column_names:
                batch = batch.set_column(
                    batch.column_names.index(ERROR_COLUMN), ERROR_COLUMN, col
                )
            else:
                batch = batch.append_column(ERROR_COLUMN, col)
        batch = batch.append_column(
            TABLE_COLUMN, pa.array([TABLE_FILES] * n, pa.string())
        )
        if not decoded_parts:
            return batch
        return pa.concat_tables([batch, *decoded_parts], promote_options="default")


def split_tables(group: pa.Table) -> tuple[pa.Table, dict[str, pa.Table]]:
    """Split a merge group into (file rows, {table name → decoded rows});
    file rows lose the decode-only columns so they can never leak into lake
    state. One fan-out group may carry rows for several decoded tables."""
    if TABLE_COLUMN not in group.column_names:
        return group, {}
    tags = pc.fill_null(group.column(TABLE_COLUMN), TABLE_FILES)
    is_files = pc.equal(tags, TABLE_FILES)
    files = group.filter(is_files)
    drop = [c for c in (TABLE_COLUMN, *DECODE_COLUMNS) if c in files.column_names]
    files = files.drop_columns(drop)
    out: dict[str, pa.Table] = {}
    others = group.filter(pc.invert(is_files))
    if others.num_rows:
        names = pc.unique(pc.fill_null(others.column(TABLE_COLUMN), TABLE_FILES))
        for name in sorted(n.as_py() for n in names):
            part = others.filter(pc.equal(others.column(TABLE_COLUMN), name))
            out[name] = part.select(DECODED_SCHEMA.names)
    return files, out
