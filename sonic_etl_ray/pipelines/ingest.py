"""The CDC upsert pipeline: change events → exactly-once partitioned lake.

Re-expression of the reference's end-to-end path (§3.1 of SURVEY.md):
coordinator range chunks (``publish_ranges.py:122-146``) become epochs of
Parquet segments; the extractor's single-threaded transform-and-publish
pass over one range (``extractor_transformer/README.md:10-13``) becomes one
Ray task per segment running the vectorized per-block transform chain
(``transformation/common.rs``); the at-least-once publish + daily MERGE
repair (``daily_qc_airflow/daily_dedupe_mainnet.py:65-81``) becomes an
inline, idempotent, key-partitioned merge applied by one Ray task per
partition.

Dataflow per epoch (plain tasks, refs only on the driver; Ray Data is the
read and query surface, not the write path)::

    _map_and_split × segment file          # ONE task per input (or per block
      = read → validate_and_derive         #  of an input Dataset): typed
        → (decode) → reduce_last_per_key   #  derive (M1..M12), catalog fan-
        → add_partition_column → split     #  out, combiner, hash % P, then
                                           #  P (or G group) slices
      → _merge_partition × P               # MergeApplier.apply_unit per
      → commit records (lineage)           #  partition; the durable commit
                                           #  log is the merge's only state

Scale notes (100 TB / 256 nodes): the combiner bounds shuffle volume to at
most one row per live key per epoch; partition count P is chosen so one
partition's full state fits a worker heap (copy-on-write merge, the
Hudi/Delta file-group model); partitioning on the full (repo, path) key is
the hot-repo skew split; all lake I/O is rename-atomic on shared storage.
"""

from __future__ import annotations

from contextlib import contextmanager

import logging
import os
import tempfile
import uuid
from typing import Any, Iterable

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data
from ray.data.block import BlockAccessor

from ..schemas import (
    ENVELOPE_COLUMNS,
    STATE_SCHEMA,
    STATE_SORT,
    conform_table,
    unify_schemas,
)
from ..stages.decode import ContentDecoder
from ..stages.keys import PART_COLUMN, add_partition_column, key_strings
from ..stages.transform import (
    ERROR_COLUMN,
    W_COLUMN,
    reduce_distinct_versions,
    reduce_last_per_key,
    validate_and_derive,
)
from ..config import parquet_write_kwargs
from ..sources.planner import (  # noqa: F401  (REPAIR_EPOCH_BASE: re-exported)
    REPAIR_EPOCH_BASE,
    EpochUnit,
    LakeCoverage,
    plan_epochs,
    repair_epoch_id,
    validate_segments,
)
from ..state import commitlog as cl
from . import sidecars

log = logging.getLogger(__name__)

COMMIT_RECORD_SCHEMA = pa.schema(
    [
        ("epoch", pa.int64()),
        ("part", pa.int64()),
        ("applied_lsn", pa.int64()),
        ("n_events", pa.int64()),
        ("n_rows", pa.int64()),
        ("data_file", pa.string()),
        ("noop", pa.bool_()),
        ("n_errors", pa.int64()),
        ("n_decoded", pa.int64()),
    ]
)


def _project_state(winners: pa.Table) -> pa.Table:
    """Per-key winning events → state rows. Deletes become TOMBSTONES
    (``deleted=True``, payload nulls): they must stay in partition state so a
    replayed/backfilled update with a lower LSN can never resurrect the key."""
    cols: dict[str, pa.ChunkedArray | pa.Array] = {}
    for f in STATE_SCHEMA:
        if f.name == "applied_lsn":
            cols[f.name] = winners.column("lsn")
        elif f.name == "deleted":
            cols[f.name] = pc.equal(winners.column("op"), "delete")
        else:
            cols[f.name] = winners.column(f.name)
    extra = [
        c
        for c in winners.column_names
        if c not in STATE_SCHEMA.names
        and c not in ENVELOPE_COLUMNS
        and c not in (PART_COLUMN, W_COLUMN)
    ]
    for c in extra:
        cols[c] = winners.column(c)
    return pa.table(cols)


def _history_versions(group: pa.Table) -> pa.Table:
    """Distinct delivered versions of one (epoch, partition) unit: one row
    per (repo, path, lsn) — exact duplicate deliveries collapse to the first
    occurrence (at-least-once duplicates are byte-identical by contract),
    envelope helper columns drop, canonical (repo, path, lsn) order so
    scheduling nondeterminism never leaks into the archive file."""
    from ..stages.keys import first_indices

    drop = [c for c in (PART_COLUMN, W_COLUMN) if c in group.column_names]
    t = group.drop_columns(drop) if drop else group
    if t.num_rows > 1:
        t = t.take(first_indices(t, key=("repo", "path", "lsn")))
    return t.take(
        pc.sort_indices(
            t,
            sort_keys=[
                ("repo", "ascending"), ("path", "ascending"), ("lsn", "ascending"),
            ],
        )
    )


def _drop_unchanged_upserts(fresh: pa.Table, prior: pa.Table) -> tuple[pa.Table, int]:
    """No-op update suppression: drop winning upserts whose ``content``
    equals the prior LIVE row's content (in-task hash join on the unique
    per-key rows of both sides — co-partitioned by construction)."""
    live = prior.filter(pc.invert(pc.fill_null(prior.column("deleted"), False)))
    if live.num_rows == 0:
        return fresh, 0
    lookup = pa.table(
        {"__sk": key_strings(live), "__prior_content": live.column("content")}
    )
    j = fresh.append_column("__fk", key_strings(fresh)).join(
        lookup, keys=["__fk"], right_keys=["__sk"], join_type="left outer"
    )
    same = pc.fill_null(
        pc.and_(
            pc.not_equal(j.column("op"), "delete"),
            pc.equal(j.column("content"), j.column("__prior_content")),
        ),
        False,
    )
    kept = j.filter(pc.invert(same)).drop_columns(["__fk", "__prior_content"])
    return kept, fresh.num_rows - kept.num_rows


def _state_as_events(prior: pa.Table) -> pa.Table:
    """Prior state rows → pseudo-events so the merge is ONE last-writer-wins
    reduction over (prior ∪ incoming): op from the tombstone flag, lsn from
    applied_lsn. This gives per-KEY LSN comparison, which (unlike a partition
    watermark gate) stays correct under out-of-order backfill epochs."""
    cols: dict[str, pa.ChunkedArray | pa.Array] = {
        "lsn": prior.column("applied_lsn"),
        "op": pc.if_else(prior.column("deleted"), "delete", "insert"),
    }
    for c in prior.column_names:
        if c not in ("applied_lsn", "deleted"):
            cols[c] = prior.column(c)
    return pa.table(cols)


def _lww_resolve(tables: list[pa.Table]) -> pa.Table:
    """One last-writer-wins reduction over several state-row tables (a base
    plus merge-on-read deltas, or any mix): state rows → pseudo-events →
    per-key max-LSN winner → state rows, canonically sorted. Exactly the
    reduction the copy-on-write merge applies at write time, so a resolved
    merge-on-read partition is bit-identical to its copy-on-write twin."""
    tables = [t for t in tables if t is not None and t.num_rows]
    if not tables:
        return STATE_SCHEMA.empty_table()
    if len(tables) == 1:
        state = tables[0]
    else:
        evs = [_state_as_events(t) for t in tables]
        target = evs[0].schema
        for e in evs[1:]:
            target = unify_schemas(target, e.schema)
        all_ev = pa.concat_tables(
            [conform_table(e, target) for e in evs], promote_options="default"
        )
        state = _project_state(reduce_last_per_key(all_ev))
    return state.take(pc.sort_indices(state, sort_keys=STATE_SORT))


def _as_of_seqs(lake_dir: str, as_of_epoch: int | None) -> dict[int, int] | None:
    """The target epoch's manifest ``frontier_seqs`` snapshot as {part:
    seq}, read ONCE for a whole-lake scan (per-partition ``commit_seq``
    would re-parse the manifest O(parts) times). None when unavailable."""
    if as_of_epoch is None:
        return None
    man = cl.read_manifest(lake_dir, as_of_epoch)
    if man is not None and "frontier_seqs" in man:
        return {int(k): int(v) for k, v in man["frontier_seqs"].items()}
    return None


_CORE_TYPES = {f.name: f.type for f in STATE_SCHEMA}


def _note_if_evolved(lake: str, schema: pa.Schema) -> None:
    """Sticky evolution marker (commitlog.note_schema_evolution) whenever a
    committed file's schema differs from the core state schema — column
    adds AND type widening (nested evolution changes types, not names).
    Gates read_lake's footer walk: never-evolved lakes skip it entirely."""
    if {f.name: f.type for f in schema} != _CORE_TYPES:
        cl.note_schema_evolution(lake)


def _backfill_evolution_marker(lake_dir: str) -> None:
    """One-time upgrade probe: a lake whose files were committed before the
    evolution marker existed carries no marker even if it evolved, and the
    rolling frontier cursor is how we know which era wrote it. Before the
    first post-upgrade manifest creates that cursor, walk every committed
    file's footer once and backfill the marker — afterwards marker absence
    is authoritative (see read_lake) and the O(files) probe never reruns."""
    if cl.has_rolling_frontier(lake_dir) or cl.schema_ever_evolved(lake_dir):
        return
    for part in _lake_parts(lake_dir):
        for _, _, path, _ in cl.list_part_files(lake_dir, part):
            _note_if_evolved(lake_dir, pq.read_schema(path))
            if cl.schema_ever_evolved(lake_dir):
                return


def _cut_files_at_seq(
    files: list[tuple[int, int, str, str]], s: int
) -> list[tuple[int, int, str, str]]:
    """Files whose state a seq-``s`` cut can read: seqs <= s, PLUS a
    compaction base at exactly seq s+1 — a compaction base folds every file
    with a smaller seq (single-writer), so its content IS the state at seq
    s and it substitutes when vacuum already removed the originals (without
    it, time travel to a compacted-then-vacuumed cut silently reads an
    empty partition). A copy-on-write state at s+1 is NOT a substitute (it
    contains epoch s+1's changes) — the ``.compaction.json`` lineage marker
    distinguishes them, and vacuum keeps it alongside a retained base."""
    if s < 0:
        return []
    kept = [f for f in files if f[0] <= s]
    for f in files:
        if f[0] == s + 1 and f[3] == "state" and os.path.exists(f[2] + ".compaction.json"):
            kept.append(f)
            break
    return kept


def _files_as_of(
    lake_dir: str,
    part: int,
    files: list[tuple[int, int, str, str]],
    as_of_epoch: int | None,
    seqs: dict[int, int] | None = None,
) -> list[tuple[int, int, str, str]]:
    """Time-travel filter for a partition's (seq, epoch, path, kind) files.

    Exact cut: the target epoch's commit record names the partition's
    frontier data file — include files up to that SEQ (true commit order).
    This stays correct when epoch NUMBERS are not commit order: out-of-band
    admin epochs (repair 90M+, DML 200M+) followed by small stream epochs,
    and out-of-order backfills. A manifest ``frontier_seqs`` snapshot that
    exists but lacks the partition is authoritative emptiness: the
    partition had no committed files at that point in commit order, so the
    cut is empty (NOT the numeric fallback — that would leak files
    committed after the epoch into the time-travel read). Falls back to
    the numeric ``epoch <= as_of_epoch`` cut only when no seq evidence
    exists at all (pre-seq lakes, vacuumed manifests) — exact for in-order
    histories, the old behavior.

    ``seqs`` is an optional pre-read :func:`_as_of_seqs` snapshot so
    whole-lake scans parse the manifest once, not once per partition."""
    if as_of_epoch is None:
        return files
    if seqs is not None:
        return _cut_files_at_seq(files, seqs.get(part, -1))
    s = cl.commit_seq(lake_dir, as_of_epoch, part)
    if s is not None:
        return _cut_files_at_seq(files, s)
    return [f for f in files if f[1] <= as_of_epoch]


def _live_frontier(
    files: list[tuple[int, int, str, str]]
) -> list[tuple[int, int, str, str]]:
    """The files a read must consult: the newest base STATE file (it
    shadows everything before it) plus any trailing merge-on-read DELTAs —
    the single frontier-selection invariant every read surface shares."""
    base_i = 0
    for i, (_, _, _, kind) in enumerate(files):
        if kind == "state":
            base_i = i
    return files[base_i:]


def _resolve_files(files: list[tuple[int, int, str, str]]) -> pa.Table:
    """Resolve a (seq, epoch, path, kind) file list to its state table:
    newest base STATE file + any trailing merge-on-read DELTA files."""
    if not files:
        return STATE_SCHEMA.empty_table()
    live = _live_frontier(files)
    if len(live) == 1 and live[0][3] == "state":
        return pq.read_table(live[0][2])
    return _lww_resolve([pq.read_table(p) for _, _, p, _ in live])


def resolve_partition_state(
    lake_dir: str, part: int, as_of_epoch: int | None = None
) -> pa.Table:
    """A partition's full state table (tombstones included) resolved across
    its newest base STATE file and any trailing merge-on-read DELTA files.
    For a pure copy-on-write partition this is a single file read. Cost is
    O(base + deltas-since-compaction) — the merge-on-read read amplification
    that ``compact_partition`` bounds."""
    return _resolve_files(
        _files_as_of(lake_dir, part, cl.list_part_files(lake_dir, part), as_of_epoch)
    )


_resolve_partition_task = ray.remote(num_cpus=1)(resolve_partition_state)


def _publish(table: pa.Table, path: str) -> str:
    """Atomically publish ``table`` as the Parquet file ``path``: write a
    uniquely named tmp sibling, then rename it over ``path``, so readers
    never see a partial file. Writes through the module's ``pq`` name."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{uuid.uuid4().hex[:8]}"
    pq.write_table(table, tmp, **parquet_write_kwargs(table.schema))
    os.rename(tmp, path)
    return path


def compact_partition(lake_dir: str, part: int) -> dict[str, Any]:
    """Fold a partition's trailing merge-on-read deltas into a new base
    STATE file (the Hudi compaction analog). The new base takes the next
    seq and the max contributing epoch; it is covered by that epoch's
    existing commit record, so no new commit is written. The base's rename
    is the commit point: its stats sidecar and ``.compaction.json`` marker
    are published first, so a crash leaves either no base (the rerun folds
    again and overwrites both) or a complete one. Idempotent (re-running
    with no trailing deltas is a no-op). Older files stay on disk for time
    travel until ``vacuum``."""
    import json as _json

    files = cl.list_part_files(lake_dir, part)
    if not files or files[-1][3] == "state":
        return {"part": part, "compacted": 0, "n_rows": -1}
    live = _live_frontier(files)
    state = _lww_resolve([pq.read_table(p) for _, _, p, _ in live])
    seq = files[-1][0] + 1
    epoch = max(f[1] for f in live)
    out = cl.state_path(lake_dir, part, epoch, seq)
    _write_stats_sidecar(state, out)  # stats view freshness = last compaction
    n_deltas = sum(1 for f in live if f[3] == "delta")
    # compaction lineage marker: the base has no commit record of its own
    # (it rides the newest delta's), so record the resolved row count here —
    # freshness/verify_lake_counts read it back
    cl._atomic_write(out + ".compaction.json", _json.dumps({
        "n_rows": state.num_rows,
        "folded_deltas": n_deltas,
        "source_seqs": [f[0] for f in live],
    }, sort_keys=True).encode())
    _publish(state, out)
    return {"part": part, "compacted": n_deltas, "n_rows": state.num_rows}


_compact_partition_task = ray.remote(num_cpus=1)(compact_partition)


def compact_lake_states(
    lake_dir: str, min_deltas: int = 1, parallel: bool = True
) -> dict[str, int]:
    """Compact every partition with ≥ ``min_deltas`` trailing deltas; one
    independent Ray task per partition (embarrassingly parallel — each
    reads/writes only its own files on shared storage)."""
    todo = []
    if os.path.isdir(lake_dir):
        for name in sorted(os.listdir(lake_dir)):
            if not name.startswith("part="):
                continue
            part = int(name.split("=")[1])
            files = cl.list_part_files(lake_dir, part)
            trailing = 0
            for _, _, _, kind in reversed(files):
                if kind != "delta":
                    break
                trailing += 1
            if trailing >= min_deltas:
                todo.append(part)
    if not todo:
        return {"partitions": 0, "deltas_folded": 0}
    if parallel and ray.is_initialized():
        results = ray.get([_compact_partition_task.remote(lake_dir, p) for p in todo])
    else:
        results = [compact_partition(lake_dir, p) for p in todo]
    return {
        "partitions": sum(1 for r in results if r["compacted"]),
        "deltas_folded": sum(r["compacted"] for r in results),
    }


def _write_stats_sidecar(state: pa.Table, state_file: str) -> str:
    """Per-repo aggregate sidecar next to a state file (the incremental
    materialized view's unit of storage)."""
    live = _drop_tombstones(state)
    stats = (
        pa.table({"repo": live.column("repo"), "size_bytes": live.column("size_bytes")})
        .group_by("repo")
        .aggregate([("size_bytes", "sum"), ("size_bytes", "count")])
        .rename_columns(["repo", "total_bytes", "n_files"])
    )
    return _publish(stats, state_file.replace("state-", "stats-"))


class MergeApplier:
    """Merge applier for one epoch's hash partitions.

    :meth:`apply_unit` performs the exactly-once, last-writer-wins merge for
    a single ``(epoch, partition)``; :func:`apply_epoch` runs it in one Ray
    task per partition:

    1. idempotence gate: if the (epoch, part) commit exists, no-op (Ray task
       retries / resumed runs / duplicate segment delivery all hit this);
    2. per-key last-writer-wins over (prior state ∪ incoming), by LSN, with
       delete tombstones — late or replayed deliveries lose the per-key LSN
       race instead of being watermark-dropped, which stays correct under
       out-of-order backfill epochs (the W2/W3 analog); the applied-LSN
       watermark is recorded in the commit record as lineage/metrics only;
    3. schema unification with the prior state (column add / type widen);
    4. copy-on-write state file + atomic commit record with lineage.

    The reference repairs the same at-least-once duplicates with a daily
    BigQuery MERGE keyed on natural keys
    (``daily_qc_airflow/daily_dedupe_mainnet.py:28-35,65-81``).
    """

    def __init__(
        self,
        lake_dir: str,
        epoch: int,
        input_desc: dict[str, Any] | None = None,
        suppress_unchanged: bool = False,
        merge_mode: str = "cow",
        track_history: bool = False,
    ):
        self.lake_dir = lake_dir
        self.epoch = epoch
        self.input_desc = input_desc or {}
        # merge_mode="mor" (merge-on-read): write only the epoch's per-key
        # winners as a DELTA file — no prior read, no full-partition rewrite.
        # At 100 TB a sparse epoch touching 1% of a partition's keys pays 1%
        # of the copy-on-write write volume; readers resolve base ∪ deltas
        # (resolve_partition_state) and compact_partition bounds the read
        # amplification. The Hudi MOR / Delta log-file model.
        if merge_mode not in ("cow", "mor"):
            raise ValueError(f"merge_mode must be 'cow' or 'mor', got {merge_mode!r}")
        if merge_mode == "mor" and suppress_unchanged:
            # suppression compares against prior live content; MOR's whole
            # point is never reading the prior at write time
            raise ValueError("suppress_unchanged requires merge_mode='cow'")
        self.merge_mode = merge_mode
        # no-op update suppression: an epoch's winning upsert whose content
        # equals the prior LIVE row's content leaves the row untouched —
        # old applied_lsn kept, no copy-on-write rewrite for that key, and
        # the change feed stays quiet (Debezium's skip-unchanged analog).
        # Keyed on content only (the sha256-verified payload); assumes
        # in-order epoch application (the tail path), since what counts as
        # "unchanged" depends on apply order.
        self.suppress_unchanged = suppress_unchanged
        # track_history: archive every distinct delivered version of this
        # (epoch, partition) unit as an append-only `_history/` sidecar file
        # — the SCD2 source the reference's daily MERGE throws away. Requires
        # the version-preserving combiner upstream (apply_epoch wires it);
        # the file is gated by the same (epoch, part) commit record, so
        # replay/resume never duplicates history rows.
        self.track_history = track_history

    def apply_unit(
        self,
        part: int,
        epoch: int,
        group: pa.Table,
        mem: tuple[pa.Table | None, int | None, int] | None,
        input_desc: dict[str, Any] | None = None,
    ) -> tuple[dict[str, Any], pa.Table | None, int | None]:
        """Apply one (epoch, partition) unit. ``mem`` chains in-memory state
        across consecutive epochs: (prior_state|None, prior_seq, watermark);
        None reads the prior state from the lake. Returns (commit record, new
        state, new seq); state/seq are None when the unit was already
        committed or not rewritten."""
        lake = self.lake_dir
        if input_desc is None:
            input_desc = self.input_desc

        existing = cl.read_commit(lake, epoch, part)
        if existing is not None:  # idempotent replay of a committed unit
            return existing, None, None

        # multi-table fan-out (PerBlockRecords analog): decoded-event rows
        # ride the same shuffle; each named output table publishes to its
        # own per-(epoch, partition) file — the reference emits SIX typed
        # tables per block this way (``sonic_config/mod.rs:305-314``)
        from ..stages.decode import TABLE_COLUMN, TABLE_DECODED, split_tables

        decoded_map: dict[str, pa.Table] = {}
        if TABLE_COLUMN in group.column_names:
            group, decoded_map = split_tables(group)
        n_decoded, decoded_files = 0, {}
        published: list[str] = []  # every file this unit writes: bytes_written
        for tname, decoded in sorted(decoded_map.items()):
            if not decoded.num_rows:
                continue
            # exact dedupe within the unit (at-least-once delivery inside an
            # epoch) + canonical order, then atomic publish — the inline
            # analog of the reference's daily MERGE on the events table
            fam = sidecars.decoded(tname)
            decoded = fam.merge([decoded])
            decoded_files[tname] = _publish(  # the commit record gates it
                decoded, fam.epoch_path(lake, epoch, part)
            )
            published.append(decoded_files[tname])
            n_decoded += decoded.num_rows
        decoded_file = decoded_files.get(TABLE_DECODED)

        n_errors = 0
        if ERROR_COLUMN in group.column_names:
            err_mask = pc.is_valid(group.column(ERROR_COLUMN))
            errors = group.filter(err_mask)
            n_errors = errors.num_rows
            if n_errors:
                # divert malformed rows to the per-partition error channel
                drop = [c for c in (PART_COLUMN, W_COLUMN) if c in errors.column_names]
                published.append(_publish(
                    errors.drop_columns(drop),
                    sidecars.ERRORS.epoch_path(lake, epoch, part),
                ))
            group = group.filter(pc.invert(err_mask)).drop_columns([ERROR_COLUMN])

        watermark = mem[2] if mem is not None else cl.partition_watermark(lake, part)
        if W_COLUMN in group.column_names:
            # exact raw-delivery count: combiner-collapsed rows carry weights
            n_valid_events = pc.sum(
                pc.fill_null(group.column(W_COLUMN), 1)
            ).as_py() or 0
        else:
            n_valid_events = group.num_rows
        n_events = int(n_valid_events) + n_errors
        max_lsn = pc.max(group.column("lsn")).as_py()
        fresh = reduce_last_per_key(group)  # re-reduce across batch partials
        if PART_COLUMN in fresh.column_names:
            fresh = fresh.drop_columns([PART_COLUMN])
        if W_COLUMN in fresh.column_names:
            fresh = fresh.drop_columns([W_COLUMN])

        record: dict[str, Any] = {
            "epoch": epoch,
            "part": part,
            "n_events": n_events,
            "n_errors": n_errors,
            "n_decoded": n_decoded,
            "applied_lsn": max(watermark, max_lsn if max_lsn is not None else -1),
            "input": input_desc,
        }
        if decoded_file is not None:
            record["decoded_file"] = decoded_file
        if decoded_files:
            record["decoded_files"] = decoded_files  # table → file (lineage)

        if self.track_history:
            # history BEFORE suppression/no-op shortcuts: suppressed upserts
            # and state no-ops are still delivered versions, and the archive
            # must record them
            versions = _history_versions(group)
            if versions.num_rows:
                record["history_file"] = _publish(  # the commit record gates it
                    versions, sidecars.HISTORY.epoch_path(lake, epoch, part)
                )
                record["n_history_rows"] = versions.num_rows
                published.append(record["history_file"])

        def _commit() -> None:
            record["bytes_written"] = sum(os.path.getsize(f) for f in published)
            cl.write_commit(lake, record)

        def _noop_commit(prior_ref) -> dict[str, Any]:
            # nothing effective: commit references the prior state as-is
            prior_meta = cl.read_commit(lake, prior_ref[1], part) or {}
            record.update(
                n_rows=prior_meta.get("n_rows", -1),
                data_file=prior_ref[0],
                noop=True,
            )
            _commit()
            return record

        if self.merge_mode == "mor":
            if mem is not None:
                raise ValueError("in-memory state chaining requires merge_mode='cow'")
            frontier = cl.latest_file(lake, part)
            if fresh.num_rows == 0 and frontier is not None:
                return _noop_commit(frontier), None, None
            # delta = this epoch's per-key winners only (fresh is already
            # reduced); the race against prior rows is resolved at READ time
            delta = _project_state(fresh)
            delta = delta.take(pc.sort_indices(delta, sort_keys=STATE_SORT))
            seq = cl.next_seq(lake, part)
            # the commit record below is the commit point
            out = _publish(delta, cl.delta_path(lake, part, epoch, seq))
            published.append(out)
            record.update(
                n_rows=-1,  # resolved row count unknown by design (no base read)
                n_delta_rows=delta.num_rows,
                data_file=out,
                kind="delta",
                noop=False,
                schema={f.name: str(f.type) for f in delta.schema},
            )
            _note_if_evolved(lake, delta.schema)
            _commit()
            return record, None, None

        prior_ref = None
        if mem is not None:
            prior = mem[0] if mem[0] is not None else STATE_SCHEMA.empty_table()
            prior_seq = mem[1]
        else:
            # rebase onto the NEWEST committed state whatever its epoch number
            # — required for out-of-order backfill (LWW is order-independent).
            # latest_file + resolve (not the newest state file alone): a
            # mixed-mode lake may carry trailing merge-on-read deltas that a
            # copy-on-write epoch must fold in rather than silently shadow
            frontier = cl.latest_file(lake, part)
            prior_ref = (frontier[0], frontier[1], frontier[2]) if frontier else None
            if fresh.num_rows == 0 and prior_ref is not None:
                return _noop_commit(prior_ref), None, None
            prior = (
                resolve_partition_state(lake, part)
                if prior_ref is not None
                else STATE_SCHEMA.empty_table()
            )
            prior_seq = prior_ref[2] if prior_ref is not None else None

        if self.suppress_unchanged and fresh.num_rows and prior.num_rows:
            fresh, n_suppressed = _drop_unchanged_upserts(fresh, prior)
            record["n_suppressed"] = n_suppressed
            if fresh.num_rows == 0 and prior_ref is not None:
                # every winner was a no-op: the whole unit avoids the rewrite
                return _noop_commit(prior_ref), None, None

        # per-key LWW reduction over (prior ∪ incoming): correct under
        # duplicate delivery AND out-of-order backfill epochs, because
        # comparison is per key by LSN (tombstones carry deletes' LSNs).
        # Only TOUCHED prior keys enter the reduction — untouched state rows
        # bypass the group-by machinery entirely
        if prior.num_rows:
            touched = pc.is_in(key_strings(prior), value_set=key_strings(fresh))
            prior_touched = prior.filter(touched)
            prior_rest = prior.filter(pc.invert(touched))
        else:
            prior_touched, prior_rest = prior, prior
        prior_ev = _state_as_events(prior_touched)
        target = unify_schemas(prior_ev.schema, fresh.schema)
        all_ev = pa.concat_tables(
            [conform_table(prior_ev, target), conform_table(fresh, target)],
            promote_options="default",
        )
        winners = reduce_last_per_key(all_ev)
        if W_COLUMN in winners.column_names:
            winners = winners.drop_columns([W_COLUMN])
        merged = _project_state(winners)
        state_schema = unify_schemas(prior_rest.schema, merged.schema)
        state = pa.concat_tables(
            [conform_table(prior_rest, state_schema), conform_table(merged, state_schema)],
            promote_options="default",
        )
        # canonical order: scheduling nondeterminism must not leak into files
        state = state.take(pc.sort_indices(state, sort_keys=STATE_SORT))

        seq = (prior_seq + 1) if prior_seq is not None else 0
        out = _publish(state, cl.state_path(lake, part, epoch, seq))

        # incremental materialized view: per-repo aggregate sidecar for this
        # partition, maintained at merge time — consumers read ONLY the tiny
        # sidecars, never rescan the lake (the inline version of the
        # reference's row-counts QC query, row_counts.py:85-102)
        stats_file = _write_stats_sidecar(state, out)
        published += [out, stats_file]

        record.update(
            n_rows=state.num_rows,
            data_file=out,
            stats_file=stats_file,
            noop=False,
            schema={f.name: str(f.type) for f in state.schema},
        )
        _note_if_evolved(lake, state.schema)
        _commit()  # atomic commit point
        return record, state, seq

def _split_block_at_edges(block: pa.Table, edges) -> tuple:
    """Shared split kernel: one stable argsort on the (small-int) partition
    column, then zero-copy slices at the searchsorted ``edges`` boundaries
    (ascending, len = n_slices + 1)."""
    import numpy as np

    if block.num_rows == 0:
        empty = block.slice(0, 0)
        return tuple(empty for _ in range(len(edges) - 1))
    pcol = np.asarray(block.column(PART_COLUMN))
    order = np.argsort(pcol, kind="stable")
    sorted_tbl = block.take(pa.array(order))
    bounds = np.searchsorted(pcol[order], edges)
    return tuple(
        sorted_tbl.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
        for i in range(len(edges) - 1)
    )


def _split_block_for_exchange(block: pa.Table, num_partitions: int) -> tuple:
    """Map-side split of one transformed block into per-partition slices."""
    import numpy as np

    return _split_block_at_edges(block, np.arange(num_partitions + 1))


def _iter_block_refs(ds: ray.data.Dataset):
    for bundle in ds.iter_internal_ref_bundles():
        yield from bundle.block_refs


# one ContentDecoder per worker process and catalog (keyed by its specs):
# the decode stage's state lives in the map task's worker, not an actor pool
_DECODERS: dict = {}


@ray.remote(num_cpus=1)
def _map_and_split(src: Any, edges: list[int], on_error: str | None, combiner: Any, decode: Any):
    """The write path's map task, one per input: a segment path is read
    here, a Dataset block arrives as its table. Then ``validate_and_derive``
    → (decode) → combiner → ``add_partition_column`` (P = ``edges[-1]``),
    and the block is split at ``edges``: P partition slices, or G group
    slices for :func:`_regroup_group`. ``on_error=None`` / ``combiner=None``
    skip those stages (reconcile routes snapshot rows, not events);
    ``decode`` is ``(catalog, on_undecodable)`` or None."""
    tbl = pq.read_table(src) if isinstance(src, str) else BlockAccessor.for_block(src).to_arrow()
    if tbl.num_rows:
        if on_error is not None:
            tbl = validate_and_derive(tbl, on_error=on_error)
        if decode is not None:
            key = (tuple(sorted(decode[0].specs.items())), decode[1])
            if key not in _DECODERS:
                _DECODERS[key] = ContentDecoder(*decode)
            tbl = _DECODERS[key](tbl)
        if combiner is not None:
            tbl = combiner(tbl)
        tbl = add_partition_column(tbl, num_partitions=int(edges[-1]))
    out = _split_block_at_edges(tbl, edges)
    return out if len(out) > 1 else out[0]


def _map_split(src: Any, edges: list[int], map_args: tuple) -> list:
    """Submit one map task; its slice refs as a list (with num_returns=1 Ray
    returns the bare ref)."""
    refs = _map_and_split.options(num_returns=len(edges) - 1).remote(src, edges, *map_args)
    return refs if len(edges) > 2 else [refs]


def _regroup_group(lo: int, n_parts: int, *slices: pa.Table):
    """Second hop: gather one group's slices from every input (in input
    order), concat once, stable-argsort on the partition column — stable
    keeps input order within each partition, so the per-partition row
    order is bit-identical to the one-level exchange's concat — and emit
    one pre-concatenated slice per partition."""
    import numpy as np

    live = [s for s in slices if s.num_rows]
    if not live:
        empty = slices[0].slice(0, 0)
        return tuple(empty for _ in range(n_parts)) if n_parts > 1 else empty
    tbl = pa.concat_tables(live, promote_options="permissive")  # see _merge_partition
    pcol = np.asarray(tbl.column(PART_COLUMN))
    order = np.argsort(pcol, kind="stable")
    sorted_tbl = tbl.take(pa.array(order))
    bounds = np.searchsorted(pcol[order], np.arange(lo, lo + n_parts + 1))
    out = tuple(
        sorted_tbl.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
        for i in range(n_parts)
    )
    return out if n_parts > 1 else out[0]


_regroup_task = ray.remote(num_cpus=1)(_regroup_group)

# inputs × partitions above which the exchange routes the remaining inputs
# two-level. 250k refs ≈ tens of MB of driver-side ref bookkeeping — far
# above any single-epoch shape this engine benches (≤10k) and far below the
# 10^8 a 10^5-segment × 10^3-partition cluster epoch would hit.
TWO_LEVEL_AUTO_REFS = 250_000


def _exchange_two_level(srcs: list, num_partitions: int, map_args: tuple) -> list[list]:
    """Two-hop exchange for large inputs×P: each map task splits its input
    into G = ⌈P/group_size⌉ group slices (group_size ≈ √P), one regroup task
    per group gathers its column of refs and re-slices per partition.
    Driver ref count drops from inputs×P to inputs×G + P, at the cost of
    each event's bytes crossing the object store twice — the classic
    two-level shuffle trade. Returns one pseudo-block row whose entry p is
    partition p's single pre-concatenated slice ref."""
    import math

    group_size = max(int(math.ceil(math.sqrt(num_partitions))), 2)
    num_groups = -(-num_partitions // group_size)
    if num_groups <= 1:
        # a single group is the one-level exchange with an extra hop — and
        # num_returns=1 would hand _regroup_group the whole split TUPLE
        return [_map_split(s, list(range(num_partitions + 1)), map_args) for s in srcs]
    edges = [min(g * group_size, num_partitions) for g in range(num_groups + 1)]
    rows = [_map_split(s, edges, map_args) for s in srcs]
    part_refs: list = [None] * num_partitions
    for g in range(num_groups):
        lo = g * group_size
        n = min(group_size, num_partitions - lo)
        refs = _regroup_task.options(num_returns=n).remote(
            lo, n, *[row[g] for row in rows]
        )
        part_refs[lo : lo + n] = [refs] if n == 1 else refs
    return [part_refs]


def _exchange(inputs: Iterable[Any], num_partitions: int, map_args: tuple) -> list[list]:
    """Map and hash-exchange ``inputs`` (segment paths or block refs): one
    :func:`_map_and_split` task per input, with ``map_args`` = (on_error,
    combiner, decode). Returns rows of per-partition slice refs, where
    ``[row[p] for row in result]`` is partition p's input in input order.

    Plain tasks, not Ray Data: Ray Data expresses this static P-way routing
    only as a sort-based shuffle (0.47 scaling efficiency 2→8 CPUs here),
    and a per-epoch ``map_batches`` plan costs ~160 ms before the first row
    moves. Ray runs at most one ``num_cpus=1`` task per CPU and the merge
    barrier keeps every slice resident anyway, so no in-flight window.

    Inputs split one-level until inputs×P would exceed
    :data:`TWO_LEVEL_AUTO_REFS`; the REMAINING inputs go through
    :func:`_exchange_two_level`, so the driver's ref count stays bounded at
    the 10^10-event design point. Per-partition row order is input order
    at either depth."""
    head_blocks = max(1, TWO_LEVEL_AUTO_REFS // num_partitions)
    edges = list(range(num_partitions + 1))
    rows: list = []
    tail: list = []
    for src in inputs:
        if num_partitions > 1 and len(rows) >= head_blocks:
            tail.append(src)
        else:
            rows.append(_map_split(src, edges, map_args))
    return rows + _exchange_two_level(tail, num_partitions, map_args) if tail else rows


@ray.remote(num_cpus=1)
def _merge_partition(
    applier: MergeApplier, part: int, *slices: pa.Table
) -> dict[str, Any]:
    """One partition's merge task: gather its exchange slices, apply."""
    live = [s for s in slices if s.num_rows]
    if not live:
        return {}
    # permissive: slices of different segments may differ by a column add
    # or an integer widening (schema evolution inside one epoch)
    group = pa.concat_tables(live, promote_options="permissive")
    rec, _, _ = applier.apply_unit(part, applier.epoch, group.combine_chunks(), mem=None)
    return rec


def apply_epoch(
    src: list[str] | ray.data.Dataset,
    lake_dir: str,
    epoch: int,
    num_partitions: int = 32,
    input_desc: dict[str, Any] | None = None,
    on_error: str = "abort",
    decode_catalog: Any | None = None,
    on_undecodable: str = "abort",
    suppress_unchanged: bool = False,
    merge_mode: str = "cow",
    track_history: bool = False,
) -> list[dict[str, Any]]:
    """Apply one epoch of change events; returns per-partition commit records.

    ``src`` is a list of segment paths, each read inside its own map task
    (:func:`_map_and_split`), or a ``ray.data.Dataset``, whose blocks stream
    out unmapped and get one map task each; one merge task per partition.

    Idempotent: committed (epoch, partition) units are skipped inside the
    appliers, so re-running after a crash resumes without duplicate or lost
    applies.

    With a ``decode_catalog`` (:class:`..stages.decode.DecodeCatalog`) the
    SAME pass also emits the decoded-events table (multi-table fan-out,
    ``sonic_config/mod.rs:305-314,501-574``): one read, one shuffle, two
    typed outputs per (epoch, partition) unit, both gated by the unit's
    commit record.
    """
    import time

    applier = MergeApplier(
        lake_dir, epoch, input_desc,
        suppress_unchanged=suppress_unchanged, merge_mode=merge_mode,
        track_history=track_history,
    )
    os.makedirs(lake_dir, exist_ok=True)
    _backfill_evolution_marker(lake_dir)  # no-op after the first manifest
    # track_history swaps the last-writer-wins combiner for the version-
    # preserving one: distinct versions (not just per-key winners) must reach
    # the merge so the `_history/` sidecar archives the full change log
    combiner = reduce_distinct_versions if track_history else reduce_last_per_key
    decode = (decode_catalog, on_undecodable) if decode_catalog is not None else None
    inputs = _iter_block_refs(src) if isinstance(src, ray.data.Dataset) else src

    t0 = time.perf_counter()
    per_block_refs = _exchange(inputs, num_partitions, (on_error, combiner, decode))
    out_refs = [
        _merge_partition.remote(applier, p, *[refs[p] for refs in per_block_refs])
        for p in range(num_partitions)
    ]
    records = [r for r in ray.get(out_refs) if r]
    summary = {
        "epoch": epoch,
        "parts": sorted(int(r["part"]) for r in records),
        "applied_lsn_max": max((int(r["applied_lsn"]) for r in records), default=-1),
        "n_events": sum(int(r["n_events"]) for r in records),
        "n_errors": sum(int(r.get("n_errors", 0)) for r in records),
        "n_rows": sum(max(int(r["n_rows"]), 0) for r in records),
        "bytes_written": sum(int(r.get("bytes_written", 0)) for r in records),
        "elapsed_sec": round(time.perf_counter() - t0, 3),
        "input": input_desc or {},
        "num_partitions": num_partitions,
    }
    cl.write_manifest(
        lake_dir, epoch, summary, frontier_updates=_frontier_updates(records)
    )
    return records


def _frontier_updates(records: list[dict[str, Any]]) -> dict[int, int]:
    """{part: seq} frontier advances read off an epoch's commit records —
    write_manifest folds them into the rolling cursor instead of re-listing
    every partition (O(touched), not O(lake))."""
    out: dict[int, int] = {}
    for r in records:
        s = cl.seq_of_data_file(r.get("data_file"))
        if s is not None:
            p = int(r["part"])
            if s > out.get(p, -1):
                out[p] = s
    return out


def _run_ingest_impl(
    segment_files: Iterable[str],
    lake_dir: str,
    num_partitions: int = 32,
    segments_per_epoch: int = 8,
    on_error: str = "abort",
    finalize: bool = True,
    decode_catalog: Any | None = None,
    on_undecodable: str = "abort",
    suppress_unchanged: bool = False,
    merge_mode: str = "cow",
    on_epoch: Any | None = None,
    read_fallbacks: list[str] | None = None,
    track_history: bool = False,
) -> dict[str, Any]:
    """Ingest a segmented change stream epoch by epoch, resumably.

    ``track_history=True`` additionally archives every distinct delivered
    version into per-(epoch, partition) ``_history/`` sidecar files
    (append-only, commit-gated — see :class:`MergeApplier`), read back via
    :mod:`sonic_etl_ray.pipelines.history` (``read_history`` /
    ``scd2_view``).

    ``read_fallbacks`` lists alternate segment roots (replica mirrors of
    the same stream). When an epoch fails reading from the primary paths,
    the SAME epoch is retried with its segment basenames re-rooted onto
    each fallback in order — the Ray-side analog of the reference's
    primary/fallback provider failover, which health-checks and rebuilds
    the RPC provider on range failure (``sonic_config/mod.rs:174-242``,
    ``main.rs:259-275``). Safe mid-epoch: apply is idempotent per
    (epoch, partition) commit unit, so a retry from a mirror re-applies
    only the units the failed attempt didn't commit.

    ``on_epoch`` (optional zero-arg callable) runs before EVERY epoch apply
    — the exclusive-writer path uses it to heartbeat + fence-check the
    writer lease between epochs, so a fenced writer aborts before it can
    interleave a commit with the new lease holder.

    ``merge_mode="mor"`` switches the merge to merge-on-read: each epoch
    writes only its per-key winners as a partition DELTA file (no prior
    read, no full rewrite — the sparse-update write-amplification fix at
    100 TB); readers resolve, ``compact_lake_states`` folds. Excludes
    ``suppress_unchanged``.

    ``suppress_unchanged`` turns on no-op update suppression in the merge
    (see :class:`MergeApplier`).

    Segments (sorted by name = ascending LSN spans, the coordinator's
    range-chunk analog) are grouped into epochs by
    :func:`~..sources.planner.plan_epochs` — the same planner the Tailer
    uses: stable ``segment_NNNNNN // segments_per_epoch`` epochs, epochs
    with a manifest skipped (the resume fast-forward, ``main.rs:188-241``
    ``pick_up_from_previous_range``), late segments of a manifested epoch
    applied under a repair epoch (:func:`repair_epoch_id`), and
    ``finalize=False`` deferring a trailing partial epoch.
    """
    plan = plan_epochs(segment_files, LakeCoverage(lake_dir), segments_per_epoch, finalize)
    failovers = 0

    def _apply_from(epoch: int, efiles: list[str], desc: dict[str, Any]) -> None:
        apply_epoch(
            efiles,
            lake_dir,
            epoch,
            num_partitions=num_partitions,
            on_error=on_error,
            input_desc=desc,
            decode_catalog=decode_catalog,
            on_undecodable=on_undecodable,
            suppress_unchanged=suppress_unchanged,
            merge_mode=merge_mode,
            track_history=track_history,
        )

    def _apply(unit: EpochUnit) -> None:
        nonlocal failovers
        if on_epoch is not None:
            on_epoch()
        desc = unit.input_desc()
        try:
            _apply_from(unit.epoch, unit.files, desc)
            return
        except (cl.LeaseHeld, KeyboardInterrupt):
            raise  # fencing/shutdown are not source failures
        except Exception as primary_err:
            if not read_fallbacks:
                raise
            log_err = primary_err
            for root in read_fallbacks:
                alt = [os.path.join(root, os.path.basename(f)) for f in unit.files]
                if not all(os.path.exists(p) for p in alt):
                    continue
                log.warning(
                    "epoch %d failed on primary (%s); failing over to %s",
                    unit.epoch, primary_err, root,
                )
                try:
                    _apply_from(unit.epoch, alt, {**desc, "failover_root": root})
                    failovers += 1
                    return
                except Exception as e:  # try the next mirror
                    log_err = e
            raise log_err

    for unit in plan.units:
        _apply(unit)
    repaired = sum(1 for u in plan.units if u.repair_for is not None)
    return {
        "epochs_applied": len(plan.units) - repaired,
        "epochs_skipped": len(plan.skipped),
        "epochs_repaired": repaired,
        "segments_deferred": plan.deferred,
        "epochs_total": plan.total,
        **({"epochs_failed_over": failovers} if failovers else {}),
    }


def run_ingest(
    segment_files: Iterable[str],
    lake_dir: str,
    *args: Any,
    exclusive: bool = False,
    lease_owner: str | None = None,
    lease_ttl_s: float = 60.0,
    validate_inputs: bool = False,
    **kwargs: Any,
) -> dict[str, Any]:
    """Public ingest entry point (see :func:`_run_ingest_impl` for the full
    semantics). ``exclusive=True`` additionally takes the lake's
    single-writer lease for the duration of the run — the commit log's
    exactly-once reasoning assumes one writer per lake, and the lease makes
    a second concurrent writer fail fast (:class:`~sonic_etl_ray.state.commitlog.LeaseHeld`)
    instead of interleaving epochs. Stale leases (dead holder, no heartbeat
    for the TTL) are taken over automatically. While held, the lease is
    HEARTBEAT + FENCE-CHECKED before every epoch apply (via ``on_epoch``),
    so a run longer than the TTL stays live, and a writer that somehow lost
    the lease (e.g. the process was paused past the TTL and taken over)
    aborts with :class:`LeaseHeld` before committing another epoch.
    ``lease_ttl_s`` sizes the TTL; it only needs to exceed the longest
    single epoch, not the whole run.

    ``validate_inputs=True`` footer-checks every segment first: corrupt /
    truncated files are QUARANTINED (recorded under ``_QUARANTINE/``, never
    silently dropped) and the run proceeds on the readable rest. Stable
    epoch numbering makes the repair replayable: re-running with the fixed
    file applies it to the epoch it always belonged to (or a repair epoch
    if that epoch already closed)."""
    quarantined: list[dict] = []
    if validate_inputs:
        good, quarantined = validate_segments(sorted(segment_files))
        if quarantined:
            _write_quarantine(lake_dir, quarantined)
        segment_files = good

    def _finish(stats: dict[str, Any]) -> dict[str, Any]:
        stats["segments_quarantined"] = len(quarantined)
        return stats

    if not exclusive:
        return _finish(_run_ingest_impl(segment_files, lake_dir, *args, **kwargs))
    token = cl.acquire_writer_lease(
        lake_dir, owner=lease_owner or f"run_ingest:{os.getpid()}", ttl_s=lease_ttl_s
    )
    try:
        return _finish(
            _run_ingest_impl(
                segment_files,
                lake_dir,
                *args,
                on_epoch=lambda: cl.refresh_writer_lease(lake_dir, token),
                **kwargs,
            )
        )
    finally:
        cl.release_writer_lease(lake_dir, token)


def _write_quarantine(lake_dir: str, entries: list[dict]) -> str:
    """Persist quarantine records idempotently: the file name is a content
    hash of the quarantined paths, so a re-run quarantining the same files
    rewrites the same record instead of accumulating duplicates."""
    import hashlib
    import json

    qdir = os.path.join(lake_dir, "_QUARANTINE")
    os.makedirs(qdir, exist_ok=True)
    tag = hashlib.sha256(
        "\n".join(sorted(e["file"] for e in entries)).encode()
    ).hexdigest()[:12]
    path = os.path.join(qdir, f"q-{tag}.jsonl")
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        for e in entries:
            f.write(json.dumps(e) + "\n")
    os.replace(tmp, path)
    return path


def read_quarantine(lake_dir: str) -> list[dict]:
    """All quarantine records for a lake (ops surface for the repair loop:
    fix or re-upload the files, re-run ingest, delete the record)."""
    import glob as _glob
    import json

    out: list[dict] = []
    for p in sorted(_glob.glob(os.path.join(lake_dir, "_QUARANTINE", "q-*.jsonl"))):
        with open(p) as f:
            out.extend(json.loads(line) for line in f if line.strip())
    return out


@contextmanager
def writer_lease(lake_dir: str, owner: str, ttl_s: float = 60.0):
    """Context-manager form of the single-writer lease for callers that
    compose their own apply loops (Tailer drivers, replication jobs).

    The caller owns the heartbeat: call
    ``commitlog.refresh_writer_lease(lake_dir, token)`` between applies
    (it also FENCES — raising :class:`LeaseHeld` if the lease was taken
    over), or size ``ttl_s`` above the longest gap between applies.
    ``run_ingest(exclusive=True)`` does this automatically per epoch."""
    token = cl.acquire_writer_lease(lake_dir, owner, ttl_s=ttl_s)
    try:
        yield token
    finally:
        cl.release_writer_lease(lake_dir, token)


def _lake_parts(lake_dir: str) -> list[int]:
    if not os.path.isdir(lake_dir):
        return []
    return sorted(
        int(name.split("=")[1])
        for name in os.listdir(lake_dir)
        if name.startswith("part=")
    )


def lake_read_plan(
    lake_dir: str, as_of_epoch: int | None = None, parts: list[int] | None = None
) -> tuple[list[str], list[int]]:
    """Split the lake into (clean state files, dirty partition ids): a clean
    partition's frontier is a single base STATE file (zero-copy parquet scan
    with pushdown); a dirty partition has trailing merge-on-read deltas and
    needs an LWW resolution task. ``as_of_epoch`` time-travels both.
    ``parts`` restricts the plan to a partition subset (the secondary value
    index's pruning hook, :mod:`.colindex`)."""
    clean, dirty = [], []
    seqs = _as_of_seqs(lake_dir, as_of_epoch)
    want = None if parts is None else set(parts)
    for part in _lake_parts(lake_dir):
        if want is not None and part not in want:
            continue
        files = _files_as_of(
            lake_dir, part, cl.list_part_files(lake_dir, part), as_of_epoch, seqs
        )
        if not files:
            continue
        if files[-1][3] == "state":
            clean.append(files[-1][2])
        else:
            dirty.append(part)
    return clean, dirty


def lake_state_files(lake_dir: str, as_of_epoch: int | None = None) -> list[str]:
    """Latest committed base state file per partition (partitions whose
    frontier is a merge-on-read delta are NOT listed — use lake_read_plan).

    ``as_of_epoch`` reads the lake as of the END of that epoch (time travel
    over the copy-on-write history; only works for epochs not yet vacuumed).
    The cut is by commit SEQ when the epoch's commit record survives (exact
    even around out-of-band admin epochs), numeric-epoch otherwise.
    """
    out = []
    seqs = _as_of_seqs(lake_dir, as_of_epoch)
    for part in _lake_parts(lake_dir):
        files = _files_as_of(
            lake_dir, part, cl.list_part_files(lake_dir, part), as_of_epoch, seqs
        )
        states = [f for f in files if f[3] == "state"]
        if states:
            out.append(states[-1][2])
    return out


def lineage(lake_dir: str) -> pa.Table:
    """All commit records as one table — the per-partition lineage log the
    north rule requires (input offsets, counts, applied LSN, epoch)."""
    import glob as _glob
    import json as _json

    recs: list[dict[str, Any]] = []
    cp = cl.read_checkpoint(lake_dir)
    if cp is not None:  # compacted history first, then live files
        recs.extend(cp.get("records", {}).values())
    for p in sorted(_glob.glob(os.path.join(lake_dir, "_commits", "epoch=*", "part=*.json"))):
        with open(p) as f:
            recs.append(_json.loads(f.read()))
    recs.sort(key=lambda r: (int(r["epoch"]), int(r["part"])))
    rows = []
    for r in recs:
        rows.append(
            {
                "epoch": int(r["epoch"]),
                "part": int(r["part"]),
                "applied_lsn": int(r["applied_lsn"]),
                "n_events": int(r.get("n_events", 0)),
                "n_errors": int(r.get("n_errors", 0)),
                "n_rows": int(r.get("n_rows", -1)),
                "noop": bool(r.get("noop", False)),
                "segments": ",".join(r.get("input", {}).get("segments", [])),
            }
        )
    if not rows:
        return pa.table(
            {k: pa.array([], t) for k, t in [
                ("epoch", pa.int64()), ("part", pa.int64()), ("applied_lsn", pa.int64()),
                ("n_events", pa.int64()), ("n_errors", pa.int64()), ("n_rows", pa.int64()),
                ("noop", pa.bool_()), ("segments", pa.string()),
            ]}
        )
    return pa.Table.from_pylist(rows)


def committed_frontier(lake_dir: str) -> int | None:
    """Newest FULLY-applied epoch (one with a driver manifest) — the
    cross-partition consistent read point. Per-partition commits of a later
    in-flight epoch are invisible behind this frontier."""
    es = cl.committed_epochs(lake_dir)
    return es[-1] if es else None


def lake_unified_schema(
    lake_dir: str, as_of_epoch: int | None = None
) -> pa.Schema | None:
    """Union of every frontier file's schema (newest base + trailing
    merge-on-read deltas, per partition) — the lake's full logical schema
    after column-add evolution. Footer-only reads (no data pages), O(live
    files) driver-side like the listing itself; ``None`` for an empty lake.

    Filtered reads need this: a predicate on an evolved column must see the
    column as NULL in partitions whose state files predate it, not raise
    ArrowInvalid in the parquet fragment scan."""
    return _lake_frontier_schemas(lake_dir, as_of_epoch)[0]


def _lake_frontier_schemas(
    lake_dir: str, as_of_epoch: int | None = None
) -> tuple[pa.Schema | None, bool]:
    """(unified schema, homogeneous) over the lake's frontier files.
    ``homogeneous`` is True when every file already carries the unified
    schema — the common un-evolved case, where scans need no schema
    override at all (see :func:`read_lake`)."""
    schema: pa.Schema | None = None
    homogeneous = True
    seqs = _as_of_seqs(lake_dir, as_of_epoch)
    for part in _lake_parts(lake_dir):
        files = _files_as_of(
            lake_dir, part, cl.list_part_files(lake_dir, part), as_of_epoch, seqs
        )
        if not files:
            continue
        for _, _, path, _ in _live_frontier(files):
            s = pq.read_schema(path)
            if schema is None:
                schema = s
            elif not s.equals(schema, check_metadata=False):
                homogeneous = False
                schema = unify_schemas(schema, s)
    return schema, homogeneous


def read_lake(
    lake_dir: str,
    columns: list[str] | None = None,
    filter: Any | None = None,
    as_of_epoch: int | None = None,
    consistent: bool = False,
    parts: list[int] | None = None,
) -> ray.data.Dataset:
    """The lake's current state as a Dataset (one block per partition file).

    ``parts`` restricts the scan to a partition subset — callers must know
    the subset is sufficient for their predicate (the secondary value index
    in :mod:`.colindex` computes such subsets; keys never cross partitions,
    so a partition subset is always key-complete for the keys it holds).

    ``columns`` and ``filter`` (a pyarrow dataset expression, e.g.
    ``pc.field("repo") == "org0/repo0"``) push down to the Parquet read so
    only the needed columns/row groups leave storage.

    Isolation: the default read takes each partition's newest committed
    frontier independently — per-KEY consistency (keys never cross
    partitions) but a concurrent apply can leave different partitions at
    different epochs within one scan. ``consistent=True`` pins the scan to
    :func:`committed_frontier` (the newest fully-manifested epoch), giving a
    cross-partition snapshot-isolated view while a writer is mid-epoch;
    ``as_of_epoch`` pins any older frontier (time travel).

    Merge-on-read partitions (frontier is a delta) are resolved by one Ray
    task each — base ∪ deltas LWW — and unioned with the zero-copy scan of
    the clean partitions; filter/columns apply to the resolved blocks too."""
    if consistent and as_of_epoch is None:
        as_of_epoch = committed_frontier(lake_dir)
        if as_of_epoch is None:
            return ray.data.from_arrow(_drop_tombstones(STATE_SCHEMA.empty_table()))
    clean_files, dirty_parts = lake_read_plan(
        lake_dir, as_of_epoch=as_of_epoch, parts=parts
    )
    if not clean_files and not dirty_parts:
        return ray.data.from_arrow(_drop_tombstones(STATE_SCHEMA.empty_table()))
    # tombstones (deleted keys) are physical rows but not part of the logical
    # table: push the filter into the parquet scan
    tombstone_filter = pc.field("deleted") == False  # noqa: E712 (pyarrow expr)
    if filter is not None:
        tombstone_filter = tombstone_filter & filter
    # a predicate may reference an evolved column some partitions' files
    # don't carry yet: give the scan the lake's unified schema so those
    # fragments read the column as null instead of raising ArrowInvalid.
    # Gated twice for the common case: the sticky evolution marker (written
    # by the merge the moment it commits a non-core schema) skips even the
    # footer walk on never-evolved lakes, and a walk that finds homogeneous
    # frontiers skips the override (the plain scan is already exact).
    # Marker ABSENCE is only authoritative for lakes the marker-aware era
    # wrote (the rolling frontier cursor proves that); a pre-marker lake
    # walks unconditionally, and the walk backfills the marker it finds.
    # (A never-evolved pre-marker ARCHIVE lake — one that is never written
    # again — re-walks per filtered read: reads must not write the lake,
    # which may sit on read-only storage. Any single post-upgrade apply
    # ends that era.)
    unified = None
    if (filter is not None or columns is not None) and (
        cl.schema_ever_evolved(lake_dir) or not cl.has_rolling_frontier(lake_dir)
    ):
        unified, homogeneous = _lake_frontier_schemas(lake_dir, as_of_epoch)
        if homogeneous:
            unified = None
        else:
            try:  # best-effort cache: reads must work on read-only storage
                cl.note_schema_evolution(lake_dir)
            except OSError:
                pass

    parts_ds = None
    if dirty_parts:
        refs = [
            _resolved_live_block_task.remote(lake_dir, p, columns, filter, as_of_epoch, unified)
            for p in dirty_parts
        ]
        parts_ds = ray.data.from_arrow_refs(refs)
    # partitioning=None: the lake's part=N dirs are PHYSICAL layout, not a
    # logical column — default hive inference would leak a 'part' column.
    # With an explicit column list the selection already excludes it, and
    # ray 2.49's parquet reader raises UnboundLocalError on
    # partitioning=None + columns, so only pass it on the full-schema path.
    if not clean_files:
        return parts_ds
    kwargs: dict[str, Any] = {"filter": tombstone_filter}
    if unified is not None:
        # schema override + columns kwarg can't combine (ray 2.49 checks
        # output blocks against the FULL provided schema and the projected
        # blocks mismatch it) — read with the override, project after. A
        # SUBSET schema both projects and null-extends evolved columns a
        # fragment doesn't carry, so a columns-only read stays pruned; with
        # a user filter the un-projected evolved columns may be referenced,
        # so that path reads the full unified schema.
        if columns is not None and filter is None:
            keep = set(columns) | {"deleted"}
            sub = pa.schema([f for f in unified if f.name in keep])
            ds = ray.data.read_parquet(
                clean_files, partitioning=None, schema=sub, **kwargs
            )
            ds = ds.select_columns(columns)
        else:
            ds = ray.data.read_parquet(
                clean_files, partitioning=None, schema=unified, **kwargs
            )
            ds = ds.select_columns(columns) if columns is not None else ds.drop_columns(["deleted"])
    elif columns is not None:
        kwargs["columns"] = columns
        ds = ray.data.read_parquet(clean_files, **kwargs)
    else:
        ds = ray.data.read_parquet(clean_files, partitioning=None, **kwargs)
        ds = ds.drop_columns(["deleted"])
    return ds.union(parts_ds) if parts_ds is not None else ds


def _resolved_live_block(
    lake_dir: str,
    part: int,
    columns: list[str] | None,
    filter: Any | None,
    as_of_epoch: int | None = None,
    unified: pa.Schema | None = None,
) -> pa.Table:
    """Resolve one merge-on-read partition to its LIVE rows (tombstones and
    the 'deleted' flag dropped), with column/filter applied post-resolve —
    the per-partition read task behind read_lake's dirty path. ``unified``
    (the lake-wide schema, when a filter is pushed) null-extends evolved
    columns this partition's files don't carry so the filter can evaluate."""
    tbl = _drop_tombstones(
        resolve_partition_state(lake_dir, part, as_of_epoch=as_of_epoch)
    )
    if unified is not None:
        target = unify_schemas(
            tbl.schema, pa.schema([f for f in unified if f.name != "deleted"])
        )
        tbl = conform_table(tbl, target)
    if filter is not None:
        import pyarrow.dataset as pads

        tbl = pads.dataset(tbl).to_table(filter=filter)
    if columns is not None:
        tbl = tbl.select(columns)
    return tbl


_resolved_live_block_task = ray.remote(num_cpus=1)(_resolved_live_block)


def lake_num_partitions(lake_dir: str) -> int:
    """The lake's hash-partition count, from the newest epoch manifest
    (recorded at apply time); falls back to counting part dirs."""
    for e in reversed(cl.committed_epochs(lake_dir)):
        m = cl.read_manifest(lake_dir, e) or {}
        if "num_partitions" in m:
            return int(m["num_partitions"])
    parts = _lake_parts(lake_dir)
    return (max(parts) + 1) if parts else 0


def _lookup_partition(
    lake_dir: str, part: int, repos: list[str], keyset: list[str],
    as_of_epoch: int | None,
    seqs: dict[int, int] | None = None,
) -> pa.Table:
    """Point-read one partition: a clean frontier is a single Parquet read
    with a repo filter (state files are (repo, path)-sorted, so Parquet
    row-group stats prune within the file too); a merge-on-read frontier
    resolves base ∪ deltas with the same repo filter pushed into every file
    read (safe: LWW is per key, and the filter keeps ALL rows of the looked-
    up keys). Exact (repo, path) match + tombstone drop happen in-task.
    ``seqs`` is the caller's pre-read manifest snapshot (one parse on the
    driver, not one per touched partition)."""
    import pyarrow.dataset as pads

    files = _files_as_of(
        lake_dir, part, cl.list_part_files(lake_dir, part), as_of_epoch, seqs
    )
    if not files:
        return _drop_tombstones(STATE_SCHEMA.empty_table())
    live = _live_frontier(files)
    repo_filter = pc.field("repo").isin(repos)
    tabs = [
        pads.dataset(p, format="parquet").to_table(filter=repo_filter)
        for _, _, p, _ in live
    ]
    tbl = _lww_resolve(tabs)
    exact = pc.is_in(key_strings(tbl), value_set=pa.array(keyset, pa.string()))
    return _drop_tombstones(tbl.filter(exact))


_lookup_partition_task = ray.remote(num_cpus=1)(_lookup_partition)


def lookup_keys(
    lake_dir: str,
    keys: list[tuple[str, str]],
    num_partitions: int | None = None,
    as_of_epoch: int | None = None,
) -> pa.Table:
    """Point lookup of live rows by exact (repo, path) keys — data skipping
    via the lake's OWN partitioning: each key hashes to exactly one
    partition (stages/keys.py, the same SipHash the merge shuffle uses), so
    a k-key lookup touches ≤ k of P partitions and never scans the lake.
    One Ray task per touched partition; within a partition, Parquet
    row-group stats on the sorted ``repo`` column prune further. The
    O(1/P + row-group) point-read path a 100 TB lake needs."""
    from ..stages.keys import KEY_SEP, stable_hash64

    if not keys:
        return _drop_tombstones(STATE_SCHEMA.empty_table())
    P = num_partitions or lake_num_partitions(lake_dir)
    if P <= 0:
        return _drop_tombstones(STATE_SCHEMA.empty_table())
    keytab = pa.table(
        {"repo": [k[0] for k in keys], "path": [k[1] for k in keys]}
    )
    import numpy as np

    parts = stable_hash64(key_strings(keytab)) % np.uint64(P)
    by_part: dict[int, list[int]] = {}
    for i, p in enumerate(parts):
        by_part.setdefault(int(p), []).append(i)
    seqs = _as_of_seqs(lake_dir, as_of_epoch)  # one manifest parse, shared
    refs = []
    for part, idxs in sorted(by_part.items()):
        repos = sorted({keys[i][0] for i in idxs})
        keyset = sorted({keys[i][0] + KEY_SEP + keys[i][1] for i in idxs})
        refs.append(
            _lookup_partition_task.remote(lake_dir, part, repos, keyset, as_of_epoch, seqs)
        )
    tabs = [t for t in ray.get(refs) if t.num_rows]
    if not tabs:
        return _drop_tombstones(STATE_SCHEMA.empty_table())
    target = tabs[0].schema
    for t in tabs[1:]:
        target = unify_schemas(target, t.schema)
    out = pa.concat_tables([conform_table(t, target) for t in tabs], promote_options="default")
    return out.take(pc.sort_indices(out, sort_keys=STATE_SORT))


def lake_final_table(
    lake_dir: str,
    columns: list[str] | None = None,
    as_of_epoch: int | None = None,
) -> pa.Table:
    """Full lake state as one canonically sorted Arrow table (tests/oracle).
    Tombstones are physical rows; the logical table excludes them.
    Merge-on-read partitions are resolved inline (driver-side — this is the
    small-result/test surface; the streaming surface is read_lake)."""
    tables = [
        resolve_partition_state(lake_dir, part, as_of_epoch=as_of_epoch)
        for part in _lake_parts(lake_dir)
    ]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        return _drop_tombstones(STATE_SCHEMA.empty_table())
    target = tables[0].schema
    for t in tables[1:]:
        target = unify_schemas(target, t.schema)
    tbl = pa.concat_tables(
        [conform_table(t, target) for t in tables], promote_options="default"
    )
    tbl = _drop_tombstones(tbl)
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=STATE_SORT))
    if columns is not None:
        tbl = tbl.select(columns)  # after the sort: columns may omit sort keys
    return tbl


def _drop_tombstones(tbl: pa.Table) -> pa.Table:
    if "deleted" in tbl.column_names:
        tbl = tbl.filter(pc.invert(pc.fill_null(tbl.column("deleted"), False)))
        tbl = tbl.drop_columns(["deleted"])
    return tbl


# ------------------------------------------------------------ change feed

CHANGE_FEED_TYPES = ("insert", "update", "delete")


def _feed_schema(extra: list[pa.Field] | None = None) -> pa.Schema:
    """Feed schema = change_type + state payload (+ any EVOLVED columns the
    contributing states carry — added columns must flow to feed consumers,
    e.g. lake→lake replication, or evolution is silently lost downstream)."""
    fields = [pa.field("change_type", pa.string(), nullable=False)]
    for f in STATE_SCHEMA:
        if f.name == "applied_lsn":
            fields.append(pa.field("lsn", pa.int64()))
        elif f.name != "deleted":
            fields.append(pa.field(f.name, f.type))
    for f in extra or []:
        fields.append(pa.field(f.name, f.type))
    return pa.schema(fields)


def _empty_feed_table() -> pa.Table:
    return _feed_schema().empty_table()


def _feed_payload_rows(
    src: pa.Table,
    change_type: pa.Array | str,
    lsn: pa.Array | pa.ChunkedArray,
    schema: pa.Schema | None = None,
) -> pa.Table:
    """Project a state-shaped table onto the feed schema (missing evolved
    columns → null) with the given change_type/lsn columns."""
    empty = (schema or _feed_schema()).empty_table()
    if isinstance(change_type, str):
        change_type = pa.array([change_type] * len(src), pa.string())
    cols: dict[str, Any] = {}
    for f in empty.schema:  # schema order (cast below is order-sensitive)
        if f.name == "change_type":
            cols[f.name] = change_type
        elif f.name == "lsn":
            cols[f.name] = lsn
        elif f.name in src.column_names:
            cols[f.name] = src.column(f.name)
        else:
            cols[f.name] = pa.nulls(len(src), f.type)
    return pa.table(cols).cast(empty.schema)


def _diff_partition_states(
    lake_dir: str, part: int, epoch: int, include_preimages: bool = False,
    on_vacuumed: str = "empty",
) -> pa.Table:
    """Logical change rows for one partition in one epoch: diff of the live
    state at the epoch's commit vs the state just before it, cut by the
    partition's commit SEQ — true commit order, so a DML/admin epoch's
    changes appear under ITS epoch and never move when later (numerically
    smaller) stream epochs commit. The two sides are in-task hash joins —
    co-partitioned by construction, so no shuffle exists in the whole feed
    read. For copy-on-write partitions each side is one file read;
    merge-on-read partitions resolve base ∪ deltas first. A partition the
    epoch never touched (no commit record) or touched as a no-op changed
    nothing and diffs empty.

    ``on_vacuumed`` picks the semantics when vacuum removed the pre-epoch
    history and the exact diff is impossible: ``"empty"`` (feed semantics —
    a consumed epoch's feed may shrink to empty but never grow rows it did
    not report) or ``"snapshot"`` (replication semantics — emit the CUT's
    full state, live rows as inserts and tombstones as deletes at their
    winning LSNs, which per-key LWW makes convergent for a downstream
    replica that could no longer replay the vacuumed prefix)."""
    empty = _empty_feed_table()
    rec = cl.read_commit(lake_dir, epoch, part)
    if rec is None or rec.get("noop"):
        return empty
    s = cl.seq_of_data_file(rec.get("data_file"))
    if s is None:
        return empty  # pre-seq record: no exact cut exists
    files = cl.list_part_files(lake_dir, part)
    cur_files = _cut_files_at_seq(files, s)
    if not cur_files:
        # the epoch's own file is vacuumed: even snapshot mode defers — the
        # partition's LAST-touching epoch always has a surviving cut (vacuum
        # keeps the frontier) and its snapshot covers this one
        return empty
    prev_files = _cut_files_at_seq(files, s - 1)
    snapshot_mode = False
    if s > 0 and not prev_files:
        # seqs are dense: an empty s-1 cut with s > 0 proves vacuum removed
        # the pre-epoch history (and no compaction base substitutes) — the
        # exact diff is impossible
        if on_vacuumed != "snapshot":
            return empty
        snapshot_mode = True
    cur_t = _resolve_files(cur_files)
    prev_t = _resolve_files(prev_files) if prev_files else None
    # evolved (post-base-schema) columns ride the feed; union of both sides
    extra_fields: list[pa.Field] = []
    seen = set(STATE_SCHEMA.names)
    for t in (cur_t, prev_t):
        if t is not None:
            for f in t.schema:
                if f.name not in seen:
                    extra_fields.append(f)
                    seen.add(f.name)
    feed_schema = _feed_schema(extra_fields)

    deleted = pc.fill_null(cur_t.column("deleted"), False)
    cur_live = cur_t.filter(pc.invert(deleted))
    tomb = cur_t.filter(deleted).select(["repo", "path", "applied_lsn"])
    prev_full = None
    if prev_t is not None:
        prev_full = prev_t.filter(
            pc.invert(pc.fill_null(prev_t.column("deleted"), False))
        )
        prev_live = prev_full.select(["repo", "path", "applied_lsn"])
    else:
        prev_live = pa.table(
            {"repo": pa.array([], pa.string()), "path": pa.array([], pa.string()),
             "applied_lsn": pa.array([], pa.int64())}
        )

    # inserts + updates: live keys whose winning LSN moved this epoch
    pri = prev_live.rename_columns(["repo", "path", "__prior_lsn"])
    j = cur_live.join(pri, keys=["repo", "path"], join_type="left outer")
    moved = j.filter(
        pc.or_kleene(
            pc.is_null(j.column("__prior_lsn")),
            pc.not_equal(j.column("applied_lsn"), j.column("__prior_lsn")),
        )
    )
    change_type = pc.if_else(pc.is_null(moved.column("__prior_lsn")), "insert", "update")
    upserts = _feed_payload_rows(
        moved, change_type, moved.column("applied_lsn"), schema=feed_schema
    )

    # deletes: keys live before, tombstoned now (lsn = the tombstone's LSN;
    # payload columns are null — the post-image of a delete is no row —
    # unless pre-images are requested, in which case they carry the deleted
    # row's last live values, Delta-CDF delete semantics)
    if snapshot_mode:
        # snapshot semantics: EVERY tombstone in the cut is a delete (the
        # replica may have applied pre-vacuum epochs that inserted the key)
        gone_keys = tomb.select(["repo", "path"])
    else:
        gone_keys = prev_live.select(["repo", "path"]).join(
            cur_live.select(["repo", "path"]), keys=["repo", "path"], join_type="left anti"
        )
    if include_preimages and prev_full is not None:
        gone = prev_full.drop_columns(["applied_lsn"]).join(
            gone_keys.join(tomb, keys=["repo", "path"], join_type="left outer"),
            keys=["repo", "path"],
            join_type="inner",
        )
    else:
        gone = gone_keys.join(tomb, keys=["repo", "path"], join_type="left outer")
    deletes = _feed_payload_rows(gone, "delete", gone.column("applied_lsn"), schema=feed_schema)

    parts = [upserts, deletes]
    if include_preimages and prev_full is not None:
        # update_preimage rows: the overwritten row's values, at its own LSN
        upd_keys = moved.filter(pc.is_valid(moved.column("__prior_lsn"))).select(
            ["repo", "path"]
        )
        pre = prev_full.join(upd_keys, keys=["repo", "path"], join_type="left semi")
        parts.append(
            _feed_payload_rows(
                pre, "update_preimage", pre.column("applied_lsn"), schema=feed_schema
            )
        )

    out = pa.concat_tables(parts)
    if len(out) == 0:
        return empty
    return out.take(
        pc.sort_indices(
            out,
            sort_keys=[
                ("repo", "ascending"),
                ("path", "ascending"),
                ("change_type", "ascending"),
            ],
        )
    )


def _per_part_dataset(parts: list[int]) -> ray.data.Dataset:
    """One BLOCK per partition id. ``from_arrow`` of a single tiny table is
    ONE block — ``map_batches(batch_size=1)`` over it would split batches
    inside one task, running every per-partition diff serially in a single
    worker. The repartition makes each partition id its own block, so the
    downstream stage schedules one task per partition (the parallel-scan
    shape the per-partition readers rely on)."""
    t = pa.table({"part": pa.array(sorted(parts), pa.int64())})
    return ray.data.from_arrow(t).repartition(max(t.num_rows, 1))


def read_change_feed(
    lake_dir: str, epoch: int, include_preimages: bool = False,
    on_vacuumed: str = "empty",
) -> ray.data.Dataset:
    """The applied-changes feed for one epoch as a Dataset — the change-data-
    feed surface of the lake (Delta CDF analog; the queryable form of the
    reference's per-table publish stream, ``sonic_config/mod.rs:501-574``).

    Row per logical change in ``epoch``: ``change_type`` ∈ insert/update/
    delete, the post-image payload columns (null for deletes), and the
    winning LSN. Execution is one task per touched partition diffing two
    copy-on-write state files (time-travel reads) — partition-parallel,
    zero shuffle, output canonically sorted within each partition.
    ``on_vacuumed="snapshot"`` swaps vacuumed-prefix epochs from strict
    feed semantics (empty) to replica-bootstrap semantics (full-state
    emit) — see :func:`_diff_partition_states`."""
    parts = []
    if os.path.isdir(lake_dir):
        for name in sorted(os.listdir(lake_dir)):
            if name.startswith("part="):
                parts.append(int(name.split("=")[1]))
    if not parts:
        return ray.data.from_arrow(_empty_feed_table())

    def diff_batch(
        b: pa.Table, lake_dir: str, epoch: int, include_preimages: bool,
        on_vacuumed: str,
    ) -> pa.Table:
        tables = [
            _diff_partition_states(
                lake_dir, int(p), epoch, include_preimages, on_vacuumed
            )
            for p in b.column("part").to_pylist()
        ]
        # partitions may disagree on evolved columns (one touched, one not)
        return (
            pa.concat_tables(tables, promote_options="default")
            if tables
            else _empty_feed_table()
        )

    return _per_part_dataset(parts).map_batches(
        diff_batch,
        fn_kwargs={
            "lake_dir": lake_dir,
            "epoch": epoch,
            "include_preimages": include_preimages,
            "on_vacuumed": on_vacuumed,
        },
        batch_format="pyarrow",
        batch_size=1,
    )


def feed_incremental_agg(
    lake_dir: str, epochs: Iterable[int], group_col: str = "lang"
) -> pd.DataFrame:
    """A downstream aggregate table (``n_files``, ``total_bytes`` per
    ``group_col``) maintained INCREMENTALLY from the change feed — the
    CDF-consumer pattern: per epoch, post-image rows add and pre-image/
    delete rows subtract, so the view advances without ever rescanning the
    lake. Per-epoch work is one feed read + an in-task combiner; only the
    tiny per-group delta table reaches the driver (the view itself is
    aggregate-sized by definition).

    The reference maintains its derived per-table stats the rescan-heavy
    way (scheduled full-table QC queries, ``qc/row_counts.py:85-102``);
    this is the incremental equivalent its daily MERGE repair never had."""
    import pandas as pd

    totals: dict[str, tuple[int, int]] = {}
    for epoch in epochs:
        feed = read_change_feed(lake_dir, epoch, include_preimages=True)

        def delta(t: pa.Table) -> pa.Table:
            sign = pc.if_else(
                pc.is_in(t["change_type"], value_set=pa.array(["insert", "update"])),
                pa.scalar(1, pa.int64()),
                pa.scalar(-1, pa.int64()),
            )
            d = pa.table(
                {
                    "group": t[group_col],
                    "dn": sign,
                    "dbytes": pc.multiply(
                        sign, pc.coalesce(t["size_bytes"], pa.scalar(0, pa.int64()))
                    ),
                }
            )
            return d.group_by("group").aggregate([("dn", "sum"), ("dbytes", "sum")])

        partials = feed.map_batches(delta, batch_format="pyarrow").to_pandas()
        for _, row in partials.iterrows():
            n, b = totals.get(row["group"], (0, 0))
            totals[row["group"]] = (n + int(row["dn_sum"]), b + int(row["dbytes_sum"]))

    out = pd.DataFrame(
        [(g, n, b) for g, (n, b) in totals.items() if n != 0 or b != 0],
        columns=[group_col, "n_files", "total_bytes"],
    )
    return out.sort_values(group_col).reset_index(drop=True)


def rebucket_lake(
    src_lake: str,
    dst_lake: str,
    num_partitions: int,
    read_kwargs: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Migrate the lake to a different hash-partition count — the admin op
    for when key cardinality outgrows (or no longer needs) the original P.

    Shape: live state files (one block per source partition) stream through
    the NORMAL ingest path — state rows become pseudo-events at their
    original ``applied_lsn`` (tombstones become deletes, so resurrect
    protection survives the migration) and ``apply_epoch`` re-keys, shuffles
    and commits them into the destination at the new P. Everything scales
    like an ingest epoch: no driver materialization, exactly-once commit
    records per (epoch-0, partition) make a killed migration resumable, and
    the destination's final table is bit-equal to the source's (the BQ
    repartition-by-copy analog of the reference's fixed range partitioning,
    ``iac/terraform/bq.tf:30-39``, which cannot re-partition in place).
    """
    files, dirty_parts = lake_read_plan(src_lake)
    if not files and not dirty_parts:
        raise ValueError(f"no committed state in {src_lake}")
    # partitioning=None: don't hive-infer the physical part=N dirs (ray
    # 2.49 raises on partitioning=None + columns, so pass it only without
    # an explicit column list)
    rk = dict(read_kwargs or {})
    if "columns" not in rk:
        rk["partitioning"] = None
    ds = ray.data.read_parquet(files, **rk) if files else None
    if dirty_parts:
        # merge-on-read frontiers: resolve to FULL state rows (tombstones
        # included — they must migrate) in one task per partition
        dirty_ds = ray.data.from_arrow_refs(
            [_resolve_partition_task.remote(src_lake, p) for p in dirty_parts]
        )
        ds = ds.union(dirty_ds) if ds is not None else dirty_ds

    def to_events(t: pa.Table) -> pa.Table:
        ev = _state_as_events(t)
        derived = [c for c in ("content_sha256", "size_bytes") if c in ev.column_names]
        return ev.drop_columns(derived)  # re-derived (and re-verified) downstream

    records = apply_epoch(
        ds.map_batches(to_events, batch_format="pyarrow"),
        dst_lake,
        epoch=0,
        num_partitions=num_partitions,
        input_desc={"rebucket_from": src_lake, "segments": [os.path.basename(f) for f in files]},
    )
    return {
        "partitions": len(records),
        "n_rows": sum(max(int(r["n_rows"]), 0) for r in records),
    }


def replicate_lake(
    src_lake: str,
    dst_lake: str,
    num_partitions: int | None = None,
    merge_mode: str = "cow",
) -> dict[str, Any]:
    """Downstream lake replication by CHANGE-FEED subscription: for each
    manifested upstream epoch, the per-epoch change feed (insert/update
    post-images, delete tombstones, each at its winning LSN) is applied to
    the destination as ordinary change events through the normal exactly-
    once ingest path — the consumer side of the reference's per-table
    publish stream (``sonic_config/mod.rs:501-574``), i.e. lake→lake fan-out
    without re-reading the upstream's raw segments.

    Resumable per epoch via the destination's own manifests; correct under
    re-run (idempotent commits) and independent of the destination's
    partition count or merge mode. The destination's final table is
    bit-equal to the source's (per-key LWW over the same winning LSNs) —
    including sources whose early history was already vacuumed: the feed
    runs in snapshot mode, so the first reconstructible epoch per partition
    emits the cut's full state (LWW makes the replay convergent) instead of
    the strict feed's empty table."""
    src_parts = lake_num_partitions(src_lake)
    if num_partitions is None:
        num_partitions = src_parts or 32
    applied = skipped = 0
    for e in cl.committed_epochs(src_lake):
        if cl.epoch_manifest_exists(dst_lake, e):
            skipped += 1
            continue
        feed = read_change_feed(src_lake, e, on_vacuumed="snapshot")

        def to_events(t: pa.Table) -> pa.Table:
            op = pc.if_else(
                pc.equal(t.column("change_type"), "delete"), "delete", "insert"
            )
            cols: dict[str, Any] = {"lsn": t.column("lsn"), "op": op}
            for name in t.column_names:
                # derived columns are re-derived (and re-verified) downstream
                if name not in ("change_type", "lsn", "content_sha256", "size_bytes"):
                    cols[name] = t.column(name)
            return pa.table(cols)

        apply_epoch(
            feed.map_batches(to_events, batch_format="pyarrow"),
            dst_lake,
            e,
            num_partitions=num_partitions,
            input_desc={"replicated_from": src_lake, "segments": [f"feed-epoch={e}"]},
            merge_mode=merge_mode,
        )
        applied += 1
    return {"epochs_applied": applied, "epochs_skipped": skipped}


@ray.remote(num_cpus=1)
def _export_partition(
    lake_dir: str, part: int, out_dir: str, as_of_epoch: int | None
) -> dict[str, Any]:
    """Write one partition's resolved LIVE rows as a consumer-facing Parquet
    file (canonical (repo, path) sort), atomically (tmp+rename), and return
    its manifest entry: row count + a deterministic per-partition digest
    (sha256 over the sorted per-row content_sha256 strings)."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    tbl = _drop_tombstones(
        resolve_partition_state(lake_dir, part, as_of_epoch=as_of_epoch)
    )
    tbl = tbl.take(pc.sort_indices(tbl, sort_keys=STATE_SORT))
    os.makedirs(f"{out_dir}/part={part}", exist_ok=True)
    path = f"{out_dir}/part={part}/snapshot.parquet"
    tmp = path + ".tmp"
    pq.write_table(tbl, tmp, **parquet_write_kwargs(tbl.schema))
    os.replace(tmp, path)
    digest = hashlib.sha256(
        "\n".join(tbl.column("content_sha256").to_pylist()).encode()
    ).hexdigest()
    return {"part": part, "rows": tbl.num_rows, "digest": digest, "file": path}


def export_snapshot(
    lake_dir: str, out_dir: str, as_of_epoch: int | None = None
) -> dict[str, Any]:
    """Publish the lake's resolved logical table as consumer-facing
    partitioned Parquet — the reference's final-table publish step (the BQ
    final tables behind ``K10``; publish fan-out ``sonic_config/mod.rs:501-574``)
    re-expressed for lake consumers who cannot speak the commit-log format.

    Shape: one Ray task per lake partition resolves (base ∪ deltas, LWW) and
    writes ``part=N/snapshot.parquet`` via tmp+rename; ``SNAPSHOT.json`` is
    written LAST and atomically, carrying per-partition row counts and
    deterministic digests — readers that key off the manifest see either the
    complete old snapshot or the complete new one, never a torn mix.

    A LIVE export (``as_of_epoch=None``) is pinned to the lake's committed
    frontier at call time: every partition resolves as of that one epoch
    (self-consistent even if an ingest commits mid-export), and the pin is
    recorded in the manifest as ``pinned_epoch``. Resumable: partitions
    whose snapshot file already exists under a manifest with the SAME pin
    are skipped on re-run — a re-run after new epochs commit re-pins to the
    new frontier and rewrites, so a published live snapshot can never
    silently go stale while claiming currency (the per-partition write is
    idempotent anyway — same canonical sort, same content)."""
    import json
    import os

    parts = _lake_parts(lake_dir)
    pinned = as_of_epoch if as_of_epoch is not None else committed_frontier(lake_dir)
    manifest_path = f"{out_dir}/SNAPSHOT.json"
    prior: dict[str, Any] = {}
    if os.path.exists(manifest_path):
        with open(manifest_path) as f:
            prior = json.load(f)
    prior_parts = {
        p["part"]: p
        for p in prior.get("partitions", [])
        if prior.get("pinned_epoch", "__absent__") == pinned
        and os.path.exists(p.get("file", ""))
    }
    todo = [p for p in parts if p not in prior_parts]
    entries = list(prior_parts.values()) + ray.get(
        [_export_partition.remote(lake_dir, p, out_dir, pinned) for p in todo]
    )
    entries.sort(key=lambda e: e["part"])
    manifest = {
        "as_of_epoch": as_of_epoch,
        "pinned_epoch": pinned,
        "source_lake": lake_dir,
        "partitions": entries,
        "rows": int(sum(e["rows"] for e in entries)),
    }
    tmp = manifest_path + ".tmp"
    os.makedirs(out_dir, exist_ok=True)
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, manifest_path)
    return {
        "rows": manifest["rows"],
        "partitions_written": len(todo),
        "partitions_skipped": len(prior_parts),
    }


def read_snapshot(out_dir: str) -> ray.data.Dataset:
    """Stream a published snapshot back (manifest-listed files only — stray
    tmp/partial files are invisible to readers)."""
    import json

    with open(f"{out_dir}/SNAPSHOT.json") as f:
        manifest = json.load(f)
    files = [p["file"] for p in manifest["partitions"] if p["rows"]]
    if not files:
        return ray.data.from_arrow(_drop_tombstones(STATE_SCHEMA.empty_table()))
    return ray.data.read_parquet(files)


def _diff_side(tbl: pa.Table, prefix: str) -> pa.Table:
    t = tbl.select(["repo", "path", "content_sha256", "applied_lsn"])
    return t.rename_columns(["repo", "path", f"{prefix}_sha256", f"{prefix}_lsn"])


def _diff_pair_table(ja: pa.Table, jb: pa.Table) -> pa.Table:
    """Full-outer compare of two same-keyspace live-state sides (already
    projected by :func:`_diff_side`); emits ONLY differing keys."""
    j = ja.join(jb, keys=["repo", "path"], join_type="full outer")
    a_null = pc.is_null(j.column("a_sha256"))
    b_null = pc.is_null(j.column("b_sha256"))
    differs = pc.and_kleene(
        pc.and_(pc.invert(a_null), pc.invert(b_null)),
        pc.not_equal(j.column("a_sha256"), j.column("b_sha256")),
    )
    status = pc.if_else(
        a_null, pa.scalar("only_b"), pc.if_else(b_null, pa.scalar("only_a"), pa.scalar("differs"))
    )
    keep = pc.or_(pc.or_(a_null, b_null), pc.fill_null(differs, False))
    out = j.append_column("status", status).filter(keep)
    out = out.select(["repo", "path", "status", "a_lsn", "b_lsn"])
    return out.take(
        pc.sort_indices(out, sort_keys=[("repo", "ascending"), ("path", "ascending")])
    )


def _diff_partition_pair(
    lake_a: str, lake_b: str, part: int,
    as_of_a: int | None, as_of_b: int | None,
) -> pa.Table:
    ta = _drop_tombstones(resolve_partition_state(lake_a, part, as_of_epoch=as_of_a))
    tb = _drop_tombstones(resolve_partition_state(lake_b, part, as_of_epoch=as_of_b))
    return _diff_pair_table(_diff_side(ta, "a"), _diff_side(tb, "b"))


def diff_lakes(
    lake_a: str,
    lake_b: str,
    as_of_a: int | None = None,
    as_of_b: int | None = None,
) -> ray.data.Dataset:
    """Per-key difference between two lakes' live states — the replica-
    verification / drift-detection surface (``only_a`` / ``only_b`` /
    ``differs`` on the ``content_sha256`` invariant; equal keys are never
    emitted, so output is O(differences), not O(lake)).

    Two execution shapes, picked by the lakes' partition counts:

    - SAME count: both lakes route keys with the identical hash
      (``stages/keys.stable_hash64 % P``), so partition p of A and p of B
      hold exactly the same key space — one Ray task per partition reads
      both frontiers and full-outer-joins IN TASK. Zero shuffle: at 100 TB
      the diff of two replicas costs one parallel scan of each.
    - DIFFERENT counts (e.g. a P=4 replica of a P=8 source): B's live rows
      are re-hashed into A's partitioning (the same exchange the merge
      uses) via a hash ``groupby``; each group's task then joins against
      its single A partition. One all-to-all over B only — A never moves.

    ``as_of_a`` / ``as_of_b`` pin either side to a time-travel frontier, so
    a replica can be compared against the source AS OF the epoch it last
    consumed (lag-tolerant verification)."""
    pa_n, pb_n = lake_num_partitions(lake_a), lake_num_partitions(lake_b)
    parts = sorted(set(_lake_parts(lake_a)) | set(_lake_parts(lake_b)))
    if not parts:
        return ray.data.from_arrow(_diff_pair_table(
            _diff_side(_drop_tombstones(STATE_SCHEMA.empty_table()), "a"),
            _diff_side(_drop_tombstones(STATE_SCHEMA.empty_table()), "b"),
        ))
    if pa_n == pb_n:
        def diff_batch(b: pa.Table) -> pa.Table:
            tabs = [
                _diff_partition_pair(lake_a, lake_b, int(p), as_of_a, as_of_b)
                for p in b.column("part").to_pylist()
            ]
            return pa.concat_tables(tabs, promote_options="default")

        return _per_part_dataset(parts).map_batches(
            diff_batch, batch_format="pyarrow", batch_size=1
        )

    if pa_n == 0:
        # A has no committed partitions at all: everything live in B is
        # only_b — no exchange needed (and no modulus to hash into)
        def all_only_b(t: pa.Table) -> pa.Table:
            n = t.num_rows
            return pa.table({
                "repo": t.column("repo"), "path": t.column("path"),
                "status": pa.array(["only_b"] * n, pa.string()),
                "a_lsn": pa.array([None] * n, pa.int64()),
                "b_lsn": t.column("applied_lsn").cast(pa.int64()),
            })

        return read_lake(
            lake_b, columns=["repo", "path", "content_sha256", "applied_lsn"],
            as_of_epoch=as_of_b,
        ).map_batches(all_only_b, batch_format="pyarrow")

    # rehash path: exchange B into A's partitioning, then per-partition join.
    # Marker rows (null repo) seed EVERY A partition so keys that exist only
    # in A still surface from partitions B has no rows for.
    from ..stages.keys import PART_COLUMN, add_partition_column

    a_parts = sorted(_lake_parts(lake_a)) or list(range(pa_n))
    ds_b = read_lake(
        lake_b, columns=["repo", "path", "content_sha256", "applied_lsn"],
        as_of_epoch=as_of_b,
    )

    def add_part(t: pa.Table) -> pa.Table:
        # the SAME routing the merge shuffle uses (stages/keys) — the
        # exchange must agree with lake A's physical layout by construction
        t = add_partition_column(t, pa_n)
        part = t.column(PART_COLUMN).cast(pa.int64())
        return t.drop_columns([PART_COLUMN]).append_column("part", part)

    markers = pa.table({
        "repo": pa.array([None] * len(a_parts), pa.string()),
        "path": pa.array([None] * len(a_parts), pa.string()),
        "content_sha256": pa.array([None] * len(a_parts), pa.string()),
        "applied_lsn": pa.array([None] * len(a_parts), pa.int64()),
        "part": pa.array(a_parts, pa.int64()),
    })

    def diff_group(g: pa.Table) -> pa.Table:
        part = int(g.column("part")[0].as_py())
        g = g.filter(pc.is_valid(g.column("repo"))).drop_columns(["part"])
        ta = _drop_tombstones(
            resolve_partition_state(lake_a, part, as_of_epoch=as_of_a)
        )
        return _diff_pair_table(
            _diff_side(ta, "a"),
            g.rename_columns(["repo", "path", "b_sha256", "b_lsn"]),
        )

    return (
        ds_b.map_batches(add_part, batch_format="pyarrow")
        .union(ray.data.from_arrow(markers))
        .groupby("part")
        .map_groups(diff_group, batch_format="pyarrow")
    )


def vacuum(lake_dir: str, keep_epochs: int = 2) -> dict[str, int]:
    """Garbage-collect superseded copy-on-write state files.

    Each epoch rewrites a partition's full state, so older state files are
    only needed for time travel / crash forensics. Keeps, per partition, the
    newest ``keep_epochs`` committed state files and deletes older ones
    (commit records are always kept — they are the lineage log). The Delta
    VACUUM analog; without it a 10^10-event lake grows by one full copy per
    epoch per partition.
    """
    if keep_epochs < 1:
        raise ValueError("keep_epochs must be >= 1 (the live state must survive)")
    removed = kept = 0
    for part in _lake_parts(lake_dir):
        files = cl.list_part_files(lake_dir, part)  # seq-ascending, committed
        # a delta is only superseded once a LATER base state (compaction or
        # copy-on-write epoch) covers it; unsuperseded deltas are part of the
        # live frontier and must never be vacuumed, whatever their age
        last_base = max(
            (i for i, f in enumerate(files) if f[3] == "state"), default=None
        )
        if last_base is None:
            kept += len(files)
            continue
        states = [f for f in files[: last_base + 1] if f[3] == "state"]
        droppable_states = states[:-keep_epochs] if keep_epochs else states
        droppable = {f[2] for f in droppable_states}
        oldest_kept_seq = (
            states[-keep_epochs][0] if len(states) >= keep_epochs else -1
        )
        for seq, _, path, kind in files[: last_base + 1]:
            if kind == "delta" and seq < oldest_kept_seq:
                droppable.add(path)  # shadowed by every retained base
        for path in sorted(droppable):
            os.remove(path)
            for extra in (path.replace("state-", "stats-"), path + ".compaction.json"):
                if os.path.exists(extra):
                    os.remove(extra)
            removed += 1
        kept += len(files) - len(droppable)
    return {"removed": removed, "kept": kept}


def repo_stats_view(lake_dir: str) -> pa.Table:
    """The incrementally-maintained per-repo aggregate: merges each
    partition's latest stats SIDECAR (written at merge time) — reads KBs of
    sidecars instead of rescanning the lake. Returns (repo, n_files,
    total_bytes) sorted by repo.

    Merge-on-read partitions get a sidecar only at compaction; a partition
    whose frontier is a delta falls back to resolving its own files (still
    partition-local — never a lake rescan). Run compact_lake_states to make
    the view sidecar-only again."""
    tables = []
    for part in _lake_parts(lake_dir):
        frontier = cl.latest_file(lake_dir, part)
        if frontier is None:
            continue
        sidecar = frontier[0].replace("state-", "stats-")
        if frontier[3] == "state" and os.path.exists(sidecar):
            tables.append(pq.read_table(sidecar))
        else:  # MOR frontier (or pre-sidecar file): resolve this partition
            live = _drop_tombstones(resolve_partition_state(lake_dir, part))
            tables.append(
                pa.table(
                    {"repo": live.column("repo"), "size_bytes": live.column("size_bytes")}
                )
                .group_by("repo")
                .aggregate([("size_bytes", "sum"), ("size_bytes", "count")])
                .rename_columns(["repo", "total_bytes", "n_files"])
            )
    if not tables:
        return pa.table(
            {"repo": pa.array([], pa.string()), "n_files": pa.array([], pa.int64()),
             "total_bytes": pa.array([], pa.int64())}
        )
    allp = pa.concat_tables(tables, promote_options="default")
    out = (
        allp.group_by("repo")
        .aggregate([("n_files", "sum"), ("total_bytes", "sum")])
        .rename_columns(["repo", "n_files", "total_bytes"])
    )
    out = pa.table(
        {
            "repo": out.column("repo"),
            "n_files": pc.cast(out.column("n_files"), pa.int64()),
            "total_bytes": pc.cast(out.column("total_bytes"), pa.int64()),
        }
    )
    return out.take(pc.sort_indices(out, sort_keys=[("repo", "ascending")]))


def replay_errors(
    lake_dir: str,
    fix_fn: Any | None = None,
    num_partitions: int | None = None,
    on_error: str = "abort",
    decode_catalog: Any | None = None,
    on_undecodable: str = "abort",
) -> dict[str, Any]:
    """Dead-letter replay: re-ingest quarantined error rows under a repair
    epoch after the cause is fixed — the operational close of the typed
    error channel (the reference's equivalent loop is manual backfill after
    an aborted block, ``daily_backfill_mainnet.py``; routing + replay keeps
    the good rows flowing and repairs the bad ones later).

    ``fix_fn`` (an Arrow ``map_batches`` callable) repairs the quarantined
    rows (e.g. a corrected op mapping or a newly registered catalog entry);
    rows it cannot fix can be re-routed by passing ``on_error="route"`` —
    they land in the REPAIR epoch's own error channel, still quarantined.

    Exactly-once: the repair epoch id is deterministic from the set of
    pending error files; a killed replay re-runs to the same epoch and
    fast-forwards off its manifest. Replayed files get a ``.REPLAYED``
    marker (written only after the repair manifest exists) so a later
    replay only picks up NEW errors. Correct under any interleaving with
    live ingest: replayed rows merge at their ORIGINAL LSNs, so they lose
    per-key races against newer updates and win only where they were the
    newest write — exactly the semantics of a late backfill."""
    pending = sidecars.ERRORS.files(lake_dir, pending_only=True)
    if not pending:
        return {"replayed_rows": 0, "files": 0, "repair_epoch": None}
    rel = [os.path.relpath(f, lake_dir) for f in pending]
    rep_epoch = repair_epoch_id(rel)
    n_rows = sum(pq.read_metadata(f).num_rows for f in pending)
    if not cl.epoch_manifest_exists(lake_dir, rep_epoch):
        ds = ray.data.read_parquet(pending, partitioning=None)

        def strip(t: pa.Table) -> pa.Table:
            # drop the error tag + stale derived columns (re-derived and
            # re-verified by the normal transform chain)
            drop = [
                c for c in (ERROR_COLUMN, "content_sha256", "size_bytes")
                if c in t.column_names
            ]
            return t.drop_columns(drop)

        ds = ds.map_batches(strip, batch_format="pyarrow")
        if fix_fn is not None:
            ds = ds.map_batches(fix_fn, batch_format="pyarrow")
        apply_epoch(
            ds,
            lake_dir,
            rep_epoch,
            num_partitions=num_partitions or lake_num_partitions(lake_dir) or 32,
            on_error=on_error,
            decode_catalog=decode_catalog,
            on_undecodable=on_undecodable,
            input_desc={"replayed_errors": rel, "segments": rel},
        )
    for f in pending:  # markers AFTER the manifest: crash-safe bookkeeping
        marker = f + sidecars.ERRORS.retired_suffix
        _mtmp = f"{marker}.tmp.{uuid.uuid4().hex[:8]}"
        with open(_mtmp, "w") as fh:
            fh.write(str(rep_epoch))
        os.rename(_mtmp, marker)
    return {"replayed_rows": n_rows, "files": len(pending), "repair_epoch": rep_epoch}


def scratch_lake_dir(tag: str = "lake") -> str:
    """A fresh scratch lake directory under /tmp."""
    return tempfile.mkdtemp(prefix=f"sonic_etl_ray_{tag}_")


def schema_history(lake_dir: str) -> "pd.DataFrame":  # noqa: F821
    """Schema-evolution audit log from the commit log alone (no data reads):
    per manifested epoch, the state columns first observed (``added``) and
    columns whose Arrow type changed (``retyped`` — the int32→int64 widen
    path) relative to the running union over all prior epochs' per-partition
    commit schemas. Commit records already carry the post-merge schema map,
    so the log survives checkpoint compaction and vacuum (it never touches
    data files); driver cost is the same small JSON set resume planning
    reads."""
    import pandas as pd

    seen: dict[str, str] = {}
    rows = []
    for e in cl.committed_epochs(lake_dir):
        m = cl.read_manifest(lake_dir, e) or {}
        added: set[str] = set()
        retyped: set[str] = set()
        for p in m.get("parts", []):
            rec = cl.read_commit(lake_dir, e, int(p)) or {}
            for name, typ in (rec.get("schema") or {}).items():
                if name not in seen:
                    seen[name] = typ
                    added.add(name)
                elif seen[name] != typ:
                    seen[name] = typ
                    retyped.add(name)
        rows.append(
            {
                "epoch": e,
                "added": ",".join(sorted(added)),
                "retyped": ",".join(sorted(retyped)),
                "n_columns": len(seen),
            }
        )
    out = pd.DataFrame(rows, columns=["epoch", "added", "retyped", "n_columns"])
    out["epoch"] = out["epoch"].astype("int64")
    out["n_columns"] = out["n_columns"].astype("int64")
    return out


def clone_lake(
    src_dir: str, dst_dir: str, exclusive: bool = False
) -> dict[str, Any]:
    """Zero-copy branch of a lake: hardlink every immutable artifact into a
    new root (state/delta/history parquet, commit records, manifests,
    checkpoints, sidecars) — the shallow-clone / branch primitive.

    Why hardlinks are SAFE here: the lake's write protocol never mutates a
    committed file in place — every apply writes NEW state files and new
    commit records, every manifest/marker lands by tmp+rename (a rename
    replaces the directory entry, never the shared inode), and vacuum
    unlinks names (the other branch's link keeps the inode alive). So after
    the clone, branches diverge freely: applies/DML on one are invisible to
    the other, and storage is shared for exactly the bytes both still
    reference — a 100 TB lake branches in O(file-count) driver-side
    metadata ops, zero data movement. (Cross-device targets degrade to
    copy; the stats report which happened.)

    Consistency: cloning concurrent with a mid-epoch writer can capture a
    torn prefix (some partitions' commit records but not the manifest) —
    exactly the state crash-resume already handles, so the clone is always
    OPENABLE, but ``exclusive=True`` takes the source's writer lease for
    the walk when a clean frontier is required.

    Excluded: the writer lease (a branch is a new single-writer domain)
    and any in-flight ``.build.``/tmp staging artifacts."""
    import shutil

    token = None
    if exclusive:
        token = cl.acquire_writer_lease(src_dir, owner=f"clone:{os.getpid()}")
    linked = copied = 0
    nbytes = 0
    try:
        for root, dirs, files in os.walk(src_dir):
            dirs[:] = [d for d in dirs if ".build." not in d]
            rel = os.path.relpath(root, src_dir)
            out_root = os.path.join(dst_dir, rel) if rel != "." else dst_dir
            os.makedirs(out_root, exist_ok=True)
            for name in files:
                # in-flight staging never crosses a branch: crashed
                # tmp+rename leftovers (".tmp.<hex>" suffixes) are not
                # committed artifacts
                if (
                    name == "_WRITER_LEASE.json"
                    or name.startswith(".manifest.")
                    or ".tmp." in name
                ):
                    continue
                sp = os.path.join(root, name)
                dp = os.path.join(out_root, name)
                try:
                    os.link(sp, dp)
                    linked += 1
                except FileNotFoundError:
                    continue  # vacuum/compaction unlinked it mid-walk: the
                    # clone just looks like the already-vacuumed source
                except OSError:
                    try:
                        shutil.copy2(sp, dp)
                        copied += 1
                    except FileNotFoundError:
                        continue
                nbytes += os.stat(dp).st_size  # dp: the inode we now hold
    finally:
        if token is not None:
            cl.release_writer_lease(src_dir, token)
    return {"files_linked": linked, "files_copied": copied, "bytes": nbytes}


class FeedConsumer:
    """Durable change-feed subscription for NON-lake consumers (search
    index, cache, metrics store): a file-backed cursor over the upstream's
    committed epochs, with the consumer controlling the commit point.

    Protocol (at-least-once, exactly-once with an idempotent consumer —
    the reference's delivery stance, ``iac/terraform/dataflow.tf:22``):
    :meth:`poll` yields (epoch, feed Dataset) for every committed epoch
    past the acked cursor, in commit order; the consumer processes, then
    :meth:`ack`\\ s the epoch — an atomic tmp+rename of the cursor file. A
    crash between process and ack re-delivers that epoch on the next poll
    (never skips, never loses); acks must be in order (monotonic guard).
    Vacuumed early history degrades to snapshot-mode feeds per
    :func:`read_change_feed` — a NEW subscriber against a vacuumed source
    starts from the cut's full state.

    The cursor is the consumer's OWN durable state, deliberately outside
    the lake (many consumers, one lake; a lake clone does not duplicate
    subscriptions)."""

    def __init__(self, lake_dir: str, cursor_path: str):
        self.lake_dir = lake_dir
        self.cursor_path = cursor_path

    def acked_epoch(self) -> int | None:
        import json

        try:
            with open(self.cursor_path) as fh:
                return int(json.load(fh)["acked_epoch"])
        except FileNotFoundError:
            return None

    def pending_epochs(self, max_epochs: int | None = None) -> list[int]:
        acked = self.acked_epoch()
        out = [e for e in cl.committed_epochs(self.lake_dir) if acked is None or e > acked]
        return out[:max_epochs] if max_epochs is not None else out

    def poll(self, max_epochs: int | None = None):
        """Yield (epoch, change-feed Dataset) for each pending epoch, in
        commit order. The Dataset is lazy — a 100 TB epoch's feed streams
        through the consumer without materializing."""
        for e in self.pending_epochs(max_epochs):
            yield e, read_change_feed(self.lake_dir, e, on_vacuumed="snapshot")

    def ack(self, epoch: int) -> None:
        import json

        acked = self.acked_epoch()
        if acked is not None and epoch <= acked:
            return  # idempotent re-ack
        pending = self.pending_epochs()
        # strict: only the oldest pending epoch may be acked — with NOTHING
        # pending any forward ack would silently skip epochs the upstream
        # commits later ("never skips" is the class contract)
        if not pending or epoch != pending[0]:
            raise ValueError(
                f"out-of-order ack: epoch {epoch}, oldest pending "
                f"{pending[0] if pending else '(none)'}"
            )
        os.makedirs(os.path.dirname(self.cursor_path) or ".", exist_ok=True)
        # fsync'd tmp+rename (commitlog's durability discipline): a crash
        # never leaves a torn cursor file
        cl._atomic_write(
            self.cursor_path,
            json.dumps({"acked_epoch": int(epoch), "lake": self.lake_dir}).encode(),
        )
