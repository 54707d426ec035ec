"""Predicate-driven bulk DML over the lake: DELETE/UPDATE ... WHERE.

The lake's only write path is the change stream, and bulk DML must not
bypass it: :func:`delete_where` / :func:`update_where` compile a pyarrow
predicate into synthetic change events derived FROM THE LIVE STATE
(per-key ``lsn = applied_lsn + 1``, ``op = delete``/``update``) and
replay them through :func:`~sonic_etl_ray.pipelines.ingest.apply_epoch`
under a dedicated admin epoch. Bulk mutations therefore inherit the
exactly-once commit gate, idempotent kill/resume, schema evolution,
history archiving and merge-on-read semantics of the normal ingest path
— no in-place file rewrites, no second mutation protocol.

Reference analog: the reference's only bulk mutation is the daily MERGE
repair (``daily_qc_airflow/daily_dedupe_mainnet.py:65-81``), which
likewise expresses the mutation as a replayed MERGE over the live table
rather than a file rewrite.

Scale shape (100 TB): the predicate pushes into the Parquet scan
(``read_lake(filter=...)`` → row-group stats pruning), event synthesis
is a vectorized ``map_batches``, and the apply is the normal
partition-exchange merge. Nothing materializes on the driver; a DML
touches only the row groups the predicate selects plus the partitions
holding matches — an epoch whose partitions saw no matches commits
nothing and rewrites nothing.

Correctness notes:

- **Per-key LSN bump.** Each synthetic event carries its own row's
  ``applied_lsn + 1``, so it beats exactly the version it was derived
  from under per-key LWW — deterministic from the data alone, with no
  global watermark read. A concurrent stream writer can still win with
  any later LSN (standard DML-vs-stream race; run under the writer
  lease for serial semantics).
- **Deterministic admin epoch.** ``epoch = max(DML_EPOCH_BASE,
  committed_frontier + 1)``; the manifest is only written after every
  partition commits, so a killed DML re-run recomputes the SAME epoch
  and resumes: already-committed partitions are skipped by the commit
  gate, and their matched rows no longer match (deleted / updated), so
  they contribute no fresh events either. ``DML_EPOCH_BASE`` sits above
  the repair-epoch range (90,000,000–99,999,999) so the two never
  collide; time travel around DMLs is exact in COMMIT order, not
  epoch-number order — ``read_lake(as_of_epoch=E)`` cuts each partition
  at the data-file seq recorded in epoch E's commit record
  (``commitlog.commit_seq``), so a read "as of the DML" excludes stream
  epochs committed after it even though their epoch numbers are smaller.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

import pyarrow as pa
import pyarrow.compute as pc
import ray

from .ingest import (
    apply_epoch,
    committed_frontier,
    lake_num_partitions,
    read_lake,
    resolve_partition_state,
)

# far above stream epochs AND the repair range (REPAIR_EPOCH_BASE + <10^7)
DML_EPOCH_BASE = 200_000_000

# derived columns validate_and_derive recomputes; never forwarded as event
# payload (applied_lsn becomes the event's lsn instead)
_DERIVED = ("content_sha256", "size_bytes", "applied_lsn")

# columns an UPDATE may never assign: the derived ones above, the event
# framing (lsn/op — assigning lsn overwrites the per-key LWW bump and the
# update silently loses; op turns it into a different statement), the merge
# key (re-keying an update INSERTS a new row and strands the old one — a
# key change is delete+insert, not UPDATE), and merge-internal markers
_PROTECTED = frozenset(_DERIVED) | {"lsn", "op", "repo", "path", "deleted", "__part"}


def dml_epoch(lake_dir: str) -> int:
    """Deterministic admin epoch for the next DML: resumable (see module
    docstring) and monotonic across successive DMLs on the same lake."""
    frontier = committed_frontier(lake_dir)
    return max(DML_EPOCH_BASE, (frontier if frontier is not None else -1) + 1)


def _event_frame(state: pa.Table) -> dict[str, Any]:
    """State columns → change-event columns: lsn bumps past the source
    row's version; derived columns drop (the apply recomputes them);
    evolved extras pass through so updates don't lose added columns."""
    cols: dict[str, Any] = {
        "lsn": pc.add(state.column("applied_lsn"), pa.scalar(1, pa.int64()))
    }
    for name in state.column_names:
        if name not in _DERIVED:
            cols[name] = state.column(name)
    return cols


def _to_delete_events(state: pa.Table) -> pa.Table:
    cols = _event_frame(state)
    n = state.num_rows
    cols["op"] = pa.array(["delete"] * n, pa.string())
    # deletes carry null content (validate_and_derive rejects the opposite)
    cols["content"] = pa.nulls(n, state.column("content").type)
    return pa.table(cols)


def _to_update_events(state: pa.Table, assign: Mapping[str, Any]) -> pa.Table:
    """Vectorized update-event synthesis; assignments resolve per batch."""
    cols = _event_frame(state)
    n = state.num_rows
    for name, value in assign.items():
        if callable(value):
            arr = value(state)
        else:
            arr = pa.nulls(n) if value is None else pa.array([value] * n)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks()
        cols[name] = arr
    cols["op"] = pa.array(["update"] * n, pa.string())
    return pa.table(cols)


def _run_dml(
    lake_dir: str,
    events: ray.data.Dataset,
    kind: str,
    predicate_desc: str,
    epoch: int | None,
    num_partitions: int | None,
    track_history: bool,
    merge_mode: str,
) -> dict[str, Any]:
    nparts = num_partitions or max(lake_num_partitions(lake_dir), 1)
    epoch = dml_epoch(lake_dir) if epoch is None else epoch
    records = apply_epoch(
        events,
        lake_dir,
        epoch,
        num_partitions=nparts,
        input_desc={"dml": kind, "predicate": predicate_desc},
        track_history=track_history,
        merge_mode=merge_mode,
    )
    return {
        "epoch": epoch,
        "kind": kind,
        "n_rows_affected": sum(int(r["n_events"]) for r in records),
        "parts_touched": sorted(int(r["part"]) for r in records),
    }


def delete_where(
    lake_dir: str,
    predicate: "pc.Expression",
    *,
    num_partitions: int | None = None,
    epoch: int | None = None,
    track_history: bool = False,
    merge_mode: str = "cow",
) -> dict[str, Any]:
    """DELETE FROM lake WHERE ``predicate`` via the exactly-once path.

    ``predicate`` is a pyarrow dataset expression over the state schema
    (e.g. ``pc.field("lang") == "markdown"``); it pushes into the Parquet
    scan. Matched live rows become tombstones through the normal merge —
    physically removed at the next compaction, historically preserved if
    the lake tracks history (pass ``track_history=True`` on such lakes so
    the DML's versions are archived like any other epoch's).
    """
    ds = read_lake(lake_dir, filter=predicate)
    events = ds.map_batches(_to_delete_events, batch_format="pyarrow")
    return _run_dml(
        lake_dir, events, "delete", str(predicate), epoch, num_partitions,
        track_history, merge_mode,
    )


def update_where(
    lake_dir: str,
    predicate: "pc.Expression",
    assign: Mapping[str, Any | Callable[[pa.Table], pa.Array]],
    *,
    num_partitions: int | None = None,
    epoch: int | None = None,
    track_history: bool = False,
    merge_mode: str = "cow",
) -> dict[str, Any]:
    """UPDATE lake SET ``assign`` WHERE ``predicate`` via the exactly-once
    path.

    ``assign`` maps column → new value: a plain scalar broadcasts; a
    callable receives the matched-state batch (pa.Table) and returns the
    replacement array — vectorized, so transforms like
    ``{"content": lambda t: pc.utf8_upper(t["content"])}`` run as Arrow
    kernels per batch. Assigning a column the lake doesn't have yet is
    schema evolution and flows through the merge's normal widen/conform.
    ``content`` must stay non-null (an update with null content is a
    malformed event by the stream contract — use :func:`delete_where`).
    Protected columns cannot be assigned: ``content_sha256`` /
    ``size_bytes`` / ``applied_lsn`` are derived downstream, ``lsn`` /
    ``op`` are the merge's own event framing, and the ``repo`` / ``path``
    key cannot be reassigned by UPDATE (that would insert a new row and
    strand the old one — express a key move as delete + insert).
    """
    bad = sorted(c for c in assign if c in _PROTECTED)
    if bad:
        raise ValueError(
            f"cannot assign protected columns {bad}: lsn/op/derived columns "
            "are computed by the merge, and the (repo, path) key cannot be "
            "reassigned by UPDATE (delete + insert instead)"
        )
    ds = read_lake(lake_dir, filter=predicate)
    events = ds.map_batches(
        _to_update_events, fn_kwargs={"assign": dict(assign)},
        batch_format="pyarrow",
    )
    return _run_dml(
        lake_dir, events, "update", str(predicate), epoch, num_partitions,
        track_history, merge_mode,
    )


# ------------------------------------------------------------- CLI parsing

# longest-match-first so '<=' wins over '<'
_PRED_OPS: tuple[tuple[str, Any], ...] = (
    ("!=", lambda f, v: f != v),
    ("<=", lambda f, v: f <= v),
    (">=", lambda f, v: f >= v),
    ("=", lambda f, v: f == v),
    ("<", lambda f, v: f < v),
    (">", lambda f, v: f > v),
)


def _coerce(value: str) -> Any:
    """CLI literals: a quoted value (``'2024'`` / ``"1.5"``) is ALWAYS a
    string — the only way to express numeric-looking strings for string
    columns (an int literal against a string column aborts the merge with
    a type error). Otherwise int/float if they parse, else string."""
    if len(value) >= 2 and value[0] == value[-1] and value[0] in ("'", '"'):
        return value[1:-1]
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def parse_predicate(terms: list[str]) -> "pc.Expression":
    """``col<op>value`` term strings (AND-ed) → a pyarrow dataset
    expression. Ops: ``= != < <= > >=``. Values coerce to int/float when
    they parse, else compare as strings. The admin-CLI surface of
    :func:`delete_where` / :func:`update_where`."""
    if not terms:
        raise ValueError("at least one predicate term required")
    expr = None
    for term in terms:
        # EARLIEST operator wins (longest on a tie, so <= beats < at the
        # same offset): a quoted value may contain operator characters
        # (--where "tag>'a<b'") and scanning ops in fixed declaration order
        # would split inside the quotes, silently targeting a nonexistent
        # column instead of the intended rows
        best: tuple[int, str, Any] | None = None
        for op, build in _PRED_OPS:
            i = term.find(op)
            if i >= 0 and (
                best is None or i < best[0] or (i == best[0] and len(op) > len(best[1]))
            ):
                best = (i, op, build)
        if best is None:
            raise ValueError(f"no operator in predicate term: {term!r}")
        i, op, build = best
        col, raw = term[:i].strip(), term[i + len(op):].strip()
        if not col or not raw:
            raise ValueError(f"malformed predicate term: {term!r}")
        e = build(pc.field(col), _coerce(raw))
        expr = e if expr is None else expr & e
    return expr


def parse_assignments(terms: list[str]) -> dict[str, Any]:
    """``col=value`` assignment strings → the scalar ``assign`` mapping of
    :func:`update_where` (callable transforms are a library-only surface)."""
    out: dict[str, Any] = {}
    for term in terms:
        col, sep, raw = term.partition("=")
        if not sep or not col.strip():
            raise ValueError(f"malformed assignment (want col=value): {term!r}")
        out[col.strip()] = _coerce(raw.strip())
    return out


# ------------------------------------------------------ snapshot reconcile


def _eq_or_both_null(a: pa.ChunkedArray | pa.Array, b) -> pa.Array:
    eq = pc.fill_null(pc.equal(a, b), False)
    return pc.or_(eq, pc.and_(pc.is_null(a), pc.is_null(b)))


def _reconcile_diff(
    lake_dir: str,
    part: int,
    delete_missing: bool,
    at_lsn: int,
    *src_blocks: pa.Table,
) -> pa.Table:
    """Per-partition MERGE diff: source slice vs live partition state →
    change-event table (insert new keys at ``at_lsn``; update keys whose
    payload differs at per-key ``applied_lsn + 1``; optionally delete live
    keys the source lacks). Runs as one Ray task per partition; returns
    only the CHANGES — an already-reconciled partition emits zero events
    and is never rewritten."""
    from ..stages.keys import key_strings

    src_blocks = [b for b in src_blocks if b.num_rows]
    src = (
        pa.concat_tables(src_blocks, promote_options="default")
        if src_blocks
        else None
    )
    if src is not None:
        # exchange routing + derived columns are not payload: a snapshot
        # taken FROM a lake (lake_final_table) round-trips cleanly
        drop = [
            c
            for c in src.column_names
            if c == "__part" or c in _DERIVED
        ]
        if drop:
            src = src.drop_columns(drop)
    state_all = resolve_partition_state(lake_dir, part)
    tombs = None
    state = state_all
    if "deleted" in state_all.column_names:
        dmask = pc.fill_null(state_all.column("deleted"), False)
        # tombstones are NOT live rows, but their LSNs gate resurrection:
        # an insert for a previously-deleted key must carry a higher LSN
        # than the tombstone or it loses the per-key LWW forever (and the
        # reconcile would re-emit the same doomed insert every run)
        tombs = state_all.filter(dmask)
        state = state_all.filter(pc.invert(dmask)).drop_columns(["deleted"])
        # the marker is the merge's own, never event payload

    events: list[pa.Table] = []
    if src is not None:
        src_keys = key_strings(src)
        uniq = pc.count_distinct(src_keys).as_py()
        if uniq != src.num_rows:
            raise ValueError(
                f"reconcile source has {src.num_rows - uniq} duplicate "
                f"(repo, path) keys in partition {part}"
            )
        live_keys = key_strings(state) if state.num_rows else pa.array([], pa.string())
        in_live = pc.fill_null(pc.is_in(src_keys, value_set=live_keys), False)

        fresh = src.filter(pc.invert(in_live))
        if fresh.num_rows:
            lsn = pa.array([at_lsn] * fresh.num_rows, pa.int64())
            if tombs is not None and tombs.num_rows:
                # resurrected keys: lsn = max(at_lsn, tombstone_lsn + 1)
                tpos = pc.index_in(
                    key_strings(fresh), value_set=key_strings(tombs)
                )
                tlsn = pc.add(
                    tombs.column("applied_lsn").take(tpos),
                    pa.scalar(1, pa.int64()),
                )
                lsn = pc.max_element_wise(pc.fill_null(tlsn, at_lsn), lsn)
            cols = {
                "lsn": lsn,
                "op": pa.array(["insert"] * fresh.num_rows, pa.string()),
            }
            for name in fresh.column_names:
                cols[name] = fresh.column(name)
            events.append(pa.table(cols))

        existing = src.filter(in_live)
        if existing.num_rows and state.num_rows:
            # align live rows to the source order: index of each source key
            # within the live key column (keys are unique per partition)
            pos = pc.index_in(key_strings(existing), value_set=live_keys)
            live_aligned = state.take(pos)
            # "same" means the POST-MERGE state would equal the live row —
            # an update event full-row-replaces, so: shared columns equal,
            # source-only (evolved-in) columns null in the source, and
            # lake-only payload columns already null live (they would null
            # out). Derived columns recompute from content and never differ
            # when content matches.
            same = None

            def _and(cond):
                nonlocal same
                same = cond if same is None else pc.and_(same, cond)

            for c in existing.column_names:
                if c in state.column_names:
                    _and(_eq_or_both_null(existing.column(c), live_aligned.column(c)))
                else:
                    _and(pc.is_null(existing.column(c)))
            for c in state.column_names:
                if c not in existing.column_names and c not in _DERIVED:
                    _and(pc.is_null(live_aligned.column(c)))
            if same is None:  # no payload columns at all → nothing differs
                same = pa.array([True] * existing.num_rows)
            changed_mask = pc.invert(same)
            changed = existing.filter(changed_mask)
            if changed.num_rows:
                cols = {
                    "lsn": pc.add(
                        live_aligned.filter(changed_mask).column("applied_lsn"),
                        pa.scalar(1, pa.int64()),
                    ),
                    "op": pa.array(["update"] * changed.num_rows, pa.string()),
                }
                for name in changed.column_names:
                    cols[name] = changed.column(name)
                events.append(pa.table(cols))

    if delete_missing and state.num_rows:
        live_keys = key_strings(state)
        in_src = (
            pc.fill_null(pc.is_in(live_keys, value_set=key_strings(src)), False)
            if src is not None
            else pa.array([False] * state.num_rows)
        )
        gone = state.filter(pc.invert(in_src))
        if gone.num_rows:
            events.append(_to_delete_events(gone))

    if not events:
        return pa.table(
            {"lsn": pa.array([], pa.int64()), "op": pa.array([], pa.string())}
        )
    return pa.concat_tables(events, promote_options="default")


_reconcile_diff_task = ray.remote(num_cpus=1)(_reconcile_diff)


def reconcile_snapshot(
    lake_dir: str,
    source: "ray.data.Dataset | pa.Table",
    *,
    delete_missing: bool = False,
    at_lsn: int = 0,
    num_partitions: int | None = None,
    epoch: int | None = None,
    track_history: bool = False,
    merge_mode: str = "cow",
) -> dict[str, Any]:
    """MERGE INTO the lake from an authoritative snapshot (the reference's
    daily full-snapshot repair jobs, ``daily_qc_airflow/
    daily_dedupe_mainnet.py:65-81`` / ``daily_backfill_mainnet.py`` — a
    periodic MERGE reconciling the table against re-extracted truth, not a
    file rewrite).

    Semantics per (repo, path) key:

    - in source, not live           → **insert** event at ``at_lsn``
    - in both, any payload differs  → **update** event carrying the source
      row at per-key ``applied_lsn + 1`` (source is authoritative for its
      OWN columns; lake columns the source lacks null out — full-row
      replace, the merge's normal winner semantics)
    - in both, payload equal        → no event, no rewrite
    - live, not in source           → **delete** event at per-key
      ``applied_lsn + 1`` iff ``delete_missing=True``

    Scale shape: the source streams through the same hash exchange as the
    ingest path (one map-and-split task per block, refs only on the driver);
    ONE Ray task per partition diffs its source slice against its live
    state (vectorized key joins + column compares); only the CHANGES
    become events and replay through :func:`apply_epoch` under a
    deterministic admin epoch — an in-sync lake commits noops and rewrites
    nothing. Resumable like every DML: a killed run recomputes the same
    epoch, committed partitions diff to empty, uncommitted partitions
    re-emit identical events.
    """
    from .ingest import _exchange, _iter_block_refs

    nparts = num_partitions or max(lake_num_partitions(lake_dir), 1)
    epoch = dml_epoch(lake_dir) if epoch is None else epoch
    if isinstance(source, pa.Table):
        source = ray.data.from_arrow(source)
    # snapshot rows, not events: the map tasks only key and split them
    per_block = _exchange(_iter_block_refs(source), nparts, (None, None, None))
    ev_refs = [
        _reconcile_diff_task.remote(
            lake_dir, p, delete_missing, at_lsn, *[blk[p] for blk in per_block]
        )
        for p in range(nparts)
    ]
    events = ray.data.from_arrow_refs(ev_refs)
    return _run_dml(
        lake_dir, events, "reconcile",
        f"delete_missing={delete_missing} at_lsn={at_lsn}", epoch,
        nparts, track_history, merge_mode,
    )


def repair_replica(
    replica_dir: str,
    source_dir: str,
    *,
    as_of_source: int | None = None,
    num_partitions: int | None = None,
    track_history: bool = False,
    merge_mode: str = "cow",
) -> dict[str, Any]:
    """Anti-entropy repair: converge a drifted replica's CONTENT to the
    source's live state — the action half of :func:`~.ingest.diff_lakes`
    (which only reports drift).

    Reads the source through ``read_lake`` (zero-copy scan; ``as_of_source``
    pins a time-travel frontier for lag-tolerant repair) and MERGEs it into
    the replica via :func:`reconcile_snapshot` with ``delete_missing=True``:
    missing keys insert, differing keys update, extra replica keys delete.
    Only differences become events — an in-sync replica commits noops and
    rewrites nothing, so periodic repair is O(drift), not O(lake).

    Converges the logical content (the ``content_sha256`` invariant
    ``diff_lakes`` verifies), NOT the per-key ``applied_lsn`` watermarks:
    repair events are stamped by the replica's own DML epoch (they must win
    over whatever divergent history the replica holds, including keys whose
    local LSN ran AHEAD of the source). ``diff_lakes`` on sha256 reads clean
    after repair; LSN lineage records the repair, as an audit trail should.

    Reference analog: the daily backfill DAG re-publishing missing ranges
    (`daily_qc_airflow/daily_backfill_mainnet.py:102-159`), upgraded from
    gap-repair to full content anti-entropy."""
    from .ingest import read_lake

    src = read_lake(source_dir, as_of_epoch=as_of_source)
    return reconcile_snapshot(
        replica_dir,
        src,
        delete_missing=True,
        num_partitions=num_partitions,
        track_history=track_history,
        merge_mode=merge_mode,
    )
