"""Sidecar families: the lake's per-unit side tables and their upkeep.

Three side tables ride every merge unit, each written once per committed
(epoch, partition) as ``<root>/epoch=E/part=P.parquet`` and gated by that
unit's commit record:

- ``_decoded[/table=T]`` — decoded fan-out events (the reference publishes
  its typed tables per block, ``sonic_config/mod.rs:305-314``);
- ``_errors`` — rows the typed error channel routed aside; ``replay_errors``
  retires a file with a ``.REPLAYED`` marker;
- ``_history`` — the SCD2 archive of every delivered version.

Each family periodically folds a partition's files into ONE run under
``<root>/<runs_subdir>/part=P/`` through the crash-safe protocol in
:mod:`..state.runfold`, and a read is the partition's newest run plus the
committed files it does not cover. The families differ only in the
constants of :class:`SidecarFamily`; listing, commit gate, read plan,
merge, fold and expiry exist once, here. Duplicates collapse at fold (or
read) time — the at-read analog of the reference's daily MERGE
(``daily_qc_airflow/daily_dedupe_mainnet.py:49-57``).
"""

from __future__ import annotations

import dataclasses
import glob
import os
import re
from functools import reduce

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..schemas import conform_table, unify_schemas
from ..stages.decode import DECODED_SCHEMA, TABLE_DECODED
from ..state import commitlog as cl
from ..state.runfold import (
    EpochCover,
    EpochNotRetained,
    expire_runs,
    fold_partition_runs,
    list_runs,
)

_FILE_RE = re.compile(r"epoch=(\d+)[/\\]part=(\d+)\.parquet$")


def concat_evolved(tables: list[pa.Table]) -> pa.Table:
    """Concat sidecar tables that may span schema evolution: column ADD and
    type WIDEN unify via the engine's own rules (Arrow's default promotion
    refuses int32→int64 across files)."""
    if len(tables) == 1:
        return tables[0]
    target = reduce(unify_schemas, (t.schema for t in tables))
    return pa.concat_tables(
        [conform_table(t, target) for t in tables], promote_options="default"
    )


def _by_epoch(fresh: dict[int, list[tuple[int, str]]]) -> list[str]:
    return [f for _, _, f in sorted((e, p, f) for p, ef in fresh.items() for e, f in ef)]


@dataclasses.dataclass(frozen=True)
class SidecarFamily:
    """One side table. Fields are layout and merge constants, never user
    settings: ``root`` is the lake-relative directory, ``runs_subdir`` holds
    the folded runs, ``sort_keys`` order merged rows, ``dedupe`` drops
    exact duplicate rows, and ``retired_suffix`` names a companion marker:
    only files carrying it fold, and it is removed with its file."""

    root: str
    sort_keys: tuple[str, ...]
    runs_subdir: str = "runs"
    dedupe: bool = False
    retired_suffix: str | None = None
    schema: pa.Schema | None = None  # typed empty result; None → no columns

    def epoch_path(self, lake_dir: str, epoch: int, part: int) -> str:
        return os.path.join(
            lake_dir, self.root, cl.EPOCH_FMT.format(epoch),
            cl.PART_FMT.format(part) + ".parquet",
        )

    def runs_root(self, lake_dir: str) -> str:
        return os.path.join(lake_dir, self.root, self.runs_subdir)

    def run_dir(self, lake_dir: str, part: int) -> str:
        return os.path.join(self.runs_root(lake_dir), cl.PART_FMT.format(part))

    def _listing(self, lake_dir: str, part: int | None = None) -> list[tuple[int, int, str]]:
        """Every per-epoch file on disk, committed or not: (epoch, part,
        path), ascending."""
        name = "part=*" if part is None else cl.PART_FMT.format(part)
        out = []
        for f in glob.glob(os.path.join(lake_dir, self.root, "epoch=*", name + ".parquet")):
            m = _FILE_RE.search(f)
            if m is not None:  # stray path (e.g. epoch=tmp/): skip, don't crash
                out.append((int(m.group(1)), int(m.group(2)), f))
        return sorted(out)

    def committed_files(self, lake_dir: str, part: int | None = None) -> list[tuple[int, int, str]]:
        """Per-epoch files whose unit committed. The commit record is the
        gate: a crashed unit's orphan file stays invisible, and its retry
        overwrites it."""
        return [
            (e, p, f) for e, p, f in self._listing(lake_dir, part)
            if cl.is_committed(lake_dir, e, p)
        ]

    def plan(
        self, lake_dir: str, as_of_epoch: int | None = None, part: int | None = None
    ) -> tuple[dict[int, str], dict[int, list[tuple[int, str]]]]:
        """(runs, fresh): each partition's newest run data file, and the
        committed (epoch, file) pairs that run does not cover. Coverage is
        the run marker's explicit epoch list, so lingering covered
        originals and out-of-order epochs are both read exactly once.
        ``as_of_epoch`` keeps epochs ``<=`` it. A newest run that spans past
        it is replaced by the newest older run that does not (the fold's GC
        keeps one previous generation) plus the originals still on disk.
        When some epoch ``<=`` it is held only by the spanning run (its
        original already removed by a later fold or by retention) this
        raises :class:`EpochNotRetained` rather than return too few rows:
        folding trades time-travel granularity for file count, as
        ``vacuum`` does."""
        root = self.runs_root(lake_dir)
        if part is not None:
            names = [cl.PART_FMT.format(part)]
        else:
            names = sorted(os.listdir(root)) if os.path.isdir(root) else []
        runs: dict[int, str] = {}
        covers: dict[int, EpochCover] = {}
        spanning: dict[int, EpochCover] = {}  # newest run, when past the cut
        for name in names:
            found = list_runs(os.path.join(root, name)) if name.startswith("part=") else []
            if not found:
                continue
            p = int(name.split("=", 1)[1])
            for i, (_, data_file, marker) in enumerate(reversed(found)):
                cov = EpochCover.from_marker(marker)
                if as_of_epoch is None or not cov or cov.max() <= as_of_epoch:
                    runs[p], covers[p] = data_file, cov
                    break
                if i == 0:
                    spanning[p] = cov
        fresh: dict[int, list[tuple[int, str]]] = {}
        for e, p, f in self.committed_files(lake_dir, part):
            if (as_of_epoch is None or e <= as_of_epoch) and e not in covers.get(p, ()):
                fresh.setdefault(p, []).append((e, f))
        for p, cov in spanning.items():
            # runs are cumulative: every epoch <= the cut that the spanning
            # run covers is in the chosen older run or still an original
            need = cov.count(upto=as_of_epoch) - covers.get(p, EpochCover([])).count()
            have = sum(1 for e, _ in fresh.get(p, ()) if e in cov)
            if have < need:
                raise EpochNotRetained(
                    f"{self.root} part={p}: {need - have} epoch(s) <= {as_of_epoch} "
                    "exist only in a run folded past that epoch"
                )
        return runs, fresh

    def _retired(self, path: str) -> bool:
        return self.retired_suffix is not None and os.path.exists(path + self.retired_suffix)

    def _with_marker(self, path: str) -> tuple[str, ...]:
        return (path,) if self.retired_suffix is None else (path, path + self.retired_suffix)

    def files(
        self,
        lake_dir: str,
        as_of_epoch: int | None = None,
        part: int | None = None,
        pending_only: bool = False,
    ) -> list[str]:
        """The plan as one file list: runs (part-ascending), then uncovered
        files ((epoch, part)-ascending). ``pending_only`` keeps only the
        uncovered files that are not retired."""
        runs, fresh = self.plan(lake_dir, as_of_epoch, part)
        epoch_files = _by_epoch(fresh)
        if pending_only:
            return [f for f in epoch_files if not self._retired(f)]
        return [runs[p] for p in sorted(runs)] + epoch_files

    def empty(self) -> pa.Table:
        return pa.table({}) if self.schema is None else self.schema.empty_table()

    def merge(self, tables: list[pa.Table]) -> pa.Table:
        """The one merge, used by reads and folds alike: evolved-schema
        concat, optional exact full-row dedupe, then sort."""
        merged = concat_evolved(tables)
        if self.dedupe:
            merged = merged.group_by(merged.column_names).aggregate([])
        keys = [(k, "ascending") for k in self.sort_keys if k in merged.column_names]
        return merged.take(pc.sort_indices(merged, sort_keys=keys)) if keys else merged

    def read(self, lake_dir: str, pending_only: bool = False) -> pa.Table:
        """The family as one Arrow table on the driver — for results that
        fit; at scale use :meth:`read_ds` after :meth:`compact` bounds the
        file count."""
        files = self.files(lake_dir, pending_only=pending_only)
        if not files:
            return self.empty()
        return self.merge([pq.read_table(f) for f in files])

    def read_ds(
        self,
        lake_dir: str,
        as_of_epoch: int | None = None,
        columns: list[str] | None = None,
    ) -> ray.data.Dataset:
        """The family as a streaming Dataset, one block per file. With
        ``dedupe``, duplicates exist only among files not yet folded (runs
        are deduped at fold time, and a row's partition is its key hash),
        so one distributed full-row groupby runs only when such files
        exist — the same dedupe :meth:`read` applies. Pass ``columns`` to
        prune the scan; a pruned read of stable base columns also unifies
        across schema evolution."""
        runs, fresh = self.plan(lake_dir, as_of_epoch)
        files = [runs[p] for p in sorted(runs)] + _by_epoch(fresh)
        if not files:
            return ray.data.from_arrow(self.empty())
        # partitioning=None: the epoch=E directory layout is lineage
        # bookkeeping, not a hive partition — inference would inject a string
        # `epoch` column that runs (flat layout) don't carry. Ray 2.49's
        # parquet datasource crashes on columns= + partitioning=None together
        # (parquet_datasource.py:828 UnboundLocalError), so pruned reads keep
        # the default inference and rely on the column list to exclude it.
        if columns is not None:
            ds = ray.data.read_parquet(files, columns=columns)
        else:
            ds = ray.data.read_parquet(files, partitioning=None)
        if not (self.dedupe and fresh):
            return ds
        from ray.data.aggregate import Count

        names = list(ds.schema().names)
        ds = ds.groupby(names).aggregate(Count(alias_name="\x00c")).drop_columns(["\x00c"])
        return ds.select_columns(names)

    def compact(self, lake_dir: str, min_files: int = 8) -> dict[str, int]:
        """Fold each partition's uncovered files (plus its previous run) into
        ONE merged run, one Ray task per partition. Refolding rewrites the
        whole run, so a partition folds only with at least ``min_files``
        new files (two for its first run) — a tailer folding every tick
        must not go quadratic in run size. Crash safety (atomic
        covered-epoch marker, one-generation GC grace for in-flight
        readers) is :func:`..state.runfold.fold_partition_runs`'s."""
        runs, fresh = self.plan(lake_dir)
        if self.retired_suffix is not None:
            fresh = {p: [(e, f) for e, f in ef if self._retired(f)] for p, ef in fresh.items()}
        todo = {
            p: ef for p, ef in fresh.items()
            if len(ef) >= (min_files if p in runs else max(min_files, 2))
        }
        folded = sum(ray.get([
            _fold_part.remote(self, lake_dir, p, ef, min_files) for p, ef in todo.items()
        ]))
        return {"parts": len(todo), "files_folded": folded}

    def expire(self, lake_dir: str, before_epoch: int) -> dict[str, int]:
        """Retention: drop per-epoch files (and their retired markers) below
        the cutoff, and runs whose covered epochs are all below it; a run
        straddling the cutoff stays (approximate at run granularity, like
        ``vacuum(keep_epochs=...)``). Unreplayed files below the cutoff go
        too: retention truncates by design. Commit records stay — they are
        the lineage log."""
        removed = 0
        for e, _, f in self._listing(lake_dir):
            if e < before_epoch:
                for path in self._with_marker(f):
                    try:
                        os.remove(path)
                    except FileNotFoundError:
                        pass
                removed += 1
        runs_removed = expire_runs(self.runs_root(lake_dir), before_epoch)
        return {"files_removed": removed, "runs_removed": runs_removed}


@ray.remote(num_cpus=1)
def _fold_part(
    fam: SidecarFamily, lake_dir: str, part: int, fresh: list[tuple[int, str]], min_files: int
) -> int:
    # originals = every file of the partition on disk, covered ones
    # included (the one-generation GC sweeps exactly those), each with its
    # retired marker so markers die with their files
    originals = [(e, g) for e, _, f in fam._listing(lake_dir, part) for g in fam._with_marker(f)]
    return fold_partition_runs(
        fam.run_dir(lake_dir, part), fresh, originals, fam.merge, min_files=min_files
    )


HISTORY = SidecarFamily(
    "_history", sort_keys=("repo", "path", "lsn"), runs_subdir="compacted"
)
ERRORS = SidecarFamily("_errors", sort_keys=("lsn",), retired_suffix=".REPLAYED")
DECODED = SidecarFamily(
    "_decoded", sort_keys=("lsn", "event_name", "line_no"), dedupe=True,
    schema=DECODED_SCHEMA,
)


def decoded(table: str | None = None) -> SidecarFamily:
    """The family of one decoded fan-out table: the default table keeps the
    flat ``_decoded/`` layout, named tables nest under ``table=<name>/``."""
    if table in (None, TABLE_DECODED):
        return DECODED
    return dataclasses.replace(DECODED, root=os.path.join(DECODED.root, f"table={table}"))


def decoded_tables(lake_dir: str) -> list[str]:
    """Names of the decoded fan-out tables present in the lake (the default
    table plus any named EventSpec.table routes)."""
    root = os.path.join(lake_dir, DECODED.root)
    out = []
    if os.path.isdir(root):
        for name in sorted(os.listdir(root)):
            if name.startswith("table="):
                out.append(name.split("=", 1)[1])
            elif name.startswith("epoch=") or name == DECODED.runs_subdir:
                # a fully-compacted table may exist only as runs/ (GC can
                # remove every per-epoch file)
                if TABLE_DECODED not in out:
                    out.insert(0, TABLE_DECODED)
    return out


def read_decoded(lake_dir: str, table: str | None = None) -> pa.Table:
    """A decoded fan-out table, exact-deduped by full row and sorted by
    (lsn, event_name, line_no): an lsn replayed across epochs writes the
    same row in two units, and the replay can straddle a fold."""
    return decoded(table).read(lake_dir)


def read_decoded_ds(lake_dir: str, table: str | None = None) -> ray.data.Dataset:
    """Streaming Dataset over a decoded fan-out table — the scale path."""
    return decoded(table).read_ds(lake_dir)


def compact_decoded(lake_dir: str, table: str | None = None, min_files: int = 8) -> dict[str, int]:
    return decoded(table).compact(lake_dir, min_files=min_files)


def expire_decoded(lake_dir: str, before_epoch: int, table: str | None = None) -> dict[str, int]:
    return decoded(table).expire(lake_dir, before_epoch)


def read_errors(lake_dir: str, pending_only: bool = False) -> pa.Table:
    """All routed error rows (no columns when nothing was routed).
    ``pending_only`` skips rows :func:`..ingest.replay_errors` already
    re-ingested; runs hold only replayed rows, so that view never reads
    them."""
    return ERRORS.read(lake_dir, pending_only=pending_only)


compact_errors = ERRORS.compact
