"""Shared crash-safe run-compaction protocol.

Every sidecar family (``pipelines/sidecars.py``: decoded fan-out tables,
routed errors, the history archive) accumulates one immutable file per
(epoch, partition) and periodically folds a partition's files into ONE
consolidated run. The fold protocol is crash-safety-critical, so it lives
here once:

1. read the previous run (if any) plus the fresh epoch files and merge
   them (the caller supplies the merge: sort keys, dedup, schema unify);
2. write the consolidated data file via tmp + atomic rename;
3. atomically publish a marker JSON listing every covered epoch — the
   COMMIT POINT: before the marker rename nothing changed for readers,
   after it lingering originals are excluded by the covered list;
4. one-generation GC grace: delete only what the PREVIOUS marker already
   superseded (originals in its covered set, runs older than it). A
   concurrent reader that resolved the previous run's file list before
   this rename may still be scanning those files; the files THIS fold
   superseded are swept by the NEXT fold. Costs at most one extra run
   copy per partition, bounded.

Out-of-order epochs committed after a fold are untouched — coverage is an
explicit epoch list, never a threshold. Folding is idempotent: re-running
with no fresh files is a no-op (callers gate on ``min_files``).
"""

from __future__ import annotations

import glob
import json
import os
import re
import uuid
from typing import Callable

import pyarrow as pa
import pyarrow.parquet as pq

from ..config import parquet_write_kwargs

_MARKER_RE = re.compile(r"run-seq=(\d+)\.json$")


class EpochNotRetained(LookupError):
    """An as-of read needs an epoch whose files a later fold, or retention,
    already removed: the read cannot be answered in full."""


class EpochCover:
    """A run marker's covered-epoch set as contiguous inclusive ranges —
    O(gaps) memory and marker bytes, never O(epochs) (a 10^6-epoch fold
    history is 1-2 ranges, not a million-int JSON list). Membership is a
    bisect; union with a fresh epoch batch merges range lists."""

    __slots__ = ("ranges",)

    def __init__(self, ranges):
        # canonicalize defensively (sorted, disjoint, non-adjacent): bisect
        # membership silently returns wrong answers on unsorted input, and
        # markers may be hand-repaired
        rs: list[tuple[int, int]] = []
        for lo, hi in sorted((int(a), int(b)) for a, b in ranges):
            if rs and lo <= rs[-1][1] + 1:
                rs[-1] = (rs[-1][0], max(rs[-1][1], hi))
            else:
                rs.append((lo, hi))
        self.ranges = rs

    @classmethod
    def from_epochs(cls, epochs) -> "EpochCover":
        rs: list[tuple[int, int]] = []
        for e in sorted(set(int(x) for x in epochs)):
            if rs and e == rs[-1][1] + 1:
                rs[-1] = (rs[-1][0], e)
            else:
                rs.append((e, e))
        return cls(rs)

    @classmethod
    def from_marker(cls, marker: dict) -> "EpochCover":
        if "covered_ranges" in marker:
            return cls(marker["covered_ranges"])
        return cls.from_epochs(marker.get("covered_epochs", []))

    def __contains__(self, e: int) -> bool:
        import bisect

        i = bisect.bisect_right(self.ranges, (int(e), float("inf"))) - 1
        return i >= 0 and self.ranges[i][0] <= int(e) <= self.ranges[i][1]

    def __bool__(self) -> bool:
        return bool(self.ranges)

    def min(self) -> int:
        return self.ranges[0][0]

    def max(self) -> int:
        return self.ranges[-1][1]

    def count(self, upto: int | None = None) -> int:
        """Number of covered epochs (``<= upto`` when given)."""
        hi_cap = float("inf") if upto is None else int(upto)
        return sum(int(min(hi, hi_cap)) - lo + 1 for lo, hi in self.ranges if lo <= hi_cap)

    def union_epochs(self, epochs) -> "EpochCover":
        merged: list[tuple[int, int]] = []
        for lo, hi in sorted(self.ranges + EpochCover.from_epochs(epochs).ranges):
            if merged and lo <= merged[-1][1] + 1:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return EpochCover(merged)


def list_runs(run_dir: str) -> list[tuple[int, str, dict]]:
    """Committed runs in one partition's run directory, seq-ascending:
    (seq, data_file, marker). The data file is ``run-seq=N.parquet`` next
    to the ``run-seq=N.json`` marker — derived from the marker's own
    location, never from a path stored in it, so a cloned or copied lake
    reads (and GCs) its own runs, not the source's. A marker whose data
    file is missing (crash between writes cannot cause this — data renames
    first — but manual deletion can) is ignored."""
    out = []
    for mf in glob.glob(os.path.join(run_dir, "run-seq=*.json")):
        m = _MARKER_RE.search(mf)
        if m is None:
            continue  # stray file — never a run marker
        data_file = mf[: -len(".json")] + ".parquet"
        if os.path.exists(data_file):
            with open(mf) as fh:
                out.append((int(m.group(1)), data_file, json.load(fh)))
    return sorted(out)


def fold_partition_runs(
    run_dir: str,
    fresh: list[tuple[int, str]],
    originals: list[tuple[int, str]],
    merge: Callable[[list[pa.Table]], pa.Table],
    min_files: int = 1,
) -> int:
    """Fold ``fresh`` (epoch, file) pairs plus the previous run into a new
    run under ``run_dir``; returns the number of files folded (0 when
    below the ``min_files`` amortization threshold — a tailer folding
    every tick must not rewrite whole runs per epoch). ``originals`` is
    the full list of known (epoch, file) pairs for the partition; the
    one-generation GC removes those the PREVIOUS marker covered.
    ``merge`` receives [previous-run table?, fresh tables in epoch order]
    and returns the consolidated table (sort/dedup/unify is the caller's
    semantics)."""
    runs = list_runs(run_dir)
    prev = runs[-1] if runs else None
    prev_covered = EpochCover.from_marker(prev[2]) if prev else EpochCover([])
    todo = sorted((e, f) for e, f in fresh if e not in prev_covered)
    if len(todo) < (min_files if prev else max(min_files, 2)):
        return 0
    tables = ([pq.read_table(prev[1])] if prev else []) + [pq.read_table(f) for _, f in todo]
    merged = merge(tables)
    seq = (prev[0] + 1) if prev else 0
    os.makedirs(run_dir, exist_ok=True)
    data_file = os.path.join(run_dir, f"run-seq={seq:08d}.parquet")
    tmp = f"{data_file}.tmp.{uuid.uuid4().hex[:8]}"
    pq.write_table(merged, tmp, **parquet_write_kwargs(merged.schema))
    os.rename(tmp, data_file)
    marker = {
        # ranges, not a list: O(gaps) marker bytes at any epoch count
        "covered_ranges": prev_covered.union_epochs(e for e, _ in todo).ranges,
        "n_rows": merged.num_rows,
    }
    mpath = os.path.join(run_dir, f"run-seq={seq:08d}.json")
    mtmp = f"{mpath}.tmp.{uuid.uuid4().hex[:8]}"
    with open(mtmp, "w") as fh:
        json.dump(marker, fh)
    os.rename(mtmp, mpath)  # commit point: reads switch to the new run here
    for e, f in originals:
        if e in prev_covered:
            try:
                os.remove(f)
            except FileNotFoundError:
                pass
    for s, df, _m in runs[:-1]:
        for stale in (df, os.path.join(run_dir, f"run-seq={s:08d}.json")):
            try:
                os.remove(stale)
            except FileNotFoundError:
                pass
    return len(todo)


def expire_runs(runs_root: str, before_epoch: int) -> int:
    """Retention over a run family: delete runs whose covered epochs are
    ALL below the cutoff; a run straddling it stays intact (retention is
    approximate at run granularity — the same trade the history archive
    and state vacuum make). Returns the number of runs removed."""
    removed = 0
    if not os.path.isdir(runs_root):
        return 0
    for name in sorted(os.listdir(runs_root)):
        if not name.startswith("part="):
            continue
        run_dir = os.path.join(runs_root, name)
        for seq, data_file, marker in list_runs(run_dir):
            cov = EpochCover.from_marker(marker)
            if not cov or cov.max() < before_epoch:
                # marker FIRST: an orphan data file is invisible to
                # list_runs, but an orphan marker would be re-validated
                # with stale coverage when a later fold reuses the seq
                # filename after a crash between the two removes
                for p in (os.path.join(run_dir, f"run-seq={seq:08d}.json"), data_file):
                    try:
                        os.remove(p)
                    except FileNotFoundError:
                        pass
                removed += 1
    return removed
