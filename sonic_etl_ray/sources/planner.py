"""Work planning: LSN-range chunking, CSV backfill lists, segment discovery.

The coordinator side of the reference, re-expressed driver-side:
- :func:`chunk_range` — fixed-size inclusive LSN chunks
  (``indexing_coordinator/publish_ranges.py:122-146``, 1000-block ranges);
- :func:`read_lsn_list_csv` — the CSV block-list reader with header
  sniffing and range compression (``extractor_transformer/src/main.rs:140-185``
  + gap-run compression ``daily_backfill_mainnet.py:104-144``);
- :func:`discover_segments` — segment files as the work list (the
  subscription-pull analog; Ray read-task scheduling replaces competing
  consumers);
- :func:`plan_epochs` — the one segment-to-epoch planner behind both
  ``run_ingest`` and the ``Tailer``: stable epochs from segment names,
  resume skips, and late-segment repair epochs.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import os
import re
from dataclasses import dataclass, field

from ..state import commitlog as cl


@dataclass(frozen=True)
class IngestRequest:
    """A work unit: an inclusive LSN range plus per-output flags — the
    ``IndexingRequest`` analog (``schemas/proto/request.proto:1-19``).
    Flags select which derived outputs are produced (per-run table
    selection, ``sonic_config/mod.rs:403-496``)."""

    start: int
    end: int
    include_state: bool = True
    include_lineage: bool = True
    include_errors: bool = True


def chunk_range(start: int, end: int, chunk: int = 1000) -> list[IngestRequest]:
    """Inclusive [start, end] → fixed-size inclusive chunks."""
    if end < start:
        return []
    out = []
    lo = start
    while lo <= end:
        out.append(IngestRequest(lo, min(lo + chunk - 1, end)))
        lo += chunk
    return out


def compress_to_ranges(lsns: list[int]) -> list[tuple[int, int]]:
    """Sorted LSNs → contiguous inclusive ranges (backfill planning)."""
    out: list[tuple[int, int]] = []
    for x in sorted(set(lsns)):
        if out and out[-1][1] == x - 1:
            out[-1] = (out[-1][0], x)
        else:
            out.append((x, x))
    return out


def read_lsn_list_csv(path: str) -> list[int]:
    """Read a one-column CSV of LSNs, sniffing and skipping a header row."""
    out: list[int] = []
    with open(path, newline="") as f:
        for i, row in enumerate(csv.reader(f)):
            if not row:
                continue
            cell = row[0].strip()
            if i == 0 and not cell.lstrip("-").isdigit():
                continue  # header
            out.append(int(cell))
    return out


def discover_segments(seg_dir: str, pattern: str = "segment_*.parquet") -> list[str]:
    """Sorted segment files (name order == ascending LSN spans)."""
    return sorted(glob.glob(os.path.join(seg_dir, pattern)))


def validate_segments(files: list[str]) -> tuple[list[str], list[dict]]:
    """Footer-validate segment files before planning: a corrupt or truncated
    Parquet file in the stream (partial upload, bad disk) must not abort the
    whole epoch loop NOR be silently dropped. Returns (readable, quarantined)
    where each quarantine entry records path, size, and the footer error —
    callers persist it so the repair path (re-ingesting the fixed file maps
    to the same stable epoch, or a repair epoch if already manifested) stays
    replayable. Footer reads are O(KB) per file, no data scan."""
    import pyarrow.parquet as pq

    good: list[str] = []
    bad: list[dict] = []
    for f in files:
        try:
            pq.read_schema(f)
            good.append(f)
        except Exception as ex:  # corrupt footer / truncated / not parquet
            bad.append(
                {
                    "file": f,
                    "size_bytes": os.path.getsize(f) if os.path.exists(f) else -1,
                    "error": f"{type(ex).__name__}: {ex}",
                }
            )
    return good, bad


_SEGMENT_NO = re.compile(r"segment_(\d+)")

REPAIR_EPOCH_BASE = 90_000_000  # repair epochs live far above stream epochs


def repair_epoch_id(segment_basenames: list[str]) -> int:
    """Deterministic fresh epoch id for a late-segment repair unit: a given
    delta set always maps to the same id, so a killed repair run resumes
    idempotently; distinct deltas get distinct ids (the LWW merge is
    epoch-order-independent, so ANY unused id is correct)."""
    digest = hashlib.blake2b(
        ",".join(sorted(segment_basenames)).encode(), digest_size=4
    ).digest()
    return REPAIR_EPOCH_BASE + int.from_bytes(digest, "big") % 9_999_999


@dataclass(frozen=True)
class EpochUnit:
    """One epoch to apply: its id, its segment files, and — for a repair
    unit — the manifested stream epoch whose late segments it carries."""

    epoch: int
    files: list[str]
    repair_for: int | None = None

    @property
    def stream_epoch(self) -> int:
        return self.epoch if self.repair_for is None else self.repair_for

    def input_desc(self) -> dict:
        desc: dict = {"segments": [os.path.basename(f) for f in self.files]}
        if self.repair_for is not None:
            desc["repair_for_epoch"] = self.repair_for
        return desc


class LakeCoverage:
    """What a lake's epoch manifests already cover: the manifested epoch
    ids, the union of their input segment names (repairs included), and
    the ``manual_override`` epochs, which count as covering their whole
    epoch. Read from every manifest once; a single writer then keeps it
    current with :meth:`add` instead of re-reading the log each plan."""

    def __init__(self, lake_dir: str):
        self.lake_dir = lake_dir
        self.reload()

    def reload(self) -> None:
        self.epochs: set[int] = set()
        self.segments: set[str] = set()
        self.overridden: set[int] = set()
        for e in cl.committed_epochs(self.lake_dir):
            m = cl.read_manifest(self.lake_dir, e) or {}
            self.epochs.add(e)
            if m.get("manual_override"):
                self.overridden.add(e)
            self.segments.update(m.get("input", {}).get("segments", []))

    def add(self, unit: EpochUnit) -> None:
        """Record an applied (manifested) unit."""
        self.epochs.add(unit.epoch)
        self.segments.update(os.path.basename(f) for f in unit.files)


@dataclass
class EpochPlan:
    units: list[EpochUnit] = field(default_factory=list)  # repairs first
    skipped: list[int] = field(default_factory=list)  # fully covered epochs
    deferred: int = 0  # segments held back by finalize=False
    total: int = 0  # stream epochs the files map to


def plan_epochs(
    files: list[str],
    coverage: LakeCoverage,
    segments_per_epoch: int,
    finalize: bool = True,
) -> EpochPlan:
    """Map segment files to epochs and decide what to apply.

    Epoch identity is STABLE across runs with different file subsets and
    arrival orders: ``segment_NNNNNN`` belongs to epoch
    ``NNNNNN // segments_per_epoch``. Unparseable names fall back to
    positional grouping; any resulting overlap is harmless — the merge's
    per-key LWW and commit gates make over-replay a no-op.

    An epoch without a manifest is applied as itself. A manifested epoch
    is skipped unless it now has segments no manifest covers (a late
    segment): that delta becomes a repair unit under
    :func:`repair_epoch_id`, correct because the merge is
    epoch-order-independent. A ``manual_override`` epoch covers all its
    segments. ``finalize=False`` defers a trailing partial epoch (fewer
    than ``segments_per_epoch`` files), so a tailing caller never closes
    an epoch that may still gain segments; a partial epoch in the middle
    is applied, and its late segments are repaired.

    ``coverage`` may be a copy kept across calls; if a planned unit turns
    out to be manifested already (another writer or an admin override got
    there first), it is re-read from the lake and the plan redone.
    """
    groups: dict[int, list[str]] = {}
    for idx, f in enumerate(sorted(files)):
        m = _SEGMENT_NO.match(os.path.basename(f))
        groups.setdefault((int(m.group(1)) if m else idx) // segments_per_epoch, []).append(f)
    epochs = sorted(groups.items())
    deferred = 0
    if not finalize and epochs and len(epochs[-1][1]) < segments_per_epoch:
        deferred = len(epochs.pop()[1])
    plan = _plan(epochs, coverage)
    if any(cl.epoch_manifest_exists(coverage.lake_dir, u.epoch) for u in plan.units):
        coverage.reload()
        plan = _plan(epochs, coverage)
    plan.deferred, plan.total = deferred, len(epochs)
    return plan


def _plan(epochs: list[tuple[int, list[str]]], cov: LakeCoverage) -> EpochPlan:
    plan = EpochPlan()
    normal: list[EpochUnit] = []
    for epoch, efiles in epochs:
        if epoch not in cov.epochs:
            normal.append(EpochUnit(epoch, efiles))
            continue
        delta = [] if epoch in cov.overridden else [
            f for f in efiles if os.path.basename(f) not in cov.segments
        ]
        rep = repair_epoch_id([os.path.basename(f) for f in delta]) if delta else None
        if rep is None or rep in cov.epochs:
            plan.skipped.append(epoch)
        else:
            plan.units.append(EpochUnit(rep, delta, repair_for=epoch))
    plan.units += normal
    return plan
