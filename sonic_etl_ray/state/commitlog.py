"""Idempotent commit log, per-partition watermarks and lineage for the lake.

The reference achieves effective exactly-once with three loosely coupled
mechanisms — Pub/Sub ack boundaries (``sonic_config/mod.rs:140-164``), a
resumption topic (``indexing_coordinator/publish_ranges.py:148-203``), a
file-per-range resume dir (``main.rs:188-241``) — plus a daily MERGE repair.
Here exactly-once is inline and transactional per ``(epoch, partition)``:

- every merge applier writes its partition state file to a temp name and
  renames it, then writes a commit record (JSON) the same way — the rename
  is the atomic commit point;
- a commit record carries the lineage the north rule demands: input segment
  offsets (LSN span), batch/event counts, applied-LSN watermark, schema
  version, data-file name, checkpoint epoch;
- re-executed tasks (Ray retry, killed-and-resumed runs, duplicate segment
  delivery) find the commit record and become no-ops.

On a multi-node cluster ``lake_dir`` is shared storage (NFS/S3-style); all
operations here are rename-atomic and never read-modify-write a shared file,
so concurrent appliers for different partitions never conflict.

Layout (``S`` is the partition's monotone commit sequence, which orders
reads; ``E`` is the epoch that wrote the file)::

    lake/
      _commits/epoch=E/part=P.json     # per-partition commit + lineage
      _commits/epoch=E.MANIFEST.json   # epoch fully applied (driver-written)
      _commits/CHECKPOINT.json         # compact_commits roll-up of the two above
      _commits/_frontier.json          # rolling {part: seq} read frontier
      _commits/_schema_evolved         # sticky marker: some file's schema evolved
      part=P/state-seq=S-epoch=E.parquet   # full partition state (COW / base)
      part=P/delta-seq=S-epoch=E.parquet   # merge-on-read delta (per-key winners)
      part=P/stats-seq=S-epoch=E.parquet   # per-repo stats sidecar of a state file
      part=P/state-seq=S-epoch=E.parquet.compaction.json  # compaction base lineage
      _WRITER_LEASE.json               # single-writer lease, while held
"""

from __future__ import annotations

import json
import os
import re
import uuid
from typing import Any

EPOCH_FMT = "epoch={:08d}"
PART_FMT = "part={:05d}"

# rolled-up commit log: one file subsuming any number of per-epoch
# manifests + per-(epoch, partition) commit records (see compact_commits)
CHECKPOINT_NAME = "CHECKPOINT.json"

# (path → (mtime_ns, parsed)) — the checkpoint only changes via the offline
# compact_commits admin op, never during an ingest run, so mtime caching is
# safe; it keeps is_committed() O(1) when called once per state file
_CHECKPOINT_CACHE: dict[str, tuple[int, dict[str, Any]]] = {}


def checkpoint_path(lake_dir: str) -> str:
    return os.path.join(lake_dir, "_commits", CHECKPOINT_NAME)


def read_checkpoint(lake_dir: str) -> dict[str, Any] | None:
    p = checkpoint_path(lake_dir)
    try:
        mtime = os.stat(p).st_mtime_ns
    except FileNotFoundError:
        return None
    hit = _CHECKPOINT_CACHE.get(p)
    if hit is not None and hit[0] == mtime:
        return hit[1]
    with open(p, "rb") as f:
        data = json.loads(f.read())
    _CHECKPOINT_CACHE[p] = (mtime, data)
    return data


def compact_commits(lake_dir: str) -> dict[str, int]:
    """Roll every MANIFESTED epoch's manifest + per-partition commit records
    into the single checkpoint file, then delete the rolled-up files.

    Why: resume planning reads one manifest per committed epoch — O(epochs)
    small-file reads, which at 10^10-event scale (10^4–10^5 epochs) dominates
    job startup. After compaction, resume is one checkpoint read plus only
    the epochs committed since (the reference's ``indexed_blocks/`` resume
    dir has the same unbounded-file-count flaw, ``main.rs:188-241``).

    Crash-safe: the checkpoint is atomically written BEFORE any file is
    deleted, and every reader unions file-level records with the checkpoint
    (file wins), so a crash mid-delete just leaves benign duplicates.
    Epochs without a manifest (in-flight or crashed runs) are left alone —
    their per-partition commit gates still guard re-application. Offline
    admin op, like vacuum: never run it concurrently with an ingest.
    """
    cp = read_checkpoint(lake_dir) or {"manifests": {}, "records": {}}
    manifests: dict[str, Any] = dict(cp.get("manifests", {}))
    records: dict[str, Any] = dict(cp.get("records", {}))
    rolled_epochs = rolled_records = 0
    to_delete: list[str] = []
    d = os.path.join(lake_dir, "_commits")
    if not os.path.isdir(d):
        return {"epochs": 0, "records": 0}
    for name in sorted(os.listdir(d)):
        if not name.endswith(".MANIFEST.json"):
            continue
        epoch = int(name.split("=")[1].split(".")[0])
        mpath = os.path.join(d, name)
        with open(mpath, "rb") as f:
            manifests[str(epoch)] = json.loads(f.read())
        to_delete.append(mpath)
        rolled_epochs += 1
        cdir = commit_dir(lake_dir, epoch)
        if os.path.isdir(cdir):
            for pname in sorted(os.listdir(cdir)):
                if not pname.endswith(".json"):
                    continue
                with open(os.path.join(cdir, pname), "rb") as f:
                    rec = json.loads(f.read())
                records[f"{epoch}:{int(rec['part'])}"] = rec
                rolled_records += 1
            to_delete.append(cdir)
    if rolled_epochs:
        _atomic_write(
            checkpoint_path(lake_dir),
            json.dumps({"manifests": manifests, "records": records}, sort_keys=True).encode(),
        )
        import shutil as _shutil

        for p in to_delete:
            if os.path.isdir(p):
                _shutil.rmtree(p, ignore_errors=True)
            elif os.path.exists(p):
                os.remove(p)
    return {"epochs": rolled_epochs, "records": rolled_records}


def _atomic_write(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp.{uuid.uuid4().hex[:8]}"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    os.rename(tmp, path)


def commit_dir(lake_dir: str, epoch: int) -> str:
    return os.path.join(lake_dir, "_commits", EPOCH_FMT.format(epoch))


def commit_path(lake_dir: str, epoch: int, part: int) -> str:
    return os.path.join(commit_dir(lake_dir, epoch), PART_FMT.format(part) + ".json")


def manifest_path(lake_dir: str, epoch: int) -> str:
    return os.path.join(lake_dir, "_commits", EPOCH_FMT.format(epoch) + ".MANIFEST.json")


def state_path(lake_dir: str, part: int, epoch: int, seq: int) -> str:
    """State files are keyed by a per-partition monotone commit SEQUENCE, not
    by epoch: the tombstone-LWW merge is order-independent, so out-of-order
    backfill epochs rebase onto the newest state and must supersede it — the
    newest WRITE wins reads, whatever its epoch number."""
    return os.path.join(
        lake_dir,
        PART_FMT.format(part),
        f"state-seq={seq:08d}-{EPOCH_FMT.format(epoch)}.parquet",
    )


def delta_path(lake_dir: str, part: int, epoch: int, seq: int) -> str:
    """Merge-on-read DELTA file: only the epoch's per-key winners (state-row
    schema, tombstones included) — no prior read, no full-partition rewrite.
    Readers resolve base ∪ trailing deltas with the same LWW reduction the
    copy-on-write merge uses (the Hudi MOR / log-file model); a compaction
    folds deltas into a new ``state-`` base under the same seq ordering."""
    return os.path.join(
        lake_dir,
        PART_FMT.format(part),
        f"delta-seq={seq:08d}-{EPOCH_FMT.format(epoch)}.parquet",
    )


def list_part_files(lake_dir: str, part: int) -> list[tuple[int, int, str, str]]:
    """All committed data files for a partition as (seq, epoch, path, kind),
    seq-ascending; kind ∈ {'state', 'delta'}. Uncommitted files (orphans of
    crashed appliers) are ignored — the retry rewrites them deterministically."""
    pdir = os.path.join(lake_dir, PART_FMT.format(part))
    if not os.path.isdir(pdir):
        return []
    out = []
    for name in os.listdir(pdir):
        for kind in ("state", "delta"):
            pre = f"{kind}-seq="
            if name.startswith(pre) and name.endswith(".parquet"):
                body = name[len(kind) + 1 : -len(".parquet")]
                seq_part, epoch_part = body.split("-")
                seq, epoch = int(seq_part.split("=")[1]), int(epoch_part.split("=")[1])
                if is_committed(lake_dir, epoch, part):
                    out.append((seq, epoch, os.path.join(pdir, name), kind))
    return sorted(out)


def next_seq(lake_dir: str, part: int) -> int:
    """Next per-partition commit sequence number (0 for an empty partition).
    Based on COMMITTED files only, so a crashed applier's orphan is reused
    (same deterministic name) rather than leaking a gap."""
    files = list_part_files(lake_dir, part)
    return (files[-1][0] + 1) if files else 0


def latest_file(
    lake_dir: str, part: int, max_epoch: int | None = None
) -> tuple[str, int, int, str] | None:
    """Newest committed (path, epoch, seq, kind) data file of ANY kind —
    the per-partition frontier (watermark lookups, noop-commit references)."""
    files = list_part_files(lake_dir, part)
    if max_epoch is not None:
        files = [f for f in files if f[1] <= max_epoch]
    if not files:
        return None
    seq, epoch, path, kind = files[-1]
    return path, epoch, seq, kind


def is_committed(lake_dir: str, epoch: int, part: int) -> bool:
    """O(1) commit-gate check that survives checkpoint compaction: the live
    JSON file OR the (mtime-cached) checkpoint's records map. Readers
    gating data files on a commit (e.g. the sidecar families) MUST use
    this, not a raw ``commit_path`` existence check — ``compact_commits``
    deletes the rolled-up files."""
    if os.path.exists(commit_path(lake_dir, epoch, part)):
        return True
    cp = read_checkpoint(lake_dir)
    return cp is not None and f"{epoch}:{part}" in cp.get("records", {})


def epoch_manifest_exists(lake_dir: str, epoch: int) -> bool:
    if os.path.exists(manifest_path(lake_dir, epoch)):
        return True
    cp = read_checkpoint(lake_dir)
    return cp is not None and str(epoch) in cp.get("manifests", {})


def write_commit(lake_dir: str, record: dict[str, Any]) -> None:
    """Atomically record a per-(epoch, partition) commit with lineage."""
    epoch, part = record["epoch"], record["part"]
    os.makedirs(commit_dir(lake_dir, epoch), exist_ok=True)
    _atomic_write(
        commit_path(lake_dir, epoch, part),
        json.dumps(record, sort_keys=True).encode(),
    )


def read_commit(lake_dir: str, epoch: int, part: int) -> dict[str, Any] | None:
    p = commit_path(lake_dir, epoch, part)
    if os.path.exists(p):
        with open(p, "rb") as f:
            return json.loads(f.read())
    cp = read_checkpoint(lake_dir)
    if cp is not None:
        return cp.get("records", {}).get(f"{epoch}:{part}")
    return None


_SEQ_RE = re.compile(r"seq=(\d+)")


def seq_of_data_file(path: Any) -> int | None:
    """Per-partition commit SEQ parsed off a data-file name (state-seq=N /
    delta-seq=N). None for empty/unparseable paths (pre-feature records)."""
    m = _SEQ_RE.search(os.path.basename(str(path or "")))
    return int(m.group(1)) if m else None


def _frontier_seqs(lake_dir: str) -> dict[str, int]:
    """Every partition's newest committed data-file SEQ right now — the
    lake-wide commit-order cursor a manifest snapshots (see commit_seq).
    O(partitions) listing + per-file commit checks: the cold-start /
    unknown-caller fallback only; the apply loop maintains the same cursor
    incrementally via ``frontier_updates`` (see write_manifest)."""
    out: dict[str, int] = {}
    if not os.path.isdir(lake_dir):
        return out
    for name in os.listdir(lake_dir):
        if name.startswith("part="):
            try:
                part = int(name.split("=")[1])
            except ValueError:
                continue
            f = latest_file(lake_dir, part)
            if f is not None:
                out[str(part)] = f[2]
    return out


def _rolling_frontier_path(lake_dir: str) -> str:
    return os.path.join(lake_dir, "_commits", "_frontier.json")


def has_rolling_frontier(lake_dir: str) -> bool:
    """True once any manifest-writing code of this version has touched the
    lake — readers use it to distinguish 'marker absent because the lake
    never evolved' from 'marker absent because the lake predates the
    marker' (see ingest.read_lake)."""
    return os.path.exists(_rolling_frontier_path(lake_dir))


def _evolution_marker_path(lake_dir: str) -> str:
    return os.path.join(lake_dir, "_commits", "_schema_evolved")


def note_schema_evolution(lake_dir: str) -> None:
    """Sticky marker: some committed data file's schema differs from the
    core STATE schema (column adds / type widening). Written by the merge
    the moment it commits an evolved file; never cleared (conservative —
    compaction may later re-homogenize, the marker only gates an
    optimization). Lets filtered reads skip the O(live files) footer walk
    entirely on never-evolved lakes (see ingest.read_lake)."""
    path = _evolution_marker_path(lake_dir)
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "a"):
            pass


def schema_ever_evolved(lake_dir: str) -> bool:
    return os.path.exists(_evolution_marker_path(lake_dir))


def write_manifest(
    lake_dir: str,
    epoch: int,
    summary: dict[str, Any],
    frontier_updates: dict[int, int] | None = None,
) -> None:
    """Atomically publish the epoch's driver manifest. Every manifest also
    snapshots ``frontier_seqs`` — each partition's committed data-file seq
    at manifest time — which makes time travel exact in COMMIT order even
    for partitions the epoch itself never touched (no commit record).

    ``frontier_updates`` ({part: seq} for the partitions this epoch
    committed, read off the commit records the caller already holds) makes
    the snapshot O(touched): it folds into the rolling ``_frontier.json``
    cursor instead of re-listing every partition — the full-lake scan a
    sparse epoch on a 10^4-partition lake must not pay per commit. Without
    it (unknown callers, pre-feature lakes) the full scan runs, which is
    always correct. The rolling cursor is written BEFORE the manifest: a
    crash between the two leaves the cursor reflecting files that ARE
    committed, and the epoch replay folds the same updates idempotently.
    Captured under the single-writer discipline the apply loop already
    assumes; a concurrent writer racing the manifest write could inflate a
    frontier by its own just-committed files (run under the writer lease
    for serial semantics)."""
    summary = dict(summary)
    os.makedirs(os.path.join(lake_dir, "_commits"), exist_ok=True)
    if "frontier_seqs" not in summary:
        rolling = _rolling_frontier_path(lake_dir)
        base: dict[str, int] | None = None
        if frontier_updates is not None and os.path.exists(rolling):
            try:
                with open(rolling, "rb") as f:
                    base = json.loads(f.read())
            except (OSError, ValueError):
                base = None
        if base is None:
            base = _frontier_seqs(lake_dir)
        if frontier_updates:
            for p, s in frontier_updates.items():
                k = str(int(p))
                if int(s) > int(base.get(k, -1)):
                    base[k] = int(s)
        summary["frontier_seqs"] = base
        _atomic_write(rolling, json.dumps(base, sort_keys=True).encode())
    _atomic_write(
        manifest_path(lake_dir, epoch), json.dumps(summary, sort_keys=True).encode()
    )


def commit_seq(lake_dir: str, epoch: int, part: int) -> int | None:
    """The partition's data-file SEQ at the end of ``epoch`` — the exact
    time-travel cursor in COMMIT order, read off the (epoch, part) commit
    record's ``data_file`` name (noop commits reference the prior frontier,
    which is exactly the right cursor). Epoch NUMBERS are not commit order:
    out-of-band admin epochs (repair 90M+, DML 200M+) commit between small
    stream epochs, and out-of-order backfills commit big-epoch data early —
    per-partition seq is the only total order. Partitions the epoch never
    touched have no commit record; their cursor comes from the epoch
    manifest's ``frontier_seqs`` snapshot — a snapshot that EXISTS but lacks
    the partition is authoritative emptiness (the partition had no committed
    files at that point in commit order) and returns -1, so time-travel
    reads exclude files committed after the epoch instead of leaking them
    through the numeric fallback. ``None`` only when neither record nor
    snapshot exists (pre-feature lake, vacuumed epoch): callers fall back
    to epoch-number filtering."""
    rec = read_commit(lake_dir, epoch, part)
    if rec is not None:
        s = seq_of_data_file(rec.get("data_file"))
        if s is not None:
            return s
    man = read_manifest(lake_dir, epoch)
    if man is not None and "frontier_seqs" in man:
        return int(man["frontier_seqs"].get(str(part), -1))
    return None


def read_manifest(lake_dir: str, epoch: int) -> dict[str, Any] | None:
    p = manifest_path(lake_dir, epoch)
    if os.path.exists(p):
        with open(p, "rb") as f:
            return json.loads(f.read())
    cp = read_checkpoint(lake_dir)
    if cp is not None:
        return cp.get("manifests", {}).get(str(epoch))
    return None


def committed_epochs(lake_dir: str) -> list[int]:
    """Epochs with a driver manifest (fully applied), ascending — live
    manifest files unioned with the compacted checkpoint."""
    d = os.path.join(lake_dir, "_commits")
    out: set[int] = set()
    if os.path.isdir(d):
        for name in os.listdir(d):
            if name.endswith(".MANIFEST.json"):
                out.add(int(name.split("=")[1].split(".")[0]))
    cp = read_checkpoint(lake_dir)
    if cp is not None:
        out.update(int(e) for e in cp.get("manifests", {}))
    return sorted(out)


def partition_watermark(lake_dir: str, part: int) -> int:
    """Applied-LSN high watermark for a partition (−1 if none committed).

    Read from COMMIT RECORDS, not data files: a fully-suppressed epoch
    commits a file-less noop record whose applied_lsn advanced — keying the
    watermark off the newest data file (the previous implementation) made
    it regress after every suppressed epoch. The newest LIVE epoch's record
    is read (one glob, one JSON), plus the max over the mtime-cached
    checkpoint's compacted records. Exact for in-order tailing; an
    out-of-order repair epoch with a larger epoch id can only over-state —
    applied_lsn is lineage/metrics, never a merge-correctness input."""
    import glob as _glob
    import re as _re

    hi = -1
    suffix = PART_FMT.format(part) + ".json"
    live = _glob.glob(os.path.join(lake_dir, "_commits", "epoch=*", suffix))
    if live:
        newest = max(
            live, key=lambda p: int(_re.search(r"epoch=(\d+)", p).group(1))
        )
        try:
            with open(newest, "rb") as fh:
                hi = int(json.loads(fh.read()).get("applied_lsn", -1))
        except (OSError, ValueError):
            pass
    cp = read_checkpoint(lake_dir)
    if cp is not None:
        tail = f":{part}"
        for k, rec in cp.get("records", {}).items():
            if k.endswith(tail):
                hi = max(hi, int(rec.get("applied_lsn", -1)))
    return hi


# --------------------------------------------------------------- writer lease

LEASE_NAME = "_WRITER_LEASE.json"


class LeaseHeld(RuntimeError):
    """Another live writer holds the lake's lease."""


def _lease_path(lake_dir: str) -> str:
    return os.path.join(lake_dir, LEASE_NAME)


def acquire_writer_lease(lake_dir: str, owner: str, ttl_s: float = 60.0) -> str:
    """Single-writer guard: the commit log's exactly-once reasoning assumes
    one writer per lake (the reference gets this from its single
    coordinator, ``coordinator/publish_ranges.py``). Acquisition is an
    O_CREAT|O_EXCL create of ``_WRITER_LEASE.json``; a holder refreshes the
    file mtime as a heartbeat (:func:`refresh_writer_lease`), and a lease
    whose heartbeat is older than ``ttl_s`` is STALE and taken over
    atomically (rename-away + exclusive re-create, so two concurrent
    claimants cannot both win). Returns an opaque token the holder must
    present to refresh/release.

    Scope: node-local filesystems / POSIX semantics (this sandbox). On a
    real cluster the same protocol runs against any store with atomic
    create/rename (the lease file is deliberately tiny and single-key)."""
    import json
    import time
    import uuid

    os.makedirs(lake_dir, exist_ok=True)
    path = _lease_path(lake_dir)
    token = uuid.uuid4().hex
    payload = json.dumps(
        {"owner": owner, "pid": os.getpid(), "token": token, "ttl_s": ttl_s}
    ).encode()
    def _create_excl(content: bytes) -> bool:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "wb") as f:
            f.write(content)
        return True

    took_over = False
    while True:
        if _create_excl(payload):
            return token
        if took_over:
            # we renamed the stale corpse away, yet someone else created a
            # FRESH lease before our create — they won the takeover
            raise LeaseHeld(f"writer lease on {lake_dir} re-acquired by another claimant")
        # mtime and content MUST come from one snapshot (fstat + read on the
        # same fd): stat-then-open lets a rival replace the lease in between,
        # making us judge staleness on the OLD file but verify the takeover
        # against the NEW one — which would pass and evict a live lease
        try:
            fd = os.open(path, os.O_RDONLY)
        except FileNotFoundError:
            continue  # released/replaced between create and open — retry
        try:
            snap = os.fstat(fd)
            raw = os.read(fd, 1 << 16)
        finally:
            os.close(fd)
        age = time.time() - snap.st_mtime
        try:
            holder = json.loads(raw)
        except ValueError:
            # torn/empty lease (writer killed between O_EXCL create and
            # write). Recent → the write may still complete: report held.
            # Older than the claimant's TTL → treat as a stale corpse and
            # take it over (retry-forever here would wedge the lake on a
            # permanently torn file).
            if age <= ttl_s:
                raise LeaseHeld(
                    f"writer lease on {lake_dir} is mid-write "
                    f"(torn file, {age:.1f}s old)"
                )
            holder = {}
        # staleness is judged against the TTL the HOLDER acquired with
        # (persisted in the lease) — a claimant passing a smaller ttl_s must
        # not steal from a holder heartbeating at its own granted cadence
        holder_ttl = float(holder.get("ttl_s", ttl_s))
        if age <= holder_ttl:
            raise LeaseHeld(
                f"writer lease on {lake_dir} held by "
                f"{holder.get('owner')!r} (pid {holder.get('pid')}, "
                f"heartbeat {age:.1f}s ago, ttl {holder_ttl}s)"
            )
        # Stale: move the corpse to a CLAIMANT-UNIQUE name (atomic; two
        # claimants cannot both grab it), then VERIFY the grabbed file is
        # the lease we judged stale. Without the verify, a slow claimant's
        # rename can evict a rival's freshly re-created lease (judged on
        # the old file, acted on the new one).
        corpse = f"{path}.stale.{token}"
        try:
            os.replace(path, corpse)
        except FileNotFoundError:
            continue  # another claimant took the corpse first — re-check
        try:
            with open(corpse, "rb") as f:
                corpse_raw = f.read()
            # rename preserves mtime: a corpse mtime NEWER than our snapshot
            # means the holder heartbeat between our judgment and the rename
            # — same token, but the lease was live; restore it
            heartbeat_since = os.stat(corpse).st_mtime > snap.st_mtime
        except FileNotFoundError:
            corpse_raw, heartbeat_since = b"", False
        try:
            grabbed = json.loads(corpse_raw)
        except ValueError:
            grabbed = {}
        if grabbed.get("token") != holder.get("token") or heartbeat_since:
            # we evicted a lease that CHANGED after our staleness snapshot —
            # restore its verbatim bytes (best effort; if a third claimant
            # already created a new lease, the evicted holder is fenced at
            # its next refresh) and report the lake as held
            if corpse_raw:
                _create_excl(corpse_raw)
            try:
                os.remove(corpse)
            except FileNotFoundError:
                pass
            raise LeaseHeld(f"writer lease on {lake_dir} was re-acquired during takeover")
        os.remove(corpse)
        took_over = True


def _read_lease_token(path: str) -> str | None:
    try:
        with open(path, "rb") as f:
            return json.loads(f.read()).get("token")
    except (FileNotFoundError, ValueError):
        return None


def refresh_writer_lease(lake_dir: str, token: str) -> None:
    """Heartbeat: bump the lease mtime. Raises if the caller no longer
    holds it (fenced out after a stale takeover).

    Verified BOTH before and after the ``utime``: a takeover completing
    between the read and the bump would otherwise let a paused-and-woken
    zombie bump the NEW holder's lease and believe its refresh succeeded —
    two live writers. The post-bump re-read fences the zombie (the stray
    mtime bump on the rival's lease merely extends it, which is harmless)."""
    path = _lease_path(lake_dir)
    if _read_lease_token(path) != token:
        raise LeaseHeld(f"writer lease on {lake_dir} was taken over or lost")
    try:
        os.utime(path)
    except FileNotFoundError:
        raise LeaseHeld(f"writer lease on {lake_dir} was lost (file gone)")
    if _read_lease_token(path) != token:
        raise LeaseHeld(f"writer lease on {lake_dir} was taken over")


def release_writer_lease(lake_dir: str, token: str) -> None:
    """Release if still held by this token (a taken-over lease is left to
    its new owner). Rename-then-verify: a plain read-check-remove could
    delete a rival's lease created between the check and the remove."""
    import uuid

    path = _lease_path(lake_dir)
    tmp = f"{path}.release.{uuid.uuid4().hex[:8]}"
    try:
        os.replace(path, tmp)
    except FileNotFoundError:
        return
    if _read_lease_token(tmp) == token:
        os.remove(tmp)
        return
    # not ours — put the rival's lease back (verbatim bytes, best effort)
    with open(tmp, "rb") as f:
        content = f.read()
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        with os.fdopen(fd, "wb") as f:
            f.write(content)
    except FileExistsError:
        pass  # a third writer already created a fresh lease
    os.remove(tmp)
