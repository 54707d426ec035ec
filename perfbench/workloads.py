"""Workload drivers for the repo benchmark.

Every run: set-up (stream generation from the seed, Ray start and warm-up,
lake preload), a timed region against the public API of ``sonic_etl_ray``,
then oracle gates outside the timed region. All streams and lakes of a run
live under one directory, removed when the run ends.

In the timed region one client alternates writes with read rounds (a few
single-key ``lookup_keys``, a consistent ``read_lake`` scan consumed with
``iter_batches``, ``read_change_feed`` over the last epochs), so that both
kinds of operation sample the whole region. Workloads (shapes in
``config.json``):

- ``backfill``: the writes are ``run_ingest`` reps, each replaying the whole
  seeded stream into an empty lake in a few large epochs; the reads go to
  the first rep's lake.
- ``tail``: a preloaded bounded-key lake; each write releases one small
  update-heavy segment into the watched directory and calls
  ``Tailer.tick()``; the reads go to the same lake, which gains a version
  per partition with every tick.

Timing statistics keep the half of each kind of operation that ran with
the least host CPU steal (see ``quietest``); every operation is checked.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import re
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable

import duckdb
import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from sonic_etl_ray.generator import StreamSpec, generate_stream
from sonic_etl_ray.oracle import assert_state_equal, oracle_final_state
from sonic_etl_ray.pipelines import ingest as ing
from sonic_etl_ray.pipelines import tail as tail_mod
from sonic_etl_ray.pipelines.ingest import (
    lake_final_table,
    lookup_keys,
    read_change_feed,
    read_lake,
    run_ingest,
)
from sonic_etl_ray.pipelines.tail import Tailer, set_watermark_override
from sonic_etl_ray.stages.keys import KEY_SEP, key_strings, stable_hash64
from sonic_etl_ray.state import commitlog as cl

import replay as rp

FEED_COLS = ["change_type", "repo", "path", "lsn"]


class Run:
    """One benchmark run: its private directory and its operation tally."""

    def __init__(self, root: str, cfg: dict, workload: str, seed: int):
        self.root = root
        self.cfg = cfg
        self.workload = workload
        self.wcfg = cfg["workloads"][workload]
        self.seed = seed
        self.P = cfg["num_partitions"]
        self.dir = os.path.join(root, ".bench_run", f"{os.getpid()}-{seed}-{workload}")
        self.attempted = 0
        self.failed = 0

    def op(self, fn: Callable, *args, **kwargs) -> Any:
        """Run one counted operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def gate(self, ok: bool, n_ops: int = 1, what: str = "") -> None:
        """Oracle verdict on ``n_ops`` already-attempted operations."""
        if not ok:
            self.failed += n_ops
            print(f"oracle mismatch: {what}", file=sys.stderr)


# ---------------------------------------------------------------- helpers


def percentile(values: list[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), p))


CLK_TCK = os.sysconf("SC_CLK_TCK")


def stolen_cpu_s() -> float:
    """CPU time the hypervisor has so far given to other guests while this
    VM's vCPUs wanted to run (``steal`` in /proc/stat, all vCPUs)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / CLK_TCK


@dataclass
class Timed:
    """One timed operation: its wall time and the host CPU steal during it."""

    wall_s: float
    stolen_s: float


class Stopwatch:
    def __init__(self):
        self.t0, self.s0 = time.perf_counter(), stolen_cpu_s()

    def stop(self) -> Timed:
        return Timed(time.perf_counter() - self.t0, stolen_cpu_s() - self.s0)


def quiet_count(n: int) -> int:
    """How many of ``n`` timed operations the statistics keep."""
    return (n + 1) // 2


def quietest(ops: list, timed: Callable[[Any], Timed] = lambda op: op) -> list:
    """The ``quiet_count`` operations that ran with the least host CPU steal
    per second of wall time, in run order. On a shared host a neighbour's
    burst stalls every process of the run at once and shifts all timings of
    a run by tens of percent; ranking by steal per second of the operation
    (not by its duration) keeps the operations that ran on an undisturbed
    machine. Steal is counted in 10 ms ticks, so of operations much shorter
    than that a longer one is somewhat likelier to be dropped. On a quiet host most operations see no steal; ties
    are broken by a fixed scramble of run order (golden-ratio steps), so the
    operations kept spread over the whole run."""
    rate = [timed(op).stolen_s / timed(op).wall_s for op in ops]
    order = sorted(range(len(ops)), key=lambda i: (rate[i], (i * 0.6180339887) % 1.0))
    keep = sorted(order[: quiet_count(len(ops))])
    return [ops[i] for i in keep]


def tree_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


def start_timing() -> None:
    """Collect and freeze the set-up's garbage, so the collector's passes in
    the timed region scan only what the region allocates, and restart
    VmHWM so peak_rss_mb() covers only what follows."""
    gc.collect()
    gc.freeze()
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError as e:
        print(f"note: cannot reset peak RSS ({e}); it covers the whole run", file=sys.stderr)


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        kb = re.search(r"VmHWM:\s+(\d+)", f.read()).group(1)
    return int(kb) / 1024.0


def make_stream(out_dir: str, stream_cfg: dict, seed: int) -> list[str]:
    return generate_stream(out_dir, StreamSpec(seed=seed, **stream_cfg))


def state_ok(lake: str, gold) -> bool:
    try:
        assert_state_equal(lake_final_table(lake), gold)
        return True
    except AssertionError as e:
        print(f"lake {lake}: {e}", file=sys.stderr)
        return False


# ---------------------------------------------------------------- Ray


def start_ray(run: Run) -> None:
    """Start a local Ray with the benchmark's fixed CPU count. Workers get
    the repo root on PYTHONPATH, so the package imports in them whatever
    the caller's cwd and environment."""
    ray_tmp = os.path.join(run.root, ".rt")
    # AF_UNIX socket paths under <temp>/session_<stamp>_<pid>/sockets/ must
    # stay below 108 bytes; a long checkout path falls back to Ray's default
    temp_dir = ray_tmp if len(ray_tmp) <= 40 else None
    if temp_dir is None:
        print(f"note: checkout path too long for Ray sockets, using Ray's default temp dir", file=sys.stderr)
    pythonpath = os.pathsep.join(p for p in (run.root, os.environ.get("PYTHONPATH")) if p)
    ray.init(
        address="local",
        num_cpus=run.cfg["num_cpus"],
        object_store_memory=run.cfg["object_store_mb"] << 20,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        _temp_dir=temp_dir,
        runtime_env={"env_vars": {"PYTHONPATH": pythonpath}},
    )
    ray.data.DataContext.get_current().enable_progress_bars = False


def _process_table() -> dict[int, int]:
    """{pid: parent pid} of every live (non-zombie) process."""
    table: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                state, ppid = f.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        if state != "Z":
            table[int(name)] = int(ppid)
    return table


def stop_ray(timeout_s: float = 30.0) -> None:
    """Shut Ray down and wait until every process below this one has ended
    (workers are the raylet's children, so the whole tree is tracked)."""
    table = _process_table()
    started: set[int] = set()
    frontier = {os.getpid()}
    while frontier:
        frontier = {p for p, pp in table.items() if pp in frontier and p not in started}
        started |= frontier
    if ray.is_initialized():
        ray.shutdown()
    deadline = time.monotonic() + timeout_s
    while started & set(_process_table()):
        if time.monotonic() > deadline:
            alive = sorted(started & set(_process_table()))
            print(f"warning: processes still alive after Ray shutdown: {alive}", file=sys.stderr)
            return
        time.sleep(0.1)


def warm_up(run: Run) -> None:
    """Spin up workers, pre-fault worker heaps and the object store, and
    export the lazily registered tasks, through every surface the timed
    region uses, on a throwaway lake."""
    d = os.path.join(run.dir, "warm")
    files = make_stream(os.path.join(d, "segs"), run.cfg["warmup_stream"], run.seed)
    lake = os.path.join(d, "lake")
    run_ingest(files, lake, num_partitions=run.P, segments_per_epoch=len(files) // 2)
    gold = oracle_final_state(files)
    Reader(run, lake, KeySampler(gold, run.cfg["read_loop"], run.seed)).round([1])
    shutil.rmtree(d, ignore_errors=True)


# ---------------------------------------------------------------- set-up


@dataclass
class TailLake:
    """A preloaded lake plus the watched directory a tailer polls."""

    watch: str
    lake: str
    applied: list[str]  # segment files in the watched directory, in order
    pending: list[str]  # generated segments not yet released
    preload_epochs: int


def setup_tail_lake(run: Run, tag: str) -> TailLake:
    w = run.wcfg
    d = os.path.join(run.dir, tag)
    files = make_stream(os.path.join(d, "hold"), w["stream"], run.seed)
    watch = os.path.join(d, "watch")
    os.makedirs(watch)
    k = w["preload_segments"]
    applied = []
    for f in files[:k]:
        dst = os.path.join(watch, os.path.basename(f))
        os.rename(f, dst)
        applied.append(dst)
    lake = os.path.join(d, "lake")
    run_ingest(applied, lake, num_partitions=run.P, segments_per_epoch=w["preload_segments_per_epoch"])
    # the tailer numbers epochs by segment position: mark the preloaded
    # positions applied so it starts at the first released segment
    set_watermark_override(lake, k)
    return TailLake(watch, lake, applied, files[k:], k)


@dataclass
class WriteOp:
    """One tick or one backfill rep. A tick's freshness is its
    release-to-commit time; a backfill rep has one per segment, its rep
    start to its epoch's commit."""

    timed: Timed
    events: int
    freshness: list[float]


@dataclass
class WriteStats:
    input_bytes: int = 0
    lake_bytes_added: int = 0
    ops: list[WriteOp] = field(default_factory=list)
    rep_write_amp: list[float] = field(default_factory=list)


class TickWriter:
    """One producer on a tailed lake: each step releases the next segment
    into the watched directory and calls ``Tailer.tick()``."""

    def __init__(self, run: Run, tl: TailLake, stats: WriteStats):
        self.run, self.tl, self.stats = run, tl, stats
        self.tailer = Tailer(tl.watch, tl.lake, num_partitions=run.P, segments_per_epoch=1)
        self.epochs: list[int] = []  # epochs applied, in order

    def step(self) -> bool:
        """One release and tick; False when no segment is left."""
        tl = self.tl
        if not tl.pending:
            return False
        src = tl.pending.pop(0)
        dst = os.path.join(tl.watch, os.path.basename(src))
        n_ev = pq.read_metadata(src).num_rows
        n_bytes = os.path.getsize(src)
        sw = Stopwatch()
        os.rename(src, dst)  # release
        res = self.run.op(self.tailer.tick)
        tm = sw.stop()
        tl.applied.append(dst)
        if res is None:  # the failure is already counted
            return True
        if res["epochs_applied"] != 1:
            self.run.gate(False, what=f"tick applied {res['epochs_applied']} epochs, not 1")
            return True
        self.epochs.append(len(tl.applied) - 1)
        self.stats.ops.append(WriteOp(tm, n_ev, [tm.wall_s]))
        self.stats.input_bytes += n_bytes
        return True


def tick_loop(run: Run, tl: TailLake, stats: WriteStats, n_ticks: int) -> list[int]:
    """``n_ticks`` releases and ticks back to back; the epochs applied."""
    writer = TickWriter(run, tl, stats)
    while len(writer.epochs) < n_ticks and writer.step():
        pass
    return writer.epochs


# ---------------------------------------------------------------- reads


class KeySampler:
    """Seeded single-key lookups: live keys, hot-repo keys and absent keys."""

    def __init__(self, gold, read_cfg: dict, seed: int, n: int = 4096):
        rng = np.random.default_rng(seed + 7919)
        repos = gold.column("repo").to_pylist()
        paths = gold.column("path").to_pylist()
        live = list(zip(repos, paths))
        hot = [k for k in live if k[0] == read_cfg["hot_repo"]] or live
        mix = read_cfg["key_mix"]
        kinds = rng.choice(3, size=n, p=[mix["live"], mix["hot"], mix["absent"]])
        self.keys = []
        for i, kind in enumerate(kinds):
            if kind == 0:
                self.keys.append(live[rng.integers(len(live))])
            elif kind == 1:
                self.keys.append(hot[rng.integers(len(hot))])
            else:
                self.keys.append((live[rng.integers(len(live))][0], f"src/absent/a{i}.py"))
        self._i = 0

    def next(self) -> tuple[str, str]:
        k = self.keys[self._i % len(self.keys)]
        self._i += 1
        return k


@dataclass
class ReadStats:
    """Read samples. ``state`` tags each result with the lake state it must
    match, for the oracle check after the run."""

    lookups: list[tuple] = field(default_factory=list)  # (Timed, state, key, result table)
    scans: list[tuple] = field(default_factory=list)  # (Timed, state, rows, Σ applied_lsn)
    feeds: list[tuple] = field(default_factory=list)  # (Timed, state, rows, [tables])


class Reader:
    """One client's reads of one lake. A round is ``lookups_per_iter``
    single-key lookups, a full consistent scan consumed with
    ``iter_batches`` and a change-feed read of some epochs. The first round
    runs unrecorded and unchecked, so per-lake caches are warm."""

    def __init__(self, run: Run, lake: str, sampler: KeySampler):
        self.run, self.lake, self.sampler = run, lake, sampler
        self.stats = ReadStats()
        self.warm = False

    def round(self, feed_epochs: list[int], state: Any = None) -> None:
        rs, op = self.stats, self.run.op
        if not self.warm:
            rs, op, self.warm = ReadStats(), (lambda fn, *a: fn(*a)), True
        for _ in range(self.run.wcfg["lookups_per_iter"]):
            op(self._lookup, rs, state, self.sampler.next())
        op(self._scan, rs, state)
        op(self._feed, rs, state, feed_epochs)

    def _lookup(self, rs: ReadStats, state, key) -> None:
        sw = Stopwatch()
        tbl = lookup_keys(self.lake, [key])
        rs.lookups.append((sw.stop(), state, key, tbl))

    def _scan(self, rs: ReadStats, state) -> None:
        sw = Stopwatch()
        rows = lsn_sum = 0
        for b in read_lake(self.lake, consistent=True).iter_batches(batch_size=None, batch_format="pyarrow"):
            rows += b.num_rows
            lsn_sum += pc.sum(b.column("applied_lsn")).as_py() or 0
        rs.scans.append((sw.stop(), state, rows, lsn_sum))

    def _feed(self, rs: ReadStats, state, feed_epochs: list[int]) -> None:
        sw = Stopwatch()
        parts = []
        for e in feed_epochs:
            for b in read_change_feed(self.lake, e).iter_batches(batch_size=None, batch_format="pyarrow"):
                parts.append(b.select(FEED_COLS))
        rs.feeds.append((sw.stop(), state, sum(t.num_rows for t in parts), parts))


def closed_loop(
    run: Run, seconds: float, write: Callable[[], bool], read: Callable[[], None],
    samples: Callable[[], tuple[int, int, int]],
) -> None:
    """The timed region: one client alternating writes and read rounds so
    that reads take the workload's ``read_share`` of the time. Both kinds
    of operation sample the whole region, so a host disturbance in part of
    it does not fall on one kind only. ``samples()`` gives the recorded
    (freshness samples, lookups, scans). Runs for ``seconds`` and until the
    statistics keep the workload's minimum of freshness samples and
    lookups; past 1.2× ``seconds`` it stops once any scan is recorded. It
    also stops when ``write`` returns False, and it starts with a write."""
    w = run.wcfg

    def enough(cap: bool) -> bool:
        fresh, lookups, scans = samples()
        if cap:
            return scans > 0
        return (
            quiet_count(fresh) >= w["freshness_tail"]["min_samples"]
            and quiet_count(lookups) >= w["lookup_tail"]["min_samples"]
        )

    share = w["read_share"]
    t_start = time.perf_counter()
    read_s, wrote = 0.0, False
    while True:
        elapsed = time.perf_counter() - t_start
        if elapsed >= seconds and enough(elapsed >= 1.2 * seconds):
            return
        if wrote and read_s < share * elapsed:
            t0 = time.perf_counter()
            read()
            read_s += time.perf_counter() - t0
        elif write():
            wrote = True
        else:
            return


@functools.lru_cache(maxsize=8)
def last_events(files: tuple[str, ...]) -> dict[tuple[str, str], tuple[str, int]]:
    """(repo, path) → (op, lsn) of each key's last event over ``files``.
    Cached: consecutive epochs' feeds share a prefix; treat as read-only."""
    if not files:
        return {}
    lst = "[" + ", ".join(f"'{f}'" for f in files) + "]"
    con = duckdb.connect()
    try:
        t = con.sql(
            f"SELECT repo, path, op, lsn FROM read_parquet({lst}, union_by_name=true) "
            "QUALIFY row_number() OVER (PARTITION BY repo, path ORDER BY lsn DESC) = 1"
        ).arrow()
    finally:
        con.close()
    return {
        (r, p): (o, l)
        for r, p, o, l in zip(*(t.column(c).to_pylist() for c in ("repo", "path", "op", "lsn")))
    }


def expected_feed(before: list[str], upto: list[str]) -> list[tuple]:
    """Oracle change feed of the epoch that applied ``upto[len(before):]``."""
    prev, cur = last_events(tuple(before)), last_events(tuple(upto))
    out = []
    for key, (op, lsn) in cur.items():
        p = prev.get(key)
        if p == (op, lsn):
            continue
        was_live = p is not None and p[0] != "delete"
        if op != "delete":
            out.append(("update" if was_live else "insert", key[0], key[1], lsn))
        elif was_live:
            out.append(("delete", key[0], key[1], lsn))
    return sorted(out)


def check_lookups(run: Run, gold, lookups: list[tuple]) -> None:
    """Each (key, result) must equal the oracle's row for the key, or be
    empty for a key that is absent or deleted."""
    index = {k: i for i, k in enumerate(zip(gold.column("repo").to_pylist(), gold.column("path").to_pylist()))}
    for key, tbl in lookups:
        i = index.get(key)
        try:
            assert_state_equal(tbl, gold.slice(i, 1) if i is not None else gold.slice(0, 0))
        except AssertionError as e:
            run.gate(False, what=f"lookup {key}: {e}")


def check_reads(run: Run, rs: ReadStats, expect: Callable[[Any], tuple]) -> None:
    """Oracle gates for every read operation (outside the timed region).
    ``expect(state)`` gives the oracle state table and the expected feed
    rows for the lake state a read saw."""
    cache: dict[Any, tuple] = {}

    def want(state):
        if state not in cache:
            cache[state] = expect(state)
        return cache[state]

    for state in dict.fromkeys(st for _, st, _, _ in rs.lookups):
        check_lookups(run, want(state)[0], [(k, t) for _, st, k, t in rs.lookups if st == state])
    for _, state, rows, lsn_sum in rs.scans:
        gold = want(state)[0]
        gold_lsn = pc.sum(gold.column("applied_lsn")).as_py() or 0
        run.gate(rows == gold.num_rows and lsn_sum == gold_lsn, what=f"scan rows {rows} vs {gold.num_rows}")
    order = [(c, "ascending") for c in FEED_COLS]
    for _, state, rows, parts in rs.feeds:
        feed_expect = want(state)[1]
        ok = rows == len(feed_expect)
        if ok and rows:
            want_t = pa.table(dict(zip(FEED_COLS, map(list, zip(*feed_expect)))))
            got = pa.concat_tables(parts).sort_by(order)
            ok = all(got.column(c).combine_chunks().equals(want_t.column(c).combine_chunks()) for c in FEED_COLS)
        run.gate(ok, what=f"feed: {rows} rows vs {len(feed_expect)} expected")


def feed_expectation(epoch_files: list[tuple[int, list[str]]], feed_epochs: list[int]) -> list[tuple]:
    """Expected rows of one feed op (the concatenated feeds of
    ``feed_epochs``), from ``epoch_files`` = [(epoch, files)] in order."""
    out: list[tuple] = []
    applied: list[str] = []
    for epoch, files in epoch_files:
        before = list(applied)
        applied += files
        if epoch in feed_epochs:
            out += expected_feed(before, list(applied))
    return sorted(out)


# ---------------------------------------------------------------- metrics


def read_metrics(run: Run, rs: ReadStats) -> dict[str, float]:
    lt = run.wcfg["lookup_tail"]
    first = lambda op: op[0]  # noqa: E731
    lookup_ms = [op[0].wall_s * 1000 for op in quietest(rs.lookups, first)]
    all_ms = [op[0].wall_s * 1000 for op in rs.lookups]
    print(
        f"lookups: {len(all_ms)}, p50 {percentile(all_ms, 50):.2f} ms over all, "
        f"{percentile(lookup_ms, 50):.2f} ms over the quietest {len(lookup_ms)}", file=sys.stderr,
    )
    return {
        "lookup_p50_ms": percentile(lookup_ms, 50),
        "lookup_tail_ms": percentile(lookup_ms, lt["percentile"]),
        "scan_rows_per_s": statistics.median(r / tm.wall_s for tm, _, r, _ in quietest(rs.scans, first)),
        "feed_rows_per_s": statistics.median(r / tm.wall_s for tm, _, r, _ in quietest(rs.feeds, first)),
    }


def write_metrics(run: Run, ws: WriteStats) -> dict[str, float]:
    ft = run.wcfg["freshness_tail"]
    ops = quietest(ws.ops, lambda op: op.timed)
    fresh = [f for op in ops for f in op.freshness]
    all_fresh = [f for op in ws.ops for f in op.freshness]
    stolen = sum(op.timed.stolen_s for op in ws.ops) / sum(op.timed.wall_s for op in ws.ops)
    print(
        f"write ops: {len(ws.ops)}, host steal {stolen:.3f} CPU-s/s, freshness p50 "
        f"{percentile(all_fresh, 50):.4f} s over all, {percentile(fresh, 50):.4f} s over the "
        f"quietest {len(ops)}", file=sys.stderr,
    )
    if ws.rep_write_amp:  # backfill: median over reps
        amp = statistics.median(ws.rep_write_amp)
    else:
        amp = ws.lake_bytes_added / ws.input_bytes
    return {
        "events_per_s": statistics.median(op.events / op.timed.wall_s for op in ops),
        "freshness_p50_s": percentile(fresh, 50),
        "freshness_tail_s": percentile(fresh, ft["percentile"]),
        "write_amp": amp,
    }


def save_samples(run: Run, ws: WriteStats, rs: ReadStats) -> None:
    """Keep every timed operation's (wall s, host steal CPU-s) in
    ``.bench_out/samples-<workload>-seed<N>.json`` for noise analysis."""
    pairs = lambda ops: [[tm.wall_s, tm.stolen_s] for tm in ops]  # noqa: E731
    out = {
        "write_ops": pairs(op.timed for op in ws.ops),
        "lookups": pairs(op[0] for op in rs.lookups),
        "scans": pairs(op[0] for op in rs.scans),
        "feeds": pairs(op[0] for op in rs.feeds),
    }
    d = os.path.join(run.root, ".bench_out")
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, f"samples-{run.workload}-seed{run.seed}.json"), "w") as f:
        json.dump(out, f)


# ---------------------------------------------------------------- workloads


def _backfill_epochs(files: list[str], spe: int) -> list[tuple[int, list[str]]]:
    return [(i // spe, files[i : i + spe]) for i in range(0, len(files), spe)]


def run_backfill(run: Run, seconds: float, setup: Callable) -> dict[str, Any]:
    w = run.wcfg
    files = setup(lambda tag: make_stream(os.path.join(run.dir, tag, "segs"), w["stream"], run.seed))
    spe = w["segments_per_epoch"]
    epochs = _backfill_epochs(files, spe)
    stream_bytes = sum(os.path.getsize(f) for f in files)
    n_events = sum(pq.read_metadata(f).num_rows for f in files)
    ws = WriteStats()
    lakes: list[str] = []
    readers: list[Reader] = []  # on the first rep's lake
    feed_epochs = [e for e, _ in epochs][-run.cfg["read_loop"]["feed_epochs"]:]

    gold = oracle_final_state(files)
    sampler = KeySampler(gold, run.cfg["read_loop"], run.seed)

    def write() -> bool:
        lake = os.path.join(run.dir, f"lake{len(lakes)}")
        lakes.append(lake)
        wall0 = time.time()
        sw = Stopwatch()
        if run.op(run_ingest, files, lake, num_partitions=run.P, segments_per_epoch=spe) is None:
            return False
        tm = sw.stop()
        ws.rep_write_amp.append(tree_bytes(lake) / stream_bytes)
        fresh = []
        for e, efiles in epochs:
            committed = os.stat(cl.manifest_path(lake, e)).st_mtime_ns / 1e9 - wall0
            fresh += [committed] * len(efiles)
        ws.ops.append(WriteOp(tm, n_events, fresh))
        if not readers:
            readers.append(Reader(run, lake, sampler))
        return True

    def samples() -> tuple[int, int, int]:
        rs = readers[0].stats if readers else ReadStats()
        return len(ws.ops) * len(files), len(rs.lookups), len(rs.scans)

    start_timing()
    t0 = time.perf_counter()
    closed_loop(run, seconds, write, lambda: readers[0].round(feed_epochs), samples)
    rss = peak_rss_mb()
    t1 = time.perf_counter()

    for lake in lakes:
        run.gate(state_ok(lake, gold), what=f"backfill lake {lake}")
    rs = readers[0].stats
    check_reads(run, rs, lambda _: (gold, feed_expectation(epochs, feed_epochs)))
    print(f"timed region {t1 - t0:.1f} s, oracle checks {time.perf_counter() - t1:.1f} s", file=sys.stderr)
    save_samples(run, ws, rs)
    return {**write_metrics(run, ws), **read_metrics(run, rs), "driver_peak_rss_mb": rss}


def run_tail(run: Run, seconds: float, setup: Callable) -> dict[str, Any]:
    w = run.wcfg
    tl: TailLake = setup(lambda tag: setup_tail_lake(run, tag))
    ws = WriteStats()
    writer = TickWriter(run, tl, ws)
    n_feed = run.cfg["read_loop"]["feed_epochs"]

    # lookup keys are drawn from the preloaded state, so no oracle query
    # runs inside the timed region; each read round is checked against the
    # state after the ticks before it
    reader = Reader(run, tl.lake, KeySampler(oracle_final_state(tl.applied), run.cfg["read_loop"], run.seed))

    def read() -> None:
        feed_epochs = writer.epochs[-n_feed:]
        reader.round(feed_epochs, (len(tl.applied), tuple(feed_epochs)))

    def samples() -> tuple[int, int, int]:
        return len(ws.ops), len(reader.stats.lookups), len(reader.stats.scans)

    bytes0 = tree_bytes(tl.lake)
    start_timing()
    t0 = time.perf_counter()
    closed_loop(run, seconds, writer.step, read, samples)
    rss = peak_rss_mb()
    t1 = time.perf_counter()
    ws.lake_bytes_added = tree_bytes(tl.lake) - bytes0

    run.gate(state_ok(tl.lake, oracle_final_state(tl.applied)), n_ops=len(writer.epochs), what="tail lake")
    tail_epochs = _tail_epochs(tl)

    def expect(state):
        n_applied, feed_epochs = state
        prefix = tail_epochs[: 1 + n_applied - tl.preload_epochs]
        return oracle_final_state(tl.applied[:n_applied]), feed_expectation(prefix, list(feed_epochs))

    check_reads(run, reader.stats, expect)
    print(f"timed region {t1 - t0:.1f} s, oracle checks {time.perf_counter() - t1:.1f} s", file=sys.stderr)
    save_samples(run, ws, reader.stats)
    return {**write_metrics(run, ws), **read_metrics(run, reader.stats), "driver_peak_rss_mb": rss}

def _tail_epochs(tl: TailLake) -> list[tuple[int, list[str]]]:
    k = tl.preload_epochs
    return [(-1, tl.applied[:k])] + [(k + i, [f]) for i, f in enumerate(tl.applied[k:])]


WORKLOADS = {"backfill": run_backfill, "tail": run_tail}


# ---------------------------------------------------------------- traced run


def read_layers(run: Run, lake: str, gold, feed_epochs: list[int]) -> dict[str, float]:
    """Read-path layers timed in-process on a replayed lake."""
    sampler = KeySampler(gold, run.cfg["read_loop"], run.seed)
    P = ing.lake_num_partitions(lake)
    part_s, files_per_key, results = [], [], []
    for _ in range(40):
        repo, path = sampler.next()
        keytab = pa.table({"repo": [repo], "path": [path]})
        part = int(stable_hash64(key_strings(keytab))[0] % np.uint64(P))
        files_per_key.append(len(ing._live_frontier(cl.list_part_files(lake, part))))
        t0 = time.perf_counter()
        tbl = run.op(ing._lookup_partition, lake, part, [repo], [repo + KEY_SEP + path], None)
        part_s.append(time.perf_counter() - t0)
        if tbl is not None:
            results.append(((repo, path), tbl))
    check_lookups(run, gold, results)
    clean, dirty = ing.lake_read_plan(lake, as_of_epoch=ing.committed_frontier(lake))
    scan_files = list(clean)
    for part in dirty:
        scan_files += [p for _, _, p, _ in ing._live_frontier(cl.list_part_files(lake, part))]
    diff_s = []
    for e in feed_epochs:
        t0 = time.perf_counter()
        for part in ing._lake_parts(lake):
            run.op(ing._diff_partition_states, lake, part, e)
        diff_s.append(time.perf_counter() - t0)
    return {
        "lookup.partition_read_s": statistics.median(part_s),
        "lookup.files_per_key": statistics.mean(files_per_key),
        "scan.files_read": len(scan_files),
        "scan.bytes_read": sum(os.path.getsize(f) for f in scan_files),
        "feed.diff_s": statistics.median(diff_s),
    }


def run_traced(run: Run, out_dir: str) -> dict[str, Any]:
    """Ray run of the workload's epochs (for its wall time), then the same
    epochs replayed in this process, traced and untraced."""
    w = run.wcfg
    base = os.path.join(run.dir, "base_lake")
    tick_self = 0.0
    if run.workload == "backfill":
        files = make_stream(os.path.join(run.dir, "t", "segs"), w["stream"], run.seed)
        epochs = _backfill_epochs(files, w["segments_per_epoch"])
        ray_lake = os.path.join(run.dir, "ray_lake")
        t0 = time.perf_counter()
        run.op(run_ingest, files, ray_lake, num_partitions=run.P, segments_per_epoch=w["segments_per_epoch"])
        ray_wall = time.perf_counter() - t0
        applied = files
    else:
        tl = setup_tail_lake(run, "t")
        shutil.copytree(tl.lake, base)
        apply_s: list[float] = []
        orig_apply = tail_mod.apply_epoch

        def timed_apply(*a, **kw):
            t0 = time.perf_counter()
            try:
                return orig_apply(*a, **kw)
            finally:
                apply_s.append(time.perf_counter() - t0)

        ws = WriteStats()
        tail_mod.apply_epoch = timed_apply
        try:
            tick_epochs = tick_loop(run, tl, ws, w["trace_ticks"])
        finally:
            tail_mod.apply_epoch = orig_apply
        ray_wall = sum(op.timed.wall_s for op in ws.ops)
        tick_self = ray_wall - sum(apply_s)
        epochs = [(e, [tl.applied[e]]) for e in tick_epochs]
        ray_lake = tl.lake
        applied = tl.applied
    gold = oracle_final_state(applied)
    run.gate(state_ok(ray_lake, gold), what="traced run: Ray lake")

    def fresh_lake(tag: str) -> str:
        lake = os.path.join(run.dir, tag)
        if os.path.isdir(base):
            shutil.copytree(base, lake)
        return lake

    # the first replay warms caches and is discarded; the traced replay is
    # compared with the untraced one that follows it
    tracer = rp.Tracer(enabled=True)
    results = {}
    for tag, tr in (("warm", rp.Tracer(enabled=False)), ("traced", tracer), ("untraced", rp.Tracer(enabled=False))):
        lake = fresh_lake(f"replay_{tag}")
        st = run.op(rp.replay_epochs, lake, epochs, run.P, run.cfg["batch_size"], tr)
        run.gate(st is not None and state_ok(lake, gold), what=f"replay lake {tag}")
        results[tag] = (st, lake)
    stats, traced_lake = results["traced"]
    untraced = results["untraced"][0]
    if stats is None or untraced is None:
        raise RuntimeError("replay failed")
    layers = rp.layer_metrics(tracer, stats)
    self_total = sum(tracer.self_times().values())
    layers["ray.unattributed_cpu_s"] = ray_wall * run.cfg["num_cpus"] - self_total
    layers["tail.tick_self_s"] = tick_self
    layers["replay.tracing_overhead_frac"] = stats["wall_s"] / untraced["wall_s"] - 1
    feed_epochs = [e for e, _ in epochs][-run.cfg["read_loop"]["feed_epochs"]:]
    layers.update(read_layers(run, traced_lake, gold, feed_epochs))

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spans-{run.workload}-seed{run.seed}.json"), "w") as f:
        json.dump({"workload": run.workload, "seed": run.seed, "ray_wall_s": ray_wall,
                   "spans": tracer.records()}, f)
    return layers
