"""The streaming tailer: micro-batch loop over a growing segment directory.

The coordinator+consumer loop of the reference
(``indexing_coordinator/publish_ranges.py:214-248``: poll head every 5 s,
publish [last+1, head] chunks; consumers pull/ack) becomes a driver-side
micro-batch loop: each tick lists the segment directory, plans epochs with
the same planner as ``run_ingest`` (:func:`..sources.planner.plan_epochs`:
stable epochs from segment names, late segments repaired), and hands each
epoch's segment paths to the exactly-once ingest pipeline (one map task
per segment, one merge task per partition; no Dataset is built on this
path). Graceful shutdown (SIGTERM flag checked between epochs,
``sonic_config/mod.rs:70-98``) and head-regression warnings
(``publish_ranges.py:222-223``) carry over; the resumption state IS the
commit log, so a killed tailer resumes exactly (W4/O4).
"""

from __future__ import annotations

import logging
import time
from typing import Any, Callable

from ..sources.planner import LakeCoverage, discover_segments, plan_epochs
from ..state import commitlog as cl
from .ingest import apply_epoch

log = logging.getLogger(__name__)


class Tailer:
    """Micro-batch change-stream tailer with watermark resume.

    ``tick()`` is one poll: discover → plan → apply new epochs, each as
    its segment paths through :func:`~.ingest.apply_epoch`. ``run()``
    loops with a poll interval until ``stop()`` (the SIGTERM-flag analog)
    or ``max_ticks``. Epochs come from segment names
    (``segment_NNNNNN // segments_per_epoch``), so a restarted tailer maps
    the same segments to the same epochs whatever order they arrived in,
    and a segment that arrives after its epoch closed is applied as a
    repair epoch — idempotence comes from the commit log, not from the
    loop. Only full epochs are applied while the trailing one may still
    grow (``plan_epochs(finalize=False)``).
    """

    def __init__(
        self,
        seg_dir: str,
        lake_dir: str,
        num_partitions: int = 32,
        segments_per_epoch: int = 8,
        compact_every: int | None = None,
        merge_mode: str = "cow",
        compact_states_every: int | None = None,
        track_history: bool = False,
        window_views: list | None = None,
        decode_catalog: Any | None = None,
        monitors: list | None = None,
        on_alert: Callable[[dict[str, Any]], None] | None = None,
        freshness_timeout_s: float | None = None,
    ):
        self.seg_dir = seg_dir
        self.lake_dir = lake_dir
        self.num_partitions = num_partitions
        self.segments_per_epoch = segments_per_epoch
        # self-maintenance: roll the commit log into the checkpoint after
        # every N newly closed epochs (safe here: the tailer is the only
        # writer and compaction runs between epochs, never mid-apply) — a
        # long-lived tail would otherwise accumulate unbounded commit files
        self.compact_every = compact_every
        # merge-on-read tailing: each epoch appends partition deltas; fold
        # them into fresh bases every N closed epochs so read amplification
        # stays bounded while the write path never rewrites full state
        self.merge_mode = merge_mode
        self.compact_states_every = compact_states_every
        # archive distinct versions per closed epoch (`_history/` sidecar);
        # with track_history on, the archive's per-epoch files are folded
        # into per-partition runs on the same cadence as state compaction
        # (compact_states_every) — a long tail would otherwise accumulate
        # one tiny file per (epoch, partition) forever
        self.track_history = track_history
        # watermark-gated streaming views (pipelines/windows.py): refreshed
        # after each tick's applies so windows finalize as the watermark
        # passes them — exactly-once via each view's own manifest, so a
        # crashed tick re-finalizes idempotently on the next one
        self.window_views = window_views or []
        # decoded fan-out on the tail: each closed epoch publishes its
        # decoded sidecars (commit-gated); folds ride the state cadence
        self.decode_catalog = decode_catalog
        # cursor-keeping incremental consumers (qc.ConstraintMonitor and
        # anything with .refresh()): advanced after each tick's applies so
        # streaming QC tracks the frontier without lake rescans
        self.monitors = monitors or []
        # operator alert channel (the reference wires task_fail_alert into
        # every DAG, daily_qc_airflow/google_chat_callbacks.py:1 imported at
        # row_counts.py:9): on_alert(event_dict) fires on epoch failure
        # (then the exception still propagates), on a freshness breach (no
        # new segments applied for freshness_timeout_s — one alert per
        # breach, re-armed by progress), and on constraint violations from
        # any attached monitor that has no callback of its own. Alert-sink
        # exceptions are logged, never raised — a broken pager must not
        # stop ingestion.
        self.on_alert = on_alert
        self.freshness_timeout_s = freshness_timeout_s
        self._last_progress_t = time.monotonic()
        self._freshness_alerted = False
        if on_alert is not None:
            for mon in self.monitors:
                if getattr(mon, "on_violation", None) is None:
                    mon.on_violation = self._monitor_violation
        self._applied_since_compact = 0
        self._applied_since_state_compact = 0
        self._stop = False
        # the lake's manifest coverage, read once and extended with each
        # applied epoch (this tailer is the lake's writer); plan_epochs
        # re-reads it if another writer got to a planned epoch first
        self._coverage = LakeCoverage(lake_dir)
        self._last_seen = -1  # highest segment index observed (head watermark)
        from .metrics import TailerMetrics

        self._metrics = TailerMetrics()
        self._metrics_server = None

    def stop(self) -> None:
        """Graceful shutdown flag (checked between epochs, never mid-epoch)."""
        self._stop = True

    def _alert(self, kind: str, **info: Any) -> None:
        if self.on_alert is None:
            return
        try:
            self.on_alert({"kind": kind, "lake": self.lake_dir, **info})
        except Exception:
            log.exception("on_alert callback failed (alert dropped, tail continues)")

    def _monitor_violation(self, evt: dict[str, Any]) -> None:
        self._alert("constraint_violation", **evt)

    def metrics(self) -> dict[str, Any]:
        """Operational snapshot (ST7): counters + per-partition watermark lag."""
        return self._metrics.snapshot()

    def serve_metrics(self, port: int = 0, liveness_window_s: float | None = None) -> int:
        """Start the loopback ``/metrics`` + ``/healthz`` HTTP surface
        (reference: ``main.rs:282-355`` actix metrics/liveness servers).
        Returns the bound port; stopped automatically when :meth:`run` exits.
        ``liveness_window_s=None`` (default) couples the health window to
        the poll interval when :meth:`run` starts — ``max(60, 3×poll)`` —
        so a slow-polling tailer doesn't flap 503 between healthy ticks."""
        from .metrics import serve_metrics

        self._liveness_explicit = liveness_window_s is not None
        self._metrics_server, port = serve_metrics(
            self._metrics, port=port,
            liveness_window_s=liveness_window_s if liveness_window_s is not None else 60.0,
        )
        return port

    def tick(self) -> dict[str, Any]:
        files = discover_segments(self.seg_dir)
        head = len(files) - 1
        if head < self._last_seen:
            log.warning(
                "segment head regressed from %d to %d — source appeared to revert",
                self._last_seen, head,
            )
        self._last_seen = max(self._last_seen, head)

        plan = plan_epochs(files, self._coverage, self.segments_per_epoch, finalize=False)
        skipped = len(plan.skipped)
        for epoch in plan.skipped:
            self._metrics.record_resumed_epoch(epoch)
        applied = 0
        for unit in plan.units:
            if self._stop:
                break
            try:
                records = apply_epoch(
                    unit.files,
                    self.lake_dir,
                    unit.epoch,
                    num_partitions=self.num_partitions,
                    input_desc=unit.input_desc(),
                    merge_mode=self.merge_mode,
                    track_history=self.track_history,
                    decode_catalog=self.decode_catalog,
                )
            except Exception as exc:
                self._alert("epoch_failure", epoch=unit.epoch, error=repr(exc))
                raise
            self._coverage.add(unit)
            self._metrics.record_commits(unit.stream_epoch, records)
            applied += 1
        self._applied_since_compact += applied
        if self.compact_every and self._applied_since_compact >= self.compact_every:
            cl.compact_commits(self.lake_dir)
            self._applied_since_compact = 0
        self._applied_since_state_compact += applied
        if (
            self.compact_states_every
            and self._applied_since_state_compact >= self.compact_states_every
        ):
            from .ingest import compact_lake_states

            compact_lake_states(self.lake_dir)
            from .sidecars import HISTORY, decoded, decoded_tables

            if self.track_history:
                HISTORY.compact(self.lake_dir)
            if self.decode_catalog is not None:
                # fold decoded fan-out sidecars on the same cadence; the
                # fold threshold follows the cadence (the tick already
                # amortizes), not the standalone default
                for t in decoded_tables(self.lake_dir):
                    decoded(t).compact(
                        self.lake_dir, min_files=max(2, self.compact_states_every)
                    )
            self._applied_since_state_compact = 0
        for mon in self.monitors:
            mon.refresh()
        windows_finalized = 0
        for view in self.window_views:
            r = view.refresh(files)
            # tumbling views report windows_finalized; session views report
            # sessions_closed — both are "results finalized this tick"
            windows_finalized += r.get(
                "windows_finalized", r.get("sessions_closed", 0)
            )
        if applied > 0:
            self._last_progress_t = time.monotonic()
            self._freshness_alerted = False  # progress re-arms the breach alert
        elif self.freshness_timeout_s is not None and not self._freshness_alerted:
            lag = time.monotonic() - self._last_progress_t
            if lag > self.freshness_timeout_s:
                self._alert("freshness", lag_s=round(lag, 3), head_segment=head)
                self._freshness_alerted = True
        self._metrics.record_tick(head, applied, skipped)
        out = {"head_segment": head, "epochs_applied": applied, "epochs_skipped": skipped}
        if self.window_views:
            out["windows_finalized"] = windows_finalized
        return out

    def run(
        self,
        poll_interval_s: float = 1.0,
        max_ticks: int | None = None,
        on_tick: Callable[[dict[str, Any]], None] | None = None,
        exclusive: bool = False,
    ) -> dict[str, Any]:
        """``exclusive=True`` holds the lake's single-writer lease for the
        whole tail loop, heartbeating each tick — a second tailer on the
        same lake fails fast instead of interleaving epochs."""
        if self._metrics_server is not None and not getattr(
            self, "_liveness_explicit", False
        ):
            # couple the health window to the actual poll cadence
            self._metrics_server.liveness_window_s = max(60.0, 3 * poll_interval_s)
        token = None
        if exclusive:
            token = cl.acquire_writer_lease(
                self.lake_dir, owner=f"tailer:{self.seg_dir}",
                ttl_s=max(60.0, 4 * poll_interval_s),
            )
        try:
            ticks = 0
            last: dict[str, Any] = {}
            while not self._stop and (max_ticks is None or ticks < max_ticks):
                last = self.tick()
                if token is not None:
                    cl.refresh_writer_lease(self.lake_dir, token)
                if on_tick:
                    on_tick(last)
                ticks += 1
                if not self._stop and (max_ticks is None or ticks < max_ticks):
                    time.sleep(poll_interval_s)
            return {"ticks": ticks, **last}
        finally:
            if token is not None:
                cl.release_writer_lease(self.lake_dir, token)
            if self._metrics_server is not None:
                self._metrics_server.shutdown()
                self._metrics_server = None


def set_watermark_override(lake_dir: str, epoch: int) -> None:
    """Admin override: mark epochs < ``epoch`` as committed so the tailer
    and ``run_ingest`` fast-forward — the ``manual_set.py`` analog
    (``indexing_coordinator/manual_set.py:49-56``). Writes empty
    ``manual_override`` manifests; the planner treats each as covering all
    of its epoch's segments, so none of them is replayed as a repair."""
    for e in range(epoch):
        if not cl.epoch_manifest_exists(lake_dir, e):
            cl.write_manifest(lake_dir, e, {"epoch": e, "manual_override": True, "parts": []})
