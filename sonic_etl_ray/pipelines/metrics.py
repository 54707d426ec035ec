"""Operational metrics for long-running tail/ingest loops (ST7).

The reference runs Prometheus counters plus an HTTP ``/metrics`` and a
k8s liveness endpoint for its extractor loop
(``extractor_transformer/src/metrics/prometheus.rs:1-10``,
``main.rs:282-355``). The Ray-side analog is a driver-held
:class:`TailerMetrics` that the :class:`~.tail.Tailer` advances from the
per-partition commit records each tick, with three read surfaces:

- :meth:`TailerMetrics.snapshot` — a plain dict for programmatic checks
  (tests, ``on_tick`` callbacks, dashboards);
- :meth:`TailerMetrics.to_prometheus` — text exposition format;
- :func:`serve_metrics` — a stdlib loopback HTTP server with
  ``/metrics`` (Prometheus text) and ``/healthz`` (200 while the loop
  ticked within the liveness window, 503 once it stalls).

All state is O(partitions) on the driver — counters and per-partition
watermarks only, never data rows — so the surface costs nothing at any
stream scale.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable


class TailerMetrics:
    """Monotonic counters + gauges advanced from commit records.

    Thread-safe: the HTTP server reads snapshots from its own threads
    while the tail loop writes.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic):
        self._lock = threading.Lock()
        self._clock = clock
        self._t0 = clock()
        # counters (monotonic)
        self.ticks_total = 0
        self.epochs_applied_total = 0
        self.epochs_skipped_total = 0
        self.events_applied_total = 0
        self.rows_errored_total = 0
        self.noop_commits_total = 0
        self.bytes_written_total = 0  # lake files published (write amplification)
        # gauges
        self.head_segment = -1
        self.committed_frontier = -1
        self.last_tick_at: float | None = None
        self.last_apply_at: float | None = None
        self._part_lsn: dict[int, int] = {}
        # short-window throughput: (time, events_applied_total) ring
        self._window: list[tuple[float, int]] = []

    # ------------------------------------------------------------- writes
    def record_tick(self, head_segment: int, applied: int, skipped: int) -> None:
        with self._lock:
            self.ticks_total += 1
            self.epochs_applied_total += applied
            self.epochs_skipped_total += skipped
            self.head_segment = max(self.head_segment, head_segment)
            self.last_tick_at = self._clock()

    def record_commits(self, epoch: int, records: list[dict[str, Any]]) -> None:
        """Fold one epoch's per-partition commit records into the counters."""
        now = self._clock()
        with self._lock:
            for rec in records:
                self.events_applied_total += int(rec.get("n_events", 0) or 0)
                self.rows_errored_total += int(rec.get("n_errors", 0) or 0)
                self.bytes_written_total += int(rec.get("bytes_written", 0) or 0)
                if rec.get("noop"):
                    self.noop_commits_total += 1
                part = rec.get("part")
                lsn = rec.get("applied_lsn")
                if part is not None and lsn is not None and int(lsn) >= 0:
                    prev = self._part_lsn.get(int(part), -1)
                    self._part_lsn[int(part)] = max(prev, int(lsn))
            self.committed_frontier = max(self.committed_frontier, int(epoch))
            self.last_apply_at = now
            self._window.append((now, self.events_applied_total))
            cutoff = now - 300.0
            while len(self._window) > 2 and self._window[0][0] < cutoff:
                self._window.pop(0)

    def record_resumed_epoch(self, epoch: int) -> None:
        """A resumed tailer SKIPS already-committed epochs without
        re-applying; the frontier gauge must still reflect them or a
        healthy resumed tailer reports committed_frontier=-1 forever."""
        with self._lock:
            self.committed_frontier = max(self.committed_frontier, int(epoch))

    # -------------------------------------------------------------- reads
    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            now = self._clock()
            if len(self._window) >= 2:
                (t_a, n_a), (t_b, n_b) = self._window[0], self._window[-1]
                eps = (n_b - n_a) / (t_b - t_a) if t_b > t_a else 0.0
            else:
                dt = now - self._t0
                eps = self.events_applied_total / dt if dt > 0 else 0.0
            max_lsn = max(self._part_lsn.values(), default=-1)
            lag = {
                p: max_lsn - lsn for p, lsn in sorted(self._part_lsn.items())
            }
            return {
                "ticks_total": self.ticks_total,
                "epochs_applied_total": self.epochs_applied_total,
                "epochs_skipped_total": self.epochs_skipped_total,
                "events_applied_total": self.events_applied_total,
                "rows_errored_total": self.rows_errored_total,
                "noop_commits_total": self.noop_commits_total,
                "bytes_written_total": self.bytes_written_total,
                "head_segment": self.head_segment,
                "committed_frontier": self.committed_frontier,
                "events_per_sec": round(eps, 3),
                "seconds_since_last_tick": (
                    None if self.last_tick_at is None else round(now - self.last_tick_at, 3)
                ),
                "seconds_since_last_apply": (
                    None if self.last_apply_at is None else round(now - self.last_apply_at, 3)
                ),
                "partition_watermark": dict(sorted(self._part_lsn.items())),
                "partition_watermark_lag": lag,
            }

    def to_prometheus(self, prefix: str = "sonic_etl") -> str:
        snap = self.snapshot()
        lines: list[str] = []
        for name in (
            "ticks_total", "epochs_applied_total", "epochs_skipped_total",
            "events_applied_total", "rows_errored_total", "noop_commits_total",
            "bytes_written_total",
        ):
            lines.append(f"# TYPE {prefix}_{name} counter")
            lines.append(f"{prefix}_{name} {snap[name]}")
        for name in ("head_segment", "committed_frontier", "events_per_sec"):
            lines.append(f"# TYPE {prefix}_{name} gauge")
            lines.append(f"{prefix}_{name} {snap[name]}")
        for name in ("seconds_since_last_tick", "seconds_since_last_apply"):
            if snap[name] is not None:
                lines.append(f"# TYPE {prefix}_{name} gauge")
                lines.append(f"{prefix}_{name} {snap[name]}")
        lines.append(f"# TYPE {prefix}_partition_watermark_lag gauge")
        for part, lag in snap["partition_watermark_lag"].items():
            lines.append(f'{prefix}_partition_watermark_lag{{part="{part}"}} {lag}')
        return "\n".join(lines) + "\n"


class _MetricsHandler(BaseHTTPRequestHandler):
    metrics: TailerMetrics  # set on the server class at construction
    liveness_window_s: float

    def do_GET(self):  # noqa: N802 (stdlib API name)
        if self.path.startswith("/metrics"):
            body = self.server.metrics.to_prometheus().encode()  # type: ignore[attr-defined]
            ctype = "text/plain; version=0.0.4"
            code = 200
        elif self.path.startswith("/healthz"):
            snap = self.server.metrics.snapshot()  # type: ignore[attr-defined]
            window = self.server.liveness_window_s  # type: ignore[attr-defined]
            idle = snap["seconds_since_last_tick"]
            # startup grace: before the FIRST tick completes (cold backlog
            # can take minutes) the loop is alive by definition — a probe
            # that 503s here would restart-loop a healthy process
            alive = idle is None or idle <= window
            code = 200 if alive else 503
            body = json.dumps({"alive": alive, "seconds_since_last_tick": idle}).encode()
            ctype = "application/json"
        else:
            code, body, ctype = 404, b"not found\n", "text/plain"
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence per-request stderr noise
        pass


def serve_metrics(
    metrics: TailerMetrics,
    port: int = 0,
    host: str = "127.0.0.1",
    liveness_window_s: float = 60.0,
) -> tuple[ThreadingHTTPServer, int]:
    """Start the loopback metrics server on a daemon thread.

    Returns ``(server, bound_port)`` — pass ``port=0`` to let the OS pick.
    Call ``server.shutdown()`` to stop (the Tailer does this on exit when
    it owns the server).
    """
    srv = ThreadingHTTPServer((host, port), _MetricsHandler)
    srv.metrics = metrics  # type: ignore[attr-defined]
    srv.liveness_window_s = liveness_window_s  # type: ignore[attr-defined]
    t = threading.Thread(target=srv.serve_forever, name="sonic-etl-metrics", daemon=True)
    t.start()
    return srv, srv.server_address[1]
