"""CLI entry points — the ``IndexRange`` / ``SaveRange`` analog
(``extractor_transformer/src/main.rs:406-476``).

Commands own the Ray session (the only places besides bench/tests allowed
to call ``ray.init``):

    python -m sonic_etl_ray generate --out DIR --events N [--seed S] ...
    python -m sonic_etl_ray ingest --segments DIR --lake DIR [--partitions P] ...
    python -m sonic_etl_ray tail --segments DIR --lake DIR [--ticks N] ...
    python -m sonic_etl_ray qc --lake DIR
    python -m sonic_etl_ray set-watermark --lake DIR --epoch E
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init(num_cpus: int | None):
    import logging

    import ray

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="sonic_etl_ray")
    p.add_argument("--num-cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="deterministic synthetic change stream")
    g.add_argument("--out", required=True)
    g.add_argument("--events", type=int, required=True)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--repos", type=int, default=20)
    g.add_argument("--segment-size", type=int, default=1000)
    g.add_argument("--hot-repo-frac", type=float, default=None)

    i = sub.add_parser("ingest", help="apply a segment directory into a lake")
    i.add_argument("--segments", required=True)
    i.add_argument("--lake", required=True)
    i.add_argument("--partitions", type=int, default=32)
    i.add_argument("--segments-per-epoch", type=int, default=8)
    i.add_argument("--on-error", choices=["abort", "route"], default="abort")
    i.add_argument(
        "--validate", action="store_true",
        help="footer-check segments first; quarantine corrupt files and proceed",
    )
    i.add_argument(
        "--exclusive", action="store_true",
        help="hold the lake's single-writer lease for the run",
    )
    i.add_argument(
        "--merge-mode", choices=["cow", "mor"], default="cow",
        help="mor = merge-on-read (per-epoch delta files; compact-states folds)",
    )
    i.add_argument(
        "--no-finalize",
        action="store_true",
        help="defer a trailing partial epoch instead of closing it (tail-style)",
    )
    i.add_argument(
        "--track-history", action="store_true",
        help="archive distinct versions per (epoch, partition) into the "
        "_history/ SCD2 sidecar (append-only, commit-gated)",
    )

    t = sub.add_parser("tail", help="micro-batch tail a growing segment dir")
    t.add_argument("--segments", required=True)
    t.add_argument("--lake", required=True)
    t.add_argument("--partitions", type=int, default=32)
    t.add_argument("--segments-per-epoch", type=int, default=8)
    t.add_argument("--ticks", type=int, default=None)
    t.add_argument("--poll-interval", type=float, default=2.0)
    t.add_argument("--merge-mode", choices=["cow", "mor"], default="cow")
    t.add_argument(
        "--compact-states-every", type=int, default=None,
        help="fold merge-on-read deltas into bases every N closed epochs",
    )
    t.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve /metrics (Prometheus text) + /healthz on this loopback "
        "port for the duration of the tail loop (0 = OS-assigned)",
    )
    t.add_argument(
        "--alert-cmd", default=None,
        help="shell command invoked with each alert event as JSON on stdin "
        "(epoch failures, freshness breaches, constraint violations) — the "
        "pager hook the reference wires as task_fail_alert",
    )
    t.add_argument(
        "--freshness-timeout", type=float, default=None,
        help="alert when no epoch has been applied for this many seconds",
    )
    t.add_argument(
        "--constraints-json", default=None,
        help="constraint spec file; attaches an incremental ConstraintMonitor "
        "whose violations feed the alert channel",
    )

    ch = sub.add_parser(
        "compact-history",
        help="fold per-epoch history archive files into per-partition runs",
    )
    ch.add_argument("--lake", required=True)
    ch.add_argument("--min-files", type=int, default=8)

    cd = sub.add_parser(
        "compact-decoded",
        help="fold per-epoch decoded fan-out files into deduped per-partition runs",
    )
    cd.add_argument("--lake", required=True)
    cd.add_argument("--table", default=None, help="decoded table name (default table if omitted)")
    cd.add_argument("--all-tables", action="store_true", help="compact every decoded table")
    cd.add_argument("--min-files", type=int, default=8)

    ce = sub.add_parser(
        "compact-errors",
        help="fold replayed dead-letter files into per-partition audit runs",
    )
    ce.add_argument("--lake", required=True)
    ce.add_argument("--min-files", type=int, default=8)

    eh = sub.add_parser(
        "expire-history",
        help="archive retention: drop history for epochs below a cutoff",
    )
    eh.add_argument("--lake", required=True)
    eh.add_argument("--before-epoch", type=int, required=True)

    ed = sub.add_parser(
        "expire-decoded",
        help="decoded-table retention: drop decoded rows for epochs below a cutoff",
    )
    ed.add_argument("--lake", required=True)
    ed.add_argument("--before-epoch", type=int, required=True)
    ed.add_argument("--table", default=None)
    ed.add_argument("--all-tables", action="store_true", help="expire every decoded table")

    ee = sub.add_parser(
        "expire-errors",
        help="dead-letter retention: drop error rows for epochs below a cutoff",
    )
    ee.add_argument("--lake", required=True)
    ee.add_argument("--before-epoch", type=int, required=True)

    pj = sub.add_parser(
        "pit-join",
        help="point-in-time enrich a probe parquet file from the history archive",
    )
    pj.add_argument("--lake", required=True)
    pj.add_argument("--probe", required=True, help="parquet with repo, path and the at-column")
    pj.add_argument("--at-column", default="at_lsn")
    pj.add_argument("--out", required=True, help="output parquet path")

    se = sub.add_parser(
        "schema-export",
        help="publish table contracts as BigQuery JSON + Avro + proto2",
    )
    se.add_argument("--out", required=True)
    se.add_argument(
        "--lake", default=None,
        help="also publish this lake's CURRENT evolved state schema "
        "(files_state_current), read from commit records alone",
    )

    q = sub.add_parser("qc", help="freshness + count invariants of a lake")
    q.add_argument("--lake", required=True)
    q.add_argument(
        "--constraints-json",
        default=None,
        help="path to a JSON list of constraint specs "
        '(e.g. [{"name":"pk","kind":"unique","columns":["repo","path"]}]); '
        "adds a violations report to the QC output",
    )


    an = sub.add_parser("analyze", help="per-column table statistics of a lake")
    an.add_argument("--lake", required=True)
    an.add_argument("--columns", required=True, help="comma-separated column names")
    an.add_argument(
        "--approx",
        action="store_true",
        help="HLL ndv sketch (fixed shuffle volume) instead of exact distinct-value exchange",
    )

    w = sub.add_parser("set-watermark", help="manual watermark override")
    w.add_argument("--lake", required=True)
    w.add_argument("--epoch", type=int, required=True)

    v = sub.add_parser("vacuum", help="GC superseded copy-on-write state files")
    v.add_argument("--lake", required=True)
    v.add_argument("--keep-epochs", type=int, default=2)

    cs = sub.add_parser(
        "compact-states",
        help="fold merge-on-read delta files into fresh base states (Hudi compaction analog)",
    )
    cs.add_argument("--lake", required=True)
    cs.add_argument("--min-deltas", type=int, default=1)

    rp = sub.add_parser(
        "replicate", help="subscribe a downstream lake to an upstream lake's change feed"
    )
    rp.add_argument("--src", required=True)
    rp.add_argument("--dst", required=True)
    rp.add_argument("--partitions", type=int, default=None)
    rp.add_argument("--merge-mode", choices=["cow", "mor"], default="cow")

    lk = sub.add_parser("lookup", help="point-read live rows by exact repo:path keys")
    lk.add_argument("--lake", required=True)
    lk.add_argument("--key", action="append", required=True,
                    help="repo:path (repeatable)")
    lk.add_argument("--as-of-epoch", type=int, default=None)

    re_ = sub.add_parser(
        "replay-errors", help="re-ingest pending quarantined rows under a repair epoch"
    )
    re_.add_argument("--lake", required=True)
    re_.add_argument("--partitions", type=int, default=None)

    ex = sub.add_parser(
        "export", help="publish the resolved final table as partitioned Parquet + manifest"
    )
    ex.add_argument("--lake", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--as-of-epoch", type=int, default=None)

    cc = sub.add_parser(
        "compact-commits",
        help="roll manifested epochs' commit records into one checkpoint (O(1) resume)",
    )
    cc.add_argument("--lake", required=True)

    dw = sub.add_parser(
        "delete-where",
        help="bulk DELETE via the exactly-once event path (no file rewrite)",
    )
    dw.add_argument("--lake", required=True)
    dw.add_argument(
        "--where", action="append", required=True,
        help="predicate term col<op>value, ops: = != < <= > >= (repeat to "
        "AND); quote the value ('2024') to force string comparison",
    )
    dw.add_argument("--merge-mode", choices=["cow", "mor"], default="cow")
    dw.add_argument("--track-history", action="store_true")

    uw = sub.add_parser(
        "update-where",
        help="bulk UPDATE via the exactly-once event path (derived columns recompute)",
    )
    uw.add_argument("--lake", required=True)
    uw.add_argument(
        "--where", action="append", required=True,
        help="predicate term col<op>value, ops: = != < <= > >= (repeat to "
        "AND); quote the value ('2024') to force string comparison",
    )
    uw.add_argument(
        "--set", action="append", required=True, dest="assign",
        help="assignment col=value (repeat for multiple columns); quote the "
        "value ('2024') to assign a numeric-looking string",
    )
    uw.add_argument("--merge-mode", choices=["cow", "mor"], default="cow")
    uw.add_argument("--track-history", action="store_true")

    cl_ = sub.add_parser(
        "clone", help="zero-copy branch of a lake (hardlinked immutable artifacts)"
    )
    cl_.add_argument("--src", required=True)
    cl_.add_argument("--dst", required=True)
    cl_.add_argument(
        "--exclusive", action="store_true",
        help="hold the source writer lease for the walk (clean frontier)",
    )

    rr = sub.add_parser(
        "repair-replica",
        help="anti-entropy: converge a drifted replica's content to the source",
    )
    rr.add_argument("--replica", required=True)
    rr.add_argument("--src", required=True)
    rr.add_argument("--as-of-source", type=int, default=None)
    rr.add_argument("--merge-mode", choices=["cow", "mor"], default="cow")

    ix = sub.add_parser(
        "index", help="build/refresh the secondary value index for a column"
    )
    ix.add_argument("--lake", required=True)
    ix.add_argument("--column", required=True)
    ix.add_argument("--index-root", default=None)

    ei = sub.add_parser(
        "extend-index",
        help="incrementally append new vectors to an ANN index (epoch-tagged, idempotent)",
    )
    ei.add_argument("--index-dir", required=True)
    ei.add_argument("--vectors", required=True, help="parquet with (vec_id, embedding)")
    ei.add_argument("--tag", required=True, help="batch identity, e.g. the epoch id")
    ei.add_argument("--kind", choices=["lsh", "ivf"], default="lsh")

    args = p.parse_args(argv)

    if args.cmd == "generate":
        from .generator import StreamSpec, generate_stream

        files = generate_stream(
            args.out,
            StreamSpec(
                n_events=args.events,
                n_repos=args.repos,
                seed=args.seed,
                segment_size=args.segment_size,
                hot_repo_frac=args.hot_repo_frac,
            ),
        )
        print(json.dumps({"segments": len(files), "out": args.out}))
        return 0
    if args.cmd == "vacuum":
        from .pipelines.ingest import vacuum

        print(json.dumps(vacuum(args.lake, keep_epochs=args.keep_epochs)))
        return 0
    verb, _, family = args.cmd.partition("-")
    if verb in ("compact", "expire") and family in ("history", "decoded", "errors"):
        from .pipelines.sidecars import ERRORS, HISTORY, decoded, decoded_tables

        if family == "decoded":
            tables = decoded_tables(args.lake) if args.all_tables else [args.table]
            fams = {t or "decoded": decoded(t) for t in tables}
        else:
            fams = {family: HISTORY if family == "history" else ERRORS}
        if verb == "compact":
            _ray_init(args.num_cpus)  # per-partition fold tasks
            out = {k: f.compact(args.lake, min_files=args.min_files) for k, f in fams.items()}
        else:
            out = {k: f.expire(args.lake, before_epoch=args.before_epoch) for k, f in fams.items()}
        print(json.dumps(out if family == "decoded" else out[family]))
        if verb == "compact":
            import ray

            ray.shutdown()
        return 0
    if args.cmd == "schema-export":
        from .schemas_export import export_table_contracts

        written = export_table_contracts(args.out, lake_dir=args.lake)
        print(json.dumps({t: len(p) for t, p in written.items()}))
        return 0
    if args.cmd == "compact-commits":
        from .state.commitlog import compact_commits

        print(json.dumps(compact_commits(args.lake)))
        return 0
    if args.cmd in ("delete-where", "update-where"):
        _ray_init(args.num_cpus)  # predicate scan + event apply are Ray jobs
        from .pipelines.dml import (
            delete_where,
            parse_assignments,
            parse_predicate,
            update_where,
        )

        pred = parse_predicate(args.where)
        if args.cmd == "delete-where":
            res = delete_where(
                args.lake, pred,
                merge_mode=args.merge_mode, track_history=args.track_history,
            )
        else:
            res = update_where(
                args.lake, pred, parse_assignments(args.assign),
                merge_mode=args.merge_mode, track_history=args.track_history,
            )
        res["parts_touched"] = len(res["parts_touched"])
        print(json.dumps(res))
        import ray

        ray.shutdown()
        return 0
    if args.cmd == "clone":
        from .pipelines.ingest import clone_lake

        print(json.dumps(clone_lake(args.src, args.dst, exclusive=args.exclusive)))
        return 0
    if args.cmd == "repair-replica":
        _ray_init(args.num_cpus)  # source scan + diff + apply are Ray jobs
        from .pipelines.dml import repair_replica

        res = repair_replica(
            args.replica, args.src,
            as_of_source=args.as_of_source, merge_mode=args.merge_mode,
        )
        res["parts_touched"] = len(res.get("parts_touched", []))
        print(json.dumps(res))
        import ray

        ray.shutdown()
        return 0
    if args.cmd == "index":
        _ray_init(args.num_cpus)  # per-partition distinct-value tasks
        import json as _json
        import os

        from .pipelines.colindex import build_value_index

        d = build_value_index(args.lake, args.column, index_root=args.index_root)
        with open(os.path.join(d, "MANIFEST.json")) as f:
            man = _json.load(f)
        print(json.dumps({
            "index_dir": d,
            "parts_reused": man["parts_reused"],
            "parts_rebuilt": man["parts_rebuilt"],
        }))
        import ray

        ray.shutdown()
        return 0
    if args.cmd == "extend-index":
        _ray_init(args.num_cpus)
        import ray
        import ray.data as _rd

        from .functions.similarity import extend_ivf_index, extend_lsh_index

        fn = extend_lsh_index if args.kind == "lsh" else extend_ivf_index
        stats = fn(args.index_dir, _rd.read_parquet(args.vectors), tag=args.tag)
        print(json.dumps({"kind": args.kind, **stats}))
        ray.shutdown()
        return 0
    if args.cmd == "compact-states":
        _ray_init(args.num_cpus)  # per-partition compaction tasks
        from .pipelines.ingest import compact_lake_states

        print(json.dumps(compact_lake_states(args.lake, min_deltas=args.min_deltas)))
        import ray

        ray.shutdown()
        return 0

    _ray_init(args.num_cpus)
    import ray

    try:
        if args.cmd == "ingest":
            from .pipelines.ingest import run_ingest
            from .sources.planner import discover_segments

            stats = run_ingest(
                discover_segments(args.segments),
                args.lake,
                num_partitions=args.partitions,
                segments_per_epoch=args.segments_per_epoch,
                on_error=args.on_error,
                finalize=not args.no_finalize,
                merge_mode=args.merge_mode,
                validate_inputs=args.validate,
                exclusive=args.exclusive,
                track_history=args.track_history,
            )
            print(json.dumps(stats))
        elif args.cmd == "tail":
            import signal

            from .pipelines.tail import Tailer

            on_alert = None
            if args.alert_cmd:
                import subprocess

                def on_alert(evt, _cmd=args.alert_cmd):
                    # pager hook: event JSON on stdin; check=True routes a
                    # nonzero-exiting sink into the Tailer's except-and-log
                    # (which never stops ingestion) instead of dropping the
                    # alert silently
                    subprocess.run(
                        _cmd, shell=True, input=json.dumps(evt).encode(),
                        timeout=30, check=True,
                    )

            monitors = []
            if args.constraints_json:
                import os as _os

                from .pipelines.qc import Constraint, ConstraintMonitor

                with open(args.constraints_json) as fh:
                    specs = json.load(fh)
                cons = [
                    Constraint(
                        name=s["name"], kind=s["kind"], columns=tuple(s["columns"]),
                        values=tuple(s.get("values", ())), lo=s.get("lo"),
                        hi=s.get("hi"), pattern=s.get("pattern"),
                    )
                    for s in specs
                ]
                monitors.append(ConstraintMonitor(
                    args.lake, cons, _os.path.join(args.lake, "_monitor", "state.json")
                ))
            tailer = Tailer(
                args.segments,
                args.lake,
                num_partitions=args.partitions,
                segments_per_epoch=args.segments_per_epoch,
                merge_mode=args.merge_mode,
                compact_states_every=args.compact_states_every,
                monitors=monitors,
                on_alert=on_alert,
                freshness_timeout_s=args.freshness_timeout,
            )
            signal.signal(signal.SIGTERM, lambda *_: tailer.stop())
            signal.signal(signal.SIGINT, lambda *_: tailer.stop())
            if args.metrics_port is not None:
                port = tailer.serve_metrics(port=args.metrics_port)
                print(json.dumps({"metrics_port": port}), flush=True)
            res = tailer.run(
                poll_interval_s=args.poll_interval,
                max_ticks=args.ticks,
                on_tick=lambda r: print(json.dumps(r), flush=True),
            )
            print(json.dumps({**res, "metrics": tailer.metrics()}))
        elif args.cmd == "qc":
            from .pipelines.qc import freshness, skew_report, verify_lake_counts

            out = {
                "freshness": freshness(args.lake),
                "counts_ok": verify_lake_counts(args.lake),
                "skew": skew_report(args.lake),
            }
            if args.constraints_json:
                from .pipelines.qc import Constraint, check_constraints

                with open(args.constraints_json) as fh:
                    specs = json.load(fh)
                cons = [
                    Constraint(
                        name=s["name"],
                        kind=s["kind"],
                        columns=tuple(s["columns"]),
                        values=tuple(s.get("values", ())),
                        lo=s.get("lo"),
                        hi=s.get("hi"),
                        pattern=s.get("pattern"),
                    )
                    for s in specs
                ]
                out["constraints"] = check_constraints(args.lake, cons).to_dict(
                    orient="records"
                )
            print(json.dumps(out))
        elif args.cmd == "pit-join":
            import os as _os

            import pyarrow as _pa
            import pyarrow.parquet as _pq
            import ray.data as _rd

            from .pipelines.history import pit_join

            res = pit_join(
                args.lake, _rd.read_parquet(args.probe), at_column=args.at_column
            )
            if args.out.endswith(".parquet"):
                # single-file convenience path: materializes on the driver —
                # for SMALL results only; large probes must use the streamed
                # directory form below
                _os.makedirs(_os.path.dirname(args.out) or ".", exist_ok=True)
                tbl = _pa.Table.from_pandas(res.to_pandas(), preserve_index=False)
                _pq.write_table(tbl, args.out)
                n = tbl.num_rows
            else:
                # streamed: each bucket's output block is written by its own
                # task — nothing materializes on the driver. Remove PRIOR
                # parquet files first: write_parquet APPENDS uuid-named
                # files, so a rerun would otherwise accumulate stale+new
                # rows (the single-file path overwrites; the directory path
                # must honor the same contract). Ownership gate: only clear
                # a directory this tool marked on a previous run — parquet
                # files in an unmarked directory are someone else's data and
                # the run refuses rather than delete them.
                import glob as _glob

                marker = _os.path.join(args.out, "_PIT_JOIN_OUT")
                prior = _glob.glob(_os.path.join(args.out, "*.parquet"))
                if prior and not _os.path.exists(marker):
                    raise SystemExit(
                        f"pit-join: --out {args.out} already holds parquet "
                        "files this tool did not write (no _PIT_JOIN_OUT "
                        "marker) — refusing to delete them; use a fresh "
                        "directory"
                    )
                for f in prior:
                    _os.remove(f)
                _os.makedirs(args.out, exist_ok=True)
                open(marker, "w").close()
                res.write_parquet(args.out)
                n = sum(
                    _pq.read_metadata(f).num_rows
                    for f in _glob.glob(_os.path.join(args.out, "*.parquet"))
                )
            print(json.dumps({"rows": n, "out": args.out}))
        elif args.cmd == "analyze":
            from .pipelines.qc import analyze_lake, analyze_lake_approx

            fn = analyze_lake_approx if args.approx else analyze_lake
            out = fn(args.lake, [c.strip() for c in args.columns.split(",") if c.strip()])
            print(out.to_json(orient="records"))
        elif args.cmd == "replicate":
            from .pipelines.ingest import replicate_lake

            print(json.dumps(replicate_lake(
                args.src, args.dst, num_partitions=args.partitions,
                merge_mode=args.merge_mode,
            )))
        elif args.cmd == "lookup":
            from .pipelines.ingest import lookup_keys

            keys = [tuple(k.split(":", 1)) for k in args.key]
            t = lookup_keys(args.lake, keys, as_of_epoch=args.as_of_epoch)
            print(json.dumps({"rows": t.to_pylist()}, default=str))
        elif args.cmd == "replay-errors":
            from .pipelines.ingest import replay_errors

            print(json.dumps(replay_errors(args.lake, num_partitions=args.partitions)))
        elif args.cmd == "export":
            from .pipelines.ingest import export_snapshot

            print(
                json.dumps(
                    export_snapshot(args.lake, args.out, as_of_epoch=args.as_of_epoch)
                )
            )
        elif args.cmd == "set-watermark":
            from .pipelines.tail import set_watermark_override

            set_watermark_override(args.lake, args.epoch)
            print(json.dumps({"watermark_epoch": args.epoch}))
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
