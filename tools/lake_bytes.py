"""Bytes of a lake per file kind and per column, with each column's codec.

Reads Parquet footers only, never data pages, so it is cheap on a lake of
any size. File kinds: ``state``, ``delta`` and ``stats`` partition files;
the ``_history``, ``_errors`` and ``_decoded`` sidecars, with their folded
runs as ``<sidecar>/runs``; ``_colindex``; anything else as ``other``.
Per column it prints the compressed bytes of its column chunks, their share
of the kind's bytes, the compression ratio and the codec(s). Usage:

    python tools/lake_bytes.py LAKE [--kind state] [--json]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict

import pyarrow.parquet as pq

_RUN_DIRS = ("runs", "compacted")


def file_kind(lake: str, path: str) -> str:
    base = os.path.basename(path)
    for kind in ("state", "delta", "stats"):
        if base.startswith(kind + "-"):
            return kind
    parts = os.path.relpath(path, lake).split(os.sep)
    if parts[0].startswith("_"):
        return parts[0] + ("/runs" if any(p in _RUN_DIRS for p in parts[1:]) else "")
    return "other"


def lake_bytes(lake: str) -> dict[str, dict]:
    """{kind: {files, bytes, columns: {leaf: {bytes, raw_bytes, codecs}}}}."""
    out: dict[str, dict] = {}
    for root, _dirs, names in os.walk(lake):
        for name in names:
            if not name.endswith(".parquet"):
                continue  # skips *.parquet.tmp.* leftovers of a crashed write
            path = os.path.join(root, name)
            kind = out.setdefault(
                file_kind(lake, path),
                {"files": 0, "bytes": 0, "columns": defaultdict(
                    lambda: {"bytes": 0, "raw_bytes": 0, "codecs": set()})},
            )
            kind["files"] += 1
            kind["bytes"] += os.path.getsize(path)
            md = pq.read_metadata(path)
            for rg in range(md.num_row_groups):
                for i in range(md.num_columns):
                    chunk = md.row_group(rg).column(i)
                    col = kind["columns"][chunk.path_in_schema]
                    col["bytes"] += chunk.total_compressed_size
                    col["raw_bytes"] += chunk.total_uncompressed_size
                    col["codecs"].add(chunk.compression)
    return out


def _report(stats: dict[str, dict]) -> str:
    lines = []
    total = sum(k["bytes"] for k in stats.values())
    lines.append(f"total {total:,} B in {sum(k['files'] for k in stats.values())} files")
    for kind, k in sorted(stats.items(), key=lambda kv: -kv[1]["bytes"]):
        share = k["bytes"] / total if total else 0.0
        lines.append(f"\n{kind}: {k['files']} files, {k['bytes']:,} B ({share:.1%})")
        lines.append(f"  {'column':<32} {'bytes':>14} {'share':>7} {'ratio':>6}  codec")
        for leaf, c in sorted(k["columns"].items(), key=lambda kv: -kv[1]["bytes"]):
            col_share = c["bytes"] / k["bytes"] if k["bytes"] else 0.0
            ratio = c["raw_bytes"] / c["bytes"] if c["bytes"] else 0.0
            lines.append(
                f"  {leaf:<32} {c['bytes']:>14,} {col_share:>7.1%} {ratio:>6.2f}  "
                + ",".join(sorted(c["codecs"]))
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("lake")
    ap.add_argument("--kind", help="report only this file kind")
    ap.add_argument("--json", action="store_true", help="print one JSON object")
    args = ap.parse_args(argv)
    if not os.path.isdir(args.lake):
        print(f"not a directory: {args.lake}", file=sys.stderr)
        return 2
    stats = lake_bytes(args.lake)
    if args.kind is not None:
        stats = {k: v for k, v in stats.items() if k == args.kind}
    if args.json:
        print(json.dumps(
            {kind: {**k, "columns": {
                leaf: {**c, "codecs": sorted(c["codecs"])} for leaf, c in k["columns"].items()
            }} for kind, k in stats.items()},
            sort_keys=True,
        ))
    else:
        print(_report(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
