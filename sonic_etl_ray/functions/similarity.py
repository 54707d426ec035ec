"""Similarity search over an embedding column (`list<float>`).

Baseline: brute-force cosine top-k — the query matrix is broadcast once via
``ray.put`` and each batch does one numpy matmul (never re-shipped per
batch). Scale path: LSH-bucketed search (random-hyperplane signatures →
bucket groupby → exact rerank inside buckets), the IVF-style pruning
pattern: at 100 TB only the matching buckets are scanned.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(n, 1e-12)


# Peak float64 elements any single gram TILE may hold (~32 MB). The pairwise
# kernels never allocate an n×n matrix: they stream row-tiles of
# ceil(_GRAM_TILE_ELEMS / n) rows against the full normalized matrix, so a
# hot cluster of 1M vectors costs O(tile·n) ≈ 32 MB per step instead of the
# 8 TB dense gram (the guardrail class ngram_jaccard_pairs' max_block_pairs
# established; tests shrink this to force multi-tile execution).
_GRAM_TILE_ELEMS = 4_000_000


def _gram_tile_rows(n: int) -> int:
    return max(1, _GRAM_TILE_ELEMS // max(n, 1))


def _tiled_neardup_pairs(
    ids: np.ndarray, m: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All strict-upper-triangle (i<j) cosine pairs ≥ threshold over the
    normalized row matrix ``m``, computed in (tile × n) slabs — peak extra
    memory O(tile·n), never the dense n×n gram. Returns (vec_a, vec_b,
    cosine) aligned arrays; ids must be ascending."""
    n = len(ids)
    step = _gram_tile_rows(n)
    a_parts, b_parts, c_parts = [], [], []
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        blk = m[i0:i1] @ m.T  # (tile, n)
        ia, ib = np.nonzero(blk >= threshold)
        upper = ib > (ia + i0)  # strict upper triangle only
        ia, ib = ia[upper], ib[upper]
        a_parts.append(ids[ia + i0])
        b_parts.append(ids[ib])
        c_parts.append(blk[ia, ib])
    if not a_parts:
        return (
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.float64),
        )
    return np.concatenate(a_parts), np.concatenate(b_parts), np.concatenate(c_parts)


def _tiled_dropped_mask(m: np.ndarray, threshold: float) -> np.ndarray:
    """dropped[j] = any i<j with cos(i,j) ≥ threshold, in (tile × n) slabs
    (strict i<j via column-index mask: a zero fill of the lower triangle
    would spuriously drop EVERY vector at threshold ≤ 0). Rows must be in
    keep-priority (ascending vec_id) order."""
    n = len(m)
    step = _gram_tile_rows(n)
    dropped = np.zeros(n, dtype=bool)
    cols = np.arange(n)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        blk = m[i0:i1] @ m.T  # (tile, n)
        hit = blk >= threshold
        hit &= cols[None, :] > (np.arange(i0, i1)[:, None])  # j > i only
        dropped |= hit.any(axis=0)
    return dropped


def _query_vector(sf_dir: str, vec_id: int = 0) -> np.ndarray:
    """Point-lookup of one query vector: a filtered Parquet read — the
    predicate prunes row groups via vec_id min/max statistics, so query
    setup reads O(row-group), never the whole vector lake."""
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["embedding"],
        filters=[("vec_id", "==", vec_id)],
    )
    if t.num_rows == 0:
        raise KeyError(f"vec_id {vec_id} not found in {sf_dir}/embeddings.parquet")
    return np.asarray(t.column("embedding")[0].as_py(), dtype=np.float64)


class CosineScorer:
    """Per-actor state: the normalized query matrix fetched from the object
    store once in ``__init__`` (broadcast pattern, J2 analog)."""

    def __init__(self, query_ref):
        q = ray.get(query_ref)
        self.q = _normalize(np.atleast_2d(np.asarray(q, dtype=np.float64)))

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if not len(batch):  # empty shuffle blocks must not hit np.stack
            return pd.DataFrame({"vec_id": pd.Series(dtype="int64"), "cosine": pd.Series(dtype="float64")})
        m = _normalize(np.stack(batch["embedding"].to_numpy()).astype(np.float64))
        sims = m @ self.q.T  # (batch, n_queries)
        return pd.DataFrame({"vec_id": batch["vec_id"].to_numpy(), "cosine": sims[:, 0]})


def brute_force_topk(sf_dir: str, k: int = 10, query_vec_id: int = 0) -> pd.DataFrame:
    """Exact cosine top-k against one query vector (per-batch matmul, then a
    per-batch local top-k so only k rows per batch reach the final sort)."""
    qref = ray.put(_query_vector(sf_dir, query_vec_id))
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    scored = ds.map_batches(CosineScorer(qref), batch_format="pandas")

    def local_topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["cosine", "vec_id"], ascending=[False, True], kind="stable").head(k)

    top = (
        scored.map_batches(local_topk, batch_format="pandas")
        .sort(["cosine", "vec_id"], descending=[True, False])
        .limit(k)
    )
    return top.to_pandas().reset_index(drop=True)


class HyperplaneHasher:
    """Random-hyperplane LSH signatures (per-actor plane matrix)."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 13):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_planes))
        self.weights = 1 << np.arange(n_planes, dtype=np.int64)

    def bucket(self, m: np.ndarray) -> np.ndarray:
        return ((m @ self.planes) > 0).astype(np.int64) @ self.weights

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        if not len(b):
            out["bucket"] = pd.Series(dtype="int64")
            return out
        m = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        out["bucket"] = self.bucket(m)
        return out


def lsh_topk(
    sf_dir: str, k: int = 10, query_vec_id: int = 0, n_planes: int = 8, seed: int = 13
) -> pd.DataFrame:
    """Approximate top-k: scan only vectors whose LSH bucket matches the
    query's (single-probe). At scale buckets are a partition key — the read
    prunes everything else; here the filter runs distributed per batch."""
    q = _query_vector(sf_dir, query_vec_id)
    hasher = HyperplaneHasher(q.size, n_planes, seed)
    target = int(hasher.bucket(np.atleast_2d(q))[0])
    qref = ray.put(q)

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    bucketed = ds.map_batches(
        HyperplaneHasher(q.size, n_planes, seed), batch_format="pandas"
    )
    # arrow-native filter: typed empty blocks (a pandas slice loses dtype
    # information on empty object columns and trips Ray's size estimator)
    candidates = bucketed.map_batches(
        lambda t: t.filter(pc.equal(t["bucket"], target)).drop_columns(["bucket"]),
        batch_format="pyarrow",
    )
    scored = candidates.map_batches(CosineScorer(qref), batch_format="pandas")
    top = scored.sort(["cosine", "vec_id"], descending=[True, False]).limit(k)
    return top.to_pandas().reset_index(drop=True)


class IVFIndexer:
    """IVF-style coarse quantizer: seeded k-means centroids fitted on a
    sample (per-actor state), per-batch nearest-centroid assignment.

    The scale path for ANN beyond LSH: centroids are the partition key —
    at 100 TB the lake is laid out by cluster id and a query scans only
    ``n_probe`` clusters' partitions (partition-pruned read), here modeled
    by the distributed filter.
    """

    def __init__(self, centroids: np.ndarray):
        self.centroids = _normalize(np.asarray(centroids, dtype=np.float64))

    def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
        out = b.copy()
        if not len(b):
            out["cluster"] = pd.Series(dtype="int64")
            return out
        m = _normalize(np.stack(b["embedding"].to_numpy()).astype(np.float64))
        out["cluster"] = np.argmax(m @ self.centroids.T, axis=1).astype(np.int64)
        return out


def fit_centroids(
    sf_dir: str, k: int = 8, iters: int = 5, seed: int = 11, sample_rows: int = 65_536
) -> np.ndarray:
    """Seeded Lloyd iterations on a BOUNDED driver-side sample: the read is
    capped at ``sample_rows`` (deterministic file-order prefix — seeded, so
    the train step is reproducible) regardless of table size; assignment is
    the distributed part. At 100 TB the driver never sees more than the
    sample."""
    import ray.data

    sample = (
        ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
        .limit(sample_rows)
        .to_pandas()
    )
    m = _normalize(np.stack(sample["embedding"].to_numpy()).astype(np.float64))
    rng = np.random.default_rng(seed)
    cents = m[rng.choice(len(m), size=min(k, len(m)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ _normalize(cents).T, axis=1)
        for c in range(len(cents)):
            members = m[assign == c]
            if len(members):
                cents[c] = members.mean(axis=0)
    return _normalize(cents)


def ivf_topk(
    sf_dir: str, k: int = 10, query_vec_id: int = 0, n_clusters: int = 8, n_probe: int = 2
) -> pd.DataFrame:
    """IVF ANN: assign vectors to coarse clusters (actor pool), scan only the
    ``n_probe`` clusters nearest the query, exact-rerank inside them."""
    q = _query_vector(sf_dir, query_vec_id)
    cents = fit_centroids(sf_dir, k=n_clusters)
    qn = q / max(np.linalg.norm(q), 1e-12)
    probe = set(np.argsort(-(cents @ qn))[:n_probe].tolist())
    qref = ray.put(q)

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    assigned = ds.map_batches(IVFIndexer(cents), batch_format="pandas")
    candidates = assigned.map_batches(
        lambda t: t.filter(
            pc.is_in(t["cluster"], value_set=pa.array(sorted(probe), pa.int64()))
        ).drop_columns(["cluster"]),
        batch_format="pyarrow",
    )
    scored = candidates.map_batches(CosineScorer(qref), batch_format="pandas")
    top = scored.sort(["cosine", "vec_id"], descending=[True, False]).limit(k)
    return top.to_pandas().reset_index(drop=True)


def _index_cache_dir(
    kind: str, sf_dir: str, *params, src_name: str = "embeddings.parquet"
) -> str:
    """Deterministic on-disk cache location for a derived index (shared by
    the ANN indexes here and the inverted token index in :mod:`.search`).

    The key digests (source path, source file mtime+size, params) with md5 —
    NOT ``hash()``, whose PYTHONHASHSEED salt changes per process and made
    every fresh process (e.g. the driver's per-round gate) rebuild a
    perfectly good index. Folding in the source's mtime/size also
    invalidates the cache when the input file changes in place, so a stale
    index can never serve a mutated lake."""
    import hashlib
    import os
    import tempfile

    src = os.path.join(sf_dir, src_name)
    try:
        st = os.stat(src)
        stamp = f"{st.st_mtime_ns}:{st.st_size}"
    except FileNotFoundError:
        stamp = "missing"
    digest = hashlib.md5(
        "|".join([os.path.abspath(sf_dir), stamp, *map(str, params)]).encode()
    ).hexdigest()[:16]
    return os.path.join(tempfile.gettempdir(), f"{kind}_index_{digest}")


def _publish_index_dir(tmp_dir: str, index_dir: str) -> None:
    """Atomic publish of a fully-built index: rename the staging dir onto
    the digest path. Concurrent builders (the multi-process driver gate) or
    a crashed-and-retried build can otherwise interleave UUID-named parquet
    files in the same final directory and then flag it _INDEX_READY —
    readers would scan the union (duplicated vectors, wrong top-k) forever,
    since the mtime+size cache key never invalidates a torn build. First
    publisher wins; the loser's staging dir is discarded."""
    import os
    import shutil

    try:
        os.rename(tmp_dir, index_dir)
    except OSError:
        shutil.rmtree(tmp_dir, ignore_errors=True)  # rival already published


def build_ivf_index(
    sf_dir: str,
    index_dir: str,
    n_clusters: int = 8,
    source: "ray.data.Dataset | None" = None,
) -> str:
    """Cluster-partitioned Parquet layout for IVF: one assignment pass,
    ``cluster=N/`` directories — same read-pruning story as the LSH index,
    with the coarse quantizer as the partitioner. The centroids ride along
    as ``centroids.npy`` so query time needs no re-fit. Built in a staging
    dir and atomically renamed into place (see :func:`_publish_index_dir`).
    ``source`` overrides the vectors indexed (a (vec_id, embedding)
    Dataset — e.g. the already-ingested base when the rest arrives later
    through :func:`extend_ivf_index`); the quantizer is always fit from the
    sf_dir sample so base and extension share one frozen centroid family."""
    import os
    import uuid

    cents = fit_centroids(sf_dir, k=n_clusters)
    ds = source if source is not None else ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    assigned = ds.map_batches(IVFIndexer(cents), batch_format="pandas")

    def plain(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "vec_id": pa.array(b["vec_id"].to_numpy(), pa.int64()),
                "embedding": pa.array(
                    [np.asarray(e, np.float32) for e in b["embedding"]],
                    pa.list_(pa.float32()),
                ),
                "cluster": pa.array(b["cluster"].to_numpy(), pa.int64()),
            }
        )

    tmp_dir = f"{index_dir}.build.{uuid.uuid4().hex[:8]}"
    assigned.map_batches(plain, batch_format="pandas").write_parquet(
        tmp_dir, partition_cols=["cluster"]
    )
    # an EMPTY source writes no files and may not even create the staging
    # dir — an empty index is legitimate (extensions populate it later)
    os.makedirs(tmp_dir, exist_ok=True)
    np.save(os.path.join(tmp_dir, "centroids.npy"), cents)
    open(os.path.join(tmp_dir, "_INDEX_READY"), "w").close()
    _publish_index_dir(tmp_dir, index_dir)
    return index_dir


def _extend_partitioned_index(
    index_dir: str, bucketed: ray.data.Dataset, part_col: str, tag: str
) -> dict:
    """Shared move-in step for incremental index extensions: write the
    tagged batch into a staging dir partitioned by ``part_col``, then
    rename each file into the live layout as ``ext-<tag>-<i>.parquet`` and
    fsync a ``_ext_<tag>.done`` marker.

    Idempotence contract (the CDC epoch discipline): ``tag`` identifies the
    batch (use the epoch id). A completed tag short-circuits; a retried
    TORN extension first deletes every ``ext-<tag>-*`` file and re-moves,
    so replays converge. The clean + move + marker sequence runs under the
    index dir's single-writer lease (:func:`~..state.commitlog.acquire_writer_lease`):
    a second extender of the same index fails fast with ``LeaseHeld``
    instead of deleting files the first one just moved in, and a crashed
    extender's lease is taken over once its TTL lapses. Readers may
    observe a prefix of an in-flight extension (file-append visibility —
    the same guarantee any live directory layout gives); a full rebuild
    via the staging+rename publish remains the strictly-atomic path."""
    import glob as _glob
    import json
    import re
    import shutil
    import uuid

    from ..state import commitlog as cl

    if not re.fullmatch(r"[A-Za-z0-9_.]+", str(tag)):
        # '-' is the filename separator: a tag like '3' would otherwise
        # glob-clean tag '3-b's committed files on retry; path chars worse
        raise ValueError(
            f"extension tag {tag!r} must match [A-Za-z0-9_.]+ (no '-', no "
            "path separators) — it is embedded in cleanup globs and filenames"
        )
    marker = os.path.join(index_dir, f"_ext_{tag}.done")
    if os.path.exists(marker):
        with open(marker) as fh:
            return json.load(fh)

    staging = f"{index_dir}.ext.{uuid.uuid4().hex[:8]}"
    token = None
    try:
        bucketed.write_parquet(staging, partition_cols=[part_col])
        token = cl.acquire_writer_lease(index_dir, owner=f"extend_index:{tag}")
        if os.path.exists(marker):  # a rival finished this tag meanwhile
            with open(marker) as fh:
                return json.load(fh)
        # retry hygiene: clear any files a torn earlier attempt moved in
        for f in _glob.glob(os.path.join(index_dir, f"{part_col}=*", f"ext-{tag}-*.parquet")):
            os.remove(f)
        moved = 0
        rows_meta = 0
        for bdir in sorted(_glob.glob(os.path.join(staging, f"{part_col}=*"))):
            dest = os.path.join(index_dir, os.path.basename(bdir))
            os.makedirs(dest, exist_ok=True)
            for f in sorted(_glob.glob(os.path.join(bdir, "*.parquet"))):
                rows_meta += pq.read_metadata(f).num_rows
                os.rename(f, os.path.join(dest, f"ext-{tag}-{moved}.parquet"))
                moved += 1
        stats = {"tag": str(tag), "files": moved, "rows": rows_meta}
        cl._atomic_write(marker, json.dumps(stats).encode())
        return stats
    finally:
        if token is not None:
            cl.release_writer_lease(index_dir, token)
        shutil.rmtree(staging, ignore_errors=True)


def extend_lsh_index(index_dir: str, ds: ray.data.Dataset, tag: str) -> dict:
    """Incrementally append new vectors to an existing LSH index — the CDC
    maintenance path the indexed queries rely on: each epoch's new vectors
    are hashed with the index's PERSISTED hyperplane family
    (``_INDEX_META.json``) and land as tagged files in their ``bucket=N/``
    directories, so probes see them with no rebuild. ``ds`` needs
    (vec_id, embedding) columns; ``tag`` should be the epoch id (see
    :func:`_extend_partitioned_index` for the idempotence contract)."""
    import json

    meta_path = os.path.join(index_dir, "_INDEX_META.json")
    if not os.path.exists(meta_path):
        raise FileNotFoundError(
            f"{index_dir} has no _INDEX_META.json — rebuild it with "
            "build_lsh_index (pre-meta indexes cannot be extended: the "
            "hyperplane family would be unrecoverable)"
        )
    with open(meta_path) as fh:
        meta = json.load(fh)
    bucketed = ds.map_batches(
        HyperplaneHasher(meta["dim"], meta["n_planes"], meta["seed"]),
        batch_format="pandas",
    )

    def plain(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "vec_id": pa.array(b["vec_id"].to_numpy(), pa.int64()),
                "embedding": pa.array(
                    [np.asarray(e, np.float32) for e in b["embedding"]],
                    pa.list_(pa.float32()),
                ),
                "bucket": pa.array(b["bucket"].to_numpy(), pa.int64()),
            }
        )

    return _extend_partitioned_index(
        index_dir, bucketed.map_batches(plain, batch_format="pandas"), "bucket", tag
    )


def extend_ivf_index(index_dir: str, ds: ray.data.Dataset, tag: str) -> dict:
    """Incrementally append new vectors to an existing IVF index: assign
    against the index's persisted ``centroids.npy`` (no re-fit — the coarse
    quantizer must stay frozen or every existing assignment would shift)
    and land tagged files in the ``cluster=N/`` directories. Same
    idempotence contract as :func:`extend_lsh_index`."""
    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    assigned = ds.map_batches(IVFIndexer(cents), batch_format="pandas")

    def plain(b: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "vec_id": pa.array(b["vec_id"].to_numpy(), pa.int64()),
                "embedding": pa.array(
                    [np.asarray(e, np.float32) for e in b["embedding"]],
                    pa.list_(pa.float32()),
                ),
                "cluster": pa.array(b["cluster"].to_numpy(), pa.int64()),
            }
        )

    return _extend_partitioned_index(
        index_dir, assigned.map_batches(plain, batch_format="pandas"), "cluster", tag
    )


def _probe_ivf_index(index_dir: str, q: np.ndarray, k: int, n_probe: int) -> pd.DataFrame:
    """Shared IVF probe: pick the ``n_probe`` nearest centroid directories
    from the index's persisted quantizer, read ONLY those files, rerank."""
    import glob

    cents = np.load(os.path.join(index_dir, "centroids.npy"))
    qn = q / max(np.linalg.norm(q), 1e-12)
    probe = np.argsort(-(cents @ qn))[:n_probe].tolist()
    # read_parquet accepts a single directory but a LIST must be files:
    # expand each probed cluster dir to its parquet files
    paths = [
        f
        for c in sorted(probe)
        for f in sorted(glob.glob(os.path.join(index_dir, f"cluster={c}", "*.parquet")))
    ]
    if not paths:
        return pd.DataFrame(
            {"vec_id": pd.Series(dtype="int64"), "cosine": pd.Series(dtype="float64")}
        )
    qref = ray.put(q)
    scored = ray.data.read_parquet(paths, columns=["vec_id", "embedding"]).map_batches(
        CosineScorer(qref), batch_format="pandas"
    )
    top = scored.sort(["cosine", "vec_id"], descending=[True, False]).limit(k)
    return top.to_pandas().reset_index(drop=True)


def ivf_topk_indexed(
    sf_dir: str, k: int = 10, query_vec_id: int = 0, n_clusters: int = 8, n_probe: int = 2
) -> pd.DataFrame:
    """`ivf_topk` over the cluster-partitioned index: read ONLY the
    ``n_probe`` nearest clusters' directories. Identical results to the
    filter path (same quantizer, same rerank)."""
    index_dir = _index_cache_dir("ivf", sf_dir, n_clusters)
    if not os.path.exists(os.path.join(index_dir, "_INDEX_READY")):
        build_ivf_index(sf_dir, index_dir, n_clusters=n_clusters)
    return _probe_ivf_index(index_dir, _query_vector(sf_dir, query_vec_id), k, n_probe)


def _embedding_split(
    sf_dir: str, holdout_mod: int
) -> "tuple[ray.data.Dataset, ray.data.Dataset]":
    """(base, holdout) split of the embeddings table on ``vec_id % mod``:
    the deterministic stand-in for 'the lake before this epoch' vs 'this
    epoch's arrivals' that the extend-index queries replay."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def part(hold: bool):
        def f(t: pa.Table) -> pa.Table:
            vid = t.column("vec_id").to_numpy()
            mask = (vid % holdout_mod == 0) if hold else (vid % holdout_mod != 0)
            return t.filter(pa.array(mask))

        return f

    return (
        ds.map_batches(part(False), batch_format="pyarrow"),
        ds.map_batches(part(True), batch_format="pyarrow"),
    )


def ivf_topk_indexed_extended(
    sf_dir: str,
    k: int = 10,
    query_vec_id: int = 0,
    n_clusters: int = 8,
    n_probe: int = 8,
    holdout_mod: int = 5,
) -> pd.DataFrame:
    """The CDC index-maintenance path end to end: build the IVF index from
    the base 80% of vectors (``vec_id % holdout_mod != 0``), append the
    held-out 20% through :func:`extend_ivf_index` (frozen quantizer,
    epoch-tagged idempotent file moves), then probe. At full probe the
    result must equal the brute-force top-k over ALL vectors — an extension
    that lost, duplicated, or mis-assigned a vector breaks the equality, so
    the brute-force SQL oracle verifies the maintenance path itself."""
    index_dir = _index_cache_dir("ivfx", sf_dir, n_clusters, holdout_mod)
    base, holdout = _embedding_split(sf_dir, holdout_mod)
    if not os.path.exists(os.path.join(index_dir, "_INDEX_READY")):
        build_ivf_index(sf_dir, index_dir, n_clusters=n_clusters, source=base)
    # idempotent: the _ext marker short-circuits when already applied, and
    # also heals a crash that published the base but never extended
    extend_ivf_index(index_dir, holdout, tag=f"h{holdout_mod}")
    return _probe_ivf_index(index_dir, _query_vector(sf_dir, query_vec_id), k, n_probe)


def cosine_neardup_pairs(sf_dir: str, threshold: float = 0.35) -> pd.DataFrame:
    """Embedding near-duplicate pairs (cosine ≥ threshold) within same-label
    blocks: groupby(label) → per-group normalized gram matrix. Blocking
    bounds the pairwise cost; the groupby is the only shuffle."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding", "label"]
    )

    def per_label(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id", kind="stable")
        ids = g["vec_id"].to_numpy()
        m = _normalize(np.stack(g["embedding"].to_numpy()).astype(np.float64))
        # tiled upper-triangle scan (O(tile·n) memory, never the dense
        # n×n gram — a 1M-vector hot label stays ~32 MB/step)
        va, vb, cs = _tiled_neardup_pairs(ids, m, threshold)
        return pd.DataFrame(
            {
                "vec_a": va.astype("int64"),
                "vec_b": vb.astype("int64"),
                "cosine": cs.astype("float64"),
            }
        )

    out = ds.groupby("label").map_groups(per_label, batch_format="pandas").to_pandas()
    if out.empty:  # all-empty groups can lose the schema through Ray blocks
        out = pd.DataFrame(
            {
                "vec_a": pd.Series(dtype="int64"),
                "vec_b": pd.Series(dtype="int64"),
                "cosine": pd.Series(dtype="float64"),
            }
        )
    return out.sort_values(["vec_a", "vec_b"]).reset_index(drop=True)


# ------------------------------------------------------ bucketed LSH index

def build_lsh_index(
    sf_dir: str,
    index_dir: str,
    n_planes: int = 8,
    seed: int = 13,
    source: "ray.data.Dataset | None" = None,
) -> str:
    """Materialize the LSH layout as a bucket-partitioned Parquet index:
    one pass assigns hyperplane buckets, ``write_parquet(partition_cols=
    ["bucket"])`` lays vectors out as ``bucket=N/`` directories. Queries
    then PRUNE THE READ to the probe buckets' directories — file-listing
    level data skipping, not a post-read filter (the difference between
    scanning 2^n_planes-th of a 100 TB table and scanning all of it).
    Built in a staging dir and atomically renamed (:func:`_publish_index_dir`)."""
    import os
    import uuid

    q0 = _query_vector(sf_dir, 0)
    ds = source if source is not None else ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    bucketed = ds.map_batches(
        HyperplaneHasher(q0.size, n_planes, seed), batch_format="pandas"
    )

    def plain(b: pd.DataFrame) -> pa.Table:
        # persist embedding as a PLAIN list<float32> column (a pandas block
        # of ndarrays would round-trip as Ray's tensor extension type and
        # surprise non-Ray readers of the index)
        return pa.table(
            {
                "vec_id": pa.array(b["vec_id"].to_numpy(), pa.int64()),
                "embedding": pa.array(
                    [np.asarray(e, np.float32) for e in b["embedding"]],
                    pa.list_(pa.float32()),
                ),
                "bucket": pa.array(b["bucket"].to_numpy(), pa.int64()),
            }
        )

    tmp_dir = f"{index_dir}.build.{uuid.uuid4().hex[:8]}"
    bucketed.map_batches(plain, batch_format="pandas").write_parquet(
        tmp_dir, partition_cols=["bucket"]
    )
    import json

    # an EMPTY source writes no files and may not even create the staging
    # dir — an empty index is legitimate (extensions populate it later)
    os.makedirs(tmp_dir, exist_ok=True)
    with open(os.path.join(tmp_dir, "_INDEX_META.json"), "w") as fh:
        # extension params: incremental appends must hash with the SAME
        # hyperplane family the index was built with
        json.dump({"kind": "lsh", "dim": int(q0.size), "n_planes": n_planes,
                   "seed": seed}, fh)
    open(os.path.join(tmp_dir, "_INDEX_READY"), "w").close()
    _publish_index_dir(tmp_dir, index_dir)
    return index_dir


def lsh_topk_indexed(
    sf_dir: str, k: int = 10, query_vec_id: int = 0, n_planes: int = 8, seed: int = 13
) -> pd.DataFrame:
    """`lsh_topk` over the bucket-partitioned index: the probe bucket is
    computed driver-side from the query vector, and the scan reads ONLY
    ``bucket=<target>/`` (single-probe). Result is identical to the
    filter-based path (same bucket assignment, same rerank); only the I/O
    shape changes — this is the layout a 100 TB vector lake would use, with
    the index maintained incrementally by the CDC path
    (:func:`extend_lsh_index`: each epoch's new vectors land as tagged
    files in their bucket directories, idempotent per epoch tag)."""
    q = _query_vector(sf_dir, query_vec_id)
    index_dir = _index_cache_dir("lsh", sf_dir, n_planes, seed)
    if not os.path.exists(os.path.join(index_dir, "_INDEX_READY")):
        build_lsh_index(sf_dir, index_dir, n_planes=n_planes, seed=seed)
    return _probe_lsh_index(index_dir, q, k, n_planes, seed)


def _probe_lsh_index(
    index_dir: str, q: np.ndarray, k: int, n_planes: int, seed: int
) -> pd.DataFrame:
    """Shared LSH probe: hash the query with the index's hyperplane family,
    read ONLY ``bucket=<target>/``, rerank by exact cosine."""
    hasher = HyperplaneHasher(q.size, n_planes, seed)
    target = int(hasher.bucket(np.atleast_2d(q))[0])
    bucket_path = os.path.join(index_dir, f"bucket={target}")
    if not os.path.exists(bucket_path):  # empty probe bucket
        return pd.DataFrame(
            {"vec_id": pd.Series(dtype="int64"), "cosine": pd.Series(dtype="float64")}
        )
    qref = ray.put(q)
    candidates = ray.data.read_parquet(bucket_path, columns=["vec_id", "embedding"])
    scored = candidates.map_batches(CosineScorer(qref), batch_format="pandas")
    top = scored.sort(["cosine", "vec_id"], descending=[True, False]).limit(k)
    return top.to_pandas().reset_index(drop=True)


def lsh_topk_indexed_extended(
    sf_dir: str,
    k: int = 10,
    query_vec_id: int = 0,
    n_planes: int = 8,
    seed: int = 13,
    holdout_mod: int = 5,
) -> pd.DataFrame:
    """LSH twin of :func:`ivf_topk_indexed_extended`: index the base 80%
    with :func:`build_lsh_index`, append the held-out 20% through
    :func:`extend_lsh_index` (the persisted hyperplane family from
    ``_INDEX_META.json``, epoch-tagged idempotent moves), then single-probe.
    The probe must reproduce :func:`lsh_topk` over the FULL table — same
    bucket assignment for every vector whether it arrived at build time or
    through the extension — so the existing LSH oracle verifies the
    incremental maintenance path exactly."""
    index_dir = _index_cache_dir("lshx", sf_dir, n_planes, seed, holdout_mod)
    base, holdout = _embedding_split(sf_dir, holdout_mod)
    if not os.path.exists(os.path.join(index_dir, "_INDEX_READY")):
        build_lsh_index(sf_dir, index_dir, n_planes=n_planes, seed=seed, source=base)
    extend_lsh_index(index_dir, holdout, tag=f"h{holdout_mod}")
    return _probe_lsh_index(index_dir, _query_vector(sf_dir, query_vec_id), k, n_planes, seed)


# ---------------------------------------------------------------------------
# Embedding int8 quantization (vector compression for storage/serving)
# ---------------------------------------------------------------------------


def quantize_embeddings(sf_dir: str) -> pd.DataFrame:
    """Symmetric per-vector int8 quantization: q = round(127 · x / max|x|)
    — the storage/serving compression step of an embedding pipeline (4×
    smaller than float32, recall loss ≪ ANN error). Shuffle-free map; the
    exploded (vec_id, pos, qval) integer output is hash-exact against the
    SQL oracle (floats never leave the kernel; every float32 is exactly
    representable in the float64 both engines compute in)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def q(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "pos": pa.array([], pa.int64()),
                    "qval": pa.array([], pa.int64()),
                }
            )
        col = t.column("embedding").combine_chunks()
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0)
        n = len(col)
        d = len(col[0])
        v = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        v = v.reshape(n, d)
        m = np.abs(v).max(axis=1)
        m = np.where(m == 0.0, 1.0, m)
        qv = np.round(127.0 * v / m[:, None]).astype(np.int64)
        vec_ids = t.column("vec_id").to_numpy()
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(vec_ids, d), pa.int64()),
                "pos": pa.array(np.tile(np.arange(1, d + 1, dtype=np.int64), n), pa.int64()),
                "qval": pa.array(qv.ravel(), pa.int64()),
            }
        )

    out = ds.map_batches(q, batch_format="pyarrow").to_pandas()
    return out.sort_values(["vec_id", "pos"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# k-means (Lloyd) over the embedding column — the iterative-algorithm shape
# ---------------------------------------------------------------------------


def semantic_dedup(
    sf_dir: str, threshold: float = 0.35, k: int = 1
) -> pd.DataFrame:
    """SemDeDup-style semantic deduplication (Abbas et al. 2023, public):
    k-means-cluster the embedding space, then WITHIN each cluster drop every
    vector whose cosine to a lower-``vec_id`` cluster-mate reaches the
    threshold — the deterministic keep-the-smallest-id representative rule.
    Returns the surviving (vec_id, cluster) rows.

    Scale shape: centroids come from the bounded-sample
    :func:`fit_centroids` (driver sees ≤ sample_rows); assignment is a
    broadcast-centroid actor-pool ``map_batches``; the pairwise work runs
    inside ``groupby(cluster).map_groups`` as one normalized gram matrix
    per cluster, so cost is Σ|cluster|² instead of n² and the groupby is
    the only shuffle. ``k=1`` is the EXACT-RECALL config (one cluster =
    brute force, SQL-expressible NOT EXISTS — the driver-gate config);
    real corpora run k ≫ 1 where within-cluster dedup is the documented
    approximation (cross-cluster near-dups are intentionally not compared,
    exactly SemDeDup's trade)."""
    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    if k <= 1:
        assign = ds.map_batches(
            lambda t: t.append_column(
                "cluster", pa.array(np.zeros(t.num_rows, dtype=np.int64))
            ),
            batch_format="pyarrow",
        )
    else:
        cent_ref = ray.put(fit_centroids(sf_dir, k=k))

        class Assigner:
            def __init__(self):
                self.c = _normalize(ray.get(cent_ref))  # (k, d) tiny; serialized per worker

            def __call__(self, b: pd.DataFrame) -> pd.DataFrame:
                m = _normalize(np.stack(b["embedding"].to_numpy()).astype(np.float64))
                b = b.copy()
                b["cluster"] = (m @ self.c.T).argmax(axis=1).astype(np.int64)
                return b

        assign = ds.map_batches(Assigner(), batch_format="pandas")

    def dedup_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id", kind="stable")
        m = _normalize(np.stack(g["embedding"].to_numpy()).astype(np.float64))
        # tiled: dropped[j] = any i<j with cos(i,j) >= threshold, in
        # (tile × n) slabs — never the dense n×n gram (a 1M-vector hot
        # cluster would be 8 TB)
        keep = g.loc[~_tiled_dropped_mask(m, threshold)]
        return pd.DataFrame(
            {
                "vec_id": keep["vec_id"].astype("int64"),
                "cluster": keep["cluster"].astype("int64"),
            }
        )

    out = (
        assign.groupby("cluster")
        .map_groups(dedup_cluster, batch_format="pandas")
        .to_pandas()
    )
    if out.empty:
        out = pd.DataFrame(
            {"vec_id": pd.Series(dtype="int64"), "cluster": pd.Series(dtype="int64")}
        )
    return out.sort_values("vec_id").reset_index(drop=True)


def kmeans_embeddings(
    sf_dir: str, k: int = 8, iters: int = 3
) -> tuple[np.ndarray, pd.DataFrame]:
    """Distributed Lloyd iterations with deterministic init (the first k
    vectors by vec_id). Each iteration is ONE streaming pass: centroids
    broadcast via ``ray.put``, every batch emits a FIXED-SIZE partial
    (k × d sums + k counts as (cluster, dim, s, n) rows), one small groupby
    reduces them, the driver divides once — the mergeable-moments
    discipline, never raw vectors to the driver. Iterative algorithms have
    no SQL analog (the driver gate is rows-only for this class); pytest
    pins assignments against an in-memory replay of the identical
    algorithm. Returns (centroids, per-cluster sizes)."""
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    t0 = pq.read_table(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    order = np.argsort(t0.column("vec_id").to_numpy())[:k]
    cent = np.stack(
        [np.asarray(t0.column("embedding")[int(i)].as_py(), dtype=np.float64) for i in order]
    )

    class AssignPartial:
        def __init__(self, cent_ref):
            self.c = ray.get(cent_ref)  # (k, d), fetched once driver-side (tiny)

        def __call__(self, b: pd.DataFrame) -> pa.Table:
            kk, d = self.c.shape
            if not len(b):
                return pa.table(
                    {
                        "cluster": pa.array([], pa.int64()),
                        "dim": pa.array([], pa.int64()),
                        "s": pa.array([], pa.float64()),
                        "n": pa.array([], pa.int64()),
                    }
                )
            v = np.stack(b["embedding"].to_numpy()).astype(np.float64)
            d2 = ((v[:, None, :] - self.c[None, :, :]) ** 2).sum(axis=2)
            a = d2.argmin(axis=1)
            sums = np.zeros((kk, d))
            counts = np.zeros(kk, dtype=np.int64)
            np.add.at(sums, a, v)
            np.add.at(counts, a, 1)
            live = counts > 0
            idx = np.nonzero(live)[0]
            return pa.table(
                {
                    "cluster": pa.array(np.repeat(idx, d), pa.int64()),
                    "dim": pa.array(np.tile(np.arange(d, dtype=np.int64), len(idx)), pa.int64()),
                    "s": pa.array(sums[idx].ravel(), pa.float64()),
                    "n": pa.array(np.repeat(counts[idx], d), pa.int64()),
                }
            )

    d = cent.shape[1]
    sizes = None
    for _ in range(iters):
        cref = ray.put(cent)
        agg = (
            ds.map_batches(AssignPartial(cref), batch_format="pandas")
            .groupby(["cluster", "dim"])
            .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
            .to_pandas()
            .sort_values(["cluster", "dim"])
        )
        new = cent.copy()  # empty clusters keep their centroid
        for c, g in agg.groupby("cluster"):
            new[int(c)] = g["s"].to_numpy() / g["n"].iloc[0]
        cent = new
        sizes = (
            agg[agg["dim"] == 0][["cluster", "n"]]
            .astype({"cluster": "int64", "n": "int64"})
            .reset_index(drop=True)
        )
    return cent, sizes
