"""Composed training-data prep pipeline: quality filter → dedup → tokenize.

The end-to-end shape a 100 TB corpus-prep run takes: one streaming Dataset
pipeline chaining the engine's text operators — actor-pool quality scoring
(ST1 pattern), vectorized filtering, exact dedup (hash groupby), token
accounting — with every stage's semantics mirrored in the DuckDB oracle so
the whole composition is value-checked, not just its pieces.
"""

from __future__ import annotations

import pandas as pd
import ray.data

from ..functions.dedup import exact_dedup
from ..functions.text import BPE_PATTERN, STOPWORDS_EN, TOKEN_RE


class _PrepScorer:
    """Per-actor compiled state; per-batch vectorized features + filter."""

    def __init__(self, max_stop_ratio: float, min_tokens: int, max_tokens: int):
        self.max_stop_ratio = max_stop_ratio
        self.min_tokens = min_tokens
        self.max_tokens = max_tokens
        self.stop = set(STOPWORDS_EN)

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        toks = batch["text"].fillna("").str.findall(TOKEN_RE)  # null-safe
        n_tokens = toks.map(len).astype("int64")
        # vectorized stopword count (explode -> isin -> grouped sum), the
        # same kernel QualityScorer uses — not a per-token Python loop
        n_stop = (
            toks.explode()
            .isin(self.stop)
            .groupby(level=0)
            .sum()
            .reindex(batch.index, fill_value=0)
            .astype("int64")
        )
        stop_ratio = n_stop / n_tokens.clip(lower=1)
        keep = (
            (stop_ratio <= self.max_stop_ratio)
            & (n_tokens >= self.min_tokens)
            & (n_tokens <= self.max_tokens)
        )
        out = batch.loc[keep, ["doc_id", "text"]].copy()
        out["n_tokens"] = n_tokens[keep]
        out["n_bpe_tokens"] = (
            out["text"].str.count(BPE_PATTERN).fillna(0).astype("int64")
        )
        return out


def prep_corpus(
    sf_dir: str,
    max_stop_ratio: float = 0.2,
    min_tokens: int = 10,
    max_tokens: int = 5000,
) -> pd.DataFrame:
    """Quality-filter, exact-dedup and token-account the documents table.

    Returns surviving (doc_id, text_sha256, n_tokens, n_bpe_tokens) sorted
    by doc_id — the manifest a downstream tokenizer run would consume.
    """
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    filtered = ds.map_batches(
        _PrepScorer(max_stop_ratio, min_tokens, max_tokens), batch_format="pandas"
    )
    deduped = exact_dedup(filtered)  # hash groupby, deterministic min-id winner
    out = deduped.to_pandas()[["doc_id", "text_sha256", "n_tokens", "n_bpe_tokens"]]
    return out.sort_values("doc_id").reset_index(drop=True)


@ray.remote(num_cpus=1)
def _block_lang_sums(t: "pa.Table") -> dict[str, int]:
    """One sorted block's (lang → token sum) summary."""
    if "lang" not in t.column_names:  # schema-less empty sort block
        return {}
    df = t.to_pandas()
    return df.groupby("lang", sort=False)["n_tokens"].sum().to_dict()


@ray.remote(num_cpus=1)
def _assign_shards(
    t: "pa.Table", offsets: dict[str, int], capacity: int, num_buckets: int | None
) -> "pa.Table":
    """``shard_id = tokens-before // capacity`` for one sorted block, from
    its per-lang token offsets."""
    import numpy as np
    import pyarrow as pa

    if "lang" not in t.column_names:  # schema-less empty sort block
        cols = {
            "doc_id": pa.array([], pa.int64()),
            "lang": pa.array([], pa.string()),
            "n_tokens": pa.array([], pa.int64()),
            "shard_id": pa.array([], pa.int64()),
        }
        if num_buckets is not None:
            cols["__bucket"] = pa.array([], pa.int64())
        return pa.table(cols)
    df = t.to_pandas()  # already (lang, doc_id)-sorted within the block
    before = df.groupby("lang", sort=False)["n_tokens"].cumsum() - df["n_tokens"]
    before = before + df["lang"].map(offsets).fillna(0).astype("int64")
    shard = (before // capacity).to_numpy(np.int64)
    cols = {
        "doc_id": pa.array(df["doc_id"], pa.int64()),
        "lang": pa.array(df["lang"], pa.string()),
        "n_tokens": pa.array(df["n_tokens"], pa.int64()),
        "shard_id": pa.array(shard, pa.int64()),
    }
    if num_buckets is not None:
        cols["__bucket"] = pa.array(shard % num_buckets, pa.int64())
    return pa.table(cols)


def _sharded_token_blocks(
    sf_dir: str, capacity: int, num_buckets: int | None = None
) -> list:
    """Shared ordered-prefix-sum shard assignment (the machinery behind
    BOTH :func:`token_shards` and :func:`pack_sequences` — one
    implementation so the shard_id semantics can never drift): token counts
    → ``sort(lang, doc_id)`` (the one exchange; range-partitioned ordered
    blocks) → per-block (lang → token sum) summaries to the driver (blocks
    × langs tiny rows) → driver prefix offsets per block → one Ray task per
    block assigns ``shard_id = tokens-before // capacity`` from its offset.
    Returns object refs of assigned Arrow blocks, with a ``__bucket``
    column appended when ``num_buckets`` is given (for a downstream
    bucket-keyed groupby). Partitioning assumption: the sort's global block
    order, which Ray Data guarantees."""
    import re

    import numpy as np
    import pyarrow as pa

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    tok_re = re.compile(TOKEN_RE)

    def count_tokens(b: pd.DataFrame) -> pa.Table:
        # arrow out: the downstream sort is vectorized on Arrow blocks
        return pa.table(
            {
                "doc_id": pa.array(b["doc_id"].to_numpy(), pa.int64()),
                "lang": pa.array(b["lang"].astype(str), pa.string()),
                "n_tokens": pa.array(
                    b["text"].map(lambda t: len(tok_re.findall(t or ""))).to_numpy(np.int64),
                    pa.int64(),
                ),
            }
        )

    counts = ds.map_batches(count_tokens, batch_format="pandas").sort(
        ["lang", "doc_id"]
    )
    refs = counts.to_arrow_refs()  # ordered blocks of 3-int rows

    per_block = ray.get([_block_lang_sums.remote(r) for r in refs])
    running: dict[str, int] = {}
    offsets_per_block: list[dict[str, int]] = []
    for sm in per_block:  # driver work = blocks x langs tiny dicts
        offsets_per_block.append(dict(running))
        for lang, n in sm.items():
            running[lang] = running.get(lang, 0) + int(n)
    return [
        _assign_shards.remote(r, off, capacity, num_buckets)
        for r, off in zip(refs, offsets_per_block)
    ]


def token_shards(sf_dir: str, capacity: int = 2_000) -> pd.DataFrame:
    """Token-budget sharding (training-shard assignment): within each
    language stream, documents in deterministic doc_id order are assigned
    to shards by cumulative token budget — shard_id = floor(tokens-before /
    capacity). The assignment a tokenizer-sharding run consumes: stable
    under re-runs (pure function of the corpus), no shard ever starts
    mid-document, shard sizes ~ capacity (+ at most one document's
    overhang, the standard greedy-prefix rule). Distributed shape in
    :func:`_sharded_token_blocks`."""
    import ray

    out_refs = _sharded_token_blocks(sf_dir, capacity)
    out = pd.concat([ray.get(r).to_pandas() for r in out_refs], ignore_index=True)
    return out.sort_values(["lang", "doc_id"]).reset_index(drop=True)


def pack_sequences(
    sf_dir: str,
    seq_capacity: int = 256,
    shard_capacity: int = 2_000,
    num_buckets: int = 64,
) -> pd.DataFrame:
    """Greedy sequence packing for training: within each language stream,
    documents in doc_id order fill fixed-budget training sequences — a doc
    that would overflow the current sequence starts a new one (no document
    is ever split). The op every LLM pretraining pipeline runs between
    tokenization and shard writing.

    Greedy packing is inherently sequential (each decision depends on the
    carry), so it CANNOT be a global prefix-sum like ``token_shards``.
    Distributed shape: the exact prefix-sum shard assignment first (the
    SHARED :func:`_sharded_token_blocks` machinery) bounds every shard to
    ~``shard_capacity`` tokens; the sequential recursion then runs only
    WITHIN a shard, shards packed in parallel inside bucket-keyed groups.
    The per-shard inner loop is honest per-doc Python bounded by shard size
    (tens of docs); in a real pipeline this loop is fused into the
    tokenizer/shard-writer task, which dominates it. Sequence ids are
    (shard-local seq) — globally unique as (lang, shard_id, seq_id)."""
    import numpy as np

    sharded = ray.data.from_arrow_refs(
        _sharded_token_blocks(sf_dir, shard_capacity, num_buckets=num_buckets)
    )

    def pack_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["lang", "shard_id", "doc_id"], kind="stable").reset_index(
            drop=True
        )
        seq = np.empty(len(g), dtype=np.int64)
        key_prev, fill, cur = None, 0, 0
        for i, (lang, shard, n) in enumerate(
            zip(g["lang"].to_numpy(), g["shard_id"].to_numpy(), g["n_tokens"].to_numpy())
        ):
            key = (lang, shard)
            if key != key_prev:
                key_prev, cur, fill = key, 0, 0
            if fill + n > seq_capacity and fill > 0:
                cur += 1
                fill = 0
            fill += n
            seq[i] = cur
        out = g[["doc_id", "lang", "n_tokens", "shard_id"]].copy()
        out["seq_id"] = seq
        return out

    out = (
        sharded.groupby("__bucket")
        .map_groups(pack_bucket, batch_format="pandas")
        .to_pandas()
    )
    for c in ("doc_id", "n_tokens", "shard_id", "seq_id"):
        out[c] = out[c].astype("int64")
    return out.sort_values(["lang", "doc_id"]).reset_index(drop=True)


def chunk_documents(
    sf_dir: str, window: int = 64, stride: int = 48
) -> pd.DataFrame:
    """Overlapping token-window chunking (the RAG / context-window prep op —
    packing's complement: it SPLITS long documents instead of merging short
    ones): chunk c covers tokens [c·stride, c·stride + window); the last
    chunks are ragged; token-less docs emit nothing. Chunk text is the
    window joined with single spaces (whitespace-normalized), identical to
    the oracle's array_to_string(list_slice(...)).

    Shuffle-free map — chunk assembly is per-item work proportional to the
    document (the decode-class pattern); output rows ≈ n_tokens/stride per
    doc stream straight to the sink."""
    import re

    import numpy as np
    import pyarrow as pa

    tok_re = re.compile(TOKEN_RE)

    def chunks(b: pd.DataFrame) -> pa.Table:
        ids, cids, ntoks, texts = [], [], [], []
        for doc_id, text in zip(b["doc_id"].to_numpy(), b["text"]):
            toks = tok_re.findall(text or "")
            for ci, s in enumerate(range(0, len(toks), stride)):
                w = toks[s : s + window]
                ids.append(doc_id)
                cids.append(ci)
                ntoks.append(len(w))
                texts.append(" ".join(w))
        return pa.table(
            {
                "doc_id": pa.array(np.asarray(ids, np.int64), pa.int64()),
                "chunk_id": pa.array(np.asarray(cids, np.int64), pa.int64()),
                "n_tokens": pa.array(np.asarray(ntoks, np.int64), pa.int64()),
                "chunk_text": pa.array(texts, pa.string()),
            }
        )

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(chunks, batch_format="pandas").to_pandas()
    return out.sort_values(["doc_id", "chunk_id"]).reset_index(drop=True)


def filter_by_median_length(
    sf_dir: str, q: float = 0.5, n_buckets: int = 1 << 14
) -> pd.DataFrame:
    """Global-statistic quality gate: keep documents whose ``n_chars`` is at
    least the EXACT corpus q-quantile (``quantile_disc`` rule), then
    aggregate survivors per language — the composition every corpus-prep run
    needs (threshold computed FROM the data, then applied AS a pushdown).

    Pass 1 computes the exact threshold with the bounded histogram selection
    (driver state O(n_buckets), candidate collection ≈ n/n_buckets rows —
    never the whole column; bounds free from the Parquet footer). Pass 2 is
    a fresh read with ``n_chars >= threshold`` pushed into the scan, so at
    100 TB the survivors' pass prunes row groups at storage."""
    import math

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Max, Min, Sum

    from .relational import _footer_bounds

    path = f"{sf_dir}/documents.parquet"
    col = "n_chars"
    ds = ray.data.read_parquet(path, columns=[col])
    bounds = _footer_bounds(path, col)
    if bounds is not None:
        lo, hi = bounds
    else:
        agg = ds.aggregate(Min(col), Max(col))
        lo, hi = float(agg[f"min({col})"]), float(agg[f"max({col})"])
    width = (hi - lo) / n_buckets if hi > lo else 1.0

    def bucket_counts(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col], dtype=np.float64)
        b = np.minimum(((v - lo) / width).astype(np.int64), n_buckets - 1)
        u, c = np.unique(b, return_counts=True)
        return pa.table({"bucket": pa.array(u, pa.int64()), "n": pa.array(c, pa.int64())})

    hist = (
        ds.map_batches(bucket_counts, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("bucket")
        .reset_index(drop=True)
    )
    cum = hist["n"].cumsum().to_numpy()
    n = int(cum[-1])
    # EXACT 0-based quantile_disc rank: float q*n suffers off-by-one at many
    # q (e.g. 0.07*100 == 7.000000000000001 -> ceil 8); Fraction(str(q))
    # parses the caller's decimal literal exactly, so ceil is integer-exact
    from fractions import Fraction

    k = math.ceil(Fraction(str(q)) * n) - 1
    i = int(np.searchsorted(cum, k + 1, side="left"))
    before = int(cum[i - 1]) if i else 0
    b_target = int(hist["bucket"].iloc[i])

    def in_bucket(t: pa.Table) -> pa.Table:
        v = np.asarray(t[col], dtype=np.float64)
        b = np.minimum(((v - lo) / width).astype(np.int64), n_buckets - 1)
        return pa.table({"v": pa.array(v[b == b_target], pa.float64())})

    import ray as _ray

    cand = pa.concat_tables(
        [t for t in _ray.get(ds.map_batches(in_bucket, batch_format="pyarrow").to_arrow_refs()) if t.num_rows]
    )
    vals = np.sort(np.asarray(cand["v"], dtype=np.float64))
    threshold = int(vals[k - before])

    survivors = ray.data.read_parquet(
        path, columns=["lang", col], filter=pc.field(col) >= pa.scalar(threshold)
    )

    def partial(t: pa.Table) -> pa.Table:
        out = t.group_by("lang").aggregate([(col, "sum"), ("lang", "count")])
        return out.rename_columns(["lang", "total_chars", "n_docs"])

    out = (
        survivors.map_batches(partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("total_chars", alias_name="total_chars"),
            Sum("n_docs", alias_name="n_docs"),
        )
        .to_pandas()
    )
    out["total_chars"] = out["total_chars"].astype("int64")
    out["n_docs"] = out["n_docs"].astype("int64")
    return out[["lang", "n_docs", "total_chars"]].sort_values("lang").reset_index(drop=True)


def langs_per_source(sf_dir: str) -> pd.DataFrame:
    """Ordered string aggregation: the distinct languages each source
    publishes, as a deterministic comma-joined list (``string_agg DISTINCT
    … ORDER BY``). Shape: per-batch unique (source, lang) pairs (combiner)
    → one pair-keyed groupby dedupes globally → the ≤ |sources|·|langs|
    result is formatted driver-side (same tiny-result discipline as the
    pivot reshape)."""
    import pyarrow as pa
    from ray.data.aggregate import Count

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "lang"])

    def pair_partial(t: pa.Table) -> pa.Table:
        return t.group_by(["source", "lang"]).aggregate([])

    pairs = (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["source", "lang"])
        .aggregate(Count(alias_name="__n"))
        .to_pandas()
    )
    out = (
        pairs.sort_values(["source", "lang"])
        .groupby("source", as_index=False)
        .agg(langs=("lang", lambda s: ",".join(s)), n_langs=("lang", "count"))
    )
    out["n_langs"] = out["n_langs"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def prep_corpus_full(
    sf_dir: str,
    max_stop_ratio: float = 0.2,
    min_tokens: int = 10,
    max_tokens: int = 5000,
    threshold: float = 0.8,
    **lsh_kwargs,
) -> pd.DataFrame:
    """The full preprocessing chain as one composition: quality filter →
    exact dedup (:func:`prep_corpus`) → near-duplicate drop (non-best
    cluster members out, :func:`~sonic_etl_ray.functions.dedup.
    near_dup_keep_best`) → leakage-free grouped split
    (:func:`~sonic_etl_ray.functions.sampling.assign_splits` keyed on
    ``source``). Returns the training manifest: (doc_id, source, split,
    n_tokens), sorted by doc_id.

    Each stage keeps its own scale shape (actor-pool scoring, hash-groupby
    dedup, banded LSH, per-batch split hash); the composition adds only a
    broadcast membership filter and a driver-side merge of the
    (small) surviving manifest."""
    from ..functions.dedup import near_dup_keep_best
    from ..functions.sampling import assign_splits

    surv = prep_corpus(
        sf_dir,
        max_stop_ratio=max_stop_ratio,
        min_tokens=min_tokens,
        max_tokens=max_tokens,
    )
    surv_ids = frozenset(int(x) for x in surv["doc_id"])
    # rank keep-best WITHIN THE SURVIVORS: if a cluster's overall-best copy
    # already fell to the quality filter or exact dedup, its best SURVIVING
    # member is kept — ranking over the full corpus would drop every copy
    # of that content from the manifest (silent data loss)
    kb = near_dup_keep_best(sf_dir, threshold=threshold, **lsh_kwargs)
    m = kb[kb["doc_id"].isin(surv_ids)].sort_values(
        ["cluster_id", "n_chars", "doc_id"], ascending=[True, False, True]
    )
    drop = frozenset(int(x) for x in m.loc[m.duplicated("cluster_id"), "doc_id"])
    final = surv[~surv["doc_id"].isin(drop)][["doc_id", "n_tokens"]]
    keep_ids = frozenset(int(x) for x in final["doc_id"])

    def member(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["doc_id"].isin(keep_ids)]

    ds = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
        )
        .map_batches(member, batch_format="pandas")
    )
    splits = assign_splits(ds, group_col="source").to_pandas()
    out = final.merge(splits, on="doc_id")[["doc_id", "source", "split", "n_tokens"]]
    out["n_tokens"] = out["n_tokens"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)
