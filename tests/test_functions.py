"""Brute-force and determinism checks for training-data operators.

The approximate / non-SQL ops (MinHash-LSH, SimHash, LSH top-k,
fingerprints) get exact brute-force references here since the driver's
DuckDB gate can only do rows-only checks on them.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


def _docs() -> pd.DataFrame:
    return pq.read_table(f"{SF}/documents.parquet").to_pandas()


def test_token_counts_match_python():
    from sonic_etl_ray.functions.text import token_counts

    out = token_counts(SF).set_index("doc_id")["n_tokens"]
    docs = _docs().set_index("doc_id")
    for doc_id in list(docs.index[:50]):
        assert out[doc_id] == len(re.findall(r"\S+", docs.loc[doc_id, "text"]))


def test_quality_scorer_ratios():
    from sonic_etl_ray.functions.text import doc_quality

    out = doc_quality(SF)
    assert ((out["stop_ratio"] >= 0) & (out["stop_ratio"] <= 1)).all()
    assert (out["n_chars"] > 0).all()


def test_lang_id_mostly_english():
    from sonic_etl_ray.functions.text import lang_id

    out = lang_id(SF)
    # the synthetic corpus is english-ish tokens; at least the stopword-bearing
    # docs must be tagged en, none should be tagged a different language
    assert set(out["lang_pred"].unique()) <= {"en", "und"}


def test_fingerprint_deterministic_and_order_sensitive():
    from sonic_etl_ray.functions.text import Fingerprinter

    f = Fingerprinter.fingerprint
    assert f("a b c") == f("a b c")
    assert f("a b c") != f("c b a")
    assert 0 <= f("x") < 2**64


def test_exact_dedup_removes_duplicates():
    import ray.data

    from sonic_etl_ray.functions.dedup import exact_dedup

    df = pd.DataFrame(
        {"doc_id": [1, 2, 3, 4], "text": ["same", "same", "other", "same"]}
    )
    out = exact_dedup(ray.data.from_pandas(df)).to_pandas()
    assert sorted(out["doc_id"]) == [1, 3]  # min-id row survives


def test_minhash_lsh_vs_bruteforce():
    from sonic_etl_ray.functions.dedup import jaccard, minhash_lsh_dedup

    got = minhash_lsh_dedup(SF, threshold=0.5)
    docs = _docs()
    texts = dict(zip(docs.doc_id, docs.text))
    # correctness: every returned pair truly has jaccard >= threshold
    for a, b, j in got.itertuples(index=False):
        exact = jaccard(texts[a], texts[b])
        assert exact >= 0.5 and abs(exact - j) < 1e-12
    # recall: all VERY similar pairs (j >= 0.9) must be found
    ids = docs.doc_id.to_numpy()
    want_high = set()
    for i in range(len(ids)):
        for k in range(i + 1, len(ids)):
            if jaccard(texts[ids[i]], texts[ids[k]]) >= 0.9:
                want_high.add((int(min(ids[i], ids[k])), int(max(ids[i], ids[k]))))
    got_pairs = {(int(a), int(b)) for a, b in zip(got.doc_a, got.doc_b)}
    assert want_high <= got_pairs


def test_near_dup_clusters_transitive():
    from sonic_etl_ray.functions.dedup import minhash_lsh_dedup, near_dup_clusters

    pairs = minhash_lsh_dedup(SF, threshold=0.5)
    clusters = near_dup_clusters(SF, threshold=0.5)
    # every paired doc is clustered, representatives are component minima,
    # and both endpoints of every pair share a cluster (transitivity)
    lut = dict(zip(clusters.doc_id, clusters.cluster_id))
    for a, b in zip(pairs.doc_a, pairs.doc_b):
        assert lut[a] == lut[b]
    for doc, cid in lut.items():
        assert cid <= doc and lut[cid] == cid


def test_simhash_identical_and_near_docs():
    from sonic_etl_ray.functions.dedup import SimHasher

    h = SimHasher()
    a = h.simhash("the quick brown fox jumps over the lazy dog " * 8)
    b = h.simhash("the quick brown fox jumps over the lazy dog " * 8)
    assert a == b
    c = h.simhash("the quick brown fox jumps over the lazy cat " * 8)
    ham = bin(a ^ c).count("1")
    assert ham <= 16  # near-dup stays close in hamming space
    d = h.simhash("completely different words entirely unrelated corpus zz")
    assert bin(a ^ d).count("1") > ham


def test_ngram_jaccard_pairs_vs_bruteforce():
    from sonic_etl_ray.functions.dedup import jaccard, ngram_jaccard_pairs

    got = ngram_jaccard_pairs(SF, threshold=0.5, k=3)
    docs = _docs()
    texts = dict(zip(docs.doc_id, docs.text))
    src = dict(zip(docs.doc_id, docs.source))
    want = set()
    ids = docs.doc_id.to_numpy()
    for i in range(len(ids)):
        for k in range(i + 1, len(ids)):
            if src[ids[i]] == src[ids[k]] and jaccard(texts[ids[i]], texts[ids[k]], 3) >= 0.5:
                want.add((int(ids[i]), int(ids[k])))
    got_pairs = {(int(a), int(b)) for a, b in zip(got.doc_a, got.doc_b)}
    assert got_pairs == want  # exact op → exact equality


def test_brute_force_topk_matches_numpy():
    from sonic_etl_ray.functions.similarity import brute_force_topk

    got = brute_force_topk(SF, k=5)
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    m = np.stack(emb.embedding.to_numpy()).astype(np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    q = m[emb.vec_id.tolist().index(0)]
    sims = m @ q
    order = np.lexsort((emb.vec_id.to_numpy(), -sims))[:5]
    assert got["vec_id"].tolist() == emb.vec_id.to_numpy()[order].tolist()


def test_lsh_topk_subset_of_exact_scores():
    from sonic_etl_ray.functions.similarity import brute_force_topk, lsh_topk

    approx = lsh_topk(SF, k=10)
    exact = brute_force_topk(SF, k=500)  # full ranking
    lut = dict(zip(exact.vec_id, exact.cosine))
    for vec_id, cos in zip(approx.vec_id, approx.cosine):
        assert abs(lut[vec_id] - cos) < 1e-9  # scores agree with exact scorer


def test_ivf_topk_scores_and_recall():
    from sonic_etl_ray.functions.similarity import brute_force_topk, ivf_topk

    approx = ivf_topk(SF, k=10, n_clusters=8, n_probe=4)
    exact = brute_force_topk(SF, k=500)
    lut = dict(zip(exact.vec_id, exact.cosine))
    for vec_id, cos in zip(approx.vec_id, approx.cosine):
        assert abs(lut[vec_id] - cos) < 1e-9  # scores agree with exact scorer
    # with half the clusters probed, the true top-1 should be recovered
    assert exact.vec_id.iloc[0] in set(approx.vec_id)


def test_prep_corpus_composition():
    from sonic_etl_ray.pipelines.corpus import prep_corpus

    out = prep_corpus(SF)
    assert (out["n_tokens"] >= 10).all() and (out["n_tokens"] <= 5000).all()
    assert out["text_sha256"].is_unique  # deduped
    assert out["doc_id"].is_monotonic_increasing


def test_multimodal_plumbing():
    import ray.data

    from sonic_etl_ray.functions.multimodal import (
        FEATURE_DIM,
        DecodeStub,
        extract_features,
        synth_media_table,
    )

    tbl = synth_media_table(48, seed=1)
    ds = ray.data.from_arrow(tbl)
    out = extract_features(ds, fake=True, batch_size=8).to_pandas()
    assert len(out) == 48
    assert all(len(f) == FEATURE_DIM for f in out["features"])
    # deterministic: same payload → same features
    out2 = extract_features(ray.data.from_arrow(tbl), fake=True).to_pandas()
    pd.testing.assert_frame_equal(
        out.sort_values("media_id").reset_index(drop=True),
        out2.sort_values("media_id").reset_index(drop=True),
    )
    # the real decode path is explicitly stubbed
    with pytest.raises(NotImplementedError):
        DecodeStub(fake=False)(tbl.slice(0, 2))


def test_label_propagation_matches_union_find():
    """The distributed min-label-propagation clustering (the 100 TB path)
    must produce exactly the driver union-find's components."""
    from sonic_etl_ray.functions.dedup import near_dup_clusters

    driver = near_dup_clusters(SF, threshold=0.5)
    distributed = near_dup_clusters(SF, threshold=0.5, max_driver_pairs=0)
    pd.testing.assert_frame_equal(driver, distributed)


def test_simhash_batch_matches_scalar_definition():
    """Batch-vectorized SimHash == per-doc definition (bit b set iff more
    than half the token hashes have bit b set), including empty docs."""
    from sonic_etl_ray.functions.dedup import SimHasher
    from sonic_etl_ray.functions.text import md5_u64

    texts = ["a b a c", "", "one", "x y z w v u t s"]
    h = SimHasher()
    got = h.simhash_batch(pd.Series(texts))
    for t, g in zip(texts, got):
        toks = re.findall(r"\S+", t)
        if not toks:
            assert g == 0
            continue
        hs = md5_u64(toks)
        want = 0
        for b in range(64):
            if 2 * int(((hs >> np.uint64(b)) & np.uint64(1)).sum()) > len(toks):
                want |= 1 << b
        assert int(g) == want


def test_fingerprint_batch_matches_rolling_definition():
    from sonic_etl_ray.functions.text import FP_BASE, FP_OFFSET, Fingerprinter, hash_token

    texts = ["a b c", "", "single", "longer doc with several tokens here"]
    got = Fingerprinter().fingerprint_batch(pd.Series(texts))
    for t, g in zip(texts, got):
        h = FP_OFFSET
        for tok in re.findall(r"\S+", t):
            h = (h * FP_BASE + hash_token(tok)) & 0xFFFFFFFFFFFFFFFF
        assert int(g) == h


def test_media_payload_stats_matches_pandas():
    """The multimodal decode → per-source accounting must equal a local
    pandas/hashlib replay (item count, unique-payload count, total bytes)."""
    import hashlib

    import pyarrow.parquet as pq

    from sonic_etl_ray.functions.multimodal import media_payload_stats

    out = media_payload_stats(SF)
    df = pq.read_table(f"{SF}/documents.parquet", columns=["text", "source"]).to_pandas()
    df["payload"] = df["text"].str.encode("utf-8")
    df["sha"] = df["payload"].map(lambda b: hashlib.sha256(b).hexdigest())
    df["nbytes"] = df["payload"].str.len()
    ref = (
        df.groupby("source")
        .agg(
            n_media=("sha", "size"),
            n_unique_payloads=("sha", "nunique"),
            total_bytes=("nbytes", "sum"),
        )
        .reset_index()
        .sort_values("source")
        .reset_index(drop=True)
    )
    lhs = out[["source", "n_media", "n_unique_payloads", "total_bytes"]].astype(
        {"n_media": "int64", "n_unique_payloads": "int64", "total_bytes": "int64"}
    )
    pd.testing.assert_frame_equal(lhs, ref.astype(
        {"n_media": "int64", "n_unique_payloads": "int64", "total_bytes": "int64"}
    ))


def test_repetition_scorer_definitions():
    """Batch kernel vs per-doc brute force over the exact token definition
    (whitespace-collapse then split on single spaces)."""
    import re
    from collections import Counter

    from sonic_etl_ray.functions.text import RepetitionScorer

    docs = [
        "a a a a",                      # one repeated token
        "x y x y x y",                  # dominated by one 2-gram
        "all unique tokens here now",   # no repetition
        "solo",                         # n=1: both fracs 0
        "",                             # empty → [''] (n=1)
        "  spaced\tout\n doc  ",        # whitespace collapse
    ]
    out = RepetitionScorer()(pd.DataFrame({"doc_id": range(len(docs)), "text": docs}))
    for i, d in enumerate(docs):
        toks = re.sub(r"\s+", " ", d).split(" ")
        n = len(toks)
        dup = 1.0 - len(set(toks)) / max(n, 1) if n > 0 else 0.0
        pairs = Counter(
            toks[j] + " " + toks[j + 1] for j in range(n - 1)
        )
        top2 = 2 * max(pairs.values(), default=0) / max(n, 1) if n >= 2 else 0.0
        row = out.iloc[i]
        assert row["n_tokens"] == n, d
        assert abs(row["dup_token_frac"] - dup) < 1e-12, d
        assert abs(row["top_2gram_frac"] - top2) < 1e-12, d


def test_contamination_checker_exact_substring():
    import ray

    from sonic_etl_ray.functions.text import ContaminationChecker

    snippets = ["needle one two", "other snippet"]
    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "prefix needle one two suffix",       # hit
                "needle  one\ttwo",                   # hit after ws normalize
                "needle one",                         # partial → miss
                "regex[chars] do (not) matter",       # regex chars safe
            ],
        }
    )
    out = ContaminationChecker(ray.put(snippets))(docs)
    assert out["contaminated"].tolist() == [True, True, False, False]


def test_scrubber_redacts_pii_and_denylist():
    from sonic_etl_ray.functions.text import Scrubber

    b = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "mail me at a.b+c@ex-ample.org today",
                "node 10.0.255.3 and 192.168.1.1 up",
                "the customer ran spark jobs; customers kept sparking",
                None,
            ],
        }
    )
    out = Scrubber()(b)
    assert out["clean_text"].tolist() == [
        "mail me at [EMAIL] today",
        "node [IP] and [IP] up",
        "the [TERM] ran [TERM] jobs; customers kept sparking",
        "",
    ]
    # counts measured on the original text; word-boundary keeps plurals intact
    assert out["n_redactions"].tolist() == [1, 2, 2, 0]
    assert out["n_redactions"].dtype == np.int64


def test_dedup_incremental_bloom_anti_join():
    """Incoming docs sharing a 40-char text prefix with any lake doc are
    dropped; everything else survives (zero false negatives by Bloom
    construction + exact confirm join)."""
    import duckdb

    from sonic_etl_ray.functions.dedup import dedup_incremental

    out = dedup_incremental(SF)
    ora = duckdb.connect().execute(f"""
        WITH cut AS (SELECT CAST(floor(0.8 * COUNT(*)) AS BIGINT) AS c
                     FROM read_parquet('{SF}/documents.parquet'))
        SELECT d.doc_id, d.lang, d.source, CAST(d.n_chars AS BIGINT) AS n_chars
        FROM read_parquet('{SF}/documents.parquet') d, cut
        WHERE d.doc_id >= cut.c AND NOT EXISTS (
          SELECT 1 FROM read_parquet('{SF}/documents.parquet') l, cut
          WHERE l.doc_id < cut.c
            AND substr(COALESCE(l.text,''),1,40) = substr(COALESCE(d.text,''),1,40))
        ORDER BY d.doc_id""").fetchdf()
    assert out.reset_index(drop=True).equals(ora.reset_index(drop=True))
    n_incoming = len(_docs()) - int(0.8 * len(_docs()))
    assert 0 < len(out) <= n_incoming


def test_dedup_incremental_all_dup_batch(tmp_path):
    """An ALL-duplicate incoming batch (routine in CDC replays) must return
    a typed EMPTY frame, not crash: Ray's to_pandas drops the schema when
    every block is empty (found by the sf1-scale stress run)."""
    import os

    import pyarrow as pa

    from sonic_etl_ray.functions.dedup import dedup_incremental

    sf = str(tmp_path / "sf")
    os.makedirs(sf)
    # incoming (last 20%) shares every 40-char prefix with the lake:
    # j-major order puts one full set of prefixes in each fifth of doc_ids
    texts = [f"prefix-{i:030d} tail {j}" for j in range(5) for i in range(8)]
    n = len(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
            "source": pa.array(["s"] * n, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, f"{sf}/documents.parquet")
    from sonic_etl_ray.functions.dedup import dedup_incremental_fuzzy

    outs = [dedup_incremental(sf, num_bloom_shards=s) for s in (None, 4)]
    # fuzzy gate: same-prefix docs differ only in the final char → jaccard
    # ≈1 ≥ threshold → the whole batch is rejected there too
    outs.append(dedup_incremental_fuzzy(sf, threshold=0.8))
    for out in outs:
        assert len(out) == 0
        assert list(out.columns) == ["doc_id", "lang", "source", "n_chars"]
        assert str(out["doc_id"].dtype) == "int64"
        assert str(out["n_chars"].dtype) == "int64"


def test_dedup_incremental_sharded_bloom_same_rows():
    """The hash-sharded Bloom path (one fixed-size filter per key shard,
    probe co-located with its shard) must return exactly the single-bitmap
    path's rows — the shard count affects cost, not results."""
    from sonic_etl_ray.functions.dedup import dedup_incremental

    base = dedup_incremental(SF)
    sharded = dedup_incremental(SF, num_bloom_shards=8)
    assert sharded.reset_index(drop=True).equals(base.reset_index(drop=True))


def test_bloom_build_sharded_no_false_negatives():
    """Every built key must probe positive in its own shard, and shards no
    key hashed to must come back as provably-empty filters."""
    import ray
    import ray.data

    from sonic_etl_ray.functions.sketch import (
        _bloom_positions, bloom_build_sharded, bloom_shard_of,
    )

    keys = np.arange(-500, 500, dtype=np.int64) * 7919
    ds = ray.data.from_pandas(pd.DataFrame({"k": keys})).repartition(4)
    num_shards = 16
    refs = bloom_build_sharded(ds, "k", num_shards)
    assert len(refs) == num_shards
    shard = bloom_shard_of(keys, num_shards)
    pos = _bloom_positions(keys)
    for s in range(num_shards):
        bits = np.unpackbits(ray.get(refs[s])).astype(bool)
        mine = shard == s
        if mine.any():
            assert bits[pos[:, mine]].all(axis=0).all()
    # a key absent from the build has SOME empty/near-empty shard signal:
    # overall FP rate over a disjoint probe set stays well under 50%
    probe = (np.arange(2000, dtype=np.int64) + 10_000_000) * 104729
    pshard = bloom_shard_of(probe, num_shards)
    ppos = _bloom_positions(probe)
    hits = 0
    for s in range(num_shards):
        bits = np.unpackbits(ray.get(refs[s])).astype(bool)
        mine = pshard == s
        if mine.any():
            hits += int(bits[ppos[:, mine]].all(axis=0).sum())
    assert hits < 200  # 1000 built keys in 16×128Kbit filters → tiny FP rate


def test_distinctive_terms_definition():
    """Rank within a doc is by tf/df descending with (df, term) tie-break,
    checked against a brute-force recomputation from the raw pairs."""
    from sonic_etl_ray.functions.text import distinctive_terms

    out = distinctive_terms(SF, k=5)
    docs = _docs()
    # brute force df over the whole corpus
    from collections import Counter

    per_doc = {r.doc_id: Counter(re.findall(r"\S+", r.text or "")) for r in docs.itertuples()}
    df_counter = Counter()
    for c in per_doc.values():
        df_counter.update(c.keys())
    for doc_id in list(per_doc)[:25]:
        tf = per_doc[doc_id]
        ranked = sorted(
            tf.items(), key=lambda kv: (-kv[1] / df_counter[kv[0]], df_counter[kv[0]], kv[0])
        )[:5]
        got = out[out.doc_id == doc_id].sort_values("rank")
        assert got["term"].tolist() == [t for t, _ in ranked]
        assert got["tf"].tolist() == [c for _, c in ranked]
        assert got["df"].tolist() == [df_counter[t] for t, _ in ranked]


def test_decode_props_partial_silent_skip():
    """Undecodable / missing-key JSON rows are silently skipped; decoded
    keys aggregate exact scaled-int64 cents."""
    from sonic_etl_ray.pipelines.relational import decode_props_partial

    b = pd.DataFrame(
        {
            "props": ['{"k": 7}', '{"k": 7}', "not json", '{"other": 1}', '{"k": 9}'],
            "value": [1.25, 2.50, 99.0, 99.0, 0.10],
        }
    )
    t = decode_props_partial(b).to_pandas().sort_values("k").reset_index(drop=True)
    assert t["k"].tolist() == [7, 9]
    assert t["n_events"].tolist() == [2, 1]
    assert t["sum_value_cents"].tolist() == [375, 10]


def test_sliding_user_window_vs_bruteforce():
    """Trailing 7-day (cents, active-day) window per user matches a per-user
    brute-force recomputation from the daily grain."""
    from sonic_etl_ray.pipelines.relational import sliding_user_window

    out = sliding_user_window(SF)
    ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "ts", "value"]).to_pandas()
    ev["day"] = ev["ts"].dt.floor("D")
    ev["cents"] = np.round(ev["value"].to_numpy() * 100).astype(np.int64)
    daily = ev.groupby(["user_id", "day"], as_index=False)["cents"].sum()
    for uid in daily["user_id"].unique()[:20]:
        g = daily[daily.user_id == uid].sort_values("day")
        got = out[out.user_id == uid].sort_values("day")
        assert got["day_cents"].tolist() == g["cents"].tolist()
        for _, row in got.iterrows():
            lo = row["day"] - pd.Timedelta(days=6)
            win = g[(g["day"] >= lo) & (g["day"] <= row["day"])]
            assert row["w_cents"] == win["cents"].sum()
            assert row["w_days"] == len(win)


def test_grouped_percentiles_vs_numpy():
    """Per-group exact quantile_disc rule: value at rank ceil(q*n)-1 of the
    group's sorted column."""
    import math

    from sonic_etl_ray.pipelines.relational import grouped_price_percentiles

    out = grouped_price_percentiles(SF)
    orders = pq.read_table(f"{SF}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]).to_pandas()
    for g, gdf in orders.groupby("o_orderpriority"):
        v = np.sort(gdf["o_totalprice"].to_numpy())
        for q in (0.25, 0.5, 0.75, 0.95):
            expect = v[math.ceil(q * len(v)) - 1]
            got = out[(out.o_orderpriority == g) & (out.q == q)]["price"].iloc[0]
            assert got == expect, (g, q, got, expect)


def test_churned_customers_empty_safe():
    """A cutoff past the data's max date marks every customer churned; a
    cutoff at the minimum leaves none (empty result keeps its schema)."""
    from sonic_etl_ray.pipelines.relational import churned_customers

    allc = churned_customers(SF, since="2030-01-01")
    none = churned_customers(SF, since="1990-01-01")
    cust = pq.read_table(f"{SF}/customer.parquet").num_rows
    assert len(allc) == cust
    assert len(none) == 0
    assert list(none.columns) == ["c_custkey", "c_mktsegment", "acctbal_cents"]


def test_pack_sequences_invariants():
    """No sequence exceeds the budget unless it holds a single oversized
    doc; packing is greedy (a doc never starts a new sequence it would have
    fit in); ids are dense per (lang, shard)."""
    from sonic_etl_ray.pipelines.corpus import pack_sequences

    cap = 256
    out = pack_sequences(SF, seq_capacity=cap)
    for (lang, shard, seq), g in out.groupby(["lang", "shard_id", "seq_id"]):
        total = g["n_tokens"].sum()
        assert total <= cap or len(g) == 1, (lang, shard, seq, total)
    for (lang, shard), g in out.groupby(["lang", "shard_id"]):
        g = g.sort_values("doc_id")
        seqs = g["seq_id"].to_numpy()
        assert seqs[0] == 0
        assert ((np.diff(seqs) == 0) | (np.diff(seqs) == 1)).all()
        # greedy: replay the carry and demand identical assignments
        fill, cur = 0, 0
        for n, s in zip(g["n_tokens"].to_numpy(), seqs):
            if fill > 0 and fill + n > cap:
                cur += 1
                fill = 0
            assert s == cur
            fill += n


def test_quantize_embeddings_roundtrip():
    """int8 range respected; dequantized vectors approximate the originals;
    the max-|x| element quantizes to exactly ±127."""
    from sonic_etl_ray.functions.similarity import quantize_embeddings

    out = quantize_embeddings(SF)
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas()
    d = len(emb["embedding"].iloc[0])
    assert len(out) == len(emb) * d
    assert out["qval"].abs().max() <= 127
    first = emb.sort_values("vec_id").iloc[0]
    v = np.asarray(first["embedding"], dtype=np.float64)
    got = out[out.vec_id == first["vec_id"]].sort_values("pos")["qval"].to_numpy()
    m = np.abs(v).max()
    assert np.abs(got).max() == 127
    deq = got * m / 127.0
    assert np.abs(deq - v).max() <= m / 127.0  # half-step quantization error


def test_kmeans_matches_inmemory_replay():
    """Distributed Lloyd (broadcast centroids, fixed-size partials, one
    groupby per iter) produces the same assignments and centroids as an
    in-memory replay of the identical algorithm."""
    from sonic_etl_ray.functions.similarity import kmeans_embeddings

    k, iters = 8, 3
    cent, sizes = kmeans_embeddings(SF, k=k, iters=iters)
    emb = pq.read_table(f"{SF}/embeddings.parquet").to_pandas().sort_values("vec_id")
    v = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    c = v[:k].copy()
    for _ in range(iters):
        d2 = ((v[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        a = d2.argmin(axis=1)
        for j in range(k):
            if (a == j).any():
                c[j] = v[a == j].mean(axis=0)
    assert np.allclose(cent, c, atol=1e-9)
    ref_sizes = pd.Series(a).value_counts().sort_index()
    got = sizes.set_index("cluster")["n"]
    for j, n in ref_sizes.items():
        assert got[j] == n


def test_frame_sampler_windows():
    """Every stride-th fixed-size byte window is kept in order; the sample
    hash matches a direct recomputation, including the ragged tail frame."""
    import hashlib

    import pyarrow as pa

    from sonic_etl_ray.functions.multimodal import FrameSampler

    payload = bytes(range(100))  # 7 frames of 16 (last ragged: 4 bytes)
    t = pa.table({"media_id": pa.array([1], pa.int64()), "payload": pa.array([payload], pa.binary())})
    out = FrameSampler(frame_bytes=16, stride=4)(t).to_pandas().iloc[0]
    assert out["n_frames"] == 7
    assert out["n_sampled"] == 2  # frames 0 and 4
    sample = payload[0:16] + payload[64:80]
    assert out["sampled_bytes"] == len(sample)
    assert out["sample_sha256"] == hashlib.sha256(sample).hexdigest()


def test_chunk_documents_windows():
    """Chunks tile each doc at stride spacing with window-sized bodies;
    reassembling chunk 0's text equals the normalized head of the doc."""
    from sonic_etl_ray.pipelines.corpus import chunk_documents

    out = chunk_documents(SF, window=64, stride=48)
    docs = _docs()
    for row in docs.head(20).itertuples():
        toks = re.findall(r"\S+", row.text or "")
        g = out[out.doc_id == row.doc_id].sort_values("chunk_id")
        want_chunks = list(range(0, len(toks), 48))
        assert len(g) == len(want_chunks)
        assert g["chunk_text"].iloc[0] == " ".join(toks[:64])
        assert g["n_tokens"].iloc[-1] == min(len(toks) - want_chunks[-1], 64)


def test_lm_quality_proxy_bitlength_quantization():
    """lm_score = Σ tf · floor(log2(corpus_freq)): recomputed brute-force
    with Python bignum bit_length (exact)."""
    from collections import Counter

    from sonic_etl_ray.functions.text import lm_quality_proxy

    out = lm_quality_proxy(SF).set_index("doc_id")
    docs = _docs()
    corpus = Counter()
    per_doc = {}
    for r in docs.itertuples():
        c = Counter(re.findall(r"\S+", r.text or ""))
        per_doc[r.doc_id] = c
        corpus.update(c)
    for doc_id in list(per_doc)[:25]:
        want = sum(tf * (corpus[t].bit_length() - 1) for t, tf in per_doc[doc_id].items())
        assert out.loc[doc_id, "lm_score"] == want


def test_compression_scores_repetitive_vs_random():
    """A highly repetitive doc compresses far better than the corpus norm;
    ratio is deterministic across runs."""
    from sonic_etl_ray.functions.text import CompressionScorer

    b = pd.DataFrame(
        {
            "doc_id": [0, 1],
            "text": ["spam " * 200, " ".join(f"t{i}q{i * 7919 % 1000}" for i in range(200))],
        }
    )
    out = CompressionScorer()(b)
    assert out["compression_ratio"].iloc[0] < 0.05
    assert out["compression_ratio"].iloc[1] > out["compression_ratio"].iloc[0] * 3
    out2 = CompressionScorer()(b)
    assert (out["compressed_bytes"] == out2["compressed_bytes"]).all()


def test_resize_stub_plumbing():
    import ray.data

    from sonic_etl_ray.functions.multimodal import ResizeStub, resize_media, synth_media_table

    tbl = synth_media_table(24, seed=3)
    out = resize_media(ray.data.from_arrow(tbl), target_w=8, target_h=8, fake=True).to_pandas()
    assert len(out) == 24
    assert all(len(p) == 64 for p in out["payload"])  # 8x8 bytes
    assert (out["width"] == 8).all() and (out["height"] == 8).all()
    assert {"kind", "mime", "duration_ms"} <= set(out.columns)  # metadata rides along
    # deterministic nearest-neighbor: corner byte survives
    row = tbl.to_pandas().iloc[0]
    got = out[out.media_id == row["media_id"]]["payload"].iloc[0]
    assert got[0] == row["payload"][0]
    with pytest.raises(NotImplementedError):
        ResizeStub(fake=False)(tbl.slice(0, 2))


def test_filter_by_median_length_threshold():
    """The gate keeps exactly the docs at or above the exact corpus median
    (quantile_disc rule), aggregated per language."""
    import math

    from sonic_etl_ray.pipelines.corpus import filter_by_median_length

    out = filter_by_median_length(SF)
    docs = _docs()
    v = np.sort(docs["n_chars"].to_numpy())
    thr = v[math.ceil(0.5 * len(v)) - 1]
    keep = docs[docs["n_chars"] >= thr]
    want = keep.groupby("lang").agg(n_docs=("n_chars", "count"), total_chars=("n_chars", "sum"))
    for lang, row in want.iterrows():
        got = out[out.lang == lang].iloc[0]
        assert got["n_docs"] == row["n_docs"]
        assert got["total_chars"] == row["total_chars"]


def test_funnel_conversion_vs_bruteforce():
    """Converted user = any (signup, purchase) pair of theirs with
    0 <= purchase_ts - signup_ts <= 12h; recomputed brute-force."""
    from sonic_etl_ray.pipelines.relational import funnel_conversion

    out = funnel_conversion(SF)
    ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "event_type", "ts"]).to_pandas()
    s = ev[ev.event_type == "signup"]
    p = ev[ev.event_type == "purchase"]
    signup_users = set(s.user_id)
    converted = set()
    tol = pd.Timedelta(hours=12)
    for uid in signup_users:
        sts = s[s.user_id == uid]["ts"]
        pts = p[p.user_id == uid]["ts"].to_numpy()
        for t0 in sts:
            if ((pts >= np.datetime64(t0)) & (pts <= np.datetime64(t0 + tol))).any():
                converted.add(uid)
                break
    assert out["n_signup_users"].iloc[0] == len(signup_users)
    assert out["n_converted"].iloc[0] == len(converted)


def test_exact_grouped_distinct_and_above_avg():
    """Exact grouped count-distinct equals pandas nunique; the above-average
    filter uses integer cross-multiplication so mean ties are excluded."""
    from sonic_etl_ray.pipelines.relational import (
        distinct_customers_per_priority,
        orders_above_customer_avg,
    )

    orders = pq.read_table(f"{SF}/orders.parquet").to_pandas()
    d = distinct_customers_per_priority(SF).set_index("o_orderpriority")["n_customers"]
    want = orders.groupby("o_orderpriority")["o_custkey"].nunique()
    for k, v in want.items():
        assert d[k] == v
    a = orders_above_customer_avg(SF).set_index("o_orderpriority")["n_orders"]
    cents = np.round(orders["o_totalprice"].to_numpy() * 100).astype(np.int64)
    orders = orders.assign(cents=cents)
    g = orders.groupby("o_custkey")["cents"].agg(["sum", "count"])
    j = orders.merge(g, left_on="o_custkey", right_index=True)
    above = j[j["cents"] * j["count"] > j["sum"]]
    want2 = above.groupby("o_orderpriority").size()
    for k, v in want2.items():
        assert a[k] == v


def test_langs_per_source_and_retention_bruteforce():
    """Ordered lang lists per source and the cohort triangle match pandas
    recomputations."""
    from sonic_etl_ray.pipelines.corpus import langs_per_source
    from sonic_etl_ray.pipelines.relational import retention_cohorts

    docs = _docs()
    out = langs_per_source(SF).set_index("source")
    for src, g in docs.groupby("source"):
        langs = sorted(g["lang"].unique())
        assert out.loc[src, "langs"] == ",".join(langs)
        assert out.loc[src, "n_langs"] == len(langs)

    ev = pq.read_table(f"{SF}/events.parquet", columns=["user_id", "ts"]).to_pandas()
    ev["week"] = ev["ts"].dt.to_period("W-SUN").dt.start_time  # ISO Monday start
    uw = ev[["user_id", "week"]].drop_duplicates()
    cohort = uw.groupby("user_id")["week"].min().rename("cohort_week")
    tri = (
        uw.merge(cohort, on="user_id")
        .groupby(["cohort_week", "week"])
        .size()
        .rename("n_users")
        .reset_index()
    )
    got = retention_cohorts(SF)
    assert len(got) == len(tri)
    m = got.merge(tri, on=["cohort_week", "week"], suffixes=("", "_want"))
    assert len(m) == len(tri)
    assert (m["n_users"] == m["n_users_want"]).all()


def test_safe_join_tolerates_schema_less_empty_blocks():
    """Ray's sort-aggregate emits 0-column blocks for empty output
    partitions; if one is the first block the join's hash shuffle submits,
    the one-shot schema broadcast is wasted and sparse join partitions
    finalize a column-less table (ArrowInvalid). safe_join drops proven
    empties at the block-ref level before joining."""
    import pyarrow as pa
    import ray.data

    from sonic_etl_ray.stages.joins import drop_empty_blocks, safe_join

    left = ray.data.from_arrow(
        [pa.table({"k": [1, 2, 3], "v": [10, 20, 30]}), pa.table({})]
    )
    right = ray.data.from_arrow(
        [pa.table({}), pa.table({"k": [2, 3, 4], "w": [200, 300, 400]}), pa.table({})]
    )
    scrubbed = drop_empty_blocks(right)
    assert scrubbed.num_blocks() == 1  # both 0-column empties gone, no data moved
    out = (
        safe_join(left, right, join_type="inner", num_partitions=8, on=("k",))
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [2, 3]
    assert out["v"].tolist() == [20, 30]
    assert out["w"].tolist() == [200, 300]


def test_safe_join_broadcast_path_matches_hash_join(monkeypatch):
    """Small right sides take the broadcast (map-side pyarrow join) path;
    results must be identical to the hash-shuffle join, including the
    left_outer null-fill and the dropped right key column."""
    import pyarrow as pa
    import ray.data

    from sonic_etl_ray.stages import joins

    left = ray.data.from_arrow(pa.table({"k": [1, 2, 3, 4], "v": [10, 20, 30, 40]}))
    right = ray.data.from_arrow(pa.table({"rk": [2, 3, 3], "w": [200, 300, 301]}))

    def run(join_type):
        return (
            joins.safe_join(
                left, right, join_type=join_type, num_partitions=4,
                on=("k",), right_on=("rk",),
            )
            .to_pandas()
            .sort_values(["k", "w"])
            .reset_index(drop=True)
        )

    bc_inner = run("inner")
    bc_left = run("left_outer")
    monkeypatch.setenv("SONIC_BROADCAST_JOIN_MAX_BYTES", "0")  # force hash join
    hash_inner = run("inner")
    hash_left = run("left_outer")
    pd.testing.assert_frame_equal(bc_inner, hash_inner, check_dtype=False)
    assert bc_inner["k"].tolist() == [2, 3, 3]
    assert sorted(bc_left["k"].tolist()) == [1, 2, 3, 3, 4]
    pd.testing.assert_frame_equal(
        bc_left.sort_values(["k", "w"]).reset_index(drop=True),
        hash_left.sort_values(["k", "w"]).reset_index(drop=True),
        check_dtype=False,
    )
    assert "rk" not in bc_inner.columns


def test_ngram_jaccard_hot_block_guardrail(tmp_path):
    """One dominant blocking key must not go quadratic: with a tiny
    max_block_pairs the hot block routes through block-local MinHash-LSH
    candidates + exact verification, and near-identical pairs are still
    found with the same jaccard values as the exhaustive path."""
    import pyarrow as pa

    from sonic_etl_ray.functions.dedup import ngram_jaccard_pairs

    import random

    rng = random.Random(7)
    bases = [
        " ".join(f"w{rng.randrange(10_000)}" for _ in range(120)) for _ in range(4)
    ]
    texts, ids = [], []
    for i in range(40):  # one hot block: 780 candidate pairs
        ids.append(i)
        # 4 clusters of 10 near-identical docs; cluster bases are disjoint
        texts.append(bases[i % 4] + f" tailvariant{i}")
    tbl = pa.table({"doc_id": ids, "text": texts, "source": ["hot"] * 40})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "documents.parquet")

    exact = ngram_jaccard_pairs(str(sf))  # default cap: exhaustive path
    capped = ngram_jaccard_pairs(str(sf), max_block_pairs=100)  # force LSH path
    # near-identical in-cluster pairs are easy LSH targets: identical recall here
    pd.testing.assert_frame_equal(exact, capped)
    assert len(exact) == 4 * (10 * 9) // 2  # 4 clusters x C(10,2)


def test_minhash_memo_invalidates_on_input_rewrite(tmp_path):
    """Rewriting documents.parquet in place must invalidate the verified-pair
    memo (the cache key folds in the input's mtime+size), not serve stale
    pairs from the previous file contents."""
    import os
    import time

    import pyarrow as pa

    from sonic_etl_ray.functions.dedup import minhash_lsh_dedup

    sf = tmp_path / "sf"
    sf.mkdir()
    path = sf / "documents.parquet"
    dup_text = "alpha beta gamma delta epsilon zeta eta theta " * 8
    tbl1 = pa.table({
        "doc_id": [1, 2, 3],
        "text": [dup_text, dup_text, "totally different words entirely " * 8],
        "source": ["a", "a", "a"],
    })
    pq.write_table(tbl1, path)
    first = minhash_lsh_dedup(str(sf), threshold=0.5)
    assert list(zip(first["doc_a"], first["doc_b"])) == [(1, 2)]

    time.sleep(0.02)  # ensure a distinct mtime_ns even on coarse clocks
    tbl2 = pa.table({
        "doc_id": [1, 2, 3],
        "text": [dup_text, "now unrelated content here " * 8, dup_text],
        "source": ["a", "a", "a"],
    })
    pq.write_table(tbl2, path)
    os.utime(path)  # belt-and-braces mtime bump
    second = minhash_lsh_dedup(str(sf), threshold=0.5)
    assert list(zip(second["doc_a"], second["doc_b"])) == [(1, 3)]


def test_safe_join_all_empty_schema_less_right_synthesizes():
    """A right side that is ENTIRELY schema-less empty blocks (Ray aggregate
    over an empty input: ds.schema() is None, blocks are 0x0) cannot be
    joined by either engine path — safe_join synthesizes the result:
    inner -> empty left, left_outer -> left unchanged, others -> clear error."""
    import pyarrow as pa
    import pytest
    import ray.data
    from ray.data.aggregate import Sum

    from sonic_etl_ray.stages.joins import safe_join

    empty = ray.data.from_arrow(
        pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.float64())})
    )
    left = ray.data.from_arrow(pa.table({"k": [1, 2], "x": [10.0, 20.0]}))

    agg = empty.groupby("k").aggregate(Sum("v", alias_name="s"))
    assert safe_join(left, agg, join_type="inner", num_partitions=2, on=("k",)).count() == 0
    agg2 = empty.groupby("k").aggregate(Sum("v", alias_name="s"))
    lo = safe_join(left, agg2, join_type="left_outer", num_partitions=2, on=("k",))
    assert lo.to_pandas()["x"].tolist() == [10.0, 20.0]
    agg3 = empty.groupby("k").aggregate(Sum("v", alias_name="s"))
    with pytest.raises(ValueError, match="schema-less"):
        safe_join(left, agg3, join_type="right_outer", num_partitions=2, on=("k",))


def test_safe_join_rejects_column_collision_clearly():
    """A right non-key column named like ANY left column (keys included)
    cannot be represented by either join path on this Ray version (both emit
    a duplicate column / die in the aggregators) — safe_join raises an
    actionable ValueError instead."""
    import pyarrow as pa
    import pytest
    import ray.data

    from sonic_etl_ray.stages.joins import safe_join

    left = ray.data.from_arrow(pa.table({"k": [1, 2], "x": [10.0, 20.0]}))
    right = ray.data.from_arrow(pa.table({"rk": [1], "k": [99]}))
    with pytest.raises(ValueError, match="duplicate column"):
        safe_join(left, right, join_type="inner", num_partitions=2, on=("k",), right_on=("rk",))


def test_index_build_is_atomic_against_stale_staging(tmp_path):
    """Index builds stage into a temp dir and atomically rename: a second
    build (crashed-and-retried / concurrent loser) must not interleave files
    into the published index — vector count stays exact."""
    import glob as _glob

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sonic_etl_ray.functions.similarity import build_lsh_index, lsh_topk_indexed

    sf = tmp_path / "sf"
    sf.mkdir()
    rng = np.random.default_rng(3)
    n = 50
    pq.write_table(
        pa.table({
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array([rng.normal(size=8).astype(np.float32) for _ in range(n)], pa.list_(pa.float32())),
        }),
        sf / "embeddings.parquet",
    )
    idx = str(tmp_path / "lshidx")
    build_lsh_index(str(sf), idx)
    rows1 = sum(pq.read_metadata(f).num_rows for f in _glob.glob(f"{idx}/**/*.parquet", recursive=True))
    assert rows1 == n
    build_lsh_index(str(sf), idx)  # retry: loser staging discarded, index intact
    rows2 = sum(pq.read_metadata(f).num_rows for f in _glob.glob(f"{idx}/**/*.parquet", recursive=True))
    assert rows2 == n
    assert not _glob.glob(f"{idx}.build.*")  # no staging leftovers


def test_text_operators_tolerate_null_text(tmp_path):
    """One null document must not abort quality/fingerprint/prep jobs —
    nulls score as empty docs, matching the fillna discipline of the other
    text operators (documents.text is a nullable column)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from sonic_etl_ray.functions.text import Fingerprinter, QualityScorer
    from sonic_etl_ray.pipelines.corpus import prep_corpus

    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(
        pa.table({
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": ["the quick brown fox", None, "a b c d e f g h i j k"],
            "lang": ["en", "en", "en"],
            "source": ["s", "s", "s"],
        }),
        sf / "documents.parquet",
    )
    ds = ray.data.read_parquet(str(sf / "documents.parquet"), columns=["doc_id", "text"])
    q = ds.map_batches(QualityScorer, batch_format="pandas", concurrency=1).to_pandas()
    assert q.loc[q.doc_id == 2, "n_chars"].item() == 0
    assert q.loc[q.doc_id == 2, "n_tokens"].item() == 0

    fp = Fingerprinter().fingerprint_batch(
        __import__("pandas").Series(["x y", None])
    )
    assert len(fp) == 2  # null -> empty-doc fingerprint, no crash

    out = prep_corpus(str(sf), max_stop_ratio=1.0, min_tokens=1, max_tokens=100)
    assert 2 not in out["doc_id"].tolist()  # null doc filtered (0 tokens)
    assert {1, 3} <= set(out["doc_id"])


def test_semantic_dedup_exact_and_clustered():
    """k=1 must equal the brute-force lowest-id-representative rule; k>1
    must equal an in-memory replay of the same algorithm (same centroids,
    same within-cluster rule), and every cluster id must come from the
    fitted assignment."""
    import ray

    from sonic_etl_ray.functions.similarity import (
        _normalize, fit_centroids, semantic_dedup,
    )

    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = emb["vec_id"].to_numpy()
    order = np.argsort(ids)
    ids = ids[order]
    m = _normalize(np.stack(emb["embedding"].to_numpy())[order].astype(np.float64))
    th = 0.35

    def survivors(members):  # indices into ids, ascending vec_id
        mm = m[members]
        sims = np.triu(mm @ mm.T, k=1)
        return np.asarray(members)[~(sims >= th).any(axis=0)]

    # exact-recall config: one cluster = brute force
    out1 = semantic_dedup(SF, threshold=th, k=1)
    want1 = ids[survivors(np.arange(len(ids)))]
    assert out1["vec_id"].to_numpy().tolist() == sorted(want1.tolist())
    assert (out1["cluster"] == 0).all()
    assert len(out1) < len(ids)  # the corpus does contain semantic dups

    # clustered config: replay fit + assign + within-cluster rule in memory
    k = 4
    cents = _normalize(fit_centroids(SF, k=k))
    assign = (m @ cents.T).argmax(axis=1)
    outk = semantic_dedup(SF, threshold=th, k=k)
    want = {}
    for c in range(k):
        members = np.where(assign == c)[0]
        if len(members):
            for i in survivors(members):
                want[int(ids[i])] = c
    got = dict(zip(outk["vec_id"].astype(int), outk["cluster"].astype(int)))
    assert got == want
    # clustering only ever RELAXES the filter (cross-cluster dups survive)
    assert set(out1["vec_id"]) <= set(outk["vec_id"])


def test_semantic_dedup_nonpositive_threshold_keeps_representative():
    """At threshold <= 0 every pair 'matches', so exactly the lowest-id
    vector must survive (regression: zero-padded triangle dropped ALL)."""
    from sonic_etl_ray.functions.similarity import semantic_dedup

    out = semantic_dedup(SF, threshold=-1.0, k=1)
    ids = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id"])
    assert out["vec_id"].tolist() == [int(ids["vec_id"].to_numpy().min())]


def test_dup_spans_matches_bruteforce(tmp_path):
    """Exact substring-level dedup: per-doc distinct 8-token-span counts and
    duplicated-span counts (span in >=2 distinct docs) must equal a pure-
    python brute force, including short docs (< span length -> all zeros),
    within-doc repeats (deduped before the distinct-doc count), and an
    exact planted cross-doc duplicate span."""
    import pyarrow as pa

    from sonic_etl_ray.functions.dedup import dup_spans

    L = 8
    shared = " ".join(f"s{i}" for i in range(L))  # planted duplicated span
    docs = {
        0: shared + " " + " ".join(f"a{i}" for i in range(5)),
        1: " ".join(f"b{i}" for i in range(3)) + " " + shared,
        2: " ".join(f"c{i}" for i in range(20)),
        3: "short doc",                          # < L tokens -> zero spans
        4: ("rep " * (L + 3)).strip(),            # within-doc repeated span
        5: shared,                                # exactly one span, duplicated
    }
    tbl = pa.table(
        {
            "doc_id": list(docs),
            "text": list(docs.values()),
            "lang": ["en"] * len(docs),
            "source": ["t"] * len(docs),
            "n_chars": [len(v) for v in docs.values()],
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(tbl, sf / "documents.parquet")

    # brute force on strings
    import re

    span_sets = {
        d: {
            " ".join(toks[i : i + L])
            for i in range(len(toks) - L + 1)
        }
        for d, t in docs.items()
        for toks in [re.sub(r"\s+", " ", t).split(" ")]
    }
    from collections import Counter

    doc_count = Counter(s for spans in span_sets.values() for s in spans)
    want = {
        d: (len(spans), sum(1 for s in spans if doc_count[s] >= 2))
        for d, spans in span_sets.items()
    }

    out = dup_spans(str(sf), span_len=L)
    assert list(out["doc_id"]) == sorted(docs)
    for _, r in out.iterrows():
        ns, nd = want[int(r["doc_id"])]
        assert (int(r["n_spans"]), int(r["n_dup_spans"])) == (ns, nd), r["doc_id"]
        assert abs(r["dup_ratio"] - nd / max(ns, 1)) < 5e-7  # engine rounds to 6dp
    # the planted span is shared by docs 0, 1 and 5
    assert int(out.loc[out["doc_id"] == 5, "n_dup_spans"].iloc[0]) == 1
    assert int(out.loc[out["doc_id"] == 3, "n_spans"].iloc[0]) == 0
    # doc 4's repeated 'rep' span dedupes within-doc and is NOT cross-doc
    assert int(out.loc[out["doc_id"] == 4, "n_dup_spans"].iloc[0]) == 0


def test_corpus_profile_additive_truth(ray_session, tmp_path):
    """corpus_profile vs pandas truth on a small synthetic documents table
    (multi-byte text included: char counts, not byte counts)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sonic_etl_ray.functions.text import corpus_profile

    df = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": ["a b", "héllo wörld", "", "x", "uno dos tres", "é"],
            "lang": ["en", "de", "en", "en", "es", "de"],
            "source": ["s1", "s1", "s2", "s2", "s2", "s1"],
            "n_chars": np.zeros(6, dtype=np.int64),
        }
    )
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), str(tmp_path / "documents.parquet"))
    out = corpus_profile(str(tmp_path)).set_index("metric")["value"]
    assert out["n_docs"] == 6
    assert out["n_chars"] == sum(len(t) for t in df["text"])
    assert out["n_tokens"] == sum(len(t.split()) for t in df["text"])
    assert out["docs_lang=en"] == 3 and out["docs_lang=de"] == 2
    assert out["docs_source=s2"] == 3


def test_near_dup_keep_best_policy(ray_session, tmp_path):
    """Longest doc wins its cluster; ties break to the smallest id;
    unclustered docs never appear."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sonic_etl_ray.functions.dedup import near_dup_keep_best

    base = "the quick brown fox jumps over the lazy dog again and again"
    docs = [
        (0, base + " tail", "en", "s", 0),
        (1, base + " tail longer", "en", "s", 0),      # longest in cluster
        (2, base + " tail", "en", "s", 0),             # tie with 0 -> 0 wins? no, 1 longest
        (3, "completely different text about databases and rays", "en", "s", 0),
    ]
    df = pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": pa.array([d[1] for d in docs], pa.string()),
            "lang": pa.array([d[2] for d in docs], pa.string()),
            "source": pa.array([d[3] for d in docs], pa.string()),
            "n_chars": pa.array([len(d[1]) for d in docs], pa.int64()),
        }
    )
    pq.write_table(df, str(tmp_path / "documents.parquet"))
    out = near_dup_keep_best(str(tmp_path), threshold=0.5)
    assert set(out["doc_id"]) == {0, 1, 2}  # doc 3 unclustered
    kept = out[out["keep"]]
    assert kept["doc_id"].tolist() == [1]  # longest wins
    # determinism: exact tie between 0 and 2 -> neither kept over 1, and
    # rerun is byte-identical
    out2 = near_dup_keep_best(str(tmp_path), threshold=0.5)
    import pandas as pd

    pd.testing.assert_frame_equal(out, out2)


def test_prep_corpus_full_keeps_best_survivor(ray_session, tmp_path):
    """If a cluster's overall-best copy fails the quality filter, the best
    SURVIVING member is kept — content is never lost wholesale."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from sonic_etl_ray.pipelines.corpus import prep_corpus_full

    base = " ".join(f"w{i}" for i in range(30))
    # doc 0: the same content repeated until it fails max_tokens — its
    # shingle SET stays ~doc 2's (high Jaccard), so it IS the cluster's
    # longest member while being quality-filtered
    giant = " ".join([base + " tail"] * 200)
    docs = [
        (0, giant, "en", "s"),                # cluster best overall, filtered out
        (1, base + " tail one", "en", "s"),   # survivor, near-dup of 2
        (2, base + " tail", "en", "s"),       # survivor
        (3, " ".join(f"z{i}" for i in range(40)), "en", "s"),  # unclustered survivor
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": pa.array([d[1] for d in docs], pa.string()),
            "lang": pa.array([d[2] for d in docs], pa.string()),
            "source": pa.array([d[3] for d in docs], pa.string()),
            "n_chars": pa.array([len(d[1]) for d in docs], pa.int64()),
        }
    )
    pq.write_table(t, str(tmp_path / "documents.parquet"))
    out = prep_corpus_full(str(tmp_path), threshold=0.5, max_tokens=5000)
    ids = set(out["doc_id"])
    assert 0 not in ids          # quality-filtered
    assert 3 in ids              # untouched
    # the 1-2 near-dup pair keeps exactly its best survivor (1: longer)
    assert 1 in ids and 2 not in ids

def test_gram_kernels_tiled_bounded_memory(monkeypatch):
    """The pairwise kernels must never allocate an n×n gram. The tiled
    helpers are unit-tested in-process with the tile budget shrunk so even
    sf0.001 needs many tiles, asserting (a) no matmul slab ever exceeds
    tile×n elements and (b) results identical to the dense brute force;
    the Ray-driven ops are then checked against the same references."""
    import sonic_etl_ray.functions.similarity as sim
    from sonic_etl_ray.functions.similarity import _normalize

    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding", "label"])
    ids = emb["vec_id"].to_numpy()
    order = np.argsort(ids)
    ids_s = ids[order].astype(np.int64)
    m = _normalize(np.stack(emb["embedding"].to_numpy())[order].astype(np.float64))
    labels = emb["label"].to_numpy()[order]
    n = len(ids_s)
    th = 0.35

    # force multi-tile: 7 rows/tile
    monkeypatch.setattr(sim, "_GRAM_TILE_ELEMS", n * 7)
    assert sim._gram_tile_rows(n) == 7

    # dense references (test-only n×n is fine at sf0.001)
    sims = np.triu(m @ m.T, k=1)
    want_keep = ids_s[~(sims >= th).any(axis=0)]
    want_pairs = set()
    for lab in np.unique(labels):
        mem = np.where(labels == lab)[0]
        sub = np.triu(m[mem] @ m[mem].T, k=1)
        ia, ib = np.nonzero(sub >= th)
        for a, b in zip(mem[ia], mem[ib]):
            want_pairs.add((int(ids_s[a]), int(ids_s[b])))

    # spy: every slab the helpers produce must be <= tile×n elements
    max_elems = 0
    real_matmul = np.matmul

    class Spy:
        def __init__(self, base):
            self.base = base

        def __matmul__(self, other):
            nonlocal max_elems
            out = real_matmul(self.base, other)
            max_elems = max(max_elems, out.size)
            return out

        def __getitem__(self, idx):
            got = self.base[idx]
            return Spy(got) if getattr(got, "ndim", 0) == 2 else got

        @property
        def T(self):
            return self.base.T

        def __len__(self):
            return len(self.base)

    va, vb, cs = sim._tiled_neardup_pairs(ids_s, Spy(m), th)
    assert 0 < max_elems <= 7 * n, max_elems  # never an n×n slab
    got_all_pairs = set(zip(va.tolist(), vb.tolist()))
    ia, ib = np.nonzero(sims >= th)
    assert got_all_pairs == {(int(ids_s[a]), int(ids_s[b])) for a, b in zip(ia, ib)}

    max_elems = 0
    dropped = sim._tiled_dropped_mask(Spy(m), th)
    assert 0 < max_elems <= 7 * n, max_elems
    assert ids_s[~dropped].tolist() == sorted(int(v) for v in want_keep)

    # the Ray-driven ops use the same helpers: end-to-end parity
    out1 = sim.semantic_dedup(SF, threshold=th, k=1)
    assert out1["vec_id"].tolist() == sorted(int(v) for v in want_keep)
    pairs = sim.cosine_neardup_pairs(SF, threshold=th)
    got_pairs = set(zip(pairs["vec_a"].astype(int), pairs["vec_b"].astype(int)))
    assert got_pairs == want_pairs
    id_pos = {int(v): i for i, v in enumerate(ids_s)}
    for _, r in pairs.iterrows():
        a, b = id_pos[int(r["vec_a"])], id_pos[int(r["vec_b"])]
        assert abs(float(r["cosine"]) - float(m[a] @ m[b])) < 1e-9

def test_dedup_incremental_bloom_cache(tmp_path, monkeypatch):
    """Repeat dedup_incremental calls reuse the persisted lake-side Bloom
    bitmaps (no rebuild scan); rewriting documents.parquet changes the
    mtime+size stamp and forces a rebuild; sharded and unsharded paths both
    cache; results are identical cached or not."""
    import os

    import pyarrow as pa

    import sonic_etl_ray.functions.dedup as dd
    import sonic_etl_ray.functions.sketch as sk

    sf = str(tmp_path / "sf")
    os.makedirs(sf)

    def write_docs(n, seed):
        rng = np.random.default_rng(seed)
        texts = [f"prefix-{i % (n // 2)} body {rng.integers(1e9)}" for i in range(n)]
        pa_tbl = pa.table(
            {
                "doc_id": pa.array(range(n), pa.int64()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(["en"] * n, pa.string()),
                "source": pa.array(["s0"] * n, pa.string()),
                "n_chars": pa.array([len(t) for t in texts], pa.int64()),
            }
        )
        pq.write_table(pa_tbl, f"{sf}/documents.parquet")

    write_docs(60, seed=1)

    builds = {"n": 0}
    real_build = sk.bloom_build
    real_build_sharded = sk.bloom_build_sharded

    def counting_build(*a, **kw):
        builds["n"] += 1
        return real_build(*a, **kw)

    def counting_build_sharded(*a, **kw):
        builds["n"] += 1
        return real_build_sharded(*a, **kw)

    monkeypatch.setattr(sk, "bloom_build", counting_build)
    monkeypatch.setattr(sk, "bloom_build_sharded", counting_build_sharded)

    out1 = dd.dedup_incremental(sf)
    assert builds["n"] == 1
    out2 = dd.dedup_incremental(sf)  # cache hit: no rebuild
    assert builds["n"] == 1
    assert out1.equals(out2)

    # sharded variant has its own cache entry (params in the key)
    outs1 = dd.dedup_incremental(sf, num_bloom_shards=4)
    assert builds["n"] == 2
    outs2 = dd.dedup_incremental(sf, num_bloom_shards=4)
    assert builds["n"] == 2
    assert outs1.equals(outs2)
    assert outs1.equals(out1)  # shard count affects cost, not results

    # torn sharded cache (READY marker but a shard file missing): the bad
    # dir is cleared, the rebuild republishes, and the NEXT call hits cache
    from sonic_etl_ray.functions.similarity import _index_cache_dir
    from sonic_etl_ray.functions.sketch import BLOOM_BITS, BLOOM_K
    cache_dir = _index_cache_dir(
        "bloomfp", sf, 0.8, 40, 4, "sip1", f"g{BLOOM_BITS}x{BLOOM_K}",
        src_name="documents.parquet",
    ) + ".shards"
    shard_file = os.path.join(cache_dir, "shard_0.npy")
    assert os.path.exists(shard_file), "expected a published sharded cache dir"
    os.remove(shard_file)
    outs3 = dd.dedup_incremental(sf, num_bloom_shards=4)
    assert builds["n"] == 3  # rebuilt
    assert outs3.equals(outs1)
    outs4 = dd.dedup_incremental(sf, num_bloom_shards=4)
    assert builds["n"] == 3  # repaired cache serves
    assert outs4.equals(outs1)

    # input rewrite -> stamp changes -> rebuild (and result reflects new data)
    import time as _t
    _t.sleep(0.01)  # ensure a distinct mtime_ns on fast filesystems
    write_docs(80, seed=2)
    out3 = dd.dedup_incremental(sf)
    assert builds["n"] == 4
    assert not out3.equals(out1)

def test_resize_stub_bytes_pinned():
    """The deterministic fake-resize bytes are PINNED so the stub cannot
    drift silently (it stands in for a real interpolation kernel — any
    change to its sampling rule must be a conscious, test-updating one).
    Covers a hand-computable 4×4→2×2 case and a digest over the seeded
    synth corpus."""
    import hashlib

    from sonic_etl_ray.functions.multimodal import ResizeStub, synth_media_table

    # 4×4 byte grid 0..15, 2×2 nearest-neighbor -> rows {0,2} × cols {0,2}
    s = ResizeStub(2, 2, fake=True)
    assert list(s._resize(bytes(range(16)), 4, 4)) == [0, 2, 8, 10]
    # short payload is zero-padded to the grid before sampling
    assert list(s._resize(bytes([7]), 4, 4)) == [7, 0, 0, 0]

    out = ResizeStub(8, 8, fake=True)(synth_media_table(24, seed=3))
    h = hashlib.sha256()
    for mid, p in sorted(
        zip(out.column("media_id").to_pylist(), out.column("payload").to_pylist())
    ):
        h.update(str(mid).encode())
        h.update(p)
    assert h.hexdigest() == (
        "1ef7ef0660fb3a135a55f76e477510f97247c29de86bc2b9047753714f3930e4"
    )

def test_extend_lsh_and_ivf_index_incremental(tmp_path):
    """Incremental index maintenance: build on a subset, extend with the
    remainder (tagged, epoch-style), and the index contents equal a direct
    hash/assignment of the FULL set; a completed tag short-circuits and a
    torn retry converges without duplicates."""
    import glob as _glob
    import os

    import pyarrow as pa
    import pyarrow.dataset as pds
    import ray.data

    from sonic_etl_ray.functions.similarity import (
        HyperplaneHasher,
        IVFIndexer,
        build_ivf_index,
        build_lsh_index,
        extend_ivf_index,
        extend_lsh_index,
    )

    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = emb["vec_id"].to_numpy()
    cut = int(np.sort(ids)[len(ids) // 2])
    base = emb.filter(pa.compute.less(emb["vec_id"], cut))
    extra = emb.filter(pa.compute.greater_equal(emb["vec_id"], cut))

    sf_base = str(tmp_path / "sf_base")
    os.makedirs(sf_base)
    pq.write_table(base, f"{sf_base}/embeddings.parquet")

    # ---- LSH
    idx = str(tmp_path / "lsh_idx")
    build_lsh_index(sf_base, idx, n_planes=6, seed=13)
    stats = extend_lsh_index(idx, ray.data.from_arrow(extra), tag="ep7")
    assert stats["rows"] == extra.num_rows and stats["files"] > 0

    got = pds.dataset(idx, format="parquet", partitioning="hive").to_table(
        columns=["vec_id", "bucket"]
    )
    dim = len(emb["embedding"][0])
    hasher = HyperplaneHasher(dim, 6, 13)
    want_buckets = hasher.bucket(np.stack(emb["embedding"].to_numpy()).astype(np.float64))
    want = dict(zip(ids.tolist(), want_buckets.tolist()))
    got_map = dict(zip(got["vec_id"].to_numpy().tolist(), got["bucket"].to_numpy().tolist()))
    assert got_map == want  # full set present, one entry each, right buckets

    # completed tag short-circuits (marker) — file count unchanged
    n_files = len(_glob.glob(os.path.join(idx, "bucket=*", "*.parquet")))
    again = extend_lsh_index(idx, ray.data.from_arrow(extra), tag="ep7")
    assert again == stats
    assert len(_glob.glob(os.path.join(idx, "bucket=*", "*.parquet"))) == n_files

    # torn retry: drop the marker (simulates crash after a partial move) —
    # the retry deletes tag files and re-moves; still no duplicates
    os.remove(os.path.join(idx, "_ext_ep7.done"))
    extend_lsh_index(idx, ray.data.from_arrow(extra), tag="ep7")
    got2 = pds.dataset(idx, format="parquet", partitioning="hive").to_table(
        columns=["vec_id"]
    )
    assert got2.num_rows == emb.num_rows

    # ---- IVF
    ivf = str(tmp_path / "ivf_idx")
    build_ivf_index(sf_base, ivf, n_clusters=4)
    s2 = extend_ivf_index(ivf, ray.data.from_arrow(extra), tag="ep8")
    assert s2["rows"] == extra.num_rows
    cents = np.load(os.path.join(ivf, "centroids.npy"))
    gmap = {}
    for cdir in sorted(_glob.glob(os.path.join(ivf, "cluster=*"))):
        c = int(os.path.basename(cdir).split("=", 1)[1])
        for f in _glob.glob(os.path.join(cdir, "*.parquet")):
            for v in pq.read_table(f, columns=["vec_id"])["vec_id"].to_pylist():
                assert v not in gmap, f"duplicate vec_id {v}"
                gmap[v] = c
    assigner = IVFIndexer(cents)
    import pandas as _pd
    want_assign = assigner(
        _pd.DataFrame({"vec_id": ids, "embedding": list(emb["embedding"].to_numpy(zero_copy_only=False))})
    )
    wmap = dict(zip(want_assign["vec_id"].astype(int), want_assign["cluster"].astype(int)))
    assert gmap == wmap


def test_extend_index_same_tag_rival_keeps_first_extenders_files(tmp_path):
    """Two same-tag extenders: while the first holds the index dir's writer
    lease (its files moved in, its marker not yet written), the second
    fails fast instead of clearing ``ext-<tag>-*`` as torn leftovers."""
    import glob as _glob
    import os
    import shutil

    import ray.data

    from sonic_etl_ray.functions.similarity import build_lsh_index, extend_lsh_index
    from sonic_etl_ray.state import commitlog as cl

    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    idx = str(tmp_path / "lsh_idx")
    build_lsh_index(SF, idx, n_planes=6, seed=13)
    # the first extender, mid-sequence: lease held, one file moved in
    token = cl.acquire_writer_lease(idx, owner="first extender")
    first = _glob.glob(os.path.join(idx, "bucket=*", "*.parquet"))[0]
    moved = os.path.join(os.path.dirname(first), "ext-ep9-0.parquet")
    shutil.copy(first, moved)
    ino = os.stat(moved).st_ino

    with pytest.raises(cl.LeaseHeld):
        extend_lsh_index(idx, ray.data.from_arrow(emb.slice(0, 50)), tag="ep9")
    assert os.stat(moved).st_ino == ino
    assert not os.path.exists(os.path.join(idx, "_ext_ep9.done"))

    # once the lease is free the tag completes: torn files are replaced
    cl.release_writer_lease(idx, token)
    stats = extend_lsh_index(idx, ray.data.from_arrow(emb.slice(0, 50)), tag="ep9")
    assert stats["rows"] == 50
    tagged = _glob.glob(os.path.join(idx, "bucket=*", "ext-ep9-*.parquet"))
    assert sum(pq.read_metadata(f).num_rows for f in tagged) == 50
    assert not os.path.exists(os.path.join(idx, cl.LEASE_NAME))

def test_dedup_incremental_fuzzy_brute_force(tmp_path):
    """Fuzzy admission gate vs a pure-python brute force on a corpus with
    PLANTED cross-cut near-duplicates: an incoming doc is rejected iff some
    lake doc reaches k-gram Jaccard >= threshold; exact copies, shingle-set
    near-copies, and clean docs all land on the right side."""
    import os

    import pyarrow as pa

    from sonic_etl_ray.functions.dedup import dedup_incremental_fuzzy, jaccard

    sf = str(tmp_path / "sf")
    os.makedirs(sf)
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(60)]
    texts = []
    n = 50  # cut at 40: lake = 0..39, incoming = 40..49
    for i in range(40):
        texts.append(" ".join(rng.choice(vocab, size=30)))
    # incoming: 3 exact copies of lake docs, 2 near-copies (small tail
    # edit), 5 fresh random docs
    texts.append(texts[3])
    texts.append(texts[17])
    texts.append(texts[29])
    texts.append(texts[5] + " w0")
    texts.append(texts[11] + " zz")
    for i in range(5):
        texts.append(" ".join(rng.choice(vocab, size=30)))
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
            "source": pa.array(["s"] * n, pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )
    pq.write_table(tbl, f"{sf}/documents.parquet")

    th = 0.8
    got = dedup_incremental_fuzzy(sf, threshold=th)
    want = [
        i for i in range(40, n)
        if not any(jaccard(texts[j], texts[i]) >= th for j in range(40))
    ]
    assert got["doc_id"].tolist() == want
    # the planted exact copies were rejected, at least one fresh doc admitted
    assert 40 not in got["doc_id"].values and 41 not in got["doc_id"].values
    assert len(got) >= 1

def test_indexed_extended_topk_matches_full():
    """The extended-index query paths: base 80% built + holdout 20% appended
    through extend_*_index must probe IDENTICALLY to the full-table paths
    (same bucket/cluster assignment whether a vector arrived at build time
    or through the extension)."""
    from sonic_etl_ray.functions.similarity import (
        brute_force_topk,
        ivf_topk_indexed_extended,
        lsh_topk,
        lsh_topk_indexed_extended,
    )

    got_lsh = lsh_topk_indexed_extended(SF, k=10)
    want_lsh = lsh_topk(SF, k=10)
    pd.testing.assert_frame_equal(
        got_lsh.reset_index(drop=True), want_lsh.reset_index(drop=True)
    )

    got_ivf = ivf_topk_indexed_extended(SF, k=10, n_clusters=4, n_probe=4)
    want_ivf = brute_force_topk(SF, k=10)
    pd.testing.assert_frame_equal(
        got_ivf.reset_index(drop=True), want_ivf.reset_index(drop=True)
    )

def test_extend_index_tag_validation(tmp_path):
    """Tags are embedded in cleanup globs and filenames: a '-' (or path
    chars) would let one tag's torn-retry glob delete another tag's
    committed files — rejected up front."""
    import os

    import pytest as _pytest
    import ray.data

    from sonic_etl_ray.functions.similarity import build_lsh_index, extend_lsh_index

    sf = str(tmp_path / "sf")
    os.makedirs(sf)
    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    pq.write_table(emb, f"{sf}/embeddings.parquet")
    idx = str(tmp_path / "idx")
    build_lsh_index(sf, idx, n_planes=4, seed=13)
    for bad in ("3-b", "a/b", "", "x y"):
        with _pytest.raises(ValueError, match="tag"):
            extend_lsh_index(idx, ray.data.from_arrow(emb.slice(0, 2)), tag=bad)

def test_extend_lsh_index_requires_meta(tmp_path):
    """Pre-meta (legacy) indexes cannot be extended — the hyperplane family
    is unrecoverable; a clear error tells the operator to rebuild."""
    import os

    import pytest as _pytest
    import ray.data

    from sonic_etl_ray.functions.similarity import extend_lsh_index

    idx = str(tmp_path / "legacy_idx")
    os.makedirs(idx)
    open(os.path.join(idx, "_INDEX_READY"), "w").close()  # ready but no meta
    emb = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    with _pytest.raises(FileNotFoundError, match="rebuild"):
        extend_lsh_index(idx, ray.data.from_arrow(emb.slice(0, 4)), tag="e1")
