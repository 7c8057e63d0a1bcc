"""Training-data pipeline operators: dedup suite, text stats, ANN,
windowed aggregates, multimodal plumbing."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet("/root/testdata/sf0.001/documents.parquet")


@pytest.fixture(scope="module")
def dup_docs(ray_session):
    """Documents with planted exact and near duplicates."""
    import ray.data as rd

    base = "the quick brown fox jumps over the lazy dog again and again today"
    rows = []
    for i in range(40):
        # letters-only variation: digits are stripped by the tokenizer (M2)
        tag = "".join(chr(97 + int(c)) for c in str(i))
        rows.append(
            {"doc_id": i, "text": f"unique {tag} document about topic {tag} {tag}x with distinct {tag} words"}
        )
    rows.append({"doc_id": 100, "text": base})
    rows.append({"doc_id": 101, "text": base})  # exact dup
    rows.append({"doc_id": 102, "text": base + " tail"})  # near dup
    rows.append({"doc_id": 103, "text": "completely different content about ray data pipelines"})
    return rd.from_items(rows)


def test_exact_dedup(dup_docs):
    from search_engine_skillbox_ray.pipelines.dedup import exact_dedup

    out = exact_dedup(dup_docs).to_pandas()
    assert len(out) == 43  # 44 docs, one exact pair collapsed
    winners = set(out["doc_id"])
    assert 100 in winners and 101 not in winners
    assert out.loc[out["doc_id"] == 100, "n_copies"].iloc[0] == 2


def test_minhash_lsh_finds_near_dups(dup_docs):
    from search_engine_skillbox_ray.pipelines.dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(dup_docs, threshold=0.5).to_pandas()
    got = {tuple(sorted(p)) for p in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (100, 101) in got  # exact dup certainly caught
    # no false positives among the unique docs
    uniq_pairs = [p for p in got if p[0] < 100 and p[1] < 100]
    assert not uniq_pairs


def test_simhash_near_pairs(dup_docs):
    from search_engine_skillbox_ray.pipelines.dedup import simhash_ds, simhash_near_pairs

    fp = simhash_ds(dup_docs).to_pandas()
    assert len(fp) == 44
    by_id = dict(zip(fp["doc_id"], fp["simhash"]))
    assert by_id[100] == by_id[101]  # identical text → identical simhash
    pairs = simhash_near_pairs(dup_docs, max_hamming=3).to_pandas()
    got = {tuple(sorted(p)) for p in zip(pairs["doc_a"], pairs["doc_b"])}
    assert (100, 101) in got


def test_ngram_jaccard(dup_docs):
    from search_engine_skillbox_ray.pipelines.dedup import ngram_jaccard_pairs

    pairs = ngram_jaccard_pairs(dup_docs, threshold=0.5).to_pandas()
    got = {tuple(sorted(p)): j for p, j in
           zip(zip(pairs["doc_a"], pairs["doc_b"]), pairs["jaccard"])}
    assert got.get((100, 101)) == 1.0
    assert (100, 102) in got  # near dup shares most 3-grams


def test_dup_span_runs_contiguity(ray_session):
    """A verbatim shared block yields a long max_dup_run; scattered
    shared windows yield runs of ~1; clean docs get zero rows."""
    import ray.data as rd
    from search_engine_skillbox_ray.pipelines.dedup import dup_span_runs

    block = " ".join(f"shared{chr(97 + i % 26)}{chr(97 + (i * 3) % 26)}" for i in range(12))
    uniq = lambda tag, n: " ".join(f"{tag}{chr(97 + i % 26)}{chr(97 + (i * 7) % 26)}" for i in range(n))
    rows = [
        {"doc_id": 1, "text": uniq("aa", 6) + " " + block + " " + uniq("bb", 6)},
        {"doc_id": 2, "text": uniq("cc", 6) + " " + block + " " + uniq("dd", 6)},
        {"doc_id": 3, "text": uniq("ee", 20)},  # clean
    ]
    out = dup_span_runs(rd.from_items(rows), k=5).to_pandas().set_index("doc_id")
    # the 12-token block gives 8 consecutive dup windows at k=5
    assert out.loc[1, "max_dup_run"] == 8
    assert out.loc[2, "max_dup_run"] == 8
    assert out.loc[3, "max_dup_run"] == 0
    assert out.loc[3, "n_windows"] == 16  # 20 tokens, k=5
    assert len(out) == 3


def test_containment_pairs_asymmetric(ray_session):
    """A short doc quoted inside a much longer one: Jaccard is tiny but
    containment short→long is ~1.0, and the pair is ORDERED."""
    import ray.data as rd
    from search_engine_skillbox_ray.pipelines.dedup import containment_pairs

    quote = "the quick brown fox jumps over the lazy dog near the river bank"
    filler = " ".join(f"filler{chr(97 + i % 26)}{chr(97 + (i * 7) % 26)} unrelated topic" for i in range(60))
    rows = [
        {"doc_id": 1, "text": quote},
        {"doc_id": 2, "text": filler + " " + quote + " " + filler[::-1].replace("}", " ")},
        {"doc_id": 3, "text": "entirely separate subject matter about ray data pipelines"},
    ]
    pairs = containment_pairs(
        rd.from_items(rows), n=3, threshold=0.8, probe_sample=4, max_gram_df=64
    ).to_pandas()
    got = {(a, b): c for a, b, c in
           zip(pairs["doc_a"], pairs["doc_b"], pairs["containment"])}
    assert got.get((1, 2), 0.0) >= 0.8   # short contained in long
    assert (2, 1) not in got             # asymmetric: long not in short
    assert not any(3 in p for p in got)  # unrelated doc untouched


def test_containment_pairs_df_cap(ray_session):
    """Grams above max_gram_df are excluded as candidate evidence: with a
    cap of 1 no gram can bucket two docs, so no pairs surface."""
    import ray.data as rd
    from search_engine_skillbox_ray.pipelines.dedup import containment_pairs

    text = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    ds = rd.from_items([{"doc_id": i, "text": text} for i in range(4)])
    assert containment_pairs(ds, max_gram_df=1).to_pandas().empty
    full = containment_pairs(ds, max_gram_df=64).to_pandas()
    # identical docs: every ordered pair at containment 1.0
    assert len(full) == 12 and (full["containment"] == 1.0).all()


def test_embedding_near_pairs(ray_session):
    import ray.data as rd
    from search_engine_skillbox_ray.pipelines.dedup import embedding_near_pairs

    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((50, 16))
    vecs[10] = vecs[20] * 1.5 + rng.standard_normal(16) * 1e-4  # planted near-dup
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(50), pa.int64()),
                "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float64())),
            }
        )
    )
    pairs = embedding_near_pairs(ds, threshold=0.99).to_pandas()
    got = {tuple(sorted(p)) for p in zip(pairs["vec_a"], pairs["vec_b"])}
    assert (10, 20) in got


def test_textstats(docs_ds):
    from search_engine_skillbox_ray.functions.tokenize import tokenize
    from search_engine_skillbox_ray.pipelines.textstats import (
        fingerprints_ds,
        langid_ds,
        quality_ds,
        token_counts_ds,
    )

    sample = docs_ds.materialize().take(5)
    tc = token_counts_ds(docs_ds).to_pandas().set_index("doc_id")
    for row in sample:
        assert tc.loc[row["doc_id"], "n_tokens"] == len(tokenize(row["text"]))

    q = quality_ds(docs_ds).to_pandas()
    assert (q["n_unique_terms"] <= q["n_tokens"]).all()
    assert (q["text_len"] > 0).all()

    fp = fingerprints_ds(docs_ds).to_pandas()
    assert fp["fingerprint"].str.len().eq(32).all()

    li = langid_ds(docs_ds).to_pandas()
    assert set(li.columns) == {"doc_id", "pred_lang", "confidence"}
    assert len(li) == docs_ds.count()


def test_ann_brute_force_and_lsh_recall(ray_session):
    import ray.data as rd
    from search_engine_skillbox_ray.pipelines.ann import brute_force_topk, lsh_topk

    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet").materialize()
    vecs = np.asarray(emb.take(5))
    queries = np.asarray([r["embedding"] for r in emb.take(5)], dtype=np.float64)

    exact = brute_force_topk(emb, queries, k=10).to_pandas()
    assert len(exact) == 50
    # query vector present in the corpus → its own id is rank 0 with cos≈1
    for qi in range(5):
        top = exact[(exact["query_id"] == qi) & (exact["rank"] == 0)]
        assert top["cosine"].iloc[0] == pytest.approx(1.0, abs=1e-6)

    approx = lsh_topk(emb, queries, k=10, n_planes=4, n_probes=11)
    ap = approx.to_pandas()
    # recall@10 vs exact baseline
    recalls = []
    for qi in range(5):
        e = set(exact[exact["query_id"] == qi]["vec_id"])
        a = set(ap[ap["query_id"] == qi]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5, recalls


def test_tumbling_window_and_sessions(ray_session):
    import ray.data as rd
    from search_engine_skillbox_ray.pipelines.windows import sessionize, tumbling_window

    ev = rd.read_parquet("/root/testdata/sf0.001/events.parquet")
    win = tumbling_window(ev, window_s=3600).to_pandas()
    assert win["n_events"].sum() == ev.count()
    assert (win["window_start"] % 3600 == 0).all()

    sess = sessionize(ev, gap_s=1800).to_pandas()
    assert sess["n_events"].sum() == ev.count()
    assert (sess["n_sessions"] >= 1).all()
    assert (sess["n_sessions"] <= sess["n_events"]).all()


def test_multimodal_plumbing(ray_session):
    import ray.data as rd
    from search_engine_skillbox_ray.pipelines.multimodal import (
        DecodeMedia,
        decode_media_ds,
        frame_sample_ds,
        make_media_table,
    )

    tbl = make_media_table(30, seed=9)
    ds = rd.from_arrow(tbl)
    meta = decode_media_ds(ds).to_pandas()
    assert len(meta) == 30
    assert (meta["width"] >= 8).all() and (meta["n_bytes"] > 11).all()
    assert meta["feature"].map(len).eq(16).all()

    frames = frame_sample_ds(ds, every_k=2).to_pandas()
    n_videos = (tbl["media_type"].to_pandas() == "video").sum()
    assert (len(frames) > 0) == (n_videos > 0)
    assert set(frames["media_id"]) <= set(tbl["media_id"].to_pylist())

    # strict mode: real decoder absent in this container → NotImplementedError
    with pytest.raises(NotImplementedError):
        DecodeMedia(strict=True)


def test_media_decode_deterministic(ray_session):
    import ray.data as rd
    from search_engine_skillbox_ray.pipelines.multimodal import decode_media_ds, make_media_table

    t1 = decode_media_ds(rd.from_arrow(make_media_table(10, seed=4))).to_pandas()
    t2 = decode_media_ds(rd.from_arrow(make_media_table(10, seed=4))).to_pandas()
    assert t1.sort_values("media_id").reset_index(drop=True).equals(
        t2.sort_values("media_id").reset_index(drop=True)
    )


def test_minhash_and_simhash_deterministic_across_runs(dup_docs):
    """LSH signatures/pairs must be identical run-to-run (fixed seeds,
    value-deterministic hashing)."""
    from search_engine_skillbox_ray.pipelines.dedup import minhash_lsh_pairs, simhash_ds

    p1 = minhash_lsh_pairs(dup_docs, threshold=0.5).to_pandas()
    p2 = minhash_lsh_pairs(dup_docs, threshold=0.5).to_pandas()
    key = ["doc_a", "doc_b"]
    assert p1.sort_values(key).reset_index(drop=True).equals(
        p2.sort_values(key).reset_index(drop=True)
    )
    s1 = simhash_ds(dup_docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    s2 = simhash_ds(dup_docs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert s1.equals(s2)


def test_ann_ivf_recall(ray_session):
    import ray.data as rd
    from search_engine_skillbox_ray.pipelines.ann import brute_force_topk, ivf_topk

    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet").materialize()
    queries = np.asarray(
        [r["embedding"] for r in sorted(emb.take(8), key=lambda r: r["vec_id"])[:5]],
        dtype=np.float64,
    )
    exact = brute_force_topk(emb, queries, k=10).to_pandas()
    approx = ivf_topk(emb, queries, k=10, n_lists=8, n_probe=4).to_pandas()
    recalls = []
    for qi in range(5):
        e = set(exact[exact["query_id"] == qi]["vec_id"])
        a = set(approx[approx["query_id"] == qi]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.6, recalls
    # determinism across runs (seeded training sample + kmeans)
    again = ivf_topk(emb, queries, k=10, n_lists=8, n_probe=4).to_pandas()
    assert approx.equals(again)


def test_near_dup_pairs_globally_unique(dup_docs):
    """The single-exchange candidate generators (first-colliding-band /
    smallest-common-bucket rules) must emit every pair EXACTLY once —
    they replaced an explicit cross-band dedup shuffle."""
    from search_engine_skillbox_ray.pipelines.dedup import (
        minhash_lsh_pairs,
        ngram_jaccard_pairs,
        simhash_near_pairs,
    )

    for maker, cols in (
        (lambda d: minhash_lsh_pairs(d, threshold=0.0), ("doc_a", "doc_b")),
        (lambda d: simhash_near_pairs(d, max_hamming=40), ("doc_a", "doc_b")),
        (lambda d: ngram_jaccard_pairs(d, threshold=0.0), ("doc_a", "doc_b")),
    ):
        df = maker(dup_docs).to_pandas()
        assert len(df), "low thresholds must surface candidate pairs"
        keys = list(zip(df[cols[0]], df[cols[1]]))
        assert len(keys) == len(set(keys))
        assert all(a < b for a, b in keys)


def test_hopping_window_matches_pandas_reference(ray_session):
    """Hopping windows: each event lands in window_s/hop_s windows; the
    partial-agg explosion must reproduce a brute-force reference."""
    import pandas as pd
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.windows import hopping_window

    rng = np.random.default_rng(5)
    n = 500
    ts = np.sort(rng.integers(0, 10**7, n)) * 1_000_000  # microseconds
    rows = pa.table(
        {
            "ts": pa.array(ts).cast(pa.timestamp("us")),
            "event_type": pa.array(rng.choice(["a", "b"], n)),
            "value": pa.array(np.round(rng.random(n) * 10, 2)),
        }
    )
    out = hopping_window(
        rd.from_arrow(rows), window_s=3600, hop_s=900
    ).to_pandas().sort_values(["event_type", "window_start"]).reset_index(drop=True)

    ref: dict[tuple[str, int], list[float]] = {}
    for t, k, v in zip(ts.tolist(), rows["event_type"].to_pylist(), rows["value"].to_pylist()):
        base = t // (900 * 1_000_000)
        for i in range(4):
            ref.setdefault((k, (base - i) * 900), []).append(v)
    exp = pd.DataFrame(
        [
            {"event_type": k, "window_start": w, "n_events": len(vs),
             "sum_value": round(sum(vs), 6)}
            for (k, w), vs in ref.items()
        ]
    ).sort_values(["event_type", "window_start"]).reset_index(drop=True)
    assert len(out) == len(exp)
    assert (out["event_type"] == exp["event_type"]).all()
    assert (out["window_start"].to_numpy() == exp["window_start"].to_numpy()).all()
    assert (out["n_events"].to_numpy() == exp["n_events"].to_numpy()).all()
    assert np.allclose(out["sum_value"], exp["sum_value"], atol=1e-6)

    with pytest.raises(ValueError):
        hopping_window(rd.from_arrow(rows), window_s=3600, hop_s=1000)


def test_hll_distinct_tokens_accuracy_and_determinism(ray_session):
    """HLL sketch: estimate within the expected ~1.04/sqrt(m) band of the
    true distinct count, deterministic across runs, and exact under the
    linear-counting branch for tiny cardinalities."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import hll_distinct_tokens

    rng = np.random.default_rng(9)
    # letters-only vocab: the M2 tokenizer strips digits
    import itertools, string
    vocab = ["".join(c) for c in itertools.islice(
        itertools.product(string.ascii_lowercase, repeat=4), 8000)]
    rows = []
    for d in range(60):
        words = rng.choice(vocab, size=400)
        rows.append({"source": "big", "text": " ".join(words)})
    rows.append({"source": "tiny", "text": "alpha beta gamma alpha"})
    ds = rd.from_items(rows)

    out = hll_distinct_tokens(ds, precision=12).to_pandas().set_index("source")
    true_big = len({w for r in rows[:-1] for w in r["text"].split()})
    assert true_big > 5000
    est = out.loc["big", "hll_distinct"]
    assert abs(est / true_big - 1) < 0.05  # 3σ ≈ 0.049 at m=4096
    # tiny cardinality hits the linear-counting branch → near-exact
    assert abs(out.loc["tiny", "hll_distinct"] - 3) < 0.01
    out2 = hll_distinct_tokens(rd.from_items(rows), precision=12).to_pandas().set_index("source")
    assert (out2["hll_distinct"] == out["hll_distinct"]).all()

    with pytest.raises(ValueError):
        hll_distinct_tokens(ds, precision=2)


def test_hll_rho_exact_at_low_precision(ray_session):
    """rho must be the exact integer leading-zero count for EVERY
    allowed precision — a single float64 frexp mis-floors when the
    register field exceeds 53 bits (precision <= 10)."""
    import pyarrow as pa

    from search_engine_skillbox_ray.functions.hashing import TokenHasher
    from search_engine_skillbox_ray.pipelines.textstats import HllPartial

    import itertools

    # letter-only words: digits are token separators under M2 semantics
    words = [
        "".join(w) for w in itertools.islice(itertools.product("abcdefghij", repeat=4), 3000)
    ]
    batch = pa.table(
        {"source": ["s"], "text": [" ".join(words)], "doc_id": [1]}
    )
    for precision in (4, 8, 12, 16):
        stage = HllPartial(precision=precision)
        out = stage(batch)
        field = 64 - precision
        h = TokenHasher().hash_tokens(pa.array(sorted(set(words))))
        expect: dict[int, int] = {}
        for v in h.tolist():
            reg = v >> field
            w = v & ((1 << field) - 1)
            rho = field + 1 - w.bit_length()  # pure-int oracle
            expect[reg] = max(expect.get(reg, 0), rho)
        got = dict(zip(out["register"].to_pylist(), out["rho"].to_pylist()))
        assert got == expect, f"precision={precision}"


def test_phrase_scan(ray_session):
    """Exact phrase-occurrence scan: adjacency, overlap counting,
    same-doc guard at batch boundaries, absent probes, punctuation/case
    normalization through the M2 tokenizer."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import phrase_scan_ds

    rows = [
        {"doc_id": 0, "text": "alpha beta gamma alpha beta"},       # 2x "alpha beta"
        {"doc_id": 1, "text": "rep rep rep rep"},                   # 3x "rep rep" (overlap)
        {"doc_id": 2, "text": "Alpha, BETA! gamma"},                # case/punct → 1x both
        {"doc_id": 3, "text": "beta alpha"},                        # reversed → no match
        {"doc_id": 4, "text": "alpha"},                             # shorter than phrase
        {"doc_id": 5, "text": ""},
    ]
    ds = rd.from_items(rows)
    out = phrase_scan_ds(
        ds, ["alpha beta", "rep rep", "alpha beta gamma", "absent phrase"]
    ).to_pandas()
    got = {(r.doc_id, r.phrase_id): r.n_occurrences for r in out.itertuples()}
    assert got == {
        (0, 0): 2, (2, 0): 1,
        (1, 1): 3,
        (0, 2): 1, (2, 2): 1,
    }
    # phrase spanning two docs must NOT match (same-parent guard):
    # doc 6 ends with "alpha", doc 7 begins with "beta"
    ds2 = rd.from_items(
        [{"doc_id": 6, "text": "x alpha"}, {"doc_id": 7, "text": "beta y"}]
    )
    out2 = phrase_scan_ds(ds2, ["alpha beta"]).to_pandas()
    assert len(out2) == 0


def test_dup_span_stats_planted(ray_session):
    """Planted shared 5-token spans: semantics checked against a brute
    pure-Python re-derivation (windows over the M2 token stream)."""
    import ray.data as rd

    from search_engine_skillbox_ray.functions.tokenize import tokenize
    from search_engine_skillbox_ray.pipelines.dedup import dup_span_stats

    shared = "alpha beta gamma delta epsilon zeta"  # 6 tokens → 2 windows
    rows = [
        {"doc_id": 0, "text": f"one two {shared} three four five six"},
        {"doc_id": 1, "text": f"prefix words here {shared} and a suffix tail"},
        {"doc_id": 2, "text": "totally unrelated text about streaming execution engines"},
        {"doc_id": 3, "text": "short doc"},  # < k tokens → 0 windows
        {"doc_id": 4, "text": ""},
    ]
    k = 5
    out = (
        dup_span_stats(rd.from_items(rows), k=k)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    # brute-force reference
    wins: dict[int, list[tuple]] = {}
    for r in rows:
        t = [w for w in tokenize(r["text"]) if w]
        wins[r["doc_id"]] = [tuple(t[i : i + k]) for i in range(max(0, len(t) - k + 1))]
    from collections import Counter

    owners: dict[tuple, set] = {}
    for d, ws in wins.items():
        for w in set(ws):
            owners.setdefault(w, set()).add(d)
    for d, ws in wins.items():
        n_dup = sum(1 for w in ws if len(owners[w]) >= 2)
        assert out.loc[d, "n_windows"] == len(ws), d
        assert out.loc[d, "n_dup_windows"] == n_dup, d
        expect_frac = n_dup / len(ws) if ws else 0.0
        assert abs(out.loc[d, "dup_fraction"] - expect_frac) < 1e-12, d
    assert len(out) == len(rows)  # zero-window docs keep their row
    assert out.loc[0, "n_dup_windows"] == 2 and out.loc[1, "n_dup_windows"] == 2


def test_sample_by_hash_deterministic_and_nested(ray_session):
    """Same salt ⇒ identical sample across runs; a superset's sample
    contains the subset's sample (hash decision is per-row)."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import sample_by_hash_ds

    rows = [{"doc_id": i, "source": f"s{i % 3}"} for i in range(200)]
    full = rd.from_items(rows)
    sub = rd.from_items(rows[:100])
    s_full = set(sample_by_hash_ds(full, rate_pct=20).to_pandas()["doc_id"])
    s_full2 = set(sample_by_hash_ds(full, rate_pct=20).to_pandas()["doc_id"])
    s_sub = set(sample_by_hash_ds(sub, rate_pct=20).to_pandas()["doc_id"])
    assert s_full == s_full2
    assert s_sub == {i for i in s_full if i < 100}
    # different salt ⇒ different (here: not identical) sample
    s_other = set(sample_by_hash_ds(full, rate_pct=20, salt="other").to_pandas()["doc_id"])
    assert s_other != s_full
    assert 10 <= len(s_full) <= 80  # ~40 expected, loose envelope


def test_top_terms_per_source(ray_session):
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import top_terms_per_source_ds

    rows = [
        {"doc_id": 0, "source": "a", "text": "x x x y y z"},
        {"doc_id": 1, "source": "a", "text": "y z w"},
        {"doc_id": 2, "source": "b", "text": "m m n"},
    ]
    out = top_terms_per_source_ds(rd.from_items(rows), k=2).to_pandas()
    a = out[out["source"] == "a"].sort_values("rank")
    assert list(a["term"]) == ["x", "y"] and list(a["tf"]) == [3, 3]  # tie → term asc
    b = out[out["source"] == "b"].sort_values("rank")
    assert list(b["term"]) == ["m", "n"]


def test_doclen_quantiles_exact(ray_session):
    """percentile_disc semantics (rank = max(1, ceil(p·N)), 1-based)
    over a known multiset — matches DuckDB (pinned in test_entry_oracle)."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import doclen_quantiles

    # token counts: 1,2,3,...,10 (one doc each)
    rows = [{"doc_id": i, "text": " ".join(["w"] * i)} for i in range(1, 11)]
    out = doclen_quantiles(rd.from_items(rows), ps=(0.1, 0.5, 0.55, 1.0)).to_pandas()
    got = dict(zip(out["p"], out["n_tokens"]))
    assert got == {0.1: 1, 0.5: 5, 0.55: 6, 1.0: 10}


def test_quality_stage_vectorized_matches_reference(ray_session):
    """The vectorized quality stage must be value-identical to the
    per-row definition (mean token length, distinct terms)."""
    import pyarrow as pa

    from search_engine_skillbox_ray.functions.tokenize import tokenize
    from search_engine_skillbox_ray.pipelines.textstats import quality_stage

    texts = [
        "The quick brown fox; the quick dog!",
        "",
        "   ",
        "a aa aaa a aa",
        "Ёжик в тумане — ёжик",
    ]
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
    out = quality_stage(batch).to_pandas()
    for i, s in enumerate(texts):
        toks = [t for t in tokenize(s) if t]
        assert out.loc[i, "n_tokens"] == len(toks)
        assert out.loc[i, "n_unique_terms"] == len(set(toks))
        expect = float(np.mean([len(w) for w in toks])) if toks else 0.0
        assert abs(out.loc[i, "avg_token_len"] - round(expect, 6)) < 1e-9
        assert out.loc[i, "text_len"] == len(s)


def test_asof_prev_event(ray_session):
    """Previous-row (as-of) join semantics: per user, each event pairs
    with its immediate predecessor in (ts, event_id) order; first event
    per user emits nothing; ties order by event_id."""
    import pandas as pd
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.windows import asof_prev_event

    base = pd.Timestamp("2024-01-01")
    rows = [
        {"event_id": 1, "user_id": 7, "ts": base, "value": 1.0},
        {"event_id": 2, "user_id": 7, "ts": base + pd.Timedelta(seconds=5), "value": 2.0},
        {"event_id": 3, "user_id": 7, "ts": base + pd.Timedelta(seconds=5), "value": 3.0},  # tie with 2
        {"event_id": 4, "user_id": 8, "ts": base, "value": 9.0},  # singleton user
        {"event_id": 5, "user_id": 9, "ts": base + pd.Timedelta(seconds=1), "value": 4.0},
        {"event_id": 6, "user_id": 9, "ts": base, "value": 5.0},  # out of order input
    ]
    out = (
        asof_prev_event(rd.from_pandas(pd.DataFrame(rows)))
        .to_pandas()
        .set_index("event_id")
        .sort_index()
    )
    assert set(out.index) == {2, 3, 5}
    assert out.loc[2, "prev_event_id"] == 1 and out.loc[2, "gap_us"] == 5_000_000
    assert out.loc[3, "prev_event_id"] == 2 and out.loc[3, "gap_us"] == 0  # tiebreak
    assert out.loc[5, "prev_event_id"] == 6 and out.loc[5, "prev_value"] == 5.0


def test_funnel_counts_ordering(ray_session):
    """Funnel semantics: steps count only when performed strictly in
    order (per user, earliest-completion chaining); out-of-order or
    missing steps stop the chain; ties break by event_id."""
    import pandas as pd
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.windows import funnel_counts

    base = pd.Timestamp("2024-01-01")

    def ev(eid, uid, secs, typ):
        return {"event_id": eid, "user_id": uid,
                "ts": base + pd.Timedelta(seconds=secs), "event_type": typ}

    rows = [
        # u1 completes A→B→C in order
        ev(1, 1, 0, "a"), ev(2, 1, 10, "b"), ev(3, 1, 20, "c"),
        # u2 does B before A, then no B after A → stops at step 1
        ev(4, 2, 0, "b"), ev(5, 2, 10, "a"), ev(6, 2, 20, "c"),
        # u3 reaches step 2 only
        ev(7, 3, 0, "a"), ev(8, 3, 5, "b"),
        # u4 same-ts tie: a (id 9) then b (id 10) at the same ts — the
        # chain needs pos STRICTLY after, so the tie still counts b
        ev(9, 4, 0, "a"), ev(10, 4, 0, "b"),
        # u5 never starts
        ev(11, 5, 0, "c"),
    ]
    out = funnel_counts(
        rd.from_pandas(pd.DataFrame(rows)), steps=("a", "b", "c")
    ).to_pandas().set_index("step")
    assert out.loc[1, "n_users"] == 4     # u1 u2 u3 u4
    assert out.loc[2, "n_users"] == 3     # u1 u3 u4 (u2 has no b after a)
    assert out.loc[3, "n_users"] == 1     # u1 only
    assert list(out["event_type"]) == ["a", "b", "c"]


def test_follow_within_range_join(ray_session):
    """Range-join semantics: follows strictly after the anchor, within
    the window inclusive; zero rows kept; multi-anchor users correct."""
    import pandas as pd
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.windows import follow_within

    b = pd.Timestamp("2024-01-01")
    S = lambda s: b + pd.Timedelta(seconds=s)
    rows = [
        {"event_id": 1, "user_id": 1, "ts": S(0), "event_type": "signup", "value": 0.0},
        {"event_id": 2, "user_id": 1, "ts": S(0), "event_type": "purchase", "value": 5.0},   # NOT after (strict)
        {"event_id": 3, "user_id": 1, "ts": S(10), "event_type": "purchase", "value": 7.0},  # in
        {"event_id": 4, "user_id": 1, "ts": S(60), "event_type": "purchase", "value": 9.0},  # boundary: in (inclusive)
        {"event_id": 5, "user_id": 1, "ts": S(61), "event_type": "purchase", "value": 11.0}, # out
        {"event_id": 6, "user_id": 1, "ts": S(50), "event_type": "signup", "value": 0.0},    # 2nd anchor
        {"event_id": 7, "user_id": 2, "ts": S(5), "event_type": "signup", "value": 0.0},     # no follows
        {"event_id": 8, "user_id": 3, "ts": S(5), "event_type": "purchase", "value": 1.0},   # no anchor
        {"event_id": 9, "user_id": 1, "ts": S(20), "event_type": "click", "value": 99.0},    # other type
    ]
    out = (
        follow_within(rd.from_pandas(pd.DataFrame(rows)), within_s=60)
        .to_pandas()
        .set_index("event_id")
        .sort_index()
    )
    assert set(out.index) == {1, 6, 7}
    assert out.loc[1, "n_follow"] == 2 and out.loc[1, "sum_value"] == 16.0  # 7+9
    assert out.loc[6, "n_follow"] == 2 and out.loc[6, "sum_value"] == 20.0  # 9+11
    assert out.loc[7, "n_follow"] == 0 and out.loc[7, "sum_value"] == 0.0


def test_bpe_token_count(ray_session):
    """BPE-ish pre-token counts: contractions split, leading space glues
    to the word, digit runs and punctuation are their own tokens."""
    import pyarrow as pa

    from search_engine_skillbox_ray.pipelines.textstats import bpe_token_count_stage

    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(["don't stop", "a1b2", ""], pa.string()),
        }
    )
    out = bpe_token_count_stage(batch).to_pandas()
    # don / 't / " stop" = 3 ; a / 1 / b / 2 = 4 ; "" = 0
    assert list(out["n_bpe_tokens"]) == [3, 4, 0]


def test_repetition_signals(ray_session):
    """Planted repetition: a looping doc, a keyword-stuffed doc, a
    no-repeat doc, an empty doc and a one-token doc — fractions match a
    hand-derived reference."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import repetition_ds

    rows = [
        # "ab ab ab ab": 4 tokens (all 'ab'), 3 bigrams all duplicated
        {"doc_id": 0, "text": "ab ab ab ab"},
        # stuffed: 'spam' 5/8 tokens; bigrams all distinct except
        # 'spam spam' x4 -> 7 bigrams, dup run 'spam spam' has 4 >= 2
        {"doc_id": 1, "text": "spam spam spam spam spam one two three"},
        {"doc_id": 2, "text": "every word here is fully distinct"},
        {"doc_id": 3, "text": ""},
        {"doc_id": 4, "text": "lonely"},
    ]
    out = (
        repetition_ds(rd.from_items(rows))
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    assert out.loc[0, "n_tokens"] == 4
    assert out.loc[0, "top_token_frac"] == 1.0
    assert out.loc[0, "n_bigrams"] == 3
    assert out.loc[0, "dup_bigram_frac"] == 1.0
    assert out.loc[1, "top_token_frac"] == 5 / 8
    assert out.loc[1, "n_bigrams"] == 7
    assert out.loc[1, "dup_bigram_frac"] == 4 / 7
    assert out.loc[2, "dup_bigram_frac"] == 0.0
    assert out.loc[2, "top_token_frac"] == 1 / 6
    assert out.loc[3, "n_tokens"] == 0
    assert out.loc[3, "top_token_frac"] == 0.0
    assert out.loc[4, "n_tokens"] == 1
    assert out.loc[4, "n_bigrams"] == 0
    assert out.loc[4, "dup_bigram_frac"] == 0.0


def test_term_bigrams_counts(ray_session):
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import term_bigrams_ds

    rows = [
        {"doc_id": 0, "text": "a b a b"},
        {"doc_id": 1, "text": "b a"},
        {"doc_id": 2, "text": ""},
        {"doc_id": 3, "text": "c"},
    ]
    out = term_bigrams_ds(rd.from_items(rows)).to_pandas()
    got = {(r.term_a, r.term_b): r.cnt for r in out.itertuples()}
    # doc0: (a,b) (b,a) (a,b); doc1: (b,a) — bigrams never cross docs
    assert got == {("a", "b"): 2, ("b", "a"): 2}


def test_stratified_sample_bottomk(ray_session):
    """Partial-per-batch + bucketed reduce == global per-source bottom-k
    by hash; deterministic across block layouts; rank unique within
    source."""
    import ray.data as rd

    from search_engine_skillbox_ray.functions.hashing import md5_u64
    from search_engine_skillbox_ray.pipelines.textstats import stratified_sample_ds

    rows = [
        {"doc_id": i, "source": f"s{i % 3}", "text": "x"} for i in range(100)
    ]
    ds1 = rd.from_items(rows).repartition(7)
    ds2 = rd.from_items(rows).repartition(1)
    k, salt = 4, "t-strat"
    out1 = (
        stratified_sample_ds(ds1, k=k, salt=salt)
        .to_pandas()
        .sort_values(["source", "rank"])
        .reset_index(drop=True)
    )
    out2 = (
        stratified_sample_ds(ds2, k=k, salt=salt)
        .to_pandas()
        .sort_values(["source", "rank"])
        .reset_index(drop=True)
    )
    assert out1.equals(out2)
    # reference: global bottom-k by (hash, doc_id) per source
    import numpy as np

    for s in ("s0", "s1", "s2"):
        ids = np.array([r["doc_id"] for r in rows if r["source"] == s])
        h = md5_u64([f"{i}:{salt}" for i in ids.tolist()])
        order = np.lexsort((ids, h))
        expect = ids[order][:k].tolist()
        got = out1[out1["source"] == s]["doc_id"].tolist()
        assert got == expect
        assert out1[out1["source"] == s]["rank"].tolist() == [1, 2, 3, 4]


def test_snapshot_delta_anti_join(ray_session):
    """Docs whose content (modulo formatting) already exists in the
    snapshot are NOT new; only genuinely new content survives."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.dedup import new_docs_vs_snapshot

    snapshot = rd.from_items(
        [
            {"doc_id": 0, "text": "alpha beta gamma"},
            {"doc_id": 2, "text": "delta epsilon"},
        ]
    )
    current = rd.from_items(
        [
            {"doc_id": 11, "text": "alpha beta gamma"},      # exact re-crawl
            {"doc_id": 13, "text": "  ALPHA, beta?? gamma "},  # layout noise
            {"doc_id": 15, "text": "completely new content"},
            {"doc_id": 17, "text": "delta epsilon zeta"},      # extended = new
        ]
    )
    out = new_docs_vs_snapshot(current, snapshot).to_pandas()
    assert sorted(out["doc_id"].tolist()) == [15, 17]


def test_anchor_terms(ray_session):
    """Anchor extraction: nested markup inside <a>, external links
    filtered, per-page first-occurrence dedup; counts aggregate across
    pages."""
    import ray.data as rd

    from search_engine_skillbox_ray.functions.links import (
        anchor_terms_ds,
        extract_anchors,
    )

    html = (
        '<html><body>'
        '<a href="/target"><b>Click</b> here now</a>'
        '<a href="/target">second anchor same dst ignored</a>'
        '<a href="https://other.example/x">external gone</a>'
        '<a href="/other">more link</a>'
        "</body></html>"
    )
    got = extract_anchors(html, "https://a.example/p/0", "https://a.example")
    assert got == [
        ("https://a.example/target", "Click here now"),
        ("https://a.example/other", "more link"),
    ]

    pages = rd.from_items(
        [
            {"url": "https://a.example/p/0", "html": html, "warc_ts": 0},
            {"url": "https://a.example/p/1", "html": '<a href="/target">click</a>', "warc_ts": 0},
        ]
    )
    sites = [{"site_id": 0, "url": "https://a.example", "name": "A"}]
    out = anchor_terms_ds(pages, sites).to_pandas()
    got = {(r.dst_url, r.term): r.cnt for r in out.itertuples()}
    assert got[("https://a.example/target", "click")] == 2
    assert got[("https://a.example/target", "here")] == 1
    assert got[("https://a.example/other", "more")] == 1


def test_export_quality_corpus_resume(ray_session, tmp_path):
    """Gates bind, written partitions contain exactly the survivors,
    markers make re-runs skip finished partitions (mtimes unchanged),
    and a changed input_token rewrites."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.export import export_quality_corpus

    rows = [
        {"doc_id": 0, "source": "a", "text": " ".join(f"w{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(40))},
        {"doc_id": 1, "source": "a", "text": "short doc"},                   # < min_tokens
        {"doc_id": 2, "source": "b", "text": "loop loop " * 20},             # dup bigrams
        {"doc_id": 3, "source": "b", "text": " ".join(f"x{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(35))},
    ]
    out = tmp_path / "exp"
    docs = rd.from_items(rows)
    res = export_quality_corpus(docs, str(out), min_tokens=30,
                                max_dup_bigram_frac=0.5, input_token="t1")
    got = dict(zip(res["source"], res["n_docs"]))
    assert got == {"a": 1, "b": 1}
    pa_a = pq.read_table(out / "source=a" / "part-0.parquet")
    assert pa_a["doc_id"].to_pylist() == [0]
    pa_b = pq.read_table(out / "source=b" / "part-0.parquet")
    assert pa_b["doc_id"].to_pylist() == [3]
    mt = {
        p: (out / f"source={p}" / "part-0.parquet").stat().st_mtime_ns
        for p in ("a", "b")
    }
    # resume: same token -> no rewrite, same counts
    res2 = export_quality_corpus(docs, str(out), min_tokens=30,
                                 max_dup_bigram_frac=0.5, input_token="t1")
    assert dict(zip(res2["source"], res2["n_docs"])) == got
    for p in ("a", "b"):
        assert (out / f"source={p}" / "part-0.parquet").stat().st_mtime_ns == mt[p]
    # new token -> rewrite
    res3 = export_quality_corpus(docs, str(out), min_tokens=30,
                                 max_dup_bigram_frac=0.5, input_token="t2")
    assert dict(zip(res3["source"], res3["n_docs"])) == got
    assert (out / "source=a" / "part-0.parquet").stat().st_mtime_ns != mt["a"]


def test_doc_keywords_topk(ray_session):
    """tf·idf ordering with term-ascending ties; rank contiguity; rare
    terms outrank common ones at equal tf."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import doc_keywords_ds

    rows = [
        {"doc_id": 0, "text": "common rare common unique"},
        {"doc_id": 1, "text": "common common common"},
        {"doc_id": 2, "text": "common zeta alpha"},  # tie between zeta/alpha
    ]
    out = doc_keywords_ds(rd.from_items(rows), k=2).to_pandas()
    d0 = out[out["doc_id"] == 0].sort_values("rank")
    # 'common' df=3 (idf smallest); rare/unique df=1 → top-2 are the rares
    assert set(d0["term"]) == {"rare", "unique"}
    d2 = out[out["doc_id"] == 2].sort_values("rank")
    # zeta and alpha have identical tf=1, df=1 → tie broken term-asc
    assert d2["term"].tolist() == ["alpha", "zeta"]
    assert d2["rank"].tolist() == [1, 2]


def test_label_centroids_matches_numpy(ray_session):
    """Partial-sum reduce == whole-corpus numpy mean per label,
    independent of block layout."""
    import numpy as np
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.ann import label_centroids

    rng = np.random.default_rng(7)
    n, dim = 200, 8
    labels = rng.integers(0, 3, n)
    vecs = rng.standard_normal((n, dim)).astype(np.float32)
    rows = [
        {"vec_id": i, "embedding": vecs[i].tolist(), "label": int(labels[i])}
        for i in range(n)
    ]
    out = (
        label_centroids(rd.from_items(rows).repartition(5))
        .to_pandas()
        .sort_values(["label", "dim"])
        .reset_index(drop=True)
    )
    assert len(out) == 3 * dim
    for lb in range(3):
        ref = vecs[labels == lb].astype(np.float64).mean(axis=0)
        got = out[out["label"] == lb]["centroid"].to_numpy()
        assert np.allclose(got, np.round(ref, 6), atol=1e-6)


def test_bigram_pmi_reference(ray_session):
    """PMI matches a hand-computed reference on a planted corpus;
    min_cnt gates."""
    import math

    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import bigram_pmi_ds

    # doc0 has 5 in-doc bigrams, doc1 has 1: T_uni=8, T_bi=6
    rows = [
        {"doc_id": 0, "text": "aa bb aa bb aa bb"},
        {"doc_id": 1, "text": "aa cc"},
    ]
    out = bigram_pmi_ds(rd.from_items(rows), min_cnt=3).to_pandas()
    assert len(out) == 1  # only (aa,bb) reaches cnt>=3
    r = out.iloc[0]
    assert (r["term_a"], r["term_b"], r["cnt"]) == ("aa", "bb", 3)
    t_uni, t_bi, ca, cb = 8.0, 6.0, 4.0, 3.0
    expect = math.log((3 / t_bi) / ((ca / t_uni) * (cb / t_uni)))
    assert abs(r["pmi"] - round(expect, 6)) < 1e-9


def test_centroid_confusion_diagonal(ray_session):
    """Well-separated clusters classify onto the diagonal; counts sum
    to the corpus size."""
    import numpy as np
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.ann import centroid_confusion

    rng = np.random.default_rng(3)
    rows = []
    for i in range(120):
        lb = i % 3
        v = rng.standard_normal(8) * 0.05
        v[lb] += 10.0  # tight, far-apart clusters
        rows.append({"vec_id": i, "embedding": v.astype(np.float32).tolist(), "label": lb})
    out = centroid_confusion(rd.from_items(rows).repartition(4)).to_pandas()
    assert int(out["cnt"].sum()) == 120
    diag = out[out["label"] == out["pred_label"]]["cnt"].sum()
    assert diag == 120  # perfectly separable


def test_source_divergence_properties(ray_session):
    """JSD in [0, ln 2]; identical sources -> 0; disjoint vocab sources
    -> higher; matches a scipy-free reference."""
    import math

    import numpy as np
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import source_divergence_ds

    rows = (
        [{"doc_id": i, "source": "same", "text": "alpha beta gamma"} for i in range(5)]
        + [{"doc_id": 10 + i, "source": "mixed", "text": "alpha beta gamma delta"} for i in range(5)]
        + [{"doc_id": 20 + i, "source": "other", "text": "zeta eta theta"} for i in range(5)]
    )
    out = source_divergence_ds(rd.from_items(rows)).to_pandas().set_index("source")
    assert (out["jsd"] >= 0).all() and (out["jsd"] <= math.log(2) + 1e-9).all()
    # 'other' shares no vocabulary with the rest -> largest divergence
    assert out.loc["other", "jsd"] > out.loc["mixed", "jsd"]
    assert out.loc["other", "jsd"] > out.loc["same", "jsd"]
    assert out.loc["other", "n_terms"] == 3
    # reference for 'same': p over {alpha,beta,gamma,delta,zeta,eta,theta}
    cnt = {"alpha": 10, "beta": 10, "gamma": 10, "delta": 5, "zeta": 5, "eta": 5, "theta": 5}
    tg = sum(cnt.values())
    p = {t: (5 if t in ("alpha", "beta", "gamma") else 0) / 15.0 for t in cnt}
    jsd = 0.0
    for t, cg in cnt.items():
        q = cg / tg
        m = (p[t] + q) / 2.0
        if p[t] > 0:
            jsd += 0.5 * p[t] * math.log(p[t] / m)
        jsd += 0.5 * q * math.log(q / m)
    assert abs(out.loc["same", "jsd"] - round(jsd, 6)) < 1e-9


def test_event_transitions_reference(ray_session):
    """Transition counts match a hand trace; cross-user pairs excluded;
    ties ordered by (ts, event_id)."""
    from datetime import datetime

    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.windows import event_transitions

    t0 = datetime(2026, 1, 1)

    def ev(eid, uid, typ, sec):
        return {
            "event_id": eid, "user_id": uid, "event_type": typ,
            "ts": datetime(2026, 1, 1, 0, 0, sec), "value": 1.0,
        }

    rows = [
        ev(1, 1, "view", 0), ev(2, 1, "cart", 10), ev(3, 1, "buy", 20),
        ev(4, 2, "view", 5), ev(5, 2, "view", 6),
        # same-timestamp tie for user 3: event_id breaks it (6 before 7)
        ev(6, 3, "a", 0), ev(7, 3, "b", 0),
        ev(8, 4, "solo", 0),
    ]
    out = event_transitions(rd.from_items(rows)).to_pandas()
    got = {(r.type_a, r.type_b): r.cnt for r in out.itertuples()}
    assert got == {
        ("view", "cart"): 1, ("cart", "buy"): 1,
        ("view", "view"): 1, ("a", "b"): 1,
    }


def test_export_tokenless_rewrites_and_cleans_stale(ray_session, tmp_path):
    """Review findings: (a) with input_token=None a changed corpus must
    be re-exported, not stale-skipped; (b) sources absent from the new
    run are removed from out_dir."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.export import export_quality_corpus

    def mk(src, n, tag):
        return [
            {
                "doc_id": i,
                "source": src,
                "text": " ".join(f"{tag}{chr(97 + j % 26)}{chr(97 + j // 26)}" for j in range(40)),
            }
            for i in range(n)
        ]

    out = tmp_path / "exp"
    v1 = rd.from_items(mk("a", 4, "w") + mk("b", 3, "x"))
    r1 = export_quality_corpus(v1, str(out), min_tokens=30, max_dup_bigram_frac=0.9)
    assert dict(zip(r1["source"], r1["n_docs"])) == {"a": 4, "b": 3}
    # changed corpus, still no token: must rewrite, and source=b must go
    v2 = rd.from_items(mk("a", 2, "w"))
    r2 = export_quality_corpus(v2, str(out), min_tokens=30, max_dup_bigram_frac=0.9)
    assert dict(zip(r2["source"], r2["n_docs"])) == {"a": 2}
    import pyarrow.parquet as pq

    assert len(pq.read_table(out / "source=a" / "part-0.parquet")) == 2
    assert not (out / "source=b").exists()


def test_bigram_pmi_empty_corpus(ray_session):
    """Review finding: no adjacent bigrams anywhere must yield an empty
    result, not a TypeError from sum() returning None."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import bigram_pmi_ds

    docs = rd.from_items([{"doc_id": 0, "text": "solo"}, {"doc_id": 1, "text": ""}])
    out = bigram_pmi_ds(docs)
    assert out.count() == 0  # empty result, not a TypeError


def test_winnow_guarantee_and_density(ray_session):
    """Winnowing guarantee: two docs sharing a run of >= k + w - 1
    tokens share at least one fingerprint VALUE; per-doc density is at
    most 1 selection per window start."""
    import pyarrow as pa

    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.dedup import winnow_fingerprints_ds

    k, w = 5, 4
    shared = "alpha beta gamma delta epsilon zeta eta theta"  # 8 >= k+w-1
    docs = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "text": pa.array(
                [
                    "one two three " + shared + " four five",
                    shared + " nine ten eleven twelve",
                    "unrelated words only here nothing matches at all",
                ],
                pa.string(),
            ),
        }
    )
    fp = winnow_fingerprints_ds(rd.from_arrow(docs), k=k, w=w).to_pandas()
    by_doc = {d: set(g["fingerprint"]) for d, g in fp.groupby("doc_id")}
    assert by_doc[0] & by_doc[1], "shared run must share a fingerprint"
    assert not (by_doc[0] & by_doc[2]) and not (by_doc[1] & by_doc[2])
    # selections are distinct positions, bounded by #windows
    for d, g in fp.groupby("doc_id"):
        assert g["pos"].is_unique


def test_pq_codes_and_topk(ray_session):
    """PQ codes: one code per (vector, subspace) in range; PQ-ADC top-k:
    rank-0 self-hit for every query, recall@10 grows with the rerank
    depth, and mean recall@10 >= 0.5 at rerank=128 — the synthetic
    embeddings are near-uniform (no cluster structure), the worst case
    for PQ distortion, so the floor is deliberately modest."""
    import numpy as np

    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.ann import (
        brute_force_topk,
        pq_codes_ds,
        pq_topk,
    )

    emb = rd.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    codes = pq_codes_ds(emb, m=4, ksub=16, train_sample=2048, seed=42).to_pandas()
    n_vec = emb.count()
    assert len(codes) == n_vec * 4
    assert codes["code"].between(0, 15).all()
    assert codes.groupby("vec_id")["sub"].nunique().eq(4).all()

    rows = emb.filter(expr="vec_id < 5").take_all()
    rows.sort(key=lambda r: r["vec_id"])
    queries = np.array([r["embedding"] for r in rows], dtype=np.float64)
    exact = brute_force_topk(emb, queries, k=10).to_pandas()
    means = {}
    for rr in (64, 128):
        approx = pq_topk(emb, queries, k=10, m=4, ksub=16, rerank=rr, seed=42).to_pandas()
        recalls = []
        for qi in range(5):
            a = approx[approx.query_id == qi]
            e = exact[exact.query_id == qi]
            # the query vector itself is in the corpus: must be rank 0
            assert a.iloc[0]["vec_id"] == qi and a.iloc[0]["rank"] == 0
            recalls.append(len(set(a.vec_id) & set(e.vec_id)) / len(e))
        means[rr] = sum(recalls) / len(recalls)
    assert means[128] >= means[64]  # deeper rerank can only help
    assert means[128] >= 0.5, means


def test_pack_and_rank_bucket_invariance(ray_session):
    """pack_sequences and doc_rank produce identical tables at 1 bucket
    (single-reducer) and 64 buckets (fully bucketed prefix/rank scan)."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import (
        doc_rank_by_len_ds,
        pack_sequences_ds,
    )

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    for fn, kw in ((pack_sequences_ds, {"seq_len": 64}), (doc_rank_by_len_ds, {})):
        a = fn(docs, n_buckets=1, **kw).to_pandas().sort_values("doc_id").reset_index(drop=True)
        b = fn(docs, n_buckets=64, **kw).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert a.equals(b), fn.__name__


def test_decontaminate_empty_probes(ray_session):
    """No probes → every doc reports zero hits but real window totals."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.dedup import decontaminate_stats

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    df = decontaminate_stats(docs, [], k=5).to_pandas()
    assert (df.n_hit_windows == 0).all() and (df.hit_fraction == 0.0).all()
    assert df.n_windows.sum() > 0 and len(df) == 500


def test_doc_chunks_cover_exactly_at_full_stride(ray_session):
    """stride == chunk_len → chunks partition each doc's token stream:
    joined chunk texts reproduce the tokenized doc."""
    import pyarrow as pa

    import ray.data as rd

    from search_engine_skillbox_ray.functions.tokenize import tokenize
    from search_engine_skillbox_ray.pipelines.textstats import doc_chunks_ds

    texts = ["alpha beta gamma delta epsilon", "one two", "", "x y z w v u t s q"]
    docs = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    df = doc_chunks_ds(rd.from_arrow(docs), chunk_len=4, stride=4).to_pandas()
    for i, text in enumerate(texts):
        toks = tokenize(text)
        g = df[df.doc_id == i].sort_values("chunk_id")
        joined = " ".join(g.chunk_text)
        assert joined == " ".join(toks), i
        assert g.n_tokens.sum() == len(toks)


def test_window_users_cross_block_distinct(ray_session):
    """The same user split across input blocks is counted ONCE per
    window — the cross-batch distinct the combiner alone can't do."""
    import numpy as np
    import pyarrow as pa

    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.windows import window_distinct_users

    n = 100
    t0 = 1_700_000_000_000_000  # µs epoch, one hour window
    events = pa.table(
        {
            "ts": pa.array(
                np.full(n, t0, np.int64) + np.arange(n), pa.timestamp("us")
            ),
            "user_id": pa.array(np.arange(n) % 3, pa.int64()),
        }
    )
    ds = rd.from_arrow(events).repartition(5)
    df = window_distinct_users(ds, window_s=3600).to_pandas()
    assert len(df) == 1
    assert int(df.n_events.iloc[0]) == n
    assert int(df.n_users.iloc[0]) == 3


def test_levenshtein_kernel_matches_reference():
    """Vectorized batch Levenshtein equals the textbook per-pair DP,
    including empty strings, Cyrillic, and padded-width batches."""
    import numpy as np

    from search_engine_skillbox_ray.pipelines.textstats import _levenshtein_batch

    def lev(a, b):
        D = list(range(len(b) + 1))
        for i in range(1, len(a) + 1):
            prev, D[0] = D[0], i
            for j in range(1, len(b) + 1):
                cur = D[j]
                D[j] = min(D[j] + 1, D[j - 1] + 1, prev + (a[i - 1] != b[j - 1]))
                prev = cur
        return D[len(b)]

    words = ["", "a", "table", "tabel", "мрежа", "мерге", "scan", "scann",
             "abcdefgh", "bcd", "aaaa", "baaa"]
    arr = np.asarray(words, dtype="U")
    lens = np.array([len(w) for w in words], np.int64)
    for q in ["tabel", "мрге", "", "scan", "aaa"]:
        got = _levenshtein_batch(arr, lens, q).tolist()
        assert got == [lev(q, w) for w in words], q


def test_embedding_covariance_vs_numpy(ray_session):
    """Distributed Gram pass equals np.cov(bias=True) across a
    multi-block layout."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.ann import embedding_covariance

    rng = np.random.default_rng(9)
    v = rng.standard_normal((200, 8)).astype(np.float32)
    ds = rd.from_arrow(
        pa.table({"vec_id": pa.array(range(200), pa.int64()),
                  "embedding": pa.array([r.tolist() for r in v],
                                        pa.list_(pa.float32()))})
    ).repartition(5)
    out = embedding_covariance(ds).to_pandas()
    ref = np.cov(v.astype(np.float64), rowvar=False, bias=True)
    assert len(out) == 8 * 9 // 2
    for _, r in out.iterrows():
        assert abs(r["cov"] - ref[int(r["i"]), int(r["j"])]) < 1e-6


def test_facet_counts_empty_result_set(ray_session):
    """An empty result set yields zero facet rows — `&` does not
    short-circuit, so the broadcast lookup must early-return instead of
    fancy-indexing an empty sorted array (ADVICE regression)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import facet_counts_ds

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "source": pa.array(["a", "b", "a"]),
            }
        )
    )
    out = facet_counts_ds(ds, np.array([], np.int64), np.array([], np.float64))
    assert out.schema().names == ["source", "n_docs", "sum_score"]
    assert out.count() == 0


def test_time_range_join_boundaries(ray_session):
    """Keyless time-range join: followers exactly at t are EXCLUDED,
    exactly at t+W INCLUDED, and matches work across the replication
    bucket boundary (follower in bucket b+1 of an anchor in b)."""
    import pandas as pd
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.windows import time_range_join

    W = 100  # seconds
    base = np.int64(1_700_000_000_000_000)  # epoch us

    def ev(eid, off_s, etype, val=1.0):
        return {
            "event_id": eid,
            "ts": pd.Timestamp(base + np.int64(off_s * 1_000_000), unit="us"),
            "user_id": eid % 3,
            "event_type": etype,
            "value": float(val),
        }

    rows = [
        ev(1, 10, "signup"),          # window (10, 110]
        ev(2, 10, "click", 5.0),      # AT anchor ts -> excluded
        ev(3, 110, "click", 7.0),     # AT t+W -> included
        ev(4, 111, "click", 9.0),     # just past -> excluded
        ev(5, 95, "signup"),          # window (95, 195] crosses bucket edge
        ev(6, 150, "click", 2.0),     # bucket b+1 of anchor 5; also in 1's? 150>110 no
        ev(7, 400, "signup"),         # no followers
    ]
    ds = rd.from_pandas(pd.DataFrame(rows))
    out = (
        time_range_join(ds, "signup", "click", within_s=W)
        .to_pandas()
        .set_index("event_id")
        .sort_index()
    )
    assert out.loc[1, "n_follow"] == 1 and out.loc[1, "sum_value"] == 7.0
    # clicks at 110 (7.0), 111 (9.0) and 150 (2.0) all lie in (95, 195]
    assert out.loc[5, "n_follow"] == 3 and out.loc[5, "sum_value"] == 18.0
    assert out.loc[7, "n_follow"] == 0 and out.loc[7, "sum_value"] == 0.0
    assert len(out) == 3


def test_time_range_join_matches_bruteforce(ray_session):
    """Random events: bucket-replication result == O(n^2) reference."""
    import pandas as pd
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.windows import time_range_join

    rng = np.random.default_rng(7)
    n = 400
    base = np.int64(1_700_000_000_000_000)
    ts = base + rng.integers(0, 3_600_000_000, n)  # 1h span, us
    types = rng.choice(["signup", "click", "view"], n)
    vals = np.round(rng.uniform(0, 10, n), 3)
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime(ts, unit="us"),
            "user_id": rng.integers(0, 5, n),
            "event_type": types,
            "value": vals,
        }
    )
    W = 120
    out = (
        time_range_join(rd.from_pandas(df), "signup", "click", within_s=W)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    a = df[df.event_type == "signup"]
    f = df[df.event_type == "click"]
    at = a.ts.astype("int64").to_numpy() // 1000  # ns -> us
    ft = f.ts.astype("int64").to_numpy() // 1000
    exp_n, exp_s = [], []
    for t in at:
        m = (ft > t) & (ft <= t + W * 1_000_000)
        exp_n.append(int(m.sum()))
        exp_s.append(round(float(f.value.to_numpy()[m].sum()), 6))
    assert (out.n_follow.to_numpy() == np.array(exp_n)).all()
    assert np.allclose(out.sum_value.to_numpy(), np.array(exp_s), atol=1e-6)


def test_user_moving_avg_matches_pandas(ray_session):
    """Per-user trailing moving average == pandas rolling(min_periods=1)."""
    import pandas as pd
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.windows import user_moving_avg

    rng = np.random.default_rng(11)
    n = 300
    base = np.int64(1_700_000_000_000_000)
    df = pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.to_datetime(base + rng.integers(0, 10**9, n), unit="us"),
            "user_id": rng.integers(0, 7, n),
            "value": np.round(rng.uniform(0, 100, n), 3),
        }
    )
    out = (
        user_moving_avg(rd.from_pandas(df), window=3)
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    ref = (
        df.sort_values(["user_id", "ts", "event_id"])
        .assign(
            mov_avg=lambda d: d.groupby("user_id")["value"]
            .rolling(3, min_periods=1)
            .mean()
            .to_numpy()
        )
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert np.allclose(out.mov_avg.to_numpy(), np.round(ref.mov_avg.to_numpy(), 6), atol=1e-6)


def test_nb_classify_separable(ray_session):
    """Two clearly-separable vocabularies: NB recovers the source of
    every held-out doc; zero-token holdout docs still get a row."""
    import pandas as pd
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.selection import nb_classify

    rows = []
    for i in range(40):
        src = "alpha" if i % 2 == 0 else "beta"
        text = ("apple orange pear " if src == "alpha" else "stone iron copper ") * 4
        rows.append({"doc_id": i, "text": text, "source": src})
    rows.append({"doc_id": 40, "text": "", "source": "alpha"})  # empty holdout
    out = (
        nb_classify(rd.from_pandas(pd.DataFrame(rows)), test_mod=4)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    holdout = [i for i in range(41) if i % 4 == 0]
    assert sorted(out.index) == holdout
    for i in holdout:
        if i == 40:
            continue  # empty doc: prior-only argmax, no vocabulary signal
        want = "alpha" if i % 2 == 0 else "beta"
        assert out.loc[i, "pred_source"] == want
    assert out.loc[40, "pred_source"] in {"alpha", "beta"}


def test_nb_log_weights_equal_duckdb_oracle(docs_ds):
    """The NB fixed-point weights are DuckDB's floor(ln(x)·1e6) on every
    real ratio of the test corpus's model — (c+1)/(tot+V) per (class, term),
    1/(tot+V) and n_c/n_train per class — written with the oracle's SQL
    expressions, so a second libm can no longer move a weight by one at
    a floor boundary."""
    import duckdb

    from search_engine_skillbox_ray.pipelines.selection import nb_log_weights

    con = duckdb.connect()
    con.register("documents", docs_ds.select_columns(["doc_id", "source", "text"]).to_pandas())
    con.execute(
        """
CREATE TABLE m AS
WITH tok AS (SELECT doc_id, unnest(list_filter(regexp_split_to_array(lower(text),
               '[^\\p{L}]+'), x -> x <> '')) AS term FROM documents),
train_docs AS (SELECT doc_id, source FROM documents WHERE doc_id % 4 <> 0),
cnt AS (SELECT d.source, t.term, count(*)::BIGINT AS c
        FROM tok t JOIN train_docs d USING (doc_id) GROUP BY 1, 2),
tot AS (SELECT source, sum(c)::BIGINT AS tot FROM cnt GROUP BY 1),
vocab AS (SELECT count(DISTINCT term)::BIGINT AS v FROM cnt),
ntr AS (SELECT count(*)::BIGINT AS n FROM train_docs),
prior AS (SELECT source, count(*)::BIGINT AS n_c,
            floor(ln(count(*)::DOUBLE / (SELECT n FROM ntr)) * 1000000)::BIGINT AS lp
          FROM train_docs GROUP BY source)
SELECT cnt.source, cnt.c, tot.tot, (SELECT v FROM vocab) AS v, (SELECT n FROM ntr) AS n_train,
       prior.n_c, prior.lp,
       floor(ln((c + 1)::DOUBLE / (tot + (SELECT v FROM vocab))) * 1000000)::BIGINT AS l,
       floor(ln(1.0 / (tot + (SELECT v FROM vocab))) * 1000000)::BIGINT AS l0
FROM cnt JOIN tot USING (source) JOIN prior USING (source)
"""
    )
    m = con.execute("SELECT * FROM m ORDER BY source, c").fetchdf()
    cls = m.drop_duplicates("source")
    assert len(m) > 100 and len(cls) > 1
    lw, l0, prior = nb_log_weights(
        m["c"], m["tot"], cls["tot"], cls["n_c"], int(m["v"].iloc[0]),
        int(m["n_train"].iloc[0]), 1_000_000,
    )
    assert (lw == m["l"].to_numpy()).all()
    assert (l0 == cls["l0"].to_numpy()).all()
    assert (prior == cls["lp"].to_numpy()).all()


def test_sif_embed_shape_and_determinism(ray_session):
    """SIF embeddings: 4 rows per tokenful doc, zero-token docs
    dropped, identical across two runs, and frequency damping makes a
    stopword-heavy doc's norm smaller than a rare-word doc's."""
    import pandas as pd
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import sif_embed_ds

    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "the the the the the the the the",   # all stopword-ish
                "quixotic zephyr",                    # rare terms
                "",                                    # zero tokens
                "the quixotic brown fox",
            ],
        }
    )
    a = sif_embed_ds(rd.from_pandas(docs)).to_pandas()
    b = sif_embed_ds(rd.from_pandas(docs)).to_pandas()
    a = a.sort_values(["doc_id", "dim"]).reset_index(drop=True)
    b = b.sort_values(["doc_id", "dim"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    assert sorted(a.doc_id.unique()) == [0, 1, 3]
    assert (a.groupby("doc_id").size() == 4).all()
    norm = a.groupby("doc_id")["emb"].apply(lambda e: float(np.sqrt((e**2).sum())))
    # 8x 'the' (cf 10/14 of corpus) is damped far below two rare terms
    assert norm[0] < norm[1]


def test_search_passages_planted(ray_session):
    """A planted dense passage outranks a diffuse one; ranking is
    (score desc, doc_id, chunk_id); k truncates."""
    import pandas as pd
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.textstats import search_passages_ds

    filler = "lorem ipsum dolor sit amet consectetur adipiscing elit sed do "
    docs = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                filler * 2 + "merge batch merge batch " + filler,  # dense hit
                filler + "merge " + filler * 3,                     # single hit
                filler * 4,                                          # no hits
            ],
        }
    )
    out = search_passages_ds(
        rd.from_pandas(docs), ["merge", "batch"], k=5, chunk_len=16, stride=8
    ).to_pandas()
    assert len(out) >= 2
    assert out.doc_id.iloc[0] == 0            # dense passage wins
    assert 2 not in set(out.doc_id)           # no-hit doc absent
    assert (out.score.to_numpy()[:-1] >= out.score.to_numpy()[1:]).all()


def test_unimax_waterfill_caps_and_budget(ray_session):
    """UniMax plan: small sources cap at max_epochs, the remainder
    waterfills equally, and total allocation never exceeds the budget
    (exhausts it when caps allow)."""
    import numpy as np
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.selection import unimax_plan_ds

    rows = []
    did = 0
    for src, n_docs, words in (("a", 2, 5), ("b", 4, 50), ("c", 8, 200)):
        for i in range(n_docs):
            rows.append({"doc_id": did, "source": src,
                         "text": " ".join(f"w{j}" for j in range(words))})
            did += 1
    docs = rd.from_items(rows).repartition(3)
    out = unimax_plan_ds(docs, budget_tokens=2000, max_epochs=4)
    out = out.set_index("source")
    # token counts: a=10, b=200, c=1600 → caps 40 / 800 / 6400
    assert out.loc["a", "n_tokens"] == 10 and out.loc["a", "cap_tokens"] == 40
    # source a caps (fair share 2000/3 > 40); epochs == max_epochs
    assert out.loc["a", "epochs"] == 4.0
    total = out["alloc_tokens"].sum()
    assert total <= 2000 + 1e-6
    # budget exhausts: remaining sources can absorb it (c's cap is huge)
    assert abs(total - 2000) < 1e-6
    # c gets the residual equal share, more than b
    assert out.loc["c", "alloc_tokens"] >= out.loc["b", "alloc_tokens"]


def test_curation_pipeline_funnel(ray_session):
    """Curation funnel: stage counts are monotone non-increasing, the
    quality band / exact-dup / near-dup / contamination plants are each
    caught by their stage, and chaining is consistent (n_in of stage
    k+1 == n_out of stage k)."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.curation import curation_pipeline_ds

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    rows = []
    for i in range(30):
        rows.append({"doc_id": i, "text": f"{base} doc{i} " + "filler word " * 5})
    rows.append({"doc_id": 100, "text": "too short"})                  # quality kill
    rows.append({"doc_id": 101, "text": rows[0]["text"]})              # exact dup
    rows.append({"doc_id": 102, "text": rows[1]["text"] + " tail"})    # near dup
    rows.append({"doc_id": 103, "text": rows[2]["text"].replace(
        "doc2", "quantum flux capacitor inverts the polarity field")}) # contaminated
    docs = rd.from_items(rows).repartition(3)
    out = curation_pipeline_ds(
        docs, ["quantum flux capacitor inverts the polarity field"],
        min_tokens=5, max_tokens=100, near_threshold=0.5, decon_k=5,
    ).to_pandas().set_index("stage")
    assert out.loc["quality", "n_in"] == 34
    assert out.loc["quality", "n_out"] == 33          # doc 100 dies
    assert out.loc["exact_dedup", "n_out"] == 32      # doc 101 dies
    assert out.loc["near_dup", "n_out"] <= 31         # doc 102 dies (maybe more)
    assert out.loc["decontaminate", "n_out"] <= out.loc["near_dup", "n_out"] - 1
    # chaining consistency
    stages = ["quality", "exact_dedup", "near_dup", "decontaminate"]
    for a, b in zip(stages, stages[1:]):
        assert out.loc[b, "n_in"] == out.loc[a, "n_out"]
