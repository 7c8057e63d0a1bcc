"""Top-k retrieval.

* ``SearchEngine.topk`` is the first k of the ranking ``search_scores``
  serves: same scorer, mode, site scope and prior, exact doc ids and
  float64 scores.
* The block-max MaxScore (OR) / WAND (AND) kernels of ``stages.wand``
  equal exhaustive scoring over DENSE docIDs. Every id has hi == 0, so
  all cursor seeks, block skips and frontier jumps resolve at the lo
  level of the (hi, lo) order; the md5 ids of ``test_wand128`` put
  nearly every posting in a hi run of its own.
"""

import glob

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engine_skillbox_ray.stages.codec import (
    decode_posting_list_128,
    encode_posting_list_128,
)
from search_engine_skillbox_ray.stages.wand import (
    topk_conjunctive_bmw_128,
    topk_disjunctive_maxscore_128,
)


def tfidf_weight(tfs: np.ndarray, idf: float, docs=None) -> np.ndarray:
    return tfs.astype(np.float64) * idf


def _dense_row(docs: np.ndarray, tfs: np.ndarray) -> dict:
    """128-bit posting payload over dense docIDs (hi == 0 throughout)."""
    return encode_posting_list_128(
        np.zeros(docs.size, np.uint64), docs.astype(np.uint64), tfs
    )


def _ids(docs: list[tuple[int, int]]) -> list[int]:
    assert all(int(hi) == 0 for hi, _ in docs)
    return [int(lo) for _, lo in docs]


def _exhaustive_or(term_rows, k, weight_fn):
    acc: dict[int, float] = {}
    for row, idf in term_rows:
        _, d, t = decode_posting_list_128(row)
        for doc, w in zip(d.tolist(), weight_fn(t, idf).tolist()):
            acc[doc] = acc.get(doc, 0.0) + w
    items = sorted(acc.items(), key=lambda x: (-x[1], x[0]))[:k]
    return [d for d, _ in items], [s for _, s in items]


def _exhaustive_and(term_rows, k, weight_fn):
    sets = []
    acc: dict[int, float] = {}
    for row, idf in term_rows:
        _, d, t = decode_posting_list_128(row)
        sets.append(set(d.tolist()))
        for doc, w in zip(d.tolist(), weight_fn(t, idf).tolist()):
            acc[doc] = acc.get(doc, 0.0) + w
    inter = set.intersection(*sets) if sets else set()
    items = sorted(((d, acc[d]) for d in inter), key=lambda x: (-x[1], x[0]))[:k]
    return [d for d, _ in items], [s for _, s in items]


def _make_terms(rng, n_terms, max_docs, int_weights=True):
    term_rows = []
    for _ in range(n_terms):
        n = int(rng.integers(1, max_docs))
        docs = np.sort(rng.choice(max_docs * 10, size=n, replace=False)).astype(np.int64)
        tfs = rng.integers(1, 40, size=n)
        # integer idf keeps float64 sums exact → order-independent compare
        idf = float(rng.integers(1, 5)) if int_weights else float(rng.uniform(0.2, 3.0))
        term_rows.append((_dense_row(docs, tfs), idf))
    return term_rows


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [1, 5, 37])
def test_maxscore_equivalence_or(seed, k):
    rng = np.random.default_rng(seed)
    term_rows = _make_terms(rng, n_terms=int(rng.integers(1, 6)), max_docs=800)
    got_d, got_s = topk_disjunctive_maxscore_128(term_rows, k, tfidf_weight)
    exp_d, exp_s = _exhaustive_or(term_rows, k, tfidf_weight)
    assert _ids(got_d) == exp_d, seed
    assert got_s.tolist() == pytest.approx(exp_s)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k", [1, 5, 37])
def test_bmw_equivalence_and(seed, k):
    rng = np.random.default_rng(seed + 100)
    # overlapping doc space so intersections are non-trivial
    term_rows = _make_terms(rng, n_terms=int(rng.integers(2, 5)), max_docs=300)
    got_d, got_s = topk_conjunctive_bmw_128(term_rows, k, tfidf_weight)
    exp_d, exp_s = _exhaustive_and(term_rows, k, tfidf_weight)
    assert _ids(got_d) == exp_d, seed
    assert got_s.tolist() == pytest.approx(exp_s)


def test_maxscore_float_weights_close():
    rng = np.random.default_rng(7)
    term_rows = _make_terms(rng, n_terms=4, max_docs=600, int_weights=False)
    got_d, got_s = topk_disjunctive_maxscore_128(term_rows, 20, tfidf_weight)
    exp_d, exp_s = _exhaustive_or(term_rows, 20, tfidf_weight)
    assert _ids(got_d) == exp_d
    assert np.allclose(got_s, exp_s, rtol=1e-12)


def test_empty_and_missing_terms():
    rng = np.random.default_rng(3)
    term_rows = _make_terms(rng, 2, 100)
    empty = ({"df": 0, "block_last_doc_hi": [], "block_last_doc_lo": [],
              "block_max_tf": [], "block_gap_offset": [], "block_tf_offset": [],
              "doc_gaps": b"", "tf_bytes": b""}, 1.0)
    d, s = topk_conjunctive_bmw_128(term_rows + [empty], 10, tfidf_weight)
    assert len(d) == 0 and s.size == 0
    d2, s2 = topk_disjunctive_maxscore_128([empty], 10, tfidf_weight)
    assert len(d2) == 0 and s2.size == 0
    # a missing term drops out of OR: same top-k as without it
    d3, s3 = topk_disjunctive_maxscore_128(term_rows + [empty], 10, tfidf_weight)
    exp_d, exp_s = _exhaustive_or(term_rows, 10, tfidf_weight)
    assert _ids(d3) == exp_d
    assert s3.tolist() == pytest.approx(exp_s)


def test_bmw_frontier_precheck_skips_decodes():
    """The decode-free conjunctive pre-check: once the heap threshold
    exceeds what later blocks can bound, the frontier jumps block
    boundaries from metadata alone — exact same top-k, a fraction of
    the decodes."""
    import search_engine_skillbox_ray.stages.wand as wand

    n = 4096  # 32 blocks of 128 per list
    docs = np.arange(n, dtype=np.int64)
    tfs_a = np.ones(n, dtype=np.int64)
    tfs_a[:128] = 50
    tfs_b = np.ones(n, dtype=np.int64)
    tfs_b[:128] = 50
    rows = [(_dense_row(docs, tfs_a), 2.0), (_dense_row(docs, tfs_b), 2.0)]
    wand.BLOCKS_DECODED = 0
    d, s = topk_conjunctive_bmw_128(rows, 10, tfidf_weight)
    decoded = wand.BLOCKS_DECODED
    exp_d, exp_s = _exhaustive_and(rows, 10, tfidf_weight)
    assert _ids(d) == exp_d
    assert s.tolist() == pytest.approx(exp_s)
    total_blocks = sum(len(r["block_last_doc_lo"]) for r, _ in rows)
    assert total_blocks == 64
    # heap fills inside block 0 of each list; every later block is
    # skipped from metadata (block_max_tf == 1 bounds at 4 < 200)
    assert decoded <= 4, decoded


def test_engine_topk_matches_search_scores(ray_session, tmp_path):
    """End-to-end: engine.topk == the first k of the float64
    search_scores ranking for every scorer, both modes, global and site
    scope, with and without a static prior."""
    import ray.data as rd

    import search_engine_skillbox_ray as ses
    from search_engine_skillbox_ray.pipelines.build import BuildConfig, build_index_from_pages
    from search_engine_skillbox_ray.sources.fixtures import generate_pages_table
    from search_engine_skillbox_ray.sources.pages import derive_sites

    tbl = generate_pages_table(250, n_sites=2, seed=21)
    pages = rd.from_arrow(tbl)
    sites = derive_sites(pages)
    idx = tmp_path / "idx"
    build_index_from_pages(pages, idx, sites, BuildConfig(n_buckets=4,
        heavy_df_threshold=30, salt_target=30, sample_fraction=1.0,
        tokenize_concurrency=(1, 2), prep_concurrency=(1, 2)), input_token="wand-e2e")

    doc_ids = pq.read_table(str(idx / "docs"), columns=["doc_id"])["doc_id"].to_numpy()
    prior = tmp_path / "prior.parquet"
    rng = np.random.default_rng(5)
    pq.write_table(pa.table({"doc_id": doc_ids, "prior": rng.uniform(0.5, 2.0, doc_ids.size)}),
                   prior)

    t = pq.read_table(sorted(glob.glob(f"{idx}/postings/*.parquet"))[0], columns=["term", "df"])
    terms = sorted(t.to_pylist(), key=lambda r: -r["df"])
    queries = [terms[0]["term"], f"{terms[0]['term']} {terms[5]['term']}",
               f"{terms[1]['term']} {terms[2]['term']} {terms[-1]['term']}"]
    for scorer in ("tfidf", "bm25", "sumtf"):
        for prior_path in (None, prior):
            for mode in ("or", "and"):
                kw = dict(mode=mode, scorer=scorer, prior_path=prior_path)
                eng = ses.SearchEngine(str(idx), float32_scores=False, **kw)
                # the float32 cast of search() never reaches topk
                eng32 = ses.SearchEngine(str(idx), **kw)
                for q in queries:
                    for site in [None, sites[0]["url"]]:
                        case = (scorer, prior_path is not None, mode, q, site)
                        d_ex, s_ex, _ = eng.search_scores(q, site)
                        d_pr, s_pr = eng.topk(q, k=10, site=site)
                        assert s_pr.dtype == np.float64, case
                        assert d_pr.tolist() == d_ex[:10].tolist(), case
                        assert s_pr.tolist() == s_ex[:10].tolist(), case
                        d32, s32 = eng32.topk(q, k=10, site=site)
                        assert d32.tolist() == d_pr.tolist(), case
                        assert s32.tolist() == s_pr.tolist(), case


@pytest.fixture(scope="module")
def bm25_index(ray_session, tmp_path_factory):
    """200-page, 2-site index (no salting sample) and three probe
    queries over head, mid and tail terms."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.build import BuildConfig, build_index_from_pages
    from search_engine_skillbox_ray.sources.fixtures import generate_pages_table
    from search_engine_skillbox_ray.sources.pages import derive_sites

    tbl = generate_pages_table(200, n_sites=2, seed=23)
    pages = rd.from_arrow(tbl)
    sites = derive_sites(pages)
    idx = tmp_path_factory.mktemp("bm25_wand") / "idx"
    build_index_from_pages(pages, idx, sites,
        BuildConfig(n_buckets=4, sample_fraction=0, tokenize_concurrency=(1, 2)),
        input_token="bm25-wand")
    t = pq.read_table(sorted(glob.glob(f"{idx}/postings/*.parquet"))[0], columns=["term", "df"])
    terms = sorted(t.to_pylist(), key=lambda r: -r["df"])
    queries = [terms[0]["term"], f"{terms[0]['term']} {terms[3]['term']}",
               f"{terms[1]['term']} {terms[2]['term']} {terms[-1]['term']}"]
    return str(idx), sites, queries


def test_engine_topk_bm25_pruned_matches_exact(bm25_index):
    """BM25 top-k == the exhaustive BM25 ``search_scores`` top-k."""
    import search_engine_skillbox_ray as ses

    idx, _, queries = bm25_index
    eng = ses.SearchEngine(idx, scorer="bm25", float32_scores=False)
    for q in queries:
        d_ex, s_ex, _ = eng.search_scores(q)
        d_pr, s_pr = eng.topk(q, k=10)
        assert d_pr.tolist() == d_ex[:10].tolist(), q
        assert np.allclose(s_pr, s_ex[:10], rtol=1e-12)
        assert s_pr.tolist() == s_ex[:10].tolist(), q


@pytest.mark.parametrize("k", [0, 1, 7, 10_000])
def test_topk_k_bounds(bm25_index, k):
    """``topk(q, k)`` holds min(k, matches) docs — none for k == 0,
    every match once k passes the match count — as (int64, float64)."""
    import search_engine_skillbox_ray as ses

    idx, _, queries = bm25_index
    eng = ses.SearchEngine(idx, float32_scores=False)
    for q in queries:
        d_ex, s_ex, _ = eng.search_scores(q)
        d, s = eng.topk(q, k=k)
        assert d.dtype == np.int64 and s.dtype == np.float64
        assert d.size == min(k, d_ex.size), (q, k)
        assert d.tolist() == d_ex[:k].tolist()
        assert s.tolist() == s_ex[:k].tolist()


def test_topk_no_match_is_empty(bm25_index):
    """Blank, digits-only and unknown-word queries, an AND with one
    unknown word, and an unknown site scope all give empty
    (int64, float64) arrays."""
    import search_engine_skillbox_ray as ses

    idx, _, queries = bm25_index
    eng = ses.SearchEngine(idx)
    eng_and = ses.SearchEngine(idx, mode="and")
    cases = [
        (eng, "", None),
        (eng, "   ", None),
        (eng, "12345 678", None),
        (eng, "qqqxxzzyy", None),
        (eng_and, f"{queries[0]} qqqxxzzyy", None),
        (eng, queries[0], "https://no-such-site.example"),
    ]
    for e, q, site in cases:
        d, s = e.topk(q, k=10, site=site)
        assert d.size == 0 and s.size == 0, (q, site)
        assert d.dtype == np.int64 and s.dtype == np.float64, (q, site)
    # the unknown word alone changes nothing in OR mode
    d0, s0 = eng.topk(queries[0], k=10)
    d1, s1 = eng.topk(f"{queries[0]} qqqxxzzyy", k=10)
    assert d0.size and d1.tolist() == d0.tolist() and s1.tolist() == s0.tolist()


def test_search_scores_float32_is_cast_of_topk_ranking(bm25_index):
    """Under ``float32_scores`` the served ranking is the float64
    ranking's scores cast to float32, re-ordered (score desc, doc_id
    asc) after the cast: same match set, each doc's score the cast of
    its float64 score."""
    import search_engine_skillbox_ray as ses

    idx, sites, queries = bm25_index
    for scorer in ("tfidf", "bm25"):
        eng64 = ses.SearchEngine(idx, scorer=scorer, float32_scores=False)
        eng32 = ses.SearchEngine(idx, scorer=scorer)
        for q in queries:
            for site in (None, sites[0]["url"]):
                d64, s64 = eng64.topk(q, k=10_000, site=site)
                d32, s32, _ = eng32.search_scores(q, site)
                assert s32.dtype == np.float32
                assert sorted(d32.tolist()) == sorted(d64.tolist())
                cast = dict(zip(d64.tolist(), s64.astype(np.float32).tolist()))
                assert s32.tolist() == [cast[d] for d in d32.tolist()]
                order = np.lexsort((d32, -s32))
                assert order.tolist() == list(range(d32.size))
