"""Rank parity vs the pure-Python oracle + build pipeline semantics
(SURVEY §5.5): the Ray-built index must reproduce SearchServiceImpl's
scores exactly (float32), with ties compared as sets."""

import numpy as np
import pytest

import search_engine_skillbox_ray as ses
from search_engine_skillbox_ray.pipelines.build import BuildConfig, build_index_from_pages
from search_engine_skillbox_ray.sources.fixtures import generate_pages_table
from search_engine_skillbox_ray.sources.pages import derive_sites

from .oracle import OracleIndex

N_PAGES = 400


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data as rd

    tbl = generate_pages_table(N_PAGES, n_sites=3, seed=11, dup_fraction=0.08)
    pages = rd.from_arrow(tbl)
    sites = derive_sites(pages)
    idx = tmp_path_factory.mktemp("idx")
    cfg = BuildConfig(
        n_buckets=5,
        # force the salting path at tiny scale so merge is exercised
        heavy_df_threshold=20,
        salt_target=20,
        sample_fraction=1.0,
        sample_max_docs=10_000,
        tokenize_concurrency=(1, 2),
        prep_concurrency=(1, 2),
    )
    res = build_index_from_pages(pages, idx, sites, cfg, input_token="parity-test")
    eng = ses.SearchEngine(str(idx))

    # oracle over the keep-latest deduped corpus (what the index holds)
    from search_engine_skillbox_ray.functions.urls import extract_path, normalize_url

    rows = {}
    for r in tbl.to_pylist():  # later warc_ts wins (rows are ts-ordered)
        nu = normalize_url(r["url"])
        site = next(s["url"] for s in sites if nu.startswith(normalize_url(s["url"])))
        key = (site, extract_path(r["url"], site))
        prev = rows.get(key)
        if prev is None or r["warc_ts"] >= prev["warc_ts"]:
            rows[key] = {**r, "site": site}
    from search_engine_skillbox_ray.stages.tokenizer import dense_doc_id_map

    # mirror the build's dense id assignment: sorted distinct normalized
    # urls of the WHOLE corpus (incl. dedup losers) → 0..N-1
    idmap = dense_doc_id_map(normalize_url(r["url"]) for r in tbl.to_pylist())
    urls = [normalize_url(r["url"]) for r in rows.values()]
    doc_ids = [idmap[u] for u in urls]
    docs = [
        {"doc_id": int(d), "site": r["site"], "text": r["text"]}
        for d, r in zip(doc_ids, rows.values())
    ]
    oracle = OracleIndex(docs)
    return res, eng, oracle, sites


QUERIES = [
    "баработа вер",  # likely tail terms
    "ba",  # maybe absent (too short to be a vocab word? included anyway)
    "data absentwordxyz",
    "num 42 x9y",  # digits dropped by lemmatizer
    "Привет мир",
    "one two three",
]


def _head_terms(oracle, k=4):
    return sorted(oracle.tf, key=lambda t: len(oracle.tf[t]), reverse=True)[:k]


def test_corpus_sizes_match(built):
    res, eng, oracle, _ = built
    assert res.n_docs == len(oracle.doc_site)
    assert eng.stats["n_docs_indexed"] == len(oracle.indexed_docs)


def test_salting_was_exercised(built):
    res, eng, oracle, _ = built
    import json
    from pathlib import Path

    manifest = json.loads((Path(res.index_dir) / "manifest.json").read_text())
    assert manifest["heavy_terms"], "expected salted head terms in this fixture"


def test_rank_parity_or_semantics(built):
    _, eng, oracle, sites = built
    head = _head_terms(oracle)
    queries = QUERIES + [
        " ".join(head[:2]),
        " ".join(head[:4]),
        head[0] + " " + "rareabsent",
    ]
    for q in queries:
        doc_ids, scores, _ = eng.search_scores(q)
        expected, _n = oracle.search(q)
        got = dict(zip(doc_ids.tolist(), scores.tolist()))
        assert set(got) == set(expected), f"doc set mismatch for {q!r}"
        for d in expected:
            assert got[d] == pytest.approx(expected[d], abs=0.0), (q, d)
        # ranking: scores must be non-increasing
        assert all(scores[i] >= scores[i + 1] for i in range(len(scores) - 1))


def test_rank_parity_site_scoped(built):
    _, eng, oracle, sites = built
    head = _head_terms(oracle)
    q = " ".join(head[:2])
    for s in sites:
        doc_ids, scores, _ = eng.search_scores(q, site=s["url"])
        expected, _ = oracle.search(q, site=s["url"])
        got = dict(zip(doc_ids.tolist(), scores.tolist()))
        assert set(got) == set(expected)
        for d in expected:
            assert got[d] == pytest.approx(expected[d], abs=0.0)


def test_and_mode_is_intersection(built):
    res, eng, oracle, _ = built
    head = _head_terms(oracle)
    q = " ".join(head[:2])
    eng_and = ses.SearchEngine(res.index_dir, mode="and")
    d_or, _, _ = eng.search_scores(q)
    d_and, s_and, _ = eng_and.search_scores(q)
    inter = set(oracle.tf[head[0]]) & set(oracle.tf[head[1]])
    assert set(d_and.tolist()) == inter
    assert set(d_and.tolist()) <= set(d_or.tolist())


def test_search_response_shape_and_quirks(built):
    _, eng, oracle, _ = built
    head = _head_terms(oracle)
    r = eng.search(head[0], limit=3)
    assert r["result"] is True and r["count"] >= 3
    item = r["data"][0]
    assert set(item) == {"site", "siteName", "uri", "title", "snippet", "relevance"}
    assert item["site"] == ""  # SearchServiceImpl.java:61-65 quirk
    assert item["uri"].startswith("https://")
    # blank query → result false (:29-31)
    assert eng.search("   ") == {"result": False, "count": 0, "data": []}
    # no lemmas (digits only) → result true, empty (:33-36)
    assert eng.search("42 77") == {"result": True, "count": 0, "data": []}
    # limit floor of 1 (:164)
    r1 = eng.search(head[0], limit=0)
    assert len(r1["data"]) == 1
    # offset beyond result size → subList throw → catch-all false (:162-166, :68-70)
    assert eng.search(head[0], offset=10_000)["result"] is False
    # unknown site scope → N=0 → true empty (:40-42)
    assert eng.search(head[0], site="https://nosuch.example") == {
        "result": True,
        "count": 0,
        "data": [],
    }


def test_bm25_mode_runs_and_ranks(built):
    res, eng, oracle, _ = built
    b = ses.SearchEngine(res.index_dir, scorer="bm25")
    head = _head_terms(oracle)
    d, s, _ = b.search_scores(" ".join(head[:2]))
    assert d.size > 0
    assert all(s[i] >= s[i + 1] for i in range(len(s) - 1))


def test_statistics_counts(built):
    _, eng, oracle, sites = built
    st = eng.statistics()["statistics"]
    assert st["total"]["sites"] == len(sites)
    assert st["total"]["pages"] == len(oracle.doc_site)
    # lemma rows = Σ_site distinct terms on that site
    per_site = {}
    for t, posting in oracle.tf.items():
        for d in posting:
            per_site.setdefault(oracle.doc_site[d], set()).add(t)
    assert st["total"]["lemmas"] == sum(len(v) for v in per_site.values())


def test_empty_corpus_builds_and_searches(ray_session, tmp_path):
    """A build over zero matching pages must produce a queryable (empty)
    index, not crash — the N=0 search path returns true/empty (A3)."""
    import pyarrow as pa

    import ray.data as rd

    pages = rd.from_arrow(
        pa.table({"url": pa.array([], pa.string()), "html": pa.array([], pa.binary())})
    )
    sites = [{"site_id": 0, "url": "https://empty.example", "name": "Empty"}]
    res = build_index_from_pages(
        pages, tmp_path / "idx", sites,
        BuildConfig(n_buckets=2, sample_fraction=0, tokenize_concurrency=(1, 2)),
        input_token="empty",
    )
    assert res.n_docs == 0
    eng = ses.SearchEngine(str(tmp_path / "idx"))
    assert eng.search("anything") == {"result": True, "count": 0, "data": []}
    assert eng.statistics()["statistics"]["total"]["pages"] == 0


def test_query_actor_pool_matches_engine(built):
    """QueryActorPool (ST5 serving shape, memory-light by default) must
    return exactly the single-engine responses, for both the round-robin
    search() and the fan-out search_many()."""
    res, eng, oracle, sites = built
    pool = ses.QueryActorPool(str(eng.index_dir), n_actors=2)
    terms = sorted(oracle.tf, key=lambda t: len(oracle.tf[t]), reverse=True)[:4]
    queries = terms + [f"{terms[0]} {terms[1]}"]
    for q in queries:
        assert pool.search(q, limit=5) == eng.search(q, limit=5)
    many = pool.search_many([(q, {"limit": 3}) for q in queries])
    for q, got in zip(queries, many):
        assert got == eng.search(q, limit=3)


def test_sharded_query_actor_pool_matches_engine(ray_session, tmp_path):
    """sharded=True: each pool actor's locator covers only its share of
    the base doc-store ROW GROUPS (disjoint, complete — IO and memory
    1/n per actor), yet responses — scoring on one actor, hydration
    fanned across the pool — are byte-identical to the single
    whole-store engine, including blank-query/pagination terminal
    shapes. Corpus sized past the 512-row docs row groups so sharding
    is non-degenerate."""
    import ray.data as rd

    tbl = generate_pages_table(1600, n_sites=3, seed=23, dup_fraction=0.05)
    pages = rd.from_arrow(tbl)
    sites = derive_sites(pages)
    idx = tmp_path / "idx"
    res = build_index_from_pages(
        pages, idx, sites,
        BuildConfig(n_buckets=4, tokenize_concurrency=(1, 2), prep_concurrency=(1, 2)),
        input_token="sharded-pool-test",
    )
    eng = ses.SearchEngine(str(idx))
    pool = ses.QueryActorPool(str(idx), n_actors=3, sharded=True)
    sizes = pool.locator_sizes()
    assert sum(sizes) == res.n_docs  # disjoint + complete partition
    assert max(sizes) < res.n_docs  # genuinely sharded (no actor has all)
    assert min(sizes) > 0
    queries = ["kagra", "graden", "ponpon fel", "ponpon боцами", "absentzz"]
    hydrated = 0
    for q in queries:
        resp = eng.search(q, limit=5)
        hydrated += len(resp["data"])
        assert pool.search(q, limit=5) == resp
    assert hydrated >= 10  # the parity set exercises real hydration
    many = pool.search_many([(q, {"limit": 3}) for q in queries])
    for q, got in zip(queries, many):
        assert got == eng.search(q, limit=3)
    # terminal shapes route through the same early exits
    assert pool.search("") == eng.search("")
    assert pool.search(queries[0], offset=10**9) == eng.search(queries[0], offset=10**9)


def test_more_like_this(built):
    """Seed excluded, k respected, scores non-increasing, batch operator
    matches the single-engine method; unknown seed → empty."""
    import numpy as np
    import ray.data as rd

    from search_engine_skillbox_ray.state.engine import more_like_this_batch

    _res, eng = built[0], built[1]
    idx = eng.index_dir
    # pick a seed with non-empty neighborhood (some fixture pages share
    # no vocabulary with any other doc — empty is correct for those)
    seed, d, s = None, np.empty(0, np.int64), np.empty(0, np.float64)
    for cand in eng._hydrate(np.arange(0, 200, dtype=np.int64)):
        d, s = eng.more_like_this(cand, k=5)
        if d.size:
            seed = cand
            break
    assert seed is not None, "no seed with neighbors in the fixture"
    assert d.size <= 5
    assert seed not in d.tolist()
    assert (np.diff(s) <= 1e-12).all()  # non-increasing
    # unknown seed
    d2, s2 = eng.more_like_this(10**9, k=5)
    assert d2.size == 0 and s2.size == 0
    # dataset operator parity
    out = (
        more_like_this_batch(
            rd.from_items([{"seed_doc_id": seed}]), str(idx), k=5, concurrency=(1, 1)
        )
        .to_pandas()
        .sort_values("rank")
    )
    assert out["doc_id"].tolist() == d.tolist()
    assert np.allclose(out["score"].to_numpy(), np.round(s, 6))


def test_search_excluding_semantics(built):
    """AND-NOT: result set == disjunctive set minus exactly the docs
    containing the exclude lemma; order and scores preserved; blank or
    absent excludes are no-ops."""
    import numpy as np

    _, eng, _, _ = built

    base_docs, base_scores, lemmas = eng.search_scores("ва слово")
    assert base_docs.size > 0
    excl = lemmas[0]  # exclude one of the query's own lemmas
    docs, scores = eng.search_excluding("ва слово", excl)
    ex_docs, _, _ = eng.search_scores(excl)
    assert not np.intersect1d(docs, ex_docs).size
    # every surviving doc keeps its original score, in original order
    keep = ~np.isin(base_docs, ex_docs)
    assert docs.tolist() == base_docs[keep].tolist()
    assert np.allclose(scores, base_scores[keep].astype(np.float64))
    # blank exclude: identical to the plain search
    d2, s2 = eng.search_excluding("ва слово", "")
    assert d2.tolist() == base_docs.tolist()
    # excluding an absent term is a no-op too
    d3, _ = eng.search_excluding("ва слово", "absentwordzz")
    assert d3.tolist() == base_docs.tolist()


def test_prefix_expansion_matches_vocabulary(built):
    """expand_prefix == the sorted capped prefix-slice of the oracle's
    vocabulary, and prefix search == disjunctive search over exactly the
    expanded terms."""
    _, eng, oracle, _ = built
    vocab = sorted(oracle.tf)
    for prefix in {t[0] for t in vocab[:50]} | {"zzz"}:
        want = sorted(t for t in vocab if t.startswith(prefix))[:50]
        got = eng.expand_prefix(prefix, max_expansions=50)
        assert got == want, prefix
    some = next(t[:2] for t in vocab if len(t) >= 2)
    exp = eng.expand_prefix(some, max_expansions=50)
    assert exp
    d1, s1, _ = eng.search_prefix_scores(some, max_expansions=50)
    d2, s2, _ = eng.search_scores(" ".join(exp))
    assert d1.tolist() == d2.tolist()
    assert s1.tolist() == s2.tolist()
    # empty prefix expands to nothing (not the whole vocabulary)
    assert eng.expand_prefix("") == []

def test_suffix_expansion_matches_vocabulary(built):
    """expand_suffix (reversed-dictionary binary search) == the sorted
    capped suffix-slice of the oracle vocabulary; suffix search ==
    disjunctive search over exactly the expanded terms."""
    _, eng, oracle, _ = built
    vocab = sorted(oracle.tf)
    for suffix in {t[-1] for t in vocab[:50]} | {t[-2:] for t in vocab[:20] if len(t) >= 2} | {"zzzq"}:
        want = sorted(t for t in vocab if t.endswith(suffix))[:50]
        got = eng.expand_suffix(suffix, max_expansions=50)
        assert got == want, suffix
    some = next(t[-2:] for t in vocab if len(t) >= 3)
    exp = eng.expand_suffix(some, max_expansions=50)
    assert exp
    d1, s1, _ = eng.search_suffix_scores(some, max_expansions=50)
    d2, s2, _ = eng.search_scores(" ".join(exp))
    assert d1.tolist() == d2.tolist()
    assert s1.tolist() == s2.tolist()
    assert eng.expand_suffix("") == []


def _lev(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, dp[0] = dp[0], i
        for j, cb in enumerate(b, 1):
            prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb))
    return dp[len(b)]


def test_fuzzy_expansion_matches_brute_levenshtein(built):
    """expand_fuzzy (vectorized char-matrix kernels) == brute-force
    Levenshtein<=1 over the vocabulary, for in-vocab terms, misspellings
    and absent terms — including the 1-char and unicode edges."""
    _, eng, oracle, _ = built
    vocab = sorted(oracle.tf)
    probes = set(vocab[:15])
    probes |= {t[1:] for t in vocab[:10] if len(t) >= 2}          # deletion
    probes |= {t + "x" for t in vocab[:10]}                        # insertion
    probes |= {("z" + t[1:]) for t in vocab[:10]}                  # substitution
    probes |= {"q", "zzzzzzzz"}
    for q in probes:
        want = sorted(t for t in vocab if _lev(q, t) <= 1)[:50]
        got = eng.expand_fuzzy(q, max_expansions=50)
        assert got == want, q
    assert eng.expand_fuzzy("") == []


def test_msm_between_or_and_and(built):
    """search_msm_scores: msm=1 == OR; msm=n_lemmas ⊇ AND-mode match
    set; every kept doc hits >= msm distinct lemmas with its OR score."""
    _, eng, oracle, _ = built
    q = "ва слово"
    or_docs, or_scores, lemmas = eng.search_scores(q)
    d1, s1 = eng.search_msm_scores(q, msm=1)
    assert d1.tolist() == or_docs.tolist()
    n = len(lemmas)
    dn, sn = eng.search_msm_scores(q, msm=n)
    # msm=n == conjunctive semantics: docs containing every lemma
    per_term = [set(eng.search_scores(t)[0].tolist()) for t in lemmas]
    want_and = set.intersection(*per_term) if per_term else set()
    assert set(dn.tolist()) == want_and
    # scores are the unchanged OR scores of the surviving docs
    pos = {int(d): float(s) for d, s in zip(or_docs, or_scores)}
    assert all(abs(pos[int(d)] - float(s)) < 1e-12 for d, s in zip(dn, sn))


def test_search_after_keyset_pagination(built):
    """Chaining search_after pages reconstructs the full (rounded score
    desc, doc_id) ranking exactly once, with no overlaps or gaps."""
    _, eng, _, _ = built
    q = "ва слово"
    docs, scores, _ = eng.search_scores(q)
    r = np.round(scores.astype(np.float64), 6)
    order = np.lexsort((docs, -r))
    want = list(zip(docs[order].tolist(), r[order].tolist()))
    got, after = [], None
    while True:
        d, s = eng.search_after_scores(q, after, limit=7)
        if d.size == 0:
            break
        got += list(zip(d.tolist(), s.tolist()))
        after = (float(s[-1]), int(d[-1]))
    assert got == want


def test_synonym_expansion_scoring(built):
    """search_synonym_scores == disjunctive search over the expanded
    distinct terms; unknown expansions change nothing."""
    _, eng, oracle, _ = built
    vocab = sorted(oracle.tf)
    a, b = vocab[0], vocab[1]
    d1, s1, _ = eng.search_synonym_scores(a, {a: (b,)})
    d2, s2, _ = eng.search_scores(f"{a} {b}")
    assert d1.tolist() == d2.tolist() and s1.tolist() == s2.tolist()
    d3, s3, _ = eng.search_synonym_scores(a, {a: ("absentzzz",)})
    d4, s4, _ = eng.search_scores(f"{a} absentzzz")
    assert d3.tolist() == d4.tolist() and s3.tolist() == s4.tolist()


def test_boolean_query_algebra(built):
    """search_boolean_scores == hand-computed set algebra over per-term
    match sets, with unchanged OR scores; parser edges raise."""
    import pytest

    _, eng, oracle, _ = built
    vocab = sorted(oracle.tf)
    a, b, c, d = vocab[0], vocab[1], vocab[2], vocab[3]
    sets = {t: set(eng.search_scores(t)[0].tolist()) for t in (a, b, c, d)}
    want = (sets[a] | sets[b]) & sets[c] - sets[d]
    docs, scores = eng.search_boolean_scores(f"({a} OR {b}) AND {c} AND NOT {d}")
    assert set(docs.tolist()) == want
    # scores equal the disjunctive scores over the positive leaves
    od, os_, _ = eng.search_scores(f"{a} {b} {c}")
    pos = {int(x): float(s) for x, s in zip(od, os_)}
    assert all(abs(pos[int(x)] - float(s)) < 1e-12 for x, s in zip(docs, scores))
    # implicit AND: "x y" == "x AND y"
    d1, _ = eng.search_boolean_scores(f"{a} {c}")
    d2, _ = eng.search_boolean_scores(f"{a} AND {c}")
    assert d1.tolist() == d2.tolist()
    assert set(d1.tolist()) == sets[a] & sets[c]
    # precedence: OR loosest — "a OR b AND c" == "a OR (b AND c)"
    d3, _ = eng.search_boolean_scores(f"{a} OR {b} AND {c}")
    assert set(d3.tolist()) == sets[a] | (sets[b] & sets[c])
    for bad in (f"NOT {a}", f"{a} OR NOT {b}", f"NOT {a} AND NOT {b}",
                f"({a}", f"{a} )", "AND"):
        with pytest.raises(ValueError):
            eng.search_boolean_scores(bad)


def test_memory_light_concurrent_queries(built):
    """The threaded cold-row-group hydration path must be safe under
    CONCURRENT searches on one engine: eight threads replay the same
    query mix against a row-group cache holding about one group, so
    nearly every call evicts. Every result must equal the
    single-threaded answer (a shared ParquetFile handle raced; an
    evicted key's ``move_to_end`` raised KeyError, which ``search``
    turns into ``result: false``), and the cache's byte counter must
    equal its tables' bytes (two threads missing one group counted it
    twice)."""
    import sys
    import threading

    import search_engine_skillbox_ray as ses

    res, eng, oracle, sites = built
    light = ses.SearchEngine(str(res.index_dir), docs_in_memory=False)
    queries = ["слово", "страница ва", "kagra ponpon", "денrespond", "lus mar"]
    expected = {q: light.search(q, limit=10) for q in queries}
    assert len(light._rg_cache) >= 3
    light.rg_cache_max_bytes = max(t.nbytes for t in light._rg_cache.values())
    light._rg_cache.clear()
    light._rg_cache_bytes = 0

    errors: list[str] = []

    def worker(shift: int):
        for i in range(6 * len(queries)):
            q = queries[(i + shift) % len(queries)]
            if light.search(q, limit=10) != expected[q]:
                errors.append(q)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, f"concurrent results diverged for: {sorted(set(errors))}"
    assert light._rg_cache_bytes == sum(t.nbytes for t in light._rg_cache.values())
    assert light._rg_cache_bytes <= light.rg_cache_max_bytes
