"""Single-page re-index (delta+tombstone) semantics vs the reference's
deletePageIfExists + indexSinglePage flow (§3.2), plus compaction."""

import numpy as np
import pytest

import search_engine_skillbox_ray as ses
from search_engine_skillbox_ray.pipelines.build import BuildConfig, build_index_from_pages
from search_engine_skillbox_ray.sources.fixtures import generate_pages_table
from search_engine_skillbox_ray.sources.pages import derive_sites
from search_engine_skillbox_ray.state.updater import IndexUpdater


@pytest.fixture()
def built(ray_session, tmp_path):
    import ray.data as rd

    tbl = generate_pages_table(120, n_sites=2, seed=31)
    pages = rd.from_arrow(tbl)
    sites = derive_sites(pages)
    idx = tmp_path / "idx"
    build_index_from_pages(
        pages, idx, sites,
        BuildConfig(n_buckets=4, sample_fraction=0, tokenize_concurrency=(1, 2)),
        input_token="updater-test",
    )
    return str(idx), sites


def test_index_new_page_searchable(built):
    idx, sites = built
    upd = IndexUpdater(idx)
    url = f"{sites[0]['url']}/new/unique-page"
    r = upd.index_page(url, text="zanzibar quokka zanzibar special words here")
    assert r == {"result": True, "error": None}

    eng = ses.SearchEngine(idx)
    d, s, _ = eng.search_scores("zanzibar")
    assert d.size == 1
    resp = eng.search("zanzibar")
    assert resp["count"] == 1
    assert resp["data"][0]["uri"].endswith("/new/unique-page")
    # tf=2 for zanzibar on the only matching doc
    docs, tfs, df = eng.term_postings("zanzibar")
    assert df == 1 and tfs[0] == 2


def test_reindex_replaces_old_content(built):
    idx, sites = built
    upd = IndexUpdater(idx)
    url = f"{sites[0]['url']}/replace/me"
    assert upd.index_page(url, text="oldword apple")["result"] is True
    eng = ses.SearchEngine(idx)
    assert eng.search_scores("oldword")[0].size == 1

    # re-index same path with new content — no duplicates (reference
    # QA item: indexPage doesn't duplicate)
    assert upd.index_page(url, text="newword banana")["result"] is True
    eng.reload_updates()
    assert eng.search_scores("oldword")[0].size == 0
    d, _, _ = eng.search_scores("newword")
    assert d.size == 1
    resp = eng.search("newword")
    assert resp["count"] == 1 and "newword" in resp["data"][0]["snippet"]


def test_outside_config_error(built):
    idx, _ = built
    upd = IndexUpdater(idx)
    r = upd.index_page("https://not-configured.example/x", text="zz")
    assert r["result"] is False
    assert "не найден в конфиге" in r["error"]


def test_stats_follow_updates(built):
    idx, sites = built
    upd = IndexUpdater(idx)
    eng0 = ses.SearchEngine(idx)
    n0 = eng0.stats["n_docs"]
    upd.index_page(f"{sites[0]['url']}/stat/one", text="words here now")
    eng1 = ses.SearchEngine(idx)
    assert eng1.stats["n_docs"] == n0 + 1
    # replacement should not change counts further
    upd.index_page(f"{sites[0]['url']}/stat/one", text="other words")
    eng2 = ses.SearchEngine(idx)
    assert eng2.stats["n_docs"] == n0 + 1


def test_compaction_preserves_results(built):
    idx, sites = built
    upd = IndexUpdater(idx)
    url = f"{sites[1]['url']}/compact/target"
    upd.index_page(url, text="first version compactcheck")
    upd.index_page(url, text="second version compactcheck revised")

    eng = ses.SearchEngine(idx)
    before = {
        "compactcheck": eng.search_scores("compactcheck")[0].tolist(),
        "revised": eng.search_scores("revised")[0].tolist(),
        "first": eng.search_scores("first")[0].tolist(),
    }
    assert len(before["compactcheck"]) == 1 and len(before["revised"]) == 1

    r = upd.compact()
    assert r["result"] is True

    eng2 = ses.SearchEngine(idx)
    # delta postings folded in; tombstones persist but are no-ops for
    # the query path (base postings of dead docs are purged)
    assert not eng2._delta_terms
    for q, docs in before.items():
        assert eng2.search_scores(q)[0].tolist() == docs, q
    resp = eng2.search("revised")
    assert resp["count"] == 1 and resp["data"][0]["uri"].endswith("/compact/target")


def test_service_facade_lifecycle(ray_session, tmp_path):
    """API-surface semantics (§2.11): start/stop/indexPage/search/statistics."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.build import BuildConfig
    from search_engine_skillbox_ray.state.service import SearchEngineService

    tbl = generate_pages_table(100, n_sites=2, seed=41)
    pages = rd.from_arrow(tbl)
    sites = derive_sites(pages)
    svc = SearchEngineService(
        tmp_path / "idx",
        sites,
        BuildConfig(n_buckets=4, sample_fraction=0, tokenize_concurrency=(1, 2)),
    )
    # stop when not running → result true (IndexingServiceImpl.java:84-87)
    assert svc.stop_indexing()["result"] is True
    assert svc.start_indexing(pages, input_token="svc")["result"] is True
    st = svc.statistics()["statistics"]
    assert st["total"]["pages"] > 0 and st["total"]["indexing"] is False
    assert svc.search("").get("result") is False  # blank query quirk
    r = svc.index_page(f"{sites[0]['url']}/svc/new", text="svcspecial token here")
    assert r["result"] is True
    resp = svc.search("svcspecial")
    assert resp["count"] == 1
    # outside config (IndexingServiceImpl.java:168-173)
    assert svc.index_page("https://elsewhere.example/z", text="x")["result"] is False


def _empty_bucket_term(idx: str, n_buckets: int) -> str:
    """A nonsense term whose bucket has NO base segment file."""
    from pathlib import Path

    from search_engine_skillbox_ray.stages.tokenizer import term_bucket

    existing = {
        int(f.stem.split("=")[1])
        for f in Path(idx, "postings").glob("bucket=*.parquet")
    }
    for i in range(500):
        cand = f"xqzw{'abcdefghij'[i % 10] * (i // 10 + 1)}"
        if int(term_bucket([cand], n_buckets)[0]) not in existing:
            return cand
    raise AssertionError("no empty bucket available — shrink the fixture corpus")


def test_compact_preserves_delta_only_buckets(ray_session, tmp_path):
    """A term hashing to a bucket WITHOUT a base segment must survive
    compaction (regression: deltas for absent buckets were dropped
    while their delta files were unlinked — silent data loss)."""
    import pyarrow as pa
    import ray.data as rd

    # tiny vocabulary so most of the 16 buckets have NO base segment
    tbl = pa.table(
        {
            "url": pa.array([f"https://s.example/p/{i}" for i in range(6)], pa.string()),
            "warc_ts": pa.array([None] * 6, pa.timestamp("us")),
            "html": pa.array([b""] * 6, pa.binary()),
            "text": pa.array(["alpha beta"] * 6, pa.string()),
            "lang": pa.array(["en"] * 6, pa.string()),
        }
    )
    pages = rd.from_arrow(tbl)
    sites = derive_sites(pages)
    idx = tmp_path / "idx"
    build_index_from_pages(
        pages, idx, sites,
        BuildConfig(
            n_buckets=16, sample_fraction=0, tokenize_concurrency=(1, 2),
            use_text_col=True, dedup=False,
        ),
        input_token="delta-only-bucket",
    )
    term = _empty_bucket_term(str(idx), 16)
    upd = IndexUpdater(str(idx))
    assert upd.index_page(f"{sites[0]['url']}/delta/only", text=f"{term} words")["result"]

    eng = ses.SearchEngine(str(idx))
    assert eng.search_scores(term)[0].size == 1  # via delta overlay
    r = upd.compact()
    assert r["result"] is True
    eng2 = ses.SearchEngine(str(idx))
    assert not eng2._delta_terms
    assert eng2.search_scores(term)[0].size == 1  # now from base segments


def test_topk_sees_tombstones_and_deltas(built):
    """topk() must not serve deleted docs nor miss delta postings, and
    stays the first k of the float64 search ranking, for every scorer,
    after upserts and after compact()."""
    idx, sites = built
    upd = IndexUpdater(idx)
    url = f"{sites[0]['url']}/prune/check"
    upd.index_page(url, text="alphaprune betaprune")
    eng = ses.SearchEngine(idx)
    d1, _ = eng.topk("alphaprune", k=5)
    assert d1.size == 1
    # replace the doc: old term disappears, new term appears
    upd.index_page(url, text="gammaprune only now")
    eng.reload_updates()
    d2, _ = eng.topk("alphaprune", k=5)
    assert d2.size == 0, "topk served a deleted doc"
    d3, _ = eng.topk("gammaprune", k=5)
    assert d3.size == 1

    # upsert a BASE page too: its base postings are tombstoned
    row = eng.hydrate_docs([0])[0]
    base_url = eng.sites[int(row["site_id"])]["url"] + row["path"]
    words = row["text"].split()[:3]
    upd.index_page(base_url, text=f"gammaprune {words[0]} tail")
    assert 0 in ses.SearchEngine(idx)._tombstones
    queries = ["gammaprune", " ".join(words), f"gammaprune {words[1]}"]

    def assert_topk_is_ranking_prefix():
        for scorer in ("tfidf", "bm25", "sumtf"):
            e = ses.SearchEngine(idx, scorer=scorer, float32_scores=False)
            for q in queries:
                d, s, _ = e.search_scores(q)
                td, ts = e.topk(q, k=5)
                assert td.tolist() == d[:5].tolist(), (scorer, q)
                assert ts.tolist() == s[:5].tolist(), (scorer, q)

    assert_topk_is_ranking_prefix()
    assert upd.compact()["result"]
    assert_topk_is_ranking_prefix()


def test_statistics_overlay_pending_updates(built):
    """statistics() lemma/page counts stay consistent through
    index_page → compact (regression: marker counts drifted)."""
    idx, sites = built
    upd = IndexUpdater(idx)
    url = f"{sites[0]['url']}/stats/overlay"
    upd.index_page(url, text="uniquestatword another word")

    eng = ses.SearchEngine(idx)
    st_before = eng.statistics()["statistics"]["total"]
    upd.compact()
    eng2 = ses.SearchEngine(idx)
    st_after = eng2.statistics()["statistics"]["total"]
    assert st_before["pages"] == st_after["pages"]
    assert st_before["lemmas"] == st_after["lemmas"]


def test_service_status_lifecycle(ray_session, tmp_path):
    """SiteEntity.status/status_time/last_error semantics
    (IndexingServiceImpl.java:264-284, stop :116-135)."""
    import ray.data as rd

    from search_engine_skillbox_ray.state.service import (
        STOPPED_BY_USER,
        SearchEngineService,
    )

    tbl = generate_pages_table(60, n_sites=2, seed=51)
    pages = rd.from_arrow(tbl)
    sites = derive_sites(pages)
    svc = SearchEngineService(
        tmp_path / "idx", sites,
        BuildConfig(n_buckets=4, sample_fraction=0, tokenize_concurrency=(1, 2)),
    )
    assert svc.start_indexing(pages, input_token="status")["result"] is True
    det = svc.statistics()["statistics"]["detailed"]
    assert all(d["status"] == "INDEXED" for d in det)
    assert all(d["statusTime"] is not None for d in det)
    assert all(d["error"] is None for d in det)

    # simulate a stop during a run: INDEXING sites -> FAILED + message
    svc._running = True
    svc._set_status("INDEXING")
    assert svc.stop_indexing()["result"] is True
    det2 = svc.statistics()["statistics"]["detailed"]
    assert all(d["status"] == "FAILED" for d in det2)
    assert all(d["error"] == STOPPED_BY_USER for d in det2)
