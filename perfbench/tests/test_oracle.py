"""The benchmark's oracle on a hand-worked corpus, and every correctness
check rejecting a deliberately corrupted program output.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import crawl, oracle
from perfbench.oracle import Hit, Oracle, check_build, check_pages, check_same, check_search, check_topk
from perfbench.workloads import parse_stream_stats

S0, S1 = crawl.SITES[0], crawl.SITES[1]
# d0 apple×2 banana | d1 banana cherry | d2 apple cherry×2 ("42" and "-"
# separate words) | d3 has no letters: a page, not an indexed doc
DOCS = [
    (0, S0 + "/a", "apple banana Apple"),
    (0, S0 + "/b", "banana cherry"),
    (1, S1 + "/c", "apple, 42 cherry-cherry"),
    (1, S1 + "/d", "404 2024"),
]
IDF = math.log(4 / 3)  # N = 3 indexed docs, df = 2 for every word


def f32(x: float) -> float:
    return float(np.float32(x))


@pytest.fixture(scope="module")
def tiny() -> Oracle:
    return Oracle(DOCS)


def test_hand_worked_counts(tiny):
    assert tiny.n_pages == 4
    assert tiny.n_indexed == 3
    assert dict(tiny.n_indexed_site) == {0: 2, 1: 1}
    assert tiny.site_df == {
        (0, "apple"): 1, (0, "banana"): 2, (0, "cherry"): 1,
        (1, "apple"): 1, (1, "cherry"): 1,
    }
    assert dict(tiny.df) == {"apple": 2, "banana": 2, "cherry": 2}
    assert tiny.n_postings == 6  # 2 + 2 + 2 + 0 distinct words per doc
    assert tiny.doc_len == {0: 3, 1: 2, 2: 3}


def test_hand_worked_scores(tiny):
    assert tiny.ranked("APPLE") == [Hit(f32(2 * IDF), S0 + "/a"), Hit(f32(IDF), S1 + "/c")]
    # d1 = 1+1, d2 = 2 (tied), d0 = 1
    got = tiny.ranked("cherry banana")
    assert [h.rel for h in got] == [f32(2 * IDF), f32(2 * IDF), f32(IDF)]
    assert {h.uri for h in got[:2]} == {S0 + "/b", S1 + "/c"} and got[2].uri == S0 + "/a"
    # site scope: N and df are the site's own
    assert tiny.ranked("apple", 0) == [Hit(f32(2 * math.log(3 / 2)), S0 + "/a")]
    assert tiny.ranked("apple", 1) == [Hit(0.0, S1 + "/c")]
    assert tiny.ranked("404") == [] and tiny.ranked("durian") == []


def test_hand_worked_bm25(tiny):
    avgdl = 8 / 3

    def w(tf, dl):
        return IDF * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * dl / avgdl))

    got = tiny.bm25_topk("apple", 10)
    assert [u for _, u in got] == [S0 + "/a", S1 + "/c"]
    assert got[0][0] == pytest.approx(w(2, 3), rel=1e-12)
    assert got[1][0] == pytest.approx(w(1, 3), rel=1e-12)


# -- helpers that play the program ----------------------------------------
def response(hits: list[Hit], offset=0, limit=10, query="apple") -> dict:
    res = oracle.expected_page(hits, offset, limit)
    if res is None:
        return {"result": False, "count": 0, "data": []}
    _, count, page = res
    data = [{"uri": h.uri, "relevance": h.rel, "snippet": f"<b>{query.split()[0]}</b> ..."} for h in page]
    return {"result": True, "count": count, "data": data}


def test_correct_response_passes(tiny):
    for q in ("apple", "cherry banana", "durian", "404"):
        hits = tiny.ranked(q)
        assert check_search(response(hits, query=q), hits, q) == []


def test_tie_order_is_free(tiny):
    hits = tiny.ranked("cherry banana")
    resp = response(hits, query="cherry banana")
    resp["data"][0], resp["data"][1] = resp["data"][1], resp["data"][0]
    assert check_search(resp, hits, "cherry banana") == []


def test_paging_and_past_the_end(tiny):
    hits = tiny.ranked("cherry banana")
    assert check_search(response(hits, 1, 1, "cherry"), hits, "cherry banana", 1, 1) == []
    # offset 5 > 3 hits: the reference answers result:false
    assert check_search({"result": False, "count": 0, "data": []}, hits, "cherry banana", 5, 10) == []
    assert check_search(response(hits, 0, 10, "cherry"), hits, "cherry banana", 5, 10)


def test_swapped_relevance_fails(tiny):
    hits = tiny.ranked("apple")
    resp = response(hits)
    a, b = resp["data"]
    a["relevance"], b["relevance"] = b["relevance"], a["relevance"]
    assert check_search(resp, hits, "apple")


def test_dropped_hit_fails(tiny):
    hits = tiny.ranked("apple")
    resp = response(hits)
    resp["data"].pop()
    assert check_search(resp, hits, "apple")
    resp = response(hits)
    resp["count"] -= 1
    assert check_search(resp, hits, "apple")


def test_wrong_uri_and_duplicate_fail(tiny):
    hits = tiny.ranked("cherry banana")
    resp = response(hits, query="cherry")
    resp["data"][2]["uri"] = S1 + "/d"
    assert check_search(resp, hits, "cherry banana")
    resp = response(hits, query="cherry")
    resp["data"][1]["uri"] = resp["data"][0]["uri"]
    assert check_search(resp, hits, "cherry banana")


def test_snippet_highlighting_other_word_fails(tiny):
    hits = tiny.ranked("apple")
    resp = response(hits)
    resp["data"][0]["snippet"] = "<b>apple</b> and <b>banana</b>"
    assert check_search(resp, hits, "apple")


def test_off_by_one_df_fails(tiny):
    site_df = dict(tiny.site_df)
    assert check_build(site_df, 4, 6, tiny) == []
    site_df[(0, "banana")] += 1
    assert check_build(site_df, 4, 6, tiny)
    assert check_build(dict(tiny.site_df), 3, 6, tiny)  # a page lost
    assert check_build(dict(tiny.site_df), 4, 7, tiny)  # a posting too many


def test_topk_checks(tiny):
    want = tiny.bm25_topk("apple", 10)
    assert check_topk(list(want), want, 10, "apple") == []
    swapped = [(want[1][0], want[0][1]), (want[0][0], want[1][1])]
    assert check_topk(swapped, want, 10, "apple")
    assert check_topk(want[:1], want, 10, "apple")  # dropped hit


def test_topk_boundary_tie_accepts_either_doc(tiny):
    want = tiny.bm25_topk("cherry banana", 1)
    assert len(want) >= 1
    for s, u in want:
        assert check_topk([(s, u)], want, 1, "cherry banana") == []


def test_missing_upsert_fails():
    before = [(0, S0 + "/a", "apple"), (0, S0 + "/b", "banana")]
    after = [(0, S0 + "/a", "durian"), (0, S0 + "/b", "banana")]  # /a upserted
    logical, stale = Oracle(after), Oracle(before)
    for q in ("durian", "apple"):
        stale_resp = response(stale.ranked(q), query=q)
        assert check_search(stale_resp, logical.ranked(q), q), q
    # a missing new URL shows in the page count
    assert check_pages(2, Oracle(after + [(1, S1 + "/new", "fig")]))


def test_identity_checks():
    a = {"result": True, "count": 1, "data": [{"uri": "u", "relevance": 1.0}]}
    assert check_same(a, copy.deepcopy(a), "light") == []
    b = copy.deepcopy(a)
    b["data"][0]["relevance"] = 2.0
    assert check_same(a, b, "light")


# -- the generator -----------------------------------------------------
def test_generator_is_seeded():
    a = crawl.generate(5, 120, n_batches=2, batch_pages=10)
    b = crawl.generate(5, 120, n_batches=2, batch_pages=10)
    c = crawl.generate(6, 120, n_batches=2, batch_pages=10)
    assert [p.html for p in a.pages] == [p.html for p in b.pages]
    assert [p.html for p in a.pages] != [p.html for p in c.pages]
    assert crawl.make_queries(a.vocab, 30) == crawl.make_queries(b.vocab, 30)
    # same shape (ranks, scope, paging) for every seed, other words
    qa, qc = crawl.make_queries(a.vocab, 30), crawl.make_queries(c.vocab, 30)
    assert [(len(x.text.split()), x.site, x.offset) for x in qa] == [(len(x.text.split()), x.site, x.offset) for x in qc]
    assert qa != qc


def test_generator_shape():
    c = crawl.generate(3, 400, n_batches=2, batch_pages=20)
    assert len(c.pages) == 400
    assert {p.site_id for p in c.pages} == {0, 1, 2, 3}
    latest = c.latest()
    assert len(latest) < 400  # keep-latest duplicates exist
    for p in c.pages:  # the later crawl wins, whatever the row order
        assert latest[p.url].ts >= p.ts
    for w in crawl.NOISE_WORDS:  # markup words never reach golden text
        assert all(w not in p.text for p in c.pages)
    b0 = c.batches[0]
    assert sum(p.url in latest for p in b0) == 10  # half upserts
    assert all(any(f in p.text.split() for f in c.fresh) for p in b0)
    assert len(c.after_batches()) == len(latest) + 20


def test_parse_stream_stats():
    text = (
        "Operator 1 ReadParquet: 4 tasks executed, 4 blocks produced in 0.32s\n"
        "* Output num rows per block: 250 min, 250 max, 250 mean, 1000 total\n\n"
        "Operator 2 MapBatches(PreparePages)->MapBatches(TokenizeExplode): 1 tasks executed, "
        "1 blocks produced in 630ms\n"
        "* Output num rows per block: 7357 min, 7357 max, 7357 mean, 7357 total\n\n"
        "Operator 3 Sort: executed in 2.19s\n\n\tSuboperator 0 SortMap: 1 tasks executed\n"
        "\t* Output num rows per block: 7357 min, 7357 max, 7357 mean, 7357 total\n\n"
        "Operator 4 MapBatches(write_bucket): 1 tasks executed, 1 blocks produced in 0.23s\n"
        "* Output num rows per block: 8 min, 8 max, 8 mean, 8 total\n"
    )
    assert parse_stream_stats(text) == {
        "read": (0.32, 1000), "extract_tokenize": (0.63, 7357),
        "sort": (2.19, 7357), "write_bucket": (0.23, 8),
    }


def test_exits_nonzero_without_the_program(tmp_path):
    import shutil

    here = Path(__file__).resolve().parents[1]
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "not in" in proc.stderr and proc.stdout == ""
