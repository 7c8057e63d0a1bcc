"""Independent answers for the benchmark's correctness checks.

The oracle reads only the generator's golden text (``crawl.Page.text``),
never the program's output. DuckDB tokenizes and aggregates it with the
reference semantics (``MorphologyServiceImpl.java:17-19``: lowercase,
split on runs of non-letters); scores follow SURVEY §2.5 A2–A5:

* N — docs in scope with at least one token (A3);
* df — docs in scope containing the lemma (A2);
* score — Σ tf·ln((N+1)/(df+1)) in double, cast to float32 (A4, A5);
* OR retrieval, ``offset``/``limit`` paging with the reference's
  ``subList`` quirk (offset past the end → ``result: false``).

BM25 top-k (the engine's pruned ``topk`` path) uses k1=1.2, b=0.75, the
same idf, doc length = token count and avgdl over the whole corpus.

The ``check_*`` functions compare a program output with the oracle and
return a list of human-readable errors (empty = correct). Ties are
compared as sets: the program breaks them by internal doc id, which the
oracle does not know.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

try:
    import duckdb
except ImportError:  # pragma: no cover - the image ships duckdb
    duckdb = None

_LETTERS = re.compile(r"[^\W\d_]+")
_WORDCHARS = re.compile(r"[^\W_]+")
_BOLD = re.compile(r"<b>(.*?)</b>", re.S)

REL_TOL = 1e-6  # float32 has 24 bits: 1 ulp ≈ 6e-8 relative
BM25_K1 = 1.2
BM25_B = 0.75


def query_lemmas(text: str) -> list[str]:
    return list(dict.fromkeys(_LETTERS.findall(text.strip().lower())))


def query_tokens(text: str) -> list[str]:
    """Whitespace-split words reduced to letters and digits (the words a
    snippet may highlight)."""
    out = []
    for raw in text.split():
        kept = "".join(_WORDCHARS.findall(raw))
        if kept:
            out.append(kept.lower())
    return out


@dataclass(frozen=True)
class Hit:
    rel: float  # float32 value as a Python float
    uri: str


class Oracle:
    """Tokenized golden corpus. ``docs`` is an iterable of
    ``(site_id, uri, text)``, one per live (site, path) key."""

    def __init__(self, docs):
        if duckdb is None:
            raise RuntimeError("duckdb is required for the oracle")
        rows = list(docs)
        self.n_pages = len(rows)
        self.site_of = [int(s) for s, _, _ in rows]
        self.uri_of = [u for _, u, _ in rows]
        con = duckdb.connect()
        try:
            con.execute("CREATE TABLE docs(doc INTEGER, site INTEGER, text VARCHAR)")
            con.executemany(
                "INSERT INTO docs VALUES (?, ?, ?)",
                [(i, s, t) for i, (s, _, t) in enumerate(rows)],
            )
            con.execute(
                r"""
                CREATE TABLE tf AS
                SELECT doc, site, term, count(*)::BIGINT AS tf
                FROM (SELECT doc, site,
                             unnest(regexp_split_to_array(lower(text), '[^\p{L}]+')) AS term
                      FROM docs)
                WHERE term <> ''
                GROUP BY doc, site, term
                """
            )
            tf_rows = con.execute("SELECT term, doc, site, tf FROM tf ORDER BY term, doc").fetchall()
            self.site_df = {
                (int(s), t): int(n)
                for s, t, n in con.execute("SELECT site, term, count(*) FROM tf GROUP BY site, term").fetchall()
            }
            self.doc_len = dict(
                con.execute("SELECT doc, sum(tf) FROM tf GROUP BY doc").fetchall()
            )
        finally:
            con.close()
        self.postings: dict[str, list[tuple[int, int, int]]] = defaultdict(list)
        for term, doc, site, tf in tf_rows:
            self.postings[term].append((int(doc), int(site), int(tf)))
        self.n_indexed = len(self.doc_len)
        self.n_indexed_site: dict[int, int] = defaultdict(int)
        for d in self.doc_len:
            self.n_indexed_site[self.site_of[d]] += 1
        self.df: dict[str, int] = defaultdict(int)
        for (_, t), n in self.site_df.items():
            self.df[t] += n
        self.n_postings = sum(self.site_df.values())
        self.sum_doc_len = int(sum(self.doc_len.values()))

    # ---------------------------------------------------------------
    def ranked(self, text: str, site_id: int | None = None) -> list[Hit]:
        """Every matching doc, best first (ties by uri)."""
        lemmas = query_lemmas(text)
        n = self.n_indexed if site_id is None else self.n_indexed_site.get(site_id, 0)
        if not lemmas or n <= 0:
            return []
        scores: dict[int, float] = {}
        for lm in lemmas:
            plist = [(d, tf) for d, s, tf in self.postings.get(lm, ()) if site_id is None or s == site_id]
            idf = math.log((n + 1) / (len(plist) + 1))
            for d, tf in plist:
                scores[d] = scores.get(d, 0.0) + tf * idf
        hits = [Hit(float(np.float32(sc)), self.uri_of[d]) for d, sc in scores.items()]
        hits.sort(key=lambda h: (-h.rel, h.uri))
        return hits

    def bm25_topk(self, text: str, k: int) -> list[tuple[float, str]]:
        lemmas = query_lemmas(text)
        if not lemmas or self.n_indexed <= 0:
            return []
        avgdl = max(1.0, self.sum_doc_len / self.n_indexed)
        scores: dict[int, float] = {}
        for lm in lemmas:
            plist = self.postings.get(lm, ())
            idf = math.log((self.n_indexed + 1) / (len(plist) + 1))
            for d, _, tf in plist:
                dl = self.doc_len[d]
                w = idf * (tf * (BM25_K1 + 1.0)) / (tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl))
                scores[d] = scores.get(d, 0.0) + w
        out = sorted(((sc, self.uri_of[d]) for d, sc in scores.items()), key=lambda x: (-x[0], x[1]))
        return out[:k] if len(out) <= k else _with_boundary_ties(out, k)


def _with_boundary_ties(ranked: list[tuple[float, str]], k: int) -> list[tuple[float, str]]:
    """Top-k plus every doc tied with the k-th (any of them may be
    returned)."""
    kth = ranked[k - 1][0]
    return [x for x in ranked if x[0] >= kth - abs(kth) * 1e-12]


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-12


# -------------------------------------------------------------------
def expected_page(hits: list[Hit], offset: int, limit: int):
    """(result, count, page hits) the reference returns, or None for
    ``result: false``."""
    total = len(hits)
    if total == 0:
        return True, 0, []
    start = max(0, offset)
    end = min(total, offset + max(1, limit))
    if start > end:
        return None
    return True, total, hits[start:end]


def check_search(resp: dict, hits: list[Hit], text: str, offset: int = 0, limit: int = 10) -> list[str]:
    """One ``search`` response against the oracle's full ranked list."""
    errs: list[str] = []
    if not query_lemmas(text):
        if resp != {"result": True, "count": 0, "data": []}:
            errs.append(f"no-lemma query {text!r} answered {resp.get('count')}")
        return errs
    exp = expected_page(hits, offset, limit)
    if exp is None:
        if resp.get("result") is not False:
            errs.append(f"{text!r} offset {offset} past {len(hits)} hits: want result false")
        return errs
    _, count, page = exp
    if resp.get("result") is not True:
        return [f"{text!r}: result {resp.get('result')!r}"]
    if resp.get("count") != count:
        errs.append(f"{text!r}: count {resp.get('count')} != {count}")
    data = resp.get("data") or []
    if len(data) != len(page):
        errs.append(f"{text!r}: {len(data)} hits on page != {len(page)}")
        return errs
    rel_by_uri = {h.uri: h.rel for h in hits}
    seen: set[str] = set()
    words = set(query_tokens(text))
    for i, (item, want) in enumerate(zip(data, page)):
        uri, rel = item.get("uri"), float(item.get("relevance", float("nan")))
        if not _close(rel, want.rel):
            errs.append(f"{text!r}: rank {i} relevance {rel} != {want.rel}")
        if uri in seen:
            errs.append(f"{text!r}: {uri} returned twice")
        seen.add(uri)
        if uri not in rel_by_uri:
            errs.append(f"{text!r}: {uri} does not match the query")
        elif not _close(rel, rel_by_uri[uri]):
            errs.append(f"{text!r}: {uri} relevance {rel} != {rel_by_uri[uri]}")
        for w in _BOLD.findall(item.get("snippet", "")):
            if w.lower() not in words:
                errs.append(f"{text!r}: snippet highlights {w!r}")
    return errs


def check_topk(got: list[tuple[float, str]], want: list[tuple[float, str]], k: int, text: str) -> list[str]:
    """BM25 top-k: scores position by position, each uri with its own
    score; ``want`` may hold extra docs tied at the k-th place."""
    n = min(k, len(want))
    if len(got) != n:
        return [f"topk {text!r}: {len(got)} results != {n}"]
    errs: list[str] = []
    score_by_uri = dict((u, s) for s, u in want)
    for i, ((s, u), (ws, _)) in enumerate(zip(got, want)):
        if not _close(s, ws, 1e-9):
            errs.append(f"topk {text!r}: rank {i} score {s} != {ws}")
        if u not in score_by_uri or not _close(s, score_by_uri[u], 1e-9):
            errs.append(f"topk {text!r}: {u} is not a top-{k} doc with score {s}")
    if len({u for _, u in got}) != len(got):
        errs.append(f"topk {text!r}: duplicate docs")
    return errs


def check_build(site_df: dict[tuple[int, str], int], n_docs: int, n_postings: int, oracle: Oracle) -> list[str]:
    """Built index vs oracle: page count, every (site, term) df, every
    global df, total postings."""
    errs: list[str] = []
    if n_docs != oracle.n_pages:
        errs.append(f"n_docs {n_docs} != {oracle.n_pages} live keys")
    if site_df != oracle.site_df:
        bad = sorted(set(site_df.items()) ^ set(oracle.site_df.items()))[:5]
        errs.append(f"{len(set(site_df.items()) ^ set(oracle.site_df.items()))} (site, term) df differ, e.g. {bad}")
    glob: dict[str, int] = defaultdict(int)
    for (_, t), n in site_df.items():
        glob[t] += n
    if dict(glob) != dict(oracle.df):
        errs.append("global df differs")
    if n_postings != oracle.n_postings:
        errs.append(f"{n_postings} postings != {oracle.n_postings} (Σ distinct terms per doc)")
    return errs


def check_same(a, b, what: str) -> list[str]:
    """Two outputs that must be identical (memory-light vs in-memory
    engine; answers before vs after compaction)."""
    return [] if a == b else [f"{what}: outputs differ"]


def check_pages(pages: int, oracle: Oracle) -> list[str]:
    """``statistics()`` page total vs the oracle's live key count."""
    return [] if pages == oracle.n_pages else [f"statistics pages {pages} != {oracle.n_pages} live keys"]
