"""Link extraction + in-site frontier filter (M7).

Reference: /root/reference/src/main/java/searchengine/utils/UrlUtils.java:62-107
(``crawlLinks``) + link selection ``doc.select("a[href]")`` at
service/IndexingServiceImpl.java:336. The live BFS frontier is out of
scope for the Parquet corpus (BASELINE input_hint), but the SEMANTICS
survive as a corpus-prep / link-graph operator:

* collect ``a[href]`` values from the raw HTML;
* skip empty, ``javascript:``, ``mailto:`` and bare ``#``;
* absolutize against the page url (Jsoup ``absUrl``);
* normalize (M4);
* keep only urls prefixed by the page's normalized site root;
* de-duplicate per page (the visited-set becomes a groupby at scale).

``extract_links_ds`` exposes it as a Dataset stage producing the in-site
link graph ``(src_url, dst_url)`` — the input to frontier discovery,
PageRank-ish scoring, or crawl-completeness checks.
"""

from __future__ import annotations

from html.parser import HTMLParser
from urllib.parse import urljoin

import pyarrow as pa

from .extract import decode_html
from .urls import normalize_url


class _HrefCollector(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []

    def handle_starttag(self, tag: str, attrs) -> None:  # noqa: ANN001
        if tag == "a":
            for name, value in attrs:
                if name == "href" and value is not None:
                    self.hrefs.append(value)


def extract_links(html: str | bytes, page_url: str, site_url: str) -> list[str]:
    """In-site outgoing links of one page, normalized, first-occurrence
    de-duplicated (crawlLinks semantics)."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = decode_html(bytes(html))
    parser = _HrefCollector()
    try:
        parser.feed(html)
        parser.close()
    except Exception:
        pass
    site_norm = normalize_url(site_url)
    out: list[str] = []
    seen: set[str] = set()
    for href in parser.hrefs:
        if not href or href.startswith("javascript:") or href.startswith("mailto:") or href == "#":
            continue
        abs_url = urljoin(page_url, href)
        if not abs_url or abs_url == "#":
            continue
        nu = normalize_url(abs_url)
        if not nu.startswith(site_norm):
            continue  # внешняя ссылка — skipped like the reference
        if nu not in seen:
            seen.add(nu)
            out.append(nu)
    return out


def extract_links_batch(batch: pa.Table, sites: list[dict]) -> pa.Table:
    """map_batches body → exploded (src_url, dst_url) link-graph rows."""
    from .urls import site_of_url

    site_urls = [s["url"] for s in sites]
    srcs: list[str] = []
    dsts: list[str] = []
    for url, html in zip(batch.column("url").to_pylist(), batch.column("html").to_pylist()):
        sid = site_of_url(url, site_urls)
        if sid < 0 or html is None:
            continue
        for dst in extract_links(html, url, site_urls[sid]):
            srcs.append(normalize_url(url))
            dsts.append(dst)
    return pa.table(
        {"src_url": pa.array(srcs, pa.string()), "dst_url": pa.array(dsts, pa.string())}
    )


def extract_links_ds(pages, sites: list[dict]):
    """pages Dataset → in-site link graph (src_url, dst_url)."""
    return pages.map_batches(
        lambda b: extract_links_batch(b, sites), batch_format="pyarrow"
    )


class _AnchorCollector(HTMLParser):
    """Collects (href, anchor text) pairs — the text between <a> and
    </a>, char-refs resolved, nested tags' text included."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.anchors: list[tuple[str, str]] = []
        self._href: str | None = None
        self._buf: list[str] = []

    def handle_starttag(self, tag: str, attrs) -> None:  # noqa: ANN001
        if tag == "a":
            self._href = next((v for k, v in attrs if k == "href"), None)
            self._buf = []

    def handle_endtag(self, tag: str) -> None:
        if tag == "a":
            if self._href is not None:
                # data chunks carry their own whitespace — concatenate raw
                self.anchors.append((self._href, "".join(self._buf)))
            self._href = None

    def handle_data(self, data: str) -> None:
        if self._href is not None and data:
            self._buf.append(data)


def extract_anchors(html: str | bytes, page_url: str, site_url: str) -> list[tuple[str, str]]:
    """In-site (dst_url, anchor_text) of one page — same skip/absolutize/
    normalize/in-site filter as ``extract_links``, first occurrence per
    dst (crawlLinks dedup), anchor text verbatim."""
    if isinstance(html, (bytes, bytearray, memoryview)):
        html = decode_html(bytes(html))
    parser = _AnchorCollector()
    try:
        parser.feed(html)
        parser.close()
    except Exception:
        pass
    site_norm = normalize_url(site_url)
    out: list[tuple[str, str]] = []
    seen: set[str] = set()
    for href, text in parser.anchors:
        if not href or href.startswith("javascript:") or href.startswith("mailto:") or href == "#":
            continue
        abs_url = urljoin(page_url, href)
        if not abs_url or abs_url == "#":
            continue
        nu = normalize_url(abs_url)
        if not nu.startswith(site_norm):
            continue
        if nu not in seen:
            seen.add(nu)
            out.append((nu, text))
    return out


def anchor_terms_ds(pages, sites: list[dict]):
    """→ (dst_url, term, cnt): aggregated anchor-text term counts per
    link target — the classic web-ranking signal (anchor terms describe
    the TARGET page; feeding them into its index entry is how engines
    rank pages for words they never contain).

    Scale shape: a stateless map explodes (dst_url, term) rows with a
    per-batch Arrow ``group_by`` combiner, then one groupby-sum on
    (dst_url, term) — the exchange moves per-batch anchor vocabularies
    (tiny: anchors are a few words), never page HTML."""
    import pyarrow.compute as pc

    from .tokenize import tokenize
    from .urls import site_of_url

    def explode(batch: pa.Table, sites=sites) -> pa.Table:
        site_urls = [s["url"] for s in sites]
        dsts: list[str] = []
        terms: list[str] = []
        for url, html in zip(
            batch.column("url").to_pylist(), batch.column("html").to_pylist()
        ):
            sid = site_of_url(url, site_urls)
            if sid < 0 or html is None:
                continue
            for dst, text in extract_anchors(html, url, site_urls[sid]):
                for t in tokenize(text):
                    dsts.append(dst)
                    terms.append(t)
        t = pa.table(
            {"dst_url": pa.array(dsts, pa.string()), "term": pa.array(terms, pa.string())}
        )
        c = t.group_by(["dst_url", "term"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "dst_url": c["dst_url"],
                "term": c["term"],
                "cnt": pc.cast(c["count_all"], pa.int64()),
            }
        )

    out = pages.map_batches(explode, batch_format="pyarrow").groupby(
        ["dst_url", "term"]
    ).sum("cnt")
    return out.map_batches(
        lambda t: pa.table(
            {
                "dst_url": t["dst_url"],
                "term": t["term"],
                "cnt": pc.cast(t["sum(cnt)"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def anchor_search_ds(pages, sites: list[dict], query: str):
    """→ (dst_url, score): anchor-text ranking — pages scored by the
    tf·idf of INCOMING anchor terms matching the query (a page ranks
    for words it never contains; the signal that made early web search
    work).  idf is anchor-corpus-level: N = link targets with any
    anchor, df(t) = targets with anchor term t, idf = ln((N+1)/(df+1))
    (the serving convention); score(d) = Σ_t cnt(d,t)·idf(t).

    Scale shape: the (dst_url, term, cnt) aggregation is
    :func:`anchor_terms_ds` (per-batch combiners + one keyed exchange);
    term stats fold from per-batch distinct-dst partials — safe because
    (dst, term) rows are globally unique after that groupby; N is one
    key-grain count.  The query-term idf map broadcasts into a final
    stateless scoring pass."""
    import numpy as np
    import ray

    from .tokenize import tokenize

    terms = sorted(set(tokenize(query)))
    agg = anchor_terms_ds(pages, sites).materialize()
    if not terms:
        return agg.map_batches(
            lambda t: pa.table(
                {
                    "dst_url": pa.array([], pa.string()),
                    "score": pa.array([], pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )

    # N: distinct link targets (key-grain count through one exchange)
    n_targets = agg.groupby("dst_url").count().count()

    # df per query term: (dst, term) rows are unique → per-batch counts
    # sum exactly
    t_arr = np.array(terms)
    t_ref = ray.put(t_arr)

    def df_partial(batch: pa.Table) -> pa.Table:
        qt = ray.get(t_ref)
        tv = batch.column("term").to_numpy(zero_copy_only=False)
        cnts = np.array([(tv == t).sum() for t in qt], np.int64)
        return pa.table(
            {"term": pa.array(qt, pa.string()), "df": pa.array(cnts, pa.int64())}
        )

    df_map: dict[str, int] = {t: 0 for t in terms}
    for ref in agg.map_batches(df_partial, batch_format="pyarrow").materialize().to_arrow_refs():
        t = ray.get(ref)
        for name, c in zip(t.column("term").to_pylist(), t.column("df").to_pylist()):
            df_map[name] += c
    dfs = np.array([df_map[t] for t in terms], np.int64)

    idf = np.log((n_targets + 1.0) / (dfs.astype(np.float64) + 1.0))
    model_ref = ray.put((t_arr, idf))

    def score_partial(batch: pa.Table) -> pa.Table:
        qt, idfv = ray.get(model_ref)
        tv = batch.column("term").to_numpy(zero_copy_only=False)
        cnt = batch.column("cnt").to_numpy(zero_copy_only=False).astype(np.float64)
        w = np.zeros(len(tv), np.float64)
        hit = np.zeros(len(tv), bool)
        for i, t in enumerate(qt):
            m = tv == t
            hit |= m
            w[m] = cnt[m] * idfv[i]
        return pa.table(
            {
                "dst_url": batch.column("dst_url").filter(pa.array(hit)),
                "contrib": pa.array(w[hit], pa.float64()),
            }
        )

    scored = (
        agg.map_batches(score_partial, batch_format="pyarrow")
        .groupby("dst_url")
        .sum("contrib")
    )
    return scored.map_batches(
        lambda t: pa.table(
            {
                "dst_url": t["dst_url"],
                "score": pa.array(
                    np.round(
                        t["sum(contrib)"].to_numpy(zero_copy_only=False), 6
                    ),
                    pa.float64(),
                ),
            }
        )
        if len(t) and "dst_url" in t.column_names
        else pa.table(
            {"dst_url": pa.array([], pa.string()), "score": pa.array([], pa.float64())}
        ),
        batch_format="pyarrow",
    )
