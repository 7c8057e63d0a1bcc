"""Seeded synthetic crawl for the benchmark (independent of the program).

Everything the benchmark feeds the engine comes from here, derived only
from ``--seed``:

* four sites ``https://site0.example`` … ``https://site3.example``;
* a Zipf vocabulary of syllable words, Latin and Cyrillic;
* pages whose HTML carries ``<script>``/``<style>`` noise and a
  ``<title>`` made of words that never occur in page text, so leaked
  markup shows up as wrong matches;
* keep-latest duplicates: some URLs are crawled twice, and the later
  ``warc_ts`` (not the later row) must win;
* pages with no letters at all (counted as pages, never as indexed docs);
* the golden extracted text of every page, which only the oracle reads.

Ingest micro-batches upsert live URLs (half of each batch) and add new
URLs (the other half) whose text carries "fresh" words absent from the
base vocabulary, so a query for them shows exactly when a batch becomes
visible.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

SITES = [f"https://site{i}.example" for i in range(4)]

_LAT = ["ba", "den", "tor", "mi", "lus", "ka", "ver", "no", "sil", "te", "gra", "pon", "zu", "mar", "fel", "qui"]
_CYR = ["ра", "бо", "та", "ве", "сло", "ми", "до", "кни", "га", "пе", "ре", "во", "ли", "стра", "ни", "ца"]

# words that only appear inside markup the extractor must drop
NOISE_WORDS = ["scriptonly", "styleonly", "titleonly"]

VOCAB_SIZE = 1200  # Zipf-ranked page vocabulary (the base index of ``serve``)
N_FRESH = 200  # words only ingested pages carry
MEAN_WORDS = 80  # words per page (recrawls: half)
DUP_FRACTION = 0.08  # share of URLs crawled twice

_BASE_TS = dt.datetime(2026, 1, 1)


def make_words(rng: np.random.Generator, n: int, taken: set[str] | None = None) -> list[str]:
    seen = set(taken or ())
    out: list[str] = []
    while len(out) < n:
        syll = _LAT if rng.random() < 0.7 else _CYR
        w = "".join(rng.choice(syll) for _ in range(int(rng.integers(2, 5))))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def zipf_probs(n: int, s: float = 1.05) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return p / p.sum()


@dataclass
class Page:
    url: str
    site_id: int
    path: str
    text: str  # golden extracted text
    html: str
    ts: dt.datetime


@dataclass
class Corpus:
    vocab: list[str]
    fresh: list[str]
    pages: list[Page]  # crawl order, duplicates included
    batches: list[list[Page]] = field(default_factory=list)

    def latest(self) -> dict[str, Page]:
        """Keep-latest by URL over the crawl (later warc_ts wins)."""
        out: dict[str, Page] = {}
        for p in self.pages:
            cur = out.get(p.url)
            if cur is None or p.ts > cur.ts:
                out[p.url] = p
        return out

    def after_batches(self, n: int | None = None) -> dict[str, Page]:
        """Logical corpus after the first ``n`` ingest batches: the
        latest version of every URL, ingested versions overriding."""
        out = self.latest()
        for b in self.batches[: len(self.batches) if n is None else n]:
            for p in b:
                out[p.url] = p
        return out


def _html(rng: np.random.Generator, paras: list[str], title: str) -> str:
    body = "".join(f"<p>{p}</p>" for p in paras)
    deco = int(rng.integers(0, 4))
    if deco == 0:
        body = f"<script>var {NOISE_WORDS[0]} = 1;</script>" + body
    elif deco == 1:
        body = body + f"<style>.{NOISE_WORDS[1]} {{ display: none }}</style>"
    return f"<html><head><title>{title}</title></head><body>{body}</body></html>"


def _page_text(rng: np.random.Generator, words: np.ndarray, extra: list[str]) -> tuple[list[str], str]:
    toks = list(words) + extra
    if extra:
        rng.shuffle(toks)
    paras: list[str] = []
    k = 0
    while k < len(toks):
        n = min(len(toks) - k, int(rng.integers(12, 40)))
        paras.append(" ".join(toks[k: k + n]))
        k += n
    return paras, " ".join(paras)


def _make_page(rng, vocab, probs, site_id, path, ts, mean_words, extra=()) -> Page:
    n = max(4, int(rng.normal(mean_words, mean_words / 3)))
    words = rng.choice(vocab, size=n, p=probs)
    paras, text = _page_text(rng, words, list(extra))
    html = _html(rng, paras, f"{NOISE_WORDS[2]} {path}")
    return Page(SITES[site_id] + path, site_id, path, text, html, ts)


def generate(
    seed: int,
    n_pages: int,
    *,
    n_batches: int = 0,
    batch_pages: int = 0,
    vocab_size: int = VOCAB_SIZE,
    tag: str = "p",
) -> Corpus:
    """A crawl of ``n_pages`` rows (duplicates included) over a Zipf
    vocabulary of ``vocab_size`` words, plus ``n_batches`` ingest
    micro-batches of ``batch_pages`` pages each."""
    rng = np.random.default_rng(seed)
    vocab = make_words(rng, vocab_size, set(NOISE_WORDS))
    fresh = make_words(rng, N_FRESH, set(vocab) | set(NOISE_WORDS))
    probs = zipf_probs(vocab_size)
    vocab_arr = np.array(vocab)
    pages: list[Page] = []
    row = 0
    i = 0
    while len(pages) < n_pages:
        site_id = int(rng.integers(0, len(SITES)))
        path = f"/{tag}/{i}"
        ts = _BASE_TS + dt.timedelta(seconds=row)
        if rng.random() < 0.01:  # no letters: a page but not an indexed doc
            text = f"{i} 404 {row}"
            html = f"<html><head><title>{NOISE_WORDS[2]}</title></head><body><p>{text}</p></body></html>"
            pages.append(Page(SITES[site_id] + path, site_id, path, text, html, ts))
        else:
            pages.append(_make_page(rng, vocab_arr, probs, site_id, path, ts, MEAN_WORDS))
        row += 1
        if rng.random() < DUP_FRACTION and len(pages) < n_pages:
            # a later recrawl of the same URL with new text
            later = _BASE_TS + dt.timedelta(seconds=row + 10 * n_pages)
            pages.append(_make_page(rng, vocab_arr, probs, site_id, path, later, MEAN_WORDS // 2))
            row += 1
        i += 1
    # crawl order is not time order: shuffle so "latest" != "last seen"
    order = rng.permutation(len(pages))
    corpus = Corpus(vocab, fresh, [pages[j] for j in order])

    live = sorted(corpus.latest())
    for b in range(n_batches):
        batch: list[Page] = []
        n_up = batch_pages // 2
        current = corpus.after_batches(b)
        for url in rng.choice(live, size=n_up, replace=False):
            cur = current[url]
            ts = _BASE_TS + dt.timedelta(days=1 + b)
            batch.append(
                _make_page(rng, vocab_arr, probs, cur.site_id, cur.path, ts, MEAN_WORDS,
                           extra=[fresh[int(rng.integers(0, N_FRESH))]])
            )
        for j in range(batch_pages - n_up):
            site_id = int(rng.integers(0, len(SITES)))
            ts = _BASE_TS + dt.timedelta(days=1 + b)
            page = _make_page(rng, vocab_arr, probs, site_id, f"/new{b}/{j}", ts, MEAN_WORDS,
                              extra=[fresh[int(rng.integers(0, N_FRESH))]])
            batch.append(page)
            live.append(page.url)
        corpus.batches.append(batch)
    return corpus


def pages_table(pages: list[Page]) -> pa.Table:
    """The program's input shape: ``pages(url, warc_ts, html, lang)``.
    The golden text is deliberately not handed to the program."""
    return pa.table(
        {
            "url": pa.array([p.url for p in pages], pa.string()),
            "warc_ts": pa.array([p.ts for p in pages], pa.timestamp("us")),
            "html": pa.array([p.html.encode() for p in pages], pa.binary()),
            "lang": pa.array(["en"] * len(pages), pa.string()),
        }
    )


@dataclass(frozen=True)
class Query:
    text: str
    site: str | None = None
    offset: int = 0
    limit: int = 10


def make_queries(vocab: list[str], n: int, *, fresh: list[str] | None = None,
                 site_share: float = 0.25, paged_share: float = 0.15, shape: int = 0) -> list[Query]:
    """``n`` distinct queries of 1–3 terms mixing head (rank < 20), mid
    (< 300) and tail vocabulary; some site-scoped, some paged. With
    ``fresh`` every query carries one fresh word (visibility probes).

    The *shape* of the set (term count, the vocabulary rank of every
    term, scope, paging) comes from a fixed generator, so the query cost
    mix is the same for every seed; the seed picks the words, through
    the seeded vocabulary. ``shape`` selects another fixed set."""
    rng = np.random.default_rng(10_000 + shape)
    tiers = [(0, 20), (20, 300), (300, len(vocab))]
    seen: set[Query] = set()
    out: list[Query] = []
    while len(out) < n:
        k = int(rng.integers(1, 4))
        words: list[str] = []
        for _ in range(k):
            lo, hi = tiers[int(rng.integers(0, 3))]
            words.append(vocab[int(rng.integers(lo, hi))])
        if fresh:
            words[int(rng.integers(0, len(words)))] = fresh[int(rng.integers(0, len(fresh)))]
        site = SITES[int(rng.integers(0, len(SITES)))] if rng.random() < site_share else None
        offset = int(rng.choice([10, 20])) if rng.random() < paged_share else 0
        q = Query(" ".join(words), site, offset, 10)
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


# fixed probes: markup words must never match, digits are separators
PROBE_QUERIES = [Query(w) for w in NOISE_WORDS] + [Query("404")]
