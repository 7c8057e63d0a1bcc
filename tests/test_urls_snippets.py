"""M4-M6, M10-M12 conformance (SURVEY §5.6)."""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from search_engine_skillbox_ray.functions.extract import extract_text
from search_engine_skillbox_ray.functions.snippets import (
    MAX_SNIPPET_LENGTH,
    WINDOW,
    _JAVA_WS_RE,
    _extract_segment,
    _highlight_segment,
    _java_trim,
    extract_title,
    generate_snippet,
)
from search_engine_skillbox_ray.functions.urls import (
    build_full_url,
    extract_path,
    extract_site_name,
    normalize_url,
)


def test_normalize_url():
    # UrlUtils.java:16-34: strip #fragment, www. after scheme, ONE trailing /
    assert normalize_url("https://www.example.com/a/#sec") == "https://example.com/a"
    assert normalize_url("http://www.example.com/") == "http://example.com"
    assert normalize_url("https://example.com/a//") == "https://example.com/a/"
    assert normalize_url("https://example.com#x") == "https://example.com"
    assert normalize_url("https://sub.www.example.com/") == "https://sub.www.example.com"


def test_extract_path():
    assert extract_path("https://www.example.com/a/b", "https://example.com") == "/a/b"
    assert extract_path("https://example.com", "https://example.com") == "/"
    assert extract_path("https://other.com/x", "https://example.com") == "https://other.com/x"


def test_extract_site_name():
    # UrlUtils.java:43-60: host minus www., first dot-label, capitalized
    assert extract_site_name("https://www.lenta.ru/news") == "Lenta"
    assert extract_site_name("http://skillbox.ru") == "Skillbox"


def test_build_full_url():
    # SearchServiceImpl.java:209-237
    assert build_full_url("https://a.com", "/x") == "https://a.com/x"
    assert build_full_url("https://a.com/", "/x") == "https://a.com/x"
    assert build_full_url("https://a.com", "x") == "https://a.com/x"
    assert build_full_url("https://a.com", "") == "https://a.com/"
    assert build_full_url("https://a.com", "https://b.com/y") == "https://b.com/y"


def test_extract_title():
    # M10 (SearchServiceImpl.java:240-251): text prefix, NOT html <title>
    assert extract_title("short text", "/p") == "short text"
    assert extract_title("", "/p") == "/p"
    assert extract_title(None, "/p") == "/p"
    long = "word " * 40  # 200 chars
    t = extract_title(long, "/p")
    assert t.endswith("...") and len(t) <= 123
    # truncated exactly at last space before 120
    assert t == long.strip()[:120][: long[:120].rfind(" ")] + "..."
    # no space past index 10 → raw 120-char cut, no ellipsis
    blob = "a" * 200
    assert extract_title(blob, "/p") == "a" * 120


def test_snippet_basic_window():
    # M12 (SnippetService.java:17-86)
    text = "alpha beta gamma delta " * 20
    s = generate_snippet(text, ["gamma"])
    assert "<b>gamma</b>" in s
    assert len(s) <= 303 + 6  # 300 + "..." with edge markers


def test_snippet_two_segments_max():
    text = ("x " * 100) + "first " + ("y " * 100) + "second " + ("z " * 100)
    s = generate_snippet(text, ["first", "second", "x"])
    # only the first two query words produce segments
    assert "<b>first</b>" in s and "<b>second</b>" in s
    assert " ... " in s


def test_snippet_fallback_no_match():
    text = "plain words only here " * 30
    s = generate_snippet(text, ["absent"])
    assert s.endswith("...") and len(s) <= 303
    assert s.startswith("plain words")


def test_snippet_substring_match_word_boundary_highlight():
    # indexOf finds substring matches, but highlight needs \b boundaries
    s = generate_snippet("the catalog entry", ["cat"])
    # window found via substring 'cat' in 'catalog', but no whole-word match
    assert "<b>" not in s


def test_snippet_case_insensitive_highlight_preserves_case():
    s = generate_snippet("The Merge wins", ["merge"])
    assert "<b>Merge</b>" in s


def test_snippet_blank():
    assert generate_snippet("", ["a"]) == ""
    assert generate_snippet(None, ["a"]) == ""


def test_snippet_duplicate_words_deduped():
    s = generate_snippet("only one window here", ["window", "Window", " window "])
    assert s.count("<b>window</b>") == 1


def test_extract_links_m7_semantics():
    # UrlUtils.java:62-107: skip empty/javascript:/mailto:/#, absolutize,
    # normalize, in-site filter, dedup (first occurrence)
    from search_engine_skillbox_ray.functions.links import extract_links

    html = """
    <body>
      <a href="/p/1">one</a>
      <a href="p/2#frag">two</a>
      <a href="https://www.site0.example/p/3/">three-www-slash</a>
      <a href="https://other.example/x">external</a>
      <a href="javascript:void(0)">js</a>
      <a href="mailto:a@b.c">mail</a>
      <a href="#">hash</a>
      <a href="">empty</a>
      <a href="/p/1">dup</a>
    </body>"""
    links = extract_links(html, "https://site0.example/start", "https://site0.example")
    assert links == [
        "https://site0.example/p/1",
        "https://site0.example/p/2",
        "https://site0.example/p/3",
    ]


def test_extract_links_ds(ray_session):
    import ray.data as rd

    from search_engine_skillbox_ray.functions.links import extract_links_ds
    from search_engine_skillbox_ray.sources.fixtures import generate_pages_table
    from search_engine_skillbox_ray.sources.pages import derive_sites

    import pyarrow as pa

    tbl = pa.table(
        {
            "url": ["https://site0.example/a", "https://site0.example/b"],
            "html": [
                b'<body><a href="/b">b</a><a href="https://ext.example/x">out</a></body>',
                b'<body><a href="/a">a</a><a href="/a#top">same</a></body>',
            ],
        }
    )
    pages = rd.from_arrow(tbl)
    sites = derive_sites(pages)
    graph = extract_links_ds(pages, sites).to_pandas()
    got = {tuple(r) for r in graph[["src_url", "dst_url"]].itertuples(index=False)}
    assert got == {
        ("https://site0.example/a", "https://site0.example/b"),
        ("https://site0.example/b", "https://site0.example/a"),
    }


# --- generate_snippet equivalence: the skip-when-identity passes vs the
# always-run passes. ``_snippet_always_passes`` is the function body
# before the passes became conditional: the re-extract whenever a trigger
# char occurs, the whitespace collapse always.

_OLD_NEEDS_REPARSE_RE = re.compile("[<>&\xa0\u200b\xad]")


def _snippet_always_passes(content, query_words):
    if content is None or not content.strip():
        return ""
    if _OLD_NEEDS_REPARSE_RE.search(content) is None:
        text = content
    else:
        text = extract_text(content)
    text = _java_trim(_JAVA_WS_RE.sub(" ", text))
    lower = text.lower()

    words = list(
        dict.fromkeys(
            w.strip().lower()
            for w in (query_words or [])
            if w is not None and w.strip()
        )
    )

    segments = []
    for w in words:
        idx = lower.find(w)
        if idx >= 0:
            seg = _extract_segment(text, idx, len(w))
            segments.append(_highlight_segment(seg, w))
            if len(segments) >= 2:
                break

    if not segments:
        if len(text) <= MAX_SNIPPET_LENGTH:
            return text
        return _java_trim(text[:MAX_SNIPPET_LENGTH]) + "..."

    snippet = " ... ".join(segments)
    if len(snippet) > MAX_SNIPPET_LENGTH:
        snippet = _java_trim(snippet[:MAX_SNIPPET_LENGTH])
        last_space = snippet.rfind(" ")
        if last_space > len(snippet) // 2:
            snippet = snippet[:last_space]
        snippet = snippet + "..."
    return snippet


_WORDS = [
    "alpha", "Beta", "GAMMA", "delta_9", "x", "404", "поиск", "Индекс",
    "слово", "ёлка", "Kelvin", "kelvin", "ſoft", "soft", "Straße",
    "İstanbul", "istanbul", "cat", "catalog",
]
_SEPS = [
    " ", " ", " ", " ", "\t", "\n", "\r", "\r\n", "\x0b", "\f", "  ", " \t ",
    "\xa0", "\u200b", "\xad", " &amp; ", "<b>", "</b>", " <br> ", "&",
]
_EDGES = ["", " ", "  ", "\n", "\t ", "\r\n", "\x0b", "\xa0"]


def _query_pool(words):
    return words + [w.upper() for w in words] + ["K", "k", "ſ", "s", "absent", " ", ""]


def _assert_same(text, query):
    assert generate_snippet(text, query) == _snippet_always_passes(text, query), (text, query)


def test_snippet_equivalence_seeded_injected_texts():
    # a third plain, a third with one kind of injection (so each trigger
    # is the only one present), a third mixed
    rng = random.Random(8)
    for case in range(600):
        kind = case % 3
        one = rng.choice(_SEPS)
        parts = [rng.choice(_EDGES)] if kind == 2 else []
        for _ in range(rng.randint(1, 120)):
            parts.append(rng.choice(_WORDS))
            if kind == 0:
                parts.append(" ")
            elif kind == 1:
                parts.append(one if rng.random() < 0.1 else " ")
            else:
                parts.append(rng.choice(_SEPS))
        if kind == 2:
            parts.append(rng.choice(_EDGES))
        text = "".join(parts)
        pool = _query_pool(_WORDS)
        _assert_same(text, rng.sample(pool, rng.randint(0, 4)))


def test_snippet_equivalence_window_edges():
    # the query word sits at the text's ends, at exactly WINDOW chars from
    # them and one char either side, with whitespace runs around the cut
    for lead in range(WINDOW - 3, WINDOW + 4):
        for trail in (0, 1, WINDOW - 1, WINDOW, WINDOW + 1):
            for sep in (" ", "  ", "\t", "\r\n", "\xa0"):
                text = ("ab" * lead)[:lead] + sep + "Target" + sep + ("cd" * trail)[:trail]
                _assert_same(text, ["target"])
                _assert_same(text, ["tar", "ab"])
                _assert_same("Target" + sep + text, ["target", "cd"])
                _assert_same(text + sep + "Target", ["TARGET"])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(_WORDS + _SEPS + _EDGES), max_size=80),
    st.lists(st.sampled_from(_query_pool(_WORDS)), max_size=4),
)
def test_snippet_equivalence_property(pieces, query):
    _assert_same("".join(pieces), query)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.sampled_from("ab Kſд\t\n\r\x0b\f\x00\x1f='\"/!;"), max_size=40))
def test_extract_text_changes_trigger_free_text_only_by_whitespace(text):
    # why the re-extract may be skipped without <, >, &, U+00A0, U+200B, U+00AD
    collapse = lambda t: _java_trim(_JAVA_WS_RE.sub(" ", t))  # noqa: E731
    assert collapse(extract_text(text)) == collapse(text)
