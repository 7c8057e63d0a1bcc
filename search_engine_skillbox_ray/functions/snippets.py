"""Result decoration: title (M10) and highlighted snippet (M12).

Reference semantics:

* Title — /root/reference/src/main/java/searchengine/service/SearchServiceImpl.java:240-251:
  first ``min(len, 120)`` chars of the TRIMMED extracted text (content is
  extracted text, NOT the HTML ``<title>``); when truncated, cut at the
  last space if its index is > 10 and append ``"..."`` (a 120-char cut
  whose last space is at index <= 10 is kept verbatim, no ellipsis);
  blank content falls back to the page path.

* Snippet — /root/reference/src/main/java/searchengine/service/SnippetService.java:17-86:
  re-extract + collapse ASCII whitespace; for each distinct query word
  (trimmed, lowercased, insertion order) find the FIRST case-insensitive
  substring occurrence; cut a ±60-char window, Java-trim it, add ``"..."``
  edge markers; ``<b>``-highlight whole-word matches inside the window
  (Java default ``\\b`` = ASCII word boundary — a quirk this port
  preserves: all-Cyrillic words are never highlighted because no ASCII
  word boundary exists around them); keep the first <= 2 segments joined
  with ``" ... "``; cap at 300 chars (trim, cut at last space when past
  the midpoint) + ``"..."``; fallback = first 300 chars of the text.

Cost: a hit pays for its ±60-char windows plus a few C substring scans
and one ``lower()`` of its text, not for two regex passes over the page.
The stored content is already extracted text, so the re-extract and the
whitespace collapse run only when they can change it, and skipping them
is exact:

* ``_JAVA_WS_RE.sub(" ", t)`` replaces each maximal run of ASCII
  whitespace by one space, so it returns ``t`` unchanged iff every run
  already is a single ``" "``: ``t`` holds no ``\\t \\n \\x0b \\f \\r``
  and no ``"  "`` (``_WS_CHANGERS``).
* ``extract_text`` of text with no markup, entity, U+00A0, U+200B or
  U+00AD (``_REPARSE_TRIGGERS``) yields the same characters up to ASCII
  whitespace runs, which the collapse above normalises either way.

Nothing is stored or cached per document: a second copy of the text
would raise the engine's resident memory, and a per-doc memo only pays
on repeated hits.
"""

from __future__ import annotations

import re

from .extract import extract_text

WINDOW = 60
MAX_SNIPPET_LENGTH = 300

# Java \s without UNICODE_CHARACTER_CLASS: ASCII whitespace only.
_JAVA_WS_RE = re.compile(r"[ \t\n\x0b\f\r]+")
# ``_JAVA_WS_RE.sub(" ", t)`` is the identity iff ``t`` holds none of these
_WS_CHANGERS = ("\t", "\n", "\x0b", "\f", "\r", "  ")
# chars whose presence forces the full Jsoup-semantics re-parse
_REPARSE_TRIGGERS = ("<", ">", "&", "\xa0", "\u200b", "\xad")
_ASCII_WORD = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _contains_any(text: str, needles: tuple[str, ...]) -> bool:
    for n in needles:
        if n in text:
            return True
    return False


def _java_trim(s: str) -> str:
    start, end = 0, len(s)
    while start < end and s[start] <= "\x20":
        start += 1
    while end > start and s[end - 1] <= "\x20":
        end -= 1
    return s[start:end]


def extract_title(content: str | None, path: str) -> str:
    """M10: text-prefix title with last-space truncation."""
    if content is None or not content.strip():
        return path
    trimmed = content.strip()
    end = min(len(trimmed), 120)
    candidate = trimmed[:end]
    if end < len(trimmed):
        last_space = candidate.rfind(" ")
        if last_space > 10:
            candidate = candidate[:last_space] + "..."
    return candidate


def _is_word(ch: str | None) -> bool:
    return ch is not None and ch in _ASCII_WORD


def _highlight_segment(seg: str, word_lower: str) -> str:
    """``<b>``-wrap matches of ``word_lower`` at Java-default (ASCII) word
    boundaries, case-insensitive with Unicode case folding — replicating
    ``Pattern.compile("\\b"+quote(w)+"\\b", CASE_INSENSITIVE|UNICODE_CASE)``.
    """
    if not seg or not word_lower or not word_lower.strip():
        return seg
    pat = re.compile(re.escape(word_lower), re.IGNORECASE)
    out: list[str] = []
    pos = 0
    for m in pat.finditer(seg):
        s, e = m.span()
        prev_ch = seg[s - 1] if s > 0 else None
        next_ch = seg[e] if e < len(seg) else None
        first, last = seg[s], seg[e - 1]
        # \b holds iff word-ness flips across the position.
        if _is_word(prev_ch) == _is_word(first) or _is_word(next_ch) == _is_word(last):
            continue
        out.append(seg[pos:s])
        out.append("<b>" + m.group() + "</b>")
        pos = e
    out.append(seg[pos:])
    return "".join(out)


def _extract_segment(text: str, match_index: int, match_len: int) -> str:
    start = max(0, match_index - WINDOW)
    end = min(len(text), match_index + match_len + WINDOW)
    seg = _java_trim(text[start:end])
    if start > 0:
        seg = "..." + seg
    if end < len(text):
        seg = seg + "..."
    return seg


def generate_snippet(content: str | None, query_words: list[str] | None) -> str:
    """M12: first-occurrence windows for up to two query words."""
    if content is None or not content.strip():
        return ""
    # both whole-page passes run only when they can change the text
    # (module docstring); on stored extracted text they almost never do.
    text = extract_text(content) if _contains_any(content, _REPARSE_TRIGGERS) else content
    if _contains_any(text, _WS_CHANGERS):
        text = _JAVA_WS_RE.sub(" ", text)
    text = _java_trim(text)
    lower = text.lower()

    words = list(
        dict.fromkeys(
            w.strip().lower()
            for w in (query_words or [])
            if w is not None and w.strip()
        )
    )

    segments: list[str] = []
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
