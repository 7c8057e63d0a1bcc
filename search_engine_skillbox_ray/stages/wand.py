"""Block-max top-k over 128-bit docID segments (the hash-id scale path).

At a true 10^12-doc corpus the hash-docID fallback needs 128 bits
(codec.py "128-bit ids": md5(url) → (hi, lo) uint64 pair, borrow-aware
gap codec, ``SEGMENT_SCHEMA_128``). This module is the query side of
that path (``pipelines/index128.topk_128``): cursor comparisons, block
skips and the top-k frontier all operate on the (hi, lo) total order,
so a query runs directly over 128-bit segments:

* ``topk_conjunctive_bmw_128`` — AND semantics, block-max WAND with the
  decode-free metadata pre-check (frontier jumps whole blocks from
  ``block_last_doc_hi/lo`` without decoding).
* ``topk_disjunctive_maxscore_128`` — OR semantics, MaxScore essential/
  non-essential split with block-bound probe aborts.

Both return EXACTLY the exhaustive top-k (ties: score desc, docID asc
in 128-bit order). The frontier carries docIDs as Python ints (128-bit
exact); inside blocks all comparisons are two-level ``searchsorted``
over the uint64 (hi, lo) arrays.

The dense int64 engine (``state/engine.SearchEngine``) does not prune:
its ``topk`` is the first k of the vectorized exhaustive ranking, which
beat per-posting cursors like these on every index measured (NOTES.md,
which also times these kernels). Only the 128-bit path, which no
benchmark workload measures, still prunes.

Scorer model: ``weight_fn(tfs, idf, docs)`` where ``docs`` is the
(hi, lo) uint64 array pair (None for bounds); monotone in tf with upper
bound weight(block_max_tf).

Reference semantics source: searchengine/service/SearchServiceImpl.java
:139-160 (score-every-match); pruning is the block-max replacement at
scale.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .codec import decode_block_128

_M64 = (1 << 64) - 1

# process-local decode counter (pruning tests)
BLOCKS_DECODED = 0


def _key(hi: int, lo: int) -> int:
    return (int(hi) << 64) | int(lo)


def _first_ge(hi_arr: np.ndarray, lo_arr: np.ndarray, key: int) -> int:
    """First index i with (hi_arr[i], lo_arr[i]) >= key, arrays ascending
    in 128-bit order. Two-level binary search, no Python loop."""
    th = np.uint64(key >> 64)
    tl = np.uint64(key & _M64)
    i0 = int(np.searchsorted(hi_arr, th, side="left"))
    i1 = int(np.searchsorted(hi_arr, th, side="right"))
    if i0 == i1:  # no run with hi == th; hi_arr[i0] > th (or exhausted)
        return i0
    j = int(np.searchsorted(lo_arr[i0:i1], tl, side="left"))
    return i0 + j


class _TermCursor128:
    __slots__ = ("row", "idf", "n_blocks", "block", "docs_hi", "docs_lo",
                 "tfs", "lasts_hi", "lasts_lo", "block_bounds", "max_weight")

    def __init__(self, row: dict, idf: float, bound_fn: Callable[..., np.ndarray]):
        self.row = row
        self.idf = idf
        self.lasts_hi = np.asarray(row["block_last_doc_hi"], np.uint64)
        self.lasts_lo = np.asarray(row["block_last_doc_lo"], np.uint64)
        self.n_blocks = self.lasts_hi.size
        self.block = -1
        self.docs_hi = np.empty(0, np.uint64)
        self.docs_lo = np.empty(0, np.uint64)
        self.tfs = np.empty(0, np.int64)
        if self.n_blocks:
            self.block_bounds = bound_fn(
                np.asarray(row["block_max_tf"], dtype=np.int64), idf, None
            ).astype(np.float64)
            self.max_weight = float(self.block_bounds.max())
        else:
            self.block_bounds = np.empty(0, np.float64)
            self.max_weight = 0.0

    def _load_block(self, b: int) -> None:
        global BLOCKS_DECODED
        BLOCKS_DECODED += 1
        self.docs_hi, self.docs_lo, self.tfs = decode_block_128(self.row, b)
        self.block = b

    def block_of_doc(self, key: int) -> int:
        """First block whose last doc >= key; n_blocks when exhausted."""
        return _first_ge(self.lasts_hi, self.lasts_lo, key)

    def block_last_key(self, b: int) -> int:
        return _key(self.lasts_hi[b], self.lasts_lo[b])

    def seek(self, key: int) -> tuple[int, int] | None:
        """First posting with 128-bit docID >= key → (doc_key, tf)."""
        b = self.block_of_doc(key)
        if b >= self.n_blocks:
            return None
        if b != self.block:
            self._load_block(b)
        i = _first_ge(self.docs_hi, self.docs_lo, key)
        if i >= self.docs_hi.size:
            return None
        return _key(self.docs_hi[i], self.docs_lo[i]), int(self.tfs[i])


def _topk_push(heap: list, k: int, score: float, doc_key: int) -> None:
    item = (score, -doc_key)
    if len(heap) < k:
        heapq.heappush(heap, item)
    elif item > heap[0]:
        heapq.heapreplace(heap, item)


def _heap_threshold(heap: list, k: int) -> float:
    return heap[0][0] if len(heap) >= k else -np.inf


def _finalize(heap: list) -> tuple[list[tuple[int, int]], np.ndarray]:
    """→ ([(hi, lo) ascending by rank], scores). docIDs exceed int64, so
    the caller gets (hi, lo) int pairs rather than a numpy array."""
    items = sorted(heap, key=lambda x: (-x[0], -x[1]))
    keys = [-d for _, d in items]
    docs = [(key >> 64, key & _M64) for key in keys]
    scores = np.array([s for s, _ in items], dtype=np.float64)
    return docs, scores


def topk_conjunctive_bmw_128(
    term_rows: list[tuple[dict, float]],
    k: int,
    weight_fn: Callable[..., np.ndarray],
    bound_fn: Callable[..., np.ndarray] | None = None,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """AND-mode block-max WAND over 128-bit segments."""
    bound_fn = bound_fn or (lambda tfs, idf, _lasts=None: weight_fn(tfs, idf, None))
    if not term_rows or any(r["df"] == 0 for r, _ in term_rows):
        return [], np.empty(0, np.float64)
    cursors = [_TermCursor128(r, idf, bound_fn) for r, idf in term_rows]
    heap: list = []
    doc = 0
    while True:
        # decode-free pre-check from block metadata
        threshold = _heap_threshold(heap, k)
        if threshold > -np.inf:
            ub0 = 0.0
            min_last = None
            for c in cursors:
                b = c.block_of_doc(doc)
                if b >= c.n_blocks:
                    return _finalize(heap)
                ub0 += c.block_bounds[b]
                bl = c.block_last_key(b)
                if min_last is None or bl < min_last:
                    min_last = bl
            if ub0 < threshold:
                doc = min_last + 1
                continue
        aligned = True
        max_doc = doc
        states = []
        for c in cursors:
            s = c.seek(max_doc)
            if s is None:
                return _finalize(heap)
            states.append(s)
            if s[0] > max_doc:
                max_doc = s[0]
        for s in states:
            if s[0] != max_doc:
                aligned = False
        if not aligned:
            doc = max_doc
            continue
        ub = 0.0
        for c in cursors:
            b = c.block_of_doc(max_doc)
            ub += float(c.block_bounds[b])
        if ub >= _heap_threshold(heap, k):
            score = 0.0
            darr = (
                np.asarray([max_doc >> 64], np.uint64),
                np.asarray([max_doc & _M64], np.uint64),
            )
            for c in cursors:
                s = c.seek(max_doc)
                score += float(
                    weight_fn(np.asarray([s[1]], np.int64), c.idf, darr)[0]
                )
            _topk_push(heap, k, score, max_doc)
        doc = max_doc + 1


def topk_disjunctive_maxscore_128(
    term_rows: list[tuple[dict, float]],
    k: int,
    weight_fn: Callable[..., np.ndarray],
    bound_fn: Callable[..., np.ndarray] | None = None,
) -> tuple[list[tuple[int, int]], np.ndarray]:
    """OR-mode MaxScore with block-bound probe aborts, 128-bit ids."""
    bound_fn = bound_fn or (lambda tfs, idf, _lasts=None: weight_fn(tfs, idf, None))
    rows = [(r, idf) for r, idf in term_rows if r["df"] > 0]
    if not rows:
        return [], np.empty(0, np.float64)
    cursors = sorted(
        (_TermCursor128(r, idf, bound_fn) for r, idf in rows),
        key=lambda c: c.max_weight,
    )
    prefix = np.cumsum([c.max_weight for c in cursors])
    heap: list = []
    n = len(cursors)
    positions: list[tuple[int, int] | None] = [c.seek(0) for c in cursors]

    while True:
        threshold = _heap_threshold(heap, k)
        fe = 0
        while fe < n - 1 and prefix[fe] < threshold:
            fe += 1
        cand = None
        for ci in range(fe, n):
            p = positions[ci]
            if p is not None and (cand is None or p[0] < cand):
                cand = p[0]
        if cand is None:
            return _finalize(heap)
        score = 0.0
        cand_arr = (
            np.asarray([cand >> 64], np.uint64),
            np.asarray([cand & _M64], np.uint64),
        )
        for ci in range(fe, n):
            p = positions[ci]
            if p is not None and p[0] == cand:
                score += float(
                    weight_fn(np.asarray([p[1]], np.int64), cursors[ci].idf, cand_arr)[0]
                )
        for ci in range(fe - 1, -1, -1):
            c = cursors[ci]
            prev = float(prefix[ci - 1]) if ci > 0 else 0.0
            blk = c.block_of_doc(cand)
            contrib = float(c.block_bounds[blk]) if blk < c.n_blocks else 0.0
            if score + prev + contrib < threshold:
                score = None
                break
            p = c.seek(cand)
            if p is not None and p[0] == cand:
                score += float(
                    weight_fn(np.asarray([p[1]], np.int64), c.idf, cand_arr)[0]
                )
        if score is not None:
            _topk_push(heap, k, score, cand)
        for ci in range(fe, n):
            p = positions[ci]
            if p is not None and p[0] == cand:
                positions[ci] = cursors[ci].seek(cand + 1)
