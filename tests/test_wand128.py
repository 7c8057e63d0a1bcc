"""128-bit docID top-k (stages/wand): exact equivalence vs
exhaustive decode+score over the hash-id scale path's segments,
including the Parquet storage round-trip and the decode-free
conjunctive block skip."""

import numpy as np
import pyarrow as pa
import pytest

from search_engine_skillbox_ray.stages.codec import (
    assign_doc_ids_128,
    decode_posting_list_128,
    encode_posting_list_128,
)
from search_engine_skillbox_ray.stages.postings import (
    SEGMENT_SCHEMA_128,
    posting_row_128_from_storage,
    posting_row_128_to_storage,
)
from search_engine_skillbox_ray.stages.wand import (
    topk_conjunctive_bmw_128,
    topk_disjunctive_maxscore_128,
)

_M64 = (1 << 64) - 1


def tfidf_weight(tfs: np.ndarray, idf: float, docs=None) -> np.ndarray:
    return tfs.astype(np.float64) * idf


def _exhaustive(term_rows, k, weight_fn, conjunctive: bool):
    acc: dict[int, float] = {}
    seen: list[set[int]] = []
    for row, idf in term_rows:
        hi, lo, tfs = decode_posting_list_128(row)
        keys = [(int(h) << 64) | int(l) for h, l in zip(hi, lo)]
        seen.append(set(keys))
        for key, w in zip(keys, weight_fn(tfs, idf).tolist()):
            acc[key] = acc.get(key, 0.0) + w
    if conjunctive:
        keep = set.intersection(*seen) if seen else set()
        acc = {d: s for d, s in acc.items() if d in keep}
    items = sorted(acc.items(), key=lambda x: (-x[1], x[0]))[:k]
    docs = [(d >> 64, d & _M64) for d, _ in items]
    return docs, [s for _, s in items]


def _make_terms_128(rng, n_terms, universe, overlap_pool=None):
    """Posting lists over md5-style sparse 128-bit ids; integer idf
    keeps float64 sums exact (order-independent compare)."""
    if overlap_pool is None:
        urls = [f"https://s.example/p/{i}" for i in range(universe)]
        overlap_pool = assign_doc_ids_128(urls)
    pool_hi, pool_lo = overlap_pool
    rows = []
    for _ in range(n_terms):
        n = int(rng.integers(2, universe))
        sel = rng.choice(universe, size=n, replace=False)
        tfs = rng.integers(1, 40, size=n)
        idf = float(rng.integers(1, 5))
        rows.append((encode_posting_list_128(pool_hi[sel], pool_lo[sel], tfs), idf))
    return rows


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [1, 7, 40])
def test_maxscore_128_equivalence_or(seed, k):
    rng = np.random.default_rng(seed)
    rows = _make_terms_128(rng, n_terms=int(rng.integers(1, 5)), universe=700)
    got_d, got_s = topk_disjunctive_maxscore_128(rows, k, tfidf_weight)
    exp_d, exp_s = _exhaustive(rows, k, tfidf_weight, conjunctive=False)
    assert [(int(h), int(l)) for h, l in got_d] == [(int(h), int(l)) for h, l in exp_d]
    assert got_s.tolist() == pytest.approx(exp_s)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [1, 7, 40])
def test_bmw_128_equivalence_and(seed, k):
    rng = np.random.default_rng(seed + 50)
    rows = _make_terms_128(rng, n_terms=int(rng.integers(2, 4)), universe=400)
    got_d, got_s = topk_conjunctive_bmw_128(rows, k, tfidf_weight)
    exp_d, exp_s = _exhaustive(rows, k, tfidf_weight, conjunctive=True)
    assert [(int(h), int(l)) for h, l in got_d] == [(int(h), int(l)) for h, l in exp_d]
    assert got_s.tolist() == pytest.approx(exp_s)


def test_128_storage_round_trip_then_query():
    """Engine adoption end to end: encode → SEGMENT_SCHEMA_128 Parquet
    storage row → decode → query. The query must see the identical
    top-k through the storage round trip."""
    rng = np.random.default_rng(11)
    rows = _make_terms_128(rng, n_terms=3, universe=500)
    stored = []
    for payload, idf in rows:
        srow = posting_row_128_to_storage(payload)
        srow.setdefault("term", "t")
        tbl = pa.Table.from_pylist([srow], schema=SEGMENT_SCHEMA_128)
        back = posting_row_128_from_storage(tbl.to_pylist()[0])
        stored.append((back, idf))
    for fn in (topk_disjunctive_maxscore_128, topk_conjunctive_bmw_128):
        d0, s0 = fn(rows, 15, tfidf_weight)
        d1, s1 = fn(stored, 15, tfidf_weight)
        assert [(int(a), int(b)) for a, b in d0] == [(int(a), int(b)) for a, b in d1]
        assert s0.tolist() == s1.tolist()


def test_bmw_128_precheck_skips_decodes():
    """The decode-free conjunctive pre-check works in 128-bit space."""
    import search_engine_skillbox_ray.stages.wand as w128

    n = 4096  # 32 blocks of 128 per list
    urls = [f"https://s.example/p/{i}" for i in range(n)]
    hi, lo = assign_doc_ids_128(urls)
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    tfs = np.ones(n, dtype=np.int64)
    tfs[:128] = 50  # heap fills inside block 0
    rows = [
        (encode_posting_list_128(hi, lo, tfs), 2.0),
        (encode_posting_list_128(hi, lo, tfs), 2.0),
    ]
    w128.BLOCKS_DECODED = 0
    d, s = topk_conjunctive_bmw_128(rows, 10, tfidf_weight)
    decoded = w128.BLOCKS_DECODED
    exp_d, exp_s = _exhaustive(rows, 10, tfidf_weight, conjunctive=True)
    assert [(int(a), int(b)) for a, b in d] == [(int(a), int(b)) for a, b in exp_d]
    assert s.tolist() == pytest.approx(exp_s)
    assert decoded <= 4, decoded


def test_128_empty_and_missing():
    empty = ({"df": 0, "block_last_doc_hi": [], "block_last_doc_lo": [],
              "block_max_tf": [], "block_gap_offset": [],
              "block_tf_offset": [], "doc_gaps": b"", "tf_bytes": b""}, 1.0)
    rng = np.random.default_rng(3)
    rows = _make_terms_128(rng, 2, 100)
    d, s = topk_conjunctive_bmw_128(rows + [empty], 10, tfidf_weight)
    assert d == [] and s.size == 0
    d2, s2 = topk_disjunctive_maxscore_128([empty], 10, tfidf_weight)
    assert d2 == [] and s2.size == 0
