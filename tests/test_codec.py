"""Posting codec round-trip + block-max consistency + merge determinism
(SURVEY §5.3-§5.4), property-based via hypothesis."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st

from search_engine_skillbox_ray.stages.codec import (
    decode_posting_list,
    encode_posting_list,
    varbyte_decode,
    varbyte_encode,
)
from search_engine_skillbox_ray.stages.postings import SEGMENT_SCHEMA, merge_segment_rows

doc_sets = st.lists(
    st.integers(min_value=0, max_value=2**40), min_size=1, max_size=2000, unique=True
)


@given(doc_sets)
@settings(max_examples=60, deadline=None)
def test_varbyte_roundtrip(vals):
    arr = np.array(sorted(vals), dtype=np.int64)
    enc = varbyte_encode(arr)
    dec = varbyte_decode(enc, count=len(arr))
    assert np.array_equal(dec.astype(np.int64), arr)


def test_varbyte_large_values():
    arr = np.array([0, 1, 2**62, 2**63 - 1], dtype=np.uint64)
    assert np.array_equal(varbyte_decode(varbyte_encode(arr), count=4), arr)


@given(doc_sets, st.integers(min_value=1, max_value=10))
@settings(max_examples=40, deadline=None)
def test_posting_roundtrip_and_blocks(vals, seed):
    rng = np.random.default_rng(seed)
    docs = np.array(vals, dtype=np.int64)
    tfs = rng.integers(1, 10_000, size=len(docs))
    row = encode_posting_list(docs, tfs)
    d, t = decode_posting_list(row)
    order = np.argsort(docs, kind="stable")
    assert np.array_equal(d, docs[order])
    assert np.array_equal(t, tfs[order])
    assert row["df"] == len(docs)
    assert row["cf"] == int(tfs.sum())
    # block-max metadata consistent with full decode
    sorted_docs, sorted_tfs = docs[order], tfs[order]
    for b in range(len(row["block_last_doc"])):
        s, e = b * 128, min(len(docs), (b + 1) * 128)
        assert row["block_last_doc"][b] == sorted_docs[e - 1]
        assert row["block_max_tf"][b] == sorted_tfs[s:e].max()


@given(doc_sets, st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=99))
@settings(max_examples=40, deadline=None)
def test_merge_determinism_any_partition_order(vals, n_salts, seed):
    """Same docs split by any salt scheme, merged in any order by the
    build's bucket merge (``merge_segment_rows``) → identical segment
    bytes (SURVEY §5.4). Two (term, site) runs share the partial table,
    as in a real bucket."""
    rng = np.random.default_rng(seed)
    docs = np.array(vals, dtype=np.int64)
    runs = {("alpha", 0): rng.integers(1, 1000, size=len(docs)),
            ("beta", 1): rng.integers(1, 1000, size=len(docs))}

    partials = []
    for (term, site_id), tfs in runs.items():
        salts = rng.integers(0, n_salts, size=len(docs))
        for s in range(n_salts):
            if (salts == s).any():
                p = encode_posting_list(docs[salts == s], tfs[salts == s])
                partials.append(dict(p, bucket=3, site_id=site_id, term=term, salt=s))
    rng.shuffle(partials)
    group = pa.Table.from_pylist(partials, schema=SEGMENT_SCHEMA)
    merged = merge_segment_rows(group).to_pylist()

    assert [(r["term"], r["site_id"]) for r in merged] == list(runs)
    for r, tfs in zip(merged, runs.values()):
        reference = encode_posting_list(docs, tfs)
        assert r["bucket"] == 3 and r["salt"] == -1
        for key in ("df", "cf", "doc_gaps", "tf_bytes", "block_last_doc",
                    "block_max_tf", "block_gap_offset", "block_tf_offset"):
            assert r[key] == reference[key], key


def test_duplicate_docid_rejected():
    import pytest

    with pytest.raises(ValueError):
        encode_posting_list(np.array([1, 1]), np.array([1, 2]))
