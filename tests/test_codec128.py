"""128-bit docID codec + segment layer (the hash-id fallback's
10^12-doc scale path): LEB128 round-trip up to 19 bytes/value,
borrow-aware 128-bit delta gaps, independent block decode, merge
determinism, and Parquet storage through SEGMENT_SCHEMA_128."""

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engine_skillbox_ray.stages.codec import (
    assign_doc_ids_128,
    decode_block_128,
    decode_posting_list_128,
    encode_posting_list_128,
    varbyte_decode_128,
    varbyte_encode_128,
)
from search_engine_skillbox_ray.stages.postings import (
    SEGMENT_SCHEMA_128,
    posting_row_128_from_storage,
    posting_row_128_to_storage,
)


def _rand_u128(rng, n):
    """Mixed-magnitude 128-bit values: exercise every byte width."""
    hi = rng.integers(0, 1 << 63, size=n, dtype=np.uint64) * rng.integers(0, 2, n).astype(np.uint64)
    lo = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
    lo |= rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
    width = rng.integers(0, 128, size=n)
    for i in range(n):  # clamp each value to a random bit width
        w = int(width[i])
        if w < 64:
            hi[i] = 0
            lo[i] &= np.uint64((1 << max(w, 1)) - 1)
        else:
            hi[i] &= np.uint64((1 << max(w - 64, 1)) - 1)
    return hi, lo


@pytest.mark.parametrize("seed", range(5))
def test_varbyte_128_round_trip(seed):
    rng = np.random.default_rng(seed)
    hi, lo = _rand_u128(rng, 500)
    # include boundary values around every 7-bit threshold
    extras = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]
    for k in range(1, 19):
        extras += [(1 << (7 * k)) - 1, 1 << (7 * k)]
    ehi = np.array([v >> 64 for v in extras], np.uint64)
    elo = np.array([v & ((1 << 64) - 1) for v in extras], np.uint64)
    hi = np.concatenate([hi, ehi])
    lo = np.concatenate([lo, elo])
    buf = varbyte_encode_128(hi, lo)
    dh, dl = varbyte_decode_128(buf, count=hi.size)
    assert (dh == hi).all() and (dl == lo).all()


@pytest.mark.parametrize("seed", range(3))
def test_posting_list_128_round_trip_and_blocks(seed):
    rng = np.random.default_rng(seed)
    n = 700
    vals = sorted({int(x) for x in (rng.integers(0, 1 << 62, n).astype(object) * rng.integers(1, 1 << 60, n).astype(object))})
    hi = np.array([v >> 64 for v in vals], np.uint64)
    lo = np.array([v & ((1 << 64) - 1) for v in vals], np.uint64)
    tfs = rng.integers(1, 100, size=len(vals))
    perm = rng.permutation(len(vals))  # encode sorts internally
    row = encode_posting_list_128(hi[perm], lo[perm], tfs[perm])
    dh, dl, dt = decode_posting_list_128(row)
    assert (dh == hi).all() and (dl == lo).all() and (dt == tfs).all()
    # every block decodes independently to the matching slice
    nb = len(row["block_last_doc_hi"])
    pos = 0
    for b in range(nb):
        bh, bl, bt = decode_block_128(row, b)
        e = pos + bh.size
        assert (bh == hi[pos:e]).all() and (bl == lo[pos:e]).all() and (bt == tfs[pos:e]).all()
        assert int(bh[-1]) == int(row["block_last_doc_hi"][b])
        pos = e
    assert pos == len(vals)


def test_posting_list_128_duplicate_raises():
    hi = np.array([1, 1], np.uint64)
    lo = np.array([5, 5], np.uint64)
    with pytest.raises(ValueError):
        encode_posting_list_128(hi, lo, np.array([1, 2]))


def test_merge_128_deterministic(tmp_path):
    """The 128-bit index's per-term merge of the base bucket file and
    its LSM delta segment (``index128._load_term_row_128``) re-encodes
    exactly the one-shot payload, whichever half is the base."""
    from search_engine_skillbox_ray.pipelines.index128 import _load_term_row_128

    rng = np.random.default_rng(9)
    vals = sorted({int(x) << 40 for x in rng.integers(0, 1 << 62, 400)})
    hi = np.array([v >> 64 for v in vals], np.uint64)
    lo = np.array([v & ((1 << 64) - 1) for v in vals], np.uint64)
    tfs = rng.integers(1, 50, size=len(vals))
    whole = encode_posting_list_128(hi, lo, tfs)
    a = encode_posting_list_128(hi[::2], lo[::2], tfs[::2])
    b = encode_posting_list_128(hi[1::2], lo[1::2], tfs[1::2])
    for name, (base, delta) in (("ab", (a, b)), ("ba", (b, a))):  # order-independent
        out = tmp_path / name
        out.mkdir()
        for fname, payload in (("bucket=00000.parquet", base),
                               ("bucket=00000.delta-0001.parquet", delta)):
            row = posting_row_128_to_storage(payload)
            row["term"] = "t"
            pq.write_table(pa.Table.from_pylist([row], schema=SEGMENT_SCHEMA_128), out / fname)
        assert _load_term_row_128(out, 0, "t") == whole, name


def test_assign_doc_ids_128_is_md5():
    urls = ["https://a.example/p/1", "https://b.example/", ""]
    hi, lo = assign_doc_ids_128(urls)
    for i, u in enumerate(urls):
        d = hashlib.md5(u.encode()).digest()
        assert int(hi[i]) == int.from_bytes(d[:8], "big")
        assert int(lo[i]) == int.from_bytes(d[8:], "big")


def test_segment_128_parquet_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    urls = [f"https://s.example/p/{i}" for i in range(300)]
    hi, lo = assign_doc_ids_128(urls)  # genuinely >2^63 values appear
    tfs = rng.integers(1, 20, size=len(urls))
    payload = encode_posting_list_128(hi, lo, tfs)
    srow = posting_row_128_to_storage(payload)
    tbl = pa.table(
        {
            "bucket": pa.array([0], pa.int32()),
            "site_id": pa.array([-1], pa.int32()),
            "term": pa.array(["t"], pa.string()),
            "salt": pa.array([-1], pa.int32()),
            **{
                k: pa.array([srow[k]], SEGMENT_SCHEMA_128.field(k).type)
                for k in ("df", "cf", "doc_gaps", "tf_bytes")
            },
            **{
                k: pa.array([srow[k]], SEGMENT_SCHEMA_128.field(k).type)
                for k in (
                    "block_last_doc_hi", "block_last_doc_lo", "block_max_tf",
                    "block_gap_offset", "block_tf_offset",
                )
            },
        }
    ).cast(SEGMENT_SCHEMA_128)
    f = tmp_path / "seg128.parquet"
    pq.write_table(tbl, f)
    back = pq.read_table(f).to_pylist()[0]
    row = posting_row_128_from_storage(back)
    dh, dl, dt = decode_posting_list_128(row)
    order = np.lexsort((lo, hi))
    assert (dh == hi[order]).all() and (dl == lo[order]).all() and (dt == tfs[order]).all()
