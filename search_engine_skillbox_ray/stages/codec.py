"""Compressed posting-list codec: delta + varbyte, block-max metadata.

Replaces the reference's exploded one-row-per-(page, lemma) MySQL table
(/root/reference/src/main/java/searchengine/model/IndexEntity.java:7-25,
written at utils/PageIndexingUtils.java:128-159) with immutable compressed
segments:

* docIDs sorted ascending, delta-encoded (first gap = docID itself),
  varbyte (LEB128: 7 bits/byte, MSB set = continuation);
* term frequencies varbyte-encoded in the same order;
* per 128-doc block: last docID, max tf, and byte offsets into both
  streams so a block can be decoded (or skipped) independently —
  the block-max metadata that the 128-bit path's pruned top-k
  (:mod:`.wand`) reads.

All encode/decode paths are numpy-vectorized (no per-int Python loop):
encode computes per-value byte widths with 9 range compares and scatters
7-bit groups in <=10 vector passes; decode mirrors it — terminal-byte
classification, then one small gather-OR pass per byte position (single
pass when every value fits 7 bits, the tf-stream common case). The
per-byte-position loop beats a per-byte index/shift formulation ~20×:
no value-length gather arrays, no ``ufunc.at``.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128

_THRESHOLDS = [1 << (7 * k) for k in range(1, 10)]  # 2^7 .. 2^63


def varbyte_encode(values: np.ndarray) -> bytes:
    """LEB128-encode a non-negative integer array (vectorized)."""
    v = np.asarray(values)
    if v.size == 0:
        return b""
    if v.min() < 0:
        raise ValueError("varbyte_encode requires non-negative values")
    v = v.astype(np.uint64, copy=False)
    nb = np.ones(v.shape, dtype=np.int64)
    for t in _THRESHOLDS:
        nb += v >= np.uint64(t)
    ends = np.cumsum(nb)
    starts = ends - nb
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    max_nb = int(nb.max())
    for k in range(max_nb):
        mask = nb > k
        pos = starts[mask] + k
        byte = (v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nb[mask] > k + 1).astype(np.uint8) << 7
        out[pos] = byte.astype(np.uint8) | cont
    return out.tobytes()


def varbyte_decode(buf: bytes | memoryview, offset: int = 0, count: int | None = None) -> np.ndarray:
    """Decode LEB128 back to uint64; optionally only ``count`` values
    starting at byte ``offset`` (block-skip path)."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    if offset:
        arr = arr[offset:]
    if arr.size == 0:
        return np.empty(0, dtype=np.uint64)
    terminal = (arr & 0x80) == 0
    if count is not None:
        term_pos = np.flatnonzero(terminal)
        if count > term_pos.size:
            raise ValueError("not enough encoded values")
        arr = arr[: term_pos[count - 1] + 1] if count else arr[:0]
        terminal = terminal[: arr.size]
    term_pos = np.flatnonzero(terminal)
    n = term_pos.size
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    # per-byte-position passes (mirror of the encode loop): pass k ORs
    # the k-th byte of every value still wide enough — max 10 small
    # gathers, no per-byte index/shift arrays, no ufunc.at
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    np.add(term_pos[:-1], 1, out=starts[1:])
    nb = term_pos - starts + 1
    values = np.zeros(n, dtype=np.uint64)
    max_nb = int(nb.max())
    if max_nb == 1:  # common fast path (tf streams, small gaps)
        return (arr[starts] & 0x7F).astype(np.uint64)
    low = (arr & 0x7F).astype(np.uint64)
    for k in range(max_nb):
        m = nb > k
        values[m] |= low[starts[m] + k] << np.uint64(7 * k)
    return values


def encode_posting_list(doc_ids: np.ndarray, tfs: np.ndarray, block_size: int = BLOCK_SIZE) -> dict:
    """Encode one term's postings. ``doc_ids`` int64 ascending-sortable,
    ``tfs`` positive ints aligned with ``doc_ids`` (pre-sort not required).

    Returns the segment-row payload (see ``POSTING_FIELDS``).
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    order = np.argsort(doc_ids, kind="stable")
    doc_ids = doc_ids[order]
    tfs = tfs[order]
    if doc_ids.size and np.any(doc_ids[:-1] == doc_ids[1:]):
        raise ValueError("duplicate docID in posting list")

    gaps = np.empty_like(doc_ids, dtype=np.uint64)
    if doc_ids.size:
        gaps[0] = np.uint64(doc_ids[0])
        np.subtract(doc_ids[1:].astype(np.uint64), doc_ids[:-1].astype(np.uint64), out=gaps[1:])

    n = doc_ids.size
    block_last: list[int] = []
    block_max_tf: list[int] = []
    gap_off: list[int] = []
    tf_off: list[int] = []
    gap_parts: list[bytes] = []
    tf_parts: list[bytes] = []
    goff = toff = 0
    for s in range(0, n, block_size):
        e = min(n, s + block_size)
        gap_off.append(goff)
        tf_off.append(toff)
        gp = varbyte_encode(gaps[s:e])
        tp = varbyte_encode(tfs[s:e])
        gap_parts.append(gp)
        tf_parts.append(tp)
        goff += len(gp)
        toff += len(tp)
        block_last.append(int(doc_ids[e - 1]))
        block_max_tf.append(int(tfs[s:e].max()))
    return {
        "df": int(n),
        "cf": int(tfs.sum()) if n else 0,
        "doc_gaps": b"".join(gap_parts),
        "tf_bytes": b"".join(tf_parts),
        "block_last_doc": block_last,
        "block_max_tf": block_max_tf,
        "block_gap_offset": gap_off,
        "block_tf_offset": tf_off,
    }


def decode_posting_list(row: dict) -> tuple[np.ndarray, np.ndarray]:
    """Full decode → (doc_ids int64 ascending, tfs int64)."""
    df = int(row["df"])
    gaps = varbyte_decode(row["doc_gaps"], count=df)
    tfs = varbyte_decode(row["tf_bytes"], count=df).astype(np.int64)
    doc_ids = np.cumsum(gaps, dtype=np.uint64).astype(np.int64)
    return doc_ids, tfs


def encode_posting_lists_bulk(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    lengths: np.ndarray,
    block_size: int = BLOCK_SIZE,
) -> list[dict]:
    """Encode MANY posting lists in one vectorized pass.

    ``doc_ids``/``tfs`` are the concatenation of all lists, sorted by
    (list, doc_id); ``lengths`` gives each list's length. Produces
    byte-identical payloads to per-list ``encode_posting_list`` (varbyte
    is per-value, so per-block encoding concatenates to the same bytes)
    while replacing the per-term Python loop with whole-array numpy:
    the encode stage's hot path (SURVEY §7.1.5).
    """
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    tfs = np.asarray(tfs, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    n = doc_ids.size
    if n == 0:
        return []
    ends = np.cumsum(lengths)
    starts = ends - lengths
    if int(ends[-1]) != n:
        raise ValueError("lengths do not sum to array size")

    # per-list delta gaps; first element of each list keeps its docID
    gaps = np.empty(n, dtype=np.uint64)
    gaps[1:] = doc_ids[1:].astype(np.uint64) - doc_ids[:-1].astype(np.uint64)
    gaps[starts] = doc_ids[starts].astype(np.uint64)
    # duplicate/unsorted detection: within-list gap of 0 or negative
    inner = np.ones(n, dtype=bool)
    inner[starts] = False
    if np.any(doc_ids[1:][inner[1:]] <= doc_ids[:-1][inner[1:]]):
        raise ValueError("docIDs not strictly increasing within a posting list")

    # whole-array varbyte with per-value byte width bookkeeping
    nb_g = np.ones(n, dtype=np.int64)
    nb_t = np.ones(n, dtype=np.int64)
    utfs = tfs.astype(np.uint64)
    for t in _THRESHOLDS:
        nb_g += gaps >= np.uint64(t)
        nb_t += utfs >= np.uint64(t)
    gbuf = _vb_fill(gaps, nb_g)
    tbuf = _vb_fill(utfs, nb_t)
    cum_g = np.concatenate(([0], np.cumsum(nb_g)))
    cum_t = np.concatenate(([0], np.cumsum(nb_t)))

    # per-list block metadata
    out: list[dict] = []
    cf_all = np.add.reduceat(tfs, starts)
    for li in range(lengths.size):
        s, e = int(starts[li]), int(ends[li])
        ln = e - s
        bstarts = np.arange(s, e, block_size)
        bends = np.minimum(bstarts + block_size, e)
        out.append(
            {
                "df": ln,
                "cf": int(cf_all[li]),
                "doc_gaps": gbuf[cum_g[s]: cum_g[e]].tobytes(),
                "tf_bytes": tbuf[cum_t[s]: cum_t[e]].tobytes(),
                "block_last_doc": doc_ids[bends - 1].tolist(),
                "block_max_tf": np.maximum.reduceat(tfs[s:e], bstarts - s).tolist(),
                "block_gap_offset": (cum_g[bstarts] - cum_g[s]).tolist(),
                "block_tf_offset": (cum_t[bstarts] - cum_t[s]).tolist(),
            }
        )
    return out


def _vb_fill(v: np.ndarray, nb: np.ndarray) -> np.ndarray:
    ends = np.cumsum(nb)
    starts = ends - nb
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for k in range(int(nb.max())):
        mask = nb > k
        pos = starts[mask] + k
        byte = (v[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nb[mask] > k + 1).astype(np.uint8) << 7
        out[pos] = byte.astype(np.uint8) | cont
    return out


def concat_binary_column(col) -> memoryview:
    """Zero-copy concatenation of a pyarrow binary column's values.

    A BinaryArray's data buffer already holds every row's bytes
    back-to-back in row order — slice it once instead of materializing
    per-row Python ``bytes`` and joining (the hot path of the segment
    merge)."""
    import pyarrow as pa

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        raise ValueError("binary column with nulls")
    offsets = np.frombuffer(col.buffers()[1], dtype=np.int32)
    start = int(offsets[col.offset])
    end = int(offsets[col.offset + len(col)])
    return memoryview(col.buffers()[2])[start:end]


def decode_partial_rows(
    dfs: np.ndarray, gap_bufs: list[bytes], tf_bufs: list[bytes]
) -> tuple[np.ndarray, np.ndarray]:
    """Decode MANY partial posting payloads in two vectorized passes.

    ``gap_bufs[i]``/``tf_bufs[i]`` hold ``dfs[i]`` varbyte values. All
    buffers are concatenated and decoded in ONE ``varbyte_decode`` call
    each (every value self-terminates, so concatenation decodes
    correctly); docIDs are recovered with a segmented cumulative sum
    (each partial's first gap is its absolute first docID).
    Returns (doc_ids int64, tfs int64) concatenated in partial order.
    """
    dfs = np.asarray(dfs, dtype=np.int64)
    total = int(dfs.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    gcat = gap_bufs if isinstance(gap_bufs, (bytes, memoryview)) else b"".join(gap_bufs)
    tcat = tf_bufs if isinstance(tf_bufs, (bytes, memoryview)) else b"".join(tf_bufs)
    gaps = varbyte_decode(gcat, count=total)
    tfs = varbyte_decode(tcat, count=total).astype(np.int64)
    csum = np.cumsum(gaps, dtype=np.uint64)
    starts = np.cumsum(dfs) - dfs
    adjust = np.zeros(dfs.size, dtype=np.uint64)
    nz = dfs > 0
    first_idx = starts[nz]
    adj_vals = np.zeros(first_idx.size, dtype=np.uint64)
    adj_vals[first_idx > 0] = csum[first_idx[first_idx > 0] - 1]
    adjust[nz] = adj_vals
    doc_ids = (csum - np.repeat(adjust, dfs.clip(min=0))).astype(np.int64)
    return doc_ids, tfs


# --------------------------------------------------------- 128-bit ids
# The hash-docID fallback collides with meaningful probability at a true
# 10^12-doc deployment (63 bits → ~5e4 expected collisions). The scale
# path is a 128-bit docID carried as TWO uint64 columns (hi, lo) — md5
# of the normalized url supplies exactly 128 deterministic bits. This
# section is the codec/segment layer of that path: 128-bit ordering,
# 128-bit delta gaps (borrow-aware), LEB128 up to 19 bytes/value, block
# metadata carrying (hi, lo) last-doc pairs — all numpy-vectorized in
# the same per-byte-position style as the 64-bit path. Segments store
# the payload with `block_last_doc_hi/lo` list columns; the engine
# adopts it by switching its cursor comparisons to (hi, lo) tuples.

_NB128_MAX = 19  # ceil(128 / 7)


def assign_doc_ids_128(urls) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic 128-bit docID (md5 of the normalized url) as
    (hi, lo) uint64 arrays — collision odds ~1e-15 at 10^12 docs."""
    import hashlib as _hl

    import pyarrow as _pa

    if isinstance(urls, (_pa.Array, _pa.ChunkedArray)):
        urls = urls.to_pylist()
    n = len(urls)
    hi = np.empty(n, np.uint64)
    lo = np.empty(n, np.uint64)
    for i, u in enumerate(urls):
        d = _hl.md5((u or "").encode("utf-8")).digest()
        hi[i] = int.from_bytes(d[:8], "big")
        lo[i] = int.from_bytes(d[8:], "big")
    return hi, lo


def _sort_128(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """argsort by the 128-bit value (hi major)."""
    return np.lexsort((lo, hi))


def _gaps_128(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Delta gaps in 128-bit space for an ascending (hi, lo) sequence;
    first gap = the value itself. Vectorized borrow subtraction."""
    gh = np.empty_like(hi)
    gl = np.empty_like(lo)
    if hi.size == 0:
        return gh, gl
    gh[0], gl[0] = hi[0], lo[0]
    borrow = lo[1:] < lo[:-1]
    gl[1:] = lo[1:] - lo[:-1]  # uint64 wraps = mod-2^64 subtraction
    gh[1:] = hi[1:] - hi[:-1] - borrow.astype(np.uint64)
    return gh, gl


def _unwrap_gaps_128(gh: np.ndarray, gl: np.ndarray, base_hi: int, base_lo: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_gaps_128`: cumulative 128-bit sum from a base."""
    n = gh.size
    hi = np.empty(n, np.uint64)
    lo = np.empty(n, np.uint64)
    chi, clo = int(base_hi), int(base_lo)
    ghl, gll = gh.tolist(), gl.tolist()
    for i in range(n):
        clo = (clo + gll[i]) & 0xFFFFFFFFFFFFFFFF
        carry = clo < gll[i]
        chi = (chi + ghl[i] + carry) & 0xFFFFFFFFFFFFFFFF
        hi[i] = chi
        lo[i] = clo
    return hi, lo


def varbyte_encode_128(hi: np.ndarray, lo: np.ndarray) -> bytes:
    """LEB128 over 128-bit (hi, lo) values — ≤19 bytes each, vectorized
    per byte position like the 64-bit encoder."""
    hi = hi.astype(np.uint64, copy=False)
    lo = lo.astype(np.uint64, copy=False)
    n = hi.size
    if n == 0:
        return b""
    nb = np.ones(n, dtype=np.int64)
    for k in range(1, _NB128_MAX):
        bits = 7 * k
        if bits < 64:
            wide = (hi > 0) | (lo >= np.uint64(1 << bits))
        else:
            wide = hi >= np.uint64(1 << (bits - 64))
        nb += wide
    ends = np.cumsum(nb)
    starts = ends - nb
    out = np.zeros(int(ends[-1]), dtype=np.uint8)
    for k in range(int(nb.max())):
        m = nb > k
        pos = starts[m] + k
        s = 7 * k
        if s >= 64:
            byte = (hi[m] >> np.uint64(s - 64)) & np.uint64(0x7F)
        elif s == 0:
            byte = lo[m] & np.uint64(0x7F)
        elif s > 64 - 8:
            # byte straddles the 64-bit boundary
            byte = ((lo[m] >> np.uint64(s)) | (hi[m] << np.uint64(64 - s))) & np.uint64(0x7F)
        else:
            byte = (lo[m] >> np.uint64(s)) & np.uint64(0x7F)
        cont = (nb[m] > k + 1).astype(np.uint8) << 7
        out[pos] = byte.astype(np.uint8) | cont
    return out.tobytes()


def varbyte_decode_128(
    buf: bytes | memoryview, offset: int = 0, count: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Decode LEB128 back to (hi, lo) uint64 pairs."""
    arr = np.frombuffer(buf, dtype=np.uint8)
    if offset:
        arr = arr[offset:]
    if arr.size == 0:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    terminal = (arr & 0x80) == 0
    if count is not None:
        term_pos = np.flatnonzero(terminal)
        if count > term_pos.size:
            raise ValueError("not enough encoded values")
        arr = arr[: term_pos[count - 1] + 1] if count else arr[:0]
        terminal = terminal[: arr.size]
    term_pos = np.flatnonzero(terminal)
    n = term_pos.size
    if n == 0:
        return np.empty(0, np.uint64), np.empty(0, np.uint64)
    starts = np.empty(n, dtype=np.int64)
    starts[0] = 0
    np.add(term_pos[:-1], 1, out=starts[1:])
    nb = term_pos - starts + 1
    hi = np.zeros(n, np.uint64)
    lo = np.zeros(n, np.uint64)
    low = (arr & 0x7F).astype(np.uint64)
    for k in range(int(nb.max())):
        m = nb > k
        b = low[starts[m] + k]
        s = 7 * k
        if s >= 64:
            hi[m] |= b << np.uint64(s - 64)
        elif s > 64 - 8:
            lo[m] |= b << np.uint64(s)
            hi[m] |= b >> np.uint64(64 - s)
        else:
            lo[m] |= b << np.uint64(s)
    return hi, lo


def encode_posting_list_128(
    doc_hi: np.ndarray, doc_lo: np.ndarray, tfs: np.ndarray, block_size: int = BLOCK_SIZE
) -> dict:
    """128-bit counterpart of :func:`encode_posting_list`: sorts by the
    (hi, lo) docID, delta+varbyte encodes 128-bit gaps, and emits block
    metadata with (hi, lo) last-doc pairs. tf stream unchanged."""
    doc_hi = np.asarray(doc_hi, np.uint64)
    doc_lo = np.asarray(doc_lo, np.uint64)
    tfs = np.asarray(tfs, np.int64)
    order = _sort_128(doc_hi, doc_lo)
    doc_hi, doc_lo, tfs = doc_hi[order], doc_lo[order], tfs[order]
    if doc_hi.size and np.any(
        (doc_hi[:-1] == doc_hi[1:]) & (doc_lo[:-1] == doc_lo[1:])
    ):
        raise ValueError("duplicate 128-bit docID in posting list")
    gh, gl = _gaps_128(doc_hi, doc_lo)
    n = doc_hi.size
    block_last_hi: list[int] = []
    block_last_lo: list[int] = []
    block_max_tf: list[int] = []
    gap_off: list[int] = []
    tf_off: list[int] = []
    gap_parts: list[bytes] = []
    tf_parts: list[bytes] = []
    goff = toff = 0
    for s in range(0, n, block_size):
        e = min(n, s + block_size)
        gap_off.append(goff)
        tf_off.append(toff)
        gp = varbyte_encode_128(gh[s:e], gl[s:e])
        tp = varbyte_encode(tfs[s:e])
        gap_parts.append(gp)
        tf_parts.append(tp)
        goff += len(gp)
        toff += len(tp)
        block_last_hi.append(int(doc_hi[e - 1]))
        block_last_lo.append(int(doc_lo[e - 1]))
        block_max_tf.append(int(tfs[s:e].max()))
    return {
        "df": int(n),
        "cf": int(tfs.sum()) if n else 0,
        "doc_gaps": b"".join(gap_parts),
        "tf_bytes": b"".join(tf_parts),
        "block_last_doc_hi": block_last_hi,
        "block_last_doc_lo": block_last_lo,
        "block_max_tf": block_max_tf,
        "block_gap_offset": gap_off,
        "block_tf_offset": tf_off,
    }


def decode_posting_list_128(row: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """→ (doc_hi, doc_lo ascending 128-bit, tfs int64)."""
    df = int(row["df"])
    gh, gl = varbyte_decode_128(row["doc_gaps"], count=df)
    tfs = varbyte_decode(row["tf_bytes"], count=df).astype(np.int64)
    hi, lo = _unwrap_gaps_128(gh, gl, 0, 0)
    return hi, lo, tfs


def decode_block_128(
    row: dict, block: int, block_size: int = BLOCK_SIZE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Independent single-block decode (the WAND skip path), 128-bit."""
    df = int(row["df"])
    n_blocks = len(row["block_last_doc_hi"])
    if not 0 <= block < n_blocks:
        raise IndexError(block)
    count = min(block_size, df - block * block_size)
    gh, gl = varbyte_decode_128(
        row["doc_gaps"], offset=int(row["block_gap_offset"][block]), count=count
    )
    tfs = varbyte_decode(
        row["tf_bytes"], offset=int(row["block_tf_offset"][block]), count=count
    )
    if block > 0:
        bh = int(row["block_last_doc_hi"][block - 1])
        bl = int(row["block_last_doc_lo"][block - 1])
    else:
        bh = bl = 0
    hi, lo = _unwrap_gaps_128(gh, gl, bh, bl)
    return hi, lo, tfs.astype(np.int64)
