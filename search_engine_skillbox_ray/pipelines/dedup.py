"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Scale shapes (100 TB framing):
* exact — hash the content in a map_batches pass, shuffle only
  (hash, doc_id); survivors = min doc_id per hash. Text never enters
  the exchange.
* MinHash-LSH — signatures per batch (fully vectorized: flat token
  hashing + segmented ``np.minimum.reduceat``), explode to SLIM
  (band_id, band_hash, doc_id) rows — signatures do NOT ride the
  exchange — one groupby on the band key emits candidate pairs. The
  verify is gated on ``DRIVER_FASTPATH_ROWS``: below it a broadcast
  signature side table (``ray.put`` once), above it the signatures stay
  a Dataset and candidates hash-join ⨝ signatures on doc_a/doc_b
  (``Dataset.join``) — nothing corpus-sized touches the driver. No
  pairwise pass outside LSH buckets. Both paths emit the identical
  pair set.
* SimHash — 64-bit weighted fingerprint per doc (vectorized per-bit
  ``bincount``); near-dup candidates via 4×16-bit band blocking
  (Hamming ≤ 3 ⇒ some band equal — complete by pigeonhole). The
  local-vs-banded-exchange choice probes the row COUNT from block
  metadata; fingerprint blocks reach the driver only on the fast path.
* n-gram Jaccard — candidates from shared min-gram buckets carrying
  ONLY (gram_bucket, doc_id); exact Jaccard verified by re-deriving the
  gram sets of just the referenced docs (a second, candidate-pruned
  pass — candidates are rare, so the pass is cheap). Same gate: above
  ``DRIVER_FASTPATH_ROWS`` pair halves hash-join ⨝ gram sets on doc_id
  and the sorted gram arrays intersect inside the workers.
* embedding-cosine — random-hyperplane LSH bucketing, exact cosine
  verify within buckets (vectors are the verify payload, so they ride
  the one bucket shuffle).

All term/gram hashing goes through ``functions.hashing`` (md5-derived),
so every signature and pair set is bit-reproducible in DuckDB SQL — the
driver oracle checks these operators hard, not rows-only.
All emit candidate-pair / survivor tables, never materialize the corpus.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..functions.hashing import (
    MERSENNE61,
    TokenHasher,
    flat_nonempty_tokens,
    gram_hashes,
    joined_fallback_hash,
    mod_mersenne61,
)

_MERSENNE = MERSENNE61

# band-key multipliers (collision ⇒ a spurious CANDIDATE, killed by the
# signature verify — never a wrong pair)
_BAND_KS = (
    0x9E3779B97F4A7C15,
    0xC2B2AE3D27D4EB4F,
    0x165667B19E3779F9,
    0x27D4EB2F165667C5,
    0x85EBCA77C2B2AE63,
    0x2545F4914F6CDD1D,
    0xFF51AFD7ED558CCD,
    0xC4CEB9FE1A85EC53,
)


# ---------------------------------------------------------------- exact
def _content_hash_stage(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    hashes = [hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in texts]
    return pa.table(
        {
            id_col: batch.column(id_col),
            "content_hash": pa.array(hashes, type=pa.string()),
        }
    )


def exact_dedup(documents: rd.Dataset, text_col: str = "text", id_col: str = "doc_id") -> rd.Dataset:
    """→ (doc_id, n_copies): the surviving (minimum) doc_id per distinct
    content, with its duplicate count. D1-exact semantics generalized
    from the reference's (site,path) upsert dedup."""
    from ..stages.grouping import bucketed_group_apply

    hashed = documents.map_batches(
        lambda b: _content_hash_stage(b, text_col, id_col), batch_format="pyarrow"
    )

    def keep_min_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        out = (
            bucket.groupby("content_hash", sort=False)[id_col]
            .agg(["min", "size"])
            .reset_index(drop=True)
            .rename(columns={"min": id_col, "size": "n_copies"})
        )
        out[id_col] = out[id_col].astype("int64")
        out["n_copies"] = out["n_copies"].astype("int64")
        return out

    return bucketed_group_apply(hashed, ["content_hash"], keep_min_bucket, n_buckets=64)


def _dedup_pair_rows(pairs: rd.Dataset, cols: list[str]) -> rd.Dataset:
    """Same pair can surface from several LSH bands/buckets — keep one.
    Hash-bucketed + vectorized drop_duplicates (no per-pair groups)."""
    from ..stages.grouping import bucketed_group_apply

    return bucketed_group_apply(
        pairs, cols, lambda b: b.drop_duplicates(cols), n_buckets=32
    )


# ------------------------------------------------------------- minhash
class MinHashSignatures:
    """Actor stage: text → MinHash signature over word 3-shingles.

    Universal hashing h_i(x) = ((a_i·x mod 2^64) + b_i) mod 2^64 mod p
    over 61-bit shingle hashes; (a, b) drawn once per actor from a fixed
    seed so signatures are deterministic across runs and cluster sizes.
    Shingle hashes are md5-derived (functions/hashing.py) — the whole
    signature is reproducible in DuckDB SQL for the driver oracle.

    Fully vectorized: per batch, ONE flat token-hash pass (md5 cached
    per distinct token across batches), one k-gram combine, then per
    perm-chunk ``(a·x+b) % p`` over all shingles with a segmented
    ``np.minimum.reduceat`` per doc. Docs with 0 < tokens < k fall back
    to the joined-string hash; empty docs keep the int64 -1 sentinel
    signature.
    """

    PERM_CHUNK = 16

    def __init__(self, num_perm: int = 64, shingle_k: int = 3, seed: int = 42) -> None:
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.k = shingle_k
        self.hasher = TokenHasher()

    @classmethod
    def perm_constants(cls, num_perm: int = 64, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(seed)
        a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        return a, b

    def _doc_shingles(self, batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        """→ (shingle hashes mod p, parent doc index), including the
        short-doc fallback shingles."""
        toks, parents, counts = flat_nonempty_tokens(batch.column("text"))
        h = self.hasher.hash_tokens(toks)
        grams, gparents = gram_hashes(h, counts, k=self.k)
        short = np.flatnonzero((counts > 0) & (counts < self.k))
        if short.size:
            tok_list = toks.to_pylist()
            starts = np.cumsum(counts) - counts
            extra = np.fromiter(
                (
                    joined_fallback_hash(tok_list[int(starts[i]): int(starts[i] + counts[i])])
                    for i in short
                ),
                dtype=np.uint64,
                count=short.size,
            )
            grams = np.concatenate([grams, extra])
            gparents = np.concatenate([gparents, short])
            order = np.argsort(gparents, kind="stable")
            grams, gparents = grams[order], gparents[order]
        return grams, gparents

    def signature_matrix(self, batch: pa.Table) -> np.ndarray:
        """(n_rows, num_perm) uint64; uint64-max rows for empty docs."""
        n = len(batch)
        sigs = np.full((n, self.num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        grams, gparents = self._doc_shingles(batch)
        if grams.size == 0:
            return sigs
        seg_starts = np.flatnonzero(np.diff(gparents, prepend=-1))
        seg_docs = gparents[seg_starts]
        for c0 in range(0, self.num_perm, self.PERM_CHUNK):
            a = self.a[c0: c0 + self.PERM_CHUNK, None]
            b = self.b[c0: c0 + self.PERM_CHUNK, None]
            vals = mod_mersenne61(a * grams[None, :] + b)
            mins = np.minimum.reduceat(vals, seg_starts, axis=1)
            sigs[seg_docs, c0: c0 + self.PERM_CHUNK] = mins.T
        return sigs

    def __call__(self, batch: pa.Table) -> pa.Table:
        sigs = self.signature_matrix(batch)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "signature": pa.array(list(sigs.astype(np.int64)), type=pa.list_(pa.int64())),
            }
        )


def _minhash_sig_ds(
    documents: rd.Dataset, *, num_perm: int, shingle_k: int, seed: int
) -> rd.Dataset:
    """Signature pass as task-based ``map_batches`` over warm workers
    with a per-process cached :class:`MinHashSignatures` kernel (see
    ``stages/taskpool.py``).  Measured at sf0.1: 0.47 s warm vs 1.71 s
    for a fresh ``concurrency=(1, 8)`` actor pool — pool spin-up
    dominated every MinHash-family bench entry."""
    from ..stages.taskpool import cached_kernel_map

    return cached_kernel_map(
        documents, MinHashSignatures,
        {"num_perm": num_perm, "shingle_k": shingle_k, "seed": seed},
    )


def minhash_signatures_ds(
    documents: rd.Dataset, *, num_perm: int = 64, shingle_k: int = 3, seed: int = 42
) -> rd.Dataset:
    """→ exploded (doc_id, perm, sig) rows — the oracle-checkable view
    of the signature matrix (scalar columns hash-compare robustly)."""
    sigs = _minhash_sig_ds(
        documents, num_perm=num_perm, shingle_k=shingle_k, seed=seed
    )

    def explode(batch: pa.Table) -> pa.Table:
        from ..functions.vectors import int_list_matrix

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mat = int_list_matrix(batch.column("signature"), num_perm)
        n, p = mat.shape
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, p), pa.int64()),
                "perm": pa.array(np.tile(np.arange(p, dtype=np.int64), n), pa.int64()),
                "sig": pa.array(mat.reshape(-1), pa.int64()),
            }
        )

    return sigs.map_batches(explode, batch_format="pyarrow")


def _band_keys(mat: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) int64 band keys from a (n, P) uint64 signature matrix
    — arithmetic combine, vectorized (no per-row hashing)."""
    n, p = mat.shape
    rpb = p // bands
    ks = np.array([_BAND_KS[j % len(_BAND_KS)] for j in range(rpb)], dtype=np.uint64)
    bh = (mat.reshape(n, bands, rpb) * ks[None, None, :]).sum(axis=2, dtype=np.uint64)
    return (bh & np.uint64(0x7FFF_FFFF_FFFF_FFFF)).astype(np.int64)


def _collect_signatures(sigs_ds: rd.Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Signature side table → (sorted doc_ids, matrix aligned to them).
    Driver-resident: ~(8 + 8·num_perm) bytes/doc. Cluster scale: keep it
    a Dataset and hash-join candidates on doc_id instead."""
    ids_parts, mat_parts = [], []
    for ref in sigs_ds.materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t):
            continue
        ids_parts.append(t.column("doc_id").to_numpy(zero_copy_only=False))
        from ..functions.vectors import int_list_matrix

        sig0 = t.column("signature")
        width = len(sig0[0].as_py()) if len(t) else 0
        mat_parts.append(int_list_matrix(sig0, width))
    if not ids_parts:
        return np.empty(0, np.int64), np.empty((0, 0), np.int64)
    ids = np.concatenate(ids_parts)
    mat = np.concatenate(mat_parts)
    order = np.argsort(ids, kind="stable")
    ids, mat = ids[order], mat[order]
    # duplicated doc_id rows (re-ingested docs) collapse FIRST-wins so the
    # searchsorted lookups stay aligned and pair sets stay duplicate-free
    # (mirrors the simhash per-group hardening)
    uniq, first = np.unique(ids, return_index=True)
    if uniq.size != ids.size:
        ids, mat = uniq, mat[first]
    return ids, mat


def _band_pairs_segments(
    b0: np.ndarray, b1: np.ndarray, d: np.ndarray, side=None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-band pair expansion over (band_id, band_hash,
    doc_id) rows: lexsort → segment boundaries → expand ONLY the ≥2-row
    segments (collisions are rare — the singleton majority never enters
    the Python loop).  With ``side=(sorted doc_ids, band-key matrix)``
    applies the first-colliding-band rule, making the output globally
    duplicate-free.  Exact same pair set as the pandas groupby loop it
    replaced (regression-covered by the dual-path dedup tests), ~8×
    faster on the driver fast path."""
    if not d.size:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    order = np.lexsort((d, b1, b0))
    b0, b1, d = b0[order], b1[order], d[order]
    starts = np.flatnonzero(
        np.diff(b0, prepend=b0[0] - 1) | np.diff(b1, prepend=b1[0] - 1)
    )
    lens = np.diff(np.append(starts, b0.size))
    big = lens >= 2
    a_out: list[np.ndarray] = []
    b_out: list[np.ndarray] = []
    for s, L, g in zip(starts[big], lens[big], b0[starts[big]]):
        u = np.unique(d[s: s + L])
        if u.size < 2:
            continue
        ii, jj = np.triu_indices(u.size, k=1)
        a, b = u[ii], u[jj]
        if side is not None and g > 0:
            sids, kmat = side
            ka = kmat[np.searchsorted(sids, a), : int(g)]
            kb = kmat[np.searchsorted(sids, b), : int(g)]
            keep = ~np.any(ka == kb, axis=1)
            a, b = a[keep], b[keep]
        if a.size:
            a_out.append(a)
            b_out.append(b)
    if not a_out:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(a_out), np.concatenate(b_out)


def _candidate_pairs_from_bands(
    exploded: "rd.Dataset | pa.Table", key_cols: list[str], first_band_ref=None
) -> rd.Dataset:
    """groupby the band key → all unordered doc pairs per group.

    With ``first_band_ref`` — a list-wrapped ``ray.put`` of
    ``(sorted doc_ids, per-doc band-key matrix)`` — a pair is emitted
    ONLY from its FIRST colliding band (no lower band key matches), so
    the output is globally duplicate-free after ONE exchange: the
    second dedup shuffle disappears. ``key_cols[0]`` must then be the
    band index. Without it, pairs repeat across bands and a second
    bucketed pass dedups them.

    A driver-resident band table (``pa.Table``) below the fast-path
    threshold is paired in ONE local pandas pass — band rows are
    ~16 B/doc·bands, so the threshold covers large corpora; above it
    (or for a lazy Dataset) the bucketed exchange is the shape."""
    from ..stages.grouping import bucketed_group_apply

    def bucket_pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        side = ray.get(first_band_ref[0]) if first_band_ref is not None else None
        a_out: list[np.ndarray] = []
        b_out: list[np.ndarray] = []
        for key, grp in bucket.groupby(key_cols, sort=False):
            if len(grp) < 2:
                continue
            ids = np.unique(grp["doc_id"].to_numpy(np.int64))
            if ids.size < 2:
                continue
            ii, jj = np.triu_indices(ids.size, k=1)
            a, b = ids[ii], ids[jj]
            if side is not None:
                g = int(key[0] if isinstance(key, tuple) else key)
                if g > 0:
                    sids, kmat = side
                    ka = kmat[np.searchsorted(sids, a), :g]
                    kb = kmat[np.searchsorted(sids, b), :g]
                    keep = ~np.any(ka == kb, axis=1)
                    a, b = a[keep], b[keep]
            if a.size:
                a_out.append(a)
                b_out.append(b)
        if not a_out:
            return pd.DataFrame(
                {"doc_a": np.array([], np.int64), "doc_b": np.array([], np.int64)}
            )
        return pd.DataFrame(
            {"doc_a": np.concatenate(a_out), "doc_b": np.concatenate(b_out)}
        )

    if isinstance(exploded, pa.Table):
        from ..config import DRIVER_FASTPATH_ROWS

        if len(exploded) <= DRIVER_FASTPATH_ROWS:
            a, b = _band_pairs_segments(
                exploded.column(key_cols[0]).to_numpy(zero_copy_only=False).astype(np.int64),
                exploded.column(key_cols[1]).to_numpy(zero_copy_only=False).astype(np.int64),
                exploded.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64),
                side=ray.get(first_band_ref[0]) if first_band_ref is not None else None,
            )
            out = pd.DataFrame({"doc_a": a, "doc_b": b})
            if first_band_ref is None:
                out = out.drop_duplicates(["doc_a", "doc_b"])
            return rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False))
        exploded = rd.from_arrow(exploded)

    pairs = bucketed_group_apply(exploded, key_cols, bucket_pairs, n_buckets=32)
    if first_band_ref is not None:
        return pairs
    return _dedup_pair_rows(pairs, ["doc_a", "doc_b"])


class _VerifyMinhashPairs:
    """map_batches actor over candidate pairs: look both signatures up
    in the broadcast side table, keep est_jaccard ≥ threshold."""

    def __init__(self, sig_ref, threshold: float) -> None:
        ref = sig_ref[0] if isinstance(sig_ref, (list, tuple)) else sig_ref
        self.ids, self.mat = ray.get(ref)
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy(zero_copy_only=False)
        b = batch.column("doc_b").to_numpy(zero_copy_only=False)
        ia = np.searchsorted(self.ids, a)
        ib = np.searchsorted(self.ids, b)
        est = (self.mat[ia] == self.mat[ib]).mean(axis=1)
        keep = est >= self.threshold
        return pa.table(
            {
                "doc_a": pa.array(a[keep], pa.int64()),
                "doc_b": pa.array(b[keep], pa.int64()),
                "est_jaccard": pa.array(np.round(est[keep], 6), pa.float64()),
            }
        )


_EMPTY_MINHASH_PAIRS = pa.table(
    {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
     "est_jaccard": pa.array([], pa.float64())}
)


def _minhash_pairs_distributed(
    sigs_ds: rd.Dataset, *, num_perm: int, bands: int, threshold: float
) -> rd.Dataset:
    """Cluster-scale MinHash-LSH pair path — NO corpus-sized driver
    state. Signatures stay a (materialized) Dataset: band keys explode
    per batch to SLIM (band_id, band_hash, doc_id) rows, one bucketed
    exchange emits per-band candidate pairs, a second slim exchange
    dedups them (the fast path's first-colliding-band rule needs the
    per-doc band matrix as a side table, so at this scale the explicit
    pair dedup replaces it — same pair SET), and the verify hash-joins
    candidates ⨝ signatures on doc_a then doc_b (``Dataset.join``,
    Ray 2.49 hash-partitioned). Only pair-sized tables ever reach the
    driver."""
    from ..functions.vectors import int_list_matrix
    from ..stages.grouping import sized_join

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mat = int_list_matrix(batch.column("signature"), num_perm)
        keys = _band_keys(np.ascontiguousarray(mat).view(np.uint64), bands)
        n = ids.size
        return pa.table(
            {
                "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), n), pa.int32()),
                "band_hash": pa.array(keys.reshape(-1), pa.int64()),
                "doc_id": pa.array(np.repeat(ids, bands), pa.int64()),
            }
        )

    exploded = sigs_ds.map_batches(explode, batch_format="pyarrow")
    cand = _candidate_pairs_from_bands(exploded, ["band_id", "band_hash"]).materialize()
    if cand.count() == 0:
        return rd.from_arrow(_EMPTY_MINHASH_PAIRS)

    sig_width = num_perm * 8

    def pack(id_name: str, sig_name: str):
        # Arrow's hash join rejects list<> payload columns — pack the
        # signature as fixed_size_binary (num_perm little-endian u64s),
        # built zero-copy from the matrix bytes.
        def r(batch: pa.Table) -> pa.Table:
            mat = int_list_matrix(batch.column("signature"), num_perm)
            buf = np.ascontiguousarray(mat).astype("<u8").tobytes()
            arr = pa.Array.from_buffers(
                pa.binary(sig_width), len(batch), [None, pa.py_buffer(buf)]
            )
            return pa.table({id_name: batch.column("doc_id"), sig_name: arr})

        return r

    def unpack(col) -> np.ndarray:
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        return np.frombuffer(
            arr.buffers()[1], dtype="<u8", count=len(arr) * num_perm,
            offset=arr.offset * sig_width,
        ).reshape(len(arr), num_perm)

    # materialize between the two joins: the intermediate is PAIR-sized
    # (cheap), and two concurrent join topologies could otherwise
    # deadlock on aggregator-actor CPU reservations in a small cluster
    joined = sized_join(
        cand, sigs_ds.map_batches(pack("doc_a", "sig_a"), batch_format="pyarrow"),
        ("doc_a",),
    ).materialize()
    joined = sized_join(
        joined, sigs_ds.map_batches(pack("doc_b", "sig_b"), batch_format="pyarrow"),
        ("doc_b",),
    )

    def verify(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return _EMPTY_MINHASH_PAIRS
        a = batch.column("doc_a").to_numpy(zero_copy_only=False)
        b = batch.column("doc_b").to_numpy(zero_copy_only=False)
        ma = unpack(batch.column("sig_a"))
        mb = unpack(batch.column("sig_b"))
        est = (ma == mb).mean(axis=1)
        keep = est >= threshold
        return pa.table(
            {
                "doc_a": pa.array(a[keep], pa.int64()),
                "doc_b": pa.array(b[keep], pa.int64()),
                "est_jaccard": pa.array(np.round(est[keep], 6), pa.float64()),
            }
        )

    # duplicated doc_id rows in the input multiply joined rows (M×N per
    # pair) — a final PAIR-sized dedup keeps the output set identical to
    # the fast path's; no-op-cheap when the precondition already holds
    return _dedup_pair_rows(
        joined.map_batches(verify, batch_format="pyarrow"), ["doc_a", "doc_b"]
    )


def minhash_lsh_pairs(
    documents: rd.Dataset,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    threshold: float = 0.6,
    seed: int = 42,
) -> rd.Dataset:
    """→ near-duplicate pairs (doc_a < doc_b, est_jaccard ≥ threshold),
    estimated from signature agreement. Pipeline: signatures (actor
    pool) → SLIM band rows (band_id, band_hash, doc_id) → groupby(band)
    → candidate pairs → signature verify. The 64-perm signatures never
    enter the band exchange.

    Below ``DRIVER_FASTPATH_ROWS`` docs the signature matrix
    (~(8+8·num_perm) B/doc) is collected once on the driver: band keys +
    the first-colliding-band rule make pairs globally unique after ONE
    exchange, and the verify reads a broadcast side table. Above it —
    cluster scale — nothing corpus-sized leaves the workers: see
    :func:`_minhash_pairs_distributed` (band explode → pair dedup →
    candidates ⨝ signatures hash-join). Both paths produce the
    identical pair set (regression-tested).

    Duplicated ``doc_id`` rows (a re-ingested doc) are tolerated
    FIRST-wins provided they carry identical text: the fast path dedups
    the signature side table, the distributed path dedups the verified
    pair rows — either way the output pair set equals the unique-input
    run (property-tested)."""
    from ..config import DRIVER_FASTPATH_ROWS

    sigs_ds = _minhash_sig_ds(
        documents, num_perm=num_perm, shingle_k=shingle_k, seed=seed
    ).materialize()
    n_docs = sigs_ds.count()
    if n_docs == 0:
        return rd.from_arrow(_EMPTY_MINHASH_PAIRS)
    if n_docs > DRIVER_FASTPATH_ROWS:
        return _minhash_pairs_distributed(
            sigs_ds, num_perm=num_perm, bands=bands, threshold=threshold
        )
    ids, mat = _collect_signatures(sigs_ds)
    keys = _band_keys(mat.view(np.uint64), bands)
    n = ids.size
    if n * bands <= DRIVER_FASTPATH_ROWS:
        # band rows fit the driver contract too — pair + verify fully
        # locally (the segment kernel below; no pipeline spin-up at all)
        a, b = _band_pairs_segments(
            np.tile(np.arange(bands, dtype=np.int64), n),
            keys.reshape(-1).astype(np.int64),
            np.repeat(ids, bands),
            side=(ids, keys),
        )
        if not a.size:
            return rd.from_arrow(_EMPTY_MINHASH_PAIRS)
        est = (mat[np.searchsorted(ids, a)] == mat[np.searchsorted(ids, b)]).mean(axis=1)
        keep = est >= threshold
        return rd.from_arrow(pa.table(
            {
                "doc_a": pa.array(a[keep], pa.int64()),
                "doc_b": pa.array(b[keep], pa.int64()),
                "est_jaccard": pa.array(np.round(est[keep], 6), pa.float64()),
            }
        ))
    exploded = pa.table(
        {
            "band_id": pa.array(np.tile(np.arange(bands, dtype=np.int32), n), pa.int32()),
            "band_hash": pa.array(keys.reshape(-1), pa.int64()),
            "doc_id": pa.array(np.repeat(ids, bands), pa.int64()),
        }
    )
    cand = _candidate_pairs_from_bands(
        exploded, ["band_id", "band_hash"], first_band_ref=[ray.put((ids, keys))]
    )
    sig_ref = [ray.put((ids, mat))]
    return cand.map_batches(
        _VerifyMinhashPairs,
        fn_constructor_kwargs={"sig_ref": sig_ref, "threshold": threshold},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )


# -------------------------------------------------------------- simhash
class SimHash:
    """Actor stage: 64-bit SimHash per doc — sign-sum of md5-derived
    term-hash bit vectors weighted by tf, vectorized as one per-bit
    ``np.bincount`` over token instances (sum over instances of ±1 ==
    sum over terms of ±tf). Bit 63 is masked so values stay positive
    int64; identical in DuckDB SQL for the oracle."""

    def __init__(self) -> None:
        self.hasher = TokenHasher()

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        toks, parents, _counts = flat_nonempty_tokens(batch.column("text"))
        out = np.zeros(n, dtype=np.int64)
        if len(toks):
            h = self.hasher.hash_tokens(toks)
            val = np.zeros(n, dtype=np.int64)
            for bit in range(63):
                sign = (((h >> np.uint64(bit)) & np.uint64(1)).astype(np.int64) * 2) - 1
                acc = np.bincount(parents, weights=sign, minlength=n)
                val |= (acc > 0).astype(np.int64) << bit
            out = val
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "simhash": pa.array(out, type=pa.int64()),
            }
        )


def simhash_stage(batch: pa.Table, seed: int = 42) -> pa.Table:
    """Function form of :class:`SimHash` (kept for API compatibility)."""
    return SimHash()(batch)


def simhash_ds(documents: rd.Dataset, concurrency=None) -> rd.Dataset:
    """SimHash pass as cached-kernel tasks (stages/taskpool.py) — the
    kernel is seeded constants + a token-hash cache, so warm workers
    beat a per-pipeline actor-pool spawn.  ``concurrency`` is accepted
    for API compatibility and ignored (tasks autoscale)."""
    from ..stages.taskpool import cached_kernel_map

    return cached_kernel_map(documents, SimHash)


def simhash_near_pairs(documents: rd.Dataset, max_hamming: int = 3) -> rd.Dataset:
    """Near-dup pairs by SimHash Hamming distance ≤ max_hamming, found via
    4×16-bit band blocking (pigeonhole: ≤3 differing bits ⇒ ≥1 equal
    band — the blocking is recall-COMPLETE, so the result equals the
    exact all-pairs Hamming filter and is oracle-checkable).

    Fingerprints are 16 B/doc, so below the fast-path threshold they are
    collected once and paired in one local pass; above it the banded
    exchange runs over the SAME materialized blocks (no recompute)."""
    sh = simhash_ds(documents)

    def explode_bands(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hs = batch.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        n = len(ids)
        band_id = np.tile(np.arange(4, dtype=np.int32), n)
        band_val = np.empty(4 * n, dtype=np.int64)
        for b in range(4):
            band_val[b::4] = ((hs >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table(
            {
                "band_id": pa.array(band_id),
                "band_val": pa.array(band_val),
                "doc_id": pa.array(np.repeat(ids, 4), type=pa.int64()),
                "simhash": pa.array(np.repeat(hs.astype(np.int64), 4), type=pa.int64()),
            }
        )

    def bucket_pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        a_out, b_out, d_out = [], [], []
        for (g, _v), grp in bucket.groupby(["band_id", "band_val"], sort=False):
            if len(grp) < 2:
                continue
            ids = grp["doc_id"].to_numpy(np.int64)
            hs = grp["simhash"].to_numpy(np.int64).astype(np.uint64)
            # unique-ify ids (a duplicated doc_id row in the input must
            # not yield duplicate pairs — matches the minhash path)
            ids, first = np.unique(ids, return_index=True)
            hs = hs[first]
            if ids.size < 2:
                continue
            ii, jj = np.triu_indices(len(ids), k=1)
            xor = hs[ii] ^ hs[jj]
            # first-colliding-band rule: a pair that ALSO matches on a
            # lower band is emitted there, not here — globally unique
            # pairs from a single exchange (no second dedup shuffle)
            good = ids[ii] != ids[jj]
            for j in range(int(g)):
                good &= ((xor >> np.uint64(16 * j)) & np.uint64(0xFFFF)) != 0
            # vectorized popcount (SWAR)
            x = xor
            x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
            x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
            x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
            d = ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)
            good &= d <= max_hamming
            a_out.append(ids[ii][good])
            b_out.append(ids[jj][good])
            d_out.append(d[good])
        if not a_out:
            return pd.DataFrame(
                {"doc_a": np.array([], np.int64), "doc_b": np.array([], np.int64),
                 "hamming": np.array([], np.int64)}
            )
        return pd.DataFrame(
            {"doc_a": np.concatenate(a_out), "doc_b": np.concatenate(b_out),
             "hamming": np.concatenate(d_out)}
        )

    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import bucketed_group_apply

    empty = pd.DataFrame(
        {"doc_a": np.array([], np.int64), "doc_b": np.array([], np.int64),
         "hamming": np.array([], np.int64)}
    )
    # size probe from block METADATA (materialize + count), not ray.get:
    # above the threshold no fingerprint block ever reaches the driver
    sh = sh.materialize()
    n_docs = sh.count()
    if n_docs == 0:
        return rd.from_arrow(pa.Table.from_pandas(empty, preserve_index=False))
    if n_docs <= DRIVER_FASTPATH_ROWS:
        tbl = pa.concat_tables(ray.get(sh.materialize().to_arrow_refs()))
        out = bucket_pairs(explode_bands(tbl).to_pandas()) if len(tbl) else empty
        return rd.from_arrow(pa.Table.from_pandas(out, preserve_index=False))
    exploded = sh.map_batches(explode_bands, batch_format="pyarrow")
    return bucketed_group_apply(exploded, ["band_id", "band_val"], bucket_pairs, n_buckets=32)


# ------------------------------------------------------ n-gram jaccard
class _NgramBuckets:
    """Per-doc gram-hash sets → SLIM candidate rows (bucket, doc_id):
    each doc keys on its ``bucket_sample`` smallest distinct gram hashes
    (a deterministic 'cheap LSH'). Gram sets do NOT ride the exchange."""

    def __init__(self, n: int, bucket_sample: int) -> None:
        self.n = n
        self.bucket_sample = bucket_sample
        self.hasher = TokenHasher()

    def doc_gram_sets(self, batch: pa.Table) -> list[np.ndarray]:
        toks, parents, counts = flat_nonempty_tokens(batch.column("text"))
        h = self.hasher.hash_tokens(toks)
        grams, gparents = gram_hashes(h, counts, k=self.n)
        out: list[np.ndarray] = [np.empty(0, np.int64)] * len(batch)
        if grams.size:
            seg_starts = np.flatnonzero(np.diff(gparents, prepend=-1))
            seg_ends = np.append(seg_starts[1:], grams.size)
            for s, e in zip(seg_starts, seg_ends):
                out[int(gparents[s])] = np.unique(grams[s:e].astype(np.int64))
        # short docs: single joined-string gram
        short = np.flatnonzero((counts > 0) & (counts < self.n))
        if short.size:
            tok_list = toks.to_pylist()
            starts = np.cumsum(counts) - counts
            for i in short:
                g = joined_fallback_hash(tok_list[int(starts[i]): int(starts[i] + counts[i])])
                out[int(i)] = np.array([g], dtype=np.int64)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sets = self.doc_gram_sets(batch)
        bucket_out, doc_out = [], []
        for i, gh in enumerate(sets):
            if not gh.size:
                continue
            mins = gh[: self.bucket_sample]  # np.unique output is sorted
            bucket_out.append(mins)
            doc_out.append(np.full(mins.size, ids[i], dtype=np.int64))
        if not bucket_out:
            return pa.table(
                {"bucket": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "bucket": pa.array(np.concatenate(bucket_out), pa.int64()),
                "doc_id": pa.array(np.concatenate(doc_out), pa.int64()),
            }
        )


_EMPTY_NGRAM_PAIRS = pa.table(
    {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
     "jaccard": pa.array([], pa.float64())}
)


def _ngram_pairs_distributed(
    documents: rd.Dataset,
    bucketed: rd.Dataset,
    *,
    n: int,
    bucket_sample: int,
    threshold: float,
) -> rd.Dataset:
    """Cluster-scale n-gram Jaccard pair path — NO corpus-sized driver
    state. The (bucket, doc_id) rows stay a Dataset: one bucketed
    exchange emits per-bucket candidate pairs, a second slim exchange
    dedups pairs that share several min-gram buckets (the fast path's
    min-common-bucket rule needs a per-doc side table, so the explicit
    dedup replaces it — same pair SET). The exact-Jaccard verify then
    hash-joins candidate halves ⨝ per-doc gram sets on doc_id
    (``Dataset.join``) and intersects the two SORTED gram arrays per
    pair inside the workers. Gram rows are gathered only for docs
    referenced by candidates (broadcast of a candidate-sized id set —
    bounded by the pair table, never the corpus)."""
    from ..stages.grouping import bucketed_group_apply, sized_join

    def bucket_pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        a_out, b_out = [], []
        for _v, grp in bucket.groupby("bucket", sort=False):
            if len(grp) < 2:
                continue
            ids = np.unique(grp["doc_id"].to_numpy(np.int64))
            if ids.size < 2:
                continue
            ii, jj = np.triu_indices(ids.size, k=1)
            a_out.append(ids[ii])
            b_out.append(ids[jj])
        if not a_out:
            return pd.DataFrame(
                {"doc_a": np.array([], np.int64), "doc_b": np.array([], np.int64)}
            )
        return pd.DataFrame(
            {"doc_a": np.concatenate(a_out), "doc_b": np.concatenate(b_out)}
        )

    cand = bucketed_group_apply(bucketed, ["bucket"], bucket_pairs, n_buckets=32)
    cand = _dedup_pair_rows(cand, ["doc_a", "doc_b"]).materialize()
    if cand.count() == 0:
        return rd.from_arrow(_EMPTY_NGRAM_PAIRS)

    # referenced doc ids — candidate-pair-sized, safe to broadcast
    ref_ids: list[np.ndarray] = []
    for t in ray.get(cand.materialize().to_arrow_refs()):
        if len(t):
            ref_ids.append(t.column("doc_a").to_numpy(zero_copy_only=False))
            ref_ids.append(t.column("doc_b").to_numpy(zero_copy_only=False))
    referenced = np.unique(np.concatenate(ref_ids))
    ref_set_ref = [ray.put(pa.array(referenced, pa.int64()))]
    helper = _NgramBuckets(n, bucket_sample)

    def gather_sets(batch: pa.Table) -> pa.Table:
        # grams packed as binary (little-endian i64s): Arrow's hash join
        # rejects list<> payload columns
        import pyarrow.compute as pc

        mask = pc.is_in(batch.column("doc_id"), value_set=ray.get(ref_set_ref[0]))
        sub = batch.filter(mask)
        if not len(sub):
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "grams": pa.array([], pa.binary())}
            )
        sets = helper.doc_gram_sets(sub)  # sorted unique per doc
        return pa.table(
            {
                "doc_id": sub.column("doc_id"),
                "grams": pa.array(
                    [s.astype("<i8").tobytes() for s in sets], pa.binary()
                ),
            }
        )

    # materialized: candidate-pruned (small), and BOTH joins read it —
    # unmaterialized each join would re-run the corpus-wide gather pass
    gram_rows = documents.map_batches(gather_sets, batch_format="pyarrow").materialize()

    def rename(id_name: str, gram_name: str):
        def r(batch: pa.Table) -> pa.Table:
            return pa.table(
                {id_name: batch.column("doc_id"), gram_name: batch.column("grams")}
            )

        return r

    # pair-sized intermediate materialized between the joins (same
    # aggregator-reservation rationale as the minhash path)
    joined = sized_join(
        cand, gram_rows.map_batches(rename("doc_a", "grams_a"), batch_format="pyarrow"),
        ("doc_a",),
    ).materialize()
    joined = sized_join(
        joined, gram_rows.map_batches(rename("doc_b", "grams_b"), batch_format="pyarrow"),
        ("doc_b",),
    )

    def verify(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return _EMPTY_NGRAM_PAIRS
        a = batch.column("doc_a").to_numpy(zero_copy_only=False)
        b = batch.column("doc_b").to_numpy(zero_copy_only=False)
        ga = batch.column("grams_a").to_pylist()
        gb = batch.column("grams_b").to_pylist()
        a_out, b_out, j_out = [], [], []
        for da, db, s1, s2 in zip(a.tolist(), b.tolist(), ga, gb):
            x = np.frombuffer(s1, "<i8")
            y = np.frombuffer(s2, "<i8")
            inter = np.intersect1d(x, y, assume_unique=True).size
            union = x.size + y.size - inter
            jac = inter / union if union else 0.0
            if jac >= threshold:
                a_out.append(da)
                b_out.append(db)
                j_out.append(round(jac, 6))
        return pa.table(
            {
                "doc_a": pa.array(a_out, pa.int64()),
                "doc_b": pa.array(b_out, pa.int64()),
                "jaccard": pa.array(j_out, pa.float64()),
            }
        )

    # same duplicated-doc_id join-multiplication guard as the minhash
    # distributed path — pair-sized, first-wins
    return _dedup_pair_rows(
        joined.map_batches(verify, batch_format="pyarrow"), ["doc_a", "doc_b"]
    )


def ngram_jaccard_pairs(
    documents: rd.Dataset, *, n: int = 3, threshold: float = 0.5, bucket_sample: int = 4
) -> rd.Dataset:
    """Exact word-n-gram Jaccard near-dup pairs. Candidates come from
    shared MIN-n-gram buckets; the exchange carries ONLY (bucket,
    doc_id). Exact Jaccard is then verified by re-deriving gram sets for
    just the docs referenced by candidates (a candidate-pruned second
    pass over ``documents`` — cheap because candidates are rare).

    Below ``DRIVER_FASTPATH_ROWS`` bucket rows (≤ bucket_sample·16 B per
    doc) the slim rows are collected once on the driver, the
    min-common-bucket rule makes pairs unique without a dedup exchange,
    and the verify reads locally gathered gram sets. Above it — cluster
    scale — see :func:`_ngram_pairs_distributed` (bucket exchange →
    pair dedup → pair halves ⨝ gram sets hash-join); both paths produce
    the identical pair set (regression-tested).

    Duplicated ``doc_id`` rows (a re-ingested doc) are tolerated
    FIRST-wins provided they carry identical text: the fast path dedups
    the per-doc min-gram rows, the distributed path dedups the verified
    pair rows — either way the output pair set equals the unique-input
    run (property-tested)."""
    from ..config import DRIVER_FASTPATH_ROWS as _FASTPATH_GATE

    stage = {"n": n, "bucket_sample": bucket_sample}
    from ..stages.taskpool import cached_kernel_map

    bucketed = cached_kernel_map(documents, _NgramBuckets, stage).materialize()
    empty = _EMPTY_NGRAM_PAIRS
    n_bucket_rows = bucketed.count()
    if n_bucket_rows == 0:
        return rd.from_arrow(empty)
    if n_bucket_rows > _FASTPATH_GATE:
        return _ngram_pairs_distributed(
            documents, bucketed, n=n, bucket_sample=bucket_sample, threshold=threshold
        )
    # Collect the SLIM (bucket, doc_id) rows once (≤ bucket_sample·16 B
    # per doc — the same driver-side contract as the minhash signature
    # side table). They feed BOTH the pair exchange and the per-doc
    # min-bucket side table that makes pairs globally unique in one
    # exchange.
    bparts = [t for t in (ray.get(r) for r in bucketed.materialize().to_arrow_refs()) if len(t)]
    if not bparts:
        return rd.from_arrow(empty)
    btbl = pa.concat_tables(bparts)
    bdocs = btbl.column("doc_id").to_numpy(zero_copy_only=False)
    bvals = btbl.column("bucket").to_numpy(zero_copy_only=False)
    # (doc, bucket) lexsort + pairwise dedup: duplicated doc_id rows
    # (re-ingested docs) would otherwise overflow the per-doc min-gram
    # slots; per-doc runs stay ascending for the min-common-bucket rule
    order = np.lexsort((bvals, bdocs))
    sdocs, svals = bdocs[order], bvals[order]
    if sdocs.size > 1:
        keep = np.ones(sdocs.size, bool)
        keep[1:] = (sdocs[1:] != sdocs[:-1]) | (svals[1:] != svals[:-1])
        sdocs, svals = sdocs[keep], svals[keep]
    uniq_ids, starts = np.unique(sdocs, return_index=True)
    ends = np.append(starts[1:], sdocs.size)
    # gram hashes are mod-Mersenne61 (non-negative) → -1 pads safely;
    # clip to the bucket_sample SMALLEST grams (ascending per-doc runs)
    mins_mat = np.full((uniq_ids.size, bucket_sample), -1, dtype=np.int64)
    for r, (s, e) in enumerate(zip(starts, ends)):
        w = min(e - s, bucket_sample)
        mins_mat[r, :w] = svals[s : s + w]
    mins_ref = [ray.put((uniq_ids, mins_mat))]

    def bucket_pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        """Pairs per shared min-gram bucket, emitted ONLY when that
        bucket is the SMALLEST gram hash the two docs share — each pair
        surfaces from exactly one bucket (no second dedup exchange)."""
        sids, mm = ray.get(mins_ref[0])
        a_out, b_out = [], []
        for v, grp in bucket.groupby("bucket", sort=False):
            if len(grp) < 2:
                continue
            ids = np.unique(grp["doc_id"].to_numpy(np.int64))
            if ids.size < 2:
                continue
            ii, jj = np.triu_indices(ids.size, k=1)
            pa_ids, pb_ids = ids[ii], ids[jj]
            ma = mm[np.searchsorted(sids, pa_ids)]
            mb = mm[np.searchsorted(sids, pb_ids)]
            eq = (ma[:, :, None] == mb[:, None, :]) & (ma[:, :, None] >= 0)
            vals = np.where(eq, np.broadcast_to(ma[:, :, None], eq.shape), np.iinfo(np.int64).max)
            common_min = vals.min(axis=(1, 2))
            keep = common_min == int(v)
            if keep.any():
                a_out.append(pa_ids[keep])
                b_out.append(pb_ids[keep])
        if not a_out:
            return pd.DataFrame(
                {"doc_a": np.array([], np.int64), "doc_b": np.array([], np.int64)}
            )
        return pd.DataFrame(
            {"doc_a": np.concatenate(a_out), "doc_b": np.concatenate(b_out)}
        )

    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import bucketed_group_apply

    if len(btbl) <= DRIVER_FASTPATH_ROWS:
        # band table already driver-resident → one local pandas pass
        cand_tbl = pa.Table.from_pandas(
            bucket_pairs(btbl.to_pandas()), preserve_index=False
        )
    else:
        cand = bucketed_group_apply(
            rd.from_arrow(btbl), ["bucket"], bucket_pairs, n_buckets=32
        )
        cand_parts = [t for t in (ray.get(r) for r in cand.materialize().to_arrow_refs()) if len(t)]
        cand_tbl = pa.concat_tables(cand_parts) if cand_parts else None
    if cand_tbl is None or not len(cand_tbl):
        return rd.from_arrow(empty)
    a = cand_tbl.column("doc_a").to_numpy(zero_copy_only=False)
    b = cand_tbl.column("doc_b").to_numpy(zero_copy_only=False)
    referenced = np.unique(np.concatenate([a, b]))
    ref_set_ref = [ray.put(referenced)]

    helper = _NgramBuckets(n, bucket_sample)

    def gather_sets(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ref = ray.get(ref_set_ref[0])
        mask = pc.is_in(batch.column("doc_id"), value_set=pa.array(ref))
        sub = batch.filter(mask)
        if not len(sub):
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "grams": pa.array([], pa.list_(pa.int64()))}
            )
        sets = helper.doc_gram_sets(sub)
        return pa.table(
            {
                "doc_id": sub.column("doc_id"),
                "grams": pa.array([s.tolist() for s in sets], pa.list_(pa.int64())),
            }
        )

    gram_rows = documents.map_batches(gather_sets, batch_format="pyarrow")
    sets_by_doc: dict[int, set] = {}
    for ref in gram_rows.materialize().to_arrow_refs():
        t = ray.get(ref)
        for did, gs in zip(t.column("doc_id").to_pylist(), t.column("grams").to_pylist()):
            sets_by_doc[int(did)] = set(gs)
    a_out, b_out, j_out = [], [], []
    for da, db in zip(a.tolist(), b.tolist()):
        s1 = sets_by_doc.get(da, set())
        s2 = sets_by_doc.get(db, set())
        jac = len(s1 & s2) / len(s1 | s2) if (s1 or s2) else 0.0
        if jac >= threshold:
            a_out.append(da)
            b_out.append(db)
            j_out.append(round(jac, 6))
    return rd.from_arrow(
        pa.table(
            {
                "doc_a": pa.array(a_out, pa.int64()),
                "doc_b": pa.array(b_out, pa.int64()),
                "jaccard": pa.array(j_out, pa.float64()),
            }
        )
    )


# --------------------------------------- containment (asymmetric) near-dup
_EMPTY_CONTAIN_PAIRS = pa.table(
    {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
     "containment": pa.array([], pa.float64())}
)


class _ContainmentGramRows:
    """(gram, doc_id, probe) rows for the one-sided containment candidate
    pass: EVERY distinct gram of every doc (the "index" side), with
    ``probe=1`` on the doc's ``probe_sample`` smallest gram hashes (the
    "query" side). Unlike the symmetric Jaccard bucketing — where both
    docs must sample the same min gram — containment of a small doc A in
    a much larger doc B only needs A's sampled grams to hit ANY of B's
    grams, so the index side cannot be sampled. The exchange therefore
    carries one slim (int64 gram, int64 doc_id, int8 flag) row per
    distinct gram — the same order of magnitude as the posting-index
    build's own exchange, and the price of a recall guarantee:
    P[miss | containment ≥ t] ≤ (1 − t)^probe_sample."""

    def __init__(self, n: int, probe_sample: int) -> None:
        self.helper = _NgramBuckets(n, probe_sample)
        self.k = probe_sample

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sets = self.helper.doc_gram_sets(batch)  # sorted unique per doc
        gram_out, doc_out, probe_out = [], [], []
        for i, gh in enumerate(sets):
            if not gh.size:
                continue
            gram_out.append(gh)
            doc_out.append(np.full(gh.size, ids[i], dtype=np.int64))
            pr = np.zeros(gh.size, np.int8)
            pr[: self.k] = 1  # sorted → the first k are the smallest
            probe_out.append(pr)
        if not gram_out:
            return pa.table(
                {"gram": pa.array([], pa.int64()),
                 "doc_id": pa.array([], pa.int64()),
                 "probe": pa.array([], pa.int8())}
            )
        return pa.table(
            {
                "gram": pa.array(np.concatenate(gram_out), pa.int64()),
                "doc_id": pa.array(np.concatenate(doc_out), pa.int64()),
                "probe": pa.array(np.concatenate(probe_out), pa.int8()),
            }
        )


def containment_pairs(
    documents: rd.Dataset,
    *,
    n: int = 3,
    threshold: float = 0.6,
    probe_sample: int = 8,
    min_hits: int = 2,
    max_gram_df: int = 32,
) -> rd.Dataset:
    """Asymmetric (containment) near-dup pairs: ORDERED (doc_a, doc_b)
    with C(a→b) = |grams(a) ∩ grams(b)| / |grams(a)| ≥ ``threshold`` —
    the "quote / subset / re-post" signal symmetric Jaccard misses when
    doc_b is much longer than doc_a.

    Candidate rule (deterministic, SQL-mirrorable): (a, b) is a
    candidate iff at least ``min_hits`` of a's ``probe_sample`` smallest
    gram hashes appear in b's full gram set, counting only grams with
    document frequency ≤ ``max_gram_df`` (the df cap bounds per-gram
    fan-out — a gram in more docs than that is a boilerplate shingle,
    useless as evidence and quadratic as a bucket). Requiring TWO
    independent rare-gram hits is what keeps candidates near the true
    pair count: one shared shingle between unrelated docs is common,
    two distinct shared min-shingles is not (measured 33× fewer
    candidates than the 1-hit rule at identical final pairs). Recall:
    a's probe grams are a ~uniform sample of grams(a), so
    P[miss | C ≥ t] ≤ P[Binom(probe_sample, t) < min_hits] — ~1% at the
    t = 0.6 boundary with the defaults, vanishing for stronger overlap.

    Scale shape: ONE slim (gram, doc_id, probe) exchange (token-scale,
    like the posting build — see :class:`_ContainmentGramRows`), a
    pair-evidence-count exchange, then exact verify. The verify payload
    is candidate-pruned gram sets (bounded by candidates, never the
    corpus): below ``DRIVER_FASTPATH_ROWS`` candidates they resolve
    locally; above it pair halves hash-join ⨝ packed gram sets on
    doc_id (the :func:`_ngram_pairs_distributed` machinery) with join
    partitions sized to the PAIR table. Both paths emit the identical
    pair set (regression-tested). The containment value is an exact
    integer ratio, so DuckDB reproduces it bit-for-bit."""
    from ..stages.grouping import bucketed_group_apply, drop_empty_blocks, sized_join
    from ..stages.taskpool import cached_kernel_map

    gram_rows_all = cached_kernel_map(
        documents, _ContainmentGramRows, {"n": n, "probe_sample": probe_sample}
    )

    def bucket_pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        """Per-gram probe×member pair expansion, fully vectorized: the
        bucket holds millions of tiny gram groups, so a pandas groupby
        loop is the hot spot — segment arithmetic over a lexsorted view
        replaces it (same multi-slice-gather idiom as the posindex
        adjacency kernel)."""
        empty = pd.DataFrame(
            {"doc_a": np.array([], np.int64), "doc_b": np.array([], np.int64)}
        )
        if not len(bucket):
            return empty
        g = bucket["gram"].to_numpy(np.int64)
        d = bucket["doc_id"].to_numpy(np.int64)
        p = bucket["probe"].to_numpy(np.int8)
        order = np.lexsort((d, g))
        g, d, p = g[order], d[order], p[order]
        starts = np.flatnonzero(np.diff(g, prepend=g[0] - 1))
        lens = np.diff(np.append(starts, g.size))
        # rows are distinct (gram, doc) → segment length IS the gram's df
        ok = (lens >= 2) & (lens <= max_gram_df)
        if not ok.any():
            return empty
        seg_of_row = np.repeat(np.arange(starts.size), lens)
        row_ok = ok[seg_of_row]
        d2, p2 = d[row_ok], p[row_ok]
        seg_len = lens[ok]
        offs = np.cumsum(seg_len) - seg_len          # filtered segment starts
        cseg = np.repeat(np.arange(seg_len.size), seg_len)
        pr = np.flatnonzero(p2 == 1)                 # probe rows (filtered idx)
        if not pr.size:
            return empty
        counts = seg_len[cseg[pr]]                   # fan-out per probe row
        a = np.repeat(d2[pr], counts)
        cum = np.cumsum(counts) - counts
        idx = (np.arange(int(counts.sum())) - np.repeat(cum, counts)
               + np.repeat(offs[cseg[pr]], counts))
        b = d2[idx]
        keep = a != b
        if not keep.any():
            return empty
        return pd.DataFrame({"doc_a": a[keep], "doc_b": b[keep]})

    def pair_hits_filter(b: pd.DataFrame) -> pd.DataFrame:
        """One row per (a, b) per shared probe gram arrives here; keep
        pairs with ≥ min_hits rows (distinct-gram evidence count)."""
        empty = pd.DataFrame(
            {"doc_a": np.array([], np.int64), "doc_b": np.array([], np.int64)}
        )
        if not len(b):
            return empty
        a = b["doc_a"].to_numpy(np.int64)
        c = b["doc_b"].to_numpy(np.int64)
        order = np.lexsort((c, a))
        a, c = a[order], c[order]
        starts = np.flatnonzero(
            np.diff(a, prepend=a[0] - 1) | np.diff(c, prepend=c[0] - 1)
        )
        lens = np.diff(np.append(starts, a.size))
        keep = starts[lens >= min_hits]
        if not keep.size:
            return empty
        return pd.DataFrame({"doc_a": a[keep], "doc_b": c[keep]})

    from ..config import DRIVER_FASTPATH_ROWS

    # materialized once to decide the gate AND feed whichever path wins
    # (below: driver collect; above: the bucket exchange reads the same
    # blocks — the tokenize pool never re-runs). The object-store copy
    # is the same order as the shuffle files the exchange writes anyway.
    gram_rows_all = gram_rows_all.materialize()
    n_gram_rows = gram_rows_all.count()
    if n_gram_rows == 0:
        return rd.from_arrow(_EMPTY_CONTAIN_PAIRS)
    if n_gram_rows <= DRIVER_FASTPATH_ROWS:
        # slim (17 B/row) gram table fits the driver contract — run both
        # candidate passes locally, skipping two all-to-all exchanges
        # whose fixed cost dwarfs this data size
        gtbl = pa.concat_tables(
            [t for t in ray.get(gram_rows_all.materialize().to_arrow_refs()) if len(t)]
        )
        cand_pd = pair_hits_filter(bucket_pairs(gtbl.to_pandas()))
        if not len(cand_pd):
            return rd.from_arrow(_EMPTY_CONTAIN_PAIRS)
        cand = rd.from_arrow(pa.Table.from_pandas(cand_pd, preserve_index=False))
    else:
        cand = bucketed_group_apply(gram_rows_all, ["gram"], bucket_pairs, n_buckets=32)
        cand = bucketed_group_apply(
            cand, ["doc_a", "doc_b"], pair_hits_filter, n_buckets=32
        )
        # empty-schema blocks from the small-scale groupby break Acero joins
        cand = drop_empty_blocks(cand.materialize())
    n_cand = cand.count()
    if n_cand == 0:
        return rd.from_arrow(_EMPTY_CONTAIN_PAIRS)

    # referenced doc ids — candidate-pair-sized, safe to broadcast
    ref_ids: list[np.ndarray] = []
    for t in ray.get(cand.materialize().to_arrow_refs()):
        if len(t):
            ref_ids.append(t.column("doc_a").to_numpy(zero_copy_only=False))
            ref_ids.append(t.column("doc_b").to_numpy(zero_copy_only=False))
    referenced = np.unique(np.concatenate(ref_ids))
    ref_set_ref = [ray.put(pa.array(referenced, pa.int64()))]
    helper = _NgramBuckets(n, probe_sample)

    def gather_sets(batch: pa.Table) -> pa.Table:
        # grams packed as binary (little-endian i64s): Arrow's hash join
        # rejects list<> payload columns
        import pyarrow.compute as pc

        mask = pc.is_in(batch.column("doc_id"), value_set=ray.get(ref_set_ref[0]))
        sub = batch.filter(mask)
        if not len(sub):
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "grams": pa.array([], pa.binary())}
            )
        sets = helper.doc_gram_sets(sub)  # sorted unique per doc
        return pa.table(
            {
                "doc_id": sub.column("doc_id"),
                "grams": pa.array(
                    [s.astype("<i8").tobytes() for s in sets], pa.binary()
                ),
            }
        )

    # materialized: candidate-pruned (small), and BOTH joins read it
    gram_sets = documents.map_batches(gather_sets, batch_format="pyarrow").materialize()

    def verify(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return _EMPTY_CONTAIN_PAIRS
        a = batch.column("doc_a").to_numpy(zero_copy_only=False)
        b = batch.column("doc_b").to_numpy(zero_copy_only=False)
        ga = batch.column("grams_a").to_pylist()
        gb = batch.column("grams_b").to_pylist()
        a_out, b_out, c_out = [], [], []
        for da, db, s1, s2 in zip(a.tolist(), b.tolist(), ga, gb):
            x = np.frombuffer(s1, "<i8")
            y = np.frombuffer(s2, "<i8")
            if not x.size:
                continue
            inter = np.intersect1d(x, y, assume_unique=True).size
            c = inter / x.size
            if c >= threshold:
                a_out.append(da)
                b_out.append(db)
                c_out.append(round(c, 6))
        return pa.table(
            {
                "doc_a": pa.array(a_out, pa.int64()),
                "doc_b": pa.array(b_out, pa.int64()),
                "containment": pa.array(c_out, pa.float64()),
            }
        )

    if n_cand <= DRIVER_FASTPATH_ROWS:
        # candidate + gram tables are pair-/candidate-doc-sized here, and
        # two hash joins carry ~4 s of aggregator-actor startup each at
        # this size — resolve the packed gram blobs locally instead
        by_doc: dict[int, bytes] = {}
        for t in ray.get(gram_sets.materialize().to_arrow_refs()):
            for did, blob in zip(
                t.column("doc_id").to_pylist(), t.column("grams").to_pylist()
            ):
                by_doc[int(did)] = blob
        parts = []
        for t in ray.get(cand.materialize().to_arrow_refs()):
            if not len(t):
                continue
            av = t.column("doc_a").to_pylist()
            bv = t.column("doc_b").to_pylist()
            parts.append(pa.table(
                {
                    "doc_a": pa.array(av, pa.int64()),
                    "doc_b": pa.array(bv, pa.int64()),
                    "grams_a": pa.array([by_doc.get(x, b"") for x in av], pa.binary()),
                    "grams_b": pa.array([by_doc.get(x, b"") for x in bv], pa.binary()),
                }
            ))
        return rd.from_arrow(verify(pa.concat_tables(parts)))

    def rename(id_name: str, gram_name: str):
        def r(batch: pa.Table) -> pa.Table:
            return pa.table(
                {id_name: batch.column("doc_id"), gram_name: batch.column("grams")}
            )

        return r

    # join partitions scale with the PAIR table, not the cluster — tiny
    # candidate sets shouldn't spin up a 64-actor aggregator pool
    n_part = max(2, min(64, (n_cand // 100_000) + 2))
    # pair-sized intermediate materialized between the joins (aggregator-
    # reservation deadlock guard — see _ngram_pairs_distributed)
    joined = sized_join(
        cand, gram_sets.map_batches(rename("doc_a", "grams_a"), batch_format="pyarrow"),
        ("doc_a",), num_partitions=n_part,
    ).materialize()
    joined = sized_join(
        joined, gram_sets.map_batches(rename("doc_b", "grams_b"), batch_format="pyarrow"),
        ("doc_b",), num_partitions=n_part,
    )

    return joined.map_batches(verify, batch_format="pyarrow")


# ------------------------------------------- embedding cosine near-dup
from ..functions.vectors import embedding_vectors  # noqa: E402 (re-export)


def embedding_near_pairs(
    embeddings: rd.Dataset,
    *,
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """Embedding near-duplicate pairs (cosine ≥ threshold, compared on
    the 6-decimal-rounded value so the SQL oracle agrees bit-for-bit)
    via random-hyperplane LSH bucketing + exact in-bucket verify
    (float64). n_planes trades recall vs bucket size: high thresholds ⇒
    near-identical sign patterns ⇒ same bucket with high probability."""

    def bucketize(batch: pa.Table) -> pa.Table:
        vecs = embedding_vectors(batch.column(vec_col))
        dim = vecs.shape[1] if vecs.ndim == 2 else 0
        rng = np.random.default_rng(seed)  # same planes every batch
        planes = rng.standard_normal((dim, n_planes))
        signs = (vecs @ planes) > 0
        keys = np.zeros(len(vecs), dtype=np.int64)
        for p in range(n_planes):
            keys |= signs[:, p].astype(np.int64) << p
        norms = np.linalg.norm(vecs, axis=1)
        return pa.table(
            {
                "bucket": pa.array(keys),
                id_col: batch.column(id_col),
                vec_col: batch.column(vec_col),
                "norm": pa.array(norms),
            }
        )

    bucketed = embeddings.map_batches(bucketize, batch_format="pyarrow")

    def bucket_pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        a_out, b_out, c_out = [], [], []
        for _, grp in bucket.groupby("bucket", sort=False):
            if len(grp) < 2:
                continue
            ids = grp[id_col].to_numpy(np.int64)
            vecs = np.asarray(list(grp[vec_col]), dtype=np.float64)
            norms = grp["norm"].to_numpy(np.float64)
            order = np.argsort(ids)
            ids, vecs, norms = ids[order], vecs[order], norms[order]
            sims = (vecs @ vecs.T) / np.maximum(np.outer(norms, norms), 1e-300)
            ii, jj = np.triu_indices(len(ids), k=1)
            simr = np.round(sims[ii, jj], 6)
            good = simr >= threshold
            for i, j, s in zip(ii[good], jj[good], simr[good]):
                a_out.append(int(ids[i]))
                b_out.append(int(ids[j]))
                c_out.append(float(s))
        return pd.DataFrame(
            {"vec_a": np.array(a_out, np.int64), "vec_b": np.array(b_out, np.int64),
             "cosine": np.array(c_out, np.float64)}
        )

    from ..stages.grouping import bucketed_group_apply

    # each vector lands in exactly ONE hyperplane bucket, so a pair can
    # only surface once — no cross-band duplicates, no dedup exchange
    return bucketed_group_apply(bucketed, ["bucket"], bucket_pairs, n_buckets=32)


# --------------------------------------------------------------------------
# Duplicate k-token span detection (substring-level exact dedup)
# --------------------------------------------------------------------------


def _window_hash_stage(
    batch: pa.Table, k: int, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Stateless task-pool stage for ``dup_span_stats``: per batch, hash
    every k-token window of every doc and emit the partial-aggregated
    slim rows ``(doc_id, win_hash, cnt)`` — one row per DISTINCT window
    per doc, ``cnt`` its occurrence count.

    Vectorized end to end: the window strings are built by joining k
    shifted zero-copy slices of the flat token array with ONE Arrow
    ``binary_join_element_wise`` kernel call; hashing dictionary-encodes
    first so md5 runs once per distinct window in the batch (duplicated
    spans are exactly what this operator hunts, so the encode pays for
    itself). ``win_hash = md5_u64(joined) % MERSENNE61`` — bit-identical
    to DuckDB ``md5_number_lower(array_to_string(toks[i:i+k-1], ' ')) %
    2305843009213693951``, which is what makes the SQL oracle hard.
    No cross-batch state (the window vocabulary is corpus-sized, so an
    actor-level cache would grow without bound) — hence a plain task,
    not an actor pool: actor startup dwarfs the per-batch compute.
    """
    import pyarrow.compute as pc

    from ..functions.hashing import MERSENNE61, flat_nonempty_tokens, md5_u64

    if k < 2:
        raise ValueError("window size k must be >= 2")
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "win_hash": pa.array([], pa.int64()),
            "cnt": pa.array([], pa.int64()),
        }
    )
    doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    toks, parents, counts = flat_nonempty_tokens(batch.column(text_col))
    n = len(toks)
    m = n - k + 1  # candidate window start positions
    if m <= 0 or not (counts >= k).any():
        return empty
    starts = np.cumsum(counts) - counts
    wpar = parents[:m]
    idx_in_doc = np.arange(m, dtype=np.int64) - starts[wpar]
    valid = idx_in_doc <= counts[wpar] - k
    if not valid.any():
        return empty
    slices = [toks.slice(j, m) for j in range(k)]
    joined = pc.binary_join_element_wise(*slices, " ")
    if isinstance(joined, pa.ChunkedArray):
        joined = joined.combine_chunks()
    if not valid.all():
        joined = joined.filter(pa.array(valid))
        wpar = wpar[valid]
    # md5 once per DISTINCT window string in the batch
    denc = joined.dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq_hash = md5_u64(denc.dictionary.to_pylist()) % np.uint64(MERSENNE61)
    wh = uniq_hash[codes].astype(np.int64)  # < 2^61, BIGINT-safe
    tbl = pa.table(
        {
            "doc_id": pa.array(doc_ids[wpar].astype(np.int64)),
            "win_hash": pa.array(wh),
        }
    )
    counted = tbl.group_by(["doc_id", "win_hash"]).aggregate([([], "count_all")])
    return pa.table(
        {
            "doc_id": counted["doc_id"],
            "win_hash": counted["win_hash"],
            "cnt": pc.cast(counted["count_all"], pa.int64()),
        }
    )


def _window_idx_stage(
    batch: pa.Table, k: int, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """``_window_hash_stage`` with POSITIONS kept: one slim row per
    k-token window occurrence, ``(doc_id, win_idx, win_hash)`` — the
    run detector needs to know WHERE the duplicated windows sit, not
    just how many there are. Same vectorized join+dictionary-encode
    hashing, same md5 % Mersenne-61 SQL equivalence."""
    import pyarrow.compute as pc

    from ..functions.hashing import MERSENNE61, flat_nonempty_tokens, md5_u64

    if k < 2:
        raise ValueError("window size k must be >= 2")
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "win_idx": pa.array([], pa.int64()),
            "win_hash": pa.array([], pa.int64()),
        }
    )
    doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    toks, parents, counts = flat_nonempty_tokens(batch.column(text_col))
    n = len(toks)
    m = n - k + 1
    if m <= 0 or not (counts >= k).any():
        return empty
    starts = np.cumsum(counts) - counts
    wpar = parents[:m]
    idx_in_doc = np.arange(m, dtype=np.int64) - starts[wpar]
    valid = idx_in_doc <= counts[wpar] - k
    if not valid.any():
        return empty
    slices = [toks.slice(j, m) for j in range(k)]
    joined = pc.binary_join_element_wise(*slices, " ")
    if isinstance(joined, pa.ChunkedArray):
        joined = joined.combine_chunks()
    if not valid.all():
        joined = joined.filter(pa.array(valid))
        wpar = wpar[valid]
        idx_in_doc = idx_in_doc[valid]
    denc = joined.dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq_hash = md5_u64(denc.dictionary.to_pylist()) % np.uint64(MERSENNE61)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[wpar].astype(np.int64)),
            "win_idx": pa.array(idx_in_doc),
            "win_hash": pa.array(uniq_hash[codes].astype(np.int64)),
        }
    )


def dup_span_runs(
    documents: rd.Dataset,
    k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
) -> rd.Dataset:
    """→ (doc_id, n_windows, max_dup_run) — per document, the LONGEST
    consecutive run of k-token windows that also occur in at least one
    other document. ``dup_span_stats`` measures how MUCH of a doc is
    duplicated; this measures how CONTIGUOUS the duplication is — a
    50-window verbatim block (max_dup_run ≈ 50) is the Lee et al.
    exact-substring signal, while 50 scattered boilerplate windows
    (max_dup_run ≈ 1) is not.

    Scale shape: one (doc_id, win_idx, win_hash) exchange bucketed by
    hash marks duplicated occurrences and emits ONLY those (plus k-row
    per-doc totals) — the second, doc-keyed exchange sees duplicated
    windows and totals, not the corpus; the run scan per doc is one
    vectorized diff over the sorted indices."""
    from ..stages.grouping import bucketed_group_apply

    wins = documents.map_batches(
        _window_idx_stage,
        fn_kwargs={"k": k, "text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
    )

    def bucket_fn(bucket: pd.DataFrame) -> pd.DataFrame:
        # rows are per-occurrence → docs-per-hash needs nunique
        ndocs = bucket.groupby("win_hash", sort=False)["doc_id"].transform("nunique")
        dup = bucket[(ndocs >= 2).to_numpy()]
        tot = bucket.groupby("doc_id", sort=False).size()
        return pd.DataFrame(
            {
                "doc_id": np.concatenate(
                    [dup["doc_id"].to_numpy(np.int64), tot.index.to_numpy(np.int64)]
                ),
                "win_idx": np.concatenate(
                    [dup["win_idx"].to_numpy(np.int64),
                     np.full(len(tot), -1, np.int64)]
                ),
                "n_win": np.concatenate(
                    [np.zeros(len(dup), np.int64), tot.to_numpy(np.int64)]
                ),
            }
        )

    partials = bucketed_group_apply(wins, ["win_hash"], bucket_fn, n_buckets=n_buckets)

    def zero_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        z = np.zeros(len(batch), dtype=np.int64)
        return pa.table(
            {
                "doc_id": pc.cast(batch.column(id_col), pa.int64()),
                "win_idx": pa.array(z - 1),
                "n_win": pa.array(z),
            }
        )

    all_docs = documents.select_columns([id_col]).map_batches(
        zero_rows, batch_format="pyarrow"
    )

    def final_fn(bucket: pd.DataFrame) -> pd.DataFrame:
        d = bucket["doc_id"].to_numpy(np.int64)
        wi = bucket["win_idx"].to_numpy(np.int64)
        nw = bucket["n_win"].to_numpy(np.int64)
        order = np.lexsort((wi, d))
        d, wi, nw = d[order], wi[order], nw[order]
        uniq, starts = np.unique(d, return_index=True)
        ends = np.append(starts[1:], d.size)
        n_windows = np.add.reduceat(nw, starts)
        max_run = np.zeros(uniq.size, np.int64)
        for r, (s, e) in enumerate(zip(starts, ends)):
            idxs = wi[s:e]
            idxs = idxs[idxs >= 0]
            if not idxs.size:
                continue
            # sorted (lexsort) → runs split where the step isn't 1
            brk = np.flatnonzero(np.diff(idxs) != 1)
            run_starts = np.r_[0, brk + 1]
            run_ends = np.r_[brk, idxs.size - 1]
            max_run[r] = int((run_ends - run_starts + 1).max())
        return pd.DataFrame(
            {"doc_id": uniq, "n_windows": n_windows, "max_dup_run": max_run}
        )

    return bucketed_group_apply(
        partials.union(all_docs), ["doc_id"], final_fn, n_buckets=32
    )


def winnow_fingerprints_ds(
    documents: rd.Dataset,
    k: int = 5,
    w: int = 4,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """→ (doc_id, pos, fingerprint) — WINNOWING document fingerprints
    (Schleimer, Wilkerson & Aiken, SIGMOD 2003 — the MOSS algorithm):
    hash every k-token window, slide a w-hash window over the hash
    sequence and select the minimum of each window (RIGHTMOST on ties),
    keeping the distinct (position, hash) selections. Guarantees any
    shared run of ≥ k + w − 1 tokens yields a shared fingerprint, at
    expected density 2/(w+1) — the position-robust local dedup /
    plagiarism signal exact hashing and MinHash both miss.

    Scale shape: SHUFFLE-FREE — each doc's selection depends only on its
    own tokens, so one ``map_batches`` pass computes everything; the
    sliding min is a vectorized ``sliding_window_view`` argmin (no
    per-doc Python). Window hashes reuse dup_spans' md5%Mersenne61
    scheme, so the SQL oracle is hard."""
    from ..functions.hashing import MERSENNE61, flat_nonempty_tokens, md5_u64

    if k < 2 or w < 1:
        raise ValueError("need k >= 2 (window tokens) and w >= 1 (hash window)")

    def stage(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "pos": pa.array([], pa.int64()),
                "fingerprint": pa.array([], pa.int64()),
            }
        )
        doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        toks, parents, counts = flat_nonempty_tokens(batch.column(text_col))
        n = len(toks)
        m = n - k + 1
        if m <= 0 or not (counts >= k).any():
            return empty
        starts = np.cumsum(counts) - counts
        wpar = parents[:m]
        idx_in_doc = np.arange(m, dtype=np.int64) - starts[wpar]
        valid = idx_in_doc <= counts[wpar] - k
        if not valid.any():
            return empty
        slices = [toks.slice(j, m) for j in range(k)]
        joined = pc.binary_join_element_wise(*slices, " ")
        if isinstance(joined, pa.ChunkedArray):
            joined = joined.combine_chunks()
        if not valid.all():
            joined = joined.filter(pa.array(valid))
            wpar = wpar[valid]
        denc = joined.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        uniq_hash = md5_u64(denc.dictionary.to_pylist()) % np.uint64(MERSENNE61)
        wh = uniq_hash[codes].astype(np.int64)  # per-POSITION k-gram hash
        # per-doc k-gram sequence lengths and positions over the filtered
        # (doc-contiguous) hash stream
        md = np.maximum(counts - k + 1, 0)
        hstarts = np.cumsum(md) - md
        hpos = np.arange(len(wh), dtype=np.int64) - hstarts[wpar]
        if w == 1:
            sel_flat = np.arange(len(wh), dtype=np.int64)
        else:
            if len(wh) < w:
                return empty
            win = np.lib.stride_tricks.sliding_window_view(wh, w)
            # rightmost min: argmin of the REVERSED window is the first
            # min from the right
            am = win[:, ::-1].argmin(axis=1)
            sel_off = (w - 1 - am).astype(np.int64)
            wstart = np.arange(len(win), dtype=np.int64)
            # a window is real only if fully inside one doc
            ok = hpos[: len(win)] <= md[wpar[: len(win)]] - w
            if not ok.any():
                return empty
            sel_flat = (wstart + sel_off)[ok]
        key = np.unique(sel_flat)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[wpar[key]], pa.int64()),
                "pos": pa.array(hpos[key], pa.int64()),
                "fingerprint": pa.array(wh[key], pa.int64()),
            }
        )

    return documents.select_columns([id_col, text_col]).map_batches(
        stage, batch_format="pyarrow"
    )


def dup_span_stats(
    documents: rd.Dataset,
    k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
) -> rd.Dataset:
    """→ (doc_id, n_windows, n_dup_windows, dup_fraction) — per document,
    how much of it is covered by k-token windows that ALSO occur in at
    least one other document (the substring-duplication signal of
    Lee et al., "Deduplicating Training Data Makes Language Models
    Better", arXiv:2107.06499 — here at window granularity).

    Scale shape: ONE corpus-sized exchange. The window rows are slim
    ``(doc_id, win_hash, cnt)`` partials (the text never shuffles);
    the win_hash-bucketed reduce marks hashes seen in >= 2 distinct
    docs and — because every row already carries its doc — emits
    per-doc (n_windows, n_dup_windows) PARTIALS from the same pass, so
    no second tokenize pass and no corpus-sized materialization. The
    final doc-keyed sum moves <= docs x buckets tiny rows, unioned with
    the bare doc-id list so empty/short docs keep their zero row.
    """
    from ..stages.grouping import bucketed_group_apply

    wins = documents.map_batches(
        _window_hash_stage,
        fn_kwargs={"k": k, "text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
    )

    def bucket_fn(bucket: pd.DataFrame) -> pd.DataFrame:
        # (doc_id, win_hash) rows are globally unique (a doc lives in
        # exactly one upstream batch), so docs-per-hash == group size
        ndocs = bucket.groupby("win_hash", sort=False)["doc_id"].transform("size")
        dup = (ndocs >= 2).to_numpy()
        tot = bucket.groupby("doc_id", sort=False)["cnt"].sum()
        dupsum = bucket[dup].groupby("doc_id", sort=False)["cnt"].sum()
        return pd.DataFrame(
            {
                "doc_id": tot.index.to_numpy(np.int64),
                "n_windows": tot.to_numpy(np.int64),
                "n_dup_windows": dupsum.reindex(tot.index, fill_value=0).to_numpy(
                    np.int64
                ),
            }
        )

    partials = bucketed_group_apply(wins, ["win_hash"], bucket_fn, n_buckets=n_buckets)

    def zero_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        z = np.zeros(len(batch), dtype=np.int64)
        return pa.table(
            {
                "doc_id": pc.cast(batch.column(id_col), pa.int64()),
                "n_windows": pa.array(z),
                "n_dup_windows": pa.array(z),
            }
        )

    all_docs = documents.select_columns([id_col]).map_batches(
        zero_rows, batch_format="pyarrow"
    )

    def final_fn(bucket: pd.DataFrame) -> pd.DataFrame:
        out = (
            bucket.groupby("doc_id", sort=False)[["n_windows", "n_dup_windows"]]
            .sum()
            .reset_index()
        )
        nw = out["n_windows"].to_numpy(dtype=np.float64)
        nd = out["n_dup_windows"].to_numpy(dtype=np.float64)
        out["dup_fraction"] = np.where(nw > 0, nd / np.maximum(nw, 1.0), 0.0)
        for c in ("doc_id", "n_windows", "n_dup_windows"):
            out[c] = out[c].astype("int64")
        return out

    return bucketed_group_apply(
        partials.union(all_docs), ["doc_id"], final_fn, n_buckets=32
    )


def decontaminate_stats(
    documents: rd.Dataset,
    probe_texts: list[str],
    k: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """→ (doc_id, n_windows, n_hit_windows, hit_fraction) — per document,
    how many of its k-token windows also occur in an EXTERNAL probe set
    (benchmark/eval suite): the training-data decontamination operator
    (the n-gram collision rule of GPT-3 appendix C / Brown et al. 2020,
    at window granularity). A doc with hit_fraction > 0 leaks eval data.

    Scale shape: SHUFFLE-FREE. The probe set is the small side — an eval
    suite is ~1e5 windows even for a big benchmark — hashed once on the
    driver with the SAME md5%Mersenne61 window hash as ``dup_span_stats``
    and broadcast via ``ray.put``; every batch computes its own per-doc
    totals (a doc lives in exactly one batch), so the corpus streams
    through one ``map_batches`` and nothing is exchanged. Membership is
    a vectorized searchsorted against the sorted probe-hash array."""
    import ray

    probe_tbl = pa.table(
        {
            id_col: pa.array(np.arange(len(probe_texts), dtype=np.int64)),
            text_col: pa.array(list(probe_texts), pa.string()),
        }
    )
    probe_hashes = np.unique(
        _window_hash_stage(probe_tbl, k, text_col=text_col, id_col=id_col)
        .column("win_hash")
        .to_numpy()
    )
    probe_ref = ray.put(probe_hashes)

    def stage(batch: pa.Table) -> pa.Table:
        import ray as _ray

        probe = _ray.get(probe_ref)
        doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        wins = _window_hash_stage(batch, k, text_col=text_col, id_col=id_col)
        n = len(doc_ids)
        tot = np.zeros(n, np.int64)
        hit = np.zeros(n, np.int64)
        if len(wins):
            wdoc = wins.column("doc_id").to_numpy()
            whash = wins.column("win_hash").to_numpy()
            wcnt = wins.column("cnt").to_numpy()
            # map window rows back to batch positions (doc ids unique/batch)
            order = np.argsort(doc_ids, kind="stable")
            pos = order[np.searchsorted(doc_ids[order], wdoc)]
            np.add.at(tot, pos, wcnt)
            if len(probe):
                idx = np.searchsorted(probe, whash)
                idx_c = np.minimum(idx, len(probe) - 1)
                member = probe[idx_c] == whash
                np.add.at(hit, pos[member], wcnt[member])
        frac = np.where(tot > 0, hit / np.maximum(tot, 1).astype(np.float64), 0.0)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_windows": pa.array(tot, pa.int64()),
                "n_hit_windows": pa.array(hit, pa.int64()),
                "hit_fraction": pa.array(frac, pa.float64()),
            }
        )

    return documents.select_columns([id_col, text_col]).map_batches(
        stage, batch_format="pyarrow"
    )


def new_docs_vs_snapshot(
    current: rd.Dataset,
    snapshot: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
) -> rd.Dataset:
    """→ (doc_id, fingerprint): documents of ``current`` whose
    normalized-content fingerprint (md5 over the M2 token stream —
    formatting-invariant) occurs nowhere in ``snapshot`` — the
    incremental-crawl delta operator: "what is actually NEW since the
    last snapshot", robust to re-crawled layout noise.

    Scale shape: both sides reduce to slim (fingerprint, doc_id, side)
    rows inside the scan (text never enters the exchange), then ONE
    bucketed hash anti-join on the fingerprint: every bucket drops the
    current-side rows whose fingerprint has a snapshot-side row. No
    driver materialization at any size."""
    import numpy as np

    from ..stages.grouping import bucketed_group_apply
    from .textstats import fingerprint_stage

    def tag(side: int):
        def f(t: pa.Table) -> pa.Table:
            fp = fingerprint_stage(t, text_col=text_col, id_col=id_col)
            return fp.append_column(
                "side", pa.array(np.full(len(fp), side, np.int8))
            )

        return f

    both = current.map_batches(tag(1), batch_format="pyarrow").union(
        snapshot.map_batches(tag(0), batch_format="pyarrow")
    )

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        known = df.loc[df["side"] == 0, "fingerprint"]
        out = df[(df["side"] == 1) & ~df["fingerprint"].isin(set(known))]
        out = out[[id_col, "fingerprint"]].copy()
        out[id_col] = out[id_col].astype("int64")
        return out

    return bucketed_group_apply(both, ["fingerprint"], bucket_fn, n_buckets=n_buckets)


def cross_source_pairs(
    documents: rd.Dataset,
    pairs: rd.Dataset,
    id_col: str = "doc_id",
    key_col: str = "source",
) -> rd.Dataset:
    """→ (src_a, src_b, n_pairs): near-dup pairs aggregated by the
    UNORDERED source pair (src_a <= src_b) — the contamination-leakage
    report ("how much near-duplicate content crosses domain/split
    boundaries?", the eval-split-leak check of a training-data
    pipeline).

    Scale shape: the (doc_id, source) side is id-column-only (text never
    moves); below ``DRIVER_FASTPATH_ROWS`` it broadcasts as a dict,
    above it each pair half resolves via one hash ``sized_join`` — pair
    tables are near-dup-sized, orders of magnitude below the corpus."""
    import pyarrow.compute as pc

    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import bucketed_group_apply, drop_empty_blocks, sized_join

    n_docs = documents.count()
    pairs = drop_empty_blocks(pairs.materialize())

    if n_docs <= DRIVER_FASTPATH_ROWS:
        import ray

        t = pa.concat_tables(
            ray.get(documents.select_columns([id_col, key_col]).materialize().to_arrow_refs())
        )
        src_ref = ray.put(dict(zip(t[id_col].to_pylist(), t[key_col].to_pylist())))

        def resolve(batch: pa.Table) -> pa.Table:
            lookup = ray.get(src_ref)
            sa = [lookup[d] for d in batch.column("doc_a").to_pylist()]
            sb = [lookup[d] for d in batch.column("doc_b").to_pylist()]
            lo = [min(x, y) for x, y in zip(sa, sb)]
            hi = [max(x, y) for x, y in zip(sa, sb)]
            return pa.table(
                {
                    "src_a": pa.array(lo, pa.string()),
                    "src_b": pa.array(hi, pa.string()),
                }
            )

        tagged = pairs.map_batches(resolve, batch_format="pyarrow")
    else:
        ids = documents.map_batches(
            lambda b: pa.table(
                {id_col: pc.cast(b.column(id_col), pa.int64()), key_col: b.column(key_col)}
            ),
            batch_format="pyarrow",
        )
        j1 = drop_empty_blocks(
            sized_join(
                pairs.map_batches(
                    lambda b: pa.table(
                        {
                            "doc_a": pc.cast(b.column("doc_a"), pa.int64()),
                            "doc_b": pc.cast(b.column("doc_b"), pa.int64()),
                        }
                    ),
                    batch_format="pyarrow",
                ),
                ids.rename_columns({id_col: "doc_a", key_col: "sa"}),
                on=("doc_a",),
            ).materialize()
        )
        j2 = sized_join(
            j1, ids.rename_columns({id_col: "doc_b", key_col: "sb"}), on=("doc_b",)
        ).materialize()

        def order(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "src_a": pc.min_element_wise(batch["sa"], batch["sb"]),
                    "src_b": pc.max_element_wise(batch["sa"], batch["sb"]),
                }
            )

        tagged = drop_empty_blocks(j2).map_batches(order, batch_format="pyarrow")

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby(["src_a", "src_b"], sort=False)
            .size()
            .reset_index(name="n_pairs")
        )
        out["n_pairs"] = out["n_pairs"].astype("int64")
        return out

    return bucketed_group_apply(tagged, ["src_a", "src_b"], bucket_fn, n_buckets=16)


def near_dup_vs_snapshot(
    current: rd.Dataset,
    snapshot: rd.Dataset,
    num_perm: int = 64,
    bands: int = 16,
    threshold: float = 0.5,
    seed: int = 42,
    id_col: str = "doc_id",
) -> rd.Dataset:
    """→ (snapshot_doc_id, current_doc_id, est_jaccard): the FUZZY
    version of :func:`new_docs_vs_snapshot` — current-side documents
    that are NEAR-duplicates (MinHash est. Jaccard ≥ threshold) of a
    snapshot document, e.g. re-crawled pages with edits, templated
    variants of known content, paraphrase-level leakage into a fresh
    crawl. doc ids must be unique ACROSS the two datasets (the caller's
    versioning contract).

    Scale shape: both sides stream through ONE MinHash-LSH pass over
    their union (slim band exchange, distributed verify above the
    driver gate — see :func:`minhash_lsh_pairs`); side resolution then
    touches only pair-sized tables (broadcast below
    ``DRIVER_FASTPATH_ROWS`` docs, hash joins above)."""
    import pyarrow.compute as pc

    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import drop_empty_blocks, sized_join

    def side_ids(ds: rd.Dataset, side: int) -> rd.Dataset:
        return ds.map_batches(
            lambda b, side=side: pa.table(
                {
                    id_col: pc.cast(b.column(id_col), pa.int64()),
                    "side": pa.array(np.full(len(b), side, np.int8)),
                }
            ),
            batch_format="pyarrow",
        )

    union = current.union(snapshot)
    pairs = drop_empty_blocks(
        minhash_lsh_pairs(
            union, num_perm=num_perm, bands=bands, threshold=threshold, seed=seed
        ).materialize()
    )
    empty = pa.table(
        {
            "snapshot_doc_id": pa.array([], pa.int64()),
            "current_doc_id": pa.array([], pa.int64()),
            "est_jaccard": pa.array([], pa.float64()),
        }
    )
    n_pairs = pairs.count()
    if n_pairs == 0:
        return rd.from_arrow(empty)

    def orient(batch: pa.Table, lookup) -> pa.Table:
        da = batch.column("doc_a").to_numpy(zero_copy_only=False)
        db = batch.column("doc_b").to_numpy(zero_copy_only=False)
        ja = np.asarray([lookup[d] for d in da.tolist()], np.int8)
        jb = np.asarray([lookup[d] for d in db.tolist()], np.int8)
        cross = ja != jb
        snap = np.where(ja[cross] == 0, da[cross], db[cross])
        cur = np.where(ja[cross] == 0, db[cross], da[cross])
        return pa.table(
            {
                "snapshot_doc_id": pa.array(snap, pa.int64()),
                "current_doc_id": pa.array(cur, pa.int64()),
                "est_jaccard": batch.column("est_jaccard").filter(pa.array(cross)),
            }
        )

    if n_pairs <= DRIVER_FASTPATH_ROWS:
        # only pair-referenced ids need a side — the LUT is pair-sized,
        # not corpus-sized, so the gate rides the PAIR count and the
        # side scan ships back a filtered sliver (no union.count() pass,
        # no whole-corpus id collect)
        ref: list[np.ndarray] = []
        for t in ray.get(pairs.materialize().to_arrow_refs()):
            if len(t):
                ref.append(t.column("doc_a").to_numpy(zero_copy_only=False))
                ref.append(t.column("doc_b").to_numpy(zero_copy_only=False))
        ref_arr = ray.put(pa.array(np.unique(np.concatenate(ref)), pa.int64()))

        def only_ref(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch.column(id_col), value_set=ray.get(ref_arr)))

        sides = pa.concat_tables(
            ray.get(
                side_ids(current, 1)
                .union(side_ids(snapshot, 0))
                .map_batches(only_ref, batch_format="pyarrow")
                .materialize().to_arrow_refs()
            )
        )
        lut = dict(zip(sides[id_col].to_pylist(), sides["side"].to_pylist()))
        lut_ref = ray.put(lut)
        return pairs.map_batches(
            lambda b: orient(b, ray.get(lut_ref)), batch_format="pyarrow"
        )

    ids = side_ids(current, 1).union(side_ids(snapshot, 0))
    j1 = drop_empty_blocks(
        sized_join(
            pairs, ids.rename_columns({id_col: "doc_a", "side": "side_a"}), on=("doc_a",)
        ).materialize()
    )
    j2 = drop_empty_blocks(
        sized_join(
            j1, ids.rename_columns({id_col: "doc_b", "side": "side_b"}), on=("doc_b",)
        ).materialize()
    )

    def fin(batch: pa.Table) -> pa.Table:
        sa = batch.column("side_a").to_numpy(zero_copy_only=False)
        sb = batch.column("side_b").to_numpy(zero_copy_only=False)
        da = batch.column("doc_a").to_numpy(zero_copy_only=False)
        db = batch.column("doc_b").to_numpy(zero_copy_only=False)
        cross = sa != sb
        snap = np.where(sa[cross] == 0, da[cross], db[cross])
        cur = np.where(sa[cross] == 0, db[cross], da[cross])
        return pa.table(
            {
                "snapshot_doc_id": pa.array(snap, pa.int64()),
                "current_doc_id": pa.array(cur, pa.int64()),
                "est_jaccard": batch.column("est_jaccard").filter(pa.array(cross)),
            }
        )

    return j2.map_batches(fin, batch_format="pyarrow")


def contrastive_negatives(
    documents: rd.Dataset,
    *,
    k: int = 3,
    num_perm: int = 64,
    shingle_k: int = 3,
    threshold: float = 0.5,
    max_value_df: int = 32,
    seed: int = 42,
    salt: str = "ses-negatives",
) -> rd.Dataset:
    """→ (anchor_doc_id, neg_doc_id, rank): HARD-NEGATIVE mining for
    contrastive training — for every doc that has a near-duplicate (a
    positive exists at est ≥ ``threshold`` within the candidate pool),
    up to ``k`` docs from the pool that are NOT near-dups
    (est < threshold). Exactly the "confusable but different" negatives
    an embedding model learns the most from; random negatives are too
    easy, near-dups would be false negatives.

    Candidate pool (deterministic, SQL-mirrorable): pairs sharing at
    least one (permutation, minhash-value) cell — the r = 1 banding, a
    weak-similarity signal (the dedup-grade r = 4 banding collides
    almost exclusively true near-dups, leaving nothing to mine) —
    restricted to values held by ≤ ``max_value_df`` docs (a minhash
    value in more docs is a stopword-grade shingle: no similarity
    evidence, quadratic as a bucket — the same fan-out cap as
    :func:`containment_pairs`). Empty-doc sentinel signatures (−1)
    never pair.

    Selection is ranked by md5("anchor:cand:salt") ascending (cand-id
    tiebreak) — deterministic under any block order, reproducible
    across runs, bit-mirrorable in SQL. Scale shape: one slim
    (perm, value, doc_id) exchange with capped per-cell pair expansion;
    the est verify resolves signatures driver-side below
    ``DRIVER_FASTPATH_ROWS`` candidates and by packed-signature hash
    join above it; rank/split steps touch pair-sized tables only."""
    from ..config import DRIVER_FASTPATH_ROWS
    from ..functions.hashing import md5_u64
    from ..functions.vectors import int_list_matrix
    from ..stages.grouping import bucketed_group_apply, drop_empty_blocks, sized_join

    empty = pa.table(
        {
            "anchor_doc_id": pa.array([], pa.int64()),
            "neg_doc_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
        }
    )
    sigs_ds = _minhash_sig_ds(
        documents, num_perm=num_perm, shingle_k=shingle_k, seed=seed
    ).materialize()
    if sigs_ds.count() == 0:
        return rd.from_arrow(empty)

    def cell_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        mat = int_list_matrix(batch.column("signature"), num_perm)
        perms = np.tile(np.arange(num_perm, dtype=np.int64), len(ids))
        vals = mat.reshape(-1)
        docs = np.repeat(ids, num_perm)
        live = vals >= 0  # -1 = empty-doc sentinel
        return pa.table(
            {
                "perm": pa.array(perms[live]),
                "val": pa.array(vals[live]),
                "doc_id": pa.array(docs[live]),
            }
        )

    def cell_pairs(bucket: pd.DataFrame) -> pd.DataFrame:
        emptyp = pd.DataFrame(
            {"doc_a": np.array([], np.int64), "doc_b": np.array([], np.int64)}
        )
        if not len(bucket):
            return emptyp
        p = bucket["perm"].to_numpy(np.int64)
        v = bucket["val"].to_numpy(np.int64)
        d = bucket["doc_id"].to_numpy(np.int64)
        order = np.lexsort((d, v, p))
        p, v, d = p[order], v[order], d[order]
        boundary = np.flatnonzero(
            np.diff(p, prepend=p[0] - 1) | np.diff(v, prepend=v[0] - 1)
        )
        lens = np.diff(np.append(boundary, p.size))
        ok = (lens >= 2) & (lens <= max_value_df)
        if not ok.any():
            return emptyp
        seg_of_row = np.repeat(np.arange(boundary.size), lens)
        row_ok = ok[seg_of_row]
        d2 = d[row_ok]
        seg_len = lens[ok]
        offs = np.cumsum(seg_len) - seg_len
        # all-pairs per cell, vectorized BY LENGTH CLASS: the df cap
        # bounds lengths to [2, max_value_df], so ≤ max_value_df−1
        # classes; each class gathers its segments into an (m, L)
        # matrix and expands with ONE triu — no per-segment Python
        a_parts, b_parts = [], []
        for ln in np.unique(seg_len):
            sel = offs[seg_len == ln]
            mat = d2[sel[:, None] + np.arange(int(ln))[None, :]]
            ii, jj = np.triu_indices(int(ln), k=1)
            a_parts.append(mat[:, ii].ravel())
            b_parts.append(mat[:, jj].ravel())
        a = np.concatenate(a_parts)
        b = np.concatenate(b_parts)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pd.DataFrame({"doc_a": lo, "doc_b": hi})

    # materialized to gate AND feed whichever path wins (24 B/row)
    cells = sigs_ds.map_batches(cell_rows, batch_format="pyarrow").materialize()
    n_cells = cells.count()
    if n_cells == 0:
        return rd.from_arrow(empty)
    if n_cells <= DRIVER_FASTPATH_ROWS:
        # slim cell rows fit the driver contract → candidate generation
        # and pair dedup run locally, skipping two exchanges
        ctbl = pa.concat_tables([t for t in ray.get(cells.materialize().to_arrow_refs()) if len(t)])
        cp = cell_pairs(ctbl.to_pandas())
        if not len(cp):
            return rd.from_arrow(empty)
        lo = cp["doc_a"].to_numpy(np.int64)
        hi = cp["doc_b"].to_numpy(np.int64)
        # lexsort dedup (np.unique(axis=0) row-sorts generically — slow)
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        first = np.ones(lo.size, bool)
        np.logical_or(np.diff(lo) != 0, np.diff(hi) != 0, out=first[1:])
        lo, hi = lo[first], hi[first]
        cand = rd.from_arrow(
            pa.table({"doc_a": pa.array(lo, pa.int64()),
                      "doc_b": pa.array(hi, pa.int64())})
        )
        n_cand = int(lo.size)
    else:
        cand = bucketed_group_apply(cells, ["perm", "val"], cell_pairs, n_buckets=32)
        cand = bucketed_group_apply(
            cand, ["doc_a", "doc_b"],
            lambda df: df.drop_duplicates(["doc_a", "doc_b"]),
            n_buckets=32,
        )
        cand = drop_empty_blocks(cand.materialize())
        n_cand = cand.count()
    if n_cand == 0:
        return rd.from_arrow(empty)

    if n_cand <= DRIVER_FASTPATH_ROWS:
        ids, mat = _collect_signatures(sigs_ds)
        ct = pa.concat_tables([t for t in ray.get(cand.materialize().to_arrow_refs()) if len(t)])
        a = ct.column("doc_a").to_numpy(zero_copy_only=False)
        b = ct.column("doc_b").to_numpy(zero_copy_only=False)
        ia = np.searchsorted(ids, a)
        ib = np.searchsorted(ids, b)
        # chunked: the full fancy-index gather is 2×(pairs×perms) int64
        # scratch — hundreds of MB at ~500k candidates
        est = np.empty(a.size, np.float64)
        step = 65536
        for s in range(0, a.size, step):
            e = min(s + step, a.size)
            est[s:e] = (mat[ia[s:e]] == mat[ib[s:e]]).mean(axis=1)
        est_tbl = pa.table(
            {
                "doc_a": pa.array(a, pa.int64()),
                "doc_b": pa.array(b, pa.int64()),
                "est": pa.array(est, pa.float64()),
            }
        )
    else:
        # packed-signature hash join (the minhash distributed-verify
        # shape): pair halves ⨝ signatures on doc id
        def pack(batch: pa.Table) -> pa.Table:
            ids_ = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
            m = int_list_matrix(batch.column("signature"), num_perm).astype("<i8")
            return pa.table(
                {
                    "doc_id": pa.array(ids_),
                    "sig": pa.array([r.tobytes() for r in m], pa.binary()),
                }
            )

        packed = sigs_ds.map_batches(pack, batch_format="pyarrow").materialize()

        def rename(id_name: str, sig_name: str):
            def r(batch: pa.Table) -> pa.Table:
                return pa.table(
                    {id_name: batch.column("doc_id"), sig_name: batch.column("sig")}
                )

            return r

        n_part = max(2, min(64, (n_cand // 100_000) + 2))
        j = sized_join(
            cand, packed.map_batches(rename("doc_a", "sig_a"), batch_format="pyarrow"),
            ("doc_a",), num_partitions=n_part,
        ).materialize()
        j = sized_join(
            j, packed.map_batches(rename("doc_b", "sig_b"), batch_format="pyarrow"),
            ("doc_b",), num_partitions=n_part,
        )

        def est_fn(batch: pa.Table) -> pa.Table:
            if not len(batch):
                return pa.table(
                    {"doc_a": pa.array([], pa.int64()),
                     "doc_b": pa.array([], pa.int64()),
                     "est": pa.array([], pa.float64())}
                )
            sa = np.frombuffer(b"".join(batch.column("sig_a").to_pylist()), "<i8").reshape(len(batch), num_perm)
            sb = np.frombuffer(b"".join(batch.column("sig_b").to_pylist()), "<i8").reshape(len(batch), num_perm)
            return pa.table(
                {
                    "doc_a": batch.column("doc_a"),
                    "doc_b": batch.column("doc_b"),
                    "est": pa.array((sa == sb).mean(axis=1), pa.float64()),
                }
            )

        est_parts = [
            t for t in ray.get(
                j.map_batches(est_fn, batch_format="pyarrow").materialize().to_arrow_refs()
            ) if len(t)
        ]
        if not est_parts:
            return rd.from_arrow(empty)
        est_tbl = pa.concat_tables(est_parts)  # pair-sized

    est = est_tbl.column("est").to_numpy(zero_copy_only=False)
    a = est_tbl.column("doc_a").to_numpy(zero_copy_only=False)
    b = est_tbl.column("doc_b").to_numpy(zero_copy_only=False)
    pos_mask = est >= threshold
    if not pos_mask.any():
        return rd.from_arrow(empty)
    anchors = np.unique(np.concatenate([a[pos_mask], b[pos_mask]]))
    neg = ~pos_mask
    anc = np.concatenate([a[neg], b[neg]])
    cnd = np.concatenate([b[neg], a[neg]])
    idx = np.searchsorted(anchors, anc)
    idx_c = np.minimum(idx, anchors.size - 1)
    keep = anchors[idx_c] == anc
    anc, cnd = anc[keep], cnd[keep]
    if not anc.size:
        return rd.from_arrow(empty)
    h = md5_u64([f"{x}:{y}:{salt}" for x, y in zip(anc.tolist(), cnd.tolist())])
    order = np.lexsort((cnd, h, anc))
    anc, cnd = anc[order], cnd[order]
    starts = np.flatnonzero(np.diff(anc, prepend=anc[0] - 1) != 0)
    seg = np.repeat(np.arange(starts.size), np.diff(np.append(starts, anc.size)))
    rank = np.arange(anc.size) - starts[seg] + 1
    keep = rank <= k
    return rd.from_arrow(
        pa.table(
            {
                "anchor_doc_id": pa.array(anc[keep], pa.int64()),
                "neg_doc_id": pa.array(cnd[keep], pa.int64()),
                "rank": pa.array(rank[keep], pa.int64()),
            }
        )
    )


# --------------------------------------------------------------------------
# Boilerplate segment removal (RefinedWeb/C4 "repeated lines across pages")
# --------------------------------------------------------------------------


def _segment_rows(
    batch: pa.Table,
    w: int,
    text_col: str,
    id_col: str,
    emit_text: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, pa.Array, np.ndarray]:
    """Shared segmentation kernel: non-overlapping ``w``-token segments
    (final partial tail kept) per doc. Returns
    (doc_ids_per_batch_row, seg_parent_row, seg_no, seg_hash,
    seg_text_or_None, n_segs_per_row). Fully vectorized: segments TILE
    the flat token array, so ONE ListArray over the flat tokens + ONE
    ``binary_join`` builds every segment string; md5 runs once per
    DISTINCT segment in the batch (boilerplate repeats by definition)."""
    import pyarrow.compute as pc

    from ..functions.hashing import md5_u64

    doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    toks, _parents, counts = flat_nonempty_tokens(batch.column(text_col))
    n_segs = (counts + w - 1) // w
    total = int(n_segs.sum())
    if total == 0:
        none = np.array([], dtype=np.int64)
        return doc_ids, none, none, none.astype(np.uint64), pa.array([], pa.string()), n_segs
    seg_par = np.repeat(np.arange(counts.size, dtype=np.int64), n_segs)
    seg_no = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(n_segs) - n_segs, n_segs
    )
    doc_starts = np.cumsum(counts) - counts
    seg_start = doc_starts[seg_par] + seg_no * w
    # segments tile the flat token array → offsets are just the starts
    # plus the terminal end
    offsets = np.append(seg_start, len(toks)).astype(np.int32)
    lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), toks)
    joined = pc.binary_join(lists, " ")
    if isinstance(joined, pa.ChunkedArray):
        joined = joined.combine_chunks()
    denc = joined.dictionary_encode()
    codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uniq = md5_u64(denc.dictionary.to_pylist()) % np.uint64(MERSENNE61)
    seg_hash = uniq[codes]
    return doc_ids, seg_par, seg_no, seg_hash, (joined if emit_text else None), n_segs


def _distinct_doc_seg_stage(
    batch: pa.Table, w: int, text_col: str, id_col: str
) -> pa.Table:
    """Pass-1 stage: per-doc DISTINCT segment hashes → slim
    ``(seg_hash, doc_id)`` rows (a doc lives in one batch row, so the
    per-batch distinct is the global distinct)."""
    doc_ids, seg_par, _seg_no, seg_hash, _txt, _ = _segment_rows(
        batch, w, text_col, id_col, emit_text=False
    )
    if not seg_par.size:
        return pa.table(
            {"seg_hash": pa.array([], pa.int64()), "doc_id": pa.array([], pa.int64())}
        )
    pairs = np.stack([seg_par, seg_hash.astype(np.int64)], axis=1)
    uniq = np.unique(pairs, axis=0)
    return pa.table(
        {
            "seg_hash": pa.array(uniq[:, 1], pa.int64()),
            "doc_id": pa.array(doc_ids[uniq[:, 0]], pa.int64()),
        }
    )


class _StripFlagged:
    """Pass-2 actor stage (broadcast path): re-segment, drop segments
    whose hash is in the flagged set, reassemble ``text_clean``. The
    flagged-hash array arrives as ``[ray.put(np.ndarray)]`` — fetched
    once per actor, looked up with ``searchsorted`` per batch."""

    def __init__(self, flagged_ref, w: int, text_col: str, id_col: str) -> None:
        ref = flagged_ref[0] if isinstance(flagged_ref, (list, tuple)) else flagged_ref
        self.flagged = ray.get(ref) if not isinstance(ref, np.ndarray) else ref
        self.w = w
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        doc_ids, seg_par, _seg_no, seg_hash, seg_text, n_segs = _segment_rows(
            batch, self.w, self.text_col, self.id_col, emit_text=True
        )
        n_rows = len(batch)
        if not seg_par.size:
            z = np.zeros(n_rows, dtype=np.int64)
            return pa.table(
                {
                    "doc_id": pa.array(doc_ids, pa.int64()),
                    "n_segs": pa.array(z),
                    "n_removed": pa.array(z),
                    "text_clean": pa.array([""] * n_rows, pa.string()),
                }
            )
        h = seg_hash.astype(np.int64)
        pos = np.searchsorted(self.flagged, h)
        pos_c = np.minimum(pos, max(self.flagged.size - 1, 0))
        flagged = (
            (self.flagged[pos_c] == h) if self.flagged.size else np.zeros(h.size, bool)
        )
        removed_per_row = np.bincount(
            seg_par[flagged], minlength=n_rows
        ).astype(np.int64)
        keep = ~flagged
        kept_par = seg_par[keep]
        kept_counts = np.bincount(kept_par, minlength=n_rows).astype(np.int64)
        kept_text = seg_text.filter(pa.array(keep))
        # kept segments stay doc-contiguous → one ListArray + join again
        offsets = np.append(
            np.cumsum(kept_counts) - kept_counts, int(kept_counts.sum())
        ).astype(np.int32)
        clean = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), kept_text), " "
        )
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_segs": pa.array(n_segs.astype(np.int64)),
                "n_removed": pa.array(removed_per_row),
                "text_clean": clean,
            }
        )


def boilerplate_strip(
    documents: rd.Dataset,
    w: int = 8,
    min_df: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_buckets: int = 64,
) -> rd.Dataset:
    """→ (doc_id, n_segs, n_removed, text_clean): remove every
    non-overlapping ``w``-token segment (final partial tail included)
    that occurs in >= ``min_df`` DISTINCT documents — the line-level
    dedup of C4 / RefinedWeb ("remove duplicated lines across pages",
    Penedo et al. arXiv:2306.01116 §4.2; Raffel et al. arXiv:1910.10683
    §2.2) restated over tokenizer segments, since the synthetic corpus
    has no newlines. Unlike ``dup_span_stats`` (which SCORES overlap)
    this REWRITES the corpus — the cleaned text is the training-data
    export.

    Scale shape: pass 1 ships slim distinct ``(seg_hash, doc_id)`` rows
    into a bucketed df count; only hashes with df >= min_df survive —
    a side table bounded by the volume of REPEATED content, not the
    corpus. Below ``DRIVER_FASTPATH_ROWS`` that set broadcasts via
    ``ray.put`` into a pass-2 actor pool (corpus text never shuffles);
    above it, segment rows exchange ONCE by seg_hash against the
    flagged set and reassemble with ONE doc-keyed exchange.
    """
    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import bucketed_group_apply

    pairs = documents.map_batches(
        _distinct_doc_seg_stage,
        fn_kwargs={"w": w, "text_col": text_col, "id_col": id_col},
        batch_format="pyarrow",
    )

    def df_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        # (seg_hash, doc_id) rows are globally distinct → group size = df
        cnt = bucket.groupby("seg_hash", sort=False)["doc_id"].size()
        hot = cnt[cnt >= min_df]
        return pd.DataFrame({"seg_hash": hot.index.to_numpy(np.int64)})

    # materialize the POST-aggregation result (repeated-content-sized,
    # not corpus-sized) so count + consume don't re-run the corpus pass
    flagged_ds = bucketed_group_apply(
        pairs, ["seg_hash"], df_bucket, n_buckets=n_buckets
    ).materialize()
    n_flagged = flagged_ds.count()

    if n_flagged <= DRIVER_FASTPATH_ROWS:
        # flagged set is repeated-content-sized (annotated driver
        # collect, gated) — broadcast once, stream the corpus through
        # the strip actors
        if n_flagged:
            flagged = np.sort(
                np.asarray(
                    [r["seg_hash"] for r in flagged_ds.take_all()], dtype=np.int64
                )
            )
        else:
            flagged = np.array([], dtype=np.int64)
        flagged_ref = [ray.put(flagged)]
        return documents.map_batches(
            _StripFlagged,
            fn_constructor_kwargs={
                "flagged_ref": flagged_ref,
                "w": w,
                "text_col": text_col,
                "id_col": id_col,
            },
            batch_format="pyarrow",
            concurrency=(1, 8),
            batch_size=1024,
        )

    # ---- distributed fallback: exchange segments by hash, then by doc
    def seg_rows_stage(batch: pa.Table) -> pa.Table:
        doc_ids, seg_par, seg_no, seg_hash, seg_text, _ = _segment_rows(
            batch, w, text_col, id_col, emit_text=True
        )
        return pa.table(
            {
                "seg_hash": pa.array(seg_hash.astype(np.int64), pa.int64()),
                "doc_id": pa.array(doc_ids[seg_par], pa.int64()),
                "seg_no": pa.array(seg_no, pa.int64()),
                "seg_text": seg_text,
                "is_flag": pa.array(np.zeros(seg_par.size, dtype=np.int8), pa.int8()),
            }
        )

    segs = documents.map_batches(seg_rows_stage, batch_format="pyarrow")
    flag_rows = flagged_ds.map_batches(
        lambda t: pa.table(
            {
                "seg_hash": t["seg_hash"],
                "doc_id": pa.array(np.full(len(t), -1, np.int64)),
                "seg_no": pa.array(np.full(len(t), -1, np.int64)),
                "seg_text": pa.array([""] * len(t), pa.string()),
                "is_flag": pa.array(np.ones(len(t), dtype=np.int8), pa.int8()),
            }
        ),
        batch_format="pyarrow",
    )

    def mark_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        hot = set(bucket.loc[bucket["is_flag"] == 1, "seg_hash"].to_numpy())
        rows = bucket[bucket["is_flag"] == 0]
        out = rows[["doc_id", "seg_no", "seg_text"]].copy()
        out["removed"] = rows["seg_hash"].isin(hot).to_numpy().astype(np.int8)
        return out

    marked = bucketed_group_apply(
        segs.union(flag_rows), ["seg_hash"], mark_bucket, n_buckets=n_buckets
    )

    def rebuild_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        bucket = bucket.sort_values(["doc_id", "seg_no"], kind="stable")
        grp = bucket.groupby("doc_id", sort=False)
        kept = bucket[bucket["removed"] == 0]
        text = kept.groupby("doc_id", sort=False)["seg_text"].agg(" ".join)
        out = pd.DataFrame(
            {
                "doc_id": grp.size().index.to_numpy(np.int64),
                "n_segs": grp.size().to_numpy(np.int64),
                "n_removed": grp["removed"].sum().to_numpy(np.int64),
            }
        )
        out["text_clean"] = (
            text.reindex(out["doc_id"].to_numpy()).fillna("").to_numpy()
        )
        return out

    rebuilt = bucketed_group_apply(marked, ["doc_id"], rebuild_bucket, n_buckets=32)

    # docs with zero tokens never produced a segment row — union their
    # zero rows so every input doc keeps an output row
    def zero_rows(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        _, _, _, _, _, n_segs = _segment_rows(batch, w, text_col, id_col, False)
        empty_mask = n_segs == 0
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)[empty_mask]
        z = np.zeros(ids.size, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                "n_segs": pa.array(z),
                "n_removed": pa.array(z),
                "text_clean": pa.array([""] * ids.size, pa.string()),
            }
        )

    empties = documents.map_batches(zero_rows, batch_format="pyarrow")
    return rebuilt.union(empties)


# --------------------------------------------------------------------------
# Cross-source n-gram leakage matrix (corpus governance)
# --------------------------------------------------------------------------


def source_ngram_leakage_ds(
    documents: rd.Dataset, sources: list[str], k: int = 5
) -> rd.Dataset:
    """→ (source_a, source_b, shared): for every source pair (a < b),
    the number of DISTINCT k-token windows occurring in BOTH sources —
    the cross-source contamination / syndication matrix of a web corpus
    (which feeds overlap, mirrors, wire-copy). Window hash ==
    ``md5_u64(joined) % MERSENNE61`` == the DuckDB ``md5_number_lower``
    expression, so a SQL oracle can recompute it exactly.

    Scale shape: each batch reuses the vectorized window-hash stage and
    pre-distincts (source, hash); one groupby makes the pairs globally
    distinct; a second groupby ORs sources into a PER-HASH BITMASK
    (sum of 2^src over distinct rows == OR, ≤ 62 sources per matrix);
    each mask block then folds into a tiny source×source partial count
    — no per-hash Python grouping, no pair blow-up beyond the final
    matrix."""
    srcs = sorted(set(sources))
    if len(srcs) > 62:
        raise ValueError("bitmask leakage matrix supports <= 62 sources; "
                         "shard the source set and union the matrices")
    idx = {s: i for i, s in enumerate(srcs)}
    n_src = len(srcs)

    def partials(batch: pa.Table) -> pa.Table:
        codes = np.asarray(
            [idx[s] for s in batch.column("source").to_pylist()], np.int64
        )
        b2 = pa.table(
            {"doc_id": pa.array(codes, pa.int64()), "text": batch.column("text")}
        )
        t = _window_hash_stage(b2, k)
        g = t.group_by(["doc_id", "win_hash"]).aggregate([])
        return pa.table({"src": g["doc_id"], "win_hash": g["win_hash"]})

    dist = (
        documents.select_columns(["source", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["win_hash", "src"])
        .count()  # global distinct (hash, source)
    )

    def to_mask(t: pa.Table) -> pa.Table:
        src = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "win_hash": t["win_hash"],
                "mask": pa.array(np.int64(1) << src, pa.int64()),
            }
        )

    masks = (
        dist.map_batches(to_mask, batch_format="pyarrow")
        .groupby("win_hash")
        .sum("mask")  # distinct rows → sum of 2^src == bitwise OR
    )

    def pair_partials(t: pa.Table) -> pa.Table:
        m = t["sum(mask)"].to_numpy(zero_copy_only=False).astype(np.int64)
        acc = np.zeros((n_src, n_src), np.int64)
        uniq, cnt = np.unique(m, return_counts=True)
        for mask, c in zip(uniq.tolist(), cnt.tolist()):
            bits = [i for i in range(n_src) if (mask >> i) & 1]
            for x in range(len(bits)):
                for y in range(x + 1, len(bits)):
                    acc[bits[x], bits[y]] += c
        ii, jj = np.nonzero(acc)
        return pa.table(
            {
                "sa": pa.array(ii.astype(np.int64), pa.int64()),
                "sb": pa.array(jj.astype(np.int64), pa.int64()),
                "shared": pa.array(acc[ii, jj], pa.int64()),
            }
        )

    pairs = (
        masks.map_batches(pair_partials, batch_format="pyarrow")
        .groupby(["sa", "sb"])
        .sum("shared")
    )
    names = pa.array(srcs, pa.string())

    def finish(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sa = t["sa"].to_numpy(zero_copy_only=False).astype(np.int64)
        sb = t["sb"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "source_a": names.take(pa.array(sa)),
                "source_b": names.take(pa.array(sb)),
                "shared": pc.cast(t["sum(shared)"], pa.int64()),
            }
        )

    return pairs.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Sparse tf-idf cosine all-pairs similarity join (lexical near-dup)
# --------------------------------------------------------------------------


_EMPTY_COSINE_PAIRS = pa.table(
    {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64()),
     "cosine": pa.array([], pa.float64())}
)


def tfidf_cosine_pairs(
    documents: rd.Dataset,
    *,
    threshold: float = 0.8,
    max_df: int = 32,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> rd.Dataset:
    """All-pairs sparse tf·idf cosine similarity join: (doc_a < doc_b,
    cosine[r6]) for every pair with round(cos, 6) ≥ threshold, where
    vectors are tf·idf over the RARE vocabulary only (df ≤ ``max_df``
    — hub terms are dropped from the vector definition itself, which
    is what makes the posting-based pair expansion exact rather than a
    candidate heuristic: non-shared terms contribute 0, and every
    shared rare term's posting group emits the pair's partial product).

    Scale shape (Bayardo-style similarity join, simplified by the df
    cap): one vocab-sized df exchange (per-batch distinct combiner →
    groupby), the capped-df map broadcasts via ``ray.put``; the scoring
    pass emits normalized (term, doc, wn) posting rows for rare terms
    only; per-term groups expand ≤ df²/2 ≤ max_df·df/2 pair partials —
    the pair exchange is bounded by max_df × rare-posting count; one
    (doc_a, doc_b) groupby-sum finishes. idf = ln((N+1)/(df+1)) with
    N = total document count."""
    import pyarrow.compute as pc

    from ..stages.grouping import bucketed_group_apply

    n_total = documents.count()

    def df_partial(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column(text_col))
        if not len(toks):
            return pa.table(
                {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        g = (
            pa.table({"term": toks, "p": pa.array(parents)})
            .group_by(["term", "p"])
            .aggregate([])
            .group_by("term")
            .aggregate([("term", "count")])
        )
        return pa.table(
            {"term": g.column("term"), "df": pc.cast(g.column("term_count"), pa.int64())}
        )

    dfs = (
        documents.select_columns([text_col])
        .map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .sum("df")
    )

    # capped-df map: rare vocabulary only — strictly smaller than the
    # full vocab broadcast the keyword extractor already uses
    rare: dict[str, int] = {}
    for ref in dfs.materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t):  # zero-row groupby blocks carry an empty schema
            continue
        terms = t.column("term").to_pylist()
        vals = t.column("sum(df)").to_pylist()
        for term, d in zip(terms, vals):
            if d <= max_df:
                rare[term] = int(d)
    rare_terms = pa.array(sorted(rare), pa.string())
    rare_df = np.array([rare[t] for t in sorted(rare)], np.float64)
    rare_ref = [ray.put((rare_terms, rare_df))]

    def score(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column(text_col))
        empty = pa.table(
            {
                "term": pa.array([], pa.string()),
                id_col: pa.array([], pa.int64()),
                "wn": pa.array([], pa.float64()),
            }
        )
        if not len(toks):
            return empty
        rt, rdf = ray.get(rare_ref[0])
        g = (
            pa.table({"term": toks, "p": pa.array(parents)})
            .group_by(["term", "p"])
            .aggregate([("p", "count")])
        )
        gt = g.column("term")
        gp = g.column("p").to_numpy(zero_copy_only=False).astype(np.int64)
        tf = g.column("p_count").to_numpy(zero_copy_only=False).astype(np.float64)
        idx = pc.index_in(gt, value_set=rt)
        iv = idx.to_numpy(zero_copy_only=False)
        hit = ~np.isnan(iv.astype(np.float64)) if iv.dtype.kind == "f" else iv >= 0
        if not hit.any():
            return empty
        code = iv.astype(np.float64)[hit].astype(np.int64)
        w = tf[hit] * np.log((n_total + 1.0) / (rdf[code] + 1.0))
        p = gp[hit]
        norm2 = np.bincount(p, weights=w * w, minlength=len(batch))
        norm = np.sqrt(norm2)
        wn = w / norm[p]
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "term": gt.filter(pa.array(hit)),
                id_col: pa.array(ids[p], pa.int64()),
                "wn": pa.array(wn, pa.float64()),
            }
        )

    postings = documents.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow"
    )

    def term_pairs(grp: pd.DataFrame) -> pd.DataFrame:
        a_out, b_out, p_out = [], [], []
        for _, g in grp.groupby("term", sort=False):
            if len(g) < 2:
                continue
            ids = g[id_col].to_numpy(np.int64)
            wn = g["wn"].to_numpy(np.float64)
            order = np.argsort(ids)
            ids, wn = ids[order], wn[order]
            ii, jj = np.triu_indices(len(ids), k=1)
            a_out.append(ids[ii])
            b_out.append(ids[jj])
            p_out.append(wn[ii] * wn[jj])
        if not a_out:
            return pd.DataFrame(
                {
                    "doc_a": np.array([], np.int64),
                    "doc_b": np.array([], np.int64),
                    "prod": np.array([], np.float64),
                }
            )
        return pd.DataFrame(
            {
                "doc_a": np.concatenate(a_out),
                "doc_b": np.concatenate(b_out),
                "prod": np.concatenate(p_out),
            }
        )

    pairs = bucketed_group_apply(postings, ["term"], term_pairs, n_buckets=32)
    summed = pairs.groupby(["doc_a", "doc_b"]).sum("prod")

    def finish(t: pa.Table) -> pa.Table:
        if not len(t) or "sum(prod)" not in t.column_names:
            return _EMPTY_COSINE_PAIRS
        cos = np.round(t.column("sum(prod)").to_numpy(zero_copy_only=False), 6)
        keep = cos >= threshold
        return pa.table(
            {
                "doc_a": t.column("doc_a").filter(pa.array(keep)),
                "doc_b": t.column("doc_b").filter(pa.array(keep)),
                "cosine": pa.array(cos[keep], pa.float64()),
            }
        )

    out = summed.map_batches(finish, batch_format="pyarrow").materialize()
    if out.count() == 0:
        # zero matches must still carry the (doc_a, doc_b, cosine)
        # schema — an all-empty-block dataset loses its columns
        # (caught by the sf0.1 full sweep, where no pair clears 0.8)
        return rd.from_arrow(_EMPTY_COSINE_PAIRS)
    return out


def dedup_threshold_sweep(
    documents: rd.Dataset,
    *,
    thresholds_pct: tuple[int, ...] = (50, 60, 70, 80, 90),
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    seed: int = 42,
) -> "pd.DataFrame":
    """→ (threshold_pct, n_pairs, n_docs): operating-point calibration
    for the MinHash near-dup stage — at each candidate threshold, how
    many pairs survive and how many distinct documents they touch.
    This is the sweep a curation team runs before fixing the dedup
    threshold for a 100 TB pass (too low deletes content, too high
    leaves templates).

    The estimate compares ROUNDed(est, 6) ≥ t on both sides, so no
    float boundary can flip a pair between buckets.  Scale shape: one
    MinHash-LSH pass with ``threshold=0`` (every band-sharing candidate
    keeps its estimate); below ``DRIVER_FASTPATH_ROWS`` pairs the table
    collects once and folds with vectorized masks.  Above it NOTHING
    pair-sized reaches the driver: ``n_pairs`` per threshold is a
    per-batch histogram summed by a 5-row groupby, and ``n_docs`` per
    threshold folds from a per-doc max-est aggregate (a doc survives
    threshold t iff max est over its pairs ≥ t — one (doc, est)
    explode, a per-batch combiner, one keyed exchange, then a second
    5-row histogram).  Both paths emit identical tables
    (regression-tested)."""
    import pandas as pd

    from ..config import DRIVER_FASTPATH_ROWS

    thresholds = [int(tp) for tp in thresholds_pct]
    pairs = minhash_lsh_pairs(
        documents, num_perm=num_perm, bands=bands, shingle_k=shingle_k,
        threshold=0.0, seed=seed,
    ).materialize()
    n_total = pairs.count()

    def _finish(n_pairs_by_tp: dict, n_docs_by_tp: dict) -> "pd.DataFrame":
        return pd.DataFrame(
            {
                "threshold_pct": thresholds,
                "n_pairs": [int(n_pairs_by_tp.get(tp, 0)) for tp in thresholds],
                "n_docs": [int(n_docs_by_tp.get(tp, 0)) for tp in thresholds],
            }
        )

    if n_total <= DRIVER_FASTPATH_ROWS:
        # pair table fits the driver contract — one collect, vector masks
        tbls = [
            t for t in ray.get(pairs.materialize().to_arrow_refs())
            if len(t) and "doc_a" in t.column_names
        ]
        if not tbls:
            return _finish({}, {})
        tbl = pa.concat_tables(tbls)
        a = tbl.column("doc_a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = tbl.column("doc_b").to_numpy(zero_copy_only=False).astype(np.int64)
        est = np.round(
            tbl.column("est_jaccard").to_numpy(zero_copy_only=False), 6
        )
        np_by, nd_by = {}, {}
        for tp in thresholds:
            keep = est >= tp / 100.0
            np_by[tp] = int(keep.sum())
            nd_by[tp] = int(np.union1d(a[keep], b[keep]).size) if np_by[tp] else 0
        return _finish(np_by, nd_by)

    tp_arr = np.array(thresholds, np.int64)
    _EMPTY_HIST = pa.table(
        {"threshold_pct": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
    )

    def pair_hist(t: pa.Table) -> pa.Table:
        # per-batch partial: 5 counter rows per block, nothing pair-sized
        if not len(t) or "est_jaccard" not in t.column_names:
            return _EMPTY_HIST
        est = np.round(t.column("est_jaccard").to_numpy(zero_copy_only=False), 6)
        cnt = (est[None, :] >= tp_arr[:, None] / 100.0).sum(axis=1)
        return pa.table(
            {
                "threshold_pct": pa.array(tp_arr, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def doc_max_partial(t: pa.Table) -> pa.Table:
        # per-batch combiner: (doc_id, max est over the block's pairs)
        if not len(t) or "doc_a" not in t.column_names:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "est": pa.array([], pa.float64())}
            )
        a = t.column("doc_a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("doc_b").to_numpy(zero_copy_only=False).astype(np.int64)
        est = np.round(t.column("est_jaccard").to_numpy(zero_copy_only=False), 6)
        d = np.concatenate([a, b])
        e = np.concatenate([est, est])
        order = np.lexsort((-e, d))
        d, e = d[order], e[order]
        first = np.flatnonzero(np.diff(d, prepend=d[0] - 1))
        return pa.table(
            {
                "doc_id": pa.array(d[first], pa.int64()),
                "est": pa.array(e[first], pa.float64()),
            }
        )

    def doc_hist(t: pa.Table) -> pa.Table:
        if not len(t):
            return _EMPTY_HIST
        m = t.column("max(est)").to_numpy(zero_copy_only=False)
        cnt = (m[None, :] >= tp_arr[:, None] / 100.0).sum(axis=1)
        return pa.table(
            {
                "threshold_pct": pa.array(tp_arr, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    np_rows = (
        pairs.map_batches(pair_hist, batch_format="pyarrow")
        .groupby("threshold_pct").sum("cnt").take_all()
    )  # ≤ len(thresholds) rows
    nd_rows = (
        pairs.map_batches(doc_max_partial, batch_format="pyarrow")
        .groupby("doc_id").max("est")
        .map_batches(doc_hist, batch_format="pyarrow")
        .groupby("threshold_pct").sum("cnt").take_all()
    )
    return _finish(
        {int(r["threshold_pct"]): int(r["sum(cnt)"]) for r in np_rows},
        {int(r["threshold_pct"]): int(r["sum(cnt)"]) for r in nd_rows},
    )


def bloom_decontaminate_stats(
    documents: rd.Dataset,
    probe_texts: list[str],
    *,
    k: int = 5,
    m_bits: int = 8192,
    k_hash: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """→ (doc_id, n_windows, n_bloom_hits): Bloom-filter
    decontamination — the memory-bounded sibling of
    :func:`decontaminate_stats`.  The probe set's k-token windows set
    ``k_hash`` md5-derived positions each in an ``m_bits`` bitset; a
    document window "hits" when ALL its positions are set (the usual
    Bloom contract: supersets the exact hit set by deterministic false
    positives, never misses).  At 100 TB this is THE shape: a
    billion-window eval suite broadcasts as m_bits/8 bytes instead of
    8 B per window — the filter rides ``ray.put`` to every task at
    constant memory, and flagged docs go to the exact verifier.

    Positions are ``md5_u64(str(win_hash) + ':bloom:' + str(i)) %
    m_bits`` — replicated bit-for-bit by the DuckDB oracle, so even the
    false positives are deterministic and hash-checked.  Scale shape:
    shuffle-free single pass, bitset broadcast once."""
    import ray

    from ..functions.hashing import md5_u64

    probe_tbl = pa.table(
        {
            id_col: pa.array(np.arange(len(probe_texts), dtype=np.int64)),
            text_col: pa.array(list(probe_texts), pa.string()),
        }
    )
    probe_hashes = np.unique(
        _window_hash_stage(probe_tbl, k, text_col=text_col, id_col=id_col)
        .column("win_hash")
        .to_numpy()
    )
    bits = np.zeros(m_bits, bool)
    for i in range(k_hash):
        pos = md5_u64([f"{int(h)}:bloom:{i}" for h in probe_hashes]) % m_bits
        bits[pos.astype(np.int64)] = True
    bits_ref = ray.put(bits)

    def stage(batch: pa.Table) -> pa.Table:
        import ray as _ray

        bs = _ray.get(bits_ref)
        doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        wins = _window_hash_stage(batch, k, text_col=text_col, id_col=id_col)
        n = len(doc_ids)
        tot = np.zeros(n, np.int64)
        hit = np.zeros(n, np.int64)
        if len(wins):
            wdoc = wins.column("doc_id").to_numpy()
            whash = wins.column("win_hash").to_numpy()
            wcnt = wins.column("cnt").to_numpy()
            order = np.argsort(doc_ids, kind="stable")
            pos = order[np.searchsorted(doc_ids[order], wdoc)]
            np.add.at(tot, pos, wcnt)
            # hash DISTINCT window values only (repeated windows across
            # docs pay one md5), then map membership back via inverse
            uniq, inv = np.unique(whash, return_inverse=True)
            umem = np.ones(len(uniq), bool)
            for i in range(k_hash):
                bp = md5_u64([f"{int(h)}:bloom:{i}" for h in uniq]) % m_bits
                umem &= bs[bp.astype(np.int64)]
            member = umem[inv]
            np.add.at(hit, pos[member], wcnt[member])
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_windows": pa.array(tot, pa.int64()),
                "n_bloom_hits": pa.array(hit, pa.int64()),
            }
        )

    return documents.select_columns([id_col, text_col]).map_batches(
        stage, batch_format="pyarrow"
    )


def minhash_calibration(
    documents: rd.Dataset,
    *,
    num_perm: int = 64,
    bands: int = 16,
    shingle_k: int = 3,
    seed: int = 42,
) -> "pd.DataFrame":
    """→ (bucket, n_pairs, mean_est, mean_exact): estimator-quality
    calibration of the MinHash near-dup stage — per est-Jaccard decile
    (bucket = floor(est·10)), how the signature estimate tracks the
    EXACT shingle Jaccard of the same candidate pairs.  The bias/spread
    table a curation team reads before trusting est ≥ t as a deletion
    rule at 100 TB (complements ``dedup_threshold_sweep``'s volume
    view).

    Scale shape: one threshold-0 MinHash-LSH pass (pair-sized
    candidates), then the ngram verify recipe — gram sets re-derived
    ONLY for referenced docs (candidate-pruned second corpus pass,
    packed as binary blobs like :func:`containment_pairs`), exact
    |∩|/|∪| per pair inside ``map_batches``, a per-batch decile
    combiner, then a ≤11-row groupby.  Below ``DRIVER_FASTPATH_ROWS``
    pairs the gram blobs resolve locally (two hash joins carry ~4 s of
    aggregator startup at that size); above it pair halves hash-join ⨝
    packed gram sets with partitions sized to the PAIR table and
    nothing pair-sized touches the driver.  est is k/num_perm
    (binary-exact, ≤6 decimals), so the decile bucketing cannot sit on
    a float boundary."""
    import pandas as pd

    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import sized_join

    _EMPTY_CAL = pd.DataFrame(
        {"bucket": [], "n_pairs": [], "mean_est": [], "mean_exact": []}
    )
    pairs = minhash_lsh_pairs(
        documents, num_perm=num_perm, bands=bands, shingle_k=shingle_k,
        threshold=0.0, seed=seed,
    ).materialize()
    n_pairs_total = pairs.count()
    if n_pairs_total == 0:
        return _EMPTY_CAL

    # referenced doc ids — candidate-pair-sized, safe to broadcast (the
    # same convention as containment_pairs' verify pass)
    ref_ids: list[np.ndarray] = []
    for t in ray.get(pairs.materialize().to_arrow_refs()):
        if len(t) and "doc_a" in t.column_names:
            ref_ids.append(t.column("doc_a").to_numpy(zero_copy_only=False))
            ref_ids.append(t.column("doc_b").to_numpy(zero_copy_only=False))
    referenced = np.unique(np.concatenate(ref_ids).astype(np.int64))
    ref_set_ref = [ray.put(pa.array(referenced, pa.int64()))]
    helper = _NgramBuckets(shingle_k, 4)

    def gather_sets(batch: pa.Table) -> pa.Table:
        # grams packed as binary (little-endian sorted-unique i64s):
        # Arrow's hash join rejects list<> payload columns
        import pyarrow.compute as pc

        mask = pc.is_in(batch.column("doc_id"), value_set=ray.get(ref_set_ref[0]))
        sub = batch.filter(mask)
        if not len(sub):
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "grams": pa.array([], pa.binary())}
            )
        sets = helper.doc_gram_sets(sub)
        return pa.table(
            {
                "doc_id": sub.column("doc_id"),
                "grams": pa.array(
                    [s.astype("<i8").tobytes() for s in sets], pa.binary()
                ),
            }
        )

    # candidate-pruned (pair-doc-sized); read by both join sides / the
    # local resolve below
    gram_sets = (
        documents.select_columns(["doc_id", "text"])
        .map_batches(gather_sets, batch_format="pyarrow")
        .materialize()
    )

    _EMPTY_PARTIAL = pa.table(
        {
            "bucket": pa.array([], pa.int64()),
            "n": pa.array([], pa.int64()),
            "sum_est": pa.array([], pa.float64()),
            "sum_exact": pa.array([], pa.float64()),
        }
    )

    def decile_partial(batch: pa.Table) -> pa.Table:
        """Exact Jaccard per joined pair row, folded to ≤11 decile
        counter rows — the only thing this stage emits."""
        if not len(batch):
            return _EMPTY_PARTIAL
        est = np.round(
            batch.column("est_jaccard").to_numpy(zero_copy_only=False), 6
        )
        ga = batch.column("grams_a").to_pylist()
        gb = batch.column("grams_b").to_pylist()
        exact = np.empty(len(est), np.float64)
        for i, (s1, s2) in enumerate(zip(ga, gb)):
            x = np.frombuffer(s1 or b"", "<i8")
            y = np.frombuffer(s2 or b"", "<i8")
            union = x.size + y.size
            if not union:
                exact[i] = 0.0
                continue
            inter = np.intersect1d(x, y, assume_unique=True).size
            exact[i] = inter / (union - inter)
        bucket = np.floor(est * 10.0).astype(np.int64)
        order = np.argsort(bucket, kind="stable")
        bucket, est, exact = bucket[order], est[order], exact[order]
        starts = np.flatnonzero(np.diff(bucket, prepend=bucket[0] - 1))
        lens = np.diff(np.append(starts, bucket.size))
        return pa.table(
            {
                "bucket": pa.array(bucket[starts], pa.int64()),
                "n": pa.array(lens.astype(np.int64), pa.int64()),
                "sum_est": pa.array(np.add.reduceat(est, starts), pa.float64()),
                "sum_exact": pa.array(np.add.reduceat(exact, starts), pa.float64()),
            }
        )

    def _finish(bk: np.ndarray, n: np.ndarray, se: np.ndarray, sx: np.ndarray):
        order = np.argsort(bk)
        bk, n, se, sx = bk[order], n[order], se[order], sx[order]
        return pd.DataFrame(
            {
                "bucket": bk.astype(np.int64),
                "n_pairs": n.astype(np.int64),
                "mean_est": np.round(se / n, 6),
                "mean_exact": np.round(sx / n, 6),
            }
        )

    if n_pairs_total <= DRIVER_FASTPATH_ROWS:
        # pair + pruned-gram tables fit the driver contract — resolve the
        # packed blobs locally, one partial fold, no joins
        by_doc: dict[int, bytes] = {}
        for t in ray.get(gram_sets.materialize().to_arrow_refs()):
            for did, blob in zip(
                t.column("doc_id").to_pylist(), t.column("grams").to_pylist()
            ):
                by_doc[int(did)] = blob
        parts = []
        for t in ray.get(pairs.materialize().to_arrow_refs()):
            if not len(t) or "doc_a" not in t.column_names:
                continue
            av = t.column("doc_a").to_pylist()
            bv = t.column("doc_b").to_pylist()
            parts.append(pa.table(
                {
                    "est_jaccard": t.column("est_jaccard"),
                    "grams_a": pa.array([by_doc.get(x, b"") for x in av], pa.binary()),
                    "grams_b": pa.array([by_doc.get(x, b"") for x in bv], pa.binary()),
                }
            ))
        agg = decile_partial(pa.concat_tables(parts))
        return _finish(
            agg.column("bucket").to_numpy(zero_copy_only=False),
            agg.column("n").to_numpy(zero_copy_only=False).astype(np.float64),
            agg.column("sum_est").to_numpy(zero_copy_only=False),
            agg.column("sum_exact").to_numpy(zero_copy_only=False),
        )

    def rename(id_name: str, gram_name: str):
        def r(batch: pa.Table) -> pa.Table:
            return pa.table(
                {id_name: batch.column("doc_id"), gram_name: batch.column("grams")}
            )

        return r

    # join partitions scale with the PAIR table, not the cluster
    n_part = max(2, min(64, (n_pairs_total // 100_000) + 2))
    joined = sized_join(
        pairs,
        gram_sets.map_batches(rename("doc_a", "grams_a"), batch_format="pyarrow"),
        ("doc_a",), num_partitions=n_part,
    ).materialize()  # pair-sized intermediate (aggregator-deadlock guard)
    joined = sized_join(
        joined,
        gram_sets.map_batches(rename("doc_b", "grams_b"), batch_format="pyarrow"),
        ("doc_b",), num_partitions=n_part,
    )
    rows = (
        joined.map_batches(decile_partial, batch_format="pyarrow")
        .groupby("bucket")
        .sum(["n", "sum_est", "sum_exact"])
        .take_all()
    )  # ≤11 rows
    if not rows:
        return _EMPTY_CAL
    return _finish(
        np.array([r["bucket"] for r in rows], np.int64),
        np.array([r["sum(n)"] for r in rows], np.float64),
        np.array([r["sum(sum_est)"] for r in rows], np.float64),
        np.array([r["sum(sum_exact)"] for r in rows], np.float64),
    )
