"""End-to-end 128-bit-docID index path (the 10^12-doc hash-id frame).

Dense int64 docIDs (the default build) need a coordinated id-assignment
pass; at a true 10^12-doc deployment the alternative is a DERIVED docID
— md5(url) → 128 bits, assigned independently on every worker with no
exchange and ~1e-15 collision odds (codec.py "128-bit ids" discusses
why 64 bits are NOT enough there). This module closes the loop the
codec (``encode_posting_list_128``) and query layer (``stages/
wand``) left open: a distributed BUILD producing persisted 128-bit
segments from a documents table, and a SERVE function running block-max
top-k directly over them.

Scale shape mirrors the main build: tokenize-explode inside
``map_batches`` (per-batch (term, doc, tf) rows, the combiner), ONE
hash exchange on the term bucket, per-bucket vectorized encode to
atomic parquet segments (tmp + rename; manifest-gated resume). Query
reads only the probed term's bucket file (Parquet predicate pushdown)
and maps the top-k (hi, lo) hits back to doc ids via a filtered docmap
read — never a corpus scan.

Reference semantics source: scoring is SearchServiceImpl.java:129-160
(tf·idf over OR-matched pages); the 128-bit id layout is this rebuild's
scale extension (SURVEY §2 has no counterpart).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..functions.hashing import md5_u64
from ..stages.codec import (
    assign_doc_ids_128,
    encode_posting_list_128,
)
from ..stages.postings import (
    SEGMENT_SCHEMA_128,
    posting_row_128_from_storage,
    posting_row_128_to_storage,
)

_U64 = 1 << 64


def _doc_urls(batch: pa.Table) -> list[str]:
    """The adapter's url plan (sources/pages.py docs_from_documents):
    the 128-bit docID hashes this exact string."""
    return [
        f"https://{s}.example/doc/{d}"
        for s, d in zip(
            batch.column("source").to_pylist(), batch.column("doc_id").to_pylist()
        )
    ]


def _signed(a: np.ndarray) -> np.ndarray:
    return a.astype(np.uint64).view(np.int64)


def build_index_128(
    documents: rd.Dataset,
    out_dir: str,
    n_buckets: int = 8,
    input_token: str | None = None,
) -> dict:
    """documents(doc_id, source, text) → ``out_dir`` with
    ``bucket=NNN.parquet`` 128-bit segments (SEGMENT_SCHEMA_128),
    ``docmap.parquet`` (doc_hi, doc_lo, doc_id) and ``manifest.json``.
    Rebuilds are skipped when the manifest's input_token matches."""
    out = Path(out_dir)
    man = out / "manifest.json"
    if man.exists():
        try:
            m = json.loads(man.read_text())
            if (
                input_token is not None
                and m.get("input_token") == input_token
                and m.get("version") == 2
            ):
                return m
        except Exception:
            pass
    out.mkdir(parents=True, exist_ok=True)
    # a rebuild invalidates everything derived from the old corpus —
    # segments, LSM deltas (segment AND docmap), append markers
    for stale in (
        list(out.glob("bucket=*.parquet"))
        + list(out.glob("docmap.delta-*.parquet"))
        + list(out.glob("tombstone-*.parquet"))
        + list(out.glob("append.*.json"))
        + list(out.glob("delete.*.json"))
        + list(out.glob("*.tmp"))
    ):
        stale.unlink()

    parts = _explode_128(documents, n_buckets).materialize()

    def write_bucket(group: pd.DataFrame) -> pd.DataFrame:
        b = int(group["bucket"].iloc[0])
        tbl = _encode_bucket_rows_128(b, group)
        tmp = out / f"bucket={b:05d}.parquet.tmp"
        pq.write_table(tbl, tmp, compression="zstd")
        tmp.rename(out / f"bucket={b:05d}.parquet")
        return pd.DataFrame({"bucket": [b], "n_terms": [len(tbl)]})

    seg_rows = parts.filter(expr="bucket >= 0")
    manifest_rows = (
        seg_rows.groupby("bucket").map_groups(write_bucket, batch_format="pandas").to_pandas()
    )

    dm = parts.filter(expr="bucket < 0").map_batches(
        lambda t: pa.table(
            {
                "doc_hi": t["hi"],
                "doc_lo": t["lo"],
                "doc_id": t["doc_id"],
                "doc_len": t["tf"],
            }
        ),
        batch_format="pyarrow",
    )
    dm_tbl = pa.concat_tables(ray_get_all(dm))
    tmp = out / "docmap.parquet.tmp"
    pq.write_table(dm_tbl, tmp, compression="zstd")
    tmp.rename(out / "docmap.parquet")

    m = {
        "version": 2,  # v2: docmap carries doc_len (BM25 serving)
        "input_token": input_token,
        "n_buckets": int(n_buckets),
        "n_docs_indexed": int(len(dm_tbl)),
        "n_terms": int(manifest_rows["n_terms"].sum()),
        "sum_doc_len": int(dm_tbl["doc_len"].to_numpy().sum()),
        "min_doc_len": int(dm_tbl["doc_len"].to_numpy().min()) if len(dm_tbl) else 0,
    }
    mt = out / "manifest.json.tmp"
    mt.write_text(json.dumps(m))
    mt.rename(man)
    return m


def _explode_128(documents: rd.Dataset, n_buckets: int) -> rd.Dataset:
    """ONE tokenize + md5 pass emits BOTH row kinds: per-(doc, term)
    posting rows (bucket ≥ 0) and per-doc docmap sentinel rows
    (bucket = -1, term = "", tf = doc_len, doc_id set) — shared by
    build and append so the docmap never costs a second corpus scan."""

    def explode(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import flat_nonempty_tokens

        empty = pa.table(
            {
                "bucket": pa.array([], pa.int32()),
                "term": pa.array([], pa.string()),
                "hi": pa.array([], pa.int64()),
                "lo": pa.array([], pa.int64()),
                "tf": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
            }
        )
        hi, lo = assign_doc_ids_128(_doc_urls(batch))
        toks, parents, counts = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return empty
        # per-(doc, term) tf via one dictionary-encode + unique pass
        denc = toks.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nv = len(denc.dictionary)
        key = parents * np.int64(nv) + codes
        ukey, tf = np.unique(key, return_counts=True)
        up = (ukey // nv).astype(np.int64)
        uc = (ukey % nv).astype(np.int64)
        terms = denc.dictionary.take(pa.array(uc))
        bucket = (md5_u64(terms.to_pylist()) % np.uint64(n_buckets)).astype(np.int32)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = counts > 0  # N counts indexed docs only (A3)
        n_doc = int(keep.sum())
        return pa.table(
            {
                "bucket": pa.array(
                    np.concatenate([bucket, np.full(n_doc, -1, np.int32)])
                ),
                "term": pa.concat_arrays(
                    [terms.combine_chunks() if isinstance(terms, pa.ChunkedArray) else terms,
                     pa.array([""] * n_doc, pa.string())]
                ),
                "hi": pa.array(
                    np.concatenate([_signed(hi[up]), _signed(hi[keep])])
                ),
                "lo": pa.array(
                    np.concatenate([_signed(lo[up]), _signed(lo[keep])])
                ),
                "tf": pa.array(
                    np.concatenate([tf.astype(np.int64), counts[keep].astype(np.int64)])
                ),
                "doc_id": pa.array(
                    np.concatenate(
                        [np.full(len(up), -1, np.int64), doc_ids[keep].astype(np.int64)]
                    )
                ),
            }
        )

    return documents.select_columns(["doc_id", "source", "text"]).map_batches(
        explode, batch_format="pyarrow"
    )


def _encode_bucket_rows_128(b: int, group: pd.DataFrame) -> pa.Table:
    """One bucket's (term, hi, lo, tf) rows → SEGMENT_SCHEMA_128 table."""
    rows: dict[str, list] = {name: [] for name in SEGMENT_SCHEMA_128.names}
    for term, g in group.groupby("term", sort=True):
        payload = encode_posting_list_128(
            g["hi"].to_numpy(np.int64).view(np.uint64),
            g["lo"].to_numpy(np.int64).view(np.uint64),
            g["tf"].to_numpy(np.int64),
        )
        srow = posting_row_128_to_storage(payload)
        rows["bucket"].append(b)
        rows["site_id"].append(0)
        rows["term"].append(term)
        rows["salt"].append(0)
        for c in (
            "df", "cf", "doc_gaps", "tf_bytes", "block_last_doc_hi",
            "block_last_doc_lo", "block_max_tf", "block_gap_offset",
            "block_tf_offset",
        ):
            rows[c].append(srow[c])
    return pa.table(
        {n: pa.array(rows[n], SEGMENT_SCHEMA_128.field(n).type) for n in SEGMENT_SCHEMA_128.names}
    )


def ray_get_all(ds: rd.Dataset) -> list[pa.Table]:
    """Materialize a SMALL dataset's blocks as arrow tables (the docmap
    is ~24 B/doc; at cluster scale this becomes write_parquet sharding —
    kept driver-side here because the single docmap file is what the
    filtered query-time read probes)."""
    import ray

    return [t if isinstance(t, pa.Table) else pa.Table.from_pandas(t)
            for t in ray.get(ds.materialize().to_arrow_refs())]


def topk_128(
    index_dir: str,
    query: str,
    k: int = 10,
    mode: str = "or",
    scorer: str = "tfidf",
    k1: float = 1.2,
    b: float = 0.75,
) -> pd.DataFrame:
    """Top-k over the persisted 128-bit segments → (doc_id, rank, score
    float64 r6). ``scorer="tfidf"`` (Σ tf·idf) or ``"bm25"`` (k1, b; doc
    lengths from the docmap, block bounds via the admissible global
    min-dl). Ties: score desc, 128-bit docID asc (== md5-hex ascending,
    which a SQL mirror reproduces with ``ORDER BY score DESC,
    md5(url)``). Reads ONLY the query terms' bucket files."""
    from ..functions.tokenize import query_lemmas
    from ..stages.wand import (
        topk_conjunctive_bmw_128,
        topk_disjunctive_maxscore_128,
    )

    out = Path(index_dir)
    m = json.loads((out / "manifest.json").read_text())
    # doc statistics derive from the docmap DATA (base + any LSM delta
    # docmaps, crash-dup rows deduped) so appends keep idf/avgdl exact —
    # the manifest's build-time counters go stale the moment an append
    # lands. At cluster scale each query actor caches its shard's stats.
    dmt = _read_docmap(out, columns=["doc_hi", "doc_lo", "doc_len"])
    n_total = len(dmt)
    lemmas = query_lemmas(query)
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype="int64"),
            "rank": pd.Series([], dtype="int64"),
            "score": pd.Series([], dtype="float64"),
        }
    )
    if not lemmas or n_total <= 0:
        return empty
    import math

    term_rows: list[tuple[dict, float]] = []
    for t in lemmas:
        # NB: named bkt, not b — `b` is the BM25 length-normalization
        # parameter read by the weight closure below
        bkt = int(md5_u64([t])[0] % np.uint64(m["n_buckets"]))
        row = _load_term_row_128(out, bkt, t)
        df_count = int(row["df"]) if row is not None else 0
        idf = math.log((n_total + 1) / (df_count + 1))
        if row is not None:
            term_rows.append((row, idf))
        elif mode == "and":
            return empty  # a lemma with no postings empties the AND

    if not term_rows:
        return empty

    if scorer == "bm25":
        # doc lengths keyed by the 128-bit id; the whole docmap is
        # ~32 B/doc (at cluster scale each query actor holds its shard)
        dls = dmt["doc_len"].to_numpy(zero_copy_only=False).astype(np.float64)
        dl_lut = {
            (int(h) % _U64, int(l) % _U64): float(d)
            for h, l, d in zip(
                dmt["doc_hi"].to_pylist(),
                dmt["doc_lo"].to_pylist(),
                dmt["doc_len"].to_pylist(),
            )
        }
        avgdl = max(1.0, float(dls.sum()) / max(1, n_total))
        min_dl = float(dls.min()) if len(dls) else 0.0

        def weight(tfs: np.ndarray, idf: float, docs=None) -> np.ndarray:
            t = tfs.astype(np.float64)
            if docs is None:  # bound: dl → global min (admissible)
                denom = t + k1 * (1.0 - b + b * min_dl / avgdl)
            else:
                hi_a, lo_a = docs
                dl = np.array(
                    [
                        dl_lut[(int(h), int(l))]
                        for h, l in zip(hi_a.tolist(), lo_a.tolist())
                    ],
                    np.float64,
                )
                denom = t + k1 * (1.0 - b + b * dl / avgdl)
            return idf * (t * (k1 + 1.0)) / denom

    else:

        def weight(tfs: np.ndarray, idf: float, _docs=None) -> np.ndarray:
            return tfs.astype(np.float64) * idf

    fn = topk_conjunctive_bmw_128 if mode == "and" else topk_disjunctive_maxscore_128
    docs, scores = fn(term_rows, k, weight)
    if not docs:
        return empty
    # (hi, lo) → doc_id via the docmap (filtered read: only the hit rows'
    # row groups decode)
    want_hi = [h - _U64 if h >= (1 << 63) else h for h, _ in docs]
    dm = _read_docmap(out, filters=[("doc_hi", "in", list(set(want_hi)))])
    lut = {
        (int(h) % _U64, int(l) % _U64): int(d)
        for h, l, d in zip(
            dm["doc_hi"].to_pylist(), dm["doc_lo"].to_pylist(), dm["doc_id"].to_pylist()
        )
    }
    ids = [lut[(h, l)] for h, l in docs]
    # rank on the ROUNDED score (128-bit id tiebreak): raw float64 sums
    # carry summation-order ulps, and a SQL mirror's parallel SUM isn't
    # even run-deterministic — 6-decimal ties must resolve identically
    r6 = np.round(scores, 6)
    order = sorted(
        range(len(ids)), key=lambda i: (-r6[i], (docs[i][0] << 64) | docs[i][1])
    )
    return pd.DataFrame(
        {
            "doc_id": np.asarray([ids[i] for i in order], np.int64),
            "rank": np.arange(1, len(ids) + 1, dtype=np.int64),
            "score": r6[order],
        }
    )


def _file_seq_128(f: Path) -> int:
    """LSM seq of a segment/docmap file: deltas parse it from the name;
    base files read the ``base_seq`` recorded by compaction (−1 fresh)."""
    if ".delta-" in f.name:
        return int(f.name.rsplit("delta-", 1)[1].split(".")[0])
    meta = pq.read_schema(f).metadata or {}
    return int(meta.get(b"base_seq", b"-1"))


def _tombstones_128(out: Path) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Live tombstone segments as (seq, hi, lo) — signed-int64 bit
    patterns (the storage domain), lexsorted by (hi, lo)."""
    tombs = []
    for f in sorted(out.glob("tombstone-*.parquet")):
        seq = int(f.name.split("-", 1)[1].split(".")[0])
        t = pq.read_table(f, columns=["doc_hi", "doc_lo"])
        hi = t["doc_hi"].to_numpy(zero_copy_only=False).astype(np.int64)
        lo = t["doc_lo"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((lo, hi))
        tombs.append((seq, hi[order], lo[order]))
    return tombs


def _member_128(hi, lo, dead_hi, dead_lo) -> np.ndarray:
    """Vectorized membership of (hi, lo) pairs in the lexsorted dead
    arrays — equality only, so the sort domain (signed vs unsigned bit
    pattern) just has to match between the two sides."""
    res = np.zeros(len(hi), dtype=bool)
    if not len(dead_hi) or not len(hi):
        return res
    left = np.searchsorted(dead_hi, hi, side="left")
    right = np.searchsorted(dead_hi, hi, side="right")
    span = right - left
    one = span == 1
    res[one] = dead_lo[np.minimum(left[one], len(dead_lo) - 1)] == lo[one]
    for i in np.nonzero(span > 1)[0]:  # md5-hi collisions: ~never
        res[i] = lo[i] in dead_lo[left[i] : right[i]]
    return res


def _dead_for_seq_128(tombs, src_seq: int):
    """(hi, lo) union of tombstones that apply to a segment written at
    ``src_seq`` — only LATER deletes kill; re-adds after a delete live."""
    rel = [(h, l) for s, h, l in (tombs or []) if s > src_seq]
    if not rel:
        return None
    if len(rel) == 1:
        return rel[0]
    hi = np.concatenate([h for h, _ in rel])
    lo = np.concatenate([l for _, l in rel])
    order = np.lexsort((lo, hi))
    return hi[order], lo[order]


def _read_docmap(out: Path, columns=None, filters=None) -> pa.Table:
    """Docmap rows across the base file and any LSM delta docmaps,
    deduplicated on (hi, lo) keeping the FIRST in (base, delta…) file
    order — duplicates only arise from a compaction/append interrupted
    mid-commit, with identical content either way. Tombstoned docs are
    filtered per file seq, so serving statistics (N, avgdl, doc_len)
    stay exact after deletes with no manifest rewrite."""
    cols = columns
    if cols is not None:
        need = set(cols) | {"doc_hi", "doc_lo"}
        cols = [c for c in ["doc_hi", "doc_lo", "doc_id", "doc_len"] if c in need]
    tombs = _tombstones_128(out)
    files = [out / "docmap.parquet"] + sorted(out.glob("docmap.delta-*.parquet"))
    tables = []
    for f in files:
        if not f.exists():
            continue
        t0 = pq.read_table(f, columns=cols, filters=filters)
        if tombs and len(t0):
            dead = _dead_for_seq_128(tombs, _file_seq_128(f))
            if dead is not None:
                kill = _member_128(
                    t0["doc_hi"].to_numpy(zero_copy_only=False).astype(np.int64),
                    t0["doc_lo"].to_numpy(zero_copy_only=False).astype(np.int64),
                    dead[0],
                    dead[1],
                )
                if kill.any():
                    t0 = t0.filter(pa.array(~kill))
        tables.append(t0)
    if not tables:
        raise FileNotFoundError(f"no docmap under {out}")
    t = pa.concat_tables(tables)
    if len(tables) == 1 or len(t) == 0:
        return t
    hi = t["doc_hi"].to_numpy(zero_copy_only=False)
    lo = t["doc_lo"].to_numpy(zero_copy_only=False)
    order = np.lexsort((np.arange(len(t)), lo, hi))
    sh, sl = hi[order], lo[order]
    keep = np.empty(len(t), dtype=bool)
    keep[0] = True
    np.not_equal(sh[1:], sh[:-1], out=keep[1:])
    keep[1:] |= sl[1:] != sl[:-1]
    return t.take(pa.array(np.sort(order[keep])))


def _load_term_row_128(out: Path, bkt: int, term: str) -> dict | None:
    """One term's merged posting payload across the base bucket file and
    LSM deltas: decode, concat, (hi, lo)-sort, dedupe keep-first,
    re-encode — with tombstoned docs dropped per file seq. None when the
    term is absent everywhere (or fully tombstoned)."""
    from ..stages.codec import decode_posting_list_128

    tombs = _tombstones_128(out)
    files = [out / f"bucket={bkt:05d}.parquet"] + sorted(
        out.glob(f"bucket={bkt:05d}.delta-*.parquet")
    )
    raw = []
    for f in files:
        if not f.exists():
            continue
        tbl = pq.read_table(f, filters=[("term", "==", term)])
        dead = _dead_for_seq_128(tombs, _file_seq_128(f)) if tombs else None
        for r in tbl.to_pylist():
            payload = posting_row_128_from_storage(r)
            if dead is not None:
                h, l, t = decode_posting_list_128(payload)
                kill = _member_128(_signed(h), _signed(l), dead[0], dead[1])
                if kill.any():
                    keep = ~kill
                    if not keep.any():
                        continue
                    payload = encode_posting_list_128(h[keep], l[keep], t[keep])
            raw.append(payload)
    if not raw:
        return None
    if len(raw) == 1:
        return raw[0]
    his, los, tfs = [], [], []
    for r in raw:
        h, l, t = decode_posting_list_128(r)
        his.append(h)
        los.append(l)
        tfs.append(t)
    hi = np.concatenate(his)
    lo = np.concatenate(los)
    tf = np.concatenate(tfs)
    order = np.lexsort((np.arange(len(hi)), lo, hi))
    sh, sl = hi[order], lo[order]
    keep = np.empty(len(hi), dtype=bool)
    keep[0] = True
    np.not_equal(sh[1:], sh[:-1], out=keep[1:])
    keep[1:] |= sl[1:] != sl[:-1]
    order = order[keep]
    return encode_posting_list_128(hi[order], lo[order], tf[order])


def append_documents_128(
    index_dir: str, documents: rd.Dataset, input_token: str | None = None
) -> dict:
    """LSM micro-batch append for the 128-bit index: one tokenize+md5
    pass over the NEW documents (ids derive from md5(url), so "new"
    means new urls — the versioning contract) writes per-touched-bucket
    delta segment files plus a delta docmap, all atomic. Queries merge
    base + deltas per term and derive doc statistics from the combined
    docmap, so idf/avgdl stay exact after any number of appends.
    Same-token re-appends are skipped via a marker; a rebuild clears
    markers and deltas."""
    out = Path(index_dir)
    m = json.loads((out / "manifest.json").read_text())
    nb = int(m["n_buckets"])
    if input_token is not None:
        marker = out / f"append.{_hash_token(input_token)}.json"
        if marker.exists():
            return json.loads(marker.read_text())
    seq = _next_seq_128(out)

    parts = _explode_128(documents, nb).materialize()

    def write_delta(group: pd.DataFrame) -> pd.DataFrame:
        b = int(group["bucket"].iloc[0])
        tbl = _encode_bucket_rows_128(b, group)
        tmp = out / f"bucket={b:05d}.delta-{seq:04d}.parquet.tmp"
        pq.write_table(tbl, tmp, compression="zstd")
        tmp.rename(out / f"bucket={b:05d}.delta-{seq:04d}.parquet")
        return pd.DataFrame({"bucket": [b], "n_terms": [len(tbl)]})

    rows = (
        parts.filter(expr="bucket >= 0")
        .groupby("bucket")
        .map_groups(write_delta, batch_format="pandas")
        .to_pandas()
    )
    dm = parts.filter(expr="bucket < 0").map_batches(
        lambda t: pa.table(
            {
                "doc_hi": t["hi"],
                "doc_lo": t["lo"],
                "doc_id": t["doc_id"],
                "doc_len": t["tf"],
            }
        ),
        batch_format="pyarrow",
    )
    dm_tbl = pa.concat_tables(ray_get_all(dm))
    tmp = out / f"docmap.delta-{seq:04d}.parquet.tmp"
    pq.write_table(dm_tbl, tmp, compression="zstd")
    tmp.rename(out / f"docmap.delta-{seq:04d}.parquet")

    res = {
        "seq": seq,
        "n_buckets_touched": int(len(rows)),
        "n_docs_appended": int(len(dm_tbl)),
    }
    if input_token is not None:
        mt = out / f"append.{_hash_token(input_token)}.json.tmp"
        mt.write_text(json.dumps(res))
        mt.rename(out / f"append.{_hash_token(input_token)}.json")
    return res


def _hash_token(token: str) -> str:
    return hashlib.md5(token.encode("utf-8")).hexdigest()[:10]


def _next_seq_128(out: Path) -> int:
    """Next LSM seq, shared across segment deltas, docmap deltas and
    tombstones so the append/delete order is total."""
    seqs = [
        int(f.name.rsplit("delta-", 1)[1].split(".")[0])
        for f in list(out.glob("bucket=*.delta-*.parquet"))
        + list(out.glob("docmap.delta-*.parquet"))
    ] + [s for s, _, _ in _tombstones_128(out)]
    return (max(seqs) + 1) if seqs else 0


def delete_documents_128(
    index_dir: str, documents: rd.Dataset, input_token: str | None = None
) -> dict:
    """LSM delete for the 128-bit index: derive each row's 128-bit docID
    (md5 of the SAME url plan the build hashes) and write one tombstone
    segment (atomic tmp+rename) that kills those ids in every segment
    AND docmap file written before it. Queries filter at read time —
    including the docmap, so N/avgdl/doc_len (hence idf and BM25) are
    exact immediately after the delete with no manifest rewrite. A later
    ``append_documents_128`` may re-add an id and it stays live (seq
    ordering — the main engine's kill-map semantics). Same-token
    re-deletes are skipped; ``compact_index_128`` folds tombstones."""
    out = Path(index_dir)
    if input_token is not None:
        marker = out / f"delete.{_hash_token(input_token)}.json"
        if marker.exists():
            return json.loads(marker.read_text())

    def ids(batch: pa.Table) -> pa.Table:
        hi, lo = assign_doc_ids_128(_doc_urls(batch))
        return pa.table(
            {"doc_hi": pa.array(_signed(hi)), "doc_lo": pa.array(_signed(lo))}
        )

    tbl = pa.concat_tables(
        ray_get_all(
            documents.select_columns(["doc_id", "source"]).map_batches(
                ids, batch_format="pyarrow"
            )
        )
    )
    hi = tbl["doc_hi"].to_numpy(zero_copy_only=False).astype(np.int64)
    lo = tbl["doc_lo"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((lo, hi))
    sh, sl = hi[order], lo[order]
    if len(sh) > 1:
        keep = np.empty(len(sh), dtype=bool)
        keep[0] = True
        np.not_equal(sh[1:], sh[:-1], out=keep[1:])
        keep[1:] |= sl[1:] != sl[:-1]
        sh, sl = sh[keep], sl[keep]
    seq = _next_seq_128(out)
    t = pa.table({"doc_hi": pa.array(sh), "doc_lo": pa.array(sl)})
    tmp = out / f"tombstone-{seq:04d}.parquet.tmp"
    pq.write_table(t, tmp, compression="zstd")
    tmp.rename(out / f"tombstone-{seq:04d}.parquet")
    res = {"seq": seq, "n_tombstoned": int(len(sh))}
    if input_token is not None:
        mt = out / f"delete.{_hash_token(input_token)}.json.tmp"
        mt.write_text(json.dumps(res))
        mt.rename(out / f"delete.{_hash_token(input_token)}.json")
    return res


def compact_index_128(index_dir: str) -> dict:
    """Fold delta segments + delta docmaps into the base files (one Ray
    task per touched bucket; docmap on the driver — ~32 B/doc). Results
    are identical before and after (tested); idempotent under crashes
    mid-commit because all merges dedupe on the 128-bit id."""
    import ray

    out = Path(index_dir)
    tombs = _tombstones_128(out)
    touched = {f.name.split(".")[0] for f in out.glob("bucket=*.delta-*.parquet")}
    if tombs:
        # a tombstone can kill docs in ANY bucket — fold into every base
        touched |= {
            f.name.split(".")[0]
            for f in out.glob("bucket=*.parquet")
            if ".delta-" not in f.name
        }
    touched = sorted(touched)
    dm_deltas = sorted(out.glob("docmap.delta-*.parquet"))
    if not touched and not dm_deltas and not tombs:
        return {"n_buckets_compacted": 0}
    all_seqs = [
        int(f.name.rsplit("delta-", 1)[1].split(".")[0])
        for f in list(out.glob("bucket=*.delta-*.parquet")) + dm_deltas
    ] + [s for s, _, _ in tombs]
    fold_seq = max(all_seqs) if all_seqs else None

    @ray.remote
    def compact_bucket(prefix: str) -> int:
        base = out / f"{prefix}.parquet"
        deltas = sorted(out.glob(f"{prefix}.delta-*.parquet"))
        terms: set[str] = set()
        for f in [base] + deltas:
            if f.exists():
                terms.update(pq.read_table(f, columns=["term"])["term"].to_pylist())
        bkt = int(prefix.split("=")[1])
        rows: dict[str, list] = {n: [] for n in SEGMENT_SCHEMA_128.names}
        for term in sorted(terms):
            payload = _load_term_row_128(out, bkt, term)
            if payload is None:  # fully tombstoned term
                continue
            srow = posting_row_128_to_storage(payload)
            rows["bucket"].append(bkt)
            rows["site_id"].append(0)
            rows["term"].append(term)
            rows["salt"].append(0)
            for c in (
                "df", "cf", "doc_gaps", "tf_bytes", "block_last_doc_hi",
                "block_last_doc_lo", "block_max_tf", "block_gap_offset",
                "block_tf_offset",
            ):
                rows[c].append(srow[c])
        tbl = pa.table(
            {n: pa.array(rows[n], SEGMENT_SCHEMA_128.field(n).type) for n in SEGMENT_SCHEMA_128.names}
        )
        if fold_seq is not None:
            # fold point INSIDE the file (atomic with the data): a crash
            # between renames and tombstone unlink must not re-kill docs
            # re-added after the tombstone
            tbl = tbl.replace_schema_metadata({b"base_seq": str(fold_seq).encode()})
        tmp = out / f"{prefix}.parquet.tmp"
        pq.write_table(tbl, tmp, compression="zstd")
        tmp.rename(out / f"{prefix}.parquet")
        for f in deltas:
            f.unlink()
        return len(tbl)

    counts = ray.get([compact_bucket.remote(p) for p in touched]) if touched else []
    if dm_deltas or tombs:
        merged = _read_docmap(out)  # tombstones applied inside
        if fold_seq is not None:
            merged = merged.replace_schema_metadata(
                {b"base_seq": str(fold_seq).encode()}
            )
        tmp = out / "docmap.parquet.tmp"
        pq.write_table(merged, tmp, compression="zstd")
        tmp.rename(out / "docmap.parquet")
        for f in sorted(out.glob("docmap.delta-*.parquet")):
            f.unlink()
    # tombstones folded into every base — safe to drop only after all
    # renames land; a crash above re-applies survivors idempotently
    for f in out.glob("tombstone-*.parquet"):
        f.unlink()
    return {"n_buckets_compacted": len(touched), "n_terms": int(sum(counts))}
