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
from ..state.segments import SegmentStore, first_per_key

_U64 = 1 << 64

# manifest layout version (v3: the shared segment store's seq counter)
_VERSION = 3
_DOCMAP = "docmap"
_ROWS_SCHEMA = pa.schema(
    [("term", pa.string()), ("doc_hi", pa.uint64()), ("doc_lo", pa.uint64()),
     ("tf", pa.int64())]
)


def _store(out: str | Path) -> SegmentStore:
    # tombstones hold the 128-bit id as its signed (hi, lo) bit patterns
    return SegmentStore(Path(out), bases=("bucket=*", _DOCMAP), id_cols=("doc_hi", "doc_lo"))


def _key(b: int) -> str:
    return f"bucket={b:05d}"


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
                and m.get("version") == _VERSION
            ):
                return m
        except Exception:
            pass
    store = _store(out)
    store.reset()
    manifest_rows, dm_tbl = _write_segments(store, documents, n_buckets, seq=None)
    m = {
        "version": _VERSION,
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


def _write_segments(store: SegmentStore, documents: rd.Dataset, n_buckets: int, seq):
    """ONE tokenize+md5 pass → one encoded segment per touched bucket
    plus the docmap: the bases (``seq`` None) or the deltas at ``seq``.
    → (per-bucket term counts, docmap table)."""
    parts = _explode_128(documents, n_buckets).materialize()

    def write_bucket(group: pd.DataFrame) -> pd.DataFrame:
        b = int(group["bucket"].iloc[0])
        tbl = _encode_bucket_rows_128(b, group)
        store.write(_key(b), tbl, seq)
        return pd.DataFrame({"bucket": [b], "n_terms": [len(tbl)]})

    rows = (
        parts.filter(expr="bucket >= 0")
        .groupby("bucket")
        .map_groups(write_bucket, batch_format="pandas")
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
    store.write(_DOCMAP, dm_tbl, seq)
    return rows, dm_tbl


def _encode_bucket_rows_128(b: int, group: pd.DataFrame) -> pa.Table:
    """One bucket's (term, hi, lo, tf) rows (hi/lo: 64-bit patterns,
    signed or not) → SEGMENT_SCHEMA_128 table."""
    rows: dict[str, list] = {name: [] for name in SEGMENT_SCHEMA_128.names}
    for term, g in group.groupby("term", sort=True):
        payload = encode_posting_list_128(
            g["hi"].to_numpy().astype(np.uint64),
            g["lo"].to_numpy().astype(np.uint64),
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


def _postings(tbl: pa.Table) -> pa.Table:
    """SEGMENT_SCHEMA_128 rows → _ROWS_SCHEMA rows, one per posting."""
    from ..stages.codec import decode_posting_list_128

    terms, his, los, tfs = [], [], [], []
    for r in tbl.to_pylist():
        h, l, t = decode_posting_list_128(posting_row_128_from_storage(r))
        terms.append(r["term"])
        his.append(h)
        los.append(l)
        tfs.append(t)
    if not terms:
        return _ROWS_SCHEMA.empty_table()
    run = np.repeat(np.arange(len(terms)), [len(h) for h in his])
    return pa.table(
        {
            "term": pa.array(terms, pa.string()).take(pa.array(run)),
            "doc_hi": pa.array(np.concatenate(his), pa.uint64()),
            "doc_lo": pa.array(np.concatenate(los), pa.uint64()),
            "tf": pa.array(np.concatenate(tfs), pa.int64()),
        },
        schema=_ROWS_SCHEMA,
    )


def _merge_bucket_128(store: SegmentStore, segs, tombs, term: str | None = None):
    """THE 128-bit posting merge, shared by the read path and compaction:
    one bucket's base + delta postings (only ``term``'s when given) →
    (term, doc_hi, doc_lo, tf) rows, tombstoned ids dropped per segment
    seq, one row per (term, id)."""
    filters = None if term is None else [("term", "==", term)]
    return store.merge(
        [(_postings(pq.read_table(f, filters=filters)), seq) for f, seq in segs],
        ("term", "doc_hi", "doc_lo"),
        tombs,
    )


def _merge_docmap(store: SegmentStore, segs, tombs, columns=None, filters=None):
    """THE docmap merge, shared by the read path and compaction: base +
    delta docmap rows, one per 128-bit id, tombstoned ids dropped per
    file seq."""
    return store.merge(
        [(pq.read_table(f, columns=columns, filters=filters), seq) for f, seq in segs],
        ("doc_hi", "doc_lo"),
        tombs,
    )


def _read_docmap(out: Path, columns=None, filters=None) -> pa.Table:
    """The live docmap, so serving statistics (N, avgdl, doc_len) stay
    exact after appends and deletes with no manifest rewrite."""
    if columns is not None:
        need = set(columns) | {"doc_hi", "doc_lo"}
        columns = [c for c in ["doc_hi", "doc_lo", "doc_id", "doc_len"] if c in need]
    store = _store(out)
    t = _merge_docmap(store, store.segments(_DOCMAP), None, columns, filters)
    if t is None:
        raise FileNotFoundError(f"no docmap under {out}")
    return t


def _load_term_row_128(out: Path, bkt: int, term: str) -> dict | None:
    """One term's merged posting payload across the base bucket file and
    LSM deltas. None when the term is absent everywhere (or fully
    tombstoned)."""
    store = _store(out)
    rows = _merge_bucket_128(store, store.segments(_key(bkt)), store.tombstones(), term)
    if rows is None or not len(rows):
        return None
    return encode_posting_list_128(
        rows.column("doc_hi").to_numpy(),
        rows.column("doc_lo").to_numpy(),
        rows.column("tf").to_numpy(),
    )


def append_documents_128(
    index_dir: str, documents: rd.Dataset, input_token: str | None = None
) -> dict:
    """LSM micro-batch append for the 128-bit index: one tokenize+md5
    pass over the NEW documents (ids derive from md5(url), so "new"
    means new urls — the versioning contract) writes per-touched-bucket
    delta segments plus a delta docmap. Queries merge base + deltas per
    term and derive doc statistics from the combined docmap, so
    idf/avgdl stay exact after any number of appends. Same-token
    re-appends are skipped; a rebuild clears markers and deltas."""
    out = Path(index_dir)
    nb = int(json.loads((out / "manifest.json").read_text())["n_buckets"])
    store = _store(out)

    def run() -> dict:
        seq = store.next_seq()
        rows, dm_tbl = _write_segments(store, documents, nb, seq)
        return {
            "seq": seq,
            "n_buckets_touched": int(len(rows)),
            "n_docs_appended": int(len(dm_tbl)),
        }

    return store.once("append", input_token, run)


def delete_documents_128(
    index_dir: str, documents: rd.Dataset, input_token: str | None = None
) -> dict:
    """LSM delete for the 128-bit index: derive each row's 128-bit docID
    (md5 of the SAME url plan the build hashes) and write one tombstone
    that kills those ids in every segment AND docmap file written before
    it. Queries filter at read time — including the docmap, so
    N/avgdl/doc_len (hence idf and BM25) are exact immediately after the
    delete with no manifest rewrite. A later ``append_documents_128``
    may re-add an id and it stays live (seq ordering — the main engine's
    kill-map semantics). Same-token re-deletes are skipped;
    ``compact_index_128`` folds tombstones."""
    store = _store(index_dir)

    def ids(batch: pa.Table) -> pa.Table:
        hi, lo = assign_doc_ids_128(_doc_urls(batch))
        return pa.table(
            {"doc_hi": pa.array(_signed(hi)), "doc_lo": pa.array(_signed(lo))}
        )

    def run() -> dict:
        tbl = pa.concat_tables(
            ray_get_all(
                documents.select_columns(["doc_id", "source"]).map_batches(
                    ids, batch_format="pyarrow"
                )
            )
        )
        tbl = first_per_key(tbl, ("doc_hi", "doc_lo"))
        return {"seq": store.write_tombstone(tbl), "n_tombstoned": int(len(tbl))}

    return store.once("delete", input_token, run)


def compact_index_128(index_dir: str) -> dict:
    """Fold delta segments, delta docmaps and tombstones into the base
    files (one Ray task per touched bucket and one for the docmap;
    ``state/segments.py`` owns the lifecycle). Results are identical
    before and after (tested); a re-run after an interruption
    converges."""
    store = _store(index_dir)

    def fold(key: str, segs, tombs) -> pa.Table:
        if key == _DOCMAP:
            return _merge_docmap(store, segs, tombs)
        rows = _merge_bucket_128(store, segs, tombs)
        group = rows.rename_columns(["term", "hi", "lo", "tf"]).to_pandas()
        return _encode_bucket_rows_128(int(key.split("=")[1]), group)

    counts = store.compact(fold)
    counts.pop(_DOCMAP, None)
    return {"n_buckets_compacted": len(counts), "n_terms": int(sum(counts.values()))}
