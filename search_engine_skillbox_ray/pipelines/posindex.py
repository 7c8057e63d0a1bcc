"""Positional inverted index: phrase queries served FROM THE INDEX.

``textstats.PhraseScan`` answers "which docs contain this exact token
sequence" with a full corpus scan — right when the probe set changes
every run, wrong when phrases are queried interactively against a
built corpus. This module adds the index-served path every fulltext
engine grows: segments that store, per (term, doc), the term's
POSITIONS, so a phrase query touches only its terms' posting rows and
never the corpus.

Layout (per term row, all varbyte — LEB128 — streams):

* ``doc_bytes``   — docID delta gaps (ascending int64 docIDs);
* ``cnt_bytes``   — per-doc position count (== tf);
* ``pos_bytes``   — per-doc position delta gaps, doc-concatenated.

Build is the standard shape: tokenize WITH positions inside
``map_batches`` (slim (bucket, term, doc_id, positions) rows — text
never shuffles), one term-bucket exchange, per-bucket vectorized
encode to atomic parquet + manifest (resume-gated). Query: filtered
bucket reads (Parquet predicate pushdown) → docID intersection via
``np.intersect1d`` → adjacency check via sorted-array membership
(searchsorted), one pass per extra phrase token.

Reference: the reference's MySQL index stores only tf
(model/SearchIndex.java) — positions are this rebuild's scale
extension; semantics match ``PhraseScan`` (overlapping occurrences
count) and the position-join SQL oracle.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data as rd

from ..functions.hashing import md5_u64
from ..stages.codec import varbyte_decode, varbyte_encode
from ..state.segments import SegmentStore

POS_SCHEMA = pa.schema(
    [
        ("bucket", pa.int32()),
        ("term", pa.string()),
        ("df", pa.int64()),
        ("cf", pa.int64()),
        ("doc_bytes", pa.binary()),
        ("cnt_bytes", pa.binary()),
        ("pos_bytes", pa.binary()),
    ]
)

# Doc lengths ride the SAME LSM machinery as postings: one reserved
# posting row (term = DOCLEN_TERM, one "position" = the doc's token
# count) in a reserved bucket (id == n_buckets, outside the hash range),
# written by the same single tokenize pass. Appends add doclen deltas,
# tombstones kill doclen entries per segment seq, compaction folds them
# — so N, avgdl and per-doc dl (hence BM25) stay exact across the whole
# ingest/delete lifecycle with no side catalog.
DOCLEN_TERM = "\x00dl"

# bump when the on-disk layout changes so token-gated rebuilds don't
# serve a stale index (v3: the shared segment store's seq counter)
POS_VERSION = 3

# merged posting rows: one per (term, doc) with the doc's positions
_ROWS_SCHEMA = pa.schema(
    [("term", pa.string()), ("doc_id", pa.int64()), ("positions", pa.large_list(pa.int64()))]
)


def _store(out: str | Path) -> SegmentStore:
    return SegmentStore(Path(out), bases=("bucket=*",))


def _key(b: int) -> str:
    return f"bucket={b:05d}"


def build_positional_index(
    documents: rd.Dataset,
    out_dir: str,
    n_buckets: int = 8,
    input_token: str | None = None,
) -> dict:
    """documents(doc_id, text) → ``out_dir`` with per-bucket positional
    segments + manifest. Same-token rebuilds are skipped."""
    out = Path(out_dir)
    man = out / "manifest.json"
    if man.exists():
        try:
            m = json.loads(man.read_text())
            if (
                input_token is not None
                and m.get("input_token") == input_token
                and m.get("version") == POS_VERSION
            ):
                return m
        except Exception:
            pass
    store = _store(out)
    store.reset()
    manifest_rows = _write_buckets(store, documents, n_buckets, seq=None)
    m = {
        "input_token": input_token,
        "n_buckets": int(n_buckets),
        "n_terms": int(manifest_rows["n_terms"].sum()),
        "version": POS_VERSION,
        "doclens": True,
    }
    mt = out / "manifest.json.tmp"
    mt.write_text(json.dumps(m))
    mt.rename(man)
    return m


def _rows(tbl: pa.Table) -> pa.Table:
    """POS_SCHEMA rows → _ROWS_SCHEMA rows, one per (term, doc)."""
    terms, docs, cnts, flats = [], [], [], []
    for row in tbl.select(["term", "df", "doc_bytes", "cnt_bytes", "pos_bytes"]).to_pylist():
        d, c, f = _decode_row(row)
        terms.append(row["term"])
        docs.append(d)
        cnts.append(c)
        flats.append(f)
    if not terms:
        return _ROWS_SCHEMA.empty_table()
    cnt = np.concatenate(cnts)
    offsets = np.zeros(len(cnt) + 1, np.int64)
    np.cumsum(cnt, out=offsets[1:])
    run = np.repeat(np.arange(len(terms)), [len(d) for d in docs])
    return pa.table(
        {
            "term": pa.array(terms, pa.string()).take(pa.array(run)),
            "doc_id": pa.array(np.concatenate(docs), pa.int64()),
            "positions": pa.LargeListArray.from_arrays(
                pa.array(offsets), pa.array(np.concatenate(flats), pa.int64())
            ),
        },
        schema=_ROWS_SCHEMA,
    )


def _merge_bucket(store: SegmentStore, segs, tombs, term: str | None = None):
    """THE positional merge, shared by every read path and compaction:
    one bucket's base + delta posting rows (only ``term``'s when given)
    → (term, doc_id, positions) rows sorted by (term, doc_id), with the
    docs a later tombstone kills dropped per segment seq."""
    filters = None if term is None else [("term", "==", term)]
    return store.merge(
        [(_rows(pq.read_table(f, filters=filters)), seq) for f, seq in segs],
        ("term", "doc_id"),
        tombs,
    )


def _load_term(out: Path, n_buckets: int, term: str, tombs=None, as_of=None):
    """→ (doc_ids ascending int64, counts int64, flat positions int64)
    or None — merged across the base bucket file and any LSM delta
    segments (appends carry NEW doc ids, so the merge is a disjoint
    doc-order interleave), with tombstoned docs filtered out per
    segment seq (a tombstone kills only docs written before it).
    ``as_of`` (a seq number) gives a POINT-IN-TIME read: delta segments
    newer than it are skipped and only tombstones issued by then apply;
    a base file whose compaction already folded newer seqs raises
    — that history is physically gone (Lucene PIT-reader semantics:
    time travel only reaches still-present segments)."""
    b = int(md5_u64([term])[0] % np.uint64(n_buckets))
    return _load_posting(out, b, term, tombs, as_of=as_of)


def _load_doclens(out: Path, n_buckets: int, tombs=None):
    """→ (doc_ids ascending int64, doc lengths int64) from the reserved
    doclen posting row (bucket == n_buckets), LSM-merged/filtered like
    any term. At 10^12 docs this row shards by docID range exactly as
    posting lists do; the serving process holds only its shard."""
    p = _load_posting(out, n_buckets, DOCLEN_TERM, tombs)
    if p is None:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    docs, _cnts, flat = p
    return docs, flat


def _load_posting(out: Path, b: int, term: str, tombs=None, as_of=None):
    store = _store(out)
    if tombs is None:
        tombs = store.tombstones(as_of)
    rows = _merge_bucket(store, store.segments(_key(b), as_of), tombs, term)
    if rows is None or not len(rows):
        return None
    pos = rows.column("positions")
    return (
        rows.column("doc_id").to_numpy(),
        pc.list_value_length(pos).to_numpy().astype(np.int64),
        pc.list_flatten(pos).to_numpy(),
    )


def phrase_search(
    index_dir: str, phrases: list[str], as_of: int | None = None
) -> pa.Table:
    """→ (doc_id, phrase_id, n_occurrences): exact ordered-adjacent
    occurrence counts per probe phrase, served from the positional
    index — only the phrases' terms' posting rows are read. Overlapping
    occurrences count; identical semantics (and SQL oracle) to the
    corpus-scan ``PhraseScan``. ``as_of`` gives a POINT-IN-TIME read:
    only segments and tombstones with seq <= as_of apply (-1 = the
    fresh-build state); raises if compaction already folded that
    history away."""
    from ..stages.tokenizer import token_lists

    out = Path(index_dir)
    m = json.loads((out / "manifest.json").read_text())
    nb = int(m["n_buckets"])
    norm = token_lists(pa.array(list(phrases), pa.string()))
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    phrase_terms = [[t for t in row if t] for row in norm.to_pylist()]

    tombs = _store(out).tombstones(as_of)
    cache: dict[str, tuple | None] = {}

    def load(t: str):
        if t not in cache:
            cache[t] = _load_term(out, nb, t, tombs, as_of=as_of)
        return cache[t]

    out_doc, out_pid, out_cnt = [], [], []
    for pid, words in enumerate(phrase_terms):
        if not words:
            continue
        posts = [load(t) for t in words]
        if any(p is None for p in posts):
            continue
        common = posts[0][0]
        for p in posts[1:]:
            common = np.intersect1d(common, p[0], assume_unique=True)
        if common.size == 0:
            continue
        offsets = [np.cumsum(p[1]) - p[1] for p in posts]
        for d in common.tolist():
            # positions of each word inside doc d (sorted)
            plists = []
            for (docs, cnts, flat), offs in zip(posts, offsets):
                j = int(np.searchsorted(docs, d))
                o = int(offs[j])
                plists.append(flat[o : o + int(cnts[j])])
            starts = plists[0]
            for k, pl in enumerate(plists[1:], start=1):
                if starts.size == 0:
                    break
                idx = np.searchsorted(pl, starts + k)
                ok = (idx < pl.size) & (pl[np.minimum(idx, pl.size - 1)] == starts + k)
                starts = starts[ok]
            if starts.size:
                out_doc.append(d)
                out_pid.append(pid)
                out_cnt.append(int(starts.size))
    return pa.table(
        {
            "doc_id": pa.array(out_doc, pa.int64()),
            "phrase_id": pa.array(out_pid, pa.int32()),
            "n_occurrences": pa.array(out_cnt, pa.int64()),
        }
    )


def proximity_search(
    index_dir: str, term_a: str, term_b: str, window: int
) -> pa.Table:
    """→ (doc_id, n_pairs): per document, the number of ordered position
    pairs where ``term_b`` occurs within ``window`` tokens AFTER
    ``term_a`` (0 < pos_b − pos_a ≤ window) — the proximity/slop query
    of a fulltext engine (phrase matching with tolerance), served from
    the positional index with two filtered posting-row reads.

    Pair counting is two ``np.searchsorted`` calls per doc over the
    sorted position arrays (no pair materialization); SQL mirrors it
    with a position self-join on a BETWEEN predicate. Terms normalize
    through the document tokenizer (like phrase/NEAR search), so
    'Merge' finds the indexed 'merge'; a term that normalizes to
    anything but exactly one token returns empty."""
    from ..stages.tokenizer import token_lists

    out = Path(index_dir)
    m = json.loads((out / "manifest.json").read_text())
    nb = int(m["n_buckets"])
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "n_pairs": pa.array([], pa.int64())}
    )
    norm = token_lists(pa.array([term_a, term_b], pa.string()))
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    normed = [[t for t in row if t] for row in norm.to_pylist()]
    if len(normed[0]) != 1 or len(normed[1]) != 1:
        return empty
    term_a, term_b = normed[0][0], normed[1][0]
    tombs = _store(out).tombstones()
    pa_post = _load_term(out, nb, term_a, tombs)
    pb_post = _load_term(out, nb, term_b, tombs)
    if pa_post is None or pb_post is None or window < 1:
        return empty
    docs_a, cnts_a, flat_a = pa_post
    docs_b, cnts_b, flat_b = pb_post
    common = np.intersect1d(docs_a, docs_b, assume_unique=True)
    if common.size == 0:
        return empty
    offs_a = np.cumsum(cnts_a) - cnts_a
    offs_b = np.cumsum(cnts_b) - cnts_b
    out_doc, out_cnt = [], []
    for d in common.tolist():
        ja = int(np.searchsorted(docs_a, d))
        jb = int(np.searchsorted(docs_b, d))
        positions_a = flat_a[offs_a[ja] : offs_a[ja] + int(cnts_a[ja])]
        positions_b = flat_b[offs_b[jb] : offs_b[jb] + int(cnts_b[jb])]
        hi = np.searchsorted(positions_b, positions_a + window, side="right")
        lo = np.searchsorted(positions_b, positions_a, side="right")
        n = int((hi - lo).sum())
        if n:
            out_doc.append(d)
            out_cnt.append(n)
    return pa.table(
        {
            "doc_id": pa.array(out_doc, pa.int64()),
            "n_pairs": pa.array(out_cnt, pa.int64()),
        }
    )


def near_search(
    index_dir: str, terms: list[str], window: int
) -> pa.Table:
    """→ (doc_id, n_anchors): multi-term NEAR query — for each document
    containing ALL the terms, the number of occurrences of ``terms[0]``
    (anchors) such that EVERY other term occurs within ±``window``
    tokens of the anchor. The unordered-proximity retrieval primitive
    ("these words appear together"), served from one filtered
    posting-row read per term.

    Existence checks are two ``np.searchsorted`` calls per (anchor
    array, term) — vectorized over all anchors of a doc at once; SQL
    mirrors each with an EXISTS … BETWEEN subquery."""
    from ..stages.tokenizer import token_lists

    out = Path(index_dir)
    m = json.loads((out / "manifest.json").read_text())
    nb = int(m["n_buckets"])
    norm = token_lists(pa.array(list(terms), pa.string()))
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    flat_terms = [t for row in norm.to_pylist() for t in row if t]
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "n_anchors": pa.array([], pa.int64())}
    )
    if not flat_terms or window < 0:
        return empty
    tombs = _store(out).tombstones()
    posts = [_load_term(out, nb, t, tombs) for t in flat_terms]
    if any(p is None for p in posts):
        return empty
    common = posts[0][0]
    for p in posts[1:]:
        common = np.intersect1d(common, p[0], assume_unique=True)
    if common.size == 0:
        return empty
    offsets = [np.cumsum(p[1]) - p[1] for p in posts]
    out_doc, out_cnt = [], []
    for d in common.tolist():
        plists = []
        for (docs, cnts, flat), offs in zip(posts, offsets):
            j = int(np.searchsorted(docs, d))
            o = int(offs[j])
            plists.append(flat[o : o + int(cnts[j])])
        anchors = plists[0]
        ok = np.ones(anchors.size, dtype=bool)
        for q in plists[1:]:
            if not ok.any():
                break
            hi = np.searchsorted(q, anchors + window, side="right")
            lo = np.searchsorted(q, anchors - window, side="left")
            ok &= hi > lo
        n = int(ok.sum())
        if n:
            out_doc.append(d)
            out_cnt.append(n)
    return pa.table(
        {
            "doc_id": pa.array(out_doc, pa.int64()),
            "n_anchors": pa.array(out_cnt, pa.int64()),
        }
    )


def _gather_segments(flat: np.ndarray, starts: np.ndarray, lens: np.ndarray):
    """Vectorized multi-slice gather: concatenate ``flat[s:s+l]`` for each
    (s, l) pair → (values, local segment index per value)."""
    total = int(lens.sum())
    if not total:
        return np.empty(0, flat.dtype), np.empty(0, np.int64)
    seg = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    base = np.cumsum(lens) - lens
    idx = np.arange(total, dtype=np.int64) - base[seg] + starts[seg]
    return flat[idx], seg


def _ordered_adjacency(post_a, post_b):
    """→ (doc_ids ascending, adjacency counts ≥1): per doc, how many
    positions p of term A have a position p+1 of term B — fully
    vectorized (no per-doc Python loop): restrict both position streams
    to the common docs, key them as local_doc·stride+pos (both streams
    stay sorted), and count searchsorted hits per doc via bincount."""
    docs_a, cnts_a, flat_a = post_a
    docs_b, cnts_b, flat_b = post_b
    common, ia, ib = np.intersect1d(
        docs_a, docs_b, assume_unique=True, return_indices=True
    )
    if not common.size:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    offs_a = np.cumsum(cnts_a) - cnts_a
    offs_b = np.cumsum(cnts_b) - cnts_b
    va, sa = _gather_segments(flat_a, offs_a[ia], cnts_a[ia])
    vb, sb = _gather_segments(flat_b, offs_b[ib], cnts_b[ib])
    stride = np.int64(max(int(va.max(initial=0)), int(vb.max(initial=0))) + 2)
    ka = sa * stride + va
    kb = sb * stride + vb
    idx = np.searchsorted(kb, ka + 1)
    hit = idx < kb.size
    hit[hit] = kb[idx[hit]] == ka[hit] + 1
    if not hit.any():
        return np.empty(0, np.int64), np.empty(0, np.int64)
    per_doc = np.bincount(sa[hit], minlength=len(common))
    nz = np.flatnonzero(per_doc)
    return common[nz], per_doc[nz].astype(np.int64)


def phrase_boost_topk(
    index_dir: str,
    query: str,
    n_docs: int,
    k: int = 10,
    boost: float = 0.5,
) -> pa.Table:
    """→ (doc_id, score) top-k: tf·idf disjunctive ranking with a PHRASE
    PROXIMITY BOOST — every ordered-adjacent occurrence of a consecutive
    query-term pair adds ``boost`` to the doc's score. The ranking shape
    modern engines use to promote docs matching the query AS A PHRASE
    over bag-of-words matches, served entirely from the positional
    index (tf/df from posting rows, adjacency from position streams —
    no corpus scan).

    idf = ln((n_docs + 1) / (df + 1)) with ``n_docs`` supplied by the
    caller's catalog (a Parquet row-count metadata lookup at any scale —
    the index itself stays append-only). Ties rank on the ROUNDED score
    then doc_id, so the ordering is float-noise-proof and the SQL mirror
    is exact. Reference relevance semantics: SearchServiceImpl.java's
    tf·idf sum; the boost is this rebuild's positional extension."""
    from ..stages.tokenizer import token_lists

    out = Path(index_dir)
    m = json.loads((out / "manifest.json").read_text())
    nb = int(m["n_buckets"])
    tombs = _store(out).tombstones()
    norm = token_lists(pa.array([query], pa.string()))
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    toks = [t for t in norm.to_pylist()[0] if t]
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
    )
    if not toks:
        return empty
    distinct = list(dict.fromkeys(toks))
    posts = {t: _load_term(out, nb, t, tombs) for t in distinct}
    # disjunctive tf·idf over the distinct query terms
    doc_parts, w_parts = [], []
    for t in distinct:
        p = posts[t]
        if p is None:
            continue
        docs, cnts, _ = p
        idf = float(np.log((n_docs + 1.0) / (len(docs) + 1.0)))
        doc_parts.append(docs)
        w_parts.append(cnts.astype(np.float64) * idf)
    if not doc_parts:
        return empty
    all_docs = np.concatenate(doc_parts)
    all_w = np.concatenate(w_parts)
    # adjacency boost per consecutive pair of the ORIGINAL token order
    for ta, tb in zip(toks, toks[1:]):
        pa_post, pb_post = posts[ta], posts[tb]
        if pa_post is None or pb_post is None:
            continue
        hit_docs, hit_cnt = _ordered_adjacency(pa_post, pb_post)
        if hit_docs.size:
            all_docs = np.concatenate([all_docs, hit_docs])
            all_w = np.concatenate(
                [all_w, hit_cnt.astype(np.float64) * float(boost)]
            )
    uniq, inv = np.unique(all_docs, return_inverse=True)
    scores = np.zeros(len(uniq), np.float64)
    np.add.at(scores, inv, all_w)
    rounded = np.round(scores, 6)
    order = np.lexsort((uniq, -rounded))[: max(int(k), 0)]
    return pa.table(
        {
            "doc_id": pa.array(uniq[order], pa.int64()),
            "score": pa.array(rounded[order], pa.float64()),
        }
    )


def sdm_bm25_topk(
    index_dir: str,
    query: str,
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
    lam_t: float = 0.8,
    lam_o: float = 0.4,
) -> pa.Table:
    """→ (doc_id, score) top-k under a sequential-dependence-model
    ranking (Metzler & Croft '05, public formulation): BM25-saturated
    unigram features weighted ``lam_t`` plus BM25-saturated ORDERED
    ADJACENCY features (one virtual term per consecutive query-term
    pair, tf = exact ordered-adjacent occurrence count, df = docs with
    ≥1 adjacency) weighted ``lam_o`` — the phrase-aware ranking a
    production engine layers over bag-of-words BM25, served entirely
    from the positional index.

    N, avgdl and per-doc dl come from the index's own doclen posting
    row (``DOCLEN_TERM``), so they stay exact across LSM appends and
    tombstone deletes with no side catalog. idf = ln((N+1)/(df+1)) —
    the repo's convention (reference SearchServiceImpl.java relevance
    shape). Ties rank on ROUND(score, 6) then doc_id so the SQL mirror
    is float-order-proof."""
    from ..stages.tokenizer import token_lists

    out = Path(index_dir)
    m = json.loads((out / "manifest.json").read_text())
    if not m.get("doclens"):
        raise ValueError("index predates doclen rows — rebuild required")
    nb = int(m["n_buckets"])
    tombs = _store(out).tombstones()
    dl_docs, dl_vals = _load_doclens(out, nb, tombs)
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
    )
    n_docs = int(dl_docs.size)
    if not n_docs:
        return empty
    avgdl = float(dl_vals.sum()) / n_docs
    norm = token_lists(pa.array([query], pa.string()))
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    toks = [t for t in norm.to_pylist()[0] if t]
    if not toks:
        return empty
    distinct = list(dict.fromkeys(toks))
    posts = {t: _load_term(out, nb, t, tombs) for t in distinct}

    def bm25_w(docs: np.ndarray, tf: np.ndarray, df: int) -> np.ndarray:
        # op order mirrors the SQL expression verbatim:
        # ln((N+1)/(df+1)) * (tf*(k1+1)) / (tf + k1*((1-b) + b*(dl/avgdl)))
        dl = dl_vals[np.searchsorted(dl_docs, docs)].astype(np.float64)
        tf = tf.astype(np.float64)
        idf = float(np.log((n_docs + 1.0) / (df + 1.0)))
        return idf * (tf * (k1 + 1.0)) / (tf + k1 * ((1.0 - b) + b * (dl / avgdl)))

    doc_parts, w_parts = [], []
    for t in distinct:
        p = posts[t]
        if p is None:
            continue
        docs, cnts, _ = p
        doc_parts.append(docs)
        w_parts.append(lam_t * bm25_w(docs, cnts, len(docs)))
    for ta, tb in zip(toks, toks[1:]):
        pa_post, pb_post = posts[ta], posts[tb]
        if pa_post is None or pb_post is None:
            continue
        o_docs, o_tf = _ordered_adjacency(pa_post, pb_post)
        if o_docs.size:
            doc_parts.append(o_docs)
            w_parts.append(lam_o * bm25_w(o_docs, o_tf, int(o_docs.size)))
    if not doc_parts:
        return empty
    all_docs = np.concatenate(doc_parts)
    all_w = np.concatenate(w_parts)
    uniq, inv = np.unique(all_docs, return_inverse=True)
    scores = np.zeros(len(uniq), np.float64)
    np.add.at(scores, inv, all_w)
    rounded = np.round(scores, 6)
    order = np.lexsort((uniq, -rounded))[: max(int(k), 0)]
    return pa.table(
        {
            "doc_id": pa.array(uniq[order], pa.int64()),
            "score": pa.array(rounded[order], pa.float64()),
        }
    )


def _explode_positions(documents: rd.Dataset, n_buckets: int) -> rd.Dataset:
    """Shared tokenize-with-positions stage of build and append."""

    def explode(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import flat_nonempty_tokens

        toks, parents, counts = flat_nonempty_tokens(batch.column("text"))
        # doc-length rows: one reserved posting entry per doc (even
        # zero-token docs) whose single "position" is the token count —
        # rides the same bucket exchange / LSM segments as real terms
        n = len(batch)
        dl_rows = pa.table(
            {
                "bucket": pa.array(np.full(n, n_buckets, dtype=np.int32)),
                "term": pa.array([DOCLEN_TERM] * n, pa.string()),
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "positions": pa.ListArray.from_arrays(
                    pa.array(np.arange(n + 1, dtype=np.int32)),
                    pa.array(counts.astype(np.int64), pa.int64()),
                ),
            }
        )
        if not len(toks):
            return dl_rows
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        starts = np.cumsum(counts) - counts
        pos = np.arange(len(toks), dtype=np.int64) - starts[parents]
        denc = toks.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((pos, codes, parents))
        sp, sc, spos = parents[order], codes[order], pos[order]
        new_run = np.empty(len(sp), dtype=bool)
        new_run[0] = True
        np.not_equal(sp[1:], sp[:-1], out=new_run[1:])
        new_run[1:] |= sc[1:] != sc[:-1]
        run_starts = np.flatnonzero(new_run)
        run_lens = np.diff(np.append(run_starts, len(sp)))
        terms = denc.dictionary.take(pa.array(sc[run_starts]))
        bucket = (md5_u64(terms.to_pylist()) % np.uint64(n_buckets)).astype(np.int32)
        offsets = np.zeros(len(run_starts) + 1, dtype=np.int32)
        np.cumsum(run_lens, out=offsets[1:])
        positions = pa.ListArray.from_arrays(
            pa.array(offsets), pa.array(spos, pa.int64())
        )
        term_rows = pa.table(
            {
                "bucket": pa.array(bucket),
                "term": terms.cast(pa.string())
                if terms.type != pa.string()
                else terms,
                "doc_id": pa.array(doc_ids[sp[run_starts]], pa.int64()),
                "positions": positions,
            }
        )
        return pa.concat_tables([term_rows, dl_rows.cast(term_rows.schema)])

    return documents.select_columns(["doc_id", "text"]).map_batches(
        explode, batch_format="pyarrow"
    )


def _encode_bucket_rows(b: int, group: pd.DataFrame) -> pa.Table:
    """(term, doc_id, positions) rows of ONE bucket → POS_SCHEMA table."""
    rows: dict[str, list] = {n: [] for n in POS_SCHEMA.names}
    for term, g in group.groupby("term", sort=True):
        g = g.sort_values("doc_id", kind="mergesort")
        docs = g["doc_id"].to_numpy(np.int64)
        plists = g["positions"].tolist()
        cnts = np.array([len(p) for p in plists], np.int64)
        flat = np.concatenate([np.asarray(p, np.int64) for p in plists])
        offs = np.cumsum(cnts) - cnts
        deltas = np.diff(flat, prepend=0)
        deltas[offs] = flat[offs]
        gaps = np.diff(docs.astype(np.uint64), prepend=np.uint64(0))
        rows["bucket"].append(b)
        rows["term"].append(term)
        rows["df"].append(int(len(docs)))
        rows["cf"].append(int(cnts.sum()))
        rows["doc_bytes"].append(varbyte_encode(gaps))
        rows["cnt_bytes"].append(varbyte_encode(cnts.astype(np.uint64)))
        rows["pos_bytes"].append(varbyte_encode(deltas.astype(np.uint64)))
    return pa.table({n: pa.array(rows[n], POS_SCHEMA.field(n).type) for n in POS_SCHEMA.names})


def _write_buckets(store: SegmentStore, documents: rd.Dataset, n_buckets: int, seq):
    """Tokenize → one term-bucket exchange → one encoded segment per
    touched bucket: its base (``seq`` None) or its delta at ``seq``."""

    def write_bucket(group: pd.DataFrame) -> pd.DataFrame:
        b = int(group["bucket"].iloc[0])
        tbl = _encode_bucket_rows(b, group)
        store.write(_key(b), tbl, seq)
        return pd.DataFrame({"bucket": [b], "n_terms": [len(tbl)]})

    parts = _explode_positions(documents, n_buckets)
    return parts.groupby("bucket").map_groups(write_bucket, batch_format="pandas").to_pandas()


def append_documents(
    index_dir: str, documents: rd.Dataset, input_token: str | None = None
) -> dict:
    """LSM-style micro-batch append: tokenize the NEW documents (doc ids
    must be new — the caller's versioning contract, as in the main
    engine's updater) and write one delta segment per touched bucket.
    Queries merge base + deltas per term at read time; ``compact``
    folds deltas into the base. Same-token re-appends are skipped."""
    out = Path(index_dir)
    nb = int(json.loads((out / "manifest.json").read_text())["n_buckets"])
    store = _store(out)

    def run() -> dict:
        seq = store.next_seq()
        rows = _write_buckets(store, documents, nb, seq)
        return {"seq": seq, "n_buckets_touched": int(len(rows)),
                "n_terms": int(rows["n_terms"].sum()) if len(rows) else 0}

    return store.once("append", input_token, run)


def delete_documents(
    index_dir: str, doc_ids, input_token: str | None = None
) -> dict:
    """LSM delete: one tombstone that kills the given doc ids in every
    segment written BEFORE it — a later ``append_documents`` may re-add
    an id and it stays live (the main engine's kill-map semantics,
    ``state/updater.py``). Queries filter at read time;
    ``compact_positional_index`` folds tombstones into the base files
    and removes them. Same-token re-deletes are skipped."""
    return _store(index_dir).delete(doc_ids, input_token)


def compact_positional_index(index_dir: str) -> dict:
    """Fold every delta segment and tombstone into the base bucket files
    (one Ray task per touched bucket — buckets are independent
    vocabulary shards; ``state/segments.py`` owns the lifecycle). Query
    results are identical before and after (tested); a re-run after an
    interruption converges."""
    store = _store(index_dir)

    def fold(key: str, segs, tombs) -> pa.Table:
        rows = _merge_bucket(store, segs, tombs)
        return _encode_bucket_rows(int(key.split("=")[1]), rows.to_pandas())

    counts = store.compact(fold)
    if not counts:
        return {"n_buckets_compacted": 0}
    return {"n_buckets_compacted": len(counts), "n_terms": int(sum(counts.values()))}


def _decode_row(row: dict):
    """One POS_SCHEMA row → (docs, cnts, flat positions)."""
    df = int(row["df"])
    docs = np.cumsum(varbyte_decode(row["doc_bytes"], count=df).astype(np.int64))
    cnts = varbyte_decode(row["cnt_bytes"], count=df).astype(np.int64)
    deltas = varbyte_decode(row["pos_bytes"], count=int(cnts.sum())).astype(np.int64)
    offs = np.cumsum(cnts) - cnts
    flat = np.cumsum(deltas)
    base = np.zeros(len(deltas), dtype=np.int64)
    if df > 1:
        base[offs[1:]] = flat[offs[1:] - 1]
    flat = flat - np.maximum.accumulate(base)
    return docs, cnts, flat


_CHAMPION_SCHEMA = pa.schema(
    [("term", pa.string()), ("doc_id", pa.int64()),
     ("tf", pa.int64()), ("rank", pa.int64())]
)


def champion_lists(index_dir: str, k: int = 5) -> rd.Dataset:
    """→ Dataset (term, doc_id, tf, rank): the ``k`` highest-tf docs per
    term (ties on doc_id asc) — impact-ordered "champion lists"
    (Manning/Raghavan/Schütze IIR §7.1.3), the classic index-side
    pre-selection that lets top-k serving touch k docs instead of df.

    Runs as ONE distributed map over the index's own buckets — the
    corpus is never read and nothing term-shaped shuffles: the index IS
    already term-partitioned, and a term lives in exactly one bucket, so
    each bucket task merges its base + delta rows per term (the same
    merge compaction runs, tombstones applied per segment seq) and
    gives the answer a compaction-then-scan would."""
    out = Path(index_dir)
    nb = int(json.loads((out / "manifest.json").read_text())["n_buckets"])
    store = _store(out)

    def bucket_topk(batch: pa.Table) -> pa.Table:
        tables = []
        for b in batch.column("bucket").to_pylist():
            rows = _merge_bucket(store, store.segments(_key(b)), store.tombstones())
            if rows is None or not len(rows):
                continue
            terms = rows.column("term").combine_chunks()
            # rows are term-sorted, so first-seen codes ascend with the term
            codes = terms.dictionary_encode().indices.to_numpy(zero_copy_only=False)
            docs = rows.column("doc_id").to_numpy()
            tfs = pc.list_value_length(rows.column("positions")).to_numpy().astype(np.int64)
            order = np.lexsort((docs, -tfs, codes))
            sc = codes[order]
            rank = np.arange(len(sc)) - np.searchsorted(sc, sc, side="left") + 1
            sel = order[rank <= k]
            tables.append(
                pa.table(
                    {
                        "term": terms.take(pa.array(sel)),
                        "doc_id": pa.array(docs[sel], pa.int64()),
                        "tf": pa.array(tfs[sel], pa.int64()),
                        "rank": pa.array(rank[rank <= k], pa.int64()),
                    },
                    schema=_CHAMPION_SCHEMA,
                )
            )
        return pa.concat_tables(tables) if tables else _CHAMPION_SCHEMA.empty_table()

    return rd.from_items([{"bucket": b} for b in range(nb)]).map_batches(
        bucket_topk, batch_size=1, batch_format="pyarrow"
    )


def champion_topk(
    index_dir: str, query: str, k: int = 10, champion_k: int = 3
) -> pa.Table:
    """→ (doc_id, score) top-k tf·idf where each query term contributes
    ONLY its champion-list docs (its ``champion_k`` highest-tf postings,
    ties doc_id asc) — champion-list SERVING (IIR §7.1.3): top-k cost
    touches |q|·champion_k postings instead of Σ df. idf stays the FULL
    ln((N+1)/(df+1)) (the approximation prunes candidates, not
    statistics); N is the live doc count from the doclen row, so the
    ranking is exact under LSM appends and tombstone deletes."""
    from ..stages.tokenizer import token_lists

    out = Path(index_dir)
    m = json.loads((out / "manifest.json").read_text())
    if not m.get("doclens"):
        raise ValueError("index predates doclen rows — rebuild required")
    nb = int(m["n_buckets"])
    tombs = _store(out).tombstones()
    dl_docs, _dl_vals = _load_doclens(out, nb, tombs)
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
    )
    n_docs = int(dl_docs.size)
    if not n_docs:
        return empty
    norm = token_lists(pa.array([query], pa.string()))
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    toks = [t for t in norm.to_pylist()[0] if t]
    if not toks:
        return empty
    doc_parts, w_parts = [], []
    for t in dict.fromkeys(toks):
        p = _load_term(out, nb, t, tombs)
        if p is None:
            continue
        docs, cnts, _ = p
        idf = float(np.log((n_docs + 1.0) / (len(docs) + 1.0)))
        order = np.lexsort((docs, -cnts))[: max(int(champion_k), 0)]
        doc_parts.append(docs[order])
        w_parts.append(cnts[order].astype(np.float64) * idf)
    if not doc_parts:
        return empty
    all_docs = np.concatenate(doc_parts)
    all_w = np.concatenate(w_parts)
    uniq, inv = np.unique(all_docs, return_inverse=True)
    scores = np.zeros(len(uniq), np.float64)
    np.add.at(scores, inv, all_w)
    rounded = np.round(scores, 6)
    order = np.lexsort((uniq, -rounded))[: max(int(k), 0)]
    return pa.table(
        {
            "doc_id": pa.array(uniq[order], pa.int64()),
            "score": pa.array(rounded[order], pa.float64()),
        }
    )


def segment_stats(index_dir: str) -> pa.Table:
    """→ (bucket, n_rows, n_terms, sum_df, sum_cf) over the positional
    index's segment files — the index-introspection surface (Lucene's
    segment browser): physical layout statistics read straight from the
    segment METADATA columns (term, df, cf); posting bytes are never
    decoded. Because the posting bucket is md5_u64(term) % n_buckets ==
    DuckDB ``md5_number_lower(term) % n`` (hashing.py:57), a SQL oracle
    can recompute the SAME partitioning from the raw corpus and verify
    the physical layout end to end.

    Counts cover base AND delta segment rows (n_rows > n_terms once LSM
    appends add per-term delta rows); the reserved doc-length rows
    (term == DOCLEN_TERM, bucket == n_buckets) are excluded. One
    streamed Dataset read + per-batch Arrow group_by partials; both
    exchanges are bucket- or vocabulary-sized."""
    import ray.data as rd

    files = sorted(str(f) for f in Path(index_dir).glob("bucket=*.parquet"))
    empty = pa.table(
        {
            "bucket": pa.array([], pa.int64()),
            "n_rows": pa.array([], pa.int64()),
            "n_terms": pa.array([], pa.int64()),
            "sum_df": pa.array([], pa.int64()),
            "sum_cf": pa.array([], pa.int64()),
        }
    )
    if not files:
        return empty
    ds = rd.read_parquet(files, columns=["bucket", "term", "df", "cf"])

    def partials(t: pa.Table) -> pa.Table:
        t = t.filter(pc.not_equal(t["term"], DOCLEN_TERM))
        g = t.group_by(["bucket", "term"]).aggregate(
            [("df", "sum"), ("cf", "sum"), ([], "count_all")]
        )
        return pa.table(
            {
                "bucket": pc.cast(g["bucket"], pa.int64()),
                "term": g["term"],
                "n_rows": pc.cast(g["count_all"], pa.int64()),
                "sum_df": pc.cast(g["df_sum"], pa.int64()),
                "sum_cf": pc.cast(g["cf_sum"], pa.int64()),
            }
        )

    per_term = (
        ds.map_batches(partials, batch_format="pyarrow")
        .groupby(["bucket", "term"])
        .sum(["n_rows", "sum_df", "sum_cf"])
    )

    def finish(t: pa.Table) -> pa.Table:
        g = t.group_by(["bucket"]).aggregate(
            [
                ("sum(n_rows)", "sum"),
                ("sum(sum_df)", "sum"),
                ("sum(sum_cf)", "sum"),
                ([], "count_all"),
            ]
        )
        return pa.table(
            {
                "bucket": pc.cast(g["bucket"], pa.int64()),
                "n_rows": pc.cast(g["sum(n_rows)_sum"], pa.int64()),
                "n_terms": pc.cast(g["count_all"], pa.int64()),
                "sum_df": pc.cast(g["sum(sum_df)_sum"], pa.int64()),
                "sum_cf": pc.cast(g["sum(sum_cf)_sum"], pa.int64()),
            }
        )

    # vocabulary-sized: a term lives in ONE bucket, so the per-bucket
    # reduce can run inside map_groups on the bucket-grouped rows
    out = per_term.groupby("bucket").map_groups(finish, batch_format="pyarrow")
    tbl = pa.Table.from_pandas(out.to_pandas(), preserve_index=False)  # 8 rows
    return tbl.cast(empty.schema) if tbl.num_rows else empty
