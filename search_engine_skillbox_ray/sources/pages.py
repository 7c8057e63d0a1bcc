"""Sources + corpus prep: Common-Crawl-style pages → deduped docs table.

Replaces the reference's live crawl (S1/S2, /root/reference/src/main/java/
searchengine/utils/PageIndexingUtils.java:35-40 and service/
IndexingServiceImpl.java:287-320) with a Parquet source per BASELINE.json
``input_hint``: ``pages(url, warc_ts, html:binary, text, lang)``.

Prep pipeline (all streaming, no full materialization):

1. ``PreparePages`` map_batches: normalize url (M4), site_id by root
   prefix (broadcast tiny site list — J1-style lookup, no shuffle),
   path (M5), extract text from ``html`` (M1) — extraction happens
   BEFORE the dedup shuffle so the exchange carries extracted text,
   not raw HTML (5-10× smaller payload);
2. keep-latest dedup on ``(site_id, path)`` by ``warc_ts`` — D1/D2
   semantics (model/PageEntity.java:8-9 unique constraint +
   utils/PageIndexingUtils.java:46-55 upsert; visited-set D2 at
   service/IndexingServiceImpl.java:288-292). Hash-shuffle groupby
   replaces the in-memory visited set; ties broken (warc_ts desc,
   url asc) for determinism;
3. docID assignment + doc_len (token count). docIDs are DENSE
   (sorted distinct normalized urls → 0..N-1) at ANY scale — dense ids
   shrink posting delta gaps to ~log2(N/df) bits (vs ~45+ for 63-bit
   hash ids, ~3 varbyte bytes per posting) and speed decode
   proportionally. Below the driver fast-path threshold the sorted url
   array is broadcast and resolved per batch with ``pc.index_in``;
   above it ``build_dense_id_map`` computes the same ranks distributed
   (key-only shuffle + per-block offsets, driver holds one int per
   block) and ``Dataset.join`` hash-joins them onto the stream —
   byte-identical segments either way (tested). The deterministic
   url-hash scheme remains as an opt-in (``dense_ids_distributed=
   False``) when the extra join exchange is unwanted.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from ..functions.extract import extract_text
from ..functions.urls import normalize_url
from ..stages.tokenizer import assign_doc_ids, token_counts

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("site_id", pa.int32()),
        ("url", pa.string()),
        ("path", pa.string()),
        ("text", pa.string()),
        ("doc_len", pa.int32()),
        ("lang", pa.string()),
    ]
)


def read_pages(path: str, columns: list[str] | None = None, fmt: str = "parquet") -> rd.Dataset:
    """Read the pages corpus; Parquet (column-pruned) is the primary
    format per BASELINE input_hint, JSONL/CSV accepted for interop
    (their readers cannot prune columns — project after the read)."""
    if fmt == "parquet":
        return rd.read_parquet(path, columns=columns)
    if fmt in ("json", "jsonl"):
        ds = rd.read_json(path)
    elif fmt == "csv":
        ds = rd.read_csv(path)
    else:
        raise ValueError(f"unsupported pages format: {fmt}")
    return ds.select_columns(columns) if columns else ds


def derive_sites(pages: rd.Dataset) -> list[dict]:
    """Derive the site dimension from page urls: one site per scheme://host
    (www-stripped). Small result — stand-in for the reference's YAML site
    config (S2, application.yml:11-16)."""
    import pyarrow.compute as pc

    def roots(batch: pa.Table) -> pa.Table:
        vals = {(_root_of(u)) for u in batch.column("url").to_pylist() if u}
        return pa.table({"root": pa.array(sorted(vals), type=pa.string())})

    uniq = sorted(pages.select_columns(["url"]).map_batches(roots, batch_format="pyarrow").unique("root"))
    from ..functions.urls import extract_site_name

    return [
        {"site_id": i, "url": r, "name": extract_site_name(r)} for i, r in enumerate(uniq)
    ]


def _root_of(url: str) -> str:
    u = normalize_url(url)
    for scheme in ("http://", "https://"):
        if u.startswith(scheme):
            rest = u[len(scheme):]
            return scheme + rest.split("/", 1)[0]
    return u.split("/", 1)[0]


def match_site_prefixes(
    url_arr: pa.Array, norm_roots: list[tuple[int, str]]
) -> tuple[np.ndarray, np.ndarray]:
    """→ (site_ids:int32, matched-root length:int32) — the FIRST root in
    list order that string-prefixes each url (the reference's url-prefix
    match, IndexingServiceImpl.java:183-195). One Arrow ``starts_with``
    C-kernel pass per root over the whole batch (early exit once all
    urls are assigned) replaces the per-url Python loop with its
    O(sites) inner scan — the build's hottest Python loop at a
    multi-thousand-root corpus."""
    import pyarrow.compute as pc

    n = len(url_arr)
    ids = np.full(n, -1, dtype=np.int32)
    root_len = np.zeros(n, dtype=np.int32)
    unassigned = np.ones(n, dtype=bool)
    for sid, root in norm_roots:
        if not unassigned.any():
            break
        m = pc.starts_with(url_arr, pattern=root).to_numpy(zero_copy_only=False)
        take = m & unassigned
        if take.any():
            ids[take] = sid
            root_len[take] = len(root)
            unassigned[take] = False
    return ids, root_len


def _paths_from_roots(urls: list[str], root_len: np.ndarray) -> list[str]:
    """Matched rows keep the suffix after the root ('/' when empty);
    unmatched rows (root_len 0) keep the whole url — same contract as
    the old per-url scan."""
    return [
        (u[k:] or "/") if k else u for u, k in zip(urls, root_len.tolist())
    ]


class PreparePages:
    """Stage 1 of corpus prep (see module docstring) — a STATELESS task
    stage (SURVEY §7.2 maps M1 extraction to tasks, not actors): the
    instance carries only the tiny site list, pickled per task; elastic
    task scheduling lets extraction share CPUs with the tokenizer actor
    pool inside the fused build job instead of deadlocking on pool
    reservations."""

    def __init__(self, sites_ref, html_col: str = "html", use_text_col: bool = False) -> None:
        sites = ray.get(sites_ref) if not isinstance(sites_ref, list) else sites_ref
        self.site_urls = [normalize_url(s["url"]) for s in sites]
        self.site_ids = [int(s["site_id"]) for s in sites]
        self.html_col = html_col
        self.use_text_col = use_text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = [normalize_url(u) for u in batch.column("url").to_pylist()]
        site_ids, root_len = match_site_prefixes(
            pa.array(urls, pa.string()),
            list(zip(self.site_ids, self.site_urls)),
        )
        paths = _paths_from_roots(urls, root_len)

        if self.use_text_col and "text" in batch.column_names:
            texts = batch.column("text").to_pylist()
        else:
            texts = [extract_text(h) if h is not None else "" for h in batch.column(self.html_col).to_pylist()]

        cols: dict[str, pa.Array] = {
            "url": pa.array(urls, type=pa.string()),
            "site_id": pa.array(site_ids, type=pa.int32()),
            "path": pa.array(paths, type=pa.string()),
            "text": pa.array(texts, type=pa.string()),
        }
        for extra in ("warc_ts", "lang"):
            if extra in batch.column_names:
                cols[extra] = batch.column(extra)
        return pa.table(cols)


def _keep_latest_bucket(bucket: "pd.DataFrame") -> "pd.DataFrame":
    """Vectorized keep-latest over a whole hash bucket of (site, path)
    keys: sort (warc_ts desc, url asc, content-fp desc) then
    drop_duplicates keeps EXACTLY ONE winner per key — the content
    fingerprint breaks exact (ts, url) ties deterministically (the
    reference's upsert also keeps a single row per key,
    model/PageEntity.java:8-9)."""
    import hashlib

    b = bucket.copy()
    b["__fp"] = [
        hashlib.md5((t or "").encode("utf-8")).hexdigest() for t in b["text"]
    ] if "text" in b.columns else ""
    by = (["warc_ts"] if "warc_ts" in b.columns else []) + ["url", "__fp"]
    asc = ([False] if "warc_ts" in b.columns else []) + [True, False]
    return (
        b.sort_values(by, ascending=asc, kind="mergesort")
        .drop_duplicates(["site_id", "path"], keep="first")
        .drop(columns="__fp")
    )



def _keys_table(batch: pa.Table, norm_roots: list[tuple[int, str]]) -> pa.Table:
    """(site_id, path, url, raw_url, ts_us) key rows for the dedup
    prepass — shared by the Ray-Data and plain-pyarrow scanners."""
    urls = [normalize_url(u) for u in batch.column("url").to_pylist()]
    site_ids, root_len = match_site_prefixes(pa.array(urls, pa.string()), norm_roots)
    paths = _paths_from_roots(urls, root_len)
    out = {
        "site_id": pa.array(site_ids, pa.int32()),
        "path": pa.array(paths, pa.string()),
        "url": pa.array(urls, pa.string()),
        "raw_url": batch.column("url"),
    }
    if "warc_ts" in batch.column_names:
        out["ts_us"] = pa.compute.cast(batch.column("warc_ts"), pa.int64())
    else:
        out["ts_us"] = pa.array(np.zeros(len(urls), dtype=np.int64))
    return pa.table(out)


_W_COLS = ["site_id", "path", "ts_us", "url", "raw_url"]


def _dup_winners_frame(bucket: pd.DataFrame) -> pd.DataFrame:
    """One row per input row that EQUALS its conflicted key's winner
    tuple — usually one per key; >1 signals an exact-duplicate tie."""
    dup_mask = bucket.duplicated(["site_id", "path"], keep=False)
    dups = bucket[dup_mask]
    if not len(dups):
        # dtypes MUST match the non-empty branch — mismatched empty
        # frames force Ray into schema-re-inference slow paths
        return pd.DataFrame(
            {
                "site_id": np.array([], dtype=np.int32),
                "path": pd.Series([], dtype=object),
                "ts_us": np.array([], dtype=np.int64),
                "url": pd.Series([], dtype=object),
                "raw_url": pd.Series([], dtype=object),
            }
        )
    w = (
        dups.sort_values(["ts_us", "url"], ascending=[False, True], kind="mergesort")
        .drop_duplicates(["site_id", "path"], keep="first")[["site_id", "path", "ts_us", "url"]]
    )
    return dups.merge(w, on=["site_id", "path", "ts_us", "url"], how="inner")[_W_COLS]


def _collect_winners(winners_df: pd.DataFrame):
    winners: dict[tuple[int, str], tuple[int, str]] = {}
    tied: dict[tuple[int, str], list[str]] = {}
    for (sid, p), grp in winners_df.groupby(["site_id", "path"], sort=False):
        key = (int(sid), p)
        winners[key] = (int(grp["ts_us"].iloc[0]), grp["url"].iloc[0])
        if len(grp) > 1:
            tied[key] = sorted(set(grp["raw_url"]))
    return winners, tied


def compute_dup_winners_arrow(pages_path: str, sites: list[dict]):
    """Plain-pyarrow dedup/dense-id prepass over a Parquet directory —
    NO nested Ray Data job, so it can run inside a Ray task concurrently
    with the main stream without competing for executor slots (two
    concurrent Ray Data jobs with fixed actor pools can starve each
    other). Column-pruned (url, warc_ts); threaded file reads.
    → (winners, tied, sorted distinct normalized urls)."""
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.parquet as _pq

    files = sorted(Path(pages_path).glob("*.parquet"))
    have = _pq.read_schema(files[0]).names
    cols = [c for c in ("url", "warc_ts") if c in have]
    norm_roots = [(int(s["site_id"]), normalize_url(s["url"])) for s in sites]
    with ThreadPoolExecutor(max_workers=4) as ex:
        tables = list(ex.map(lambda f: _pq.read_table(f, columns=cols), files))
    keys = _keys_table(pa.concat_tables(tables), norm_roots)
    kdf = keys.to_pandas()
    urls = sorted(kdf["url"].unique())
    winners, tied = _collect_winners(_dup_winners_frame(kdf))
    return winners, tied, urls


def compute_dup_winners(
    pages: rd.Dataset | str, sites: list[dict], n_buckets: int = 64
) -> tuple[dict, dict, list[str] | None]:
    """Key-only dedup prepass: → (winners, tied, distinct_urls) where
    ``winners`` maps
    {(site_id, path): (winner_ts_us, winner_url)} for keys that appear
    MORE THAN ONCE, and ``tied`` maps the (rare) keys whose winner tuple
    itself occurs on MULTIPLE input rows (byte-equal url + warc_ts — an
    exact-duplicate crawl artifact) to the raw input urls of those rows,
    so the caller can resolve them to exactly one surviving row.
    ``distinct_urls`` is the sorted distinct NORMALIZED url list (for
    dense docID assignment) on the driver fast path, else None.

    Reads only (url, warc_ts) — column-pruned, no html/text ever enters
    this shuffle — and returns a driver-side winner map for just the
    conflicted keys, which the main extraction pass applies as a
    broadcast filter. This keeps the corpus-sized text stream entirely
    shuffle-free: the only all-to-all in docs prep moves a few bytes per
    page. Scale assumption (documented): conflicted keys are a small
    fraction of the corpus (true for crawl snapshots); if they were not,
    swap the exact map for a Bloom filter of dup keys + the grouped
    keep-latest path.
    """
    from ..stages.grouping import bucketed_group_apply

    if isinstance(pages, str):
        # explicit pruned read: Ray's select_columns does NOT push the
        # projection into the Parquet scan — columns= does
        import pyarrow.parquet as _pq

        have = _pq.read_schema(next(iter(sorted(Path(pages).glob("*.parquet"))))).names
        cols = [c for c in ("url", "warc_ts") if c in have]
        pages = rd.read_parquet(pages, columns=cols)
    norm_roots = [(int(s["site_id"]), normalize_url(s["url"])) for s in sites]

    keys = pages.map_batches(
        lambda b, _r=norm_roots: _keys_table(b, _r), batch_format="pyarrow"
    )

    # Driver fast path: the key table is tiny relative to the corpus
    # (~40 B/page); below the memory-scaled threshold (config.py),
    # collect it and find winners with one vectorized pandas pass — no
    # shuffle at all. The bucketed shuffle path below is the cluster
    # shape.
    from ..config import DRIVER_FASTPATH_ROWS

    n_rows_est = pages.count()
    if n_rows_est <= DRIVER_FASTPATH_ROWS:
        tables = [t for t in (ray.get(r) for r in keys.materialize().to_arrow_refs()) if len(t)]
        if not tables:
            return {}, {}, []
        kdf = pa.concat_tables(tables).to_pandas()
        urls = sorted(kdf["url"].unique())
        winners, tied = _collect_winners(_dup_winners_frame(kdf))
        return winners, tied, urls

    winners_ds = bucketed_group_apply(keys, ["site_id", "path"], _dup_winners_frame, n_buckets=n_buckets)
    wdf = pd.DataFrame(winners_ds.take_all())
    if not len(wdf):
        return {}, {}, None
    winners, tied = _collect_winners(wdf)
    return winners, tied, None


def apply_dup_filter(batch: pa.Table, winners: dict, drop_keys: frozenset = frozenset()) -> pa.Table:
    """Keep rows that are not conflicted, or ARE their key's winner.
    Keys in ``drop_keys`` (exact-duplicate ties, resolved to a single
    driver-injected row by ``prepare_docs``) are dropped entirely."""
    if not winners:
        return batch
    site_ids = batch.column("site_id").to_pylist()
    paths = batch.column("path").to_pylist()
    urls = batch.column("url").to_pylist()
    if "warc_ts" in batch.column_names:
        ts = pa.compute.cast(batch.column("warc_ts"), pa.int64()).to_pylist()
    else:
        ts = [0] * len(urls)
    keep = np.ones(len(urls), dtype=bool)
    for i, (sid, p) in enumerate(zip(site_ids, paths)):
        w = winners.get((sid, p))
        if w is not None and ((sid, p) in drop_keys or (ts[i], urls[i]) != w):
            keep[i] = False
    return batch.filter(pa.array(keep))


def resolve_tied_rows(
    pages_path: str,
    winners: dict,
    tied: dict,
    sites: list[dict],
    *,
    use_text_col: bool = False,
) -> pa.Table:
    """Targeted resolution of exact-duplicate ties: predicate-read ONLY
    the tied keys' raw urls from the source Parquet (row-group pruned —
    a few rows, never a corpus scan), prepare them, and keep exactly one
    row per key, deterministically (content-fingerprint tiebreak; tied
    instances are usually byte-identical, making any choice identical).
    Returns a prepared-schema table for ``prepare_docs`` to union in."""
    import hashlib

    import pyarrow.dataset as pads

    raw_urls = sorted({u for urls in tied.values() for u in urls})
    dset = pads.dataset(pages_path, format="parquet")
    tbl = dset.to_table(filter=pads.field("url").isin(raw_urls))
    prepared = PreparePages(sites, use_text_col=use_text_col)(tbl)
    sids = prepared.column("site_id").to_pylist()
    paths = prepared.column("path").to_pylist()
    urls = prepared.column("url").to_pylist()
    texts = prepared.column("text").to_pylist()
    if "warc_ts" in prepared.column_names:
        ts = pa.compute.cast(prepared.column("warc_ts"), pa.int64()).to_pylist()
    else:
        ts = [0] * len(urls)
    best: dict[tuple[int, str], tuple[str, int]] = {}  # key -> (fp, row_idx)
    for i, (sid, p) in enumerate(zip(sids, paths)):
        key = (int(sid), p)
        if key not in tied or winners.get(key) != (ts[i], urls[i]):
            continue
        fp = hashlib.md5((texts[i] or "").encode("utf-8")).hexdigest()
        if key not in best or fp > best[key][0]:
            best[key] = (fp, i)
    idx = sorted(i for _, i in best.values())
    return prepared.take(idx)


def finalize_docs(batch: pa.Table, id_map=None) -> pa.Table:
    """doc_id + doc_len; projects to DOCS_SCHEMA. ``id_map`` is the
    broadcast SORTED distinct-url Arrow array (dense id == position,
    resolved with the vectorized ``index_in`` kernel), a plain
    url→id dict, or the string ``"joined"`` (doc_id already present on
    the batch — the distributed hash-join path); None → deterministic
    url-hash fallback."""
    import pyarrow.compute as pc

    if isinstance(id_map, str) and id_map == "joined":
        doc_ids = pc.cast(batch.column("doc_id"), pa.int64())
        if doc_ids.null_count:
            # the distributed path joins LEFT OUTER so a doc row whose
            # url is absent from the id map fails LOUD here, exactly
            # like the broadcast fast path below — not silent data loss
            raise RuntimeError("url missing from the dense docID map — "
                               "prepass and stream disagree on normalization")
    elif isinstance(id_map, (pa.Array, pa.ChunkedArray)):
        idx = pc.index_in(batch.column("url"), value_set=id_map)
        if idx.null_count:
            raise RuntimeError("url missing from the dense docID map — "
                               "prepass and stream disagree on normalization")
        doc_ids = pc.cast(idx, pa.int64())
    elif id_map is not None:
        doc_ids = np.fromiter(
            (id_map[u] for u in batch.column("url").to_pylist()),
            dtype=np.int64, count=len(batch),
        )
    else:
        doc_ids = assign_doc_ids(batch.column("url"))
    doc_len = token_counts(batch.column("text"))
    lang = (
        batch.column("lang")
        if "lang" in batch.column_names
        else pa.array([""] * len(batch), type=pa.string())
    )
    if not isinstance(doc_ids, (pa.Array, pa.ChunkedArray)):
        doc_ids = pa.array(doc_ids, type=pa.int64())
    cols = {
        "doc_id": doc_ids,
        "site_id": batch.column("site_id"),
        "url": batch.column("url"),
        "path": batch.column("path"),
        "text": batch.column("text"),
        "doc_len": pa.array(doc_len, type=pa.int32()),
        "lang": lang,
    }
    # crawl time rides into the doc store when the input carried it
    # (input_hint warc_ts) — freshness priors (build.write_recency_priors)
    # derive from the index's own shards, no side channel to the source
    if "warc_ts" in batch.column_names:
        cols["ts_us"] = pa.compute.cast(batch.column("warc_ts"), pa.int64())
    return pa.table(cols)


@ray.remote(num_cpus=1, num_returns=2)
def _prepass_remote(pages_path: str, sites: list[dict]):
    """The dedup/dense-id prepass as a Ray task so it OVERLAPS the main
    stream job (its result is consumed lazily inside the filter and
    finalize stages): → ((winners, tied), sorted-url Arrow array).
    Plain-pyarrow scan — a nested Ray Data job here would contend with
    the main stream's fixed actor pool for executor slots."""
    winners, tied, urls = compute_dup_winners_arrow(pages_path, sites)
    return (winners, tied), pa.array(urls, pa.string())


def prepare_docs(
    pages: rd.Dataset,
    sites: list[dict],
    *,
    dedup: bool = True,
    use_text_col: bool = False,
    concurrency: int | tuple[int, int] = (1, 8),
    pages_path: str | None = None,
    drop_unmatched: bool = True,
    dense_ids: bool = True,
    meta_out: dict | None = None,
    async_prepass: bool = True,
    dense_ids_distributed: bool = True,
    join_partitions: int | None = None,
) -> rd.Dataset:
    """pages → docs Dataset (see module docstring). Lazy / streaming.

    Pass ``pages_path`` when the dataset came from Parquet: the dedup
    key prepass then re-reads ONLY (url, warc_ts) — a column-pruned
    scan — instead of decoding the html column a second time.

    Dense docIDs above the driver fast-path threshold take the
    DISTRIBUTED path (``dense_ids_distributed``): a sorted-rank id map
    built with one key-only shuffle (``build_dense_id_map``) hash-joined
    onto the docs stream (``Dataset.join``, ``join_partitions``
    exchange partitions). Ids are identical to the fast path's, at any
    corpus size; set ``dense_ids_distributed=False`` to fall back to
    63-bit url-hash ids instead (no join shuffle of the text stream)."""
    if dedup and dense_ids and pages_path and async_prepass:
        import pyarrow.parquet as _pq

        from ..config import DRIVER_FASTPATH_ROWS

        n_rows = sum(
            _pq.read_metadata(f).num_rows for f in sorted(Path(pages_path).glob("*.parquet"))
        )
        if n_rows <= DRIVER_FASTPATH_ROWS:
            return _prepare_docs_async(
                pages, sites, pages_path,
                use_text_col=use_text_col, drop_unmatched=drop_unmatched,
                meta_out=meta_out,
            )
    winners_ref = None
    injected: pa.Table | None = None
    grouped_fallback = False
    drop_keys: frozenset = frozenset()
    distinct_urls: list[str] | None = None
    if dedup:
        # key-only prepass (no text in the shuffle), then broadcast filter
        winners, tied, distinct_urls = compute_dup_winners(pages_path or pages, sites)
        if tied:
            if pages_path:
                # exact-duplicate (url, warc_ts) ties: resolve each to ONE
                # row via a targeted predicate read; the streamed instances
                # are all dropped and the resolved row is unioned in
                injected = resolve_tied_rows(
                    pages_path, winners, tied, sites, use_text_col=use_text_col
                )
                drop_keys = frozenset(tied)
            else:
                # no re-readable source → correctness fallback: grouped
                # keep-latest dedup (text enters this shuffle; ties are a
                # crawl artifact, so this path is rare)
                grouped_fallback = True
        winners_ref = ray.put(winners)
    if dense_ids and distinct_urls is None:
        distinct_urls = _collect_distinct_urls(pages_path or pages)
    id_map_ref = None
    id_map_ds = None
    if dense_ids and distinct_urls is None and dense_ids_distributed:
        # above the driver threshold: distributed sorted-rank id map,
        # hash-joined onto the stream below (cluster-scale dense ids)
        id_map_ds, n_urls = build_dense_id_map(pages_path or pages)
        if meta_out is not None:
            meta_out["doc_id_scheme"] = "dense"
            meta_out["next_doc_id"] = n_urls
            meta_out["dense_id_path"] = "distributed"
    if dense_ids and distinct_urls is not None:
        # broadcast the SORTED url array (zero-copy Arrow through the
        # object store); dense id == position — looked up per batch
        # with pc.index_in (C kernel), no python dict to unpickle
        id_map_ref = ray.put(pa.array(distinct_urls, pa.string()))
        if meta_out is not None:
            meta_out["doc_id_scheme"] = "dense"
            meta_out["next_doc_id"] = len(distinct_urls)
    elif meta_out is not None and id_map_ds is None:
        meta_out["doc_id_scheme"] = "hash"
    prep = PreparePages(sites, use_text_col=use_text_col)
    ds = pages.map_batches(prep, batch_format="pyarrow")
    if drop_unmatched:
        # reference crawler never indexes pages outside the configured
        # sites (IndexingServiceImpl.java:183-195 url-prefix match)
        import pyarrow.compute as _pc

        ds = ds.map_batches(
            lambda t: t.filter(_pc.greater_equal(t["site_id"], 0)),
            batch_format="pyarrow",
        )
    if dedup and grouped_fallback:
        from ..stages.grouping import bucketed_group_apply

        ds = bucketed_group_apply(ds, ["site_id", "path"], _keep_latest_bucket, n_buckets=64)
    elif dedup and winners_ref is not None:

        def filt(batch: pa.Table, _ref=[winners_ref], _drop=drop_keys) -> pa.Table:
            w = ray.get(_ref[0])
            return apply_dup_filter(batch, w, _drop)

        ds = ds.map_batches(filt, batch_format="pyarrow")
        if injected is not None and len(injected):
            if drop_unmatched:
                import pyarrow.compute as _pc2

                injected = injected.filter(_pc2.greater_equal(injected["site_id"], 0))
            ds = ds.union(rd.from_arrow(injected))
    if id_map_ref is not None:

        def fin(batch: pa.Table, _ref=[id_map_ref]) -> pa.Table:
            return finalize_docs(batch, ray.get(_ref[0]))

        return ds.map_batches(fin, batch_format="pyarrow")
    if id_map_ds is not None:
        # hash-partitioned exchange co-locating each doc row with its
        # (url, doc_id) map row — the one extra all-to-all that buys
        # 10× smaller posting segments above driver-map scale.
        # Aggregator sizing: Ray starts min(num_partitions, 64) shuffle
        # aggregator ACTORS up front; unsized they can demand more CPUs
        # than the cluster has and deadlock against the build's actor
        # pool, so cap partitions at the CPU count and the pool's total
        # reservation at ~half the cluster (callers override
        # join_partitions at real cluster scale).
        cpus = int(ray.cluster_resources().get("CPU", 8))
        n_part = join_partitions or max(2, min(64, cpus))
        agg_cpus = max(0.25, min(1.0, (cpus / 2) / n_part))
        # LEFT OUTER, not inner: an inner join would silently DROP a doc
        # row whose url is missing from the id map; finalize_docs raises
        # on the resulting null doc_id instead (fail-loud invariant of
        # the broadcast fast path preserved)
        joined = ds.join(
            id_map_ds, join_type="left_outer", num_partitions=n_part,
            on=("url",),
            aggregator_ray_remote_args={"num_cpus": agg_cpus},
        )
        return joined.map_batches(
            lambda b: finalize_docs(b, "joined"), batch_format="pyarrow"
        )
    return ds.map_batches(finalize_docs, batch_format="pyarrow")


def _prepare_docs_async(
    pages: rd.Dataset,
    sites: list[dict],
    pages_path: str,
    *,
    use_text_col: bool,
    drop_unmatched: bool,
    meta_out: dict | None,
) -> rd.Dataset:
    """prepare_docs with the prepass OVERLAPPED: the key scan runs as a
    Ray task while extraction streams; the filter / finalize stages
    block on its (tiny) result only when their first batch arrives —
    by which point it is long done. Exact-duplicate TIES are dropped
    in-stream and re-indexed post-build through the delta path
    (build_index_from_pages), so no graph surgery depends on the
    prepass outcome."""
    fut_small, fut_urls = _prepass_remote.remote(pages_path, sites)
    if meta_out is not None:
        meta_out["prepass_refs"] = (fut_small, fut_urls)

    prep = PreparePages(sites, use_text_col=use_text_col)
    ds = pages.map_batches(prep, batch_format="pyarrow")
    if drop_unmatched:
        import pyarrow.compute as _pc

        ds = ds.map_batches(
            lambda t: t.filter(_pc.greater_equal(t["site_id"], 0)),
            batch_format="pyarrow",
        )

    def filt(batch: pa.Table, _f=[fut_small]) -> pa.Table:
        winners, tied = ray.get(_f[0])
        return apply_dup_filter(batch, winners, frozenset(tied))

    def fin(batch: pa.Table, _f=[fut_urls]) -> pa.Table:
        return finalize_docs(batch, ray.get(_f[0]))

    return ds.map_batches(filt, batch_format="pyarrow").map_batches(
        fin, batch_format="pyarrow"
    )


def _collect_distinct_urls(pages: rd.Dataset | str) -> list[str] | None:
    """Sorted distinct normalized urls for dense docIDs — driver fast
    path only (None above the memory-scaled threshold → hash ids)."""
    from ..config import DRIVER_FASTPATH_ROWS

    if isinstance(pages, str):
        import pyarrow.parquet as _pq

        have = _pq.read_schema(next(iter(sorted(Path(pages).glob("*.parquet"))))).names
        pages = rd.read_parquet(pages, columns=[c for c in ("url",) if c in have])
    if pages.count() > DRIVER_FASTPATH_ROWS:
        return None

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table({"url": pa.array(
            sorted({normalize_url(u) for u in batch.column("url").to_pylist()}),
            pa.string())})

    out: set[str] = set()
    for ref in pages.map_batches(norm, batch_format="pyarrow").materialize().to_arrow_refs():
        out.update(ray.get(ref).column("url").to_pylist())
    return sorted(out)


@ray.remote(num_cpus=0.25)
def _block_nrows(tbl: pa.Table) -> int:
    return tbl.num_rows


@ray.remote(num_cpus=0.5)
def _assign_block_ranks(tbl: pa.Table, offset: int) -> pa.Table:
    """Rank block rows: doc_id = global offset + local position (the
    block arrives already sorted by url from the range shuffle)."""
    return pa.table(
        {
            "url": tbl.column("url"),
            "doc_id": pa.array(offset + np.arange(tbl.num_rows, dtype=np.int64)),
        }
    )


def build_dense_id_map(pages: rd.Dataset | str) -> tuple[rd.Dataset, int]:
    """Distributed dense docID assignment — the cluster-scale shape
    (no driver-resident url set, any corpus size):

    1. normalized-url keys (column-pruned read — ~40 B/page enters the
       exchange, never html/text);
    2. ``groupby(url).count()`` → distinct urls (one hash shuffle);
    3. ``sort(url)`` → range-partitioned blocks in global sorted order;
    4. the driver collects ONE row-count per block (ints, not urls),
       prefix-sums them into block offsets, and one Ray task per block
       assigns ``doc_id = offset + local position``.

    → ((url, doc_id) Dataset — hash-joinable against the docs stream —
    and the total distinct-url count). doc_ids are IDENTICAL to the
    driver fast path's sorted-rank ids, so segments built either way
    are byte-identical (tested)."""
    if isinstance(pages, str):
        import pyarrow.parquet as _pq

        have = _pq.read_schema(next(iter(sorted(Path(pages).glob("*.parquet"))))).names
        pages = rd.read_parquet(pages, columns=[c for c in ("url",) if c in have])

    def norm(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"url": pa.array(
                [normalize_url(u) for u in batch.column("url").to_pylist()],
                pa.string(),
            )}
        )

    distinct = (
        pages.map_batches(norm, batch_format="pyarrow")
        .groupby("url")
        .count()
        .sort("url")
    )
    refs = distinct.materialize().to_arrow_refs()
    lens = ray.get([_block_nrows.remote(r) for r in refs])
    total = int(sum(lens))
    if total == 0:
        empty = pa.table({"url": pa.array([], pa.string()), "doc_id": pa.array([], pa.int64())})
        return rd.from_arrow(empty), 0
    offsets = np.concatenate([[0], np.cumsum(lens)[:-1]])
    blocks = [
        _assign_block_ranks.remote(r, int(off))
        for r, off, n in zip(refs, offsets, lens)
        if n > 0
    ]
    return rd.from_arrow_refs(blocks), total


def docs_from_documents(documents: rd.Dataset, sources: list[str]) -> rd.Dataset:
    """Adapter: the driver's ``documents(doc_id, text, lang, source,
    n_chars)`` testdata table → docs schema. ``source`` plays the site
    role (sorted order defines site_id, deterministic)."""
    src_to_id = {s: i for i, s in enumerate(sorted(sources))}

    def conv(batch: pa.Table) -> pa.Table:
        srcs = batch.column("source").to_pylist()
        site_ids = np.fromiter((src_to_id[s] for s in srcs), dtype=np.int32, count=len(srcs))
        doc_ids = batch.column("doc_id")
        paths = pa.array([f"/doc/{d}" for d in doc_ids.to_pylist()], type=pa.string())
        urls = pa.array(
            [f"https://{s}.example/doc/{d}" for s, d in zip(srcs, doc_ids.to_pylist())],
            type=pa.string(),
        )
        return pa.table(
            {
                "doc_id": doc_ids,
                "site_id": pa.array(site_ids, type=pa.int32()),
                "url": urls,
                "path": paths,
                "text": batch.column("text"),
                "doc_len": pa.array(token_counts(batch.column("text")), type=pa.int32()),
                "lang": batch.column("lang"),
            }
        )

    return documents.map_batches(conv, batch_format="pyarrow")


def sites_for_sources(sources: list[str]) -> list[dict]:
    return [
        {"site_id": i, "url": f"https://{s}.example", "name": s.capitalize()}
        for i, s in enumerate(sorted(sources))
    ]
