"""Query engine: segment-backed TF-IDF / BM25 top-k retrieval (ST5).

Re-implements the reference search flow
(/root/reference/src/main/java/searchengine/service/SearchServiceImpl.java:25-71)
against immutable posting segments instead of 4 MySQL round-trips:

* query lemmas (M9, :73-79) → per-term segment lookup (bucket hash →
  Parquet predicate read, cached) replaces ``findPageLemmaTfByLemmas``
  (repository/IndexRepository.java:26-35);
* idf = ln((N+1)/(df+1)) (:129-137), score = Σ tf·idf accumulated in
  float64 and cast to float32 per page (:139-160, float cast :146) —
  exact parity math; ``scorer="bm25"`` generalizes with (k1, b), of
  which the reference formula is the k1→∞, b=0 degenerate case;
* retrieval is DISJUNCTIVE (OR) like the reference (any page containing
  ≥1 query lemma is scored, J4 note in SURVEY §2.4); ``mode="and"``
  adds conjunctive semantics via sorted-array intersection;
* sort: score desc; the reference's tie order is UNSPECIFIED (HashMap
  iteration feeding the sort, :51) — documented deviation: we break
  ties deterministically by (score desc, doc_id asc); rank parity is
  asserted up to tie groups;
* pagination (:162-166): from=max(0,offset), to=min(total,
  offset+max(1,limit)) — including the quirk that offset>total raised
  in ``subList`` and was swallowed by the catch-all into
  ``result:false`` (:68-70);
* decoration: hydrate top-k docs by docID (semi-join via the doc
  locator's targeted row-group reads — J1), title M10, uri M11, snippet M12 (snippet words
  prefer raw query tokens M8 over lemmas, :195-207), then the
  ``site=""`` response quirk (:61-65).

This is the single-query latency path — no Dataset job per query; batch
evaluation over query sets runs these calls inside ``map_batches``
(QueryActor pool below), which is how the engine serves at cluster scale:
each actor memory-maps/caches segment metadata once (``__init__``) and
answers many queries (``__call__``).
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..functions.snippets import extract_title, generate_snippet
from ..functions.tokenize import query_lemmas, query_tokens
from ..functions.urls import build_full_url, normalize_url
from ..stages.codec import decode_posting_list
from ..stages.tokenizer import term_bucket

# site row of a doc whose site_id is unknown to the index (never mutated)
_NO_SITE = {"url": "", "name": ""}


class SearchEngine:
    """Facade over one built index directory (SURVEY §2.11 API surface)."""

    def __init__(
        self,
        index_dir: str | Path,
        *,
        mode: str = "or",
        scorer: str = "tfidf",
        k1: float = 1.2,
        b: float = 0.75,
        strict_parity: bool = True,
        float32_scores: bool = True,
        docs_in_memory: bool = True,
        docs_shard: tuple[int, int] | None = None,
        prior_path: str | Path | None = None,
    ) -> None:
        self.index_dir = Path(index_dir)
        self.mode = mode
        self.scorer = scorer
        self.k1 = float(k1)
        self.b = float(b)
        self.strict_parity = strict_parity
        # float32_scores=True is the reference-parity float cast
        # (SearchServiceImpl.java:146); False keeps float64 for oracle-SQL
        # comparable outputs.
        self.float32_scores = float32_scores
        self.stats = json.loads((self.index_dir / "stats.json").read_text())
        self.n_buckets = int(self.stats["n_buckets"])
        self.sites = {int(s["site_id"]): s for s in self.stats["sites"]}
        self._site_by_url = {
            normalize_url(s["url"]): int(s["site_id"]) for s in self.stats["sites"]
        }
        # ST1 morphology: an index built with BuildConfig.lemma_model
        # carries its model artifact (lemma_model.json, copied in by
        # build_index) — load it once here so QUERY terms run through
        # the same surface-form → lemma map the postings were built with.
        self._lemmatizer = None
        _lm = self.index_dir / "lemma_model.json"
        if _lm.exists():
            from ..functions.lemmatize import DictLemmatizer

            self._lemmatizer = DictLemmatizer(_lm)
        self._term_cache: dict[str, list[dict]] = {}
        self._bucket_cache: dict[int, dict[str, list[dict]]] = {}
        # vocabulary caches for multi-term query rewrites (suffix/fuzzy):
        # built lazily from segment term columns ∪ delta terms — the same
        # union expand_prefix scans, amortized across expansions. The
        # reversed copy serves leading-wildcard (*suffix) lookups as a
        # binary-search range, Lucene's ReversedWildcardFilter trick.
        self._vocab_arr: np.ndarray | None = None
        self._rev_sorted: tuple[np.ndarray, np.ndarray] | None = None
        # cache whole decoded buckets (one parquet read amortized over all
        # its terms). At cluster scale each query actor caches only the
        # buckets it serves; bound with max_cached_buckets.
        self.cache_buckets = True
        self.max_cached_buckets = 4096
        self._decoded: dict[tuple[str, int | None], tuple[np.ndarray, np.ndarray, int]] = {}
        self._doclen: tuple[np.ndarray, np.ndarray] | None = None
        # static per-doc prior (the pagerank / freshness slot of web
        # ranking): a (doc_id, prior) Parquet file or directory; scores
        # multiply by prior post-retrieval, docs absent from the table
        # score prior 1.0. Loaded lazily like doc_len — at cluster scale
        # this is a doc-attribute array sharded with the doc store.
        self.prior_path = Path(prior_path) if prior_path is not None else None
        self._prior: tuple[np.ndarray, np.ndarray] | None = None
        self._docsite: tuple[np.ndarray, np.ndarray] | None = None
        self._docs_dataset = None
        self._docs_locator = None
        # bounded LRU of decoded doc row groups for the memory-light
        # hydration path: top-k hits cluster in few hot groups, so caching
        # them closes most of the 6× gap to the in-memory path while the
        # ceiling stays explicit in BYTES (default 128 MiB, env-pinnable)
        # rather than scaling with the corpus.
        self._rg_cache: OrderedDict[tuple[int, int], pa.Table] = OrderedDict()
        self._rg_cache_bytes = 0
        # guards _rg_cache, _rg_cache_bytes and the lazy _rg_pool:
        # concurrent search() on one engine is a supported use
        self._rg_lock = threading.Lock()
        # per-file parquet FOOTER METADATA cache (immutable, thread-safe)
        # + miss-read thread pool for the locator hydration path (see
        # _hydrate_located)
        self._pf_cache: dict[int, object] = {}
        self._rg_pool = None
        self.rg_cache_max_bytes = int(
            os.environ.get("SES_DOC_RG_CACHE_BYTES", 128 << 20)
        )
        # docs_in_memory=False → hydrate via the doc locator (targeted
        # row-group reads; memory-light serving, e.g. many pool actors)
        self.docs_in_memory = docs_in_memory
        # docs_shard=(k, n) → this engine hydrates only its share of the
        # base doc-store row groups (every n-th group of the sorted
        # shard list; locator IO/memory 1/n); a sharded QueryActorPool
        # fans hydration across actors so every base row has exactly one
        # owner. Implies the locator path: the in-memory doc store is
        # whole-corpus by construction.
        self.docs_shard = docs_shard
        if docs_shard is not None:
            k, n = docs_shard
            if not (0 <= k < n):
                raise ValueError(f"docs_shard {docs_shard}: need 0 <= k < n")
            self.docs_in_memory = False
        self._load_update_log()

    def __del__(self) -> None:  # release hydration threads on teardown
        pool = getattr(self, "_rg_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)

    def _load_update_log(self) -> None:
        """Tombstones + kill map + delta postings/docs from the update
        paths (state/updater.py: single-page ``index_page`` and
        micro-batch ``index_pages``). Deltas overlay the immutable base:
        base postings are filtered by tombstone; per-doc delta lists are
        always live; micro-batch SEGMENT lists (seq from filename) are
        filtered by the kill map (doc dead in seq s iff kill[doc] > s);
        delta doc rows shadow base rows at hydration, newest seq last."""
        from .manifest import read_json

        log = read_json(self.index_dir / "tombstones.json") or {}
        self._tombstones = np.array(sorted(log.get("doc_ids", [])), dtype=np.int64)
        self._kill: dict[int, int] = {
            int(k): int(v) for k, v in (log.get("kill") or {}).items()
        }
        self._dead_by_seq: dict[int, np.ndarray] = {}
        # values are (seq, row): seq=None → per-doc delta, always live
        self._delta_terms: dict[tuple[str, int], list[tuple[int | None, dict]]] = {}
        self._delta_docs: dict[int, dict] = {}
        dp = self.index_dir / "postings_delta"
        if dp.exists():
            for f in sorted(dp.glob("seg-*.parquet")):
                seq = int(f.name.split("-")[1])
                for row in pq.read_table(f).to_pylist():
                    self._delta_terms.setdefault(
                        (row["term"], int(row["site_id"])), []
                    ).append((seq, row))
            for f in sorted(dp.glob("doc-*.parquet")):
                for row in pq.read_table(f).to_pylist():
                    self._delta_terms.setdefault(
                        (row["term"], int(row["site_id"])), []
                    ).append((None, row))
        # seq-ascending then per-doc: newest version shadows older ones
        for f in sorted(self.index_dir.glob("docs/delta-seg-*.parquet")):
            for row in pq.read_table(f).to_pylist():
                self._delta_docs[int(row["doc_id"])] = row
        for f in sorted(self.index_dir.glob("docs/delta-[0-9]*.parquet")):
            for row in pq.read_table(f).to_pylist():
                self._delta_docs[int(row["doc_id"])] = row

    def _dead_docs_for_seq(self, seq: int) -> np.ndarray:
        """Sorted docIDs whose postings are dead in a delta segment of
        this sequence number (kill[doc] > seq)."""
        got = self._dead_by_seq.get(seq)
        if got is None:
            got = np.array(
                sorted(d for d, v in self._kill.items() if v > seq), np.int64
            )
            self._dead_by_seq[seq] = got
        return got

    def reload_updates(self) -> None:
        """Refresh tombstones/deltas after an IndexUpdater mutation.
        Base-segment caches drop too: ``compact()`` rewrites segment
        files in place, and delta doc rows invalidate the doc store."""
        self.stats = json.loads((self.index_dir / "stats.json").read_text())
        self._decoded.clear()
        self._doclen = None
        self._docs_dataset = None
        self._docs_locator = None
        with self._rg_lock:
            self._rg_cache.clear()
            self._rg_cache_bytes = 0
        self._pf_cache.clear()
        self._term_cache.clear()
        self._bucket_cache.clear()
        self._load_update_log()

    # ---------------- segment access ----------------------------------
    def _bucket_path(self, bucket: int) -> Path:
        return self.index_dir / "postings" / f"bucket={bucket:05d}.parquet"

    def _load_terms(self, terms: list[str]) -> None:
        missing = [t for t in terms if t not in self._term_cache]
        if not missing:
            return
        by_bucket: dict[int, list[str]] = {}
        for t, bkt in zip(missing, term_bucket(missing, self.n_buckets)):
            by_bucket.setdefault(int(bkt), []).append(t)
        for bkt, ts in by_bucket.items():
            if self.cache_buckets:
                if bkt not in self._bucket_cache:
                    if len(self._bucket_cache) >= self.max_cached_buckets:
                        self._bucket_cache.pop(next(iter(self._bucket_cache)))
                    bucket_rows: dict[str, list[dict]] = {}
                    path = self._bucket_path(bkt)
                    if path.exists():
                        for row in pq.read_table(path).to_pylist():
                            bucket_rows.setdefault(row["term"], []).append(row)
                    self._bucket_cache[bkt] = bucket_rows
                cached = self._bucket_cache[bkt]
                self._term_cache.update({t: cached.get(t, []) for t in ts})
            else:
                path = self._bucket_path(bkt)
                rows_by_term: dict[str, list[dict]] = {t: [] for t in ts}
                if path.exists():
                    tbl = pq.read_table(path, filters=[("term", "in", ts)])
                    for row in tbl.to_pylist():
                        rows_by_term[row["term"]].append(row)
                self._term_cache.update(rows_by_term)

    def term_postings(
        self, term: str, site_id: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """(doc_ids asc, tfs, df) for a term, optionally site-scoped.
        Global postings merge the per-site lists (docIDs are globally
        unique and sites partition the docs, so concat+sort is exact).
        Decoded lists are cached per (term, site)."""
        key = (term, site_id)
        if key in self._decoded:
            return self._decoded[key]
        self._load_terms([term])
        rows = self._term_cache.get(term, [])
        if site_id is not None:
            rows = [r for r in rows if int(r["site_id"]) == site_id]
        delta_rows: list[tuple[int | None, dict]] = []
        if self._delta_terms:
            if site_id is None:
                for (t_, _sid), rws in self._delta_terms.items():
                    if t_ == term:
                        delta_rows.extend(rws)
            else:
                delta_rows = self._delta_terms.get((term, site_id), [])
        if not rows and not delta_rows:
            out = (np.empty(0, np.int64), np.empty(0, np.int64), 0)
            self._decoded[key] = out
            return out
        parts = [decode_posting_list(r) for r in rows]
        if parts:
            d = np.concatenate([p[0] for p in parts]) if len(parts) > 1 else parts[0][0]
            t = np.concatenate([p[1] for p in parts]) if len(parts) > 1 else parts[0][1]
        else:
            d = np.empty(0, np.int64)
            t = np.empty(0, np.int64)
        if self._tombstones.size and d.size:
            keep = ~np.isin(d, self._tombstones)
            d, t = d[keep], t[keep]
        if delta_rows:
            dparts = []
            for seq, r in delta_rows:
                dd, tt = decode_posting_list(r)
                if seq is not None and self._kill and dd.size:
                    dead = self._dead_docs_for_seq(seq)
                    if dead.size:
                        keep_m = ~np.isin(dd, dead)
                        dd, tt = dd[keep_m], tt[keep_m]
                dparts.append((dd, tt))
            d = np.concatenate([d] + [p[0] for p in dparts])
            t = np.concatenate([t] + [p[1] for p in dparts])
        if len(parts) > 1 or delta_rows or (self._tombstones.size and rows):
            order = np.argsort(d, kind="stable")
            d, t = d[order], t[order]
        out = (d, t, int(d.size))
        self._decoded[key] = out
        return out

    # ---------------- scoring -----------------------------------------
    def _resolve_site(self, site: str | None) -> tuple[int | None, bool]:
        """→ (site_id, known). Unknown site behaves like an empty scope."""
        if site is None or not site.strip():
            return None, True
        sid = self._site_by_url.get(normalize_url(site))
        return sid, sid is not None

    def _total_pages(self, site_id: int | None, site_known: bool) -> int:
        if not site_known:
            return 0
        if site_id is None:
            return int(self.stats["n_docs_indexed"])
        ss = self.stats["site_stats"].get(str(site_id)) or self.stats["site_stats"].get(site_id)
        return int(ss["n_docs_indexed"]) if ss else 0

    def _docs_files(self) -> list[str]:
        """Committed doc-store files only — base shards + delta layers.
        Explicit list so in-flight ``tmp-`` parts from a concurrent
        ``index_pages`` (or crash leftovers) are never read."""
        d = self.index_dir / "docs"
        return [
            str(f)
            for pat in ("docs-*.parquet", "delta-seg-*.parquet", "delta-[0-9]*.parquet")
            for f in sorted(d.glob(pat))
        ]

    def _ensure_doclen(self) -> None:
        if self._doclen is None:
            import pyarrow.dataset as pads

            tbl = pads.dataset(self._docs_files(), format="parquet").to_table(
                columns=["doc_id", "doc_len"]
            )
            ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
            lens = tbl["doc_len"].to_numpy(zero_copy_only=False).astype(np.float64)
            order = np.argsort(ids)
            self._doclen = (ids[order], lens[order])

    def _doc_len_lookup(self, doc_ids: np.ndarray) -> np.ndarray:
        """doc_len per docID for BM25 (sandbox: one in-memory sorted array;
        scale path: per-shard doc-len arrays held by the query actors)."""
        self._ensure_doclen()
        ids, lens = self._doclen
        idx = np.searchsorted(ids, doc_ids)
        idx = np.clip(idx, 0, len(ids) - 1)
        out = lens[idx]
        out[ids[idx] != doc_ids] = 0.0
        if self._delta_docs:
            for i, d in enumerate(doc_ids.tolist()):
                delta = self._delta_docs.get(int(d))
                if delta is not None:
                    out[i] = float(delta["doc_len"])
        return out

    def _prior_lookup(self, doc_ids: np.ndarray) -> np.ndarray:
        """Static doc prior per docID (1.0 when absent) — consulted once
        per query over the candidate set, same sorted-array shape as
        ``_doc_len_lookup``."""
        if self._prior is None:
            import pyarrow.dataset as pads

            p = self.prior_path
            files = (
                sorted(str(f) for f in p.glob("*.parquet")) if p.is_dir() else [str(p)]
            )
            tbl = pads.dataset(files, format="parquet").to_table(
                columns=["doc_id", "prior"]
            )
            ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            pri = tbl["prior"].to_numpy(zero_copy_only=False).astype(np.float64)
            order = np.argsort(ids)
            self._prior = (ids[order], pri[order])
        ids, pri = self._prior
        out = np.ones(doc_ids.size, np.float64)
        if ids.size:
            idx = np.clip(np.searchsorted(ids, doc_ids), 0, len(ids) - 1)
            hit = ids[idx] == doc_ids
            out[hit] = pri[idx[hit]]
        return out

    def _doc_site_lookup(self, doc_ids: np.ndarray) -> np.ndarray:
        """site_id per docID (-1 when unknown) — same sorted-array shape
        as ``_doc_len_lookup``; delta-layer docs resolve from their live
        row."""
        if self._docsite is None:
            import pyarrow.dataset as pads

            tbl = pads.dataset(self._docs_files(), format="parquet").to_table(
                columns=["doc_id", "site_id"]
            )
            ids = tbl["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            sid = tbl["site_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.argsort(ids)
            self._docsite = (ids[order], sid[order])
        ids, sid = self._docsite
        out = np.full(doc_ids.size, -1, np.int64)
        if ids.size:
            idx = np.clip(np.searchsorted(ids, doc_ids), 0, len(ids) - 1)
            hit = ids[idx] == doc_ids
            out[hit] = sid[idx[hit]]
        if self._delta_docs:
            for i, d in enumerate(doc_ids.tolist()):
                delta = self._delta_docs.get(int(d))
                if delta is not None:
                    out[i] = int(delta["site_id"])
        return out

    def search_collapsed(
        self, query: str, *, per_site: int = 1, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Host-crowding collapse (the 'two results per site' rule of
        web SERPs): the scored match set keeps only the top
        ``per_site`` docs per site, ranked (ROUND(score, 6) desc,
        doc_id) — rounding makes the collapse float-order-proof against
        a SQL mirror. → (doc_ids, rounded scores, site_ids), in
        collapsed ranking order."""
        d, s, _ = self.search_scores(query, site=site)
        if d.size == 0:
            return d, np.empty(0, np.float64), np.empty(0, np.int64)
        r = np.round(s.astype(np.float64), 6)
        sites = self._doc_site_lookup(d)
        order = np.lexsort((d, -r))
        d, r, sites = d[order], r[order], sites[order]
        n = d.size
        # cumcount per site in ranking order, fully vectorized
        o2 = np.lexsort((np.arange(n), sites))  # stable: by site, rank order kept
        s2 = sites[o2]
        starts = np.flatnonzero(np.r_[True, s2[1:] != s2[:-1]])
        counts = np.diff(np.r_[starts, n])
        cc = np.empty(n, np.int64)
        cc[o2] = np.arange(n) - np.repeat(starts, counts)
        keep = cc < per_site
        return d[keep], r[keep], sites[keep]

    def explain_scores(
        self, query: str, site: str | None = None
    ) -> "pa.Table":
        """Lucene-explain-style score breakdown: one row per (matching
        doc, query lemma) with tf, idf and the term's contribution to
        the disjunctive tf·idf score — the serving-debug surface that
        makes ranking auditable. Reads the same postings the scorer
        reads; no extra state."""
        lemmas = self._query_lemmas(query)
        site_id, known = self._resolve_site(site)
        n_total = self._total_pages(site_id, known)
        out_d: list[np.ndarray] = []
        out_t: list[str] = []
        out_tf: list[np.ndarray] = []
        out_idf: list[float] = []
        if n_total > 0:
            for t in lemmas:
                d, tf, df = self.term_postings(t, site_id)
                if not d.size:
                    continue
                idf = math.log((n_total + 1) / (df + 1))
                out_d.append(d)
                out_t += [t] * d.size
                out_tf.append(tf.astype(np.int64))
                out_idf += [idf] * d.size
        if not out_d:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "tf": pa.array([], pa.int64()),
                    "idf": pa.array([], pa.float64()),
                    "contrib": pa.array([], pa.float64()),
                }
            )
        d = np.concatenate(out_d)
        tf = np.concatenate(out_tf)
        idf = np.asarray(out_idf, np.float64)
        return pa.table(
            {
                "doc_id": pa.array(d, pa.int64()),
                "term": pa.array(out_t, pa.string()),
                "tf": pa.array(tf, pa.int64()),
                "idf": pa.array(np.round(idf, 6), pa.float64()),
                "contrib": pa.array(np.round(tf.astype(np.float64) * idf, 6), pa.float64()),
            }
        )

    def expand_prefix(self, prefix: str, max_expansions: int = 50) -> list[str]:
        """All live vocabulary terms starting with ``prefix`` — sorted,
        capped deterministically at ``max_expansions`` (Lucene's
        MultiTermQuery rule). Terms hash to buckets, so a prefix scan
        reads the term column of EVERY bucket segment — vocabulary-sized
        metadata, never postings; delta-layer terms are unioned in so
        expansion sees LSM state."""
        if not prefix:
            return []
        out: set[str] = set()
        for f in sorted((self.index_dir / "postings").glob("bucket=*.parquet")):
            arr = pq.read_table(f, columns=["term"])["term"]
            out.update(arr.filter(pc.starts_with(arr, prefix)).to_pylist())
        out.update(
            t for (t, _s) in self._delta_terms if t.startswith(prefix)
        )
        return sorted(out)[:max_expansions]

    def search_prefix_scores(
        self, prefix: str, *, max_expansions: int = 50, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Prefix (wildcard ``prefix*``) retrieval: expand against the
        index vocabulary, then the standard disjunctive ranking over the
        expanded terms — each with its OWN df/idf (Lucene scoring-rewrite
        semantics, not constant-score)."""
        terms = self.expand_prefix(prefix, max_expansions)
        if not terms:
            return np.empty(0, np.int64), np.empty(0, np.float64), []
        return self.search_scores(" ".join(terms), site=site)

    def _vocab(self) -> np.ndarray:
        """Sorted live vocabulary (segment term columns ∪ delta terms),
        cached. Vocabulary-sized metadata — never postings; the same
        union expand_prefix scans per call, read once here. At cluster
        scale each query actor holds one copy (the term dictionary is
        the classic resident structure of a search node)."""
        if self._vocab_arr is None:
            out: set[str] = set()
            for f in sorted((self.index_dir / "postings").glob("bucket=*.parquet")):
                out.update(pq.read_table(f, columns=["term"])["term"].to_pylist())
            out.update(t for (t, _s) in self._delta_terms)
            self._vocab_arr = np.array(sorted(out), dtype=object)
        return self._vocab_arr

    def expand_suffix(self, suffix: str, max_expansions: int = 50) -> list[str]:
        """Leading-wildcard (``*suffix``) expansion: binary-search the
        REVERSED-term dictionary for the reversed-suffix prefix range —
        O(log V) per lookup after a one-time reversed sort, the
        ReversedWildcardFilter technique (vs. a full vocab regex scan).
        Returns sorted original terms capped at max_expansions (the
        MultiTermQuery rule, same cap policy as expand_prefix)."""
        if not suffix:
            return []
        if self._rev_sorted is None:
            vocab = self._vocab()
            rev = np.array([t[::-1] for t in vocab], dtype=object)
            order = np.argsort(rev)
            self._rev_sorted = (rev[order], vocab[order])
        rev_arr, orig = self._rev_sorted
        key = suffix[::-1]
        lo = np.searchsorted(rev_arr, key, side="left")
        hi = np.searchsorted(rev_arr, key + "\U0010ffff", side="left")
        return sorted(orig[lo:hi].tolist())[:max_expansions]

    def expand_infix(self, needle: str, max_expansions: int = 50) -> list[str]:
        """Infix wildcard (``*needle*``) expansion: every live vocabulary
        term CONTAINING ``needle`` — the WildcardQuery case neither the
        prefix dictionary nor the reversed dictionary can range-answer,
        so it is an honest vectorized vocabulary scan
        (``pc.match_substring`` over the term column — vocabulary-sized
        metadata, never postings).  Sorted, capped (MultiTermQuery
        rule)."""
        if not needle:
            return []
        vocab = self._vocab()
        arr = pa.array(vocab.tolist(), pa.string())
        hit = pc.match_substring(arr, needle).to_numpy(zero_copy_only=False)
        return sorted(vocab[hit].tolist())[:max_expansions]

    def search_infix_scores(
        self, needle: str, *, max_expansions: int = 50, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Infix wildcard (``*needle*``) retrieval: contains-expansion
        against the vocabulary, then the standard disjunctive ranking —
        each expanded term with its OWN df/idf (scoring-rewrite
        semantics, completing the prefix/suffix/fuzzy wildcard family)."""
        terms = self.expand_infix(needle, max_expansions)
        if not terms:
            return np.empty(0, np.int64), np.empty(0, np.float64), []
        return self.search_scores(" ".join(terms), site=site)

    def expand_fuzzy(self, term: str, max_expansions: int = 50) -> list[str]:
        """Edit-distance-≤1 expansion against the live vocabulary
        (Lucene FuzzyQuery with maxEdits=1): exact match, one
        substitution (same length, Hamming 1), or one insertion /
        deletion (length ±1, split-point check). Vectorized: vocab
        terms are length-bucketed into fixed-width char matrices and
        compared with numpy equality kernels — no per-candidate Python
        distance call. Returns sorted terms capped at max_expansions."""
        if not term:
            return []
        vocab = self._vocab()
        if vocab.size == 0:
            return []
        lens = np.fromiter((len(t) for t in vocab), np.int64, vocab.size)
        L = len(term)
        qv = np.frombuffer(term.encode("utf-32-le"), dtype=np.uint32)
        hits: list[str] = []

        def _chars(sub: np.ndarray, width: int) -> np.ndarray:
            # fixed-width char matrix: one utf-32 decode per length bucket
            buf = "".join(sub.tolist()).encode("utf-32-le")
            return np.frombuffer(buf, dtype=np.uint32).reshape(-1, width)

        def _split_ok(pre_eq: np.ndarray, suf_eq: np.ndarray) -> np.ndarray:
            # ∃ split p: all pre_eq[:, :p] AND all suf_eq[:, p:]. Greedy:
            # the longest matching prefix is the optimal split (a smaller
            # p only adds suffix positions to satisfy).
            pre = np.cumprod(pre_eq, axis=1)
            sufall = np.cumprod(suf_eq[:, ::-1], axis=1)[:, ::-1].astype(bool)
            full = pre[:, -1].astype(bool)  # p = k → empty suffix, ok
            out = full.copy()
            idx = np.where(~full)[0]
            out[idx] = sufall[idx, pre.argmin(axis=1)[idx]]
            return out

        same = vocab[lens == L]
        if same.size:  # 0 or 1 substitution: Hamming ≤ 1
            hits += same[(_chars(same, L) != qv).sum(axis=1) <= 1].tolist()
        longer = vocab[lens == L + 1]
        if longer.size:  # candidate = query + 1 inserted char
            m = _chars(longer, L + 1)
            hits += longer[_split_ok(m[:, :L] == qv, m[:, 1:] == qv)].tolist()
        if L >= 2:
            shorter = vocab[lens == L - 1]
            if shorter.size:  # candidate = query - 1 deleted char
                m = _chars(shorter, L - 1)
                hits += shorter[_split_ok(m == qv[: L - 1], m == qv[1:])].tolist()
        return sorted(set(hits))[:max_expansions]

    def search_suffix_scores(
        self, suffix: str, *, max_expansions: int = 50, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Leading-wildcard (``*suffix``) retrieval: reversed-dictionary
        expansion, then the standard disjunctive ranking — each expanded
        term with its OWN df/idf (scoring-rewrite semantics)."""
        terms = self.expand_suffix(suffix, max_expansions)
        if not terms:
            return np.empty(0, np.int64), np.empty(0, np.float64), []
        return self.search_scores(" ".join(terms), site=site)

    def search_fuzzy_scores(
        self, query: str, *, max_expansions: int = 50, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Fuzzy retrieval (per-token maxEdits=1): every query lemma
        expands to its edit-distance-≤1 vocabulary neighbours; the
        distinct union (order-preserving, first-seen) feeds the standard
        disjunctive ranking with per-term idf."""
        expanded: list[str] = []
        for t in self._query_lemmas(query):
            expanded += self.expand_fuzzy(t, max_expansions)
        terms = list(dict.fromkeys(expanded))
        if not terms:
            return np.empty(0, np.int64), np.empty(0, np.float64), []
        return self.search_scores(" ".join(terms), site=site)

    def search_boolean_scores(
        self, query: str, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nested boolean retrieval (``(a OR b) AND c AND NOT d``):
        the match set is set algebra over posting doc-id lists
        (sorted-array union/intersect/diff — one posting read per
        distinct leaf); the score is the disjunctive tf·idf sum over
        the POSITIVE leaves a doc contains (Lucene BooleanQuery:
        prohibited clauses never score). A pure negation raises — no
        corpus-complement scans."""
        from ..functions.boolquery import And, Not, Or, Term, parse, positive_terms

        ast = parse(query)
        site_id, _ = self._resolve_site(site)

        def leaf_docs(text: str) -> np.ndarray:
            lemmas = self._query_lemmas(text)
            sets = []
            for t in lemmas:
                d, _, _ = self.term_postings(t, site_id)
                if d.size:
                    sets.append(d)
            if not sets:
                return np.empty(0, np.int64)
            out = sets[0]
            for s in sets[1:]:  # multi-lemma leaf == OR over its lemmas
                out = np.union1d(out, s)
            return out

        def eval_node(n) -> np.ndarray:
            if isinstance(n, Term):
                return leaf_docs(n.text)
            if isinstance(n, Not):
                raise ValueError(
                    "pure negation has no match set (Lucene semantics: "
                    "NOT is only valid inside AND)"
                )
            if isinstance(n, Or):
                out = np.empty(0, np.int64)
                for p in n.parts:
                    if isinstance(p, Not):
                        raise ValueError("OR over a negative clause")
                    out = np.union1d(out, eval_node(p))
                return out
            pos = [p for p in n.parts if not isinstance(p, Not)]
            neg = [p.child for p in n.parts if isinstance(p, Not)]
            if not pos:
                raise ValueError("AND of only negative clauses")
            out = eval_node(pos[0])
            for p in pos[1:]:
                out = _intersect_sorted(out, eval_node(p))
            for p in neg:
                if out.size == 0:
                    break
                out = out[~np.isin(out, eval_node(p), assume_unique=True)]
            return out

        match = eval_node(ast)
        if match.size == 0:
            return match, np.empty(0, np.float64)
        terms = " ".join(positive_terms(ast))
        docs, scores, _ = self.search_scores(terms, site)
        keep = np.isin(docs, match, assume_unique=True)
        return docs[keep], scores[keep].astype(np.float64)

    def search_ql_scores(
        self, query: str, mu: float = 100.0, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Query-likelihood ranking with Dirichlet smoothing (Zhai &
        Lafferty): score(d) = Σ_t ln((tf_td + μ·cf_t/|C|) / (dl_d + μ))
        over ALL query lemmas (absent terms contribute the smoothed
        background mass — unlike tf·idf, a missing term still costs),
        evaluated on the OR match set. cf comes free from the posting
        read (Σtf); |C| and doc lengths are the index's resident
        statistics — no extra IO beyond the disjunctive read."""
        lemmas = self._query_lemmas(query)
        if not lemmas:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        site_id, known = self._resolve_site(site)
        if self._total_pages(site_id, known) <= 0:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        per_term = [self.term_postings(t, site_id) for t in lemmas]
        non_empty = [(t, d, tf) for t, (d, tf, _) in zip(lemmas, per_term) if d.size]
        if not non_empty:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        c_total = float(self.stats["sum_doc_len"])
        union = non_empty[0][1]
        for _, d, _ in non_empty[1:]:
            union = np.union1d(union, d)
        dl = self._doc_len_lookup(union).astype(np.float64)
        mu = float(mu)
        score = np.zeros(union.size, np.float64)
        for t, (d, tf, _) in zip(lemmas, per_term):
            p = float(tf.sum()) / c_total if d.size else 0.0
            tfv = np.zeros(union.size, np.float64)
            if d.size:
                tfv[np.searchsorted(union, d)] = tf.astype(np.float64)
            # a term with cf == 0 has no probability mass anywhere: the
            # smoothed estimate is 0 and ln() undefined — skip it (the
            # SQL mirror's q VALUES list does the same by construction)
            if p <= 0.0:
                continue
            score += np.log((tfv + mu * p) / (dl + mu))
        order = np.lexsort((union, -score))
        return union[order], score[order]

    def search_jm_scores(
        self, query: str, lam: float = 0.5, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Query-likelihood ranking with Jelinek–Mercer smoothing (the
        linear-interpolation sibling of :meth:`search_ql_scores`):
        score(d) = Σ_t ln((1−λ)·tf_td/dl_d + λ·cf_t/|C|) over ALL query
        lemmas, evaluated on the OR match set.  JM smooths with a
        fixed mixture weight instead of Dirichlet's length-adaptive μ —
        the classic pair every LM-ranking study reports side by side.
        Same IO shape as Dirichlet: one posting read per term, resident
        doc lengths, no extra scans."""
        lemmas = self._query_lemmas(query)
        if not lemmas:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        site_id, known = self._resolve_site(site)
        if self._total_pages(site_id, known) <= 0:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        per_term = [self.term_postings(t, site_id) for t in lemmas]
        if not any(d.size for d, _, _ in per_term):
            return np.empty(0, np.int64), np.empty(0, np.float64)
        c_total = float(self.stats["sum_doc_len"])
        union = np.empty(0, np.int64)
        for d, _, _ in per_term:
            if d.size:
                union = np.union1d(union, d)
        dl = self._doc_len_lookup(union).astype(np.float64)
        lam = float(lam)
        score = np.zeros(union.size, np.float64)
        for t, (d, tf, _) in zip(lemmas, per_term):
            p = float(tf.sum()) / c_total if d.size else 0.0
            if p <= 0.0:
                continue  # cf == 0: no mass anywhere (mirrors Dirichlet)
            tfv = np.zeros(union.size, np.float64)
            if d.size:
                tfv[np.searchsorted(union, d)] = tf.astype(np.float64)
            score += np.log((1.0 - lam) * tfv / dl + lam * p)
        order = np.lexsort((union, -score))
        return union[order], score[order]

    def search_synonym_scores(
        self,
        query: str,
        synonyms: dict[str, tuple[str, ...]],
        site: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Query-time synonym expansion (SynonymQuery, scoring-rewrite
        variant: each expansion keeps its OWN df/idf): every query lemma
        is followed by its mapped synonyms, order-preserving distinct,
        then the standard disjunctive ranking. The map is query-node
        state (an actor would hold it in ``__init__``); expansions
        absent from the vocabulary contribute df=0 and no postings."""
        out: list[str] = []
        for t in self._query_lemmas(query):
            out.append(t)
            out.extend(synonyms.get(t, ()))
        terms = list(dict.fromkeys(out))
        if not terms:
            return np.empty(0, np.int64), np.empty(0, np.float64), []
        return self.search_scores(" ".join(terms), site=site)

    def search_msm_scores(
        self, query: str, msm: int = 2, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Minimum-should-match retrieval (BooleanQuery
        minimumNumberShouldMatch): disjunctive scores kept only for docs
        matching ≥ msm DISTINCT query lemmas — the middle ground between
        OR (msm=1) and AND (msm=len(lemmas)). One extra membership mask
        per lemma over the already-read postings; no new IO."""
        docs, scores, lemmas = self.search_scores(query, site)
        if msm <= 1 or not docs.size:
            return docs, scores
        site_id, _ = self._resolve_site(site)
        nhits = np.zeros(docs.size, np.int64)
        for t in lemmas:
            d, _, _ = self.term_postings(t, site_id)
            if d.size:
                nhits += np.isin(docs, d, assume_unique=True)
        keep = nhits >= msm
        return docs[keep], scores[keep]

    def search_after_scores(
        self,
        query: str,
        after: tuple[float, int] | None,
        limit: int = 10,
        site: str | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Keyset (search_after) pagination: the page strictly after the
        cursor (score, doc_id) in (rounded-score desc, doc_id asc) order
        — O(matches) filtering instead of offset re-scans, the
        deep-pagination pattern (ES search_after / Lucene searchAfter).
        Scores are rounded to 6 dp BEFORE ordering so cursors are stable
        across float32/float64 serving replicas."""
        docs, scores, _ = self.search_scores(query, site)
        r = np.round(scores.astype(np.float64), 6)
        order = np.lexsort((docs, -r))
        docs, r = docs[order], r[order]
        if after is not None:
            cs, cd = float(after[0]), int(after[1])
            mask = (r < cs) | ((r == cs) & (docs > cd))
            docs, r = docs[mask], r[mask]
        return docs[:limit], r[:limit]

    def _query_lemmas(self, query: str) -> list[str]:
        """M9 + optional morphology model: tokenize, map through the
        index's lemma model when present, order-preserving distinct."""
        lemmas = query_lemmas(query)
        if self._lemmatizer is not None and lemmas:
            lemmas = list(dict.fromkeys(self._lemmatizer.lemmatize_list(lemmas)))
        return lemmas

    def search_scores(
        self, query: str, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """Full scored candidate list (pre-pagination): (doc_ids, scores,
        lemmas), scores float32 under ``float32_scores`` (the reference's
        per-page cast, :146) and float64 otherwise. Empty arrays when
        nothing matches."""
        return self._rank(query, site, np.float32 if self.float32_scores else np.float64)

    def _rank(
        self, query: str, site: str | None, dtype=np.float64
    ) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """The engine's one ranking core, shared by ``search_scores`` and
        ``topk``: every doc matching the query (OR union, or the AND
        intersection under ``mode="and"``) scored by the configured
        scorer in float64, times the static prior, cast to ``dtype``,
        then ordered (score desc, doc_id asc) — the documented tie
        deviation. The order is taken AFTER the cast, so scores that
        round to one float32 tie-break by doc_id."""
        lemmas = self._query_lemmas(query)
        empty = np.empty(0, np.int64), np.empty(0, dtype), lemmas
        if not lemmas:
            return empty
        site_id, known = self._resolve_site(site)
        n_total = self._total_pages(site_id, known)
        if n_total <= 0:
            return empty

        per_term = [self.term_postings(t, site_id) for t in lemmas]
        dfs = {t: p[2] for t, p in zip(lemmas, per_term)}
        idf = {
            t: math.log((n_total + 1) / (dfs[t] + 1)) for t in lemmas
        }  # A4, SearchServiceImpl.java:129-137

        non_empty = [(t, d, tf) for t, (d, tf, _) in zip(lemmas, per_term) if d.size]
        if not non_empty:
            return empty

        if self.mode == "and":
            inter = non_empty[0][1]
            if len(non_empty) < len(lemmas):
                inter = inter[:0]  # a lemma with no postings empties the AND
            for _, d, _ in non_empty[1:]:
                inter = _intersect_sorted(inter, d)
            if inter.size == 0:
                return empty
            keep_docs = inter
        else:
            keep_docs = None

        all_docs = np.concatenate([d for _, d, _ in non_empty])
        uniq, inverse = np.unique(all_docs, return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        if self.scorer == "bm25":
            avgdl = max(1.0, self.stats["sum_doc_len"] / max(1, self.stats["n_docs_indexed"]))
            pos = 0
            for t, d, tf in non_empty:
                dl = self._doc_len_lookup(d)
                denom = tf + self.k1 * (1.0 - self.b + self.b * dl / avgdl)
                w = idf[t] * (tf * (self.k1 + 1.0)) / denom
                np.add.at(scores, inverse[pos: pos + d.size], w)
                pos += d.size
        elif self.scorer == "sumtf":
            # O3 parity: ORDER BY SUM(rank) DESC — raw term-frequency
            # mass per page, no idf (reference dead code, now served:
            # repository/IndexRepository.java:13-24 global and :19-24
            # site-scoped via the same site_id posting scope). Integer
            # sums in float64 are exact, so oracle hashing is stable.
            pos = 0
            for _, d, tf in non_empty:
                np.add.at(scores, inverse[pos: pos + d.size], tf.astype(np.float64))
                pos += d.size
        else:
            pos = 0
            for t, d, tf in non_empty:
                np.add.at(scores, inverse[pos: pos + d.size], tf.astype(np.float64) * idf[t])
                pos += d.size

        if keep_docs is not None:
            mask = np.isin(uniq, keep_docs, assume_unique=True)
            uniq, scores = uniq[mask], scores[mask]

        if self.prior_path is not None:
            # static prior boost: sum-then-multiply, so the oracle SQL's
            # SUM(...) * prior reproduces the identical float64 value
            scores = scores * self._prior_lookup(uniq)

        scores = scores.astype(dtype, copy=False)  # float cast, :146
        order = np.lexsort((uniq, -scores))
        return uniq[order], scores[order], lemmas

    def ltr_features(self, query: str, site: str | None = None) -> "pa.Table":
        """Learning-to-rank feature export: one row per candidate doc
        (the OR match set) with the classic LTR feature vector —
        (doc_id, n_matched, sum_tf, dl, tfidf, bm25).  This is the
        dataset-prep step for training a reranker: the engine computes
        the features it already serves (one posting read per term,
        resident doc lengths), the rows go to the training pipeline.

        tfidf uses the serving idf ln((N+1)/(df+1)); bm25 the serving
        (k1, b); both in float64 so the SQL mirror reproduces every
        addend.  Sorted (doc_id asc)."""
        lemmas = self._query_lemmas(query)
        site_id, known = self._resolve_site(site)
        n_total = self._total_pages(site_id, known)
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_matched": pa.array([], pa.int64()),
                "sum_tf": pa.array([], pa.int64()),
                "dl": pa.array([], pa.int64()),
                "tfidf": pa.array([], pa.float64()),
                "bm25": pa.array([], pa.float64()),
            }
        )
        if not lemmas or n_total <= 0:
            return empty
        per_term = [self.term_postings(t, site_id) for t in lemmas]
        non_empty = [
            (t, d, tf, df) for t, (d, tf, df) in zip(lemmas, per_term) if d.size
        ]
        if not non_empty:
            return empty
        union = non_empty[0][1]
        for _, d, _, _ in non_empty[1:]:
            union = np.union1d(union, d)
        dl = self._doc_len_lookup(union).astype(np.float64)
        avgdl = max(
            1.0, self.stats["sum_doc_len"] / max(1, self.stats["n_docs_indexed"])
        )
        n_matched = np.zeros(union.size, np.int64)
        sum_tf = np.zeros(union.size, np.int64)
        tfidf = np.zeros(union.size, np.float64)
        bm25 = np.zeros(union.size, np.float64)
        for t, d, tf, df in non_empty:
            idf = math.log((n_total + 1) / (df + 1))
            pos = np.searchsorted(union, d)
            n_matched[pos] += 1
            sum_tf[pos] += tf.astype(np.int64)
            tff = tf.astype(np.float64)
            tfidf[pos] += tff * idf
            denom = tff + self.k1 * (1.0 - self.b + self.b * dl[pos] / avgdl)
            bm25[pos] += idf * (tff * (self.k1 + 1.0)) / denom
        return pa.table(
            {
                "doc_id": pa.array(union, pa.int64()),
                "n_matched": pa.array(n_matched),
                "sum_tf": pa.array(sum_tf),
                "dl": pa.array(dl.astype(np.int64)),
                "tfidf": pa.array(np.round(tfidf, 6), pa.float64()),
                "bm25": pa.array(np.round(bm25, 6), pa.float64()),
            }
        )

    def search_excluding(
        self, query: str, exclude: str, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Boolean AND-NOT retrieval: the scored match set of ``query``
        (current mode/scorer) minus every document containing ANY lemma
        of ``exclude`` — the negation operator of a Boolean fulltext
        engine (reference semantics stop at OR/AND, SearchServiceImpl
        .java:84-117; NOT is this rebuild's extension). Exclusion is one
        posting-list read per exclude lemma + a vectorized membership
        mask — never a corpus scan. Returns (doc_ids, scores) in
        (score desc, doc_id asc) order."""
        docs, scores, _ = self.search_scores(query, site)
        scores = scores.astype(np.float64)
        if not docs.size:
            return docs, scores
        site_id, _ = self._resolve_site(site)
        for t in self._query_lemmas(exclude):
            if not docs.size:
                break
            d, _, _ = self.term_postings(t, site_id)
            if d.size:
                keep = ~np.isin(docs, d)
                docs, scores = docs[keep], scores[keep]
        return docs, scores

    def more_like_this(
        self, seed_doc_id: int, k: int = 10
    ) -> tuple[np.ndarray, np.ndarray]:
        """Related-document retrieval: rank every other doc by the
        TF-IDF dot product Σ_t tfidf_seed(t)·tfidf_d(t) over the seed's
        terms (tfidf = tf·idf with the A4 idf ln((N+1)/(df+1))) — the
        "more like this" primitive built on the inverted index: one
        posting-list traversal per seed term, never a corpus scan.

        Contributions multiply left-associatively as
        ((tf_seed·idf)·tf_d)·idf so a SQL mirror computing
        ``(tf_seed*idf) * tf_d * idf`` produces bit-identical addends.
        Returns (doc_ids, float64 scores) top-k, (score desc, doc_id
        asc), seed excluded; empty arrays for an unknown/empty seed."""
        row = self._hydrate(np.asarray([seed_doc_id], dtype=np.int64)).get(
            int(seed_doc_id)
        )
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if row is None:
            return empty
        from ..functions.tokenize import tokenize

        seed_tf: dict[str, int] = {}
        for t in tokenize(row["text"]):
            seed_tf[t] = seed_tf.get(t, 0) + 1
        if not seed_tf:
            return empty
        site_id, known = self._resolve_site(None)
        n_total = self._total_pages(site_id, known)
        per_term = []
        for t, stf in seed_tf.items():
            d, tf, df = self.term_postings(t, site_id)
            if d.size:
                idf = math.log((n_total + 1) / (df + 1))
                per_term.append((d, tf, float(stf) * idf, idf))
        if not per_term:
            return empty
        all_docs = np.concatenate([d for d, _, _, _ in per_term])
        uniq, inverse = np.unique(all_docs, return_inverse=True)
        scores = np.zeros(uniq.size, dtype=np.float64)
        pos = 0
        for d, tf, w_seed, idf in per_term:
            contrib = (w_seed * tf.astype(np.float64)) * idf
            np.add.at(scores, inverse[pos : pos + d.size], contrib)
            pos += d.size
        mask = uniq != seed_doc_id
        uniq, scores = uniq[mask], scores[mask]
        # rank on the ROUNDED score (doc_id tiebreak): raw float64 sums
        # differ in the last ulp by summation order, so ranking raw
        # scores makes tie order depend on the accumulation order (and a
        # SQL mirror's parallel SUM is not even deterministic run to
        # run); 6-decimal ties resolve identically everywhere
        order = np.lexsort((uniq, -np.round(scores, 6)))[:k]
        return uniq[order], scores[order]

    def topk(
        self, query: str, k: int = 10, site: str | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k retrieval: the first ``k`` of the engine's float64
        ranking — what ``search_scores`` returns under
        ``float32_scores=False``: same scorer, mode, site scope, prior
        and (score desc, doc_id asc) order — as (doc_ids, float64
        scores), with no hydration or decoration. Every match is scored: on every index measured,
        vectorized exhaustive scoring beat block-max MaxScore/WAND
        pruning, whose per-candidate Python cost exceeded what its
        block skips saved (NOTES.md)."""
        d, s, _ = self._rank(query, site)
        return d[:k], s[:k]

    # ---------------- public API --------------------------------------
    def search(
        self, query: str | None, site: str | None = None, offset: int = 0, limit: int = 10
    ) -> dict:
        """Full SearchResponse dict shaped like dto/search/SearchResponse.java."""
        ranked = self.search_ranked(query, site=site, offset=offset, limit=limit)
        if "response" in ranked:
            return ranked["response"]
        try:
            docs = self._hydrate(np.asarray(ranked["doc_ids"], np.int64))
        except Exception:
            return {"result": False, "count": 0, "data": []}  # catch-all, :68-70
        return self.decorate_response(
            query, ranked["doc_ids"], ranked["scores"], docs, ranked["total"]
        )

    def search_ranked(
        self, query: str | None, site: str | None = None, offset: int = 0, limit: int = 10
    ) -> dict:
        """Scoring half of :meth:`search`: the ranked result page as
        (doc_ids, scores, total) WITHOUT hydration. The sharded pool
        runs this on one actor, hydrates the page across the pool
        (each actor holds 1/N of the doc store), then decorates.
        Terminal outcomes (blank query, no matches, pagination quirks,
        errors) come back under ``"response"`` ready to return."""
        try:
            if query is None or not query.strip():
                return {"response": {"result": False, "count": 0, "data": []}}
            if not self._query_lemmas(query):
                return {"response": {"result": True, "count": 0, "data": []}}
            doc_ids, scores, _ = self.search_scores(query, site)
            total = int(doc_ids.size)
            if total == 0:
                return {"response": {"result": True, "count": 0, "data": []}}
            start = max(0, offset)
            end = min(total, offset + max(1, limit))
            if start > end:
                # reference: List.subList(from>to) threw inside the catch-all
                return {"response": {"result": False, "count": 0, "data": []}}
            return {
                "total": total,
                "doc_ids": doc_ids[start:end].tolist(),
                "scores": scores[start:end].tolist(),
            }
        except Exception:
            return {"response": {"result": False, "count": 0, "data": []}}

    def hydrate_docs(self, doc_ids: list[int]) -> dict[int, dict]:
        """Doc rows for the requested ids present in THIS engine's doc
        store (delta overlay included; misses are simply absent) — the
        sharded-pool hydration RPC."""
        return self._hydrate(np.asarray(doc_ids, np.int64))

    def decorate_response(
        self, query: str, doc_ids: list[int], scores: list[float],
        docs: dict[int, dict], total: int,
    ) -> dict:
        """Hydrated rows → the reference-shaped SearchResponse."""
        try:
            snippet_words = query_tokens(query) or self._query_lemmas(query)
            data = []
            for did, sc in zip(doc_ids, scores):
                row = docs.get(int(did))
                if row is None:
                    continue
                site_info = self.sites.get(int(row["site_id"]), _NO_SITE)
                item = {
                    "site": "" if self.strict_parity else site_info["url"],
                    "siteName": site_info["name"],
                    "uri": build_full_url(site_info["url"], row["path"]),
                    "title": extract_title(row["text"], row["path"]),
                    "snippet": generate_snippet(row["text"], snippet_words),
                    "relevance": float(np.float32(sc)),
                }
                data.append(item)
            return {"result": True, "count": total, "data": data}
        except Exception:
            return {"result": False, "count": 0, "data": []}  # catch-all, :68-70

    def _hydrate(self, doc_ids: np.ndarray) -> dict[int, dict]:
        """J1 semi-join: top-k docs by id.

        Default: one-time load of the doc store into sorted arrays
        (docID-binary-searched per query — single-node latency path; at
        cluster scale each query actor holds only its shard, or set
        ``docs_in_memory=False`` for the doc-locator row-group path).
        """
        if doc_ids.size == 0:
            return {}
        if not getattr(self, "docs_in_memory", True):
            return self._hydrate_located(doc_ids)
        if self._docs_dataset is None:
            import pyarrow.dataset as pads

            tbl = pads.dataset(self._docs_files(), format="parquet").to_table(
                columns=["doc_id", "site_id", "path", "text"]
            )
            ids = tbl["doc_id"].to_numpy(zero_copy_only=False)
            order = np.argsort(ids)
            self._docs_dataset = (
                ids[order],
                tbl["site_id"].to_numpy(zero_copy_only=False)[order],
                tbl["path"].to_pandas().to_numpy()[order],
                tbl["text"].to_pandas().to_numpy()[order],
            )
        ids, sids, paths, texts = self._docs_dataset
        idx = np.searchsorted(ids, doc_ids)
        idx = np.clip(idx, 0, len(ids) - 1)
        out = {}
        for want, j in zip(doc_ids.tolist(), idx.tolist()):
            delta = self._delta_docs.get(int(want))
            if delta is not None:  # delta rows shadow base rows
                out[int(want)] = delta
            elif ids[j] == want:
                out[int(want)] = {
                    "doc_id": int(want),
                    "site_id": int(sids[j]),
                    "path": paths[j],
                    "text": texts[j],
                }
        return out

    def _doc_locator(self):
        """Lazy (sorted doc_id → shard file, row group, local row) index
        over the BASE docs shards, built from the doc_id columns only
        (~24 B/doc). The streaming build assigns dense ids per batch, so
        every shard's (min, max) id range spans most of the corpus and
        Parquet predicate pushdown cannot prune files or row groups — a
        whole-store decode per query (measured ~1 s at 192k docs vs ~4 ms
        in-memory). The locator instead maps each requested id straight
        to its row group, so hydration decodes only the groups holding
        the top-k hits. At cluster scale each query actor holds the
        locator for ITS shard subset; delta docs overlay from
        ``_delta_docs`` as everywhere else."""
        if self._docs_locator is None:
            files = [
                str(f) for f in sorted((self.index_dir / "docs").glob("docs-*.parquet"))
            ]
            ids_p, fi_p, gi_p, rl_p = [], [], [], []
            if self.docs_shard is not None:
                # shard at ROW-GROUP granularity (finer than files; the
                # global group index is deterministic over the sorted
                # file list, so the pool's subsets are disjoint and
                # complete). Each actor reads ONLY its own groups' id
                # columns — IO and memory both 1/n.
                k, nsh = self.docs_shard
                g_global = 0
                for fi, f in enumerate(files):
                    md = pq.read_metadata(f)
                    pf = None
                    for g in range(md.num_row_groups):
                        own = (g_global % nsh) == k
                        g_global += 1
                        nrows = md.row_group(g).num_rows
                        if not own or nrows == 0:
                            continue
                        if pf is None:
                            pf = pq.ParquetFile(f)
                        ids = pf.read_row_group(g, columns=["doc_id"])[
                            "doc_id"
                        ].to_numpy(zero_copy_only=False)
                        ids_p.append(ids)
                        fi_p.append(np.full(nrows, fi, dtype=np.int32))
                        gi_p.append(np.full(nrows, g, dtype=np.int32))
                        rl_p.append(np.arange(nrows, dtype=np.int64))
            else:
                for fi, f in enumerate(files):
                    md = pq.read_metadata(f)
                    n = md.num_rows
                    if n == 0:
                        continue
                    ids = pq.read_table(f, columns=["doc_id"])["doc_id"].to_numpy(
                        zero_copy_only=False
                    )
                    sizes = np.array(
                        [md.row_group(g).num_rows for g in range(md.num_row_groups)],
                        dtype=np.int64,
                    )
                    gidx = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)
                    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
                    ids_p.append(ids)
                    fi_p.append(np.full(n, fi, dtype=np.int32))
                    gi_p.append(gidx)
                    rl_p.append(np.arange(n, dtype=np.int64) - starts[gidx])
            if not ids_p:
                self._docs_locator = (
                    np.empty(0, np.int64), np.empty(0, np.int32),
                    np.empty(0, np.int32), np.empty(0, np.int64), files,
                )
            else:
                ids = np.concatenate(ids_p)
                order = np.argsort(ids, kind="stable")
                self._docs_locator = (
                    ids[order],
                    np.concatenate(fi_p)[order],
                    np.concatenate(gi_p)[order],
                    np.concatenate(rl_p)[order],
                    files,
                )
        return self._docs_locator

    def _hydrate_located(self, doc_ids: np.ndarray) -> dict[int, dict]:
        """Memory-light hydration: locate each id's row group, decode
        only those groups (grouped per file, one read per group)."""
        out: dict[int, dict] = {}
        want: list[int] = []
        for did in doc_ids.tolist():
            delta = self._delta_docs.get(int(did))
            if delta is not None:
                out[int(did)] = delta
            else:
                want.append(int(did))
        if not want:
            return out
        ids_s, fidx, gidx, rloc, files = self._doc_locator()
        if not ids_s.size:
            return out
        w = np.asarray(sorted(set(want)), dtype=np.int64)
        pos = np.searchsorted(ids_s, w)
        ok = (pos < ids_s.size) & (ids_s[np.minimum(pos, ids_s.size - 1)] == w)
        pos, w = pos[ok], w[ok]
        by_group: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for p, did in zip(pos.tolist(), w.tolist()):
            by_group.setdefault((int(fidx[p]), int(gidx[p])), []).append(
                (int(rloc[p]), did)
            )
        cols = ["doc_id", "site_id", "path", "text"]
        hit: dict[tuple[int, int], pa.Table] = {}
        missed: list[tuple[int, int]] = []
        with self._rg_lock:
            for key in by_group:
                tbl = self._rg_cache.get(key)
                if tbl is not None:
                    self._rg_cache.move_to_end(key)
                    hit[key] = tbl
                else:
                    missed.append(key)
        if missed:
            # cold groups decode concurrently (Arrow releases the GIL in
            # the parquet reader, so a p95-tail query touching ~10 cold
            # groups pays ~max instead of ~sum of the ~1 ms decodes).
            # One thread per FILE, and each call opens its OWN reader —
            # a ParquetFile handle is not thread-safe, and sharing a
            # cached handle would race if the engine is ever queried
            # from two threads. What IS cached is the parsed footer
            # metadata (immutable, thread-safe): reopening with
            # ``metadata=`` skips the ~100-group footer re-parse that
            # dominated the open cost.
            by_file: dict[int, list[int]] = {}
            for fi, g in missed:
                by_file.setdefault(fi, []).append(g)

            def _read_file(item) -> list[tuple[tuple[int, int], pa.Table]]:
                fi, gs = item
                md = self._pf_cache.get(fi)
                if md is None:
                    md = pq.ParquetFile(files[fi]).metadata
                    self._pf_cache[fi] = md
                pf = pq.ParquetFile(files[fi], metadata=md)
                return [((fi, g), pf.read_row_group(g, columns=cols)) for g in gs]

            if len(by_file) > 1:
                from concurrent.futures import ThreadPoolExecutor

                with self._rg_lock:
                    if self._rg_pool is None:
                        self._rg_pool = ThreadPoolExecutor(max_workers=8)
                read_results = [
                    kv for part in self._rg_pool.map(_read_file, by_file.items())
                    for kv in part
                ]
            else:
                read_results = _read_file(next(iter(by_file.items())))
            with self._rg_lock:
                for key, tbl in read_results:
                    hit[key] = tbl
                    nb = tbl.nbytes
                    # two threads can miss the same group; replace the
                    # older copy's bytes instead of counting both
                    old = self._rg_cache.pop(key, None)
                    if old is not None:
                        self._rg_cache_bytes -= old.nbytes
                    if nb <= self.rg_cache_max_bytes:
                        self._rg_cache[key] = tbl
                        self._rg_cache_bytes += nb
                        while self._rg_cache_bytes > self.rg_cache_max_bytes and self._rg_cache:
                            _, old = self._rg_cache.popitem(last=False)
                            self._rg_cache_bytes -= old.nbytes
        for key, rows in by_group.items():
            taken = hit[key].take(pa.array([r for r, _ in rows], pa.int64()))
            for r in taken.to_pylist():
                out[int(r["doc_id"])] = r
        return out

    def dump_doc_term_tf(self) -> "pa.Table":
        """Full LIVE (doc_id, term, tf) view of the index — base segments
        overlaid with tombstones, the kill map and every delta layer —
        as one Arrow table. A parity/debug surface (the driver's
        ``streaming_ingest`` oracle checks it against SQL over the whole
        corpus); sized for one bucket set in memory. The cluster shape
        is the same loop mapped over buckets as Ray tasks."""
        terms: set[str] = set()
        for f in sorted((self.index_dir / "postings").glob("bucket=*.parquet")):
            terms.update(pq.read_table(f, columns=["term"])["term"].to_pylist())
        terms.update(t for (t, _s) in self._delta_terms)
        ids: list[np.ndarray] = []
        tfs: list[np.ndarray] = []
        out_terms: list[str] = []
        counts: list[int] = []
        for t in sorted(terms):
            d, tf, df = self.term_postings(t, None)
            if df == 0:
                continue
            ids.append(d)
            tfs.append(tf)
            out_terms.append(t)
            counts.append(int(df))
        if not ids:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()),
                 "term": pa.array([], pa.string()),
                 "tf": pa.array([], pa.int64())}
            )
        term_col = np.repeat(np.asarray(out_terms, dtype=object), counts)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(ids), pa.int64()),
                "term": pa.array(term_col, pa.string()),
                "tf": pa.array(np.concatenate(tfs).astype(np.int64), pa.int64()),
            }
        )

    def _live_lemmas_by_site(self) -> dict[int, int]:
        """Exact per-site distinct-(site,term) counts with the update log
        overlaid: a base (site,term) row is live iff its posting list
        minus tombstones is non-empty; delta terms add rows not already
        live. Sandbox loops the buckets driver-side; at cluster scale
        this maps over buckets as Ray tasks (same shape as compaction)."""
        from ..stages.codec import decode_partial_rows

        live: set[tuple[int, str]] = set()
        postings_dir = self.index_dir / "postings"
        for f in sorted(postings_dir.glob("bucket=*.parquet")):
            tbl = pq.read_table(f, columns=["site_id", "term", "df", "doc_gaps", "tf_bytes"])
            if not len(tbl):
                continue
            sids = tbl["site_id"].to_numpy(zero_copy_only=False)
            terms = tbl["term"].to_pylist()
            dfs = tbl["df"].to_numpy(zero_copy_only=False)
            if self._tombstones.size:
                from ..stages.codec import concat_binary_column

                doc_ids, _ = decode_partial_rows(
                    dfs,
                    concat_binary_column(tbl["doc_gaps"]),
                    concat_binary_column(tbl["tf_bytes"]),
                )
                dead = np.isin(doc_ids, self._tombstones)
                run_id = np.repeat(np.arange(len(tbl)), dfs)
                killed = np.bincount(run_id, weights=dead, minlength=len(tbl))
                alive = dfs - killed.astype(np.int64)
            else:
                alive = dfs
            for sid, term, a in zip(sids, terms, alive):
                if a > 0:
                    live.add((int(sid), term))
        for (term, sid) in self._delta_terms:
            # kill-filtered liveness: a fully-killed delta term (its docs
            # all re-replaced later) must not count
            _d, _t, df = self.term_postings(term, int(sid))
            if df > 0:
                live.add((int(sid), term))
        out: dict[int, int] = {}
        for sid, _ in live:
            out[sid] = out.get(sid, 0) + 1
        return out

    def statistics(self) -> dict:
        """A7 (service/StatisticsServiceImpl.java:24-86) over stats.json +
        segment metadata; lemma counts = distinct (site, term) rows.
        Site status/status_time/last_error come from site_status.json
        when a SearchEngineService lifecycle has written one (reference
        semantics: model/SiteEntity.java:11-29, transitions at
        service/IndexingServiceImpl.java:264-284)."""
        from .manifest import read_json

        lemma_by_site: dict[int, int] = {}
        postings_dir = self.index_dir / "postings"
        if self._tombstones.size or self._delta_terms:
            # pending single-page updates: markers are stale until
            # compact() — compute live counts with the overlay
            lemma_by_site = self._live_lemmas_by_site()
        else:
            markers = sorted(postings_dir.glob("bucket=*.done.json"))
            marker_counts = [read_json(m) for m in markers]
            if marker_counts and all(m and "lemmas_by_site" in m for m in marker_counts):
                # per-site counts recorded at segment-write time — no scan
                for m in marker_counts:
                    for sid, cnt in m["lemmas_by_site"].items():
                        lemma_by_site[int(sid)] = lemma_by_site.get(int(sid), 0) + int(cnt)
            else:  # older index: scan segment metadata columns
                for f in sorted(postings_dir.glob("bucket=*.parquet")):
                    tbl = pq.read_table(f, columns=["site_id"])
                    for sid, cnt in zip(*np.unique(tbl["site_id"].to_numpy(zero_copy_only=False), return_counts=True)):
                        lemma_by_site[int(sid)] = lemma_by_site.get(int(sid), 0) + int(cnt)
        status_by_site = (read_json(self.index_dir / "site_status.json") or {}).get("sites", {})
        detailed = []
        for sid, s in sorted(self.sites.items()):
            ss = self.stats["site_stats"].get(str(sid)) or self.stats["site_stats"].get(sid) or {}
            st = status_by_site.get(str(sid)) or status_by_site.get(sid) or {}
            detailed.append(
                {
                    "url": s["url"],
                    "name": s["name"],
                    "status": st.get("status", "INDEXED"),
                    "statusTime": st.get("status_time"),
                    "error": st.get("last_error"),
                    "pages": int(ss.get("n_docs", 0)),
                    "lemmas": lemma_by_site.get(sid, 0),
                }
            )
        return {
            "result": True,
            "statistics": {
                "total": {
                    "sites": len(self.sites),
                    "pages": sum(d["pages"] for d in detailed),
                    "lemmas": sum(d["lemmas"] for d in detailed),
                    "indexing": any(d["status"] == "INDEXING" for d in detailed),
                },
                "detailed": detailed,
            },
        }


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sorted-array intersection (galloping via searchsorted)."""
    if a.size == 0 or b.size == 0:
        return a[:0]
    if a.size > b.size:
        a, b = b, a
    idx = np.searchsorted(b, a)
    idx_clipped = np.clip(idx, 0, b.size - 1)
    return a[b[idx_clipped] == a]


class BatchSearcher:
    """``map_batches`` stage for BATCH query evaluation: each actor holds a
    warm SearchEngine (segment caches amortized across batches) and scores
    a column of query strings — the Dataset-native way to run a query SET,
    complementing the single-query latency path."""

    def __init__(self, index_dir: str, mode: str = "or", float32_scores: bool = False) -> None:
        self.engine = SearchEngine(index_dir, mode=mode, float32_scores=float32_scores)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {"query": [], "n_matched": [], "top_doc_id": [], "top_score": []}
        for q in batch.column("query").to_pylist():
            d, s, _ = self.engine.search_scores(q)
            out["query"].append(q)
            out["n_matched"].append(int(d.size))
            out["top_doc_id"].append(int(d[0]) if d.size else -1)
            out["top_score"].append(round(float(s[0]), 6) if d.size else 0.0)
        return pa.table(
            {
                "query": pa.array(out["query"], pa.string()),
                "n_matched": pa.array(out["n_matched"], pa.int64()),
                "top_doc_id": pa.array(out["top_doc_id"], pa.int64()),
                "top_score": pa.array(out["top_score"], pa.float64()),
            }
        )


def batch_search(queries_ds, index_dir: str, concurrency=(1, 4)):
    """Evaluate a Dataset of query strings against a built index."""
    return queries_ds.map_batches(
        BatchSearcher,
        fn_constructor_kwargs={"index_dir": str(index_dir)},
        batch_format="pyarrow",
        concurrency=concurrency,
    )


class RankingEvaluator:
    """``map_batches`` stage for IR-metric evaluation of the engine's own
    rankings: each actor holds a warm SearchEngine; per query it scores
    the full disjunctive match set, grades every matched doc with a
    DETERMINISTIC synthetic qrel (``md5_u64(query:doc_id) % rel_mod`` —
    the md5 == DuckDB ``md5_number_lower`` bridge, so the SQL oracle
    reproduces the judgments bit-for-bit) and emits MRR over the full
    ranking plus NDCG@k where the ideal ranking is the match set's own
    top-k relevance grades. Ranks order by (round(score,6) desc, doc_id)
    so float summation order can never flip a rank on either side."""

    def __init__(self, index_dir: str, k: int = 10, rel_mod: int = 4) -> None:
        self.engine = SearchEngine(index_dir, float32_scores=False)
        self.k = int(k)
        self.rel_mod = int(rel_mod)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import md5_u64

        out = {"query": [], "n_matched": [], "n_rel": [],
               "mrr": [], "ndcg_at_k": []}
        for q in batch.column("query").to_pylist():
            d, s, _ = self.engine.search_scores(q)
            out["query"].append(q)
            out["n_matched"].append(int(d.size))
            if d.size == 0:
                out["n_rel"].append(0)
                out["mrr"].append(0.0)
                out["ndcg_at_k"].append(0.0)
                continue
            order = np.lexsort((d, -np.round(s, 6)))
            dd = d[order]
            rel = (
                md5_u64([f"{q}:{int(x)}" for x in dd]) % np.uint64(self.rel_mod)
            ).astype(np.int64)
            out["n_rel"].append(int((rel >= 1).sum()))
            hit = np.flatnonzero(rel >= 1)
            out["mrr"].append(
                round(1.0 / float(hit[0] + 1), 6) if hit.size else 0.0
            )
            k = min(self.k, rel.size)
            ranks = np.arange(1, k + 1, dtype=np.float64)
            gains = np.power(2.0, rel[:k].astype(np.float64)) - 1.0
            dcg = float(np.sum(gains / np.log2(ranks + 1.0)))
            ideal = np.sort(rel.astype(np.float64))[::-1][:k]
            idcg = float(
                np.sum((np.power(2.0, ideal) - 1.0) / np.log2(ranks + 1.0))
            )
            out["ndcg_at_k"].append(round(dcg / idcg, 6) if idcg > 0 else 0.0)
        return pa.table(
            {
                "query": pa.array(out["query"], pa.string()),
                "n_matched": pa.array(out["n_matched"], pa.int64()),
                "n_rel": pa.array(out["n_rel"], pa.int64()),
                "mrr": pa.array(out["mrr"], pa.float64()),
                "ndcg_at_k": pa.array(out["ndcg_at_k"], pa.float64()),
            }
        )


def ranking_eval(queries_ds, index_dir: str, k: int = 10, rel_mod: int = 4,
                 concurrency=(1, 4)):
    """Evaluate the engine's rankings against deterministic synthetic
    qrels → (query, n_matched, n_rel, mrr, ndcg_at_k)."""
    return queries_ds.map_batches(
        RankingEvaluator,
        fn_constructor_kwargs={
            "index_dir": str(index_dir), "k": k, "rel_mod": rel_mod,
        },
        batch_format="pyarrow",
        concurrency=concurrency,
    )


class MoreLikeThisBatch:
    """``map_batches`` stage for batch related-document retrieval: each
    actor holds a warm SearchEngine and expands a column of seed doc ids
    into their top-k TF-IDF-similar docs — seed sets in the millions
    stream through the pool, never through the driver."""

    def __init__(self, index_dir: str, k: int = 10) -> None:
        self.engine = SearchEngine(index_dir, float32_scores=False)
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        seeds, docs, ranks, scores = [], [], [], []
        for sid in batch.column("seed_doc_id").to_pylist():
            d, s = self.engine.more_like_this(int(sid), k=self.k)
            seeds.extend([int(sid)] * d.size)
            docs.extend(d.tolist())
            ranks.extend(range(1, d.size + 1))
            scores.extend(np.round(s, 6).tolist())
        return pa.table(
            {
                "seed_doc_id": pa.array(seeds, pa.int64()),
                "doc_id": pa.array(docs, pa.int64()),
                "rank": pa.array(ranks, pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }
        )


def more_like_this_batch(seeds_ds, index_dir: str, k: int = 10, concurrency=(1, 4)):
    """Evaluate a Dataset of seed doc ids → (seed_doc_id, doc_id, rank,
    score) related-document rows."""
    return seeds_ds.map_batches(
        MoreLikeThisBatch,
        fn_constructor_kwargs={"index_dir": str(index_dir), "k": k},
        batch_format="pyarrow",
        concurrency=concurrency,
    )


class QueryActorPool:
    """ST5 query-serving actor pool: each actor holds a SearchEngine with
    warm segment caches; queries round-robin across the pool. This is the
    multi-node serving shape (segment cache per node); tested single-node.

    ``sharded=True`` partitions the DOC STORE across the pool at
    row-group granularity: actor i owns every n-th row group of the
    sorted base shard list (locator IO and memory 1/n per actor — at
    10^12 docs the whole-corpus locator would be ~24 TB per actor, the
    per-shard one ~24 TB / pool). A query's scoring runs on one actor;
    hydration of the top-k page fans out to every actor in parallel
    (each answers from its own subset or returns nothing); the scoring
    actor decorates. Identical responses to the unsharded pool —
    regression-tested.
    """

    def __init__(
        self, index_dir: str, n_actors: int = 4, *, sharded: bool = False,
        **engine_kwargs,
    ) -> None:
        import ray

        # memory-light serving by default: N pool actors must not each
        # load the whole doc store — hydration goes through Parquet
        # locator row-group reads; pass docs_in_memory=True to opt back in
        engine_kwargs.setdefault("docs_in_memory", False)
        self._sharded = bool(sharded)

        @ray.remote(num_cpus=1)
        class _QueryActor:
            def __init__(self, index_dir: str, kw: dict) -> None:
                self.engine = SearchEngine(index_dir, **kw)

            def search(self, query: str, site=None, offset: int = 0, limit: int = 10) -> dict:
                return self.engine.search(query, site=site, offset=offset, limit=limit)

            def search_ranked(self, query: str, site=None, offset: int = 0, limit: int = 10) -> dict:
                return self.engine.search_ranked(query, site=site, offset=offset, limit=limit)

            def hydrate(self, doc_ids: list[int]) -> dict[int, dict]:
                return self.engine.hydrate_docs(doc_ids)

            def decorate(self, query, doc_ids, scores, docs, total) -> dict:
                return self.engine.decorate_response(query, doc_ids, scores, docs, total)

            def locator_size(self) -> int:
                """Number of base docs this actor's locator covers
                (observability + the sharding regression test)."""
                return int(self.engine._doc_locator()[0].size)

            def warm(self, queries: list[str]) -> int:
                for q in queries:
                    self.engine.search(q)
                return len(queries)

        actors = []
        for i in range(n_actors):
            kw = dict(engine_kwargs)
            if self._sharded:
                kw["docs_shard"] = (i, n_actors)
            actors.append(_QueryActor.remote(index_dir, kw))
        self._actors = actors
        self._next = 0

    def _search_sharded(self, actor, query: str, kw: dict) -> dict:
        import ray

        ranked = ray.get(actor.search_ranked.remote(query, **kw))
        if "response" in ranked:
            return ranked["response"]
        ids = ranked["doc_ids"]
        docs: dict[int, dict] = {}
        # every actor probes its own 1/n locator — misses are a cheap
        # searchsorted; exactly one actor owns each base row
        for part in ray.get([a.hydrate.remote(ids) for a in self._actors]):
            docs.update(part)
        return ray.get(
            actor.decorate.remote(query, ids, ranked["scores"], docs, ranked["total"])
        )

    def search(self, query: str, **kw):
        import ray

        actor = self._actors[self._next % len(self._actors)]
        self._next += 1
        if self._sharded:
            return self._search_sharded(actor, query, kw)
        return ray.get(actor.search.remote(query, **kw))

    def locator_sizes(self) -> list[int]:
        import ray

        return ray.get([a.locator_size.remote() for a in self._actors])

    def warm(self, queries: list[str]) -> None:
        import ray

        ray.get([a.warm.remote(queries) for a in self._actors])

    def search_many(self, queries: list[tuple[str, dict]]) -> list[dict]:
        import ray

        if self._sharded:
            return [
                self._search_sharded(self._actors[i % len(self._actors)], q, kw)
                for i, (q, kw) in enumerate(queries)
            ]
        refs = []
        for i, (q, kw) in enumerate(queries):
            refs.append(self._actors[i % len(self._actors)].search.remote(q, **kw))
        return ray.get(refs)


def rrf_fuse(
    rankings: list[tuple[np.ndarray, np.ndarray]],
    k0: int = 60,
    topk: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reciprocal-rank fusion (Cormack/Clarke/Buettcher '09, public
    formulation): fused(d) = Σ_i 1/(k0 + rank_i(d)) over the input
    rankings — the standard hybrid-search combiner (e.g. BM25 ⊕ dense
    retrieval) that needs no score calibration. Each ranking is
    (doc_ids, scores); ranks are 1-based over (ROUND(score, 6) desc,
    doc_id) so they are float-order-proof and SQL-mirrorable. Docs
    absent from a ranking contribute no term (RRF over the union).

    → (doc_ids, fused scores ROUND 9) ordered (fused desc, doc_id),
    truncated to ``topk``. Fully vectorized; the per-doc addend order
    follows the rankings list, matching the SQL mirror's ``+`` chain."""
    doc_parts, w_parts = [], []
    for docs, scores in rankings:
        docs = np.asarray(docs, dtype=np.int64)
        r = np.round(np.asarray(scores, dtype=np.float64), 6)
        order = np.lexsort((docs, -r))
        rank_of = np.empty(len(docs), np.int64)
        rank_of[order] = np.arange(1, len(docs) + 1)
        doc_parts.append(docs)
        w_parts.append(1.0 / (float(k0) + rank_of))
    if not doc_parts:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    cat_d = np.concatenate(doc_parts)
    cat_w = np.concatenate(w_parts)
    uniq, inv = np.unique(cat_d, return_inverse=True)
    fused = np.zeros(len(uniq), np.float64)
    np.add.at(fused, inv, cat_w)
    rounded = np.round(fused, 9)
    order = np.lexsort((uniq, -rounded))
    if topk is not None:
        order = order[: max(int(topk), 0)]
    return uniq[order], rounded[order]
