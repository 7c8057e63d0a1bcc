"""Text-analysis operators for large-scale training-data pipelines:
token counting, quality scoring, document fingerprinting, language ID.

These extend the reference's operator set (SURVEY §2 covers none of
them) with the ops a 100 TB web-text pipeline needs; all are stateless
vectorized ``map_batches`` stages over the ``documents``/docs schema and
share the engine's tokenizer semantics (M2) so downstream indexing and
analysis agree on what a token is.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..stages.tokenizer import token_lists

# Tiny per-language stopword lists for the n-gram/stopword-hit language
# heuristic (public common-word lists; deliberately small — this is a
# heuristic scorer, not a model).
_LANG_STOPWORDS: dict[str, frozenset[str]] = {
    "en": frozenset(["the", "of", "and", "to", "in", "a", "is", "that", "it", "for", "on", "with", "as", "are", "this", "by"]),
    "ru": frozenset(["и", "в", "не", "на", "что", "с", "это", "как", "по", "но", "из", "у", "за", "для", "то", "же"]),
    "de": frozenset(["der", "die", "und", "das", "ist", "nicht", "mit", "ein", "zu", "den", "von", "für", "auf", "im"]),
    "es": frozenset(["el", "la", "de", "que", "y", "en", "un", "una", "es", "no", "los", "se", "por", "con", "para"]),
    "fr": frozenset(["le", "la", "de", "et", "les", "des", "un", "une", "est", "pas", "que", "dans", "pour", "sur"]),
}


def _tokens_per_row(batch: pa.Table, text_col: str) -> tuple[list[list[str]], pa.Table]:
    lists = token_lists(batch.column(text_col))
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    return [[t for t in row if t] for row in lists.to_pylist()], batch


def token_count_stage(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """(doc_id, n_tokens) — whitespace/letter tokenization (M2 semantics)."""
    from ..stages.tokenizer import token_counts

    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_tokens": pa.array(token_counts(batch.column(text_col)), type=pa.int64()),
        }
    )


def quality_stage(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Per-doc quality signals: token count, distinct terms, mean token
    length, text length — the filterable stats of a data-quality pass.

    Vectorized over the flat token array: mean token length is a
    weighted ``np.bincount`` over the parent index (char lengths are
    integers, so the float64 sum is EXACT and order-independent —
    bit-identical to the per-doc ``np.mean`` it replaced); distinct
    terms per doc come from one dictionary-encode + ``np.unique`` over
    the combined (parent, code) key. No per-doc Python."""
    from ..functions.hashing import flat_nonempty_tokens

    n = len(batch)
    toks, parents, counts = flat_nonempty_tokens(batch.column(text_col))
    n_tokens = counts
    if len(toks):
        tok_lens = pc.utf8_length(toks).to_numpy(zero_copy_only=False).astype(np.float64)
        len_sums = np.bincount(parents, weights=tok_lens, minlength=n)
        denc = toks.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        key = parents * np.int64(len(denc.dictionary)) + codes
        n_unique = np.bincount(
            np.unique(key) // np.int64(len(denc.dictionary)), minlength=n
        ).astype(np.int64)
    else:
        len_sums = np.zeros(n, dtype=np.float64)
        n_unique = np.zeros(n, dtype=np.int64)
    avg_len = np.where(counts > 0, len_sums / np.maximum(counts, 1), 0.0)
    n_chars = pc.utf8_length(batch.column(text_col))
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_tokens": pa.array(n_tokens),
            "n_unique_terms": pa.array(n_unique),
            "avg_token_len": pa.array(np.round(avg_len, 6)),
            "text_len": pc.cast(n_chars, pa.int64()),
        }
    )


def fingerprint_stage(batch: pa.Table, text_col: str = "text", id_col: str = "doc_id") -> pa.Table:
    """Deterministic content fingerprint: md5 over the normalized token
    stream (lowercased, punctuation/digit separators removed) — invariant
    to formatting noise, the key for exact near-layout dedup."""
    toks, _ = _tokens_per_row(batch, text_col)
    fps = [hashlib.md5(" ".join(t).encode("utf-8")).hexdigest() for t in toks]
    return pa.table(
        {
            id_col: batch.column(id_col),
            "fingerprint": pa.array(fps, type=pa.string()),
        }
    )


class LangId:
    """Actor-pool language-ID stage: stopword-hit scoring over the M2
    token stream. Wordlists become Arrow value sets once per actor
    (__init__); scoring is ONE ``pc.is_in`` C-kernel pass over the flat
    token array per language + ``np.bincount`` over the parent index —
    no per-doc (let alone per-token) Python in the hot path."""

    def __init__(self) -> None:
        self.langs = list(_LANG_STOPWORDS)
        self.value_sets = [
            pa.array(sorted(_LANG_STOPWORDS[lg]), pa.string()) for lg in self.langs
        ]

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import flat_nonempty_tokens

        n = len(batch)
        toks, parents, counts = flat_nonempty_tokens(batch.column("text"))
        hits = np.zeros((len(self.langs), n), dtype=np.int64)
        if len(toks):
            for li, vs in enumerate(self.value_sets):
                mask = pc.is_in(toks, value_set=vs).to_numpy(zero_copy_only=False)
                if mask.any():
                    hits[li] = np.bincount(parents[mask], minlength=n)
        best = hits.argmax(axis=0)  # ties → lowest language index
        best_hits = hits[best, np.arange(n)]
        known = best_hits > 0
        preds = np.where(known, np.asarray(self.langs, dtype=object)[best], "unknown")
        conf = np.where(
            known, np.round(best_hits / np.maximum(counts, 1), 6), 0.0
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "pred_lang": pa.array(preds.tolist(), type=pa.string()),
                "confidence": pa.array(conf, type=pa.float64()),
            }
        )


class PhraseScan:
    """Exact phrase-occurrence scan — the benchmark-contamination /
    quote-detection primitive of a training-data pipeline: count, per
    document, the occurrences of each probe phrase (an ordered,
    adjacent M2-token sequence; overlapping occurrences count).

    Embarrassingly parallel — a stateless full scan with NO shuffle:
    probes are normalized through the document tokenizer once per actor
    (``__init__``); per batch, matching is one ``pc.equal`` C-kernel
    pass per (phrase, token-position) over the flat token array,
    shifted ANDs for adjacency, a same-parent guard across the window,
    and ``np.bincount`` per doc — no per-row Python. At 100 TB this is
    a single map over the corpus; probe sets in the thousands stay a
    per-actor constant (broadcast once, never re-shipped per batch).
    """

    def __init__(self, phrases: list[str], text_col: str = "text", id_col: str = "doc_id") -> None:
        from ..stages.tokenizer import token_lists

        norm = token_lists(pa.array(list(phrases), pa.string()))
        if isinstance(norm, pa.ChunkedArray):
            norm = norm.combine_chunks()
        self.phrases = [[t for t in row if t] for row in norm.to_pylist()]
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import flat_nonempty_tokens

        doc_ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        n = len(batch)
        toks, parents, _ = flat_nonempty_tokens(batch.column(self.text_col))
        n_tok = len(toks)
        out_doc: list[np.ndarray] = []
        out_pid: list[np.ndarray] = []
        out_cnt: list[np.ndarray] = []
        # one equality pass per distinct probe token, shared across
        # phrases (probe vocabularies overlap heavily in practice)
        eq_cache: dict[str, np.ndarray] = {}

        def eq(word: str) -> np.ndarray:
            m = eq_cache.get(word)
            if m is None:
                m = pc.equal(toks, word).to_numpy(zero_copy_only=False)
                eq_cache[word] = m
            return m

        for pid, words in enumerate(self.phrases):
            m = len(words)
            if m == 0 or n_tok < m:
                continue
            w = n_tok - m + 1  # candidate window starts
            match = eq(words[0])[:w].copy()
            for j in range(1, m):
                if not match.any():
                    break
                match &= eq(words[j])[j : j + w]
            if m > 1:
                match &= parents[:w] == parents[m - 1 :]
            if not match.any():
                continue
            counts = np.bincount(parents[:w][match], minlength=n)
            hit = np.nonzero(counts)[0]
            out_doc.append(doc_ids[hit])
            out_pid.append(np.full(hit.size, pid, dtype=np.int32))
            out_cnt.append(counts[hit].astype(np.int64))
        if out_doc:
            return pa.table(
                {
                    self.id_col: pa.array(np.concatenate(out_doc), pa.int64()),
                    "phrase_id": pa.array(np.concatenate(out_pid), pa.int32()),
                    "n_occurrences": pa.array(np.concatenate(out_cnt), pa.int64()),
                }
            )
        return pa.table(
            {
                self.id_col: pa.array([], pa.int64()),
                "phrase_id": pa.array([], pa.int32()),
                "n_occurrences": pa.array([], pa.int64()),
            }
        )


def phrase_scan_ds(
    documents: rd.Dataset, phrases: list[str], concurrency=(1, 4)
) -> rd.Dataset:
    """(doc_id, phrase_id, n_occurrences) for every document containing
    a probe phrase — see :class:`PhraseScan`."""
    from ..stages.taskpool import cached_kernel_map

    return cached_kernel_map(documents, PhraseScan, {"phrases": tuple(phrases)})


def token_counts_ds(documents: rd.Dataset) -> rd.Dataset:
    return documents.map_batches(token_count_stage, batch_format="pyarrow")


def quality_ds(documents: rd.Dataset) -> rd.Dataset:
    return documents.map_batches(quality_stage, batch_format="pyarrow")


def fingerprints_ds(documents: rd.Dataset) -> rd.Dataset:
    return documents.map_batches(fingerprint_stage, batch_format="pyarrow")


def langid_ds(documents: rd.Dataset, concurrency=None) -> rd.Dataset:
    """LangId pass as cached-kernel tasks (stages/taskpool.py): wordlist
    value sets build once per worker process; ``concurrency`` accepted
    for API compatibility and ignored (tasks autoscale)."""
    from ..stages.taskpool import cached_kernel_map

    return cached_kernel_map(documents, LangId)


def sample_by_hash_stage(
    batch: pa.Table,
    rate_pct: int = 10,
    salt: str = "ses-sample",
    id_col: str = "doc_id",
    keep_cols: tuple[str, ...] = ("doc_id", "source"),
) -> pa.Table:
    """Deterministic hash sampling: keep a row iff
    ``md5_u64(str(id) + ':' + salt) % 100 < rate_pct`` — the
    reproducible subsampling primitive of a training-data pipeline
    (same salt ⇒ same sample on every run, any cluster size, and the
    sample of a superset contains the sample of its subset). SQL
    mirror: ``md5_number_lower(doc_id::VARCHAR || ':salt') % 100``."""
    from ..functions.hashing import md5_u64

    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    keys = [f"{i}:{salt}" for i in ids.tolist()]
    keep = (md5_u64(keys) % np.uint64(100)) < rate_pct
    return batch.select(list(keep_cols)).filter(pa.array(keep))


def sample_by_hash_ds(
    documents: rd.Dataset, rate_pct: int = 10, salt: str = "ses-sample"
) -> rd.Dataset:
    """→ (doc_id, source) of the deterministic ``rate_pct``% sample —
    a stateless shuffle-free scan (column-pruned before the filter)."""
    return documents.select_columns(["doc_id", "source"]).map_batches(
        lambda b: sample_by_hash_stage(b, rate_pct=rate_pct, salt=salt),
        batch_format="pyarrow",
    )


def top_terms_per_source_ds(
    documents: rd.Dataset, k: int = 5, n_buckets: int = 32
) -> rd.Dataset:
    """→ (source, term, tf, rank): the k highest-total-tf terms per
    source (ties broken term-ascending) — the corpus-profiling /
    vocabulary-drift operator.

    Scale shape: per-batch Arrow ``group_by`` pre-aggregates
    (source, term) partials BEFORE the shuffle (the combiner), so the
    exchange moves per-batch vocabularies, not token occurrences; the
    reduce is bucketed by source and each bucket resolves all its
    sources in one vectorized pandas pass — at web scale the per-source
    vocabulary is the only thing that must co-locate."""
    from ..functions.hashing import flat_nonempty_tokens
    from ..stages.grouping import bucketed_group_apply

    def partials(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        src = batch.column("source").take(pa.array(parents))
        tbl = pa.table({"source": src, "term": toks})
        counted = tbl.group_by(["source", "term"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": counted["source"],
                "term": counted["term"],
                "cnt": pc.cast(counted["count_all"], pa.int64()),
            }
        )

    parts = documents.select_columns(["source", "text"]).map_batches(
        partials, batch_format="pyarrow"
    )

    def bucket_fn(bucket):
        import pandas as pd

        agg = (
            bucket.groupby(["source", "term"], sort=False)["cnt"]
            .sum()
            .reset_index()
            .rename(columns={"cnt": "tf"})
        )
        agg = agg.sort_values(
            ["source", "tf", "term"], ascending=[True, False, True], kind="mergesort"
        )
        agg["rank"] = agg.groupby("source", sort=False).cumcount() + 1
        out = agg[agg["rank"] <= k].reset_index(drop=True)
        out["tf"] = out["tf"].astype("int64")
        out["rank"] = out["rank"].astype("int64")
        return out

    return bucketed_group_apply(parts, ["source"], bucket_fn, n_buckets=n_buckets)


def doclen_quantiles(
    documents: rd.Dataset, ps: tuple[float, ...] = (0.25, 0.5, 0.75, 0.9, 0.99)
) -> pa.Table:
    """→ (p, n_tokens): EXACT percentile_disc of the per-doc token count
    — the length-distribution probe that sizes context windows and
    truncation budgets.

    Distributed as a counting sort: each batch emits (n_tokens, cnt)
    value-count partials, one bucketed reduce sums them, and only the
    distinct-length histogram (bounded by max doc length, never by
    corpus size) reaches the driver, where the disc quantile is read
    off the cumulative counts with DuckDB's exact semantics: the value
    at 1-based rank ``max(1, ceil(p·N))`` in sorted order."""
    import math

    from ..stages.grouping import bucketed_group_apply
    from ..stages.tokenizer import token_counts

    def partials(batch: pa.Table) -> pa.Table:
        nt = token_counts(batch.column("text"))
        vals, cnts = np.unique(nt, return_counts=True)
        return pa.table(
            {
                "n_tokens": pa.array(vals.astype(np.int64)),
                "cnt": pa.array(cnts.astype(np.int64)),
            }
        )

    parts = documents.select_columns(["text"]).map_batches(
        partials, batch_format="pyarrow"
    )
    hist = bucketed_group_apply(
        parts,
        ["n_tokens"],
        lambda b: b.groupby("n_tokens", sort=False)["cnt"].sum().reset_index(),
        n_buckets=8,
    ).to_pandas()  # distinct lengths only — small by construction
    hist = hist.sort_values("n_tokens").reset_index(drop=True)
    vals = hist["n_tokens"].to_numpy(np.int64)
    cum = hist["cnt"].to_numpy(np.int64).cumsum()
    total = int(cum[-1]) if len(cum) else 0
    out_p, out_v = [], []
    for p in ps:
        if total == 0:
            continue
        rank = max(1, math.ceil(p * total))  # double math == DuckDB's
        out_p.append(float(p))
        out_v.append(int(vals[np.searchsorted(cum, rank, side="left")]))
    return pa.table(
        {
            "p": pa.array(out_p, pa.float64()),
            "n_tokens": pa.array(out_v, pa.int64()),
        }
    )


class HllPartial:
    """Actor-pool HyperLogLog partial stage: per batch, M2-tokenize,
    md5-hash tokens (cached per actor via TokenHasher), split each hash
    into (register = top ``precision`` bits, rho = leading-zero run of
    the remaining bits + 1), and pre-aggregate max(rho) per
    (key, register) — the shuffle moves at most keys × 2^precision rows
    per batch, never token rows. rho from an exact integer bit length
    (frexp per 32-bit half — a single float64 frexp is only exact below
    2^53, which precision ≤ 10 exceeds)."""

    def __init__(self, precision: int = 12, key_col: str = "source", text_col: str = "text") -> None:
        from ..functions.hashing import TokenHasher

        if not 4 <= precision <= 16:
            raise ValueError("precision must be in [4, 16]")
        self.p = precision
        self.key_col = key_col
        self.text_col = text_col
        self.hasher = TokenHasher()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import flat_nonempty_tokens

        p = self.p
        field = 64 - p
        toks, parents, _counts = flat_nonempty_tokens(batch.column(self.text_col))
        if not len(toks):
            return pa.table(
                {
                    self.key_col: pa.array([], batch.column(self.key_col).type),
                    "register": pa.array([], pa.int64()),
                    "rho": pa.array([], pa.int64()),
                }
            )
        h = self.hasher.hash_tokens(toks)
        reg = (h >> np.uint64(field)).astype(np.int64)
        w = h & np.uint64((1 << field) - 1)
        # exact integer bit_length via two 32-bit halves: frexp on a
        # float64 is only exact below 2^53, and with precision ≤ 10 the
        # field is ≥ 54 bits — a w just under a power of two would
        # round UP and understate rho
        hi = (w >> np.uint64(32)).astype(np.float64)
        lo = (w & np.uint64(0xFFFFFFFF)).astype(np.float64)
        _, ehi = np.frexp(hi)
        _, elo = np.frexp(lo)
        bl = np.where(hi > 0, ehi + 32, elo)  # bit_length(w); 0 for w == 0
        rho = (field + 1 - bl).astype(np.int64)
        t = pa.table(
            {
                self.key_col: batch.column(self.key_col).take(pa.array(parents)),
                "register": pa.array(reg),
                "rho": pa.array(rho),
            }
        )
        return t.group_by([self.key_col, "register"]).aggregate(
            [("rho", "max")]
        ).rename_columns([self.key_col, "register", "rho"])


def hll_distinct_tokens(
    documents: rd.Dataset,
    precision: int = 12,
    key_col: str = "source",
    text_col: str = "text",
) -> rd.Dataset:
    """Approximate distinct-token count per key — a HyperLogLog sketch
    whose registers are a DETERMINISTIC function of the token set
    (md5-derived hashing), so registers AND estimate are replicated
    bit-for-bit by a DuckDB SQL oracle (the rare honest way to
    oracle-check an approximate sketch).

    → (key, registers_set:int64, hll_distinct:float64 r6). Estimate is
    the classic HLL formula with the linear-counting small-range
    correction; the 2^-rho sum is carried as an exact INTEGER
    (Σ 2^(field+1-rho), fits well under 2^(field+1+precision)) so both
    sides round to double identically. No large-range correction: with
    64-bit hashes collisions are negligible at any realistic scale."""
    import math

    if not 4 <= precision <= 16:
        raise ValueError("precision must be in [4, 16]")
    m = 1 << precision
    field = 64 - precision
    alpha = 0.7213 / (1.0 + 1.079 / m)

    from ..stages.taskpool import cached_kernel_map

    partials = cached_kernel_map(
        documents, HllPartial,
        {"precision": precision, "key_col": key_col, "text_col": text_col},
    )
    regs = partials.groupby([key_col, "register"]).max("rho")

    def finish(group: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        key = group[key_col].iloc[0]
        rhos = group["max(rho)"].to_numpy(np.int64)
        n_set = int(len(rhos))
        s = int(sum(1 << (field + 1 - int(r)) for r in rhos))
        s += (m - n_set) * (1 << (field + 1))  # untouched registers: rho=0
        e_raw = alpha * m * m * float(1 << (field + 1)) / float(s)
        zeros = m - n_set
        if e_raw <= 2.5 * m and zeros > 0:
            est = m * math.log(m / zeros)
        else:
            est = e_raw
        return pd.DataFrame(
            {key_col: [key], "registers_set": np.array([n_set], np.int64),
             "hll_distinct": np.array([round(est, 6)], np.float64)}
        )

    return regs.groupby(key_col).map_groups(finish, batch_format="pandas")


def repetition_stage(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """Per-doc repetition signals (Gopher-rule shape, arXiv:2112.11446
    §A1.1 — token-level because this corpus has no line structure):

    * ``top_token_frac`` — occurrences of the single most frequent term
      over all term occurrences (high ⇒ keyword-stuffed / boilerplate);
    * ``dup_bigram_frac`` — fraction of adjacent-bigram occurrences
      whose bigram occurs ≥ 2× within the document (high ⇒ looping or
      templated text).

    Shuffle-free stateless scan; everything within-doc. Vectorized via
    one dictionary-encode of the flat token array + ``np.lexsort``
    run-length passes over (parent, code[, code2]) — no per-doc Python,
    no cross-doc state. Fractions are plain float64 divisions of exact
    integer counts, so the SQL mirror divides to the identical double.
    """
    from ..functions.hashing import flat_nonempty_tokens

    n = len(batch)
    toks, parents, counts = flat_nonempty_tokens(batch.column(text_col))
    top_c = np.zeros(n, dtype=np.int64)
    n_bigrams = np.zeros(n, dtype=np.int64)
    dup_bg = np.zeros(n, dtype=np.int64)
    if len(toks):
        denc = toks.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # most-frequent-term count per doc: sort (parent, code), run-length
        order = np.lexsort((codes, parents))
        sp, sc = parents[order], codes[order]
        new_run = np.empty(len(sp), dtype=bool)
        new_run[0] = True
        np.not_equal(sp[1:], sp[:-1], out=new_run[1:])
        new_run[1:] |= sc[1:] != sc[:-1]
        starts = np.flatnonzero(new_run)
        run_len = np.diff(np.append(starts, len(sp)))
        np.maximum.at(top_c, sp[starts], run_len)
        # adjacent bigrams (same doc): run-length over (parent, a, b)
        adj = parents[:-1] == parents[1:]
        if adj.any():
            bp = parents[:-1][adj]
            ba = codes[:-1][adj]
            bb = codes[1:][adj]
            order = np.lexsort((bb, ba, bp))
            sp, sa, sb = bp[order], ba[order], bb[order]
            new_run = np.empty(len(sp), dtype=bool)
            new_run[0] = True
            np.not_equal(sp[1:], sp[:-1], out=new_run[1:])
            new_run[1:] |= (sa[1:] != sa[:-1]) | (sb[1:] != sb[:-1])
            starts = np.flatnonzero(new_run)
            run_len = np.diff(np.append(starts, len(sp)))
            n_bigrams = np.bincount(bp, minlength=n).astype(np.int64)
            dup_runs = run_len >= 2
            np.add.at(dup_bg, sp[starts][dup_runs], run_len[dup_runs])
    top_frac = np.where(counts > 0, top_c / np.maximum(counts, 1), 0.0)
    dup_frac = np.where(n_bigrams > 0, dup_bg / np.maximum(n_bigrams, 1), 0.0)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_tokens": pa.array(counts.astype(np.int64)),
            "top_token_frac": pa.array(top_frac, pa.float64()),
            "n_bigrams": pa.array(n_bigrams),
            "dup_bigram_frac": pa.array(dup_frac, pa.float64()),
        }
    )


def repetition_ds(documents: rd.Dataset) -> rd.Dataset:
    return documents.select_columns(["doc_id", "text"]).map_batches(
        repetition_stage, batch_format="pyarrow"
    )


def term_bigrams_ds(documents: rd.Dataset) -> rd.Dataset:
    """→ (term_a, term_b, cnt): global adjacent-token bigram counts —
    the co-occurrence / n-gram-LM statistics pass of a corpus profile.

    Scale shape: per-batch Arrow ``group_by`` pre-aggregates bigram
    partials BEFORE the shuffle (the combiner — the exchange moves
    per-batch bigram vocabularies, never token occurrences), then one
    groupby-sum on (term_a, term_b). Bigram vocabulary grows ~linearly
    with true vocabulary, not corpus size, so the reduce side stays
    small at any scale."""
    from ..functions.hashing import flat_nonempty_tokens

    def partials(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        empty = pa.table(
            {
                "term_a": pa.array([], pa.string()),
                "term_b": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        if len(toks) < 2:
            return empty
        adj = parents[:-1] == parents[1:]
        if not adj.any():
            return empty
        idx = np.flatnonzero(adj)
        t = pa.table(
            {
                "term_a": toks.take(pa.array(idx)),
                "term_b": toks.take(pa.array(idx + 1)),
            }
        )
        c = t.group_by(["term_a", "term_b"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "term_a": c["term_a"],
                "term_b": c["term_b"],
                "cnt": pc.cast(c["count_all"], pa.int64()),
            }
        )

    parts = documents.select_columns(["text"]).map_batches(
        partials, batch_format="pyarrow"
    )
    out = parts.groupby(["term_a", "term_b"]).sum("cnt")
    return out.map_batches(
        lambda t: pa.table(
            {
                "term_a": t["term_a"],
                "term_b": t["term_b"],
                "cnt": pc.cast(t["sum(cnt)"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def stratified_sample_ds(
    documents: rd.Dataset,
    k: int = 3,
    salt: str = "ses-strat",
    key_col: str = "source",
    id_col: str = "doc_id",
    n_buckets: int = 32,
) -> rd.Dataset:
    """→ (source, doc_id, rank): the k docs per source with the smallest
    ``md5_u64(str(doc_id) + ':' + salt)`` — deterministic stratified
    sampling (eval-set carving, per-domain quota sampling). Same salt ⇒
    same sample at any cluster size, and adding MORE docs to a source
    only ever replaces hash-larger picks (bottom-k stability).

    Scale shape: each batch keeps ≤ k rows per source it touches (a
    vectorized lexsort + group-head pass), so the exchange moves
    ≤ k × sources_per_batch slim rows; the bucketed reduce re-runs the
    identical bottom-k per source. Ties (hash collisions) break
    doc_id-ascending on both sides."""
    from ..functions.hashing import md5_u64

    def partial_topk(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        h = md5_u64([f"{i}:{salt}" for i in ids.tolist()])
        src = batch.column(key_col)
        denc = src.dictionary_encode()
        if isinstance(denc, pa.ChunkedArray):
            denc = denc.combine_chunks()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ids, h, codes))
        sc = codes[order]
        new_grp = np.empty(len(sc), dtype=bool)
        if len(sc):
            new_grp[0] = True
            np.not_equal(sc[1:], sc[:-1], out=new_grp[1:])
        pos_in_grp = np.arange(len(sc)) - np.maximum.accumulate(
            np.where(new_grp, np.arange(len(sc)), 0)
        )
        keep = order[pos_in_grp < k]
        return pa.table(
            {
                key_col: src.take(pa.array(keep)),
                id_col: pa.array(ids[keep], pa.int64()),
                "h": pa.array(h[keep].astype(np.uint64), pa.uint64()),
            }
        )

    from ..stages.grouping import bucketed_group_apply

    parts = documents.select_columns([key_col, id_col]).map_batches(
        partial_topk, batch_format="pyarrow"
    )

    def bucket_fn(bucket):
        bucket = bucket.sort_values(
            [key_col, "h", id_col], kind="mergesort"
        ).reset_index(drop=True)
        bucket["rank"] = bucket.groupby(key_col, sort=False).cumcount() + 1
        out = bucket[bucket["rank"] <= k][[key_col, id_col, "rank"]].copy()
        out["rank"] = out["rank"].astype("int64")
        return out

    return bucketed_group_apply(parts, [key_col], bucket_fn, n_buckets=n_buckets)


# GPT-2-style byte-pair-encoding PRE-tokenizer pattern, RE2-compatible
# (the original's trailing-whitespace negative lookahead is dropped —
# RE2 has no lookahead; pyarrow count_substring_regex and DuckDB
# regexp_extract_all are both RE2, so both sides match identically).
BPE_PRETOKEN_PATTERN = r"'(?:[sdmt]|ll|ve|re)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+|\s+"


def bpe_token_count_stage(
    batch: pa.Table, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """(doc_id, n_bpe_tokens): BPE-ish pre-token count — the token-budget
    estimator a training-data pipeline sizes batches/contexts with (each
    pre-token maps to >= 1 BPE token, so this is the lower bound an
    actual merges-table would refine). ONE RE2 C-kernel pass per batch
    (``pc.count_substring_regex``), no Python in the loop."""
    counts = pc.count_substring_regex(batch.column(text_col), pattern=BPE_PRETOKEN_PATTERN)
    return pa.table(
        {
            id_col: batch.column(id_col),
            "n_bpe_tokens": pc.cast(counts, pa.int64()),
        }
    )


def bpe_token_counts_ds(documents: rd.Dataset) -> rd.Dataset:
    return documents.select_columns(["doc_id", "text"]).map_batches(
        bpe_token_count_stage, batch_format="pyarrow"
    )


def doc_keywords_ds(documents: rd.Dataset, k: int = 3) -> rd.Dataset:
    """→ (doc_id, term, tfidf, rank): the k highest-tf·idf terms per
    document (ties term-ascending) — keyword extraction / doc tagging.

    Scale shape: the corpus-level statistics (per-term df and the
    indexed-doc count N) are computed ONCE with a distributed groupby
    whose output is vocabulary-sized, then broadcast via ``ray.put`` and
    read inside every map task (never re-shipped per batch); the per-doc
    top-k itself is a shuffle-free vectorized scan (one lexsort +
    group-head pass per batch). idf is the A4 formula ln((N+1)/(df+1))."""
    import math

    import ray

    from ..functions.hashing import flat_nonempty_tokens

    def _tf_partials(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return pa.table(
                {"term": pa.array([], pa.string()), "doc_id": pa.array([], pa.int64())}
            )
        denc = toks.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nv = len(denc.dictionary)
        ukey = np.unique(parents * np.int64(nv) + codes)
        return pa.table(
            {
                "term": denc.dictionary.take(pa.array((ukey % nv).astype(np.int64))),
                "doc_id": batch.column("doc_id").take(
                    pa.array((ukey // nv).astype(np.int64))
                ),
            }
        )

    # materialize the slim (term, doc_id) pairs ONCE — both statistics
    # (df groupby and the distinct-doc count) read the cached blocks
    # instead of tokenizing the corpus twice
    pres = documents.select_columns(["doc_id", "text"]).map_batches(
        _tf_partials, batch_format="pyarrow"
    ).materialize()
    dft = pres.groupby("term").count().to_pandas()  # vocabulary-sized
    n_total = len(pres.unique("doc_id"))
    idf = {
        t: math.log((n_total + 1) / (int(c) + 1))
        for t, c in zip(dft["term"], dft["count()"])
    }
    idf_ref = ray.put(idf)

    def topk(batch: pa.Table) -> pa.Table:
        import ray as _ray

        idf_map = _ray.get(idf_ref)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "tfidf": pa.array([], pa.float64()),
                "rank": pa.array([], pa.int64()),
            }
        )
        if not len(toks):
            return empty
        # per-(doc, term) tf via one unique pass over combined keys;
        # tie-break codes are made ORDER-PRESERVING by ranking the
        # (distinct-only) dictionary — UTF-8 byte order == codepoint
        # order, so Python sorting matches DuckDB VARCHAR ordering
        denc = toks.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = np.asarray(denc.dictionary.to_pylist(), dtype=object)
        nv = len(vocab)
        rank_of = np.empty(nv, np.int64)
        rank_of[np.argsort(vocab)] = np.arange(nv)
        key = parents * np.int64(nv) + rank_of[codes]
        ukey, tf = np.unique(key, return_counts=True)
        up = (ukey // nv).astype(np.int64)
        uc = (ukey % nv).astype(np.int64)  # order-preserving term codes
        vocab_sorted = vocab[np.argsort(vocab)]
        idf_arr = np.array([idf_map[t] for t in vocab_sorted], np.float64)
        uniq_terms = vocab_sorted
        w = tf.astype(np.float64) * idf_arr[uc]
        order = np.lexsort((uc, -w, up))
        sp = up[order]
        new_grp = np.empty(len(sp), dtype=bool)
        new_grp[0] = True
        np.not_equal(sp[1:], sp[:-1], out=new_grp[1:])
        pos = np.arange(len(sp)) - np.maximum.accumulate(
            np.where(new_grp, np.arange(len(sp)), 0)
        )
        keep = order[pos < k]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[up[keep]], pa.int64()),
                "term": pa.array(uniq_terms[uc[keep]].tolist(), pa.string()),
                "tfidf": pa.array(np.round(w[keep], 6), pa.float64()),
                "rank": pa.array((pos[pos < k] + 1).astype(np.int64)),
            }
        )

    return documents.select_columns(["doc_id", "text"]).map_batches(
        topk, batch_format="pyarrow"
    )


def bigram_pmi_ds(
    documents: rd.Dataset, min_cnt: int = 5
) -> rd.Dataset:
    """→ (term_a, term_b, cnt, pmi): pointwise mutual information of
    adjacent bigrams with ``cnt >= min_cnt`` — collocation mining
    (multi-word expressions, tokenizer-merge candidates).

    pmi = ln( (c_ab/T_bi) / ((c_a/T_uni)·(c_b/T_uni)) ), computed with
    this exact division/multiplication shape on both sides so the SQL
    mirror produces identical doubles (round 6).

    Scale shape: ONE fused tokenize pass emits BOTH unigram and bigram
    per-batch combiners into a single (term_a, term_b) exchange —
    unigram rows ride with the empty-string sentinel in ``term_b`` (a
    real token can never be empty). After the reduce the vocabulary-
    sized unigram slice is collected and broadcast via ``ray.put``;
    bigram rows STAY a Dataset. Halves the tokenize work and the
    exchange count of the previous two-pass layout."""
    import ray

    from ..functions.hashing import flat_nonempty_tokens

    empty_out = pa.table(
        {
            "term_a": pa.array([], pa.string()),
            "term_b": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
            "pmi": pa.array([], pa.float64()),
        }
    )

    def fused_partials(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        empty = pa.table(
            {
                "term_a": pa.array([], pa.string()),
                "term_b": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        if not len(toks):
            return empty
        parts = []
        u = pa.table({"term_a": toks}).group_by(["term_a"]).aggregate([([], "count_all")])
        parts.append(
            pa.table(
                {
                    "term_a": u["term_a"],
                    "term_b": pa.array([""] * len(u), pa.string()),
                    "cnt": pc.cast(u["count_all"], pa.int64()),
                }
            )
        )
        if len(toks) >= 2:
            adj = parents[:-1] == parents[1:]
            if adj.any():
                idx = np.flatnonzero(adj)
                t = pa.table(
                    {
                        "term_a": toks.take(pa.array(idx)),
                        "term_b": toks.take(pa.array(idx + 1)),
                    }
                )
                c = t.group_by(["term_a", "term_b"]).aggregate([([], "count_all")])
                parts.append(
                    pa.table(
                        {
                            "term_a": c["term_a"],
                            "term_b": c["term_b"],
                            "cnt": pc.cast(c["count_all"], pa.int64()),
                        }
                    )
                )
        return pa.concat_tables(parts)

    counted = (
        documents.select_columns(["text"])
        .map_batches(fused_partials, batch_format="pyarrow")
        .groupby(["term_a", "term_b"])
        .sum("cnt")
        .materialize()
    )

    # split: sentinel rows are the unigram vocabulary (bounded) — collect
    uni_parts, t_uni_i, t_bi_i = [], 0, 0
    for t in ray.get(counted.materialize().to_arrow_refs()):
        if not len(t):
            continue
        is_uni = pc.equal(t.column("term_b"), "")
        u = t.filter(is_uni)
        if len(u):
            uni_parts.append(u)
            t_uni_i += int(pc.sum(u.column("sum(cnt)")).as_py() or 0)
        b = t.filter(pc.invert(is_uni))
        if len(b):
            t_bi_i += int(pc.sum(b.column("sum(cnt)")).as_py() or 0)
    if t_bi_i == 0:
        import ray.data as _rd

        return _rd.from_arrow(empty_out)
    uni_tbl = pa.concat_tables(uni_parts)
    t_uni = float(t_uni_i)
    t_bi = float(t_bi_i)
    uni_ref = ray.put(
        dict(
            zip(
                uni_tbl.column("term_a").to_pylist(),
                uni_tbl.column("sum(cnt)").to_pylist(),
            )
        )
    )

    def bigrams_only(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.invert(pc.equal(batch.column("term_b"), "")))
        return pa.table(
            {
                "term_a": b.column("term_a"),
                "term_b": b.column("term_b"),
                "cnt": pc.cast(b.column("sum(cnt)"), pa.int64()),
            }
        )

    bg = counted.map_batches(bigrams_only, batch_format="pyarrow")

    def score(batch: pa.Table) -> pa.Table:
        lookup = ray.get(uni_ref)
        keep = pc.greater_equal(batch.column("cnt"), min_cnt)
        b = batch.filter(keep)
        if len(b) == 0:
            return pa.table(
                {
                    "term_a": pa.array([], pa.string()),
                    "term_b": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                    "pmi": pa.array([], pa.float64()),
                }
            )
        ca = np.array([lookup[t] for t in b.column("term_a").to_pylist()], np.float64)
        cb = np.array([lookup[t] for t in b.column("term_b").to_pylist()], np.float64)
        cnt = b.column("cnt").to_numpy(zero_copy_only=False).astype(np.float64)
        pmi = np.log((cnt / t_bi) / ((ca / t_uni) * (cb / t_uni)))
        return pa.table(
            {
                "term_a": b.column("term_a"),
                "term_b": b.column("term_b"),
                "cnt": b.column("cnt"),
                "pmi": pa.array(np.round(pmi, 6), pa.float64()),
            }
        )

    return bg.map_batches(score, batch_format="pyarrow")


def source_divergence_ds(documents: rd.Dataset, n_buckets: int = 32) -> rd.Dataset:
    """→ (source, n_terms, jsd): Jensen-Shannon divergence (natural-log
    base) between each source's term distribution and the global corpus
    distribution — the vocabulary-drift / domain-shift monitor (which
    domains write differently from the corpus at large?).

    JSD(p, q) = ½·Σ p·ln(p/m) + ½·Σ q·ln(q/m), m = (p+q)/2, summed over
    the GLOBAL vocabulary (q > 0 everywhere; p-absent terms contribute
    only the q half). The per-term expression is computed with the same
    division shape on both sides; the float64 sum over the vocabulary
    differs only in addend order (absorbed at round 6).

    Scale shape: ONE (source, term) combiner exchange (per-batch Arrow
    group_by partials); the reduce is source-bucketed with the global
    term distribution broadcast once via ``ray.put`` — vocabulary-sized,
    never corpus-sized."""
    import ray

    from ..functions.hashing import flat_nonempty_tokens
    from ..stages.grouping import bucketed_group_apply

    def partials(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "term": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        src = batch.column("source").take(pa.array(parents))
        c = pa.table({"source": src, "term": toks}).group_by(
            ["source", "term"]
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": c["source"],
                "term": c["term"],
                "cnt": pc.cast(c["count_all"], pa.int64()),
            }
        )

    parts = documents.select_columns(["source", "text"]).map_batches(
        partials, batch_format="pyarrow"
    ).materialize()

    glob = parts.groupby("term").sum("cnt").to_pandas()  # vocabulary-sized
    g_counts = dict(zip(glob["term"], glob["sum(cnt)"].astype(int)))
    t_glob = float(sum(g_counts.values()))
    g_ref = ray.put(g_counts)

    def bucket_fn(df):
        import pandas as pd_

        g = ray.get(g_ref)
        terms = list(g)
        qv = np.array([g[t] for t in terms], np.float64) / t_glob
        out_rows = []
        agg = df.groupby(["source", "term"], sort=False)["cnt"].sum().reset_index()
        for s, grp in agg.groupby("source", sort=False):
            cm = dict(zip(grp["term"], grp["cnt"]))
            ts = float(grp["cnt"].sum())
            pv = np.array([cm.get(t, 0) for t in terms], np.float64) / ts
            mv = (pv + qv) / 2.0
            pmask = pv > 0
            jsd = 0.5 * float(
                (pv[pmask] * np.log(pv[pmask] / mv[pmask])).sum()
            ) + 0.5 * float((qv * np.log(qv / mv)).sum())
            out_rows.append(
                {"source": s, "n_terms": int(pmask.sum()), "jsd": round(jsd, 6)}
            )
        res = pd_.DataFrame(out_rows)
        res["n_terms"] = res["n_terms"].astype("int64")
        return res

    return bucketed_group_apply(parts, ["source"], bucket_fn, n_buckets=n_buckets)


def pack_sequences_ds(
    documents: rd.Dataset,
    seq_len: int = 64,
    n_buckets: int = 64,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """→ (doc_id, n_tokens, tok_start, seq_start, seq_end) — deterministic
    SEQUENCE PACKING for LLM training: documents are concatenated in
    doc_id order into one global token stream and cut into fixed
    ``seq_len`` sequences; each doc reports its global token offset and
    the [seq_start, seq_end] training-sequence span it lands in (an
    empty doc sits at the boundary: seq_end == seq_start). With this
    table a trainer shards sequences across workers without ever
    re-tokenizing or communicating — packing becomes a metadata join.

    Scale shape: a textbook TWO-LEVEL DISTRIBUTED PREFIX SCAN. Pass 1
    reduces the corpus to slim (doc_id, n_tokens) rows inside the scan;
    docs range-bucket on doc_id (contiguous key ranges, so prefix order
    is bucket order); per-bucket token totals — n_buckets tiny rows —
    come to the driver, which forms exclusive bucket offsets shipped
    back in the reduce closure; each bucket then computes its local
    doc-ordered cumsum + offset. Nothing corpus-sized ever leaves the
    exchange; the driver holds n_buckets integers."""
    from ..functions.hashing import flat_nonempty_tokens

    def counts(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if not len(ids):
            return pa.table(
                {id_col: pa.array([], pa.int64()), "n_tokens": pa.array([], pa.int64())}
            )
        _, _, cnt = flat_nonempty_tokens(batch.column(text_col))
        return pa.table(
            {id_col: pa.array(ids, pa.int64()), "n_tokens": pa.array(cnt, pa.int64())}
        )

    slim = documents.select_columns([id_col, text_col]).map_batches(
        counts, batch_format="pyarrow"
    ).materialize()  # slim (id, count) rows only — reused by both passes
    max_doc = slim.max(id_col)
    if max_doc is None:
        return slim  # empty corpus: empty slim table is already correct

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        b = (ids * n_buckets) // (int(max_doc) + 1)
        return batch.append_column("__bucket", pa.array(b.astype(np.int32)))

    tagged = slim.map_batches(tag, batch_format="pyarrow").materialize()
    totals = (
        tagged.groupby("__bucket").sum("n_tokens").to_pandas()
    )  # n_buckets rows — the only driver-side state
    totals = totals.sort_values("__bucket")
    csum = totals["sum(n_tokens)"].cumsum().to_numpy(np.int64)
    offsets = dict(
        zip(
            totals["__bucket"].to_numpy(np.int64).tolist(),
            (csum - totals["sum(n_tokens)"].to_numpy(np.int64)).tolist(),
        )
    )

    def per_bucket(group: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        b = int(group["__bucket"].iloc[0])
        g = group.sort_values(id_col, kind="mergesort")
        n = g["n_tokens"].to_numpy(np.int64)
        start = offsets[b] + np.cumsum(n) - n
        last = start + np.maximum(n, 1) - 1
        return pd.DataFrame(
            {
                id_col: g[id_col].to_numpy(np.int64),
                "n_tokens": n,
                "tok_start": start,
                "seq_start": start // seq_len,
                "seq_end": last // seq_len,
            }
        )

    return tagged.groupby("__bucket").map_groups(per_bucket, batch_format="pandas")


def lm_doc_score_ds(
    documents: rd.Dataset, carry_cols: tuple[str, ...] = ()
) -> rd.Dataset:
    """→ (doc_id, n_tokens, avg_logprob[, *carry_cols]) — unigram language-model
    surprisal score per document (the CCNet / Wenzek et al. 2020 quality
    signal, with the corpus itself as the LM): logprob(t) = ln(cf_t /
    total_tokens), per-doc mean over tokens. Low (very negative) scores
    flag rare-token noise; suspiciously high scores flag boilerplate.

    Scale shape: the unigram distribution comes from ONE vocab-sized
    (term, cf) exchange fed by per-batch Arrow combiners, then
    broadcasts via ``ray.put`` (truncating to a top-V vocabulary with an
    OOV floor is the trillion-token variant — the map must stay
    node-resident); scoring is a shuffle-free second pass. The per-doc
    sum is computed per (doc, term) as tf·ln(cf/total) — the exact
    float expression the SQL mirror uses."""
    import math

    import ray

    from ..functions.hashing import flat_nonempty_tokens

    def cf_partials(batch: pa.Table) -> pa.Table:
        toks, _, _ = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return pa.table(
                {"term": pa.array([], pa.string()), "cf": pa.array([], pa.int64())}
            )
        g = pa.table({"term": toks}).group_by("term").aggregate([("term", "count")])
        return pa.table({"term": g.column("term"), "cf": g.column("term_count")})

    cft = (
        documents.select_columns(["text"])
        .map_batches(cf_partials, batch_format="pyarrow")
        .groupby("term")
        .sum("cf")
        .to_pandas()
    )  # vocabulary-sized
    total = int(cft["sum(cf)"].sum()) if len(cft) else 0
    lp = {t: math.log(int(c) / total) for t, c in zip(cft["term"], cft["sum(cf)"])}
    lp_ref = ray.put(lp)

    def score(batch: pa.Table) -> pa.Table:
        import ray as _ray

        lp_map = _ray.get(lp_ref)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(doc_ids)
        toks, parents, cnt = flat_nonempty_tokens(batch.column("text"))
        s = np.zeros(n, np.float64)
        if len(toks):
            denc = toks.dictionary_encode()
            codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            nv = len(denc.dictionary)
            vocab = denc.dictionary.to_pylist()
            lp_arr = np.array([lp_map[t] for t in vocab], np.float64)
            # per-(doc, term) tf, then tf·lp — the SQL mirror's exact shape
            key = parents * np.int64(nv) + codes
            ukey, tf = np.unique(key, return_counts=True)
            up = (ukey // nv).astype(np.int64)
            uc = (ukey % nv).astype(np.int64)
            np.add.at(s, up, tf.astype(np.float64) * lp_arr[uc])
        avg = np.where(cnt > 0, s / np.maximum(cnt, 1), 0.0)
        cols = {
            "doc_id": pa.array(doc_ids, pa.int64()),
            "n_tokens": pa.array(cnt.astype(np.int64), pa.int64()),
            "avg_logprob": pa.array(np.round(avg, 6), pa.float64()),
        }
        for c in carry_cols:  # pass-through labels (e.g. source)
            cols[c] = batch.column(c)
        return pa.table(cols)

    return documents.select_columns(
        ["doc_id", "text", *carry_cols]
    ).map_batches(score, batch_format="pyarrow")


def doc_chunks_ds(
    documents: rd.Dataset,
    chunk_len: int = 16,
    stride: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """→ (doc_id, chunk_id, tok_start, n_tokens, chunk_text) — overlapping
    token-window CHUNKING (the RAG / embedding-prep operator): chunks
    start every ``stride`` tokens (0, S, 2S, … while < doc length) and
    span up to ``chunk_len`` tokens; the tail chunk is shorter. Text is
    reconstructed as the ' '-join of the M2 token window (tokenized
    chunking — byte offsets don't survive tokenization anyway).

    Scale shape: a pure shuffle-free flat map; each batch expands to at
    most ceil(len/stride) rows per doc, all built with vectorized gather
    (one ``np.repeat``/``arange`` index construction, one Arrow ``take``,
    one ``binary_join``) — no per-doc Python."""
    import pyarrow.compute as pc

    from ..functions.hashing import flat_nonempty_tokens

    if chunk_len < 1 or stride < 1:
        raise ValueError("chunk_len and stride must be >= 1")

    def chunks(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "chunk_id": pa.array([], pa.int64()),
                "tok_start": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "chunk_text": pa.array([], pa.string()),
            }
        )
        doc_ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        toks, _, cnt = flat_nonempty_tokens(batch.column(text_col))
        if not len(toks):
            return empty
        starts_doc = np.cumsum(cnt) - cnt  # doc offset into the flat stream
        nchunks = (cnt + stride - 1) // stride  # 0 chunks for empty docs
        total = int(nchunks.sum())
        if total == 0:
            return empty
        cpar = np.repeat(np.arange(len(cnt)), nchunks)  # doc position per chunk
        coff = np.cumsum(nchunks) - nchunks
        ordinal = np.arange(total, dtype=np.int64) - np.repeat(coff, nchunks)
        tok_start = ordinal * stride
        clen = np.minimum(chunk_len, cnt[cpar] - tok_start)
        # gather indices: for chunk j, flat[doc_start + tok_start : +clen]
        goff = np.cumsum(clen) - clen
        idx = (
            np.arange(int(clen.sum()), dtype=np.int64)
            - np.repeat(goff, clen)
            + np.repeat(starts_doc[cpar] + tok_start, clen)
        )
        gathered = toks.take(pa.array(idx))
        offsets = np.empty(total + 1, np.int64)
        offsets[0] = 0
        np.cumsum(clen, out=offsets[1:])
        lst = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()).cast(pa.int32()),
                                       gathered)
        text = pc.binary_join(lst, " ")
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[cpar], pa.int64()),
                "chunk_id": pa.array(ordinal, pa.int64()),
                "tok_start": pa.array(tok_start, pa.int64()),
                "n_tokens": pa.array(clen.astype(np.int64), pa.int64()),
                "chunk_text": text,
            }
        )

    return documents.select_columns([id_col, text_col]).map_batches(
        chunks, batch_format="pyarrow"
    )


def length_gated_docs_ds(
    documents: rd.Dataset, p_lo: float = 0.1, p_hi: float = 0.9
) -> rd.Dataset:
    """→ (doc_id, n_tokens) — the ADAPTIVE length gate: keep documents
    whose token count lies within the corpus's own exact
    [p_lo, p_hi] disc quantiles (drop the truncated-fragment tail and
    the boilerplate-monster head). The generic two-phase "global
    statistic → gate the stream" filter every curation pipeline runs.

    Scale shape: phase 1 is the counting-sort histogram of
    ``doclen_quantiles`` (only the distinct-length histogram reaches
    the driver); phase 2 is a shuffle-free filter pass with the two
    thresholds shipped in the closure."""
    from ..stages.tokenizer import token_counts

    q = doclen_quantiles(documents, ps=(p_lo, p_hi)).to_pydict()
    if not q["n_tokens"]:
        lo, hi = 0, 0
    else:
        lo, hi = int(q["n_tokens"][0]), int(q["n_tokens"][1])

    def gate(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        nt = token_counts(batch.column("text")).astype(np.int64)
        keep = (nt >= lo) & (nt <= hi)
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "n_tokens": pa.array(nt[keep], pa.int64()),
            }
        )

    return documents.select_columns(["doc_id", "text"]).map_batches(
        gate, batch_format="pyarrow"
    )


def quantize_embeddings_ds(embeddings: rd.Dataset) -> rd.Dataset:
    """→ (vec_id, dim, q, err) — symmetric per-vector INT8 quantization
    of an embedding column (the storage/serving compression step of an
    ANN stack: 4× smaller than float32, distance-preserving to ~1e-2):
    scale = max|v| / 127, q = floor(v/scale + 0.5) ∈ [−127, 127]
    (explicit half-up rounding — np.round's banker mode and SQL
    round()'s half-away mode would disagree on exact halves), err =
    v − q·scale rounded to 6.

    Scale shape: pure shuffle-free map — all arithmetic on the zero-copy
    flat child array of the list column, one row group at a time."""

    def stage(batch: pa.Table) -> pa.Table:
        col = batch.column("embedding")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        lengths = col.value_lengths().to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        parents = np.repeat(np.arange(len(lengths)), lengths)
        starts = np.cumsum(lengths) - lengths
        dim = np.arange(len(flat), dtype=np.int64) - starts[parents]
        absmax = np.zeros(len(lengths), np.float64)
        np.maximum.at(absmax, parents, np.abs(flat))
        scale = absmax / 127.0
        safe = np.where(scale[parents] > 0, scale[parents], 1.0)
        q = np.floor(flat / safe + 0.5)
        q = np.clip(q, -127, 127)
        err = flat - q * scale[parents]
        return pa.table(
            {
                "vec_id": pa.array(ids[parents], pa.int64()),
                "dim": pa.array(dim, pa.int64()),
                "q": pa.array(q.astype(np.int64), pa.int64()),
                "err": pa.array(np.round(err, 6), pa.float64()),
            }
        )

    return embeddings.select_columns(["vec_id", "embedding"]).map_batches(
        stage, batch_format="pyarrow"
    )


def doc_rank_by_len_ds(documents: rd.Dataset, n_buckets: int = 64) -> rd.Dataset:
    """→ (doc_id, n_chars, rank) — GLOBAL dense ordering of the corpus
    by (n_chars DESC, doc_id ASC) with 1-based row_number ranks: the
    distributed ORDER-BY-with-rank primitive (curriculum ordering,
    "largest documents first" scheduling, head/tail exports).

    Scale shape: a two-level rank scan, the ORDER-BY dual of
    ``pack_sequences``' prefix-sum: docs range-bucket on the DESCENDING
    sort key so bucket order == global order; per-bucket row counts —
    n_buckets tiny rows — come to the driver, which ships exclusive
    rank offsets back in the reduce closure; each bucket sorts locally
    and adds its offset. No global sort materialization; the exchange
    moves slim (doc_id, n_chars) rows once."""
    import pandas as pd

    slim = documents.select_columns(["doc_id", "n_chars"]).materialize()
    mx = slim.max("n_chars")
    if mx is None:
        return slim
    mx = int(mx)

    def tag(batch: pa.Table) -> pa.Table:
        v = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        # DESCENDING ranges: bucket 0 holds the largest n_chars
        b = ((mx - v) * n_buckets) // (mx + 1)
        return batch.append_column("__bucket", pa.array(b.astype(np.int32)))

    tagged = slim.map_batches(tag, batch_format="pyarrow").materialize()
    totals = tagged.groupby("__bucket").count().to_pandas().sort_values("__bucket")
    csum = totals["count()"].cumsum().to_numpy(np.int64)
    offsets = dict(
        zip(
            totals["__bucket"].to_numpy(np.int64).tolist(),
            (csum - totals["count()"].to_numpy(np.int64)).tolist(),
        )
    )

    def per_bucket(group: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        b = int(group["__bucket"].iloc[0])
        g = group.sort_values(
            ["n_chars", "doc_id"], ascending=[False, True], kind="mergesort"
        )
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "n_chars": g["n_chars"].to_numpy(np.int64),
                "rank": offsets[b] + 1 + np.arange(len(g), dtype=np.int64),
            }
        )

    return tagged.groupby("__bucket").map_groups(per_bucket, batch_format="pandas")


def source_diversity_ds(documents: rd.Dataset, n_buckets: int = 32) -> rd.Dataset:
    """→ (source, n_bigrams, distinct_bigrams, diversity) — per-source
    bigram type/token ratio (the distinct-n-gram diversity signal of
    Self-BLEU / Li et al. 2016: low ratio == templated, repetitive
    sources). diversity = distinct/total as a plain double division of
    exact integers — identical on both sides.

    Scale shape: per-batch Arrow combiners reduce each batch to
    (source, bigram, cnt) partials; ONE source∥bigram-bucketed exchange
    finishes distinct and total counts per source (per-source bigram
    vocabulary is what must co-locate, never token streams)."""
    import pandas as pd

    import pyarrow.compute as pc

    from ..functions.hashing import flat_nonempty_tokens
    from ..stages.grouping import bucketed_group_apply

    def partials(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "source": pa.array([], pa.string()),
                "bigram": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        toks, parents, cnt = flat_nonempty_tokens(batch.column("text"))
        n = len(toks)
        if n < 2:
            return empty
        # adjacent pairs within a doc: positions 0..n-2 where the next
        # token has the same parent
        ok = parents[1:] == parents[:-1]
        if not ok.any():
            return empty
        a = toks.slice(0, n - 1).filter(pa.array(ok))
        b = toks.slice(1, n - 1).filter(pa.array(ok))
        joined = pc.binary_join_element_wise(a, b, " ")
        src = batch.column("source").take(pa.array(parents[:-1][ok]))
        g = (
            pa.table({"source": src, "bigram": joined})
            .group_by(["source", "bigram"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "source": g.column("source"),
                "bigram": g.column("bigram"),
                "cnt": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    slim = documents.select_columns(["source", "text"]).map_batches(
        partials, batch_format="pyarrow"
    )

    def per_bucket(group: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        gb = group.groupby(["source", "bigram"], sort=False)["cnt"].sum().reset_index()
        out = (
            gb.groupby("source", sort=False)
            .agg(n_bigrams=("cnt", "sum"), distinct_bigrams=("bigram", "size"))
            .reset_index()
        )
        for c in ("n_bigrams", "distinct_bigrams"):
            out[c] = out[c].astype("int64")
        out["diversity"] = (
            out["distinct_bigrams"].to_numpy(np.float64)
            / out["n_bigrams"].to_numpy(np.float64)
        )
        return out

    return bucketed_group_apply(slim, ["source"], per_bucket, n_buckets=n_buckets)


def dataset_splits_ds(
    documents: rd.Dataset,
    val_pct: int = 5,
    test_pct: int = 5,
    salt: str = "ses-split",
) -> rd.Dataset:
    """→ (doc_id, source, split) — deterministic train/val/test
    assignment: ``h = md5(doc_id:salt) % 100``; h < test_pct → 'test',
    h < test_pct + val_pct → 'val', else 'train'. The reproducible-split
    primitive: same salt ⇒ same assignment on every run and cluster
    size, docs never migrate between splits as the corpus grows, and
    disjointness is structural (one hash, three ranges). Shuffle-free."""
    from ..functions.hashing import md5_u64

    def stage(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        h = md5_u64([f"{i}:{salt}" for i in ids.tolist()]) % np.uint64(100)
        split = np.where(
            h < test_pct, "test", np.where(h < test_pct + val_pct, "val", "train")
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "source": batch.column("source"),
                "split": pa.array(split.tolist(), pa.string()),
            }
        )

    return documents.select_columns(["doc_id", "source"]).map_batches(
        stage, batch_format="pyarrow"
    )


def source_mix_sample_ds(
    documents: rd.Dataset,
    weights: dict[str, float],
    salt: str = "ses-mix",
    default_weight: float = 1.0,
) -> rd.Dataset:
    """→ (doc_id, source) — SOURCE REBALANCING by deterministic
    importance subsampling (the Pile/DoReMi-style mixture step): keep a
    doc iff ``md5(doc_id:salt) % 10^6 < weight(source) · 10^6``, i.e.
    downsample each source to its target acceptance rate with a
    reproducible hash — no shuffling, no randomness, nested samples
    across weight changes (lowering a weight keeps a subset).

    Scale shape: the weight table is the small side (hundreds of
    sources), shipped in the closure; the corpus streams through one
    shuffle-free filter pass."""
    from ..functions.hashing import md5_u64

    scaled = {s: int(round(w * 1_000_000)) for s, w in weights.items()}
    dflt = int(round(default_weight * 1_000_000))

    def stage(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        srcs = batch.column("source").to_pylist()
        h = md5_u64([f"{i}:{salt}" for i in ids.tolist()]) % np.uint64(1_000_000)
        thr = np.fromiter((scaled.get(s, dflt) for s in srcs), np.int64, len(srcs))
        return batch.filter(pa.array(h.astype(np.int64) < thr))

    return documents.select_columns(["doc_id", "source"]).map_batches(
        stage, batch_format="pyarrow"
    )


def token_entropy_ds(documents: rd.Dataset) -> rd.Dataset:
    """→ (doc_id, n_tokens, entropy) — Shannon entropy of each doc's own
    token distribution, in nats: H = −Σ_t (tf/n)·ln(tf/n). Low entropy
    flags keyword-stuffed / repetitive pages (the within-doc complement
    of ``repetition_ds``'s top-token fraction); empty docs get 0.0.

    Scale shape: shuffle-free — one ``map_batches`` pass; the per-doc
    sum runs over per-(doc, term) tf partials (one dictionary-encode +
    unique pass per batch), the exact (tf/n)·ln(tf/n) addend shape the
    SQL mirror uses."""
    from ..functions.hashing import flat_nonempty_tokens

    def stage(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(doc_ids)
        toks, parents, cnt = flat_nonempty_tokens(batch.column("text"))
        h = np.zeros(n, np.float64)
        if len(toks):
            denc = toks.dictionary_encode()
            codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            nv = len(denc.dictionary)
            key = parents * np.int64(nv) + codes
            ukey, tf = np.unique(key, return_counts=True)
            up = (ukey // nv).astype(np.int64)
            p = tf.astype(np.float64) / cnt[up].astype(np.float64)
            np.add.at(h, up, -p * np.log(p))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_tokens": pa.array(cnt.astype(np.int64), pa.int64()),
                "entropy": pa.array(np.round(h, 6), pa.float64()),
            }
        )

    return documents.select_columns(["doc_id", "text"]).map_batches(
        stage, batch_format="pyarrow"
    )


def cms_term_counts(
    documents: rd.Dataset,
    probe_terms: list[str],
    depth: int = 4,
    width: int = 64,
    salt: str = "cms",
) -> pa.Table:
    """→ (term, cf, cms_estimate) — a COUNT-MIN SKETCH over the corpus
    term frequencies (Cormode & Muthukrishnan 2005), probed for the
    given terms next to their exact counts. The fixed-size frequency
    sketch of a streaming pipeline: d·w int64 cells estimate any term's
    count with one-sided error (never an underestimate — asserted by
    the oracle rows themselves), vs a vocabulary-sized exact table.

    Scale shape: per-batch Arrow combiners reduce each batch to its
    (row, col, cnt) cell partials — at most depth × width rows per
    batch regardless of batch vocabulary — and ONE tiny exchange sums
    them; the probe-term exact counts ride a second slim filtered
    combiner. Hashing is md5(term:salt<j>) % width, bit-identical to
    DuckDB ``md5_number_lower``, so the SQL oracle reproduces every
    cell and estimate exactly."""
    from ..functions.hashing import md5_u64

    def cell_partials(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import flat_nonempty_tokens

        empty = pa.table(
            {
                "j": pa.array([], pa.int32()),
                "col": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
            }
        )
        toks, _, _ = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return empty
        denc = toks.dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = denc.dictionary.to_pylist()
        cnts = np.bincount(codes, minlength=len(vocab)).astype(np.int64)
        js, cols, out = [], [], []
        for j in range(depth):
            h = md5_u64([f"{t}:{salt}{j}" for t in vocab]) % np.uint64(width)
            cell = np.zeros(width, np.int64)
            np.add.at(cell, h.astype(np.int64), cnts)
            nz = np.nonzero(cell)[0]
            js.append(np.full(len(nz), j, np.int32))
            cols.append(nz.astype(np.int64))
            out.append(cell[nz])
        return pa.table(
            {
                "j": pa.array(np.concatenate(js), pa.int32()),
                "col": pa.array(np.concatenate(cols), pa.int64()),
                "cnt": pa.array(np.concatenate(out), pa.int64()),
            }
        )

    cells_df = (
        documents.select_columns(["text"])
        .map_batches(cell_partials, batch_format="pyarrow")
        .groupby(["j", "col"])
        .sum("cnt")
        .to_pandas()
    )  # ≤ depth×width rows — the whole sketch
    cells = np.zeros((depth, width), np.int64)
    cells[
        cells_df["j"].to_numpy(np.int64), cells_df["col"].to_numpy(np.int64)
    ] = cells_df["sum(cnt)"].to_numpy(np.int64)

    probe_set = list(dict.fromkeys(probe_terms))

    def probe_partials(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from ..functions.hashing import flat_nonempty_tokens

        toks, _, _ = flat_nonempty_tokens(batch.column("text"))
        hits = toks.filter(pc.is_in(toks, value_set=pa.array(probe_set)))
        if not len(hits):
            return pa.table(
                {"term": pa.array([], pa.string()), "cf": pa.array([], pa.int64())}
            )
        g = pa.table({"term": hits}).group_by("term").aggregate([([], "count_all")])
        return pa.table(
            {"term": g.column("term"), "cf": pc.cast(g.column("count_all"), pa.int64())}
        )

    cf_df = (
        documents.select_columns(["text"])
        .map_batches(probe_partials, batch_format="pyarrow")
        .groupby("term")
        .sum("cf")
        .to_pandas()
    )
    cf_map = dict(zip(cf_df["term"], cf_df["sum(cf)"])) if len(cf_df) else {}
    est = []
    for t in probe_set:
        cols = md5_u64([f"{t}:{salt}{j}" for j in range(depth)]) % np.uint64(width)
        est.append(int(min(cells[j, int(c)] for j, c in enumerate(cols))))
    return pa.table(
        {
            "term": pa.array(probe_set, pa.string()),
            "cf": pa.array([int(cf_map.get(t, 0)) for t in probe_set], pa.int64()),
            "cms_estimate": pa.array(est, pa.int64()),
        }
    )


def bigram_lm_score_ds(documents: rd.Dataset) -> rd.Dataset:
    """→ (doc_id, n_bigrams, avg_logprob) — bigram language-model
    coherence score: per doc, the mean over adjacent token positions of
    ln(p(t_i | t_{i-1})) with the MLE conditional p(b|a) = c(a,b)/c(a·)
    from the corpus's own global bigram counts (c(a·) = bigram-start
    count, the proper conditional denominator). The LOCAL-coherence
    complement of ``lm_doc_score_ds``'s unigram surprisal: token-salad
    with plausible words scores low here.

    Scale shape: global bigram counts come from the same per-batch
    Arrow combiner → one (a, b) exchange as ``term_bigrams_ds``; the
    bigram map broadcasts via ``ray.put`` (top-V truncation with a
    backoff floor is the trillion-token variant); scoring is a
    shuffle-free second pass whose per-(doc, bigram) tf·ln(cb/ca)
    addends are the exact SQL-mirror shape."""
    import math

    import ray

    import pyarrow.compute as pc

    from ..functions.hashing import flat_nonempty_tokens

    def bg_partials(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        n = len(toks)
        empty = pa.table(
            {"bg": pa.array([], pa.string()), "c": pa.array([], pa.int64())}
        )
        if n < 2:
            return empty
        ok = parents[1:] == parents[:-1]
        if not ok.any():
            return empty
        a = toks.slice(0, n - 1).filter(pa.array(ok))
        b = toks.slice(1, n - 1).filter(pa.array(ok))
        joined = pc.binary_join_element_wise(a, b, " ")
        g = pa.table({"bg": joined}).group_by("bg").aggregate([([], "count_all")])
        return pa.table(
            {"bg": g.column("bg"), "c": pc.cast(g.column("count_all"), pa.int64())}
        )

    bgt = (
        documents.select_columns(["text"])
        .map_batches(bg_partials, batch_format="pyarrow")
        .groupby("bg")
        .sum("c")
        .to_pandas()
    )  # global bigram vocabulary
    cb = dict(zip(bgt["bg"], bgt["sum(c)"])) if len(bgt) else {}
    ca: dict[str, int] = {}
    for bg, c in cb.items():
        ca_key = bg.split(" ", 1)[0]
        ca[ca_key] = ca.get(ca_key, 0) + int(c)
    lp = {bg: math.log(int(c) / ca[bg.split(" ", 1)[0]]) for bg, c in cb.items()}
    lp_ref = ray.put(lp)

    def score(batch: pa.Table) -> pa.Table:
        import ray as _ray

        lp_map = _ray.get(lp_ref)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        nd = len(doc_ids)
        toks, parents, cnt = flat_nonempty_tokens(batch.column("text"))
        s = np.zeros(nd, np.float64)
        nb = np.maximum(cnt - 1, 0).astype(np.int64)
        n = len(toks)
        if n >= 2:
            ok = parents[1:] == parents[:-1]
            if ok.any():
                a = toks.slice(0, n - 1).filter(pa.array(ok))
                b = toks.slice(1, n - 1).filter(pa.array(ok))
                joined = pc.binary_join_element_wise(a, b, " ")
                if isinstance(joined, pa.ChunkedArray):
                    joined = joined.combine_chunks()
                bpar = parents[:-1][ok]
                denc = joined.dictionary_encode()
                codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
                nv = len(denc.dictionary)
                vocab = denc.dictionary.to_pylist()
                lp_arr = np.array([lp_map[v] for v in vocab], np.float64)
                # per-(doc, bigram) tf — the SQL mirror's addend shape
                key = bpar * np.int64(nv) + codes
                ukey, tf = np.unique(key, return_counts=True)
                up = (ukey // nv).astype(np.int64)
                uc = (ukey % nv).astype(np.int64)
                np.add.at(s, up, tf.astype(np.float64) * lp_arr[uc])
        avg = np.where(nb > 0, s / np.maximum(nb, 1), 0.0)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_bigrams": pa.array(nb, pa.int64()),
                "avg_logprob": pa.array(np.round(avg, 6), pa.float64()),
            }
        )

    return documents.select_columns(["doc_id", "text"]).map_batches(
        score, batch_format="pyarrow"
    )


def _levenshtein_batch(terms: np.ndarray, lens: np.ndarray, q: str) -> np.ndarray:
    """Exact Levenshtein distance from ``q`` to every term, vectorized
    over the whole batch: one DP row per query char over a padded
    codepoint matrix; the in-row (insertion) dependency is resolved with
    the classic min-plus prefix scan (row[j] = min_k c[k] + (j-k) =
    accumulate(c - j) + j), so there is no per-term Python loop."""
    n = len(terms)
    if not n:
        return np.empty(0, np.int64)
    maxlen = terms.dtype.itemsize // 4
    if maxlen == 0:
        return np.full(n, len(q), np.int64)
    mat = terms.view(np.uint32).reshape(n, maxlen)
    jj = np.arange(maxlen + 1, dtype=np.int64)
    prev = np.broadcast_to(jj, (n, maxlen + 1)).copy()
    for i, qc in enumerate(q, 1):
        cost = (mat != np.uint32(ord(qc))).astype(np.int64)
        cand = np.empty((n, maxlen + 1), np.int64)
        cand[:, 0] = i
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=cand[:, 1:])
        prev = np.minimum.accumulate(cand - jj, axis=1) + jj
    return np.take_along_axis(prev, lens[:, None], axis=1)[:, 0]


def spell_suggest_ds(
    documents: rd.Dataset, query_terms: tuple[str, ...], k: int = 3
) -> pa.Table:
    """→ (query_term, suggestion, dist, cf) — the ``k`` closest corpus
    vocabulary terms per (possibly misspelled) query token, ranked by
    (edit distance asc, corpus frequency desc, term asc): the
    "did you mean" correction every query frontend layers over the
    index (the reference has no morphology fallback for OOV lemmas —
    SearchServiceImpl.java simply scores nothing; this is the rebuild's
    serving extension).

    Scale shape: the vocabulary comes from the same per-batch combiner →
    one vocab-sized (term, cf) exchange every vocab pass here uses;
    distances run as a second ``map_batches`` over the vocab DATASET
    (never the corpus) with an exact per-batch partial top-k, so the
    driver merges ≤ batches·|q|·k candidate rows — never the
    vocabulary. Mirrors DuckDB's ``levenshtein`` exactly (unit-cost
    edits over codepoints)."""
    from ..functions.hashing import flat_nonempty_tokens

    def cf_partials(batch: pa.Table) -> pa.Table:
        toks, _, _ = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return pa.table(
                {"term": pa.array([], pa.string()), "cf": pa.array([], pa.int64())}
            )
        g = pa.table({"term": toks}).group_by("term").aggregate([("term", "count")])
        return pa.table({"term": g.column("term"), "cf": g.column("term_count")})

    vocab = (
        documents.select_columns(["text"])
        .map_batches(cf_partials, batch_format="pyarrow")
        .groupby("term")
        .sum("cf")
    )

    empty = pa.table(
        {
            "query_term": pa.array([], pa.string()),
            "suggestion": pa.array([], pa.string()),
            "dist": pa.array([], pa.int64()),
            "cf": pa.array([], pa.int64()),
        }
    )

    def topk_partial(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return empty
        terms_np = np.asarray(batch.column("term").to_pylist(), dtype="U")
        lens = pc.utf8_length(batch.column("term")).to_numpy(zero_copy_only=False)
        lens = lens.astype(np.int64)
        cf = batch.column("sum(cf)").to_numpy(zero_copy_only=False).astype(np.int64)
        outs = []
        for q in query_terms:
            dist = _levenshtein_batch(terms_np, lens, q)
            order = np.lexsort((terms_np, -cf, dist))[: max(int(k), 0)]
            outs.append(
                pa.table(
                    {
                        "query_term": pa.array([q] * len(order), pa.string()),
                        "suggestion": pa.array(terms_np[order].tolist(), pa.string()),
                        "dist": pa.array(dist[order], pa.int64()),
                        "cf": pa.array(cf[order], pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs) if outs else empty

    cands = vocab.map_batches(topk_partial, batch_format="pyarrow").take_all()
    if not cands:
        return empty
    tbl = pa.Table.from_pylist(cands, schema=empty.schema)
    parts = []
    for q in query_terms:
        sub = tbl.filter(pc.equal(tbl.column("query_term"), q))
        sug = np.asarray(sub.column("suggestion").to_pylist(), dtype="U")
        dist = sub.column("dist").to_numpy(zero_copy_only=False)
        cf = sub.column("cf").to_numpy(zero_copy_only=False)
        order = np.lexsort((sug, -cf, dist))[: max(int(k), 0)]
        parts.append(sub.take(pa.array(order)))
    return pa.concat_tables(parts) if parts else empty


def complete_prefix_ds(
    documents: rd.Dataset, prefixes: tuple[str, ...], k: int = 5
) -> pa.Table:
    """→ (prefix, term, cf) — the ``k`` most frequent corpus-vocabulary
    completions per query prefix (cf desc, term asc): the type-ahead
    suggestion feed of a query frontend. Same scale shape as
    ``spell_suggest_ds``: one vocab-sized combiner exchange, then a
    ``pc.starts_with`` filter + exact partial top-k per vocab batch —
    the driver merges ≤ batches·|prefixes|·k rows."""
    from ..functions.hashing import flat_nonempty_tokens

    def cf_partials(batch: pa.Table) -> pa.Table:
        toks, _, _ = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return pa.table(
                {"term": pa.array([], pa.string()), "cf": pa.array([], pa.int64())}
            )
        g = pa.table({"term": toks}).group_by("term").aggregate([("term", "count")])
        return pa.table({"term": g.column("term"), "cf": g.column("term_count")})

    vocab = (
        documents.select_columns(["text"])
        .map_batches(cf_partials, batch_format="pyarrow")
        .groupby("term")
        .sum("cf")
    )
    empty = pa.table(
        {
            "prefix": pa.array([], pa.string()),
            "term": pa.array([], pa.string()),
            "cf": pa.array([], pa.int64()),
        }
    )

    def topk_partial(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return empty
        outs = []
        for p in prefixes:
            sub = batch.filter(pc.starts_with(batch.column("term"), p))
            if not len(sub):
                continue
            terms_np = np.asarray(sub.column("term").to_pylist(), dtype="U")
            cf = sub.column("sum(cf)").to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.lexsort((terms_np, -cf))[: max(int(k), 0)]
            outs.append(
                pa.table(
                    {
                        "prefix": pa.array([p] * len(order), pa.string()),
                        "term": pa.array(terms_np[order].tolist(), pa.string()),
                        "cf": pa.array(cf[order], pa.int64()),
                    }
                )
            )
        return pa.concat_tables(outs) if outs else empty

    cands = vocab.map_batches(topk_partial, batch_format="pyarrow").take_all()
    if not cands:
        return empty
    tbl = pa.Table.from_pylist(cands, schema=empty.schema)
    parts = []
    for p in prefixes:
        sub = tbl.filter(pc.equal(tbl.column("prefix"), p))
        if not len(sub):
            continue
        terms_np = np.asarray(sub.column("term").to_pylist(), dtype="U")
        cf = sub.column("cf").to_numpy(zero_copy_only=False)
        order = np.lexsort((terms_np, -cf))[: max(int(k), 0)]
        parts.append(sub.take(pa.array(order)))
    return pa.concat_tables(parts) if parts else empty


def prf_expansion_ds(
    documents: rd.Dataset,
    query: str,
    n_feedback: int = 10,
    m_terms: int = 8,
) -> pa.Table:
    """→ (term, weight) — pseudo-relevance-feedback query expansion
    (RM1 shape, Lavrenko & Croft '01 public formulation): retrieve the
    ``n_feedback`` top docs for ``query`` under the reference's
    disjunctive tf·idf ranking, then weight every non-query term by its
    tf·idf mass inside that feedback set — weight(t) = fb_tf(t) ·
    ln((N+1)/(df_t+1)) — and return the ``m_terms`` best (rounded
    weight desc, term asc): the expansion-terms feed of a two-pass
    retrieval frontend.

    Scale shape, three streamed passes over the corpus (at serve time
    passes 1 and 3 read the inverted index instead — df is stored per
    posting row; this Dataset form exists for the corpus-level oracle):

    1. score: broadcast query terms, per-batch ``pc.is_in`` filter →
       slim (doc_id, term, tf) rows for MATCHED docs only; df/idf/top-N
       resolved on that pair-sized table.
    2. feedback tf: per-batch filter to the n_feedback doc ids →
       (term, tf) partials → one feedback-vocab-sized exchange.
    3. candidate df: broadcast the candidate terms, per-batch distinct
       (term) doc counts → one candidate-sized exchange.

    Ranking ties break on (ROUND(score, 6) desc, doc_id) for docs and
    (ROUND(weight, 6) desc, term) for terms, so the SQL mirror is
    float-order-proof."""
    import ray

    from ..functions.hashing import flat_nonempty_tokens
    from ..stages.tokenizer import token_lists

    empty = pa.table(
        {"term": pa.array([], pa.string()), "weight": pa.array([], pa.float64())}
    )
    norm = token_lists(pa.array([query], pa.string()))
    if isinstance(norm, pa.ChunkedArray):
        norm = norm.combine_chunks()
    q_terms = list(dict.fromkeys(t for t in norm.to_pylist()[0] if t))
    if not q_terms:
        return empty
    n_corpus = documents.count()
    if not n_corpus:
        return empty
    q_ref = ray.put(set(q_terms))

    def q_rows(batch: pa.Table) -> pa.Table:
        import ray as _ray

        qs = _ray.get(q_ref)
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        out = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "term": pa.array([], pa.string()),
                "tf": pa.array([], pa.int64()),
            }
        )
        if not len(toks):
            return out
        keep = pc.is_in(toks, pa.array(sorted(qs), pa.string()))
        keep_np = keep.to_numpy(zero_copy_only=False)
        if not keep_np.any():
            return out
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sel = pa.table(
            {
                "doc_id": pa.array(doc_ids[parents[keep_np]], pa.int64()),
                "term": toks.filter(keep),
            }
        )
        g = sel.group_by(["doc_id", "term"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "doc_id": g["doc_id"],
                "term": g["term"],
                "tf": pc.cast(g["count_all"], pa.int64()),
            }
        )

    pairs = (
        documents.select_columns(["doc_id", "text"])
        .map_batches(q_rows, batch_format="pyarrow")
        .to_pandas()
    )  # matched (doc, query-term) pairs only — query-sized, not corpus-sized
    if not len(pairs):
        return empty
    df_q = pairs.groupby("term")["doc_id"].nunique()
    idf_q = {
        t: float(np.log((n_corpus + 1.0) / (int(d) + 1.0))) for t, d in df_q.items()
    }
    pairs["w"] = pairs["tf"].astype(np.float64) * pairs["term"].map(idf_q)
    scores = pairs.groupby("doc_id")["w"].sum()
    doc_ids = scores.index.to_numpy(np.int64)
    rounded = np.round(scores.to_numpy(np.float64), 6)
    order = np.lexsort((doc_ids, -rounded))[: max(int(n_feedback), 0)]
    fb_ids = np.sort(doc_ids[order])
    fb_ref = ray.put(fb_ids)

    def fb_tf(batch: pa.Table) -> pa.Table:
        import ray as _ray

        ids = _ray.get(fb_ref)
        doc_ids_np = batch.column("doc_id").to_numpy(zero_copy_only=False)
        mask = np.isin(doc_ids_np, ids)
        out = pa.table(
            {"term": pa.array([], pa.string()), "tf": pa.array([], pa.int64())}
        )
        if not mask.any():
            return out
        sub = batch.filter(pa.array(mask))
        toks, _, _ = flat_nonempty_tokens(sub.column("text"))
        if not len(toks):
            return out
        g = pa.table({"term": toks}).group_by("term").aggregate([("term", "count")])
        return pa.table(
            {"term": g.column("term"), "tf": pc.cast(g.column("term_count"), pa.int64())}
        )

    fbt = (
        documents.select_columns(["doc_id", "text"])
        .map_batches(fb_tf, batch_format="pyarrow")
        .groupby("term")
        .sum("tf")
        .to_pandas()
    )  # feedback-vocab-sized
    fbt = fbt[~fbt["term"].isin(q_terms)]
    if not len(fbt):
        return empty
    cand_ref = ray.put(sorted(fbt["term"].tolist()))

    def cand_df(batch: pa.Table) -> pa.Table:
        import ray as _ray

        cands = pa.array(_ray.get(cand_ref), pa.string())
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        out = pa.table(
            {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
        )
        if not len(toks):
            return out
        keep = pc.is_in(toks, cands)
        keep_np = keep.to_numpy(zero_copy_only=False)
        if not keep_np.any():
            return out
        sel = pa.table(
            {"term": toks.filter(keep), "doc": pa.array(parents[keep_np], pa.int64())}
        )
        d = sel.group_by(["term", "doc"]).aggregate([])
        g = d.group_by("term").aggregate([("term", "count")])
        return pa.table(
            {"term": g.column("term"), "df": pc.cast(g.column("term_count"), pa.int64())}
        )

    dft = (
        documents.select_columns(["text"])
        .map_batches(cand_df, batch_format="pyarrow")
        .groupby("term")
        .sum("df")
        .to_pandas()
    )  # candidate-sized
    merged = fbt.merge(dft, on="term", how="left")
    tf_arr = merged["sum(tf)"].to_numpy(np.float64)
    df_arr = merged["sum(df)"].fillna(0).to_numpy(np.float64)
    # op order mirrors the SQL: tf * ln((N+1)/(df+1))
    w = tf_arr * np.log((n_corpus + 1.0) / (df_arr + 1.0))
    terms_np = np.asarray(merged["term"].tolist(), dtype="U")
    rounded_w = np.round(w, 6)
    order = np.lexsort((terms_np, -rounded_w))[: max(int(m_terms), 0)]
    return pa.table(
        {
            "term": pa.array(terms_np[order].tolist(), pa.string()),
            "weight": pa.array(rounded_w[order], pa.float64()),
        }
    )


def term_cooc_window_ds(documents: rd.Dataset, window: int = 3) -> rd.Dataset:
    """→ (term_a, term_b, cnt): ORDERED co-occurrence counts within a
    forward token window — term_b occurs 1..``window`` positions after
    term_a (every position pair counted, the skip-gram statistics of a
    collocation / word-vector pipeline; ``window=1`` degenerates to
    ``term_bigrams_ds``).

    Scale shape, same as the bigram pass: one vectorized shift per
    offset d∈[1, window] inside ``map_batches`` (pairs where
    parents[i] == parents[i+d]), per-batch Arrow ``group_by`` combiner,
    then ONE (term_a, term_b) exchange of per-batch partials — windowed
    pair vocabulary grows with vocabulary², not corpus size, and the
    raw token stream never shuffles."""
    from ..functions.hashing import flat_nonempty_tokens

    empty = pa.table(
        {
            "term_a": pa.array([], pa.string()),
            "term_b": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
        }
    )

    def partials(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        if len(toks) < 2:
            return empty
        a_idx, b_idx = [], []
        for d in range(1, int(window) + 1):
            if len(toks) <= d:
                break
            same = parents[:-d] == parents[d:]
            idx = np.flatnonzero(same)
            if idx.size:
                a_idx.append(idx)
                b_idx.append(idx + d)
        if not a_idx:
            return empty
        ai = np.concatenate(a_idx)
        bi = np.concatenate(b_idx)
        t = pa.table(
            {"term_a": toks.take(pa.array(ai)), "term_b": toks.take(pa.array(bi))}
        )
        c = t.group_by(["term_a", "term_b"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "term_a": c["term_a"],
                "term_b": c["term_b"],
                "cnt": pc.cast(c["count_all"], pa.int64()),
            }
        )

    return (
        documents.select_columns(["text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["term_a", "term_b"])
        .sum("cnt")
        .map_batches(
            lambda t: pa.table(
                {
                    "term_a": t["term_a"],
                    "term_b": t["term_b"],
                    "cnt": pc.cast(t["sum(cnt)"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def curation_score_ds(
    documents: rd.Dataset,
    w_len: float = 1.0,
    w_uniq: float = 1.0,
    w_rep: float = 1.0,
) -> rd.Dataset:
    """→ (doc_id, score): a COMPOSITE curation score — corpus-normalized
    z-scores of three quality signals, blended as
    ``w_len·z(n_tokens) + w_uniq·z(unique_ratio) − w_rep·z(top_token_frac)``
    (long, lexically diverse, non-repetitive docs score high). This is
    the "combine the signals into one sort key" step every filtering
    pipeline ends with; z-normalization makes the weights comparable
    across signals with wildly different ranges.

    Scale shape: ONE tokenize pass computes the per-doc signals
    (materialized doc-sized table, reused); moments are per-batch
    (n, Σx, Σx²) partials — one tiny row per batch — folded on the
    driver (batch-count-bounded, never doc-bounded); the final map
    broadcasts six scalars. Population σ via Σx²/n − μ², identical
    arithmetic shape in the SQL mirror; a zero-σ signal contributes 0
    on both sides. Scores round to 6 (Σ-order drift absorbed)."""
    import ray

    from ..functions.hashing import flat_nonempty_tokens

    def signal_stage(batch: pa.Table) -> pa.Table:
        n = len(batch)
        toks, parents, counts = flat_nonempty_tokens(batch.column("text"))
        top_c = np.zeros(n, dtype=np.int64)
        n_unique = np.zeros(n, dtype=np.int64)
        if len(toks):
            denc = toks.dictionary_encode()
            codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.lexsort((codes, parents))
            sp, sc = parents[order], codes[order]
            new_run = np.empty(len(sp), dtype=bool)
            new_run[0] = True
            np.not_equal(sp[1:], sp[:-1], out=new_run[1:])
            new_run[1:] |= sc[1:] != sc[:-1]
            starts = np.flatnonzero(new_run)
            run_len = np.diff(np.append(starts, len(sp)))
            np.maximum.at(top_c, sp[starts], run_len)
            np.add.at(n_unique, sp[starts], 1)
        s1 = counts.astype(np.float64)
        s2 = np.where(counts > 0, n_unique / np.maximum(counts, 1), 0.0)
        s3 = np.where(counts > 0, top_c / np.maximum(counts, 1), 0.0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "s1": pa.array(s1, pa.float64()),
                "s2": pa.array(s2, pa.float64()),
                "s3": pa.array(s3, pa.float64()),
            }
        )

    signals = documents.select_columns(["doc_id", "text"]).map_batches(
        signal_stage, batch_format="pyarrow"
    ).materialize()

    def moment_partials(batch: pa.Table) -> pa.Table:
        cols = {}
        cols["n"] = pa.array([float(len(batch))], pa.float64())
        for s in ("s1", "s2", "s3"):
            x = batch.column(s).to_numpy(zero_copy_only=False)
            cols[f"a_{s}"] = pa.array([float(x.sum())], pa.float64())
            cols[f"b_{s}"] = pa.array([float((x * x).sum())], pa.float64())
        return pa.table(cols)

    # one row per block — batch-count-bounded driver fold
    parts = [
        t
        for t in ray.get(
            signals.map_batches(moment_partials, batch_format="pyarrow")
            .materialize()
            .to_arrow_refs()
        )
        if len(t)
    ]
    tot = pa.concat_tables(parts)
    n = float(np.sum(tot.column("n").to_numpy(zero_copy_only=False)))
    if n == 0:
        return rd.from_arrow(
            pa.table({"doc_id": pa.array([], pa.int64()),
                      "score": pa.array([], pa.float64())})
        )
    stats = {}
    for s in ("s1", "s2", "s3"):
        a = float(np.sum(tot.column(f"a_{s}").to_numpy(zero_copy_only=False)))
        b = float(np.sum(tot.column(f"b_{s}").to_numpy(zero_copy_only=False)))
        mu = a / n
        sd = float(np.sqrt(max(b / n - mu * mu, 0.0)))
        stats[s] = (mu, sd)
    stats_ref = [ray.put((stats, (w_len, w_uniq, w_rep)))]

    def score(batch: pa.Table) -> pa.Table:
        st, (w1, w2, w3) = ray.get(stats_ref[0])

        def z(name: str) -> np.ndarray:
            x = batch.column(name).to_numpy(zero_copy_only=False)
            mu, sd = st[name]
            if sd == 0:
                return np.zeros(len(batch), np.float64)
            return (x - mu) / sd

        sc = w1 * z("s1") + w2 * z("s2") - w3 * z("s3")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "score": pa.array(np.round(sc, 6), pa.float64()),
            }
        )

    return signals.map_batches(score, batch_format="pyarrow")


def facet_counts_ds(
    documents: rd.Dataset,
    doc_ids: np.ndarray,
    scores: np.ndarray,
    group_col: str = "source",
) -> rd.Dataset:
    """→ (source, n_docs, sum_score): FACETED search — the per-facet
    hit count + score mass of a result set (the sidebar counts of every
    search UI). The result set (doc_ids, scores) is broadcast once
    (result-sized, bounded by the match count, never the corpus); the
    corpus streams through one combiner ``map_batches`` emitting
    per-batch facet partials, and a facet-sized groupby finishes."""
    import ray

    rs = np.round(np.asarray(scores, np.float64), 6)
    ids = np.asarray(doc_ids, np.int64)
    if ids.size == 0:
        # empty result set → zero facets, schema preserved (the groupby
        # of all-empty partials would otherwise drop the columns)
        return rd.from_arrow(
            pa.table(
                {
                    group_col: pa.array([], pa.string()),
                    "n_docs": pa.array([], pa.int64()),
                    "sum_score": pa.array([], pa.float64()),
                }
            )
        )
    order = np.argsort(ids)
    ref = ray.put((ids[order], rs[order]))

    def partials(batch: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                group_col: pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "s": pa.array([], pa.float64()),
            }
        )
        sids, srs = ray.get(ref)
        if sids.size == 0:
            # `&` does not short-circuit: sids[pos_c] on an empty result
            # set would raise IndexError before the mask is evaluated
            return empty
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(sids, d)
        pos_c = np.minimum(pos, sids.size - 1)
        hit = sids[pos_c] == d
        if not hit.any():
            return empty
        sub = batch.filter(pa.array(hit))
        vals = srs[pos_c[hit]]
        src = sub.column(group_col)
        t = pa.table({group_col: src, "s": pa.array(vals, pa.float64())})
        g = t.group_by([group_col]).aggregate([("s", "sum"), ([], "count_all")])
        return pa.table(
            {
                group_col: g.column(group_col),
                "n": pc.cast(g.column("count_all"), pa.int64()),
                "s": g.column("s_sum"),
            }
        )

    agg = (
        documents.select_columns(["doc_id", group_col])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(group_col)
        .sum(["n", "s"])
    )

    def fin(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                group_col: batch.column(group_col),
                "n_docs": pc.cast(batch.column("sum(n)"), pa.int64()),
                "sum_score": pa.array(
                    np.round(
                        batch.column("sum(s)").to_numpy(zero_copy_only=False), 6
                    ),
                    pa.float64(),
                ),
            }
        )

    return agg.map_batches(fin, batch_format="pyarrow")


def significant_terms_ds(
    documents: rd.Dataset,
    fg_doc_ids: np.ndarray,
    fg_n: int,
    bg_n: int,
) -> rd.Dataset:
    """→ (term, fg, bg, score): the significant-terms aggregation (the
    ES JLH heuristic) over a search result set — terms DISPROPORTIONATELY
    frequent in the foreground (matching docs) vs the corpus background,
    the "what is this result set about" facet. fg/bg are document
    frequencies; score = (fg% − bg%) · fg% / bg%, fg% = fg / |results|,
    bg% = bg / N.

    Scale shape: the foreground doc_id set is broadcast ONCE via
    ``ray.put`` (result-sized, never corpus-sized) and probed with one
    searchsorted per batch; each batch pre-aggregates per-term
    (fg, bg) partials with an Arrow group_by (a doc's rows never span
    batches, so within-batch distinct (doc, term) is globally
    distinct), then one vocabulary-sized groupby-sum finishes — the
    exchange moves per-batch vocabularies, not token occurrences."""
    import ray

    from ..functions.hashing import flat_nonempty_tokens

    ids = np.unique(np.asarray(fg_doc_ids, np.int64))
    ref = ray.put(ids)
    fgn, bgn = float(fg_n), float(bg_n)

    empty = pa.table(
        {
            "term": pa.array([], pa.string()),
            "fg": pa.array([], pa.int64()),
            "bg": pa.array([], pa.int64()),
        }
    )

    def partials(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        if len(toks) == 0:
            return empty
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        sids = ray.get(ref)
        # distinct (doc, term) inside the batch == globally distinct
        pairs = pa.table(
            {"doc_id": pa.array(d[parents], pa.int64()), "term": toks}
        ).group_by(["doc_id", "term"]).aggregate([])
        pd_ = pairs.column("doc_id").to_numpy(zero_copy_only=False)
        if sids.size:
            pos = np.minimum(np.searchsorted(sids, pd_), sids.size - 1)
            infg = (sids[pos] == pd_).astype(np.int64)
        else:
            infg = np.zeros(pd_.size, np.int64)
        t = pa.table({"term": pairs.column("term"), "fg": pa.array(infg, pa.int64())})
        g = t.group_by(["term"]).aggregate([("fg", "sum"), ([], "count_all")])
        return pa.table(
            {
                "term": g.column("term"),
                "fg": pc.cast(g.column("fg_sum"), pa.int64()),
                "bg": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    agg = (
        documents.select_columns(["doc_id", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("term")
        .sum(["fg", "bg"])
    )

    def fin(batch: pa.Table) -> pa.Table:
        fg = batch.column("sum(fg)").to_numpy(zero_copy_only=False).astype(np.int64)
        bg = batch.column("sum(bg)").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = fg > 0  # ES semantics: only terms present in the foreground
        fg, bg = fg[keep], bg[keep]
        fgp = fg / fgn
        bgp = bg / bgn
        score = (fgp - bgp) * fgp / bgp  # JLH, left-to-right like the SQL
        return pa.table(
            {
                "term": batch.column("term").filter(pa.array(keep)),
                "fg": pa.array(fg, pa.int64()),
                "bg": pa.array(bg, pa.int64()),
                "score": pa.array(np.round(score, 6), pa.float64()),
            }
        )

    return agg.map_batches(fin, batch_format="pyarrow")


def term_vectors_ds(documents: rd.Dataset, doc_ids) -> rd.Dataset:
    """→ (doc_id, term, pos): fetch-time TERM VECTORS for a probe doc
    set (the ES `_termvectors` API with realtime re-analysis — an
    inverted index is term-major, so per-doc vectors come from
    re-tokenizing the stored document, not from posting scans).
    Positions are 0-based over the nonempty-token sequence (the same
    convention the positional index stores). The probe filter is pushed
    ahead of tokenization so only probe rows are analyzed."""
    from ..functions.hashing import flat_nonempty_tokens

    ids = sorted({int(i) for i in doc_ids})
    pred = " or ".join(f"doc_id == {i}" for i in ids) or "doc_id < 0"
    sub = documents.select_columns(["doc_id", "text"]).filter(expr=pred)

    def tv(batch: pa.Table) -> pa.Table:
        toks, parents, counts = flat_nonempty_tokens(batch.column("text"))
        if len(toks) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "term": pa.array([], pa.string()),
                    "pos": pa.array([], pa.int64()),
                }
            )
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.cumsum(counts) - counts
        pos = np.arange(len(toks), dtype=np.int64) - starts[parents]
        return pa.table(
            {
                "doc_id": pa.array(d[parents], pa.int64()),
                "term": toks,
                "pos": pa.array(pos, pa.int64()),
            }
        )

    return sub.map_batches(tv, batch_format="pyarrow")


def smart_scores_ds(documents: rd.Dataset, query_terms: list[str]) -> rd.Dataset:
    """→ (doc_id, score): SMART lnc.ltc cosine ranking — docs weighted
    l (1+ln tf) n (no idf) c (cosine-normalized by the FULL doc vector
    norm), the query weighted l t (idf = ln((N+1)/(df+1))) c. The
    classic vector-space alternative to tf·idf/BM25 (Salton & Buckley's
    SMART notation).

    Scale shape: ONE tokenize pass per batch computes the per-doc
    vector norm AND the query-term tf rows (a doc's rows never span an
    input batch); only query-matching rows leave the map (match-sized,
    not corpus-sized). That match-sized set is materialized once and
    re-read for the tiny df aggregate and the final score, both
    query-vocabulary- or match-sized exchanges."""
    import math

    from ..functions.hashing import flat_nonempty_tokens

    qset = sorted(set(query_terms))

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "tf": pa.array([], pa.int64()),
            "nrm": pa.array([], pa.float64()),
            "docs_seen": pa.array([], pa.int64()),
        }
    )

    def partials(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        if len(toks) == 0:
            return empty
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        pairs = (
            pa.table({"doc_id": pa.array(d[parents], pa.int64()), "term": toks})
            .group_by(["doc_id", "term"])
            .aggregate([([], "count_all")])
        )
        pd_ = pairs.column("doc_id").to_numpy(zero_copy_only=False)
        tf = pairs.column("count_all").to_numpy(zero_copy_only=False).astype(np.int64)
        w = 1.0 + np.log(tf)
        # full-vector norm per doc (docs are whole within a batch)
        uniq, inv = np.unique(pd_, return_inverse=True)
        sq = np.zeros(uniq.size, np.float64)
        np.add.at(sq, inv, w * w)
        nrm = np.sqrt(sq)
        hit = pc.is_in(pairs.column("term"), value_set=pa.array(qset, pa.string()))
        hitn = hit.to_numpy(zero_copy_only=False)
        n_docs = np.int64(uniq.size)  # docs with >=1 token, this batch
        out = pa.table(
            {
                "doc_id": pa.array(pd_[hitn], pa.int64()),
                "term": pairs.column("term").filter(hit),
                "tf": pa.array(tf[hitn], pa.int64()),
                "nrm": pa.array(nrm[inv][hitn], pa.float64()),
                "docs_seen": pa.array(np.zeros(hitn.sum(), np.int64), pa.int64()),
            }
        )
        # one marker row per batch carries the distinct-doc count for N
        marker = pa.table(
            {
                "doc_id": pa.array([-1], pa.int64()),
                "term": pa.array([""], pa.string()),
                "tf": pa.array([0], pa.int64()),
                "nrm": pa.array([0.0], pa.float64()),
                "docs_seen": pa.array([n_docs], pa.int64()),
            }
        )
        return pa.concat_tables([out, marker])

    # match-sized (+ one marker row per batch) — safe to materialize
    matched = (
        documents.select_columns(["doc_id", "text"])
        .map_batches(partials, batch_format="pyarrow")
        .materialize()
    )
    n_total = int(matched.sum("docs_seen") or 0)
    rows = matched.filter(expr="doc_id >= 0")
    dft = rows.groupby("term").count().to_pandas()  # query-vocabulary-sized
    df = {str(r["term"]): int(r["count()"]) for _, r in dft.iterrows()}
    idf = {t: math.log((n_total + 1.0) / (df.get(t, 0) + 1.0)) for t in qset}
    qn = math.sqrt(sum(v * v for v in idf.values()))
    idf_ref = idf

    def score(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "w": pa.array([], pa.float64())}
            )
        tf = batch.column("tf").to_numpy(zero_copy_only=False).astype(np.float64)
        nrm = batch.column("nrm").to_numpy(zero_copy_only=False)
        terms = batch.column("term").to_pylist()
        iv = np.asarray([idf_ref[t] for t in terms], np.float64)
        w = (1.0 + np.log(tf)) / nrm * iv / qn
        return pa.table(
            {"doc_id": batch.column("doc_id"), "w": pa.array(w, pa.float64())}
        )

    agg = rows.map_batches(score, batch_format="pyarrow").groupby("doc_id").sum("w")
    return agg.map_batches(
        lambda t: pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "score": pa.array(
                    np.round(t["sum(w)"].to_numpy(zero_copy_only=False), 6),
                    pa.float64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


def fertility_stats_ds(documents: rd.Dataset) -> rd.Dataset:
    """→ (source, n_docs, n_tokens, n_chars, chars_per_token): the
    tokenizer-fertility / compression profile per source — how many
    characters one token covers, the budgeting statistic of an LLM
    data mix (a low chars-per-token source burns context). One
    tokenize pass with per-batch Arrow group_by partials, then a
    source-count-sized groupby-sum; the ratio is a single float64
    division, rounded to 6 dp on both sides of the oracle."""
    from ..functions.hashing import flat_nonempty_tokens

    def partials(batch: pa.Table) -> pa.Table:
        _, _, counts = flat_nonempty_tokens(batch.column("text"))
        t = pa.table(
            {
                "source": batch.column("source"),
                "n_docs": pa.array(np.ones(len(batch), np.int64), pa.int64()),
                "n_tokens": pa.array(counts.astype(np.int64), pa.int64()),
                "n_chars": batch.column("n_chars").cast(pa.int64()),
            }
        )
        g = t.group_by(["source"]).aggregate(
            [("n_docs", "sum"), ("n_tokens", "sum"), ("n_chars", "sum")]
        )
        return pa.table(
            {
                "source": g["source"],
                "n_docs": g["n_docs_sum"],
                "n_tokens": g["n_tokens_sum"],
                "n_chars": g["n_chars_sum"],
            }
        )

    agg = (
        documents.select_columns(["source", "text", "n_chars"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("source")
        .sum(["n_docs", "n_tokens", "n_chars"])
    )

    def fin(t: pa.Table) -> pa.Table:
        tok = t["sum(n_tokens)"].to_numpy(zero_copy_only=False).astype(np.float64)
        ch = t["sum(n_chars)"].to_numpy(zero_copy_only=False).astype(np.float64)
        cpt = np.where(tok > 0, ch / np.maximum(tok, 1.0), 0.0)
        return pa.table(
            {
                "source": t["source"],
                "n_docs": pc.cast(t["sum(n_docs)"], pa.int64()),
                "n_tokens": pc.cast(t["sum(n_tokens)"], pa.int64()),
                "n_chars": pc.cast(t["sum(n_chars)"], pa.int64()),
                "chars_per_token": pa.array(np.round(cpt, 6), pa.float64()),
            }
        )

    return agg.map_batches(fin, batch_format="pyarrow")


def vocab_growth_ds(documents: rd.Dataset, checkpoints: tuple[int, ...]) -> rd.Dataset:
    """→ (checkpoint, vocab_size): Heap's-law vocabulary growth — the
    number of distinct terms seen within the first ``c`` documents
    (doc_id < c; ids are dense), per checkpoint. The tokenizer-budget /
    corpus-diversity profiling curve of a web corpus.

    Scale shape: per-batch Arrow group_by computes (term, min doc_id)
    partials (the combiner), one vocabulary-sized groupby-min reduces,
    then each block folds its first-doc values into per-checkpoint
    partial counts — the final exchange is checkpoint-count-sized."""
    from ..functions.hashing import flat_nonempty_tokens

    cps = np.asarray(sorted(set(int(c) for c in checkpoints)), np.int64)

    def firsts(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        if len(toks) == 0:
            return pa.table(
                {"term": pa.array([], pa.string()), "fd": pa.array([], pa.int64())}
            )
        d = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table({"term": toks, "fd": pa.array(d[parents], pa.int64())})
        g = t.group_by(["term"]).aggregate([("fd", "min")])
        return pa.table({"term": g["term"], "fd": g["fd_min"]})

    first = (
        documents.select_columns(["doc_id", "text"])
        .map_batches(firsts, batch_format="pyarrow")
        .groupby("term")
        .min("fd")
    )

    def counts(t: pa.Table) -> pa.Table:
        fd = np.sort(t["min(fd)"].to_numpy(zero_copy_only=False).astype(np.int64))
        n = np.searchsorted(fd, cps, side="left")  # fd < c
        return pa.table(
            {
                "checkpoint": pa.array(cps, pa.int64()),
                "vocab_size": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    return (
        first.map_batches(counts, batch_format="pyarrow")
        .groupby("checkpoint")
        .sum("vocab_size")
        .map_batches(
            lambda t: pa.table(
                {
                    "checkpoint": pc.cast(t["checkpoint"], pa.int64()),
                    "vocab_size": pc.cast(t["sum(vocab_size)"], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


# ---------------------------------------------------------------------------
# PII scrubbing (round 4)
# ---------------------------------------------------------------------------

# RE2 patterns shared verbatim between pyarrow.compute (RE2) and DuckDB
# (also RE2) — byte-identical match semantics on both sides, so the
# redacted text hashes equal. Order matters: email is redacted before
# ip/phone so an address's host part can't be re-matched as an IP.
PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ip", r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
    ("phone", r"\+\d{1,2}-\d{3}-\d{4}", "<PHONE>"),
)


def pii_scrub_ds(
    documents: rd.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """→ (doc_id, n_email, n_ip, n_phone, text_redacted): count and
    redact PII-shaped spans (emails, IPv4 literals, phone numbers) —
    the scrubbing pass every public training-data pipeline runs before
    export (e.g. BigScience ROOTS, Laurençon et al. arXiv:2303.03915
    §3; the reference has no curation surface, SURVEY §2).

    Counts are taken on the ORIGINAL text; redaction applies the
    patterns sequentially in ``PII_PATTERNS`` order. One stateless
    vectorized ``map_batches`` pass (RE2 kernels over the whole column),
    zero shuffle, corpus-scale safe.
    """

    def stage(batch: pa.Table) -> pa.Table:
        text = batch.column(text_col)
        cols: dict[str, pa.Array | pa.ChunkedArray] = {id_col: batch.column(id_col)}
        red = text
        for name, pat, tag in PII_PATTERNS:
            cols[f"n_{name}"] = pc.cast(pc.count_substring_regex(text, pat), pa.int64())
            red = pc.replace_substring_regex(red, pat, tag)
        cols["text_redacted"] = red
        return pa.table(cols)

    return documents.select_columns([id_col, text_col]).map_batches(
        stage, batch_format="pyarrow"
    )


def ccnet_buckets_ds(
    documents: rd.Dataset, ps: tuple[float, float] = (1 / 3, 2 / 3)
) -> rd.Dataset:
    """→ (doc_id, source, score, bucket) — CCNet-style quality buckets
    (Wenzek et al. 2020 §4.3): per SOURCE, split documents into
    head / middle / tail tertiles of the unigram-LM score (``score`` =
    rounded ``avg_logprob`` from ``lm_doc_score_ds``; higher = more
    fluent). CCNet buckets per language by perplexity; the synthetic
    corpus's stratification key is ``source``. Bucket rule: score ≤ q1 →
    'tail', ≤ q2 → 'middle', else 'head', with q1/q2 the exact
    percentile_disc values of the per-source score distribution.

    Scale shape: one scored pass (vocab-sized LM broadcast inside
    ``lm_doc_score_ds``), materialized ONCE as a slim (doc_id, source,
    score) table; thresholds come from a (source, score) value-count
    histogram — scores are ROUNDED to 1e-6 over the bounded ln-prob
    range, so the histogram is bounded by the value range, not the
    corpus (the counting-sort argument of ``doclen_quantiles``); the
    per-source disc quantile is read off cumulative counts driver-side
    (histogram-sized), broadcast, and assignment is a shuffle-free
    second pass over the materialized scores."""
    import math

    import ray

    scored = (
        lm_doc_score_ds(documents, carry_cols=("source",))
        .select_columns(["doc_id", "source", "avg_logprob"])
        .materialize()
    )  # slim doc-sized table; at extreme scale park it as Parquet instead

    def hist_partials(t: pa.Table) -> pa.Table:
        g = t.group_by(["source", "avg_logprob"]).aggregate([("doc_id", "count")])
        return pa.table(
            {
                "source": g.column("source"),
                "score": g.column("avg_logprob"),
                "cnt": pc.cast(g.column("doc_id_count"), pa.int64()),
            }
        )

    hist = (
        scored.map_batches(hist_partials, batch_format="pyarrow")
        .groupby(["source", "score"])
        .sum("cnt")
        .to_pandas()
    )  # (source, rounded score) histogram — value-range bounded
    hist = hist.sort_values(["source", "score"]).reset_index(drop=True)
    thresholds: dict[str, tuple[float, float]] = {}
    for src, grp in hist.groupby("source", sort=False):
        vals = grp["score"].to_numpy(np.float64)
        cum = grp["sum(cnt)"].to_numpy(np.int64).cumsum()
        total = int(cum[-1])
        qs = []
        for p in ps:
            rank = max(1, math.ceil(p * total))  # double math == DuckDB's
            qs.append(float(vals[np.searchsorted(cum, rank, side="left")]))
        thresholds[str(src)] = (qs[0], qs[1])
    th_ref = ray.put(thresholds)

    def assign(t: pa.Table) -> pa.Table:
        import ray as _ray

        th = _ray.get(th_ref)
        score = t["avg_logprob"].to_numpy(zero_copy_only=False)
        denc = t["source"].combine_chunks().dictionary_encode()
        codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        srcs = denc.dictionary.to_pylist()
        q1 = np.array([th[s][0] for s in srcs], np.float64)[codes]
        q2 = np.array([th[s][1] for s in srcs], np.float64)[codes]
        bucket = np.where(score <= q1, "tail", np.where(score <= q2, "middle", "head"))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "source": t["source"],
                "score": t["avg_logprob"],
                "bucket": pa.array(bucket.tolist(), pa.string()),
            }
        )

    return scored.map_batches(assign, batch_format="pyarrow")


def textrank_keywords_ds(
    documents: rd.Dataset, n_iters: int = 8, topk: int = 5
) -> rd.Dataset:
    """→ (doc_id, term, score) — TextRank keyword extraction (Mihalcea &
    Tarau 2004): per document, PageRank over the undirected co-occurrence
    graph of adjacent distinct tokens (window 2, edge weight = adjacency
    count), top-``topk`` terms by (score desc, term).

    Deterministic INTEGER fixed point (the ``hits`` trick): SCALE 1e6,
    s0 = SCALE, and each iteration is

        s'(v) = (15·SCALE)//100 + (85 · Σ_u (w(u,v)·s(u)) // W(u)) // 100

    — floor division everywhere, so 8 unrolled BIGINT CTEs in the SQL
    mirror reproduce the exact integers (damping 0.85 as 85//100; the
    float TextRank's summation-order ambiguity never appears). Values
    stay ≤ ~n_nodes·SCALE·w (mass-conserving update), far inside int64.

    Scale shape: documents are independent — a pure shuffle-free
    ``map_batches`` flat map; the whole batch's graphs are built and
    iterated as ONE set of numpy arrays (no per-doc Python loop)."""
    import functools

    return documents.select_columns(["doc_id", "text"]).map_batches(
        functools.partial(textrank_batch, n_iters=n_iters, topk=topk),
        batch_format="pyarrow",
    )


def textrank_batch(batch: pa.Table, *, n_iters: int = 8, topk: int = 5) -> pa.Table:
    """One-batch TextRank kernel (see ``textrank_keywords_ds``) —
    module-level so the property suite can drive it on raw Arrow tables
    without a Ray session."""
    from ..functions.hashing import flat_nonempty_tokens

    SCALE = 1_000_000
    BASE = (15 * SCALE) // 100
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "term": pa.array([], pa.string()),
            "score": pa.array([], pa.int64()),
        }
    )
    if not len(toks):
        return empty
    denc = toks.dictionary_encode()
    raw_codes = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = np.asarray(denc.dictionary.to_pylist(), dtype=object)
    # re-encode by SORTED vocabulary so numeric code order == string
    # order (dictionary codes are first-appearance order)
    vorder = np.argsort(vocab, kind="stable")
    rank = np.empty(len(vocab), np.int64)
    rank[vorder] = np.arange(len(vocab))
    codes = rank[raw_codes]
    svocab = vocab[vorder]
    nv = np.int64(len(svocab))

    # nodes: distinct (doc, term) over ALL tokens (isolated terms
    # keep the base score)
    node_keys = np.unique(parents.astype(np.int64) * nv + codes)
    n_nodes = node_keys.size

    # undirected adjacency edges: consecutive distinct tokens in doc
    adj = parents[1:] == parents[:-1]
    a, b = codes[:-1][adj], codes[1:][adj]
    d_ = parents[:-1][adj].astype(np.int64)
    ne = a != b
    a, b, d_ = a[ne], b[ne], d_[ne]
    s = np.zeros(n_nodes, np.int64)
    if a.size:
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        pair_keys = (d_ * nv + lo) * nv + hi
        upair, w = np.unique(pair_keys, return_counts=True)
        w = w.astype(np.int64)
        u_lo = (upair // nv) % nv
        u_hi = upair % nv
        u_doc = upair // (nv * nv)
        # directed both ways
        eu = np.concatenate([u_doc * nv + u_lo, u_doc * nv + u_hi])
        ev = np.concatenate([u_doc * nv + u_hi, u_doc * nv + u_lo])
        ew = np.concatenate([w, w])
        ui = np.searchsorted(node_keys, eu)
        vi = np.searchsorted(node_keys, ev)
        W = np.zeros(n_nodes, np.int64)
        np.add.at(W, ui, ew)
        s[:] = SCALE
        for _ in range(n_iters):
            acc = np.zeros(n_nodes, np.int64)
            np.add.at(acc, vi, (ew * s[ui]) // W[ui])
            s = BASE + (85 * acc) // 100
    else:
        # no edges at all in this batch: every node converges to BASE
        s[:] = BASE

    nd = node_keys // nv
    nc = node_keys % nv
    term_strs = svocab[nc]
    order = np.lexsort((term_strs, -s, nd))
    nd_o, s_o, ts_o = nd[order], s[order], term_strs[order]
    starts = np.flatnonzero(np.r_[True, nd_o[1:] != nd_o[:-1]])
    cc = np.arange(nd_o.size) - np.repeat(starts, np.diff(np.r_[starts, nd_o.size]))
    keep = cc < topk
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[nd_o[keep]], pa.int64()),
            "term": pa.array(ts_o[keep].tolist(), pa.string()),
            "score": pa.array(s_o[keep], pa.int64()),
        }
    )


# --------------------------------------------------------------------------
# Context-aware completion + Misra–Gries heavy hitters
# --------------------------------------------------------------------------


def complete_context_ds(
    documents: rd.Dataset, context: str, prefixes: tuple[str, ...], k: int = 5
) -> pa.Table:
    """Context-aware type-ahead: the ``k`` best completions per prefix
    given the PREVIOUS query term — candidates are corpus bigram
    continuations of ``context`` whose second term starts with the
    prefix, ranked by (bigram count desc, term asc). The bigram-LM
    upgrade of ``complete_prefix_ds``.

    Scale shape: the per-batch combiner keeps only bigrams whose first
    term IS the context (the exchange is continuation-vocabulary-sized,
    one row per distinct next-term), one groupby-sum, then a driver
    merge of ≤ |prefixes|·k rows."""
    from ..functions.hashing import flat_nonempty_tokens

    empty = pa.table(
        {"term": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
    )

    def partials(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        if len(toks) < 2:
            return empty
        adj = (parents[:-1] == parents[1:]) & (
            pc.equal(toks.slice(0, len(toks) - 1), context).to_numpy(
                zero_copy_only=False
            )
        )
        if not adj.any():
            return empty
        idx = np.flatnonzero(adj)
        nxt = toks.take(pa.array(idx + 1))
        g = pa.table({"term": nxt}).group_by("term").aggregate([("term", "count")])
        return pa.table(
            {"term": g.column("term"), "cnt": pc.cast(g.column("term_count"), pa.int64())}
        )

    cont = (
        documents.select_columns(["text"])
        .map_batches(partials, batch_format="pyarrow")
        .groupby("term")
        .sum("cnt")
    )

    # drop zero-row blocks: Ray 2.49 groupby outputs can emit empty
    # blocks with an EMPTY schema, which poisons pa.concat_tables
    out_chunks = [t for t in ray.get(cont.materialize().to_arrow_refs()) if len(t)]
    # continuation vocabulary of ONE context term — tiny by construction
    full = (
        pa.concat_tables(out_chunks)
        if out_chunks
        else pa.table({"term": pa.array([], pa.string()),
                       "sum(cnt)": pa.array([], pa.int64())})
    )
    terms = full.column("term").to_numpy(zero_copy_only=False)
    cnts = full.column("sum(cnt)").to_numpy(zero_copy_only=False)
    rows = {"prefix": [], "term": [], "cnt": [], "rank": []}
    for p in prefixes:
        m = np.array([str(t).startswith(p) for t in terms], bool)
        if not m.any():
            continue
        ts, cs = terms[m], cnts[m]
        order = np.lexsort((ts, -cs))[: min(k, len(ts))]
        for r, i in enumerate(order, 1):
            rows["prefix"].append(p)
            rows["term"].append(str(ts[i]))
            rows["cnt"].append(int(cs[i]))
            rows["rank"].append(r)
    return pa.table(
        {
            "prefix": pa.array(rows["prefix"], pa.string()),
            "term": pa.array(rows["term"], pa.string()),
            "cnt": pa.array(rows["cnt"], pa.int64()),
            "rank": pa.array(rows["rank"], pa.int64()),
        }
    )


def _mg_compress(counts: dict, k: int) -> dict:
    """Misra–Gries compression to ≤ k counters: subtract the (k+1)-th
    largest count from every counter, drop non-positive — the mergeable-
    summaries fold (Agarwal et al., PODS'12), which preserves the
    guarantee that every term with true count > n/k survives."""
    if len(counts) <= k:
        return counts
    vals = sorted(counts.values(), reverse=True)
    d = vals[k]
    return {t: c - d for t, c in counts.items() if c > d}


def heavy_hitters_ds(documents: rd.Dataset, k: int = 50) -> pa.Table:
    """EXACT frequent-terms via a Misra–Gries candidate pass + exact
    recount: → (term, cnt) for every term with cnt > n_tokens/k.

    Pass 1 ships one ≤k-counter MG summary per batch (the sketch — the
    exchange is k-sized regardless of vocabulary); the driver folds
    them with MG compression, which provably retains every true heavy
    hitter. Pass 2 recounts ONLY the ≤k candidates exactly (broadcast
    `is_in` + bincount partials). The final answer is exact — the
    sketch only bounds the candidate set — so a plain GROUP BY/HAVING
    oracle matches hash-for-hash."""
    from ..functions.hashing import flat_nonempty_tokens

    def mg_partial(batch: pa.Table) -> pa.Table:
        toks, _, _ = flat_nonempty_tokens(batch.column("text"))
        n = len(toks)
        if not n:
            return pa.table(
                {"term": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        g = pa.table({"term": toks}).group_by("term").aggregate([("term", "count")])
        counts = dict(
            zip(g.column("term").to_pylist(), g.column("term_count").to_pylist())
        )
        mg = _mg_compress(counts, k)
        terms = ["\x00total"] + list(mg)  # NUL-prefixed: no \p{L} token collides
        cnts = [n] + [mg[t] for t in mg]
        return pa.table(
            {"term": pa.array(terms, pa.string()), "cnt": pa.array(cnts, pa.int64())}
        )

    acc: dict[str, int] = {}
    total = 0
    parts = documents.select_columns(["text"]).map_batches(
        mg_partial, batch_format="pyarrow"
    )
    for ref in parts.materialize().to_arrow_refs():
        t = ray.get(ref)
        for term, c in zip(t.column("term").to_pylist(), t.column("cnt").to_pylist()):
            if term == "\x00total":
                total += c
            else:
                acc[term] = acc.get(term, 0) + c
        acc = _mg_compress(acc, k)

    cands = sorted(acc)
    if not cands:
        return pa.table(
            {"term": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
        )
    cand_arr = pa.array(cands, pa.string())

    def recount(batch: pa.Table) -> pa.Table:
        toks, _, _ = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return pa.table(
                {"term": pa.array([], pa.string()), "cnt": pa.array([], pa.int64())}
            )
        idx = pc.index_in(toks, value_set=cand_arr)
        valid = idx.to_numpy(zero_copy_only=False)
        hit = valid[~np.isnan(valid.astype(np.float64))].astype(np.int64) if valid.dtype.kind == "f" else valid[valid >= 0]
        cnt = np.bincount(hit, minlength=len(cands)).astype(np.int64)
        return pa.table({"term": cand_arr, "cnt": pa.array(cnt)})

    ex: dict[str, int] = {c: 0 for c in cands}
    rp = documents.select_columns(["text"]).map_batches(recount, batch_format="pyarrow")
    for ref in rp.materialize().to_arrow_refs():
        t = ray.get(ref)
        for term, c in zip(t.column("term").to_pylist(), t.column("cnt").to_pylist()):
            ex[term] += c

    thresh = total / k
    keep = [(t, c) for t, c in sorted(ex.items()) if c > thresh]
    return pa.table(
        {
            "term": pa.array([t for t, _ in keep], pa.string()),
            "cnt": pa.array([c for _, c in keep], pa.int64()),
        }
    )


def zipf_fit_ds(documents: rd.Dataset, top_m: int = 1000) -> pa.Table:
    """Zipf rank-frequency fit over the top-``top_m`` vocabulary: least-
    squares slope/intercept of ln(cf) on ln(rank) (rank by cf desc,
    term asc) — the one-row corpus-health signature (natural text
    slopes ≈ −1; template/spam corpora flatten or step).
    → (slope[r6], intercept[r6], n_terms).

    Scale shape: vocab-sized cf exchange (per-batch combiner), then
    per-block partial top-m (any global top-m row is inside its block's
    top-m, so the union is a superset) with a ≤ m·n_blocks driver
    merge; the regression is five scalar sums whose expression shape
    the SQL mirror repeats verbatim."""
    from ..functions.hashing import flat_nonempty_tokens

    def cf_partials(batch: pa.Table) -> pa.Table:
        toks, _, _ = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return pa.table(
                {"term": pa.array([], pa.string()), "cf": pa.array([], pa.int64())}
            )
        g = pa.table({"term": toks}).group_by("term").aggregate([("term", "count")])
        return pa.table(
            {"term": g.column("term"), "cf": pc.cast(g.column("term_count"), pa.int64())}
        )

    vocab = (
        documents.select_columns(["text"])
        .map_batches(cf_partials, batch_format="pyarrow")
        .groupby("term")
        .sum("cf")
    )

    def topm(batch: pa.Table) -> pa.Table:
        if not len(batch) or "term" not in batch.column_names:
            # zero-row groupby blocks can carry an empty schema
            return pa.table(
                {"term": pa.array([], pa.string()), "cf": pa.array([], pa.int64())}
            )
        terms = batch.column("term").to_numpy(zero_copy_only=False)
        cfs = batch.column("sum(cf)").to_numpy(zero_copy_only=False)
        if len(terms) > top_m:
            idx = np.lexsort((terms, -cfs))[:top_m]
            terms, cfs = terms[idx], cfs[idx]
        return pa.table(
            {
                "term": pa.array(terms.tolist(), pa.string()),
                "cf": pa.array(cfs, pa.int64()),
            }
        )

    parts = [
        ray.get(r)
        for r in vocab.map_batches(topm, batch_format="pyarrow").materialize().to_arrow_refs()
    ]
    t = pa.concat_tables([p for p in parts if len(p)])
    terms = np.array(t.column("term").to_pylist())
    cfs = t.column("cf").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((terms, -cfs))[: min(top_m, len(terms))]
    cfs = cfs[order]
    m = float(len(cfs))
    x = np.log(np.arange(1, len(cfs) + 1, dtype=np.float64))
    y = np.log(cfs.astype(np.float64))
    sx, sy, sxy, sxx = x.sum(), y.sum(), (x * y).sum(), (x * x).sum()
    slope = (m * sxy - sx * sy) / (m * sxx - sx * sx)
    intercept = (sy - slope * sx) / m
    return pa.table(
        {
            "slope": pa.array([round(slope, 6)], pa.float64()),
            "intercept": pa.array([round(intercept, 6)], pa.float64()),
            "n_terms": pa.array([int(m)], pa.int64()),
        }
    )


def sif_embed_ds(
    documents: rd.Dataset,
    *,
    n_dims: int = 4,
    a: float = 1e-3,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """→ (doc_id, dim, emb[r6]): SIF-style document embeddings (Arora
    et al. 2017 "A Simple but Tough-to-Beat Baseline") over
    deterministic HASHED token vectors — no model file needed, yet the
    output is a real dense representation downstream ANN / clustering
    operators can consume:

        emb_j(d) = Σ_t tf(d,t) · w(t) · v_j(t)
        w(t)    = a / (a + cf(t)/T)          (SIF frequency damping)
        v_j(t)  = md5_u64(t‖':'‖j)/2^63 − 1  ∈ [−1, 1)

    md5_u64 == DuckDB md5_number_lower, so the oracle reproduces the
    vectors bit-for-bit; addends are identical doubles on both sides
    ((tf·w)·v in this exact association) and round(·,6) bridges the
    summation order.

    Scale shape: pass 1 is the standard vocab-sized cf aggregate
    (per-batch combiners → one term groupby → driver collect, the same
    annotated vocabulary-sized side model every scorer here uses);
    the (w, v) model broadcasts once via ``ray.put``; pass 2 streams —
    per batch ONE np.unique over (doc,term) codes and ``n_dims``
    bincount calls. No shuffle touches doc rows."""
    from ..functions.hashing import flat_nonempty_tokens, md5_u64

    def cf_partial(batch: pa.Table) -> pa.Table:
        toks, _parents, _ = flat_nonempty_tokens(batch.column(text_col))
        if not len(toks):
            return pa.table(
                {"term": pa.array([], pa.string()), "cf": pa.array([], pa.int64())}
            )
        d = toks.dictionary_encode()
        codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        cnt = np.bincount(codes, minlength=len(d.dictionary)).astype(np.int64)
        return pa.table({"term": d.dictionary, "cf": pa.array(cnt)})

    cf_t = pa.concat_tables(
        [
            t
            for t in ray.get(
                documents.select_columns([text_col])
                .map_batches(cf_partial, batch_format="pyarrow", batch_size=4096)
                .groupby("term")
                .sum("cf")
                .materialize().to_arrow_refs()
            )
            if len(t)  # zero-row groupby blocks carry an empty schema
        ]
    )  # vocabulary-sized collect (annotated)
    vocab = np.asarray(cf_t.column("term").to_pylist(), dtype=object)
    order = np.argsort(vocab)
    vocab = vocab[order]
    cf = cf_t.column("sum(cf)").to_numpy(zero_copy_only=False).astype(np.int64)[order]
    big_t = float(cf.sum())
    w = a / (a + cf.astype(np.float64) / big_t)
    v = np.empty((n_dims, len(vocab)), np.float64)
    for j in range(n_dims):
        v[j] = md5_u64([f"{t}:{j}" for t in vocab]).astype(np.float64) / float(
            2**63
        ) - 1.0
    model_ref = [ray.put((vocab, w, v))]

    def embed(batch: pa.Table) -> pa.Table:
        import pandas as pd

        vocab_, w_, v_ = ray.get(model_ref[0])
        vi = pd.Index(vocab_)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        toks, parents, _ = flat_nonempty_tokens(batch.column(text_col))
        n = len(ids)
        emb = np.zeros((n_dims, n), np.float64)
        has = np.zeros(n, bool)
        if len(toks):
            d = toks.dictionary_encode()
            codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            code2v = vi.get_indexer(d.dictionary.to_pylist())
            # per-(doc, term) tf so the addend is SQL's tf·w·v exactly
            combo = parents * np.int64(len(code2v)) + codes
            uniq, tf = np.unique(combo, return_counts=True)
            up = uniq // len(code2v)
            uv = code2v[uniq % len(code2v)]
            has[up] = True
            tfw = tf.astype(np.float64) * w_[uv]
            for j in range(n_dims):
                emb[j] = np.bincount(up, weights=tfw * v_[j][uv], minlength=n)
        # zero-token docs emit NO rows (the oracle's tf join drops them)
        out_ids = np.repeat(ids[has], n_dims)
        out_dim = np.tile(np.arange(n_dims, dtype=np.int64), int(has.sum()))
        return pa.table(
            {
                id_col: pa.array(out_ids, pa.int64()),
                "dim": pa.array(out_dim, pa.int64()),
                "emb": pa.array(np.round(emb.T[has].ravel(), 6), pa.float64()),
            }
        )

    return documents.select_columns([id_col, text_col]).map_batches(
        embed, batch_format="pyarrow", batch_size=4096
    )


def search_passages_ds(
    documents: rd.Dataset,
    query_terms: list[str],
    *,
    k: int = 10,
    chunk_len: int = 16,
    stride: int = 8,
) -> pa.Table:
    """→ (doc_id, chunk_id, score[r6]) top-``k`` PASSAGES for a bag of
    query terms — the RAG retrieval step after :func:`doc_chunks_ds`:
    chunks are scored ``Σ_t tf(chunk,t) · ln((Nc+1)/(df_t+1))`` with
    chunk-level df/N (passage-granular idf, not doc-granular), ranked
    (score desc, doc_id, chunk_id).

    Scale shape: ONE streaming pass over the chunk stream (the chunker
    is a shuffle-free flat map, so this whole operator is one scan of
    documents). Each batch emits a SLIM table: per-chunk tf rows for
    the query terms only (matches-sized) plus one chunk-count marker
    row per batch (term='', tf=n_chunks). The driver fold is therefore
    bounded by matches + batch count — the same annotated small-result
    collect as the champion-list builder; at cluster scale the same
    slim rows feed a (term) groupby for df and a per-block top-k merge
    instead."""
    import pandas as pd
    import pyarrow.compute as pc

    from ..functions.hashing import flat_nonempty_tokens

    qt = sorted(dict.fromkeys(query_terms))
    chunks = doc_chunks_ds(documents, chunk_len=chunk_len, stride=stride)

    def slim(batch: pa.Table) -> pa.Table:
        n = len(batch)
        toks, parents, _ = flat_nonempty_tokens(batch.column("chunk_text"))
        out_doc, out_chunk, out_term, out_tf = [], [], [], []
        if len(toks):
            dids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            cids = batch.column("chunk_id").to_numpy(zero_copy_only=False)
            for t in qt:
                hit = pc.equal(toks, t).to_numpy(zero_copy_only=False)
                if not hit.any():
                    continue
                tf = np.bincount(parents[hit], minlength=n)
                nz = np.flatnonzero(tf)
                out_doc.append(dids[nz])
                out_chunk.append(cids[nz])
                out_term.append(np.full(len(nz), t, dtype=object))
                out_tf.append(tf[nz])
        out_doc.append(np.array([-1], np.int64))  # batch chunk-count marker
        out_chunk.append(np.array([-1], np.int64))
        out_term.append(np.array([""], dtype=object))
        out_tf.append(np.array([n], np.int64))
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(out_doc).astype(np.int64)),
                "chunk_id": pa.array(np.concatenate(out_chunk).astype(np.int64)),
                "term": pa.array(np.concatenate(out_term), pa.string()),
                "tf": pa.array(np.concatenate(out_tf).astype(np.int64)),
            }
        )

    t = pa.concat_tables(
        [
            x
            for x in ray.get(
                chunks.map_batches(slim, batch_format="pyarrow").materialize().to_arrow_refs()
            )
            if len(x)
        ]
    )
    terms = t.column("term").to_numpy(zero_copy_only=False)
    is_marker = terms == ""
    n_chunks = int(t.column("tf").to_numpy(zero_copy_only=False)[is_marker].sum())
    m = t.filter(pa.array(~is_marker))
    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "chunk_id": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }
    )
    if not len(m):
        return empty
    mt = m.column("term").to_numpy(zero_copy_only=False)
    df = {q: int((mt == q).sum()) for q in qt}
    idf = {q: np.log((n_chunks + 1.0) / (df[q] + 1.0)) for q in qt}
    w = np.array([idf[q] for q in mt], np.float64)
    contrib = m.column("tf").to_numpy(zero_copy_only=False).astype(np.float64) * w
    dids = m.column("doc_id").to_numpy(zero_copy_only=False)
    cids = m.column("chunk_id").to_numpy(zero_copy_only=False)
    key = pd.MultiIndex.from_arrays([dids, cids])
    s = pd.Series(contrib, index=key).groupby(level=[0, 1], sort=False).sum()
    sc = np.round(s.to_numpy(np.float64), 6)
    dd = s.index.get_level_values(0).to_numpy(np.int64)
    cc = s.index.get_level_values(1).to_numpy(np.int64)
    order = np.lexsort((cc, dd, -sc))[: min(k, len(sc))]
    return pa.table(
        {
            "doc_id": pa.array(dd[order], pa.int64()),
            "chunk_id": pa.array(cc[order], pa.int64()),
            "score": pa.array(sc[order], pa.float64()),
        }
    )


def stopword_candidates_ds(
    documents: rd.Dataset, *, ratio_num: int = 3, ratio_den: int = 10
) -> rd.Dataset:
    """→ (term, df, ratio): corpus-driven stopword-list generation —
    terms whose document frequency reaches ``ratio_num/ratio_den`` of
    the corpus (the classic build-your-own-stoplist rule; reference's
    tokenizer has no stoplist, this derives one from the data).

    The threshold compares exact integers (df·den ≥ num·N), so no float
    boundary can disagree with the oracle; ``ratio`` is a single
    rounded division for display.  Scale shape: per-batch per-doc
    distinct-term combiners → ONE term-grain exchange; N comes from
    dataset metadata (no extra pass); the survivor set is
    stoplist-sized."""
    from ..functions.hashing import flat_nonempty_tokens

    n_docs = documents.count()

    def df_partial(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return pa.table(
                {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        pairs = pa.table({"term": toks, "p": pa.array(parents, pa.int64())})
        dis = pairs.group_by(["term", "p"]).aggregate([])
        g = dis.group_by("term").aggregate([("p", "count")])
        return pa.table(
            {"term": g.column("term"), "df": pc.cast(g.column("p_count"), pa.int64())}
        )

    per_term = (
        documents.select_columns(["text"])
        .map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .sum("df")
    )

    def fin(t: pa.Table) -> pa.Table:
        if not len(t) or "term" not in t.column_names:
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "df": pa.array([], pa.int64()),
                    "ratio": pa.array([], pa.float64()),
                }
            )
        df = t.column("sum(df)").to_numpy(zero_copy_only=False)
        keep = df * ratio_den >= ratio_num * n_docs
        dfk = df[keep]
        return pa.table(
            {
                "term": t.column("term").filter(pa.array(keep)),
                "df": pa.array(dfk, pa.int64()),
                "ratio": pa.array(
                    np.round(dfk.astype(np.float64) / float(n_docs), 6), pa.float64()
                ),
            }
        )

    return per_term.map_batches(fin, batch_format="pyarrow")


def cori_shard_scores(
    documents: rd.Dataset,
    query: str,
    *,
    n_shards: int = 8,
    b: float = 0.4,
) -> "pd.DataFrame":
    """→ (shard, score, n_terms): CORI resource selection (Callan et
    al. 1995) over a doc_id-hash sharding — the selective-search
    primitive that lets a 10^12-doc cluster route a query to the few
    index shards worth searching instead of broadcasting it.

    Per query term t and shard s: T = df_st / (df_st + 50 + 150·cw_s /
    avg_cw) (df-to-shard-size saturation), I = ln((S+0.5)/R_t) /
    ln(S+1) (shard-level idf, R_t = #shards containing t), belief =
    b + (1−b)·T·I; score(s) = Σ_t belief.  Terms absent corpus-wide
    contribute nothing; terms absent in one shard contribute the
    baseline b there (T=0).

    Scale shape: ONE tokenize pass emits per-batch (shard, term,
    df-partial) rows for the |q| query terms plus per-shard token-count
    sentinels — the exchange is (S·|q| + S) × batches rows folded on
    the driver; the corpus never shuffles.  At cluster scale the same
    statistics come straight from per-shard index metadata (segment
    df/cf), making selection a metadata-only operation."""
    import pandas as pd

    from ..functions.hashing import flat_nonempty_tokens
    from ..functions.tokenize import query_lemmas

    terms = query_lemmas(query)
    if not terms:
        return pd.DataFrame({"shard": [], "score": [], "n_terms": []})
    tset = sorted(set(terms))
    t_ref = ray.put(np.array(tset))

    CW = "\x00cw"  # sentinel term: per-shard token count

    def partial(batch: pa.Table) -> pa.Table:
        qt = ray.get(t_ref)
        toks, parents, counts = flat_nonempty_tokens(batch.column("text"))
        doc = batch.column("doc_id").to_numpy(zero_copy_only=False)
        shard = (doc % n_shards).astype(np.int64)
        rows_s: list[int] = []
        rows_t: list[str] = []
        rows_v: list[int] = []
        # per-shard token-count sentinels
        sh_tok = np.zeros(n_shards, np.int64)
        np.add.at(sh_tok, shard, counts)
        for s in np.nonzero(sh_tok)[0]:
            rows_s.append(int(s))
            rows_t.append(CW)
            rows_v.append(int(sh_tok[s]))
        if len(toks):
            tv = toks.to_numpy(zero_copy_only=False)
            for t in qt:
                hit_parents = np.unique(parents[tv == t])
                if not hit_parents.size:
                    continue
                sh, cnt = np.unique(shard[hit_parents], return_counts=True)
                for s_, c_ in zip(sh, cnt):
                    rows_s.append(int(s_))
                    rows_t.append(str(t))
                    rows_v.append(int(c_))
        return pa.table(
            {
                "shard": pa.array(rows_s, pa.int64()),
                "term": pa.array(rows_t, pa.string()),
                "v": pa.array(rows_v, pa.int64()),
            }
        )

    cw = np.zeros(n_shards, np.int64)
    df: dict[str, np.ndarray] = {t: np.zeros(n_shards, np.int64) for t in tset}
    for ref in (
        documents.select_columns(["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .materialize().to_arrow_refs()
    ):
        t = ray.get(ref)
        for s_, t_, v_ in zip(
            t.column("shard").to_pylist(),
            t.column("term").to_pylist(),
            t.column("v").to_pylist(),
        ):
            if t_ == CW:
                cw[s_] += v_
            else:
                df[t_][s_] += v_

    S = float(n_shards)
    avg_cw = float(cw.sum()) / S
    score = np.zeros(n_shards, np.float64)
    n_terms = np.zeros(n_shards, np.int64)
    for t in tset:
        d = df[t].astype(np.float64)
        R = float((df[t] > 0).sum())
        if R == 0.0:
            continue
        T = d / (d + 50.0 + 150.0 * cw.astype(np.float64) / avg_cw)
        I = np.log((S + 0.5) / R) / np.log(S + 1.0)
        score += b + (1.0 - b) * T * I
        n_terms += (df[t] > 0).astype(np.int64)

    order = np.lexsort((np.arange(n_shards), -np.round(score, 6)))
    return pd.DataFrame(
        {
            "shard": order.astype(np.int64),
            "score": np.round(score[order], 6),
            "n_terms": n_terms[order],
        }
    )


def bm25f_scores_ds(
    documents: rd.Dataset,
    query: str,
    *,
    lead_len: int = 32,
    w_lead: float = 2.0,
    w_body: float = 1.0,
    k1: float = 1.2,
    b: float = 0.75,
) -> rd.Dataset:
    """→ (doc_id, score): fielded BM25F ranking (Robertson/Zaragoza
    2004, simple weighted-field variant) with two derived fields — the
    LEAD (first ``lead_len`` tokens, the title/abstract analog of a
    plain-text corpus) weighted ``w_lead`` and the BODY weighted
    ``w_body``.  Weighted tf  tfw = w_l·tf_lead + w_b·tf_body and
    weighted length dlw = w_l·len_lead + w_b·len_body feed ONE BM25
    saturation (per-field-weight, single normalization — the property
    that distinguishes BM25F from naively summing per-field BM25).

    score(d) = Σ_t idf_t · tfw·(k1+1) / (tfw + k1·(1−b+b·dlw/avgdlw)),
    idf = ln((N+1)/(df+1)) (the serving convention), N = corpus size.

    Scale shape: pass 1 folds scalar partials (Σdlw, per-term df —
    |q|+1 numbers per batch); pass 2 is a stateless scoring scan
    emitting only matching docs.  No shuffle in either pass."""
    from ..functions.hashing import flat_nonempty_tokens
    from ..functions.tokenize import query_lemmas

    terms = sorted(set(query_lemmas(query)))
    n_docs = documents.count()
    if not terms or n_docs == 0:
        return rd.from_arrow(
            pa.table(
                {"doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
            )
        )
    t_ref = ray.put(np.array(terms))

    def _fields(batch: pa.Table):
        """Shared tokenize preamble → (parents, lead-mask, token values,
        per-row kept-token counts)."""
        toks, parents, counts = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return None
        starts = np.zeros(len(batch), np.int64)
        np.cumsum(counts[:-1], out=starts[1:] if len(counts) > 1 else starts[:0])
        pos = np.arange(len(parents)) - starts[parents]
        return toks.to_numpy(zero_copy_only=False), parents, pos < lead_len, counts

    def stats_partial(batch: pa.Table) -> pa.Table:
        qt = ray.get(t_ref)
        f = _fields(batch)
        out_df = np.zeros(len(qt), np.int64)
        dlw_sum = 0.0
        if f is not None:
            tv, parents, lead, counts = f
            lead_len_per = np.minimum(counts, lead_len)
            dlw = w_lead * lead_len_per + w_body * np.maximum(counts - lead_len, 0)
            dlw_sum = float(dlw.sum())
            for i, t in enumerate(qt):
                out_df[i] = np.unique(parents[tv == t]).size
        cols = {"dlw_sum": pa.array([dlw_sum], pa.float64())}
        for i, t in enumerate(ray.get(t_ref)):
            cols[f"df_{i}"] = pa.array([int(out_df[i])], pa.int64())
        return pa.table(cols)

    dlw_total = 0.0
    dfs = np.zeros(len(terms), np.int64)
    for ref in (
        documents.select_columns(["text"])
        .map_batches(stats_partial, batch_format="pyarrow")
        .materialize().to_arrow_refs()
    ):
        t = ray.get(ref)
        dlw_total += float(np.sum(t.column("dlw_sum").to_numpy(zero_copy_only=False)))
        for i in range(len(terms)):
            dfs[i] += int(np.sum(t.column(f"df_{i}").to_numpy(zero_copy_only=False)))

    avgdlw = dlw_total / float(n_docs)
    idf = np.log((n_docs + 1.0) / (dfs.astype(np.float64) + 1.0))
    model_ref = ray.put((np.array(terms), idf))

    def score_partial(batch: pa.Table) -> pa.Table:
        qt, idfv = ray.get(model_ref)
        f = _fields(batch)
        if f is None:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "score": pa.array([], pa.float64())}
            )
        tv, parents, lead, counts = f
        n = len(batch)
        lead_len_per = np.minimum(counts, lead_len)
        dlw = w_lead * lead_len_per + w_body * np.maximum(counts - lead_len, 0)
        score = np.zeros(n, np.float64)
        matched = np.zeros(n, bool)
        for i in range(len(qt)):
            hit = tv == qt[i]
            tf_lead = np.bincount(parents[hit & lead], minlength=n)
            tf_body = np.bincount(parents[hit & ~lead], minlength=n)
            tfw = w_lead * tf_lead + w_body * tf_body
            has = tfw > 0
            matched |= has
            denom = tfw + k1 * (1.0 - b + b * dlw / avgdlw)
            score += np.where(has, idfv[i] * (tfw * (k1 + 1.0)) / denom, 0.0)
        doc = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(doc[matched], pa.int64()),
                "score": pa.array(np.round(score[matched], 6), pa.float64()),
            }
        )

    return documents.select_columns(["doc_id", "text"]).map_batches(
        score_partial, batch_format="pyarrow"
    )


def normalize_text_ds(documents: rd.Dataset) -> rd.Dataset:
    """→ (doc_id, text_norm, n_chars_norm): C4-style text normalization
    rewrite — lowercase, collapse every whitespace run to one space,
    strip the ends.  The cleanup pass a web corpus runs before
    tokenize/dedup so byte-level noise (tabs, CRLF, double spaces)
    cannot split otherwise-identical documents.

    RE2 semantics on BOTH sides (pyarrow and DuckDB both compile RE2),
    so the ``\\s+`` class is identical by construction.  Scale shape:
    stateless zero-copy Arrow kernels per batch, no shuffle — the
    rewrite streams."""

    def norm(batch: pa.Table) -> pa.Table:
        txt = batch.column("text")
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        low = pc.utf8_lower(txt)
        one = pc.replace_substring_regex(low, r"\s+", " ")
        # after the collapse only ASCII spaces can touch the ends; trim
        # exactly those (TRIM-parity with the SQL mirror)
        out = pc.utf8_trim(one, " ")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "text_norm": out,
                "n_chars_norm": pc.cast(pc.utf8_length(out), pa.int64()),
            }
        )

    return documents.select_columns(["doc_id", "text"]).map_batches(
        norm, batch_format="pyarrow"
    )


def query_clarity_ds(
    documents: rd.Dataset,
    top_doc_ids: "np.ndarray",
) -> "pd.DataFrame":
    """→ one row (clarity, n_terms): the Clarity query-performance
    predictor (Cronen-Townsend et al. 2002) — KL divergence between the
    result set's language model and the corpus LM.  A high-clarity
    query retrieves a topically-tight set (its LM diverges from the
    background); ambiguous queries score near 0.  Serving uses it to
    decide when to trigger expansion / spell correction.

    P(t|R) = Σ_{d∈R} tf / Σ_{d∈R} dl (MLE over the concatenated result
    docs), P(t|C) = cf/|C|; clarity = Σ_{t∈R} P(t|R)·ln(P(t|R)/P(t|C)).

    Scale shape: the top-k doc-id set broadcasts; ONE tokenize pass
    folds (corpus cf partials) + (result-set tf partials, k docs' worth
    of terms) — no shuffle; the divergence folds over the result-set
    vocabulary only."""
    import pandas as pd

    from ..functions.hashing import flat_nonempty_tokens

    ids_ref = ray.put(np.sort(np.asarray(top_doc_ids, np.int64)))

    def partial(batch: pa.Table) -> pa.Table:
        ids = ray.get(ids_ref)
        toks, parents, counts = flat_nonempty_tokens(batch.column("text"))
        doc = batch.column("doc_id").to_numpy(zero_copy_only=False)
        total = int(counts.sum())
        terms: list[str] = ["\x00total"]
        tfs: list[int] = [total]
        in_r: list[bool] = [False]
        if len(toks):
            pos = np.searchsorted(ids, doc)
            pos[pos == len(ids)] = 0
            hit_doc = (ids[pos] == doc) if len(ids) else np.zeros(len(doc), bool)
            tv = toks.to_numpy(zero_copy_only=False)
            # corpus cf over the RESULT-SET vocabulary only (the sum
            # runs over t∈R): restrict cf partials to terms present in
            # the hit docs of ANY batch — emit cf for every term in this
            # batch (vocab-sized), plus tf rows for hit docs
            hit_tok = hit_doc[parents]
            if hit_tok.any():
                ut, cnt = np.unique(tv[hit_tok], return_counts=True)
                terms += [str(t) for t in ut]
                tfs += cnt.tolist()
                in_r += [True] * len(ut)
            ut_all, cnt_all = np.unique(tv, return_counts=True)
            terms += [str(t) for t in ut_all]
            tfs += cnt_all.tolist()
            in_r += [False] * len(ut_all)
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "tf": pa.array(tfs, pa.int64()),
                "in_r": pa.array(in_r, pa.bool_()),
            }
        )

    c_total = 0
    cf: dict[str, int] = {}
    rtf: dict[str, int] = {}
    for ref in (
        documents.select_columns(["doc_id", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .materialize().to_arrow_refs()
    ):
        t = ray.get(ref)
        for term, v, inr in zip(
            t.column("term").to_pylist(),
            t.column("tf").to_pylist(),
            t.column("in_r").to_pylist(),
        ):
            if term == "\x00total":
                c_total += v
            elif inr:
                rtf[term] = rtf.get(term, 0) + v
            else:
                cf[term] = cf.get(term, 0) + v

    r_total = sum(rtf.values())
    if not r_total or not c_total:
        return pd.DataFrame({"clarity": [0.0], "n_terms": [0]})
    clarity = 0.0
    for term in sorted(rtf):
        p_r = rtf[term] / r_total
        p_c = cf[term] / c_total
        clarity += p_r * np.log(p_r / p_c)
    return pd.DataFrame(
        {"clarity": [round(float(clarity), 6)], "n_terms": [len(rtf)]}
    )


def psi_drift_ds(
    documents: rd.Dataset,
    *,
    bucket_chars: int = 200,
    n_buckets: int = 10,
) -> rd.Dataset:
    """→ (bucket, n_a, n_b, contrib): Population Stability Index drift
    check between the corpus's even- and odd-doc_id halves over the
    doc-length distribution (n_chars // bucket_chars, clamped to
    ``n_buckets``) — the standard "did this batch drift?" monitor a
    100 TB ingest runs between snapshots.  Laplace +1 smoothing on both
    halves keeps every ln finite and deterministic.

    contrib = (pA − pB)·ln(pA/pB) per bucket with pX = (n_x+1)/(N_x+B);
    PSI = Σ contrib (the caller sums — per-bucket rows keep the report
    auditable).  Scale shape: per-batch (bucket, half) count combiners
    → one B-sized exchange; nothing else moves."""

    def partial(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_id").to_numpy(zero_copy_only=False)
        nch = batch.column("n_chars").to_numpy(zero_copy_only=False)
        b = np.minimum(nch // bucket_chars, n_buckets - 1).astype(np.int64)
        half = (doc % 2).astype(np.int64)
        key = b * 2 + half
        cnt = np.bincount(key, minlength=n_buckets * 2).astype(np.int64)
        return pa.table(
            {
                "key": pa.array(np.arange(n_buckets * 2, dtype=np.int64)),
                "cnt": pa.array(cnt),
            }
        )

    agg = (
        documents.select_columns(["doc_id", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("key")
        .sum("cnt")
    )

    counts = np.zeros(n_buckets * 2, np.int64)
    for ref in agg.materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t) or "key" not in t.column_names:
            continue
        k = t.column("key").to_numpy(zero_copy_only=False)
        counts[k] += t.column("sum(cnt)").to_numpy(zero_copy_only=False)

    n_a = counts[0::2].astype(np.float64)
    n_b = counts[1::2].astype(np.float64)
    pa_ = (n_a + 1.0) / (n_a.sum() + n_buckets)
    pb_ = (n_b + 1.0) / (n_b.sum() + n_buckets)
    contrib = (pa_ - pb_) * np.log(pa_ / pb_)
    return rd.from_arrow(
        pa.table(
            {
                "bucket": pa.array(np.arange(n_buckets, dtype=np.int64)),
                "n_a": pa.array(n_a.astype(np.int64)),
                "n_b": pa.array(n_b.astype(np.int64)),
                "contrib": pa.array(np.round(contrib, 6), pa.float64()),
            }
        )
    )


def df_histogram_ds(documents: rd.Dataset) -> rd.Dataset:
    """→ (bucket, n_terms, sum_df): document-frequency histogram of the
    vocabulary in power-of-two buckets (bucket = floor(log2(df))) — the
    index-introspection profile that drives posting-compression and
    salting decisions (how heavy is the Zipf head, how long the
    singleton tail).

    Scale shape: per-batch per-doc distinct-term combiners → ONE
    term-grain exchange for df, then a log2-bucket combiner whose
    exchange is ~60 rows; the vocabulary never reaches the driver."""
    from ..functions.hashing import flat_nonempty_tokens

    def df_partial(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return pa.table(
                {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
        pairs = pa.table({"term": toks, "p": pa.array(parents, pa.int64())})
        dis = pairs.group_by(["term", "p"]).aggregate([])
        g = dis.group_by("term").aggregate([("p", "count")])
        return pa.table(
            {"term": g.column("term"), "df": pc.cast(g.column("p_count"), pa.int64())}
        )

    per_term = (
        documents.select_columns(["text"])
        .map_batches(df_partial, batch_format="pyarrow")
        .groupby("term")
        .sum("df")
    )

    def bucket_partial(t: pa.Table) -> pa.Table:
        if not len(t) or "term" not in t.column_names:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "n_terms": pa.array([], pa.int64()),
                    "sum_df": pa.array([], pa.int64()),
                }
            )
        df = t.column("sum(df)").to_numpy(zero_copy_only=False)
        b = np.floor(np.log2(df.astype(np.float64))).astype(np.int64)
        ub, inv = np.unique(b, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        s = np.zeros(len(ub), np.int64)
        np.add.at(s, inv, df)
        return pa.table(
            {
                "bucket": pa.array(ub),
                "n_terms": pa.array(n),
                "sum_df": pa.array(s),
            }
        )

    return (
        per_term.map_batches(bucket_partial, batch_format="pyarrow")
        .groupby("bucket")
        .sum(["n_terms", "sum_df"])
        .map_batches(
            lambda t: pa.table(
                {
                    "bucket": t["bucket"],
                    "n_terms": pc.cast(t["sum(n_terms)"], pa.int64()),
                    "sum_df": pc.cast(t["sum(sum_df)"], pa.int64()),
                }
            )
            if len(t) and "bucket" in t.column_names
            else pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "n_terms": pa.array([], pa.int64()),
                    "sum_df": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def term_burstiness_ds(documents: rd.Dataset, *, min_df: int = 5) -> rd.Dataset:
    """→ (term, df, mean_tf, vmr): term burstiness — the
    variance-to-mean ratio of a term's within-document frequency over
    the documents that contain it (Church & Gale 1995).  VMR ≈ 1 means
    Poisson-like function words; VMR ≫ 1 means bursty content words —
    the signal that separates topical vocabulary from glue when
    building keyword extractors and stoplists.

    mean = Σtf/df, vmr = (Σtf²/df − mean²) / mean, both from ONE
    (term → Σtf, Σtf², df) combiner exchange; ``min_df`` trims the
    unstable singleton tail.  Exact integer sums; two float divisions
    at the end, rounded 6 on both sides."""
    from ..functions.hashing import flat_nonempty_tokens

    def partial(batch: pa.Table) -> pa.Table:
        toks, parents, _ = flat_nonempty_tokens(batch.column("text"))
        if not len(toks):
            return pa.table(
                {
                    "term": pa.array([], pa.string()),
                    "s1": pa.array([], pa.int64()),
                    "s2": pa.array([], pa.int64()),
                    "df": pa.array([], pa.int64()),
                }
            )
        t = pa.table({"term": toks, "p": pa.array(parents, pa.int64())})
        g = t.group_by(["term", "p"]).aggregate([([], "count_all")])
        tf = g.column("count_all").to_numpy(zero_copy_only=False).astype(np.int64)
        terms = g.column("term")
        agg = pa.table(
            {
                "term": terms,
                "s1": pa.array(tf),
                "s2": pa.array(tf * tf),
                "df": pa.array(np.ones(len(tf), np.int64)),
            }
        ).group_by("term").aggregate([("s1", "sum"), ("s2", "sum"), ("df", "sum")])
        return pa.table(
            {
                "term": agg.column("term"),
                "s1": pc.cast(agg.column("s1_sum"), pa.int64()),
                "s2": pc.cast(agg.column("s2_sum"), pa.int64()),
                "df": pc.cast(agg.column("df_sum"), pa.int64()),
            }
        )

    agg = (
        documents.select_columns(["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("term")
        .sum(["s1", "s2", "df"])
    )

    def fin(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "term": pa.array([], pa.string()),
                "df": pa.array([], pa.int64()),
                "mean_tf": pa.array([], pa.float64()),
                "vmr": pa.array([], pa.float64()),
            }
        )
        if not len(t) or "term" not in t.column_names:
            return empty
        s1 = t.column("sum(s1)").to_numpy(zero_copy_only=False).astype(np.float64)
        s2 = t.column("sum(s2)").to_numpy(zero_copy_only=False).astype(np.float64)
        df = t.column("sum(df)").to_numpy(zero_copy_only=False).astype(np.float64)
        keep = df >= min_df
        s1, s2, df = s1[keep], s2[keep], df[keep]
        mean = s1 / df
        vmr = (s2 / df - mean * mean) / mean
        return pa.table(
            {
                "term": t.column("term").filter(pa.array(keep)),
                "df": pa.array(df.astype(np.int64)),
                "mean_tf": pa.array(np.round(mean, 6), pa.float64()),
                "vmr": pa.array(np.round(vmr, 6), pa.float64()),
            }
        )

    return agg.map_batches(fin, batch_format="pyarrow")


def source_quality_summary_ds(documents: rd.Dataset) -> rd.Dataset:
    """→ (source, n_docs, p25, p50, p75): per-source five-number-style
    summary of document length (n_chars) with EXACT percentile_disc
    quartiles — the per-provider profile a data-mix dashboard renders.

    Scale shape: per-batch (source, n_chars) count combiners → ONE
    (source × distinct-length)-sized exchange; quartiles fold from the
    per-source histograms inside the group blocks (no full sort, no
    per-doc rows past the combiner)."""

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "source": batch.column("source"),
                "n_chars": batch.column("n_chars").cast(pa.int64()),
            }
        )
        g = t.group_by(["source", "n_chars"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": g.column("source"),
                "n_chars": g.column("n_chars"),
                "cnt": pc.cast(g.column("count_all"), pa.int64()),
            }
        )

    agg = (
        documents.select_columns(["source", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["source", "n_chars"])
        .sum("cnt")
    )

    def summarize(g):
        g = g.sort_values("n_chars", kind="mergesort")
        vals = g["n_chars"].to_numpy()
        cnts = g["sum(cnt)"].to_numpy().astype(np.int64)
        n = int(cnts.sum())
        cum = np.cumsum(cnts)

        def disc(q: float) -> int:
            target = int(np.ceil(q * n))  # 1-based percentile_disc
            return int(vals[np.searchsorted(cum, max(target, 1))])

        import pandas as pd

        return pd.DataFrame(
            {
                "source": [g["source"].iloc[0]],
                "n_docs": [n],
                "p25": [disc(0.25)],
                "p50": [disc(0.5)],
                "p75": [disc(0.75)],
            }
        )

    return agg.groupby("source").map_groups(summarize, batch_format="pandas")


def source_fertility_ds(documents: rd.Dataset) -> rd.Dataset:
    """→ (source, n_docs, n_tokens, n_chars, chars_per_token,
    tokens_per_doc): per-source tokenizer fertility — the chars/token
    and tokens/doc ratios a pipeline reads before sizing packing, BPE
    vocab or per-source token budgets (a source whose chars/token runs
    high tokenizes expensively; one whose tokens/doc collapses signals
    boilerplate or truncation).

    Scale shape: per-batch (source, docs, tokens, chars) combiners →
    ONE source-grain exchange; ratios are one rounded division per
    source on the result."""
    from ..functions.hashing import flat_nonempty_tokens

    def partial(batch: pa.Table) -> pa.Table:
        _, _, counts = flat_nonempty_tokens(batch.column("text"))
        nchars = pc.utf8_length(batch.column("text")).to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "source": batch.column("source"),
                "n_docs": pa.array(np.ones(len(batch), np.int64)),
                "n_tokens": pa.array(counts.astype(np.int64)),
                "n_chars": pa.array(nchars.astype(np.int64)),
            }
        )
        g = t.group_by("source").aggregate(
            [("n_docs", "sum"), ("n_tokens", "sum"), ("n_chars", "sum")]
        )
        # select by NAME — pyarrow group_by column ORDER is
        # version-dependent (keys-first vs aggregates-first)
        return pa.table(
            {
                "source": g.column("source"),
                "n_docs": g.column("n_docs_sum"),
                "n_tokens": g.column("n_tokens_sum"),
                "n_chars": g.column("n_chars_sum"),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        nd = t.column("sum(n_docs)").to_numpy(zero_copy_only=False).astype(np.int64)
        nt = t.column("sum(n_tokens)").to_numpy(zero_copy_only=False).astype(np.int64)
        nc = t.column("sum(n_chars)").to_numpy(zero_copy_only=False).astype(np.int64)
        safe_nt = np.maximum(nt, 1)
        safe_nd = np.maximum(nd, 1)
        return pa.table(
            {
                "source": t.column("source"),
                "n_docs": pa.array(nd),
                "n_tokens": pa.array(nt),
                "n_chars": pa.array(nc),
                "chars_per_token": pa.array(
                    np.round(nc / safe_nt, 6), pa.float64()
                ),
                "tokens_per_doc": pa.array(
                    np.round(nt / safe_nd, 6), pa.float64()
                ),
            }
        )

    return (
        documents.select_columns(["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            rd.aggregate.Sum("n_docs"), rd.aggregate.Sum("n_tokens"),
            rd.aggregate.Sum("n_chars"),
        )
        .map_batches(finish, batch_format="pyarrow")
    )
