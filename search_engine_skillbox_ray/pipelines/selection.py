"""Training-data selection operators.

* ``dsir_weights`` — Data Selection via Importance Resampling (Xie et
  al. 2023, arXiv:2302.03169): hashed-n-gram bag-of-features importance
  weights of each raw document against a target distribution. Two
  streaming passes over the text, ZERO shuffle: pass 1 folds per-batch
  bucket-count partials (fixed ``n_buckets``-sized arrays) on the
  driver; the log-ratio vector λ broadcasts via ``ray.put``; pass 2
  re-tokenizes and scores each doc as Σ_features λ[h(feature)].
* ``weighted_sample_topk`` — deterministic weighted sampling WITHOUT
  replacement (Efraimidis–Spirakis A-ES via the exponential race):
  doc d wins rank r iff its key ``-ln(u_d)/w_d`` is the r-th smallest,
  with ``u_d`` a reproducible md5-derived uniform. Keys are compared on
  the 9-decimal-rounded value with a doc_id tie-break so the DuckDB
  oracle ranks identically; per-batch bottom-k partials keep the
  exchange at ≤ k rows per batch.

Feature hashing is ``md5_u64 == DuckDB md5_number_lower`` (see
``functions/hashing.py``); unigrams hash the token, bigrams hash
``a || ' ' || b``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..functions.hashing import flat_nonempty_tokens, md5_u64


def _feature_buckets(
    texts, n_buckets: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """(bucket ids, parent doc index per feature, n_docs) for the
    unigram + adjacent-bigram hashed features of a text column.
    Hashing dictionary-encodes first so md5 runs once per distinct
    token/bigram in the batch."""
    toks, parents, _counts = flat_nonempty_tokens(texts)
    n_docs = len(texts)
    if not len(toks):
        return np.empty(0, np.int64), np.empty(0, np.int64), n_docs
    # unigrams: hash once per distinct token
    dict_arr = toks.dictionary_encode()
    codes = dict_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    uni_h = md5_u64(dict_arr.dictionary.to_pylist())
    uni_b = (uni_h % np.uint64(n_buckets)).astype(np.int64)[codes]
    # adjacent bigrams (same doc): join neighbours with one Arrow kernel
    adj = parents[1:] == parents[:-1]
    if adj.any():
        a = toks.slice(0, len(toks) - 1).filter(pa.array(adj))
        b = toks.slice(1).filter(pa.array(adj))
        joined = pc.binary_join_element_wise(a, b, " ")
        jd = joined.dictionary_encode()
        jcodes = jd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        bi_h = md5_u64(jd.dictionary.to_pylist())
        bi_b = (bi_h % np.uint64(n_buckets)).astype(np.int64)[jcodes]
        bi_parents = parents[:-1][adj]
        buckets = np.concatenate([uni_b, bi_b])
        fparents = np.concatenate([parents, bi_parents])
    else:
        buckets, fparents = uni_b, parents
    return buckets, fparents, n_docs


def dsir_weights(
    documents: rd.Dataset,
    *,
    target_source: str,
    n_buckets: int = 256,
    alpha: float = 0.5,
    text_col: str = "text",
    id_col: str = "doc_id",
    source_col: str = "source",
) -> rd.Dataset:
    """Per-doc DSIR log importance weight against the docs of
    ``target_source``: ``logw(d) = Σ_f λ[h(f)]`` with

        λ_b = ln((tgt_b + α) / (T + α·B)) − ln((raw_b + α) / (R + α·B))

    over unigram+bigram hashed features (α-smoothed multinomials; raw =
    the WHOLE corpus including the target, as in the paper's setup).
    → (doc_id, logw[r6], selected) with ``selected = round(logw,6) > 0``
    (doc looks more target- than raw-like).

    Scale shape: the bucket distributions are B-sized per-batch
    partials folded on the driver (batch-count-bounded, no shuffle);
    λ broadcasts once; scoring is a second stateless streaming pass.
    Per-doc summation runs in token order via ``np.bincount`` weights —
    the SQL mirror sums the same addends and both sides round to 6."""

    def count_partials(batch: pa.Table) -> pa.Table:
        buckets, fparents, _n = _feature_buckets(batch.column(text_col), n_buckets)
        src = batch.column(source_col).to_numpy(zero_copy_only=False)
        raw = np.bincount(buckets, minlength=n_buckets).astype(np.int64)
        is_tgt = (src == target_source)[fparents]
        tgt = np.bincount(buckets[is_tgt], minlength=n_buckets).astype(np.int64)
        return pa.table({"raw": pa.array([raw.tolist()]), "tgt": pa.array([tgt.tolist()])})

    raw_tot = np.zeros(n_buckets, np.int64)
    tgt_tot = np.zeros(n_buckets, np.int64)
    partials = documents.select_columns([text_col, source_col]).map_batches(
        count_partials, batch_format="pyarrow", batch_size=4096
    )
    for ref in partials.materialize().to_arrow_refs():
        t = ray.get(ref)
        for row in range(len(t)):
            raw_tot += np.asarray(t.column("raw")[row].as_py(), np.int64)
            tgt_tot += np.asarray(t.column("tgt")[row].as_py(), np.int64)

    big_r = float(raw_tot.sum())
    big_t = float(tgt_tot.sum())
    # same expression SHAPE as the SQL oracle: two ln()s, float64 counts
    lam = np.log((tgt_tot + alpha) / (big_t + alpha * n_buckets)) - np.log(
        (raw_tot + alpha) / (big_r + alpha * n_buckets)
    )
    lam_ref = [ray.put(lam)]

    def score(batch: pa.Table) -> pa.Table:
        buckets, fparents, n = _feature_buckets(batch.column(text_col), n_buckets)
        lw = ray.get(lam_ref[0])
        logw = np.bincount(fparents, weights=lw[buckets], minlength=n)
        logw_r = np.round(logw, 6)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "logw": pa.array(logw_r, pa.float64()),
                "selected": pa.array((logw_r > 0).astype(np.int64)),
            }
        )

    return documents.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", batch_size=4096
    )


def weighted_sample_topk(
    documents: rd.Dataset,
    k: int,
    *,
    salt: str,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> pa.Table:
    """Weighted sample without replacement, weight = token count:
    the k docs with the SMALLEST exponential-race key ``-ln(u)/w``
    (u = (md5_u64(f"{doc_id}:{salt}") + 1) / 2^64). Zero-token docs are
    excluded (they have no sampling mass). → (doc_id, weight, key[r9],
    rank), ranked by (key, doc_id).

    Per-batch bottom-k partials; the driver merge holds ≤ k·n_batches
    rows (annotated small collect)."""

    def partial(batch: pa.Table) -> pa.Table:
        _toks, _parents, counts = flat_nonempty_tokens(batch.column(text_col))
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        w = counts.astype(np.float64)
        keep = w > 0
        ids, w = ids[keep], w[keep]
        u = (md5_u64([f"{i}:{salt}" for i in ids]).astype(np.float64) + 1.0) / float(
            2**64
        )
        key = np.round(-np.log(u) / w, 9)
        if len(ids) > k:
            idx = np.lexsort((ids, key))[:k]
            ids, w, key = ids[idx], w[idx], key[idx]
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "weight": pa.array(w.astype(np.int64)),
                "key": pa.array(key, pa.float64()),
            }
        )

    slim = documents.select_columns([id_col, text_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=4096
    )
    # ≤ k rows per batch — bounded driver merge
    t = pa.concat_tables(ray.get(slim.materialize().to_arrow_refs()))
    ids = t.column(id_col).to_numpy(zero_copy_only=False)
    key = t.column("key").to_numpy(zero_copy_only=False)
    idx = np.lexsort((ids, key))[: min(k, len(ids))]
    sub = t.take(pa.array(idx))
    return sub.append_column(
        "rank", pa.array(np.arange(1, len(sub) + 1, dtype=np.int64))
    )


def nb_log_weights(cnt, cnt_tot, tot, n_docs, v_size: int, n_train: int, scale: int):
    """The Naive Bayes fixed-point logs, computed by DuckDB — the engine
    the SQL oracle runs — over the vocabulary-sized model table, so no
    weight depends on two libms agreeing to the last ULP at a floor
    boundary. → (L per (class, term) count row, L0 per class, prior per
    class), int64: floor(ln((cnt+1)/(tot+V))·scale),
    floor(ln(1/(tot+V))·scale) and floor(ln(n_c/n_train)·scale), in the
    oracle's exact SQL types."""
    import duckdb

    con = duckdb.connect()
    con.register("lw", pa.table({"c": np.asarray(cnt, np.int64), "tot": np.asarray(cnt_tot, np.int64)}))
    con.register("cls", pa.table({"tot": np.asarray(tot, np.int64), "n": np.asarray(n_docs, np.int64)}))
    sql = (
        f"SELECT floor(ln((c + 1)::DOUBLE / (tot + {int(v_size)}::BIGINT)) * {int(scale)})::BIGINT"
        " AS v FROM lw",
        f"SELECT floor(ln(1.0 / (tot + {int(v_size)}::BIGINT)) * {int(scale)})::BIGINT AS v FROM cls",
        f"SELECT floor(ln(n::DOUBLE / {int(n_train)}::BIGINT) * {int(scale)})::BIGINT AS v FROM cls",
    )
    try:
        return tuple(con.execute(q).fetchnumpy()["v"].astype(np.int64) for q in sql)
    finally:
        con.close()


def nb_classify(
    documents: rd.Dataset,
    *,
    test_mod: int = 4,
    scale: int = 1_000_000,
    text_col: str = "text",
    id_col: str = "doc_id",
    source_col: str = "source",
) -> rd.Dataset:
    """Multinomial Naive Bayes source classifier, trained and served
    distributed: docs with ``doc_id % test_mod != 0`` train the model,
    the rest are scored → (doc_id, pred_source, score).

    Deterministic INTEGER fixed point (the TextRank trick): every log
    is ``floor(ln(x) · scale)`` as int64, computed by DuckDB over the
    model table (``nb_log_weights``: the oracle's ln, not a second
    libm's), and a doc's class score

        score(d,c) = prior(c) + Σ_t tf(d,t) · L(c,t)

    is a pure integer sum, identical in any summation order. Laplace
    smoothing: L(c,t) = floor(ln((cnt+1)/(tot_c+V))·scale), unseen
    terms take L0(c) = floor(ln(1/(tot_c+V))·scale); prior(c) =
    floor(ln(n_c/n_train)·scale). Ties break to the lexicographically
    smallest source.

    Scale shape: ONE (source,term)-keyed exchange builds the count
    model (per-batch np.unique combiners pre-aggregate, so the shuffle
    moves batch-distinct partials, not tokens); the fitted model is a
    VOCABULARY-sized table — collected and broadcast once via
    ``ray.put`` like every other vocab-sized side model in this engine
    (the cluster-scale alternative is a term-keyed join of test tf
    rows against the weight table). Scoring is a stateless streaming
    pass: per batch, one C×hits matrix gather + np.bincount per class
    (C ≈ #sources vectorized passes, no per-row Python)."""
    from ..functions.hashing import flat_nonempty_tokens

    def count_partial(batch: pa.Table) -> pa.Table:
        """(source, term, cnt) batch-local combiner over TRAIN docs."""
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (ids % test_mod) != 0
        sub = batch.filter(pa.array(keep))
        if not len(sub):
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "term": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        toks, parents, _ = flat_nonempty_tokens(sub.column(text_col))
        src = sub.column(source_col).dictionary_encode()
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        scodes = src.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        snames = np.asarray(src.dictionary.to_pylist(), dtype=object)
        if not len(toks):
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "term": pa.array([], pa.string()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        tdict = toks.dictionary_encode()
        tcodes = tdict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        tnames = np.asarray(tdict.dictionary.to_pylist(), dtype=object)
        combo = scodes[parents] * np.int64(len(tnames)) + tcodes
        uniq, cnt = np.unique(combo, return_counts=True)
        return pa.table(
            {
                "source": pa.array(snames[(uniq // len(tnames))], pa.string()),
                "term": pa.array(tnames[(uniq % len(tnames))], pa.string()),
                "cnt": pa.array(cnt.astype(np.int64)),
            }
        )

    counts = (
        documents.select_columns([id_col, text_col, source_col])
        .map_batches(count_partial, batch_format="pyarrow", batch_size=4096)
        .groupby(["source", "term"])
        .sum("cnt")
    )
    # vocabulary-sized model collect (annotated): C·V weight rows —
    # zero-row groupby blocks carry an empty schema, drop them
    model_t = pa.concat_tables([t for t in ray.get(counts.materialize().to_arrow_refs()) if len(t)])
    m_src = np.asarray(model_t.column("source").to_pylist(), dtype=object)
    m_term = np.asarray(model_t.column("term").to_pylist(), dtype=object)
    m_cnt = model_t.column("sum(cnt)").to_numpy(zero_copy_only=False).astype(np.int64)

    # per-class doc counts for the prior (class-count-sized aggregate)
    def train_only(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array((ids % test_mod) != 0))

    tr_docs = (
        documents.select_columns([id_col, source_col])
        .map_batches(train_only, batch_format="pyarrow")
        .groupby(source_col)
        .count()
        .to_pandas()
    )
    classes = np.sort(np.union1d(m_src, tr_docs[source_col].to_numpy(dtype=object)))
    c_index = {c: i for i, c in enumerate(classes)}
    n_c = np.zeros(len(classes), np.int64)
    for s, k in zip(tr_docs[source_col], tr_docs["count()"]):
        n_c[c_index[s]] = k
    n_train = int(n_c.sum())

    vocab = np.sort(np.unique(m_term))
    v_size = len(vocab)
    import pandas as pd

    v_index = pd.Index(vocab)
    tot_c = np.zeros(len(classes), np.int64)
    np.add.at(tot_c, [c_index[s] for s in m_src], m_cnt)

    rows = np.asarray([c_index[s] for s in m_src], np.int64)
    lw, l0, prior = nb_log_weights(m_cnt, tot_c[rows], tot_c, n_c, v_size, n_train, scale)
    L = np.empty((len(classes), v_size), np.int64)
    L[:] = l0[:, None]
    L[rows, v_index.get_indexer(m_term)] = lw

    model_ref = [ray.put((vocab, L, l0, prior, np.asarray(classes, dtype=object)))]

    def score(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (ids % test_mod) == 0
        sub = batch.filter(pa.array(keep))
        empty = pa.table(
            {
                id_col: pa.array([], pa.int64()),
                "pred_source": pa.array([], pa.string()),
                "score": pa.array([], pa.int64()),
            }
        )
        if not len(sub):
            return empty
        vocab_, L_, l0_, prior_, classes_ = ray.get(model_ref[0])
        vi = pd.Index(vocab_)
        sids = sub.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        toks, parents, _ = flat_nonempty_tokens(sub.column(text_col))
        n = len(sids)
        scores = np.tile(prior_[:, None], (1, n))
        if len(toks):
            tdict = toks.dictionary_encode()
            tcodes = tdict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            tnames = tdict.dictionary.to_pylist()
            code2vidx = vi.get_indexer(tnames)  # -1 = out of vocabulary
            vidx = code2vidx[tcodes]
            seen = vidx >= 0
            for ci in range(len(classes_)):
                w = np.where(seen, L_[ci][np.maximum(vidx, 0)], l0_[ci])
                scores[ci] += np.bincount(parents, weights=w, minlength=n).astype(
                    np.int64
                )
        best = np.argmax(scores, axis=0)  # first max → smallest source
        return pa.table(
            {
                id_col: pa.array(sids, pa.int64()),
                "pred_source": pa.array(
                    np.asarray(classes_, dtype=object)[best], pa.string()
                ),
                "score": pa.array(scores[best, np.arange(n)], pa.int64()),
            }
        )

    return documents.select_columns([id_col, text_col]).map_batches(
        score, batch_format="pyarrow", batch_size=4096
    )


def mixture_plan_ds(documents: rd.Dataset) -> "pd.DataFrame":
    """→ (source, n_tokens, natural_share, target_weight, sample_factor):
    token-budget mixture planning — given the corpus's natural per-source
    token distribution and a target mixture weight per source, emit the
    per-source sampling factor (>1 = upsample / repeat epochs, <1 =
    subsample) a training-data pipeline applies before packing.

    Target weights are a deterministic function of the source name
    (raw = (source index mod 4) + 1, normalized) so the DuckDB oracle
    reproduces them with arithmetic alone — swap in a real weights dict
    at deployment.  Scale shape: ONE tokenize pass with per-batch
    (source, token-count) combiners → a source-grain exchange; all the
    planning math runs on the source-count-sized result."""
    import pandas as pd

    from ..functions.hashing import flat_nonempty_tokens

    def partial(batch: pa.Table) -> pa.Table:
        _, _, counts = flat_nonempty_tokens(batch.column("text"))
        t = pa.table(
            {
                "source": batch.column("source"),
                "n_tokens": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )
        g = t.group_by("source").aggregate([("n_tokens", "sum")])
        return pa.table(
            {"source": g.column("source"), "n_tokens": g.column("n_tokens_sum")}
        )

    agg = (
        documents.select_columns(["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .sum("n_tokens")
    )

    toks: dict[str, int] = {}
    for ref in agg.materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t) or "source" not in t.column_names:
            continue
        for s, n in zip(
            t.column("source").to_pylist(), t.column("sum(n_tokens)").to_pylist()
        ):
            toks[s] = toks.get(s, 0) + n

    sources = sorted(toks)
    raw = np.array([(int(s[3:]) % 4) + 1 for s in sources], np.int64)
    nt = np.array([toks[s] for s in sources], np.int64)
    total = float(nt.sum())
    wsum = float(raw.sum())
    natural = nt.astype(np.float64) / total
    target = raw.astype(np.float64) / wsum
    factor = target / natural
    return pd.DataFrame(
        {
            "source": sources,
            "n_tokens": nt,
            "natural_share": np.round(natural, 6),
            "target_weight": np.round(target, 6),
            "sample_factor": np.round(factor, 6),
        }
    )


def unimax_plan_ds(
    documents: rd.Dataset,
    *,
    budget_tokens: int,
    max_epochs: int = 4,
) -> "pd.DataFrame":
    """→ (source, n_tokens, cap_tokens, alloc_tokens, epochs): UniMax
    mixture planning (Chung et al. 2023, "UniMax: Fairer and More
    Effective Language Sampling") — distribute a total token budget as
    equally as possible across sources, capping every source at
    ``max_epochs`` repetitions of its natural token count so small
    sources are never over-duplicated.

    The allocation is the standard greedy waterfill: visit sources by
    ascending cap (ties by name); each gets min(cap, remaining budget /
    remaining sources).  The same sequential arithmetic runs in the
    DuckDB oracle as a recursive CTE, so the rounded epochs match
    bit-for-bit.  Scale shape: ONE tokenize pass with per-batch
    (source, token-count) combiners → a source-grain exchange; the
    waterfill runs on the source-count-sized result."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        _, _, counts = flat_nonempty_tokens(batch.column("text"))
        t = pa.table(
            {
                "source": batch.column("source"),
                "n_tokens": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )
        g = t.group_by("source").aggregate([("n_tokens", "sum")])
        return pa.table(
            {"source": g.column("source"), "n_tokens": g.column("n_tokens_sum")}
        )

    agg = (
        documents.select_columns(["source", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .sum("n_tokens")
    )
    toks: dict[str, int] = {}
    for ref in agg.materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t) or "source" not in t.column_names:
            continue
        for s, n in zip(
            t.column("source").to_pylist(), t.column("sum(n_tokens)").to_pylist()
        ):
            toks[s] = toks.get(s, 0) + int(n)

    rows = sorted(toks.items(), key=lambda kv: (kv[1] * max_epochs, kv[0]))
    n = len(rows)
    left = float(budget_tokens)
    out = []
    for i, (s, nt) in enumerate(rows):
        cap = float(nt * max_epochs)
        fair = left / (n - i)
        alloc = min(cap, fair)
        left -= alloc
        out.append((s, nt, int(nt * max_epochs), alloc))
    out.sort(key=lambda r: r[0])
    return pd.DataFrame(
        {
            "source": [r[0] for r in out],
            "n_tokens": [r[1] for r in out],
            "cap_tokens": [r[2] for r in out],
            "alloc_tokens": [round(r[3], 6) for r in out],
            "epochs": [round(r[3] / r[1], 6) if r[1] else 0.0 for r in out],
        }
    )
