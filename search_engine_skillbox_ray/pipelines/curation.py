"""End-to-end corpus curation funnel — the composed pipeline a
training-data team actually runs before a pretraining pass, as one
operator with per-stage survivor accounting.

Stages (each stage's survivors feed the next; rules are the repo's
existing oracled primitives, so the whole funnel is DuckDB-mirrorable):

1. ``quality``       — token-count gate (min ≤ n_tokens ≤ max).
2. ``exact_dedup``   — keep the minimum doc_id per distinct text.
3. ``near_dup``      — MinHash-LSH pairs at ``near_threshold`` among
   survivors; drop every doc that appears as ``doc_b`` of a surviving
   pair (one-shot earliest-copy rule — deterministic, SQL-expressible,
   and what most production dedup passes do before cluster-grade
   resolution).  Pair sets restrict cleanly: a pair among survivors
   exists iff the two docs share a band, independent of dropped docs,
   so the oracle computes pairs on the full corpus and filters both
   endpoints to the survivor set.
4. ``decontaminate`` — drop docs with ≥1 k-token window colliding with
   the broadcast probe (eval-suite) window set.

Returns a 4-row (stage, n_in, n_out) table.  Scale shape: stage 1 is a
streaming filter; survivor id sets ride ``ray.put`` below
``DRIVER_FASTPATH_ROWS`` docs and hash-join (``sized_join``) above it;
the near-dup drop set is pair-sized by construction; decontamination is
the shuffle-free broadcast pass of :func:`..dedup.decontaminate_stats`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from ..functions.hashing import flat_nonempty_tokens


def _survivor_filter(docs: rd.Dataset, ids: rd.Dataset, n_docs_hint: int) -> rd.Dataset:
    """Restrict (doc_id, text) rows to a survivor id set: broadcast
    ``np.isin`` below the driver gate, ``sized_join`` above it."""
    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import sized_join

    if n_docs_hint <= DRIVER_FASTPATH_ROWS:
        parts = [
            t.column("doc_id").to_numpy(zero_copy_only=False)
            for t in ray.get(ids.materialize().to_arrow_refs())
            if len(t) and "doc_id" in t.column_names
        ]
        keep = np.sort(np.concatenate(parts).astype(np.int64)) if parts else np.empty(0, np.int64)
        keep_ref = ray.put(keep)

        def filt(batch: pa.Table) -> pa.Table:
            ks = ray.get(keep_ref)
            d = batch.column("doc_id").to_numpy(zero_copy_only=False)
            pos = np.searchsorted(ks, d)
            pos[pos == len(ks)] = 0
            m = (ks[pos] == d) if len(ks) else np.zeros(len(d), bool)
            return batch.filter(pa.array(m))

        return docs.map_batches(filt, batch_format="pyarrow")
    return sized_join(docs, ids, ("doc_id",))


def curation_pipeline_ds(
    documents: rd.Dataset,
    probe_texts: list[str],
    *,
    min_tokens: int,
    max_tokens: int,
    near_threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 16,
    seed: int = 42,
    decon_k: int = 5,
) -> "pa.Table":
    """→ (stage, n_in, n_out) — the curation funnel described in the
    module docstring, with exact survivor counts per stage."""
    from .dedup import decontaminate_stats, exact_dedup, minhash_lsh_pairs

    docs = documents.select_columns(["doc_id", "text"]).materialize()
    n0 = docs.count()

    # 1. quality gate: token-count band (streaming filter)
    lo, hi = int(min_tokens), int(max_tokens)

    def qgate(batch: pa.Table) -> pa.Table:
        _, _, counts = flat_nonempty_tokens(batch.column("text"))
        m = (counts >= lo) & (counts <= hi)
        return batch.filter(pa.array(m))

    d1 = docs.map_batches(qgate, batch_format="pyarrow").materialize()
    n1 = d1.count()

    # 2. exact dedup: min doc_id per distinct text
    survivors2 = exact_dedup(d1).materialize()  # (doc_id, n_copies)
    n2 = survivors2.count()
    d2 = _survivor_filter(
        d1, survivors2.select_columns(["doc_id"]), n_docs_hint=n1
    ).materialize()

    # 3. near-dup one-shot drop: doc_b of every surviving pair dies
    pairs = minhash_lsh_pairs(
        d2, num_perm=num_perm, bands=bands, threshold=near_threshold, seed=seed
    )
    drop_parts = [
        t.column("doc_b").to_numpy(zero_copy_only=False)
        for t in ray.get(pairs.materialize().to_arrow_refs())
        if len(t) and "doc_b" in t.column_names
    ]  # pair-sized by construction — safe to collect
    drop = (
        np.unique(np.concatenate(drop_parts).astype(np.int64))
        if drop_parts else np.empty(0, np.int64)
    )
    drop_ref = ray.put(drop)

    def drop_filter(batch: pa.Table) -> pa.Table:
        ds_ = ray.get(drop_ref)
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        if not len(ds_):
            return batch
        pos = np.searchsorted(ds_, d)
        pos[pos == len(ds_)] = 0
        m = ~(ds_[pos] == d)
        return batch.filter(pa.array(m))

    d3 = d2.map_batches(drop_filter, batch_format="pyarrow").materialize()
    n3 = d3.count()

    # 4. decontaminate: any probe-window collision kills the doc
    stats = decontaminate_stats(d3, probe_texts, k=decon_k)

    def clean_ids(batch: pa.Table) -> pa.Table:
        hits = batch.column("n_hit_windows").to_numpy(zero_copy_only=False)
        return pa.table(
            {"doc_id": batch.column("doc_id").filter(pa.array(hits == 0))}
        )

    n4 = stats.map_batches(clean_ids, batch_format="pyarrow").count()

    return pa.table(
        {
            "stage": pa.array(
                ["quality", "exact_dedup", "near_dup", "decontaminate"], pa.string()
            ),
            "n_in": pa.array([n0, n1, n2, n3], pa.int64()),
            "n_out": pa.array([n1, n2, n3, n4], pa.int64()),
        }
    )
