"""CDC merge: apply an insert/update/delete change stream to a table
snapshot — the MERGE INTO / upsert-compaction primitive every
incremental 100-TB ingest needs (the Ray-native generalization of the
reference's page upsert: ``repository/PageRepository.java`` replaces
rows by (site, path); here a whole change BATCH folds into a snapshot
in one keyed exchange).

Semantics (documented contract):

* every change row carries (key, seq, op, payload...); ``seq`` is the
  total order of the stream (commit LSN / kafka offset);
* per key, the HIGHEST-seq change wins outright ("last writer wins");
* op 'I' and 'U' both upsert the full payload (an update to a missing
  key inserts it — idempotent replay semantics, same as the page
  upsert), op 'D' removes the key;
* keys untouched by the stream keep their snapshot row.

Scale shape: the snapshot unions with the change stream as seq 0, a
per-batch combiner keeps only the latest row per key WITHIN each batch
(multi-version change batches collapse before the exchange), then ONE
hash-bucketed keyed exchange (``bucketed_group_apply``) picks the
max-seq row per key and drops tombstones. Payload moves exactly once;
nothing materializes on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data as rd

from ..stages.grouping import bucketed_group_apply

#: op codes — ints so the combiner never touches Python strings
OP_UPSERT, OP_DELETE = 0, 1


def cdc_apply(
    snapshot: rd.Dataset,
    changes: rd.Dataset,
    *,
    key: str = "doc_id",
    seq_col: str = "seq",
    op_col: str = "op",
    n_buckets: int = 64,
) -> rd.Dataset:
    """Fold ``changes`` into ``snapshot`` → the merged table (payload
    columns only; ``seq``/``op`` are dropped).

    ``changes`` must share the snapshot's payload schema plus
    (``seq_col`` int64 ≥ 1, ``op_col`` int64 ∈ {OP_UPSERT, OP_DELETE});
    delete rows may carry null payload. Per (key, seq) at most one row
    (a CDC stream has one op per LSN)."""
    # materialized once, so the schema comes from block metadata: on a
    # lazy plan ``schema()`` runs it, cancels the tasks still in flight
    # (each cancellation can trip a Ray-internal abort) and the union
    # below runs it again
    snapshot = snapshot.materialize()
    payload_cols = snapshot.schema().names
    if key not in payload_cols:
        raise ValueError(f"snapshot lacks key column {key!r}")

    def snap_tag(batch: pa.Table) -> pa.Table:
        n = len(batch)
        batch = batch.select(payload_cols)
        batch = batch.append_column(seq_col, pa.array(np.zeros(n, np.int64)))
        return batch.append_column(
            op_col, pa.array(np.full(n, OP_UPSERT, np.int64))
        )

    def chg_norm(batch: pa.Table) -> pa.Table:
        # column-order-normalize so the union's schemas align
        return batch.select(payload_cols + [seq_col, op_col])

    tagged = snapshot.map_batches(snap_tag, batch_format="pyarrow").union(
        changes.map_batches(chg_norm, batch_format="pyarrow")
    )

    def latest_in_batch(batch: pa.Table) -> pa.Table:
        # within-batch pre-reduce: keep the max-seq row per key, so a
        # change batch holding many versions of a hot key ships one row
        if len(batch) == 0:
            return batch
        k = batch.column(key).to_numpy(zero_copy_only=False)
        s = batch.column(seq_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((s, k))  # key asc, seq asc
        ks, ss = k[order], s[order]
        last = np.ones(len(ks), bool)
        last[:-1] = ks[1:] != ks[:-1]
        return batch.take(pa.array(order[last]))

    pre = tagged.map_batches(latest_in_batch, batch_format="pyarrow")

    def merge_bucket(group: pd.DataFrame) -> pd.DataFrame:
        idx = group.groupby(key, sort=False)[seq_col].idxmax()
        out = group.loc[idx]
        out = out[out[op_col] != OP_DELETE]
        return out[payload_cols]

    return bucketed_group_apply(
        pre, [key], merge_bucket, n_buckets=n_buckets
    )


def derive_document_changes(
    documents: rd.Dataset,
) -> tuple[rd.Dataset, rd.Dataset]:
    """Deterministic (snapshot, changes) pair derived from the documents
    table — the fixture behind the ``cdc_merge`` driver query, mirrored
    verbatim by its SQL oracle:

    * snapshot  = docs with doc_id % 3 != 2;
    * seq 1 'U' : doc_id % 4 == 1 → n_chars bumped by 1000;
    * seq 2 'I' : doc_id % 3 == 2 → the rows missing from the snapshot;
    * seq 3 'D' : doc_id % 5 == 0;
    * seq 4 'I' : doc_id % 10 == 0 → re-insert with lang='re'
      (every re-insert follows a delete: %10 ⊆ %5 — proves the
      delete→re-add ordering).
    """

    def snap(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % 3 != 2))

    def chg(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        text = batch.column("text")
        lang = batch.column("lang")
        source = batch.column("source")
        n_chars = batch.column("n_chars").to_numpy(zero_copy_only=False)
        parts = []

        def mk(mask, seq, op, lang_arr, nch):
            sel = pa.array(mask)
            n = int(mask.sum())
            return pa.table(
                {
                    "doc_id": pa.array(ids[mask], pa.int64()),
                    "text": text.filter(sel),
                    "lang": lang_arr.filter(sel)
                    if isinstance(lang_arr, (pa.Array, pa.ChunkedArray))
                    else pa.array([lang_arr] * n, pa.string()),
                    "source": source.filter(sel),
                    "n_chars": pa.array(nch[mask], pa.int64()),
                    "seq": pa.array(np.full(n, seq, np.int64)),
                    "op": pa.array(np.full(n, op, np.int64)),
                }
            )

        parts.append(mk(ids % 4 == 1, 1, OP_UPSERT, lang, n_chars + 1000))
        parts.append(mk(ids % 3 == 2, 2, OP_UPSERT, lang, n_chars))
        parts.append(mk(ids % 5 == 0, 3, OP_DELETE, lang, n_chars))
        parts.append(mk(ids % 10 == 0, 4, OP_UPSERT, "re", n_chars))
        return pa.concat_tables(parts)

    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    snapshot = documents.select_columns(cols).map_batches(
        snap, batch_format="pyarrow"
    )
    changes = documents.select_columns(cols).map_batches(
        chg, batch_format="pyarrow"
    )
    return snapshot, changes
