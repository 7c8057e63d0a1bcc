"""Data-quality expectation suite over the warehouse-shaped tables —
the validation pass a 100 TB ingest runs BEFORE the expensive stages.

Every check is a streaming partial count (column-pruned read, per-batch
vectorized predicate, batch-count-bounded fold); referential checks are
key-shaped:

* ``orders → customer``: the dimension keyset broadcasts once via
  ``ray.put`` (dimension-sized, same pattern as the Q5 star join) and
  each orders batch counts misses locally — zero shuffle.
* ``lineitem → orders``: gated dual path — under
  ``DRIVER_FASTPATH_ROWS`` the sorted orders keyset broadcasts and each
  batch ships back only its ORPHAN distinct keys (violation-sized);
  above it, per-batch distinct keys feed a keyed groupby + slim
  ``sized_join`` left join (keys-only exchange).
* ``documents doc_id uniqueness``: gated dual path — key-sized driver
  fold of per-batch (distinct id, cnt) partials under the gate, a
  keyed groupby (violations = Σ cnt − 1) above it.

→ one small table ``(check_name, violations)`` sorted by name.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..config import DRIVER_FASTPATH_ROWS
from ..stages.grouping import drop_empty_blocks, sized_join


def _fold_count(ds: rd.Dataset) -> int:
    """Sum a single-int64-column dataset of per-batch partials."""
    total = 0
    for ref in ds.materialize().to_arrow_refs():
        t = ray.get(ref)
        if len(t):
            total += int(pc.sum(t.column(0)).as_py() or 0)
    return total


def dq_checks(
    documents: rd.Dataset,
    orders: rd.Dataset,
    customer: rd.Dataset,
    lineitem: rd.Dataset,
    *,
    short_chars: int = 100,
    stale_before_iso: str = "1996-01-01",
) -> pa.Table:
    """Run the expectation suite → (check_name, violations) one row each:

    * ``docs_dup_doc_id`` — duplicate primary keys (Σ cnt−1 per key)
    * ``docs_empty_text`` — NULL or zero-length text
    * ``docs_n_chars_mismatch`` — stored ``n_chars`` != len(text)
    * ``docs_short_text`` — text shorter than ``short_chars``
    * ``fk_lineitem_orders`` — lineitem rows whose order key is absent
    * ``fk_orders_customer`` — orders whose customer key is absent
    * ``lineitem_discount_range`` — l_discount outside [0, 1]
    * ``orders_stale`` — orders dated before ``stale_before_iso``
    """
    results: dict[str, int] = {}

    # ---- documents: FOUR checks in ONE pruned pass ------------------
    def doc_partial(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        nch = batch.column("n_chars")
        ln = pc.utf8_length(pc.fill_null(text, ""))
        empty = pc.or_(pc.is_null(text), pc.equal(ln, 0))
        mismatch = pc.not_equal(ln, nch)
        short = pc.less(nch, short_chars)
        return pa.table(
            {
                "empty": pa.array([pc.sum(pc.cast(empty, pa.int64())).as_py() or 0]),
                "mismatch": pa.array(
                    [pc.sum(pc.cast(mismatch, pa.int64())).as_py() or 0]
                ),
                "short": pa.array([pc.sum(pc.cast(short, pa.int64())).as_py() or 0]),
            }
        )

    doc_p = documents.select_columns(["text", "n_chars"]).map_batches(
        doc_partial, batch_format="pyarrow"
    )
    acc = {"empty": 0, "mismatch": 0, "short": 0}
    for ref in doc_p.materialize().to_arrow_refs():
        t = ray.get(ref)
        for k in acc:
            if len(t):
                acc[k] += int(pc.sum(t.column(k)).as_py() or 0)
    results["docs_empty_text"] = acc["empty"]
    results["docs_n_chars_mismatch"] = acc["mismatch"]
    results["docs_short_text"] = acc["short"]

    # ---- documents: primary-key uniqueness (gated dual path) ---------
    def id_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, cnt = np.unique(ids, return_counts=True)
        return pa.table(
            {"doc_id": pa.array(uniq), "cnt": pa.array(cnt.astype(np.int64))}
        )

    id_parts = documents.select_columns(["doc_id"]).map_batches(
        id_partial, batch_format="pyarrow"
    )
    n_docs_total = documents.count()
    if n_docs_total <= DRIVER_FASTPATH_ROWS:
        # key-sized driver fold: per-batch (distinct id, cnt) partials,
        # one np.unique on the concatenated key column — violations =
        # Σ cnt − #distinct, identical to the exchange's Σ (cnt − 1)
        total, all_ids = 0, []
        for ref in id_parts.materialize().to_arrow_refs():
            t = ray.get(ref)
            if len(t):
                total += int(pc.sum(t.column("cnt")).as_py() or 0)
                all_ids.append(t.column("doc_id").to_numpy(zero_copy_only=False))
        distinct = len(np.unique(np.concatenate(all_ids))) if all_ids else 0
        results["docs_dup_doc_id"] = total - distinct
    else:
        per_key = id_parts.groupby("doc_id").sum("cnt")

        def dup_partial(t: pa.Table) -> pa.Table:
            # zero-row groupby blocks can carry an empty schema
            if not len(t) or "sum(cnt)" not in t.column_names:
                return pa.table({"v": pa.array([0], pa.int64())})
            return pa.table(
                {
                    "v": pa.array(
                        [
                            int(
                                pc.sum(pc.subtract(t.column("sum(cnt)"), 1)).as_py()
                                or 0
                            )
                        ],
                        pa.int64(),
                    )
                }
            )

        results["docs_dup_doc_id"] = _fold_count(
            per_key.map_batches(dup_partial, batch_format="pyarrow")
        )

    # ---- orders: fk + staleness in ONE pass (broadcast dimension) ---
    cust_keys = np.sort(
        customer.select_columns(["c_custkey"])
        .to_pandas()["c_custkey"]
        .to_numpy(dtype=np.int64)
    )  # dimension-sized broadcast, same as the star-join pattern
    ck_ref = [ray.put(cust_keys)]
    stale = np.datetime64(stale_before_iso, "us")

    def orders_partial(batch: pa.Table) -> pa.Table:
        keys = ray.get(ck_ref[0])
        ck = batch.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(keys, ck)
        miss = (pos >= len(keys)) | (keys[np.minimum(pos, len(keys) - 1)] != ck)
        od = batch.column("o_orderdate").to_numpy(zero_copy_only=False)
        n_stale = int((od.astype("datetime64[us]") < stale).sum())
        return pa.table(
            {
                "fk": pa.array([int(miss.sum())], pa.int64()),
                "stale": pa.array([n_stale], pa.int64()),
            }
        )

    ord_p = orders.select_columns(["o_custkey", "o_orderdate"]).map_batches(
        orders_partial, batch_format="pyarrow"
    )
    fk_o, st_o = 0, 0
    for ref in ord_p.materialize().to_arrow_refs():
        t = ray.get(ref)
        if len(t):
            fk_o += int(pc.sum(t.column("fk")).as_py() or 0)
            st_o += int(pc.sum(t.column("stale")).as_py() or 0)
    results["fk_orders_customer"] = fk_o
    results["orders_stale"] = st_o

    # ---- lineitem: range check + fact-fact fk -----------------------
    def li_partial(batch: pa.Table) -> pa.Table:
        d = batch.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table(
            {"v": pa.array([int(((d < 0.0) | (d > 1.0)).sum())], pa.int64())}
        )

    results["lineitem_discount_range"] = _fold_count(
        lineitem.select_columns(["l_discount"]).map_batches(
            li_partial, batch_format="pyarrow"
        )
    )

    # orphan ORDER KEYS referenced by lineitem but absent from orders —
    # gated dual path. Fast path (orders keyset under the driver gate):
    # broadcast the sorted o_orderkey array, each lineitem batch ships
    # back only its ORPHAN distinct keys (violation-sized by
    # assumption), one np.unique on the driver dedups across batches.
    # Above the gate: per-batch distinct keys → sized_join left against
    # the orders keyset (both sides fact-shaped, keys-only exchange).
    def lik_partial(batch: pa.Table) -> pa.Table:
        k = batch.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"l_orderkey": pa.array(np.unique(k))})

    n_orders_total = orders.count()
    if n_orders_total <= DRIVER_FASTPATH_ROWS:
        ord_sorted = np.sort(
            orders.select_columns(["o_orderkey"])
            .to_pandas()["o_orderkey"]
            .to_numpy(dtype=np.int64)
        )
        ok_ref = [ray.put(ord_sorted)]

        def orphan_keys(batch: pa.Table) -> pa.Table:
            keys = ray.get(ok_ref[0])
            k = (
                batch.column("l_orderkey")
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            k = np.unique(k)
            pos = np.searchsorted(keys, k)
            miss = (pos >= len(keys)) | (keys[np.minimum(pos, len(keys) - 1)] != k)
            return pa.table({"l_orderkey": pa.array(k[miss])})

        orphan_parts = [
            t
            for t in ray.get(
                lineitem.select_columns(["l_orderkey"])
                .map_batches(orphan_keys, batch_format="pyarrow")
                .materialize().to_arrow_refs()
            )
            if len(t)
        ]
        results["fk_lineitem_orders"] = (
            len(
                np.unique(
                    np.concatenate(
                        [
                            t.column("l_orderkey").to_numpy(zero_copy_only=False)
                            for t in orphan_parts
                        ]
                    )
                )
            )
            if orphan_parts
            else 0
        )
    else:
        def key_only(t: pa.Table) -> pa.Table:
            if not len(t) or "l_orderkey" not in t.column_names:
                return pa.table({"l_orderkey": pa.array([], pa.int64())})
            return t.select(["l_orderkey"])

        li_keys = drop_empty_blocks(
            lineitem.select_columns(["l_orderkey"])
            .map_batches(lik_partial, batch_format="pyarrow")
            .groupby("l_orderkey")
            .count()
            .map_batches(key_only, batch_format="pyarrow")
            .materialize()
        )
        ord_keys = orders.select_columns(["o_orderkey"]).map_batches(
            lambda t: pa.table(
                {
                    "l_orderkey": t.column("o_orderkey"),
                    "present": pa.array(np.ones(len(t), np.int8)),
                }
            ),
            batch_format="pyarrow",
        )
        joined = sized_join(
            li_keys, ord_keys, on=("l_orderkey",), join_type="left_outer"
        )
        orphan = joined.map_batches(
            lambda t: pa.table(
                {
                    "v": pa.array(
                        [
                            int(
                                pc.sum(
                                    pc.cast(
                                        pc.is_null(t.column("present")), pa.int64()
                                    )
                                ).as_py()
                                or 0
                            )
                        ],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
        )
        results["fk_lineitem_orders"] = _fold_count(orphan)

    names = sorted(results)
    return pa.table(
        {
            "check_name": pa.array(names, pa.string()),
            "violations": pa.array([results[n] for n in names], pa.int64()),
        }
    )
