"""Relational analytics over the warehouse-shaped side tables
(lineitem / orders / customer) — the engine is not text-only.

Both operators follow the engine's shuffle discipline:

* ``pricing_summary`` (TPC-H Q1 shape) — ALL money math in integer
  cents (``floor(x*100 + 0.5)``, the explicit half-up rule numpy and
  SQL share), per-batch partial aggregation into ≤ 6 group rows, then
  one tiny groupby. Averages divide the exact integer sums at the end,
  so float summation order can never differ from the oracle.
* ``ship_priority`` (TPC-H Q3 shape) — the small side (filtered
  customer keys, then filtered order rows) broadcasts via ``ray.put``
  into a lineitem ``map_batches`` filter-join; revenue accumulates in
  integer cents per order with per-batch combining. The broadcast is
  gated on ``DRIVER_FASTPATH_ROWS``; above it the same semantics run
  as a ``sized_join`` hash exchange.

int64 cent products: price_cents(≤~10^7) × (100−disc) × (100+tax)
≤ ~10^11 per row; a single group would overflow int64 only past ~10^7
rows per partial batch — partials are batch-sized, and the final fold
uses Python ints (arbitrary precision) on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from ..stages.grouping import sized_join


def _cents(x: np.ndarray) -> np.ndarray:
    """floor(x*100 + 0.5) → int64 — matches SQL FLOOR(x*100 + 0.5)
    exactly (no banker's rounding ambiguity)."""
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def pricing_summary(lineitem: rd.Dataset, *, cutoff_iso: str) -> pd.DataFrame:
    """TPC-H Q1 pricing summary: per (l_returnflag, l_linestatus) over
    rows with ``l_shipdate <= cutoff``, exact-integer sums of quantity /
    base price / discounted price / charged price plus averages and row
    count. Money sums are computed in cents and divided by 100 at the
    very end; disc_price = price·(1−disc) and charge =
    price·(1−disc)·(1+tax) are integer products of cent quantities
    (divided by 10^4 / 10^6 once at the end).

    Scale shape: column-pruned read, the filter and the cents partial
    aggregation happen per batch, the exchange carries ≤ (6 groups ×
    n_batches) rows; final fold is group-count-sized on the driver with
    Python-int accumulators (overflow-proof)."""
    cutoff = np.datetime64(cutoff_iso, "us")

    cols = [
        "l_returnflag", "l_linestatus", "l_shipdate",
        "l_quantity", "l_extendedprice", "l_discount", "l_tax",
    ]

    def partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").to_numpy(zero_copy_only=False)
        keep = ship.astype("datetime64[us]") <= cutoff
        if not keep.any():
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "sum_qty": pa.array([], pa.int64()),
                    "sum_base_c": pa.array([], pa.int64()),
                    "sum_disc_c4": pa.array([], pa.int64()),
                    "sum_charge_c6": pa.array([], pa.int64()),
                    "sum_disc_pct": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        sub = batch.filter(pa.array(keep))
        flag = sub.column("l_returnflag").to_pandas().to_numpy()
        stat = sub.column("l_linestatus").to_pandas().to_numpy()
        qty = sub.column("l_quantity").to_numpy(zero_copy_only=False)
        price_c = _cents(sub.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(sub.column("l_discount").to_numpy(zero_copy_only=False))
        tax_pct = _cents(sub.column("l_tax").to_numpy(zero_copy_only=False))
        disc_c4 = price_c * (100 - disc_pct)          # cents ×10^2
        charge_c6 = disc_c4 * (100 + tax_pct)         # cents ×10^4
        keys = pd.MultiIndex.from_arrays([flag, stat])
        df = pd.DataFrame(
            {
                "sum_qty": qty.astype(np.int64),
                "sum_base_c": price_c,
                "sum_disc_c4": disc_c4,
                "sum_charge_c6": charge_c6,
                "sum_disc_pct": disc_pct,
                "n": np.ones(len(qty), np.int64),
            },
            index=keys,
        )
        agg = df.groupby(level=[0, 1], sort=False).sum()
        return pa.table(
            {
                "l_returnflag": pa.array([k[0] for k in agg.index], pa.string()),
                "l_linestatus": pa.array([k[1] for k in agg.index], pa.string()),
                **{c: pa.array(agg[c].to_numpy(), pa.int64()) for c in agg.columns},
            }
        )

    partials = lineitem.select_columns(cols).map_batches(
        partial, batch_format="pyarrow", batch_size=16384
    )
    # group-count × batch-count rows — bounded driver fold in Python ints
    acc: dict[tuple[str, str], list[int]] = {}
    for ref in partials.materialize().to_arrow_refs():
        t = ray.get(ref)
        d = t.to_pydict()
        for i in range(len(t)):
            key = (d["l_returnflag"][i], d["l_linestatus"][i])
            row = acc.setdefault(key, [0, 0, 0, 0, 0, 0])
            row[0] += d["sum_qty"][i]
            row[1] += d["sum_base_c"][i]
            row[2] += d["sum_disc_c4"][i]
            row[3] += d["sum_charge_c6"][i]
            row[4] += d["sum_disc_pct"][i]
            row[5] += d["n"][i]

    rows = []
    for (flag, stat) in sorted(acc):
        sq, sb, sd4, sc6, sdp, n = acc[(flag, stat)]
        rows.append(
            {
                "l_returnflag": flag,
                "l_linestatus": stat,
                # float(int) FIRST, divide after — the same int→double
                # cast order as the oracle's CAST(SUM(..) AS DOUBLE)/k,
                # so a >2^53 sum rounds identically on both sides
                "sum_qty": sq,
                "sum_base_price": round(float(sb) / 100.0, 6),
                "sum_disc_price": round(float(sd4) / 10_000.0, 6),
                "sum_charge": round(float(sc6) / 1_000_000.0, 6),
                "avg_qty": round(float(sq) / n, 6),
                "avg_price": round(float(sb) / 100.0 / n, 6),
                "avg_disc": round(float(sdp) / 100.0 / n, 6),
                "count_order": n,
            }
        )
    return pd.DataFrame(rows)


def ship_priority(
    customer: rd.Dataset,
    orders: rd.Dataset,
    lineitem: rd.Dataset,
    *,
    segment: str,
    date_iso: str,
    k: int = 10,
) -> pd.DataFrame:
    """TPC-H Q3 shipping priority: top-k orders by revenue
    (Σ price·(1−disc), integer cents) over customers in ``segment``,
    orders placed before ``date`` with lineitems shipped after it.
    → (l_orderkey, revenue, o_orderdate[us]) ranked by (revenue desc,
    l_orderkey).

    Scale shape: customer keys (segment-filtered, key-only) broadcast
    into an orders filter; the surviving (orderkey → orderdate) map
    broadcasts into a lineitem filter-join when it fits
    ``DRIVER_FASTPATH_ROWS``, else the same per-order partials run
    through a ``sized_join`` hash exchange. Revenue partials combine
    per batch, so the final exchange is order-count-, not
    lineitem-count-, sized."""
    date = np.datetime64(date_iso, "us")

    cust_keys = set()
    ckeys = customer.select_columns(["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t.column("c_mktsegment"), segment)).select(
            ["c_custkey"]
        ),
        batch_format="pyarrow",
    )
    for ref in ckeys.materialize().to_arrow_refs():
        cust_keys.update(ray.get(ref).column("c_custkey").to_pylist())
    ck_ref = [ray.put(np.array(sorted(cust_keys), np.int64))]

    def order_filter(batch: pa.Table) -> pa.Table:
        ck = ray.get(ck_ref[0])
        keys = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        od = batch.column("o_orderdate").to_numpy(zero_copy_only=False)
        keep = (od.astype("datetime64[us]") < date) & np.isin(keys, ck)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey").filter(pa.array(keep)),
                "o_orderdate": batch.column("o_orderdate").filter(pa.array(keep)),
            }
        )

    sel_orders = orders.select_columns(
        ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(order_filter, batch_format="pyarrow")

    def li_partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").to_numpy(zero_copy_only=False)
        keep = ship.astype("datetime64[us]") > date
        sub = batch.filter(pa.array(keep))
        okey = sub.column("l_orderkey").to_numpy(zero_copy_only=False)
        price_c = _cents(sub.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(sub.column("l_discount").to_numpy(zero_copy_only=False))
        rev_c4 = price_c * (100 - disc_pct)
        uk, inv = np.unique(okey, return_inverse=True)
        sums = np.bincount(inv, weights=rev_c4.astype(np.float64))
        # exact: rev_c4 ≤ ~10^11, batch sums ≤ 2^53 — integer-exact in
        # float64; re-cast and fold as int64
        return pa.table(
            {
                "l_orderkey": pa.array(uk, pa.int64()),
                "rev_c4": pa.array(sums.astype(np.int64)),
            }
        )

    li = lineitem.select_columns(
        ["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"]
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=16384)

    # function-local import so tests can monkeypatch config (the gated
    # dual-path convention shared with pipelines/dedup.py)
    from ..config import DRIVER_FASTPATH_ROWS

    n_orders = sel_orders.count()
    if n_orders <= DRIVER_FASTPATH_ROWS:
        # driver fastpath: order map is small — fold per-order revenue
        # locally, join in memory
        omap: dict[int, object] = {}
        for ref in sel_orders.materialize().to_arrow_refs():
            t = ray.get(ref)
            for okey, od in zip(
                t.column("o_orderkey").to_pylist(),
                t.column("o_orderdate").to_pylist(),
            ):
                omap[okey] = od
        rev: dict[int, int] = {}
        for ref in li.materialize().to_arrow_refs():
            t = ray.get(ref)
            for okey, rc in zip(
                t.column("l_orderkey").to_pylist(), t.column("rev_c4").to_pylist()
            ):
                if okey in omap:
                    rev[okey] = rev.get(okey, 0) + rc
        top = sorted(rev.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        return pd.DataFrame(
            {
                "l_orderkey": [t[0] for t in top],
                "revenue": [round(float(t[1]) / 10_000.0, 6) for t in top],
                "o_orderdate": [omap[t[0]] for t in top],
            }
        )

    # distributed path: per-order revenue via groupby, hash join to the
    # filtered orders, distributed sort for the top-k
    rev_ds = li.groupby("l_orderkey").sum("rev_c4")
    joined = sized_join(
        rev_ds,
        sel_orders.map_batches(
            lambda t: t.rename_columns(["l_orderkey", "o_orderdate"]),
            batch_format="pyarrow",
        ),
        ("l_orderkey",),
    )
    out = (
        joined.sort(["sum(rev_c4)", "l_orderkey"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    out["revenue"] = (out["sum(rev_c4)"].astype(np.float64) / 10_000.0).round(6)
    return out[["l_orderkey", "revenue", "o_orderdate"]]


def region_revenue(
    customer: rd.Dataset,
    orders: rd.Dataset,
    lineitem: rd.Dataset,
    nation,
    region,
    *,
    region_name: str,
    date_from_iso: str,
    date_to_iso: str,
) -> pd.DataFrame:
    """TPC-H Q5-shaped revenue per nation: Σ price·(1−disc) (integer
    cents) of lineitems belonging to orders placed in [date_from,
    date_to) by customers of ``region_name``. → (n_name, revenue).

    Join chain and scale shape: nation⨝region are DIMENSIONS (tens of
    rows) — read whole and broadcast; customer projects to a
    custkey→nation_name map restricted to the region (broadcast, the
    classic replicated-dimension star join); orders filter+project to
    orderkey→custkey per batch against the broadcast customer keys;
    lineitem revenue partials combine per batch on orderkey. The only
    fact-fact edge (lineitem⨝orders) resolves against the filtered
    order map — gated on ``DRIVER_FASTPATH_ROWS`` with a ``sized_join``
    fallback, same dual-path discipline as ``ship_priority``."""
    d0 = np.datetime64(date_from_iso, "us")
    d1 = np.datetime64(date_to_iso, "us")

    # dimensions: tens of rows by definition — driver-side collect
    nat = pa.concat_tables(ray.get(nation.materialize().to_arrow_refs()))
    reg = pa.concat_tables(ray.get(region.materialize().to_arrow_refs()))
    rkeys = {
        rk
        for rk, rn in zip(
            reg.column("r_regionkey").to_pylist(), reg.column("r_name").to_pylist()
        )
        if rn == region_name
    }
    nat_name = {
        nk: nn
        for nk, nn, nr in zip(
            nat.column("n_nationkey").to_pylist(),
            nat.column("n_name").to_pylist(),
            nat.column("n_regionkey").to_pylist(),
        )
        if nr in rkeys
    }
    nat_ref = [ray.put(nat_name)]

    def cust_map(batch: pa.Table) -> pa.Table:
        nm = ray.get(nat_ref[0])
        nk = batch.column("c_nationkey").to_numpy(zero_copy_only=False)
        keep = np.isin(nk, np.array(sorted(nm), np.int64))
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey").filter(pa.array(keep)),
                "c_nationkey": batch.column("c_nationkey").filter(pa.array(keep)),
            }
        )

    cust = customer.select_columns(["c_custkey", "c_nationkey"]).map_batches(
        cust_map, batch_format="pyarrow"
    )
    # region customers: broadcast custkey→nationkey (a fifth of the
    # customer dimension; at cluster scale flip to sized_join like the
    # order map below — same gate)
    c2n: dict[int, int] = {}
    for ref in cust.materialize().to_arrow_refs():
        t = ray.get(ref)
        c2n.update(
            zip(t.column("c_custkey").to_pylist(), t.column("c_nationkey").to_pylist())
        )
    c2n_ref = [ray.put(c2n)]

    def order_map(batch: pa.Table) -> pa.Table:
        m = ray.get(c2n_ref[0])
        od = batch.column("o_orderdate").to_numpy(zero_copy_only=False)
        ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        ckeys = np.array(sorted(m), np.int64)
        keep = (
            (od.astype("datetime64[us]") >= d0)
            & (od.astype("datetime64[us]") < d1)
            & np.isin(ck, ckeys)
        )
        ok = batch.column("o_orderkey").to_numpy(zero_copy_only=False)[keep]
        nk = np.array([m[c] for c in ck[keep]], np.int64)
        return pa.table(
            {
                "o_orderkey": pa.array(ok, pa.int64()),
                "nationkey": pa.array(nk, pa.int64()),
            }
        )

    sel_orders = orders.select_columns(
        ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(order_map, batch_format="pyarrow")

    def li_partial(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        price_c = _cents(batch.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(batch.column("l_discount").to_numpy(zero_copy_only=False))
        rev_c4 = price_c * (100 - disc_pct)
        uk, inv = np.unique(okey, return_inverse=True)
        sums = np.bincount(inv, weights=rev_c4.astype(np.float64))
        return pa.table(
            {
                "l_orderkey": pa.array(uk, pa.int64()),
                "rev_c4": pa.array(sums.astype(np.int64)),
            }
        )

    li = lineitem.select_columns(
        ["l_orderkey", "l_extendedprice", "l_discount"]
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=16384)

    from ..config import DRIVER_FASTPATH_ROWS

    rev_by_nation: dict[int, int] = {}
    if sel_orders.count() <= DRIVER_FASTPATH_ROWS:
        o2n: dict[int, int] = {}
        for ref in sel_orders.materialize().to_arrow_refs():
            t = ray.get(ref)
            o2n.update(
                zip(t.column("o_orderkey").to_pylist(), t.column("nationkey").to_pylist())
            )
        for ref in li.materialize().to_arrow_refs():
            t = ray.get(ref)
            for okey, rc in zip(
                t.column("l_orderkey").to_pylist(), t.column("rev_c4").to_pylist()
            ):
                nk = o2n.get(okey)
                if nk is not None:
                    rev_by_nation[nk] = rev_by_nation.get(nk, 0) + rc
    else:
        rev_ds = li.groupby("l_orderkey").sum("rev_c4")
        joined = sized_join(
            rev_ds,
            sel_orders.map_batches(
                lambda t: t.rename_columns(["l_orderkey", "nationkey"]),
                batch_format="pyarrow",
            ),
            ("l_orderkey",),
        )
        agg = joined.groupby("nationkey").sum("sum(rev_c4)").to_pandas()
        rev_by_nation = dict(
            zip(agg["nationkey"].astype(int), agg["sum(sum(rev_c4))"].astype(int))
        )

    rows = sorted(
        (nat_name[nk], round(float(rc) / 10_000.0, 6))
        for nk, rc in rev_by_nation.items()
    )
    return pd.DataFrame({"n_name": [r[0] for r in rows],
                         "revenue": [r[1] for r in rows]})


def order_priority_counts(
    orders: rd.Dataset,
    lineitem: rd.Dataset,
    *,
    date_from_iso: str,
    date_to_iso: str,
    late_days: int = 90,
) -> pd.DataFrame:
    """TPC-H Q4-shaped EXISTS semi-join: per order priority, how many
    orders in [date_from, date_to) have at least one lineitem shipped
    more than ``late_days`` after the order date.
    → (o_orderpriority, order_count).

    Scale shape: below the driver gate the filtered orders broadcast
    ONCE (``ray.put`` of sorted orderkey/orderdate arrays) and the
    lineitem scan emits only the DISTINCT late orderkeys it saw — a
    shuffle-free semi-join whose exchange is the late-hit set, not a
    per-order groupby (the 4-lineitems-per-order combiner compresses
    nothing, so the old groupby-max shuffled at fact-row grain).
    Above the gate the EXISTS collapses to max(l_shipdate) per order
    resolved through a ``sized_join`` hash exchange."""
    d0 = np.datetime64(date_from_iso, "us")
    d1 = np.datetime64(date_to_iso, "us")
    late_us = np.int64(late_days) * 86_400_000_000

    def o_filter(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        )
        keep = (od >= d0) & (od < d1)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey").filter(pa.array(keep)),
                "o_orderpriority": batch.column("o_orderpriority").filter(
                    pa.array(keep)
                ),
                "odate_us": pa.array(od.astype(np.int64)[keep], pa.int64()),
            }
        )

    sel = orders.select_columns(
        ["o_orderkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(o_filter, batch_format="pyarrow").materialize()

    from ..config import DRIVER_FASTPATH_ROWS

    counts: dict[str, int] = {}
    if sel.count() <= DRIVER_FASTPATH_ROWS:
        # Driver fastpath: broadcast the (sorted orderkey, orderdate)
        # arrays of the selected window once; each lineitem batch emits
        # only the DISTINCT orderkeys whose shipdate is late. No shuffle.
        parts = [p for p in (ray.get(r) for r in sel.materialize().to_arrow_refs()) if p.num_rows]
        if not parts:
            return pd.DataFrame({"o_orderpriority": [], "order_count": []})
        st = pa.concat_tables(parts)
        okeys = st.column("o_orderkey").to_numpy(zero_copy_only=False)
        odates = st.column("odate_us").to_numpy(zero_copy_only=False)
        prios = st.column("o_orderpriority").to_numpy(zero_copy_only=False)
        order = np.argsort(okeys, kind="stable")
        okeys, odates, prios = okeys[order], odates[order], prios[order]
        sel_ref = ray.put((okeys, odates))

        def li_late(batch: pa.Table) -> pa.Table:
            sk, sd = ray.get(sel_ref)
            lk = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
            ship = batch.column("l_shipdate").to_numpy(
                zero_copy_only=False
            ).astype("datetime64[us]").astype(np.int64)
            pos = np.searchsorted(sk, lk)
            pos[pos == len(sk)] = 0
            hit = (sk[pos] == lk) & (ship > sd[pos] + late_us)
            return pa.table(
                {"late_key": pa.array(np.unique(lk[hit]), pa.int64())}
            )

        late_parts = [
            ray.get(r)
            for r in lineitem.select_columns(["l_orderkey", "l_shipdate"])
            .map_batches(li_late, batch_format="pyarrow", batch_size=65536)
            .materialize().to_arrow_refs()
        ]
        lk_all = np.unique(
            np.concatenate(
                [
                    p.column("late_key").to_numpy(zero_copy_only=False)
                    for p in late_parts
                    if p.num_rows
                ]
                or [np.empty(0, np.int64)]
            )
        )
        pos = np.searchsorted(okeys, lk_all)
        late_prios = prios[pos]
        for pr, c in zip(*np.unique(late_prios, return_counts=True)):
            counts[str(pr)] = int(c)
    else:
        def li_max(batch: pa.Table) -> pa.Table:
            okey = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
            ship = batch.column("l_shipdate").to_numpy(
                zero_copy_only=False
            ).astype("datetime64[us]").astype(np.int64)
            uk, inv = np.unique(okey, return_inverse=True)
            mx = np.full(len(uk), np.iinfo(np.int64).min, np.int64)
            np.maximum.at(mx, inv, ship)
            return pa.table(
                {
                    "l_orderkey": pa.array(uk, pa.int64()),
                    "max_ship_us": pa.array(mx, pa.int64()),
                }
            )

        li = lineitem.select_columns(["l_orderkey", "l_shipdate"]).map_batches(
            li_max, batch_format="pyarrow", batch_size=16384
        ).groupby("l_orderkey").max("max_ship_us")
        joined = sized_join(
            sel,
            li.map_batches(
                lambda t: t.rename_columns(["o_orderkey", "max(max_ship_us)"]),
                batch_format="pyarrow",
            ),
            ("o_orderkey",),
        )
        def late(batch: pa.Table) -> pa.Table:
            ms = batch.column("max(max_ship_us)").to_numpy(zero_copy_only=False)
            od = batch.column("odate_us").to_numpy(zero_copy_only=False)
            keep = ms > od + late_us
            return pa.table(
                {"o_orderpriority": batch.column("o_orderpriority").filter(pa.array(keep))}
            )
        agg = (
            joined.map_batches(late, batch_format="pyarrow")
            .groupby("o_orderpriority")
            .count()
            .to_pandas()
        )
        counts = dict(zip(agg["o_orderpriority"], agg["count()"].astype(int)))

    rows = sorted(counts.items())
    return pd.DataFrame(
        {"o_orderpriority": [r[0] for r in rows],
         "order_count": [r[1] for r in rows]}
    )


def rollup_pricing(lineitem: rd.Dataset) -> pd.DataFrame:
    """GROUP BY ROLLUP (l_returnflag, l_linestatus) over the whole
    lineitem table → exact sums at THREE levels: (flag, status) detail,
    per-flag subtotals, and the grand total — rolled-up key columns
    carry the literal marker ``'ALL'`` (the flag/status domains are
    single letters, no collision) so every level lands in one table
    with a stable hashable schema.

    → (l_returnflag, l_linestatus, sum_qty, sum_base_price, count_order)

    Scale shape: ONE pass builds the finest level with the same
    integer-cents per-batch combiners as :func:`pricing_summary`
    (exchange ≤ 6 groups × n_batches rows); the two coarser levels are
    derived by re-aggregating the 6-row detail result on the driver —
    exact integer folds, no second scan, no extra shuffle. This is the
    textbook rollup plan: compute the finest grouping set once, derive
    ancestors from it."""

    def partial(batch: pa.Table) -> pa.Table:
        flag = batch.column("l_returnflag").to_pandas().to_numpy()
        stat = batch.column("l_linestatus").to_pandas().to_numpy()
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        price_c = _cents(batch.column("l_extendedprice").to_numpy(zero_copy_only=False))
        keys = pd.MultiIndex.from_arrays([flag, stat])
        df = pd.DataFrame(
            {
                "sum_qty": qty.astype(np.int64),
                "sum_base_c": price_c,
                "n": np.ones(len(qty), np.int64),
            },
            index=keys,
        )
        agg = df.groupby(level=[0, 1], sort=False).sum()
        return pa.table(
            {
                "l_returnflag": pa.array([k[0] for k in agg.index], pa.string()),
                "l_linestatus": pa.array([k[1] for k in agg.index], pa.string()),
                **{c: pa.array(agg[c].to_numpy(), pa.int64()) for c in agg.columns},
            }
        )

    partials = lineitem.select_columns(
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"]
    ).map_batches(partial, batch_format="pyarrow", batch_size=16384)

    # detail fold: ≤ 6 groups, Python-int accumulators
    acc: dict[tuple[str, str], list[int]] = {}
    for ref in partials.materialize().to_arrow_refs():
        t = ray.get(ref)
        d = t.to_pydict()
        for i in range(len(t)):
            key = (d["l_returnflag"][i], d["l_linestatus"][i])
            row = acc.setdefault(key, [0, 0, 0])
            row[0] += d["sum_qty"][i]
            row[1] += d["sum_base_c"][i]
            row[2] += d["n"][i]

    # derive the ancestor grouping sets from the detail level
    by_flag: dict[str, list[int]] = {}
    total = [0, 0, 0]
    for (flag, _stat), row in acc.items():
        frow = by_flag.setdefault(flag, [0, 0, 0])
        for j in range(3):
            frow[j] += row[j]
            total[j] += row[j]

    def emit(flag: str, stat: str, row: list[int]) -> dict:
        return {
            "l_returnflag": flag,
            "l_linestatus": stat,
            "sum_qty": row[0],
            "sum_base_price": round(float(row[1]) / 100.0, 6),
            "count_order": row[2],
        }

    rows = [emit(f, s, acc[(f, s)]) for (f, s) in sorted(acc)]
    rows += [emit(f, "ALL", by_flag[f]) for f in sorted(by_flag)]
    rows.append(emit("ALL", "ALL", total))
    return pd.DataFrame(rows)


def revenue_filter(
    lineitem: rd.Dataset,
    *,
    date_from_iso: str,
    date_to_iso: str,
    disc_lo: float,
    disc_hi: float,
    qty_max: float,
) -> pd.DataFrame:
    """TPC-H Q6 shape: forecast-revenue-change scan —

        SELECT sum(l_extendedprice · l_discount) WHERE shipdate ∈
        [from, to) AND discount ∈ [lo, hi] AND quantity < qty_max

    Money math in integer cent·pct units (price_c × disc_pct, ×10⁴),
    summed as int64 per batch and Python ints on the driver; the one
    double division happens at the very end, so the oracle's
    CAST(SUM(...) AS DOUBLE)/1e4 rounds identically.

    → one row (revenue, n_rows). Scale shape: pure column-pruned
    streaming scan, per-batch partial sums, batch-count-sized fold —
    the cheapest possible plan for a predicate-aggregate."""
    lo_c = int(np.floor(disc_lo * 100 + 0.5))
    hi_c = int(np.floor(disc_hi * 100 + 0.5))
    d_from = np.datetime64(date_from_iso, "us")
    d_to = np.datetime64(date_to_iso, "us")

    def partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        )
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        disc_pct = _cents(batch.column("l_discount").to_numpy(zero_copy_only=False))
        keep = (
            (ship >= d_from)
            & (ship < d_to)
            & (disc_pct >= lo_c)
            & (disc_pct <= hi_c)
            & (qty < qty_max)
        )
        price_c = _cents(
            batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        )[keep]
        rev_c4 = int((price_c * disc_pct[keep]).sum())
        return pa.table(
            {
                "rev_c4": pa.array([rev_c4], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    partials = lineitem.select_columns(
        ["l_shipdate", "l_quantity", "l_extendedprice", "l_discount"]
    ).map_batches(partial, batch_format="pyarrow", batch_size=16384)
    rev, n = 0, 0
    for ref in partials.materialize().to_arrow_refs():
        t = ray.get(ref)
        for i in range(len(t)):
            rev += t.column("rev_c4")[i].as_py()
            n += t.column("n")[i].as_py()
    return pd.DataFrame(
        [{"revenue": round(float(rev) / 10_000.0, 6), "n_rows": n}]
    )


def enrich_orders(
    orders: rd.Dataset,
    customer: rd.Dataset,
    nation: rd.Dataset,
    region: rd.Dataset,
) -> rd.Dataset:
    """Denormalization ETL: orders hydrated through the dimension chain
    customer → nation → region →
    (o_orderkey, o_totalprice, c_name, c_mktsegment, n_name, r_name).
    The "wide fact table" prep every BI export / feature join runs.

    Scale shape: nation/region are constant-sized and always broadcast;
    the customer attribute map broadcasts under ``DRIVER_FASTPATH_ROWS``
    (dimension-sized, the Q5 pattern), else the one genuinely large
    edge runs as a ``sized_join`` hash exchange and ONLY the nation/
    region hydration stays broadcast. Output streams — no driver
    materialization of the fact side."""
    from ..config import DRIVER_FASTPATH_ROWS

    nat = pa.concat_tables(ray.get(nation.materialize().to_arrow_refs()))
    reg = pa.concat_tables(ray.get(region.materialize().to_arrow_refs()))
    n_key = nat.column("n_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    n_name = np.asarray(nat.column("n_name").to_pylist(), dtype=object)
    n_reg = nat.column("n_regionkey").to_numpy(zero_copy_only=False).astype(np.int64)
    r_key = reg.column("r_regionkey").to_numpy(zero_copy_only=False).astype(np.int64)
    r_name = np.asarray(reg.column("r_name").to_pylist(), dtype=object)
    r_order = np.argsort(r_key)
    n_order = np.argsort(n_key)
    n_key, n_name, n_reg = n_key[n_order], n_name[n_order], n_reg[n_order]
    r_key, r_name = r_key[r_order], r_name[r_order]
    # nation → (name, region name) resolved once on the driver
    n_rname = r_name[np.searchsorted(r_key, n_reg)]
    dim_ref = [ray.put((n_key, n_name, n_rname))]

    def hydrate_nation(batch: pa.Table, nk_col: str) -> pa.Table:
        nk, nn, nr = ray.get(dim_ref[0])
        keys = batch.column(nk_col).to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(nk, keys)
        out = batch.drop_columns([nk_col])
        out = out.append_column("n_name", pa.array(nn[pos], pa.string()))
        return out.append_column("r_name", pa.array(nr[pos], pa.string()))

    n_cust = customer.count()
    if n_cust <= DRIVER_FASTPATH_ROWS:
        ct = pa.concat_tables(
            ray.get(
                customer.select_columns(
                    ["c_custkey", "c_name", "c_mktsegment", "c_nationkey"]
                ).materialize().to_arrow_refs()
            )
        )
        ckey = ct.column("c_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        corder = np.argsort(ckey)
        cust_ref = [
            ray.put(
                (
                    ckey[corder],
                    np.asarray(ct.column("c_name").to_pylist(), dtype=object)[corder],
                    np.asarray(ct.column("c_mktsegment").to_pylist(), dtype=object)[
                        corder
                    ],
                    ct.column("c_nationkey")
                    .to_numpy(zero_copy_only=False)
                    .astype(np.int64)[corder],
                )
            )
        ]

        def hydrate(batch: pa.Table) -> pa.Table:
            ck, cn, cm, cnat = ray.get(cust_ref[0])
            keys = (
                batch.column("o_custkey").to_numpy(zero_copy_only=False).astype(
                    np.int64
                )
            )
            pos = np.searchsorted(ck, keys)
            mid = pa.table(
                {
                    "o_orderkey": batch.column("o_orderkey"),
                    "o_totalprice": batch.column("o_totalprice"),
                    "c_name": pa.array(cn[pos], pa.string()),
                    "c_mktsegment": pa.array(cm[pos], pa.string()),
                    "c_nationkey": pa.array(cnat[pos], pa.int64()),
                }
            )
            return hydrate_nation(mid, "c_nationkey")

        return orders.select_columns(
            ["o_orderkey", "o_custkey", "o_totalprice"]
        ).map_batches(hydrate, batch_format="pyarrow")

    # above the gate: hash-exchange the one large edge, broadcast the rest
    from ..stages.grouping import sized_join

    slim_cust = customer.select_columns(
        ["c_custkey", "c_name", "c_mktsegment", "c_nationkey"]
    ).map_batches(
        lambda t: pa.table(
            {
                "o_custkey": t.column("c_custkey"),
                "c_name": t.column("c_name"),
                "c_mktsegment": t.column("c_mktsegment"),
                "c_nationkey": pc.cast(t.column("c_nationkey"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )
    joined = sized_join(
        orders.select_columns(["o_orderkey", "o_custkey", "o_totalprice"]),
        slim_cust,
        on=("o_custkey",),
    )
    return joined.map_batches(
        lambda t: hydrate_nation(
            t.select(
                ["o_orderkey", "o_totalprice", "c_name", "c_mktsegment", "c_nationkey"]
            ),
            "c_nationkey",
        ),
        batch_format="pyarrow",
    )


def top_parts_by_revenue(
    lineitem: rd.Dataset,
    part: rd.Dataset,
    *,
    k: int = 10,
) -> pd.DataFrame:
    """→ top-``k`` parts by discounted revenue, hydrated with the part
    name/brand and the number of DISTINCT suppliers that shipped them —
    (p_partkey, p_name, p_brand, revenue, n_suppliers, n_rows), ranked
    (revenue desc, p_partkey).

    Scale shape: revenue accumulates in integer cents×pct per
    (partkey) with per-batch combiners — the exchange is partkey-sized
    partials, and because every combiner emits ≤ distinct-parts rows,
    the driver fold is (parts × batches)-bounded. Distinct suppliers
    per part fold as per-batch (part, supplier) unique pairs — pair
    cardinality is bounded by the real assignment (TPC-H ships each
    part from ≤ a handful of suppliers). Part names broadcast
    (dimension-sized). Ranking picks k on the driver from the
    parts-sized aggregate — no global sort."""

    def partial(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        price_c = _cents(batch.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(batch.column("l_discount").to_numpy(zero_copy_only=False))
        rev_c4 = price_c * (100 - disc_pct)
        uniq, inv = np.unique(pk, return_inverse=True)
        rev = np.bincount(inv, weights=rev_c4.astype(np.float64), minlength=len(uniq))
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        # distinct (part, supplier) pairs this batch
        pair = np.unique(pk * np.int64(1 << 20) + sk)
        pad = max(len(uniq), len(pair))
        def _pad(a, fill=0):
            out = np.full(pad, fill, np.int64)
            out[: len(a)] = a
            return out
        return pa.table(
            {
                "p_partkey": pa.array(_pad(uniq, -1)),
                "rev_c4": pa.array(_pad(rev.astype(np.int64))),
                "n_rows": pa.array(_pad(n)),
                "pair": pa.array(_pad(pair, -1)),
            }
        )

    acc_rev: dict[int, int] = {}
    acc_n: dict[int, int] = {}
    pairs: set = set()
    parts_stream = lineitem.select_columns(
        ["l_partkey", "l_suppkey", "l_extendedprice", "l_discount"]
    ).map_batches(partial, batch_format="pyarrow", batch_size=16384)
    for ref in parts_stream.materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t):
            continue
        d = t.to_pydict()
        for pk_, rv, n_ in zip(d["p_partkey"], d["rev_c4"], d["n_rows"]):
            if pk_ >= 0:
                acc_rev[pk_] = acc_rev.get(pk_, 0) + rv
                acc_n[pk_] = acc_n.get(pk_, 0) + n_
        pairs.update(p for p in d["pair"] if p >= 0)

    sup_per_part: dict[int, int] = {}
    for p in pairs:
        key = p >> 20
        sup_per_part[key] = sup_per_part.get(key, 0) + 1

    top = sorted(acc_rev, key=lambda x: (-acc_rev[x], x))[:k]
    pt = pa.concat_tables(
        ray.get(
            part.select_columns(["p_partkey", "p_name", "p_brand"]).materialize().to_arrow_refs()
        )
    )
    pkeys = pt.column("p_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(pkeys)
    pkeys = pkeys[order]
    pname = np.asarray(pt.column("p_name").to_pylist(), dtype=object)[order]
    pbrand = np.asarray(pt.column("p_brand").to_pylist(), dtype=object)[order]
    rows = []
    for pk_ in top:
        pos = int(np.searchsorted(pkeys, pk_))
        rows.append(
            {
                "p_partkey": pk_,
                "p_name": pname[pos] if pos < len(pkeys) and pkeys[pos] == pk_ else "",
                "p_brand": (
                    pbrand[pos] if pos < len(pkeys) and pkeys[pos] == pk_ else ""
                ),
                "revenue": round(float(acc_rev[pk_]) / 10_000.0, 6),
                "n_suppliers": sup_per_part.get(pk_, 0),
                "n_rows": acc_n[pk_],
            }
        )
    return pd.DataFrame(rows)


def supplier_nation_profile(
    supplier: rd.Dataset,
    nation: rd.Dataset,
    region: rd.Dataset,
) -> pd.DataFrame:
    """→ (n_name, r_name, n_suppliers, total_acctbal): per-nation
    supplier census with region rollup context — the remaining star
    dimension (supplier) wired through nation→region.

    Scale shape: supplier streams with per-batch (nationkey → count,
    balance-cents) combiners; nation/region resolve on the driver
    (constant-sized). Balance sums in integer cents, divided once."""
    nat = pa.concat_tables(ray.get(nation.materialize().to_arrow_refs()))
    reg = pa.concat_tables(ray.get(region.materialize().to_arrow_refs()))
    n_key = nat.column("n_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
    n_name = np.asarray(nat.column("n_name").to_pylist(), dtype=object)
    n_reg = nat.column("n_regionkey").to_numpy(zero_copy_only=False).astype(np.int64)
    r_key = reg.column("r_regionkey").to_numpy(zero_copy_only=False).astype(np.int64)
    r_name = np.asarray(reg.column("r_name").to_pylist(), dtype=object)
    ro = np.argsort(r_key)
    no = np.argsort(n_key)
    n_key, n_name, n_reg = n_key[no], n_name[no], n_reg[no]
    r_name_for_n = r_name[ro][np.searchsorted(r_key[ro], n_reg)]

    def partial(batch: pa.Table) -> pa.Table:
        nk = batch.column("s_nationkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        bal_c = _cents(batch.column("s_acctbal").to_numpy(zero_copy_only=False))
        uniq, inv = np.unique(nk, return_inverse=True)
        return pa.table(
            {
                "nk": pa.array(uniq),
                "n": pa.array(np.bincount(inv, minlength=len(uniq)).astype(np.int64)),
                "bal_c": pa.array(
                    np.bincount(
                        inv, weights=bal_c.astype(np.float64), minlength=len(uniq)
                    ).astype(np.int64)
                ),
            }
        )

    acc: dict[int, list[int]] = {}
    for ref in (
        supplier.select_columns(["s_nationkey", "s_acctbal"])
        .map_batches(partial, batch_format="pyarrow")
        .materialize().to_arrow_refs()
    ):
        t = ray.get(ref)
        if not len(t):
            continue
        d = t.to_pydict()
        for nk_, n_, b_ in zip(d["nk"], d["n"], d["bal_c"]):
            row = acc.setdefault(nk_, [0, 0])
            row[0] += n_
            row[1] += b_
    rows = []
    for nk_ in sorted(acc):
        pos = int(np.searchsorted(n_key, nk_))
        rows.append(
            {
                "n_name": n_name[pos],
                "r_name": r_name_for_n[pos],
                "n_suppliers": acc[nk_][0],
                "total_acctbal": round(float(acc[nk_][1]) / 100.0, 6),
            }
        )
    return pd.DataFrame(rows).sort_values("n_name").reset_index(drop=True)


def customer_order_distribution(
    customer: rd.Dataset,
    orders: rd.Dataset,
    *,
    exclude_priority: str = "5-LOW",
) -> pd.DataFrame:
    """TPC-H Q13-shaped aggregate-of-aggregate: distribution of
    customers by how many (non-``exclude_priority``) orders they
    placed, INCLUDING the zero-order bucket (the LEFT JOIN semantics).
    → (c_count, custdist).

    Scale shape: orders filter + per-batch custkey-count combiner →
    one customer-grain exchange (orders-per-customer compresses ~10×);
    the count histogram is another combiner whose exchange is at most
    (distinct order counts × batches) rows; the zero bucket falls out
    of two scalar counts (total customers − customers with ≥1 order) —
    the customer table itself never shuffles."""

    def o_partial(batch: pa.Table) -> pa.Table:
        keep = pc.not_equal(batch.column("o_orderpriority"), exclude_priority)
        ck = batch.column("o_custkey").filter(keep).to_numpy(zero_copy_only=False)
        uk, cnt = np.unique(ck, return_counts=True)
        return pa.table(
            {
                "c_custkey": pa.array(uk, pa.int64()),
                "n_orders": pa.array(cnt.astype(np.int64)),
            }
        )

    per_cust = (
        orders.select_columns(["o_custkey", "o_orderpriority"])
        .map_batches(o_partial, batch_format="pyarrow", batch_size=65536)
        .groupby("c_custkey")
        .sum("n_orders")
    )

    # histogram combiner: (order-count value → #customers) per block,
    # then a bounded driver fold (distinct count values ≪ customers)
    def h_partial(batch: pa.Table) -> pa.Table:
        n = batch.column("sum(n_orders)").to_numpy(zero_copy_only=False)
        uv, cnt = np.unique(n, return_counts=True)
        return pa.table(
            {
                "c_count": pa.array(uv.astype(np.int64)),
                "custdist": pa.array(cnt.astype(np.int64)),
            }
        )

    hist: dict[int, int] = {}
    n_with_orders = 0
    for ref in per_cust.map_batches(
        h_partial, batch_format="pyarrow"
    ).materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t):
            continue
        d = t.to_pydict()
        for v, c in zip(d["c_count"], d["custdist"]):
            hist[v] = hist.get(v, 0) + c
            n_with_orders += c

    n_customers = customer.count()
    zero = n_customers - n_with_orders
    if zero:
        hist[0] = hist.get(0, 0) + zero

    rows = sorted(hist.items(), key=lambda kv: (-kv[1], -kv[0]))
    return pd.DataFrame(
        {
            "c_count": [r[0] for r in rows],
            "custdist": [r[1] for r in rows],
        }
    )


def important_parts(
    lineitem: rd.Dataset,
    *,
    fraction_num: int = 12,
    fraction_den: int = 10_000,
) -> pd.DataFrame:
    """TPC-H Q11-shaped global-scalar HAVING: parts whose discounted
    revenue exceeds ``fraction_num/fraction_den`` of the WHOLE table's
    revenue. → (l_partkey, value) with value = revenue in dollars.

    The revenue unit is the exact integer cent·pct product
    (floor(price·100+0.5) × (100−floor(disc·100+0.5))), so both the
    per-part sums and the global total are exact integers and the
    HAVING compares ``value·den > total·num`` in arbitrary-precision
    ints — no float threshold can disagree with the oracle.

    Scale shape: ONE pass of per-batch (partkey → cent·pct) combiners →
    a part-grain exchange (line-items-per-part compresses well); the
    global total folds from the same partials; the HAVING filters the
    part-grain table with two broadcast ints."""

    def p_partial(batch: pa.Table) -> pa.Table:
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        price_c = _cents(batch.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(batch.column("l_discount").to_numpy(zero_copy_only=False))
        val = price_c * (100 - disc_pct)
        uk, inv = np.unique(pk, return_inverse=True)
        sums = np.zeros(len(uk), np.int64)
        np.add.at(sums, inv, val)
        return pa.table(
            {
                "l_partkey": pa.array(uk, pa.int64()),
                "val_c4": pa.array(sums),
            }
        )

    per_part = (
        lineitem.select_columns(["l_partkey", "l_extendedprice", "l_discount"])
        .map_batches(p_partial, batch_format="pyarrow", batch_size=65536)
        .groupby("l_partkey")
        .sum("val_c4")
        .materialize()
    )

    # global total from the part-grain table (part-count-sized scan)
    total = 0
    parts: list[pa.Table] = []
    for ref in per_part.materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t):
            continue
        parts.append(t)
        total += int(
            np.sum(t.column("sum(val_c4)").to_numpy(zero_copy_only=False), dtype=object)
        )

    rows = []
    for t in parts:
        pk = t.column("l_partkey").to_numpy(zero_copy_only=False)
        v = t.column("sum(val_c4)").to_numpy(zero_copy_only=False)
        keep = v.astype(object) * fraction_den > total * fraction_num
        for k_, v_ in zip(pk[keep], v[keep]):
            rows.append((int(k_), round(float(int(v_)) / 10_000.0, 6)))
    rows.sort()
    return pd.DataFrame(
        {
            "l_partkey": [r[0] for r in rows],
            "value": [r[1] for r in rows],
        }
    )


def idle_customers(
    customer: rd.Dataset,
    orders: rd.Dataset,
    *,
    nationkeys: tuple[int, ...] = (1, 3, 5, 7, 9, 11, 13),
    since_iso: str = "2001-01-01",
) -> pd.DataFrame:
    """TPC-H Q22-shaped anti-join + exact scalar-average HAVING:
    customers from ``nationkeys`` whose account balance exceeds the
    average POSITIVE balance of that nation set AND who placed no order
    on/after ``since_iso`` (dormant accounts), grouped per nation.
    → (c_nationkey, numcust, totacctbal).

    The average is never materialized as a float: balances are integer
    cents, and the predicate ``bal_c · n > sum_c`` multiplies through
    by the count, so both sides compare exact integers.

    Scale shape: pass 1 over customer folds two scalars (Σ positive
    cents, count) from per-batch partials; the distinct order custkeys
    come from a per-batch unique combiner → one customer-grain
    exchange; the anti-join resolves below ``DRIVER_FASTPATH_ROWS`` via
    a broadcast sorted key array (``ray.put`` once), else through a
    LEFT ``sized_join`` null-probe. Customer rows never shuffle."""
    nk_arr = np.asarray(sorted(nationkeys), np.int64)

    def c_partial(batch: pa.Table) -> pa.Table:
        nk = batch.column("c_nationkey").to_numpy(zero_copy_only=False)
        bal_c = _cents(batch.column("c_acctbal").to_numpy(zero_copy_only=False))
        pos = np.searchsorted(nk_arr, nk)
        pos[pos == len(nk_arr)] = 0
        in_set = nk_arr[pos] == nk
        keep = in_set & (bal_c > 0)
        return pa.table(
            {
                "sum_c": pa.array([int(bal_c[keep].sum())], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    sum_c, n_pos = 0, 0
    for ref in (
        customer.select_columns(["c_nationkey", "c_acctbal"])
        .map_batches(c_partial, batch_format="pyarrow", batch_size=65536)
        .materialize().to_arrow_refs()
    ):
        t = ray.get(ref)
        d = t.to_pydict()
        sum_c += sum(d["sum_c"])
        n_pos += sum(d["n"])
    if n_pos == 0:
        return pd.DataFrame(
            {
                "c_nationkey": pd.Series([], dtype=np.int64),
                "numcust": pd.Series([], dtype=np.int64),
                "totacctbal": pd.Series([], dtype=np.float64),
            }
        )

    since = np.datetime64(since_iso, "us")

    def o_keys(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        )
        ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)[od >= since]
        return pa.table({"c_custkey": pa.array(np.unique(ck), pa.int64())})

    has_order = (
        orders.select_columns(["o_custkey", "o_orderdate"])
        .map_batches(o_keys, batch_format="pyarrow", batch_size=65536)
        .groupby("c_custkey")
        .count()
        .materialize()
    )

    from ..config import DRIVER_FASTPATH_ROWS

    acc: dict[int, list[int]] = {}

    def fold(nk: np.ndarray, bal_c: np.ndarray) -> None:
        for nk_, b_ in zip(nk, bal_c):
            row = acc.setdefault(int(nk_), [0, 0])
            row[0] += 1
            row[1] += int(b_)

    if has_order.count() <= DRIVER_FASTPATH_ROWS:
        keys = np.sort(
            np.concatenate(
                [
                    ray.get(r).column("c_custkey").to_numpy(zero_copy_only=False)
                    for r in has_order.materialize().to_arrow_refs()
                ]
                or [np.empty(0, np.int64)]
            )
        )
        keys_ref = ray.put(keys)

        def c_anti(batch: pa.Table) -> pa.Table:
            ks = ray.get(keys_ref)
            ck = batch.column("c_custkey").to_numpy(zero_copy_only=False)
            nk = batch.column("c_nationkey").to_numpy(zero_copy_only=False)
            bal_c = _cents(batch.column("c_acctbal").to_numpy(zero_copy_only=False))
            pos = np.searchsorted(nk_arr, nk)
            pos[pos == len(nk_arr)] = 0
            in_set = nk_arr[pos] == nk
            # bal·n > sum compares exact ints (python ints via object)
            rich = bal_c.astype(object) * n_pos > sum_c
            kp = np.searchsorted(ks, ck)
            kp[kp == len(ks)] = 0
            no_order = ~(ks[kp] == ck) if len(ks) else np.ones(len(ck), bool)
            keep = in_set & rich.astype(bool) & no_order
            return pa.table(
                {
                    "nk": pa.array(nk[keep], pa.int64()),
                    "bal_c": pa.array(bal_c[keep], pa.int64()),
                }
            )

        for ref in (
            customer.select_columns(["c_custkey", "c_nationkey", "c_acctbal"])
            .map_batches(c_anti, batch_format="pyarrow", batch_size=65536)
            .materialize().to_arrow_refs()
        ):
            t = ray.get(ref)
            if len(t):
                d = t.to_pydict()
                fold(np.asarray(d["nk"]), np.asarray(d["bal_c"]))
    else:
        def c_pred(batch: pa.Table) -> pa.Table:
            ck = batch.column("c_custkey").to_numpy(zero_copy_only=False)
            nk = batch.column("c_nationkey").to_numpy(zero_copy_only=False)
            bal_c = _cents(batch.column("c_acctbal").to_numpy(zero_copy_only=False))
            pos = np.searchsorted(nk_arr, nk)
            pos[pos == len(nk_arr)] = 0
            in_set = nk_arr[pos] == nk
            rich = (bal_c.astype(object) * n_pos > sum_c).astype(bool)
            keep = in_set & rich
            return pa.table(
                {
                    "c_custkey": pa.array(ck[keep], pa.int64()),
                    "nk": pa.array(nk[keep], pa.int64()),
                    "bal_c": pa.array(bal_c[keep], pa.int64()),
                }
            )

        cand = customer.select_columns(
            ["c_custkey", "c_nationkey", "c_acctbal"]
        ).map_batches(c_pred, batch_format="pyarrow", batch_size=65536)
        joined = sized_join(
            cand, has_order, ("c_custkey",), join_type="left_outer"
        )
        def anti(batch: pa.Table) -> pa.Table:
            miss = pc.is_null(batch.column("count()"))
            sub = batch.filter(miss)
            return pa.table(
                {"nk": sub.column("nk"), "bal_c": sub.column("bal_c")}
            )
        for ref in joined.map_batches(
            anti, batch_format="pyarrow"
        ).materialize().to_arrow_refs():
            t = ray.get(ref)
            if len(t):
                d = t.to_pydict()
                fold(np.asarray(d["nk"]), np.asarray(d["bal_c"]))

    rows = sorted(acc.items())
    return pd.DataFrame(
        {
            "c_nationkey": [r[0] for r in rows],
            "numcust": [r[1][0] for r in rows],
            "totacctbal": [round(float(r[1][1]) / 100.0, 6) for r in rows],
        }
    )


def returned_item_revenue(
    customer: rd.Dataset,
    orders: rd.Dataset,
    lineitem: rd.Dataset,
    nation: rd.Dataset,
    *,
    returnflag: str = "R",
    from_iso: str,
    to_iso: str,
    k: int = 20,
) -> pd.DataFrame:
    """TPC-H Q10-shaped returned-item report: per customer, the revenue
    (Σ price·(1−disc), exact integer cents) lost to lineitems flagged
    ``returnflag`` on orders placed in ``[from, to)``; top-``k``
    customers hydrated with name / balance / nation.
    → (c_custkey, c_name, revenue, c_acctbal, n_name) ranked by
    (revenue desc, c_custkey).

    Scale shape: lineitem shrinks to per-order rev_c4 combiners BEFORE
    any exchange; the date-windowed (orderkey → custkey) map broadcasts
    when it fits ``DRIVER_FASTPATH_ROWS``, else a ``sized_join`` hash
    exchange carries order-grain rows only.  Customer hydration touches
    exactly the k winning keys (isin filter over the dimension read),
    and the 25-row nation table broadcasts.  Lineitem / customer never
    shuffle at fact grain."""
    lo = np.datetime64(from_iso, "us")
    hi = np.datetime64(to_iso, "us")

    def o_filter(batch: pa.Table) -> pa.Table:
        od = batch.column("o_orderdate").to_numpy(zero_copy_only=False)
        odu = od.astype("datetime64[us]")
        keep = (odu >= lo) & (odu < hi)
        m = pa.array(keep)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey").filter(m),
                "o_custkey": batch.column("o_custkey").filter(m),
            }
        )

    sel_orders = orders.select_columns(
        ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(o_filter, batch_format="pyarrow")

    def li_partial(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch.column("l_returnflag"), returnflag)
        sub = batch.filter(keep)
        okey = sub.column("l_orderkey").to_numpy(zero_copy_only=False)
        price_c = _cents(sub.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(sub.column("l_discount").to_numpy(zero_copy_only=False))
        rev_c4 = price_c * (100 - disc_pct)
        uk, inv = np.unique(okey, return_inverse=True)
        sums = np.zeros(len(uk), np.int64)
        np.add.at(sums, inv, rev_c4)
        return pa.table(
            {
                "l_orderkey": pa.array(uk, pa.int64()),
                "rev_c4": pa.array(sums),
            }
        )

    li = lineitem.select_columns(
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"]
    ).map_batches(li_partial, batch_format="pyarrow", batch_size=65536)

    from ..config import DRIVER_FASTPATH_ROWS

    n_orders = sel_orders.count()
    rev_by_cust: dict[int, int] = {}
    if n_orders <= DRIVER_FASTPATH_ROWS:
        # driver fastpath: date window keeps the order map small
        omap: dict[int, int] = {}
        for ref in sel_orders.materialize().to_arrow_refs():
            t = ray.get(ref)
            for ok, ck in zip(
                t.column("o_orderkey").to_pylist(), t.column("o_custkey").to_pylist()
            ):
                omap[ok] = ck
        for ref in li.materialize().to_arrow_refs():
            t = ray.get(ref)
            for ok, rc in zip(
                t.column("l_orderkey").to_pylist(), t.column("rev_c4").to_pylist()
            ):
                ck = omap.get(ok)
                if ck is not None:
                    rev_by_cust[ck] = rev_by_cust.get(ck, 0) + rc
    else:
        # distributed: order-grain revenue ⨝ order map → custkey combiner
        rev_ds = li.groupby("l_orderkey").sum("rev_c4")
        joined = sized_join(
            rev_ds,
            sel_orders.map_batches(
                lambda t: t.rename_columns(["l_orderkey", "o_custkey"]),
                batch_format="pyarrow",
            ),
            ("l_orderkey",),
        )

        def c_partial(batch: pa.Table) -> pa.Table:
            ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)
            rv = batch.column("sum(rev_c4)").to_numpy(zero_copy_only=False)
            uk, inv = np.unique(ck, return_inverse=True)
            sums = np.zeros(len(uk), np.int64)
            np.add.at(sums, inv, rv)
            return pa.table(
                {
                    "o_custkey": pa.array(uk, pa.int64()),
                    "rev_c4": pa.array(sums),
                }
            )

        per_cust = (
            joined.map_batches(c_partial, batch_format="pyarrow")
            .groupby("o_custkey")
            .sum("rev_c4")
        )
        for ref in per_cust.materialize().to_arrow_refs():
            t = ray.get(ref)
            if not len(t) or "o_custkey" not in t.column_names:
                continue  # zero-row empty-schema groupby block (Ray 2.49)
            for ck, rc in zip(
                t.column("o_custkey").to_pylist(), t.column("sum(rev_c4)").to_pylist()
            ):
                rev_by_cust[ck] = rev_by_cust.get(ck, 0) + rc

    top = sorted(rev_by_cust.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    win_keys = np.array(sorted(t[0] for t in top), np.int64)
    wk_ref = ray.put(win_keys)

    def c_hydrate(batch: pa.Table) -> pa.Table:
        ks = ray.get(wk_ref)
        ck = batch.column("c_custkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, ck)
        pos[pos == len(ks)] = 0
        keep = (ks[pos] == ck) if len(ks) else np.zeros(len(ck), bool)
        return batch.filter(pa.array(keep)).select(
            ["c_custkey", "c_name", "c_acctbal", "c_nationkey"]
        )

    cust_rows: dict[int, tuple] = {}
    hyd = customer.select_columns(
        ["c_custkey", "c_name", "c_acctbal", "c_nationkey"]
    ).map_batches(c_hydrate, batch_format="pyarrow")
    for ref in hyd.materialize().to_arrow_refs():
        t = ray.get(ref)
        for r in t.to_pylist():
            cust_rows[r["c_custkey"]] = (r["c_name"], r["c_acctbal"], r["c_nationkey"])

    nmap = {
        r["n_nationkey"]: r["n_name"]
        for ref in nation.select_columns(["n_nationkey", "n_name"]).materialize().to_arrow_refs()
        for r in ray.get(ref).to_pylist()
    }

    return pd.DataFrame(
        {
            "c_custkey": [ck for ck, _ in top],
            "c_name": [cust_rows[ck][0] for ck, _ in top],
            "revenue": [round(float(rc) / 10_000.0, 6) for _, rc in top],
            "c_acctbal": [round(float(cust_rows[ck][1]), 6) for ck, _ in top],
            "n_name": [nmap[cust_rows[ck][2]] for ck, _ in top],
        }
    )


def big_volume_orders(
    orders: rd.Dataset,
    lineitem: rd.Dataset,
    *,
    min_qty: int,
    k: int = 100,
) -> pd.DataFrame:
    """TPC-H Q18-shaped large-volume-order report: orders whose total
    lineitem quantity exceeds ``min_qty``, hydrated with the order
    attributes (c_custkey rides on orders; no customer-table scan is
    needed for the Q18 output columns).  → (c_custkey, o_orderkey, o_orderdate,
    total_price, sum_qty) ranked by (total_price desc, o_orderdate asc,
    o_orderkey asc), top ``k``.

    Quantities fold as exact integer centi-units (floor(q·100+0.5)), so
    the HAVING compares ints; ranking uses integer price cents.  Scale
    shape: lineitem → per-order qty combiners → ONE order-grain
    exchange; the survivor set (a tail of the distribution) is
    collected and orders are hydrated by a key-set filter — fact tables
    never shuffle at row grain."""
    thresh_c = int(min_qty) * 100

    def q_partial(batch: pa.Table) -> pa.Table:
        okey = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        qc = _cents(batch.column("l_quantity").to_numpy(zero_copy_only=False))
        uk, inv = np.unique(okey, return_inverse=True)
        sums = np.zeros(len(uk), np.int64)
        np.add.at(sums, inv, qc)
        return pa.table(
            {
                "l_orderkey": pa.array(uk, pa.int64()),
                "qty_c": pa.array(sums),
            }
        )

    partials = lineitem.select_columns(["l_orderkey", "l_quantity"]).map_batches(
        q_partial, batch_format="pyarrow", batch_size=65536
    )

    # gated dual path (the repo convention): below the gate the driver
    # folds the order-grain partials directly (lineitem clusters by
    # orderkey, so partial rows ≈ order count — a ~150k-key groupby
    # shuffle costs ~8 s here for nothing); above it the same partials
    # run through the keyed exchange
    from ..config import DRIVER_FASTPATH_ROWS

    big: dict[int, int] = {}
    if orders.count() <= DRIVER_FASTPATH_ROWS:
        acc: dict[int, int] = {}
        for ref in partials.materialize().to_arrow_refs():
            t = ray.get(ref)
            ok = t.column("l_orderkey").to_numpy(zero_copy_only=False)
            qc = t.column("qty_c").to_numpy(zero_copy_only=False)
            for a, b in zip(ok.tolist(), qc.tolist()):
                acc[a] = acc.get(a, 0) + b
        big = {a: b for a, b in acc.items() if b > thresh_c}
    else:
        per_order = partials.groupby("l_orderkey").sum("qty_c")
        for ref in per_order.materialize().to_arrow_refs():
            t = ray.get(ref)
            if not len(t) or "l_orderkey" not in t.column_names:
                continue
            ok = t.column("l_orderkey").to_numpy(zero_copy_only=False)
            qc = t.column("sum(qty_c)").to_numpy(zero_copy_only=False)
            keep = qc > thresh_c
            for a, b in zip(ok[keep], qc[keep]):
                big[int(a)] = int(b)

    ok_keys = np.array(sorted(big), np.int64)
    ok_ref = ray.put(ok_keys)

    def o_hydrate(batch: pa.Table) -> pa.Table:
        ks = ray.get(ok_ref)
        okv = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, okv)
        pos[pos == len(ks)] = 0
        keep = (ks[pos] == okv) if len(ks) else np.zeros(len(okv), bool)
        return batch.filter(pa.array(keep))

    orows = []
    for ref in (
        orders.select_columns(["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
        .map_batches(o_hydrate, batch_format="pyarrow")
        .materialize().to_arrow_refs()
    ):
        orows.extend(ray.get(ref).to_pylist())

    rows = [
        (
            int(r["o_custkey"]),
            int(r["o_orderkey"]),
            r["o_orderdate"],
            int(np.floor(r["o_totalprice"] * 100.0 + 0.5)),
            big[r["o_orderkey"]],
        )
        for r in orows
    ]
    rows.sort(key=lambda r: (-r[3], np.datetime64(r[2], "us").astype(np.int64), r[1]))
    rows = rows[:k]
    return pd.DataFrame(
        {
            "c_custkey": [r[0] for r in rows],
            "o_orderkey": [r[1] for r in rows],
            "o_orderdate": [r[2] for r in rows],
            "total_price": [round(float(r[3]) / 100.0, 6) for r in rows],
            "sum_qty": [round(float(r[4]) / 100.0, 6) for r in rows],
        }
    )


def small_quantity_revenue(
    lineitem: rd.Dataset,
    part: rd.Dataset,
    *,
    brand: str,
) -> pd.DataFrame:
    """TPC-H Q17-shaped lost-revenue probe: average yearly revenue that
    would be lost if small-quantity orders (quantity < 0.2 × the part's
    own average quantity) for parts of ``brand`` were no longer filled.
    → one row (avg_yearly).

    The correlated-average predicate is made exact-integer: q < 0.2 ·
    (Σq / n)  ⇔  5·q_c·n < Σq_c with q_c = floor(q·100+0.5), compared
    in arbitrary precision.  Scale shape: the brand's partkeys broadcast
    (single-brand dimension slice); pass 1 folds per-part (Σq_c, n)
    combiners — the exchange is ≤ |brand parts| × batches rows; pass 2
    is a stateless broadcast-predicate filter summing price cents."""
    pk_set: list[int] = []
    pfilt = part.select_columns(["p_partkey", "p_brand"]).map_batches(
        lambda t: t.filter(pc.equal(t.column("p_brand"), brand)).select(["p_partkey"]),
        batch_format="pyarrow",
    )
    for ref in pfilt.materialize().to_arrow_refs():
        pk_set.extend(ray.get(ref).column("p_partkey").to_pylist())
    pk_arr = np.array(sorted(pk_set), np.int64)
    pk_ref = ray.put(pk_arr)

    def qty_partial(batch: pa.Table) -> pa.Table:
        ks = ray.get(pk_ref)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, pk)
        pos[pos == len(ks)] = 0
        keep = (ks[pos] == pk) if len(ks) else np.zeros(len(pk), bool)
        sub = batch.filter(pa.array(keep))
        pkk = sub.column("l_partkey").to_numpy(zero_copy_only=False)
        qc = _cents(sub.column("l_quantity").to_numpy(zero_copy_only=False))
        uk, inv = np.unique(pkk, return_inverse=True)
        s = np.zeros(len(uk), np.int64)
        n = np.zeros(len(uk), np.int64)
        np.add.at(s, inv, qc)
        np.add.at(n, inv, 1)
        return pa.table(
            {
                "l_partkey": pa.array(uk, pa.int64()),
                "sum_qc": pa.array(s),
                "n": pa.array(n),
            }
        )

    li_cols = lineitem.select_columns(["l_partkey", "l_quantity", "l_extendedprice"])
    stats: dict[int, tuple[int, int]] = {}
    for ref in (
        li_cols.select_columns(["l_partkey", "l_quantity"])
        .map_batches(qty_partial, batch_format="pyarrow", batch_size=65536)
        .materialize().to_arrow_refs()
    ):
        t = ray.get(ref)
        for r in t.to_pylist():
            s0, n0 = stats.get(r["l_partkey"], (0, 0))
            stats[r["l_partkey"]] = (s0 + r["sum_qc"], n0 + r["n"])

    # brand-parts-sized broadcast model: partkey → (Σq_c, n)
    mk = np.array(sorted(stats), np.int64)
    ms = np.array([stats[x][0] for x in mk], np.int64)
    mn = np.array([stats[x][1] for x in mk], np.int64)
    model_ref = ray.put((mk, ms, mn))

    def rev_partial(batch: pa.Table) -> pa.Table:
        kk, ss, nn = ray.get(model_ref)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(kk, pk)
        pos[pos == len(kk)] = 0
        hit = (kk[pos] == pk) if len(kk) else np.zeros(len(pk), bool)
        qc = _cents(batch.column("l_quantity").to_numpy(zero_copy_only=False))
        # 5·q_c·n < Σq_c — int64 is ample: q_c ≤ 5000, n ≤ 10^7 at 100 TB
        small = hit & (5 * qc * np.where(hit, nn[pos], 0) < np.where(hit, ss[pos], 1))
        price_c = _cents(batch.column("l_extendedprice").to_numpy(zero_copy_only=False))
        tot = int(price_c[small].sum())
        return pa.table({"rev_c": pa.array([tot], pa.int64())})

    total_c = 0
    for ref in li_cols.map_batches(
        rev_partial, batch_format="pyarrow", batch_size=65536
    ).materialize().to_arrow_refs():
        t = ray.get(ref)
        total_c += int(np.sum(t.column("rev_c").to_numpy(zero_copy_only=False)))

    return pd.DataFrame({"avg_yearly": [round(total_c / 100.0 / 7.0, 6)]})


def bracket_revenue(
    lineitem: rd.Dataset,
    part: rd.Dataset,
    *,
    brackets: list[tuple[str, int, int, int, int]],
) -> pd.DataFrame:
    """TPC-H Q19-shaped disjunctive-bracket revenue: Σ price·(1−disc)
    over lineitems matching ANY (brand, qty∈[qmin,qmax],
    size∈[smin,smax]) bracket.  → one row (revenue).

    Scale shape: the part dimension collapses to a partkey → bracket-
    mask broadcast (each part pre-evaluates its size/brand half of each
    bracket); the lineitem pass is a stateless vectorized filter with
    per-batch scalar partials — no shuffle at all."""
    # part side: per partkey, the bitmask of brackets whose brand+size
    # half it satisfies
    def p_mask(batch: pa.Table) -> pa.Table:
        pk = batch.column("p_partkey").to_numpy(zero_copy_only=False)
        pb = batch.column("p_brand").to_pandas().to_numpy()
        ps = batch.column("p_size").to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.zeros(len(pk), np.int64)
        for i, (brand, _q0, _q1, s0, s1) in enumerate(brackets):
            mask |= ((pb == brand) & (ps >= s0) & (ps <= s1)).astype(np.int64) << i
        keep = mask > 0
        return pa.table(
            {
                "p_partkey": pa.array(pk[keep], pa.int64()),
                "mask": pa.array(mask[keep]),
            }
        )

    pks: list[int] = []
    msks: list[int] = []
    for ref in (
        part.select_columns(["p_partkey", "p_brand", "p_size"])
        .map_batches(p_mask, batch_format="pyarrow")
        .materialize().to_arrow_refs()
    ):
        t = ray.get(ref)
        pks.extend(t.column("p_partkey").to_pylist())
        msks.extend(t.column("mask").to_pylist())
    order = np.argsort(np.array(pks, np.int64), kind="stable")
    pk_arr = np.array(pks, np.int64)[order]
    mask_arr = np.array(msks, np.int64)[order]
    q0 = np.array([b[1] for b in brackets], np.int64) * 100
    q1 = np.array([b[2] for b in brackets], np.int64) * 100
    model_ref = ray.put((pk_arr, mask_arr, q0, q1))

    def li_partial(batch: pa.Table) -> pa.Table:
        kk, mm, lo, hi = ray.get(model_ref)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(kk, pk)
        pos[pos == len(kk)] = 0
        hit = (kk[pos] == pk) if len(kk) else np.zeros(len(pk), bool)
        qc = _cents(batch.column("l_quantity").to_numpy(zero_copy_only=False))
        match = np.zeros(len(pk), bool)
        pm = np.where(hit, mm[pos], 0)
        for i in range(len(lo)):
            match |= (pm >> i & 1).astype(bool) & (qc >= lo[i]) & (qc <= hi[i])
        price_c = _cents(batch.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(batch.column("l_discount").to_numpy(zero_copy_only=False))
        rev = price_c[match] * (100 - disc_pct[match])
        return pa.table({"rev_c4": pa.array([int(rev.sum())], pa.int64())})

    total = 0
    for ref in (
        lineitem.select_columns(
            ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"]
        )
        .map_batches(li_partial, batch_format="pyarrow", batch_size=65536)
        .materialize().to_arrow_refs()
    ):
        total += int(
            np.sum(ray.get(ref).column("rev_c4").to_numpy(zero_copy_only=False))
        )
    return pd.DataFrame({"revenue": [round(total / 10_000.0, 6)]})


def promo_revenue_share(
    lineitem: rd.Dataset,
    part: rd.Dataset,
    *,
    promo_type: str,
    from_iso: str,
    to_iso: str,
) -> pd.DataFrame:
    """TPC-H Q14-shaped promotion share: 100 × promo discounted revenue
    / total discounted revenue over lineitems shipped in ``[from, to)``.
    → one row (promo_revenue).

    Scale shape: partkey → is-promo flag broadcasts (dimension bitmap);
    one stateless lineitem pass keeps two integer scalar partials per
    batch.  Both numerator and denominator are exact cent·pct ints, so
    the final division is the only float op."""
    lo = np.datetime64(from_iso, "us")
    hi = np.datetime64(to_iso, "us")

    pks: list[int] = []
    for ref in (
        part.select_columns(["p_partkey", "p_type"])
        .map_batches(
            lambda t: t.filter(pc.equal(t.column("p_type"), promo_type)).select(
                ["p_partkey"]
            ),
            batch_format="pyarrow",
        )
        .materialize().to_arrow_refs()
    ):
        pks.extend(ray.get(ref).column("p_partkey").to_pylist())
    promo_ref = ray.put(np.array(sorted(pks), np.int64))

    def li_partial(batch: pa.Table) -> pa.Table:
        ks = ray.get(promo_ref)
        ship = batch.column("l_shipdate").to_numpy(zero_copy_only=False)
        su = ship.astype("datetime64[us]")
        sub = batch.filter(pa.array((su >= lo) & (su < hi)))
        pk = sub.column("l_partkey").to_numpy(zero_copy_only=False)
        price_c = _cents(sub.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(sub.column("l_discount").to_numpy(zero_copy_only=False))
        rev = price_c * (100 - disc_pct)
        pos = np.searchsorted(ks, pk)
        pos[pos == len(ks)] = 0
        promo = (ks[pos] == pk) if len(ks) else np.zeros(len(pk), bool)
        return pa.table(
            {
                "promo_c4": pa.array([int(rev[promo].sum())], pa.int64()),
                "total_c4": pa.array([int(rev.sum())], pa.int64()),
            }
        )

    pnum = 0
    pden = 0
    for ref in (
        lineitem.select_columns(
            ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"]
        )
        .map_batches(li_partial, batch_format="pyarrow", batch_size=65536)
        .materialize().to_arrow_refs()
    ):
        t = ray.get(ref)
        pnum += int(np.sum(t.column("promo_c4").to_numpy(zero_copy_only=False)))
        pden += int(np.sum(t.column("total_c4").to_numpy(zero_copy_only=False)))
    share = 100.0 * pnum / pden if pden else 0.0
    return pd.DataFrame({"promo_revenue": [round(share, 6)]})


def supplier_variety(
    lineitem: rd.Dataset,
    part: rd.Dataset,
    supplier: rd.Dataset,
    *,
    exclude_brand: str,
    sizes: tuple[int, ...],
) -> pd.DataFrame:
    """TPC-H Q16-shaped supplier-variety census: distinct suppliers per
    (p_brand, p_type, p_size) over the observed part–supplier relation
    (distinct lineitem pairs), excluding ``exclude_brand`` parts and
    suppliers with negative balance (the complaint-set analog).
    → (p_brand, p_type, p_size, supplier_cnt) ranked by (cnt desc,
    brand, type, size).

    Scale shape: per-batch distinct-(partkey,suppkey) combiners shrink
    the fact table to the partsupp relation BEFORE one composite-key
    exchange; the part dimension (brand/type/size) and the excluded
    supplier keys broadcast; the final distinct count runs over
    group-grain rows only."""
    # excluded suppliers (dimension-sized)
    bad: list[int] = []
    for ref in (
        supplier.select_columns(["s_suppkey", "s_acctbal"])
        .map_batches(
            lambda t: t.filter(pc.less(t.column("s_acctbal"), 0.0)).select(
                ["s_suppkey"]
            ),
            batch_format="pyarrow",
        )
        .materialize().to_arrow_refs()
    ):
        bad.extend(ray.get(ref).column("s_suppkey").to_pylist())
    bad_ref = ray.put(np.array(sorted(bad), np.int64))

    # part dimension slice: partkey → (brand, type, size), pre-filtered
    pk_l: list[int] = []
    dims: list[tuple[str, str, int]] = []
    szs = set(int(s) for s in sizes)
    for ref in (
        part.select_columns(["p_partkey", "p_brand", "p_type", "p_size"])
        .materialize().to_arrow_refs()
    ):
        for r in ray.get(ref).to_pylist():
            if r["p_brand"] != exclude_brand and int(r["p_size"]) in szs:
                pk_l.append(r["p_partkey"])
                dims.append((r["p_brand"], r["p_type"], int(r["p_size"])))
    order = np.argsort(np.array(pk_l, np.int64), kind="stable")
    pk_arr = np.array(pk_l, np.int64)[order]
    dims = [dims[i] for i in order]
    groups = sorted(set(dims))
    gmap = {g: i for i, g in enumerate(groups)}
    gid_arr = np.array([gmap[d] for d in dims], np.int64)
    pk_ref = ray.put(pk_arr)

    def pair_partial(batch: pa.Table) -> pa.Table:
        ks = ray.get(pk_ref)
        excl = ray.get(bad_ref)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ks, pk)
        pos[pos == len(ks)] = 0
        keep = (ks[pos] == pk) if len(ks) else np.zeros(len(pk), bool)
        if len(excl):
            bp = np.searchsorted(excl, sk)
            bp[bp == len(excl)] = 0
            keep &= ~(excl[bp] == sk)
        pk, sk = pk[keep], sk[keep]
        # composite pair key; fail loud instead of silently aliasing
        # once suppkey outgrows the 20-bit packing (TPC-H sf≳100)
        if sk.size and int(sk.max()) >= (1 << 20):
            raise ValueError(
                "l_suppkey >= 2^20 overflows the packed pair key — widen "
                "to a two-column (l_partkey, l_suppkey) groupby here"
            )
        pair = np.unique(pk * (1 << 20) + sk)
        return pa.table({"pair": pa.array(pair, pa.int64())})

    pair_partials = lineitem.select_columns(["l_partkey", "l_suppkey"]).map_batches(
        pair_partial, batch_format="pyarrow", batch_size=65536
    )

    # second distinct: (group, suppkey) — a same-group supplier serving
    # two parts must count once.
    def _gs_from_pairs(pv: np.ndarray) -> np.ndarray:
        pk = pv >> 20
        sk = pv & ((1 << 20) - 1)
        pos = np.searchsorted(pk_arr, pk)
        pos[pos == len(pk_arr)] = 0
        hit = (pk_arr[pos] == pk) if len(pk_arr) else np.zeros(len(pk), bool)
        return np.unique(gid_arr[pos[hit]] * (1 << 20) + sk[hit])

    # gated dual path (repo convention): the pair table is the observed
    # partsupp relation — below the gate the driver unions the per-batch
    # distinct-pair partials directly (two ~200k-key groupby shuffles
    # cost ~4 s at sf0.1 for nothing); above it the same partials run
    # through the two keyed exchanges.
    from ..config import DRIVER_FASTPATH_ROWS

    per_group = np.zeros(len(groups), np.int64)
    if lineitem.count() <= DRIVER_FASTPATH_ROWS:
        chunks: list[np.ndarray] = []
        for ref in pair_partials.materialize().to_arrow_refs():
            t = ray.get(ref)
            if len(t):
                chunks.append(t.column("pair").to_numpy(zero_copy_only=False))
        pv = np.unique(np.concatenate(chunks)) if chunks else np.empty(0, np.int64)
        gs = _gs_from_pairs(pv)
        if gs.size:
            per_group += np.bincount(gs >> 20, minlength=len(groups))
    else:
        pairs = pair_partials.groupby("pair").count()

        def gs_partial(batch: pa.Table) -> pa.Table:
            pv = batch.column("pair").to_numpy(zero_copy_only=False)
            return pa.table({"gs": pa.array(_gs_from_pairs(pv), pa.int64())})

        gs_ds = pairs.map_batches(
            gs_partial, batch_format="pyarrow"
        ).groupby("gs").count()

        for ref in gs_ds.materialize().to_arrow_refs():
            t = ray.get(ref)
            if not len(t) or "gs" not in t.column_names:
                continue
            g = t.column("gs").to_numpy(zero_copy_only=False) >> 20
            per_group += np.bincount(g, minlength=len(groups))

    rows = sorted(
        ((groups[i][0], groups[i][1], groups[i][2], int(c))
         for i, c in enumerate(per_group) if c),
        key=lambda r: (-r[3], r[0], r[1], r[2]),
    )
    return pd.DataFrame(
        {
            "p_brand": [r[0] for r in rows],
            "p_type": [r[1] for r in rows],
            "p_size": [r[2] for r in rows],
            "supplier_cnt": [r[3] for r in rows],
        }
    )


def cube_pricing(lineitem: rd.Dataset) -> pd.DataFrame:
    """GROUP BY CUBE (l_returnflag, l_linestatus): all FOUR grouping
    sets — detail, per-flag, per-status, grand total — with the same
    integer-cents exactness and ``'ALL'`` markers as
    :func:`rollup_pricing` (which covers the rollup lattice only).

    → (l_returnflag, l_linestatus, sum_qty, sum_base_price, count_order)

    Scale shape: identical to the rollup — ONE scan builds the finest
    grouping set via per-batch combiners; all three coarser sets are
    exact integer folds of the ≤6-row detail on the driver."""

    def partial(batch: pa.Table) -> pa.Table:
        flag = batch.column("l_returnflag").to_pandas().to_numpy()
        stat = batch.column("l_linestatus").to_pandas().to_numpy()
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        price_c = _cents(batch.column("l_extendedprice").to_numpy(zero_copy_only=False))
        keys = pd.MultiIndex.from_arrays([flag, stat])
        df = pd.DataFrame(
            {
                "sum_qty": qty.astype(np.int64),
                "sum_base_c": price_c,
                "n": np.ones(len(qty), np.int64),
            },
            index=keys,
        )
        agg = df.groupby(level=[0, 1], sort=False).sum()
        return pa.table(
            {
                "l_returnflag": pa.array([k[0] for k in agg.index], pa.string()),
                "l_linestatus": pa.array([k[1] for k in agg.index], pa.string()),
                **{c: pa.array(agg[c].to_numpy(), pa.int64()) for c in agg.columns},
            }
        )

    partials = lineitem.select_columns(
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"]
    ).map_batches(partial, batch_format="pyarrow", batch_size=16384)

    acc: dict[tuple[str, str], list[int]] = {}
    for ref in partials.materialize().to_arrow_refs():
        t = ray.get(ref)
        d = t.to_pydict()
        for i in range(len(t)):
            key = (d["l_returnflag"][i], d["l_linestatus"][i])
            row = acc.setdefault(key, [0, 0, 0])
            row[0] += d["sum_qty"][i]
            row[1] += d["sum_base_c"][i]
            row[2] += d["n"][i]

    by_flag: dict[str, list[int]] = {}
    by_stat: dict[str, list[int]] = {}
    total = [0, 0, 0]
    for (flag, stat), row in acc.items():
        frow = by_flag.setdefault(flag, [0, 0, 0])
        srow = by_stat.setdefault(stat, [0, 0, 0])
        for j in range(3):
            frow[j] += row[j]
            srow[j] += row[j]
            total[j] += row[j]

    def emit(flag: str, stat: str, row: list[int]) -> dict:
        return {
            "l_returnflag": flag,
            "l_linestatus": stat,
            "sum_qty": row[0],
            "sum_base_price": round(float(row[1]) / 100.0, 6),
            "count_order": row[2],
        }

    rows = [emit(f, s, acc[(f, s)]) for (f, s) in sorted(acc)]
    rows += [emit(f, "ALL", by_flag[f]) for f in sorted(by_flag)]
    rows += [emit("ALL", s, by_stat[s]) for s in sorted(by_stat)]
    rows.append(emit("ALL", "ALL", total))
    return pd.DataFrame(rows)


def nation_trade_volume(
    customer: rd.Dataset,
    orders: rd.Dataset,
    lineitem: rd.Dataset,
    supplier: rd.Dataset,
    nation: rd.Dataset,
    *,
    nation_a: str,
    nation_b: str,
    from_iso: str,
    to_iso: str,
) -> pd.DataFrame:
    """TPC-H Q7-shaped bilateral trade volume: revenue shipped between
    ``nation_a`` suppliers and ``nation_b`` customers (and vice versa)
    per ship-year over ``[from, to)``.
    → (supp_nation, cust_nation, l_year, revenue) sorted by the three
    keys.

    Scale shape: supplier (suppkey → nation flag) and the 25-row nation
    table broadcast; the customer-key slice for the two nations
    broadcasts into an orders filter, producing an (orderkey →
    cust-nation) map that broadcasts below ``DRIVER_FASTPATH_ROWS`` and
    hash-joins (``sized_join``) above it.  Lineitem folds per-batch
    (year, pair) integer-cent partials — the final exchange is
    2 pairs × years-sized."""
    lo = np.datetime64(from_iso, "us")
    hi = np.datetime64(to_iso, "us")

    nmap = {
        r["n_name"]: r["n_nationkey"]
        for ref in nation.select_columns(["n_nationkey", "n_name"]).materialize().to_arrow_refs()
        for r in ray.get(ref).to_pylist()
    }
    nk_a, nk_b = nmap[nation_a], nmap[nation_b]

    # suppkey → 0 (nation_a) / 1 (nation_b); suppliers elsewhere dropped
    sk_l: list[int] = []
    sn_l: list[int] = []
    for ref in supplier.select_columns(["s_suppkey", "s_nationkey"]).materialize().to_arrow_refs():
        for r in ray.get(ref).to_pylist():
            if r["s_nationkey"] == nk_a:
                sk_l.append(r["s_suppkey"]); sn_l.append(0)
            elif r["s_nationkey"] == nk_b:
                sk_l.append(r["s_suppkey"]); sn_l.append(1)
    s_order = np.argsort(np.array(sk_l, np.int64), kind="stable")
    sk_arr = np.array(sk_l, np.int64)[s_order]
    sn_arr = np.array(sn_l, np.int64)[s_order]
    supp_ref = ray.put((sk_arr, sn_arr))

    # custkey slice for the two nations → orders filter → orderkey map
    ck_l: list[int] = []
    cn_l: list[int] = []
    for ref in customer.select_columns(["c_custkey", "c_nationkey"]).materialize().to_arrow_refs():
        for r in ray.get(ref).to_pylist():
            if r["c_nationkey"] == nk_a:
                ck_l.append(r["c_custkey"]); cn_l.append(0)
            elif r["c_nationkey"] == nk_b:
                ck_l.append(r["c_custkey"]); cn_l.append(1)
    c_order = np.argsort(np.array(ck_l, np.int64), kind="stable")
    ck_arr = np.array(ck_l, np.int64)[c_order]
    cn_arr = np.array(cn_l, np.int64)[c_order]
    cust_ref = ray.put((ck_arr, cn_arr))

    def o_map(batch: pa.Table) -> pa.Table:
        ck, cn = ray.get(cust_ref)
        keys = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ck, keys)
        pos[pos == len(ck)] = 0
        keep = (ck[pos] == keys) if len(ck) else np.zeros(len(keys), bool)
        return pa.table(
            {
                "o_orderkey": pa.array(
                    batch.column("o_orderkey").to_numpy(zero_copy_only=False)[keep],
                    pa.int64(),
                ),
                "cnat": pa.array(cn[pos[keep]], pa.int64()),
            }
        )

    sel_orders = orders.select_columns(["o_orderkey", "o_custkey"]).map_batches(
        o_map, batch_format="pyarrow"
    )

    def li_partial(omap_ref):
        def fn(batch: pa.Table) -> pa.Table:
            sk, sn = ray.get(supp_ref)
            ok_arr, oc_arr = ray.get(omap_ref)
            ship = batch.column("l_shipdate").to_numpy(zero_copy_only=False)
            su = ship.astype("datetime64[us]")
            win = (su >= lo) & (su < hi)
            skey = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
            spos = np.searchsorted(sk, skey)
            spos[spos == len(sk)] = 0
            shit = (sk[spos] == skey) if len(sk) else np.zeros(len(skey), bool)
            okey = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
            opos = np.searchsorted(ok_arr, okey)
            opos[opos == len(ok_arr)] = 0
            ohit = (ok_arr[opos] == okey) if len(ok_arr) else np.zeros(len(okey), bool)
            keep = win & shit & ohit
            if not keep.any():
                return pa.table(
                    {
                        "snat": pa.array([], pa.int64()),
                        "cnat": pa.array([], pa.int64()),
                        "l_year": pa.array([], pa.int64()),
                        "rev_c4": pa.array([], pa.int64()),
                    }
                )
            snat = sn[spos[keep]]
            cnat = oc_arr[opos[keep]]
            cross = snat != cnat  # (a→b) or (b→a) only
            sub = batch.filter(pa.array(keep))
            year = (
                su[keep].astype("datetime64[Y]").astype(np.int64) + 1970
            )
            price_c = _cents(sub.column("l_extendedprice").to_numpy(zero_copy_only=False))
            disc_pct = _cents(sub.column("l_discount").to_numpy(zero_copy_only=False))
            rev = price_c * (100 - disc_pct)
            snat, cnat, year, rev = snat[cross], cnat[cross], year[cross], rev[cross]
            key = snat * (1 << 32) + cnat * (1 << 16) + (year - 1970)
            uk, inv = np.unique(key, return_inverse=True)
            sums = np.zeros(len(uk), np.int64)
            np.add.at(sums, inv, rev)
            return pa.table(
                {
                    "snat": pa.array(uk >> 32, pa.int64()),
                    "cnat": pa.array((uk >> 16) & 0xFFFF, pa.int64()),
                    "l_year": pa.array((uk & 0xFFFF) + 1970, pa.int64()),
                    "rev_c4": pa.array(sums),
                }
            )

        return fn


    from ..config import DRIVER_FASTPATH_ROWS

    n_sel = sel_orders.count()
    acc: dict[tuple[int, int, int], int] = {}
    li_cols = lineitem.select_columns(
        ["l_orderkey", "l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"]
    )
    if n_sel <= DRIVER_FASTPATH_ROWS:
        ok_l: list[int] = []
        oc_l: list[int] = []
        for ref in sel_orders.materialize().to_arrow_refs():
            t = ray.get(ref)
            ok_l.extend(t.column("o_orderkey").to_pylist())
            oc_l.extend(t.column("cnat").to_pylist())
        o_order = np.argsort(np.array(ok_l, np.int64), kind="stable")
        omap_ref = ray.put(
            (np.array(ok_l, np.int64)[o_order], np.array(oc_l, np.int64)[o_order])
        )
        for ref in li_cols.map_batches(
            li_partial(omap_ref), batch_format="pyarrow", batch_size=65536
        ).materialize().to_arrow_refs():
            t = ray.get(ref)
            for r in t.to_pylist():
                k = (r["snat"], r["cnat"], r["l_year"])
                acc[k] = acc.get(k, 0) + r["rev_c4"]
    else:
        # distributed: per-order revenue+year+snat partials hash-join
        # the (orderkey → cnat) map, then a pair×year-grain fold
        def li_order_partial(batch: pa.Table) -> pa.Table:
            sk, sn = ray.get(supp_ref)
            ship = batch.column("l_shipdate").to_numpy(zero_copy_only=False)
            su = ship.astype("datetime64[us]")
            win = (su >= lo) & (su < hi)
            skey = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
            spos = np.searchsorted(sk, skey)
            spos[spos == len(sk)] = 0
            shit = (sk[spos] == skey) if len(sk) else np.zeros(len(skey), bool)
            keep = win & shit
            sub = batch.filter(pa.array(keep))
            year = su[keep].astype("datetime64[Y]").astype(np.int64) + 1970
            price_c = _cents(sub.column("l_extendedprice").to_numpy(zero_copy_only=False))
            disc_pct = _cents(sub.column("l_discount").to_numpy(zero_copy_only=False))
            rev = price_c * (100 - disc_pct)
            okey = sub.column("l_orderkey").to_numpy(zero_copy_only=False)
            key = okey * 4 * (1 << 16) + sn[spos[keep]] * (1 << 16) + (year - 1970)
            uk, inv = np.unique(key, return_inverse=True)
            sums = np.zeros(len(uk), np.int64)
            np.add.at(sums, inv, rev)
            return pa.table(
                {
                    "o_orderkey": pa.array(uk // (4 * (1 << 16)), pa.int64()),
                    "snat": pa.array((uk >> 16) & 3, pa.int64()),
                    "l_year": pa.array((uk & 0xFFFF) + 1970, pa.int64()),
                    "rev_c4": pa.array(sums),
                }
            )

        per_order = li_cols.map_batches(
            li_order_partial, batch_format="pyarrow", batch_size=65536
        )
        joined = sized_join(per_order, sel_orders, ("o_orderkey",))
        for ref in joined.materialize().to_arrow_refs():
            t = ray.get(ref)
            if not len(t) or "snat" not in t.column_names:
                continue
            for r in t.to_pylist():
                if r["snat"] == r["cnat"]:
                    continue
                k = (r["snat"], r["cnat"], r["l_year"])
                acc[k] = acc.get(k, 0) + r["rev_c4"]

    names = {0: nation_a, 1: nation_b}
    rows = sorted(acc.items())
    return pd.DataFrame(
        {
            "supp_nation": [names[k[0]] for k, _ in rows],
            "cust_nation": [names[k[1]] for k, _ in rows],
            "l_year": [k[2] for k, _ in rows],
            "revenue": [round(float(v) / 10_000.0, 6) for _, v in rows],
        }
    )


def top_supplier(
    lineitem: rd.Dataset,
    supplier: rd.Dataset,
    *,
    from_iso: str,
    to_iso: str,
) -> pd.DataFrame:
    """TPC-H Q15-shaped top supplier: the supplier(s) with the maximum
    revenue (Σ price·(1−disc), exact integer cent·pct) over lineitems
    shipped in ``[from, to)`` — ties all returned (the view/MAX
    semantics).  → (s_suppkey, s_name, total_revenue) sorted by key.

    Scale shape: per-batch suppkey combiners → ONE supplier-grain
    exchange; the max + tie filter folds over supplier-grain rows; only
    winner keys hydrate the supplier dimension."""
    lo = np.datetime64(from_iso, "us")
    hi = np.datetime64(to_iso, "us")

    def partial(batch: pa.Table) -> pa.Table:
        ship = batch.column("l_shipdate").to_numpy(zero_copy_only=False)
        su = ship.astype("datetime64[us]")
        sub = batch.filter(pa.array((su >= lo) & (su < hi)))
        sk = sub.column("l_suppkey").to_numpy(zero_copy_only=False)
        price_c = _cents(sub.column("l_extendedprice").to_numpy(zero_copy_only=False))
        disc_pct = _cents(sub.column("l_discount").to_numpy(zero_copy_only=False))
        rev = price_c * (100 - disc_pct)
        uk, inv = np.unique(sk, return_inverse=True)
        sums = np.zeros(len(uk), np.int64)
        np.add.at(sums, inv, rev)
        return pa.table(
            {"l_suppkey": pa.array(uk, pa.int64()), "rev_c4": pa.array(sums)}
        )

    per_supp = (
        lineitem.select_columns(
            ["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"]
        )
        .map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("l_suppkey")
        .sum("rev_c4")
    )

    rev: dict[int, int] = {}
    for ref in per_supp.materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t) or "l_suppkey" not in t.column_names:
            continue
        for k, v in zip(
            t.column("l_suppkey").to_pylist(), t.column("sum(rev_c4)").to_pylist()
        ):
            rev[k] = rev.get(k, 0) + v
    if not rev:
        return pd.DataFrame({"s_suppkey": [], "s_name": [], "total_revenue": []})
    best = max(rev.values())
    winners = sorted(k for k, v in rev.items() if v == best)

    smap = {
        r["s_suppkey"]: r["s_name"]
        for ref in supplier.select_columns(["s_suppkey", "s_name"]).materialize().to_arrow_refs()
        for r in ray.get(ref).to_pylist()
    }
    return pd.DataFrame(
        {
            "s_suppkey": winners,
            "s_name": [smap[k] for k in winners],
            "total_revenue": [round(float(best) / 10_000.0, 6)] * len(winners),
        }
    )


def market_share(
    customer: rd.Dataset,
    orders: rd.Dataset,
    lineitem: rd.Dataset,
    supplier: rd.Dataset,
    nation: rd.Dataset,
    region: rd.Dataset,
    part: rd.Dataset,
    *,
    target_nation: str,
    region_name: str,
    part_type: str,
    from_iso: str,
    to_iso: str,
) -> pd.DataFrame:
    """TPC-H Q8-shaped market share: per order-year, the share of
    ``part_type`` revenue (into ``region_name`` customers' orders)
    supplied by ``target_nation``.  → (o_year, mkt_share).

    Scale shape: part (type slice), supplier (nation flag) and the
    region's customer keys broadcast as dimension lookups; the filtered
    (orderkey → order-year) map broadcasts under
    ``DRIVER_FASTPATH_ROWS`` and hash-joins above it; lineitem folds
    per-batch (year → total, target) integer-cent partials — the final
    exchange is years-sized.  Both sums are exact ints; the share is
    one rounded division per year."""
    lo = np.datetime64(from_iso, "us")
    hi = np.datetime64(to_iso, "us")

    nmap = {
        r["n_nationkey"]: (r["n_name"], r["n_regionkey"])
        for ref in nation.select_columns(
            ["n_nationkey", "n_name", "n_regionkey"]
        ).materialize().to_arrow_refs()
        for r in ray.get(ref).to_pylist()
    }
    rmap = {
        r["r_name"]: r["r_regionkey"]
        for ref in region.select_columns(["r_regionkey", "r_name"]).materialize().to_arrow_refs()
        for r in ray.get(ref).to_pylist()
    }
    region_key = rmap[region_name]
    region_nations = {k for k, (_, rk) in nmap.items() if rk == region_key}
    target_key = next(k for k, (nm, _) in nmap.items() if nm == target_nation)

    # part dimension slice
    pks: list[int] = []
    for ref in (
        part.select_columns(["p_partkey", "p_type"])
        .map_batches(
            lambda t: t.filter(pc.equal(t.column("p_type"), part_type)).select(
                ["p_partkey"]
            ),
            batch_format="pyarrow",
        )
        .materialize().to_arrow_refs()
    ):
        pks.extend(ray.get(ref).column("p_partkey").to_pylist())
    pk_ref = ray.put(np.array(sorted(pks), np.int64))

    # supplier → is-target-nation flag (smallest TPC-H dimension after
    # nation/region — broadcast by construction; vectorized per block)
    sk_parts: list[np.ndarray] = []
    for ref in supplier.select_columns(["s_suppkey", "s_nationkey"]).materialize().to_arrow_refs():
        t = ray.get(ref)
        sk = t.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        nk = t.column("s_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
        sk_parts.append(sk[nk == target_key])
    sk_ref = ray.put(np.sort(np.concatenate(sk_parts)) if sk_parts else np.empty(0, np.int64))

    # region customers → orders filter → (orderkey → order-year) rows.
    # customer is the SECOND-largest dimension: its keyset broadcasts
    # only below DRIVER_FASTPATH_ROWS; above it the region flag rides a
    # sized hash join against the date-windowed orders instead.
    from ..config import DRIVER_FASTPATH_ROWS

    region_nat_arr = np.sort(np.fromiter(region_nations, np.int64, len(region_nations)))

    def ck_filter(batch: pa.Table) -> pa.Table:
        ck = batch.column("c_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        nk = batch.column("c_nationkey").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.isin(nk, region_nat_arr)
        return pa.table({"o_custkey": pa.array(ck[keep], pa.int64())})

    region_cust = customer.select_columns(["c_custkey", "c_nationkey"]).map_batches(
        ck_filter, batch_format="pyarrow"
    )

    def o_window(batch: pa.Table, ck: "np.ndarray | None") -> pa.Table:
        """Date-window + year derivation; with a broadcast keyset also
        applies the region-customer membership filter."""
        keys = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        odu = batch.column("o_orderdate").to_numpy(zero_copy_only=False).astype(
            "datetime64[us]"
        )
        keep = (odu >= lo) & (odu < hi)
        if ck is not None:
            pos = np.searchsorted(ck, keys)
            pos[pos == len(ck)] = 0
            keep &= (ck[pos] == keys) if len(ck) else np.zeros(len(keys), bool)
        year = odu[keep].astype("datetime64[Y]").astype(np.int64) + 1970
        out = {
            "o_orderkey": pa.array(
                batch.column("o_orderkey").to_numpy(zero_copy_only=False)[keep],
                pa.int64(),
            ),
            "o_year": pa.array(year, pa.int64()),
        }
        if ck is None:  # keep the join key for the distributed path
            out["o_custkey"] = pa.array(keys[keep].astype(np.int64), pa.int64())
        return pa.table(out)

    if customer.count() <= DRIVER_FASTPATH_ROWS:
        ck_parts = [
            ray.get(r).column("o_custkey").to_numpy(zero_copy_only=False)
            for r in region_cust.materialize().to_arrow_refs()
        ]
        ck_arr = np.sort(np.concatenate(ck_parts)) if ck_parts else np.empty(0, np.int64)
        ck_ref = ray.put(ck_arr)

        def o_map(batch: pa.Table) -> pa.Table:
            return o_window(batch, ray.get(ck_ref))

        sel_orders = orders.select_columns(
            ["o_orderkey", "o_custkey", "o_orderdate"]
        ).map_batches(o_map, batch_format="pyarrow")
    else:
        windowed = orders.select_columns(
            ["o_orderkey", "o_custkey", "o_orderdate"]
        ).map_batches(lambda b: o_window(b, None), batch_format="pyarrow")
        # materialized: two chained Dataset.join topologies deadlock on
        # aggregator CPU reservations in small clusters (NOTES.md), and
        # the window-sized intermediate feeds both count() and the
        # second join below
        sel_orders = sized_join(
            windowed, region_cust, ("o_custkey",)
        ).select_columns(["o_orderkey", "o_year"]).materialize()

    def li_year_partial(omap_ref):
        def fn(batch: pa.Table) -> pa.Table:
            pk_s = ray.get(pk_ref)
            sk_s = ray.get(sk_ref)
            ok_arr, oy_arr = ray.get(omap_ref)
            pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
            ppos = np.searchsorted(pk_s, pk)
            ppos[ppos == len(pk_s)] = 0
            phit = (pk_s[ppos] == pk) if len(pk_s) else np.zeros(len(pk), bool)
            okey = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
            opos = np.searchsorted(ok_arr, okey)
            opos[opos == len(ok_arr)] = 0
            ohit = (ok_arr[opos] == okey) if len(ok_arr) else np.zeros(len(okey), bool)
            keep = phit & ohit
            if not keep.any():
                return pa.table(
                    {
                        "o_year": pa.array([], pa.int64()),
                        "total_c4": pa.array([], pa.int64()),
                        "nat_c4": pa.array([], pa.int64()),
                    }
                )
            sub = batch.filter(pa.array(keep))
            year = oy_arr[opos[keep]]
            skey = sub.column("l_suppkey").to_numpy(zero_copy_only=False)
            spos = np.searchsorted(sk_s, skey)
            spos[spos == len(sk_s)] = 0
            is_nat = (sk_s[spos] == skey) if len(sk_s) else np.zeros(len(skey), bool)
            price_c = _cents(sub.column("l_extendedprice").to_numpy(zero_copy_only=False))
            disc_pct = _cents(sub.column("l_discount").to_numpy(zero_copy_only=False))
            rev = price_c * (100 - disc_pct)
            uy, inv = np.unique(year, return_inverse=True)
            tot = np.zeros(len(uy), np.int64)
            nat = np.zeros(len(uy), np.int64)
            np.add.at(tot, inv, rev)
            np.add.at(nat, inv, np.where(is_nat, rev, 0))
            return pa.table(
                {
                    "o_year": pa.array(uy, pa.int64()),
                    "total_c4": pa.array(tot),
                    "nat_c4": pa.array(nat),
                }
            )

        return fn

    from ..config import DRIVER_FASTPATH_ROWS

    n_sel = sel_orders.count()

    def _acc_from_year_tables(ds: rd.Dataset) -> dict:
        """Fold years-sized (o_year, total_c4, nat_c4) partial tables
        into the {year: [total, target]} accumulator — shared by both
        gate branches (one Arrow concat + numpy, no row loops)."""
        tbls = [t for t in ray.get(ds.materialize().to_arrow_refs()) if len(t)]
        if not tbls:
            return {}
        t = pa.concat_tables(tbls)
        yr = t.column("o_year").to_numpy(zero_copy_only=False)
        tot = t.column("total_c4").to_numpy(zero_copy_only=False)
        nat = t.column("nat_c4").to_numpy(zero_copy_only=False)
        uy, inv = np.unique(yr, return_inverse=True)
        ts = np.zeros(len(uy), np.int64)
        ns = np.zeros(len(uy), np.int64)
        np.add.at(ts, inv, tot)
        np.add.at(ns, inv, nat)
        return {int(y): [int(a), int(b)] for y, a, b in zip(uy, ts, ns)}

    li_cols = lineitem.select_columns(
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"]
    )
    acc: dict[int, list[int]] = {}
    if n_sel <= DRIVER_FASTPATH_ROWS:
        ok_l: list[int] = []
        oy_l: list[int] = []
        for ref in sel_orders.materialize().to_arrow_refs():
            t = ray.get(ref)
            ok_l.extend(t.column("o_orderkey").to_pylist())
            oy_l.extend(t.column("o_year").to_pylist())
        order = np.argsort(np.array(ok_l, np.int64), kind="stable")
        omap_ref = ray.put(
            (np.array(ok_l, np.int64)[order], np.array(oy_l, np.int64)[order])
        )
        parts_ds = li_cols.map_batches(
            li_year_partial(omap_ref), batch_format="pyarrow", batch_size=65536
        )
        acc = _acc_from_year_tables(parts_ds)
    else:
        # distributed: per-(order, is_nat) partials ⨝ the year map
        def li_order_partial(batch: pa.Table) -> pa.Table:
            pk_s = ray.get(pk_ref)
            sk_s = ray.get(sk_ref)
            pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
            ppos = np.searchsorted(pk_s, pk)
            ppos[ppos == len(pk_s)] = 0
            phit = (pk_s[ppos] == pk) if len(pk_s) else np.zeros(len(pk), bool)
            sub = batch.filter(pa.array(phit))
            skey = sub.column("l_suppkey").to_numpy(zero_copy_only=False)
            spos = np.searchsorted(sk_s, skey)
            spos[spos == len(sk_s)] = 0
            is_nat = (sk_s[spos] == skey) if len(sk_s) else np.zeros(len(skey), bool)
            price_c = _cents(sub.column("l_extendedprice").to_numpy(zero_copy_only=False))
            disc_pct = _cents(sub.column("l_discount").to_numpy(zero_copy_only=False))
            rev = price_c * (100 - disc_pct)
            okey = sub.column("l_orderkey").to_numpy(zero_copy_only=False)
            key = okey * 2 + is_nat.astype(np.int64)
            uk, inv = np.unique(key, return_inverse=True)
            sums = np.zeros(len(uk), np.int64)
            np.add.at(sums, inv, rev)
            return pa.table(
                {
                    "o_orderkey": pa.array(uk // 2, pa.int64()),
                    "is_nat": pa.array(uk % 2, pa.int64()),
                    "rev_c4": pa.array(sums),
                }
            )

        per_order = li_cols.map_batches(
            li_order_partial, batch_format="pyarrow", batch_size=65536
        )
        joined = sized_join(per_order, sel_orders, ("o_orderkey",))

        def year_fold(t: pa.Table) -> pa.Table:
            # per-batch combiner → years-sized rows only
            if not len(t) or "o_year" not in t.column_names:
                return pa.table(
                    {
                        "o_year": pa.array([], pa.int64()),
                        "total_c4": pa.array([], pa.int64()),
                        "nat_c4": pa.array([], pa.int64()),
                    }
                )
            yr = t.column("o_year").to_numpy(zero_copy_only=False)
            rev = t.column("rev_c4").to_numpy(zero_copy_only=False)
            isn = t.column("is_nat").to_numpy(zero_copy_only=False).astype(bool)
            uy, inv = np.unique(yr, return_inverse=True)
            ts = np.zeros(len(uy), np.int64)
            ns = np.zeros(len(uy), np.int64)
            np.add.at(ts, inv, rev)
            np.add.at(ns, inv, np.where(isn, rev, 0))
            return pa.table(
                {
                    "o_year": pa.array(uy, pa.int64()),
                    "total_c4": pa.array(ts),
                    "nat_c4": pa.array(ns),
                }
            )

        acc = _acc_from_year_tables(
            joined.map_batches(year_fold, batch_format="pyarrow")
        )

    years = sorted(acc)
    return pd.DataFrame(
        {
            "o_year": years,
            "mkt_share": [
                round(float(acc[y][1]) / float(acc[y][0]), 6) if acc[y][0] else 0.0
                for y in years
            ],
        }
    )


def rfm_segments(
    orders: rd.Dataset,
    *,
    ref_iso: str,
) -> pd.DataFrame:
    """→ (c_custkey, recency_days, frequency, monetary, r_q, f_q, m_q):
    RFM customer segmentation — days since last order (vs ``ref``),
    order count, lifetime value in exact cents, each bucketed into
    quartiles 1..4 by EXACT percentile_disc thresholds (q1/q2/q3 =
    values at 1-based positions ceil(0.25/0.5/0.75·n)); bucket rule
    ``value ≤ threshold`` on integers, so no float boundary exists.
    Higher quartile = better customer on every axis (recency inverts:
    fewer days → higher r_q).

    Scale shape: ONE pass of per-batch custkey combiners (min over the
    negated date = max order date; count; Σ cents) → a customer-grain
    exchange; the three quartile thresholds fold from value histograms
    of that customer-grain table (distinct-value-sized); the bucket
    pass is a stateless broadcast-threshold map."""
    ref = np.datetime64(ref_iso, "us")

    def partial(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        od = batch.column("o_orderdate").to_numpy(zero_copy_only=False)
        days = (
            (ref - od.astype("datetime64[us]")).astype("timedelta64[D]").astype(np.int64)
        )
        tot_c = _cents(batch.column("o_totalprice").to_numpy(zero_copy_only=False))
        uk, inv = np.unique(ck, return_inverse=True)
        rec = np.full(len(uk), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(rec, inv, days)
        freq = np.bincount(inv).astype(np.int64)
        mon = np.zeros(len(uk), np.int64)
        np.add.at(mon, inv, tot_c)
        return pa.table(
            {
                "c_custkey": pa.array(uk, pa.int64()),
                "rec": pa.array(rec),
                "freq": pa.array(freq),
                "mon": pa.array(mon),
            }
        )

    partials = orders.select_columns(
        ["o_custkey", "o_orderdate", "o_totalprice"]
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)

    # gated dual path (repo convention): the partials are already
    # customer-grain per batch — below the gate the driver folds them
    # directly (a ~15k-key 3-aggregate groupby shuffle costs ~4 s at
    # sf0.1 for nothing); above it the keyed exchange runs.
    from ..config import DRIVER_FASTPATH_ROWS

    def _concat(ds: rd.Dataset, cols: tuple[str, str, str, str]) -> tuple:
        # customer-grain result tables → one Arrow concat + numpy arrays
        tbls = [
            t for t in ray.get(ds.materialize().to_arrow_refs())
            if len(t) and cols[0] in t.column_names
        ]
        if not tbls:
            z = np.empty(0, np.int64)
            return z, z, z, z
        t = pa.concat_tables(tbls)
        return tuple(
            t.column(c).to_numpy(zero_copy_only=False).astype(np.int64) for c in cols
        )

    if orders.count() <= DRIVER_FASTPATH_ROWS:
        ck, rec0, freq0, mon0 = _concat(partials, ("c_custkey", "rec", "freq", "mon"))
        # segment fold over the sorted key view (min / sum / sum)
        order = np.argsort(ck, kind="stable")
        ck, rec0, freq0, mon0 = ck[order], rec0[order], freq0[order], mon0[order]
        starts = (
            np.flatnonzero(np.diff(ck, prepend=ck[0] - 1)) if ck.size else np.empty(0, np.int64)
        )
        keys = ck[starts]
        rec = np.minimum.reduceat(rec0, starts) if ck.size else rec0
        freq = np.add.reduceat(freq0, starts) if ck.size else freq0
        mon = np.add.reduceat(mon0, starts) if ck.size else mon0
    else:
        agg = partials.groupby("c_custkey").aggregate(
            rd.aggregate.Min("rec"), rd.aggregate.Sum("freq"), rd.aggregate.Sum("mon")
        )
        ck, rec, freq, mon = _concat(
            agg, ("c_custkey", "min(rec)", "sum(freq)", "sum(mon)")
        )
        order = np.argsort(ck, kind="stable")
        keys, rec, freq, mon = ck[order], rec[order], freq[order], mon[order]
    keys = keys.tolist()

    def disc_q(vals: np.ndarray, q: float) -> int:
        s = np.sort(vals)
        pos = int(np.ceil(q * len(s)))  # 1-based
        return int(s[max(pos, 1) - 1])

    def bucket(vals: np.ndarray, invert: bool) -> np.ndarray:
        t1, t2, t3 = (disc_q(vals, q) for q in (0.25, 0.5, 0.75))
        b = np.where(
            vals <= t1, 1, np.where(vals <= t2, 2, np.where(vals <= t3, 3, 4))
        ).astype(np.int64)
        return (5 - b) if invert else b

    r_q = bucket(rec, invert=True)  # fewer days since last order = better
    f_q = bucket(freq, invert=False)
    m_q = bucket(mon, invert=False)
    return pd.DataFrame(
        {
            "c_custkey": keys,
            "recency_days": rec,
            "frequency": freq,
            "monetary": np.round(mon.astype(np.float64) / 100.0, 6),
            "r_q": r_q,
            "f_q": f_q,
            "m_q": m_q,
        }
    )


def discount_elasticity(lineitem: rd.Dataset) -> pd.DataFrame:
    """→ (disc_pct, n_rows, avg_qty, avg_price): demand response per
    discount band — average quantity and base price at each discount
    level (the pricing-analytics probe of the warehouse family).
    Sums are exact integer centi-units; the averages are single
    divisions at the end, rounded 6 on both sides.

    Scale shape: per-batch (discount-band → n, Σqty_c, Σprice_c)
    combiners → one ~11-key exchange folded on the driver."""

    def partial(batch: pa.Table) -> pa.Table:
        dc = _cents(batch.column("l_discount").to_numpy(zero_copy_only=False))
        qc = _cents(batch.column("l_quantity").to_numpy(zero_copy_only=False))
        pc_ = _cents(batch.column("l_extendedprice").to_numpy(zero_copy_only=False))
        uk, inv = np.unique(dc, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        sq = np.zeros(len(uk), np.int64)
        sp = np.zeros(len(uk), np.int64)
        np.add.at(sq, inv, qc)
        np.add.at(sp, inv, pc_)
        return pa.table(
            {
                "disc_pct": pa.array(uk, pa.int64()),
                "n": pa.array(n),
                "sq": pa.array(sq),
                "sp": pa.array(sp),
            }
        )

    acc: dict[int, list[int]] = {}
    for ref in (
        lineitem.select_columns(["l_discount", "l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .materialize().to_arrow_refs()
    ):
        t = ray.get(ref)
        for r in t.to_pylist():
            row = acc.setdefault(r["disc_pct"], [0, 0, 0])
            row[0] += r["n"]
            row[1] += r["sq"]
            row[2] += r["sp"]
    keys = sorted(acc)
    return pd.DataFrame(
        {
            "disc_pct": keys,
            "n_rows": [acc[k][0] for k in keys],
            "avg_qty": [
                round(acc[k][1] / 100.0 / acc[k][0], 6) for k in keys
            ],
            "avg_price": [
                round(acc[k][2] / 100.0 / acc[k][0], 6) for k in keys
            ],
        }
    )
