"""Graph operators: PageRank over the link graph, connected components
over near-dup pair sets, and cluster-canonical dedup assignment.

The reference stops at in-site link extraction
(/root/reference/src/main/java/searchengine/utils/UrlUtils.java:62-107
feeds the crawl frontier and nothing else); these operators extend that
link graph — and the near-dup pair sets from ``pipelines/dedup.py`` —
into the two actions a 100 TB training-data pipeline actually needs:
a link-authority score per page and ONE canonical representative per
near-duplicate cluster.

Determinism contract (both are DuckDB-oracled bit-exact):

* ``pagerank`` runs entirely in **fixed-point int64 arithmetic**
  (``scale``-scaled mass, floor division, integer damping
  ``damping_num/damping_den``). Integer sums are associative, so the
  result is independent of block arrival / reduction order — unlike
  float PageRank — and an unrolled SQL mirror reproduces it exactly.
  Dangling-node mass is dropped (the classic "lost mass" variant),
  identically on both sides.
* ``connected_components`` labels every node of a pair graph with the
  MINIMUM doc_id reachable from it — a pure set property, independent
  of execution order.

Scale shape: both operators gate a driver-side vectorized fast path on
``DRIVER_FASTPATH_ROWS`` (near-dup pair sets and per-site link graphs
are tiny next to the corpus); above it they run as hash-partitioned
``Dataset.join`` + groupby rounds where every exchange is edge- or
node-sized and the corpus itself never moves.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

_EMPTY_COMPONENTS = pa.table(
    {"node": pa.array([], pa.int64()), "rep": pa.array([], pa.int64())}
)


# --------------------------------------------------------------- PageRank
def _pagerank_driver(
    src: np.ndarray,
    dst: np.ndarray,
    *,
    iterations: int,
    damping_num: int,
    damping_den: int,
    scale: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized fixed-point PageRank over label-encoded edges.
    Returns (node_keys_sorted, rank_int64)."""
    nodes, codes = np.unique(np.concatenate([src, dst]), return_inverse=True)
    s = codes[: src.size]
    d = codes[src.size :]
    n = nodes.size
    outdeg = np.bincount(s, minlength=n).astype(np.int64)
    base = ((damping_den - damping_num) * (scale // n)) // damping_den
    rank = np.full(n, scale // n, dtype=np.int64)
    safe_deg = np.maximum(outdeg, 1)  # sources always have outdeg >= 1
    for _ in range(iterations):
        share = rank[s] // safe_deg[s]
        contrib = np.zeros(n, dtype=np.int64)
        # np.add.at: exact int64 scatter-add (bincount would round-trip
        # through float64 — exact below 2^53 but why rely on it)
        np.add.at(contrib, d, share)
        rank = base + (damping_num * contrib) // damping_den
    return nodes, rank


def pagerank(
    edges: rd.Dataset,
    *,
    src_col: str = "src_url",
    dst_col: str = "dst_url",
    iterations: int = 5,
    damping_num: int = 85,
    damping_den: int = 100,
    scale: int = 10**12,
) -> rd.Dataset:
    """(src, dst) edge Dataset → (url, pagerank:int64 fixed-point).

    rank_0(v) = scale // N;  each iteration
    rank(v) = base + damping_num * Σ_{u→v} (rank(u) // outdeg(u))
                     // damping_den
    with base = (damping_den - damping_num) * (scale // N)
                // damping_den.
    Nodes = every url appearing as source OR destination; duplicate
    edges are collapsed first (the link extractor already emits per-page
    distinct targets, but callers may union several crawls).
    """
    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import drop_empty_blocks, sized_join

    def slim(batch: pa.Table) -> pa.Table:
        t = pa.table({"s": batch.column(src_col), "d": batch.column(dst_col)})
        return t.group_by(["s", "d"]).aggregate([]).select(["s", "d"])

    slim_edges = edges.map_batches(slim, batch_format="pyarrow").materialize()
    n_edges = slim_edges.count()
    if n_edges == 0:
        return rd.from_arrow(
            pa.table({"url": pa.array([], pa.string()),
                      "pagerank": pa.array([], pa.int64())})
        )

    if n_edges <= DRIVER_FASTPATH_ROWS:
        tbl = pa.concat_tables(
            [pa.table(b) for b in slim_edges.iter_batches(batch_format="pyarrow")]
        )
        # a distinct pass per block can still leave cross-block dupes
        tbl = tbl.group_by(["s", "d"]).aggregate([]).select(["s", "d"])
        nodes, rank = _pagerank_driver(
            tbl.column("s").to_numpy(zero_copy_only=False),
            tbl.column("d").to_numpy(zero_copy_only=False),
            iterations=iterations, damping_num=damping_num,
            damping_den=damping_den, scale=scale,
        )
        return rd.from_arrow(
            pa.table({"url": pa.array(nodes), "pagerank": pa.array(rank, pa.int64())})
        )

    # ---- distributed path: node/edge-sized exchanges only ----
    # cross-block distinct + node list + out-degrees
    def dedup_bucket(g):
        return g.drop_duplicates(subset=["s", "d"])

    from ..stages.grouping import bucketed_group_apply

    # drop_empty_blocks everywhere below: zero-row blocks from the
    # small-data all-to-alls carry an empty schema and would poison the
    # hash joins (see stages/grouping.drop_empty_blocks)
    slim_edges = drop_empty_blocks(bucketed_group_apply(
        slim_edges, ["s", "d"], dedup_bucket, n_buckets=64
    ).materialize())

    def both_endpoints(batch: pa.Table) -> pa.Table:
        u = pa.concat_arrays(
            [batch.column("s").combine_chunks().cast(pa.string()),
             batch.column("d").combine_chunks().cast(pa.string())]
        )
        return pa.table({"u": u.unique()})

    nodes_ds = (
        slim_edges.map_batches(both_endpoints, batch_format="pyarrow")
        .groupby("u").count()
        .map_batches(lambda b: b.select(["u"]), batch_format="pyarrow")
        .materialize()
    )
    nodes_ds = drop_empty_blocks(nodes_ds)
    n = nodes_ds.count()
    base = ((damping_den - damping_num) * (scale // n)) // damping_den

    def partial_deg(batch: pa.Table) -> pa.Table:
        t = pa.table({"u": batch.column("s"),
                      "c": pa.array(np.ones(len(batch), dtype=np.int64))})
        return t.group_by("u").aggregate([("c", "sum")]).rename_columns(["u", "c"])

    outdeg = (
        slim_edges.map_batches(partial_deg, batch_format="pyarrow")
        .groupby("u").sum("c")
        .map_batches(
            lambda b: pa.table({"u": b.column("u"),
                                "od": pc.cast(b.column("sum(c)"), pa.int64())}),
            batch_format="pyarrow",
        )
        .materialize()
    )
    outdeg = drop_empty_blocks(outdeg)

    r0 = scale // n
    ranks = nodes_ds.map_batches(
        lambda b: pa.table({"u": b.column("u"),
                            "r": pa.array(np.full(len(b), r0, dtype=np.int64))}),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(iterations):
        share = drop_empty_blocks(sized_join(ranks, outdeg, ("u",)).map_batches(
            lambda b: pa.table({
                "s": b.column("u"),
                "sh": pa.array(
                    b.column("r").to_numpy(zero_copy_only=False)
                    // b.column("od").to_numpy(zero_copy_only=False),
                    pa.int64(),
                ),
            }),
            batch_format="pyarrow",
        ).materialize())

        def partial_contrib(batch: pa.Table) -> pa.Table:
            t = pa.table({"d": batch.column("d"), "c": batch.column("sh")})
            return t.group_by("d").aggregate([("c", "sum")]).rename_columns(["d", "c"])

        contrib = (
            sized_join(slim_edges, share, ("s",))
            .map_batches(partial_contrib, batch_format="pyarrow")
            .groupby("d").sum("c")
            .map_batches(
                lambda b: pa.table({"u": b.column("d"),
                                    "c": pc.cast(b.column("sum(c)"), pa.int64())}),
                batch_format="pyarrow",
            )
            .materialize()
        )
        contrib = drop_empty_blocks(contrib)

        ranks = (
            sized_join(nodes_ds, contrib, ("u",), join_type="left_outer")
            .map_batches(
                lambda b, _base=base: pa.table({
                    "u": b.column("u"),
                    "r": pa.array(
                        _base
                        + (
                            damping_num
                            * b.column("c").fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
                        )
                        // damping_den,
                        pa.int64(),
                    ),
                }),
                batch_format="pyarrow",
            )
            .materialize()
        )
        ranks = drop_empty_blocks(ranks)

    return ranks.map_batches(
        lambda b: pa.table({"url": b.column("u"), "pagerank": b.column("r")}),
        batch_format="pyarrow",
    )


# ----------------------------------------------- connected components
def _components_driver(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-label propagation with pointer jumping over label-encoded
    pair endpoints; exact fixpoint. Returns (node_keys, rep_keys)."""
    nodes, codes = np.unique(np.concatenate([a, b]), return_inverse=True)
    ea = codes[: a.size]
    eb = codes[a.size :]
    lab = np.arange(nodes.size, dtype=np.int64)
    while True:
        prev = lab.copy()
        m = np.minimum(lab[ea], lab[eb])
        np.minimum.at(lab, ea, m)
        np.minimum.at(lab, eb, m)
        lab = lab[lab]  # pointer jumping halves chain depth per round
        if np.array_equal(lab, prev):
            break
    return nodes, nodes[lab]


def connected_components(
    pairs: rd.Dataset,
    *,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    max_rounds: int = 64,
) -> rd.Dataset:
    """Pair Dataset → (node:int64, rep:int64) where ``rep`` is the
    minimum node id in the pair's connected component. Only nodes that
    appear in at least one pair are emitted (singletons are the
    caller's corpus-side default — see ``near_dup_clusters``)."""
    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import drop_empty_blocks, sized_join

    def slim(batch: pa.Table) -> pa.Table:
        return pa.table({
            "a": pc.cast(batch.column(a_col), pa.int64()),
            "b": pc.cast(batch.column(b_col), pa.int64()),
        })

    edges = pairs.map_batches(slim, batch_format="pyarrow").materialize()
    n_pairs = edges.count()
    if n_pairs == 0:
        return rd.from_arrow(_EMPTY_COMPONENTS)

    if n_pairs <= DRIVER_FASTPATH_ROWS:
        tbl = pa.concat_tables(
            [pa.table(b) for b in edges.iter_batches(batch_format="pyarrow")]
        )
        nodes, reps = _components_driver(
            tbl.column("a").to_numpy(zero_copy_only=False),
            tbl.column("b").to_numpy(zero_copy_only=False),
        )
        return rd.from_arrow(
            pa.table({"node": pa.array(nodes, pa.int64()),
                      "rep": pa.array(reps, pa.int64())})
        )

    # ---- distributed min-label propagation (edge-sized exchanges) ----
    bidir = edges.map_batches(
        lambda t: pa.table({
            "n": pa.concat_arrays([t.column("a").combine_chunks(),
                                   t.column("b").combine_chunks()]),
            "m": pa.concat_arrays([t.column("b").combine_chunks(),
                                   t.column("a").combine_chunks()]),
        }),
        batch_format="pyarrow",
    ).materialize()
    bidir = drop_empty_blocks(bidir)

    labels = (
        bidir.map_batches(
            lambda t: pa.table({"n": t.column("n").unique()}),
            batch_format="pyarrow",
        )
        .groupby("n").count()
        .map_batches(
            lambda b: pa.table({"n": b.column("n"), "rep": b.column("n")}),
            batch_format="pyarrow",
        )
        .materialize()
    )
    labels = drop_empty_blocks(labels)

    for _ in range(max_rounds):
        def partial_min(batch: pa.Table) -> pa.Table:
            t = pa.table({"m": batch.column("m"), "rep": batch.column("rep")})
            return t.group_by("m").aggregate([("rep", "min")]).rename_columns(["m", "rep"])

        inc = drop_empty_blocks(
            sized_join(bidir, labels, ("n",))
            .map_batches(partial_min, batch_format="pyarrow")
            .groupby("m").min("rep")
            .map_batches(
                lambda b: pa.table({"n": b.column("m"), "inc": b.column("min(rep)")}),
                batch_format="pyarrow",
            )
            .materialize()
        )

        def fold(batch: pa.Table) -> pa.Table:
            rep = batch.column("rep").to_numpy(zero_copy_only=False)
            incv = batch.column("inc").fill_null(np.iinfo(np.int64).max)
            new = np.minimum(rep, incv.to_numpy(zero_copy_only=False).astype(np.int64))
            return pa.table({
                "n": batch.column("n"),
                "rep": pa.array(new, pa.int64()),
                "chg": pa.array((new != rep).astype(np.int64)),
            })

        folded = (
            sized_join(labels, inc, ("n",), join_type="left_outer")
            .map_batches(fold, batch_format="pyarrow")
            .materialize()
        )
        changed = folded.sum("chg")
        labels = drop_empty_blocks(folded.map_batches(
            lambda b: b.select(["n", "rep"]), batch_format="pyarrow"
        ).materialize())
        if not changed:
            break
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds"
        )

    return labels.map_batches(
        lambda b: b.rename_columns(["node", "rep"]), batch_format="pyarrow"
    )


def near_dup_clusters(
    documents: rd.Dataset,
    pairs: rd.Dataset,
    *,
    id_col: str = "doc_id",
    a_col: str = "doc_a",
    b_col: str = "doc_b",
) -> rd.Dataset:
    """Near-dup pairs → full-corpus dedup assignment
    (doc_id, rep_id:int64): every document labeled with the canonical
    (minimum) doc_id of its near-duplicate cluster; docs in no pair map
    to themselves. Downstream "keep one per cluster" is then a trivial
    ``rep_id == doc_id`` filter — no further shuffle.

    Components are pair-graph-sized (tiny next to the corpus), so below
    ``DRIVER_FASTPATH_ROWS`` they broadcast as a dict into a stateless
    map over the corpus; above it a left-outer hash join assigns them
    without the corpus text ever moving (id column only)."""
    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import drop_empty_blocks, sized_join

    comp = drop_empty_blocks(
        connected_components(pairs, a_col=a_col, b_col=b_col).materialize()
    )
    ids = documents.map_batches(
        lambda b: pa.table({id_col: pc.cast(b.column(id_col), pa.int64())}),
        batch_format="pyarrow",
    )

    if comp.count() <= DRIVER_FASTPATH_ROWS:
        import ray

        tbl = pa.concat_tables(
            [pa.table(b) for b in comp.iter_batches(batch_format="pyarrow")]
        )
        keys = tbl.column("node").to_numpy(zero_copy_only=False)
        vals = tbl.column("rep").to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        lookup_ref = ray.put((keys[order], vals[order]))

        def assign(batch: pa.Table, _ref=[lookup_ref]) -> pa.Table:
            keys_s, vals_s = ray.get(_ref[0])
            d = batch.column(id_col).to_numpy(zero_copy_only=False)
            idx = np.searchsorted(keys_s, d)
            idx_c = np.minimum(idx, keys_s.size - 1) if keys_s.size else idx
            hit = (keys_s.size > 0) & (keys_s[idx_c] == d) if keys_s.size else np.zeros(d.size, bool)
            rep = np.where(hit, vals_s[idx_c] if keys_s.size else d, d)
            return pa.table({id_col: batch.column(id_col),
                             "rep_id": pa.array(rep.astype(np.int64), pa.int64())})

        return ids.map_batches(assign, batch_format="pyarrow")

    comp_r = comp.map_batches(
        lambda b: pa.table({id_col: b.column("node"), "rep": b.column("rep")}),
        batch_format="pyarrow",
    )

    def finish(batch: pa.Table) -> pa.Table:
        rep = batch.column("rep").fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        own = batch.column(id_col).to_numpy(zero_copy_only=False)
        out = np.where(batch.column("rep").is_null().to_numpy(zero_copy_only=False), own, rep)
        return pa.table({id_col: batch.column(id_col),
                         "rep_id": pa.array(out, pa.int64())})

    return sized_join(ids, comp_r, (id_col,), join_type="left_outer").map_batches(
        finish, batch_format="pyarrow"
    )


def degree_stats(
    edges: rd.Dataset, src_col: str = "src_url", dst_col: str = "dst_url"
) -> rd.Dataset:
    """(src, dst) edge Dataset → (url, out_degree, in_degree) over every
    url appearing on either side — the degree-distribution profile of
    the crawl graph (hub/authority shape, dead-end detection).

    Scale shape: per-batch Arrow ``group_by`` combiners reduce each
    batch to per-url partials BEFORE the shuffle; ONE url-keyed bucketed
    exchange sums them. Nothing bigger than the distinct-url set ever
    moves."""
    import pandas as pd

    from ..stages.grouping import bucketed_group_apply

    def partials(batch: pa.Table) -> pa.Table:
        outs = batch.group_by(src_col).aggregate([(src_col, "count")])
        ins = batch.group_by(dst_col).aggregate([(dst_col, "count")])
        n_o, n_i = len(outs), len(ins)
        return pa.table(
            {
                "url": pa.concat_arrays(
                    [
                        outs.column(src_col).combine_chunks(),
                        ins.column(dst_col).combine_chunks(),
                    ]
                ),
                "out_d": pa.array(
                    np.concatenate(
                        [
                            outs.column(f"{src_col}_count").to_numpy(),
                            np.zeros(n_i, np.int64),
                        ]
                    ),
                    pa.int64(),
                ),
                "in_d": pa.array(
                    np.concatenate(
                        [
                            np.zeros(n_o, np.int64),
                            ins.column(f"{dst_col}_count").to_numpy(),
                        ]
                    ),
                    pa.int64(),
                ),
            }
        )

    def per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = group.groupby("url", sort=False)[["out_d", "in_d"]].sum().reset_index()
        out = out.rename(columns={"out_d": "out_degree", "in_d": "in_degree"})
        for c in ("out_degree", "in_degree"):
            out[c] = out[c].astype("int64")
        return out

    slim = edges.map_batches(partials, batch_format="pyarrow")
    return bucketed_group_apply(slim, ["url"], per_bucket, n_buckets=32)


def coupling_pairs(
    edges: rd.Dataset,
    min_common: int = 1,
    max_fanin: int = 10_000,
    src_col: str = "src_url",
    dst_col: str = "dst_url",
) -> rd.Dataset:
    """Bibliographic coupling: (url_a, url_b, n_common) pairs of SOURCE
    pages (url_a < url_b) sharing at least ``min_common`` common link
    DESTINATIONS — "pages that cite the same things", the link-level
    relatedness signal dual to co-citation.

    Scale shape: edges dedupe into slim (dst, src) rows; a dst-bucketed
    exchange expands each destination's source list into pairs (the
    classic quadratic hot spot — destinations with more than
    ``max_fanin`` in-links are DROPPED, the standard hub cap, because a
    1M-in-link hub would emit 5·10^11 pairs while carrying no
    relatedness signal); a second pair-keyed exchange sums n_common.
    Both exchanges are pair/edge-sized; the corpus never moves."""
    import pandas as pd

    from ..stages.grouping import bucketed_group_apply

    def dedup(batch: pa.Table) -> pa.Table:
        g = batch.group_by([dst_col, src_col]).aggregate([])
        return pa.table({"dst": g.column(dst_col), "src": g.column(src_col)})

    slim = edges.map_batches(dedup, batch_format="pyarrow")

    def pairs_per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, g in group.groupby("dst", sort=False):
            srcs = np.unique(g["src"].to_numpy())
            if len(srcs) < 2 or len(srcs) > max_fanin:
                continue
            ia, ib = np.triu_indices(len(srcs), k=1)
            out_a.append(srcs[ia])
            out_b.append(srcs[ib])
        if not out_a:
            return pd.DataFrame({"url_a": [], "url_b": []}).astype(
                {"url_a": "object", "url_b": "object"}
            )
        return pd.DataFrame(
            {"url_a": np.concatenate(out_a), "url_b": np.concatenate(out_b)}
        )

    pair_rows = bucketed_group_apply(slim, ["dst"], pairs_per_bucket, n_buckets=32)

    def count_per_bucket(group: pd.DataFrame) -> pd.DataFrame:
        out = (
            group.groupby(["url_a", "url_b"], sort=False)
            .size()
            .reset_index(name="n_common")
        )
        out = out[out["n_common"] >= min_common].reset_index(drop=True)
        out["n_common"] = out["n_common"].astype("int64")
        return out

    return bucketed_group_apply(
        pair_rows, ["url_a", "url_b"], count_per_bucket, n_buckets=32
    )


def _hits_driver(
    s: np.ndarray, d: np.ndarray, n: int, *, iterations: int, scale: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized fixed-point HITS over label-encoded edges → (hub,
    authority) int64 arrays. Normalization is sum-to-scale with floor
    division (L1, not the classical L2 — L1 keeps every step in exact
    integer arithmetic, which is what makes the SQL mirror bit-exact;
    the relative ordering HITS is used for is unchanged)."""
    a = np.full(n, scale // n, dtype=np.int64)
    h = np.zeros(n, dtype=np.int64)
    for _ in range(iterations):
        hp = np.zeros(n, dtype=np.int64)
        np.add.at(hp, s, a[d])
        tot = int(hp.sum())
        h = (hp * scale) // tot if tot else hp
        ap = np.zeros(n, dtype=np.int64)
        np.add.at(ap, d, h[s])
        tot = int(ap.sum())
        a = (ap * scale) // tot if tot else ap
    return h, a


def hits(
    edges: rd.Dataset,
    *,
    src_col: str = "src_url",
    dst_col: str = "dst_url",
    iterations: int = 3,
    scale: int = 10**9,
) -> rd.Dataset:
    """(src, dst) edge Dataset → (url, hub, authority) — Kleinberg's
    HITS in fixed-point int64 (hub = Σ authority of out-neighbors,
    authority = Σ hub of in-neighbors, L1-renormalized to ``scale``
    each half-step). Integer sums are associative, so the result is
    independent of block/reduction order and the unrolled SQL mirror
    reproduces it bit-for-bit — the same determinism contract as
    ``pagerank``. ``scale`` must satisfy scale² < 2^63 (int64 products).

    Scale shape: identical to pagerank — driver fastpath below
    ``DRIVER_FASTPATH_ROWS``, else per-iteration edge-sized
    ``sized_join`` + groupby exchanges; the normalization totals are
    streamed scalar aggregates."""
    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import bucketed_group_apply, drop_empty_blocks, sized_join

    if scale * scale >= 2**63:
        raise ValueError("scale^2 must fit int64")

    def slim(batch: pa.Table) -> pa.Table:
        t = pa.table({"s": batch.column(src_col), "d": batch.column(dst_col)})
        return t.group_by(["s", "d"]).aggregate([]).select(["s", "d"])

    empty = pa.table(
        {
            "url": pa.array([], pa.string()),
            "hub": pa.array([], pa.int64()),
            "authority": pa.array([], pa.int64()),
        }
    )
    slim_edges = edges.map_batches(slim, batch_format="pyarrow").materialize()
    n_edges = slim_edges.count()
    if n_edges == 0:
        return rd.from_arrow(empty)

    if n_edges <= DRIVER_FASTPATH_ROWS:
        tbl = pa.concat_tables(
            [pa.table(b) for b in slim_edges.iter_batches(batch_format="pyarrow")]
        )
        tbl = tbl.group_by(["s", "d"]).aggregate([]).select(["s", "d"])
        src = tbl.column("s").to_numpy(zero_copy_only=False)
        dst = tbl.column("d").to_numpy(zero_copy_only=False)
        nodes, codes = np.unique(np.concatenate([src, dst]), return_inverse=True)
        h, a = _hits_driver(
            codes[: src.size], codes[src.size :], nodes.size,
            iterations=iterations, scale=scale,
        )
        return rd.from_arrow(
            pa.table(
                {
                    "url": pa.array(nodes),
                    "hub": pa.array(h, pa.int64()),
                    "authority": pa.array(a, pa.int64()),
                }
            )
        )

    # ---- distributed path: edge/node-sized exchanges only ----
    slim_edges = drop_empty_blocks(
        bucketed_group_apply(
            slim_edges, ["s", "d"],
            lambda g: g.drop_duplicates(subset=["s", "d"]), n_buckets=64,
        ).materialize()
    )

    def both_endpoints(batch: pa.Table) -> pa.Table:
        u = pa.concat_arrays(
            [
                batch.column("s").combine_chunks().cast(pa.string()),
                batch.column("d").combine_chunks().cast(pa.string()),
            ]
        )
        return pa.table({"u": u.unique()})

    nodes_ds = drop_empty_blocks(
        slim_edges.map_batches(both_endpoints, batch_format="pyarrow")
        .groupby("u").count()
        .map_batches(lambda b: b.select(["u"]), batch_format="pyarrow")
        .materialize()
    )
    n = nodes_ds.count()

    def const_scores(v: int):
        return nodes_ds.map_batches(
            lambda b, _v=v: pa.table(
                {"u": b.column("u"), "r": pa.array(np.full(len(b), _v, np.int64))}
            ),
            batch_format="pyarrow",
        ).materialize()

    a_ds = const_scores(scale // n)
    h_ds = const_scores(0)

    def half_step(score_ds, join_on: str, group_to: str):
        """Σ score over edges joined on ``join_on``, grouped to the other
        endpoint, L1-normalized to scale. Returns a (u, r) Dataset."""
        part = (
            sized_join(slim_edges, score_ds.map_batches(
                lambda b, _j=join_on: pa.table({_j: b.column("u"), "r": b.column("r")}),
                batch_format="pyarrow",
            ), (join_on,))
            .map_batches(
                lambda b, _g=group_to: pa.table({_g: b.column(_g), "c": b.column("r")})
                .group_by(_g).aggregate([("c", "sum")]).rename_columns([_g, "c"]),
                batch_format="pyarrow",
            )
            .groupby(group_to).sum("c")
            .map_batches(
                lambda b, _g=group_to: pa.table(
                    {"u": b.column(_g), "c": pc.cast(b.column("sum(c)"), pa.int64())}
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )
        part = drop_empty_blocks(part)
        tot = part.sum("c") or 0
        out = (
            sized_join(nodes_ds, part, ("u",), join_type="left_outer")
            .map_batches(
                lambda b, _t=tot: pa.table(
                    {
                        "u": b.column("u"),
                        "r": pa.array(
                            (
                                b.column("c").fill_null(0)
                                .to_numpy(zero_copy_only=False).astype(np.int64)
                                * scale
                            )
                            // _t
                            if _t
                            else np.zeros(len(b), np.int64),
                            pa.int64(),
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )
        return drop_empty_blocks(out)

    for _ in range(iterations):
        h_ds = half_step(a_ds, join_on="d", group_to="s")
        a_ds = half_step(h_ds, join_on="s", group_to="d")

    return (
        sized_join(
            h_ds.map_batches(
                lambda b: pa.table({"u": b.column("u"), "hub": b.column("r")}),
                batch_format="pyarrow",
            ),
            a_ds.map_batches(
                lambda b: pa.table({"u": b.column("u"), "authority": b.column("r")}),
                batch_format="pyarrow",
            ),
            ("u",),
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "url": b.column("u"),
                    "hub": b.column("hub"),
                    "authority": b.column("authority"),
                }
            ),
            batch_format="pyarrow",
        )
    )


def dedup_keep_best(
    documents: rd.Dataset,
    pairs: rd.Dataset,
    *,
    id_col: str = "doc_id",
    text_col: str = "text",
    a_col: str = "doc_a",
    b_col: str = "doc_b",
) -> rd.Dataset:
    """→ (doc_id, rep_id, keep:int64 0/1) — the ACTION step of near-dup
    curation: per duplicate cluster keep the BEST copy (most tokens,
    ties on smallest doc_id — the "longest version wins" rule of
    training-data dedup), drop the rest; docs in no cluster keep
    themselves.

    Scale shape: components are pair-graph-sized (tiny next to the
    corpus) and broadcast; token counts are computed in a streamed map
    and only the CLUSTER MEMBERS' counts come back to the driver
    (component-sized, never the corpus); the winner table broadcasts
    into one final stateless map over the id column. The corpus text
    never shuffles and nothing corpus-sized lands on the driver."""
    import ray

    from ..pipelines.textstats import token_count_stage

    comp = connected_components(pairs, a_col=a_col, b_col=b_col).materialize()
    tbl = pa.concat_tables(
        [pa.table(b) for b in comp.iter_batches(batch_format="pyarrow")]
    ) if comp.count() else pa.table({"node": pa.array([], pa.int64()),
                                     "rep": pa.array([], pa.int64())})
    nodes = tbl.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
    reps = tbl.column("rep").to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nodes, kind="stable")
    nodes_s, reps_s = nodes[order], reps[order]
    member_ref = ray.put(nodes_s)

    def member_counts(batch: pa.Table) -> pa.Table:
        import ray as _ray

        members = _ray.get(member_ref)
        d = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.isin(d, members)
        if not mask.any():
            return pa.table(
                {id_col: pa.array([], pa.int64()),
                 "n_tokens": pa.array([], pa.int64())}
            )
        return token_count_stage(
            batch.filter(pa.array(mask)), text_col=text_col, id_col=id_col
        )

    mc = (
        documents.select_columns([id_col, text_col])
        .map_batches(member_counts, batch_format="pyarrow")
        .take_all()
    )  # component-sized: only cluster members' (id, n_tokens)
    m_ids = np.array([r[id_col] for r in mc], np.int64)
    m_cnt = np.array([r["n_tokens"] for r in mc], np.int64)
    idx = np.searchsorted(nodes_s, m_ids)
    m_rep = reps_s[idx]
    # winner per rep: (n_tokens desc, doc_id asc)
    best: dict[int, int] = {}
    o = np.lexsort((m_ids, -m_cnt))
    for did, rep in zip(m_ids[o].tolist(), m_rep[o].tolist()):
        if rep not in best:
            best[rep] = did
    best_ref = ray.put((nodes_s, reps_s, best))

    def assign(batch: pa.Table) -> pa.Table:
        import ray as _ray

        nodes_b, reps_b, best_b = _ray.get(best_ref)
        d = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(nodes_b, d)
        idx_c = np.minimum(idx, max(nodes_b.size - 1, 0))
        hit = (nodes_b.size > 0) & (nodes_b[idx_c] == d) if nodes_b.size else np.zeros(d.size, bool)
        rep = np.where(hit, reps_b[idx_c] if nodes_b.size else d, d)
        keep = np.fromiter(
            (1 if (r == i if r not in best_b else best_b[r] == i) else 0
             for i, r in zip(d.tolist(), rep.tolist())),
            dtype=np.int64, count=len(d),
        )
        return pa.table(
            {
                id_col: pa.array(d, pa.int64()),
                "rep_id": pa.array(rep.astype(np.int64), pa.int64()),
                "keep": pa.array(keep, pa.int64()),
            }
        )

    return documents.select_columns([id_col]).map_batches(assign, batch_format="pyarrow")


def triangle_counts(
    edges: rd.Dataset,
    src_col: str = "src_url",
    dst_col: str = "dst_url",
    out_col: str = "url",
) -> rd.Dataset:
    """(src, dst) edge Dataset → (url, n_triangles): per node, the
    number of UNDIRECTED triangles through it — the local-clustering /
    community-density profile of the link graph (spam farms and
    template navigation rings score high; organic content is sparse).

    Scale shape — compact-forward with degree orientation (Latapy 2008):
    the undirected edge set dedupes in one bucketed exchange; each edge
    then orients from its lower-(degree, url) endpoint to the higher
    one, which bounds every out-list by O(√m) REGARDLESS of hub degree
    — the wedge expansion that follows is the classic quadratic hot
    spot, and orientation is what caps it (a 1M-degree hub generates no
    wedges at all from its own list; its triangles are counted at its
    low-degree neighbours). Wedges key on the closing (undirected) edge
    and hash-join against the edge set; every exchange is edge- or
    wedge-sized, the corpus never moves. Output is a pure set property
    → deterministic under any block order, so the SQL oracle mirrors
    semantics (the triple join), not the algorithm."""
    import pandas as pd

    import ray

    from ..stages.grouping import bucketed_group_apply, drop_empty_blocks, sized_join

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column(src_col)
        d = batch.column(dst_col)
        keep = pc.not_equal(s, d)
        s, d = s.filter(keep), d.filter(keep)
        lo = pc.min_element_wise(s, d)
        hi = pc.max_element_wise(s, d)
        g = pa.table({"a": lo, "b": hi}).group_by(["a", "b"]).aggregate([])
        return pa.table({"a": g.column("a"), "b": g.column("b")})

    canoned = drop_empty_blocks(
        edges.map_batches(canon, batch_format="pyarrow").materialize()
    )
    n_edge_rows = canoned.count()  # per-batch-deduped, may hold cross-batch dups
    if n_edge_rows == 0:
        return rd.from_arrow(
            pa.table({out_col: pa.array([], pa.string()),
                      "n_triangles": pa.array([], pa.int64())})
        )
    node_type = canoned.schema().base_schema.field("a").type

    from ..config import DRIVER_FASTPATH_ROWS

    if n_edge_rows <= DRIVER_FASTPATH_ROWS:
        # edge-count-gated local path (same doctrine as pagerank /
        # connected_components): near-dup pair graphs and per-site link
        # graphs are edge-tiny next to the corpus — seven exchanges plus
        # three joins of fixed ~1-4 s each dwarf the actual compute
        et = pa.concat_tables([t for t in ray.get(canoned.materialize().to_arrow_refs()) if len(t)])
        a = np.asarray(et.column("a").to_pylist(), dtype=object)
        b = np.asarray(et.column("b").to_pylist(), dtype=object)
        nodes, codes = np.unique(np.concatenate([a, b]), return_inverse=True)
        ca, cb = codes[: len(a)], codes[len(a):]
        nn = len(nodes)
        # cross-batch duplicate edges survive the per-batch dedup
        upk = np.unique(np.minimum(ca, cb).astype(np.int64) * nn
                        + np.maximum(ca, cb).astype(np.int64))
        ca, cb = (upk // nn).astype(np.int64), (upk % nn).astype(np.int64)
        deg = np.bincount(ca, minlength=nn) + np.bincount(cb, minlength=nn)
        # orient low (deg, code) → high; code order stands in for node
        # order (np.unique sorts), matching the distributed tiebreak
        a_first = (deg[ca] < deg[cb]) | ((deg[ca] == deg[cb]) & (ca < cb))
        src = np.where(a_first, ca, cb)
        dst = np.where(a_first, cb, ca)
        packed = upk  # already sorted unique (a < b by construction)
        order = np.argsort(src, kind="stable")
        ssrc, sdst = src[order], dst[order]
        starts = np.flatnonzero(np.diff(ssrc, prepend=ssrc[0] - 1) != 0)
        lens = np.diff(np.append(starts, ssrc.size))
        tri = np.zeros(nn, np.int64)
        for s, ln in zip(starts, lens):
            if ln < 2:
                continue
            outs = np.sort(sdst[s:s + ln].astype(np.int64))
            ii, jj = np.triu_indices(outs.size, k=1)
            x, y = outs[ii], outs[jj]
            key = np.minimum(x, y) * nn + np.maximum(x, y)
            pos = np.searchsorted(packed, key)
            pos = np.minimum(pos, packed.size - 1)
            closed = packed[pos] == key
            if closed.any():
                w = int(ssrc[s])
                tri[w] += int(closed.sum())
                np.add.at(tri, x[closed], 1)
                np.add.at(tri, y[closed], 1)
        return rd.from_arrow(
            pa.table(
                {
                    out_col: pa.array(nodes.tolist(), node_type),
                    "n_triangles": pa.array(tri, pa.int64()),
                }
            )
        )

    und = drop_empty_blocks(
        bucketed_group_apply(
            canoned, ["a", "b"], lambda df: df.drop_duplicates(["a", "b"]),
            n_buckets=32,
        ).materialize()
    )

    def explode(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"url": pa.concat_arrays(
                [batch.column("a").combine_chunks(),
                 batch.column("b").combine_chunks()])}
        )

    deg = bucketed_group_apply(
        und.map_batches(explode, batch_format="pyarrow"),
        ["url"],
        lambda df: df.groupby("url", sort=False).size().rename("deg").reset_index(),
        n_buckets=32,
    )
    deg = drop_empty_blocks(deg.materialize())

    def rename(url_name: str, deg_name: str):
        def r(batch: pa.Table) -> pa.Table:
            return pa.table(
                {url_name: batch.column("url"), deg_name: batch.column("deg")}
            )

        return r

    j = sized_join(
        und, deg.map_batches(rename("a", "deg_a"), batch_format="pyarrow"), ("a",)
    ).materialize()
    j = sized_join(
        j, deg.map_batches(rename("b", "deg_b"), batch_format="pyarrow"), ("b",)
    )

    def orient(batch: pa.Table) -> pa.Table:
        if not len(batch):
            return pa.table({"src": pa.array([], node_type),
                             "dst": pa.array([], node_type)})
        a = batch.column("a").to_pylist()
        b = batch.column("b").to_pylist()
        da = batch.column("deg_a").to_numpy(zero_copy_only=False)
        db = batch.column("deg_b").to_numpy(zero_copy_only=False)
        # lower (deg, node) endpoint emits the edge
        lt = np.fromiter((x < y for x, y in zip(a, b)), bool, len(a))
        a_first = (da < db) | ((da == db) & lt)
        ao = np.array(a, dtype=object)
        bo = np.array(b, dtype=object)
        src = np.where(a_first, ao, bo)
        dst = np.where(a_first, bo, ao)
        return pa.table({"src": pa.array(src.tolist(), node_type),
                         "dst": pa.array(dst.tolist(), node_type)})

    oriented = j.map_batches(orient, batch_format="pyarrow")

    def wedges(bucket: pd.DataFrame) -> pd.DataFrame:
        a_out, b_out, s_out = [], [], []
        for src, grp in bucket.groupby("src", sort=False):
            outs = np.sort(grp["dst"].to_numpy())
            if outs.size < 2:
                continue
            ii, jj = np.triu_indices(outs.size, k=1)
            a_out.append(outs[ii])
            b_out.append(outs[jj])
            s_out.extend([src] * ii.size)
        if not a_out:
            e = bucket.iloc[:0]
            return pd.DataFrame({"a": e["dst"], "b": e["dst"], "w": e["src"]})
        return pd.DataFrame(
            {"a": np.concatenate(a_out), "b": np.concatenate(b_out),
             "w": s_out}
        )

    wedge_ds = bucketed_group_apply(oriented, ["src"], wedges, n_buckets=32)
    wedge_ds = drop_empty_blocks(wedge_ds.materialize())
    if wedge_ds.count() == 0:
        closed = None
    else:
        # a wedge (w; a, b) closes iff the undirected edge (a, b) exists
        closed = sized_join(wedge_ds, und, ("a", "b"))

    def tri_nodes(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"url": pa.concat_arrays(
                [batch.column("a").combine_chunks(),
                 batch.column("b").combine_chunks(),
                 batch.column("w").combine_chunks()])}
        )

    def count_nodes(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("url", sort=False).size().rename("n").reset_index()
        return out

    nodes = und.map_batches(explode, batch_format="pyarrow")
    if closed is None:
        counts = None
    else:
        counts = bucketed_group_apply(
            closed.map_batches(tri_nodes, batch_format="pyarrow"),
            ["url"], count_nodes, n_buckets=32,
        )

    def zero(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"url": batch.column("url"),
             "n": pa.array(np.zeros(len(batch), np.int64))}
        )

    base = bucketed_group_apply(
        nodes.map_batches(zero, batch_format="pyarrow"),
        ["url"],
        lambda df: df.drop_duplicates(["url"]),
        n_buckets=32,
    )
    unioned = base if counts is None else base.union(counts)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("url", sort=False)["n"].sum().rename("n_triangles").reset_index()
        out["n_triangles"] = out["n_triangles"].astype("int64")
        return out.rename(columns={"url": out_col})

    return bucketed_group_apply(unioned, ["url"], final, n_buckets=32)


# ------------------------------------------------- Adamic-Adar link scores
def adamic_adar_pairs(
    edges: rd.Dataset,
    src_col: str = "doc_a",
    dst_col: str = "doc_b",
    out_a: str = "doc_a",
    out_b: str = "doc_b",
    *,
    max_center_degree: int = 256,
) -> rd.Dataset:
    """Link prediction over an undirected pair graph: for every
    NON-adjacent pair (a, b) sharing at least one common neighbour,
    the Adamic–Adar score Σ_z 1/ln(deg(z)) over the common neighbours
    z — high-degree hubs contribute little, shared RARE neighbours a
    lot. Over the near-dup graph this surfaces "missing" duplicate
    edges LSH banding narrowly missed; over a link graph, pages that
    should link. → (out_a, out_b, aa_score), score ROUNDed to 6 (the
    addend multiset is identical on both sides; rounding bridges float
    summation order, same doctrine as the PMI/SIF oracles).

    Scale shape: wedge enumeration is the classic quadratic hot spot —
    a degree-D centre emits D(D−1)/2 candidate pairs, so centres above
    ``max_center_degree`` are EXCLUDED by contract (the df-cap
    doctrine: the cap is part of the operator's semantics and the SQL
    oracle applies the same cap; a 1M-degree hub contributes ~0 per
    pair anyway — 1/ln(10^6) ≈ 0.07 — while costing 10^12 wedges).
    Below ``DRIVER_FASTPATH_ROWS`` edge rows the whole graph resolves
    driver-locally (near-dup pair sets are corpus-tiny); above, the
    adjacency exchanges once (bucketed by node), wedges exchange once
    (bucketed by pair), and the anti-join against the edge set runs as
    a LEFT ``sized_join`` null-probe. Every exchange is edge- or
    wedge-sized; deg ≥ 2 for any wedge centre so ln() is never 0."""
    import pandas as pd

    import ray

    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import (
        bucketed_group_apply,
        drop_empty_blocks,
        sized_join,
    )

    def canon(batch: pa.Table) -> pa.Table:
        s = batch.column(src_col)
        d = batch.column(dst_col)
        keep = pc.not_equal(s, d)
        s, d = s.filter(keep), d.filter(keep)
        lo = pc.min_element_wise(s, d)
        hi = pc.max_element_wise(s, d)
        g = pa.table({"a": lo, "b": hi}).group_by(["a", "b"]).aggregate([])
        return pa.table({"a": g.column("a"), "b": g.column("b")})

    canoned = drop_empty_blocks(
        edges.map_batches(canon, batch_format="pyarrow").materialize()
    )
    node_type = (
        canoned.schema().base_schema.field("a").type
        if canoned.count()
        else pa.int64()
    )
    empty = pa.table(
        {
            out_a: pa.array([], node_type),
            out_b: pa.array([], node_type),
            "aa_score": pa.array([], pa.float64()),
        }
    )
    n_edge_rows = canoned.count()
    if n_edge_rows == 0:
        return rd.from_arrow(empty)

    if n_edge_rows <= DRIVER_FASTPATH_ROWS:
        et = pa.concat_tables(
            [t for t in ray.get(canoned.materialize().to_arrow_refs()) if len(t)]
        )
        a = np.asarray(et.column("a").to_pylist(), dtype=object)
        b = np.asarray(et.column("b").to_pylist(), dtype=object)
        nodes, codes = np.unique(np.concatenate([a, b]), return_inverse=True)
        ca, cb = codes[: len(a)], codes[len(a):]
        nn = len(nodes)
        upk = np.unique(
            np.minimum(ca, cb).astype(np.int64) * nn
            + np.maximum(ca, cb).astype(np.int64)
        )
        ca, cb = (upk // nn).astype(np.int64), (upk % nn).astype(np.int64)
        deg = np.bincount(ca, minlength=nn) + np.bincount(cb, minlength=nn)
        # adjacency grouped by centre
        ctr = np.concatenate([ca, cb])
        oth = np.concatenate([cb, ca])
        order = np.lexsort((oth, ctr))
        ctr, oth = ctr[order], oth[order]
        starts = np.flatnonzero(np.diff(ctr, prepend=ctr[0] - 1) != 0)
        lens = np.diff(np.append(starts, ctr.size))
        acc: dict[int, float] = {}
        for s0, ln in zip(starts, lens):
            if ln < 2 or ln > max_center_degree:
                continue
            w = 1.0 / np.log(float(ln))
            outs = oth[s0:s0 + ln]  # sorted by lexsort
            ii, jj = np.triu_indices(int(ln), k=1)
            pk = outs[ii] * nn + outs[jj]
            for p in pk:
                acc[int(p)] = acc.get(int(p), 0.0) + w
        if not acc:
            return rd.from_arrow(empty)
        edge_set = set(int(x) for x in upk)
        items = sorted(
            (p, v) for p, v in acc.items() if p not in edge_set
        )
        if not items:
            return rd.from_arrow(empty)
        pcode = np.asarray([p for p, _ in items], np.int64)
        return rd.from_arrow(
            pa.table(
                {
                    out_a: pa.array(list(nodes[pcode // nn]), node_type),
                    out_b: pa.array(list(nodes[pcode % nn]), node_type),
                    "aa_score": pa.array(
                        [round(v, 6) for _, v in items], pa.float64()
                    ),
                }
            )
        )

    # ---- distributed path: adjacency exchange → wedge exchange → anti-join
    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(["a", "b"])

    uniq = drop_empty_blocks(
        bucketed_group_apply(canoned, ["a", "b"], dedup_bucket).materialize()
    )

    def adj(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": pa.concat_arrays(
                    [
                        batch.column("a").combine_chunks().cast(node_type),
                        batch.column("b").combine_chunks().cast(node_type),
                    ]
                ),
                "nbr": pa.concat_arrays(
                    [
                        batch.column("b").combine_chunks().cast(node_type),
                        batch.column("a").combine_chunks().cast(node_type),
                    ]
                ),
            }
        )

    adjacency = uniq.map_batches(adj, batch_format="pyarrow")

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        outs_a, outs_b, ws = [], [], []
        for _, grp in g.groupby("node", sort=False):
            d = len(grp)
            if d < 2 or d > max_center_degree:
                continue
            w = 1.0 / np.log(float(d))
            nb = np.sort(grp["nbr"].to_numpy())
            ii, jj = np.triu_indices(d, k=1)
            outs_a.append(nb[ii])
            outs_b.append(nb[jj])
            ws.append(np.full(ii.size, w))
        if not outs_a:
            return pd.DataFrame({"pa": [], "pb": [], "w": []})
        return pd.DataFrame(
            {
                "pa": np.concatenate(outs_a),
                "pb": np.concatenate(outs_b),
                "w": np.concatenate(ws),
            }
        )

    wedge_ds = drop_empty_blocks(
        bucketed_group_apply(adjacency, ["node"], wedges).materialize()
    )
    if wedge_ds.count() == 0:
        return rd.from_arrow(empty)

    def sum_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["pa", "pb"], sort=False)["w"].sum().reset_index()
        return out

    scored = drop_empty_blocks(
        bucketed_group_apply(wedge_ds, ["pa", "pb"], sum_bucket).materialize()
    )

    def as_edge(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "pa": batch.column("a").combine_chunks().cast(node_type),
                "pb": batch.column("b").combine_chunks().cast(node_type),
                "is_edge": pa.array(np.ones(len(batch), np.int8)),
            }
        )

    joined = sized_join(
        scored,
        uniq.map_batches(as_edge, batch_format="pyarrow"),
        ("pa", "pb"),
        join_type="left_outer",
    )

    def finish(batch: pa.Table) -> pa.Table:
        keep = pc.is_null(batch.column("is_edge"))
        sub = batch.filter(keep)
        return pa.table(
            {
                out_a: sub.column("pa"),
                out_b: sub.column("pb"),
                "aa_score": pc.round(sub.column("w"), 6),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


def _ppr_driver(
    src: np.ndarray,
    dst: np.ndarray,
    seed_keys: np.ndarray,
    *,
    iterations: int,
    damping_num: int,
    damping_den: int,
    scale: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized fixed-point personalized PageRank: teleport mass goes
    ONLY to the seed nodes.  rank_0(v) = scale//|S| for seeds else 0;
    rank(v) = seed_base(v) + (dn·Σ_{u→v} rank(u)//outdeg(u)) // dd with
    seed_base = ((dd−dn)·(scale//|S|))//dd on seeds, 0 elsewhere.
    Pure int64 floor arithmetic — associative, so the unrolled SQL
    mirror is bit-exact."""
    nodes, codes = np.unique(np.concatenate([src, dst]), return_inverse=True)
    s = codes[: src.size]
    d = codes[src.size:]
    n = nodes.size
    is_seed = np.isin(nodes, seed_keys)
    n_seeds = int(is_seed.sum())
    if n_seeds == 0:
        return nodes, np.zeros(n, np.int64)
    r0 = scale // n_seeds
    base = ((damping_den - damping_num) * r0) // damping_den
    outdeg = np.bincount(s, minlength=n).astype(np.int64)
    safe_deg = np.maximum(outdeg, 1)
    rank = np.where(is_seed, r0, 0).astype(np.int64)
    max_indeg = int(np.bincount(d, minlength=n).max()) if d.size else 0
    for _ in range(iterations):
        share = rank[s] // safe_deg[s]
        # same silent-wrap guard as the Katz kernel (see above)
        if share.size and max_indeg and int(share.max()) > (2**63 - 1) // max(
            max_indeg * damping_num, 1
        ):
            raise OverflowError(
                "personalized-PageRank int64 fixed-point would overflow — "
                "lower scale, or switch the accumulator to object dtype"
            )
        contrib = np.zeros(n, np.int64)
        np.add.at(contrib, d, share)
        rank = np.where(is_seed, base, 0) + (damping_num * contrib) // damping_den
    return nodes, rank


def personalized_pagerank(
    edges: rd.Dataset,
    seeds: list[str],
    *,
    src_col: str = "src_url",
    dst_col: str = "dst_url",
    iterations: int = 5,
    damping_num: int = 85,
    damping_den: int = 100,
    scale: int = 10**12,
) -> rd.Dataset:
    """(src, dst) edges + seed urls → (url, ppr:int64 fixed-point) —
    random-walk-with-restart relatedness FROM the seed set (related-page
    discovery / topic-sensitive ranking; Haveliwala 2002).  Teleport
    lands only on seeds; everything else follows the global PageRank
    recipe (same damping, same fixed-point scale, duplicate edges
    collapsed, seeds outside the node set ignored).

    Scale shape: identical to :func:`pagerank` — slim distinct-edge
    exchange, node/edge-grain joins per iteration in the distributed
    path, driver fastpath below ``DRIVER_FASTPATH_ROWS``; the seed set
    broadcasts (it is query-sized)."""
    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import drop_empty_blocks, sized_join

    def slim(batch: pa.Table) -> pa.Table:
        t = pa.table({"s": batch.column(src_col), "d": batch.column(dst_col)})
        return t.group_by(["s", "d"]).aggregate([]).select(["s", "d"])

    slim_edges = edges.map_batches(slim, batch_format="pyarrow").materialize()
    n_edges = slim_edges.count()
    empty = pa.table(
        {"url": pa.array([], pa.string()), "ppr": pa.array([], pa.int64())}
    )
    if n_edges == 0:
        return rd.from_arrow(empty)

    seed_arr = np.array(sorted(set(seeds)))

    if n_edges <= DRIVER_FASTPATH_ROWS:
        tbl = pa.concat_tables(
            [pa.table(b) for b in slim_edges.iter_batches(batch_format="pyarrow")]
        )
        tbl = tbl.group_by(["s", "d"]).aggregate([]).select(["s", "d"])
        nodes, rank = _ppr_driver(
            tbl.column("s").to_numpy(zero_copy_only=False),
            tbl.column("d").to_numpy(zero_copy_only=False),
            seed_arr,
            iterations=iterations, damping_num=damping_num,
            damping_den=damping_den, scale=scale,
        )
        return rd.from_arrow(
            pa.table({"url": pa.array(nodes), "ppr": pa.array(rank, pa.int64())})
        )

    # ---- distributed path: the pagerank skeleton with a seed-dependent
    # base/init vector (seed set broadcast) ----
    from ..stages.grouping import bucketed_group_apply

    def dedup_bucket(g):
        return g.drop_duplicates(subset=["s", "d"])

    slim_edges = drop_empty_blocks(bucketed_group_apply(
        slim_edges, ["s", "d"], dedup_bucket, n_buckets=64
    ).materialize())

    def both_endpoints(batch: pa.Table) -> pa.Table:
        u = pa.concat_arrays(
            [batch.column("s").combine_chunks().cast(pa.string()),
             batch.column("d").combine_chunks().cast(pa.string())]
        )
        return pa.table({"u": u.unique()})

    nodes_ds = (
        slim_edges.map_batches(both_endpoints, batch_format="pyarrow")
        .groupby("u").count()
        .map_batches(lambda b: b.select(["u"]), batch_format="pyarrow")
        .materialize()
    )
    nodes_ds = drop_empty_blocks(nodes_ds)

    seed_ref = ray.put(seed_arr)

    def count_seeds(batch: pa.Table) -> pa.Table:
        sd = ray.get(seed_ref)
        u = batch.column("u").to_numpy(zero_copy_only=False)
        return pa.table({"c": pa.array([int(np.isin(u, sd).sum())], pa.int64())})

    n_seeds = 0
    seeds_ds = nodes_ds.map_batches(count_seeds, batch_format="pyarrow").materialize()
    for ref in seeds_ds.to_arrow_refs():
        n_seeds += int(
            np.sum(ray.get(ref).column("c").to_numpy(zero_copy_only=False))
        )
    if n_seeds == 0:
        return rd.from_arrow(empty)
    r0 = scale // n_seeds
    base = ((damping_den - damping_num) * r0) // damping_den

    def partial_deg(batch: pa.Table) -> pa.Table:
        t = pa.table({"u": batch.column("s"),
                      "c": pa.array(np.ones(len(batch), dtype=np.int64))})
        return t.group_by("u").aggregate([("c", "sum")]).rename_columns(["u", "c"])

    outdeg = (
        slim_edges.map_batches(partial_deg, batch_format="pyarrow")
        .groupby("u").sum("c")
        .map_batches(
            lambda b: pa.table({"u": b.column("u"),
                                "od": pc.cast(b.column("sum(c)"), pa.int64())}),
            batch_format="pyarrow",
        )
        .materialize()
    )
    outdeg = drop_empty_blocks(outdeg)

    def init_rank(batch: pa.Table) -> pa.Table:
        sd = ray.get(seed_ref)
        u = batch.column("u").to_numpy(zero_copy_only=False)
        r = np.where(np.isin(u, sd), r0, 0).astype(np.int64)
        return pa.table({"u": batch.column("u"), "r": pa.array(r)})

    ranks = nodes_ds.map_batches(init_rank, batch_format="pyarrow").materialize()

    for _ in range(iterations):
        share = drop_empty_blocks(sized_join(ranks, outdeg, ("u",)).map_batches(
            lambda b: pa.table({
                "s": b.column("u"),
                "sh": pa.array(
                    b.column("r").to_numpy(zero_copy_only=False)
                    // b.column("od").to_numpy(zero_copy_only=False),
                    pa.int64(),
                ),
            }),
            batch_format="pyarrow",
        ).materialize())

        def partial_contrib(batch: pa.Table) -> pa.Table:
            t = pa.table({"d": batch.column("d"), "c": batch.column("sh")})
            return t.group_by("d").aggregate([("c", "sum")]).rename_columns(["d", "c"])

        contrib = (
            sized_join(slim_edges, share, ("s",))
            .map_batches(partial_contrib, batch_format="pyarrow")
            .groupby("d").sum("c")
            .map_batches(
                lambda b: pa.table({"u": b.column("d"),
                                    "c": pc.cast(b.column("sum(c)"), pa.int64())}),
                batch_format="pyarrow",
            )
            .materialize()
        )
        contrib = drop_empty_blocks(contrib)

        def fold_rank(b: pa.Table, _base=base) -> pa.Table:
            sd = ray.get(seed_ref)
            u = b.column("u").to_numpy(zero_copy_only=False)
            c = b.column("c").fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
            r = np.where(np.isin(u, sd), _base, 0) + (damping_num * c) // damping_den
            return pa.table({"u": b.column("u"), "r": pa.array(r, pa.int64())})

        ranks = (
            sized_join(nodes_ds, contrib, ("u",), join_type="left_outer")
            .map_batches(fold_rank, batch_format="pyarrow")
            .materialize()
        )
        ranks = drop_empty_blocks(ranks)

    return ranks.map_batches(
        lambda b: pa.table({"url": b.column("u"), "ppr": b.column("r")}),
        batch_format="pyarrow",
    )


def _katz_driver(
    src: np.ndarray,
    dst: np.ndarray,
    *,
    iterations: int,
    alpha_num: int,
    alpha_den: int,
    scale: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized fixed-point Katz centrality: x_{t+1}(v) = scale +
    (α·Σ_{u→v} x_t(u)) // den, x_0 = scale — attenuated count of ALL
    inbound walks (no out-degree normalization, unlike PageRank).
    Associative int64 floor arithmetic → the unrolled SQL mirror is
    bit-exact."""
    nodes, codes = np.unique(np.concatenate([src, dst]), return_inverse=True)
    s = codes[: src.size]
    d = codes[src.size:]
    n = nodes.size
    x = np.full(n, scale, np.int64)
    max_indeg = int(np.bincount(d, minlength=n).max()) if d.size else 0
    for _ in range(iterations):
        # numpy int64 wraps silently where the DuckDB BIGINT mirror
        # would error — fail loud before the scatter-add can overflow
        if max_indeg and int(x.max()) > (2**63 - 1) // max(max_indeg * alpha_num, 1):
            raise OverflowError(
                "Katz int64 fixed-point would overflow (max rank x max "
                "in-degree x alpha_num exceeds int64) — lower scale or "
                "iterations, or switch the accumulator to object dtype"
            )
        contrib = np.zeros(n, np.int64)
        np.add.at(contrib, d, x[s])
        x = scale + (alpha_num * contrib) // alpha_den
    return nodes, x


def katz_centrality(
    edges: rd.Dataset,
    *,
    src_col: str = "src_url",
    dst_col: str = "dst_url",
    iterations: int = 5,
    alpha_num: int = 15,
    alpha_den: int = 100,
    scale: int = 10**9,
) -> rd.Dataset:
    """(src, dst) edges → (url, katz:int64 fixed-point) — Katz (1953)
    centrality: every inbound walk counts, attenuated α per hop, so
    low-degree nodes reachable from many places still score (the
    property degree and PageRank miss).  α_num/α_den must stay below
    1/λ_max of the adjacency matrix for the series to converge; the
    truncated fixed-point iteration here is exact arithmetic either
    way.

    Scale shape: the :func:`pagerank` skeleton minus the out-degree
    join — slim distinct-edge exchange; per iteration ONE edge⨝rank
    hash join + a dst-grain combiner; driver fastpath below
    ``DRIVER_FASTPATH_ROWS``."""
    from ..config import DRIVER_FASTPATH_ROWS
    from ..stages.grouping import bucketed_group_apply, drop_empty_blocks, sized_join

    def slim(batch: pa.Table) -> pa.Table:
        t = pa.table({"s": batch.column(src_col), "d": batch.column(dst_col)})
        return t.group_by(["s", "d"]).aggregate([]).select(["s", "d"])

    slim_edges = edges.map_batches(slim, batch_format="pyarrow").materialize()
    n_edges = slim_edges.count()
    if n_edges == 0:
        return rd.from_arrow(
            pa.table({"url": pa.array([], pa.string()),
                      "katz": pa.array([], pa.int64())})
        )

    if n_edges <= DRIVER_FASTPATH_ROWS:
        tbl = pa.concat_tables(
            [pa.table(b) for b in slim_edges.iter_batches(batch_format="pyarrow")]
        )
        tbl = tbl.group_by(["s", "d"]).aggregate([]).select(["s", "d"])
        nodes, x = _katz_driver(
            tbl.column("s").to_numpy(zero_copy_only=False),
            tbl.column("d").to_numpy(zero_copy_only=False),
            iterations=iterations, alpha_num=alpha_num,
            alpha_den=alpha_den, scale=scale,
        )
        return rd.from_arrow(
            pa.table({"url": pa.array(nodes), "katz": pa.array(x, pa.int64())})
        )

    def dedup_bucket(g):
        return g.drop_duplicates(subset=["s", "d"])

    slim_edges = drop_empty_blocks(bucketed_group_apply(
        slim_edges, ["s", "d"], dedup_bucket, n_buckets=64
    ).materialize())

    def both_endpoints(batch: pa.Table) -> pa.Table:
        u = pa.concat_arrays(
            [batch.column("s").combine_chunks().cast(pa.string()),
             batch.column("d").combine_chunks().cast(pa.string())]
        )
        return pa.table({"u": u.unique()})

    nodes_ds = (
        slim_edges.map_batches(both_endpoints, batch_format="pyarrow")
        .groupby("u").count()
        .map_batches(lambda b: b.select(["u"]), batch_format="pyarrow")
        .materialize()
    )
    nodes_ds = drop_empty_blocks(nodes_ds)

    ranks = nodes_ds.map_batches(
        lambda b: pa.table({"u": b.column("u"),
                            "r": pa.array(np.full(len(b), scale, np.int64))}),
        batch_format="pyarrow",
    ).materialize()

    for _ in range(iterations):
        share = drop_empty_blocks(
            sized_join(slim_edges, ranks.map_batches(
                lambda b: b.rename_columns(["s", "r"]), batch_format="pyarrow"
            ), ("s",)).materialize()
        )

        def partial_contrib(batch: pa.Table) -> pa.Table:
            t = pa.table({"d": batch.column("d"), "c": batch.column("r")})
            return t.group_by("d").aggregate([("c", "sum")]).rename_columns(["d", "c"])

        contrib = (
            share.map_batches(partial_contrib, batch_format="pyarrow")
            .groupby("d").sum("c")
            .map_batches(
                lambda b: pa.table({"u": b.column("d"),
                                    "c": pc.cast(b.column("sum(c)"), pa.int64())}),
                batch_format="pyarrow",
            )
            .materialize()
        )
        contrib = drop_empty_blocks(contrib)

        ranks = (
            sized_join(nodes_ds, contrib, ("u",), join_type="left_outer")
            .map_batches(
                lambda b: pa.table({
                    "u": b.column("u"),
                    "r": pa.array(
                        scale
                        + (
                            alpha_num
                            * b.column("c").fill_null(0)
                            .to_numpy(zero_copy_only=False).astype(np.int64)
                        ) // alpha_den,
                        pa.int64(),
                    ),
                }),
                batch_format="pyarrow",
            )
            .materialize()
        )
        ranks = drop_empty_blocks(ranks)

    return ranks.map_batches(
        lambda b: pa.table({"url": b.column("u"), "katz": b.column("r")}),
        batch_format="pyarrow",
    )
