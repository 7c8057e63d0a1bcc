"""Approximate-nearest-neighbor search over an embedding column.

Two paths over ``embeddings(vec_id, embedding: list<float>, label)``:

* ``brute_force_topk`` — the exact baseline: the query matrix is
  broadcast once (``ray.put``), every batch computes a float64 cosine
  matmul against it and emits only its per-batch top-k rows, the tiny
  partial-top-k union is reduced at the end. The corpus streams; only
  q×k rows per batch leave the tasks.
* ``lsh_topk`` — the scale path: random-hyperplane signature buckets
  (multi-probe over all single-bit flips) restrict the scan to
  candidate buckets; exact cosine re-rank inside. Recall/latency trades
  on (n_planes, n_probes); recall is measured against the brute-force
  baseline in tests.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd

from ..functions.vectors import embedding_vectors


def _cosine_topk_block(
    vecs: np.ndarray, ids: np.ndarray, queries: np.ndarray, k: int
) -> list[tuple[int, int, float]]:
    """→ [(query_id, vec_id, sim)] of the block's per-query top-k (f64)."""
    vn = vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-300)
    qn = queries / np.maximum(np.linalg.norm(queries, axis=1, keepdims=True), 1e-300)
    sims = qn @ vn.T  # (Q, N)
    out = []
    kk = min(k, sims.shape[1])
    for qi in range(sims.shape[0]):
        row = sims[qi]
        # deterministic tie-break (sim desc, vec_id asc)
        idx = np.lexsort((ids, -row))[:kk]
        for j in idx:
            out.append((qi, int(ids[j]), float(row[j])))
    return out


class BruteForceTopK:
    """map_batches actor: holds the broadcast query matrix; emits the
    batch-local top-k per query."""

    def __init__(self, queries_ref, k: int, id_col: str = "vec_id", vec_col: str = "embedding") -> None:
        ref = queries_ref[0] if isinstance(queries_ref, (list, tuple)) else queries_ref
        self.queries = np.asarray(ray.get(ref) if not isinstance(ref, np.ndarray) else ref, dtype=np.float64)
        self.k = k
        self.id_col = id_col
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        vecs = embedding_vectors(batch.column(self.vec_col))
        rows = _cosine_topk_block(vecs, ids, self.queries, self.k)
        return pa.table(
            {
                "query_id": pa.array([r[0] for r in rows], pa.int32()),
                "vec_id": pa.array([r[1] for r in rows], pa.int64()),
                "cosine": pa.array([r[2] for r in rows], pa.float64()),
            }
        )


def _final_topk(partials: rd.Dataset, k: int) -> "pa.Table":
    """Reduce the per-batch partial top-k union (q×k×n_blocks rows —
    small) to the global per-query top-k with deterministic ties."""
    tbl = partials.materialize().to_arrow_refs()
    tables = [ray.get(r) for r in tbl]
    big = pa.concat_tables([t for t in tables if len(t)]) if tables else None
    if big is None or len(big) == 0:
        return pa.table(
            {"query_id": pa.array([], pa.int32()), "rank": pa.array([], pa.int32()),
             "vec_id": pa.array([], pa.int64()), "cosine": pa.array([], pa.float64())}
        )
    q = big["query_id"].to_numpy(zero_copy_only=False)
    v = big["vec_id"].to_numpy(zero_copy_only=False)
    c = big["cosine"].to_numpy(zero_copy_only=False)
    out = {"query_id": [], "rank": [], "vec_id": [], "cosine": []}
    for qi in np.unique(q):
        m = q == qi
        order = np.lexsort((v[m], -c[m]))[:k]
        for rank, j in enumerate(order):
            out["query_id"].append(int(qi))
            out["rank"].append(rank)
            out["vec_id"].append(int(v[m][j]))
            out["cosine"].append(round(float(c[m][j]), 6))
    return pa.table(
        {
            "query_id": pa.array(out["query_id"], pa.int32()),
            "rank": pa.array(out["rank"], pa.int32()),
            "vec_id": pa.array(out["vec_id"], pa.int64()),
            "cosine": pa.array(out["cosine"], pa.float64()),
        }
    )


def brute_force_topk(
    embeddings: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    concurrency=(1, 8),
) -> pa.Table:
    """Exact cosine top-k → (query_id, rank, vec_id, cosine[r6])."""
    qref = [ray.put(np.asarray(queries, dtype=np.float64))]
    partials = embeddings.map_batches(
        BruteForceTopK,
        fn_constructor_kwargs={"queries_ref": qref, "k": k, "id_col": id_col, "vec_col": vec_col},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=concurrency,
    )
    return _final_topk(partials, k)


def _plane_signatures(vecs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    signs = (vecs @ planes) > 0
    keys = np.zeros(len(vecs), dtype=np.int64)
    for p in range(planes.shape[1]):
        keys |= signs[:, p].astype(np.int64) << p
    return keys


def deterministic_train_vectors(
    embeddings: rd.Dataset,
    train_sample: int,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> np.ndarray:
    """The ``train_sample`` vectors with the SMALLEST ids, in ascending
    id order — reproducible across block arrival order and cluster
    sizes (a plain ``limit().take_all()`` is not: it keeps whichever
    blocks finish first). Per-block bottom-k inside ``map_batches``,
    then an incremental driver merge that never holds more than
    ``2·train_sample`` rows."""

    def bottomk(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if ids.size > train_sample:
            idx = np.sort(np.argpartition(ids, train_sample - 1)[:train_sample])
            batch = batch.take(pa.array(idx))
        return pa.table(
            {id_col: batch.column(id_col), vec_col: batch.column(vec_col)}
        )

    best_ids = np.empty(0, np.int64)
    best_vecs: np.ndarray | None = None
    slim = embeddings.map_batches(bottomk, batch_format="pyarrow")
    for ref in slim.materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t):
            continue
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        vecs = embedding_vectors(t.column(vec_col))
        if best_vecs is None:
            all_ids, all_vecs = ids, vecs
        else:
            all_ids = np.concatenate([best_ids, ids])
            all_vecs = np.concatenate([best_vecs, vecs])
        order = np.argsort(all_ids, kind="stable")[:train_sample]
        best_ids, best_vecs = all_ids[order], all_vecs[order]
    if best_vecs is None:
        return np.empty((0, 0), np.float64)
    return best_vecs


def _kmeans_lite(sample: np.ndarray, k: int, iters: int = 8, seed: int = 42) -> np.ndarray:
    """Seeded mini k-means for IVF coarse quantization (numpy only)."""
    rng = np.random.default_rng(seed)
    cents = sample[rng.choice(len(sample), size=min(k, len(sample)), replace=False)].copy()
    for _ in range(iters):
        d = ((sample[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        for ci in range(len(cents)):
            m = assign == ci
            if m.any():
                cents[ci] = sample[m].mean(axis=0)
    return cents


def ivf_topk(
    embeddings: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    n_lists: int = 16,
    n_probe: int = 4,
    train_sample: int = 2048,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """IVF ANN: k-means coarse quantizer (trained on a seeded sample),
    each query scans only its ``n_probe`` nearest inverted lists; exact
    cosine re-rank inside. → (query_id, rank, vec_id, cosine[r6]).

    Scale shape: centroids are broadcast; assignment is a per-batch
    matmul; at cluster scale the corpus is written partitioned by list id
    and queries read only their probed partitions. Recall is tested
    against the brute-force baseline."""
    queries = np.asarray(queries, dtype=np.float64)
    sample = deterministic_train_vectors(
        embeddings, train_sample, id_col=id_col, vec_col=vec_col
    )
    cents = _kmeans_lite(sample, n_lists, seed=seed)
    cents_ref = [ray.put(cents)]
    qref = [ray.put(queries)]

    # per-query probed list ids (stable sort: distance ties resolve to
    # the smallest list id — mirrored by the SQL oracle's ORDER BY)
    qd = ((queries[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    probe_lists = np.argsort(qd, axis=1, kind="stable")[:, : min(n_probe, len(cents))]
    probe_sets = [set(row.tolist()) for row in probe_lists]
    wanted = sorted(set().union(*probe_sets)) if probe_sets else []
    wanted_arr = pa.array(wanted, pa.int64())

    def probe_batch(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vecs = embedding_vectors(batch.column(vec_col))
        empty = pa.table({"query_id": pa.array([], pa.int32()),
                          "vec_id": pa.array([], pa.int64()),
                          "cosine": pa.array([], pa.float64())})
        if not len(vecs):
            return empty
        c = ray.get(cents_ref[0])
        d = ((vecs[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        lists = d.argmin(axis=1).astype(np.int64)
        mask = pc.is_in(pa.array(lists), value_set=wanted_arr).to_numpy(zero_copy_only=False)
        if not mask.any():
            return empty
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)[mask]
        sub = vecs[mask]
        lists = lists[mask]
        qmat = ray.get(qref[0])
        vn = sub / np.maximum(np.linalg.norm(sub, axis=1, keepdims=True), 1e-300)
        qn = qmat / np.maximum(np.linalg.norm(qmat, axis=1, keepdims=True), 1e-300)
        sims = qn @ vn.T
        rows = []
        for qi, probes in enumerate(probe_sets):
            cand = np.isin(lists, list(probes))
            if not cand.any():
                continue
            row = sims[qi][cand]
            cids = ids[cand]
            idx = np.lexsort((cids, -row))[: min(k, row.size)]
            for j in idx:
                rows.append((qi, int(cids[j]), float(row[j])))
        return pa.table(
            {
                "query_id": pa.array([r[0] for r in rows], pa.int32()),
                "vec_id": pa.array([r[1] for r in rows], pa.int64()),
                "cosine": pa.array([r[2] for r in rows], pa.float64()),
            }
        )

    partials = embeddings.map_batches(probe_batch, batch_format="pyarrow", batch_size=4096)
    return _final_topk(partials, k)


def lsh_topk(
    embeddings: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    n_planes: int = 8,
    n_probes: int = 9,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """LSH-bucketed ANN: scan only buckets matching the query signature
    or one bit-flip away (multi-probe), exact re-rank inside.

    → (query_id, rank, vec_id, cosine[r6]). Partitioning assumption:
    bucket key is the ONE shuffle key; at cluster scale the bucketed
    table is written partitioned by key and probed per query."""
    queries = np.asarray(queries, dtype=np.float64)
    dim = queries.shape[1]
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, n_planes))

    qsigs = _plane_signatures(queries, planes)
    probe_sets: list[set[int]] = []
    for s in qsigs:
        # multi-probe: exact signature, then 1-bit flips, then 2-bit flips
        probes = {int(s)}
        for bit in range(n_planes):
            if len(probes) >= n_probes:
                break
            probes.add(int(s) ^ (1 << bit))
        for b1 in range(n_planes):
            for b2 in range(b1 + 1, n_planes):
                if len(probes) >= n_probes:
                    break
                probes.add(int(s) ^ (1 << b1) ^ (1 << b2))
        probe_sets.append(probes)
    wanted = sorted(set().union(*probe_sets)) if probe_sets else []
    wanted_arr = pa.array(wanted, pa.int64())
    qref = [ray.put(queries)]

    def probe_batch(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        vecs = embedding_vectors(batch.column(vec_col))
        if not len(vecs):
            return pa.table({"query_id": pa.array([], pa.int32()),
                             "vec_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        keys = _plane_signatures(vecs, planes)
        mask = pc.is_in(pa.array(keys), value_set=wanted_arr).to_numpy(zero_copy_only=False)
        if not mask.any():
            return pa.table({"query_id": pa.array([], pa.int32()),
                             "vec_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)[mask]
        sub = vecs[mask]
        keys = keys[mask]
        qmat = ray.get(qref[0])
        rows = []
        vn = sub / np.maximum(np.linalg.norm(sub, axis=1, keepdims=True), 1e-300)
        qn = qmat / np.maximum(np.linalg.norm(qmat, axis=1, keepdims=True), 1e-300)
        sims = qn @ vn.T
        for qi, probes in enumerate(probe_sets):
            cand = np.fromiter((kk in probes for kk in keys), dtype=bool, count=len(keys))
            if not cand.any():
                continue
            row = sims[qi][cand]
            cids = ids[cand]
            idx = np.lexsort((cids, -row))[: min(k, row.size)]
            for j in idx:
                rows.append((qi, int(cids[j]), float(row[j])))
        return pa.table(
            {
                "query_id": pa.array([r[0] for r in rows], pa.int32()),
                "vec_id": pa.array([r[1] for r in rows], pa.int64()),
                "cosine": pa.array([r[2] for r in rows], pa.float64()),
            }
        )

    partials = embeddings.map_batches(probe_batch, batch_format="pyarrow", batch_size=4096)
    return _final_topk(partials, k)


def label_centroids(embeddings: rd.Dataset) -> rd.Dataset:
    """→ (label, dim, centroid): the per-label mean embedding, exploded
    per dimension — class prototypes for centroid-based classification,
    cluster drift monitoring, or IVF seeding.

    Scale shape: each batch emits (label, dim, s=partial sum, c=partial
    count) rows — labels×dim rows per batch regardless of batch size
    (the combiner) — and one tiny groupby-sum finishes; the corpus of
    vectors never shuffles."""
    import pyarrow.compute as pc

    from ..functions.vectors import embedding_vectors

    def partials(batch: pa.Table) -> pa.Table:
        vecs = embedding_vectors(batch.column("embedding"))
        labels = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(labels, return_inverse=True)
        dim = vecs.shape[1]
        sums = np.zeros((len(uniq), dim), np.float64)
        np.add.at(sums, inv, vecs)
        cnts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(uniq, dim)),
                "dim": pa.array(np.tile(np.arange(dim, dtype=np.int64), len(uniq))),
                "s": pa.array(sums.ravel()),
                "c": pa.array(np.repeat(cnts, dim)),
            }
        )

    parts = embeddings.select_columns(["label", "embedding"]).map_batches(
        partials, batch_format="pyarrow"
    )
    agg = parts.groupby(["label", "dim"]).sum(["s", "c"])
    return agg.map_batches(
        lambda t: pa.table(
            {
                "label": pc.cast(t["label"], pa.int64()),
                "dim": pc.cast(t["dim"], pa.int64()),
                "centroid": pa.array(
                    np.round(
                        t["sum(s)"].to_numpy(zero_copy_only=False)
                        / np.maximum(t["sum(c)"].to_numpy(zero_copy_only=False), 1),
                        6,
                    ),
                    pa.float64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


def centroid_confusion(embeddings: rd.Dataset) -> rd.Dataset:
    """→ (label, pred_label, cnt): nearest-centroid classification of
    every vector against the per-label mean embeddings, aggregated as a
    confusion matrix — the embedding-space health check (how separable
    are the labels?).

    Scale shape: centroids are computed by the :func:`label_centroids`
    partial-sum reduce (labels×dim rows), broadcast via ``ray.put``, and
    the assignment is one matmul per batch + a labels²-sized count
    combiner; the vector corpus never shuffles. Distance ties break on
    the lower label id (argmin), mirrored in SQL by (dist, label)
    ordering."""
    import ray

    import pyarrow.compute as pc

    from ..functions.vectors import embedding_vectors

    cents = label_centroids(embeddings).to_pandas()  # labels×dim: tiny
    cents = cents.sort_values(["label", "dim"])
    labels = np.sort(cents["label"].unique())
    dim = int(cents["dim"].max()) + 1
    cmat = cents["centroid"].to_numpy(np.float64).reshape(len(labels), dim)
    cref = ray.put((labels.astype(np.int64), cmat))

    def assign(batch: pa.Table) -> pa.Table:
        labs, cm = ray.get(cref)
        v = embedding_vectors(batch.column("embedding"))
        true = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        # same difference-form distances as the IVF assignment (its SQL
        # list_distance mirror is proven ordering-compatible)
        d2 = ((v[:, None, :] - cm[None, :, :]) ** 2).sum(axis=2)
        pred = labs[np.argmin(d2, axis=1)]
        t = pa.table(
            {"label": pa.array(true), "pred_label": pa.array(pred)}
        )
        c = t.group_by(["label", "pred_label"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "label": c["label"],
                "pred_label": c["pred_label"],
                "cnt": pc.cast(c["count_all"], pa.int64()),
            }
        )

    parts = embeddings.select_columns(["label", "embedding"]).map_batches(
        assign, batch_format="pyarrow"
    )
    agg = parts.groupby(["label", "pred_label"]).sum("cnt")
    return agg.map_batches(
        lambda t: pa.table(
            {
                "label": pc.cast(t["label"], pa.int64()),
                "pred_label": pc.cast(t["pred_label"], pa.int64()),
                "cnt": pc.cast(t["sum(cnt)"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def pq_codes_ds(
    embeddings: rd.Dataset,
    m: int = 4,
    ksub: int = 16,
    train_sample: int = 2048,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """→ (vec_id, sub, code) — PRODUCT QUANTIZATION codes (Jégou et al.,
    TPAMI 2011): the vector splits into ``m`` contiguous subspaces, each
    with its own ``ksub``-centroid k-means codebook; a vector compresses
    to m small integers (m·log2(ksub) bits — the memory layout IVF-PQ
    ANN serving is built on). Codebooks train on the deterministic
    smallest-id sample (reproducible across block order and cluster
    size, like the IVF coarse quantizer); assignment ties break toward
    the smaller code, mirroring the SQL argmin rule.

    Scale shape: codebooks are m·ksub·(D/m) floats — broadcast once via
    ``ray.put``; encoding is a shuffle-free per-batch matmul-free
    squared-distance argmin over the zero-copy flat child array."""
    import ray

    sample = deterministic_train_vectors(
        embeddings, train_sample, id_col=id_col, vec_col=vec_col
    )
    dim = sample.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    d = dim // m
    books = np.stack(
        [
            _kmeans_lite(sample[:, s * d : (s + 1) * d], ksub, seed=seed + s)
            for s in range(m)
        ]
    )  # (m, ksub', d)
    bref = ray.put(books)

    def stage(batch: pa.Table) -> pa.Table:
        import ray as _ray

        bk = _ray.get(bref)
        col = batch.column(vec_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
        n = len(batch)
        if not n:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "sub": pa.array([], pa.int64()),
                    "code": pa.array([], pa.int64()),
                }
            )
        x = flat.reshape(n, dim)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        subs, codes = [], []
        for s in range(bk.shape[0]):
            xs = x[:, s * d : (s + 1) * d]
            dist = ((xs[:, None, :] - bk[s][None, :, :]) ** 2).sum(axis=2)
            codes.append(dist.argmin(axis=1).astype(np.int64))  # first min == smallest code
            subs.append(np.full(n, s, np.int64))
        return pa.table(
            {
                "vec_id": pa.array(np.tile(ids, bk.shape[0]), pa.int64()),
                "sub": pa.array(np.concatenate(subs), pa.int64()),
                "code": pa.array(np.concatenate(codes), pa.int64()),
            }
        )

    return embeddings.select_columns([id_col, vec_col]).map_batches(
        stage, batch_format="pyarrow"
    )


def pq_topk(
    embeddings: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    m: int = 4,
    ksub: int = 16,
    train_sample: int = 2048,
    seed: int = 42,
    rerank: int = 64,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """PQ-ADC ANN: encode the corpus with per-subspace codebooks (the
    ``pq_codes_ds`` quantizer), score every vector against each query by
    ASYMMETRIC DISTANCE — Σ over subspaces of the squared distance
    between the query subvector and the vector's ASSIGNED codebook entry
    (one m·ksub lookup table per query, the memory-bandwidth trick that
    lets IVF-PQ serve billion-vector indexes) — keep the ``rerank``
    best candidates per query and re-rank them by exact cosine.
    → (query_id, rank, vec_id, cosine[r6]).

    Determinism: candidate selection orders by (ADC rounded to 9,
    vec_id) — the 1e-9 rounding absorbs float summation-order noise so
    the SQL mirror selects the identical candidate set; codebooks and
    assignment reuse the deterministic pq_codes contract.

    Scale shape: codebooks + queries broadcast once; per-batch encode +
    LUT-gather + partial top-``rerank`` (the only thing leaving a batch
    is rerank·n_queries candidate rows with their exact cosines)."""
    import ray

    queries = np.asarray(queries, dtype=np.float64)
    sample = deterministic_train_vectors(
        embeddings, train_sample, id_col=id_col, vec_col=vec_col
    )
    dim = sample.shape[1]
    if dim % m:
        raise ValueError(f"dim {dim} not divisible by m={m}")
    d = dim // m
    books = np.stack(
        [
            _kmeans_lite(sample[:, s * d : (s + 1) * d], ksub, seed=seed + s)
            for s in range(m)
        ]
    )
    bref = ray.put(books)
    qref = ray.put(queries)

    def stage(batch: pa.Table) -> pa.Table:
        import ray as _ray

        bk, qs = _ray.get(bref), _ray.get(qref)
        empty = pa.table(
            {
                "query_id": pa.array([], pa.int32()),
                "vec_id": pa.array([], pa.int64()),
                "ad": pa.array([], pa.float64()),
                "cos": pa.array([], pa.float64()),
            }
        )
        n = len(batch)
        if not n:
            return empty
        col = batch.column(vec_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        x = (
            col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
            .reshape(n, dim)
        )
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        mm, kk = bk.shape[0], bk.shape[1]
        codes = np.empty((n, mm), np.int64)
        for s in range(mm):
            xs = x[:, s * d : (s + 1) * d]
            dist = ((xs[:, None, :] - bk[s][None, :, :]) ** 2).sum(axis=2)
            codes[:, s] = dist.argmin(axis=1)
        # per-query LUT: squared distance in the SQL shape
        # (sqrt then square, so ROUND(·,9) sees the same doubles)
        out = []
        qn = np.linalg.norm(qs, axis=1)
        xn = np.linalg.norm(x, axis=1)
        for qi in range(len(qs)):
            lut = np.empty((mm, kk), np.float64)
            for s in range(mm):
                qsub = qs[qi, s * d : (s + 1) * d]
                lut[s] = (
                    np.sqrt(((bk[s] - qsub[None, :]) ** 2).sum(axis=1)) ** 2
                )
            ad = lut[np.arange(mm)[None, :], codes].sum(axis=1)
            adr = np.round(ad, 9)
            take = min(rerank, n)
            part = np.lexsort((ids, adr))[:take]
            cos = (x[part] @ qs[qi]) / np.maximum(xn[part] * qn[qi], 1e-300)
            out.append(
                pa.table(
                    {
                        "query_id": pa.array(
                            np.full(len(part), qi, np.int32), pa.int32()
                        ),
                        "vec_id": pa.array(ids[part], pa.int64()),
                        "ad": pa.array(adr[part], pa.float64()),
                        "cos": pa.array(cos, pa.float64()),
                    }
                )
            )
        return pa.concat_tables(out)

    partials = embeddings.select_columns([id_col, vec_col]).map_batches(
        stage, batch_format="pyarrow", batch_size=4096
    )
    tables = [ray.get(r) for r in partials.materialize().to_arrow_refs()]
    big = pa.concat_tables([t for t in tables if len(t)])
    if not len(big):
        return pa.table(
            {
                "query_id": pa.array([], pa.int32()),
                "rank": pa.array([], pa.int32()),
                "vec_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
    qid = big.column("query_id").to_numpy()
    vid = big.column("vec_id").to_numpy()
    ad = big.column("ad").to_numpy()
    cos = big.column("cos").to_numpy()
    out_q, out_r, out_v, out_c = [], [], [], []
    for qi in np.unique(qid):
        msk = qid == qi
        v, a, c = vid[msk], ad[msk], cos[msk]
        order = np.lexsort((v, a))[:rerank]  # global candidate set
        v, c = v[order], c[order]
        rr = np.lexsort((v, -c))[:k]
        out_q.extend([int(qi)] * len(rr))
        out_r.extend(range(len(rr)))
        out_v.extend(v[rr].tolist())
        out_c.extend(np.round(c[rr], 6).tolist())
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int32()),
            "rank": pa.array(out_r, pa.int32()),
            "vec_id": pa.array(out_v, pa.int64()),
            "cosine": pa.array(out_c, pa.float64()),
        }
    )


def mmr_topk(
    embeddings: rd.Dataset,
    query: np.ndarray,
    *,
    n_candidates: int = 20,
    k: int = 5,
    lam: float = 0.7,
    mu: float = 0.3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """→ (rank, vec_id, mmr) — maximal-marginal-relevance result
    diversification (Carbonell & Goldstein '98, public formulation):
    greedily pick k of the ``n_candidates`` nearest vectors maximizing
    ``lam·sim(query, c) − mu·max_{s∈selected} sim(c, s)`` — the standard
    post-retrieval diversifier of a RAG / search stack. ``mu`` is passed
    explicitly rather than derived as 1−lam so both sides of the SQL
    mirror use the SAME double constants (1−0.7 ≠ 0.3 in binary).

    Scale shape: candidate generation is the distributed brute-force
    pass (per-batch partial top-k); the greedy runs on the driver over
    the n_candidates×n_candidates similarity matrix — candidates are
    O(k), never the corpus. All similarities ROUND to 6 decimals before
    the greedy so selection is float-order-proof against the DuckDB
    ``list_cosine_similarity`` mirror; ties break on vec_id asc."""
    query = np.asarray(query, dtype=np.float64)
    cand = brute_force_topk(
        embeddings, query[None, :], k=n_candidates, id_col=id_col, vec_col=vec_col
    )
    ids = cand.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
    sq = cand.column("cosine").to_numpy(zero_copy_only=False)  # already ROUND 6
    empty = pa.table(
        {
            "rank": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "mmr": pa.array([], pa.float64()),
        }
    )
    if not ids.size:
        return empty
    import pyarrow.compute as pc

    from ..functions.vectors import embedding_vectors

    id_set = pa.array(np.sort(ids), pa.int64())
    got = embeddings.map_batches(
        lambda t: t.filter(pc.is_in(t.column(id_col), id_set)),
        batch_format="pyarrow",
    ).take_all()
    got.sort(key=lambda r: r[id_col])
    fetched_ids = np.array([r[id_col] for r in got], np.int64)
    vecs = np.asarray([r[vec_col] for r in got], np.float64)
    # candidate order alignment
    pos = np.searchsorted(fetched_ids, ids)
    vecs = vecs[pos]
    vn = vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-300)
    sims = np.round(vn @ vn.T, 6)  # candidate-candidate, ROUND 6
    n = len(ids)
    selected: list[int] = []
    remaining = np.ones(n, dtype=bool)
    out_rank, out_id, out_mmr = [], [], []
    for step in range(min(int(k), n)):
        if selected:
            ms = sims[:, selected].max(axis=1)
        else:
            ms = np.zeros(n, np.float64)
        mmr = lam * sq - mu * ms
        mmr_masked = np.where(remaining, mmr, -np.inf)
        order = np.lexsort((ids, -mmr_masked))
        pick = int(order[0])
        selected.append(pick)
        remaining[pick] = False
        out_rank.append(step + 1)
        out_id.append(int(ids[pick]))
        out_mmr.append(round(float(mmr[pick]), 9))
    return pa.table(
        {
            "rank": pa.array(out_rank, pa.int64()),
            "vec_id": pa.array(out_id, pa.int64()),
            "mmr": pa.array(out_mmr, pa.float64()),
        }
    )


def embedding_covariance(
    embeddings: rd.Dataset, vec_col: str = "embedding"
) -> rd.Dataset:
    """→ (i, j, cov) for i ≤ j: the embedding covariance matrix — the
    Gram/second-moment pass behind PCA, whitening, and anisotropy
    checks on an embedding corpus.

    Scale shape: each batch contributes ONE d×d partial (``v.T @ v`` —
    a single BLAS call — plus the coordinate sums), exploded to the
    upper triangle: d(d+1)/2 combiner rows per batch REGARDLESS of
    batch size; one tiny (i, j)-keyed groupby-sum finishes and the
    vector corpus never shuffles. cov = (Σxy − Σx·Σy/n)/n computed in
    that exact arithmetic shape on both sides (float32 inputs widen to
    float64 exactly); the float64 Σ differs from SQL only in addend
    order, absorbed at round 6."""
    import pyarrow.compute as pc

    from ..functions.vectors import embedding_vectors

    def partials(batch: pa.Table) -> pa.Table:
        v = embedding_vectors(batch.column(vec_col))
        if not v.size:
            return pa.table(
                {
                    "i": pa.array([], pa.int64()),
                    "j": pa.array([], pa.int64()),
                    "sxy": pa.array([], pa.float64()),
                    "sx": pa.array([], pa.float64()),
                    "sy": pa.array([], pa.float64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        d = v.shape[1]
        g = v.T @ v
        s = v.sum(axis=0)
        iu, ju = np.triu_indices(d)
        return pa.table(
            {
                "i": pa.array(iu.astype(np.int64)),
                "j": pa.array(ju.astype(np.int64)),
                "sxy": pa.array(g[iu, ju]),
                "sx": pa.array(s[iu]),
                "sy": pa.array(s[ju]),
                "n": pa.array(np.full(iu.size, len(v), np.int64)),
            }
        )

    agg = (
        embeddings.select_columns([vec_col])
        .map_batches(partials, batch_format="pyarrow")
        .groupby(["i", "j"])
        .sum(["sxy", "sx", "sy", "n"])
    )

    def fin(batch: pa.Table) -> pa.Table:
        sxy = batch.column("sum(sxy)").to_numpy(zero_copy_only=False)
        sx = batch.column("sum(sx)").to_numpy(zero_copy_only=False)
        sy = batch.column("sum(sy)").to_numpy(zero_copy_only=False)
        n = batch.column("sum(n)").to_numpy(zero_copy_only=False).astype(np.float64)
        cov = np.round((sxy - sx * sy / n) / n, 6)
        return pa.table(
            {
                "i": pc.cast(batch.column("i"), pa.int64()),
                "j": pc.cast(batch.column("j"), pa.int64()),
                "cov": pa.array(cov, pa.float64()),
            }
        )

    return agg.map_batches(fin, batch_format="pyarrow")


def kmeans_inertia(
    embeddings: rd.Dataset,
    *,
    n_clusters: int = 8,
    train_sample: int = 2048,
    seed: int = 42,
) -> "pd.DataFrame":
    """→ (lst, n_vecs, inertia): clustering-quality monitoring — per
    k-means cluster the member count and the within-cluster sum of
    squared distances (the inertia a curation pipeline tracks to decide
    when embeddings have drifted enough to re-train its IVF / SemDeDup
    quantizers).

    The centroids are the SAME deterministic recipe the persisted IVF
    index trains with (min-vec_id sample + seeded :func:`_kmeans_lite`),
    so the DuckDB oracle rebuilds them as VALUES; assignment breaks
    distance ties on the lower list id (the shared convention).

    Scale shape: centroids broadcast; ONE pass of per-batch (cluster →
    n, Σ‖x−c‖²) partials — the exchange is k-sized per batch; no
    shuffle of the vectors themselves."""
    import pandas as pd

    from ..functions.vectors import embedding_vectors

    sample = deterministic_train_vectors(
        embeddings.select_columns(["vec_id", "embedding"]), train_sample
    )
    cents = _kmeans_lite(sample, n_clusters, seed=seed)
    c_ref = ray.put(cents.astype(np.float64))

    def partial(batch: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        v = embedding_vectors(batch.column("embedding")).astype(np.float64)
        # squared euclid per centroid; argmin ties → lower list id
        d2 = ((v[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        lst = np.argmin(d2, axis=1)
        best = d2[np.arange(len(v)), lst]
        n = np.bincount(lst, minlength=len(c)).astype(np.int64)
        s = np.zeros(len(c), np.float64)
        np.add.at(s, lst, best)
        keep = n > 0
        return pa.table(
            {
                "lst": pa.array(np.nonzero(keep)[0].astype(np.int64)),
                "n_vecs": pa.array(n[keep]),
                "inertia": pa.array(s[keep], pa.float64()),
            }
        )

    agg = (
        embeddings.select_columns(["embedding"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("lst")
        .sum(["n_vecs", "inertia"])
    )
    rows: dict[int, tuple[int, float]] = {}
    for ref in agg.materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t) or "lst" not in t.column_names:
            continue
        for r in t.to_pylist():
            n0, s0 = rows.get(r["lst"], (0, 0.0))
            rows[r["lst"]] = (n0 + r["sum(n_vecs)"], s0 + r["sum(inertia)"])
    keys = sorted(rows)
    return pd.DataFrame(
        {
            "lst": keys,
            "n_vecs": [rows[k][0] for k in keys],
            "inertia": [round(rows[k][1], 6) for k in keys],
        }
    )
