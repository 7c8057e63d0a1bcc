"""Persisted, partitioned ANN index (the 100 TB serving story).

Round-1 ANN operators re-scanned (and re-signed / re-trained over) the
full embedding corpus on EVERY query call. This module writes the
bucketed layout ONCE — a build-time Ray job with a lineage manifest,
exactly like the posting segments — and serves top-k by reading only
the probed partitions:

* LSH index — random-hyperplane signature per vector (seeded planes →
  reproducible across runs/cluster sizes); one Parquet partition file
  per bucket key, written atomically via a groupby(bucket) writer.
  ``AnnIndex.topk`` computes the query's probe set (exact signature +
  1-bit + 2-bit flips, same semantics as ``ann.lsh_topk``) and reads ≤
  n_probes partition files.
* IVF index — k-means coarse quantizer trained on a seeded sample
  (driver-side, tiny); one partition per inverted list; queries probe
  the ``n_probe`` nearest lists.

Partitioning assumption (documented per the operator contract): the
bucket/list id is the ONE shuffle key; at cluster scale partitions are
directories of many files and the probe read is a partition-pruned
``read_parquet`` instead of single files. Recall equals the scan-based
operators' (same candidate rule) and is tested against brute force.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data as rd

from ..functions.vectors import embedding_vectors
from ..state.manifest import atomic_write_json, fingerprint_inputs, read_json
from ..state.segments import SegmentStore
from .ann import _kmeans_lite, _plane_signatures, deterministic_train_vectors


def _store(index_dir: str | Path) -> SegmentStore:
    return SegmentStore(
        Path(index_dir), bases=("bucket=*", "list=*"), id_cols=("vec_id",), prefix="ann_"
    )


def _merge_partition(store: SegmentStore, segs, tombs) -> pa.Table | None:
    """THE ANN merge, shared by probes and compaction: one partition's
    base + delta rows, minus the vectors a later tombstone kills, one row
    per vec_id."""
    return store.merge([(pq.read_table(f), seq) for f, seq in segs], ("vec_id",), tombs)


def delete_vectors(index_dir: str | Path, vec_ids, input_token: str | None = None) -> dict:
    """Tombstone-delete vectors from a persisted ANN index: one kill set
    on the shared LSM seq counter, so a delete→re-append keeps the
    re-added vector. Probes filter per SEGMENT seq at read time;
    ``compact_ann_index`` folds the kill set. Same-token re-deletes are
    skipped."""
    return _store(index_dir).delete(vec_ids, input_token)


def append_vectors(
    index_dir: str | Path,
    embeddings: rd.Dataset,
    input_token: str | None = None,
    *,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> dict:
    """LSM-style micro-batch vector ingest: key the NEW vectors with the
    index's FROZEN quantizer (the seeded hyperplanes for LSH, the
    persisted centroids for IVF — standard frozen-codebook streaming
    insert) and write one delta file per touched partition. vec_ids
    must be new — the caller's versioning contract, as
    everywhere in this repo's LSM paths. Probes merge base + deltas per
    partition; ``compact_ann_index`` folds them. Same-token re-appends
    are skipped."""
    out = Path(index_dir)
    mf = read_json(out / "ann_manifest.json")
    if not mf:
        raise FileNotFoundError(f"no ann_manifest.json under {index_dir}")
    store = _store(out)
    return store.once("append", input_token, lambda: _append(store, mf, embeddings, id_col, vec_col))


def _append(store: SegmentStore, mf: dict, embeddings: rd.Dataset, id_col: str, vec_col: str) -> dict:
    out = store.root
    seq = store.next_seq()
    kind = mf["kind"]
    key_col = "bucket" if kind == "lsh" else "list"
    dim = int(mf["dim"])
    if kind == "lsh":
        rng = np.random.default_rng(int(mf["seed"]))
        planes = rng.standard_normal((dim, int(mf["n_planes"])))
        cents = None
    else:
        planes = None
        cents = np.load(out / "centroids.npy")

    def tag(batch: pa.Table) -> pa.Table:
        vecs = embedding_vectors(batch.column(vec_col))
        if kind == "lsh":
            keys = _plane_signatures(vecs, planes)
        else:
            d = ((vecs[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            keys = d.argmin(axis=1).astype(np.int64)
        norms = np.linalg.norm(vecs, axis=1)
        return pa.table(
            {
                key_col: pa.array(np.asarray(keys, np.int64), pa.int64()),
                "vec_id": batch.column(id_col),
                "embedding": batch.column(vec_col),
                "norm": pa.array(norms, pa.float64()),
            }
        )

    res_df = (
        embeddings.map_batches(tag, batch_format="pyarrow")
        .groupby(key_col)
        .map_groups(_partition_writer(store, key_col, seq), batch_format="pandas")
        .to_pandas()
    )
    return {
        "seq": seq,
        "n_partitions_touched": int(len(res_df)),
        "n_vectors": int(res_df["n"].sum()) if len(res_df) else 0,
    }


def compact_ann_index(index_dir: str | Path) -> dict:
    """Fold every delta file and live tombstone into its base partition
    (one Ray task per partition — independent bucket/list shards;
    ``state/segments.py`` owns the lifecycle). Probe results are
    identical before and after (tested); a re-run after an interruption
    converges."""
    store = _store(index_dir)
    counts = store.compact(lambda key, segs, tombs: _merge_partition(store, segs, tombs))
    if not counts:
        return {"n_partitions_compacted": 0}
    return {"n_partitions_compacted": len(counts), "n_rows": int(sum(counts.values()))}


def _partition_writer(store: SegmentStore, key_col: str, seq: int | None = None):
    """map_groups body: write one partition file per key — its base
    (``seq`` None) or its delta at ``seq``."""

    def write_group(group: pd.DataFrame) -> pd.DataFrame:
        if not len(group):
            return pd.DataFrame({key_col: np.array([], np.int64), "n": np.array([], np.int64)})
        key = int(group[key_col].iloc[0])
        tbl = pa.Table.from_pandas(
            group.sort_values("vec_id").reset_index(drop=True), preserve_index=False
        )
        store.write(f"{key_col}={key:05d}", tbl, seq)
        return pd.DataFrame({key_col: [key], "n": [len(group)]})

    return write_group


def build_lsh_index(
    embeddings: rd.Dataset,
    index_dir: str | Path,
    *,
    n_planes: int = 8,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    input_token: str = "",
    input_files: list[str] | None = None,
) -> dict:
    """Write the hyperplane-bucketed layout once; resumable (manifest
    fingerprint short-circuits an identical rebuild; ``input_files``
    stats invalidate it when the source data changes)."""
    index_dir = Path(index_dir)
    index_dir.mkdir(parents=True, exist_ok=True)
    # layout 2: the shared segment store's seq counter and stamp
    params = {"kind": "lsh", "n_planes": n_planes, "seed": seed, "input": input_token,
              "layout": 2}
    fp = fingerprint_inputs(input_files or [], params)
    mf = read_json(index_dir / "ann_manifest.json")
    if mf and mf.get("fingerprint") == fp:
        return mf
    store = _store(index_dir)
    store.reset()

    def tag(batch: pa.Table) -> pa.Table:
        vecs = embedding_vectors(batch.column(vec_col))
        dim = vecs.shape[1]
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((dim, n_planes))
        keys = _plane_signatures(vecs, planes)
        norms = np.linalg.norm(vecs, axis=1)
        return pa.table(
            {
                "bucket": pa.array(keys, pa.int64()),
                "vec_id": batch.column(id_col),
                "embedding": batch.column(vec_col),
                "norm": pa.array(norms, pa.float64()),
            }
        )

    tagged = embeddings.map_batches(tag, batch_format="pyarrow")
    res = (
        tagged.groupby("bucket")
        .map_groups(_partition_writer(store, "bucket"), batch_format="pandas")
        .to_pandas()
    )
    # dim from any partition file (one-row read)
    first = sorted(index_dir.glob("bucket=*.parquet"))[0]
    sample = pq.read_table(first, columns=["embedding"]).column("embedding")
    dim = len(sample[0])
    manifest = {
        "fingerprint": fp,
        **params,
        "dim": int(dim),
        "n_vectors": int(res["n"].sum()) if len(res) else 0,
        "n_partitions": int(len(res)),
    }
    atomic_write_json(index_dir / "ann_manifest.json", manifest)
    return manifest


def build_ivf_index(
    embeddings: rd.Dataset,
    index_dir: str | Path,
    *,
    n_lists: int = 16,
    train_sample: int = 2048,
    seed: int = 42,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    input_token: str = "",
    input_files: list[str] | None = None,
) -> dict:
    """Train the coarse quantizer once (seeded sample), persist the
    centroids + one partition per inverted list."""
    index_dir = Path(index_dir)
    index_dir.mkdir(parents=True, exist_ok=True)
    params = {
        "kind": "ivf", "n_lists": n_lists, "train_sample": train_sample,
        "seed": seed, "input": input_token,
        # training sample = the train_sample SMALLEST vec_ids (block-order
        # independent; a limit().take_all() sample was only as reproducible
        # as Ray's scheduling)
        "train_order": "min_vec_id",
        "layout": 2,  # the shared segment store's seq counter and stamp
    }
    fp = fingerprint_inputs(input_files or [], params)
    mf = read_json(index_dir / "ann_manifest.json")
    if mf and mf.get("fingerprint") == fp:
        return mf
    store = _store(index_dir)
    store.reset()

    sample = deterministic_train_vectors(
        embeddings, train_sample, id_col=id_col, vec_col=vec_col
    )
    cents = _kmeans_lite(sample, n_lists, seed=seed)
    np.save(index_dir / "centroids.npy", cents)

    def tag(batch: pa.Table) -> pa.Table:
        vecs = embedding_vectors(batch.column(vec_col))
        d = ((vecs[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        lists = d.argmin(axis=1).astype(np.int64)
        norms = np.linalg.norm(vecs, axis=1)
        return pa.table(
            {
                "list": pa.array(lists, pa.int64()),
                "vec_id": batch.column(id_col),
                "embedding": batch.column(vec_col),
                "norm": pa.array(norms, pa.float64()),
            }
        )

    tagged = embeddings.map_batches(tag, batch_format="pyarrow")
    res = (
        tagged.groupby("list")
        .map_groups(_partition_writer(store, "list"), batch_format="pandas")
        .to_pandas()
    )
    manifest = {
        "fingerprint": fp,
        **params,
        "dim": int(cents.shape[1]),
        "n_vectors": int(res["n"].sum()) if len(res) else 0,
        "n_partitions": int(len(res)),
    }
    atomic_write_json(index_dir / "ann_manifest.json", manifest)
    return manifest


class AnnIndex:
    """Query facade over a persisted ANN index directory. Reads ONLY the
    probed partition files per call (``last_files_read`` records them —
    asserted in tests)."""

    def __init__(self, index_dir: str | Path) -> None:
        self.index_dir = Path(index_dir)
        self.manifest = read_json(self.index_dir / "ann_manifest.json")
        if not self.manifest:
            raise FileNotFoundError(f"no ann_manifest.json under {index_dir}")
        self.kind = self.manifest["kind"]
        self.dim = int(self.manifest["dim"])
        if self.kind == "lsh":
            rng = np.random.default_rng(int(self.manifest["seed"]))
            self.planes = rng.standard_normal((self.dim, int(self.manifest["n_planes"])))
        else:
            self.cents = np.load(self.index_dir / "centroids.npy")
        self.store = _store(self.index_dir)
        # every tombstoned vec_id (introspection; probes filter per seq)
        self.dead = self.store.dead()
        self.last_files_read: list[str] = []

    # -- probe-set construction (mirrors ann.lsh_topk exactly) ---------
    def _lsh_probes(self, qsigs: np.ndarray, n_probes: int) -> list[set[int]]:
        n_planes = int(self.manifest["n_planes"])
        probe_sets: list[set[int]] = []
        for s in qsigs:
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
        return probe_sets

    def _read_partitions(self, key_col: str, keys: list[int]) -> pa.Table | None:
        """The merged rows of every probed partition (base + deltas,
        tombstones applied per segment seq)."""
        tombs = self.store.tombstones()
        tables = []
        self.last_files_read = []
        for key in sorted(keys):
            segs = self.store.segments(f"{key_col}={key:05d}")
            self.last_files_read += [f.name for f, _ in segs]
            part = _merge_partition(self.store, segs, tombs)
            if part is not None and len(part):
                tables.append(part)
        return pa.concat_tables(tables) if tables else None

    def topk(
        self, queries: np.ndarray, k: int = 10, *, n_probes: int = 9, n_probe: int = 4
    ) -> pa.Table:
        """→ (query_id, rank, vec_id, cosine[r6]) with deterministic
        (cosine desc, vec_id asc) ties — same contract as the scan ops."""
        queries = np.asarray(queries, dtype=np.float64)
        if self.kind == "lsh":
            qsigs = _plane_signatures(queries, self.planes)
            probe_sets = self._lsh_probes(qsigs, n_probes)
            wanted = sorted(set().union(*probe_sets)) if probe_sets else []
            part = self._read_partitions("bucket", wanted)
            key_of_row = "bucket"
        else:
            qd = ((queries[:, None, :] - self.cents[None, :, :]) ** 2).sum(axis=2)
            # stable: distance ties resolve to the smallest list id
            # (mirrored by the SQL oracle's ORDER BY dist, list)
            probe_lists = np.argsort(qd, axis=1, kind="stable")[:, : min(n_probe, len(self.cents))]
            probe_sets = [set(row.tolist()) for row in probe_lists]
            wanted = sorted(set().union(*probe_sets)) if probe_sets else []
            part = self._read_partitions("list", wanted)
            key_of_row = "list"

        out = {"query_id": [], "rank": [], "vec_id": [], "cosine": []}
        if part is not None and len(part):
            vecs = embedding_vectors(part.column("embedding"))
            ids = part.column("vec_id").to_numpy(zero_copy_only=False)
            keys = part.column(key_of_row).to_numpy(zero_copy_only=False)
            norms = part.column("norm").to_numpy(zero_copy_only=False)
            vn = vecs / np.maximum(norms[:, None], 1e-300)
            qn = queries / np.maximum(
                np.linalg.norm(queries, axis=1, keepdims=True), 1e-300
            )
            sims = qn @ vn.T
            for qi, probes in enumerate(probe_sets):
                cand = np.fromiter((kk in probes for kk in keys), dtype=bool, count=len(keys))
                if not cand.any():
                    continue
                row = sims[qi][cand]
                cids = ids[cand]
                idx = np.lexsort((cids, -row))[: min(k, row.size)]
                for rank, j in enumerate(idx):
                    out["query_id"].append(qi)
                    out["rank"].append(rank)
                    out["vec_id"].append(int(cids[j]))
                    out["cosine"].append(round(float(row[j]), 6))
        return pa.table(
            {
                "query_id": pa.array(out["query_id"], pa.int32()),
                "rank": pa.array(out["rank"], pa.int32()),
                "vec_id": pa.array(out["vec_id"], pa.int64()),
                "cosine": pa.array(out["cosine"], pa.float64()),
            }
        )
