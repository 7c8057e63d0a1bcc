"""End-to-end 128-bit-docID index: build determinism/resume, OR/AND
top-k correctness vs an exhaustive reference, block pruning evidence."""

import json
import math
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture(scope="module")
def built128(ray_session, tmp_path_factory):
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.index128 import build_index_128

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    d = tmp_path_factory.mktemp("idx128")
    m = build_index_128(docs, str(d), n_buckets=4, input_token="t128")
    return d, m, docs


def _reference_topk(sf_dir, query, k, mode="or"):
    """Exhaustive tf·idf scoring in plain numpy/dicts, ties by the
    md5(url) 128-bit key."""
    import hashlib

    import pyarrow.parquet as pq

    from search_engine_skillbox_ray.functions.tokenize import query_lemmas, tokenize

    tbl = pq.read_table(f"{sf_dir}/documents.parquet")
    tf: dict[str, dict[int, int]] = {}
    keys: dict[int, int] = {}
    indexed = set()
    for doc_id, src, text in zip(
        tbl["doc_id"].to_pylist(), tbl["source"].to_pylist(), tbl["text"].to_pylist()
    ):
        toks = tokenize(text)
        if toks:
            indexed.add(doc_id)
        url = f"https://{src}.example/doc/{doc_id}"
        keys[doc_id] = int.from_bytes(hashlib.md5(url.encode()).digest(), "big")
        for t in toks:
            tf.setdefault(t, {}).setdefault(doc_id, 0)
            tf[t][doc_id] += 1
    n = len(indexed)
    lemmas = query_lemmas(query)
    scores: dict[int, float] = {}
    hit_terms: dict[int, int] = {}
    for t in lemmas:
        post = tf.get(t, {})
        idf = math.log((n + 1) / (len(post) + 1))
        for d, c in post.items():
            scores[d] = scores.get(d, 0.0) + c * idf
            hit_terms[d] = hit_terms.get(d, 0) + 1
    if mode == "and":
        scores = {d: s for d, s in scores.items() if hit_terms[d] == len(lemmas)}
    order = sorted(scores, key=lambda d: (-scores[d], keys[d]))[:k]
    return order, [round(scores[d], 6) for d in order]


def test_build_manifest_and_resume(built128):
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.index128 import build_index_128

    d, m, docs = built128
    assert m["n_docs_indexed"] > 0 and m["n_terms"] > 0
    files = sorted(Path(d).glob("bucket=*.parquet"))
    assert files
    mtimes = {f.name: f.stat().st_mtime_ns for f in files}
    # same input_token → resume skips the rebuild entirely
    m2 = build_index_128(docs, str(d), n_buckets=4, input_token="t128")
    assert m2 == m
    assert {f.name: f.stat().st_mtime_ns for f in sorted(Path(d).glob("bucket=*.parquet"))} == mtimes


@pytest.mark.parametrize("mode", ["or", "and"])
def test_topk128_matches_exhaustive(built128, mode):
    from search_engine_skillbox_ray.pipelines.index128 import topk_128

    d, _, _ = built128
    query = "merge batch fast"
    out = topk_128(str(d), query, k=10, mode=mode)
    ref_ids, ref_scores = _reference_topk("/root/testdata/sf0.001", query, 10, mode)
    assert out["doc_id"].tolist() == ref_ids
    assert np.allclose(out["score"].to_numpy(), ref_scores, atol=1e-6)
    assert out["rank"].tolist() == list(range(1, len(ref_ids) + 1))


def test_topk128_prunes_blocks(built128):
    from search_engine_skillbox_ray.pipelines.index128 import topk_128
    from search_engine_skillbox_ray.stages import wand

    d, _, _ = built128
    wand.BLOCKS_DECODED = 0
    topk_128(str(d), "merge batch fast", k=3, mode="or")
    pruned = wand.BLOCKS_DECODED
    assert pruned > 0
    # k=3 must not decode more blocks than an exhaustive k=10^6 pass
    wand.BLOCKS_DECODED = 0
    topk_128(str(d), "merge batch fast", k=10**6, mode="or")
    assert pruned <= wand.BLOCKS_DECODED


def test_topk128_empty_and_absent_queries(built128):
    from search_engine_skillbox_ray.pipelines.index128 import topk_128

    d, _, _ = built128
    assert len(topk_128(str(d), "", k=5)) == 0
    assert len(topk_128(str(d), "absentwordzz", k=5)) == 0
    assert len(topk_128(str(d), "merge absentwordzz", k=5, mode="and")) == 0


def test_topk128_bm25_matches_exhaustive(built128):
    """BM25 from the persisted 128-bit index equals exhaustive BM25
    scoring (doc lengths from the docmap; min-dl block bounds stay
    admissible)."""
    import hashlib

    import pyarrow.parquet as pq

    from search_engine_skillbox_ray.functions.tokenize import query_lemmas, tokenize
    from search_engine_skillbox_ray.pipelines.index128 import topk_128

    d, _, _ = built128
    k1, b = 1.2, 0.75
    query = "merge batch fast"
    out = topk_128(str(d), query, k=10, scorer="bm25", k1=k1, b=b)

    tbl = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    tf, keys, dls = {}, {}, {}
    for doc_id, src, text in zip(
        tbl["doc_id"].to_pylist(), tbl["source"].to_pylist(), tbl["text"].to_pylist()
    ):
        toks = tokenize(text)
        if toks:
            dls[doc_id] = len(toks)
        url = f"https://{src}.example/doc/{doc_id}"
        keys[doc_id] = int.from_bytes(hashlib.md5(url.encode()).digest(), "big")
        for t in toks:
            tf.setdefault(t, {}).setdefault(doc_id, 0)
            tf[t][doc_id] += 1
    n = len(dls)
    avgdl = max(1.0, sum(dls.values()) / max(1, n))
    scores = {}
    for t in query_lemmas(query):
        post = tf.get(t, {})
        idf = math.log((n + 1) / (len(post) + 1))
        for doc, c in post.items():
            w = idf * (c * (k1 + 1.0)) / (c + k1 * (1.0 - b + b * dls[doc] / avgdl))
            scores[doc] = scores.get(doc, 0.0) + w
    order = sorted(scores, key=lambda x: (-scores[x], keys[x]))[:10]
    assert out["doc_id"].tolist() == order
    assert np.allclose(
        out["score"].to_numpy(), [round(scores[x], 6) for x in order], atol=1e-6
    )


def test_append_and_compact_128(ray_session, tmp_path):
    """Build on the even half, append the odd half → tf·idf and BM25
    top-k equal the full build (idf/avgdl derived from the combined
    docmap); compaction folds deltas with identical results; crash-dup
    delta tolerated; same-token re-append skipped."""
    import shutil

    import pyarrow.compute as pc
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.index128 import (
        append_documents_128,
        build_index_128,
        compact_index_128,
        topk_128,
    )

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")

    def parity(p):
        return docs.map_batches(
            lambda t, p=p: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), p)),
            batch_format="pyarrow",
        )

    full_dir, lsm_dir = tmp_path / "full", tmp_path / "lsm"
    build_index_128(docs, str(full_dir), n_buckets=4, input_token="full")
    build_index_128(parity(0), str(lsm_dir), n_buckets=4, input_token="even")
    r = append_documents_128(str(lsm_dir), parity(1), input_token="odd")
    assert r["n_buckets_touched"] > 0 and r["n_docs_appended"] > 0

    def snap(d):
        return (
            topk_128(str(d), "merge batch fast", k=10),
            topk_128(str(d), "merge batch fast", k=10, scorer="bm25"),
            topk_128(str(d), "merge batch", k=10, mode="and"),
        )

    full = snap(full_dir)
    lsm = snap(lsm_dir)
    for a, b in zip(full, lsm):
        assert a.equals(b)
    # same-token re-append skipped
    n_deltas = len(list(lsm_dir.glob("bucket=*.delta-*.parquet")))
    assert append_documents_128(str(lsm_dir), parity(1), input_token="odd") == r
    assert len(list(lsm_dir.glob("bucket=*.delta-*.parquet"))) == n_deltas
    # crash window: restore one delta after compaction → dedup absorbs
    delta = sorted(lsm_dir.glob("bucket=*.delta-*.parquet"))[0]
    saved = lsm_dir / "saved.parquet"
    shutil.copy(delta, saved)
    c = compact_index_128(str(lsm_dir))
    assert c["n_buckets_compacted"] > 0
    shutil.copy(saved, delta)
    saved.unlink()
    for a, b in zip(full, snap(lsm_dir)):
        assert a.equals(b)
    compact_index_128(str(lsm_dir))
    assert not list(lsm_dir.glob("bucket=*.delta-*.parquet"))
    assert not list(lsm_dir.glob("docmap.delta-*.parquet"))
    for a, b in zip(full, snap(lsm_dir)):
        assert a.equals(b)
    # rebuild clears markers + deltas
    build_index_128(parity(0), str(lsm_dir), n_buckets=4, input_token="even-v2")
    assert not list(lsm_dir.glob("append.*.json"))
    r3 = append_documents_128(str(lsm_dir), parity(1), input_token="odd")
    assert r3["n_buckets_touched"] > 0
    for a, b in zip(full, snap(lsm_dir)):
        assert a.equals(b)


def test_delete_and_readd_128(ray_session, tmp_path):
    """128-bit LSM delete: tombstoned docs vanish from top-k AND from
    the docmap-derived statistics; a doc re-added after its tombstone
    stays live; compaction folds tombstones with identical results and
    survives the crash window where a tombstone file outlives the base
    renames."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.index128 import (
        append_documents_128,
        build_index_128,
        compact_index_128,
        delete_documents_128,
        topk_128,
    )

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")

    def parity(p):
        return docs.map_batches(
            lambda t, p=p: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), p)),
            batch_format="pyarrow",
        )

    even_dir = tmp_path / "even"
    del_dir = tmp_path / "deleted"
    build_index_128(parity(0), str(even_dir), n_buckets=4, input_token="e")
    build_index_128(docs, str(del_dir), n_buckets=4, input_token="f")
    r = delete_documents_128(str(del_dir), parity(1), input_token="d1")
    assert r["n_tombstoned"] > 0

    def snap(d, q="merge batch fast"):
        out = topk_128(str(d), q, k=10, mode="or")
        return out if not hasattr(out, "to_pandas") else out.to_pandas()

    want = snap(even_dir)
    assert want.equals(snap(del_dir))
    # re-delete with the same token is a marker no-op
    n_tomb = len(list(del_dir.glob("tombstone-*.parquet")))
    assert delete_documents_128(str(del_dir), parity(1), input_token="d1") == r
    assert len(list(del_dir.glob("tombstone-*.parquet"))) == n_tomb
    # crash window: tombstone survives the compaction renames
    tomb = next(del_dir.glob("tombstone-*.parquet"))
    saved = tomb.read_bytes()
    c = compact_index_128(str(del_dir))
    assert c["n_buckets_compacted"] > 0
    assert not list(del_dir.glob("tombstone-*.parquet"))
    assert want.equals(snap(del_dir))
    # re-add some odd docs AFTER compaction, then restore the tombstone
    # (simulating a crash before its unlink): base_seq keeps them live
    readd = pa.table(
        {
            "doc_id": pa.array([1, 3], pa.int64()),
            "source": pa.array(["src1", "src3"], pa.string()),
            "text": pa.array(["merge merge batch", "fast merge"], pa.string()),
        }
    )
    append_documents_128(str(del_dir), rd.from_arrow(readd), input_token="a1")
    with_readd = snap(del_dir)
    (del_dir / tomb.name).write_bytes(saved)
    assert with_readd.equals(snap(del_dir))  # stale tombstone can't re-kill
    compact_index_128(str(del_dir))  # re-run converges
    assert not list(del_dir.glob("tombstone-*.parquet"))
    assert with_readd.equals(snap(del_dir))
