"""The LSM segment store under the four pipeline index families.

Every family (positional, 128-bit hash-id, ANN, MinHash) runs the same
lifecycle on a tiny corpus with 2 buckets/partitions, and its query is
compared with a FRESH build over the corpus that should be live:

* build → append → compact → delete: a delete issued after a compaction
  must kill its docs (the seq counter has to count the bases' stamps,
  or the tombstone lands at a seq the compacted bases already claim);
* the crash window: tombstones restored after a compaction (a crash
  before their unlink) must not re-kill docs re-added after the delete,
  and a re-run of the compaction converges.
"""

from __future__ import annotations

import shutil

import numpy as np
import pyarrow as pa
import pytest

WORDS = ["alpha", "beta", "gamma", "delta", "kappa", "omega", "sigma", "theta"]


def _text(i: int, salt: int = 0) -> str:
    rng = np.random.default_rng(1000 * salt + i)
    return " ".join(["alpha", "beta"] + rng.choice(WORDS, size=8 + i).tolist())


class _Posindex:
    def build(self, d, rows, tok):
        import ray.data as rd

        from search_engine_skillbox_ray.pipelines.posindex import build_positional_index

        build_positional_index(rd.from_items(rows), str(d), n_buckets=2, input_token=tok)

    def append(self, d, rows, tok):
        import ray.data as rd

        from search_engine_skillbox_ray.pipelines.posindex import append_documents

        append_documents(str(d), rd.from_items(rows), input_token=tok)

    def delete(self, d, ids, tok):
        from search_engine_skillbox_ray.pipelines.posindex import delete_documents

        delete_documents(str(d), ids, input_token=tok)

    def compact(self, d):
        from search_engine_skillbox_ray.pipelines.posindex import compact_positional_index

        compact_positional_index(str(d))

    def query(self, d):
        from search_engine_skillbox_ray.pipelines.posindex import phrase_search, sdm_bm25_topk

        ph = phrase_search(str(d), ["alpha beta", "gamma", "delta kappa"]).to_pylist()
        return sorted(tuple(r.values()) for r in ph), sdm_bm25_topk(
            str(d), "alpha gamma delta", k=50
        ).to_pylist()

    def ids(self, got):
        return {r[0] for r in got[0]} | {r["doc_id"] for r in got[1]}


class _Index128:
    def _ds(self, rows):
        import ray.data as rd

        return rd.from_items([{**r, "source": f"s{r['doc_id'] % 2}"} for r in rows])

    def build(self, d, rows, tok):
        from search_engine_skillbox_ray.pipelines.index128 import build_index_128

        build_index_128(self._ds(rows), str(d), n_buckets=2, input_token=tok)

    def append(self, d, rows, tok):
        from search_engine_skillbox_ray.pipelines.index128 import append_documents_128

        append_documents_128(str(d), self._ds(rows), input_token=tok)

    def delete(self, d, ids, tok):
        from search_engine_skillbox_ray.pipelines.index128 import delete_documents_128

        rows = [{"doc_id": int(i), "text": ""} for i in ids]
        delete_documents_128(str(d), self._ds(rows), input_token=tok)

    def compact(self, d):
        from search_engine_skillbox_ray.pipelines.index128 import compact_index_128

        compact_index_128(str(d))

    def query(self, d):
        from search_engine_skillbox_ray.pipelines.index128 import topk_128

        return [
            topk_128(str(d), "alpha gamma delta", k=50, scorer=s).values.tolist()
            for s in ("tfidf", "bm25")
        ]

    def ids(self, got):
        return {int(r[0]) for res in got for r in res}


class _Ann:
    QUERIES = np.random.default_rng(7).standard_normal((3, 4))

    def _ds(self, rows):
        import ray.data as rd

        return rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array([r["doc_id"] for r in rows], pa.int64()),
                    "embedding": pa.array(
                        [
                            np.random.default_rng(len(r["text"])).standard_normal(4).tolist()
                            for r in rows
                        ],
                        pa.list_(pa.float32()),
                    ),
                }
            )
        )

    def build(self, d, rows, tok):
        from search_engine_skillbox_ray.pipelines.ann_index import build_lsh_index

        build_lsh_index(self._ds(rows), d, n_planes=1, seed=42, input_token=tok)

    def append(self, d, rows, tok):
        from search_engine_skillbox_ray.pipelines.ann_index import append_vectors

        append_vectors(d, self._ds(rows), input_token=tok)

    def delete(self, d, ids, tok):
        from search_engine_skillbox_ray.pipelines.ann_index import delete_vectors

        delete_vectors(d, ids, input_token=tok)

    def compact(self, d):
        from search_engine_skillbox_ray.pipelines.ann_index import compact_ann_index

        compact_ann_index(d)

    def query(self, d):
        from search_engine_skillbox_ray.pipelines.ann_index import AnnIndex

        return AnnIndex(d).topk(self.QUERIES, k=50, n_probes=2).to_pylist()

    def ids(self, got):
        return {r["vec_id"] for r in got}


class _MinHash:
    def build(self, d, rows, tok):
        import ray.data as rd

        from search_engine_skillbox_ray.pipelines.dedup_index import build_minhash_index

        build_minhash_index(
            rd.from_items(rows), d, n_band_parts=2, n_sig_parts=2, input_token=tok
        )

    def append(self, d, rows, tok):
        import ray.data as rd

        from search_engine_skillbox_ray.pipelines.dedup_index import append_minhash_index

        append_minhash_index(d, rd.from_items(rows), input_token=tok)

    def delete(self, d, ids, tok):
        from search_engine_skillbox_ray.pipelines.dedup_index import (
            delete_from_minhash_index,
        )

        delete_from_minhash_index(d, ids, input_token=tok)

    def compact(self, d):
        from search_engine_skillbox_ray.pipelines.dedup_index import compact_minhash_index

        compact_minhash_index(d)

    def query(self, d):
        import ray.data as rd

        from search_engine_skillbox_ray.pipelines.dedup_index import query_minhash_index

        # probe with every text the test ever indexes (old and re-added)
        probes = [
            {"doc_id": 1000 + 10 * salt + i, "text": _text(i, salt)}
            for salt in (0, 1)
            for i in range(1, 6)
        ]
        got = query_minhash_index(d, rd.from_items(probes), threshold=0.3).take_all()
        return sorted((r["indexed_doc_id"], r["query_doc_id"], r["est_jaccard"]) for r in got)

    def ids(self, got):
        return {r[0] for r in got}


FAMILIES = {
    "posindex": _Posindex(),
    "index128": _Index128(),
    "ann": _Ann(),
    "minhash": _MinHash(),
}

BASE = [{"doc_id": i, "text": _text(i)} for i in (1, 2, 3)]
APPENDED = [{"doc_id": i, "text": _text(i)} for i in (4, 5)]
KILLED = [2, 4]  # one doc from the base, one from the folded delta
READDED = [{"doc_id": i, "text": _text(i, salt=1)} for i in KILLED]


def _fresh(fam, tmp_path, rows):
    ref = tmp_path / "fresh"
    fam.build(ref, rows, "fresh")
    return fam.query(ref)


def _lsm_files(d, pattern):
    return sorted(p.name for p in d.glob(pattern))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_delete_after_compaction(ray_session, tmp_path, family):
    fam = FAMILIES[family]
    d = tmp_path / "lsm"
    fam.build(d, BASE, "base")
    fam.append(d, APPENDED, "app")
    fam.compact(d)
    fam.delete(d, KILLED, "del")
    got = fam.query(d)
    assert not fam.ids(got) & set(KILLED), f"{family}: deleted ids still served"
    live = [r for r in BASE + APPENDED if r["doc_id"] not in KILLED]
    assert got == _fresh(fam, tmp_path, live)
    # the delete survives its own compaction too
    fam.compact(d)
    assert fam.query(d) == got


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_crash_window_keeps_readded_docs(ray_session, tmp_path, family):
    fam = FAMILIES[family]
    d = tmp_path / "lsm"
    fam.build(d, BASE, "base")
    fam.append(d, APPENDED, "app")
    fam.compact(d)
    fam.delete(d, KILLED, "del")
    fam.append(d, READDED, "readd")  # new content under the killed ids
    live = [r for r in BASE + APPENDED if r["doc_id"] not in KILLED] + READDED
    want = _fresh(fam, tmp_path, live)
    assert fam.query(d) == want

    # a crash between the base renames and the tombstone unlink leaves
    # the tombstones on disk next to bases that already folded them
    stash = tmp_path / "stash"
    stash.mkdir()
    tombs = list(d.glob("*tombstone-*.parquet"))
    assert tombs
    for f in tombs:
        shutil.copy2(f, stash / f.name)
    fam.compact(d)
    assert not _lsm_files(d, "*tombstone-*.parquet")
    for f in stash.iterdir():
        shutil.copy2(f, d / f.name)
    assert fam.query(d) == want, f"{family}: a stale tombstone re-killed a re-added doc"

    # the re-run spends the survivors and converges
    fam.compact(d)
    assert not _lsm_files(d, "*tombstone-*.parquet")
    assert not _lsm_files(d, "*.delta-*.parquet")
    assert fam.query(d) == want


def test_lsm_decisions_live_in_the_segment_store():
    """No pipeline module names an LSM file pattern or footer stamp key:
    the seq counter, tombstones, markers and compaction stay behind
    ``state/segments.py``."""
    from pathlib import Path

    import search_engine_skillbox_ray

    pkg = Path(search_engine_skillbox_ray.__file__).parent
    found = [
        (f.name, pat)
        for f in sorted((pkg / "pipelines").glob("*.py"))
        for pat in (".delta-", "tombstone-", "base_seq", "mh_folded_seq")
        if pat in f.read_text()
    ]
    assert not found, found
    assert "base_seq" in (pkg / "state" / "segments.py").read_text()
