"""Positional index: build resume, codec round-trip, and phrase-search
parity with the corpus-scan PhraseScan."""

from pathlib import Path

import numpy as np
import pytest


@pytest.fixture(scope="module")
def posidx(ray_session, tmp_path_factory):
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.posindex import build_positional_index

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    d = tmp_path_factory.mktemp("posidx")
    m = build_positional_index(docs, str(d), n_buckets=4, input_token="tp")
    return d, m, docs


def test_build_resume(posidx):
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.posindex import build_positional_index

    d, m, docs = posidx
    files = sorted(Path(d).glob("bucket=*.parquet"))
    assert files and m["n_terms"] > 0
    mtimes = {f.name: f.stat().st_mtime_ns for f in files}
    m2 = build_positional_index(docs, str(d), n_buckets=4, input_token="tp")
    assert m2 == m
    assert {f.name: f.stat().st_mtime_ns for f in sorted(Path(d).glob("bucket=*.parquet"))} == mtimes


def test_positions_roundtrip(posidx):
    """Decoded (docs, counts, positions) equal a direct tokenization of
    the corpus for a handful of terms."""
    import pyarrow.parquet as pq

    from search_engine_skillbox_ray.functions.tokenize import tokenize
    from search_engine_skillbox_ray.pipelines.posindex import _load_term

    d, m, _ = posidx
    tbl = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    ref: dict[str, dict[int, list[int]]] = {}
    for doc_id, text in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        for i, t in enumerate(tokenize(text)):
            ref.setdefault(t, {}).setdefault(doc_id, []).append(i)
    for term in ["merge", "batch", "the", "scan"]:
        got = _load_term(Path(d), m["n_buckets"], term)
        assert got is not None, term
        docs, cnts, flat = got
        exp = ref[term]
        assert docs.tolist() == sorted(exp)
        off = 0
        for doc, c in zip(docs.tolist(), cnts.tolist()):
            assert flat[off : off + c].tolist() == exp[doc], (term, doc)
            off += c
    assert _load_term(Path(d), m["n_buckets"], "absentwordzz") is None


def test_phrase_search_parity_with_scan(posidx):
    """Index-served phrase counts == corpus-scan PhraseScan for probes
    incl. repeated-token (self-overlapping) and absent phrases."""
    from search_engine_skillbox_ray.pipelines.posindex import phrase_search
    from search_engine_skillbox_ray.pipelines.textstats import phrase_scan_ds

    d, _, docs = posidx
    phrases = [
        "table scan", "hash join", "batch batch batch", "merge merge",
        "group sort merge", "quantum flux capacitor", "fast",
    ]
    idx_out = (
        phrase_search(str(d), phrases)
        .to_pandas()
        .sort_values(["phrase_id", "doc_id"])
        .reset_index(drop=True)
    )
    scan_out = (
        phrase_scan_ds(docs, phrases)
        .to_pandas()
        .sort_values(["phrase_id", "doc_id"])
        .reset_index(drop=True)
    )
    assert idx_out.equals(scan_out)
    assert (idx_out[idx_out["phrase_id"] == 6]["n_occurrences"] >= 1).all()


def test_proximity_search_reference(posidx):
    """Proximity pair counts equal a brute-force position-pair count."""
    import pyarrow.parquet as pq

    from search_engine_skillbox_ray.functions.tokenize import tokenize
    from search_engine_skillbox_ray.pipelines.posindex import proximity_search

    d, _, _ = posidx
    w = 4
    out = proximity_search(str(d), "table", "scan", w).to_pandas()
    got = dict(zip(out["doc_id"], out["n_pairs"]))
    tbl = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    expect = {}
    for doc_id, text in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        toks = tokenize(text)
        pa_ = [i for i, t in enumerate(toks) if t == "table"]
        pb_ = [i for i, t in enumerate(toks) if t == "scan"]
        n = sum(1 for a in pa_ for b in pb_ if 0 < b - a <= w)
        if n:
            expect[doc_id] = n
    assert got == expect and len(expect) > 0
    # absent term / zero window
    assert len(proximity_search(str(d), "absentzz", "scan", w)) == 0
    assert len(proximity_search(str(d), "table", "scan", 0)) == 0


def test_near_search_reference(posidx):
    """NEAR counts equal brute force; single-term NEAR degenerates to
    term occurrence counts; absent term → empty."""
    import pyarrow.parquet as pq

    from search_engine_skillbox_ray.functions.tokenize import tokenize
    from search_engine_skillbox_ray.pipelines.posindex import near_search

    d, _, _ = posidx
    terms, w = ["table", "scan", "merge"], 6
    out = near_search(str(d), terms, w).to_pandas()
    got = dict(zip(out["doc_id"], out["n_anchors"]))
    tbl = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    expect = {}
    for doc_id, text in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        toks = tokenize(text)
        pos = {t: [i for i, x in enumerate(toks) if x == t] for t in terms}
        n = sum(
            1
            for p in pos[terms[0]]
            if all(any(abs(q - p) <= w for q in pos[t]) for t in terms[1:])
        )
        if n:
            expect[doc_id] = n
    assert got == expect and len(expect) > 0
    # single term: anchors == occurrences
    solo = near_search(str(d), ["table"], 0).to_pandas()
    ref = {
        doc_id: len([x for x in tokenize(text) if x == "table"])
        for doc_id, text in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist())
    }
    ref = {k: v for k, v in ref.items() if v}
    assert dict(zip(solo["doc_id"], solo["n_anchors"])) == ref
    assert len(near_search(str(d), ["table", "absentzz"], 5)) == 0


def test_append_and_compact(ray_session, tmp_path):
    """Build on the even half, append the odd half as an LSM delta →
    phrase/proximity/NEAR results equal the full build; compaction
    folds deltas (files gone) with identical results; same-token
    re-append is skipped."""
    import pyarrow.compute as pc
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.posindex import (
        append_documents,
        build_positional_index,
        compact_positional_index,
        near_search,
        phrase_search,
        proximity_search,
    )

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")

    def parity(p):
        return docs.map_batches(
            lambda t, p=p: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), p)),
            batch_format="pyarrow",
        )

    full_dir = tmp_path / "full"
    lsm_dir = tmp_path / "lsm"
    build_positional_index(docs, str(full_dir), n_buckets=4, input_token="full")
    build_positional_index(parity(0), str(lsm_dir), n_buckets=4, input_token="even")
    r = append_documents(str(lsm_dir), parity(1), input_token="odd")
    assert r["n_buckets_touched"] > 0

    phrases = ["table scan", "hash join", "batch batch batch"]

    def snap(d):
        return (
            phrase_search(str(d), phrases).to_pandas().sort_values(
                ["phrase_id", "doc_id"]).reset_index(drop=True),
            proximity_search(str(d), "merge", "batch", 3).to_pandas().sort_values(
                "doc_id").reset_index(drop=True),
            near_search(str(d), ["merge", "batch"], 4).to_pandas().sort_values(
                "doc_id").reset_index(drop=True),
        )

    full = snap(full_dir)
    lsm = snap(lsm_dir)
    for a, b in zip(full, lsm):
        assert a.equals(b)
    # re-append with the same token is a no-op (marker)
    n_deltas = len(list(lsm_dir.glob("bucket=*.delta-*.parquet")))
    r2 = append_documents(str(lsm_dir), parity(1), input_token="odd")
    assert r2 == r
    assert len(list(lsm_dir.glob("bucket=*.delta-*.parquet"))) == n_deltas
    # compaction: deltas folded, results identical
    c = compact_positional_index(str(lsm_dir))
    assert c["n_buckets_compacted"] > 0
    assert not list(lsm_dir.glob("bucket=*.delta-*.parquet"))
    for a, b in zip(full, snap(lsm_dir)):
        assert a.equals(b)
    # idempotent second compaction
    assert compact_positional_index(str(lsm_dir)) == {"n_buckets_compacted": 0}


def test_rebuild_clears_append_markers(ray_session, tmp_path):
    """A rebuild must invalidate old append markers: re-appending the
    same batch after a rebuild must actually write (review finding)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.posindex import (
        append_documents,
        build_positional_index,
        phrase_search,
    )

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    even = docs.map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 0)),
        batch_format="pyarrow",
    )
    odd = docs.map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 1)),
        batch_format="pyarrow",
    )
    d = tmp_path / "idx"
    build_positional_index(even, str(d), n_buckets=4, input_token="v1")
    append_documents(str(d), odd, input_token="batch-1")
    full = phrase_search(str(d), ["table scan"]).to_pandas()
    # rebuild with a NEW token, then re-append the same batch token
    build_positional_index(even, str(d), n_buckets=4, input_token="v2")
    assert not list(d.glob("append.*.json"))  # markers invalidated
    r = append_documents(str(d), odd, input_token="batch-1")
    assert r["n_buckets_touched"] > 0  # actually wrote, not skipped
    again = phrase_search(str(d), ["table scan"]).to_pandas()
    assert again.sort_values("doc_id").reset_index(drop=True).equals(
        full.sort_values("doc_id").reset_index(drop=True)
    )


def test_compaction_survives_partial_crash(ray_session, tmp_path):
    """Simulated crash between base rename and delta unlink: queries
    stay correct (duplicates deduped at read) and a re-run converges
    (review finding)."""
    import shutil

    import pyarrow.compute as pc
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.posindex import (
        append_documents,
        build_positional_index,
        compact_positional_index,
        phrase_search,
        proximity_search,
    )

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    even = docs.map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 0)),
        batch_format="pyarrow",
    )
    odd = docs.map_batches(
        lambda t: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 1)),
        batch_format="pyarrow",
    )
    d = tmp_path / "idx"
    build_positional_index(even, str(d), n_buckets=2, input_token="v1")
    append_documents(str(d), odd, input_token="b1")
    before_ph = phrase_search(str(d), ["table scan", "hash join"]).to_pandas()
    before_px = proximity_search(str(d), "merge", "batch", 3).to_pandas()
    # snapshot a delta, compact fully, then RESTORE the delta — exactly
    # the state a crash between rename and unlink leaves behind
    delta = sorted(d.glob("bucket=*.delta-*.parquet"))[0]
    saved = d / "saved.parquet"
    shutil.copy(delta, saved)
    compact_positional_index(str(d))
    shutil.copy(saved, delta)
    saved.unlink()
    # queries over base+stale-delta: duplicates deduped at read time
    mid_ph = phrase_search(str(d), ["table scan", "hash join"]).to_pandas()
    assert mid_ph.sort_values(["phrase_id", "doc_id"]).reset_index(drop=True).equals(
        before_ph.sort_values(["phrase_id", "doc_id"]).reset_index(drop=True)
    )
    # re-run converges instead of raising; results unchanged
    c = compact_positional_index(str(d))
    assert c["n_buckets_compacted"] == 1
    assert not list(d.glob("bucket=*.delta-*.parquet"))
    after_ph = phrase_search(str(d), ["table scan", "hash join"]).to_pandas()
    after_px = proximity_search(str(d), "merge", "batch", 3).to_pandas()
    assert after_ph.sort_values(["phrase_id", "doc_id"]).reset_index(drop=True).equals(
        before_ph.sort_values(["phrase_id", "doc_id"]).reset_index(drop=True)
    )
    assert after_px.sort_values("doc_id").reset_index(drop=True).equals(
        before_px.sort_values("doc_id").reset_index(drop=True)
    )


def test_proximity_normalizes_terms(posidx):
    """'Merge'/'BATCH' find the indexed lowercase terms; a multi-word
    'term' returns empty (review finding)."""
    from search_engine_skillbox_ray.pipelines.posindex import proximity_search

    d, _, _ = posidx
    a = proximity_search(str(d), "merge", "batch", 3).to_pandas()
    b = proximity_search(str(d), "Merge", "BATCH", 3).to_pandas()
    assert a.equals(b) and len(a) > 0
    assert len(proximity_search(str(d), "merge batch", "fast", 3)) == 0


def test_delete_tombstones(ray_session, tmp_path):
    """LSM delete: tombstoning the odd doc_ids makes every query equal a
    fresh build over the even half; compaction folds the tombstones
    (files gone, base_seq recorded) with identical results; same-token
    re-delete is a marker no-op."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.posindex import (
        build_positional_index,
        compact_positional_index,
        delete_documents,
        near_search,
        phrase_search,
        proximity_search,
    )
    from search_engine_skillbox_ray.state.segments import file_seq as _base_seq

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")

    def parity(p):
        return docs.map_batches(
            lambda t, p=p: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), p)),
            batch_format="pyarrow",
        )

    even_dir = tmp_path / "even"
    del_dir = tmp_path / "deleted"
    build_positional_index(parity(0), str(even_dir), n_buckets=4, input_token="even")
    build_positional_index(docs, str(del_dir), n_buckets=4, input_token="full")
    odd_ids = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]
    ).column("doc_id").to_numpy()
    odd_ids = odd_ids[odd_ids % 2 == 1]
    r = delete_documents(str(del_dir), odd_ids, input_token="del-odd")
    assert r["n_tombstoned"] == len(odd_ids)
    assert list(del_dir.glob("tombstone-*.parquet"))

    phrases = ["table scan", "hash join", "batch batch batch"]

    def snap(d):
        return (
            phrase_search(str(d), phrases).to_pandas().sort_values(
                ["phrase_id", "doc_id"]).reset_index(drop=True),
            proximity_search(str(d), "merge", "batch", 3).to_pandas().sort_values(
                "doc_id").reset_index(drop=True),
            near_search(str(d), ["merge", "batch"], 4).to_pandas().sort_values(
                "doc_id").reset_index(drop=True),
        )

    want = snap(even_dir)
    got = snap(del_dir)
    for a, b in zip(want, got):
        assert a.equals(b)
    # re-delete with the same token is a marker no-op
    n_tomb = len(list(del_dir.glob("tombstone-*.parquet")))
    assert delete_documents(str(del_dir), odd_ids, input_token="del-odd") == r
    assert len(list(del_dir.glob("tombstone-*.parquet"))) == n_tomb
    # compaction folds tombstones: files gone, results identical
    c = compact_positional_index(str(del_dir))
    assert c["n_buckets_compacted"] > 0
    assert not list(del_dir.glob("tombstone-*.parquet"))
    for a, b in zip(want, snap(del_dir)):
        assert a.equals(b)
    for f in del_dir.glob("bucket=*.parquet"):
        assert _base_seq(f) >= 0


def test_delete_then_readd(ray_session, tmp_path):
    """A doc re-added AFTER its tombstone stays live (seq ordering), at
    read time and across a compaction crash window where the tombstone
    file survives the base rename."""
    import shutil

    import pyarrow as pa
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.posindex import (
        append_documents,
        build_positional_index,
        compact_positional_index,
        delete_documents,
        phrase_search,
    )

    base_rows = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["alpha beta gamma", "alpha beta beta", "gamma alpha beta"],
                pa.string(),
            ),
        }
    )
    readd = pa.table(
        {
            "doc_id": pa.array([2], pa.int64()),
            "text": pa.array(["alpha beta delta"], pa.string()),
        }
    )
    d = tmp_path / "idx"
    build_positional_index(rd.from_arrow(base_rows), str(d), n_buckets=2, input_token="b")
    delete_documents(str(d), [2, 3], input_token="d1")
    append_documents(str(d), rd.from_arrow(readd), input_token="a1")

    def live_docs():
        t = phrase_search(str(d), ["alpha beta"]).to_pandas()
        return sorted(t["doc_id"].tolist())

    # doc 3 dead, doc 2 re-added after the tombstone → live
    assert live_docs() == [1, 2]
    # simulate the compaction crash window: tombstone survives the renames
    tomb = next(d.glob("tombstone-*.parquet"))
    saved = tomb.read_bytes()
    compact_positional_index(str(d))
    assert live_docs() == [1, 2]
    (d / tomb.name).write_bytes(saved)  # crash: unlink never happened
    assert live_docs() == [1, 2]  # base_seq guards the re-added doc
    compact_positional_index(str(d))  # re-run converges
    assert not list(d.glob("tombstone-*.parquet"))
    assert live_docs() == [1, 2]


def test_doclens_lsm_exact(posidx, tmp_path_factory):
    """Doc lengths ride the LSM: build-half + append + delete keeps
    N/avgdl/dl — hence SDM BM25 — exact, converging to the surviving
    corpus; doclen row matches a direct tokenization."""
    import ray.data as rd
    import pyarrow.parquet as pq

    from search_engine_skillbox_ray.functions.tokenize import tokenize
    from search_engine_skillbox_ray.pipelines.posindex import (
        _load_doclens,
        build_positional_index,
        append_documents,
        delete_documents,
        compact_positional_index,
        sdm_bm25_topk,
    )
    from search_engine_skillbox_ray.state.segments import tombstones as _tombstones

    d, m, _ = posidx
    docs_ids, dls = _load_doclens(Path(d), m["n_buckets"])
    tbl = pq.read_table("/root/testdata/sf0.001/documents.parquet")
    ref = {
        i: len(tokenize(t))
        for i, t in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist())
    }
    assert docs_ids.tolist() == sorted(ref)
    assert dls.tolist() == [ref[i] for i in sorted(ref)]

    # whole-table answer as the oracle for the LSM variants
    want = sdm_bm25_topk(str(d), "table scan merge", k=15)

    src = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    lsm = tmp_path_factory.mktemp("posidx_lsm")
    build_positional_index(
        src.filter(lambda r: r["doc_id"] % 2 == 0), str(lsm), 4, input_token="l1"
    )
    append_documents(lsm, src.filter(lambda r: r["doc_id"] % 2 == 1), input_token="l2")
    got = sdm_bm25_topk(str(lsm), "table scan merge", k=15)
    assert got.equals(want)

    # delete every doc, re-add all: doclens (and N) converge back
    delete_documents(str(lsm), list(ref), input_token="l3")
    di, _dl = _load_doclens(Path(lsm), 4, _tombstones(Path(lsm)))
    assert di.size == 0
    append_documents(lsm, src, input_token="l4")
    got2 = sdm_bm25_topk(str(lsm), "table scan merge", k=15)
    assert got2.equals(want)
    compact_positional_index(str(lsm))
    assert sdm_bm25_topk(str(lsm), "table scan merge", k=15).equals(want)


def test_ordered_adjacency_matches_loop(posidx):
    """The vectorized adjacency kernel equals a per-doc reference loop
    for every consecutive pair of a probe query."""
    from search_engine_skillbox_ray.pipelines.posindex import (
        _load_term,
        _ordered_adjacency,
    )

    d, m, _ = posidx
    terms = ["table", "scan", "merge", "the", "batch"]
    posts = {t: _load_term(Path(d), m["n_buckets"], t) for t in terms}
    for ta, tb in zip(terms, terms[1:]):
        pa_post, pb_post = posts[ta], posts[tb]
        docs_a, cnts_a, flat_a = pa_post
        docs_b, cnts_b, flat_b = pb_post
        offs_a = np.cumsum(cnts_a) - cnts_a
        offs_b = np.cumsum(cnts_b) - cnts_b
        exp = {}
        for dd in np.intersect1d(docs_a, docs_b).tolist():
            ja = int(np.searchsorted(docs_a, dd))
            jb = int(np.searchsorted(docs_b, dd))
            pa_ = set(flat_a[offs_a[ja] : offs_a[ja] + cnts_a[ja]].tolist())
            pb_ = flat_b[offs_b[jb] : offs_b[jb] + cnts_b[jb]].tolist()
            n = sum(1 for p in pb_ if (p - 1) in pa_)
            if n:
                exp[dd] = n
        got_docs, got_cnt = _ordered_adjacency(pa_post, pb_post)
        assert dict(zip(got_docs.tolist(), got_cnt.tolist())) == exp, (ta, tb)


def test_champion_lists_under_live_lsm(ray_session, tmp_path):
    """Champion lists no longer require compaction: an even-build +
    odd-append index answers like the full build, and tombstones drop
    deleted docs exactly like a rebuild on the survivors; compaction
    changes nothing."""
    import pyarrow.compute as pc
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.posindex import (
        append_documents,
        build_positional_index,
        champion_lists,
        compact_positional_index,
        delete_documents,
    )

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")

    def parity(p):
        return docs.map_batches(
            lambda t, p=p: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), p)),
            batch_format="pyarrow",
        )

    def snap(d):
        return champion_lists(str(d), k=3).to_pandas().sort_values(
            ["term", "rank"]).reset_index(drop=True)

    full_dir, lsm_dir, even_dir = tmp_path / "full", tmp_path / "lsm", tmp_path / "even"
    build_positional_index(docs, str(full_dir), n_buckets=4, input_token="full")
    build_positional_index(parity(0), str(lsm_dir), n_buckets=4, input_token="even")
    append_documents(str(lsm_dir), parity(1), input_token="odd")

    ref_full = snap(full_dir)
    assert len(ref_full) > 0
    assert snap(lsm_dir).equals(ref_full)            # live deltas == full build

    # tombstone the odd half on the LIVE (delta-carrying) index
    odd_ids = [int(x) for x in docs.to_pandas()["doc_id"] if x % 2 == 1]
    delete_documents(str(lsm_dir), odd_ids, input_token="del-odd")
    build_positional_index(parity(0), str(even_dir), n_buckets=4, input_token="even2")
    ref_even = snap(even_dir)
    assert snap(lsm_dir).equals(ref_even)            # tombstones == survivor rebuild

    # compaction must not change the answer (and folds the LSM away)
    compact_positional_index(str(lsm_dir))
    assert snap(lsm_dir).equals(ref_even)


def test_champion_topk_serving(ray_session, tmp_path):
    """Champion serving touches only |q|·champion_k postings yet ranks a
    doc saturated in one query term at the top; with champion_k >= max
    df it equals the exhaustive tf·idf ranking."""
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.posindex import (
        build_positional_index,
        champion_topk,
    )

    rows = [
        {"doc_id": 1, "text": "merge merge merge merge batch"},
        {"doc_id": 2, "text": "merge batch batch"},
        {"doc_id": 3, "text": "merge other words here"},
        {"doc_id": 4, "text": "unrelated text entirely"},
    ]
    d = tmp_path / "champ_serve"
    build_positional_index(rd.from_items(rows), str(d), n_buckets=4, input_token="c1")
    top = champion_topk(str(d), "merge batch", k=10, champion_k=1).to_pandas()
    # champion_k=1: only the single highest-tf doc per term scores
    assert set(top["doc_id"]) == {1, 2}
    import math

    by_id = dict(zip(top["doc_id"], top["score"]))
    # hand-computed tf·idf with full statistics (N=4 docs)
    assert abs(by_id[1] - round(4 * math.log(5 / 4), 6)) < 1e-9
    assert abs(by_id[2] - round(2 * math.log(5 / 3), 6)) < 1e-9
    # champion_k large → all matching docs score, exhaustive ranking
    full = champion_topk(str(d), "merge batch", k=10, champion_k=100).to_pandas()
    assert set(full["doc_id"]) == {1, 2, 3}


def test_point_in_time_reads(ray_session, tmp_path):
    """as_of semantics across a build → append → delete lifecycle:
    as_of=-1 sees only the fresh build; as_of=append_seq sees the
    appended state (delete un-done); as_of=None sees the live state;
    after compaction folds that history, as_of raises."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from search_engine_skillbox_ray.pipelines.posindex import (
        append_documents,
        build_positional_index,
        compact_positional_index,
        delete_documents,
        phrase_search,
    )

    docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")

    def parity(p):
        return docs.map_batches(
            lambda t, p=p: t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), p)),
            batch_format="pyarrow",
        )

    even_dir, full_dir, lsm_dir = tmp_path / "even", tmp_path / "full", tmp_path / "lsm"
    build_positional_index(parity(0), str(even_dir), n_buckets=4, input_token="even")
    build_positional_index(docs, str(full_dir), n_buckets=4, input_token="full")
    build_positional_index(parity(0), str(lsm_dir), n_buckets=4, input_token="even")
    a = append_documents(str(lsm_dir), parity(1), input_token="odd")
    append_seq = a["seq"] if isinstance(a, dict) and "seq" in a else 0
    ids = pq.read_table(
        "/root/testdata/sf0.001/documents.parquet", columns=["doc_id"]
    ).column("doc_id").to_numpy()
    delete_documents(str(lsm_dir), ids[ids % 4 == 1], input_token="del")

    phrases = ["table scan", "hash join", "batch batch batch"]

    def snap(d, **kw):
        return phrase_search(str(d), phrases, **kw).to_pandas().sort_values(
            ["phrase_id", "doc_id"]).reset_index(drop=True)

    # time zero: the fresh-build (even) state
    assert snap(lsm_dir, as_of=-1).equals(snap(even_dir))
    # after the append, before the delete: the whole corpus
    assert snap(lsm_dir, as_of=append_seq).equals(snap(full_dir))
    # live state: delete applied — strictly fewer or equal rows
    live = snap(lsm_dir)
    assert len(live) <= len(snap(full_dir))
    assert not live.equals(snap(full_dir))
    # compaction folds history: PIT reads into the folded range raise
    compact_positional_index(str(lsm_dir))
    assert snap(lsm_dir).equals(live)
    import pytest as _pytest

    with _pytest.raises(ValueError, match="folded"):
        snap(lsm_dir, as_of=-1)
