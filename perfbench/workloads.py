"""The workloads: one engine lifecycle, two mixes.

Every run drives the engine only through its public API
(``derive_sites``, ``build_index_from_pages``, ``SearchEngine``,
``IndexUpdater``) and measures in whole *rounds*. Every round makes the
same calls in the same order, so each kind of operation recurs once per
round, spread over the whole run:

* ``derive_sites`` + ``build_index_from_pages`` of the round crawl into a
  fresh index directory (in the writer process, which owns Ray);
* ``index_pages`` micro-batches (half upserts of live URLs, half new
  URLs), each followed by ``reload_updates`` and a query burst that
  includes words of the new pages;
* ``IndexUpdater.compact``, then the burst again on a fresh engine;
* the serving slice: a closed loop of one client in which each query
  goes through the in-memory engine, the memory-light engine
  (``docs_in_memory=False``) and, for every ``TOPK_EVERY``-th query,
  pruned BM25 ``topk``.

Only the writer process runs Ray; compaction, reloads and every query
run in this process, which never starts Ray. The workloads differ in
how large each step is (``SPECS``, README), so each stresses other
layers, while every end-to-end metric is measured on every workload.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pyarrow.parquet as pq

from . import crawl as crawl_mod
from . import oracle as oracle_mod
from .writer import Writer

TOPK_EVERY = 4  # every 4th serving query also goes through ``topk``
ROUND_S = 7.5  # seconds of ``--seconds`` per round
SLICE_PASSES = 2  # passes over the distinct serving queries per round
ROUND_PAGES = 800  # crawl rows rebuilt from scratch every round
# Compaction re-encodes every (site, term) posting list, so its time
# follows the vocabulary, not the page count: ~4.5 s at 1 200 words,
# ~2 s at 400. A smaller round vocabulary buys two compactions a round
# (README "Compaction").
ROUND_VOCAB = 400
COMPACTIONS = 2  # per round: identical copies first, then the round index
N_BATCHES = 2  # ingest micro-batches per round
BURST_QUERIES = 12  # queries after every reload and after compaction


@dataclass(frozen=True)
class Spec:
    base_pages: int  # >0: serve a base index built during set-up
    batch_pages: int  # pages per micro-batch (README: why 300-400)
    n_distinct: int  # distinct serving queries (cycled)


SPECS = {
    # warm serving of a base index built in set-up dominates
    "serve": Spec(base_pages=1500, batch_pages=300, n_distinct=160),
    # the write path dominates: the Ray Data build, upserts, delta
    # overlay, reload and compaction
    "ingest": Spec(base_pages=0, batch_pages=400, n_distinct=120),
}


# ---------------------------------------------------------------------
def _percentile(xs: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(xs, np.float64), q)) if xs else float("nan")


def _write_crawl(pages, out: Path, shards: int = 4) -> Path:
    out.mkdir(parents=True)
    tbl = crawl_mod.pages_table(pages)
    step = -(-len(pages) // shards)
    for i in range(shards):
        part = tbl.slice(i * step, step)
        if len(part):
            pq.write_table(part, out / f"pages-{i:02d}.parquet")
    return out


def index_site_df(index_dir: Path) -> tuple[dict[tuple[int, str], int], int, int]:
    """(site, term) → df from the index's segment files, plus total
    postings and total segment bytes."""
    site_df: dict[tuple[int, str], int] = {}
    n_bytes = 0
    for f in sorted((index_dir / "postings").glob("bucket=*.parquet")):
        n_bytes += f.stat().st_size
        t = pq.read_table(f, columns=["site_id", "term", "df"])
        for s, term, df in zip(t["site_id"].to_pylist(), t["term"].to_pylist(), t["df"].to_pylist()):
            key = (int(s), term)
            site_df[key] = site_df.get(key, 0) + int(df)
    return site_df, sum(site_df.values()), n_bytes


@dataclass
class Record:
    """Everything one run measured, plus what the checks need later."""

    attempted: int = 0
    failed: int = 0
    build_docs: list[int] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)  # derive_sites + build_index_from_pages
    derive_s: list[float] = field(default_factory=list)
    bytes_per_posting: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)  # warm in-memory search
    light_s: list[float] = field(default_factory=list)
    topk_s: list[float] = field(default_factory=list)
    ingest_s: list[float] = field(default_factory=list)
    visible_s: list[float] = field(default_factory=list)  # index_pages + reload_updates
    compact_s: list[float] = field(default_factory=list)
    reload_s: list[tuple[int, float]] = field(default_factory=list)  # (live segments, s)
    delta_query_s: list[float] = field(default_factory=list)
    compacted_query_s: list[float] = field(default_factory=list)
    # the same query repeated within the run (once per pass) → its timings
    reps: dict[tuple, list[float]] = field(default_factory=dict)
    # correctness material: (state, query index) → distinct outputs
    responses: dict[tuple[str, int], set[str]] = field(default_factory=dict)
    topks: dict[tuple[str, int], set[str]] = field(default_factory=dict)
    builds: list[tuple[str, dict, int, int]] = field(default_factory=list)
    pages: list[int] = field(default_factory=list)  # statistics() after last batch / compact
    errors: list[str] = field(default_factory=list)

    def rep(self, key: tuple, seconds: float) -> None:
        self.reps.setdefault(key, []).append(seconds)

    def best(self, kind: str) -> dict[tuple, float]:
        """Fastest repetition of every query of one kind."""
        return {k: min(v) for k, v in self.reps.items() if k[0] == kind}

    def keep(self, store: dict, key: tuple[str, int], value) -> None:
        store.setdefault(key, set()).add(json.dumps(value, sort_keys=True, ensure_ascii=False))


class Run:
    def __init__(self, name: str, seed: int, seconds: float, root: Path, tracer=None) -> None:
        self.name = name
        self.spec = SPECS[name]
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.tracer = tracer
        self.rec = Record()
        self.work = root / ".bench_run" / f"{name}-{os.getpid()}"
        self.layers: dict[str, tuple[float, str]] = {}
        self.samples: dict[str, list[float]] = {}
        self.ray_tmp: Path | None = None
        self.writer: Writer | None = None
        self.n_rounds = 0
        self.cpus = sorted(os.sched_getaffinity(0))
        self._slot = -1

    # -- set-up ---------------------------------------------------------
    def setup(self) -> None:
        spec = self.spec
        t_setup = time.perf_counter()
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        self.corpus = crawl_mod.generate(
            self.seed, ROUND_PAGES, n_batches=N_BATCHES, batch_pages=spec.batch_pages,
            vocab_size=ROUND_VOCAB,
        )
        self.crawl_dir = _write_crawl(self.corpus.pages, self.work / "crawl")
        self.batch_files = []
        for b, pages in enumerate(self.corpus.batches):
            f = self.work / f"batch-{b}.parquet"
            pq.write_table(crawl_mod.pages_table(pages), f)
            self.batch_files.append(f)
        self.queries = crawl_mod.make_queries(self.corpus.vocab, spec.n_distinct) + crawl_mod.PROBE_QUERIES
        fresh = crawl_mod.make_queries(self.corpus.vocab, BURST_QUERIES // 2, fresh=self.corpus.fresh,
                                       site_share=0.0, paged_share=0.0, shape=1)
        self.burst = fresh + self.queries[: BURST_QUERIES - len(fresh)]

        t_gen = time.perf_counter()
        tmp = self.root / ".bench_run" / f"ray-{os.getpid()}"
        # Ray's socket paths must stay under the 107-byte AF_UNIX limit
        ray_tmp = str(tmp) if len(str(tmp)) <= 40 else None
        self.ray_tmp = tmp if ray_tmp else None
        self.writer = Writer(ray_tmp)

        # The first Ray jobs of a process spawn the workers (a cold build
        # takes about twice a warm one), so set-up builds once before any
        # round: the base index for ``serve``, the round crawl otherwise.
        t_ray = time.perf_counter()
        self.base = None
        if not spec.base_pages:
            self._build(self.crawl_dir, self.work / "warm-idx", record=False)
        else:
            self.base_corpus = crawl_mod.generate(self.seed + 7, spec.base_pages, tag="b")
            base_crawl = _write_crawl(self.base_corpus.pages, self.work / "base-crawl")
            base_idx = self.work / "base-idx"
            n_docs = self._build(base_crawl, base_idx, record=False)
            self.base_queries = crawl_mod.make_queries(self.base_corpus.vocab, spec.n_distinct) + crawl_mod.PROBE_QUERIES
            self.base = self._engines(base_idx)
            self._warm(self.base, self.base_queries)
            site_df, n_post, _ = index_site_df(base_idx)
            self.rec.builds.append(("base", site_df, n_post, n_docs))
        t_end = time.perf_counter()
        print(f"perfbench: set-up: inputs {t_gen - t_setup:.2f}s writer+ray {t_ray - t_gen:.2f}s "
              f"first build {t_end - t_ray:.2f}s", file=sys.stderr)

    # -- operations -----------------------------------------------------
    def _build(self, crawl_dir: Path, idx: Path, record: bool = True) -> int:
        """``derive_sites`` + ``build_index_from_pages`` in the writer
        process; returns the index's doc count."""
        out = self.writer.call("build", str(crawl_dir), str(idx))
        self.rec.attempted += 1
        t0, t1, t2 = out["t0"], out["t1"], out["t2"]
        if record:
            self.rec.build_s.append(t2 - t0)
            self.rec.derive_s.append(t1 - t0)
            self.rec.build_docs.append(out["n_docs"])
            tr = self.tracer
            if tr is not None:  # perf_counter is CLOCK_MONOTONIC: one clock for both processes
                tr.spans.append(("pages.derive_sites", t0, t1, -1, 0))
                tr.spans.append(("build.build_index_from_pages", t1, t2, -1, 0))
                self._build_layers(idx, t2 - t1, len(self.corpus.pages), out["n_docs"])
        return out["n_docs"]

    def _engines(self, idx: Path):
        from search_engine_skillbox_ray import SearchEngine

        return (
            SearchEngine(idx),
            SearchEngine(idx, docs_in_memory=False),
            SearchEngine(idx, scorer="bm25"),
        )

    def _search(self, eng, q, out: list[float]) -> dict:
        t0 = time.perf_counter()
        resp = eng.search(q.text, site=q.site, offset=q.offset, limit=q.limit)
        out.append(time.perf_counter() - t0)
        self.rec.attempted += 1
        return resp

    def _topk(self, eng, q) -> list:
        from search_engine_skillbox_ray.stages import wand

        b0 = wand.BLOCKS_DECODED
        t0 = time.perf_counter()
        ids, scores = eng.topk(q.text, 10)
        self.rec.topk_s.append(time.perf_counter() - t0)
        self.rec.attempted += 1
        if self.tracer is not None:
            self._wand_counts(eng, q, wand.BLOCKS_DECODED - b0)
        docs = eng.hydrate_docs([int(i) for i in ids])
        return [[float(s), self._uri(eng, docs.get(int(i)))] for i, s in zip(ids, scores)]

    @staticmethod
    def _uri(eng, row) -> str | None:
        from search_engine_skillbox_ray.functions.urls import build_full_url

        if row is None:
            return None
        return build_full_url(eng.sites[int(row["site_id"])]["url"], row["path"])

    def _serve_slice(self, engines, state: str, queries) -> None:
        mem, light, bm25 = engines
        # whole passes in a fixed order, topk on a fixed subset: the cost
        # mix of a run does not depend on the seed
        for _ in range(SLICE_PASSES):
            self._next_cpu()
            for qi, q in enumerate(queries):
                if self.tracer is not None and qi % 2 == 1:
                    self._traced_query(mem, light, q)
                    continue
                r_mem = self._search(mem, q, self.rec.query_s)
                self.rec.rep(("mem", qi), self.rec.query_s[-1])
                r_light = self._search(light, q, self.rec.light_s)
                self.rec.rep(("light", qi), self.rec.light_s[-1])
                self.rec.errors += oracle_mod.check_same(r_light, r_mem, f"memory-light {q.text!r}")
                self.rec.keep(self.rec.responses, (state, qi), r_mem)
                if qi % TOPK_EVERY == 0:
                    self.rec.keep(self.rec.topks, (state, qi), self._topk(bm25, q))
                    self.rec.rep(("topk", qi), self.rec.topk_s[-1])

    def _burst(self, eng, state: str, phase: list[float]) -> list[dict]:
        """The burst queries on ``eng`` right after a reload (caches
        cold); latencies go to ``phase`` (delta or compacted)."""
        resps = []
        for bi, q in enumerate(self.burst):
            r = self._search(eng, q, phase)
            self.rec.keep(self.rec.responses, (state, -1 - bi), r)
            resps.append(r)
        return resps

    @staticmethod
    def _warm(engines, queries) -> None:
        """Fill a fresh index's caches before its queries are timed;
        first-touch cost is the per-layer ``engine.cold_term_ms``."""
        mem, light, bm25 = engines
        for q in queries:
            mem.search(q.text, site=q.site, offset=q.offset, limit=q.limit)
            light.search(q.text, site=q.site, offset=q.offset, limit=q.limit)
            bm25.search_scores(q.text)

    def round(self, r: int) -> None:
        """Build the round crawl into a fresh index, make each ingest
        micro-batch visible (``index_pages``, ``reload_updates``, burst),
        compact, burst again, then the serving slice (on the base index
        for ``serve``, on the compacted round index otherwise)."""
        from search_engine_skillbox_ray import IndexUpdater, SearchEngine

        idx = self.work / f"idx-{r}"
        t_start = time.perf_counter()
        n_docs = self._build(self.crawl_dir, idx)
        t_built = time.perf_counter()
        site_df, n_post, n_bytes = index_site_df(idx)
        self.rec.builds.append(("round", site_df, n_post, n_docs))
        if self.name != "ingest":
            self.rec.bytes_per_posting.append(n_bytes / n_post)
        mem = SearchEngine(idx)
        last = None
        batches = []  # "index_pages+reload" seconds, for the log line
        for b, f in enumerate(self.batch_files):
            out = self.writer.call("index_pages", str(idx), str(f))
            self._next_cpu()
            t1 = time.perf_counter()
            mem.reload_updates()
            t2 = time.perf_counter()
            self.rec.attempted += 2
            resp = out["response"]
            if not resp.get("result"):
                self.rec.failed += 1
                self.rec.errors.append(f"index_pages batch {b}: {resp}")
            ingest_s = out["t1"] - out["t0"]
            self.rec.ingest_s.append(ingest_s)
            self.rec.visible_s.append(ingest_s + (t2 - t1))
            self.rec.reload_s.append((b + 1, t2 - t1))
            batches.append(f"{ingest_s:.2f}+{t2 - t1:.2f}")
            last = self._burst(mem, f"b{b + 1}", self.rec.delta_query_s)
        if r == self.n_rounds - 1:  # statistics() decodes every list: once
            self.rec.pages.append(mem.statistics()["statistics"]["total"]["pages"])
        t_ingested = time.perf_counter()

        compacts = []
        for c in range(COMPACTIONS):
            last_copy = c == COMPACTIONS - 1
            target = idx if last_copy else self.work / f"idx-{r}-copy{c}"
            if not last_copy:
                shutil.copytree(idx, target)
            self._next_cpu()
            wall0 = time.time()
            t0 = time.perf_counter()
            cres = IndexUpdater(target).compact()
            t1 = time.perf_counter()
            self.rec.attempted += 1
            if not cres.get("result"):
                self.rec.failed += 1
                self.rec.errors.append(f"compact: {cres}")
            self.rec.compact_s.append(t1 - t0)
            compacts.append(f"{t1 - t0:.2f}")
            if not last_copy:
                shutil.rmtree(target)
            elif self.tracer is not None:
                self._compact_layers(idx, wall0, cres)
        if self.name == "ingest":
            _, n_post, n_bytes = index_site_df(idx)
            self.rec.bytes_per_posting.append(n_bytes / n_post)
        engines = self._engines(idx)
        after = self._burst(engines[0], "compacted", self.rec.compacted_query_s)
        self.rec.errors += oracle_mod.check_same(after, last, "burst before and after compact")
        if r == self.n_rounds - 1:
            self.rec.pages.append(engines[0].statistics()["statistics"]["total"]["pages"])
        t2 = time.perf_counter()
        if self.base is not None:
            self._serve_slice(self.base, "base", self.base_queries)
        else:
            self._warm(engines, self.queries)
            self._serve_slice(engines, "compacted", self.queries)
        t3 = time.perf_counter()
        print(f"perfbench: round {r}: build {t_built - t_start:.2f}s ingest {t_ingested - t_built:.2f}s "
              f"(index_pages+reload per batch: {' '.join(batches)}) compact {' '.join(compacts)}s "
              f"serve {t3 - t2:.2f}s", file=sys.stderr)
        self.last_idx = idx

    # -- measured phase ---------------------------------------------------
    def measure(self) -> float:
        """Whole rounds, one per ``ROUND_S`` of ``--seconds``: every run
        of a workload does the same work, and only the speed it is done
        at varies. Each kind of operation recurs once per round, so its
        repetitions are spread over the whole run (README)."""
        self.n_rounds = max(2, round(self.seconds / ROUND_S))
        t0 = time.perf_counter()
        try:
            for r in range(self.n_rounds):
                self.round(r)
                if r > 0:
                    shutil.rmtree(self.work / f"idx-{r - 1}", ignore_errors=True)
        finally:
            os.sched_setaffinity(0, self.cpus)
        return time.perf_counter() - t0

    def _next_cpu(self) -> None:
        """Move this process to the next of its CPUs. The CPUs of a
        shared host differ in speed, each for seconds at a time (a
        neighbour on the same core); left alone, the scheduler can keep
        this process on a slow one for a whole run. Every timed step of
        this process (each reload, compaction and serving pass) starts on
        the next CPU in turn, so the repetitions of every operation are
        spread over all of them (README)."""
        self._slot += 1
        os.sched_setaffinity(0, {self.cpus[self._slot % len(self.cpus)]})

    def shutdown(self) -> None:
        if self.writer is not None:
            self.writer.close()

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        if self.ray_tmp is not None:
            shutil.rmtree(self.ray_tmp, ignore_errors=True)

    # -- checks (after the measured phase, untimed) -----------------------
    def check(self) -> list[str]:
        errs = list(self.rec.errors)
        c = self.corpus

        def oracle_for(pages: dict) -> oracle_mod.Oracle:
            return oracle_mod.Oracle((p.site_id, p.url, p.text) for p in pages.values())

        states = {"b0": oracle_for(c.latest())}
        for b in range(len(c.batches)):
            states[f"b{b + 1}"] = oracle_for(c.after_batches(b + 1))
        states["compacted"] = states[f"b{len(c.batches)}"] if c.batches else states["b0"]
        base_or = None
        if self.base is not None:
            base_or = oracle_for(self.base_corpus.latest())
            states["base"] = base_or

        for pages in self.rec.pages:
            errs += oracle_mod.check_pages(pages, states["compacted"])
        for kind, site_df, n_post, n_docs in self.rec.builds:
            o = base_or if kind == "base" else states["b0"]
            errs += oracle_mod.check_build(site_df, n_docs, n_post, o)
        for (state, qi), outs in self.rec.responses.items():
            o = states[state]
            qs = self.base_queries if state == "base" else self.queries
            q = self.burst[-1 - qi] if qi < 0 else qs[qi]
            sid = None if q.site is None else crawl_mod.SITES.index(q.site)
            hits = o.ranked(q.text, sid)
            for out in outs:
                errs += oracle_mod.check_search(json.loads(out), hits, q.text, q.offset, q.limit)
        for (state, qi), outs in self.rec.topks.items():
            o = states[state]
            qs = self.base_queries if state == "base" else self.queries
            want = o.bm25_topk(qs[qi].text, 10)
            for out in outs:
                got = [tuple(x) for x in json.loads(out)]
                errs += oracle_mod.check_topk(got, want, 10, qs[qi].text)
        return errs

    # -- metrics ------------------------------------------------------------
    def end_to_end(self, setup_s: float, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
        """Query latencies are each query's fastest repetition in the run,
        the median taken over distinct queries; the p99 and the serving
        throughput pool every raw sample; the write-path figures pool
        every build, micro-batch and compaction of the run (README "Why
        best-of for queries, all samples for the write path")."""
        r = self.rec
        mem, light, topk = r.best("mem"), r.best("light"), r.best("topk")
        served = r.query_s + r.light_s + r.topk_s
        pages = sum(len(b) for b in self.corpus.batches) * self.n_rounds
        ms = lambda d: statistics.median(d.values()) * 1e3  # noqa: E731
        return {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "build_docs_per_s": (sum(r.build_docs) / math.fsum(r.build_s), "docs/s"),
            "postings_bytes_per_posting": (statistics.fmean(r.bytes_per_posting), "B"),
            "queries_per_s": (len(served) / math.fsum(served), "queries/s"),
            "query_p50_ms": (ms(mem), "ms"),
            "query_p99_ms": (_percentile(r.query_s, 99) * 1e3, "ms"),
            "light_query_p50_ms": (ms(light), "ms"),
            "topk_p50_ms": (ms(topk), "ms"),
            "ingest_docs_per_s": (pages / math.fsum(r.ingest_s), "docs/s"),
            "visible_p50_s": (statistics.median(r.visible_s), "s"),
            "compact_s": (statistics.fmean(r.compact_s), "s"),
        }

    # -- traced run: per-layer numbers ------------------------------------
    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def _traced_query(self, mem, light, q) -> None:
        """One query three ways: untraced ``search``, traced ``search``
        (wrappers inside the engine on) and the split public path
        ``search_ranked`` → ``hydrate_docs`` → ``decorate_response``."""
        tr = self.tracer
        tr.request += 1
        kw = dict(site=q.site, offset=q.offset, limit=q.limit)
        # alternate which of the two runs first, so neither always
        # finds the caches warmed by the other
        first_plain = tr.request % 2 == 0
        if first_plain:
            plain = self._search(mem, q, self.rec.query_s)
        with tr:
            t0 = tr.begin()
            traced = mem.search(q.text, **kw)
            tr.end("engine.search", t0)
        if not first_plain:
            plain = self._search(mem, q, self.rec.query_s)
        self._sample("plain", self.rec.query_s[-1])
        t0 = time.perf_counter()
        ranked = mem.search_ranked(q.text, **kw)
        t1 = time.perf_counter()
        if "response" not in ranked:
            docs = mem.hydrate_docs(ranked["doc_ids"])
            t2 = time.perf_counter()
            split = mem.decorate_response(q.text, ranked["doc_ids"], ranked["scores"], docs, ranked["total"])
            t3 = time.perf_counter()
            light.hydrate_docs(ranked["doc_ids"])
            t4 = time.perf_counter()
            self._sample("hydrate", t2 - t1)
            self._sample("decorate", t3 - t2)
            self._sample("light_hydrate", t4 - t3)
            self._sample("split_sum", t3 - t0)
            self._sample("split_whole", self.rec.query_s[-1])
        else:
            split = ranked["response"]
        self._sample("rank", t1 - t0)
        self.rec.errors += oracle_mod.check_same(plain, traced, f"traced {q.text!r}")
        self.rec.errors += oracle_mod.check_same(plain, split, f"split path {q.text!r}")
        sid = None if q.site is None else crawl_mod.SITES.index(q.site)
        lemmas = oracle_mod.query_lemmas(q.text)
        self._sample("postings_scored", sum(mem.term_postings(t, sid)[2] for t in lemmas))

    def _wand_counts(self, eng, q, decoded: int) -> None:
        from search_engine_skillbox_ray.stages.codec import BLOCK_SIZE

        total = sum(math.ceil(eng.term_postings(t)[2] / BLOCK_SIZE) for t in oracle_mod.query_lemmas(q.text))
        self._sample("blocks_decoded", decoded)
        self._sample("blocks_total", total)

    def _build_layers(self, idx: Path, wall: float, pages_in: int, docs_out: int) -> None:
        mf = json.loads((idx / "manifest.json").read_text())["metrics"]
        phases = mf.get("phases", {})
        for ph in ("heavy_sample", "stream_job", "stats"):
            self._sample(f"phase.{ph}", phases.get(ph, 0.0))
        self._sample("phase_ratio", sum(phases.values()) / wall)
        for op, (w, rows) in parse_stream_stats(mf.get("stream_stats") or "").items():
            self._sample(f"op.{op}.wall_s", w)
            self._sample(f"op.{op}.rows_out", rows)
        self._sample("pages_in", pages_in)
        self._sample("docs_out", docs_out)

    def _compact_layers(self, idx: Path, wall_start: float, cres: dict) -> None:
        """Bytes of the segment files compaction rewrote (modified after
        ``wall_start``, epoch seconds) and its own bucket count."""
        written = sum(
            f.stat().st_size for f in (idx / "postings").glob("bucket=*.parquet")
            if f.stat().st_mtime >= wall_start
        )
        self._sample("compact_bytes", written)
        self._sample("compact_buckets", cres.get("buckets_rewritten", 0))

    def micro_layers(self) -> None:
        """Single-layer rates over fixed inputs, after the measured phase."""
        import pyarrow as pa

        from search_engine_skillbox_ray import SearchEngine
        from search_engine_skillbox_ray.functions.extract import extract_text
        from search_engine_skillbox_ray.stages.codec import decode_posting_list, encode_posting_list
        from search_engine_skillbox_ray.stages.tokenizer import TokenizeExplode

        pages = self.corpus.pages[:300]
        t0 = time.perf_counter()
        for _ in range(3):
            for p in pages:
                extract_text(p.html.encode())
        self.layers["extract.pages_per_s"] = (3 * len(pages) / (time.perf_counter() - t0), "pages/s")

        sample = self.corpus.pages[:300]
        docs = pa.table({
            "text": [p.text for p in sample],
            "doc_id": pa.array(range(len(sample)), pa.int64()),
            "site_id": pa.array([p.site_id for p in sample], pa.int32()),
        })
        tok = TokenizeExplode()
        t0 = time.perf_counter()
        for _ in range(5):
            tok(docs)
        self.layers["tokenizer.docs_per_s"] = (5 * docs.num_rows / (time.perf_counter() - t0), "docs/s")

        rows = []
        for f in sorted((self.last_idx / "postings").glob("bucket=*.parquet")):
            rows += pq.read_table(f).to_pylist()
        t0 = time.perf_counter()
        lists = [decode_posting_list(r) for r in rows]
        t1 = time.perf_counter()
        for d, tf in lists:
            encode_posting_list(d, tf)
        t2 = time.perf_counter()
        n_post = sum(int(r["df"]) for r in rows)
        self.layers["codec.decode_postings_per_s"] = (n_post / (t1 - t0), "postings/s")
        self.layers["codec.encode_postings_per_s"] = (n_post / (t2 - t1), "postings/s")
        _, n_post_idx, n_bytes = index_site_df(self.last_idx)
        self.layers["codec.postings"] = (n_post_idx, "postings")
        self.layers["codec.terms"] = (len({r["term"] for r in rows}), "terms")
        self.layers["codec.postings_bytes"] = (n_bytes, "B")

        eng = SearchEngine(self.last_idx)
        terms = self.corpus.vocab[:: max(1, len(self.corpus.vocab) // 60)][:60]
        t0 = time.perf_counter()
        for t in terms:
            eng.term_postings(t)
        self.layers["engine.cold_term_ms"] = ((time.perf_counter() - t0) / len(terms) * 1e3, "ms")

    def per_layer(self) -> dict[str, tuple[float, str]]:
        s, tr, r = self.samples, self.tracer, self.rec
        med = lambda k: statistics.median(s[k])  # noqa: E731
        mean = lambda k: statistics.fmean(s[k])  # noqa: E731
        out: dict[str, tuple[float, str]] = {}
        # heavy_sample is left out: the Zipf-head sample overlaps the
        # prepass, so the phase reads 0.000 s (ms-rounded) at this scale
        for ph in ("stream_job", "stats"):
            out[f"build.{ph}_s"] = (mean(f"phase.{ph}"), "s")
        for op in STREAM_OPS:
            out[f"build.op.{op}.wall_s"] = (mean(f"op.{op}.wall_s"), "s")
            out[f"build.op.{op}.rows_out"] = (mean(f"op.{op}.rows_out"), "rows")
        out["pages.derive_sites_s"] = (statistics.fmean(r.derive_s), "s")
        out["pages.pages_in"] = (mean("pages_in"), "pages")
        out["pages.docs_out"] = (mean("docs_out"), "docs")
        rank = s["rank"]
        out["engine.rank_p50_ms"] = (_percentile(rank, 50) * 1e3, "ms")
        out["engine.rank_p99_ms"] = (_percentile(rank, 99) * 1e3, "ms")
        out["engine.hydrate_ms"] = (med("hydrate") * 1e3, "ms")
        out["engine.light_hydrate_ms"] = (med("light_hydrate") * 1e3, "ms")
        out["engine.decorate_ms"] = (med("decorate") * 1e3, "ms")
        out["engine.postings_scored_per_query"] = (mean("postings_scored"), "postings")
        snip = tr.durations("snippets.generate_snippet")
        out["snippets.snippet_us"] = (statistics.fmean(snip) * 1e6, "us")
        dec, tot = sum(s["blocks_decoded"]), sum(s["blocks_total"])
        out["wand.blocks_decoded_per_query"] = (dec / len(s["blocks_decoded"]), "blocks")
        out["wand.blocks_total_per_query"] = (tot / len(s["blocks_total"]), "blocks")
        out["wand.blocks_decoded_share"] = (dec / tot, "ratio")
        out["updater.index_pages_s"] = (statistics.fmean(r.ingest_s), "s")
        out["updater.compact_bytes_written"] = (mean("compact_bytes"), "B")
        out["updater.compact_buckets_rewritten"] = (mean("compact_buckets"), "buckets")
        segs = np.array([n for n, _ in r.reload_s], np.float64)
        secs = np.array([x for _, x in r.reload_s], np.float64)
        out["engine.reload_updates_s"] = (float(secs.mean()), "s")
        out["engine.reload_s_per_segment"] = (float(np.polyfit(segs, secs, 1)[0]), "s")
        out["engine.delta_query_ms"] = (_percentile(r.delta_query_s, 50) * 1e3, "ms")
        out["engine.compacted_query_ms"] = (_percentile(r.compacted_query_s, 50) * 1e3, "ms")
        out.update(self.layers)
        whole = med("split_whole")
        out["trace.split_over_whole"] = (med("split_sum") / whole, "ratio")
        out["trace.build_phases_over_wall"] = (mean("phase_ratio"), "ratio")
        traced = _percentile(tr.durations("engine.search"), 50)
        out["trace.overhead_pct"] = ((traced / med("plain") - 1.0) * 100.0, "%")
        return out


# additivity tolerances of the traced run (README "Traced run")
SPLIT_TOLERANCE = 0.15  # |(rank + hydrate + decorate) / search() - 1|
BUILD_PHASES_RANGE = (0.80, 1.02)  # manifest phase sum / outside build wall


def additivity_errors(layers: dict[str, tuple[float, str]]) -> list[str]:
    errs = []
    split = layers["trace.split_over_whole"][0]
    if abs(split - 1.0) > SPLIT_TOLERANCE:
        errs.append(f"rank + hydrate + decorate = {split:.3f} x search(), outside ±{SPLIT_TOLERANCE}")
    ph = layers["trace.build_phases_over_wall"][0]
    lo, hi = BUILD_PHASES_RANGE
    if not lo <= ph <= hi:
        errs.append(f"manifest phases explain {ph:.3f} of the build wall, outside [{lo}, {hi}]")
    return errs


# Ray operators of the build's streaming job, keyed by a stable short name
STREAM_OPS = ("read", "extract_tokenize", "sort", "write_bucket")


def _op_key(header: str) -> str | None:
    if "ReadParquet" in header:
        return "read"
    if "TokenizeExplode" in header:
        return "extract_tokenize"
    if header.startswith("Sort"):
        return "sort"
    if "write_bucket" in header:
        return "write_bucket"
    return None


def parse_stream_stats(text: str) -> dict[str, tuple[float, int]]:
    """Ray Dataset stats text → {operator: (wall seconds, rows out)}."""
    import re

    out: dict[str, tuple[float, int]] = {}
    for sec in re.split(r"\n(?=Operator \d+ )", "\n" + text):
        m = re.match(r"Operator \d+ (.+?): (?:.*?produced in|executed in) ([\d.]+)(s|ms|min)", sec.strip())
        if not m:
            continue
        key = _op_key(m.group(1))
        if key is None:
            continue
        wall = float(m.group(2)) * {"s": 1.0, "ms": 1e-3, "min": 60.0}[m.group(3)]
        rows = re.findall(r"Output num rows per block: .*?, (\d+) total", sec)
        out[key] = (wall, int(rows[-1]) if rows else 0)
    return out
