"""The writer process: it owns the Ray session and makes the engine's
write calls on request.

``derive_sites`` + ``build_index_from_pages`` and
``IndexUpdater.index_pages`` need Ray; compaction, reloads and queries do
not. Running the Ray calls in a child process lets a round interleave
writes and reads (build, micro-batches, compaction, serving) while the
process that serves queries never starts Ray. Every time reported for a
write call is taken in this process around that call alone; the pipe
round-trip is not part of it.
"""

from __future__ import annotations

import multiprocessing as mp
import time

RAY_CPUS = 2  # fixed: a 1-CPU session hangs the build (README)
IDLE_WORKER_KEEP_MS = 600_000
START_TIMEOUT_S = 150.0  # process start + ray.init
CALL_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 60.0


def _init_ray(ray_tmp: str | None) -> None:
    import logging

    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        _temp_dir=ray_tmp,
        # keep idle workers: Ray's default kills them after 1 s idle, so
        # a micro-batch after a pause paid a worker start or not by
        # chance (0.55 s or 1.2-1.7 s, README)
        _system_config={"idle_worker_killing_time_threshold_ms": IDLE_WORKER_KEEP_MS},
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    logging.getLogger("ray").setLevel(logging.ERROR)


def _build(crawl_dir: str, idx: str) -> dict:
    import ray.data as rd

    import search_engine_skillbox_ray as ses
    from search_engine_skillbox_ray.sources.pages import derive_sites

    t0 = time.perf_counter()
    pages = rd.read_parquet(crawl_dir)
    sites = derive_sites(pages)
    t1 = time.perf_counter()
    res = ses.build_index_from_pages(
        pages, idx, sites, ses.BuildConfig(n_buckets=8),
        input_token=crawl_dir, pages_path=crawl_dir,
    )
    t2 = time.perf_counter()
    return {"n_docs": res.n_docs, "t0": t0, "t1": t1, "t2": t2}


def _index_pages(idx: str, batch_file: str) -> dict:
    import pyarrow.parquet as pq

    from search_engine_skillbox_ray import IndexUpdater

    tbl = pq.read_table(batch_file)
    t0 = time.perf_counter()
    resp = IndexUpdater(idx).index_pages(tbl)
    t1 = time.perf_counter()
    return {"response": resp, "t0": t0, "t1": t1}


_CALLS = {"build": _build, "index_pages": _index_pages}


def _serve(conn, ray_tmp: str | None) -> None:
    import ray

    try:
        _init_ray(ray_tmp)
        conn.send(("ready", None))
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            try:
                conn.send(("ok", _CALLS[msg[0]](*msg[1:])))
            except Exception as e:  # reported to the parent, counted there
                conn.send(("error", f"{type(e).__name__}: {e}"))
    finally:
        ray.shutdown()
        conn.close()


class Writer:
    """Parent-side handle: start the process, call it, stop it."""

    def __init__(self, ray_tmp: str | None) -> None:
        ctx = mp.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, args=(child, ray_tmp), daemon=False)
        self._proc.start()
        child.close()
        try:
            self._recv(START_TIMEOUT_S, "start")
        except BaseException:
            self.close()
            raise

    def _recv(self, timeout: float, what: str):
        if not self._conn.poll(timeout):
            raise RuntimeError(f"writer process: no answer to {what} within {timeout:.0f} s")
        try:
            status, value = self._conn.recv()
        except EOFError:
            raise RuntimeError(f"writer process: exited during {what}") from None
        if status == "error":
            raise RuntimeError(f"writer process: {what}: {value}")
        return value

    def call(self, name: str, *args: str) -> dict:
        self._conn.send((name, *args))
        return self._recv(CALL_TIMEOUT_S, name)

    def close(self) -> None:
        if self._proc.is_alive():
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            self._proc.join(STOP_TIMEOUT_S)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join(STOP_TIMEOUT_S)
        self._conn.close()
