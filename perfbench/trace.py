"""In-memory spans around the program's public calls (traced runs only).

The benchmark's own code records a span around every call it makes
into a layer (build, derive_sites, search, topk, index_pages, compact,
reload_updates). For the calls the engine makes inside ``search`` —
``search_ranked``, ``decorate_response``, ``term_postings`` and
``functions.snippets.generate_snippet`` — :class:`Tracer` swaps in thin
timing wrappers while tracing is on and restores the originals after.
Nothing in the program's files changes.

Spans are ``(name, start_s, end_s, parent, request)`` tuples kept in a
list and written out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[int] = []
        self.request = 0
        self._targets: list[tuple[object, str, str]] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------
    def begin(self) -> float:
        self._stack.append(len(self.spans))
        return time.perf_counter()

    def end(self, name: str, t0: float) -> float:
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, t0, t1, parent, self.request))
        return t1 - t0

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e, _, _ in self.spans if n == name]

    # -- wrappers around calls made inside the program ---------------
    def target(self, owner: object, attr: str, name: str) -> None:
        self._targets.append((owner, attr, name))

    def __enter__(self) -> "Tracer":
        for owner, attr, name in self._targets:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            t0 = tracer.begin()
            try:
                return fn(*args, **kw)
            finally:
                tracer.end(name, t0)

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for n, s, e, parent, req in self.spans:
                f.write(json.dumps({"name": n, "start": s, "end": e, "parent": parent, "request": req}) + "\n")


def install_engine_targets(tracer: Tracer) -> None:
    """Register the in-engine calls that a traced ``search`` crosses."""
    from search_engine_skillbox_ray.state import engine as engine_mod

    cls = engine_mod.SearchEngine
    tracer.target(cls, "search_ranked", "engine.search_ranked")
    tracer.target(cls, "decorate_response", "engine.decorate_response")
    tracer.target(cls, "term_postings", "engine.term_postings")
    tracer.target(engine_mod, "generate_snippet", "snippets.generate_snippet")
