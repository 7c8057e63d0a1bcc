"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload {serve,ingest} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the same workload with spans on and prints
the per-layer metrics, writing the spans to
``.bench_out/trace-<workload>-<seed>.jsonl``. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent


def _since_process_start() -> float:
    """Seconds since this process started (clock-tick resolution), so
    set-up time includes interpreter start-up and imports."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - _T0


_STARTED = _since_process_start() - (time.perf_counter() - _T0)


def main(argv: list[str] | None = None) -> int:
    from perfbench.workloads import SPECS  # light: numpy/pyarrow only

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if importlib.util.find_spec("search_engine_skillbox_ray") is None:
        print(f"perfbench: the program (package search_engine_skillbox_ray) is not in {ROOT}; "
              "run the benchmark from the root of a checkout of the repository", file=sys.stderr)
        return 2

    from perfbench.trace import Tracer, install_engine_targets
    from perfbench.workloads import Run, additivity_errors

    tracer = None
    if args.trace:
        tracer = Tracer()
        install_engine_targets(tracer)
    run = Run(args.workload, args.seed, args.seconds, ROOT, tracer)
    try:
        run.setup()
        setup_s = _STARTED + (time.perf_counter() - _T0)
        run.measure()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            run.micro_layers()
        t_check = time.perf_counter()
        errors = run.check()
        print(f"perfbench: checks {time.perf_counter() - t_check:.2f}s", file=sys.stderr)
        if tracer is None:
            metrics = run.end_to_end(setup_s, peak_rss_mb)
        else:
            metrics = run.per_layer()
            errors += additivity_errors(metrics)
            tracer.write(ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl")
    finally:
        run.shutdown()
        run.cleanup()
    for e in errors[:20]:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    if len(errors) > 20:
        print(f"perfbench: … {len(errors) - 20} more failed checks", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: {run.n_rounds} rounds, "
          f"{run.rec.attempted} operations", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": run.rec.attempted,
        "failed": run.rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
