"""Source/sink format coverage beyond Parquet: JSONL, CSV and
hive-partitioned Parquet — the interchange formats a corpus actually
arrives in. Each writer shards by input block (resumable layout: one
file per shard under a token-stamped directory, the same
skip-if-complete contract as the index builder's shard sink), and each
reader is the matching ``ray.data`` source so the round trip exercises
BOTH directions of the format.

Determinism: writers are idempotent per ``input_token`` — a re-run
with the same token reuses the finished directory (mtime-stable), so
downstream reads hash identically across runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import pyarrow as pa

import ray
import ray.data as rd


def _export_dir(base: str, fmt: str, input_token: str) -> Path:
    tag = hashlib.md5(f"{fmt}:{input_token}".encode()).hexdigest()[:10]
    return Path(base) / f"ses_export_{fmt}_{tag}"


def _is_complete(out: Path) -> bool:
    return Path(str(out) + ".done").exists()


def _mark_complete(out: Path) -> None:
    # marker lives BESIDE the data dir: Ray readers ingest every
    # file inside it, markers included
    Path(str(out) + ".done").touch()


def export_jsonl(
    documents: rd.Dataset, *, base: str = "/tmp", input_token: str = "default"
) -> str:
    """Write documents as sharded JSONL (one file per block, atomic
    rename) and return the directory. Skips entirely when the token's
    directory is already complete — the resumable-sink contract."""
    out = _export_dir(base, "jsonl", input_token)
    if _is_complete(out):
        return str(out)
    out.mkdir(parents=True, exist_ok=True)
    for f in out.glob("*.jsonl"):
        f.unlink()

    @ray.remote(num_cpus=0.5)
    def write_shard(t: pa.Table, path: str) -> int:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for row in t.to_pylist():
                fh.write(json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return len(t)

    refs = documents.materialize().to_arrow_refs()
    ray.get(
        [
            write_shard.remote(r, str(out / f"shard-{i:05d}.jsonl"))
            for i, r in enumerate(refs)
        ]
    )
    _mark_complete(out)
    return str(out)


def export_csv(
    documents: rd.Dataset, *, base: str = "/tmp", input_token: str = "default"
) -> str:
    """Write documents as sharded CSV via Arrow's writer (typed,
    quoted) — same resumable layout as :func:`export_jsonl`."""
    import pyarrow.csv as pacsv

    out = _export_dir(base, "csv", input_token)
    if _is_complete(out):
        return str(out)
    out.mkdir(parents=True, exist_ok=True)
    for f in out.glob("*.csv"):
        f.unlink()

    @ray.remote(num_cpus=0.5)
    def write_shard(t: pa.Table, path: str) -> int:
        tmp = path + ".tmp"
        pacsv.write_csv(t, tmp)
        os.replace(tmp, path)
        return len(t)

    refs = documents.materialize().to_arrow_refs()
    ray.get(
        [
            write_shard.remote(r, str(out / f"shard-{i:05d}.csv"))
            for i, r in enumerate(refs)
        ]
    )
    _mark_complete(out)
    return str(out)


def export_partitioned_parquet(
    documents: rd.Dataset,
    partition_col: str = "lang",
    *,
    base: str = "/tmp",
    input_token: str = "default",
) -> str:
    """Hive-partitioned Parquet sink (``lang=en/…``) through Ray Data's
    own ``write_parquet(partition_cols=…)`` — the resumable layout the
    100 TB contract asks for: a failed run re-runs only by token, and
    readers prune partitions at the directory level."""
    out = _export_dir(base, "hive", input_token)
    if _is_complete(out):
        return str(out)
    if out.exists():
        import shutil

        shutil.rmtree(out)
    out.mkdir(parents=True, exist_ok=True)
    documents.write_parquet(str(out), partition_cols=[partition_col])
    _mark_complete(out)
    return str(out)
