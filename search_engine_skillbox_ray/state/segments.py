"""One LSM segment store for the pipeline index families.

The positional index (``pipelines/posindex.py``), the 128-bit hash-id
index (``pipelines/index128.py``), the ANN index
(``pipelines/ann_index.py``) and the MinHash index
(``pipelines/dedup_index.py``) all map the reference's in-place row
updates onto the same log-structured lifecycle; this module owns every
decision of it, so each family supplies only its build, its encode and
one merge function.

On-disk contract (per index directory):

* a segment KEY names a shard (``bucket=00003``, ``part=00012``,
  ``docmap``): the base file is ``{key}.parquet``, each append adds a
  delta ``{key}.delta-{seq:04d}.parquet``;
* ``{prefix}tombstone-{seq:04d}.parquet`` holds the ids a delete kills:
  a tombstone kills an id only in segments written BEFORE it (seq
  below its own), so a delete → re-add keeps the re-added row;
* a compacted base is current through the seq stamped in its parquet
  footer under ``STAMP_KEY`` (written atomically with the data; −1 or
  absent for a fresh build);
* ONE seq counter orders appends, deletes AND compactions: the next seq
  is one past every delta, tombstone and base stamp on disk, so a
  delete issued after a compaction lands above the stamps it must beat;
* ``{prefix}{append|delete}.{md5(token)[:10]}.json`` markers make a
  re-issued batch a no-op;
* ``prefix`` keeps families that could share a directory disjoint.

Compaction folds every touched key in one Ray task per key, stamps the
base with a fold seq that covers every file on disk (so it never
decreases), unlinks that key's deltas after its base rename, and
unlinks the tombstones only after every key landed: a crash in between
leaves tombstones whose seq is at or below the folded stamps, which
then kill nothing — and a re-run converges.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

STAMP_KEY = b"base_seq"

_memo: dict[tuple, object] = {}


def _memoized(path: Path, tag: str, read: Callable[[], object]):
    """``read()`` memoized per (file identity, tag): files are written
    once via tmp+rename, so (inode, mtime, size) changes whenever the
    content can."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    key = (str(path), tag, st.st_ino, st.st_mtime_ns, st.st_size)
    hit = _memo.get(key)
    if hit is None:
        hit = read()
        if len(_memo) > 4096:
            _memo.clear()
        _memo[key] = hit
    return hit


def _name_seq(f: Path) -> int:
    return int(f.name.rsplit("-", 1)[1].split(".")[0])


def file_seq(f: str | Path) -> int:
    """LSM seq of a segment file: a delta's from its name, a base's from
    its footer stamp (−1 for a fresh build)."""
    f = Path(f)
    if ".delta-" in f.name:
        return _name_seq(f)

    def read() -> int:
        meta = pq.read_schema(f).metadata or {}
        return int(meta.get(STAMP_KEY, b"-1"))

    seq = _memoized(f, "stamp", read)
    return -1 if seq is None else seq


def row_keys(table: pa.Table, cols: tuple[str, ...]) -> np.ndarray:
    """Row identity for membership tests: the int64 column itself, or
    for a multi-column id (the 128-bit (hi, lo) pair) one opaque
    fixed-width value per row — equality only, so signed and unsigned
    bit patterns compare alike."""
    arrs = [
        table.column(c).to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
        for c in cols
    ]
    if len(arrs) == 1:
        return arrs[0]
    return np.ascontiguousarray(np.stack(arrs, axis=1)).view(
        np.dtype((np.void, 8 * len(arrs)))
    ).ravel()


def dead_union(tombs: list[tuple[int, np.ndarray]], seq: int) -> np.ndarray | None:
    """Ids killed in a segment written at ``seq``: the union of the
    tombstones issued after it (None when none apply)."""
    rel = [a for s, a in tombs if s > seq]
    if not rel:
        return None
    return rel[0] if len(rel) == 1 else np.unique(np.concatenate(rel))


def first_per_key(table: pa.Table, key_cols: tuple[str, ...]) -> pa.Table:
    """Sort by ``key_cols`` (stable) and keep the first row per key — so
    with segments concatenated base-first the oldest copy wins; a
    duplicate only arises from a compaction interrupted between a base
    rename and its delta unlink, with identical content either way."""
    if len(table) < 2:
        return table
    table = table.take(pc.sort_indices(table, [(c, "ascending") for c in key_cols]))
    n = len(table)
    new = np.zeros(n - 1, dtype=bool)
    for c in key_cols:
        col = table.column(c)
        new |= pc.not_equal(col.slice(1), col.slice(0, n - 1)).to_numpy(
            zero_copy_only=False
        )
    if new.all():
        return table
    return table.filter(pa.array(np.concatenate([[True], new])))


def write_table(path: Path, table: pa.Table, stamp: int | None = None) -> None:
    """Atomic tmp+rename parquet write, optionally stamping the seq the
    file is current through into its footer."""
    if stamp is not None:
        meta = dict(table.schema.metadata or {})
        meta[STAMP_KEY] = str(stamp).encode()
        table = table.replace_schema_metadata(meta)
    tmp = path.with_name(path.name + ".tmp")
    pq.write_table(table, tmp, compression="zstd")
    os.replace(tmp, path)


def tombstones(
    root: str | Path,
    prefix: str = "",
    id_cols: tuple[str, ...] = ("doc_id",),
    as_of: int | None = None,
) -> list[tuple[int, np.ndarray]]:
    """Live tombstones as (seq, sorted unique row keys), seq ascending;
    ``as_of`` keeps only those issued at or before it."""
    out = []
    for f in sorted(Path(root).glob(f"{prefix}tombstone-*.parquet")):
        seq = _name_seq(f)
        if as_of is not None and seq > as_of:
            continue
        keys = _memoized(
            f, "tomb", lambda f=f: np.unique(row_keys(pq.read_table(f, columns=list(id_cols)), id_cols))
        )
        if keys is not None:
            out.append((seq, keys))
    return out


@dataclass(frozen=True)
class SegmentStore:
    """One family's view of an index directory: ``bases`` are glob stems
    of its segment keys, ``id_cols`` the columns a tombstone holds and
    ``prefix`` its tombstone/marker name prefix."""

    root: Path
    bases: tuple[str, ...]
    id_cols: tuple[str, ...] = ("doc_id",)
    prefix: str = ""

    # -- naming --------------------------------------------------------
    def base(self, key: str) -> Path:
        return self.root / f"{key}.parquet"

    def delta(self, key: str, seq: int) -> Path:
        return self.root / f"{key}.delta-{seq:04d}.parquet"

    def write(self, key: str, table: pa.Table, seq: int | None = None) -> None:
        """Atomic write of ``key``'s base (``seq`` None) or its delta."""
        write_table(self.base(key) if seq is None else self.delta(key, seq), table)

    def _files(self, pattern: str) -> list[Path]:
        return sorted({f for b in self.bases for f in self.root.glob(b + pattern)})

    def base_files(self) -> list[Path]:
        return [f for f in self._files(".parquet") if ".delta-" not in f.name]

    def delta_files(self) -> list[Path]:
        return self._files(".delta-*.parquet")

    def _tomb_files(self) -> list[Path]:
        return sorted(self.root.glob(f"{self.prefix}tombstone-*.parquet"))

    # -- seq counter ---------------------------------------------------
    def next_seq(self) -> int:
        """One past every delta, tombstone and base stamp on disk."""
        seqs = [_name_seq(f) for f in self.delta_files() + self._tomb_files()]
        seqs += [file_seq(f) for f in self.base_files()]
        return max(seqs, default=-1) + 1

    # -- segments and tombstones --------------------------------------
    def segments(self, key: str, as_of: int | None = None) -> list[tuple[Path, int]]:
        """``key``'s base then its deltas in seq order, each with its
        seq. ``as_of`` gives a point-in-time view: newer deltas are
        skipped, and a base already folded past it raises — that history
        is physically gone (Lucene PIT-reader semantics)."""
        files = [self.base(key)] + sorted(self.root.glob(f"{key}.delta-*.parquet"))
        segs = [(f, file_seq(f)) for f in files if f.exists()]
        if as_of is None:
            return segs
        for f, seq in segs:
            if seq > as_of and ".delta-" not in f.name:
                raise ValueError(
                    f"as_of={as_of}: base segment {f.name} is current through "
                    f"seq {seq} — compaction folded that history away; "
                    "point-in-time reads only reach still-present segments"
                )
        return [(f, s) for f, s in segs if s <= as_of]

    def tombstones(self, as_of: int | None = None) -> list[tuple[int, np.ndarray]]:
        return tombstones(self.root, self.prefix, self.id_cols, as_of)

    def dead(self, seq: int = -1) -> np.ndarray:
        """Ids killed in a segment written at ``seq`` (default: every
        tombstoned id)."""
        rel = dead_union(self.tombstones(), seq)
        return np.empty(0, np.int64) if rel is None else rel

    def drop_dead(self, table: pa.Table, seq: int, tombs) -> pa.Table:
        dead = dead_union(tombs, seq)
        if dead is None or not len(table):
            return table
        keep = ~np.isin(row_keys(table, self.id_cols), dead)
        return table if keep.all() else table.filter(pa.array(keep))

    def merge(
        self,
        segs: list[tuple[pa.Table, int]],
        key_cols: tuple[str, ...],
        tombs=None,
    ) -> pa.Table | None:
        """The row-keyed merge: drop the rows a later tombstone kills,
        concat base-first, keep the first row per ``key_cols`` (sorted by
        them). None when there are no segments."""
        if not segs:
            return None
        if tombs is None:
            tombs = self.tombstones()
        kept = [self.drop_dead(t, seq, tombs) for t, seq in segs]
        if len(kept) == 1:  # a segment is written sorted and unique
            return kept[0]
        return first_per_key(pa.concat_tables(kept), key_cols)

    def write_tombstone(self, table: pa.Table) -> int:
        seq = self.next_seq()
        write_table(self.root / f"{self.prefix}tombstone-{seq:04d}.parquet", table)
        return seq

    def delete(self, ids, token: str | None) -> dict:
        """Tombstone the int64 ``ids`` of a single-id-column family, once
        per ``token``."""

        def run() -> dict:
            keys = np.unique(np.asarray(list(ids), dtype=np.int64))
            seq = self.write_tombstone(pa.table({self.id_cols[0]: pa.array(keys, pa.int64())}))
            return {"seq": seq, "n_tombstoned": int(len(keys))}

        return self.once("delete", token, run)

    # -- markers -------------------------------------------------------
    def once(self, op: str, token: str | None, run: Callable[[], dict]) -> dict:
        """``run()`` unless a same-token ``op`` already completed (its
        recorded result is returned); the marker lands after the work."""
        if token is None:
            return run()
        tag = hashlib.md5(token.encode("utf-8")).hexdigest()[:10]
        marker = self.root / f"{self.prefix}{op}.{tag}.json"
        if marker.exists():
            return json.loads(marker.read_text())
        res = run()
        tmp = marker.with_name(marker.name + ".tmp")
        tmp.write_text(json.dumps(res))
        os.replace(tmp, marker)
        return res

    # -- rebuild and compaction ----------------------------------------
    def reset(self) -> None:
        """A rebuild invalidates everything derived from the old corpus:
        segments (a key that gets no rows under the new build would
        linger), tombstones (they would kill rows of the fresh base) and
        markers (a stale one would skip a re-issued batch)."""
        self.root.mkdir(parents=True, exist_ok=True)
        stale = self._files(".parquet") + self.delta_files() + self._tomb_files()
        stale += self.root.glob("*.tmp")
        for op in ("append", "delete"):
            stale += self.root.glob(f"{self.prefix}{op}.*.json")
        for f in stale:
            f.unlink(missing_ok=True)

    def compact(self, fold: Callable[[str, list, list], pa.Table | None]) -> dict:
        """Fold every key with deltas — every key, when tombstones exist —
        into its base: one Ray task per key runs ``fold(key, segments,
        tombstones)`` (the family's merge) and writes the result stamped
        with the fold seq. → {key: rows written}."""
        import ray

        tomb_files = self._tomb_files()
        keys = {f.name.split(".delta-")[0] for f in self.delta_files()}
        if tomb_files:
            keys |= {f.name[: -len(".parquet")] for f in self.base_files()}
        if not keys:
            return {}
        stamp = self.next_seq() - 1
        tombs = self.tombstones()

        @ray.remote
        def fold_key(key: str) -> int:
            segs = self.segments(key)
            table = fold(key, segs, tombs)
            if table is not None:
                write_table(self.base(key), table, stamp=stamp)
            for f, _ in segs:
                if ".delta-" in f.name:
                    f.unlink()
            return 0 if table is None else len(table)

        keys = sorted(keys)
        counts = ray.get([fold_key.remote(k) for k in keys])
        # every base is current through the stamp now: the tombstones are
        # spent (a crash before this line leaves them harmless)
        for f in tomb_files:
            f.unlink(missing_ok=True)
        return dict(zip(keys, counts))
