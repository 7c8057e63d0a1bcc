"""Windowed aggregates over the ``events`` stream-shaped table.

The reference has no streaming features (SURVEY §2.9); these are the
batch-windowing operators a log/event pipeline needs, expressed on the
ordered-partitioned-log model: partition by key, order by ts inside the
partition, window inside ``map_groups`` (ray_guide streaming section).

* ``tumbling_window`` demonstrates the partial-aggregation pattern:
  per-batch pre-aggregation (one row per (key, window) per batch)
  BEFORE the groupby — the shuffle moves partials, not events.
* ``sessionize`` computes gap-based sessions per user inside
  ``groupby(user).map_groups`` over ts-sorted groups.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd


def tumbling_window(
    events: rd.Dataset,
    window_s: int = 3600,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
) -> rd.Dataset:
    """→ (key, window_start:int64 epoch-seconds, n_events, sum_value[r6]).

    Pre-aggregates inside map_batches, then a small groupby-sum over
    partials — the canonical shuffle-minimizing aggregate shape.
    """

    def partial(batch: pa.Table) -> pa.Table:
        epoch = pc.cast(batch.column(ts_col), pa.int64())  # us since epoch
        win = pc.multiply(pc.divide(epoch, 1_000_000 * window_s), window_s)
        t = pa.table(
            {
                key_col: batch.column(key_col),
                "window_start": win,
                "n": pa.array(np.ones(len(batch), dtype=np.int64)),
                "v": pc.cast(batch.column(value_col), pa.float64()),
            }
        )
        return t.group_by([key_col, "window_start"]).aggregate([("n", "sum"), ("v", "sum")]).rename_columns(
            [key_col, "window_start", "n", "v"]
        )

    partials = events.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby([key_col, "window_start"]).sum(["n", "v"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: batch.column(key_col),
                "window_start": batch.column("window_start"),
                "n_events": pc.cast(batch.column("sum(n)"), pa.int64()),
                "sum_value": pa.array(
                    np.round(batch.column("sum(v)").to_numpy(zero_copy_only=False), 6)
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def hopping_window(
    events: rd.Dataset,
    window_s: int = 3600,
    hop_s: int = 900,
    key_col: str = "event_type",
    ts_col: str = "ts",
    value_col: str = "value",
) -> rd.Dataset:
    """→ (key, window_start:int64 epoch-seconds, n_events, sum_value[r6])
    over OVERLAPPING (sliding/hopping) windows of ``window_s`` seconds
    advancing every ``hop_s`` (must divide window_s) — each event counts
    in ``window_s // hop_s`` windows.

    Same shuffle-minimizing shape as :func:`tumbling_window`: the
    window-membership EXPLOSION happens inside ``map_batches`` and is
    immediately pre-aggregated to (key, window_start) partials, so the
    exchange moves at most keys × windows rows per batch, never
    event × membership rows. Window starts may precede the first event
    (standard hopping semantics: every window containing the event)."""
    if window_s % hop_s != 0:
        raise ValueError("window_s must be a multiple of hop_s")
    k = window_s // hop_s

    def partial(batch: pa.Table) -> pa.Table:
        n = len(batch)
        epoch_us = pc.cast(batch.column(ts_col), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        base = epoch_us // (hop_s * 1_000_000)  # floor (ts are post-epoch)
        offs = np.arange(k, dtype=np.int64)
        starts = ((base[:, None] - offs[None, :]) * hop_s).reshape(-1)
        keys = batch.column(key_col)
        vals = pc.cast(batch.column(value_col), pa.float64()).to_numpy(
            zero_copy_only=False
        )
        t = pa.table(
            {
                key_col: keys.take(pa.array(np.repeat(np.arange(n), k))),
                "window_start": pa.array(starts),
                "n": pa.array(np.ones(n * k, dtype=np.int64)),
                "v": pa.array(np.repeat(vals, k)),
            }
        )
        return t.group_by([key_col, "window_start"]).aggregate(
            [("n", "sum"), ("v", "sum")]
        ).rename_columns([key_col, "window_start", "n", "v"])

    partials = events.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby([key_col, "window_start"]).sum(["n", "v"])

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                key_col: batch.column(key_col),
                "window_start": batch.column("window_start"),
                "n_events": pc.cast(batch.column("sum(n)"), pa.int64()),
                "sum_value": pa.array(
                    np.round(batch.column("sum(v)").to_numpy(zero_copy_only=False), 6)
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def sessionize(
    events: rd.Dataset,
    gap_s: int = 1800,
    user_col: str = "user_id",
    ts_col: str = "ts",
) -> rd.Dataset:
    """→ (user_id, n_sessions, n_events): gap-based sessions per user.

    Shuffles on a HASH BUCKET of the user (stages/grouping.py doctrine),
    then handles every user in the bucket with ONE vectorized pass —
    sort by (user, ts), session starts where the user changes or the
    gap exceeds the threshold, two bincounts. No per-user Python
    dispatch. Partitioning assumption: one user's events co-locate (the
    bucket key is a function of the user only).
    """
    from ..stages.grouping import bucketed_group_apply

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        if not len(bucket):
            return pd.DataFrame(
                {user_col: pd.Series([], dtype=bucket[user_col].dtype if user_col in bucket else object),
                 "n_sessions": np.array([], np.int64), "n_events": np.array([], np.int64)}
            )
        g = bucket.sort_values([user_col, ts_col], kind="mergesort")
        users = g[user_col].to_numpy()
        # normalize to integer MICROSECONDS regardless of the pandas
        # datetime64 unit (parquet timestamps arrive as [us], in-memory
        # pd.Timestamp fixtures as [ns])
        ts = g[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        new_user = np.concatenate(([True], users[1:] != users[:-1]))
        gap = np.concatenate(([True], np.diff(ts) > gap_s * 1_000_000))
        new_session = new_user | gap
        uidx = np.cumsum(new_user) - 1
        n_users = int(uidx[-1]) + 1
        n_sessions = np.bincount(uidx, weights=new_session, minlength=n_users).astype(np.int64)
        n_events = np.bincount(uidx, minlength=n_users).astype(np.int64)
        return pd.DataFrame(
            {
                user_col: users[new_user],
                "n_sessions": n_sessions,
                "n_events": n_events,
            }
        )

    return bucketed_group_apply(events, [user_col], per_bucket, n_buckets=32)


def asof_prev_event(
    events: rd.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    val_col: str = "value",
) -> rd.Dataset:
    """→ (event_id, prev_event_id, prev_value, gap_us): for every event
    that has a same-user predecessor, the immediately preceding event in
    (ts, event_id) order — the AS-OF / previous-row join Ray Data has no
    native operator for (the per-user "what happened last" lookup of
    sessionization, churn and funnel features).

    Same scale shape as :func:`sessionize`: shuffle once on a hash
    bucket of the user, then ONE vectorized pass per bucket (mergesort +
    shifted-array compare — no per-user Python). The gap is kept in
    integer microseconds so the oracle compare is exact. Partitioning
    assumption: one user's events co-locate (bucket key is a function of
    the user only); ordering within a user is total via the
    (ts, event_id) tiebreak, so the output is deterministic under ties.
    """
    from ..stages.grouping import bucketed_group_apply

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": np.array([], np.int64),
                "prev_event_id": np.array([], np.int64),
                "prev_value": np.array([], np.float64),
                "gap_us": np.array([], np.int64),
            }
        )
        if not len(bucket):
            return empty
        g = bucket.sort_values([user_col, ts_col, id_col], kind="mergesort")
        users = g[user_col].to_numpy()
        ids = g[id_col].to_numpy(dtype=np.int64)
        vals = g[val_col].to_numpy(dtype=np.float64)
        ts = g[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        same = np.concatenate(([False], users[1:] == users[:-1]))
        if not same.any():
            return empty
        prev_ids = np.concatenate(([0], ids[:-1]))
        prev_vals = np.concatenate(([0.0], vals[:-1]))
        prev_ts = np.concatenate(([0], ts[:-1]))
        return pd.DataFrame(
            {
                "event_id": ids[same],
                "prev_event_id": prev_ids[same],
                "prev_value": prev_vals[same],
                "gap_us": (ts[same] - prev_ts[same]).astype(np.int64),
            }
        )

    return bucketed_group_apply(events, [user_col], per_bucket, n_buckets=32)


def follow_within(
    events: rd.Dataset,
    anchor_type: str = "signup",
    follow_type: str = "purchase",
    within_s: int = 86400,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    val_col: str = "value",
    type_col: str = "event_type",
) -> rd.Dataset:
    """→ (event_id, n_follow, sum_value): the RANGE JOIN / funnel
    primitive — for every anchor event (e.g. signup), the count and
    value-sum of same-user follow events (e.g. purchase) in the window
    ``(anchor_ts, anchor_ts + within_s]``. Anchors with no follower keep
    a zero row (left-join semantics).

    Scale shape: one hash-bucket shuffle on the user (only anchor+follow
    typed rows enter it — the filter runs before the exchange); inside a
    bucket, followers are sorted once by (user, ts) and every user's
    anchors resolve with TWO ``np.searchsorted`` calls + a prefix-sum
    difference — per-user iteration touches users, not events, so the
    vectorized work dominates. Partitioning assumption: one user's
    events co-locate (bucket key is a function of the user only).
    """
    from ..stages.grouping import bucketed_group_apply

    within_us = int(within_s) * 1_000_000

    def pre_filter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.is_in(
            batch.column(type_col),
            value_set=pa.array([anchor_type, follow_type], pa.string()),
        )
        return batch.select([id_col, user_col, ts_col, val_col, type_col]).filter(mask)

    slim = events.map_batches(pre_filter, batch_format="pyarrow")

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": np.array([], np.int64),
                "n_follow": np.array([], np.int64),
                "sum_value": np.array([], np.float64),
            }
        )
        a = bucket[bucket[type_col] == anchor_type]
        if not len(a):
            return empty
        aid = a[id_col].to_numpy(dtype=np.int64)
        au = a[user_col].to_numpy()
        at = a[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
        n_follow = np.zeros(len(a), np.int64)
        sum_value = np.zeros(len(a), np.float64)
        f = bucket[bucket[type_col] == follow_type]
        if len(f):
            f = f.sort_values([user_col, ts_col], kind="mergesort")
            fu = f[user_col].to_numpy()
            ft = f[ts_col].to_numpy(dtype="datetime64[us]").astype(np.int64)
            csum = np.concatenate(
                ([0.0], np.cumsum(f[val_col].to_numpy(dtype=np.float64)))
            )
            uniq, seg_starts = np.unique(fu, return_index=True)
            seg_ends = np.concatenate((seg_starts[1:], [len(fu)]))
            for ui, u in enumerate(uniq):
                amask = au == u
                if not amask.any():
                    continue
                s, e = seg_starts[ui], seg_ends[ui]
                seg = ft[s:e]
                lo = s + np.searchsorted(seg, at[amask], side="right")
                hi = s + np.searchsorted(seg, at[amask] + within_us, side="right")
                n_follow[amask] = hi - lo
                sum_value[amask] = csum[hi] - csum[lo]
        return pd.DataFrame(
            {"event_id": aid, "n_follow": n_follow, "sum_value": sum_value}
        )

    return bucketed_group_apply(slim, [user_col], per_bucket, n_buckets=32)


def event_transitions(
    events: rd.Dataset,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    type_col: str = "event_type",
) -> rd.Dataset:
    """→ (type_a, type_b, cnt): global counts of consecutive same-user
    event-type transitions in (ts, event_id) order — the behavioral
    Markov-chain profile (what users do next; the input to funnel
    design and anomaly detection).

    Scale shape: same user-bucketed exchange as :func:`asof_prev_event`
    (one shuffle keyed by the user), one vectorized mergesort +
    shifted-compare pass per bucket emitting types²-bounded partials,
    then a tiny global groupby-sum."""
    import pyarrow.compute as pc

    from ..stages.grouping import bucketed_group_apply

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "type_a": pd.Series([], dtype=object),
                "type_b": pd.Series([], dtype=object),
                "cnt": np.array([], np.int64),
            }
        )
        if not len(bucket):
            return empty
        g = bucket.sort_values([user_col, ts_col, id_col], kind="mergesort")
        users = g[user_col].to_numpy()
        types = g[type_col].to_numpy()
        same = np.concatenate(([False], users[1:] == users[:-1]))
        if not same.any():
            return empty
        prev_types = np.concatenate(([""], types[:-1]))
        out = (
            pd.DataFrame({"type_a": prev_types[same], "type_b": types[same]})
            .groupby(["type_a", "type_b"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        out["cnt"] = out["cnt"].astype("int64")
        return out

    parts = bucketed_group_apply(events, [user_col], per_bucket, n_buckets=32)
    agg = parts.groupby(["type_a", "type_b"]).sum("cnt")
    return agg.map_batches(
        lambda t: pa.table(
            {
                "type_a": t["type_a"],
                "type_b": t["type_b"],
                "cnt": pc.cast(t["sum(cnt)"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def window_distinct_users(
    events: rd.Dataset,
    window_s: int = 3600,
    ts_col: str = "ts",
    user_col: str = "user_id",
) -> rd.Dataset:
    """→ (window_start:int64 epoch-seconds, n_events, n_users) — EXACT
    distinct-user counts per tumbling window (the DAU/HAU primitive;
    the thing COUNT(*) windows can't give you without a distinct pass).

    Scale shape: each batch pre-aggregates to DISTINCT (window, user,
    partial_event_count) rows — the combiner removes within-batch
    duplicate users, so the exchange moves at most
    windows × users-per-batch rows, never raw events; one
    (window)-bucketed reduce finishes the global distinct and the event
    total in the same pass."""
    import pandas as pd

    from ..stages.grouping import bucketed_group_apply

    def partials(batch: pa.Table) -> pa.Table:
        ts = batch.column(ts_col).cast(pa.int64()).to_numpy(zero_copy_only=False)
        w = (ts // (window_s * 1_000_000)) * window_s
        users = batch.column(user_col).to_numpy(zero_copy_only=False).astype(np.int64)
        t = pa.table(
            {"w": pa.array(w.astype(np.int64)), "u": pa.array(users)}
        ).group_by(["w", "u"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "w": t.column("w"),
                "u": t.column("u"),
                "cnt": pc.cast(t.column("count_all"), pa.int64()),
            }
        )

    slim = events.select_columns([ts_col, user_col]).map_batches(
        partials, batch_format="pyarrow"
    )

    def per_bucket(group: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        gb = group.groupby("w", sort=False).agg(n_events=("cnt", "sum"))
        # u may repeat ACROSS batches: distinct over the full bucket rows
        nu = group.drop_duplicates(["w", "u"]).groupby("w", sort=False).size()
        out = pd.DataFrame(
            {
                "window_start": gb.index.to_numpy(np.int64),
                "n_events": gb["n_events"].to_numpy(np.int64),
                "n_users": nu.reindex(gb.index).to_numpy(np.int64),
            }
        )
        return out

    return bucketed_group_apply(slim, ["w"], per_bucket, n_buckets=32)


def funnel_counts(
    events: rd.Dataset,
    steps: tuple[str, ...] = ("signup", "click", "purchase"),
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    type_col: str = "event_type",
) -> rd.Dataset:
    """→ (step, event_type, n_users): the ordered FUNNEL — how many
    users reach step i by performing the step types strictly in order
    (each step matched to the user's EARLIEST qualifying event after
    the previous step's match; ties broken by event_id, so the greedy
    chain — and hence the count — is deterministic and minimal:
    earliest-completion semantics, the standard product-analytics
    funnel).

    Scale shape: only rows of the funnel's types enter the exchange
    (filter before shuffle); one hash-bucket shuffle on the user, then
    ONE vectorized chaining pass per bucket — per step a stable
    user-sort + ``np.unique`` first-occurrence resolves every user's
    next match simultaneously (no per-user Python). Buckets emit k
    partial rows each; the fold touches k×n_buckets rows. Partitioning
    assumption: one user's events co-locate (bucket key is a function
    of the user only)."""
    from ..stages.grouping import bucketed_group_apply

    steps = tuple(steps)
    if not steps:
        raise ValueError("funnel_counts needs at least one step")

    def pre_filter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.is_in(
            batch.column(type_col), value_set=pa.array(list(set(steps)), pa.string())
        )
        return batch.select([id_col, user_col, ts_col, type_col]).filter(mask)

    slim = events.map_batches(pre_filter, batch_format="pyarrow")

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        counts = np.zeros(len(steps), np.int64)
        if len(bucket):
            g = bucket.sort_values([ts_col, id_col], kind="mergesort")
            users = g[user_col].to_numpy()
            types = g[type_col].to_numpy()
            # per-bucket position is order-isomorphic to the global
            # (ts, event_id) row_number within any one user — all the
            # chain ever compares
            pos = np.arange(len(g), dtype=np.int64)
            active_u = active_p = None
            for si, st in enumerate(steps):
                m = types == st
                u_i, p_i = users[m], pos[m]
                if si > 0:
                    if active_u is None or not active_u.size:
                        break
                    j = np.searchsorted(active_u, u_i)
                    jc = np.minimum(j, active_u.size - 1)
                    valid = (j < active_u.size) & (active_u[jc] == u_i)
                    thr = np.where(valid, active_p[jc], np.iinfo(np.int64).max)
                    keep = valid & (p_i > thr)
                    u_i, p_i = u_i[keep], p_i[keep]
                order = np.argsort(u_i, kind="stable")  # pos stays asc per user
                uu, first = np.unique(u_i[order], return_index=True)
                active_u, active_p = uu, p_i[order][first]
                counts[si] = active_u.size
        return pd.DataFrame(
            {
                "step": np.arange(1, len(steps) + 1, dtype=np.int64),
                "event_type": list(steps),
                "n_users": counts,
            }
        )

    import ray

    partials = bucketed_group_apply(slim, [user_col], per_bucket, n_buckets=32)
    # fold: k rows per bucket — firmly inside the driver contract
    totals = np.zeros(len(steps), np.int64)
    for t in ray.get(partials.materialize().to_arrow_refs()):
        if not len(t):
            continue
        s = t.column("step").to_numpy(zero_copy_only=False)
        n = t.column("n_users").to_numpy(zero_copy_only=False)
        np.add.at(totals, s - 1, n)
    return rd.from_arrow(
        pa.table(
            {
                "step": pa.array(np.arange(1, len(steps) + 1), pa.int64()),
                "event_type": pa.array(list(steps), pa.string()),
                "n_users": pa.array(totals, pa.int64()),
            }
        )
    )


def retention_cohorts(events: rd.Dataset, ts_col: str = "ts") -> rd.Dataset:
    """→ (cohort_week, week_offset, n_users): classic retention-cohort
    analysis — users grouped by the epoch-week of their FIRST event;
    for each (cohort, weeks-since-cohort) the count of distinct users
    active that week.

    Scale shape: each batch pre-distincts (user_id, week) with an Arrow
    group_by (the combiner); one user+week-keyed groupby makes the
    pairs globally distinct; the per-user offset fold runs inside
    ``map_groups`` over user groups (a user's distinct weeks — tiny);
    the final exchange is cohort-matrix-sized. Week = floor(days since
    epoch / 7), identical to the SQL mirror's date_diff // 7."""

    def pairs(batch: pa.Table) -> pa.Table:
        epoch_us = pc.cast(batch.column(ts_col), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        week = epoch_us // (7 * 86_400 * 1_000_000)  # post-epoch ts: floor
        t = pa.table(
            {
                "user_id": batch.column("user_id"),
                "week": pa.array(week.astype(np.int64), pa.int64()),
            }
        )
        return t.group_by(["user_id", "week"]).aggregate([])

    dist = (
        events.select_columns(["user_id", ts_col])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["user_id", "week"])
        .count()
    )

    def offsets(g: pd.DataFrame) -> pd.DataFrame:
        w = g["week"].to_numpy(np.int64)
        w0 = int(w.min())
        return pd.DataFrame(
            {"cohort_week": w0, "week_offset": w - w0, "n_users": 1}
        )

    per_user = dist.groupby("user_id").map_groups(offsets, batch_format="pandas")
    agg = per_user.groupby(["cohort_week", "week_offset"]).sum("n_users")
    return agg.map_batches(
        lambda t: pa.table(
            {
                "cohort_week": pc.cast(t["cohort_week"], pa.int64()),
                "week_offset": pc.cast(t["week_offset"], pa.int64()),
                "n_users": pc.cast(t["sum(n_users)"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def user_ewma(
    events: rd.Dataset,
    alpha: float = 0.3,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    val_col: str = "value",
) -> rd.Dataset:
    """→ (user_id, n_events, ewma[r6]): zero-initialized exponentially
    weighted moving average of ``value`` per user over (ts, event_id)
    order — the time-decayed per-entity aggregate of engagement /
    fraud-velocity features:

        ewma(u) = Σ_{i=1..n} α · (1−α)^{n−i} · v_i

    Computed in the POWER-SUM form on both sides (one vectorized
    weights·values dot per user here, ``SUM(α·pow(1−α, n−rn)·v)`` in
    the oracle) rather than the sequential recurrence — identical
    addends, so round(·,6) bridges summation order.

    Scale shape: same single user-bucketed exchange as
    :func:`asof_prev_event`, one vectorized segment pass per bucket."""
    from ..stages.grouping import bucketed_group_apply

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "user_id": np.array([], np.int64),
                "n_events": np.array([], np.int64),
                "ewma": np.array([], np.float64),
            }
        )
        if not len(bucket):
            return empty
        g = bucket.sort_values([user_col, ts_col, id_col], kind="mergesort")
        users = g[user_col].to_numpy(dtype=np.int64)
        vals = g[val_col].to_numpy(dtype=np.float64)
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        lens = np.diff(np.r_[starts, users.size])
        # exponent n - rn per row, vectorized across all segments
        ends = starts + lens
        k = (np.repeat(ends, lens) - 1) - np.arange(users.size)
        w = alpha * np.power(1.0 - alpha, k.astype(np.float64))
        contrib = w * vals
        sums = np.add.reduceat(contrib, starts)
        return pd.DataFrame(
            {
                "user_id": users[starts],
                "n_events": lens.astype(np.int64),
                "ewma": np.round(sums, 6),
            }
        )

    return bucketed_group_apply(events, [user_col], per_bucket, n_buckets=32)


def time_range_join(
    events: rd.Dataset,
    anchor_type: str = "signup",
    follow_type: str = "click",
    within_s: int = 7200,
    ts_col: str = "ts",
    id_col: str = "event_id",
    val_col: str = "value",
    type_col: str = "event_type",
) -> rd.Dataset:
    """→ (event_id, n_follow, sum_value[r6]): GLOBAL (keyless) range
    join — for every anchor-typed event, the count and value-sum of
    follow-typed events from ANY user with ts in ``(t, t + within_s]``.
    Anchors with no follower keep a zero row (left-join semantics).

    This is the pure non-equi time join :func:`follow_within` cannot
    express (there the user key bounds the exchange; here no key
    exists). Scale shape — the canonical BUCKET-REPLICATION range
    join: the timeline is cut into ``within_s``-wide buckets; anchors
    route to their own bucket only, followers replicate to their own
    bucket AND the previous one (a window of length W starting in
    bucket b ends in b or b+1, never further). One hash exchange of
    ``anchors + 2·followers`` slim rows; inside a bucket, followers
    are sorted once by (target_bucket, ts) and every anchor resolves
    with two ``np.searchsorted`` + a prefix-sum difference. No pair
    blow-up: the join output is aggregated per anchor before it ever
    materializes. Partitioning assumption: bucket id is a pure
    function of ts, so co-location is exact by construction; skew is
    bounded by the event rate per W-wide time slice.
    """
    from ..stages.grouping import bucketed_group_apply

    within_us = int(within_s) * 1_000_000

    def explode(batch: pa.Table) -> pa.Table:
        et = batch.column(type_col)
        amask = pc.equal(et, anchor_type)
        fmask = pc.equal(et, follow_type)
        a = batch.filter(amask)
        f = batch.filter(fmask)
        # normalize to MICROSECONDS regardless of the column's stored
        # unit (parquet is us; in-memory pandas frames arrive as ns)
        a_ts = (
            a.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        f_ts = (
            f.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        a_id = a.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        f_val = f.column(val_col).to_numpy(zero_copy_only=False).astype(np.float64)
        ab = a_ts // within_us
        fb = f_ts // within_us
        # follower copies: own bucket + previous bucket
        tb = np.concatenate([ab, fb, fb - 1])
        ts_us = np.concatenate([a_ts, f_ts, f_ts])
        role = np.concatenate(
            [np.zeros(len(a_id), np.int8), np.ones(2 * len(f_ts), np.int8)]
        )
        eid = np.concatenate([a_id, np.zeros(2 * len(f_ts), np.int64)])
        val = np.concatenate([np.zeros(len(a_id), np.float64), f_val, f_val])
        return pa.table(
            {
                "tbucket": pa.array(tb, pa.int64()),
                "role": pa.array(role, pa.int8()),
                "ts_us": pa.array(ts_us, pa.int64()),
                "event_id": pa.array(eid, pa.int64()),
                "value": pa.array(val, pa.float64()),
            }
        )

    slim = events.select_columns([id_col, ts_col, val_col, type_col]).map_batches(
        explode, batch_format="pyarrow"
    )

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": np.array([], np.int64),
                "n_follow": np.array([], np.int64),
                "sum_value": np.array([], np.float64),
            }
        )
        a = bucket[bucket["role"] == 0]
        if not len(a):
            return empty
        aid = a["event_id"].to_numpy(dtype=np.int64)
        at = a["ts_us"].to_numpy(dtype=np.int64)
        atb = a["tbucket"].to_numpy(dtype=np.int64)
        n_follow = np.zeros(len(a), np.int64)
        sum_value = np.zeros(len(a), np.float64)
        f = bucket[bucket["role"] == 1]
        if len(f):
            # composite MONOTONIC key: tbucket·3W + in-bucket offset.
            # A copy targeted at bucket b has ts ∈ [b·W, (b+2)·W), so the
            # offset lies in [0, 2W) — strictly inside the 3W stride —
            # and ONE global searchsorted replaces per-segment searches.
            ftb = f["tbucket"].to_numpy(dtype=np.int64)
            ft = f["ts_us"].to_numpy(dtype=np.int64)
            fkey = ftb * (3 * within_us) + (ft - ftb * within_us)
            order = np.argsort(fkey, kind="mergesort")
            fkey = fkey[order]
            csum = np.concatenate(
                ([0.0], np.cumsum(f["value"].to_numpy(dtype=np.float64)[order]))
            )
            # anchor at time t in bucket b: window (t, t+W] maps to
            # offsets (t−b·W, t−b·W+W] ⊂ (0, 2W] — never crosses into
            # the next bucket's stride
            akey = atb * (3 * within_us) + (at - atb * within_us)
            lo = np.searchsorted(fkey, akey, side="right")
            hi = np.searchsorted(fkey, akey + within_us, side="right")
            n_follow = hi - lo
            sum_value = csum[hi] - csum[lo]
        return pd.DataFrame(
            {
                "event_id": aid,
                "n_follow": n_follow,
                "sum_value": np.round(sum_value, 6),
            }
        )

    # the physical shuffle key is the time bucket: every follower copy
    # targeted at bucket b co-locates with the anchors of bucket b
    return bucketed_group_apply(slim, ["tbucket"], per_bucket, n_buckets=32)


def user_moving_avg(
    events: rd.Dataset,
    window: int = 3,
    user_col: str = "user_id",
    ts_col: str = "ts",
    id_col: str = "event_id",
    val_col: str = "value",
) -> rd.Dataset:
    """→ (event_id, mov_avg[r6]): per-user trailing moving average of
    ``value`` over the last ``window`` events in (ts, event_id) order —
    the SQL window function ``AVG(value) OVER (PARTITION BY user ORDER
    BY ts, event_id ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW)``.

    Scale shape: one user-bucketed exchange (same as
    :func:`asof_prev_event`); inside a bucket one mergesort + one
    prefix-sum serves every user's windows (prefix differences clipped
    at each user's segment start — no per-row Python). round(·,6)
    bridges the prefix-difference vs in-order summation gap on windows
    of ``window`` doubles."""
    from ..stages.grouping import bucketed_group_apply

    w = int(window)

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_id": np.array([], np.int64),
                "mov_avg": np.array([], np.float64),
            }
        )
        if not len(bucket):
            return empty
        g = bucket.sort_values([user_col, ts_col, id_col], kind="mergesort")
        users = g[user_col].to_numpy(dtype=np.int64)
        vals = g[val_col].to_numpy(dtype=np.float64)
        eid = g[id_col].to_numpy(dtype=np.int64)
        n = users.size
        starts = np.flatnonzero(np.r_[True, users[1:] != users[:-1]])
        seg_start_per_row = np.repeat(starts, np.diff(np.r_[starts, n]))
        idx = np.arange(n)
        lo = np.maximum(idx - (w - 1), seg_start_per_row)
        csum = np.concatenate(([0.0], np.cumsum(vals)))
        sums = csum[idx + 1] - csum[lo]
        cnts = (idx + 1 - lo).astype(np.float64)
        return pd.DataFrame(
            {"event_id": eid, "mov_avg": np.round(sums / cnts, 6)}
        )

    return bucketed_group_apply(
        events.select_columns([id_col, user_col, ts_col, val_col]),
        [user_col],
        per_bucket,
        n_buckets=32,
    )


def value_outliers(
    events: rd.Dataset,
    z_thresh: float = 2.5,
    ts_col: str = "ts",
    id_col: str = "event_id",
    val_col: str = "value",
) -> rd.Dataset:
    """→ (event_id, z[r6]): global z-score outliers of ``value`` —
    events with ``|round(z,6)| > z_thresh`` where z = (x−μ)/σ over the
    WHOLE stream (population σ). The monitoring primitive: two
    broadcast scalars gate a streaming scan.

    Scale shape: pass 1 folds (n, Σx, Σx²) per-batch moment partials
    on the driver (batch-count-bounded, the curation-score pattern);
    μ, σ broadcast via ``ray.put``; pass 2 is a stateless filter. Both
    sides compare the ROUNDED z against the threshold, so a summation-
    order wiggle of ~1e-13 in μ/σ can never flip membership."""
    import ray

    def moments(batch: pa.Table) -> pa.Table:
        x = batch.column(val_col).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "n": pa.array([float(len(x))], pa.float64()),
                "s1": pa.array([float(x.sum())], pa.float64()),
                "s2": pa.array([float((x * x).sum())], pa.float64()),
            }
        )

    n = s1 = s2 = 0.0
    for ref in (
        events.select_columns([val_col])
        .map_batches(moments, batch_format="pyarrow")
        .materialize().to_arrow_refs()
    ):
        t = ray.get(ref)
        if len(t):
            n += float(np.sum(t.column("n").to_numpy(zero_copy_only=False)))
            s1 += float(np.sum(t.column("s1").to_numpy(zero_copy_only=False)))
            s2 += float(np.sum(t.column("s2").to_numpy(zero_copy_only=False)))
    mu = s1 / max(n, 1.0)
    sd = float(np.sqrt(max(s2 / max(n, 1.0) - mu * mu, 0.0)))
    ref_ms = [ray.put((mu, sd))]

    def flag(batch: pa.Table) -> pa.Table:
        m, s = ray.get(ref_ms[0])
        x = batch.column(val_col).to_numpy(zero_copy_only=False).astype(np.float64)
        z = np.round((x - m) / s, 6) if s > 0 else np.zeros(len(x))
        keep = np.abs(z) > z_thresh
        return pa.table(
            {
                "event_id": pa.array(
                    batch.column(id_col).to_numpy(zero_copy_only=False)[keep].astype(
                        np.int64
                    )
                ),
                "z": pa.array(z[keep], pa.float64()),
            }
        )

    return events.select_columns([id_col, val_col]).map_batches(
        flag, batch_format="pyarrow"
    )


def window_quantiles(
    events: rd.Dataset,
    window_s: int = 3600,
    ps: tuple = (0.5, 0.95),
    ts_col: str = "ts",
    val_col: str = "value",
) -> rd.Dataset:
    """→ (window_start, n_events, p50, p95): EXACT per-tumbling-window
    discrete quantiles of ``value`` (``percentile_disc`` semantics —
    the smallest element whose cumulative rank ≥ q, i.e. the sorted
    element at position ceil(q·n)). The latency-dashboard primitive.

    Scale shape: one window-bucketed exchange (rows carry only
    (window, value)); per bucket ONE mergesort over (window, value)
    serves every window's quantiles via vectorized position gather —
    no per-window Python. Exact values, not sketches: window
    populations are rate-bounded, so a window's rows always fit a
    bucket worker (the HLL/CMS sketches elsewhere cover the unbounded
    case)."""
    from ..stages.grouping import bucketed_group_apply

    win_us = int(window_s) * 1_000_000

    def tag(batch: pa.Table) -> pa.Table:
        ts = (
            batch.column(ts_col).cast(pa.timestamp("us")).cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "window_start": pa.array((ts // win_us) * (win_us // 1_000_000)),
                "value": batch.column(val_col),
            }
        )

    slim = events.select_columns([ts_col, val_col]).map_batches(
        tag, batch_format="pyarrow"
    )

    def per_bucket(bucket: pd.DataFrame) -> pd.DataFrame:
        cols = {"window_start": np.array([], np.int64),
                "n_events": np.array([], np.int64)}
        for p in ps:
            cols[f"p{int(p * 100)}"] = np.array([], np.float64)
        if not len(bucket):
            return pd.DataFrame(cols)
        g = bucket.sort_values(["window_start", "value"], kind="mergesort")
        w = g["window_start"].to_numpy(dtype=np.int64)
        v = g["value"].to_numpy(dtype=np.float64)
        starts = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
        lens = np.diff(np.r_[starts, w.size])
        out = {
            "window_start": w[starts],
            "n_events": lens.astype(np.int64),
        }
        for p in ps:
            # percentile_disc: sorted element at ceil(p*n) (1-based)
            pos = starts + np.ceil(p * lens).astype(np.int64) - 1
            out[f"p{int(p * 100)}"] = v[pos]
        return pd.DataFrame(out)

    return bucketed_group_apply(slim, ["window_start"], per_bucket, n_buckets=32)


def json_props_stats(
    events: rd.Dataset,
    key: str = "k",
    type_col: str = "event_type",
    props_col: str = "props",
) -> rd.Dataset:
    """→ (event_type, n, n_missing, sum_k, min_k, max_k, avg_k[r6]):
    semi-structured extraction — pull integer field ``key`` out of the
    JSON ``props`` column with ONE vectorized RE2 ``extract_regex``
    (no per-row json.loads) and aggregate per event type. The
    log-analytics shape: parse where the bytes live, ship only
    group-sized partials.

    Scale shape: per-batch partial aggregation into ≤ types rows
    (count/sum/min/max are all mergeable), one tiny groupby, exact
    integer sums; avg divides the exact integers at the end. The same
    RE2 pattern runs in the DuckDB oracle, so extraction semantics
    (including rows where the key is absent → n_missing) are pinned."""
    pattern = '"' + key + '":\\s*(?P<v>-?\\d+)'

    def partial(batch: pa.Table) -> pa.Table:
        et = batch.column(type_col)
        ex = pc.extract_regex(batch.column(props_col), pattern)
        v = pc.struct_field(ex, "v")
        ok = pc.is_valid(v).to_numpy(zero_copy_only=False)
        vals = np.where(
            ok,
            pc.cast(pc.fill_null(v, "0"), pa.int64()).to_numpy(zero_copy_only=False),
            0,
        )
        tdict = et.dictionary_encode()
        if isinstance(tdict, pa.ChunkedArray):
            tdict = tdict.combine_chunks()
        codes = tdict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        names = tdict.dictionary.to_pylist()
        ntypes = len(names)
        n = np.bincount(codes, minlength=ntypes).astype(np.int64)
        nmiss = np.bincount(codes[~ok], minlength=ntypes).astype(np.int64)
        sums = np.bincount(codes, weights=np.where(ok, vals, 0), minlength=ntypes)
        mins = np.full(ntypes, np.iinfo(np.int64).max, np.int64)
        maxs = np.full(ntypes, np.iinfo(np.int64).min, np.int64)
        okc = codes[ok]
        if okc.size:
            np.minimum.at(mins, okc, vals[ok])
            np.maximum.at(maxs, okc, vals[ok])
        return pa.table(
            {
                type_col: pa.array(names, pa.string()),
                "n": pa.array(n),
                "n_missing": pa.array(nmiss),
                "sum_k": pa.array(sums.astype(np.int64)),
                "min_k": pa.array(mins),
                "max_k": pa.array(maxs),
            }
        )

    import ray

    # ONE scan: partials are (types × batches)-sized — fold them all on
    # the driver (annotated small collect); no groupby needed at all
    parts = [
        t
        for t in ray.get(
            events.select_columns([type_col, props_col])
            .map_batches(partial, batch_format="pyarrow")
            .materialize().to_arrow_refs()
        )
        if len(t)
    ]
    acc: dict[str, list[int]] = {}
    for t in parts:
        d = t.to_pydict()
        for i in range(len(t)):
            row = acc.setdefault(
                d[type_col][i],
                [0, 0, 0, np.iinfo(np.int64).max, np.iinfo(np.int64).min],
            )
            row[0] += d["n"][i]
            row[1] += d["n_missing"][i]
            row[2] += d["sum_k"][i]
            row[3] = min(row[3], d["min_k"][i])
            row[4] = max(row[4], d["max_k"][i])
    names = sorted(acc)
    n = np.array([acc[x][0] for x in names], np.int64)
    nm = np.array([acc[x][1] for x in names], np.int64)
    sk = np.array([acc[x][2] for x in names], np.int64)
    present = (n - nm).astype(np.float64)
    avg = np.round(
        np.where(present > 0, sk.astype(np.float64) / np.maximum(present, 1), 0.0), 6
    )
    return rd.from_arrow(
        pa.table(
            {
                type_col: pa.array(names, pa.string()),
                "n": pa.array(n),
                "n_missing": pa.array(nm),
                "sum_k": pa.array(sk),
                "min_k": pa.array([acc[x][3] for x in names], pa.int64()),
                "max_k": pa.array([acc[x][4] for x in names], pa.int64()),
                "avg_k": pa.array(avg, pa.float64()),
            }
        )
    )


def window_topk_users(
    events: rd.Dataset,
    *,
    window_s: int = 3600,
    k: int = 3,
) -> rd.Dataset:
    """→ (window_start, rank, user_id, total_c): per tumbling window the
    top-``k`` users by value sum — the "window leaders" dashboard query
    (top talkers / top spenders per hour).

    Value sums fold as exact integer cents (floor(v·100+0.5)), so the
    (sum desc, user_id asc) ranking can never flip on float summation
    order.  Scale shape: per-batch (window, user) combiners → ONE keyed
    exchange; the per-window top-k runs inside the groupby output
    blocks ((window, user) grain, k-sized result)."""

    def partial(batch: pa.Table) -> pa.Table:
        epoch = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = (epoch // (1_000_000 * window_s)) * window_s
        user = batch.column("user_id").to_numpy(zero_copy_only=False)
        vc = np.floor(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        # fail loud instead of silently aliasing if user_id ever
        # outgrows the 20-bit packing
        if user.size and int(user.max()) >= (1 << 20):
            raise ValueError(
                "user_id >= 2^20 overflows the packed (window, user) key — "
                "widen to a two-column groupby here"
            )
        key = win * (1 << 20) + user  # user_id < 2^20 in this corpus
        uk, inv = np.unique(key, return_inverse=True)
        sums = np.zeros(len(uk), np.int64)
        np.add.at(sums, inv, vc)
        return pa.table(
            {
                "wu": pa.array(uk, pa.int64()),
                "v_c": pa.array(sums),
            }
        )

    agg = (
        events.select_columns(["ts", "user_id", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("wu")
        .sum("v_c")
    )

    # per-window top-k over (window, user)-grain rows: decode the key,
    # ONE window-keyed exchange, vectorized rank-select per group block
    def decode(batch: pa.Table) -> pa.Table:
        if not len(batch) or "wu" not in batch.column_names:
            return pa.table(
                {
                    "window_start": pa.array([], pa.int64()),
                    "user_id": pa.array([], pa.int64()),
                    "v_c": pa.array([], pa.int64()),
                }
            )
        wu = batch.column("wu").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "window_start": pa.array(wu >> 20, pa.int64()),
                "user_id": pa.array(wu & ((1 << 20) - 1), pa.int64()),
                "v_c": batch.column("sum(v_c)"),
            }
        )

    def topk_group(g):
        g = g.sort_values(
            ["v_c", "user_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return g[["window_start", "rank", "user_id", "v_c"]]

    return (
        agg.map_batches(decode, batch_format="pyarrow")
        .groupby("window_start")
        .map_groups(topk_group, batch_format="pandas")
    )


def value_mad_outliers(events: rd.Dataset) -> "pd.DataFrame":
    """→ one row (median_c, mad_c, n_outliers): ROBUST outlier gate over
    the event value stream — median / median-absolute-deviation instead
    of mean / σ (``value_outliers``' z-score is itself dragged by the
    outliers it hunts; MAD is the breakdown-resistant version a
    monitoring pipeline prefers).  Outlier rule: |v − med| > 3·MAD in
    exact integer cents.

    percentile_disc semantics (value at 1-based position ceil(q·n))
    match DuckDB exactly — no interpolation, no floats anywhere.

    Scale shape: ONE corpus pass of per-batch (cents → count)
    combiners → a value-domain-sized exchange (the histogram); median,
    MAD (a re-aggregation of the SAME histogram under |v−med|) and the
    outlier count all fold from the histogram — the corpus is read
    once."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        vc = np.floor(
            batch.column("value").to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        uv, cnt = np.unique(vc, return_counts=True)
        return pa.table(
            {"v_c": pa.array(uv, pa.int64()), "cnt": pa.array(cnt.astype(np.int64))}
        )

    agg = (
        events.select_columns(["value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("v_c")
        .sum("cnt")
    )
    hist: dict[int, int] = {}
    for ref in agg.materialize().to_arrow_refs():
        t = ray.get(ref)
        if not len(t) or "v_c" not in t.column_names:
            continue
        for v, c in zip(
            t.column("v_c").to_pylist(), t.column("sum(cnt)").to_pylist()
        ):
            hist[v] = hist.get(v, 0) + c
    if not hist:
        return pd.DataFrame({"median_c": [0], "mad_c": [0], "n_outliers": [0]})

    def disc_median(h: dict[int, int]) -> int:
        n = sum(h.values())
        target = -(-n // 2)  # ceil(n/2), 1-based position
        run = 0
        for v in sorted(h):
            run += h[v]
            if run >= target:
                return v
        return max(h)

    med = disc_median(hist)
    dev: dict[int, int] = {}
    for v, c in hist.items():
        d = abs(v - med)
        dev[d] = dev.get(d, 0) + c
    mad = disc_median(dev)
    n_out = sum(c for d, c in dev.items() if d > 3 * mad)
    return pd.DataFrame(
        {"median_c": [med], "mad_c": [mad], "n_outliers": [n_out]}
    )
