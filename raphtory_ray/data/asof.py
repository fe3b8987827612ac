"""Distributed as-of join — the classic temporal "latest value at or
before t" join (DuckDB/kdb ASOF JOIN, pandas merge_asof semantics).

For every left row, attach the right row with the greatest ``on`` value
satisfying ``right.on <= left.on`` (direction="backward"; "forward" and
"nearest" mirror pandas), matching within equal ``by`` keys. Unmatched
left rows keep nulls in the right columns (LEFT ASOF JOIN).

Scale shape (100-TB design notes):
- ONE explicit hash(by) shuffle per side (core/exchange — a single
  argsort + take per block, O(P) objects per block), then each
  partition does a local O(n log n) sort + linear galloping merge
  (pandas' C merge_asof kernel). No broadcast, no all-pairs.
- Partitioning assumption: all rows of one ``by`` key are co-located.
  A single pathological hot key is bounded by its own partition; it
  cannot be salted without changing semantics — the documented
  extension for that case is range-partitioning on ``on`` plus a
  boundary exchange of each key's last right row per time slice.
- Output is returned as a Ray Dataset built from the per-partition
  result refs — the join never materializes on the driver.

Determinism: when right has duplicate (by, on) rows, the kernel sorts
right by (on, <value columns>) stable, so the row with the greatest
value tuple wins — re-running or resharding picks the same row.

Reference context: Raphtory has no relational as-of join; its
temporal-property "latest value at time t" accessor
(raphtory/src/db/api/properties/temporal_props.rs) computes the same
per-entity semantics, which this operator generalizes to arbitrary
tables.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from raphtory_ray.core.aggregate import Agg, group_agg
from raphtory_ray.core.exchange import (bucket, num_partitions, returns,
                                        route_fanout, shuffle, split_table)


@ray.remote
def _route_by(tbl: pa.Table, P: int, col: str):
    k = tbl[col].to_numpy(zero_copy_only=False).astype(np.int64)
    return returns(split_table(tbl, bucket(k, P), P))


@ray.remote
def _merge_part(by: str, on: str, direction: str, schema: pa.Schema,
                nl: int, *pieces: pa.Table) -> pa.Table:
    import pandas as pd
    lefts = [t for t in pieces[:nl] if t.num_rows]
    rights = [t for t in pieces[nl:] if t.num_rows]

    def finish(df: "pd.DataFrame") -> pa.Table:
        # column-wise conversion with from_pandas=True so NaN from
        # unmatched rows becomes null instead of poisoning int columns
        return pa.table(
            {f.name: pa.array(df[f.name], type=f.type, from_pandas=True)
             for f in schema}, schema=schema)

    if not lefts:
        return schema.empty_table()
    L = pa.concat_tables(lefts).to_pandas()
    rcols = [f.name for f in schema
             if f.name not in L.columns]        # right value columns
    if not rights:
        for c in rcols:
            L[c] = None
        return finish(L)
    R = pa.concat_tables(rights).to_pandas()
    L = L.sort_values(on, kind="mergesort", ignore_index=True)
    R = R.sort_values([on] + [c for c in R.columns if c not in (by, on)],
                      kind="mergesort", ignore_index=True)
    out = pd.merge_asof(L, R, on=on, by=by, direction=direction,
                        allow_exact_matches=True)
    return finish(out)


def asof_join(left, right, by: str, on: str,
              direction: str = "backward") -> "ray.data.Dataset":
    """LEFT ASOF JOIN of two Ray Datasets on (``by`` equality, ``on``
    as-of inequality). ``by`` must be int-typed (hash-routed); ``on`` is
    any ordered type shared by both sides. Right columns other than
    (by, on) are appended to the left schema (pre-rename them on the
    right Dataset if they collide with left names). Returns a Dataset;
    row order is partition order (sort downstream if needed)."""
    import ray.data as rd
    lmat, rmat = left.materialize(), right.materialize()
    lrefs, rrefs = lmat.to_arrow_refs(), rmat.to_arrow_refs()
    ls, rs = left.schema(), right.schema()
    lnames = list(ls.names)
    rval = [n for n in rs.names if n not in (by, on)]
    clash = set(lnames) & set(rval)
    if clash:
        raise ValueError(f"right value columns collide with left: {clash}"
                         " — rename them on the right side first")
    fields = [pa.field(n, ls.types[i]) for i, n in enumerate(lnames)]
    fields += [pa.field(n, rs.types[rs.names.index(n)]) for n in rval]
    schema = pa.schema(fields)

    P = num_partitions(lmat.count() + rmat.count())
    lcols = shuffle(_route_by, lrefs, P, by)
    rcols = shuffle(_route_by, rrefs, P, by)
    parts = [_merge_part.remote(by, on, direction, schema, len(lc),
                                *(lc + rc))
             for lc, rc in zip(lcols, rcols)]
    return rd.from_arrow_refs(parts)


def _per_user(ds, cols: list, user_col: str, assign_remote,
              assign_args: tuple):
    """``cols`` of ``ds`` → one route_fanout on the user column → one
    assign task per partition (over no pieces when the input is empty:
    each assign task returns its typed empty table) → Dataset."""
    import ray.data as rd
    mat = ds.select_columns(cols).materialize()
    out = route_fanout(mat, [user_col], assign_remote, assign_args) \
        or [assign_remote.remote(*assign_args)]
    return rd.from_arrow_refs(out)


# ------------------------------------------------- sessionization (round 5)


@ray.remote
def _sess_assign(gap: int, user_col: str, ts_col: str, eid_col: str,
                 *pieces):
    """One user partition: per-user (ts, event_id)-ordered gap splits;
    session_id = user*2^20 + cumulative number of gap-exceeding steps
    (session ordinal < 2^20 per user by engine contract)."""
    import numpy as np
    import pyarrow as pa
    good = [t for t in pieces if t.num_rows]
    if not good:
        return pa.table({user_col: pa.array([], pa.int64()),
                         eid_col: pa.array([], pa.int64()),
                         "session_id": pa.array([], pa.int64())})
    t = pa.concat_tables(good)
    u = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ei = t[eid_col].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((ei, ts, u))
    u_s, ts_s, ei_s = u[order], ts[order], ei[order]
    new_user = np.r_[True, u_s[1:] != u_s[:-1]]
    gap_break = np.r_[False, (ts_s[1:] - ts_s[:-1]) > gap] & ~new_user
    # session ordinal: cumulative breaks, reset per user
    brk = gap_break.astype(np.int64)
    cum = np.cumsum(brk)
    first = np.zeros(len(u_s), np.int64)
    starts = np.flatnonzero(new_user)
    first[starts] = cum[starts]
    np.maximum.accumulate(first, out=first)
    ordinal = cum - first
    return pa.table({
        user_col: pa.array(u_s, pa.int64()),
        eid_col: pa.array(ei_s, pa.int64()),
        "session_id": pa.array(u_s * np.int64(1 << 20) + ordinal,
                               pa.int64())})


def sessionize(ds, gap: int, user_col: str = "user_id",
               ts_col: str = "ts", eid_col: str = "event_id"):
    """Gap-based sessionization of an event Dataset (the classic event-
    pipeline op): within each user's (ts, event_id)-ordered stream, a new
    session starts whenever the gap to the previous event exceeds
    ``gap``; session_id = user_id·2^20 + session ordinal (deterministic,
    reshard-invariant; < 2^20 sessions per user by engine contract).

    Scale shape: ONE hash(user) route wave so each user's history meets
    in exactly one partition (the as-of join's documented partitioning
    assumption), then a vectorized per-partition lexsort + cumulative
    break count. Returns Dataset(user_col, eid_col, session_id). ``ts``
    must be integer-comparable (epoch units)."""
    return _per_user(ds, [user_col, ts_col, eid_col], user_col,
                     _sess_assign, (gap, user_col, ts_col, eid_col))


# --------------------------------------------------- funnel (round 5)

@ray.remote
def _funnel_assign(steps: tuple, window: int, user_col: str, ts_col: str,
                   type_col: str, *pieces):
    """One user partition: greedy earliest windowed funnel — step k's
    time = min ts of its event type strictly after step k-1's time and
    within ``window`` of step 1's time. Vectorized per step: per-user
    min-reduce over the type-filtered, threshold-filtered events."""
    import numpy as np
    import pyarrow as pa
    good = [t for t in pieces if t.num_rows]
    empty = pa.table({user_col: pa.array([], pa.int64()),
                      "stage": pa.array([], pa.int64()),
                      "t_first": pa.array([], pa.int64())})
    if not good:
        return empty
    t = pa.concat_tables(good)
    u = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ts = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ty = t[type_col].to_numpy(zero_copy_only=False)
    users = np.unique(u)
    uidx = np.searchsorted(users, u)
    INF = np.iinfo(np.int64).max
    prev = np.full(len(users), -1, np.int64)      # step k-1 completion ts
    t1 = np.full(len(users), INF, np.int64)
    stage = np.zeros(len(users), np.int64)
    for k, s in enumerate(steps):
        m = ty == s
        cur = np.full(len(users), INF, np.int64)
        if m.any():
            mi, mt = uidx[m], ts[m]
            if k == 0:
                ok = np.ones(len(mi), bool)
            else:
                # compare the elapsed time, never t1 + window: the sum
                # wraps in int64 when window is near its max
                ok = (mt > prev[mi]) & (prev[mi] != INF)
                ok[ok] = mt[ok] - t1[mi[ok]] <= window
            if ok.any():
                np.minimum.at(cur, mi[ok], mt[ok])
        if k == 0:
            t1 = cur
        done = cur != INF
        stage[done & (stage == k)] += 1
        prev = np.where(done, cur, np.full_like(cur, INF))
        # users who failed this step keep stage; later steps can't match
        # (prev = INF makes every subsequent ok mask false)
    keep = stage > 0
    return pa.table({
        user_col: pa.array(users[keep], pa.int64()),
        "stage": pa.array(stage[keep], pa.int64()),
        "t_first": pa.array(t1[keep], pa.int64())})


def funnel_counts(ds, steps: list, window: int,
                  user_col: str = "user_id", ts_col: str = "ts",
                  type_col: str = "event_type"):
    """Windowed ordered funnel over an event Dataset (the classic
    product-analytics op, greedy-earliest semantics): per user, step k
    completes at the MIN ts of its event type strictly after step k-1's
    completion and within ``window`` of step 1's time; ``stage`` = number
    of steps completed (users at stage 0 are omitted). Deterministic —
    no ordering ambiguity, so the SQL oracle is a chain of windowed MIN
    joins.

    Scale shape: rows of event types outside ``steps`` are dropped
    BEFORE the hash(user) route wave (review fix — they can never
    match), then len(steps) vectorized per-partition min-reduces.
    Returns Dataset(user, stage, t_first)."""
    import pyarrow.compute as pc
    step_set = pa.array(sorted(set(steps)), pa.string())

    def keep_steps(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b[type_col], value_set=step_set))

    pruned = ds.select_columns([user_col, ts_col, type_col]).map_batches(
        keep_steps, batch_format="pyarrow", zero_copy_batch=True)
    return _per_user(pruned, [user_col, ts_col, type_col], user_col,
                     _funnel_assign,
                     (tuple(steps), window, user_col, ts_col, type_col))


# ------------------------------------------- cohort retention (round 5)

@ray.remote
def _cohort_part(period: int, user_col: str, ts_col: str, *pieces):
    """One user partition: per-user cohort period (min event period) and
    the distinct (cohort, offset) pairs of their activity; emits partial
    counts per (cohort, offset)."""
    import numpy as np
    import pyarrow as pa
    good = [t for t in pieces if t.num_rows]
    if not good:
        return pa.table({"cohort": pa.array([], pa.int64()),
                         "k": pa.array([], pa.int64()),
                         "n_users": pa.array([], pa.int64())})
    t = pa.concat_tables(good)
    u = t[user_col].to_numpy(zero_copy_only=False).astype(np.int64)
    w = t[ts_col].to_numpy(zero_copy_only=False).astype(np.int64) // period
    users, uidx = np.unique(u, return_inverse=True)
    cohort = np.full(len(users), np.iinfo(np.int64).max, np.int64)
    np.minimum.at(cohort, uidx, w)
    # pair-uniques via stacked columns — no integer bit-packing, so
    # arbitrary cohort magnitudes / activity spans are safe (review fix:
    # the previous 31-bit packing wrapped for fine periods)
    uo = np.unique(np.stack([uidx, w - cohort[uidx]]), axis=1)
    ui, off = uo[0], uo[1]
    cu, cnt = np.unique(np.stack([cohort[ui], off]), axis=1,
                        return_counts=True)
    return pa.table({
        "cohort": pa.array(cu[0], pa.int64()),
        "k": pa.array(cu[1], pa.int64()),
        "n_users": pa.array(cnt.astype(np.int64), pa.int64())})


def cohort_retention(ds, period: int, user_col: str = "user_id",
                     ts_col: str = "ts"):
    """Cohort retention table (the classic growth-analytics op): users
    cohorted by the period (epoch // period) of their FIRST event;
    n_users(cohort, k) = distinct users of that cohort active k periods
    later. One route_fanout on the user (per-user state is
    partition-local), vectorized per-partition distinct + count, then a
    group_agg sum over the partition counts. Returns Dataset(cohort, k,
    n_users); ts integer epoch units (a parquet timestamp column coerces
    via the int64 view)."""
    out = _per_user(ds, [user_col, ts_col], user_col, _cohort_part,
                    (period, user_col, ts_col))
    return group_agg(out, ["cohort", "k"], [Agg("n_users", "sum",
                                                 "n_users")])
