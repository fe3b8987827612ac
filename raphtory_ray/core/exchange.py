"""The one hash exchange behind every task-level shuffle.

Ownership contract: key x belongs to partition ``bucket(x, P)`` =
``((x * GOLD) >> 33) % P``. BspGraph blocks, the actor engines' owned
vertex slices and every map-side split agree because they all call
``bucket``; a second copy of the hash would let them drift apart. An
Arrow key column of any type (a Cypher group key, a gid string) becomes
uint64 keys through ``key_hash``, for the same reason.

A shuffle is a map side (one ``num_returns=P`` task per input block that
``split``s its rows by bucket) and a reduce side (one task per partition
over column p of the pieces, which ``shuffle`` hands back).
``route_refs`` is that shuffle over Arrow block refs routed on Arrow key
columns, and ``route_fanout`` the same over a materialized Dataset: the
hash joins, every grouping (core/aggregate) and every
keep-one-row-per-key task run on them.

Sizing: every P is ``num_partitions(rows)``, every CPU count
``cluster_cpus()``; a site passes its own ``per`` only where a measurement
beside its constant shows R is slower there (route_fanout and the hash
joins: FANOUT_ROWS_PER_PARTITION). ``groups`` batches the
blocks of plain task waves.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

GOLD = np.uint64(0x9E3779B97F4A7C15)

# R rows per partition. Chosen so that sf0.1 (567,452 edges) on 32 CPUs
# keeps the BspGraph layout rounds 3-5 measured: 32 topology blocks, 8
# superstep groups, a 16-way triangle grid. An input below R rows is one
# partition, so its shuffle is one reduce task.
ROWS_PER_PARTITION = 16_000

# Rows per route_fanout / hash-join partition. On the perfbench
# window-queries two-hop count (5k vertices, 20k events; 1-core host, 2
# logical Ray CPUs, 3 seeds x 8 alternating reps) the default 16k rows
# gave P = 2 and a median 0.356 s against 0.336 s at 50k rows (P = 1).
FANOUT_ROWS_PER_PARTITION = 50_000


def cluster_cpus() -> int:
    """CPUs of the Ray cluster; 8 when Ray is not initialised."""
    return int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8


def num_partitions(rows: int, cpus: int | None = None,
                   per: int | None = None) -> int:
    """ceil(rows / per), at least 1, at most min(cpus, 64). ``cpus``
    defaults to cluster_cpus(), ``per`` to ROWS_PER_PARTITION (read at
    call time)."""
    cpus = cluster_cpus() if cpus is None else cpus
    return max(1, min(64, cpus, -(-int(rows) // (per or ROWS_PER_PARTITION))))


def groups(refs: list, k: int = 16) -> list:
    """At most k contiguous, order-preserving groups of ``refs`` (one plain
    task each instead of one per block)."""
    step = max(1, -(-len(refs) // k))
    return [refs[i:i + step] for i in range(0, len(refs), step)]


def bucket(keys: np.ndarray, P: int) -> np.ndarray:
    """Owner partition of each key, as int64."""
    return (((np.asarray(keys).astype(np.uint64) * GOLD) >> np.uint64(33))
            % np.uint64(P)).astype(np.int64)


def pair_key(s: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One uint64 key per (s, d) pair, for routing by edge."""
    return (s.astype(np.uint64) * GOLD) ^ d.astype(np.uint64)


def splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer; the SQL oracles mirror it, so never change it."""
    z = x.astype(np.uint64) + GOLD
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# every null key hashes as this integer does: a null key gets one hash
# whatever the column type of each block
_NULL_KEY = -(2 ** 62)


def key_hash(col) -> np.ndarray:
    """uint64 hash per value of an Arrow key column, the same for equal
    values in any block: splitmix64 of an integer or boolean (as int64),
    pandas' hash_array of any other value (floats as float64, -0.0 as
    0.0), one hash for null. Only integers and booleans convert to a
    numpy dtype that depends on nulls, so only they are cast first."""
    import pandas as pd
    import pyarrow.compute as pc
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_integer(t) or pa.types.is_boolean(t):
        return splitmix64(pc.fill_null(col.cast(pa.int64()), _NULL_KEY)
                          .to_numpy(zero_copy_only=False))
    if pa.types.is_floating(t):
        col = pc.add(col.cast(pa.float64()), 0.0)
    h = pd.util.hash_array(col.to_numpy(zero_copy_only=False))
    if col.null_count:
        h[np.asarray(pc.is_null(col))] = splitmix64(
            np.array([_NULL_KEY]))[0]
    return h


def _order(bk: np.ndarray, P: int):
    """Stable row order by bucket and the P - 1 cut points. Sorting the
    narrowest dtype that holds P lets numpy use its radix sort."""
    order = np.argsort(bk.astype(np.min_scalar_type(P - 1)), kind="stable")
    return order, np.cumsum(np.bincount(bk, minlength=P))[:-1]


def split(bk: np.ndarray, P: int, *cols: np.ndarray) -> list:
    """P tuples: tuple p holds the rows of ``cols`` whose bucket is p, in
    input order. At P = 1 the input comes back unpermuted."""
    if P == 1:
        return [cols]
    order, cuts = _order(bk, P)
    return list(zip(*[np.split(c[order], cuts) for c in cols]))


def split_table(tbl: pa.Table, bk: np.ndarray, P: int) -> list:
    """``split`` for an Arrow table: P tables, rows in input order."""
    if P == 1:
        return [tbl]
    order, cuts = _order(bk, P)
    t = tbl.take(pa.array(order))
    lo = np.r_[0, cuts]
    hi = np.r_[cuts, tbl.num_rows]
    return [t.slice(int(a), int(b - a)) for a, b in zip(lo, hi)]


def returns(parts: list):
    """What a ``num_returns=len(parts)`` task returns: Ray wants a bare
    value, not a 1-tuple, when num_returns is 1."""
    return tuple(parts) if len(parts) > 1 else parts[0]


def columns(outs: list, P: int) -> list:
    """Per-task outputs of ``num_returns=P`` calls → P columns: column p
    lists piece p of every call."""
    return [outs] if P == 1 else [[o[p] for o in outs] for p in range(P)]


def shuffle(task, refs: list, P: int, *args) -> list:
    """Map side of a shuffle: ``task(ref, P, *args)`` once per ref, each
    returning its P pieces (``returns(split(...))``). Returns P columns of
    piece refs; column p feeds the reduce task of partition p."""
    return columns([task.options(num_returns=P).remote(r, P, *args)
                    for r in refs], P)


def _partition_ids(tbl: pa.Table, keys: list, P: int) -> np.ndarray:
    """Partition id per row — the ONE hash both the route and the join's
    skew count pass use (they must agree or the valve miscounts)."""
    h = np.zeros(tbl.num_rows, np.uint64)
    for k in keys:
        h = h * GOLD ^ key_hash(tbl[k])
    return (h % np.uint64(P)).astype(np.int64)


@ray.remote
def _route(tbl: pa.Table, P: int, keys: list):
    """One block → P hash partitions on the key columns."""
    return returns(split_table(tbl, _partition_ids(tbl, keys, P), P))


def route_refs(refs: list, rows: list, keys: list, task,
               task_args: tuple = ()):
    """Arrow block refs and their row counts → one
    ``task(*task_args, *pieces)`` per hash partition of ``keys`` (any
    Arrow types; ``_route`` tasks; partition count from num_partitions at
    FANOUT_ROWS_PER_PARTITION, one without keys, and no route task at
    one). A task's pieces come in block order and ``split_table`` keeps
    row order, so each task sees its rows in block order. Returns what
    the task calls return, or None when every block is empty."""
    refs = [r for r, c in zip(refs, rows) if c]
    if not refs:
        return None
    P = num_partitions(sum(rows), per=FANOUT_ROWS_PER_PARTITION) \
        if keys else 1
    cols = shuffle(_route, refs, P, keys) if P > 1 else [refs]
    return [task.remote(*task_args, *col) for col in cols]


def route_fanout(mat, keys: list, task, task_args: tuple = ()):
    """``route_refs`` over the blocks of a MATERIALIZED Dataset."""
    return route_refs(mat.to_arrow_refs(), mat._block_num_rows(), keys,
                      task, task_args)
