"""Distributed weighted single-source shortest paths — delta-stepping.

Reference surface: dijkstra.rs:97-246 is a sequential binary-heap Dijkstra
(mirrored driver-side in extra.py:dijkstra_single_source_shortest_paths for
small graphs / path extraction). This module is the at-scale path: the
delta-stepping algorithm (Meyer & Sanders, J. Algorithms 49(1), 2003) run
as frontier supersteps over hash(src)-owned weighted simple-edge CSR
partitions pinned in the object store.

Execution shape (the engine's task-path contract):
- one distributed shuffle reduces the event log to per-(src,dst) weights
  (``reduce='min'`` matches the dijkstra query's first-seen-cheapest
  semantics; ``'latest'`` matches the temporal-property resolution used by
  louvain/matching), partitioned by hash(src) so every edge of a source
  lives in exactly one partition;
- each partition builds a src-keyed CSR once, split into LIGHT (w <= delta)
  and HEAVY (w > delta) halves, and pins it;
- per relaxation round the driver broadcasts only the sparse frontier
  (vids + dists); each partition task gathers the frontier sources it owns,
  relaxes their edges vectorized, and returns a per-dst local min — O(P)
  objects to the driver, work proportional to frontier out-degree, never
  O(E) per round;
- the driver holds the O(V) dist/pred arrays and the bucket discipline
  (same documented O(V)-driver-state trade-off as run_supersteps).

Buckets: nodes are settled in increasing floor(dist/delta) order; each
bucket runs light-edge rounds to a local fixpoint, then one heavy-edge
round. Weights must be non-negative (dijkstra.rs has the same contract:
PropUnwrap into f64 edge weights, no negative handling).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import ray

from raphtory_ray.core.exchange import (bucket, num_partitions, returns,
                                        shuffle, split)
from raphtory_ray.graph.node_state import NodeState

# Event rows per SSSP partition. Relax rounds are synchronous task waves
# whose per-round frontiers are often tiny (BFS-wave shape), so P trades
# round latency against heavy-round parallelism: round 5 measured sf0.1
# at P=32 0.71 s vs P=4 0.41 s (1792 relax tasks collapsed to ~224).
SSSP_ROWS_PER_PARTITION = 2_000_000


# ------------------------------------------------------------ build phase

@ray.remote
def _sp_split(block: pa.Table, P: int, weight_col: str | None,
              weight_map: Callable | None, reverse: bool):
    """Route event rows by hash(src) (post-reverse); emit numpy
    (src, dst, t, event_id, w) slices per partition."""
    z = np.empty(0, np.int64)
    if block.num_rows == 0 or "src" not in block.column_names:
        return returns([(z, z, z, z, np.empty(0, np.float64))] * P)
    s = block["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = block["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    if reverse:
        s, d = d, s
    t = block["t"].to_numpy(zero_copy_only=False).astype(np.int64) \
        if "t" in block.column_names else np.zeros(len(s), np.int64)
    ei = block["event_id"].to_numpy(zero_copy_only=False).astype(np.int64) \
        if "event_id" in block.column_names else np.zeros(len(s), np.int64)
    w = block[weight_col].to_numpy(zero_copy_only=False).astype(np.float64) \
        if weight_col is not None else np.ones(len(s), np.float64)
    if weight_map is not None:
        w = np.asarray(weight_map(w), np.float64)
    return returns(split(bucket(s, P), P, s, d, t, ei, w))


@ray.remote
def _sp_reduce(reduce: str, *pieces):
    """One src-hash partition: reduce events to a single weight per
    directed simple edge. Returns (s, d, w) plus (count, wsum, wmax)
    partials for the driver's delta heuristic."""
    s = np.concatenate([p[0] for p in pieces])
    if len(s) == 0:
        return (s, s.copy(), np.empty(0, np.float64), 0, 0.0, 0.0)
    d = np.concatenate([p[1] for p in pieces])
    t = np.concatenate([p[2] for p in pieces])
    ei = np.concatenate([p[3] for p in pieces])
    w = np.concatenate([p[4] for p in pieces])
    if reduce == "min":
        order = np.lexsort((w, d, s))
        s, d, w = s[order], d[order], w[order]
        keep = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])]
        s, d, w = s[keep], d[keep], w[keep]
    elif reduce == "latest":
        order = np.lexsort((ei, t, d, s))
        s, d, w = s[order], d[order], w[order]
        keep = np.r_[(s[1:] != s[:-1]) | (d[1:] != d[:-1]), True]
        s, d, w = s[keep], d[keep], w[keep]
    else:
        raise ValueError(f"unknown reduce {reduce!r}")
    return (s, d, w, len(s), float(w.sum()), float(w.max()))


@ray.remote
def _sp_csr(part, delta: float):
    """Build the partition's light/heavy src-keyed CSR:
    (srcs, indptr, dst, w) per half, srcs sorted unique."""
    s, d, w = part[0], part[1], part[2]

    def half(mask):
        hs, hd, hw = s[mask], d[mask], w[mask]
        if len(hs) == 0:
            z = np.empty(0, np.int64)
            return (z, np.zeros(1, np.int64), z, np.empty(0, np.float64))
        order = np.argsort(hs, kind="stable")
        hs, hd, hw = hs[order], hd[order], hw[order]
        first = np.r_[True, hs[1:] != hs[:-1]]
        srcs = hs[first]
        indptr = np.r_[np.flatnonzero(first), len(hs)].astype(np.int64)
        return (srcs, indptr, hd, hw)

    light = w <= delta
    return (half(light), half(~light))


@ray.remote
def _sp_relax(csr_pair, which: int, f_vids: np.ndarray,
              f_dist: np.ndarray):
    """Relax the frontier's edges in this partition's light (0) or heavy
    (1) CSR half. Returns sparse (dst, min_cand, argmin_src)."""
    srcs, indptr, dst, w = csr_pair[which]
    z = np.empty(0, np.int64)
    if len(srcs) == 0 or len(f_vids) == 0:
        return (z, np.empty(0, np.float64), z.copy())
    pos = np.searchsorted(srcs, f_vids)
    ok = pos < len(srcs)
    ok[ok] &= srcs[pos[ok]] == f_vids[ok]
    idx, fd = pos[ok], f_dist[ok]
    counts = indptr[idx + 1] - indptr[idx]
    nz = counts > 0
    idx, fd, counts = idx[nz], fd[nz], counts[nz]
    total = int(counts.sum())
    if total == 0:
        return (z, np.empty(0, np.float64), z.copy())
    starts = indptr[idx]
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    e = np.repeat(starts, counts) + within
    cd = dst[e]
    cand = np.repeat(fd, counts) + w[e]
    csrc = np.repeat(srcs[idx], counts)
    # local min per dst; first row of each (dst, cand)-sorted group is the
    # argmin, giving the predecessor for free
    order = np.lexsort((csrc, cand, cd))
    cd, cand, csrc = cd[order], cand[order], csrc[order]
    first = np.r_[True, cd[1:] != cd[:-1]]
    return (cd[first], cand[first], csrc[first])


# ------------------------------------------------------------ driver loop

def sssp_delta_stepping(gf, source: int,
                        weight_col: str | None = None,
                        weight_map: Callable | None = None,
                        reduce: str = "min",
                        delta: float | None = None,
                        direction: str = "out") -> NodeState:
    """Distributed single-source shortest paths (delta-stepping).

    - ``weight_col``: per-event weight column (None = unit weights);
      ``weight_map`` is an optional vectorized transform applied in the
      split tasks (e.g. ``lambda w: np.floor(w * 100 + 0.5)`` for exact
      integer cents); ``reduce`` ('min' | 'latest') resolves multiple
      events on one simple edge.
    - ``delta``: bucket width; default = mean reduced edge weight (unit
      weights => 1.0 => BFS-equivalent rounds). Any positive value is
      correct; it only tunes light/heavy work balance.
    - ``direction``: 'out' follows edges forward, 'in' reversed.

    Returns a NodeState of distances (np.inf = unreachable); the
    predecessor array is attached as ``state.pred`` (-1 = none/source).
    """
    from raphtory_ray.graph.graph_frame import GraphFrame

    cols = ["src", "dst"]
    sch = gf.edges.schema()
    for c in ("t", "event_id"):
        if c in sch.names and reduce == "latest":
            cols.append(c)
    if weight_col is not None:
        cols.append(weight_col)
    mat = gf.edges.select_columns(cols).materialize()
    refs = mat.to_arrow_refs()
    P = num_partitions(mat.count(), per=SSSP_ROWS_PER_PARTITION)
    parts = [_sp_reduce.remote(reduce, *col) for col in shuffle(
        _sp_split, refs, P, weight_col, weight_map, direction == "in")]
    if delta is None:
        stats = ray.get([_sp_part_stats.remote(p) for p in parts])
        cnt = sum(s[0] for s in stats)
        delta = (sum(s[1] for s in stats) / cnt) if cnt else 1.0
        delta = max(float(delta), 1e-12)
    csrs = [_sp_csr.remote(p, float(delta)) for p in parts]

    n = gf.n
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, np.int64)
    dist[source] = 0.0
    active = np.zeros(n, bool)
    active[source] = True

    def relax(which, fv):
        fd = dist[fv]
        fv_ref, fd_ref = ray.put(fv), ray.put(fd)
        outs = ray.get([_sp_relax.remote(c, which, fv_ref, fd_ref)
                        for c in csrs])
        improved = np.zeros(n, bool)
        for cd, cand, csrc in outs:
            if len(cd) == 0:
                continue
            better = cand < dist[cd]
            cd, cand, csrc = cd[better], cand[better], csrc[better]
            if len(cd) == 0:
                continue
            # partitions are src-disjoint, so one dst may appear in several
            # outputs: apply sequentially, keeping pred consistent
            order = np.lexsort((csrc, cand, cd))
            cd, cand, csrc = cd[order], cand[order], csrc[order]
            first = np.r_[True, cd[1:] != cd[:-1]]
            cd, cand, csrc = cd[first], cand[first], csrc[first]
            better = cand < dist[cd]
            cd, cand, csrc = cd[better], cand[better], csrc[better]
            dist[cd] = cand
            pred[cd] = csrc
            improved[cd] = True
        return improved

    while active.any():
        av = np.flatnonzero(active)
        r = np.floor(dist[av] / delta).min()
        settled = np.zeros(n, bool)
        frontier = np.zeros(n, bool)
        in_bucket = np.floor(dist[av] / delta) == r
        frontier[av[in_bucket]] = True
        # light-edge rounds to bucket fixpoint
        while frontier.any():
            settled |= frontier
            active &= ~frontier
            improved = relax(0, np.flatnonzero(frontier))
            iv = np.flatnonzero(improved)
            ib = np.floor(dist[iv] / delta) == r
            frontier = np.zeros(n, bool)
            frontier[iv[ib]] = True
            active[iv[~ib]] = True
        # one heavy-edge round from everything settled in this bucket
        sv = np.flatnonzero(settled)
        if len(sv):
            improved = relax(1, sv)
            active |= improved
    state = NodeState(dist, gf if isinstance(gf, GraphFrame) else None,
                      "sssp_dist")
    state.pred = pred
    return state


@ray.remote
def _sp_part_stats(part):
    return (part[3], part[4], part[5])
