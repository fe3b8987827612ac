"""Distributed weighted single-source shortest paths — delta-stepping.

Reference surface: dijkstra.rs:97-246 is a sequential binary-heap Dijkstra
(mirrored driver-side in extra.py:dijkstra_single_source_shortest_paths for
small graphs / path extraction). This module is the at-scale path: the
delta-stepping algorithm (Meyer & Sanders, J. Algorithms 49(1), 2003) run
as frontier supersteps over hash(src)-owned weighted simple-edge CSR
partitions pinned in the object store.

Execution shape (one superstep loop, ``state/supersteps.superstep_loop``):
- one distributed shuffle reduces the event log to per-(src,dst) weights
  (``reduce='min'`` matches the dijkstra query's first-seen-cheapest
  semantics; ``'latest'`` matches the temporal-property resolution used by
  louvain/matching), partitioned by hash(src) so every edge of a source
  lives in exactly one partition;
- each partition builds a src-keyed CSR once, split into LIGHT (w <= delta)
  and HEAVY (w > delta) halves, and pins it;
- each relax round is one superstep over those CSR refs. The state is
  (dist, pred, active, settled, frontier, heavy, r). The kernel relaxes
  the frontier's edges in one half and returns a per-dst local min with
  its argmin src: O(P) objects, work proportional to the partition's
  sources plus the frontier's out-degree, never O(E) per round.
  ``advance`` merges the partials in partition order and runs the
  bucket discipline;
- the loop ships the O(V) state to the partitions each superstep, the
  engine's documented driver-state trade-off (as for WCC and PageRank);
  one partition runs the whole loop in one task.

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
from raphtory_ray.state.supersteps import superstep_loop

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


def _sp_relax(csr_pair, state, delta):
    """Relax the frontier's edges in this partition's light or heavy CSR
    half, as the state's phase says. Returns sparse (dst, min_cand,
    argmin_src)."""
    dist, frontier, heavy = state[0], state[4], state[5]
    srcs, indptr, dst, w = csr_pair[int(heavy)]
    z = np.empty(0, np.int64)
    idx = np.flatnonzero(frontier[srcs])
    counts = indptr[idx + 1] - indptr[idx]
    nz = counts > 0
    idx, counts = idx[nz], counts[nz]
    fd = dist[srcs[idx]]
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


def _sp_bucket(dist, pred, active, delta):
    """Open the lowest non-empty bucket: its active vertices become the
    settled light frontier. Done when no vertex is active."""
    av = np.flatnonzero(active)
    b = np.floor(dist[av] / delta)
    r = b.min(initial=np.inf)
    frontier = np.zeros_like(active)
    frontier[av[b == r]] = True
    return (dist, pred, active & ~frontier, frontier, frontier,
            np.array(False), np.array(r)), len(av) == 0


def _sp_advance(state, parts, it, delta):
    """Merge one relax round into dist/pred, then run the bucket
    discipline: light rounds to the bucket's fixpoint, one heavy round
    from everything settled in it, then the next bucket."""
    dist, pred, active, settled, _, heavy, r = state
    dist, pred = dist.copy(), pred.copy()
    improved = np.zeros_like(active)
    for cd, cand, csrc in parts:
        # partitions are src-disjoint, so one dst may appear in several
        # outputs: apply them in partition order, keeping pred consistent
        better = cand < dist[cd]
        cd = cd[better]
        dist[cd] = cand[better]
        pred[cd] = csrc[better]
        improved[cd] = True
    if heavy:
        return _sp_bucket(dist, pred, active | improved, delta)
    iv = np.flatnonzero(improved)
    ib = np.floor(dist[iv] / delta) == r
    frontier = np.zeros_like(active)
    frontier[iv[ib]] = True
    active = active.copy()
    active[iv[~ib]] = True
    if frontier.any():
        return (dist, pred, active & ~frontier, settled | frontier, frontier,
                heavy, r), False
    return (dist, pred, active, settled, settled, np.array(True), r), False


# ------------------------------------------------------------ entry point

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

    ``gf`` is a GraphFrame, or a BspGraph whose simple-edge blocks are
    read with unit weights (a BspGraph has no ``weight_col``).

    Returns a NodeState of distances (np.inf = unreachable); the
    predecessor array is attached as ``state.pred`` (-1 = none/source).
    """
    from raphtory_ray.graph.graph_frame import GraphFrame
    from raphtory_ray.state.shards import BspGraph

    if isinstance(gf, BspGraph):
        if weight_col is not None:
            raise TypeError("sssp_delta_stepping: a BspGraph has unit "
                            f"weights, weight_col={weight_col!r} needs a "
                            "GraphFrame")
        refs, rows = gf.refs, gf.num_edges
    else:
        cols = ["src", "dst"]
        sch = gf.edges.schema()
        for c in ("t", "event_id"):
            if c in sch.names and reduce == "latest":
                cols.append(c)
        if weight_col is not None:
            cols.append(weight_col)
        mat = gf.edges.select_columns(cols).materialize()
        refs, rows = mat.to_arrow_refs(), mat.count()
    P = num_partitions(rows, per=SSSP_ROWS_PER_PARTITION)
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
    dist[source] = 0.0
    active = np.zeros(n, bool)
    active[source] = True
    state = _sp_bucket(dist, np.full(n, -1, np.int64), active, delta)[0]
    dist, pred = superstep_loop(csrs, _sp_relax, _sp_advance, state,
                                (delta,))[0][:2]
    state = NodeState(dist, gf if isinstance(gf, GraphFrame) else None,
                      "sssp_dist")
    state.pred = pred
    return state


@ray.remote
def _sp_part_stats(part):
    return (part[3], part[4], part[5])
