"""Temporal dynamics & projections.

- temporal_SEIR — event-queue epidemic simulation
  (dynamics/temporal/epidemics.rs:182-252). Inherently sequential (a
  priority queue over infection events with RNG), exactly as in the
  reference; the graph index it walks is built from one pass over the
  event Dataset.
- temporal_bipartite_projection — projections/temporal_bipartite_projection
  .rs:31-77, re-expressed Ray-native: exploded events hash-shuffle to their
  pivot-node owner, each pivot runs the reference's sliding-window pair
  generation vectorized, and the union of emitted (u, v, mean-time) events
  is the projected GraphFrame.
- alternating_mask — algorithms/alternating_mask.rs:22-39 (mock algorithm,
  alternating bool by node order).
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import ray

from raphtory_ray.core.exchange import (bucket, num_partitions, returns,
                                        shuffle, split)


# ------------------------------------------------------------------- SEIR

def temporal_SEIR(gf, recovery_rate: float | None, incubation_rate: float | None,
                  infection_prob: float, initial_infection: int, seeds,
                  rng=None) -> dict[int, tuple[int, int, int]]:
    """vid → (infected, active, recovered) timestamps
    (epidemics.rs:182-252). ``seeds``: list of vids or an int (sample that
    many nodes). ``recovery_rate``/``incubation_rate``: exponential rates
    (None → never recover / incubation 1). Deterministic under a seeded
    ``rng`` (np.random.Generator); like the reference, the simulation
    itself is sequential — only the edge-index build streams."""
    rng = rng if rng is not None else np.random.default_rng(0)
    assert 0.0 <= infection_prob <= 1.0
    # one streaming pass: (src, dst, t) sorted by (src, dst, t)
    parts = []
    for b in gf.edges.select_columns(["src", "dst", "t"]).iter_batches(
            batch_format="pyarrow"):
        if b.num_rows:
            parts.append((b["src"].to_numpy(zero_copy_only=False),
                          b["dst"].to_numpy(zero_copy_only=False),
                          b["t"].to_numpy(zero_copy_only=False)))
    if parts:
        s = np.concatenate([p[0] for p in parts])
        d = np.concatenate([p[1] for p in parts])
        t = np.concatenate([p[2] for p in parts])
        order = np.lexsort((t, d, s))
        s, d, t = s[order], d[order], t[order]
    else:
        s = d = t = np.empty(0, np.int64)

    if isinstance(seeds, (int, np.integer)):
        active_nodes = np.unique(np.concatenate([s, d])) if len(s) else \
            np.arange(gf.n)
        if seeds > len(active_nodes):
            raise ValueError(f"requested {seeds} seeds for "
                             f"{len(active_nodes)} nodes")
        seeds = rng.choice(active_nodes, size=int(seeds), replace=False)
    seeds = [int(v) for v in seeds]

    INT64_MAX = np.iinfo(np.int64).max
    states: dict[int, tuple[int, int, int]] = {}
    queue: list[tuple[int, int]] = [(int(initial_infection), v)
                                    for v in seeds]
    heapq.heapify(queue)
    while queue:
        ev_t, u = heapq.heappop(queue)
        if u in states:
            continue
        incubation = int(rng.exponential(1.0 / incubation_rate)) \
            if incubation_rate else 1
        recovery = int(rng.exponential(1.0 / recovery_rate)) \
            if recovery_rate else INT64_MAX
        start_t = min(ev_t + incubation, INT64_MAX)
        end_t = start_t + recovery if recovery < INT64_MAX - start_t \
            else INT64_MAX
        states[u] = (ev_t, start_t, end_t)
        lo = np.searchsorted(s, u, side="left")
        hi = np.searchsorted(s, u, side="right")
        dd, tt = d[lo:hi], t[lo:hi]
        for nb in np.unique(dd):
            nb = int(nb)
            if nb in states:
                continue
            et = tt[dd == nb]
            et = et[(et >= start_t) & (et < end_t)]
            for e_time in et:
                if rng.random() < infection_prob:
                    heapq.heappush(queue, (int(e_time), nb))
                    break
    return states


# --------------------------------------------------- bipartite projection

@ray.remote
def _bip_split(block: pa.Table, P: int, pivot_mask):
    """Exploded events routed to their pivot endpoint's owner as
    (pivot, other, t). An event contributes when EITHER endpoint is a
    pivot (node.edges() iterates both directions)."""
    if block.num_rows == 0 or "src" not in block.column_names:
        z = np.empty(0, np.int64)
        return returns([(z, z, z)] * P)
    mask = ray.get(pivot_mask) if isinstance(pivot_mask, ray.ObjectRef) \
        else pivot_mask
    s = block["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = block["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    t = block["t"].to_numpy(zero_copy_only=False).astype(np.int64)
    piv = np.concatenate([d[mask[d]], s[mask[s]]])
    oth = np.concatenate([s[mask[d]], d[mask[s]]])
    tt = np.concatenate([t[mask[d]], t[mask[s]]])
    return returns(split(bucket(piv, P), P, piv, oth, tt))


@ray.remote
def _bip_pairs(delta: int, *pieces) -> pa.Table:
    """Per pivot: reference sliding window — for each visitor, pair with
    every earlier visitor within delta; new edge at average_floor(t1, t2)
    (temporal_bipartite_projection.rs:47-77). Vectorized per pivot run."""
    piv = np.concatenate([p[0] for p in pieces])
    if len(piv) == 0:
        z = pa.array([], pa.int64())
        return pa.table({"src": z, "dst": z, "t": z})
    oth = np.concatenate([p[1] for p in pieces])
    t = np.concatenate([p[2] for p in pieces])
    order = np.lexsort((t, piv))
    piv, oth, t = piv[order], oth[order], t[order]
    starts = np.r_[0, np.flatnonzero(piv[1:] != piv[:-1]) + 1, len(piv)]
    srcs, dsts, ts = [], [], []
    for i in range(len(starts) - 1):
        lo, hi = starts[i], starts[i + 1]
        tt, nn = t[lo:hi], oth[lo:hi]
        m = hi - lo
        if m < 2:
            continue
        # for each j, pair with all k < j having tt[k] + delta >= tt[j]
        first = np.searchsorted(tt, tt - delta, side="left")
        cnt = np.arange(m) - first
        keep = cnt > 0
        if not keep.any():
            continue
        j = np.repeat(np.arange(m)[keep], cnt[keep])
        k = np.concatenate([np.arange(f, jj) for jj, f
                            in zip(np.arange(m)[keep], first[keep])])
        # average_floor = (a + b) >> 1 with floor semantics
        mid = (tt[k] + tt[j]) // 2
        srcs.append(nn[k])
        dsts.append(nn[j])
        ts.append(mid)
    if not srcs:
        z = pa.array([], pa.int64())
        return pa.table({"src": z, "dst": z, "t": z})
    return pa.table({"src": pa.array(np.concatenate(srcs)),
                     "dst": pa.array(np.concatenate(dsts)),
                     "t": pa.array(np.concatenate(ts))})


def temporal_bipartite_projection(gf, delta: int, pivot_vids) -> "object":
    """Project over pivot nodes: (u, v) connect at (t1+t2)//2 when both
    visit the same pivot within delta. Returns a new GraphFrame whose event
    Dataset is the union of per-pivot pair emissions."""
    from raphtory_ray.graph.graph_frame import GraphFrame
    import ray.data as rd
    mask = np.zeros(gf.n, dtype=bool)
    mask[np.asarray(list(pivot_vids), dtype=np.int64)] = True
    mask_ref = ray.put(mask)
    mat = gf.edges.materialize()
    refs = mat.to_arrow_refs()
    P = num_partitions(mat.count())
    out = [_bip_pairs.remote(delta, *col)
           for col in shuffle(_bip_split, refs, P, mask_ref)]
    return GraphFrame(rd.from_arrow_refs(out), gf.n)


# ------------------------------------------------------- alternating mask

def alternating_mask(gf) -> np.ndarray:
    """Mock reference algorithm (alternating_mask.rs:22-39): bool per node,
    alternating by node iteration order (= vid order here)."""
    return (np.arange(gf.n) % 2) != 0
