"""Louvain community detection + modularity.

Reference semantics: algorithms/community_detection/louvain.rs:27-81 (outer
aggregate loop over inner local-move passes, move accepted when
delta > tol) and modularity.rs ModularityUnDir:
- the graph is treated as an undirected multigraph over its DIRECTED simple
  edges: every directed edge (u, v) contributes its weight to BOTH
  endpoints' k and both adjacency lists (node.edges() iterates in+out);
- per directed simple edge the weight is the LATEST event's value
  (e.properties().get(w) resolves the temporal prop to its last value);
- self-loops are excluded from adj/k (modularity.rs:195,220) but counted in
  the node's own community weight (modularity.rs:234-239);
- move_delta (modularity.rs:260-277):
  ((2(a_new − a_old_excl)) − r·2(k_u(K_new − K_old) + k_u²)/m2)/m2;
- value() (modularity.rs:390-404): e/m2 − r·Σ K_c²/m2², with m2 = Σ k
  (self-loop weights excluded from k, hence from m2 — reference quirk,
  mirrored exactly).

Execution split (Ray-Data-first): the event→weighted-simple-edge
reduction is a distributed hash shuffle on (src, dst) with per-partition
latest-event resolution; the half-edges are then re-partitioned by
owner(u) and PINNED in the object store. Every level runs one move rule
and one aggregate. Its local-move passes are the loop of
``state/supersteps``: the kernel (_lv_pass) finds each owned node's best
move, complete since all of a node's half-edges share its owner
partition, and ``advance`` applies the guards over the sparse merged
moves. Aggregation is _lv_agg. Only the placement follows the size.
While a level's half-edge count exceeds _LOCAL_HALF_EDGES, each pass
runs a task per partition and ships the O(V_level) state (com/k_com/
sizes and the mover mask, the engine-wide documented trade-off); the
driver never holds an edge array. At or below it the half-edges are
pulled once into one driver-held block, and the passes run the fused
loop's body in-process (the reference's own louvain is a sequential
single-thread loop, louvain.rs:44-71).
Parallel-move correctness: moves are applied Jacobi-style per pass; the
singleton-swap guard (only let a singleton join a singleton with a smaller
community id) prevents the classic two-node oscillation, and passes are
capped. Ties break by a hash of (node, candidate), not a random draw;
the reference shuffles its node order (louvain.rs:47). Either way the
output is a local optimum, not a canonical partition — tests assert
invariants.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from raphtory_ray.core.exchange import (bucket, cluster_cpus,
                                        num_partitions, pair_key, returns,
                                        shuffle, split)
from raphtory_ray.state.supersteps import _loop, superstep_loop

# Half-edges per move partition: round 5 measured 300k per partition 2x
# slower (compute-bound at 4-way) than 16-way; below ~50k scheduling
# latency x passes dominates.
LOUVAIN_HALF_EDGES_PER_PARTITION = 75_000


# --------------------------------------------------------------- reduction

@ray.remote
def _lv_split(block: pa.Table, P: int, weighted: bool):
    """Route events by hash(src, dst); emit only (src, dst, t, event_id, w)
    as numpy for cheap transport."""
    if block.num_rows == 0 or "src" not in block.column_names:
        z = np.empty(0, np.int64)
        return returns([(z, z, z, z, np.empty(0, np.float64))] * P)
    s = block["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = block["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    t = block["t"].to_numpy(zero_copy_only=False).astype(np.int64) \
        if "t" in block.column_names else np.zeros(len(s), np.int64)
    ei = block["event_id"].to_numpy(zero_copy_only=False).astype(np.int64) \
        if "event_id" in block.column_names else np.zeros(len(s), np.int64)
    w = block["w"].to_numpy(zero_copy_only=False).astype(np.float64) \
        if weighted else np.ones(len(s), np.float64)
    return returns(split(bucket(pair_key(s, d), P), P, s, d, t, ei, w))


@ray.remote
def _lv_latest(*pieces):
    """One (src,dst) partition: latest-event weight per directed simple
    edge (lexsort by (event_id, t) within edge; keep last)."""
    s = np.concatenate([p[0] for p in pieces])
    if len(s) == 0:
        return (s, s.copy(), np.empty(0, np.float64))
    d = np.concatenate([p[1] for p in pieces])
    t = np.concatenate([p[2] for p in pieces])
    ei = np.concatenate([p[3] for p in pieces])
    w = np.concatenate([p[4] for p in pieces])
    order = np.lexsort((ei, t, d, s))
    s, d, w = s[order], d[order], w[order]
    last = np.r_[(s[1:] != s[:-1]) | (d[1:] != d[:-1]), True]
    return (s[last], d[last], w[last])


def _latest_parts(gf, weight_col: str | None):
    """Distributed latest-weight reduce → P object refs of (s, d, w) simple
    -edge partitions (hash(src,dst)-owned). Nothing is pulled."""
    cols = ["src", "dst"]
    sch = gf.edges.schema()
    for c in ("t", "event_id"):
        if c in sch.names:
            cols.append(c)
    weighted = weight_col is not None
    ds = gf.edges
    if weighted:
        if weight_col != "w":
            def ren(b: pa.Table) -> pa.Table:
                return pa.table({**{c: b[c] for c in cols},
                                 "w": b[weight_col]})
            ds = ds.map_batches(ren, batch_format="pyarrow",
                                zero_copy_batch=True)
        else:
            ds = ds.select_columns(cols + ["w"])
    else:
        ds = ds.select_columns(cols)
    mat = ds.materialize()
    refs = mat.to_arrow_refs()
    P = num_partitions(mat.count())
    return [_lv_latest.remote(*col)
            for col in shuffle(_lv_split, refs, P, weighted)]


def latest_weight_edges(gf, weight_col: str | None):
    """(src, dst, w) of the directed simple-edge graph, w = latest event's
    ``weight_col`` (1.0 when None) — the driver-pulled form."""
    parts = ray.get(_latest_parts(gf, weight_col))
    s = np.concatenate([p[0] for p in parts]) if parts else np.empty(0, np.int64)
    d = np.concatenate([p[1] for p in parts]) if parts else np.empty(0, np.int64)
    w = np.concatenate([p[2] for p in parts]) if parts else np.empty(0, np.float64)
    return s, d, w


# ------------------------------------------------------ local-move level
#
# Half-edges are hash-partitioned by owner(u): ALL of a node's half-edges
# live in its owner partition, so each partition's best-candidate
# selection is complete for its owned nodes. The driver keeps O(V_level)
# state arrays (com / k / sizes — the engine-wide documented trade-off,
# same as the PageRank superstep state) but never a driver-resident edge
# array above _LOCAL_HALF_EDGES.

_LOCAL_HALF_EDGES = 60_000   # at or below this, a level's half-edges are
                              # one driver-held block: no task per pass


@ray.remote
def _lv_halve(latest, P: int, tol: float):
    """One latest-weight partition → non-loop half-edges routed by
    owner(u) (num_returns pieces), plus sparse self-loop sums last."""
    s, d, w = latest
    keep = w >= tol                      # modularity.rs:200 weight filter
    s, d, w = s[keep], d[keep], w[keep]
    loop = s == d
    sids, sinv = np.unique(s[loop], return_inverse=True)
    ssum = np.bincount(sinv, weights=w[loop]) if len(sids) else np.empty(0)
    s, d, w = s[~loop], d[~loop], w[~loop]
    u = np.concatenate([s, d])
    v = np.concatenate([d, s])
    hw = np.concatenate([w, w])
    return (*split(bucket(u, P), P, u, v, hw), (sids, ssum))


@ray.remote
def _lv_gather(*pieces):
    """Merge one owner(u) partition's pieces. Duplicate (u, v) rows are
    left unreduced — every consumer (pass segment sums, k sums, aggregate)
    is additive, so parallel edges equal their sum. Returns the edge tuple,
    sparse k sums (disjoint across partitions by ownership), and the row
    count (so the driver can pick the placement without pulling)."""
    u = np.concatenate([p[0] for p in pieces]) if pieces else np.empty(0, np.int64)
    v = np.concatenate([p[1] for p in pieces]) if pieces else np.empty(0, np.int64)
    w = np.concatenate([p[2] for p in pieces]) if pieces else np.empty(0, np.float64)
    uids, uinv = np.unique(u, return_inverse=True)
    ks = np.bincount(uinv, weights=w) if len(uids) else np.empty(0)
    return (u, v, w), (uids, ks), len(u)


@ray.remote
def _lv_count(latest) -> int:
    return len(latest[0])


def _half_edge_parts(gf, weight_col: str | None, tol: float, n: int):
    """Distributed event→half-edge reduction. Returns (edge_refs, self_w,
    k, total_half_edges); edges never land on the driver.

    The move-partition count is sized to the data
    (LOUVAIN_HALF_EDGES_PER_PARTITION half-edges per partition)."""
    latest = _latest_parts(gf, weight_col)
    directed = sum(ray.get([_lv_count.remote(r) for r in latest]))
    # Keeps its old P (at least 2, at most min(32, cpus - 2)): the move
    # phase sums floats (k_com, gain, the level aggregate) in partition
    # order, so weighted communities can depend on P. (Six random weighted
    # graphs gave equal communities at P = 2, 8 and 32.)
    cap = min(32, max(2, cluster_cpus() - 2))
    P = max(2, num_partitions(2 * directed, cap,
                              LOUVAIN_HALF_EDGES_PER_PARTITION))
    halves = [_lv_halve.options(num_returns=P + 1).remote(r, P, tol)
              for r in latest]
    Q = len(latest)
    self_w = np.zeros(n, np.float64)
    for sids, ssum in ray.get([h[P] for h in halves]):
        np.add.at(self_w, sids, ssum)
    gath = [_lv_gather.options(num_returns=3)
            .remote(*[halves[q][p] for q in range(Q)]) for p in range(P)]
    k = np.zeros(n, np.float64)
    total = 0
    ksums = ray.get([g[1] for g in gath])
    counts = ray.get([g[2] for g in gath])
    for (uids, ks), cnt in zip(ksums, counts):
        k[uids] += ks                     # disjoint by u-ownership
        total += int(cnt)
    return [g[0] for g in gath], self_w, k, total


def _lv_pass(edges, state, k, m2, resolution, tol):
    """Best improving candidate move per owned node (modularity.rs
    move_delta) over this partition's half-edges, for the movers and
    their neighbours. Tie-break jitter is a pure hash of (node,
    candidate) — deterministic at any parallelism."""
    com, k_com, moved = state[0], state[1], state[4]
    u, v, w = edges
    act = moved.copy()                    # broadcast arrays are read-only
    act[u[moved[v]]] = True               # neighbours of movers
    sel = act[u]
    u, v, w = u[sel], v[sel], w[sel]
    empty = (np.empty(0, np.int64), np.empty(0, np.int64),
             np.empty(0, np.float64))
    if len(u) == 0:
        return empty
    cv = com[v]
    order = np.lexsort((cv, u))
    uu, cc, ww = u[order], cv[order], w[order]
    seg = np.r_[True, (uu[1:] != uu[:-1]) | (cc[1:] != cc[:-1])]
    sidx = np.flatnonzero(seg)
    su, sc = uu[sidx], cc[sidx]
    sw = np.add.reduceat(ww, sidx)
    own = sc == com[su]
    a_old = np.zeros(len(com), np.float64)
    a_old[su[own]] = sw[own]
    cand = ~own
    cu, ccand, cw = su[cand], sc[cand], sw[cand]
    a = 2.0 * (cw - a_old[cu])
    p = 2.0 * (k[cu] * (k_com[ccand] - k_com[com[cu]]) + k[cu] ** 2)
    delta = (a - resolution * p / m2) / m2
    good = delta > tol
    if not np.any(good):
        return empty
    cu, ccand, delta = cu[good], ccand[good], delta[good]
    jit = pair_key(cu, ccand + 1).astype(np.float64) * (1e-22 / 2.0 ** 64)
    order2 = np.lexsort((delta + jit, cu))
    last = np.r_[cu[order2][1:] != cu[order2][:-1], True]
    return cu[order2][last], ccand[order2][last], delta[order2][last]


def _lv_advance(state, parts, it, k, *_):
    """Apply one pass's moves Jacobi-style: drop singleton swaps and
    returns to last pass's community, and stop on no move, three stalled
    gains or a trickle of movers. Partials are combined in partition
    order."""
    com, k_com, sizes, prev_com, moved, gain, stall = state
    bu = np.concatenate([o[0] for o in parts])
    bc = np.concatenate([o[1] for o in parts])
    delta = np.concatenate([o[2] for o in parts])
    # singleton-swap guard: only let a singleton join a singleton with a
    # smaller id; with the no-return rule it kills Jacobi 2-cycles
    swap = (sizes[com[bu]] == 1) & (sizes[bc] == 1) & (bc > com[bu])
    keep = ~(swap | (prev_com[bu] == bc))
    bu, bc = bu[keep], bc[keep]
    if len(bu) == 0:
        return state, True
    new_gain = float(delta[keep].sum())
    old = com[bu]
    new_com = com.copy()
    new_com[bu] = bc
    sizes, k_com = sizes.copy(), k_com.copy()
    np.add.at(sizes, old, -1)
    np.add.at(sizes, bc, 1)
    np.add.at(k_com, old, -k[bu])
    np.add.at(k_com, bc, k[bu])
    moved = np.zeros(len(com), dtype=bool)
    moved[bu] = True
    # stagnation: limit cycles repeat the same gain; trickle: fewer than
    # 0.2% of nodes still move, so the gain left in this level is small
    stall = stall + 1 if new_gain >= gain * 0.999 else 0
    done = stall >= 3 or len(bu) < max(8, len(com) // 500)
    return (new_com, k_com, sizes, com, moved, np.array(new_gain),
            np.array(stall)), done


def _level(edges, k, resolution, tol, max_passes=64):
    """One level's local-move passes: the kernel finds each owned node's
    best move, and the advance applies the guards over the merged sparse
    moves. ``edges`` is the owner(u) partition refs, run by
    ``superstep_loop``, or one driver-held (u, v, w) block, run by the
    fused loop's body in-process (no task). The state is (com, k_com,
    sizes, prev_com, moved, gain, stall); the first pass's all-True
    ``moved`` scores every half-edge. ``gain`` stays inf until a pass
    applies a move."""
    n = len(k)
    com = np.arange(n, dtype=np.int64)
    m2 = float(k.sum())
    if m2 <= 0:
        return com, False
    state = (com, k.copy(), np.ones(n, np.int64), com,
             np.ones(n, dtype=bool), np.array(np.inf), np.array(0))
    args = (_lv_pass, _lv_advance, state, (k, m2, resolution, tol))
    state = (_loop(edges, *args, None, 0, max_passes)
             if isinstance(edges, tuple)
             else superstep_loop(edges, *args, stop=max_passes))[0]
    return state[0], bool(np.isfinite(state[5]))


def _lv_agg(edges, inv, nc: int, P: int):
    """Map this partition's half-edges to community pairs, reduce locally,
    route inter-community halves by owner(cu); sparse intra sums last."""
    u, v, w = edges
    cu, cv = inv[u], inv[v]
    inter = cu != cv
    iid, iinv = np.unique(cu[~inter], return_inverse=True)
    isum = np.bincount(iinv, weights=w[~inter]) if len(iid) else np.empty(0)
    key = cu[inter].astype(np.int64) * nc + cv[inter]
    order = np.argsort(key, kind="stable")
    kk = key[order]
    if len(kk):
        seg = np.r_[True, kk[1:] != kk[:-1]]
        sidx = np.flatnonzero(seg)
        sw = np.add.reduceat(w[inter][order], sidx)
        nu = (kk[seg] // nc).astype(np.int64)
        nv = (kk[seg] % nc).astype(np.int64)
    else:
        nu = nv = np.empty(0, np.int64)
        sw = np.empty(0, np.float64)
    return (*split(bucket(nu, P), P, nu, nv, sw), (iid, isum))


_lv_agg_task = ray.remote(_lv_agg)


def _aggregate(edges, self_w, k, com):
    """Coarse-grain to communities (modularity.rs aggregate()): compact
    labels; new half-edges = inter-community sums, new self-loops =
    intra-community sums (old self-loops fold in), new k = k_com. Over
    partition refs the O(E) map+reduce runs in tasks and the coarse graph
    stays owner(cu)-partitioned refs; a driver-held block runs the same
    map+reduce at P = 1, whose one routed piece is already its gather.
    Driver work is O(V_level) folds of self_w / k."""
    uniq, inv = np.unique(com, return_inverse=True)
    nc = len(uniq)
    inv = inv.astype(np.int64)
    if isinstance(edges, tuple):
        edges, intra = _lv_agg(edges, inv, nc, 1)
        intra, total = [intra], len(edges[0])
    else:
        P = len(edges)
        iref = ray.put(inv)
        outs = [_lv_agg_task.options(num_returns=P + 1).remote(e, iref, nc, P)
                for e in edges]
        intra = ray.get([o[P] for o in outs])
        gath = [_lv_gather.options(num_returns=3)
                .remote(*[outs[q][p] for q in range(P)]) for p in range(P)]
        total = int(sum(ray.get([g[2] for g in gath])))
        edges = [g[0] for g in gath]
    new_self = np.zeros(nc, np.float64)
    for iid, isum in intra:
        np.add.at(new_self, iid, isum)
    np.add.at(new_self, inv, self_w)
    new_k = np.zeros(nc, np.float64)
    np.add.at(new_k, inv, k)
    return edges, new_self, new_k, inv, total


def louvain(gf, resolution: float = 1.0, weight_col: str | None = None,
            tol: float | None = None) -> np.ndarray:
    """Community id per vid (louvain.rs:27-81). Deterministic; like the
    reference, the partition is a local optimum.

    Every level runs the one move rule (_level) and the one aggregate
    (_aggregate). Only the placement follows the level's half-edge count:
    above _LOCAL_HALF_EDGES a task per owner(u) partition each pass; at or
    below it the half-edges are pulled to the driver once and every later
    level runs in-process."""
    tol = 1e-8 if tol is None else tol
    n = gf.n
    edges, self_w, k, total = _half_edge_parts(gf, weight_col, tol, n)
    global_com = np.arange(n, dtype=np.int64)
    while True:
        if not isinstance(edges, tuple) and total <= _LOCAL_HALF_EDGES:
            parts = ray.get(edges)
            edges = tuple(np.concatenate([p[i] for p in parts])
                          for i in range(3))
        com, moved = _level(edges, k, resolution, tol)
        if not moved:
            break
        edges, self_w, k, inv, total = _aggregate(edges, self_w, k, com)
        global_com = inv[com[global_com]]
    # compact final labels
    _, out = np.unique(global_com, return_inverse=True)
    return out.astype(np.int64)


@ray.remote
def _lv_mod_task(edges, com) -> float:
    u, v, w = edges
    return float(w[com[u] == com[v]].sum())


def modularity(gf, com: np.ndarray, resolution: float = 1.0,
               weight_col: str | None = None, tol: float = 1e-8) -> float:
    """Modularity of a partition (modularity.rs value(): e/m2 − r·ΣK²/m2²,
    k and m2 exclude self-loop weights; e includes them). Intra sums run
    in per-partition tasks; the driver holds only O(V) state."""
    com = np.asarray(com, np.int64)
    edge_refs, self_w, k, _total = _half_edge_parts(gf, weight_col, tol, gf.n)
    m2 = float(k.sum())
    if m2 <= 0:
        return 0.0
    cref = ray.put(com)
    intra = sum(ray.get([_lv_mod_task.remote(e, cref) for e in edge_refs]))
    intra += float(self_w.sum())          # self-loops count toward intra
    k_com = np.zeros(int(com.max()) + 1 if len(com) else 1, np.float64)
    np.add.at(k_com, com, k)
    return intra / m2 - resolution * float((k_com ** 2).sum()) / (m2 ** 2)
