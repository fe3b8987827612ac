"""Distributed transitive-closure components (all-nodes in/out components),
the single-source closure BFS, and ColorSCC.

Reference semantics: ``in_components.rs:55-224`` / ``out_components.rs:65-221``
— per node, the set of ancestors (nodes that can reach it) / descendants
(nodes it can reach), excluding the node itself unless it lies on a cycle.

All-nodes closure (``closure_pairs``): multi-source frontier BFS expressed
as (node, member) PAIR supersteps.

- Edges are oriented once (forward for out-components, reversed for
  in-components), hash-partitioned by ``src`` and src-sorted → P static
  JOIN partitions pinned in the object store.
- "seen" state is a ROW-PARTITIONED bitset: partition p owns one bitset row
  per source node hashing to p — O(|sources|·V / 8P) per partition, never
  the full matrix in one place.  (The O(|sources|·V) total is inherent to
  the output; the reference materializes the same sets.)
- Each round:
    JOIN   tasks expand frontier pairs (u, m) against m's out-edges
           → candidate pairs (u, w), routed to owner(u) by
           core/exchange (a task-level hash shuffle);
    UPDATE tasks bit-test candidates against their seen rows, set the new
           bits, and route the survivors to owner(w) → next frontier.
  The driver sees only per-partition new-pair COUNTS (O(P) per round), and
  the rounds end when no new pair appears (at most n rounds).
- Total transport over the run is O(closure pairs); no task and never the
  driver holds the full edge set or the full bitset.

The small-n driver bitset (``algorithms/__init__._closure_sets_local``) is
kept as a fast path below ``_LOCAL_N`` nodes.

The single-source closure (``single_closure``) and ColorSCC
(``scc_distributed``) are kernels plus advances over
``state/supersteps.superstep_loop``, like the BspGraph algorithms: each
superstep ships the O(V) state to the edge blocks, and the blocks never
leave the object store.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from raphtory_ray.core.exchange import bucket, columns, returns, split
from raphtory_ray.state.shards import _sd, _shuffle_pairs
from raphtory_ray.state.supersteps import superstep_loop

_LOCAL_N = 1 << 13          # below this, the driver bitset path is cheaper
_CHUNK = 1 << 22            # max expanded pairs per join slice (task memory)


def _pair_table(u: np.ndarray, w: np.ndarray) -> pa.Table:
    return pa.table({"u": pa.array(u, pa.int64()), "w": pa.array(w, pa.int64())})


def _pairs(tbl: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    if tbl.num_rows == 0 or "u" not in tbl.column_names:
        z = np.empty(0, np.int64)
        return z, z
    return (tbl["u"].to_numpy(zero_copy_only=False),
            tbl["w"].to_numpy(zero_copy_only=False))


@ray.remote
def _cl_orient(block: pa.Table, reverse: bool) -> pa.Table:
    s, d = _sd(block)
    if reverse:
        s, d = d, s
    return pa.table({"src": pa.array(s, pa.int64()),
                     "dst": pa.array(d, pa.int64())})


@ray.remote
def _cl_sort(block: pa.Table) -> pa.Table:
    """Src-sorted adjacency slice for searchsorted range lookups."""
    s, d = _sd(block)
    o = np.argsort(s, kind="stable")
    return pa.table({"src": pa.array(s[o], pa.int64()),
                     "dst": pa.array(d[o], pa.int64())})


@ray.remote
def _cl_seed(edges: pa.Table, sources) -> pa.Table:
    """Seed candidates (u, w) = direct edges out of the source set.
    Edges here are owner(src)-partitioned, so owner(u) == this partition
    and the seed needs no routing."""
    s, d = _sd(edges)
    if sources is not None:
        m = np.isin(s, sources)
        s, d = s[m], d[m]
    return _pair_table(s, d)


@ray.remote
def _cl_update(S, owned: np.ndarray, n: int, P: int, *cand_tables: pa.Table):
    """Bit-test candidate pairs against this partition's seen rows; set the
    new bits; route survivors by owner(w) for the next JOIN round.

    Returns (new_seen_bitset, new_pair_count, frontier_split_0..P-1)."""
    W = max(1, (n + 63) // 64)
    if S is None:
        S = np.zeros((len(owned), W), dtype=np.uint64)
    else:
        S = S.copy()                      # object-store arrays are read-only
    us = [_pairs(t) for t in cand_tables]
    u = np.concatenate([x[0] for x in us]) if us else np.empty(0, np.int64)
    w = np.concatenate([x[1] for x in us]) if us else np.empty(0, np.int64)
    if len(u):
        # in-round dedup: the same (u, w) may arrive from several joins
        key = u.astype(np.uint64) * np.uint64(n) + w.astype(np.uint64)
        _, first = np.unique(key, return_index=True)
        u, w = u[first], w[first]
        rows = np.searchsorted(owned, u)
        mask = np.uint64(1) << (w % 64).astype(np.uint64)
        new = (S[rows, w // 64] & mask) == 0
        u, w, rows, mask = u[new], w[new], rows[new], mask[new]
        np.bitwise_or.at(S, (rows, w // 64), mask)
    return (S, len(u), *[_pair_table(*c) for c in split(bucket(w, P), P,
                                                         u, w)])


@ray.remote
def _cl_join(edges: pa.Table, P: int, *frontier_tables: pa.Table):
    """Expand frontier pairs (u, m) — owner(m) == this partition — against
    m's out-edges (m → w) → candidates (u, w) routed by owner(u).
    Expansion runs in bounded slices so a hub m can't blow task memory."""
    s, d = _sd(edges)
    fs = [_pairs(t) for t in frontier_tables]
    fu = np.concatenate([x[0] for x in fs]) if fs else np.empty(0, np.int64)
    fm = np.concatenate([x[1] for x in fs]) if fs else np.empty(0, np.int64)
    buckets: list[list] = [[] for _ in range(P)]
    if len(fu) and len(s):
        lo = np.searchsorted(s, fm)
        hi = np.searchsorted(s, fm, side="right")
        cnt = hi - lo
        keep = cnt > 0
        fu, lo, cnt = fu[keep], lo[keep], cnt[keep]
        csum = np.cumsum(cnt)
        start = 0
        while start < len(fu):
            stop = start
            base = csum[start - 1] if start else 0
            while stop < len(fu) and csum[stop] - base <= _CHUNK:
                stop += 1
            stop = max(stop, start + 1)
            cs, ls, us = cnt[start:stop], lo[start:stop], fu[start:stop]
            total = int(cs.sum())
            off = np.repeat(np.cumsum(cs) - cs, cs)
            idx = np.repeat(ls, cs) + (np.arange(total) - off)
            w = d[idx]
            u = np.repeat(us, cs)
            for p, piece in enumerate(split(bucket(u, P), P, u, w)):
                buckets[p].append(piece)
            start = stop
    z = np.empty(0, np.int64)
    return returns([_pair_table(np.concatenate([x[0] for x in b] or [z]),
                                np.concatenate([x[1] for x in b] or [z]))
                    for b in buckets])


@ray.remote
def _cl_emit(S, owned: np.ndarray, n: int) -> pa.Table:
    """Unpack this partition's seen rows into (node, member) pairs."""
    if S is None or len(owned) == 0:
        z = pa.array(np.empty(0, np.int64))
        return pa.table({"node": z, "member": z})
    bits = np.unpackbits(S.view(np.uint8), bitorder="little", axis=1)[:, :n]
    rows, members = np.nonzero(bits)
    return pa.table({"node": pa.array(owned[rows], pa.int64()),
                     "member": pa.array(members.astype(np.int64), pa.int64())})


def _frontier_block(block: pa.Table, state, reverse: bool):
    """BFS step over one edge block: distinct dsts reached from the
    frontier boolmask. Edges stay in the object store."""
    s, d = _sd(block)
    if reverse:
        s, d = d, s
    return np.unique(d[state[2][s]])


def _frontier_advance(state, parts, it, reverse):
    seen, result, _ = state
    nxt = np.zeros(len(seen), dtype=bool)
    for ids in parts:
        nxt[ids] = True
    nxt &= ~seen
    return (seen | nxt, result | nxt, nxt), not nxt.any()


def single_closure(g, source: int, reverse: bool) -> np.ndarray:
    """BFS closure of ONE node (in_components.rs single-node variant), a
    ``superstep_loop`` over the edge blocks with state (seen, result,
    frontier): each superstep ships the O(V) frontier mask to the blocks
    (the engine-wide documented trade-off), each block returns the
    distinct ids it reaches, and no edge block leaves the object store.
    The source itself is a member only if it lies on a cycle."""
    n = g.n
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    blank = np.zeros(n, dtype=bool)
    state = superstep_loop(g.refs, _frontier_block, _frontier_advance,
                           (blank, blank, frontier), (reverse,))[0]
    return np.flatnonzero(state[1])


def closure_pairs(g, reverse: bool,
                  sources: np.ndarray | None = None) -> list:
    """Distributed closure. Returns P object refs of (node, member) Arrow
    tables (row-partitioned by hash(node)). ``sources=None`` = all nodes."""
    P = len(g.refs)
    n = g.n
    oriented = [_cl_orient.remote(r, reverse) for r in g.refs]
    parts = _shuffle_pairs(oriented, P, key="src")
    edges = [_cl_sort.remote(p) for p in parts]

    src_all = np.arange(n, dtype=np.int64) if sources is None \
        else np.unique(np.asarray(sources, dtype=np.int64))
    bk = bucket(src_all, P)
    owned = [np.sort(src_all[bk == p]) for p in range(P)]
    owned_refs = [ray.put(o) for o in owned]
    src_ref = ray.put(src_all if sources is not None else None)

    # seed candidates: owner(u)-local direct edges out of the sources
    cand = [[_cl_seed.remote(edges[p], src_ref)] for p in range(P)]
    S = [None] * P
    while True:     # a pair new in round r is r hops away: at most n rounds
        outs = [_cl_update.options(num_returns=P + 2).remote(
            S[p], owned_refs[p], n, P, *cand[p]) for p in range(P)]
        S = [outs[p][0] for p in range(P)]
        counts = ray.get([outs[p][1] for p in range(P)])
        if sum(counts) == 0:
            break
        # frontier for join partition q = survivors with owner(w) == q
        cand = columns([_cl_join.options(num_returns=P).remote(
            edges[q], P, *[outs[p][2 + q] for p in range(P)])
            for q in range(P)], P)
    return [_cl_emit.remote(S[p], owned_refs[p], n) for p in range(P)]


def closure_dataset(g, reverse: bool, sources: np.ndarray | None = None):
    """(node, member) closure as a streaming ``ray.data.Dataset``."""
    import ray.data
    return ray.data.from_arrow_refs(closure_pairs(g, reverse, sources))


def closure_sets(g, reverse: bool) -> list[np.ndarray]:
    """All-nodes closure as per-node sorted member arrays (reference list
    API). Assembling the list on the driver is O(output), which this API
    inherently requires; the scale path is ``closure_dataset``."""
    out: list[np.ndarray] = [np.empty(0, np.int64)] * g.n
    for tbl in ray.get(closure_pairs(g, reverse)):
        node = tbl["node"].to_numpy(zero_copy_only=False)
        member = tbl["member"].to_numpy(zero_copy_only=False)
        o = np.lexsort((member, node))
        node, member = node[o], member[o]
        uniq, starts = np.unique(node, return_index=True)
        bounds = np.append(starts, len(node))
        for i, v in enumerate(uniq):
            out[int(v)] = member[bounds[i]:bounds[i + 1]]
    return out


# ------------------------------------------------------- distributed SCC
#
# ColorSCC as three superstep loops per outer round over the dst-sorted
# CSR slices (s, uds, start) that PageRank also steps over. Each kernel
# reads only the rows of its slice and the broadcast state.

def _csr_dst(s: np.ndarray, uds: np.ndarray, start: np.ndarray):
    """The dst of every row of a CSR slice."""
    return np.repeat(uds, np.diff(np.r_[start, len(s)]))


def _scc_trim(csr, active: np.ndarray):
    """Distinct srcs and dsts of the slice's active, non-self-loop rows."""
    s, d = csr[0], _csr_dst(*csr)
    m = active[s] & active[d] & (s != d)
    return np.unique(s[m]), np.unique(d[m])


def _scc_trim_advance(active, parts, it):
    """Deactivate every active vertex with no active in- or out-edge."""
    has_out = np.zeros(len(active), dtype=bool)
    has_in = np.zeros(len(active), dtype=bool)
    for us, ud in parts:
        has_out[us] = True
        has_in[ud] = True
    kept = active & has_out & has_in
    return kept, np.array_equal(kept, active)


def _scc_color(csr, state):
    """Max color over each owned dst's active in-neighbours (-1 if none).
    Self-loops cannot raise a color, so they need no mask."""
    active, color = state
    s, uds, start = csr
    if len(uds) == 0:
        return uds, uds
    return uds, np.maximum.reduceat(np.where(active[s], color[s], -1), start)


def _scc_color_advance(state, parts, it):
    active, color = state
    new = color.copy()
    for uds, mx in parts:                 # disjoint by dst ownership
        new[uds] = np.maximum(new[uds], mx)
    return (active, new), np.array_equal(new, color)


def _scc_claim(csr, state):
    """Active, unclaimed srcs of rows into a member of their own color."""
    active, color, member = state
    s, d = csr[0], _csr_dst(*csr)
    m = member[d] & active[s] & ~member[s] & (color[s] == color[d])
    return np.unique(s[m])


def _scc_claim_advance(state, parts, it):
    active, color, member = state
    new = member.copy()
    for ids in parts:
        new[ids] = True
    return (active, color, new), np.array_equal(new, member)


def scc_distributed(g, max_rounds: int = 64) -> np.ndarray:
    """Strongly connected components via ColorSCC (trim → forward
    max-color fixpoint → backward claim from color roots; Orzan-style
    coloring, a public algorithm). Component id = min vid in SCC,
    matching the sequential Tarjan path (scc.rs:20-117 contract).

    Each outer round runs three ``superstep_loop`` calls over the graph's
    dst-sorted CSR slices (``g.csr_refs``): trim to a fixpoint (state
    ``active``), forward max-color propagation (``(active, color)``), and
    the backward claim within each color class (``(active, color,
    member)``). The loop ships the O(V) state to the slices each
    superstep, the engine's documented driver-state trade-off; no task or
    the driver ever holds the edge set. The harvest runs on the driver:
    per color class, id = min member vid. Every round removes at least
    the SCC of each color-class root, so rounds track the depth of the SCC
    condensation chain; after ``max_rounds`` the driver Tarjan settles the
    (by then small) residual."""
    n = g.n
    steps = g.csr_refs
    vids = np.arange(n, dtype=np.int64)
    comp = np.full(n, -1, dtype=np.int64)
    active = np.ones(n, dtype=bool)
    for _ in range(max_rounds):
        if not active.any():
            break
        kept = superstep_loop(steps, _scc_trim, _scc_trim_advance, active)[0]
        trivial = np.flatnonzero(active & ~kept)
        comp[trivial] = trivial
        active = kept
        if not active.any():
            break
        color = superstep_loop(steps, _scc_color, _scc_color_advance,
                               (active, vids))[0][1]
        roots = active & (color == vids)
        member = superstep_loop(steps, _scc_claim, _scc_claim_advance,
                                (active, color, roots))[0][2]
        ids = np.flatnonzero(member)
        cls = color[ids]
        o = np.argsort(cls, kind="stable")
        ids_o, cls_o = ids[o], cls[o]
        ucls, starts = np.unique(cls_o, return_index=True)
        comp[ids_o] = np.minimum.reduceat(ids_o, starts)[
            np.searchsorted(ucls, cls_o)]
        active = active & ~member
    if active.any():
        # residual fallback: driver Tarjan on the (small) leftover subgraph
        from raphtory_ray.algorithms.extra import _tarjan_residual
        comp = _tarjan_residual(g, active, comp)
    return comp
