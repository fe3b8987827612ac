"""Algorithm surface — Raphtory-parity analytics over GraphFrame
(SURVEY §2.8 inventory; python names match
/root/reference/python/python/raphtory/algorithms/__init__.pyi).

Each function takes a :class:`~raphtory_ray.graph.graph_frame.GraphFrame`
(any view) and runs on the shared :class:`~raphtory_ray.state.shards.BspGraph`
built (and cached on the GraphFrame) from its edge Dataset.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from raphtory_ray.graph.graph_frame import GraphFrame
from raphtory_ray.graph.node_state import NodeState
from raphtory_ray.state.shards import BspGraph, _balance_partial

__all__ = [
    "pagerank", "weakly_connected_components", "label_propagation",
    "triangle_count", "local_triangle_count", "k_core_set", "k_core",
    "degree", "in_degree", "out_degree", "degree_centrality",
    "max_degree", "min_degree", "average_degree",
    "max_in_degree", "min_in_degree", "max_out_degree", "min_out_degree",
    "directed_graph_density", "triplet_count",
    "local_clustering_coefficient", "local_clustering_coefficient_batch",
    "global_clustering_coefficient",
    "global_reciprocity", "all_local_reciprocity",
    "hits", "balance", "in_components", "out_components",
    "strongly_connected_components_dist",
    "in_component", "out_component",
    "largest_connected_component", "single_source_shortest_path",
    "temporally_reachable_nodes", "fast_rp",
]


def _bsp(gf: GraphFrame) -> BspGraph:
    if isinstance(gf, BspGraph):
        return gf
    cached = getattr(gf, "_bsp", None)
    if cached is None:
        cached = BspGraph.from_graph(gf)
        gf._bsp = cached
    return cached


# ------------------------------------------------------------------ core four

def pagerank(gf, iter_count: int = 20, tol: float = 1e-6,
             damping_factor: float = 0.85, use_l2_norm: bool = True,
             checkpoint=None) -> NodeState:
    scores, iters, _ = _bsp(gf).pagerank(damping=damping_factor,
                                         iter_count=iter_count, tol=tol,
                                         use_l2_norm=use_l2_norm,
                                         checkpoint=checkpoint)
    st = NodeState(scores, gf if isinstance(gf, GraphFrame) else None, "pagerank")
    st.iterations = iters
    return st


def katz_centrality(gf, alpha: float = 1e-4, beta: float = 1.0,
                    iter_count: int = 20, tol: float = 0.0) -> NodeState:
    """Katz centrality (beyond reference — Katz 1953), built ON the user
    superstep API (state/supersteps.py run_supersteps — the ATask/Job
    equivalent): x_{k+1} = β + α·Aᵀx_k over the simple directed graph,
    x_0 = β·1. Converges for α < 1/λ_max; with ``tol=0`` runs exactly
    ``iter_count`` supersteps (the oracle-gated mode)."""
    from raphtory_ray.state.supersteps import run_supersteps
    g = _bsp(gf)
    check = None
    if tol > 0:
        check = lambda old, new: float(np.abs(new - old).sum()) <= tol  # noqa: E731
    scores, iters = run_supersteps(
        g, np.full(g.n, beta, np.float64),
        message=lambda src_state, src, dst: src_state,
        combine="sum",
        apply=lambda old, msg, got: beta + alpha * np.where(got, msg, 0.0),
        iter_count=iter_count, check=check)
    st = NodeState(scores, gf if isinstance(gf, GraphFrame) else None, "katz")
    st.iterations = iters
    return st


def eigenvector_centrality(gf, iter_count: int = 20,
                           tol: float = 0.0) -> NodeState:
    """Eigenvector centrality (beyond reference) via L2-normalized power
    iteration on Aᵀ over the simple directed graph, x_0 = 1/√n — also
    built on the user superstep API. Nodes with no in-paths decay to 0,
    the standard directed-graph behavior. ``tol=0`` runs exactly
    ``iter_count`` supersteps (the oracle-gated mode)."""
    from raphtory_ray.state.supersteps import run_supersteps
    g = _bsp(gf)
    n = g.n

    def apply(old, msg, got):
        x = np.where(got, msg, 0.0)
        norm = np.sqrt(np.square(x).sum())
        return x / norm if norm > 0 else x

    check = None
    if tol > 0:
        check = lambda old, new: float(np.abs(new - old).sum()) <= tol  # noqa: E731
    scores, iters = run_supersteps(
        g, np.full(n, 1.0 / np.sqrt(n), np.float64),
        message=lambda src_state, src, dst: src_state,
        combine="sum", apply=apply, iter_count=iter_count, check=check)
    st = NodeState(scores, gf if isinstance(gf, GraphFrame) else None,
                   "eigenvector")
    st.iterations = iters
    return st


def weakly_connected_components(gf) -> NodeState:
    return NodeState(_bsp(gf).wcc(), gf if isinstance(gf, GraphFrame) else None,
                     "component")


def label_propagation(gf, iter_count: int = 20) -> NodeState:
    labels, iters = _bsp(gf).lpa(iter_count=iter_count)
    st = NodeState(labels, gf if isinstance(gf, GraphFrame) else None, "label")
    st.iterations = iters
    return st


def triangle_count(gf) -> int:
    total, _ = _bsp(gf).triangle_counts()
    return total


def local_triangle_count(gf) -> NodeState:
    _, local = _bsp(gf).triangle_counts()
    return NodeState(local, gf if isinstance(gf, GraphFrame) else None, "triangles")


# ------------------------------------------------------------------ cores

def k_core_set(gf, k: int, iter_count: int = 10**9) -> np.ndarray:
    """vids in the k-core (k_core.rs:41-101)."""
    return np.flatnonzero(_bsp(gf).kcore_set(k, iter_count))


def k_core(gf, k: int, iter_count: int = 10**9) -> GraphFrame:
    return gf.subgraph(k_core_set(gf, k, iter_count))


# ------------------------------------------------------------------ degrees

def degree(gf) -> NodeState:
    """Distinct-neighbour BOTH degree (adj.rs:105-119)."""
    return NodeState(_bsp(gf).both_degree, gf, "degree")


def in_degree(gf) -> NodeState:
    return NodeState(_bsp(gf).in_degree, gf, "in_degree")


def out_degree(gf) -> NodeState:
    return NodeState(_bsp(gf).out_degree, gf, "out_degree")


def degree_centrality(gf) -> NodeState:
    """degree / max_degree (degree_centrality.rs:34-55)."""
    d = _bsp(gf).both_degree.astype(np.float64)
    m = d.max(initial=0.0)
    return NodeState(d / m if m > 0 else d, gf, "degree_centrality")


def max_degree(gf) -> int:
    return int(_bsp(gf).both_degree.max(initial=0))


def min_degree(gf) -> int:
    return int(_bsp(gf).both_degree.min())


def average_degree(gf) -> float:
    return float(_bsp(gf).both_degree.mean())


def max_in_degree(gf) -> int:
    return int(_bsp(gf).in_degree.max(initial=0))


def min_in_degree(gf) -> int:
    return int(_bsp(gf).in_degree.min())


def max_out_degree(gf) -> int:
    return int(_bsp(gf).out_degree.max(initial=0))


def min_out_degree(gf) -> int:
    return int(_bsp(gf).out_degree.min())


# ------------------------------------------------------------------ metrics

def directed_graph_density(gf) -> float:
    """E_simple / (N * (N-1)) (directed_graph_density.rs:46)."""
    g = _bsp(gf)
    return g.num_edges / (g.n * (g.n - 1))


def triplet_count(gf) -> int:
    """Σ C(deg_excl_self, 2) (triplet_count.rs:83-113)."""
    g = _bsp(gf)
    deg = g.both_degree - _self_loop_mask(g)
    return int((deg * (deg - 1) // 2).sum())


def _self_loop_mask(g: BspGraph) -> np.ndarray:
    import pyarrow as pa  # noqa: F401

    @ray.remote
    def self_loops(block, n):
        s = block["src"].to_numpy(zero_copy_only=False)
        d = block["dst"].to_numpy(zero_copy_only=False)
        m = s == d
        return np.bincount(s[m], minlength=n).astype(bool)

    parts = ray.get([self_loops.remote(r, g.n) for r in g.refs])
    return np.logical_or.reduce(parts).astype(np.int64) if parts else \
        np.zeros(g.n, dtype=np.int64)


def local_clustering_coefficient(gf) -> NodeState:
    g = _bsp(gf)
    _, tri = g.triangle_counts()
    deg = (g.both_degree - _self_loop_mask(g)).astype(np.float64)
    denom = deg * (deg - 1) / 2.0
    out = np.zeros(g.n)
    nz = denom > 0
    out[nz] = tri[nz] / denom[nz]
    return NodeState(out, gf, "clustering")


def local_clustering_coefficient_batch(gf, v=None) -> pa.Table:
    """Local clustering coefficient for a node subset (or all nodes when
    ``v`` is falsy) — reference
    `local_clustering_coefficient_batch` semantics
    (clustering_coefficient/local_clustering_coefficient_batch.rs; python
    stub algorithms/__init__.pyi:416): same values as the per-node
    coefficient, computed for the requested ids only. The distributed
    triangle pass already produces every node's count in one sweep, so the
    subset form is a zero-copy take on the dense result."""
    import pyarrow.compute as pc
    ns = local_clustering_coefficient(gf)
    t = ns.to_arrow()  # vid[, gid], clustering
    if v is None or (hasattr(v, "__len__") and len(v) == 0):
        return t
    if "gid" in t.column_names:
        want = pa.array([str(x) for x in v], pa.string())
        idx = pc.index_in(want, t["gid"].combine_chunks().cast(pa.string()))
    else:  # anonymous dense-vid graph: ids ARE vids
        want = pa.array([int(x) for x in v], pa.int64())
        idx = pc.index_in(want, t["vid"].combine_chunks())
    if idx.null_count:
        missing = pc.filter(want, pc.is_null(idx)).to_pylist()
        raise KeyError(f"unknown node ids: {missing[:5]}")
    return t.take(idx)


def global_clustering_coefficient(gf) -> float:
    """3 * triangles / triplets (clustering_coefficient/global.rs)."""
    g = _bsp(gf)
    total, _ = g.triangle_counts()
    trip = triplet_count(gf)
    return 3.0 * total / trip if trip else 0.0


def global_reciprocity(gf) -> float:
    """Σ|out∩in| / Σ|out|, self-loops excluded (reciprocity.rs:97-118)."""
    out_c, in_c, inter = _bsp(gf).reciprocal_counts()
    tot = out_c.sum()
    return float(inter.sum() / tot) if tot else 0.0


def all_local_reciprocity(gf) -> NodeState:
    """2*|out∩in| / (|out|+|in|) per node (reciprocity.rs:120-133)."""
    out_c, in_c, inter = _bsp(gf).reciprocal_counts()
    denom = (out_c + in_c).astype(np.float64)
    vals = np.full(len(denom), np.nan)
    nz = denom > 0
    vals[nz] = 2.0 * inter[nz] / denom[nz]
    return NodeState(vals, gf, "reciprocity")


def hits(gf, iter_count: int = 20, tol: float = 0.01) -> tuple[NodeState, NodeState]:
    """Sum-normalized HITS, reference stopping rule (hits.rs:53-158,
    max-diff ≤ 0.01 for both scores)."""
    hub, auth, _ = _bsp(gf).hits(iter_count, tol)
    return NodeState(hub, gf, "hub"), NodeState(auth, gf, "auth")


def balance(gf: GraphFrame, weight_col: str = "w",
            direction: str = "both") -> NodeState:
    """Per-node net sum of a numeric edge property over temporal EVENTS
    (balance.rs:44-123): incoming positive, outgoing negative. Runs over the
    event Dataset (not the dedup'd simple edges)."""
    n = gf.n
    mat = gf.edges.map_batches(
        lambda b: b.select(["src", "dst", weight_col]),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    parts = ray.get([_balance_partial.remote(r, n, weight_col)
                     for r in mat.to_arrow_refs()])
    inc = np.sum([p[0] for p in parts], axis=0)
    out = np.sum([p[1] for p in parts], axis=0)
    if direction == "in":
        vals = inc
    elif direction == "out":
        vals = -out
    else:
        vals = inc - out
    return NodeState(vals, gf, "balance")


# ------------------------------------------------------------------ components

def largest_connected_component(gf) -> GraphFrame:
    """WCC → biggest component → induced subgraph view (lcc.rs:24-47)."""
    labels = _bsp(gf).wcc()
    vals, cnts = np.unique(labels, return_counts=True)
    big = vals[np.argmax(cnts)]
    return gf.subgraph(np.flatnonzero(labels == big))


def _closure_sets(g: BspGraph, reverse: bool) -> list[np.ndarray]:
    """Per-node ancestor (reverse=True) / descendant sets
    (in_components.rs:99-120). Round-3: above ``_LOCAL_N`` nodes this runs
    the DISTRIBUTED frontier-pair supersteps of ``components.closure_sets``
    (row-partitioned seen bitsets, O(P) driver work per round — the round-2
    driver edge pull + O(V²/8) driver bitset are gone); below it, the local
    bitset transitive closure here is faster than P rounds of task launches.
    """
    from raphtory_ray.algorithms import components as C
    if g.n > C._LOCAL_N:
        return C.closure_sets(g, reverse)
    return _closure_sets_local(g, reverse)


def _closure_sets_local(g: BspGraph, reverse: bool) -> list[np.ndarray]:
    """Small-n fast path: (n × ⌈n/64⌉) uint64 bit matrix, row u = u's
    closure-so-far; each pass ORs every node's row with its out-neighbours'
    rows (gather + bitwise_or.reduceat); converges in O(diameter) passes."""
    tbls = ray.get(list(g.refs))
    if tbls:
        s = np.concatenate([t["src"].to_numpy(zero_copy_only=False) for t in tbls])
        d = np.concatenate([t["dst"].to_numpy(zero_copy_only=False) for t in tbls])
    else:
        s = d = np.empty(0, np.int64)
    if reverse:
        s, d = d, s
    n = g.n
    W = max(1, (n + 63) // 64)
    B = np.zeros((n, W), dtype=np.uint64)
    if len(s):
        # seed: direct neighbours
        np.bitwise_or.at(B, (s, d // 64), np.uint64(1) << (d % 64).astype(np.uint64))
        order = np.argsort(s, kind="stable")
        s_o, d_o = s[order], d[order]
        us, starts = np.unique(s_o, return_index=True)
        while True:
            red = np.bitwise_or.reduceat(B[d_o], starts, axis=0)
            new = B.copy()
            new[us] |= red
            if np.array_equal(new, B):
                break
            B = new
    out = []
    for v in range(n):
        bits = np.unpackbits(B[v].view(np.uint8), bitorder="little")[:n]
        out.append(np.flatnonzero(bits).astype(np.int64))
    return out


def strongly_connected_components_dist(gf, max_rounds: int = 64) -> NodeState:
    """Distributed ColorSCC (components.scc_distributed): trim, forward
    max-color and backward claim, each a superstep_loop over the graph's
    CSR slices; same contract as the sequential Tarjan path (component id
    = min vid in SCC). The at-scale SCC — the driver holds O(V) state,
    never the edge set."""
    from raphtory_ray.algorithms.components import scc_distributed
    comp = scc_distributed(_bsp(gf), max_rounds=max_rounds)
    return NodeState(comp, gf if isinstance(gf, GraphFrame) else None, "scc")


def in_components(gf) -> list[np.ndarray]:
    """Ancestor set per node (in_components.rs:55-224)."""
    return _closure_sets(_bsp(gf), reverse=True)


def out_components(gf) -> list[np.ndarray]:
    return _closure_sets(_bsp(gf), reverse=False)


def in_components_dataset(gf, sources=None):
    """(node, member) ancestor pairs as a streaming Dataset — the scale
    path for the all-nodes variant (components.closure_dataset)."""
    from raphtory_ray.algorithms.components import closure_dataset
    return closure_dataset(_bsp(gf), reverse=True, sources=sources)


def out_components_dataset(gf, sources=None):
    """(node, member) descendant pairs as a streaming Dataset."""
    from raphtory_ray.algorithms.components import closure_dataset
    return closure_dataset(_bsp(gf), reverse=False, sources=sources)


def in_component(gf, source: int) -> np.ndarray:
    """Ancestors of ``source`` (nodes that can reach it)."""
    from raphtory_ray.algorithms.components import single_closure
    return single_closure(_bsp(gf), source, reverse=True)


def out_component(gf, source: int) -> np.ndarray:
    """Descendants of ``source`` (nodes reachable from it)."""
    from raphtory_ray.algorithms.components import single_closure
    return single_closure(_bsp(gf), source, reverse=False)


# ------------------------------------------------------------------ pathing

def single_source_shortest_path(gf, source: int, cutoff: int | None = None) -> dict[int, list[int]]:
    """BFS shortest paths over OUT-edges from source
    (single_source_shortest_path.rs:62-107). Above the small-n threshold
    the frontier runs DISTRIBUTED via delta-stepping with unit weights
    (buckets ≡ BFS levels, sparse frontier broadcast, per-partition CSR —
    no O(E) driver edge pull); the result paths are driver-resident by
    contract (the reference materializes them too). Below it, a local
    vectorized BFS over the pulled edge arrays is faster than task rounds.
    """
    g = _bsp(gf)
    from raphtory_ray.algorithms.components import _LOCAL_N
    if g.n > _LOCAL_N:
        from raphtory_ray.algorithms.sssp import sssp_delta_stepping
        st = sssp_delta_stepping(gf, source)          # unit weights = BFS
        dist_f, parent = st.values, st.pred
        paths: dict[int, list[int]] = {}
        for v in np.flatnonzero(np.isfinite(dist_f)).tolist():
            if cutoff is not None and dist_f[v] > cutoff:
                continue
            chain = [v]
            u = v
            while u != source:
                u = int(parent[u])
                chain.append(u)
            paths[v] = chain[::-1]
        return paths
    tbls = ray.get(list(g.refs))
    s = np.concatenate([t["src"].to_numpy(zero_copy_only=False) for t in tbls]) \
        if tbls else np.empty(0, np.int64)
    d = np.concatenate([t["dst"].to_numpy(zero_copy_only=False) for t in tbls]) \
        if tbls else np.empty(0, np.int64)
    # vectorized frontier BFS with a parent array (round-1 fix: was a
    # per-row Python loop with list-per-node paths): each level is two
    # numpy passes over the edge arrays; paths reconstructed at the end
    # (O(total output size), the result is paths by contract)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist = np.full(g.n, -1, dtype=np.int64)
    parent[source] = source
    dist[source] = 0
    frontier = np.zeros(g.n, dtype=bool)
    frontier[source] = True
    depth = 0
    while frontier.any() and (cutoff is None or depth < cutoff):
        depth += 1
        hit = frontier[s]
        cand_d, cand_s = d[hit], s[hit]
        fresh = dist[cand_d] < 0
        cand_d, cand_s = cand_d[fresh], cand_s[fresh]
        if not len(cand_d):
            break
        # one parent per newly found node: smallest-src parent for a
        # deterministic path choice (any shortest path satisfies the
        # reference contract, single_source_shortest_path.rs:62-107)
        o = np.lexsort((cand_s, cand_d))
        cand_d, cand_s = cand_d[o], cand_s[o]
        first = np.r_[True, cand_d[1:] != cand_d[:-1]]
        nd, np_ = cand_d[first], cand_s[first]
        parent[nd] = np_
        dist[nd] = depth
        frontier = np.zeros(g.n, dtype=bool)
        frontier[nd] = True
    paths: dict[int, list[int]] = {}
    for v in np.flatnonzero(dist >= 0).tolist():
        chain = [v]
        u = v
        while u != source:
            u = int(parent[u])
            chain.append(u)
        paths[v] = chain[::-1]
    return paths


def temporally_reachable_nodes(gf, start_time: int, seeds: list[int],
                               stop_nodes: list[int] | None = None,
                               max_hops: int | None = None) -> np.ndarray:
    """Time-respecting reachability from seeds: an event (src, dst, t) spreads
    taint if src is tainted with taint-time <= t and t >= start_time
    (temporal_reachability.rs:78-219 semantics, simplified: no per-event
    taint history). Returns tainted vids."""
    tbl = pa.concat_tables(
        gf.edges.select_columns(["src", "dst", "t"])
        .iter_batches(batch_format="pyarrow"))
    s = tbl["src"].to_numpy(zero_copy_only=False)
    d = tbl["dst"].to_numpy(zero_copy_only=False)
    t = tbl["t"].to_numpy(zero_copy_only=False)
    keep = t >= start_time
    s, d, t = s[keep], d[keep], t[keep]
    stop = set(stop_nodes or [])
    taint_time = np.full(gf.n, np.iinfo(np.int64).max, dtype=np.int64)
    for seed in seeds:
        taint_time[seed] = start_time
    hops = 0
    while max_hops is None or hops < max_hops:
        hops += 1
        ok = (taint_time[s] <= t) & ~np.isin(s, list(stop)) if stop else taint_time[s] <= t
        cand_d, cand_t = d[ok], t[ok]
        new = np.minimum(taint_time.copy(), taint_time)
        np.minimum.at(new, cand_d, cand_t)
        if np.array_equal(new, taint_time):
            break
        taint_time = new
    return np.flatnonzero(taint_time < np.iinfo(np.int64).max)


def earliest_arrival(gf, source: int, start_time: int) -> NodeState:
    """Earliest-arrival times over TIME-RESPECTING paths from ``source``
    (the arrival-time refinement of temporally_reachable_nodes: an event
    (u, v, t) relaxes v to t when t ≥ arrival[u] and t ≥ start_time).
    Earliest arrival has optimal substructure under min (a departure valid
    for a later arrival is valid for an earlier one), so monotone
    min-relaxation converges to the exact answer in ≤ temporal-diameter
    rounds.

    DISTRIBUTED, unlike the reference's sequential taint pass
    (temporal_reachability.rs:78-219): per round, ONE streaming
    map_batches pass over the event Dataset against the plasma-broadcast
    arrival array (ray.put once per round, zero-copy per task), each
    block emitting per-dst min-t partials (≤ distinct-dst rows); the
    driver merge is O(V). Unreached nodes hold int64 max."""
    INF = np.iinfo(np.int64).max
    arr = np.full(gf.n, INF, dtype=np.int64)
    arr[source] = int(start_time)
    edges = gf.edges.select_columns(["src", "dst", "t"]).materialize()
    while True:
        ref = ray.put(arr)

        def part(b: pa.Table, _ref=ref) -> pa.Table:
            a = ray.get(_ref)
            s = b["src"].to_numpy(zero_copy_only=False)
            d = b["dst"].to_numpy(zero_copy_only=False)
            t = b["t"].to_numpy(zero_copy_only=False).astype(np.int64)
            asrc = a[s]
            ok = (asrc != np.iinfo(np.int64).max) & (t >= asrc)
            d2, t2 = d[ok], t[ok]
            if len(d2) == 0:
                return pa.table({"dst": pa.array([], pa.int64()),
                                 "t": pa.array([], pa.int64())})
            o = np.lexsort((t2, d2))
            d2, t2 = d2[o], t2[o]
            first = np.r_[True, d2[1:] != d2[:-1]]
            return pa.table({"dst": pa.array(d2[first], pa.int64()),
                             "t": pa.array(t2[first], pa.int64())})

        parts = ray.get(edges.map_batches(
            part, batch_format="pyarrow", zero_copy_batch=True)
            .materialize().to_arrow_refs())
        new = arr.copy()
        for p in parts:
            dd = p["dst"].to_numpy(zero_copy_only=False)
            tt = p["t"].to_numpy(zero_copy_only=False)
            np.minimum.at(new, dd, tt)
        if np.array_equal(new, arr):
            break
        arr = new
    return NodeState(arr, gf if isinstance(gf, GraphFrame) else None,
                     "arrival")


def fast_rp(gf, embedding_dim: int = 16, normalization_strength: float = 0.5,
            iter_weights: list[float] = (1.0, 1.0), seed: int = 42) -> NodeState:
    """FastRP embeddings (fast_rp.rs:40-114): seeded sparse random init,
    iterative neighbour averaging. Superstep = sparse matrix product via the
    same block-partial pattern as PageRank, with vector-valued state."""
    g = _bsp(gf)
    n, dim = g.n, embedding_dim
    rng = np.random.default_rng(seed)
    s = 3.0
    probs = [1 / (2 * s), 1 - 1 / s, 1 / (2 * s)]
    emb = rng.choice([-np.sqrt(s), 0.0, np.sqrt(s)], size=(n, dim), p=probs)
    deg = np.maximum(g.both_degree, 1).astype(np.float64)
    scale = (deg ** normalization_strength)[:, None]
    state = emb * scale
    result = np.zeros((n, dim))

    @ray.remote
    def avg_partial(block, st):
        u = block["src"].to_numpy(zero_copy_only=False)
        v = block["dst"].to_numpy(zero_copy_only=False)
        out = np.zeros_like(st)
        np.add.at(out, u, st[v])
        return out

    for w in iter_weights:
        ref = ray.put(state)
        parts = ray.get([avg_partial.remote(r, ref) for r in g.und_refs])
        state = np.sum(parts, axis=0) / deg[:, None]
        result += w * state
    ns = NodeState(result.sum(axis=1), gf, "fast_rp_sum")  # scalar view
    ns.embeddings = result
    return ns
