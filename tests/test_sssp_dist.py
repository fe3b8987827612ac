"""Distributed delta-stepping SSSP vs the driver-heap Dijkstra mirror."""
import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from raphtory_ray.graph.graph_frame import GraphFrame
from raphtory_ray.algorithms.sssp import sssp_delta_stepping


def _frame(src, dst, w, n, t=None, event_id=None, blocks=3):
    cols = {"src": pa.array(src, pa.int64()),
            "dst": pa.array(dst, pa.int64()),
            "w": pa.array(np.asarray(w, float), pa.float64())}
    if t is not None:
        cols["t"] = pa.array(t, pa.int64())
    if event_id is not None:
        cols["event_id"] = pa.array(event_id, pa.int64())
    tbl = pa.table(cols)
    parts = [tbl.slice(i * tbl.num_rows // blocks,
                       (i + 1) * tbl.num_rows // blocks
                       - i * tbl.num_rows // blocks) for i in range(blocks)]
    return GraphFrame(rd.from_arrow([p for p in parts if p.num_rows]), n)


def _reference_dist(gf, source, direction="out"):
    """Self-contained heap Dijkstra over min-reduced (src,dst) weights."""
    import heapq
    tbl = gf.edges.select_columns(["src", "dst", "w"]).take_all()
    s = np.array([r["src"] for r in tbl], np.int64)
    d = np.array([r["dst"] for r in tbl], np.int64)
    w = np.array([r["w"] for r in tbl], float)
    if direction == "in":
        s, d = d, s
    order = np.lexsort((w, d, s))
    s, d, w = s[order], d[order], w[order]
    keep = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])]
    s, d, w = s[keep], d[keep], w[keep]
    dist = np.full(gf.n, np.inf)
    dist[source] = 0.0
    starts = np.searchsorted(s, np.arange(gf.n + 1))
    heap = [(0.0, source)]
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        for ei in range(starts[v], starts[v + 1]):
            alt = dv + w[ei]
            if alt < dist[d[ei]]:
                dist[d[ei]] = alt
                heapq.heappush(heap, (alt, int(d[ei])))
    return dist


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("direction", ["out", "in"])
def test_random_parity(ray_session, seed, direction):
    rng = np.random.default_rng(seed)
    n, m = 120, 700
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    w = rng.integers(1, 50, m).astype(float)
    gf = _frame(src, dst, w, n)
    want = _reference_dist(gf, 0, direction)
    got = sssp_delta_stepping(gf, 0, weight_col="w", direction=direction)
    np.testing.assert_allclose(got.values, want)


@pytest.mark.parametrize("delta", [0.5, 3.0, 1e9])
def test_delta_invariance(ray_session, delta):
    """Any positive bucket width gives identical distances (delta=1e9
    degenerates to Bellman-Ford frontier rounds, 0.5 to near-Dijkstra)."""
    rng = np.random.default_rng(42)
    n, m = 80, 400
    gf = _frame(rng.integers(0, n, m), rng.integers(0, n, m),
                rng.uniform(0.1, 9.0, m), n)
    want = _reference_dist(gf, 0)
    got = sssp_delta_stepping(gf, 0, weight_col="w", delta=delta)
    np.testing.assert_allclose(got.values, want, rtol=1e-12)


def test_unit_weights_equal_hops(ray_session):
    rng = np.random.default_rng(5)
    n, m = 100, 500
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    gf = _frame(src, dst, np.ones(m), n)
    got = sssp_delta_stepping(gf, 0)  # weight_col=None → unit
    want = _reference_dist(gf, 0)
    np.testing.assert_allclose(got.values, want)


def test_min_event_reduce_and_weight_map(ray_session):
    """Two events on one edge: 'min' picks the cheaper; weight_map applies
    exact integer cents before reduction."""
    gf = _frame([0, 0, 1], [1, 1, 2], [2.505, 1.255, 0.994], 3,
                t=[10, 20, 30], event_id=[0, 1, 2])
    got = sssp_delta_stepping(gf, 0, weight_col="w",
                              weight_map=lambda w: np.floor(w * 100 + 0.5))
    # 1.255*100 is 125.4999… in f64 → 125 (the SQL oracle floors the same)
    assert got.values[1] == 125.0          # min(251, 125)
    assert got.values[2] == 125.0 + 99.0
    assert got.pred[2] == 1


def test_latest_event_reduce(ray_session):
    """'latest' resolves the temporal property to the last event's value
    (the louvain/matching convention)."""
    gf = _frame([0, 0], [1, 1], [5.0, 9.0], 2,
                t=[10, 20], event_id=[0, 1])
    got = sssp_delta_stepping(gf, 0, weight_col="w", reduce="latest")
    assert got.values[1] == 9.0


def test_unreachable_and_pred(ray_session):
    gf = _frame([0, 1], [1, 2], [3.0, 4.0], 5)
    got = sssp_delta_stepping(gf, 0, weight_col="w")
    assert got.values[0] == 0.0 and got.values[2] == 7.0
    assert np.isinf(got.values[3]) and np.isinf(got.values[4])
    assert got.pred[1] == 0 and got.pred[2] == 1 and got.pred[0] == -1


def test_zero_weight_edges_terminate(ray_session):
    # zero-weight cycle must not loop forever
    gf = _frame([0, 1, 2, 2], [1, 0, 0, 3], [0.0, 0.0, 1.0, 2.0], 4)
    got = sssp_delta_stepping(gf, 2, weight_col="w")
    assert got.values[0] == 1.0 and got.values[1] == 1.0
    assert got.values[3] == 2.0


def test_sssp_paths_distributed_matches_local(ray_session):
    """single_source_shortest_path takes the distributed frontier route
    above components._LOCAL_N, from a GraphFrame and from a BspGraph of
    the same edges; hop distances and path validity must match the local
    BFS exactly (any shortest path satisfies the contract)."""
    from raphtory_ray.algorithms import single_source_shortest_path
    from raphtory_ray.algorithms import components as C
    from raphtory_ray.state.shards import BspGraph

    rng = np.random.default_rng(9)
    n, m = C._LOCAL_N + 100, 40_000
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    gf = _frame(src, dst, np.ones(m), n)

    # local reference BFS hop distances
    dist = np.full(n, -1, np.int64)
    dist[0] = 0
    adj = {}
    for a, b in zip(src.tolist(), dst.tolist()):
        adj.setdefault(a, set()).add(b)
    frontier = [0]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if dist[v] < 0:
                    dist[v] = depth
                    nxt.append(v)
        frontier = nxt

    want = set(np.flatnonzero(dist >= 0).tolist())
    edge_set = set(zip(src.tolist(), dst.tolist()))
    for g in (gf, BspGraph.from_arrays(src, dst, n)):
        paths = single_source_shortest_path(g, 0)
        assert set(paths) == want
        for v, chain in paths.items():
            assert len(chain) - 1 == dist[v]      # shortest hop count
            assert chain[0] == 0 and chain[-1] == v
            for a, b in zip(chain, chain[1:]):    # every hop a real edge
                assert (a, b) in edge_set


def test_bsp_graph_with_weight_col_raises(ray_session):
    from raphtory_ray.state.shards import BspGraph
    g = BspGraph.from_arrays(np.array([0, 1]), np.array([1, 2]), 3)
    with pytest.raises(TypeError, match="unit weights"):
        sssp_delta_stepping(g, 0, weight_col="w")


def test_sssp_paths_cutoff_distributed(ray_session):
    from raphtory_ray.algorithms import single_source_shortest_path
    from raphtory_ray.algorithms import components as C

    n = C._LOCAL_N + 10
    # chain 0->1->2->3->4 plus isolated tail
    src, dst = [0, 1, 2, 3], [1, 2, 3, 4]
    gf = _frame(src, dst, [1.0] * 4, n)
    paths = single_source_shortest_path(gf, 0, cutoff=2)
    assert set(paths) == {0, 1, 2}
    assert paths[2] == [0, 1, 2]
