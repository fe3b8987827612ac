"""Louvain + modularity conformance.

Modeled on the reference's tests (raphtory/tests/algo_tests/
community_detection.rs:75-133: all nodes assigned, weighted + unweighted,
proptest random edge lists) plus invariants the sequential reference
guarantees by construction: the returned partition's modularity is a local
optimum >= the singleton partition's, and clearly-planted communities are
recovered exactly."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _frame(ray_session, s, d, w=None, n=None):
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    s = np.asarray(s, np.int64)
    d = np.asarray(d, np.int64)
    n = n or int(max(s.max(initial=0), d.max(initial=0))) + 1
    cols = {"src": pa.array(s), "dst": pa.array(d),
            "t": pa.array(np.ones(len(s), np.int64)),
            "event_id": pa.array(np.arange(len(s), dtype=np.int64))}
    if w is not None:
        cols["w"] = pa.array(np.asarray(w, np.float64))
    return GraphFrame(rd.from_arrow(pa.table(cols)), n)


def test_louvain_reference_edge_list(ray_session):
    """community_detection.rs:75-87 edge list (both directions added, as the
    reference test does) — every node gets a community; modularity beats
    singletons."""
    from raphtory_ray.algorithms.louvain import louvain, modularity
    raw = [(100, 200, 2.0), (100, 300, 3.0), (200, 300, 8.5),
           (300, 400, 1.0), (400, 500, 1.5), (600, 800, 0.5),
           (700, 900, 3.5), (100, 600, 1.5)]
    # compact ids 0..8 for {100..900}
    ids = sorted({x for e in raw for x in e[:2]})
    idx = {g: i for i, g in enumerate(ids)}
    s, d, w = [], [], []
    for a, b, ww in raw:
        s += [idx[a], idx[b]]
        d += [idx[b], idx[a]]
        w += [ww, ww]
    gf = _frame(ray_session, s, d, w)
    com = louvain(gf, 1.0, weight_col="w")
    assert len(com) == gf.n and np.all(com >= 0)
    q = modularity(gf, com, 1.0, weight_col="w")
    q0 = modularity(gf, np.arange(gf.n, dtype=np.int64), 1.0, weight_col="w")
    assert q > q0
    # 700-900 is an isolated pair: must share a community of exactly 2
    assert com[idx[700]] == com[idx[900]]
    assert int((com == com[idx[700]]).sum()) == 2


def test_louvain_planted_cliques(ray_session):
    """Two 6-cliques joined by one bridge edge — Louvain must recover the
    two cliques exactly (any resolution ~1)."""
    from raphtory_ray.algorithms.louvain import louvain, modularity
    s, d = [], []
    for base in (0, 6):
        for i in range(6):
            for j in range(i + 1, 6):
                s += [base + i, base + j]
                d += [base + j, base + i]
    s += [0, 6]
    d += [6, 0]
    gf = _frame(ray_session, s, d)
    com = louvain(gf, 1.0)
    assert len(set(com[:6])) == 1
    assert len(set(com[6:])) == 1
    assert com[0] != com[6]
    q = modularity(gf, com)
    # exact modularity of the 2-clique partition:
    # m2 = 2*2*(15+15+1)=124; intra=2*2*30=120; K_c=62 each
    assert q == pytest.approx(120 / 124 - 2 * (62 ** 2) / 124 ** 2, abs=1e-12)


def test_louvain_unweighted_random(ray_session):
    """proptest analogue (community_detection.rs:128-133): random edge
    lists, all nodes assigned, modularity >= singletons, labels compact."""
    from raphtory_ray.algorithms.louvain import louvain, modularity
    rng = np.random.default_rng(11)
    s = rng.integers(0, 40, 200)
    d = rng.integers(0, 40, 200)
    gf = _frame(ray_session, np.r_[s, d], np.r_[d, s], n=40)
    com = louvain(gf, 1.0)
    assert com.shape == (40,)
    assert set(np.unique(com)) == set(range(len(np.unique(com))))
    q = modularity(gf, com)
    q0 = modularity(gf, np.arange(40, dtype=np.int64))
    assert q >= q0 - 1e-12


def test_louvain_latest_weight_semantics(ray_session):
    """Edge weight is the LATEST event's value (properties resolve to last
    value): an edge whose weight is updated to ~0 falls below tol and stops
    binding its endpoints."""
    from raphtory_ray.algorithms.louvain import latest_weight_edges
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    tbl = pa.table({
        "src": pa.array([0, 0, 1], pa.int64()),
        "dst": pa.array([1, 1, 0], pa.int64()),
        "t": pa.array([1, 5, 2], pa.int64()),
        "event_id": pa.array([0, 1, 2], pa.int64()),
        "w": pa.array([9.0, 2.5, 4.0], pa.float64())})
    gf = GraphFrame(rd.from_arrow(tbl), 2)
    s, d, w = latest_weight_edges(gf, "w")
    got = {(int(a), int(b)): float(x) for a, b, x in zip(s, d, w)}
    assert got == {(0, 1): 2.5, (1, 0): 4.0}


def test_modularity_self_loop_quirk(ray_session):
    """Reference quirk: self-loop weights are excluded from k/m2 but counted
    in intra-community weight (modularity.rs:195-239,390-404)."""
    from raphtory_ray.algorithms.louvain import modularity
    # one undirected edge (0,1) + self-loop at 0
    gf = _frame(ray_session, [0, 1, 0], [1, 0, 0], [1.0, 1.0, 5.0])
    com = np.array([0, 0], dtype=np.int64)
    # k = [2, 2] (halves of both directed edges), m2 = 4
    # intra = 4 (half-edges) + 5 (self) = 9; K_c = 4
    assert modularity(gf, com, weight_col="w") == \
        pytest.approx(9 / 4 - 16 / 16, abs=1e-12)
