"""Louvain's two placements: task-per-partition levels (above
_LOCAL_HALF_EDGES) and driver-held levels run in-process."""
import numpy as np
import pyarrow as pa
import pytest


def _frame(s, d, w=None, n=None):
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


def _planted(nc=8, size=12, seed=1):
    """nc cliques of `size` nodes bridged in a ring — unambiguous."""
    rng = np.random.default_rng(seed)
    s, d = [], []
    for c in range(nc):
        base = c * size
        for i in range(size):
            for j in range(i + 1, size):
                s += [base + i, base + j]
                d += [base + j, base + i]
        nb = ((c + 1) % nc) * size
        s += [base, nb]
        d += [nb, base]
    return np.array(s), np.array(d), nc, size


def test_distributed_level_recovers_cliques(ray_session, monkeypatch):
    from raphtory_ray.algorithms import louvain as L
    monkeypatch.setattr(L, "_LOCAL_HALF_EDGES", 0)   # force distributed
    s, d, nc, size = _planted()
    gf = _frame(s, d)
    com = L.louvain(gf, 1.0)
    for c in range(nc):
        blk = com[c * size:(c + 1) * size]
        assert len(set(blk.tolist())) == 1, f"clique {c} split: {blk}"
    assert len(set(com.tolist())) == nc


def _random(seed, n, m, weighted=False):
    """m random directed edges over n nodes, self-loops dropped."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, n, m)
    d = rng.integers(0, n, m)
    w = rng.uniform(0.1, 5.0, m) if weighted else None
    keep = s != d
    return _frame(s[keep], d[keep], None if w is None else w[keep], n=n)


def test_distributed_matches_local_quality(ray_session, monkeypatch):
    """Both placements are local optima of the same objective: their
    modularity must beat singletons and land within a small gap of each
    other."""
    from raphtory_ray.algorithms import louvain as L
    gf = _random(11, 80, 600)
    com_local = L.louvain(gf, 1.0)
    q_local = L.modularity(gf, com_local)
    monkeypatch.setattr(L, "_LOCAL_HALF_EDGES", 0)
    com_dist = L.louvain(gf, 1.0)
    q_dist = L.modularity(gf, com_dist)
    q0 = L.modularity(gf, np.arange(80, dtype=np.int64))
    assert q_dist > q0
    assert len(com_dist) == 80 and np.all(com_dist >= 0)
    assert q_dist >= q_local - 0.05


@pytest.mark.parametrize("graph", [
    "rand80", "cliques", "rand300_a", "rand300_b", "rand300_w_a",
    "rand300_w_b"])
def test_placement_gives_equal_labels(ray_session, monkeypatch, graph):
    """One move rule and one aggregate at every size: the in-process levels
    (default _LOCAL_HALF_EDGES) and task-per-partition levels (0) give the
    same labels."""
    from raphtory_ray.algorithms import louvain as L
    gf, weight_col = {
        "rand80": lambda: (_random(11, 80, 600), None),
        "cliques": lambda: (_frame(*_planted()[:2]), None),
        "rand300_a": lambda: (_random(21, 300, 2000), None),
        "rand300_b": lambda: (_random(22, 300, 2000), None),
        "rand300_w_a": lambda: (_random(23, 300, 2000, True), "w"),
        "rand300_w_b": lambda: (_random(24, 300, 2000, True), "w"),
    }[graph]()
    local = L.louvain(gf, 1.0, weight_col=weight_col)
    monkeypatch.setattr(L, "_LOCAL_HALF_EDGES", 0)
    dist = L.louvain(gf, 1.0, weight_col=weight_col)
    assert np.array_equal(local, dist)


def test_distributed_modularity_matches_driver_formula(ray_session):
    """modularity() (distributed intra sums) vs a hand-rolled driver
    computation on a small weighted graph."""
    from raphtory_ray.algorithms.louvain import modularity
    s = [0, 1, 1, 2, 3, 0]
    d = [1, 0, 2, 3, 3, 0]          # includes a self-loop (0,0)
    w = [2.0, 1.0, 3.0, 4.0, 0.5, 7.0]
    gf = _frame(s, d, w)
    com = np.array([0, 0, 1, 1], dtype=np.int64)
    # driver formula: k excludes self-loops, intra includes them
    sw = {(a, b): ww for a, b, ww in zip(s, d, w)}   # latest == only event
    k = np.zeros(4)
    intra = 0.0
    for (a, b), ww in sw.items():
        if a == b:
            intra += ww               # self-loops: intra yes, k no
            continue
        k[a] += ww
        k[b] += ww
        if com[a] == com[b]:
            intra += 2 * ww
    m2 = k.sum()
    k_com = np.zeros(2)
    np.add.at(k_com, com, k)
    want = intra / m2 - (k_com ** 2).sum() / m2 ** 2
    assert modularity(gf, com, weight_col="w") == pytest.approx(want, rel=1e-12)
