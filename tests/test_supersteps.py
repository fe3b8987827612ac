"""Generic superstep API (ATask/Job/TaskRunner equivalent) — user-written
supersteps reproduce built-in algorithms."""

from __future__ import annotations

import numpy as np


def _bsp(ray_session, edges, n):
    from raphtory_ray.state.shards import BspGraph
    s = np.array([e[0] for e in edges], np.int64)
    d = np.array([e[1] for e in edges], np.int64)
    return BspGraph.from_arrays(s, d, n)


def test_user_indegree(ray_session):
    from raphtory_ray.state.supersteps import run_supersteps
    g = _bsp(ray_session, [(0, 1), (0, 2), (1, 2), (2, 0), (3, 2)], 4)
    state, it = run_supersteps(
        g, np.zeros(4),
        message=lambda src_state, s, d: np.ones(len(s)),
        combine="sum", iter_count=1)
    assert it == 1
    np.testing.assert_array_equal(state, g.in_degree.astype(float))


def test_user_bfs_hops(ray_session):
    from raphtory_ray.state.supersteps import run_supersteps
    g = _bsp(ray_session, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)], 5)
    inf = np.inf
    st0 = np.full(5, inf)
    st0[0] = 0.0
    state, it = run_supersteps(
        g, st0,
        message=lambda src_state, s, d: src_state + 1,
        combine="min",
        apply=lambda old, msg, got: np.minimum(old, np.where(got, msg, inf)),
        iter_count=30,
        check=lambda old, new: np.array_equal(old, new))
    np.testing.assert_array_equal(state, [0, 1, 2, 3, 2])
    assert it < 30


def test_user_wcc_min_label(ray_session):
    """Min-label propagation over the symmetrized graph equals built-in
    WCC labels."""
    from raphtory_ray.state.shards import BspGraph
    from raphtory_ray.state.supersteps import run_supersteps
    edges = [(0, 1), (1, 2), (3, 4)]
    und = edges + [(b, a) for a, b in edges]
    g = _bsp(ray_session, und, 5)
    state, _ = run_supersteps(
        g, np.arange(5, dtype=float),
        message=lambda src_state, s, d: src_state,
        combine="min",
        apply=lambda old, msg, got: np.minimum(old,
                                               np.where(got, msg, np.inf)),
        iter_count=50,
        check=lambda old, new: np.array_equal(old, new))
    np.testing.assert_array_equal(state, g.wcc().astype(float))


def test_katz_centrality_brute_force(ray_session):
    """Katz via run_supersteps vs a dense numpy recurrence; convergent
    mode stops early."""
    import numpy as np
    from raphtory_ray.algorithms import katz_centrality
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(5)
    src = rng.integers(0, 300, 1500)
    dst = rng.integers(0, 300, 1500)
    g = BspGraph.from_arrays(src, dst, 300, num_blocks=4)
    st = katz_centrality(g, alpha=1e-3, beta=2.0, iter_count=6, tol=0.0)
    assert st.iterations == 6
    pair = np.unique(src.astype(np.int64) * 300 + dst.astype(np.int64))
    s, d = pair // 300, pair % 300
    x = np.full(300, 2.0)
    for _ in range(6):
        contrib = np.zeros(300)
        np.add.at(contrib, d, x[s])
        x = 2.0 + 1e-3 * contrib
    assert np.allclose(st.values, x, atol=1e-12)
    st2 = katz_centrality(g, alpha=1e-3, beta=2.0, iter_count=500, tol=1e-12)
    assert st2.iterations < 500          # fixpoint reached early


def test_eigenvector_centrality_brute_force(ray_session):
    import numpy as np
    from raphtory_ray.algorithms import eigenvector_centrality
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(11)
    src = rng.integers(0, 250, 1200)
    dst = rng.integers(0, 250, 1200)
    g = BspGraph.from_arrays(src, dst, 250, num_blocks=4)
    st = eigenvector_centrality(g, iter_count=6, tol=0.0)
    pair = np.unique(src.astype(np.int64) * 250 + dst.astype(np.int64))
    s, d = pair // 250, pair % 250
    x = np.full(250, 1.0 / np.sqrt(250))
    for _ in range(6):
        nxt = np.zeros(250)
        np.add.at(nxt, d, x[s])
        nrm = np.sqrt(np.square(nxt).sum())
        x = nxt / nrm if nrm > 0 else nxt
    assert np.allclose(st.values, x, atol=1e-12)
    assert abs(float(np.square(st.values).sum()) - 1.0) < 1e-9  # unit norm


# ------------------------------------------------- the one superstep loop

def _one_block_graph(seed=3, n=400, m=2500):
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(seed)
    g = BspGraph.from_arrays(rng.integers(0, n, m), rng.integers(0, n, m),
                             n, num_blocks=1)
    assert len(g.refs) == len(g.csr_refs) == len(g.und_step_refs) == 1
    return g, rng


def _runs(g, rng):
    """The six superstep-loop instances, each as g → result tuple."""
    from raphtory_ray.algorithms import (eigenvector_centrality,
                                         katz_centrality)
    pv = rng.random(g.n)

    def centrality(st):
        return st.values, st.iterations

    return {
        "pagerank_tol": lambda: g.pagerank()[:2],
        "pagerank_fixed": lambda: g.pagerank(iter_count=8, tol=0.0)[:2],
        "pagerank_personalized_tol":
            lambda: g.pagerank(personalization=pv)[:2],
        "pagerank_personalized_fixed": lambda: g.pagerank(
            iter_count=8, tol=0.0, personalization=pv)[:2],
        "wcc": lambda: (g.wcc(),),
        "lpa_converged": lambda: g.lpa(),
        "lpa_fixed": lambda: g.lpa(iter_count=3, until_converged=False),
        "kcore": lambda: tuple(g.kcore_set(k) for k in (2, 3, 5)),
        "hits": lambda: g.hits(),
        "katz": lambda: centrality(katz_centrality(
            g, alpha=1e-3, beta=2.0, iter_count=500, tol=1e-12)),
        "eigenvector": lambda: centrality(eigenvector_centrality(
            g, iter_count=200, tol=1e-9)),
    }


def _assert_same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype
            assert x.flags.writeable and y.flags.writeable
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y


def test_loop_fused_and_rounds_paths_agree(ray_session, monkeypatch):
    """On one step block every loop instance takes the fused path by
    default, and the fused and round paths give array_equal results and
    the same iteration count."""
    from raphtory_ray.state import supersteps
    g, rng = _one_block_graph()
    fused, rounds = supersteps._fused, supersteps._rounds
    taken = []

    def spy(*a):
        taken.append("fused")
        return fused(*a)

    for name, run in _runs(g, rng).items():
        taken.clear()
        with monkeypatch.context() as m:
            m.setattr(supersteps, "_fused", spy)
            default = run()
        assert taken, name
        with monkeypatch.context() as m:
            m.setattr(supersteps, "_fused", rounds)
            by_rounds = run()
        _assert_same(default, by_rounds)


def test_checkpointed_pagerank_runs_rounds_and_resumes(ray_session, tmp_path,
                                                       monkeypatch):
    """A checkpoint keeps PageRank on the round path even on one CSR slice;
    3 checkpointed supersteps resumed to 6 equal an uninterrupted 6-step
    run bit for bit."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    from raphtory_ray.state import supersteps
    g, _ = _one_block_graph(seed=9)
    want, it, _ = g.pagerank(iter_count=6, tol=0.0)
    assert it == 6

    def no_fused(*a):
        raise AssertionError("checkpointed run took the fused path")

    monkeypatch.setattr(supersteps, "_fused", no_fused)
    ck = CheckpointManager(str(tmp_path / "pr"), num_partitions=3)
    assert g.pagerank(iter_count=3, tol=0.0, checkpoint=ck)[1] == 3
    got, it, times = g.pagerank(iter_count=6, tol=0.0, checkpoint=ck)
    assert it == 6 and len(times) == 3
    np.testing.assert_array_equal(got, want)


def test_resumed_pagerank_reports_checkpointed_iterations(ray_session,
                                                          tmp_path):
    """A PageRank resumed from a checkpoint at or past ``iter_count`` runs
    no superstep and reports the checkpoint's iteration, not 0."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    g, _ = _one_block_graph(seed=4)
    ck = CheckpointManager(str(tmp_path / "pr"), num_partitions=2)
    first, it, _ = g.pagerank(iter_count=5, tol=0.0, checkpoint=ck)
    assert it == 5
    again, it, times = g.pagerank(iter_count=5, tol=0.0, checkpoint=ck)
    assert it == 5 and times == []
    np.testing.assert_array_equal(again, first)
    assert g.pagerank(iter_count=4, tol=0.0, checkpoint=ck)[1] == 5
