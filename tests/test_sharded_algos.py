"""ShardedAlgos (actor-partitioned owned-delta LPA) — equivalence with the
task path in state/shards.py on random graphs, plus structural checks; and
checkpointed LPA/WCC, which run the superstep loop's round path at any
size and resume mid-run."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="module")
def rnd_graph(ray_session):
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(17)
    src = rng.integers(0, 1200, 6000)
    dst = rng.integers(0, 1200, 6000)
    # add isolated vertices + a disconnected clique to exercise components
    return BspGraph.from_arrays(src, dst, 1300, num_blocks=6)


class _Killed(Exception):
    pass


def _dies_after(path: str, k: int):
    """A CheckpointManager whose run is killed right after it saved
    superstep ``k``."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager

    class DiesAfter(CheckpointManager):
        def save(self, iteration, state, metrics=None):
            super().save(iteration, state, metrics)
            if iteration == k:
                raise _Killed

    return DiesAfter(path)


def _killed_and_resumed(run, path: str, k: int):
    """``run(checkpoint)`` killed after superstep ``k``, then rerun on a
    fresh manager over the same directory."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    with pytest.raises(_Killed):
        run(_dies_after(path, k))
    assert CheckpointManager(path).iterations()[-1] == k
    return run(CheckpointManager(path))


def test_lpa_matches_task_engine(rnd_graph):
    from raphtory_ray.state.sharded_algos import ShardedAlgos
    want, it_w = rnd_graph.lpa(iter_count=7, until_converged=False)
    with ShardedAlgos(rnd_graph, num_workers=3) as eng:
        got, it_g = eng.lpa_owned(iter_count=7, until_converged=False)
    assert it_w == it_g
    assert np.array_equal(got, want)


def test_wcc_disconnected_and_isolated(ray_session):
    """Known components: two chains + an isolated vertex."""
    from raphtory_ray.state.shards import BspGraph
    src = np.array([0, 1, 2, 5, 6])
    dst = np.array([1, 2, 3, 6, 7])
    g = BspGraph.from_arrays(src, dst, 9, num_blocks=3)
    assert g.wcc().tolist() == [0, 0, 0, 0, 4, 5, 5, 5, 8]


def test_personalized_pagerank_brute_force(rnd_graph):
    """PPR (personalization restart) vs a dense numpy reference on the
    random fixture: r_{k+1} = (1-d)p + d AᵀD⁻¹ r_k + d·sink·p, r_0 = p."""
    g = rnd_graph
    n = g.n
    pv = np.zeros(n)
    pv[::7] = 1.0                      # arbitrary seed set
    got, iters, _ = g.pagerank(iter_count=4, tol=0.0, personalization=pv)
    assert iters == 4
    # dense reference
    src = np.concatenate([t["src"].to_numpy() for t in
                          __import__("ray").get(list(g.refs))])
    dst = np.concatenate([t["dst"].to_numpy() for t in
                          __import__("ray").get(list(g.refs))])
    pair = np.unique(src.astype(np.int64) * n + dst.astype(np.int64))
    s, d2 = pair // n, pair % n
    od = np.bincount(s, minlength=n).astype(float)
    p = pv / pv.sum()
    r = p.copy()
    damp = 0.85
    for _ in range(4):
        contrib = np.zeros(n)
        np.add.at(contrib, d2, r[s] / od[s])
        sink = r[od == 0].sum()
        r = (1 - damp) * p + damp * contrib + damp * sink * p
    assert np.allclose(got, r, atol=1e-12)
    # mass conservation: PPR scores sum to 1
    assert got.sum() == pytest.approx(1.0, abs=1e-9)


def test_personalized_pagerank_uniform_equals_default(rnd_graph):
    """A uniform personalization vector reproduces the reference-uniform
    recurrence (up to float-op-order ulps)."""
    g = rnd_graph
    want, _, _ = g.pagerank(iter_count=5, tol=0.0)
    got, _, _ = g.pagerank(iter_count=5, tol=0.0,
                           personalization=np.ones(g.n))
    assert np.allclose(got, want, atol=1e-14)


def test_personalized_pagerank_validates_input(rnd_graph):
    with pytest.raises(ValueError):
        rnd_graph.pagerank(personalization=np.ones(3))
    with pytest.raises(ValueError):
        rnd_graph.pagerank(personalization=np.zeros(rnd_graph.n))


# ------------- round-5: owned-slice sparse-delta LPA / WCC ---------------

def test_lpa_owned_delta_matches_task_engine(rnd_graph):
    from raphtory_ray.state.sharded_algos import ShardedAlgos
    want_c, _ = rnd_graph.lpa()
    want_p, _ = rnd_graph.lpa(iter_count=3, until_converged=False)
    with ShardedAlgos(rnd_graph, num_workers=3) as eng:
        got_c, _ = eng.lpa_owned()
        got_p, it_p = eng.lpa_owned(iter_count=3, until_converged=False)
    assert np.array_equal(got_c, want_c)
    assert np.array_equal(got_p, want_p)
    assert it_p == 3


def test_owned_delta_engine_reusable_and_isolated_vertices(ray_session):
    """Repeat calls on a cached engine re-init cleanly; isolated vertices
    keep their own label."""
    from raphtory_ray.state.shards import BspGraph
    from raphtory_ray.state.sharded_algos import ShardedAlgos
    src = np.array([0, 1, 2, 5, 6, 7])
    dst = np.array([1, 2, 0, 6, 7, 5])
    g = BspGraph.from_arrays(src, dst, 10, num_blocks=3)
    with ShardedAlgos(g, num_workers=2) as eng:
        l1, _ = eng.lpa_owned()
        l2, _ = eng.lpa_owned()           # second run on same pool
    assert np.array_equal(l1, l2)
    assert np.array_equal(l1[[3, 4, 8, 9]], [3, 4, 8, 9])


def test_bspgraph_auto_routes_large_graph_to_sharded(ray_session):
    """From _SHARDED_EDGE_THRESHOLD edges lpa runs through the owned-delta
    actor engine with the numpy kernel's labels and iterations; wcc stays
    on the superstep loop."""
    from raphtory_ray.core import kernels as K
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(3)
    n = 9000
    src = rng.integers(0, n, 60_000)
    dst = rng.integers(0, n, 60_000)
    g = BspGraph.from_arrays(src, dst, n, num_blocks=6)
    if g.num_edges < BspGraph._SHARDED_EDGE_THRESHOLD:
        pytest.skip("dedup dropped below threshold")
    np.testing.assert_array_equal(g.wcc(), K.wcc(src, dst, n))
    assert g._sharded is None
    want_l, want_it = K.lpa(src, dst, n, iter_count=4, until_converged=False)
    got_l, got_it = g.lpa(iter_count=4, until_converged=False)  # sharded
    assert g._sharded is not None
    assert got_it == want_it == 4
    np.testing.assert_array_equal(got_l, want_l)
    g._sharded.shutdown()


def test_owned_delta_checkpoint_resume(ray_session, tmp_path):
    """Checkpointed lpa/wcc write a manifest per superstep under their
    state keys, with the number of changed labels, and a run killed after
    superstep k resumes to the labels of an uninterrupted run."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(9)
    src = rng.integers(0, 800, 4000)
    dst = rng.integers(0, 800, 4000)
    g = BspGraph.from_arrays(src, dst, 800, num_blocks=4)
    want, _ = g.lpa(iter_count=8, until_converged=False)
    ck = CheckpointManager(str(tmp_path / "lpa_full"))
    got, it = g.lpa(iter_count=8, until_converged=False, checkpoint=ck)
    assert it == 8 and np.array_equal(got, want)
    meta = ck.load_latest()
    assert meta["iteration"] == 8 and list(meta["state"]) == ["community"]
    assert meta["metrics"]["changed"] >= 0
    got2, it2 = _killed_and_resumed(
        lambda c: g.lpa(iter_count=8, until_converged=False, checkpoint=c),
        str(tmp_path / "lpa"), 6)
    assert it2 == 8 and np.array_equal(got2, want)
    w_want = g.wcc()
    w1 = _killed_and_resumed(lambda c: g.wcc(checkpoint=c),
                             str(tmp_path / "wcc"), 1)
    assert np.array_equal(w1, w_want)
    meta = CheckpointManager(str(tmp_path / "wcc")).load_latest()
    assert list(meta["state"]) == ["component"]
    assert meta["metrics"]["changed"] == 0     # the last superstep converged


def test_lpa_owned_converged_iteration_under_checkpoint(rnd_graph, tmp_path):
    """A checkpoint does not shift the reported convergence iteration: a
    checkpointed lpa, uninterrupted or killed after superstep 1, 2 or 3
    and resumed, gives the iteration and labels of the pool and of the
    run without a checkpoint."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    from raphtory_ray.state.sharded_algos import ShardedAlgos
    want_t, it_t = rnd_graph.lpa()
    with ShardedAlgos(rnd_graph, num_workers=3) as eng:
        want, it_w = eng.lpa_owned()
    assert it_w == it_t < 20              # converged before the cap
    assert np.array_equal(want, want_t)
    got, it_g = rnd_graph.lpa(
        checkpoint=CheckpointManager(str(tmp_path / "full")))
    assert it_g == it_w and np.array_equal(got, want)
    for k in (1, 2, 3):
        got, it_g = _killed_and_resumed(
            lambda c: rnd_graph.lpa(checkpoint=c), str(tmp_path / f"k{k}"),
            k)
        assert it_g == it_w, k
        assert np.array_equal(got, want), k


def test_bspgraph_checkpoint_runs_superstep_loop(ray_session, tmp_path):
    """BspGraph.lpa/wcc with checkpoint= run the superstep loop on a small
    graph too, start no actor pool, and resume to identical labels."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(11)
    src = rng.integers(0, 300, 1500)
    dst = rng.integers(0, 300, 1500)
    g = BspGraph.from_arrays(src, dst, 300, num_blocks=3)
    want, _ = g.lpa(iter_count=6, until_converged=False)
    ck = CheckpointManager(str(tmp_path / "l"))
    got, _ = g.lpa(iter_count=6, until_converged=False, checkpoint=ck)
    assert np.array_equal(got, want)
    got2, _ = g.lpa(iter_count=6, until_converged=False,
                    checkpoint=CheckpointManager(str(tmp_path / "l")))
    assert np.array_equal(got2, want)
    w_want = g.wcc()
    w_got = g.wcc(checkpoint=CheckpointManager(str(tmp_path / "w")))
    assert np.array_equal(w_got, w_want)
    assert g._sharded is None


def test_lpa_with_labels_honours_checkpoint(rnd_graph, tmp_path):
    """lpa(labels=L, checkpoint=ck) writes a manifest per superstep and
    resumes to the labels of the run without a checkpoint."""
    from raphtory_ray.core import kernels as K
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    g = rnd_graph
    start = np.random.default_rng(5).permutation(g.n).astype(np.int64)
    want, it_w = g.lpa(iter_count=5, labels=start, until_converged=False)
    ck = CheckpointManager(str(tmp_path / "full"))
    got, it_g = g.lpa(iter_count=5, labels=start, until_converged=False,
                      checkpoint=ck)
    assert ck.iterations() == [4, 5]
    assert it_g == it_w == 5 and np.array_equal(got, want)
    got2, _ = _killed_and_resumed(
        lambda c: g.lpa(iter_count=5, labels=start, until_converged=False,
                        checkpoint=c), str(tmp_path / "k"), 2)
    assert np.array_equal(got2, want)
    s, d = _edges(g)
    np.testing.assert_array_equal(
        want, K.lpa(s, d, g.n, iter_count=5, labels=start,
                    until_converged=False)[0])


def _edges(g):
    import ray
    blocks = ray.get(list(g.refs))
    return (np.concatenate([b["src"].to_numpy() for b in blocks]),
            np.concatenate([b["dst"].to_numpy() for b in blocks]))


def _clustered(seed: int, clusters: int, size: int, p: float):
    """Dense random clusters of ``size`` vertices (each ordered pair an
    edge with probability ``p``), chained by one bridge edge into
    components of five clusters."""
    rng = np.random.default_rng(seed)
    i, j = np.meshgrid(np.arange(size), np.arange(size))
    s, d = [], []
    for c in range(clusters):
        keep = (i != j) & (rng.random((size, size)) < p)
        s.append(c * size + i[keep])
        d.append(c * size + j[keep])
    b = np.array([c for c in range(clusters - 1) if c % 5 != 4])
    s.append(b * size + rng.integers(0, size, len(b)))
    d.append((b + 1) * size + rng.integers(0, size, len(b)))
    return np.concatenate(s), np.concatenate(d), clusters * size


def test_checkpointed_lpa_wcc_on_large_graph_skip_the_pool(ray_session,
                                                          tmp_path):
    """From _SHARDED_EDGE_THRESHOLD edges, checkpointed lpa and wcc still
    run the superstep loop (no actor pool starts); killed after superstep
    k and resumed, they give the labels of an uninterrupted run and of
    the numpy kernels, and LPA converges at the iteration of the run
    without a checkpoint."""
    from raphtory_ray.core import kernels as K
    from raphtory_ray.state.shards import BspGraph
    src, dst, n = _clustered(5, 223, 30, 0.3)
    g = BspGraph.from_arrays(src, dst, n, num_blocks=4)
    assert g.num_edges >= BspGraph._SHARDED_EDGE_THRESHOLD
    want_l, want_it = K.lpa(src, dst, n)
    want_w = K.wcc(src, dst, n)
    assert 3 < want_it < 20
    got_l, got_it = _killed_and_resumed(lambda c: g.lpa(checkpoint=c),
                                        str(tmp_path / "lpa"), 3)
    got_w = _killed_and_resumed(lambda c: g.wcc(checkpoint=c),
                                str(tmp_path / "wcc"), 1)
    assert g._sharded is None
    assert got_it == want_it
    np.testing.assert_array_equal(got_l, want_l)
    np.testing.assert_array_equal(got_w, want_w)
    np.testing.assert_array_equal(g.wcc(), want_w)
    plain_l, plain_it = g.lpa()                # the actor pool
    assert g._sharded is not None
    g._sharded.shutdown()
    assert plain_it == got_it
    np.testing.assert_array_equal(plain_l, got_l)
