"""ShardedAlgos (actor-partitioned owned-delta WCC/LPA) — equivalence with
the task path in state/shards.py on random graphs, plus structural checks."""

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


def test_wcc_matches_task_engine(rnd_graph):
    from raphtory_ray.state.sharded_algos import ShardedAlgos
    want = rnd_graph.wcc()
    with ShardedAlgos(rnd_graph, num_workers=3) as eng:
        got = eng.wcc_owned()
    assert np.array_equal(got, want)


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
    from raphtory_ray.state.sharded_algos import ShardedAlgos
    src = np.array([0, 1, 2, 5, 6])
    dst = np.array([1, 2, 3, 6, 7])
    g = BspGraph.from_arrays(src, dst, 9, num_blocks=3)
    with ShardedAlgos(g, num_workers=2) as eng:
        labels = eng.wcc_owned()
    assert labels.tolist() == [0, 0, 0, 0, 4, 5, 5, 5, 8]


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
    want_c, _ = rnd_graph.lpa(engine="task")
    want_p, _ = rnd_graph.lpa(iter_count=3, until_converged=False,
                              engine="task")
    with ShardedAlgos(rnd_graph, num_workers=3) as eng:
        got_c, _ = eng.lpa_owned()
        got_p, it_p = eng.lpa_owned(iter_count=3, until_converged=False)
    assert np.array_equal(got_c, want_c)
    assert np.array_equal(got_p, want_p)
    assert it_p == 3


def test_wcc_owned_delta_matches_task_engine(rnd_graph):
    from raphtory_ray.state.sharded_algos import ShardedAlgos
    want = rnd_graph.wcc(engine="task")
    with ShardedAlgos(rnd_graph, num_workers=3) as eng:
        got = eng.wcc_owned()
    assert np.array_equal(got, want)


def test_owned_delta_engine_reusable_and_isolated_vertices(ray_session):
    """Repeat calls on a cached engine re-init cleanly; isolated vertices
    and a two-component graph keep exact labels."""
    from raphtory_ray.state.shards import BspGraph
    from raphtory_ray.state.sharded_algos import ShardedAlgos
    src = np.array([0, 1, 2, 5, 6, 7])
    dst = np.array([1, 2, 0, 6, 7, 5])
    g = BspGraph.from_arrays(src, dst, 10, num_blocks=3)
    with ShardedAlgos(g, num_workers=2) as eng:
        w1 = eng.wcc_owned()
        w2 = eng.wcc_owned()              # second run on same pool
        l1, _ = eng.lpa_owned()
    assert np.array_equal(w1, w2)
    want = np.array([0, 0, 0, 3, 4, 5, 5, 5, 8, 9])
    assert np.array_equal(w1, want)
    assert np.array_equal(l1[3:5], [3, 4])  # isolated keep own label


def test_bspgraph_auto_routes_large_graph_to_sharded(ray_session):
    """Above _SHARDED_EDGE_THRESHOLD edges lpa runs through the
    owned-delta actor engine with labels identical to the task path;
    wcc keeps the pointer-doubling task path until its own (much higher)
    threshold — the round-5 measured crossover."""
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(3)
    n = 9000
    src = rng.integers(0, n, 60_000)
    dst = rng.integers(0, n, 60_000)
    g = BspGraph.from_arrays(src, dst, n, num_blocks=6)
    if g.num_edges < BspGraph._SHARDED_EDGE_THRESHOLD:
        pytest.skip("dedup dropped below threshold")
    assert g.num_edges < BspGraph._SHARDED_WCC_EDGE_THRESHOLD
    want_l, _ = g.lpa(iter_count=4, until_converged=False, engine="task")
    got_l, _ = g.lpa(iter_count=4, until_converged=False)  # auto->sharded
    assert g._sharded is not None
    assert np.array_equal(got_l, want_l)
    # wcc below its threshold stays on the task path but the sharded
    # engine gives identical labels
    want = g.wcc()
    got = g.sharded().wcc_owned()
    assert np.array_equal(got, want)
    g._sharded.shutdown()


def test_owned_delta_checkpoint_resume(ray_session, tmp_path):
    """round-5: lpa_owned/wcc_owned checkpoint per-iteration lineage and
    resume mid-convergence — a resumed run from iteration k produces the
    SAME labels as an uninterrupted run (pinned iterations)."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    from raphtory_ray.state.shards import BspGraph
    from raphtory_ray.state.sharded_algos import ShardedAlgos
    rng = np.random.default_rng(9)
    src = rng.integers(0, 800, 4000)
    dst = rng.integers(0, 800, 4000)
    g = BspGraph.from_arrays(src, dst, 800, num_blocks=4)
    with ShardedAlgos(g, num_workers=2) as eng:
        want, _ = eng.lpa_owned(iter_count=8, until_converged=False)
        # run WITH checkpoints every 3 rounds
        ck = CheckpointManager(str(tmp_path / "lpa"))
        got, _ = eng.lpa_owned(iter_count=8, until_converged=False,
                               checkpoint=ck, checkpoint_every=3)
        assert np.array_equal(got, want)
        assert 6 in ck.iterations()           # lineage manifests exist
        # "kill" after iteration 6: a fresh checkpointed run resumes from
        # the latest manifest and finishes with identical labels
        ck2 = CheckpointManager(str(tmp_path / "lpa"))
        got2, _ = eng.lpa_owned(iter_count=8, until_converged=False,
                                checkpoint=ck2, checkpoint_every=3)
        assert np.array_equal(got2, want)
        # wcc checkpoints too
        ckw = CheckpointManager(str(tmp_path / "wcc"))
        w1 = eng.wcc_owned(checkpoint=ckw, checkpoint_every=2)
        assert np.array_equal(w1, g.wcc(engine="task"))
        w2 = eng.wcc_owned(checkpoint=CheckpointManager(
            str(tmp_path / "wcc")), checkpoint_every=2)
        assert np.array_equal(w2, w1)


def test_lpa_owned_converged_iteration_under_checkpoint(rnd_graph, tmp_path):
    """Draining the pipelined rounds at a checkpoint does not shift the
    reported convergence iteration: every checkpoint_every gives the same
    iteration and labels as the run without checkpoints."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    from raphtory_ray.state.sharded_algos import ShardedAlgos
    want_t, it_t = rnd_graph.lpa(engine="task")
    with ShardedAlgos(rnd_graph, num_workers=3) as eng:
        want, it_w = eng.lpa_owned()
        assert it_w == it_t < 20              # converged before the cap
        assert np.array_equal(want, want_t)
        for every in (1, 2, 3):
            ck = CheckpointManager(str(tmp_path / f"every{every}"))
            got, it_g = eng.lpa_owned(checkpoint=ck, checkpoint_every=every)
            assert it_g == it_w, every
            assert np.array_equal(got, want), every


def test_bspgraph_checkpoint_kwarg_routes_to_sharded(ray_session, tmp_path):
    """BspGraph.lpa/wcc with checkpoint= route through the owned-delta
    engine regardless of size and resume to identical labels."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(11)
    src = rng.integers(0, 300, 1500)
    dst = rng.integers(0, 300, 1500)
    g = BspGraph.from_arrays(src, dst, 300, num_blocks=3)
    want, _ = g.lpa(iter_count=6, until_converged=False, engine="task")
    ck = CheckpointManager(str(tmp_path / "l"))
    got, _ = g.lpa(iter_count=6, until_converged=False,
                   checkpoint=ck, checkpoint_every=2)
    assert np.array_equal(got, want)
    got2, _ = g.lpa(iter_count=6, until_converged=False,
                    checkpoint=CheckpointManager(str(tmp_path / "l")),
                    checkpoint_every=2)
    assert np.array_equal(got2, want)
    w_want = g.wcc(engine="task")
    w_got = g.wcc(checkpoint=CheckpointManager(str(tmp_path / "w")))
    assert np.array_equal(w_got, w_want)
    g._sharded.shutdown()
