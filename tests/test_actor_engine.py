"""ShardedPageRank (actor-partitioned engine) — equivalence with the task
engine, golden conformance, checkpoint/resume (kill-and-resume contract)."""

from __future__ import annotations

import numpy as np
import pytest

GOLDEN_EVENTS = [
    (10, 1, 3), (11, 1, 2), (12, 1, 2), (9, 1, 2), (12, 2, 4), (13, 2, 5),
    (14, 5, 5), (14, 5, 4), (5, 4, 6), (15, 4, 7), (10, 4, 7), (11, 4, 7),
    (10, 5, 8)]
GOLDEN_PR = {1: 0.07209850165402759, 2: 0.10274080842110422,
             3: 0.10274080842110422, 4: 0.1615298183542792,
             5: 0.1615298183542792, 6: 0.14074777909144864,
             7: 0.14074777909144864, 8: 0.11786468661230831}


def _golden_graph():
    from raphtory_ray.core.ids import encode_event_list
    from raphtory_ray.state.shards import BspGraph
    t, s, d, m = encode_event_list(GOLDEN_EVENTS)
    return BspGraph.from_arrays(s, d, len(m), num_blocks=4), m


def test_golden_fixture(ray_session):
    """test_algorithms.py:326-340 golden floats + iteration count, in
    every gather mode."""
    from raphtory_ray.state.actor_engine import GATHER_MODES, ShardedPageRank
    g, m = _golden_graph()
    golden = np.array([GOLDEN_PR[k] for k in sorted(m, key=m.get)])
    for mode in GATHER_MODES:
        with ShardedPageRank.from_bsp(g) as eng:
            pr, it, _ = eng.pagerank(gather_mode=mode)
        assert it == 10, mode
        assert np.allclose(pr, golden, atol=1e-6), mode


def test_matches_task_engine(ray_session):
    from raphtory_ray.state.actor_engine import GATHER_MODES, ShardedPageRank
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(5)
    src = rng.integers(0, 1500, 9000)
    dst = rng.integers(0, 1500, 9000)
    g = BspGraph.from_arrays(src, dst, 1500, num_blocks=6)
    pr_task, it_task, _ = g.pagerank()
    for mode in GATHER_MODES:
        with ShardedPageRank.from_bsp(g) as eng:
            pr_act, it_act, _ = eng.pagerank(gather_mode=mode)
        assert it_task == it_act, mode
        assert np.allclose(pr_task, pr_act, atol=1e-12), mode


def test_unknown_gather_mode_raises(ray_session):
    """A mode outside GATHER_MODES is refused before any superstep runs."""
    from raphtory_ray.state.actor_engine import ShardedPageRank
    g, _ = _golden_graph()
    with ShardedPageRank.from_bsp(g) as eng:
        with pytest.raises(ValueError, match="gather_mode"):
            eng.pagerank(gather_mode="bogus")


def _assert_central_matches_p2p_tiled(seed):
    from raphtory_ray.state.actor_engine import ShardedPageRank
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 900, 6000)
    dst = rng.integers(0, 900, 6000)
    g = BspGraph.from_arrays(src, dst, 900, num_blocks=5)
    pr = {}
    for mode in ("central", "p2p-tiled"):
        with ShardedPageRank.from_bsp(g) as eng:
            pr[mode] = eng.pagerank(iter_count=8, tol=0.0, gather_mode=mode)
    assert pr["central"][1] == pr["p2p-tiled"][1]
    np.testing.assert_allclose(pr["central"][0], pr["p2p-tiled"][0],
                               rtol=0, atol=1e-15)


def test_central_gather_matches_p2p(ray_session):
    """gather_mode='central' (driver-assembled all-gather) is numerically
    identical to the p2p-tiled slice path ((partition, dst)-blocked rows,
    slice transport)."""
    _assert_central_matches_p2p_tiled(13)


def test_p2p_tiled_matches_central(ray_session):
    """The same comparison on a second random graph."""
    _assert_central_matches_p2p_tiled(23)


def test_central_gather_checkpoint_resume(ray_session, tmp_path):
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    from raphtory_ray.state.actor_engine import ShardedPageRank
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(14)
    src = rng.integers(0, 700, 4000)
    dst = rng.integers(0, 700, 4000)
    g = BspGraph.from_arrays(src, dst, 700, num_blocks=4)
    with ShardedPageRank.from_bsp(g) as eng:
        full, _, _ = eng.pagerank(iter_count=7, tol=0.0,
                                  gather_mode="central")
    ck = CheckpointManager(str(tmp_path / "ck"), num_partitions=4)
    with ShardedPageRank.from_bsp(g) as eng:
        eng.pagerank(iter_count=3, tol=0.0, checkpoint=ck,
                     gather_mode="central")
    with ShardedPageRank.from_bsp(g) as eng:
        resumed, it_res, steps = eng.pagerank(iter_count=7, tol=0.0,
                                              checkpoint=ck,
                                              gather_mode="central")
    assert it_res == 7 and len(steps) == 4
    np.testing.assert_array_equal(full, resumed)


def test_fp32_transport_within_contract(ray_session):
    """fp32 rank transport (the scaling workload's bandwidth trade-off)
    stays inside the 1e-6 contract vs the f64 task engine."""
    from raphtory_ray.state.actor_engine import ShardedPageRank
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(7)
    src = rng.integers(0, 1500, 9000)
    dst = rng.integers(0, 1500, 9000)
    g = BspGraph.from_arrays(src, dst, 1500, num_blocks=6)
    pr_task, _, _ = g.pagerank(iter_count=15, tol=0.0)
    with ShardedPageRank.from_bsp(g, dtype="float32") as eng:
        pr_32, _, _ = eng.pagerank(iter_count=15, tol=0.0)
    assert np.allclose(pr_32, pr_task, atol=1e-6)
    assert np.allclose(pr_32, pr_task, rtol=5e-5)


def test_checkpoint_resume(ray_session, tmp_path):
    """Kill-and-resume in every gather mode: run 3 supersteps with
    checkpointing, build a FRESH engine (simulated restart), resume from the
    manifest, final scores match an uninterrupted run bit-for-bit and no
    superstep is recomputed."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    from raphtory_ray.state.actor_engine import GATHER_MODES, ShardedPageRank
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(9)
    src = rng.integers(0, 800, 5000)
    dst = rng.integers(0, 800, 5000)
    g = BspGraph.from_arrays(src, dst, 800, num_blocks=4)

    for mode in GATHER_MODES:
        with ShardedPageRank.from_bsp(g) as ref_eng:
            full, it_full, _ = ref_eng.pagerank(iter_count=8, tol=0.0,
                                                gather_mode=mode)
        ck = CheckpointManager(str(tmp_path / mode), num_partitions=4)
        with ShardedPageRank.from_bsp(g) as eng1:   # "killed" at 3
            eng1.pagerank(iter_count=3, tol=0.0, checkpoint=ck,
                          gather_mode=mode)
        assert ck.iterations()[-1] == 3
        meta = ck.load_latest()
        assert meta["metrics"]["norm"] > 0        # lineage metrics recorded

        with ShardedPageRank.from_bsp(g) as eng2:     # fresh actors = restart
            resumed, it_res, steps = eng2.pagerank(iter_count=8, tol=0.0,
                                                   checkpoint=ck,
                                                   gather_mode=mode)
        assert it_res == 8, mode
        assert len(steps) == 5, mode              # only 4..8 recomputed
        assert np.array_equal(full, resumed), mode


def test_graphgen_deterministic(ray_session):
    """Generators reproduce identical edge sets at different parallelism."""
    from raphtory_ray.sources.graphgen import (ba_preferential_attachment,
                                               erdos_renyi,
                                               random_attachment)
    for gen in (lambda p: random_attachment(3000, 5, parallelism=p),
                lambda p: ba_preferential_attachment(2000, 3, parallelism=p),
                lambda p: erdos_renyi(300, 0.01, parallelism=p)):
        a = gen(2).to_pandas().sort_values(["src", "dst", "event_id"])
        b = gen(7).to_pandas().sort_values(["src", "dst", "event_id"])
        assert a.reset_index(drop=True).equals(b.reset_index(drop=True))
        assert len(a) > 0


def test_graphgen_degree_shapes(ray_session):
    """BA should produce a heavier max in-degree than uniform attachment."""
    from raphtory_ray.sources.graphgen import (ba_preferential_attachment,
                                               random_attachment)
    ra = random_attachment(4000, 4).to_pandas()
    ba = ba_preferential_attachment(4000, 4).to_pandas()
    ra_max = ra.groupby("dst").size().max()
    ba_max = ba.groupby("dst").size().max()
    assert ba_max > 2 * ra_max


def test_task_path_pagerank_checkpoint_resume(ray_session, tmp_path):
    """BspGraph.pagerank (the task path jobs/linkgraph_job.py uses) resumes
    from the last complete manifest: a 3-iteration checkpointed run
    continued to 6 must equal an uninterrupted 6-iteration run."""
    import numpy as np
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(9)
    src = rng.integers(0, 500, 3000).astype(np.int64)
    dst = rng.integers(0, 500, 3000).astype(np.int64)
    g = BspGraph.from_arrays(src, dst, 500, num_blocks=4)
    want = g.pagerank(iter_count=6, tol=0.0)[0]
    ck = CheckpointManager(str(tmp_path / "pr"), num_partitions=4)
    g.pagerank(iter_count=3, tol=0.0, checkpoint=ck)
    got = g.pagerank(iter_count=6, tol=0.0, checkpoint=ck)[0]
    assert np.allclose(got, want, atol=1e-12)


