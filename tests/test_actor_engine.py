"""ShardedPageRank (resident CSR holders) — bit-identity with the task
engine, golden conformance, holder loss, checkpoint/resume, and the job's
two engines."""

from __future__ import annotations

import numpy as np

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
    """test_algorithms.py:326-340 golden floats + iteration count, and the
    task engine's bits."""
    from raphtory_ray.state.actor_engine import ShardedPageRank
    g, m = _golden_graph()
    golden = np.array([GOLDEN_PR[k] for k in sorted(m, key=m.get)])
    with ShardedPageRank.from_bsp(g) as eng:
        pr, it, _ = eng.pagerank()
    assert it == 10
    assert np.allclose(pr, golden, atol=1e-6)
    np.testing.assert_array_equal(pr, g.pagerank()[0])


def test_matches_task_engine(ray_session):
    """Resident holders over any grouping of the dst-owned blocks give the
    task engine's scores bit for bit: every dst's rows come from one block
    and keep its order. Converged and at fixed steps, at 1, 2 and 3
    holders."""
    from raphtory_ray.state.actor_engine import ShardedPageRank
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(5)
    src = rng.integers(0, 1500, 9000)
    dst = rng.integers(0, 1500, 9000)
    g = BspGraph.from_arrays(src, dst, 1500, num_blocks=6)
    for kw in ({}, {"iter_count": 8, "tol": 0.0}):
        pr_task, it_task, _ = g.pagerank(**kw)
        for W in (1, 2, 3):
            with ShardedPageRank.from_bsp(g, num_workers=W) as eng:
                pr_act, it_act, _ = eng.pagerank(**kw)
            assert it_task == it_act, (kw, W)
            np.testing.assert_array_equal(pr_task, pr_act)


class _KillAt:
    """Checkpoint double: keeps nothing, and kills one holder (Ray may
    restart it) when superstep ``k`` is saved."""

    def __init__(self, holder, k: int):
        self.holder, self.k = holder, k

    def load_latest(self):
        return None

    def save(self, it, state, metrics):
        if it == self.k:
            import ray
            ray.kill(self.holder, no_restart=False)


def test_holder_loss_mid_run_is_bit_identical(ray_session):
    """A holder killed at superstep k is restarted by Ray from its block
    refs and the next call retried: scores and iterations equal an
    uninterrupted run."""
    from raphtory_ray.state.actor_engine import ShardedPageRank
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(11)
    src = rng.integers(0, 800, 5000)
    dst = rng.integers(0, 800, 5000)
    g = BspGraph.from_arrays(src, dst, 800, num_blocks=4)
    want, it_want, _ = g.pagerank()
    assert it_want > 3
    with ShardedPageRank.from_bsp(g, num_workers=2) as eng:
        got, it_got, _ = eng.pagerank(checkpoint=_KillAt(eng.holders[1], 3))
    assert it_got == it_want
    np.testing.assert_array_equal(got, want)


def test_checkpoint_resume(ray_session, tmp_path):
    """Kill-and-resume: run 3 supersteps with checkpointing, build a FRESH
    engine (simulated restart), resume from the manifest, final scores
    match an uninterrupted run bit-for-bit and no superstep is
    recomputed."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    from raphtory_ray.state.actor_engine import ShardedPageRank
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(9)
    src = rng.integers(0, 800, 5000)
    dst = rng.integers(0, 800, 5000)
    g = BspGraph.from_arrays(src, dst, 800, num_blocks=4)

    full, it_full, _ = g.pagerank(iter_count=8, tol=0.0)
    ck = CheckpointManager(str(tmp_path / "ck"), num_partitions=4)
    with ShardedPageRank.from_bsp(g) as eng1:   # "killed" at 3
        eng1.pagerank(iter_count=3, tol=0.0, checkpoint=ck)
    assert ck.iterations()[-1] == 3
    meta = ck.load_latest()
    assert meta["metrics"]["norm"] > 0        # lineage metrics recorded

    with ShardedPageRank.from_bsp(g) as eng2:     # fresh actors = restart
        resumed, it_res, steps = eng2.pagerank(iter_count=8, tol=0.0,
                                               checkpoint=ck)
    assert it_res == it_full == 8
    assert len(steps) == 5                    # only 4..8 recomputed
    np.testing.assert_array_equal(full, resumed)


def test_job_engines_write_the_same_pagerank(ray_session, tmp_path,
                                             monkeypatch):
    """jobs/linkgraph_job.py with --engine task and --engine sharded on the
    test corpus: the written pagerank node state is bit-identical and
    METRICS.json reports the same iteration count. The job runs in the
    caller's Ray session and leaves it running."""
    import json
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from jobs import linkgraph_job
    from raphtory_ray.sources.corpus import ensure_corpus
    corpus = ensure_corpus(n_files=200, root=str(tmp_path / "corpus"))
    out = {}
    for engine in ("task", "sharded"):
        d = tmp_path / engine
        monkeypatch.setattr(sys, "argv", [
            "linkgraph_job.py", "--input", corpus, "--output", str(d),
            "--algorithms", "pagerank", "--num-blocks", "3",
            "--engine", engine])
        linkgraph_job.main()
        assert ray.is_initialized()
        metrics = json.loads((d / "pagerank" / "METRICS.json").read_text())
        assert metrics["engine"] == engine
        parts = sorted((d / "pagerank").glob("part-*.parquet"))
        out[engine] = (pa.concat_tables(map(pq.read_table, parts)),
                       metrics["iterations"])
    (task, it_task), (sharded, it_sharded) = out["task"], out["sharded"]
    assert it_task == it_sharded > 0
    assert task.num_rows > 0 and task.equals(sharded)


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


