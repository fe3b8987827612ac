"""BspGraph LPA, WCC and personalized PageRank on random graphs against
the numpy kernels and dense references, plus structural checks; the LPA
vote kernel against one numpy superstep, without Ray; LPA's seed-label
and size checks; LPA on a graph of 50k+ edges, also at one logical CPU;
and checkpointed LPA/WCC, which run the superstep loop's round path and
resume mid-run."""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def test_owned_delta_engine_reusable_and_isolated_vertices(ray_session):
    """Repeat lpa calls on one graph give the same labels, the numpy
    kernel's; isolated vertices keep their own label."""
    from raphtory_ray.core import kernels as K
    from raphtory_ray.state.shards import BspGraph
    src = np.array([0, 1, 2, 5, 6, 7])
    dst = np.array([1, 2, 0, 6, 7, 5])
    g = BspGraph.from_arrays(src, dst, 10, num_blocks=3)
    l1, it1 = g.lpa()
    l2, it2 = g.lpa()
    assert it1 == it2 and np.array_equal(l1, l2)
    want, want_it = K.lpa(src, dst, 10)
    assert it1 == want_it
    np.testing.assert_array_equal(l1, want)
    assert np.array_equal(l1[[3, 4, 8, 9]], [3, 4, 8, 9])


def test_lpa_on_large_graph_matches_kernel(ray_session):
    """A graph of 50k+ edges gives the numpy kernel's LPA labels and
    iteration counts, fixed and converging, and its WCC labels."""
    from raphtory_ray.core import kernels as K
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(3)
    n = 9000
    src, dst = rng.integers(0, n, 60_000), rng.integers(0, n, 60_000)
    g = BspGraph.from_arrays(src, dst, n, num_blocks=6)
    assert g.num_edges >= 50_000
    np.testing.assert_array_equal(g.wcc(), K.wcc(src, dst, n))
    want_l, want_it = K.lpa(src, dst, n, iter_count=4, until_converged=False)
    got_l, got_it = g.lpa(iter_count=4, until_converged=False)
    assert got_it == want_it == 4
    np.testing.assert_array_equal(got_l, want_l)
    want_l, want_it = K.lpa(src, dst, n)
    got_l, got_it = g.lpa()
    assert got_it == want_it
    np.testing.assert_array_equal(got_l, want_l)


def _lpa_graphs():
    """Random small graphs for the vote kernel: (src, dst, n, seed labels).
    Self-loops, isolated vertices (ids past the last endpoint), a hub,
    an edgeless graph, and seed labels from a 2-4 value alphabet so that
    vote ties are common."""
    rng = np.random.default_rng(11)
    for i in range(24):
        n = int(rng.integers(4, 80))
        m = int(rng.integers(0, 3 * n)) if i else 0
        hi = max(1, n - int(rng.integers(0, 4)))      # isolated tail
        src, dst = rng.integers(0, hi, m), rng.integers(0, hi, m)
        loops = rng.random(m) < 0.1
        dst[loops] = src[loops]
        if i % 3 == 0:                                # a hub
            hub = rng.integers(0, hi, 2 * hi)
            src, dst = np.r_[src, np.zeros_like(hub)], np.r_[dst, hub]
        k = int(rng.integers(2, 5))
        for labels in (None, rng.integers(0, k, n),
                       rng.permutation(n)):
            yield src, dst, n, labels


def test_lpa_vote_kernel_matches_numpy_superstep():
    """_lpa_vote_owned over src-owned splits, at P = 1, 2 and 3 and with
    an empty and a schema-less empty block added, scatters to one
    superstep of K.lpa, dtype included; no Ray."""
    import pyarrow as pa

    from raphtory_ray.core import kernels as K
    from raphtory_ray.core.exchange import bucket, split
    from raphtory_ray.state.shards import _lpa_vote_owned
    z = np.empty(0, np.int64)
    extra = [pa.table({"src": z, "dst": z}), pa.table({})]
    cases = 0
    for src, dst, n, labels in _lpa_graphs():
        prev = np.arange(n, dtype=np.int64) if labels is None \
            else labels.astype(np.int64)
        want, _ = K.lpa(src, dst, n, iter_count=1, labels=prev,
                        until_converged=False)
        u, v = K.undirected_pairs(src, dst)
        for P in (1, 2, 3):
            blocks = [pa.table({"src": a, "dst": b})
                      for a, b in split(bucket(u, P), P, u, v)] + extra
            got = prev.copy()
            for blk in blocks:
                us, ls = _lpa_vote_owned(blk, prev, n)
                assert us.dtype == ls.dtype == np.int64
                got[us] = ls
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            cases += 1
    assert cases == 24 * 3 * 3


def test_lpa_seed_labels_checked(ray_session):
    """Seed labels outside [0, n), of the wrong shape or not integers
    raise ValueError: the packed (vertex, label) keys cannot decode them.
    Integer labels of another width run as int64."""
    from raphtory_ray.core import kernels as K
    from raphtory_ray.state.shards import BspGraph
    src, dst = np.array([0, 1, 2, 3, 4, 5]), np.array([1, 2, 0, 4, 5, 3])
    g = BspGraph.from_arrays(src, dst, 6, num_blocks=2)
    for bad in ([7, 7, 7, 3, 3, 3], [0, 0, 0, 1, 1, -1],
                np.arange(5), np.arange(6.0), np.zeros((6, 1), np.int64)):
        with pytest.raises(ValueError):
            g.lpa(labels=np.asarray(bad))
    got, it = g.lpa(labels=np.array([5, 5, 5, 2, 2, 2], np.int32))
    want, want_it = K.lpa(src, dst, 6, labels=np.array([5, 5, 5, 2, 2, 2]))
    assert got.dtype == np.int64 and it == want_it
    np.testing.assert_array_equal(got, want)


def test_lpa_size_limit():
    """n above LPA_MAX_N overflows the packed int64 keys and scores, so
    check_lpa_size refuses it by name; checked without allocating."""
    from raphtory_ray.state.shards import LPA_MAX_N, check_lpa_size
    assert (LPA_MAX_N + 1) ** 2 <= 2 ** 63 - 1 < (LPA_MAX_N + 2) ** 2
    check_lpa_size(LPA_MAX_N)
    for n in (LPA_MAX_N + 1, 2 ** 32):
        with pytest.raises(ValueError, match=str(LPA_MAX_N)):
            check_lpa_size(n)


_ONE_CPU_LPA = """
import sys

import numpy as np
import ray

sys.path.insert(0, sys.argv[1])
from raphtory_ray.core import kernels as K
from raphtory_ray.state.shards import BspGraph

ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
rng = np.random.default_rng(3)
n = 9000
src, dst = rng.integers(0, n, 60_000), rng.integers(0, n, 60_000)
g = BspGraph.from_arrays(src, dst, n, num_blocks=6)
assert g.num_edges >= 50_000
labels, it = g.lpa()
total, _ = g.triangle_counts()
want, want_it = K.lpa(src, dst, n)
assert it == want_it, (it, want_it)
np.testing.assert_array_equal(labels, want)
assert total == K.triangle_counts(src, dst, n)[0]
ray.shutdown()
print("done", it, total)
"""


def test_one_cpu_lpa_then_triangles_finish():
    """At one logical CPU, an LPA of 50k+ edges and the task-based call
    after it both finish, with the numpy kernel's labels. A timeout ends
    the run, so a call that never gets a CPU fails the test instead of
    hanging the suite."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_LPA, str(ROOT)],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("lpa then triangle_counts did not finish in 120 s "
                    "at one logical CPU")
    assert proc.returncode == 0, err[-2000:]
    assert "done" in out.split()


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


def test_lpa_converged_iteration_under_checkpoint(rnd_graph, tmp_path):
    """A checkpoint does not shift the reported convergence iteration: a
    checkpointed lpa, uninterrupted or killed after superstep 1, 2 or 3
    and resumed, gives the iteration and labels of the run without a
    checkpoint."""
    from raphtory_ray.pipelines.checkpoint import CheckpointManager
    want, it_w = rnd_graph.lpa()
    assert it_w < 20                      # converged before the cap
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
    graph too, and resume to identical labels."""
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
    """On a graph of 50k+ edges, checkpointed lpa and wcc killed after
    superstep k and resumed give the labels of an uninterrupted run and
    of the numpy kernels, and LPA converges at the iteration of the run
    without a checkpoint."""
    from raphtory_ray.core import kernels as K
    from raphtory_ray.state.shards import BspGraph
    src, dst, n = _clustered(5, 223, 30, 0.3)
    g = BspGraph.from_arrays(src, dst, n, num_blocks=4)
    assert g.num_edges >= 50_000
    want_l, want_it = K.lpa(src, dst, n)
    want_w = K.wcc(src, dst, n)
    assert 3 < want_it < 20
    got_l, got_it = _killed_and_resumed(lambda c: g.lpa(checkpoint=c),
                                        str(tmp_path / "lpa"), 3)
    got_w = _killed_and_resumed(lambda c: g.wcc(checkpoint=c),
                                str(tmp_path / "wcc"), 1)
    assert got_it == want_it
    np.testing.assert_array_equal(got_l, want_l)
    np.testing.assert_array_equal(got_w, want_w)
    np.testing.assert_array_equal(g.wcc(), want_w)
    plain_l, plain_it = g.lpa()
    assert plain_it == got_it
    np.testing.assert_array_equal(plain_l, got_l)
