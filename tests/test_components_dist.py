"""Distributed frontier-pair closure vs the local bitset fast path."""
import numpy as np
import pytest

from raphtory_ray.state.shards import BspGraph
from raphtory_ray.algorithms import components as C
from raphtory_ray.algorithms import _closure_sets_local


def _rand_graph(n=300, m=1500, seed=7, blocks=4):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m).astype(np.int64)
    dst = rng.integers(0, n, m).astype(np.int64)
    return BspGraph.from_arrays(src, dst, n, num_blocks=blocks)


@pytest.mark.parametrize("reverse", [False, True])
def test_distributed_matches_local(ray_session, reverse):
    g = _rand_graph()
    want = _closure_sets_local(g, reverse)
    got = C.closure_sets(g, reverse)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(np.sort(a), np.sort(b))


def test_closure_dataset_sources_subset(ray_session):
    g = _rand_graph(n=200, m=800, seed=3)
    want = _closure_sets_local(g, reverse=False)
    sources = np.array([0, 5, 17, 199], dtype=np.int64)
    ds = C.closure_dataset(g, reverse=False, sources=sources)
    tbl = ds.take_all()
    by_node = {}
    for row in tbl:
        by_node.setdefault(row["node"], []).append(row["member"])
    assert set(by_node) <= set(sources.tolist())
    for s in sources:
        got = np.sort(np.array(by_node.get(int(s), []), dtype=np.int64))
        assert np.array_equal(got, np.sort(want[int(s)]))


def test_single_closure_cycle(ray_session):
    # 0→1→2→0 cycle plus 2→3: descendants of 0 include 0 (cycle) and 3
    src = np.array([0, 1, 2, 2], dtype=np.int64)
    dst = np.array([1, 2, 0, 3], dtype=np.int64)
    g = BspGraph.from_arrays(src, dst, 4, num_blocks=2)
    assert set(C.single_closure(g, 0, reverse=False).tolist()) == {0, 1, 2, 3}
    assert set(C.single_closure(g, 3, reverse=True).tolist()) == {0, 1, 2}
    assert set(C.single_closure(g, 3, reverse=False).tolist()) == set()


def test_single_block_graph(ray_session):
    """A one-block graph runs the closure in one partition."""
    from raphtory_ray.algorithms import components as C
    src = np.array([0, 1, 2, 2], dtype=np.int64)
    dst = np.array([1, 2, 0, 3], dtype=np.int64)
    g = BspGraph.from_arrays(src, dst, 4, num_blocks=1)
    out = C.closure_sets(g, reverse=False)
    assert set(out[0].tolist()) == {0, 1, 2, 3}
    assert set(out[3].tolist()) == set()


@pytest.mark.parametrize("reverse", [False, True])
def test_one_block_closure_equals_two_blocks(ray_session, reverse):
    """The closure of a one-block graph, run in one partition, equals the
    closure of a two-block build of the same edges."""
    one = _rand_graph(blocks=1)
    two = _rand_graph(blocks=2)
    assert len(one.refs) == 1 and len(two.refs) == 2
    got = C.closure_sets(one, reverse)
    want = C.closure_sets(two, reverse)
    assert len(got) == len(want) == one.n
    for a, b in zip(got, want):
        np.testing.assert_array_equal(np.sort(a), np.sort(b))
