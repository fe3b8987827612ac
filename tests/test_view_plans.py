"""A row-local view of a materialized GraphFrame is a pending predicate,
and ``BspGraph.from_graph`` applies it in one plain task per block. Each
view here, built that way, must give the same BspGraph as the same view
read back through its ``edges`` Dataset: equal edge counts and block
counts, and bit-identical PageRank, WCC and LPA. Every case runs once at
the default rows per partition and once with it shrunk so P > 1, as
tests/test_partition_rule.py does."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from raphtory_ray.core import exchange

N = 60
LAYERS = ["a", "b", None, "_default"]

VIEWS = {
    "window": lambda g: g.window(10, 30),
    "shrink_window": lambda g: g.shrink_window(5, 40),
    "shrink_start": lambda g: g.shrink_start(20),
    "shrink_end": lambda g: g.shrink_end(20),
    "at": lambda g: g.at(7),
    "before": lambda g: g.before(25),
    "after": lambda g: g.after(25),
    "layer": lambda g: g.layer("a"),
    "layers_with_default": lambda g: g.layer(["b", "_default"]),
    "exclude_layer": lambda g: g.exclude_layer("b"),
    "default_layer": lambda g: g.default_layer(),
    "valid_layers": lambda g: g.valid_layers(["a", "zzz"]),
    "filter_exploded_edges": lambda g: g.filter_exploded_edges(
        _prop("int_prop") > 4),
    "subgraph": lambda g: g.subgraph(range(0, N, 2)),
    "exclude_nodes": lambda g: g.exclude_nodes(range(0, N, 3)),
    "window_then_layer": lambda g: g.window(10, 40).layer(["a", "b"]),
    "nested_window_shrink": lambda g: g.window(5, 45).shrink_window(15, 50),
    "empty_window": lambda g: g.window(1000, 2000),
    "valid_layers_none_known": lambda g: g.valid_layers(["zzz"]),
}


def _prop(name: str):
    from raphtory_ray.graph.filter import Prop
    return Prop(name)


def _frame(seed: int = 3, m: int = 600):
    """A materialized frame of 3 blocks with a ``layer`` column."""
    import ray.data as rd

    from raphtory_ray.graph.graph_frame import GraphFrame
    rng = np.random.default_rng(seed)
    t = pa.table({"src": pa.array(rng.integers(0, N, m)),
                  "dst": pa.array(rng.integers(0, N, m)),
                  "t": pa.array(rng.integers(0, 50, m)),
                  "event_id": pa.array(np.arange(m, dtype=np.int64)),
                  "layer": pa.array([LAYERS[i] for i in
                                     rng.integers(0, len(LAYERS), m)],
                                    pa.string()),
                  "int_prop": pa.array(rng.integers(0, 10, m))})
    cut = [0, m // 3, 2 * m // 3, m]
    ds = rd.from_arrow([t.slice(a, b - a) for a, b in zip(cut, cut[1:])])
    return GraphFrame(ds.materialize(), N)


def _results(g) -> list:
    pr, it = g.pagerank()[:2]
    pr20, it20 = g.pagerank(iter_count=20, tol=0.0)[:2]
    labels, lit = g.lpa()
    return [g.num_edges, len(g.refs), pr, it, pr20, it20, g.wcc(),
            labels, lit]


@pytest.mark.parametrize("shrink", [False, True], ids=["default", "p_gt_1"])
def test_view_plan_matches_dataset_path(ray_session, monkeypatch, shrink):
    from raphtory_ray.state.shards import BspGraph
    if shrink:
        monkeypatch.setattr(exchange, "ROWS_PER_PARTITION", 32)
    gf = _frame()
    blocks = []
    for name, view in VIEWS.items():
        wf = view(gf)
        assert wf.view_blocks() is not None, name
        plan = BspGraph.from_graph(wf)
        blocks.append(len(plan.refs))
        data = BspGraph.from_edges(wf.edges, wf.n)
        for a, b in zip(_results(plan), _results(data)):
            assert np.array_equal(a, b), name
            assert np.asarray(a).dtype == np.asarray(b).dtype, name
    assert max(blocks) > 1 if shrink else max(blocks) == 1


def test_empty_views_build_empty_graphs(ray_session):
    from raphtory_ray.state.shards import BspGraph
    gf = _frame()
    for name in ("empty_window", "valid_layers_none_known"):
        g = BspGraph.from_graph(VIEWS[name](gf))
        assert g.num_edges == 0 and len(g.refs) == 1, name


def test_window_build_starts_no_dataset_execution(ray_session,
                                                  count_executions):
    """After warm-up, window + from_graph on a materialized frame runs
    plain tasks only; reading the view's ``edges`` still gives its rows
    and bounds."""
    from raphtory_ray.state.shards import BspGraph
    gf = _frame()
    BspGraph.from_graph(gf.window(0, 10))
    before = count_executions()
    wf = gf.window(20, 35)
    g = BspGraph.from_graph(wf)
    assert count_executions() == before
    rows = wf.edges.take_all()
    assert rows and all(20 <= r["t"] < 35 for r in rows)
    want = {(r["src"], r["dst"]) for r in rows}
    assert g.num_edges == len(want)
    assert (wf.start, wf.end) == (20, 35)
    assert count_executions() > before
