"""Bulk node / edge-property loaders (parquet_loaders.rs:44-106,252-295)."""
import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _node_parquet(tmp_path):
    t = pa.table({
        "ts": pa.array([30, 10, 20, 5, 40, 15], pa.int64()),
        "uid": pa.array([101, 101, 205, 205, 333, 333], pa.int64()),
        "kind": pa.array(["late", "early", "b", "a", "x", "y"]),
        "score": pa.array([3.0, 1.0, 2.0, 0.5, 4.0, 1.5], pa.float64()),
    })
    p = str(tmp_path / "nodes.parquet")
    pq.write_table(t, p)
    return p


def test_load_nodes_standalone(ray_session, tmp_path):
    from raphtory_ray.sources.loaders import load_nodes_from_parquet
    p = _node_parquet(tmp_path)
    gf = load_nodes_from_parquet(p, time_col="ts", id_col="uid",
                                 node_type_col="kind", prop_cols=["score"])
    assert gf.n == 3                     # sorted distinct ids → vids
    v = gf.vertices
    assert v["gid"].to_pylist() == ["101", "205", "333"]
    # node_type = value at the node's FIRST (t, event_id) row
    assert v["node_type"].to_pylist() == ["early", "a", "y"]
    ev = pa.concat_tables(
        gf.node_events.iter_batches(batch_format="pyarrow")).sort_by(
        [("vid", "ascending"), ("t", "ascending")])
    assert ev["vid"].to_pylist() == [0, 0, 1, 1, 2, 2]
    assert ev["score"].to_pylist() == [1.0, 3.0, 0.5, 2.0, 1.5, 4.0]


def test_load_nodes_dense_graph(ray_session, tmp_path):
    """Against a GraphFrame without a vertices table: ids ARE vids and the
    node filter runs on the LOADED node_type."""
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    from raphtory_ray.graph.filter import Field
    from raphtory_ray.sources.loaders import load_nodes_from_parquet

    t = pa.table({
        "ts": pa.array([1, 1, 1, 1], pa.int64()),
        "uid": pa.array([0, 1, 2, 3], pa.int64()),
        "kind": pa.array(["hub", "leaf", "hub", "leaf"]),
    })
    p = str(tmp_path / "n2.parquet")
    pq.write_table(t, p)
    edges = rd.from_arrow(pa.table({
        "src": pa.array([0, 1, 2, 0], pa.int64()),
        "dst": pa.array([1, 2, 0, 2], pa.int64()),
        "t": pa.array([1, 2, 3, 4], pa.int64()),
        "event_id": pa.array([0, 1, 2, 3], pa.int64())}))
    gf = GraphFrame(edges, 4)
    nf = load_nodes_from_parquet(p, time_col="ts", id_col="uid",
                                 node_type_col="kind", gf=gf)
    assert nf.n == 4
    sub = nf.filter_nodes(Field("node_type") == "hub")
    got = sorted((r["src"], r["dst"]) for r in
                 sub.edges.select_columns(["src", "dst"]).take_all())
    assert got == [(0, 2), (2, 0)]       # induced on {0, 2}


def test_load_nodes_shared_node_type(ray_session, tmp_path):
    from raphtory_ray.sources.loaders import load_nodes_from_parquet
    p = _node_parquet(tmp_path)
    gf = load_nodes_from_parquet(p, time_col="ts", id_col="uid",
                                 node_type="user")
    assert gf.vertices["node_type"].to_pylist() == ["user"] * 3


def test_load_edge_props(ray_session, tmp_path):
    from raphtory_ray.sources.loaders import load_edge_props_from_parquet
    t = pa.table({
        "a": pa.array([1, 1, 2, 1], pa.int64()),
        "b": pa.array([2, 2, 3, 3], pa.int64()),
        "rel": pa.array(["follows", "blocks", "follows", "likes"]),
    })
    p = str(tmp_path / "ep.parquet")
    pq.write_table(t, p)
    meta = load_edge_props_from_parquet(p, "a", "b", ["rel"])
    rows = {(r["src"], r["dst"]): r["rel"] for r in meta.take_all()}
    # last occurrence wins for (1,2)
    assert rows == {(1, 2): "blocks", (2, 3): "follows", (1, 3): "likes"}


def test_load_edge_props_last_wins_across_files(ray_session, tmp_path):
    """'last occurrence wins' = INPUT order, also when duplicates land
    in different blocks: route_fanout hands each partition its rows in
    block order."""
    from raphtory_ray.sources.loaders import load_edge_props_from_parquet
    t1 = pa.table({"a": pa.array([1], pa.int64()),
                   "b": pa.array([2], pa.int64()),
                   "rel": pa.array(["old"])})
    t2 = pa.table({"a": pa.array([1], pa.int64()),
                   "b": pa.array([2], pa.int64()),
                   "rel": pa.array(["new"])})
    d = tmp_path / "ep_dir"
    d.mkdir()
    pq.write_table(t1, str(d / "part-000.parquet"))
    pq.write_table(t2, str(d / "part-001.parquet"))
    meta = load_edge_props_from_parquet(str(d), "a", "b", ["rel"])
    rows = {(r["src"], r["dst"]): r["rel"] for r in meta.take_all()}
    assert rows == {(1, 2): "new"}
