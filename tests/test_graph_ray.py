"""Distributed (BspGraph / Ray Data) algorithms vs the numpy reference
kernels and golden fixtures — the distributed engine must be bit-equal."""

import numpy as np
import pyarrow as pa
import pytest

from raphtory_ray.core import kernels as K
from raphtory_ray.core.ids import encode_event_list
from tests.test_kernels import GEN_GRAPH_EVENTS, GOLDEN_PAGERANK


@pytest.fixture(scope="module")
def gen_gf(ray_session):
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    t, s, d, gmap = encode_event_list(GEN_GRAPH_EVENTS)
    ds = rd.from_arrow(pa.table({
        "src": pa.array(s), "dst": pa.array(d), "t": pa.array(t),
        "event_id": pa.array(np.arange(len(s), dtype=np.int64))}))
    gf = GraphFrame(ds, n=len(gmap))
    return gf, s, d, gmap


@pytest.fixture(scope="module")
def rand_gf(ray_session):
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    rng = np.random.default_rng(11)
    n, m = 250, 1500
    s = rng.integers(0, n, m)
    d = rng.integers(0, n, m)
    t = rng.integers(0, 100, m)
    ds = rd.from_arrow(pa.table({
        "src": pa.array(s), "dst": pa.array(d), "t": pa.array(t),
        "event_id": pa.array(np.arange(m, dtype=np.int64))}))
    return GraphFrame(ds, n=n), s, d, t


def test_pagerank_golden_distributed(gen_gf):
    from raphtory_ray import algorithms as alg
    gf, s, d, gmap = gen_gf
    st = alg.pagerank(gf)
    assert st.iterations == 10
    for gid, want in GOLDEN_PAGERANK.items():
        assert st.values[gmap[gid]] == pytest.approx(want, abs=1e-6)


def test_core_four_match_kernels_random(rand_gf):
    from raphtory_ray import algorithms as alg
    gf, s, d, t = rand_gf
    n = gf.n
    pr = alg.pagerank(gf)
    prk, _ = K.pagerank(s, d, n)
    np.testing.assert_allclose(pr.values, prk, atol=1e-12)
    assert np.array_equal(alg.weakly_connected_components(gf).values, K.wcc(s, d, n))
    assert np.array_equal(alg.label_propagation(gf).values, K.lpa(s, d, n)[0])
    tot_k, loc_k = K.triangle_counts(s, d, n)
    assert alg.triangle_count(gf) == tot_k
    assert np.array_equal(alg.local_triangle_count(gf).values, loc_k)


def test_degrees_and_metrics_random(rand_gf):
    from raphtory_ray import algorithms as alg
    gf, s, d, t = rand_gf
    n = gf.n
    assert np.array_equal(alg.degree(gf).values, K.both_degree(s, d, n))
    assert np.array_equal(alg.out_degree(gf).values, K.out_degree(s, d, n))
    assert np.array_equal(alg.in_degree(gf).values, K.in_degree(s, d, n))
    ds_, dd_ = K.dedup_pairs(s, d)
    assert alg.directed_graph_density(gf) == pytest.approx(
        len(ds_) / (n * (n - 1)))
    assert alg.triplet_count(gf) == K.triplet_count(s, d, n)
    np.testing.assert_allclose(alg.local_clustering_coefficient(gf).values,
                               K.local_clustering(s, d, n), atol=1e-12)
    hub, auth = alg.hits(gf)
    hk, ak, _ = K.hits(s, d, n)
    np.testing.assert_allclose(hub.values, hk, atol=1e-9)
    np.testing.assert_allclose(auth.values, ak, atol=1e-9)


def test_reciprocity_oracle(rand_gf):
    from raphtory_ray import algorithms as alg
    gf, s, d, t = rand_gf
    sd, dd = K.dedup_pairs(s, d)
    edge_set = set(zip(sd.tolist(), dd.tolist()))
    n = gf.n
    out_n = [set() for _ in range(n)]
    in_n = [set() for _ in range(n)]
    for a, b in edge_set:
        if a != b:
            out_n[a].add(b)
            in_n[b].add(a)
    inter = [len(out_n[v] & in_n[v]) for v in range(n)]
    want_global = sum(inter) / sum(len(x) for x in out_n)
    assert alg.global_reciprocity(gf) == pytest.approx(want_global)
    local = alg.all_local_reciprocity(gf).values
    for v in range(n):
        denom = len(out_n[v]) + len(in_n[v])
        if denom:
            assert local[v] == pytest.approx(2 * inter[v] / denom)
        else:
            assert np.isnan(local[v])


def test_kcore_and_lcc(rand_gf):
    from raphtory_ray import algorithms as alg
    gf, s, d, t = rand_gf
    n = gf.n
    core = alg.k_core_set(gf, 3)
    assert np.array_equal(core, np.flatnonzero(K.kcore_set(s, d, n, 3)))
    lcc = alg.largest_connected_component(gf)
    labels = K.wcc(s, d, n)
    vals, cnts = np.unique(labels, return_counts=True)
    big = vals[np.argmax(cnts)]
    # edge count of induced subgraph matches oracle
    sd, dd = K.dedup_pairs(s, d)
    mask = (labels[sd] == big) & (labels[dd] == big)
    assert lcc.count_edges() == int(mask.sum())


def test_window_view_semantics(rand_gf):
    from raphtory_ray import algorithms as alg
    gf, s, d, t = rand_gf
    w = gf.window(20, 60)
    keep = (t >= 20) & (t < 60)
    prk, _ = K.pagerank(s[keep], d[keep], gf.n)
    np.testing.assert_allclose(alg.pagerank(w).values, prk, atol=1e-12)
    assert np.array_equal(alg.weakly_connected_components(w).values,
                          K.wcc(s[keep], d[keep], gf.n))


def test_wcc_windowed_fixture(ray_session):
    # FIXTURES B3 window semantics
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    from raphtory_ray import algorithms as alg
    events = [(0, 1, 2), (1, 1, 2), (2, 3, 4), (3, 5, 6), (10, 10, 11)]
    t, s, d, gmap = encode_event_list(events)
    ds = rd.from_arrow(pa.table({"src": pa.array(s), "dst": pa.array(d),
                                 "t": pa.array(t)}))
    gf = GraphFrame(ds, n=len(gmap))
    lab = alg.weakly_connected_components(gf.window(0, 2)).values
    assert lab[gmap[1]] == lab[gmap[2]]
    assert lab[gmap[3]] != lab[gmap[1]] and lab[gmap[3]] != lab[gmap[4]]
    lab2 = alg.weakly_connected_components(gf.window(2, 3)).values
    assert lab2[gmap[3]] == lab2[gmap[4]]
    assert lab2[gmap[1]] != lab2[gmap[2]]


def test_balance(rand_gf, ray_session):
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    from raphtory_ray import algorithms as alg
    gf, s, d, t = rand_gf
    w = np.arange(len(s), dtype=np.float64) % 7 + 1
    ds = rd.from_arrow(pa.table({"src": pa.array(s), "dst": pa.array(d),
                                 "t": pa.array(t), "w": pa.array(w)}))
    g2 = GraphFrame(ds, n=gf.n)
    vals = alg.balance(g2, "w", "both").values
    want = np.bincount(d, weights=w, minlength=gf.n) - \
        np.bincount(s, weights=w, minlength=gf.n)
    np.testing.assert_allclose(vals, want, atol=1e-9)


def test_components_and_sssp(gen_gf):
    from raphtory_ray import algorithms as alg
    gf, s, d, gmap = gen_gf
    outs = alg.out_components(gf)
    ins = alg.in_components(gf)
    # FIXTURES B1: out_components[1] = {2..8}, in_components[4] = {1,2,5}
    assert set(outs[gmap[1]].tolist()) == {gmap[x] for x in [2, 3, 4, 5, 6, 7, 8]}
    assert set(ins[gmap[4]].tolist()) == {gmap[x] for x in [1, 2, 5]}
    paths = alg.single_source_shortest_path(gf, gmap[1])
    assert paths[gmap[4]] == [gmap[1], gmap[2], gmap[4]]


def test_determinism_across_block_counts(rand_gf, ray_session):
    from raphtory_ray.state.shards import BspGraph
    gf, s, d, t = rand_gf
    g2 = BspGraph.from_arrays(s, d, gf.n, num_blocks=2)
    g7 = BspGraph.from_arrays(s, d, gf.n, num_blocks=7)
    # float sum order differs with partitioning; tolerance ≪ the 1e-6 contract
    np.testing.assert_allclose(g2.pagerank()[0], g7.pagerank()[0], atol=1e-13)
    np.testing.assert_array_equal(g2.lpa()[0], g7.lpa()[0])
    np.testing.assert_array_equal(g2.wcc(), g7.wcc())
    assert g2.triangle_counts()[0] == g7.triangle_counts()[0]


def test_partition_rule_layouts():
    """The BspGraph partition rule is pure (no Ray cluster): a small graph
    is one partition, and sf0.1 (567,452 edges) on 32 CPUs keeps the
    32-block / 8-group / 16-way-triangle layout."""
    from raphtory_ray.state.shards import (num_partitions, round_groups,
                                           triangle_grid)
    assert num_partitions(5_000, 2) == 1
    assert round_groups(num_partitions(5_000, 2), 2) == 1
    assert triangle_grid(5_000, 2) == 1
    blocks = num_partitions(567_452, 32)
    assert blocks == 32
    assert round_groups(blocks, 32) == 8
    assert triangle_grid(567_452, 32) == 16
    assert num_partitions(0, 8) == 1                 # at least one
    assert num_partitions(10**9, 8) == 8             # CPU cap
    assert num_partitions(10**9, 256) == 64          # absolute cap


def test_single_partition_parity(ray_session):
    """A graph below one partition's rows builds as ONE block, one
    undirected block and one CSR group, and every algorithm still matches
    the numpy kernels on that path."""
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    from raphtory_ray.state.shards import ROWS_PER_PARTITION, BspGraph
    rng = np.random.default_rng(23)
    n, m = 300, 2_000
    assert m < ROWS_PER_PARTITION
    s = rng.integers(0, n, m)
    d = rng.integers(0, n, m)
    ds = rd.from_arrow(pa.table({
        "src": pa.array(s), "dst": pa.array(d),
        "t": pa.array(rng.integers(0, 100, m)),
        "event_id": pa.array(np.arange(m, dtype=np.int64))})).repartition(3)
    g = BspGraph.from_graph(GraphFrame(ds, n=n))
    assert len(g.refs) == 1
    assert len(g.und_refs) == 1
    assert len(g.csr_refs) == 1
    np.testing.assert_allclose(g.pagerank()[0], K.pagerank(s, d, n)[0],
                               atol=1e-6)
    np.testing.assert_array_equal(g.wcc(), K.wcc(s, d, n))
    want_lpa = K.lpa(s, d, n)[0]
    np.testing.assert_array_equal(g.lpa()[0], want_lpa)
    np.testing.assert_array_equal(g.sharded().lpa_owned()[0], want_lpa)
    tot, loc = g.triangle_counts()
    tot_k, loc_k = K.triangle_counts(s, d, n)
    assert tot == tot_k
    np.testing.assert_array_equal(loc, loc_k)
    for k in (2, 3, 5):
        np.testing.assert_array_equal(g.kcore_set(k), K.kcore_set(s, d, n, k))
    hub, auth, _ = g.hits()
    hub_k, auth_k, _ = K.hits(s, d, n)
    np.testing.assert_allclose(hub, hub_k)
    np.testing.assert_allclose(auth, auth_k)


def test_local_clustering_batch_subset(rand_gf):
    """local_clustering_coefficient_batch.rs semantics: the subset form
    returns exactly the full result's rows for the requested ids, in
    request order; unknown ids raise."""
    from raphtory_ray import algorithms as alg
    gf, s, d, t = rand_gf
    full = alg.local_clustering_coefficient(gf).values
    want = [7, 0, 249, 42]
    sub = alg.local_clustering_coefficient_batch(gf, want)
    assert sub["vid"].to_pylist() == want
    np.testing.assert_allclose(sub["clustering"].to_numpy(), full[want],
                               atol=1e-12)
    allt = alg.local_clustering_coefficient_batch(gf, None)
    np.testing.assert_allclose(allt["clustering"].to_numpy(), full, atol=1e-12)
    with pytest.raises(KeyError):
        alg.local_clustering_coefficient_batch(gf, [99999])


def test_incremental_append_equals_batch(ray_session):
    """Mutation semantics (addition_ops.rs): appending an event fragment
    to an existing GraphFrame (Dataset union — the engine's add_edge arm)
    yields the SAME algorithm results as building from the full event set
    at once."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(31)
    n, m = 60, 400
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    t = rng.integers(0, 100, m)

    def tbl(lo, hi):
        return pa.table({"src": pa.array(src[lo:hi], pa.int64()),
                         "dst": pa.array(dst[lo:hi], pa.int64()),
                         "t": pa.array(t[lo:hi], pa.int64()),
                         "event_id": pa.array(np.arange(lo, hi), pa.int64())})

    full = GraphFrame(rd.from_arrow(tbl(0, m)).repartition(4), n, None)
    base = GraphFrame(rd.from_arrow(tbl(0, 250)).repartition(3), n, None)
    appended = GraphFrame(base.edges.union(rd.from_arrow(tbl(250, m))),
                          n, None)
    ga, gb = BspGraph.from_graph(appended), BspGraph.from_graph(full)
    assert np.array_equal(ga.wcc(), gb.wcc())
    sa, _, _ = ga.pagerank(iter_count=5, tol=0.0)
    sb, _, _ = gb.pagerank(iter_count=5, tol=0.0)
    assert np.allclose(sa, sb, atol=0)          # identical dedup topology
    # windowed view over the appended union matches too
    wa = BspGraph.from_graph(appended.window(20, 70))
    wb = BspGraph.from_graph(full.window(20, 70))
    assert np.array_equal(wa.wcc(), wb.wcc())
