"""Temporal three-node motif conformance.

Golden fixture transcribed from the reference's global motif test
(raphtory/tests/algo_tests/motifs.rs:20-66: 28-event graph, delta=10,
expected 40-vector) plus counter micro-checks and window-view composition."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

GOLDEN_EDGES = [
    (1, 1, 1), (1, 1, 1), (2, 1, 1), (1, 1, 2), (1, 1, 2), (2, 1, 3),
    (2, 1, 3), (3, 1, 4), (4, 3, 1), (5, 3, 4), (6, 3, 5), (7, 4, 5),
    (8, 5, 6), (9, 5, 8), (10, 7, 5), (11, 8, 5), (12, 1, 9), (13, 9, 1),
    (14, 6, 3), (15, 4, 8), (16, 8, 3), (17, 5, 10), (18, 10, 5),
    (19, 10, 8), (20, 1, 11), (21, 11, 1), (22, 9, 11), (23, 11, 9),
]

GOLDEN_40 = [0, 2, 3, 8, 2, 4, 1, 5, 0, 0, 0, 0, 1, 0, 2, 0, 0, 1, 6, 0,
             0, 1, 10, 2, 0, 1, 0, 0, 0, 0, 1, 0, 2, 3, 2, 4, 1, 2, 4, 1]


def _frame(ray_session, edges):
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    t = np.array([e[0] for e in edges], np.int64)
    s = np.array([e[1] for e in edges], np.int64)
    d = np.array([e[2] for e in edges], np.int64)
    n = int(max(s.max(), d.max())) + 1
    return GraphFrame(rd.from_arrow(pa.table({
        "src": pa.array(s), "dst": pa.array(d), "t": pa.array(t),
        "event_id": pa.array(np.arange(len(s), dtype=np.int64))})), n)


def test_global_motifs_golden(ray_session):
    """motifs.rs:20-66 exact 40-vector at delta=10."""
    from raphtory_ray.algorithms.motifs import global_temporal_three_node_motif
    gf = _frame(ray_session, GOLDEN_EDGES)
    got = global_temporal_three_node_motif(gf, 10)
    assert got.tolist() == GOLDEN_40


def test_multi_delta_consistency(ray_session):
    """multi([d]) == single(d); a huge delta dominates a tiny one
    count-wise in every slot."""
    from raphtory_ray.algorithms.motifs import (
        global_temporal_three_node_motif, temporal_three_node_motif_multi)
    gf = _frame(ray_session, GOLDEN_EDGES)
    multi = temporal_three_node_motif_multi(gf, [1, 10, 1000])
    assert multi.shape == (3, 40)
    assert multi[1].tolist() == GOLDEN_40
    single = global_temporal_three_node_motif(gf, 1000)
    assert multi[2].tolist() == single.tolist()
    assert np.all(multi[2] >= multi[0])


def test_local_motifs_triangle_cases(ray_session):
    """motifs.rs:125-215 (local_motifs_test::test_triangle_motif): the 8
    orderings of a 3-event triangle each light exactly one slot of node 3's
    triangle block (delta=3)."""
    from raphtory_ray.algorithms.motifs import local_temporal_three_node_motif
    cases = [
        # (edges, expected index of the single 1 in node 3's 40-vector)
        ([(1, 1, 2), (2, 3, 2), (3, 1, 3)], 32),   # ij_kj_ik
        ([(1, 1, 2), (2, 3, 1), (3, 2, 3)], 36),   # ij_ki_jk
        ([(1, 1, 2), (2, 2, 3), (3, 1, 3)], 34),   # ij_jk_ik
        ([(1, 1, 2), (2, 1, 3), (3, 2, 3)], 38),   # ij_ik_jk
        ([(1, 1, 2), (2, 3, 2), (3, 3, 1)], 33),   # ij_kj_ki
        ([(1, 1, 2), (2, 3, 1), (3, 3, 2)], 37),   # ij_ki_kj
        ([(1, 1, 2), (2, 2, 3), (3, 3, 1)], 35),   # ij_jk_ki
        ([(1, 1, 2), (2, 1, 3), (3, 3, 2)], 39),   # ij_ik_kj
    ]
    for edges, slot in cases:
        gf = _frame(ray_session, edges)
        mc = local_temporal_three_node_motif(gf, 3)
        want = np.zeros(40, np.int64)
        want[slot] = 1
        assert mc[3].tolist() == want.tolist(), (edges, slot)


def test_local_sums_to_global(ray_session):
    """Σ over nodes of local counts = global counts with triangles ×3 and
    two-node doubling already included (global_temporal_three_node_motifs
    docs: global divides... the reference's GLOBAL keeps star/two-node sums
    and triangle counted once per triangle; local counts each triangle at
    all 3 members)."""
    from raphtory_ray.algorithms.motifs import (
        global_temporal_three_node_motif, local_temporal_three_node_motif)
    gf = _frame(ray_session, GOLDEN_EDGES)
    loc = local_temporal_three_node_motif(gf, 10).sum(axis=0)
    glob = global_temporal_three_node_motif(gf, 10)
    assert loc[:32].tolist() == glob[:32].tolist()
    assert loc[32:].tolist() == (glob[32:] * 3).tolist()


def _random_edges(seed: int, n: int = 9, m: int = 80) -> list:
    """Seeded (t, src, dst) events over few nodes and few timestamps:
    self-loops, tied t and (one in five) repeated events."""
    rng = np.random.default_rng(seed)
    ev = list(zip(rng.integers(0, 12, m).tolist(),
                  rng.integers(0, n, m).tolist(),
                  rng.integers(0, n, m).tolist()))
    return ev + ev[::5]


# events on a star around node 0, both ways, plus a self-loop: no triangle
STAR_EDGES = [(i % 4, 0, 1 + i % 5) for i in range(20)] + \
    [(i % 3, 1 + i % 5, 0) for i in range(12)] + [(2, 3, 3)]


def _local_triangles(edges: list, n: int, deltas: list) -> np.ndarray:
    """(n, len(deltas), 8) triangle counts the per-member way
    (local_temporal_three_node_motifs.rs:182-330): every triangle's events,
    in (t, event) order, are tagged once from each member u — v and w the
    smaller and larger other member — and run through TriangleCounter."""
    from itertools import combinations
    from raphtory_ray.algorithms.motifs import _triangle_count8
    t, s, d = np.array(edges, np.int64).reshape(-1, 3).T
    pairs = {frozenset(p) for p in zip(s.tolist(), d.tolist())}
    out = np.zeros((n, len(deltas), 8), np.int64)
    for tri in combinations(range(n), 3):
        if any(frozenset(p) not in pairs for p in combinations(tri, 2)):
            continue
        idx = np.flatnonzero((s != d) & np.isin(s, tri) & np.isin(d, tri))
        idx = idx[np.argsort(t[idx], kind="stable")]
        src, dst, tt = s[idx], d[idx], t[idx]
        for u in tri:
            v, w = (x for x in tri if x != u)
            uv = ((src == u) & (dst == v)) | ((src == v) & (dst == u))
            dirs = np.where(uv, src == u, dst == w).astype(np.int64)
            uorv = np.where(uv, src == u, np.where(src == w, dst != u,
                                                   src != u)).astype(np.int64)
            for j, delta in enumerate(deltas):
                out[u, j] += _triangle_count8(uv, uorv, dirs, tt, delta)
    return out


@pytest.mark.parametrize("many", [False, True], ids=["p1", "p_many"])
def test_local_triangles_match_per_member_reference(ray_session, monkeypatch,
                                                    many):
    """Each triangle's one 8-vector, scattered to its three members, equals
    the per-member counting of the local reference; and Σ local = global
    with the triangle slots ×3. Seeded random graphs, a graph with no
    triangle and an empty window, deltas 0/3/10/60, at one partition and
    (with test_partition_rule's shrunk sizes) at many."""
    from raphtory_ray.algorithms.motifs import (
        local_temporal_three_node_motifs, temporal_three_node_motif_multi)
    if many:
        from test_partition_rule import _shrink
        _shrink(monkeypatch)
    deltas = [0, 3, 10, 60]
    graphs = [_random_edges(seed) for seed in (1, 2, 3)] + [STAR_EDGES]
    cases = [(_frame(ray_session, ev), ev) for ev in graphs]
    empty = cases[0][0].window(100, 200)
    empty.edges = empty.edges.materialize()
    cases.append((empty, []))
    seen = 0
    for gf, ev in cases:
        loc = local_temporal_three_node_motifs(gf, deltas)
        glob = temporal_three_node_motif_multi(gf, deltas)
        want = _local_triangles(ev, gf.n, deltas)
        seen += int(want.sum())
        assert loc.dtype == glob.dtype == np.int64
        assert loc.shape == (gf.n, len(deltas), 40)
        assert np.array_equal(loc[:, :, 32:], want)
        total = loc.sum(axis=0)
        assert np.array_equal(total[:, :32], glob[:, :32])
        assert np.array_equal(total[:, 32:], glob[:, 32:] * 3)
    assert seen > 0


RICH_CLUB_EDGES = [
    (1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4),
    (1, 4, 5), (2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 3, 4), (2, 2, 6),
    (3, 1, 2), (3, 2, 4), (3, 3, 4), (3, 1, 4), (3, 1, 3), (3, 1, 7),
    (4, 1, 2), (4, 1, 3), (4, 1, 4), (4, 2, 8), (5, 1, 2), (5, 1, 3),
    (5, 1, 4), (5, 2, 4), (5, 3, 9),
]


def test_rich_club_golden(ray_session):
    """motifs.rs:413-477 toy example from the paper: k=3,
    window_size 1/3/5 → 1.0 / 2/3 / 0.5."""
    from raphtory_ray.algorithms.extra import rolling
    from raphtory_ray.algorithms.motifs import temporal_rich_club_coefficient
    gf = _frame(ray_session, RICH_CLUB_EDGES)
    gf.edges = gf.edges.materialize()
    views = rolling(gf, window=1, step=1)
    assert temporal_rich_club_coefficient(gf, views, 3, 1) == \
        pytest.approx(1.0, abs=1e-3)
    assert temporal_rich_club_coefficient(gf, views, 3, 3) == \
        pytest.approx(0.66666, abs=1e-3)
    assert temporal_rich_club_coefficient(gf, views, 3, 5) == \
        pytest.approx(0.5, abs=1e-3)


def test_two_node_counter_micro():
    """three_node_motifs.rs:345-371 two_node_test event sequence."""
    from raphtory_ray.algorithms.motifs import _two_node_count
    dirs = np.array([1, 0, 0], np.int64)
    times = np.array([1, 2, 3], np.int64)
    c = _two_node_count(dirs, times, 5)
    # OUT(1) @1, IN(0) @2, IN(0) @3 → sequences within delta:
    # (1,0,0) → map3d(1,0,0)=4 ; that's the only 3-event motif
    assert c.sum() == 1 and c[4] == 1


def test_window_composes_with_motifs(ray_session):
    """Motifs respect the view algebra: a window that keeps everything
    equals the full count; an empty window counts zero."""
    from raphtory_ray.algorithms.motifs import global_temporal_three_node_motif
    gf = _frame(ray_session, GOLDEN_EDGES)
    full = global_temporal_three_node_motif(gf, 10)
    w = gf.window(0, 1000)
    w.edges = w.edges.materialize()
    assert global_temporal_three_node_motif(w, 10).tolist() == full.tolist()
    w0 = gf.window(100, 200)
    w0.edges = w0.edges.materialize()
    assert global_temporal_three_node_motif(w0, 10).sum() == 0


def test_grouped_window_starts_chunked_matches_direct():
    """the overflow-safe chunked path (huge M forces gid re-basing) must
    return the same window starts as the single-composite-key path."""
    import numpy as np
    from raphtory_ray.algorithms.motifs import _grouped_window_starts
    rng = np.random.default_rng(7)
    gid = np.sort(rng.integers(0, 40, 500)).astype(np.int64)
    t_rel = np.zeros(500, np.int64)
    for g in np.unique(gid):
        m = gid == g
        t_rel[m] = np.sort(rng.integers(0, 900, int(m.sum())))
    delta = 100
    small_m = int(t_rel.max()) + delta + 2
    direct = _grouped_window_starts(gid, t_rel, small_m, delta)
    forced = _grouped_window_starts(gid, t_rel, 1 << 61, delta)  # gpc == 2
    assert np.array_equal(direct, forced)
