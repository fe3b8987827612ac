"""Cypher-subset parity: parser, hash-join semantics vs DuckDB SQL, and
the reference transpiler's test query forms
(raphtory-cypher/src/transpiler/mod.rs:1216-1687)."""
import duckdb
import numpy as np
import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st


def _gf(with_layer=False):
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    rng = np.random.default_rng(11)
    n, m = 30, 200
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    t = rng.integers(0, 100, m)
    cols = {
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64()),
        "t": pa.array(t, pa.int64()),
        "event_id": pa.array(np.arange(m), pa.int64()),
        "w": pa.array(rng.random(m)),
    }
    if with_layer:
        cols["layer"] = pa.array(
            [["buys", "views"][i] for i in rng.integers(0, 2, m)])
    edges = pa.table(cols)
    verts = pa.table({
        "vid": pa.array(np.arange(n), pa.int64()),
        "gid": pa.array([f"u{i:03d}" for i in range(n)]),
        "node_type": pa.array(
            [["hub", "leaf", "mid"][i] for i in rng.integers(0, 3, n)]),
    })
    return GraphFrame(rd.from_arrow(edges), n, verts), edges, verts


def _sql(edges, verts, q):
    con = duckdb.connect()
    con.register("e", edges)
    con.register("v", verts)
    return con.execute(q).fetch_arrow_table()


def _rows(ds_or_tbl):
    rows = ds_or_tbl.take_all() if hasattr(ds_or_tbl, "take_all") \
        else ds_or_tbl.to_pylist()
    return sorted(tuple(r[k] for k in sorted(r)) for r in rows)


def _check(gf, edges, verts, cy, sql):
    from raphtory_ray.query import cypher
    got = _rows(cypher(gf, cy))
    want = _rows(_sql(edges, verts, sql))
    assert got == want, f"{cy}\n{got[:5]} != {want[:5]}"


# ------------------------------------------------------------- parser

def test_parser_shapes():
    from raphtory_ray.query.parser import parse_cypher
    q = parse_cypher("MATCH (a)-[e:KNOWS {w: 2}]->(b), (b)<-[f]-(c) "
                     "WHERE a.x > 1 AND NOT b.y CONTAINS 'z' "
                     "RETURN DISTINCT a.x AS ax, count(*) "
                     "ORDER BY ax DESC LIMIT 3")
    assert len(q.chains) == 2
    assert q.chains[0].edges[0].layer == "KNOWS"
    assert q.chains[0].edges[0].props == {"w": 2}
    assert q.chains[1].edges[0].direction == "left"
    assert q.distinct and q.limit == 3 and not q.order_by[0][1]
    assert q.items[0].alias == "ax"


def test_parser_rejects():
    from raphtory_ray.query.parser import parse_cypher
    with pytest.raises(SyntaxError):
        parse_cypher("MATCH (a) RETURN frobnicate(a)")
    with pytest.raises(SyntaxError):
        parse_cypher("MATCH (a RETURN a")


# ------------------------------------------------- SQL parity (DuckDB)

def test_edge_filter_projection(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH ()-[e]->() WHERE e.time > 50 "
           "RETURN e.src AS s, e.dst AS d, e.t AS t",
           "SELECT src AS s, dst AS d, t FROM e WHERE t > 50")


def test_two_hop_join_count(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e1]->(b)-[e2]->(c) WHERE e1.t < e2.t "
           "RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt FROM e e1 JOIN e e2 "
           "ON e1.dst = e2.src WHERE e1.t < e2.t")


TWO_HOP = ("MATCH (a)-[e1]->(b)-[e2]->(c) WHERE e1.t < e2.t "
           "RETURN count(*) AS cnt")


def test_two_hop_count_executions(ray_session, count_executions):
    """Over a materialized frame, and over a window view of one,
    ``cypher()`` runs the two-hop count on plain tasks and starts no Ray
    Data execution; reading its result starts one."""
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    lo, hi = 20, 70
    for g, where in [(gf, ""),
                     (gf.window(lo, hi),
                      f" AND e1.t >= {lo} AND e1.t < {hi} "
                      f"AND e2.t >= {lo} AND e2.t < {hi}")]:
        before = count_executions()
        ds = cypher(g, TWO_HOP)
        assert count_executions() == before
        rows = ds.take_all()
        assert count_executions() - before <= 1
        want = _sql(edges, verts, "SELECT count(*) AS cnt FROM e e1 JOIN "
                    "e e2 ON e1.dst = e2.src WHERE e1.t < e2.t" + where)
        assert rows == want.to_pylist()


# (query, its run over rows, DuckDB SQL, frame window) per empty case: the
# query with "{x}" as a bound that matches nothing (1000) and as one that
# matches rows (50)
EMPTY_CASES = {
    "where_empties_scan": (
        "MATCH (a)-[e]->(b) WHERE e.t > {x} RETURN a, e.t AS t, e.w AS w",
        "SELECT src AS a, t, w FROM e WHERE t > {x}", None),
    "window_without_edges": (
        "MATCH (a)-[e]->(b) RETURN a, b, e.w AS w",
        "SELECT src AS a, dst AS b, w FROM e WHERE t >= {x} AND t < 100",
        ("{x}", 100)),
    "empty_build_side": (
        "MATCH (a)-[e]->(b)-[f]->(c) WHERE f.t > {x} "
        "RETURN a, c, e.t AS t, f.w AS w",
        "SELECT e1.src AS a, e2.dst AS c, e1.t AS t, e2.w AS w FROM e e1 "
        "JOIN e e2 ON e1.dst = e2.src WHERE e2.t > {x}", None),
    "left_outer_vs_empty": (
        "MATCH (a)-[e]->(b) OPTIONAL MATCH (b)-[f]->(c) WHERE f.t > {x} "
        "RETURN a, b, c, f.w AS fw",
        "SELECT e1.src AS a, e1.dst AS b, f.dst AS c, f.w AS fw FROM e e1 "
        "LEFT JOIN (SELECT * FROM e WHERE t > {x}) f ON e1.dst = f.src",
        None),
    "grouped_return_over_no_rows": (
        "MATCH (a)-[e]->(b) WHERE e.t > {x} "
        "RETURN a, count(*) AS c, min(e.w) AS mw, collect(b) AS bs",
        "SELECT src AS a, count(*) AS c, min(w) AS mw, "
        "list(dst ORDER BY dst) AS bs FROM e WHERE t > {x} GROUP BY src",
        None),
}


@pytest.mark.parametrize("case", sorted(EMPTY_CASES))
def test_empty_results_keep_their_types(ray_session, case):
    """A scan emptied by WHERE, a window without edges, an empty build
    side, a LEFT OUTER join against an empty side and a grouped RETURN
    over no rows each give the column names and types of the same query
    over rows, and DuckDB's rows."""
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    cy, sql, window = EMPTY_CASES[case]
    schemas = []
    for x in (1000, 50):
        g = gf if window is None else gf.window(
            *[x if w == "{x}" else w for w in window])
        ds = cypher(g, cy.format(x=x))
        want = _sql(edges, verts, sql.format(x=x)).to_pylist()
        assert sorted(ds.take_all(), key=repr) == sorted(want, key=repr)
        schema = ds.schema()
        schemas.append(list(zip(schema.names, schema.types)))
    assert schemas[0] == schemas[1]


def test_three_hop_chain(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH ()-[e1]->()-[e2]->()-[e3]->() RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt FROM e e1 "
           "JOIN e e2 ON e1.dst = e2.src JOIN e e3 ON e2.dst = e3.src")


def test_left_direction(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (n)<-[e]-(m) RETURN n AS dst_node, count(*) AS c",
           "SELECT dst AS dst_node, count(*) AS c FROM e GROUP BY dst")


def test_node_prop_where_and_return(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE a.node_type = 'hub' AND b.node_type "
           "= 'leaf' RETURN a.gid AS ag, b.gid AS bg, e.t AS t",
           "SELECT va.gid AS ag, vb.gid AS bg, e.t FROM e "
           "JOIN v va ON e.src = va.vid JOIN v vb ON e.dst = vb.vid "
           "WHERE va.node_type = 'hub' AND vb.node_type = 'leaf'")


def test_node_label_shorthand(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a:hub)-[e]->(b) RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt FROM e JOIN v ON e.src = v.vid "
           "WHERE v.node_type = 'hub'")


def test_shared_var_cycle(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e1]->(b)-[e2]->(a) RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt FROM e e1 JOIN e e2 "
           "ON e1.dst = e2.src AND e2.dst = e1.src")


def test_multi_pattern_shared_node(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e1]->(b), (c)-[e2]->(b) WHERE a <> c "
           "RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt FROM e e1 JOIN e e2 "
           "ON e1.dst = e2.dst WHERE e1.src <> e2.src")


def test_undirected(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]-(b) RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt FROM ("
           "SELECT src, dst FROM e UNION ALL "
           "SELECT dst, src FROM e WHERE dst <> src)")


def test_layer_label_and_type(ray_session):
    gf, edges, verts = _gf(with_layer=True)
    _check(gf, edges, verts,
           "MATCH ()-[e:buys]->() RETURN e.src AS s, type(e) AS ty, "
           "e.t AS t",
           "SELECT src AS s, layer AS ty, t FROM e WHERE layer = 'buys'")


def test_prop_map_and_arith(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e1]->(b)-[e2]->(c) "
           "WHERE e1.t <= e2.t AND e1.t >= (e2.t - 10) "
           "RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt FROM e e1 JOIN e e2 "
           "ON e1.dst = e2.src WHERE e1.t <= e2.t AND e1.t >= e2.t - 10")


def test_aggregates_grouped(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN a AS src, sum(e.w) AS sw, "
           "min(e.t) AS lo, max(e.t) AS hi, avg(e.w) AS mw",
           "SELECT src, sum(w) AS sw, min(t) AS lo, max(t) AS hi, "
           "avg(w) AS mw FROM e GROUP BY src")


def test_count_distinct(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN a AS src, "
           "count(DISTINCT b) AS fanout",
           "SELECT src, count(DISTINCT dst) AS fanout FROM e GROUP BY src")


def test_distinct_rows(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN DISTINCT a AS s, b AS d",
           "SELECT DISTINCT src AS s, dst AS d FROM e")


def test_order_by_limit(ray_session):
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    got = cypher(gf, "MATCH ()-[e]->() RETURN e.event_id AS i, e.t AS t "
                     "ORDER BY t DESC, i ASC LIMIT 5").take_all()
    want = _sql(edges, verts,
                "SELECT event_id AS i, t FROM e "
                "ORDER BY t DESC, event_id ASC LIMIT 5").to_pylist()
    assert [(r["i"], r["t"]) for r in got] == \
        [(r["i"], r["t"]) for r in want]


def test_contains_and_not(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->() WHERE NOT a.gid CONTAINS '1' "
           "RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt FROM e JOIN v ON e.src = v.vid "
           "WHERE v.gid NOT LIKE '%1%'")


def test_starts_ends_with(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->() WHERE a.gid STARTS WITH 'u00' "
           "RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt FROM e JOIN v ON e.src = v.vid "
           "WHERE v.gid LIKE 'u00%'")


def test_match_all_nodes(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (n) RETURN count(n) AS n_nodes",
           "SELECT count(*) AS n_nodes FROM v")


def test_bare_edge_return_expansion(ray_session):
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    out = cypher(gf, "MATCH ()-[e]->() WHERE e.t = 0 RETURN e")
    batch = out.take_all()
    want = _sql(edges, verts, "SELECT * FROM e WHERE t = 0").to_pylist()
    assert len(batch) == len(want)
    assert {"e.src", "e.dst", "e.t", "e.event_id", "e.w"} <= \
        set(batch[0].keys())


def test_self_loop_pattern(ray_session):
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    from raphtory_ray.query import cypher
    edges = pa.table({"src": pa.array([0, 1, 2], pa.int64()),
                      "dst": pa.array([0, 2, 2], pa.int64()),
                      "t": pa.array([1, 2, 3], pa.int64()),
                      "event_id": pa.array([0, 1, 2], pa.int64())})
    gf = GraphFrame(rd.from_arrow(edges), 3)
    out = cypher(gf, "MATCH (b)-[e]->(b) RETURN b AS v").take_all()
    assert sorted(r["v"] for r in out) == [0, 2]


def test_anon_vars_never_capture_user_vars(ray_session):
    """generated anonymous names use '#' (unlexable) so a user variable
    literally named _n1 can't collide with them."""
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    from raphtory_ray.query import cypher
    edges = pa.table({"src": pa.array([0, 0, 1], pa.int64()),
                      "dst": pa.array([1, 1, 2], pa.int64()),
                      "t": pa.array([1, 2, 3], pa.int64()),
                      "event_id": pa.array([0, 1, 2], pa.int64())})
    gf = GraphFrame(rd.from_arrow(edges), 3)
    out = cypher(gf, "MATCH (_n1)-[e]->(b), ()-[f]->(_n1) "
                     "RETURN count(*) AS c").take_all()
    # bindings: e over 3 edges x f edges INTO each e.src:
    # src=0: none; src=1 (two e rows? no - e.src=1 once): f in {0->1,0->1}
    # e=(0,1,t1): f into 0: none; e=(0,1,t2): none; e=(1,2): f into 1: 2
    assert out == [{"c": 2}]
    # RETURN * keeps the user's _n1 but not generated anon vars
    star = cypher(gf, "MATCH (_n1)-[e]->() RETURN *").take_all()
    assert "_n1" in star[0]
    assert all(not k.startswith("#") for k in star[0])


def test_distinct_order_by_hidden_rejected(ray_session):
    from raphtory_ray.query import cypher
    gf, _e, _v = _gf()
    with pytest.raises(SyntaxError):
        cypher(gf, "MATCH (a)-[e]->(b) RETURN DISTINCT a AS x "
                   "ORDER BY e.t")


def test_unary_minus(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH ()-[e]->() WHERE e.t > -1 AND e.t - 200 < -100 "
           "RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt FROM e WHERE t > -1 AND t - 200 < -100")


@pytest.mark.parametrize("seed,n,m,selfloops", [
    (1, 1, 0, False),       # no edges at all: every scan/join is empty
    (2, 5, 3, True),        # tiny, self-loop heavy
    (3, 8, 120, True),      # dup-heavy multigraph (m >> n^2 slots)
    (4, 40, 40, False),     # sparse
])
def test_fuzz_shapes_vs_duckdb(ray_session, seed, n, m, selfloops):
    """join/pushdown machinery across degenerate graph shapes — empty
    inputs, self-loops, heavy edge multiplicity."""
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = src.copy() if (selfloops and m) else rng.integers(0, n, m)
    if selfloops and m:                      # mix loops and non-loops
        flip = rng.random(m) < 0.5
        dst[flip] = rng.integers(0, n, int(flip.sum()))
    edges = pa.table({
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64()),
        "t": pa.array(rng.integers(0, 50, m), pa.int64()),
        "event_id": pa.array(np.arange(m), pa.int64()),
        "w": pa.array(rng.random(m)),
    })
    verts = pa.table({
        "vid": pa.array(np.arange(n), pa.int64()),
        "gid": pa.array([f"u{i}" for i in range(n)]),
        "node_type": pa.array(["a" if i % 2 else "b" for i in range(n)]),
    })
    gf = GraphFrame(rd.from_arrow(edges), n, verts)
    _check(gf, edges, verts,
           "MATCH (a)-[e1]->(b)-[e2]->(c) WHERE e1.t < e2.t "
           "RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt FROM e e1 JOIN e e2 "
           "ON e1.dst = e2.src WHERE e1.t < e2.t")
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(a) RETURN count(*) AS loops",
           "SELECT count(*) AS loops FROM e WHERE src = dst")
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE a.node_type = 'a' "
           "RETURN DISTINCT a AS s, b AS d",
           "SELECT DISTINCT e.src AS s, e.dst AS d FROM e "
           "JOIN v ON e.src = v.vid WHERE v.node_type = 'a'")
    # r4 features across the same degenerate shapes
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE e.t < 10 RETURN a UNION "
           "MATCH (a)-[e]->(b) WHERE e.t >= 40 RETURN a",
           "SELECT src AS a FROM e WHERE t < 10 UNION "
           "SELECT src AS a FROM e WHERE t >= 40")
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN e.event_id AS i ORDER BY i SKIP 1",
           "SELECT event_id AS i FROM e ORDER BY event_id OFFSET 1")
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WITH a, collect(e.t) AS ts "
           "RETURN a, size(ts) AS n",
           "SELECT src AS a, COUNT(*)::BIGINT AS n FROM e GROUP BY src")


def test_skewed_join_subtask_fanout(ray_session, monkeypatch):
    """a hub key routes its whole neighbourhood into one hash partition;
    with a tiny split threshold the join fans out into sub-tasks and
    still returns exactly the same rows."""
    import importlib
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    from raphtory_ray.query import cypher
    cy = importlib.import_module("raphtory_ray.query.cypher")
    monkeypatch.setattr(cy, "_JOIN_SPLIT_ROWS", 10)
    rng = np.random.default_rng(5)
    m = 300
    src = rng.integers(0, 20, m)
    dst = np.zeros(m, np.int64)          # vertex 0 is the hub: all edges
    dst[: m // 2] = 0                    # half point AT the hub,
    dst[m // 2:] = rng.integers(0, 20, m - m // 2)   # half random
    edges = pa.table({"src": pa.array(src, pa.int64()),
                      "dst": pa.array(dst, pa.int64()),
                      "t": pa.array(rng.integers(0, 50, m), pa.int64()),
                      "event_id": pa.array(np.arange(m), pa.int64())})
    gf = GraphFrame(rd.from_arrow(edges), 20)
    got = cypher(gf, "MATCH (a)-[e1]->(b)-[e2]->(c) "
                     "RETURN count(*) AS cnt").take_all()
    con = duckdb.connect()
    con.register("e", edges)
    want = con.execute("SELECT count(*) AS cnt FROM e e1 JOIN e e2 "
                       "ON e1.dst = e2.src").fetchone()[0]
    assert got == [{"cnt": want}]


def test_cypher_composes_with_views(ray_session):
    """cypher() over a windowed/layered GraphFrame sees only the view's
    events — the scan inherits the view's filter stages."""
    gf, edges, verts = _gf(with_layer=True)
    win = gf.window(20, 60).layer("buys")
    from raphtory_ray.query import cypher
    got = cypher(win, "MATCH ()-[e]->() RETURN count(*) AS cnt").take_all()
    want = _sql(edges, verts,
                "SELECT count(*) AS cnt FROM e "
                "WHERE t >= 20 AND t < 60 AND layer = 'buys'").to_pylist()
    assert got[0]["cnt"] == want[0]["cnt"] > 0


def test_reference_netflow_shape(ray_session):
    """the reference transpiler's most complex test form
    (transpiler/mod.rs:1552-1586): three comma-joined patterns sharing
    node vars, one a self-loop, left-direction arrows, count(*)."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (E)<-[nf1]-(B)<-[login1]-(A), (B)<-[prog1]-(B) "
           "WHERE A <> B RETURN count(*) AS cnt",
           "SELECT count(*) AS cnt "
           "FROM e nf1 JOIN e login1 ON nf1.src = login1.dst "
           "JOIN (SELECT * FROM e WHERE src = dst) prog1 "
           "ON prog1.dst = nf1.src "
           "WHERE login1.src <> nf1.src")


# --------------------------------------- round 4: WITH / var-length / OPTIONAL

def test_with_aggregate_having(ray_session):
    """WITH groups by its non-aggregate items and the trailing WHERE
    filters the PROJECTED rows (openCypher's HAVING equivalent)."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WITH a, count(*) AS deg WHERE deg >= 8 "
           "RETURN a, deg",
           "SELECT src AS a, count(*) AS deg FROM e GROUP BY src "
           "HAVING count(*) >= 8")


def test_with_then_match_joins_carry(ray_session):
    """the WITH output joins the next MATCH segment on shared node vars."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WITH b, count(*) AS indeg WHERE indeg >= 6 "
           "MATCH (b)-[e2]->(c) RETURN b, indeg, count(*) AS outp",
           "WITH ind AS (SELECT dst AS b, count(*) AS indeg FROM e "
           "             GROUP BY dst HAVING count(*) >= 6) "
           "SELECT i.b AS b, i.indeg AS indeg, count(*) AS outp "
           "FROM ind i JOIN e ON e.src = i.b GROUP BY i.b, i.indeg")


def test_with_distinct_alias_passthrough(ray_session):
    """WITH DISTINCT a AS x renames a node variable; the next segment's
    pattern (x)->() binds against the carried ids."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE e.w > 0.8 WITH DISTINCT a AS x "
           "MATCH (x)-[e2]->(c) RETURN x, count(*) AS n2",
           "WITH xs AS (SELECT DISTINCT src AS x FROM e WHERE w > 0.8) "
           "SELECT xs.x AS x, count(*) AS n2 FROM xs "
           "JOIN e ON e.src = xs.x GROUP BY xs.x")


def test_with_scalar_in_final_where_and_order(ray_session):
    """a WITH-projected scalar is usable in RETURN / ORDER BY."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WITH a, max(e.w) AS topw "
           "RETURN a, topw ORDER BY topw DESC LIMIT 5",
           "SELECT src AS a, max(w) AS topw FROM e GROUP BY src "
           "ORDER BY topw DESC LIMIT 5")


def test_varlen_reachability_vs_recursive_cte(ray_session):
    """[*1..3] = distinct pairs connected by a path of length 1-3 over
    the distinct edge set — exactly a bounded recursive CTE with UNION."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[*1..3]->(b) RETURN a, count(*) AS n_reach",
           "WITH RECURSIVE base AS (SELECT DISTINCT src, dst FROM e), "
           "r AS (SELECT src AS a, dst AS b, 1 AS k FROM base "
           "      UNION SELECT r.a, x.dst, r.k+1 FROM r "
           "      JOIN base x ON r.b = x.src WHERE r.k < 3), "
           "pairs AS (SELECT DISTINCT a, b FROM r) "
           "SELECT a, count(*) AS n_reach FROM pairs GROUP BY a")


def test_varlen_exact_length_with_start_filter(ray_session):
    """[*2..2] with a path-START restriction (WHERE a < k consumed by the
    frontier, never restricting intermediate hops)."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[*2..2]->(b) WHERE a < 10 RETURN a, b",
           "WITH base AS (SELECT DISTINCT src, dst FROM e), "
           "p2 AS (SELECT DISTINCT b1.src AS a, b2.dst AS b FROM base b1 "
           "       JOIN base b2 ON b1.dst = b2.src) "
           "SELECT a, b FROM p2 WHERE a < 10")


def test_varlen_cycle_closure(ray_session):
    """(a)-[*1..2]->(a) keeps only pairs that close back on the start."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[*1..2]->(a) RETURN count(*) AS n_cyc",
           "WITH RECURSIVE base AS (SELECT DISTINCT src, dst FROM e), "
           "r AS (SELECT src AS a, dst AS b, 1 AS k FROM base "
           "      UNION SELECT r.a, x.dst, r.k+1 FROM r "
           "      JOIN base x ON r.b = x.src WHERE r.k < 2) "
           "SELECT count(*) AS n_cyc FROM "
           "(SELECT DISTINCT a, b FROM r WHERE a = b)")


def test_varlen_layer_filter(ray_session):
    """[:L*1..2] filters EVERY edge on the path to the layer."""
    gf, edges, verts = _gf(with_layer=True)
    _check(gf, edges, verts,
           "MATCH (a)-[:buys*1..2]->(b) RETURN a, b",
           "WITH base AS (SELECT DISTINCT src, dst FROM e "
           "              WHERE layer = 'buys'), "
           "p AS (SELECT src AS a, dst AS b FROM base "
           "      UNION SELECT b1.src, b2.dst FROM base b1 "
           "      JOIN base b2 ON b1.dst = b2.src) "
           "SELECT DISTINCT a, b FROM p")


def test_varlen_unbounded_closure(ray_session):
    """[*1..] (round 5): full reachability closure via the partitioned
    BFS fixpoint — equals the unbounded recursive CTE."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[*1..]->(b) RETURN a, count(*) AS n_reach",
           "WITH RECURSIVE base AS (SELECT DISTINCT src, dst FROM e), "
           "r AS (SELECT src AS a, dst AS b FROM base "
           "      UNION SELECT r.a, x.dst FROM r "
           "      JOIN base x ON r.b = x.src) "
           "SELECT a, count(*) AS n_reach FROM r GROUP BY a")
    # [*] is shorthand for [*1..]
    _check(gf, edges, verts,
           "MATCH (a)-[*]->(b) RETURN count(*) AS n",
           "WITH RECURSIVE base AS (SELECT DISTINCT src, dst FROM e), "
           "r AS (SELECT src AS a, dst AS b FROM base "
           "      UNION SELECT r.a, x.dst FROM r "
           "      JOIN base x ON r.b = x.src) "
           "SELECT count(*) AS n FROM r")


def test_varlen_unbounded_hops_and_floor(ray_session):
    """[r*3..]: Cypher WALK semantics — a pair matches iff SOME walk of
    length >= 3 reaches it (even when a shorter walk exists too);
    length(r) = the minimum such walk length."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[r*3..]->(b) RETURN a, b, length(r) AS hops",
           "WITH RECURSIVE base AS (SELECT DISTINCT src, dst FROM e), "
           "w3 AS (SELECT DISTINCT b1.src AS a, b3.dst AS b FROM base b1 "
           "       JOIN base b2 ON b1.dst = b2.src "
           "       JOIN base b3 ON b2.dst = b3.src), "
           "r AS (SELECT a, b, 3 AS k FROM w3 "
           "      UNION SELECT r.a, x.dst, r.k + 1 FROM r "
           "      JOIN base x ON r.b = x.src WHERE r.k < 50) "
           "SELECT a, b, MIN(k) AS hops FROM r GROUP BY a, b")


def test_varlen_rebind_rejected(ray_session):
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    # a second bind of the same edge name is still rejected
    with pytest.raises(SyntaxError):
        cypher(gf, "MATCH (a)-[e*1..2]->(b), (b)-[e]->(c) RETURN a")


def test_optional_match_preserves_unmatched(ray_session):
    """rows without an optional match survive with nulls; count(x.prop)
    over them is 0 like SQL count over a LEFT JOIN."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) OPTIONAL MATCH (b)-[e2]->(c) "
           "WHERE e2.w > 0.9 RETURN b, count(e2.t) AS n_hi",
           "SELECT e.dst AS b, count(o.t) AS n_hi FROM e "
           "LEFT JOIN (SELECT * FROM e WHERE w > 0.9) o ON o.src = e.dst "
           "GROUP BY e.dst")


def test_optional_match_null_columns(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE e.w > 0.95 "
           "OPTIONAL MATCH (b)-[e2]->(c) WHERE e2.w > 0.97 "
           "RETURN a, b, e2.t AS ot, c",
           "SELECT e.src AS a, e.dst AS b, o.t AS ot, o.dst AS c "
           "FROM (SELECT * FROM e WHERE w > 0.95) e "
           "LEFT JOIN (SELECT * FROM e WHERE w > 0.97) o ON o.src = e.dst")


def test_optional_then_with_pipeline(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) OPTIONAL MATCH (b)-[e2]->(c) "
           "WITH b, count(e2.t) AS fan WHERE fan = 0 "
           "RETURN count(*) AS n_dead",
           "SELECT count(*) AS n_dead FROM ("
           "  SELECT e.dst AS b, count(o.t) AS fan FROM e "
           "  LEFT JOIN e o ON o.src = e.dst GROUP BY e.dst) WHERE fan = 0")


def test_lexer_regressions(ray_session):
    """round-3 advice: 'e.w<-5' must parse as a comparison, and '1.2.3'
    must raise SyntaxError (not ValueError)."""
    from raphtory_ray.query.parser import parse_cypher, BinOp, Lit
    q = parse_cypher("MATCH (a)-[e]->(b) WHERE e.w<-5 RETURN a")
    assert isinstance(q.where, BinOp) and q.where.op == "<"
    assert q.where.right == Lit(-5)
    with pytest.raises(SyntaxError):
        parse_cypher("MATCH (a)-[e]->(b) WHERE e.w = 1.2.3 RETURN a")


# --------------------------------------------- cross-pattern joins (r4)
# Variable-disjoint MATCH patterns: bridging WHERE equalities compile to
# distributed equi-joins (the reference's DataFusion planner does the
# same with its join reordering); an unconstrained product runs as a
# guarded broadcast cross join.

def test_cross_pattern_equality_bridge(ray_session):
    """WHERE b = c joins two disjoint patterns on node equality."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b), (c)-[f]->(d) WHERE b = c AND e.t < 5 "
           "AND f.t < 5 RETURN a AS x, b AS mid, d AS y, "
           "e.event_id AS i1, f.event_id AS i2",
           """SELECT e1.src AS x, e1.dst AS mid, e2.dst AS y,
                     e1.event_id AS i1, e2.event_id AS i2
              FROM e e1 JOIN e e2 ON e1.dst = e2.src
              WHERE e1.t < 5 AND e2.t < 5""")


def test_cross_pattern_prop_equality(ray_session):
    """WHERE e.t = f.t joins disjoint patterns on an int property."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b), (c)-[f]->(d) WHERE e.t = f.t "
           "AND a < c RETURN count(*) AS n",
           """SELECT COUNT(*)::BIGINT AS n FROM e e1 JOIN e e2
              ON e1.t = e2.t WHERE e1.src < e2.src""")


def test_cross_join_guarded_product(ray_session):
    """No bridging predicate: broadcast cross join (node universes)."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a), (b) WHERE a < b RETURN count(*) AS pairs",
           "SELECT (30 * 29 / 2)::BIGINT AS pairs")


def test_cross_join_cap(ray_session, monkeypatch):
    """Both sides over the cap → clear NotImplementedError, not an OOM."""
    import importlib
    cy = importlib.import_module("raphtory_ray.query.cypher")
    gf, edges, verts = _gf()
    monkeypatch.setattr(cy, "_CROSS_CAP", 10)
    with pytest.raises(NotImplementedError, match="cartesian"):
        from raphtory_ray.query import cypher
        cypher(gf, "MATCH (a), (b) RETURN count(*) AS n").take_all()


def test_empty_aggregate_types(ray_session):
    """An empty grouped aggregate takes its key and value types from the
    input's schema (the final runs on an empty table of it) and is int64
    where the schema is lost; group_count's keys keep their type; a
    Cypher aggregate over an empty match is typed by its functions."""
    import ray.data as rd
    from raphtory_ray.core.aggregate import Agg, group_agg, group_count
    from raphtory_ray.query.cypher import cypher
    sch = pa.schema([("k", pa.int32()), ("v", pa.float64())])
    empty = rd.from_arrow(sch.empty_table())
    out = group_agg(empty, ["k"], [Agg("s", "sum", "v")])
    assert out.take_all() == []
    assert out.schema().types == [pa.int32(), pa.float64()]
    lost = empty.map_batches(lambda b: b)
    assert group_agg(lost, ["k"], [Agg("s", "sum", "v")]) \
        .schema().types == [pa.int64(), pa.int64()]
    assert group_count(empty, ["k"]).schema().types == \
        [pa.int32(), pa.int64()]
    gf, _edges, _verts = _gf()
    got = cypher(gf, "MATCH (a)-[e]->(b) WHERE e.t > 1000 RETURN a, "
                     "count(*) AS n, sum(e.w) AS s, avg(e.t) AS m, "
                     "min(e.t) AS lo, collect(e.t) AS ts, "
                     "stDev(e.w) AS sd")
    assert got.take_all() == []
    assert got.schema().types == [pa.int64(), pa.int64(), pa.float64(),
                                  pa.float64(), pa.int64(),
                                  pa.list_(pa.int64()), pa.float64()]


def test_is_null_anti_join(ray_session):
    """OPTIONAL MATCH + IS NULL = nodes with no qualifying out-edge."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a) OPTIONAL MATCH (a)-[e]->(b) WHERE e.t < 3 "
           "WITH a, b WHERE b IS NULL RETURN a",
           """SELECT v.vid AS a FROM v
              LEFT JOIN (SELECT DISTINCT src FROM e WHERE t < 3) s
              ON v.vid = s.src WHERE s.src IS NULL""")


def test_is_not_null(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a) OPTIONAL MATCH (a)-[e]->(b) WHERE e.t < 3 "
           "WITH a, b WHERE b IS NOT NULL RETURN DISTINCT a",
           "SELECT DISTINCT src AS a FROM e WHERE t < 3")


def test_xor_predicate(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE e.t < 10 XOR e.w > 0.5 "
           "RETURN a, b, e.event_id AS i",
           """SELECT src AS a, dst AS b, event_id AS i FROM e
              WHERE (t < 10) != (w > 0.5)""")


def test_skip_pagination(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN a, b, e.event_id AS i "
           "ORDER BY i SKIP 5 LIMIT 7",
           """SELECT src AS a, dst AS b, event_id AS i FROM e
              ORDER BY event_id LIMIT 7 OFFSET 5""")
    # SKIP without LIMIT
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN e.event_id AS i ORDER BY i SKIP 195",
           "SELECT event_id AS i FROM e ORDER BY event_id OFFSET 195")


def test_union_and_union_all(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE e.t < 5 RETURN a UNION "
           "MATCH (a)-[e]->(b) WHERE e.t > 95 RETURN a",
           """SELECT src AS a FROM e WHERE t < 5 UNION
              SELECT src AS a FROM e WHERE t > 95""")
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE e.t < 5 RETURN a UNION ALL "
           "MATCH (a)-[e]->(b) WHERE e.t > 95 RETURN a",
           """SELECT src AS a FROM e WHERE t < 5 UNION ALL
              SELECT src AS a FROM e WHERE t > 95""")


def test_union_mismatched_columns_rejected(ray_session):
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    with pytest.raises(SyntaxError, match="same columns"):
        cypher(gf, "MATCH (a)-[e]->(b) RETURN a UNION "
                   "MATCH (a)-[e]->(b) RETURN b")
    with pytest.raises(SyntaxError, match="mix UNION"):
        cypher(gf, "MATCH (a)-[e]->(b) RETURN a UNION "
                   "MATCH (a)-[e]->(b) RETURN a UNION ALL "
                   "MATCH (a)-[e]->(b) RETURN a")


def test_collect_grouped_vs_duckdb(ray_session):
    """collect() returns null-dropped values sorted ascending."""
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    got = {r["a"]: r["dsts"] for r in cypher(
        gf, "MATCH (a)-[e]->(b) WHERE e.t < 10 "
            "RETURN a, collect(b) AS dsts").take_all()}
    want = {r["a"]: r["dsts"] for r in _sql(
        edges, verts,
        """SELECT src AS a, LIST(dst ORDER BY dst) AS dsts
           FROM e WHERE t < 10 GROUP BY src""").to_pylist()}
    assert {k: list(v) for k, v in got.items()} == want


def test_collect_mixed_aggs_and_global(ray_session):
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    rows = cypher(gf, "MATCH (a)-[e]->(b) WHERE e.t < 5 "
                      "RETURN a, collect(e.t) AS ts, count(*) AS n, "
                      "max(e.t) AS mx").take_all()
    for r in rows:
        assert len(r["ts"]) == r["n"]
        assert max(r["ts"]) == r["mx"]
        assert list(r["ts"]) == sorted(r["ts"])
    g = cypher(gf, "MATCH (a)-[e]->(b) WHERE e.t < 5 "
                   "RETURN collect(e.event_id) AS ids").take_all()
    want = _sql(edges, verts,
                "SELECT LIST(event_id ORDER BY event_id) AS ids "
                "FROM e WHERE t < 5").to_pylist()
    assert [list(g[0]["ids"])] == [w["ids"] for w in want]


_SD_SQL = ("CASE WHEN COUNT(*) > 1 THEN "
           "sqrt(GREATEST(COUNT(*)*SUM(t*t) - SUM(t)*SUM(t), 0)"
           " / (COUNT(*)*(COUNT(*)-1.0))) ELSE 0.0 END")
_SDP_SQL = ("sqrt(GREATEST(COUNT(*)*SUM(t*t) - SUM(t)*SUM(t), 0)"
            " / (COUNT(*)*COUNT(*)*1.0))")


def test_stdev_grouped_vs_duckdb(ray_session):
    """stDev/stDevP over integer inputs are bit-exact against the same
    (n·Σx²−(Σx)²)/(n·(n−ddof)) closed form in DuckDB (every partial is
    an exact float64 integer; div and sqrt correctly rounded)."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN a AS src, count(*) AS n, "
           "stDev(e.t) AS sd, stDevP(e.t) AS sdp",
           f"SELECT src, COUNT(*)::BIGINT AS n, {_SD_SQL} AS sd, "
           f"{_SDP_SQL} AS sdp FROM e GROUP BY src")


def test_stdev_global_and_numpy(ray_session):
    import numpy as np
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    t = edges["t"].to_numpy()
    row = cypher(gf, "MATCH (a)-[e]->(b) RETURN stDev(e.t) AS sd, "
                     "stDevP(e.t) AS sdp, avg(e.t) AS m").take_all()[0]
    assert row["sd"] == pytest.approx(np.std(t, ddof=1), rel=1e-12)
    assert row["sdp"] == pytest.approx(np.std(t, ddof=0), rel=1e-12)
    # single sample → 0.0 (Neo4j), empty match → 0.0
    one = cypher(gf, "MATCH (a)-[e]->(b) WHERE e.event_id = 3 "
                     "RETURN stDev(e.t) AS sd").take_all()
    assert one == [{"sd": 0.0}]
    empty = cypher(gf, "MATCH (a)-[e]->(b) WHERE e.t > 10000 "
                       "RETURN stDev(e.t) AS sd, count(*) AS n").take_all()
    assert empty == [{"sd": 0.0, "n": 0}]


def test_stdev_through_with_and_collect_mix(ray_session):
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    # WITH carry: stdev of a projected expression, then HAVING-filter
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WITH a, stDevP(e.t) AS sdp "
           "WHERE sdp > 10.0 RETURN a AS src, sdp",
           f"SELECT src, sdp FROM (SELECT src, {_SDP_SQL} AS sdp "
           "FROM e GROUP BY src) WHERE sdp > 10.0")
    # mixed with collect routes through the map_groups path
    rows = cypher(gf, "MATCH (a)-[e]->(b) WHERE e.t < 20 "
                      "RETURN a, collect(e.t) AS ts, "
                      "stDev(e.t) AS sd").take_all()
    import numpy as np
    for r in rows:
        want = float(np.std(np.asarray(r["ts"], float), ddof=1)) \
            if len(r["ts"]) > 1 else 0.0
        assert r["sd"] == pytest.approx(want, rel=1e-12)


def test_size_of_collect_through_with(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WITH b, collect(e.w) AS ws "
           "RETURN b AS dst, size(ws) AS n_in",
           """SELECT dst, COUNT(*)::BIGINT AS n_in FROM e GROUP BY dst""")


def test_unwind_literal_list(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "UNWIND [10, 50, 90] AS th MATCH (a)-[e]->(b) "
           "WHERE e.t >= th RETURN th, count(*) AS n",
           """SELECT th, COUNT(*)::BIGINT AS n
              FROM (VALUES (10), (50), (90)) v(th)
              JOIN e ON e.t >= th GROUP BY th""")


def test_unwind_only_and_eq_bridge(ray_session):
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    rows = cypher(gf, "UNWIND [3, 1, 2] AS x RETURN x ORDER BY x").take_all()
    assert [r["x"] for r in rows] == [1, 2, 3]
    _check(gf, edges, verts,
           "UNWIND [0, 5, 7] AS x MATCH (a)-[e]->(b) WHERE a = x "
           "RETURN x, count(*) AS n",
           """SELECT x, COUNT(*)::BIGINT AS n
              FROM (VALUES (0), (5), (7)) v(x)
              JOIN e ON e.src = x GROUP BY x""")


def test_scalar_functions_vs_duckdb(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN id(a) AS i, abs(e.w - 0.5) AS aw, "
           "toInteger(e.w + e.t) AS iw, toFloat(e.t) AS ft, "
           "e.event_id AS eid",
           """SELECT src AS i, abs(w - 0.5) AS aw,
                     trunc(w + t)::BIGINT AS iw, t::DOUBLE AS ft,
                     event_id AS eid FROM e""")


def test_coalesce_after_optional(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE e.t < 5 "
           "OPTIONAL MATCH (b)-[f]->(c) WHERE f.t > 95 "
           "WITH a, e.event_id AS eid, f.t AS ft "
           "RETURN a, eid, coalesce(ft, -1) AS nxt",
           """WITH hi AS (SELECT * FROM e WHERE t < 5),
           nx AS (SELECT * FROM e WHERE t > 95)
           SELECT hi.src AS a, hi.event_id AS eid,
                  COALESCE(nx.t, -1) AS nxt
           FROM hi LEFT JOIN nx ON nx.src = hi.dst""")


def test_scalar_fn_rejects(ray_session):
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    with pytest.raises(SyntaxError, match="node variable"):
        cypher(gf, "MATCH (a)-[e]->(b) RETURN id(e.w) AS x")
    with pytest.raises(SyntaxError, match="unsupported function"):
        cypher(gf, "MATCH (a)-[e]->(b) RETURN frob(e.w) AS x")


def test_mul_div_mod_precedence(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE e.t % 7 = 3 "
           "RETURN a, b, e.t * 2 + 1 AS x, e.t / 4 AS q, "
           "e.event_id AS eid",
           """SELECT src AS a, dst AS b, t * 2 + 1 AS x, t // 4 AS q,
                     event_id AS eid FROM e WHERE t % 7 = 3""")
    # precedence: 2 + t * 3 parses as 2 + (t * 3)
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN e.event_id AS eid, "
           "2 + e.t * 3 AS y",
           "SELECT event_id AS eid, 2 + t * 3 AS y FROM e")


def test_string_functions(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE toUpper(a.gid) STARTS WITH 'U00' "
           "RETURN DISTINCT a.gid AS g, toLower(toUpper(a.gid)) AS lg",
           """SELECT DISTINCT v.gid AS g, lower(upper(v.gid)) AS lg
              FROM e JOIN v ON e.src = v.vid
              WHERE upper(v.gid) LIKE 'U00%'""")


def test_union_trailing_order_skip_limit(ray_session):
    """trailing ORDER BY/SKIP/LIMIT orders the COMBINED union result
    (SQL semantics, per the reference's DataFusion transpile)."""
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    got = cypher(gf, "MATCH (a)-[e]->(b) WHERE e.t < 3 RETURN e.t AS t "
                     "UNION ALL MATCH (a)-[e]->(b) WHERE e.t < 2 "
                     "RETURN e.t AS t ORDER BY t DESC LIMIT 4").take_all()
    want = _sql(edges, verts,
                "SELECT t FROM (SELECT t FROM e WHERE t < 3 UNION ALL "
                "SELECT t FROM e WHERE t < 2) ORDER BY t DESC LIMIT 4"
                ).to_pylist()
    assert [r["t"] for r in got] == [r["t"] for r in want]
    with pytest.raises(SyntaxError, match="after the last branch"):
        cypher(gf, "MATCH (a)-[e]->(b) RETURN a ORDER BY a "
                   "UNION MATCH (a)-[e]->(b) RETURN a")


def test_mod_null_semantics(ray_session):
    """% over OPTIONAL-MATCH nulls stays NULL (not NaN) and int-typed."""
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    rows = cypher(gf, "MATCH (a)-[e]->(b) WHERE e.t < 3 "
                      "OPTIONAL MATCH (b)-[f]->(c) WHERE f.t > 1000 "
                      "WITH e.t AS t, f.t AS ft "
                      "RETURN t, ft % 2 AS m").take_all()
    assert rows and all(r["m"] is None for r in rows)
    assert all(isinstance(r["t"], int) for r in rows)


def test_global_collect_empty_match(ray_session):
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    rows = cypher(gf, "MATCH (a)-[e]->(b) WHERE e.t > 1000 "
                      "RETURN collect(e.t) AS ts, count(*) AS n").take_all()
    assert len(rows) == 1
    assert list(rows[0]["ts"]) == [] and rows[0]["n"] == 0


def test_in_list_vs_duckdb(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE id(a) IN [3, 7, 11] "
           "RETURN id(a) AS a, id(b) AS b, e.event_id AS eid",
           "SELECT src AS a, dst AS b, event_id AS eid FROM e "
           "WHERE src IN (3, 7, 11)")
    # NOT x IN list, and IN over a computed expression
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE NOT e.t % 10 IN [0, 1, 2, 3, 4] "
           "RETURN count(*) AS n",
           "SELECT count(*) AS n FROM e WHERE NOT t % 10 IN (0, 1, 2, 3, 4)")
    # IN as a projected value (null-in semantics don't arise: t not null)
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN e.event_id AS eid, "
           "e.t IN [5, 6] AS hit",
           "SELECT event_id AS eid, t IN (5, 6) AS hit FROM e")
    # string membership on the node_type dimension column
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE a.node_type IN ['hub', 'mid'] "
           "RETURN count(*) AS n",
           "SELECT count(*) AS n FROM e JOIN v ON e.src = v.vid "
           "WHERE v.node_type IN ('hub', 'mid')")


def test_in_empty_list_and_rejects(ray_session):
    gf, edges, verts = _gf()
    from raphtory_ray.query import cypher
    got = cypher(gf, "MATCH (a)-[e]->(b) WHERE e.t IN [] "
                     "RETURN count(*) AS n").to_pandas()
    assert got["n"].tolist() == [0]
    with pytest.raises(SyntaxError):
        cypher(gf, "MATCH (a)-[e]->(b) WHERE e.t IN e.w RETURN a")


def test_return_star_anonymous_edge(ray_session):
    """MATCH ()-[]->() RETURN * — the reference names the anonymous
    relationship r_1 and returns its columns (transpiler select_unnamed)."""
    gf, edges, verts = _gf()
    from raphtory_ray.query import cypher
    got = cypher(gf, "MATCH ()-[]->() RETURN *").take_all()
    assert len(got) == edges.num_rows
    assert set(got[0]) == {"r_1.src", "r_1.dst", "r_1.t",
                           "r_1.event_id", "r_1.w"}
    want = sorted((r["src"], r["dst"], r["event_id"])
                  for r in edges.to_pylist())
    assert sorted((r["r_1.src"], r["r_1.dst"], r["r_1.event_id"])
                  for r in got) == want


def test_return_star_after_with(ray_session):
    """RETURN * after WITH: scope = WITH projections + final-segment
    MATCH variables."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WITH b, count(*) AS indeg WHERE indeg >= 8 "
           "MATCH (b)-[e2]->(c) RETURN *",
           """WITH ind AS (
                SELECT dst AS b, COUNT(*) AS indeg FROM e
                GROUP BY dst HAVING COUNT(*) >= 8)
              SELECT i.b AS b, i.indeg AS indeg, x.dst AS c,
                     x.src AS "e2.src", x.dst AS "e2.dst", x.t AS "e2.t",
                     x.event_id AS "e2.event_id", x.w AS "e2.w"
              FROM ind i JOIN e x ON x.src = i.b""")


# ------------------------------------------- CASE / regex / string fns

def test_case_searched(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN CASE WHEN e.w > 0.5 THEN 'hi' "
           "ELSE 'lo' END AS band, count(*) AS c",
           "SELECT CASE WHEN w > 0.5 THEN 'hi' ELSE 'lo' END AS band, "
           "count(*) AS c FROM e GROUP BY 1")


def test_case_simple_operand(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a) RETURN CASE a.node_type WHEN 'hub' THEN 1 "
           "WHEN 'mid' THEN 2 ELSE 0 END AS k, count(*) AS c",
           "SELECT CASE node_type WHEN 'hub' THEN 1 WHEN 'mid' THEN 2 "
           "ELSE 0 END AS k, count(*) AS c FROM v GROUP BY 1")


def test_case_no_else_yields_null(ray_session):
    """Missing ELSE ⇒ NULL, and int/float branch mix unifies to float."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE CASE WHEN e.w > 0.9 THEN e.w END "
           "IS NOT NULL RETURN count(*) AS c",
           "SELECT count(*) AS c FROM e WHERE w > 0.9")
    from raphtory_ray.query import cypher
    got = cypher(gf, "MATCH (a)-[e]->(b) RETURN sum(CASE WHEN e.w > 0.5 "
                     "THEN e.w ELSE 0 END) AS s").to_pandas()["s"][0]
    want = _sql(edges, verts, "SELECT SUM(CASE WHEN w > 0.5 THEN w ELSE 0 "
                              "END) AS s FROM e")["s"][0].as_py()
    assert abs(got - want) < 1e-9  # summation-order ulp tolerance


def test_regex_match(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a) WHERE a.gid =~ 'u0[01].' RETURN a.gid AS g",
           "SELECT gid AS g FROM v WHERE regexp_full_match(gid, 'u0[01].')")


def test_string_scalar_fns(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a) RETURN replace(a.gid, 'u', 'x') AS r, "
           "substring(a.gid, 1, 2) AS s, left(a.gid, 2) AS l, "
           "right(a.gid, 2) AS rr, reverse(a.gid) AS rev",
           "SELECT replace(gid,'u','x') AS r, substr(gid,2,2) AS s, "
           "left(gid,2) AS l, right(gid,2) AS rr, reverse(gid) AS rev "
           "FROM v")


def test_numeric_scalar_fns(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN sum(floor(e.w * 10.0)) AS f, "
           "sum(ceil(e.w)) AS c, sum(round(e.w)) AS r",
           "SELECT SUM(FLOOR(w * 10.0)) AS f, SUM(CEIL(w)) AS c, "
           "SUM(ROUND(w, 0)) AS r FROM e")
    from raphtory_ray.query import cypher
    got = cypher(gf, "MATCH (a)-[e]->(b) RETURN sum(sqrt(e.w)) AS q"
                 ).to_pandas()["q"][0]
    want = _sql(edges, verts,
                "SELECT SUM(SQRT(w)) AS q FROM e")["q"][0].as_py()
    assert abs(got - want) < 1e-9  # summation-order ulp tolerance


def test_keyword_property_name(ray_session):
    """Property names that collide with keywords parse after '.'"""
    from raphtory_ray.query.parser import parse_cypher
    q = parse_cypher("MATCH (a)-[e]->(b) WHERE e.end > 5 RETURN a")
    assert q.where.left.name == "end"


def test_bool_literals(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN CASE WHEN e.w > 0.5 THEN true "
           "ELSE false END AS hot, count(*) AS c",
           "SELECT w > 0.5 AS hot, count(*) AS c FROM e GROUP BY 1")
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE (e.w > 0.5) = true "
           "RETURN count(*) AS c",
           "SELECT count(*) AS c FROM e WHERE w > 0.5")


def test_parser_fuzz_clean_errors():
    """Any input either parses or raises SyntaxError/NotImplementedError —
    never an internal exception (seeded random + mutations of a valid
    query covering CASE/regex/ORDER BY)."""
    import random
    import string

    from raphtory_ray.query.parser import parse_cypher
    random.seed(7)
    alphabet = string.ascii_letters + string.digits \
        + " ()[]{}<>-=~.,:'\"*/%+_$#@!"
    base = ("MATCH (a)-[e:T]->(b) WHERE e.w > 1.5 AND a.gid =~ 'u.*' "
            "RETURN CASE WHEN e.w > 2 THEN 'x' ELSE 'y' END AS k, "
            "count(*) AS c ORDER BY c DESC LIMIT 3")
    for i in range(1000):
        s = "".join(random.choice(alphabet)
                    for _ in range(random.randint(1, 60)))
        try:
            parse_cypher(s)
        except (SyntaxError, NotImplementedError):
            pass
    for i in range(1000):
        s = list(base)
        for _ in range(random.randint(1, 4)):
            j = random.randrange(len(s))
            op = random.random()
            if op < 0.4:
                s[j] = random.choice(alphabet)
            elif op < 0.7:
                del s[j]
            else:
                s.insert(j, random.choice(alphabet))
        try:
            parse_cypher("".join(s))
        except (SyntaxError, NotImplementedError):
            pass


def test_distinct_paths(ray_session):
    """DISTINCT edge cases across both dedup paths: string keys (Ray
    groupby fallback), integer keys (raw hash-route fast path), and
    nullable keys from OPTIONAL MATCH."""
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN DISTINCT a.node_type AS ty",
           "SELECT DISTINCT v.node_type AS ty FROM e JOIN v "
           "ON e.src = v.vid")
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN DISTINCT a AS s, b AS d",
           "SELECT DISTINCT src AS s, dst AS d FROM e")

    def rows_set(x):
        rows = x.take_all() if hasattr(x, "take_all") else x.to_pylist()
        return set(tuple(r[k] for k in sorted(r)) for r in rows)

    got = rows_set(cypher(gf, "MATCH (a)-[e]->(b) WHERE e.w > 0.95 "
                              "OPTIONAL MATCH (b)-[f]->(c) WHERE "
                              "f.w > 0.95 RETURN DISTINCT a AS s, "
                              "c AS nxt"))
    want = rows_set(_sql(edges, verts, """
        WITH hi AS (SELECT * FROM e WHERE w > 0.95)
        SELECT DISTINCT l.src AS s, r.dst AS nxt
        FROM hi l LEFT JOIN hi r ON r.src = l.dst"""))
    assert got == want


def test_varlen_named_binding_hops(ray_session):
    """[r*1..3]: length(r) = minimum hop count per reachable pair (BFS
    level), usable in RETURN and WHERE; unnamed patterns unchanged."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[r*1..3]->(b) RETURN a AS src, b AS dst, "
           "length(r) AS hops",
           """WITH RECURSIVE dedup AS (SELECT DISTINCT src, dst FROM e),
              reach AS (
                SELECT src, dst, 1 AS k FROM dedup
                UNION
                SELECT r.src, e2.dst, r.k + 1 FROM reach r
                JOIN dedup e2 ON e2.src = r.dst WHERE r.k < 3)
              SELECT src, dst, MIN(k)::BIGINT AS hops FROM reach
              GROUP BY 1, 2""")
    _check(gf, edges, verts,
           "MATCH (a)-[r*1..3]->(b) WHERE length(r) = 2 "
           "RETURN count(*) AS n",
           """WITH RECURSIVE dedup AS (SELECT DISTINCT src, dst FROM e),
              reach AS (SELECT src, dst, 1 AS k FROM dedup
                UNION SELECT r.src, e2.dst, r.k + 1 FROM reach r
                JOIN dedup e2 ON e2.src = r.dst WHERE r.k < 3),
              mins AS (SELECT src, dst, MIN(k) AS hops FROM reach
                       GROUP BY 1, 2)
              SELECT COUNT(*)::BIGINT AS n FROM mins WHERE hops = 2""")


def test_length_rejects_non_varlen(ray_session):
    gf, edges, verts = _gf()
    from raphtory_ray.query import cypher
    with pytest.raises(SyntaxError):
        cypher(gf, "MATCH (a)-[e]->(b) RETURN length(e) AS n")


def test_review_fixes_r4(ray_session):
    """Review regressions: RETURN * after WITH skips varlen bindings;
    multi-arg string fns validate arity; round() halves away from zero;
    right(s, 0) is empty."""
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    got = cypher(gf, "MATCH (a)-[e]->(b) WITH a AS x, b AS y "
                     "MATCH (y)-[r*1..2]->(c) RETURN *").take_all()
    assert got and sorted(got[0]) == ["c", "x", "y"]
    for bad in ["replace(a.gid, 'u')", "substring(a.gid)", "left(a.gid)",
                "right(a.gid)", "split(a.gid)",
                "replace(a.gid, 'u', 'x', 'y')"]:
        with pytest.raises(SyntaxError):
            cypher(gf, f"MATCH (a) RETURN {bad} AS r")
    _check(gf, edges, verts,
           "MATCH (a) RETURN right(a.gid, 0) AS r, "
           "round(toFloat(a.vid) + 0.5) AS h",
           "SELECT right(gid, 0) AS r, ROUND(vid + 0.5, 0) AS h FROM v")


def test_startnode_endnode(ray_session):
    from raphtory_ray.query.cypher import cypher
    gf, edges, verts = _gf()
    got = _rows(cypher(
        gf, "MATCH (a)-[r]->(b) WHERE a.vid < 4 "
            "RETURN startNode(r) AS s, endNode(r) AS d, a.vid AS av"))
    want = _rows(_sql(edges, verts, """
        SELECT src AS s, dst AS d, src AS av
        FROM e WHERE src < 4"""))
    assert got == want
    # startNode equals the left binding, endNode the right one
    t = cypher(gf, "MATCH (a)-[r]->(b) "
                   "RETURN a.vid AS av, startNode(r) AS s, "
                   "b.vid AS bv, endNode(r) AS d")
    rows = t.take_all() if hasattr(t, "take_all") else t.to_pylist()
    assert all(r["av"] == r["s"] and r["bv"] == r["d"] for r in rows)


def test_startnode_requires_edge_var(ray_session):
    from raphtory_ray.query.cypher import cypher
    gf, _e, _v = _gf()
    with pytest.raises(SyntaxError):
        cypher(gf, "MATCH (a)-[r]->(b) RETURN startNode(a)")


def test_count_distinct_excludes_nulls(ray_session):
    """openCypher count(DISTINCT x) excludes nulls (review fix)."""
    from raphtory_ray.query.cypher import cypher
    gf, edges, verts = _gf()
    got = _rows(cypher(
        gf, "MATCH (a)-[e]->(b) OPTIONAL MATCH (b)-[f]->(c) "
            "WHERE f.w > 1e9 RETURN count(DISTINCT c) AS n"))
    assert got == [(0,)]
    # grouped: all-null groups appear with 0
    t = cypher(gf, "MATCH (a)-[e]->(b) OPTIONAL MATCH (b)-[f]->(c) "
                   "WHERE f.w > 1e9 "
                   "RETURN a.node_type AS ty, count(DISTINCT c) AS n")
    rows = t.take_all()
    assert rows and all(r["n"] == 0 for r in rows)


def test_scalar_where_and_empty_aggregates(ray_session):
    """Constant WHERE predicates broadcast; count/sum of no rows = 0
    (review fixes)."""
    from raphtory_ray.query.cypher import cypher
    gf, edges, verts = _gf()
    n_all = cypher(gf, "MATCH (a)-[e]->(b) RETURN count(*) AS n") \
        .take_all()[0]["n"]
    assert cypher(gf, "MATCH (a)-[e]->(b) WHERE 5 % 2 = 1 "
                      "RETURN count(*) AS n").take_all()[0]["n"] == n_all
    assert cypher(gf, "MATCH (a)-[e]->(b) WHERE 5 % 2 = 0 "
                      "RETURN count(*) AS n").take_all()[0]["n"] == 0
    got = cypher(gf, "MATCH (a)-[e]->(b) WHERE e.t > 1000000 "
                     "RETURN sum(e.t) AS s, count(*) AS c").take_all()
    assert got == [{"s": 0, "c": 0}]


# ------------------------------------------ round-5: zero-length paths

def test_varlen_zero_length_reachability(ray_session):
    """[*0..2]: one identity pair per vertex (0 hops, vertices table is
    the universe) plus the 1..2-hop closure."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[*0..2]->(b) RETURN a, count(*) AS n_reach",
           "WITH RECURSIVE base AS (SELECT DISTINCT src, dst FROM e), "
           "r AS (SELECT vid AS a, vid AS b, 0 AS k FROM v "
           "      UNION SELECT r.a, x.dst, r.k+1 FROM r "
           "      JOIN base x ON r.b = x.src WHERE r.k < 2), "
           "pairs AS (SELECT DISTINCT a, b FROM r) "
           "SELECT a, count(*) AS n_reach FROM pairs GROUP BY a")


def test_varlen_zero_only_identity(ray_session):
    """[*0..0] = pure identity: every vertex maps to itself only."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[*0..0]->(b) RETURN a, b",
           "SELECT vid AS a, vid AS b FROM v")


def test_varlen_zero_hops_column(ray_session):
    """[r*0..2]: length(r) = min hops, 0 on the identity rows."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[r*0..2]->(b) RETURN a, b, length(r) AS hops",
           "WITH RECURSIVE base AS (SELECT DISTINCT src, dst FROM e), "
           "r AS (SELECT vid AS a, vid AS b, 0 AS k FROM v "
           "      UNION SELECT r.a, x.dst, r.k+1 FROM r "
           "      JOIN base x ON r.b = x.src WHERE r.k < 2) "
           "SELECT a, b, MIN(k) AS hops FROM r GROUP BY 1, 2")


def test_varlen_zero_start_filter(ray_session):
    """Path-start WHERE applies to the identity rows too."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[*0..1]->(b) WHERE a < 5 RETURN a, b",
           "WITH base AS (SELECT DISTINCT src, dst FROM e), "
           "r AS (SELECT vid AS a, vid AS b FROM v "
           "      UNION SELECT src, dst FROM base) "
           "SELECT a, b FROM r WHERE a < 5")


def test_varlen_zero_cycle(ray_session):
    """(a)-[*0..2]->(a): identity makes every vertex a trivial cycle."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[*0..2]->(a) RETURN count(*) AS n",
           "SELECT count(*) AS n FROM v")


# --------------------------------------- round-5: percentile aggregates

def test_percentile_cont_matches_duckdb(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN a, "
           "percentileCont(e.event_id, 0.5) AS med",
           "SELECT src AS a, quantile_cont(event_id, 0.5) AS med "
           "FROM e GROUP BY src")


def test_percentile_disc_nearest_rank(ray_session):
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN a, "
           "percentileDisc(e.event_id, 0.75) AS p75",
           "WITH ranked AS (SELECT src, event_id, "
           "  ROW_NUMBER() OVER (PARTITION BY src ORDER BY event_id) rn, "
           "  COUNT(*) OVER (PARTITION BY src) n FROM e) "
           "SELECT src AS a, event_id::DOUBLE AS p75 FROM ranked "
           "WHERE rn = GREATEST(CEIL(0.75 * n), 1)")


def test_percentile_global_and_errors(ray_session):
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    t = _rows(cypher(gf, "MATCH (a)-[e]->(b) "
                         "RETURN percentileCont(e.w, 0.0) AS p0, "
                         "percentileCont(e.w, 1.0) AS p1"))
    w = edges["w"].to_numpy()
    vals = sorted(t[0])
    assert abs(vals[0] - w.min()) < 1e-12
    assert abs(vals[1] - w.max()) < 1e-12
    with pytest.raises(ValueError):
        cypher(gf, "MATCH (a)-[e]->(b) "
                   "RETURN percentileCont(e.w, 1.5) AS x")
    with pytest.raises(SyntaxError):
        cypher(gf, "MATCH (a)-[e]->(b) RETURN percentileCont(e.w) AS x")


def test_distinct_in_all_aggregates(ray_session):
    """round-5: DISTINCT inside sum/avg/collect and mixed with other
    aggregates (Neo4j allows DISTINCT in every aggregating function)."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN a, sum(DISTINCT b) AS sd, "
           "count(e.t) AS n",
           "SELECT src AS a, SUM(DISTINCT dst) AS sd, COUNT(t) AS n "
           "FROM e GROUP BY src")
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN avg(DISTINCT b) AS ad",
           "SELECT AVG(DISTINCT dst) AS ad FROM e")
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN a, collect(DISTINCT b) AS nbrs",
           "SELECT src AS a, list_sort(list(DISTINCT dst)) AS nbrs "
           "FROM e GROUP BY src")
    # count(DISTINCT) keeps its distributed fast path and mixes now too
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) RETURN a, count(DISTINCT b) AS nd, "
           "max(e.w) AS mw",
           "SELECT src AS a, COUNT(DISTINCT dst) AS nd, MAX(w) AS mw "
           "FROM e GROUP BY src")


def test_optional_match_disjoint_patterns(ray_session):
    """round-5: OPTIONAL MATCH with no shared variable — cartesian when
    the optional side matches, null-pad when it matches nothing."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE e.w > 0.95 "
           "OPTIONAL MATCH (c)-[f]->(d) WHERE f.w > 0.99 "
           "RETURN a, b, c, d",
           "WITH hi AS (SELECT src, dst FROM e WHERE w > 0.95), "
           "lo AS (SELECT src AS c, dst AS d FROM e WHERE w > 0.99) "
           "SELECT hi.src AS a, hi.dst AS b, lo.c, lo.d "
           "FROM hi LEFT JOIN lo ON true")
    # optional side empty: left rows survive, optional columns null
    _check(gf, edges, verts,
           "MATCH (a)-[e]->(b) WHERE e.w > 0.95 "
           "OPTIONAL MATCH (c)-[f]->(d) WHERE f.w > 2.0 "
           "RETURN a, b, count(f.t) AS n",
           "SELECT src AS a, dst AS b, 0::BIGINT AS n "
           "FROM e WHERE w > 0.95")


def test_shortest_path_pattern_function(ray_session):
    """round-5 shortestPath(): min path length per reachable pair; a
    single-hop inner pattern desugars to [*1..1]; conflicts rejected."""
    gf, edges, verts = _gf()
    _check(gf, edges, verts,
           "MATCH p = shortestPath((a)-[*1..3]->(b)) "
           "RETURN a, b, length(p) AS hops",
           "WITH RECURSIVE base AS (SELECT DISTINCT src, dst FROM e), "
           "r AS (SELECT src AS a, dst AS b, 1 AS k FROM base "
           "      UNION SELECT r.a, x.dst, r.k + 1 FROM r "
           "      JOIN base x ON r.b = x.src WHERE r.k < 3) "
           "SELECT a, b, MIN(k) AS hops FROM r GROUP BY 1, 2")
    _check(gf, edges, verts,
           "MATCH p = shortestPath((a)-[]->(b)) "
           "RETURN count(*) AS n",
           "SELECT COUNT(*) AS n FROM "
           "(SELECT DISTINCT src, dst FROM e)")
    from raphtory_ray.query import cypher
    with pytest.raises(SyntaxError):
        cypher(gf, "MATCH p = shortestPath((a)-[]->(b)-[]->(c)) "
                   "RETURN a")
    with pytest.raises(SyntaxError):
        cypher(gf, "MATCH p = shortestPath((a)-[r*1..2]->(b)) RETURN a")


def test_all_shortest_paths_alias(ray_session):
    """allShortestPaths ≡ shortestPath at the engine's pair-level output
    (endpoints + min length; path enumeration is out of scope)."""
    from raphtory_ray.query import cypher
    gf, edges, verts = _gf()
    a = _rows(cypher(gf, "MATCH p = shortestPath((a)-[*1..2]->(b)) "
                         "RETURN a, b, length(p) AS h"))
    b = _rows(cypher(gf, "MATCH p = allShortestPaths((a)-[*1..2]->(b)) "
                         "RETURN a, b, length(p) AS h"))
    assert a == b


# ------------------------------------ differential aggregates vs DuckDB

# (Cypher aggregate, DuckDB over the edge table e) by query shape: the
# decomposable ones, those kept as values, and a lone count(DISTINCT)
_DIFF_SHAPES = [
    [("count(*)", "count(*)"),
     ("count(e.w)", "count(w)"),
     ("sum(e.t)", "sum(t)"),
     ("sum(e.w)", "sum(w)"),
     ("avg(e.w)", "avg(w)"),
     ("min(e.w)", "min(w)"),
     ("max(e.t)", "max(t)"),
     ("stDev(e.t)", "CASE WHEN count(t) > 1 THEN sqrt(GREATEST(count(t)"
                    " * sum(t * t) - sum(t) * sum(t), 0) / (count(t) * "
                    "(count(t) - 1.0))) ELSE 0.0 END"),
     ("stDevP(e.t)", "CASE WHEN count(t) > 0 THEN sqrt(GREATEST(count(t)"
                     " * sum(t * t) - sum(t) * sum(t), 0) / (count(t) * "
                     "count(t) * 1.0)) ELSE 0.0 END")],
    [("collect(e.w)", "coalesce(list(w ORDER BY w) FILTER "
                      "(WHERE w IS NOT NULL), [])"),
     ("percentileCont(e.t, 0.4)", "quantile_cont(t, 0.4)"),
     ("percentileDisc(e.t, 0.75)", "list_sort(list(t))[greatest(ceil("
                                   "0.75 * count(t)), 1)::BIGINT]::DOUBLE"),
     ("sum(DISTINCT e.t)", "sum(DISTINCT t)"),
     ("count(DISTINCT e.w)", "count(DISTINCT w)")],
    [("count(DISTINCT b)", "count(DISTINCT dst)")],
]

# (Cypher group key, DuckDB group key); None = global
_DIFF_KEYS = [
    ("a", "src"),
    ("type(e)", "layer"),
    ("CASE WHEN e.t < 30 THEN 'lo' WHEN e.t < 70 THEN 'mid' "
     "ELSE 'hi' END", "CASE WHEN t < 30 THEN 'lo' WHEN t < 70 THEN 'mid' "
     "ELSE 'hi' END"),
    ("e.w > 0.5", "w > 0.5"),
    None,
]


def _diff_edges(m, n, zipf, selfloop, null_frac, null_first, seed):
    rng = np.random.default_rng(seed)
    src = np.minimum(rng.zipf(1.5, m) - 1, n - 1) if zipf \
        else rng.integers(0, n, m)
    dst = src.copy() if selfloop else rng.integers(0, n, m)
    w = rng.random(m)
    return pa.table({
        "src": pa.array(src, pa.int64()),
        "dst": pa.array(dst, pa.int64()),
        "t": pa.array(rng.integers(0, 100, m), pa.int64()),
        "event_id": pa.array(np.arange(m), pa.int64()),
        "w": pa.array(w, pa.float64(), mask=(rng.random(m) < null_frac)
                      & (np.arange(m) < (m // 3 if null_first else m))),
        "layer": pa.array(rng.choice(["buys", "views", "x"], m)
                          .astype(object), pa.string()),
    })


def _diff_rows(ds_or_tbl):
    """Rows in group-key order; a key may be null, so the order is by
    the key's repr (keys are unique, so this orders both sides alike)."""
    rows = ds_or_tbl.take_all() if hasattr(ds_or_tbl, "take_all") \
        else ds_or_tbl.to_pylist()
    return sorted((tuple(r[k] for k in sorted(r)) for r in rows),
                  key=lambda r: repr(r[:1]))


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return a is not None and b is not None and \
            a == pytest.approx(b, rel=1e-9, abs=1e-12)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    return a == b


def _diff_case(cy, m, n, zipf, selfloop, null_frac, null_first, seed):
    """Every query shape, grouped each way, against DuckDB on one
    random edge table, read as three blocks (a key's blocks may differ
    in nulls)."""
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    edges = _diff_edges(m, n, zipf, selfloop, null_frac, null_first, seed)
    verts = pa.table({"vid": pa.array(np.arange(n), pa.int64())})
    cuts = [0, m // 3, 2 * m // 3, m]
    gf = GraphFrame(rd.from_arrow([edges.slice(lo, hi - lo) for lo, hi
                                   in zip(cuts, cuts[1:])]), n)
    for key in _DIFF_KEYS:
        for shape in _DIFF_SHAPES:
            names = [f"x{i}" for i in range(len(shape))]
            items = ", ".join(f"{c} AS {nm}" for (c, _s), nm
                              in zip(shape, names))
            # openCypher: a global sum of no values is 0, DuckDB's NULL
            cols = ", ".join(
                f"coalesce({s}, 0) AS {nm}"
                if key is None and s.startswith("sum(") else f"{s} AS {nm}"
                for (_c, s), nm in zip(shape, names))
            if key is None:
                cyq = f"MATCH (a)-[e]->(b) RETURN {items}"
                sql = f"SELECT {cols} FROM e"
            else:
                cyq = f"MATCH (a)-[e]->(b) RETURN {key[0]} AS g, {items}"
                sql = f"SELECT {key[1]} AS g, {cols} FROM e GROUP BY 1"
            got = _diff_rows(cy.cypher(gf, cyq))
            want = _diff_rows(_sql(edges, verts, sql))
            assert len(got) == len(want), cyq
            for r, w in zip(got, want):
                assert all(map(_close, r, w)), f"{cyq}\n{r}\n{w}"


@pytest.mark.parametrize("small", [False, True])
def test_aggregates_differential_vs_duckdb(ray_session, small):
    """Every aggregate, grouped by an integer node variable, a string
    expression (type(e), a CASE band), a nullable boolean expression and
    globally, equals DuckDB's on random edge tables (empty, one edge,
    self-loops, a Zipf hub, null weights, nulls in the first block only),
    at the default partition count
    and, with the rows per partition patched to 1, at P > 1."""
    import importlib
    cy = importlib.import_module("raphtory_ray.query.cypher")
    ex = importlib.import_module("raphtory_ray.core.exchange")
    seen_p = []
    num_partitions = ex.num_partitions

    def spy(*args, **kwargs):
        seen_p.append(num_partitions(*args, **kwargs))
        return seen_p[-1]

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(m=st.integers(0, 60), n=st.integers(1, 12), zipf=st.booleans(),
           selfloop=st.booleans(),
           null_frac=st.sampled_from([0.0, 0.3, 1.0]),
           null_first=st.booleans(), seed=st.integers(0, 2 ** 16))
    @example(m=0, n=3, zipf=False, selfloop=False, null_frac=0.0,
             null_first=False, seed=0)
    @example(m=1, n=1, zipf=False, selfloop=True, null_frac=0.0,
             null_first=False, seed=1)
    @example(m=40, n=6, zipf=False, selfloop=True, null_frac=0.3,
             null_first=False, seed=2)
    @example(m=60, n=40, zipf=True, selfloop=False, null_frac=0.3,
             null_first=False, seed=3)
    @example(m=30, n=5, zipf=False, selfloop=False, null_frac=1.0,
             null_first=False, seed=4)
    @example(m=45, n=8, zipf=False, selfloop=False, null_frac=0.3,
             null_first=True, seed=5)
    def run(m, n, zipf, selfloop, null_frac, null_first, seed):
        _diff_case(cy, m, n, zipf, selfloop, null_frac, null_first, seed)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "num_partitions", spy)
        if small:
            mp.setattr(ex, "FANOUT_ROWS_PER_PARTITION", 1)
            mp.setattr(ex, "ROWS_PER_PARTITION", 1)
        run()
    assert (max(seen_p) > 1) == small
