"""Every shuffle takes its partition count from exchange.num_partitions.
Tier-1 inputs are small enough to run at P = 1 almost everywhere, so each
case here runs once at the default rows per partition and once with the
rule's rows per partition (and each site's own constant) shrunk until
P > 1 at the session's CPUs, and the two outputs must be equal."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from raphtory_ray.core import exchange

SMALL = 32          # rows per partition in the multi-partition run


def _shrink(monkeypatch):
    from raphtory_ray.algorithms import louvain, motifs, sssp
    monkeypatch.setattr(exchange, "ROWS_PER_PARTITION", SMALL)
    monkeypatch.setattr(exchange, "FANOUT_ROWS_PER_PARTITION", SMALL)
    monkeypatch.setattr(louvain, "LOUVAIN_HALF_EDGES_PER_PARTITION", SMALL)
    monkeypatch.setattr(motifs, "MOTIF_EDGES_PER_PARTITION", SMALL)
    monkeypatch.setattr(sssp, "SSSP_ROWS_PER_PARTITION", SMALL)


def _edges(seed: int, n: int = 60, m: int = 400, w: bool = False):
    rng = np.random.default_rng(seed)
    cols = {"src": pa.array(rng.integers(0, n, m)),
            "dst": pa.array(rng.integers(0, n, m)),
            "t": pa.array(rng.integers(0, 50, m)),
            "event_id": pa.array(np.arange(m, dtype=np.int64)),
            "int_prop": pa.array(rng.integers(0, 10, m))}
    if w:
        cols["w"] = pa.array(rng.integers(1, 9, m).astype(np.float64))
    return pa.table(cols), n


def _gf(seed: int = 1, **kw):
    import ray.data as rd
    from raphtory_ray.graph.graph_frame import GraphFrame
    t, n = _edges(seed, **kw)
    return GraphFrame(rd.from_arrow(t).repartition(3), n)


def _sorted(t: pa.Table, keys: list) -> dict:
    t = t.sort_by([(k, "ascending") for k in keys])
    return {c: t[c].to_pylist() for c in sorted(t.column_names)}


def _docs(lang: bool = False):
    import ray.data as rd
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(40)]
    texts = [" ".join(rng.choice(words, 30)) for _ in range(50)]
    texts += [texts[3].replace("w1 ", "w2 ", 1), texts[7] + " tail",
              texts[11]]
    texts += ["\n\n".join([texts[i % 5], texts[(i + 1) % 5], f"p{i}"])
              for i in range(20)]
    cols = {"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
            "text": pa.array(texts)}
    if lang:
        cols["lang"] = pa.array([("en", "de", "fr")[i % 3]
                                 for i in range(len(texts))])
    return rd.from_arrow(pa.table(cols)).repartition(3)


def _table(ds) -> pa.Table:
    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))


def _minhash():
    from raphtory_ray.data.dedup import minhash_lsh_dedup
    return _sorted(pa.Table.from_pandas(
        minhash_lsh_dedup(_docs(), threshold=0.6).to_pandas(),
        preserve_index=False), ["doc_id"])


def _exact_split():
    from raphtory_ray.data.dedup import leakage_safe_split
    return _sorted(pa.Table.from_pandas(
        leakage_safe_split(_docs(), val_permille=300).to_pandas(),
        preserve_index=False), ["doc_id"])


def _paragraphs():
    from raphtory_ray.data.text import paragraph_dedup
    return _sorted(pa.Table.from_pandas(
        paragraph_dedup(_docs()).to_pandas(), preserve_index=False),
        ["doc_id"])


def _cypher_two_hop():
    from raphtory_ray.query import cypher
    rows = cypher(_gf(), "MATCH (a)-[e]->(b)-[f]->(c) WHERE e.t < f.t "
                  "RETURN a, c").take_all()
    return sorted((r["a"], r["c"]) for r in rows)


def _cypher_grouped():
    from raphtory_ray.query import cypher
    rows = cypher(_gf(), "MATCH (a)-[e]->(b) RETURN a, count(*) AS c") \
        .take_all()
    return sorted((r["a"], r["c"]) for r in rows)


def _cypher_optional():
    from raphtory_ray.query import cypher
    rows = cypher(_gf(), "MATCH (a)-[e]->(b) WHERE e.t < 10 "
                  "OPTIONAL MATCH (b)-[f]->(c) WHERE f.t > 40 "
                  "RETURN a, b, c").take_all()
    return sorted(((r["a"], r["b"], r["c"]) for r in rows), key=repr)


def _group_count():
    from raphtory_ray.core.aggregate import group_count
    t = pa.Table.from_pylist(group_count(_gf().edges, ["src", "dst"])
                             .take_all())
    return _sorted(t, ["src", "dst"])


def _sessionize():
    import ray.data as rd
    from raphtory_ray.data.asof import sessionize
    rng = np.random.default_rng(9)
    m = 500
    t = pa.table({"user_id": pa.array(rng.integers(0, 40, m)),
                  "ts": pa.array(rng.integers(0, 2_000, m)),
                  "event_id": pa.array(np.arange(m, dtype=np.int64))})
    out = sessionize(rd.from_arrow(t).repartition(3), gap=60)
    return _sorted(pa.Table.from_pylist(out.take_all()), ["event_id"])


def _exact_dedup():
    from raphtory_ray.data.dedup import exact_dedup
    return _sorted(_table(exact_dedup(_docs())), ["h"])


def _repo_edges():
    import ray.data as rd
    from raphtory_ray.pipelines.ingest import repo_edges
    rng = np.random.default_rng(12)
    gid = [f"org{o}/repo{r}/f{i}.py" for i, (o, r) in
           enumerate(rng.integers(0, 4, (120, 2)))]
    t = pa.table({"src_gid": pa.array(rng.choice(gid, 400)),
                  "dst_gid": pa.array(rng.choice(gid, 400))})
    out = repo_edges(rd.from_arrow(t).repartition(3))
    return _sorted(_table(out), ["src_repo", "dst_repo"])


def _doc_length_stats():
    from raphtory_ray.data.search import build_text_index, doc_length_stats
    dl, n, avgdl = doc_length_stats(build_text_index(_docs()))
    return _sorted(_table(dl), ["doc_id"]), n, avgdl


def _vocab_stats():
    from raphtory_ray.data.text import vocab_stats
    return _sorted(_table(vocab_stats(_docs())), ["term"])


def _cohort_retention():
    import ray.data as rd
    from raphtory_ray.data.asof import cohort_retention
    rng = np.random.default_rng(13)
    t = pa.table({"user_id": pa.array(rng.integers(0, 60, 500)),
                  "ts": pa.array(rng.integers(0, 2_000, 500))})
    out = cohort_retention(rd.from_arrow(t).repartition(3), 200)
    return _sorted(_table(out), ["cohort", "k"])


def _hll_group_registers():
    from raphtory_ray.data.sketch import hll_group_registers
    return _sorted(_table(hll_group_registers(_docs(lang=True))),
                   ["lang", "reg"])


def _load_nodes():
    import ray.data as rd
    from raphtory_ray.sources.loaders import load_nodes
    rng = np.random.default_rng(14)
    m = 300
    t = pa.table({"ts": pa.array(rng.integers(0, 50, m)),
                  "uid": pa.array(rng.integers(0, 80, m)),
                  "eid": pa.array(np.arange(m, dtype=np.int64)),
                  "kind": pa.array(rng.choice(["a", "b", "c", "d"], m))})
    gf = load_nodes(rd.from_arrow(t).repartition(3), "ts", "uid",
                    node_type_col="kind", metadata_cols=["eid"],
                    event_id_col="eid")
    return _sorted(gf.vertices, ["vid"])


def _load_edge_props():
    """Each key's rows sit in one input block, so 'last occurrence' does
    not depend on the order the blocks arrive in."""
    import ray.data as rd
    from raphtory_ray.sources.loaders import load_edge_props
    rng = np.random.default_rng(15)
    parts = [pa.table({"a": pa.array(rng.integers(0, 12, 150) + 100 * i),
                       "b": pa.array(rng.integers(0, 12, 150)),
                       "rel": pa.array(rng.choice(["x", "y", "z"], 150))})
             for i in range(3)]
    out = load_edge_props(rd.from_arrow(parts), "a", "b", ["rel"])
    return _sorted(_table(out), ["src", "dst"])


def _louvain(monkeypatch):
    from raphtory_ray.algorithms import louvain as L
    monkeypatch.setattr(L, "_LOCAL_HALF_EDGES", 0)    # distributed levels
    return L.louvain(_gf(2, n=80, m=600), 1.0).tolist()


def _motifs():
    from raphtory_ray.algorithms.motifs import temporal_three_node_motif_multi
    return temporal_three_node_motif_multi(_gf(3), [1, 10, 100]).tolist()


def _local_motifs():
    from raphtory_ray.algorithms.motifs import \
        local_temporal_three_node_motifs
    return local_temporal_three_node_motifs(_gf(3), [1, 10, 100])


def _filter_edges():
    from raphtory_ray.graph.filter import Prop
    out = _gf(4).filter_edges(Prop("int_prop") > 4, "latest").edges
    return _sorted(pa.Table.from_pylist(out.take_all()), ["event_id"])


def _persistent():
    import ray.data as rd
    from raphtory_ray.graph.persistent import PersistentGraphFrame
    t, n = _edges(6)
    op = np.random.default_rng(6).integers(0, 2, t.num_rows)
    pg = PersistentGraphFrame(rd.from_arrow(
        t.append_column("op", pa.array(op))).repartition(3), n)
    snap = pg.snapshot_at(25)
    return pg.count_edges(), _sorted(snap.edges_table(), ["src", "dst"])


def _sampling():
    from raphtory_ray.algorithms.sampling import (neighbor_sample,
                                                  random_walks)
    edges = _gf(7).edges
    seeds = np.arange(0, 60, 7, dtype=np.int64)
    ns = neighbor_sample(edges, seeds, [3, 2], seed=7)
    rw = random_walks(edges, seeds, 6, seed=3, walks_per_start=2)
    return (_sorted(ns, ["hop", "src", "dst"]),
            _sorted(rw, ["walk_id", "pos"]))


def _scc():
    from raphtory_ray.algorithms import strongly_connected_components_dist
    return strongly_connected_components_dist(_gf(8)).values.tolist()


def _closure():
    from raphtory_ray.algorithms import in_component
    return in_component(_gf(11), 0).tolist()


def _sssp():
    from raphtory_ray.algorithms.sssp import sssp_delta_stepping
    return sssp_delta_stepping(_gf(10, w=True), 0, weight_col="w").values


CASES = {
    "minhash_dedup": _minhash,
    "exact_hash_split": _exact_split,
    "paragraph_dedup": _paragraphs,
    "cypher_two_hop": _cypher_two_hop,
    "cypher_grouped": _cypher_grouped,
    "cypher_optional": _cypher_optional,
    "group_count": _group_count,
    "sessionize": _sessionize,
    "exact_dedup": _exact_dedup,
    "repo_edges": _repo_edges,
    "doc_length_stats": _doc_length_stats,
    "vocab_stats": _vocab_stats,
    "cohort_retention": _cohort_retention,
    "hll_group_registers": _hll_group_registers,
    "load_nodes": _load_nodes,
    "load_edge_props": _load_edge_props,
    "louvain": _louvain,
    "temporal_motifs": _motifs,
    "local_temporal_motifs": _local_motifs,
    "filter_edges": _filter_edges,
    "persistent": _persistent,
    "sampling": _sampling,
    "scc": _scc,
    "closure": _closure,
    "sssp": _sssp,
}


def _run(case, monkeypatch):
    fn = CASES[case]
    return fn(monkeypatch) if case == "louvain" else fn()


def _equal(a, b):
    """Integers exact, floats to rtol 1e-12."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        if a.dtype.kind == "f":
            np.testing.assert_allclose(a, b, rtol=1e-12)
        else:
            np.testing.assert_array_equal(a, b)
    elif isinstance(a, (tuple, list)) and a and isinstance(a[0], float):
        np.testing.assert_allclose(a, b, rtol=1e-12)
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _equal(x, y)
    elif isinstance(a, dict):
        assert sorted(a) == sorted(b)
        for k in a:
            _equal(a[k], b[k])
    else:
        assert a == b


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_equal_at_one_and_many_partitions(ray_session, monkeypatch,
                                                  case):
    cpus = exchange.cluster_cpus()
    one = _run(case, monkeypatch)
    _shrink(monkeypatch)
    assert exchange.num_partitions(400) == min(cpus, 64) > 1
    many = _run(case, monkeypatch)
    _equal(one, many)
