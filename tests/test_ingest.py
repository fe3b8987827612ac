"""Corpus ingest conformance: extraction == generator ground truth, the
sha256 per-row invariant (BASELINE.json input_hint), and the repo→repo
rollup (FIXTURES.md §A derived tables)."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest


N_FILES = 400


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    from raphtory_ray.sources.corpus import ensure_corpus
    root = str(tmp_path_factory.mktemp("corpus"))
    return ensure_corpus(n_files=N_FILES, root=root)


def test_extraction_matches_ground_truth(corpus):
    """Every import written by the generator is recovered as an edge event —
    extraction is a pure, checkable transform (FIXTURES.md §A)."""
    from raphtory_ray.pipelines.ingest import extract_edges, read_corpus
    from raphtory_ray.sources.corpus import truth_edges
    got = pa.concat_tables(
        extract_edges(read_corpus(corpus)).iter_batches(batch_format="pyarrow"))
    sg, dg, t, eid = truth_edges(N_FILES)
    want = sorted(zip(sg, dg, t.tolist(), eid.tolist()))
    have = sorted(zip(got["src_gid"].to_pylist(), got["dst_gid"].to_pylist(),
                      got["t"].to_pylist(), got["event_id"].to_pylist()))
    assert have == want


def test_sha256_invariant(corpus):
    """files_table sha256 equals a recomputed sha256 of the raw content —
    the per-row invariant carried through ingest (input_hint)."""
    import pyarrow.parquet as pq
    from raphtory_ray.pipelines.ingest import files_table, read_corpus
    ft = pa.concat_tables(
        files_table(read_corpus(corpus)).iter_batches(batch_format="pyarrow"))
    raw = pq.read_table(corpus.rstrip("/"),
                        columns=["repo", "path", "content"])
    want = {}
    for r, p, c in zip(raw["repo"].to_pylist(), raw["path"].to_pylist(),
                       raw["content"].to_pylist()):
        stem = p.rsplit(".", 1)[0]
        want[f"{r}/{stem}"] = hashlib.sha256(c.encode()).hexdigest()
    got = dict(zip(ft["gid"].to_pylist(), ft["sha256"].to_pylist()))
    assert got == want


def test_load_graph_end_to_end(corpus):
    """vid edges decode back to the ground-truth gid pairs."""
    from raphtory_ray.pipelines.ingest import load_graph
    from raphtory_ray.sources.corpus import truth_edges
    gf, files_ds = load_graph(corpus)
    edges = pa.concat_tables(gf.edges.iter_batches(batch_format="pyarrow"))
    gids = gf.vertices["gid"].to_pylist()
    have = sorted((gids[s], gids[d]) for s, d in
                  zip(edges["src"].to_pylist(), edges["dst"].to_pylist()))
    sg, dg, _t, _e = truth_edges(N_FILES)
    assert have == sorted(zip(sg, dg))
    assert gf.n == len(set(gids))


def test_repo_edges_rollup(corpus):
    from raphtory_ray.pipelines.ingest import extract_edges, read_corpus, \
        repo_edges
    from raphtory_ray.sources.corpus import truth_edges
    ds = repo_edges(extract_edges(read_corpus(corpus)))
    t = pa.concat_tables(ds.iter_batches(batch_format="pyarrow"))
    sg, dg, _t, _e = truth_edges(N_FILES)
    repo = lambda g: "/".join(g.split("/")[:2])
    want: dict[tuple, int] = {}
    for a, b in zip(sg, dg):
        ra, rb = repo(a), repo(b)
        if ra != rb:
            want[(ra, rb)] = want.get((ra, rb), 0) + 1
    got = {(s, d): c for s, d, c in
           zip(t["src_repo"].to_pylist(), t["dst_repo"].to_pylist(),
               t["n_imports"].to_pylist())}
    assert got == want


def test_distributed_resolve_parity(corpus):
    """distributed_resolve=True (distributed-sort dictionary + shuffle-join
    resolution, the 10^9-vertex path) must produce the IDENTICAL graph to
    the broadcast-dictionary path: same n, same resolved edge events."""
    from raphtory_ray.pipelines.ingest import load_graph
    gf1, _ = load_graph(corpus)
    gf2, _ = load_graph(corpus, distributed_resolve=True)
    assert gf1.n == gf2.n

    def rows(gf):
        return sorted(
            (r["src"], r["dst"], r["t"], r["event_id"])
            for r in gf.edges.select_columns(
                ["src", "dst", "t", "event_id"]).take_all())

    assert rows(gf1) == rows(gf2)


def test_distributed_gid_resolution_any_partition_count(ray_session):
    """The distributed gid dictionary and its shuffle-join resolution give
    vid = rank of the gid in sorted order at any partition count, one
    included; endpoints outside the dictionary are dropped."""
    import ray
    import ray.data as rd
    from raphtory_ray.pipelines.ingest import (build_gid_index_distributed,
                                               resolve_edges_distributed)
    names = [f"f{i:03d}" for i in range(45)]
    files = rd.from_arrow(pa.table({"gid": names[:40][::-1]})) \
        .repartition(3).materialize()
    rng = np.random.default_rng(1)
    s, d = rng.integers(0, 40, 100), rng.integers(0, 45, 100)
    edges = pa.table({"src_gid": [names[i] for i in s],
                      "dst_gid": [names[i] for i in d],
                      "t": pa.array(np.arange(100), pa.int64()),
                      "event_id": pa.array(np.arange(100), pa.int64())})
    raw = [ray.put(edges.slice(0, 60)), ray.put(edges.slice(60))]
    keep = d < 40
    want = sorted(zip(np.flatnonzero(keep).tolist(), s[keep].tolist(),
                      d[keep].tolist()))
    for P in (1, 3):
        dict_refs, n = build_gid_index_distributed(files, P=P)
        assert (n, len(dict_refs)) == (40, P)
        out = pa.concat_tables(ray.get(resolve_edges_distributed(raw,
                                                                 dict_refs)))
        got = sorted(zip(out["event_id"].to_pylist(), out["src"].to_pylist(),
                         out["dst"].to_pylist()))
        assert got == want, P
