"""The benchmark's workloads: inputs, timed sections, references, checks.

Each workload has these parts:

- ``setup(seed, size, work)``: generate the input from the seed and write
  it under ``work``; return the paths and the generator's ground truth.
- ``reference(inp)``: numpy results from ``raphtory_ray.core.kernels`` on
  the ground-truth edges, cached per seed by the caller.
- ``rep(ctx, inp)``: one repetition of the timed section. Every engine call
  goes through ``ctx.call`` (deadline, span, timing). Returns the outputs to
  check and the per-repetition figures; figures whose name starts with
  ``_`` are raw counts the caller turns into rates.
- ``finish(out, fig)``: untimed; pull from the object store what the checks
  need and drop the engine objects.
- ``check(out, ref, inp, fig)``: list of ``(op, message)`` for every wrong
  output.
- ``graphs(inp)``: the ground-truth ``(src, dst, n)`` of every graph the
  timed section runs PageRank on, for the single-process kernel timing.

The engine is driven only through public calls of ``pipelines``,
``sources``, ``state``, ``graph``, ``query``, ``stages``, ``core`` and
``data``.
"""

from __future__ import annotations

import hashlib
import os
import time

import numpy as np
import pyarrow as pa

import gen

PAGERANK_MAX_ITERS = 200   # PageRank reaches its 1e-6 fixpoint well below
WINDOW_PAGERANK_ITERS = 20  # PageRank(20) per window
LPA_ITERS = 20

# "full" is what the benchmark measures; "probe" sizes the traced-run
# probes (see PROBES); "tiny" is for the self-tests.
SIZES = {
    "full": {
        "corpus-job": {"n_files": 10_000},
        "edge-algos": {"n_vertices": 30_000, "n_events": 60_000},
        "window-queries": {"n_vertices": 5_000, "n_events": 20_000,
                           "windows": 8},
        "doc-dedup": {"n_docs": 2_000},
    },
    "probe": {
        "corpus-job": {"n_files": 2_000},
        "edge-algos": {"n_vertices": 4_000, "n_events": 16_000},
        "window-queries": {"n_vertices": 2_000, "n_events": 8_000,
                           "windows": 3},
        "doc-dedup": {"n_docs": 2_000},
        "stages": {"n_files": 2_000},
    },
    "tiny": {
        "corpus-job": {"n_files": 600},
        "edge-algos": {"n_vertices": 800, "n_events": 3_000},
        "window-queries": {"n_vertices": 500, "n_events": 2_000,
                           "windows": 3},
        "doc-dedup": {"n_docs": 200},
        "stages": {"n_files": 200},
    },
}
T_SPAN = 1_000_000     # edge-table time range (ms)


def pr_tol(n: int) -> float:
    """Per-call tol for the reference L2 rule ``norm <= tol * n``: bounds
    every per-vertex change by 1e-6, the 1e-6 fixpoint."""
    return 1e-6 / n


def _pull(ds) -> pa.Table:
    import ray
    tables = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(tables) if tables else pa.table({})


def _sorted_pairs(src, dst) -> np.ndarray:
    src, dst = np.asarray(src, np.int64), np.asarray(dst, np.int64)
    order = np.lexsort((dst, src))
    return np.stack([src[order], dst[order]])


def _wait_refs(refs: list) -> int:
    import ray
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    return len(refs)


# ----------------------------------------------------------- shared pieces

def graph_algos(ctx, g, out: dict, fig: dict) -> None:
    """Fixed order: undirected blocks → PageRank → WCC → LPA → triangles.
    The order matters: BspGraph caches the undirected blocks and the LPA
    actor pool on first use."""
    ctx.call("state.und_blocks", _wait_refs, g.und_refs)
    (pr, iters, steps), pr_s = ctx.call_timed(
        "state.pagerank", g.pagerank, iter_count=PAGERANK_MAX_ITERS,
        tol=pr_tol(g.n))
    out["pagerank"], fig["state.pagerank_iters"] = pr, iters
    fig["state.pagerank_superstep_s"] = float(np.median(steps))
    fig["pr_edges_per_s"] = g.num_edges * iters / pr_s
    out["wcc"] = ctx.call("state.wcc", g.wcc)
    out["lpa"], fig["state.lpa_iters"] = ctx.call(
        "state.lpa", g.lpa, iter_count=LPA_ITERS)
    fig["state.triangles"], out["triangles"] = ctx.call(
        "state.triangles", g.triangle_counts)
    fig["state.distinct_edges"] = g.num_edges
    fig["state.blocks"] = len(g.refs)


def graph_reference(src, dst, n: int) -> dict:
    from raphtory_ray.core import kernels as K
    pr, _ = K.pagerank(src, dst, n, iter_count=PAGERANK_MAX_ITERS,
                       tol=pr_tol(n))
    lpa, _ = K.lpa(src, dst, n, iter_count=LPA_ITERS)
    _, tri = K.triangle_counts(src, dst, n)
    return {"pagerank": pr, "wcc": K.wcc(src, dst, n), "lpa": lpa,
            "triangles": tri,
            "distinct_edges": np.int64(len(K.dedup_pairs(src, dst)[0]))}


def graph_check(out: dict, ref: dict) -> list:
    bad = []
    if "pagerank" in out:
        err = float(np.max(np.abs(out["pagerank"] - ref["pagerank"])))
        if not err <= 1e-6:
            bad.append(("state.pagerank", f"max abs diff {err:.3g} > 1e-6"))
    for op, key in (("state.wcc", "wcc"), ("state.lpa", "lpa"),
                    ("state.triangles", "triangles")):
        if key in out and not np.array_equal(out[key], ref[key]):
            n_diff = int(np.sum(np.asarray(out[key]) != ref[key]))
            bad.append((op, f"{key}: {n_diff} vertices differ"))
    return bad


def pagerank_kernel_s(src, dst, n: int, reps: int = 5) -> float:
    """Median time of one single-process numpy PageRank superstep
    (``core.kernels.pagerank_superstep``) on the given simple edges."""
    from raphtory_ray.core import kernels as K
    s, d = K.dedup_pairs(src, dst)
    outdeg = np.bincount(s, minlength=n).astype(np.float64)
    prev = np.full(n, 1.0 / n)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        K.pagerank_superstep(s, d, prev, outdeg, n, 0.85)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def two_hop_count(src, dst, t) -> int:
    """Event pairs (e1, e2) with e1.dst == e2.src and e1.t < e2.t."""
    src, dst, t = (np.asarray(a, np.int64) for a in (src, dst, t))
    t = t - t.min()
    span = np.int64(t.max() + 1)
    keys = np.sort(dst * span + t)
    lo = np.searchsorted(keys, src * span, side="left")
    hi = np.searchsorted(keys, src * span + t, side="left")
    return int((hi - lo).sum())


# ----------------------------------------------------------- corpus-job

class CorpusJob:
    """Source-repo corpus → load_graph → BspGraph → PageRank, WCC, LPA,
    triangles."""

    name = "corpus-job"

    def setup(self, seed: int, size: dict, work: str) -> dict:
        table, truth = gen.corpus(seed, size["n_files"])
        path = gen.write_parts(table, os.path.join(work, "corpus"), parts=4)
        return {"path": path, "truth": truth, "table": table}

    def reference(self, inp: dict) -> dict:
        src, dst, n = gen.corpus_truth_vids(inp["truth"])
        ref = graph_reference(src, dst, n)
        ref["events"] = _sorted_pairs(src, dst)
        ref["sha256"] = np.array(gen.sha256_hex(
            inp["table"]["content"].to_pylist()), dtype="S64")
        return ref

    def rep(self, ctx, inp: dict):
        from raphtory_ray.pipelines.ingest import load_graph
        from raphtory_ray.state.shards import BspGraph
        out, fig = {}, {}
        gf, files_ds = ctx.call("pipelines.load_graph", load_graph, inp["path"])
        gf.edges = ctx.call("pipelines.materialize", gf.edges.materialize)
        g = ctx.call("state.from_graph", BspGraph.from_graph, gf)
        graph_algos(ctx, g, out, fig)
        fig["_files"] = inp["truth"]["n_files"]
        fig["_graph_edges"] = g.num_edges
        fig["pipelines.vertices"] = gf.n
        out["_post"] = (gf, files_ds, g)
        return out, fig

    def finish(self, out: dict, fig: dict) -> None:
        gf, files_ds, g = out.pop("_post")
        edges = _pull(gf.edges)
        out["events"] = _sorted_pairs(edges["src"].to_numpy(),
                                      edges["dst"].to_numpy())
        fig["pipelines.edge_events"] = edges.num_rows
        files = _pull(files_ds)
        out["files"] = (files["gid"].to_pylist(), files["sha256"].to_pylist())

    def check(self, out: dict, ref: dict, inp: dict, fig: dict) -> list:
        bad = graph_check(out, ref)
        if not np.array_equal(out["events"], ref["events"]):
            bad.append(("pipelines.load_graph",
                        "edge events differ from the generated import lines"))
        want = dict(zip(inp["truth"]["gid"].tolist(),
                        ref["sha256"].astype(str).tolist()))
        gids, shas = out["files"]
        mism = sum(want.get(gd) != s for gd, s in zip(gids, shas)) \
            + abs(len(want) - len(gids))
        fig["pipelines.sha256_mismatches"] = mism
        if mism:
            bad.append(("pipelines.load_graph", f"{mism} sha256 mismatches"))
        return bad

    def graphs(self, inp: dict):
        return [gen.corpus_truth_vids(inp["truth"])]


# ----------------------------------------------------------- edge-algos

def _edge_setup(seed: int, size: dict, work: str, name: str) -> dict:
    table = gen.edge_table(seed, size["n_vertices"], size["n_events"], T_SPAN)
    path = gen.write_parts(table, os.path.join(work, name), parts=4)
    return {"path": path, "table": table, "n": size["n_vertices"]}


def _table_edges(inp: dict):
    tb = inp["table"]
    return tb["src"].to_numpy(), tb["dst"].to_numpy(), inp["n"]


def _load_edges(ctx, inp: dict):
    from raphtory_ray.graph.graph_frame import GraphFrame
    from raphtory_ray.sources.loaders import load_edges_from_parquet
    ds = ctx.call("sources.load_edges", lambda: load_edges_from_parquet(
        inp["path"], "t", "src", "dst").materialize())
    return GraphFrame(ds, inp["n"])


class EdgeAlgos:
    """Skewed edge table → load_edges_from_parquet → BspGraph → the four
    algorithms. Ingest is small; the superstep engine does the work."""

    name = "edge-algos"

    def setup(self, seed: int, size: dict, work: str) -> dict:
        return _edge_setup(seed, size, work, "edges")

    def graphs(self, inp: dict):
        return [_table_edges(inp)]

    def reference(self, inp: dict) -> dict:
        return graph_reference(*_table_edges(inp))

    def rep(self, ctx, inp: dict):
        from raphtory_ray.state.shards import BspGraph
        out, fig = {}, {}
        gf = _load_edges(ctx, inp)
        g = ctx.call("state.from_graph", BspGraph.from_graph, gf)
        graph_algos(ctx, g, out, fig)
        fig["_graph_edges"] = g.num_edges
        out["_post"] = (gf, g)
        return out, fig

    def finish(self, out: dict, fig: dict) -> None:
        out.pop("_post")

    def check(self, out: dict, ref: dict, inp: dict, fig: dict) -> list:
        bad = graph_check(out, ref)
        if fig["state.distinct_edges"] != int(ref["distinct_edges"]):
            bad.append(("state.from_graph", "distinct edge count differs"))
        return bad


# ----------------------------------------------------------- window-queries

def window_bounds(n_windows: int) -> list[tuple[int, int]]:
    """Rolling windows: width T_SPAN/4, step so that ``n_windows`` cover
    the time range."""
    width = T_SPAN // 4
    step = (T_SPAN - width) // max(1, n_windows - 1)
    return [(i * step, i * step + width) for i in range(n_windows)]


TWO_HOP = ("MATCH (a)-[e1]->(b)-[e2]->(c) WHERE e1.t < e2.t "
           "RETURN count(*) AS cnt")


class WindowQueries:
    """Many small calls on one graph: rolling windows, each
    from_graph + PageRank(20) + WCC, then one time-respecting two-hop
    Cypher count over the whole graph."""

    name = "window-queries"

    def setup(self, seed: int, size: dict, work: str) -> dict:
        inp = _edge_setup(seed, size, work, "window_edges")
        inp["windows"] = window_bounds(size["windows"])
        return inp

    def graphs(self, inp: dict):
        """One edge set per window: ``t`` in ``[lo, hi)``."""
        src, dst, n = _table_edges(inp)
        t = inp["table"]["t"].to_numpy()
        masks = [(t >= lo) & (t < hi) for lo, hi in inp["windows"]]
        return [(src[m], dst[m], n) for m in masks]

    def reference(self, inp: dict) -> dict:
        from raphtory_ray.core import kernels as K
        src, dst, _ = _table_edges(inp)
        ref = {"two_hop": np.int64(two_hop_count(
            src, dst, inp["table"]["t"].to_numpy()))}
        for i, (s, d, n) in enumerate(self.graphs(inp)):
            ref[f"w{i}_pagerank"] = K.pagerank(
                s, d, n, iter_count=WINDOW_PAGERANK_ITERS, tol=pr_tol(n))[0]
            ref[f"w{i}_wcc"] = K.wcc(s, d, n)
        return ref

    def rep(self, ctx, inp: dict):
        from raphtory_ray.query import cypher
        from raphtory_ray.state.shards import BspGraph
        out, fig = {"windows": []}, {}
        gf = _load_edges(ctx, inp)
        edges = pr_work = pr_time = 0.0
        lat, steps = [], []
        for lo, hi in inp["windows"]:
            t0 = time.perf_counter()
            with ctx.tracer.span("graph.window"):
                wf = ctx.call("graph.view", gf.window, lo, hi)
                g = ctx.call("state.from_graph", BspGraph.from_graph, wf)
                (pr, iters, st), pr_s = ctx.call_timed(
                    "state.pagerank", g.pagerank,
                    iter_count=WINDOW_PAGERANK_ITERS, tol=pr_tol(g.n))
                wcc = ctx.call("state.wcc", g.wcc)
            lat.append(time.perf_counter() - t0)
            out["windows"].append((pr, wcc))
            edges += g.num_edges
            pr_work += g.num_edges * iters
            pr_time += pr_s
            steps += st
            del wf, g
        rows = ctx.call("query.cypher_two_hop",
                        lambda: cypher(gf, TWO_HOP).take_all())
        out["two_hop"] = int(rows[0]["cnt"]) if rows else 0
        fig.update({"_graph_edges": edges, "pr_edges_per_s": pr_work / pr_time,
                    "graph.window_edges": edges / len(lat),
                    "state.pagerank_superstep_s": float(np.median(steps)),
                    "query.two_hop_count": out["two_hop"],
                    "_window_lat": lat})
        out["_post"] = (gf,)
        return out, fig

    def finish(self, out: dict, fig: dict) -> None:
        out.pop("_post")

    def check(self, out: dict, ref: dict, inp: dict, fig: dict) -> list:
        bad = []
        for i, (pr, wcc) in enumerate(out["windows"]):
            bad += [(op, f"window {i}: {msg}") for op, msg in graph_check(
                {"pagerank": pr, "wcc": wcc},
                {"pagerank": ref[f"w{i}_pagerank"], "wcc": ref[f"w{i}_wcc"]})]
        if out["two_hop"] != int(ref["two_hop"]):
            bad.append(("query.cypher_two_hop",
                        f"count {out['two_hop']} != {int(ref['two_hop'])}"))
        return bad


# ----------------------------------------------------------- doc-dedup

def _paragraphs(texts) -> list[str]:
    return sorted(p for t in texts for p in t.split("\n\n"))


class DocDedup:
    """Seeded documents with planted near and exact duplicates →
    minhash_lsh_dedup → paragraph_dedup → exact_dedup. Measured as a probe
    of the ``data`` layer in traced runs, not as a timed workload."""

    name = "doc-dedup"

    def setup(self, seed: int, size: dict, work: str) -> dict:
        table, planted = gen.documents(seed, size["n_docs"])
        path = gen.write_parts(table, os.path.join(work, "docs"), parts=4)
        return {"path": path, "table": table, **planted}

    def reference(self, inp: dict) -> dict:
        texts = inp["table"]["text"].to_pylist()
        return {"n_distinct": np.int64(len(set(texts))),
                "paragraphs": np.array(sorted(set(_paragraphs(texts))))}

    def rep(self, ctx, inp: dict):
        import ray.data as rd
        from raphtory_ray.data.dedup import exact_dedup, minhash_lsh_dedup
        from raphtory_ray.data.text import paragraph_dedup
        stats: dict = {}
        ds = rd.read_parquet(inp["path"])
        clusters = ctx.call("data.minhash", lambda: minhash_lsh_dedup(
            ds, stats=stats).materialize())
        paras = ctx.call("data.paragraph_dedup",
                         lambda: paragraph_dedup(ds).materialize())
        exact = ctx.call("data.exact_dedup",
                         lambda: exact_dedup(ds).materialize())
        fig = {"data.lsh_dropped_candidates": stats.get(
            "lsh_dropped_candidates", 0), "_docs": inp["table"].num_rows}
        return {"_post": (clusters, paras, exact)}, fig

    def finish(self, out: dict, fig: dict) -> None:
        clusters, paras, exact = (_pull(d) for d in out.pop("_post"))
        out["clusters"] = dict(zip(clusters["doc_id"].to_pylist(),
                                   clusters["cluster_id"].to_pylist()))
        out["paragraphs"] = _paragraphs(paras["text"].to_pylist())
        out["exact"] = (exact.num_rows, int(np.sum(exact["n_docs"])))

    def check(self, out: dict, ref: dict, inp: dict, fig: dict) -> list:
        bad = []
        cl = out["clusters"]
        n = inp["table"].num_rows
        if len(cl) != n or any(c > d for d, c in cl.items()):
            bad.append(("data.minhash", "cluster ids are not min member ids"))
        if any(cl.get(a) != cl.get(b) for a, b in inp["exact_pairs"].tolist()):
            bad.append(("data.minhash", "an exact duplicate pair was split"))
        near = inp["near_pairs"].tolist()
        found = sum(cl.get(a) == cl.get(b) for a, b in near)
        fig["data.near_dup_recall"] = found / len(near) if near else 1.0
        if out["paragraphs"] != ref["paragraphs"].tolist():
            bad.append(("data.paragraph_dedup",
                        "kept paragraphs differ from the distinct set"))
        if out["exact"] != (int(ref["n_distinct"]), n):
            bad.append(("data.exact_dedup", f"groups {out['exact']} != "
                        f"({int(ref['n_distinct'])}, {n})"))
        return bad


WORKLOADS = {w.name: w for w in (CorpusJob(), EdgeAlgos(), WindowQueries())}
DOC_DEDUP = DocDedup()

# Per-layer metrics a workload's own calls do not produce come from one
# traced repetition of the workload that does, at probe size (SIZES
# "probe"), run after the measured repetitions.
PROBES = {
    "corpus-job": ("edge-algos", "window-queries", "doc-dedup"),
    "edge-algos": ("corpus-job", "window-queries", "doc-dedup"),
    "window-queries": ("corpus-job", "doc-dedup"),
}


def reference_key(workload: str, seed: int, size: dict) -> str:
    """Cache key: workload, seed, sizes and the bytes of every file the
    inputs and references come from (the generators, this module and the
    numpy kernels), so a change to any of them recomputes."""
    from raphtory_ray.core import kernels
    h = hashlib.sha1()
    for path in (gen.__file__, __file__, kernels.__file__):
        with open(path, "rb") as f:
            h.update(f.read())
    h.update(repr((workload, seed, sorted(size.items()))).encode())
    return f"{workload}-s{seed}-{h.hexdigest()[:12]}"


def stage_probe(ctx, seed: int, n_files: int) -> dict:
    """One call each to the ingest stages ``HashStage`` and
    ``ImportExtractor`` on a fixed corpus batch, in this process."""
    from raphtory_ray.stages.extract import HashStage, ImportExtractor
    batch, _ = gen.corpus(seed, n_files)
    _, hash_s = ctx.call_timed("stages.hash", HashStage(), batch)
    _, extract_s = ctx.call_timed("stages.extract", ImportExtractor(), batch)
    return {"stages.hash_files_per_s": n_files / hash_s,
            "stages.extract_files_per_s": n_files / extract_s}
