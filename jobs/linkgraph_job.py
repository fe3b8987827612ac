"""Link-graph analytics job — the ``ray job submit`` entrypoint.

north_rule: "the whole pipeline runs via ray job submit on fixed N-node
and 4N-node clusters ... resumable from checkpoint with per-partition
lineage + metrics". On a real cluster:

    ray job submit --working-dir . -- python jobs/linkgraph_job.py \
        --input /data/corpus --output /data/out \
        --algorithms pagerank,wcc,lpa,triangles --checkpoint /data/ckpt

In this sandbox the same script runs standalone (RAY_ADDRESS=local is
preset; `ray.init` is guarded). Each algorithm writes partitioned parquet
under its own output directory and drops a ``_SUCCESS`` marker + a
``METRICS.json`` (wall time, iterations, convergence norm) — a rerun
skips finished algorithms, and PageRank, WCC and LPA additionally resume
mid-run from the per-iteration lineage checkpoints
(pipelines/checkpoint.CheckpointManager)."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _write_nodestate(out_dir: str, names: list[str], arrays, n: int,
                     parts: int = 16) -> None:
    """Partitioned parquet (one file per vid range) — resumable output."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, n, parts + 1).astype(np.int64)
    for p in range(parts):
        lo, hi = int(bounds[p]), int(bounds[p + 1])
        cols = {"vid": pa.array(np.arange(lo, hi), pa.int64())}
        for name, arr in zip(names, arrays):
            cols[name] = pa.array(arr[lo:hi])
        fn = os.path.join(out_dir, f"part-{p:04d}.parquet")
        pq.write_table(pa.table(cols), fn + ".tmp")
        os.replace(fn + ".tmp", fn)


def main() -> None:
    from raphtory_ray.state.actor_engine import GATHER_MODES
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", default=None,
                    help="corpus parquet dir (repo,path,commit,lang,"
                         "content) — required for graph work, optional "
                         "for a --data-ops-only job")
    ap.add_argument("--output", required=True)
    ap.add_argument("--algorithms", default="pagerank,wcc,lpa,triangles")
    ap.add_argument("--checkpoint", default=None,
                    help="per-iteration lineage checkpoint dir (pagerank/wcc/lpa)")
    ap.add_argument("--iterations", type=int, default=100)
    ap.add_argument("--tol", type=float, default=1e-6)
    ap.add_argument("--num-blocks", type=int, default=None)
    ap.add_argument("--engine", choices=["task", "sharded"], default="task",
                    help="pagerank execution engine: 'task' (Ray Data task "
                         "rounds, small/medium graphs) or 'sharded' "
                         "(state/actor_engine.ShardedPageRank — CSR pinned "
                         "in actors, the 10^9-edge path)")
    ap.add_argument("--gather-mode", default="central",
                    choices=GATHER_MODES,
                    help="sharded-engine all-gather: central (driver-"
                         "assembled rank vector) | p2p-tiled (actor-"
                         "published slices)")
    ap.add_argument("--sssp-source", type=int, default=0,
                    help="source vid for the 'sssp' algorithm "
                         "(delta-stepping, unit weights)")
    ap.add_argument("--cypher", default=None, metavar="QUERY",
                    help="run a Cypher query over the ingested graph "
                         "(query/cypher.py subset) and write the result "
                         "under <output>/cypher/ as partitioned parquet; "
                         "runs after --algorithms (which may be '')")
    ap.add_argument("--graphql", default=None, metavar="DOC",
                    help="execute a GraphQL document over the ingested "
                         "graph (query/graphql.py) and write the JSON "
                         "response under <output>/graphql/")
    ap.add_argument("--workdir", default=None, metavar="DIR",
                    help="with --graphql: execute the document against a "
                         "graph-server work dir (query/server.py) instead "
                         "of the ingested graph — enables the management "
                         "mutations (newGraph/copyGraph/...) and "
                         "namespace/graph(path) queries via ray job submit")
    ap.add_argument("--docs", default=None, metavar="DIR",
                    help="documents parquet dir (doc_id, text, ...) — the "
                         "input for --data-ops")
    ap.add_argument("--data-ops", default=None, metavar="OPS",
                    help="comma list of training-data pipeline stages to "
                         "run over --docs, each resumable under "
                         "<output>/data/<op>/: exact_dedup, minhash_dedup, "
                         "langid, quality, tokens, fingerprints, redact, gopher, split, pca, hll, countmin, quantiles, bottomk, lm, topk, "
                         "sample, pack")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        ray.init(address=os.environ.get("RAY_ADDRESS", "auto"),
                 include_dashboard=False, ignore_reinit_error=True)

    from raphtory_ray.pipelines.ingest import load_graph
    from raphtory_ray.state.shards import BspGraph

    algos = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    todo = [a for a in algos if not os.path.exists(
        os.path.join(args.output, a, "_SUCCESS"))]
    cypher_todo = args.cypher is not None and not _query_done(
        os.path.join(args.output, "cypher"), args.cypher)
    gql_todo = args.graphql is not None and not _query_done(
        os.path.join(args.output, "graphql"), args.graphql)
    data_ops = [o.strip() for o in (args.data_ops or "").split(",")
                if o.strip()]
    data_todo = [o for o in data_ops if not os.path.exists(
        os.path.join(args.output, "data", o, "_SUCCESS"))]
    print(f"[job] algorithms: {algos}; pending: {todo}"
          f"{' + cypher' if cypher_todo else ''}"
          f"{' + graphql' if gql_todo else ''}"
          f"{('; data pending: ' + str(data_todo)) if data_ops else ''}",
          flush=True)

    if data_todo:
        if not args.docs:
            raise SystemExit("--data-ops requires --docs")
        _run_data_ops(args.docs, args.output, data_todo)

    if not todo and not cypher_todo and not gql_todo:
        ray.shutdown()
        return
    if not args.input:
        raise SystemExit("graph work requested but --input not given")

    t0 = time.perf_counter()
    gf, files_ds = load_graph(args.input)
    # the dedup shuffle into CSR blocks only serves the algorithm loop —
    # a cypher-only job must not pay it
    g = BspGraph.from_graph(gf, num_blocks=args.num_blocks) if todo \
        else None
    ingest_s = time.perf_counter() - t0
    print(f"[job] ingest+build {ingest_s:.1f}s  n={gf.n}"
          + (f" edges={g.num_edges}" if g is not None else ""),
          flush=True)

    for algo in todo:
        d = os.path.join(args.output, algo)
        t0 = time.perf_counter()
        metrics: dict = {"n": g.n, "num_edges": g.num_edges,
                         "ingest_build_sec": ingest_s}
        if algo == "pagerank":
            ckpt = None
            if args.checkpoint:
                from raphtory_ray.pipelines.checkpoint import CheckpointManager
                ckpt = CheckpointManager(
                    os.path.join(args.checkpoint, "pagerank"))
            # per-iteration lineage checkpoints (kill → resumes
            # mid-convergence from the last complete manifest)
            if args.engine == "sharded":
                from raphtory_ray.state.actor_engine import ShardedPageRank
                with ShardedPageRank.from_bsp(g) as eng:
                    rank, iters, _ = eng.pagerank(
                        iter_count=args.iterations, tol=args.tol,
                        checkpoint=ckpt, gather_mode=args.gather_mode)
            else:
                rank, iters = g.pagerank(iter_count=args.iterations,
                                         tol=args.tol, checkpoint=ckpt)[:2]
            metrics["engine"] = args.engine
            _write_nodestate(d, ["pagerank"], [rank], g.n)
            metrics["iterations"] = int(iters)
        elif algo == "wcc":
            wc = None
            if args.checkpoint:
                from raphtory_ray.pipelines.checkpoint import CheckpointManager
                wc = CheckpointManager(os.path.join(args.checkpoint, "wcc"))
            _write_nodestate(d, ["component"], [g.wcc(checkpoint=wc)], g.n)
        elif algo == "lpa":
            lc = None
            if args.checkpoint:
                from raphtory_ray.pipelines.checkpoint import CheckpointManager
                lc = CheckpointManager(os.path.join(args.checkpoint, "lpa"))
            labels, iters = g.lpa(checkpoint=lc)
            _write_nodestate(d, ["community"], [labels], g.n)
            metrics["iterations"] = int(iters)
        elif algo == "triangles":
            total, per_node = g.triangle_counts()
            _write_nodestate(d, ["triangles"], [per_node], g.n)
            metrics["global_triangles"] = int(total)
        elif algo == "sssp":
            from raphtory_ray.algorithms.sssp import sssp_delta_stepping
            st = sssp_delta_stepping(gf, source=args.sssp_source)
            _write_nodestate(d, ["sssp_dist"], [st.values], g.n)
            metrics["source"] = args.sssp_source
        else:
            raise SystemExit(f"unknown algorithm {algo!r}")
        metrics["wall_sec"] = time.perf_counter() - t0
        with open(os.path.join(d, "METRICS.json"), "w") as f:
            json.dump(metrics, f)
        open(os.path.join(d, "_SUCCESS"), "w").write("ok")
        print(f"[job] {algo} done in {metrics['wall_sec']:.1f}s", flush=True)

    if cypher_todo:
        import shutil
        from raphtory_ray.query import cypher
        d = os.path.join(args.output, "cypher")
        # a crashed or different-query previous attempt leaves files
        # write_parquet would APPEND to (fresh UUID names) — start clean
        # so the _SUCCESS marker always describes exactly one attempt
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)
        t0 = time.perf_counter()
        res = cypher(gf, args.cypher)
        res.write_parquet(d)
        with open(os.path.join(d, "METRICS.json"), "w") as f:
            json.dump({"query": args.cypher,
                       "wall_sec": time.perf_counter() - t0}, f)
        open(os.path.join(d, "_SUCCESS"), "w").write("ok")
        print(f"[job] cypher done", flush=True)

    if gql_todo:
        import shutil
        from raphtory_ray.query.graphql import execute
        d = os.path.join(args.output, "graphql")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d, exist_ok=True)
        t0 = time.perf_counter()
        if args.workdir is not None:
            from raphtory_ray.query.server import execute_server
            res = execute_server(args.workdir, args.graphql)
        else:
            res = execute(gf, args.graphql)
        with open(os.path.join(d, "response.json"), "w") as f:
            json.dump(res, f)
        with open(os.path.join(d, "METRICS.json"), "w") as f:
            json.dump({"query": args.graphql,
                       "wall_sec": time.perf_counter() - t0}, f)
        open(os.path.join(d, "_SUCCESS"), "w").write("ok")
        print(f"[job] graphql done", flush=True)
    ray.shutdown()


def _run_data_ops(docs_dir: str, output: str, ops: list) -> None:
    """Training-data pipeline stages over a documents parquet dir, each
    written as partitioned parquet under <output>/data/<op>/ with the
    same _SUCCESS-marker resume contract as the algorithms."""
    import time

    import ray.data as rd

    def _stage(op: str, ds):
        from raphtory_ray.data import dedup, text
        if op == "exact_dedup":
            return dedup.exact_dedup(ds)
        if op == "minhash_dedup":
            return dedup.minhash_lsh_dedup(ds)
        if op == "langid":
            return text.language_id(ds)
        if op == "quality":
            return text.quality_stats(ds)
        if op == "tokens":
            return text.token_counts(ds)
        if op == "fingerprints":
            return text.fingerprints(ds)
        if op == "redact":
            return text.redact_documents(ds)
        if op == "sample":
            return text.sample_documents(ds, 500)
        if op == "pack":
            return text.pack_documents(ds)
        if op == "vocab":
            return text.vocab_stats(ds)
        if op == "tfidf":
            return text.tfidf_top_terms(ds)
        if op == "gopher":
            return text.gopher_filter(ds, min_stopwords=1)
        if op == "split":
            return dedup.leakage_safe_split(ds)
        if op == "lm":
            return text.ngram_lm_score(ds)
        if op == "topk":
            import ray.data as rd2
            return rd2.from_arrow(text.group_top_k(
                ds.select_columns(["doc_id", "lang", "n_chars"]),
                "lang", "n_chars", k=10))
        if op == "hll":
            from raphtory_ray.data.sketch import hll_registers
            import ray.data as rd2
            return rd2.from_arrow(hll_registers(ds))
        if op == "countmin":
            from raphtory_ray.data.sketch import countmin_counters
            import ray.data as rd2
            return rd2.from_arrow(countmin_counters(ds))
        if op == "quantiles":
            import ray.data as rd2
            return rd2.from_arrow(text.exact_quantiles(ds, "n_chars"))
        if op == "bottomk":
            import ray.data as rd2
            return rd2.from_arrow(text.sample_bottom_k(ds, k=1000))
        if op == "paragraph_dedup":
            return text.paragraph_dedup(ds)
        if op == "source_cap":
            import ray.data as rd2
            return rd2.from_arrow(text.stratified_cap(
                ds.select_columns(["doc_id", "source"]), cap=1000))
        if op == "sessions":
            from raphtory_ray.data.asof import sessionize
            return sessionize(ds, gap=28_800_000_000)
        if op == "pca":
            from raphtory_ray.data.projection import pca_fit, pca_transform
            if "embedding" not in ds.schema().names:
                raise SystemExit(
                    "data op 'pca' needs an 'embedding' list<float> column "
                    "— point --docs at an embeddings parquet, not the "
                    "documents table")
            model = pca_fit(ds, k=8)
            return pca_transform(ds, model)
        raise SystemExit(f"unknown data op {op!r}")

    for op in ops:
        import json as _json
        import shutil
        d = os.path.join(output, "data", op)
        shutil.rmtree(d, ignore_errors=True)   # clean partial attempt
        os.makedirs(d, exist_ok=True)
        t0 = time.perf_counter()
        res = _stage(op, rd.read_parquet(docs_dir))
        res.write_parquet(d)
        with open(os.path.join(d, "METRICS.json"), "w") as f:
            _json.dump({"op": op, "docs": docs_dir,
                        "wall_sec": time.perf_counter() - t0}, f)
        open(os.path.join(d, "_SUCCESS"), "w").write("ok")
        print(f"[job] data:{op} done in "
              f"{time.perf_counter() - t0:.1f}s", flush=True)


def _query_done(d: str, query: str) -> bool:
    """The cypher/graphql resume marker is only valid for the SAME query
    — a rerun with a different query must recompute, not silently skip."""
    import json as _json
    if not os.path.exists(os.path.join(d, "_SUCCESS")):
        return False
    try:
        with open(os.path.join(d, "METRICS.json")) as f:
            return _json.load(f).get("query") == query
    except (OSError, ValueError):
        return False


if __name__ == "__main__":
    main()
