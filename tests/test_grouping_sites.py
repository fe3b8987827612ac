"""The call sites that group rows — eight engine operators and the
driver queries — run on core/aggregate's group_agg or a core/exchange
route_fanout task. Over an all-empty input each returns a result with
the column names and types it has over a non-empty input. (The training
pipeline query's keep set is exact_dedup's; pack_documents, its last
stage, groups nothing but is checked here too.)"""

from __future__ import annotations

import importlib.util
import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_RNG = np.random.default_rng(3)
_WORDS = np.array([f"w{i}" for i in range(30)])
_TEXTS = [" ".join(_RNG.choice(_WORDS, 12)) for _ in range(40)]
DOCS = pa.table({
    "doc_id": pa.array(np.arange(42, dtype=np.int64)),
    "text": pa.array(_TEXTS + _TEXTS[:2]),
    "lang": pa.array([("en", "de", "fr")[i % 3] for i in range(42)]),
    "source": pa.array([("web", "code")[i % 2] for i in range(42)]),
    "n_chars": pa.array([len(t) for t in _TEXTS + _TEXTS[:2]], pa.int64())})
GIDS = pa.table({
    "src_gid": pa.array([f"org{i % 3}/repo{i % 4}/f{i}.py"
                         for i in range(60)]),
    "dst_gid": pa.array([f"org{i % 2}/repo{i % 5}/g{i}.py"
                         for i in range(60)])})
EVENTS = pa.table({"user_id": pa.array(_RNG.integers(0, 20, 200)),
                   "ts": pa.array(_RNG.integers(0, 1_000, 200))})
NODES = pa.table({"ts": pa.array([30, 10, 20, 5], pa.int64()),
                  "uid": pa.array([101, 101, 205, 205], pa.int64()),
                  "kind": pa.array(["late", "early", "b", "a"])})
EDGE_META = pa.table({"a": pa.array([1, 1, 2], pa.int64()),
                      "b": pa.array([2, 2, 3], pa.int64()),
                      "rel": pa.array(["follows", "blocks", "likes"])})


def _ds(t: pa.Table, empty: bool):
    import ray.data as rd
    return rd.from_arrow(t.slice(0, 0) if empty else t)


def _entry():
    spec = importlib.util.spec_from_file_location(
        "entry_grouping", str(ROOT / "__ray_entry__.py"))
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def _query(name: str):
    def run(empty: bool, tmp: pathlib.Path):
        sf = tmp / ("empty" if empty else "full")
        sf.mkdir()
        pq.write_table(DOCS.slice(0, 0) if empty else DOCS,
                       str(sf / "documents.parquet"))
        return getattr(_entry(), name)(str(sf))
    return run


def _exact_dedup(empty, _tmp):
    from raphtory_ray.data.dedup import exact_dedup
    return exact_dedup(_ds(DOCS, empty))


def _repo_edges(empty, _tmp):
    from raphtory_ray.pipelines.ingest import repo_edges
    return repo_edges(_ds(GIDS, empty))


def _doc_length_stats(empty, _tmp):
    from raphtory_ray.data.search import build_text_index, doc_length_stats
    return doc_length_stats(build_text_index(_ds(DOCS, empty)))[0]


def _vocab_stats(empty, _tmp):
    from raphtory_ray.data.text import vocab_stats
    return vocab_stats(_ds(DOCS, empty))


def _cohort_retention(empty, _tmp):
    from raphtory_ray.data.asof import cohort_retention
    return cohort_retention(_ds(EVENTS, empty), 100)


def _hll_group_registers(empty, _tmp):
    from raphtory_ray.data.sketch import hll_group_registers
    return hll_group_registers(_ds(DOCS, empty))


def _load_nodes(empty, _tmp):
    from raphtory_ray.sources.loaders import load_nodes
    return load_nodes(_ds(NODES, empty), "ts", "uid",
                      metadata_cols=["kind"]).vertices


def _pack_documents(empty, _tmp):
    from raphtory_ray.data.text import pack_documents
    return pack_documents(_ds(DOCS, empty), budget=64)


def _load_edge_props(empty, _tmp):
    from raphtory_ray.sources.loaders import load_edge_props
    return load_edge_props(_ds(EDGE_META, empty), "a", "b", ["rel"])


SITES = {
    "exact_dedup": _exact_dedup,
    "repo_edges": _repo_edges,
    "doc_length_stats": _doc_length_stats,
    "vocab_stats": _vocab_stats,
    "cohort_retention": _cohort_retention,
    "hll_group_registers": _hll_group_registers,
    "load_nodes": _load_nodes,
    "load_edge_props": _load_edge_props,
    "doc_source_quality": _query("_q_doc_source_quality"),
    "doc_lang_counts": _query("_q_doc_lang_counts"),
    "doc_fingerprints": _query("_q_doc_fingerprints"),
    "pack_documents": _pack_documents,
}


def _schema(out) -> list | None:
    s = out.schema if isinstance(out, pa.Table) else out.schema()
    return None if s is None else list(zip(s.names, s.types))


def _rows(out) -> int:
    return out.num_rows if isinstance(out, pa.Table) else out.count()


@pytest.mark.parametrize("site", sorted(SITES))
def test_empty_input_keeps_the_output_types(ray_session, tmp_path, site):
    full = SITES[site](False, tmp_path)
    empty = SITES[site](True, tmp_path)
    assert _rows(full) > 0
    assert _rows(empty) == 0
    assert _schema(empty) == _schema(full)


def test_training_pipeline_over_no_documents(ray_session, tmp_path):
    """The training pipeline query (dedup keep set, hash semi-join,
    filters, packing) over an empty documents.parquet returns its typed
    columns and no rows."""
    out = _query("_q_doc_training_pipeline")(True, tmp_path)
    assert _rows(out) == 0
    assert _schema(out) == [("doc_id", pa.int64()), ("n_tokens", pa.int64()),
                            ("seq_id", pa.int64())]
