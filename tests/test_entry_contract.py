import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_registry_invariants_round5():
    """Driver-contract guards: every oracle key is a registered query,
    no duplicate keys, and the first-50 gate window carries the round-5
    rotation (doc/emb/corpus families + the five queries the r4 verdict
    named)."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "entry_reg5", str(ROOT / "__ray_entry__.py"))
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    q = m.queries()
    o = m.oracle_sql()
    assert len(q) == len(set(q))
    assert set(o) <= set(q)
    top50 = list(q)[:50]
    for name in ("doc_minhash_dedup", "emb_semantic_dedup",
                 "doc_hll_registers", "corpus_pagerank_5iter",
                 "user_windowed_wcc"):
        assert name in top50, name
    # ≥25 of the gate window were absent from the r04 official record
    import json
    r04 = set(json.load(open(ROOT / "CORRECTNESS_r04.json")))
    assert sum(1 for k in top50 if k not in r04) >= 25
