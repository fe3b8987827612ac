"""Full-text search over a document Dataset — the engine's stand-in for
the reference's tantivy index (raphtory/src/search/, feature-gated there;
declared core-adjacent here because a 100-TB corpus pipeline needs lookup).

Design (Ray-Data-first):
- build_text_index: ONE vectorized map_batches pass tokenizes (Arrow
  utf8_lower + split_pattern_regex on non-alphanumerics) and emits exact
  per-(token, doc) term frequencies — a document lives entirely inside its
  row, so no cross-batch combine is needed. The postings Dataset can be
  hash-partitioned by token and written as resumable parquet for reuse.
- search: prune the postings to the query's terms with a broadcast
  vectorized is_in (no shuffle — the match set is tiny relative to the
  corpus), then a driver-side combine ranks docs by summed tf. AND
  semantics require every term present; OR ranks any match.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_TOKEN_SPLIT = r"[^a-z0-9]+"


def tokenize_batch(b: pa.Table, text_col: str = "text",
                   id_col: str = "doc_id") -> pa.Table:
    """(token, doc_id, tf) rows for one batch — exact tf per document."""
    toks = pc.split_pattern_regex(pc.utf8_lower(b[text_col].combine_chunks()),
                                  _TOKEN_SPLIT)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    parent = parent[keep]
    flat = flat.filter(pa.array(keep))
    ids = b[id_col].to_numpy(zero_copy_only=False)[parent]
    # exact tf: dictionary-encode tokens, count (doc, token) pairs
    dd = pc.dictionary_encode(flat)
    codes = dd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    nv = len(dd.dictionary)
    key = ids * np.int64(max(nv, 1)) + codes
    ukey, tf = np.unique(key, return_counts=True)
    return pa.table({
        "token": dd.dictionary.take(pa.array(ukey % max(nv, 1))),
        "doc_id": pa.array((ukey // max(nv, 1)).astype(np.int64)),
        "tf": pa.array(tf.astype(np.int64)),
    })


def build_text_index(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Postings Dataset (token, doc_id, tf). Lazy — write_parquet it for a
    persistent, resumable index (one file per block, token-prunable via
    parquet row-group stats when sorted by token)."""
    return ds.map_batches(
        lambda b: tokenize_batch(b, text_col, id_col),
        batch_format="pyarrow", zero_copy_batch=True)


def doc_length_stats(postings):
    """Corpus document-length statistics for BM25: a materialized Dataset
    (doc_id, dl=token count) via one group_agg sum over the postings,
    plus the two global scalars (n_docs, avgdl). N counts docs that
    produced at least one token (empty docs have no postings and can
    never match)."""
    from raphtory_ray.core.aggregate import Agg, group_agg
    dl = group_agg(postings, ["doc_id"], [Agg("dl", "sum", "tf")]) \
        .materialize()
    n = dl.count()
    total = dl.sum("dl") if n else 0
    return dl, n, (total / n) if n else 0.0


def levenshtein(a: str, bstr: str, cap: int) -> int:
    """Edit distance with early cutoff: returns cap+1 as soon as the
    distance provably exceeds ``cap`` (banded DP row minimum)."""
    la, lb = len(a), len(bstr)
    if abs(la - lb) > cap:
        return cap + 1
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != bstr[j - 1]))
        if min(cur) > cap:
            return cap + 1
        prev = cur
    return prev[lb]


def _fuzzy_prune(bt: pa.Table, qterms: list, fuzzy: int) -> pa.Table:
    """Keep postings whose token is within edit distance ``fuzzy`` of any
    query term; one output row per matched (posting, query term) with the
    matched term index in ``qterm``. Distance runs once per DISTINCT
    token in the block (dictionary-encoded), never per row."""
    dd = pc.dictionary_encode(bt["token"].combine_chunks())
    codes = dd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    matched: dict[int, list] = {}
    for code, tok in enumerate(dd.dictionary.to_pylist()):
        qs = [qi for qi, q in enumerate(qterms)
              if levenshtein(tok, q, fuzzy) <= fuzzy]
        if qs:
            matched[code] = qs
    if not matched:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "tf": pa.array([], pa.int64()),
                         "qterm": pa.array([], pa.int64())})
    mcodes = np.array(sorted(matched), np.int64)
    counts = np.array([len(matched[c]) for c in mcodes], np.int64)
    qflat = np.concatenate([np.asarray(matched[c], np.int64)
                            for c in mcodes])
    qoff = np.r_[0, np.cumsum(counts)]
    pos = np.searchsorted(mcodes, codes)
    pos_c = np.minimum(pos, len(mcodes) - 1)
    ok = mcodes[pos_c] == codes
    rows = np.flatnonzero(ok)
    pc_rows = pos_c[rows]
    rep = counts[pc_rows]
    rep_rows = np.repeat(rows, rep)
    starts = qoff[pc_rows]
    offs = np.arange(int(rep.sum())) - np.repeat(np.cumsum(rep) - rep, rep)
    qidx = qflat[np.repeat(starts, rep) + offs]
    ids = bt["doc_id"].to_numpy(zero_copy_only=False)
    tf = bt["tf"].to_numpy(zero_copy_only=False)
    return pa.table({"doc_id": pa.array(ids[rep_rows], pa.int64()),
                     "tf": pa.array(tf[rep_rows], pa.int64()),
                     "qterm": pa.array(qidx, pa.int64())})


def search(postings, terms, mode: str = "and", scoring: str = "tf",
           k1: float = 1.2, b: float = 0.75,
           quantize: float | None = None, fuzzy: int = 0) -> pa.Table:
    """Rank documents against ``terms`` over a postings Dataset. ``and``
    keeps docs containing EVERY term; ``or`` any.

    scoring="tf": (doc_id, n_terms, score=Σtf), score-desc / doc_id-asc.
    scoring="bm25" (round 5 — the reference's tantivy ranks BM25): the
    Lucene/tantivy formula, idf = ln(1 + (N - df + ½)/(df + ½)),
    per-term contribution idf·tf·(k1+1)/(tf + k1·(1 − b + b·dl/avgdl)).
    df comes from the pruned hits themselves (they hold every posting of
    each query term); dl only for the HIT docs (broadcast semi-join
    against the distributed doc-length aggregate — the corpus-sized dl
    table never reaches the driver). ``quantize`` (e.g. 1e6) emits an
    integer ``score_q`` grid for bit-stable cross-engine comparison."""
    assert mode in ("and", "or")
    assert scoring in ("tf", "bm25")
    qterms = sorted({t.lower() for t in terms})
    term_set = pa.array(qterms, pa.string())

    if fuzzy > 0:
        # fuzzy term matching (round 5 — the tantivy FuzzyTermQuery
        # surface): a doc matches query term q through ANY indexed token
        # within edit distance ``fuzzy``; variant hits collapse to one
        # (doc, q) row with summed tf, so downstream n_terms / BM25 df
        # semantics are per QUERY TERM exactly as in the exact path
        prune = (lambda bt: _fuzzy_prune(bt, qterms, fuzzy))
    else:
        def prune(bt: pa.Table) -> pa.Table:
            return bt.filter(pc.is_in(bt["token"], value_set=term_set))

    if scoring == "bm25":
        # materialize the POSTINGS once: both the prune pass and the
        # doc-length aggregate read them (review fix — materializing only
        # the pruned hits re-tokenized the whole corpus for dl stats)
        postings = postings.materialize()
    pruned = postings.map_batches(prune, batch_format="pyarrow",
                                  zero_copy_batch=True)
    hits = [t for t in pruned.iter_batches(batch_format="pyarrow")
            if t.num_rows]
    score_field = ("score_q" if quantize is not None else "score") \
        if scoring == "bm25" else "score"
    score_type = pa.float64() if (scoring == "bm25" and quantize is None) \
        else pa.int64()
    if not hits:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_terms": pa.array([], pa.int64()),
                         score_field: pa.array([], score_type)})
    t = pa.concat_tables(hits)
    if fuzzy > 0:
        # collapse variant hits to one (doc, query-term) row, summed tf,
        # token column = the QUERY term — the rest of the pipeline then
        # treats fuzzy exactly like the exact path
        ids0 = t["doc_id"].to_numpy(zero_copy_only=False)
        tf0 = t["tf"].to_numpy(zero_copy_only=False)
        qt0 = t["qterm"].to_numpy(zero_copy_only=False)
        u0, inv0 = np.unique(ids0, return_inverse=True)
        nq = len(qterms)
        key = inv0 * np.int64(nq) + qt0
        uk, inv2 = np.unique(key, return_inverse=True)
        tf2 = np.zeros(len(uk), np.int64)
        np.add.at(tf2, inv2, tf0)
        t = pa.table({
            "doc_id": pa.array(u0[uk // nq], pa.int64()),
            "token": pa.array(np.asarray(qterms, object)[uk % nq],
                              pa.string()),
            "tf": pa.array(tf2, pa.int64())})
    ids = t["doc_id"].to_numpy(zero_copy_only=False)
    tf = t["tf"].to_numpy(zero_copy_only=False)
    uids, inv = np.unique(ids, return_inverse=True)
    nterm = np.zeros(len(uids), np.int64)
    np.add.at(nterm, inv, 1)
    if scoring == "tf":
        score = np.zeros(len(uids), np.int64)
        np.add.at(score, inv, tf)
    else:
        import ray
        dl_ds, n_docs, avgdl = doc_length_stats(postings)
        # df per query term — the pruned hits hold one row per
        # (term, containing doc), so df = rows per term
        toks = t["token"]
        dcode = pc.dictionary_encode(toks.combine_chunks())
        codes = dcode.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        df = np.bincount(codes, minlength=len(dcode.dictionary))
        idf = np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        # dl for hit docs only (uids sorted by np.unique)
        uref = ray.put(uids)

        def pick(bt: pa.Table) -> pa.Table:
            u = ray.get(uref)
            d = bt["doc_id"].to_numpy(zero_copy_only=False)
            if not len(u):
                return bt.slice(0, 0)
            pos = np.minimum(np.searchsorted(u, d), len(u) - 1)
            return bt.filter(pa.array(u[pos] == d))

        parts = [p for p in dl_ds.map_batches(
            pick, batch_format="pyarrow", zero_copy_batch=True)
            .iter_batches(batch_format="pyarrow") if p.num_rows]
        dlt = pa.concat_tables(parts)
        d_ids = dlt["doc_id"].to_numpy(zero_copy_only=False)
        d_dl = dlt["dl"].to_numpy(zero_copy_only=False)
        o = np.argsort(d_ids)
        dl_of_uid = d_dl[o][np.searchsorted(d_ids[o], uids)]
        norm = k1 * (1.0 - b + b * dl_of_uid[inv] / avgdl)
        contrib = idf[codes] * (tf * (k1 + 1.0)) / (tf + norm)
        score = np.zeros(len(uids), np.float64)
        np.add.at(score, inv, contrib)
    if mode == "and":
        keep = nterm == len(term_set)
    else:
        keep = np.ones(len(uids), dtype=bool)
    uids, score, nterm = uids[keep], score[keep], nterm[keep]
    if scoring == "bm25" and quantize is not None:
        score = np.floor(score * quantize + 0.5000001).astype(np.int64)
    order = np.lexsort((uids, -score))
    return pa.table({"doc_id": pa.array(uids[order]),
                     "n_terms": pa.array(nterm[order]),
                     score_field: pa.array(score[order], score_type)})


def search_documents(ds, terms, mode: str = "and",
                     text_col: str = "text",
                     id_col: str = "doc_id", scoring: str = "tf",
                     quantize: float | None = None,
                     fuzzy: int = 0) -> pa.Table:
    """One-shot search (index built inline, streamed — nothing persists)."""
    return search(build_text_index(ds, text_col, id_col), terms, mode,
                  scoring=scoring, quantize=quantize, fuzzy=fuzzy)
