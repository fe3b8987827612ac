"""Text-analysis stages over a document Dataset (training-data pipeline ops).

All stages are vectorized ``map_batches`` bodies over zero-copy Arrow:
pyarrow.compute string kernels (count_substring_regex / split_pattern) or
numpy over flattened byte buffers — no per-row Python in the hot path except
where the kernel is itself the per-row compute (cryptographic hashing).

Ops: token counting, quality stats, language ID (n-gram/stopword heuristic),
winnowing fingerprints (rolling hash).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from raphtory_ray.core.exchange import (bucket, num_partitions, returns,
                                        shuffle, split_table)
from raphtory_ray.core.exchange import splitmix64 as _splitmix64

MERSENNE61 = np.uint64((1 << 61) - 1)
_B = np.uint64(1_000_003)


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """(doc_id, n_tokens): whitespace-delimited token count; empty/blank
    text → 0. Mirrors DuckDB
    ``CASE WHEN trim(text)='' THEN 0 ELSE len(regexp_split_to_array(trim(text),'\\s+')) END``."""
    txt = pc.utf8_trim_whitespace(batch[text_col])
    n = pc.list_value_length(pc.split_pattern_regex(txt, r"\s+"))
    n = pc.if_else(pc.equal(txt, ""), pa.scalar(0, pa.int32()), n)
    return pa.table({"doc_id": batch["doc_id"],
                     "n_tokens": n.cast(pa.int64())})


_QUALITY_PATTERNS = {
    "n_alpha": r"[A-Za-z]",
    "n_digit": r"[0-9]",
    "n_space": r"\s",
    "n_punct": r"[.,;:!?'\"()\[\]{}-]",
    "n_upper": r"[A-Z]",
}


def quality_stats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-doc integer character-class counts + total codepoints — the raw
    material for quality ratios (kept integral so the DuckDB oracle is
    bit-exact)."""
    txt = batch[text_col]
    cols = {"doc_id": batch["doc_id"],
            "n_chars": pc.utf8_length(txt).cast(pa.int64())}
    for name, pat in _QUALITY_PATTERNS.items():
        cols[name] = pc.count_substring_regex(txt, pat).cast(pa.int64())
    return pa.table(cols)


# Tiny per-language marker vocabularies for the heuristic classifier.
# Deliberately coarse: this mirrors fastText-style langid shape (score =
# sum of marker hits, argmax), not its quality.
_LANG_MARKERS = {
    "en": [" the ", " and ", " of ", " to ", " is "],
    "de": [" der ", " und ", " die ", " ist ", " nicht "],
    "fr": [" le ", " la ", " et ", " les ", " est "],
    "es": [" el ", " de ", " que ", " los ", " es "],
}


class LanguageId:
    """Actor-pool stage: stopword-marker language scorer. Marker list is
    prepared once per actor (``__init__``), scoring is one
    count_substring call per (lang, marker) over the whole batch."""

    def __init__(self, markers: dict[str, list[str]] | None = None):
        self.markers = markers or _LANG_MARKERS
        self.langs = sorted(self.markers)

    def __call__(self, batch: pa.Table) -> pa.Table:
        txt = pc.utf8_lower(batch["text"])
        scores = np.zeros((batch.num_rows, len(self.langs)), dtype=np.int64)
        for li, lang in enumerate(self.langs):
            for m in self.markers[lang]:
                scores[:, li] += pc.count_substring(txt, m).to_numpy(
                    zero_copy_only=False)
        best = np.argmax(scores, axis=1)
        pred = np.array(self.langs, dtype=object)[best]
        pred[scores.max(axis=1) == 0] = "unknown"
        return pa.table({
            "doc_id": batch["doc_id"],
            "pred_lang": pa.array(list(pred), pa.string()),
            "score": pa.array(scores.max(axis=1), pa.int64()),
        })


def _flat_utf8(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated byte buffer + per-row offsets for a string column —
    the zero-copy path into numpy rolling-hash kernels."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    arr = col.cast(pa.large_string())
    buf = np.frombuffer(arr.buffers()[2], dtype=np.uint8) if arr.buffers()[2] else np.empty(0, np.uint8)
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int64)[arr.offset:arr.offset + len(arr) + 1]
    return buf, offsets


def kgram_hashes(buf: np.ndarray, k: int) -> np.ndarray:
    """Polynomial rolling hash (base _B, natural u64 wraparound) of every
    k-byte window of ``buf``; vectorized as k shifted multiply-adds."""
    n = len(buf)
    if n < k:
        return np.empty(0, dtype=np.uint64)
    out = np.zeros(n - k + 1, dtype=np.uint64)
    for j in range(k):
        out = out * _B + buf[j:n - k + 1 + j].astype(np.uint64)
    return out


def winnow_batch(batch: pa.Table, k: int = 8, window: int = 16,
                 text_col: str = "text") -> pa.Table:
    """Winnowing document fingerprints (Schleimer et al. 2003): per doc,
    min k-gram hash in each sliding window of ``window`` hashes, deduped.
    Output one row per (doc_id, fingerprint). ``fingerprint_min`` callers
    reduce to one row per doc."""
    buf, offsets = _flat_utf8(batch[text_col])
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    out_doc, out_fp = [], []
    for i in range(len(doc_ids)):
        piece = buf[offsets[i]:offsets[i + 1]]
        h = kgram_hashes(piece, k)
        if len(h) == 0:
            continue
        if len(h) <= window:
            fps = np.unique(h.min(keepdims=True))
        else:
            w = np.lib.stride_tricks.sliding_window_view(h, window)
            fps = np.unique(w.min(axis=1))
        out_doc.append(np.full(len(fps), doc_ids[i], dtype=np.int64))
        out_fp.append(fps)
    if not out_doc:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "fingerprint": pa.array([], pa.uint64())})
    return pa.table({"doc_id": pa.array(np.concatenate(out_doc)),
                     "fingerprint": pa.array(np.concatenate(out_fp))})


def chunk_batch(batch: pa.Table, size: int = 120, overlap: int = 30,
                text_col: str = "text") -> pa.Table:
    """Fixed character-window document chunking with overlap — the first
    stage of a chunk→embed→dedup training-data pipeline. Chunk ``k``
    covers codepoints ``[k*stride, k*stride+size)`` with
    ``stride = size - overlap``, emitted while ``k*stride < len(text)``
    (empty text → no chunks). Output one row per (doc_id, chunk_id,
    chunk, n_chars).

    Vectorized: ONE ``utf8_slice_codeunits`` kernel call per chunk INDEX
    (≤ max_len/stride calls per batch), never per row. Exact DuckDB
    mirror: ``substr(text, k*stride+1, size)`` over a ``range()`` join
    on ``k*stride < length(text)`` (both substr and utf8_slice count
    codepoints)."""
    assert 0 <= overlap < size
    stride = size - overlap
    txt = batch[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    ids = batch["doc_id"]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    L = pc.utf8_length(txt).to_numpy(zero_copy_only=False).astype(np.int64)
    out = []
    k = 0
    while True:
        start = k * stride
        m = L > start
        if not m.any():
            break
        sel = pa.array(m)
        piece = pc.utf8_slice_codeunits(txt.filter(sel), start,
                                        start + size)
        out.append(pa.table({
            "doc_id": ids.filter(sel),
            "chunk_id": pa.array(np.full(int(m.sum()), k, np.int64)),
            "chunk": piece,
            "n_chars": pc.utf8_length(piece).cast(pa.int64()),
        }))
        k += 1
    if not out:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "chunk_id": pa.array([], pa.int64()),
                         "chunk": pa.array([], pa.string()),
                         "n_chars": pa.array([], pa.int64())})
    return pa.concat_tables(out)


def trigram_stats_batch(batch: pa.Table,
                        text_col: str = "text") -> pa.Table:
    """Word-trigram repetition stats per doc — the Gopher-style
    repetition quality signal (Rae et al. 2021 §A1.1: fraction of
    duplicated n-grams): total trigrams, distinct trigrams, and the
    most-repeated trigram's count. Docs with < 3 whitespace tokens emit
    no row.

    Vectorized: one split kernel, numpy concatenation over the flattened
    token array (doc boundaries masked by position ownership), Arrow
    C++ group_by for the distinct/count reductions — no per-row loop."""
    txt = batch[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    toks = pc.split_pattern_regex(pc.utf8_trim_whitespace(txt), r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "n_trigrams": pa.array([], pa.int64()),
                      "n_distinct": pa.array([], pa.int64()),
                      "max_repeat": pa.array([], pa.int64())})
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    # values of a (possibly sliced) ListArray are absolute-indexed
    v = toks.values.to_numpy(zero_copy_only=False)[offs[0]:offs[-1]]
    if len(v) < 3:
        return empty
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    row_of_pos = np.repeat(np.arange(batch.num_rows),
                           np.diff(offs - offs[0]))
    valid = row_of_pos[:-2] == row_of_pos[2:]   # trigram within one doc
    if not valid.any():
        return empty
    tri = (v[:-2] + " " + v[1:-1] + " " + v[2:])[valid]
    docs = doc_ids[row_of_pos[:-2][valid]]
    per_tri = pa.table({"doc_id": pa.array(docs, pa.int64()),
                        "tri": pa.array(tri, pa.string())}) \
        .group_by(["doc_id", "tri"]).aggregate([("tri", "count")])
    out = per_tri.group_by(["doc_id"]).aggregate(
        [("tri_count", "sum"), ("tri_count", "count"),
         ("tri_count", "max")])
    return pa.table({
        "doc_id": out["doc_id"],
        "n_trigrams": out["tri_count_sum"].cast(pa.int64()),
        "n_distinct": out["tri_count_count"].cast(pa.int64()),
        "max_repeat": out["tri_count_max"].cast(pa.int64()),
    })


def trigram_repetition(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: trigram_stats_batch(b, text_col),
                          batch_format="pyarrow", zero_copy_batch=True)


def chunk_documents(ds, size: int = 120, overlap: int = 30,
                    text_col: str = "text"):
    return ds.map_batches(lambda b: chunk_batch(b, size, overlap,
                                                text_col),
                          batch_format="pyarrow", zero_copy_batch=True)


def token_counts(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: token_count_batch(b, text_col),
                          batch_format="pyarrow", zero_copy_batch=True)


def quality_stats(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: quality_stats_batch(b, text_col),
                          batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------------ TF-IDF / vocab

def _doc_term_tf(batch: pa.Table, text_col: str,
                 id_col: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (doc, term) pairs with term frequency for one batch —
    whitespace tokens, vectorized explode (Arrow split + np.repeat) then
    a C-level pandas groupby. One row == one document, so per-doc counts
    are complete within the batch."""
    import pandas as pd
    txt = pc.utf8_trim_whitespace(batch[text_col].combine_chunks())
    toks = pc.split_pattern_regex(txt, r"\s+")
    lens = pc.list_value_length(toks).fill_null(0).to_numpy(
        zero_copy_only=False)
    docs = np.repeat(batch[id_col].to_numpy(zero_copy_only=False),
                     lens.astype(np.int64))
    terms = toks.flatten().to_numpy(zero_copy_only=False)
    keep = terms != ""                 # blank text splits to ['']
    docs, terms = docs[keep], terms[keep]
    g = pd.DataFrame({"d": docs, "t": terms}).groupby(
        ["d", "t"], sort=False).size()
    idx = g.index
    return (idx.get_level_values(0).to_numpy(),
            idx.get_level_values(1).to_numpy(),
            g.to_numpy().astype(np.int64))


def vocab_stats(ds, text_col: str = "text", id_col: str = "doc_id",
                min_df: int | None = None, max_vocab: int | None = None,
                stats: dict | None = None):
    """Corpus vocabulary statistics: (term, df, tf) with df = number of
    documents containing the term and tf = total occurrences.

    Scale shape: the expensive work (tokenize + per-doc dedup) happens
    inside map_batches as a PARTIAL aggregate — each batch emits one row
    per distinct term it saw — so the only shuffle is a group_agg sum
    over vocabulary-sized partials, not over the token stream (the
    classic combiner pattern; partial dfs sum exactly because a document
    lives in exactly one row/batch).

    ``min_df`` / ``max_vocab`` (round 5, enforced — a web-scale corpus has
    ~10⁹ k-gram-noise terms and any driver consumer of this table needs a
    bound): ``min_df`` filters rare terms INSIDE the distributed
    aggregation output (a streaming per-block filter, before anything is
    pulled); ``max_vocab`` keeps the global top-V terms by (tf desc, term
    asc) via per-block partial top-V then a bounded O(V·blocks) merge.
    ``stats``, if given, receives ``dropped_terms`` (count removed by the
    caps; also logged — never silent)."""
    from raphtory_ray.core.aggregate import Agg, group_agg

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd
        _, t, tf = _doc_term_tf(b, text_col, id_col)
        g = pd.DataFrame({"t": t, "tf": tf}).groupby("t", sort=False).agg(
            df=("tf", "size"), tf=("tf", "sum"))
        return pa.table({"term": pa.array(g.index.to_numpy(), pa.string()),
                         "df": pa.array(g["df"].to_numpy(), pa.int64()),
                         "tf": pa.array(g["tf"].to_numpy(), pa.int64())})

    hint = pa.table({"term": pa.array([], pa.string()),
                     "df": pa.array([], pa.int64()),
                     "tf": pa.array([], pa.int64())})
    full = group_agg(ds, ["term"], [Agg("df", "sum", "df"),
                                    Agg("tf", "sum", "tf")], hint, partial)
    if min_df is None and max_vocab is None:
        return full
    full = full.materialize()
    total = full.count()
    out = full
    if min_df is not None:
        import pyarrow.compute as pc

        def dffilter(b: pa.Table, _m=int(min_df)) -> pa.Table:
            return b.filter(pc.greater_equal(b["df"], pa.scalar(_m)))

        out = out.map_batches(dffilter, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
        # materialized once: both the dropped-terms count below and the
        # caller's consumption read these blocks (review fix — the lazy
        # dataset re-ran the filter pass on every consumption)
    if max_vocab is not None:
        V = int(max_vocab)

        def topv(b: pa.Table, _v=V) -> pa.Table:
            # per-block partial top-V: final merge sees ≤ V·blocks rows
            t = b["term"].to_numpy(zero_copy_only=False)
            tf = b["tf"].to_numpy(zero_copy_only=False)
            o = np.lexsort((t, -tf))[:_v]
            return b.take(pa.array(np.sort(o)))

        import ray
        import ray.data as rd
        refs = (out.map_batches(topv, batch_format="pyarrow",
                                zero_copy_batch=True)
                .materialize().to_arrow_refs())
        cand = pa.concat_tables(ray.get(refs))   # ≤ V·blocks rows — bounded
        t = cand["term"].to_numpy(zero_copy_only=False)
        tf = cand["tf"].to_numpy(zero_copy_only=False)
        o = np.lexsort((t, -tf))[:V]
        out = rd.from_arrow(cand.take(pa.array(np.sort(o))))
    kept = out.count()
    dropped = total - kept
    if stats is not None:
        stats["dropped_terms"] = dropped
    if dropped:
        import logging
        logging.getLogger("raphtory_ray.text").info(
            "vocab_stats: caps (min_df=%s, max_vocab=%s) dropped %d of %d "
            "terms", min_df, max_vocab, dropped, total)
    return out


def tfidf_top_terms(ds, k: int = 3, text_col: str = "text",
                    id_col: str = "doc_id", quantize: float | None = None,
                    min_df: int | None = None, max_vocab: int | None = None,
                    cap_stats: dict | None = None):
    """Top-k terms per document by tf × ln(N/df), ties broken by term
    ascending (deterministic at any parallelism).

    The document-frequency table is pulled once for the broadcast —
    vocabulary-sized, so at 100 TB pass ``min_df`` and/or ``max_vocab``
    (round 5: enforced inside vocab_stats' distributed aggregation, with
    the dropped-term count surfaced via ``cap_stats``/log) to bound the
    driver pull; terms outside the capped vocabulary are skipped (they
    cannot rank). Each batch resolves its terms with a vectorized binary
    search — no shuffle join. Per-doc top-k is one np.lexsort per batch.

    ``quantize`` (e.g. 1e9) snaps scores to an integer grid
    (floor(score·q + 0.5000001), int64 ``score_q``) and RANKS on the
    quantized value, so ranking and output are bit-identical to any
    engine whose ln() differs from libm in the last ulp."""
    import ray as _ray
    stats = vocab_stats(ds, text_col, id_col, min_df=min_df,
                        max_vocab=max_vocab, stats=cap_stats).take_all()
    terms = np.array([r["term"] for r in stats], dtype=object)
    dfs = np.array([r["df"] for r in stats], dtype=np.int64)
    order = np.argsort(terms)
    n_docs = ds.count()
    ref = _ray.put((terms[order], dfs[order], n_docs))

    def topk(b: pa.Table, _ref=ref, _k=k, _q=quantize) -> pa.Table:
        vocab, df_sorted, n = _ray.get(_ref)
        d, t, tf = _doc_term_tf(b, text_col, id_col)
        if len(vocab) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "term": pa.array([], pa.string()),
                             "tf": pa.array([], pa.int64()),
                             ("score_q" if _q is not None else "score"):
                                 pa.array([], pa.int64() if _q is not None
                                          else pa.float64()),
                             "rk": pa.array([], pa.int64())})
        pos = np.searchsorted(vocab, t)
        pos_c = np.minimum(pos, len(vocab) - 1)
        inv = vocab[pos_c] == t         # capped-out terms cannot rank
        d, t, tf, pos = d[inv], t[inv], tf[inv], pos_c[inv]
        score = tf * np.log(n / df_sorted[pos])
        if _q is not None:
            score = np.floor(score * _q + 0.5000001).astype(np.int64)
        # primary doc, then score desc, then term asc
        o = np.lexsort((t, -score, d))
        ds_, ts_, tfs_, sc_ = d[o], t[o], tf[o], score[o]
        starts = np.flatnonzero(np.r_[True, ds_[1:] != ds_[:-1]])
        sizes = np.diff(np.r_[starts, len(ds_)])
        rank = np.arange(len(ds_)) - np.repeat(starts, sizes)
        keep = rank < _k
        cols = {
            id_col: pa.array(ds_[keep], pa.int64()),
            "term": pa.array(ts_[keep], pa.string()),
            "tf": pa.array(tfs_[keep], pa.int64()),
        }
        if _q is not None:
            cols["score_q"] = pa.array(sc_[keep], pa.int64())
        else:
            cols["score"] = pa.array(sc_[keep], pa.float64())
        cols["rk"] = pa.array(rank[keep] + 1, pa.int64())
        return pa.table(cols)

    return ds.map_batches(topk, batch_format="pyarrow",
                          zero_copy_batch=True)


_LANGID_SINGLETON: dict = {}


def language_id(ds, concurrency=None):
    # LanguageId's state (marker list) is trivial — plain tasks with a
    # worker-process singleton beat an actor pool's spin-up (round 5,
    # same reasoning as dedup._minhash_batch). ``concurrency`` still
    # bounds task parallelism when given.
    def f(b):
        st = _LANGID_SINGLETON.get("l")
        if st is None:
            st = _LANGID_SINGLETON["l"] = LanguageId()
        return st(b)

    kw = {"concurrency": concurrency} if concurrency is not None else {}
    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True,
                          **kw)


def fingerprints(ds, k: int = 8, window: int = 16):
    return ds.map_batches(lambda b: winnow_batch(b, k, window),
                          batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------- PII-style redaction

#: classic PII shapes (RE2 syntax — pyarrow and DuckDB both run RE2, so
#: the SQL oracle is the literal same pattern)
PII_PATTERNS = [
    r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}",   # email
    r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b",           # IPv4
    r"\b\d{3}[-. ]\d{3,4}[-. ]\d{4}\b",                  # phone-ish
]


def redact_batch(batch: pa.Table, patterns: list,
                 mask: str = "[REDACTED]",
                 text_col: str = "text") -> pa.Table:
    """Regex scrubbing for training corpora: patterns are applied
    SEQUENTIALLY (each sees the previous pattern's output, exactly like
    nested ``regexp_replace`` in SQL); ``n_redactions`` counts every
    match that was rewritten. Vectorized pc.count_substring_regex /
    replace_substring_regex — no per-row Python."""
    out = batch[text_col]
    if isinstance(out, pa.ChunkedArray):
        out = out.combine_chunks()
    total = np.zeros(batch.num_rows, dtype=np.int64)
    for p in patterns:
        total += pc.count_substring_regex(out, p).to_numpy(
            zero_copy_only=False).astype(np.int64)
        out = pc.replace_substring_regex(out, p, replacement=mask)
    return pa.table({"doc_id": batch["doc_id"], "text": out,
                     "n_redactions": pa.array(total)})


def redact_documents(ds, patterns: list | None = None,
                     mask: str = "[REDACTED]", text_col: str = "text"):
    pats = PII_PATTERNS if patterns is None else patterns
    return ds.map_batches(lambda b: redact_batch(b, pats, mask, text_col),
                          batch_format="pyarrow", zero_copy_batch=True)


# ----------------------------------------------- deterministic sampling

def sample_batch(batch: pa.Table, rates: dict | int,
                 strata_col: str = "source", id_col: str = "doc_id",
                 seed: int = 0) -> pa.Table:
    """Hash-stratified sampling: keep a row iff
    ``splitmix64(id + seed) % 1000 < permille`` where the permille rate
    comes from ``rates[stratum]`` (dict) or is flat (int). Deterministic
    per id — re-running, resharding or resuming selects the SAME rows
    (no RNG state), which is what a resumable 100-TB pipeline needs.
    Unknown strata default to rate 0 (dropped)."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    coin = _splitmix64(ids + np.int64(seed)) % np.uint64(1000)
    if isinstance(rates, dict):
        sv = batch[strata_col].to_pandas().map(rates).fillna(0) \
            .to_numpy().astype(np.uint64)
    else:
        sv = np.full(len(ids), rates, dtype=np.uint64)
    return batch.filter(pa.array(coin < sv))


def sample_documents(ds, rates: dict | int, strata_col: str = "source",
                     id_col: str = "doc_id", seed: int = 0):
    return ds.map_batches(
        lambda b: sample_batch(b, rates, strata_col, id_col, seed),
        batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------------- decontamination

def decontaminate(ds, bench_ds, k: int = 24, text_col: str = "text"):
    """Benchmark decontamination: flag every corpus document sharing at
    least one character ``k``-gram (rolling hash, kgram_hashes) with any
    benchmark document. The benchmark side is SMALL by definition
    (eval sets), so its distinct k-gram hashes are collected once,
    deduped, and broadcast via ``ray.put`` — each corpus batch then does
    one vectorized ``np.isin`` against the shared sorted array. Returns
    (doc_id, n_hits, contaminated). Partitioning assumption: the
    benchmark hash set fits in worker memory (10⁸ hashes ≈ 800 MB);
    beyond that, switch to a hash-partitioned semi-join on the k-gram
    hash (the minhash band-shuffle pattern in data/dedup.py)."""
    import ray

    def bench_hashes(b: pa.Table) -> pa.Table:
        buf, off = _flat_utf8(b[text_col])
        hs = []
        for i in range(b.num_rows):
            piece = buf[off[i]:off[i + 1]]
            h = kgram_hashes(piece, k)
            if len(h):
                hs.append(np.unique(h))
        out = np.unique(np.concatenate(hs)) if hs else \
            np.empty(0, np.uint64)
        return pa.table({"h": pa.array(out)})

    bh = bench_ds.map_batches(bench_hashes, batch_format="pyarrow",
                              zero_copy_batch=True)
    allh = np.unique(bh.to_pandas()["h"].to_numpy().astype(np.uint64))
    ref = ray.put(allh)

    def flag(b: pa.Table, _ref=ref) -> pa.Table:
        bench = ray.get(_ref) if isinstance(_ref, ray.ObjectRef) else _ref
        buf, off = _flat_utf8(b[text_col])
        n_hits = np.zeros(b.num_rows, np.int64)
        for i in range(b.num_rows):
            piece = buf[off[i]:off[i + 1]]
            h = kgram_hashes(piece, k)
            if len(h):
                n_hits[i] = int(np.isin(np.unique(h), bench,
                                        assume_unique=True).sum())
        return pa.table({"doc_id": b["doc_id"],
                         "n_hits": pa.array(n_hits),
                         "contaminated": pa.array(n_hits > 0)})

    return ds.map_batches(flag, batch_format="pyarrow",
                          zero_copy_batch=True)


# -------------------------------------------- token-budget sequence packing

def pack_documents(ds, budget: int = 2048, text_col: str = "text"):
    """Assign documents (in doc_id order) to fixed-token-budget training
    sequences: seq_id = exclusive-prefix-sum(n_tokens) // budget — the
    deterministic contiguous packing a sample-packing dataloader uses.

    Distributed as a classic two-pass prefix sum: pass 1 computes each
    block's (min doc_id, token subtotal) — a tiny O(blocks) driver
    gather; pass 2 re-streams each block with its global starting offset.
    No sort, no shuffle. Requires id-contiguous blocks (any id-ordered
    read qualifies, regardless of the order blocks ARRIVE in — streaming
    execution is free to reorder them, so blocks are re-anchored by min
    doc_id); feed it id-sorted input."""
    import ray
    import ray.data as rd
    counted = ds.map_batches(lambda b: token_count_batch(b, text_col),
                             batch_format="pyarrow", zero_copy_batch=True)
    mat = counted.materialize()
    # Ray skips map fns on empty blocks, which then have no columns
    refs = [r for r, n in zip(mat.to_arrow_refs(), mat._block_num_rows())
            if n]
    if not refs:
        schema = ds.schema()
        ids = schema.types[schema.names.index("doc_id")] \
            if schema is not None and "doc_id" in schema.names \
            else pa.int64()
        return rd.from_arrow(pa.table({
            "doc_id": pa.array([], ids),
            "n_tokens": pa.array([], pa.int64()),
            "seq_id": pa.array([], pa.int64())}))
    # streaming execution does NOT preserve block order — anchor each
    # block by its min doc_id (blocks of an id-ordered read are
    # contiguous id ranges even when returned out of order)
    meta = ray.get([_block_token_sum.remote(r) for r in refs])
    order = np.argsort([m[0] for m in meta], kind="stable")
    subtotals = np.array([meta[i][1] for i in order], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(subtotals)[:-1]])

    out = [_pack_block.remote(refs[i], int(s0), budget)
           for i, s0 in zip(order, starts)]
    return rd.from_arrow_refs(out)


import ray as _ray  # noqa: E402  (remote decorators below)


@_ray.remote
def _block_token_sum(b: pa.Table) -> tuple:
    ids = b["doc_id"].to_numpy(zero_copy_only=False)
    return (int(ids.min()) if len(ids) else 2**62,
            int(b["n_tokens"].to_numpy(zero_copy_only=False).sum()))


@_ray.remote
def _pack_block(b: pa.Table, start: int, budget: int) -> pa.Table:
    n = b["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
    excl = start + np.cumsum(n) - n
    return pa.table({"doc_id": b["doc_id"],
                     "n_tokens": b["n_tokens"],
                     "seq_id": pa.array(excl // budget, pa.int64())})


# Gopher-style rule filter (Rae et al. 2021, Table A1) -----------------------

_GOPHER_STOPWORDS = ["the", "be", "to", "of", "and", "that", "have", "with"]


def gopher_rules_batch(batch: pa.Table, text_col: str = "text",
                       min_words: int = 5, max_words: int = 100000,
                       min_mwl: int = 3, max_mwl: int = 10,
                       min_alpha_pct: int = 80,
                       min_stopwords: int = 2,
                       max_symbol_pct: int = 10) -> pa.Table:
    """Gopher-style rule-based quality filter (Rae et al. 2021 §A1.1,
    adapted to single-line docs — the line-level bullet/ellipsis rules
    degenerate without newlines and are omitted):

    - word count within [min_words, max_words]
    - mean word length within [min_mwl, max_mwl]
    - ≥ min_alpha_pct % of words contain an alphabetic character
    - ≥ min_stopwords distinct Gopher stop words present (whole-word)
    - symbols (# and ...) ≤ max_symbol_pct % of words

    ALL comparisons are integer cross-multiplications (no float ratios),
    so the DuckDB oracle is bit-exact. Emits one row per doc with the
    five rule booleans and the conjunction ``keep``. Vectorized: one
    split kernel; flattened-token regex + segment reduction for the
    alpha rule (no per-row Python)."""
    txt = batch[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    trimmed = pc.utf8_trim_whitespace(txt)
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    nw = pc.list_value_length(toks).cast(pa.int64()).to_numpy(
        zero_copy_only=False).astype(np.int64)
    blank = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
    nw = np.where(blank, 0, nw)
    # per-token stats on the flattened values, segment-reduced per doc
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = toks.values.slice(offs[0], offs[-1] - offs[0])
    seg = offs - offs[0]
    tok_len = pc.utf8_length(vals).cast(pa.int64()).to_numpy(
        zero_copy_only=False).astype(np.int64)
    tok_alpha = pc.match_substring_regex(vals, "[A-Za-z]").to_numpy(
        zero_copy_only=False).astype(np.int64)
    cum_len = np.concatenate([[0], np.cumsum(tok_len)])
    cum_alpha = np.concatenate([[0], np.cumsum(tok_alpha)])
    sum_len = cum_len[seg[1:]] - cum_len[seg[:-1]]
    n_alpha = cum_alpha[seg[1:]] - cum_alpha[seg[:-1]]
    sum_len = np.where(blank, 0, sum_len)
    n_alpha = np.where(blank, 0, n_alpha)
    # whole-word stopword presence against the padded text
    padded = pc.binary_join_element_wise(
        pa.array([" "] * len(txt)), pc.utf8_lower(txt),
        pa.array([" "] * len(txt)), "")
    n_stop = np.zeros(len(txt), np.int64)
    for w in _GOPHER_STOPWORDS:
        n_stop += (pc.count_substring(padded, f" {w} ").to_numpy(
            zero_copy_only=False) > 0).astype(np.int64)
    n_sym = (pc.count_substring(txt, "#").to_numpy(zero_copy_only=False)
             + pc.count_substring(txt, "...").to_numpy(
                 zero_copy_only=False)).astype(np.int64)
    r_words = (nw >= min_words) & (nw <= max_words)
    r_mwl = (sum_len >= min_mwl * nw) & (sum_len <= max_mwl * nw) & (nw > 0)
    r_alpha = (n_alpha * 100 >= min_alpha_pct * nw) & (nw > 0)
    r_stop = n_stop >= min_stopwords
    r_sym = n_sym * 100 <= max_symbol_pct * nw
    keep = r_words & r_mwl & r_alpha & r_stop & r_sym
    return pa.table({
        "doc_id": batch["doc_id"],
        "n_words": pa.array(nw, pa.int64()),
        "rule_words": pa.array(r_words),
        "rule_mean_word_len": pa.array(r_mwl),
        "rule_alpha_words": pa.array(r_alpha),
        "rule_stopwords": pa.array(r_stop),
        "rule_symbols": pa.array(r_sym),
        "keep": pa.array(keep),
    })


def gopher_filter(ds, text_col: str = "text", **kwargs):
    """Streaming Gopher rule evaluation: one zero-copy Arrow pass."""
    return ds.map_batches(
        lambda b: gopher_rules_batch(b, text_col, **kwargs),
        batch_format="pyarrow", zero_copy_batch=True)


def _bottomk_block(b: pa.Table, k: int, seed: int,
                   id_col: str) -> pa.Table:
    ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    key = _splitmix64(ids + np.int64(seed))
    if len(key) > k:
        idx = np.argpartition(key, k)[:k]
        b = b.take(pa.array(idx))
        key = key[idx]
    return b.append_column("_skey", pa.array(key.astype(np.int64)))


def sample_bottom_k(ds, k: int, seed: int = 0, id_col: str = "doc_id"):
    """Deterministic uniform k-sample of a Dataset of ANY size: the k
    rows with the smallest splitmix64(id + seed) — the classic
    distributed bottom-k sampler. One streaming pass emits ≤ k rows per
    block (argpartition, no sort); the driver merge handles ≤ k·blocks
    rows. Deterministic per id: re-running, resharding or resuming picks
    the SAME sample (the fixed property every sampler in this repo
    shares), and the SQL oracle is ORDER BY the same key LIMIT k.
    Returns a pa.Table (driver-resident by construction: k rows)."""
    import ray as _r
    parts = [t for t in _r.get(
        ds.map_batches(lambda b: _bottomk_block(b, k, seed, id_col),
                       batch_format="pyarrow", zero_copy_batch=True)
        .materialize().to_arrow_refs()) if t.num_rows]
    if not parts:
        sch = ds.schema().base_schema
        return pa.table({f.name: pa.array([], f.type) for f in sch})
    t = pa.concat_tables(parts)
    key = t["_skey"].to_numpy(zero_copy_only=False).astype(np.uint64)
    ids = t[id_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, key))[:k]       # (key, id) — tie-stable
    return t.take(pa.array(order)).drop_columns(["_skey"])


def _vc_block(b: pa.Table, col: str) -> pa.Table:
    v = b[col].to_numpy(zero_copy_only=False).astype(np.int64)
    vals, cnt = np.unique(v, return_counts=True)
    return pa.table({"v": pa.array(vals, pa.int64()),
                     "n": pa.array(cnt, pa.int64())})


def exact_quantiles(ds, col: str, qs=(0.25, 0.5, 0.75, 0.95)) -> pa.Table:
    """EXACT distributed quantiles of an integer column via merged
    value-count partials (the combiner pattern): each block emits its
    (value, count) histogram — O(distinct) rows, never the data — the
    driver merges and reads nearest-rank quantiles (smallest v with
    cum ≥ ⌈q·n⌉, the deterministic discrete definition). Right for the
    bounded-cardinality columns curation stats run on (lengths, token
    counts, scores-on-a-grid); unbounded floats would take the t-digest
    variant instead."""
    import ray as _r
    parts = [t for t in _r.get(
        ds.map_batches(lambda b: _vc_block(b, col),
                       batch_format="pyarrow", zero_copy_batch=True)
        .materialize().to_arrow_refs()) if t.num_rows]
    if not parts:
        return pa.table({"q": pa.array([], pa.float64()),
                         "value": pa.array([], pa.int64())})
    t = pa.concat_tables(parts)
    v = t["v"].to_numpy(zero_copy_only=False)
    n = t["n"].to_numpy(zero_copy_only=False)
    order = np.argsort(v, kind="stable")
    v, n = v[order], n[order]
    starts = np.flatnonzero(np.r_[True, v[1:] != v[:-1]])
    vals = v[starts]
    cnts = np.add.reduceat(n, starts)
    cum = np.cumsum(cnts)
    total = int(cum[-1])
    out_q, out_v = [], []
    for q in qs:
        rank = int(np.ceil(q * total))
        rank = max(1, min(rank, total))
        out_q.append(q)
        out_v.append(int(vals[np.searchsorted(cum, rank)]))
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.int64())})


def _group_topk_block(b: pa.Table, group_col: str, order_col: str,
                      k: int, id_col: str = "doc_id") -> pa.Table:
    g = b[group_col].to_numpy(zero_copy_only=False)
    v = b[order_col].to_numpy(zero_copy_only=False)
    # per-group top-k by (value DESC, row id ASC for determinism)
    ids = b[id_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -v, g))
    gs = g[order]
    starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
    pos = np.arange(len(gs)) - np.repeat(starts, np.diff(np.r_[starts,
                                                               len(gs)]))
    return b.take(pa.array(order[pos < k]))


def group_top_k(ds, group_col: str, order_col: str, k: int,
                id_col: str = "doc_id") -> pa.Table:
    """Per-group top-k rows by ``order_col`` DESC (ties → smallest
    ``id_col``) — the partial+final pattern: every block thins to ≤ k
    rows per group it sees, the driver merge handles ≤ k·blocks·groups
    rows (never the data). The standard 'top documents per
    language/source' curation op."""
    import ray as _r
    parts = [t for t in _r.get(
        ds.map_batches(lambda b: _group_topk_block(b, group_col,
                                                   order_col, k, id_col),
                       batch_format="pyarrow", zero_copy_batch=True)
        .materialize().to_arrow_refs()) if t.num_rows]
    if not parts:
        sch = ds.schema().base_schema
        return pa.table({f.name: pa.array([], f.type) for f in sch})
    t = pa.concat_tables(parts)
    return _group_topk_block(t, group_col, order_col, k, id_col)


def _doc_tokens(batch: pa.Table, text_col: str):
    """Flattened whitespace tokens + per-position doc row ids (the shared
    tokenization every oracle mirrors: regexp-trim then split \\s+)."""
    txt = batch[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    trimmed = pc.utf8_trim_whitespace(txt)
    toks = pc.split_pattern_regex(trimmed, r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    vals = toks.values.slice(offs[0], offs[-1] - offs[0])
    seg = offs - offs[0]
    row_of = np.repeat(np.arange(batch.num_rows), np.diff(seg))
    blank = pc.equal(trimmed, "").to_numpy(zero_copy_only=False)
    keep = ~blank[row_of]            # a blank doc's single '' token drops
    return vals.filter(pa.array(keep)), row_of[keep]


def _lm_count_block(b: pa.Table, text_col: str, train_mod: int) -> pa.Table:
    ids = b["doc_id"].to_numpy(zero_copy_only=False)
    train = ids % train_mod != 0
    sub = b.filter(pa.array(train))
    if sub.num_rows == 0:
        return pa.table({"gram": pa.array([], pa.string()),
                         "kind": pa.array([], pa.int8()),
                         "n": pa.array([], pa.int64())})
    vals, row_of = _doc_tokens(sub, text_col)
    uni = vals.to_numpy(zero_copy_only=False)
    u, uc = np.unique(uni, return_counts=True)
    same = row_of[1:] == row_of[:-1]
    big = np.char.add(np.char.add(uni[:-1][same].astype(str), " "),
                      uni[1:][same].astype(str))
    bv, bc = (np.unique(big, return_counts=True) if len(big)
              else (np.empty(0, object), np.empty(0, np.int64)))
    return pa.table({
        "gram": pa.array(np.concatenate([u, bv]).tolist(), pa.string()),
        "kind": pa.array([0] * len(u) + [1] * len(bv), pa.int8()),
        "n": pa.array(np.concatenate([uc, bc]), pa.int64())})


def ngram_lm_score(ds, text_col: str = "text", train_mod: int = 10,
                   quantize: float = 1e6):
    """CCNet-style n-gram LM quality score (Wenzek et al. 2020 shape,
    in-corpus): train an add-one-smoothed word-BIGRAM model on the
    deterministic doc_id %% train_mod != 0 split, then score EVERY doc by
    Σ ln((c(w1 w2)+1) / (c(w1)+V)) over its bigrams (V = training
    unigram vocabulary size). Higher (less negative) = more in-
    distribution; the classic perplexity-bucket filter without any
    external model.

    Scale shape: pass 1 = per-block (gram, kind, n) count partials →
    one vocabulary-sized merge (driver here; a hash-route wave at
    larger-than-driver vocabularies, the vocab_stats convention);
    counts broadcast once via ray.put as sorted arrays; pass 2 = one
    streaming score pass (searchsorted lookups, vectorized ln). Returns
    a Dataset (doc_id, n_bigrams, lm_q) — docs with < 2 tokens emit no
    row; scores on the 1e-6 grid (ln is ~1-ulp libm-dependent, so the
    oracle grid is coarser than the exact-sum 1e-9 ones)."""
    import ray as _r
    parts = [t for t in _r.get(
        ds.map_batches(lambda b: _lm_count_block(b, text_col, train_mod),
                       batch_format="pyarrow", zero_copy_batch=True)
        .materialize().to_arrow_refs()) if t.num_rows]
    if parts:
        merged = pa.concat_tables(parts).group_by(["gram", "kind"]) \
            .aggregate([("n", "sum")])
    else:
        merged = pa.table({"gram": pa.array([], pa.string()),
                           "kind": pa.array([], pa.int8()),
                           "n_sum": pa.array([], pa.int64())})
    kind = merged["kind"].to_numpy(zero_copy_only=False)
    gram = merged["gram"].to_numpy(zero_copy_only=False)
    cnt = merged["n_sum"].to_numpy(zero_copy_only=False)
    ug, un = gram[kind == 0], cnt[kind == 0]
    bg, bn = gram[kind == 1], cnt[kind == 1]
    uo = np.argsort(ug, kind="stable")
    bo = np.argsort(bg, kind="stable")
    vocab = len(ug)
    state = _r.put((ug[uo], un[uo], bg[bo], bn[bo], vocab))

    def score(b: pa.Table, _s=state, _q=quantize) -> pa.Table:
        ug_, un_, bg_, bn_, V = _r.get(_s)
        vals, row_of = _doc_tokens(b, text_col)
        ids = b["doc_id"].to_numpy(zero_copy_only=False)
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_bigrams": pa.array([], pa.int64()),
                          "lm_q": pa.array([], pa.int64())})
        if len(vals) == 0:
            return empty
        uni = vals.to_numpy(zero_copy_only=False)
        same = row_of[1:] == row_of[:-1]
        if not same.any():
            return empty
        w1 = uni[:-1][same]
        big = np.char.add(np.char.add(w1.astype(str), " "),
                          uni[1:][same].astype(str))
        docs = row_of[:-1][same]

        def lookup(keys, sorted_keys, sorted_counts):
            i = np.searchsorted(sorted_keys, keys)
            ok = i < len(sorted_keys)
            ok[ok] = sorted_keys[i[ok]] == keys[ok]
            out = np.zeros(len(keys), np.int64)
            out[ok] = sorted_counts[i[ok]]
            return out

        c2 = lookup(big, bg_, bn_)
        c1 = lookup(w1, ug_, un_)
        lp = np.log((c2 + 1.0) / (c1 + float(V)))
        order = np.argsort(docs, kind="stable")
        dd, ll = docs[order], lp[order]
        starts = np.flatnonzero(np.r_[True, dd[1:] != dd[:-1]])
        tot = np.add.reduceat(ll, starts)
        nb = np.diff(np.r_[starts, len(dd)])
        q = np.floor(tot * _q + 0.5000001).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids[dd[starts]], pa.int64()),
                         "n_bigrams": pa.array(nb, pa.int64()),
                         "lm_q": pa.array(q, pa.int64())})

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True)


def normalize_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Canonical text normalization for dedup keys (the preprocessing
    step ahead of exact/near dedup): lowercase, control chars → space,
    whitespace runs collapsed, ends trimmed. Pure pyarrow.compute —
    mirrors lower + regexp_replace chains exactly in SQL."""
    t = pc.utf8_lower(batch[text_col])
    t = pc.replace_substring_regex(t, r"[\x00-\x1f\x7f]", " ")
    t = pc.replace_substring_regex(t, r"\s+", " ")
    t = pc.utf8_trim_whitespace(t)
    return pa.table({"doc_id": batch["doc_id"], "norm_text": t})


def normalize_documents(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: normalize_batch(b, text_col),
                          batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------- paragraph dedup (round 5)

def _explode_paragraphs(b: pa.Table, text_col: str = "text") -> pa.Table:
    """(doc_id, pidx, para, digest, ih, key): one row per paragraph
    (split on blank lines), md5 digest + a 60-bit int route key derived
    from it, and key = doc_id·2^20 + pidx (ordering key; paragraphs per
    doc < 2^20 and doc ids < 2^43 by engine contract)."""
    import hashlib
    toks = pc.split_pattern(b[text_col].combine_chunks(), "\n\n")
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    starts = np.flatnonzero(np.r_[True, parent[1:] != parent[:-1]]) \
        if len(parent) else np.empty(0, np.int64)
    sizes = np.diff(np.r_[starts, len(parent)])
    pidx = np.arange(len(parent)) - np.repeat(starts, sizes) \
        if len(parent) else np.empty(0, np.int64)
    docs = b["doc_id"].to_numpy(zero_copy_only=False)[parent] \
        if len(parent) else np.empty(0, np.int64)
    buf, offs = _flat_utf8(flat)
    digs = [hashlib.md5(buf[offs[i]:offs[i + 1]].tobytes()).digest()
            for i in range(len(parent))]
    ih = np.array([int.from_bytes(d[:8], "big") >> 4 for d in digs],
                  dtype=np.int64) if digs else np.empty(0, np.int64)
    return pa.table({
        "doc_id": pa.array(docs, pa.int64()),
        "pidx": pa.array(pidx, pa.int64()),
        "para": flat,
        "digest": pa.array(digs, pa.binary(16)),
        "ih": pa.array(ih, pa.int64()),
        "key": pa.array(docs * np.int64(1 << 20) + pidx, pa.int64())})


def _pd_route_ih(block: pa.Table, P: int):
    ih = block["ih"].to_numpy(zero_copy_only=False)
    return returns(split_table(block, bucket(ih, P), P))


def _pd_keepmin(*pieces: pa.Table) -> pa.Table:
    """One digest partition: keep the globally-first occurrence (min key)
    of each distinct paragraph DIGEST (full 16-byte compare — the int
    route key only places digests; collisions there are harmless)."""
    good = [t for t in pieces if t.num_rows]
    if not good:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "pidx": pa.array([], pa.int64()),
                         "para": pa.array([], pa.string())})
    t = pa.concat_tables(good)
    dig = t["digest"].to_numpy(zero_copy_only=False)
    key = t["key"].to_numpy(zero_copy_only=False)
    order = np.lexsort((key, dig))
    dig_s = dig[order]
    first = np.r_[True, dig_s[1:] != dig_s[:-1]]
    return t.take(pa.array(order[first])).select(["doc_id", "pidx", "para"])


def _pd_route_doc(block: pa.Table, P: int):
    d = block["doc_id"].to_numpy(zero_copy_only=False)
    return returns(split_table(block, bucket(d, P), P))


def _pd_rebuild(*pieces: pa.Table) -> pa.Table:
    """One doc partition: re-join each doc's surviving paragraphs in
    original order with blank lines (vectorized pc.binary_join over a
    per-doc list array)."""
    good = [t for t in pieces if t.num_rows]
    if not good:
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "text": pa.array([], pa.string())})
    t = pa.concat_tables(good)
    d = t["doc_id"].to_numpy(zero_copy_only=False)
    px = t["pidx"].to_numpy(zero_copy_only=False)
    order = np.lexsort((px, d))
    d_s = d[order]
    paras = t["para"].combine_chunks().take(pa.array(order))
    starts = np.flatnonzero(np.r_[True, d_s[1:] != d_s[:-1]])
    offsets = np.r_[starts, len(d_s)].astype(np.int32)
    lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), paras)
    joined = pc.binary_join(lists, "\n\n")
    return pa.table({"doc_id": pa.array(d_s[starts], pa.int64()),
                     "text": joined})


def paragraph_dedup(ds, text_col: str = "text"):
    """Corpus-wide paragraph-level exact dedup (the CCNet/RefinedWeb
    paragraph dedup op): every paragraph (blank-line split) appears once
    in the whole corpus — the occurrence with the smallest
    (doc_id, position) survives — and each document is rebuilt from its
    surviving paragraphs in order (documents whose every paragraph is a
    repeat disappear).

    Scale shape: explode + md5 in map_batches, ONE digest-hash route
    wave (skew-free 16-byte key), per-partition first-occurrence keep,
    ONE doc-hash route wave, vectorized per-partition rebuild. Driver
    never holds paragraphs. Returns Dataset(doc_id, text)."""
    import ray as _r
    import ray.data as rd
    exploded = ds.map_batches(
        lambda b: _explode_paragraphs(b, text_col),
        batch_format="pyarrow", zero_copy_batch=True).materialize()
    refs = [r for r, c in zip(exploded.to_arrow_refs(),
                              exploded._block_num_rows()) if c]
    if not refs:
        return rd.from_arrow(pa.table({"doc_id": pa.array([], pa.int64()),
                                       "text": pa.array([], pa.string())}))
    P = num_partitions(exploded.count())
    route1 = _r.remote(_pd_route_ih)
    keep = _r.remote(_pd_keepmin)
    route2 = _r.remote(_pd_route_doc)
    rebuild = _r.remote(_pd_rebuild)
    kept = [keep.remote(*col) for col in shuffle(route1, refs, P)]
    out = [rebuild.remote(*col) for col in shuffle(route2, kept, P)]
    return rd.from_arrow_refs(out)


# ------------------------------------------- per-group cap (round 5)

def _group_capk_block(b: pa.Table, group_col: str, cap: int,
                      id_col: str, seed: int) -> pa.Table:
    if b.num_rows == 0:
        return b
    ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    r = _splitmix64(ids + np.int64(seed))
    g = b[group_col].to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, r, g))
    g_s = g[order]
    starts = np.flatnonzero(np.r_[True, g_s[1:] != g_s[:-1]])
    rank = np.arange(len(g_s)) - np.repeat(
        starts, np.diff(np.r_[starts, len(g_s)]))
    keep = order[rank < cap]
    return b.take(pa.array(np.sort(keep)))


def stratified_cap(ds, group_col: str = "source", cap: int = 100,
                   seed: int = 0, id_col: str = "doc_id") -> pa.Table:
    """Deterministic per-group cap — the domain-mix rebalancing op: at
    most ``cap`` rows survive per group, chosen as the smallest
    splitmix64(id + seed) ranks (uniform within group, reshard-invariant,
    resumable — the same fixed-coin property as every sampler here).

    Partial+final: every block thins to ≤ cap rows per group it sees,
    the final merge handles ≤ cap·blocks·groups rows — the data itself
    never converges on the driver. Returns a pa.Table (≤ cap·groups
    rows, driver-resident by construction)."""
    import ray as _r
    parts = [t for t in _r.get(
        ds.map_batches(lambda b: _group_capk_block(b, group_col, cap,
                                                   id_col, seed),
                       batch_format="pyarrow", zero_copy_batch=True)
        .materialize().to_arrow_refs()) if t.num_rows]
    if not parts:
        sch = ds.schema().base_schema
        return pa.table({f.name: pa.array([], f.type) for f in sch})
    return _group_capk_block(pa.concat_tables(parts), group_col, cap,
                             id_col, seed)


# ------------------------------------- duplicate-line stats (round 5)

def line_stats_batch(b: pa.Table, text_col: str = "text") -> pa.Table:
    """(doc_id, n_lines, n_distinct_lines) — the MassiveText/Gopher
    duplicate-line repetition signal (Rae et al. 2021 §A1.1: docs with a
    high duplicate-line fraction are boilerplate). Counts are integers so
    the SQL oracle compares exactly; one vectorized pass (split + one
    lexsort over the flat line list, no per-row Python)."""
    txt = b[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    lines = pc.split_pattern(txt, "\n")
    parent = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    n = b.num_rows
    total = np.zeros(n, np.int64)
    cnt = np.bincount(parent, minlength=n) if len(parent) else total
    total[:len(cnt)] = cnt
    flat = pc.list_flatten(lines)
    # distinct per doc: dictionary-encode lines, unique (doc, code) pairs
    dd = pc.dictionary_encode(flat)
    codes = dd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    nv = max(len(dd.dictionary), 1)
    key = parent * np.int64(nv) + codes
    uk = np.unique(key)
    distinct = np.zeros(n, np.int64)
    ud, uc = np.unique(uk // nv, return_counts=True)
    distinct[ud] = uc
    return pa.table({"doc_id": b["doc_id"],
                     "n_lines": pa.array(total, pa.int64()),
                     "n_distinct_lines": pa.array(distinct, pa.int64())})


def line_stats(ds, text_col: str = "text"):
    return ds.map_batches(lambda b: line_stats_batch(b, text_col),
                          batch_format="pyarrow", zero_copy_batch=True)
