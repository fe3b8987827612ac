"""Training-data pipeline operators: dedup, similarity, text, multimodal.

Oracles here are brute-force numpy/python reimplementations; the SQL-vs-Ray
battery lives in __ray_entry__ + tools/check_oracle.py (driver gate).
"""

from __future__ import annotations

import pathlib

import numpy as np
import pyarrow as pa
import pytest

ENTRY = str(pathlib.Path(__file__).resolve().parent.parent / "__ray_entry__.py")


def _doc_ds(texts):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string())}))


BASE = ("the quick brown fox jumps over the lazy dog and then runs far "
        "away into the deep dark forest looking for tasty snacks ")


@pytest.fixture(scope="module")
def planted_docs(ray_session):
    """60 distinct docs + planted near-dup pairs (small edits) + one exact
    dup pair."""
    rng = np.random.default_rng(17)
    words = BASE.split()
    texts = []
    for i in range(60):
        perm = rng.permutation(words).tolist()
        texts.append(" ".join(perm * 3) + f" unique token {i}")
    # near dups: copy with a small edit
    texts.append(texts[3].replace("fox", "cat"))           # 60 ~ 3
    texts.append(texts[7] + " tiny suffix")                # 61 ~ 7
    texts.append(texts[11])                                # 62 == 11 exact
    return _doc_ds(texts)


def test_exact_dedup(planted_docs):
    from raphtory_ray.data.dedup import exact_dedup
    t = exact_dedup(planted_docs).to_pandas()
    assert len(t) == 62                      # 63 docs, one exact dup pair
    dup = t[t["n_docs"] > 1]
    assert len(dup) == 1
    assert int(dup["keep_id"].iloc[0]) == 11


def test_minhash_lsh_dedup_finds_planted(planted_docs):
    from raphtory_ray.data.dedup import minhash_lsh_dedup
    t = minhash_lsh_dedup(planted_docs, threshold=0.6).to_pandas()
    cl = dict(zip(t["doc_id"], t["cluster_id"]))
    assert cl[60] == cl[3] == 3
    assert cl[61] == cl[7] == 7
    assert cl[62] == cl[11] == 11
    # distinct docs stay singletons
    singles = [i for i in range(60) if i not in (3, 7, 11)]
    assert all(cl[i] == i for i in singles)


def test_simhash_dedup_finds_planted(planted_docs):
    from raphtory_ray.data.dedup import simhash_dedup
    t = simhash_dedup(planted_docs, max_hamming=6).to_pandas()
    cl = dict(zip(t["doc_id"], t["cluster_id"]))
    assert cl[62] == cl[11]                  # exact dup: hamming 0
    # word-permutation docs share the SAME bag of words → same simhash;
    # simhash clusters by content fingerprint, so planted edits also match
    assert cl[60] == cl[3]


def test_simhash_verify_pairs_aligned():
    """Regression: _simhash_bucket_verify must check hamming against the
    PAIRED fingerprints. Two separate _pairs_within_groups calls sorted each
    group by value (doc ids vs fingerprints), misaligning the fp pairs —
    random pairs passed the hamming gate and real ones were dropped."""
    from raphtory_ray.data.dedup import _simhash_bucket_verify, _popcount64

    rng = np.random.default_rng(5)
    n = 40
    # one bucket, doc ids shuffled relative to fingerprints so the two
    # value-sorted orders disagree
    doc = rng.permutation(n).astype(np.int64) * 7 + 1
    fp = rng.integers(0, 1 << 63, n, dtype=np.uint64)
    fp[3] = fp[20] ^ np.uint64(0b101)               # one true pair, hamming 2
    got = _simhash_bucket_verify(
        {"band_key": np.zeros(n, np.int64), "doc_id": doc, "simhash": fp},
        max_hamming=3)
    got_pairs = set(zip(got["a"].to_numpy().tolist(),
                        got["b"].to_numpy().tolist()))
    want = set()
    for i in range(n):
        for j in range(i + 1, n):
            if int(_popcount64(fp[i:i + 1] ^ fp[j:j + 1])[0]) <= 3:
                want.add(tuple(sorted((int(doc[i]), int(doc[j])))))
    assert got_pairs == want
    assert tuple(sorted((int(doc[3]), int(doc[20])))) in got_pairs


def test_token_and_quality_counts(ray_session):
    from raphtory_ray.data.text import token_counts, quality_stats
    ds = _doc_ds(["Hello, World 42!", "", "   ", "one"])
    t = token_counts(ds).to_pandas().sort_values("doc_id")
    assert t["n_tokens"].tolist() == [3, 0, 0, 1]
    q = quality_stats(ds).to_pandas().sort_values("doc_id")
    assert q["n_chars"].tolist() == [16, 0, 3, 3]
    assert q["n_alpha"].tolist() == [10, 0, 0, 3]
    assert q["n_digit"].tolist() == [2, 0, 0, 0]
    assert q["n_punct"].tolist() == [2, 0, 0, 0]
    assert q["n_upper"].tolist() == [2, 0, 0, 0]


def test_language_id(ray_session):
    from raphtory_ray.data.text import language_id
    ds = _doc_ds(["the cat is on the mat and the dog is here",
                  "der hund ist nicht der beste und die katze",
                  "zzzz qqqq"])
    t = language_id(ds).to_pandas().sort_values("doc_id")
    assert t["pred_lang"].tolist() == ["en", "de", "unknown"]


def test_winnow_fingerprints_detect_overlap(ray_session):
    from raphtory_ray.data.text import fingerprints
    a = "x" * 3 + BASE * 2
    b = "y" * 7 + BASE * 2            # same long core, different prefix
    c = "completely different content with nothing shared at all here"
    ds = _doc_ds([a, b, c])
    t = fingerprints(ds).to_pandas()
    fps = {i: set(t[t["doc_id"] == i]["fingerprint"]) for i in range(3)}
    j_ab = len(fps[0] & fps[1]) / len(fps[0] | fps[1])
    j_ac = len(fps[0] & fps[2]) / len(fps[0] | fps[2])
    assert j_ab > 0.6
    assert j_ac < 0.05


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data as rd
    rng = np.random.default_rng(23)
    base = rng.standard_normal((80, 16)).astype(np.float32)
    # planted near-dups: tiny perturbations of rows 5 and 9
    extra = np.stack([base[5] + 0.001 * rng.standard_normal(16).astype(np.float32),
                      base[9] * 1.5])      # 81 ~ 9 (cosine 1.0, scaled)
    mat = np.vstack([base, extra])
    tbl = pa.table({
        "vec_id": pa.array(range(len(mat)), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(mat.reshape(-1), pa.float32()), 16)})
    return rd.from_arrow(tbl), mat


def test_knn_bruteforce_matches_numpy(emb_ds):
    from raphtory_ray.data.similarity import knn_bruteforce
    ds, mat = emb_ds
    q = mat[:4].astype(np.float64)
    t = knn_bruteforce(ds, q, k=3).to_pandas()
    m64 = mat.astype(np.float64)
    unit = m64 / np.linalg.norm(m64, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = qn @ unit.T
    for qi in range(4):
        order = np.lexsort((np.arange(len(mat)), -sims[qi]))[:3]
        got = t[t["query_id"] == qi].sort_values("rank")["neighbor_id"].tolist()
        assert got == order.tolist()


def test_knn_ivf_recall(emb_ds):
    from raphtory_ray.data.similarity import knn_bruteforce, knn_ivf
    ds, mat = emb_ds
    q = mat[:6].astype(np.float64)
    exact = knn_bruteforce(ds, q, k=5).to_pandas()
    approx = knn_ivf(ds, q, k=5, n_clusters=8, nprobe=4).to_pandas()
    hits = tot = 0
    for qi in range(6):
        e = set(exact[exact["query_id"] == qi]["neighbor_id"])
        a = set(approx[approx["query_id"] == qi]["neighbor_id"])
        hits += len(e & a)
        tot += len(e)
    assert hits / tot >= 0.6                 # nprobe=4/8 buckets


def test_embedding_dedup_planted(emb_ds):
    from raphtory_ray.data.dedup import embedding_dedup
    ds, _ = emb_ds
    t = embedding_dedup(ds, threshold=0.99, nbits=8).to_pandas()
    cl = dict(zip(t["vec_id"], t["cluster_id"]))
    assert cl[80] == cl[5] == 5
    assert cl[81] == cl[9] == 9


def test_semantic_dedup_planted(emb_ds):
    """Planted near-dups (80~5 perturbed, 81=9 scaled) must land in the
    same cluster (scaling never changes the argmax; the perturbation is
    tiny) and the HIGHER vec_id of each pair must be dropped; every
    numpy brute-force keep decision must match (min-id epsilon-ball)."""
    from raphtory_ray.data.semdedup import semantic_dedup, seed_bank
    ds, mat = emb_ds
    t = (semantic_dedup(ds, n_seeds=4, threshold=0.98, seed=3)
         .to_pandas().sort_values("vec_id").reset_index(drop=True))
    assert len(t) == len(mat)
    cl = dict(zip(t["vec_id"], t["cluster"]))
    keep = dict(zip(t["vec_id"], t["keep"]))
    assert cl[81] == cl[9]
    assert keep[9] and not keep[81]
    assert cl[80] == cl[5]
    assert keep[5] and not keep[80]
    # full numpy oracle on the same quantized grid
    m = mat.astype(np.float64)
    S = seed_bank(16, 4, 3)
    q = np.floor(m @ S * 1e4).astype(np.int64)
    exp_cl = np.argmax(q, axis=1)
    assert (t["cluster"].to_numpy() == exp_cl).all()
    unit = m / np.linalg.norm(m, axis=1, keepdims=True)
    g = np.floor(unit @ unit.T * 1e4).astype(np.int64)
    for v in range(len(m)):
        dom = any(g[u, v] >= 9800 and exp_cl[u] == exp_cl[v]
                  for u in range(v))
        assert keep[v] == (not dom), v


def test_multimodal_pipeline(ray_session):
    import ray.data as rd
    from raphtory_ray.data.multimodal import (DecodeAudioStage,
                                              decode_images, image_features,
                                              sample_frames)
    payloads = [bytes([i, i + 1]) * (50 + i) for i in range(8)]
    imgs = rd.from_arrow(pa.table({
        "item_id": pa.array(range(8), pa.int64()),
        "image": pa.array(payloads, pa.binary())}))
    feats = image_features(decode_images(imgs)).to_pandas()
    assert len(feats) == 8 and len(feats["features"][0]) == 22
    # deterministic across runs
    feats2 = image_features(decode_images(imgs)).to_pandas()
    assert all(np.array_equal(a, b)
               for a, b in zip(feats["features"], feats2["features"]))
    # audio: variable-length list column + duration metadata
    auds = rd.from_arrow(pa.table({
        "item_id": pa.array(range(4), pa.int64()),
        "audio": pa.array(payloads[:4], pa.binary())}))
    out = auds.map_batches(DecodeAudioStage(), batch_format="pyarrow",
                           zero_copy_batch=True).to_pandas()
    assert (out["duration_s"] > 0).all()
    # video frame sampling: one row per sampled frame
    vids = rd.from_arrow(pa.table({
        "item_id": pa.array(range(2), pa.int64()),
        "video": pa.array(payloads[:2], pa.binary())}))
    fr = sample_frames(vids, every_n=10).to_pandas()
    assert len(fr) == 2 * 3                  # 30 frames, every 10th
    # non-fake mode marks the codec seam (only when no codec lib exists)
    from raphtory_ray.data.multimodal import DecodeImageStage, _try_import
    if _try_import("PIL.Image") is None:
        with pytest.raises(NotImplementedError):
            DecodeImageStage(fake=False)._decode(b"payload")


def test_multimodal_real_codec_image():
    """Real-decode branch through PIL — runs only where pillow is
    installed (skipped, not faked, otherwise)."""
    pytest.importorskip("PIL.Image")
    import io
    from PIL import Image
    from raphtory_ray.data.multimodal import DecodeImageStage
    img = np.arange(4 * 6 * 3, dtype=np.uint8).reshape(4, 6, 3)
    buf = io.BytesIO()
    Image.fromarray(img).save(buf, format="PNG")
    out = DecodeImageStage(height=4, width=6, fake=False)._decode(
        buf.getvalue())
    assert out.shape == (4, 6, 3)
    np.testing.assert_array_equal(out, img)      # PNG is lossless


def test_multimodal_real_codec_audio():
    """Real-decode branch through soundfile — runs only where it is
    installed (skipped, not faked, otherwise). FLAC exercises a payload
    the pure-numpy WAV path can't parse."""
    sf = pytest.importorskip("soundfile")
    import io
    from raphtory_ray.data.multimodal import DecodeAudioStage
    sig = np.sin(np.linspace(0, 20, 800)).astype(np.float32)
    buf = io.BytesIO()
    sf.write(buf, sig, 8000, format="FLAC")
    samples, rate = DecodeAudioStage(fake=False)._decode(buf.getvalue())
    assert rate == 8000
    np.testing.assert_allclose(samples, sig, atol=1e-3)


def test_multimodal_real_codec_video():
    """Real frame sampling through PyAV — runs only where av is
    installed (skipped, not faked, otherwise)."""
    av = pytest.importorskip("av")
    import io
    import ray.data as rd
    from raphtory_ray.data.multimodal import sample_frames
    buf = io.BytesIO()
    with av.open(buf, "w", format="mp4") as container:
        stream = container.add_stream("mpeg4", rate=5)
        stream.width, stream.height = 32, 32
        stream.pix_fmt = "yuv420p"
        for i in range(10):
            frame = av.VideoFrame.from_ndarray(
                np.full((32, 32, 3), i * 20, np.uint8), format="rgb24")
            container.mux(stream.encode(frame))
        container.mux(stream.encode())
    vids = rd.from_arrow(pa.table({
        "item_id": pa.array([0], pa.int64()),
        "video": pa.array([buf.getvalue()], pa.binary())}))
    fr = sample_frames(vids, every_n=5, fake=False).to_pandas()
    assert list(fr["frame_idx"]) == [0, 5]


def test_minhash_short_docs_never_duplicate(ray_session):
    """Docs shorter than the shingle width have EMPTY shingle sets: their
    Jaccard is undefined and they must each stay their own cluster (the
    SQL oracle can't pair shingle-less docs either)."""
    import pyarrow as pa
    import ray.data as rd
    from raphtory_ray.data.dedup import minhash_lsh_dedup
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["ab", "cd",
                          "the quick brown fox jumps over",
                          "the quick brown fox jumps over"])})
    t = (minhash_lsh_dedup(rd.from_arrow(docs), threshold=0.7)
         .to_pandas().sort_values("doc_id"))
    assert t["cluster_id"].tolist() == [0, 1, 2, 2]


def test_chunk_documents(ray_session):
    """Char-window chunking: stride coverage, overlap, unicode, empties."""
    import ray.data as rd
    from raphtory_ray.data.text import chunk_documents
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["abcdefghij",      # len 10
                          "",                # no chunks
                          "xy",              # one short chunk
                          "héllo wörld!!"]), # unicode, len 13
    })
    out = pa.concat_tables(chunk_documents(
        rd.from_arrow(docs), size=6, overlap=2)
        .iter_batches(batch_format="pyarrow")).sort_by(
            [("doc_id", "ascending"), ("chunk_id", "ascending")])
    rows = list(zip(out["doc_id"].to_pylist(),
                    out["chunk_id"].to_pylist(),
                    out["chunk"].to_pylist()))
    # stride 4: doc1 (len 10) -> [0:6], [4:10], [8:10]
    assert rows == [
        (1, 0, "abcdef"), (1, 1, "efghij"), (1, 2, "ij"),
        (3, 0, "xy"),
        (4, 0, "héllo "), (4, 1, "o wörl"), (4, 2, "rld!!"),
        (4, 3, "!"),
    ]
    assert out["n_chars"].to_pylist() == [6, 6, 2, 2, 6, 6, 5, 1]


def test_trigram_repetition(ray_session):
    """Gopher-style duplicate-trigram stats: totals, distincts, max."""
    import ray.data as rd
    from raphtory_ray.data.text import trigram_repetition
    docs = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": pa.array(["a b a b a b",    # tris: aba,bab,aba,bab
                          "x y",            # too short -> no row
                          "",               # empty -> no row
                          "p q r s"]),      # pqr, qrs distinct
    })
    out = pa.concat_tables(trigram_repetition(rd.from_arrow(docs))
                           .iter_batches(batch_format="pyarrow")) \
        .sort_by("doc_id")
    assert out.to_pylist() == [
        {"doc_id": 1, "n_trigrams": 4, "n_distinct": 2, "max_repeat": 2},
        {"doc_id": 4, "n_trigrams": 2, "n_distinct": 2, "max_repeat": 1},
    ]


def test_redact_documents(ray_session):
    from raphtory_ray.data.text import redact_documents
    ds = _doc_ds(["email me at bob@example.com or 10.0.0.1 now",
                  "call 555-123-4567 or 555 1234 5678",
                  "nothing sensitive here",
                  ""])
    rows = {r["doc_id"]: r for r in redact_documents(ds).take_all()}
    assert rows[0]["text"] == "email me at [REDACTED] or [REDACTED] now"
    assert rows[0]["n_redactions"] == 2
    assert rows[1]["n_redactions"] == 2
    assert rows[2] == {"doc_id": 2, "text": "nothing sensitive here",
                       "n_redactions": 0}
    assert rows[3]["n_redactions"] == 0
    # sequential semantics: a custom pattern sees the prior mask
    got = redact_documents(_doc_ds(["aa bb"]),
                           [r"aa", r"\[X\] bb"], mask="[X]").take_all()
    assert got[0]["text"] == "[X]" and got[0]["n_redactions"] == 2


def test_sample_documents_deterministic(ray_session):
    import ray.data as rd
    from raphtory_ray.data.text import sample_documents, _splitmix64
    n = 1000
    tbl = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                    "source": pa.array(["a" if i % 2 else "b"
                                        for i in range(n)])})
    ds = rd.from_arrow(tbl)
    kept = sample_documents(ds, {"a": 250, "b": 750}).take_all()
    ids = sorted(r["doc_id"] for r in kept)
    # exact reference: same coin on the driver
    coin = _splitmix64(np.arange(n).astype(np.int64)) % np.uint64(1000)
    rate = np.where(np.arange(n) % 2, 250, 750).astype(np.uint64)
    want = sorted(np.flatnonzero(coin < rate).tolist())
    assert ids == want
    # reruns and reshards select the same rows
    kept2 = sample_documents(ds.repartition(7), {"a": 250, "b": 750}) \
        .take_all()
    assert sorted(r["doc_id"] for r in kept2) == want
    # flat rate + unknown strata dropped
    assert sample_documents(ds, 0).count() == 0
    assert sample_documents(ds, {"zz": 1000}).count() == 0


def test_decontaminate_flags_overlap(ray_session):
    from raphtory_ray.data.text import decontaminate
    secret = "the secret benchmark passage nobody should train on ok"
    ds = _doc_ds([
        "completely unrelated text about graphs and rivers flowing",
        "prefix junk " + secret + " suffix junk",   # contaminated
        "another clean document with plenty of original words here",
        secret,                                      # contaminated
        "short",                                     # < k chars -> clean
    ])
    bench = _doc_ds([secret])
    rows = {r["doc_id"]: r for r in decontaminate(ds, bench, k=24)
            .take_all()}
    assert [rows[i]["contaminated"] for i in range(5)] == \
        [False, True, False, True, False]
    assert rows[3]["n_hits"] >= rows[1]["n_hits"] - 2  # both share most
    assert rows[4]["n_hits"] == 0


def test_pack_documents_prefix_sum(ray_session):
    from raphtory_ray.data.text import pack_documents
    texts = ["a b c", "d e", "", "f g h i", "j", "k l m n o p"]
    # tokens: 3 2 0 4 1 6; excl prefix: 0 3 5 5 9 10; budget 5 ->
    # seq_ids 0 0 1 1 1 2
    ds = _doc_ds(texts)
    rows = sorted(pack_documents(ds, budget=5).take_all(),
                  key=lambda r: r["doc_id"])
    assert [r["seq_id"] for r in rows] == [0, 0, 1, 1, 1, 2]
    assert [r["n_tokens"] for r in rows] == [3, 2, 0, 4, 1, 6]
    # block-order independence: many tiny blocks, same answer
    rows2 = sorted(pack_documents(ds.repartition(5), budget=5).take_all(),
                   key=lambda r: r["doc_id"])
    assert [r["seq_id"] for r in rows2] == [0, 0, 1, 1, 1, 2]


def test_job_data_ops_resumable(ray_session, tmp_path):
    """jobs/linkgraph_job.py --data-ops: each stage writes partitioned
    parquet + _SUCCESS; a rerun reports nothing pending (subprocess-free:
    drive _run_data_ops directly in the session)."""
    import os
    from jobs.linkgraph_job import _run_data_ops
    out = str(tmp_path / "job")
    _run_data_ops("/root/testdata/sf0.001/documents.parquet", out,
                  ["tokens", "sample"])
    for op in ("tokens", "sample"):
        assert os.path.exists(os.path.join(out, "data", op, "_SUCCESS"))
    import glob

    import pyarrow.parquet as pq
    parts = glob.glob(os.path.join(out, "data", "tokens", "*.parquet"))
    t = pa.concat_tables([pq.read_table(p) for p in parts])
    assert t.num_rows == 500 and "n_tokens" in t.column_names


def test_vocab_stats_and_tfidf(ray_session):
    """vocab_stats (df/tf) matches hand counts; tfidf_top_terms ranks by
    tf*ln(N/df) with term-ascending tie-break, stable at any parallelism."""
    import math

    from raphtory_ray.data.text import tfidf_top_terms, vocab_stats
    ds = _doc_ds(["a b b c", "b c c", "a a a d", ""]).repartition(3)
    stats = {r["term"]: (r["df"], r["tf"])
             for r in vocab_stats(ds).take_all()}
    assert stats == {"a": (2, 4), "b": (2, 3), "c": (2, 3), "d": (1, 1)}

    rows = tfidf_top_terms(ds, k=2).take_all()
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], []).append((r["rk"], r["term"],
                                                   r["score"]))
    # doc 0: b tf=2 score 2*ln(2) beats a/c tf=1; a vs c tie → term asc
    assert [t for _, t, _ in sorted(by_doc[0])] == ["b", "a"]
    # doc 2: a tf=3 ln(4/2), d tf=1 ln(4/1) → a: 2.079, d: 1.386
    got = dict((t, s) for _, t, s in by_doc[2])
    assert abs(got["a"] - 3 * math.log(4 / 2)) < 1e-12
    assert abs(got["d"] - math.log(4 / 1)) < 1e-12
    assert 3 not in by_doc  # blank doc yields no terms

    # quantized path: int64 score_q on the 1e-9 grid, same ranking
    qrows = tfidf_top_terms(ds, k=2, quantize=1e9).take_all()
    q2 = {r["term"]: r["score_q"] for r in qrows if r["doc_id"] == 2}
    assert q2["a"] == math.floor(3 * math.log(4 / 2) * 1e9 + 0.5000001)
    assert all(isinstance(r["score_q"], int) for r in qrows)
    assert sorted((r["doc_id"], r["rk"], r["term"]) for r in qrows) == \
        sorted((r["doc_id"], r["rk"], r["term"]) for r in rows)


def test_gopher_rules_edge_cases(ray_session):
    import pyarrow as pa
    from raphtory_ray.data.text import gopher_rules_batch
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": pa.array([
            "the quick brown fox jumps over and over",   # clean: keep
            "",                                          # blank: all fail
            "a b c d e f g h",                           # mwl < 3: fail
            "the ### ## # fox ... jumps ... and ...",    # symbols: fail
            "12 34 56 78 90 11 22",                      # no alpha/stop: fail
        ]),
    })
    out = gopher_rules_batch(docs, min_stopwords=1)
    rows = {r["doc_id"]: r for r in out.to_pylist()}
    assert rows[0]["keep"]
    assert not rows[1]["rule_words"] and not rows[1]["keep"]
    assert not rows[2]["rule_mean_word_len"]
    assert not rows[3]["rule_symbols"]
    assert not rows[4]["rule_alpha_words"] and not rows[4]["rule_stopwords"]
    assert rows[0]["n_words"] == 8 and rows[1]["n_words"] == 0


def test_gopher_filter_streaming(ray_session):
    import ray.data as rd
    import pyarrow as pa
    from raphtory_ray.data.text import gopher_filter
    ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet")
    out = gopher_filter(ds, min_stopwords=1)
    t = pa.concat_tables(__import__("ray").get(out.to_arrow_refs()))
    assert t.num_rows == 500
    keep = sum(t["keep"].to_pylist())
    assert 0 < keep < 500          # the filter discriminates


def test_leakage_safe_split_invariants(ray_session):
    """Duplicates stay on one side; split is deterministic and
    reshard-invariant; permille controls the val fraction."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd
    from raphtory_ray.data.dedup import leakage_safe_split
    rng = np.random.default_rng(4)
    texts = [f"doc body {i}" for i in range(200)]
    # inject exact duplicates across distant ids
    dup_of = {150 + i: i for i in range(30)}
    rows = [texts[dup_of.get(i, i)] for i in range(200)]
    tbl = pa.table({"doc_id": pa.array(range(200), pa.int64()),
                    "text": pa.array(rows)})
    a = pa.concat_tables(ray.get(leakage_safe_split(
        rd.from_arrow(tbl).repartition(5), val_permille=300, seed=1)
        .to_arrow_refs())).sort_by("doc_id")
    b = pa.concat_tables(ray.get(leakage_safe_split(
        rd.from_arrow(tbl).repartition(2), val_permille=300, seed=1)
        .to_arrow_refs())).sort_by("doc_id")
    assert a.equals(b)                       # reshard-invariant
    split = dict(zip(a["doc_id"].to_pylist(), a["split"].to_pylist()))
    clus = dict(zip(a["doc_id"].to_pylist(), a["cluster_id"].to_pylist()))
    for d, orig in dup_of.items():
        assert split[d] == split[orig]       # never straddles
        assert clus[d] == clus[orig] == orig
    frac = sum(1 for v in split.values() if v == "val") / len(split)
    assert 0.15 < frac < 0.45                # ~300 permille


def test_gopher_rules_duckdb_parity_random_text(ray_session):
    """Engine gopher rules vs an independent DuckDB evaluation on
    adversarial random strings (multi-space runs, punctuation, digits,
    empty/whitespace-only rows) — the same SQL the gated oracle uses."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    from raphtory_ray.data.text import gopher_rules_batch
    rng = np.random.default_rng(99)
    words = ["the", "fox", "a", "##", "...", "12", "be", "zq",
             "hello,", "(x)", "abcdefghijklm", "...word", "#tag", ""]
    texts = []
    for _ in range(300):
        k = int(rng.integers(0, 30))
        toks = [words[int(i)] for i in rng.integers(0, len(words), k)]
        sep = ["  " if rng.random() < 0.2 else " " for _ in toks]
        texts.append("".join(t + s for t, s in zip(toks, sep)).strip())
    texts += ["", "   ", "\tthe fox\t", "the  the   the"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    got = gopher_rules_batch(tbl, min_stopwords=1).to_pylist()
    con = duckdb.connect()
    con.register("documents", tbl)
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "entry_mod", ENTRY)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    want = con.execute(m.oracle_sql()["doc_gopher_filter"]).arrow().to_pylist()
    gd = {r["doc_id"]: r for r in got}
    wd = {r["doc_id"]: r for r in want}
    assert set(gd) == set(wd)
    for k in gd:
        for col in ("n_words", "rule_words", "rule_mean_word_len",
                    "rule_alpha_words", "rule_stopwords", "rule_symbols",
                    "keep"):
            assert gd[k][col] == wd[k][col], (k, col, texts[k])


def test_text_oracles_duckdb_parity_random_text(ray_session):
    """token counts / quality stats / trigram repetition vs their gated
    DuckDB oracles on adversarial strings (tabs, multi-space, unicode,
    blank rows) — extends the gopher parity net to the whole text-stats
    family."""
    import duckdb
    import importlib.util
    import numpy as np
    import pyarrow as pa
    from raphtory_ray.data.text import (quality_stats_batch,
                                        token_count_batch,
                                        trigram_stats_batch)
    rng = np.random.default_rng(5)
    words = ["the", "fox", "a", "##", "...", "12", "be", "héllo",
             "x,y", "(z)", "tab\tin", "reallyreallylongword"]
    texts = []
    for _ in range(250):
        k = int(rng.integers(0, 25))
        toks = [words[int(i)] for i in rng.integers(0, len(words), k)]
        texts.append(" ".join(toks))
    texts += ["", "   ", " the the the ", "a  b\tc"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    spec = importlib.util.spec_from_file_location(
        "entry_mod2", ENTRY)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    con = duckdb.connect()
    con.register("documents", tbl)
    oracles = m.oracle_sql()
    for name, fn in [("doc_token_counts", token_count_batch),
                     ("doc_quality_stats", quality_stats_batch),
                     ("doc_trigram_repetition", trigram_stats_batch)]:
        got = {r["doc_id"]: r for r in fn(tbl).to_pylist()}
        want = {r["doc_id"]: r for r in
                con.execute(oracles[name]).arrow().to_pylist()}
        assert set(got) == set(want), name
        for k in got:
            assert got[k] == want[k], (name, k, texts[k])


def test_hll_estimate_accuracy_and_merge(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from raphtory_ray.data.sketch import (hll_distinct, hll_estimate,
                                          hll_registers)
    n_distinct = 5000
    texts = [f"document body number {i}" for i in range(n_distinct)] * 3
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    ds = rd.from_arrow(tbl).repartition(7)
    est = hll_distinct(ds, "text")
    assert abs(est - n_distinct) / n_distinct < 0.15   # ~2σ for m=256
    # mergeability: sketch of union == max-merge of half sketches
    a = rd.from_arrow(tbl.slice(0, 7000))
    b = rd.from_arrow(tbl.slice(7000))
    ra = hll_registers(a, "text")
    rb = hll_registers(b, "text")
    m = np.zeros(256, np.int64)
    for r in (ra, rb):
        m[r["reg"].to_numpy()] = np.maximum(
            m[r["reg"].to_numpy()], r["max_rank"].to_numpy())
    full = hll_registers(ds, "text")
    fm = np.zeros(256, np.int64)
    fm[full["reg"].to_numpy()] = full["max_rank"].to_numpy()
    assert np.array_equal(m, fm)
    # duplicates don't move the estimate (set semantics)
    assert hll_distinct(rd.from_arrow(tbl.slice(0, n_distinct)), "text") \
        == est


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_countmin_upper_bound_and_heavy_hitters(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from raphtory_ray.data.sketch import countmin_counters, countmin_query
    texts = (["heavy A"] * 500 + ["heavy B"] * 200
             + [f"tail {i}" for i in range(800)])
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    cm = countmin_counters(rd.from_arrow(tbl).repartition(5))
    est = countmin_query(cm, ["heavy A", "heavy B", "tail 0", "unseen x"])
    true = np.array([500, 200, 1, 0])
    assert (est >= true).all()              # CM never underestimates
    assert est[0] <= 500 + 1500 // 1024 + 5  # heavy hitter ~exact
    assert est[1] <= 200 + 1500 // 1024 + 5


def test_sample_bottom_k_reshard_and_size(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from raphtory_ray.data.text import sample_bottom_k
    tbl = pa.table({"doc_id": pa.array(range(5000), pa.int64()),
                    "text": pa.array([f"d{i}" for i in range(5000)])})
    a = sample_bottom_k(rd.from_arrow(tbl).repartition(9), k=100, seed=4)
    b = sample_bottom_k(rd.from_arrow(tbl).repartition(2), k=100, seed=4)
    assert a.sort_by("doc_id").equals(b.sort_by("doc_id"))
    assert a.num_rows == 100
    c = sample_bottom_k(rd.from_arrow(tbl.slice(0, 30)), k=100, seed=4)
    assert c.num_rows == 30                  # fewer rows than k: all kept


def test_exact_quantiles_vs_numpy(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from raphtory_ray.data.text import exact_quantiles
    rng = np.random.default_rng(8)
    vals = rng.integers(0, 500, 3000)
    tbl = pa.table({"x": pa.array(vals, pa.int64())})
    out = exact_quantiles(rd.from_arrow(tbl).repartition(6), "x",
                          qs=(0.1, 0.5, 0.9))
    got = dict(zip(out["q"].to_pylist(), out["value"].to_pylist()))
    s = np.sort(vals)
    for q in (0.1, 0.5, 0.9):
        rank = max(1, int(np.ceil(q * len(s))))
        assert got[q] == s[rank - 1]


def test_group_top_k_matches_window(ray_session):
    import numpy as np
    import pyarrow as pa
    import duckdb
    import ray.data as rd
    from raphtory_ray.data.text import group_top_k
    rng = np.random.default_rng(14)
    tbl = pa.table({
        "doc_id": pa.array(range(2000), pa.int64()),
        "lang": pa.array([["en", "de", "fr", "zh"][int(i)]
                          for i in rng.integers(0, 4, 2000)]),
        "n_chars": pa.array(rng.integers(0, 300, 2000), pa.int64())})
    got = group_top_k(rd.from_arrow(tbl).repartition(7),
                      "lang", "n_chars", k=5)
    con = duckdb.connect()
    con.register("t", tbl)
    want = con.execute("""
        SELECT doc_id, lang, n_chars FROM (
          SELECT *, ROW_NUMBER() OVER (PARTITION BY lang
                    ORDER BY n_chars DESC, doc_id) AS rn FROM t)
        WHERE rn <= 5""").arrow()
    key = lambda t: sorted(zip(t["doc_id"].to_pylist(),
                               t["lang"].to_pylist(),
                               t["n_chars"].to_pylist()))
    assert key(got) == key(want)


def test_leakage_split_and_topk_custom_id_col(ray_session):
    import pyarrow as pa
    import ray
    import ray.data as rd
    from raphtory_ray.data.dedup import leakage_safe_split
    from raphtory_ray.data.text import group_top_k, sample_bottom_k
    tbl = pa.table({"vec_id": pa.array(range(40), pa.int64()),
                    "text": pa.array([f"t{i % 10}" for i in range(40)]),
                    "grp": pa.array(["a", "b"] * 20),
                    "score": pa.array(range(40), pa.int64())})
    out = pa.concat_tables(ray.get(leakage_safe_split(
        rd.from_arrow(tbl), id_col="vec_id").to_arrow_refs()))
    assert out.num_rows == 40 and "cluster_id" in out.column_names
    top = group_top_k(rd.from_arrow(tbl), "grp", "score", k=2,
                      id_col="vec_id")
    assert top.num_rows == 4
    # empty input keeps the declared schema
    empty = rd.from_arrow(tbl.slice(0, 0))
    t0 = sample_bottom_k(empty, k=5, id_col="vec_id")
    assert t0.column_names == tbl.column_names and t0.num_rows == 0


def test_ngram_lm_score_separates_distributions(ray_session):
    """In-distribution docs score higher than out-of-distribution ones;
    scores are deterministic under resharding."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data as rd
    from raphtory_ray.data.text import ngram_lm_score
    rng = np.random.default_rng(6)
    vocab = ["alpha", "beta", "gamma", "delta"]
    indist = [" ".join(vocab[int(i)] for i in rng.integers(0, 4, 20))
              for _ in range(200)]
    ood = [" ".join(f"zz{int(i)}" for i in rng.integers(0, 1000, 20))
           for _ in range(20)]
    texts = indist + ood
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    out = pa.concat_tables(ray.get(ngram_lm_score(
        rd.from_arrow(tbl).repartition(5)).to_arrow_refs()))
    d = dict(zip(out["doc_id"].to_pylist(), out["lm_q"].to_pylist()))
    mean_in = np.mean([d[i] for i in range(200) if i in d])
    mean_ood = np.mean([d[i] for i in range(200, 220) if i in d])
    assert mean_in > mean_ood
    out2 = pa.concat_tables(ray.get(ngram_lm_score(
        rd.from_arrow(tbl).repartition(2)).to_arrow_refs()))
    assert out.sort_by("doc_id").equals(out2.sort_by("doc_id"))


def test_chunk_oracle_parity_unicode(ray_session):
    """chunk_batch vs the doc_chunks oracle on unicode text — both sides
    must count CODEPOINTS (utf8_slice_codeunits vs substr)."""
    import duckdb
    import importlib.util
    import pyarrow as pa
    from raphtory_ray.data.text import chunk_batch
    texts = ["héllo wörld " * 30, "日本語のテキスト" * 40, "a" * 205,
             "", "  ", "émoji 🎉 mix " * 25]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    got = sorted(chunk_batch(tbl, size=120, overlap=30).to_pylist(),
                 key=lambda r: (r["doc_id"], r["chunk_id"]))
    spec = importlib.util.spec_from_file_location(
        "entry_mod3", ENTRY)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    con = duckdb.connect()
    con.register("documents", tbl)
    want = sorted(con.execute(m.oracle_sql()["doc_chunks"])
                  .arrow().to_pylist(),
                  key=lambda r: (r["doc_id"], r["chunk_id"]))
    assert got == want


def test_bloom_no_false_negatives_and_low_fpr(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from raphtory_ray.data.sketch import bloom_build, bloom_contains
    members = [f"bench question {i}" for i in range(2000)]
    tbl = pa.table({"doc_id": pa.array(range(2000), pa.int64()),
                    "text": pa.array(members)})
    bits = bloom_build(rd.from_arrow(tbl).repartition(6))
    assert bloom_contains(bits, members).all()       # no false negatives
    outsiders = [f"training doc {i}" for i in range(4000)]
    fpr = bloom_contains(bits, outsiders).mean()
    # k=5, m=16384, n=2000 -> theoretical FPR ~ (1-e^{-5*2000/16384})^5 ~ 2.6%
    assert fpr < 0.08
    # merge = OR: union filter equals filter of union
    b1 = bloom_build(rd.from_arrow(tbl.slice(0, 1000)))
    b2 = bloom_build(rd.from_arrow(tbl.slice(1000)))
    u = np.union1d(b1["bit"].to_numpy(), b2["bit"].to_numpy())
    assert np.array_equal(u, bits["bit"].to_numpy())


def test_normalize_adversarial_parity(ray_session):
    """normalize_batch vs the SQL oracle on control chars, tabs, unicode
    case, and whitespace runs."""
    import duckdb
    import importlib.util
    import pyarrow as pa
    from raphtory_ray.data.text import normalize_batch
    texts = ["Hello\x00World\x1f!", "  A\t\tB  \n C ", "ÉCOLE Straße",
             "", "\x7fctrl", "already clean"]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts)})
    got = normalize_batch(tbl).to_pylist()
    spec = importlib.util.spec_from_file_location(
        "entry_mod4", ENTRY)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    con = duckdb.connect()
    con.register("documents", tbl)
    want = con.execute(m.oracle_sql()["doc_normalize"]).arrow().to_pylist()
    assert sorted(got, key=lambda r: r["doc_id"]) == \
        sorted(want, key=lambda r: r["doc_id"])


# ------------------- round-5: Dataset-native dup-pair clustering ----------

def test_clusters_from_pair_refs_distributed_300k(ray_session):
    """~300k verified pairs (P > 1): pair blocks stay in the object store
    (no ray.get-all-pairs), endpoints deduplicate via the hash-partitioned
    distinct, the dup-graph WCC runs on the compact touched space, and
    labels match the local WCC kernel over the compact ids. One pair in
    one block (P = 1) and only empty blocks take the same call."""
    import ray
    from raphtory_ray.core.kernels import wcc
    from raphtory_ray.data.dedup import clusters_from_pair_refs
    rng = np.random.default_rng(5)
    # ~300k pairs: 3000 chains of 100 sequential edges over sparse ids,
    # plus random extra intra-chain pairs
    base = (np.arange(3000, dtype=np.int64) * 1_000_003)[:, None]
    chain = base + np.arange(100, dtype=np.int64)[None, :] * 7
    a_chain = chain[:, :-1].reshape(-1)
    b_chain = chain[:, 1:].reshape(-1)
    extra_i = rng.integers(0, 100, 12_000)
    extra_j = rng.integers(0, 100, 12_000)
    rows = rng.integers(0, 3000, 12_000)
    a_x = chain[rows, extra_i]
    b_x = chain[rows, extra_j]
    m = a_x != b_x
    va = np.concatenate([a_chain, np.minimum(a_x[m], b_x[m])])
    vb = np.concatenate([b_chain, np.maximum(a_x[m], b_x[m])])
    # split into blocks and put in the object store
    cut = np.array_split(np.arange(len(va)), 13)
    refs = [ray.put(pa.table({"a": pa.array(va[c], pa.int64()),
                              "b": pa.array(vb[c], pa.int64())}))
            for c in cut]
    touched, labels = clusters_from_pair_refs(refs)
    # oracle: the local WCC kernel over the compact ids; touched is sorted,
    # so the min compact id of a component is its min doc id
    want_t = np.unique(np.concatenate([va, vb]))
    ca, cb = np.searchsorted(want_t, va), np.searchsorted(want_t, vb)
    want_l = want_t[wcc(ca, cb, len(want_t))]
    assert np.array_equal(touched, want_t)
    assert np.array_equal(labels, want_l)
    # every chain collapses to its min id
    assert len(np.unique(labels)) == 3000

    def block(a, b):
        return ray.put(pa.table({"a": pa.array(a, pa.int64()),
                                 "b": pa.array(b, pa.int64())}))

    touched, labels = clusters_from_pair_refs([block([9], [4])])
    assert touched.tolist() == [4, 9] and labels.tolist() == [4, 4]
    touched, labels = clusters_from_pair_refs([block([], []), block([], [])])
    assert len(touched) == 0 and len(labels) == 0


def test_minhash_end_to_end_distributed_cc_path(ray_session):
    """End-to-end minhash dedup through the dup-graph BspGraph WCC: the
    frame equals the pinned one the driver union-find path returned on
    this input."""
    import pandas as pd
    import raphtory_ray.data.dedup as dd
    rng = np.random.default_rng(23)
    words = BASE.split()
    texts = []
    for i in range(40):
        perm = rng.permutation(words).tolist()
        texts.append(" ".join(perm * 3) + f" unique token {i}")
    # plant a 12-copy cluster (66 pairs) and a 5-copy cluster (10 pairs)
    texts += [texts[2] + " x"] * 11
    texts += [texts[9] + " y"] * 4
    ds = _doc_ds(texts)
    big = dd.minhash_lsh_dedup(ds, threshold=0.6).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    want = pd.DataFrame({
        "doc_id": np.arange(55, dtype=np.int64),
        "cluster_id": np.r_[np.arange(40), [2] * 11, [9] * 4]
        .astype(np.int64)})
    assert big.equals(want)
    cl = dict(zip(big["doc_id"], big["cluster_id"]))
    assert all(cl[40 + j] == 2 for j in range(11))
    assert all(cl[51 + j] == 9 for j in range(4))


def test_lsh_truncation_reported(ray_session):
    """Degenerate-bucket truncation is counted, not silent: a planted
    oversize bucket reports exactly the overflow beyond max_bucket."""
    from raphtory_ray.data.dedup import minhash_lsh_dedup, simhash_dedup
    # 30 identical docs -> every band bucket holds all 30 members; the 10
    # fillers draw from a disjoint random vocabulary (distinct word BAGS,
    # so neither minhash nor bag-of-words simhash buckets overlap)
    rng = np.random.default_rng(41)
    vocab = np.array([f"w{rng.integers(1e9):09d}x{j}" for j in range(400)])
    fillers = [" ".join(rng.choice(vocab, 120, replace=False).tolist())
               for _ in range(10)]
    ds = _doc_ds([BASE * 3] * 30 + fillers)
    stats: dict = {}
    t = minhash_lsh_dedup(ds, threshold=0.6, max_bucket=10,
                          stats=stats).to_pandas()
    # 16 bands x (30 - 10) over-cap members each
    assert stats["lsh_dropped_candidates"] == 16 * 20
    # cap still keeps the cluster connected (first 10 members pair up)
    cl = dict(zip(t["doc_id"], t["cluster_id"]))
    assert all(cl[i] == 0 for i in range(10))
    stats2: dict = {}
    simhash_dedup(ds, max_hamming=3, max_bucket=10, stats=stats2)
    # 4 simhash bands x 20 over-cap members
    assert stats2["lsh_dropped_candidates"] == 4 * 20
    # no truncation -> zero reported
    stats3: dict = {}
    minhash_lsh_dedup(ds, threshold=0.6, stats=stats3)
    assert stats3["lsh_dropped_candidates"] == 0


def test_embedding_dedup_truncation_reported(emb_ds, ray_session):
    """Embedding-LSH bucket cap surfaces its dropped-member count."""
    import ray.data as rd
    rng = np.random.default_rng(3)
    v = rng.standard_normal(8)
    emb = np.tile(v, (25, 1)) + rng.standard_normal((25, 8)) * 1e-3
    tbl = pa.table({
        "vec_id": pa.array(range(25), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.reshape(-1), pa.float64()), 8)})
    from raphtory_ray.data.dedup import embedding_dedup
    stats: dict = {}
    t = embedding_dedup(rd.from_arrow(tbl), threshold=0.99, nbits=4,
                        max_bucket=10, stats=stats).to_pandas()
    # all 25 near-identical vectors share one bucket -> 15 beyond the cap
    assert stats["lsh_dropped_candidates"] == 15
    cl = dict(zip(t["vec_id"], t["cluster_id"]))
    assert all(cl[i] == 0 for i in range(10))


def test_vocab_caps_enforced(ray_session):
    """min_df/max_vocab bound the vocab table inside the aggregation; the
    dropped-term count is reported; tfidf stays correct on the surviving
    vocabulary."""
    import ray.data as rd
    texts = ["alpha beta gamma delta", "alpha beta gamma", "alpha beta",
             "alpha epsilon", "zeta"]
    tbl = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                    "text": pa.array(texts)})
    ds = rd.from_arrow(tbl).repartition(3)
    from raphtory_ray.data.text import vocab_stats, tfidf_top_terms
    # uncapped: 6 distinct terms
    full = vocab_stats(ds).to_pandas()
    assert len(full) == 6
    # min_df=2 keeps alpha(4) beta(3) gamma(2); drops 3 terms
    st: dict = {}
    capped = vocab_stats(ds, min_df=2, stats=st).to_pandas()
    assert sorted(capped["term"]) == ["alpha", "beta", "gamma"]
    assert st["dropped_terms"] == 3
    # max_vocab=2 keeps the top-2 by tf (alpha tf=4, beta tf=3)
    st2: dict = {}
    top2 = vocab_stats(ds, max_vocab=2, stats=st2).to_pandas()
    assert sorted(top2["term"]) == ["alpha", "beta"]
    assert st2["dropped_terms"] == 4
    # combined
    st3: dict = {}
    both = vocab_stats(ds, min_df=2, max_vocab=1, stats=st3).to_pandas()
    assert list(both["term"]) == ["alpha"]
    assert st3["dropped_terms"] == 5
    # tfidf with a capped vocab ranks only surviving terms
    st4: dict = {}
    t = tfidf_top_terms(ds, k=2, min_df=2, cap_stats=st4).to_pandas()
    assert st4["dropped_terms"] == 3
    assert set(t["term"]) <= {"alpha", "beta", "gamma"}
    # doc 4 ("zeta") has no surviving terms -> absent
    assert 4 not in set(t["doc_id"])
    # uncapped tfidf unchanged (oracle path)
    t0 = tfidf_top_terms(ds, k=2).to_pandas()
    assert 4 in set(t0["doc_id"])


def test_ivf_centroid_init_adversarial_block_order(ray_session):
    """round-5: k-means bootstrap samples uniformly across the WHOLE
    dataset, so cluster-sorted input (every early block = one source
    cluster) still yields balanced buckets and high recall."""
    import ray.data as rd
    from raphtory_ray.data.similarity import (train_centroids, knn_ivf,
                                              knn_bruteforce, _normalize)
    from raphtory_ray.data.dedup import embedding_matrix
    rng = np.random.default_rng(7)
    C, per = 8, 100
    centers = _normalize(rng.standard_normal((C, 16))) * 10
    # rows SORTED by cluster: the old first-256-rows bootstrap saw only
    # clusters 0-2
    mat = np.concatenate([centers[c] + 0.05 * rng.standard_normal((per, 16))
                          for c in range(C)])
    tbl = pa.table({
        "vec_id": pa.array(range(C * per), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(mat.reshape(-1), pa.float64()), 16)})
    ds = rd.from_arrow(tbl).repartition(8)
    cent = train_centroids(ds, n_clusters=C)
    # every true cluster captured by a distinct nearest centroid
    assign = np.argmax(_normalize(mat) @ cent.T, axis=1)
    sizes = np.bincount(assign, minlength=C)
    assert (sizes > 0).sum() == C            # no empty/collapsed buckets
    assert sizes.max() <= 2 * per            # balanced (no mega-bucket)
    # recall at nprobe=2 stays high because buckets align with clusters
    q = mat[::per][:5]
    exact = knn_bruteforce(ds, q, k=5).to_pandas()
    approx = knn_ivf(ds, q, k=5, n_clusters=C, nprobe=2).to_pandas()
    hits = tot = 0
    for qi in range(5):
        e = set(exact[exact["query_id"] == qi]["neighbor_id"])
        a = set(approx[approx["query_id"] == qi]["neighbor_id"])
        hits += len(e & a)
        tot += len(e)
    assert hits / tot >= 0.9


def test_paragraph_dedup_semantics(ray_session):
    """round-5 paragraph dedup: first (doc, position) occurrence of each
    paragraph survives corpus-wide (incl. within-doc repeats); docs
    rebuilt in order; fully-deduplicated docs disappear."""
    import ray.data as rd
    from raphtory_ray.data.text import paragraph_dedup
    docs = ["a\n\nb", "b\n\nc", "a\n\nx\n\na", "b", "solo"]
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "text": pa.array(docs)})
    out = paragraph_dedup(rd.from_arrow(t).repartition(3)).to_pandas()
    got = dict(zip(out["doc_id"], out["text"]))
    assert got == {0: "a\n\nb", 1: "c", 2: "x", 4: "solo"}
    # empty input
    empty = paragraph_dedup(rd.from_arrow(t.slice(0, 0))).to_pandas()
    assert len(empty) == 0


def test_knn_label_agreement_detects_planted_mislabel(ray_session):
    """round-5: kNN label vote flags a planted wrong label; clean rows
    agree; ties break (count desc, label asc) deterministically."""
    import ray.data as rd
    from raphtory_ray.data.similarity import knn_label_agreement
    rng = np.random.default_rng(2)
    c0 = rng.standard_normal(8) * 5
    mat = np.vstack([c0 + 0.1 * rng.standard_normal((10, 8)),
                     -c0 + 0.1 * rng.standard_normal((10, 8))])
    lab = np.array([0] * 10 + [1] * 10)
    lab[3] = 1                          # planted mislabel
    t = pa.table({"vec_id": pa.array(range(20), pa.int64()),
                  "embedding": pa.FixedSizeListArray.from_arrays(
                      pa.array(mat.reshape(-1), pa.float64()), 8),
                  "label": pa.array(lab, pa.int32())})
    out = knn_label_agreement(rd.from_arrow(t).repartition(3),
                              k=5).to_pandas()
    bad = out[~out["agree"]]
    assert bad["vec_id"].tolist() == [3]
    assert bad["knn_label"].tolist() == [0]
    assert out["agree"].sum() == 19


def test_stratified_cap_reshard_invariant(ray_session):
    """round-5: per-group cap picks the same rows at any partitioning;
    groups under the cap keep everything."""
    import ray.data as rd
    from raphtory_ray.data.text import stratified_cap
    n = 300
    t = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "source": pa.array([f"s{i % 3}" for i in range(n)]),
                  "text": pa.array(["x"] * n)})
    a = stratified_cap(rd.from_arrow(t).repartition(2), cap=20)
    b = stratified_cap(rd.from_arrow(t).repartition(7), cap=20)
    ids_a = sorted(a["doc_id"].to_pylist())
    assert ids_a == sorted(b["doc_id"].to_pylist())
    import pandas as pd
    cnt = a.to_pandas().groupby("source").size()
    assert (cnt == 20).all()
    small = stratified_cap(rd.from_arrow(t.slice(0, 9)), cap=20)
    assert small.num_rows == 9            # under-cap group keeps all


def test_sessionize_gap_semantics(ray_session):
    """round-5 sessionization: per-user gap splits by (ts, event_id);
    reshard-invariant; ordinal resets per user."""
    import ray.data as rd
    from raphtory_ray.data.asof import sessionize
    t = pa.table({"user_id": pa.array([1, 1, 1, 1, 2, 2], pa.int64()),
                  "ts": pa.array([0, 5, 100, 102, 0, 300], pa.int64()),
                  "event_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64())})
    out = sessionize(rd.from_arrow(t).repartition(3),
                     gap=50).to_pandas().sort_values("event_id")
    B = 1 << 20
    assert out["session_id"].tolist() == [B, B, B + 1, B + 1,
                                          2 * B, 2 * B + 1]
    out2 = sessionize(rd.from_arrow(t), gap=50).to_pandas() \
        .sort_values("event_id")
    assert out2["session_id"].tolist() == out["session_id"].tolist()


def test_tune_lsh_scurve():
    """The S-curve solver lands near (1/b)^(1/r) = threshold and moves
    monotonically: higher thresholds -> fewer bands (more rows)."""
    from raphtory_ray.data.dedup import tune_lsh
    b1, r1 = tune_lsh(64, 0.5)
    b2, r2 = tune_lsh(64, 0.9)
    assert b1 * r1 <= 64 and b2 * r2 <= 64
    assert b2 < b1                      # high threshold -> fewer bands
    # the implied threshold (1/b)^(1/r) tracks the target
    for thr in (0.3, 0.5, 0.7, 0.9):
        b, r = tune_lsh(64, thr)
        implied = (1.0 / b) ** (1.0 / r)
        assert abs(implied - thr) < 0.25
    import pytest
    with pytest.raises(ValueError):
        tune_lsh(64, 1.5)


def test_funnel_greedy_window_semantics(ray_session):
    """round-5 funnel: greedy-earliest step matching, strict ordering,
    window anchored at step 1; stage-0 users omitted."""
    import ray.data as rd
    from raphtory_ray.data.asof import funnel_counts
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2, 3, 3, 3, 4], pa.int64()),
        "ts": pa.array([0, 10, 20, 0, 500, 5, 3, 30, 7], pa.int64()),
        "event_type": pa.array(["view", "click", "purchase",
                                "view", "click",
                                "view", "click", "purchase",
                                "click"])})
    out = funnel_counts(rd.from_arrow(t).repartition(3),
                        ["view", "click", "purchase"],
                        window=100).to_pandas().sort_values("user_id")
    got = {int(r.user_id): (int(r.stage), int(r.t_first))
           for r in out.itertuples()}
    assert got == {1: (3, 0),      # full funnel
                   2: (1, 0),      # click outside window
                   3: (1, 5)}      # click BEFORE view: strict order
    # user 4 (no step-1 event) omitted
    assert 4 not in got


def test_funnel_window_near_int64_max(ray_session):
    """A window near the int64 maximum must not wrap t_first + window:
    any window wider than the event span gives the same funnel."""
    import ray.data as rd
    from raphtory_ray.data.asof import funnel_counts
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
        "ts": pa.array([100, 110, 120, 100, 5000, 7], pa.int64()),
        "event_type": pa.array(["view", "click", "purchase",
                                "view", "click", "view"])})
    steps = ["view", "click", "purchase"]

    def run(window):
        out = funnel_counts(rd.from_arrow(t), steps, window=window)
        return {int(r.user_id): (int(r.stage), int(r.t_first))
                for r in out.to_pandas().itertuples()}

    wide = run(10**12)
    assert wide == {1: (3, 100), 2: (2, 100), 3: (1, 7)}
    assert run(np.iinfo(np.int64).max) == wide


def test_cohort_retention_semantics(ray_session):
    """round-5 cohorts: period of first event defines the cohort; each
    (cohort, offset) counts DISTINCT users; reshard-invariant."""
    import ray.data as rd
    from raphtory_ray.data.asof import cohort_retention
    t = pa.table({"user_id": pa.array([1, 1, 1, 2, 2, 3], pa.int64()),
                  "ts": pa.array([0, 15, 25, 12, 22, 21], pa.int64())})
    out = cohort_retention(rd.from_arrow(t).repartition(3),
                           period=10).to_pandas()
    got = {(int(r.cohort), int(r.k)): int(r.n_users)
           for r in out.itertuples()}
    assert got == {(0, 0): 1, (0, 1): 1, (0, 2): 1,
                   (1, 0): 1, (1, 1): 1, (2, 0): 1}
    out2 = cohort_retention(rd.from_arrow(t), period=10).to_pandas()
    got2 = {(int(r.cohort), int(r.k)): int(r.n_users)
            for r in out2.itertuples()}
    assert got2 == got


def test_hll_group_registers_parity(ray_session):
    """round-5 grouped HLL: each group's register state is IDENTICAL to
    the global sketch over that group's rows (merge-correctness), and
    estimates track true distincts within HLL error."""
    import ray.data as rd
    from raphtory_ray.data.sketch import (hll_group_registers,
                                          hll_registers, hll_estimate)
    rng = np.random.default_rng(0)
    texts = [f"val{i}" for i in rng.integers(0, 500, 3000)]
    langs = [("en" if i % 2 else "de") for i in range(3000)]
    t = pa.table({"text": pa.array(texts), "lang": pa.array(langs)})
    out = hll_group_registers(rd.from_arrow(t).repartition(4)).to_pandas()
    for g in ("en", "de"):
        sub = out[out["lang"] == g][["reg", "max_rank"]] \
            .sort_values("reg").reset_index(drop=True)
        filt = rd.from_arrow(t.filter(
            pa.array([l == g for l in langs])))
        want = hll_registers(filt).to_pandas() \
            .sort_values("reg").reset_index(drop=True)
        assert want.equals(sub.astype(want.dtypes))
        est = hll_estimate(pa.Table.from_pandas(sub))
        true = len({x for x, l in zip(texts, langs) if l == g})
        assert abs(est - true) / true < 0.15      # p=8 ~6.5% stderr


def test_user_route_wave_multi_partition(ray_session, monkeypatch):
    """round-5 review fix: force P > 1 (by shrinking route_fanout's
    rows per partition) so the multi-partition route/piece path is
    actually exercised — results identical to P=1."""
    import ray.data as rd
    from raphtory_ray.core import exchange
    from raphtory_ray.data.asof import (sessionize, funnel_counts,
                                        cohort_retention)
    rng = np.random.default_rng(5)
    n = 400
    t = pa.table({
        "user_id": pa.array(rng.integers(0, 40, n), pa.int64()),
        "ts": pa.array(np.sort(rng.integers(0, 10_000, n)), pa.int64()),
        "event_id": pa.array(range(n), pa.int64()),
        "event_type": pa.array(
            [["view", "click", "purchase"][i] for i in
             rng.integers(0, 3, n)])})
    ds = rd.from_arrow(t).repartition(5)
    for P in (1, 4):
        monkeypatch.setattr(exchange, "FANOUT_ROWS_PER_PARTITION",
                            -(-n // P))
        assert exchange.num_partitions(
            n, cpus=4, per=exchange.FANOUT_ROWS_PER_PARTITION) == P
        s = sessionize(ds, gap=100).to_pandas() \
            .sort_values("event_id").reset_index(drop=True)
        f = funnel_counts(ds, ["view", "click", "purchase"],
                          window=2000).to_pandas() \
            .sort_values("user_id").reset_index(drop=True)
        c = cohort_retention(ds, period=1000).to_pandas() \
            .sort_values(["cohort", "k"]).reset_index(drop=True)
        if P == 1:
            s1, f1, c1 = s, f, c
        else:
            assert s.equals(s1) and f.equals(f1) and c.equals(c1)
    # overflow-safety (review fix): fine period over epoch-scale stamps
    big = pa.table({
        "user_id": pa.array([7, 7, 8], pa.int64()),
        "ts": pa.array([1_700_000_000_000_000, 1_700_000_050_000_000,
                        1_700_000_000_000_000], pa.int64())})
    cr = cohort_retention(rd.from_arrow(big), period=1000).to_pandas()
    assert (cr["cohort"] == 1_700_000_000_000).sum() >= 1
    assert set(cr["k"]) == {0, 50_000}


def test_hll_group_estimates(ray_session):
    import ray.data as rd
    from raphtory_ray.data.sketch import hll_group_estimates
    rng = np.random.default_rng(1)
    texts = [f"v{i}" for i in rng.integers(0, 300, 2000)]
    langs = [("en" if i % 2 else "de") for i in range(2000)]
    t = pa.table({"text": pa.array(texts), "lang": pa.array(langs)})
    est = hll_group_estimates(rd.from_arrow(t).repartition(3)).to_pandas()
    for _, r in est.iterrows():
        true = len({x for x, l in zip(texts, langs) if l == r["lang"]})
        assert abs(r["distinct_est"] - true) / true < 0.15


def test_hll_group_estimates_empty_keeps_group_type(ray_session):
    """Empty input: the group column keeps the input's type (here int64),
    not a hardcoded string column."""
    import ray.data as rd
    from raphtory_ray.data.sketch import hll_group_estimates
    t = pa.table({"text": pa.array([], pa.string()),
                  "lang": pa.array([], pa.int64())})
    est = hll_group_estimates(rd.from_arrow(t))
    assert est.num_rows == 0
    assert est.schema.field("lang").type == pa.int64()
    assert est.schema.field("distinct_est").type == pa.float64()


def test_line_stats_duplicate_lines(ray_session):
    """round-5 duplicate-line signal: exact total/distinct line counts,
    empty string = one empty line (split semantics mirror the oracle)."""
    import ray.data as rd
    from raphtory_ray.data.text import line_stats
    ds = _doc_ds(["a\nb\na", "x", "", "p\np\np\np"])
    t = line_stats(ds).to_pandas().sort_values("doc_id")
    assert t["n_lines"].tolist() == [3, 1, 1, 4]
    assert t["n_distinct_lines"].tolist() == [2, 1, 1, 1]
