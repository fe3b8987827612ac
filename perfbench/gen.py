"""Seeded input generators owned by the benchmark.

Every generator takes a ``seed`` and returns the same arrays for the same
seed. The engine only ever sees the files these write; the ground truth
(edge lists, contents, planted duplicates) stays with the benchmark for the
output checks.

The corpus uses the engine's import-line formats (one per language), the
``{repo}/{path-minus-extension}`` module identity and the commit-hour time
encoding of the source-repo corpus, so ``pipelines.ingest.load_graph`` can
extract it.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

FILES_PER_REPO = 50
N_ORGS = 20
N_PKGS = 13
LANGS = ("py", "rs", "js", "go")
MIN_IMPORTS = 2
MAX_IMPORTS = 5
INTRA_REPO_PROB = 0.7
HUB_POWER = 3.0          # import target index ~ floor(N * u^3): hub files
EDGE_HUB_POWER = 2.0     # edge-table hub rank ~ n * u^2
VOCAB = 4000             # document words, Zipf-like (rank ~ VOCAB * u^2)
NEAR_DUP_FRAC = 0.1      # documents copying an earlier one, words changed
MUTATE_FRAC = 0.02       # share of a near-duplicate's words changed
EXACT_DUP_FRAC = 0.05    # documents repeating an earlier one verbatim
T0 = 1_600_000_000_000   # first commit time (ms)
T_STEP = 3_600_000       # one commit-hour per file ordinal

_STREAM = {"corpus": 1, "edges": 2, "docs": 3}


def rng_for(seed: int, what: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), _STREAM[what]])


def write_parts(table: pa.Table, out_dir: str, parts: int) -> str:
    """Write ``table`` as ``parts`` parquet files so reads get one block per
    file; returns ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    for name in os.listdir(out_dir):
        os.remove(os.path.join(out_dir, name))
    bounds = np.linspace(0, table.num_rows, parts + 1).astype(int)
    for i in range(parts):
        pq.write_table(table.slice(bounds[i], bounds[i + 1] - bounds[i]),
                       os.path.join(out_dir, f"part-{i:03d}.parquet"))
    return out_dir


# --------------------------------------------------------------- corpus

def _import_line(lang: str, o: int, r: int, p: int, j: int, slot: int) -> str:
    if lang == "py":
        return f"from org{o}_repo{r}.pkg{p}.mod_{j} import handler_{slot}"
    if lang == "rs":
        return f"use org{o}_repo{r}::pkg{p}::mod_{j}::Item{slot};"
    if lang == "js":
        return f'import {{ sym{slot} }} from "@org{o}/repo{r}/pkg{p}/mod_{j}";'
    return f'import m{slot} "example.com/org{o}/repo{r}/pkg{p}/mod_{j}"'


_FILLER = {
    "py": "def fn_{k}(x):\n    return (x * {c}) % 997\n",
    "rs": "pub fn fn_{k}(x: i64) -> i64 {{ (x * {c}) % 997 }}\n",
    "js": "export function fn_{k}(x) {{ return (x * {c}) % 997; }}\n",
    "go": "func Fn{k}(x int64) int64 {{ return (x * {c}) % 997 }}\n",
}


def corpus(seed: int, n_files: int) -> tuple[pa.Table, dict]:
    """Source-repo corpus ``(repo, path, commit, lang, content)`` with
    Zipf-skewed imports (hub files near each repo's start and the corpus
    start). Returns the table and its ground truth: ``gid`` per file, the
    import events as file indices, and ``n_files``."""
    rng = rng_for(seed, "corpus")
    idx = np.arange(n_files)
    repo_idx = idx // FILES_PER_REPO
    org = rng.integers(0, N_ORGS, repo_idx[-1] + 1)[repo_idx]
    j = idx % FILES_PER_REPO
    pkg = j % N_PKGS
    lang = rng.integers(0, len(LANGS), n_files)
    k = rng.integers(MIN_IMPORTS, MAX_IMPORTS + 1, n_files)
    src = np.repeat(idx, k)
    slot = np.arange(len(src)) - np.repeat(np.cumsum(k) - k, k)
    hub = np.power(rng.random(len(src)), HUB_POWER)
    intra = rng.random(len(src)) < INTRA_REPO_PROB
    base = (src // FILES_PER_REPO) * FILES_PER_REPO
    n_in_repo = np.minimum(FILES_PER_REPO, n_files - base)
    dst = np.where(intra, base + np.floor(hub * n_in_repo),
                   np.floor(hub * n_files)).astype(np.int64)
    dst = np.where(dst == src, (dst + 1) % n_files, dst)
    fill_c = rng.integers(1000, 9999, n_files)
    n_fill = rng.integers(2, 8, n_files)
    tail = rng.integers(0, 2**63 - 1, n_files)

    first = np.cumsum(k) - k
    repos, paths, commits, langs, contents, gids = [], [], [], [], [], []
    for i in range(n_files):
        o, r, p, jj, lg = int(org[i]), int(repo_idx[i]), int(pkg[i]), \
            int(j[i]), LANGS[lang[i]]
        repo = f"org{o}/repo{r}"
        commit = f"{T0 + i * T_STEP:012x}{int(tail[i]):016x}{'0' * 12}"
        cm = "#" if lg == "py" else "//"
        body = [f"{cm} module mod_{jj} of {repo} @ {commit[:12]}"]
        for e in range(first[i], first[i] + k[i]):
            d = int(dst[e])
            body.append(_import_line(lg, int(org[d]), int(repo_idx[d]),
                                     int(pkg[d]), int(j[d]), int(slot[e])))
        body += [_FILLER[lg].format(k=f, c=int(fill_c[i]) + f)
                 for f in range(int(n_fill[i]))]
        repos.append(repo)
        paths.append(f"src/pkg{p}/mod_{jj}.{lg}")
        commits.append(commit)
        langs.append(lg)
        contents.append("\n".join(body) + "\n")
        gids.append(f"{repo}/src/pkg{p}/mod_{jj}")
    table = pa.table({"repo": repos, "path": paths, "commit": commits,
                      "lang": langs, "content": contents})
    truth = {"gid": np.array(gids), "src": src, "dst": dst,
             "n_files": n_files}
    return table, truth


def corpus_truth_vids(truth: dict) -> tuple[np.ndarray, np.ndarray, int]:
    """Import events as dense vertex ids: vid = rank of the gid in sorted
    order, the engine's documented gid dictionary contract."""
    rank = np.empty(truth["n_files"], dtype=np.int64)
    rank[np.argsort(truth["gid"], kind="stable")] = np.arange(truth["n_files"])
    return rank[truth["src"]], rank[truth["dst"]], truth["n_files"]


def sha256_hex(contents: list[str]) -> list[str]:
    return [hashlib.sha256(c.encode()).hexdigest() for c in contents]


# --------------------------------------------------------------- edge table

def edge_table(seed: int, n_vertices: int, n_events: int,
               t_span: int) -> pa.Table:
    """Temporal edge events ``(t, src, dst)`` over dense vertex ids.
    Sources are uniform; half the targets are uniform and half are skewed
    toward a random set of hub vertices (target rank ~ n * u^2, so the top
    hub draws about n^(-1/2) of the skewed half)."""
    rng = rng_for(seed, "edges")
    src = rng.integers(0, n_vertices, n_events)
    n_hub = n_events // 2
    perm = rng.permutation(n_vertices)
    hub = perm[np.floor(np.power(rng.random(n_hub), EDGE_HUB_POWER)
                        * n_vertices).astype(np.int64)]
    dst = np.concatenate([rng.integers(0, n_vertices, n_events - n_hub), hub])
    rng.shuffle(dst)
    t = rng.integers(0, t_span, n_events)
    return pa.table({"t": pa.array(t, pa.int64()),
                     "src": pa.array(src, pa.int64()),
                     "dst": pa.array(dst, pa.int64())})


# --------------------------------------------------------------- documents

def documents(seed: int, n_docs: int) -> tuple[pa.Table, dict]:
    """``(doc_id, text)`` documents of 2-4 blank-line-separated paragraphs
    over a Zipf-like vocabulary, with planted near-duplicates and exact
    duplicates. Returns the table and the planted pairs."""
    rng = rng_for(seed, "docs")
    words = np.array([f"w{i:x}" for i in range(VOCAB)])
    texts: list[str] = []
    near: list[tuple[int, int]] = []
    exact: list[tuple[int, int]] = []
    for d in range(n_docs):
        roll = rng.random()
        if d >= 10 and roll < NEAR_DUP_FRAC:
            orig = int(rng.integers(0, d))
            toks = texts[orig].split(" ")
            for pos in rng.choice(len(toks), max(1, int(len(toks) * MUTATE_FRAC)),
                                  replace=False):
                if "\n" not in toks[pos]:
                    toks[pos] = str(words[rng.integers(0, VOCAB)])
            texts.append(" ".join(toks))
            near.append((orig, d))
            continue
        if d >= 10 and roll < NEAR_DUP_FRAC + EXACT_DUP_FRAC:
            orig = int(rng.integers(0, d))
            texts.append(texts[orig])
            exact.append((orig, d))
            continue
        paras = []
        for _ in range(int(rng.integers(2, 5))):
            n_w = int(rng.integers(20, 60))
            ids = np.floor(np.power(rng.random(n_w), 2.0) * VOCAB).astype(int)
            paras.append(" ".join(words[ids]))
        texts.append("\n\n".join(paras))
    table = pa.table({"doc_id": pa.array(np.arange(n_docs), pa.int64()),
                      "text": pa.array(texts, pa.string())})
    return table, {"near_pairs": np.array(near, dtype=np.int64).reshape(-1, 2),
                   "exact_pairs": np.array(exact, dtype=np.int64).reshape(-1, 2)}
