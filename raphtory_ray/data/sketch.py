"""HyperLogLog distinct-count sketch (Flajolet et al. 2007) — the
combiner-pattern cardinality estimator a 100-TB pipeline uses where
COUNT(DISTINCT) would shuffle every value: per-block register partials
(256 × int8-scale state), driver elementwise-max merge, standard bias
corrections. The hash is md5's first 16 hex chars as uint64 — chosen so
the DuckDB oracle reproduces every register BIT-EXACTLY
(`('0x' || substr(md5(x),1,16))::UBIGINT`), making the sketch itself
value-gateable, not just its estimate.

Scale shape: ONE streaming pass, O(2^p) bytes per block partial and on
the driver — never a shuffle; mergeability (elementwise max) is what
makes it resumable and cluster-friendly (partial register files can be
checkpointed and re-merged).
"""
from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import ray


def _md5_u64(texts: list[bytes]) -> np.ndarray:
    return np.array([int(hashlib.md5(t).hexdigest()[:16], 16)
                     for t in texts], dtype=np.uint64)


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length (float log2 misrounds above 2^53)."""
    bl = np.zeros(len(w), np.int64)
    v = w.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        m = v >= np.uint64(1 << shift)
        bl[m] += shift
        v[m] >>= np.uint64(shift)
    bl[v > 0] += 1
    return bl


def _registers_block(b: pa.Table, col: str, p: int) -> np.ndarray:
    txt = b[col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    h = _md5_u64([x.encode() if isinstance(x, str) else x
                  for x in txt.to_pylist()])
    m = 1 << p
    reg = (h >> np.uint64(64 - p)).astype(np.int64)
    w = h & np.uint64((1 << (64 - p)) - 1)
    # rank = leading zeros within the low 64-p bits, + 1
    rank = np.where(w > 0, (64 - p) - _bit_length_u64(w) + 1, 64 - p + 1)
    out = np.zeros(m, np.int64)
    np.maximum.at(out, reg, rank)
    return out


@ray.remote
def _registers_remote(b: pa.Table, col: str, p: int) -> np.ndarray:
    return _registers_block(b, col, p)


def hll_registers(ds, col: str = "text", p: int = 8) -> pa.Table:
    """(reg, max_rank) for every TOUCHED register — the mergeable sketch
    state itself (value-gated against the DuckDB md5 chain)."""
    refs = ds.select_columns([col]).materialize().to_arrow_refs()
    parts = ray.get([_registers_remote.remote(r, col, p) for r in refs])
    regs = np.maximum.reduce(parts) if parts else np.zeros(1 << p, np.int64)
    nz = np.flatnonzero(regs)
    return pa.table({"reg": pa.array(nz, pa.int64()),
                     "max_rank": pa.array(regs[nz], pa.int64())})


def hll_estimate(registers: pa.Table, p: int = 8) -> float:
    """Standard HLL estimate with small-range linear counting."""
    m = 1 << p
    regs = np.zeros(m, np.float64)
    regs[registers["reg"].to_numpy(zero_copy_only=False)] = \
        registers["max_rank"].to_numpy(zero_copy_only=False)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-regs))
    zeros = int((regs == 0).sum())
    if e <= 2.5 * m and zeros > 0:
        e = m * np.log(m / zeros)
    return float(e)


def hll_distinct(ds, col: str = "text", p: int = 8) -> float:
    return hll_estimate(hll_registers(ds, col, p), p)


# ----------------------------------------------------------- Count-Min

_CM_SALT = 0x9E3779B97F4A7C15

# the one splitmix64 the SQL oracle chain (_sm64_chain) mirrors — import,
# don't copy, so engine and oracle can never desynchronize
from raphtory_ray.core.exchange import splitmix64 as _splitmix64  # noqa: E402


def _salted_hash(h: np.ndarray, i: int) -> np.ndarray:
    """splitmix64(h + i·SALT), the sum and product wrapping mod 2^64: hash
    i of the Count-Min rows and the Bloom positions, as the oracle has it."""
    return _splitmix64(h + np.uint64(i * _CM_SALT & 0xFFFFFFFFFFFFFFFF))


def _cm_block(b: pa.Table, col: str, depth: int, width: int) -> np.ndarray:
    txt = b[col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    h = _md5_u64([x.encode() if isinstance(x, str) else x
                  for x in txt.to_pylist()])
    out = np.zeros((depth, width), np.int64)
    for i in range(depth):
        bkt = (_salted_hash(h, i) % np.uint64(width)).astype(np.int64)
        np.add.at(out[i], bkt, 1)
    return out


@ray.remote
def _cm_remote(b: pa.Table, col: str, depth: int, width: int) -> np.ndarray:
    return _cm_block(b, col, depth, width)


def countmin_counters(ds, col: str = "text", depth: int = 4,
                      width: int = 1024) -> pa.Table:
    """(row, bucket, count) for every touched Count-Min counter (Cormode
    & Muthukrishnan 2005). Counters are EXACT integer sums of per-block
    partials (the additive-merge combiner pattern — mergeable, hence
    resumable), and the (md5-uint64 + row-salted splitmix64) bucket hash
    is reproduced verbatim by the DuckDB oracle, so the sketch state is
    value-gated like the HLL registers."""
    refs = ds.select_columns([col]).materialize().to_arrow_refs()
    parts = ray.get([_cm_remote.remote(r, col, depth, width) for r in refs])
    cm = np.sum(parts, axis=0) if parts else np.zeros((depth, width),
                                                      np.int64)
    r, c = np.nonzero(cm)
    return pa.table({"row": pa.array(r, pa.int64()),
                     "bucket": pa.array(c, pa.int64()),
                     "count": pa.array(cm[r, c], pa.int64())})


def countmin_query(counters: pa.Table, texts: list[str], depth: int = 4,
                   width: int = 1024) -> np.ndarray:
    """Point-frequency upper-bound estimates: min over rows."""
    cm = np.zeros((depth, width), np.int64)
    cm[counters["row"].to_numpy(zero_copy_only=False),
       counters["bucket"].to_numpy(zero_copy_only=False)] = \
        counters["count"].to_numpy(zero_copy_only=False)
    h = _md5_u64([t.encode() for t in texts])
    est = np.full(len(texts), np.iinfo(np.int64).max, np.int64)
    for i in range(depth):
        bkt = (_salted_hash(h, i) % np.uint64(width)).astype(np.int64)
        est = np.minimum(est, cm[i, bkt])
    return est


# --------------------------------------------------------------- Bloom

def _bloom_positions(h: np.ndarray, k: int, m: int) -> np.ndarray:
    """k bit positions per value: splitmix64(h + i·SALT) % m, i ∈ [0,k) —
    the same salted-rehash family as Count-Min, so the oracle reuses the
    HUGEINT chain verbatim."""
    pos = np.empty((k, len(h)), np.int64)
    for i in range(k):
        pos[i] = (_salted_hash(h, i) % np.uint64(m)).astype(np.int64)
    return pos


def _bloom_block(b: pa.Table, col: str, k: int, m: int) -> np.ndarray:
    txt = b[col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    h = _md5_u64([x.encode() if isinstance(x, str) else x
                  for x in txt.to_pylist()])
    bits = np.zeros(m, bool)
    if len(h):
        bits[_bloom_positions(h, k, m).ravel()] = True
    return bits


@ray.remote
def _bloom_remote(b: pa.Table, col: str, k: int, m: int) -> np.ndarray:
    return _bloom_block(b, col, k, m)


def bloom_build(ds, col: str = "text", k: int = 5,
                m: int = 1 << 14) -> pa.Table:
    """Bloom-filter membership state (Bloom 1970): one streaming pass,
    per-block bitset partials OR-merged on the driver (O(m/8) bytes each
    way — mergeable, hence resumable/checkpointable). The classic
    100-TB decontamination primitive: build over the benchmark set once,
    broadcast, probe every training shard with zero shuffles. Returns
    the SET BIT INDICES — oracle-reproducible exactly (md5-uint64 +
    salted splitmix, like the Count-Min counters)."""
    refs = ds.select_columns([col]).materialize().to_arrow_refs()
    parts = ray.get([_bloom_remote.remote(r, col, k, m) for r in refs])
    bits = np.logical_or.reduce(parts) if parts else np.zeros(m, bool)
    return pa.table({"bit": pa.array(np.flatnonzero(bits), pa.int64())})


def bloom_contains(bits_tbl: pa.Table, texts: list[str], k: int = 5,
                   m: int = 1 << 14) -> np.ndarray:
    """Membership probes: True = maybe-present (no false negatives)."""
    bits = np.zeros(m, bool)
    bits[bits_tbl["bit"].to_numpy(zero_copy_only=False)] = True
    h = _md5_u64([t.encode() for t in texts])
    if not len(h):
        return np.zeros(0, bool)
    pos = _bloom_positions(h, k, m)
    return bits[pos].all(axis=0)


# -------------------------------------------- grouped HLL (round 5)

def _group_registers_block(b: pa.Table, col: str, group_col: str,
                           p: int) -> pa.Table:
    """Per-(group, touched register) max ranks for one block — the
    mergeable grouped-sketch partial (≤ groups·2^p rows, usually far
    fewer)."""
    txt = b[col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    g = b[group_col]
    if isinstance(g, pa.ChunkedArray):
        g = g.combine_chunks()
    h = _md5_u64([x.encode() if isinstance(x, str) else x
                  for x in txt.to_pylist()])
    reg = (h >> np.uint64(64 - p)).astype(np.int64)
    w = h & np.uint64((1 << (64 - p)) - 1)
    rank = np.where(w > 0, (64 - p) - _bit_length_u64(w) + 1, 64 - p + 1)
    import pyarrow.compute as pc
    dg = pc.dictionary_encode(g)
    codes = dg.indices.to_numpy(zero_copy_only=False)
    valid = ~np.isnan(codes) if codes.dtype.kind == "f" \
        else np.ones(len(codes), bool)
    codes = np.where(valid, codes, 0).astype(np.int64)
    reg, rank = reg[valid], rank[valid]
    codes = codes[valid]
    key = codes * np.int64(1 << p) + reg
    uk, inv = np.unique(key, return_inverse=True)
    mx = np.zeros(len(uk), np.int64)
    np.maximum.at(mx, inv, rank)
    return pa.table({
        group_col: dg.dictionary.take(pa.array(uk >> p)),
        "reg": pa.array(uk & np.int64((1 << p) - 1), pa.int64()),
        "max_rank": pa.array(mx, pa.int64())})


def hll_group_registers(ds, col: str = "text", group_col: str = "lang",
                        p: int = 8):
    """Grouped HLL register state: (group, reg, max_rank) for every
    touched register of every group — approximate DISTINCT per group in
    one streaming pass + one group_agg max over sketch-sized partials
    (never over the data). Feed each group's rows to ``hll_estimate``
    for the count. Null-group rows are EXCLUDED (document the contract
    rather than silently folding them into a group). Returns a
    Dataset."""
    from raphtory_ray.core.aggregate import Agg, group_agg
    return group_agg(
        ds.select_columns([col, group_col]), [group_col, "reg"],
        [Agg("max_rank", "max", "max_rank")],
        project=lambda b: _group_registers_block(b, col, group_col, p))


def hll_group_estimates(ds, col: str = "text", group_col: str = "lang",
                        p: int = 8) -> pa.Table:
    """(group, distinct_est) — hll_group_registers finished per group
    with the standard estimator. The pull is sketch-sized (≤ groups·2^p
    rows), never the data."""
    regs = hll_group_registers(ds, col, group_col, p)
    import ray as _r
    parts = [t for t in _r.get(regs.materialize().to_arrow_refs())
             if t.num_rows]
    if not parts:
        gtype = ds.schema().base_schema.field(group_col).type
        return pa.table({group_col: pa.array([], gtype),
                         "distinct_est": pa.array([], pa.float64())})
    t = pa.concat_tables(parts)
    groups = t[group_col].to_numpy(zero_copy_only=False)
    out_g, out_e = [], []
    for g in np.unique(groups):
        sub = t.filter(pa.array(groups == g))
        out_g.append(g)
        out_e.append(hll_estimate(sub, p))
    return pa.table({group_col: pa.array(list(out_g)),
                     "distinct_est": pa.array(out_e, pa.float64())})
