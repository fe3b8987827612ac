"""Link-prediction features — common-neighbour count and Adamic-Adar
(Liben-Nowell & Kleinberg 2003) for candidate pairs drawn from a node
sample.

Reference context: Raphtory has no link-prediction operator; this is one
of the "operations a large-scale training-data pipeline would need"
(graph-feature generation for edge-level training sets).

Scale shape:
- Wedges (a→c←b) are enumerated where they live: BspGraph blocks are
  dst-owned (state/shards._shuffle_pairs invariant), so ALL in-edges of a
  common neighbour c sit in one block — pair generation is block-local,
  no wedge shuffle. The out-degree array (for the 1/ln(deg) weight) is
  broadcast once via ray.put.
- Candidate pairs are restricted to a SAMPLED node set S (both endpoints),
  bounding per-c work by |in(c) ∩ S|² and the output by |S|² — the
  documented way to keep all-pairs features tractable at 10^9 nodes
  (sample, or feed an explicit candidate list).
- One hash((a<<32)+b) route wave combines per-block partials
  (core/exchange.shuffle).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from raphtory_ray.core.exchange import (bucket, num_partitions, returns,
                                        shuffle, split_table)


@ray.remote
def _wedge_partials(block: pa.Table, sref, dref) -> pa.Table:
    """Per dst-owned block: for each owned c, candidate pairs among the
    S-members pointing at c, with c's Adamic-Adar weight 1/ln(outdeg(c))
    (skipped when outdeg(c) < 2 — ln(1)=0 and ln of a sink is undefined,
    the standard AA convention)."""
    S, outdeg = sref, dref          # ObjectRef args arrive auto-deref'd
    s = block["src"].to_numpy(zero_copy_only=False)
    d = block["dst"].to_numpy(zero_copy_only=False)
    m = np.isin(s, S)
    s, d = s[m], d[m]
    empty = pa.table({"a": pa.array([], pa.int64()),
                      "b": pa.array([], pa.int64()),
                      "cn": pa.array([], pa.int64()),
                      "aa": pa.array([], pa.float64())})
    if len(s) == 0:
        return empty
    o = np.lexsort((s, d))
    s, d = s[o], d[o]
    starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
    ends = np.r_[starts[1:], len(d)]
    rows_a, rows_b, rows_w = [], [], []
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        k = hi - lo
        if k < 2:
            continue
        c = d[lo]
        w = 0.0
        if outdeg[c] >= 2:
            w = 1.0 / np.log(float(outdeg[c]))
        nb = s[lo:hi]                      # sorted, distinct (dedup blocks)
        ia, ib = np.triu_indices(k, 1)
        rows_a.append(nb[ia])
        rows_b.append(nb[ib])
        rows_w.append(np.full(len(ia), w))
    if not rows_a:
        return empty
    a = np.concatenate(rows_a)
    b = np.concatenate(rows_b)
    w = np.concatenate(rows_w)
    return pa.table({"a": pa.array(a, pa.int64()),
                     "b": pa.array(b, pa.int64()),
                     "cn": pa.array(np.ones(len(a), np.int64)),
                     "aa": pa.array(w, pa.float64())})


@ray.remote
def _route_pairs(tbl: pa.Table, P: int):
    a = tbl["a"].to_numpy(zero_copy_only=False)
    b = tbl["b"].to_numpy(zero_copy_only=False)
    key = (a.astype(np.uint64) << np.uint64(32)) + b.astype(np.uint64)
    return returns(split_table(tbl, bucket(key, P), P))


@ray.remote
def _combine_pairs(*pieces: pa.Table) -> pa.Table:
    good = [t for t in pieces if t.num_rows]
    if not good:
        return pa.table({"a": pa.array([], pa.int64()),
                         "b": pa.array([], pa.int64()),
                         "cn": pa.array([], pa.int64()),
                         "aa": pa.array([], pa.float64())})
    t = pa.concat_tables(good)
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    cn = t["cn"].to_numpy(zero_copy_only=False)
    aa = t["aa"].to_numpy(zero_copy_only=False)
    key = (a.astype(np.uint64) << np.uint64(32)) + b.astype(np.uint64)
    o = np.argsort(key, kind="stable")
    key, a, b, cn, aa = key[o], a[o], b[o], cn[o], aa[o]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    return pa.table({
        "a": pa.array(a[starts], pa.int64()),
        "b": pa.array(b[starts], pa.int64()),
        "cn": pa.array(np.add.reduceat(cn, starts), pa.int64()),
        "aa": pa.array(np.add.reduceat(aa, starts), pa.float64()),
    })


def link_prediction_features(g, sample: np.ndarray) -> pa.Table:
    """(a, b, cn, aa, jaccard, pref_attach) for every unordered pair
    a < b from ``sample`` with ≥1 common OUT-neighbour:

    - cn = |N⁺(a) ∩ N⁺(b)| (exact int)
    - aa = Σ_c 1/ln(deg⁺(c)) over common neighbours with deg⁺(c) ≥ 2
    - jaccard = cn / (deg⁺(a) + deg⁺(b) − cn)
    - pref_attach = deg⁺(a)·deg⁺(b) (exact int)

    ``g`` is a BspGraph (or a GraphFrame with `_bsp`); output is bounded
    by |sample|². The two degree-based scores are a driver-free final map
    over the combined pairs (degrees come from the broadcast array)."""
    from raphtory_ray.algorithms import _bsp
    g = _bsp(g)
    S = np.unique(np.asarray(sample, np.int64))
    sref = ray.put(S)
    outdeg = g.out_degree
    dref = ray.put(outdeg)
    parts = [_wedge_partials.remote(r, sref, dref) for r in g.refs]
    P = num_partitions(g.num_edges)
    t = pa.concat_tables(ray.get([_combine_pairs.remote(*c)
                                  for c in shuffle(_route_pairs, parts, P)]))
    a = t["a"].to_numpy(zero_copy_only=False)
    b = t["b"].to_numpy(zero_copy_only=False)
    cn = t["cn"].to_numpy(zero_copy_only=False)
    da = outdeg[a].astype(np.int64)
    db = outdeg[b].astype(np.int64)
    jac = cn / (da + db - cn)       # union ≥ cn ≥ 1 on every output row
    return t.append_column("jaccard", pa.array(jac, pa.float64())) \
            .append_column("pref_attach", pa.array(da * db, pa.int64()))
