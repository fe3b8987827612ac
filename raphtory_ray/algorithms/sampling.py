"""GraphSAGE-style k-hop neighbor fanout sampling — Ray-Data-native.

A training-data operator for GNN pipelines: from a seed set, sample at
most ``fanouts[h]`` distinct out-neighbors per frontier node per hop,
DETERMINISTICALLY — neighbor rank is ``splitmix64((src << 32) + dst +
hop_salt)``, so re-running, resharding or resuming a job selects the
same subgraph (no RNG state), the same property the hash-stratified
document sampler relies on (data/text.sample_batch).

Scale shape (100-TB design notes):
- The edge table streams; each hop is ONE ``map_batches`` pass doing a
  frontier semi-join (np.isin against a plasma-shared frontier array —
  broadcast once via ``ray.put``, zero-copy read per task, never
  re-shipped per batch) + block-local (src, dst) dedup + block-local
  top-f per src, followed by ONE ``groupby(src)`` combine over the
  already-thinned partials (≤ f rows per src per block) — the standard
  partial+final pattern, never an all-pairs shuffle of raw events.
- The frontier itself is bounded by |seeds| x prod(fanouts) — the
  sampling output, not the graph — so driver-side frontier state is
  O(sample), matching the no-edge-pull frontier BFS convention
  (algorithms/components.py).

Reference context: Raphtory has no sampler; semantics follow GraphSAGE
(Hamilton et al., NeurIPS'17) fixed-fanout neighborhood sampling, made
deterministic for resumable pipelines.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from raphtory_ray.core.exchange import (bucket, num_partitions, returns,
                                        shuffle, split_table)
from raphtory_ray.core.exchange import splitmix64 as _splitmix64


def _rank_key(src: np.ndarray, dst: np.ndarray, salt: int) -> np.ndarray:
    """Deterministic per-edge rank: splitmix64((src << 32) + dst + salt)
    (uint64 wrap-around, mirrored exactly by the HUGEINT & mask chain in
    the DuckDB oracle)."""
    x = (src.astype(np.uint64) << np.uint64(32)) + dst.astype(np.uint64) \
        + np.uint64(salt)
    return _splitmix64(x)


def _topf_per_src(src, dst, key, f: int):
    """Block-local: distinct (src, dst), then the f smallest keys per
    src (ties broken by dst). Returns filtered (src, dst, key)."""
    # distinct (src, dst): sort by (src, dst) and drop consecutive dups
    o = np.lexsort((dst, src))
    src, dst, key = src[o], dst[o], key[o]
    keep = np.ones(len(src), np.bool_)
    keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    src, dst, key = src[keep], dst[keep], key[keep]
    # top-f per src by (key, dst)
    o = np.lexsort((dst, key, src))
    src, dst, key = src[o], dst[o], key[o]
    starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
    pos = np.arange(len(src)) - np.repeat(starts, np.diff(np.r_[starts,
                                                                len(src)]))
    m = pos < f
    return src[m], dst[m], key[m]


@ray.remote
def _route_by_src(tbl: pa.Table, P: int):
    """Map side of the combine shuffle: partials routed by hash(src) so
    every src's block-local winners meet in one partition (the explicit
    raw-task shuffle of core/exchange — because groupby().map_groups
    dispatches the UDF once PER GROUP and the dispatch would dominate on
    O(frontier) tiny groups)."""
    src = tbl["src"].to_numpy(zero_copy_only=False)
    return returns(split_table(tbl, bucket(src, P), P))


@ray.remote
def _combine_topf(f: int, *pieces: pa.Table) -> pa.Table:
    """Reduce side: one vectorized multi-src top-f pass per partition."""
    good = [t for t in pieces if t.num_rows]
    if not good:
        return pa.table({"src": pa.array([], pa.int64()),
                         "dst": pa.array([], pa.int64())})
    t = pa.concat_tables(good)
    src = t["src"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    src, dst, _ = _topf_per_src(src, dst, key, f)
    return pa.table({"src": pa.array(src, pa.int64()),
                     "dst": pa.array(dst, pa.int64())})


_C1 = np.uint64(1315423911)      # per-step salt stride
_C2 = np.uint64(2654435761)      # per-walk salt stride


@ray.remote
def _combine_argmin(*pieces: pa.Table) -> pa.Table:
    """Reduce side of the walk step: one winner (min key, tie dst) per
    walk_id over the block-local partials."""
    good = [t for t in pieces if t.num_rows]
    if not good:
        return pa.table({"wid": pa.array([], pa.int64()),
                         "dst": pa.array([], pa.int64())})
    t = pa.concat_tables(good)
    wid = t["wid"].to_numpy(zero_copy_only=False)
    dst = t["dst"].to_numpy(zero_copy_only=False)
    key = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
    o = np.lexsort((dst, key, wid))
    wid, dst = wid[o], dst[o]
    first = np.r_[True, wid[1:] != wid[:-1]]
    return pa.table({"wid": pa.array(wid[first], pa.int64()),
                     "dst": pa.array(dst[first], pa.int64())})


@ray.remote
def _route_by_wid(tbl: pa.Table, P: int):
    wid = tbl["wid"].to_numpy(zero_copy_only=False)
    return returns(split_table(tbl, bucket(wid, P), P))


def random_walks(edges, starts: np.ndarray, length: int, seed: int = 0,
                 walks_per_start: int = 1) -> pa.Table:
    """DeepWalk-style walks over the simple out-edge graph, fully
    DETERMINISTIC: at step s, walk w at node u moves to the out-neighbor
    v minimizing splitmix64((u<<32) + v + seed + s*C1 + w*C2) (ties by
    v), so re-running, resharding or resuming regenerates the identical
    corpus — no RNG state (same rank-hash family as neighbor_sample;
    mirrored bit-exactly by the DuckDB oracle's HUGEINT chain). Walks
    stop early at sink nodes, matching DeepWalk (Perozzi et al., KDD'14)
    truncated-walk behavior.

    Scale shape: per step, ONE streaming pass over the edge Dataset — a
    frontier semi-join against the plasma-broadcast walk table (grouped
    by current node) + a block-local per-walk argmin — then ONE
    hash(walk_id) combine over the thinned partials (≤ 1 row per walk
    per block). Driver state is O(#walks) (the output's own width),
    never O(V) or O(E).

    Returns a pa.Table (walk_id, pos, node) with pos 0 = start;
    walk_id = start_index * walks_per_start + replica."""
    starts = np.asarray(starts, np.int64)
    wid = np.arange(len(starts) * walks_per_start, dtype=np.int64)
    cur = np.repeat(starts, walks_per_start)
    out = [pa.table({"walk_id": pa.array(wid),
                     "pos": pa.array(np.zeros(len(wid), np.int64)),
                     "node": pa.array(cur, pa.int64())})]
    for s in range(1, length + 1):
        if len(wid) == 0:
            break
        # broadcast the walk table grouped by current node
        o = np.argsort(cur, kind="stable")
        curs, offs = np.unique(cur[o], return_index=True)
        offs = np.r_[offs, len(cur)]
        state = ray.put((curs, offs, wid[o]))
        salt = np.uint64(seed) + np.uint64(s) * _C1

        def part(b: pa.Table, _state=state, _salt=salt) -> pa.Table:
            nodes, offsets, wids_by_node = ray.get(_state)
            src = b["src"].to_numpy(zero_copy_only=False)
            dst = b["dst"].to_numpy(zero_copy_only=False)
            m = np.isin(src, nodes)
            src, dst = src[m], dst[m]
            if len(src) == 0:
                return pa.table({"wid": pa.array([], pa.int64()),
                                 "dst": pa.array([], pa.int64()),
                                 "key": pa.array([], pa.int64())})
            # block-local distinct (src, dst) — event multiplicities
            # must not affect the argmin expansion cost
            oo = np.lexsort((dst, src))
            src, dst = src[oo], dst[oo]
            keep = np.r_[True, (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])]
            src, dst = src[keep], dst[keep]
            # expand each edge by the walks sitting at its src
            g = np.searchsorted(nodes, src)
            counts = offsets[g + 1] - offsets[g]
            eidx = np.repeat(np.arange(len(src)), counts)
            local = (np.arange(counts.sum())
                     - np.repeat(np.cumsum(counts) - counts, counts))
            w = wids_by_node[np.repeat(offsets[g], counts) + local]
            u, v = src[eidx], dst[eidx]
            key = _splitmix64((u.astype(np.uint64) << np.uint64(32))
                              + v.astype(np.uint64) + _salt
                              + w.astype(np.uint64) * _C2)
            # block-local argmin per walk
            oo = np.lexsort((v, key, w))
            w, v, key = w[oo], v[oo], key[oo]
            first = np.r_[True, w[1:] != w[:-1]]
            return pa.table({"wid": pa.array(w[first], pa.int64()),
                             "dst": pa.array(v[first], pa.int64()),
                             "key": pa.array(key[first].astype(np.int64))})

        mat = edges.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()
        refs = mat.to_arrow_refs()
        P = num_partitions(mat.count())
        cols = shuffle(_route_by_wid, refs, P)
        step = pa.concat_tables(ray.get(
            [_combine_argmin.remote(*c) for c in cols]))
        wid = step["wid"].to_numpy(zero_copy_only=False)
        cur = step["dst"].to_numpy(zero_copy_only=False)
        out.append(pa.table({"walk_id": pa.array(wid, pa.int64()),
                             "pos": pa.array(np.full(len(wid), s, np.int64)),
                             "node": pa.array(cur, pa.int64())}))
    return pa.concat_tables(out)


def neighbor_sample(edges, seeds: np.ndarray, fanouts: list[int],
                    seed: int = 0) -> pa.Table:
    """Sample a k-hop neighborhood: for hop h (1-based), each frontier
    node keeps its ``fanouts[h-1]`` lowest-ranked distinct out-neighbors.
    ``edges`` is a Ray Dataset with int64 ``src``/``dst`` columns (event
    multiplicities are collapsed — sampling is over the simple graph).
    Returns a pa.Table (src, dst, hop); hop h+1's frontier is the
    distinct dst set of hop h's sample. The returned table is the
    SAMPLE — O(|seeds| x prod(fanouts)) — so driver materialization is
    bounded by construction."""
    frontier = np.unique(np.asarray(seeds, np.int64))
    out = []
    for h, f in enumerate(fanouts, start=1):
        if len(frontier) == 0:
            break
        salt = seed + h
        fref = ray.put(frontier)

        def part(b: pa.Table, _fref=fref, _salt=salt, _f=f) -> pa.Table:
            fr = ray.get(_fref)
            src = b["src"].to_numpy(zero_copy_only=False)
            dst = b["dst"].to_numpy(zero_copy_only=False)
            m = np.isin(src, fr)
            src, dst = src[m], dst[m]
            key = _rank_key(src, dst, _salt)
            src, dst, key = _topf_per_src(src, dst, key, _f)
            return pa.table({"src": pa.array(src, pa.int64()),
                             "dst": pa.array(dst, pa.int64()),
                             "key": pa.array(key.astype(np.int64))})

        mat = edges.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()
        refs = mat.to_arrow_refs()
        P = num_partitions(mat.count())
        cols = shuffle(_route_by_src, refs, P)
        hop = pa.concat_tables(ray.get(
            [_combine_topf.remote(f, *c) for c in cols]))
        out.append(hop.append_column(
            "hop", pa.array(np.full(hop.num_rows, h, np.int64))))
        frontier = np.unique(hop["dst"].to_numpy(zero_copy_only=False))
    if not out:
        return pa.table({"src": pa.array([], pa.int64()),
                         "dst": pa.array([], pa.int64()),
                         "hop": pa.array([], pa.int64())})
    return pa.concat_tables(out)


@ray.remote
def _gather_adj(tbl: pa.Table, fref) -> pa.Table:
    """Adjacency-gather pass for node2vec bias: distinct out-edges whose
    src is in the walk frontier (block-local thin; driver unions)."""
    fr = ray.get(fref) if not isinstance(fref, np.ndarray) else fref
    src = tbl["src"].to_numpy(zero_copy_only=False)
    dst = tbl["dst"].to_numpy(zero_copy_only=False)
    m = np.isin(src, fr)
    src, dst = src[m], dst[m]
    if len(src):
        o = np.lexsort((dst, src))
        src, dst = src[o], dst[o]
        keep = np.r_[True, (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])]
        src, dst = src[keep], dst[keep]
    return pa.table({"src": pa.array(src, pa.int64()),
                     "dst": pa.array(dst, pa.int64())})


def node2vec_walks(edges, starts: np.ndarray, length: int, seed: int = 0,
                   walks_per_start: int = 1,
                   shifts: tuple[int, int, int] = (0, 2, 0)) -> pa.Table:
    """node2vec-style SECOND-ORDER biased walks (Grover & Leskovec,
    KDD'16), deterministic: at step s ≥ 2 the candidate v's rank is
    ``splitmix64((u<<32)+v+seed+s*C1+w*C2) >> shifts[d]`` where d
    classifies v against the walk's PREVIOUS node t — d=0: v == t
    (return), d=1: edge t→v exists (triadic), d=2: otherwise (explore) —
    and the walk takes the argmin (ties by v). A class with shift b is
    2^b× more likely than shift 0 (argmin of key/weight with weight
    2^b), so (p, q) are expressible as powers of two: node2vec's
    1/p = 2^shifts[0], 1/q = 2^shifts[2] relative to 2^shifts[1] = the
    in-between class. Step 1 has no previous node and is unbiased,
    matching node2vec's uniform first step. The integer shift keeps the
    rank EXACT (no float weights), so the DuckDB oracle mirrors it
    bit-for-bit with HUGEINT ``>>``.

    Scale shape: like random_walks (one streaming edge pass per step +
    O(#walks) combine), plus ONE extra adjacency-gather pass per step
    whose output is the distinct out-neighborhood of the CURRENT
    frontier — O(Σ deg(frontier)) rows, bounded by #walks × max-degree,
    broadcast once via ray.put for the next step's d-classification
    (never re-shipped per batch).
    """
    starts = np.asarray(starts, np.int64)
    wid = np.arange(len(starts) * walks_per_start, dtype=np.int64)
    cur = np.repeat(starts, walks_per_start)
    prev = np.full(len(wid), -1, np.int64)      # step 1: no prev
    s0, s1, s2 = (np.uint64(b) for b in shifts)
    out = [pa.table({"walk_id": pa.array(wid),
                     "pos": pa.array(np.zeros(len(wid), np.int64)),
                     "node": pa.array(cur, pa.int64())})]
    # (src<<32)+dst packed adjacency keys of the frontier's prev set
    # (ids < 2^32, the loaders' vid contract)
    adj_keys = np.empty(0, np.uint64)
    edges = edges.materialize()     # blocks pinned once; each step streams
    edge_refs = edges.to_arrow_refs()
    for s in range(1, length + 1):
        if len(wid) == 0:
            break
        o = np.argsort(cur, kind="stable")
        curs, offs = np.unique(cur[o], return_index=True)
        offs = np.r_[offs, len(cur)]
        state = ray.put((curs, offs, wid[o], prev[o], adj_keys))
        salt = np.uint64(seed) + np.uint64(s) * _C1
        biased = s > 1

        def part(b: pa.Table, _state=state, _salt=salt,
                 _biased=biased) -> pa.Table:
            nodes, offsets, wids_by_node, prevs_by_node, akeys = \
                ray.get(_state)
            src = b["src"].to_numpy(zero_copy_only=False)
            dst = b["dst"].to_numpy(zero_copy_only=False)
            m = np.isin(src, nodes)
            src, dst = src[m], dst[m]
            if len(src) == 0:
                return pa.table({"wid": pa.array([], pa.int64()),
                                 "dst": pa.array([], pa.int64()),
                                 "key": pa.array([], pa.int64())})
            oo = np.lexsort((dst, src))
            src, dst = src[oo], dst[oo]
            keep = np.r_[True, (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])]
            src, dst = src[keep], dst[keep]
            g = np.searchsorted(nodes, src)
            counts = offsets[g + 1] - offsets[g]
            eidx = np.repeat(np.arange(len(src)), counts)
            local = (np.arange(counts.sum())
                     - np.repeat(np.cumsum(counts) - counts, counts))
            slot = np.repeat(offsets[g], counts) + local
            w = wids_by_node[slot]
            u, v = src[eidx], dst[eidx]
            key = _splitmix64((u.astype(np.uint64) << np.uint64(32))
                              + v.astype(np.uint64) + _salt
                              + w.astype(np.uint64) * _C2)
            if _biased:
                t = prevs_by_node[slot]              # walk's prev node
                # d-class: 0 = return, 1 = edge t→v exists, 2 = explore
                pk = (t.astype(np.uint64) << np.uint64(32)) \
                    + v.astype(np.uint64)
                i = np.searchsorted(akeys, pk)
                tri = i < len(akeys)
                tri[tri] = akeys[i[tri]] == pk[tri]
                shift = np.where(v == t, s0, np.where(tri, s1, s2))
                key = key >> shift
            oo = np.lexsort((v, key, w))
            w, v, key = w[oo], v[oo], key[oo]
            first = np.r_[True, w[1:] != w[:-1]]
            return pa.table({"wid": pa.array(w[first], pa.int64()),
                             "dst": pa.array(v[first], pa.int64()),
                             "key": pa.array(key[first].astype(np.int64))})

        mat = edges.map_batches(part, batch_format="pyarrow",
                                zero_copy_batch=True).materialize()
        refs = mat.to_arrow_refs()
        P = num_partitions(mat.count())
        cols = shuffle(_route_by_wid, refs, P)
        step = pa.concat_tables(ray.get(
            [_combine_argmin.remote(*c) for c in cols]))
        nwid = step["wid"].to_numpy(zero_copy_only=False)
        ncur = step["dst"].to_numpy(zero_copy_only=False)
        # prev of a surviving walk = the node it sat on entering this step
        back = np.argsort(wid, kind="stable")
        prev = cur[back[np.searchsorted(wid[back], nwid)]]
        wid, cur = nwid, ncur
        out.append(pa.table({"walk_id": pa.array(wid, pa.int64()),
                             "pos": pa.array(np.full(len(wid), s, np.int64)),
                             "node": pa.array(cur, pa.int64())}))
        if s < length and len(wid):
            # adjacency of the NEXT step's prev set (= this step's prev
            # values): gather once over the pinned edge blocks, broadcast
            # with the next step's state
            fref = ray.put(np.unique(prev))
            parts_ = ray.get([_gather_adj.remote(r, fref)
                              for r in edge_refs])
            good = [t for t in parts_ if t.num_rows]
            if good:
                t = pa.concat_tables(good)
                asrc = t["src"].to_numpy(zero_copy_only=False)
                adst = t["dst"].to_numpy(zero_copy_only=False)
                pk = (asrc.astype(np.uint64) << np.uint64(32)) \
                    + adst.astype(np.uint64)
                adj_keys = np.unique(pk)
            else:
                adj_keys = np.empty(0, np.uint64)
    return pa.concat_tables(out)
