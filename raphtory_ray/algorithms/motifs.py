"""Temporal three-node motifs (Paranjape et al., WSDM 2017): global counts
and per-node (local) counts from one engine.

Reference semantics: algorithms/motifs/global_temporal_three_node_motifs.rs
(star_motif_count :27-78, twonode_motif_count :80-119, triangle_motifs
:124-254, temporal_three_node_motif_multi :272-330) and
local_temporal_three_node_motifs.rs, with the sliding-window counters of
three_node_motifs.rs (TwoNodeCounter :28-61, StarCounter :85-177,
TriangleCounter :223-341). Output: a 40-vector per delta, for the whole
graph or per node — [0..24) star (pre/mid/post × 8 dir-triples,
two-node-excluded), [24..32) two-node (counted from both endpoints, hence
doubled — reference keeps the doubling), [32..40) triangle.

Ray decomposition (one orchestration, ``_motif_counts``):
- STAR phase: every non-self edge event is routed to BOTH endpoints'
  owner partition (hash shuffle); each partition runs the per-node
  counters over its nodes' time-sorted incident events, giving per-node
  star and two-node counts.
- TRIANGLE phase: k-core(2) subgraph → triangle triples via the engine's
  partitioned wedge semi-join (no global edge pull); pair event lists are
  hash-partitioned by unordered pair; each triple partition receives ONLY
  the pair lists its triangles touch (per-partition semi-join subsets) and
  runs the reference TriangleCounter once per triangle, giving one
  8-vector per triangle.

For global counts each task sums its per-node or per-triangle counts, so
the driver combines fixed-size (len(deltas)×32 and ×8) partials. For local
counts each task returns its star counts per node and scatters every
triangle's 8-vector to the triangle's three members. That scatter is exact
because a triangle's 8-vector is the same whichever member the events are
tagged from: the local reference tags them from the counting node, the
global one from the middle id, and both give the triangle the same slot
(tests/test_motifs.py checks this against a per-member reference).

The per-entity counters are sequential sliding windows (as in the
reference, which parallelises across nodes/edges exactly the same way);
hot nodes/pairs bound a partition's work, matching the reference's
per-node task granularity.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from raphtory_ray.core.exchange import (bucket, columns, num_partitions,
                                        returns, shuffle, split)

# Oriented edges per triangle-grid partition of _triangles_of: P=4 on a
# 567k-edge graph measured 10-20x slower than P=16 (wedge expansion
# under-parallelized), so it splits finer than the default rule.
MOTIF_EDGES_PER_PARTITION = 35_000

_DIRS2D = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _map2d(d1, d2):
    return 2 * d1 + d2


def _map3d(d1, d2, d3):
    return 4 * d1 + 2 * d2 + d3


# ------------------------------------------------------------ counters

def _two_node_count(dirs: np.ndarray, times: np.ndarray,
                    delta: int) -> np.ndarray:
    """TwoNodeCounter.execute (three_node_motifs.rs:28-61): 8 counts."""
    c1 = np.zeros(2, np.int64)
    c2 = np.zeros(4, np.int64)
    c3 = np.zeros(8, np.int64)
    start = 0
    for j in range(len(dirs)):
        tj = times[j]
        while times[start] + delta < tj:
            d = dirs[start]
            c1[d] -= 1
            c2[_map2d(d, 0)] -= c1[0]
            c2[_map2d(d, 1)] -= c1[1]
            start += 1
        d = dirs[j]
        for d1, d2 in _DIRS2D:
            c3[_map3d(d1, d2, d)] += c2[_map2d(d1, d2)]
        c2[_map2d(0, d)] += c1[0]
        c2[_map2d(1, d)] += c1[1]
        c1[d] += 1
    return c3


def _star_count(nbs: np.ndarray, dirs: np.ndarray, times: np.ndarray,
                n: int, delta: int) -> np.ndarray:
    """StarCounter.execute (three_node_motifs.rs:85-177): 24 counts
    (pre | mid | post). Pure-Python-list inner loop with the _map2d/_map3d
    index algebra pre-expanded — numpy scalar indexing in this per-event
    loop measured ~4x slower than list ops."""
    out = np.zeros(24, np.int64)
    l = len(nbs)
    if l < 3:
        return out
    nbs_l = nbs.tolist() if hasattr(nbs, "tolist") else list(nbs)
    dirs_l = dirs.tolist() if hasattr(dirs, "tolist") else list(dirs)
    times_l = times.tolist() if hasattr(times, "tolist") else list(times)
    pre_nodes = [0] * (2 * n)
    post_nodes = [0] * (2 * n)
    pre_sum = [0] * 4      # index _map2d(d1,d2) = 2*d1+d2
    mid_sum = [0] * 4
    post_sum = [0] * 4
    cp = [0] * 8           # count_pre, index _map3d
    cm = [0] * 8           # count_mid
    cpo = [0] * 8          # count_post
    start = 0
    end = 0
    for j in range(l):
        tj = times_l[j]
        while start < l and times_l[start] + delta < tj:
            # pop_pre
            nb = nbs_l[start]
            d = dirs_l[start]
            pre_nodes[d * n + nb] -= 1
            pre_sum[2 * d] -= pre_nodes[nb]           # _map2d(d,0)
            pre_sum[2 * d + 1] -= pre_nodes[n + nb]   # _map2d(d,1)
            start += 1
        while end < l and times_l[end] <= tj + delta:
            # push_post
            nb = nbs_l[end]
            d = dirs_l[end]
            post_sum[d] += post_nodes[nb]             # _map2d(0,d)
            post_sum[2 + d] += post_nodes[n + nb]     # _map2d(1,d)
            post_nodes[d * n + nb] += 1
            end += 1
        nb = nbs_l[j]
        d = dirs_l[j]
        # pop_post
        post_nodes[d * n + nb] -= 1
        post_sum[2 * d] -= post_nodes[nb]
        post_sum[2 * d + 1] -= post_nodes[n + nb]
        # process_current
        mid_sum[d] -= pre_nodes[nb]                   # _map2d(0,d)
        mid_sum[2 + d] -= pre_nodes[n + nb]           # _map2d(1,d)
        # count_pre[_map3d(d1,d2,d)] += pre_sum[_map2d(d1,d2)]
        cp[d] += pre_sum[0]
        cp[2 + d] += pre_sum[1]
        cp[4 + d] += pre_sum[2]
        cp[6 + d] += pre_sum[3]
        # count_post[_map3d(d,d1,d2)] += post_sum[_map2d(d1,d2)]
        b = 4 * d
        cpo[b] += post_sum[0]
        cpo[b + 1] += post_sum[1]
        cpo[b + 2] += post_sum[2]
        cpo[b + 3] += post_sum[3]
        # count_mid[_map3d(d1,d,d2)] += mid_sum[_map2d(d1,d2)]
        b = 2 * d
        cm[b] += mid_sum[0]
        cm[b + 1] += mid_sum[1]
        cm[b + 4] += mid_sum[2]
        cm[b + 5] += mid_sum[3]
        mid_sum[2 * d] += post_nodes[nb]              # _map2d(d,0)
        mid_sum[2 * d + 1] += post_nodes[n + nb]      # _map2d(d,1)
        # push_pre
        pre_sum[d] += pre_nodes[nb]                   # _map2d(0,d)
        pre_sum[2 + d] += pre_nodes[n + nb]           # _map2d(1,d)
        pre_nodes[d * n + nb] += 1
    out[0:8] = cp
    out[8:16] = cm
    out[16:24] = cpo
    return out


# uv-event count table for _triangle_count8: for each uv-event direction d,
# 8 rows of (out_slot, mid_idx, post_idx, pre_idx) — generated from the
# reference index expressions (three_node_motifs.rs:223-341) so the fast
# kernel cannot drift from them.
def _uv_count_table():
    tab = {}
    for d in (0, 1):
        tab[d] = (
            (0, _map3d(d, 0, 0), _map3d(d, 0, 1), _map3d(1 - d, 1, 1)),
            (4, _map3d(d, 1, 0), _map3d(1 - d, 0, 1), _map3d(1 - d, 0, 1)),
            (2, _map3d(1 - d, 0, 0), _map3d(d, 1, 1), _map3d(1 - d, 1, 0)),
            (6, _map3d(1 - d, 1, 0), _map3d(1 - d, 1, 1), _map3d(1 - d, 0, 0)),
            (1, _map3d(d, 0, 1), _map3d(d, 0, 0), _map3d(d, 1, 1)),
            (5, _map3d(d, 1, 1), _map3d(1 - d, 0, 0), _map3d(d, 0, 1)),
            (3, _map3d(1 - d, 0, 1), _map3d(d, 1, 0), _map3d(d, 1, 0)),
            (7, _map3d(1 - d, 1, 1), _map3d(1 - d, 1, 0), _map3d(d, 0, 0)),
        )
    return tab


_UV_TABLE = _uv_count_table()


def _triangle_count8(uv, uorv, dirs, times, delta: int) -> np.ndarray:
    """TriangleCounter.execute with n=2, nb=0 (three_node_motifs.rs:223-341,
    as used by triangle_motifs with init_tri_count(2)): 8 counts.
    List-based inner loop with the _map2d/_map3d algebra pre-expanded
    (4d+2s / 2-2s / 6-2s / 4s+2d / 4-4s+d / 6-4s+d)."""
    out = [0] * 8
    l = len(uv)
    if l < 3:
        return np.zeros(8, np.int64)
    uv_l = uv if type(uv) is list else uv.tolist()
    s_l = uorv if type(uorv) is list else uorv.tolist()
    d_l = dirs if type(dirs) is list else dirs.tolist()
    t_l = times if type(times) is list else times.tolist()
    pre_nodes = [0] * 8
    post_nodes = [0] * 8
    pre_sum = [0] * 8
    mid_sum = [0] * 8
    post_sum = [0] * 8
    start = 0
    end = 0
    for j in range(l):
        tj = t_l[j]
        while start < l and t_l[start] + delta < tj:
            if not uv_l[start]:             # pop_pre (w-event)
                sx = s_l[start]
                dx = d_l[start]
                pre_nodes[4 * dx + 2 * sx] -= 1
                i0 = 4 * sx + 2 * dx
                pre_sum[i0] -= pre_nodes[2 - 2 * sx]
                pre_sum[i0 + 1] -= pre_nodes[6 - 2 * sx]
            start += 1
        while end < l and t_l[end] <= tj + delta:
            if not uv_l[end]:               # push_post
                sx = s_l[end]
                dx = d_l[end]
                post_sum[4 - 4 * sx + dx] += post_nodes[2 - 2 * sx]
                post_sum[6 - 4 * sx + dx] += post_nodes[6 - 2 * sx]
                post_nodes[4 * dx + 2 * sx] += 1
            end += 1
        sx = s_l[j]
        dx = d_l[j]
        if not uv_l[j]:                     # pop_post + process_current
            post_nodes[4 * dx + 2 * sx] -= 1
            i0 = 4 * sx + 2 * dx
            post_sum[i0] -= post_nodes[2 - 2 * sx]
            post_sum[i0 + 1] -= post_nodes[6 - 2 * sx]
            mid_sum[4 - 4 * sx + dx] -= pre_nodes[2 - 2 * sx]
            mid_sum[6 - 4 * sx + dx] -= pre_nodes[6 - 2 * sx]
            mid_sum[i0] += post_nodes[2 - 2 * sx]
            mid_sum[i0 + 1] += post_nodes[6 - 2 * sx]
            # push_pre
            pre_sum[4 - 4 * sx + dx] += pre_nodes[2 - 2 * sx]
            pre_sum[6 - 4 * sx + dx] += pre_nodes[6 - 2 * sx]
            pre_nodes[4 * dx + 2 * sx] += 1
        else:                               # uv-edge event: count motifs
            for slot, mi, pi, ri in _UV_TABLE[dx]:
                out[slot] += mid_sum[mi] + post_sum[pi] + pre_sum[ri]
    return np.asarray(out, np.int64)


# --------------------------------------------------------------- star phase

def _grouped_window_starts(gid, t_rel, M, delta):
    """L[j] = first row i in j's group with t_rel[i] >= t_rel[j] - delta,
    via one searchsorted over composite keys gid*M + t_rel. When
    n_groups * M would overflow int64 (ns-resolution spans, huge group
    counts), re-base gids per chunk so every composite key fits — same
    result, a few extra searchsorted passes only in that regime."""
    rows = len(gid)
    n_groups = int(gid[-1]) + 1
    gpc = max(1, (1 << 62) // M)  # groups per overflow-safe chunk
    if n_groups <= gpc:
        comp = gid * M + t_rel
        return np.searchsorted(comp, comp - delta, side="left")
    chunk = gid // gpc
    starts = np.r_[0, np.flatnonzero(chunk[1:] != chunk[:-1]) + 1, rows]
    L = np.empty(rows, np.int64)
    for s, epos in zip(starts[:-1], starts[1:]):
        comp = (gid[s:epos] - chunk[s] * gpc) * M + t_rel[s:epos]
        L[s:epos] = s + np.searchsorted(comp, comp - delta, side="left")
    return L


def _two_node_group_counts(node, nbr, dr, t, e, deltas):
    """Vectorized TwoNodeCounter over every (node, nbr) event group.

    Exact reformulation of _two_node_count's sliding window: the
    contribution of event j is the number of pairs (i1 < i2 < j) in j's
    group with t_j - t_i1 <= delta, classified by (dir_i1, dir_i2,
    dir_j). Window pairs come from per-group prefix sums -- for window
    start L(j) (first index with t >= t_j - delta, via one global
    searchsorted over group-offset composite keys):

        wp(d1,d2) = Q[d1,d2][j] - Q[d1,d2][L] - c[d1][L] * (c[d2][j] - c[d2][L])

    with c[d] the group-relative exclusive dir counts and Q[d1,d2] the
    group-relative exclusive pair-prefix (cumsum of (dir==d2)*c[d1]).
    Replaces the per-neighbour boolean-mask loop (O(deg*m) per node) and
    the per-group Python loop with O(rows) numpy passes.

    Returns (vids, (nv, D, 8)): the sorted nodes and their counts.
    """
    D = len(deltas)
    if len(node) == 0:
        return np.empty(0, np.int64), np.zeros((0, D, 8), np.int64)
    order = np.lexsort((e, t, nbr, node))
    nd = node[order]
    nb = nbr[order]
    d = dr[order].astype(np.int64)
    tt = t[order]
    rows = len(nd)
    ar = np.arange(rows, dtype=np.int64)
    first_g = np.empty(rows, bool)
    first_g[0] = True
    first_g[1:] = (nd[1:] != nd[:-1]) | (nb[1:] != nb[:-1])
    gid = np.cumsum(first_g) - 1
    gs_row = np.maximum.accumulate(np.where(first_g, ar, 0))
    # group-relative exclusive prefix dir counts
    is1 = (d == 1).astype(np.int64)
    c1x = np.cumsum(is1) - is1
    c0x = ar - c1x
    c = (c0x - c0x[gs_row], c1x - c1x[gs_row])
    # group-offset composite keys: searchsorted stays inside j's group
    t_rel = tt - tt[gs_row]
    M = int(t_rel.max()) + int(max(deltas)) + 2
    # group-relative exclusive pair-prefix per (d1, d2)
    Q = {}
    for d1 in (0, 1):
        for d2 in (0, 1):
            inc = np.where(d == d2, c[d1], 0)
            q = np.cumsum(inc) - inc
            Q[(d1, d2)] = q
    nstart = np.r_[0, np.flatnonzero(nd[1:] != nd[:-1]) + 1]
    vids = nd[nstart]
    out = np.empty((len(vids), D, 8), np.int64)
    m1 = d == 1
    for di, delta in enumerate(deltas):
        L = _grouped_window_starts(gid, t_rel, M, int(delta))
        for d1 in (0, 1):
            cbL = c[d1][L]
            for d2 in (0, 1):
                q = Q[(d1, d2)]
                wp = q - q[L] - cbL * (c[d2] - c[d2][L])
                base = 4 * d1 + 2 * d2
                out[:, di, base + 1] = np.add.reduceat(
                    np.where(m1, wp, 0), nstart)
                out[:, di, base] = np.add.reduceat(
                    np.where(m1, 0, wp), nstart)
    return vids, out


def _node_codes_and_order(node, nbr, dr, t, e):
    """(order2, codes, starts, degs): rows in per-node (t, e) order with
    per-node dense neighbour codes (first-appearance order is irrelevant
    to the counters) -- replaces per-node np.unique + mask loops."""
    rows = len(node)
    ar = np.arange(rows, dtype=np.int64)
    order1 = np.lexsort((e, t, nbr, node))
    nd1, nb1 = node[order1], nbr[order1]
    first_g = np.empty(rows, bool)
    first_g[0] = True
    first_g[1:] = (nd1[1:] != nd1[:-1]) | (nb1[1:] != nb1[:-1])
    gid = np.cumsum(first_g) - 1
    first_n = np.empty(rows, bool)
    first_n[0] = True
    first_n[1:] = nd1[1:] != nd1[:-1]
    node_start = np.maximum.accumulate(np.where(first_n, ar, 0))
    code1 = gid - gid[node_start]
    codes = np.empty(rows, np.int64)
    codes[order1] = code1
    degs = np.bincount((np.cumsum(first_n) - 1)[first_g])
    order2 = np.lexsort((e, t, node))
    nd2 = node[order2]
    starts = np.r_[0, np.flatnonzero(nd2[1:] != nd2[:-1]) + 1, rows]
    return order2, codes, starts, degs


def _events(block: pa.Table):
    """(src, dst, t, event_id) int64 arrays of a block's non-self events,
    or None when the block has no edges. A missing t reads as 0 and a
    missing event_id as the row number."""
    if block.num_rows == 0 or "src" not in block.column_names:
        return None
    s = block["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = block["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    t = block["t"].to_numpy(zero_copy_only=False).astype(np.int64) \
        if "t" in block.column_names else np.zeros(len(s), np.int64)
    e = block["event_id"].to_numpy(zero_copy_only=False).astype(np.int64) \
        if "event_id" in block.column_names else np.arange(len(s))
    m = s != d
    return s[m], d[m], t[m], e[m]


@ray.remote
def _star_split(block: pa.Table, P: int):
    """Route every non-self event to BOTH endpoints' owner partitions as
    (node, nbr, dir, t, eid); dir=1 when node is the source."""
    ev = _events(block)
    if ev is None:
        z = np.empty(0, np.int64)
        return returns([(z, z, np.empty(0, np.int8), z, z)] * P)
    s, d, t, e = ev
    node = np.concatenate([s, d])
    nbr = np.concatenate([d, s])
    dr = np.concatenate([np.ones(len(s), np.int8), np.zeros(len(s), np.int8)])
    tt = np.concatenate([t, t])
    ee = np.concatenate([e, e])
    return returns(split(bucket(node, P), P, node, nbr, dr, tt, ee))


@ray.remote
def _star_partial(deltas: tuple, per_node: bool, *pieces):
    """One node partition: per node, star + two-node counts over its
    time-sorted incident events (local_temporal_three_node_motifs.rs:
    348-390 star_motif_step) -- star counts less the node's two-node
    counts tiled ×3, then the two-node counts. Returns (vids, counts[nv,
    len(deltas), 32]) per node, or their (len(deltas), 32) sum. The star
    counter runs per node over dense neighbour codes (no per-node
    np.unique / mask loop)."""
    node = np.concatenate([p[0] for p in pieces])
    vids = np.empty(0, np.int64)
    out = np.zeros((0, len(deltas), 32), np.int64)
    if len(node):
        nbr = np.concatenate([p[1] for p in pieces])
        dr = np.concatenate([p[2] for p in pieces]).astype(np.int64)
        t = np.concatenate([p[3] for p in pieces])
        e = np.concatenate([p[4] for p in pieces])
        vids, two = _two_node_group_counts(node, nbr, dr, t, e, deltas)
        order2, codes, starts, degs = _node_codes_and_order(node, nbr, dr,
                                                            t, e)
        cd2, dr2, t2 = codes[order2], dr[order2], t[order2]
        out = np.empty((len(vids), len(deltas), 32), np.int64)
        for i in range(len(vids)):
            lo, hi = starts[i], starts[i + 1]
            for j, delta in enumerate(deltas):
                out[i, j, :24] = _star_count(cd2[lo:hi], dr2[lo:hi],
                                             t2[lo:hi], int(degs[i]), delta)
        out[:, :, :24] -= np.tile(two, 3)
        out[:, :, 24:] = two
    return (vids, out) if per_node else out.sum(axis=0)


# ----------------------------------------------------------- triangle phase

@ray.remote
def _pair_split(block: pa.Table, P: int, n: int, member: np.ndarray):
    """Non-self events between k-core members, keyed by unordered pair
    pk = min*n + max, routed by hash(pk)."""
    ev = _events(block)
    if ev is None:
        z = np.empty(0, np.int64)
        return returns([(z, np.empty(0, np.int8), z, z)] * P)
    s, d, t, e = ev
    m = member[s] & member[d]
    s, d, t, e = s[m], d[m], t[m], e[m]
    lo = np.minimum(s, d)
    hi = np.maximum(s, d)
    pk = lo * n + hi
    src_is_lo = (s == lo).astype(np.int8)
    return returns(split(bucket(pk, P), P, pk, src_is_lo, t, e))


@ray.remote
def _pair_merge(*pieces):
    """Pair partition: pk-sorted event arrays (pk, src_is_lo, t, eid)."""
    pk = np.concatenate([p[0] for p in pieces])
    sl = np.concatenate([p[1] for p in pieces])
    t = np.concatenate([p[2] for p in pieces])
    e = np.concatenate([p[3] for p in pieces])
    order = np.lexsort((e, t, pk))
    return (pk[order], sl[order], t[order], e[order])


@ray.remote
def _split_triples(triples, R: int):
    """Fan a triple block into R chunks so the per-triangle counting loops
    parallelize beyond the (adaptive, possibly small) wedge grid."""
    x, y, z = triples
    return returns([(x[r::R], y[r::R], z[r::R]) for r in range(R)])


def _ragged(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The concatenation of arange(a[i], b[i]) over every i, in one pass."""
    cnt = b - a
    shift = np.repeat(a - (np.cumsum(cnt) - cnt), cnt)
    return np.arange(len(shift), dtype=np.int64) + shift


@ray.remote
def _pair_subset_n(pair_part, n: int, triples):
    """Ship ONLY the pair rows this triple partition's triangles touch
    (sorted-key range selection — the distributed semi-join)."""
    pk, sl, t, e = pair_part
    x, y, z = triples
    need = np.unique(np.concatenate([x * n + y, x * n + z, y * n + z]))
    take = _ragged(np.searchsorted(pk, need, side="left"),
                   np.searchsorted(pk, need, side="right"))
    return (pk[take], sl[take], t[take], e[take])


def _triangle_vectors(deltas: tuple, n: int, x, y, z,
                      subsets) -> np.ndarray:
    """(T, len(deltas), 8): the reference TriangleCounter of every triangle
    (x < y < z) over its events in the merged pair subsets. Event assembly
    is fully vectorized (one batched searchsorted over all 3T pair keys,
    one ragged gather, one global (triangle, t, e) lexsort, vectorized
    dir/uorv tagging) — only the O(m) reference counter itself runs per
    triangle."""
    T = len(x)
    vec = np.zeros((T, len(deltas), 8), np.int64)
    if T == 0:
        return vec
    pk = np.concatenate([s[0] for s in subsets])
    sl = np.concatenate([s[1] for s in subsets]).astype(np.int64)
    t = np.concatenate([s[2] for s in subsets])
    e = np.concatenate([s[3] for s in subsets])
    order = np.lexsort((e, t, pk))
    pk, sl, t, e = pk[order], sl[order], t[order], e[order]
    # reference mapping: w = largest (z), u = middle (y), v = smallest (x)
    keys = np.empty(3 * T, np.int64)
    keys[0::3] = x * n + y
    keys[1::3] = x * n + z
    keys[2::3] = y * n + z
    a = np.searchsorted(pk, keys, side="left")
    cnt = np.searchsorted(pk, keys, side="right") - a
    total = int(cnt.sum())
    if total == 0:
        return vec
    idx = _ragged(a, a + cnt)
    trow = np.repeat(np.repeat(np.arange(T, dtype=np.int64), 3), cnt)
    kk, ss, tt, ee = pk[idx], sl[idx], t[idx], e[idx]
    order2 = np.lexsort((ee, tt, trow))
    kk, ss, tt, trow = kk[order2], ss[order2], tt[order2], trow[order2]
    yr, zr = y[trow], z[trow]
    kxy = x[trow] * n + yr
    lo_n = kk // n
    hi_n = kk % n
    src = np.where(ss == 1, lo_n, hi_n)
    dst = np.where(ss == 1, hi_n, lo_n)
    uv = kk == kxy                       # events on the (u,v)=(y,x) edge
    dirs = np.zeros(total, np.int64)
    uorv = np.zeros(total, np.int64)
    # w-events (src or dst == z); reference tagging (dirs stays 0 for
    # w-src events)
    is_w_src = src == zr
    is_w_dst = dst == zr
    uorv[is_w_src] = np.where(dst[is_w_src] == yr[is_w_src], 0, 1)
    uorv[is_w_dst] = np.where(src[is_w_dst] == yr[is_w_dst], 0, 1)
    dirs[is_w_dst] = 1
    # uv events: src == u(y) → (uorv=1, dir=1); src == v(x) → (0, 0)
    on_u = src[uv] == yr[uv]
    dirs[uv] = np.where(on_u, 1, 0)
    uorv[uv] = np.where(on_u, 1, 0)
    starts = np.r_[0, np.flatnonzero(trow[1:] != trow[:-1]) + 1, total]
    uv_l = uv.tolist()
    s_l = uorv.tolist()
    d_l = dirs.tolist()
    t_l = tt.tolist()
    for i in range(len(starts) - 1):
        lo, hi = int(starts[i]), int(starts[i + 1])
        if hi - lo < 3:
            continue
        r = trow[lo]
        for j, delta in enumerate(deltas):
            vec[r, j] = _triangle_count8(uv_l[lo:hi], s_l[lo:hi],
                                         d_l[lo:hi], t_l[lo:hi], delta)
    return vec


@ray.remote
def _triple_motifs(deltas: tuple, n: int, per_node: bool, triples,
                   *subsets):
    """One triple partition: its triangles' 8-vectors, summed to a
    (len(deltas), 8) partial, or scattered to each triangle's three
    members as (vids, counts[nv, len(deltas), 8])."""
    x, y, z = (a.astype(np.int64) for a in triples)
    vec = _triangle_vectors(deltas, n, x, y, z, subsets)
    if not per_node:
        return vec.sum(axis=0)
    vids, inv = np.unique(np.concatenate([x, y, z]), return_inverse=True)
    out = np.zeros((len(vids), len(deltas), 8), np.int64)
    np.add.at(out, inv, np.concatenate([vec, vec, vec]))
    return vids, out


# ------------------------------------------------------------- entry points

def _motif_counts(gf, deltas, per_node: bool) -> np.ndarray:
    """The 40 motif counts of every delta: (len(deltas), 40) for the
    whole graph, or (n, len(deltas), 40) per node when ``per_node``. Only
    the two public entry points below set ``per_node``."""
    from raphtory_ray.algorithms import _bsp
    deltas = tuple(int(d) for d in deltas)
    mat = gf.edges.materialize()
    refs = mat.to_arrow_refs()
    P = num_partitions(mat.count())

    # ---- star phase
    star_futs = [_star_partial.remote(deltas, per_node, *col)
                 for col in shuffle(_star_split, refs, P)]

    # ---- triangle phase
    g = _bsp(gf)           # reuses gf._bsp when built
    member = np.zeros(gf.n, dtype=bool)
    member[g.kcore_set(2)] = True
    member_ref = ray.put(member)
    triples = _triangles_of(g, member_ref, gf.n)  # per-partition refs
    # pair partitions stay at P: an A/B at sf0.1 measured Pp=4 at 17.5s vs
    # Pp=32 at 6.3s — smaller pair partitions serialize the subset scans
    pair_parts = [_pair_merge.remote(*col) for col in
                  shuffle(_pair_split, refs, P, gf.n, member_ref)]
    # fan triple blocks out to ~32 count tasks regardless of the (adaptive)
    # wedge grid size — the per-triangle counting loop is the hot part
    R = max(1, 32 // max(len(triples), 1))
    tri_futs = [_triple_motifs.remote(
        deltas, gf.n, per_node, tc,
        *[_pair_subset_n.remote(pp, gf.n, tc) for pp in pair_parts])
        for tc in sum(shuffle(_split_triples, triples, R), [])]

    if not per_node:
        return np.concatenate([np.sum(ray.get(star_futs), axis=0),
                               np.sum(ray.get(tri_futs), axis=0)], axis=1)
    out = np.zeros((gf.n, len(deltas), 40), np.int64)
    for vids, counts in ray.get(star_futs):
        out[vids, :, :32] += counts
    for vids, counts in ray.get(tri_futs):
        out[vids, :, 32:] += counts
    return out


def temporal_three_node_motif_multi(gf, deltas) -> np.ndarray:
    """Global 40-vector per delta (temporal_three_node_motif_multi,
    global_temporal_three_node_motifs.rs:272-330)."""
    return _motif_counts(gf, deltas, per_node=False)


def global_temporal_three_node_motif(gf, delta: int) -> np.ndarray:
    """40 global motif counts for one delta
    (global_temporal_three_node_motifs.rs:355-362)."""
    return temporal_three_node_motif_multi(gf, [delta])[0]


def local_temporal_three_node_motifs(gf, deltas) -> np.ndarray:
    """(n, len(deltas), 40) per-node motif counts
    (local_temporal_three_node_motifs.rs temporal_three_node_motif)."""
    return _motif_counts(gf, deltas, per_node=True)


def local_temporal_three_node_motif(gf, delta: int) -> np.ndarray:
    """(n, 40) per-node counts for one delta."""
    return local_temporal_three_node_motifs(gf, [delta])[:, 0, :]


def temporal_rich_club_coefficient(gf, views, k: int,
                                   window_size: int) -> float:
    """Temporal rich-club coefficient (Pedreschi/Battaglia/Barrat 2022;
    temporal_rich_club_coefficient.rs:59-117): over every run of
    ``window_size`` consecutive views, the density of the aggregate-graph
    rich club (distinct-neighbour degree ≥ k) edges that persist through
    the whole run; returns the max over runs.

    Per-view edge sets are distributed partial-dedups restricted to the
    rich club (a broadcast boolean mask); only the club-internal edge keys
    reach the driver — the club is small by construction (degree ≥ k)."""
    from raphtory_ray.algorithms import _bsp
    g = _bsp(gf)           # reuses gf._bsp when built
    s_k = np.flatnonzero(g.both_degree >= k)
    if len(s_k) <= 1:
        return 0.0
    member = np.zeros(gf.n, dtype=bool)
    member[s_k] = True
    member_ref = ray.put(member)
    n = gf.n

    def club_keys(view) -> np.ndarray:
        def part(b: pa.Table) -> pa.Table:
            s = b["src"].to_numpy(zero_copy_only=False)
            d = b["dst"].to_numpy(zero_copy_only=False)
            mem = member if not isinstance(member_ref, ray.ObjectRef) \
                else ray.get(member_ref)
            m = (s != d) & mem[s] & mem[d]
            lo = np.minimum(s[m], d[m])
            hi = np.maximum(s[m], d[m])
            return pa.table({"key": pa.array(np.unique(lo * n + hi))})

        parts = [t["key"].to_numpy(zero_copy_only=False)
                 for t in view.edges.map_batches(
                     part, batch_format="pyarrow", zero_copy_batch=True)
                 .iter_batches(batch_format="pyarrow") if t.num_rows]
        return np.unique(np.concatenate(parts)) if parts \
            else np.empty(0, np.int64)

    sets = [club_keys(v) for v in views]
    best = 0.0
    poss = len(s_k) * (len(s_k) - 1) / 2
    for i in range(0, len(sets) - window_size + 1):
        stable = sets[i]
        for j in range(i + 1, i + window_size):
            stable = np.intersect1d(stable, sets[j], assume_unique=True)
        best = max(best, len(stable) / poss)
    return best


@ray.remote
def _probe_triples(Sq: pa.Table, n: int, *wedge_pieces: pa.Table):
    """Probe variant returning the closing triples (a, m, c), a<m<c."""
    s = Sq["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = Sq["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    keys = np.sort(s * n + d)
    outs = []
    for w in wedge_pieces:
        if w.num_rows == 0 or "a" not in w.column_names:
            continue
        wa = w["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        wm = w["m"].to_numpy(zero_copy_only=False).astype(np.int64)
        wc = w["c"].to_numpy(zero_copy_only=False).astype(np.int64)
        wkeys = wa * n + wc
        pos = np.searchsorted(keys, wkeys)
        pos[pos >= len(keys)] = max(len(keys) - 1, 0)
        hit = keys[pos] == wkeys if len(keys) else np.zeros(len(wkeys), bool)
        if hit.any():
            outs.append((wa[hit], wm[hit], wc[hit]))
    if not outs:
        z = np.empty(0, np.int64)
        return (z, z.copy(), z.copy())
    return (np.concatenate([o[0] for o in outs]),
            np.concatenate([o[1] for o in outs]),
            np.concatenate([o[2] for o in outs]))


def _triangles_of(g, member_ref, n: int) -> list:
    """Triangle triples (x<y<z) of the subgraph induced by the member mask
    in ``member_ref``, one ref per probe partition — reuses the BspGraph
    wedge semi-join (shards.py triangle_counts) with a triple-returning
    probe."""
    from raphtory_ray.state import shards as S
    sub_refs = [_subgraph_und.remote(r, member_ref) for r in g.und_refs]
    # adaptive task grid, as in BspGraph.triangle_counts
    P = num_partitions(g.num_edges, per=MOTIF_EDGES_PER_PARTITION)
    Ssplit, Dsplit = [[S._merge_concat.remote(*col) for col in
                       shuffle(S._orient_split, sub_refs, P, key)]
                      for key in ("src", "dst")]
    wparts = columns([S._wedge_split.options(num_returns=P).remote(
        Dsplit[p], Ssplit[p], P, 262_144) for p in range(P)], P)
    return [_probe_triples.remote(Ssplit[q], n, *wparts[q])
            for q in range(P)]


@ray.remote
def _subgraph_und(block: pa.Table, member: np.ndarray) -> pa.Table:
    s = block["src"].to_numpy(zero_copy_only=False).astype(np.int64)
    d = block["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
    m = member[s] & member[d]
    return pa.table({"src": pa.array(s[m]), "dst": pa.array(d[m])})
