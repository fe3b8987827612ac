"""Edge-table derivations over the driver's TPC-H-ish testdata tables.

Two deterministic, SQL-checkable graphs (the oracle side lives in
``__ray_entry__.oracle_sql``):

- **Part co-purchase graph** (`copurchase_edges`): one directed edge event
  (a.l_partkey → b.l_partkey) per lineitem pair within an order with
  ``a.l_linenumber < b.l_linenumber``. This is the classic self-join-per-key
  explosion; here it is a hash-partitioned groupby followed by a fully
  vectorized per-partition pair kernel (NOT one pandas call per order —
  orders are tiny and numerous, so per-group dispatch would dominate).

- **User interaction graph** (`user_edges`): for each event, an edge
  user_id → user_id of the *next* event of the same event_type in
  (ts, event_id) order (SQL LEAD window). ``t`` = epoch millis of the
  source event — feeds the temporal window views.

Partitioning note (scale): the co-purchase derivation is one raw
hash-route wave on l_orderkey with a bounded per-key group size
(lineitems per order ≤ 7) — no sort exchange.
The LEAD derivation (r4, closes VERDICT r3 #7) is a distributed RANGE SORT
on (event_type, ts, event_id) — Ray Data's range-partitioned shuffle, no
unbounded low-cardinality group ever lands in one task — followed by a
vectorized per-block lead kernel with an O(P) boundary-row exchange (each
block also pairs its last row with the first row of the next block when
the type matches).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

def _pairs_within_groups(key: np.ndarray, val: np.ndarray,
                         ordinal: np.ndarray,
                         strict: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """All ordered pairs (val_i, val_j) with ordinal_i < ordinal_j (strict) or
    position_i < position_j (strict=False) inside each key group, vectorized:
    sort by (key, ordinal), bucket groups by size c, reshape each size class
    to (m, c) and take triu indices once per class."""
    order = np.lexsort((ordinal, key))
    k, v, o = key[order], val[order], ordinal[order]
    boundary = np.r_[True, k[1:] != k[:-1]]
    starts = np.flatnonzero(boundary)
    counts = np.diff(np.r_[starts, len(k)])
    src_parts, dst_parts = [], []
    for c in np.unique(counts):
        if c < 2:
            continue
        sel = starts[counts == c]
        rows = sel[:, None] + np.arange(c)[None, :]
        vals = v[rows]                       # (m, c)
        i, j = np.triu_indices(int(c), 1)
        s, d = vals[:, i].ravel(), vals[:, j].ravel()
        if strict:
            ords = o[rows]
            m = (ords[:, i] < ords[:, j]).ravel()
            s, d = s[m], d[m]
        src_parts.append(s)
        dst_parts.append(d)
    if not src_parts:
        z = np.empty(0, dtype=val.dtype)
        return z, z
    return np.concatenate(src_parts), np.concatenate(dst_parts)


@ray.remote
def _pairs_part(*blocks: pa.Table) -> pa.Table:
    t = pa.concat_tables(list(blocks), promote_options="default")
    s, d = _pairs_within_groups(
        t["l_orderkey"].to_numpy(zero_copy_only=False),
        t["l_partkey"].to_numpy(zero_copy_only=False),
        t["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64),
        strict=True)
    return pa.table({"src": pa.array(s.astype(np.int64)),
                     "dst": pa.array(d.astype(np.int64))})


def copurchase_edges(sf_dir: str) -> rd.Dataset:
    """Directed part→part co-purchase edge events from lineitem.

    One raw hash-route wave on l_orderkey (the Cypher join's splitmix
    `_route` tasks — all lineitems of an order land in one partition,
    group size bounded ≤ 7) + a fully vectorized per-partition pair
    kernel. Replaced a Ray sort-based groupby on a salt column: the sort
    exchange cost ~3× the kernel (5.8 s → 1.4 s at sf0.01), and per-order
    map_groups dispatch would be worse still (orders are tiny and
    numerous)."""
    from raphtory_ray.query.cypher import route_fanout
    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_linenumber"]).materialize()
    out = route_fanout(li, ["l_orderkey"], _pairs_part,
                       rows_per_part=100_000)
    if out is None:
        z = pa.array([], pa.int64())
        return rd.from_arrow(pa.table({"src": z, "dst": z}))
    return rd.from_arrow_refs(out)


def _lead_schema(keep_type: bool, keep_props: bool) -> pa.Table:
    z = pa.array([], pa.int64())
    out = {"src": z, "dst": z, "t": z, "event_id": z,
           "w": pa.array([], pa.float64())}
    if keep_type:
        out["etype"] = pa.array([], pa.string())
    if keep_props:
        out["pk"] = z
    return pa.table(out)


def _lead_block(blk: pa.Table, nxt_first: dict | None,
                keep_type: bool, keep_props: bool) -> pa.Table:
    """LEAD within one globally-range-sorted block: consecutive rows of
    the same event_type pair up; ``nxt_first`` (the first row of the next
    non-empty block) closes the pair that crosses the block boundary."""
    import pyarrow.compute as pc
    if blk.num_rows == 0:
        return _lead_schema(keep_type, keep_props)
    et = blk["event_type"].to_pylist()
    u = blk["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    t = np.asarray(blk["ts"].combine_chunks()
                   .cast(pa.timestamp("ms"), safe=False)   # truncate sub-ms
                   .cast(pa.int64()))
    eid = blk["event_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    w = blk["value"].to_numpy(zero_copy_only=False).astype(np.float64)
    if nxt_first is not None:
        et = et + [nxt_first["event_type"]]
        u = np.append(u, nxt_first["user_id"])
    typ = np.asarray(et)
    link = typ[:-1] == typ[1:]            # consecutive same-type rows pair
    idx = np.flatnonzero(link)
    out = {"src": pa.array(u[idx], pa.int64()),
           "dst": pa.array(u[idx + 1], pa.int64()),
           "t": pa.array(t[idx], pa.int64()),
           "event_id": pa.array(eid[idx], pa.int64()),
           "w": pa.array(w[idx], pa.float64())}
    if keep_type:
        out["etype"] = pa.array(typ[idx], pa.string())
    if keep_props:
        m = pc.extract_regex(
            blk["props"].combine_chunks().take(pa.array(idx, pa.int64())),
            r'"k": (?P<k>-?\d+)')
        out["pk"] = pc.struct_field(m, "k").cast(pa.int64())
    return pa.table(out)


def user_edges(sf_dir: str, keep_type: bool = False,
               keep_props: bool = False) -> rd.Dataset:
    """Temporal user→user edges: LEAD(user_id) within event_type in
    (ts, event_id) order; t = epoch_ms(ts) of the source event. With
    ``keep_type`` the source event's type rides along as a temporal edge
    property column ``etype``; with ``keep_props`` the source event's
    props.k integer is extracted (vectorized regex over the JSON string)
    into column ``pk`` (Prop-system parity: properties are just extra
    event columns).

    Scale shape: a distributed range sort on (event_type, ts, event_id)
    — NOT a groupby on the handful-of-values event_type key, which would
    funnel a whole type's events into one task — then a vectorized lead
    kernel per sorted block with an O(num_blocks) boundary-row exchange
    (the first row of each block is shipped to its predecessor so the
    cross-block pair isn't lost)."""
    import ray

    cols = ["event_id", "ts", "user_id", "event_type", "value"]
    if keep_props:
        cols.append("props")
    ev = rd.read_parquet(f"{sf_dir}/events.parquet", columns=cols)
    refs = (ev.sort(["event_type", "ts", "event_id"])
              .materialize().to_arrow_refs())

    @ray.remote
    def first_row(blk: pa.Table):
        if blk.num_rows == 0:
            return None
        return {c: blk[c][0].as_py() for c in ("event_type", "user_id")}

    @ray.remote
    def lead(blk: pa.Table, nxt_first, kt: bool, kp: bool) -> pa.Table:
        return _lead_block(blk, nxt_first, kt, kp)

    firsts = ray.get([first_row.remote(r) for r in refs])
    # first row of the NEXT non-empty block, per block (O(P) driver work)
    nxt: list = [None] * len(refs)
    later = None
    for i in range(len(refs) - 1, -1, -1):
        nxt[i] = later
        if firsts[i] is not None:
            later = firsts[i]
    out = [lead.remote(refs[i], nxt[i], keep_type, keep_props)
           for i in range(len(refs))]
    return rd.from_arrow_refs(out)


def user_vertex_count(sf_dir: str) -> int:
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/events.parquet", columns=["user_id"])
    return int(t["user_id"].to_numpy().max()) + 1


def user_graph(sf_dir: str, keep_type: bool = False):
    from raphtory_ray.graph.graph_frame import GraphFrame
    return GraphFrame(user_edges(sf_dir, keep_type=keep_type),
                      n=user_vertex_count(sf_dir))


def compact_graph(edges_ds):
    """Dict-encode a sparse-id edge Dataset into a dense-vid GraphFrame.

    Returns (GraphFrame, node_ids) with node_ids[vid] = original id (sorted
    ascending — deterministic at any parallelism). The sorted id vector is
    broadcast once (ray.put) and resolution is a vectorized binary search
    per batch — no shuffle join (SURVEY §2.4 GID-resolver mapping)."""
    import ray
    from raphtory_ray.graph.graph_frame import GraphFrame

    edges = edges_ds.materialize()

    def endpoints(b: pa.Table) -> pa.Table:
        return pa.table({"node": pa.concat_arrays(
            [b["src"].combine_chunks().cast(pa.int64()),
             b["dst"].combine_chunks().cast(pa.int64())])})

    nodes = (edges.map_batches(endpoints, batch_format="pyarrow",
                               zero_copy_batch=True).unique("node"))
    node_ids = np.array(sorted(nodes), dtype=np.int64)
    ref = ray.put(node_ids)

    def remap(b: pa.Table) -> pa.Table:
        ids = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        out = {"src": pa.array(np.searchsorted(
                   ids, b["src"].to_numpy(zero_copy_only=False)), pa.int64()),
               "dst": pa.array(np.searchsorted(
                   ids, b["dst"].to_numpy(zero_copy_only=False)), pa.int64())}
        for c in b.column_names:
            if c not in ("src", "dst"):
                out[c] = b[c]
        return pa.table(out)

    gf = GraphFrame(edges.map_batches(remap, batch_format="pyarrow",
                                      zero_copy_batch=True),
                    n=len(node_ids),
                    vertices=pa.table({
                        "vid": pa.array(np.arange(len(node_ids)), pa.int64()),
                        "gid": pa.array([str(i) for i in node_ids],
                                        pa.string())}))
    return gf, node_ids
