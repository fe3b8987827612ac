"""Column-mapped bulk loaders + canonical exports (SURVEY §2.1).

Mirrors the reference's loader surface —
``load_edges_from_parquet/csv/json`` (parquet_loaders.rs:44-180,
csv_loader.rs, json_loader.rs) and the canonical Parquet graph encoding
(parquet_encoder/mod.rs:29-58, column layout ``rap_*``) — as thin Ray Data
pipelines: read → map_batches(column map + time parse) → GraphFrame.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from raphtory_ray.core.exchange import route_fanout
from raphtory_ray.graph.graph_frame import GraphFrame


def _to_ms(col: pa.ChunkedArray | pa.Array, fmt: str | None = None):
    """Any time column → int64 epoch ms (reference TryIntoInputTime)."""
    t = col.type if not isinstance(col, pa.ChunkedArray) else col.type
    if pa.types.is_integer(t):
        return col.cast(pa.int64())
    if pa.types.is_timestamp(t):
        return pc.divide(col.cast(pa.timestamp("us")).cast(pa.int64()), 1000)
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        parsed = pc.strptime(col, format=fmt or "%Y-%m-%d %H:%M:%S",
                             unit="ms")
        return parsed.cast(pa.int64())
    raise TypeError(f"unsupported time column type {t}")


def _edge_mapper(time_col, src_col, dst_col, layer_col=None,
                 prop_cols=None, time_fmt=None):
    prop_cols = prop_cols or []

    def fn(b: pa.Table) -> pa.Table:
        cols = {
            "src": b[src_col],
            "dst": b[dst_col],
            "t": _to_ms(b[time_col], time_fmt),
            "event_id": pa.array(np.arange(b.num_rows, dtype=np.int64)),
        }
        if layer_col is not None:
            cols["layer"] = b[layer_col]
        for p in prop_cols:
            cols[p] = b[p]
        return pa.table(cols)

    return fn


def load_edges(ds, time_col: str, src_col: str, dst_col: str,
               layer_col: str | None = None, prop_cols=None,
               time_fmt: str | None = None):
    """Any Dataset → edge-event Dataset with the engine's canonical columns.
    NOTE: event_id here is per-batch ordinal; pass a pre-assigned column for
    a reference-exact global secondary index (loaders' secondary_index,
    parquet_loaders.rs:50)."""
    return ds.map_batches(
        _edge_mapper(time_col, src_col, dst_col, layer_col, prop_cols,
                     time_fmt),
        batch_format="pyarrow", zero_copy_batch=True)


def load_edges_from_parquet(path, time_col, src_col, dst_col, **kw):
    import ray.data as rd
    cols = [time_col, src_col, dst_col] + list(kw.get("prop_cols") or [])
    if kw.get("layer_col"):
        cols.append(kw["layer_col"])
    return load_edges(rd.read_parquet(path, columns=cols),
                      time_col, src_col, dst_col, **kw)


def load_edges_from_csv(path, time_col, src_col, dst_col, **kw):
    import ray.data as rd
    return load_edges(rd.read_csv(path), time_col, src_col, dst_col, **kw)


def load_edges_from_json(path, time_col, src_col, dst_col, **kw):
    """Newline-delimited JSON (json_loader.rs)."""
    import ray.data as rd
    return load_edges(rd.read_json(path), time_col, src_col, dst_col, **kw)


def load_edge_deletions(ds, time_col: str, src_col: str, dst_col: str,
                        layer_col: str | None = None,
                        time_fmt: str | None = None):
    """Deletion events (load_edge_deletions_from_parquet,
    parquet_loaders.rs:296-340): same column mapping as ``load_edges``
    tagged op=1; union with addition events (op=0) to build a
    PersistentGraphFrame (graph/persistent.py)."""
    base = load_edges(ds, time_col, src_col, dst_col, layer_col=layer_col,
                      time_fmt=time_fmt)

    def tag(b: pa.Table) -> pa.Table:
        return b.append_column(
            "op", pa.array(np.ones(b.num_rows, np.int64), pa.int64()))

    return base.map_batches(tag, batch_format="pyarrow",
                            zero_copy_batch=True)


def load_edge_deletions_from_parquet(path, time_col, src_col, dst_col, **kw):
    import ray.data as rd
    cols = [time_col, src_col, dst_col]
    if kw.get("layer_col"):
        cols.append(kw["layer_col"])
    return load_edge_deletions(rd.read_parquet(path, columns=cols),
                               time_col, src_col, dst_col, **kw)


# ----------------------------------------------------------- node loaders

def load_nodes(ds, time_col: str, id_col: str, node_type: str | None = None,
               node_type_col: str | None = None, prop_cols=None,
               metadata_cols=None, time_fmt: str | None = None,
               event_id_col: str | None = None, gf=None):
    """Bulk node loader (parquet_loaders.rs:44-106 /
    io/arrow/nodes.rs load_nodes_from_df column mapping) → a GraphFrame
    with a vertices dimension table (vid, gid, node_type, *metadata) and a
    node_events Dataset (vid, t, event_id, *prop_cols).

    id resolution (SURVEY §2.4 GID-resolver):
    - ``gf`` with a vertices table: ids bind to its gid order; unseen ids
      extend the vid space (broadcast sorted-gid binary search, no shuffle
      join).
    - ``gf`` without vertices (dense-int graphs like the user graph): ids
      ARE vids; n grows to cover the max id.
    - no ``gf``: vid space = sorted distinct ids.

    node_type / metadata are constant per node: the value from the node's
    FIRST event by (t, event_id) wins — one route_fanout on vid, the
    inherent shuffle of a node-dimension build."""
    import ray.data as rd

    prop_cols = list(prop_cols or [])
    metadata_cols = list(metadata_cols or [])

    def canon(b: pa.Table) -> pa.Table:
        cols = {
            "_id": b[id_col],
            "t": _to_ms(b[time_col], time_fmt),
            # secondary index (parquet_loaders.rs:50): a real column when
            # given, else a per-batch ordinal
            "event_id": b[event_id_col].combine_chunks().cast(pa.int64())
            if event_id_col else
            pa.array(np.arange(b.num_rows, dtype=np.int64)),
        }
        if node_type_col is not None:
            cols["node_type"] = b[node_type_col]
        for p in prop_cols + metadata_cols:
            cols[p] = b[p]
        return pa.table(cols)

    events = ds.map_batches(canon, batch_format="pyarrow",
                            zero_copy_batch=True).materialize()

    # ---- vid space
    new_ids = sorted(events.unique("_id") or [])
    if gf is not None and gf.vertices is not None:
        base = [str(g) for g in gf.vertices["gid"].to_pylist()]
        known = set(base)
        extra = [s for s in (str(i) for i in new_ids) if s not in known]
        gid_strs = np.array(base + extra)
        n = len(gid_strs)
        order = np.argsort(gid_strs)
        skeys = gid_strs[order]
        svids = order.astype(np.int64)
        lookup = ("str", ray.put(skeys), ray.put(svids))
    elif gf is not None:
        n = max(gf.n, int(max(new_ids)) + 1 if new_ids else gf.n)
        gid_strs = np.array([str(i) for i in range(n)])
        lookup = ("dense", None, None)
    else:
        keys = np.array(new_ids)
        n = len(keys)
        gid_strs = keys.astype(str)
        lookup = ("sorted", ray.put(keys), None)

    def resolve(b: pa.Table) -> pa.Table:
        mode, kref, vref = lookup
        ids = b["_id"]
        if mode == "dense":
            vid = ids.combine_chunks().cast(pa.int64())
        elif mode == "sorted":
            keys = ray.get(kref)
            vid = pa.array(np.searchsorted(
                keys, ids.to_numpy(zero_copy_only=False)), pa.int64())
        else:
            skeys, svids = ray.get(kref), ray.get(vref)
            idx = np.searchsorted(
                skeys, np.asarray(ids.to_pylist(), dtype=skeys.dtype))
            vid = pa.array(svids[idx], pa.int64())
        out = {"vid": vid}
        for c in b.column_names:
            if c != "_id":
                out[c] = b[c]
        return pa.table(out)

    resolved = events.map_batches(resolve, batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()

    # ---- vertices dimension table: first (t, event_id) row per vid
    dim_cols = (["node_type"] if node_type_col else []) + metadata_cols

    if dim_cols:
        refs = route_fanout(resolved, ["vid"], _one_row_per_key, (
            ["vid"], [("t", "ascending"), ("event_id", "ascending")], "min"))
        dim_t = (pa.concat_tables(ray.get(refs)) if refs else resolve(
            canon(ds.schema().base_schema.empty_table()))) \
            .select(["vid"] + dim_cols).sort_by("vid")
        have = dim_t["vid"].to_numpy(zero_copy_only=False)
    else:
        have = np.empty(0, np.int64)
        dim_t = None
    vids = np.arange(n, dtype=np.int64)
    vcols = {"vid": pa.array(vids, pa.int64()),
             "gid": pa.array(gid_strs, pa.string())}
    for c in dim_cols:
        vals = pa.nulls(n, dim_t[c].type).to_pylist()
        arr = np.array(vals, dtype=object)
        arr[have] = np.array(dim_t[c].to_pylist(), dtype=object)
        vcols[c] = pa.array(arr.tolist(), dim_t[c].type)
    if node_type is not None and node_type_col is None:
        tp = np.array([None] * n, dtype=object)
        loaded = np.unique(resolved.unique("vid"))
        tp[loaded] = node_type
        vcols["node_type"] = pa.array(tp.tolist(), pa.string())
    vertices = pa.table(vcols)

    node_events = resolved.select_columns(["vid", "t", "event_id"]
                                          + prop_cols)
    edges = gf.edges if gf is not None else rd.from_arrow(pa.table({
        "src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64()),
        "t": pa.array([], pa.int64()),
        "event_id": pa.array([], pa.int64())}))
    out = GraphFrame(edges, n, vertices, node_events)
    if gf is not None:
        out.start, out.end = gf.start, gf.end
    return out


def load_nodes_from_parquet(path, time_col: str, id_col: str, **kw):
    import ray.data as rd
    cols = [time_col, id_col] + list(kw.get("prop_cols") or []) \
        + list(kw.get("metadata_cols") or [])
    if kw.get("node_type_col"):
        cols.append(kw["node_type_col"])
    if kw.get("event_id_col"):
        cols.append(kw["event_id_col"])
    return load_nodes(rd.read_parquet(path, columns=cols),
                      time_col, id_col, **kw)


@ray.remote
def _one_row_per_key(keys: list, sort_keys: list, pick: str,
                     *pieces: pa.Table) -> pa.Table:
    """One route_fanout partition → one row per ``keys`` group: the rows
    stably sorted by ``sort_keys`` (none: arrival order), then each
    group's first (``pick`` = "min") or last ("max") row."""
    t = pa.concat_tables(pieces, promote_options="default")
    if sort_keys:
        t = t.sort_by(sort_keys)
    i = t.append_column("__i", pa.array(np.arange(t.num_rows))) \
        .group_by(keys, use_threads=False).aggregate([("__i", pick)])
    return t.take(i["__i_" + pick])


def load_edge_props(ds, src_col: str, dst_col: str, metadata_cols,
                    layer_col: str | None = None, gf=None):
    """Edge metadata loader (load_edge_metadata_from_parquet,
    parquet_loaders.rs:252-295): constant properties keyed by
    (src, dst[, layer]) — one row per edge, LAST occurrence wins (the
    reference overwrites on re-add; 'last' = input row order).
    Returns the metadata Dataset; when ``gf`` is given it is also
    attached as ``gf_out.edge_meta``."""
    import ray.data as rd

    def canon(b: pa.Table) -> pa.Table:
        cols = {"src": b[src_col].combine_chunks().cast(pa.int64()),
                "dst": b[dst_col].combine_chunks().cast(pa.int64())}
        if layer_col:
            cols["layer"] = b[layer_col]
        for c in metadata_cols:
            cols[c] = b[c]
        return pa.table(cols)

    canonical = ds.map_batches(canon, batch_format="pyarrow",
                               zero_copy_batch=True).materialize()
    gkey = ["src", "dst"] + (["layer"] if layer_col else [])
    # route_fanout hands each task its pieces in materialized block
    # order and split_table keeps row order, so a partition's arrival
    # order is the input order: its last row per key is the last
    # occurrence.
    refs = route_fanout(canonical, gkey, _one_row_per_key,
                        (gkey, [], "max"))
    meta = rd.from_arrow_refs(refs) if refs else rd.from_arrow(
        canon(ds.schema().base_schema.empty_table()))
    if gf is not None:
        out = gf._derive()
        out.edge_meta = meta
        return out
    return meta


def load_edge_props_from_parquet(path, src_col: str, dst_col: str,
                                 metadata_cols, **kw):
    import ray.data as rd
    cols = [src_col, dst_col] + list(metadata_cols)
    if kw.get("layer_col"):
        cols.append(kw["layer_col"])
    return load_edge_props(rd.read_parquet(path, columns=cols),
                           src_col, dst_col, metadata_cols, **kw)


# ------------------------------------------------------- canonical parquet

RAP_COLUMNS = ["rap_time", "rap_secondary_index", "rap_src_vid",
               "rap_dst_vid", "rap_src_gid", "rap_dst_gid", "rap_layer"]


def to_parquet(gf: GraphFrame, path: str, row_group_size: int = 100_000):
    """Canonical graph encode (parquet_encoder/mod.rs:29-42 column layout,
    row-group 100k). One directory of edge-event files + one vertices file —
    resumable, partition-per-block."""
    import os

    import pyarrow.parquet as pq

    gids = None
    if gf.vertices is not None:
        # vid-column-aware lookup: a vertices table need not be
        # positionally dense (vid == row) — scatter gids into a
        # vid-indexed array so edge endpoints index correctly either way
        vcol = gf.vertices["vid"].to_numpy(zero_copy_only=False)
        gvals = gf.vertices["gid"].to_numpy(zero_copy_only=False)
        hi = int(vcol.max()) + 1 if len(vcol) else 0
        gids = np.empty(max(hi, gf.n), dtype=object)
        gids[vcol] = gvals

    def encode(b: pa.Table) -> pa.Table:
        s = b["src"].to_numpy(zero_copy_only=False)
        d = b["dst"].to_numpy(zero_copy_only=False)
        cols = {
            "rap_time": b["t"] if "t" in b.column_names else
            pa.array(np.zeros(b.num_rows, np.int64)),
            "rap_secondary_index": b["event_id"]
            if "event_id" in b.column_names else
            pa.array(np.arange(b.num_rows, dtype=np.int64)),
            "rap_src_vid": pa.array(s),
            "rap_dst_vid": pa.array(d),
        }
        if gids is not None:
            cols["rap_src_gid"] = pa.array(gids[s])
            cols["rap_dst_gid"] = pa.array(gids[d])
        cols["rap_layer"] = b["layer"] if "layer" in b.column_names else \
            pa.array(["_default"] * b.num_rows, pa.string())
        return pa.table(cols)

    (gf.edges.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True)
     .write_parquet(os.path.join(path, "edges"),
                    row_group_size=row_group_size))
    if gf.vertices is not None:
        pq.write_table(gf.vertices, os.path.join(path, "vertices.parquet"))


def from_parquet(path: str) -> GraphFrame:
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    edges = rd.read_parquet(os.path.join(path, "edges"))

    def decode(b: pa.Table) -> pa.Table:
        return pa.table({
            "src": b["rap_src_vid"], "dst": b["rap_dst_vid"],
            "t": b["rap_time"], "event_id": b["rap_secondary_index"],
            "layer": b["rap_layer"]})

    vertices = None
    n = 0
    vp = os.path.join(path, "vertices.parquet")
    if os.path.exists(vp):
        vertices = pq.read_table(vp)
        n = vertices.num_rows
    ds = edges.map_batches(decode, batch_format="pyarrow",
                           zero_copy_batch=True)
    if n == 0:
        mx = -1
        for blk in ds.select_columns(["src", "dst"]).iter_batches(
                batch_format="pyarrow"):
            if blk.num_rows:
                mx = max(mx, pc.max(blk["src"]).as_py(),
                         pc.max(blk["dst"]).as_py())
        n = mx + 1
    return GraphFrame(ds, n=n, vertices=vertices)


# --------------------------------------------------------------- interop

def to_networkx(gf: GraphFrame, directed: bool = True):
    """Materialized networkx export (GraphView.to_networkx, pyi:54-60).
    Driver-side by nature — test/interop scale only."""
    import networkx as nx
    g = nx.MultiDiGraph() if directed else nx.MultiGraph()
    if gf.vertices is not None:
        for vid, gid in zip(gf.vertices["vid"].to_pylist(),
                            gf.vertices["gid"].to_pylist()):
            g.add_node(vid, gid=gid)
    for b in gf.edges.iter_batches(batch_format="pyarrow"):
        cols = b.column_names
        for row in zip(b["src"].to_pylist(), b["dst"].to_pylist(),
                       b["t"].to_pylist() if "t" in cols else
                       [None] * b.num_rows):
            g.add_edge(row[0], row[1], t=row[2])
    return g


def to_df(gf: GraphFrame):
    return gf.edges.to_pandas()


def save_to_zip(gf: GraphFrame, path: str):
    """Zip snapshot of the canonical parquet layout (the reference's
    ``save_to_zip``, serialise/serialise.rs + graph_folder.rs — there a
    proto folder, here the engine's to_parquet directory zipped
    deflate-compressed). The heavy encode is the distributed to_parquet
    pass; zipping is driver-side file IO over the already-written
    fragments (metadata-scale, like the server's send_graph transport,
    query/server.py)."""
    import os
    import tempfile
    import zipfile

    with tempfile.TemporaryDirectory() as tmp:
        d = os.path.join(tmp, "graph")
        to_parquet(gf, d)
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as z:
            for root, _dirs, files in os.walk(d):
                for f in sorted(files):
                    full = os.path.join(root, f)
                    z.write(full, os.path.relpath(full, d))


def load_from_zip(path: str) -> GraphFrame:
    """Inverse of save_to_zip: extract the parquet folder and from_parquet
    it (serialise.rs load_from_zip equivalent)."""
    import tempfile
    import zipfile

    tmp = tempfile.mkdtemp(prefix="rap_zip_")
    with zipfile.ZipFile(path) as z:
        z.extractall(tmp)
    return from_parquet(tmp)


def import_graph(dst: GraphFrame, src: GraphFrame,
                 force: bool = False) -> GraphFrame:
    """Import every node and edge event of ``src`` into ``dst`` aligned by
    GID — the reference's import_nodes/import_edges surface
    (python/python/raphtory/__init__.pyi import_* family): entities that
    share a GID merge onto one vertex; ``force=False`` raises on a GID
    that exists in both (the reference's already-exists error), ``True``
    keeps ``dst``'s vertex row and unions the event histories.

    Scale shape: the combined gid vocabulary keeps dst's vids stable and
    appends new ones (no re-encode of dst); src's edge events remap
    through ONE broadcast O(n_src) vid→vid array inside a streaming
    map_batches — dst's Dataset is reused untouched and the result is a
    lazy union (no shuffle)."""
    if dst.vertices is None or src.vertices is None:
        raise ValueError("import_graph needs gid vertex tables both sides")
    dg = dst.vertices["gid"].to_numpy(zero_copy_only=False)
    dv = dst.vertices["vid"].to_numpy(zero_copy_only=False)
    sg = src.vertices["gid"].to_numpy(zero_copy_only=False)
    svid = src.vertices["vid"].to_numpy(zero_copy_only=False)
    overlap = np.isin(sg, dg)
    if overlap.any() and not force:
        raise ValueError(
            f"{int(overlap.sum())} node(s) already exist in the target "
            f"(e.g. {sg[overlap][:3].tolist()}); pass force=True to merge")
    # Resolution goes through the VID COLUMNS on both sides (ADVICE r4:
    # neither vertices table may be positionally dense — server
    # create_subgraph emits sparse tables): overlapping gids map to dst's
    # vid VALUES, new vids start past both max(dst vid) and dst.n, and
    # src edge endpoints resolve by src vid VALUE (sorted lookup), never
    # by row position.
    new_gids = sg[~overlap]
    base = max(int(dv.max(initial=-1)) + 1, dst.n)
    order = np.argsort(dg)
    remap_vals = np.empty(len(sg), np.int64)       # per src-vertex row
    if overlap.any():
        pos = np.searchsorted(dg[order], sg[overlap])
        remap_vals[overlap] = dv[order[pos]]
    remap_vals[~overlap] = base + np.arange(len(new_gids))
    so = np.argsort(svid)
    rref = ray.put((svid[so], remap_vals[so]))

    def rv(b: pa.Table, _r=rref) -> pa.Table:
        vid_sorted, m_sorted = ray.get(_r)
        cols = {}
        for c in b.column_names:
            if c in ("src", "dst"):
                v = b[c].to_numpy(zero_copy_only=False)
                pos = np.searchsorted(vid_sorted, v)
                pos_c = np.minimum(pos, max(len(vid_sorted) - 1, 0))
                if len(vid_sorted) == 0 or not (vid_sorted[pos_c] == v).all():
                    bad = v[vid_sorted[pos_c] != v][:3] \
                        if len(vid_sorted) else v[:3]
                    raise ValueError(
                        f"edge endpoint vid(s) {bad.tolist()} missing "
                        "from the source vertices table")
                cols[c] = pa.array(m_sorted[pos_c], pa.int64())
            else:
                cols[c] = b[c]
        return pa.table(cols)

    src_edges = src.edges.map_batches(rv, batch_format="pyarrow",
                                      zero_copy_batch=True)
    verts = dst.vertices
    if len(new_gids):
        extra_cols = {"vid": pa.array(np.arange(base, base + len(new_gids)),
                                      pa.int64()),
                      "gid": pa.array(new_gids)}
        for c in verts.column_names:
            if c not in extra_cols:
                sv = src.vertices[c].filter(pa.array(~overlap)) \
                    if c in src.vertices.column_names else \
                    pa.nulls(len(new_gids), verts[c].type)
                extra_cols[c] = sv
        verts = pa.concat_tables(
            [verts, pa.table({c: extra_cols[c]
                              for c in verts.column_names})])
    return GraphFrame(dst.edges.union(src_edges), base + len(new_gids),
                      verts)

