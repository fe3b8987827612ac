"""GraphFrame — the engine's graph handle: an edge-event Dataset + vertex
dimension table, with lazily-composed views.

Mirrors the reference's view algebra (SURVEY §1.4): a view never
materializes. A row-local view (``window``/``shrink_*``/``at``/``before``/
``after``, ``layer``/``exclude_layer``/``default_layer``/``valid_layers``,
``filter_exploded_edges``, ``subgraph``/``exclude_nodes``) returns a new
GraphFrame over the SAME base edges with one more pending per-block
``pa.Table -> pa.Table`` predicate. On a frame whose base is materialized
that is data, not a Dataset stage: ``BspGraph.from_graph`` applies the
predicates in one plain task per block and starts no Ray Data execution.
Otherwise (a lazy base, or any reader of ``edges``) the predicates become
ONE ``map_batches`` stage, built on first read of ``edges``. The
temporal model is the reference's event log: one row per
(src, dst, t, event_id[, layer, ...properties]) edge event
(timeindex.rs:28 EventTime = (t, event_id); half-open windows
time.rs:113-117).

Property model (round-2, Prop system parity — prop_enum.rs:141-157,
property_addition_ops.rs:18-121):
- temporal EDGE properties = extra columns on the edge-event Dataset (the
  event table IS the exploded form; an event row's property columns are
  that event's property values);
- NODE metadata = extra columns on the ``vertices`` dimension table
  (gid, node_type, ...);
- temporal NODE properties = the optional ``node_events`` Dataset
  (vid, t, event_id, ...columns).
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from raphtory_ray.core.exchange import (bucket, num_partitions, pair_key,
                                        returns, shuffle, split_table)
from raphtory_ray.graph.filter import FilterExpr


class GraphFrame:
    """edges: ray.data.Dataset with at least (src:int64, dst:int64) and
    optionally (t:int64, event_id:int64, layer:string, w:float64, + any
    temporal property columns). Assigning it sets the base Dataset;
    reading it gives the base with the pending predicates ``preds`` (a
    tuple of per-block filters, in view order) as one Dataset stage.
    n: number of vertices (dense vid space [0, n)).
    vertices: optional pyarrow.Table (vid:int64, gid:string, + metadata
    columns such as node_type).
    node_events: optional ray.data.Dataset (vid, t, event_id, + temporal
    node property columns).
    """

    def __init__(self, edges, n: int, vertices: pa.Table | None = None,
                 node_events=None):
        self.edges = edges     # the base: pending predicates start empty
        self.n = int(n)
        self.vertices = vertices
        self.node_events = node_events
        self.start = None      # window bounds when this is a windowed view
        self.end = None
        # GRAPH-level properties (property_addition_ops.rs graph arm):
        # temporal rows (t, event_id, name, value) — tiny, driver-resident —
        # and constant metadata
        self.graph_events: pa.Table | None = None
        self.graph_meta: dict = {}

    @property
    def edges(self):
        """The view's edge-event Dataset, built once on first read: the
        base Dataset plus ONE ``map_batches`` stage that applies every
        pending predicate in order (none when nothing is pending)."""
        if self._view is None:
            preds = self.preds
            self._view = self._base if not preds else self._base.map_batches(
                lambda b: _apply_preds(preds, b), batch_format="pyarrow",
                zero_copy_batch=True)
        return self._view

    @edges.setter
    def edges(self, ds) -> None:
        """A new base Dataset, with no pending predicates."""
        self._base, self.preds, self._view = ds, (), None

    def relation(self):
        """The view's edge events as a block relation (core/blocks.py).
        Over a materialized base it is the base's blocks with the pending
        predicates as one composed map, and starts no Ray Data execution;
        a lazy base (with its predicates) is materialized once."""
        from ray.data.dataset import MaterializedDataset

        from raphtory_ray.core.blocks import Relation
        if not isinstance(self._base, MaterializedDataset):
            return Relation.from_dataset(self.edges)
        rel = Relation.from_dataset(self._base)
        if not self.preds:
            return rel
        # the predicates filter rows and keep the columns
        return rel.map(functools.partial(_apply_preds, self.preds), rel.empty)

    def view_blocks(self):
        """(Arrow block refs of the view, their total rows) when this frame
        is pending views over materialized edge blocks, else None. One
        plain task per block applies the predicates, so no Ray Data
        execution starts."""
        from ray.data.dataset import MaterializedDataset
        if not self.preds or not isinstance(self._base, MaterializedDataset):
            return None
        rel = self.relation().blocks()
        return rel.refs, sum(rel.counts())

    def _derive(self, *preds, edges=None) -> "GraphFrame":
        """A frame with this one's bounds and properties over the same base
        edges and pending predicates plus ``preds`` — or, given ``edges``,
        over that Dataset alone."""
        g = GraphFrame(self._base if edges is None else edges, self.n,
                       self.vertices, self.node_events)
        if edges is None:
            g.preds = self.preds + preds
        g.start, g.end = self.start, self.end
        g.graph_events, g.graph_meta = self.graph_events, self.graph_meta
        return g

    # -------------------------------------------------- graph properties
    def add_properties(self, t: int, props: dict) -> "GraphFrame":
        """Append GRAPH-level temporal properties at time ``t``
        (property_addition_ops.rs:18-46 add_properties, graph arm).
        Returns a new frame (immutable-Dataset discipline); the rows are
        O(#updates) and driver-resident by design."""
        prev = self.graph_events
        eid = (prev.num_rows if prev is not None else 0)
        rows = pa.table({
            "t": pa.array([int(t)] * len(props), pa.int64()),
            "event_id": pa.array(range(eid, eid + len(props)), pa.int64()),
            "name": pa.array(list(props), pa.string()),
            "value": pa.array([str(v) for v in props.values()], pa.string()),
        })
        g = self._derive()
        g.graph_events = rows if prev is None \
            else pa.concat_tables([prev, rows])
        return g

    def add_metadata(self, props: dict) -> "GraphFrame":
        """Constant graph metadata (add_metadata, last write wins —
        update_metadata semantics)."""
        g = self._derive()
        g.graph_meta = {**self.graph_meta, **props}
        return g

    def graph_metadata(self, name: str | None = None):
        return self.graph_meta if name is None else self.graph_meta[name]

    def _graph_events_in_view(self) -> pa.Table | None:
        ge = self.graph_events
        if ge is None:
            return None
        if self.start is not None:
            ge = ge.filter(pc.greater_equal(ge["t"],
                                            pa.scalar(self.start, pa.int64())))
        if self.end is not None:
            ge = ge.filter(pc.less(ge["t"], pa.scalar(self.end, pa.int64())))
        return ge

    def graph_property_history(self, name: str) -> pa.Table:
        """(t, value) history of one graph temporal property, window-aware
        (reference Properties.temporal().get on the graph)."""
        ge = self._graph_events_in_view()
        if ge is None:
            return pa.table({"t": pa.array([], pa.int64()),
                             "value": pa.array([], pa.string())})
        ge = ge.filter(pc.equal(ge["name"], name))
        return ge.sort_by([("t", "ascending"),
                           ("event_id", "ascending")]).select(["t", "value"])

    def latest_graph_properties(self) -> dict:
        """name → latest value by (t, event_id) within the view."""
        ge = self._graph_events_in_view()
        if ge is None or ge.num_rows == 0:
            return {}
        ge = ge.sort_by([("t", "ascending"), ("event_id", "ascending")])
        return dict(zip(ge["name"].to_pylist(), ge["value"].to_pylist()))

    # ------------------------------------------------------------------ views
    def window(self, start: int | None, end: int | None,
               _report_requested: bool = True) -> "GraphFrame":
        """Events with start <= t < end (half-open, time.rs:113-117).
        Nested windows INTERSECT with the parent's bounds for event
        visibility (reference nested views never widen), but the REPORTED
        start/end are the requested bounds — the reference's window()
        replaces them (time.rs:245); only the shrink_* variants report
        the intersection."""
        lo = start if self.start is None else \
            (self.start if start is None else max(start, self.start))
        hi = end if self.end is None else \
            (self.end if end is None else min(end, self.end))

        def filt(b: pa.Table) -> pa.Table:
            m = None
            if lo is not None:
                m = pc.greater_equal(b["t"], pa.scalar(lo, pa.int64()))
            if hi is not None:
                m2 = pc.less(b["t"], pa.scalar(hi, pa.int64()))
                m = m2 if m is None else pc.and_(m, m2)
            return b if m is None else b.filter(m)

        g = self._derive(filt)
        if g.node_events is not None:
            # node-property events are window-filtered too
            # (test_history.py:35-38: windowed node history)
            g.node_events = g.node_events.map_batches(
                filt, batch_format="pyarrow", zero_copy_batch=True)
        # reference views expose their bounds (GraphView.start/end,
        # time.rs): window() REPORTS the requested bounds (falling back to
        # the parent's where unspecified), shrink_* the intersection
        if _report_requested:
            g.start = self.start if start is None else start
            g.end = self.end if end is None else end
        else:
            g.start, g.end = lo, hi
        return g

    def shrink_window(self, start: int, end: int) -> "GraphFrame":
        """Narrow both view bounds (GqlGraph::shrink_window,
        graph.rs:336-348) — like window() for event visibility, but the
        reported bounds are the INTERSECTION."""
        return self.window(start, end, _report_requested=False)

    def shrink_start(self, t: int) -> "GraphFrame":
        """Narrow only the start bound (graph.rs:350-361)."""
        return self.window(t, None, _report_requested=False)

    def shrink_end(self, t: int) -> "GraphFrame":
        """Narrow only the end bound (graph.rs:363-374)."""
        return self.window(None, t, _report_requested=False)

    def at(self, t: int) -> "GraphFrame":
        return self.window(t, t + 1)

    def before(self, t: int) -> "GraphFrame":
        return self.window(None, t)

    def after(self, t: int) -> "GraphFrame":
        return self.window(t + 1, None)

    def snapshot_at(self, t: int) -> "GraphFrame":
        """Event-graph snapshot = before(t+1) (time.rs:265-270; the
        PersistentGraphFrame overrides this with at(t))."""
        return self.before(t + 1)

    def snapshot_latest(self) -> "GraphFrame":
        lt = self.latest_time()
        return self.snapshot_at(lt if lt is not None
                                else np.iinfo(np.int64).min)

    def layer(self, layers: str | Sequence[str]) -> "GraphFrame":
        """Restrict to edge events of the given layer(s) (layer_graph.rs)."""
        if isinstance(layers, str):
            layers = [layers]
        lset = pa.array(list(layers), pa.string())
        want_default = self.DEFAULT_LAYER in set(layers)

        def filt(b: pa.Table) -> pa.Table:
            m = pc.is_in(b["layer"], value_set=lset)
            if want_default:
                # null layer rows ARE the default layer
                m = pc.or_(m, pc.is_null(b["layer"]))
            return b.filter(pc.fill_null(m, False))

        return self._derive(filt)

    # GraphView.layers(names) — multi-layer view; layer() already
    # accepts a Sequence, so the plural is the same entry point
    def layers(self, names: str | Sequence[str]) -> "GraphFrame":
        return self.layer(names)

    def exclude_layer(self, layers: str | Sequence[str]) -> "GraphFrame":
        """Restrict to edge events NOT in the given layer(s)
        (layer_graph.rs exclude_layers: complement layer set)."""
        if isinstance(layers, str):
            layers = [layers]
        lset = pa.array(list(layers), pa.string())

        def filt(b: pa.Table) -> pa.Table:
            hit = pc.is_in(b["layer"], value_set=lset)
            return b.filter(pc.invert(pc.fill_null(hit, False)))

        return self._derive(filt)

    exclude_layers = exclude_layer

    DEFAULT_LAYER = "_default"

    def default_layer(self) -> "GraphFrame":
        """Events of the unnamed default layer (layer id 0,
        layer_graph.rs default_layer): rows whose layer is null/'_default',
        or everything when the graph has no layer column."""
        if "layer" not in self._base.schema().names:
            return self._derive()

        name = self.DEFAULT_LAYER

        def filt(b: pa.Table) -> pa.Table:
            m = pc.or_kleene(pc.is_null(b["layer"]),
                             pc.equal(b["layer"], name))
            return b.filter(pc.fill_null(m, True))

        return self._derive(filt)

    def subgraph(self, vids) -> "GraphFrame":
        """Induced subgraph on a vertex set: keep events with both endpoints
        in the set (node_subgraph.rs). Membership is a broadcast boolean
        mask (O(n) bits), not a shuffle join."""
        mask = np.zeros(self.n, dtype=bool)
        mask[np.asarray(list(vids), dtype=np.int64)] = True

        def filt(b: pa.Table) -> pa.Table:
            s = b["src"].to_numpy(zero_copy_only=False)
            d = b["dst"].to_numpy(zero_copy_only=False)
            return b.filter(pa.array(mask[s] & mask[d]))

        return self._derive(filt)

    def exclude_nodes(self, vids) -> "GraphFrame":
        """Induced subgraph on the COMPLEMENT of the given vertex set
        (view/graph.rs:689-699 exclude_nodes → NodeSubgraph)."""
        keep = np.ones(self.n, dtype=bool)
        keep[np.asarray(list(vids), dtype=np.int64)] = False
        return self.subgraph(np.flatnonzero(keep))

    def subgraph_node_types(self, types: str | Sequence[str]) -> "GraphFrame":
        """Induced subgraph on nodes whose node_type metadata is in the
        given set (view/graph.rs:679-688 subgraph_node_types)."""
        assert self.vertices is not None, "no vertex dimension table"
        if isinstance(types, str):
            types = [types]
        tset = pa.array(list(types), pa.string())
        m = pc.fill_null(pc.is_in(self.vertices["node_type"],
                                  value_set=tset), False)
        vids = self.vertices["vid"].filter(m).to_numpy(zero_copy_only=False)
        return self.subgraph(vids)

    def node_types(self) -> list:
        """Distinct node_type values (pyi get_all_node_types); None-typed
        nodes are excluded, matching the reference's Option semantics."""
        if self.vertices is None or \
                "node_type" not in self.vertices.column_names:
            return []
        vals = pc.drop_null(pc.unique(self.vertices["node_type"]))
        return sorted(vals.to_pylist())

    def materialize(self) -> "GraphFrame":
        """Copy the composed view into a standalone frame
        (test_materialize.rs:66 contract: algorithms on the materialized
        graph equal algorithms on the view): all stacked filter stages run
        ONCE and the surviving events pin as object-store blocks, so
        chained-view workloads stop re-paying their filters. The vid space
        is kept (the reference keeps node identity too); window bounds
        carry over as plain metadata."""
        g = GraphFrame(self.edges.materialize(), self.n, self.vertices,
                       self.node_events.materialize()
                       if self.node_events is not None else None)
        g.start, g.end = self.start, self.end
        g.graph_events, g.graph_meta = self.graph_events, self.graph_meta
        return g

    def cached_view(self) -> "GraphFrame":
        """Cache the composed filter result (cached_view.rs:74-80: the
        reference caches a filter bitmask; the Dataset equivalent of that
        bitmask IS the materialized surviving-event block set)."""
        return self.materialize()

    # ------------------------------------------------------ property filters
    def filter_exploded_edges(self, f) -> "GraphFrame":
        """Per-EVENT property filter (exploded_edge_property_filter.rs):
        each edge event keeps/drops independently. ``f`` is a FilterExpr or
        a raw pyarrow.compute expression."""
        if isinstance(f, FilterExpr):
            def filt(b: pa.Table) -> pa.Table:
                return b.filter(f.mask(b))
        else:
            def filt(b: pa.Table) -> pa.Table:
                return b.filter(f)
        return self._derive(filt)

    def filter_edges(self, f, mode: str = "latest") -> "GraphFrame":
        """Per-EDGE property filter (edge_property_filtered_graph.rs): an
        edge passes if its property value matches, where the edge's value
        is taken from its LATEST event ("latest", reference default
        semantics — properties() on an edge resolves temporal props to the
        last value), or if ANY / ALL of its events match.

        Distributed: one explicit hash shuffle of the event table on
        (src, dst) — each partition reduces its edges' events, applies the
        mask, and emits only the passing edges' events. No driver-side key
        set. Raw pa.compute expressions keep the round-1 per-event behavior
        (legacy hook) — use FilterExpr for edge-level semantics."""
        if not isinstance(f, FilterExpr):
            return self.filter_exploded_edges(f)
        assert mode in ("latest", "any", "all")
        mat = self.edges.materialize()
        sch = mat.schema()
        schema = pa.schema(list(zip(sch.names, sch.types)))
        refs = mat.to_arrow_refs()
        P = num_partitions(mat.count())
        out = [_edgefilter_part.remote(f, mode, schema, *col)
               for col in shuffle(_edgefilter_split, refs, P, schema)]
        import ray.data as rd
        return self._derive(edges=rd.from_arrow_refs(out))

    def filter_nodes(self, f) -> "GraphFrame":
        """Node filter (node_filtered_graph.rs): evaluate the FilterExpr on
        the vertex dimension table (gid, node_type, metadata columns) and
        take the induced subgraph of passing vids."""
        assert self.vertices is not None, "no vertex dimension table"
        mask = f.mask(self.vertices) if isinstance(f, FilterExpr) else f
        vids = self.vertices["vid"].filter(mask).to_numpy(
            zero_copy_only=False)
        return self.subgraph(vids)

    # ------------------------------------------------------------ accessors
    def gids_for(self, vids: np.ndarray) -> pa.Array:
        assert self.vertices is not None, "no vertex dimension table"
        return pc.take(self.vertices["gid"], pa.array(vids, pa.int64()))

    def count_edges(self) -> int:
        """Number of distinct (src, dst) simple edges (adjacency uniqueness,
        adj.rs:60-69)."""
        from raphtory_ray.state.shards import BspGraph
        return BspGraph.from_graph(self).num_edges

    def count_temporal_edges(self) -> int:
        return self.edges.count()

    def earliest_time(self) -> int | None:
        """Smallest event time in the view (GraphView.earliest_time,
        time.rs) — a streaming Dataset min."""
        return self.edges.min("t")

    def latest_time(self) -> int | None:
        return self.edges.max("t")

    # --------------------------- GraphView convenience parity (pyi)

    def window_size(self) -> int | None:
        """end - start of the current window view (GraphView.window_size),
        None when unwindowed on either side."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def latest(self) -> "GraphFrame":
        """View of all events at the latest time (GraphView.latest)."""
        t = self.latest_time()
        return self.at(t) if t is not None else self

    def active_vids(self) -> np.ndarray:
        """Sorted vids touched by any edge/node event IN THE VIEW — one
        streaming pass (the windowed node universe, graph.rs windowed
        count_nodes semantics). Shared by count_nodes and the GraphQL
        executor's node_set."""
        def ends(b: pa.Table) -> pa.Table:
            s = b["src"].to_numpy(zero_copy_only=False)
            d = b["dst"].to_numpy(zero_copy_only=False)
            return pa.table({"v": pa.array(np.unique(np.r_[s, d]),
                                           pa.int64())})

        parts = self.edges.map_batches(ends, batch_format="pyarrow",
                                       zero_copy_batch=True)
        chunks = [b["v"].to_numpy()
                  for b in parts.iter_batches(batch_format="pyarrow")]
        if self.node_events is not None:
            nv = self.node_events.select_columns(["vid"])
            chunks += [b["vid"].to_numpy(zero_copy_only=False)
                       for b in nv.iter_batches(batch_format="pyarrow")]
        return np.unique(np.concatenate(chunks)) if chunks \
            else np.empty(0, np.int64)

    def count_nodes(self) -> int:
        """Node count for the view: whole graph → n; under a time window
        → event-ACTIVE nodes only."""
        if self.start is None and self.end is None:
            return self.n
        return int(len(self.active_vids()))

    def has_node(self, name) -> bool:
        """Membership by gid string OR internal vid (GraphView.has_node
        accepts either id or name)."""
        if self.vertices is not None and bool(
                pc.any(pc.equal(self.vertices["gid"],
                                str(name))).as_py() or False):
            return True
        # vid fallback: always for int inputs; for digit strings only
        # when there is no gid namespace to collide with
        if isinstance(name, str) and self.vertices is not None:
            return False
        try:
            return 0 <= int(name) < self.n
        except (TypeError, ValueError):
            return False

    def has_edge(self, src: int, dst: int, layer: str | None = None) \
            -> bool:
        """Any temporal event for (src, dst[, layer]) in the view — one
        streaming pass, per-block vectorized."""
        def probe(b: pa.Table) -> pa.Table:
            m = pc.and_(pc.equal(b["src"], src), pc.equal(b["dst"], dst))
            if layer is not None and "layer" in b.column_names:
                m = pc.and_(m, pc.equal(b["layer"], layer))
            n = pc.sum(m.cast(pa.int64())).as_py() or 0
            return pa.table({"hit": pa.array([n], pa.int64())})

        hits = self.edges.map_batches(probe, batch_format="pyarrow",
                                      zero_copy_batch=True)
        return (hits.sum("hit") or 0) > 0

    def has_layer(self, name: str) -> bool:
        return name in self.unique_layers()

    def valid_layers(self, names: str | Sequence[str]) -> "GraphFrame":
        """layers() that IGNORES unknown names (GraphView.valid_layers)
        instead of erroring; zero valid names → an EMPTY-layer view (no
        events), not the whole graph."""
        if isinstance(names, str):
            names = [names]
        known = set(self.unique_layers())
        keep = [x for x in names if x in known]
        if keep:
            return self.layer(keep)
        return self._derive(lambda b: b.slice(0, 0))

    def exclude_valid_layer(self, names: str | Sequence[str]) \
            -> "GraphFrame":
        if isinstance(names, str):
            names = [names]
        known = set(self.unique_layers())
        drop = [x for x in names if x in known]
        return self.exclude_layer(drop) if drop else self

    exclude_valid_layers = exclude_valid_layer

    def find_nodes(self, properties_dict: dict) -> pa.Table:
        """Nodes whose metadata matches every (name, value) pair
        (GraphView.find_nodes) — rows of the vertices table."""
        if self.vertices is None:
            return pa.table({"vid": pa.array([], pa.int64())})
        m = None
        for k, v in properties_dict.items():
            mm = pc.equal(self.vertices[k], v)
            m = mm if m is None else pc.and_(m, mm)
        return self.vertices.filter(pc.fill_null(m, False)) \
            if m is not None else self.vertices

    def find_edges(self, properties_dict: dict):
        """Edge events whose property columns match every (name, value)
        pair (GraphView.find_edges) — a streaming filtered Dataset."""
        def filt(b: pa.Table) -> pa.Table:
            m = None
            for k, v in properties_dict.items():
                mm = pc.equal(b[k], v)
                m = mm if m is None else pc.and_(m, mm)
            return b.filter(pc.fill_null(m, True if m is None else False)) \
                if m is not None else b

        return self.edges.map_batches(filt, batch_format="pyarrow",
                                      zero_copy_batch=True)

    def filter(self, f) -> "GraphFrame":
        """Apply a FilterExpr view (GraphView.filter): routed to the node
        algebra when every leaf names a vertices-table column, else to
        the latest-event edge algebra (the two typed entry points
        filter_nodes / filter_edges remain the explicit API)."""
        names = _filter_leaf_names(f)
        vcols = set(self.vertices.column_names) \
            if self.vertices is not None else set()
        if names and names <= vcols:
            return self.filter_nodes(f)
        return self.filter_edges(f)

    def vectorise(self, *args, **kwargs):
        """VectorisedGraph over this view (GraphView.vectorise)."""
        from raphtory_ray.data.vectors import vectorise as _v
        return _v(self, *args, **kwargs)

    def to_networkx(self, directed: bool = True):
        from raphtory_ray.sources.loaders import to_networkx as _nx
        return _nx(self, directed)

    def materialize_at(self, path) -> "GraphFrame":
        """Materialize the view into a parquet folder on disk
        (GraphView.materialize_at) and return a view reading from it —
        partitioned write, resumable reload."""
        import os
        import shutil

        import ray.data as rd
        path = str(path)
        os.makedirs(path, exist_ok=True)
        # overwrite semantics: clear stale part files so a re-run at the
        # same path replaces the snapshot instead of doubling every row
        for sub in ("edges", "node_events"):
            if os.path.isdir(os.path.join(path, sub)):
                shutil.rmtree(os.path.join(path, sub))
        self.edges.write_parquet(os.path.join(path, "edges"))
        if self.vertices is not None:
            import pyarrow.parquet as pq
            pq.write_table(self.vertices,
                           os.path.join(path, "vertices.parquet"))
        if self.node_events is not None:
            self.node_events.write_parquet(
                os.path.join(path, "node_events"))
        g = GraphFrame(
            rd.read_parquet(os.path.join(path, "edges")), self.n,
            self.vertices,
            rd.read_parquet(os.path.join(path, "node_events"))
            if self.node_events is not None else None)
        g.graph_events, g.graph_meta = self.graph_events, self.graph_meta
        return g

    def node_earliest_latest(self) -> tuple[np.ndarray, np.ndarray]:
        """(earliest, latest) event time per vid, over events touching the
        node as either endpoint (node.rs:66-238 history bounds). Per-block
        partials inside map_batches; O(V) driver combine."""
        INT64_MAX = np.iinfo(np.int64).max
        n = self.n

        def partial(b: pa.Table) -> pa.Table:
            s = b["src"].to_numpy(zero_copy_only=False)
            d = b["dst"].to_numpy(zero_copy_only=False)
            t = b["t"].to_numpy(zero_copy_only=False)
            lo = np.full(n, INT64_MAX, dtype=np.int64)
            hi = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
            np.minimum.at(lo, s, t)
            np.minimum.at(lo, d, t)
            np.maximum.at(hi, s, t)
            np.maximum.at(hi, d, t)
            return pa.table({"lo": pa.array(lo), "hi": pa.array(hi)})

        lo = np.full(n, INT64_MAX, dtype=np.int64)
        hi = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        for b in (self.edges.select_columns(["src", "dst", "t"])
                  .map_batches(partial, batch_format="pyarrow",
                               zero_copy_batch=True)
                  .iter_batches(batch_format="pyarrow")):
            np.minimum(lo, b["lo"].to_numpy(zero_copy_only=False), out=lo)
            np.maximum(hi, b["hi"].to_numpy(zero_copy_only=False), out=hi)
        return lo, hi

    def node_history(self, vid: int) -> np.ndarray:
        """Sorted event times touching the node (node.rs history()):
        incident edge events PLUS temporal node-property updates — the
        reference's history multiset counts both (test_history.py:30-42,
        same timestamp appears once per event)."""
        def filt(b: pa.Table) -> pa.Table:
            s = b["src"].to_numpy(zero_copy_only=False)
            d = b["dst"].to_numpy(zero_copy_only=False)
            return b.select(["t"]).filter(pa.array((s == vid) | (d == vid)))

        ts = [t["t"].to_numpy(zero_copy_only=False)
              for t in self.edges.map_batches(filt, batch_format="pyarrow",
                                              zero_copy_batch=True)
              .iter_batches(batch_format="pyarrow") if t.num_rows]
        if self.node_events is not None:
            def nfilt(b: pa.Table) -> pa.Table:
                v = b["vid"].to_numpy(zero_copy_only=False)
                return b.select(["t"]).filter(pa.array(v == vid))

            ts += [t["t"].to_numpy(zero_copy_only=False)
                   for t in self.node_events.map_batches(
                       nfilt, batch_format="pyarrow", zero_copy_batch=True)
                   .iter_batches(batch_format="pyarrow") if t.num_rows]
        return np.sort(np.concatenate(ts)) if ts else np.empty(0, np.int64)

    def edge_history(self, src: int, dst: int) -> np.ndarray:
        """Sorted event times of one edge (edge.rs history())."""
        def filt(b: pa.Table) -> pa.Table:
            s = b["src"].to_numpy(zero_copy_only=False)
            d = b["dst"].to_numpy(zero_copy_only=False)
            return b.select(["t"]).filter(pa.array((s == src) & (d == dst)))

        ts = [t["t"].to_numpy(zero_copy_only=False)
              for t in self.edges.map_batches(filt, batch_format="pyarrow",
                                              zero_copy_batch=True)
              .iter_batches(batch_format="pyarrow") if t.num_rows]
        return np.sort(np.concatenate(ts)) if ts else np.empty(0, np.int64)

    def is_active(self, vid: int) -> bool:
        """Does the node have any event in this view (node.rs is_active)."""
        return len(self.node_history(vid)) > 0

    def explode(self):
        """The exploded edge view IS the event Dataset (edge.rs explode():
        one row per (edge, t, layer) event — exactly the storage model)."""
        return self.edges

    def explode_layers(self) -> dict:
        """One GraphFrame per layer (edge.rs explode_layers()); null-layer
        rows surface under the '_default' key via default_layer()."""
        return {lay: (self.default_layer() if lay == self.DEFAULT_LAYER
                      else self.layer(lay))
                for lay in self.unique_layers()}

    def unique_layers(self) -> list[str]:
        """Sorted distinct layer names (GraphViewOps.unique_layers);
        null layer values read as '_default', and a graph with no layer
        column has exactly ['_default']. The single source of the
        distinct-layer scan (explode_layers and the GraphQL resolver
        delegate here)."""
        if "layer" not in self.edges.schema().names:
            return [self.DEFAULT_LAYER]
        layers: set = set()
        for b in (self.edges.select_columns(["layer"])
                  .iter_batches(batch_format="pyarrow")):
            layers.update(pc.unique(b["layer"].combine_chunks())
                          .to_pylist())
        if None in layers:
            layers.discard(None)
            layers.add(self.DEFAULT_LAYER)
        return sorted(layers)

    # ----------------------------------------------------- node properties
    def node_metadata(self, name: str) -> pa.Array:
        """Constant node property column (metadata() accessor)."""
        assert self.vertices is not None and name in self.vertices.column_names
        return self.vertices[name]

    def node_property_history(self, name: str, vid: int) -> pa.Table:
        """(t, value) history of a temporal node property
        (properties().temporal() accessor)."""
        assert self.node_events is not None, "no temporal node properties"

        def filt(b: pa.Table) -> pa.Table:
            v = b["vid"].to_numpy(zero_copy_only=False)
            return b.select(["t", name]).filter(pa.array(v == vid))

        parts = [t for t in self.node_events.map_batches(
            filt, batch_format="pyarrow", zero_copy_batch=True)
            .iter_batches(batch_format="pyarrow") if t.num_rows]
        if not parts:
            return pa.table({"t": pa.array([], pa.int64()),
                             name: pa.array([], pa.string())})
        out = pa.concat_tables(parts)
        return out.sort_by("t")

    def latest_node_properties(self) -> pa.Table:
        """Per-vid latest value of every temporal node property column —
        one groupby-free pass (sort within partitions after an explicit
        hash shuffle is unnecessary here: per-block keep-latest partials
        then a driver keep-latest merge, O(V) driver)."""
        assert self.node_events is not None

        def partial(b: pa.Table) -> pa.Table:
            v = b["vid"].to_numpy(zero_copy_only=False)
            t = b["t"].to_numpy(zero_copy_only=False)
            e = b["event_id"].to_numpy(zero_copy_only=False) \
                if "event_id" in b.column_names else np.zeros(len(v), np.int64)
            order = np.lexsort((e, t, v))
            v_s = v[order]
            last = np.r_[v_s[1:] != v_s[:-1], True]
            return b.take(pa.array(order[last]))

        parts = [t for t in self.node_events.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True)
            .iter_batches(batch_format="pyarrow") if t.num_rows]
        if not parts:
            return pa.table({"vid": pa.array([], pa.int64())})
        allp = pa.concat_tables(parts)
        v = allp["vid"].to_numpy(zero_copy_only=False)
        t = allp["t"].to_numpy(zero_copy_only=False)
        e = allp["event_id"].to_numpy(zero_copy_only=False) \
            if "event_id" in allp.column_names else np.zeros(len(v), np.int64)
        order = np.lexsort((e, t, v))
        v_s = v[order]
        last = np.r_[v_s[1:] != v_s[:-1], True]
        return allp.take(pa.array(order[last]))


def _apply_preds(preds: tuple, block: pa.Table) -> pa.Table:
    """A block through a frame's pending view predicates, in order."""
    for p in preds:
        block = p(block)
    return block


def _filter_leaf_names(f: FilterExpr) -> set:
    """Column/property names referenced by a FilterExpr's leaves."""
    if f.kind == "leaf":
        name = f.leaf[1]
        return {name} if name is not None else set()
    return set().union(*[_filter_leaf_names(c) for c in f.children]) \
        if f.children else set()


# ------------------------------------------------- edge-level filter tasks

@ray.remote
def _edgefilter_split(block: pa.Table, P: int, schema: pa.Schema):
    """Route edge events by hash(src, dst) so each edge's full event
    history meets in one partition. Degenerate (zero-row / schema-less)
    blocks — e.g. from empty groupby partitions — yield empty slices of
    the unified schema."""
    if block.num_rows == 0 or "src" not in block.column_names:
        return returns([schema.empty_table()] * P)
    s = block["src"].to_numpy(zero_copy_only=False)
    d = block["dst"].to_numpy(zero_copy_only=False)
    return returns(split_table(block, bucket(pair_key(s, d), P), P))


@ray.remote
def _edgefilter_part(f: FilterExpr, mode: str, schema: pa.Schema,
                     *pieces: pa.Table) -> pa.Table:
    """One (src,dst) partition: group events per edge (+layer if present),
    resolve the filter at edge level (latest / any / all), emit only the
    passing edges' events."""
    good = [t for t in pieces if t.num_rows]
    if not good:
        return schema.empty_table()
    tbl = pa.concat_tables(good)
    s = tbl["src"].to_numpy(zero_copy_only=False)
    d = tbl["dst"].to_numpy(zero_copy_only=False)
    t = tbl["t"].to_numpy(zero_copy_only=False) \
        if "t" in tbl.column_names else np.zeros(len(s), np.int64)
    e = tbl["event_id"].to_numpy(zero_copy_only=False) \
        if "event_id" in tbl.column_names else np.zeros(len(s), np.int64)
    if "layer" in tbl.column_names:
        lay = pc.dictionary_encode(tbl["layer"].combine_chunks())\
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        lay = np.zeros(len(s), np.int64)
    order = np.lexsort((e, t, lay, d, s))
    key_chg = np.r_[True, (s[order][1:] != s[order][:-1])
                    | (d[order][1:] != d[order][:-1])
                    | (lay[order][1:] != lay[order][:-1])]
    gidx = np.cumsum(key_chg) - 1
    row_mask = f.mask(tbl).to_numpy(zero_copy_only=False)[order]
    ngroups = int(gidx[-1]) + 1 if len(gidx) else 0
    if mode == "latest":
        last = np.r_[key_chg[1:], True]
        edge_pass = np.zeros(ngroups, dtype=bool)
        edge_pass[gidx[last]] = row_mask[last]
    elif mode == "any":
        edge_pass = np.zeros(ngroups, dtype=bool)
        np.logical_or.at(edge_pass, gidx, row_mask)
    else:                                   # all
        edge_pass = np.ones(ngroups, dtype=bool)
        np.logical_and.at(edge_pass, gidx, row_mask)
    keep = edge_pass[gidx]
    return tbl.take(pa.array(order[keep]))
