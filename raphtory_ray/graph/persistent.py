"""PersistentGraph — deletion semantics over the event log.

Reference: db/graph/views/deletion_graph.rs:34-41 (an edge is active from
addition until explicit deletion; a windowed view includes an edge if it is
active at any point in the window; if the last event at the start of the
window (by event id) is a deletion, the edge is NOT active at the start even
with simultaneous additions) and the behavioural contract of
python/tests/test_base_install/test_graphdb/test_persistent_graph.py.

Model: the event Dataset carries op ∈ {0=add, 1=delete} (+ optional layer).
One distributed hash shuffle on (src, dst, layer) reduces the log to two
co-partitioned interval sets per partition:

- RAW intervals (explode()): one row per ADDITION event,
  [t_add, t_next_event) — next event of ANY kind in the same layer, open
  intervals surface latest = the graph's latest time
  (test_overlapping_times / test_same_time_op);
- LIVE intervals (window semantics): events first reduced to their per-t
  FINAL op (last event id at each t wins — deletion-last kills the instant,
  deletion_graph.rs:37-39), then one row per surviving addition with
  tb = next surviving event's t (sentinel i64::MAX when open) and
  del_next = whether that closing event is a deletion.

A view (window / at / before / after / valid / layer) is bounds + flags over
the SAME partitioned interval refs — nothing is recomputed or reshuffled;
counts are per-partition vectorized filters combined on the driver (O(P)).
Inclusion rule in [s, e): ta < e AND tb > s, which reproduces every
boundary case in the reference test suite (at/before/after/window
boundaries, same-time add+delete ordering).

valid(): a layer is valid in a view ending at e iff its LAST live interval
starting before e is not deletion-closed before e; an edge is valid iff ≥1
of its layers is (test_basic_valid / test_properties_valid).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from raphtory_ray.core.exchange import (bucket, num_partitions, pair_key,
                                        returns, shuffle, split)

_OPEN = np.iinfo(np.int64).max
_NEG = np.iinfo(np.int64).min

ADD = 0
DELETE = 1


def _np(col):
    return col.to_numpy(zero_copy_only=False)


@ray.remote
def _psplit(block: pa.Table, P: int):
    """Route events by hash(src, dst, layer-code); transports numpy."""
    if block.num_rows == 0 or "src" not in block.column_names:
        z = np.empty(0, np.int64)
        return returns([(z, z, z, z, z, np.empty(0, object))] * P)
    s = _np(block["src"]).astype(np.int64)
    d = _np(block["dst"]).astype(np.int64)
    t = _np(block["t"]).astype(np.int64)
    eid = _np(block["event_id"]).astype(np.int64) \
        if "event_id" in block.column_names else np.arange(len(s))
    op = _np(block["op"]).astype(np.int64) \
        if "op" in block.column_names else np.zeros(len(s), np.int64)
    lay = np.asarray(block["layer"].to_pylist(), dtype=object) \
        if "layer" in block.column_names else np.full(len(s), "_default",
                                                      dtype=object)
    # partition by (src, dst) ONLY: all layers of an edge co-locate, so
    # per-partition distinct-pair sets are globally disjoint (counts sum)
    # and per-edge validity resolves inside one task
    return returns(split(bucket(pair_key(s, d), P), P,
                         s, d, t, eid, op, lay))


@ray.remote
def _pintervals(*pieces):
    """One (src,dst,layer) partition → (raw, live) interval tables."""
    s = np.concatenate([p[0] for p in pieces])
    empty = pa.table({
        "src": pa.array([], pa.int64()), "dst": pa.array([], pa.int64()),
        "layer": pa.array([], pa.string()),
        "ta": pa.array([], pa.int64()), "tb": pa.array([], pa.int64()),
        "del_next": pa.array([], pa.bool_())})
    if len(s) == 0:
        return empty, empty
    d = np.concatenate([p[1] for p in pieces])
    t = np.concatenate([p[2] for p in pieces])
    eid = np.concatenate([p[3] for p in pieces])
    op = np.concatenate([p[4] for p in pieces])
    lay = np.concatenate([p[5] for p in pieces])
    lcode, linv = np.unique(lay.astype(str), return_inverse=True)
    order = np.lexsort((eid, t, linv, d, s))
    s, d, t, op, linv = s[order], d[order], t[order], op[order], linv[order]
    grp_chg = np.r_[True, (s[1:] != s[:-1]) | (d[1:] != d[:-1])
                    | (linv[1:] != linv[:-1])]

    def intervals(mask_keep: np.ndarray, markers: bool = False) -> pa.Table:
        ss, dd, tt, oo, ll = (s[mask_keep], d[mask_keep], t[mask_keep],
                              op[mask_keep], linv[mask_keep])
        gc = np.r_[True, (ss[1:] != ss[:-1]) | (dd[1:] != dd[:-1])
                   | (ll[1:] != ll[:-1])]
        nxt_t = np.r_[tt[1:], _OPEN]
        nxt_op = np.r_[oo[1:], ADD]
        last = np.r_[gc[1:], True]
        nxt_t[last] = _OPEN
        nxt_op[last] = ADD
        is_add = oo == ADD
        cols = {"src": ss[is_add], "dst": dd[is_add],
                "lay": ll[is_add], "ta": tt[is_add], "tb": nxt_t[is_add],
                "dn": (nxt_t[is_add] != _OPEN) & (nxt_op[is_add] == DELETE)}
        if markers:
            # delete-only (hanging-deletion) groups still define the edge
            # universe (test_hanging_edges count_edges==1): emit one
            # zero-length MARKER row (ta=tb=_NEG) per addition-free group
            gi = np.cumsum(gc) - 1
            ng = int(gi[-1]) + 1 if len(gi) else 0
            has_add = np.zeros(ng, dtype=bool)
            has_add[gi[is_add]] = True
            first = np.flatnonzero(gc)
            mk = first[~has_add[gi[first]]]
            if len(mk):
                neg = np.full(len(mk), _NEG, np.int64)
                cols = {"src": np.concatenate([cols["src"], ss[mk]]),
                        "dst": np.concatenate([cols["dst"], dd[mk]]),
                        "lay": np.concatenate([cols["lay"], ll[mk]]),
                        "ta": np.concatenate([cols["ta"], neg]),
                        "tb": np.concatenate([cols["tb"], neg]),
                        "dn": np.concatenate([cols["dn"],
                                              np.zeros(len(mk), bool)])}
        return pa.table({
            "src": pa.array(cols["src"]), "dst": pa.array(cols["dst"]),
            "layer": pa.array(lcode[cols["lay"]], pa.string()),
            "ta": pa.array(cols["ta"]), "tb": pa.array(cols["tb"]),
            "del_next": pa.array(cols["dn"])})

    raw = intervals(np.ones(len(s), dtype=bool), markers=True)
    # per-t final: keep the last event id at each (edge, layer, t)
    t_chg = grp_chg | np.r_[True, t[1:] != t[:-1]]
    final = np.r_[t_chg[1:], True]
    live = intervals(final)
    return raw, live


class PersistentGraphFrame:
    """Persistent (deletion-aware) graph handle.

    events: Dataset of (src, dst, t, event_id, op[, layer]); n: vid space.
    Construction runs the single interval-building shuffle; all views share
    the resulting partitioned refs."""

    def __init__(self, events, n: int, vertices=None, _parts=None,
                 _bounds=(None, None), _valid=False, _layers=None,
                 _times=None):
        self.n = int(n)
        self.events = events
        self.vertices = vertices   # optional dimension table (vid, gid, ...)
        if _parts is None:
            mat = events.materialize()
            refs = mat.to_arrow_refs()
            P = num_partitions(mat.count())
            both = [_pintervals.options(num_returns=2).remote(*col)
                    for col in shuffle(_psplit, refs, P)]
            _parts = ([b[0] for b in both], [b[1] for b in both])
        self._raw_refs, self._live_refs = _parts
        self.start, self.end = _bounds
        self._valid = _valid
        self._layers = _layers
        self._times = _times          # cached (earliest, latest)

    @property
    def edges(self):
        """Event Dataset alias — lets the WindowSet helpers
        (algorithms.extra.rolling/expanding) and other Dataset-facing code
        drive persistent views unchanged."""
        return self.events

    # ------------------------------------------------------------- views
    def _derive(self, bounds=None, valid=None, layers=None):
        g = PersistentGraphFrame(
            self.events, self.n, vertices=self.vertices,
            _parts=(self._raw_refs, self._live_refs),
            _bounds=bounds if bounds is not None else (self.start, self.end),
            _valid=self._valid if valid is None else valid,
            _layers=self._layers if layers is None else layers,
            _times=self._times)
        return g

    def window(self, start, end,
               _report_requested: bool = True) -> "PersistentGraphFrame":
        # persistent windows intersect for visibility; the persistent
        # view's bounds drive deletion-interval clipping, so the reported
        # bounds stay the intersection regardless (valid_window semantics)
        lo = start if self.start is None else \
            (self.start if start is None else max(start, self.start))
        hi = end if self.end is None else \
            (self.end if end is None else min(end, self.end))
        return self._derive(bounds=(lo, hi))

    def at(self, t: int) -> "PersistentGraphFrame":
        return self.window(t, t + 1)

    def before(self, t: int) -> "PersistentGraphFrame":
        return self.window(None, t)

    def after(self, t: int) -> "PersistentGraphFrame":
        return self.window(t + 1, None)

    def snapshot_at(self, t: int) -> "PersistentGraphFrame":
        """PersistentGraph semantics: at(t) (time.rs:265-270)."""
        return self.at(t)

    def snapshot_latest(self) -> "PersistentGraphFrame":
        lt = self.latest_time()
        return self.snapshot_at(lt if lt is not None else _NEG)

    def valid(self) -> "PersistentGraphFrame":
        """Drop deleted layers: keep only layers whose last live interval
        (before the view end) is not deletion-closed inside the view."""
        return self._derive(valid=True)

    def layer(self, layers) -> "PersistentGraphFrame":
        if isinstance(layers, str):
            layers = [layers]
        return self._derive(layers=tuple(layers))

    # --------------------------------------------------------- evaluation
    def _sel(self):
        s = _NEG if self.start is None else self.start
        e = _OPEN if self.end is None else self.end
        return s, e, self._valid, self._layers

    def count_edges(self) -> int:
        """Distinct (src, dst) present in the view. Unwindowed, non-valid
        views count every edge ever referenced — including hanging
        deletions (test_hanging_edges)."""
        s, e, vld, lay = self._sel()
        if self.start is None and self.end is None and not vld:
            parts = ray.get([_edge_universe.remote(r, lay)
                             for r in self._raw_refs])
        else:
            parts = ray.get([_active_pairs.remote(r, s, e, vld, lay)
                             for r in self._live_refs])
        tot = 0
        for p in parts:
            tot += len(p)
        return tot

    def count_nodes(self) -> int:
        s, e, vld, lay = self._sel()
        if self.start is None and self.end is None and not vld:
            parts = ray.get([_edge_universe.remote(r, lay)
                             for r in self._raw_refs])
        else:
            parts = ray.get([_active_pairs.remote(r, s, e, vld, lay)
                             for r in self._live_refs])
        nodes = set()
        for p in parts:
            for a, b in p:
                nodes.add(a)
                nodes.add(b)
        return len(nodes)

    def to_graph_frame(self):
        """The view's ACTIVE simple edges as a GraphFrame — runs every
        BspGraph algorithm on a persistent snapshot (the reference runs
        algorithms on any view). Built from per-partition task outputs via
        from_arrow_refs — no driver pull of the edge set."""
        import ray.data as rd
        from raphtory_ray.graph.graph_frame import GraphFrame
        s, e, vld, lay = self._sel()
        refs = [_active_pairs_tbl.remote(r, s, e, vld, lay)
                for r in self._live_refs]
        return GraphFrame(rd.from_arrow_refs(refs), self.n,
                          vertices=self.vertices)

    def edges_table(self) -> pa.Table:
        """Distinct (src, dst) pairs included in the view, sorted."""
        s, e, vld, lay = self._sel()
        parts = ray.get([_active_pairs.remote(r, s, e, vld, lay)
                         for r in self._live_refs])
        pairs = sorted(p for part in parts for p in part)
        return pa.table({
            "src": pa.array([p[0] for p in pairs], pa.int64()),
            "dst": pa.array([p[1] for p in pairs], pa.int64())})

    def count_temporal_edges(self) -> int:
        """Live intervals intersecting the view (count of exploded edges
        under window semantics, test_same_time_op)."""
        s, e, vld, lay = self._sel()
        return int(sum(ray.get([_interval_count.remote(r, s, e, vld, lay)
                                for r in self._live_refs])))

    def explode(self) -> pa.Table:
        """Raw (per-addition) intervals (earliest, latest); open intervals
        surface latest = graph latest time. Sorted by (src, dst, layer,
        earliest) for determinism."""
        lt = self.latest_time()
        s, e, _v, lay = self._sel()
        tabs = [t for t in ray.get([_explode_part.remote(r, s, e, lay)
                                    for r in self._raw_refs])
                if t.num_rows]
        if not tabs:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64()),
                             "layer": pa.array([], pa.string()),
                             "earliest_time": pa.array([], pa.int64()),
                             "latest_time": pa.array([], pa.int64())})
        out = pa.concat_tables(tabs)
        late = out["latest_time"].to_numpy(zero_copy_only=False).copy()
        late[late == _OPEN] = lt if lt is not None else _NEG
        out = out.set_column(out.schema.get_field_index("latest_time"),
                             "latest_time", pa.array(late))
        return out.sort_by([("src", "ascending"), ("dst", "ascending"),
                            ("layer", "ascending"),
                            ("earliest_time", "ascending")])

    def edge_is_valid(self, src: int, dst: int) -> bool:
        s, e, _v, lay = self._sel()
        return bool(any(ray.get([_pair_valid.remote(r, src, dst, e, lay)
                                 for r in self._live_refs])))

    def edge_is_deleted(self, src: int, dst: int) -> bool:
        """Deleted = the edge exists but NO layer is valid
        (test_properties_valid is_deleted)."""
        s, e, _v, lay = self._sel()
        exists = any(len(p) for p in ray.get(
            [_edge_universe.remote(r, lay, src, dst)
             for r in self._raw_refs]))
        return bool(exists and not self.edge_is_valid(src, dst))

    def earliest_time(self):
        self._fill_times()
        return self._times[0]

    def latest_time(self):
        self._fill_times()
        return self._times[1]

    def _fill_times(self):
        if self._times is None:
            mn = self.events.min("t")
            mx = self.events.max("t")
            self._times = (mn, mx)

    def event_graph(self):
        """Addition events as a plain GraphFrame (graph-type swap,
        test_graph_type_swap)."""
        from raphtory_ray.graph.graph_frame import GraphFrame
        import pyarrow.compute as pc

        def adds(b: pa.Table) -> pa.Table:
            if "op" not in b.column_names:
                return b
            return b.filter(pc.equal(b["op"], pa.scalar(0, b["op"].type)))

        return GraphFrame(self.events.map_batches(
            adds, batch_format="pyarrow", zero_copy_batch=True), self.n,
            vertices=self.vertices)


def persistent_graph(gf) -> PersistentGraphFrame:
    """Event GraphFrame → PersistentGraphFrame (all events are additions)."""
    return PersistentGraphFrame(gf.edges, gf.n,
                                vertices=getattr(gf, "vertices", None))


# ----------------------------------------------------------- remote helpers

def _select(tab: pa.Table, s: int, e: int, valid: bool, layers):
    """Boolean mask of live intervals included in the view."""
    ta = _np(tab["ta"])
    tb = _np(tab["tb"])
    m = (ta < e) & (tb > s)
    if layers is not None:
        lay = np.asarray(tab["layer"].to_pylist(), dtype=object)
        m &= np.isin(lay, np.asarray(list(layers), dtype=object))
    if valid and len(ta):
        sa = _np(tab["src"])
        da = _np(tab["dst"])
        dn = _np(tab["del_next"])
        lay = np.asarray(tab["layer"].to_pylist(), dtype=str)
        _lc, li = np.unique(lay, return_inverse=True)
        order = np.lexsort((ta, li, da, sa))
        so, do_, lo_ = sa[order], da[order], li[order]
        tao, tbo, dno = ta[order], tb[order], dn[order]
        grp = np.r_[True, (so[1:] != so[:-1]) | (do_[1:] != do_[:-1])
                    | (lo_[1:] != lo_[:-1])]
        gidx = np.cumsum(grp) - 1
        ng = int(gidx[-1]) + 1 if len(gidx) else 0
        # last interval per (edge, layer) starting before the view end
        last_pos = np.full(ng, -1, np.int64)
        sel = tao < e
        np.maximum.at(last_pos, gidx[sel], np.arange(len(so))[sel])
        layer_ok = np.zeros(ng, dtype=bool)
        has = last_pos >= 0
        lp = last_pos[has]
        layer_ok[has] = ~(dno[lp] & (tbo[lp] < e))
        ok_sorted = layer_ok[gidx]
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        m &= ok_sorted[inv]
    return m


@ray.remote
def _interval_count(tab: pa.Table, s, e, valid, layers) -> int:
    return int(_select(tab, s, e, valid, layers).sum())


@ray.remote
def _active_pairs(tab: pa.Table, s, e, valid, layers):
    m = _select(tab, s, e, valid, layers)
    sa = _np(tab["src"])[m]
    da = _np(tab["dst"])[m]
    return list({(int(a), int(b)) for a, b in zip(sa, da)})


@ray.remote
def _active_pairs_tbl(tab: pa.Table, s, e, valid, layers) -> pa.Table:
    """Distinct active (src, dst) rows of one interval partition, as an
    Arrow table (feeds ray.data.from_arrow_refs — stays off the driver)."""
    m = _select(tab, s, e, valid, layers)
    sa = _np(tab["src"])[m]
    da = _np(tab["dst"])[m]
    if len(sa):
        key = np.unique(sa * (np.int64(1) << 32) + da)
        sa, da = key >> 32, key & ((np.int64(1) << 32) - 1)
    return pa.table({"src": pa.array(sa, pa.int64()),
                     "dst": pa.array(da, pa.int64())})


@ray.remote
def _edge_universe(tab: pa.Table, layers, src=None, dst=None):
    sa = _np(tab["src"])
    da = _np(tab["dst"])
    # raw tables carry one row per addition PLUS a marker row per
    # delete-only layer, so the universe includes hanging deletions
    m = np.ones(len(sa), dtype=bool)
    if layers is not None:
        lay = np.asarray(tab["layer"].to_pylist(), dtype=object)
        m &= np.isin(lay, np.asarray(list(layers), dtype=object))
    if src is not None:
        m &= (sa == src) & (da == dst)
    return list({(int(a), int(b)) for a, b in zip(sa[m], da[m])})


@ray.remote
def _explode_part(tab: pa.Table, s, e, layers) -> pa.Table:
    ta = _np(tab["ta"])
    tb = _np(tab["tb"])
    # zero-length same-time intervals ARE exploded (test_same_time_op);
    # ta=_NEG rows are hanging-deletion universe markers, never exploded
    m = ((ta < e) & (tb > s) | ((ta == tb) & (ta >= s) & (ta < e))) \
        & (ta != _NEG)
    if layers is not None:
        lay = np.asarray(tab["layer"].to_pylist(), dtype=object)
        m &= np.isin(lay, np.asarray(list(layers), dtype=object))
    out = tab.filter(pa.array(m))
    return pa.table({"src": out["src"], "dst": out["dst"],
                     "layer": out["layer"],
                     "earliest_time": out["ta"], "latest_time": out["tb"]})


@ray.remote
def _pair_valid(tab: pa.Table, src, dst, e, layers) -> bool:
    sa = _np(tab["src"])
    da = _np(tab["dst"])
    m = (sa == src) & (da == dst)
    if layers is not None:
        lay = np.asarray(tab["layer"].to_pylist(), dtype=object)
        m &= np.isin(lay, np.asarray(list(layers), dtype=object))
    if not m.any():
        return False
    ta = _np(tab["ta"])[m]
    tb = _np(tab["tb"])[m]
    dn = _np(tab["del_next"])[m]
    lay = np.asarray(tab["layer"].to_pylist(), dtype=object)[m]
    ok = False
    for lc in set(lay.astype(str)):
        lm = lay.astype(str) == lc
        sel = ta[lm] < e
        if not sel.any():
            continue
        i = np.argmax(np.where(sel, ta[lm], _NEG))
        if not (dn[lm][i] and tb[lm][i] < e):
            ok = True
    return ok
