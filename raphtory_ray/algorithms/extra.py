"""Sequential-in-the-reference algorithms (SURVEY §2.8 "seq"): SCC, Dijkstra,
betweenness, plus the WindowSet iteration views.

The reference runs these single-threaded on shared memory (scc.rs:20-117
Tarjan; dijkstra.rs:97-246 binary heap; betweenness.rs:29-119 Brandes).
Mirrored here as driver-side computations over the materialized simple-edge
arrays — per SURVEY §7.4 these are out of the north-rule core, and their
per-node state (Tarjan stacks, heaps) is inherently sequential. Betweenness
is source-parallelized over Ray tasks (the one axis the reference's own
structure allows)."""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import ray

from raphtory_ray.graph.graph_frame import GraphFrame
from raphtory_ray.graph.node_state import NodeState
from raphtory_ray.state.shards import _sd


def _csr(gf, weights_col: str | None = None, reverse: bool = False,
         both: bool = False):
    """Driver-side CSR of the dedup'd simple edges (+optional per-event
    weight reduced by min, matching dijkstra's first-seen semantics).
    ``both=True`` symmetrizes (each directed edge usable both ways —
    Direction::BOTH); reciprocal duplicates are harmless to BFS/dijkstra
    relaxation. Weight arrays aligned to the plain CSR order do NOT align
    with ``both`` — unit weights only on that path."""
    from raphtory_ray.state.shards import BspGraph
    g = gf if isinstance(gf, BspGraph) else None
    if g is None:
        cached = getattr(gf, "_bsp", None)
        if cached is None:
            cached = BspGraph.from_graph(gf)
            gf._bsp = cached
        g = cached
    tbls = ray.get(list(g.refs))
    s = np.concatenate([t["src"].to_numpy(zero_copy_only=False)
                        for t in tbls]) if tbls else np.empty(0, np.int64)
    d = np.concatenate([t["dst"].to_numpy(zero_copy_only=False)
                        for t in tbls]) if tbls else np.empty(0, np.int64)
    if both:
        s, d = np.concatenate([s, d]), np.concatenate([d, s])
    elif reverse:
        s, d = d, s
    order = np.argsort(s, kind="stable")
    s, d = s[order], d[order]
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(s, minlength=g.n), out=indptr[1:])
    return g.n, d, indptr


def _tarjan(adj: np.ndarray, indptr: np.ndarray, active: np.ndarray,
            comp: np.ndarray) -> np.ndarray:
    """Iterative Tarjan (scc.rs:20-117) over the CSR (adj, indptr),
    restricted to the ``active`` vertices: a copy of ``comp`` with every
    active vertex labelled by the min vid of its SCC."""
    UNSET = -1
    n = len(active)
    index = np.full(n, UNSET, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    stack: list[int] = []
    counter = 0
    comp = comp.copy()
    for root in np.flatnonzero(active).tolist():
        if index[root] != UNSET:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for ei in range(indptr[v] + pi, indptr[v + 1]):
                w = int(adj[ei])
                if not active[w]:
                    continue
                if index[w] == UNSET:
                    work[-1] = (v, ei - indptr[v] + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                label = min(members)
                for w in members:
                    comp[w] = label
    return comp


def strongly_connected_components(gf) -> NodeState:
    """Iterative Tarjan (scc.rs:20-117); component id = min vid in SCC."""
    n, adj, indptr = _csr(gf)
    comp = _tarjan(adj, indptr, np.ones(n, dtype=bool),
                   np.arange(n, dtype=np.int64))
    return NodeState(comp, gf if isinstance(gf, GraphFrame) else None, "scc")


def dijkstra_single_source_shortest_paths(gf, source: int,
                                          targets=None,
                                          weight: np.ndarray | None = None,
                                          direction: str = "out"):
    """Weighted shortest paths (dijkstra.rs:97-246). ``weight`` is a
    per-simple-edge array aligned with the CSR order, or None for unit
    weights. ``direction`` ∈ out/in/both (plugins/algorithms.rs
    Direction::*; "both" supports unit weights only — an explicit weight
    array cannot align with the symmetrized CSR). Returns
    {target: (cost, [path])}."""
    if direction == "both" and weight is not None:
        raise ValueError('direction="both" supports unit weights only')
    n, adj, indptr = _csr(gf, reverse=(direction == "in"),
                          both=(direction == "both"))
    w = np.ones(len(adj)) if weight is None else np.asarray(weight, float)
    dist = np.full(n, np.inf)
    prev = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        for ei in range(indptr[v], indptr[v + 1]):
            u = int(adj[ei])
            alt = dv + w[ei]
            if alt < dist[u]:
                dist[u] = alt
                prev[u] = v
                heapq.heappush(heap, (alt, u))
    out = {}
    tgts = range(n) if targets is None else targets
    for t in tgts:
        if np.isfinite(dist[t]):
            path = []
            c = t
            while c != -1:
                path.append(int(c))
                c = prev[c]
            out[int(t)] = (float(dist[t]), path[::-1])
    return out


@ray.remote
def _brandes_sources(adj, indptr, sources, n):
    """Brandes accumulation for a slice of sources (betweenness.rs:29-119
    inner loop) — source-parallel over the task pool."""
    delta_total = np.zeros(n)
    for s in sources:
        stack = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[s] = 1.0
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            stack.append(v)
            for ei in range(indptr[v], indptr[v + 1]):
                w = int(adj[ei])
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = np.zeros(n)
        for v in reversed(stack):
            for p in preds[v]:
                delta[p] += sigma[p] / sigma[v] * (1.0 + delta[v])
        delta[s] = 0.0
        delta_total += delta
    return delta_total


@ray.remote
def _harmonic_sources(adj, indptr, sources, n):
    """Per-source BFS hop distances, accumulated as Σ 1/d — one chunk of
    the sampled source set (source-parallel over the task pool, the same
    shape as _brandes_sources). Levels are vectorized: one CSR gather per
    BFS level, not per node."""
    H = np.zeros(n)
    for s in sources:
        dist = np.full(n, -1, dtype=np.int64)
        dist[s] = 0
        cur = np.array([s], dtype=np.int64)
        d = 0
        while len(cur):
            starts, ends = indptr[cur], indptr[cur + 1]
            counts = ends - starts
            tot = int(counts.sum())
            if tot == 0:
                break
            idx = np.repeat(starts, counts) + (
                np.arange(tot) - np.repeat(np.cumsum(counts) - counts,
                                           counts))
            nxt = np.unique(adj[idx])
            nxt = nxt[dist[nxt] < 0]
            if len(nxt) == 0:
                break
            d += 1
            dist[nxt] = d
            cur = nxt
        m = dist > 0
        H[m] += 1.0 / dist[m]
    return H


def harmonic_centrality(gf, sources=None, k: int | None = None,
                        num_tasks: int = 8) -> NodeState:
    """Sampled-source harmonic centrality (beyond reference; Boldi &
    Vigna 2014): H(v) = Σ_{s∈S, d(s,v)<∞, s≠v} 1/d(s, v) over directed
    BFS hop distances from the source sample S — the disconnection-safe
    closeness variant (unreachable pairs contribute 0, no 1/∞). ``sources``
    is an explicit vid array; ``k`` takes the first k vids (betweenness's
    sampling convention). Source-parallel over Ray tasks with one CSR
    broadcast — the same sampled-source scale contract as
    betweenness_centrality."""
    n, adj, indptr = _csr(gf)
    if sources is None:
        sources = np.arange(n if k is None else min(k, n))
    sources = np.asarray(sources, np.int64)
    adj_ref, ind_ref = ray.put(adj), ray.put(indptr)
    chunks = [c for c in np.array_split(sources, num_tasks) if len(c)]
    parts = ray.get([_harmonic_sources.remote(adj_ref, ind_ref, c, n)
                     for c in chunks])
    H = np.sum(parts, axis=0) if parts else np.zeros(n)
    return NodeState(H, gf if isinstance(gf, GraphFrame) else None,
                     "harmonic")


def betweenness_centrality(gf, k: int | None = None,
                           normalized: bool = True,
                           num_tasks: int = 8) -> NodeState:
    """Brandes betweenness, sources fanned out over Ray tasks."""
    n, adj, indptr = _csr(gf)
    sources = np.arange(n if k is None else min(k, n))
    adj_ref, ind_ref = ray.put(adj), ray.put(indptr)
    chunks = [c for c in np.array_split(sources, num_tasks) if len(c)]
    parts = ray.get([_brandes_sources.remote(adj_ref, ind_ref, c, n)
                     for c in chunks])
    bc = np.sum(parts, axis=0) if parts else np.zeros(n)
    if normalized and n > 2:
        bc = bc / ((n - 1) * (n - 2))
    return NodeState(bc, gf if isinstance(gf, GraphFrame) else None,
                     "betweenness")


# -------------------------------------------------------------- WindowSet

# ------------------------------------------------ calendar intervals

_UNIT_MS = {"millisecond": 1, "second": 1000, "minute": 60_000,
            "hour": 3_600_000, "day": 86_400_000, "week": 604_800_000}
_UNIT_RANK = {"millisecond": 0, "second": 1, "minute": 2, "hour": 3,
              "day": 4, "week": 5, "month": 6, "year": 7}


def _parse_interval(x):
    """'1 month and 1 day' → (months, millis, smallest_unit);
    ints pass through as discrete ms (NO alignment —
    test_rolling_no_alignment_for_discrete_ms)."""
    import re
    if isinstance(x, (int, np.integer)):
        return None
    toks = re.findall(r"(\d+)\s*"
                      r"(year|month|week|day|hour|minute|second|millisecond)"
                      r"s?", str(x).lower())
    if not toks:
        raise ValueError(f"cannot parse interval {x!r}")
    months = 0
    millis = 0
    smallest = None
    for num, unit in toks:
        n = int(num)
        if unit == "year":
            months += 12 * n
        elif unit == "month":
            months += n
        else:
            millis += n * _UNIT_MS[unit]
        if smallest is None or _UNIT_RANK[unit] < _UNIT_RANK[smallest]:
            smallest = unit
    return months, millis, smallest


def _add_months(t_ms: int, m: int) -> int:
    """Calendar month addition in UTC, day clamped to month length
    (chrono checked_add_months semantics)."""
    import calendar
    import datetime as dt
    d = dt.datetime.fromtimestamp(t_ms / 1000.0, dt.timezone.utc)
    total = d.year * 12 + (d.month - 1) + m
    y, mo = divmod(total, 12)
    day = min(d.day, calendar.monthrange(y, mo + 1)[1])
    nd = d.replace(year=y, month=mo + 1, day=day)
    return int(nd.timestamp() * 1000)


def _interval_add(t_ms: int, months: int, millis: int, k: int) -> int:
    out = _add_months(t_ms, months * k) if months else t_ms
    return out + millis * k


def _interval_sub(t_ms: int, months: int, millis: int) -> int:
    out = _add_months(t_ms, -months) if months else t_ms
    return out - millis


def _align_floor(t_ms: int, unit: str) -> int:
    """Floor to the unit boundary: fixed-size units floor to epoch
    multiples (weeks = multiples of 7 days since 1970-01-01, reference
    test_week_alignment_epoch_buckets); month/year floor via UTC
    calendar."""
    import datetime as dt
    if unit in _UNIT_MS:
        u = _UNIT_MS[unit]
        return (t_ms // u) * u
    d = dt.datetime.fromtimestamp(t_ms / 1000.0, dt.timezone.utc)
    if unit == "month":
        d = d.replace(day=1, hour=0, minute=0, second=0, microsecond=0)
    else:                                     # year
        d = d.replace(month=1, day=1, hour=0, minute=0, second=0,
                      microsecond=0)
    return int(d.timestamp() * 1000)


def _calendar_windows(gf, window, step, alignment_unit, expanding_mode,
                      start, end):
    """Shared WindowSet generator for calendar-interval rolling/expanding
    (time.rs rolling_aligned/expanding_aligned + WindowSet iterator):
    aligned_lo = floor(view start, unit); end_k = aligned_lo + k·step;
    window views [end_k − window, end_k), expanding views [None, end_k);
    stop when end_k ≥ hi + step (overstep guard: start ≥ hi)."""
    wiv = _parse_interval(window)
    siv = _parse_interval(step) if step is not None else wiv
    assert wiv is not None or siv is not None
    wm, wms, wunit = wiv if wiv else (0, int(window), None)
    sm, sms, sunit = siv if siv else (0, int(step), None)
    if alignment_unit == "unaligned":
        unit = None
    elif alignment_unit:
        unit = alignment_unit.rstrip("s")
    else:
        units = [u for u in (wunit, sunit) if u]
        unit = min(units, key=lambda u: _UNIT_RANK[u]) if units else None
    lo, hi = _time_bounds(gf, start, end)
    lo_al = _align_floor(lo, unit) if unit else lo
    views = []
    k = 1
    while True:
        e = _interval_add(lo_al, sm, sms, k)
        if e >= _interval_add(hi, sm, sms, 1):
            break
        if expanding_mode:
            views.append(gf.window(None, e,
                                   _report_requested=False))
        else:
            s = _interval_sub(e, wm, wms)
            if s >= hi:
                break
            views.append(gf.window(s, e,
                                   _report_requested=False))
        k += 1
    return views


def expanding(gf: GraphFrame, step: int, start: int | None = None,
              end: int | None = None, alignment_unit: str | None = None):
    """Expanding WindowSet (WindowSet iterator, time.rs:470-495): views
    [view_start, b) for b = start+step, start+2·step, … while b < end+step.
    Ends are NOT clamped — a windowed parent's bound intersection clamps
    the exposed end (time_tests.rs:151-175). Calendar-interval steps
    ('1 day', '1 month') align ends to the unit boundary
    (test_rolling_expanding_alignment.py; alignment_unit overrides,
    'unaligned' disables)."""
    if isinstance(step, str) or alignment_unit:
        return _calendar_windows(gf, step, step, alignment_unit, True,
                                 start, end)
    lo, hi = _time_bounds(gf, start, end)
    b = lo + step
    views = []
    while b < hi + step:
        views.append(gf.window(None, b,
                                _report_requested=False))
        b += step
    return views


def rolling(gf: GraphFrame, window: int, step: int | None = None,
            start: int | None = None, end: int | None = None,
            alignment_unit: str | None = None):
    """Rolling WindowSet (time.rs:470-495): [b-window, b) for
    b = start+step, start+2·step, … while b < end+step, stopping when
    b-window >= end (the overstep guard). The last window may overhang the
    data (time_tests.rs:57-80: timeline(1,6).rolling(3,2) ends (4,7));
    windowed parents clamp via nested-bound intersection.

    Calendar-interval windows/steps ('1 month', '1 month and 1 day') align
    the anchor to the SMALLEST unit present (month windows start at
    month-1sts; weeks are epoch-week multiples); plain ints stay unaligned
    (test_rolling_expanding_alignment.py)."""
    if isinstance(window, str) or isinstance(step, str) or alignment_unit:
        return _calendar_windows(gf, window, step, alignment_unit, False,
                                 start, end)
    step = step or window
    lo, hi = _time_bounds(gf, start, end)
    b = lo + step
    views = []
    while b < hi + step:
        if b - window >= hi:
            break
        views.append(gf.window(b - window, b,
                                _report_requested=False))
        b += step
    return views


def _time_bounds(gf: GraphFrame, start, end):
    """View bounds when set (reference WindowSets anchor at the view's
    start/end); otherwise the data's earliest / latest+1."""
    import pyarrow.compute as pc
    if start is None and getattr(gf, "start", None) is not None:
        start = gf.start
    if end is None and getattr(gf, "end", None) is not None:
        end = gf.end
    if start is None or end is None:
        mn, mx = None, None
        for blk in gf.edges.select_columns(["t"]).iter_batches(
                batch_format="pyarrow"):
            if blk.num_rows:
                bmn, bmx = pc.min(blk["t"]).as_py(), pc.max(blk["t"]).as_py()
                mn = bmn if mn is None else min(mn, bmn)
                mx = bmx if mx is None else max(mx, bmx)
        start = mn if start is None else start
        end = (mx + 1) if end is None else end
    return start, end


@ray.remote
def _residual_edges(block: pa.Table, active: np.ndarray):
    """The block's non-self-loop edges with both endpoints active."""
    s, d = _sd(block)
    m = active[s] & active[d] & (s != d)
    return s[m], d[m]


def _tarjan_residual(g, active: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """Driver Tarjan restricted to the residual ``active`` subgraph —
    the safety valve of components.scc_distributed when ColorSCC hits its
    round cap (deep SCC-condensation chains). Pulls ONLY the residual's
    edges (both endpoints active)."""
    a_ref = ray.put(active)
    parts = ray.get([_residual_edges.remote(r, a_ref) for r in g.refs])
    s = np.concatenate([p[0] for p in parts] or [np.empty(0, np.int64)])
    d = np.concatenate([p[1] for p in parts] or [np.empty(0, np.int64)])
    order = np.argsort(s, kind="stable")
    indptr = np.searchsorted(s[order], np.arange(g.n + 1))
    return _tarjan(d[order], indptr, active, comp)
