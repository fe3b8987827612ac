"""Grouped aggregation: the one path every aggregate in the engine runs on.

Every aggregate, DISTINCT and GROUP-BY count is a per-block Arrow
partial, one hash route on the group keys (exchange.route_refs), and one
final task per partition that combines the partials with Arrow's
group_by and finalizes vectorized — the partial/combine split of
decomposable aggregates. A global aggregate is the same path at P = 1; a
DISTINCT on one value runs it twice, first routed on keys + value.

``aggregate`` is that path over a block relation (core/blocks.py): the
partial is one plain task per block, and the Cypher compiler
(query/cypher.py) calls it. ``group_agg`` is its Dataset entry for the
data operators and the ``__ray_entry__`` queries: one Ray Data stage
computes and materializes the partials, then the same routes and finals
run.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from raphtory_ray.core.blocks import Relation
from raphtory_ray.core.exchange import route_refs

_PCT_FNS = ("percentilecont", "percentiledisc")


class Agg(NamedTuple):
    """One aggregate: output column, function (a key of _DECOMPOSABLE or
    one of _LIST_FNS), input column (None: count(*)), DISTINCT, and the
    percentile of percentileCont/Disc."""
    name: str
    fn: str
    col: str | None = None
    distinct: bool = False
    p: float = 0.0


# fn → its partials, each (input, Arrow partial aggregate, Arrow combine).
# Input "x" is the value column, "xx" its float64 square: stDev/stDevP is
# the (n, Σx, Σx²) closed form.
_DECOMPOSABLE = {
    "count": [("x", "count", "sum")],
    "sum": [("x", "sum", "sum")],
    "min": [("x", "min", "min")],
    "max": [("x", "max", "max")],
    "avg": [("x", "sum", "sum"), ("x", "count", "sum")],
    "stdev": [("x", "count", "sum"), ("x", "sum", "sum"),
              ("xx", "sum", "sum")],
}
_DECOMPOSABLE["stdevp"] = _DECOMPOSABLE["stdev"]

# these keep the group's values (an Arrow "list" partial), as does
# DISTINCT in any aggregate (a "distinct" partial); the final task
# finishes them from the values
_LIST_FNS = ("collect",) + _PCT_FNS


def _partials(a: Agg) -> list:
    """(input column, Arrow partial, combine) of each partial of ``a``;
    a list partial has no combine."""
    if a.distinct or a.fn in _LIST_FNS:
        return [(a.col, "distinct" if a.distinct else "list", None)]
    if a.col is None:                          # count(*)
        return [([], "count_all", "sum")]
    return [(a.col if x == "x" else a.col + "__xx", f, c)
            for x, f, c in _DECOMPOSABLE[a.fn]]


def _pname(src, fn: str) -> str:
    """Arrow's name for the output of aggregate ``fn`` over ``src``."""
    return fn if src == [] else f"{src}_{fn}"


def _agg_partial(b: pa.Table, keys: list, aggs: list) -> pa.Table:
    """One block → one row per group of ``keys`` with every partial of
    ``aggs`` (a global aggregate groups on a constant ``__g``)."""
    if not keys:
        b = b.append_column("__g", pa.array(np.zeros(b.num_rows, np.int8)))
    specs = {}
    for a in aggs:
        for src, f, _c in _partials(a):
            if isinstance(src, str) and src.endswith("__xx") \
                    and src not in b.column_names:
                x = pc.cast(b[a.col], pa.float64())
                b = b.append_column(src, pc.multiply(x, x))
            specs[_pname(src, f)] = (src, f)
    return b.group_by(keys or ["__g"], use_threads=False) \
        .aggregate(list(specs.values()))


def _agg_final(t: pa.Table, keys: list, aggs: list) -> pa.Table:
    """Partials of whole groups → one row per group (``keys`` + one
    column per aggregate): Arrow's group_by combines the partials, each
    list partial is read back as its groups' values. A global aggregate
    of no rows is the one openCypher row: count and sum 0, collect [],
    avg/min/max/percentiles null, stDev 0.0."""
    combine = {_pname(s, f): c for a in aggs for s, f, c in _partials(a)
               if c is not None}
    spec = list(combine.items())
    lists = any(c is None for a in aggs for _s, _f, c in _partials(a))
    if lists:
        t = t.append_column("__r", pa.array(np.arange(t.num_rows)))
        spec.append(("__r", "list"))
    g = t.group_by(keys or ["__g"], use_threads=False).aggregate(spec)
    if not keys and g.num_rows == 0:
        g = pa.table({f.name: pa.nulls(1, f.type) for f in g.schema})
    out = {k: g[k] for k in keys}
    if lists:                 # each group's partial rows, group by group
        rows = g["__r_list"]
        row_group = pc.list_parent_indices(rows)
        rows = pc.list_flatten(rows)
    for a in aggs:
        parts = _partials(a)
        src, f, c = parts[0]
        if c is None:
            vals = t[_pname(src, f)].take(rows)
            gid = row_group.take(pc.list_parent_indices(vals))
            out[a.name] = _finish_values(a, pc.list_flatten(vals), gid,
                                         g.num_rows, not keys)
        else:
            out[a.name] = _finish(a.fn, [g[f"{_pname(s, f)}_{c}"]
                                         for s, f, c in parts], not keys)
    return pa.table(out)


def _finish(fn: str, c: list, glob: bool):
    """A decomposable aggregate from its combined partials ``c``."""
    if fn == "count":
        return pc.fill_null(c[0], 0)
    if fn == "sum":                # openCypher: a global sum of none is 0
        return pc.fill_null(c[0], 0) if glob else c[0]
    if fn in ("min", "max"):
        return c[0]
    if fn == "avg":
        return pc.divide(pc.cast(c[0], pa.float64()),
                         pc.cast(c[1], pa.float64()))
    # sqrt((n·Σx² − (Σx)²) / (n·(n−ddof))): on integral inputs every
    # partial is an exact float64 integer, so the result is bit-identical
    # to any engine evaluating the same closed form (sub/mul exact, div
    # and sqrt correctly rounded). Neo4j: n ≤ ddof → 0.0.
    ddof = 1 if fn == "stdev" else 0
    n = np.asarray(pc.fill_null(c[0], 0), np.float64)
    s1, s2 = (np.asarray(pc.fill_null(pc.cast(x, pa.float64()), 0.0))
              for x in c[1:])
    den = n * (n - ddof)
    num = np.maximum(n * s2 - s1 * s1, 0.0)
    return pa.array(np.where(den > 0, np.sqrt(num / np.where(den > 0, den,
                                                              1.0)), 0.0),
                    pa.float64())


def _finish_values(a: Agg, v, gid, G: int, glob: bool):
    """A list-partial aggregate from its values ``v`` and their group
    index ``gid`` (G groups): nulls dropped (openCypher aggregates skip
    them), DISTINCT deduped, then collect sorts ascending (openCypher
    leaves the order open; a fixed one is reproducible and
    oracle-checkable), the percentiles read ranks, and any other function
    runs as its own partial over the values."""
    t = pa.table({"g": gid, "v": v}).filter(pc.is_valid(v))
    if a.distinct:
        t = t.group_by(["g", "v"], use_threads=False).aggregate([])
    if a.fn in _LIST_FNS:
        if a.fn != "collect":
            t = t.set_column(1, "v", pc.cast(t["v"], pa.float64()))
        t = t.sort_by([("g", "ascending"), ("v", "ascending")])
        offs = np.r_[0, np.cumsum(np.bincount(
            np.asarray(t["g"], np.int64), minlength=G))]
        x = t["v"].combine_chunks()
        if a.fn == "collect":
            return pa.ListArray.from_arrays(pa.array(offs, pa.int32()), x)
        return _percentile(a, np.asarray(x), offs)
    plain = a._replace(col="v", distinct=False)
    gt = _agg_partial(t, ["g"], [plain])
    pos = np.full(G, -1, np.int64)
    pos[np.asarray(gt["g"], np.int64)] = np.arange(gt.num_rows)
    idx = pa.array(pos, mask=pos < 0)
    return _finish(a.fn, [gt[_pname(s, f)].take(idx)
                          for s, f, _c in _partials(plain)], glob)


def _percentile(a: Agg, x: np.ndarray, offs: np.ndarray) -> pa.Array:
    """Neo4j semantics over each group's sorted values x[offs[i]:offs[i+1]]:
    percentileCont interpolates linearly at rank p·(n−1); percentileDisc
    is the nearest rank (the smallest value with cumulative share ≥ p).
    An empty group is null."""
    n = np.diff(offs)
    has = n > 0
    start, m = offs[:-1][has], n[has]
    out = np.zeros(len(n))
    if a.fn == "percentilecont":
        r = a.p * (m - 1)
        lo, hi = np.floor(r).astype(np.int64), np.ceil(r).astype(np.int64)
        out[has] = x[start + lo] + (x[start + hi] - x[start + lo]) * (r - lo)
    else:
        out[has] = x[start + np.maximum(np.ceil(a.p * m).astype(np.int64),
                                        1) - 1]
    return pa.array(out, pa.float64(), mask=~has)


@ray.remote(num_returns=2)
def _agg_task(keys: list, aggs: list, *parts: pa.Table):
    out = _agg_final(pa.concat_tables(list(parts),
                                      promote_options="default"),
                     keys, aggs)
    return out, out.num_rows


def _one_distinct(aggs: list):
    """The value column when every aggregate is DISTINCT on the same one,
    else None."""
    cols = {a.col for a in aggs}
    if aggs and all(a.distinct for a in aggs) and len(cols) == 1:
        return cols.pop()
    return None


def _finals(pre: Relation, keys: list, aggs: list) -> Relation:
    """Partials (blocks of ``_agg_partial`` output) → route_refs on
    ``keys`` → one final task per partition. When every block is empty
    the result is the final over ``pre.empty`` (a global aggregate's one
    row)."""
    outs = route_refs(pre.refs, pre.counts(), keys, _agg_task, (keys, aggs))
    out = _agg_final(pre.empty, keys, aggs)
    if outs is None:
        return Relation.of(out)
    return Relation([o[0] for o in outs], out.slice(0, 0),
                    [o[1] for o in outs])


def aggregate(rel: Relation, keys: list, aggs: list) -> Relation:
    """Aggregates ``aggs`` (Agg rows) of a relation grouped by ``keys``
    (global without keys) → relation of ``keys`` + one column per
    aggregate; with no aggregates, the distinct ``keys`` rows. The partial
    composes with the relation's pending maps into one task per block.
    When every aggregate is DISTINCT on the same value, the (keys, value)
    rows are deduped first, routed on both, so a hub's values spread over
    the partitions."""
    x = _one_distinct(aggs)
    if x is not None:
        rel = aggregate(rel, keys + [x], [])
        aggs = [a._replace(distinct=False) for a in aggs]
    return _finals(rel.map(partial(_agg_partial, keys=keys, aggs=aggs))
                   .blocks(), keys, aggs)


def group_agg(ds, keys: list, aggs: list, hint: pa.Table | None = None,
              project=None):
    """``aggregate`` for a Dataset → Dataset. One Ray Data map stage runs
    ``project`` (if given) and the per-block partial — Ray drops a
    zero-column block between stages, and a global count(*) projects
    none — and is materialized; the routes and finals are
    ``aggregate``'s. ``hint`` = an empty table of the partial's input
    columns: it types the result of an all-empty input (default:
    ``ds``'s schema, int64 columns where it is lost — Ray skips map fns
    on empty blocks)."""
    x = _one_distinct(aggs)
    keys1, aggs1 = (keys + [x], []) if x is not None else (keys, aggs)

    def part(b: pa.Table) -> pa.Table:
        return _agg_partial(project(b) if project else b, keys1, aggs1)

    mat = ds.map_batches(part, batch_format="pyarrow",
                         zero_copy_batch=True).materialize()
    if hint is None and mat.schema() is None:
        schema = ds.schema()
        types = dict(zip(schema.names, schema.types)) if schema else {}
        hint = pa.table({c: pa.array([], types.get(c, pa.int64()))
                         for c in keys + [a.col for a in aggs if a.col]})
    empty = None if hint is None else _agg_partial(hint, keys1, aggs1)
    out = _finals(Relation.from_dataset(mat, empty), keys1, aggs1)
    if x is not None:
        out = aggregate(out, keys, [a._replace(distinct=False)
                                    for a in aggs])
    return out.to_dataset()


def group_count(ds, cols: list, alias: str = "n"):
    """COUNT(*) grouped by key columns."""
    return group_agg(ds, cols, [Agg(alias, "count")])


