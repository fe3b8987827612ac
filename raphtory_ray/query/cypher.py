"""Cypher-subset execution over a GraphFrame: plain tasks inside,
Datasets at the edges.

The reference transpiles Cypher MATCH chains to SQL joins over per-layer
edge-list tables + a nodes table and runs them on DataFusion
(raphtory-cypher/src/lib.rs:41-158, transpiler/mod.rs, hop/rule.rs —
"graph hops are relational joins over Arrow"). This module is the same
idea over block relations (core/blocks.py: Arrow block refs plus an
empty table carrying their schema), so every operator is one plain task
per block or per hash partition and none starts a Ray Data execution:

- every relationship pattern is a SCAN of the frame's edge blocks
  (``GraphFrame.relation``: rename + vectorized layer/prop-map filters,
  composed with the frame's pending view predicates into one task per
  block),
- every hop is a distributed HASH JOIN: both sides are routed into P
  partitions by the shared node-variable key (core/exchange), and each
  partition joins with ``pyarrow.Table.join`` (Acero C++ hash join); at
  P = 1 one join task takes every block, with no route,
- WHERE terms apply as vectorized pyarrow.compute filters as soon as
  all their variables are bound (earliest-placement pushdown: a
  single-edge-variable term filters that edge's scan BEFORE the join);
  consecutive filters and projections compose into the next task,
- node properties resolve against the driver-resident ``vertices``
  dimension table, broadcast once via ``ray.put`` and gathered per batch
  with ``pc.index_in`` (never shuffled),
- every aggregate, DISTINCT, grouping and UNION dedup is core's
  ``aggregate`` (core/aggregate.py): a per-block Arrow partial, one
  hash route on the group keys, an Arrow combine + vectorized finalize
  per partition.

The schema travels with each relation, so an empty scan, join or
aggregate still returns typed columns. The Ray Data boundaries, one
each:

- in: a frame over a lazy (unmaterialized) base is materialized once
  per ``cypher()`` call (``GraphFrame.relation``);
- out: ``cypher()`` wraps the result's blocks as a Dataset
  (``Relation.to_dataset``, no execution);
- ORDER BY (``ds.sort``), SKIP and LIMIT (``ds.limit``) run on that
  Dataset.

Semantics match the reference transpiler, NOT full openCypher: bindings
are edge EVENTS (the event table is the exploded edge list), and there
is no relationship-uniqueness filter — Cypher's MATCH is transpiled to
plain SQL joins exactly as raphtory-cypher does, so a DuckDB oracle over
the same tables is exact.

Round 4 extends the subset with the three clauses real queries hit
first (they were the top "What's missing" item of the round-3 review):

- ``WITH`` pipeline stages (projection, implicit-group aggregation,
  DISTINCT, HAVING-like ``WHERE``, then another MATCH or RETURN) — the
  carried columns join the next segment's patterns on shared variables,
- bounded variable-length patterns ``(a)-[:L*lo..hi]->(b)`` — iterated
  distributed hash-join expansion with per-level frontier dedup
  (reachability semantics, equivalent to a recursive CTE with UNION
  over (a, b, k); the reference grammar accepts the range literal,
  raphtory-cypher/src/parser/cypher.pest:204, but its AST drops it),
- ``OPTIONAL MATCH`` — the pattern compiled standalone, then a LEFT
  OUTER distributed hash join on the shared variables (the skew valve
  splits only the probe side for outer joins).

Scale notes: the only all-to-all moves are the hash joins (P partitions,
key-salted by splitmix64 — uniform unless one vertex dominates; the
wedge/join fan-out itself is inherent to the query). Scans prune to the
columns the query references before any shuffle.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from raphtory_ray.core import exchange
from raphtory_ray.core.aggregate import _PCT_FNS, Agg, aggregate
from raphtory_ray.core.blocks import Relation
from raphtory_ray.core.exchange import (_partition_ids, _route,
                                        num_partitions, shuffle)
from raphtory_ray.query.parser import (BinOp, Case, Chain, Func, Lit, Not,
                                       Prop, Query, ReturnItem, Var,
                                       expr_text, parse_cypher)

# edge property aliases the reference's tests use (e.time == event time)
_EDGE_ALIASES = {"time": "t", "eid": "event_id"}


# ------------------------------------------------------ distributed join

@ray.remote
def _part_counts(tbl: pa.Table, keys: list, P: int) -> np.ndarray:
    """Per-partition row counts for one block — the cheap first pass of
    the skew-aware route (hash only, no data movement)."""
    if tbl.num_rows == 0:
        return np.zeros(P, np.int64)
    return np.bincount(_partition_ids(tbl, keys, P),
                       minlength=P).astype(np.int64)


@ray.remote(num_returns=2)
def _join_part(keys: list, nl: int, j: int, k: int, split_left: bool,
               join_type: str, *parts: pa.Table):
    """One hash partition (sub-task j of k): concat each side's pieces,
    slice the split side into its j-th contiguous chunk — valid because
    any partition of the probe side's rows partitions the output (for
    outer joins only a LEFT split is valid, enforced by the caller) —
    then an Acero join. Returns the joined table and its row count."""
    left = pa.concat_tables(parts[:nl], promote_options="default")
    right = pa.concat_tables(parts[nl:], promote_options="default")
    if k > 1:
        side = left if split_left else right
        n = side.num_rows
        lo, hi = (n * j) // k, (n * (j + 1)) // k
        if split_left:
            left = side.slice(lo, hi - lo)
        else:
            right = side.slice(lo, hi - lo)
    out = left.join(right, keys=keys, join_type=join_type,
                    coalesce_keys=True)
    return out, out.num_rows


# rows of ONE side of one partition above which the join fans out into
# sub-tasks (a hub key routes its whole neighbourhood to one partition;
# the north rule calls for explicit skew valves at 10^12 scale)
_JOIN_SPLIT_ROWS = 2_000_000


def _outer_vs_empty(b: pa.Table, rt: pa.Table, keys: list) -> pa.Table:
    return b.join(rt, keys=keys, join_type="left outer", coalesce_keys=True)


def hash_join(left: Relation, right: Relation, keys: list,
              P: int | None = None, join_type: str = "inner") -> Relation:
    """Distributed join ("inner" or "left outer") of two relations on
    identically-named key columns. Non-key column names must be disjoint
    (the compiler guarantees it). Returns a relation of the joined
    partitions, typed by the join of the two schemas even when a side is
    empty. At P = 1 one join task takes every block, with no route."""
    empty = left.empty.join(right.empty, keys=keys, join_type=join_type,
                            coalesce_keys=True)
    # both sides' pending maps start before either side's counts are read
    left, right = left.blocks(), right.blocks()
    left, right = left.nonempty(), right.nonempty()
    if not left.refs or (not right.refs and join_type == "inner"):
        return Relation([], empty)
    if not right.refs:
        # left outer with an empty right side: every left row survives
        # with nulls in the right columns — no shuffle needed
        return left.map(functools.partial(_outer_vs_empty, rt=right.empty,
                                          keys=keys), empty)
    rows_l, rows_r = sum(left.rows), sum(right.rows)
    P = P or num_partitions(rows_l + rows_r,
                            per=exchange.FANOUT_ROWS_PER_PARTITION)
    # skew plan: cheap count pass (hash + bincount per block, no data
    # movement) → per-partition sub-task fan-out for hub-heavy keys.
    # Skipped entirely (k=1 everywhere) when the block counts already
    # prove no partition can exceed the threshold. Count tasks are
    # submitted AFTER the route tasks so the two waves overlap (routes
    # don't depend on counts — only the join-task plan does).
    if P == 1:
        parts_l, parts_r = [left.refs], [right.refs]
    else:
        parts_l = shuffle(_route, left.refs, P, keys)
        parts_r = shuffle(_route, right.refs, P, keys)
    if max(rows_l, rows_r) > _JOIN_SPLIT_ROWS:
        counts = ray.get([_part_counts.remote(r, keys, P)
                          for r in left.refs + right.refs])
        cl = sum(counts[:len(left.refs)])
        cr = sum(counts[len(left.refs):])
    else:
        cl = cr = np.zeros(P, np.int64)
    joined = []
    for p in range(P):
        big = max(int(cl[p]), int(cr[p]))
        k = max(1, -(-big // _JOIN_SPLIT_ROWS))    # ceil
        # splitting the probe side partitions ANY join's output; the
        # build side may only be split for inner joins (an outer join
        # would emit a null-padded row per sub-chunk)
        split_left = cl[p] >= cr[p] or join_type != "inner"
        for j in range(k):
            joined.append(_join_part.remote(
                keys, len(left.refs), j, k, split_left, join_type,
                *parts_l[p], *parts_r[p]))
    return Relation([o[0] for o in joined], empty, [o[1] for o in joined])


# ------------------------------------------------------------- compiler

class _Ctx:
    """Compilation context: variable kinds, bound columns, vertices."""

    def __init__(self, gf, edges):
        self.gf = gf
        self.edges = edges     # () → the frame's edge relation, built once
        self.node_vars: set = set()
        self.edge_vars: set = set()
        self.varlen_vars: set = set()     # [r*lo..hi] bindings (min-hops)
        self.col_vars: set = set()        # scalar columns bound by WITH
        self.anon = 0
        self.anon_vars: set = set()
        vt = gf.vertices
        self.vert_ref = ray.put(vt) if vt is not None else None
        self.vert_cols = list(vt.column_names) if vt is not None else []

    @property
    def edge_cols(self) -> list:
        return list(self.edges().empty.column_names)

    def fresh(self, prefix: str) -> str:
        # '#' cannot appear in a parsed identifier, so generated names can
        # never collide with (or capture) user variables like `_n1`
        self.anon += 1
        name = f"#{prefix}{self.anon}"
        self.anon_vars.add(name)
        return name

    def edge_col(self, var: str, name: str) -> str:
        name = _EDGE_ALIASES.get(name, name)
        if name in ("src", "dst") or name in self.edge_cols:
            return f"{var}__{name}"
        raise KeyError(f"unknown edge property {name!r} "
                       f"(have {self.edge_cols})")


def _vertices_lookup(vert_ref, vid_arr: pa.Array, prop: str) -> pa.Array:
    vt = ray.get(vert_ref) if isinstance(vert_ref, ray.ObjectRef) else vert_ref
    idx = pc.index_in(vid_arr, value_set=vt["vid"].combine_chunks())
    return vt[prop].combine_chunks().take(idx)


def _pc_mod(a, b):
    """Modulo — this pyarrow build has no pc.mod kernel; numpy keeps the
    C-truncation semantics DuckDB's % uses for integers. Nulls stay
    NULL (fill-compute-remask), never NaN, and an all-valid int column
    keeps its int type instead of promoting to double."""
    def prep(x):
        if isinstance(x, pa.ChunkedArray):
            x = x.combine_chunks()
        if isinstance(x, pa.Array):
            m = pc.is_null(x).to_numpy(zero_copy_only=False)
            return (x.fill_null(1).to_numpy(zero_copy_only=False), m)
        return x, None
    an, am = prep(a)
    bn, bm = prep(b)
    out = np.fmod(an, bn)
    if np.ndim(out) == 0:
        # literal % literal: pa.array needs a sequence, not a 0-d scalar
        return out.item()
    mask = None
    for m in (am, bm):
        if m is not None and m.any():
            mask = m if mask is None else (mask | m)
    return pa.array(out, mask=mask)



def _as_mask(v, n: int):
    """A WHERE term can compile to a SCALAR (constant predicate, e.g.
    ``5 % 2 = 1``): broadcast it to a boolean mask; null → False per
    Cypher's ternary WHERE."""
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        return v
    if isinstance(v, pa.Scalar):
        v = v.as_py()
    return pa.array(np.full(n, bool(v) if v is not None else False))

def _compile_expr(e, ctx: _Ctx):
    """Expr AST → fn(pa.Table) -> pa.Array | scalar. Node props resolve
    through the broadcast vertices table; edge props through the renamed
    scan columns."""
    if isinstance(e, Lit):
        v = e.value
        return lambda t: v
    if isinstance(e, Var):
        if e.name in ctx.col_vars:
            # a WITH-projected scalar column (checked before node/edge so
            # an alias shadowing an earlier variable reads the column)
            name = e.name
            return lambda t: t[name].combine_chunks()
        if e.name in ctx.node_vars:
            name = e.name
            return lambda t: t[name].combine_chunks()
        if e.name in ctx.edge_vars:
            # bare edge var in count(e) / comparisons: its src column is
            # the non-null representative of the binding
            col = f"{e.name}__src"
            return lambda t: t[col].combine_chunks()
        raise KeyError(f"bare variable {e.name!r} not usable here")
    if isinstance(e, Prop):
        if e.var in ctx.col_vars:
            raise KeyError(f"{e.var!r} is a WITH-projected value, "
                           f"not a node — {e.var}.{e.name} is invalid")
        if e.var in ctx.edge_vars:
            col = ctx.edge_col(e.var, e.name)
            return lambda t: t[col].combine_chunks()
        if e.var in ctx.node_vars:
            if e.name not in ctx.vert_cols:
                raise KeyError(f"unknown node property {e.name!r}")
            var, prop, vref = e.var, e.name, ctx.vert_ref
            return lambda t: _vertices_lookup(
                vref, t[var].combine_chunks(), prop)
        raise KeyError(f"unknown variable {e.var!r}")
    if isinstance(e, Func):
        if e.name == "type":
            if not isinstance(e.arg, Var) or e.arg.name not in ctx.edge_vars:
                raise SyntaxError("type() takes an edge variable")
            if "layer" in ctx.edge_cols:
                col = f"{e.arg.name}__layer"
                return lambda t: t[col].combine_chunks()
            return lambda t: "_default"
        if e.name in ("startnode", "endnode"):
            # startNode(r)/endNode(r) → the edge's src/dst vid columns
            # (openCypher 9 §4.4; the reference transpiles the relationship
            # binding's own src/dst columns the same way)
            if not isinstance(e.arg, Var) or e.arg.name not in ctx.edge_vars:
                raise SyntaxError(f"{e.name}() takes an edge variable")
            col = f"{e.arg.name}__src" if e.name == "startnode" \
                else f"{e.arg.name}__dst"
            return lambda t: t[col].combine_chunks()
        if e.name in ("length", "size") and isinstance(e.arg, Var) \
                and e.arg.name in ctx.varlen_vars:
            # length(r) on a [r*lo..hi] binding: the pair's minimum hop
            # count (shortest path length within the bound)
            col = f"{e.arg.name}__hops"
            return lambda t: t[col].combine_chunks()
        if e.name == "length":
            raise SyntaxError("length() takes a variable-length pattern "
                              "binding ([r*lo..hi])")
        if e.name == "size":
            # size(list) / size(string) — pc.list_value_length /
            # utf8_length, both int64 per openCypher
            af = _compile_expr(e.arg, ctx)

            def size(t, _af=af):
                v = _af(t)
                if not isinstance(v, (pa.Array, pa.ChunkedArray)):
                    v = pa.array([v] * t.num_rows)
                if pa.types.is_list(v.type) or \
                        pa.types.is_large_list(v.type):
                    return pc.list_value_length(v).cast(pa.int64())
                return pc.utf8_length(v).cast(pa.int64())
            return size
        if e.name == "id":
            # id(n) — the internal dense vid (transpiler/mod.rs:272 maps
            # node binds onto their "id" column)
            if not isinstance(e.arg, Var) or e.arg.name not in \
                    ctx.node_vars:
                raise SyntaxError("id() takes a node variable")
            name = e.arg.name
            return lambda t: t[name].combine_chunks()
        if e.name == "coalesce":
            args = e.arg if isinstance(e.arg, list) else [e.arg]
            fns = [_compile_expr(a, ctx) for a in args]

            def coalesce(t, _fns=tuple(fns)):
                vals = []
                for f in _fns:
                    v = f(t)
                    if not isinstance(v, (pa.Array, pa.ChunkedArray)):
                        # explicit scalar type: a relation's empty table
                        # would otherwise infer a null-typed array and
                        # break the coalesce kernel dispatch
                        v = pa.array([v] * t.num_rows,
                                     type=pa.scalar(v).type)
                    vals.append(v)
                good = next((v.type for v in vals
                             if not pa.types.is_null(v.type)), None)
                if good is not None:
                    vals = [v.cast(good) if pa.types.is_null(v.type)
                            else v for v in vals]
                return pc.coalesce(*vals)
            return coalesce
        if e.name in ("abs", "tointeger", "tofloat", "tolower",
                      "toupper", "trim", "ltrim", "rtrim", "reverse",
                      "tostring", "round", "floor", "ceil", "sqrt",
                      "sign"):
            af = _compile_expr(e.arg, ctx)
            kern = {"abs": pc.abs,
                    # openCypher toInteger truncates toward zero
                    "tointeger": lambda v: pc.cast(v, pa.int64(),
                                                   safe=False),
                    "tofloat": lambda v: pc.cast(v, pa.float64()),
                    "tolower": pc.utf8_lower,
                    "toupper": pc.utf8_upper,
                    "trim": pc.utf8_trim_whitespace,
                    "ltrim": pc.utf8_ltrim_whitespace,
                    "rtrim": pc.utf8_rtrim_whitespace,
                    "reverse": pc.utf8_reverse,
                    "tostring": lambda v: pc.cast(v, pa.string()),
                    # openCypher/DuckDB round halves AWAY from zero
                    # (Arrow: half_towards_infinity); pc.round's default
                    # is banker's rounding
                    "round": lambda v: pc.round(
                        v, round_mode="half_towards_infinity"),
                    "floor": pc.floor,
                    "ceil": pc.ceil,
                    "sqrt": pc.sqrt,
                    "sign": pc.sign}[e.name]

            def scalar(t, _af=af, _k=kern):
                v = _af(t)
                if not isinstance(v, (pa.Array, pa.ChunkedArray)):
                    v = pa.array([v] * t.num_rows)
                return _k(v)
            return scalar
        if e.name in ("replace", "substring", "split", "left", "right"):
            # multi-arg string functions; trailing args must be literals
            # (the reference hands these straight to DataFusion SQL too,
            # transpiler/mod.rs:1082)
            args = e.arg if isinstance(e.arg, list) else [e.arg]
            arity = {"replace": (3, 3), "substring": (2, 3),
                     "split": (2, 2), "left": (2, 2), "right": (2, 2)}
            lo_n, hi_n = arity[e.name]
            if not (lo_n <= len(args) <= hi_n):
                raise SyntaxError(
                    f"{e.name}() takes {lo_n}"
                    f"{'' if lo_n == hi_n else f'..{hi_n}'} arguments, "
                    f"got {len(args)}")
            sf = _compile_expr(args[0], ctx)
            lits = []
            for a in args[1:]:
                if not isinstance(a, Lit):
                    raise SyntaxError(
                        f"{e.name}() takes literal arguments after the "
                        f"first")
                lits.append(a.value)

            def strfn(t, _sf=sf, _name=e.name, _lits=tuple(lits)):
                v = _sf(t)
                if not isinstance(v, (pa.Array, pa.ChunkedArray)):
                    v = pa.array([v] * t.num_rows)
                if _name == "replace":
                    return pc.replace_substring(v, pattern=_lits[0],
                                                replacement=_lits[1])
                if _name == "substring":
                    # openCypher substring(s, start[, length]) is 0-based
                    start = int(_lits[0])
                    stop = start + int(_lits[1]) if len(_lits) > 1 else None
                    return pc.utf8_slice_codeunits(v, start=start,
                                                   stop=stop)
                if _name == "split":
                    return pc.split_pattern(v, pattern=_lits[0])
                if _name == "left":
                    return pc.utf8_slice_codeunits(v, start=0,
                                                   stop=int(_lits[0]))
                # right(s, n) — Python-style negative start handles
                # strings shorter than n like the openCypher spec;
                # n == 0 would degenerate to start=0 (whole string)
                n_ = int(_lits[0])
                if n_ == 0:
                    return pc.utf8_slice_codeunits(v, start=0, stop=0)
                return pc.utf8_slice_codeunits(v, start=-n_)
            return strfn
        raise SyntaxError(f"aggregate {e.name}() only allowed in RETURN")
    if isinstance(e, Case):
        opf = _compile_expr(e.operand, ctx) if e.operand is not None \
            else None
        branches = [(_compile_expr(w, ctx), _compile_expr(th, ctx))
                    for w, th in e.whens]
        dff = _compile_expr(e.default, ctx)

        def case(t, _opf=opf, _br=tuple(branches), _df=dff):
            n = t.num_rows

            def as_arr(v, typ=None):
                if isinstance(v, pa.ChunkedArray):
                    return v.combine_chunks()
                if isinstance(v, pa.Array):
                    return v
                if v is None:
                    return pa.nulls(n, typ or pa.null())
                # explicit scalar type so a relation's empty table
                # still carries the branch's type
                return pa.array([v] * n, type=pa.scalar(v).type)

            conds = []
            ov = as_arr(_opf(t)) if _opf is not None else None
            for wf, _ in _br:
                c = as_arr(wf(t))
                if ov is not None:
                    c = pc.equal(ov, c)
                # null predicate falls through to the next branch
                conds.append(pc.fill_null(c.cast(pa.bool_()), False))
            vals = [as_arr(tf(t)) for _, tf in _br] + [as_arr(_df(t))]
            # unify the branch result type (int+float ⇒ float64)
            types = [v.type for v in vals if not pa.types.is_null(v.type)]
            if not types:
                typ = pa.null()
            elif any(pa.types.is_floating(ty) for ty in types) and \
                    all(pa.types.is_floating(ty) or pa.types.is_integer(ty)
                        for ty in types):
                typ = pa.float64()
            else:
                typ = types[0]
            vals = [v if v.type.equals(typ) else v.cast(typ) for v in vals]
            out = vals[-1]
            for c, r in zip(reversed(conds), reversed(vals[:-1])):
                out = pc.if_else(c, r, out)
            return out
        return case
    if isinstance(e, Not):
        f = _compile_expr(e.expr, ctx)
        return lambda t: pc.invert(f(t))
    if isinstance(e, BinOp):
        lf = _compile_expr(e.left, ctx)
        if e.op == "is_null":
            # x IS NULL — true exactly on null slots (e.g. the unmatched
            # rows of an OPTIONAL MATCH left-outer join)
            def isnull(t, _lf=lf):
                v = _lf(t)
                if not isinstance(v, (pa.Array, pa.ChunkedArray)):
                    return pa.array([v is None] * t.num_rows)
                return pc.is_null(v)
            return isnull
        if e.op == "in":
            # x IN [literals] — SQL InList semantics (NULL x → NULL, so a
            # WHERE filter drops it), matching the reference transpiler's
            # InList (transpiler/mod.rs:1024-1048); literal-list RHS only
            if not (isinstance(e.right, Lit) and
                    isinstance(e.right.value, list)):
                raise SyntaxError("IN needs a literal list on the right")
            vals = [v for v in e.right.value if v is not None]

            def isin(t, _lf=lf, _vals=vals):
                v = _lf(t)
                if not isinstance(v, (pa.Array, pa.ChunkedArray)):
                    v = pa.array([v] * t.num_rows)
                if not _vals:
                    hit = pa.array(np.zeros(len(v), np.bool_))
                else:
                    vset = pa.array(_vals)
                    if pa.types.is_integer(v.type) and \
                            pa.types.is_integer(vset.type):
                        vset = vset.cast(v.type)
                    hit = pc.is_in(v, value_set=vset)
                null = pa.nulls(len(v), pa.bool_())
                return pc.if_else(pc.is_null(v), null, hit)
            return isin
        rf = _compile_expr(e.right, ctx)
        op = e.op
        kernels = {"=": pc.equal, "<>": pc.not_equal, "<": pc.less,
                   "<=": pc.less_equal, ">": pc.greater,
                   ">=": pc.greater_equal, "+": pc.add, "-": pc.subtract,
                   "*": pc.multiply, "/": pc.divide, "%": _pc_mod,
                   "and": pc.and_kleene, "or": pc.or_kleene,
                   "xor": pc.xor}
        if op in ("contains", "starts_with", "ends_with"):
            if not isinstance(e.right, Lit):
                raise SyntaxError(f"{op} needs a string literal")
            pat = e.right.value
            kern = {"contains": pc.match_substring,
                    "starts_with": pc.starts_with,
                    "ends_with": pc.ends_with}[op]
            return lambda t: kern(lf(t), pattern=pat)
        if op == "regex":
            # x =~ 'pat' matches the WHOLE string in openCypher — anchor
            # the (partial-match) Arrow kernel; pairs with DuckDB's
            # regexp_full_match in oracles
            if not isinstance(e.right, Lit):
                raise SyntaxError("=~ needs a string literal pattern")
            pat = f"^(?:{e.right.value})$"
            return lambda t: pc.match_substring_regex(lf(t), pattern=pat)
        kern = kernels[op]
        return lambda t: kern(lf(t), rf(t))
    raise SyntaxError(f"cannot compile {e!r}")


def _expr_vars(e) -> set:
    if isinstance(e, (Lit,)):
        return set()
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Prop):
        return {e.var}
    if isinstance(e, Func):
        if isinstance(e.arg, list):
            return set().union(*[_expr_vars(a) for a in e.arg])
        return _expr_vars(e.arg) if e.arg is not None else set()
    if isinstance(e, Not):
        return _expr_vars(e.expr)
    if isinstance(e, BinOp):
        return _expr_vars(e.left) | _expr_vars(e.right)
    if isinstance(e, Case):
        out = _expr_vars(e.operand) if e.operand is not None else set()
        for w, th in e.whens:
            out |= _expr_vars(w) | _expr_vars(th)
        return out | _expr_vars(e.default)
    return set()


def _and_terms(e) -> list:
    if isinstance(e, BinOp) and e.op == "and":
        return _and_terms(e.left) + _and_terms(e.right)
    return [e]


def _scan_fn(epat, src_var: str, dst_var: str, ctx: _Ctx, needed: set):
    """One relationship pattern's per-block function → columns
    (src_var, dst_var, evar__*): rename + layer/prop-map filter + column
    prune, all vectorized."""
    evar = epat.var
    if epat.layer is not None and "layer" not in ctx.edge_cols:
        raise KeyError(
            f"relationship type :{epat.layer} used but the graph has no "
            f"'layer' column (columns: {ctx.edge_cols})")
    keep = [] if evar is None else \
        [c for c in ctx.edge_cols if f"{evar}__{c}" in needed]
    emit_src = evar is not None and f"{evar}__src" in needed
    emit_dst = evar is not None and f"{evar}__dst" in needed
    layer, props = epat.layer, dict(epat.props)
    flip = epat.direction == "left"

    def scan(b: pa.Table) -> pa.Table:
        mask = None
        if layer is not None:
            m = pc.equal(b["layer"], layer)
            mask = m if mask is None else pc.and_(mask, m)
        for k, v in props.items():
            col = _EDGE_ALIASES.get(k, k)
            m = pc.equal(b[col], v)
            mask = m if mask is None else pc.and_(mask, m)
        if mask is not None:
            b = b.filter(pc.fill_null(mask, False))
        s, d = (b["dst"], b["src"]) if flip else (b["src"], b["dst"])
        cols = {}
        if src_var == dst_var:      # (B)-[x]->(B): self-loop pattern
            eq = pc.fill_null(pc.equal(s, d), False)
            b = b.filter(eq)
            s, d = (b["dst"], b["src"]) if flip else (b["src"], b["dst"])
            cols[src_var] = s.combine_chunks().cast(pa.int64())
        else:
            cols[src_var] = s.combine_chunks().cast(pa.int64())
            cols[dst_var] = d.combine_chunks().cast(pa.int64())
        if emit_src:
            cols[f"{evar}__src"] = b["src"].combine_chunks().cast(pa.int64())
        if emit_dst:
            cols[f"{evar}__dst"] = b["dst"].combine_chunks().cast(pa.int64())
        for c in keep:
            if c in ("src", "dst"):
                continue
            cols[f"{evar}__{c}"] = b[c].combine_chunks()
        return pa.table(cols)

    return scan


def _edge_scan(epat, src_var: str, dst_var: str, ctx: _Ctx,
               needed: set) -> Relation:
    """One relationship pattern → a map over the frame's edge blocks. An
    undirected pattern matches each edge in both orientations, in the
    same task; a self-loop is matched once."""
    from dataclasses import replace
    scan = _scan_fn(epat, src_var, dst_var, ctx, needed)
    if epat.direction == "undirected":
        fwd = scan
        rev = _scan_fn(replace(epat, direction="left"), src_var, dst_var,
                       ctx, needed)

        def scan(b: pa.Table) -> pa.Table:
            if src_var == dst_var:
                return fwd(b)
            r = rev(b)
            loop = pc.fill_null(pc.equal(r[src_var], r[dst_var]), True)
            return pa.concat_tables([fwd(b), r.filter(pc.invert(loop))])
    return ctx.edges().map(scan)


def _needed_columns(q: Query, ctx: _Ctx) -> set:
    """Edge-variable columns the query references anywhere (WHERE, RETURN,
    ORDER BY, prop maps) — everything else is pruned at the scan."""
    needed: set = set()

    def visit(e):
        if isinstance(e, Var) and e.name in ctx.edge_vars:
            needed.add(f"{e.name}__src")
        elif isinstance(e, Prop) and e.var in ctx.edge_vars:
            needed.add(ctx.edge_col(e.var, e.name))
        elif isinstance(e, Func):
            if e.name == "type" and isinstance(e.arg, Var) \
                    and "layer" in ctx.edge_cols:
                needed.add(f"{e.arg.name}__layer")
            elif e.name in ("startnode", "endnode") \
                    and isinstance(e.arg, Var):
                needed.add(f"{e.arg.name}__src"
                           if e.name == "startnode"
                           else f"{e.arg.name}__dst")
            elif isinstance(e.arg, list):
                for a in e.arg:
                    visit(a)
            elif e.arg is not None:
                visit(e.arg)
        elif isinstance(e, Not):
            visit(e.expr)
        elif isinstance(e, BinOp):
            visit(e.left)
            visit(e.right)
        elif isinstance(e, Case):
            if e.operand is not None:
                visit(e.operand)
            for w, th in e.whens:
                visit(w)
                visit(th)
            visit(e.default)

    if q.where is not None:
        visit(q.where)
    for seg, wc in q.pre:
        if seg.where is not None:
            visit(seg.where)
        for _ocs, ow in seg.optional:
            if ow is not None:
                visit(ow)
        for it in wc.items:
            visit(it.expr)
        if wc.where is not None:
            visit(wc.where)
    for _ocs, ow in q.optional:
        if ow is not None:
            visit(ow)
    for it in q.items:
        if isinstance(it.expr, Var) and it.expr.name in ctx.edge_vars:
            for c in ctx.edge_cols:        # bare `RETURN e` keeps all cols
                needed.add(f"{it.expr.name}__{c}")
            needed.add(f"{it.expr.name}__src")
            needed.add(f"{it.expr.name}__dst")
        else:
            visit(it.expr)
    if q.star:
        for ev in ctx.edge_vars:
            for c in ctx.edge_cols:
                needed.add(f"{ev}__{c}")
            needed.add(f"{ev}__src")
            needed.add(f"{ev}__dst")
    for e, _asc in q.order_by:
        visit(e)
    return needed


def _apply_where(rel: Relation, pending: list, bound: set, ctx: _Ctx):
    """Attach every pending WHERE term whose variables are all bound."""
    ready = [t for t, vs in pending if vs <= bound]
    rest = [(t, vs) for t, vs in pending if not vs <= bound]
    if ready:
        rel = rel.map(_row_filter(ready, ctx))
    return rel, rest


def _row_filter(terms: list, ctx: _Ctx):
    """WHERE terms → one block function keeping the rows where every term
    holds (null counts as false)."""
    fns = [_compile_expr(t, ctx) for t in terms]

    def filt(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        m = None
        for f in fns:
            v = _as_mask(f(b), b.num_rows)
            m = v if m is None else pc.and_kleene(m, v)
        return b.filter(pc.fill_null(m, False))

    return filt


def _node_filters(npat, var: str, ctx: _Ctx) -> list:
    """(n:Label {k: v}) → synthetic WHERE terms on the node variable."""
    terms = []
    if npat.label is not None:
        terms.append(BinOp("=", Prop(var, "node_type"), Lit(npat.label)))
    for k, v in npat.props.items():
        terms.append(BinOp("=", Prop(var, k), Lit(v)))
    return terms




def _pair_key64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a * np.int64(2**31) + b     # vids < 2^31 by engine contract


@ray.remote(num_returns=1)
def _closure_seed(sv: str, inner: str, *pieces: pa.Table) -> pa.Table:
    """One seen-partition: distinct level-1 pairs landing here."""
    good = [t for t in pieces if t.num_rows]
    empty = pa.table({sv: pa.array([], pa.int64()),
                      inner: pa.array([], pa.int64())})
    if not good:
        return empty
    t = pa.concat_tables(good).select([sv, inner])
    a = t[sv].to_numpy(zero_copy_only=False)
    b = t[inner].to_numpy(zero_copy_only=False)
    _, idx = np.unique(_pair_key64(a, b), return_index=True)
    return t.take(pa.array(np.sort(idx)))


@ray.remote(num_returns=3)
def _closure_diff(seen: pa.Table, sv: str, inner: str, *pieces: pa.Table):
    """One seen-partition level step: (new_seen, new_pairs, new_count).
    Candidates minus seen via sorted pair-key searchsorted; seen is
    functionally extended (the old object stays immutable in plasma)."""
    good = [t for t in pieces if t.num_rows]
    empty = pa.table({sv: pa.array([], pa.int64()),
                      inner: pa.array([], pa.int64())})
    if not good:
        return seen, empty, 0
    t = pa.concat_tables(good).select([sv, inner])
    a = t[sv].to_numpy(zero_copy_only=False)
    b = t[inner].to_numpy(zero_copy_only=False)
    key, idx = np.unique(_pair_key64(a, b), return_index=True)
    sa = seen[sv].to_numpy(zero_copy_only=False)
    sb = seen[inner].to_numpy(zero_copy_only=False)
    skey = np.sort(_pair_key64(sa, sb))
    if len(skey):
        pos = np.minimum(np.searchsorted(skey, key), len(skey) - 1)
        fresh = skey[pos] != key
    else:
        fresh = np.ones(len(key), bool)
    if not fresh.any():
        return seen, empty, 0
    new = t.take(pa.array(np.sort(idx[fresh])))
    return pa.concat_tables([seen, new]), new, new.num_rows


def _closure_levels(base: Relation, frontier: Relation, sv: str,
                    inner: str, mid: str, start_k: int, P, tag,
                    ren) -> list:
    """BFS levels start_k+1.. of the unbounded reachability closure: the
    frontier starts as the level-start_k WALK set (so [*lo..] keeps
    Cypher walk semantics — a pair whose shortest walk is shorter than lo
    still matches through a longer walk), each level extends only the
    newly-discovered pairs, and the loop terminates when a level finds
    none. Returns the tagged level relations."""
    fr = frontier.nonempty()
    P2 = num_partitions(sum(fr.rows), per=exchange.FANOUT_ROWS_PER_PARTITION)
    seen = [_closure_seed.remote(sv, inner, *col)
            for col in shuffle(_route, fr.refs, P2, [sv, inner])]
    levels = []
    cur = fr
    k = start_k
    while True:
        k += 1
        if k > 100_000:                # backstop; seen is monotone, so
            raise RuntimeError("varlen closure exceeded 100000 levels")
        cand = aggregate(hash_join(ren(cur, inner, mid), ren(base, sv, mid),
                                   [mid], P), [sv, inner], []).nonempty()
        if not cand.refs:
            break
        outs = [_closure_diff.remote(seen[p], sv, inner, *col)
                for p, col in enumerate(
                    shuffle(_route, cand.refs, P2, [sv, inner]))]
        seen = [o[0] for o in outs]
        counts = ray.get([o[2] for o in outs])
        if sum(counts) == 0:
            break
        cur = Relation([o[1] for o, n in zip(outs, counts) if n],
                       cand.empty, [n for n in counts if n])
        levels.append(tag(cur, k))
    return levels


def _varlen_hop(gf, ep, sv: str, dv: str, ctx: _Ctx, pending: list,
                P: int | None) -> Relation:
    """``(sv)-[:L*lo..hi]->(dv)`` → relation of DISTINCT (sv, dv) pairs
    connected by a path of length k ∈ [lo, hi] over the DISTINCT
    layer/prop-filtered edge set (frontier-dedup reachability, NOT path
    enumeration — each expansion level dedups to pairs, so the work per
    level is bounded by distinct pairs, and the semantics match a
    recursive CTE with UNION over (a, b, k)). The reference's grammar
    accepts a RangeLiteral (raphtory-cypher/src/parser/cypher.pest:204)
    but its RelPattern AST drops it, so semantics here follow openCypher
    reachability with per-level dedup.

    Scale notes: each level is one distributed hash join + one distinct
    shuffle, both bounded by the distinct reachable-pair count; the base
    edge set is computed ONCE (blocks in the object store) and reused by
    every level. Path-start WHERE terms (vars ⊆ {sv}) are consumed here
    and applied to the initial frontier so the expansion never grows
    paths that would be filtered at the end.

    A named binding ``[r*lo..hi]`` additionally carries the MINIMUM hop
    count per pair as column ``r__hops`` (levels tagged with k, group-min
    combine) — ``length(r)``/``size(r)`` read it, giving shortest-path
    length within the bound."""
    from dataclasses import replace
    lo, hi = ep.var_length
    hopcol = f"{ep.var}__hops" if ep.var is not None else None

    def _tag(rel: Relation, k: int) -> Relation:
        if hopcol is None:
            return rel

        def f(b: pa.Table, _k=k) -> pa.Table:
            return b.append_column(
                hopcol, pa.array(np.full(b.num_rows, _k), pa.int64()))
        return rel.map(f)
    if lo < 0 or (hi is not None and hi < lo):
        raise SyntaxError(f"bad variable-length range *{lo}..{hi}")

    inner = dv if dv != sv else ctx.fresh("v")
    keep = [sv] + ([hopcol] if hopcol is not None else [])
    zero_levels = []
    if lo == 0:
        # zero-length paths (round 5): [*0..hi] binds the endpoint to the
        # START node itself — one identity row per vertex, 0 hops, no edge
        # traversed (so edge layer/property filters don't apply; path-start
        # WHERE terms do). Reference: raphtory-cypher/src/hop/rule.rs
        # (hop expansion over an optional zero-length base).
        if gf.vertices is not None:
            vids = gf.vertices["vid"].combine_chunks()
        else:
            vids = pa.array(np.arange(gf.n), pa.int64())
        zrel = Relation.of(pa.table({sv: vids, inner: vids}))
        zpend = [(t, vs) for t, vs in pending if vs <= {sv}]
        if zpend:
            zrel, _ = _apply_where(zrel, zpend, {sv}, ctx)
        zero_levels = [_tag(zrel, 0)]
        lo = 1
        if hi == 0:
            # pure identity pattern [*0..0] / [*0]
            if inner != dv:            # (a)-[*0]->(a): identity always
                return zero_levels[0].map(lambda b: b.select(keep))
            return zero_levels[0]
    scan = _edge_scan(replace(ep, var_length=None, var=None), sv, inner,
                      ctx, set())
    # distinct simple edges (after layer/prop filters) — the CTE's base
    base = aggregate(scan, [sv, inner], [])
    # path-START restriction: filter the initial frontier only; the
    # intermediate/base edge set stays unrestricted
    frontier = base
    if any(vs <= {sv} for _t, vs in pending):
        frontier, rest = _apply_where(base, pending, {sv}, ctx)
        pending[:] = rest              # consumed in place for the caller
        if hi is None or hi > 1:
            frontier = frontier.blocks()   # feeds level 1 and level 2
    levels = zero_levels + ([_tag(frontier, 1)] if lo <= 1 else [])
    mid = ctx.fresh("m")

    def _ren(rel: Relation, old: str, new: str) -> Relation:
        def f(b: pa.Table) -> pa.Table:
            return b.rename_columns(
                [new if c == old else c for c in b.column_names])
        return rel.map(f)

    def _step(cur: Relation) -> Relation:
        return aggregate(hash_join(_ren(cur, inner, mid),
                                   _ren(base, sv, mid), [mid], P),
                         [sv, inner], [])

    cur = frontier
    if hi is None:
        # unbounded [*lo..] (round 5): walk-expand to the floor level lo
        # (same per-level join as the bounded path — Cypher walk
        # semantics), then BFS fixpoint to the reachability closure. The
        # discovered-pair set lives PARTITIONED in the object store
        # (hash(sv, inner) partitions, functionally updated per level);
        # each closure level joins only the NEW frontier against the
        # base, so total join work is O(closure), not O(levels × closure).
        for _k in range(2, lo + 1):
            cur = _step(cur)
        if lo > 1:
            levels.append(_tag(cur, lo))
        levels += _closure_levels(base, cur, sv, inner, mid, max(lo, 1),
                                  P, _tag, _ren)
        if not levels:                 # lo > reached depth: empty result
            levels = [_tag(Relation([], base.empty), lo)]
    else:
        for k in range(2, hi + 1):
            cur = _step(cur)
            if k >= lo:
                levels.append(_tag(cur, k))
    rel = levels[0]
    if len(levels) > 1:
        # min hop count per pair — a pair found at level 2 may reappear
        # at level 3; shortest wins (BFS level)
        rel = aggregate(rel.union(*levels[1:]), [sv, inner],
                        [Agg(hopcol, "min", hopcol)]
                        if hopcol is not None else [])
    if inner != dv:                        # (a)-[*..k]->(a): close cycle
        def close(b: pa.Table) -> pa.Table:
            m = pc.fill_null(pc.equal(b[sv], b[inner]), False)
            return b.filter(m).select(keep)
        rel = rel.map(close)
        if hopcol is not None:
            rel = aggregate(rel, [sv], [Agg(hopcol, "min", hopcol)])
    return rel


def _compose_chains(gf, ctx: _Ctx, chains: list, pending: list, carry,
                    needed: set, P: int | None):
    """Compose one segment's MATCH chains (scan → join → scan → join ...)
    and join them — plus the carried WITH output, if any — on shared
    variables. Returns (relation, bound, pending)."""
    chain_results = []
    if carry is not None:
        crel, cvis = carry
        crel, pending = _apply_where(crel, pending, cvis, ctx)
        chain_results.append((crel, set(cvis)))
    for ch in chains:
        if not ch.edges:               # MATCH (n): all vertices
            if gf.vertices is not None:
                vids = gf.vertices["vid"].combine_chunks()
            else:
                vids = pa.array(np.arange(gf.n), pa.int64())
            bound = {ch.nodes[0].var}
            rel, pending = _apply_where(
                Relation.of(pa.table({ch.nodes[0].var: vids})), pending,
                bound, ctx)
            chain_results.append((rel, bound))
            continue
        rel, bound = None, set()
        for hop, ep in enumerate(ch.edges):
            sv, dv = ch.nodes[hop].var, ch.nodes[hop + 1].var
            if ep.var_length is not None:
                scan = _varlen_hop(gf, ep, sv, dv, ctx, pending, P)
                scan_vars = set(scan.empty.column_names) \
                    | ({ep.var} if ep.var else set())
            else:
                scan = _edge_scan(ep, sv, dv, ctx, needed)
                # pushdown: terms over only this scan's vars filter the
                # scan BEFORE it enters the join (shrinks the shuffle)
                scan_vars = {sv, dv} | ({ep.var} if ep.var else set())
                scan, pending = _apply_where(scan, pending, scan_vars,
                                             ctx)
            if rel is None:
                rel = scan
            else:
                shared = sorted(bound & {sv, dv})
                if not shared:
                    raise NotImplementedError(
                        "disconnected hop within a chain")
                # joining on a var the scan re-binds: both sides carry it
                rel = hash_join(rel, scan, shared, P)
            bound |= scan_vars
            rel, pending = _apply_where(rel, pending, bound, ctx)
        chain_results.append((rel, bound))

    # ---- join chains (and the WITH carry) on shared variables
    rel, bound = chain_results[0]
    for other, ovars in chain_results[1:]:
        shared = sorted(bound & ovars)
        if shared:
            rel = hash_join(rel, other, shared, P)
        else:
            # variable-disjoint patterns: first mine pending WHERE
            # equalities that bridge the two sides and use them as
            # distributed join keys (the reference's DataFusion planner
            # turns such predicates into equi-joins too); a genuinely
            # unconstrained product falls back to a guarded broadcast
            # cross join (small side shipped once via the object store).
            pairs, pending = _bridge_eqs(pending, bound, ovars)
            if pairs:
                keys = [f"__bk{i}" for i in range(len(pairs))]
                rel = hash_join(
                    _with_key_cols(rel, [p[0] for p in pairs], keys, ctx),
                    _with_key_cols(other, [p[1] for p in pairs], keys, ctx),
                    keys, P).map(lambda b, _k=tuple(keys):
                                 b.drop_columns(list(_k)))
            else:
                rel = _cross_join(rel, other)
        bound |= ovars
        rel, pending = _apply_where(rel, pending, bound, ctx)
    return rel, bound, pending


def _bridge_eqs(pending: list, bound: set, ovars: set):
    """Pull pending ``=`` terms whose sides reference the two
    variable-disjoint inputs exclusively → [(left_expr, right_expr)]
    oriented (bound-side, other-side), plus the untouched remainder."""
    pairs, rest = [], []
    for t, vs in pending:
        if isinstance(t, BinOp) and t.op == "=":
            lv, rv = _expr_vars(t.left), _expr_vars(t.right)
            if lv and rv:
                if lv <= bound and rv <= ovars:
                    pairs.append((t.left, t.right))
                    continue
                if rv <= bound and lv <= ovars:
                    pairs.append((t.right, t.left))
                    continue
        rest.append((t, vs))
    return pairs, rest


def _with_key_cols(rel: Relation, exprs: list, names: list,
                   ctx: _Ctx) -> Relation:
    """Append synthetic int64 join-key columns computed from compiled
    expressions (vectorized per block). Non-integer-valued keys (string
    or float equality joins) are out of the int64 hash-route's domain;
    the check runs on the relation's empty table first, so such a query
    fails before any task starts."""
    fns = [_compile_expr(e, ctx) for e in exprs]

    def add(b: pa.Table) -> pa.Table:
        for nm, fn in zip(names, fns):
            v = fn(b)
            if not isinstance(v, (pa.Array, pa.ChunkedArray)):
                v = pa.array([v] * b.num_rows, type=pa.scalar(v).type)
            if not pa.types.is_integer(v.type):
                raise NotImplementedError(
                    "cross-pattern equality join needs integer-valued "
                    f"key expressions, got {v.type}")
            b = b.append_column(nm, v.cast(pa.int64()))
        return b

    return rel.map(add)


# rows of the smaller side above which a cartesian product is refused
_CROSS_CAP = 200_000


@ray.remote
def _concat(empty: pa.Table, *parts: pa.Table) -> pa.Table:
    return pa.concat_tables([empty, *parts],
                            promote_options="default").combine_chunks()


def _cross_join(left: Relation, right: Relation) -> Relation:
    """Cartesian product of two variable-disjoint pattern results with no
    bridging predicate. The smaller side is capped at _CROSS_CAP rows (an
    unguarded product is never the right plan at scale) and concatenated
    ONCE into one object-store table; each block of the other side emits
    the repeat×tile combination — vectorized takes, no per-row Python."""
    left, right = left.blocks(), right.blocks()
    left, right = left.nonempty(), right.nonempty()
    cl, cr = sum(left.rows), sum(right.rows)
    if min(cl, cr) > _CROSS_CAP:
        raise NotImplementedError(
            f"cartesian product across patterns: both sides exceed "
            f"{_CROSS_CAP} rows ({cl} x {cr}); add a bridging WHERE "
            "equality (compiled to a distributed equi-join)")
    if cl < cr:                      # broadcast the smaller side
        left, right = right, left
    empty = _cross_schema(left.empty, right.empty)
    if cl == 0 or cr == 0:
        return Relation([], empty)
    small_ref = _concat.remote(right.empty, *right.refs)

    def prod(b: pa.Table, _ref=small_ref) -> pa.Table:
        s: pa.Table = ray.get(_ref)
        n, m = b.num_rows, s.num_rows
        return _cross_schema(b.take(pa.array(np.repeat(np.arange(n), m))),
                             s.take(pa.array(np.tile(np.arange(m), n))))

    return left.map(prod, empty)


def _cross_schema(lt: pa.Table, rt: pa.Table) -> pa.Table:
    for name, col in zip(rt.column_names, rt.columns):
        lt = lt.append_column(name, col)
    return lt


def cypher(gf, query: str, P: int | None = None):
    """Run a Cypher-subset query against a GraphFrame. Returns a
    ray.data.Dataset (streaming) whose columns are the RETURN items
    (aliased with AS, else the expression text). Supports WITH pipeline
    stages (projection / implicit-group aggregation / DISTINCT, with a
    HAVING-like WHERE) and bounded variable-length patterns [*lo..hi].
    The pattern work runs on block relations; the returned Dataset wraps
    their blocks, so over a materialized frame this call starts no Ray
    Data execution."""
    q = parse_cypher(query)
    edges = functools.cache(gf.relation)    # read once, by the first scan
    if not q.union:
        rel, _names, tail = _compile_one(gf, q, P, edges)
        return tail(rel.to_dataset())
    # UNION [ALL]: compile each branch independently (own variable
    # scope), require matching output columns, stream-union the
    # branches; plain UNION dedups across the combined rows. A trailing
    # ORDER BY / SKIP / LIMIT (written on the last branch) applies to
    # the COMBINED result — SQL semantics, which is what the reference's
    # DataFusion transpile produces; they are disallowed on earlier
    # branches.
    alls = {a for _sub, a in q.union}
    if len(alls) > 1:
        raise SyntaxError("cannot mix UNION and UNION ALL")
    last = q.union[-1][0]
    order_by, skip, limit = last.order_by, last.skip, last.limit
    last.order_by, last.skip, last.limit = [], None, None
    for sub in [q] + [s for s, _a in q.union[:-1]]:
        if sub.order_by or sub.skip is not None or sub.limit is not None:
            raise SyntaxError("ORDER BY / SKIP / LIMIT inside a UNION "
                              "branch — write it after the last branch "
                              "(it orders the combined result)")
    branches = [_compile_one(gf, q, P, edges)] + \
        [_compile_one(gf, sub, P, edges) for sub, _a in q.union]
    cols = branches[0][1]
    for _rel, names, _tail in branches[1:]:
        if names != cols:
            raise SyntaxError(
                f"UNION branches must return the same columns: "
                f"{cols} vs {names}")
    rel = branches[0][0].union(*[r for r, _n, _t in branches[1:]])
    if not alls.pop():
        rel = aggregate(rel, cols, [])
    out = rel.to_dataset()
    if order_by:
        order_cols = []
        for e, _asc in order_by:
            match = next((it for it in last.items
                          if expr_text(it.expr) == expr_text(e)
                          or (it.alias and isinstance(e, Var)
                              and e.name == it.alias)), None)
            if match is None:
                raise SyntaxError("ORDER BY after UNION must reference "
                                  "returned columns")
            order_cols.append(_out_name(match))
        out = out.sort(order_cols,
                       descending=[not asc for _e, asc in order_by])
    if skip:
        if limit is not None:
            out = out.limit(skip + limit)
        out = out.split_at_indices([skip])[1]
    elif limit is not None:
        out = out.limit(limit)
    return out


def _compile_one(gf, q: Query, P: int | None, edges):
    """Compile one UNION-free Query → (relation of the RETURN rows,
    output column names, the ORDER BY / SKIP / LIMIT tail for its
    Dataset)."""
    ctx = _Ctx(gf, edges)

    segments = [(seg.chains, seg.where, seg.optional, wc)
                for seg, wc in q.pre]
    segments.append((q.chains, q.where, q.optional, None))

    # name anonymous node vars; classify (anonymous edges stay unnamed —
    # their scans emit no edge columns at all)
    for chains, _w, optional, _wc in segments:
        for ch in chains + [c for ocs, _ow in optional for c in ocs]:
            for np_ in ch.nodes:
                if np_.var is None:
                    np_.var = ctx.fresh("n")
                ctx.node_vars.add(np_.var)
            for ep in ch.edges:
                if ep.var is not None:
                    if ep.var in ctx.edge_vars | ctx.varlen_vars:
                        raise SyntaxError(
                            f"edge variable {ep.var!r} bound twice")
                    if ep.var_length is not None:
                        # [r*lo..hi]: r binds the pair's MINIMUM hop
                        # count, readable as length(r)/size(r) — list
                        # bindings are not supported (reachability
                        # semantics, see _varlen_hop)
                        ctx.varlen_vars.add(ep.var)
                    else:
                        ctx.edge_vars.add(ep.var)

    if q.star and q.pre:
        # RETURN * after WITH: in scope = the last WITH's projected names
        # plus variables bound by the FINAL MATCH segment
        wc = q.pre[-1][1]
        names = {it.alias or expr_text(it.expr) for it in wc.items}
        for ch in q.chains:
            for np_ in ch.nodes:
                if np_.var not in ctx.anon_vars:
                    names.add(np_.var)
            for ep in ch.edges:
                if ep.var is not None and ep.var not in ctx.varlen_vars:
                    # a [r*lo..hi] binding is not a projectable scalar
                    # (length(r) is) — skip it, matching plain RETURN *
                    names.add(ep.var)
        q.items = [ReturnItem(Var(n), None) for n in sorted(names)]
    elif q.star:
        items = []
        for v in sorted(ctx.node_vars):
            if v not in ctx.anon_vars:
                items.append(ReturnItem(Var(v), None))
        for v in sorted(ctx.edge_vars):
            items.append(ReturnItem(Var(v), None))
        if not items:
            # MATCH ()-[]->() RETURN * — the reference names the anonymous
            # relationship binding r_1 and selects its columns (transpiler
            # test select_unnamed: SELECT * FROM r_1); late-name the anon
            # edges so their scans emit columns
            k = 0
            for chains, _w, _o, _wc in segments:
                for ch in chains:
                    for ep in ch.edges:
                        if ep.var is None and ep.var_length is None:
                            k += 1
                            ep.var = f"r_{k}"
                            ctx.edge_vars.add(ep.var)
                            items.append(ReturnItem(Var(ep.var), None))
        if not items:
            raise SyntaxError("RETURN * with no variables in scope")
        q.items = items

    needed = _needed_columns(q, ctx)

    carry = None
    if q.unwind:
        # leading UNWIND literal lists → a small driver-built bindings
        # table carried into the first segment; it joins the patterns
        # via bridged equalities or the guarded broadcast cross join
        import itertools
        names = [n for _v, n in q.unwind]
        if len(set(names)) != len(names):
            raise SyntaxError("duplicate UNWIND variable")
        rows = list(itertools.product(*[v for v, _n in q.unwind]))
        ut = pa.table({n: pa.array([r[i] for r in rows])
                       for i, n in enumerate(names)})
        ctx.col_vars |= set(names)
        carry = (Relation.of(ut), set(names))
    for chains, where, optional, wc in segments:
        pending = [(t, _expr_vars(t)) for t in
                   (_and_terms(where) if where is not None else [])]
        for ch in chains:
            for np_ in ch.nodes:
                for t in _node_filters(np_, np_.var, ctx):
                    pending.append((t, {np_.var}))
        rel, bound, pending = _compose_chains(
            gf, ctx, chains, pending, carry, needed, P)
        if pending:
            raise KeyError(f"WHERE references unbound variables: "
                           f"{[expr_text(t) for t, _ in pending]}")
        for ochains, owhere in optional:
            rel, bound = _attach_optional(
                gf, ctx, rel, bound, ochains, owhere, needed, P)
        if wc is None:
            return _project_and_finish(rel, q, ctx)
        carry = _apply_with(rel, wc, ctx)
    raise AssertionError("unreachable: final segment returns")


def _attach_optional(gf, ctx: _Ctx, rel: Relation, bound: set,
                     ochains: list, owhere, needed: set, P: int | None):
    """OPTIONAL MATCH = the pattern compiled standalone (its WHERE is
    part of the pattern, openCypher semantics), then a LEFT OUTER hash
    join with the rows so far on the shared variables — unmatched rows
    keep nulls in the optional pattern's columns."""
    pending = [(t, _expr_vars(t)) for t in
               (_and_terms(owhere) if owhere is not None else [])]
    for ch in ochains:
        for np_ in ch.nodes:
            for t in _node_filters(np_, np_.var, ctx):
                pending.append((t, {np_.var}))
    orel, obound, pending = _compose_chains(
        gf, ctx, ochains, pending, None, needed, P)
    if pending:
        raise KeyError(
            "OPTIONAL MATCH ... WHERE may only reference the optional "
            f"pattern's own variables; unbound: "
            f"{[expr_text(t) for t, _ in pending]}")
    shared = sorted(bound & obound)
    if shared:
        return (hash_join(rel, orel, shared, P, join_type="left outer"),
                bound | obound)
    # variable-disjoint OPTIONAL MATCH (round 5; Neo4j semantics):
    # cartesian product when the optional pattern matched anything,
    # otherwise every left row survives with nulls in the optional
    # columns
    orel = orel.nonempty()
    if orel.refs:
        return _cross_join(rel, orel), bound | obound
    ocols = [(f.name, f.type) for f in orel.empty.schema]

    def pad(b: pa.Table) -> pa.Table:
        for name, typ in ocols:
            if name not in b.column_names:
                b = b.append_column(name, pa.nulls(b.num_rows, typ))
        return b

    return rel.map(pad), bound | obound


# ------------------------------------------------- RETURN / aggregation

def _out_name(it: ReturnItem) -> str:
    return it.alias or expr_text(it.expr)


_AGG_FNS = {"count", "sum", "avg", "min", "max", "collect",
            "stdev", "stdevp", "percentilecont", "percentiledisc"}

def _agg_input_expr(f):
    """The VALUE expression an aggregate consumes. percentileCont/Disc
    take (expr, p) — the column input is the first arg; p is extracted
    separately by _pct_param."""
    if f.name in _PCT_FNS:
        if not isinstance(f.arg, list) or len(f.arg) != 2:
            raise SyntaxError(f"{f.name}() takes (expression, percentile)")
        return f.arg[0]
    return f.arg


def _pct_param(f) -> float:
    if not isinstance(f.arg, list) or len(f.arg) != 2 \
            or not isinstance(f.arg[1], Lit):
        raise SyntaxError(f"{f.name}() needs a literal percentile")
    p = float(f.arg[1].value)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"percentile {p} outside [0, 1]")
    return p


def _is_agg(e) -> bool:
    return isinstance(e, Func) and e.name in _AGG_FNS


def _projection(named: list, ctx: _Ctx):
    """(name, expr) pairs → one block function building those columns.
    A literal is typed FROM THE VALUE even on an empty block —
    pa.array([]) would be null-typed, and this also runs on the
    relation's empty table, whose columns must agree with every data
    block. With no columns the block keeps its row count (a global
    count(*))."""
    fns = [(name, _compile_expr(e, ctx)) for name, e in named]

    def project(b: pa.Table) -> pa.Table:
        n = b.num_rows
        cols = {}
        for name, f in fns:
            v = f(b)
            if not isinstance(v, (pa.Array, pa.ChunkedArray)):
                v = pa.array([v]).slice(0, 0) if n == 0 \
                    else pa.array([v] * n)
            cols[name] = v
        return pa.table(cols) if cols else b.select([])

    return project


def _group_rows(rel: Relation, proj: list, aggs: list, distinct: bool,
                ctx: _Ctx) -> Relation:
    """The rows of a RETURN or WITH: the (name, expr) columns of ``proj``
    plus each aggregate's input, grouped by the ``proj`` columns through
    core's ``aggregate`` when there are aggregates or DISTINCT (the
    projection composes into its per-block partial task)."""
    names = [name for name, _ in proj]
    specs = []
    inputs = []
    for i, it in enumerate(aggs):
        f: Func = it.expr
        col = None
        if f.arg is not None:
            col = f"__agg{i}"
            inputs.append((col, _agg_input_expr(f)))
        specs.append(Agg(_out_name(it), f.name, col, f.distinct,
                         _pct_param(f) if f.name in _PCT_FNS else 0.0))
    rel = rel.map(_projection(proj + inputs, ctx))
    if specs or distinct:
        return aggregate(rel, names, specs)
    return rel


def _project_and_finish(rel: Relation, q: Query, ctx: _Ctx):
    """RETURN items → final columns (_group_rows: aggregates, DISTINCT).
    Returns (relation, output names, tail): the tail runs ORDER BY
    (ds.sort), SKIP and LIMIT (ds.limit) on the Dataset of the
    relation."""
    aggs = [it for it in q.items if _is_agg(it.expr)]
    keys = [it for it in q.items if not _is_agg(it.expr)]

    # materialize every non-aggregate output column (+ hidden sort cols)
    hidden = []
    order_cols = []
    for i, (e, _asc) in enumerate(q.order_by):
        match = next((it for it in q.items
                      if expr_text(it.expr) == expr_text(e)
                      or (it.alias and isinstance(e, Var)
                          and e.name == it.alias)), None)
        if match is not None:
            order_cols.append(_out_name(match))
        else:
            if aggs:
                raise SyntaxError("ORDER BY on a non-returned expression "
                                  "is not supported with aggregates")
            if q.distinct:
                # openCypher: with DISTINCT, ORDER BY may only reference
                # returned columns — a hidden sort column would silently
                # leak into the dedup key and break DISTINCT
                raise SyntaxError("ORDER BY with DISTINCT must reference "
                                  "returned columns")
            h = f"__ord{i}"
            hidden.append((h, e))
            order_cols.append(h)

    def _expand(it: ReturnItem, ctx: _Ctx) -> list:
        """bare edge var → one column per edge field, Cypher-style
        `e.src` naming; bare node var → id column."""
        e = it.expr
        if isinstance(e, Var) and e.name in ctx.edge_vars:
            cols = []
            cols.append((f"{e.name}.src", Prop(e.name, "src")))
            cols.append((f"{e.name}.dst", Prop(e.name, "dst")))
            for c in ctx.edge_cols:
                if c in ("src", "dst"):
                    continue
                cols.append((f"{e.name}.{c}", Prop(e.name, c)))
            if it.alias:
                raise SyntaxError("cannot alias a whole edge variable")
            return cols
        return [(_out_name(it), e)]

    proj: list = []
    for it in keys:
        proj.extend(_expand(it, ctx))
    rel = _group_rows(rel, proj + hidden, aggs, q.distinct, ctx)
    key_names = [name for name, _ in proj]

    def tail(ds):
        if order_cols:
            ds = ds.sort(order_cols,
                         descending=[not asc for _e, asc in q.order_by])
        if hidden:
            ds = ds.map_batches(
                lambda b: b.drop_columns([h for h, _ in hidden]),
                batch_format="pyarrow", zero_copy_batch=True)
        if q.skip:
            if q.limit is not None:
                # SKIP+LIMIT pagination: pull only skip+limit rows through
                # the (sorted) stream, then drop the first skip — bounded
                # work regardless of input size
                ds = ds.limit(q.skip + q.limit)
            # no LIMIT: a global row offset needs materialized block counts
            ds = ds.split_at_indices([q.skip])[1]
        elif q.limit is not None:
            ds = ds.limit(q.limit)
        return ds

    out_names = key_names if not aggs else \
        key_names + [_out_name(it) for it in aggs]
    return rel, out_names, tail


def _apply_with(rel: Relation, wc, ctx: _Ctx):
    """Execute one WITH clause over the segment's bindings: project the
    items (implicit grouping by the non-aggregate items, exactly like
    RETURN), apply DISTINCT, then the clause's WHERE (openCypher's
    HAVING-equivalent: it filters the PROJECTED rows). Returns the carry
    pair (relation, visible names) for the next segment, and registers
    the new column/node visibility on ctx."""
    aggs = [it for it in wc.items if _is_agg(it.expr)]
    keys = [it for it in wc.items if not _is_agg(it.expr)]
    if wc.distinct and aggs:
        raise SyntaxError("WITH DISTINCT cannot combine with aggregates")

    proj: list = []
    new_nodes: set = set()
    new_cols: set = set()
    for it in keys:
        name = _out_name(it)
        if isinstance(it.expr, Var) and it.expr.name in ctx.edge_vars:
            raise NotImplementedError(
                "cannot carry a bare edge variable through WITH — "
                "project the fields you need (e.t AS t, ...)")
        proj.append((name, it.expr))
        if isinstance(it.expr, Var) and it.expr.name in ctx.node_vars:
            new_nodes.add(name)        # node-id passthrough (maybe aliased)
        else:
            new_cols.add(name)
    new_cols |= {_out_name(it) for it in aggs}
    rel = _group_rows(rel, proj, aggs, wc.distinct, ctx)

    ctx.node_vars |= new_nodes
    ctx.col_vars |= new_cols
    visible = new_nodes | new_cols

    if wc.where is not None:
        terms = _and_terms(wc.where)
        for t in terms:
            missing = _expr_vars(t) - visible
            if missing:
                raise KeyError(f"WITH ... WHERE references names not "
                               f"projected by the WITH: {sorted(missing)}")
        rel = rel.map(_row_filter(terms, ctx))
    return rel, visible
