"""Block relations: Arrow block refs in the object store, with their schema.

A ``Relation`` is a list of Arrow block refs plus ``empty``, a zero-row
Arrow table with the relation's columns and types. The schema travels
with the blocks, so an operator over no rows still knows its output
columns, and no Ray Data execution starts inside an operator: every step
is a plain task per block or per hash partition.

- ``map(fn)`` adds a per-block function. Consecutive maps compose: the
  next task over the blocks (``blocks()``, a join, an aggregate's partial)
  applies them all, as a GraphFrame's pending view predicates do.
- ``blocks()`` runs the pending maps, one task per block, and keeps each
  block's row count as a ref; ``counts()`` resolves them and
  ``nonempty()`` drops the empty blocks.
- ``union`` concatenates block lists. Hash routes go through
  ``core/exchange`` (``route_refs``, ``shuffle``).
- ``from_dataset`` (one materialize) and ``to_dataset`` (no execution)
  are the boundaries to Ray Data.

A relation never holds a zero-column block: ``from_dataset`` drops the
empty blocks of its input (Ray Data leaves an empty mapped block without
columns), and a task's output keeps the schema of its input.
"""

from __future__ import annotations

import pyarrow as pa
import ray


def empty_table(schema) -> pa.Table:
    """Zero-row table of an Arrow or Ray Data schema."""
    return pa.table({n: pa.array([], t)
                     for n, t in zip(schema.names, schema.types)})


@ray.remote(num_returns=2)
def _map_block(block: pa.Table, fns: tuple):
    for f in fns:
        block = f(block)
    return block, block.num_rows


@ray.remote
def _num_rows(block: pa.Table) -> int:
    return block.num_rows


class Relation:
    """Arrow block refs (``refs``), their row counts before the pending
    maps (``rows``: per block an int, a ref to one, or None when unknown),
    the pending per-block functions (``fns``) and the zero-row table of
    the relation's schema after them (``empty``)."""

    def __init__(self, refs: list, empty: pa.Table, rows: list | None = None,
                 fns: tuple = ()):
        self.refs = list(refs)
        self.empty = empty
        self.rows = list(rows) if rows is not None else [None] * len(refs)
        self.fns = tuple(fns)

    @classmethod
    def of(cls, table: pa.Table) -> "Relation":
        """An in-process table as a relation of one block (none when empty)."""
        if not table.num_rows:
            return cls([], table)
        return cls([ray.put(table)], table.slice(0, 0), [table.num_rows])

    @classmethod
    def from_dataset(cls, ds, empty: pa.Table | None = None) -> "Relation":
        """A Dataset's non-empty blocks; one execution unless ``ds`` is
        materialized. ``empty`` types the relation (default: the
        Dataset's schema)."""
        from ray.data.dataset import MaterializedDataset
        mat = ds if isinstance(ds, MaterializedDataset) else ds.materialize()
        # a materialized Dataset that was never read (rd.from_arrow) keeps
        # its blocks' metadata from here on; the reads below would each
        # start a Ray Data execution otherwise
        mat._plan.execute()
        rows = mat._block_num_rows()
        if empty is None:
            # an all-empty materialized Dataset may have lost its schema;
            # the unread one may still know it (a parquet read does)
            schema = mat.schema() or (ds.schema() if mat is not ds else None)
            empty = empty_table(schema) if schema is not None else pa.table({})
        return cls([r for r, n in zip(mat.to_arrow_refs(), rows) if n], empty,
                   [n for n in rows if n])

    def map(self, fn, empty: pa.Table | None = None) -> "Relation":
        """``fn`` (``pa.Table -> pa.Table``) over every block, composed
        with the pending maps into the next task. The output schema is
        ``fn(self.empty)`` unless ``empty`` gives it."""
        return Relation(self.refs, fn(self.empty) if empty is None else empty,
                        None, self.fns + (fn,))

    def blocks(self) -> "Relation":
        """This relation with no pending maps: one task per block runs
        them (no task when none is pending)."""
        if not self.fns:
            return self
        outs = [_map_block.remote(r, self.fns) for r in self.refs]
        return Relation([o[0] for o in outs], self.empty,
                        [o[1] for o in outs])

    def counts(self) -> list:
        """Row count of each block, resolved; for a relation with no
        pending maps (``blocks()`` gives one)."""
        assert not self.fns, "counts() of pending maps: call blocks() first"
        todo = [i for i, n in enumerate(self.rows) if not isinstance(n, int)]
        if todo:
            got = ray.get([self.rows[i] if self.rows[i] is not None
                           else _num_rows.remote(self.refs[i]) for i in todo])
            for i, n in zip(todo, got):
                self.rows[i] = int(n)
        return self.rows

    def nonempty(self) -> "Relation":
        """``blocks()`` without its empty blocks, every count resolved."""
        rel = self.blocks()
        rows = rel.counts()
        return Relation([r for r, n in zip(rel.refs, rows) if n], self.empty,
                        [n for n in rows if n])

    def union(self, *others: "Relation") -> "Relation":
        """The blocks of this relation and then of ``others``; the schema
        unifies the inputs' (a null-typed column takes the other type)."""
        rels = [r.blocks() for r in (self,) + others]
        return Relation([x for r in rels for x in r.refs],
                        pa.concat_tables([r.empty for r in rels],
                                         promote_options="default"),
                        [x for r in rels for x in r.rows])

    def to_dataset(self):
        """The relation as a Ray Data Dataset over the same blocks (a
        typed empty one when there are none); starts no execution."""
        import ray.data as rd
        rel = self.blocks()
        return rd.from_arrow_refs(rel.refs) if rel.refs \
            else rd.from_arrow(self.empty)
