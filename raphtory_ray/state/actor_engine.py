"""ShardedPageRank — PageRank with its CSR adjacency held in actors.

The north star's "CSR adjacency blocks held in stateful actor-pool
partitions" as a placement of the one superstep loop: ``from_bsp`` builds
one resident holder (supersteps.resident) per group of a BspGraph's
dst-owned blocks, each holding the CSR slice ``shards._csr_by_dst``
builds from its group, and ``pagerank`` runs BspGraph.pagerank's own
body (shards.pagerank) over those holders. Every dst lives in one block,
so its rows keep their block order under any grouping: scores and
iteration counts are bit-identical to BspGraph.pagerank at every worker
count. Vertex state stays the loop's O(V) driver vector.

Actor loss: Ray restarts a lost holder from its constructor's block refs
and retries the call, and the kernel is a pure function of (block,
state), so the run ends bit-identical. The engine keeps its graph, and
with it those refs, alive for its lifetime. Checkpoint and resume are the
loop's own (supersteps.resume).
"""

from __future__ import annotations

import ray

from raphtory_ray.core.exchange import cluster_cpus, groups
from raphtory_ray.state.shards import _csr_by_dst, pagerank
from raphtory_ray.state.supersteps import resident


class ShardedPageRank:
    """Driver handle over the resident CSR holders of one BspGraph."""

    def __init__(self, g, num_workers: int | None = None):
        """min(cluster CPUs − 1, P) whole-CPU holders by default, so a
        forgotten engine cannot wedge the cluster; the scaling bench
        passes ``num_workers`` to use every CPU."""
        self.g = g
        W = num_workers or max(1, min(cluster_cpus() - 1, len(g.refs)))
        self.holders = resident(_csr_by_dst, groups(g.refs, W))

    @classmethod
    def from_bsp(cls, g, num_workers: int | None = None) -> "ShardedPageRank":
        """From a shards.BspGraph, whose refs are dst-partitioned."""
        return cls(g, num_workers)

    def pagerank(self, damping: float = 0.85, iter_count: int = 20,
                 tol: float = 1e-6, checkpoint=None):
        """Reference recurrence (pagerank.rs:55-179). Returns (scores,
        iterations, per-superstep seconds)."""
        return pagerank(self.holders, self.g.n, damping, iter_count, tol,
                        checkpoint=checkpoint)

    def shutdown(self):
        """Release the holders (and their CPUs) immediately."""
        for h in self.holders:
            ray.kill(h)
        self.holders = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
