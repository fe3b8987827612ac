"""Actor-sharded BSP engine — vertex state lives IN the partition actors.

This is the at-scale superstep path the north_star describes ("CSR adjacency
blocks held in stateful actor-pool partitions"): P actors each own

- a dst-partitioned CSR edge block (rows sorted by dst, built once),
- the rank slice for the vids they own (hash(v) % P == part_id),
- per-row static factors (1/outdeg[src]) precomputed at init.

A superstep is ONE actor-call round. Two all-gather transports
(``GATHER_MODES``; BASELINE.md's r5 tables measure why these two):

- ``central`` (default): the driver assembles one rank vector and ray.puts
  it; every actor gathers from it and returns its owned new ranks. O(V)
  driver work, O(W) object resolutions per superstep.
- ``p2p-tiled``: every actor publishes its per-partition rank slices and
  all-gathers the P slices from plasma over rows blocked by (source
  partition, dst). O(P) driver work per superstep — no O(V) data through
  the driver; fastest when workers are pinned to cores.

Compared against shards.BspGraph.pagerank in tests: same recurrence
(pagerank.rs:55-179 incl. sink mass and the sqrt(Σd²) ≤ tol·n stop rule),
identical scores to ~1e-12 (summation grouping differs).

Fault tolerance / resume: after every superstep the driver writes the
rank vector as the partitioned parquet + manifest of pipelines.checkpoint;
``pagerank(..., checkpoint=)`` resumes from the latest complete manifest
(supersteps.resume) by re-seeding actor slices.
"""

from __future__ import annotations

import numpy as np
import ray

from raphtory_ray.core.exchange import bucket
from raphtory_ray.state.supersteps import iterate, resume

GATHER_MODES = ("central", "p2p-tiled")


def _owned_vids(n: int, P: int, p: int) -> np.ndarray:
    v = np.arange(n, dtype=np.int64)
    return v[bucket(v, P) == p]


def _pos_in_partition(n: int, P: int) -> np.ndarray:
    """pos[v] = index of v within its owner's sorted owned-vid list."""
    part = bucket(np.arange(n, dtype=np.int64), P)
    pos = np.empty(n, dtype=np.int64)
    for p in range(P):
        m = part == p
        pos[m] = np.arange(int(m.sum()))
    return pos


@ray.remote
class PRShard:
    """One WORKER of the sharded PageRank state, owning one or more of the P
    data partitions (partition count is fixed by the data layout; worker
    count tracks the cluster — an N-node vs 4N-node cluster runs the same
    partitions on fewer/more workers)."""

    def __init__(self, part_ids: list, P: int, n: int, block_refs: list,
                 outdeg_ref, pos_ref, dtype: str = "float64"):
        blocks = ray.get(list(block_refs))
        outdeg = ray.get(outdeg_ref) if isinstance(outdeg_ref, ray.ObjectRef) else outdeg_ref
        pos = ray.get(pos_ref) if isinstance(pos_ref, ray.ObjectRef) else pos_ref
        self.part_ids, self.P, self.n = list(part_ids), P, n
        owned_per = [_owned_vids(n, P, p) for p in self.part_ids]
        self.slice_bounds = np.r_[0, np.cumsum([len(o) for o in owned_per])]
        self.owned = np.concatenate(owned_per) if owned_per else np.empty(0, np.int64)
        ss, ds = [], []
        for b in blocks:
            if b.num_rows:
                ss.append(b["src"].to_numpy(zero_copy_only=False))
                ds.append(b["dst"].to_numpy(zero_copy_only=False))
        s = np.concatenate(ss) if ss else np.empty(0, np.int64)
        d = np.concatenate(ds) if ds else np.empty(0, np.int64)
        # rows ordered by (source partition, dst): the order within each
        # dst run fixes the float summation order of both transports
        gorder = np.argsort(bucket(s, P), kind="stable")
        s_g, d_g = s[gorder], d[gorder]
        dorder = np.argsort(d_g, kind="stable")
        # global src vids in dst-sorted row order — "central" gathers
        # straight from one driver-assembled rank vector
        self.s_sorted = s_g[dorder].astype(
            np.int32 if n < 2**31 else np.int64)
        d_sorted = d_g[dorder]
        uds, start = np.unique(d_sorted, return_index=True)
        # owned vector is concat of sorted per-partition lists → locate uds
        self.dst_local = _index_in(self.owned, uds)
        self.start = start
        # dtype: float64 (default, conformance path) or float32 — the
        # documented bandwidth/precision trade-off for the scaling workload
        # (slices + per-edge streams halve; global sums & convergence stay
        # f64; score rel-error ~1e-7, inside the 1e-6 contract)
        self.dtype = np.dtype(dtype)
        with np.errstate(divide="ignore"):
            f = 1.0 / outdeg[s_g]
        self.factor_sorted = np.where(outdeg[s_g] > 0, f, 0.0).astype(
            self.dtype)[dorder]
        self.sink_mask = outdeg[self.owned] == 0
        self.rank = np.full(len(self.owned), 1.0 / n, dtype=self.dtype)
        self._pos = pos          # zero-copy plasma view; used by p2p-tiled

    def _split_slices(self, full: np.ndarray) -> list:
        return [ray.put(full[self.slice_bounds[i]:self.slice_bounds[i + 1]])
                for i in range(len(self.part_ids))]

    def publish(self):
        """([slice_refs in part_ids order], sink_partial)."""
        return self._split_slices(self.rank), \
            float(self.rank[self.sink_mask].sum(dtype=np.float64))

    def set_rank(self, values: np.ndarray):
        self.rank = np.asarray(values, dtype=self.dtype)

    def get_rank(self):
        return self.owned, self.rank

    def _row_local(self) -> np.ndarray:
        """Per-row owned-local dst index (dst-sorted row order)."""
        run_len = np.diff(np.r_[self.start, len(self.s_sorted)])
        return np.repeat(self.dst_local, run_len)

    def _build_tiled_p2p(self):
        """Propagation-blocked row layout for the slice transport (Beamer/
        Asanović/Patterson, IPDPS'17): rows ordered by (src PARTITION, dst).
        The gather is contiguous per rank-slice (each slice is
        owned-vids-sized, cache-resident at realistic P), and the combine
        is one bincount of per-row owned-local dst indices into the owned
        accumulator — no O(E) permutation back into dst order. Built
        lazily on the first p2p-tiled superstep."""
        part = bucket(self.s_sorted, self.P)
        order = np.argsort(part, kind="stable")
        self.t2_bounds = np.r_[0, np.cumsum(np.bincount(part,
                                                        minlength=self.P))]
        src_pos = self._pos[self.s_sorted[order]]
        self.t2_idx = src_pos.astype(np.int32) \
            if (len(src_pos) == 0 or src_pos.max() < 2**31) else src_pos
        self.t2_factor = self.factor_sorted[order]
        self.t2_local = self._row_local()[order].astype(np.intp)

    def step_tiled(self, slice_refs: list, sink_total: float,
                   damping: float):
        """p2p-tiled superstep: all-gather the P published rank slices
        (zero-copy plasma reads), combine over the (partition, dst)-blocked
        rows, publish. Returns ([refs], sink_partial_of_new, diff²)."""
        slices = ray.get(list(slice_refs))
        if not hasattr(self, "t2_idx"):
            self._build_tiled_p2p()
        if not hasattr(self, "_wt"):
            self._wt = np.empty(len(self.t2_idx), dtype=self.dtype)
        w = self._wt
        for q in range(self.P):
            lo, hi = self.t2_bounds[q], self.t2_bounds[q + 1]
            if hi > lo:
                w[lo:hi] = slices[q][self.t2_idx[lo:hi]]
        w *= self.t2_factor
        base = (1.0 - damping) / self.n + damping * sink_total / self.n
        acc = np.bincount(self.t2_local, weights=w,
                          minlength=len(self.owned)) if len(w) \
            else np.zeros(len(self.owned))
        new = (base + damping * acc).astype(self.dtype, copy=False)
        d = (new - self.rank).astype(np.float64, copy=False)
        diff2 = float(np.square(d).sum())
        self.rank = new
        return (self._split_slices(new),
                float(new[self.sink_mask].sum(dtype=np.float64)), diff2)

    def step_full(self, full_ref, sink_total: float, damping: float):
        """One superstep against a single driver-assembled rank vector
        (central all-gather): ONE driver-owned plasma object per superstep
        instead of P actor-owned slices, so owner-resolution RPCs per step
        drop from O(W·P) to O(W) — measured dominant at W=32 on one box.
        Returns (owned_new_values, sink_partial, diff²). Scale note: the
        driver does O(V) assembly per superstep; beyond ~10^8 vertices
        switch to the slice transport (`step_tiled`) or a tree-gather."""
        full = ray.get(full_ref) if isinstance(full_ref, ray.ObjectRef) \
            else full_ref
        w = full[self.s_sorted]
        w *= self.factor_sorted
        base = (1.0 - damping) / self.n + damping * sink_total / self.n
        new = np.full(len(self.owned), base, dtype=self.dtype)
        if len(self.start):
            new[self.dst_local] += (damping *
                                    np.add.reduceat(w, self.start)).astype(
                                        self.dtype, copy=False)
        d = (new - self.rank).astype(np.float64, copy=False)
        diff2 = float(np.square(d).sum())
        self.rank = new
        return new, float(new[self.sink_mask].sum(dtype=np.float64)), diff2


def _index_in(sorted_concat: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of each value in a concat of sorted runs — the owned vector is
    per-partition-sorted, not globally sorted, so use an argsort-based map."""
    order = np.argsort(sorted_concat, kind="stable")
    pos = np.searchsorted(sorted_concat[order], values)
    return order[pos]


class ShardedPageRank:
    """Driver handle over the PRShard pool."""

    def __init__(self, edge_block_refs: list, n: int, outdeg: np.ndarray,
                 num_workers: int | None = None, dtype: str = "float64"):
        """edge_block_refs: dst-partitioned blocks (one per PARTITION) from
        shards._shuffle_pairs(key='dst') — partition p MUST hold exactly the
        edges with exchange.bucket(dst, P) == p.

        Workers: min(cluster CPUs, P) actors at num_cpus=1 each, every
        worker owning a contiguous stripe of partitions. Whole-CPU actors
        keep the worker count honestly bounded by the cluster size (Ray
        does not pin cores; fractional actors would silently over-run an
        artificially small ray.init(num_cpus=N))."""
        P = len(edge_block_refs)
        self.P, self.n = P, n
        self.dtype = np.dtype(dtype)
        self._sink_mask_full = outdeg == 0      # central-gather bookkeeping
        cpus = int(ray.cluster_resources().get("CPU", 8))
        # default leaves one CPU of headroom so a forgotten engine can't
        # wedge the whole cluster; the scaling bench passes num_workers
        # explicitly to use every CPU
        W = num_workers or max(1, min(cpus - 1, P))
        od_ref = ray.put(outdeg)
        pos_ref = ray.put(_pos_in_partition(n, P))
        stripes = np.array_split(np.arange(P), W)
        self.stripes = [s for s in stripes if len(s)]
        self.shards = [
            PRShard.options(num_cpus=1).remote(
                stripe.tolist(), P, n,
                [edge_block_refs[p] for p in stripe], od_ref, pos_ref,
                dtype)
            for stripe in self.stripes]

    @classmethod
    def from_bsp(cls, g, **kw) -> "ShardedPageRank":
        """From a shards.BspGraph — its refs are already dst-partitioned
        by exchange.bucket, the hash the owned slices use."""
        return cls(list(g.refs), g.n, g.out_degree, **kw)

    def _owned_concat(self, stripe) -> np.ndarray:
        return np.concatenate([_owned_vids(self.n, self.P, int(p))
                               for p in stripe])

    def pagerank(self, damping: float = 0.85, iter_count: int = 20,
                 tol: float = 1e-6, checkpoint=None,
                 gather_mode: str = "central"):
        """Reference recurrence (pagerank.rs:55-179). Returns
        (scores, iterations, per-superstep seconds).

        gather_mode (one of GATHER_MODES, see the module docstring):
        "central" (default; fastest free-floating) or "p2p-tiled" (O(P)
        driver work; fastest with workers pinned to cores)."""
        if gather_mode not in GATHER_MODES:
            raise ValueError(f"gather_mode must be one of {GATHER_MODES}, "
                             f"got {gather_mode!r}")
        it0, full = resume(checkpoint, "rank",
                           np.full(self.n, 1.0 / self.n, dtype=self.dtype))
        if it0:
            full = full.astype(self.dtype)
            self.seed_ranks(full)
        if gather_mode == "central":
            owned_per = [self._owned_concat(st) for st in self.stripes]
            sink = float(full[self._sink_mask_full].sum(dtype=np.float64))

            def superstep(sink):
                ref = ray.put(full)
                outs = ray.get([s.step_full.remote(ref, sink, damping)
                                for s in self.shards])
                for owned, o in zip(owned_per, outs):
                    full[owned] = o[0]
                return outs

            def scores():
                return full.astype(np.float64)
        else:
            pub = ray.get([s.publish.remote() for s in self.shards])
            slice_refs = self._compose(p[0] for p in pub)
            sink = float(sum(p[1] for p in pub))

            def superstep(sink):
                nonlocal slice_refs
                outs = ray.get([s.step_tiled.remote(slice_refs, sink, damping)
                                for s in self.shards])
                slice_refs = self._compose(o[0] for o in outs)
                return outs

            scores = self.gather

        def advance(sink, outs, it):
            norm = float(np.sqrt(sum(o[2] for o in outs)))
            if checkpoint is not None:
                checkpoint.save(it, {"rank": scores()},
                                metrics={"norm": norm})
            return float(sum(o[1] for o in outs)), norm <= tol * self.n

        _, it, times = iterate(superstep, advance, sink, start=it0,
                               stop=iter_count)
        return scores(), it, times

    def _compose(self, per_actor_ref_lists) -> list:
        """Per-actor slice-ref lists (in stripe order) → refs indexed by
        partition id 0..P-1."""
        out = [None] * self.P
        for stripe, refs in zip(self.stripes, per_actor_ref_lists):
            for pid, r in zip(stripe, refs):
                out[pid] = r
        return out

    def gather(self) -> np.ndarray:
        out = np.empty(self.n)
        for owned, vals in ray.get([s.get_rank.remote() for s in self.shards]):
            out[owned] = vals
        return out

    def seed_ranks(self, full: np.ndarray):
        ray.get([s.set_rank.remote(full[self._owned_concat(stripe)])
                 for stripe, s in zip(self.stripes, self.shards)])

    def shutdown(self):
        """Release the worker actors (and their CPUs) immediately."""
        for s in self.shards:
            ray.kill(s)
        self.shards = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
