"""Actor-sharded supersteps for LPA (owned-slice sparse deltas).

The task path (state/shards.py) ``ray.put``s a full O(V) state array from
the driver every superstep. Here vertex state lives IN partition actors,
as in ``actor_engine.PRShard``:

- each worker actor owns a stripe of the P hash partitions
  (``exchange.bucket(v, P)``) and holds the label slice for its vids;
- topology is the src-OWNED undirected blocks ``BspGraph.und_refs``,
  pinned once;
- a superstep is one actor-call round whose outputs are driver-owned task
  returns carrying only the CHANGED (vid, label) pairs; each actor keeps a
  cache of its rows' neighbour labels and applies the deltas. The driver
  handles O(W) refs + scalar change counters per superstep — never O(V)
  data.

Votes are synchronous, include a self-vote and break ties by (count,
largest label) (label_propagation.rs:84-95): labels and iteration counts
are bit-identical to the task path (contract-tested in
tests/test_sharded_algos.py). The pool keeps no checkpoints: a
checkpointed LPA runs on the task path (BspGraph.lpa).
"""

from __future__ import annotations

from collections import deque

import numpy as np
import ray

from raphtory_ray.core.exchange import cluster_cpus
from raphtory_ray.state.actor_engine import _index_in, _owned_vids


class _OwnedRows:
    """Static row structure over an actor's edge rows.

    Rows are (own, gth) pairs where every ``own`` endpoint is owned by this
    actor, sorted by ``own`` so each owned vertex's rows form one segment
    (``uo``/``start``). Per-segment vote counts do not depend on the row
    order inside a segment."""

    def __init__(self, own: np.ndarray, gth: np.ndarray, owned: np.ndarray):
        oorder = np.argsort(own, kind="stable")
        # gathered-endpoint VIDs in own-sorted row order — seeds the
        # delta-path row cache locally (initial label ≡ vid), so LPA
        # starts with ZERO transport
        self.gth_sorted = gth[oorder]
        self.uo, self.start = np.unique(own[oorder], return_index=True)
        self.own_local = _index_in(owned, self.uo) if len(self.uo) \
            else np.empty(0, np.int64)
        # per-row local index of the owning vertex (LPA vote keys)
        self._row_own_local = None
        self._dx = None

    @property
    def row_own_local(self) -> np.ndarray:
        if self._row_own_local is None:
            seg_len = np.diff(np.r_[self.start, len(self.gth_sorted)])
            self._row_own_local = np.repeat(self.own_local, seg_len)
        return self._row_own_local

    # ------------------------------------------------- sparse delta path
    def build_delta_index(self):
        """Inverted row index on the gathered-endpoint VID for sparse
        changed-label transport: rows sorted by gth vid, plus each row's
        own-sorted position — a changed (vid, val) delta then updates
        exactly the rows that read that vid (two searchsorted + one
        scatter), instead of re-gathering every row. One structure per
        actor (deltas carry global vids, so partition boundaries don't
        matter on the apply side)."""
        g = np.asarray(self.gth_sorted, dtype=np.int64)
        o = np.argsort(g, kind="stable")
        self._dx = (g[o], o)

    def apply_deltas(self, rows: np.ndarray, deltas) -> np.ndarray:
        """Scatter per-actor (changed_vid, changed_val) deltas into the
        cached own-sorted row array; returns the touched row positions.
        Cost O(Σ changed · log rows + rows touched) — after the first few
        supersteps of LPA the change set collapses, so this replaces
        an O(rows) full re-gather with near-zero work."""
        sg, rowpos = self._dx
        touched = []
        for d in deltas:
            if d is None:
                continue
            vid, vals = d
            if len(vid) == 0 or not len(sg):
                continue
            st = np.searchsorted(sg, vid)
            en = np.searchsorted(sg, vid, side="right")
            lens = en - st
            m = lens > 0
            if not m.any():
                continue
            L = lens[m]
            base = np.repeat(st[m], L)
            offs = np.arange(int(L.sum())) - np.repeat(np.cumsum(L) - L, L)
            rp = rowpos[base + offs]
            rows[rp] = np.repeat(vals[m], L)
            touched.append(rp)
        return np.concatenate(touched) if touched \
            else np.empty(0, np.int64)


@ray.remote
class AlgoShard:
    """Worker actor for owned-delta LPA over undirected src-owned blocks.
    Holds owned-vertex labels + the row structure."""

    def __init__(self, part_ids: list, P: int, n: int, block_refs: list):
        blocks = ray.get(list(block_refs))
        self.n = n
        owned_per = [_owned_vids(n, P, p) for p in part_ids]
        self.owned = np.concatenate(owned_per) if owned_per \
            else np.empty(0, np.int64)
        us, vs = [], []
        for b in blocks:
            if b.num_rows and "src" in b.column_names:
                us.append(b["src"].to_numpy(zero_copy_only=False))
                vs.append(b["dst"].to_numpy(zero_copy_only=False))
        u = np.concatenate(us) if us else np.empty(0, np.int64)
        v = np.concatenate(vs) if vs else np.empty(0, np.int64)
        self.gc = _OwnedRows(u, v, self.owned)
        self.state: np.ndarray = np.empty(0)

    def get_state(self):
        return self.owned, self.state

    # -------------------------------------- owned-slice sparse-delta path
    # Superstep outputs are TASK RETURNS (driver-owned objects, resolved
    # against the idle driver rather than a busy peer actor) and carry only
    # the CHANGED (vid, val) pairs; each actor keeps its gathered-label row
    # cache and applies the sparse deltas. After LPA's change set
    # collapses (a few rounds in), a superstep moves near-zero bytes.

    # above this vertex count the per-actor dense label cache (8 bytes per
    # vertex; used only to cheapen DENSE delta rounds) is skipped and the
    # searchsorted path handles every round — the algorithm is identical
    _DENSE_CACHE_LIMIT = 1 << 26          # 64M vertices ≈ 512 MB/actor

    def init_delta(self):
        """Seed state and the gathered-label row cache: label = vid —
        entirely locally, the initial label of a gathered endpoint IS its
        vid, which the gather structure already stores; no transport."""
        self._gth_vids = np.asarray(self.gc.gth_sorted, np.int64)
        if self.gc._dx is None:
            self.gc.build_delta_index()
        self.state = self.owned.copy()
        self._rows_lab = self._gth_vids.copy()
        self._glob = np.arange(self.n, dtype=np.int64) \
            if self.n <= self._DENSE_CACHE_LIMIT else None
        self._first_round = True
        self._self_changed = np.empty(0, np.int64)
        # node-local-idx -> segment index in (uo, start), -1 if no rows
        self._seg_of_node = np.full(len(self.owned), -1, np.int64)
        self._seg_of_node[self.gc.own_local] = \
            np.arange(len(self.gc.own_local))
        self._seg_ends = np.r_[self.gc.start,
                               len(self.gc.gth_sorted)][1:] \
            if len(self.gc.uo) else np.empty(0, np.int64)

    def _apply_deltas(self, deltas):
        """Update the cached rows from the per-actor deltas. Returns the
        touched row positions, or None when the round was applied densely
        (global-cache scatter + one full regather — measured ~10x cheaper
        than per-delta searchsorted when most labels changed; early LPA
        rounds are exactly that regime)."""
        if self._glob is not None:
            total = sum(len(d[0]) for d in deltas if d is not None)
            for d in deltas:
                if d is not None and len(d[0]):
                    self._glob[d[0]] = d[1]
            if total * 4 > len(self._gth_vids):
                np.take(self._glob, self._gth_vids, out=self._rows_lab)
                return None
        return self.gc.apply_deltas(self._rows_lab, deltas)

    def _emit_deltas(self, new: np.ndarray):
        """One (changed_vids, new_vals) pair for the whole actor."""
        changed = np.flatnonzero(new != self.state)
        self._self_changed = changed
        return (self.owned[changed], new[changed]), len(changed)

    def _affected_nodes(self, touched_rows: np.ndarray) -> np.ndarray:
        """Owned nodes whose vote inputs changed: nodes with a touched row,
        plus nodes whose own label changed last round (self-vote input)."""
        nbr = self.gc.row_own_local[touched_rows] if len(touched_rows) \
            else np.empty(0, np.int64)
        return np.unique(np.concatenate([nbr, self._self_changed]))

    def lpa_delta_step(self, *deltas):
        """One LPA vote round over the cached rows — recounted ONLY for
        affected nodes (a node's vote can change only if a neighbour's
        label or its own label changed last round). deltas = one
        (changed_vids, new_vals) pair per actor (top-level args —
        raylet-resolved, no in-task ray.get). Returns (this actor's delta,
        changed) via num_returns."""
        touched = self._apply_deltas(deltas)
        n = self.n
        if self._first_round or touched is None:
            aff = None                        # full vote, no range build
            self._first_round = False
        else:
            aff = self._affected_nodes(touched)
            if len(aff) * 4 > len(self.owned):
                aff = None                    # dense round: full vote wins
        new = self.state.copy()
        if aff is None or len(aff):
            if aff is None:
                rows = slice(None)
                row_nodes = self.gc.row_own_local
                vote_nodes = np.arange(len(self.owned), dtype=np.int64)
            else:
                segs = self._seg_of_node[aff]
                sm = segs >= 0
                segs = segs[sm]
                starts = self.gc.start[segs]
                lens = self._seg_ends[segs] - starts
                base = np.repeat(starts, lens)
                rows = base + (np.arange(int(lens.sum()))
                               - np.repeat(np.cumsum(lens) - lens, lens))
                row_nodes = self.gc.row_own_local[rows]
                vote_nodes = aff
            keys = np.concatenate([
                row_nodes * np.int64(n) + self._rows_lab[rows],
                vote_nodes * np.int64(n) + self.state[vote_nodes]])
            uk, cnt = np.unique(keys, return_counts=True)
            nodes = uk // n
            labels = uk - nodes * n
            order = np.lexsort((labels, cnt, nodes))
            nodes, labels = nodes[order], labels[order]
            last = np.r_[nodes[1:] != nodes[:-1], True]
            new[nodes[last]] = labels[last]
        out, changed = self._emit_deltas(new)
        self.state = new
        return out, changed


class ShardedAlgos:
    """Driver handle: owned-delta LPA over src-owned undirected blocks.
    Driver work per superstep is O(W) refs + scalars."""

    def __init__(self, g, num_workers: int | None = None):
        """g: shards.BspGraph (its und_refs/refs are partitioned by
        exchange.bucket, the hash the owned slices use)."""
        self.g = g
        self.n = g.n
        cpus = cluster_cpus()
        self._W = num_workers or max(1, min(cpus - 1, len(g.und_refs)))
        self._shards = None

    def _pool(self) -> list:
        """The AlgoShard actors, built on first use; each owns a stripe of
        the P partitions."""
        if self._shards is None:
            refs = self.g.und_refs
            P = len(refs)
            stripes = np.array_split(np.arange(P), min(self._W, P))
            self._shards = [AlgoShard.options(num_cpus=1).remote(
                st.tolist(), P, self.n, [refs[p] for p in st])
                for st in stripes if len(st)]
        return self._shards

    def _gather_state(self, shards) -> np.ndarray:
        outs = ray.get([s.get_state.remote() for s in shards])
        full = np.empty(self.n, dtype=np.asarray(outs[0][1]).dtype
                        if outs else np.int64)
        for owned, vals in outs:
            full[owned] = vals
        return full

    def lpa_owned(self, iter_count: int = 20, until_converged: bool = True):
        """LPA through the owned-slice sparse-delta path (round 5), vote
        semantics identical to the task path (parity-tested). O(W) refs
        per superstep (ONE delta object per actor), all superstep outputs
        driver-owned task returns, only changed labels in flight. Returns
        (labels, iterations)."""
        shards = self._pool()
        ray.get([s.init_delta.remote() for s in shards])
        empty = (np.empty(0, np.int64), np.empty(0, np.int64))
        delta_refs = [ray.put(empty)] * len(shards)  # round 1: no changes yet
        # Depth-2 pipelined rounds: the next round needs only the delta
        # REFS (available at submit time), so the driver submits ahead and
        # reads round j's changed-count while round j+1 executes — the
        # driver round-trip leaves the critical path. Convergence detection
        # lags one round; the extra round runs on empty deltas (near-free).
        pending: deque = deque()
        conv_at = None
        for it in range(1, iter_count + 1):
            rounds = [s.lpa_delta_step.options(num_returns=2).remote(
                *delta_refs) for s in shards]
            delta_refs = [r[0] for r in rounds]
            pending.append((it, [r[1] for r in rounds]))
            if len(pending) > 1:
                j, refs = pending.popleft()
                if sum(ray.get(refs)) == 0 and until_converged:
                    conv_at = j
                    break
        while conv_at is None and pending:
            j, refs = pending.popleft()
            if sum(ray.get(refs)) == 0 and until_converged:
                conv_at = j
        return self._gather_state(shards), conv_at or iter_count

    def shutdown(self):
        for s in self._shards or ():
            ray.kill(s)
        self._shards = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()
