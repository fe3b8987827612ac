"""SemDeDup-style semantic deduplication over an embedding column.

Public-method pedigree: SemDeDup (Abbas et al., 2023, arXiv:2303.09540)
clusters embeddings with k-means, then inside each cluster drops all but
one member of every epsilon-ball (pairwise cosine >= threshold).  This
engine's variant keeps the two-phase shape but makes BOTH phases
bit-reproducible so a SQL oracle can replay them:

- clustering uses a fixed bank of seeded gaussian direction vectors
  (``numpy.random.default_rng(seed)``) instead of data-dependent k-means
  iterations; cluster = argmax over seed dot products on a quantized
  integer grid (ties -> lowest seed index).  The seed bank plays the role
  of the trained centroids; at scale you pick ``n_seeds ~ N / target
  cluster size`` exactly as SemDeDup sizes k.
- within-cluster pruning is deterministic: a vector is DROPPED iff some
  lower-id member of the same cluster has quantized cosine >= the
  quantized threshold (the min-id member of every epsilon-ball survives).

100-TB design: phase 1 is one stateless ``map_batches`` pass (unit
vectors + argmax against a broadcast seed matrix — O(dim * n_seeds) per
row); phase 2 is ONE hash shuffle routed by cluster id, then a per-bucket
O(m^2) unit-matrix matmul capped at ``max_cluster`` members (the same
degenerate-bucket valve as dedup.embedding_dedup) — never an all-pairs
join across clusters.  The result is a distributed Dataset of
(vec_id, cluster, keep) blocks, one per shuffle partition.

Reference parity: the reference has no semantic-dedup operator; this is
part of the LLM-training-data family (like data/dedup.py) that the brief
asks for beyond reference coverage.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from raphtory_ray.core.exchange import (bucket, num_partitions, returns,
                                        shuffle, split_table)
from raphtory_ray.data.dedup import embedding_dim, embedding_matrix

__all__ = ["semantic_dedup", "seed_bank"]


def seed_bank(dim: int, n_seeds: int, seed: int = 11) -> np.ndarray:
    """The deterministic (dim, n_seeds) gaussian direction bank shared by
    the engine and the SQL oracle (which inlines the same values as
    literal DOUBLE[] vectors)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, n_seeds))


def semantic_dedup(ds, n_seeds: int = 8, threshold: float = 0.9,
                   seed: int = 11, max_cluster: int = 8192,
                   quant: float = 1e4, dim: int | None = None):
    """Dataset(vec_id, embedding:list<float>) -> Dataset(vec_id, cluster,
    keep) where ``keep`` is False iff a lower-vec_id member of the same
    cluster sits within the cosine-threshold ball.

    Quantization: dot products and cosines are compared on the
    ``floor(x * quant)`` integer grid (floor, not round — numpy and
    DuckDB share floor semantics exactly, while round differs in
    half-to-even mode) so numpy (pairwise/BLAS summation) and the DuckDB
    oracle (sequential list_dot_product) can't diverge in the last float
    ulp; a coarse grid only creates TIES, which both sides break
    identically (lowest seed index / strict vec_id order).
    """
    if dim is None:
        dim = embedding_dim(ds)
    S = seed_bank(dim, n_seeds, seed)
    qthr = int(round(threshold * quant))

    def assign(b: pa.Table) -> pa.Table:
        ids = b["vec_id"].to_numpy(zero_copy_only=False)
        emb = embedding_matrix(b["embedding"])
        q = np.floor(emb @ S * quant).astype(np.int64)
        # np.argmax returns the FIRST max -> lowest seed index on ties,
        # matching the oracle's ORDER BY q DESC, j ASC
        cluster = np.argmax(q, axis=1).astype(np.int32)
        nrm = np.linalg.norm(emb, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        unit = emb / nrm
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "cluster": pa.array(cluster, pa.int32()),
            "unit": pa.ListArray.from_arrays(
                pa.array(np.arange(len(ids) + 1) * unit.shape[1], pa.int32()),
                pa.array(unit.reshape(-1), pa.float64())),
        })

    assigned = ds.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    P = num_partitions(assigned.count())
    refs = assigned.to_arrow_refs()
    parts = [_sem_keep_part.remote(qthr, quant, max_cluster, *col)
             for col in shuffle(_sem_split, refs, P)]
    return ray.data.from_arrow_refs(parts)


@ray.remote
def _sem_split(block: pa.Table, P: int):
    ck = block["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
    return returns(split_table(block, bucket(ck, P), P))


@ray.remote
def _sem_keep_part(qthr: int, quant: float, max_cluster: int,
                   *pieces: pa.Table) -> pa.Table:
    """One cluster partition: per-cluster pairwise quantized cosine,
    keep[j] = no earlier (lower vec_id) member within the ball.  Members
    past ``max_cluster`` (in vec_id order) are kept unconditionally — the
    documented degenerate-cluster valve (resize n_seeds, not this cap,
    when real clusters exceed it)."""
    empty = pa.table({"vec_id": pa.array([], pa.int64()),
                      "cluster": pa.array([], pa.int32()),
                      "keep": pa.array([], pa.bool_())})
    good = [t for t in pieces if t.num_rows]
    if not good:
        return empty
    t = pa.concat_tables(good)
    ck = t["cluster"].to_numpy(zero_copy_only=False)
    ids = t["vec_id"].to_numpy(zero_copy_only=False)
    unit = embedding_matrix(t["unit"])
    order = np.lexsort((ids, ck))
    ck, ids, unit = ck[order], ids[order], unit[order]
    keep = np.ones(len(ids), dtype=bool)
    bnd = np.r_[0, np.flatnonzero(ck[1:] != ck[:-1]) + 1, len(ck)]
    for i in range(len(bnd) - 1):
        lo, hi = int(bnd[i]), int(min(bnd[i] + max_cluster, bnd[i + 1]))
        m = hi - lo
        if m < 2:
            continue
        g = np.floor(unit[lo:hi] @ unit[lo:hi].T * quant).astype(np.int64)
        # strictly-lower-id dominators only: upper triangle (i<j) read
        # column-wise — keep[j] = no i<j with qcos >= qthr
        dom = np.triu(g >= qthr, k=1).any(axis=0)
        keep[lo:hi] &= ~dom
    return pa.table({"vec_id": pa.array(ids, pa.int64()),
                     "cluster": pa.array(ck, pa.int32()),
                     "keep": pa.array(keep, pa.bool_())})
