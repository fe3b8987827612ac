"""core/exchange: the one routing hash and map-side split every shuffle
uses. The pinned bucket values are the ownership contract: BspGraph
blocks and every split must agree."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from raphtory_ray.core.exchange import (bucket, key_hash, pair_key,
                                        returns, split, split_table,
                                        splitmix64)

KEYS = np.array([0, 1, 2, 3, 12345, 2**31 - 1, 2**40 + 7], np.int64)


@pytest.mark.parametrize("P, want", [
    (2, [0, 0, 1, 0, 1, 0, 1]),
    (5, [0, 4, 1, 1, 4, 4, 3]),
    (64, [0, 28, 57, 22, 21, 40, 9]),
])
def test_bucket_pinned(P, want):
    got = bucket(KEYS, P)
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_splitmix64_pinned():
    got = splitmix64(np.array([0, 1, 12345], np.int64))
    assert got.tolist() == [16294208416658607535, 10451216379200822465,
                            2454886589211414944]


def test_pair_key_routes_by_both_endpoints():
    s = np.array([1, 1, 2], np.int64)
    d = np.array([2, 3, 1], np.int64)
    k = pair_key(s, d)
    assert k.dtype == np.uint64
    assert len(set(k.tolist())) == 3          # (1,2) and (2,1) differ


@pytest.mark.parametrize("with_nulls, without", [
    (pa.array([True, None, False]), pa.array([False, True])),
    (pa.array([7, None, 3], pa.int64()), pa.array([3, 7], pa.int32())),
    (pa.array([1.5, None, -0.0], pa.float64()),
     pa.array([0.0, 1.5], pa.float32())),
    (pa.array(["b", None, "a"]), pa.array(["a", "b"], pa.large_string())),
])
def test_key_hash_agrees_across_blocks(with_nulls, without):
    """Equal keys hash alike whether or not their block has nulls, and
    whatever the integer or float width: a group split by its blocks'
    types would be two groups."""
    h, g = key_hash(with_nulls), key_hash(without)
    assert h.dtype == g.dtype == np.uint64
    assert h[[2, 0]].tolist() == g.tolist()
    assert h[1] == key_hash(pa.nulls(1))[0]
    assert len(set(h.tolist())) == 3


@pytest.mark.parametrize("P", [1, 3])
@pytest.mark.parametrize("n", [0, 50])
def test_split_keeps_rows_order_and_dtypes(P, n):
    rng = np.random.default_rng(n + P)
    k = rng.integers(0, 1000, n)
    f = rng.random(n).astype(np.float32)
    flag = (k % 2).astype(np.int8)
    parts = split(bucket(k, P), P, k, f, flag)
    assert len(parts) == P
    for p, (pk, pf, pflag) in enumerate(parts):
        assert (pk.dtype, pf.dtype, pflag.dtype) == \
            (np.int64, np.float32, np.int8)
        assert (bucket(pk, P) == p).all()
        mine = bucket(k, P) == p                 # input order kept
        assert pk.tolist() == k[mine].tolist()
        assert pf.tolist() == f[mine].tolist()
    if P == 1:
        assert parts[0][0] is k                  # unpermuted input back


@pytest.mark.parametrize("P", [1, 3])
@pytest.mark.parametrize("n", [0, 40])
def test_split_table_keeps_rows_order_and_schema(P, n):
    k = np.arange(n, dtype=np.int64) * 7
    tbl = pa.table({"k": pa.array(k), "s": pa.array([str(x) for x in k],
                                                     pa.string())})
    parts = split_table(tbl, bucket(k, P), P)
    assert len(parts) == P
    assert sum(t.num_rows for t in parts) == n
    for p, t in enumerate(parts):
        assert t.schema == tbl.schema
        mine = bucket(k, P) == p
        assert t["k"].to_pylist() == k[mine].tolist()
    if P == 1:
        assert parts[0] is tbl


def test_returns_follows_num_returns():
    assert returns(["a"]) == "a"
    assert returns(["a", "b"]) == ("a", "b")


@pytest.mark.parametrize("P", [1, 4])
def test_shuffle_returns_P_columns(ray_session, P):
    import ray

    from raphtory_ray.core.exchange import shuffle

    @ray.remote
    def _route(t: pa.Table, P: int, col: str):
        k = t[col].to_numpy()
        return returns(split_table(t, bucket(k, P), P))

    blocks = [pa.table({"v": pa.array(np.arange(i, 60, 3), pa.int64())})
              for i in range(3)]
    cols = shuffle(_route, [ray.put(b) for b in blocks], P, "v")
    assert len(cols) == P
    assert all(len(c) == len(blocks) for c in cols)
    for p, col in enumerate(cols):
        for i, piece in enumerate(ray.get(col)):
            v = blocks[i]["v"].to_numpy()
            assert piece["v"].to_pylist() == v[bucket(v, P) == p].tolist()


def test_from_arrays_blocks_are_dst_owned(ray_session):
    """BspGraph.from_arrays puts each edge in the block that owns its dst
    under the ownership hash."""
    import ray

    from raphtory_ray.state.shards import BspGraph
    rng = np.random.default_rng(3)
    n = 500
    src, dst = rng.integers(0, n, 3000), rng.integers(0, n, 3000)
    for P in (1, 2, 5):
        g = BspGraph.from_arrays(src, dst, n, num_blocks=P)
        assert len(g.refs) == P
        total = 0
        for p, blk in enumerate(ray.get(g.refs)):
            d = blk["dst"].to_numpy()
            assert (bucket(d, P) == p).all()
            total += blk.num_rows
        assert total == g.num_edges == len(set(zip(src, dst)))
