"""The one superstep loop of the BspGraph algorithms, and the generic user
superstep API built on it — the ATask / Job / TaskRunner equivalent.

Reference surface: db/task/task.rs (ATask, Step::Continue/Done),
task_runner.rs (TaskRunner::run(init_tasks, tasks, ...)) — there a user
writes a per-node closure over EvalNodeView with accumulators. Here the
user writes VECTORIZED closures over edge blocks (this engine's native
granularity; per-row Python closures cannot scale):

    state, iters = run_supersteps(
        g, state0,
        message=lambda src_state, src, dst: src_state + 1,
        combine="min",
        apply=lambda old, msg, got: np.minimum(old, np.where(got, msg, old)),
        iter_count=30,
        check=lambda old, new: np.array_equal(old, new))

The BspGraph algorithms and run_supersteps are instances of one loop,
``superstep_loop``: a plain kernel reduces each ownership-partitioned
block's messages LOCALLY to disjoint partials, and ``advance`` scatters
them into the next O(V) state. With several step blocks (or a
checkpoint) each superstep is a round: ray.put the state, one task per
block, advance on the driver. With one step block a single task runs the
whole loop next to the block — same kernel, same advance, same bits."""

from __future__ import annotations

import functools
import itertools
import time
from typing import Callable

import numpy as np
import pyarrow as pa
import ray

_IDENT = {"sum": 0.0, "min": np.inf, "max": -np.inf}
_REDUCE = {"sum": np.add, "min": np.minimum, "max": np.maximum}

_task = functools.cache(ray.remote)     # one remote wrapper per kernel


def superstep_loop(refs: list, kernel: Callable, advance: Callable, state,
                   consts: tuple = (), *, setup=None, start: int = 0,
                   stop: int | None = None, checkpoint=None):
    """Run supersteps ``start + 1 .. stop`` (unbounded if ``stop`` is None)
    until ``advance`` reports done. ``setup = (part, combine)`` appends
    ``combine([part(block) for each block])`` to ``consts`` once, before
    the first superstep. A ``checkpoint`` is written by ``advance``, so it
    keeps the loop on the driver. Returns (state, last superstep run or
    ``start``, per-superstep seconds)."""
    path = _fused if len(refs) == 1 and checkpoint is None else _rounds
    return path(refs, kernel, advance, state, consts, setup, start, stop)


def resume(checkpoint, key: str, state):
    """The one resume rule of every checkpointed loop: (iteration, state
    ``key``) of the latest complete manifest of ``checkpoint``
    (pipelines.checkpoint.CheckpointManager), else (0, ``state``)."""
    st = checkpoint.load_latest() if checkpoint is not None else None
    return (0, state) if st is None else (st["iteration"], st["state"][key])


def iterate(parts: Callable, advance: Callable, state, consts: tuple = (),
            start: int = 0, stop: int | None = None):
    """The driver-side loop body shared by every superstep engine:
    ``state, done = advance(state, parts(state), it, *consts)``, timed."""
    it, times = start, []
    for it in itertools.count(start + 1) if stop is None \
            else range(start + 1, stop + 1):
        t0 = time.perf_counter()
        state, done = advance(state, parts(state), it, *consts)
        times.append(time.perf_counter() - t0)
        if done:
            break
    return state, it, times


def _run(each, put, kernel, advance, state, consts, setup, start, stop):
    """The loop over ``each(fn, *args)``, which applies ``fn`` to every
    step block; ``put`` ships a value to where the blocks are."""
    if setup is not None:
        consts = (*consts, *setup[1](each(setup[0])))
    shipped = [put(c) for c in consts]          # constant across supersteps
    return iterate(lambda st: each(kernel, put(st), *shipped), advance,
                   state, consts, start, stop)


def _loop(block, *args):
    """The fused task's body: the whole loop next to one local block."""
    return _run(lambda fn, *a: [fn(block, *a)], lambda x: x, *args)


def _fused(refs, *args):
    state, it, times = ray.get(_task(_loop).remote(refs[0], *args))
    # ray.get hands back read-only arrays; rounds return driver-made ones
    own = functools.partial(np.require, requirements="W")
    return (tuple(map(own, state)) if isinstance(state, tuple)
            else own(state)), it, times


def _rounds(refs, *args):
    return _run(lambda fn, *a: ray.get([_task(fn).remote(r, *a)
                                        for r in refs]), ray.put, *args)


def _user_step(block: pa.Table, state, message: Callable, combine: str):
    s = block["src"].to_numpy(zero_copy_only=False)
    d = block["dst"].to_numpy(zero_copy_only=False)
    if len(s) == 0:
        return (np.empty(0, np.int64), np.empty(0, np.float64))
    msg = np.asarray(message(state[s], s, d), dtype=np.float64)
    order = np.argsort(d, kind="stable")
    ds, ms = d[order], msg[order]
    seg = np.r_[0, np.flatnonzero(ds[1:] != ds[:-1]) + 1]
    return ds[seg], _REDUCE[combine].reduceat(ms, seg)


def run_supersteps(g, state0: np.ndarray, message: Callable,
                   combine: str = "sum",
                   apply: Callable | None = None,
                   iter_count: int = 20,
                   check: Callable | None = None):
    """Run user supersteps over a BspGraph.

    - ``message(src_state, src, dst) -> np.ndarray``: vectorized message
      per edge (the eval-node step body).
    - ``combine``: per-destination reduction ('sum' | 'min' | 'max') — the
      accumulator (state/agg.rs SumDef/MinDef/MaxDef vocabulary).
    - ``apply(old_state, combined, got_msg_mask) -> new_state``: state
      update after the exchange; default keeps the combined value where a
      message arrived and the old state elsewhere.
    - ``check(old, new) -> bool``: convergence test (Step::Done);
      iteration also stops at ``iter_count`` (TaskRunner num_iterations).

    Returns (state, iterations_run)."""
    n = g.n
    ident = _IDENT[combine]

    def advance(state, parts, it, *_):
        agg = np.full(n, ident, dtype=np.float64)
        got = np.zeros(n, dtype=bool)
        for ids, vals in parts:
            agg[ids] = vals          # dst-ownership ⇒ disjoint scatter
            got[ids] = True
        if apply is None:
            new_state = np.where(got, agg, state)
        else:
            new_state = np.asarray(apply(state, agg, got), dtype=np.float64)
        return new_state, check is not None and check(state, new_state)

    return superstep_loop(
        g.refs, _user_step, advance,
        np.asarray(state0, dtype=np.float64).copy(), (message, combine),
        stop=iter_count)[:2]
