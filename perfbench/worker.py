"""One benchmark run inside its own process (started by ``run.py``).

Starts Ray, sets up five times (engine import in fresh workers, input
generation from the seed), loads or computes the numpy reference, then
repeats the timed section for ``--seconds`` seconds and checks every
repetition's outputs outside the timed section. Progress goes to the
harness as JSON lines on the file descriptor given by ``--chan``, one event
per line, so the harness keeps every figure that arrived if this process
has to be killed at a deadline.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import traceback

import numpy as np

import workloads as W
from spans import Tracer, layer_of, self_time_by_layer

OP_DEADLINE_S = 60.0      # per timed engine call
OBJECT_STORE_BYTES = 512 * 1024 ** 2
# Idle worker processes stay resident, as on a long-running cluster. With
# Ray's default of killing idle workers and starting new ones, single calls
# jumped by up to 1 s (per-repetition spread of job_s 13% instead of 3%).
# The figures therefore leave out worker re-spawn cost.
RAY_SYSTEM_CONFIG = {"kill_idle_workers_interval_ms": 0}
# set-up passes per run (engine import in fresh workers, input generation);
# setup_s is the median pass
SETUP_REPEATS = 5
# Ray puts its sockets at <temp>/session_<41 chars>/sockets/plasma_store and
# AF_UNIX paths are capped at 107 bytes
MAX_RAY_TMP = 44


class Channel:
    def __init__(self, fd: int):
        self.f = os.fdopen(fd, "w", buffering=1)

    def emit(self, **ev) -> None:
        self.f.write(json.dumps(ev) + "\n")


class Ctx:
    """What a timed section uses: ``call`` wraps every engine call with a
    deadline announcement, a span and a duration record."""

    def __init__(self, chan: Channel, tracer: Tracer):
        self.chan = chan
        self.tracer = tracer
        self.durations: list[tuple[str, float]] = []
        self.current: str | None = None

    def call_timed(self, op: str, fn, *args, **kw):
        self.chan.emit(ev="begin", op=op, deadline_s=OP_DEADLINE_S)
        self.current = op
        t0 = time.perf_counter()
        with self.tracer.span(op):
            out = fn(*args, **kw)
        dt = time.perf_counter() - t0
        self.current = None
        self.durations.append((op, dt))
        self.chan.emit(ev="end", op=op)
        return out, dt

    def call(self, op: str, fn, *args, **kw):
        return self.call_timed(op, fn, *args, **kw)[0]


def start_ray(tmp: str, cpus: int) -> float:
    """Start a local Ray with its session files under ``tmp`` (Ray's
    default temp directory when that path is too long for its sockets)."""
    import ray
    t0 = time.perf_counter()
    kw = {"_temp_dir": tmp} if len(tmp) <= MAX_RAY_TMP else {}
    ray.init(address="local", num_cpus=cpus, include_dashboard=False,
             object_store_memory=OBJECT_STORE_BYTES, log_to_driver=False,
             logging_level="ERROR", _system_config=RAY_SYSTEM_CONFIG, **kw)
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # Reads get 2 blocks per CPU. Ray Data's default, max(min(200, estimated
    # MiB), 2 per CPU), follows a sampled size estimate: two 10k-file corpora
    # of equal size read as 4 and as 8 blocks, and load_graph took 0.45 s
    # and 0.62 s. The figures therefore leave out Ray Data's own choice of
    # read parallelism.
    ctx.read_op_min_num_blocks = 2 * cpus
    return time.perf_counter() - t0


def _import_engine() -> int:
    import raphtory_ray.state.shards  # noqa: F401
    return os.getpid()


def setup_pass(wl, warm, a, size: dict) -> tuple[dict, float]:
    """One set-up pass: import the engine in one fresh worker per CPU, then
    generate and write the input. Returns the input and the pass time."""
    import ray
    t0 = time.perf_counter()
    ray.get([warm.remote() for _ in range(a.ray_cpus)])
    inp = wl.setup(a.seed, size, os.path.join(a.work, "input"))
    return inp, time.perf_counter() - t0


def load_reference(wl, inp: dict, key: str, work: str) -> tuple[dict, bool]:
    """numpy reference for this seed, from the cache when present."""
    path = os.path.join(work, "ref", key + ".npz")
    if os.path.exists(path):
        with np.load(path, allow_pickle=False) as z:
            return {k: z[k] for k in z.files}, True
    ref = wl.reference(inp)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp.npz"
    np.savez(tmp, **ref)
    os.replace(tmp, path)
    return ref, False


def rep_figures(wl, ctx: Ctx, inp: dict, ref: dict, label: str) -> dict:
    """One timed repetition plus its untimed check. Returns the
    repetition's figures (end-to-end and per-layer)."""
    ctx.durations = []
    tracer = ctx.tracer
    first_span = len(tracer.spans)
    t0 = time.perf_counter()
    with tracer.span("rep", label=label):
        out, fig = wl.rep(ctx, inp)
    job_s = time.perf_counter() - t0
    wl.finish(out, fig)
    # the engine objects are gone now; a BspGraph and its LPA actor pool
    # reference each other, so only a collection frees the pool's CPU
    # before the next repetition
    gc.collect()
    bad = wl.check(out, ref, inp, fig)
    ctx.chan.emit(ev="check", label=label,
                  failed=[{"op": op, "msg": msg} for op, msg in bad])
    fig["job_s"] = job_s
    if "_graph_edges" in fig:
        fig["graph_edges_per_s"] = fig.pop("_graph_edges") / job_s
    if "_files" in fig:
        fig["pipelines.files_per_s"] = fig.pop("_files") / job_s
    by_op: dict[str, list[float]] = {}
    for op, dt in ctx.durations:
        by_op.setdefault(op, []).append(dt)
    for op, dts in by_op.items():
        fig[op + "_s"] = float(np.median(dts))
    if "_docs" in fig:
        data_s = sum(sum(v) for k, v in by_op.items() if layer_of(k) == "data")
        fig["data.docs_per_s"] = fig.pop("_docs") / data_s
    lat = fig.pop("_window_lat", None)
    if lat:
        fig["graph.window_s"] = float(np.median(lat))
        fig["_window_lat"] = lat
    if tracer.enabled:
        for layer, st in self_time_by_layer(tracer.spans[first_span:]).items():
            fig[layer + ".self_s"] = st
    return fig


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full", choices=sorted(W.SIZES))
    ap.add_argument("--work", required=True)
    ap.add_argument("--chan", type=int, required=True)
    ap.add_argument("--ray-cpus", type=int, required=True)
    ap.add_argument("--ray-tmp", required=True)
    a = ap.parse_args()
    chan = Channel(a.chan)
    wl = W.WORKLOADS[a.workload]
    size = W.SIZES[a.size][a.workload]
    run_id = f"{a.workload}-s{a.seed}-t{a.trace}-{os.getpid()}"
    tracer = Tracer(run_id, enabled=bool(a.trace))
    ctx = Ctx(chan, tracer)
    os.makedirs(a.work, exist_ok=True)

    import ray
    # Ray's own start is left out of setup_s: it is not code of this
    # repository, and its polling made it jump between 2.2 and 4.3 s.
    ray_s = start_ray(a.ray_tmp, a.ray_cpus)
    # max_calls=1 ends each worker after its task, so every pass after the
    # first pays worker start and engine import again
    warm = ray.remote(max_calls=1)(_import_engine)
    passes = []
    for _ in range(SETUP_REPEATS):
        inp, dt = setup_pass(wl, warm, a, size)
        passes.append(dt)
    chan.emit(ev="setup", setup_s=float(np.median(passes)),
              ray_start_s=ray_s, passes=passes)

    t0 = time.perf_counter()
    ref, cached = load_reference(
        wl, inp, W.reference_key(a.workload, a.seed, size), a.work)
    chan.emit(ev="reference", s=time.perf_counter() - t0, cached=cached)

    try:
        # one warm-up repetition: worker processes, imports and Ray Data's
        # executor start here, not in the measured figures
        tracer.enabled = False
        rep_figures(wl, ctx, inp, ref, "warmup")
        start = time.perf_counter()
        i = 0
        # a traced run needs a traced and an untraced repetition
        while i < 1 + a.trace or time.perf_counter() - start < a.seconds:
            # traced runs alternate traced and untraced repetitions so the
            # tracing overhead is measured in the same process
            tracer.enabled = bool(a.trace) and i % 2 == 0
            fig = rep_figures(wl, ctx, inp, ref, f"rep{i}")
            chan.emit(ev="rep", traced=tracer.enabled, fig=fig)
            i += 1
        if a.trace:
            tracer.enabled = True
            run_probes(a, ctx, wl, inp)
            tracer.write_jsonl(os.path.join(a.work, f"trace-{run_id}.jsonl"))
    except Exception as e:  # an engine failure ends the run, reported
        chan.emit(ev="error", op=ctx.current, msg=f"{type(e).__name__}: {e}",
                  tb=traceback.format_exc(limit=8))
    finally:
        ray.shutdown()
    chan.emit(ev="done")
    return 0


def run_probes(a, ctx: Ctx, wl, inp: dict) -> None:
    """Per-layer figures the workload's own calls do not give: one traced
    repetition of each probe workload at probe size, then the numpy
    PageRank superstep on this workload's graphs (median over them)."""
    sizes = W.SIZES["tiny" if a.size == "tiny" else "probe"]
    for name in W.PROBES[a.workload]:
        pw = W.DOC_DEDUP if name == "doc-dedup" else W.WORKLOADS[name]
        pinp = pw.setup(a.seed, sizes[name], os.path.join(a.work, "probe"))
        pref = pw.reference(pinp)
        fig = rep_figures(pw, ctx, pinp, pref, f"probe-{name}")
        fig.pop("job_s", None)
        ctx.chan.emit(ev="probe", workload=name, fig=fig)
    ctx.chan.emit(ev="probe", workload="stages",
                  fig=W.stage_probe(ctx, a.seed, sizes["stages"]["n_files"]))
    kernel_s = [W.pagerank_kernel_s(*g) for g in wl.graphs(inp)]
    ctx.chan.emit(ev="probe", workload="core",
                  fig={"core.pagerank_superstep_s": float(np.median(kernel_s))})


if __name__ == "__main__":
    sys.exit(main())
