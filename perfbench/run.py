"""Benchmark of the link-graph engine: one run of one workload.

    python3 perfbench/run.py --workload corpus-job --seed 1 --seconds 15 --trace 0

Run from the repository root. Workloads, metrics and the Ray configuration
are described in ``BENCHMARK.json``. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). Everything else goes to standard error.

This process is only the harness. The engine runs in a worker process
(``worker.py``) in its own session. Each timed call has a deadline and the
whole run has one. A call that overruns its deadline counts as a failed
operation: the harness kills the worker's process group, which holds Ray's
processes too, and still prints every metric that arrived. Peak memory is
sampled here from ``/proc``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
RAY_TMP = os.path.join(ROOT, ".pbray")   # short: Ray's socket paths hang off it
RUN_DEADLINE_S = 150.0    # whole worker; the harness must exit within 180 s
RSS_PERIOD_S = 1.0


def session_pids(sid: int) -> list[int]:
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # fields after the parenthesised command: state ppid pgrp session
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            pids.append(int(name))
    return pids


def pss_mb(pid: int) -> float:
    """Proportional set size: resident memory with shared pages (the object
    store) split between the processes that map them, so the sum over
    processes does not count them twice."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def sample_memory(sid: int, st: metrics.RunState, stop: threading.Event):
    while not stop.wait(RSS_PERIOD_S):
        total = sum(pss_mb(p) for p in session_pids(sid))
        st.peak_mb = max(st.peak_mb, total)


def stop_session(sid: int, grace_s: float = 5.0) -> None:
    """Kill every process of the worker's session and wait until none is
    left."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(sid, sig)
        except ProcessLookupError:
            return
        end = time.monotonic() + grace_s
        while time.monotonic() < end:
            if not session_pids(sid):
                return
            time.sleep(0.1)


def log_event(ev: dict) -> None:
    fig = ev.get("fig", ev)
    print(f"[{ev['ev']}] " + " ".join(
        f"{k}={v:.4g}" for k, v in sorted(fig.items())
        if isinstance(v, (int, float)) and not isinstance(v, bool)),
        file=sys.stderr)


def drive(args, st: metrics.RunState) -> None:
    """Start the worker, follow its events, enforce the deadlines."""
    r, w = os.pipe()
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   p for p in (ROOT, os.environ.get("PYTHONPATH")) if p),
               RAY_USAGE_STATS_ENABLED="0",
               RAY_DATA_DISABLE_PROGRESS_BARS="1",
               RAY_DISABLE_IMPORT_WARNING="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--work", WORK, "--chan", str(w),
           "--ray-cpus", str(args.ray_cpus), "--ray-tmp", RAY_TMP]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, pass_fds=(w,),
                            stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    os.close(w)
    stop = threading.Event()
    sampler = threading.Thread(target=sample_memory,
                               args=(proc.pid, st, stop), daemon=True)
    sampler.start()
    run_end = time.monotonic() + RUN_DEADLINE_S
    op_end = None
    buf = b""
    try:
        while True:
            now = time.monotonic()
            end = run_end if op_end is None else min(run_end, op_end)
            if now >= end:
                what = st.current[0] if st.current else "run"
                st.fail(f"{what}: deadline exceeded, worker killed")
                break
            ready, _, _ = select.select([r], [], [], min(1.0, end - now))
            if not ready:
                continue
            chunk = os.read(r, 65536)
            if not chunk:
                break
            buf += chunk
            *lines, buf = buf.split(b"\n")
            for line in lines:
                ev = json.loads(line)
                st.handle(ev)
                if ev["ev"] in ("rep", "probe", "setup", "reference"):
                    log_event(ev)
                op_end = (time.monotonic() + st.current[1]
                          if st.current else None)
    finally:
        os.close(r)
        try:
            proc.wait(timeout=20 if st.done else 0.1)
        except subprocess.TimeoutExpired:
            pass
        stop_session(proc.pid)
        proc.wait()
        stop.set()
        sampler.join()
    if not st.done and not st.failures:
        st.fail(f"worker exited with code {proc.returncode} before finishing")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full",
                    help="input sizes: full (measured) or tiny (self-tests)")
    ap.add_argument("--ray-cpus", type=int, default=2,
                    help="Ray logical CPUs (at 1 the engine hangs after "
                    "LPA; see README.md)")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "raphtory_ray")):
        print(f"no engine package next to {HERE}: nothing to measure",
              file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    st = metrics.RunState()
    drive(args, st)
    for f in st.failures:
        print(f"FAILED {f}", file=sys.stderr)
    if st.setup_s is None:
        print("the worker ended before its set-up finished", file=sys.stderr)
        return 1
    res = metrics.result(st, spec, args.trace)
    frac = st.failed / max(1, st.attempted)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(st.reps)} attempted={st.attempted} failed={st.failed} "
          f"failed_op_frac={frac:.4g} correct={res['correct']}")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
