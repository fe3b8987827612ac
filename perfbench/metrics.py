"""Turning the worker's events into the metrics of one run.

Pure Python (no Ray, no numpy), so the harness can aggregate whatever
arrived even when the worker had to be killed.
"""

from __future__ import annotations

import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def tail(samples: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are fewer than eleven samples."""
    s = sorted(samples)
    return s[len(s) - 11] if len(s) >= 11 else s[-1]


class RunState:
    """Everything the harness learned from one worker's events."""

    def __init__(self):
        self.setup_s: float | None = None
        self.reps: list[dict] = []        # {"traced": bool, "fig": {...}}
        self.probes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.current: tuple[str, float] | None = None   # (op, deadline_s)
        self.peak_mb = 0.0
        self.done = False

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def handle(self, ev: dict) -> None:
        kind = ev["ev"]
        if kind == "setup":
            self.setup_s = ev["setup_s"]
        elif kind == "begin":
            self.attempted += 1
            self.current = (ev["op"], ev["deadline_s"])
        elif kind == "end":
            self.current = None
        elif kind == "check":
            for f in ev["failed"]:
                self.fail(f"{ev['label']} {f['op']}: wrong output: {f['msg']}")
        elif kind == "rep":
            self.reps.append(ev)
        elif kind == "probe":
            self.probes.append(ev)
        elif kind == "error":
            self.fail(f"{ev['op']}: {ev['msg']}")
        elif kind == "done":
            self.done = True

    def correct(self) -> bool:
        return self.done and self.failed == 0 and bool(self.reps)


def _median_of(figs: list[dict], name: str) -> float | None:
    vals = [f[name] for f in figs if name in f]
    return statistics.median(vals) if vals else None


def end_to_end(st: RunState) -> dict[str, float]:
    figs = [r["fig"] for r in st.reps]
    out = {"setup_s": st.setup_s, "peak_rss_mb": st.peak_mb or None}
    for name in ("job_s", "graph_edges_per_s", "pr_edges_per_s"):
        out[name] = _median_of(figs, name)
    return {k: v for k, v in out.items() if v is not None}


def per_layer(st: RunState) -> dict[str, float]:
    """Medians over the traced repetitions; what those lack comes from the
    probes. ``trace.overhead_s`` is the traced minus the untraced median
    ``job_s`` of the same run."""
    traced = [r["fig"] for r in st.reps if r["traced"]]
    untraced = [r["fig"] for r in st.reps if not r["traced"]]
    out: dict[str, float] = {}
    for figs in (traced, [p["fig"] for p in st.probes]):
        names = {k for f in figs for k in f if not k.startswith("_")}
        for name in sorted(names - set(out)):
            out[name] = _median_of(figs, name)
        lat = [x for f in figs for x in f.get("_window_lat", [])]
        if lat and "graph.window_tail_s" not in out:
            out["graph.window_tail_s"] = tail(lat)
    for name in ("job_s", "graph_edges_per_s", "pr_edges_per_s"):
        out.pop(name, None)
    if "state.pagerank_superstep_s" in out and "core.pagerank_superstep_s" in out:
        out["state.pagerank_overhead_ratio"] = \
            out["state.pagerank_superstep_s"] / out["core.pagerank_superstep_s"]
    if traced and untraced:
        out["trace.overhead_s"] = _median_of(traced, "job_s") \
            - _median_of(untraced, "job_s")
    return out


def result(st: RunState, spec: dict, trace: int) -> dict:
    """The run's last output line. Only metrics named in ``spec`` are
    reported, each with its unit."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    have = per_layer(st) if trace else end_to_end(st)
    return {"correct": st.correct(), "attempted": max(1, st.attempted),
            "failed": st.failed,
            "metrics": {m["name"]: {"value": have[m["name"]], "unit": m["unit"]}
                        for m in wanted if m["name"] in have}}
