"""Spans recorded by the benchmark around its calls into the engine.

A span is one public call (or one group of calls, such as a repetition of
the timed section): name, start, end, parent span and run id. Spans stay in
memory and are written as JSONL once, at the end of a run. The engine
itself is not instrumented; a layer's self time is the time its spans
cover minus the part their child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


def layer_of(name: str) -> str:
    """``"state.pagerank"`` → ``"state"``; names without a dot are the
    benchmark's own glue (``"bench"``)."""
    return name.split(".", 1)[0] if "." in name else "bench"


class Tracer:
    """In-memory span recorder. With ``enabled=False`` ``span`` only yields,
    so the untraced run pays no recording cost."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def self_time_by_layer(spans: list[dict]) -> dict[str, float]:
    """Per layer: Σ over its spans of (duration − duration of direct
    children). Unfinished spans are skipped; a parent outside ``spans``
    is ignored."""
    child: dict[int, float] = {}
    for s in spans:
        if s["end"] is not None and s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) \
                + s["end"] - s["start"]
    out: dict[str, float] = {}
    for s in spans:
        if s["end"] is None:
            continue
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) \
            - child.get(s["id"], 0.0)
    return out
