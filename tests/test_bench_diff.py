"""tools/bench_diff.py on canned perfbench result lines (no Ray)."""

from __future__ import annotations

import json

from tools import bench_diff

SPEC = {"end_to_end": [
    {"name": "job_s", "better": "lower", "bound": 0.25},
    {"name": "pr_edges_per_s", "better": "higher", "bound": 0.25}],
    "per_layer": [{"name": "state.wcc_s", "better": "lower"}]}


def _line(job_s, pr, wcc=0.1, correct=True, failed=0):
    return json.dumps({"correct": correct, "attempted": 10,
                       "failed": failed, "metrics": {
                           "job_s": {"value": job_s, "unit": "s"},
                           "pr_edges_per_s": {"value": pr, "unit": "1/s"},
                           "state.wcc_s": {"value": wcc, "unit": "s"}}})


def _runs(workload, rows):
    out = []
    for i, r in enumerate(rows):
        out += [f"# {workload} seed={i} trace=0 reps=10", _line(*r)]
    return out


def test_parse_groups_by_workload():
    lines = _runs("a", [(1.0, 5.0)]) + ["noise"] + _runs("b", [(2.0, 6.0)])
    runs = bench_diff.parse_runs(lines)
    assert sorted(runs) == ["a", "b"]
    assert runs["b"][0]["metrics"]["job_s"]["value"] == 2.0


def test_medians_wins_and_flags():
    parent = bench_diff.parse_runs(_runs("w", [
        (2.0, 1.0), (2.2, 1.1), (2.4, 0.9), (2.1, 1.0), (2.3, 1.2)]))["w"]
    change = bench_diff.parse_runs(_runs("w", [
        (1.0, 5.0), (3.0, 6.0), (1.1, 0.8), (1.2, 5.5), (1.3, 5.2)]))["w"]
    rows = {r["metric"]: r for r in bench_diff.compare(parent, change, SPEC)}
    job = rows["job_s"]
    assert (job["parent"], job["change"]) == (2.2, 1.2)
    assert abs(job["parent_iqr"] - 0.2 / 2.2) < 1e-12   # (2.3 - 2.1) / 2.2
    assert (job["wins"], job["pairs"]) == (4, 5)
    assert not job["flag"]
    pr = rows["pr_edges_per_s"]
    assert (pr["change"], pr["wins"], pr["flag"]) == (5.2, 4, False)
    assert not rows["state.wcc_s"]["flag"]              # no bound, no flag


def test_flags_a_move_past_the_bound(tmp_path):
    slow = bench_diff.parse_runs(_runs("w", [(1.3, 0.7)] * 3))["w"]
    base = bench_diff.parse_runs(_runs("w", [(1.0, 1.0)] * 3))["w"]
    rows = {r["metric"]: r for r in bench_diff.compare(base, slow, SPEC)}
    assert rows["job_s"]["flag"] and rows["pr_edges_per_s"]["flag"]
    assert rows["job_s"]["wins"] == 0
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps(SPEC))
    p, c = tmp_path / "parent.txt", tmp_path / "change.txt"
    p.write_text("\n".join(_runs("w", [(1.0, 1.0)] * 3)))
    c.write_text("\n".join(_runs("w", [(1.1, 1.0)] * 3)))
    assert bench_diff.main([str(p), str(c), "--benchmark", str(spec)]) == 0
    c.write_text("\n".join(_runs("w", [(1.3, 1.0)] * 3)))
    assert bench_diff.main([str(p), str(c), "--benchmark", str(spec)]) == 1
    c.write_text("\n".join(["# w seed=0", _line(1.0, 1.0, failed=1)]))
    assert bench_diff.main([str(p), str(c), "--benchmark", str(spec)]) == 1
