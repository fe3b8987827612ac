"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests -q``
from the repository root.

The smoke tests start Ray (2 logical CPUs) through ``run.py`` at the tiny
input sizes; the rest are in-process checks of the checker, the metric
names and the trace roll-up.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, ROOT)

import gen  # noqa: E402
import metrics  # noqa: E402
import workloads as W  # noqa: E402
from spans import Tracer, self_time_by_layer  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
UNIT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
              "0123456789_/%.-")


def run_bench(*args, cwd=ROOT, timeout=170):
    p = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                        *args], cwd=cwd, capture_output=True, text=True,
                       timeout=timeout)
    return p.returncode, p.stdout.strip().splitlines(), p.stderr


# ------------------------------------------------------------ names

def test_metric_and_workload_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for n in names:
        assert metrics.NAME_RE.match(n), n
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert len(m["unit"]) <= 16 and set(m["unit"]) <= UNIT_OK, m
    assert {w["name"] for w in SPEC["workloads"]} == set(W.WORKLOADS)


# ------------------------------------------------------------ checker

@pytest.fixture(scope="module")
def small_graph():
    tb = gen.edge_table(3, 300, 1500, W.T_SPAN)
    src, dst = tb["src"].to_numpy(), tb["dst"].to_numpy()
    return src, dst, 300, W.graph_reference(src, dst, 300)


def test_checker_passes_reference(small_graph):
    *_, ref = small_graph
    out = {k: ref[k].copy() for k in ("pagerank", "wcc", "lpa", "triangles")}
    assert W.graph_check(out, ref) == []


@pytest.mark.parametrize("key,op", [("pagerank", "state.pagerank"),
                                    ("wcc", "state.wcc"),
                                    ("lpa", "state.lpa"),
                                    ("triangles", "state.triangles")])
def test_checker_catches_one_wrong_value(small_graph, key, op):
    *_, ref = small_graph
    out = {k: ref[k].copy() for k in ("pagerank", "wcc", "lpa", "triangles")}
    if key == "pagerank":
        out[key][7] += 2e-6
    else:
        out[key][7] += 1
    assert [o for o, _ in W.graph_check(out, ref)] == [op]


def test_two_hop_count_matches_brute_force():
    tb = gen.edge_table(5, 40, 200, 50)
    s, d, t = (tb[c].to_numpy() for c in ("src", "dst", "t"))
    brute = sum(int(d[i] == s[j] and t[i] < t[j])
                for i in range(len(s)) for j in range(len(s)))
    assert W.two_hop_count(s, d, t) == brute


def test_corpus_truth_matches_contents():
    table, truth = gen.corpus(9, 120)
    src, dst, n = gen.corpus_truth_vids(truth)
    assert n == 120 and len(src) == len(truth["src"])
    # every import line written names its target's module
    for e in range(0, len(truth["src"]), 17):
        body = table["content"][int(truth["src"][e])].as_py()
        target = truth["gid"][truth["dst"][e]].split("/")[-1]
        assert target in body


def test_generators_are_seeded():
    assert gen.edge_table(4, 50, 80, 100).equals(gen.edge_table(4, 50, 80, 100))
    assert not gen.edge_table(4, 50, 80, 100).equals(
        gen.edge_table(5, 50, 80, 100))
    assert gen.corpus(4, 60)[0].equals(gen.corpus(4, 60)[0])


# ------------------------------------------------------------ trace

def test_self_time_subtracts_children():
    tr = Tracer("t", enabled=True)
    with tr.span("rep"):
        with tr.span("state.pagerank"):
            pass
    spans = tr.spans
    spans[0]["start"], spans[0]["end"] = 0.0, 10.0
    spans[1]["start"], spans[1]["end"] = 2.0, 5.0
    st = self_time_by_layer(spans)
    assert st == {"bench": 7.0, "state": 3.0}


def test_tail_has_ten_samples_beyond():
    xs = list(range(1, 31))
    assert metrics.tail(xs) == 20
    assert metrics.tail([3.0, 1.0]) == 3.0


# ------------------------------------------------------------ runs

@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_tiny_run_is_correct(workload):
    code, out, err = run_bench("--workload", workload, "--seed", "1",
                               "--seconds", "1", "--trace", "0",
                               "--size", "tiny")
    assert code == 0, err[-2000:]
    res = json.loads(out[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, err[-2000:]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    code, out, err = run_bench("--workload", "edge-algos", "--seed", "2",
                               "--seconds", "1", "--trace", "1",
                               "--size", "tiny")
    assert code == 0, err[-2000:]
    res = json.loads(out[-1])
    assert res["correct"], err[-2000:]
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_one_cpu_hang_is_a_failed_operation():
    """The known defect: at one logical CPU the LPA actor pool holds the
    only slot, so the next task-based call never runs."""
    code, out, err = run_bench("--workload", "edge-algos", "--seed", "1",
                               "--seconds", "1", "--trace", "0",
                               "--ray-cpus", "1")
    assert code == 0
    res = json.loads(out[-1])
    assert not res["correct"] and res["failed"] == 1
    assert "state.triangles: deadline exceeded" in err


def test_refuses_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out, _ = run_bench("--workload", "corpus-job", "--seed", "1",
                             "--seconds", "1", "--trace", "0",
                             cwd=str(tmp_path), timeout=60)
    assert code != 0 and not any(line.startswith("{") for line in out)
