"""Every program file compiles with warnings as errors, so a compile-time
warning (an invalid escape sequence, say) cannot come back unnoticed;
only core/exchange.py asks Ray for the cluster's CPUs; no program or test
file names a fixed checkout directory; a GraphFrame view adds a
pending predicate, not a Dataset stage; the one actor class is the
superstep loop's resident holder; every grouping runs on one Arrow
path; and the superstep engine under state/ calls no lexsort."""

from __future__ import annotations

import ast
import pathlib
import re
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _program_files() -> list[pathlib.Path]:
    files = [ROOT / "bench.py", ROOT / "__ray_entry__.py"]
    for d in ("raphtory_ray", "jobs", "tools"):
        files += sorted((ROOT / d).rglob("*.py"))
    return files


def test_program_files_compile_without_warnings():
    files = _program_files()
    assert len(files) > 50
    failed = []
    for path in files:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(path.read_text(), str(path), "exec",
                        dont_inherit=True)
            except (SyntaxError, Warning) as e:
                failed.append(f"{path.relative_to(ROOT)}: {e}")
    assert not failed, "\n".join(failed)


def test_cluster_cpus_read_only_in_exchange():
    """Partition, group and worker counts size from exchange.cluster_cpus;
    a second ``cluster_resources(`` lookup would bring back a private
    sizing rule."""
    exchange = ROOT / "raphtory_ray" / "core" / "exchange.py"
    hits = [str(p.relative_to(ROOT)) for p in _program_files()
            if p != exchange and "cluster_resources(" in p.read_text()]
    assert hits == []
    assert "cluster_resources(" in exchange.read_text()


def _names_checkout_file(text: str) -> bool:
    """True if a quoted absolute path in ``text`` ends in a file of this
    checkout: some directory of another checkout prefixes it."""
    for lit in re.findall(r"[\"'](/[^\"'\s{}]+)[\"']", text):
        parts = pathlib.PurePosixPath(lit).parts[1:]
        if any(ROOT.joinpath(*parts[i:]).is_file()
               for i in range(1, len(parts))):
            return True
    return False


def test_no_fixed_checkout_path():
    """A program or test file that puts a fixed checkout directory on
    sys.path, or loads a file from one, runs or reads that directory's
    copy when started from any other checkout; a script finds its own
    root from ``__file__`` instead. No program or test file names this
    checkout's path, a file under a fixed checkout path, or inserts a
    literal path into sys.path."""
    literal = re.compile(r"sys\.path\.insert\(\s*\d+\s*,\s*[rbuf]?[\"']")
    files = _program_files() + sorted((ROOT / "tests").rglob("*.py"))
    hits = [str(p.relative_to(ROOT)) for p in files
            if str(ROOT) in p.read_text() or literal.search(p.read_text())
            or _names_checkout_file(p.read_text())]
    assert hits == []


def test_views_are_pending_predicates():
    """In graph/graph_frame.py only the lazy ``edges`` builder stages the
    frame's edges through ``map_batches``: no method that returns a
    GraphFrame calls ``self.edges.map_batches``, and no frame is built
    over a ``map_batches`` result. A row-local view appends a predicate
    instead, so building its BspGraph starts no Dataset execution."""
    path = ROOT / "raphtory_ray" / "graph" / "graph_frame.py"
    tree = ast.parse(path.read_text())
    frame = next(n for n in tree.body
                 if isinstance(n, ast.ClassDef) and n.name == "GraphFrame")
    staged, builders = [], []
    for fn in frame.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        view = fn.returns is not None and "GraphFrame" in ast.unparse(
            fn.returns)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            callee = ast.unparse(node.func)
            if callee in ("self._base.map_batches", "self.edges.map_batches"):
                builders.append(fn.name)
                if view:
                    staged.append(f"{fn.name}: {callee}")
            if callee.split(".")[-1] in ("GraphFrame", "_derive") and any(
                    "map_batches" in ast.unparse(a)
                    for a in node.args + [k.value for k in node.keywords]):
                staged.append(f"{fn.name}: {callee} over map_batches")
    assert staged == []
    assert "edges" in builders


def test_one_actor_class():
    """The iterative algorithms run on state/supersteps.superstep_loop,
    whose resident placement holds the one actor class: no other
    ``@ray.remote`` class exists under raphtory_ray/."""
    found = []
    for path in sorted((ROOT / "raphtory_ray").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).split("(")[0].endswith("ray.remote")
                    for d in node.decorator_list):
                found.append(f"{path.relative_to(ROOT)}:{node.name}")
    assert found == ["raphtory_ray/state/supersteps.py:_Holder"]


# the pandas groupbys that run inside one block or over a driver-held
# partial table, by file and qualified function name
_PANDAS_GROUPBY = {("raphtory_ray/data/text.py", "_doc_term_tf"),
                   ("raphtory_ray/data/text.py", "vocab_stats.partial"),
                   ("raphtory_ray/data/similarity.py", "knn_bruteforce"),
                   ("raphtory_ray/data/similarity.py", "knn_ivf")}


def _calls_with_scope(tree):
    """(qualified enclosing function name, Call node) for every call."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call):
                yield scope, child
            yield from walk(child, inner)
    return walk(tree, "")


def test_grouping_on_one_path():
    """Every grouping in the program runs on core/aggregate's group_agg
    or a core/exchange route_fanout task: no ``ray.data.aggregate``
    import, no ``map_groups`` call and no Ray Data ``groupby`` (only the
    per-block and driver-side pandas groupbys in _PANDAS_GROUPBY). In
    query/cypher.py and core/aggregate.py an ``.aggregate(`` call must
    follow an Arrow ``group_by`` and there is no Dataset ``sum``."""
    strict = {"raphtory_ray/query/cypher.py", "raphtory_ray/core/aggregate.py"}
    hits = []
    for path in _program_files():
        rel = str(path.relative_to(ROOT))
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            mods = [node.module] if isinstance(node, ast.ImportFrom) else \
                [a.name for a in node.names] if isinstance(node, ast.Import) \
                else []
            if isinstance(node, ast.ImportFrom) and node.module == "ray.data":
                mods += [f"ray.data.{a.name}" for a in node.names]
            if "ray.data.aggregate" in mods:
                hits.append(f"{rel}:{node.lineno}: ray.data.aggregate")
        for scope, node in _calls_with_scope(tree):
            if not isinstance(node.func, ast.Attribute):
                continue
            name, recv = node.func.attr, node.func.value
            after_group_by = isinstance(recv, ast.Call) \
                and isinstance(recv.func, ast.Attribute) \
                and recv.func.attr == "group_by"
            if name == "map_groups" \
                    or (name == "groupby"
                        and (rel, scope) not in _PANDAS_GROUPBY) \
                    or (rel in strict and (name == "sum" or (
                        name == "aggregate" and not after_group_by))):
                hits.append(f"{rel}:{node.lineno}: .{name}(")
    assert hits == []


def test_no_lexsort_in_state():
    """The superstep kernels under raphtory_ray/state/ group by one sort
    of packed int64 keys: a ``lexsort`` there, a merge sort per key, is
    what made the LPA vote kernel the engine's largest layer."""
    hits = []
    for path in sorted((ROOT / "raphtory_ray" / "state").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) \
                    and ast.unparse(node.func).split(".")[-1] == "lexsort":
                hits.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert hits == []
