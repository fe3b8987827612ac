"""Every program file compiles with warnings as errors, so a compile-time
warning (an invalid escape sequence, say) cannot come back unnoticed;
only core/exchange.py asks Ray for the cluster's CPUs; and no program
file names a fixed checkout directory."""

from __future__ import annotations

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


def test_no_fixed_checkout_path():
    """A program file that puts a fixed checkout directory on sys.path
    runs that directory's code when started from any other checkout; a
    script finds its own root from ``__file__`` instead. No program file
    names this checkout's path or inserts a literal path into sys.path."""
    literal = re.compile(r"sys\.path\.insert\(\s*\d+\s*,\s*[rbuf]?[\"']")
    hits = [str(p.relative_to(ROOT)) for p in _program_files()
            if str(ROOT) in p.read_text() or literal.search(p.read_text())]
    assert hits == []
