"""Every program file compiles with warnings as errors, so a compile-time
warning (an invalid escape sequence, say) cannot come back unnoticed; and
only core/exchange.py asks Ray for the cluster's CPUs."""

from __future__ import annotations

import pathlib
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
