import ast
import importlib
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_pyproject_names_only_files_and_entry_points_that_exist():
    import tomllib

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert (ROOT / project["readme"]).is_file()
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def unread_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads
    (``from __future__`` aside)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unread_imports_are_found():
    assert unread_imports("import os\nimport numpy as np\nfrom .x import a, b\nnp.ones(a)\n") \
        == ["os", "b"]


@pytest.mark.parametrize("path", [path for path in sorted((ROOT / "src" / "strataforge").glob("*.py"))
                                  if path.name != "__init__.py"],   # it re-exports
                         ids=lambda path: path.name)
def test_library_modules_read_every_import(path):
    assert unread_imports(path.read_text()) == []


def test_bench_tracer_finds_every_name_it_wraps(monkeypatch):
    """The benchmark's traced pass wraps library functions by name, so a
    library change that deletes or renames one fails here, with an
    AttributeError from ``install_tracing``; the wrappers are removed again."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import strataforge
    import tracing
    import workloads

    lib = workloads.import_library()
    owners = [strataforge, *lib.values(), lib["ffield"].FieldDescriptor]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer(time.perf_counter)
    try:
        workloads.install_tracing(tracer, lib)
    finally:
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before
