import ast
import importlib
import os
import pkgutil
import re
import subprocess
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


@pytest.mark.parametrize("path", [path for path in [*sorted((ROOT / "src" / "strataforge").glob("*.py")),
                                                   *sorted((ROOT / "tests").glob("*.py"))]
                                  if path.name != "__init__.py"],   # it re-exports
                         ids=lambda path: path.name)
def test_library_modules_read_every_import(path):
    """Library and test modules alike: a test that stops reading a name
    must stop importing it too."""
    assert unread_imports(path.read_text()) == []


def test_library_imports_no_sympy_and_declares_what_it_imports():
    """Every import in every ``strataforge`` module, function bodies
    included, is of the standard library, of the package itself or of a
    dependency that pyproject.toml declares, and each declared dependency
    is imported: numpy alone.  So no module imports sympy, which only the
    tests read, as their oracle (the ``test`` extra).  The dependency list
    is read by pattern, as tomllib is new in Python 3.11."""
    imported = set()
    for path in (ROOT / "src" / "strataforge").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.partition(".")[0])
    listed = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(),
                       re.MULTILINE | re.DOTALL)[1]
    declared = {re.split(r"[<>=!~;\[ ]", dep)[0] for dep in re.findall(r'"([^"]+)"', listed)}
    assert "sympy" not in imported
    assert imported - set(sys.stdlib_module_names) - {"strataforge"} == declared == {"numpy"}


def test_every_process_memo_is_bounded():
    """Every object of a ``strataforge`` module that exposes ``cache_info()``
    is a memo that lives as long as the process, so each has a finite
    ``maxsize``: ``PASS_CACHE_SIZE`` for the two pass caches and the route
    memo (``curves._route``), and ``L_CACHE_SIZE`` for every other, the
    class memos, the verdict memo, the Weil memos and the polygon memo among
    them.  One is unbounded by
    design: ``weil._power_degrees``, one tuple per genus.  ``field_new``
    keeps its descriptors in a dict (``ffield._fields``), keyed on (p, n),
    which ``MAX_P`` and the 2^30-element limit bound."""
    import strataforge
    from strataforge import curves, ffield

    memos = {}
    for info in pkgutil.iter_modules(strataforge.__path__):
        for obj in vars(importlib.import_module(f"strataforge.{info.name}")).values():
            if callable(getattr(obj, "cache_info", None)):
                name = f"{obj.__module__.rpartition('.')[2]}.{obj.__qualname__}"
                memos[name] = obj.cache_info().maxsize
    unbounded = {"weil._power_degrees"}
    passes = {"curves._extension_pass", "curves._matrix_pass", "curves._route"}
    assert {name for name, size in memos.items() if size is None} == unbounded
    assert {name for name, size in memos.items() if size == curves.PASS_CACHE_SIZE} == passes
    rest = {name: size for name, size in memos.items() if name not in unbounded | passes}
    assert set(rest.values()) == {ffield.L_CACHE_SIZE}, rest
    assert {"ffield._squarefree_memo", "curves.l_polynomial", "prank.p_rank", "weil.l_reducible",
            "weil.absolutely_simple", "weil.splitting_class", "prank.newton_polygon"} <= set(rest)


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


def test_bench_set_up_loads_neither_sympy_nor_the_families():
    """The bench imports the per-curve modules and lists the genus-3 census
    off ``enumerate_monic``; neither may pull in sympy or
    ``strataforge.families``, whose import would land in every workload's
    measured set-up."""
    code = ("import sys, workloads; lib = workloads.import_library(); ff = lib['ffield']; "
            "assert sum(1 for _ in ff.enumerate_monic(ff.field_new(3), 7, squarefree_only=True)) "
            "== 1458; loaded = [m for m in sys.modules "
            "if m.split('.')[0] == 'sympy' or m == 'strataforge.families']; "
            "assert not loaded, loaded")
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src"), *sys.path])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": path})
