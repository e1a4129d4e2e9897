"""Every public name the package declares resolves to a live object.

The benchmark's span tracer looks up each ``__all__`` name with ``getattr``,
so a name left in ``__all__`` after its code is deleted breaks traced runs.
Every name the package re-exports has a caller outside the unit tests: the
library itself, the CLI, the acceptance suite or a benchmark workload.
The README's library quickstart must run against the names it imports.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import lpsample

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(info.name for info in pkgutil.iter_modules(lpsample.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"lpsample.{name}")
    assert [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)] == []


def test_package_reexports_only_declared_names():
    reexported = {
        attr: obj for attr, obj in vars(lpsample).items() if not attr.startswith("_") and not inspect.ismodule(obj)
    }
    assert reexported
    undeclared = [
        attr for attr, obj in reexported.items() if attr not in importlib.import_module(obj.__module__).__all__
    ]
    assert undeclared == []


def _name_sites(path):
    """(name, line) of every Name, import alias and attribute in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
            if node.asname:
                yield node.asname, node.lineno


def _caller_sites():
    """name -> [(path, line)] over the library (``__init__`` aside), the acceptance suite and perfbench."""
    callers = [path for path in sorted((ROOT / "src" / "lpsample").glob("*.py")) if path.name != "__init__.py"]
    callers += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    sites = {}
    for path in callers:
        for name, line in _name_sites(path):
            sites.setdefault(name, []).append((path.resolve(), line))
    return sites


def _called_elsewhere(name, obj, sites):
    """Whether ``name`` occurs at some site outside the source of ``obj`` (a decorated
    function's own source, not its wrapper's)."""
    obj = inspect.unwrap(obj)
    lines, first = inspect.getsourcelines(obj)
    home, span = Path(inspect.getsourcefile(obj)).resolve(), range(first, first + len(lines))
    return not all(path == home and line in span for path, line in sites.get(name, []))


def _reexports():
    return [(attr, obj) for attr, obj in sorted(vars(lpsample).items())
            if not attr.startswith("_") and not inspect.ismodule(obj)]


def test_every_reexport_has_a_caller_outside_the_unit_tests():
    sites = _caller_sites()
    assert [attr for attr, obj in _reexports() if not _called_elsewhere(attr, obj, sites)] == []


def test_every_public_member_of_a_reexported_class_has_a_caller_outside_the_unit_tests():
    """The same scan over the methods and properties each re-exported class
    defines (dataclass fields are values, not functions, and are skipped)."""
    sites = _caller_sites()
    uncalled = []
    for attr, cls in _reexports():
        if not inspect.isclass(cls):
            continue
        for name, member in vars(cls).items():
            if isinstance(member, property):
                member = member.fget
            elif isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if not name.startswith("_") and inspect.isfunction(member) and not _called_elsewhere(name, member, sites):
                uncalled.append(f"{attr}.{name}")
    assert uncalled == []


def test_readme_library_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library quickstart\s+```python\n(.*?)```", readme, re.DOTALL)
    assert block is not None
    namespace = {}
    exec(compile(block.group(1), "README.md quickstart", "exec"), namespace)
    assert (namespace["m1"], namespace["m2"]) == (1.5, 1.25)
