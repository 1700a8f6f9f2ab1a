"""Every module under ``src/repro`` has a caller outside its own tests.

Walks the static import graph of ``src/``, ``benchmarks/``,
``examples/`` and ``bench/`` and fails if some ``repro`` module is
imported by nothing but tests.  A package ``__init__`` re-export is not a
caller by itself: ``from repro.msm import X`` counts as an import of
the module that defines ``X``, resolved through the package's
from-imports and its ``_LAZY`` name tables.  A string constant that
spells a module's dotted name (an ``importlib`` target) counts too.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
CALLER_ROOTS = ("src", "benchmarks", "examples", "bench")
#: Entry points run by name, not imported.
ALLOWED = {"__main__.py", "version.py"}


def _module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = {_module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))}
PACKAGES = {
    _module_name(p) for p in MODULES.values() if p.name == "__init__.py"
}


def _package_table(package):
    """``name -> defining module`` for a package ``__init__``.

    Names the ``__init__`` defines itself map to the ``__init__``'s own
    from-imports, which run on behalf of that code.
    """
    tree = ast.parse(MODULES[package].read_text())
    table, imported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module)
            for alias in node.names:
                table[alias.asname or alias.name] = {node.module}
        elif isinstance(node, ast.Dict):  # _LAZY = {"Name": ("module", "attr")}
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(value, ast.Tuple)
                    and value.elts
                    and isinstance(value.elts[0], ast.Constant)
                    and value.elts[0].value in MODULES
                ):
                    table[key.value] = {value.elts[0].value}
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            table[node.name] = imported
    return table


def _imported_modules(path, tables):
    """Every ``repro`` module that one caller file reaches."""
    reached = set()

    def resolve(package, name):
        if f"{package}.{name}" in MODULES:
            reached.add(f"{package}.{name}")
        for target in tables.get(package, {}).get(name, ()):
            if target not in reached:
                reached.add(target)
                if target in PACKAGES:
                    resolve(target, name)

    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            reached.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                here = _module_name(path).split(".")[: -node.level]
                base = ".".join(here + ([base] if base else []))
            reached.add(base)
            for alias in node.names:
                resolve(base, alias.name)
        elif isinstance(node, ast.Constant) and node.value in MODULES:
            reached.add(node.value)
    return reached


def unreached_modules():
    """Non-package modules that no non-``__init__`` caller imports."""
    tables = {package: _package_table(package) for package in PACKAGES}
    reached = set()
    for root in CALLER_ROOTS:
        for path in sorted((REPO / root).rglob("*.py")):
            if path.name != "__init__.py":
                reached |= _imported_modules(path, tables)
    return sorted(
        name
        for name, path in MODULES.items()
        if name not in PACKAGES
        and name not in reached
        and path.name not in ALLOWED
    )


def test_every_module_has_a_non_test_caller():
    assert unreached_modules() == []


def test_walk_sees_lazy_tables_and_package_reexports():
    # repro.core exports only through _LAZY; repro.msm re-exports eagerly
    tables = {package: _package_table(package) for package in PACKAGES}
    assert tables["repro.core"]["MSMProjectConfig"] == {"repro.core.msm_controller"}
    assert tables["repro.msm"]["KCentersClustering"] == {"repro.msm.cluster"}
