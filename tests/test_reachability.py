"""Every module and symbol under ``src/repro`` has a caller outside tests.

Modules: walks the static import graph of ``src/``, ``benchmarks/``,
``examples/`` and ``bench/`` and fails if some ``repro`` module is
imported by nothing but tests.  A package ``__init__`` re-export is not a
caller by itself: ``from repro.msm import X`` counts as an import of
the module that defines ``X``, resolved through the package's
from-imports and its ``_LAZY`` name tables.  A string constant that
spells a module's dotted name (an ``importlib`` target) counts too.

Symbols: every top-level function and class, and every method of a
top-level class, must be named somewhere in those trees besides its own
``def``.  The check is by name, from the AST: a ``Name``, an attribute,
an import, or a part of a dotted string constant (``"Worker.work_once"``
in a tracing table) all count.  A package ``__init__``'s imports,
``__all__`` and name tables do not: a re-export is not a call.  Dunders
are called by Python itself.  What is left must be listed in ``KEPT``
with its reason.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
CALLER_ROOTS = ("src", "benchmarks", "examples", "bench")
#: Entry points run by name, not imported.
ALLOWED = {"__main__.py", "version.py"}

#: Symbols no caller names, kept on purpose: ``module:qualname -> why``.
KEPT = {
    "repro.api:Project.add_ensemble": "public repro.api facade",
    "repro.md.engine:register_model": "public repro.api facade (re-exported there)",
    "repro.md.forcefield.base:numerical_forces":
        "finite-difference reference the force-term tests compare analytic forces with",
    "repro.md.neighborlist:CellList":
        "positions-dependent pair provider the step-plan identity tests and "
        "the LJ / excluded-volume tests compare with AllPairs",
    "repro.md.forcefield.go_model:GoContactForce.fraction_native":
        "folding coordinate Q the villin-model tests check unfolded starts with",
    "repro.md.system:System.instantaneous_temperature":
        "the thermostat tests measure the integrators with it",
    "repro.analysis.rmsd:rmsd": "reference the RMSD-metric tests compare with",
    "repro.fep.bar:exp_free_energy":
        "one-sided baseline the BAR-beats-EXP test compares BAR with",
    "repro.fep.systems:harmonic_free_energy_difference":
        "analytic ground truth the BAR and WHAM tests compare with",
    "repro.msm.cluster:ClusterResult.cover_radius":
        "the k-centers tests check the clustering's cover bound with it",
    "repro.msm.estimation:is_stochastic":
        "the estimator tests check transition matrices with it",
    "repro.msm.estimation:detailed_balance_violation":
        "the reversible-estimator tests check transition matrices with it",
    "repro.net.topology:workstation":
        "deployment the multi-tenant, liveness and failover tests run on",
    "repro.net.topology:figure1":
        "the paper's Fig. 1 deployment the full integration test runs on",
    "repro.net.sharding:HashRing.load":
        "the ring-balance tests measure the hash ring's routing with it",
    "repro.core.multirunner:MultiProjectRunner.add_shard":
        "operator action that re-homes parked projects on a new shard; "
        "the partition-failover tests drive it",
    "repro.net.sharding:ShardRouter.add_shard":
        "MultiProjectRunner.add_shard's routing half",
    "repro.obs.metrics:parse_prometheus_text":
        "parser the exposition tests check to_prometheus_text with",
    "repro.testing.scenarios:run_swarm_with_server_restart":
        "scenario the server-restart suite (CI recovery job) runs",
    "repro.testing.faultplan:FaultPlan.restart_server":
        "the fault the server-restart suite schedules",
}


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


def _caller_files():
    return [p for root in CALLER_ROOTS for p in sorted((REPO / root).rglob("*.py"))]


def unreached_modules():
    """Non-package modules that no non-``__init__`` caller imports."""
    tables = {package: _package_table(package) for package in PACKAGES}
    reached = set()
    for path in _caller_files():
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


def defined_symbols(path):
    """``qualname`` of every top-level function/class and its methods."""
    symbols = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            symbols.append(node.name)
            if isinstance(node, ast.ClassDef):
                symbols.extend(
                    f"{node.name}.{sub.name}"
                    for sub in node.body
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                )
    return symbols


def referenced_names(path):
    """Every identifier one caller file names (see the module docstring)."""
    tree = ast.parse(path.read_text())
    package_init = path.name == "__init__.py"
    names = set()

    def visit(node, own):
        # *own*: the enclosing definitions; naming one of them is not a call
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in child.targets
            ):
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, own | {child.name})
                continue
            if isinstance(child, (ast.Name, ast.Attribute)):
                name = child.id if isinstance(child, ast.Name) else child.attr
                if name not in own:
                    names.add(name)
            elif not package_init and isinstance(child, ast.alias):
                names.update(child.name.split("."))
                names.add(child.asname or child.name)
            elif (
                not package_init
                and isinstance(child, ast.Constant)
                and isinstance(child.value, str)
            ):
                names.update(child.value.split("."))
            visit(child, own)

    visit(tree, frozenset())
    return names


def unreferenced_symbols(modules, caller_files):
    """``module:qualname`` of each non-dunder symbol no caller names."""
    names = set()
    for path in caller_files:
        names |= referenced_names(path)
    return sorted(
        f"{module}:{symbol}"
        for module, path in modules.items()
        for symbol in defined_symbols(path)
        if symbol.rpartition(".")[2] not in names
        and not symbol.rpartition(".")[2].startswith("__")
    )


def test_every_symbol_has_a_non_test_caller_or_a_reason():
    assert unreferenced_symbols(MODULES, _caller_files()) == sorted(KEPT)


def test_symbol_scan_flags_what_nothing_names(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text(
        "from pkg.mod import orphan, used\n__all__ = ['orphan', 'Box']\n"
    )
    mod = tmp_path / "pkg" / "mod.py"
    mod.write_text(
        "def used():\n    return orphan_helper\n\n"
        "def orphan():\n    return orphan()\n\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def opened(self):\n        pass\n\n"
        "    def traced(self):\n        pass\n"
    )
    caller = tmp_path / "run.py"
    caller.write_text("from pkg import used\nused()\nSITES = ['Box.traced']\n")
    modules = {"pkg": tmp_path / "pkg" / "__init__.py", "pkg.mod": mod}
    callers = [caller, *modules.values()]
    # the package's re-export and __all__ entry are not callers, and
    # orphan's call to itself is not one either
    assert unreferenced_symbols(modules, callers) == [
        "pkg.mod:Box.opened", "pkg.mod:orphan"
    ]
    caller.write_text("from pkg import used\nused()\n")
    assert unreferenced_symbols(modules, callers) == [
        "pkg.mod:Box", "pkg.mod:Box.opened", "pkg.mod:Box.traced", "pkg.mod:orphan"
    ]
