"""The benchmark tracer's names resolve against the program.

``bench/tracing.py`` wraps program functions and methods it finds by
name.  A rename or deletion in ``src/`` of a traced module-level name
would otherwise surface only in the benchmark's traced repeat; here it
fails the tier-1 suite, and every wrapper must come off again.
"""

import importlib.util
import sys
from pathlib import Path

from repro.md.engine import MDEngine, resolve_model
from repro.md.system import System

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves_and_unwinds():
    tracing = _load_tracing()
    originals = (
        vars(MDEngine)["run"],
        vars(System)["energy_forces"],
        sys.modules["repro.md.engine"].resolve_model,
    )
    patch = tracing.patch_all(tracing.Recorder())
    try:
        assert patch.bound
        assert vars(MDEngine)["run"] is not originals[0]
    finally:
        patch.undo()
    assert not patch.bound
    assert (
        vars(MDEngine)["run"],
        vars(System)["energy_forces"],
        sys.modules["repro.md.engine"].resolve_model,
    ) == originals
    assert resolve_model is originals[2]
