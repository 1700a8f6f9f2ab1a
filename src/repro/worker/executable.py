"""Executable descriptions: what a worker knows how to run.

Paper section 2.3: "the worker searches for all installed
'executables': descriptions of how to execute specific command types
for a specific platform, along with optional binaries to execute."
Here an executable is a named function ``(payload, abort_after_steps)
-> (result_payload, completed)``; the ``mdrun`` entry wraps the MD
engine, the free-energy entry wraps a lambda-window sampler.

``mdrun_batch`` runs a coalesced stack, ``{"tasks": [...]}`` of member
``mdrun`` payloads into ``{"results": [...]}`` of their results.  A
stack wide enough to pay for it runs as contiguous replica shards on
every CPU of the host, one in this process and the others on a
persistent fork pool, joined back in replica order
(:mod:`repro.worker.shards`).  That is host execution only: the cores a
worker announces still decide what it is matched to.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.md.engine import MDEngine, MDTask
from repro.util.errors import ConfigurationError
from repro.worker.shards import run_batch

ExecutableFn = Callable[[dict, Optional[int]], Tuple[dict, bool]]


def mdrun_executable(
    payload: dict, abort_after_steps: Optional[int] = None
) -> Tuple[dict, bool]:
    """The MD simulation executable (the Gromacs stand-in)."""
    task = MDTask.from_payload(payload)
    engine = MDEngine()
    result = engine.run(task, abort_after_steps=abort_after_steps)
    return result.to_payload(), result.completed


def fepsample_executable(
    payload: dict, abort_after_steps: Optional[int] = None
) -> Tuple[dict, bool]:
    """Free-energy window sampler (used by the BAR controller)."""
    # Imported lazily to avoid a circular import at module load.
    from repro.fep.sampling import run_fep_window

    return run_fep_window(payload), True


#: Global registry of the built-in executables.
_GLOBAL_EXECUTABLES: Dict[str, ExecutableFn] = {
    "mdrun": mdrun_executable,
    "mdrun_batch": run_batch,
    "fepsample": fepsample_executable,
}


def run_executable(
    name: str, payload: dict, abort_after_steps: Optional[int] = None
) -> Tuple[dict, bool]:
    """Run a registered executable by name."""
    try:
        fn = _GLOBAL_EXECUTABLES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown executable {name!r}; known: {sorted(_GLOBAL_EXECUTABLES)}"
        ) from None
    return fn(payload, abort_after_steps)


class ExecutableRegistry:
    """Per-worker view of installed executables."""

    def __init__(self, names: Optional[list] = None) -> None:
        self._names = list(names) if names is not None else list(_GLOBAL_EXECUTABLES)
        for name in self._names:
            if name not in _GLOBAL_EXECUTABLES:
                raise ConfigurationError(f"unknown executable {name!r}")

    @property
    def names(self) -> list:
        """Installed executable names."""
        return list(self._names)

    def run(
        self, name: str, payload: dict, abort_after_steps: Optional[int] = None
    ) -> Tuple[dict, bool]:
        """Execute an installed executable.

        Raises
        ------
        ConfigurationError
            If the executable is not installed on this worker.
        """
        if name not in self._names:
            raise ConfigurationError(
                f"executable {name!r} not installed on this worker"
            )
        return run_executable(name, payload, abort_after_steps)


def default_registry() -> ExecutableRegistry:
    """Registry with every built-in executable installed."""
    return ExecutableRegistry()


def register_executable(name: str, fn: ExecutableFn) -> None:
    """Install a new global executable (plugin mechanism)."""
    if not callable(fn):
        raise ConfigurationError("executable must be callable")
    _GLOBAL_EXECUTABLES[name] = fn
