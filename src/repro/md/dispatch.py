"""Execution-policy knobs shared by the whole MD surface.

Two keyword-only choices travel with every simulation command
(:class:`~repro.md.engine.MDTask`), every stacked batch
(:class:`~repro.md.engine.BatchedMDTask`) and the public facades
(:meth:`repro.md.simulation.Simulation.configure`,
:class:`repro.api.Ensemble`):

``precision``
    ``"float64"`` (default) — the bit-identity path: trajectories,
    checkpoints and coalesced results are byte-for-byte reproducible
    and guarded by ``tests/test_batched_identity.py``.
    ``"float32"`` — the opt-in fast path with fused force accumulation
    (:mod:`repro.md.precision`): faster and lighter on memory for
    large systems, accurate only to documented tolerance bounds, and
    therefore rejected wherever bit-identity is contractually required
    (resume checkpoints, batched stacks, coalesced commands).

``dispatch``
    How ``run_batched`` propagates a replica stack.  ``"batched"``
    forces the vectorised ``(R, N, dim)`` kernel, ``"serial"`` forces a
    per-replica loop, and ``"auto"`` (default) takes the batched kernel
    whenever the integrator has a batched form: every in-tree force
    term vectorises, and stacks have two or more rows (workers coalesce
    groups, a lone command runs through ``MDEngine.run``).
    Per-replica results are bit-identical either way; the path taken is
    recorded in :class:`~repro.md.engine.BatchedMDResult`.
"""

from __future__ import annotations

from repro.util.errors import ConfigurationError

#: Valid ``precision=`` values, default first.
PRECISIONS = ("float64", "float32")
DEFAULT_PRECISION = "float64"

#: Valid ``dispatch=`` values, default first.
DISPATCHES = ("auto", "serial", "batched")
DEFAULT_DISPATCH = "auto"

#: Upper bound on auto-selected worker batch capacity (one kernel call
#: propagating more replicas than this stops paying for itself).
MAX_AUTO_BATCH = 64


def validate_precision(precision: str) -> str:
    """Return *precision* or raise a typed :class:`ConfigurationError`."""
    if precision not in PRECISIONS:
        raise ConfigurationError(
            f"precision must be one of {PRECISIONS}, got {precision!r}"
        )
    return precision


def validate_dispatch(dispatch: str) -> str:
    """Return *dispatch* or raise a typed :class:`ConfigurationError`."""
    if dispatch not in DISPATCHES:
        raise ConfigurationError(
            f"dispatch must be one of {DISPATCHES}, got {dispatch!r}"
        )
    return dispatch


def resolve_dispatch(dispatch: str) -> str:
    """Resolve a dispatch policy to ``"serial"`` or ``"batched"``:
    ``"auto"`` means batched, explicit choices pass through unchanged.
    """
    validate_dispatch(dispatch)
    return "batched" if dispatch == "auto" else dispatch
