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
    per-replica loop, and ``"auto"`` (default) picks whichever is
    faster for the stack's replica count using the measured crossover
    below.  Per-replica results are bit-identical either way — the
    policy is purely a speed decision, recorded in
    :class:`~repro.md.engine.BatchedMDResult` for observability.
"""

from __future__ import annotations

from repro.util.errors import ConfigurationError

#: Valid ``precision=`` values, default first.
PRECISIONS = ("float64", "float32")
DEFAULT_PRECISION = "float64"

#: Valid ``dispatch=`` values, default first.
DISPATCHES = ("auto", "serial", "batched")
DEFAULT_DISPATCH = "auto"

#: Smallest replica count at which ``dispatch="auto"`` picks the batched
#: kernel.  Measured with ``benchmarks/bench_batched_engine.py`` (300
#: steps, single thread, the forced-batched rows of
#: ``BENCH_kernel.json``): on villin-fast the forces-only kernels have
#: closed the R=1 gap — forced-batched reads 1.05-1.24x at R=1 in 21
#: of 22 runs of the script (one outlier at 0.76x, which is what every
#: run read before them), 1.9-2.4x at R=2, 2.3-3.1x at R=3, 3.3-4.3x
#: at R=4, 5.9-6.9x at R=8 and >12x at R=64 — so for terms
#: with a ``compute_batch`` the crossover is 1.  The constant is global,
#: though, and the single-particle toys have no ``compute_batch``:
#: through the per-replica fallback a forced-batched stack of one runs
#: at ~0.6x (double-well) and 0.5-0.8x (Muller-Brown) of the serial
#: loop.  Sending a
#: one-replica batched task to the batched kernel would gain nothing
#: measurable on villin-fast and halve the toys, so the constant stays 2
#: until the toys have batched kernels (ROADMAP "One MD kernel", item
#: (b)).  (Single commands never reach this policy: the worker runs
#: them through ``MDEngine.run``.)
BATCH_DISPATCH_MIN_REPLICAS = 2

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


def resolve_dispatch(dispatch: str, n_replicas: int) -> str:
    """Resolve a dispatch policy to ``"serial"`` or ``"batched"``.

    ``"auto"`` picks the batched kernel only at replica counts where it
    is measured to win (:data:`BATCH_DISPATCH_MIN_REPLICAS`); explicit
    choices pass through unchanged.
    """
    validate_dispatch(dispatch)
    if dispatch != "auto":
        return dispatch
    if n_replicas < BATCH_DISPATCH_MIN_REPLICAS:
        return "serial"
    return "batched"
