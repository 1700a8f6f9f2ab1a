"""The opt-in float32 fast path: casting plus fused force accumulation.

``precision="float32"`` trades bit-reproducibility for speed and
memory: coordinates and velocities are stored in single precision and
every force term accumulates into one preallocated buffer
(:class:`FusedForceEvaluator`) instead of allocating a fresh array per
term per step.  The default ``"float64"`` path is untouched — it keeps
the exact arithmetic the bit-identity suite
(``tests/test_batched_identity.py``) locks down.

Tolerance bounds (enforced by ``tests/test_precision_dispatch.py``):

- **Forces** at a float64-generated configuration agree with the
  float64 forces to a relative RMS error below
  :data:`FLOAT32_FORCE_RTOL` (single precision carries ~7 significant
  digits; pair-sum cancellation costs a few more bits).
- **Energy conservation**: over a short NVE (velocity-Verlet) run the
  float32 total-energy drift stays within
  :data:`FLOAT32_ENERGY_DRIFT_KT` of the float64 drift, in units of
  kT per particle — single precision must not qualitatively degrade
  the integrator.

Because float32 trajectories are *not* bit-reproducible across
machines or library versions, the engine rejects the combination with
anything that contractually requires bit-identity: resuming from a
checkpoint, batched stacks, and worker-side command coalescing.
``precision=`` is set per command (:class:`~repro.md.engine.MDTask`)
and per ensemble (:class:`repro.api.Ensemble`) and validated by
:func:`validate_precision`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.md.forcefield.base import composite_energy_forces
from repro.md.system import State, System
from repro.util.errors import ConfigurationError

#: numpy dtype for each ``precision=`` value, default first.
PRECISION_DTYPES = {"float64": np.float64, "float32": np.float32}
DEFAULT_PRECISION = "float64"

#: Documented bound on the relative RMS force error of the float32
#: path against float64, at a configuration drawn from equilibrium.
FLOAT32_FORCE_RTOL = 1e-4

#: Documented bound on the extra total-energy drift of a float32 NVE
#: run versus its float64 twin, in kT per particle over 500 steps.
FLOAT32_ENERGY_DRIFT_KT = 0.05


def validate_precision(precision: str) -> str:
    """Return *precision* or raise a typed :class:`ConfigurationError`."""
    if precision not in PRECISION_DTYPES:
        raise ConfigurationError(
            f"precision must be one of {tuple(PRECISION_DTYPES)}, "
            f"got {precision!r}"
        )
    return precision


class FusedForceEvaluator:
    """A :class:`~repro.md.system.System` view with fused accumulation.

    Wraps a system and evaluates ``energy_forces`` by adding every
    force term in place into a preallocated buffer of the requested
    dtype — no per-term temporaries and no per-call output allocation.
    Two buffers alternate so the previous call's forces (held by the
    integrator across the force refresh inside a step) are never
    overwritten mid-step.

    The returned force array is **reused** on the call after next;
    callers that store forces long-term must copy them.  Integrators
    and :class:`~repro.md.simulation.Simulation` only ever read the
    previous call's array before the next refresh, which the
    double-buffering covers.

    Everything else (masses, topology, energies-only helpers,
    velocity sampling) delegates to the wrapped system.
    """

    def __init__(self, system: System, precision: str = "float32") -> None:
        self.system = system
        self.precision = validate_precision(precision)
        self.dtype = PRECISION_DTYPES[precision]
        shape = (system.n_atoms, system.dim)
        self._buffers = (
            np.zeros(shape, dtype=self.dtype),
            np.zeros(shape, dtype=self.dtype),
        )
        self._flip = 0

    # -- delegation ---------------------------------------------------------

    @property
    def masses(self) -> np.ndarray:
        """Per-atom masses (shared with the wrapped system)."""
        return self.system.masses

    @property
    def topology(self):
        """The wrapped system's topology."""
        return self.system.topology

    @property
    def forces(self):
        """The wrapped system's force terms."""
        return self.system.forces

    @property
    def n_atoms(self) -> int:
        """Number of particles."""
        return self.system.n_atoms

    @property
    def dim(self) -> int:
        """Spatial dimensionality."""
        return self.system.dim

    def kinetic_energy(self, velocities: np.ndarray) -> float:
        """Kinetic energy in kJ/mol (delegated)."""
        return self.system.kinetic_energy(velocities)

    def instantaneous_temperature(self, velocities: np.ndarray) -> float:
        """Kinetic temperature in kelvin (delegated)."""
        return self.system.instantaneous_temperature(velocities)

    def maxwell_boltzmann_velocities(self, temperature, rng) -> np.ndarray:
        """Thermal velocities (delegated; cast by the caller if needed)."""
        return self.system.maxwell_boltzmann_velocities(temperature, rng)

    def __getattr__(self, name: str):
        # Anything not wrapped here (e.g. a Markov-chain system's
        # ``spec``) falls through to the underlying system.
        if name == "system":  # not set yet (unpickling) — no recursion
            raise AttributeError(name)
        return getattr(self.system, name)

    # -- fused evaluation ---------------------------------------------------

    def energy_forces(
        self, positions: np.ndarray, need_energy: bool = True
    ) -> Tuple[Optional[float], np.ndarray]:
        """Total energy and forces, accumulated in one reused buffer."""
        buf = self._buffers[self._flip]
        self._flip ^= 1
        return composite_energy_forces(
            self.system.forces, positions, need_energy, out=buf
        )

    def potential_energy(self, positions: np.ndarray) -> float:
        """Total potential energy only."""
        return self.energy_forces(positions)[0]


def cast_state(state: State, precision: str) -> State:
    """Copy *state* with coordinates/velocities in the requested dtype."""
    dtype = PRECISION_DTYPES[precision]
    return State(
        np.ascontiguousarray(state.positions, dtype=dtype),
        np.ascontiguousarray(state.velocities, dtype=dtype),
        time=state.time,
        step=state.step,
    )


def apply_precision(
    system: System, state: State, precision: str
) -> Tuple[System, State]:
    """Wire a (system, state) pair for the requested precision.

    ``"float64"`` returns the pair untouched — the default path must
    not change by even one ULP.  ``"float32"`` casts the state and
    wraps the system in a :class:`FusedForceEvaluator` so every force
    evaluation runs through the fused single-precision accumulator.
    """
    if validate_precision(precision) == "float64":
        return system, state
    return FusedForceEvaluator(system, precision), cast_state(state, precision)
