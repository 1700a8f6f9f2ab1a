"""Simulation driver with reporting and checkpoint/restart.

The :class:`Simulation` is what a Copernicus *command* ultimately runs:
it owns a system, an integrator and a state, advances them, snapshots
coordinates at a fixed interval and can serialise its complete state to
a :class:`Checkpoint` at any step — the property that lets a failed
worker's command be transparently resumed by another worker
(paper section 2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.md.integrators import NoseHooverIntegrator
from repro.md.precision import DEFAULT_PRECISION
from repro.md.system import State, System
from repro.md.trajectory import Trajectory
from repro.util.errors import ConfigurationError, SimulationError


@dataclass
class Checkpoint:
    """A complete, serialisable snapshot of a running simulation.

    Includes the stochastic integrator's noise-generator state, so a
    Langevin run resumed on another worker continues the *identical*
    trajectory — failure recovery is bitwise reproducible.
    """

    positions: np.ndarray
    velocities: np.ndarray
    time: float
    step: int
    thermostat_state: float = 0.0
    rng_state: Optional[Dict] = None
    metadata: Dict = field(default_factory=dict)

    def to_payload(self) -> Dict:
        """Wire-format dict (see :mod:`repro.util.serialization`)."""
        payload = {
            "positions": self.positions,
            "velocities": self.velocities,
            "time": float(self.time),
            "step": int(self.step),
            "thermostat_state": float(self.thermostat_state),
            "metadata": dict(self.metadata),
        }
        if self.rng_state is not None:
            payload["rng_state"] = _encode_rng_state(self.rng_state)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict) -> "Checkpoint":
        """Inverse of :meth:`to_payload`."""
        raw_rng = payload.get("rng_state")
        return cls(
            positions=np.asarray(payload["positions"], dtype=float),
            velocities=np.asarray(payload["velocities"], dtype=float),
            time=float(payload["time"]),
            step=int(payload["step"]),
            thermostat_state=float(payload.get("thermostat_state", 0.0)),
            rng_state=_decode_rng_state(raw_rng) if raw_rng else None,
            metadata=dict(payload.get("metadata", {})),
        )


def _encode_rng_state(state: Dict) -> Dict:
    """numpy bit-generator state -> wire-format (stringified big ints)."""
    inner = state.get("state", {})
    return {
        "bit_generator": state.get("bit_generator", "PCG64"),
        "state": str(inner.get("state", 0)),
        "inc": str(inner.get("inc", 0)),
        "has_uint32": int(state.get("has_uint32", 0)),
        "uinteger": int(state.get("uinteger", 0)),
    }


def _decode_rng_state(payload: Dict) -> Dict:
    """Inverse of :func:`_encode_rng_state`."""
    return {
        "bit_generator": payload.get("bit_generator", "PCG64"),
        "state": {
            "state": int(payload["state"]),
            "inc": int(payload["inc"]),
        },
        "has_uint32": int(payload.get("has_uint32", 0)),
        "uinteger": int(payload.get("uinteger", 0)),
    }


class Simulation:
    """Drives an integrator over a system, recording frames.

    Parameters
    ----------
    system:
        The particle system (with force terms attached).
    integrator:
        Any integrator from :mod:`repro.md.integrators`.
    state:
        Initial state.  Velocities may be zero; call
        ``system.maxwell_boltzmann_velocities`` to thermalise.
    report_interval:
        Steps between trajectory snapshots (0 disables recording).
    """

    def __init__(
        self,
        system: System,
        integrator,
        state: State,
        report_interval: int = 0,
    ) -> None:
        if state.positions.shape != (system.n_atoms, system.dim):
            raise ConfigurationError(
                f"state shape {state.positions.shape} does not match system "
                f"({system.n_atoms}, {system.dim})"
            )
        if report_interval < 0:
            raise ConfigurationError("report_interval must be >= 0")
        self.system = system
        self.integrator = integrator
        self.state = state
        self.report_interval = int(report_interval)
        self.trajectory = Trajectory()
        #: Default step count for :meth:`run` (set by :meth:`configure`).
        self.default_steps: Optional[int] = None
        #: Numeric precision of the force/integration kernels
        #: ("float64" default; "float32" opt-in via :meth:`configure`).
        self.precision: str = DEFAULT_PRECISION
        self._forces: Optional[np.ndarray] = None
        self._observers: List[Callable[[State], None]] = []

    @classmethod
    def configure(
        cls,
        *,
        model: str,
        integrator: str = "langevin",
        steps: Optional[int] = None,
        temperature: float = 300.0,
        friction: float = 1.0,
        timestep: float = 0.02,
        seed: int = 0,
        report_interval: int = 100,
        initial_positions: Optional[np.ndarray] = None,
        model_params: Optional[Dict] = None,
        precision: str = DEFAULT_PRECISION,
    ) -> "Simulation":
        """Build a ready-to-run simulation from a model name.

        The keyword-only public constructor: resolves *model* through
        the engine's model registry, thermalises the initial state with
        *seed*, and wires the named *integrator* — the same code paths
        a distributed ``mdrun`` command takes, so a configured
        simulation propagates bit-identically to the equivalent
        :class:`~repro.md.engine.MDTask`.

        ``steps`` (optional) becomes the default for :meth:`run`.

        ``precision`` selects the numeric kernel: ``"float64"`` (the
        default, bit-reproducible) or ``"float32"`` (opt-in fast path
        with fused force accumulation; tolerance bounds documented in
        :mod:`repro.md.precision`).

        Raises
        ------
        UnknownModelError
            If *model* is not registered.
        ConfigurationError
            If *integrator* is unknown, *precision* is not recognised,
            or parameters are invalid.
        """
        # Imported here: the engine module imports this one.
        from repro.md.engine import MDTask, resolve_model
        from repro.md.integrators import make_integrator
        from repro.md.precision import apply_precision

        task = MDTask(
            model=model,
            n_steps=int(steps) if steps is not None else 0,
            report_interval=report_interval,
            integrator=integrator,
            temperature=temperature,
            friction=friction,
            timestep=timestep,
            seed=seed,
            initial_positions=initial_positions,
            model_params=dict(model_params or {}),
            precision=precision,
        )
        built = resolve_model(task.model, task.model_params)
        system, state = apply_precision(
            built.system, built.state_builder(task), task.precision
        )
        simulation = cls(
            system,
            make_integrator(
                integrator,
                timestep=timestep,
                temperature=temperature,
                friction=friction,
                seed=seed,
            ),
            state,
            report_interval=report_interval,
        )
        simulation.precision = task.precision
        if steps is not None:
            simulation.default_steps = int(steps)
        return simulation

    def add_observer(self, callback: Callable[[State], None]) -> None:
        """Register a callable invoked at every report interval."""
        self._observers.append(callback)

    def run(self, n_steps: Optional[int] = None) -> None:
        """Advance *n_steps* timesteps (default: the configured ``steps``).

        Raises
        ------
        SimulationError
            If coordinates become non-finite (numerical blow-up).
        ConfigurationError
            If *n_steps* is omitted and no default was configured.
        """
        if n_steps is None:
            if self.default_steps is None:
                raise ConfigurationError(
                    "run() needs n_steps (no default configured via "
                    "Simulation.configure(steps=...))"
                )
            n_steps = self.default_steps
        if n_steps < 0:
            raise ConfigurationError(f"n_steps must be >= 0, got {n_steps}")
        if self._forces is None:
            self._forces = self.integrator.initial_forces(self.system, self.state)
            # A run resumed off the report grid records no priming
            # frame: a direct run never reports at that step.
            if (
                self.report_interval
                and len(self.trajectory) == 0
                and self.state.step % self.report_interval == 0
            ):
                self._report()
        for _ in range(n_steps):
            self._forces = self.integrator.step(
                self.system, self.state, self._forces
            )
            if self.report_interval and self.state.step % self.report_interval == 0:
                self._check_finite()
                self._report()
        # Once more at the end: with report_interval=0 (or a blow-up
        # after the last report) nothing above has looked.
        self._check_finite()

    def _check_finite(self) -> None:
        if not np.all(np.isfinite(self.state.positions)):
            raise SimulationError(
                f"non-finite coordinates at step {self.state.step}; "
                "reduce the timestep"
            )

    def _report(self) -> None:
        self.trajectory.append(self.state.positions, self.state.time)
        for observer in self._observers:
            observer(self.state)

    # -- energies ---------------------------------------------------------

    def potential_energy(self) -> float:
        """Current potential energy (kJ/mol)."""
        return self.system.potential_energy(self.state.positions)

    def kinetic_energy(self) -> float:
        """Current kinetic energy (kJ/mol)."""
        return self.system.kinetic_energy(self.state.velocities)

    def total_energy(self) -> float:
        """Current total energy (kJ/mol)."""
        return self.potential_energy() + self.kinetic_energy()

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Snapshot everything needed to continue this run elsewhere."""
        thermo = 0.0
        if isinstance(self.integrator, NoseHooverIntegrator):
            thermo = self.integrator.thermostat_state
        rng_state = getattr(self.integrator, "rng_state", None)
        return Checkpoint(
            positions=self.state.positions.copy(),
            velocities=self.state.velocities.copy(),
            time=self.state.time,
            step=self.state.step,
            thermostat_state=thermo,
            rng_state=dict(rng_state) if rng_state is not None else None,
        )

    def restore(self, checkpoint: Checkpoint) -> None:
        """Resume from a checkpoint (possibly produced by another worker)."""
        if checkpoint.positions.shape != (self.system.n_atoms, self.system.dim):
            raise ConfigurationError(
                "checkpoint geometry does not match this system"
            )
        self.state = State(
            checkpoint.positions.copy(),
            checkpoint.velocities.copy(),
            time=checkpoint.time,
            step=checkpoint.step,
        )
        if isinstance(self.integrator, NoseHooverIntegrator):
            self.integrator.thermostat_state = checkpoint.thermostat_state
        if checkpoint.rng_state is not None and hasattr(
            self.integrator, "rng_state"
        ):
            self.integrator.rng_state = checkpoint.rng_state
        self._forces = None
