"""Simulation driver with reporting and checkpoint/restart.

The :class:`Simulation` is one replica driven by the stacked kernel: a
:class:`~repro.md.batched.BatchedSimulation` of a single replica with a
single-replica surface (``state``, ``trajectory``, ``checkpoint()``).
It owns a system, an integrator and a state, advances them, snapshots
coordinates at a fixed interval and can serialise its complete state to
a :class:`Checkpoint` at any step — the property that lets a failed
worker's command be transparently resumed by another worker
(paper section 2.3).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.md.batched import BatchedSimulation, Checkpoint
from repro.md.engine import MDTask, resolve_model
from repro.md.integrators import make_integrator
from repro.md.system import State, System
from repro.md.trajectory import Trajectory
from repro.util.errors import ConfigurationError, SimulationError

__all__ = ["Checkpoint", "Simulation"]


class Simulation(BatchedSimulation):
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
        super().__init__(system, integrator, [state], report_interval)
        #: Default step count for :meth:`run` (set by :meth:`configure`).
        self.default_steps: Optional[int] = None

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
    ) -> "Simulation":
        """Build a ready-to-run simulation from a model name.

        The keyword-only public constructor: resolves *model* through
        the engine's model registry, thermalises the initial state with
        *seed*, and wires the named *integrator* — the same code paths
        a distributed ``mdrun`` command takes, so a configured
        simulation propagates bit-identically to the equivalent
        :class:`~repro.md.engine.MDTask`.

        ``steps`` (optional) becomes the default for :meth:`run`.

        Raises
        ------
        UnknownModelError
            If *model* is not registered.
        ConfigurationError
            If *integrator* is unknown or parameters are invalid.
        """
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
        )
        built = resolve_model(task.model, task.model_params)
        simulation = cls(
            built.system,
            make_integrator(
                integrator,
                timestep=timestep,
                temperature=temperature,
                friction=friction,
                seed=seed,
            ),
            built.state_builder(task),
            report_interval=report_interval,
        )
        if steps is not None:
            simulation.default_steps = int(steps)
        return simulation

    @property
    def state(self) -> State:
        """The replica's state; its arrays are views into the stack."""
        batch = self.batch
        return State(
            batch.positions[0],
            batch.velocities[0],
            time=float(batch.times[0]),
            step=int(batch.steps[0]),
        )

    @property
    def trajectory(self) -> Trajectory:
        """Frames recorded so far."""
        return self.trajectories[0]

    @staticmethod
    def _check_finite(positions, replica, step) -> None:
        if not np.all(np.isfinite(positions)):
            raise SimulationError(
                f"non-finite coordinates at step {int(step)}; "
                "reduce the timestep"
            )

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
        super().run(n_steps)

    # -- energies ---------------------------------------------------------

    def potential_energy(self) -> float:
        """Current potential energy (kJ/mol)."""
        return float(self.potential_energies()[0])

    def kinetic_energy(self) -> float:
        """Current kinetic energy (kJ/mol)."""
        return self.system.kinetic_energy(self.batch.velocities[0])

    def total_energy(self) -> float:
        """Current total energy (kJ/mol)."""
        return self.potential_energy() + self.kinetic_energy()

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self) -> Checkpoint:
        """Snapshot everything needed to continue this run elsewhere."""
        return super().checkpoint(0)

    def restore(self, checkpoint: Checkpoint) -> None:
        """Resume from a checkpoint (possibly produced by another worker)."""
        super().restore(0, checkpoint)
