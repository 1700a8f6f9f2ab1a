"""Stacked propagation: R replicas of one model per kernel call.

The paper's economics are ensemble throughput — thousands of short
villin trajectories in flight at once (sections 3.1, 4) — so the one MD
path stacks R independent replicas of the *same*
:class:`~repro.md.system.System` into ``(R, N, dim)`` arrays and pays
the Python/numpy dispatch overhead once per step for all of them.  A
lone command, a :class:`~repro.md.simulation.Simulation` and every
energy evaluation are a stack of one:

- :class:`BatchedSystem` wraps one shared system and evaluates all
  force terms through their ``compute_batch`` kernels (see
  :mod:`repro.md.forcefield.base`);
- :class:`BatchedLangevinIntegrator`, :class:`BatchedVelocityVerletIntegrator`,
  :class:`BatchedNoseHooverIntegrator` and
  :class:`BatchedMarkovChainIntegrator` advance the whole stack with
  arithmetic that is elementwise over the replica axis, drawing noise
  from *per-replica* RNG streams (and keeping a per-replica thermostat
  variable), so every replica's trajectory is bit-identical to a stack
  of one seeded the same way;
- :class:`BatchedSimulation` adds per-replica trajectories,
  :class:`Checkpoint` objects, step targets and an early-exit mask:
  finished or folded replicas are compacted out of the working arrays
  and stop consuming work.

Bit-identity is a hard contract, not an aspiration: checkpoints
(positions, velocities, clock, RNG and thermostat state) taken from a
stack are byte-for-byte those of R lone runs with the same seeds, which
is what lets the distribution stack coalesce commands transparently
(results split back per command).  The property suite in
``tests/test_batched_identity.py`` enforces it, and
``tests/test_md_golden.py`` pins a stack of one to the bits of the
serial engine it replaced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.md.forcefield.base import SCATTER_GATHER_ELEMENTS
from repro.md.system import State, System
from repro.md.trajectory import Trajectory
from repro.util.errors import ConfigurationError, SimulationError
from repro.util.rng import RandomStream, ensure_stream
from repro.util.units import KB


@dataclass
class Checkpoint:
    """A complete, serialisable snapshot of one running replica.

    Includes the stochastic integrator's noise-generator state and the
    thermostat variable, so a run resumed on another worker continues
    the *identical* trajectory — failure recovery is bitwise
    reproducible.
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


@dataclass
class BatchedState:
    """Dynamic state of R stacked replicas.

    ``positions`` / ``velocities`` are ``(R, N, dim)``; ``times`` and
    ``steps`` are per-replica clocks (replicas resumed from different
    checkpoints need not agree).
    """

    positions: np.ndarray
    velocities: np.ndarray
    times: np.ndarray
    steps: np.ndarray

    @classmethod
    def from_states(cls, states: Sequence[State]) -> "BatchedState":
        """Stack per-replica states into one batch."""
        if not states:
            raise ConfigurationError("need at least one replica state")
        shape = states[0].positions.shape
        for state in states:
            if state.positions.shape != shape:
                raise ConfigurationError(
                    "all replica states must share one geometry"
                )
        return cls(
            positions=np.ascontiguousarray(
                np.stack([s.positions for s in states])
            ),
            velocities=np.ascontiguousarray(
                np.stack([s.velocities for s in states])
            ),
            times=np.array([s.time for s in states], dtype=float),
            steps=np.array([s.step for s in states], dtype=np.int64),
        )

    @property
    def n_replicas(self) -> int:
        """Number of stacked replicas."""
        return self.positions.shape[0]


class BatchedSystem:
    """R replicas of one :class:`~repro.md.system.System` as a unit.

    Shares masses, topology and force terms with the underlying system
    (they are identical across replicas — that is what makes commands
    coalescible) and evaluates forces batch-wise.
    """

    def __init__(self, system: System, n_replicas: int) -> None:
        if n_replicas < 1:
            raise ConfigurationError(
                f"n_replicas must be >= 1, got {n_replicas}"
            )
        self.system = system
        self.n_replicas = int(n_replicas)

    @property
    def masses(self) -> np.ndarray:
        """Per-atom masses, shared by every replica."""
        return self.system.masses

    @property
    def n_atoms(self) -> int:
        """Atoms per replica."""
        return self.system.n_atoms

    @property
    def dim(self) -> int:
        """Spatial dimensionality."""
        return self.system.dim

    def energy_forces(
        self,
        positions: np.ndarray,
        replica_ids: Optional[np.ndarray] = None,
        need_energy: bool = True,
    ):
        """Per-replica ``(energies, forces)`` over an ``(R, N, dim)`` stack.

        *replica_ids* maps rows of a compacted stack back to original
        replica indices so force terms with per-replica caches (shared
        lazy neighbour lists) stay keyed correctly; ``None`` means row
        ``r`` is replica ``r``.  Step loops pass ``need_energy=False``
        and get ``None`` for the energies (same force bits).
        """
        return self.system.step_plan.evaluate(positions, replica_ids, need_energy)


class _BatchedIntegratorBase:
    """Shared timestep plumbing for batched integrators."""

    def __init__(self, timestep: float) -> None:
        if timestep <= 0:
            raise ConfigurationError(
                f"timestep must be positive, got {timestep}"
            )
        self.timestep = float(timestep)

    def initial_forces(
        self,
        system: BatchedSystem,
        positions: np.ndarray,
        replica_ids: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Forces at the current positions (primes the step loop)."""
        return system.energy_forces(positions, replica_ids, need_energy=False)[1]

    def plan_steps(self, n_steps: int) -> None:
        """The next *n_steps* :meth:`step` calls advance one unchanged
        stack (:meth:`BatchedSimulation.run_to` says so before each
        chunk).  A no-op here; see :class:`BatchedLangevinIntegrator`."""


class _BatchedStochasticIntegrator(_BatchedIntegratorBase):
    """A batched integrator whose replicas each own a random stream.

    Stream *r* is seeded exactly as a stack of one of replica *r*
    would be, and its PCG64 state is what that replica's checkpoints
    carry.
    """

    def __init__(
        self, timestep: float, rngs: Sequence[int | RandomStream] = ()
    ) -> None:
        super().__init__(timestep)
        self.rngs = [ensure_stream(rng) for rng in rngs]

    def rng_state_of(self, replica: int) -> dict:
        """Serialisable generator state for one replica."""
        return self.rngs[replica].generator.bit_generator.state

    def set_rng_state_of(self, replica: int, state: dict) -> None:
        """Restore one replica's generator state."""
        self.rngs[replica].generator.bit_generator.state = state


class BatchedVelocityVerletIntegrator(_BatchedIntegratorBase):
    """Batched symplectic NVE integrator (no thermostat).

    Every operation is elementwise over the replica axis, so each
    replica is bit-identical to a stack of one.
    """

    def step(
        self,
        system: BatchedSystem,
        positions: np.ndarray,
        velocities: np.ndarray,
        forces: np.ndarray,
        replica_ids: np.ndarray,
    ) -> np.ndarray:
        """Advance the (possibly compacted) stack one step in place."""
        dt = self.timestep
        inv_m = 1.0 / system.masses[None, :, None]
        velocities += 0.5 * dt * forces * inv_m
        positions += dt * velocities
        _, new_forces = system.energy_forces(
            positions, replica_ids, need_energy=False
        )
        velocities += 0.5 * dt * new_forces * inv_m
        return new_forces


class BatchedLangevinIntegrator(_BatchedStochasticIntegrator):
    """Batched BAOAB Langevin dynamics with per-replica noise streams.

    The workhorse thermostat for the coarse-grained folding runs: the
    friction models solvent drag that the paper's explicit TIP3P water
    provided physically (Leimkuhler–Matthews splitting; dt in ps,
    temperature in K, friction gamma in 1/ps).

    Each replica owns its own :class:`~repro.util.rng.RandomStream`,
    and noise is drawn replica-by-replica in ascending replica order —
    a finished replica stops drawing, just as a lone run would stop
    running.  All other arithmetic is vectorised elementwise, so
    trajectories and checkpointed RNG states are bit-identical to R
    stacks of one.
    """

    def __init__(
        self,
        timestep: float,
        temperature: float,
        friction: float = 1.0,
        rngs: Sequence[int | RandomStream] = (),
    ) -> None:
        super().__init__(timestep, rngs)
        if temperature < 0:
            raise ConfigurationError(
                f"temperature must be >= 0, got {temperature}"
            )
        if friction <= 0:
            raise ConfigurationError(
                f"friction must be positive, got {friction}"
            )
        self.temperature = float(temperature)
        self.friction = float(friction)
        self._decay = np.exp(-friction * self.timestep)
        self._noise_scale = np.sqrt(1.0 - self._decay * self._decay)
        self._masses: Optional[np.ndarray] = None
        # Noise drawn ahead: block[:, used:drawn] is still to be used,
        # and at most ``planned`` more steps may be drawn.
        self._block = self._scratch = np.empty(0)
        self._used = self._drawn = self._planned = 0

    def plan_steps(self, n_steps: int) -> None:
        """Let the next *n_steps* steps draw their noise in blocks.

        A block never draws past the chunk, so at every point where a
        checkpoint can be cut each stream has drawn exactly the noise of
        the steps taken.
        """
        self._planned = int(n_steps)
        self._used = self._drawn = 0

    def step(
        self,
        system: BatchedSystem,
        positions: np.ndarray,
        velocities: np.ndarray,
        forces: np.ndarray,
        replica_ids: np.ndarray,
    ) -> np.ndarray:
        """Advance the (possibly compacted) stack one step in place.

        *replica_ids* maps rows of the compacted arrays back to their
        original replica index so each row draws from its own stream.
        """
        half_dt = 0.5 * self.timestep
        inv_m, noise_sigma = self._mass_constants(system.masses)
        if self._scratch.shape != velocities.shape:
            self._scratch = np.empty(velocities.shape)
            self._kick = np.empty(velocities.shape)
            self._kicked = None
        term = self._scratch
        # B: half kick; (half_dt * f) * inv_m is the last step's closing
        # kick when f is the array that step returned
        if forces is not self._kicked:
            self._kick_of(forces, half_dt, inv_m)
        velocities += self._kick
        # A: half drift
        positions += np.multiply(half_dt, velocities, out=term)
        # O: Ornstein-Uhlenbeck exact solve, per-replica noise streams
        if self._used == self._drawn:
            self._draw(replica_ids, velocities.shape, noise_sigma)
        velocities *= self._decay
        velocities += self._block[:, self._used]
        self._used += 1
        # A: half drift
        positions += np.multiply(half_dt, velocities, out=term)
        # B: half kick with new forces
        _, new_forces = system.energy_forces(
            positions, replica_ids, need_energy=False
        )
        velocities += self._kick_of(new_forces, half_dt, inv_m)
        return new_forces

    def _kick_of(self, forces, half_dt, inv_m) -> np.ndarray:
        """``(half_dt * forces) * inv_m``, kept for the next step."""
        kick = np.multiply(half_dt, forces, out=self._kick)
        kick *= inv_m
        self._kicked = forces
        return kick

    def _draw(self, replica_ids: np.ndarray, shape: tuple, noise_sigma) -> None:
        """Draw the next block of steps' noise, one call per replica,
        and scale it by ``noise_sigma`` in one more.

        As many steps as fit :data:`SCATTER_GATHER_ELEMENTS` (the same
        allocator budget as a scatter gather; at least one), and no
        more than the planned chunk has left.  A stream fills its block
        in step order, so its draws are those of one call per step.
        """
        per_step = int(np.prod(shape))
        capacity = max(1, SCATTER_GATHER_ELEMENTS // per_step)
        n_steps = max(1, min(capacity, self._planned))
        self._planned -= n_steps
        block_shape = (shape[0], capacity) + shape[1:]
        if self._block.shape != block_shape:
            self._block = np.empty(block_shape)
        block = self._block[:, :n_steps]
        for row, replica in enumerate(replica_ids):
            self.rngs[replica].generator.standard_normal(out=block[row])
        block *= noise_sigma
        self._used, self._drawn = 0, n_steps

    def _mass_constants(self, masses: np.ndarray):
        """``(1/m, noise_scale * sqrt(kT/m))`` as ``(1, N, 1)`` columns.

        Constant for a run, so computed once per masses array rather
        than on every step.
        """
        if self._masses is not masses:
            kt = KB * self.temperature
            self._masses = masses
            self._inv_m = 1.0 / masses[None, :, None]
            self._noise_sigma = (
                self._noise_scale * np.sqrt(kt / masses)[None, :, None]
            )
        return self._inv_m, self._noise_sigma


class BatchedNoseHooverIntegrator(_BatchedIntegratorBase):
    """Batched Nosé–Hoover thermostat (single chain), the paper's choice.

    Section 3.1: "the temperature was kept at 300 K with a Nosé–Hoover
    thermostat with an oscillation period of 0.5 ps".  The coupling
    mass follows from that period: ``Q = N_df kT tau^2 / (4 pi^2)``.
    Deterministic dynamics, canonical sampling for ergodic systems.

    Each replica owns its thermostat friction ``xi`` (what its
    checkpoints carry as ``thermostat_state``).  The kinetic energy
    feeding ``xi`` is summed per replica over that replica's own
    ``(N, dim)`` rows, and the velocity scaling and kicks are
    elementwise over the stack, so every replica is bit-identical to a
    stack of one.
    """

    def __init__(
        self,
        timestep: float,
        temperature: float,
        oscillation_period: float = 0.5,
        n_replicas: int = 1,
    ) -> None:
        super().__init__(timestep)
        if temperature <= 0:
            raise ConfigurationError(
                f"temperature must be positive, got {temperature}"
            )
        if oscillation_period <= 0:
            raise ConfigurationError(
                f"oscillation_period must be positive, got {oscillation_period}"
            )
        self.temperature = float(temperature)
        self.tau = float(oscillation_period)
        self.xi = [0.0] * int(n_replicas)

    def thermostat_state_of(self, replica: int) -> float:
        """One replica's thermostat friction variable (checkpointed)."""
        return self.xi[replica]

    def set_thermostat_state_of(self, replica: int, value: float) -> None:
        """Restore one replica's thermostat friction variable."""
        self.xi[replica] = float(value)

    def _half_step_xi(
        self, system: BatchedSystem, velocities: np.ndarray, replica_ids
    ) -> np.ndarray:
        """Advance every row's ``xi`` half a step; its ``exp(-xi dt/2)``.

        Returned as an ``(R, 1, 1)`` column of per-row scale factors.
        """
        half_dt = 0.5 * self.timestep
        n_df = system.dim * system.n_atoms
        kt = KB * self.temperature
        q_mass = n_df * KB * self.temperature * self.tau**2 / (4.0 * np.pi**2)
        scale = np.empty((len(replica_ids), 1, 1))
        for row, replica in enumerate(replica_ids):
            ke = system.system.kinetic_energy(velocities[row])
            self.xi[replica] += half_dt * (2.0 * ke - n_df * kt) / q_mass
            scale[row] = np.exp(-self.xi[replica] * half_dt)
        return scale

    def step(
        self,
        system: BatchedSystem,
        positions: np.ndarray,
        velocities: np.ndarray,
        forces: np.ndarray,
        replica_ids: np.ndarray,
    ) -> np.ndarray:
        """Advance the (possibly compacted) stack one step in place."""
        dt = self.timestep
        half_dt = 0.5 * dt
        inv_m = 1.0 / system.masses[None, :, None]
        # Half-update of the thermostat variable, then a scaled kick.
        scale = self._half_step_xi(system, velocities, replica_ids)
        velocities *= scale
        velocities += half_dt * forces * inv_m
        positions += dt * velocities
        _, new_forces = system.energy_forces(
            positions, replica_ids, need_energy=False
        )
        velocities += half_dt * new_forces * inv_m
        velocities *= scale
        self._half_step_xi(system, velocities, replica_ids)
        return new_forces


class BatchedMarkovChainIntegrator(_BatchedStochasticIntegrator):
    """Batched discrete jumps: R chains of one spec per step call.

    The lab's exact-ground-truth propagator: the system must be a
    :class:`repro.md.models.markov_chain.MarkovChainSystem` (anything
    exposing a chain ``spec``).  Each replica draws one ``random()`` per
    step from its own stream (drawn in ascending replica order; a
    finished replica stops drawing), looks its successor up in the
    spec's matrix and is moved to the successor's embedding.
    Velocities and forces are untouched — there is no force field.
    What a stack saves is everything around the lookup: one step call,
    one coordinate write and one share of the driver's bookkeeping for
    R jumps.

    The stack's state indices (and its replicas' draw functions) are
    kept between steps.  They are read back from the coordinates
    whenever :meth:`step` is handed a stack it did not write last —
    :class:`BatchedSimulation` makes a new compacted array for every
    span and after every restore, and only this integrator writes to it
    in between.
    """

    def __init__(
        self, timestep: float, rngs: Sequence[int | RandomStream] = ()
    ) -> None:
        super().__init__(timestep, rngs)
        self._stack: Optional[np.ndarray] = None
        self._current: List[int] = []
        self._draws: List[Callable[[], float]] = []

    def step(
        self,
        system: BatchedSystem,
        positions: np.ndarray,
        velocities: np.ndarray,
        forces: np.ndarray,
        replica_ids: np.ndarray,
    ) -> np.ndarray:
        """Advance the (possibly compacted) stack one jump in place."""
        spec = getattr(system.system, "spec", None)
        if spec is None:
            raise ConfigurationError(
                "the markov-chain integrator needs a MarkovChainSystem "
                "(a system with a chain spec)"
            )
        if positions is not self._stack:
            self._stack = positions
            self._current = spec.discretize(positions).tolist()
            self._draws = [
                self.rngs[replica].generator.random for replica in replica_ids
            ]
            self._points = list(spec.embedding)
            positions[...] = spec.positions_of(self._current)
        # Only a row that jumped is written: the others already hold
        # their state's embedding.
        sample_next, current, points = spec.sample_next, self._current, self._points
        for row, draw in enumerate(self._draws):
            state = sample_next(current[row], draw())
            if state != current[row]:
                current[row] = state
                positions[row, 0] = points[state]
        return forces


def make_batched_integrator(
    name: str,
    timestep: float,
    temperature: float,
    friction: float,
    seeds: Sequence[int],
) -> _BatchedIntegratorBase:
    """Batched integrator for *name* over one replica per seed.

    ``langevin``, ``nose-hoover``, ``verlet`` or ``markov-chain``.  The
    engine convention: the noise or jump stream of task ``seed`` is
    ``seed + 1`` (stream ``seed`` draws the initial velocities).  Any
    other name raises :class:`ConfigurationError`.
    """
    streams = [seed + 1 for seed in seeds]
    if name == "langevin":
        return BatchedLangevinIntegrator(
            timestep, temperature, friction=friction, rngs=streams
        )
    if name == "nose-hoover":
        return BatchedNoseHooverIntegrator(
            timestep, temperature, n_replicas=len(seeds)
        )
    if name == "verlet":
        return BatchedVelocityVerletIntegrator(timestep)
    if name == "markov-chain":
        return BatchedMarkovChainIntegrator(timestep, rngs=streams)
    raise ConfigurationError(f"unknown integrator {name!r}")


def _advance_clocks(times: np.ndarray, n_steps: int, timestep: float) -> None:
    """Add *timestep* to every clock of *times* *n_steps* times, in place.

    One add per step, as the step loop would make them (``k * dt`` is
    other bits): ``np.add.accumulate`` down a column adds its rows one
    after another.  Blocks stay within :data:`SCATTER_GATHER_ELEMENTS`.
    """
    block = max(1, SCATTER_GATHER_ELEMENTS // len(times) - 1)
    while n_steps:
        taken = min(n_steps, block)
        clock = np.full((taken + 1, len(times)), timestep)
        clock[0] = times
        times[...] = np.add.accumulate(clock, axis=0)[-1]
        n_steps -= taken


class BatchedSimulation:
    """Drives a replica stack, with per-replica reporting and restart.

    Owns a shared system, a batched integrator and the stacked state,
    records one :class:`~repro.md.trajectory.Trajectory` per replica at
    the shared report interval, and cuts/restores per-replica
    :class:`Checkpoint` objects.

    Early exit: replicas are *active* until they are explicitly
    :meth:`deactivate`-d or the optional ``stop_condition(replica,
    positions) -> bool`` fires at a report point (e.g. "folded: Q >
    0.8").  Inactive replicas are compacted out of the working arrays,
    so a mostly-finished ensemble costs only its stragglers.
    """

    def __init__(
        self,
        system: System,
        integrator: _BatchedIntegratorBase,
        states: Sequence[State],
        report_interval: int = 0,
        stop_condition: Optional[Callable[[int, np.ndarray], bool]] = None,
    ) -> None:
        if report_interval < 0:
            raise ConfigurationError("report_interval must be >= 0")
        self.batch = BatchedState.from_states(states)
        if self.batch.positions.shape[1:] != (system.n_atoms, system.dim):
            raise ConfigurationError(
                f"replica shape {self.batch.positions.shape[1:]} does not "
                f"match system ({system.n_atoms}, {system.dim})"
            )
        self.system = system
        # A model may be cached between commands: no per-replica cache
        # (a lazy neighbour list) may carry over from an earlier run.
        system.step_plan.reset()
        self.batched_system = BatchedSystem(system, self.batch.n_replicas)
        self.integrator = integrator
        self.report_interval = int(report_interval)
        self.trajectories = [
            Trajectory() for _ in range(self.batch.n_replicas)
        ]
        self.active = np.ones(self.batch.n_replicas, dtype=bool)
        self.stop_condition = stop_condition
        self._forces: Optional[np.ndarray] = None

    @property
    def n_replicas(self) -> int:
        """Number of stacked replicas."""
        return self.batch.n_replicas

    @property
    def steps(self) -> np.ndarray:
        """Per-replica step counters (do not mutate)."""
        return self.batch.steps

    def deactivate(self, replica: int) -> None:
        """Early-exit *replica*: it stops consuming propagation work."""
        self.active[replica] = False

    def _report(self, replica, positions, velocities, time, step) -> None:
        """Record one replica's frame (a report point)."""
        self.trajectories[replica].append(positions, time)

    def _prime(self) -> None:
        if self._forces is not None:
            return
        self._forces = self.integrator.initial_forces(
            self.batched_system,
            self.batch.positions,
            np.arange(self.n_replicas),
        )
        if self.report_interval:
            # A replica that never runs (deactivated before priming,
            # e.g. restored already at its target), or that resumes off
            # the report grid, records no initial frame: a direct run
            # never reports at that step.
            batch = self.batch
            on_grid = batch.steps % self.report_interval == 0
            for replica in range(self.n_replicas):
                if (
                    self.active[replica]
                    and on_grid[replica]
                    and len(self.trajectories[replica]) == 0
                ):
                    self._report(
                        replica,
                        batch.positions[replica],
                        batch.velocities[replica],
                        batch.times[replica],
                        batch.steps[replica],
                    )

    def run_to(self, stop_steps: np.ndarray) -> None:
        """Advance every active replica to its per-replica stop step.

        Replicas past their stop step (or inactive) are compacted out;
        the remainder step together in spans, so the vectorised kernels
        always see a dense stack.  Raises
        :class:`~repro.util.errors.SimulationError` on non-finite
        coordinates.
        """
        stop = np.asarray(stop_steps, dtype=np.int64)
        if stop.shape != (self.n_replicas,):
            raise ConfigurationError(
                f"stop_steps must have shape ({self.n_replicas},)"
            )
        self._prime()
        interval = self.report_interval
        timestep = self.integrator.timestep
        while True:
            idx = np.flatnonzero(self.active & (self.batch.steps < stop))
            if idx.size == 0:
                return
            # Largest span every compacted replica can take together.
            span = int(np.min(stop[idx] - self.batch.steps[idx]))
            positions = self.batch.positions[idx]
            velocities = self.batch.velocities[idx]
            forces = self._forces[idx]
            steps = self.batch.steps[idx]
            times = self.batch.times[idx]
            while span:
                # Step to the next report any row has due (rows resumed
                # from different checkpoints sit at different counts),
                # so no step in between pays for report bookkeeping.
                chunk = span
                if interval:
                    chunk = min(span, int(np.min(interval - steps % interval)))
                self.integrator.plan_steps(chunk)
                for _ in range(chunk):
                    forces = self.integrator.step(
                        self.batched_system, positions, velocities, forces, idx
                    )
                _advance_clocks(times, chunk, timestep)
                steps += chunk
                span -= chunk
                if interval:
                    for row in np.flatnonzero(steps % interval == 0):
                        self._check_finite(positions[row], idx[row], steps[row])
                        self._report(
                            int(idx[row]),
                            positions[row],
                            velocities[row],
                            times[row],
                            steps[row],
                        )
            # Once more at the end of the span: with report_interval=0
            # (or a blow-up after the last report) nothing above looked.
            if not np.all(np.isfinite(positions)):
                for row in range(len(idx)):
                    self._check_finite(positions[row], idx[row], steps[row])
            self.batch.positions[idx] = positions
            self.batch.velocities[idx] = velocities
            self._forces[idx] = forces
            self.batch.steps[idx] = steps
            self.batch.times[idx] = times
            if self.stop_condition is not None:
                for row, replica in enumerate(idx):
                    if self.stop_condition(int(replica), positions[row]):
                        self.active[replica] = False

    @staticmethod
    def _check_finite(positions, replica, step) -> None:
        if not np.all(np.isfinite(positions)):
            raise SimulationError(
                f"non-finite coordinates in replica {int(replica)} at "
                f"step {int(step)}; reduce the timestep"
            )

    def run(self, n_steps: int) -> None:
        """Advance every active replica by *n_steps* further steps."""
        if n_steps < 0:
            raise ConfigurationError(
                f"n_steps must be >= 0, got {n_steps}"
            )
        self.run_to(self.batch.steps + n_steps)

    # -- energies -----------------------------------------------------------

    def potential_energies(self) -> np.ndarray:
        """Per-replica potential energies (kJ/mol) of the whole stack.

        Energies of a stack of two or more are the same bits whatever
        its size; a stack of one sums in another order (see
        :mod:`repro.md.forcefield.base`), so a result that must not
        depend on its stack (a command's ``final_potential_energy``)
        evaluates each replica alone.
        """
        return self.batched_system.energy_forces(self.batch.positions)[0]

    # -- checkpointing ------------------------------------------------------

    def checkpoint(self, replica: int) -> Checkpoint:
        """Snapshot everything needed to continue one replica elsewhere."""
        integrator = self.integrator
        rng_state = None
        if hasattr(integrator, "rng_state_of"):
            rng_state = dict(integrator.rng_state_of(replica))
        thermostat = 0.0
        if hasattr(integrator, "thermostat_state_of"):
            thermostat = integrator.thermostat_state_of(replica)
        return Checkpoint(
            positions=self.batch.positions[replica].copy(),
            velocities=self.batch.velocities[replica].copy(),
            time=float(self.batch.times[replica]),
            step=int(self.batch.steps[replica]),
            thermostat_state=thermostat,
            rng_state=rng_state,
        )

    def restore(self, replica: int, checkpoint: Checkpoint) -> None:
        """Resume one replica from a checkpoint (of any stack size)."""
        expected = (self.system.n_atoms, self.system.dim)
        if checkpoint.positions.shape != expected:
            raise ConfigurationError(
                "checkpoint geometry does not match this system"
            )
        self.batch.positions[replica] = checkpoint.positions
        self.batch.velocities[replica] = checkpoint.velocities
        self.batch.times[replica] = checkpoint.time
        self.batch.steps[replica] = checkpoint.step
        integrator = self.integrator
        if checkpoint.rng_state is not None and hasattr(
            integrator, "set_rng_state_of"
        ):
            integrator.set_rng_state_of(replica, checkpoint.rng_state)
        if hasattr(integrator, "set_thermostat_state_of"):
            integrator.set_thermostat_state_of(
                replica, checkpoint.thermostat_state
            )
        self._forces = None
