"""The simulation *executable*: what a Copernicus worker actually runs.

In the paper, workers advertise "executables" (e.g. the Gromacs
binaries) and the server hands them *commands* — serialised task
specifications.  :class:`MDTask` is that specification, :class:`MDEngine`
is the executable, and :class:`MDResult` is the returned output: a
trajectory plus a checkpoint.  Everything crosses the (simulated)
network as plain payload dicts, so tasks survive worker failure and can
be resumed by a different worker from the last checkpoint
(paper section 2.3).

There is one task type: a stack of commands is a list of
:class:`MDTask`, run by :meth:`MDEngine.run_batched` into a list of
:class:`MDResult`, and a lone command is a list of one.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.md.batched import (
    BatchedSimulation,
    Checkpoint,
    make_batched_integrator,
)
from repro.md.models.doublewell import double_well_initial_state, double_well_system
from repro.md.models.muller_brown import (
    muller_brown_initial_state,
    muller_brown_system,
)
from repro.md.models.villin import build_villin
from repro.md.system import State, System
from repro.util.errors import (
    CommunicationError,
    ConfigurationError,
    UnknownModelError,
)
from repro.util.rng import RandomStream
from repro.util.serialization import encode_message


@dataclass
class MDTask:
    """A serialisable simulation command.

    Attributes
    ----------
    model:
        Registered model name (``villin-full``, ``villin-fast``,
        ``muller-brown``, ``double-well``).
    n_steps:
        Total steps the command must complete.
    report_interval:
        Steps between stored frames.
    integrator:
        ``langevin`` (default), ``nose-hoover``, ``verlet`` or
        ``markov-chain`` (for the lab's exact-ground-truth chains).
    temperature / friction / timestep:
        Integration parameters (K, 1/ps, ps).
    seed:
        RNG seed for velocities and noise.
    initial_positions:
        Explicit starting coordinates; if ``None``, the model's default
        unfolded/initial builder runs.
    checkpoint:
        Resume payload from a previous partial run.
    model_params:
        Extra keyword arguments for the model builder.
    task_id:
        Opaque identifier assigned by the project controller.
    """

    model: str
    n_steps: int
    report_interval: int = 100
    integrator: str = "langevin"
    temperature: float = 300.0
    friction: float = 1.0
    timestep: float = 0.02
    seed: int = 0
    initial_positions: Optional[np.ndarray] = None
    checkpoint: Optional[Dict] = None
    model_params: Dict = field(default_factory=dict)
    task_id: str = ""

    def to_payload(self) -> Dict:
        """Wire-format dict."""
        payload = {
            "model": self.model,
            "n_steps": int(self.n_steps),
            "report_interval": int(self.report_interval),
            "integrator": self.integrator,
            "temperature": float(self.temperature),
            "friction": float(self.friction),
            "timestep": float(self.timestep),
            "seed": int(self.seed),
            "model_params": dict(self.model_params),
            "task_id": self.task_id,
        }
        if self.initial_positions is not None:
            payload["initial_positions"] = np.asarray(self.initial_positions)
        if self.checkpoint is not None:
            payload["checkpoint"] = self.checkpoint
        return payload

    @classmethod
    def from_payload(cls, payload: Dict) -> "MDTask":
        """Inverse of :meth:`to_payload` (keys it does not write, such
        as an older writer's ``"dispatch"``, are ignored; see
        :func:`refuse_float32`)."""
        refuse_float32(payload)
        return cls(
            model=payload["model"],
            n_steps=int(payload["n_steps"]),
            report_interval=int(payload.get("report_interval", 100)),
            integrator=payload.get("integrator", "langevin"),
            temperature=float(payload.get("temperature", 300.0)),
            friction=float(payload.get("friction", 1.0)),
            timestep=float(payload.get("timestep", 0.02)),
            seed=int(payload.get("seed", 0)),
            initial_positions=(
                np.asarray(payload["initial_positions"])
                if "initial_positions" in payload
                else None
            ),
            checkpoint=payload.get("checkpoint"),
            model_params=dict(payload.get("model_params", {})),
            task_id=payload.get("task_id", ""),
        )


def refuse_float32(payload: Dict) -> None:
    """Refuse a payload asking for a precision the kernel does not have.

    Older writers stamped every command ``"precision": "float64"``;
    that key is ignored.  A ``"float32"`` command has no engine to run
    it any more, so it fails loudly instead of silently changing dtype.
    """
    precision = payload.get("precision", "float64")
    if precision != "float64":
        raise ConfigurationError(
            f"precision {precision!r} is not supported: the MD kernel "
            f"runs in float64 only"
        )


@dataclass
class MDResult:
    """Output of running (part of) an :class:`MDTask`."""

    task_id: str
    frames: np.ndarray
    times: np.ndarray
    checkpoint: Dict
    steps_completed: int
    completed: bool
    final_potential_energy: float

    def to_payload(self) -> Dict:
        """Wire-format dict."""
        return {
            "task_id": self.task_id,
            "frames": self.frames,
            "times": self.times,
            "checkpoint": self.checkpoint,
            "steps_completed": int(self.steps_completed),
            "completed": bool(self.completed),
            "final_potential_energy": float(self.final_potential_energy),
        }

    @classmethod
    def from_payload(cls, payload: Dict) -> "MDResult":
        """Inverse of :meth:`to_payload`.

        Keys it does not name are ignored, so a payload journaled when
        results still carried a measured ``wall_seconds`` loads too.
        """
        return cls(
            task_id=payload["task_id"],
            frames=np.asarray(payload["frames"]),
            times=np.asarray(payload["times"]),
            checkpoint=payload["checkpoint"],
            steps_completed=int(payload["steps_completed"]),
            completed=bool(payload["completed"]),
            final_potential_energy=float(payload["final_potential_energy"]),
        )


#: Fields that must agree for MDTasks to share one batched propagation.
BATCH_COMPATIBLE_FIELDS = (
    "model",
    "n_steps",
    "report_interval",
    "integrator",
    "temperature",
    "friction",
    "timestep",
    "model_params",
)


@dataclass
class BuiltModel:
    """A constructed model: one shared system + a per-task state builder.

    The split is what lets a stack share one registry lookup: the
    (expensive) system is built once, then ``state_builder`` is called
    per task/replica — states depend only on the task's seed, initial
    positions and temperature, so a stacked replica starts exactly
    where it would alone.
    """

    system: System
    state_builder: Callable[[MDTask], State]


def _explicit_state(system: System, task: MDTask) -> Optional[State]:
    """State from a task's explicit coordinates (velocities thermalised).

    The coordinates are copied: integrators advance a state in place,
    and sibling tasks commonly share one start array.
    """
    if task.initial_positions is None:
        return None
    rng = RandomStream(task.seed)
    velocities = system.maxwell_boltzmann_velocities(task.temperature, rng)
    return State(np.array(task.initial_positions, dtype=float), velocities)


def _villin_builder(model: str, model_params: Dict) -> BuiltModel:
    variant = model.split("-", 1)[1] if "-" in model else "full"
    built = build_villin(variant=variant, **model_params)

    def state_builder(task: MDTask) -> State:
        state = _explicit_state(built.system, task)
        if state is not None:
            return state
        return built.extended_state(rng=task.seed, temperature=task.temperature)

    return BuiltModel(built.system, state_builder)


def _muller_brown_builder(model: str, model_params: Dict) -> BuiltModel:
    system = muller_brown_system(**model_params)

    def state_builder(task: MDTask) -> State:
        state = _explicit_state(system, task)
        if state is not None:
            return state
        return muller_brown_initial_state(
            rng=task.seed, temperature=task.temperature, **model_params
        )

    return BuiltModel(system, state_builder)


def _lj_fluid_builder(model: str, model_params: Dict) -> BuiltModel:
    from repro.md.models.lj_fluid import lj_fluid_state, lj_fluid_system

    system, box = lj_fluid_system(**model_params)

    def state_builder(task: MDTask) -> State:
        state = _explicit_state(system, task)
        if state is not None:
            return state
        return lj_fluid_state(
            system, box, temperature=task.temperature, rng=task.seed
        )

    return BuiltModel(system, state_builder)


def _markov_chain_builder(model: str, model_params: Dict) -> BuiltModel:
    from repro.md.models.markov_chain import (
        build_markov_chain,
        markov_chain_initial_state,
    )

    system = build_markov_chain(model, **model_params)
    spec = system.spec

    def state_builder(task: MDTask) -> State:
        state = _explicit_state(system, task)
        if state is not None:
            # snap arbitrary restart coordinates onto the nearest
            # embedding point so the position is a valid chain state
            state.positions[...] = spec.position_of(
                spec.state_of(state.positions)
            )
            return state
        return markov_chain_initial_state(system)

    return BuiltModel(system, state_builder)


def _double_well_builder(model: str, model_params: Dict) -> BuiltModel:
    system = double_well_system(**model_params)
    width = model_params.get("width", 1.0)
    dim = model_params.get("dim", 1)

    def state_builder(task: MDTask) -> State:
        state = _explicit_state(system, task)
        if state is not None:
            return state
        return double_well_initial_state(
            rng=task.seed, temperature=task.temperature, width=width, dim=dim
        )

    return BuiltModel(system, state_builder)


#: Model registry: name -> builder(model, model_params) -> BuiltModel.
#: One lookup shared by lone and stacked commands.
MODEL_REGISTRY: Dict[str, Callable[[str, Dict], BuiltModel]] = {
    "villin-full": _villin_builder,
    "villin-fast": _villin_builder,
    "muller-brown": _muller_brown_builder,
    "double-well": _double_well_builder,
    "lj-fluid": _lj_fluid_builder,
    "markov-ala20": _markov_chain_builder,
    "markov-mb": _markov_chain_builder,
}


def register_model(
    name: str, builder: Callable[[str, Dict], BuiltModel]
) -> None:
    """Register (or override) a model builder under *name*."""
    MODEL_REGISTRY[name] = builder


#: Built models kept for reuse, most recently used last:
#: (builder, model name, wire encoding of model_params) -> BuiltModel.
#: A small constant bound, not a setting: a process runs a handful of
#: models, and one villin-fast build costs 6-13 ms.
_BUILT: "OrderedDict[tuple, BuiltModel]" = OrderedDict()
_BUILT_MODELS_KEPT = 8


def resolve_model(model: str, model_params: Optional[Dict] = None) -> BuiltModel:
    """Look up and build *model*, raising typed errors for bad names.

    A build is kept and handed out again for the same builder, name and
    parameters, so a registry override (or a direct
    :data:`MODEL_REGISTRY` edit) builds afresh.  Parameters with no wire
    encoding are built every time.

    Raises
    ------
    UnknownModelError
        If *model* is not registered (a :class:`ConfigurationError`
        subclass, so pre-registry callers keep working).
    """
    try:
        builder = MODEL_REGISTRY[model]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {model!r}; known: {sorted(MODEL_REGISTRY)}"
        ) from None
    params = dict(model_params or {})
    try:
        key = (builder, model, encode_message(params))
    except CommunicationError:
        return builder(model, params)
    built = _BUILT.pop(key, None) or builder(model, params)
    _BUILT[key] = built
    if len(_BUILT) > _BUILT_MODELS_KEPT:
        _BUILT.popitem(last=False)
    return built


class MDEngine:
    """Executes :class:`MDTask` commands; the worker-side 'executable'.

    Parameters
    ----------
    segment_steps:
        Steps per internal segment; checkpoints are cut at segment
        boundaries, so this is the resume granularity.
    """

    #: Executable identifier matched against command requirements
    #: during resource matching (the paper's "executables").
    name = "mdrun"
    version = "1.0"

    def __init__(self, segment_steps: int = 1000) -> None:
        if segment_steps <= 0:
            raise ConfigurationError("segment_steps must be positive")
        self.segment_steps = int(segment_steps)

    def run(self, task: MDTask, abort_after_steps: Optional[int] = None) -> MDResult:
        """Run *task* to completion (or abort early, returning a checkpoint).

        A lone command is a stack of one (:meth:`run_batched`).

        Parameters
        ----------
        abort_after_steps:
            If given, stop after at most this many further steps even
            if the task is unfinished — used by failure-injection tests
            and pre-empted workers.  The result then has
            ``completed=False`` and a resumable checkpoint.
        """
        return self.run_batched([task], abort_after_steps)[0]

    def run_batched(
        self,
        tasks: Sequence[MDTask],
        abort_after_steps: Optional[int] = None,
    ) -> List[MDResult]:
        """Run a stack of commands; each result is its lone run's.

        The tasks must agree on every field of
        :data:`BATCH_COMPATIBLE_FIELDS`; seeds, task ids, explicit
        initial positions and resume checkpoints stay per task.
        *abort_after_steps* bounds the further steps of every replica,
        mirroring :meth:`run`.

        Raises
        ------
        ConfigurationError
            If *tasks* is empty or its members disagree on a shared
            field.
        """
        if not tasks:
            raise ConfigurationError("need at least one task to batch")
        first = tasks[0]
        for task in tasks[1:]:
            for name in BATCH_COMPATIBLE_FIELDS:
                if getattr(task, name) != getattr(first, name):
                    raise ConfigurationError(
                        f"cannot batch tasks differing in {name!r}"
                    )
        integrator = make_batched_integrator(
            first.integrator,
            first.timestep,
            first.temperature,
            first.friction,
            [task.seed for task in tasks],
        )
        built = resolve_model(first.model, first.model_params)
        simulation = BatchedSimulation(
            built.system,
            integrator,
            [built.state_builder(task) for task in tasks],
            report_interval=first.report_interval,
        )
        for replica, task in enumerate(tasks):
            if task.checkpoint is not None:
                simulation.restore(
                    replica, Checkpoint.from_payload(task.checkpoint)
                )
        start_steps = simulation.batch.steps.copy()
        target = first.n_steps
        budget = abort_after_steps if abort_after_steps is not None else target
        for replica in range(len(tasks)):
            # A replica restored at (or past) its target never runs
            # and records no frames.
            if start_steps[replica] >= target or budget <= 0:
                simulation.deactivate(replica)

        while True:
            steps = simulation.batch.steps
            remaining = np.minimum(
                target - steps, budget - (steps - start_steps)
            )
            if not np.any(remaining > 0):
                break
            chunk = np.clip(remaining, 0, self.segment_steps)
            simulation.run_to(steps + chunk)

        results = []
        for replica, task in enumerate(tasks):
            trajectory = simulation.trajectories[replica]
            step = int(simulation.batch.steps[replica])
            results.append(
                MDResult(
                    task_id=task.task_id,
                    frames=trajectory.frames,
                    times=trajectory.times,
                    checkpoint=simulation.checkpoint(replica).to_payload(),
                    steps_completed=step - int(start_steps[replica]),
                    completed=step >= target,
                    # A stack of one, so the energy does not depend on
                    # the stack the command ran in.
                    final_potential_energy=built.system.potential_energy(
                        simulation.batch.positions[replica]
                    ),
                )
            )
        return results
