"""The four closed-loop workloads and the checks on what they produce.

Each workload turns a seed into inputs (``inputs``), hands them to one
public ``repro.api`` entry point (``call`` — the timed region) and says
what a correct result looks like (``expected`` / ``reference_tasks``).
The program under test only ever sees the generated inputs.

Sizes: ``full`` is the benchmark (fixed; later issues cite the numbers),
``quick`` is a smoke size whose numbers mean nothing, ``warm`` is the
50-step warm-up every repeat runs through the same API call before the
timed one.
"""

from __future__ import annotations

import copy
import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.api import Ensemble, Project, Tenant, run, run_tenants
from repro.core.command import Command
from repro.core.controller import Controller
from repro.core.msm_controller import AdaptiveMSMController, MSMProjectConfig
from repro.core.project import Project as CoreProject
from repro.md.engine import MDEngine, MDTask
from repro.server.wal import ServerJournal
from repro.worker.executable import register_executable

Key = Tuple[str, str]  # (project id, command id)


@dataclass
class Run:
    """What one timed call produced, in the terms the checks need."""

    projects: Dict[str, Any]
    network: Any
    runner: Any
    #: results read back from the journals by a cold recovery, if any
    recovered: Optional[int] = None


class Workload:
    name: str
    why: str
    sizes: Dict[str, dict]
    #: whether the run writes journals (they must then be on a real disk)
    journaled = False

    def inputs(self, seed: int, size: str) -> Any:
        raise NotImplementedError

    def call(self, inputs: Any, journal_dir: Path) -> Run:
        raise NotImplementedError

    def expected(self, inputs: Any) -> Dict[Key, Optional[str]]:
        """Every command the run must complete -> the echo it must
        return (``None`` for MD commands, checked by re-running)."""
        raise NotImplementedError

    def reference_tasks(self, inputs: Any) -> Dict[Key, MDTask]:
        """MD commands whose task is known outside the run."""
        return {}

    def extra_digest(self, inputs: Any) -> str:
        return ""


# -- adaptive_msm -----------------------------------------------------------


class AdaptiveMSM(Workload):
    name = "adaptive_msm"
    why = (
        "the paper's headline loop: cluster, estimate, spawn over 3 generations "
        "of 6 villin-fast commands; small R=6 batches, every layer takes part"
    )
    sizes = {
        "full": dict(starts=2, per_start=3, steps=3000, report=50, clusters=25, lag=5, gens=3),
        "quick": dict(starts=2, per_start=2, steps=300, report=50, clusters=8, lag=2, gens=2),
        "warm": dict(starts=1, per_start=3, steps=50, report=10, clusters=3, lag=1, gens=1),
    }

    def _config(self, seed: int, size: str) -> MSMProjectConfig:
        p = self.sizes[size]
        return MSMProjectConfig(
            model="villin-fast",
            n_starting_conformations=p["starts"],
            trajectories_per_start=p["per_start"],
            steps_per_command=p["steps"],
            report_interval=p["report"],
            n_clusters=p["clusters"],
            lag_frames=p["lag"],
            n_generations=p["gens"],
            weighting="uncertainty",
            seed=seed,
        )

    def inputs(self, seed, size):
        return AdaptiveMSMController(self._config(seed, size))

    def call(self, controller, journal_dir):
        out = Project("msm", controller=controller).run(cores=2)
        return Run({"msm": out.project}, out.network, out.runner)

    def expected(self, controller):
        cfg = controller.config
        return {
            ("msm", f"gen{g}_r{g * cfg.n_trajectories + i}"): None
            for g in range(cfg.n_generations)
            for i in range(cfg.n_trajectories)
        }

    def reference_tasks(self, controller):
        # generation 0 is a function of the config alone: a fresh
        # controller with the same seed issues the same commands
        fresh = AdaptiveMSMController(controller.config)
        commands = fresh.on_project_start(CoreProject("msm"))
        return {
            ("msm", c.command_id): MDTask.from_payload(c.payload) for c in commands
        }

    def extra_digest(self, controller):
        return repr(sorted(controller.min_rmsd_per_generation().items()))


# -- ensemble64 -------------------------------------------------------------


class Ensemble64(Workload):
    name = "ensemble64"
    why = (
        "64 villin-fast replicas coalesced into one batched kernel call: the "
        "kernel is ~99% of the run, control-plane changes must show no change"
    )
    sizes = {
        "full": dict(replicas=64, steps=2500, report=100),
        "quick": dict(replicas=8, steps=200, report=50),
        "warm": dict(replicas=3, steps=50, report=10),
    }

    def inputs(self, seed, size):
        p = self.sizes[size]
        return Ensemble(
            model="villin-fast",
            n_replicas=p["replicas"],
            steps=p["steps"],
            report_interval=p["report"],
            seed=seed * 1000,
        )

    def call(self, ensemble, journal_dir):
        out = run(ensemble)
        return Run({"project": out.project}, out.network, out.runner)

    def expected(self, ensemble):
        return {("project", task.task_id): None for task in ensemble.tasks()}

    def reference_tasks(self, ensemble):
        return {("project", task.task_id): task for task in ensemble.tasks()}


# -- control_plane ----------------------------------------------------------


def _noop_executable(payload: dict, abort_after_steps=None):
    return {"echo": payload["echo"]}, True


class WaveController(Controller):
    """Flat controller: waves of noop commands, the next wave once the
    previous one is complete."""

    def __init__(self, echoes: List[List[str]]) -> None:
        self.echoes = echoes
        self.wave = 0
        self.pending = 0
        self.done = 0

    def _issue(self, project) -> List[Command]:
        self.pending = len(self.echoes[self.wave])
        return [
            Command(
                command_id=f"w{self.wave}_c{i}",
                project_id=project.project_id,
                executable="noop",
                payload={"echo": echo},
            )
            for i, echo in enumerate(self.echoes[self.wave])
        ]

    def on_project_start(self, project):
        return self._issue(project)

    def on_command_finished(self, project, command, result):
        self.done += 1
        self.pending -= 1
        if self.pending:
            return []
        self.wave += 1
        if self.wave >= len(self.echoes):
            return []
        return self._issue(project)

    def is_complete(self, project):
        return self.done >= sum(len(wave) for wave in self.echoes)


@dataclass
class TenantInputs:
    tenants: List[Tenant]
    seed: int
    expected: Dict[Key, Optional[str]]
    tasks: Dict[Key, MDTask] = field(default_factory=dict)


def _run_tenants(inputs: TenantInputs, journal_dir: Path):
    return run_tenants(
        inputs.tenants,
        n_shards=3,
        workers_per_shard=2,
        cores=2,
        seed=inputs.seed,
        journal_root=journal_dir,
    )


class ControlPlane(Workload):
    name = "control_plane"
    journaled = True
    why = (
        "24 tenants x 6 waves x 25 noop commands through gateway, shards, "
        "fair-share, serialization and WAL+fsync, then a cold journal recovery: "
        "no MD, so the control plane is the whole run"
    )
    sizes = {
        "full": dict(tenants=24, waves=6, width=25),
        "quick": dict(tenants=6, waves=2, width=10),
        "warm": dict(tenants=2, waves=1, width=3),
    }

    def inputs(self, seed, size):
        register_executable("noop", _noop_executable)
        p = self.sizes[size]
        rng = random.Random(seed)
        tenants, expected = [], {}
        for k in range(p["tenants"]):
            name = f"t{k:02d}"
            echoes = [
                [f"{rng.getrandbits(96):024x}" for _ in range(p["width"])]
                for _ in range(p["waves"])
            ]
            for w, wave in enumerate(echoes):
                for i, echo in enumerate(wave):
                    expected[(name, f"w{w}_c{i}")] = echo
            tenants.append(
                Tenant(
                    name,
                    controller=WaveController(echoes),
                    quota=4 if k % 5 == 0 else None,
                    weight=2.0 if k % 3 == 0 else 1.0,
                )
            )
        return TenantInputs(tenants, seed, expected)

    def call(self, inputs, journal_dir):
        out = _run_tenants(inputs, journal_dir)
        for shard in out.shards:
            shard.journal.close()
        # cold recovery: what a restarted server would read back
        recovered = 0
        for shard in out.shards:
            journal = ServerJournal(journal_dir / shard.name)
            for project_id in journal.project_ids():
                recovered += len(journal.project(project_id).recover().results)
            journal.close()
        return Run(out.projects, out.network, out.runner, recovered)

    def expected(self, inputs):
        return inputs.expected


# -- serial_swarm -----------------------------------------------------------


class SerialSwarm(Workload):
    name = "serial_swarm"
    journaled = True
    why = (
        "12 tenants of tiny models (N=1-19) on sharded workers with "
        "batch_capacity=1: the serial R=1 kernel path where per-step Python "
        "overhead dominates, plus real frame payloads through the WAL"
    )
    models = ("double-well", "muller-brown", "markov-ala20", "villin-fast")
    sizes = {
        "full": dict(tenants=12, toy=(3, 4500), villin=(2, 2250)),
        "quick": dict(tenants=4, toy=(2, 400), villin=(1, 200)),
        "warm": dict(tenants=4, toy=(1, 50), villin=(1, 50)),
    }

    def inputs(self, seed, size):
        p = self.sizes[size]
        tenants, expected, tasks = [], {}, {}
        for k in range(p["tenants"]):
            name = f"t{k:02d}"
            model = self.models[k % len(self.models)]
            replicas, steps = p["villin"] if model == "villin-fast" else p["toy"]
            ensemble = Ensemble(
                model=model,
                n_replicas=replicas,
                steps=steps,
                report_interval=max(1, steps // 10),
                integrator="markov-chain" if model.startswith("markov") else "langevin",
                seed=seed * 1000 + 10 * k,
            )
            for task in ensemble.tasks():
                expected[(name, task.task_id)] = None
                tasks[(name, task.task_id)] = task
            tenants.append(
                Tenant(name, ensembles=[ensemble], quota=2 if k % 5 == 0 else None)
            )
        return TenantInputs(tenants, seed, expected, tasks)

    def call(self, inputs, journal_dir):
        out = _run_tenants(inputs, journal_dir)
        for shard in out.shards:
            shard.journal.close()
        return Run(out.projects, out.network, out.runner)

    def expected(self, inputs):
        return inputs.expected

    def reference_tasks(self, inputs):
        return inputs.tasks


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (AdaptiveMSM(), Ensemble64(), ControlPlane(), SerialSwarm())
}


# -- checks -----------------------------------------------------------------


@dataclass
class Verdict:
    attempted: int
    verified: int
    steps: int
    digest: str
    errors: List[str]


def verify(workload: Workload, inputs: Any, run: Run, seed: int) -> Verdict:
    """Check one run's outputs; a command counts only if every check on
    it passes."""
    expected = workload.expected(inputs)
    errors: List[str] = []
    results: Dict[Key, dict] = {}
    bad: set = set()
    for project_id, project in run.projects.items():
        if project.status.value != "complete":
            errors.append(f"project {project_id} is {project.status.value}")
        for command_id, result in project.results_log:
            key = (project_id, command_id)
            if key in results:
                errors.append(f"{key} completed more than once")
                bad.add(key)
            elif key not in expected:
                errors.append(f"{key} was never issued by the inputs")
            else:
                results[key] = result
    for key, echo in expected.items():
        if key not in results:
            errors.append(f"{key} has no result")
        elif echo is not None and results[key].get("echo") != echo:
            errors.append(f"{key} echoed {results[key].get('echo')!r}, not {echo!r}")
            bad.add(key)

    # two MD commands re-run directly: every frame of the engine's own
    # run must be in the distributed result, bit-identical, at its time.
    # (A worker executes in checkpointed segments and records one more
    # frame where it resumes, so the distributed result may hold extra
    # frames at segment boundaries; they are not compared.)
    tasks = workload.reference_tasks(inputs)
    sampled = random.Random(seed).sample(sorted(tasks), min(2, len(tasks)))
    for key in sampled:
        if key not in results:
            continue
        # deep copy: the engine integrates a task's initial_positions in
        # place, and sibling commands share that array
        direct = MDEngine().run(copy.deepcopy(tasks[key]))
        got = results[key]
        shared = np.isin(got["times"], direct.times)
        if not (
            np.array_equal(direct.times, got["times"][shared])
            and np.array_equal(direct.frames, got["frames"][shared])
            and direct.steps_completed == got["steps_completed"]
        ):
            errors.append(f"{key} differs from a direct MDEngine.run")
            bad.add(key)

    if run.recovered is not None and run.recovered != len(results):
        errors.append(
            f"journals recovered {run.recovered} results, run completed {len(results)}"
        )

    digest = hashlib.sha256()
    for key in sorted(results):
        result = results[key]
        digest.update(repr(key).encode())
        if "frames" in result:
            digest.update(np.ascontiguousarray(result["frames"]).tobytes())
        else:
            digest.update(repr(result.get("echo")).encode())
    digest.update(workload.extra_digest(inputs).encode())

    good = [key for key in results if key not in bad]
    return Verdict(
        attempted=len(expected),
        verified=len(good),
        steps=sum(int(results[key].get("steps_completed", 0)) for key in good),
        digest=digest.hexdigest(),
        errors=errors,
    )
