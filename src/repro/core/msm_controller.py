"""The Markov-state-model adaptive-sampling controller.

This is the paper's MSM plugin (section 3): given a set of unfolded
starting structures it launches a swarm of simulation commands, and at
every *generation* boundary it

1. pools the frames of all completed trajectories,
2. kinetically clusters them into microstates (k-centers, RMSD metric),
3. counts microstate transitions at a lag time,
4. computes spawning weights — *even* over discovered states while the
   partitioning is immature, or *adaptive* (transition-uncertainty-
   weighted) once it stabilises,
5. terminates trajectories in well-explored regions and spawns new
   commands from under-explored microstates.

The loop repeats for a fixed number of generations or until a stop
criterion (e.g. a conformation within an RMSD threshold of native)
fires.  After the run, :meth:`AdaptiveMSMController.final_msm` builds
the production MSM used for the blind native-state prediction and the
kinetics of Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.rmsd import rmsd_to_reference
from repro.core.command import Command
from repro.core.controller import Controller
from repro.core.project import Project
from repro.md.engine import MDTask
from repro.md.models.villin import build_villin
from repro.msm.adaptive import WEIGHTINGS, allocate_starts, check_weighting
from repro.msm.cluster import ClusterResult, KCentersClustering
from repro.msm.counts import count_matrix_multi
from repro.msm.metrics import EuclideanMetric, RMSDMetric
from repro.msm.model import MarkovStateModel
from repro.util.errors import ConfigurationError, EstimationError
from repro.util.rng import RandomStream


@dataclass
class MSMProjectConfig:
    """Parameters of an adaptive MSM project.

    The defaults describe a laptop-scale villin run; the paper's values
    are noted in brackets.

    Attributes
    ----------
    model:
        Registered MD model ([villin, 9,864 atoms all-atom] ->
        ``villin-fast``/``villin-full`` CG Gō model here).
    n_starting_conformations:
        Distinct unfolded starts [9].
    trajectories_per_start:
        Commands per start in generation 0 [25, i.e. 225 total].
    steps_per_command:
        MD steps per command [50 ns].
    report_interval:
        Steps between stored frames [50 ps].
    n_clusters:
        Microstates for the k-centers pass [10,000].
    lag_frames:
        Transition-counting lag in frames [25 ns].
    n_generations:
        Clustering rounds before completion [~8-10].
    weighting:
        A spawning-scheme name from
        :data:`repro.msm.adaptive.WEIGHTINGS` (``uniform``,
        ``min-counts``, ``weighted-counts``, ``uncertainty``).
    weighting_params:
        Keyword arguments for that weight function (e.g.
        ``{"n": 2.0}`` for ``weighted-counts``).
    integrator:
        Integrator name handed to every MD command (``langevin``
        default; ``markov-chain`` for the lab's exact toy systems).
    stop_rmsd:
        Early-stop when any frame comes this close to native (nm);
        ``None`` disables [0.6-0.7 A first-folded criterion].
    """

    model: str = "villin-fast"
    model_params: Dict = field(default_factory=dict)
    n_starting_conformations: int = 3
    trajectories_per_start: int = 5
    steps_per_command: int = 10000
    report_interval: int = 100
    temperature: float = 300.0
    timestep: float = 0.02
    friction: float = 1.0
    n_clusters: int = 40
    lag_frames: int = 5
    subsample: int = 1
    n_generations: int = 4
    weighting: str = "uniform"
    weighting_params: Dict = field(default_factory=dict)
    integrator: str = "langevin"
    seed: int = 0
    stop_rmsd: Optional[float] = None
    min_cores: int = 1
    preferred_cores: int = 1

    def __post_init__(self) -> None:
        # an unknown scheme or out-of-range parameter fails here, not
        # at the first generation boundary
        check_weighting(self.weighting, self.weighting_params)
        for name in (
            "n_starting_conformations",
            "trajectories_per_start",
            "steps_per_command",
            "report_interval",
            "n_clusters",
            "lag_frames",
            "subsample",
            "n_generations",
        ):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")

    @property
    def n_trajectories(self) -> int:
        """Commands per generation."""
        return self.n_starting_conformations * self.trajectories_per_start


@dataclass
class TrajectoryRecord:
    """One trajectory (one command) and its lineage."""

    traj_id: str
    generation: int
    frames: Optional[np.ndarray] = None
    times: Optional[np.ndarray] = None
    parent: Optional[str] = None  # trajectory the start frame came from
    start_cluster: Optional[int] = None
    status: str = "running"


class AdaptiveMSMController(Controller):
    """The adaptive-sampling MSM plugin.

    The spawning scheme is ``config.weighting``, looked up in
    :data:`repro.msm.adaptive.WEIGHTINGS`.  An optional
    *convergence* checker (anything with an
    ``evaluate(frames_by_traj, **context)`` method, e.g.
    :class:`repro.lab.ConvergenceChecker`) is invoked at every
    generation boundary; its numeric results land in
    ``convergence_history`` and the obs metrics registry.
    """

    def __init__(
        self,
        config: MSMProjectConfig,
        convergence=None,
    ) -> None:
        self.config = config
        self.convergence = convergence
        self.rng = RandomStream(config.seed)
        self._is_villin = config.model.startswith("villin")
        if self._is_villin:
            variant = config.model.split("-", 1)[1]
            self._villin = build_villin(variant=variant, **config.model_params)
            self.native = self._villin.native
            self.metric = RMSDMetric()
        else:
            self._villin = None
            self.native = None
            self.metric = EuclideanMetric()
        # mutable run state
        self.generation = 0
        self.trajectories: Dict[str, TrajectoryRecord] = {}
        self.pending: set = set()
        self.history: List[dict] = []
        self.cluster_model: Optional[ClusterResult] = None
        self.convergence_history: List[dict] = []
        self.simulated_steps = 0
        self._complete = False
        self._stop_hit = False
        self._command_counter = 0

    # -- command fabrication ---------------------------------------------

    def _new_command(
        self,
        project: Project,
        initial_positions: np.ndarray,
        generation: int,
        parent: Optional[str],
        start_cluster: Optional[int],
    ) -> Command:
        cfg = self.config
        index = self._command_counter
        self._command_counter += 1
        traj_id = f"gen{generation}_r{index}"
        task = MDTask(
            model=cfg.model,
            n_steps=cfg.steps_per_command,
            report_interval=cfg.report_interval,
            temperature=cfg.temperature,
            timestep=cfg.timestep,
            friction=cfg.friction,
            integrator=cfg.integrator,
            seed=int(self.rng.integers(0, 2**31 - 1)),
            initial_positions=np.asarray(initial_positions),
            model_params=cfg.model_params,
            task_id=traj_id,
        )
        self.trajectories[traj_id] = TrajectoryRecord(
            traj_id=traj_id,
            generation=generation,
            parent=parent,
            start_cluster=start_cluster,
        )
        self.pending.add(traj_id)
        return Command(
            command_id=traj_id,
            project_id=project.project_id,
            executable="mdrun",
            payload=task.to_payload(),
            min_cores=cfg.min_cores,
            preferred_cores=cfg.preferred_cores,
            priority=generation,
        )

    def _starting_conformations(self) -> List[np.ndarray]:
        cfg = self.config
        streams = self.rng.spawn(cfg.n_starting_conformations)
        if self._is_villin:
            return [
                self._villin.extended_state(rng=s).positions for s in streams
            ]
        # model-potential fallback: scatter starts around the default state
        from repro.md.engine import MDTask as _Task, resolve_model

        built = resolve_model(cfg.model, cfg.model_params)
        return [
            built.state_builder(
                _Task(
                    model=cfg.model,
                    n_steps=0,
                    seed=int(s.integers(0, 2**31 - 1)),
                    model_params=cfg.model_params,
                )
            ).positions
            for s in streams
        ]

    # -- controller events --------------------------------------------------

    def on_project_start(self, project: Project) -> List[Command]:
        """Generation 0: a swarm of commands from the unfolded starts."""
        cfg = self.config
        project.state["config"] = cfg
        commands = []
        for conf in self._starting_conformations():
            for _ in range(cfg.trajectories_per_start):
                commands.append(
                    self._new_command(project, conf, 0, parent=None, start_cluster=None)
                )
        self._observe_generation(project, len(commands))
        return commands

    def _observe_generation(self, project: Project, n_commands: int) -> None:
        """Export generation progress to the bound observability hub."""
        if self.obs is None:
            return
        self.obs.metrics.set_gauge(
            "repro_msm_generation",
            self.generation,
            help="Current adaptive-sampling generation.",
            project=project.project_id,
        )
        self.obs.metrics.inc(
            "repro_msm_commands_total",
            amount=n_commands,
            help="Simulation commands spawned by the MSM controller.",
            project=project.project_id,
        )
        self.obs.metrics.set_gauge(
            "repro_msm_simulated_steps",
            self.simulated_steps,
            help="Aggregate simulated steps across finished commands.",
            project=project.project_id,
        )

    def on_command_finished(
        self, project: Project, command: Command, result: Dict
    ) -> List[Command]:
        """Store frames; at generation boundaries, cluster and respawn."""
        traj = self.trajectories.get(command.command_id)
        if traj is None:
            return []
        traj.frames = np.asarray(result["frames"])
        traj.times = np.asarray(result["times"])
        traj.status = "done"
        self.simulated_steps += self.config.steps_per_command
        self.pending.discard(command.command_id)
        if self._check_stop(traj):
            self._complete = True
            self._stop_hit = True
            return []
        if self.pending:
            return []
        # generation boundary
        summary = self._cluster_and_summarise()
        self.history.append(summary)
        self._evaluate_convergence(project, summary)
        if self.obs is not None:
            self.obs.metrics.inc(
                "repro_msm_clusterings_total",
                help="Generation-boundary clustering passes.",
                project=project.project_id,
            )
            self.obs.metrics.set_gauge(
                "repro_msm_states",
                summary["n_states"],
                help="Microstates in the latest clustering.",
                project=project.project_id,
            )
            self.obs.metrics.set_gauge(
                "repro_msm_pool_frames",
                summary["n_pool_frames"],
                help="Pooled frames fed to the latest clustering.",
                project=project.project_id,
            )
            if "min_center_rmsd" in summary:
                self.obs.metrics.set_gauge(
                    "repro_msm_min_center_rmsd",
                    summary["min_center_rmsd"],
                    help="Best cluster-center RMSD to native (nm).",
                    project=project.project_id,
                )
        if self.generation + 1 >= self.config.n_generations:
            self._complete = True
            return []
        self.generation += 1
        follow_ups = self._spawn_next_generation(project, summary)
        self._observe_generation(project, len(follow_ups))
        return follow_ups

    def _evaluate_convergence(self, project: Project, summary: dict) -> None:
        """Score model-vs-truth error at a generation boundary."""
        if self.convergence is None:
            return
        frames_by_traj = [
            t.frames
            for t in self.trajectories.values()
            if t.frames is not None and len(t.frames)
        ]
        record = self.convergence.evaluate(
            frames_by_traj,
            lag_frames=self.config.lag_frames,
            frame_stride=self.config.report_interval,
            generation=self.generation,
            simulated_steps=self.simulated_steps,
        )
        summary["convergence"] = record
        self.convergence_history.append(record)
        if self.obs is None:
            return
        for key, value in record.items():
            if isinstance(value, (int, float)) and np.isfinite(value):
                self.obs.metrics.set_gauge(
                    f"repro_lab_{key}",
                    float(value),
                    help="Lab convergence metric (model vs exact ground truth).",
                    project=project.project_id,
                )

    def _check_stop(self, traj: TrajectoryRecord) -> bool:
        if self.config.stop_rmsd is None or self.native is None:
            return False
        values = rmsd_to_reference(traj.frames, self.native)
        return bool(values.min() < self.config.stop_rmsd)

    # -- clustering / adaptive step --------------------------------------------

    def _pooled_frames(self) -> Tuple[np.ndarray, List[Tuple[str, np.ndarray]]]:
        """All stored frames (subsampled) plus per-trajectory index map."""
        stride = self.config.subsample
        chunks, index = [], []
        offset = 0
        for traj in self.trajectories.values():
            if traj.frames is None or not len(traj.frames):
                continue
            sub = traj.frames[::stride]
            chunks.append(sub)
            index.append((traj.traj_id, np.arange(offset, offset + len(sub))))
            offset += len(sub)
        if not chunks:
            raise ConfigurationError("no frames collected; nothing to cluster")
        return np.concatenate(chunks), index

    def _cluster_and_summarise(self) -> dict:
        cfg = self.config
        pool, index = self._pooled_frames()
        clustering = KCentersClustering(
            n_clusters=min(cfg.n_clusters, len(pool)),
            metric=self.metric,
            seed=self.rng,
        )
        self.cluster_model = clustering.fit(pool)
        labels = self.cluster_model.assignments
        n_states = self.cluster_model.n_clusters

        # per-command discrete trajectories (no cross-command counting)
        dtrajs = [labels[idx] for _, idx in index]
        counts = count_matrix_multi(dtrajs, n_states, cfg.lag_frames)
        try:
            weights = WEIGHTINGS[cfg.weighting](counts, **cfg.weighting_params)
        except EstimationError:
            # nothing countable at this lag yet (every command shorter
            # than lag_frames): spawn evenly over every state and let
            # the next generation's counts decide
            weights = np.ones(n_states)

        summary = {
            "generation": self.generation,
            "n_states": n_states,
            "n_pool_frames": len(pool),
            "counts": counts,
            "weights": weights,
            "populations": self.cluster_model.populations(),
            "dtrajs": dtrajs,
            "pool_index": index,
        }
        if self.native is not None:
            center_rmsd = rmsd_to_reference(self.cluster_model.centers, self.native)
            summary["center_rmsd"] = center_rmsd
            summary["min_center_rmsd"] = float(center_rmsd.min())
        return summary

    def _spawn_next_generation(
        self, project: Project, summary: dict
    ) -> List[Command]:
        cfg = self.config
        allocation = allocate_starts(
            summary["weights"], cfg.n_trajectories, rng=self.rng
        )
        pool, index = self._pooled_frames()
        labels = self.cluster_model.assignments
        commands: List[Command] = []
        # map pool index back to owning trajectory for lineage tracking
        owner = np.empty(len(pool), dtype=object)
        for traj_id, idx in index:
            owner[idx] = traj_id
        for state, n_spawn in enumerate(allocation):
            if n_spawn == 0:
                continue
            members = np.flatnonzero(labels == state)
            picks = self.rng.choice(members, size=n_spawn, replace=True)
            for pick in np.atleast_1d(picks):
                commands.append(
                    self._new_command(
                        project,
                        pool[int(pick)],
                        self.generation,
                        parent=str(owner[int(pick)]),
                        start_cluster=int(state),
                    )
                )
        return commands

    # -- completion / reporting ---------------------------------------------

    def is_complete(self, project: Project) -> bool:
        """Whether the configured generations or stop criterion was reached."""
        return self._complete

    def summary(self, project: Project) -> Dict:
        """Progress report: generation, trajectory count, best RMSD."""
        base = super().summary(project)
        base.update(
            {
                "generation": self.generation,
                "n_trajectories": len(self.trajectories),
                "stopped_on_rmsd": self._stop_hit,
            }
        )
        if self.history and "min_center_rmsd" in self.history[-1]:
            base["min_center_rmsd"] = self.history[-1]["min_center_rmsd"]
        return base

    # -- post-run analysis ------------------------------------------------------

    def min_rmsd_per_generation(self) -> Dict[int, float]:
        """Minimum frame RMSD to native seen in each generation's data."""
        if self.native is None:
            raise ConfigurationError("no native reference for this model")
        out: Dict[int, float] = {}
        for traj in self.trajectories.values():
            if traj.frames is None:
                continue
            value = float(rmsd_to_reference(traj.frames, self.native).min())
            g = traj.generation
            out[g] = min(out.get(g, np.inf), value)
        return out

    def rmsd_traces(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Per-trajectory (times, rmsd-to-native) traces (Fig. 2 data)."""
        if self.native is None:
            raise ConfigurationError("no native reference for this model")
        out = {}
        for traj in self.trajectories.values():
            if traj.frames is None:
                continue
            out[traj.traj_id] = (
                traj.times,
                rmsd_to_reference(traj.frames, self.native),
            )
        return out

    def final_msm(
        self, lag_frames: Optional[int] = None, reversible: bool = False
    ) -> Tuple[MarkovStateModel, ClusterResult]:
        """Build the production MSM from all collected trajectories.

        Returns the fitted model plus the cluster model it lives on.
        The frame time of the MSM is ``report_interval * timestep *
        subsample`` (ps).
        """
        cfg = self.config
        pool, index = self._pooled_frames()
        if self.cluster_model is None:
            self.cluster_model = KCentersClustering(
                n_clusters=min(cfg.n_clusters, len(pool)),
                metric=self.metric,
                seed=self.rng,
            ).fit(pool)
        labels = self.cluster_model.assign(pool, metric=self.metric)
        dtrajs = [labels[idx] for _, idx in index]
        frame_time = cfg.report_interval * cfg.timestep * cfg.subsample
        msm = MarkovStateModel(
            lag=lag_frames or cfg.lag_frames,
            frame_time=frame_time,
            reversible=reversible,
        ).fit(dtrajs, n_states=self.cluster_model.n_clusters)
        return msm, self.cluster_model

    def blind_native_prediction(
        self, msm: MarkovStateModel, n_samples: int = 5
    ) -> dict:
        """The paper's blind test: RMSD of the top-equilibrium cluster.

        The predicted "native" cluster is the most populated state at
        equilibrium; its RMSD to the true native is "estimated as the
        average of five random samples" of its members.
        """
        if self.native is None:
            raise ConfigurationError("no native reference for this model")
        pool, _ = self._pooled_frames()
        labels = self.cluster_model.assign(pool, metric=self.metric)
        state_active = msm.equilibrium_state()
        state = int(msm.active_set[state_active])
        members = np.flatnonzero(labels == state)
        picks = self.rng.choice(
            members, size=min(n_samples, len(members)), replace=False
        )
        values = rmsd_to_reference(pool[np.atleast_1d(picks)], self.native)
        return {
            "predicted_state": state,
            "rmsd_mean": float(values.mean()),
            "rmsd_values": values,
            "equilibrium_population": float(
                msm.stationary_distribution()[state_active]
            ),
        }
