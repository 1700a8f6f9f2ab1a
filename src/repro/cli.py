"""Command-line client, in the spirit of the paper's ``cpc`` tool.

Copernicus users drive projects through a command-line client; this
module is its reproduction-scale analogue:

* ``python -m repro info`` — versions, registered models/executables;
* ``python -m repro demo-msm`` — run an adaptive MSM project on a
  simulated deployment and print its progress reports;
* ``python -m repro demo-fep`` — run the BAR free-energy project to
  its error target;
* ``python -m repro scaling`` — print the Fig. 7/8/9 rows for chosen
  core counts;
* ``python -m repro obs {metrics,trace,timeline}`` — run a canned
  chaos scenario and export its observability artifacts: a Prometheus
  metrics dump, a Perfetto-loadable Chrome trace, or a per-command
  lifecycle timeline report;
* ``python -m repro soak`` — drive 100+ tenants across a sharded
  fabric under seeded faults, check all fourteen invariants, and emit
  a JSON verdict (nonzero exit on any violation); ``--shard-churn``
  kills a shard mid-run and additionally proves the failover
  exactly-once against a crash-free baseline; ``--partition-churn``
  partitions the shard instead and proves the healed zombie is
  epoch-fenced and demoted, not just survived;
* ``python -m repro lab sweep`` — race adaptive-sampling schemes over
  the [scheme x frequency x parallelism] grid on a ground-truth
  Markov-chain toy, emitting the deterministic ``BENCH_adaptive.json``
  payload and the "which scheme wins where" markdown report.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.version import __version__


def _build_parser() -> argparse.ArgumentParser:
    from repro.msm.adaptive import WEIGHTINGS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Copernicus reproduction: parallel adaptive MD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package, model and executable inventory")

    msm = sub.add_parser("demo-msm", help="run an adaptive MSM project")
    msm.add_argument("--model", default="villin-fast")
    msm.add_argument("--starts", type=int, default=2)
    msm.add_argument("--trajs", type=int, default=3)
    msm.add_argument("--steps", type=int, default=2000)
    msm.add_argument("--generations", type=int, default=3)
    msm.add_argument(
        "--weighting",
        choices=sorted(WEIGHTINGS),
        default="uncertainty",
    )
    msm.add_argument("--seed", type=int, default=0)

    fep = sub.add_parser("demo-fep", help="run the BAR free-energy project")
    fep.add_argument("--windows", type=int, default=5)
    fep.add_argument("--samples", type=int, default=500)
    fep.add_argument("--target-error", type=float, default=0.05)
    fep.add_argument("--seed", type=int, default=0)

    scaling = sub.add_parser("scaling", help="performance-model tables")
    scaling.add_argument(
        "--cores", type=int, nargs="+",
        default=[96, 1536, 5376, 20000, 100000],
    )
    scaling.add_argument(
        "--cores-per-sim", type=int, nargs="+", default=[1, 24, 96]
    )

    recovery = sub.add_parser(
        "demo-recovery", help="kill a worker mid-command; watch the handoff"
    )
    recovery.add_argument("--commands", type=int, default=3)
    recovery.add_argument("--steps", type=int, default=4000)

    umbrella = sub.add_parser(
        "demo-umbrella", help="umbrella sampling + WHAM free-energy profile"
    )
    umbrella.add_argument("--windows", type=int, default=11)
    umbrella.add_argument("--samples", type=int, default=2000)

    obs = sub.add_parser(
        "obs", help="run a scenario and export observability artifacts"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    def _obs_common(p):
        p.add_argument(
            "--scenario",
            choices=["swarm", "straggler", "flapping", "sick-peer"],
            default="swarm",
            help="canned chaos scenario to run (default: swarm)",
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--out", default=None,
            help="write the artifact to this file (default: stdout)",
        )

    metrics = obs_sub.add_parser(
        "metrics", help="dump the run's metrics registry"
    )
    _obs_common(metrics)
    metrics.add_argument(
        "--format", choices=["prometheus", "jsonl"], default="prometheus",
        help="Prometheus text exposition or JSON lines",
    )

    trace = obs_sub.add_parser(
        "trace", help="export the run's spans as Chrome trace JSON"
    )
    _obs_common(trace)

    timeline = obs_sub.add_parser(
        "timeline", help="per-command lifecycle timeline report"
    )
    _obs_common(timeline)

    soak = sub.add_parser(
        "soak",
        help="multi-tenant soak: 100+ tenants under faults + invariants",
    )
    soak.add_argument("--tenants", type=int, default=100)
    soak.add_argument("--shards", type=int, default=4)
    soak.add_argument("--workers-per-shard", type=int, default=3)
    soak.add_argument("--steps", type=int, default=300)
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument(
        "--shard-churn", action="store_true",
        help="kill a shard mid-soak: journaled fabric, monitor-driven "
        "failover, exactly-once proven against a crash-free baseline",
    )
    soak.add_argument(
        "--partition-churn", action="store_true",
        help="partition a shard mid-soak instead of killing it: the "
        "fleet fails over, the partition heals, and the zombie owner "
        "is epoch-fenced and demoted (invariant 14)",
    )
    soak.add_argument(
        "--heal-after", type=int, default=1500,
        help="deliveries until the partition heals (--partition-churn)",
    )
    soak.add_argument(
        "--journal-root", default=None,
        help="journal directory for --shard-churn / --partition-churn "
        "(default: a tempdir)",
    )
    soak.add_argument(
        "--out", default=None,
        help="write the JSON report to this file (default: stdout)",
    )

    lab = sub.add_parser(
        "lab",
        help="adaptive-strategy laboratory: race schemes on exact toys",
    )
    lab_sub = lab.add_subparsers(dest="lab_command", required=True)
    sweep = lab_sub.add_parser(
        "sweep",
        help="scheme x adaptive-frequency x parallelism sweep scored "
        "against an exactly known transition matrix",
    )
    sweep.add_argument(
        "--model", default="markov-ala20",
        help="ground-truth chain model (markov-ala20, markov-mb)",
    )
    sweep.add_argument(
        "--schemes", nargs="+", default=None,
        help="adapter schemes to race (default: uniform min-counts "
        "uncertainty)",
    )
    sweep.add_argument(
        "--steps-per-command", type=int, nargs="+", default=None,
        help="adaptive-frequency axis (steps per command)",
    )
    sweep.add_argument(
        "--trajs", type=int, nargs="+", default=None,
        help="parallelism axis (trajectories per generation)",
    )
    sweep.add_argument("--total-steps", type=int, default=None)
    sweep.add_argument("--metric", default=None)
    sweep.add_argument("--threshold", type=float, default=None)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--json-out", default=None,
        help="write the BENCH_adaptive.json payload to this file",
    )
    sweep.add_argument(
        "--out", default=None,
        help="write the markdown report to this file (default: stdout)",
    )
    return parser


def cmd_info(args, out) -> int:
    """``info``: print package, model and executable inventory."""
    from repro.md.engine import MODEL_REGISTRY
    from repro.worker.executable import _GLOBAL_EXECUTABLES

    print(f"repro {__version__} — Copernicus reproduction (SC11)", file=out)
    print(f"models: {', '.join(sorted(MODEL_REGISTRY))}", file=out)
    print(f"executables: {', '.join(sorted(_GLOBAL_EXECUTABLES))}", file=out)
    return 0


def _deployment(seed: int):
    from repro.net import Network
    from repro.server import CopernicusServer
    from repro.worker import SMPPlatform, Worker

    net = Network(seed=seed)
    server = CopernicusServer("project-server", net)
    worker = Worker(
        "w0", net, server="project-server", platform=SMPPlatform(cores=2)
    )
    net.connect("project-server", "w0")
    worker.announce(0.0)
    return net, server, worker


def cmd_demo_msm(args, out) -> int:
    """``demo-msm``: run an adaptive MSM project end to end."""
    from repro.core import (
        AdaptiveMSMController,
        MSMProjectConfig,
        Project,
        ProjectRunner,
    )

    config = MSMProjectConfig(
        model=args.model,
        n_starting_conformations=args.starts,
        trajectories_per_start=args.trajs,
        steps_per_command=args.steps,
        report_interval=50,
        n_clusters=25,
        lag_frames=5,
        n_generations=args.generations,
        weighting=args.weighting,
        seed=args.seed,
    )
    controller = AdaptiveMSMController(config)
    net, server, worker = _deployment(args.seed)
    runner = ProjectRunner(net, server, [worker])
    runner.submit(Project("demo-msm"), controller)
    print("running adaptive MSM project ...", file=out)
    runner.run()
    for status in runner.status():
        print(f"status: {status}", file=out)
    if controller.native is not None:
        per_gen = controller.min_rmsd_per_generation()
        for gen in sorted(per_gen):
            print(
                f"generation {gen}: min RMSD to native {per_gen[gen]:.3f} nm",
                file=out,
            )
    msm, _ = controller.final_msm()
    print(
        f"final MSM: {msm.n_states} states, slowest timescale "
        f"{msm.timescales(1)[0]:.1f} ps",
        file=out,
    )
    return 0


def cmd_demo_fep(args, out) -> int:
    """``demo-fep``: run the BAR project to its error target."""
    from repro.core import (
        BARController,
        FEPProjectConfig,
        Project,
        ProjectRunner,
    )

    config = FEPProjectConfig(
        n_windows=args.windows,
        samples_per_command=args.samples,
        target_error=args.target_error,
        seed=args.seed,
    )
    controller = BARController(config)
    net, server, worker = _deployment(args.seed)
    runner = ProjectRunner(net, server, [worker])
    runner.submit(Project("demo-fep"), controller)
    print("running BAR free-energy project ...", file=out)
    runner.run()
    print(
        f"dF = {controller.estimate:.4f} +/- {controller.error:.4f} "
        f"(analytic {controller.analytic_reference():.4f}, "
        f"{controller.round + 1} round(s))",
        file=out,
    )
    return 0


def cmd_scaling(args, out) -> int:
    """``scaling``: print performance-model rows for chosen cores."""
    from repro.perfmodel import ProjectSpec
    from repro.perfmodel.scheduler_sim import analytic_result

    header = f"{'N cores':>9s} {'k':>4s} {'hours':>8s} {'efficiency':>11s} {'MB/s':>8s}"
    print(header, file=out)
    for k in args.cores_per_sim:
        for n in args.cores:
            if n < k:
                continue
            spec = ProjectSpec(total_cores=n, cores_per_sim=k)
            result = analytic_result(spec)
            print(
                f"{n:>9d} {k:>4d} {result.hours:>8.1f} "
                f"{result.efficiency:>11.2f} "
                f"{result.avg_bandwidth_mbps:>8.3f}",
                file=out,
            )
    return 0


def cmd_demo_recovery(args, out) -> int:
    """``demo-recovery``: crash a worker and show checkpoint handoff."""
    from repro.core import Command, Project, ProjectRunner
    from repro.core.controller import Controller
    from repro.md.engine import MDTask
    from repro.net import Network
    from repro.server import CopernicusServer
    from repro.worker import SMPPlatform, Worker

    class Swarm(Controller):
        def __init__(self, n, steps):
            self.n, self.steps, self.done = n, steps, []

        def on_project_start(self, project):
            return [
                Command(
                    f"cmd{k}", project.project_id, "mdrun",
                    MDTask(
                        model="villin-fast", n_steps=self.steps,
                        report_interval=500, seed=k, task_id=f"cmd{k}",
                    ).to_payload(),
                )
                for k in range(self.n)
            ]

        def on_command_finished(self, project, command, result):
            self.done.append((command.command_id, result["steps_completed"]))
            return []

        def is_complete(self, project):
            return len(self.done) >= self.n

    net = Network(seed=0)
    server = CopernicusServer("srv", net, heartbeat_interval=60.0)
    flaky = Worker("flaky", net, server="srv", platform=SMPPlatform(cores=1),
                   segment_steps=max(args.steps // 4, 1))
    steady = Worker("steady", net, server="srv", platform=SMPPlatform(cores=1),
                    segment_steps=max(args.steps // 4, 1))
    net.connect("srv", "flaky")
    net.connect("srv", "steady")
    flaky.announce(0.0)
    steady.announce(0.0)
    flaky.set_crash_hook(lambda cid, seg: seg == 2)
    controller = Swarm(args.commands, args.steps)
    runner = ProjectRunner(net, server, [flaky, steady], tick=90.0)
    runner.submit(Project("swarm"), controller)
    runner.run()
    for cid, steps in sorted(controller.done):
        note = "  <- resumed from dead worker's checkpoint" if steps < args.steps else ""
        print(f"{cid}: {steps} steps{note}", file=out)
    print(
        f"commands requeued after failures: {server.requeued_after_failure}",
        file=out,
    )
    return 0


def cmd_demo_umbrella(args, out) -> int:
    """``demo-umbrella``: umbrella sampling + WHAM vs analytic."""
    import numpy as np

    from repro.fep.umbrella import metropolis_sample, window_ladder
    from repro.fep.wham import free_energy_difference, wham

    def potential(x):
        return 3.0 * (x * x - 1.0) ** 2 + 0.8 * x

    windows = window_ladder(-1.8, 1.8, args.windows, k=15.0)
    samples = [
        metropolis_sample(potential, w, args.samples, 1.0, rng=100 + i, step=0.25)
        for i, w in enumerate(windows)
    ]
    result = wham(samples, windows, kt=1.0, n_bins=40)
    df = free_energy_difference(result, (-1.8, 0.0), (0.0, 1.8), kt=1.0)
    xs = np.linspace(-2.2, 2.2, 2001)
    p = np.exp(-np.array([potential(x) for x in xs]))
    pa = np.trapezoid(np.where(xs < 0, p, 0), xs)
    pb = np.trapezoid(np.where(xs >= 0, p, 0), xs)
    exact = -np.log(pb / pa)
    print(
        f"WHAM basin dF = {df:+.3f} kT (analytic {exact:+.3f} kT, "
        f"{result.n_iterations} iterations)",
        file=out,
    )
    return 0


def _run_obs_scenario(args):
    """Run the chosen canned chaos scenario deterministically.

    Returns its :class:`~repro.testing.ScenarioResult`: ``.obs`` is the
    deployment's shared :class:`~repro.obs.Observability` hub,
    ``.runner`` feeds the timeline builds.
    """
    from repro.testing import scenarios

    runners = {
        "swarm": scenarios.run_swarm_under_faults,
        "straggler": scenarios.run_swarm_with_straggler,
        "flapping": scenarios.run_swarm_with_flapping_worker,
        "sick-peer": scenarios.run_relay_with_sick_peer,
    }
    return runners[args.scenario](seed=args.seed)


def _emit(text: str, args, out) -> None:
    """Write *text* to ``--out`` when given, else to the CLI stream."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, file=out, end="" if text.endswith("\n") else "\n")


def cmd_obs(args, out) -> int:
    """``obs``: export metrics, traces or timelines from a canned run.

    ``repro obs metrics`` dumps the deployment's shared metrics
    registry, either as Prometheus text exposition (default; feed it to
    ``promtool`` or re-parse it with
    :func:`repro.obs.metrics.parse_prometheus_text`) or as JSON lines.

    ``repro obs trace`` exports every span the run recorded as Chrome
    trace-event JSON — load the file in Perfetto or ``chrome://tracing``
    to see each command's issue → queue → execute → transfer → apply
    arc laid out per component.  The export is validated before it is
    written; malformed traces fail the command with a nonzero exit.

    ``repro obs timeline`` prints the per-command lifecycle report:
    queue / compute / transfer / controller phase breakdown, critical
    path and utilization, reconstructed from the run's event log and
    spans.

    All three share ``--scenario`` (which canned chaos scenario to run)
    and ``--seed``; the same seed reproduces the identical artifact.
    """
    scenario = _run_obs_scenario(args)
    obs = scenario.obs
    if args.obs_command == "metrics":
        if args.format == "prometheus":
            _emit(obs.export_prometheus(), args, out)
        else:
            _emit(obs.export_json_lines(), args, out)
        return 0
    if args.obs_command == "trace":
        import json

        from repro.obs.trace import to_chrome_trace, validate_chrome_trace

        trace = to_chrome_trace(obs.tracer)
        problems = validate_chrome_trace(trace)
        if problems:
            for problem in problems:
                print(f"trace validation: {problem}", file=sys.stderr)
            return 1
        _emit(json.dumps(trace, indent=2) + "\n", args, out)
        return 0
    # timeline
    from repro.obs.timeline import timeline_report_for

    report = timeline_report_for(scenario.runner)
    _emit(report.render_text() + "\n", args, out)
    return 0


def cmd_soak(args, out) -> int:
    """``soak``: run the multi-tenant soak and emit its JSON verdict.

    Drives ``--tenants`` concurrent projects (heterogeneous quotas,
    weights and backpressure caps; colliding command ids) across
    ``--shards`` chaos-wrapped shard servers, checks all fourteen
    invariants, and writes a JSON report: the verdict, every
    violation, the chaos summary and the per-tenant ledger rollup.
    Exit code is nonzero when any invariant failed or any tenant did
    not complete — CI consumes that directly.

    ``--shard-churn`` swaps in the shard-failover scenario: journals
    attached, a shard killed mid-run, the gateway's monitor detecting
    the death, the displaced projects migrated — the report then also
    carries the victim, the migration ledger and the ``exactly_once``
    verdict against a crash-free baseline of the same seed, and a
    failed verdict (or a result set differing from the baseline's)
    exits nonzero.

    ``--partition-churn`` runs the partition-with-heal variant: the
    victim is cut off from the gateway rather than killed, keeps
    serving its island as a split-brain zombie, and is epoch-fenced
    and demoted when the link heals.  The report additionally carries
    the fencing counters, the demotion reports and the zombie's
    locally-applied (fenced) completions; zero demotions or zero
    fencing rejections exits nonzero.
    """
    import json
    import tempfile

    from repro.testing.soak import (
        run_multitenant_soak,
        run_multitenant_with_partitioned_shard,
        run_multitenant_with_shard_crash,
    )

    if args.shard_churn and args.partition_churn:
        print(
            "--shard-churn and --partition-churn are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    fleet = dict(
        n_tenants=args.tenants,
        n_shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        n_steps=args.steps,
        seed=args.seed,
    )
    with tempfile.TemporaryDirectory() as scratch:
        journal_root = args.journal_root or scratch
        if args.partition_churn:
            result = run_multitenant_with_partitioned_shard(
                journal_root, heal_after=args.heal_after, **fleet
            )
        elif args.shard_churn:
            result = run_multitenant_with_shard_crash(journal_root, **fleet)
        else:
            result = run_multitenant_soak(**fleet)
    completed = result.completed_tenants()
    report = {
        "seed": args.seed,
        "tenants": len(result.specs),
        "completed": completed,
        "invariants_ok": not result.violations,
        "violations": result.violations,
        "chaos": result.chaos,
        "per_tenant": result.report,
    }
    ok = not result.violations and completed == len(result.specs)
    if args.shard_churn or args.partition_churn:
        churn = {
            "victim": result.victim,
            "results_before_crash": result.results_before_crash,
            "exactly_once": result.exactly_once,
            "migrations": [
                {
                    "project": m.project_id,
                    "from": m.from_shard,
                    "to": m.to_shard,
                    "replayed": m.replayed,
                    "restored": m.restored,
                    "files_shipped": m.files_shipped,
                    "epoch": m.epoch,
                }
                for m in result.migrations
            ],
            "timeline": result.migration_timeline(),
        }
        ok = ok and result.exactly_once and bool(result.migrations)
        if args.partition_churn:
            churn.update(
                partition_index=result.partition_index,
                heal_index=result.heal_index,
                fencing=result.fencing,
                demotions=result.demotions,
                zombie_completions=[
                    list(entry) for entry in result.zombie_completions
                ],
            )
            report["partition_churn"] = churn
            ok = (
                ok
                and bool(result.demotions)
                and result.fencing["rejections_total"] > 0
            )
        else:
            report["shard_churn"] = churn
    _emit(json.dumps(report, indent=2, default=str) + "\n", args, out)
    if not ok:
        print(
            f"soak FAILED: {len(result.violations)} violations, "
            f"{completed}/{len(result.specs)} tenants complete",
            file=sys.stderr,
        )
    return 0 if ok else 1


def cmd_lab(args, out) -> int:
    """``lab sweep``: run the adaptive-strategy sweep and report it.

    Every cell races one adapter scheme through the full deployment
    stack on a ground-truth Markov-chain model; the run is wall-clock
    free, so the ``--json-out`` payload is bit-identical across reruns
    at the same seed.
    """
    from repro.lab.sweep import SweepConfig, render_report, run_sweep

    overrides = {
        "model": args.model,
        "seed": args.seed,
    }
    if args.schemes is not None:
        overrides["schemes"] = tuple(args.schemes)
    if args.steps_per_command is not None:
        overrides["steps_per_command"] = tuple(args.steps_per_command)
    if args.trajs is not None:
        overrides["n_trajectories"] = tuple(args.trajs)
    if args.total_steps is not None:
        overrides["total_steps"] = args.total_steps
    if args.metric is not None:
        overrides["metric"] = args.metric
    if args.threshold is not None:
        overrides["threshold"] = args.threshold
    config = SweepConfig(**overrides)
    result = run_sweep(config, log=lambda line: print(line, file=out))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json() + "\n")
        print(f"wrote {args.json_out}", file=out)
    report = render_report(result)
    _emit(report, args, out)
    return 0


_COMMANDS = {
    "info": cmd_info,
    "demo-msm": cmd_demo_msm,
    "demo-fep": cmd_demo_fep,
    "scaling": cmd_scaling,
    "demo-recovery": cmd_demo_recovery,
    "demo-umbrella": cmd_demo_umbrella,
    "obs": cmd_obs,
    "soak": cmd_soak,
    "lab": cmd_lab,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
