"""Checkpoint handoff: kill a worker mid-command, watch recovery.

Reproduces the paper's fault-tolerance path (section 2.3): workers
heartbeat the latest checkpoint of every running command; when a worker
goes silent for twice the heartbeat interval, its server declares it
dead and requeues the commands — *with* the checkpoint — so another
worker transparently continues from where the dead one stopped.

The run goes through ``repro.testing``: a seeded :class:`FaultPlan`
crashes one worker mid-command *and* briefly partitions the other
worker's uplink, and the :class:`Invariants` checker replays the event
log afterwards to prove no command was lost, none completed twice and
every checkpoint moved forward.  Re-running with the same seed
reproduces the identical event transcript.

Run:  python examples/failure_recovery.py
"""

from repro.testing import Invariants, run_swarm_under_faults

N_STEPS = 5000


def build_and_run(seed: int = 0):
    """Run the chaos scenario; returns its ``ScenarioResult`` (see
    :func:`repro.testing.scenarios.run_swarm_under_faults`)."""

    def configure(plan):
        # the first worker dies after two 1,000-step segments of
        # whatever command it picks up first...
        plan.crash_worker("w0", at_segment=2)
        # ...and the second worker's uplink drops for a while, so its
        # heartbeats and result submissions must survive retries
        plan.partition("srv", "w1", after_index=8, until_index=14)

    return run_swarm_under_faults(
        configure=configure, n_commands=3, n_steps=N_STEPS, seed=seed
    )


def main() -> None:
    scenario = build_and_run(seed=0)
    controller = scenario.controller
    server = scenario.server
    flaky = scenario.workers[0]

    print("commands completed (steps executed by the finishing worker):")
    for cid, steps in sorted(controller.finished):
        note = " <- resumed from a dead worker's checkpoint" if steps < N_STEPS else ""
        print(f"  {cid}: {steps} steps{note}")
    print(f"\nworkers declared dead and requeued commands: "
          f"{server.requeued_after_failure}")
    print(f"flaky crashed: {flaky.crashed}; history: "
          f"{[(r.command_id, r.segments, r.completed) for r in flaky.history]}")
    print(f"chaos: {scenario.chaos}")

    Invariants(scenario.runner).assert_ok()
    print("recovery invariants: all green")


if __name__ == "__main__":
    main()
