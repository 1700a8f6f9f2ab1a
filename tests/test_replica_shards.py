"""Replica shards: a split batched segment is the unsplit one, bit for bit.

The tier-1 suite never runs a stack wide enough to split on its own, so
these tests call the shard runner with an explicit shard count, and
pin the shard rule, the pool's lifecycle and its failure paths.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.api import Ensemble, run
from repro.md.engine import (
    MODEL_REGISTRY,
    MDTask,
    register_model,
    resolve_model,
)
from repro.util.serialization import encode_message
from repro.worker import shards
from repro.worker.platform import usable_cpus


def stack(model, n_replicas, n_steps=90, model_params=None, **kw):
    """The payload of a stack of *n_replicas* seeds of *model*."""
    tasks = [
        MDTask(
            model=model,
            n_steps=n_steps,
            report_interval=20,
            seed=40 + r,
            task_id=f"t{r}",
            model_params=dict(model_params or {}),
            **kw,
        )
        for r in range(n_replicas)
    ]
    return {"tasks": [task.to_payload() for task in tasks]}


def assert_same_bits(unsplit, sharded):
    (expect, expect_done), (got, got_done) = unsplit, sharded
    assert got_done == expect_done
    assert len(got["results"]) == len(expect["results"])
    for e, g in zip(expect["results"], got["results"]):
        assert g["task_id"] == e["task_id"]
        np.testing.assert_array_equal(g["frames"], e["frames"])
        np.testing.assert_array_equal(g["times"], e["times"])
        assert encode_message(g["checkpoint"]) == encode_message(e["checkpoint"])
        assert g["final_potential_energy"] == e["final_potential_energy"]
        assert g["steps_completed"] == e["steps_completed"]
        assert g["completed"] == e["completed"]


def assert_only_live_pool():
    """No shard process outlives its pool."""
    assert len(multiprocessing.active_children()) <= max(1, usable_cpus() - 1)


MODELS = [
    pytest.param("villin-fast", {}, id="villin-fast"),
    pytest.param("muller-brown", {}, id="muller-brown"),
    pytest.param("double-well", {}, id="double-well"),
    pytest.param("markov-ala20", {}, id="markov-ala20"),
    pytest.param("lj-fluid", {"n_particles": 27}, id="lj-fluid"),
]


@pytest.mark.parametrize("n_shards", [2, 3, 5])
@pytest.mark.parametrize("model, params", MODELS)
def test_sharded_segment_is_bit_identical(model, params, n_shards):
    payload = stack(model, 7, model_params=params)  # 7 splits unevenly
    assert_same_bits(
        shards.run_unsplit(payload),
        shards.run_sharded(payload, None, n_shards),
    )


@pytest.mark.parametrize("n_shards", [2, 3])
def test_sharded_segment_keeps_explicit_initial_positions(n_shards):
    built = resolve_model("villin-fast", {})
    moved = [
        built.state_builder(MDTask(model="villin-fast", n_steps=1, seed=900 + r)).positions
        for r in range(6)
    ]
    payload = stack("villin-fast", 6)
    # some replicas start from given coordinates, the rest from their seeds
    for r in range(1, 6, 2):
        payload["tasks"][r]["initial_positions"] = moved[r]
    assert_same_bits(
        shards.run_unsplit(payload),
        shards.run_sharded(payload, None, n_shards),
    )


@pytest.mark.parametrize("model, params", MODELS[:4])
def test_sharded_resume_with_replicas_already_at_target(model, params):
    payload = stack(model, 6, model_params=params)
    finished, _ = shards.run_unsplit(payload)
    partial, _ = shards.run_unsplit(payload, abort_after_steps=35)
    # replicas 0 and 1 (a whole shard of three) are done and deactivated
    for r, task in enumerate(payload["tasks"]):
        task["checkpoint"] = (finished if r < 2 else partial)["results"][r][
            "checkpoint"
        ]
    unsplit = shards.run_unsplit(payload)
    assert [r["steps_completed"] for r in unsplit[0]["results"][:2]] == [0, 0]
    assert_same_bits(unsplit, shards.run_sharded(payload, None, 3))


@pytest.mark.parametrize("model, params", MODELS)
def test_sharded_segment_aborts_like_unsplit(model, params):
    payload = stack(model, 7, model_params=params)
    unsplit = shards.run_unsplit(payload, abort_after_steps=30)
    assert unsplit[1] is False
    assert_same_bits(unsplit, shards.run_sharded(payload, 30, 3))


def test_ensemble_results_do_not_depend_on_host_cpus(monkeypatch):
    ensemble = Ensemble("villin-fast", n_replicas=32, steps=150, report_interval=50)
    calls = []
    real = shards.run_sharded

    def counted(payload, abort_after_steps, n_shards):
        calls.append(n_shards)
        return real(payload, abort_after_steps, n_shards)

    monkeypatch.setattr(shards, "run_sharded", counted)
    outcomes = {}
    for cpus in (1, 2):
        monkeypatch.setattr(shards, "usable_cpus", lambda: cpus)
        outcomes[cpus] = run([ensemble]).md_results()
    assert calls and set(calls) == {2}  # only the two-CPU run split
    assert sorted(outcomes[1]) == sorted(outcomes[2])
    for key, one in outcomes[1].items():
        two = outcomes[2][key]
        np.testing.assert_array_equal(one.frames, two.frames)
        np.testing.assert_array_equal(one.times, two.times)
        assert encode_message(one.checkpoint) == encode_message(two.checkpoint)
        assert one.final_potential_energy == two.final_potential_energy
        assert one.steps_completed == two.steps_completed


# ----------------------------------------------------------- the shard rule


@pytest.mark.parametrize("cpus", [1, 2, 4, 64, 1024])
def test_narrow_stacks_never_split(monkeypatch, cpus):
    """adaptive_msm stacks R=6 and serial_swarm R <= 3: always whole."""
    monkeypatch.setattr(shards, "usable_cpus", lambda: cpus)
    assert [shards.shard_count(r) for r in range(1, 7)] == [1] * 6


def test_wide_stacks_split_up_to_the_host_cpus(monkeypatch):
    monkeypatch.setattr(shards, "usable_cpus", lambda: 2)
    assert shards.shard_count(64) == 2
    assert shards.shard_count(2 * shards.MIN_SHARD_REPLICAS - 1) == 1
    monkeypatch.setattr(shards, "usable_cpus", lambda: 8)
    assert shards.shard_count(64) == min(8, 64 // shards.MIN_SHARD_REPLICAS)
    monkeypatch.setattr(shards, "usable_cpus", lambda: 1)
    assert shards.shard_count(1024) == 1


def test_adaptive_and_swarm_shapes_run_whole(monkeypatch):
    def refuse(*args):
        raise AssertionError("a narrow stack was split")

    monkeypatch.setattr(shards, "usable_cpus", lambda: 64)
    monkeypatch.setattr(shards, "run_sharded", refuse)
    for ensemble in (
        Ensemble("villin-fast", n_replicas=6, steps=60, report_interval=20),
        Ensemble("muller-brown", n_replicas=3, steps=60, report_interval=20),
    ):
        assert run([ensemble], cores=2).status == "complete"


# ------------------------------------------------------- pool failure paths


class ShardBoom(Exception):
    """Raised by a model builder inside a pool process only."""


def boom():
    raise ShardBoom("in shard")


def muller_brown_except_in_a_pool_process(action):
    """A model builder that calls *action* first when run by the pool."""
    parent = os.getpid()

    def builder(model, params):
        if os.getpid() != parent:
            action()
        return resolve_model("muller-brown", params)

    return builder


@pytest.fixture
def scratch_model():
    """``register(name, builder)`` for one test; unregistered afterwards."""
    names = []

    def register(name, builder):
        names.append(name)
        register_model(name, builder)

    yield register
    for name in names:
        MODEL_REGISTRY.pop(name)


def test_model_registered_after_the_fork_runs_sharded(scratch_model):
    shards.run_sharded(stack("double-well", 4), None, 2)  # the pool exists
    scratch_model("late-model", lambda model, params: resolve_model("muller-brown", params))
    payload = stack("late-model", 6)
    assert_same_bits(shards.run_unsplit(payload), shards.run_sharded(payload, None, 2))
    assert_only_live_pool()


def test_shard_exception_keeps_its_type(scratch_model):
    scratch_model("boom-model", muller_brown_except_in_a_pool_process(boom))
    with pytest.raises(ShardBoom, match="in shard"):
        shards.run_sharded(stack("boom-model", 4), None, 2)
    assert_only_live_pool()
    payload = stack("double-well", 4)
    assert_same_bits(shards.run_unsplit(payload), shards.run_sharded(payload, None, 2))


def test_dead_shard_process_raises_typed_error_then_recovers(scratch_model):
    scratch_model("exit-model", muller_brown_except_in_a_pool_process(lambda: os._exit(3)))
    with pytest.raises(shards.ShardProcessDied, match="'t0'"):
        shards.run_sharded(stack("exit-model", 4), None, 2)
    assert multiprocessing.active_children() == []
    payload = stack("villin-fast", 4)
    assert_same_bits(shards.run_unsplit(payload), shards.run_sharded(payload, None, 2))
    assert_only_live_pool()
