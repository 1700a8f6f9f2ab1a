"""Replica shards: a wide batched segment runs on every host CPU.

A coalesced ``mdrun_batch`` segment of R replicas whose stack is wide
enough is cut along the replica axis into contiguous shards, slices of
its ``"tasks"`` list.  The first shard runs in this process, the others
on one persistent fork pool, and the per-replica results are joined
back in replica order.  A replica's bits never depend on the shape of
its stack (each replica owns its RNG stream and every kernel is
row-independent), so the joined result is the unsplit one.

This is host execution, like a BLAS thread pool.  The shard count comes
from the CPUs this process may run on, not from the cores a worker
announces, and nothing simulated (matching, leases, the virtual clock,
transcripts) can see it.  Every shard pays the per-step fixed cost of
the integrator and kernel dispatch once, so a narrow stack stays whole:
see the crossover table in DESIGN.md, "Replica shards".
"""

from __future__ import annotations

import atexit
import os
from typing import TYPE_CHECKING, Optional, Tuple

from repro.md.engine import MODEL_REGISTRY, MDEngine, MDTask
from repro.util.errors import ReproError
from repro.worker.platform import usable_cpus

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

#: Fewest replicas worth a shard of their own (the measured crossover).
MIN_SHARD_REPLICAS = 16


class ShardProcessDied(ReproError):
    """A pool process died while it ran a shard of a batch."""


def shard_count(n_replicas: int) -> int:
    """Shards a stack of *n_replicas* runs as on this host (1: whole)."""
    return max(1, min(usable_cpus(), n_replicas // MIN_SHARD_REPLICAS))


def run_unsplit(
    payload: dict, abort_after_steps: Optional[int] = None
) -> Tuple[dict, bool]:
    """One kernel call over the whole stack, in this process."""
    tasks = [MDTask.from_payload(task) for task in payload["tasks"]]
    results = MDEngine().run_batched(tasks, abort_after_steps)
    done = all(result.completed for result in results)
    return {"results": [result.to_payload() for result in results]}, done


def run_batch(
    payload: dict, abort_after_steps: Optional[int] = None
) -> Tuple[dict, bool]:
    """The ``mdrun_batch`` executable: R coalesced commands, one segment.

    The stack runs as shards when it is wide enough.  Per-replica
    outputs (frames, checkpoints, step counts) are bit-identical to
    running each member through ``mdrun`` (see
    :mod:`repro.worker.coalesce`) however the stack is split.
    """
    n_shards = shard_count(len(payload["tasks"]))
    if n_shards < 2:
        return run_unsplit(payload, abort_after_steps)
    return run_sharded(payload, abort_after_steps, n_shards)


def run_sharded(
    payload: dict, abort_after_steps: Optional[int], n_shards: int
) -> Tuple[dict, bool]:
    """Run a batched segment as *n_shards* contiguous replica shards.

    Raises
    ------
    ShardProcessDied
        If a pool process died; the next split gets a fresh pool.
    """
    # the pool machinery loads at the first split, so a run that never
    # splits never pays its import time or memory
    from concurrent.futures import wait
    from concurrent.futures.process import BrokenProcessPool

    tasks = payload["tasks"]
    cuts = [len(tasks) * k // n_shards for k in range(n_shards + 1)]
    pieces = [{"tasks": tasks[a:b]} for a, b in zip(cuts, cuts[1:])]
    pool = _POOL.executor()
    futures = [pool.submit(run_unsplit, p, abort_after_steps) for p in pieces[1:]]
    try:
        parts = [run_unsplit(pieces[0], abort_after_steps)]
        parts += [future.result() for future in futures]
    except BrokenProcessPool as exc:
        _POOL.discard()
        raise ShardProcessDied(
            f"a shard process of the batch of {tasks[0].get('task_id')!r} died"
        ) from exc
    finally:
        # an in-process failure must not leave shards queued on the pool
        for future in futures:
            future.cancel()
        wait(futures)
    results = [result for part, _ in parts for result in part["results"]]
    completed = all(done for _, done in parts)
    return {"results": results}, completed


class _ForkPool:
    """The process-wide shard pool, forked lazily at the first split.

    Fork, not spawn: the pool's processes inherit the parent's imports
    and its model registry, whose builders may be closures that cannot
    be pickled.  The pool forks from the submitting thread before its
    own manager thread starts, and ``repro`` starts no other thread.
    A forked process never reuses its parent's pool, and a model
    registered after the fork (which the pool's processes would not
    know) gets a fresh pool.
    """

    def __init__(self) -> None:
        self._executor: Optional[ProcessPoolExecutor] = None
        self._pid = 0
        self._models: dict = {}

    def executor(self) -> ProcessPoolExecutor:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        if self._pid != os.getpid() or self._models != MODEL_REGISTRY:
            self.discard()  # inherited by fork, or blind to a new model
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=max(1, usable_cpus() - 1),
                mp_context=get_context("fork"),
            )
            self._pid = os.getpid()
            self._models = dict(MODEL_REGISTRY)
        return self._executor

    def discard(self) -> None:
        """Shut the pool down; the next split forks a fresh one."""
        if self._executor is not None and self._pid == os.getpid():
            self._executor.shutdown(wait=True, cancel_futures=True)
        self._executor = None


_POOL = _ForkPool()
# shut down while the interpreter is whole, not from a finaliser
# during module teardown
atexit.register(_POOL.discard)
