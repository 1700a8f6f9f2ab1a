"""Batched ensemble kernel vs the serial engine (BENCH_kernel.json).

Measures steps/second propagating R villin-fast replicas at
R ∈ {1, 2, 3, 4, 8, 64} two ways — R serial :meth:`MDEngine.run`
calls, and one :meth:`MDEngine.run_batched` call (the batched kernel)
— verifying per-replica bit-identity along the way.  A second sweep
runs the small models (double-well, Müller–Brown, the ``markov-ala20``
chain; 3 000 steps, so the step loop and not the model build is what
is timed) at R ∈ {1, 3, 9} — the stacks a tenant's handful of replicas
makes.

Timing hygiene: thread counts are pinned to 1 (before numpy loads),
one warm-up run precedes measurement, and each cell is timed over k
rounds (5 at R=1 and R=8, 1 at R=64 — the count scales down as the cell
itself gets longer and less noisy), every round running the serial side
and then the batched side.  The steps/s columns are each side's best
round.  ``speedup`` is the *median over rounds of that round's
serial/batched time*: the two halves of a round run back to back,
inside one of the host's speed regimes (they last seconds to minutes
here), so their ratio holds still where the ratio of two independent
minima does not — at R=8 on one busy host, ten readings of the paired
median span 5.9-6.9 (the same ten runs' ratio of minima 6.1-7.7), and
twelve readings of the ratio of minima before it 5.7-8.9.

Run as a script (CI's ``bench`` job)::

    PYTHONPATH=src python benchmarks/bench_batched_engine.py

Writes ``BENCH_kernel.json`` (the sweep rows and the kernel-pass
floors).  Exits nonzero when a floor is breached:

- R=1 speedup >= 1.0: a stack of one through the batched kernel is no
  slower than the serial kernel (1.05-1.24x in 21 of 22 readings taken
  when the forces-only kernels landed), which is why every stack, one
  replica included, runs batched,
- R=8 speedup >= 6.0 (the small-stack regime the adaptive loop runs in:
  4.5-4.9x before the forces-only / multi-level-gather kernels, 5.9-6.9x
  after, median 6.1x; with the tolerance the check trips below 5.5,
  under every reading taken after and over every one taken before),
- R=64 speedup >= 11.3 (the lowest of five readings, 12.3-13.5x, taken
  when the replica-minor kernels landed, less the noise tolerance),
- R=3 speedup of both toy surfaces >= 1.5 (``toy_r3_speedup`` is the
  lower of double-well and Müller–Brown; 2.4-2.9x when their kernels
  landed),
- R=3 speedup of the chain >= 1.0 (``chain_r3_speedup``; 1.15-1.2x).  A
  serial chain step is a draw, a bisection and a coordinate write —
  1.6 us — so all a stack can amortise is the driver's per-step
  bookkeeping: it pays from R=3 (2x at R=9) and a stack of one is half
  the serial speed, which nothing in-tree runs.

``serial_steps_per_sec`` is reported, not gated: it is absolute, and on
this host's slow regime it read 2.5-3.0k against a floor of 3.5k with
no code change (eleven runs, CHANGES.md PR 20); every floor above is
its ratio form.

Floor checks allow ``NOISE_TOLERANCE`` (relative) slack: back-to-back
runs of the identical binary jitter by a few percent on shared
hardware, and the floors are regression tripwires, not records.
"""

from __future__ import annotations

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.md.engine import BatchedMDTask, MDEngine, MDTask

MODEL = "villin-fast"
REPLICA_COUNTS = (1, 2, 3, 4, 8, 64)
N_STEPS = 300
#: model -> integrator of the small-model sweep.
SMALL_MODELS = {
    "double-well": "langevin",
    "muller-brown": "langevin",
    "markov-ala20": "markov-chain",
}
SMALL_MODEL_COUNTS = (1, 3, 9)
SMALL_MODEL_STEPS = 3000
REPORT_INTERVAL = 100
#: Relative slack applied to every floor check (run-to-run jitter).
NOISE_TOLERANCE = 0.08
#: BENCH_kernel.json floors (see module docstring).
FLOORS = {
    "r1_speedup": 1.0,
    "r8_speedup": 6.0,
    "r64_speedup": 11.3,
    "toy_r3_speedup": 1.5,
    "chain_r3_speedup": 1.0,
}
_ROOT = Path(__file__).resolve().parent.parent
KERNEL_RESULT_PATH = _ROOT / "BENCH_kernel.json"

#: Best-of-k repeat count per replica count (larger cells are longer
#: and proportionally less noisy, so they get fewer repeats; R=8 has a
#: floor of its own and gets as many as R=1).
_REPEATS = {1: 5, 2: 4, 3: 4, 4: 3, 8: 5, 9: 3}
_cached_document = None


def _tasks(n_replicas: int, model: str = MODEL, n_steps: int = N_STEPS) -> list:
    return [
        MDTask(
            model=model,
            n_steps=n_steps,
            report_interval=REPORT_INTERVAL,
            integrator=SMALL_MODELS.get(model, "langevin"),
            seed=100 + r,
            task_id=f"bench/r{r}",
        )
        for r in range(n_replicas)
    ]


def _time_alternating(fns, repeats: int):
    """Wall times of *fns* over *repeats* rounds.

    Every round calls each function once, in turn; returns one
    ``(seconds of every round, last result)`` per function.
    """
    seconds = [[] for _ in fns]
    results = [None] * len(fns)
    for _ in range(repeats):
        for slot, fn in enumerate(fns):
            start = time.perf_counter()
            results[slot] = fn()
            seconds[slot].append(time.perf_counter() - start)
    return list(zip(seconds, results))


def measure(n_replicas: int, model: str = MODEL, n_steps: int = N_STEPS) -> dict:
    """Serial vs batched steps/sec for one replica count."""
    engine = MDEngine()
    total_steps = n_replicas * n_steps
    repeats = _REPEATS.get(n_replicas, 1)

    btask = BatchedMDTask.from_tasks(
        _tasks(n_replicas, model, n_steps), batch_id="bench"
    )
    (serial_rounds, serial), (batched_rounds, batched) = _time_alternating(
        [
            lambda: [
                engine.run(task)
                for task in _tasks(n_replicas, model=model, n_steps=n_steps)
            ],
            lambda: engine.run_batched(btask),
        ],
        repeats,
    )
    serial_seconds, batched_seconds = min(serial_rounds), min(batched_rounds)

    for serial_result, batched_result in zip(serial, batched.results):
        if not np.array_equal(serial_result.frames, batched_result.frames):
            raise AssertionError(
                f"batched frames diverge from serial for "
                f"{serial_result.task_id} at R={n_replicas}"
            )

    serial_rate = total_steps / serial_seconds
    batched_rate = total_steps / batched_seconds
    return {
        "n_replicas": n_replicas,
        "n_steps": n_steps,
        "serial_seconds": serial_seconds,
        "batched_seconds": batched_seconds,
        "serial_steps_per_sec": serial_rate,
        "batched_steps_per_sec": batched_rate,
        "speedup": statistics.median(
            s / b for s, b in zip(serial_rounds, batched_rounds)
        ),
    }


def run_benchmark() -> dict:
    """Full sweep; returns the combined benchmark document (cached)."""
    global _cached_document
    if _cached_document is not None:
        return _cached_document

    # Warm-up: first touch pays numpy/model-registry setup costs.
    MDEngine().run(_tasks(1)[0])

    rows = [measure(n) for n in REPLICA_COUNTS]
    small_models = {
        model: [measure(n, model, SMALL_MODEL_STEPS) for n in SMALL_MODEL_COUNTS]
        for model in SMALL_MODELS
    }
    _cached_document = {
        "benchmark": "batched_engine",
        "model": MODEL,
        "n_steps": N_STEPS,
        "report_interval": REPORT_INTERVAL,
        "results": rows,
        "small_models": small_models,
    }
    return _cached_document


def kernel_document(document: dict) -> dict:
    """The BENCH_kernel.json view: floors plus the rows they gate."""
    by_r = {row["n_replicas"]: row for row in document["results"]}
    best_serial = max(
        row["serial_steps_per_sec"] for row in document["results"]
    )
    r3 = {
        model: row["speedup"]
        for model, rows in document["small_models"].items()
        for row in rows
        if row["n_replicas"] == 3
    }
    return {
        "benchmark": "kernel_pass",
        "model": MODEL,
        "n_steps": N_STEPS,
        "floors": dict(FLOORS),
        "noise_tolerance": NOISE_TOLERANCE,
        "r1_speedup": by_r[1]["speedup"],
        "r8_speedup": by_r[8]["speedup"],
        "r64_speedup": by_r[64]["speedup"],
        "toy_r3_speedup": min(
            r3[model] for model in r3 if not model.startswith("markov")
        ),
        "chain_r3_speedup": r3["markov-ala20"],
        "serial_steps_per_sec": best_serial,
        "small_models": document["small_models"],
        "results": document["results"],
    }


def check_floors(kernel: dict) -> list:
    """Floor breaches (empty = pass), each a printable message."""
    slack = 1.0 - NOISE_TOLERANCE
    breaches = []
    for key in kernel["floors"]:
        if kernel[key] < kernel["floors"][key] * slack:
            breaches.append(
                f"{key} {kernel[key]:.3f} < floor "
                f"{kernel['floors'][key]:.3f} (noise tolerance "
                f"{NOISE_TOLERANCE:.0%})"
            )
    return breaches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--kernel-out",
        type=Path,
        default=KERNEL_RESULT_PATH,
        help="BENCH_kernel.json output path",
    )
    args = parser.parse_args(argv)

    document = run_benchmark()
    kernel = kernel_document(document)
    args.kernel_out.write_text(json.dumps(kernel, indent=2) + "\n")
    for row in document["results"]:
        print(
            f"R={row['n_replicas']:>3}  "
            f"serial {row['serial_steps_per_sec']:>9.0f} steps/s  "
            f"batched {row['batched_steps_per_sec']:>9.0f} steps/s  "
            f"speedup {row['speedup']:.2f}x"
        )
    for model, rows in document["small_models"].items():
        print(
            f"{model}: "
            + "  ".join(f"R={r['n_replicas']} {r['speedup']:.2f}x" for r in rows)
        )
    print(f"wrote {args.kernel_out}")

    breaches = check_floors(kernel)
    for breach in breaches:
        print(f"FAIL: {breach}", file=sys.stderr)
    return 1 if breaches else 0


def test_kernel_floors(tmp_path):
    """The kernel-pass floors (R=1 >= 1.0x, R=8 >= 6.0x, R=64 >= 11.3x;
    at R=3 the toys >= 1.5x and the chain >= 1.0x)."""
    kernel = kernel_document(run_benchmark())
    (tmp_path / "BENCH_kernel.json").write_text(json.dumps(kernel))
    assert check_floors(kernel) == []


if __name__ == "__main__":
    sys.exit(main())
