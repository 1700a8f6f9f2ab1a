"""Stacked kernel vs lone commands (BENCH_kernel.json).

Measures steps/second propagating R villin-fast replicas at
R ∈ {1, 2, 3, 4, 8, 64} two ways — R lone :meth:`MDEngine.run` calls
(each a stack of one) and one :meth:`MDEngine.run_batched` call over a
stack of R — verifying per-replica bit-identity along the way.  A
second sweep runs the small models (double-well, Müller–Brown, the
``markov-ala20`` chain; 3 000 steps, so the step loop and not the model
build is what is timed) at R ∈ {1, 3, 9} — the stacks a tenant's
handful of replicas makes.

Timing hygiene: thread counts are pinned to 1 (before numpy loads),
one warm-up run precedes measurement, and each cell is timed over k
rounds (5 at R=1 and R=8, 1 at R=64 — the count scales down as the cell
itself gets longer and less noisy), every round running the lone side
and then the stacked side.  The steps/s columns are each side's best
round.  ``speedup`` is the *median over rounds of that round's
lone/stacked time*: the two halves of a round run back to back, inside
one of the host's speed regimes (they last seconds to minutes here),
so their ratio holds still where the ratio of two independent minima
does not.

Run as a script (CI's ``bench`` job)::

    PYTHONPATH=src python benchmarks/bench_batched_engine.py

Writes ``BENCH_kernel.json`` (the sweep rows, the kernel-pass floors
and the stacked rates beside the parent commit's).  Exits nonzero when
a floor is breached.  The ratio floors are over lone stacks of one.
Each was restated from a floor over
the since-deleted per-replica engine: the old floor divided by the
model's last measured speedup of a stack of one over that engine, so
that it is no looser (CHANGES.md shows the arithmetic):

- R=8 speedup >= 4.91 (the small-stack regime the adaptive loop runs
  in; 6.0 over the per-replica engine, / 1.22),
- R=64 speedup >= 9.25 (11.3 / 1.22),
- R=3 speedup of both toy surfaces >= 1.78 (``toy_r3_speedup`` is the
  lower of double-well and Müller–Brown; 1.5 / 0.845 for the
  double-well, whose lone stack was the slower one),
- R=3 speedup of the chain >= 0.56 (``chain_r3_speedup``; 1.0 / 0.504
  = 1.99, then / 3.60 when the lone chain step got 3.6x faster).
  A chain step is a draw, a lookup and a write of the rows that
  jumped, so all a stack can amortise is the driver's per-step
  bookkeeping, and a lone chain now pays little of that either.

A ratio floor falls by construction when the lone side's fixed cost
shrinks, so each is backed by an absolute one: stacked villin-fast
steps/s at R = 1, 8 and 64 no lower than the parent commit's
(``parent_rates``: ``HEAD^`` checked out with ``git worktree`` and
measured in the same run, the two sides alternating in fresh
processes; CI fetches two commits for it).

``lone_steps_per_sec`` (the best lone rate of the villin sweep) is
reported, not gated: it is absolute, and this host's speed regimes move
it by a third with no code change.

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
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.md.engine import MDEngine, MDTask

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
    "r8_speedup": 4.91,
    "r64_speedup": 9.25,
    "toy_r3_speedup": 1.78,
    "chain_r3_speedup": 0.56,
}
#: Stacked villin-fast replica counts held to the parent commit's rate.
ABSOLUTE_COUNTS = (1, 8, 64)
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
    """Lone vs stacked steps/sec for one replica count."""
    engine = MDEngine()
    total_steps = n_replicas * n_steps
    repeats = _REPEATS.get(n_replicas, 1)

    stack = _tasks(n_replicas, model, n_steps)
    (lone_rounds, lone), (batched_rounds, batched) = _time_alternating(
        [
            lambda: [
                engine.run(task)
                for task in _tasks(n_replicas, model=model, n_steps=n_steps)
            ],
            lambda: engine.run_batched(stack),
        ],
        repeats,
    )
    lone_seconds, batched_seconds = min(lone_rounds), min(batched_rounds)

    for lone_result, batched_result in zip(lone, batched):
        if not np.array_equal(lone_result.frames, batched_result.frames):
            raise AssertionError(
                f"stacked frames diverge from lone for "
                f"{lone_result.task_id} at R={n_replicas}"
            )

    return {
        "n_replicas": n_replicas,
        "n_steps": n_steps,
        "lone_seconds": lone_seconds,
        "batched_seconds": batched_seconds,
        "lone_steps_per_sec": total_steps / lone_seconds,
        "batched_steps_per_sec": total_steps / batched_seconds,
        "speedup": statistics.median(
            s / b for s, b in zip(lone_rounds, batched_rounds)
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
    best_lone = max(row["lone_steps_per_sec"] for row in document["results"])
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
        "r8_speedup": by_r[8]["speedup"],
        "r64_speedup": by_r[64]["speedup"],
        "toy_r3_speedup": min(
            r3[model] for model in r3 if not model.startswith("markov")
        ),
        "chain_r3_speedup": r3["markov-ala20"],
        "lone_steps_per_sec": best_lone,
        "small_models": document["small_models"],
        "results": document["results"],
    }


#: Best stacked villin-fast steps/s at each count, printed as JSON by a
#: fresh interpreter importing whichever tree PYTHONPATH names.  A tree
#: whose engine still takes a ``BatchedMDTask`` gets its stack built by
#: ``from_tasks``; a newer one takes the list of tasks itself.
_RATE_PROBE = """
import json, sys, time
from repro.md import engine as md_engine
from repro.md.engine import MDEngine, MDTask

stacked = getattr(md_engine, "BatchedMDTask", None)

def seconds(engine, btask):
    start = time.perf_counter()
    engine.run_batched(btask)
    return time.perf_counter() - start

engine, rates = MDEngine(), {}
for n in json.loads(sys.argv[1]):
    btask = [
        MDTask(model="villin-fast", n_steps=300, report_interval=100,
               seed=100 + r, task_id=f"bench/r{r}") for r in range(n)]
    if stacked is not None:
        btask = stacked.from_tasks(btask)
    engine.run_batched(btask)
    rates[str(n)] = n * 300 / min(seconds(engine, btask) for _ in range(3))
print(json.dumps(rates))
"""


def _rates_of(src: Path) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _RATE_PROBE, json.dumps(ABSOLUTE_COUNTS)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def parent_rates(rounds: int = 3) -> dict:
    """Stacked steps/s of this tree and of ``HEAD^``, best of *rounds*
    alternating fresh processes: ``{count: {"parent": .., "change": ..}}``.

    ``HEAD^`` is checked out with ``git worktree`` into a temporary
    directory and removed again; without a parent commit (a one-commit
    shallow clone) this raises.
    """
    rates = {str(n): {"parent": 0.0, "change": 0.0} for n in ABSOLUTE_COUNTS}
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        git = ["git", "-C", str(_ROOT)]
        subprocess.run(
            git + ["worktree", "add", "--detach", str(parent), "HEAD^"],
            check=True,
            capture_output=True,
        )
        try:
            for _ in range(rounds):
                for side, root in (("parent", parent), ("change", _ROOT)):
                    for n, rate in _rates_of(root / "src").items():
                        rates[n][side] = max(rates[n][side], rate)
        finally:
            subprocess.run(
                git + ["worktree", "remove", "--force", str(parent)], check=False
            )
    return rates


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
    for n, rate in kernel.get("stacked_vs_parent", {}).items():
        if rate["change"] < rate["parent"] * slack:
            breaches.append(
                f"stacked R={n} {rate['change']:.0f} steps/s < parent's "
                f"{rate['parent']:.0f} (noise tolerance {NOISE_TOLERANCE:.0%})"
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
    kernel["stacked_vs_parent"] = parent_rates()
    args.kernel_out.write_text(json.dumps(kernel, indent=2) + "\n")
    for row in document["results"]:
        print(
            f"R={row['n_replicas']:>3}  "
            f"lone {row['lone_steps_per_sec']:>9.0f} steps/s  "
            f"stacked {row['batched_steps_per_sec']:>9.0f} steps/s  "
            f"speedup {row['speedup']:.2f}x"
        )
    for model, rows in document["small_models"].items():
        print(
            f"{model}: "
            + "  ".join(f"R={r['n_replicas']} {r['speedup']:.2f}x" for r in rows)
        )
    for n, rate in kernel["stacked_vs_parent"].items():
        print(
            f"stacked R={n}: {rate['change']:.0f} steps/s, "
            f"parent {rate['parent']:.0f}"
        )
    print(f"wrote {args.kernel_out}")

    breaches = check_floors(kernel)
    for breach in breaches:
        print(f"FAIL: {breach}", file=sys.stderr)
    return 1 if breaches else 0


def test_kernel_floors(tmp_path):
    """The kernel-pass floors over lone stacks of one (R=8 >= 4.91x,
    R=64 >= 9.25x; at R=3 the toys >= 1.78x and the chain >= 0.56x), and
    stacked steps/s at R=1, 8 and 64 no lower than the parent's."""
    kernel = kernel_document(run_benchmark())
    kernel["stacked_vs_parent"] = parent_rates()
    (tmp_path / "BENCH_kernel.json").write_text(json.dumps(kernel))
    assert check_floors(kernel) == []


if __name__ == "__main__":
    sys.exit(main())
