#!/usr/bin/env python3
"""Wall-clock, layer-attributed benchmark of whole-project runs.

Two ways in, one measuring path:

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload (the ``BENCHMARK.json`` command).  Prints
    the result as one JSON object on the last line of stdout: the
    end-to-end metrics with ``--trace 0``, the per-layer metrics with
    ``--trace 1``.

``python3 bench/run.py [--seed N] [--workload NAME] [--repeats K] [--quick] [--aa]``
    The whole suite for a person to read: every metric by name with its
    unit, the per-layer ledger, ``bench/out/result.json`` and one
    Chrome trace per workload.

Method (the same on every commit): single process, single thread, BLAS
and OpenMP pools pinned to 1.  Every repeat runs in a fresh child
process, one after the other: child start -> imports -> inputs from the
seed -> a 50-step warm-up through the same API call (``setup_s``), then
the one timed API call (``wall_s``), then the output checks.  The load
generator is the runner's own closed loop — one client, the next poll
only after the previous reply.  End-to-end numbers come from untraced
repeats only; a separate traced repeat gives the per-layer numbers.
"""

from __future__ import annotations

import os

THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_PINS:  # before numpy loads
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from layers import GROUPS, PER_LAYER, Traced, group_share, per_layer_metrics  # noqa: E402

WORKLOAD_NAMES = ("adaptive_msm", "ensemble64", "control_plane", "serial_swarm")

#: name -> (unit, better); the bounds live in BENCHMARK.json
END_TO_END = {
    "wall_s": ("s", "lower"),
    "commands_per_s": ("1/s", "higher"),
    "replica_steps_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

#: timed repeats of the suite, and the fewest a protocol run settles for
DEFAULT_REPEATS = 5
MIN_REPEATS_TIMED = 3
#: one protocol run's share of the driver's cap (3420 s over 92 runs)
RUN_BUDGET_S = 38
#: one repeat must end well inside the contract's 180 s per run
CHILD_TIMEOUT_S = 150

#: counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = (
    "md.forcefield.scatter.calls",
    "md.forcefield.evals",
    "md.integrators.steps",
    "md.batched.steps",
    "serialization.encode_calls",
    "serialization.size_only_calls",
    "net.messages",
    "wal.fsyncs",
    "wal.appends",
    "obs.calls",
)


# -- one repeat, in a child process ------------------------------------------


def _fs_type(path: Path) -> str:
    """Filesystem type of the mount holding *path* (from /proc/mounts)."""
    path = path.resolve()
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _dev, mount, kind = line.split()[:3]
                if (str(path) + "/").startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fs = mount, kind
    except OSError:
        pass
    return fs


def _journal_dir(workload: str, journaled: bool) -> Path:
    path = OUT / "journals" / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    fs = _fs_type(path)
    if journaled and fs in ("tmpfs", "ramfs"):
        # fsync is a no-op there and wal.fsync_s would mean nothing
        raise SystemExit(f"refusing to journal on {fs} ({path}); put the checkout on a real disk")
    return path


def child_main(spec: dict) -> dict:
    """One repeat: set up, warm up, time the call, check the outputs."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, verify

    workload = WORKLOADS[spec["workload"]]
    seed, size = spec["seed"], spec["size"]
    journals = _journal_dir(workload.name, workload.journaled)
    try:
        inputs = workload.inputs(seed, size)
        workload.call(workload.inputs(seed, "warm"), journals / "warm")
        recorder = patch = None
        if spec["trace"]:
            recorder = tracing.Recorder()
            patch = tracing.patch_all(recorder)
        setup_s = time.monotonic() - spec["spawned_at"]
        try:
            t0 = time.perf_counter()
            if recorder is not None:
                run = recorder.call(workload.call, inputs, journals / "run")
            else:
                run = workload.call(inputs, journals / "run")
            wall_s = time.perf_counter() - t0
        finally:
            if patch is not None:
                patch.undo()
        verdict = verify(workload, inputs, run, seed)
    finally:
        shutil.rmtree(journals, ignore_errors=True)

    out = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "attempted": verdict.attempted,
        "verified": verdict.verified,
        "steps": verdict.steps,
        "digest": verdict.digest,
        "errors": verdict.errors[:20],
    }
    if recorder is not None:
        metrics = run.network.obs.metrics
        names = run.network.endpoints()
        facts = {
            "commands_completed": verdict.verified,
            "net.messages": run.network.messages_delivered,
            "net.bytes": run.network.total_bytes(),
            "net.retries": sum(run.network.endpoint(n).send_retries for n in names),
            "runner.cycles": round(run.runner.now / run.runner.tick),
            "server.duplicates_dropped": metrics.total("repro_server_duplicates_dropped_total"),
            "server.fenced_rejects": metrics.total("repro_fencing_rejections_total"),
            "failed_ops_frac": (verdict.attempted - verdict.verified) / verdict.attempted,
        }
        ledger = tracing.self_times(recorder.names, recorder.spans, recorder.root)
        out["per_layer"] = per_layer_metrics(
            Traced(recorder, ledger, facts, spec["untraced_wall_s"])
        )
        out["ledger"] = {
            span: {"self_s": ledger.self_s[span], "calls": ledger.calls[span]}
            for span in sorted(ledger.self_s, key=ledger.self_s.get, reverse=True)
        }
        out["traced_wall_s"] = ledger.wall_s
        out["shares"] = {group: group_share(ledger, group) for group in GROUPS}
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{workload.name}.json"
        tracing.write_chrome_trace(recorder, trace_file)
        out["trace_file"] = str(trace_file.relative_to(ROOT))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def run_child(workload: str, seed: int, size: str, untraced_wall_s: Optional[float] = None) -> dict:
    """Run one repeat in a fresh interpreter and return what it printed."""
    spec = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "trace": untraced_wall_s is not None,
        "untraced_wall_s": untraced_wall_s,
        "spawned_at": time.monotonic(),
    }
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: repeat exited with code {done.returncode}")
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


# -- one workload: repeats, medians, checks ----------------------------------


def measure(
    workload: str,
    seed: int,
    size: str,
    repeats: Optional[int] = None,
    seconds: Optional[float] = None,
    discard: int = 0,
) -> List[dict]:
    """Untraced repeats, sequentially: *repeats* of them (the suite), or
    as many as it takes to have measured for *seconds* and at least
    ``MIN_REPEATS_TIMED`` times (a protocol run).  On a host so slow
    that one more repeat would overrun ``RUN_BUDGET_S``, a protocol run
    stops at two rather than cost the whole benchmark its time cap."""
    for _ in range(discard):
        run_child(workload, seed, size)
    started = time.monotonic()
    runs: List[dict] = []
    while True:
        runs.append(run_child(workload, seed, size))
        if repeats is not None:
            done = len(runs) >= repeats
        else:
            spent = time.monotonic() - started
            done = (
                len(runs) >= MIN_REPEATS_TIMED and sum(r["wall_s"] for r in runs) >= seconds
            ) or (len(runs) >= 2 and spent + spent / len(runs) > RUN_BUDGET_S)
        if done:
            return runs


def summarise(values: List[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(runs: List[dict]) -> Dict[str, Optional[dict]]:
    """Median, quartiles and sample count of every end-to-end metric;
    ``None`` for ``replica_steps_per_s`` where no MD step ran."""
    md = any(r["steps"] for r in runs)
    return {
        "wall_s": summarise([r["wall_s"] for r in runs]),
        "commands_per_s": summarise([r["verified"] / r["wall_s"] for r in runs]),
        "replica_steps_per_s": summarise([r["steps"] / r["wall_s"] for r in runs]) if md else None,
        "setup_s": summarise([r["setup_s"] for r in runs]),
        "peak_rss_mb": summarise([r["peak_rss_mb"] for r in runs]),
    }


def check(runs: List[dict]) -> List[str]:
    """Problems with a set of repeats of one (workload, seed, size)."""
    problems = [e for r in runs for e in r["errors"]]
    if any(r["verified"] != r["attempted"] for r in runs):
        problems.append("not every attempted command completed and verified")
    if len({r["digest"] for r in runs}) != 1:
        problems.append("results differ between repeats of one seed")
    return problems


# -- the suite, for a person ---------------------------------------------------


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or None
    except OSError:
        commit = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((l.split(":", 1)[1].strip() for l in info if l.startswith("model name")), None)
    except OSError:
        pass
    OUT.mkdir(parents=True, exist_ok=True)
    return {
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
        "journal_fs": _fs_type(OUT),
    }


def _print_workload(name: str, e2e: Dict[str, dict], traced: dict, failed_frac: float) -> None:
    print(f"\n== {name} ==")
    print(f"{'end-to-end metric':<24}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for metric, (unit, _better) in END_TO_END.items():
        s = e2e[metric]
        if s is None:
            print(f"{metric:<24}{unit:>6}{'null':>14}   (no MD in this workload)")
        else:
            print(f"{metric:<24}{unit:>6}{s['median']:>14.4f}{s['q1']:>14.4f}{s['q3']:>14.4f}{s['n']:>4}")
    print(f"{'failed_ops_frac':<24}{'ratio':>6}{failed_frac:>14.4f}   (untraced repeats)")
    wall = traced["traced_wall_s"]
    print(f"\nper-layer ledger (traced repeat, wall {wall:.3f} s)")
    print(f"{'span':<28}{'self_s':>10}{'share':>8}{'calls':>10}")
    for span, row in traced["ledger"].items():
        if row["calls"] or row["self_s"]:
            print(f"{span:<28}{row['self_s']:>10.4f}{row['self_s'] / wall:>8.1%}{row['calls']:>10}")
    print("layer groups: " + ", ".join(f"{g} {share:.1%}" for g, share in traced["shares"].items()))
    print("\nper-layer metrics")
    for m in PER_LAYER:
        print(f"{m.name:<40}{m.unit:>6}{traced['per_layer'][m.name]:>16.6g}")


def suite(seed: int, size: str, repeats: int, names: List[str], quiet: bool = False) -> dict:
    """Every workload: 1 discarded + *repeats* timed repeats, 1 traced."""
    result = {
        "not_for_comparison": size != "full",
        "seed": seed,
        "size": size,
        "environment": environment(),
        # what each per-layer metric belongs to and is expected to move
        "per_layer_targets": {
            m.name: {"layer": m.layer, "moves": m.moves[0], "on": m.moves[1]}
            for m in PER_LAYER
        },
        "workloads": {},
        "correct": True,
    }
    for name in names:
        runs = measure(name, seed, size, repeats=repeats, discard=int(size == "full"))
        e2e = end_to_end(runs)
        traced = run_child(name, seed, size, untraced_wall_s=e2e["wall_s"]["median"])
        problems = check(runs + [traced])
        attempted = sum(r["attempted"] for r in runs)
        failed_frac = (attempted - sum(r["verified"] for r in runs)) / attempted
        result["workloads"][name] = {
            "end_to_end": e2e,
            "failed_ops_frac": failed_frac,
            "per_layer": traced["per_layer"],
            "ledger": traced["ledger"],
            "shares": traced["shares"],
            "traced_wall_s": traced["traced_wall_s"],
            "trace_file": traced["trace_file"],
            "problems": problems,
        }
        result["correct"] &= not problems
        if not quiet:
            _print_workload(name, e2e, traced, failed_frac)
            for problem in problems:
                print(f"PROBLEM: {problem}")
    return result


def _bounds() -> Dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def disagreement(first: dict, second: dict, bounds: Dict[str, float]) -> List[dict]:
    """Per workload x end-to-end metric: both medians, how far apart
    they are and whether that is beyond the metric's bound.

    The two suites measure one commit, so which of them ran first means
    nothing: the gate is two-sided, the larger median over the smaller.
    """
    rows = []
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        for metric in END_TO_END:
            if a["end_to_end"][metric] is None:
                continue
            x, y = a["end_to_end"][metric]["median"], b["end_to_end"][metric]["median"]
            apart = abs(y - x) / min(x, y)
            rows.append(
                {"workload": name, "metric": metric, "first": x, "second": y,
                 "rel_diff": (y - x) / x, "apart": apart, "bound": bounds[metric],
                 "breach": apart > bounds[metric]}
            )
    return rows


def aa(seed: int, size: str, repeats: int, names: List[str]) -> int:
    """The suite twice, back to back: do two sets of runs of one commit
    agree within each metric's own bound?"""
    first = suite(seed, size, repeats, names, quiet=True)
    second = suite(seed, size, repeats, names, quiet=True)
    rows = disagreement(first, second, _bounds())
    breaches = sum(row["breach"] for row in rows)
    print(f"{'workload':<16}{'metric':<22}{'first':>13}{'second':>13}{'rel diff':>10}{'apart':>8}{'bound':>8}")
    for r in rows:
        print(f"{r['workload']:<16}{r['metric']:<22}{r['first']:>13.4f}{r['second']:>13.4f}"
              f"{r['rel_diff']:>+10.2%}{r['apart']:>8.2%}{r['bound']:>8.2f}"
              + ("  BREACH" if r["breach"] else ""))
    for name in names:
        a, b = first["workloads"][name], second["workloads"][name]
        unequal = [c for c in EXACT_COUNTS if a["per_layer"][c] != b["per_layer"][c]]
        for count in unequal:
            print(f"{name:<16}{count} differs between the two traced runs")
        breaches += len(unequal)
        failed = a["failed_ops_frac"] or b["failed_ops_frac"] or a["problems"] or b["problems"]
        if failed:
            print(f"{name:<16}failed operations or failed checks")
            breaches += 1
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "aa.json").write_text(
        json.dumps({"seed": seed, "size": size, "rows": rows, "breaches": breaches,
                    "first": first, "second": second}, indent=1)
    )
    print(f"wrote {(OUT / 'aa.json').relative_to(ROOT)}; breaches: {breaches}")
    return 1 if breaches else 0


# -- the BENCHMARK.json command ------------------------------------------------


def driver(workload: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    """One run for the driver: a JSON result on the last line of stdout."""
    if trace:
        # one untraced repeat first: the tracing overhead needs a base
        runs = [run_child(workload, seed, size)]
        traced = run_child(workload, seed, size, untraced_wall_s=runs[0]["wall_s"])
        runs.append(traced)
        metrics = {
            m.name: {"value": traced["per_layer"][m.name], "unit": m.unit} for m in PER_LAYER
        }
    else:
        runs = measure(workload, seed, size, seconds=seconds)
        e2e = end_to_end(runs)
        # the protocol wants a number, never 0, for every end-to-end
        # metric on every workload: where no MD runs, a command is the
        # unit of work (the suite reports null there)
        e2e["replica_steps_per_s"] = e2e["replica_steps_per_s"] or e2e["commands_per_s"]
        metrics = {
            name: {"value": stats["median"], "unit": END_TO_END[name][0]}
            for name, stats in e2e.items()
        }
    problems = check(runs)
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in runs)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - sum(r["verified"] for r in runs),
        "metrics": metrics,
    }))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="0 is the default, 1 is held out")
    parser.add_argument("--seconds", type=float, help="measure for this long (driver protocol)")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="driver protocol: 0 end-to-end, 1 per-layer")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--quick", action="store_true", help="tiny sizes, 1 repeat; numbers not for comparison")
    parser.add_argument("--aa", action="store_true", help="run the suite twice and compare against the bounds")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # a terminated run must take its child down with it: SystemExit
    # unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.child:
        print(json.dumps(child_main(json.loads(args.child))))
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    size, repeats = ("quick", 1) if args.quick else ("full", args.repeats)
    if args.trace is not None:
        if args.workload is None or args.seconds is None:
            parser.error("--trace needs --workload and --seconds")
        return driver(args.workload, args.seed, args.seconds, bool(args.trace), size)

    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    if not args.quick and repeats < DEFAULT_REPEATS:
        print(f"note: fewer than {DEFAULT_REPEATS} timed repeats; do not quote these numbers")
    if args.aa:
        return aa(args.seed, size, repeats, names)
    if args.quick:
        print("QUICK RUN: tiny sizes, one repeat - numbers are NOT for comparison")
    result = suite(args.seed, size, repeats, names)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "result.json").write_text(json.dumps(result, indent=1))
    print(f"\nwrote {(OUT / 'result.json').relative_to(ROOT)}; correct: {result['correct']}")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
