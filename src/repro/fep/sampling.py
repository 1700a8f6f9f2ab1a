"""The ``fepsample`` executable: sample one lambda window.

A free-energy command samples a single window and evaluates the energy
difference to its neighbours on those samples — the per-window work
values BAR consumes.  Sampling is either exact (harmonic windows admit
direct Boltzmann draws) or by Langevin dynamics on the same potential,
which exercises the full MD code path at a cost.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.fep.systems import HarmonicWindow
from repro.md.forcefield.bonded import HarmonicBondForce  # noqa: F401  (doc ref)
from repro.md.integrators import LangevinIntegrator
from repro.md.simulation import Simulation
from repro.md.system import State, System
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStream
from repro.util.units import KB


class _WindowForce:
    """A HarmonicWindow as an MD force on one 1-D particle."""

    def __init__(self, window: HarmonicWindow) -> None:
        self.window = window

    def compute_batch(self, planes, replica_ids=None, need_energy=True):
        """``(energies, force planes)`` of the window's harmonic bias."""
        x = planes[0]
        forces = np.zeros_like(planes)
        forces[0] = -self.window.k * (x - self.window.x0)
        return (self.window.energy(x).sum(axis=0) if need_energy else None), forces


def sample_window(
    window: HarmonicWindow,
    n_samples: int,
    kt: float,
    seed: int,
    method: str = "exact",
    md_steps_per_sample: int = 50,
) -> np.ndarray:
    """Draw Boltzmann samples from one window.

    ``method="exact"`` uses direct Gaussian draws; ``method="md"`` runs
    Langevin dynamics and subsamples, exercising the engine code path.
    """
    rng = RandomStream(seed)
    if method == "exact":
        return window.sample(n_samples, kt, rng)
    if method != "md":
        raise ConfigurationError(f"unknown sampling method {method!r}")
    temperature = kt / KB
    system = System(masses=[1.0], forces=[_WindowForce(window)], dim=1)
    state = State(
        np.array([[window.x0]]),
        system.maxwell_boltzmann_velocities(temperature, rng),
    )
    integrator = LangevinIntegrator(
        0.05, temperature, friction=5.0, rng=rng.spawn(1)[0]
    )
    sim = Simulation(system, integrator, state)
    sim.run(20 * md_steps_per_sample)  # equilibrate
    samples = np.empty(n_samples)
    for i in range(n_samples):
        sim.run(md_steps_per_sample)
        samples[i] = sim.state.positions[0, 0]
    return samples


def run_fep_window(payload: Dict) -> Dict:
    """The ``fepsample`` executable body.

    Payload keys: ``k``, ``x0`` (this window), optional ``k_prev`` /
    ``x0_prev`` and ``k_next`` / ``x0_next`` (neighbours), ``n_samples``,
    ``kt``, ``seed``, ``method``.

    Returns per-neighbour work arrays: ``work_to_prev`` / ``work_to_next``
    are ``U_neighbour(x) - U_self(x)`` on this window's samples.
    """
    window = HarmonicWindow(k=float(payload["k"]), x0=float(payload.get("x0", 0.0)))
    kt = float(payload.get("kt", 1.0))
    n = int(payload.get("n_samples", 100))
    seed = int(payload.get("seed", 0))
    method = payload.get("method", "exact")
    samples = sample_window(window, n, kt, seed, method=method)
    u_self = window.energy(samples)
    out: Dict = {"n_samples": n, "window_index": payload.get("window_index", 0)}
    if "k_next" in payload:
        nxt = HarmonicWindow(
            k=float(payload["k_next"]), x0=float(payload.get("x0_next", 0.0))
        )
        out["work_to_next"] = nxt.energy(samples) - u_self
    if "k_prev" in payload:
        prv = HarmonicWindow(
            k=float(payload["k_prev"]), x0=float(payload.get("x0_prev", 0.0))
        )
        out["work_to_prev"] = prv.energy(samples) - u_self
    return out
