"""Strong-scaling model of a single MD simulation.

A parallel MD step costs compute (perfect 1/k) plus communication
overhead growing with the core count, so the simulation rate is

``rate(k) = rate_1core * k / (1 + ((k - 1) / a)^b)``

with per-simulation parallel efficiency ``e(k) = 1 / (1 + ((k-1)/a)^b)``.
The villin calibration pins ``rate_1core`` to the paper's
``t_res(1) = 1.1e5`` hours for the 3-generation first-folded command
set, and ``(a, b)`` to the efficiencies implied by the paper's
time-to-solution anchors (~30 h at 5,000 cores with 24-core tasks;
~10 h / 53 % overall efficiency at 20,000 cores with 96-core tasks).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class MDPerformanceModel:
    """Strong-scaling performance of one simulation.

    Attributes
    ----------
    rate_1core:
        Simulation rate on a single core, ns/hour.
    overhead_scale / overhead_exponent:
        The ``(a, b)`` of the communication-overhead term.
    n_atoms:
        System size (used by size-rescaling helpers).
    max_cores:
        Hard strong-scaling wall: beyond this many cores a single
        simulation gains nothing (domain decomposition runs out of
        atoms to distribute).
    """

    rate_1core: float
    overhead_scale: float = 124.0
    overhead_exponent: float = 0.447
    n_atoms: int = 9864
    max_cores: int = 512

    def __post_init__(self) -> None:
        if self.rate_1core <= 0:
            raise ConfigurationError("rate_1core must be positive")
        if self.overhead_scale <= 0 or self.overhead_exponent <= 0:
            raise ConfigurationError("overhead parameters must be positive")
        if self.max_cores < 1:
            raise ConfigurationError("max_cores must be >= 1")

    def efficiency(self, cores: int) -> float:
        """Per-simulation parallel efficiency e(k), e(1) = 1."""
        cores = self._clip(cores)
        overhead = ((cores - 1) / self.overhead_scale) ** self.overhead_exponent
        return 1.0 / (1.0 + overhead)

    def rate(self, cores: int) -> float:
        """Simulation rate in ns/hour at *cores* cores."""
        cores = self._clip(cores)
        return self.rate_1core * cores * self.efficiency(cores)

    def rate_ns_per_day(self, cores: int) -> float:
        """Simulation rate in ns/day."""
        return 24.0 * self.rate(cores)

    def hours_for(self, ns: float, cores: int) -> float:
        """Wallclock hours to simulate *ns* nanoseconds."""
        if ns < 0:
            raise ConfigurationError("ns must be >= 0")
        return ns / self.rate(cores)

    def _clip(self, cores: int) -> int:
        if cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {cores}")
        return min(int(cores), self.max_cores)

    def rescaled(self, n_atoms: int) -> "MDPerformanceModel":
        """Model for a different system size.

        MD cost is ~linear in atom count (cutoff interactions), while
        the strong-scaling wall moves proportionally with the atoms
        available to distribute — the paper's argument that larger
        systems scale further ("the number of cores in each simulation
        can thus increase in proportion to the system size").
        """
        if n_atoms < 1:
            raise ConfigurationError("n_atoms must be >= 1")
        factor = n_atoms / self.n_atoms
        return MDPerformanceModel(
            rate_1core=self.rate_1core / factor,
            overhead_scale=self.overhead_scale * factor,
            overhead_exponent=self.overhead_exponent,
            n_atoms=n_atoms,
            max_cores=max(1, int(self.max_cores * factor)),
        )


def _calibrated_villin() -> MDPerformanceModel:
    """Villin model hitting the paper's t_res(1) anchor.

    The Fig. 7 caption gives t_res(1) = 1.1e5 hours for the full
    first-folded MSM command set (3 generations x 225 commands x 50 ns
    = 33,750 ns), fixing the single-core rate at ~0.307 ns/hour
    (~7.4 ns/day, a plausible 2011-era single-core rate for a 9,864-atom
    system with reaction-field electrostatics).
    """
    total_ns = 3 * 225 * 50.0
    t_res_1 = 1.1e5
    return MDPerformanceModel(rate_1core=total_ns / t_res_1)


#: The calibrated villin performance model used by the benchmarks.
VILLIN_MODEL = _calibrated_villin()
