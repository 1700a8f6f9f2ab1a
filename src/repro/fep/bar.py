"""Bennett acceptance ratio (BAR) free-energy estimation.

Given forward work samples ``w_f = U_1(x) - U_0(x)`` with ``x ~ state
0`` and reverse samples ``w_r = U_0(x) - U_1(x)`` with ``x ~ state 1``,
BAR solves

``sum_f fermi(beta (w_f - dF) + M) = sum_r fermi(beta (w_r + dF) - M)``

with ``M = ln(n_f / n_r)``, which is the minimum-variance unbiased
combination of both directions (Bennett 1976).  Exponential averaging
(Zwanzig) is provided as the classic one-sided baseline.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

from repro.util.errors import EstimationError


def _check_work(values: np.ndarray, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) == 0:
        raise EstimationError(f"{name} must be a non-empty 1-D array")
    if not np.all(np.isfinite(values)):
        raise EstimationError(f"{name} contains non-finite work values")
    return values


def exp_free_energy(forward_work: np.ndarray, kt: float = 1.0) -> float:
    """Zwanzig exponential averaging: ``dF = -kT ln <exp(-w/kT)>``."""
    w = _check_work(forward_work, "forward_work")
    if kt <= 0:
        raise EstimationError("kt must be positive")
    return float(-kt * (logsumexp(-w / kt) - np.log(len(w))))


def _bar_objective(
    df: float, w_f: np.ndarray, w_r: np.ndarray, kt: float, m: float
) -> float:
    # log-sum-exp of fermi sums for numerical stability
    log_f = logsumexp(-np.logaddexp(0.0, (w_f - df) / kt + m))
    log_r = logsumexp(-np.logaddexp(0.0, (w_r + df) / kt - m))
    return log_f - log_r


def bar_free_energy(
    forward_work: np.ndarray,
    reverse_work: np.ndarray,
    kt: float = 1.0,
    tol: float = 1e-10,
) -> float:
    """Solve the BAR self-consistency equation for the free-energy gap.

    Returns dF = F_1 - F_0 in the same energy unit as the work values.
    """
    w_f = _check_work(forward_work, "forward_work")
    w_r = _check_work(reverse_work, "reverse_work")
    if kt <= 0:
        raise EstimationError("kt must be positive")
    m = np.log(len(w_f) / len(w_r))

    # bracket the root around the naive two-sided estimate
    center = 0.5 * (np.mean(w_f) - np.mean(w_r))
    span = max(
        4.0 * (np.std(w_f) + np.std(w_r) + kt),
        abs(np.mean(w_f)) + abs(np.mean(w_r)) + kt,
    )
    lo, hi = center - span, center + span
    f_lo = _bar_objective(lo, w_f, w_r, kt, m)
    f_hi = _bar_objective(hi, w_f, w_r, kt, m)
    for _ in range(60):
        if f_lo * f_hi <= 0:
            break
        span *= 2.0
        lo, hi = center - span, center + span
        f_lo = _bar_objective(lo, w_f, w_r, kt, m)
        f_hi = _bar_objective(hi, w_f, w_r, kt, m)
    else:
        raise EstimationError("could not bracket the BAR root")
    return float(
        brentq(_bar_objective, lo, hi, args=(w_f, w_r, kt, m), xtol=tol)
    )


def bar_error(
    forward_work: np.ndarray,
    reverse_work: np.ndarray,
    df: float,
    kt: float = 1.0,
) -> float:
    """Asymptotic standard error of the BAR estimate (Bennett 1976).

    ``var(dF)/kT^2 = [ <f^2>/<f>^2 - 1 ]/n_f + [ <g^2>/<g>^2 - 1 ]/n_r``
    with ``f = fermi((w_f - dF)/kT + M)`` and ``g = fermi((w_r + dF)/kT - M)``.
    """
    w_f = _check_work(forward_work, "forward_work")
    w_r = _check_work(reverse_work, "reverse_work")
    if kt <= 0:
        raise EstimationError("kt must be positive")
    m = np.log(len(w_f) / len(w_r))

    def fermi(x: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(np.clip(x, -500, 500)))

    f = fermi((w_f - df) / kt + m)
    g = fermi((w_r + df) / kt - m)
    mean_f, mean_g = f.mean(), g.mean()
    if mean_f <= 0 or mean_g <= 0:
        raise EstimationError("no phase-space overlap; BAR error undefined")
    var = (np.mean(f**2) / mean_f**2 - 1.0) / len(w_f) + (
        np.mean(g**2) / mean_g**2 - 1.0
    ) / len(w_r)
    return float(kt * np.sqrt(max(var, 0.0)))
