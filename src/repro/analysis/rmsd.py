"""Optimal-superposition RMSD via the Kabsch algorithm.

The paper's central observable is the C-alpha RMSD to the native
structure after optimal rigid-body alignment (Figs. 2, 3, 5).  The
batched implementation aligns a whole trajectory against one reference
in a single vectorised sweep — one ``(n_frames, 3, 3)`` SVD batch —
because clustering calls this on every frame pair assignment.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ConfigurationError


def _center(x: np.ndarray) -> np.ndarray:
    return x - x.mean(axis=-2, keepdims=True)


def kabsch_align(mobile: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Optimally superpose *mobile* frame(s) onto *reference*.

    Parameters
    ----------
    mobile:
        ``(n_atoms, 3)`` or ``(n_frames, n_atoms, 3)``.
    reference:
        ``(n_atoms, 3)``.

    Returns
    -------
    Aligned coordinates with the same shape as *mobile*, positioned on
    the centred reference.
    """
    mobile = np.asarray(mobile, dtype=float)
    reference = np.asarray(reference, dtype=float)
    single = mobile.ndim == 2
    frames = mobile[None] if single else mobile
    if reference.ndim != 2 or frames.shape[-2:] != reference.shape:
        raise ConfigurationError(
            f"shape mismatch: mobile {mobile.shape} vs reference {reference.shape}"
        )
    x = _center(frames)  # (F, N, 3)
    y = _center(reference[None])  # (1, N, 3)
    # Covariance per frame: C = x^T y
    cov = np.einsum("fni,nj->fij", x, y[0])
    u, _, vt = np.linalg.svd(cov)
    det = np.linalg.det(np.einsum("fij,fjk->fik", u, vt))
    # Fix chirality: flip the last column of u where det < 0.
    u[det < 0, :, -1] *= -1.0
    rot = np.einsum("fij,fjk->fik", u, vt)  # (F, 3, 3)
    aligned = np.einsum("fni,fij->fnj", x, rot)
    return aligned[0] if single else aligned


def rmsd(a: np.ndarray, b: np.ndarray, align: bool = True) -> float:
    """RMSD between two single frames (optionally after alignment)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 2:
        raise ConfigurationError(f"frame shapes differ: {a.shape} vs {b.shape}")
    if align:
        a = kabsch_align(a, b)
        b = _center(b)
    diff = a - b
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=-1))))


def rmsd_to_reference(
    frames: np.ndarray, reference: np.ndarray, align: bool = True
) -> np.ndarray:
    """RMSD of every frame to one reference, vectorised.

    Parameters
    ----------
    frames:
        ``(n_frames, n_atoms, 3)``.
    reference:
        ``(n_atoms, 3)``.

    Returns
    -------
    ``(n_frames,)`` array of RMSD values (same length unit as input).
    """
    frames = np.asarray(frames, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if frames.ndim != 3:
        raise ConfigurationError(f"frames must be 3-D, got {frames.shape}")
    if align:
        aligned = kabsch_align(frames, reference)
        ref = _center(reference[None])[0]
    else:
        aligned = frames
        ref = reference
    diff = aligned - ref[None]
    return np.sqrt(np.mean(np.sum(diff * diff, axis=-1), axis=-1))
