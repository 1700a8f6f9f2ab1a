"""Force interface (serial and batched).

Serial terms implement ``energy_forces(positions (N, dim))``.  The
batched path evaluates R independent replicas of one system per call
and works on **replica-minor component planes**:
:func:`composite_energy_forces_batch` transposes the ``(R, N, dim)``
stack once to ``(dim, N, R)``, every term's ``compute_batch(planes,
replica_ids)`` returns ``(energies (R,), force planes (dim, N, R))``
(or ``None`` when it cannot vectorise for the given configuration,
e.g. a positions-dependent neighbour list —
:func:`batch_energy_forces` then loops ``energy_forces`` per replica),
and the summed planes are transposed back once.

Why this layout: gathering atom rows with ``np.take(planes, idx,
axis=1)`` copies contiguous runs of R doubles instead of 24-byte
chunks, a dot product over the length-``dim`` axis is ``dim`` dense
multiply-adds over ``(P, R)`` planes instead of a strided reduction,
and per-interaction parameters broadcast as ``(P, 1)`` columns.

Bit-identity with the serial kernels is a contract, kept by
construction rather than by tolerance:

- every arithmetic op is elementwise over the replica axis, in the
  serial kernel's operand order;
- ``a[0]*b[0] + a[1]*b[1] + a[2]*b[2]`` associates exactly like
  ``np.sum(a * b, axis=-1)`` over a length-3 axis, which numpy
  accumulates left to right (:func:`plane_dot`);
- scatter-adds accumulate each atom's contributions in serial
  ``np.add.at`` order (:class:`SegmentScatter`).

Per-replica *energies* are ``np.sum(term, axis=0)`` over a C-contiguous
``(P, R)`` plane: numpy adds the P rows one after another, so every
replica's sum is left-associated in interaction order — for every
R >= 2 the same bits whatever the stack size or compaction.  (A
"contiguous ``(R, P)`` copy, then ``axis=1``" would switch to pairwise
summation and change the low bits; ``tests/test_scatter_plan.py`` pins
the order.)  Serial energies use ``np.dot`` / pairwise ``np.sum`` and
agree to rounding, not to the bit; nothing downstream of an energy
feeds back into a trajectory.
"""

from __future__ import annotations

from typing import Iterable, Optional, Protocol, Tuple, runtime_checkable

import numpy as np


@runtime_checkable
class Force(Protocol):
    """Anything that yields an energy and per-atom forces."""

    def energy_forces(
        self, positions: np.ndarray
    ) -> Tuple[float, np.ndarray]:  # pragma: no cover - protocol
        """Return ``(potential_energy, forces)`` at *positions*."""
        ...


def composite_energy_forces(
    forces: Iterable[Force], positions: np.ndarray
) -> Tuple[float, np.ndarray]:
    """Sum energy and forces over a collection of force terms."""
    total_e = 0.0
    total_f = np.zeros_like(positions)
    for force in forces:
        e, f = force.energy_forces(positions)
        total_e += e
        total_f += f
    return total_e, total_f


def plane_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the leading (component) axis of two plane stacks.

    ``(dim, P, R) x (dim, P, R) -> (P, R)``, accumulated left to right
    — the association ``np.sum(a * b, axis=-1)`` uses on the serial
    ``(P, dim)`` rows.  (The one difference is outside physics: numpy's
    reduction starts from ``+0.0``, so three ``-0.0`` products sum to
    ``+0.0`` there and to ``-0.0`` here; that needs coincident atoms.)
    """
    out = a[0] * b[0]
    for component in range(1, len(a)):
        out += a[component] * b[component]
    return out


class SegmentScatter:
    """Replica-batched ``np.add.at`` over a fixed index list.

    The serial kernels accumulate pair contributions with one or more
    ``np.add.at`` calls; ``ufunc.at`` is an unbuffered per-element loop
    and would dominate the batched step.  Because every kernel's index
    list is fixed, the scatter is precomputed into a ``(D, N)`` *gather
    table*: row ``d`` holds, for every atom, the position in the index
    list of that atom's ``d``-th contribution (in serial application
    order — first index array fully before the second, pair order
    within each), or the position of a zero row where the atom has
    fewer than ``d + 1`` contributions.  :meth:`add` walks the table
    row by row: one ``np.take`` gathers every atom's ``d``-th
    contribution into a dense ``(dim, N, R)`` plane stack and one ``+=``
    adds it — ``D`` dense adds, in order.

    Why dense in-order adds: each atom's running sum receives the same
    values in the same order with the same left association
    (``((0 + v1) + v2) + ...``) as the serial ``add.at`` sequence, so
    the result is bit-identical — and every numpy call streams
    contiguous memory, with ``D`` (the largest contribution count) calls
    in all.  ``np.add.reduceat`` or ``np.sum`` over the gathered axis
    would be fewer calls but switch to pairwise summation on long
    segments, which breaks the association.

    Why the padding is exact: a running sum that starts at ``+0.0`` can
    never become ``-0.0`` under round-to-nearest, and adding ``+0.0``
    (or ``-0.0``) to such a sum is the identity.  The same argument
    covers cutoff masking: kernels zero the masked pair's force scale
    instead of removing the pair, the resulting ``+-0.0`` contributions
    change nothing, and the filtered serial ``add.at`` is reproduced
    bit-for-bit.
    """

    def __init__(self, indices: np.ndarray, n_atoms: int) -> None:
        indices = np.asarray(indices, dtype=np.intp)
        self.n_entries = len(indices)
        order = np.argsort(indices, kind="stable")
        sorted_idx = indices[order]
        first = np.searchsorted(sorted_idx, np.arange(n_atoms))
        rank = np.arange(self.n_entries) - first[sorted_idx]
        depth = int(rank.max()) + 1 if self.n_entries else 0
        # Unfilled slots point at the workspace's trailing zero row.
        self._table = np.full((depth, n_atoms), self.n_entries, dtype=np.intp)
        self._table[rank, sorted_idx] = order
        self._rows: Optional[np.ndarray] = None

    def workspace(self, dim: int, n_replicas: int) -> np.ndarray:
        """The ``(dim, n_entries + 1, R)`` contribution rows to fill.

        Kernels overwrite rows ``[0, n_entries)`` (aligned with the
        constructor's index list) and hand the array to :meth:`add`;
        the last row is the zero row that padding reads.  The array is
        kept between calls and reallocated only when the stack size
        changes: at R = 64 it is large enough that malloc would map and
        unmap it on every evaluation, and the page faults cost a third
        of the whole force evaluation.  Contents do not survive the
        next ``workspace`` call of the same scatter.
        """
        shape = (dim, self.n_entries + 1, n_replicas)
        if self._rows is None or self._rows.shape != shape:
            self._rows = np.empty(shape)
            self._rows[:, -1] = 0.0
        return self._rows

    def add(self, buf: np.ndarray, rows: np.ndarray) -> None:
        """``buf[:, idx[p], r] += rows[:, p, r]`` for every replica *r*.

        *buf* is ``(dim, N, R)`` and must not hold ``-0.0`` (start it
        from ``np.zeros``); *rows* comes from :meth:`workspace`.
        """
        for level in self._table:
            buf += np.take(rows, level, axis=1)


def empty_batch(planes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Batched result of a term with no interactions: all zeros."""
    return np.zeros(planes.shape[2]), np.zeros(planes.shape)


def pair_force_planes(
    term,
    i: np.ndarray,
    j: np.ndarray,
    fscale: np.ndarray,
    rij: np.ndarray,
    n_atoms: int,
) -> np.ndarray:
    """Force planes of a pair term: ``+fscale * rij`` on j, minus on i.

    *fscale* is ``(P, R)`` and *rij* ``(dim, P, R)``, both aligned with
    the fixed pair list ``(i, j)``.  The :class:`SegmentScatter` over
    ``[j, i]`` — serial's two ``add.at`` calls in order — is built on
    the first call and kept on *term*; ``fij`` and ``-fij`` are written
    straight into its workspace.
    """
    scatter = getattr(term, "_pair_scatter", None)
    if scatter is None:
        scatter = term._pair_scatter = SegmentScatter(
            np.concatenate([j, i]), n_atoms
        )
    dim, n_pairs, n_replicas = rij.shape
    rows = scatter.workspace(dim, n_replicas)
    fij = np.multiply(fscale, rij, out=rows[:, :n_pairs])
    np.negative(fij, out=rows[:, n_pairs:-1])
    forces = np.zeros((dim, n_atoms, n_replicas))
    scatter.add(forces, rows)
    return forces


def batch_energy_forces(
    force: Force,
    positions: np.ndarray,
    planes: np.ndarray,
    replica_ids: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One term over a replica batch: ``(energies, force planes)``.

    *positions* is the ``(R, N, dim)`` stack and *planes* its
    ``(dim, N, R)`` transpose.  Dispatches to the force's
    ``compute_batch(planes, replica_ids=...)`` when available and
    applicable; otherwise loops ``energy_forces`` per replica (the
    fallback for force terms that cannot vectorise).  Either way the
    returned forces match the serial kernel bit-for-bit per replica.

    *replica_ids* maps each row of *positions* to its original replica
    index (the batched simulation compacts finished replicas out, so
    row ``r`` is not replica ``r`` in general).  Force terms with
    per-replica caches — shared lazy neighbour lists — key on it.
    """
    fn = getattr(force, "compute_batch", None)
    if fn is not None:
        out = fn(planes, replica_ids=replica_ids)
        if out is not None:
            return out
    energies = np.empty(positions.shape[0])
    forces = np.empty(planes.shape)
    for rep in range(positions.shape[0]):
        e, f = force.energy_forces(positions[rep])
        energies[rep] = e
        forces[:, :, rep] = f.T
    return energies, forces


def composite_energy_forces_batch(
    forces: Iterable[Force],
    positions: np.ndarray,
    replica_ids: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched :func:`composite_energy_forces` over ``(R, N, dim)``.

    Terms are summed in registration order with elementwise adds, so
    the total matches the serial composite bit-for-bit per replica.
    The stack is transposed to component planes once on entry and the
    summed force planes back to ``(R, N, dim)`` once on exit.
    """
    planes = np.ascontiguousarray(positions.transpose(2, 1, 0))
    total_e = np.zeros(positions.shape[0])
    total_f = np.zeros(planes.shape)
    for force in forces:
        e, f = batch_energy_forces(force, positions, planes, replica_ids)
        total_e += e
        total_f += f
    return total_e, np.ascontiguousarray(total_f.transpose(2, 1, 0))


def numerical_forces(
    force: Force, positions: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference forces, for validating analytic gradients in tests."""
    flat = positions.ravel().copy()
    out = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        e_plus, _ = force.energy_forces(flat.reshape(positions.shape))
        flat[i] = orig - eps
        e_minus, _ = force.energy_forces(flat.reshape(positions.shape))
        flat[i] = orig
        out[i] = -(e_plus - e_minus) / (2 * eps)
    return out.reshape(positions.shape)
