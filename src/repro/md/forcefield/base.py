"""The force protocol and its stacked sums.

Every force term implements one method (:class:`Force`),
``compute_batch(planes, replica_ids=None, need_energy=True)``, over a
stack of R replicas of one system; one replica is a stack of one
(:func:`composite_energy_forces`).  A
:class:`~repro.md.system.System` checks each term once, when it is
added (:func:`check_force`), so a term that lacks the method or the
keyword is a :class:`ConfigurationError` naming the term, never a slow
path found mid-run.

The kernels work on **replica-minor component planes**:
:func:`composite_energy_forces_batch` transposes the ``(R, N, dim)``
stack once to ``(dim, N, R)``, every term's ``compute_batch(planes,
replica_ids)`` returns ``(energies (R,), force planes (dim, N, R))``,
and the summed planes are transposed back once.

Why this layout: gathering atom rows with ``np.take(planes, idx,
axis=1)`` copies contiguous runs of R doubles instead of 24-byte
chunks, a dot product over the length-``dim`` axis is ``dim`` dense
multiply-adds over ``(P, R)`` planes instead of a strided reduction,
and per-interaction parameters broadcast as ``(P, 1)`` columns.

A replica's forces are the same bits whatever the stack's size or
compaction, and the same bits as the per-replica ``(N, dim)`` kernels
the stacks replaced (``tests/serial_oracle.py`` keeps them as the
reference).  That is kept by construction rather than by tolerance:

- every arithmetic op is elementwise over the replica axis, in the
  per-replica kernel's operand order;
- ``a[0]*b[0] + a[1]*b[1] + a[2]*b[2]`` associates exactly like
  ``np.sum(a * b, axis=-1)`` over a length-3 axis, which numpy
  accumulates left to right (:func:`plane_dot`);
- scatter-adds accumulate each atom's contributions in ``np.add.at``
  order (:class:`SegmentScatter`).

**Forces-only evaluation.**  Every step of every integrator needs
forces and throws the energy away, so ``compute_batch`` takes
``need_energy=True``: with ``False`` a kernel skips its energy lines
and the energy slot of the returned pair is ``None``.  The keyword
never changes a force bit.

Per-replica *energies* are ``np.sum(term, axis=0)`` over a C-contiguous
``(P, R)`` plane: numpy adds the P rows one after another, so every
replica's sum is left-associated in interaction order — for every
R >= 2 the same bits whatever the stack size or compaction.  At R = 1
the plane is one contiguous column and numpy sums it pairwise, which
agrees to rounding, not to the bit; a result that must not depend on
its stack (a command's final energy) is therefore always a stack of
one.  (``tests/test_scatter_plan.py`` pins the order.)  Nothing
downstream of an energy feeds back into a trajectory.
"""

from __future__ import annotations

import inspect
from typing import Iterable, Optional, Protocol, Tuple

import numpy as np

from repro.util.errors import ConfigurationError


class Force(Protocol):
    """A force term over a stack of replicas, energies optional."""

    def compute_batch(
        self,
        planes: np.ndarray,
        replica_ids: Optional[np.ndarray] = None,
        need_energy: bool = True,
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:  # pragma: no cover
        """``(energies (R,), force planes (dim, N, R))`` at *planes*.

        *replica_ids* maps each column to its original replica (the
        batched simulation compacts finished replicas out); terms with
        per-replica caches key on it, ``None`` means column ``r`` is
        replica ``r``.
        """
        ...


def check_force(force) -> None:
    """Raise :class:`ConfigurationError` unless *force* meets :class:`Force`."""
    method = getattr(force, "compute_batch", None)
    if not callable(method):
        lacks = "compute_batch()"
    elif "need_energy" not in inspect.signature(method).parameters:
        lacks = "the need_energy keyword of compute_batch()"
    else:
        return
    raise ConfigurationError(
        f"force term {type(force).__name__} does not implement the "
        f"Force protocol: it lacks {lacks}"
    )


def composite_energy_forces(
    forces: Iterable[Force],
    positions: np.ndarray,
    need_energy: bool = True,
) -> Tuple[Optional[float], np.ndarray]:
    """Energy and forces of *forces* at one ``(N, dim)`` configuration.

    A stack of one through :func:`composite_energy_forces_batch`.  With
    ``need_energy=False`` the energy is ``None``.
    """
    energies, stack = composite_energy_forces_batch(
        forces, positions[None], None, need_energy
    )
    return (float(energies[0]) if need_energy else None), stack[0]


def plane_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the leading (component) axis of two plane stacks.

    ``(dim, ...) x (dim, ...) -> (...)``, accumulated left to right —
    the association ``np.sum(a * b, axis=-1)`` uses on ``(P, dim)``
    rows.  All ``dim`` products come from one multiply;
    the adds stay explicit because a reduction would not keep this
    order's zero signs.  (The one difference is outside physics:
    numpy's reduction starts from ``+0.0``, so three ``-0.0`` products
    sum to ``+0.0`` there and to ``-0.0`` here; that needs coincident
    atoms.)
    """
    products = a * b
    if len(products) == 1:
        return products[0]
    out = products[0] + products[1]
    for product in products[2:]:
        out += product
    return out


#: Most float64 elements :meth:`SegmentScatter.add` gathers with one
#: ``np.take`` (128 KiB, glibc's ``mmap`` threshold).  A larger gather
#: is returned by ``malloc`` as a fresh mapping on every call and pays a
#: page fault per 4 KiB to touch it: gathering the whole villin-fast
#: table at once (up to 399 KiB at R = 64) made that evaluation 9-25 %
#: *slower* than one level per call, while under the threshold it is as
#: fast as malloc-from-the-heap gets (the five scatters of a villin-fast
#: evaluation: 70 -> 24 us at R = 6, 124 -> 119 us at R = 64; DESIGN.md
#: "Kernel memory layout").
#: Not a setting: it is a property of the allocator, not of a workload.
SCATTER_GATHER_ELEMENTS = 16384


class SegmentScatter:
    """Replica-batched ``np.add.at`` over a fixed index list.

    A per-replica kernel accumulates pair contributions with one or
    more ``np.add.at`` calls; ``ufunc.at`` is an unbuffered per-element
    loop and would dominate the step.  Because every kernel's index
    list is fixed, the scatter is precomputed into a ``(D, N)`` *gather
    table*: level ``d`` holds, for every atom, the position in the index
    list of that atom's ``d``-th contribution (in ``add.at`` order —
    first index array fully before the second, pair order within
    each), or the position of a zero row where the atom has
    fewer than ``d + 1`` contributions.  :meth:`add` gathers several
    levels with one ``np.take`` into a ``(dim, levels, N, R)`` stack and
    reduces it over the level axis.

    Why a reduction over that axis is exact: the ``(N, R)`` planes of
    one level are contiguous and at least two elements long, so numpy
    makes the level axis the *outer* loop and adds the planes to the
    output one after another.  Each atom's running sum therefore
    receives the same values in the same order with the same left
    association (``((0 + v1) + v2) + ...``) as the ``add.at``
    sequence, and the result is bit-identical.  (Reducing along a
    contiguous axis instead — ``np.sum`` / ``np.add.reduceat`` over an
    interaction axis — switches to pairwise summation on long segments
    and breaks the association; ``tests/test_scatter_plan.py`` pins
    both.)

    Why chunking is exact: the running sum lives in *carry rows* behind
    the contribution rows and is the first level of every gather, so
    ``0.0 + carry + v_k + v_k+1 ...`` continues the same left
    association however many levels one gather takes.  How many is the
    only size-dependent decision here (:data:`SCATTER_GATHER_ELEMENTS`).

    Why the padding is exact: a running sum that starts at ``+0.0`` can
    never become ``-0.0`` under round-to-nearest, and adding ``+0.0``
    (or ``-0.0``) to such a sum is the identity.  The same argument
    covers cutoff masking: kernels zero the masked pair's force scale
    instead of removing the pair, the resulting ``+-0.0`` contributions
    change nothing, and the filtered ``add.at`` is reproduced
    bit-for-bit.
    """

    def __init__(self, indices: np.ndarray, n_atoms: int) -> None:
        if n_atoms < 2:
            # A one-element plane would make the level axis the inner,
            # pairwise-summed loop (see the class docstring).
            raise ConfigurationError("a scatter needs at least two atoms")
        indices = np.asarray(indices, dtype=np.intp)
        self.n_entries = len(indices)
        self.n_atoms = int(n_atoms)
        order = np.argsort(indices, kind="stable")
        sorted_idx = indices[order]
        first = np.searchsorted(sorted_idx, np.arange(n_atoms))
        rank = np.arange(self.n_entries) - first[sorted_idx]
        depth = int(rank.max()) + 1 if self.n_entries else 0
        # Unfilled slots point at the workspace's zero row.
        self._table = np.full((depth, n_atoms), self.n_entries, dtype=np.intp)
        self._table[rank, sorted_idx] = order
        # Allocated by workspace() for one (dim, R): a view of the
        # contribution rows and the zero row; its base array holds the
        # n_atoms carry rows behind them.
        self._rows: Optional[np.ndarray] = None
        self._gathers: Tuple[np.ndarray, ...] = ()

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
            store = np.empty(
                (dim, self.n_entries + 1 + self.n_atoms, n_replicas)
            )
            self._rows = store[:, : self.n_entries + 1]
            self._rows[:, -1] = 0.0
            self._gathers = self._plan_gathers(dim * self.n_atoms * n_replicas)
        return self._rows

    def _plan_gathers(self, level_elements: int) -> Tuple[np.ndarray, ...]:
        """Index tables of the gathers :meth:`add` makes, in order.

        Each is ``(1 + k, N)``: the carry rows, then the next ``k``
        levels of the table — as many as fit the element budget beside
        the carry, at least one.  A table without levels still gets one
        gather (of the carry alone), so :meth:`add` has no empty case.
        """
        carry = self.n_entries + 1 + np.arange(self.n_atoms)
        step = max(1, SCATTER_GATHER_ELEMENTS // level_elements - 1)
        return tuple(
            np.vstack([carry, self._table[start : start + step]])
            for start in range(0, max(len(self._table), 1), step)
        )

    def add(self, buf: np.ndarray, rows: np.ndarray) -> None:
        """``buf[:, idx[p], r] += rows[:, p, r]`` for every replica *r*.

        *buf* is ``(dim, N, R)`` and must not hold ``-0.0`` (start it
        from ``np.zeros``); *rows* is the array :meth:`workspace` last
        returned.  *buf* is the running sum the gathers carry.
        """
        store = rows.base  # contribution rows, zero row, carry rows
        carry = store[:, self.n_entries + 1 :]
        carry[...] = buf
        last = len(self._gathers) - 1
        for number, levels in enumerate(self._gathers):
            np.add.reduce(
                store.take(levels, axis=1),
                axis=1,
                initial=0.0,
                out=buf if number == last else carry,
            )


def empty_batch(planes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Batched result of a term with no interactions: all zeros."""
    return np.zeros(planes.shape[2]), np.zeros(planes.shape)


def pair_vectors(planes: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``r_j - r_i`` for a fixed pair list: ``(dim, N, R) -> (dim, P, R)``."""
    rij = planes.take(j, axis=1)
    rij -= planes.take(i, axis=1)
    return rij


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
    ``[j, i]`` — two ``add.at`` calls in order — is built on
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


def composite_energy_forces_batch(
    forces: Iterable[Force],
    positions: np.ndarray,
    replica_ids: Optional[np.ndarray] = None,
    need_energy: bool = True,
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Per-replica energies and forces of *forces* over ``(R, N, dim)``.

    Terms are summed in registration order with elementwise adds, so
    a replica's total does not depend on the stack it is in.
    The stack is transposed to component planes once on entry and the
    summed force planes back to ``(R, N, dim)`` once on exit.  With
    ``need_energy=False`` the ``(R,)`` energy accumulator does not
    exist and ``None`` is returned in its place.  *replica_ids* is
    handed to every term (see :meth:`Force.compute_batch`).
    """
    planes = np.ascontiguousarray(positions.transpose(2, 1, 0))
    total_e = np.zeros(positions.shape[0]) if need_energy else None
    total_f = np.zeros(planes.shape)
    for force in forces:
        e, f = force.compute_batch(
            planes, replica_ids=replica_ids, need_energy=need_energy
        )
        if need_energy:
            total_e += e
        total_f += f
    return total_e, np.ascontiguousarray(total_f.transpose(2, 1, 0))


def numerical_forces(
    force: Force, positions: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference forces, for validating analytic gradients in tests."""
    flat = positions.ravel().copy()
    shaped = flat.reshape(positions.shape)  # a view: edits to flat show
    out = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        e_plus, _ = composite_energy_forces([force], shaped)
        flat[i] = orig - eps
        e_minus, _ = composite_energy_forces([force], shaped)
        flat[i] = orig
        out[i] = -(e_plus - e_minus) / (2 * eps)
    return out.reshape(positions.shape)
