"""The force protocol, the scatter and the step plan that sums the terms.

Every force term implements one method (:class:`Force`),
``compute_batch(planes, replica_ids=None, need_energy=True)``, over a
stack of R replicas of one system; one replica is a stack of one
(:func:`composite_energy_forces`).  A
:class:`~repro.md.system.System` checks each term once, when it is
added (:func:`check_force`), so a term that lacks the method or the
keyword is a :class:`ConfigurationError` naming the term, never a slow
path found mid-run.

The kernels work on **replica-minor component planes** ``(dim, N, R)``:
a :class:`StepPlan` transposes the ``(R, N, dim)`` stack once, gathers
the difference vectors of every fixed-list term at once, runs each
term's arithmetic on its slice and sums the terms' planes straight into
the ``(R, N, dim)`` result.  A term evaluated alone (``compute_batch``)
is a one-term plan.  With ``need_energy=False`` a kernel skips its
energy lines and returns ``None`` in the energy slot; no force bit
changes.

A replica's forces are the same bits whatever the stack's size or
compaction, and the same bits as the per-replica ``(N, dim)`` kernels
the stacks replaced (``tests/serial_oracle.py``): every operation is
elementwise over the replica axis in the per-replica kernel's operand
order, :func:`plane_dot` associates like ``np.sum(a * b, axis=-1)``
over a length-3 axis, and :class:`SegmentScatter` keeps ``np.add.at``'s
order.  Per-replica energies are ``np.sum(term, axis=0)`` over a
C-contiguous ``(P, R)`` plane, left-associated in interaction order for
every R >= 2; at R = 1 numpy sums the column pairwise, so a result that
must not depend on its stack (a command's final energy) is a stack of
one.  DESIGN.md "Kernel memory layout" has the measurements, and
``tests/test_scatter_plan.py`` pins every claim.
"""

from __future__ import annotations

import inspect
from typing import Iterable, List, Optional, Protocol, Tuple

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
    forces: Iterable[Force], positions: np.ndarray, need_energy: bool = True
) -> Tuple[Optional[float], np.ndarray]:
    """Energy and forces of *forces* at one ``(N, dim)`` configuration.

    A stack of one through :func:`composite_energy_forces_batch`.  With
    ``need_energy=False`` the energy is ``None``.
    """
    energies, stack = composite_energy_forces_batch(
        forces, positions[None], None, need_energy
    )
    return (float(energies[0]) if need_energy else None), stack[0]


def composite_energy_forces_batch(
    forces: Iterable[Force], positions: np.ndarray, replica_ids=None, need_energy=True
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """Per-replica energies and forces of *forces* over ``(R, N, dim)``:
    :meth:`StepPlan.evaluate` (a lone term's plan is kept on the term)."""
    forces = tuple(forces)
    if len(forces) == 1:
        plan = solo_plan(forces[0], positions.shape[1])
    else:
        plan = StepPlan(forces, positions.shape[1])
    return plan.evaluate(positions, replica_ids, need_energy)


def plane_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product over the leading (component) axis of two plane stacks.

    ``(dim, ...) x (dim, ...) -> (...)``, accumulated left to right —
    the association ``np.sum(a * b, axis=-1)`` uses on ``(P, dim)``
    rows.  The adds stay explicit because a reduction starts from
    ``+0.0`` and would turn three ``-0.0`` products into ``+0.0``.
    """
    products = a * b
    out = products[0] + products[1]
    for product in products[2:]:
        out += product
    return out


def squared_norms(a: np.ndarray, out=None, products=None) -> np.ndarray:
    """``plane_dot(a, a)`` in one multiply and one reduction: a square
    is never ``-0.0``, so the reduction's ``+0.0`` start changes no bit
    (and it adds plane after plane, as :class:`SegmentScatter` says)."""
    return np.add.reduce(np.multiply(a, a, out=products), axis=0, out=out)


#: Most float64 elements :meth:`SegmentScatter.add` gathers with one
#: ``np.take`` (128 KiB, glibc's ``mmap`` threshold): a larger temporary
#: is a fresh mapping on every call, a page fault per 4 KiB.  Not a
#: setting: it is a property of the allocator, not of a workload.
SCATTER_GATHER_ELEMENTS = 16384


class SegmentScatter:
    """Replica-batched ``np.add.at`` over a fixed index list.

    The scatter is precomputed into a ``(D, N)`` *gather table*: level
    ``d`` holds, for every atom, the position in the index list of that
    atom's ``d``-th contribution in ``add.at`` order, or the position of
    a zero row.  :meth:`add` gathers several levels with one ``np.take``
    into a ``(dim, levels, N, R)`` stack and reduces over the level axis.
    That is exact: the ``(N, R)`` planes of a level are contiguous and at
    least two elements long, so numpy adds them one after another, with
    ``add.at``'s left association ``((0 + v1) + v2) + ...``.  The running
    sum rides in *carry rows* as the first level of every gather, so the
    number of levels a gather takes (:data:`SCATTER_GATHER_ELEMENTS`)
    never re-associates; and a sum from ``+0.0`` is never ``-0.0``, so
    the zero row's padding and a masked pair's ``+-0.0`` change nothing.
    """

    def __init__(self, indices: np.ndarray, n_atoms: int) -> None:
        if n_atoms < 2:
            # A one-element plane would make the level axis numpy's
            # inner, pairwise-summed loop.
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
        self._rows: Optional[np.ndarray] = None

    def workspace(self, dim: int, n_replicas: int) -> np.ndarray:
        """The ``(dim, n_entries + 1, R)`` contribution rows to fill.

        Kernels overwrite rows ``[0, n_entries)`` (aligned with the
        index list) and hand the array to :meth:`add`; the last row is
        the zero row, and the base array holds the carry rows behind
        it.  Kept between calls, reallocated only for a new stack size.
        """
        shape = (dim, self.n_entries + 1, n_replicas)
        if self._rows is None or self._rows.shape != shape:
            store = np.empty((dim, self.n_entries + 1 + self.n_atoms, n_replicas))
            self._rows = store[:, : self.n_entries + 1]
            self._rows[:, -1] = 0.0
            self._gathers = self._plan_gathers(dim * self.n_atoms * n_replicas)
        return self._rows

    def _plan_gathers(self, level_elements: int) -> Tuple[np.ndarray, ...]:
        """Index tables of the gathers :meth:`add` makes, in order: each
        is the carry rows, then as many levels as fit the budget (at
        least one).  The first also comes with the zero row in place of
        the carry (``_fresh``), for a sum that starts from ``+0.0``."""
        carry = self.n_entries + 1 + np.arange(self.n_atoms)
        step = max(1, SCATTER_GATHER_ELEMENTS // level_elements - 1)
        gathers = tuple(
            np.vstack([carry, self._table[start : start + step]])
            for start in range(0, max(len(self._table), 1), step)
        )
        first = gathers[0].copy()
        first[0] = self.n_entries
        self._fresh = (first,) + gathers[1:]
        return gathers

    def add(self, buf: np.ndarray, rows: np.ndarray, overwrite: bool = False) -> None:
        """``buf[:, idx[p], r] += rows[:, p, r]`` for every replica *r*.

        *buf* is ``(dim, N, R)`` and must not hold ``-0.0``; *rows* is
        the array :meth:`workspace` last returned.  With
        ``overwrite=True`` *buf* is not read: the sum starts from
        ``+0.0``, what ``np.zeros`` then ``add`` would give.
        """
        store = rows.base  # contribution rows, zero row, carry rows
        carry = store[:, self.n_entries + 1 :]
        if not overwrite:
            carry[...] = buf
        gathers = self._fresh if overwrite else self._gathers
        last = len(gathers) - 1
        for number, levels in enumerate(gathers):
            np.add.reduce(
                store.take(levels, axis=1),
                axis=1,
                initial=0.0,
                out=buf if number == last else carry,
            )


def _wrap(planes: np.ndarray) -> np.ndarray:
    """Repeat components x, y behind z: ``planes[:3]`` -> ``(x, y, z, x, y)``,
    so the cyclic shifts of a cross product are the slices ``[1:4]`` and
    ``[2:5]``."""
    planes[3:] = planes[:2]
    return planes


def scratch(work: dict, key: str, shape: tuple) -> np.ndarray:
    """Buffer *key* of a term's *work* dict, made on first use."""
    if key not in work:
        work[key] = np.empty(shape)
    return work[key]


def columns(work: dict, n_replicas: int, *cols: np.ndarray) -> List[np.ndarray]:
    """The ``(P, 1)`` parameter columns *cols* repeated to ``(P, R)``
    once per *work* dict: the same values, but an operation on two
    same-shape arrays skips numpy's broadcasting machinery."""
    if "columns" not in work:
        work["columns"] = [np.repeat(c, n_replicas, axis=1) for c in cols]
    return work["columns"]


class StepPlan:
    """One evaluation of a list of force terms over a replica stack.

    A *fixed-list* term declares ``fixed_list() -> (heads, tails,
    scatter indices)``: the vectors ``r[head] - r[tail]`` its kernel
    reads and the atom of each of its scatter rows.  The plan
    concatenates the lists, so an evaluation gathers every term's
    vectors with one ``take`` pair and one subtraction into a
    ``(5, V, R)`` buffer (rows 3-4 are room for :func:`_wrap`) and
    squares them with one :func:`squared_norms`; a ``minimum_image``
    method corrects a periodic term's slice first.  Each term's
    ``plane_forces(vectors, squares, rows, work, need_energy)`` then runs
    its arithmetic on its slice into its own :class:`SegmentScatter`
    rows and returns its energies.  Any other term is a stage that
    calls its ``compute_batch``.

    Terms are summed in registration order, ``((0 + F1) + F2) + ...``:
    each term's planes fill a slot of a ``(K, dim, N, R)`` stack and one
    reduction adds the slots in order.  Every buffer persists between
    evaluations and is reallocated only when the stack size changes.
    """

    def __init__(self, forces: Iterable[Force], n_atoms: int) -> None:
        self.forces = tuple(forces)
        self.n_atoms = int(n_atoms)
        heads, tails, self._terms, self._images = [], [], [], []
        for force in self.forces:
            fixed = getattr(force, "fixed_list", None)
            fixed = fixed() if fixed is not None else None
            if fixed is not None and len(fixed[0]) == 0:
                continue  # no interactions: zero forces and energies
            window = scatter = None
            if fixed is not None:
                start = sum(map(len, heads))
                window = slice(start, start + len(fixed[0]))
                heads.append(fixed[0])
                tails.append(fixed[1])
                if hasattr(force, "minimum_image"):
                    self._images.append((force, window))
                scatter = SegmentScatter(fixed[2], self.n_atoms)
            self._terms.append((force, window, scatter))
        self._heads = self._tails = None
        if heads:
            self._heads = np.concatenate(heads).astype(np.intp)
            self._tails = np.concatenate(tails).astype(np.intp)
            ends = np.concatenate([self._heads, self._tails])
            if ends.min() < 0 or ends.max() >= self.n_atoms:
                raise ConfigurationError("a force term indexes a missing atom")
        self._shape: Optional[Tuple[int, int]] = None

    def _reserve(self, dim: int, n_replicas: int) -> None:
        if self._shape == (dim, n_replicas):
            return
        self._shape = (dim, n_replicas)
        n_vectors = 0 if self._heads is None else len(self._heads)
        plane = (dim, self.n_atoms, n_replicas)
        self._vectors = np.empty((dim + 2, n_vectors, n_replicas))
        self._spare = np.empty((dim, n_vectors, n_replicas))
        self._squares = np.empty((n_vectors, n_replicas))
        self._planes = np.empty(plane)
        self._slots = np.zeros((max(len(self._terms), 1),) + plane)
        # A stage: (term, slot); a fixed-list term: its views too.
        self._stages = [
            (force, slot)
            if scatter is None
            else (force, slot, scatter, self._vectors[:, window],
                  self._squares[window], scatter.workspace(dim, n_replicas), {})
            for (force, window, scatter), slot in zip(self._terms, self._slots)
        ]

    def gather(self, planes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Every fixed-list vector ``(5, V, R)`` and squared length
        ``(V, R)``: views of persistent buffers."""
        dim = planes.shape[0]
        self._reserve(dim, planes.shape[2])
        # mode="clip" lets take() write into ``out`` directly; the
        # indices were range-checked when the plan was built.
        heads = planes.take(self._heads, axis=1, out=self._vectors[:dim], mode="clip")
        heads -= planes.take(self._tails, axis=1, out=self._spare, mode="clip")
        for force, window in self._images:
            force.minimum_image(heads[:, window])
        squared_norms(heads, out=self._squares, products=self._spare)
        return self._vectors, self._squares

    def planes_forces(
        self, planes: np.ndarray, replica_ids, need_energy: bool, out: np.ndarray
    ) -> List[Optional[np.ndarray]]:
        """Every term's force planes summed into *out* ``(dim, N, R)``;
        each evaluated term's energies (or ``None``), in order."""
        self._reserve(planes.shape[0], planes.shape[2])
        if self._heads is not None:
            self.gather(planes)
        energies = []
        for stage in self._stages:
            if len(stage) == 2:
                force, slot = stage
                e, slot[...] = force.compute_batch(
                    planes, replica_ids=replica_ids, need_energy=need_energy
                )
            else:
                force, slot, scatter, vectors, squares, rows, work = stage
                e = force.plane_forces(vectors, squares, rows, work, need_energy)
                scatter.add(slot, rows, overwrite=True)
            energies.append(e)
        if out.size > 1 or len(self._slots) < 8:
            np.add.reduce(self._slots, axis=0, initial=0.0, out=out)
        else:  # one-element planes: numpy would sum 8+ slots pairwise
            out[...] = 0.0
            for slot in self._slots:
                out += slot
        return energies

    def evaluate(
        self, positions: np.ndarray, replica_ids=None, need_energy: bool = True
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        """Per-replica energies (``None`` with ``need_energy=False``)
        and a new ``(R, N, dim)`` force array, summed into through its
        transposed view; *replica_ids* goes to every stage."""
        self._reserve(positions.shape[2], positions.shape[0])
        np.copyto(self._planes, positions.transpose(2, 1, 0))
        forces = np.empty(positions.shape)
        energies = self.planes_forces(
            self._planes, replica_ids, need_energy, forces.transpose(2, 1, 0)
        )
        total_e = None
        if need_energy:
            total_e = np.zeros(positions.shape[0])
            for e in energies:
                total_e += e
        return total_e, forces

    def reset(self) -> None:
        """Drop every term's per-replica caches (lazy neighbour lists)."""
        for force in self.forces:
            provider = getattr(force, "pair_provider", None)
            if hasattr(provider, "invalidate"):
                provider.invalidate()


def solo_plan(term, n_atoms: int) -> StepPlan:
    """The one-term :class:`StepPlan` of *term*, kept on the term."""
    plan = getattr(term, "_solo_plan", None)
    if plan is None or plan.forces[0] is not term or plan.n_atoms != n_atoms:
        plan = term._solo_plan = StepPlan([term], n_atoms)
    return plan


def fixed_list_batch(
    self, planes: np.ndarray, replica_ids=None, need_energy: bool = True
) -> Tuple[Optional[np.ndarray], np.ndarray]:
    """``compute_batch`` of a fixed-list term (bound on each class, so
    a per-class profile sees it): the term's one-term plan over
    ``(3, N, R)`` planes."""
    forces = np.empty(planes.shape)
    energies = solo_plan(self, planes.shape[1]).planes_forces(
        planes, None, need_energy, forces
    )
    if not need_energy:
        return None, forces
    return (energies[0] if energies else np.zeros(planes.shape[2])), forces


def pair_rows(rows: np.ndarray, fscale: np.ndarray, vectors: np.ndarray) -> None:
    """A pair term's scatter rows over ``[j, i]``: ``+fscale * rij`` on
    j, minus on i, for ``(P, R)`` *fscale* and its ``rij`` *vectors*."""
    n_pairs = vectors.shape[1]
    fij = np.multiply(fscale, vectors[: len(rows)], out=rows[:, :n_pairs])
    np.negative(fij, out=rows[:, n_pairs:-1])


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
