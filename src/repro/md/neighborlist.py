"""Neighbour-pair generation: all-pairs, cell lists and lazy Verlet lists.

Nonbonded forces are written against a *pair provider*: an object with
``pairs(positions) -> (i, j)`` returning index arrays of candidate
interacting pairs (i < j).  ``AllPairs`` precomputes the full pair list
minus exclusions (ideal below a few hundred particles, where numpy
overhead dominates any pruning win); ``CellList`` bins particles into
cells of the cutoff size so only the 27 neighbouring cells are searched
(linear scaling for large systems).

``VerletList`` adds *laziness* on top: candidates within
``cutoff + skin`` are cached and reused until some atom has moved more
than ``skin / 2`` since the cached build, at which point no pair
outside the cache can yet have entered the true cutoff — so reuse is
**bit-exact**, not approximate.  Two further properties make the cached
list interchangeable with ``AllPairs`` for the force kernels:

- candidates are returned in canonical ``(i, j)`` lexicographic order
  (the ``np.triu_indices`` order), and
- every kernel filters ``r < cutoff`` *before* accumulating,

so the filtered pair sequence — values, order and length — is identical
whichever provider produced it, and forces/energies match bit-for-bit.

``SharedNeighborList`` is the batched-ensemble manager: one
configuration (cutoff, skin, box, preprocessed exclusions) shared by
every replica of a topology, with one lazily-rebuilt ``VerletList``
per replica so a batch pays one *setup*, R cached lists, and rebuilds
only for replicas that actually moved past the threshold.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

import numpy as np

from repro.util.errors import ConfigurationError


def _exclusion_key(n_atoms: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Map pairs to scalar keys for fast set membership tests."""
    return i.astype(np.int64) * n_atoms + j.astype(np.int64)


class AllPairs:
    """Every unordered pair, minus exclusions, precomputed once."""

    #: The pair list never depends on coordinates, so batched force
    #: kernels may share it across every replica of a stack.
    positions_independent = True

    def __init__(
        self, n_atoms: int, exclusions: Optional[Iterable[Tuple[int, int]]] = None
    ) -> None:
        if n_atoms < 1:
            raise ConfigurationError(f"n_atoms must be >= 1, got {n_atoms}")
        self.n_atoms = n_atoms
        iu = np.triu_indices(n_atoms, k=1)
        i, j = iu[0], iu[1]
        if exclusions:
            excl = {(min(a, b), max(a, b)) for a, b in exclusions}
            if excl:
                excl_arr = np.array(sorted(excl), dtype=np.int64)
                keys = _exclusion_key(n_atoms, i, j)
                excl_keys = _exclusion_key(
                    n_atoms, excl_arr[:, 0], excl_arr[:, 1]
                )
                keep = ~np.isin(keys, excl_keys)
                i, j = i[keep], j[keep]
        self._i = np.ascontiguousarray(i)
        self._j = np.ascontiguousarray(j)

    def pairs(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return the fixed (i, j) pair arrays (positions unused)."""
        return self._i, self._j

    def __len__(self) -> int:
        return len(self._i)


class CellList:
    """Cutoff-based pair provider using spatial binning.

    Pairs further apart than ``cutoff + skin`` are never returned; the
    skin gives headroom so callers re-using a pair list across a few
    steps stay correct.

    Parameters
    ----------
    cutoff:
        Interaction cutoff (nm).
    skin:
        Extra margin added to the cell size (nm).
    exclusions:
        Pairs never returned.
    """

    #: Pair lists are rebuilt from coordinates, so batched kernels
    #: evaluate per replica.
    positions_independent = False

    def __init__(
        self,
        cutoff: float,
        skin: float = 0.1,
        exclusions: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> None:
        if cutoff <= 0:
            raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
        if skin < 0:
            raise ConfigurationError(f"skin must be >= 0, got {skin}")
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self._excl: Set[Tuple[int, int]] = (
            {(min(a, b), max(a, b)) for a, b in exclusions} if exclusions else set()
        )

    def pairs(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate pairs within ``cutoff + skin`` of each other."""
        n = len(positions)
        reach = self.cutoff + self.skin
        origin = positions.min(axis=0)
        cells = np.floor((positions - origin) / reach).astype(np.int64)
        # Hash 3-D (or 2-D) cell coordinates into a single key per atom.
        span = cells.max(axis=0) + 2
        multipliers = np.ones(positions.shape[1], dtype=np.int64)
        for d in range(1, positions.shape[1]):
            multipliers[d] = multipliers[d - 1] * span[d - 1]
        keys = cells @ multipliers

        # Group atom indices by cell.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        cell_starts = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        cell_map = {}
        boundaries = np.append(cell_starts, n)
        for s, e in zip(boundaries[:-1], boundaries[1:]):
            cell_map[sorted_keys[s]] = order[s:e]

        dim = positions.shape[1]
        offsets = np.array(
            np.meshgrid(*[[-1, 0, 1]] * dim, indexing="ij")
        ).reshape(dim, -1).T

        out_i, out_j = [], []
        unique_cells = np.unique(cells, axis=0)
        for cell in unique_cells:
            key = cell @ multipliers
            members = cell_map[key]
            for off in offsets:
                nkey = (cell + off) @ multipliers
                others = cell_map.get(nkey)
                if others is None:
                    continue
                if nkey < key:
                    continue  # each cell pair visited once
                if nkey == key:
                    ii, jj = np.triu_indices(len(members), k=1)
                    out_i.append(members[ii])
                    out_j.append(members[jj])
                else:
                    ii = np.repeat(members, len(others))
                    jj = np.tile(others, len(members))
                    out_i.append(ii)
                    out_j.append(jj)

        if not out_i:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        i = np.concatenate(out_i)
        j = np.concatenate(out_j)
        # Orient (i < j) and drop pairs beyond the reach or excluded.
        swap = i > j
        i2 = np.where(swap, j, i)
        j2 = np.where(swap, i, j)
        d = positions[j2] - positions[i2]
        within = np.sum(d * d, axis=1) <= reach * reach
        i2, j2 = i2[within], j2[within]
        if self._excl:
            excl_arr = np.array(sorted(self._excl), dtype=np.int64)
            keys_p = _exclusion_key(n, i2, j2)
            keys_e = _exclusion_key(n, excl_arr[:, 0], excl_arr[:, 1])
            keep = ~np.isin(keys_p, keys_e)
            i2, j2 = i2[keep], j2[keep]
        return i2, j2


def _normalize_exclusions(exclusions) -> Optional[np.ndarray]:
    """Exclusion pairs as a sorted, deduplicated ``(n, 2)`` int64 array.

    Accepts an iterable of pairs or an already-normalized array (which
    passes through untouched, so the preprocessing can be shared).
    """
    if exclusions is None:
        return None
    if isinstance(exclusions, np.ndarray) and exclusions.dtype == np.int64:
        return exclusions if len(exclusions) else None
    pairs = {(min(a, b), max(a, b)) for a, b in exclusions}
    if not pairs:
        return None
    return np.array(sorted(pairs), dtype=np.int64)


class VerletList:
    """Lazy candidate list: built within ``cutoff + skin``, reused while valid.

    The classic Verlet (1967) scheme with a bit-exactness guarantee
    (see the module docstring): the cached list is reused until the
    maximum single-atom displacement since the build exceeds
    ``skin / 2`` — until then every pair inside the true cutoff is
    still in the cache, and the canonical ordering makes the filtered
    kernel arithmetic identical to a fresh build (or to ``AllPairs``).
    ``skin=0`` degenerates to a rebuild on any movement.

    Parameters
    ----------
    cutoff:
        Interaction cutoff (nm).
    skin:
        Reuse margin added to the build reach (nm).
    exclusions:
        Pairs never returned (iterable of pairs, or a preprocessed
        array from :func:`_normalize_exclusions`).
    box:
        Optional periodic box lengths; candidate distances and
        displacements then use the minimum-image convention (the
        torus metric, so the ``skin / 2`` bound still holds).
    """

    #: Rebuilt from coordinates, so batched kernels must evaluate
    #: per replica (or via :class:`SharedNeighborList`).
    positions_independent = False

    def __init__(
        self,
        cutoff: float,
        skin: float = 0.3,
        exclusions: Optional[Iterable[Tuple[int, int]]] = None,
        box: Optional[np.ndarray] = None,
    ) -> None:
        if cutoff <= 0:
            raise ConfigurationError(f"cutoff must be positive, got {cutoff}")
        if skin < 0:
            raise ConfigurationError(f"skin must be >= 0, got {skin}")
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.box = np.asarray(box, dtype=float) if box is not None else None
        self._excl = _normalize_exclusions(exclusions)
        self._i: Optional[np.ndarray] = None
        self._j: Optional[np.ndarray] = None
        self._ref: Optional[np.ndarray] = None
        #: Build/reuse counters (observability and laziness tests).
        self.n_builds = 0
        self.n_reuses = 0

    def invalidate(self) -> None:
        """Drop the cache; the next :meth:`pairs` call rebuilds."""
        self._i = self._j = self._ref = None

    def _stale(self, positions: np.ndarray) -> bool:
        if self._ref is None or positions.shape != self._ref.shape:
            return True
        disp = positions - self._ref
        if self.box is not None:
            disp = disp - self.box * np.round(disp / self.box)
        max_disp_sq = float(np.max(np.sum(disp * disp, axis=1)))
        return max_disp_sq > (0.5 * self.skin) ** 2

    def _build(self, positions: np.ndarray) -> None:
        n = len(positions)
        reach = self.cutoff + self.skin
        iu, ju = np.triu_indices(n, k=1)
        rij = positions[ju] - positions[iu]
        if self.box is not None:
            rij = rij - self.box * np.round(rij / self.box)
        keep = np.sum(rij * rij, axis=1) <= reach * reach
        i, j = iu[keep], ju[keep]
        if self._excl is not None:
            keys = _exclusion_key(n, i, j)
            excl_keys = _exclusion_key(n, self._excl[:, 0], self._excl[:, 1])
            keep = ~np.isin(keys, excl_keys)
            i, j = i[keep], j[keep]
        self._i = np.ascontiguousarray(i)
        self._j = np.ascontiguousarray(j)
        self._ref = np.array(positions, dtype=positions.dtype, copy=True)
        self.n_builds += 1

    def pairs(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cached candidate pairs, rebuilt only past the skin threshold."""
        if self._stale(positions):
            self._build(positions)
        else:
            self.n_reuses += 1
        return self._i, self._j

    def __len__(self) -> int:
        return 0 if self._i is None else len(self._i)


class SharedNeighborList:
    """One neighbour-list configuration shared across a replica batch.

    Serves stacks through :meth:`replica_pairs`, which keys a
    per-replica ``VerletList`` on the *replica id* — stable across the
    batched simulation's compaction of finished replicas — so each
    replica's rebuild schedule depends only on its own motion, whatever
    stack it runs in; one-configuration callers (the domain
    decomposition, the virial) use :meth:`pairs` and its own lazy list.
    The exclusion preprocessing and all geometry parameters are shared;
    only the cached candidate arrays are per-replica.
    """

    positions_independent = False

    def __init__(
        self,
        cutoff: float,
        skin: float = 0.3,
        exclusions: Optional[Iterable[Tuple[int, int]]] = None,
        box: Optional[np.ndarray] = None,
    ) -> None:
        self.cutoff = float(cutoff)
        self.skin = float(skin)
        self.box = np.asarray(box, dtype=float) if box is not None else None
        self._excl = _normalize_exclusions(exclusions)
        self._serial = self._make_list()
        self._replicas: dict = {}

    def _make_list(self) -> VerletList:
        return VerletList(
            self.cutoff, skin=self.skin, exclusions=self._excl, box=self.box
        )

    def pairs(self, positions: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Candidates for a one-configuration caller (its own lazy list)."""
        return self._serial.pairs(positions)

    def replica_pairs(
        self, replica: int, positions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidates for one replica of a batch, lazily per replica."""
        cached = self._replicas.get(replica)
        if cached is None:
            cached = self._replicas[replica] = self._make_list()
        return cached.pairs(positions)

    def invalidate(self) -> None:
        """Drop every cached list (serial and per-replica)."""
        self._serial.invalidate()
        for cached in self._replicas.values():
            cached.invalidate()

    @property
    def n_builds(self) -> int:
        """Total builds across the serial and per-replica lists."""
        return self._serial.n_builds + sum(
            v.n_builds for v in self._replicas.values()
        )

    @property
    def n_reuses(self) -> int:
        """Total cache reuses across the serial and per-replica lists."""
        return self._serial.n_reuses + sum(
            v.n_reuses for v in self._replicas.values()
        )
