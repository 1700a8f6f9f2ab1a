"""Bit-level contract of the replica-minor batched force kernels.

Everything here compares with ``.tobytes()`` so that ``-0.0`` and the
last bit count: the gather-table scatter against ``np.add.at``, every
in-tree force term batched against its per-replica reference kernel
(``tests/serial_oracle.py``; forces exactly, energies in the
accumulation order the batched path fixes), and the numpy
reduction-order trap that order rests on.
"""

import copy
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.md.batched import BatchedSystem
from repro.md.engine import MDTask, resolve_model
from repro.md.forcefield import (
    ExcludedVolumeForce,
    GoContactForce,
    HarmonicAngleForce,
    HarmonicBondForce,
    LennardJonesForce,
    PeriodicDihedralForce,
    ReactionFieldElectrostatics,
)
from repro.md.forcefield import base
from repro.md.forcefield.base import (
    SegmentScatter,
    composite_energy_forces,
    composite_energy_forces_batch,
)
from repro.fep.sampling import _WindowForce
from repro.fep.systems import HarmonicWindow
from repro.md.neighborlist import AllPairs, CellList, VerletList
from repro.md.system import System
from repro.util.errors import ConfigurationError
from tests import serial_oracle

REPLICA_COUNTS = (1, 2, 7, 64)
N_ATOMS = 12


# -- (a) the scatter against np.add.at ---------------------------------------


def _index_list(rng, n_atoms, max_degree):
    """Random index list: degrees 0..max_degree, some atoms untouched."""
    degrees = rng.integers(0, max_degree + 1, n_atoms)
    degrees[rng.integers(n_atoms)] = max_degree
    degrees[rng.integers(n_atoms)] = 1
    degrees[:2] = 0  # untouched atoms
    indices = np.repeat(np.arange(n_atoms), degrees)
    rng.shuffle(indices)
    return indices


@pytest.mark.parametrize("n_replicas", REPLICA_COUNTS)
@pytest.mark.parametrize("max_degree", [1, 2, 5, 9])
def test_scatter_matches_add_at(n_replicas, max_degree):
    rng = np.random.default_rng(100 * max_degree + n_replicas)
    indices = _index_list(rng, N_ATOMS, max_degree)
    # wide dynamic range, so a different association changes low bits
    values = rng.standard_normal((3, len(indices), n_replicas)) * 10.0 ** (
        rng.uniform(-6, 6, (3, len(indices), n_replicas))
    )
    scatter = SegmentScatter(indices, N_ATOMS)
    rows = scatter.workspace(3, n_replicas)
    rows[:, :-1] = values
    got = np.zeros((3, N_ATOMS, n_replicas))
    scatter.add(got, rows)

    for replica in range(n_replicas):
        expect = np.zeros((N_ATOMS, 3))
        np.add.at(expect, indices, values[:, :, replica].T)
        assert got[:, :, replica].T.tobytes() == expect.tobytes()


@pytest.mark.parametrize("n_replicas", REPLICA_COUNTS)
def test_scatter_of_masked_entries_matches_filtered_add_at(n_replicas):
    """Zeroing a masked pair's scale (the kernels' cutoff handling)
    leaves ``+-0.0`` contributions in place; the filtered serial
    ``add.at`` never sees them.  Same bits, signs of zero included."""
    rng = np.random.default_rng(n_replicas)
    indices = _index_list(rng, N_ATOMS, 6)
    n_entries = len(indices)
    scale = rng.standard_normal((n_entries, n_replicas))
    vectors = rng.standard_normal((3, n_entries, n_replicas))
    mask = rng.random((n_entries, n_replicas)) < 0.6
    # one atom with every contribution masked in every replica
    mask[indices == indices[0]] = False

    scatter = SegmentScatter(indices, N_ATOMS)
    rows = scatter.workspace(3, n_replicas)
    np.multiply(np.where(mask, scale, 0.0), vectors, out=rows[:, :-1])
    assert np.signbit(rows[:, :-1][:, ~mask]).any()  # -0.0 is exercised
    got = np.zeros((3, N_ATOMS, n_replicas))
    scatter.add(got, rows)

    for replica in range(n_replicas):
        keep = mask[:, replica]
        expect = np.zeros((N_ATOMS, 3))
        np.add.at(
            expect,
            indices[keep],
            (scale[keep, replica] * vectors[:, keep, replica]).T,
        )
        assert got[:, :, replica].T.tobytes() == expect.tobytes()


def test_scatter_workspace_follows_the_stack_size():
    scatter = SegmentScatter(np.array([0, 1, 1]), 3)
    first = scatter.workspace(3, 4)
    assert scatter.workspace(3, 4) is first
    smaller = scatter.workspace(3, 2)
    assert smaller.shape == (3, 4, 2)
    assert not smaller[:, -1].any()


def test_empty_scatter_is_a_no_op():
    scatter = SegmentScatter(np.array([], dtype=int), 4)
    buf = np.zeros((3, 4, 2))
    scatter.add(buf, scatter.workspace(3, 2))
    assert not buf.any()


# -- (b) every in-tree term, batched against serial ---------------------------


def _chain_positions(rng, n_atoms):
    """A self-avoiding-ish chain with ~0.38 nm steps."""
    steps = rng.standard_normal((n_atoms, 3))
    steps *= 0.38 / np.linalg.norm(steps, axis=1)[:, None]
    return np.cumsum(steps, axis=0)


def _terms():
    rng = np.random.default_rng(7)
    n = N_ATOMS
    atoms = np.arange(n)
    bonds = np.stack([atoms[:-1], atoms[1:]], axis=1)
    triples = np.stack([atoms[:-2], atoms[1:-1], atoms[2:]], axis=1)
    quads = np.stack([atoms[:-3], atoms[1:-2], atoms[2:-1], atoms[3:]], axis=1)
    # every quadruple registered twice (two multiplicities), plus one
    # registered a third time out of order: the unique-quad expansion
    quads = np.concatenate([quads, quads, quads[:1]])
    contacts = np.array([(i, j) for i in range(n) for j in range(i + 4, n, 3)])
    box = np.array([2.0, 2.2, 2.4])
    return {
        "bond": HarmonicBondForce(
            bonds, rng.uniform(0.3, 0.4, n - 1), rng.uniform(50, 100, n - 1)
        ),
        "angle": HarmonicAngleForce(
            triples, rng.uniform(1.5, 2.2, n - 2), rng.uniform(10, 40, n - 2)
        ),
        "dihedral-duplicated-quads": PeriodicDihedralForce(
            quads,
            rng.uniform(-np.pi, np.pi, len(quads)),
            rng.uniform(0.5, 2.0, len(quads)),
            rng.integers(1, 4, len(quads)),
        ),
        "go": GoContactForce(
            contacts, rng.uniform(0.5, 0.9, len(contacts)), epsilon=1.3
        ),
        "lj-scalar": LennardJonesForce(AllPairs(n), 0.3, 0.8, cutoff=0.9),
        "lj-per-atom-box": LennardJonesForce(
            AllPairs(n, exclusions=[(0, 1), (1, 2)]),
            rng.uniform(0.25, 0.35, n),
            rng.uniform(0.5, 1.0, n),
            cutoff=0.9,
            box=box,
        ),
        "reaction-field": ReactionFieldElectrostatics(
            AllPairs(n), rng.uniform(-1, 1, n), cutoff=0.9
        ),
        "excluded-volume": ExcludedVolumeForce(
            AllPairs(n, exclusions=[(i, i + 1) for i in range(n - 1)]),
            sigma=0.35,
            cutoff_factor=2.0,
        ),
    }


TERMS = _terms()


def _stack(n_replicas):
    rng = np.random.default_rng(1000 + n_replicas)
    return np.stack([_chain_positions(rng, N_ATOMS) for _ in range(n_replicas)])


class _OnePair:
    """Pair provider holding a single fixed pair."""

    positions_independent = True

    def __init__(self, i, j):
        self._pair = np.array([i]), np.array([j])

    def pairs(self, positions):
        return self._pair


def _single_interaction_terms(term):
    """*term* split into one serial term per interaction, in order."""
    if isinstance(term, HarmonicBondForce):
        return [
            HarmonicBondForce(term.pairs[p], term.r0[p : p + 1], term.k[p : p + 1])
            for p in range(len(term.pairs))
        ]
    if isinstance(term, HarmonicAngleForce):
        return [
            HarmonicAngleForce(
                term.triples[p], term.theta0[p : p + 1], term.k[p : p + 1]
            )
            for p in range(len(term.triples))
        ]
    if isinstance(term, PeriodicDihedralForce):
        return [
            PeriodicDihedralForce(
                term.quads[p],
                term.phi0[p : p + 1],
                term.k[p : p + 1],
                term.mult[p : p + 1],
            )
            for p in range(len(term.quads))
        ]
    if isinstance(term, GoContactForce):
        return [
            GoContactForce(term.pairs[p], term.r0[p : p + 1], term.epsilon[p : p + 1])
            for p in range(len(term.pairs))
        ]
    singles = []
    for i, j in zip(*term.pair_provider.pairs(None)):
        single = copy.copy(term)
        single.pair_provider = _OnePair(i, j)
        singles.append(single)
    return singles


def _sequential_energy(term, positions):
    """One replica's energy in the order the batched path fixes: the
    serial per-interaction energies added left to right."""
    total = 0.0
    for single in _single_interaction_terms(term):
        total += serial_oracle.energy_forces(single, positions)[0]
    return np.float64(total)


@pytest.mark.parametrize("name", sorted(TERMS))
@pytest.mark.parametrize("n_replicas", REPLICA_COUNTS)
def test_term_batched_matches_serial(name, n_replicas):
    term = TERMS[name]
    batched = BatchedSystem(System(np.ones(N_ATOMS), forces=[term]), n_replicas)
    positions = _stack(n_replicas)
    energies, forces = batched.energy_forces(positions)
    assert forces.shape == positions.shape and forces.flags.c_contiguous
    assert energies.shape == (n_replicas,)

    for replica in range(n_replicas):
        energy, serial_forces = serial_oracle.energy_forces(term, positions[replica])
        assert forces[replica].tobytes() == serial_forces.tobytes()
        # serial energies use np.dot / pairwise np.sum: equal to rounding
        np.testing.assert_allclose(energies[replica], energy, rtol=1e-12)
    if n_replicas >= 2:
        # ... and exact in the batched path's own order (a one-replica
        # stack is a contiguous 1-D sum, which numpy makes pairwise)
        for replica in (0, n_replicas - 1):
            assert (
                energies[replica].tobytes()
                == _sequential_energy(term, positions[replica]).tobytes()
            )

    # a compacted stack (rows a strict subset, ids not 0..R-1)
    ids = np.arange(n_replicas)[1::2]
    if len(ids):
        sub_e, sub_f = batched.energy_forces(positions[ids], ids)
        assert sub_f.tobytes() == forces[ids].tobytes()
        if len(ids) >= 2:
            assert sub_e.tobytes() == energies[ids].tobytes()


def test_cutoff_terms_exercise_the_mask():
    """The fixtures must put pairs on both sides of every cutoff."""
    positions = _stack(7)
    for name in ("lj-scalar", "lj-per-atom-box", "reaction-field", "excluded-volume"):
        term = TERMS[name]
        i, j = term.pair_provider.pairs(positions[0])
        rij = positions[:, j] - positions[:, i]
        if getattr(term, "box", None) is not None:
            rij -= term.box * np.round(rij / term.box)
        within = np.sum(rij * rij, axis=2) < term.cutoff**2
        assert within.any() and not within.all(), name


def test_composite_sums_terms_in_registration_order():
    terms = [TERMS[name] for name in ("bond", "angle", "go", "excluded-volume")]
    positions = _stack(7)
    energies, forces = composite_energy_forces_batch(terms, positions)
    for replica in range(7):
        expect = np.zeros((N_ATOMS, 3))
        for term in terms:
            expect += serial_oracle.energy_forces(term, positions[replica])[1]
        assert forces[replica].tobytes() == expect.tobytes()


def test_type_error_inside_a_kernel_propagates():
    """No retry on another path: a TypeError raised inside a term's
    batched kernel is a bug in that kernel and must surface."""

    class Broken:
        calls = 0

        def compute_batch(self, planes, replica_ids=None, need_energy=True):
            Broken.calls += 1
            raise TypeError("unsupported operand inside the kernel")

    with pytest.raises(TypeError, match="inside the kernel"):
        composite_energy_forces_batch([Broken()], _stack(2), np.arange(2))
    assert Broken.calls == 1


# -- (c) the reduction-order trap ------------------------------------------


@pytest.mark.parametrize("n_replicas", [2, 7, 64])
def test_energy_sum_order_is_sequential_over_interactions(n_replicas):
    """``np.sum(term, axis=0)`` over a C-contiguous ``(P, R)`` plane adds
    the P rows one after another (what the pre-plane kernels got from
    summing an F-ordered ``(R, P)`` array along axis 1).  A contiguous
    ``(R, P)`` copy summed along axis 1 is pairwise instead — the trap."""
    rng = np.random.default_rng(n_replicas)
    term = rng.standard_normal((171, n_replicas)) * 10.0 ** rng.uniform(
        -3, 3, (171, n_replicas)
    )
    sequential = np.zeros(n_replicas)
    for row in term:
        sequential = sequential + row
    assert np.sum(term, axis=0).tobytes() == sequential.tobytes()
    assert np.sum(np.asfortranarray(term.T), axis=1).tobytes() == sequential.tobytes()
    pairwise = np.sum(np.ascontiguousarray(term.T), axis=1)
    assert pairwise.tobytes() != sequential.tobytes()
    np.testing.assert_allclose(pairwise, sequential, rtol=1e-9)


# -- (d) the level budget: chunked gathers never re-associate ----------------


def _budget_for(levels, n_atoms, n_replicas, dim=3):
    """Element budget that lets one gather take the carry + *levels*."""
    return (levels + 1) * dim * n_atoms * n_replicas


def _scatter_into(start, indices, values):
    """*start* ``(dim, N, R)`` after ``SegmentScatter.add`` of *values*
    ``(dim, P, R)``, and how many gathers that took."""
    dim, n_atoms, n_replicas = start.shape
    scatter = SegmentScatter(indices, n_atoms)
    rows = scatter.workspace(dim, n_replicas)
    rows[:, :-1] = values
    out = start.copy()
    scatter.add(out, rows)
    return out, len(scatter._gathers)


def _add_at_into(start, indices, values):
    """The reference: ``np.add.at`` replica by replica on ``(N, dim)``."""
    out = np.empty_like(start)
    for replica in range(start.shape[2]):
        target = start[:, :, replica].T.copy()
        np.add.at(target, indices, values[:, :, replica].T)
        out[:, :, replica] = target.T
    return out


@pytest.mark.parametrize("n_replicas", [1, 2, 6, 64])
@pytest.mark.parametrize("max_degree", [1, 3, 8, 20])
def test_scatter_level_budget_never_reassociates(monkeypatch, n_replicas, max_degree):
    """One level per gather, three, or the whole table at once: the
    same bits as ``np.add.at`` — signs of zero included — because the
    running sum rides along as the first gathered level."""
    rng = np.random.default_rng(1000 * max_degree + n_replicas)
    indices = _index_list(rng, N_ATOMS, max_degree)
    shape = (3, len(indices), n_replicas)
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    # rows of +0.0 and -0.0, and an atom that only ever receives -0.0
    values[:, rng.random(len(indices)) < 0.2] = 0.0
    values[:, rng.random(len(indices)) < 0.2] = -0.0
    values[:, indices == indices[0]] = -0.0
    assert np.signbit(values).any() and (values == 0.0).any()

    zeros = np.zeros((3, N_ATOMS, n_replicas))
    expect = _add_at_into(zeros, indices, values)
    depth = int(np.bincount(indices).max())
    gathers = []
    for levels in (1, 3, depth):
        monkeypatch.setattr(
            base,
            "SCATTER_GATHER_ELEMENTS",
            _budget_for(levels, N_ATOMS, n_replicas),
        )
        got, n_gathers = _scatter_into(zeros, indices, values)
        assert got.tobytes() == expect.tobytes(), levels
        gathers.append(n_gathers)
    assert gathers == [depth, -(-depth // 3), 1]


def test_scatter_budget_below_one_level_still_takes_one(monkeypatch):
    """The budget bounds a gather from above only while a level fits:
    a stack larger than the budget degrades to one level per gather."""
    indices = np.array([0, 1, 1, 1, 2, 2])
    values = np.arange(3.0 * 6 * 2).reshape(3, 6, 2)
    monkeypatch.setattr(base, "SCATTER_GATHER_ELEMENTS", 0)
    zeros = np.zeros((3, 3, 2))
    got, n_gathers = _scatter_into(zeros, indices, values)
    assert n_gathers == 3
    assert got.tobytes() == _add_at_into(zeros, indices, values).tobytes()


def test_scatter_adds_into_a_nonzero_buffer_in_order():
    """``add`` is ``+=``: what *buf* held is the first term of every
    atom's left-associated sum, exactly like ``np.add.at`` into it."""
    rng = np.random.default_rng(5)
    indices = _index_list(rng, N_ATOMS, 6)
    shape = (3, len(indices), 2)
    values = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    start = rng.standard_normal((3, N_ATOMS, 2)) * 1e3
    got, _ = _scatter_into(start, indices, values)
    assert got.tobytes() == _add_at_into(start, indices, values).tobytes()


def test_scatter_refuses_a_single_atom():
    """With one atom and one replica a level is a single element and
    numpy would reduce the level axis pairwise (next test)."""
    with pytest.raises(ConfigurationError):
        SegmentScatter(np.array([0, 0]), 1)


@pytest.mark.parametrize("n_replicas", [1, 2, 6, 64])
@pytest.mark.parametrize("n_atoms", [2, 19])
def test_level_axis_reduce_is_sequential(n_atoms, n_replicas):
    """``np.add.reduce(stack, axis=1, initial=0.0)`` over a C-contiguous
    ``(dim, levels, N, R)`` stack adds the ``(N, R)`` planes one after
    another from ``+0.0`` — the left association of ``np.add.at`` —
    as long as a plane has at least two elements.  A one-element plane
    makes the level axis the contiguous inner loop, which numpy sums
    pairwise: the trap ``SegmentScatter`` excludes by construction."""
    rng = np.random.default_rng(n_atoms * 100 + n_replicas)
    shape = (3, 40, n_atoms, n_replicas)
    stack = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    stack[:, :2] = -0.0  # the +0.0 start must absorb these
    sequential = np.zeros((3, n_atoms, n_replicas))
    for level in range(shape[1]):
        sequential = sequential + stack[:, level]
    out = np.empty_like(sequential)
    np.add.reduce(stack, axis=1, initial=0.0, out=out)
    assert out.tobytes() == sequential.tobytes()
    assert not np.signbit(out[sequential == 0.0]).any()

    single = stack[:, :, :1, :1]
    trap = np.add.reduce(np.ascontiguousarray(single), axis=1, initial=0.0)
    in_order = np.zeros((3, 1, 1))
    for level in range(shape[1]):
        in_order = in_order + single[:, level]
    assert trap.tobytes() != in_order.tobytes()
    np.testing.assert_allclose(trap, in_order, rtol=1e-9)


# -- (e) forces-only evaluation ------------------------------------------------


@pytest.mark.parametrize("name", sorted(TERMS))
@pytest.mark.parametrize("n_replicas", REPLICA_COUNTS)
def test_forces_do_not_depend_on_need_energy(name, n_replicas):
    """Alone and stacked: skipping the energy changes no force bit."""
    term = TERMS[name]
    positions = _stack(n_replicas)
    for replica in (0, n_replicas - 1):
        _, with_energy = composite_energy_forces([term], positions[replica])
        skipped, without = composite_energy_forces(
            [term], positions[replica], need_energy=False
        )
        assert skipped is None
        assert without.tobytes() == with_energy.tobytes()
    planes = np.ascontiguousarray(positions.transpose(2, 1, 0))
    ids = np.arange(n_replicas)
    _, with_energy = term.compute_batch(planes, replica_ids=ids)
    skipped, without = term.compute_batch(planes, replica_ids=ids, need_energy=False)
    assert skipped is None
    assert without.tobytes() == with_energy.tobytes()


@pytest.mark.parametrize("n_replicas", REPLICA_COUNTS)
def test_composite_forces_do_not_depend_on_need_energy(n_replicas):
    system = System(np.ones(N_ATOMS), forces=list(TERMS.values()))
    positions = _stack(n_replicas)
    batched = BatchedSystem(system, n_replicas)
    energies, with_energy = batched.energy_forces(positions)
    skipped, without = batched.energy_forces(positions, need_energy=False)
    assert skipped is None and energies.shape == (n_replicas,)
    assert without.tobytes() == with_energy.tobytes()
    for replica in (0, n_replicas - 1):
        _, serial = system.energy_forces(positions[replica])
        skipped, serial_without = system.energy_forces(
            positions[replica], need_energy=False
        )
        assert skipped is None
        assert serial_without.tobytes() == serial.tobytes()
        assert serial.tobytes() == with_energy[replica].tobytes()


def _spring(positions, need_energy=True):
    return 0.5 * float(np.sum(positions**2)), -positions


class _SerialOnlySpring:
    """A term with only the per-configuration method terms once had."""

    energy_forces = staticmethod(_spring)


class _SpringWithoutKeyword:
    """A user-written term from before ``need_energy`` existed."""

    def energy_forces(self, positions):
        return _spring(positions)

    def compute_batch(self, planes, replica_ids=None):
        return 0.5 * np.sum(planes * planes, axis=(0, 1)), -planes


class _BatchWithoutKeyword(_SerialOnlySpring):
    compute_batch = _SpringWithoutKeyword.compute_batch


@pytest.mark.parametrize(
    "term, lacks",
    [
        (_SerialOnlySpring(), "compute_batch()"),
        (_SpringWithoutKeyword(), "need_energy keyword of compute_batch()"),
        (_BatchWithoutKeyword(), "need_energy keyword of compute_batch()"),
    ],
    ids=["no-compute-batch", "no-keyword", "no-batch-keyword"],
)
def test_a_term_outside_the_force_protocol_is_refused(term, lacks):
    """Checked once, where the term joins a system — not a slow path
    found at step 40 000 — and the message names the term."""
    name = type(term).__name__
    with pytest.raises(ConfigurationError) as refused:
        System(np.ones(N_ATOMS), forces=[TERMS["bond"], term])
    assert name in str(refused.value) and lacks in str(refused.value)

    system = System(np.ones(N_ATOMS), forces=[TERMS["bond"]])
    with pytest.raises(ConfigurationError) as refused:
        system.add_force(term)
    assert name in str(refused.value) and lacks in str(refused.value)
    assert system.forces == [TERMS["bond"]]


@pytest.mark.parametrize("n_replicas", [1, 3])
def test_fep_window_force_batched_equals_serial(n_replicas):
    """The free-energy window adapter meets the protocol: its force
    planes are the serial bits on both system paths."""
    force = _WindowForce(HarmonicWindow(k=7.3, x0=0.4))
    system = System(masses=[1.0], forces=[force], dim=1)
    positions = np.random.default_rng(n_replicas).normal(size=(n_replicas, 1, 1))
    batched = BatchedSystem(system, n_replicas)
    energies, forces = batched.energy_forces(positions)
    skipped, forces_only = batched.energy_forces(positions, need_energy=False)
    assert skipped is None and forces_only.tobytes() == forces.tobytes()
    for replica in range(n_replicas):
        energy, serial = serial_oracle.system_energy_forces(
            system, positions[replica]
        )
        assert forces[replica].tobytes() == serial.tobytes()
        np.testing.assert_allclose(energies[replica], energy, rtol=1e-15)


# -- positions-dependent pair lists: per replica, in the term ----------------

#: Nonbonded terms built over a pair provider, each provider's cutoff
#: the term's own.
PRUNED_TERMS = {
    "lj": (0.9, lambda pairs: LennardJonesForce(pairs, 0.3, 0.8, cutoff=0.9)),
    "reaction-field": (
        0.9,
        lambda pairs: ReactionFieldElectrostatics(
            pairs, np.linspace(-1.0, 1.0, N_ATOMS), cutoff=0.9
        ),
    ),
    "excluded-volume": (
        0.7,
        lambda pairs: ExcludedVolumeForce(pairs, sigma=0.35, cutoff_factor=2.0),
    ),
}
PROVIDERS = {"cell-list": CellList, "verlet": VerletList}


@pytest.mark.parametrize("n_replicas", [1, 3])
@pytest.mark.parametrize("provider", sorted(PROVIDERS))
@pytest.mark.parametrize("name", sorted(PRUNED_TERMS))
def test_positions_dependent_pairs_batched_equal_serial(name, provider, n_replicas):
    """A cell list or a bare Verlet list cannot share one pair list
    across replicas, so ``compute_batch`` asks it once per column: the
    force planes are each replica's serial bits, whether the ids are
    ``None``, ``0..R-1`` or a compacted, non-contiguous subset."""
    cutoff, build = PRUNED_TERMS[name]
    reference = build(PROVIDERS[provider](cutoff))
    batched = BatchedSystem(
        System(np.ones(N_ATOMS), forces=[build(PROVIDERS[provider](cutoff))]),
        n_replicas,
    )
    positions = _stack(n_replicas)
    serial = [serial_oracle.energy_forces(reference, p) for p in positions]
    for ids in (None, np.arange(n_replicas)):
        energies, forces = batched.energy_forces(positions, ids)
        for replica, (energy, expect) in enumerate(serial):
            assert forces[replica].tobytes() == expect.tobytes()
            assert energies[replica] == energy
    if n_replicas == 3:
        ids = np.array([0, 2])
        _, forces = batched.energy_forces(positions[ids], ids, need_energy=False)
        for row, replica in enumerate(ids):
            assert forces[row].tobytes() == serial[replica][1].tobytes()


# -- (f0) step plans: every registered model, mixed plans ---------------------

#: Every registered model with force terms, small enough for the
#: per-interaction references; lj-fluid on both of its pair providers
#: (``"verlet"`` is a lazy SharedNeighborList: a stage of the plan).
PLAN_MODELS = {
    "villin-fast": ("villin-fast", {}),
    "villin-full": ("villin-full", {}),
    "double-well": ("double-well", {}),
    "double-well-2d": ("double-well", {"dim": 2}),
    "tilted": ("double-well", {"slope": 0.8}),
    "muller-brown": ("muller-brown", {}),
    "lj-fluid-all-pairs": ("lj-fluid", {"n_particles": 27}),
    "lj-fluid-verlet": ("lj-fluid", {"n_particles": 27, "neighborlist": "verlet"}),
}
PLAN_REPLICAS = (1, 2, 6, 33)


def _model_stack(model, params, n_replicas):
    built = resolve_model(model, params)
    stack = np.stack(
        [
            built.state_builder(
                MDTask(model=model, n_steps=1, seed=r, model_params=params)
            ).positions
            for r in range(n_replicas)
        ]
    )
    return built.system, stack


def _plan_energy(terms, stack, replica):
    """A replica's composite energy in the plan's order: ``0.0`` plus
    each term's energy in registration order, a fixed-list term's as
    its serial per-interaction energies added left to right, any other
    term's as its own kernel gives it."""
    total = 0.0
    for term in terms:
        fixed = getattr(term, "fixed_list", None)
        if fixed is not None and fixed() is not None:
            total += _sequential_energy(term, stack[replica])
        else:
            planes = np.ascontiguousarray(stack.transpose(2, 1, 0))
            total += term.compute_batch(planes)[0][replica]
    return np.float64(total)


def _assert_plan_matches_reference(system, stack, batched):
    n_replicas = len(stack)
    energies, forces = batched.energy_forces(stack)
    skipped, forces_only = batched.energy_forces(
        stack, np.arange(n_replicas), need_energy=False
    )
    assert skipped is None and forces_only.tobytes() == forces.tobytes()
    for replica in range(n_replicas):
        energy, expect = serial_oracle.system_energy_forces(system, stack[replica])
        assert forces[replica].tobytes() == expect.tobytes(), replica
        np.testing.assert_allclose(energies[replica], energy, rtol=1e-12)
    if n_replicas >= 2:
        for replica in (0, n_replicas - 1):
            expect = _plan_energy(system.forces, stack, replica)
            assert energies[replica].tobytes() == expect.tobytes()
    # a compacted stack: every other row, ids not 0..R'-1
    ids = np.arange(n_replicas)[1::2]
    if len(ids):
        for need_energy in (True, False):
            sub_e, sub_f = batched.energy_forces(stack[ids], ids, need_energy)
            assert sub_f.tobytes() == forces[ids].tobytes()
            if need_energy and len(ids) >= 2:
                assert sub_e.tobytes() == energies[ids].tobytes()


@pytest.mark.parametrize("n_replicas", PLAN_REPLICAS)
@pytest.mark.parametrize("name", sorted(PLAN_MODELS))
def test_model_step_plan_equals_the_reference_kernels(name, n_replicas):
    """A model's step plan: forces are the reference kernels' bits
    summed in registration order, and energies (R >= 2) the plan's
    own order exactly, alone and in a compacted stack."""
    system, stack = _model_stack(*PLAN_MODELS[name], n_replicas)
    _assert_plan_matches_reference(
        system, stack, BatchedSystem(system, n_replicas)
    )


@pytest.mark.parametrize("n_replicas", PLAN_REPLICAS)
def test_plan_with_stages_between_fixed_lists(n_replicas):
    """Fixed-list terms and positions-dependent stages interleaved,
    and a term with no interactions: still the reference sum."""
    cell_lj = LennardJonesForce(CellList(0.9), 0.3, 0.8, cutoff=0.9)
    no_contacts = GoContactForce(np.zeros((0, 2), dtype=int), np.zeros(0))
    terms = [TERMS["bond"], cell_lj, no_contacts, TERMS["go"],
             TERMS["dihedral-duplicated-quads"], TERMS["lj-per-atom-box"]]
    system = System(np.ones(N_ATOMS), forces=terms)
    _assert_plan_matches_reference(
        system, _stack(n_replicas), BatchedSystem(system, n_replicas)
    )


def test_plan_sums_many_one_element_planes_in_order():
    """Nine terms on one 1-D particle: the slot axis is then numpy's
    inner loop, which it would sum pairwise; the plan adds in order."""
    terms = [_WindowForce(HarmonicWindow(k=10.0**p, x0=0.1 * p)) for p in range(-4, 5)]
    system = System(masses=[1.0], forces=terms, dim=1)
    position = np.array([[0.37]])
    expect = np.zeros((1, 1))
    for term in terms:
        expect += serial_oracle.energy_forces(term, position)[1]
    assert system.energy_forces(position)[1].tobytes() == expect.tobytes()


def test_system_rebuilds_its_plan_when_its_terms_change():
    system = System(np.ones(N_ATOMS), forces=[TERMS["bond"]])
    first = system.step_plan
    assert system.step_plan is first
    system.add_force(TERMS["go"])
    assert system.step_plan is not first
    assert system.step_plan.forces == (TERMS["bond"], TERMS["go"])


# -- (f) energies: the parent commit's bits --------------------------------------


GOLDEN_ENERGIES = Path(__file__).parent / "data" / "kernel_energies.json"


def _energy_digests():
    """sha256 of the float64 energies of every fixture term (batched, in
    a one-term system) and of the villin-fast composite (batched and
    serial) at R = 1, 2, 6, 64.  ``tests/data/kernel_energies.json`` is
    this dict as computed by the commit before the forces-only kernels
    (``python -c "import json, tests.test_scatter_plan as t;
    print(json.dumps(t._energy_digests(), indent=0, sort_keys=True))"``)."""
    def digest(energies):
        raw = np.asarray(energies, dtype=np.float64).tobytes()
        return hashlib.sha256(raw).hexdigest()

    out = {}
    built = resolve_model("villin-fast", {})
    for n_replicas in (1, 2, 6, 64):
        positions = _stack(n_replicas)
        for name in sorted(TERMS):
            system = System(np.ones(N_ATOMS), forces=[TERMS[name]])
            energies, _ = BatchedSystem(system, n_replicas).energy_forces(positions)
            out[f"{name}/R{n_replicas}"] = digest(energies)
        stack = np.stack(
            [
                built.state_builder(
                    MDTask(model="villin-fast", n_steps=1, seed=40 + r)
                ).positions
                for r in range(n_replicas)
            ]
        )
        energies, _ = BatchedSystem(built.system, n_replicas).energy_forces(stack)
        out[f"villin-fast/R{n_replicas}"] = digest(energies)
        # the per-replica composite's sums, from the reference kernels
        out[f"villin-fast-serial/R{n_replicas}"] = digest(
            [serial_oracle.system_energy_forces(built.system, p)[0] for p in stack]
        )
    return out


def test_energies_equal_the_parent_commits_bits():
    """With energies on, every term and the composite return the bits
    they returned before the kernels learned to skip them."""
    golden = json.loads(GOLDEN_ENERGIES.read_text())
    got = _energy_digests()
    assert sorted(got) == sorted(golden)
    assert {k: v for k, v in got.items() if golden[k] != v} == {}


# -- (g) the allocation trap, as a guard ----------------------------------------


_PAGE_FAULT_PROBE = """
import resource
import numpy as np
from repro.md.batched import BatchedSimulation, BatchedSystem, make_batched_integrator
from repro.md.engine import MDTask, resolve_model

built = resolve_model("villin-fast", {})
for n_replicas in (6, 64):
    stack = np.stack([
        built.state_builder(MDTask(model="villin-fast", n_steps=1, seed=r)).positions
        for r in range(n_replicas)
    ])
    system, ids = BatchedSystem(built.system, n_replicas), np.arange(n_replicas)
    for _ in range(20):
        system.energy_forces(stack, ids, need_energy=False)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(200):
        system.energy_forces(stack, ids, need_energy=False)
    print(n_replicas, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

for n_replicas in (6, 64):
    simulation = BatchedSimulation(
        built.system,
        make_batched_integrator("langevin", 0.02, 300.0, 1.0, range(n_replicas)),
        [
            built.state_builder(MDTask(model="villin-fast", n_steps=1, seed=r))
            for r in range(n_replicas)
        ],
    )
    simulation.run(20)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    simulation.run(200)
    print(-n_replicas, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_steady_state_evaluations_do_not_page_fault():
    """After warm-up, 200 composite villin-fast evaluations touch no
    fresh page at R=6 and fewer than 50 at R=64, and neither do 200
    whole Langevin steps through ``BatchedSimulation.run``.  A temporary at or
    above malloc's mmap threshold (or enough live ones to make the heap
    trim itself) is mapped afresh on every call and pays a minor fault
    per 4 KiB — the trap that made a one-shot scatter gather and a
    196 KiB dihedral expansion *slower* than the loops they replaced.
    Run in a fresh interpreter so the heap's history is this probe's
    alone."""
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run(
        [sys.executable, "-c", _PAGE_FAULT_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    faults = dict(map(int, line.split()) for line in out.splitlines())
    assert faults[6] == 0
    assert faults[64] < 50
    # whole Langevin steps (negative keys): kicks, drifts, block noise
    assert faults[-6] == 0
    assert faults[-64] < 50
