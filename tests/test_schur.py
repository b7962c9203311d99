"""Group-algebra layer: convolution, distance modules and Schur-ring checks.

``is_schur_ring`` (one array pass, with two rows of products eliminated and
only half the group keyed when every cell is negation-closed) is compared
with a reference that checks the cell list and every product of two class
sums cell by cell through ``convolve``.  ``ClassSum`` and ``convolve``, the
reference's group-algebra arithmetic, live here with it.
"""

import random
from dataclasses import dataclass
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from drgcayley import cayley as C
from drgcayley import groups as G
from drgcayley import schur as SR

SCHUR_SPECS = ("3^2x3", "5^1x5", "3^3x3", "5^2x5", "11^1x11")


@dataclass(frozen=True)
class ClassSum:
    """An element of the integral group algebra as a coefficient vector."""

    group: G.GroupDescriptor
    coeffs: tuple[int, ...]

    @classmethod
    def of_subset(cls, group, mask):
        return cls(group, tuple(mask >> g & 1 for g in range(group.order)))


def convolve(x, y):
    """Group-algebra product: coefficient of g is sum_h x(h) * y(g - h)."""
    assert x.group == y.group
    sub = G.group_tables(x.group).sub
    prod = np.array(y.coeffs, dtype=np.int64)[sub] @ np.array(x.coeffs, dtype=np.int64)
    return ClassSum(x.group, tuple(int(v) for v in prod))


def lattice_module():
    d = G.pair_group(3, 1)
    subs = G.subgroups_of_order(d, 3)
    g = C.build(d, C.SymmetricSet(d, (subs[0].mask | subs[1].mask) ^ 1))
    part = C.distance_partition(g)
    return d, g, SR.distance_module(g, part)


def test_convolution_hand_example():
    """underline(H \\ 0)^2 = 2*underline(0) + underline(H \\ 0) for |H| = 3."""
    d = G.pair_group(3, 1)
    h = G.subgroups_of_order(d, 3)[0]
    cs = ClassSum.of_subset(d, h.mask ^ 1)
    sq = convolve(cs, cs)
    expect = [0] * 9
    expect[0] = 2
    for g in G.iter_bits(h.mask ^ 1):
        expect[g] = 1
    assert sq.coeffs == tuple(expect)


def test_convolution_identity_and_total():
    d = G.pair_group(3, 1)
    ident = ClassSum.of_subset(d, 1)
    rng = random.Random(4)
    vec = tuple(rng.randint(-3, 3) for _ in range(9))
    x = ClassSum(d, vec)
    assert convolve(ident, x).coeffs == vec
    total = ClassSum.of_subset(d, (1 << 9) - 1)
    assert convolve(total, total).coeffs == (9,) * 9


def test_convolution_commutative_on_abelian():
    d = G.pair_group(3, 2)
    rng = random.Random(8)
    for _ in range(10):
        x = ClassSum(d, tuple(rng.randint(0, 3) for _ in range(27)))
        y = ClassSum(d, tuple(rng.randint(0, 3) for _ in range(27)))
        assert convolve(x, y).coeffs == convolve(y, x).coeffs


def test_distance_module_cells():
    d = G.pair_group(3, 1)
    complete = C.build(d, C.SymmetricSet(d, ((1 << 9) - 1) ^ 1))
    dm = SR.distance_module(complete, C.distance_partition(complete))
    assert dm.cell_sizes() == (1, 8)
    _, _, lat = lattice_module()
    assert lat.cell_sizes() == (1, 4, 4)
    h = G.subgroups_of_order(d, 3)[0]
    km = C.build(d, C.SymmetricSet(d, ((1 << 9) - 1) ^ h.mask))
    assert SR.distance_module(km, C.distance_partition(km)).cell_sizes() == (1, 6, 2)


def test_lattice_module_is_schur_ring_with_lambda_constant():
    _, _, dm = lattice_module()
    constants = SR.is_schur_ring(dm)
    assert constants is not None
    assert constants[1, 1, 1] == 1  # the common-neighbor count of an edge
    SR.structure_constants_sanity(dm, constants)


def test_structure_constants_counting_identity():
    d, g, dm = lattice_module()
    constants = SR.is_schur_ring(dm)
    sizes = dm.cell_sizes()
    r = dm.cell_count
    for i in range(r):
        for j in range(r):
            assert sum(
                int(constants[i, j, k]) * sizes[k] for k in range(r)
            ) == sizes[i] * sizes[j]
    assert np.array_equal(constants, constants.transpose(1, 0, 2))


def test_structure_constants_sanity_refuses_asymmetric_constants():
    _, _, dm = lattice_module()
    constants = SR.is_schur_ring(dm).copy()
    constants[1, 2, 0] += 1
    with pytest.raises(AssertionError, match="not symmetric in i, j"):
        SR.structure_constants_sanity(dm, constants)


def test_structure_constants_sanity_names_the_first_pair_off_by_one():
    """p[1][2][0] and p[2][1][0] one too large keep the symmetry, and put the
    counting identity off by |T_0| = 1 at (1, 2) and (2, 1); (1, 2) is named."""
    _, _, dm = lattice_module()
    constants = SR.is_schur_ring(dm).copy()
    constants[1, 2, 0] += 1
    constants[2, 1, 0] += 1
    with pytest.raises(AssertionError) as err:
        SR.structure_constants_sanity(dm, constants)
    assert str(err.value) == "sum_k p[1][2][k] |T_k| != |T_1| |T_2|"

def test_trivial_basis():
    d = G.pair_group(3, 2)
    triv = SR.CellPartition(d, (1, ((1 << 27) - 1) ^ 1))
    assert SR.is_schur_ring(triv) is not None
    assert SR.is_primitive(triv)


def test_singleton_cells_fail():
    d = G.pair_group(3, 1)
    cells = (1, 1 << d.rank(1, 0), ((1 << 9) - 1) ^ 1 ^ (1 << d.rank(1, 0)))
    assert SR.is_schur_ring(SR.CellPartition(d, cells)) is None


def test_partition_validation():
    d = G.pair_group(3, 1)
    with pytest.raises(ValueError):
        SR.CellPartition(d, (1, 3))  # overlapping / not covering
    with pytest.raises(ValueError):
        SR.CellPartition(d, (2, ((1 << 9) - 1) ^ 2))  # cell 0 not the identity
    with pytest.raises(ValueError):
        SR.CellPartition(d, (1, 0, ((1 << 9) - 1) ^ 1))  # an empty cell


def test_primitivity_of_modules():
    d = G.pair_group(3, 1)
    h = G.subgroups_of_order(d, 3)[0]
    km = C.build(d, C.SymmetricSet(d, ((1 << 9) - 1) ^ h.mask))
    dm = SR.distance_module(km, C.distance_partition(km))
    assert SR.is_schur_ring(dm) is not None
    assert not SR.is_primitive(dm)  # the distance-2 cell is H minus identity
    _, _, lat = lattice_module()
    assert SR.is_primitive(lat)


def test_power_map():
    _, _, dm = lattice_module()
    assert SR.power_map(dm, 1) == (0, 1, 2)
    assert SR.power_map(dm, 8) == (0, 1, 2)  # negation fixes symmetric cells
    assert SR.power_map(dm, 2) == (0, 1, 2)  # unit scaling fixes subgroup unions
    with pytest.raises(ValueError):
        SR.power_map(dm, 3)  # not coprime
    d = G.pair_group(3, 1)
    bad = SR.CellPartition(
        d, (1, 1 << d.rank(1, 0), ((1 << 9) - 1) ^ 1 ^ (1 << d.rank(1, 0)))
    )
    with pytest.raises(ValueError):
        SR.power_map(bad, 2)


def test_power_map_permutes_cells_of_any_verified_basis():
    # the full atom-partition basis of Z_9 is a Schur ring; m=2 permutes cells
    z9 = G.cyclic_group(9)
    cells = tuple(sum(1 << g for g in c) for c in G.atom_partition(z9))
    basis = SR.CellPartition(z9, cells)
    assert SR.is_schur_ring(basis) is not None
    perm = SR.power_map(basis, 2)
    assert sorted(perm) == list(range(len(cells)))


def reference_is_schur_ring(basis):
    """The Schur-ring check cell by cell: inverse closure on cell masks, then
    each product of two class sums, by ``convolve``, constant on each cell."""
    desc = basis.group
    neg = G.group_tables(desc).neg
    cells = basis.cells
    for c in cells:
        if G.mask_of(int(neg[g]) for g in G.iter_bits(c)) not in cells:
            return None
    sums = [ClassSum.of_subset(desc, c) for c in cells]
    r = len(cells)
    constants = np.zeros((r, r, r), dtype=np.int64)
    for i, x in enumerate(sums):
        for j, y in enumerate(sums):
            coeffs = convolve(x, y).coeffs
            for k, c in enumerate(cells):
                values = {coeffs[g] for g in G.iter_bits(c)}
                if len(values) != 1:
                    return None
                constants[i, j, k] = values.pop()
    return constants


def assert_matches_reference(basis):
    got, want = SR.is_schur_ring(basis), reference_is_schur_ring(basis)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == np.int64 and np.array_equal(got, want)
    return got


@st.composite
def distance_modules(draw):
    """Modules of random pair-subsets and of family members: complete,
    complete multipartite (G minus a proper subgroup) and unions of
    subgroups minus the identity (the lattice and TD line graphs)."""
    desc = G.parse_group(draw(st.sampled_from(SCHUR_SPECS)))
    subs = G.all_subgroups(desc)
    full = (1 << desc.order) - 1
    kind = draw(st.sampled_from(("pairs", "complete", "multipartite", "union")))
    if kind == "pairs":
        top = (1 << len(G.inverse_pairs(desc))) - 1
        bits = draw(st.integers(0, top))
        if draw(st.booleans()):  # sparser sets reach larger diameters
            bits &= draw(st.integers(0, top))
        mask = C.SymmetricSet.from_pair_bits(desc, bits).mask
    elif kind == "complete":
        mask = full ^ 1
    elif kind == "multipartite":
        mask = full ^ draw(st.sampled_from(subs[:-1])).mask
    else:
        mask = 0
        for h in draw(st.lists(st.sampled_from(subs), min_size=1, max_size=4)):
            mask |= h.mask
        mask ^= 1
    graph = C.build(desc, C.SymmetricSet(desc, mask))
    assume(C.is_connected(graph))
    return SR.distance_module(graph, C.distance_partition(graph))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(distance_modules())
def test_one_pass_check_matches_the_reference_on_distance_modules(basis):
    assert_matches_reference(basis)


@pytest.mark.parametrize("spec", SCHUR_SPECS)
def test_atom_partitions_are_schur_rings(spec):
    desc = G.parse_group(spec)
    cells = tuple(G.mask_of(c) for c in G.atom_partition(desc))
    assert assert_matches_reference(SR.CellPartition(desc, cells)) is not None


def test_cells_that_negation_does_not_map_onto_a_cell():
    d = G.pair_group(5, 1)
    x, y, z = d.rank(1, 0), d.rank(0, 1), d.rank(1, 1)
    minus_x = d.rank(-1, 0)
    full = (1 << d.order) - 1

    def basis(*cells):
        return SR.CellPartition(d, (1, *cells, full ^ 1 ^ sum(cells)))

    # -{x, y} meets {-x, z} and the rest
    spans_two = basis(1 << x | 1 << y, 1 << minus_x | 1 << z)
    # -{x} lies strictly inside the larger cell {-x, z}
    strictly_inside = basis(1 << x, 1 << minus_x | 1 << z)
    for bad in (spans_two, strictly_inside):
        assert assert_matches_reference(bad) is None


def set_partitions(items):
    """Every partition of the list ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first], *part]
        for i in range(len(part)):
            yield [*part[:i], [first, *part[i]], *part[i + 1 :]]


# Schur rings among the partitions of G minus 0; 107 in all
SCHUR_RING_COUNTS = {
    "Zn:4": 3, "Zn:5": 3, "Zn:6": 7, "Zn:7": 4, "Zn:8": 10, "Zn:9": 7,
    "2x2": 5, "4x2": 28, "3x3": 40,
}


@pytest.mark.parametrize("spec", sorted(SCHUR_RING_COUNTS))
def test_one_pass_check_matches_the_reference_on_every_partition(spec):
    """Every partition of G minus 0, with cell 0 = {0}.  The reference still
    tests inverse closure; ``is_schur_ring`` relies on product closure alone."""
    desc = G.parse_group(spec)
    rings = 0
    for part in set_partitions(list(range(1, desc.order))):
        basis = SR.CellPartition(desc, (1, *(G.mask_of(cell) for cell in part)))
        rings += assert_matches_reference(basis) is not None
    assert rings == SCHUR_RING_COUNTS[spec]


def unit_orbit_partition(desc, u):
    """The orbits of g -> u g, a Schur ring (the orbit partition of a group of
    automorphisms); its cells are negation-closed exactly when -1 is a power of u."""
    cells, seen = [], 0
    for g in desc.elements():
        if not seen >> g & 1:
            cell, x = 0, g
            while not cell >> x & 1:
                cell |= 1 << x
                x = desc.scale(u, x)
            cells.append(cell)
            seen |= cell
    return SR.CellPartition(desc, tuple(cells))


def negation_closed(basis):
    neg = G.group_tables(basis.group).neg
    return all(G.mask_of(int(neg[g]) for g in G.iter_bits(c)) == c for c in basis.cells)


@pytest.mark.parametrize("spec", ("Zn:7", "Zn:13", "3^2x3", "5^1x5"))
def test_unit_orbit_rings_with_and_without_negation_closed_cells(spec):
    """Every unit u of Z_{p^s}: u = 1 gives the singletons (no cell
    negation-closed, all tied for the largest), u = -1 the inverse pairs
    (all closed, all tied), and the others mix sizes."""
    desc = G.parse_group(spec)
    closed = set()
    for u in range(1, desc.first_modulus):
        if gcd(u, desc.first_modulus) == 1:
            basis = unit_orbit_partition(desc, u)
            assert assert_matches_reference(basis) is not None
            closed.add(negation_closed(basis))
    assert closed == {True, False}


@pytest.mark.parametrize("spec", ("3^2x3", "5^1x5", "Zn:12"))
def test_random_partitions_with_and_without_negation_closed_cells(spec):
    """Random partitions into unions of inverse pairs (every cell
    negation-closed) and into unions of elements (almost never), most of them
    not Schur rings; dealing the atoms round-robin ties the largest cells."""
    desc = G.parse_group(spec)
    rng = random.Random(17)
    atoms_of = {
        True: [G.mask_of(cell) for cell in G.inverse_pairs(desc)],
        False: [1 << g for g in range(1, desc.order)],
    }
    for closed, atoms in atoms_of.items():
        ties = 0
        for _ in range(60):
            cells = [0] * rng.randint(1, 5)
            dealt = rng.random() < 0.5  # round-robin: sizes differ by at most one atom
            for i, atom in enumerate(rng.sample(atoms, len(atoms))):
                cells[i % len(cells) if dealt else rng.randrange(len(cells))] |= atom
            basis = SR.CellPartition(desc, (1, *(c for c in cells if c)))
            assert negation_closed(basis) or not closed
            sizes = sorted(basis.cell_sizes()[1:])
            ties += len(sizes) > 1 and sizes[-1] == sizes[-2]
            assert_matches_reference(basis)
        assert ties >= 10
