import itertools
import random
from math import gcd

import numpy as np
import pytest

from drgcayley import groups as G


def closure_by_addition(desc, gens):
    """Independent closure oracle: plain set arithmetic, no masks."""
    out = {0}
    frontier = {0}
    while frontier:
        new = set()
        for x in out:
            for g in gens:
                y = desc.add(x, g)
                if y not in out:
                    new.add(y)
        out |= new
        frontier = new
    return frozenset(out)


def test_rank_bijection_is_fixed():
    d = G.pair_group(3, 2)
    assert d.rank(4, 2) == 4 * 3 + 2
    assert d.unrank(14) == (4, 2)
    assert [d.rank(*d.unrank(r)) for r in d.elements()] == list(d.elements())


def test_element_order_examples():
    d = G.pair_group(3, 2)
    order_of = G.group_tables(d).order_of
    assert order_of[d.rank(0, 0)] == 1
    assert order_of[d.rank(3, 0)] == 3
    # iterate addition until identity, independently
    g = d.rank(1, 1)
    x, t = g, 1
    while x != 0:
        x = d.add(x, g)
        t += 1
    assert t == 9
    assert order_of[g] == 9


def test_element_orders_divide_group_order():
    for desc in (G.pair_group(3, 2), G.pair_group(5, 1), G.cyclic_group(12), G.product_group(12, 2)):
        assert (desc.order % G.group_tables(desc).order_of == 0).all()


@pytest.mark.parametrize(
    "desc,order,count",
    [
        (G.pair_group(3, 1), 3, 4),
        (G.pair_group(3, 2), 9, 4),
        (G.pair_group(3, 2), 3, 4),
        (G.pair_group(5, 1), 5, 6),
        (G.pair_group(7, 1), 7, 8),
    ],
)
def test_subgroup_counts(desc, order, count):
    assert len(G.subgroups_of_order(desc, order)) == count


def test_trivial_subgroup_only_at_order_one():
    d = G.pair_group(3, 2)
    subs = G.subgroups_of_order(d, 1)
    assert len(subs) == 1 and subs[0].members() == (0,)


def test_subgroup_enumeration_is_complete_and_sound():
    d = G.pair_group(3, 2)
    masks = {h.mask for h in G.all_subgroups(d)}
    # soundness: closed, contains identity, Lagrange
    for h in G.all_subgroups(d):
        members = set(h.members())
        assert 0 in members
        for x, y in itertools.product(members, repeat=2):
            assert d.add(x, y) in members
        assert d.order % h.order == 0
        assert closure_by_addition(d, h.generators) == frozenset(members)
    # completeness: the group is 2-generated, so pair closures cover everything
    for g, h in itertools.combinations_with_replacement(range(d.order), 2):
        cl = closure_by_addition(d, (g, h))
        assert sum(1 << x for x in cl) in masks


def test_z9z3_order9_subgroup_shapes():
    d = G.pair_group(3, 2)
    shapes = []
    for h in G.subgroups_of_order(d, 9):
        shapes.append(G.group_tables(d).order_of[list(h.members())].max())
    # one Z_3+Z_3 (exponent 3), three Z_9 (exponent 9)
    assert sorted(shapes) == [3, 9, 9, 9]


def test_order_p_subgroups_intersect_trivially_in_p_p():
    d = G.pair_group(5, 1)
    subs = G.subgroups_of_order(d, 5)
    for a, b in itertools.combinations(subs, 2):
        assert a.mask & b.mask == 1
    covered = 0
    for h in subs:
        covered |= h.mask ^ 1
    assert covered == (1 << 25) - 2  # all non-identity elements, each once


@pytest.mark.parametrize(
    "desc,count",
    [(G.pair_group(3, 1), 4), (G.pair_group(3, 2), 13), (G.pair_group(5, 1), 12)],
)
def test_inverse_pair_counts(desc, count):
    pairs = G.inverse_pairs(desc)
    assert len(pairs) == count
    assert all(len(cell) == 2 for cell in pairs)
    seen = set()
    for cell in pairs:
        for g in cell:
            assert g not in seen
            seen.add(g)
        a, b = desc.unrank(cell[0])
        assert desc.rank(-a, -b) == cell[1]
    assert seen == set(range(1, desc.order))


def test_inverse_pairs_involutions_become_singletons():
    d = G.product_group(8, 2)
    cells = G.inverse_pairs(d)
    singles = [c for c in cells if len(c) == 1]
    assert sorted(singles) == sorted(
        (d.rank(a, b),) for a, b in map(d.unrank, d.elements())
        if (a, b) != (0, 0) and d.rank(-a, -b) == d.rank(a, b)
    )
    assert len(singles) == 3


def test_atom_partition_shapes():
    d = G.pair_group(3, 1)
    sizes = sorted(len(c) for c in G.atom_partition(d))
    assert sizes == [1, 2, 2, 2, 2]
    z9 = G.cyclic_group(9)
    assert sorted(len(c) for c in G.atom_partition(z9)) == [1, 2, 6]
    # identity alone in its cell
    for desc in (d, z9):
        cells = G.atom_partition(desc)
        assert (0,) in cells


def test_atoms_refine_subgroups():
    d = G.pair_group(3, 2)
    cells = [sum(1 << g for g in c) for c in G.atom_partition(d)]
    for h in G.all_subgroups(d):
        covered = 0
        for cm in cells:
            if cm & h.mask:
                assert cm & h.mask == cm  # inside or disjoint
                covered |= cm
        assert covered == h.mask


def count_gl2(p):
    n = 0
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if (a * d - b * c) % p != 0:
            n += 1
    return n


def test_automorphism_counts():
    assert len(G.automorphism_group(G.pair_group(3, 1))) == count_gl2(3) == 48
    assert len(G.automorphism_group(G.cyclic_group(9))) == sum(
        1 for u in range(9) if gcd(u, 9) == 1
    )


def test_automorphisms_are_closed_and_contain_identity():
    d = G.pair_group(3, 2)
    auts = G.automorphism_group(d).tolist()
    perms = set(map(tuple, auts))
    assert tuple(d.elements()) in perms
    rng = random.Random(5)
    for _ in range(25):
        f, g = rng.choice(auts), rng.choice(auts)
        composed = tuple(f[g[x]] for x in d.elements())
        assert composed in perms


def test_automorphisms_preserve_structure():
    d = G.pair_group(3, 2)
    sub_masks = {h.mask: h.order for h in G.all_subgroups(d)}
    atom_masks = {sum(1 << g for g in c) for c in G.atom_partition(d)}
    for aut in G.automorphism_group(d)[:30].tolist():
        for mask, order in sub_masks.items():
            image = G.mask_of(aut[x] for x in G.iter_bits(mask))
            assert image in sub_masks and sub_masks[image] == order
        for mask in atom_masks:
            assert G.mask_of(aut[x] for x in G.iter_bits(mask)) in atom_masks


AUT_GROUPS = (
    "3^1x3", "3^2x3", "5^1x5", "7^1x7", "3^3x3", "5^2x5", "11^1x11",
    "Zn:9", "Zn:12", "6x2", "12x2", "8x4", "Zn:1",
)


def _commutes_with_generators(desc, maps, x, y):
    """Whether each map f (last axis) has f(g + (1, 0)) = f(g) + x and
    f(g + (0, 1)) = f(g) + y for every g, by the add table.  With f(0) = 0
    this makes f the homomorphism sending (1, 0) to x and (0, 1) to y."""
    add = G.group_tables(desc).add
    ok = maps[..., 0] == 0
    for gen, image in ((desc.rank(1, 0), x), (desc.rank(0, 1), y)):
        ok &= (maps[..., add[:, gen]] == add[maps, np.asarray(image)[..., None]]).all(axis=-1)
    return ok


def _is_bijective(desc, maps):
    return (np.sort(maps, axis=-1) == np.arange(desc.order)).all(axis=-1)


@pytest.mark.parametrize("spec", AUT_GROUPS)
def test_automorphism_table_is_read_only_and_strictly_ascending(spec):
    d = G.parse_group(spec)
    auts = G.automorphism_group(d)
    assert auts.dtype == np.intp and auts.ndim == 2 and auts.shape[1] == d.order
    assert not auts.flags.writeable
    with pytest.raises(ValueError):
        auts[0, 0] = 0
    # at the first entry where neighbouring rows differ, the later row is larger
    differ = auts[1:] != auts[:-1]
    assert differ.any(axis=1).all()
    first = differ.argmax(axis=1)
    rows = np.arange(len(first))
    assert (auts[1:][rows, first] > auts[:-1][rows, first]).all()


@pytest.mark.parametrize("spec", AUT_GROUPS)
def test_automorphism_rows_are_bijective_homomorphisms(spec):
    d = G.parse_group(spec)
    auts = G.automorphism_group(d)
    assert _is_bijective(d, auts).all()
    x, y = auts[:, d.rank(1, 0)], auts[:, d.rank(0, 1)]
    assert _commutes_with_generators(d, auts, x, y).all()


@pytest.mark.parametrize("spec", AUT_GROUPS)
def test_automorphism_count_matches_brute_force(spec):
    """Every (x, y) in G x G, its map (a, b) -> a x + b y formed by
    repeated addition on the add table; no element order is read."""
    d = G.parse_group(spec)
    n = d.order
    add = G.group_tables(d).add
    multiples = [np.zeros(n, dtype=np.intp)]  # multiples[k][x] = k x
    for _ in range(d.first_modulus):
        multiples.append(add[multiples[-1], np.arange(n)])
    multiples = np.array(multiples)
    a, b = np.divmod(np.arange(n), d.second_modulus)
    elements = np.arange(n)
    # maps[x, y, g] = a(g) x + b(g) y
    maps = add[multiples[a].T[:, None, :], multiples[b].T[None, :, :]]
    x, y = elements[:, None], elements[None, :]
    count = (_commutes_with_generators(d, maps, x, y) & _is_bijective(d, maps)).sum()
    assert len(G.automorphism_group(d)) == count


def test_automorphism_bound_error():
    with pytest.raises(G.AutomorphismBoundError):
        G.automorphism_group(G.cyclic_group(1024))


@pytest.mark.parametrize("order", [G.MAX_TABLE_ORDER + 1, 99999999])
def test_group_tables_refuse_orders_past_the_bound(order):
    with pytest.raises(ValueError, match="table bound"):
        G.group_tables(G.cyclic_group(order))


def test_transversal_examples():
    z9 = G.cyclic_group(9)
    h3 = next(h for h in G.subgroups_of_order(z9, 3))
    assert h3.members() == (0, 3, 6)
    assert G.is_transversal(z9, [0, 1, 2], h3)
    assert not G.is_transversal(z9, [0, 3, 6], h3)
    assert not G.is_transversal(z9, [0, 1, 2, 3], h3)


@pytest.mark.parametrize(
    "literal,expect",
    [
        ("3^2x3", "3^2x3"),
        ("3x3", "3^1x3"),
        ("Zn:27", "Zn:27"),
        ("16x2", "2^4x2"),
        ("12x2", "12x2"),
    ],
)
def test_group_literals_round_trip(literal, expect):
    assert G.parse_group(literal).spec() == expect


def test_group_literal_errors():
    for bad in ("", "3^^2x3", "Zn:", "hello", "3^2"):
        with pytest.raises(G.GroupFormatError):
            G.parse_group(bad)


def test_element_literals():
    d = G.pair_group(3, 2)
    assert d.parse_element("(4,2)") == 14
    assert d.element_str(14) == "(4,2)"
    with pytest.raises(G.GroupFormatError):
        d.parse_element("(9,0)")
    z9 = G.cyclic_group(9)
    assert z9.parse_element("7") == 7
    assert z9.element_str(7) == "7"


def lowest_bit_positions(mask):
    """Reference for ``iter_bits``: peel the lowest set bit until none is left."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def test_iter_bits_matches_the_lowest_bit_loop():
    """Zero, single bits on and across byte and word boundaries, all-ones
    words of every width to 130, and seeded masks of several densities."""
    masks = [0]
    masks += [1 << i for i in (0, 7, 8, 63, 64, 124, 200)]
    masks += [(1 << w) - 1 for w in range(1, 131)]
    rng = random.Random(18)
    for width in (8, 49, 62, 81, 121, 125, 250):
        for density in (0.02, 0.1, 0.5, 0.9):
            for _ in range(20):
                masks.append(sum(1 << i for i in range(width) if rng.random() < density))
    for mask in masks:
        got = list(G.iter_bits(mask))
        assert got == lowest_bit_positions(mask)
        assert got == sorted(set(got))  # ascending, each bit once
