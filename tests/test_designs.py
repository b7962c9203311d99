import itertools
import random
from dataclasses import astuple

import pytest

from drgcayley import cayley as C
from drgcayley import designs as DS
from drgcayley import drg as D
from drgcayley import groups as G


@pytest.mark.parametrize("p,r,count", [(3, 2, 6), (5, 3, 20), (3, 5, 0)])
def test_pcp_counts(p, r, count):
    assert len(list(DS.pcp_enumerate(G.pair_group(p, 1), r))) == count


def test_pcp_requires_square_order():
    with pytest.raises(ValueError):
        DS.pcp_enumerate(G.pair_group(3, 2), 2)


def test_td_from_pcp_shapes_and_axioms():
    d = G.pair_group(3, 1)
    td = DS.td_from_pcp(next(DS.pcp_enumerate(d, 2)))
    assert len(td.points) == 6 and len(td.lines) == 9
    td.validate()
    d5 = G.pair_group(5, 1)
    td35 = DS.td_from_pcp(next(DS.pcp_enumerate(d5, 3)))
    assert len(td35.points) == 15 and len(td35.lines) == 25
    # every line meets every class exactly once
    for line in td35.lines:
        classes = [next(ci for ci, cls in enumerate(td35.classes) if pt in cls) for pt in line]
        assert sorted(classes) == list(range(3))


def test_td_rejects_degenerate_degree():
    d = G.pair_group(3, 1)
    full = list(DS.pcp_enumerate(d, 4))
    assert len(full) == 1
    with pytest.raises(ValueError):
        DS.td_from_pcp(full[0])


@pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2), (5, 3), (5, 4), (5, 5)])
def test_line_graph_matches_formula_and_cayley(p, r):
    d = G.pair_group(p, 1)
    pcp = next(DS.pcp_enumerate(d, r))
    td = DS.td_from_pcp(pcp)
    cay = DS.line_graph(pcp, td)  # raises unless the line graph is the Cayley graph
    arr = D.check_drg(cay)
    assert D.srg_params(arr) == D.td_line_srg_params(r, p)


def test_td_p_by_p_is_complete_multipartite():
    d = G.pair_group(3, 1)
    pcp = next(DS.pcp_enumerate(d, 3))
    td = DS.td_from_pcp(pcp)
    cay = DS.line_graph(pcp, td)
    arr = D.check_drg(cay)
    assert str(D.recognize(cay, arr)) == "CompleteMultipartite(3,3)"


def test_td_line_srg_params_values():
    assert astuple(D.td_line_srg_params(2, 3)) == (9, 4, 1, 2)
    assert astuple(D.td_line_srg_params(4, 5)) == (25, 16, 9, 12)
    # r = 2 is the lattice-graph row of the parameter family
    for v in (3, 5, 7):
        n, k, lam, mu = astuple(D.td_line_srg_params(2, v))
        assert (n, k, lam, mu) == (v * v, 2 * (v - 1), v - 2, 2)
    with pytest.raises(ValueError):
        D.td_line_srg_params(1, 5)


def test_diffset_verify_examples():
    z7 = G.cyclic_group(7)
    cert = DS.diffset_verify(z7, (1, 2, 4))
    assert (cert.v, cert.k, cert.lam) == (7, 3, 1)
    assert cert.k - cert.lam == 2 and cert.nontrivial
    z9 = G.cyclic_group(9)
    assert DS.diffset_verify(z9, (0, 1, 2)) is None
    full = DS.diffset_verify(z9, tuple(range(9)))
    assert full is not None and full.lam == 9 and not full.nontrivial


def test_diffset_search_fano_family():
    z7 = G.cyclic_group(7)
    found = DS.diffset_search(z7, 3)
    assert len(found) == 1
    cert = found[0]
    assert (cert.v, cert.k, cert.lam) == (7, 3, 1)
    # the canonical representative is a translate/multiplier image of {1,2,4}
    target_orbit = set()
    add = lambda x, t: (x + t) % 7
    for m in (1, 2, 4):  # multipliers fixing the family
        for t in range(7):
            target_orbit.add(tuple(sorted((d * m + t) % 7 for d in (1, 2, 4))))
    assert cert.elements in target_orbit


@pytest.mark.parametrize("spec", ["Zn:7", "4x2", "8x2", "3^1x3", "Zn:21"])
def test_diffset_canonical_is_the_least_image(spec):
    """The lex-least sorted image over every automorphism and translation, by loops."""
    d = G.parse_group(spec)
    add = G.group_tables(d).add
    rng = random.Random(spec)
    for _ in range(8):
        elements = tuple(sorted(rng.sample(range(d.order), rng.randint(1, d.order))))
        least = min(
            tuple(sorted(int(add[aut[e], t]) for e in elements))
            for aut in G.automorphism_group(d).tolist()
            for t in d.elements()
        )
        assert DS.diffset_canonical(d, elements) == least


def test_diffset_search_empty_and_budget():
    z9 = G.cyclic_group(9)
    assert DS.diffset_search(z9, 3) == []
    with pytest.raises(DS.SearchBudgetError):
        DS.diffset_search(G.cyclic_group(30), 15, budget=10)


def test_diffset_search_z8z2_census():
    """(16,6,2) sets exist in Z_8+Z_2; the search result is the ground truth.

    The equivalence classes are cross-checked against a from-scratch scan of
    all C(16,6) subsets: class orbits under translation+automorphism must
    partition the flat subsets exactly.
    """
    d = G.product_group(8, 2)
    found = DS.diffset_search(d, 6)
    assert len(found) == 2
    assert all((c.v, c.k, c.lam) == (16, 6, 2) and c.nontrivial for c in found)
    all_flat = set()
    for combo in itertools.combinations(range(16), 6):
        if DS.diffset_verify(d, combo) is not None:
            all_flat.add(combo)
    assert len(all_flat) == 192
    covered = set()
    add = G.group_tables(d).add
    for cert in found:
        for aut in G.automorphism_group(d).tolist():
            mapped = [aut[e] for e in cert.elements]
            for t in d.elements():
                covered.add(tuple(sorted(int(add[e, t]) for e in mapped)))
    assert covered == all_flat


def test_bipartite_double_preconditions():
    with pytest.raises(ValueError):
        DS.bipartite_double_check(16, (), (1, 15))  # empty row
    with pytest.raises(ValueError):
        DS.bipartite_double_check(16, (2, 14), (1, 15))  # even residues
    with pytest.raises(ValueError):
        DS.bipartite_double_check(16, (1, 3), (1, 15))  # not negation-closed
    with pytest.raises(ValueError):
        DS.bipartite_double_check(15, (1,), (1,))  # odd n


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24])
def test_bipartite_double_sweep_equivalence(n):
    """Both implication directions, exhaustively, for every even n <= 24."""
    reports = DS.bipartite_double_sweep(n)
    rows = len([s for s in DS.odd_row_subsets(n) if s])
    assert len(reports) == rows * rows
    for rep in reports:
        assert rep.equivalence_holds
        if rep.is_drg:
            assert rep.bipartite


def test_negation_classes_count_the_odd_row_cells():
    for n in range(4, 42, 2):
        assert len(DS.odd_row_subsets(n)) == 2 ** DS.negation_classes(n)
    # the smallest refused sweep: n = 34 has 9 classes, (2^9 - 1)^2 > 2^16
    assert (2 ** DS.negation_classes(32) - 1) ** 2 <= DS.SWEEP_BUDGET
    assert (2 ** DS.negation_classes(34) - 1) ** 2 > DS.SWEEP_BUDGET


def test_bipartite_double_trivial_corners():
    # full odd rows: trivial full-group difference set, complete bipartite
    odds16 = tuple(range(1, 16, 2))
    rep = DS.bipartite_double_check(16, odds16, odds16)
    assert rep.is_drg and rep.diameter == 2
    assert rep.certificate is not None and not rep.certificate.nontrivial
    arr = rep.array
    assert str(D.recognize(rep.graph, arr)) == "CompleteMultipartite(2,16)"
    # n = 2 mod 4: complement-of-a-point certificate gives the crown graph,
    # diameter 3 but antipodal, hence outside the difference-set family
    odds10 = tuple(range(1, 10, 2))
    rep = DS.bipartite_double_check(10, (1, 3, 7, 9), odds10)
    assert rep.certificate is not None and not rep.certificate.nontrivial
    assert rep.is_drg and rep.diameter == 3 and rep.antipodal
    assert rep.equivalence_holds


@pytest.mark.parametrize("p", [3, 5])
def test_drg_iff_union_of_order_p_subgroups(p):
    """Over Z_p + Z_p, the distance-regular connection sets are exactly the
    unions of >= 2 order-p subgroups minus the identity; exhaustive."""
    d = G.pair_group(p, 1)
    subs = G.subgroups_of_order(d, p)
    union_masks = set()
    for r in range(2, len(subs) + 1):
        for combo in itertools.combinations(subs, r):
            mask = 0
            for h in combo:
                mask |= h.mask
            union_masks.add(mask ^ 1)
    pairs = G.inverse_pairs(d)
    hits = set()
    for bits in range(1 << len(pairs)):
        s = C.SymmetricSet.from_pair_bits(d, bits)
        if s.mask == 0:
            continue
        g = C.build(d, s)
        if C.is_connected(g) and D.check_drg(g) is not None:
            hits.add(s.mask)
    assert hits == union_masks


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_complete_multipartite_crown_over_zn_z2(n):
    """The three even-order families all pass the exact DRG check."""
    d = G.product_group(n, 2)
    order = 2 * n
    complete = C.build(d, C.SymmetricSet(d, ((1 << order) - 1) ^ 1))
    arr = D.check_drg(complete)
    assert arr is not None and arr.diameter == 1

    for m in sorted({m for m in range(2, order) if order % m == 0}):
        subs = G.subgroups_of_order(d, m)
        if not subs:
            continue
        g = C.build(d, C.SymmetricSet(d, ((1 << order) - 1) ^ subs[0].mask))
        arr = D.check_drg(g)
        assert arr is not None
        assert arr.b == (order - m, m - 1) and arr.c == (1, order - m)

    crown_set = [d.rank(a, 1) for a in range(n)]
    crown_set.remove(d.rank(0, 1))
    g = C.build(d, C.SymmetricSet.from_elements(d, crown_set))
    arr = D.check_drg(g)
    assert arr is not None
    assert arr.b == (n - 1, n - 2, 1) and arr.c == (1, n - 2, n - 1)
