from itertools import combinations

import pytest

import helpers
from antiatom import (IdealTriangle, NumericalSemigroup, NumericalSet,
                      VoidPoset, interval_k)

S_INT = NumericalSemigroup.from_generators({9, 10, 11, 12, 13})
ASSOCIATED_OF_S_INT = [frozenset(), frozenset({1, 2, 3, 14, 15, 16}),
                frozenset({1, 14, 16}), frozenset({2, 14, 15}),
                frozenset({1, 14}), frozenset({1, 2, 14, 15})]


def small_semigroups(max_f):
    for f in range(1, max_f + 1):
        for gaps in helpers.semigroup_gap_sets_frobenius(f):
            yield NumericalSemigroup(gaps)


def test_void_examples():
    assert VoidPoset(S_INT).elements == (1, 2, 3, 14, 15, 16)
    assert VoidPoset(NumericalSemigroup({1})).elements == ()
    with pytest.raises(ValueError):
        VoidPoset(NumericalSemigroup())


def test_void_of_staircase_is_noncongruent_gaps():
    from antiatom import staircase
    for m, k, s in ((3, 2, 1), (5, 3, 4), (6, 4, 2)):
        sg = staircase(m, k, s).semigroup
        f = sg.frobenius
        expected = tuple(x for x in sg.gaps if x % m != f % m)
        assert VoidPoset(sg).elements == expected


def test_partial_order_axioms():
    for s in small_semigroups(10):
        p = VoidPoset(s)
        e = p.elements
        for x in e:
            assert p.leq(x, x)
        for x in e:
            for y in e:
                if x != y:
                    assert not (p.leq(x, y) and p.leq(y, x))
                for z in e:
                    if p.leq(x, y) and p.leq(y, z):
                        assert p.leq(x, z)


def test_maximal_minimal_characterization():
    for s in small_semigroups(12):
        p = VoidPoset(s)
        maximal = {x for x in p.elements
                   if not any(x != y and p.leq(x, y) for y in p.elements)}
        minimal = {x for x in p.elements
                   if not any(x != y and p.leq(y, x) for y in p.elements)}
        pf_not_f = set(s.pseudo_frobenius) - {s.frobenius}
        if p.elements:
            assert maximal == pf_not_f
            assert minimal == {s.frobenius - q for q in pf_not_f}


def test_order_ideals_trivial_and_interval():
    assert list(VoidPoset(NumericalSemigroup({1})).order_ideals()) == [frozenset()]
    ideals = list(VoidPoset(S_INT).order_ideals())
    assert len(ideals) == len(set(ideals))
    for wanted in ASSOCIATED_OF_S_INT:
        assert wanted in ideals


def test_order_ideals_antichain():
    # S = {0, 8, ->}: all differences of void elements are below the
    # multiplicity, so the void poset is an antichain on 6 elements
    s = NumericalSemigroup(range(1, 8))
    p = VoidPoset(s)
    assert p.elements == (1, 2, 3, 4, 5, 6)
    assert sum(1 for _ in p.order_ideals()) == 2 ** 6


def test_order_ideals_match_brute_force():
    for s in small_semigroups(10):
        p = VoidPoset(s)
        got = set(p.order_ideals())
        expected = set()
        m = p.elements
        for r in range(len(m) + 1):
            for c in combinations(m, r):
                up = all(y in c for x in c for y in m if p.leq(x, y))
                if up:
                    expected.add(frozenset(c))
        assert got == expected
        assert all(p.is_up_closed(i) for i in got)


def test_dual_ideal_examples():
    p = VoidPoset(S_INT)
    m = frozenset(p.elements)
    assert p.dual_ideal(frozenset()) == m
    assert p.dual_ideal(m) == frozenset()
    assert p.dual_ideal({1, 14, 16}) == frozenset({2, 14, 15})
    with pytest.raises(ValueError):
        p.dual_ideal({14, 16, 99})
    with pytest.raises(ValueError, match="up-closed"):
        p.dual_ideal({1})  # 1 <= 14 but 14 missing


def test_dual_ideal_involution_and_set_dual():
    for s in small_semigroups(10):
        p = VoidPoset(s)
        for ideal in p.order_ideals():
            image = p.dual_ideal(ideal)
            assert p.is_up_closed(image)
            assert p.dual_ideal(image) == ideal
            # S u I* is the dual of S u I
            assert s.union(image) == s.union(ideal).dual()


def test_is_self_dual():
    p = VoidPoset(S_INT)
    assert not p.is_self_dual({1, 14})  # F - 1 = 16 is missing
    assert p.is_self_dual(frozenset())  # vacuously closed under reflection
    assert p.is_self_dual(frozenset(p.elements))
    assert VoidPoset(NumericalSemigroup({1})).is_self_dual(frozenset())
    # in the type-3 case with P+Q-F outside S, every associated ideal is
    # self-dual even when distinct from its complement-style dual
    s = NumericalSemigroup({1, 2, 3, 5, 6})
    q = VoidPoset(s)
    assert q.is_self_dual({3}) and q.dual_ideal({3}) == frozenset({1, 5})


def test_triangles():
    p = VoidPoset(S_INT)
    assert p.triangles(14) == [IdealTriangle(14, 1, 2)]
    assert p.triangles(16) == []  # F - 16 = 1 cannot split as x + y
    with pytest.raises(ValueError):
        p.triangles(17)  # F itself is not in the void
    for s in small_semigroups(12):
        pp = VoidPoset(s)
        f = s.frobenius
        if f - 1 in pp._index:
            assert pp.triangles(f - 1) == []
        if f - 2 in pp._index:
            assert set(pp.triangles(f - 2)) <= {IdealTriangle(f - 2, 1, 1)}
        for x in pp.elements:
            for t in pp.triangles(x):
                assert t.x <= t.y and t.p + t.x + t.y == f
                assert {t.x, t.y} <= set(pp.elements)


def test_satisfies():
    p = VoidPoset(S_INT)
    tri = IdealTriangle(14, 1, 2)
    assert p.satisfies({1, 14, 16}, tri)
    assert not p.satisfies(frozenset(p.elements), tri)  # F - y is inside
    assert not p.satisfies(frozenset(), tri)
    with pytest.raises(ValueError):
        p.satisfies(frozenset(), IdealTriangle(14, 1, 3))


def test_is_associated_interval_example():
    p = VoidPoset(S_INT)
    assoc = [i for i in p.order_ideals() if p.is_associated(i, verify=True)]
    assert sorted(assoc, key=sorted) == sorted(ASSOCIATED_OF_S_INT, key=sorted)


def test_is_associated_trivial_ideals():
    for s in small_semigroups(10):
        p = VoidPoset(s)
        assert p.is_associated(frozenset())
        assert p.is_associated(frozenset(p.elements))


def test_is_associated_matches_brute_force_over_all_subsets():
    for s in small_semigroups(10):
        p = VoidPoset(s)
        expected = set(helpers.associated_subsets(frozenset(s.gaps)))
        got = set()
        m = p.elements
        for r in range(len(m) + 1):
            for c in combinations(m, r):
                if p.is_associated(frozenset(c), verify=True):
                    got.add(frozenset(c))
        assert got == expected


def test_is_associated_matches_atom_monoid_up_to_16(frobenius_catalog):
    """Characterization vs the atom monoid definition over every subset of
    the void, for every semigroup with F <= 16 (masks keep this cheap)."""
    for ss in frobenius_catalog.items.values():
        for s in ss:
            p = VoidPoset(s)
            n = len(p.elements)
            for mask in range(1 << n):
                members = p._set_of(mask)
                oracle = s.union(members).atom_monoid() == s
                assert p._is_associated_mask(mask) == oracle, (s.gaps, sorted(members))


def test_associated_masks_and_mask_duals_up_to_16(frobenius_catalog):
    """associated_masks() is the characterization filter over the up-closed
    DFS, and the bit-reversal reflection and dual match their set
    definitions on every up-closed mask, for every semigroup with F <= 16."""
    for ss in frobenius_catalog.items.values():
        for s in ss:
            p = VoidPoset(s)
            f = s.frobenius
            ideals = list(p._ideal_masks())
            assert sorted(p.associated_masks()) == sorted(
                mask for mask in ideals if p._is_associated_mask(mask)), s.gaps
            for mask in ideals:
                members = p._set_of(mask)
                assert p._set_of(p._reflect_mask(mask)) == {f - x for x in members}
                assert p._set_of(p._dual_mask(mask)) == {
                    x for x in p.elements if f - x not in members}


def test_is_associated_for_divisor_witness():
    for k, l in ((4, 2), (6, 2), (6, 3), (8, 2), (8, 4), (9, 3)):
        inst = interval_k(k, l)
        p = VoidPoset(inst.semigroup)
        ideal = frozenset(inst.semigroup.gaps) - frozenset(inst.witness.gaps)
        assert p.is_associated(ideal, verify=True)


def test_moreover_clause_for_associated_ideals():
    """Every pseudo-Frobenius member of an associated ideal has a dual or
    Frobenius-triangle witness, special gap or not."""
    for s in small_semigroups(12):
        p = VoidPoset(s)
        pf = set(s.pseudo_frobenius)
        for ideal in p.order_ideals():
            if not p.is_associated(ideal):
                continue
            for x in ideal & pf:
                ok = (s.frobenius - x) in ideal or any(
                    p.satisfies(ideal, t) for t in p.triangles(x))
                if not ok:
                    # triangles() lists x <= y once; satisfied pairs may
                    # need the swapped orientation
                    ok = any(p.satisfies(ideal, IdealTriangle(x, t.y, t.x))
                             for t in p.triangles(x))
                assert ok, (s.gaps, sorted(ideal), x)


def test_element_condition_check_examples():
    p = VoidPoset(S_INT)
    full = frozenset(p.elements)
    kind, value = p.element_condition_check(full, 1)
    assert (kind, value) == ("dual", 16)
    kind, value = p.element_condition_check({1, 14, 16}, 14)
    assert kind == "triangle"
    assert (value.x, value.y) == (1, 2)
    kind, value = p.element_condition_check({1, 14, 16}, 16)
    assert (kind, value) == ("dual", 1)
    with pytest.raises(ValueError):
        p.element_condition_check({1, 14, 16}, 15)


def test_element_condition_check_witnesses(frobenius_solutions):
    """A witness exists for every member of every associated ideal, F <= 16."""
    for s, solution in frobenius_solutions.items:
        p = VoidPoset(s)
        for report in solution.reports:
            ideal = frozenset(report.ideal)
            for x in ideal:
                kind, value = p.element_condition_check(ideal, x)
                if kind == "dual":
                    assert value == s.frobenius - x and value in ideal
                else:
                    assert value.p == x
                    assert p.satisfies(ideal, value)


def test_hasse_edges_and_json():
    p = VoidPoset(S_INT)
    assert p.hasse_edges() == [(1, 14), (2, 14), (2, 15), (3, 14), (3, 15), (3, 16)]
    doc = p.to_json()
    assert doc["void"] == [1, 2, 3, 14, 15, 16]
    assert [1, 14] in doc["relations"] and [1, 15] not in doc["relations"]
