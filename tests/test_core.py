import pytest
from hypothesis import given, strategies as st

import helpers
from antiatom import NumericalSemigroup, NumericalSet, from_json

gap_sets = st.sets(st.integers(min_value=1, max_value=24), max_size=10)


def test_empty_gap_set_is_n():
    t = NumericalSet()
    assert t.frobenius == -1
    assert t.genus == 0
    assert t.multiplicity == 1
    assert t.depth == 0
    assert 0 in t and 7 in t
    assert str(t) == "{0,->}"


def test_from_gaps_figure_example():
    t = NumericalSet({1, 2, 3, 4, 6, 8})
    assert str(t) == "{0,5,7,9,->}"
    assert t.frobenius == 8
    assert t.genus == 6
    assert t.multiplicity == 5
    assert t.depth == 2


def test_from_gaps_interval_example():
    t = NumericalSet(set(range(1, 9)) | {14, 15, 16, 17})
    assert str(t) == "{0,9,10,11,12,13,18,->}"
    assert t.frobenius == 17
    assert t.genus == 12
    assert t.multiplicity == 9
    assert t.depth == 2


def test_gap_zero_rejected():
    with pytest.raises(ValueError):
        NumericalSet({0, 3})
    with pytest.raises(ValueError):
        NumericalSet({-1})


def test_from_generators_interval():
    s = NumericalSemigroup.from_generators({9, 10, 11, 12, 13})
    assert s.gaps == tuple(range(1, 9)) + (14, 15, 16, 17)


def test_from_generators_trivial():
    assert NumericalSemigroup.from_generators({1}).gaps == ()
    assert NumericalSemigroup.from_generators({2, 3}).gaps == (1,)


def test_from_generators_errors():
    with pytest.raises(ValueError, match="not cofinite"):
        NumericalSemigroup.from_generators({2, 4})
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators(set())
    with pytest.raises(ValueError):
        NumericalSemigroup.from_generators({0, 3})


@given(st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=5))
def test_from_generators_matches_brute_force(gens):
    import math
    if math.gcd(*gens) != 1:
        with pytest.raises(ValueError):
            NumericalSemigroup.from_generators(gens)
        return
    s = NumericalSemigroup.from_generators(gens)
    hi = 2 * min(gens) * max(gens) + 1
    assert frozenset(s.gaps) == helpers.gaps_from_generators(gens, hi)


def test_invariants_of_derived_example():
    t = NumericalSet({1, 2, 3, 4, 6, 8})
    assert (t.frobenius, t.genus, t.multiplicity, t.depth) == (8, 6, 5, 2)


@given(gap_sets)
def test_depth_brackets_frobenius(gaps):
    t = NumericalSet(gaps)
    if t.frobenius >= 0:
        q, m = t.depth, t.multiplicity
        assert (q - 1) * m <= t.frobenius < q * m


def test_is_semigroup():
    assert NumericalSet({1, 2, 3, 4, 6, 8}).is_semigroup()
    assert not NumericalSet({2}).is_semigroup()  # 1+1 = 2 is missing
    assert NumericalSet().is_semigroup()


def test_semigroup_constructor_enforces_closure():
    with pytest.raises(ValueError, match="closed"):
        NumericalSemigroup({2})


def test_atom_monoid_examples():
    assert NumericalSet({2}).atom_monoid() == NumericalSemigroup({1, 2})
    s = NumericalSemigroup.from_generators({9, 10, 11, 12, 13})
    assert s.atom_monoid() == s
    t = s.union({1, 14, 16})
    assert t.atom_monoid() == s


@given(gap_sets)
def test_atom_monoid_properties(gaps):
    t = NumericalSet(gaps)
    a = t.atom_monoid()
    assert frozenset(a.gaps) == helpers.atom_monoid_gaps(frozenset(gaps))
    assert all(x in t for x in a.members(a.frobenius + 2))  # A(T) inside T
    assert a.is_semigroup()
    assert a.atom_monoid() == a


@given(gap_sets)
def test_atom_monoid_of_dual(gaps):
    t = NumericalSet(gaps)
    if t.frobenius >= 1:
        assert t.dual().atom_monoid() == t.atom_monoid()


def test_pseudo_frobenius_examples():
    s = NumericalSemigroup.from_generators({9, 10, 11, 12, 13})
    assert s.pseudo_frobenius == (14, 15, 16, 17)
    assert s.type == 4
    assert NumericalSemigroup({1}).pseudo_frobenius == (1,)
    stair = NumericalSemigroup(x for x in range(1, 20) if x % 5)
    assert str(stair) == "{0,5,10,15,20,->}"
    assert stair.pseudo_frobenius == (16, 17, 18, 19)


def test_pseudo_frobenius_undefined_for_n():
    with pytest.raises(ValueError):
        NumericalSemigroup().pseudo_frobenius


def test_pseudo_frobenius_matches_brute_force():
    for f in range(1, 11):
        for gaps in helpers.semigroup_gap_sets_frobenius(f):
            s = NumericalSemigroup(gaps)
            assert frozenset(s.pseudo_frobenius) == helpers.pf_numbers(gaps)
            assert max(s.pseudo_frobenius) == s.frobenius


def test_special_gaps_examples():
    s = NumericalSemigroup.from_generators({9, 10, 11, 12, 13})
    assert s.special_gaps == (14, 15, 16, 17)
    # 2*1 = 2 is in <2,3>, so adjoining the gap 1 still gives a semigroup
    assert NumericalSemigroup({1}).special_gaps == (1,)
    assert NumericalSemigroup().special_gaps == ()


def test_special_gaps_match_closure_definition(frobenius_catalog, genus_catalog):
    """h is a special gap iff S together with h is closed under addition."""
    for catalog in (frobenius_catalog, genus_catalog):
        for semigroups in catalog.items.values():
            for s in semigroups:
                expected = tuple(h for h in s.gaps
                                 if helpers.is_closed(set(s.gaps) - {h}))
                assert s.special_gaps == expected, s.gaps


def test_dual_examples():
    t = NumericalSet({1, 2, 3, 4, 6, 8})
    assert str(t.dual()) == "{0,2,4,5,6,7,9,->}"
    sym = NumericalSemigroup({1})
    assert sym.dual() == sym
    s = NumericalSemigroup.from_generators({9, 10, 11, 12, 13})
    assert s.dual() == s.union(s.void)


def test_dual_of_n_rejected():
    with pytest.raises(ValueError):
        NumericalSet().dual()


@given(gap_sets)
def test_dual_is_involution(gaps):
    t = NumericalSet(gaps)
    if t.frobenius >= 1:
        assert t.dual().frobenius == t.frobenius
        assert t.dual().dual() == t


def test_small_elements():
    assert NumericalSet({1, 2, 3, 4, 7, 8, 9}).small_elements == (5, 6)
    assert NumericalSemigroup({1}).small_elements == ()
    s = NumericalSemigroup.from_generators({9, 10, 11, 12, 13})
    assert s.small_elements == (9, 10, 11, 12, 13)


def test_count_below():
    t = NumericalSet({1, 2, 3, 4, 6, 8})
    assert t.count_below(8) == 3  # 0, 5, 7
    assert t.count_below(6) == 2
    assert t.count_below(0) == 0
    assert t.count_below(100) == 100 - t.genus


def test_minimal_generators():
    s = NumericalSemigroup.from_generators({9, 10, 11, 12, 13})
    assert s.minimal_generators == (9, 10, 11, 12, 13)
    assert NumericalSemigroup({1}).minimal_generators == (2, 3)
    assert NumericalSemigroup().minimal_generators == (1,)
    assert NumericalSemigroup({1, 3}).minimal_generators == (2, 5)


def test_minimal_generators_regenerate():
    for f in range(1, 11):
        for gaps in helpers.semigroup_gap_sets_frobenius(f):
            s = NumericalSemigroup(gaps)
            assert NumericalSemigroup.from_generators(s.minimal_generators) == s


def test_text_roundtrip():
    for gaps in ({1, 2, 3, 4, 6, 8}, set(), {1}, {1, 2, 3, 4, 5, 6, 7, 8, 14, 15, 16, 17}):
        t = NumericalSet(gaps)
        assert NumericalSet.from_text(str(t)) == t


def test_json_roundtrip():
    s = NumericalSemigroup.from_generators({9, 10, 11, 12, 13})
    assert from_json(s.to_json()) == s
    assert isinstance(from_json(s.to_json()), NumericalSemigroup)
    assert from_json({"generators": [9, 10, 11, 12, 13]}) == s
    t = NumericalSet({2})
    assert from_json(t.to_json()) == t
    with pytest.raises(ValueError):
        from_json({"parts": [1]})


def test_equality_across_types():
    assert NumericalSet({1}) == NumericalSemigroup({1})
    assert hash(NumericalSet({1})) == hash(NumericalSemigroup({1}))
    assert NumericalSet({1}) != NumericalSet({2})
