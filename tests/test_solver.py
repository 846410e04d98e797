import pytest

import helpers
from antiatom import (EnumerationQuery, NumericalSemigroup, VoidPoset,
                      durfee_gap_condition, enumeration, is_lambda_minimal,
                      scan_minimality, set_counting_decomposition,
                      size_via_gap_count, solve, type3_profile)
from antiatom.enumerate import _genus_levels

S_INT = NumericalSemigroup.from_generators({9, 10, 11, 12, 13})


def small_semigroups(max_f):
    for f in range(1, max_f + 1):
        for gaps in helpers.semigroup_gap_sets_frobenius(f):
            yield NumericalSemigroup(gaps)


def test_solve_flagship():
    sol = solve(S_INT)
    assert sol.pa == 6
    assert sol.lambda_s_size == 32
    assert sol.sizes == (31, 31, 32, 32, 38, 38)
    assert sol.min_size == 31
    assert not sol.lambda_minimal
    assert sol.witness_ideal == (1, 14, 16)
    assert sol.min_report().partition().parts == (9, 8, 2, 2, 2, 2, 2, 2, 2)
    ideals = [r.ideal for r in sol.reports]
    assert () in ideals and (1, 2, 3, 14, 15, 16) in ideals
    # only the empty set and the whole void are closed under x -> F - x here
    assert [r.ideal for r in sol.reports if r.self_dual] == [(), (1, 2, 3, 14, 15, 16)]


def test_solve_symmetric():
    sol = solve(NumericalSemigroup({1}))
    assert sol.pa == 1
    assert sol.lambda_minimal
    assert sol.sizes == (1,)
    assert sol.reports[0].ideal == ()
    assert sol.reports[0].self_dual


def test_solve_rejects_n():
    with pytest.raises(ValueError):
        solve(NumericalSemigroup())


def test_solve_verify_mode():
    for gaps in ((1, 2, 3, 4, 5, 6, 7, 8, 14, 15, 16, 17), (1, 2, 3, 5, 6)):
        s = NumericalSemigroup(gaps)
        assert solve(s, verify=True) == solve(s)


def test_dual_pairing():
    for s in small_semigroups(11):
        sol = solve(s)
        poset = VoidPoset(s)
        for i, report in enumerate(sol.reports):
            partner = sol.reports[report.dual_index]
            assert partner.dual_index == i
            assert partner.partition_size == report.partition_size
            assert partner.partition() == report.partition().conjugate()
            assert report.self_dual == all(
                (s.frobenius - x) in report.ideal for x in report.ideal)
            assert frozenset(partner.ideal) == poset.dual_ideal(report.ideal)


def test_pa_at_most_two_implies_minimal():
    seen = False
    for s in small_semigroups(12):
        sol = solve(s)
        if sol.pa <= 2:
            seen = True
            assert sol.lambda_minimal
        # type 1 is symmetric is Pa 1; type 2 gives Pa 2
        if s.type == 1:
            assert sol.pa == 1 and s.void == ()
        if s.type == 2:
            assert sol.pa == 2
    assert seen


def test_solve_matches_brute_force_sets():
    for s in small_semigroups(10):
        sol = solve(s)
        expected = {frozenset(i) for i in helpers.associated_subsets(frozenset(s.gaps))}
        assert {frozenset(r.ideal) for r in sol.reports} == expected
        for r in sol.reports:
            assert r.numerical_set.atom_monoid() == s
            assert r.partition_size == helpers.partition_size(frozenset(r.numerical_set.gaps))


def test_pa_sums_to_numerical_sets_per_frobenius(frobenius_solutions):
    """Each numerical set with Frobenius number f has one atom monoid, whose
    Frobenius number is also f, so Pa summed over F(S) = f counts all
    2^(f-1) numerical sets with Frobenius number f."""
    totals = {}
    for s, solution in frobenius_solutions.items:
        totals[s.frobenius] = totals.get(s.frobenius, 0) + solution.pa
    assert totals == {f: 2 ** (f - 1) for f in range(1, 17)}


def test_set_counting_examples():
    assert set_counting_decomposition(S_INT, ()) == (0, 0)
    a, b = set_counting_decomposition(S_INT, (1, 14, 16))
    assert a - b == 31 - 32
    with pytest.raises(ValueError, match="not associated"):
        set_counting_decomposition(S_INT, (14,))


def test_set_counting_identity_and_self_dual_bound():
    for s in small_semigroups(10):
        lam_s = solve(s).lambda_s_size
        poset = VoidPoset(s)
        for r in solve(s).reports:
            a, b = set_counting_decomposition(s, r.ideal)
            assert r.partition_size == lam_s + a - b
            if r.self_dual:
                assert a >= b
                assert lam_s <= r.partition_size


def test_is_lambda_minimal():
    assert not is_lambda_minimal(S_INT)
    assert is_lambda_minimal(NumericalSemigroup({1}))
    assert is_lambda_minimal(NumericalSemigroup({1, 2, 3}))


def _search_verdict(s):
    """is_lambda_minimal's answer, with any witness checked from the definition."""
    poset = VoidPoset(s)
    mask, _ = poset.smaller_partition_witness()
    if mask is not None:
        t = s.union(e for i, e in enumerate(poset.elements) if mask >> i & 1)
        assert t.atom_monoid() == s, s.gaps
        assert size_via_gap_count(t) < size_via_gap_count(s), s.gaps
    return mask is None


def test_bounded_search_matches_solve(frobenius_solutions, genus_solutions):
    for catalog in (frobenius_solutions, genus_solutions):
        for s, solution in catalog.items:
            assert _search_verdict(s) == solution.lambda_minimal, s.gaps


def test_bounded_search_matches_solve_at_genus_13_and_14():
    levels = list(_genus_levels(14))
    for g, count in ((13, 2), (14, 6)):
        verdicts = [(_search_verdict(s), solve(s).lambda_minimal) for s in levels[g]]
        assert all(got == want for got, want in verdicts), g
        assert sum(not got for got, _ in verdicts) == count, g


def test_non_minimal_counts_for_frobenius_17_to_20():
    buckets = scan_minimality(EnumerationQuery("frobenius", 20)).buckets
    assert [len(b.non_minimal) for b in buckets[16:]] == [1, 0, 2, 1]
    assert buckets[18].non_minimal == (tuple(range(1, 10)) + (15, 16, 18, 19),
                                       tuple(range(1, 10)) + (16, 17, 18, 19))


def test_bounded_search_prunes_antichain_void():
    # {0, 18, ->}: the void 1..16 is an antichain with 2^15 associated sets,
    # and no set of k elements gains more than sum(I) - sum(16, ..., 17 - k) <= 0,
    # so every child of the root is cut.
    poset = VoidPoset(NumericalSemigroup(range(1, 18)))
    assert poset.smaller_partition_witness() == (None, 1)


def test_type3_profile_requires_type3():
    with pytest.raises(ValueError):
        type3_profile(S_INT)  # type 4


def test_type3_profile_cases():
    cases = {"two_ideals": 0, "four_self_dual": 0, "principal_pair": 0}
    for s in small_semigroups(12):
        if s.type != 3:
            continue
        profile = type3_profile(s)
        assert profile.consistent, s.gaps
        cases[profile.case] += 1
        if profile.case == "two_ideals":
            assert profile.actual_pa == 2
        elif profile.case == "four_self_dual":
            assert profile.actual_pa == 4
        else:
            assert profile.actual_pa <= 4
            assert profile.predicted_ideals is not None
            assert set(profile.actual_ideals) <= set(profile.predicted_ideals)
    # all three branches occur within this range
    assert all(n > 0 for n in cases.values()), cases


def test_type3_always_lambda_minimal():
    for s in small_semigroups(12):
        if s.type == 3:
            assert is_lambda_minimal(s)


def test_durfee_gap_condition_examples():
    assert not durfee_gap_condition(S_INT)  # alphas (1,2,3): 3 = 1+2
    with pytest.raises(ValueError):
        durfee_gap_condition(NumericalSemigroup({1}))  # depth 1


def test_durfee_gap_condition_small_durfee_always_true():
    for s in small_semigroups(12):
        if s.depth != 2:
            continue
        if enumeration(s).durfee <= 3:
            assert durfee_gap_condition(s)


def test_durfee_gap_condition_implies_minimal():
    seen_false = 0
    for s in small_semigroups(13):
        if s.depth != 2:
            continue
        if durfee_gap_condition(s):
            assert is_lambda_minimal(s)
        else:
            seen_false += 1
    assert seen_false > 0  # the condition is not vacuous on this range


def test_report_invariants():
    sol = solve(S_INT)
    for r in sol.reports:
        assert r.numerical_set == S_INT.union(r.ideal)
        assert enumeration(r.numerical_set).size == r.partition_size
    assert sol.to_json() == {
        "semigroup": {"gaps": list(S_INT.gaps)},
        "pa": 6,
        "sizes": [31, 31, 32, 32, 38, 38],
        "lambda_size": 32,
        "min_size": 31,
        "lambda_minimal": False,
        "witness_ideal": [1, 14, 16],
    }
