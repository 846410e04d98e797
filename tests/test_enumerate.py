import pytest

import antiatom.enumerate as enumerate_module
import helpers
from antiatom import (BoundExceeded, EnumerationQuery, NumericalSemigroup,
                      genus_counts, scan_minimality, semigroups_by_frobenius,
                      semigroups_by_genus)

# Frobenius-indexed counts checked against the subset brute force below
FROBENIUS_COUNTS_1_12 = [1, 1, 2, 2, 5, 4, 11, 10, 21, 22, 51, 40]


def test_genus_zero_is_n():
    assert list(semigroups_by_genus(0)) == [NumericalSemigroup()]


def test_small_genus_levels():
    # OEIS A007323
    assert genus_counts(14) == [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592,
                                1001, 1693]


def test_genus_matches_subset_brute_force():
    for g in range(0, 7):
        tree = {s.gaps for s in semigroups_by_genus(g)}
        brute = {tuple(sorted(gs)) for gs in helpers.semigroup_gap_sets_genus(g)}
        assert tree == brute


def test_frobenius_one_and_two():
    assert [s.gaps for s in semigroups_by_frobenius(1)] == [(1,)]
    assert [s.gaps for s in semigroups_by_frobenius(2)] == [(1, 2)]


def test_frobenius_counts():
    got = [sum(1 for _ in semigroups_by_frobenius(f)) for f in range(1, 13)]
    assert got == FROBENIUS_COUNTS_1_12


def test_frobenius_matches_subset_brute_force():
    for f in range(1, 11):
        direct = {s.gaps for s in semigroups_by_frobenius(f)}
        brute = {tuple(sorted(gs)) for gs in helpers.semigroup_gap_sets_frobenius(f)}
        assert direct == brute


def test_tree_agrees_with_brute_force_by_frobenius():
    """Collecting tree levels up to genus 12 and bucketing by Frobenius number
    reproduces the subset brute force for F <= 12."""
    by_f: dict[int, set] = {f: set() for f in range(1, 13)}
    for g in range(1, 13):
        for s in semigroups_by_genus(g):
            if 1 <= s.frobenius <= 12:
                by_f[s.frobenius].add(s.gaps)
    for f in range(1, 13):
        brute = {tuple(sorted(gs)) for gs in helpers.semigroup_gap_sets_frobenius(f)}
        assert by_f[f] == brute


def test_emission_is_sorted_by_gap_tuple():
    for stream in (semigroups_by_genus(6), semigroups_by_frobenius(9)):
        gaps = [s.gaps for s in stream]
        assert gaps == sorted(gaps)


def test_bounds():
    with pytest.raises(BoundExceeded):
        list(semigroups_by_genus(31))
    with pytest.raises(BoundExceeded):
        list(semigroups_by_frobenius(41))
    with pytest.raises(BoundExceeded):
        scan_minimality(EnumerationQuery("genus", 31))


def test_query_validation():
    with pytest.raises(ValueError):
        EnumerationQuery("size", 3)
    with pytest.raises(ValueError):
        EnumerationQuery("genus", 0)
    with pytest.raises(ValueError):
        scan_minimality(EnumerationQuery("genus", 5, only=9))
    with pytest.raises(ValueError):
        scan_minimality(EnumerationQuery("genus", 5, filter="depth=two"))
    with pytest.raises(ValueError):
        scan_minimality(EnumerationQuery("genus", 5, filter="width=2"))


def test_scan_small_genus_range():
    result = scan_minimality(EnumerationQuery("genus", 8))
    assert [b.count for b in result.buckets] == [1, 2, 4, 7, 12, 23, 39, 67]
    assert result.total == 155
    assert result.non_minimal == ()


def test_scan_only_bucket():
    result = scan_minimality(EnumerationQuery("genus", 8, only=5))
    assert len(result.buckets) == 1
    assert result.buckets[0].bucket == 5
    assert result.buckets[0].count == 12


def test_scan_filter():
    full = scan_minimality(EnumerationQuery("frobenius", 9))
    depth2 = scan_minimality(EnumerationQuery("frobenius", 9, filter="depth=2"))
    type3 = scan_minimality(EnumerationQuery("frobenius", 9, filter="type=3"))
    assert depth2.total == sum(
        1 for f in range(1, 10) for s in semigroups_by_frobenius(f) if s.depth == 2)
    assert type3.total == sum(
        1 for f in range(1, 10) for s in semigroups_by_frobenius(f) if s.type == 3)
    assert depth2.total < full.total
    assert full.non_minimal == ()


def test_scan_workers_agree():
    seq = scan_minimality(EnumerationQuery("frobenius", 10))
    par = scan_minimality(EnumerationQuery("frobenius", 10), workers=2)
    assert seq == par


def test_scan_rejects_worker_counts_below_one():
    for workers in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            scan_minimality(EnumerationQuery("frobenius", 9), workers=workers)


def test_scan_caps_workers_at_usable_cpus(monkeypatch):
    started = []

    class InProcessPool:  # records the worker count and starts no process
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, batches):
            return [fn(batch) for batch in batches]

    monkeypatch.setattr(enumerate_module.os, "sched_getaffinity",
                        lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(enumerate_module.multiprocessing, "Pool", InProcessPool)
    query = EnumerationQuery("frobenius", 12, only=12)
    assert scan_minimality(query, workers=10**6) == scan_minimality(query)
    assert started == [2]


def test_scan_json_shape():
    doc = scan_minimality(EnumerationQuery("genus", 3)).to_json()
    assert doc["total"] == 7
    assert doc["mode"] == "genus"
    assert [b["count"] for b in doc["buckets"]] == [1, 2, 4]
    assert doc["non_minimal"] == []
