"""Exhaustive generation of numerical semigroups and minimality scans.

Generation by genus walks the semigroup tree: the children of S are obtained
by removing one minimal generator larger than F(S), which turns every
semigroup of genus g into a node at depth g below N, each reached exactly
once.  Generation by Frobenius number decides membership of 1..F-1 one value
at a time, propagating closure, and keeps the assignments whose complement
is closed with F itself unreachable.

Both generators emit semigroups in lexicographic gap order so scans and
golden files are reproducible.  Scans can spread the per-semigroup
minimality work over worker processes; results are merged and sorted, so the
output does not depend on the worker count.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Iterator

from .core import NumericalSemigroup
from .solver import is_lambda_minimal

GENUS_LIMIT = 30
FROBENIUS_LIMIT = 40


class BoundExceeded(ValueError):
    """A requested bound is past the supported desk scale."""


def _check_bound(mode: str, bound: int) -> None:
    limit = GENUS_LIMIT if mode == "genus" else FROBENIUS_LIMIT
    if bound > limit:
        raise BoundExceeded(f"{mode} bound {bound} exceeds the limit {limit}")
    if bound < 0 or (mode == "frobenius" and bound < 1):
        raise ValueError(f"invalid {mode} bound {bound}")


def _children(s: NumericalSemigroup) -> list[NumericalSemigroup]:
    """Remove each minimal generator above F; genus grows by one."""
    return [NumericalSemigroup(s.gaps + (c,))
            for c in s.minimal_generators if c > s.frobenius]


def _genus_levels(gmax: int) -> Iterator[list[NumericalSemigroup]]:
    """Levels 0..gmax of the semigroup tree, each sorted by gap tuple."""
    level = [NumericalSemigroup()]
    yield level
    for _ in range(gmax):
        level = sorted((child for s in level for child in _children(s)),
                       key=lambda s: s.gaps)
        yield level


def semigroups_by_genus(g: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup with exactly g gaps, in gap order."""
    _check_bound("genus", g)
    for depth, level in enumerate(_genus_levels(g)):
        if depth == g:
            yield from level


def genus_counts(gmax: int) -> list[int]:
    """Number of semigroups of each genus 0..gmax."""
    _check_bound("genus", gmax)
    return [len(level) for level in _genus_levels(gmax)]


def semigroups_by_frobenius(f: int) -> Iterator[NumericalSemigroup]:
    """Every numerical semigroup whose largest gap is exactly f, in gap order."""
    _check_bound("frobenius", f)
    results: list[tuple[int, ...]] = []

    def rec(x: int, mask: int, gaps: tuple[int, ...]) -> None:
        if x == f:
            if not any((mask >> a) & 1 and (mask >> (f - a)) & 1
                       for a in range(1, f // 2 + 1)):
                results.append(gaps + (f,))
            return
        forced = any((mask >> a) & 1 and (mask >> (x - a)) & 1
                     for a in range(1, x // 2 + 1))
        rec(x + 1, mask | (1 << x), gaps)
        if not forced:
            rec(x + 1, mask, gaps + (x,))

    rec(1, 1, ())
    for gaps in sorted(results):
        yield NumericalSemigroup(gaps)


@dataclass(frozen=True)
class EnumerationQuery:
    mode: str  # "genus" | "frobenius"
    bound: int
    only: int | None = None
    filter: str | None = None

    def __post_init__(self):
        if self.mode not in ("genus", "frobenius"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")


def _parse_filter(text: str | None) -> Callable[[NumericalSemigroup], bool]:
    if text is None:
        return lambda s: True
    name, _, value = text.partition("=")
    try:
        want = int(value)
    except ValueError:
        raise ValueError(f"bad filter {text!r}; expected name=integer") from None
    if name == "depth":
        return lambda s: s.depth == want
    if name == "type":
        return lambda s: s.type == want
    raise ValueError(f"unknown filter {name!r}; supported: depth, type")


@dataclass(frozen=True)
class BucketResult:
    bucket: int
    count: int
    non_minimal: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ScanResult:
    mode: str
    bound: int
    buckets: tuple[BucketResult, ...]
    filter: str | None = None

    @property
    def total(self) -> int:
        return sum(b.count for b in self.buckets)

    @property
    def non_minimal(self) -> tuple[tuple[int, ...], ...]:
        return tuple(g for b in self.buckets for g in b.non_minimal)

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "bound": self.bound,
            "filter": self.filter,
            "buckets": [{"bucket": b.bucket, "count": b.count,
                         "non_minimal": [list(g) for g in b.non_minimal]}
                        for b in self.buckets],
            "total": self.total,
            "non_minimal": [list(g) for g in self.non_minimal],
        }


def _non_minimal_in(batch: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    return [gaps for gaps in batch
            if not is_lambda_minimal(NumericalSemigroup(gaps))]


def _find_non_minimal(gap_lists: list[tuple[int, ...]],
                      workers: int) -> list[tuple[int, ...]]:
    if workers <= 1 or len(gap_lists) < 2 * workers:
        return sorted(_non_minimal_in(gap_lists))
    chunk = max(16, len(gap_lists) // (4 * workers))
    batches = [gap_lists[i:i + chunk] for i in range(0, len(gap_lists), chunk)]
    with multiprocessing.Pool(workers) as pool:
        parts = pool.map(_non_minimal_in, batches)
    return sorted(g for part in parts for g in part)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS or Windows
        return os.cpu_count() or 1


def scan_minimality(query: EnumerationQuery, workers: int = 1) -> ScanResult:
    """Count semigroups per bucket and list the non-lambda-minimal ones.

    ``workers`` must be at least 1; more than the CPUs this process may run
    on are not started.
    """
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    workers = min(workers, _usable_cpus())
    _check_bound(query.mode, query.bound)
    if query.only is not None and not 1 <= query.only <= query.bound:
        raise ValueError(f"--only bucket {query.only} outside 1..{query.bound}")
    keep = _parse_filter(query.filter)
    wanted = [query.only] if query.only is not None else list(range(1, query.bound + 1))

    per_bucket: dict[int, list[tuple[int, ...]]] = {}
    if query.mode == "genus":
        for depth, level in enumerate(_genus_levels(max(wanted))):
            if depth in wanted:
                per_bucket[depth] = [s.gaps for s in level if keep(s)]
    else:
        for f in wanted:
            per_bucket[f] = [s.gaps for s in semigroups_by_frobenius(f) if keep(s)]

    buckets = []
    for bucket in wanted:
        gap_lists = per_bucket[bucket]
        bad = _find_non_minimal(gap_lists, workers)
        buckets.append(BucketResult(bucket, len(gap_lists), tuple(bad)))
    return ScanResult(query.mode, query.bound, tuple(buckets), query.filter)
