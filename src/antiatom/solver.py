"""Solving the anti-atom problem for a numerical semigroup.

For a semigroup S, enumerate every numerical set T with atom monoid exactly
S, record the size of the partition each one enumerates, and decide whether
S is lambda-minimal, i.e. whether its own partition is the smallest of them.
Sizes are computed from bit counts of each set's mask, without building the
numerical sets or their partitions; the reports come in dual pairs of equal
size because T and its dual enumerate conjugate partitions.  Minimality
alone is decided without listing P(S), by a bounded search that stops at the
first smaller partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import NumericalSemigroup, NumericalSet
from .partitions import Partition, enumeration, size_via_gap_count
from .voidposet import VoidPoset


@dataclass(frozen=True)
class AssociatedSetReport:
    """One numerical set T = S u I with atom monoid S."""

    ideal: tuple[int, ...]
    partition_size: int
    self_dual: bool
    dual_index: int
    semigroup: NumericalSemigroup = field(repr=False)

    @cached_property
    def numerical_set(self) -> NumericalSet:
        """T = S u I, built on first use."""
        return self.semigroup.union(self.ideal)

    def partition(self) -> Partition:
        return enumeration(self.numerical_set)


@dataclass(frozen=True)
class AntiAtomSolution:
    """Every numerical set associated to a semigroup, with size statistics."""

    semigroup: NumericalSemigroup
    lambda_s_size: int
    reports: tuple[AssociatedSetReport, ...]

    @property
    def pa(self) -> int:
        return len(self.reports)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(sorted(r.partition_size for r in self.reports))

    @property
    def min_size(self) -> int:
        return self.sizes[0]

    @property
    def lambda_minimal(self) -> bool:
        return self.min_size == self.lambda_s_size

    @property
    def witness_ideal(self) -> tuple[int, ...]:
        """Lexicographically smallest ideal attaining the minimum size."""
        return min(r.ideal for r in self.reports if r.partition_size == self.min_size)

    def min_report(self) -> AssociatedSetReport:
        witness = self.witness_ideal
        return next(r for r in self.reports if r.ideal == witness)

    def to_json(self) -> dict:
        return {
            "semigroup": self.semigroup.to_json(),
            "pa": self.pa,
            "sizes": list(self.sizes),
            "lambda_size": self.lambda_s_size,
            "min_size": self.min_size,
            "lambda_minimal": self.lambda_minimal,
            "witness_ideal": list(self.witness_ideal),
        }


def solve(s: NumericalSemigroup, verify: bool = False) -> AntiAtomSolution:
    """Enumerate all of P(S) and report sizes, dual pairing, and minimality.

    With verify=True every up-closed subset's classification is re-checked
    against the atom monoid computed from its definition.
    """
    if s.frobenius < 0:
        raise ValueError("anti-atom problem undefined for N")
    poset = VoidPoset(s)
    elements = poset.elements
    found = sorted((tuple(e for i, e in enumerate(elements) if mask >> i & 1), mask)
                   for mask in poset.associated_masks())
    if verify:
        expected = {ideal for ideal in poset.order_ideals()
                    if poset.is_associated(ideal, verify=True)}
        if expected != {frozenset(ideal) for ideal, _ in found}:
            raise RuntimeError(f"associated_masks disagrees with the "
                               f"characterization for {s}")
    size = _mask_size(s, elements)
    position = {mask: i for i, (_, mask) in enumerate(found)}
    reports = tuple(
        AssociatedSetReport(
            ideal=ideal,
            partition_size=size(mask),
            self_dual=mask == poset._reflect_mask(mask),
            dual_index=position[poset._dual_mask(mask)],
            semigroup=s,
        )
        for ideal, mask in found)
    return AntiAtomSolution(s, size_via_gap_count(s), reports)


def _mask_size(s: NumericalSemigroup, elements: tuple[int, ...]):
    """|lambda(S u I)| as a function of the mask of I over ``elements``.

    The partition of a numerical set with k gaps has size (sum of the gaps)
    - k(k-1)/2, and S u I has the gaps of S less I.  The sum over I comes
    from bit counts of the mask against the bit planes of the elements.
    """
    planes = [(b, sum(1 << i for i, e in enumerate(elements) if e >> b & 1))
              for b in range(max(elements, default=0).bit_length())]
    gap_sum, genus = sum(s.gaps), s.genus

    def size(mask: int) -> int:
        k = genus - mask.bit_count()
        removed = sum((mask & plane).bit_count() << b for b, plane in planes)
        return gap_sum - removed - k * (k - 1) // 2

    return size


def is_lambda_minimal(s: NumericalSemigroup) -> bool:
    """True iff no associated set of S enumerates a smaller partition than S.

    Decided by the bounded search of ``VoidPoset.smaller_partition_witness``,
    which stops at the first witness; ``solve`` lists all of P(S) instead.
    """
    witness, _ = VoidPoset(s).smaller_partition_witness()
    return witness is None


def set_counting_decomposition(s: NumericalSemigroup, ideal) -> tuple[int, int]:
    """The pair (|A|, |B|) with |lambda(S u I)| = |lambda(S)| + |A| - |B|.

    A counts pairs i < h with i in I and h a gap of T = S u I; B counts
    pairs s < i with s in S and i in I.
    """
    members = sorted(set(ideal))
    t = s.union(members)
    if t.atom_monoid() != s:
        raise ValueError(f"{members} is not associated to the semigroup")
    a = sum(1 for i in members for h in t.gaps if i < h)
    b = sum(s.count_below(i) for i in members)
    return a, b


@dataclass(frozen=True)
class Type3Profile:
    """Case analysis for a type-3 semigroup with PF = {P, Q, F}, P < Q < F.

    The cases depend on whether P + Q - F lies in S and whether Q - P lies in
    the void:

    * ``two_ideals``      P+Q-F in S, Q-P not in void: only the empty set and
                          the whole void are associated, so Pa = 2.
    * ``four_self_dual``  P+Q-F not in S: Pa = 4 and every associated ideal is
                          closed under x -> F - x.
    * ``principal_pair``  P+Q-F in S and Q-P in void: the associated ideals
                          are among the empty set, the void, and the up-sets
                          of Q-P and of F-Q, which are dual to each other.
    """

    pf: tuple[int, int, int]
    case: str
    predicted_pa: int | None
    predicted_ideals: tuple[tuple[int, ...], ...] | None
    actual_pa: int
    actual_ideals: tuple[tuple[int, ...], ...]
    consistent: bool

    def to_json(self) -> dict:
        return {
            "pf": list(self.pf),
            "case": self.case,
            "predicted_pa": self.predicted_pa,
            "predicted_ideals": (None if self.predicted_ideals is None
                                 else [list(i) for i in self.predicted_ideals]),
            "actual_pa": self.actual_pa,
            "consistent": self.consistent,
        }


def type3_profile(s: NumericalSemigroup) -> Type3Profile:
    """Classify a type-3 semigroup and verify the prediction against solve()."""
    if s.type != 3:
        raise ValueError(f"type is {s.type}, not 3")
    p, q, f = sorted(s.pseudo_frobenius)
    poset = VoidPoset(s)
    solution = solve(s)
    actual = tuple(r.ideal for r in solution.reports)
    pq_in_s = (p + q - f) in s
    qp_in_void = (q - p) in poset._index

    if pq_in_s and not qp_in_void:
        case, predicted_pa, predicted = "two_ideals", 2, None
        consistent = solution.pa == 2
    elif not pq_in_s:
        case, predicted_pa, predicted = "four_self_dual", 4, None
        consistent = (solution.pa == 4
                      and all(r.self_dual for r in solution.reports))
    else:
        case, predicted_pa = "principal_pair", None
        i1 = frozenset(x for x in poset.elements if poset.leq(q - p, x))
        i2 = frozenset(x for x in poset.elements if poset.leq(f - q, x))
        predicted = tuple(sorted({(), tuple(sorted(poset.elements)),
                                  tuple(sorted(i1)), tuple(sorted(i2))}))
        consistent = (set(actual) <= set(predicted)
                      and poset.dual_ideal(i1) == i2)

    return Type3Profile(
        pf=(p, q, f),
        case=case,
        predicted_pa=predicted_pa,
        predicted_ideals=predicted,
        actual_pa=solution.pa,
        actual_ideals=actual,
        consistent=consistent,
    )


def durfee_gap_condition(s: NumericalSemigroup) -> bool:
    """Additive condition on the largest gaps of a depth-2 semigroup.

    With F, F-a_1, ..., F-a_{n-1} the n largest gaps (n the Durfee square
    side of the semigroup's partition), the condition holds when
    a_i = a_j + a_k forces j = k = i - 1.  When it holds the semigroup is
    lambda-minimal.
    """
    if s.depth != 2:
        raise ValueError(f"depth is {s.depth}, not 2")
    n = enumeration(s).durfee
    top_gaps = s.gaps[len(s.gaps) - n:][::-1]
    alphas = [s.frobenius - g for g in top_gaps[1:]]
    r = len(alphas)
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            for k in range(1, r + 1):
                if alphas[i - 1] == alphas[j - 1] + alphas[k - 1]:
                    if not (j == k == i - 1):
                        return False
    return True
