"""Numerical sets and numerical semigroups over exact integers.

A numerical set T is a subset of N = {0, 1, 2, ...} that contains 0 and has
finite complement.  The missing positive integers are its gaps G(T); the
largest gap is the Frobenius number F(T) (by convention -1 when there are no
gaps), the number of gaps is the genus g(T), the smallest positive element
is the multiplicity m(T), and the depth is the unique q with
(q-1)*m <= F < q*m.  A numerical set closed under addition is a numerical
semigroup.

A set is stored as its sorted gap tuple plus a membership bitmask over
[0, F]; membership above F is implicit.  The bitmask makes membership,
closure checks and the atom monoid cheap enough for exhaustive scans.
Instances are immutable after construction and safe to share across threads;
derived data on semigroups is cached lazily.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, Iterator


class NumericalSet:
    """A cofinite subset of N containing 0, identified by its gap set."""

    def __init__(self, gaps: Iterable[int] = ()):
        gap_list = sorted(set(gaps))
        if gap_list and gap_list[0] < 1:
            raise ValueError(f"gaps must be positive integers, got {gap_list[0]}")
        self.gaps: tuple[int, ...] = tuple(gap_list)
        self.frobenius: int = self.gaps[-1] if self.gaps else -1
        mask = (1 << (self.frobenius + 1)) - 1
        for g in self.gaps:
            mask &= ~(1 << g)
        #: membership bitmask over [0, frobenius]; everything above is a member
        self.mask: int = mask

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def multiplicity(self) -> int:
        positive = self.mask & ~1
        if positive == 0:
            # no positive member at or below F, so the first one is F+1
            return self.frobenius + 1 if self.frobenius >= 0 else 1
        return (positive & -positive).bit_length() - 1

    @property
    def depth(self) -> int:
        if self.frobenius < 0:
            return 0
        return self.frobenius // self.multiplicity + 1

    @property
    def small_elements(self) -> tuple[int, ...]:
        """Positive members strictly below the Frobenius number."""
        return tuple(x for x in self.members(self.frobenius) if x > 0)

    def __contains__(self, x: int) -> bool:
        if x < 0:
            return False
        if x > self.frobenius:
            return True
        return bool((self.mask >> x) & 1)

    def count_below(self, x: int) -> int:
        """Number of members strictly below x."""
        if x <= 0:
            return 0
        if x <= self.frobenius + 1:
            return (self.mask & ((1 << x) - 1)).bit_count()
        return self.mask.bit_count() + (x - self.frobenius - 1)

    def members(self, stop: int) -> Iterator[int]:
        """Members of the set strictly below stop, in increasing order."""
        for x in range(max(stop, 0)):
            if x in self:
                yield x

    def is_semigroup(self) -> bool:
        """True iff the set is closed under addition."""
        F, m = self.frobenius, self.mask
        full = (1 << (F + 1)) - 1
        rest = m & ~1
        while rest:
            a = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            # sums a+b <= F with b a member must land inside the set
            if (m << a) & full & ~m:
                return False
        return True

    def as_semigroup(self) -> "NumericalSemigroup":
        return NumericalSemigroup(self.gaps)

    def atom_monoid(self) -> "NumericalSemigroup":
        """A(T) = {x in N : x + T is contained in T}, always a semigroup."""
        F, m = self.frobenius, self.mask
        full = (1 << (F + 1)) - 1
        bad = [x for x in range(1, F + 1) if (m << x) & full & ~m]
        return NumericalSemigroup(bad)

    def dual(self) -> "NumericalSet":
        """The dual T* = {x : F(T) - x not in T}; an involution fixing F."""
        F = self.frobenius
        if F < 0:
            raise ValueError("dual of N is undefined")
        return NumericalSet(x for x in range(1, F + 1) if (F - x) in self)

    def union(self, extra: Iterable[int]) -> "NumericalSet":
        """The numerical set T plus the given new members."""
        return NumericalSet(set(self.gaps) - set(extra))

    def to_json(self) -> dict:
        return {"gaps": list(self.gaps)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSet):
            return NotImplemented
        return self.gaps == other.gaps

    def __hash__(self) -> int:
        return hash(self.gaps)

    def __str__(self) -> str:
        listed = [str(x) for x in self.members(self.frobenius + 1)]
        listed.append(str(self.frobenius + 1))
        return "{" + ",".join(listed) + ",->}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}(gaps={self.gaps})"

    @classmethod
    def from_text(cls, text: str) -> "NumericalSet":
        """Parse the {0,5,7,9,->} notation."""
        body = text.strip().removeprefix("{").removesuffix("}")
        parts = [p.strip() for p in body.split(",") if p.strip()]
        if not parts or parts[-1] != "->":
            raise ValueError(f"expected trailing -> in {text!r}")
        members = sorted(int(p) for p in parts[:-1])
        if not members or members[0] != 0:
            raise ValueError("a numerical set must contain 0")
        return cls(x for x in range(1, members[-1]) if x not in set(members))


class NumericalSemigroup(NumericalSet):
    """A numerical set closed under addition."""

    def __init__(self, gaps: Iterable[int] = ()):
        super().__init__(gaps)
        if not self.is_semigroup():
            raise ValueError(f"complement of {self.gaps} is not closed under addition")

    @classmethod
    def from_generators(cls, gens: Iterable[int]) -> "NumericalSemigroup":
        """Smallest numerical semigroup containing the generators.

        The generators must be positive with gcd 1, otherwise the complement
        would be infinite.  Membership is sieved up to 2*min*max, which is
        past the worst-case Frobenius number, then trimmed.
        """
        gen_list = sorted(set(gens))
        if not gen_list:
            raise ValueError("empty generating set")
        if gen_list[0] < 1:
            raise ValueError(f"generators must be positive, got {gen_list[0]}")
        if math.gcd(*gen_list) != 1:
            raise ValueError(f"gcd of {gen_list} is not 1: not cofinite")
        bound = 2 * gen_list[0] * gen_list[-1] + 1
        full = (1 << (bound + 1)) - 1
        reach = 1
        for g in gen_list:
            while True:
                grown = reach | ((reach << g) & full)
                if grown == reach:
                    break
                reach = grown
        gaps = [x for x in range(1, bound + 1) if not (reach >> x) & 1]
        if gaps:
            assert gaps[-1] < bound - gen_list[-1], "sieve bound too small"
        return cls(gaps)

    @cached_property
    def pseudo_frobenius(self) -> tuple[int, ...]:
        """Gaps P with P + s in S for every nonzero s in S; its size is the type."""
        F = self.frobenius
        if F < 0:
            raise ValueError("PF undefined for N")
        out = []
        for P in self.gaps:
            window = (1 << (F - P + 1)) - 1
            sbits = self.mask & window & ~1  # nonzero members s <= F-P
            if ((sbits << P) & ~self.mask) == 0:
                out.append(P)
        return tuple(out)

    @property
    def type(self) -> int:
        return len(self.pseudo_frobenius)

    @cached_property
    def void(self) -> tuple[int, ...]:
        """Gaps x whose reflection F - x is also a gap."""
        F = self.frobenius
        if F < 0:
            raise ValueError("void undefined for N")
        return tuple(x for x in self.gaps if (F - x) not in self)

    @cached_property
    def special_gaps(self) -> tuple[int, ...]:
        """Gaps h for which S together with h is still a semigroup.

        These are the pseudo-Frobenius numbers h with 2h in S: h + s must lie
        in S for every nonzero s in S, and so must h + h.
        """
        if self.frobenius < 0:
            return ()
        return tuple(h for h in self.pseudo_frobenius if 2 * h in self)

    @cached_property
    def minimal_generators(self) -> tuple[int, ...]:
        """Positive members that are not sums of two positive members."""
        F, m = self.frobenius, self.multiplicity
        if F < 0:
            return (1,)
        ub = F + m  # any member above F+m is m plus another member
        ext = self.mask | (((1 << (ub - F)) - 1) << (F + 1))
        pos = ext & ~1
        sums = 0
        rest = pos
        while rest:
            a = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if a + m > ub:
                break
            sums |= pos << a
        sums &= (1 << (ub + 1)) - 1
        return tuple(c for c in range(m, ub + 1)
                     if (ext >> c) & 1 and not (sums >> c) & 1)


def from_json(obj: dict) -> NumericalSet:
    """Build a set from {"gaps": [...]} or a semigroup from {"generators": [...]}."""
    if "gaps" in obj:
        t = NumericalSet(obj["gaps"])
        return t.as_semigroup() if t.is_semigroup() else t
    if "generators" in obj:
        return NumericalSemigroup.from_generators(obj["generators"])
    raise ValueError("expected a 'gaps' or 'generators' key")
