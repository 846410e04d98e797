"""The void of a numerical semigroup, its poset, and up-closed subsets.

The void M(S) is the set of gaps x whose reflection F - x is also a gap.  It
carries the partial order x <= y iff y - x is in S; the maximal elements are
the pseudo-Frobenius numbers other than F, the minimal ones their
reflections.  Order ideal below always means an up-closed subset: x in I and
x <= y forces y in I.

The numerical sets T with atom monoid exactly S are the unions S u I where I
is up-closed and every special gap P in I either has its reflection F - P in
I or satisfies a triangle condition: there are void elements x, y with
P + x + y = F, x in I and F - y not in I.  ``is_associated`` implements this
characterization; a verify flag cross-checks it against the atom monoid
computed from scratch, which is the authoritative definition.

Internally subsets of the void are bitmasks over the element index, so the
enumeration of up-closed subsets and the associated-set filter stay cheap
even when scanning thousands of semigroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import NumericalSemigroup, NumericalSet

OrderIdeal = frozenset[int]


@dataclass(frozen=True)
class IdealTriangle:
    """Void elements with p + x + y = F; a Frobenius triangle when p is in PF."""

    p: int
    x: int
    y: int


class VoidPoset:
    """The void M(S) with the order x <= y iff y - x in S."""

    def __init__(self, s: NumericalSemigroup):
        if s.frobenius < 0:
            raise ValueError("void poset undefined for N")
        self.semigroup = s
        self.frobenius = s.frobenius
        self.elements: tuple[int, ...] = s.void
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        # reflection x -> F - x reverses the sorted order of the void
        for i, e in enumerate(self.elements):
            assert self.frobenius - e == self.elements[n - 1 - i]
        self._succ = []
        for i, x in enumerate(self.elements):
            m = 0
            for j in range(i + 1, n):
                if (self.elements[j] - x) in s:
                    m |= 1 << j
            self._succ.append(m)
        self._full = (1 << n) - 1
        self._special = self._special_gap_tests()

    def _special_gap_tests(self) -> list[tuple[int, int, list[tuple[int, int]]]]:
        """For each special gap P: its bit, the bit of F - P, and the (x bit,
        F - y bit) pairs of its Frobenius triangles, both orderings of (x, y)."""
        F = self.frobenius
        special = set(self.semigroup.special_gaps)
        n = len(self.elements)
        out = []
        for ip, p in enumerate(self.elements):
            if p not in special:
                continue
            pairs = []
            for ix, x in enumerate(self.elements):
                iy = self._index.get(F - p - x)
                if iy is not None:
                    pairs.append((1 << ix, 1 << (n - 1 - iy)))  # n-1-iy indexes F - y
            out.append((1 << ip, 1 << (n - 1 - ip), pairs))
        return out

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, x: int, y: int) -> bool:
        if x not in self._index or y not in self._index:
            raise ValueError(f"{x} or {y} is not a void element")
        return (y - x) in self.semigroup

    # -- mask plumbing ------------------------------------------------------

    def _mask_of(self, ideal: Iterable[int]) -> int:
        m = 0
        for x in ideal:
            i = self._index.get(x)
            if i is None:
                raise ValueError(f"{x} is not a void element")
            m |= 1 << i
        return m

    def _set_of(self, mask: int) -> OrderIdeal:
        return frozenset(e for i, e in enumerate(self.elements) if (mask >> i) & 1)

    def _is_up_closed_mask(self, mask: int) -> bool:
        rest = mask
        while rest:
            i = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if self._succ[i] & ~mask:
                return False
        return True

    def _reflect_mask(self, mask: int) -> int:
        """Image of a subset under x -> F - x: the n index bits reversed."""
        n = len(self.elements)
        return int(format(mask, "b").zfill(n)[::-1], 2) if n else 0

    def _dual_mask(self, mask: int) -> int:
        """I* = {x : F - x not in I}: the complement of the reflection."""
        return self._full & ~self._reflect_mask(mask)

    def _ideal_masks(self) -> Iterator[int]:
        """All up-closed subsets, exclude-first per element from the top down.

        Elements are decided in decreasing order; one may only be included
        once all its successors are in.  Explicit stack, include pushed first
        so the exclude branch pops first.
        """
        succ = self._succ
        stack = [(len(self.elements) - 1, 0)]
        while stack:
            i, mask = stack.pop()
            while i >= 0:
                if succ[i] & ~mask == 0:
                    stack.append((i - 1, mask | (1 << i)))
                i -= 1
            yield mask

    def _meets_special_gaps(self, mask: int) -> bool:
        """The special-gap part of the characterization, for an up-closed mask:
        every special gap P in I has F - P in I or a Frobenius triangle."""
        for pbit, rbit, pairs in self._special:
            if mask & pbit and not mask & rbit:
                for xbit, ybit in pairs:
                    if mask & xbit and not mask & ybit:
                        break
                else:
                    return False
        return True

    def _is_associated_mask(self, mask: int) -> bool:
        return self._is_up_closed_mask(mask) and self._meets_special_gaps(mask)

    # -- public api ---------------------------------------------------------

    def is_up_closed(self, ideal: Iterable[int]) -> bool:
        return self._is_up_closed_mask(self._mask_of(ideal))

    def associated_masks(self) -> Iterator[int]:
        """The masks of every up-closed I with atom monoid of S u I equal to S.

        Bit i stands for ``elements[i]``.  The masks come in the order of the
        up-closed DFS; each is tested once, without re-checking up-closure.
        """
        meets = self._meets_special_gaps
        for mask in self._ideal_masks():
            if meets(mask):
                yield mask

    def smaller_partition_witness(self) -> tuple[int | None, int]:
        """An associated I whose partition is smaller than S's, or None.

        Returns ``(mask, states)``: the mask of the first such I the search
        meets (None when S is lambda-minimal) and the number of search nodes
        it visited.

        With g the genus of S, |lambda(S u I)| = (sum of the gaps) - sum(I)
        - C(g - |I|, 2), so S u I beats S exactly when
        v(I) = sum(I) - sum_{t=1..|I|} (g - t) > 0.  The search is the
        top-down up-closed DFS of ``_ideal_masks`` carrying v; adding the
        element x_j to a set of k elements adds x_j - (g - k - 1).  Elements
        join in decreasing order, so the gain still open below index j at
        size k is at most best[j][k], the best gain of the top r void
        elements below j for r <= min(j, cap - k), and a branch whose v plus
        that bound is not positive is cut.  |I| is capped at n // 2 for the
        n void elements: I -> I* is an involution on the associated sets
        that keeps the partition size and sends |I| to n - |I|, so any
        witness or its dual has at most n // 2 elements.
        """
        xs, succ = self.elements, self._succ
        n, g = len(xs), self.semigroup.genus
        cap = n // 2
        # best[j][k] = max(0, x_{j-1} - (g - k - 1) + best[j-1][k+1])
        best = [[0] * (cap + 1)]
        for j in range(1, n):
            below = best[-1]
            best.append([max(0, xs[j - 1] - (g - k - 1) + below[k + 1])
                         for k in range(cap)] + [0])
        meets = self._meets_special_gaps
        stack = [(n - 1, 0, 0, 0)]
        states = 0
        while stack:
            i, mask, k, v = stack.pop()
            states += 1
            if v > 0 and meets(mask):
                return mask, states
            if k == cap:
                continue
            drop = g - k - 1
            for j in range(i, -1, -1):
                if succ[j] & ~mask == 0:
                    w = v + xs[j] - drop
                    if w + best[j][k + 1] > 0:
                        stack.append((j - 1, mask | (1 << j), k + 1, w))
        return None, states

    def order_ideals(self) -> Iterator[OrderIdeal]:
        """Every up-closed subset exactly once, empty set first, full void last."""
        for mask in self._ideal_masks():
            yield self._set_of(mask)

    def dual_ideal(self, ideal: Iterable[int]) -> OrderIdeal:
        """I* = {x in M(S) : F - x not in I}; an involution on up-closed sets."""
        mask = self._mask_of(ideal)
        if not self._is_up_closed_mask(mask):
            raise ValueError(f"{sorted(ideal)} is not up-closed")
        return self._set_of(self._dual_mask(mask))

    def is_self_dual(self, ideal: Iterable[int]) -> bool:
        """True iff x in I forces F - x in I, i.e. I is closed under reflection.

        Note this is closure under x -> F - x, not equality with the
        complement-style dual I*: the empty set and the whole void are always
        self-dual, while the pair (I, I*) is typically distinct.
        """
        mask = self._mask_of(ideal)
        if not self._is_up_closed_mask(mask):
            raise ValueError(f"{sorted(ideal)} is not up-closed")
        return mask == self._reflect_mask(mask)

    def triangles(self, p: int) -> list[IdealTriangle]:
        """All (p, x, y) with x <= y, x and y void, and p + x + y = F."""
        if p not in self._index:
            raise ValueError(f"{p} is not a void element")
        rem = self.frobenius - p
        out = []
        for x in self.elements:
            if 2 * x > rem:
                break
            if (rem - x) in self._index:
                out.append(IdealTriangle(p, x, rem - x))
        return out

    def satisfies(self, ideal: Iterable[int], t: IdealTriangle) -> bool:
        """True iff p and x are in the ideal while F - y is not."""
        if (t.p not in self._index or t.x not in self._index
                or t.y not in self._index or t.p + t.x + t.y != self.frobenius):
            raise ValueError(f"{t} is not an ideal triangle")
        members = set(ideal)
        return t.p in members and t.x in members and (self.frobenius - t.y) not in members

    def is_associated(self, ideal: Iterable[int], verify: bool = False) -> bool:
        """True iff S u I has atom monoid exactly S.

        Evaluates the up-closed plus special-gap characterization; with
        verify=True the answer is cross-checked against the atom monoid
        computed from the definition, raising if they ever disagree.
        """
        mask = self._mask_of(ideal)
        got = self._is_associated_mask(mask)
        if verify:
            oracle = self.union(ideal).atom_monoid() == self.semigroup
            if oracle != got:
                raise RuntimeError(
                    f"associated-set characterization disagrees with the atom "
                    f"monoid for I={sorted(self._set_of(mask))}: {got} vs {oracle}")
        return got

    def element_condition_check(self, ideal: Iterable[int], x: int):
        """Witness for a member x of an associated ideal I.

        Returns ("dual", F - x) when the reflection lies in I, otherwise
        ("triangle", t) for an ideal triangle t = (x, y, z) with y in I and
        F - z not in I.  Raises if no witness exists, which would mean the
        ideal was not associated in the first place.
        """
        members = set(ideal)
        if x not in members:
            raise ValueError(f"{x} is not in the ideal")
        if (self.frobenius - x) in members:
            return ("dual", self.frobenius - x)
        rem = self.frobenius - x
        for y in self.elements:
            z = rem - y
            if y in members and z in self._index and (self.frobenius - z) not in members:
                return ("triangle", IdealTriangle(x, y, z))
        raise RuntimeError(f"property violated: no witness for {x} in {sorted(members)}")

    def union(self, ideal: Iterable[int]) -> NumericalSet:
        """The numerical set S u I."""
        return self.semigroup.union(self._set_of(self._mask_of(ideal)))

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Cover relations x < y with nothing strictly between."""
        out = []
        for i, x in enumerate(self.elements):
            strict = self._succ[i]
            rest = strict
            while rest:
                j = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if not any((strict >> k) & 1 and (self._succ[k] >> j) & 1
                           for k in range(i + 1, j)):
                    out.append((x, self.elements[j]))
        return out

    def to_json(self) -> dict:
        relations = [[x, y] for i, x in enumerate(self.elements)
                     for j, y in enumerate(self.elements)
                     if i != j and (self._succ[i] >> j) & 1]
        return {"void": list(self.elements), "relations": relations}
