"""Numerical monoids: membership, Frobenius number, Apery sets.

A numerical monoid S = <n1, ..., nk> is the set of all non-negative
integer combinations of coprime positive generators.  Everything else in
this package leans on the three facts computed here once per monoid:

  * the minimal generating set (redundant input generators are dropped),
  * the Frobenius number F(S), the largest integer outside S,
  * O(1) membership for arbitrary integers.

Membership reads one byte table over [0, F(S)], built from the classical
residue table (for each residue r mod n1, the smallest element of S
congruent to r) through its Kunz coordinates: m = j * n1 + r lies in S
exactly when j is at least that entry's quotient by n1.  F(S) is the
residue table maximum minus n1.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyGenerators,
    EmptySubset,
    Int64Overflow,
    NonCoprime,
    NonPositiveBase,
    NotAGenerator,
    NotInMonoid,
    ZeroGenerator,
)

__all__ = ["NumericalMonoid", "AperySet"]

I64_MAX = 2**63 - 1

# Resource guards, checked before allocating and refused with Int64Overflow:
# _RESIDUE_TABLE_LIMIT caps the n1 entries of the residue table and the b
# elements of an Apery set of base b; _MEMBER_TABLE_LIMIT caps the F(S)+1
# bytes of the membership table (built at about one byte each), the F(S)+b+1
# of an Apery set's table and the horizon+1 slots of delta_periodicity.
_RESIDUE_TABLE_LIMIT = 50_000_000
_MEMBER_TABLE_LIMIT = 500_000_000


def require_i64(value, what="value"):
    """Return ``value`` as a plain int, rejecting anything outside int64."""
    value = operator.index(value)
    if value > I64_MAX or value < -I64_MAX - 1:
        raise Int64Overflow(f"{what} {value} does not fit in 64-bit arithmetic")
    return value


@dataclass(frozen=True)
class AperySet:
    """The set of monoid elements m with m - base outside the monoid."""

    base: int
    elements: tuple

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, m):
        return m in self.elements


def _residue_table(gens):
    """Smallest element of S in each residue class mod gens[0].

    Dijkstra over the n1 residue classes: from class r with smallest
    known element d there is an edge to (r + g) % n1 with element d + g
    for every other generator g.
    """
    n1 = gens[0]
    dist = [None] * n1
    dist[0] = 0
    heap = [(0, 0)]
    others = gens[1:]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None and d > dist[r]:
            continue
        for g in others:
            nd = d + g
            nr = nd % n1
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    # gcd 1 guarantees every residue class is hit
    return dist


class NumericalMonoid:
    """A co-finite additive submonoid of the non-negative integers.

    >>> S = NumericalMonoid([6, 9, 20])
    >>> S.frobenius
    43
    >>> S.contains(43), S.contains(44)
    (False, True)

    Instances are immutable after construction and safe to share across
    threads.  Redundant input generators are removed (and remembered in
    ``removed_generators``) so that ``generators`` is always the unique
    minimal generating set, sorted ascending.
    """

    __slots__ = (
        "generators",
        "k",
        "frobenius",
        "period_hint",
        "removed_generators",
        "_table",
    )

    def __init__(self, generators):
        raw = [require_i64(g, "generator") for g in generators]
        if not raw:
            raise EmptyGenerators("at least one generator is required")
        if any(g < 1 for g in raw):
            raise ZeroGenerator("generators must be positive integers")
        ordered = sorted(set(raw))
        if math.gcd(*ordered) != 1:
            raise NonCoprime(f"gcd({', '.join(map(str, ordered))}) > 1")
        n1 = ordered[0]
        if n1 > _RESIDUE_TABLE_LIMIT:
            raise Int64Overflow(f"smallest generator {n1} exceeds the residue table cap")
        # redundant inputs do not change S, so neither do they change its table
        dist = _residue_table(ordered)
        # g is redundant iff g - h lies in S for some smaller input h
        minimal = [g for i, g in enumerate(ordered)
                   if not any(g - h >= dist[(g - h) % n1] for h in ordered[:i])]

        self.generators = tuple(minimal)
        self.k = len(minimal)
        self.removed_generators = tuple(g for g in ordered if g not in set(minimal))

        nk = minimal[-1]
        require_i64(n1 * nk, "generator product")
        self.frobenius = max(dist) - n1
        self.period_hint = math.lcm(n1, nk)

        size = self.frobenius + 1
        if size > _MEMBER_TABLE_LIMIT:
            raise Int64Overflow(
                f"Frobenius number {self.frobenius} exceeds the membership table cap"
            )
        # m = j * n1 + r lies in S iff j >= q[r], its Kunz coordinate: one byte row per j
        q = (np.asarray(dist, dtype=np.int64) - np.arange(n1)) // n1
        self._table = (np.arange(-(-size // n1))[:, None] >= q).ravel()[:size]

    def __repr__(self):
        return f"NumericalMonoid({', '.join(map(str, self.generators))})"

    def __eq__(self, other):
        if isinstance(other, NumericalMonoid):
            return self.generators == other.generators
        return NotImplemented

    def __hash__(self):
        return hash(self.generators)

    def contains(self, m):
        """True iff the integer m lies in the monoid."""
        m = operator.index(m)
        if m < 0:
            return False
        if m > self.frobenius:
            return True
        return bool(self._table[m])

    def contains_array(self, values):
        """Vectorized membership for an int array (any shape)."""
        x = np.asarray(values, dtype=np.int64)
        result = x > self.frobenius
        in_table = (x >= 0) & (x <= self.frobenius)
        if in_table.any():
            result[in_table] = self._table[x[in_table]]
        return result

    def apery_set(self, base):
        """Apery set of ``base``: all m in S with m - base outside S.

        ``base`` must be a positive element of the monoid; the set then
        has exactly ``base`` elements, one per residue class mod base,
        and every element is at most F(S) + base.
        """
        base = require_i64(base, "Apery base")
        if base <= 0:
            raise NonPositiveBase(f"Apery base must be positive, got {base}")
        if not self.contains(base):
            raise NotInMonoid(f"{base} is not an element of {self!r}")
        if base > _RESIDUE_TABLE_LIMIT or self.frobenius + base + 1 > _MEMBER_TABLE_LIMIT:
            raise Int64Overflow(f"Apery base {base} exceeds the Apery set cap")
        # m in [0, F(S) + base] is in the Apery set iff m is in S and m - base is not
        member = np.concatenate((self._table, np.ones(base, dtype=bool)))
        outside = np.concatenate((np.ones(base, dtype=bool), ~member[:-base]))
        return AperySet(base=base, elements=tuple(np.flatnonzero(member & outside).tolist()))

    def apery_intersection(self, subset):
        """Intersection of the Apery sets of the given generators, sorted."""
        chosen = sorted(set(subset))
        if not chosen:
            raise EmptySubset("need at least one generator")
        gens = set(self.generators)
        for g in chosen:
            if g not in gens:
                raise NotAGenerator(f"{g} is not a minimal generator of {self!r}")
        common = set(self.apery_set(chosen[0]).elements)
        for g in chosen[1:]:
            common &= set(self.apery_set(g).elements)
        return tuple(sorted(common))

    def pseudo_frobenius(self):
        """All n outside S with n + g in S for every generator g.

        For the full monoid of non-negative integers the only such n is
        -1; otherwise the candidates are the gaps 1..F(S).
        """
        if self.generators == (1,):
            return (-1,)
        gaps = np.flatnonzero(~self._table)
        ok = np.ones(len(gaps), dtype=bool)
        for g in self.generators:
            ok &= self.contains_array(gaps + g)
        return tuple(int(v) for v in gaps[ok])
