"""Depth of monomial quotients via multigraded Taylor homology.

The Taylor complex on the minimal generators of I, tensored with the base
field, splits into strands indexed by lcm multidegrees; the homology rank of
each strand is the corresponding multigraded Betti number of S/I.  Depth
then follows from depth + pd = n (Auslander-Buchsbaum).  Ranks are over the
rationals, computed by exact fraction-free sparse elimination over the
integers (``rational_rank``), so depth is the characteristic-0 value; the
sign of the differential is the position of the dropped generator in the
sorted subset (any consistent convention gives the same ranks).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .core import CapError, MonomialIdeal


# most minimal generators whose 2^t subsets the Taylor complex enumerates
TAYLOR_CAP = 20


class TaylorCapError(CapError):
    """Too many minimal generators for subset enumeration."""


def rational_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix given as dense rows.

    Fraction-free sparse elimination over the integers: each row is a dict
    of its nonzero entries, and pivot rows are kept by their leading
    column.  An incoming row is reduced against the pivot at its leading
    column until it becomes a new pivot or vanishes.  With a leading entry
    a and a pivot entry pv, the update is row = (pv/g)*row - (a/g)*pivot
    for g = gcd(a, pv) signed like pv: row -= a*pv*pivot when pv = +-1;
    otherwise the row is scaled, and then divided by the gcd of its
    entries so that integers stay small.  Every step replaces a row by a
    nonzero integer multiple of itself plus a multiple of a pivot row, so
    the row space over Q, and hence the rank, is unchanged; the pivots have
    distinct leading columns, so the rank is their number.
    """
    pivots: dict[int, dict[int, int]] = {}
    for dense in rows:
        row = {c: a for c, a in enumerate(dense) if a}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, pv = row[lead], pivot[lead]
            g = gcd(a, pv) if pv > 0 else -gcd(a, pv)
            scale, f = pv // g, a // g  # scale > 0, and scale*a == f*pv
            if scale != 1:
                row = {c: scale * v for c, v in row.items()}
            for c, b in pivot.items():
                v = row.get(c, 0) - f * b
                if v:
                    row[c] = v
                else:
                    del row[c]
            if scale != 1:
                content = gcd(*row.values())
                if content > 1:
                    row = {c: v // content for c, v in row.items()}
    return len(pivots)


@dataclass(frozen=True)
class BettiTable:
    """Nonzero multigraded Betti numbers beta_{i,m}(S/I)."""

    arity: int
    entries: dict[tuple[int, tuple[int, ...]], int]

    @property
    def pd(self) -> int:
        return max((i for (i, _m), v in self.entries.items() if v), default=0)

    def total(self, i: int) -> int:
        return sum(v for (j, _m), v in self.entries.items() if j == i)

    def totals(self) -> list[int]:
        return [self.total(i) for i in range(self.pd + 1)]


@dataclass(frozen=True)
class DepthReport:
    depth_quotient: int
    pd: int
    method: str  # "taylor" | "socle-shortcut"


def taylor_tor_ranks(ideal: MonomialIdeal) -> BettiTable:
    """Multigraded Betti numbers of S/I from the Taylor complex."""
    gens = ideal.exps
    t = len(gens)
    if t > TAYLOR_CAP:
        raise TaylorCapError(f"{t} generators exceed the Taylor cap {TAYLOR_CAP}")
    n = ideal.context.arity
    zero = (0,) * n
    # group subsets of generators by the exponent vector of their lcm
    strands: dict[tuple[int, ...], dict[int, list[tuple[int, ...]]]] = {}
    lcm_of: dict[tuple[int, ...], tuple[int, ...]] = {(): zero}
    strands.setdefault(zero, {}).setdefault(0, []).append(())
    for size in range(1, t + 1):
        for subset in itertools.combinations(range(t), size):
            m = lcm_of[subset[:-1]]
            last = gens[subset[-1]]
            m = tuple(max(a, b) for a, b in zip(m, last))
            lcm_of[subset] = m
            strands.setdefault(m, {}).setdefault(size, []).append(subset)
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    for m, by_size in strands.items():
        sizes = sorted(by_size)
        rank_in: dict[int, int] = {}  # rank of d_i restricted to the strand
        for i in sizes:
            if i == 0:
                continue
            targets = by_size.get(i - 1, [])
            if not targets:
                rank_in[i] = 0
                continue
            col_of = {s: c for c, s in enumerate(targets)}
            rows = []
            for subset in by_size[i]:
                row = [0] * len(targets)
                for pos in range(i):
                    smaller = subset[:pos] + subset[pos + 1 :]
                    if lcm_of[smaller] == m:
                        row[col_of[smaller]] = -1 if pos % 2 else 1
                rows.append(row)
            rank_in[i] = rational_rank(rows)
        for i in sizes:
            dim = len(by_size[i])
            betti = dim - rank_in.get(i, 0) - rank_in.get(i + 1, 0)
            if betti:
                entries[(i, m)] = betti
    return BettiTable(n, entries)


def depth_quotient(ideal: MonomialIdeal) -> DepthReport:
    """depth(S/I) = n - pd(S/I); depth 0 is detected without homology when
    the colon by the maximal ideal is strictly larger than I."""
    if ideal.is_unit:
        raise ValueError("depth of the zero module is undefined")
    n = ideal.context.arity
    if ideal.is_zero:
        return DepthReport(n, 0, "taylor")
    if ideal.colon_maximal() != ideal:
        return DepthReport(0, n, "socle-shortcut")
    table = taylor_tor_ranks(ideal)
    pd = table.pd
    return DepthReport(n - pd, pd, "taylor")


def depth_ideal(ideal: MonomialIdeal, quotient_depth: int | None = None) -> int:
    """depth(I) = depth(S/I) + 1 for a nonzero proper ideal; quotient_depth,
    when given, is depth(S/I), already computed, and no Taylor run is made."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("depth_ideal needs a nonzero proper ideal")
    if quotient_depth is None:
        quotient_depth = depth_quotient(ideal).depth_quotient
    return quotient_depth + 1
