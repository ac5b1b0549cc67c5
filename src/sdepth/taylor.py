"""Depth of monomial quotients via multigraded Betti numbers.

The Taylor complex on the minimal generators of I, tensored with the base
field, splits into strands indexed by lcm multidegrees m, and the homology
of each strand is the multigraded Betti number beta_{i,m}(S/I).  The
strand is computed without the 2^t subsets: beta_{i,m} is the reduced
homology H~_{i-2} of the upper Koszul complex K^m = {squarefree T :
x^(m-T) in I}, which has at most n vertices and is nonzero only for m in
the lcm lattice (Miller-Sturmfels, Thm 1.34).  Each generator g dividing m
gives a facet {k : g_k < m_k} of K^m; an empty facet means m is a
generator, maximal facets with a common vertex mean K^m is a cone, and
otherwise the homology is taken on K^m or on the nerve of its maximal
facets, whichever has fewer vertices (the two are homotopy equivalent).
Depth then follows from depth + pd = n (Auslander-Buchsbaum).  Ranks are
over the rationals, computed by exact fraction-free sparse elimination
over the integers (``rational_rank``), so depth is the characteristic-0
value.  The Betti numbers depend only on the lcm lattice, so
:func:`depth_quotient` computes pd once per lattice shape, the generators
compressed and canonically ordered, in the shape memo of ``core``
(:func:`_shape_pd`).  docs/internals.md has the derivation.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import reduce
from math import gcd

from .core import (
    MonomialIdeal,
    QuotientModule,
    _minimal,
    compress,
    lcm_closure,
    shape_memo,
)


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
    """Nonzero multigraded Betti numbers beta_{i,m}(S/I), keyed by (i, m)
    with m an exponent tuple of the ring's arity."""

    entries: dict[tuple[int, tuple[int, ...]], int]

    @property
    def pd(self) -> int:
        return max((i for (i, _m), v in self.entries.items() if v), default=0)


@dataclass(frozen=True)
class DepthReport:
    depth_quotient: int
    pd: int
    method: str  # "taylor" | "socle-shortcut"


def _submasks(mask: int):
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    yield 0


def _reduced_homology(facets: list[int]) -> dict[int, int]:
    """Nonzero ranks over Q of the reduced homology of the simplicial
    complex whose faces are the submasks of the given bit masks, keyed by
    face size: {s: dim H~_(s-1)}.  The complex must have a vertex."""
    by_size: dict[int, list[int]] = {}
    for face in sorted({sub for f in facets for sub in _submasks(f)}):
        by_size.setdefault(face.bit_count(), []).append(face)
    # rank of the boundary from size s to size s - 1; the augmentation
    # (s = 1) of a complex with a vertex has rank 1
    rank = {1: 1}
    for s in range(2, len(by_size)):
        col_of = {f: c for c, f in enumerate(by_size[s - 1])}
        rows = []
        for face in by_size[s]:
            row = [0] * len(col_of)
            sign, rest = 1, face
            while rest:
                low = rest & -rest
                row[col_of[face ^ low]] = sign
                sign, rest = -sign, rest ^ low
            rows.append(row)
        rank[s] = rational_rank(rows)
    homology = {}
    for s, faces in by_size.items():
        h = len(faces) - rank.get(s, 0) - rank.get(s + 1, 0)
        if h:
            homology[s] = h
    return homology


def taylor_tor_ranks(ideal: MonomialIdeal) -> BettiTable:
    """Multigraded Betti numbers of S/I, from the upper Koszul complexes of
    the lcm-lattice elements (see the module docstring)."""
    gens = ideal.exps
    n = ideal.context.arity
    if ideal.is_unit:
        return BettiTable({})
    bits = [1 << k for k in range(n)]
    entries: dict[tuple[int, tuple[int, ...]], int] = {(0, (0,) * n): 1}
    for m in lcm_closure(gens):
        # facet of K^m per generator g dividing m: the variables k with g_k < m_k
        facets = {
            sum(itertools.compress(bits, map(operator.lt, g, m)))
            for g in gens
            if all(map(operator.le, g, m))
        }
        if 0 in facets:  # m is a minimal generator, and K^m = {empty set}
            entries[(1, m)] = 1
            continue
        maximal = [f for f in facets if not any(f != h and f & h == f for h in facets)]
        if reduce(operator.and_, maximal):  # a cone: no homology
            continue
        vertices = reduce(operator.or_, maximal)
        complex_ = maximal
        if vertices.bit_count() > len(maximal):
            # the nerve: for each vertex, the set of maximal facets holding it
            complex_ = [
                sum(1 << j for j, f in enumerate(maximal) if f >> k & 1)
                for k in range(n)
                if vertices >> k & 1
            ]
        for size, betti in _reduced_homology(complex_).items():
            entries[(size + 1, m)] = betti
    return BettiTable(entries)


def has_socle(ideal: MonomialIdeal) -> bool:
    """Is (I : (x_1,..,x_n)) strictly larger than I, i.e. depth(S/I) = 0?

    When every variable has a pure power among the generators, S/I is
    Artinian and, I being proper, nonzero: its monomials outside I of top
    degree are socle, and the answer is yes without any colon.  Otherwise
    (I : x_j) is generated by I and the g / x_j for the minimal generators
    g with g_j > 0, none of which lies in I.  The colons are intersected
    one variable at a time, keeping only the minimal generators of the
    intersection so far that lie outside I: a monomial of the next
    intersection outside I is a multiple of the lcm of one of them and one
    g / x_j, and that lcm lies outside I too.  The answer is yes when some
    remain after the last variable.
    """
    arity = ideal.context.arity
    if len({j for g in ideal.exps for j, e in enumerate(g) if e == sum(g) > 0}) == arity:
        return True
    outside = None
    for j in range(arity):
        colon = [g[:j] + (g[j] - 1,) + g[j + 1 :] for g in ideal.exps if g[j]]
        if outside is not None:
            colon = [tuple(map(max, c, b)) for c in outside for b in colon]
        outside = _minimal(c for c in colon if not ideal._contains(c))
        if not outside:
            return False
    return True


def _pd(module: QuotientModule) -> int:
    """pd(S/I) for the module S/I: the arity when S/I has a socle (depth
    0), and otherwise read off its Betti numbers."""
    if has_socle(module.inner):
        return module.context.arity
    return taylor_tor_ranks(module.inner).pd


# (order, pd) by (arity, outer, inner), outer the unit ideal: one pd per
# lcm-lattice shape; taylor_tor_ranks is looked up on each miss
_shape_pd = shape_memo(_pd)


def depth_quotient(ideal: MonomialIdeal) -> DepthReport:
    """depth(S/I) = n - pd(S/I), with pd computed once per lcm-lattice
    shape (:func:`_shape_pd`) on the compressed, canonically ordered
    generators (:func:`compress`, :func:`canonical_shape`).

    The Betti numbers, and so pd, depend only on the lcm lattice
    (Gasharov-Peeva-Welker), which the increasing per-variable relabelling
    and any permutation of the variables keep; a variable no generator
    involves keeps pd and adds one to depth, since pd is taken in the ring
    of the kept variables and n counts them all.  Depth 0 means a socle
    on the shape with no unused variable, which has_socle detects without
    homology (the colon by the maximal ideal strictly larger than I), so
    the report is labelled "socle-shortcut" exactly when its depth is 0.
    """
    if ideal.is_unit:
        raise ValueError("depth of the zero module is undefined")
    n = ideal.context.arity
    if ideal.is_zero:
        return DepthReport(n, 0, "taylor")
    _levels, kept, outer, inner = compress(QuotientModule.of_quotient_ring(ideal))
    pd = _shape_pd(len(kept), outer, inner)[1]
    depth = n - pd
    return DepthReport(depth, pd, "taylor" if depth else "socle-shortcut")


def depth_ideal(ideal: MonomialIdeal, quotient_depth: int) -> int:
    """depth(I) = depth(S/I) + 1 for a nonzero proper ideal, from
    quotient_depth = depth(S/I) as :func:`depth_quotient` computed it."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("depth_ideal needs a nonzero proper ideal")
    return quotient_depth + 1
