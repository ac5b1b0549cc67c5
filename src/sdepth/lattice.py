"""lcm-lattices, join-preserving isomorphism, and Stanley-depth transfer.

A join-preserving bijection between the lcm-lattices of two ideals moves
Stanley depth between their ambient rings up to the difference in the number
of variables; this is how powers of a monomial complete intersection reduce
to powers of the maximal ideal in t variables.  Lattice elements are
exponent tuples, as in :func:`lcm_closure`; only DOT labels are monomials.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

from .core import Monomial, MonomialIdeal, RingContext, lcm_closure

Exponent = tuple[int, ...]


class TransferWithoutIsoError(RuntimeError):
    """Stanley-depth transfer was requested without a verified isomorphism."""


@dataclass(frozen=True)
class LcmLattice:
    """All lcms of nonempty generator subsets plus a bottom (the zero
    tuple), as exponent tuples in ``context``; the atoms are the minimal
    generators' tuples."""

    context: RingContext
    atoms: tuple[Exponent, ...]
    elements: frozenset[Exponent]

    @property
    def bottom(self) -> Exponent:
        return (0,) * self.context.arity


def _join(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def build_lcm_lattice(ideal: MonomialIdeal) -> LcmLattice:
    """Join closure of the minimal generators under lcm (LatticeCapError
    from :func:`lcm_closure` beyond its cap)."""
    if ideal.is_zero:
        raise ValueError("the zero ideal has no lcm-lattice")
    elements = lcm_closure(ideal.exps) | {(0,) * ideal.context.arity}
    return LcmLattice(ideal.context, ideal.exps, frozenset(elements))


def lattice_iso_check(
    source: LcmLattice, target: LcmLattice, phi: Mapping[Exponent, Exponent]
) -> bool:
    """Is the join-extension of the atom map a join-preserving bijection?

    ψ sends each element to the join of φ(a) over the atoms a below it, and
    the bottom (the zero tuple, listed or not) to the bottom.  Every element
    y is the join of the atoms a_1..a_k below it, so it suffices that
    ψ(x ∨ a) = ψ(x) ∨ φ(a) for each element x and atom a: ψ(x ∨ y) =
    ψ(x) ∨ φ(a_1) ∨ .. ∨ φ(a_k) = ψ(x) ∨ ψ(y).  It is necessary, as
    ψ(a) = φ(a) for minimal generators.  The ψ(x ∨ a) lookups check closure
    under joins with atoms, and with injectivity that is all the proof
    needs: the join z of the atoms below y is an element with ψ(z) = ψ(y),
    so z = y.  A source that is not the lcm lattice of its atoms is never
    accepted (False or KeyError).
    """
    if set(phi) != set(source.atoms):
        raise ValueError("atom map must be defined exactly on the source atoms")
    if any(v not in target.elements for v in phi.values()):
        raise ValueError("atom map values must be target lattice elements")
    psi = {
        e: tuple(map(max, zip(target.bottom, *(phi[a] for a in source.atoms if _join(a, e) == e))))
        for e in source.elements | {source.bottom}
    }
    image = set(psi.values())
    if len(image) != len(psi) or image != target.elements | {target.bottom}:
        return False
    return all(psi[_join(x, a)] == _join(psi[x], phi[a]) for x in psi for a in source.atoms)


def sdepth_transfer(
    source_value: int,
    source: LcmLattice,
    target: LcmLattice,
    phi: Mapping[Exponent, Exponent],
) -> int:
    """Move a Stanley depth along a verified lattice isomorphism.

    target sdepth = source sdepth + (target arity - source arity), the
    arities read from the lattices' contexts; refuses to answer when the
    atom map is not a join-preserving bijection.
    """
    if not lattice_iso_check(source, target, phi):
        raise TransferWithoutIsoError("atom map is not a join-preserving bijection")
    return source_value + (target.context.arity - source.context.arity)


def ci_power_atom_map(
    maximal_power: MonomialIdeal, ci_exps: tuple[Exponent, ...]
) -> dict[Exponent, Exponent]:
    """Natural atom map a ↦ a_1·v_1 + .. + a_t·v_t on exponent tuples,
    from the k-th power of the maximal ideal in t variables to the k-th
    power of a complete intersection whose generators have the tuples
    v_1..v_t."""
    if len(ci_exps) != maximal_power.context.arity:
        raise ValueError("generator count must match the source arity")
    columns = tuple(zip(*ci_exps))
    return {
        a: tuple(sum(map(operator.mul, a, column)) for column in columns)
        for a in maximal_power.exps
    }


def lattice_to_dot(lattice: LcmLattice) -> str:
    """DOT rendering of the lattice's Hasse diagram (divisibility order).

    The upper covers of p are the minimal joins p ∨ a ≠ p over the atoms a:
    a cover q of p is the join of its atoms, one of which, a, is not below
    p, so q = p ∨ a; and an element strictly between p and p ∨ a has an
    atom b not below p, so p ∨ b is a smaller join.  Edges are sorted by
    the rank of the upper element, then of the lower one.
    """
    elems = sorted(lattice.elements, key=lambda e: (sum(e), e))
    rank = {e: i for i, e in enumerate(elems)}
    edges = []
    for p in elems:
        ups = {_join(p, a) for a in lattice.atoms} - {p}
        covers = [q for q in ups if not any(r != q and _join(r, q) == q for r in ups)]
        edges += [(rank[q], rank[p]) for q in covers]
    lines = ["digraph lcm_lattice {", "  rankdir=BT;", "  node [shape=ellipse];"]
    for i, e in enumerate(elems):
        shape = "doublecircle" if e in lattice.atoms else "ellipse"
        lines.append(f'  m{i} [label="{Monomial(lattice.context, e)}", shape={shape}];')
    lines += [f"  m{p} -> m{q};" for q, p in sorted(edges)]
    lines.append("}")
    return "\n".join(lines)
