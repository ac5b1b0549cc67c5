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

    @property
    def proper_elements(self) -> frozenset[Exponent]:
        return self.elements - {self.bottom}


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(map(operator.le, a, b))


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

    The extension ψ sends each proper element e to the componentwise max of
    φ(a) over the atoms a dividing e.
    """
    if set(phi) != set(source.atoms):
        raise ValueError("atom map must be defined exactly on the source atoms")
    if any(v not in target.elements for v in phi.values()):
        raise ValueError("atom map values must be target lattice elements")
    psi: dict[Exponent, Exponent] = {}
    for e in source.proper_elements:
        below = [phi[a] for a in source.atoms if _divides(a, e)]
        if not below:
            return False
        psi[e] = tuple(map(max, zip(*below)))
    image = set(psi.values())
    if len(image) != len(psi) or image != set(target.proper_elements):
        return False
    elems = sorted(psi, key=lambda e: (sum(e), e))
    for i, x in enumerate(elems):
        for y in elems[i:]:
            if psi[tuple(map(max, x, y))] != tuple(map(max, psi[x], psi[y])):
                return False
    return True


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
    """DOT rendering of the lattice's Hasse diagram (divisibility order)."""
    elems = sorted(lattice.elements, key=lambda e: (sum(e), e))
    below: dict[Exponent, list[Exponent]] = {e: [] for e in elems}
    for p in elems:
        for q in elems:
            if p != q and _divides(p, q):
                below[q].append(p)
    lines = ["digraph lcm_lattice {", "  rankdir=BT;", "  node [shape=ellipse];"]
    ids = {e: f"m{i}" for i, e in enumerate(elems)}
    for e in elems:
        shape = "doublecircle" if e in lattice.atoms else "ellipse"
        lines.append(f'  {ids[e]} [label="{Monomial(lattice.context, e)}", shape={shape}];')
    for q in elems:
        covers = [
            p
            for p in below[q]
            if not any(_divides(p, r) and r != p for r in below[q])
        ]
        for p in covers:
            lines.append(f"  {ids[p]} -> {ids[q]};")
    lines.append("}")
    return "\n".join(lines)
