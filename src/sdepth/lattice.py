"""lcm-lattices, join-preserving isomorphism, and Stanley-depth transfer.

A join-preserving bijection between the lcm-lattices of two ideals moves
Stanley depth between their ambient rings up to the difference in the number
of variables; this is how powers of a monomial complete intersection reduce
to powers of the maximal ideal in t variables.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping

from .core import CapError, Monomial, MonomialIdeal, RingContext


# most atoms whose join closure build_lcm_lattice computes
LATTICE_CAP = 20


class LatticeCapError(CapError):
    """Too many atoms for join closure."""


class TransferWithoutIsoError(RuntimeError):
    """Stanley-depth transfer was requested without a verified isomorphism."""


@dataclass(frozen=True)
class LcmLattice:
    """All lcms of nonempty generator subsets plus a bottom (the unit)."""

    context: RingContext
    atoms: tuple[Monomial, ...]
    elements: frozenset[Monomial]

    @property
    def bottom(self) -> Monomial:
        return self.context.one()

    @property
    def proper_elements(self) -> frozenset[Monomial]:
        return self.elements - {self.bottom}


def build_lcm_lattice(ideal: MonomialIdeal) -> LcmLattice:
    """Join closure of the minimal generators under lcm."""
    if ideal.is_zero:
        raise ValueError("the zero ideal has no lcm-lattice")
    if len(ideal.gens) > LATTICE_CAP:
        raise LatticeCapError(f"{len(ideal.gens)} atoms exceed the lattice cap {LATTICE_CAP}")
    atoms = ideal.gens
    elements = set(atoms)
    frontier = set(atoms)
    while frontier:
        new = set()
        for e in frontier:
            for a in atoms:
                j = e.lcm(a)
                if j not in elements:
                    elements.add(j)
                    new.add(j)
        frontier = new
    elements.add(ideal.context.one())
    return LcmLattice(ideal.context, atoms, frozenset(elements))


def _extend_atom_map(
    source: LcmLattice, phi: Mapping[Monomial, Monomial]
) -> dict[Monomial, Monomial] | None:
    """Extend an atom map over the whole lattice via joins of atoms below."""
    psi: dict[Monomial, Monomial] = {}
    for e in source.proper_elements:
        below = [phi[a] for a in source.atoms if a.divides(e)]
        if not below:
            return None
        psi[e] = reduce(Monomial.lcm, below)
    return psi


def lattice_iso_check(
    source: LcmLattice, target: LcmLattice, phi: Mapping[Monomial, Monomial]
) -> bool:
    """Is the join-extension of the atom map a join-preserving bijection?"""
    if set(phi) != set(source.atoms):
        raise ValueError("atom map must be defined exactly on the source atoms")
    if any(v not in target.elements for v in phi.values()):
        raise ValueError("atom map values must be target lattice elements")
    psi = _extend_atom_map(source, phi)
    if psi is None:
        return False
    image = set(psi.values())
    if len(image) != len(psi) or image != set(target.proper_elements):
        return False
    # joins of all pairs, on exponent tuples
    image_of = {x.exponents: y.exponents for x, y in psi.items()}
    elems = sorted(image_of, key=lambda e: (sum(e), e))
    for i, x in enumerate(elems):
        for y in elems[i:]:
            if image_of[tuple(map(max, x, y))] != tuple(map(max, image_of[x], image_of[y])):
                return False
    return True


def sdepth_transfer(
    source_value: int,
    source_arity: int,
    target_arity: int,
    source: LcmLattice,
    target: LcmLattice,
    phi: Mapping[Monomial, Monomial],
) -> int:
    """Move a Stanley depth along a verified lattice isomorphism.

    target sdepth = source sdepth + (target arity - source arity); refuses
    to answer when the atom map is not a join-preserving bijection.
    """
    if not lattice_iso_check(source, target, phi):
        raise TransferWithoutIsoError("atom map is not a join-preserving bijection")
    return source_value + (target_arity - source_arity)


def ci_power_atom_map(
    maximal_power: MonomialIdeal, ci_gens: tuple[Monomial, ...]
) -> dict[Monomial, Monomial]:
    """Natural atom map x^(a_1)...x^(a_t) -> v_1^(a_1)...v_t^(a_t) between the
    k-th power of the maximal ideal in t variables and the k-th power of a
    complete intersection with generators v_1..v_t."""
    t = maximal_power.context.arity
    if len(ci_gens) != t:
        raise ValueError("generator count must match the source arity")
    ctx = ci_gens[0].context
    phi = {}
    for a in maximal_power.gens:
        image = ctx.one()
        for j, e in enumerate(a.exponents):
            image = image * (ci_gens[j] ** e)
        phi[a] = image
    return phi


def lattice_to_dot(lattice: LcmLattice) -> str:
    """DOT rendering of the lattice's Hasse diagram (divisibility order)."""
    elems = sorted(lattice.elements, key=Monomial.sort_key)
    below: dict[Monomial, list[Monomial]] = {e: [] for e in elems}
    for p in elems:
        for q in elems:
            if p != q and p.divides(q):
                below[q].append(p)
    lines = ["digraph lcm_lattice {", "  rankdir=BT;", "  node [shape=ellipse];"]
    ids = {e: f"m{i}" for i, e in enumerate(elems)}
    for e in elems:
        shape = "doublecircle" if e in lattice.atoms else "ellipse"
        lines.append(f'  {ids[e]} [label="{e}", shape={shape}];')
    for q in elems:
        covers = [
            p
            for p in below[q]
            if not any(p.divides(r) and r != p for r in below[q])
        ]
        for p in covers:
            lines.append(f"  {ids[p]} -> {ids[q]};")
    lines.append("}")
    return "\n".join(lines)
