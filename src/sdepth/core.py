"""Exact arithmetic on monomials and monomial ideals.

Everything here is immutable and pure: a :class:`RingContext` fixes the
variable names (optionally split into two disjoint blocks), a
:class:`Monomial` is an exponent vector in a context, and a
:class:`MonomialIdeal` is the exponent tuples of its minimal generators
sorted in graded-lex order, so ideal equality is plain tuple equality.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable


DEFAULT_GENERATOR_CAP = 5000
# most generators lcm_closure takes: the lcm lattice has up to 2^t elements
LATTICE_CAP = 20


class ContextMismatchError(ValueError):
    """Operands live in different ring contexts."""


class CapError(RuntimeError):
    """A resource cap ran out: the answer is unknown, not wrong.

    Every cap of the engine raises a subclass: GeneratorCapError and
    LatticeCapError here, and ResourceCapError (cell cap).
    """


class GeneratorCapError(CapError):
    """An ideal operation would exceed the configured generator cap."""


class LatticeCapError(CapError):
    """Too many generators for the lcm lattice (LATTICE_CAP)."""


@dataclass(frozen=True)
class RingContext:
    """A polynomial ring given by its ordered variable names.

    ``split=r`` marks the first ``r`` variables as block A and the rest as
    block B; :func:`tensor_join` produces split contexts.
    """

    variables: tuple[str, ...]
    split: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("context needs at least one variable")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable names must be unique")
        if self.split is not None and not (1 <= self.split < len(self.variables)):
            raise ValueError("split must satisfy 1 <= r < number of variables")

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def block_a(self) -> tuple[str, ...]:
        if self.split is None:
            raise ValueError("context has no split")
        return self.variables[: self.split]

    @property
    def block_b(self) -> tuple[str, ...]:
        if self.split is None:
            raise ValueError("context has no split")
        return self.variables[self.split :]

    def index_of(self, name: str) -> int:
        return self.variables.index(name)

    def one(self) -> "Monomial":
        return Monomial(self, (0,) * self.arity)

    def variable(self, j: int) -> "Monomial":
        exps = [0] * self.arity
        exps[j] = 1
        return Monomial(self, tuple(exps))


def make_context(*names: str, split: int | None = None) -> RingContext:
    return RingContext(tuple(names), split)


@dataclass(frozen=True)
class Monomial:
    """Exponent vector in a fixed ring context; the unit is all zeros.

    Exponents must be non-negative ints (not bool or float), the rule
    ``verify_decomposition`` applies to corners.
    """

    context: RingContext
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.exponents) != self.context.arity:
            raise ValueError("exponent vector length must equal context arity")
        if any(type(e) is not int or e < 0 for e in self.exponents):
            raise ValueError("exponents must be non-negative ints")

    def _check(self, other: "Monomial") -> None:
        if self.context != other.context:
            raise ContextMismatchError("monomials from different contexts")

    @property
    def is_unit(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def divides(self, other: "Monomial") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def gcd(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.context, tuple(map(min, self.exponents, other.exponents)))

    def support(self) -> frozenset[int]:
        """Indices of variables with positive exponent."""
        return frozenset(j for j, e in enumerate(self.exponents) if e > 0)

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        return Monomial(self.context, tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        self._check(other)
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(self.context, tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __str__(self) -> str:
        parts = []
        for name, e in zip(self.context.variables, self.exponents):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial({self})"


def _minimal(exps: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Drop every tuple strictly divided by another; dedupe; sort graded-lex.

    A divisor of the same degree is the tuple itself, so each tuple is
    tested only against the kept ones of strictly lower degree.
    """
    kept: list[tuple[int, ...]] = []
    lower: list[tuple[int, ...]] = []  # the kept of lower degree
    level = 0  # kept[level:] have the current degree
    current = None
    for degree, e in sorted({(sum(e), e) for e in exps}):
        if degree != current:
            current = degree
            lower.extend(kept[level:])
            level = len(kept)
        if not any(all(map(operator.le, k, e)) for k in lower):
            kept.append(e)
    return tuple(kept)


def lcm_closure(exps: tuple[tuple[int, ...], ...]) -> set[tuple[int, ...]]:
    """The lcms of all nonempty subsets of the exponent tuples: each tuple
    in turn is joined with every lcm found so far, and added itself.
    LatticeCapError, before any join, when there are more than LATTICE_CAP."""
    if len(exps) > LATTICE_CAP:
        raise LatticeCapError(f"{len(exps)} generators exceed the lcm-lattice cap {LATTICE_CAP}")
    closure: set[tuple[int, ...]] = set()
    for g in exps:
        closure |= {tuple(map(max, g, e)) for e in closure}
        closure.add(g)
    return closure


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal in canonical form.

    ``exps`` holds the exponent tuples of the minimal generators in
    graded-lex order; the zero ideal has none, the unit ideal the zero
    tuple.  The direct constructor takes such canonical tuples as they
    are; :meth:`from_gens` checks and minimalises a caller's monomials.
    """

    context: RingContext
    exps: tuple[tuple[int, ...], ...]

    @classmethod
    def from_gens(cls, context: RingContext, gens: Iterable[Monomial]) -> "MonomialIdeal":
        exps = []
        for g in gens:
            if g.context != context:
                raise ContextMismatchError("generator context differs from ideal context")
            exps.append(g.exponents)
        return cls(context, _minimal(exps))

    @classmethod
    def zero(cls, context: RingContext) -> "MonomialIdeal":
        return cls(context, ())

    @classmethod
    def unit(cls, context: RingContext) -> "MonomialIdeal":
        return cls(context, ((0,) * context.arity,))

    @cached_property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators as monomials, built on first access."""
        return tuple(Monomial(self.context, e) for e in self.exps)

    @property
    def is_zero(self) -> bool:
        return not self.exps

    @property
    def is_unit(self) -> bool:
        return len(self.exps) == 1 and not any(self.exps[0])

    @property
    def is_proper(self) -> bool:
        return not self.is_unit

    def contains(self, m: Monomial) -> bool:
        """Membership of a monomial: some minimal generator divides it."""
        if m.context != self.context:
            raise ContextMismatchError("monomial from a different context")
        return self._contains(m.exponents)

    def _contains(self, e: tuple[int, ...]) -> bool:
        return any(all(map(operator.le, g, e)) for g in self.exps)

    def add(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return MonomialIdeal(self.context, _minimal(self.exps + other.exps))

    def multiply(self, other: "MonomialIdeal", cap: int = DEFAULT_GENERATOR_CAP) -> "MonomialIdeal":
        self._check(other)
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.context)
        if len(self.exps) * len(other.exps) > cap:
            raise GeneratorCapError(
                f"product would form {len(self.exps) * len(other.exps)} generators (cap {cap})"
            )
        return MonomialIdeal(
            self.context,
            _minimal(tuple(map(operator.add, a, b)) for a in self.exps for b in other.exps),
        )

    def power(self, n: int, cap: int = DEFAULT_GENERATOR_CAP) -> "MonomialIdeal":
        if n < 0:
            raise ValueError("negative ideal power")
        result = MonomialIdeal.unit(self.context)
        for _ in range(n):
            result = result.multiply(self, cap=cap)
        return result

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.context)
        return MonomialIdeal(
            self.context, _minimal(tuple(map(max, a, b)) for a in self.exps for b in other.exps)
        )

    def _check(self, other: "MonomialIdeal") -> None:
        if self.context != other.context:
            raise ContextMismatchError("ideals from different contexts")

    def __str__(self) -> str:
        return "(" + ", ".join(str(g) for g in self.gens) + ")" if self.exps else "(0)"

    def __repr__(self) -> str:
        return f"MonomialIdeal{self}"


def tensor_join(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal
) -> tuple[RingContext, MonomialIdeal, MonomialIdeal]:
    """Extend two ideals over disjoint variable sets into their joint ring.

    Returns the combined context (split at the arity of the first factor)
    together with both extensions.
    """
    ca, cb = ideal_a.context, ideal_b.context
    if set(ca.variables) & set(cb.variables):
        raise ValueError("variable names overlap; contexts are not tensor-compatible")
    joint = RingContext(ca.variables + cb.variables, split=ca.arity)
    pad_b = (0,) * cb.arity
    pad_a = (0,) * ca.arity
    # zero padding keeps the exponents canonical
    ext_a = MonomialIdeal(joint, tuple(e + pad_b for e in ideal_a.exps))
    ext_b = MonomialIdeal(joint, tuple(pad_a + e for e in ideal_b.exps))
    return joint, ext_a, ext_b


def is_complete_intersection(ideal: MonomialIdeal) -> bool:
    """Minimal generators form a regular sequence: pairwise disjoint supports."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("complete-intersection test needs a nonzero proper ideal")
    # disjoint supports: no variable occurs in two generators
    return all(sum(map(bool, column)) <= 1 for column in zip(*ideal.exps))


def krull_dim_quotient(ideal: MonomialIdeal) -> int:
    """Krull dimension of S/I via minimum vertex cover of generator supports.

    Exhaustive over variable subsets; fine at desk scale (arity <= ~12).
    """
    if ideal.is_unit:
        raise ValueError("dimension of the zero ring is undefined")
    n = ideal.context.arity
    if ideal.is_zero:
        return n
    supports = [{j for j, x in enumerate(e) if x} for e in ideal.exps]
    for size in range(n + 1):
        for cover in itertools.combinations(range(n), size):
            cs = set(cover)
            if all(s & cs for s in supports):
                return n - size
    raise AssertionError("unreachable: full variable set covers every support")


@dataclass(frozen=True)
class QuotientModule:
    """Multigraded module I/J presented by a pair of ideals with J inside I.

    Ideals are I/0, quotient rings are <1>/I.  Monomial membership is
    "in I but not in J".
    """

    outer: MonomialIdeal
    inner: MonomialIdeal

    def __post_init__(self):
        if self.outer.context != self.inner.context:
            raise ContextMismatchError("module pieces from different contexts")
        outside = [e for e in self.inner.exps if not self.outer._contains(e)]
        if outside:
            g = Monomial(self.context, outside[0])
            raise ValueError(f"inner generator {g} is not contained in the outer ideal")

    @classmethod
    def of_ideal(cls, ideal: MonomialIdeal) -> "QuotientModule":
        return cls(ideal, MonomialIdeal.zero(ideal.context))

    @classmethod
    def of_quotient_ring(cls, ideal: MonomialIdeal) -> "QuotientModule":
        return cls(MonomialIdeal.unit(ideal.context), ideal)

    @property
    def context(self) -> RingContext:
        return self.outer.context

    @property
    def is_zero(self) -> bool:
        return self.outer == self.inner

    def contains(self, m: Monomial) -> bool:
        return self.outer.contains(m) and not self.inner.contains(m)

    def __str__(self) -> str:
        outer = "S" if self.outer.is_unit else str(self.outer)
        return outer if self.inner.is_zero else f"{outer}/{self.inner}"
