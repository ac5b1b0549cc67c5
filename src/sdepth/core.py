"""Exact arithmetic on monomials and monomial ideals.

Everything here is immutable and pure: a :class:`RingContext` fixes the
variable names (optionally split into two disjoint blocks), a
:class:`Monomial` is an exponent vector in a context, and a
:class:`MonomialIdeal` is the exponent tuples of its minimal generators
sorted in graded-lex order, so ideal equality is plain tuple equality.

The shape layer at the end reduces a presentation to its shape:
:func:`compress` relabels each variable's exponents onto 0, 1, 2, .. and
drops the unused variables, and :func:`canonical_shape` puts the kept
variables in a canonical order.  Stanley depth and pd are read off the
shape (each unused variable adds one to depth and to Stanley depth), so
:func:`shape_memo` computes an answer once per shape up to a permutation
of its variables, on the module :func:`neutral_module` builds.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from typing import Iterable, Iterator


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


def _check_cap(count: int, cap: int) -> None:
    """GeneratorCapError when a product would form more than cap generators."""
    if count > cap:
        raise GeneratorCapError(f"product would form {count} generators (cap {cap})")


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
        _check_cap(len(self.exps) * len(other.exps), cap)
        return MonomialIdeal(
            self.context,
            _minimal(tuple(map(operator.add, a, b)) for a in self.exps for b in other.exps),
        )

    def powers(self, cap: int = DEFAULT_GENERATOR_CAP) -> Iterator["MonomialIdeal"]:
        """I^0, I^1, I^2, ..., the one place powers are built: I^0 is the
        unit ideal, I^1 is I itself, and each later power one product from
        the one before.  A power over the generator cap raises
        GeneratorCapError, I^1 with the error of the product unit * I."""
        yield MonomialIdeal.unit(self.context)
        if not self.is_zero:
            _check_cap(len(self.exps), cap)
        power = self
        while True:
            yield power
            power = power.multiply(self, cap=cap)

    def power(self, n: int, cap: int = DEFAULT_GENERATOR_CAP) -> "MonomialIdeal":
        """I^n, the n-th element of :meth:`powers`: n - 1 products for n >= 1."""
        if n < 0:
            raise ValueError("negative ideal power")
        return next(itertools.islice(self.powers(cap), n, None))

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
        # S holds every inner generator, so only a proper outer ideal is tested
        outside = [] if self.outer.is_unit else [e for e in self.inner.exps if not self.outer._contains(e)]
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


# --- shapes: presentations up to relabelling and reordering -------------------

# exponent tuples, one per generator (or per variable, for levels)
Exponents = tuple[tuple[int, ...], ...]

# shapes each shape_memo remembers: each shape in its own variable order,
# and each canonical shape with its answer; and the most arrangements of
# tied variables, before class swaps prune them, among which
# canonical_shape looks for the least key
SHAPE_CACHE_SIZE = 4096
ORDERINGS_CAP = 720


def compress(module: QuotientModule) -> tuple[Exponents, list[int], Exponents, Exponents]:
    """The shape of the module's poset, read off its generator exponents:
    per variable the levels of the relabelling, the variables kept, and the
    generators of outer and of inner relabelled and restricted to them.

    Per variable, the distinct exponents in the generators of outer and
    inner, plus 0, map onto 0, 1, 2, ... in order; ``levels[j][i]`` is the
    exponent that level i stands for.  The map keeps the lcm-lattice of the
    presentation.  The variables kept are those some generator involves (S
    itself, which involves none, keeps its first): a variable with the one
    level 0 is an axis of length one.  The relabelled generators come in
    graded-lex order, ready for :class:`MonomialIdeal`, and are the module's
    own exponent tuples when the map is the identity and every variable is
    kept.  No module is built.
    """
    outer, inner = module.outer.exps, module.inner.exps
    # per variable its exponents, with a 0 in front
    columns = list(zip((0,) * module.context.arity, *outer, *inner))
    levels = tuple(map(tuple, map(sorted, map(set, columns))))
    kept = [j for j, v in enumerate(levels) if len(v) > 1] or [0]
    relabelled = [j for j in kept if len(levels[j]) <= levels[j][-1]]
    if not relabelled and len(kept) == len(levels):
        return levels, kept, outer, inner
    for j in relabelled:
        columns[j] = map(dict(zip(levels[j], itertools.count())).__getitem__, columns[j])
    rows = list(zip(*map(columns.__getitem__, kept)))
    # row 0 is the 0 put in front
    outer, inner = rows[1 : len(outer) + 1], rows[len(outer) + 1 :]
    if relabelled:
        # monotone per variable, so minimality and lex order hold; the
        # degrees change
        return levels, kept, _graded_lex(outer), _graded_lex(inner)
    return levels, kept, tuple(outer), tuple(inner)


def _graded_lex(exps: list[tuple[int, ...]]) -> Exponents:
    # lex first, then stably by degree
    return tuple(sorted(sorted(exps), key=sum))


def _interleavings(runs: tuple[tuple[int, ...], ...], waits: dict[int, int] | None = None):
    """Every merge of the nonempty runs that keeps each run's own order, in
    the lex order of the runs its places draw from.  ``waits`` maps the
    first member of a run to the first member of an earlier run: then only
    the merges in which the later run starts after the earlier one come,
    in the same order."""
    if len(runs) == 1:
        yield runs[0]
        return
    # a run that has started no longer shows its first member
    heads = {run[0] for run in runs} if waits else ()
    for i, run in enumerate(runs):
        if waits and waits.get(run[0]) in heads:
            continue
        rest = runs[:i] + ((run[1:],) if len(run) > 1 else ()) + runs[i + 1 :]
        for tail in _interleavings(rest, waits):
            yield run[:1] + tail


def canonical_shape(
    arity: int, outer: Exponents, inner: Exponents
) -> tuple[tuple[int, ...], Exponents, Exponents]:
    """The shape outer/inner (graded-lex exponent tuples of this arity,
    outer not empty) with its variables in canonical order: the order
    (column i of the result is column order[i] of the input) and the
    generators of outer and inner so permuted, in graded-lex order.

    A permutation of the variables permutes the axes of the poset and keeps
    its Stanley depth, and it keeps the lcm lattice and so pd(S/I), so all
    orderings of one shape can share one walk and one pd.
    The order sorts the columns by an invariant no permutation changes: per
    generator set, the column's exponents paired with their generators'
    degrees.  Among the orderings that do, it gives the least (outer,
    inner), which is then the same for every ordering of the shape; of the
    orderings with that key, the first in the order the arrangements are
    made in.  Only tied columns are permuted, and two tied columns whose
    swap fixes both generator sets are interchangeable, so they keep their
    relative order.  Two classes of them in one run whose member-by-member
    swap fixes both sets are swappable: swapping them keeps the key and
    makes an earlier arrangement of any in which the later class starts
    first, so only the arrangements in which swappable classes start in
    index order are tried, and the first least key is among them.  When
    more than ORDERINGS_CAP arrangements remain (counted before that
    pruning), the first is taken: a key that fewer orderings share, never a
    wrong one.
    """
    if arity == 1:
        return (0,), outer, inner
    rows = outer + inner
    degrees = list(map(sum, rows))
    # a row's set and degree, which no permutation changes, in the digits
    # above its exponent: d * base for outer, -(d + 1) * base for inner
    base = 1 + max(degrees)
    tags = [d * base for d in degrees[: len(outer)]] + [~d * base for d in degrees[len(outer) :]]
    invariants = [tuple(sorted(map(operator.add, tags, column))) for column in zip(*rows)]
    outer_set, inner_set = set(outer), set(inner)

    def fixes(swaps: Iterable[tuple[int, int]]) -> bool:
        """Whether swapping each pair of columns (disjoint pairs) fixes both
        generator sets: the test of a symmetry of the shape.  A permutation
        maps distinct rows to distinct rows, so a set it maps into itself
        it maps onto itself, and the first row mapped outside decides."""
        perm = list(range(arity))
        for i, j in swaps:
            perm[i], perm[j] = j, i
        get = operator.itemgetter(*perm)
        return outer_set.issuperset(map(get, outer)) and inner_set.issuperset(map(get, inner))

    # per run of tied columns, its classes of interchangeable ones
    groups = []
    orderings = 1
    columns = sorted(range(arity), key=invariants.__getitem__)
    for _, tied in itertools.groupby(columns, key=invariants.__getitem__):
        classes: list[list[int]] = []
        for j in tied:
            for same in classes:
                if fixes([(same[0], j)]):
                    same.append(j)
                    break
            else:
                classes.append([j])
        groups.append(tuple(map(tuple, classes)))
        if len(classes) > 1:
            orderings *= math.factorial(sum(map(len, classes)))
            orderings //= math.prod(math.factorial(len(c)) for c in classes)
    # the first ordering puts the classes of each run one after the other
    first = sum(itertools.chain.from_iterable(groups), ())
    if orderings == 1 and first == tuple(range(arity)):
        return first, outer, inner
    candidates = [(first,)]
    if 1 < orderings <= ORDERINGS_CAP:
        merges = []
        for group in groups:
            # a class waits for the last earlier class it swaps with member
            # by member, so the classes of such an orbit start in index order
            waits: dict[int, int] = {}
            if len(group) > 1:
                orbits: list[list[tuple[int, ...]]] = []
                for members in group:
                    for orbit in orbits:
                        if len(orbit[0]) == len(members) and fixes(zip(orbit[0], members)):
                            waits[members[0]] = orbit[-1][0]
                            orbit.append(members)
                            break
                    else:
                        orbits.append([members])
            merges.append(_interleavings(group, waits))
        candidates = itertools.product(*merges)
    # per set its graded-lex blocks: the degrees do not change under a
    # permutation, so every ordering sorts within the same blocks, and
    # comparing the blocks in turn compares the keys
    blocks = [list(block) for _, block in itertools.groupby(outer, key=sum)]
    split = len(blocks)
    blocks += [list(block) for _, block in itertools.groupby(inner, key=sum)]
    best: list[list[tuple[int, ...]]] = []
    best_order = first
    for parts in candidates:
        order = sum(parts, ())
        get = operator.itemgetter(*order)
        key = []
        tied = bool(best)  # equal to the best key so far in the blocks compared
        for n, block in enumerate(blocks):
            sorted_block = sorted(map(get, block))
            if tied:
                if sorted_block > best[n]:
                    break
                tied = sorted_block == best[n]
            key.append(sorted_block)
        else:
            if not tied:
                best, best_order = key, order
    return (
        best_order,
        tuple(itertools.chain.from_iterable(best[:split])),
        tuple(itertools.chain.from_iterable(best[split:])),
    )


@cache
def _neutral_context(arity: int) -> RingContext:
    """The ring x1, .., x_arity in which a memo builds a canonical shape."""
    return RingContext(tuple(f"x{j + 1}" for j in range(arity)))


def neutral_module(arity: int, outer: Exponents, inner: Exponents) -> QuotientModule:
    """The module outer/inner, given by graded-lex exponent tuples, in the
    ring x1, .., x_arity."""
    context = _neutral_context(arity)
    return QuotientModule(MonomialIdeal(context, outer), MonomialIdeal(context, inner))


def shape_memo(compute):
    """``compute(module, *args)`` memoised by shape: an ``lru_cache`` of
    SHAPE_CACHE_SIZE entries keyed by ``(arity, outer, inner, *args)``, the
    shape in its own variable order, that returns ``(order, answer)`` with
    the canonical order of :func:`canonical_shape`.  A shape that is not
    its own canonical form takes its canonical shape's answer, one level
    down, since the canonical form of a canonical shape is itself; a
    canonical shape seen for the first time is computed on its
    :func:`neutral_module`.  So every ordering of a shape shares one
    answer, which must then not depend on the variable order.  An
    exception propagates and is not memoised."""

    @lru_cache(maxsize=SHAPE_CACHE_SIZE)
    def memo(arity: int, outer: Exponents, inner: Exponents, *args):
        order, canonical_outer, canonical_inner = canonical_shape(arity, outer, inner)
        if (canonical_outer, canonical_inner) != (outer, inner):
            return order, memo(arity, canonical_outer, canonical_inner, *args)[1]
        return order, compute(neutral_module(arity, outer, inner), *args)

    return memo
