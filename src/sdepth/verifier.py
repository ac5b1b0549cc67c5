"""Executable checks for the catalogued statements about sdepth/depth of
powers of sums of monomial ideals in disjoint variable blocks.

Each ``check_*`` brackets both sides of its (in)equalities on a concrete
instance and returns a :class:`TheoremReport` with verdict ``holds``,
``fails``, ``unknown`` (brackets overlap) or ``vacuous``.  Conjecture-style items are
recorded as observations, never asserted.  A ``fails`` verdict on an
instance satisfying the hypotheses is a bug, and reports carry a full
reproducible instance dump for that reason.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator

from .core import (
    CapError,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    RingContext,
    is_complete_intersection,
    krull_dim_quotient,
    tensor_join,
)
from .lattice import build_lcm_lattice, ci_power_atom_map, sdepth_transfer
from .parsing import format_ideal, split_blocks
from .poset import (
    Budget,
    DEFAULT_BUDGET,
    cover_mismatches,
    ideal_mask,
    kron_mask,
    module_mask,
    poset_box,
    sdepth_exact,
)
from .taylor import depth_ideal, depth_quotient


Bracket = tuple[int, int]


@dataclass(frozen=True)
class CheckItem:
    label: str
    # an int for a closed bracket, [lo, hi] for an open one, None when the
    # item compares nothing
    lhs: int | list[int] | None
    rhs: int | list[int] | None
    relation: str  # "<=", ">=", "==" (lhs REL rhs)
    verdict: str  # holds | fails | unknown | vacuous | observed-holds | observed-fails

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class TheoremReport:
    statement: str
    instance: dict[str, str]
    items: list[CheckItem] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        decisive = {i.verdict for i in self.items if not i.verdict.startswith("observed")}
        for verdict in ("fails", "unknown"):
            if verdict in decisive:
                return verdict
        return "vacuous" if decisive == {"vacuous"} else "holds"

    def to_json_dict(self) -> dict:
        return {**asdict(self), "verdict": self.verdict}


class HypothesisError(ValueError):
    """The instance violates a statement's stated hypotheses."""


# --- evaluation helpers ------------------------------------------------------


def _known(fn, *args, **kwargs):
    """fn's answer, or None when a cap stopped it: the one place in the
    verifier where a CapError becomes ``unknown``."""
    try:
        return fn(*args, **kwargs)
    except CapError:
        return None


class _Operand:
    """A module as the verifier's memo keys it: the arity, the exponent
    tuples of its two ideals and the budget, not its ring.  The module
    rides along uncompared for the one call a miss makes, which takes it,
    so the memo keeps the key and not the module."""

    __slots__ = ("key", "module")

    def __init__(self, module: QuotientModule, budget: Budget):
        self.key = (module.context.arity, module.outer.exps, module.inner.exps, budget)
        self.module = module

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        return self.key == other.key


# operands, by exponent tuples and budget, whose Stanley-depth bracket the
# verifier remembers: two ints and the key each
BRACKET_CACHE_SIZE = 4096


@lru_cache(maxsize=BRACKET_CACHE_SIZE)
def _bracket(operand: _Operand) -> Bracket:
    """The bracket of :func:`_sd`, by one :func:`sdepth_exact` call on the
    module of the first operand with these exponents and budget."""
    module, operand.module = operand.module, None
    arity, _, _, budget = operand.key
    res = _known(sdepth_exact, module, budget=budget)
    return (0, arity) if res is None else (res.lo, res.hi)


def _sd(module: QuotientModule, budget: Budget) -> Bracket:
    """Stanley depth as its bracket [lo, hi]; [0, n] when a cap stopped the
    walk, since every nonzero module has 0 <= sdepth <= n.

    Memoised by the module's exponent tuples and the budget, without its
    ring (:func:`_bracket`): a block's module in its own variables, in the
    joint ring or in a split ring, and a module that several checks
    compare, is decided once per process.  Only the
    bracket is kept, never the witness.  On a miss :func:`sdepth_exact`
    runs on this module and certifies its witness on it, so every distinct
    (exponents, budget) pair is certified on an input once; a
    CertificateError propagates and nothing is cached.
    """
    return _bracket(_Operand(module, budget))


def _depth_q(ideal: MonomialIdeal) -> Bracket:
    """depth(S/I) as a closed bracket; [0, n] when a cap stopped it."""
    depth_q = _known(lambda: depth_quotient(ideal).depth_quotient)
    return (0, ideal.context.arity) if depth_q is None else (depth_q, depth_q)


def _depths(ideal: MonomialIdeal) -> tuple[Bracket, Bracket]:
    """depth(S/I) and depth(I) = depth(S/I) + 1 from one Taylor run; both
    [0, n] when a cap stopped it, which only happens on a nonzero proper ideal."""
    lo, hi = depth_q = _depth_q(ideal)
    return depth_q, depth_q if lo < hi else (depth_ideal(ideal, lo),) * 2


def _ends(value) -> Bracket:
    """An operand as a bracket: an int v is [v, v]."""
    return (value, value) if isinstance(value, int) else value


def _sum(*values) -> Bracket:
    return tuple(map(sum, zip(*map(_ends, values))))


def _min(values) -> Bracket:
    return tuple(map(min, zip(*map(_ends, values))))


def _verdict(lhs, rhs, relation) -> str:
    """``holds`` when every pair of values in the two brackets satisfies the
    relation, ``fails`` when no pair does, else (or for a None) ``unknown``."""
    if lhs is None or rhs is None:
        return "unknown"
    # lhs <= rhs is rhs >= lhs
    (a, b), (c, d) = (_ends(rhs), _ends(lhs)) if relation == "<=" else (_ends(lhs), _ends(rhs))
    holds, fails = (a == b == c == d, b < c or d < a) if relation == "==" else (a >= d, b < c)
    return "holds" if holds else "fails" if fails else "unknown"


# Kleene logic on two or more verdicts, fails < unknown < holds: "and" is
# the least verdict, "or" the greatest
_TRUTH = ("fails", "unknown", "holds")
_and, _or = partial(min, key=_TRUTH.index), partial(max, key=_TRUTH.index)


def _operand(value):
    if value is None or isinstance(value, int):
        return value
    return list(value) if _value(value) is None else value[0]


def _value(bracket: Bracket) -> int | None:
    lo, hi = bracket
    return lo if lo == hi else None


def _item(label, lhs, rhs, relation, verdict: str | None = None) -> CheckItem:
    """The item lhs REL rhs, its verdict by :func:`_verdict` unless given."""
    verdict = verdict or _verdict(lhs, rhs, relation)
    return CheckItem(label, _operand(lhs), _operand(rhs), relation, verdict)


def _if_below(tag: str, value, bound, claims: Callable[[], list[CheckItem]]) -> list[CheckItem]:
    """The items of a claim whose hypothesis is value < bound: ``claims()``
    when it holds, a vacuous item when it fails, else an unknown one."""
    hypothesis = _verdict(_sum(value, 1), bound, "<=")
    if hypothesis == "holds":
        return claims()
    if hypothesis == "fails":
        return [_item(f"{tag} hypothesis fails", value, bound, "<=", "vacuous")]
    return [_item(tag, None, None, "<=")]


def _observed(label, lhs, rhs, relation) -> CheckItem:
    verdict = _verdict(lhs, rhs, relation)
    return _item(label, lhs, rhs, relation, verdict if verdict == "unknown" else f"observed-{verdict}")


def _require_blocks(ideal_a: MonomialIdeal, ideal_b: MonomialIdeal) -> None:
    if set(ideal_a.context.variables) & set(ideal_b.context.variables):
        raise HypothesisError("block ideals must live in disjoint variable sets")
    for ideal, name in ((ideal_a, "I"), (ideal_b, "J")):
        if ideal.is_zero or ideal.is_unit:
            raise HypothesisError(f"{name} must be nonzero and proper")


def _require_ci(ideal: MonomialIdeal, name: str = "J") -> None:
    if ideal.is_zero or ideal.is_unit:
        raise HypothesisError(f"{name} must be nonzero and proper")
    if not is_complete_intersection(ideal):
        raise HypothesisError(f"{name} must be a monomial complete intersection")


def _require_power(n: int, name: str = "n", least: int = 1) -> None:
    """A power bound below ``least`` leaves nothing to check (an empty
    report would read as ``holds``) or a zero module to check it on."""
    if n < least:
        raise HypothesisError(f"needs {name} >= {least}")


def _pair_report(
    statement: str, ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, **extra
) -> tuple[TheoremReport, MonomialIdeal, MonomialIdeal]:
    """The standing setup of a two-block statement: checks the blocks, joins
    them in A (x) B and opens the report with the instance dump; returns the
    report and the two joined ideals."""
    _require_blocks(ideal_a, ideal_b)
    _, ia, ib = tensor_join(ideal_a, ideal_b)
    instance = {"I": format_ideal(ideal_a), "J": format_ideal(ideal_b)}
    instance.update({k: str(v) for k, v in extra.items()})
    return TheoremReport(statement, instance), ia, ib


def _ci_report(statement: str, ideal_b: MonomialIdeal, power: str, n: int, least: int) -> TheoremReport:
    """The setup of a complete-intersection statement: checks J and its
    power bound ``power`` = n, and opens the report."""
    _require_ci(ideal_b)
    _require_power(n, power, least)
    return TheoremReport(statement, {"J": format_ideal(ideal_b), power: str(n)})


def _powers(ideal: MonomialIdeal) -> Iterator[MonomialIdeal]:
    """I^0, I^1, I^2, ...: each by one multiply from the one before, so the
    powers up to I^m cost m products; a power over the generator cap raises
    GeneratorCapError, as :meth:`MonomialIdeal.power` does."""
    power = MonomialIdeal.unit(ideal.context)
    while True:
        yield power
        power = power.multiply(ideal)


def _powers_below_cap(ideal: MonomialIdeal, top: int) -> list[MonomialIdeal]:
    """I^0, ..., I^top from :func:`_powers`, cut before the first power over
    the generator cap."""
    chain = _powers(ideal)
    powers = []
    while len(powers) <= top and (power := _known(next, chain)) is not None:
        powers.append(power)
    return powers


def q_chain(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n: int
) -> list[MonomialIdeal]:
    """The ascending chain Q_i = sum_{j<=i} I^(n-j) J^j from I^n to (I+J)^n,
    for I and J in one ring, such as the joint ring of :func:`tensor_join`."""
    if n < 1:
        raise ValueError("q_chain needs n >= 1")
    powers_a = list(itertools.islice(_powers(ideal_a), n + 1))
    chain = []
    current = MonomialIdeal.zero(ideal_a.context)
    for i, power_b in zip(range(n + 1), _powers(ideal_b)):
        current = current.add(powers_a[n - i].multiply(power_b))
        chain.append(current)
    return chain


def _shell_masks(ideal: MonomialIdeal, n: int, dims: tuple[int, ...]) -> list[int]:
    """Masks of the shells I^i/I^(i+1), i = 0..n, on a box."""
    powers = [ideal_mask(p, dims) for p in itertools.islice(_powers(ideal), n + 2)]
    return [powers[i] & ~powers[i + 1] for i in range(n + 1)]


def _stratum_item(module: QuotientModule, r: int, strata: Callable, budget: Budget) -> CheckItem:
    """The box check that the strata cover ``module`` exactly once, on its
    box [0, g] cut after the first r axes: ``strata(dims_a, dims_b)`` lists
    each stratum as a pair of block masks."""
    dims = _known(poset_box, module, budget)
    if dims is None:
        return _item("stratum cover on box", None, None, "==")
    dims_a, dims_b = dims[:r], dims[r:]
    size_b = math.prod(dims_b)
    masks = [kron_mask(mask_a, mask_b, size_b) for mask_a, mask_b in strata(dims_a, dims_b)]
    return _item("stratum cover mismatches", cover_mismatches(masks, module_mask(module, dims)), 0, "==")


# --- statement checks --------------------------------------------------------


def check_lemma_2_1(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Product equals intersection across blocks, and the joint depth formula
    depth(R/IJ) = depth_A(A/I) + depth_B(B/J) + 1."""
    report, ia, ib = _pair_report("lemma_2_1", ideal_a, ideal_b)
    product = ia.multiply(ib)
    report.items.append(_item("IJ == I∩J", int(product == ia.intersect(ib)), 1, "=="))
    lhs = _depth_q(product)
    rhs = _sum(_depth_q(ideal_a), _depth_q(ideal_b), 1)
    report.items.append(_item("depth(R/IJ) == depth(A/I)+depth(B/J)+1", lhs, rhs, "=="))
    return report


def check_prop_2_2(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Stanley depth of a cross-block product against block values, plus the
    recorded Stanley-inequality implications."""
    report, ia, ib = _pair_report("prop_2_2", ideal_a, ideal_b)
    report.notes.append(
        "item (3) follows the block-symmetric reading of the printed statement;"
        " see docs/statement-catalog.md"
    )
    product = ia.multiply(ib)
    sd_i = _sd(QuotientModule.of_ideal(ideal_a), budget)
    sd_j = _sd(QuotientModule.of_ideal(ideal_b), budget)
    sd_ai = _sd(QuotientModule.of_quotient_ring(ideal_a), budget)
    sd_bj = _sd(QuotientModule.of_quotient_ring(ideal_b), budget)
    sd_prod = _sd(QuotientModule.of_ideal(product), budget)
    sd_r_prod = _sd(QuotientModule.of_quotient_ring(product), budget)
    sd_ri = _sd(QuotientModule.of_quotient_ring(ia), budget)
    sd_rj = _sd(QuotientModule.of_quotient_ring(ib), budget)
    report.items.append(_item("(1) sdepth(IJ) >= sdepth_A(I)+sdepth_B(J)", sd_prod, _sum(sd_i, sd_j), ">="))
    report.items.append(_item("(2a) sdepth(R/I) >= sdepth(R/IJ)", sd_ri, sd_r_prod, ">="))
    report.items.append(
        _item("(2b) sdepth(R/IJ) >= min{sdepth(R/I), sdepth_B(B/J)+sdepth_A(I)}",
              sd_r_prod, _min([sd_ri, _sum(sd_bj, sd_i)]), ">=")
    )
    report.items.append(_item("(3a) sdepth(R/J) >= sdepth(R/IJ)", sd_rj, sd_r_prod, ">="))
    report.items.append(
        _item("(3b) sdepth(R/IJ) >= min{sdepth(R/J), sdepth_A(A/I)+sdepth_B(J)}",
              sd_r_prod, _min([sd_rj, _sum(sd_ai, sd_j)]), ">=")
    )
    # (4)-(6): implications recorded as observations, once both the
    # hypothesis and the observed inequality are decided
    d_ai, d_i = _depths(ideal_a)
    d_bj, d_j = _depths(ideal_b)
    d_r_prod, d_prod = _depths(product)
    at_least = lambda lhs, rhs: _verdict(lhs, rhs, ">=")
    blocks = _and(at_least(sd_i, d_i), at_least(sd_j, d_j))
    observations = [
        ("(4)", blocks, "sdepth(IJ) >= depth(IJ)", sd_prod, d_prod),
        ("(5)",
         _and(_or(at_least(sd_i, _sum(sd_ai, 1)), at_least(sd_j, _sum(sd_bj, 1))),
              at_least(sd_ai, d_ai), at_least(sd_bj, d_bj)),
         "sdepth(R/IJ) >= depth(R/IJ)", sd_r_prod, d_r_prod),
        ("(6)",
         _and(blocks, at_least(sd_ai, _sum(d_ai, -1)), at_least(sd_bj, _sum(d_bj, -1))),
         "sdepth(R/IJ) >= depth(R/IJ)-1", sd_r_prod, _sum(d_r_prod, -1)),
    ]
    for tag, hypothesis, claim, lhs, rhs in observations:
        item = _observed(f"{tag} {claim}", lhs, rhs, ">=")
        if "unknown" in (hypothesis, item.verdict):
            continue
        vacuous = CheckItem(f"{tag} hypothesis fails", None, None, ">=", "vacuous")
        report.items.append(item if hypothesis == "holds" else vacuous)
    return report


def check_prop_2_3(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Multidegree direct-sum decomposition of (I+J)^n/(I+J)^(n+1) into the
    tensor strata (I^i/I^(i+1)) (x) (J^j/J^(j+1)), checked on a finite box."""
    report, ia, ib = _pair_report("prop_2_3", ideal_a, ideal_b, n=n)
    _require_power(n, least=0)
    total = ia.add(ib)
    shell = QuotientModule(total.power(n), total.power(n + 1))

    def strata(dims_a, dims_b):
        shells_a = _shell_masks(ideal_a, n, dims_a)
        shells_b = _shell_masks(ideal_b, n, dims_b)
        return [(shells_a[i], shells_b[n - i]) for i in range(n + 1)]

    report.items.append(_stratum_item(shell, ideal_a.context.arity, strata, budget))
    return report


def check_prop_2_4(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """sdepth of the n-th shell of I+J against the best split of n across
    the block shells."""
    report, ia, ib = _pair_report("prop_2_4", ideal_a, ideal_b, n=n)
    _require_power(n, least=0)
    total = ia.add(ib)
    lhs = _sd(QuotientModule(total.power(n), total.power(n + 1)), budget)
    parts = [
        _sum(_sd(QuotientModule(ideal_a.power(i), ideal_a.power(i + 1)), budget),
             _sd(QuotientModule(ideal_b.power(n - i), ideal_b.power(n - i + 1)), budget))
        for i in range(n + 1)
    ]
    report.items.append(
        _item("sdepth((I+J)^n/(I+J)^(n+1)) >= min_{i+j=n} sums", lhs, _min(parts), ">=")
    )
    return report


def check_prop_2_5(
    ideal_b: MonomialIdeal, n: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """All shells J^m/J^(m+1) of a complete intersection have sdepth equal to
    dim(B/J), for m = 0..n."""
    report = _ci_report("prop_2_5", ideal_b, "n", n, least=0)
    dim = krull_dim_quotient(ideal_b)
    for m in range(n + 1):
        shell = QuotientModule(ideal_b.power(m), ideal_b.power(m + 1))
        report.items.append(
            _item(f"sdepth(J^{m}/J^{m + 1}) == dim(B/J)", _sd(shell, budget), dim, "==")
        )
    return report


def check_prop_2_6(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """sdepth((I+J)^n) against the minimum over the filtration factors."""
    report, ia, ib = _pair_report("prop_2_6", ideal_a, ideal_b, n=n)
    _require_power(n)
    total = ia.add(ib)
    lhs = _sd(QuotientModule.of_ideal(total.power(n)), budget)
    factors = [_sd(QuotientModule.of_ideal(ia.power(n)), budget)]
    for i in range(1, n + 1):
        outer = ia.power(n - i).multiply(ib.power(i))
        factors.append(_sd(QuotientModule(outer, outer.multiply(ia)), budget))
    report.items.append(_item("sdepth((I+J)^n) >= min over factors", lhs, _min(factors), ">="))
    return report


def check_prop_2_7(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Short-exact-sequence bounds linking consecutive powers of I+J and
    their shell."""
    report, ia, ib = _pair_report("prop_2_7", ideal_a, ideal_b, n=n)
    _require_power(n)
    total = ia.add(ib)
    p_n, p_n1 = total.power(n), total.power(n + 1)
    sd_pn = _sd(QuotientModule.of_ideal(p_n), budget)
    sd_pn1 = _sd(QuotientModule.of_ideal(p_n1), budget)
    sd_shell = _sd(QuotientModule(p_n, p_n1), budget)
    sd_r_n = _sd(QuotientModule.of_quotient_ring(p_n), budget)
    sd_r_n1 = _sd(QuotientModule.of_quotient_ring(p_n1), budget)
    report.items.append(
        _item("sdepth((I+J)^n) >= min{sdepth((I+J)^(n+1)), sdepth(shell)}",
              sd_pn, _min([sd_pn1, sd_shell]), ">=")
    )
    report.items.append(
        _item("sdepth(R/(I+J)^(n+1)) >= min{sdepth(R/(I+J)^n), sdepth(shell)}",
              sd_r_n1, _min([sd_r_n, sd_shell]), ">=")
    )
    return report


def check_obs_2_8(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Filtration bounds along the chain Q_0 ⊂ ... ⊂ Q_n."""
    report, ia, ib = _pair_report("obs_2_8", ideal_a, ideal_b, n=n)
    _require_power(n)
    chain = q_chain(ia, ib, n)
    for i in range(1, n + 1):
        sd_factor = _sd(QuotientModule(chain[i], chain[i - 1]), budget)
        lhs = _sd(QuotientModule.of_quotient_ring(chain[i - 1]), budget)
        rhs = _min([_sd(QuotientModule.of_quotient_ring(chain[i]), budget), sd_factor])
        report.items.append(
            _item(f"sdepth(R/Q_{i - 1}) >= min{{sdepth(R/Q_{i}), sdepth(Q_{i}/Q_{i - 1})}}",
                  lhs, rhs, ">=")
        )
        big = ia.power(n - i + 1).multiply(ib.power(i))
        small = ia.power(n - i).multiply(ib.power(i))
        lhs2 = _sd(QuotientModule.of_quotient_ring(big), budget)
        rhs2 = _min([_sd(QuotientModule.of_quotient_ring(small), budget), sd_factor])
        report.items.append(
            _item(
                f"sdepth(R/I^{n - i + 1}J^{i}) >= min{{sdepth(R/I^{n - i}J^{i}), sdepth(Q_{i}/Q_{i - 1})}}",
                lhs2, rhs2, ">=")
        )
    return report


def check_prop_2_9(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Conditional upper bounds for sdepth(R/(I+J)^2); hypotheses are
    evaluated first and failures reported as vacuous."""
    report, ia, ib = _pair_report("prop_2_9", ideal_a, ideal_b)
    mixed = ia.power(2).add(ia.multiply(ib))
    sd_mixed = _sd(QuotientModule.of_quotient_ring(mixed), budget)
    sd_ai = _sd(QuotientModule.of_quotient_ring(ideal_a), budget)
    sd_bj2 = _sd(QuotientModule.of_ideal(ideal_b.power(2)), budget)
    report.items += _if_below("(1)", sd_mixed, _sum(sd_ai, sd_bj2), lambda: [
        _item("(1) sdepth(R/(I+J)^2) <= sdepth_A(A/I)+sdepth_B(J^2)",
              _sd(QuotientModule.of_quotient_ring(ia.add(ib).power(2)), budget), _sum(sd_ai, sd_bj2), "<=")
    ])
    sd_ri2 = _sd(QuotientModule.of_quotient_ring(ia.power(2)), budget)
    sd_shell_a = _sd(QuotientModule(ideal_a, ideal_a.power(2)), budget)
    sd_j = _sd(QuotientModule.of_ideal(ideal_b), budget)
    report.items += _if_below("(2)", sd_ri2, _sum(sd_shell_a, sd_j), lambda: [
        _item("(2a) sdepth(R/(I^2+IJ)) <= sdepth(R/I^2)", sd_mixed, sd_ri2, "<="),
        _item("(2b) sdepth_A(A/I) <= sdepth_A(A/I^2)",
              sd_ai, _sd(QuotientModule.of_quotient_ring(ideal_a.power(2)), budget), "<="),
    ])
    return report


def check_thm_2_11(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n_max: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Powers of I+J for a complete-intersection J: exact depth formula,
    sdepth bounds, and monotonicity of the three sdepth sequences."""
    report, ia, ib = _pair_report("thm_2_11", ideal_a, ideal_b, n_max=n_max)
    _require_ci(ideal_b)
    _require_power(n_max, "n_max")
    total = ia.add(ib)
    dim_bj = krull_dim_quotient(ideal_b)
    r = ideal_a.context.arity
    depth_ai = [_depth_q(ideal_a.power(i)) for i in range(1, n_max + 1)]
    sd_ai = [_sd(QuotientModule.of_quotient_ring(ideal_a.power(i)), budget) for i in range(1, n_max + 1)]
    sd_rq = {}
    sd_pow = {}
    # shell n is (I+J)^n/(I+J)^(n+1); only the items (4) read them
    shells = range(1, n_max + 1) if n_max >= 2 else ()
    sd_shell = {n: _sd(QuotientModule(total.power(n), total.power(n + 1)), budget) for n in shells}
    for n in range(1, n_max + 1):
        p_n = total.power(n)
        sd_rq[n] = _sd(QuotientModule.of_quotient_ring(p_n), budget)
        sd_pow[n] = _sd(QuotientModule.of_ideal(p_n), budget)
        rhs = _sum(_min(depth_ai[:n]), dim_bj)
        report.items.append(
            _item(f"(1) depth(R/(I+J)^{n}) == min_i depth(A/I^i)+dim(B/J)", _depth_q(p_n), rhs, "==")
        )
        report.items.append(
            _item(f"(2a) sdepth(R/(I+J)^{n}) <= r+dim(B/J)", sd_rq[n], r + dim_bj, "<=")
        )
        report.items.append(
            _item(f"(2b) sdepth(R/(I+J)^{n}) >= min_i sdepth(A/I^i)+dim(B/J)",
                  sd_rq[n], _sum(_min(sd_ai[:n]), dim_bj), ">=")
        )
    for n in range(1, n_max):
        report.items.append(
            _item(f"(4) sdepth(R/(I+J)^{n + 1}) <= sdepth(R/(I+J)^{n})", sd_rq[n + 1], sd_rq[n], "<=")
        )
        report.items.append(
            _item(f"(4) sdepth((I+J)^{n + 1}) <= sdepth((I+J)^{n})", sd_pow[n + 1], sd_pow[n], "<=")
        )
        report.items.append(
            _item(f"(4) shell sdepth non-increasing at n={n}", sd_shell[n + 1], sd_shell[n], "<=")
        )
    return report


def check_thm_2_11_decomposition(
    ideal_a: MonomialIdeal, v: Monomial, n: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Box check of the stratification of R/(I,v)^n by the v-adic valuation:
    strata alpha = 0..n-1 with v^alpha | w, v^(alpha+1) ∤ w, w/v^alpha not in
    I^(n-alpha) cover the complement exactly once."""
    principal = MonomialIdeal.from_gens(v.context, [v])
    report, ia, iv = _pair_report("thm_2_11_decomposition", ideal_a, principal, n=n)
    _require_power(n)
    quotient = QuotientModule.of_quotient_ring(ia.add(iv).power(n))

    def strata(dims_a, dims_b):
        # stratum alpha: v^alpha || w (block B) and w/v^alpha outside
        # I^(n-alpha), which only block A decides
        valuations = _shell_masks(principal, n - 1, dims_b)
        return [
            (module_mask(QuotientModule.of_quotient_ring(ideal_a.power(n - alpha)), dims_a),
             valuations[alpha])
            for alpha in range(n)
        ]

    report.items.append(_stratum_item(quotient, ideal_a.context.arity, strata, budget))
    return report


def check_cor_2_12(
    ideal_b: MonomialIdeal, n_max: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """sdepth(B/J^n) = depth(B/J^n) = s - t for a complete intersection."""
    report = _ci_report("cor_2_12", ideal_b, "n_max", n_max, least=1)
    s = ideal_b.context.arity
    t = len(ideal_b.exps)
    for n in range(1, n_max + 1):
        p = ideal_b.power(n)
        report.items.append(
            _item(f"sdepth(B/J^{n}) == s-t",
                  _sd(QuotientModule.of_quotient_ring(p), budget), s - t, "==")
        )
        report.items.append(_item(f"depth(B/J^{n}) == s-t", _depth_q(p), s - t, "=="))
    return report


def _require_colon_shift(ideal: MonomialIdeal, v: Monomial) -> None:
    """The hypothesis of cor_2_13 on (L, v); raises HypothesisError naming
    the first condition that fails."""
    ctx = ideal.context
    if ctx.split is None:
        raise HypothesisError("context must carry a block split")
    if v not in ideal.gens:
        raise HypothesisError("v must be a minimal generator of L")
    others = [u for u in ideal.gens if u != v]
    if not others:
        raise HypothesisError("L needs at least two generators")
    gcds = {v.gcd(u).exponents for u in others}
    if len(gcds) != 1:
        raise HypothesisError("gcd(v, v_i) must be the same monomial w for all i")
    w = Monomial(ctx, next(iter(gcds)))
    r = ctx.split
    if any(j >= r for j in w.support()):
        raise HypothesisError("w must lie in block A")
    if any(j < r for j in (v / w).support()):
        raise HypothesisError("v/w must lie in block B")


def check_cor_2_13(
    ideal: MonomialIdeal, v: Monomial, n_max: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Monotone growth of depth(R/L^n) when G(L) = {v_1..v_m, v} with
    gcd(v, v_i) = w constant in block A and v/w in block B."""
    _require_colon_shift(ideal, v)
    _require_power(n_max, "n_max")
    report = TheoremReport(
        "cor_2_13", {"L": format_ideal(ideal), "v": str(v), "n_max": str(n_max)}
    )
    depths = [_depth_q(ideal.power(n)) for n in range(1, n_max + 2)]
    for n in range(1, n_max + 1):
        report.items.append(
            _item(f"depth(R/L^{n}) <= depth(R/L^{n + 1})", depths[n - 1], depths[n], "<=")
        )
    return report


def sdepth_ci_power_via_transfer(
    ideal_b: MonomialIdeal, k: int, budget: Budget = DEFAULT_BUDGET
) -> Bracket:
    """The bracket of sdepth(J^k) for a complete intersection: that of m^k in
    t variables, moved along the verified lattice isomorphism, whose atom map
    is on exponent tuples; [0, s] when the lcm-lattice cap of either lattice
    runs out.  Both lattices are built before the search, so a capped lattice
    costs no search."""
    _require_ci(ideal_b)
    t = len(ideal_b.exps)
    small = RingContext(tuple(f"_t{i + 1}" for i in range(t)))
    maximal = MonomialIdeal.from_gens(small, [small.variable(j) for j in range(t)])
    m_k = maximal.power(k)
    j_k = ideal_b.power(k)
    lattices = _known(lambda: (build_lcm_lattice(m_k), build_lcm_lattice(j_k)))
    if lattices is None:
        return 0, ideal_b.context.arity
    lo, hi = _sd(QuotientModule.of_ideal(m_k), budget)
    # the transfer adds the difference of the arities, to either end alike
    shift = sdepth_transfer(0, *lattices, ci_power_atom_map(m_k, ideal_b.exps))
    return lo + shift, hi + shift


def check_prop_2_14(
    ideal_b: MonomialIdeal, k_max: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Bounds s-t+1 <= sdepth(J^k) <= s-t+ceil(t/(k+1)) for a complete
    intersection, with equality from k = t-1 on; the direct value must agree
    with the lcm-lattice transfer from the maximal-ideal case."""
    report = _ci_report("prop_2_14", ideal_b, "k_max", k_max, least=1)
    s = ideal_b.context.arity
    t = len(ideal_b.exps)
    for k in range(1, k_max + 1):
        direct = _sd(QuotientModule.of_ideal(ideal_b.power(k)), budget)
        report.items.append(_item(f"sdepth(J^{k}) >= s-t+1", direct, s - t + 1, ">="))
        report.items.append(
            _item(f"sdepth(J^{k}) <= s-t+ceil(t/(k+1))", direct, s - t + math.ceil(t / (k + 1)), "<=")
        )
        if k >= t - 1:
            report.items.append(_item(f"sdepth(J^{k}) == s-t+1 (k >= t-1)", direct, s - t + 1, "=="))
        transferred = sdepth_ci_power_via_transfer(ideal_b, k, budget)
        report.items.append(_item(f"transfer agreement at k={k}", direct, transferred, "=="))
    return report


def check_thm_2_15(
    ideal_b: MonomialIdeal, n_max: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Asymptotics for a complete intersection: quotient and shell sdepth
    equal dim(B/J) at every power; sdepth(J^n) stabilizes at dim(B/J)+1 from
    n = t-1 on."""
    report = _ci_report("thm_2_15", ideal_b, "n_max", n_max, least=0)
    dim = krull_dim_quotient(ideal_b)
    t = len(ideal_b.exps)
    for n in range(n_max + 1):
        shell = QuotientModule(ideal_b.power(n), ideal_b.power(n + 1))
        report.items.append(
            _item(f"(1) sdepth(J^{n}/J^{n + 1}) == dim(B/J)", _sd(shell, budget), dim, "==")
        )
        if n >= 1:
            quotient = QuotientModule.of_quotient_ring(ideal_b.power(n))
            report.items.append(
                _item(f"(1) sdepth(B/J^{n}) == dim(B/J)", _sd(quotient, budget), dim, "==")
            )
        if n >= max(1, t - 1):
            power = QuotientModule.of_ideal(ideal_b.power(n))
            report.items.append(
                _item(f"(2) sdepth(J^{n}) == dim(B/J)+1", _sd(power, budget), dim + 1, "==")
            )
    return report


# --- sequences and conjecture reports ---------------------------------------


@dataclass(frozen=True)
class SequenceRow:
    """The values at power n; None where a budget or a cap left one
    undecided, and always in the shell column of a depth table."""

    n: int
    ring_quotient: int | None
    ideal_power: int | None
    shell: int | None


def sdepth_sequence(
    ideal: MonomialIdeal, n_max: int, budget: Budget = DEFAULT_BUDGET
) -> list[SequenceRow]:
    """Rows (n, sdepth(R/L^n), sdepth(L^n), sdepth(L^n/L^(n+1)))."""
    _require_power(n_max, "n_max")
    powers = _powers_below_cap(ideal, n_max + 1)
    rows = []
    for n in range(1, n_max + 1):
        if n + 1 >= len(powers):
            rows.append(SequenceRow(n, None, None, None))
            continue
        p, p1 = powers[n], powers[n + 1]
        rows.append(
            SequenceRow(
                n,
                _value(_sd(QuotientModule.of_quotient_ring(p), budget)),
                _value(_sd(QuotientModule.of_ideal(p), budget)),
                _value(_sd(QuotientModule(p, p1), budget)),
            )
        )
    return rows


def depth_sequence(ideal: MonomialIdeal, n_max: int) -> list[SequenceRow]:
    """Rows (n, depth(R/L^n), depth(L^n), None).

    The depth engine resolves cyclic quotients only, so the shell column is
    left empty rather than approximated.  No budget: it makes no
    Stanley-depth decision, and the generator and lcm-lattice caps bound it.
    """
    _require_power(n_max, "n_max")
    powers = _powers_below_cap(ideal, n_max)
    rows = []
    for n in range(1, n_max + 1):
        dq, di = map(_value, _depths(powers[n])) if n < len(powers) else (None, None)
        rows.append(SequenceRow(n, dq, di, None))
    return rows


# --- random instances --------------------------------------------------------


def random_monomial(rng: random.Random, ctx: RingContext, max_exp: int) -> Monomial:
    while True:
        exps = tuple(rng.randint(0, max_exp) for _ in range(ctx.arity))
        if any(exps):
            return Monomial(ctx, exps)


def random_ideal(
    rng: random.Random,
    ctx: RingContext,
    max_gens: int = 3,
    max_exp: int = 2,
) -> MonomialIdeal:
    k = rng.randint(1, max_gens)
    return MonomialIdeal.from_gens(ctx, [random_monomial(rng, ctx, max_exp) for _ in range(k)])


def random_ci(
    rng: random.Random, ctx: RingContext, max_t: int = 3, max_exp: int = 2
) -> MonomialIdeal:
    """Random complete intersection: generators with disjoint supports."""
    s = ctx.arity
    t = rng.randint(1, min(max_t, s))
    vars_perm = list(range(s))
    rng.shuffle(vars_perm)
    gens = []
    pos = 0
    for i in range(t):
        remaining = s - pos - (t - i - 1)
        size = rng.randint(1, max(1, min(2, remaining)))
        exps = [0] * s
        for j in vars_perm[pos : pos + size]:
            exps[j] = rng.randint(1, max_exp)
        pos += size
        gens.append(Monomial(ctx, tuple(exps)))
    return MonomialIdeal.from_gens(ctx, gens)


def _block_contexts(rng: random.Random, max_vars: int = 3) -> tuple[RingContext, RingContext]:
    r = rng.randint(1, max_vars)
    s = rng.randint(1, max_vars)
    return (
        RingContext(tuple(f"x{i + 1}" for i in range(r))),
        RingContext(tuple(f"y{i + 1}" for i in range(s))),
    )


def random_pair(
    rng: random.Random, max_vars: int = 3, max_gens: int = 3, max_exp: int = 2
) -> tuple[MonomialIdeal, MonomialIdeal]:
    ctx_a, ctx_b = _block_contexts(rng, max_vars)
    return (
        random_ideal(rng, ctx_a, max_gens, max_exp),
        random_ideal(rng, ctx_b, max_gens, max_exp),
    )


def random_colon_shift_instance(
    rng: random.Random, max_vars: int = 2, max_exp: int = 2
) -> tuple[MonomialIdeal, Monomial]:
    """Instance for cor_2_13: L = (w*u_1, ..., w*u_m, w*vb) with u_i in block
    A and vb in block B."""
    while True:
        r = rng.randint(1, max_vars)
        s = rng.randint(1, max_vars)
        ctx = RingContext(
            tuple(f"x{i + 1}" for i in range(r)) + tuple(f"y{i + 1}" for i in range(s)),
            split=r,
        )
        w_exps = tuple(rng.randint(0, 1) for _ in range(r)) + (0,) * s
        w = Monomial(ctx, w_exps)
        m = rng.randint(1, 2)
        others = []
        for _ in range(m):
            exps = tuple(rng.randint(0, max_exp) for _ in range(r)) + (0,) * s
            if any(exps):
                others.append(w * Monomial(ctx, exps))
        vb_exps = (0,) * r + tuple(rng.randint(0, max_exp) for _ in range(s))
        if not any(vb_exps) or not others:
            continue
        v = w * Monomial(ctx, vb_exps)
        ideal = MonomialIdeal.from_gens(ctx, others + [v])
        # gcd(v, w*u_i) = w*gcd(vb, u_i) = w, so the hypothesis holds by
        # construction; a draw it rejects is a bug here, not a retry
        _require_colon_shift(ideal, v)
        return ideal, v


# --- statement table: random and file instances -----------------------------


def block_ideals(ideal: MonomialIdeal) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The inverse of :func:`tensor_join`: the generators of a split-context
    ideal in each block, as ideals of that block's own ring."""
    ctx = ideal.context
    if ctx.split is None:
        raise HypothesisError("this statement needs a split ideal file (vars: ... | ...)")
    r = ctx.split
    part_a, part_b = split_blocks(ideal)
    ctx_a, ctx_b = RingContext(ctx.block_a), RingContext(ctx.block_b)
    # each part is zero outside its block, so cutting keeps it canonical
    return (
        MonomialIdeal(ctx_a, tuple(e[:r] for e in part_a.exps)),
        MonomialIdeal(ctx_b, tuple(e[r:] for e in part_b.exps)),
    )


def _random_ci(rng: random.Random) -> tuple:
    ctx = RingContext(tuple(f"y{i + 1}" for i in range(rng.randint(1, 4))))
    return (random_ci(rng, ctx),)


def _random_pair_ci(rng: random.Random) -> tuple:
    ctx_a, ctx_b = _block_contexts(rng, 2)
    return random_ideal(rng, ctx_a, max_gens=2, max_exp=2), random_ci(rng, ctx_b, max_t=2)


def _random_decomp(rng: random.Random) -> tuple:
    ctx_a, ctx_b = _block_contexts(rng, 2)
    return random_ideal(rng, ctx_a, max_gens=2, max_exp=2), random_monomial(rng, ctx_b, 2)


def _file_decomp(ideal: MonomialIdeal) -> tuple:
    ideal_a, ideal_b = block_ideals(ideal)
    if len(ideal_b.exps) != 1:
        raise HypothesisError("needs exactly one block-B generator v")
    return ideal_a, ideal_b.gens[0]


def _file_colon_shift(ideal: MonomialIdeal) -> tuple:
    """(L, v) for the first generator v of L that meets the hypothesis."""
    last_error = None
    for v in ideal.gens:
        try:
            _require_colon_shift(ideal, v)
            return ideal, v
        except HypothesisError as exc:
            last_error = exc
    raise last_error or HypothesisError("no generator satisfies the hypothesis")


@dataclass(frozen=True)
class Statement:
    """How to check one catalogued statement.

    ``random_instance(rng)`` and ``file_instance(ideal)`` build the leading
    arguments of ``check``.  ``power`` says how its power argument (n, n_max
    or k_max) is chosen when the caller gives none: ``"none"`` (``check``
    takes no power), ``"fixed"`` (2) or ``"drawn"`` (from the instance's rng
    after the instance, 2 for a file).
    """

    check: Callable[..., TheoremReport]
    random_instance: Callable[[random.Random], tuple]
    file_instance: Callable[[MonomialIdeal], tuple]
    power: str


_PAIR = dict(random_instance=random_pair, file_instance=block_ideals)
_SMALL_PAIR = dict(random_instance=lambda rng: random_pair(rng, max_vars=2), file_instance=block_ideals)
_CI = dict(random_instance=_random_ci, file_instance=lambda ideal: (ideal,), power="fixed")

STATEMENTS: dict[str, Statement] = {
    "lemma_2_1": Statement(check_lemma_2_1, **_PAIR, power="none"),
    "prop_2_2": Statement(check_prop_2_2, **_PAIR, power="none"),
    "prop_2_3": Statement(check_prop_2_3, **_PAIR, power="drawn"),
    "prop_2_4": Statement(check_prop_2_4, **_PAIR, power="drawn"),
    "prop_2_5": Statement(check_prop_2_5, **_CI),
    "prop_2_6": Statement(check_prop_2_6, **_SMALL_PAIR, power="drawn"),
    "prop_2_7": Statement(check_prop_2_7, **_PAIR, power="drawn"),
    "obs_2_8": Statement(check_obs_2_8, **_SMALL_PAIR, power="drawn"),
    "prop_2_9": Statement(check_prop_2_9, **_PAIR, power="none"),
    "thm_2_11": Statement(check_thm_2_11, _random_pair_ci, block_ideals, "fixed"),
    "thm_2_11_decomposition": Statement(
        check_thm_2_11_decomposition, _random_decomp, _file_decomp, "fixed"
    ),
    "cor_2_12": Statement(check_cor_2_12, **_CI),
    "cor_2_13": Statement(check_cor_2_13, random_colon_shift_instance, _file_colon_shift, "fixed"),
    "prop_2_14": Statement(check_prop_2_14, **_CI),
    "thm_2_15": Statement(check_thm_2_15, **_CI),
}


def _statement(name: str) -> Statement:
    if name not in STATEMENTS:
        raise ValueError(f"unknown statement {name!r}")
    return STATEMENTS[name]


def _run(
    entry: Statement, args: tuple, n: int | None, budget: Budget, rng: random.Random | None = None
) -> TheoremReport:
    if entry.power == "none":
        return entry.check(*args, budget=budget)
    if n is None:
        n = rng.choice([1, 1, 2]) if entry.power == "drawn" and rng is not None else 2
    return entry.check(*args, n, budget=budget)


def run_random(
    statement: str, seed: int, n: int | None = None, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Check one statement on a reproducible random instance."""
    entry = _statement(statement)
    rng = random.Random(f"{statement}:{seed}")
    return _run(entry, entry.random_instance(rng), n, budget, rng)


def run_on_ideal(
    statement: str, ideal: MonomialIdeal, n: int | None = None, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Check one statement on the instance an ideal file describes: a split
    file for the two-block statements, a single ideal for the others."""
    entry = _statement(statement)
    return _run(entry, entry.file_instance(ideal), n, budget)
