"""Executable checks for the catalogued statements about sdepth/depth of
powers of sums of monomial ideals in disjoint variable blocks.

Each ``check_*`` evaluates both sides of its (in)equalities on a concrete
instance and returns a :class:`TheoremReport` with verdict ``holds``,
``fails``, ``unknown`` (budget) or ``vacuous``.  Conjecture-style items are
recorded as observations, never asserted.  A ``fails`` verdict on an
instance satisfying the hypotheses is a bug, and reports carry a full
reproducible instance dump for that reason.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

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
    certifying_box,
    cover_mismatches,
    ideal_mask,
    kron_mask,
    module_mask,
    sdepth_exact,
)
from .taylor import depth_ideal, depth_quotient


@dataclass(frozen=True)
class CheckItem:
    label: str
    lhs: int | None
    rhs: int | None
    relation: str  # "<=", ">=", "==" (lhs REL rhs)
    verdict: str  # holds | fails | unknown | vacuous | observed-holds | observed-fails

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "verdict": self.verdict,
        }


@dataclass
class TheoremReport:
    statement: str
    instance: dict[str, str]
    items: list[CheckItem] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        decisive = [i for i in self.items if not i.verdict.startswith("observed")]
        if any(i.verdict == "fails" for i in decisive):
            return "fails"
        if any(i.verdict == "unknown" for i in decisive):
            return "unknown"
        if decisive and all(i.verdict == "vacuous" for i in decisive):
            return "vacuous"
        return "holds"

    def to_json_dict(self) -> dict:
        return {
            "statement": self.statement,
            "verdict": self.verdict,
            "instance": self.instance,
            "items": [i.to_json_dict() for i in self.items],
            "notes": self.notes,
        }


class HypothesisError(ValueError):
    """The instance violates a statement's stated hypotheses."""


# --- evaluation helpers ------------------------------------------------------


def _sd(module: QuotientModule, budget: Budget) -> int | None:
    """Stanley depth as a plain value; None when the budget ran out."""
    try:
        res = sdepth_exact(module, budget=budget)
    except CapError:
        return None
    return res.value if res.status == "exact" else None


def _depth_q(ideal: MonomialIdeal) -> int | None:
    try:
        return depth_quotient(ideal).depth_quotient
    except CapError:
        return None


def _depth_i(ideal: MonomialIdeal) -> int | None:
    try:
        return depth_ideal(ideal)
    except CapError:
        return None


def _min(values) -> int | None:
    values = list(values)
    if any(v is None for v in values):
        return None
    return min(values)


def _verdict(lhs, rhs, relation) -> str:
    if lhs is None or rhs is None:
        return "unknown"
    ok = {"<=": lhs <= rhs, ">=": lhs >= rhs, "==": lhs == rhs}[relation]
    return "holds" if ok else "fails"


def _item(label, lhs, rhs, relation) -> CheckItem:
    return CheckItem(label, lhs, rhs, relation, _verdict(lhs, rhs, relation))


def _observed(label, lhs, rhs, relation) -> CheckItem:
    base = _verdict(lhs, rhs, relation)
    verdict = {"holds": "observed-holds", "fails": "observed-fails"}.get(base, base)
    return CheckItem(label, lhs, rhs, relation, verdict)


def _dump_pair(ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, **extra) -> dict[str, str]:
    out = {"I": format_ideal(ideal_a), "J": format_ideal(ideal_b)}
    out.update({k: str(v) for k, v in extra.items()})
    return out


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
    """A power bound below ``least`` leaves nothing to check, and an empty
    report would read as ``holds``."""
    if n < least:
        raise HypothesisError(f"needs {name} >= {least}")


def q_chain(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n: int
) -> list[MonomialIdeal]:
    """The ascending chain Q_i = sum_{j<=i} I^(n-j) J^j from I^n to (I+J)^n."""
    if n < 1:
        raise ValueError("q_chain needs n >= 1")
    if ideal_a.context == ideal_b.context:
        ia, ib = ideal_a, ideal_b
    else:
        _, ia, ib = tensor_join(ideal_a, ideal_b)
    chain = []
    current = MonomialIdeal.zero(ia.context)
    for i in range(n + 1):
        current = current.add(ia.power(n - i).multiply(ib.power(i)))
        chain.append(current)
    return chain


def _shell_masks(ideal: MonomialIdeal, n: int, dims: tuple[int, ...]) -> list[int]:
    """Masks of the shells I^i/I^(i+1), i = 0..n, on a box."""
    powers = [ideal_mask(ideal.power(i), dims) for i in range(n + 2)]
    return [powers[i] & ~powers[i + 1] for i in range(n + 1)]


# --- statement checks --------------------------------------------------------


def check_lemma_2_1(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Product equals intersection across blocks, and the joint depth formula
    depth(R/IJ) = depth_A(A/I) + depth_B(B/J) + 1."""
    _require_blocks(ideal_a, ideal_b)
    _, ia, ib = tensor_join(ideal_a, ideal_b)
    report = TheoremReport("lemma_2_1", _dump_pair(ideal_a, ideal_b))
    product = ia.multiply(ib)
    same = product == ia.intersect(ib)
    report.items.append(CheckItem("IJ == I∩J", int(same), 1, "==", "holds" if same else "fails"))
    lhs = _depth_q(product)
    da, db = _depth_q(ideal_a), _depth_q(ideal_b)
    rhs = None if da is None or db is None else da + db + 1
    report.items.append(_item("depth(R/IJ) == depth(A/I)+depth(B/J)+1", lhs, rhs, "=="))
    return report


def check_prop_2_2(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Stanley depth of a cross-block product against block values, plus the
    recorded Stanley-inequality implications."""
    _require_blocks(ideal_a, ideal_b)
    _, ia, ib = tensor_join(ideal_a, ideal_b)
    report = TheoremReport("prop_2_2", _dump_pair(ideal_a, ideal_b))
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
    add = lambda a, b: None if a is None or b is None else a + b
    report.items.append(_item("(1) sdepth(IJ) >= sdepth_A(I)+sdepth_B(J)", sd_prod, add(sd_i, sd_j), ">="))
    report.items.append(_item("(2a) sdepth(R/I) >= sdepth(R/IJ)", sd_ri, sd_r_prod, ">="))
    report.items.append(
        _item("(2b) sdepth(R/IJ) >= min{sdepth(R/I), sdepth_B(B/J)+sdepth_A(I)}",
              sd_r_prod, _min([sd_ri, add(sd_bj, sd_i)]), ">=")
    )
    report.items.append(_item("(3a) sdepth(R/J) >= sdepth(R/IJ)", sd_rj, sd_r_prod, ">="))
    report.items.append(
        _item("(3b) sdepth(R/IJ) >= min{sdepth(R/J), sdepth_A(A/I)+sdepth_B(J)}",
              sd_r_prod, _min([sd_rj, add(sd_ai, sd_j)]), ">=")
    )
    # (4)-(6): implications recorded as observations
    d_i, d_j = _depth_i(ideal_a), _depth_i(ideal_b)
    d_ai, d_bj = _depth_q(ideal_a), _depth_q(ideal_b)
    d_prod = _depth_i(product)
    d_r_prod = _depth_q(product)
    known = lambda *vs: all(v is not None for v in vs)
    if known(sd_i, d_i, sd_j, d_j, sd_prod, d_prod):
        if sd_i >= d_i and sd_j >= d_j:
            report.items.append(_observed("(4) sdepth(IJ) >= depth(IJ)", sd_prod, d_prod, ">="))
        else:
            report.items.append(CheckItem("(4) hypothesis fails", None, None, ">=", "vacuous"))
    if known(sd_i, sd_ai, sd_j, sd_bj, d_ai, d_bj, sd_r_prod, d_r_prod):
        conj2 = sd_i >= sd_ai + 1 or sd_j >= sd_bj + 1
        if conj2 and sd_ai >= d_ai and sd_bj >= d_bj:
            report.items.append(
                _observed("(5) sdepth(R/IJ) >= depth(R/IJ)", sd_r_prod, d_r_prod, ">=")
            )
        else:
            report.items.append(CheckItem("(5) hypothesis fails", None, None, ">=", "vacuous"))
    if known(sd_i, d_i, sd_j, d_j, sd_ai, d_ai, sd_bj, d_bj, sd_r_prod, d_r_prod):
        if sd_i >= d_i and sd_j >= d_j and sd_ai >= d_ai - 1 and sd_bj >= d_bj - 1:
            report.items.append(
                _observed("(6) sdepth(R/IJ) >= depth(R/IJ)-1", sd_r_prod, d_r_prod - 1, ">=")
            )
        else:
            report.items.append(CheckItem("(6) hypothesis fails", None, None, ">=", "vacuous"))
    return report


def check_prop_2_3(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Multidegree direct-sum decomposition of (I+J)^n/(I+J)^(n+1) into the
    tensor strata (I^i/I^(i+1)) (x) (J^j/J^(j+1)), checked on a finite box."""
    _require_blocks(ideal_a, ideal_b)
    _, ia, ib = tensor_join(ideal_a, ideal_b)
    report = TheoremReport("prop_2_3", _dump_pair(ideal_a, ideal_b, n=n))
    total = ia.add(ib)
    shell = QuotientModule(total.power(n), total.power(n + 1))
    try:
        dims = certifying_box(shell, budget)
    except CapError:
        report.items.append(CheckItem("stratum cover on box", None, None, "==", "unknown"))
        return report
    r = ideal_a.context.arity
    dims_a, dims_b = dims[:r], dims[r:]
    shells_a = _shell_masks(ideal_a, n, dims_a)
    shells_b = _shell_masks(ideal_b, n, dims_b)
    strata = [kron_mask(shells_a[i], shells_b[n - i], math.prod(dims_b)) for i in range(n + 1)]
    mismatches = cover_mismatches(strata, module_mask(shell, dims))
    report.items.append(_item("stratum cover mismatches", mismatches, 0, "=="))
    return report


def check_prop_2_4(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """sdepth of the n-th shell of I+J against the best split of n across
    the block shells."""
    _require_blocks(ideal_a, ideal_b)
    _, ia, ib = tensor_join(ideal_a, ideal_b)
    report = TheoremReport("prop_2_4", _dump_pair(ideal_a, ideal_b, n=n))
    total = ia.add(ib)
    lhs = _sd(QuotientModule(total.power(n), total.power(n + 1)), budget)
    parts = []
    for i in range(n + 1):
        j = n - i
        sa = _sd(QuotientModule(ideal_a.power(i), ideal_a.power(i + 1)), budget)
        sb = _sd(QuotientModule(ideal_b.power(j), ideal_b.power(j + 1)), budget)
        parts.append(None if sa is None or sb is None else sa + sb)
    report.items.append(
        _item("sdepth((I+J)^n/(I+J)^(n+1)) >= min_{i+j=n} sums", lhs, _min(parts), ">=")
    )
    return report


def check_prop_2_5(
    ideal_b: MonomialIdeal, n: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """All shells J^m/J^(m+1) of a complete intersection have sdepth equal to
    dim(B/J), for m = 0..n."""
    _require_ci(ideal_b)
    _require_power(n, least=0)
    report = TheoremReport("prop_2_5", {"J": format_ideal(ideal_b), "n": str(n)})
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
    _require_blocks(ideal_a, ideal_b)
    _require_power(n)
    _, ia, ib = tensor_join(ideal_a, ideal_b)
    report = TheoremReport("prop_2_6", _dump_pair(ideal_a, ideal_b, n=n))
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
    _require_blocks(ideal_a, ideal_b)
    _, ia, ib = tensor_join(ideal_a, ideal_b)
    report = TheoremReport("prop_2_7", _dump_pair(ideal_a, ideal_b, n=n))
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
    _require_blocks(ideal_a, ideal_b)
    _require_power(n)
    _, ia, ib = tensor_join(ideal_a, ideal_b)
    report = TheoremReport("obs_2_8", _dump_pair(ideal_a, ideal_b, n=n))
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
    _require_blocks(ideal_a, ideal_b)
    _, ia, ib = tensor_join(ideal_a, ideal_b)
    report = TheoremReport("prop_2_9", _dump_pair(ideal_a, ideal_b))
    mixed = ia.power(2).add(ia.multiply(ib))
    sd_mixed = _sd(QuotientModule.of_quotient_ring(mixed), budget)
    sd_ai = _sd(QuotientModule.of_quotient_ring(ideal_a), budget)
    sd_bj2 = _sd(QuotientModule.of_ideal(ideal_b.power(2)), budget)
    if None in (sd_mixed, sd_ai, sd_bj2):
        report.items.append(CheckItem("(1)", None, None, "<=", "unknown"))
    elif sd_mixed < sd_ai + sd_bj2:
        total2 = ia.add(ib).power(2)
        report.items.append(
            _item("(1) sdepth(R/(I+J)^2) <= sdepth_A(A/I)+sdepth_B(J^2)",
                  _sd(QuotientModule.of_quotient_ring(total2), budget), sd_ai + sd_bj2, "<=")
        )
    else:
        report.items.append(CheckItem("(1) hypothesis fails", sd_mixed, sd_ai + sd_bj2, "<=", "vacuous"))
    sd_ri2 = _sd(QuotientModule.of_quotient_ring(ia.power(2)), budget)
    sd_shell_a = _sd(QuotientModule(ideal_a, ideal_a.power(2)), budget)
    sd_j = _sd(QuotientModule.of_ideal(ideal_b), budget)
    if None in (sd_ri2, sd_shell_a, sd_j):
        report.items.append(CheckItem("(2)", None, None, "<=", "unknown"))
    elif sd_ri2 < sd_shell_a + sd_j:
        report.items.append(
            _item("(2a) sdepth(R/(I^2+IJ)) <= sdepth(R/I^2)", sd_mixed, sd_ri2, "<=")
        )
        sd_ai2 = _sd(QuotientModule.of_quotient_ring(ideal_a.power(2)), budget)
        report.items.append(
            _item("(2b) sdepth_A(A/I) <= sdepth_A(A/I^2)", sd_ai, sd_ai2, "<=")
        )
    else:
        report.items.append(CheckItem("(2) hypothesis fails", sd_ri2, sd_shell_a + sd_j, "<=", "vacuous"))
    return report


def check_thm_2_11(
    ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n_max: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Powers of I+J for a complete-intersection J: exact depth formula,
    sdepth bounds, and monotonicity of the three sdepth sequences."""
    _require_blocks(ideal_a, ideal_b)
    _require_ci(ideal_b)
    _require_power(n_max, "n_max")
    _, ia, ib = tensor_join(ideal_a, ideal_b)
    report = TheoremReport("thm_2_11", _dump_pair(ideal_a, ideal_b, n_max=n_max))
    total = ia.add(ib)
    dim_bj = krull_dim_quotient(ideal_b)
    r = ideal_a.context.arity
    depth_ai = [None] + [_depth_q(ideal_a.power(i)) for i in range(1, n_max + 1)]
    sd_ai = [None] + [
        _sd(QuotientModule.of_quotient_ring(ideal_a.power(i)), budget)
        for i in range(1, n_max + 1)
    ]
    sd_rq = {}
    sd_pow = {}
    # shell n is (I+J)^n/(I+J)^(n+1); only the items (4) read them
    shells = range(1, n_max + 1) if n_max >= 2 else ()
    sd_shell = {n: _sd(QuotientModule(total.power(n), total.power(n + 1)), budget) for n in shells}
    for n in range(1, n_max + 1):
        p_n = total.power(n)
        sd_rq[n] = _sd(QuotientModule.of_quotient_ring(p_n), budget)
        sd_pow[n] = _sd(QuotientModule.of_ideal(p_n), budget)
        lhs = _depth_q(p_n)
        rhs_min = _min(depth_ai[1 : n + 1])
        rhs = None if rhs_min is None else rhs_min + dim_bj
        report.items.append(
            _item(f"(1) depth(R/(I+J)^{n}) == min_i depth(A/I^i)+dim(B/J)", lhs, rhs, "==")
        )
        sd_min = _min(sd_ai[1 : n + 1])
        report.items.append(
            _item(f"(2a) sdepth(R/(I+J)^{n}) <= r+dim(B/J)", sd_rq[n], r + dim_bj, "<=")
        )
        report.items.append(
            _item(f"(2b) sdepth(R/(I+J)^{n}) >= min_i sdepth(A/I^i)+dim(B/J)",
                  sd_rq[n], None if sd_min is None else sd_min + dim_bj, ">=")
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
    if ideal_a.is_zero or ideal_a.is_unit:
        raise HypothesisError("I must be nonzero and proper")
    _require_power(n)
    principal = MonomialIdeal.from_gens(v.context, [v])
    _require_blocks(ideal_a, principal)
    _, ia, iv = tensor_join(ideal_a, principal)
    report = TheoremReport(
        "thm_2_11_decomposition", _dump_pair(ideal_a, principal, n=n)
    )
    quotient = QuotientModule.of_quotient_ring(ia.add(iv).power(n))
    try:
        dims = certifying_box(quotient, budget)
    except CapError:
        report.items.append(CheckItem("stratum cover on box", None, None, "==", "unknown"))
        return report
    r = ideal_a.context.arity
    dims_a, dims_b = dims[:r], dims[r:]
    # stratum alpha: v^alpha || w (block B) and w/v^alpha outside
    # I^(n-alpha), which only block A decides
    valuations = _shell_masks(principal, n - 1, dims_b)
    strata = [
        kron_mask(module_mask(QuotientModule.of_quotient_ring(ideal_a.power(n - alpha)), dims_a),
                  valuations[alpha], math.prod(dims_b))
        for alpha in range(n)
    ]
    mismatches = cover_mismatches(strata, module_mask(quotient, dims))
    report.items.append(_item("stratum cover mismatches", mismatches, 0, "=="))
    return report


def check_cor_2_12(
    ideal_b: MonomialIdeal, n_max: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """sdepth(B/J^n) = depth(B/J^n) = s - t for a complete intersection."""
    _require_ci(ideal_b)
    _require_power(n_max, "n_max")
    report = TheoremReport("cor_2_12", {"J": format_ideal(ideal_b), "n_max": str(n_max)})
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
) -> int | None:
    """sdepth(J^k) for a complete intersection, computed in t variables on
    the maximal-ideal side and moved along the verified lattice isomorphism;
    None when the budget or the lattice cap runs out."""
    _require_ci(ideal_b)
    t = len(ideal_b.exps)
    s = ideal_b.context.arity
    small = RingContext(tuple(f"_t{i + 1}" for i in range(t)))
    maximal = MonomialIdeal.from_gens(small, [small.variable(j) for j in range(t)])
    m_k = maximal.power(k)
    source_value = _sd(QuotientModule.of_ideal(m_k), budget)
    if source_value is None:
        return None
    j_k = ideal_b.power(k)
    phi = ci_power_atom_map(m_k, ideal_b.gens)
    try:
        source, target = build_lcm_lattice(m_k), build_lcm_lattice(j_k)
    except CapError:
        return None
    return sdepth_transfer(source_value, t, s, source, target, phi)


def check_prop_2_14(
    ideal_b: MonomialIdeal, k_max: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Bounds s-t+1 <= sdepth(J^k) <= s-t+ceil(t/(k+1)) for a complete
    intersection, with equality from k = t-1 on; the direct value must agree
    with the lcm-lattice transfer from the maximal-ideal case."""
    _require_ci(ideal_b)
    _require_power(k_max, "k_max")
    report = TheoremReport("prop_2_14", {"J": format_ideal(ideal_b), "k_max": str(k_max)})
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
        report.items.append(
            _item(f"transfer agreement at k={k}", direct, transferred, "==")
        )
    return report


def check_thm_2_15(
    ideal_b: MonomialIdeal, n_max: int, budget: Budget = DEFAULT_BUDGET
) -> TheoremReport:
    """Asymptotics for a complete intersection: quotient and shell sdepth
    equal dim(B/J) at every power; sdepth(J^n) stabilizes at dim(B/J)+1 from
    n = t-1 on."""
    _require_ci(ideal_b)
    _require_power(n_max, "n_max", least=0)
    report = TheoremReport("thm_2_15", {"J": format_ideal(ideal_b), "n_max": str(n_max)})
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
class SequenceEntry:
    value: int | None
    status: str  # "exact" | "unknown" | "n/a"

    @classmethod
    def of(cls, value: int | None) -> "SequenceEntry":
        return cls(value, "exact" if value is not None else "unknown")

    def __str__(self) -> str:
        return str(self.value) if self.value is not None else f"?({self.status})"


@dataclass(frozen=True)
class SequenceRow:
    n: int
    ring_quotient: SequenceEntry
    ideal_power: SequenceEntry
    shell: SequenceEntry


def sdepth_sequence(
    ideal: MonomialIdeal, n_max: int, budget: Budget = DEFAULT_BUDGET
) -> list[SequenceRow]:
    """Rows (n, sdepth(R/L^n), sdepth(L^n), sdepth(L^n/L^(n+1)))."""
    _require_power(n_max, "n_max")
    rows = []
    for n in range(1, n_max + 1):
        try:
            p, p1 = ideal.power(n), ideal.power(n + 1)
        except CapError:
            na = SequenceEntry(None, "unknown")
            rows.append(SequenceRow(n, na, na, na))
            continue
        rows.append(
            SequenceRow(
                n,
                SequenceEntry.of(_sd(QuotientModule.of_quotient_ring(p), budget)),
                SequenceEntry.of(_sd(QuotientModule.of_ideal(p), budget)),
                SequenceEntry.of(_sd(QuotientModule(p, p1), budget)),
            )
        )
    return rows


def depth_sequence(
    ideal: MonomialIdeal, n_max: int, budget: Budget = DEFAULT_BUDGET
) -> list[SequenceRow]:
    """Rows (n, depth(R/L^n), depth(L^n), shell placeholder).

    The depth engine resolves cyclic quotients only, so the shell column is
    reported as n/a rather than approximated.
    """
    _require_power(n_max, "n_max")
    rows = []
    for n in range(1, n_max + 1):
        try:
            p = ideal.power(n)
        except CapError:
            p = None
        dq = _depth_q(p) if p is not None else None
        di = _depth_i(p) if p is not None else None
        rows.append(
            SequenceRow(n, SequenceEntry.of(dq), SequenceEntry.of(di), SequenceEntry(None, "n/a"))
        )
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
        if v not in ideal.gens or len(ideal.gens) < 2:
            continue
        gcds = {v.gcd(u).exponents for u in ideal.gens if u != v}
        if gcds != {w.exponents}:
            continue
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
