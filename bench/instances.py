"""Decoding of the benchmark's stored instances into sdepth objects.

An instance is plain JSON: generators are exponent rows, block A uses the
variables x1..xr and block B the variables y1..ys.  Building the objects is
ideal arithmetic in the program under test (tensor joins, sums, powers), so
callers time it as part of set-up.
"""
from __future__ import annotations

from sdepth.core import Monomial, MonomialIdeal, QuotientModule, RingContext, tensor_join


def block_context(prefix: str, arity: int) -> RingContext:
    return RingContext(tuple(f"{prefix}{i + 1}" for i in range(arity)))


def ideal(ctx: RingContext, rows) -> MonomialIdeal:
    return MonomialIdeal.from_gens(ctx, [Monomial(ctx, tuple(row)) for row in rows])


def block_pair(entry: dict) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The block ideals I (rows "a", in x) and J (rows "b", in y)."""
    a, b = entry["a"], entry["b"]
    return ideal(block_context("x", len(a[0])), a), ideal(block_context("y", len(b[0])), b)


def generating_ideal(entry: dict) -> MonomialIdeal:
    """L = I + J for a block pair, or the complete intersection J ("j")."""
    if "j" in entry:
        return ideal(block_context("y", len(entry["j"][0])), entry["j"])
    _, ia, ib = tensor_join(*block_pair(entry))
    return ia.add(ib)


def sdepth_module(entry: dict) -> QuotientModule:
    """L^n, S/L^n or the shell L^n/L^(n+1), as named by entry["kind"]."""
    gens = generating_ideal(entry)
    n = entry["n"]
    power = gens.power(n)
    kind = entry["kind"]
    if kind == "ideal":
        return QuotientModule.of_ideal(power)
    if kind == "quotient":
        return QuotientModule.of_quotient_ring(power)
    if kind == "shell":
        return QuotientModule(power, power.multiply(gens))
    raise ValueError(f"unknown module kind {kind!r}")


# statement -> the shape of its instance; kept here rather than read from
# the program's own table so that the corpus cannot change under it
STATEMENT_KINDS = {
    "lemma_2_1": "pair",
    "prop_2_2": "pair",
    "prop_2_3": "pair_n",
    "prop_2_4": "pair_n",
    "prop_2_5": "ci_n",
    "prop_2_6": "pair_n",
    "prop_2_7": "pair_n",
    "obs_2_8": "pair_n",
    "prop_2_9": "pair",
    "thm_2_11": "pair_n",
    "thm_2_11_decomposition": "decomp",
    "cor_2_12": "ci_n",
    "cor_2_13": "colon_shift",
    "prop_2_14": "ci_n",
    "thm_2_15": "ci_n",
}


def corpus_args(statement: str, entry: dict) -> tuple:
    """Positional arguments of check_<statement> for one stored instance."""
    kind = STATEMENT_KINDS[statement]
    if kind == "pair":
        return block_pair(entry)
    if kind == "pair_n":
        return (*block_pair(entry), entry["n"])
    if kind == "ci_n":
        return (generating_ideal(entry), entry["n"])
    if kind == "decomp":
        ia = ideal(block_context("x", len(entry["a"][0])), entry["a"])
        ctx_b = block_context("y", len(entry["v"]))
        return (ia, Monomial(ctx_b, tuple(entry["v"])), entry["n"])
    if kind == "colon_shift":
        r = entry["r"]
        s = len(entry["v"]) - r
        ctx = RingContext(block_context("x", r).variables + block_context("y", s).variables, split=r)
        return (ideal(ctx, entry["l"]), Monomial(ctx, tuple(entry["v"])), entry["n"])
    raise AssertionError(f"unhandled instance kind {kind}")
