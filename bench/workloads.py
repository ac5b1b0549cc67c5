"""The benchmark's three workloads: inputs, operations and their checks.

A workload is a list of rounds; every round holds the same mix of
operations, so each run attempts whole rounds and the share of failed
operations is fixed.  Inputs come from the seed alone: the sdepth and corpus
workloads draw from the vetted pools in this directory, one pool entry per
cost stratum per round, and the depth workload generates its ideals from
fixed shapes with seeded exponents and supports.  No input repeats within a
run.

Checks do not take the program's word for its answers: witnesses are
re-checked by a cover count written here, and values are compared with the
closed forms the paper gives.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import pathlib
import random
from dataclasses import dataclass
from typing import Callable

import sdepth.poset as poset
import sdepth.taylor as taylor
import sdepth.verifier as verifier
from sdepth.core import Monomial, MonomialIdeal, QuotientModule, tensor_join
from sdepth.poset import Budget, CharPoset, degree_bound_g

from instances import block_context, corpus_args, sdepth_module

HERE = pathlib.Path(__file__).resolve().parent

# A decision that reaches half its limit has switched search phase on the
# wall clock, so its time and node count depend on the machine.
BUDGET = Budget(time_limit=8.0)
# sdepth(m^3), m = (x1..x4): k=2 stays undecided far beyond this limit.
M3_BUDGET = Budget(time_limit=0.25)
# Rounds of input per run.  A 20 s run on this code uses 2 sdepth rounds of
# 4 and 3 corpus rounds of 13, so that the seeds' draws stay alike.
SDEPTH_ROUNDS = 4
CORPUS_ROUNDS = 13
DEPTH_ROUNDS = 8


@dataclass
class Op:
    """One operation: run() is timed, check(result) is not.

    check returns (failed, problem): failed counts the operation as failed,
    problem (or None) says what is wrong with the run's outputs.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str | None]]


@dataclass
class Workload:
    rounds: Callable[[int], list[list[Op]]]  # seed -> rounds; this is set-up
    warm_up: Callable[[], object]
    tail_q: float  # the latency_tail_s quantile


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _pool_rounds(rng: random.Random, name: str, rounds: int) -> list[tuple]:
    """Rounds of (group, entry) pairs drawn from a vetted pool.

    Each group's entries are stored in cost order and cut into consecutive
    strata of at least `rounds` entries; round r takes the r-th entry of
    every shuffled stratum, so all rounds cost about the same and none
    repeats an entry.
    """
    pool = json.loads((HERE / f"pool_{name}.json").read_text())["pool"]
    columns = []
    for group, entries in pool.items():
        strata = len(entries) // rounds
        for i in range(strata):
            stratum = entries[i * len(entries) // strata : (i + 1) * len(entries) // strata]
            columns.append(_shuffled(rng, [(group, e) for e in stratum])[:rounds])
    return list(zip(*columns))


# --- independent certificate check -------------------------------------------


def _cumulate(values: list[int], dims: tuple[int, ...]) -> None:
    """In-place prefix sums along every axis of a row-major box."""
    stride = 1
    for d in reversed(dims):
        block = stride * d
        for base in range(0, len(values), block):
            for k in range(base + stride, base + block, stride):
                values[k : k + stride] = map(operator.add, values[k : k + stride], values[k - stride : k])
        stride = block


def _strides(dims: tuple[int, ...]) -> list[int]:
    out, stride = [], 1
    for d in reversed(dims):
        out.append(stride)
        stride *= d
    return out[::-1]


def _membership(ideal: MonomialIdeal, dims, strides) -> list[int]:
    """How many generators of the ideal divide each point of the box."""
    values = [0] * math.prod(dims)
    for gen in ideal.gens:
        values[sum(e * s for e, s in zip(gen.exponents, strides))] += 1
    _cumulate(values, dims)
    return values


def cover_check(module: QuotientModule, witness) -> str | None:
    """Exact-cover count of the witness's Stanley spaces on the box [0, g+1].

    By Herzog-Vladoiu-Zheng, an interval [c, d] with free set
    Z = {j : d_j = g_j} gives the spaces x^e K[Z], e in [c, d] with e_j = c_j
    on Z.  On the box they cover, once each, the points p with c_j <= p_j <= d_j
    off Z and c_j <= p_j <= g_j + 1 on Z, so every interval adds one over a
    sub-box; the sum must be the module's indicator.  Returns None when the
    cover is exact, else what is wrong.
    """
    g = degree_bound_g(module)
    n = len(g)
    dims = tuple(gj + 2 for gj in g)
    strides = _strides(dims)
    member = _membership(module.outer, dims, strides)
    excluded = _membership(module.inner, dims, strides)
    counts = [0] * len(member)
    for iv in witness.intervals:
        lo = iv.lo
        hi = [g[j] + 1 if iv.hi[j] == g[j] else iv.hi[j] for j in range(n)]
        for corner in itertools.product((0, 1), repeat=n):
            point = [hi[j] + 1 if c else lo[j] for j, c in enumerate(corner)]
            if all(p < d for p, d in zip(point, dims)):
                counts[sum(p * s for p, s in zip(point, strides))] += -1 if sum(corner) % 2 else 1
    _cumulate(counts, dims)
    for index, (count, m, x) in enumerate(zip(counts, member, excluded)):
        if count != (1 if m and not x else 0):
            return f"witness covers point #{index} {count} times"
    return None


def max_cell_bound(module: QuotientModule) -> int:
    """min rho(c) over the maximal cells of the poset on [0, g]."""
    g = degree_bound_g(module)
    dims = tuple(gj + 1 for gj in g)
    strides = _strides(dims)
    member = _membership(module.outer, dims, strides)
    excluded = _membership(module.inner, dims, strides)
    cell = [m > 0 and x == 0 for m, x in zip(member, excluded)]
    best = len(g)
    for point in itertools.product(*(range(d) for d in dims)):
        index = sum(p * s for p, s in zip(point, strides))
        if not cell[index]:
            continue
        if any(point[j] < g[j] and cell[index + strides[j]] for j in range(len(g))):
            continue
        best = min(best, sum(p == gj for p, gj in zip(point, g)))
    return best


# --- sdepth -------------------------------------------------------------------


def certify(module: QuotientModule, res) -> bool:
    """The program's own certificate path: expand the witness, verify it."""
    # the expansion reads only the context and g of the poset
    frame = CharPoset(module.context, degree_bound_g(module), [])
    decomposition = poset.partition_to_decomposition(frame, res.witness)
    return poset.verify_decomposition(decomposition, module, budget=BUDGET)


def _ci_closed_form(entry: dict, value: int) -> str | None:
    """Values the paper gives for a complete intersection J of t
    generators in s variables."""
    rows, n = entry["j"], entry["n"]
    s, t = len(rows[0]), len(rows)
    if entry["kind"] in ("quotient", "shell"):
        return None if value == s - t else f"expected s-t = {s - t}"
    lo, hi = s - t + 1, s - t + math.ceil(t / (n + 1))
    if n >= t - 1:
        hi = lo
    return None if lo <= value <= hi else f"expected a value in [{lo}, {hi}]"


def _sdepth_op(entry: dict, module: QuotientModule) -> Op:
    def run():
        res = poset.sdepth_exact(module, budget=BUDGET)
        return res, res.status == "exact" and certify(module, res)

    def check(outcome):
        res, verified = outcome
        if res.status != "exact":
            return True, f"undecided, bracket [{res.lo}, {res.hi}]"
        if res.elapsed >= BUDGET.time_limit / 2:
            return False, f"decisions took {res.elapsed:.1f}s, half the time limit"
        if not verified:
            return False, "verify_decomposition rejected the witness"
        g = degree_bound_g(module)
        if min(sum(a == b for a, b in zip(iv.hi, g)) for iv in res.witness.intervals) < res.value:
            return False, "a witness interval has rho below the value"
        if res.value > max_cell_bound(module):
            return False, "value above the maximal-cell bound"
        if "j" in entry and (problem := _ci_closed_form(entry, res.value)):
            return False, problem
        return False, cover_check(module, res.witness)

    return Op(f"sdepth {entry['kind']} {module}", run, check)


def _m3_op() -> Op:
    """sdepth(m^3) in four variables; Prop 2.14 with s = t = 4 gives 1."""
    ctx = block_context("x", 4)
    m3 = QuotientModule.of_ideal(MonomialIdeal.from_gens(ctx, [ctx.variable(j) for j in range(4)]).power(3))

    def run():
        return poset.sdepth_exact(m3, budget=M3_BUDGET)

    def check(res):
        if res.status == "exact":
            return False, None if res.value == 1 else f"sdepth(m^3) = {res.value}, expected 1"
        return True, None if res.lo <= 1 <= res.hi else f"bracket [{res.lo}, {res.hi}] misses 1"

    return Op("sdepth m^3 (x1..x4)", run, check)


def _sdepth_rounds(seed: int) -> list[list[Op]]:
    rng = random.Random(f"sdepth:{seed}")
    m3 = _m3_op()
    return [
        _shuffled(rng, [_sdepth_op(entry, sdepth_module(entry)) for _, entry in picks] + [m3])
        for picks in _pool_rounds(rng, "sdepth", SDEPTH_ROUNDS)
    ]


def _sdepth_warm_up():
    ctx = block_context("x", 3)
    module = QuotientModule.of_quotient_ring(MonomialIdeal.from_gens(ctx, [ctx.variable(j) for j in range(3)]).power(2))
    return certify(module, poset.sdepth_exact(module, budget=BUDGET))


def sdepth_workload() -> Workload:
    return Workload(_sdepth_rounds, _sdepth_warm_up, tail_q=0.8)


# --- depth --------------------------------------------------------------------


def _ci(rng: random.Random, prefix: str, t: int, spare: int, support: int = 2) -> tuple[MonomialIdeal, int]:
    """A random complete intersection of t generators, each on one to
    support variables, plus spare unused variables; returns it with its
    arity."""
    sizes = [rng.randint(1, support) for _ in range(t)]
    arity = sum(sizes) + spare
    ctx = block_context(prefix, arity)
    order = _shuffled(rng, range(arity))
    gens, pos = [], 0
    for size in sizes:
        exps = [0] * arity
        for j in order[pos : pos + size]:
            exps[j] = rng.randint(1, 3)
        pos += size
        gens.append(Monomial(ctx, tuple(exps)))
    return MonomialIdeal.from_gens(ctx, gens), arity


def _ci_power(rng, t: int, n: int, spare: int, support: int = 2):
    """S/J^n is Cohen-Macaulay of dimension s - t."""
    j, s = _ci(rng, "y", t, spare, support)
    return j.power(n), s - t


def _product(rng, ta: int, a: int, tb: int, b: int):
    """Lemma 2.1: depth(R/IJ) = depth(A/I) + depth(B/J) + 1, here with
    I = K^a and J = L^b for complete intersections K, L."""
    k, r = _ci(rng, "x", ta, rng.randint(0, 1))
    l, s = _ci(rng, "y", tb, rng.randint(0, 1))
    _, i_ext, j_ext = tensor_join(k.power(a), l.power(b))
    return i_ext.multiply(j_ext), (r - ta) + (s - tb) + 1


def _sum_power(rng, ta: int, a: int, tj: int, n: int):
    """Theorem 2.11: depth(R/(I+J)^n) = min_i depth(A/I^i) + dim(B/J) for a
    complete intersection J; with I = K^a every depth(A/I^i) is r - t_K."""
    k, r = _ci(rng, "x", ta, rng.randint(0, 1))
    j, s = _ci(rng, "y", tj, 1)
    _, i_ext, j_ext = tensor_join(k.power(a), j)
    return i_ext.add(j_ext).power(n), (r - ta) + (s - tj)


def rp2_ideal() -> MonomialIdeal:
    """Stanley-Reisner ideal of the 6-vertex real projective plane: its
    1-skeleton is complete, so the minimal non-faces are the ten triangles
    that are not facets.  The ring is Cohen-Macaulay over Q: depth 3."""
    facets = {(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
              (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)}
    ctx = block_context("x", 6)
    gens = [
        Monomial(ctx, tuple(int(j in tri) for j in range(6)))
        for tri in itertools.combinations(range(6), 3)
        if tri not in facets
    ]
    return MonomialIdeal.from_gens(ctx, gens)


# (label, builder, arguments, copies per round), cheapest first; generator
# counts in the comments.  The copies put as many operations below the
# "ci t=3 n=3" block as above it, so the median falls inside that block, and
# the tail percentile inside the "ci t=2 n=9" block, not on a boundary
# between shapes of different cost.
DEPTH_SHAPES = [
    # pure powers of all variables: depth 0, found by the socle shortcut
    ("socle ci t=2 n=9", _ci_power, (2, 9, 0, 1), 3),  # 10
    ("socle ci t=3 n=3", _ci_power, (3, 3, 0, 1), 3),  # 10
    ("ci t=2 n=7", _ci_power, (2, 7, 1), 3),  # 8
    ("(K^2+J)^2 t_J=1", _sum_power, (2, 2, 1, 2), 3),  # 9
    ("IJ K^1 L^3", _product, (2, 1, 2, 3), 3),  # 8
    ("ci t=2 n=8", _ci_power, (2, 8, 1), 3),  # 9
    ("(K+J)^2 t_J=2", _sum_power, (2, 1, 2, 2), 3),  # 10
    ("ci t=3 n=3", _ci_power, (3, 3, 1), 9),  # 10
    ("IJ t=3 t=3", _product, (3, 1, 3, 1), 8),  # 9
    ("ci t=2 n=9", _ci_power, (2, 9, 2), 6),  # 10
    ("IJ K^2 L^2", _product, (2, 2, 2, 2), 6),  # 9
]


def _depth_op(label: str, ideal: MonomialIdeal, expected: int) -> Op:
    def run():
        return taylor.depth_quotient(ideal)

    def check(rep):
        if rep.depth_quotient != expected:
            return False, f"{label}: depth {rep.depth_quotient}, expected {expected}"
        if rep.depth_quotient + rep.pd != ideal.context.arity:
            return False, f"{label}: depth + pd != number of variables"
        return False, None

    return Op(f"depth {label} {ideal}", run, check)


def _depth_rounds(seed: int) -> list[list[Op]]:
    rng = random.Random(f"depth:{seed}")
    rp2 = _depth_op("RP2", rp2_ideal(), 3)
    rounds = []
    for _ in range(DEPTH_ROUNDS):
        ops = [rp2]
        for label, build, args, copies in DEPTH_SHAPES:
            for _ in range(copies):
                ideal, expected = build(rng, *args)
                ops.append(_depth_op(label, ideal, expected))
        rounds.append(_shuffled(rng, ops))
    return rounds


def _depth_warm_up():
    ideal, _ = _ci_power(random.Random(0), 2, 3, 1)
    return taylor.depth_quotient(ideal)


def depth_workload() -> Workload:
    return Workload(_depth_rounds, _depth_warm_up, tail_q=0.8)


# --- corpus -------------------------------------------------------------------


class SlowestWalk:
    """Records the longest sdepth_exact walk inside the verifier since the
    last reset, by wrapping the name the check functions look up."""

    def __init__(self):
        self.value = 0.0
        inner = verifier.sdepth_exact

        def timed(*args, **kwargs):
            res = inner(*args, **kwargs)
            self.value = max(self.value, res.elapsed)
            return res

        verifier.sdepth_exact = timed


def _corpus_op(statement: str, entry: dict, slowest: SlowestWalk) -> Op:
    args = corpus_args(statement, entry)

    def run():
        slowest.value = 0.0
        report = getattr(verifier, f"check_{statement}")(*args, budget=BUDGET)
        return report, slowest.value

    def check(outcome):
        report, walk = outcome
        if report.verdict in ("fails", "unknown"):
            return True, f"{statement} {report.instance}: verdict {report.verdict}"
        if walk >= BUDGET.time_limit / 2:
            return False, f"{statement}: an sdepth walk took {walk:.1f}s, half the time limit"
        return False, None

    return Op(f"corpus {statement}", run, check)


def corpus_workload() -> Workload:
    slowest = SlowestWalk()

    def rounds(seed: int) -> list[list[Op]]:
        rng = random.Random(f"corpus:{seed}")
        return [
            _shuffled(rng, [_corpus_op(statement, entry, slowest) for statement, entry in picks])
            for picks in _pool_rounds(rng, "corpus", CORPUS_ROUNDS)
        ]

    def warm_up():
        ctx_a, ctx_b = block_context("x", 1), block_context("y", 1)
        return verifier.check_lemma_2_1(
            MonomialIdeal.from_gens(ctx_a, [ctx_a.variable(0)]),
            MonomialIdeal.from_gens(ctx_b, [ctx_b.variable(0)]),
            budget=BUDGET,
        )

    return Workload(rounds, warm_up, tail_q=0.9)


WORKLOADS = {"sdepth": sdepth_workload, "depth": depth_workload, "corpus": corpus_workload}
