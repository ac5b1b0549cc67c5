import itertools
import math
import operator
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sdepth.poset as poset_module
import sdepth.taylor as taylor_module

from sdepth.core import Monomial, MonomialIdeal, QuotientModule, make_context
from sdepth.lattice import build_lcm_lattice, lattice_iso_check
from sdepth.poset import (
    _keep_masks,
    _up_closure,
    Budget,
    CertificateError,
    IntervalPartition,
    StanleyDecomposition,
    box_mask,
    box_strides,
    build_poset,
    canonical_shape,
    certify_witness,
    compress,
    cover_mismatches,
    degree_bound_g,
    ideal_mask,
    mask_points,
    module_mask,
    partition_to_decomposition,
    poset_box,
    pull_back,
    sdepth_decision,
    sdepth_exact,
    sdepth_walk,
    verify_decomposition,
)

import oracles

BUDGET = Budget(time_limit=30.0)


@st.composite
def contexts(draw, max_vars=3):
    n = draw(st.integers(1, max_vars))
    return make_context(*[f"x{i + 1}" for i in range(n)])


@st.composite
def monomials(draw, ctx, max_exp=3):
    return Monomial(ctx, tuple(draw(st.integers(0, max_exp)) for _ in range(ctx.arity)))


@st.composite
def ideals(draw, ctx=None, max_gens=4, max_exp=3):
    if ctx is None:
        ctx = draw(contexts())
    gens = draw(st.lists(monomials(ctx, max_exp), min_size=1, max_size=max_gens))
    gens = [g for g in gens if not g.is_unit]
    return MonomialIdeal.from_gens(ctx, gens)


@st.composite
def small_modules(draw, max_volume=120):
    """Nonzero quotient modules with a small characteristic box."""
    ctx = draw(contexts(max_vars=3))
    max_exp = 2 if ctx.arity >= 3 else 3
    outer_gens = draw(st.lists(monomials(ctx, max_exp), min_size=1, max_size=3))
    outer_gens = [g for g in outer_gens if not g.is_unit]
    outer = MonomialIdeal.from_gens(ctx, outer_gens)
    if outer.is_zero:
        outer = MonomialIdeal.unit(ctx)
    style = draw(st.integers(0, 2))
    if style == 0:
        module = QuotientModule.of_ideal(outer)
    elif style == 1 and outer.is_proper:
        module = QuotientModule.of_quotient_ring(outer)
    else:
        mult = draw(monomials(ctx, 1))
        inner = outer.multiply(MonomialIdeal.from_gens(ctx, [mult])) if not mult.is_unit else outer.power(2)
        if inner == outer:
            module = QuotientModule.of_ideal(outer)
        else:
            module = QuotientModule(outer, inner)
    volume = math.prod(e + 1 for e in degree_bound_g(module))
    if volume > max_volume or module.outer.is_zero:
        module = QuotientModule.of_ideal(
            MonomialIdeal.from_gens(ctx, [ctx.variable(0)])
        )
    return module


@given(ideals())
@settings(max_examples=60, deadline=None)
def test_minimal_generators_are_incomparable(i):
    for a in i.gens:
        for b in i.gens:
            assert a == b or not a.divides(b)


@given(ideals())
@settings(max_examples=40, deadline=None)
def test_from_gens_idempotent(i):
    assert MonomialIdeal.from_gens(i.context, i.gens) == i


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_product_contained_in_intersection(data):
    ctx = data.draw(contexts())
    a = data.draw(ideals(ctx=ctx, max_gens=3, max_exp=2))
    b = data.draw(ideals(ctx=ctx, max_gens=3, max_exp=2))
    prod = a.multiply(b)
    meet = a.intersect(b)
    assert all(meet.contains(g) for g in prod.gens)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_power_additivity(data):
    ctx = data.draw(contexts(max_vars=2))
    i = data.draw(ideals(ctx=ctx, max_gens=3, max_exp=2))
    a = data.draw(st.integers(0, 3))
    b = data.draw(st.integers(0, 3))
    assert i.power(a).multiply(i.power(b)) == i.power(a + b)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_membership_matches_generator_divisibility(data):
    ctx = data.draw(contexts())
    i = data.draw(ideals(ctx=ctx))
    m = data.draw(monomials(ctx))
    assert i.contains(m) == any(g.divides(m) for g in i.gens)


@given(small_modules(), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_decision_is_monotone_in_k(module, k):
    poset = build_poset(module, budget=BUDGET)
    if k + 1 > poset.arity:
        return
    d1 = sdepth_decision(poset, k, budget=BUDGET)
    d2 = sdepth_decision(poset, k + 1, budget=BUDGET)
    if d1.status == "false":
        assert d2.status in ("false", "unknown")
    if d2.status == "true":
        assert d1.status in ("true", "unknown")


@given(small_modules())
@settings(max_examples=25, deadline=None)
def test_witness_always_verifies(module):
    res = sdepth_exact(module, budget=BUDGET)
    assert res.status == "exact"
    assert 0 <= res.value <= module.context.arity
    poset = build_poset(module, budget=BUDGET)
    decomposition = partition_to_decomposition(poset, res.witness)
    assert verify_decomposition(decomposition, module)
    assert decomposition.sdepth >= res.value


# --- exponent compression ------------------------------------------------------


@st.composite
def gapped_modules(draw):
    """A small module and a copy with its exponents spread apart: per
    variable, exponent e > 0 moves up by a sum of e random gaps."""
    module = draw(small_modules(max_volume=60))
    spreads = []
    for gj in degree_bound_g(module):
        gaps = draw(st.lists(st.integers(0, 2), min_size=gj, max_size=gj))
        spreads.append([sum(gaps[:e]) + e for e in range(gj + 1)])

    def spread(ideal):
        return MonomialIdeal.from_gens(ideal.context, [
            Monomial(ideal.context, tuple(s[e] for s, e in zip(spreads, g)))
            for g in ideal.exps
        ])

    return module, QuotientModule(spread(module.outer), spread(module.inner))


def _shape_module(kept, outer, inner):
    """The module of a shape :func:`compress` returns, in a ring of one
    variable per kept variable; its generators must be canonical."""
    ctx = make_context(*[f"x{i + 1}" for i in range(len(kept))])
    for exps in (outer, inner):
        assert MonomialIdeal(ctx, exps) == MonomialIdeal.from_gens(ctx, [Monomial(ctx, e) for e in exps])
    return QuotientModule(MonomialIdeal(ctx, outer), MonomialIdeal(ctx, inner))


@given(gapped_modules())
@settings(max_examples=40, deadline=None)
def test_compression_keeps_sdepth_and_certifies_on_the_original(case):
    module, spread = case
    levels, kept, outer, inner = compress(spread)
    compressed = _shape_module(kept, outer, inner)
    # idempotent, and the identity once the exponents are consecutive
    again = compress(compressed)
    assert again[2] is compressed.outer.exps and again[3] is compressed.inner.exps
    assert (kept, outer, inner) == compress(module)[1:]
    assert all(v == tuple(range(len(v))) for v in again[0])
    res = sdepth_exact(spread, budget=BUDGET)
    direct = sdepth_walk(spread, budget=BUDGET)
    assert res.status == direct.status == "exact"
    assert res.value == direct.value
    identity = all(v == tuple(range(len(v))) for v in levels)
    assert res.reduction == (None if identity else "exponent-compression")
    # the pulled-back witness, checked again on the spread module
    poset = build_poset(spread, budget=BUDGET)
    decomposition = partition_to_decomposition(poset, res.witness)
    assert verify_decomposition(decomposition, spread)
    assert decomposition.sdepth >= res.value
    assert all(oracles.rho(poset.g, iv.hi) >= res.value for iv in res.witness.intervals)


# --- unused variables -----------------------------------------------------------


def _count_walks(patch: pytest.MonkeyPatch) -> list:
    """The modules sdepth_exact walks while patch is active, one per
    sdepth_walk call.  Installed in the test body, once per example: a
    function-scoped fixture would serve all of a test's examples."""
    walked = []

    def counting(module, budget):
        walked.append(module)
        return sdepth_walk(module, budget)

    patch.setattr(poset_module, "sdepth_walk", counting)
    return walked


def _with_unused_variables(module, arity, spots, prefix, split=None):
    """The module in a ring of arity variables named prefix1, prefix2, ...:
    its own variables sit at the ascending positions spots, and no
    generator involves the others."""
    ctx = make_context(*[f"{prefix}{i + 1}" for i in range(arity)], split=split)

    def spread(e):
        out = [0] * arity
        for j, ej in zip(spots, e):
            out[j] = ej
        return tuple(out)

    def extend(ideal):
        # zero columns keep the graded-lex order and minimality
        return MonomialIdeal(ctx, tuple(map(spread, ideal.exps)))

    return QuotientModule(extend(module.outer), extend(module.inner))


@st.composite
def modules_with_unused_variables(draw):
    """A small module M whose generators involve every variable, and M with
    z in {1, 2} unused variables inserted, in a freshly named ring that is
    sometimes split."""
    module = draw(small_modules(max_volume=60))
    assume(all(len(v) > 1 for v in compress(module)[0]))
    arity = module.context.arity + draw(st.integers(1, 2))
    spots = sorted(draw(st.permutations(range(arity)))[: module.context.arity])
    prefix = draw(st.sampled_from(["t", "u", "_t"]))
    split = draw(st.none() | st.integers(1, arity - 1))
    return module, _with_unused_variables(module, arity, spots, prefix, split)


_X12 = make_context("x1", "x2")
_SQUARE = MonomialIdeal.from_gens(_X12, [Monomial(_X12, e) for e in ((2, 0), (1, 1), (0, 2))])
# sdepth(S/m^2) = 0 and sdepth(m^2) = 1
_QUOTIENT, _IDEAL = QuotientModule.of_quotient_ring(_SQUARE), QuotientModule.of_ideal(_SQUARE)
# S/(x1^3, x1*x2^2): gaps in the exponents of both variables
_GAPPED = QuotientModule.of_quotient_ring(
    MonomialIdeal.from_gens(_X12, [Monomial(_X12, e) for e in ((3, 0), (1, 2))]))


@given(modules_with_unused_variables())
@example((_QUOTIENT, _with_unused_variables(_QUOTIENT, 4, [1, 3], "t", split=2)))
@example((_IDEAL, _with_unused_variables(_IDEAL, 3, [0, 2], "u")))
@example((_GAPPED, _with_unused_variables(_GAPPED, 4, [1, 2], "_t", split=3)))
@settings(max_examples=40, deadline=None)
def test_unused_variables_share_the_walk_of_the_narrowed_module(case):
    module, extended = case
    poset_module._shape_walk.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        walks = _count_walks(patch)
        own = sdepth_exact(module, budget=BUDGET)
        res = sdepth_exact(extended, budget=BUDGET)
    # the uncached walk of the extended module's canonical compressed
    # poset: the canonical shape with the unused variables put back last,
    # pulled back through the permuted kept variables and the unused ones
    levels, kept, outer, inner = compress(extended)
    order, outer, inner = canonical_shape(len(kept), outer, inner)
    kept = [kept[i] for i in order]
    arity = extended.context.arity
    canonical = _shape_module(kept, outer, inner)
    canonical = _with_unused_variables(canonical, arity, range(len(kept)), "c")
    direct = sdepth_walk(canonical, budget=BUDGET)
    unused = [j for j in range(arity) if j not in kept]
    direct = replace(direct, witness=pull_back(direct.witness, levels, kept + unused))
    assert (res.status, res.value, res.lo, res.hi, res.nodes, res.witness) == (
        direct.status, direct.value, direct.lo, direct.hi, direct.nodes, direct.witness)
    assert res.value == own.value + extended.context.arity - module.context.arity
    # M's walk serves the extended module
    assert len(walks) == 1


# --- permuted variables ----------------------------------------------------------


def _permuted(exps, order):
    """The exponent tuples with coordinate i read from coordinate order[i],
    in graded-lex order."""
    return tuple(sorted((tuple(e[j] for j in order) for e in exps), key=lambda e: (sum(e), e)))


@st.composite
def permuted_modules(draw):
    """A small module M and pi(M): its variables permuted, in a freshly
    named ring."""
    module = draw(small_modules(max_volume=80))
    arity = module.context.arity
    order = draw(st.permutations(range(arity)))
    prefix = draw(st.sampled_from(["x", "u", "_t"]))
    ctx = make_context(*[f"{prefix}{i + 1}" for i in range(arity)])

    def permute(ideal):
        return MonomialIdeal(ctx, _permuted(ideal.exps, order))

    return module, QuotientModule(permute(module.outer), permute(module.inner))


_X123 = make_context("x1", "x2", "x3")
_Y123 = make_context("y1", "y2", "y3")


def _of(ctx, *gens):
    return MonomialIdeal.from_gens(ctx, [Monomial(ctx, e) for e in gens])


@given(permuted_modules())
# S/(x1*x2^2, x3^3): no two columns tie, so the invariant alone orders
# them; pi swaps x1 and x3
@example((QuotientModule.of_quotient_ring(_of(_X123, (1, 2, 0), (0, 0, 3))),
          QuotientModule.of_quotient_ring(_of(_Y123, (0, 2, 1), (3, 0, 0)))))
# (x1^2*x2, x2^2*x3, x1*x3^2): all columns tie and no swap fixes it, so
# the arrangements are searched; pi swaps x1 and x2
@example((QuotientModule.of_ideal(_of(_X123, (2, 1, 0), (0, 2, 1), (1, 0, 2))),
          QuotientModule.of_ideal(_of(_Y123, (1, 2, 0), (2, 0, 1), (0, 1, 2)))))
# (x1, x2, x3)^2: every swap fixes it
@example((QuotientModule.of_ideal(_of(_X123, (1, 0, 0), (0, 1, 0), (0, 0, 1)).power(2)),
          QuotientModule.of_ideal(_of(_Y123, (1, 0, 0), (0, 1, 0), (0, 0, 1)).power(2))))
@settings(max_examples=60, deadline=None)
def test_a_permutation_of_the_variables_shares_the_walk(case):
    poset_module._shape_walk.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        walks = _count_walks(patch)
        results = [sdepth_exact(module, budget=BUDGET) for module in case]
    direct = sdepth_walk(case[0], budget=BUDGET)
    assert {(r.status, r.value, r.lo, r.hi) for r in results} == {
        (direct.status, direct.value, direct.lo, direct.hi)}
    # one walk, of the canonical shape, serves M and pi(M)
    assert len(walks) == 1
    for module, res in zip(case, results):
        certify_witness(res.witness, module, res.lo, poset_box(module))


@st.composite
def permuted_shapes(draw):
    """Exponent tuples of outer (at least one) and inner, graded-lex, on up
    to six variables (at most 6! = 720 orderings, within ORDERINGS_CAP, so
    canonical_shape searches them all for the least key), and an ordering
    of the variables."""
    arity = draw(st.integers(1, 6))
    row = st.tuples(*[st.integers(0, 2)] * arity)
    outer = draw(st.lists(row, min_size=1, max_size=5, unique=True))
    inner = draw(st.lists(row, max_size=5, unique=True))
    identity = tuple(range(arity))
    shape = arity, _permuted(outer, identity), _permuted(inner, identity)
    return shape, draw(st.permutations(identity))


# m^2 on six variables: all columns tie and all are interchangeable
_M2 = _permuted([tuple(int(k in (i, j)) + int(k == i == j) for k in range(6))
                 for i in range(6) for j in range(i, 6)], range(6))
# the edges of a 5-cycle: all columns tie and no two are interchangeable
_C5 = _permuted([tuple(int(k in (i, (i + 1) % 5)) for k in range(5)) for i in range(5)], range(5))


@given(permuted_shapes())
@example(((6, _M2, ()), (5, 3, 1, 0, 2, 4)))
@example(((5, _C5, ()), (0, 2, 4, 1, 3)))
@settings(max_examples=200, deadline=None)
def test_the_canonical_shape_is_the_same_for_every_ordering(case):
    (arity, outer, inner), order = case
    permuted = (_permuted(outer, order), _permuted(inner, order))
    key = canonical_shape(arity, outer, inner)
    assert canonical_shape(arity, *permuted)[1:] == key[1:]
    # a canonical shape is its own canonical form
    assert canonical_shape(arity, *key[1:])[1:] == key[1:]
    # the returned order, applied to the shape, gives the key
    for exps in (outer, inner), permuted:
        order, *canonical = canonical_shape(arity, *exps)
        assert sorted(order) == list(range(arity))
        assert [_permuted(gens, order) for gens in exps] == canonical


def test_the_canonical_shape_beyond_the_orderings_cap_is_the_first_ordering():
    # the edges of a 9-cycle: every column ties with every other and no swap
    # fixes the edges, so 9! orderings remain, beyond the cap; the first
    # keeps the columns in place
    edges = _permuted([tuple(int(k in (i, (i + 1) % 9)) for k in range(9)) for i in range(9)],
                      range(9))
    assert math.factorial(9) > poset_module.ORDERINGS_CAP
    assert canonical_shape(9, edges, ()) == (tuple(range(9)), edges, ())
    # with x5^2 added, x5 sorts last and the other 8 columns still tie, 8!
    # orderings beyond the cap: the first moves x5, and the shape it gives
    # is its own canonical form
    squared = _permuted(edges + (tuple(2 * int(k == 4) for k in range(9)),), range(9))
    key = canonical_shape(9, squared, ())
    assert key[0] == (0, 1, 2, 3, 5, 6, 7, 8, 4)
    assert canonical_shape(9, *key[1:])[1:] == key[1:]


@st.composite
def symmetric_shapes(draw):
    """Shapes on up to six variables whose tied columns fall into classes
    that swap member by member: a block of columns with relabelled copies
    of it, or a power of a complete intersection whose generators repeat
    one exponent pattern, sometimes with one more generator that breaks
    part of the symmetry; with the columns shuffled, as an ideal or as the
    inner ideal of a quotient ring."""
    if draw(st.booleans()):
        width = draw(st.integers(1, 3))
        copies = draw(st.integers(2, 6 // width))
        block = draw(st.lists(st.tuples(*[st.integers(0, 2)] * width).filter(any),
                              min_size=1, max_size=3, unique=True))
        rows = {(0,) * (width * c) + r + (0,) * (width * (copies - 1 - c))
                for c in range(copies) for r in block}
        arity = width * copies
    else:
        pattern = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)))
        t = draw(st.integers(2, 6 // len(pattern)))
        arity = t * len(pattern)
        gens = [(0,) * (len(pattern) * c) + pattern + (0,) * (len(pattern) * (t - 1 - c))
                for c in range(t)]
        ctx = make_context(*[f"x{i + 1}" for i in range(arity)])
        rows = set(_of(ctx, *gens).power(draw(st.integers(1, 3))).exps)
    rows |= set(draw(st.lists(st.tuples(*[st.integers(0, 1)] * arity).filter(any), max_size=1)))
    rows = _permuted(rows, draw(st.permutations(range(arity))))
    if draw(st.booleans()):
        return arity, rows, ()
    return arity, ((0,) * arity,), rows


@given(st.one_of(permuted_shapes().map(operator.itemgetter(0)), symmetric_shapes()))
@example((4, ((0, 0, 0, 0),), ((0, 3, 0, 3), (1, 2, 1, 2), (2, 1, 2, 1), (3, 0, 3, 0))))
@example((5, _C5, ()))
@settings(max_examples=150, deadline=None)
def test_the_canonical_shape_is_the_least_key_over_every_ordering(shape):
    arity, outer, inner = shape
    order, *canonical = canonical_shape(arity, outer, inner)
    assert tuple(canonical) == oracles.brute_canonical_key(arity, outer, inner)
    assert [_permuted(gens, order) for gens in (outer, inner)] == canonical


# shapes whose tied columns fall into classes that swap member by member,
# each with the (order, outer, inner) the search over every arrangement of
# the classes gave: the pruned search must return the same order
_SWAPPED_SHAPES = [
    # S/J^3, J = (x1*x2, x3*x4), with its variables listed x3 x1 x4 x2
    ((4, ((0, 0, 0, 0),), ((0, 3, 0, 3), (1, 2, 1, 2), (2, 1, 2, 1), (3, 0, 3, 0))),
     ((0, 2, 1, 3), ((0, 0, 0, 0),), ((0, 0, 3, 3), (1, 1, 2, 2), (2, 2, 1, 1), (3, 3, 0, 0)))),
    # a square of three products of two variables, shuffled
    ((6, ((0, 0, 2, 2, 0, 0), (0, 1, 1, 1, 1, 0), (0, 2, 0, 0, 2, 0), (1, 0, 1, 1, 0, 1),
          (1, 1, 0, 0, 1, 1), (2, 0, 0, 0, 0, 2)), ()),
     ((0, 5, 1, 4, 2, 3), ((0, 0, 0, 0, 2, 2), (0, 0, 1, 1, 1, 1), (0, 0, 2, 2, 0, 0),
                           (1, 1, 0, 0, 1, 1), (1, 1, 1, 1, 0, 0), (2, 2, 0, 0, 0, 0)), ())),
    # a square of two products of three variables, shuffled
    ((6, ((0, 2, 0, 2, 0, 2), (1, 1, 1, 1, 1, 1), (2, 0, 2, 0, 2, 0)), ()),
     ((0, 2, 4, 1, 3, 5), ((0, 0, 0, 2, 2, 2), (1, 1, 1, 1, 1, 1), (2, 2, 2, 0, 0, 0)), ())),
    # S/(x1^2*x2^2, x3^2*x4^2, x5*x6), compressed and shuffled
    ((6, ((0, 0, 0, 0, 0, 0),), ((0, 0, 1, 1, 0, 0), (0, 1, 0, 0, 1, 0), (1, 0, 0, 0, 0, 1))),
     ((0, 5, 1, 4, 2, 3), ((0, 0, 0, 0, 0, 0),), ((0, 0, 0, 0, 1, 1), (0, 0, 1, 1, 0, 0),
                                                  (1, 1, 0, 0, 0, 0)))),
    # S/((x1*x2, x3*x4)^2 + (x5*x6)), shuffled
    ((6, ((0, 0, 0, 0, 0, 0),), ((0, 0, 0, 1, 1, 0), (0, 2, 2, 0, 0, 0), (1, 1, 1, 0, 0, 1),
                                 (2, 0, 0, 0, 0, 2))),
     ((3, 4, 0, 5, 1, 2), ((0, 0, 0, 0, 0, 0),), ((1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 2, 2),
                                                  (0, 0, 1, 1, 1, 1), (0, 0, 2, 2, 0, 0)))),
]


@pytest.mark.parametrize("shape, expected", _SWAPPED_SHAPES)
def test_class_swaps_keep_the_order_of_the_full_search(shape, expected):
    assert canonical_shape(*shape) == expected


# --- depth by lcm-lattice shape --------------------------------------------------


@st.composite
def _shape_copies(draw, ideal):
    """The ideal with each variable's exponents relabelled by a strictly
    increasing map fixing 0, its variables permuted and 1 or 2 unused
    variables inserted, in a freshly named ring that is sometimes split."""
    n = ideal.context.arity
    top = max(map(max, ideal.exps))
    maps = []
    for _ in range(n):
        gaps = draw(st.lists(st.integers(0, 2), min_size=top, max_size=top))
        maps.append([sum(gaps[:e]) + e for e in range(top + 1)])
    order = draw(st.permutations(range(n)))
    arity = n + draw(st.integers(1, 2))
    spots = sorted(draw(st.permutations(range(arity)))[:n])
    prefix = draw(st.sampled_from(["t", "u", "_t"]))
    split = draw(st.none() | st.integers(1, arity - 1))
    ctx = make_context(*[f"{prefix}{i + 1}" for i in range(arity)], split=split)

    def image(g):
        out = [0] * arity
        for spot, j in zip(spots, order):
            out[spot] = maps[j][g[j]]
        return Monomial(ctx, tuple(out))

    return MonomialIdeal.from_gens(ctx, map(image, ideal.exps))


@st.composite
def ideals_and_shape_copies(draw):
    """A nonzero proper ideal within the lcm-lattice cap, at most 9
    generators on at most 6 variables, and two copies of its shape."""
    n = draw(st.integers(1, 6))
    top = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, top)] * n).filter(any)
    ideal = _of(make_context(*[f"x{i + 1}" for i in range(n)]), *draw(st.lists(row, min_size=1, max_size=9)))
    return ideal, [draw(_shape_copies(ideal)) for _ in range(2)]


@given(ideals_and_shape_copies())
@settings(max_examples=60, deadline=None)
def test_copies_of_a_shape_share_one_depth_computation(case):
    ideal, copies = case
    taylor_module._shape_pd.cache_clear()
    with pytest.MonkeyPatch.context() as patch:
        runs = []
        real = taylor_module.taylor_tor_ranks

        def counting(i):
            runs.append(i)
            return real(i)

        patch.setattr(taylor_module, "taylor_tor_ranks", counting)
        reports = [taylor_module.depth_quotient(i) for i in (ideal, *copies)]
    # each report against the uncached reference on the ideal itself
    for i, report in zip((ideal, *copies), reports):
        pd = taylor_module.taylor_tor_ranks(i).pd
        socle = taylor_module.has_socle(i)
        assert (report.depth_quotient, report.pd) == (i.context.arity - pd, pd)
        assert socle == (report.depth_quotient == 0)
        assert report.method == ("socle-shortcut" if socle else "taylor")
    # the premise of the memo: the compressed, canonically ordered
    # generators have the input's lcm lattice, atom for atom
    levels, kept, _, inner = compress(QuotientModule.of_quotient_ring(ideal))
    arity = len(kept)
    order, _, canonical = canonical_shape(arity, ((0,) * arity,), inner)
    phi = {g: tuple(levels[kept[i]].index(g[kept[i]]) for i in order) for g in ideal.exps}
    assert sorted(phi.values()) == sorted(canonical)
    shape = MonomialIdeal(make_context(*[f"x{i + 1}" for i in range(arity)]), canonical)
    assert lattice_iso_check(build_lcm_lattice(ideal), build_lcm_lattice(shape), phi)
    # one Taylor run serves all copies, and none when the shape has a socle
    assert len(runs) == int(reports[0].pd < arity)


# --- the box-membership kernel -------------------------------------------------


@st.composite
def kernel_ideals(draw, ctx):
    """Ideals with generators inside and outside small boxes, plus the zero
    and unit ideals."""
    style = draw(st.integers(0, 5))
    if style == 0:
        return MonomialIdeal.zero(ctx)
    if style == 1:
        return MonomialIdeal.unit(ctx)
    return draw(ideals(ctx=ctx, max_gens=4, max_exp=4))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_tuple_arithmetic_matches_monomial_arithmetic(data):
    ctx = data.draw(contexts())
    a = data.draw(kernel_ideals(ctx))
    b = data.draw(kernel_ideals(ctx))
    assert a.add(b).exps == oracles.monomial_add(a, b)
    assert a.multiply(b).exps == oracles.monomial_multiply(a, b)
    assert a.intersect(b).exps == oracles.monomial_intersect(a, b)
    for n in range(4):
        assert a.power(n).exps == oracles.monomial_power(a, n)
    # the Monomial view: in the ideal's context, in exps order, built once
    gens = a.gens
    assert all(isinstance(g, Monomial) and g.context == ctx for g in gens)
    assert tuple(g.exponents for g in gens) == a.exps
    assert a.gens is gens


@st.composite
def boxes(draw, ctx):
    """Side lengths of at most 5, often 1."""
    return tuple(draw(st.sampled_from([1, 1, 2, 3, 4, 5])) for _ in range(ctx.arity))


def _box_points(dims):
    """Box points in row-major order, so their position is the bit index."""
    return enumerate(itertools.product(*(range(d) for d in dims)))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_ideal_mask_matches_contains(data):
    ctx = data.draw(contexts())
    ideal = data.draw(kernel_ideals(ctx))
    dims = data.draw(boxes(ctx))
    mask = ideal_mask(ideal, dims)
    assert mask >> math.prod(dims) == 0
    for index, p in _box_points(dims):
        assert (mask >> index) & 1 == ideal.contains(Monomial(ctx, p))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_up_closure_matches_a_pointwise_closure(data):
    ctx = data.draw(contexts())
    dims = data.draw(boxes(ctx))
    points = list(_box_points(dims))
    chosen = [(index, p) for index, p in points if data.draw(st.booleans())]
    mask = sum(1 << index for index, _ in chosen)
    steps = [data.draw(st.integers(0, d - 1)) for d in dims]
    closure = _up_closure(mask, steps, box_strides(dims), _keep_masks(dims))
    for index, p in points:
        reached = any(all(0 <= pj - qj <= n for pj, qj, n in zip(p, q, steps)) for _, q in chosen)
        assert (closure >> index) & 1 == reached


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_module_mask_matches_contains(data):
    ctx = data.draw(contexts())
    outer = data.draw(kernel_ideals(ctx))
    inner = outer.intersect(data.draw(kernel_ideals(ctx)))
    module = QuotientModule(outer, inner)
    dims = data.draw(boxes(ctx))
    mask = module_mask(module, dims)
    for index, p in _box_points(dims):
        assert (mask >> index) & 1 == module.contains(Monomial(ctx, p))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_box_mask_matches_a_pointwise_walk(data):
    ctx = data.draw(contexts())
    dims = data.draw(boxes(ctx))
    strides = box_strides(dims)
    corners = [tuple(sorted(data.draw(st.integers(0, d - 1)) for _ in range(2))) for d in dims]
    lo = tuple(a for a, _ in corners)
    hi = tuple(b for _, b in corners)
    full = (tuple(0 for _ in dims), tuple(d - 1 for d in dims))
    for lo, hi in ((lo, hi), (lo, lo), (hi, hi), full):
        inside = [index for index, p in _box_points(dims)
                  if all(a <= pj <= b for a, pj, b in zip(lo, p, hi))]
        assert mask_points(box_mask(lo, hi, strides)) == inside


@given(small_modules())
@settings(max_examples=40, deadline=None)
def test_poset_cells_are_the_members_of_the_box(module):
    poset = build_poset(module, budget=BUDGET)
    g = degree_bound_g(module)
    members = [p for p in itertools.product(*(range(gj + 1) for gj in g))
               if module.contains(Monomial(module.context, p))]
    assert poset.cells == sorted(members, key=lambda c: (sum(c), c))
    strides = box_strides(tuple(gj + 1 for gj in g))
    assert mask_points(module_mask(module, tuple(gj + 1 for gj in g))) == [
        sum(a * s for a, s in zip(c, strides)) for c in sorted(members)
    ]


def _certified(module):
    res = sdepth_exact(module, budget=BUDGET)
    return partition_to_decomposition(build_poset(module, budget=BUDGET), res.witness)


@given(small_modules())
@settings(max_examples=25, deadline=None)
def test_verify_rejects_a_duplicated_space(module):
    dec = _certified(module)
    broken = StanleyDecomposition(dec.context, dec.spaces + dec.spaces[-1:])
    assert not verify_decomposition(broken, module)


@given(small_modules())
@settings(max_examples=25, deadline=None)
def test_verify_rejects_a_dropped_space(module):
    dec = _certified(module)
    broken = StanleyDecomposition(dec.context, dec.spaces[:-1])
    assert not verify_decomposition(broken, module)


@given(small_modules())
@settings(max_examples=25, deadline=None)
def test_verify_rejects_a_space_on_a_non_member(module):
    dec = _certified(module)
    ctx = module.context
    outside = [p for p in itertools.product(*(range(gj + 2) for gj in degree_bound_g(module)))
               if not module.contains(Monomial(ctx, p))]
    assume(outside)
    # a non-member with a coordinate at g_j + 1 stays one when pushed further
    g = degree_bound_g(module)
    beyond = [tuple(pj + 3 if pj > gj else pj for pj, gj in zip(p, g))
              for p in outside if any(map(operator.gt, p, g))]
    for p in [outside[0], outside[-1]] + beyond[:1]:
        broken = StanleyDecomposition(ctx, dec.spaces + ((p, frozenset()),))
        assert not verify_decomposition(broken, module)


@given(small_modules(), st.sampled_from(["witness", "dropped", "duplicated"]), st.data())
@settings(max_examples=60, deadline=None)
def test_interval_check_agrees_with_the_expanded_check(module, tamper, data):
    res = sdepth_exact(module, budget=BUDGET)
    intervals = res.witness.intervals
    if tamper != "witness":
        i = data.draw(st.integers(0, len(intervals) - 1))
        copies = 2 if tamper == "duplicated" else 0
        intervals = intervals[:i] + intervals[i:i + 1] * copies + intervals[i + 1:]
    partition = IntervalPartition(intervals)
    decomposition = partition_to_decomposition(build_poset(module, budget=BUDGET), partition)
    expected = verify_decomposition(decomposition, module) and decomposition.sdepth >= res.lo
    try:
        certify_witness(partition, module, res.lo, poset_box(module))
    except CertificateError:
        accepted = False
    else:
        accepted = True
    assert accepted == expected
    assert accepted == (tamper == "witness")


def _random_partition(cells, data):
    """An interval partition of the cells: from the graded-lex least
    uncovered cell c, a drawn top d with [c, d] inside the uncovered set."""
    def points(c, d):
        return set(itertools.product(*(range(cj, dj + 1) for cj, dj in zip(c, d))))

    uncovered = set(cells)
    out = []
    for c in cells:
        if c not in uncovered:
            continue
        above = [d for d in sorted(uncovered) if all(map(operator.le, c, d))]
        d = data.draw(st.sampled_from([d for d in above if points(c, d) <= uncovered]))
        uncovered -= points(c, d)
        out.append((c, d))
    return out


@given(small_modules(), st.sampled_from(["partition", "dropped", "duplicated", "random"]), st.data())
@settings(max_examples=80, deadline=None)
def test_truncation_lemma(module, kind, data):
    # intervals [c, d] of [0, g] cover the module's cells exactly on [0, g]
    # exactly when their sub-boxes [c, t], t_j = g_j + 1 where d_j = g_j
    # and d_j elsewhere, cover the module exactly on [0, g+1]
    g = degree_bound_g(module)
    if kind == "random":
        corner = st.tuples(*(st.integers(0, gj) for gj in g))
        pairs = data.draw(st.lists(st.tuples(corner, corner), max_size=8))
        intervals = [(tuple(map(min, a, b)), tuple(map(max, a, b))) for a, b in pairs]
    else:
        intervals = _random_partition(build_poset(module).cells, data)
        if kind != "partition":
            i = data.draw(st.integers(0, len(intervals) - 1))
            copies = 2 if kind == "duplicated" else 0
            intervals = intervals[:i] + intervals[i:i + 1] * copies + intervals[i + 1:]
    dims = poset_box(module)
    strides = box_strides(dims)
    on_g = cover_mismatches((box_mask(c, d, strides) for c, d in intervals), module_mask(module, dims))
    big = tuple(gj + 2 for gj in g)
    big_strides = box_strides(big)
    sub_boxes = (
        box_mask(c, tuple(gj + 1 if dj == gj else dj for dj, gj in zip(d, g)), big_strides)
        for c, d in intervals
    )
    on_big = cover_mismatches(sub_boxes, module_mask(module, big))
    assert (on_g == 0) == (on_big == 0)
    if kind == "partition":
        assert on_g == 0
