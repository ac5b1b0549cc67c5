import math
import random
import re
import sys

import pytest

import sdepth.poset as poset_module
from sdepth.core import Monomial, MonomialIdeal, QuotientModule, make_context
from sdepth.poset import (
    Budget,
    CertificateError,
    CharPoset,
    Decision,
    Interval,
    IntervalPartition,
    ResourceCapError,
    build_poset,
    degree_bound_g,
    mask_points,
    module_mask,
    partition_to_decomposition,
    poset_to_dot,
    sdepth_decision,
    sdepth_exact,
    verify_decomposition,
    StanleyDecomposition,
)

from sdepth.verifier import check_prop_2_5

from oracles import (
    brute_candidates,
    brute_sdepth,
    pointwise_hasse_edges,
    pointwise_maximal_cells,
)

X1 = make_context("x1")
X2 = make_context("x1", "x2")
X3 = make_context("x1", "x2", "x3")


def ideal(ctx, *gens):
    return MonomialIdeal.from_gens(ctx, [Monomial(ctx, g) for g in gens])


class TestDegreeBound:
    def test_ideal_with_zero_inner(self):
        m = QuotientModule.of_ideal(ideal(X2, (2, 0), (0, 1)))
        assert degree_bound_g(m) == (2, 1)

    def test_quotient_ring(self):
        m = QuotientModule.of_quotient_ring(ideal(X2, (1, 1)))
        assert degree_bound_g(m) == (1, 1)

    def test_benchmark6_box(self):
        ctx = make_context(*[f"x{i}" for i in range(1, 7)])
        i = ideal(
            ctx,
            (6, 0, 0, 0, 0, 0), (5, 1, 0, 0, 0, 0), (1, 5, 0, 0, 0, 0),
            (0, 6, 0, 0, 0, 0), (4, 4, 1, 0, 0, 0), (4, 4, 0, 1, 0, 0),
            (4, 0, 0, 0, 2, 3), (0, 4, 0, 0, 3, 2),
        )
        assert degree_bound_g(QuotientModule.of_quotient_ring(i)) == (6, 6, 1, 1, 3, 3)


class TestBuildPoset:
    def test_quotient_by_variable(self):
        p = build_poset(QuotientModule.of_quotient_ring(ideal(X1, (1,))))
        assert p.cells == [(0,)]

    def test_principal_ideal(self):
        p = build_poset(QuotientModule.of_ideal(ideal(X1, (1,))))
        assert p.cells == [(1,)]

    def test_square_free_quotient(self):
        p = build_poset(QuotientModule.of_quotient_ring(ideal(X2, (1, 1))))
        assert sorted(p.cells) == [(0, 0), (0, 1), (1, 0)]

    def test_cell_cap(self):
        i = ideal(X3, (3, 3, 3))
        with pytest.raises(ResourceCapError):
            build_poset(QuotientModule.of_quotient_ring(i), budget=Budget(cell_cap=10))

    def test_no_box_indices_give_an_empty_poset(self):
        p = CharPoset(X2, (2, 1), [])
        assert len(p) == 0
        assert p.cells == p.points == p.levels == []
        assert p.cell_at == p.rho_at == {}
        assert p.mask == 0
        assert p.maximal_cells() == []

    def test_maximal_cells_are_the_pointwise_maxima(self):
        rng = random.Random(29)
        for _ in range(40):
            p = build_poset(_random_module(rng))
            assert p.maximal_cells() == pointwise_maximal_cells(p)
            assert p.rho_at == {q: p.rho(c) for q, c in zip(p.points, p.cells)}
            strides = [math.prod(d + 1 for d in p.g[j + 1 :]) for j in range(p.arity)]
            assert p.points == [sum(cj * s for cj, s in zip(c, strides)) for c in p.cells]
            assert p.mask == sum(1 << q for q in p.points)


class TestCandidates:
    """The prefix-AND sweep lists the same tops as a pointwise walk."""

    @staticmethod
    def _orders(p, c):
        size = lambda d: math.prod(b - a + 1 for a, b in zip(c, d))
        greedy = lambda d: (-p.rho(d), -size(d), d)
        frugal = lambda d: (size(d), -p.rho(d), d)
        return [(False, greedy), (True, frugal)]

    def test_tops_match_brute_force(self):
        rng = random.Random(31)
        checked = 0
        for trial in range(60):
            mod = _random_module(rng)
            if trial % 3 == 0:
                mod = _with_free_axis(mod)  # an axis with g_j = 0
            p = build_poset(mod)
            cell = dict(zip(p.points, p.cells))
            for k in range(1, p.arity + 1):
                tops = _tops(p, k)
                for density in (0.0, 0.5, 0.9, 1.0):
                    chosen = [q for q in p.points if rng.random() < density]
                    uncovered = {cell[q] for q in chosen}
                    mask = sum(1 << q for q in chosen)
                    for q in p.points:
                        expected = brute_candidates(p, cell[q], uncovered, k)
                        for frugal, key in self._orders(p, cell[q]):
                            got = [cell[d] for d in poset_module._candidates(p, tops, q, mask, frugal)]
                            assert got == sorted(expected, key=key)
                            checked += bool(got)
        assert checked > 100

    def test_free_axes_and_empty_sets(self):
        mod = _with_free_axis(QuotientModule.of_ideal(ideal(X2, (1, 0), (0, 1))))
        p = build_poset(mod)
        assert p.g == (1, 1, 0)
        tops = _tops(p, 2)
        candidates = lambda q, uncovered: poset_module._candidates(p, tops, q, uncovered, False)
        cell = dict(zip(p.points, p.cells))
        assert all(candidates(q, 0) == [] for q in p.points)
        bottom = p.points[0]
        assert cell[bottom] == (0, 1, 0)
        assert [cell[d] for d in candidates(bottom, p.mask)] == [(1, 1, 0), (0, 1, 0)]


class TestGoldenSearch:
    """Value, node count and witness of fixed small modules, pinned so that
    any change to the search tree shows up here."""

    CASES = [
        ("ideal", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 2, "exact", 1, 33,
         [((2, 0, 0), (2, 0, 0)), ((1, 1, 0), (2, 1, 0)), ((1, 0, 1), (2, 0, 1)),
          ((0, 2, 0), (2, 2, 0)), ((0, 1, 1), (2, 2, 1)), ((0, 0, 2), (2, 2, 2))]),
        ("ideal", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 1, "exact", 2, 21,
         [((1, 1, 1, 0), (1, 1, 1, 0)), ((1, 0, 0, 0), (1, 0, 1, 0)),
          ((0, 1, 0, 0), (1, 1, 0, 0)), ((0, 0, 1, 0), (0, 1, 1, 0)),
          ((0, 0, 0, 1), (1, 1, 1, 1))]),
        ("ideal", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 2, "exact", 2, 20615,
         [((2, 0, 1, 1), (2, 0, 2, 2)), ((1, 2, 0, 1), (2, 2, 0, 2)),
          ((1, 1, 2, 0), (2, 2, 2, 0)), ((1, 1, 1, 1), (2, 2, 2, 1)),
          ((0, 1, 1, 2), (2, 2, 2, 2)), ((2, 0, 0, 0), (2, 0, 0, 2)),
          ((1, 1, 0, 0), (2, 2, 0, 0)), ((1, 0, 1, 0), (2, 0, 2, 0)),
          ((1, 0, 0, 1), (1, 0, 2, 2)), ((0, 2, 0, 0), (0, 2, 0, 2)),
          ((0, 1, 1, 0), (2, 2, 1, 0)), ((0, 1, 0, 1), (2, 1, 0, 2)),
          ((0, 0, 2, 0), (0, 2, 2, 0)), ((0, 0, 1, 1), (0, 2, 2, 1)),
          ((0, 0, 0, 2), (0, 0, 2, 2))]),
        ("ideal", [(2, 1, 0), (0, 2, 1), (1, 0, 2)], 1, "exact", 2, 12,
         [((2, 2, 2), (2, 2, 2)), ((2, 1, 0), (2, 2, 1)), ((1, 0, 2), (2, 1, 2)),
          ((0, 2, 1), (1, 2, 2))]),
        ("quotient", [(0, 1, 0, 2), (1, 0, 2, 0), (2, 0, 1, 1)], 1, "exact", 1, 7,
         [((1, 1, 1, 1), (1, 1, 1, 1)), ((1, 0, 1, 1), (1, 0, 1, 2)),
          ((1, 0, 0, 2), (2, 0, 0, 2)), ((1, 0, 1, 0), (2, 1, 1, 0)),
          ((0, 0, 0, 2), (0, 0, 2, 2)), ((1, 0, 0, 0), (2, 1, 0, 1)),
          ((0, 0, 0, 0), (0, 1, 2, 1))]),
        ("shell", [(0, 1, 0, 1), (1, 0, 1, 0)], 1, "exact", 2, 8,
         [((2, 1, 1, 0), (2, 2, 1, 0)), ((1, 2, 0, 1), (2, 2, 0, 1)),
          ((2, 0, 1, 0), (2, 0, 1, 2)), ((1, 1, 1, 0), (1, 2, 2, 0)),
          ((1, 1, 0, 1), (2, 1, 0, 2)), ((0, 2, 0, 1), (0, 2, 2, 1)),
          ((1, 0, 1, 0), (1, 0, 2, 2)), ((0, 1, 0, 1), (0, 1, 2, 2))]),
        ("shell", [(1, 1, 0), (0, 1, 1)], 2, "exact", 1, 6,
         [((3, 2, 0), (3, 2, 0)), ((1, 3, 1), (1, 3, 1)), ((0, 3, 2), (0, 3, 2)),
          ((2, 2, 0), (2, 3, 0)), ((1, 2, 1), (3, 2, 1)), ((0, 2, 2), (3, 2, 3))]),
        ("shell", [(2, 0, 0, 1), (1, 0, 1, 2), (1, 0, 2, 1)], 1, "exact", 1, 8,
         [((2, 0, 3, 2), (2, 0, 3, 2)), ((3, 0, 1, 2), (3, 0, 1, 2)),
          ((2, 0, 2, 2), (2, 0, 2, 3)), ((3, 0, 0, 2), (3, 0, 0, 4)),
          ((2, 0, 0, 2), (2, 0, 1, 4)), ((1, 0, 2, 1), (1, 0, 4, 1)),
          ((1, 0, 1, 2), (1, 0, 4, 4)), ((2, 0, 0, 1), (4, 0, 4, 1))]),
    ]

    NAMES = ["m3^2", "m4", "m4^2", "cyclic", "quotient", "shell", "shell_L^2", "shell_free_axis"]

    @pytest.mark.parametrize("case", CASES, ids=NAMES)
    def test_pinned(self, case):
        kind, gens, power, status, value, nodes, witness = case
        ctx = make_context(*[f"x{i}" for i in range(1, len(gens[0]) + 1)])
        base = ideal(ctx, *gens)
        L = base.power(power)
        mod = {
            "ideal": QuotientModule.of_ideal(L),
            "quotient": QuotientModule.of_quotient_ring(L),
            "shell": QuotientModule(L, L.multiply(base)),
        }[kind]
        res = sdepth_exact(mod)
        assert (res.status, res.value, res.nodes) == (status, value, nodes)
        assert [(iv.lo, iv.hi) for iv in res.witness.intervals] == witness

    FRUGAL_M4_SQUARED = [
        ((2, 2, 2, 2), (2, 2, 2, 2)), ((2, 2, 2, 1), (2, 2, 2, 1)), ((2, 2, 1, 2), (2, 2, 1, 2)),
        ((2, 1, 2, 2), (2, 1, 2, 2)), ((1, 2, 2, 2), (1, 2, 2, 2)), ((2, 2, 2, 0), (2, 2, 2, 0)),
        ((2, 2, 1, 1), (2, 2, 1, 1)), ((2, 2, 0, 2), (2, 2, 0, 2)), ((2, 1, 2, 1), (2, 1, 2, 1)),
        ((2, 0, 2, 2), (2, 0, 2, 2)), ((1, 2, 2, 1), (1, 2, 2, 1)), ((0, 2, 2, 2), (0, 2, 2, 2)),
        ((2, 2, 0, 1), (2, 2, 0, 1)), ((2, 1, 2, 0), (2, 1, 2, 0)), ((2, 1, 1, 1), (2, 1, 1, 2)),
        ((2, 0, 2, 1), (2, 0, 2, 1)), ((1, 2, 1, 1), (1, 2, 1, 2)), ((0, 2, 1, 2), (0, 2, 1, 2)),
        ((2, 0, 1, 1), (2, 0, 1, 2)), ((1, 2, 0, 1), (1, 2, 0, 2)), ((1, 1, 2, 0), (1, 2, 2, 0)),
        ((1, 1, 1, 1), (1, 1, 2, 2)), ((0, 1, 1, 2), (0, 1, 2, 2)), ((2, 0, 0, 0), (2, 0, 2, 0)),
        ((1, 1, 0, 0), (2, 1, 0, 2)), ((1, 0, 1, 0), (1, 0, 2, 2)), ((1, 0, 0, 1), (2, 0, 0, 2)),
        ((0, 2, 0, 0), (2, 2, 0, 0)), ((0, 1, 1, 0), (2, 2, 1, 0)), ((0, 1, 0, 1), (0, 2, 0, 2)),
        ((0, 0, 2, 0), (0, 2, 2, 0)), ((0, 0, 1, 1), (0, 2, 2, 1)), ((0, 0, 0, 2), (0, 0, 2, 2)),
    ]

    def test_frugal_phase(self):
        # the walk above decides m4^2 in the greedy phase; the frugal phase
        # alone, with no deadline, refutes k=3 and finds a k=2 partition
        ctx = make_context("x1", "x2", "x3", "x4")
        maximal4 = MonomialIdeal.from_gens(ctx, [ctx.variable(j) for j in range(4)])
        p = build_poset(QuotientModule.of_ideal(maximal4.power(2)))
        runs = []
        for k in (3, 2):
            runs.append(poset_module._search_phase(p, _tops(p, k), set(), True, math.inf, 0))
        assert [(status, nodes) for status, _, nodes in runs] == [("false", 37), ("true", 35)]
        witness = [(p.cell_at[c], p.cell_at[d]) for c, d in runs[1][1]]
        assert witness == self.FRUGAL_M4_SQUARED


class TestDecision:
    def test_square_free_two_vars(self):
        p = build_poset(QuotientModule.of_quotient_ring(ideal(X2, (1, 1))))
        d = sdepth_decision(p, 1)
        assert d.status == "true"
        assert min(p.rho(iv.hi) for iv in d.partition.intervals) >= 1
        assert sdepth_decision(p, 2).status == "false"

    def test_k_zero_always_true(self):
        p = build_poset(QuotientModule.of_ideal(ideal(X2, (1, 1))))
        assert sdepth_decision(p, 0).status == "true"

    @pytest.mark.parametrize("n", [2, 3])
    def test_quotient_by_maximal_is_zero(self, n):
        ctx = make_context(*[f"x{i}" for i in range(n)])
        m = MonomialIdeal.from_gens(ctx, [ctx.variable(j) for j in range(n)])
        p = build_poset(QuotientModule.of_quotient_ring(m))
        assert sdepth_decision(p, 1).status == "false"

    def test_monotone_in_k(self):
        rng = random.Random(3)
        for _ in range(10):
            mod = _random_module(rng)
            p = build_poset(mod)
            statuses = [sdepth_decision(p, k).status for k in range(p.arity + 1)]
            assert "true" not in statuses[statuses.index("false"):] if "false" in statuses else True

    def test_no_recursion_limit_needed(self, monkeypatch):
        # the search keeps its open nodes on an explicit stack
        def refuse(limit):
            raise AssertionError("the search must not change the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        mod = QuotientModule.of_ideal(ideal(X3, (2, 1, 0), (0, 2, 1), (1, 0, 2)))
        p = build_poset(mod)
        assert sdepth_decision(p, 2).status == "true"
        assert sdepth_decision(p, 3).status == "false"
        assert sdepth_exact(mod).value == 2

    def test_budget_gives_unknown(self):
        ctx = make_context(*[f"x{i}" for i in range(5)])
        gens = [(2, 1, 0, 1, 0), (0, 2, 1, 0, 1), (1, 0, 2, 1, 0), (0, 1, 0, 2, 2)]
        i = MonomialIdeal.from_gens(ctx, [Monomial(ctx, g) for g in gens])
        p = build_poset(QuotientModule.of_quotient_ring(i))
        d = sdepth_decision(p, 3, Budget(time_limit=1e-4))
        assert d.status in ("unknown", "true", "false")  # never raises


class TestSdepthExact:
    def test_known_values(self):
        assert sdepth_exact(QuotientModule.of_quotient_ring(ideal(X2, (1, 1)))).value == 1
        maximal3 = MonomialIdeal.from_gens(X3, [X3.variable(j) for j in range(3)])
        assert sdepth_exact(QuotientModule.of_ideal(maximal3)).value == 2
        assert sdepth_exact(QuotientModule.of_quotient_ring(maximal3)).value == 0

    def test_free_module_full_depth(self):
        for ctx in (X1, X2, X3):
            m = QuotientModule.of_ideal(MonomialIdeal.unit(ctx))
            assert sdepth_exact(m).value == ctx.arity

    def test_zero_module_rejected(self):
        i = ideal(X2, (1, 1))
        with pytest.raises(ValueError):
            sdepth_exact(QuotientModule(i, i))

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(30):
            mod = _random_module(rng)
            p = build_poset(mod)
            assert sdepth_exact(mod).value == brute_sdepth(p)

    def test_g_independence(self):
        # Herzog-Vladoiu-Zheng: any box [0, g] with g dominating the
        # generator exponents gives the same value
        rng = random.Random(13)
        for _ in range(10):
            mod = _random_module(rng, max_vars=2)
            bigger = tuple(gj + 1 for gj in degree_bound_g(mod))
            dims = tuple(gj + 1 for gj in bigger)
            p = CharPoset(mod.context, bigger, mask_points(module_mask(mod, dims)))
            assert sdepth_exact(mod).value == brute_sdepth(p)


class TestCertificates:
    def test_interval_expansion_example(self):
        mod = QuotientModule.of_quotient_ring(ideal(X2, (1, 1)))
        res = sdepth_exact(mod)
        dec = partition_to_decomposition(build_poset(mod), res.witness)
        assert verify_decomposition(dec, mod)
        assert dec.sdepth == 1

    def test_full_ring_decomposition(self):
        mod = QuotientModule.of_ideal(MonomialIdeal.unit(X2))
        dec = StanleyDecomposition(X2, (((0, 0), frozenset({0, 1})),))
        assert verify_decomposition(dec, mod)

    def test_missing_direction_fails(self):
        mod = QuotientModule.of_ideal(MonomialIdeal.unit(X2))
        dec = StanleyDecomposition(X2, (((0, 0), frozenset({0})),))
        assert not verify_decomposition(dec, mod)

    def test_a_space_beyond_the_box_of_g_is_checked(self):
        # x K[x] and x^5 K both hold x^5
        x = make_context("x")
        dec = StanleyDecomposition(x, (((1,), frozenset({0})), ((5,), frozenset())))
        assert not verify_decomposition(dec, QuotientModule.of_ideal(ideal(x, (1,))))

    def test_a_space_on_a_far_non_member_is_checked(self):
        # x^7 is not in K[x, y]/(x)
        dec = StanleyDecomposition(X2, (((0, 0), frozenset({1})), ((7, 0), frozenset({1}))))
        assert not verify_decomposition(dec, QuotientModule.of_quotient_ring(ideal(X2, (1, 0))))

    def test_a_space_past_the_box_of_g_does_not_alias(self):
        # on [0, g+1] = [0, 3] x [0, 2], y^3 would take the index of x
        mod = QuotientModule.of_quotient_ring(ideal(X2, (2, 0), (0, 1)))
        dec = StanleyDecomposition(X2, (((0, 0), frozenset()), ((0, 3), frozenset())))
        assert not verify_decomposition(dec, mod)

    def test_a_free_index_must_name_a_variable(self):
        dec = StanleyDecomposition(X1, (((0,), frozenset({0, 7})),))
        assert dec.sdepth == 2
        assert not verify_decomposition(dec, QuotientModule.of_ideal(MonomialIdeal.unit(X1)))
        negative = StanleyDecomposition(X1, (((0,), frozenset({0, -1})),))
        assert not verify_decomposition(negative, QuotientModule.of_ideal(MonomialIdeal.unit(X1)))

    @pytest.mark.parametrize("corner", [(0,), (0, 0, 0), (0, -1), (0, 1.0), (0, "1"), (0, True)])
    def test_a_corner_must_be_arity_non_negative_ints(self, corner):
        # x K[x, y] + K[y] is a decomposition of K[x, y]; the second corner
        # is replaced by one of the wrong length, sign or type
        mod = QuotientModule.of_ideal(MonomialIdeal.unit(X2))
        good = StanleyDecomposition(X2, (((1, 0), frozenset({0, 1})), ((0, 0), frozenset({1}))))
        assert verify_decomposition(good, mod)
        bad = StanleyDecomposition(X2, (((1, 0), frozenset({0, 1})), (corner, frozenset({1}))))
        assert not verify_decomposition(bad, mod)

    def test_a_far_corner_counts_against_the_cap(self):
        # [0, g+1] has 9 points; the corner (0, 9) stretches [0, G+1] to 33
        mod = QuotientModule.of_quotient_ring(ideal(X2, (1, 1)))
        res = sdepth_exact(mod, budget=Budget(cell_cap=9))
        dec = partition_to_decomposition(build_poset(mod), res.witness)
        assert verify_decomposition(dec, mod, budget=Budget(cell_cap=9))
        far = StanleyDecomposition(X2, dec.spaces + (((0, 9), frozenset()),))
        assert not verify_decomposition(far, mod, budget=Budget(cell_cap=33))
        with pytest.raises(ResourceCapError):
            verify_decomposition(far, mod, budget=Budget(cell_cap=32))

    def test_witnesses_always_verify(self):
        rng = random.Random(17)
        for _ in range(20):
            mod = _random_module(rng)
            p = build_poset(mod)
            res = sdepth_exact(mod)
            dec = partition_to_decomposition(p, res.witness)
            assert verify_decomposition(dec, mod)
            assert dec.sdepth >= res.value


class TestRuntimeCertificate:
    """sdepth_exact re-checks every witness it returns."""

    @staticmethod
    def _break_witnesses(monkeypatch, unknown_at_top: bool = False):
        """Make every 'true' decision drop its last interval; optionally
        answer 'unknown' at the first k tried."""
        real = poset_module.sdepth_decision
        tried: list[int] = []

        def broken(poset, k, budget=poset_module.DEFAULT_BUDGET):
            tried.append(k)
            if unknown_at_top and len(tried) == 1:
                return Decision("unknown", None, 0, 0.0)
            decision = real(poset, k, budget)
            if decision.status != "true":
                return decision
            part = decision.partition
            return Decision("true", IntervalPartition(part.intervals[:-1]),
                            decision.nodes, decision.elapsed)

        monkeypatch.setattr(poset_module, "sdepth_decision", broken)

    def test_broken_exact_witness_raises(self, monkeypatch):
        self._break_witnesses(monkeypatch)
        with pytest.raises(CertificateError, match="exact-cover check"):
            sdepth_exact(QuotientModule.of_quotient_ring(ideal(X2, (1, 1))))

    def test_a_witness_below_the_value_raises(self, monkeypatch):
        # the singletons cover (x1, x2, x3) exactly, but their Stanley depth
        # is 1 and the value claimed is 3
        def singletons(poset, k, budget=poset_module.DEFAULT_BUDGET):
            intervals = tuple(Interval(c, c) for c in poset.cells)
            return Decision("true", IntervalPartition(intervals), 0, 0.0)

        monkeypatch.setattr(poset_module, "sdepth_decision", singletons)
        maximal3 = MonomialIdeal.from_gens(X3, [X3.variable(j) for j in range(3)])
        with pytest.raises(CertificateError, match="depth check: its Stanley depth is 1"):
            sdepth_exact(QuotientModule.of_ideal(maximal3))

    def test_broken_lower_bound_witness_raises(self, monkeypatch):
        self._break_witnesses(monkeypatch, unknown_at_top=True)
        maximal3 = MonomialIdeal.from_gens(X3, [X3.variable(j) for j in range(3)])
        with pytest.raises(CertificateError):
            sdepth_exact(QuotientModule.of_ideal(maximal3))

    def test_verifier_does_not_turn_it_into_unknown(self, monkeypatch):
        self._break_witnesses(monkeypatch)
        with pytest.raises(CertificateError):
            check_prop_2_5(ideal(X2, (1, 0), (0, 2)), 1)

    def test_a_cache_hit_is_checked_again(self, monkeypatch):
        # K[x1, x2]/(x1^2, x2^3) and K[x1, x2]/(x1^3, x2^2) compress alike
        first = QuotientModule.of_quotient_ring(ideal(X2, (2, 0), (0, 3)))
        second = QuotientModule.of_quotient_ring(ideal(X2, (3, 0), (0, 2)))
        assert sdepth_exact(first).reduction == "exponent-compression"
        real_verify, real_pull_back = poset_module.verify_decomposition, poset_module.pull_back
        checked = []

        def recording(decomposition, module, budget=poset_module.DEFAULT_BUDGET):
            checked.append(module)
            return real_verify(decomposition, module, budget)

        def no_search(*args):
            raise AssertionError("a cache hit searched again")

        monkeypatch.setattr(poset_module, "verify_decomposition", recording)
        monkeypatch.setattr(poset_module, "build_poset", no_search)
        res = sdepth_exact(second)
        assert (res.value, res.witness.intervals) == (0, (Interval((0, 0), (2, 1)),))
        assert checked == [second]
        # a cached witness that no longer covers the module is still caught
        monkeypatch.setattr(poset_module, "pull_back", lambda partition, levels: IntervalPartition(
            real_pull_back(partition, levels).intervals[:-1]))
        with pytest.raises(CertificateError):
            sdepth_exact(second)

    def test_certifying_box_counts_against_the_cap(self):
        # [0, g] has 4 points, the certifying box [0, g+1] has 9
        mod = QuotientModule.of_quotient_ring(ideal(X2, (1, 1)))
        assert sdepth_exact(mod, budget=Budget(cell_cap=9)).value == 1
        with pytest.raises(ResourceCapError):
            sdepth_exact(mod, budget=Budget(cell_cap=8))


def _dot_edges(dot: str) -> set:
    point = lambda node: tuple(int(x) for x in node.split("_")[1:])
    return {(point(a), point(b)) for a, b in re.findall(r"(c_[\d_]+) -> (c_[\d_]+);", dot)}


class TestDotExport:
    def test_poset_dot_renders(self):
        mod = QuotientModule.of_quotient_ring(ideal(X2, (1, 1)))
        p = build_poset(mod)
        res = sdepth_exact(mod)
        dot = poset_to_dot(p, res.witness)
        assert dot.startswith("digraph")
        assert dot.count("->") == 2  # two covers below (0,0)

    def test_edges_are_the_pairwise_covers(self):
        rng = random.Random(23)
        for _ in range(25):
            p = build_poset(_random_module(rng))
            dot = poset_to_dot(p)
            unit_steps = sum(
                1
                for a in p.cells
                for b in p.cells
                if sum(y - x for x, y in zip(a, b)) == 1 and all(x <= y for x, y in zip(a, b))
            )
            assert dot.count("->") == unit_steps == len(pointwise_hasse_edges(p))
            assert _dot_edges(dot) == pointwise_hasse_edges(p)


def _tops(p: CharPoset, k: int) -> int:
    """Mask of the cells with rho >= k, the candidate tops of a decision."""
    return sum(1 << q for q, c in zip(p.points, p.cells) if p.rho(c) >= k)


def _random_module(rng: random.Random, max_vars: int = 3) -> QuotientModule:
    """Small random I/J with a nonempty poset and modest box volume."""
    while True:
        n = rng.randint(1, max_vars)
        ctx = make_context(*[f"x{i}" for i in range(n)])
        gens = []
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(n))
            if any(exps):
                gens.append(Monomial(ctx, exps))
        if not gens:
            continue
        outer = MonomialIdeal.from_gens(ctx, gens)
        style = rng.randint(0, 2)
        if style == 0:
            mod = QuotientModule.of_ideal(outer)
        elif style == 1:
            mod = QuotientModule.of_quotient_ring(outer)
        else:
            extra = Monomial(ctx, tuple(rng.randint(0, 1) for _ in range(n)))
            mod = QuotientModule(outer, outer.multiply(MonomialIdeal.from_gens(ctx, [extra])))
        g = degree_bound_g(mod)
        volume = 1
        for gj in g:
            volume *= gj + 1
        if volume > 200:
            continue
        if mod.is_zero:
            continue
        try:
            p = build_poset(mod)
        except ResourceCapError:
            continue
        if len(p) == 0:
            continue
        return mod


def _with_free_axis(mod: QuotientModule) -> QuotientModule:
    """The same module with one more variable that no generator uses, so
    that the box has an axis with g_j = 0."""
    ctx = make_context(*mod.context.variables, "z")

    def lift(i: MonomialIdeal) -> MonomialIdeal:
        return MonomialIdeal.from_gens(ctx, [Monomial(ctx, m.exponents + (0,)) for m in i.gens])

    return QuotientModule(lift(mod.outer), lift(mod.inner))
