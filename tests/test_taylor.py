import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import sdepth.taylor as taylor
from oracles import betti_totals, fraction_rank, monomial_colon_maximal, taylor_betti
from sdepth.core import (
    LATTICE_CAP,
    LatticeCapError,
    Monomial,
    MonomialIdeal,
    make_context,
    tensor_join,
)
from sdepth.taylor import (
    depth_ideal,
    depth_quotient,
    has_socle,
    rational_rank,
    taylor_tor_ranks,
)


def ideal(ctx, *gens):
    return MonomialIdeal.from_gens(ctx, [Monomial(ctx, g) for g in gens])


class TestRationalRank:
    def test_small_cases(self):
        assert rational_rank([]) == 0
        assert rational_rank([[0, 0], [0, 0]]) == 0
        assert rational_rank([[1, 2], [2, 4]]) == 1
        assert rational_rank([[1, 0, 1], [0, 1, 1], [1, 1, 2]]) == 2

    def test_exactness_vs_float_trap(self):
        # a matrix whose float elimination loses the rank
        rows = [[10**15, 1], [10**15, 2]]
        assert rational_rank(rows) == 2


# mostly small and sparse, with the occasional entry up to 10^15
ENTRIES = st.one_of(
    st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3, 6]),
    st.integers(-(10**15), 10**15),
)


@st.composite
def int_matrices(draw):
    """Rectangular integer matrices with zero rows and columns, and rows
    repeated or scaled from earlier rows."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=2))
    rows = [[0 if c in zero_cols else a for c, a in enumerate(row)] for row in rows]
    if rows:
        copies = draw(st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(-3, 3)), max_size=3))
        rows += [[k * a for a in rows[i]] for i, k in copies]
    return draw(st.permutations(rows)) if rows else rows


class TestRationalRankOracle:
    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    def test_matches_fraction_elimination(self, rows):
        assert rational_rank(rows) == fraction_rank(rows)

    def test_non_unit_pivots(self):
        assert rational_rank([[2, 3], [4, 7]]) == 2
        assert rational_rank([[2, 4], [3, 6]]) == 1
        assert rational_rank([[6, 10, 15], [10, 15, 6], [15, 6, 10], [31, 31, 31]]) == 3
        assert rational_rank([[0, 4, 6], [0, 6, 9], [5, 0, 0]]) == 2

    def test_low_rank_products(self):
        # B (m x r) times C (r x n) has rank at most r: rank-deficient
        # matrices with no visible dependency
        rng = random.Random(41)
        for _ in range(40):
            m, n, r = rng.randint(1, 30), rng.randint(1, 30), rng.randint(1, 8)
            pick = lambda: rng.choice([0, 0, 0, 1, -1, 2, -3, 10**12])
            b = [[pick() for _ in range(r)] for _ in range(m)]
            c = [[pick() for _ in range(n)] for _ in range(r)]
            rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] for row in b]
            assert rational_rank(rows) == fraction_rank(rows)


def rp2_ideal():
    """Stanley-Reisner ideal of the 6-vertex real projective plane: the ten
    triangles of K_6 that are not facets."""
    facets = {(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
              (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)}
    ctx = make_context(*[f"x{i}" for i in range(1, 7)])
    return ideal(ctx, *(
        tuple(int(j in tri) for j in range(6))
        for tri in itertools.combinations(range(6), 3)
        if tri not in facets
    ))


@st.composite
def small_ideals(draw, max_gens=9, max_vars=6):
    """Nonzero proper ideals on at most max_gens generators."""
    n = draw(st.integers(1, max_vars))
    top = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, top)] * n).filter(any)
    gens = draw(st.lists(exps, min_size=1, max_size=max_gens))
    return ideal(make_context(*[f"x{i}" for i in range(n)]), *gens)


def squarefree_ideal(n, supports):
    ctx = make_context(*[f"x{i}" for i in range(n)])
    return ideal(ctx, *(tuple(int(j in s) for j in range(n)) for s in supports))


class TestTaylorRanks:
    @settings(max_examples=150, deadline=None)
    @given(small_ideals())
    def test_matches_taylor_complex(self, i):
        assert taylor_tor_ranks(i).entries == taylor_betti(i)

    def test_squarefree_veronese_at_the_cap(self):
        # all 20 squarefree cubics in 6 variables: a linear resolution with
        # beta_i(S/I) = C(n, d+i-1) C(d+i-2, d-1) (Eagon-Reiner)
        n, d = 6, 3
        veronese = squarefree_ideal(n, itertools.combinations(range(n), d))
        assert len(veronese.exps) == LATTICE_CAP
        totals = betti_totals(taylor_tor_ranks(veronese))
        assert totals == [1] + [math.comb(n, d + i - 1) * math.comb(d + i - 2, d - 1) for i in range(1, n - d + 2)]
        assert totals == [1, 20, 45, 36, 10]
        report = depth_quotient(veronese)
        assert (report.depth_quotient, report.pd, report.method) == (2, 4, "taylor")

    def test_edge_ideal_of_k7_minus_an_edge_at_the_cap(self):
        # the complement graph (one edge) is chordal, so the resolution is
        # linear (Froberg) and beta_{i,W}(S/I) = c(complement on W) - 1 for
        # |W| = i + 1, zero in every other multidegree; the complement on W
        # has |W| components, one fewer when W holds the missing edge.
        # K^m has 7 vertices and its nerve 20, so this needs the
        # fewer-vertices rule
        n, missing = 7, (0, 1)
        edges = [e for e in itertools.combinations(range(n), 2) if e != missing]
        g = squarefree_ideal(n, edges)
        assert len(g.exps) == LATTICE_CAP
        expected = {(0, (0,) * n): 1}
        for size in range(2, n + 1):
            for w in itertools.combinations(range(n), size):
                betti = size - (set(missing) <= set(w)) - 1
                if betti:
                    expected[(size - 1, tuple(int(j in w) for j in range(n)))] = betti
        table = taylor_tor_ranks(g)
        assert table.entries == expected
        assert betti_totals(table) == [1, 20, 65, 95, 74, 30, 5]
        report = depth_quotient(g)
        assert (report.depth_quotient, report.pd, report.method) == (1, 6, "taylor")

    def test_tables_match_fraction_rank_build(self, monkeypatch):
        # equal-degree generators are all minimal; squares of the small ones
        # give boundary matrices up to 10 x 10
        rng = random.Random(43)
        ideals = []
        for _ in range(60):
            n, d = rng.randint(2, 5), rng.randint(2, 3)
            ctx = make_context(*[f"x{i}" for i in range(n)])
            degree_d = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
            gens = rng.sample(degree_d, min(len(degree_d), rng.randint(2, 9)))
            i = ideal(ctx, *gens)
            ideals.append(i.power(2) if len(gens) <= 4 else i)
        tables = [taylor_tor_ranks(i).entries for i in ideals]
        monkeypatch.setattr(taylor, "rational_rank", fraction_rank)
        assert tables == [taylor_tor_ranks(i).entries for i in ideals]

    def test_rp2_over_q(self):
        rp2 = rp2_ideal()
        assert len(rp2.gens) == 10
        report = depth_quotient(rp2)
        assert (report.depth_quotient, report.pd, report.method) == (3, 3, "taylor")
        assert betti_totals(taylor_tor_ranks(rp2)) == [1, 10, 15, 6]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_koszul_binomials(self, n):
        ctx = make_context(*[f"x{i}" for i in range(n)])
        m = MonomialIdeal.from_gens(ctx, [ctx.variable(j) for j in range(n)])
        table = taylor_tor_ranks(m)
        assert betti_totals(table) == [math.comb(n, i) for i in range(n + 1)]

    def test_principal_ideal(self):
        table = taylor_tor_ranks(ideal(make_context("x1", "x2"), (1, 1)))
        assert table.pd == 1
        assert betti_totals(table) == [1, 1]

    def test_triangle(self):
        ctx = make_context("x1", "x2", "x3")
        tri = ideal(ctx, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        table = taylor_tor_ranks(tri)
        assert table.pd == 2
        assert betti_totals(table) == [1, 3, 2]

    def test_basic_invariants(self):
        rng = random.Random(5)
        for _ in range(15):
            n = rng.randint(1, 3)
            ctx = make_context(*[f"x{i}" for i in range(n)])
            gens = [
                Monomial(ctx, tuple(rng.randint(0, 2) for _ in range(n)))
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if not g.is_unit]
            if not gens:
                continue
            i = MonomialIdeal.from_gens(ctx, gens)
            table = taylor_tor_ranks(i)
            assert betti_totals(table)[:2] == [1, len(i.gens)]

    def test_cap(self):
        # (x0, x1, x2)^5 has 21 generators, one more than the lattice cap
        ctx = make_context(*[f"x{i}" for i in range(3)])
        m = MonomialIdeal.from_gens(ctx, [ctx.variable(j) for j in range(3)])
        with pytest.raises(LatticeCapError):
            taylor_tor_ranks(m.power(5))


class TestDepth:
    def test_maximal_ideal_depth_zero(self):
        for n in (1, 2, 4):
            ctx = make_context(*[f"x{i}" for i in range(n)])
            m = MonomialIdeal.from_gens(ctx, [ctx.variable(j) for j in range(n)])
            assert depth_quotient(m).depth_quotient == 0

    def test_socle_shortcut_detects_depth_zero(self):
        ctx = make_context(*[f"x{i}" for i in range(1, 7)])
        i = ideal(
            ctx,
            (6, 0, 0, 0, 0, 0), (5, 1, 0, 0, 0, 0), (1, 5, 0, 0, 0, 0),
            (0, 6, 0, 0, 0, 0), (4, 4, 1, 0, 0, 0), (4, 4, 0, 1, 0, 0),
            (4, 0, 0, 0, 2, 3), (0, 4, 0, 0, 3, 2),
        )
        report = depth_quotient(i)
        assert report.depth_quotient == 0
        assert report.method == "socle-shortcut"

    @settings(max_examples=200, deadline=None)
    @given(small_ideals(max_gens=12))
    def test_socle_test_matches_colon(self, i):
        assert has_socle(i) == (monomial_colon_maximal(i) != i.exps)

    @pytest.mark.parametrize("n, gens, k, socle", [
        (2, [(1, 0), (0, 1)], 30, True),
        (3, [(1, 0, 0), (0, 1, 0)], 20, False),  # x3 is a nonzerodivisor
        (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 5, True),
        (3, [(2, 1, 0), (0, 1, 1), (1, 0, 2)], 6, True),
        (4, [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)], 6, False),
        (4, [(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1)], 5, False),
    ])
    def test_socle_test_above_the_taylor_cap(self, n, gens, k, socle):
        i = ideal(make_context(*[f"x{j}" for j in range(n)]), *gens).power(k)
        assert len(i.exps) > LATTICE_CAP
        assert has_socle(i) == socle == (monomial_colon_maximal(i) != i.exps)
        if socle:
            assert depth_quotient(i) == taylor.DepthReport(0, n, "socle-shortcut")
        elif not all(map(any, zip(*i.exps))):
            # x3 is unused, and (x1, x2)^20 in K[x1, x2] is Artinian: the
            # narrowed shape has pd 2 by its socle, below the lattice cap
            assert depth_quotient(i) == taylor.DepthReport(1, 2, "taylor")
        else:
            with pytest.raises(LatticeCapError):
                depth_quotient(i)

    def test_shortcut_agrees_with_taylor(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 3)
            ctx = make_context(*[f"x{i}" for i in range(n)])
            gens = [
                Monomial(ctx, tuple(rng.randint(0, 2) for _ in range(n)))
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if not g.is_unit]
            if not gens:
                continue
            i = MonomialIdeal.from_gens(ctx, gens)
            fast = depth_quotient(i)
            assert fast.depth_quotient == n - taylor_tor_ranks(i).pd

    def test_auslander_buchsbaum(self):
        rng = random.Random(29)
        for _ in range(15):
            n = rng.randint(1, 4)
            ctx = make_context(*[f"x{i}" for i in range(n)])
            gens = [
                Monomial(ctx, tuple(rng.randint(0, 2) for _ in range(n)))
                for _ in range(rng.randint(1, 3))
            ]
            gens = [g for g in gens if not g.is_unit]
            if not gens:
                continue
            i = MonomialIdeal.from_gens(ctx, gens)
            report = depth_quotient(i)
            assert report.depth_quotient + taylor_tor_ranks(i).pd == n

    def test_ci_powers_depth(self):
        # depth(B/J^n) = s - t for complete intersections
        ctx = make_context(*[f"y{i}" for i in range(1, 6)])
        j = ideal(ctx, (1, 1, 0, 0, 0), (0, 0, 2, 0, 0))
        for n in (1, 2, 3):
            assert depth_quotient(j.power(n)).depth_quotient == 5 - 2

    def test_joint_depth_formula(self):
        # depth(R/IJ) = depth(A/I) + depth(B/J) + 1 across disjoint blocks
        rng = random.Random(31)
        for _ in range(10):
            na, nb = rng.randint(1, 3), rng.randint(1, 3)
            ca = make_context(*[f"x{i}" for i in range(na)])
            cb = make_context(*[f"y{i}" for i in range(nb)])
            ga = [Monomial(ca, tuple(rng.randint(0, 2) for _ in range(na))) for _ in range(rng.randint(1, 3))]
            gb = [Monomial(cb, tuple(rng.randint(0, 2) for _ in range(nb))) for _ in range(rng.randint(1, 3))]
            ga = [g for g in ga if not g.is_unit]
            gb = [g for g in gb if not g.is_unit]
            if not ga or not gb:
                continue
            ia = MonomialIdeal.from_gens(ca, ga)
            ib = MonomialIdeal.from_gens(cb, gb)
            _, ea, eb = tensor_join(ia, ib)
            lhs = depth_quotient(ea.multiply(eb)).depth_quotient
            assert lhs == depth_quotient(ia).depth_quotient + depth_quotient(ib).depth_quotient + 1

    def test_tensor_additivity_of_sum(self):
        # depth(R/(I+J)) = depth(A/I) + depth(B/J)
        rng = random.Random(37)
        for _ in range(10):
            na, nb = rng.randint(1, 3), rng.randint(1, 3)
            ca = make_context(*[f"x{i}" for i in range(na)])
            cb = make_context(*[f"y{i}" for i in range(nb)])
            ga = [Monomial(ca, tuple(rng.randint(0, 2) for _ in range(na))) for _ in range(rng.randint(1, 3))]
            gb = [Monomial(cb, tuple(rng.randint(0, 2) for _ in range(nb))) for _ in range(rng.randint(1, 3))]
            ga = [g for g in ga if not g.is_unit]
            gb = [g for g in gb if not g.is_unit]
            if not ga or not gb:
                continue
            ia = MonomialIdeal.from_gens(ca, ga)
            ib = MonomialIdeal.from_gens(cb, gb)
            _, ea, eb = tensor_join(ia, ib)
            lhs = depth_quotient(ea.add(eb)).depth_quotient
            assert lhs == depth_quotient(ia).depth_quotient + depth_quotient(ib).depth_quotient

    def test_depth_ideal(self):
        ctx = make_context("x1", "x2")
        m = MonomialIdeal.from_gens(ctx, [ctx.variable(0), ctx.variable(1)])
        assert depth_ideal(m, depth_quotient(m).depth_quotient) == 1
        with pytest.raises(ValueError):
            depth_ideal(MonomialIdeal.zero(ctx), 2)

    def test_zero_and_unit(self):
        ctx = make_context("x1", "x2")
        assert depth_quotient(MonomialIdeal.zero(ctx)) == taylor.DepthReport(2, 0, "taylor")
        with pytest.raises(ValueError):
            depth_quotient(MonomialIdeal.unit(ctx))
        # neither reaches the shape memo
        assert taylor._shape_pd.cache_info().currsize == 0


class TestDepthByShape:
    def test_an_unused_variable_adds_one_to_depth(self, taylor_runs):
        # (x1^2, x2^3) narrows to the Artinian (x1, x2) in K[x1, x2]: pd 2
        # by its socle, no Betti numbers, and x3 adds one to depth
        i = ideal(make_context("x1", "x2", "x3"), (2, 0, 0), (0, 3, 0))
        assert depth_quotient(i) == taylor.DepthReport(1, 2, "taylor")
        assert taylor_runs == []

    def test_a_shape_over_the_cap_raises_and_is_not_memoised(self):
        # x3 * (x1, x2)^20: 21 generators on every variable, and x1 + x3 is
        # a nonzerodivisor, so no socle answers before the lattice cap
        ctx = make_context("x1", "x2", "x3")
        m = ideal(ctx, (1, 0, 0), (0, 1, 0)).power(20)
        i = m.multiply(ideal(ctx, (0, 0, 1)))
        assert len(i.exps) == LATTICE_CAP + 1 and not has_socle(i)
        for _ in range(2):
            with pytest.raises(LatticeCapError):
                depth_quotient(i)
        assert taylor._shape_pd.cache_info().currsize == 0

    def test_an_artinian_shape_over_the_cap_takes_the_socle_shortcut(self):
        ctx = make_context("x1", "x2")
        i = ideal(ctx, (1, 0), (0, 1)).power(30)
        assert len(i.exps) > LATTICE_CAP
        assert depth_quotient(i) == taylor.DepthReport(0, 2, "socle-shortcut")

    def test_one_lcm_lattice_shares_one_taylor_run(self, taylor_runs):
        # RP^2 with every generator squared, and with its variables in
        # another order and two unused ones, in fresh rings: one lcm
        # lattice, so one Betti table serves all three
        rp2 = rp2_ideal()
        squared = ideal(rp2.context, *(tuple(2 * e for e in g) for g in rp2.exps))
        ctx = make_context(*[f"y{j}" for j in range(8)], split=3)
        order = (5, 0, 3, 1, 4, 2)
        moved = ideal(ctx, *((0,) + tuple(g[j] for j in order) + (0,) for g in rp2.exps))
        reports = [depth_quotient(i) for i in (rp2, squared, moved)]
        assert reports == [taylor.DepthReport(3, 3, "taylor")] * 2 + [taylor.DepthReport(5, 3, "taylor")]
        assert len(taylor_runs) == 1
