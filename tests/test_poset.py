import math
import operator
import pathlib
import random
import re
import sys
from types import SimpleNamespace

import pytest

import sdepth.poset as poset_module
from sdepth.core import Monomial, MonomialIdeal, QuotientModule, make_context
from sdepth.parsing import parse_ideal, split_blocks
from sdepth.poset import (
    Budget,
    CertificateError,
    CharPoset,
    Decision,
    Interval,
    IntervalPartition,
    ResourceCapError,
    build_poset,
    canonical_shape,
    compress,
    degree_bound_g,
    mask_points,
    module_mask,
    partition_to_decomposition,
    poset_to_dot,
    pull_back,
    sdepth_decision,
    sdepth_exact,
    verify_decomposition,
    StanleyDecomposition,
    certify_witness,
    poset_box,
)

from sdepth.verifier import check_prop_2_5

from oracles import (
    brute_candidates,
    brute_sdepth,
    pointwise_hasse_edges,
    pointwise_maximal_cells,
    rho,
)

PAIR = pathlib.Path(__file__).resolve().parent.parent / "ideals" / "pair.ideal"

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

    def test_module_with_no_generators(self):
        zero = MonomialIdeal.zero(X3)
        assert degree_bound_g(QuotientModule(zero, zero)) == (0, 0, 0)


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
            assert [p.cell_at[q] for q in p.maximal_cells()] == pointwise_maximal_cells(p)
            assert p.rho_at == {q: rho(p.g, c) for q, c in zip(p.points, p.cells)}
            strides = [math.prod(d + 1 for d in p.g[j + 1 :]) for j in range(p.arity)]
            assert p.points == [sum(cj * s for cj, s in zip(c, strides)) for c in p.cells]
            assert p.mask == sum(1 << q for q in p.points)


class TestPosetMasks:
    """The cell-set masks CharPoset builds with the poset, and the per-cell
    masks it keeps for the search, against the cells and the rho oracle."""

    @staticmethod
    def _posets():
        rng = random.Random(41)
        for trial in range(40):
            mod = _random_module(rng)
            yield build_poset(_with_free_axis(mod) if trial % 3 == 0 else mod)

    def test_rho_classes_tops_and_levels_match_the_cells(self):
        for p in self._posets():
            def of(keep):
                return sum(1 << q for q, c in zip(p.points, p.cells) if keep(c))

            assert p.rho_classes == [of(lambda c: rho(p.g, c) == r) for r in range(p.arity + 1)]
            assert p.tops == [of(lambda c: rho(p.g, c) >= k) for k in range(p.arity + 1)]
            degrees = sorted({sum(c) for c in p.cells})
            assert p.levels == [of(lambda c: sum(c) == t) for t in degrees]
            assert p.cells == sorted(p.cells, key=lambda c: (sum(c), c))
            assert p.maximal_mask() == sum(1 << q for q in p.maximal_cells())
            # the constructor from box indices builds the same poset
            q = CharPoset(p.context, p.g, sorted(p.points))
            assert (q.mask, q.levels, q.rho_classes, q.tops, q.points, q.cells) == (
                p.mask, p.levels, p.rho_classes, p.tops, p.points, p.cells)

    def test_an_empty_frame_does_no_work_per_box_point(self):
        p = CharPoset(X2, (2, 1), [])
        assert (p.levels, p.rho_classes, p.tops) == ([], [0, 0, 0], [0, 0, 0])
        # a box of 10^27 points could not even be listed
        huge = CharPoset(X3, (10**9 - 1,) * 3, [])
        assert (huge.mask, huge.levels, huge.cells, huge.tops) == (0, [], [], [0] * 4)

    def test_cached_intervals_are_the_box_masks(self):
        for p in self._posets():
            for c, lo in zip(p.points, p.cells):
                box, unit_steps = p.upper(c)
                assert box == poset_module.box_mask(lo, p.g, p.strides)
                assert [stride for stride, _ in unit_steps] == [
                    s for s, gj, cj in zip(p.strides, p.g, lo) for _ in range(gj - cj)]
                for d, hi in zip(p.points, p.cells):
                    if all(map(operator.le, lo, hi)):
                        assert box & p.lower(d) == poset_module.box_mask(lo, hi, p.strides)

    def test_a_small_mask_bound_keeps_the_decision(self, monkeypatch):
        ctx = make_context("x1", "x2", "x3", "x4")
        maximal4 = MonomialIdeal.from_gens(ctx, [ctx.variable(j) for j in range(4)])
        masks = lambda p: len(p._upper) + len(p._lower)
        for n in (1, 2):
            module = QuotientModule.of_ideal(maximal4.power(n))
            free = build_poset(module)
            full = sdepth_decision(free, 2)
            assert masks(free) > 2
            # a bound of 2 masks per poset, and so of 2 failed sets
            monkeypatch.setattr(poset_module, "MEMO_BITS", 2 * free.volume)
            p = build_poset(module)
            runs = [sdepth_decision(p, 2) for _ in range(2)]
            monkeypatch.undo()
            assert masks(p) == 2
            assert runs[1].status == runs[0].status == full.status == "true"
            assert runs[1].partition == runs[0].partition == full.partition
            assert runs[1].nodes == runs[0].nodes
            # m4's search never enters a failed set twice, so only m4^2
            # loses nodes to the smaller failure memo
            assert runs[0].nodes == full.nodes if n == 1 else runs[0].nodes > full.nodes


class TestCandidates:
    """The up-closure of the blocked points lists the same tops as a
    pointwise walk."""

    @staticmethod
    def _orders(p, c):
        size = lambda d: math.prod(b - a + 1 for a, b in zip(c, d))
        greedy = lambda d: (-rho(p.g, d), -size(d), d)
        frugal = lambda d: (size(d), -rho(p.g, d), d)
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
                            got = list(poset_module._candidates(p, tops, q, mask, frugal))
                            got = [cell[d] for d in got]
                            assert got == sorted(expected, key=key)
                            checked += bool(got)
        assert checked > 100

    def test_free_axes_and_empty_sets(self):
        mod = _with_free_axis(QuotientModule.of_ideal(ideal(X2, (1, 0), (0, 1))))
        p = build_poset(mod)
        assert p.g == (1, 1, 0)
        tops = _tops(p, 2)
        candidates = lambda q, uncovered: list(poset_module._candidates(p, tops, q, uncovered, False))
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
        # x2 is unused, so every cell has rho >= 1 and the upper bound 1
        # is decided without a search
        ("shell", [(2, 0, 0, 1), (1, 0, 1, 2), (1, 0, 2, 1)], 1, "exact", 1, 0, "singletons"),
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
        res = poset_module.sdepth_walk(mod)
        assert (res.status, res.value, res.nodes) == (status, value, nodes)
        if witness == "singletons":
            witness = [(c, c) for c in build_poset(mod).cells]
        assert [(iv.lo, iv.hi) for iv in res.witness.intervals] == witness
        # the cached walk of the module's canonical shape agrees, and its
        # witness, pulled back, holds on the module itself
        exact = sdepth_exact(mod)
        assert (exact.status, exact.value) == (status, value)
        certify_witness(exact.witness, mod, exact.value, poset_box(mod))

    def test_m4_squared_comes_back_for_lower_rho_classes(self, monkeypatch):
        # the m4^2 pin above, whose greedy search often backtracks out of a
        # branch cell's best rho class: so the classes that _candidates sorts
        # only when the search comes back for them are pinned here too
        real = poset_module._candidates
        came_back = []  # per branch node, whether a lower class was tried

        def recording(p, tops, c, uncovered, frugal):
            node = len(came_back)
            came_back.append(False)
            best = None
            for d in real(p, tops, c, uncovered, frugal):
                best = p.rho_at[d] if best is None else best
                came_back[node] |= p.rho_at[d] < best
                yield d

        monkeypatch.setattr(poset_module, "_candidates", recording)
        ctx = make_context("x1", "x2", "x3", "x4")
        maximal4 = MonomialIdeal.from_gens(ctx, [ctx.variable(j) for j in range(4)])
        res = poset_module.sdepth_walk(QuotientModule.of_ideal(maximal4.power(2)))
        assert (res.status, res.value, res.nodes, len(res.witness.intervals)) == ("exact", 2, 20615, 15)
        assert [(iv.lo, iv.hi) for iv in res.witness.intervals] == self.CASES[2][-1]
        # one candidate list per node, and 2,449 of the nodes tried a lower class
        assert (len(came_back), sum(came_back)) == (20615, 2449)

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
        assert min(rho(p.g, iv.hi) for iv in d.partition.intervals) >= 1
        assert sdepth_decision(p, 2).status == "false"

    def test_k_zero_always_true(self):
        p = build_poset(QuotientModule.of_ideal(ideal(X2, (1, 1))))
        assert sdepth_decision(p, 0).status == "true"

    def test_every_cell_a_top_is_decided_without_a_search(self):
        # the shell_free_axis golden module: x2 is unused, so every cell has
        # rho >= 1; then random modules with an unused axis, at their least rho
        x4 = make_context("x1", "x2", "x3", "x4")
        base = ideal(x4, (2, 0, 0, 1), (1, 0, 1, 2), (1, 0, 2, 1))
        rng = random.Random(37)
        modules = [QuotientModule(base, base.multiply(base))]
        modules += [_with_free_axis(_random_module(rng)) for _ in range(20)]
        for mod in modules:
            p = build_poset(mod)
            k = min(rho(p.g, c) for c in p.cells)
            assert k >= 1
            d = sdepth_decision(p, k)
            assert (d.status, d.nodes) == ("true", 0)
            assert [(iv.lo, iv.hi) for iv in d.partition.intervals] == [(c, c) for c in p.cells]

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


class TestBudget:
    @pytest.mark.parametrize(
        "limits",
        [{"cell_cap": 0}, {"cell_cap": -1}, {"time_limit": 0.0}, {"time_limit": -1.0},
         {"time_limit": math.nan}],
    )
    def test_limit_that_is_not_positive_is_rejected(self, limits):
        # a NaN time limit would never pass its deadline and switch it off
        with pytest.raises(ValueError, match="budgets must be positive"):
            Budget(**limits)

    def test_infinite_time_limit_is_allowed(self):
        assert Budget(time_limit=math.inf).time_limit == math.inf


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

    def test_one_module_under_other_names_shares_one_walk(self, walks):
        # the walk memo is keyed by the poset's shape: no names, no split
        gens = [(2, 1, 0), (0, 1, 2)]
        contexts = [X3, make_context("a", "b", "c"), make_context("x1", "x2", "y1", split=2)]
        results = [sdepth_exact(QuotientModule.of_quotient_ring(ideal(ctx, *gens)))
                   for ctx in contexts]
        assert len(walks) == 1
        assert len({(r.value, r.nodes, r.witness) for r in results}) == 1

    def test_pinned_on_the_square_of_the_pair_block(self, walks):
        # S/I^2, I = (x1*x2, x1^2) the x block of ideals/pair.ideal: x1's
        # exponents 0, 2, 3, 4 have a gap and the y block is unused, so
        # every cell has rho >= 2, the upper bound: the compressed
        # singletons, widened on x1, with no search
        block_a, _ = split_blocks(parse_ideal(PAIR.read_text()))
        module = QuotientModule.of_quotient_ring(block_a.power(2))
        res = sdepth_exact(module)
        assert (res.status, res.value, res.lo, res.hi, res.nodes, res.reduction) == (
            "exact", 2, 2, 2, 0, "exponent-compression")
        # x2 comes first in the canonical shape, so the singletons come in
        # its graded-lex order
        assert [(iv.lo, iv.hi) for iv in res.witness.intervals] == [
            ((0, 0, 0, 0), (1, 0, 0, 0)), ((2, 0, 0, 0), (2, 0, 0, 0)),
            ((0, 1, 0, 0), (1, 1, 0, 0)), ((3, 0, 0, 0), (3, 0, 0, 0)),
            ((2, 1, 0, 0), (2, 1, 0, 0)), ((0, 2, 0, 0), (1, 2, 0, 0))]
        assert len(walks) == 1
        # the walk of the canonical shape, pulled back through its order
        levels, kept, outer, inner = compress(module)
        order, outer, inner = canonical_shape(len(kept), outer, inner)
        assert order == (1, 0)
        walk = poset_module.sdepth_walk(QuotientModule(MonomialIdeal(X2, outer), MonomialIdeal(X2, inner)))
        assert (res.status, res.value, res.lo, res.hi, res.nodes) == (
            walk.status, walk.value + 2, walk.lo + 2, walk.hi + 2, walk.nodes)
        assert res.witness == pull_back(walk.witness, levels, [kept[i] for i in order])

    def test_a_block_in_its_own_ring_and_in_the_joint_ring_share_one_walk(self, walks):
        # S/I, I = (x1*x2, x1^2) the x block of ideals/pair.ideal, has
        # Stanley depth 0 in K[x1, x2]; in K[x1, x2, y1, y2] the unused y
        # axes add 2 to every rho and to every k, and change nothing else
        block_a, _ = split_blocks(parse_ideal(PAIR.read_text()))
        own = QuotientModule.of_quotient_ring(MonomialIdeal(X2, tuple(e[:2] for e in block_a.exps)))
        res_own = sdepth_exact(own)
        res_joint = sdepth_exact(QuotientModule.of_quotient_ring(block_a))
        assert (res_own.status, res_own.value, res_own.nodes) == ("exact", 0, 0)
        assert (res_joint.status, res_joint.value - 2, res_joint.nodes) == (
            res_own.status, res_own.value, res_own.nodes)
        assert [(iv.lo[:2], iv.hi[:2]) for iv in res_joint.witness.intervals] == [
            (iv.lo, iv.hi) for iv in res_own.witness.intervals]
        assert all(iv.lo[2:] == iv.hi[2:] == (0, 0) for iv in res_joint.witness.intervals)
        assert len(walks) == 1

    def test_zero_module_rejected(self):
        i = ideal(X2, (1, 1))
        with pytest.raises(ValueError):
            sdepth_exact(QuotientModule(i, i))

    def test_zero_module_gets_one_error_from_the_walk_and_over_the_cap(self):
        zero = QuotientModule(*[ideal(X2, (3, 0), (0, 3))] * 2)
        message = "Stanley depth of the zero module is undefined"
        with pytest.raises(ValueError, match=message):
            poset_module.sdepth_walk(zero)
        # its 16-point box is over the cap, but the module is checked first
        with pytest.raises(ValueError, match=message):
            sdepth_exact(zero, Budget(cell_cap=1))

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


class TestBracket:
    """The answer is the bracket [lo, hi]: exact exactly when lo == hi,
    whatever the walk could not decide on the way."""

    MAXIMAL3 = MonomialIdeal.from_gens(X3, [X3.variable(j) for j in range(3)])
    EITHER_WALK = pytest.mark.parametrize(
        "walk", [poset_module.sdepth_walk, sdepth_exact], ids=["walk", "exact"])

    @EITHER_WALK
    def test_a_refutation_below_an_unknown_closes_it(self, top_decision_times_out, walk):
        # (x1, x2, x3)^2: the bound 3 times out, 2 is refuted, 1 holds
        mod = QuotientModule.of_ideal(self.MAXIMAL3.power(2))
        res = walk(mod)
        assert (res.status, res.value, res.lo, res.hi) == ("exact", 1, 1, 1)
        certify_witness(res.witness, mod, 1, poset_box(mod))

    @EITHER_WALK
    def test_an_unknown_above_a_partition_leaves_it_open(self, top_decision_times_out, walk):
        # (x1, x2, x3): the bound 3 times out and 2 holds, with nothing refuted
        res = walk(QuotientModule.of_ideal(self.MAXIMAL3))
        assert (res.status, res.value, res.lo, res.hi) == ("unknown", None, 2, 3)


class TestInterval:
    def test_lo_and_hi_must_have_one_length(self):
        # zip would stop at the shorter corner and accept both
        with pytest.raises(ValueError, match="one length"):
            Interval((0, 0), (1,))
        with pytest.raises(ValueError, match="one length"):
            Interval((0,), (1, 1))


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
        real_module = poset_module.QuotientModule
        built = []

        def build_once(*args):
            if built:
                raise AssertionError("a module was built after the cache miss")
            built.append(real_module(*args))
            return built[-1]

        # the miss builds the one module of the walk; no hit builds any
        monkeypatch.setattr(poset_module, "QuotientModule", build_once)
        assert sdepth_exact(first).reduction == "exponent-compression"
        assert len(built) == 1
        real_certify, real_pull_back = poset_module.certify_witness, poset_module.pull_back
        checked = []

        def recording(partition, module, k, dims):
            checked.append(module)
            return real_certify(partition, module, k, dims)

        def no_search(*args):
            raise AssertionError("a cache hit searched again")

        monkeypatch.setattr(poset_module, "certify_witness", recording)
        monkeypatch.setattr(poset_module, "build_poset", no_search)
        res = sdepth_exact(second)
        assert (res.value, res.witness.intervals) == (0, (Interval((0, 0), (2, 1)),))
        assert checked == [second]
        # a cached witness that no longer covers the module is still caught
        monkeypatch.setattr(poset_module, "pull_back", lambda partition, levels, kept: IntervalPartition(
            real_pull_back(partition, levels, kept).intervals[:-1]))
        with pytest.raises(CertificateError):
            sdepth_exact(second)

    def test_the_box_counts_against_the_cap(self):
        # the search and the witness check both walk [0, g], 4 points
        mod = QuotientModule.of_quotient_ring(ideal(X2, (1, 1)))
        assert sdepth_exact(mod, budget=Budget(cell_cap=4)).value == 1
        with pytest.raises(ResourceCapError):
            sdepth_exact(mod, budget=Budget(cell_cap=3))

    def test_the_input_box_not_the_compressed_one_counts_before_any_walk(self, walks):
        # S/(x1^5): the input box [0, 5] has 6 points, the compressed one 2
        mod = QuotientModule.of_quotient_ring(ideal(X1, (5,)))
        assert poset_box(mod) == (6,)
        levels, kept, outer, inner = poset_module.compress(mod)
        assert math.prod(len(levels[j]) for j in kept) == 2
        with pytest.raises(ResourceCapError):
            sdepth_exact(mod, budget=Budget(cell_cap=3))
        assert walks == []


class TestCertifyWitness:
    """Tampered witnesses of sdepth((x1, x2, x3)) = 2: each fails the
    check its error names."""

    MODULE = QuotientModule.of_ideal(ideal(X3, (1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def _witness(self):
        res = sdepth_exact(self.MODULE)
        assert res.value == 2 and len(res.witness.intervals) > 1
        return res.witness.intervals

    def _certify(self, intervals, k=2):
        certify_witness(IntervalPartition(intervals), self.MODULE, k, poset_box(self.MODULE))

    def test_the_search_witness_passes(self):
        self._certify(self._witness())

    def test_a_dropped_interval(self):
        intervals = self._witness()
        with pytest.raises(CertificateError, match="exact-cover check"):
            self._certify(intervals[:-1])

    def test_a_duplicated_interval(self):
        # the union is unchanged; only the volumes add up to too much
        intervals = self._witness()
        with pytest.raises(CertificateError, match="exact-cover check"):
            self._certify(intervals + intervals[-1:])

    def test_a_top_beyond_g(self):
        # [c, d] with d_j = g_j + 1 leaves the box [0, g] the check walks;
        # its spaces are not free on j and miss every x_j^(g_j + 2)
        intervals = self._witness()
        iv = intervals[0]
        j = iv.hi.index(1)
        far = Interval(iv.lo, iv.hi[:j] + (2,) + iv.hi[j + 1:])
        with pytest.raises(CertificateError, match=r"interval check: \["):
            self._certify((far,) + intervals[1:])

    @pytest.mark.parametrize(
        "lo, hi",
        [((-1, 0, 0), (1, 0, 0)), ((1, 0, 0), (1, 1.0, 0)), ((True, 0, 0), (1, 0, 0)),
         ((1, 0), (1, 1)), ((1, 0, 0, 0), (1, 1, 1, 1))],
    )
    def test_a_corner_that_is_not_arity_non_negative_ints(self, lo, hi):
        with pytest.raises(CertificateError, match="interval check"):
            self._certify((Interval(lo, hi),) + self._witness())

    def test_a_lower_corner_above_the_upper_one(self):
        # Interval rejects such corners, so only a stand-in object carries them
        swapped = SimpleNamespace(lo=(1, 1, 0), hi=(1, 0, 0))
        with pytest.raises(CertificateError, match="interval check"):
            self._certify((swapped,) + self._witness())

    def test_a_witness_below_the_lower_bound(self):
        with pytest.raises(CertificateError, match="depth check: its Stanley depth is 2"):
            self._certify(self._witness(), k=3)


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
    return sum(1 << q for q, c in zip(p.points, p.cells) if rho(p.g, c) >= k)


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
