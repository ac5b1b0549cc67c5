import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

import sdepth.taylor as taylor
import sdepth.verifier as verifier
from sdepth.core import (
    GeneratorCapError,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    RingContext,
    make_context,
    tensor_join,
)
from sdepth.poset import Budget, CertificateError, sdepth_exact
from sdepth.verifier import (
    STATEMENTS,
    HypothesisError,
    check_cor_2_12,
    check_cor_2_13,
    check_lemma_2_1,
    check_prop_2_2,
    check_prop_2_3,
    check_prop_2_14,
    check_thm_2_11,
    check_thm_2_11_decomposition,
    check_thm_2_15,
    depth_sequence,
    q_chain,
    random_ideal,
    random_monomial,
    random_pair,
    run_random,
    sdepth_ci_power_via_transfer,
    sdepth_sequence,
)

from oracles import pointwise_prop_2_3_mismatches, pointwise_thm_2_11_mismatches

BUDGET = Budget(time_limit=30.0)


def ideal(ctx, *gens):
    return MonomialIdeal.from_gens(ctx, [Monomial(ctx, g) for g in gens])


# complete intersections: (y1*y2, y3), and (y1*y2) in block B
_CI = ideal(make_context("y1", "y2", "y3"), (1, 1, 0), (0, 0, 1))
_CI_B = ideal(make_context("y1", "y2"), (1, 1))


def block_pair():
    ca = make_context("x1", "x2")
    cb = make_context("y1", "y2")
    return ideal(ca, (1, 1), (2, 0)), ideal(cb, (0, 2), (1, 1))


class TestQChain:
    def test_chain_is_ascending_and_ends_at_sum_power(self):
        ia, ib = block_pair()
        _, ea, eb = tensor_join(ia, ib)
        for n in (1, 2, 3):
            chain = q_chain(ea, eb, n)
            assert len(chain) == n + 1
            assert chain[0] == ea.power(n)
            assert chain[-1] == ea.add(eb).power(n)
            for lo, hi in zip(chain, chain[1:]):
                assert all(hi.contains(g) for g in lo.gens)

    def test_successive_quotients_have_equal_sdepth_to_blocks(self):
        # each layer Q_i/Q_(i-1) is a shifted copy of a product module
        _, ea, eb = tensor_join(*block_pair())
        chain = q_chain(ea, eb, 2)
        for i in (1, 2):
            m = QuotientModule(chain[i], chain[i - 1])
            res = sdepth_exact(m, budget=BUDGET)
            assert res.status == "exact"
            assert res.value >= 1


class TestStatementChecks:
    def test_lemma_2_1_holds(self):
        ia, ib = block_pair()
        assert check_lemma_2_1(ia, ib, budget=BUDGET).verdict == "holds"

    def test_block_hypothesis_enforced(self):
        ca = make_context("x1", "x2")
        i = ideal(ca, (1, 0))
        with pytest.raises(HypothesisError):
            check_lemma_2_1(i, i)

    def test_thm_2_15_example(self):
        # J = (x1*x2, x3) in three variables: dim(B/J) = 1
        ctx = make_context("x1", "x2", "x3")
        j = ideal(ctx, (1, 1, 0), (0, 0, 1))
        report = check_thm_2_15(j, 2, budget=BUDGET)
        assert report.verdict == "holds"
        labels = [i.label for i in report.items]
        assert any("dim(B/J)" in lab for lab in labels)

    def test_thm_2_15_requires_ci(self):
        ctx = make_context("x1", "x2", "x3")
        tri = ideal(ctx, (1, 1, 0), (0, 1, 1), (1, 0, 1))
        with pytest.raises(HypothesisError):
            check_thm_2_15(tri, 1)

    def test_cor_2_12_value(self):
        # sdepth(B/J^n) = depth(B/J^n) = s - t
        ctx = make_context("y1", "y2", "y3")
        j = ideal(ctx, (1, 1, 0), (0, 0, 2))
        report = check_cor_2_12(j, 2, budget=BUDGET)
        assert report.verdict == "holds"

    def test_thm_2_11_small_instance(self):
        ca = make_context("x1", "x2")
        cb = make_context("y1")
        ia = ideal(ca, (1, 1))
        jb = ideal(cb, (2,))
        report = check_thm_2_11(ia, jb, 2, budget=BUDGET)
        assert report.verdict == "holds"

    def test_thm_2_11_decides_each_module_once(self, monkeypatch):
        decided = []

        def recording(module, *args, **kwargs):
            decided.append(module)
            return sdepth_exact(module, *args, **kwargs)

        monkeypatch.setattr(verifier, "sdepth_exact", recording)
        ca = make_context("x1", "x2")
        cb = make_context("y1")
        report = check_thm_2_11(ideal(ca, (1, 1)), ideal(cb, (2,)), 3, budget=BUDGET)
        assert report.verdict == "holds"
        # A/I^i and, for n = 1..3, R/(I+J)^n, (I+J)^n and the shell n
        assert len(decided) == len(set(decided)) == 3 + 3 * 3

    def test_thm_2_11_decomposition(self):
        ca = make_context("x1", "x2")
        cb = make_context("y1")
        ia = ideal(ca, (1, 1))
        v = Monomial(cb, (2,))
        report = check_thm_2_11_decomposition(ia, v, 2, budget=BUDGET)
        assert report.verdict == "holds"

    def test_cor_2_13_colon_shift(self):
        # L = (x1^2, x1*y1): gcd with v = x1*y1 is w = x1
        rctx = RingContext(("x1", "y1"), split=1)
        l = ideal(rctx, (2, 0), (1, 1))
        v = Monomial(rctx, (1, 1))
        report = check_cor_2_13(l, v, 2, budget=BUDGET)
        assert report.verdict == "holds"

    def test_prop_2_14_with_transfer(self):
        ctx = make_context("y1", "y2", "y3")
        j = ideal(ctx, (1, 1, 0), (0, 0, 2))
        report = check_prop_2_14(j, 2, budget=BUDGET)
        assert report.verdict == "holds"
        assert any("transfer" in i.label for i in report.items)

    def test_transfer_matches_direct(self):
        ctx = make_context("y1", "y2", "y3", "y4")
        j = ideal(ctx, (1, 1, 0, 0), (0, 0, 1, 1))
        for k in (1, 2):
            direct = sdepth_exact(
                QuotientModule.of_ideal(j.power(k)), budget=BUDGET
            ).value
            assert sdepth_ci_power_via_transfer(j, k, budget=BUDGET) == (direct, direct)


def _random_decomposition_instance(rng: random.Random):
    ia = random_ideal(rng, make_context(*[f"x{i + 1}" for i in range(rng.randint(1, 2))]))
    v = random_monomial(rng, make_context(*[f"y{i + 1}" for i in range(rng.randint(1, 2))]), 2)
    return ia, v


def _mismatches(report) -> int:
    (item,) = report.items
    return item.lhs


class TestStratumChecks:
    """The mask checks of prop_2_3 and thm_2_11_decomposition against the
    pointwise loops they replaced."""

    def test_prop_2_3_matches_the_pointwise_count(self):
        rng = random.Random(31)
        for _ in range(12):
            ia, ib = random_pair(rng, max_vars=2)
            n = rng.randint(1, 2)
            assert _mismatches(check_prop_2_3(ia, ib, n)) == pointwise_prop_2_3_mismatches(ia, ib, n)

    def test_thm_2_11_decomposition_matches_the_pointwise_count(self):
        rng = random.Random(37)
        for _ in range(12):
            ia, v = _random_decomposition_instance(rng)
            n = rng.randint(1, 3)
            assert _mismatches(check_thm_2_11_decomposition(ia, v, n)) == (
                pointwise_thm_2_11_mismatches(ia, v, n)
            )

    @pytest.mark.parametrize("tamper", ["drop", "double"])
    def test_a_wrong_stratum_list_is_caught(self, monkeypatch, tamper):
        real = verifier.cover_mismatches

        def tampered(strata, member):
            strata = strata[:-1] if tamper == "drop" else strata + strata[:1]
            return real(strata, member)

        monkeypatch.setattr(verifier, "cover_mismatches", tampered)
        rng = random.Random(41)
        for _ in range(6):
            ia, ib = random_pair(rng, max_vars=2)
            assert check_prop_2_3(ia, ib, rng.randint(1, 2)).verdict == "fails"
            ia, v = _random_decomposition_instance(rng)
            assert check_thm_2_11_decomposition(ia, v, rng.randint(1, 3)).verdict == "fails"

    def test_cover_mismatches_counts_points(self):
        member = 0b0111
        assert verifier.cover_mismatches([0b0011, 0b0100], member) == 0
        assert verifier.cover_mismatches([0b0011], member) == 1  # gap
        assert verifier.cover_mismatches([0b0011, 0b0110], member) == 1  # overlap
        assert verifier.cover_mismatches([0b0011, 0b1100], member) == 1  # non-member
        assert verifier.cover_mismatches([0b0111, 0b0111, 0b0111], member) == 3


class TestBracketMemo:
    """The verifier asks sdepth_exact once per (exponents, budget) pair, and
    keeps only brackets."""

    @staticmethod
    def recording(monkeypatch) -> list:
        asked = []

        def recording(module, budget):
            asked.append((module, budget))
            return sdepth_exact(module, budget=budget)

        monkeypatch.setattr(verifier, "sdepth_exact", recording)
        return asked

    def test_one_module_in_two_rings_is_decided_once(self, monkeypatch):
        asked = self.recording(monkeypatch)
        gens = [(1, 1), (2, 0)]
        in_x = QuotientModule.of_quotient_ring(ideal(make_context("x1", "x2"), *gens))
        in_y = QuotientModule.of_quotient_ring(ideal(make_context("y1", "y2"), *gens))
        in_split = QuotientModule.of_quotient_ring(ideal(RingContext(("x1", "y1"), split=1), *gens))
        brackets = {verifier._sd(m, BUDGET) for m in (in_x, in_y, in_split, in_x)}
        res = sdepth_exact(in_x, budget=BUDGET)
        assert brackets == {(res.lo, res.hi)}
        assert asked == [(in_x, BUDGET)]

    def test_a_second_budget_asks_again(self, monkeypatch):
        asked = self.recording(monkeypatch)
        module = QuotientModule.of_ideal(block_pair()[0])
        other = Budget(time_limit=20.0)
        for budget in (BUDGET, other, BUDGET, other):
            verifier._sd(module, budget)
        assert asked == [(module, BUDGET), (module, other)]

    def test_a_certificate_error_is_never_cached(self, monkeypatch):
        asked = []

        def tampered(module, budget):
            asked.append(module)
            raise CertificateError("the witness fails the exact-cover check")

        monkeypatch.setattr(verifier, "sdepth_exact", tampered)
        module = QuotientModule.of_ideal(block_pair()[0])
        for calls in (1, 2, 3):
            with pytest.raises(CertificateError):
                verifier._sd(module, BUDGET)
            assert len(asked) == calls
        assert verifier._bracket.cache_info().currsize == 0

    def test_a_cell_cap_stop_is_the_whole_range(self):
        # S/(x1*x2, x1^2) has the box 3 x 2, over a cap of 4 cells
        module = QuotientModule.of_quotient_ring(block_pair()[0])
        capped = Budget(cell_cap=4)
        assert verifier._sd(module, capped) == verifier._sd(module, capped) == (0, 2)
        assert verifier._bracket.cache_info().hits == 1
        res = sdepth_exact(module, budget=BUDGET)
        assert verifier._sd(module, BUDGET) == (res.lo, res.hi) != (0, 2)


class TestCapsBecomeUnknown:
    """A check turns a cap that runs out into an 'unknown' item and raises
    nothing."""

    def test_taylor_cap_in_lemma_2_1(self):
        # (x1, x2)^20 has 21 generators; x3 keeps the socle shortcut from
        # answering before the lattice cap is reached
        ca = make_context("x1", "x2", "x3")
        cb = make_context("y1")
        ia = ideal(ca, (1, 0, 0), (0, 1, 0)).power(20)
        report = check_lemma_2_1(ia, ideal(cb, (1,)), budget=BUDGET)
        assert report.verdict == "unknown"
        assert [i.verdict for i in report.items] == ["holds", "unknown"]

    def test_lattice_cap_in_the_transfer_costs_no_search(self, walks):
        # (x1, .., x4)^4 has 35 generators, over the lattice cap: the
        # transfer is the open bracket [0, 4] before m^4 is searched
        ctx = make_context("x1", "x2", "x3", "x4")
        j = ideal(ctx, *[tuple(int(i == v) for i in range(4)) for v in range(4)])
        assert sdepth_ci_power_via_transfer(j, 4, budget=Budget(time_limit=1.0)) == (0, 4)
        assert walks == []

    def test_cell_cap_in_prop_2_2(self):
        ia, ib = block_pair()
        report = check_prop_2_2(ia, ib, budget=Budget(cell_cap=4))
        assert report.verdict == "unknown"
        assert report.items and all(i.verdict == "unknown" for i in report.items)

    def test_cell_cap_in_prop_2_3(self):
        ia, ib = block_pair()
        report = check_prop_2_3(ia, ib, 1, budget=Budget(cell_cap=4))
        assert report.verdict == "unknown"
        assert [i.label for i in report.items] == ["stratum cover on box"]


class TestRandomDriver:
    @pytest.mark.parametrize("statement", sorted(STATEMENTS))
    def test_each_statement_runs_and_never_fails(self, statement):
        for seed in range(3):
            report = run_random(statement, seed, budget=BUDGET)
            assert report.verdict in ("holds", "unknown", "vacuous")

    def test_reproducible(self):
        a = run_random("lemma_2_1", 7, budget=BUDGET)
        b = run_random("lemma_2_1", 7, budget=BUDGET)
        assert a.to_json_dict() == b.to_json_dict()

    def test_unknown_statement(self):
        with pytest.raises(ValueError):
            run_random("lemma_9_9", 0)

    def test_random_pair_blocks_disjoint(self):
        rng = random.Random(3)
        for _ in range(10):
            ia, ib = random_pair(rng)
            assert not set(ia.context.variables) & set(ib.context.variables)


# the least power each statement that takes one accepts; below it the
# statement has nothing to check, or only a zero module to check it on
POWER_FLOORS = {
    "prop_2_3": 0, "prop_2_4": 0, "prop_2_5": 0, "thm_2_15": 0,
    "prop_2_6": 1, "prop_2_7": 1, "obs_2_8": 1, "thm_2_11": 1,
    "thm_2_11_decomposition": 1, "cor_2_12": 1, "cor_2_13": 1, "prop_2_14": 1,
}


class TestPowerFloors:
    def test_every_statement_with_a_power_has_a_floor(self):
        assert set(POWER_FLOORS) == {name for name, s in STATEMENTS.items() if s.power != "none"}

    @pytest.mark.parametrize("statement", sorted(POWER_FLOORS))
    def test_a_power_below_the_floor_is_a_hypothesis_error(self, statement):
        floor = POWER_FLOORS[statement]
        with pytest.raises(HypothesisError, match=f">= {floor}$"):
            run_random(statement, 0, n=floor - 1, budget=BUDGET)
        assert run_random(statement, 0, n=floor, budget=BUDGET).items


class TestPowerChains:
    """The verifier's powers of one ideal within one check (``_Powers``):
    read from MonomialIdeal.powers(), each power built once."""

    @pytest.mark.parametrize("n", range(5))
    def test_the_powers_below_the_cap_are_the_repeated_products(self, n):
        ideal_a, ideal_b = block_pair()
        for i in (ideal_a, ideal_b, MonomialIdeal.zero(ideal_a.context)):
            expected = [MonomialIdeal.unit(i.context)]
            for _ in range(n):
                expected.append(expected[-1].multiply(i))
            powers = verifier._Powers(i)
            assert [powers[k] for k in reversed(range(n + 1))] == expected[::-1]
            # I^1 is I itself, not the product unit * I minimalised again
            assert n == 0 or powers[1] is i

    def test_an_ideal_over_the_cap_stops_the_chain_with_the_error_of_unit_times_i(self):
        # 5,001 generators, one over the default generator cap
        ctx = make_context("x", "y")
        over = MonomialIdeal(ctx, tuple((i, 5000 - i) for i in range(5001)))
        with pytest.raises(GeneratorCapError) as direct:
            MonomialIdeal.unit(ctx).multiply(over)
        powers = verifier._Powers(over)
        assert powers[0] == MonomialIdeal.unit(ctx)
        # the chain ends at the error, but every later read of I^1 or of a
        # higher power raises it again, not StopIteration
        for n in (1, 1, 4, 2):
            with pytest.raises(GeneratorCapError) as raised:
                powers[n]
            assert str(raised.value) == str(direct.value)

    @pytest.mark.parametrize("check, args", [
        (verifier.check_prop_2_4, block_pair()),
        (verifier.check_prop_2_5, (_CI,)),
        (verifier.check_thm_2_11, (block_pair()[0], _CI_B)),
        (verifier.check_thm_2_15, (_CI,)),
        (verifier.check_cor_2_12, (_CI,)),
    ])
    def test_no_check_forms_a_product_twice(self, monkeypatch, check, args):
        products = []
        multiply = MonomialIdeal.multiply

        def recording(self, other, *rest, **kwargs):
            products.append((self.exps, other.exps))
            return multiply(self, other, *rest, **kwargs)

        monkeypatch.setattr(MonomialIdeal, "multiply", recording)
        assert check(*args, 3, budget=BUDGET).verdict == "holds"
        assert products and len(products) == len(set(products))


class TestSequences:
    def test_sdepth_sequence_ci(self):
        ctx = make_context("y1", "y2", "y3")
        j = ideal(ctx, (1, 1, 0), (0, 0, 1))
        rows = sdepth_sequence(j, 2, budget=BUDGET)
        assert [r.n for r in rows] == [1, 2]
        for r in rows:
            assert r.ring_quotient == 1
            assert r.shell == 1
        assert rows[0].ideal_power == 2

    def test_sdepth_sequence_builds_each_power_once(self, monkeypatch):
        products = []
        multiply = MonomialIdeal.multiply

        def counting(self, other, *args, **kwargs):
            products.append(other)
            return multiply(self, other, *args, **kwargs)

        monkeypatch.setattr(MonomialIdeal, "multiply", counting)
        j = ideal(make_context("y1", "y2", "y3"), (1, 1, 0), (0, 0, 1))
        rows = sdepth_sequence(j, 4, budget=BUDGET)
        # I^2..I^5, one product each, and I^1 is I (from I^0..I^5 afresh for
        # every row: 24)
        assert len(products) <= 4
        assert [(r.ring_quotient, r.ideal_power, r.shell) for r in rows] == [(1, 2, 1)] * 4

    def test_a_row_is_empty_exactly_from_the_power_over_the_generator_cap(self):
        # (x, y)^70 has 71 generators, and 71 * 71 products exceed the cap
        # of 5,000: I^2 is over it
        ctx = make_context("x", "y")
        power = ideal(ctx, *[(i, 70 - i) for i in range(71)])
        assert sdepth_sequence(power, 1, budget=BUDGET) == [verifier.SequenceRow(1, None, None, None)]
        assert depth_sequence(power, 2) == [
            verifier.SequenceRow(1, 0, 1, None), verifier.SequenceRow(2, None, None, None)
        ]

    def test_one_taylor_run_per_ideal(self, monkeypatch):
        runs = []
        original = taylor.depth_quotient

        def counting(ideal):
            runs.append(ideal)
            return original(ideal)

        monkeypatch.setattr(taylor, "depth_quotient", counting)
        monkeypatch.setattr(verifier, "depth_quotient", counting)
        for seed in (0, 1):
            runs.clear()
            run_random("prop_2_2", seed, budget=BUDGET)
            # I, J and IJ: depth(I) comes from depth(S/I)
            assert len(runs) == len(set(runs)) == 3
        runs.clear()
        rows = depth_sequence(ideal(make_context("y1", "y2"), (1, 1), (0, 2)), 3)
        assert len(runs) == len(set(runs)) == 3
        assert all(r.ideal_power == r.ring_quotient + 1 for r in rows)

    def test_powers_of_the_maximal_ideal_have_depth_zero_at_once(self):
        # (x1, .., x6)^n is Artinian: the socle test answers it without a
        # colon, though (x1, .., x6)^8 has 1,287 generators
        ctx = make_context(*[f"x{j + 1}" for j in range(6)])
        m = ideal(ctx, *[tuple(int(i == j) for i in range(6)) for j in range(6)])
        assert depth_sequence(m, 8) == [verifier.SequenceRow(n, 0, 1, None) for n in range(1, 9)]

    def test_depth_sequence_marks_shell_na(self):
        ctx = make_context("y1", "y2")
        j = ideal(ctx, (1, 1))
        rows = depth_sequence(j, 2)
        assert all(r.shell is None for r in rows)
        assert all(r.ring_quotient == 1 for r in rows)


_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}
_brackets = st.tuples(st.integers(0, 6), st.integers(0, 3)).map(lambda t: (t[0], t[0] + t[1]))


class TestBracketVerdicts:
    """Verdicts from the brackets [lo, hi] that the engine certifies; an int
    v counts as [v, v]."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(0, 6), _brackets), st.one_of(st.integers(0, 6), _brackets),
           st.sampled_from(sorted(_RELATIONS)))
    def test_a_verdict_is_true_of_every_pair_in_the_brackets(self, lhs, rhs, relation):
        (a, b), (c, d) = [(v, v) if isinstance(v, int) else v for v in (lhs, rhs)]
        truths = {_RELATIONS[relation](x, y) for x in range(a, b + 1) for y in range(c, d + 1)}
        verdict = verifier._verdict(lhs, rhs, relation)
        assert verdict == {frozenset({True}): "holds", frozenset({False}): "fails"}.get(
            frozenset(truths), "unknown")
        if relation == "==" and verdict == "holds":
            assert a == b == c == d

    def test_kleene_logic(self):
        order = ["fails", "unknown", "holds"]
        for x in order:
            for y in order:
                assert verifier._and(x, y) == order[min(order.index(x), order.index(y))]
                assert verifier._or(x, y) == order[max(order.index(x), order.index(y))]

    def test_an_open_bracket_decides_prop_2_2_seed_8(self):
        # sdepth(R/IJ) stays in [3, 4] at every time limit tried, from
        # 0.05 s to 60 s; the other side is 4 in (2a) and (3a), 3 in (2b)
        # and (3b)
        report = run_random("prop_2_2", 8, budget=Budget(time_limit=1.0))
        assert report.verdict == "holds"
        operands = [v for item in report.items[1:5] for v in (item.lhs, item.rhs)]
        assert [3, 4] in operands
        assert report.to_json_dict()["items"][1]["rhs"] == [3, 4]


class TestReportSerialization:
    def test_json_shape(self):
        ia, ib = block_pair()
        d = check_lemma_2_1(ia, ib, budget=BUDGET).to_json_dict()
        assert set(d) == {"statement", "verdict", "instance", "items", "notes"}
        assert d["statement"] == "lemma_2_1"
        for item in d["items"]:
            assert set(item) == {"label", "lhs", "rhs", "relation", "verdict"}
