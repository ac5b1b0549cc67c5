import math
import random

import pytest

from sdepth.core import (
    _interleavings,
    CapError,
    ContextMismatchError,
    GeneratorCapError,
    LATTICE_CAP,
    LatticeCapError,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    RingContext,
    canonical_shape,
    is_complete_intersection,
    krull_dim_quotient,
    lcm_closure,
    make_context,
    shape_memo,
    tensor_join,
)

from sdepth.lattice import TransferWithoutIsoError
from sdepth.poset import CertificateError, ResourceCapError

from oracles import brute_krull_dim, brute_merges, graded_lex

X2 = make_context("x1", "x2")
X3 = make_context("x1", "x2", "x3")


def mono(ctx, *exps):
    return Monomial(ctx, exps)


def ideal(ctx, *gens):
    return MonomialIdeal.from_gens(ctx, [Monomial(ctx, g) for g in gens])


class TestMonomial:
    def test_divides(self):
        assert mono(X2, 1, 0).divides(mono(X2, 1, 1))
        assert X2.one().divides(mono(X2, 3, 2))
        assert not mono(X2, 2, 0).divides(mono(X2, 1, 3))

    def test_gcd(self):
        ctx = make_context("x1", "x2", "x3", "x4", "x5")
        a = Monomial(ctx, (1, 0, 0, 0, 2))
        b = Monomial(ctx, (0, 1, 0, 0, 1))
        assert a.gcd(b) == Monomial(ctx, (0, 0, 0, 0, 1))

    def test_support(self):
        ctx = make_context(*[f"x{i}" for i in range(1, 7)])
        v = Monomial(ctx, (4, 4, 1, 0, 0, 0))
        assert v.support() == {0, 1, 2}

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatchError):
            mono(X2, 1, 0).divides(mono(X3, 1, 0, 0))

    def test_str(self):
        assert str(mono(X3, 2, 0, 1)) == "x1^2*x3"
        assert str(X3.one()) == "1"

    @pytest.mark.parametrize("exps", [(1.5, 0), ("2", 1), (True, 0)])
    def test_non_int_exponents_rejected(self, exps):
        with pytest.raises(ValueError):
            Monomial(X2, exps)

    def test_division_exact_only(self):
        with pytest.raises(ValueError):
            mono(X2, 1, 0) / mono(X2, 0, 1)


class TestMinimalize:
    def test_divisor_drops_multiple(self):
        assert ideal(X2, (1, 0), (1, 1)) == ideal(X2, (1, 0))

    def test_antichain_unchanged(self):
        i = ideal(X2, (2, 0), (0, 2), (1, 1))
        assert len(i.gens) == 3

    def test_duplicates_and_square(self):
        gens = [(2, 0), (1, 1), (0, 2), (1, 1), (2, 0)]
        assert ideal(X2, *gens) == ideal(X2, (2, 0), (1, 1), (0, 2))

    def test_idempotent(self):
        i = ideal(X3, (1, 2, 0), (0, 1, 1), (2, 0, 0))
        assert MonomialIdeal.from_gens(X3, i.gens) == i

    def test_sorted_graded_lex(self):
        i = ideal(X2, (0, 2), (1, 1), (2, 0), (0, 3))
        keys = [graded_lex(g) for g in i.gens]
        assert keys == sorted(keys)

    def test_matches_pairwise_definition(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 4)
            ctx = make_context(*[f"x{i}" for i in range(n)])
            draw = lambda: Monomial(ctx, tuple(rng.randint(0, 3) for _ in range(n)))
            gens = {draw() for _ in range(rng.randint(1, 25))}
            minimal = [m for m in gens if not any(k != m and k.divides(m) for k in gens)]
            expected = sorted(minimal, key=graded_lex)
            assert list(MonomialIdeal.from_gens(ctx, gens).gens) == expected


class TestIdealArithmetic:
    def test_disjoint_product_is_intersection(self):
        a = MonomialIdeal.from_gens(make_context("x1"), [Monomial(make_context("x1"), (1,))])
        b = MonomialIdeal.from_gens(make_context("y1"), [Monomial(make_context("y1"), (1,))])
        _, ia, ib = tensor_join(a, b)
        prod = ia.multiply(ib)
        assert prod == ia.intersect(ib)
        assert [g.exponents for g in prod.gens] == [(1, 1)]

    def test_power_of_maximal(self):
        m = ideal(X2, (1, 0), (0, 1))
        assert m.power(2) == ideal(X2, (2, 0), (1, 1), (0, 2))
        assert m.power(0) == MonomialIdeal.unit(X2)

    def test_power_of_mixed_degree_ideal(self):
        # (x1^2, x2)^2 = (x1^4, x1^2 x2, x2^2)
        i = ideal(X2, (2, 0), (0, 1))
        sq = i.power(2)
        assert sq == ideal(X2, (4, 0), (2, 1), (0, 2))

    def test_contains(self):
        i = ideal(X2, (1, 1))
        assert i.contains(mono(X2, 2, 1))
        assert not i.contains(mono(X2, 3, 0))
        assert not MonomialIdeal.zero(X2).contains(mono(X2, 1, 0))
        assert MonomialIdeal.unit(X2).contains(X2.one())

    def test_generator_cap(self):
        m = ideal(X3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(GeneratorCapError):
            m.power(5, cap=10)

    def test_first_power_keeps_the_cap_error_of_unit_times_i(self):
        # I^1 forms no product, but an ideal over the cap still raises, with
        # the message of the product unit * I
        m = ideal(X3, (1, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(GeneratorCapError) as direct:
            MonomialIdeal.unit(X3).multiply(m, cap=2)
        assert str(direct.value) == "product would form 3 generators (cap 2)"
        for n in (1, 2, 5):
            with pytest.raises(GeneratorCapError) as raised:
                m.power(n, cap=2)
            assert str(raised.value) == str(direct.value)
        assert m.power(1, cap=3) == m
        assert m.power(0, cap=0) == MonomialIdeal.unit(X3)
        assert MonomialIdeal.zero(X3).power(1, cap=0).is_zero

    def test_zero_unit_behaviour(self):
        z, u = MonomialIdeal.zero(X2), MonomialIdeal.unit(X2)
        i = ideal(X2, (1, 1))
        assert i.multiply(z).is_zero
        assert i.multiply(u) == i
        assert i.add(z) == i
        assert i.add(u).is_unit
        assert i.intersect(z).is_zero
        assert i.intersect(u) == i


class TestPowerChains:
    """MonomialIdeal.powers(), the one chain I^0, I^1, ... that power(n)
    and every check read."""

    @pytest.mark.parametrize("n", range(5))
    def test_the_powers_are_the_repeated_products(self, n):
        for i in (ideal(X2, (1, 1), (2, 0)), ideal(X3, (0, 2, 0), (1, 0, 1)), MonomialIdeal.zero(X2)):
            expected = [MonomialIdeal.unit(i.context)]
            for _ in range(n):
                expected.append(expected[-1].multiply(i))
            chain = i.powers()
            powers = [next(chain) for _ in range(n + 1)]
            assert powers == expected
            assert i.power(n) == expected[n]
            # I^1 is I itself, not the product unit * I minimalised again
            assert n == 0 or powers[1] is i

    def test_an_ideal_over_the_cap_raises_the_error_of_unit_times_i_at_the_first_power(self):
        # 5,001 generators, one over the default generator cap
        over = MonomialIdeal(X2, tuple((i, 5000 - i) for i in range(5001)))
        with pytest.raises(GeneratorCapError) as direct:
            MonomialIdeal.unit(X2).multiply(over)
        chain = over.powers()
        assert next(chain) == MonomialIdeal.unit(X2)
        with pytest.raises(GeneratorCapError) as raised:
            next(chain)
        assert str(raised.value) == str(direct.value)


class TestCapFamily:
    """Every budget cap is a CapError, which callers turn into 'unknown';
    a failed certificate or an unverified transfer is a bug, never that."""

    @pytest.mark.parametrize("cls", [GeneratorCapError, ResourceCapError, LatticeCapError])
    def test_caps_are_cap_errors(self, cls):
        assert issubclass(cls, CapError)

    def test_one_class_per_cap(self):
        assert set(CapError.__subclasses__()) == {GeneratorCapError, ResourceCapError, LatticeCapError}

    def test_lcm_closure_takes_at_most_the_lattice_cap(self):
        # the coprime powers of 21 variables, one more than the cap
        units = [tuple(int(i == j) for j in range(LATTICE_CAP + 1)) for i in range(LATTICE_CAP + 1)]
        with pytest.raises(LatticeCapError):
            lcm_closure(tuple(units))
        assert len(lcm_closure(tuple(units[:3]))) == 7

    @pytest.mark.parametrize("cls", [CertificateError, TransferWithoutIsoError])
    def test_bugs_are_not_cap_errors(self, cls):
        assert not issubclass(cls, CapError)


class TestTensorJoin:
    def test_basic(self):
        a = make_context("x1")
        b = make_context("x2")
        ia = MonomialIdeal.from_gens(a, [Monomial(a, (1,))])
        ib = MonomialIdeal.from_gens(b, [Monomial(b, (1,))])
        joint, ea, eb = tensor_join(ia, ib)
        assert joint.variables == ("x1", "x2")
        assert joint.split == 1
        assert len(ea.gens) == len(ia.gens)
        assert ea.gens[0].exponents == (1, 0)

    def test_overlap_rejected(self):
        i = ideal(X2, (1, 0))
        with pytest.raises(ValueError):
            tensor_join(i, i)

    def test_sum_keeps_all_generators(self):
        ca, cb = make_context("x1", "x2"), make_context("y1", "y2")
        ia = MonomialIdeal.from_gens(ca, [Monomial(ca, (1, 2)), Monomial(ca, (2, 0))])
        ib = MonomialIdeal.from_gens(cb, [Monomial(cb, (1, 1))])
        _, ea, eb = tensor_join(ia, ib)
        assert len(ea.add(eb).gens) == len(ia.gens) + len(ib.gens)

    def test_extensions_are_canonical(self):
        # padding with zeros keeps the graded-lex order of the generators
        rng = random.Random(53)
        for _ in range(100):
            ca = make_context(*[f"x{i}" for i in range(rng.randint(1, 3))])
            cb = make_context(*[f"y{i}" for i in range(rng.randint(1, 3))])
            ia, ib = (
                MonomialIdeal.from_gens(
                    c, [Monomial(c, tuple(rng.randint(0, 3) for _ in range(c.arity)))
                        for _ in range(rng.randint(1, 5))]
                )
                for c in (ca, cb)
            )
            joint, ea, eb = tensor_join(ia, ib)
            pad_a, pad_b = (0,) * ca.arity, (0,) * cb.arity
            assert ea == MonomialIdeal.from_gens(
                joint, [Monomial(joint, g.exponents + pad_b) for g in ia.gens]
            )
            assert eb == MonomialIdeal.from_gens(
                joint, [Monomial(joint, pad_a + g.exponents) for g in ib.gens]
            )


class TestPredicates:
    def test_complete_intersection(self):
        ctx = make_context("x1", "x2", "x3", "x4")
        assert is_complete_intersection(ideal(ctx, (1, 1, 0, 0), (0, 0, 1, 1)))
        assert not is_complete_intersection(ideal(ctx, (1, 1, 0, 0), (0, 1, 1, 0)))
        assert is_complete_intersection(
            ideal(ctx, (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        )
        with pytest.raises(ValueError):
            is_complete_intersection(MonomialIdeal.zero(ctx))

    def test_krull_dim(self):
        assert krull_dim_quotient(ideal(X3, (1, 1, 0), (0, 0, 1))) == 1
        ctx5 = make_context(*[f"x{i}" for i in range(1, 6)])
        maximal3 = MonomialIdeal.from_gens(ctx5, [ctx5.variable(j) for j in range(3)])
        assert krull_dim_quotient(maximal3) == 5 - 3
        assert krull_dim_quotient(MonomialIdeal.zero(X3)) == 3
        with pytest.raises(ValueError):
            krull_dim_quotient(MonomialIdeal.unit(X3))

    def test_krull_dim_matches_brute_force(self):
        import random

        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 6)
            ctx = make_context(*[f"x{i}" for i in range(n)])
            gens = []
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 2) for _ in range(n))
                if any(exps):
                    gens.append(Monomial(ctx, exps))
            if not gens:
                continue
            i = MonomialIdeal.from_gens(ctx, gens)
            assert krull_dim_quotient(i) == brute_krull_dim(i)


class TestQuotientModule:
    def test_inclusion_enforced(self):
        i = ideal(X2, (1, 1))
        with pytest.raises(ValueError):
            QuotientModule(i, ideal(X2, (1, 0)))

    def test_membership(self):
        m = QuotientModule(ideal(X2, (1, 0)), ideal(X2, (2, 0)))
        assert m.contains(mono(X2, 1, 3))
        assert not m.contains(mono(X2, 0, 3))
        assert not m.contains(mono(X2, 2, 0))


class TestInterleavings:
    """The merges canonical_shape draws its candidate orderings from."""

    RUNS = [
        ((0,),),
        ((0, 1), (2,)),
        ((0,), (1,), (2,)),
        ((0, 1), (2, 3), (4,)),
        ((0,), (1, 2), (3, 4, 5)),
        ((0, 1), (2,), (3, 4), (5,)),
    ]

    def test_runs_interleave_in_the_order_of_their_labels(self):
        # the first place drawn from the earliest run, then the next
        assert list(_interleavings(((0, 1), (2,)))) == [(0, 1, 2), (0, 2, 1), (2, 0, 1)]

    @pytest.mark.parametrize("runs", RUNS)
    def test_without_waits_every_merge_comes_once_in_label_order(self, runs):
        merges = list(_interleavings(runs))
        assert merges == brute_merges(runs)
        assert list(_interleavings(runs, {})) == merges
        sizes = list(map(len, runs))
        assert len(merges) == math.factorial(sum(sizes)) // math.prod(map(math.factorial, sizes))

    @pytest.mark.parametrize("runs, orbits", [
        (((0,), (1,)), [[0, 1]]),
        (((0, 1), (2, 3), (4,)), [[0, 1]]),
        (((0, 1), (2, 3), (4, 5)), [[0, 1, 2]]),
        (((0, 1), (2, 3), (4, 5)), [[0, 2]]),
        (((0,), (1,), (2,), (3,)), [[0, 1], [2, 3]]),
        (((0, 1), (2,), (3, 4), (5,)), [[0, 2], [1, 3]]),
        (((0,), (1, 2), (3,), (4, 5)), [[1, 3], [0, 2]]),
    ])
    def test_waits_keep_the_merges_where_each_orbit_starts_in_index_order(self, runs, orbits):
        # each run of an orbit (runs of one size) waits for the one before it
        waits = {runs[b][0]: runs[a][0] for orbit in orbits for a, b in zip(orbit, orbit[1:])}
        merges = list(_interleavings(runs, waits))
        assert merges == brute_merges(runs, waits)
        assert merges == [m for m in _interleavings(runs)
                          if all(m.index(runs[a][0]) < m.index(runs[b][0])
                                 for orbit in orbits for a, b in zip(orbit, orbit[1:]))]
        sizes = list(map(len, runs))
        count = math.factorial(sum(sizes)) // math.prod(map(math.factorial, sizes))
        assert len(merges) == count // math.prod(math.factorial(len(orbit)) for orbit in orbits)


class TestShapeMemo:
    """shape_memo computes once per shape up to a permutation of the
    variables, on the module in the ring x1, .., xn."""

    UNIT = ((0, 0, 0),)
    # S/(x1^2, x1*x2, x3) and S/(x1*x2, x2^2, x3): one shape, two orders
    FIRST = ((0, 0, 1), (1, 1, 0), (2, 0, 0))
    SECOND = ((0, 0, 1), (0, 2, 0), (1, 1, 0))

    @staticmethod
    def counting(answer):
        calls = []

        def compute(module, *args):
            calls.append((module, args))
            return answer(module)

        return shape_memo(compute), calls

    def test_two_orderings_of_a_shape_share_one_call(self):
        memo, calls = self.counting(lambda module: len(module.inner.exps))
        first = memo(3, self.UNIT, self.FIRST, "budget")
        second = memo(3, self.UNIT, self.SECOND, "budget")
        assert len(calls) == 1
        assert (first[1], second[1]) == (3, 3)
        assert first[0] == canonical_shape(3, self.UNIT, self.FIRST)[0]
        assert second[0] == canonical_shape(3, self.UNIT, self.SECOND)[0]
        assert first[0] != second[0]
        # other arguments are another key
        memo(3, self.UNIT, self.FIRST, "other")
        assert [args for _, args in calls] == [("budget",), ("other",)]

    def test_compute_gets_the_canonical_shape_in_the_neutral_ring(self):
        memo, calls = self.counting(lambda module: None)
        in_y = ideal(make_context("y1", "y2", "y3"), *self.FIRST)
        memo(3, self.UNIT, in_y.exps)
        [(module, _)] = calls
        _, outer, inner = canonical_shape(3, self.UNIT, self.FIRST)
        assert module == QuotientModule(MonomialIdeal(X3, outer), MonomialIdeal(X3, inner))

    def test_an_exception_propagates_and_nothing_is_memoised(self):
        def capped(module):
            raise LatticeCapError("too many generators")

        memo, calls = self.counting(capped)
        for attempt in (1, 2):
            with pytest.raises(LatticeCapError):
                memo(3, self.UNIT, self.FIRST)
            assert len(calls) == attempt
        assert memo.cache_info().currsize == 0
