import itertools
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from sdepth.core import LatticeCapError, Monomial, MonomialIdeal, make_context
from sdepth.parsing import parse_ideal
from sdepth.lattice import (
    TransferWithoutIsoError,
    build_lcm_lattice,
    ci_power_atom_map,
    lattice_iso_check,
    lattice_to_dot,
    sdepth_transfer,
)

import oracles


def ideal(ctx, *gens):
    return MonomialIdeal.from_gens(ctx, [Monomial(ctx, g) for g in gens])


class TestBuild:
    def test_two_variables(self):
        ctx = make_context("x1", "x2")
        m = ideal(ctx, (1, 0), (0, 1))
        lat = build_lcm_lattice(m)
        assert lat.elements == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_built_on_exponent_tuples(self):
        ctx = make_context("x1", "x2", "x3")
        m = ideal(ctx, (2, 1, 0), (0, 1, 1), (1, 0, 2))
        lat = build_lcm_lattice(m)
        assert lat.atoms == m.exps
        assert lat.bottom == (0, 0, 0)
        # no Monomial view of the generators is built
        assert "gens" not in m.__dict__

    def test_boolean_lattice_for_ci(self):
        # pairwise coprime generators give the full Boolean lattice
        for t in (2, 3, 4):
            ctx = make_context(*[f"x{i}" for i in range(t)])
            gens = [Monomial(ctx, tuple(2 if i == j else 0 for i in range(t))) for j in range(t)]
            lat = build_lcm_lattice(MonomialIdeal.from_gens(ctx, gens))
            assert len(lat.elements) == 2 ** t

    def test_zero_ideal_rejected(self):
        ctx = make_context("x1")
        with pytest.raises(ValueError):
            build_lcm_lattice(MonomialIdeal.zero(ctx))

    def test_cap(self):
        # (x0, x1, x2)^5 has 21 generators, one more than the lattice cap
        ctx = make_context(*[f"x{i}" for i in range(3)])
        m = MonomialIdeal.from_gens(ctx, [ctx.variable(j) for j in range(3)])
        power = m.power(5)
        with pytest.raises(LatticeCapError):
            build_lcm_lattice(power)
        # refused on the exponent tuples, before any Monomial is built
        assert "gens" not in power.__dict__


class TestIsoCheck:
    def test_variable_pair_vs_edge_plus_vertex(self):
        # (x1, x2) and (x1*x2, x3) have isomorphic lcm-lattices
        ca = make_context("x1", "x2")
        cb = make_context("x1", "x2", "x3")
        src = build_lcm_lattice(ideal(ca, (1, 0), (0, 1)))
        tgt = build_lcm_lattice(ideal(cb, (1, 1, 0), (0, 0, 1)))
        phi = {(1, 0): (1, 1, 0), (0, 1): (0, 0, 1)}
        assert lattice_iso_check(src, tgt, phi)

    def test_triangle_not_isomorphic_to_boolean(self):
        # the triangle's three atoms have a common pairwise join, so no atom
        # map to the Boolean lattice of (x1, x2, x3) can be bijective
        ctx = make_context("x1", "x2", "x3")
        src = build_lcm_lattice(ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        tgt = build_lcm_lattice(ideal(ctx, (1, 1, 0), (0, 1, 1), (1, 0, 1)))
        for img in itertools.permutations(tgt.atoms):
            phi = dict(zip(src.atoms, img))
            assert not lattice_iso_check(src, tgt, phi)

    def test_bad_atom_map_rejected(self):
        ctx = make_context("x1", "x2")
        lat = build_lcm_lattice(ideal(ctx, (1, 0), (0, 1)))
        with pytest.raises(ValueError, match="exactly on the source atoms"):
            lattice_iso_check(lat, lat, {(1, 0): (0, 1)})
        with pytest.raises(ValueError, match="target lattice elements"):
            lattice_iso_check(lat, lat, {(1, 0): (5, 5), (0, 1): (0, 1)})

    def test_join_clause(self):
        # ψ is a bijection (six proper elements on each side), but it does
        # not preserve the join of a and c: ψ(a ∨ c) is J's top, while
        # ψ(a) ∨ ψ(c) = p ∨ r = lcm(p, q) lies below it
        cx = make_context("x1", "x2", "x3", "x4", "x5")
        cy = make_context("y1", "y2", "y3", "y4", "y5")
        a, b, c, d = (0, 1, 1, 1, 0), (1, 0, 1, 1, 0), (1, 1, 0, 1, 1), (1, 1, 1, 0, 1)
        p, q, r, s = (0, 1, 1, 1, 0), (1, 0, 1, 1, 0), (1, 1, 0, 1, 0), (1, 1, 1, 0, 1)
        src = build_lcm_lattice(ideal(cx, a, b, c, d))
        tgt = build_lcm_lattice(ideal(cy, p, q, r, s))
        assert len(src.elements) == len(tgt.elements) == 7
        phi = {a: p, b: q, c: r, d: s}
        assert not lattice_iso_check(src, tgt, phi)
        with pytest.raises(TransferWithoutIsoError):
            sdepth_transfer(2, src, tgt, phi)

    def test_identity_is_iso(self):
        ctx = make_context("x1", "x2", "x3")
        lat = build_lcm_lattice(ideal(ctx, (2, 1, 0), (0, 1, 1), (1, 0, 2)))
        assert lattice_iso_check(lat, lat, {a: a for a in lat.atoms})


class TestCiPowerTransfer:
    @pytest.mark.parametrize("t,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_power_map_is_iso(self, t, k):
        src_ctx = make_context(*[f"_t{i}" for i in range(t)])
        maximal = MonomialIdeal.from_gens(src_ctx, [src_ctx.variable(j) for j in range(t)])
        # a complete intersection with one generator per variable block
        widths = [2, 1, 3][:t]
        names = []
        for i, w in enumerate(widths):
            names.extend(f"y{i}{j}" for j in range(w))
        ctx = make_context(*names)
        ci_exps = []
        pos = 0
        for w in widths:
            exps = [0] * len(names)
            for j in range(w):
                exps[pos + j] = j + 1
            ci_exps.append(tuple(exps))
            pos += w
        j_ideal = ideal(ctx, *ci_exps)
        src = build_lcm_lattice(maximal.power(k))
        tgt = build_lcm_lattice(j_ideal.power(k))
        phi = ci_power_atom_map(maximal.power(k), tuple(ci_exps))
        assert lattice_iso_check(src, tgt, phi)

    def test_atom_map_on_tuples(self):
        # a -> a_1*v_1 + a_2*v_2 for v = (1, 1, 0), (0, 0, 2)
        small = make_context("_t1", "_t2")
        maximal = ideal(small, (1, 0), (0, 1))
        phi = ci_power_atom_map(maximal.power(2), ((1, 1, 0), (0, 0, 2)))
        assert phi == {(2, 0): (2, 2, 0), (1, 1): (1, 1, 2), (0, 2): (0, 0, 4)}
        with pytest.raises(ValueError):
            ci_power_atom_map(maximal, ((1, 1, 0),))

    def test_transfer_shifts_by_arity_difference(self):
        ca = make_context("x1", "x2")
        cb = make_context("x1", "x2", "x3")
        src = build_lcm_lattice(ideal(ca, (1, 0), (0, 1)))
        tgt = build_lcm_lattice(ideal(cb, (1, 1, 0), (0, 0, 1)))
        phi = {(1, 0): (1, 1, 0), (0, 1): (0, 0, 1)}
        assert sdepth_transfer(1, src, tgt, phi) == 2

    def test_transfer_refuses_without_iso(self):
        ctx = make_context("x1", "x2", "x3")
        src = build_lcm_lattice(ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        tgt = build_lcm_lattice(ideal(ctx, (1, 1, 0), (0, 1, 1), (1, 0, 1)))
        phi = dict(zip(src.atoms, tgt.atoms))
        with pytest.raises(TransferWithoutIsoError):
            sdepth_transfer(2, src, tgt, phi)


class TestDot:
    def test_dot_structure(self):
        ctx = make_context("x1", "x2")
        lat = build_lcm_lattice(ideal(ctx, (1, 0), (0, 1)))
        dot = lattice_to_dot(lat)
        assert dot.startswith("digraph")
        assert dot.count("->") == 4
        assert "doublecircle" in dot

    def test_golden_ci(self):
        # J = (x1*x2, x3): the Boolean lattice on two atoms, in graded-lex
        # order, with one edge per cover
        path = pathlib.Path(__file__).resolve().parent.parent / "ideals" / "ci.ideal"
        lat = build_lcm_lattice(parse_ideal(path.read_text()))
        assert lattice_to_dot(lat) == "\n".join([
            "digraph lcm_lattice {",
            "  rankdir=BT;",
            "  node [shape=ellipse];",
            '  m0 [label="1", shape=ellipse];',
            '  m1 [label="x3", shape=doublecircle];',
            '  m2 [label="x1*x2", shape=doublecircle];',
            '  m3 [label="x1*x2*x3", shape=ellipse];',
            "  m0 -> m1;",
            "  m0 -> m2;",
            "  m1 -> m3;",
            "  m2 -> m3;",
            "}",
        ])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_boolean_edge_count(self, n):
        # the Boolean lattice on n atoms has n * 2^(n-1) covers
        ctx = make_context(*[f"x{i}" for i in range(n)])
        lat = build_lcm_lattice(MonomialIdeal.from_gens(ctx, [ctx.variable(j) for j in range(n)]))
        assert lattice_to_dot(lat).count("->") == n * 2 ** (n - 1)


@st.composite
def lattice_ideals(draw, ctx):
    """Nonzero ideals of at most 6 generators with exponents up to 3."""
    exps = st.tuples(*[st.integers(0, 3)] * ctx.arity).filter(any)
    gens = draw(st.lists(exps, min_size=1, max_size=6))
    return ideal(ctx, *gens)


CTX4 = make_context("x1", "x2", "x3", "x4")


def test_iso_check_matches_all_pairs():
    verdicts = set()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def check(data):
        src = build_lcm_lattice(data.draw(lattice_ideals(CTX4)))
        # the second ideal is sometimes the first, so that the identity map
        # and other automorphisms are among the permutations
        tgt_ideal = data.draw(st.one_of(st.just(None), lattice_ideals(CTX4)))
        tgt = src if tgt_ideal is None else build_lcm_lattice(tgt_ideal)
        maps = [dict(zip(src.atoms, data.draw(st.lists(
            st.sampled_from(sorted(tgt.elements)), min_size=len(src.atoms), max_size=len(src.atoms)
        ))))]
        if len(tgt.atoms) == len(src.atoms):
            maps.append(dict(zip(src.atoms, data.draw(st.permutations(tgt.atoms)))))
        for phi in maps:
            got = lattice_iso_check(src, tgt, phi)
            assert got == oracles.iso_by_all_pairs(src, tgt, phi)
            verdicts.add(got)

    check()
    assert verdicts == {True, False}


@given(lattice_ideals(CTX4))
@settings(max_examples=100, deadline=None)
def test_dot_edges_are_the_hasse_diagram(lattice_ideal):
    lat = build_lcm_lattice(lattice_ideal)
    elems = sorted(lat.elements, key=lambda e: (sum(e), e))
    edges = [(int(p), int(q)) for p, q in re.findall(r"m(\d+) -> m(\d+);", lattice_to_dot(lat))]
    # listed by the rank of the upper element, then of the lower one
    assert edges == sorted(edges, key=lambda pq: (pq[1], pq[0]))
    assert {(elems[p], elems[q]) for p, q in edges} == oracles.hasse_by_all_pairs(lat.elements)
