import itertools

import pytest

from sdepth.core import Monomial, MonomialIdeal, make_context
from sdepth.lattice import (
    LatticeCapError,
    TransferWithoutIsoError,
    build_lcm_lattice,
    ci_power_atom_map,
    lattice_iso_check,
    lattice_to_dot,
    sdepth_transfer,
)


def ideal(ctx, *gens):
    return MonomialIdeal.from_gens(ctx, [Monomial(ctx, g) for g in gens])


class TestBuild:
    def test_two_variables(self):
        ctx = make_context("x1", "x2")
        m = ideal(ctx, (1, 0), (0, 1))
        lat = build_lcm_lattice(m)
        assert lat.elements == {ctx.one(), ctx.variable(0), ctx.variable(1),
                                Monomial(ctx, (1, 1))}

    def test_boolean_lattice_for_ci(self):
        # pairwise coprime generators give the full Boolean lattice
        for t in (2, 3, 4):
            ctx = make_context(*[f"x{i}" for i in range(t)])
            gens = [ctx.variable(j) ** 2 for j in range(t)]
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
        with pytest.raises(LatticeCapError):
            build_lcm_lattice(m.power(5))


class TestIsoCheck:
    def test_variable_pair_vs_edge_plus_vertex(self):
        # (x1, x2) and (x1*x2, x3) have isomorphic lcm-lattices
        ca = make_context("x1", "x2")
        cb = make_context("x1", "x2", "x3")
        src = build_lcm_lattice(ideal(ca, (1, 0), (0, 1)))
        tgt = build_lcm_lattice(ideal(cb, (1, 1, 0), (0, 0, 1)))
        phi = {ca.variable(0): Monomial(cb, (1, 1, 0)),
               ca.variable(1): cb.variable(2)}
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
        with pytest.raises(ValueError):
            lattice_iso_check(lat, lat, {ctx.variable(0): ctx.variable(1)})
        with pytest.raises(ValueError):
            lattice_iso_check(lat, lat, {
                ctx.variable(0): Monomial(ctx, (5, 5)),
                ctx.variable(1): ctx.variable(1),
            })

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
        ci_gens = []
        pos = 0
        for w in widths:
            exps = [0] * len(names)
            for j in range(w):
                exps[pos + j] = j + 1
            ci_gens.append(Monomial(ctx, tuple(exps)))
            pos += w
        j_ideal = MonomialIdeal.from_gens(ctx, ci_gens)
        src = build_lcm_lattice(maximal.power(k))
        tgt = build_lcm_lattice(j_ideal.power(k))
        phi = ci_power_atom_map(maximal.power(k), tuple(ci_gens))
        assert lattice_iso_check(src, tgt, phi)

    def test_transfer_shifts_by_arity_difference(self):
        ca = make_context("x1", "x2")
        cb = make_context("x1", "x2", "x3")
        src = build_lcm_lattice(ideal(ca, (1, 0), (0, 1)))
        tgt = build_lcm_lattice(ideal(cb, (1, 1, 0), (0, 0, 1)))
        phi = {ca.variable(0): Monomial(cb, (1, 1, 0)),
               ca.variable(1): cb.variable(2)}
        assert sdepth_transfer(1, 2, 3, src, tgt, phi) == 2

    def test_transfer_refuses_without_iso(self):
        ctx = make_context("x1", "x2", "x3")
        src = build_lcm_lattice(ideal(ctx, (1, 0, 0), (0, 1, 0), (0, 0, 1)))
        tgt = build_lcm_lattice(ideal(ctx, (1, 1, 0), (0, 1, 1), (1, 0, 1)))
        phi = dict(zip(src.atoms, tgt.atoms))
        with pytest.raises(TransferWithoutIsoError):
            sdepth_transfer(2, 3, 3, src, tgt, phi)


class TestDot:
    def test_dot_structure(self):
        ctx = make_context("x1", "x2")
        lat = build_lcm_lattice(ideal(ctx, (1, 0), (0, 1)))
        dot = lattice_to_dot(lat)
        assert dot.startswith("digraph")
        assert dot.count("->") == 4
        assert "doublecircle" in dot
