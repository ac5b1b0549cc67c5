"""Independent brute-force oracles used to cross-check the engines.

These deliberately avoid the production search machinery: partitions are
enumerated exhaustively, dimension scans all variable subsets, box checks
walk the box point by point with ``contains``, and ranks go through dense
``Fraction`` Gaussian elimination.  Ideal arithmetic, and the colon by the
maximal ideal, is redone on ``Monomial`` objects and minimalised by
pairwise divisibility.  Betti numbers come from the strands of the Taylor
complex on all generator subsets, not from the lcm-lattice complexes the
engine uses.  lcm-lattice isomorphisms and Hasse diagrams compare every
pair of elements, where the engine reads the lattice through its atoms.
Canonical shapes try every permutation of the variables, with no classes
of interchangeable columns and no pruning by their swaps, and merges are
read off the distinct permutations of a word of run labels.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

from sdepth.core import Monomial, MonomialIdeal, QuotientModule, tensor_join
from sdepth.poset import CharPoset, degree_bound_g
from sdepth.taylor import rational_rank


def rho(g: "tuple[int, ...]", point: "tuple[int, ...]") -> int:
    """The number of coordinates on which the point reaches g."""
    return sum(pj == gj for pj, gj in zip(point, g))


def brute_sdepth(poset: CharPoset) -> int:
    """Max over ALL interval partitions of the min rho; memoized recursion
    over uncovered cell sets."""
    cells = poset.cells
    arity = poset.arity
    memo: dict[frozenset, int] = {}

    def interval_points(c, d):
        return itertools.product(*(range(a, b + 1) for a, b in zip(c, d)))

    def best(uncovered: frozenset) -> int:
        if not uncovered:
            return arity
        if uncovered in memo:
            return memo[uncovered]
        c = min(uncovered, key=lambda p: (sum(p), p))
        result = -1
        for d in cells:
            if all(a <= b for a, b in zip(c, d)):
                points = set(interval_points(c, d))
                if points <= uncovered:
                    val = min(rho(poset.g, d), best(uncovered - points))
                    result = max(result, val)
        memo[uncovered] = result
        return result

    return best(frozenset(cells))


def brute_krull_dim(ideal: MonomialIdeal) -> int:
    """Dimension by scanning every variable subset for a minimum cover."""
    n = ideal.context.arity
    if ideal.is_zero:
        return n
    supports = [g.support() for g in ideal.gens]
    best = n
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            if all(set(subset) & s for s in supports):
                best = min(best, size)
    return n - best


def graded_lex(m: Monomial) -> "tuple[int, tuple[int, ...]]":
    """Sort key of the graded-lex order: total degree, then exponents."""
    return (sum(m.exponents), m.exponents)


def _minimal_monomials(gens) -> "list[Monomial]":
    """The minimal monomials of a set by the pairwise-divisibility
    definition, in graded-lex order."""
    gens = set(gens)
    minimal = [m for m in gens if not any(k != m and k.divides(m) for k in gens)]
    return sorted(minimal, key=graded_lex)


def lcm(a: Monomial, b: Monomial) -> Monomial:
    return Monomial(a.context, tuple(map(max, a.exponents, b.exponents)))


def betti_totals(table) -> "list[int]":
    """The total Betti numbers beta_i(S/I), i = 0..pd, of a BettiTable."""
    return [sum(v for (j, _m), v in table.entries.items() if j == i) for i in range(table.pd + 1)]


def _exps(gens) -> "tuple[tuple[int, ...], ...]":
    return tuple(m.exponents for m in _minimal_monomials(gens))


def monomial_add(a: MonomialIdeal, b: MonomialIdeal) -> "tuple[tuple[int, ...], ...]":
    return _exps(a.gens + b.gens)


def monomial_multiply(a: MonomialIdeal, b: MonomialIdeal) -> "tuple[tuple[int, ...], ...]":
    return _exps(g * h for g in a.gens for h in b.gens)


def monomial_power(ideal: MonomialIdeal, n: int) -> "tuple[tuple[int, ...], ...]":
    result = [ideal.context.one()]
    for _ in range(n):
        result = _minimal_monomials(g * h for g in result for h in ideal.gens)
    return _exps(result)


def monomial_intersect(a: MonomialIdeal, b: MonomialIdeal) -> "tuple[tuple[int, ...], ...]":
    return _exps(lcm(g, h) for g in a.gens for h in b.gens)


def monomial_colon_maximal(ideal: MonomialIdeal) -> "tuple[tuple[int, ...], ...]":
    """The intersection of the colons by each variable."""
    ctx = ideal.context
    meet = None
    for j in range(ctx.arity):
        x = ctx.variable(j)
        colon = _minimal_monomials(g / g.gcd(x) for g in ideal.gens)
        meet = colon if meet is None else _minimal_monomials(lcm(a, b) for a in meet for b in colon)
    return _exps(meet)


def pointwise_prop_2_3_mismatches(ideal_a: MonomialIdeal, ideal_b: MonomialIdeal, n: int) -> int:
    """Points of [0, g+1] where the strata (I^i/I^(i+1)) (x) (J^j/J^(j+1)),
    i + j = n, fail to cover the shell (I+J)^n/(I+J)^(n+1) exactly once."""
    _, ia, ib = tensor_join(ideal_a, ideal_b)
    total = ia.add(ib)
    shell = QuotientModule(total.power(n), total.power(n + 1))
    pow_a = [ideal_a.power(i) for i in range(n + 2)]
    pow_b = [ideal_b.power(i) for i in range(n + 2)]
    r = ideal_a.context.arity
    ctx_a, ctx_b = ideal_a.context, ideal_b.context
    mismatches = 0
    for p in itertools.product(*(range(gj + 2) for gj in degree_bound_g(shell))):
        member = shell.contains(Monomial(shell.context, p))
        a_part, b_part = Monomial(ctx_a, p[:r]), Monomial(ctx_b, p[r:])
        hits = 0
        for i in range(n + 1):
            j = n - i
            if (
                pow_a[i].contains(a_part)
                and not pow_a[i + 1].contains(a_part)
                and pow_b[j].contains(b_part)
                and not pow_b[j + 1].contains(b_part)
            ):
                hits += 1
        if hits != (1 if member else 0):
            mismatches += 1
    return mismatches


def pointwise_thm_2_11_mismatches(ideal_a: MonomialIdeal, v: Monomial, n: int) -> int:
    """Points of [0, g+1] where the v-adic strata fail to cover the
    complement of (I, v)^n exactly once."""
    principal = MonomialIdeal.from_gens(v.context, [v])
    ctx, ia, iv = tensor_join(ideal_a, principal)
    total_n = ia.add(iv).power(n)
    powers_v = [ctx.one()]
    for _ in range(n):
        powers_v.append(powers_v[-1] * iv.gens[0])
    powers_a = [ia.power(i) for i in range(n + 1)]
    g = degree_bound_g(QuotientModule.of_quotient_ring(total_n))
    mismatches = 0
    for p in itertools.product(*(range(gj + 2) for gj in g)):
        w = Monomial(ctx, p)
        member = not total_n.contains(w)
        hits = 0
        for alpha in range(n):
            va = powers_v[alpha]
            if not va.divides(w):
                continue
            if powers_v[alpha + 1].divides(w):
                continue
            if not powers_a[n - alpha].contains(w / va):
                hits += 1
        if hits != (1 if member else 0):
            mismatches += 1
    return mismatches


def hasse_by_all_pairs(points) -> "set[tuple[tuple[int, ...], tuple[int, ...]]]":
    """Cover pairs (p, q) of divisibility on the points, the transitive
    reduction by the pairwise definition: p < q with no point strictly
    between."""
    points = list(points)
    below = lambda p, q: p != q and all(a <= b for a, b in zip(p, q))
    edges = set()
    for q in points:
        lower = [p for p in points if below(p, q)]
        edges.update((p, q) for p in lower if not any(below(p, r) for r in lower))
    return edges


def pointwise_hasse_edges(poset: CharPoset) -> "set[tuple[tuple[int, ...], tuple[int, ...]]]":
    """Cover pairs (p, q) of the poset's cells, by :func:`hasse_by_all_pairs`."""
    return hasse_by_all_pairs(poset.cells)


def iso_by_all_pairs(source, target, phi) -> bool:
    """Is the join-extension ψ of the atom map between two lcm lattices a
    join-preserving bijection?  ψ(e) is the componentwise max of φ(a) over
    the atoms a dividing the proper element e; joins are compared on every
    pair of proper elements."""
    divides = lambda a, b: all(x <= y for x, y in zip(a, b))
    psi = {}
    for e in source.elements - {source.bottom}:
        below = [phi[a] for a in source.atoms if divides(a, e)]
        if not below:
            return False
        psi[e] = tuple(map(max, zip(*below)))
    image = set(psi.values())
    if len(image) != len(psi) or image != target.elements - {target.bottom}:
        return False
    elems = list(psi)
    for i, x in enumerate(elems):
        for y in elems[i:]:
            if psi[tuple(map(max, x, y))] != tuple(map(max, psi[x], psi[y])):
                return False
    return True


def pointwise_maximal_cells(poset: CharPoset) -> "list[tuple[int, ...]]":
    """Cells with no other cell above them, by pairwise comparison, in the
    poset's order."""
    cells = poset.cells
    above = lambda p, q: p != q and all(a <= b for a, b in zip(p, q))
    return [p for p in cells if not any(above(p, q) for q in cells)]


def brute_candidates(
    poset: CharPoset, c: "tuple[int, ...]", uncovered: "set[tuple[int, ...]]", k: int
) -> "list[tuple[int, ...]]":
    """Cells d >= c with rho(d) >= k whose box [c, d] lies point by point in
    the uncovered set, in the poset's order."""
    out = []
    for d in poset.cells:
        if rho(poset.g, d) >= k and all(a <= b for a, b in zip(c, d)):
            box = itertools.product(*(range(a, b + 1) for a, b in zip(c, d)))
            if all(p in uncovered for p in box):
                out.append(d)
    return out


def fraction_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix over the rationals, by dense Gaussian
    elimination in ``Fraction`` arithmetic."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        pv = mat[row][col]
        for r in range(row + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == len(mat):
            break
    return rank


def taylor_betti(ideal: MonomialIdeal) -> "dict[tuple[int, tuple[int, ...]], int]":
    """Multigraded Betti numbers {(i, m): beta_{i,m}(S/I)} of a nonunit
    ideal from the Taylor complex: the i-subsets of the minimal generators
    grouped by their lcm m, and the homology of each such strand with the
    sign of dropping the generator at position pos equal to (-1)^pos.
    Walks all 2^t subsets; ranks by the engine's ``rational_rank``, itself
    checked against ``fraction_rank``."""
    gens = ideal.exps
    zero = (0,) * ideal.context.arity
    strands: dict[tuple[int, ...], dict[int, list[tuple[int, ...]]]] = {zero: {0: [()]}}
    lcm_of: dict[tuple[int, ...], tuple[int, ...]] = {(): zero}
    for size in range(1, len(gens) + 1):
        for subset in itertools.combinations(range(len(gens)), size):
            m = tuple(map(max, lcm_of[subset[:-1]], gens[subset[-1]]))
            lcm_of[subset] = m
            strands.setdefault(m, {}).setdefault(size, []).append(subset)
    entries = {}
    for m, by_size in strands.items():
        rank_in = {}  # rank of the differential out of size i, within the strand
        for i in by_size:
            targets = by_size.get(i - 1, [])
            col_of = {s: c for c, s in enumerate(targets)}
            rows = []
            for subset in by_size[i] if targets else []:
                row = [0] * len(targets)
                for pos in range(i):
                    smaller = subset[:pos] + subset[pos + 1 :]
                    if lcm_of[smaller] == m:
                        row[col_of[smaller]] = -1 if pos % 2 else 1
                rows.append(row)
            rank_in[i] = rational_rank(rows)
        for i, subsets in by_size.items():
            betti = len(subsets) - rank_in[i] - rank_in.get(i + 1, 0)
            if betti:
                entries[(i, m)] = betti
    return entries


def brute_canonical_key(arity: int, outer, inner) -> "tuple[tuple, tuple]":
    """The least (outer, inner), each permuted and in graded-lex order, over
    every permutation of the variables that sorts the columns by their
    invariant: per column, its exponent in each generator of inner, with
    larger degrees first, then in each generator of outer, with smaller
    degrees first."""
    def invariant(j):
        return sorted([(0, -sum(e), e[j]) for e in inner] + [(1, sum(e), e[j]) for e in outer])

    invariants = [invariant(j) for j in range(arity)]
    keys = []
    for order in itertools.permutations(range(arity)):
        if all(invariants[a] <= invariants[b] for a, b in zip(order, order[1:])):
            keys.append(tuple(tuple(sorted((tuple(e[j] for j in order) for e in exps),
                                           key=lambda e: (sum(e), e)))
                              for exps in (outer, inner)))
    return min(keys)


def brute_merges(runs, waits=None) -> "list[tuple[int, ...]]":
    """Every merge of the runs that keeps each run's own order, in the lex
    order of its word of run labels: the distinct permutations of the
    multiset of labels, sorted.  ``waits`` maps the first member of a run to
    the first member of another, and then only the merges in which the
    first starts after the second are kept."""
    labels = [i for i, run in enumerate(runs) for _ in run]
    merges = []
    for word in sorted(set(itertools.permutations(labels))):
        taken = [0] * len(runs)
        merge = []
        for i in word:
            merge.append(runs[i][taken[i]])
            taken[i] += 1
        merges.append(tuple(merge))
    if waits:
        merges = [m for m in merges if all(m.index(a) > m.index(b) for a, b in waits.items())]
    return merges
