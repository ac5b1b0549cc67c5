"""Stanley depth via the characteristic poset of a quotient module.

The poset of a module I/J truncated at the box [0, g] (g the componentwise
max of the generator exponents of I and J) carries enough information to
decide, for each k, whether a partition of the poset into intervals [c, d]
with rho(d) = #{j : d_j = g_j} >= k exists.  Stanley depth is the largest
such k; every positive answer ships an interval partition that converts to
an independently checkable Stanley decomposition.  :func:`sdepth_exact`
searches the exponent-compressed module (:func:`compress`) and checks the
witness, mapped back, on the module itself.

Every box walk goes through one kernel: an ideal becomes a Python-int
bitmask over a box (:func:`ideal_mask`), bit p set when the point with
row-major index p lies in the ideal.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import re
import time
from dataclasses import dataclass, replace

from .core import CapError, Monomial, MonomialIdeal, QuotientModule, RingContext


class ResourceCapError(CapError):
    """A configured cell/volume cap was exceeded."""


class CertificateError(RuntimeError):
    """A witness the search returned failed its exact-cover or its depth
    check: a bug, never an 'unknown' outcome."""


@dataclass(frozen=True)
class Budget:
    """Resource limits for poset construction, partition search and box
    checks; cell_cap bounds the volume of every box walked."""

    cell_cap: int = 10**6
    time_limit: float = 60.0


DEFAULT_BUDGET = Budget()

# failed uncovered sets the search remembers per decision; beyond this many
# the memo is lossy (it stops growing)
MEMO_CAP = 200_000

# (compressed module, budget) pairs whose k-walk sdepth_exact remembers
WALK_CACHE_SIZE = 1024
# boxes whose keep and axis masks the kernel and the search remember
MASK_CACHE_SIZE = 512


# --- box-membership kernel ----------------------------------------------------


def _capped(dims: tuple[int, ...], budget: Budget, what: str = "box") -> tuple[int, ...]:
    """The side lengths dims, unless the box has more points than the cell
    cap: then ResourceCapError."""
    volume = math.prod(dims)
    if volume > budget.cell_cap:
        raise ResourceCapError(f"{what} volume {volume} exceeds cell cap {budget.cell_cap}")
    return dims


def box_strides(dims: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major strides: the last axis varies fastest."""
    strides = []
    stride = 1
    for d in reversed(dims):
        strides.append(stride)
        stride *= d
    return tuple(reversed(strides))


@functools.lru_cache(maxsize=1024)
def _repunit(count: int, step: int) -> int:
    """sum_{i < count} 2^(i*step), count >= 1: one bit every step positions."""
    return int(("0" * (step - 1) + "1") * count, 2)


def box_mask(lo: tuple[int, ...], hi: tuple[int, ...], strides: tuple[int, ...]) -> int:
    """Mask of the sub-box [lo, hi] (lo <= hi) of a box with these strides:
    the bit of lo times one repunit per axis the sub-box spans.  The copies
    sit at distinct mixed-radix offsets, so the product makes no carries."""
    mask = 1 << sum(map(operator.mul, lo, strides))
    for lj, hj, stride in zip(lo, hi, strides):
        if hj > lj:
            mask *= _repunit(hj - lj + 1, stride)
    return mask


@functools.lru_cache(maxsize=MASK_CACHE_SIZE)
def _keep_masks(dims: tuple[int, ...]) -> tuple[int, ...]:
    """Per axis, the points whose coordinate on it is below d-1: one block
    of (d-1)*stride ones under stride zeros, repeated over the box."""
    volume = math.prod(dims)
    out = []
    for d, stride in zip(dims, box_strides(dims)):
        block = "0" * stride + "1" * ((d - 1) * stride)
        out.append(int(block * (volume // (d * stride)), 2) if d > 1 else 0)
    return tuple(out)


@functools.lru_cache(maxsize=MASK_CACHE_SIZE)
def _axis_masks(dims: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Per axis, for each value v below its side d, the points whose
    coordinate on it is v: stride ones at v*stride in every d*stride block."""
    volume = math.prod(dims)
    out = []
    for d, stride in zip(dims, box_strides(dims)):
        zero = int(("0" * ((d - 1) * stride) + "1" * stride) * (volume // (d * stride)), 2)
        out.append(tuple(zero << (v * stride) for v in range(d)))
    return tuple(out)


def ideal_mask(ideal: MonomialIdeal, dims: tuple[int, ...]) -> int:
    """Bitmask of the box points (row-major, see :func:`box_strides`) that
    lie in the ideal.

    Sets the bits of the generators inside the box, then closes upwards by
    a shift-OR sweep, d-1 unit steps along each axis; the keep-mask stops a
    step from wrapping past the axis' last coordinate.
    """
    strides = box_strides(dims)
    mask = 0
    for e in ideal.exps:
        if all(ej < d for ej, d in zip(e, dims)):
            mask |= 1 << sum(ej * s for ej, s in zip(e, strides))
    for d, stride, keep in zip(dims, strides, _keep_masks(dims)):
        for _ in range(d - 1):
            mask |= (mask & keep) << stride
    return mask


def module_mask(module: QuotientModule, dims: tuple[int, ...]) -> int:
    """Bitmask of the box points that lie in the module I/J."""
    return ideal_mask(module.outer, dims) & ~ideal_mask(module.inner, dims)


def mask_points(mask: int) -> list[int]:
    """Indices of the set bits, ascending."""
    return [m.start() for m in re.finditer("1", format(mask, "b")[::-1])]


def kron_mask(high: int, low: int, low_volume: int) -> int:
    """Mask of the product set on box_H x box_L (H axes first) of a mask on
    box_H and one on box_L of low_volume points.  Spreading high to one bit
    per box_L block makes the product carry-free."""
    spread = int(("0" * (low_volume - 1)).join(format(high, "b")), 2)
    return spread * low


def cover_mismatches(masks, member: int) -> int:
    """Box points not covered exactly once by the masks if in member, or
    covered at all if not: the pointwise count as mask arithmetic."""
    seen = multi = 0
    for mask in masks:
        multi |= seen & mask
        seen |= mask
    return (multi | ((seen & ~multi) ^ member)).bit_count()


# --- the characteristic poset -------------------------------------------------


class CharPoset:
    """Cells of the box [0, g] whose monomials lie in outer but not inner.

    Built from the cells' row-major box indices in ascending (lex) order;
    ``cells`` lists them in graded-lex order as exponent tuples and
    ``points`` their box indices; ``cell_at`` and ``rho_at`` map a box index
    to its cell and its rho.  Sets of cells are box masks: ``mask`` is the
    set of all cells, ``levels`` the cells of each nonempty degree in
    ascending degree, and ``axis_masks[j][v]`` the box points whose
    coordinate j is v.  The cells of I/J form a convex set, so the unit
    steps between cells are exactly the cover relations.
    """

    def __init__(self, context: RingContext, g: tuple[int, ...], points: list[int]):
        self.context = context
        self.g = g
        self.dims = tuple(gj + 1 for gj in g)
        self.strides = box_strides(self.dims)
        lex = list(zip(*([p // s % d for p in points] for s, d in zip(self.strides, self.dims))))
        # graded-lex: a stable sort by degree of the lex-ordered cells
        degree = list(map(sum, lex))
        order = sorted(range(len(lex)), key=degree.__getitem__)
        self.cells = [lex[i] for i in order]
        self.points = [points[i] for i in order]
        self.cell_at = dict(zip(self.points, self.cells))
        self.rho_at = {p: sum(map(operator.eq, c, g)) for p, c in zip(self.points, self.cells)}
        self.levels = [
            functools.reduce(operator.or_, (1 << points[i] for i in level))
            for _, level in itertools.groupby(order, key=degree.__getitem__)
        ]
        self.mask = functools.reduce(operator.or_, self.levels, 0)

    @functools.cached_property
    def axis_masks(self) -> tuple[tuple[int, ...], ...]:
        return _axis_masks(self.dims)

    @property
    def arity(self) -> int:
        return len(self.g)

    def rho(self, point: tuple[int, ...]) -> int:
        return sum(1 for pj, gj in zip(point, self.g) if pj == gj)

    def maximal_cells(self) -> list[tuple[int, ...]]:
        """Cells with no cell one unit step above them."""
        covered = 0
        for stride, keep in zip(self.strides, _keep_masks(self.dims)):
            covered |= (self.mask >> stride) & keep
        top = self.mask & ~covered
        return [c for c, p in zip(self.cells, self.points) if top >> p & 1]

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class Interval:
    """Lattice interval [lo, hi], all of whose points are poset cells."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("interval needs lo <= hi componentwise")

    def points(self):
        return itertools.product(*(range(a, b + 1) for a, b in zip(self.lo, self.hi)))


@dataclass(frozen=True)
class IntervalPartition:
    """Disjoint intervals covering all cells."""

    intervals: tuple[Interval, ...]


@dataclass(frozen=True)
class StanleyDecomposition:
    """Certificate: spaces (exponent tuple, free-variable index set), the
    space x^e K[Z] as (e, Z)."""

    context: RingContext
    spaces: tuple[tuple[tuple[int, ...], frozenset[int]], ...]

    @property
    def sdepth(self) -> int:
        return min((len(z) for _, z in self.spaces), default=0)


@dataclass(frozen=True)
class Decision:
    """Tri-state answer of the interval-partition decision problem."""

    status: str  # "true" | "false" | "unknown"
    partition: IntervalPartition | None
    nodes: int
    elapsed: float


@dataclass(frozen=True)
class SdepthResult:
    status: str  # "exact" | "unknown"
    value: int | None
    lo: int
    hi: int
    witness: IntervalPartition | None
    nodes: int = 0
    elapsed: float = 0.0
    reduction: str | None = None  # None | "exponent-compression"

    def to_json_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = [[list(iv.lo), list(iv.hi)] for iv in self.witness.intervals]
        return {
            "value": self.value,
            "status": self.status,
            "lo": self.lo,
            "hi": self.hi,
            "witness": witness,
            "nodes_expanded": self.nodes,
            "elapsed": self.elapsed,
            "reduction": self.reduction,
        }


def degree_bound_g(module: QuotientModule) -> tuple[int, ...]:
    """Componentwise max over the generator exponents of both ideals."""
    g = (0,) * module.context.arity
    for e in module.outer.exps + module.inner.exps:
        g = tuple(map(max, g, e))
    return g


def build_poset(module: QuotientModule, budget: Budget = DEFAULT_BUDGET) -> CharPoset:
    """Enumerate the cells of the box [0, g] belonging to the module, g the
    degree bound of :func:`degree_bound_g`."""
    g = degree_bound_g(module)
    dims = _capped(tuple(gj + 1 for gj in g), budget)
    return CharPoset(module.context, g, mask_points(module_mask(module, dims)))


def _candidates(poset: CharPoset, tops: int, c: int, uncovered: int, frugal: bool) -> list[int]:
    """The tops d in tops with [c, d] inside the uncovered set, as box
    indices in the phase's order.

    Greedy, best rho first and then larger intervals, is good at refutation
    and on most satisfiable instances.  Frugal, smaller intervals first,
    keeps high-rho tops available for the cells that need them; it rescues
    instances where greed paints the search into a corner.

    A prefix-AND sweep: start from the uncovered points of [c, g], then
    along each axis j, g_j - c_j times, keep a point only if its
    predecessor on the axis is kept; the points with coordinate c_j have
    no predecessor in [c, g] and keep their bit.  What stays set is every
    d with [c, d] inside the uncovered set.
    """
    cell = poset.cell_at[c]
    reach = uncovered & box_mask(cell, poset.g, poset.strides)
    for cj, gj, stride, on_axis in zip(cell, poset.g, poset.strides, poset.axis_masks):
        first = on_axis[cj]
        for _ in range(gj - cj):
            reach &= (reach << stride) | first
    reach &= tops
    below = [cj - 1 for cj in cell]
    keys = []
    while reach:
        bit = reach & -reach
        reach ^= bit
        d = bit.bit_length() - 1
        # every point of [c, d] is a cell by convexity
        size = math.prod(map(operator.sub, poset.cell_at[d], below))
        rho = poset.rho_at[d]
        keys.append((size, -rho, d) if frugal else (-rho, -size, d))
    keys.sort()
    return [key[-1] for key in keys]


def _search_phase(
    poset: CharPoset, tops: int, failed: set[int], frugal: bool, deadline: float, nodes: int
) -> tuple[str, list[tuple[int, int]] | None, int]:
    """One phase of the partition search: depth-first from the full cell
    set on an explicit stack, branching on the graded-lex smallest
    uncovered cell.  Cell sets are box masks; cells are box indices.

    Failed uncovered sets go into failed (lossy beyond MEMO_CAP).  nodes
    counts on from earlier phases; every 256th node checks the deadline.
    An open node is [uncovered set, branch cell, chosen top, its remaining
    candidates, degree level of the branch cell].  Returns the status, the
    (cell, top) pairs deepest first if "true", and the node count; "false"
    means exhaustive, "unknown" that the deadline passed.
    """
    levels, cell_at, strides = poset.levels, poset.cell_at, poset.strides
    stack: list[list] = []
    uncovered = poset.mask
    level = 0
    while True:
        if uncovered == 0:
            return "true", [(c, d) for _, c, d, _, _ in reversed(stack)], nodes
        if uncovered not in failed:
            nodes += 1
            if nodes % 256 == 0 and time.monotonic() > deadline:
                return "unknown", None, nodes
            # a child covers a subset of its parent's set, so its lowest
            # uncovered level is no lower; in a level, index order is lex
            while not uncovered & levels[level]:
                level += 1
            lowest = uncovered & levels[level]
            c = (lowest & -lowest).bit_length() - 1
            candidates = iter(_candidates(poset, tops, c, uncovered, frugal))
            stack.append([uncovered, c, None, candidates, level])
        # backtrack to the deepest open node with a candidate left
        while stack:
            node = stack[-1]
            d = next(node[3], None)
            if d is not None:
                node[2] = d
                uncovered = node[0] & ~box_mask(cell_at[node[1]], cell_at[d], strides)
                level = node[4]
                break
            stack.pop()
            if len(failed) < MEMO_CAP:
                failed.add(node[0])
        else:
            return "false", None, nodes


def sdepth_decision(poset: CharPoset, k: int, budget: Budget = DEFAULT_BUDGET) -> Decision:
    """Does some interval partition of the poset achieve rho >= k everywhere?"""
    if not 0 <= k <= poset.arity:
        raise ValueError("k must lie between 0 and the number of variables")
    if len(poset) == 0:
        raise ValueError("empty poset: the module is zero")
    start = time.monotonic()
    if k == 0:
        # singleton intervals always work
        intervals = tuple(Interval(c, c) for c in poset.cells)
        return Decision("true", IntervalPartition(intervals), 0, time.monotonic() - start)
    tops = functools.reduce(operator.or_, (1 << p for p, r in poset.rho_at.items() if r >= k), 0)
    failed: set[int] = set()
    nodes = 0
    # two-phase portfolio: restart with the frugal ordering when the greedy
    # one times out; the failure memo states ordering-independent facts, so
    # it carries over
    for frugal, share in ((False, 0.5), (True, 1.0)):
        deadline = start + share * budget.time_limit
        status, chosen, nodes = _search_phase(poset, tops, failed, frugal, deadline, nodes)
        if status != "unknown":
            break
    partition = None
    if status == "true":
        cell_at = poset.cell_at
        partition = IntervalPartition(tuple(Interval(cell_at[c], cell_at[d]) for c, d in chosen))
    return Decision(status, partition, nodes, time.monotonic() - start)


def compress(module: QuotientModule) -> tuple[QuotientModule, tuple[tuple[int, ...], ...]]:
    """The module with each variable's exponents relabelled, and per
    variable the relabelling's levels.

    Per variable, the distinct exponents in the generators of outer and
    inner, plus 0, map onto 0, 1, 2, ... in order; ``levels[j][i]`` is the
    exponent that level i stands for.  The map keeps the lcm-lattice of the
    presentation and the number of variables.  When it is the identity, the
    module itself comes back.
    """
    exps = module.outer.exps + module.inner.exps
    levels = tuple(tuple(sorted(set(column))) for column in zip((0,) * module.context.arity, *exps))
    if all(len(v) == v[-1] + 1 for v in levels):
        return module, levels
    rank = [{e: i for i, e in enumerate(v)} for v in levels]

    def relabel(ideal: MonomialIdeal) -> MonomialIdeal:
        # monotone per variable, so minimality holds; the degrees change
        labelled = (tuple(map(dict.__getitem__, rank, e)) for e in ideal.exps)
        return MonomialIdeal(ideal.context, tuple(sorted(labelled, key=lambda e: (sum(e), e))))

    return QuotientModule(relabel(module.outer), relabel(module.inner)), levels


def pull_back(
    partition: IntervalPartition, levels: tuple[tuple[int, ...], ...]
) -> IntervalPartition:
    """An interval partition of the compressed poset as one of the original
    poset, levels as returned by :func:`compress`.

    [c, d] becomes [v(c), h] with h_j = g_j when d_j is the top level and
    h_j = v(d_j + 1) - 1 otherwise: the original cells whose levels lie in
    [c, d].  Only top levels reach g_j, so rho is unchanged.
    """
    ceilings = [v[1:] + (v[-1] + 1,) for v in levels]
    intervals = tuple(
        Interval(
            tuple(map(tuple.__getitem__, levels, iv.lo)),
            tuple(ceiling[dj] - 1 for ceiling, dj in zip(ceilings, iv.hi)),
        )
        for iv in partition.intervals
    )
    return IntervalPartition(intervals)


def sdepth_walk(module: QuotientModule, budget: Budget = DEFAULT_BUDGET) -> SdepthResult:
    """Largest k admitting an interval partition of the module's own poset,
    walking down from the maximal-cell upper bound; 'unknown' outcomes carry
    the bracket.  No reduction, no cache and no certificate check: the
    search behind :func:`sdepth_exact`, also the reference it is tested
    against.
    """
    poset = build_poset(module, budget)
    ub = min(poset.rho(c) for c in poset.maximal_cells())
    nodes = 0
    elapsed = 0.0
    hi = ub
    saw_unknown = False
    for k in range(ub, -1, -1):
        decision = sdepth_decision(poset, k, budget)
        nodes += decision.nodes
        elapsed += decision.elapsed
        if decision.status == "true":
            if saw_unknown:
                return SdepthResult("unknown", None, k, hi, decision.partition, nodes, elapsed)
            return SdepthResult("exact", k, k, k, decision.partition, nodes, elapsed)
        if decision.status == "false":
            hi = k - 1
        else:
            saw_unknown = True
    # k = 0 always succeeds on a nonempty poset
    raise AssertionError("unreachable: decision at k=0 cannot fail")


_cached_walk = functools.lru_cache(maxsize=WALK_CACHE_SIZE)(sdepth_walk)


def sdepth_exact(module: QuotientModule, budget: Budget = DEFAULT_BUDGET) -> SdepthResult:
    """Stanley depth by :func:`sdepth_walk` on the compressed module (see
    :func:`compress`), memoised by the compressed module and the budget.

    The witness comes back in the module's own coordinates and has passed
    two checks on the module itself, on every call: its Stanley
    decomposition is an exact cover (:func:`verify_decomposition`), and its
    Stanley depth is at least the lower bound.  A witness failing either
    raises CertificateError, so lower bounds are certified on the input.
    When compression changed the module, ``reduction`` says so: the
    refutations were then made on the compressed poset, and that its
    Stanley depth is the module's rests on the lcm-lattice theorem of
    Ichim, Katthan and Moyano-Fernandez.
    """
    if module.is_zero:
        raise ValueError("Stanley depth of the zero module is undefined")
    # every witness corner lies in [0, g], so this box holds its check
    certifying_box(module, budget)
    compressed, levels = compress(module)
    result = _cached_walk(compressed, budget)
    if compressed is not module:
        witness = pull_back(result.witness, levels)
        result = replace(result, witness=witness, reduction="exponent-compression")
    # the expansion reads only the context and g of the poset; the top
    # levels are g
    frame = CharPoset(module.context, tuple(v[-1] for v in levels), [])
    decomposition = partition_to_decomposition(frame, result.witness)
    if not verify_decomposition(decomposition, module, budget):
        raise CertificateError(
            f"the witness for sdepth >= {result.lo} of {module} fails the exact-cover check"
        )
    if decomposition.sdepth < result.lo:
        raise CertificateError(
            f"the witness for sdepth >= {result.lo} of {module} fails the depth check:"
            f" its Stanley depth is {decomposition.sdepth}"
        )
    return result


def partition_to_decomposition(
    poset: CharPoset, partition: IntervalPartition
) -> StanleyDecomposition:
    """Expand an interval partition into Stanley spaces.

    For [c, d] with free set Z = {j : d_j = g_j}, each cell e in [c, d]
    with e_j = c_j on Z contributes the space x^e K[Z].
    """
    spaces = []
    for iv in partition.intervals:
        free = frozenset(j for j, (dj, gj) in enumerate(zip(iv.hi, poset.g)) if dj == gj)
        ranges = [
            range(cj, cj + 1 if j in free else dj + 1)
            for j, (cj, dj) in enumerate(zip(iv.lo, iv.hi))
        ]
        spaces.extend((e, free) for e in itertools.product(*ranges))
    return StanleyDecomposition(poset.context, tuple(spaces))


def certifying_box(
    module: QuotientModule, budget: Budget = DEFAULT_BUDGET, corners=()
) -> tuple[int, ...]:
    """Side lengths of the certifying box [0, G+1] of a module, G the
    componentwise max of g and the corners; raises ResourceCapError when it
    has more points than the cell cap."""
    axes = zip(degree_bound_g(module), *corners)
    return _capped(tuple(max(axis) + 2 for axis in axes), budget, "certifying box")


def verify_decomposition(
    decomposition: StanleyDecomposition,
    module: QuotientModule,
    budget: Budget = DEFAULT_BUDGET,
) -> bool:
    """Exact-cover check on the certifying box [0, G+1], G the componentwise
    max of g and every space's corner.

    One step beyond G separates free from capped directions; membership in
    the module and in every space is determined by truncation at G+1, so
    exact cover on this box certifies exact cover everywhere.  Each space is
    one sub-box mask.  A corner must be arity non-negative ints and a free
    set must name variables.
    """
    arity = module.context.arity
    axes = frozenset(range(arity))
    spaces = decomposition.spaces
    corners = [e for e, _ in spaces]
    entries = list(itertools.chain.from_iterable(corners))
    if (
        decomposition.context != module.context
        or any(not free <= axes for _, free in spaces)
        or not set(map(len, corners)) <= {arity}
        or not set(map(type, entries)) <= {int}
        or min(entries, default=0) < 0
    ):
        return False
    dims = certifying_box(module, budget, corners)
    strides = box_strides(dims)

    def space(e, free):
        return box_mask(e, [dims[j] - 1 if j in free else ej for j, ej in enumerate(e)], strides)

    masks = (space(e, free) for e, free in spaces)
    return cover_mismatches(masks, module_mask(module, dims)) == 0


def poset_to_dot(poset: CharPoset, partition: IntervalPartition | None = None) -> str:
    """DOT rendering of the Hasse diagram; optional partition coloring.

    The cover relations are the unit steps between cells, read from their
    box indices.
    """
    cells = poset.cells
    palette = [
        "lightblue", "lightyellow", "lightpink", "lightgreen", "orange",
        "cyan", "violet", "khaki", "salmon", "palegreen",
    ]
    color: dict[tuple[int, ...], str] = {}
    label_extra: dict[tuple[int, ...], str] = {}
    if partition is not None:
        for i, iv in enumerate(partition.intervals):
            for p in iv.points():
                color[p] = palette[i % len(palette)]
                label_extra[p] = f"\\n[{i}]"
    lines = ["digraph poset {", "  rankdir=BT;", "  node [shape=box, style=filled, fillcolor=white];"]
    def node_id(p):
        return "c_" + "_".join(map(str, p))
    for p in cells:
        label = str(Monomial(poset.context, p)) + label_extra.get(p, "")
        fill = color.get(p, "white")
        lines.append(f'  {node_id(p)} [label="{label}", fillcolor={fill}];')
    # a unit step between two cells is a cover, by convexity
    for q, p in zip(cells, poset.points):
        for qj, stride in zip(q, poset.strides):
            below = poset.cell_at.get(p - stride) if qj > 0 else None
            if below is not None:
                lines.append(f"  {node_id(below)} -> {node_id(q)};")
    lines.append("}")
    return "\n".join(lines)
