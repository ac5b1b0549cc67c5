"""Stanley depth via the characteristic poset of a quotient module.

The poset of a module I/J truncated at the box [0, g] (g the componentwise
max of the generator exponents of I and J) carries enough information to
decide, for each k, whether a partition of the poset into intervals [c, d]
with rho(d) = #{j : d_j = g_j} >= k exists.  Stanley depth is the largest
such k; every positive answer ships an interval partition that converts to
an independently checkable Stanley decomposition.  :func:`sdepth_exact`
searches the poset shape :func:`compress` reads off the generators
(exponents relabelled, unused variables dropped), once per shape up to a
permutation of its variables (:func:`canonical_shape`) in one memo of
shapes and walks (:func:`_shape_walk`), and checks the witness, pulled
back, on the module itself.

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

from .core import (  # the shape layer, re-exported under its old home
    ORDERINGS_CAP,
    SHAPE_CACHE_SIZE,
    CapError,
    Exponents,
    Monomial,
    MonomialIdeal,
    QuotientModule,
    RingContext,
    _neutral_context,
    canonical_shape,
    compress,
)


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

    def __post_init__(self) -> None:
        # "not (x > 0)" and not "x <= 0": a NaN limit must fail too, since no
        # clock is ever past it
        if not (self.cell_cap > 0 and self.time_limit > 0):
            raise ValueError("budgets must be positive")


DEFAULT_BUDGET = Budget()

# failed uncovered sets the search remembers per decision, and the bits of
# box masks they may hold; beyond either the memo is lossy (stops growing).
# MEMO_BITS also bounds the bits of the per-cell masks a poset keeps for the
# search (CharPoset.upper and lower), MEMO_BITS // volume masks at most
MEMO_CAP = 200_000
MEMO_BITS = 2**29

# boxes whose keep masks the kernel and the search remember
MASK_CACHE_SIZE = 512


# --- box-membership kernel ----------------------------------------------------


def _capped(dims: tuple[int, ...], budget: Budget, what: str) -> tuple[int, ...]:
    """The side lengths dims, unless the box has more points than the cell
    cap: then ResourceCapError."""
    volume = math.prod(dims)
    if volume > budget.cell_cap:
        raise ResourceCapError(f"{what} volume {volume} exceeds cell cap {budget.cell_cap}")
    return dims


@functools.lru_cache(maxsize=MASK_CACHE_SIZE)
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
    the product of one repunit per axis the sub-box spans, the shape at the
    origin, shifted to lo.  The copies sit at distinct mixed-radix offsets,
    so the product makes no carries."""
    mask = 1
    for lj, hj, stride in zip(lo, hi, strides):
        if hj > lj:
            mask *= _repunit(hj - lj + 1, stride)
    return mask << sum(map(operator.mul, lo, strides))


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
def _degree_masks(dims: tuple[int, ...]) -> tuple[int, ...]:
    """Per degree t = 0, 1, .., sum(d - 1), the box points of degree t: the
    masks of the box without its first axis, shifted into each of that
    axis' d slabs, one degree up per slab."""
    masks = [1]
    volume = 1
    for d in reversed(dims):
        wider = [0] * (len(masks) + d - 1)
        for e in range(d):
            for t, mask in enumerate(masks, e):
                wider[t] |= mask << (e * volume)
        masks = wider
        volume *= d
    return tuple(masks)


def _unit_steps(
    steps, strides: tuple[int, ...], keeps: tuple[int, ...]
) -> tuple[tuple[int, int], ...]:
    """steps[j] unit steps up along each axis j, axis by axis, as (stride,
    keep mask) pairs: the sweep of :func:`_up_closure`, which the search
    keeps per branch cell."""
    out: tuple[tuple[int, int], ...] = ()
    for count, stride, keep in zip(steps, strides, keeps):
        out += ((stride, keep),) * count
    return out


def _sweep_up(mask: int, unit_steps) -> int:
    """mask swept by each (stride, keep) unit step in turn: a shift-OR, the
    keep mask stopping the step at the axis' last coordinate."""
    for stride, keep in unit_steps:
        mask |= (mask & keep) << stride
    return mask


def _up_closure(mask: int, steps, strides: tuple[int, ...], keeps: tuple[int, ...]) -> int:
    """The points reached from mask by at most steps[j] unit steps up along
    each axis j: a shift-OR sweep (:func:`_sweep_up`)."""
    return _sweep_up(mask, _unit_steps(steps, strides, keeps))


def ideal_mask(ideal: MonomialIdeal, dims: tuple[int, ...]) -> int:
    """Bitmask of the box points (row-major, see :func:`box_strides`) that
    lie in the ideal.

    Sets the bits of the generators inside the box, then closes upwards,
    d-1 unit steps along each axis (:func:`_up_closure`): nothing when no
    bit is set, the whole box when the origin is.
    """
    strides = box_strides(dims)
    mask = 0
    for e in ideal.exps:
        if all(map(operator.lt, e, dims)):
            mask |= 1 << sum(map(operator.mul, e, strides))
    if mask & 1:
        return (1 << math.prod(dims)) - 1
    return _up_closure(mask, [d - 1 for d in dims], strides, _keep_masks(dims)) if mask else 0


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
    covered at all if not: the pointwise count as mask arithmetic.

    Masks are pairwise disjoint exactly when their volumes add up to the
    size of their union, so an exact cover is recognised by its union and
    its volumes alone; only a count above 0 tracks the multiply covered
    points.
    """
    masks = list(masks)
    union = volume = 0
    for mask in masks:
        union |= mask
        volume += mask.bit_count()
    if union == member and volume == member.bit_count():
        return 0
    seen = multi = 0
    for mask in masks:
        multi |= seen & mask
        seen |= mask
    return (multi | ((seen & ~multi) ^ member)).bit_count()


# --- the characteristic poset -------------------------------------------------


def _count_classes(sets, within: int, most: int) -> list[int]:
    """Per count r = 0, 1, .., most, the points of within that lie in
    exactly r of the sets: a bit-sliced counter, bit i of every point's
    count in slices[i], added to one set at a time."""
    slices: list[int] = []
    for carry in sets:
        carry &= within
        for i, bits in enumerate(slices):
            slices[i], carry = bits ^ carry, bits & carry
        if carry:
            slices.append(carry)
    classes = []
    for r in range(most + 1):
        cls = within if r >> len(slices) == 0 else 0
        for i, bits in enumerate(slices):
            cls &= bits if r >> i & 1 else ~bits
        classes.append(cls)
    return classes


class CharPoset:
    """Cells of the box [0, g] whose monomials lie in outer but not inner.

    Built from the cells' row-major box indices in ascending (lex) order,
    or from their mask by :meth:`of_mask`.  Sets of cells are box masks:
    ``mask`` is the set of all cells, ``levels`` the cells of each nonempty
    degree in ascending degree (the mask cut by the box's degree masks,
    :func:`_degree_masks`), ``rho_classes[r]`` the cells with rho = r and
    ``tops[k]`` those with rho >= k, for r and k from 0 to the arity.
    ``cells`` lists the cells level by level, lex within a level
    (graded-lex), as exponent tuples, and ``points`` their box indices;
    ``cell_at`` maps a box index to its cell and ``rho_at``, built when
    first read, to its rho.  ``keeps`` per axis are the box points below
    its last coordinate (the keep masks of :func:`_up_closure`).  An empty
    list of indices gives an empty frame with no work proportional to the
    box.  The cells of I/J form a convex set, so the unit steps between
    cells are exactly the cover relations.

    The search reads the sub-boxes [c, g] of its branch cells and [0, d]
    of its tops through :meth:`upper` and :meth:`lower`: each is built on
    first use and shared by every decision on the poset, and at most
    MEMO_BITS // volume of them are kept, the failure memo's bound on box
    masks; beyond it a mask is built on every use.
    """

    def __init__(self, context: RingContext, g: tuple[int, ...], points: list[int]):
        mask = 0
        if points:
            # the mask's binary digits, most significant first
            digits = bytearray(b"0" * math.prod(gj + 1 for gj in g))
            for p in points:
                digits[-1 - p] = 49  # "1"
            mask = int(digits, 2)
        self._setup(context, g, mask)

    @classmethod
    def of_mask(cls, context: RingContext, g: tuple[int, ...], mask: int) -> CharPoset:
        """The poset whose cells are the set bits of a mask on [0, g]."""
        poset = cls.__new__(cls)
        poset._setup(context, g, mask)
        return poset

    def _setup(self, context: RingContext, g: tuple[int, ...], mask: int) -> None:
        self.context = context
        self.g = g
        self.dims = tuple(gj + 1 for gj in g)
        self.strides = box_strides(self.dims)
        self.volume = math.prod(self.dims)
        self._upper: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
        self._lower: dict[int, int] = {}
        self.mask = mask
        self.levels: list[int] = []
        self.rho_classes = [0] * (self.arity + 1)
        self.tops = [0] * (self.arity + 1)
        if mask:
            self.levels = [level for level in map(mask.__and__, _degree_masks(self.dims)) if level]
            # a cell has one rho per axis on which it sits at g_j
            faces = (~keep for keep in self.keeps)
            self.rho_classes = _count_classes(faces, mask, self.arity)
            self.tops = list(itertools.accumulate(reversed(self.rho_classes), operator.or_))[::-1]
        self.points = [p for level in self.levels for p in mask_points(level)]
        columns = ([p // s % d for p in self.points] for s, d in zip(self.strides, self.dims))
        self.cells = list(zip(*columns))
        self.cell_at = dict(zip(self.points, self.cells))

    @functools.cached_property
    def keeps(self) -> tuple[int, ...]:
        return _keep_masks(self.dims)

    @functools.cached_property
    def rho_at(self) -> dict[int, int]:
        return {p: sum(map(operator.eq, c, self.g)) for p, c in zip(self.points, self.cells)}

    @property
    def arity(self) -> int:
        return len(self.g)

    def maximal_mask(self) -> int:
        """The cells with no cell one unit step above them."""
        covered = 0
        for stride, keep in zip(self.strides, self.keeps):
            covered |= (self.mask >> stride) & keep
        return self.mask & ~covered

    def maximal_cells(self) -> list[int]:
        """Box indices of the maximal cells, in the cells' order."""
        top = self.maximal_mask()
        return [p for p in self.points if top >> p & 1]

    def upper(self, c: int) -> tuple[int, tuple[tuple[int, int], ...]]:
        """[c, g] for the cell at box index c, and the unit steps of its
        upward closure, g_j - c_j along each axis j (:func:`_unit_steps`)."""
        found = self._upper.get(c)
        if found is None:
            cell = self.cell_at[c]
            unit_steps = _unit_steps(map(operator.sub, self.g, cell), self.strides, self.keeps)
            found = box_mask(cell, self.g, self.strides), unit_steps
            if self._room():
                self._upper[c] = found
        return found

    def lower(self, d: int) -> int:
        """[0, d] for the cell at box index d."""
        found = self._lower.get(d)
        if found is None:
            found = box_mask((0,) * self.arity, self.cell_at[d], self.strides)
            if self._room():
                self._lower[d] = found
        return found

    def _room(self) -> bool:
        return len(self._upper) + len(self._lower) < MEMO_BITS // self.volume

    def __len__(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class Interval:
    """Lattice interval [lo, hi], all of whose points are poset cells."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("interval needs lo and hi of one length")
        if any(map(operator.gt, self.lo, self.hi)):
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
    """What a k-walk established: the Stanley depth lies in [lo, hi], lo
    proved by the partition found (the witness) and hi by the refutations.
    The answer is exact exactly when lo == hi; ``status`` and ``value``
    read it off the bracket."""

    lo: int
    hi: int
    witness: IntervalPartition | None
    nodes: int = 0
    elapsed: float = 0.0
    reduction: str | None = None  # None | "exponent-compression"

    @property
    def status(self) -> str:
        return "exact" if self.lo == self.hi else "unknown"

    @property
    def value(self) -> int | None:
        return self.lo if self.lo == self.hi else None

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
    """Componentwise max over the generator exponents of both ideals, and 0."""
    columns = zip((0,) * module.context.arity, *module.outer.exps, *module.inner.exps)
    return tuple(map(max, columns))


def poset_box(module: QuotientModule, budget: Budget = DEFAULT_BUDGET) -> tuple[int, ...]:
    """Side lengths g + 1 of the module's box [0, g] (:func:`degree_bound_g`),
    which its poset, its witness check and its strata walk; ResourceCapError
    when it has more points than the cell cap."""
    return _capped(tuple(gj + 1 for gj in degree_bound_g(module)), budget, "box")


def build_poset(module: QuotientModule, budget: Budget = DEFAULT_BUDGET) -> CharPoset:
    """Enumerate the cells of the box [0, g] belonging to the module."""
    dims = poset_box(module, budget)
    g = tuple(d - 1 for d in dims)
    return CharPoset.of_mask(module.context, g, module_mask(module, dims))


def _bits(mask: int):
    """The indices of the set bits, ascending, one at a time."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _candidates(poset: CharPoset, tops: int, c: int, uncovered: int, frugal: bool):
    """The tops d in tops with [c, d] inside the uncovered set, as box
    indices in the phase's order, one at a time.

    Greedy, best rho first and then larger intervals, is good at refutation
    and on most satisfiable instances.  Frugal, smaller intervals first,
    keeps high-rho tops available for the cells that need them; it rescues
    instances where greed paints the search into a corner.  Greedy sorts
    one rho class (``rho_classes``) at a time, the next only when the
    search comes back for it; frugal sorts them all at once.

    [c, d] lies inside the uncovered set exactly when no point of [c, g]
    outside it lies below d.  Closing those blocked points upwards, g_j -
    c_j steps along each axis j (:func:`_sweep_up` of the unit steps that
    :meth:`CharPoset.upper` keeps with [c, g]), gives every point of [c, g]
    above one of them (the keep masks stop each step at g_j, so the closure
    stays in [c, g]); the rest of [c, g] is every such d.
    """
    box, unit_steps = poset.upper(c)
    # both xors subtract a subset of box
    blocked = _sweep_up(box ^ (box & uncovered), unit_steps)
    reach = (box ^ blocked) & tops
    cell_at = poset.cell_at
    below = [cj - 1 for cj in cell_at[c]]
    # every point of [c, d] is a cell by convexity; the rho classes best first
    classes = reversed(poset.rho_classes)
    if frugal:
        rhos = itertools.count(poset.arity, -1)
        keys = [
            (math.prod(map(operator.sub, cell_at[d], below)), -rho, d)
            for rho, cls in zip(rhos, classes)
            for d in _bits(cls & reach)
        ]
        keys.sort()
        for key in keys:
            yield key[-1]
        return
    for cls in classes:
        cls &= reach
        if cls & (cls - 1):
            keys = [(-math.prod(map(operator.sub, cell_at[d], below)), d) for d in _bits(cls)]
            keys.sort()
            for key in keys:
                yield key[-1]
        elif cls:
            yield cls.bit_length() - 1
        reach ^= cls
        if not reach:
            return


def _search_phase(
    poset: CharPoset, tops: int, failed: set[int], frugal: bool, deadline: float, nodes: int,
    share: float = 1.0,
) -> tuple[str, list[tuple[int, int]] | None, int]:
    """One phase of the partition search: depth-first from the full cell
    set on an explicit stack, branching on the graded-lex smallest
    uncovered cell.  Cell sets are box masks; cells are box indices.

    Failed uncovered sets go into failed until it holds share of the memo
    bound (lossy beyond it).  nodes counts on from earlier phases; every
    256th node checks the deadline.
    An open node is [uncovered set, branch cell c, chosen top, its remaining
    candidates, degree level of the branch cell, [c, g]].  Trying top d
    removes [c, d] = [c, g] & [0, d], both masks from the poset
    (:meth:`CharPoset.upper`, :meth:`CharPoset.lower`).  Returns the status,
    the (cell, top) pairs deepest first if "true", and the node count;
    "false" means exhaustive, "unknown" that the deadline passed.
    """
    levels, upper, lower = poset.levels, poset.upper, poset.lower
    memo_cap = int(share * min(MEMO_CAP, MEMO_BITS // poset.volume))
    stack: list[list] = []
    uncovered = poset.mask
    level = 0
    while True:
        if uncovered == 0:
            return "true", [(c, d) for _, c, d, _, _, _ in reversed(stack)], nodes
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
            candidates = _candidates(poset, tops, c, uncovered, frugal)
            stack.append([uncovered, c, None, candidates, level, upper(c)[0]])
        # backtrack to the deepest open node with a candidate left
        while stack:
            node = stack[-1]
            d = next(node[3], None)
            if d is not None:
                node[2] = d
                uncovered = node[0] & ~(node[5] & lower(d))
                level = node[4]
                break
            stack.pop()
            if len(failed) < memo_cap:
                failed.add(node[0])
        else:
            return "false", None, nodes


def sdepth_decision(poset: CharPoset, k: int, budget: Budget = DEFAULT_BUDGET) -> Decision:
    """Does some interval partition of the poset achieve rho >= k everywhere?

    When every cell has rho >= k, as at k = 0, the singletons do, and the
    answer comes with 0 nodes and no search.  An axis of length one adds
    one to every rho, so decision k + 1 with it is decision k without it,
    this case included.
    """
    if not 0 <= k <= poset.arity:
        raise ValueError("k must lie between 0 and the number of variables")
    if len(poset) == 0:
        raise ValueError("empty poset: the module is zero")
    start = time.monotonic()
    tops = poset.tops[k]
    if tops == poset.mask:
        intervals = tuple(Interval(c, c) for c in poset.cells)
        return Decision("true", IntervalPartition(intervals), 0, time.monotonic() - start)
    failed: set[int] = set()
    nodes = 0
    # two-phase portfolio: restart with the frugal ordering when the greedy
    # one times out; the failure memo states ordering-independent facts, so
    # it carries over, and greedy may fill it only as far as its share of
    # the time limit, so that the frugal phase has room in it
    for frugal, share in ((False, 0.5), (True, 1.0)):
        deadline = start + share * budget.time_limit
        status, chosen, nodes = _search_phase(poset, tops, failed, frugal, deadline, nodes, share)
        if status != "unknown":
            break
    partition = None
    if status == "true":
        cell_at = poset.cell_at
        partition = IntervalPartition(tuple(Interval(cell_at[c], cell_at[d]) for c, d in chosen))
    return Decision(status, partition, nodes, time.monotonic() - start)


def pull_back(partition: IntervalPartition, levels: Exponents, kept: list[int]) -> IntervalPartition:
    """An interval partition of the compressed poset on the variables kept
    (coordinate i on variable kept[i]) as one of the module's own poset,
    levels and kept as returned by :func:`compress`: relabelled and widened
    in one pass.

    [c, d] becomes [v(c), h] with h_j = g_j when d_j is the top level and
    h_j = v(d_j + 1) - 1 otherwise: the original cells whose levels lie in
    [c, d].  Only top levels reach g_j, so rho is unchanged.  A variable not
    kept has the one level 0 = g_j.
    """
    # per variable and level, the top exponent of the level's box: the
    # level itself when the levels are 0, 1, ..., g_j
    tops = [v if len(v) > v[-1] else tuple(map((-1).__add__, v[1:])) + v[-1:] for v in levels]
    # per variable the coordinate it reads: its own if kept, else a 0
    # appended last; the getter's trailing -1 only makes it return a tuple
    # for one variable too, and the level maps stop before it
    where = dict(zip(kept, itertools.count()))
    spread = operator.itemgetter(*map(where.get, range(len(levels)), itertools.repeat(-1)), -1)
    intervals = tuple(
        Interval(
            tuple(map(operator.getitem, levels, spread(iv.lo + (0,)))),
            tuple(map(operator.getitem, tops, spread(iv.hi + (0,)))),
        )
        for iv in partition.intervals
    )
    return IntervalPartition(intervals)


def sdepth_walk(module: QuotientModule, budget: Budget = DEFAULT_BUDGET) -> SdepthResult:
    """The bracket [lo, hi] of the module's own poset, walking k down from
    the maximal-cell upper bound: the first k with a partition is lo, and
    hi is one below the last k refuted, or the bound.  An undecided k
    leaves hi where it is, so the answer is exact exactly when the
    refutations reach down to lo.  No reduction, no cache and no
    certificate check: the search behind :func:`sdepth_exact`, also the
    reference it is tested against.
    """
    if module.is_zero:
        raise ValueError("Stanley depth of the zero module is undefined")
    poset = build_poset(module, budget)
    maximal = poset.maximal_mask()
    hi = next(rho for rho, cls in enumerate(poset.rho_classes) if cls & maximal)
    nodes = 0
    elapsed = 0.0
    for k in range(hi, -1, -1):
        decision = sdepth_decision(poset, k, budget)
        nodes += decision.nodes
        elapsed += decision.elapsed
        if decision.status == "true":
            return SdepthResult(k, hi, decision.partition, nodes, elapsed)
        if decision.status == "false":
            hi = k - 1
    # at k = 0 every cell is a top, so the decision hands out singletons
    raise AssertionError("unreachable: decision at k=0 cannot fail")


@functools.lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape_walk(
    arity: int, outer: Exponents, inner: Exponents, budget: Budget
) -> tuple[tuple[int, ...], SdepthResult]:
    """The canonical order of the shape outer/inner (:func:`canonical_shape`)
    and the walk of the shape in that order, memoised by the shape in its
    own variable order: one lookup on every :func:`sdepth_exact` call, and
    a canonical form only for a new shape.  A canonical shape is walked
    (:func:`sdepth_walk`) in a ring of neutral variable names; any other
    takes the walk of its canonical shape from this memo, one level down,
    since the canonical form of a canonical shape is itself.  So every
    ordering of a poset shape shares one walk."""
    order, canonical_outer, canonical_inner = canonical_shape(arity, outer, inner)
    if (canonical_outer, canonical_inner) != (outer, inner):
        return order, _shape_walk(arity, canonical_outer, canonical_inner, budget)[1]
    context = _neutral_context(arity)
    module = QuotientModule(MonomialIdeal(context, outer), MonomialIdeal(context, inner))
    return order, sdepth_walk(module, budget)


def sdepth_exact(module: QuotientModule, budget: Budget = DEFAULT_BUDGET) -> SdepthResult:
    """Stanley depth by :func:`sdepth_walk` on the module's compressed,
    narrowed poset shape (:func:`compress`) with its variables in canonical
    order (:func:`canonical_shape`), memoised by shape and budget, not by
    variable names or variable order (:func:`_shape_walk`); only a
    canonical shape that memo has not seen builds a module and walks it.
    Permuting the variables permutes the poset's axes and keeps its Stanley
    depth, so every ordering of a shape shares one walk; ``nodes`` and the
    witness are those of the canonical ordering's search, and may differ
    from a walk in the module's own order.

    A variable no generator involves is an axis of length one in the box
    [0, g]: dropping it changes no box index and no cell order and lowers
    every rho by one, so decision k on the module is decision k - z on the
    narrowed one, z the number of dropped variables, node for node and
    interval for interval, and the result is shifted back by z.

    The witness comes back in the module's own coordinates by one
    :func:`pull_back` through the kept variables in canonical order, and
    has passed :func:`certify_witness` on the module itself, on every call,
    cache hits included: its intervals cover the module exactly, and their
    Stanley depth is at least the lower bound.  A witness failing a check
    raises CertificateError, so lower bounds are certified on the input.
    When compression changed the module, ``reduction`` says so: the
    refutations were then made on the compressed poset, and that its
    Stanley depth is the module's rests on the lcm-lattice theorem of
    Ichim, Katthan and Moyano-Fernandez.
    """
    if module.is_zero:
        raise ValueError("Stanley depth of the zero module is undefined")
    # the box [0, g] of the witness check, sized against the cap before
    # searching
    dims = poset_box(module, budget)
    levels, kept, outer, inner = compress(module)
    order, result = _shape_walk(len(kept), outer, inner, budget)
    kept = [kept[i] for i in order]
    relabelled = any(len(v) <= v[-1] for v in levels)
    dropped = len(levels) - len(kept)
    if relabelled or kept != list(range(len(levels))):
        result = replace(
            result,
            lo=result.lo + dropped,
            hi=result.hi + dropped,
            witness=pull_back(result.witness, levels, kept),
            reduction="exponent-compression" if relabelled else None,
        )
    certify_witness(result.witness, module, result.lo, dims)
    return result


def _intervals_of_box(los: list, his: list, g: tuple[int, ...]) -> bool:
    """Whether every [los[i], his[i]] has corners of len(g) ints with
    0 <= lo <= hi <= g, tested on all corners at once."""
    flat_lo = list(itertools.chain.from_iterable(los))
    flat_hi = list(itertools.chain.from_iterable(his))
    # the flat comparisons pair entries up only once every corner has
    # len(g) of them, and compare only ints
    return (
        {*map(len, los), *map(len, his)} <= {len(g)}
        and {*map(type, flat_lo), *map(type, flat_hi)} <= {int}
        and min(flat_lo, default=0) >= 0
        and all(map(operator.le, flat_lo, flat_hi))
        and all(map(operator.le, flat_hi, itertools.cycle(g)))
    )


def certify_witness(
    partition: IntervalPartition, module: QuotientModule, k: int, dims: tuple[int, ...]
) -> None:
    """Raise CertificateError unless the interval partition proves
    sdepth(module) >= k; dims is the module's box [0, g], as
    :func:`poset_box` sizes it.

    An interval [c, d] of [0, g] stands for the Stanley spaces of
    :func:`partition_to_decomposition`; x^p lies in one of them exactly when
    min(p, g) lies in [c, d], and in the module exactly when min(p, g) does.
    Three checks, each named by the error: every interval has arity
    non-negative int corners with lo <= hi <= g (the interval check), the
    intervals cover the module's cells exactly (the exact-cover check, by
    :func:`cover_mismatches`), and the least rho(d), the Stanley depth of
    the spaces, is at least k (the depth check).
    """

    def fail(check: str) -> CertificateError:
        return CertificateError(f"the witness for sdepth >= {k} of {module} fails the {check}")

    g = tuple(d - 1 for d in dims)
    los = [iv.lo for iv in partition.intervals]
    his = [iv.hi for iv in partition.intervals]
    if not _intervals_of_box(los, his, g):
        # name the first interval that fails
        iv = next(iv for iv in partition.intervals if not _intervals_of_box([iv.lo], [iv.hi], g))
        raise fail(f"interval check: [{iv.lo}, {iv.hi}] is not an interval of [0, {g}]")
    masks = map(box_mask, los, his, itertools.repeat(box_strides(dims)))
    if cover_mismatches(masks, module_mask(module, dims)):
        raise fail("exact-cover check")
    depth = min([sum(map(operator.eq, hi, g)) for hi in his], default=0)
    if depth < k:
        raise fail(f"depth check: its Stanley depth is {depth}")


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
    columns = zip(degree_bound_g(module), *corners)
    dims = _capped(tuple(max(column) + 2 for column in columns), budget, "certifying box")
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
